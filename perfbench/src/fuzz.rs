//! `fuzz_campaign`: coverage-guided campaigns with one worker against
//! the vulnerable firmware on each ISA and against the patched build.
//! Same fork and deliver layers as the fleet, but on hostile bytes:
//! most execs are rejected or fail parsing, so the answer bank and the
//! hijack run are bypassed.

use std::time::Instant;

use cml_core::derive_seed;
use cml_firmware::{Arch, FirmwareKind};
use cml_fuzz::{
    fuzz, minimize, Corpus, CoverageAccum, CrashRecord, FuzzConfig, FuzzReport, Harness, Mutator,
    WorkerStats,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::{Layer, Tracer};
use crate::Rep;

/// Execs per campaign.
const EXECS: u64 = 20_000;

pub struct Fuzz {
    campaigns: Vec<FuzzConfig>,
}

impl Fuzz {
    pub fn new(seed: u64) -> Fuzz {
        let targets = [
            (FirmwareKind::OpenElec, Arch::X86),
            (FirmwareKind::OpenElec, Arch::Armv7),
            (FirmwareKind::OpenElec, Arch::Riscv),
            (FirmwareKind::Patched, Arch::Armv7),
        ];
        let campaigns = targets
            .iter()
            .enumerate()
            .map(|(i, &(kind, arch))| {
                FuzzConfig::new(kind, arch, derive_seed(seed, 0xF022 + i as u64), EXECS, 1)
            })
            .collect();
        Fuzz { campaigns }
    }

    pub fn rep(&self, tr: &mut Tracer) -> Rep {
        let mut rep = Rep {
            ops: 0,
            wrong: 0,
            op_secs: 0.0,
            setup_secs: 0.0,
            latencies_ms: Vec::new(),
            output: String::new(),
            phases: None,
        };
        for cfg in &self.campaigns {
            let (report, setup, secs) = if tr.on() {
                replay(cfg, tr)
            } else {
                // A zero-budget campaign builds and boots the worker's
                // fork server; the real campaign then reuses it, so the
                // prep lands in setup and not in the exec loop.
                let t0 = Instant::now();
                fuzz(&FuzzConfig {
                    max_execs: 0,
                    ..*cfg
                });
                let t1 = Instant::now();
                let report = fuzz(cfg);
                (report, t1 - t0, t1.elapsed())
            };
            let execs = report.total_execs();
            let right = if cfg.kind.is_vulnerable() {
                report.found_overflow()
            } else {
                report.crashes.is_empty()
            };
            rep.ops += execs;
            rep.wrong += if right { 0 } else { execs };
            rep.setup_secs += setup.as_secs_f64();
            rep.op_secs += secs.as_secs_f64();
            rep.latencies_ms.push(secs.as_secs_f64() * 1e3);
            rep.output.push_str(&report.stats_json());
            rep.output.push_str(&report.crash_keys().join(","));
            rep.output.push('\n');
        }
        rep
    }
}

/// Drives `Harness`, `Mutator` and `Corpus` the way the fuzz driver's
/// one-worker campaign does, with each call inside a span, and returns
/// the report the driver would have merged.
fn replay(
    cfg: &FuzzConfig,
    tr: &mut Tracer,
) -> (FuzzReport, std::time::Duration, std::time::Duration) {
    let t0 = Instant::now();
    let setup = tr.open(Layer::Setup);
    let mut harness = tr.span(Layer::FuzzHarness, || {
        Harness::new(
            cfg.kind,
            cfg.arch,
            cfg.seed,
            cfg.coverage,
            cfg.reboot_per_exec,
        )
    });
    tr.close(setup);
    let t1 = Instant::now();

    let budget = cfg.max_execs;
    let wseed = derive_seed(cfg.seed, 0);
    let mut pick_rng = StdRng::seed_from_u64(derive_seed(wseed, 1));
    let mut mutator = Mutator::new(derive_seed(wseed, 2));
    let mut accum = CoverageAccum::new();
    let mut corpus = Corpus::new();
    let mut stats = WorkerStats::default();
    let mut crashes: Vec<CrashRecord> = Vec::new();
    let mut scratch = Vec::new();
    let mut novel = 0u64;

    for seed_input in tr.span(Layer::FuzzHarness, || harness.seed_inputs()) {
        if stats.execs >= budget {
            break;
        }
        let op = tr.open(Layer::Op);
        let out = tr.span(Layer::FuzzExec, || harness.exec(&seed_input, &mut accum));
        stats.execs += 1;
        tally(&mut stats, out.tag);
        corpus.admit(&seed_input);
        tr.close(op);
    }
    while stats.execs < budget {
        let op = tr.open(Layer::Op);
        if corpus.is_empty() {
            corpus.admit(&[0u8; 12]);
        }
        let base = corpus.pick(&mut pick_rng);
        let donor = corpus.pick_donor(&mut pick_rng, base);
        tr.span(Layer::FuzzMutate, || {
            mutator.mutate(base, donor, &mut scratch)
        });
        let out = tr.span(Layer::FuzzExec, || harness.exec(&scratch, &mut accum));
        stats.execs += 1;
        tally(&mut stats, out.tag);
        if let Some(key) = out.crash_key {
            if !crashes.iter().any(|c| c.key == key) {
                let budget_left = budget - stats.execs;
                let mut spent = 0u64;
                let minimized = tr.span(Layer::FuzzTriage, || {
                    minimize(&scratch, |candidate| {
                        if spent >= budget_left {
                            return None;
                        }
                        spent += 1;
                        Some(harness.reproduces(candidate, &key))
                    })
                });
                stats.execs += spent;
                crashes.push(CrashRecord {
                    key,
                    worker: 0,
                    input: minimized,
                    fault: out.fault.unwrap_or_default(),
                });
            }
        } else if out.novel {
            novel += 1;
            corpus.admit(&scratch);
        }
        tr.close(op);
        if stats.execs % 4096 == 0 {
            tr.flush();
        }
    }
    tr.flush();
    stats.corpus_len = corpus.len();
    stats.edges = accum.edges_seen();
    tr.count("fuzz.execs", stats.execs);
    tr.count("fuzz.useful", stats.answered + stats.crashed);
    tr.count("fuzz.novel", novel);
    tr.count("fuzz.edges", stats.edges as u64);
    tr.count("connman.outcome.answered", stats.answered);
    tr.count("connman.outcome.rejected", stats.rejected);
    tr.count("connman.outcome.parse_failed", stats.parse_failed);
    tr.count("connman.outcome.crashed", stats.crashed);
    let report = FuzzReport {
        config: *cfg,
        workers: vec![stats],
        crashes,
        corpus: corpus.entries().to_vec(),
    };
    (report, t1 - t0, t1.elapsed())
}

fn tally(stats: &mut WorkerStats, tag: &str) {
    match tag {
        "answered" => stats.answered += 1,
        "rejected" => stats.rejected += 1,
        "parse-failed" => stats.parse_failed += 1,
        "crashed" | "compromised" | "hijacked-exit" => stats.crashed += 1,
        _ => {}
    }
}

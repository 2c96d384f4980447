//! The connman-lab benchmark: four attack-campaign workloads run
//! through the crates' public functions in one process, one worker,
//! closed loop.
//!
//! ```text
//! cml-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cml-perfbench --pin        # regenerate pins.txt
//! ```
//!
//! A run repeats one fixed-size *repetition* of the workload until
//! `--seconds` have passed. Every repetition of a run gets the same
//! inputs, generated from the seed before timing starts, and its
//! deterministic output must match the digest pinned in `pins.txt`.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! untraced repetitions with traced replays and prints the per-layer
//! metrics. The last stdout line is the result object; the line before
//! it carries the details (digests, percentile, sample counts).

mod fleet;
mod fuzz;
mod retarget;
mod trace;
mod upstream;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use cml_analyze::json::{n, s, Value};
use cml_connman::ProxyOutcome;
use cml_core::{PhaseTimings, Verdict};
use cml_firmware::Daemon;

use trace::{CountingAlloc, Layer, LayerTotals, Tracer};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// An untraced run makes at least this many repetitions, whatever
/// `--seconds` says, so its medians always rest on a known minimum
/// sample.
const MIN_REPS: usize = 10;

/// Inputs derive from `seed % SLOTS`; each slot's output digest is
/// pinned, so every run checks its simulated results exactly.
const SLOTS: u64 = 32;

const PINS: &str = include_str!("../pins.txt");

pub const WORKLOADS: [&str; 4] = [
    "fleet_unique",
    "fuzz_campaign",
    "poisoned_upstream",
    "retarget",
];

/// What one repetition of a workload did.
pub struct Rep {
    /// Ops attempted (sessions, execs, arrivals, retargeted builds).
    pub ops: u64,
    /// Ops whose outcome contradicts ground truth.
    pub wrong: u64,
    /// Host seconds spent on ops.
    pub op_secs: f64,
    /// Host seconds of prep before the first op.
    pub setup_secs: f64,
    /// Host milliseconds per op the harness issues one at a time (a
    /// whole campaign for the batch workloads).
    pub latencies_ms: Vec<f64>,
    /// The deterministic output the digest covers.
    pub output: String,
    /// The fleet's own phase split, when the workload is a fleet run.
    pub phases: Option<PhaseTimings>,
}

pub enum Workload {
    Fleet(fleet::Fleet),
    Fuzz(fuzz::Fuzz),
    Upstream(upstream::Upstream),
    Retarget(retarget::Retarget),
}

impl Workload {
    /// Builds the workload's inputs from `seed` (outside any timing).
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        let seed = seed % SLOTS;
        Some(match name {
            "fleet_unique" => Workload::Fleet(fleet::Fleet::new(seed)),
            "fuzz_campaign" => Workload::Fuzz(fuzz::Fuzz::new(seed)),
            "poisoned_upstream" => Workload::Upstream(upstream::Upstream::new(seed)),
            "retarget" => Workload::Retarget(retarget::Retarget::new(seed)),
            _ => return None,
        })
    }

    pub fn rep(&self, tr: &mut Tracer) -> Rep {
        match self {
            Workload::Fleet(w) => w.rep(tr),
            Workload::Fuzz(w) => w.rep(tr),
            Workload::Upstream(w) => w.rep(tr),
            Workload::Retarget(w) => w.rep(tr),
        }
    }
}

/// Delivers `bytes` inside a `connman.deliver` span. The hijacked VM
/// run happens inside this call, so the `vm.*` counters size it.
pub fn deliver(tr: &mut Tracer, daemon: &mut Daemon, bytes: &[u8]) -> ProxyOutcome {
    let insns = daemon.machine().insn_count();
    let (hits, misses) = daemon.machine().decode_cache_stats();
    let out = tr.span(Layer::ConnmanDeliver, || daemon.deliver_response(bytes));
    if tr.on() {
        let (h, m) = daemon.machine().decode_cache_stats();
        tr.count("vm.insns", daemon.machine().insn_count() - insns);
        tr.count("vm.dcache_hits", h.saturating_sub(hits));
        tr.count("vm.dcache_misses", m.saturating_sub(misses));
        if let Some(name) = outcome_counter(&out) {
            tr.count(name, 1);
        }
    }
    out
}

fn outcome_counter(out: &ProxyOutcome) -> Option<&'static str> {
    Some(match out {
        ProxyOutcome::Compromised(_) => "connman.outcome.compromised",
        ProxyOutcome::Crashed(_) | ProxyOutcome::HijackedExit { .. } => "connman.outcome.crashed",
        ProxyOutcome::Rejected(_) => "connman.outcome.rejected",
        ProxyOutcome::ParseFailed { .. } => "connman.outcome.parse_failed",
        ProxyOutcome::Answered { .. } => "connman.outcome.answered",
        _ => return None,
    })
}

/// The fleet's verdict for a proxy outcome (the fleet's own classifier
/// is private to `cml-core`).
pub fn verdict(outcome: &ProxyOutcome) -> Verdict {
    match outcome {
        ProxyOutcome::Compromised(_) => Verdict::Shell,
        ProxyOutcome::Crashed(_) => Verdict::Crash,
        ProxyOutcome::HijackedExit { .. } => Verdict::Exit,
        ProxyOutcome::Rejected(_) | ProxyOutcome::ParseFailed { .. } => Verdict::Refused,
        ProxyOutcome::Answered { .. } => Verdict::Served,
        ProxyOutcome::DaemonDown => Verdict::Down,
        _ => Verdict::Served,
    }
}

/// FNV-1a over the output text.
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in text.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{h:016x}")
}

/// The digest pinned for `workload` at input slot `seed % SLOTS`.
pub fn pinned(workload: &str, seed: u64) -> Option<&'static str> {
    let slot = (seed % SLOTS).to_string();
    PINS.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next() == Some(workload) && f.next() == Some(slot.as_str())).then(|| f.next())?
    })
}

/// Median of a non-empty sample.
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile of a non-empty sample.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// One repetition's tail: the highest of p99, p95 and p90 that leaves
/// at least ten of its samples beyond it, or its maximum when it has
/// too few samples for any. Repetitions have a fixed size, so the
/// percentile is fixed per workload. The ladder stops at p99: further
/// out, the tail of a 0.1-ms arrival measured host interrupts rather
/// than the workload (README.md, "End-to-end metrics").
pub fn rep_tail(v: &[f64]) -> (f64, f64) {
    for p in [99.0, 95.0, 90.0] {
        let beyond = v.len() - ((p / 100.0) * v.len() as f64).ceil() as usize;
        if beyond >= 10 {
            return (p, percentile(v, p));
        }
    }
    (100.0, percentile(v, 100.0))
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Per-layer counters, in the order they are reported.
pub const COUNTERS: [&str; 18] = [
    "vm.insns",
    "vm.dcache_hits",
    "vm.dcache_misses",
    "connman.outcome.compromised",
    "connman.outcome.crashed",
    "connman.outcome.rejected",
    "connman.outcome.parse_failed",
    "connman.outcome.answered",
    "exploit.exploit_responses",
    "fuzz.novel",
    "fuzz.edges",
    "fuzz.execs",
    "netsim.upstream_queries",
    "netsim.cache.hits",
    "netsim.cache.misses",
    "netsim.cache.inserts",
    "netsim.cache.evictions",
    "netsim.cache.expirations",
];

/// Result of one benchmark run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub detail: Value<'static>,
}

impl Outcome {
    /// The result object: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn to_json(&self) -> Value<'static> {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone().into(),
                    Value::Obj(vec![("value".into(), n(*value)), ("unit".into(), s(*unit))]),
                )
            })
            .collect();
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), n(self.attempted as f64)),
            ("failed".into(), n(self.failed as f64)),
            ("metrics".into(), Value::Obj(metrics)),
        ])
    }
}

/// What a run keeps of one repetition: its figures, not its samples
/// or output, so the harness's memory does not grow with the number
/// of repetitions and `peak_rss_mb` measures the workload.
struct Summary {
    ops: u64,
    wrong: u64,
    throughput: f64,
    setup_secs: f64,
    p50_ms: f64,
    tail_ms: f64,
    tail_percentile: f64,
    samples: usize,
    digest: String,
    phases: Option<PhaseTimings>,
}

impl Summary {
    fn of(rep: &Rep) -> Summary {
        let (tail_percentile, tail_ms) = rep_tail(&rep.latencies_ms);
        Summary {
            ops: rep.ops,
            wrong: rep.wrong,
            throughput: rep.ops as f64 / rep.op_secs,
            setup_secs: rep.setup_secs,
            p50_ms: median(&rep.latencies_ms),
            tail_ms,
            tail_percentile,
            samples: rep.latencies_ms.len(),
            digest: digest(&rep.output),
            phases: rep.phases,
        }
    }
}

/// A traced replay: its summary, per-layer totals and counters.
struct Replay {
    summary: Summary,
    totals: [LayerTotals; Layer::ALL.len()],
    counters: std::collections::BTreeMap<&'static str, u64>,
}

/// Runs workload `name` for at least `seconds` and, untraced, at least
/// `min_reps` repetitions; with `traced`, each untraced repetition is
/// followed by a traced replay of the same inputs, which must reproduce
/// its output byte for byte. `None` for an unknown workload.
pub fn run(name: &str, seed: u64, seconds: f64, traced: bool, min_reps: usize) -> Option<Outcome> {
    let workload = Workload::new(name, seed)?;
    let pin = pinned(name, seed);
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut plain: Vec<Summary> = Vec::new();
    let mut replays: Vec<Replay> = Vec::new();
    let mut reproduced = true;
    loop {
        let rep = workload.rep(&mut Tracer::new(false));
        if traced {
            let mut tr = Tracer::new(true);
            let replay = workload.rep(&mut tr);
            tr.flush();
            reproduced &= replay.output == rep.output;
            replays.push(Replay {
                summary: Summary::of(&replay),
                totals: Layer::ALL.map(|l| tr.totals(l)),
                counters: tr.counters,
            });
        }
        plain.push(Summary::of(&rep));
        if started.elapsed() >= budget && (traced || plain.len() >= min_reps) {
            break;
        }
    }

    // Correctness: each repetition's output must match the pinned
    // digest; a mismatch fails all its ops.
    let mut attempted = 0;
    let mut failed = 0;
    let mut wrong = 0;
    let mut digests: Vec<String> = Vec::new();
    for rep in plain.iter().chain(replays.iter().map(|r| &r.summary)) {
        attempted += rep.ops;
        wrong += rep.wrong;
        failed += if Some(rep.digest.as_str()) == pin {
            rep.wrong
        } else {
            rep.ops
        };
        if !digests.contains(&rep.digest) {
            digests.push(rep.digest.clone());
        }
    }

    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    let mut detail = vec![
        ("workload".into(), s(name.to_string())),
        ("seed".into(), n(seed as f64)),
        ("slot".into(), n((seed % SLOTS) as f64)),
        ("repetitions".into(), n(plain.len() as f64)),
        ("wrong_outcomes".into(), n(wrong as f64)),
        ("pinned".into(), s(pin.unwrap_or("none"))),
        (
            "digests".into(),
            Value::Arr(digests.into_iter().map(s).collect()),
        ),
    ];
    if !traced {
        // Every timing is a median over repetitions, so a burst of host
        // noise that hits a few repetitions does not move the figure.
        let per_rep = |f: fn(&Summary) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
        metrics.push(("throughput_per_s".into(), per_rep(|r| r.throughput), "1/s"));
        metrics.push(("latency_p50_ms".into(), per_rep(|r| r.p50_ms), "ms"));
        metrics.push(("latency_tail_ms".into(), per_rep(|r| r.tail_ms), "ms"));
        metrics.push(("setup_s".into(), per_rep(|r| r.setup_secs), "s"));
        metrics.push(("peak_rss_mb".into(), peak_rss_mb()?, "MB"));
        detail.push(("samples_per_repetition".into(), n(plain[0].samples as f64)));
        detail.push(("tail_percentile".into(), n(plain[0].tail_percentile)));
    } else {
        for layer in Layer::ALL {
            let name = layer.name();
            let self_s: Vec<f64> = replays
                .iter()
                .map(|r| r.totals[layer as usize].self_s())
                .collect();
            let first = replays[0].totals[layer as usize];
            metrics.push((format!("{name}.self_s"), median(&self_s), "s"));
            metrics.push((format!("{name}.calls"), first.calls as f64, "count"));
            metrics.push((
                format!("{name}.allocs"),
                first.self_allocs() as f64,
                "count",
            ));
        }
        let counters = &replays[0].counters;
        let counter = |k: &str| counters.get(k).copied().unwrap_or(0);
        for k in COUNTERS {
            metrics.push((k.to_string(), counter(k) as f64, "count"));
        }
        // Useful share of the search execs (triage re-runs excluded).
        let searched = replays[0].totals[Layer::FuzzExec as usize].calls;
        let useful = if searched == 0 {
            0.0
        } else {
            counter("fuzz.useful") as f64 / searched as f64
        };
        metrics.push(("fuzz.useful_ratio".into(), useful, "ratio"));
        metrics.push((
            "netsim.trace_bytes".into(),
            counter("netsim.trace_bytes") as f64,
            "bytes",
        ));
        let phase = |f: fn(&PhaseTimings) -> f64| {
            let v: Vec<f64> = plain
                .iter()
                .map(|r| r.phases.as_ref().map_or(0.0, f))
                .collect();
            median(&v)
        };
        metrics.push(("fleet.phases.fork_s".into(), phase(|p| p.forge_secs), "s"));
        metrics.push((
            "fleet.phases.deliver_s".into(),
            phase(|p| p.deliver_secs),
            "s",
        ));
        metrics.push(("fleet.phases.vm_s".into(), phase(|p| p.vm_secs), "s"));
        let untraced_tput = median(&plain.iter().map(|r| r.throughput).collect::<Vec<_>>());
        let traced_tput = median(
            &replays
                .iter()
                .map(|r| r.summary.throughput)
                .collect::<Vec<_>>(),
        );
        metrics.push((
            "trace.throughput_gap".into(),
            1.0 - traced_tput / untraced_tput,
            "ratio",
        ));
        detail.push(("replays".into(), n(replays.len() as f64)));
        detail.push(("replays_reproduce_counters".into(), Value::Bool(reproduced)));
    }
    Some(Outcome {
        correct: failed == 0 && reproduced,
        attempted,
        failed,
        metrics,
        detail: Value::Obj(detail),
    })
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cml-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         cml-perfbench --pin",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--pin"] {
        for line in PINS.lines().take_while(|l| l.starts_with('#')) {
            println!("{line}");
        }
        for name in WORKLOADS {
            for slot in 0..SLOTS {
                let w = Workload::new(name, slot).expect("known workload");
                let rep = w.rep(&mut Tracer::new(false));
                if rep.wrong > 0 {
                    eprintln!(
                        "{name} slot {slot}: {} wrong outcomes; not pinned",
                        rep.wrong
                    );
                    return ExitCode::FAILURE;
                }
                println!("{name} {slot} {}", digest(&rep.output));
            }
        }
        return ExitCode::SUCCESS;
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    let Some(outcome) = run(&workload, seed, seconds, trace, MIN_REPS) else {
        eprintln!("unknown workload {workload:?} or no /proc/self/status");
        return usage();
    };
    println!("{}", outcome.detail);
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(bench: &Value<'_>, key: &str) -> Vec<(String, String)> {
        bench
            .get(key)
            .and_then(Value::as_arr)
            .expect("BENCHMARK.json lists the key")
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// One repetition of every workload, untraced and traced, at the
    /// smallest size the harness runs: outputs match their pins, no
    /// outcome contradicts ground truth, the replay reproduces the
    /// untraced counters, and the metrics emitted are exactly the ones
    /// `BENCHMARK.json` declares, with the declared units.
    #[test]
    fn smoke_run_of_every_workload_is_correct_and_declared() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let bench = cml_analyze::json::parse(&text).expect("BENCHMARK.json parses");
        let workloads: Vec<String> = declared(&bench, "workloads")
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for name in WORKLOADS {
            for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let out = run(name, 0, 1e-9, traced, 1).expect("known workload");
                assert!(out.correct, "{name} traced={traced}: {}", out.detail);
                assert_eq!(out.failed, 0, "{name}: error_rate must be 0");
                let mut emitted: Vec<(String, String)> = out
                    .metrics
                    .iter()
                    .map(|(m, _, unit)| (m.clone(), unit.to_string()))
                    .collect();
                let mut expected = declared(&bench, key);
                emitted.sort();
                expected.sort();
                assert_eq!(emitted, expected, "{name}: metrics vs BENCHMARK.json {key}");
                for (m, _) in &emitted {
                    assert!(
                        m.bytes()
                            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                        "metric name {m:?} uses only [A-Za-z0-9_.-]"
                    );
                }
            }
        }
    }

    #[test]
    fn rep_tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(rep_tail(&v), (99.0, 4950.0));
        let builds: Vec<f64> = (1..=102).map(f64::from).collect();
        assert_eq!(rep_tail(&builds), (90.0, 92.0));
        let few: Vec<f64> = (1..=4).map(f64::from).collect();
        assert_eq!(rep_tail(&few), (100.0, 4.0));
    }
}

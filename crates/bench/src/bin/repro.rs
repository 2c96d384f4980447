//! Regenerates every table/figure of the reproduced paper.
//!
//! ```text
//! repro                 # run E1..E10, print markdown to stdout
//! repro --exp e2 e5     # run selected experiments
//! repro --out FILE      # also write the markdown to FILE
//! repro --json          # machine-readable output
//! repro --jobs 4        # fan matrix experiments across 4 workers
//! repro --bench-json    # also time each experiment + a 1,000-device
//!                       # fleet + the static analyzer + the snapshot /
//!                       # dispatch / template / pool / resolver-cache
//!                       # ablations and write BENCH_<n>.json
//! repro --bench-smoke   # tiny-iteration ablation run checked row by row
//!                       # (`GUARDS`) against the newest BENCH_<n>.json
//!                       # holding ablations; exits 1 when any row fails
//!                       # or that file does not parse, 0 (with a note)
//!                       # when no baseline exists
//! repro --no-snapshot   # boot every E8 trial from scratch instead of
//!                       # forking a per-entropy-level snapshot
//! repro --sanitize      # run the 9-cell exploit matrix under the VM
//!                       # shadow-memory sanitizer and print precise
//!                       # overflow diagnostics per cell
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use cml_analyze::json::{self, s, Value};
use cml_core::experiments;
use cml_core::fleet::{
    run_fleet_cfg, run_fleet_with, FleetConfig, FleetReport, FleetSpec, ENTROPY_FULL,
};
use cml_core::report::Suite;
use cml_core::{Arch, Firmware, FirmwareKind, Lab, Protections, ProxyOutcome};
use cml_dns::{BufPool, Message, Name, Question, RecordType};
use cml_exploit::target::deliver_labels;
use cml_exploit::template::apply_slides;
use cml_exploit::{
    ArmGadgetExeclp, CodeInjection, ExploitStrategy, MaliciousDnsServer, PayloadTemplate, Ret2Libc,
    RiscvGadgetSystem, RopMemcpyChain, Slides,
};
use cml_fuzz::FuzzConfig;
use cml_vm::{x86, Fault, Machine, X86Reg};
use Better::{Higher, Lower};
use Loc::{At, Decode, FirstVsa, IrRatio, SumVsa};

/// Counts allocation-acquiring calls so the ablations can report heap
/// traffic alongside wall time (frees are uninteresting here).
struct CountingAllocator;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocs_so_far() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// A field of a bench record: a count, a wall time or ratio, or a
/// nested value.
trait Field<'a> {
    fn json(self) -> Value<'a>;
}

impl<'a> Field<'a> for Value<'a> {
    fn json(self) -> Value<'a> {
        self
    }
}

impl<'a> Field<'a> for f64 {
    fn json(self) -> Value<'a> {
        Value::Num(self)
    }
}

impl<'a> Field<'a> for u64 {
    fn json(self) -> Value<'a> {
        Value::Num(self as f64)
    }
}

impl<'a> Field<'a> for usize {
    fn json(self) -> Value<'a> {
        Value::Num(self as f64)
    }
}

/// `obj! { "key" => field, … }`: a JSON object with its fields in the
/// order written.
macro_rules! obj {
    ($($key:literal => $val:expr),* $(,)?) => {
        Value::Obj(vec![$(($key.into(), Field::json($val))),*])
    };
}

/// A bench record, or one section of one.
type Json = Value<'static>;

const ALL_IDS: [&str; 10] = ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10"];
const FLEET_DEVICES: u64 = 1000;

/// Devices in the `fleet_scale` headline scenario (homogeneous cohort,
/// weak-boot-entropy class model — the million-device campaign).
const FLEET_SCALE_DEVICES: u64 = 1_000_000;

/// Devices per `fleet_scale` ablation arm. Run at full boot entropy
/// (one session per device) so per-session costs dominate and the
/// batched/streamed arms are compared against real per-device work.
const FLEET_ABLATION_DEVICES: u64 = 100_000;

fn main() {
    let mut ids: Vec<String> = Vec::new();
    let mut out_path: Option<String> = None;
    let mut json = false;
    let mut bench_json = false;
    let mut bench_smoke = false;
    let mut sanitize = false;
    let mut snapshot = true;
    let mut jobs = 1usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--exp" => { /* ids follow */ }
            "--out" => out_path = args.next(),
            "--json" => json = true,
            "--bench-json" => bench_json = true,
            "--bench-smoke" => bench_smoke = true,
            "--sanitize" => sanitize = true,
            "--no-snapshot" => snapshot = false,
            "--jobs" => {
                jobs = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--jobs wants a number, using 1");
                    1
                });
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro [--exp e1 e2 …] [--out FILE] [--json] \
                     [--jobs N] [--bench-json] [--bench-smoke] \
                     [--no-snapshot] [--sanitize]"
                );
                return;
            }
            other => ids.push(other.to_string()),
        }
    }

    if bench_smoke {
        std::process::exit(smoke_vs_baseline());
    }
    if sanitize {
        std::process::exit(sanitize_matrix());
    }

    let run_ids: Vec<String> = if ids.is_empty() {
        ALL_IDS.iter().map(|s| s.to_string()).collect()
    } else {
        ids.clone()
    };
    if ids.is_empty() {
        eprintln!("running all experiments (E1..E10) on {jobs} worker(s)…");
    }

    // Run experiment-by-experiment so --bench-json can attribute wall
    // time to each table; concatenating per-id runs reproduces
    // run_all_jobs() output exactly (both are ordered merges).
    let mut tables = Vec::new();
    let mut timings: Vec<(String, f64)> = Vec::new();
    for id in &run_ids {
        let t0 = Instant::now();
        match experiments::run_one_jobs_with(id, jobs, snapshot) {
            Some(t) => {
                let secs = t0.elapsed().as_secs_f64();
                eprintln!("finished {id} in {:.2}s", secs);
                timings.push((id.clone(), secs));
                tables.push(t);
            }
            None => eprintln!("unknown experiment id {id:?} (want e1..e10)"),
        }
    }
    let suite = Suite { tables };

    let body = if json {
        suite_json(&suite).to_string()
    } else {
        suite.to_markdown()
    };
    println!("{body}");
    if let Some(path) = out_path {
        match std::fs::File::create(&path).and_then(|mut f| f.write_all(body.as_bytes())) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }

    if bench_json {
        let spec = FleetSpec::heterogeneous(FLEET_DEVICES, 0xF1EE7);
        eprintln!("timing a {FLEET_DEVICES}-device fleet on {jobs} worker(s)…");
        let report = run_fleet_with(&spec, jobs, snapshot);
        let fleet = obj! {
            "devices" => report.devices,
            "jobs" => report.jobs,
            "wall_secs" => report.elapsed.as_secs_f64(),
            "devices_per_sec" => report.devices_per_sec(),
            "compromised" => report.compromised(),
            "survivors" => report.survivors(),
        };
        eprintln!("fleet: {fleet}");
        eprintln!("timing the fleet_scale campaign ({FLEET_SCALE_DEVICES} devices)…");
        let scale = fleet_scale_timings(jobs);
        eprintln!("fleet_scale: {scale}");
        eprintln!("timing the static analyzer on all three architectures…");
        let analysis = analysis_timings();
        eprintln!("analysis: {analysis}");
        eprintln!("running the snapshot/dispatch ablations…");
        let ablations = run_ablations(ABLATION_TRIALS);
        eprintln!("ablations: {ablations}");
        let experiments = timings
            .into_iter()
            .map(|(id, secs)| obj! { "id" => s(id), "wall_secs" => secs })
            .collect();
        let record = obj! {
            "jobs" => jobs,
            "experiments" => Value::Arr(experiments),
            "analysis" => analysis,
            "ablations" => ablations,
            "fleet" => fleet,
            "fleet_scale" => scale,
        };
        // One past the highest index, never filling a hole: the smoke
        // guard baselines on the highest index, so a hole-filling name
        // would be invisible to it.
        let next = bench_files(Path::new("."))
            .first()
            .map_or(0, |(n, _)| n + 1);
        let path = format!("BENCH_{next}.json");
        match std::fs::write(&path, format!("{record}\n")) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
}

/// Trials per ablation arm for the full `--bench-json` run.
const ABLATION_TRIALS: u64 = 48;

/// Trials per ablation arm for the `--bench-smoke` CI stage.
const SMOKE_TRIALS: u64 = 6;

/// Inner repetitions per trial for the allocation-path ablations (one
/// template relocation or pooled query is far below timer resolution).
const PATH_REPS: u64 = 64;

/// Runs the ablations at `trials` iterations per arm. The snapshot and
/// dispatch workloads are one E8-style trial: boot (or fork) an
/// OpenELEC/x86 daemon under full protections and deliver one oversized
/// response. The template and pool workloads are one steady-state fleet
/// payload/packet step. Returns the record's `ablations` section.
fn run_ablations(trials: u64) -> Json {
    let fw = Firmware::build(FirmwareKind::OpenElec, Arch::X86);
    let prot = Protections::full();
    let labels: Vec<Vec<u8>> = vec![0x41u8; 1300].chunks(63).map(<[u8]>::to_vec).collect();

    // Arm 1: a fresh boot per trial.
    let t0 = Instant::now();
    let mut fresh_insns = 0u64;
    for seed in 0..trials {
        let mut daemon = fw.boot(prot, 0x5EED_0000 + seed);
        deliver_labels(&mut daemon, labels.clone());
        fresh_insns += daemon.machine().insn_count();
    }
    let fresh_wall_secs = t0.elapsed().as_secs_f64();

    // Arm 2: boot once, fork (restore + reslide) per trial. insn_count
    // is monotonic across restore, so the delta is the true trial cost.
    let t0 = Instant::now();
    let mut forge = fw.forge(prot, 0x5EED_0000);
    let mut forked_insns = 0u64;
    for seed in 0..trials {
        let daemon = forge.fork(0x5EED_0000 + seed);
        let before = daemon.machine().insn_count();
        deliver_labels(daemon, labels.clone());
        forked_insns += daemon.machine().insn_count() - before;
    }
    let forked_wall_secs = t0.elapsed().as_secs_f64();

    // Dispatch ablation: a daemon_init-shaped hot loop (the dominant
    // straight-line/backward-branch mix IR dispatch targets) under
    // threaded-code IR dispatch vs. per-instruction stepping. Trials
    // interleave the two arms and time only the `run()` call, so slow
    // machine phases hit both arms equally and setup cost stays out of
    // the ratio.
    let mut dispatch = [0.0f64; 2];
    let mut dispatch_insns = 0u64;
    for _ in 0..trials {
        let mut insns = 0u64;
        for (slot, ir_on) in [(0usize, true), (1, false)] {
            let mut m = dispatch_loop_machine();
            m.set_ir_dispatch_enabled(ir_on);
            let t0 = Instant::now();
            m.run(1_000_000);
            dispatch[slot] += t0.elapsed().as_secs_f64();
            insns = m.insn_count();
        }
        dispatch_insns = insns;
    }

    // Template ablation: per-device payload labels by rebuilding from
    // scratch against the slid target vs. relocating a compiled
    // template into warm buffers. Same slide sequence in both arms.
    let strategy = RopMemcpyChain::new(Arch::X86);
    let lab = Lab::new(FirmwareKind::OpenElec, Arch::X86).with_protections(prot);
    let reference = lab.recon().expect("replica recon");
    let template = PayloadTemplate::compile(&strategy, &reference).expect("template compiles");
    let slides_for = |i: u64| Slides {
        pie: ((i % 29) * 0x1000) as i64,
        libc: ((i % 23) * 0x1000) as i64,
        stack: ((i % 31) * 0x1000) as i64,
        canary: 0,
    };
    let reps = trials * PATH_REPS;

    let a0 = allocs_so_far();
    let t0 = Instant::now();
    for i in 0..reps {
        let labels = strategy
            .build(&apply_slides(&reference, &slides_for(i)))
            .expect("rebuild against the slid target")
            .to_labels()
            .expect("rebuild labels");
        std::hint::black_box(&labels);
    }
    let rebuild_wall_secs = t0.elapsed().as_secs_f64();
    let rebuild_allocs = allocs_so_far() - a0;

    let mut image_buf = Vec::new();
    let mut label_buf = Vec::new();
    for i in 0..4 {
        // Warm-up sizes the buffers before the measured window.
        template
            .relocate_labels(&slides_for(i), &mut image_buf, &mut label_buf)
            .expect("static plan");
    }
    let a0 = allocs_so_far();
    let t0 = Instant::now();
    for i in 0..reps {
        template
            .relocate_labels(&slides_for(i), &mut image_buf, &mut label_buf)
            .expect("static plan");
        std::hint::black_box(&label_buf);
    }
    let template_wall_secs = t0.elapsed().as_secs_f64();
    let template_allocs = allocs_so_far() - a0;

    // Pool ablation: answering the canonical proxy query into a fresh
    // Vec per query vs. into a warm pooled buffer.
    let labels = template
        .instantiate(&Slides::identity())
        .expect("identity labels");
    let mut server = MaliciousDnsServer::with_labels(labels, template.name());
    let query = Message::query(
        0x5150,
        Question::new(
            Name::parse("telemetry.vendor.example").expect("valid"),
            RecordType::A,
        ),
    )
    .encode()
    .expect("encodes");

    let a0 = allocs_so_far();
    let t0 = Instant::now();
    for _ in 0..reps {
        let response = server.handle(&query).expect("query answered");
        std::hint::black_box(&response);
    }
    let alloc_wall_secs = t0.elapsed().as_secs_f64();
    let alloc_allocs = allocs_so_far() - a0;

    let mut pool = BufPool::new();
    for _ in 0..4 {
        let mut out = pool.checkout();
        assert!(server.handle_into(&query, &mut out), "query answered");
        pool.checkin(out);
    }
    let a0 = allocs_so_far();
    let t0 = Instant::now();
    for _ in 0..reps {
        let mut out = pool.checkout();
        server.handle_into(&query, &mut out);
        std::hint::black_box(out.as_bytes());
        pool.checkin(out);
    }
    let pooled_wall_secs = t0.elapsed().as_secs_f64();
    let pooled_allocs = allocs_so_far() - a0;

    // Resolver-cache ablation. The fleet fast path is a warm cache hit
    // replayed into a pooled buffer: one full recursion fills the
    // cache, then every later query is a hashed lookup + copy. The
    // alloc arm serves the same hits into a fresh Vec per query; the
    // cache-off arm expires the entry before every query so each one
    // walks the whole root → TLD → authoritative chain.
    let resolver_queries = reps * 64;
    let (mut net, _) = cml_netsim::example_internet();
    let mut resolver = cml_netsim::RecursiveResolver::new(0x5EED, 64);
    let rq = Message::query(
        0x3111,
        Question::new(
            Name::parse("telemetry.vendor.example").expect("valid"),
            RecordType::A,
        ),
    )
    .encode()
    .expect("encodes");
    let mut rbuf = Vec::new();
    assert!(
        resolver.handle_query_into(&mut net, &rq, &mut rbuf),
        "the ablation name resolves"
    );
    resolver.clear_trace();
    for _ in 0..4 {
        // Warm-up sizes the output buffer before the measured window.
        resolver.handle_query_into(&mut net, &rq, &mut rbuf);
    }
    let a0 = allocs_so_far();
    let t0 = Instant::now();
    for _ in 0..resolver_queries {
        resolver.handle_query_into(&mut net, &rq, &mut rbuf);
        std::hint::black_box(rbuf.as_slice());
    }
    let resolver_cached_wall_secs = t0.elapsed().as_secs_f64();
    let resolver_cached_allocs = allocs_so_far() - a0;

    let a0 = allocs_so_far();
    let t0 = Instant::now();
    for _ in 0..resolver_queries {
        let resp = resolver.handle_query(&mut net, &rq).expect("warm hit");
        std::hint::black_box(&resp);
    }
    let resolver_alloc_wall_secs = t0.elapsed().as_secs_f64();
    let resolver_alloc_allocs = allocs_so_far() - a0;

    // The record's TTL is 300s; stepping the event clock past it before
    // each query forces a miss, so this arm pays recursion + expiry
    // churn — what every query would cost without the cache.
    let resolver_uncached_queries = reps;
    let t0 = Instant::now();
    for _ in 0..resolver_uncached_queries {
        let due = resolver.now() + 301 * cml_netsim::TICKS_PER_SEC;
        resolver.advance_to(due);
        resolver.handle_query_into(&mut net, &rq, &mut rbuf);
        std::hint::black_box(rbuf.as_slice());
        resolver.clear_trace();
    }
    let resolver_uncached_wall_secs = t0.elapsed().as_secs_f64();

    // Decode-table ablation: walking each ISA's vulnerable `.text` end
    // to end with the declarative-table decoder vs. the retained
    // hand-rolled reference decoder. Interleaved per trial like the
    // dispatch ablation so machine-speed phases hit both arms equally.
    let decode_table: Vec<Json> = Arch::ALL
        .iter()
        .map(|&arch| {
            use cml_image::SectionKind;
            let fw = Firmware::build(FirmwareKind::OpenElec, arch);
            let text = fw
                .image()
                .section(SectionKind::Text)
                .expect("firmware has .text")
                .bytes()
                .to_vec();
            let mut walls = [0.0f64; 2];
            let mut insns = 0u64;
            for _ in 0..trials {
                for (slot, pass) in [
                    (0usize, decode_pass(arch, &text, true)),
                    (1, decode_pass(arch, &text, false)),
                ] {
                    walls[slot] += pass.0;
                    insns = pass.1;
                }
            }
            obj! {
                "isa" => s(arch.to_string()),
                "table_wall_secs" => walls[0],
                "handrolled_wall_secs" => walls[1],
                "insns_per_pass" => insns,
                "decode_wall_ratio" => walls[1] / walls[0].max(1e-12),
            }
        })
        .collect();

    // Fuzzing ablations: the same fixed-seed campaign three ways —
    // coverage-on fork (the production configuration), coverage-off
    // (bitmap cost), reboot-per-exec (snapshot advantage inside the
    // fuzz loop, which also forfeits the warm dirty-page working set).
    let fuzz_execs = trials * 64;
    let base_cfg = FuzzConfig::new(FirmwareKind::OpenElec, Arch::X86, 0x5EED, fuzz_execs, 1);
    // Warm-up, like the template/pool windows above: the first campaign
    // on a thread builds and boots the firmware; a throwaway run leaves
    // the fork server cached so the measured wall is campaign
    // throughput, not boot cost.
    cml_fuzz::fuzz(&base_cfg);
    let t0 = Instant::now();
    let report = cml_fuzz::fuzz(&base_cfg);
    let fuzz_wall_secs = t0.elapsed().as_secs_f64();
    assert_eq!(
        report.total_execs(),
        fuzz_execs,
        "campaign spends its budget"
    );

    let mut reboot = base_cfg;
    reboot.reboot_per_exec = true;
    let t0 = Instant::now();
    cml_fuzz::fuzz(&reboot);
    let fuzz_reboot_wall_secs = t0.elapsed().as_secs_f64();

    // RISC-V fuzzing throughput: the same fixed-seed campaign on the
    // RV32IC target, warmed the same way as the x86 arm.
    let riscv_fuzz_execs = trials * 64;
    let riscv_cfg = FuzzConfig::new(
        FirmwareKind::OpenElec,
        Arch::Riscv,
        0x5EED,
        riscv_fuzz_execs,
        1,
    );
    cml_fuzz::fuzz(&riscv_cfg);
    let t0 = Instant::now();
    let riscv_report = cml_fuzz::fuzz(&riscv_cfg);
    let riscv_fuzz_wall_secs = t0.elapsed().as_secs_f64();
    assert_eq!(
        riscv_report.total_execs(),
        riscv_fuzz_execs,
        "riscv campaign spends its budget"
    );

    // Coverage-hook arm: one fixed input set (the benign seeds plus
    // deterministic mutants of them), replayed with the map armed and
    // disarmed. Same parses, same forks — only the bitmap differs.
    let replay: Vec<Vec<u8>> = {
        let mut h = cml_fuzz::Harness::new(FirmwareKind::OpenElec, Arch::X86, 0x5EED, true, false);
        let seeds = h.seed_inputs();
        let mut m = cml_fuzz::Mutator::new(0x5EED);
        let mut out = Vec::new();
        let mut inputs = seeds.clone();
        for i in 0..61usize {
            m.mutate(&seeds[i % seeds.len()], None, &mut out);
            inputs.push(out.clone());
        }
        inputs
    };
    let cov_replay_execs = trials * replay.len() as u64;
    // Interleaved like the dispatch ablation: one on-trial then one
    // off-trial per round, so a machine-speed phase hits both arms
    // equally instead of skewing whichever arm ran through it.
    let mut cov_wall = [0.0f64; 2];
    let mut cov_harness = [
        cml_fuzz::Harness::new(FirmwareKind::OpenElec, Arch::X86, 0x5EED, true, false),
        cml_fuzz::Harness::new(FirmwareKind::OpenElec, Arch::X86, 0x5EED, false, false),
    ];
    let mut cov_acc = [
        cml_fuzz::CoverageAccum::new(),
        cml_fuzz::CoverageAccum::new(),
    ];
    for _ in 0..trials {
        for slot in 0..2 {
            let (h, acc) = (&mut cov_harness[slot], &mut cov_acc[slot]);
            let t0 = Instant::now();
            for input in &replay {
                std::hint::black_box(h.exec(input, acc));
            }
            cov_wall[slot] += t0.elapsed().as_secs_f64();
        }
    }

    let (fresh_insns, forked_insns) = (fresh_insns / trials.max(1), forked_insns / trials.max(1));
    let cached_per_query = resolver_cached_wall_secs / resolver_queries.max(1) as f64;
    let uncached_per_query = resolver_uncached_wall_secs / resolver_uncached_queries.max(1) as f64;
    obj! {
        "snapshot_vs_reboot" => obj! {
            "trials" => trials,
            "fresh_insns_per_trial" => fresh_insns,
            "forked_insns_per_trial" => forked_insns,
            "insn_ratio" => fresh_insns as f64 / forked_insns.max(1) as f64,
            "fresh_wall_secs" => fresh_wall_secs,
            "forked_wall_secs" => forked_wall_secs,
        },
        "ir_vs_insn" => obj! {
            "trials" => trials,
            "insns_per_trial" => dispatch_insns,
            "ir_wall_secs" => dispatch[0],
            "insn_wall_secs" => dispatch[1],
            "wall_ratio" => dispatch[1] / dispatch[0].max(1e-12),
        },
        "template_vs_rebuild" => obj! {
            "builds" => reps,
            "rebuild_wall_secs" => rebuild_wall_secs,
            "template_wall_secs" => template_wall_secs,
            "wall_ratio" => rebuild_wall_secs / template_wall_secs.max(1e-12),
            "rebuild_allocs_per_build" => rebuild_allocs / reps.max(1),
            "template_allocs_per_build" => template_allocs / reps.max(1),
        },
        "pooled_vs_alloc" => obj! {
            "queries" => reps,
            "alloc_wall_secs" => alloc_wall_secs,
            "pooled_wall_secs" => pooled_wall_secs,
            "wall_ratio" => alloc_wall_secs / pooled_wall_secs.max(1e-12),
            "alloc_allocs_per_query" => alloc_allocs / reps.max(1),
            "pooled_allocs_per_query" => pooled_allocs / reps.max(1),
        },
        "resolver" => obj! {
            "queries" => resolver_queries,
            "cached_wall_secs" => resolver_cached_wall_secs,
            "resolver_qps" => resolver_queries as f64 / resolver_cached_wall_secs.max(1e-12),
            "cached_allocs_per_query" => resolver_cached_allocs / resolver_queries.max(1),
            "alloc_wall_secs" => resolver_alloc_wall_secs,
            "alloc_ratio" => resolver_alloc_wall_secs / resolver_cached_wall_secs.max(1e-12),
            "alloc_allocs_per_query" => resolver_alloc_allocs / resolver_queries.max(1),
            "uncached_queries" => resolver_uncached_queries,
            "uncached_wall_secs" => resolver_uncached_wall_secs,
            "cache_off_ratio" => uncached_per_query / cached_per_query.max(1e-15),
        },
        "fuzz" => obj! {
            "execs" => fuzz_execs,
            "fuzz_execs_per_sec" => fuzz_execs as f64 / fuzz_wall_secs.max(1e-12),
            "coverage_hook_overhead" => obj! {
                "replay_execs" => cov_replay_execs,
                "on_wall_secs" => cov_wall[0],
                "off_wall_secs" => cov_wall[1],
                "overhead_ratio" => cov_wall[0] / cov_wall[1].max(1e-12),
            },
            "fork_vs_reboot_fuzz" => obj! {
                "fork_wall_secs" => fuzz_wall_secs,
                "reboot_wall_secs" => fuzz_reboot_wall_secs,
                "wall_ratio" => fuzz_reboot_wall_secs / fuzz_wall_secs.max(1e-12),
            },
        },
        "decode_table" => Value::Arr(decode_table),
        "riscv_fuzz" => obj! {
            "execs" => riscv_fuzz_execs,
            "wall_secs" => riscv_fuzz_wall_secs,
            "execs_per_sec" => riscv_fuzz_execs as f64 / riscv_fuzz_wall_secs.max(1e-12),
        },
    }
}

/// One timed decode pass over `bytes`: sequential decode from offset 0,
/// stepping past undecodable windows at the ISA's alignment granule.
/// Returns `(wall_secs, instructions_decoded)`.
fn decode_pass(arch: Arch, bytes: &[u8], table: bool) -> (f64, u64) {
    type Decoder<I, E> = fn(&[u8]) -> Result<(I, usize), E>;
    fn walk<I, E>(bytes: &[u8], min_step: usize, dec: Decoder<I, E>) -> (f64, u64) {
        let mut off = 0usize;
        let mut n = 0u64;
        let t0 = Instant::now();
        while off < bytes.len() {
            match dec(&bytes[off..]) {
                Ok((insn, len)) => {
                    std::hint::black_box(&insn);
                    off += len.max(min_step);
                    n += 1;
                }
                Err(_) => off += min_step,
            }
        }
        (t0.elapsed().as_secs_f64(), n)
    }
    match (arch, table) {
        (Arch::X86, true) => walk(bytes, 1, x86::decode),
        (Arch::X86, false) => walk(bytes, 1, x86::decode_reference),
        (Arch::Armv7, true) => walk(bytes, 4, cml_vm::arm::decode),
        (Arch::Armv7, false) => walk(bytes, 4, cml_vm::arm::decode_reference),
        (Arch::Riscv, true) => walk(bytes, 2, cml_vm::riscv::decode),
        (Arch::Riscv, false) => walk(bytes, 2, cml_vm::riscv::decode_reference),
    }
}

/// A machine running a daemon_init-shaped x86 hot loop (~300k executed
/// instructions): `mov ecx, 50000; loop: inc eax ×4; dec ecx; jnz loop`
/// then `exit(0)`.
fn dispatch_loop_machine() -> Machine {
    use cml_image::{Perms, SectionKind};
    let code = x86::Asm::new()
        .mov_r_imm(X86Reg::Ecx, 50_000)
        .inc_r(X86Reg::Eax)
        .inc_r(X86Reg::Eax)
        .inc_r(X86Reg::Eax)
        .inc_r(X86Reg::Eax)
        .dec_r(X86Reg::Ecx)
        .jnz_rel8(-7)
        .xor_rr(X86Reg::Eax, X86Reg::Eax)
        .mov_r8_imm(X86Reg::Eax, 1)
        .int80()
        .finish();
    let mut m = Machine::new(cml_image::Arch::X86);
    m.mem_mut()
        .map(".text", Some(SectionKind::Text), 0x1000, 0x1000, Perms::RX);
    m.mem_mut()
        .map("stack", Some(SectionKind::Stack), 0x8000, 0x1000, Perms::RW);
    m.mem_mut().poke(0x1000, &code).expect("code fits");
    m.regs_mut().set_pc(0x1000);
    m.regs_mut().set_sp(0x8800);
    m
}

/// Where a guarded number lives in a bench record.
enum Loc {
    /// The number at this dotted key path.
    At(&'static str),
    /// `decode_wall_ratio` of the `ablations.decode_table` entry for
    /// this ISA.
    Decode(&'static str),
    /// `vsa_wall_secs` of the first `analysis` entry.
    FirstVsa,
    /// `vsa_wall_secs` summed over every `analysis` entry.
    SumVsa,
    /// `insn_wall_secs / ir_wall_secs`, each from the first `ablations`
    /// section holding it: `ir_vs_insn` in current records,
    /// `block_vs_insn` and `ir_vs_block` in BENCH_6–10.
    IrRatio,
}

impl Loc {
    fn read(&self, record: &Json) -> Option<f64> {
        let vsa = |entry: &Json| entry.get("vsa_wall_secs")?.as_num();
        match self {
            Loc::At(path) => path
                .split('.')
                .try_fold(record, |v, key| v.get(key))?
                .as_num(),
            Loc::Decode(isa) => record
                .get("ablations")?
                .get("decode_table")?
                .as_arr()?
                .iter()
                .find(|entry| entry.get("isa").and_then(Value::as_str) == Some(isa))?
                .get("decode_wall_ratio")?
                .as_num(),
            Loc::FirstVsa => vsa(record.get("analysis")?.as_arr()?.first()?),
            Loc::SumVsa => record.get("analysis")?.as_arr()?.iter().map(vsa).sum(),
            Loc::IrRatio => {
                let Value::Obj(sections) = record.get("ablations")? else {
                    return None;
                };
                let first = |key| sections.iter().find_map(|(_, s)| s.get(key)?.as_num());
                let (insn, ir) = (first("insn_wall_secs")?, first("ir_wall_secs")?);
                (ir > 0.0).then(|| insn / ir)
            }
        }
    }
}

/// Where a guard's baseline comes from.
enum Base {
    /// The baseline record, at the row's own location.
    Same,
    /// The baseline record, at another location.
    Other(Loc),
    /// No record: the row's `floor` is the baseline.
    Floor,
}

/// Which way a guarded number may move, and the factor of its baseline
/// it may move by before its row fails.
enum Better {
    Higher(f64),
    Lower(f64),
}

/// One `--bench-smoke` row: the current run's number at `now` against
/// its baseline, clamped up to `floor`.
struct Guard {
    label: &'static str,
    now: Loc,
    base: Base,
    better: Better,
    floor: f64,
}

impl Guard {
    /// A row whose baseline sits where its current value does, unclamped.
    const fn new(label: &'static str, now: Loc, better: Better) -> Guard {
        Guard {
            label,
            now,
            base: Base::Same,
            better,
            floor: 0.0,
        }
    }

    /// The row's baseline in `doc`, or `None` when `doc` predates the
    /// record or holds no positive value there to scale.
    fn baseline(&self, doc: &Json) -> Option<f64> {
        let was = match &self.base {
            Base::Floor => return Some(self.floor),
            Base::Same => self.now.read(doc)?,
            Base::Other(loc) => loc.read(doc)?,
        };
        (was.max(self.floor) > 0.0).then_some(was)
    }

    /// The limit the current number must not cross.
    fn bound(&self, was: f64) -> f64 {
        match self.better {
            Higher(factor) => was.max(self.floor) / factor,
            Lower(factor) => was.max(self.floor) * factor,
        }
    }

    fn passes(&self, now: f64, was: f64) -> bool {
        match self.better {
            Higher(_) => now >= self.bound(was),
            Lower(_) => now <= self.bound(was),
        }
    }
}

/// The `--bench-smoke` rows. Ratios of two arms timed in the same run
/// get 2x; throughput across machines is noisy, so those rows fail only
/// on an order-of-magnitude (20x) collapse. Decode is a cold path (the
/// predecode cache decodes each pc once per generation) and its
/// sub-millisecond passes are noisy on a shared host, so its rows catch
/// table blow-up, not jitter, at 4x.
#[rustfmt::skip]
const GUARDS: [Guard; 13] = [
    Guard::new("snapshot fork insn advantage", At("ablations.snapshot_vs_reboot.insn_ratio"), Higher(2.0)),
    Guard::new("template relocation wall advantage", At("ablations.template_vs_rebuild.wall_ratio"), Higher(2.0)),
    Guard::new("resolver warm-cache q/s", At("ablations.resolver.resolver_qps"), Higher(20.0)),
    // Absolute: a warm hit allocates nothing, whatever the baseline recorded.
    Guard {
        base: Base::Floor,
        ..Guard::new("resolver warm-hit allocs/query", At("ablations.resolver.cached_allocs_per_query"), Lower(1.0))
    },
    Guard::new("IR-over-insn dispatch advantage", IrRatio, Higher(2.0)),
    Guard::new("fuzz fork-vs-reboot advantage", At("ablations.fuzz.fork_vs_reboot_fuzz.wall_ratio"), Higher(2.0)),
    // A cost near 1.0: the floor keeps timer noise under a sub-1.0
    // baseline from failing the row.
    Guard {
        floor: 1.0,
        ..Guard::new("coverage hook overhead", At("ablations.fuzz.coverage_hook_overhead.overhead_ratio"), Lower(2.0))
    },
    Guard::new("x86 decode table-vs-hand-rolled", Decode("x86"), Higher(4.0)),
    Guard::new("ARMv7 decode table-vs-hand-rolled", Decode("ARMv7"), Higher(4.0)),
    Guard::new("RISC-V decode table-vs-hand-rolled", Decode("RISC-V"), Higher(4.0)),
    Guard::new("RISC-V fuzz execs/s", At("ablations.riscv_fuzz.execs_per_sec"), Higher(20.0)),
    // The three-ISA sum against the first ISA's cost: per-ISA rows
    // would fail only at 20x on each ISA, a looser guard.
    Guard { base: Base::Other(FirstVsa), ..Guard::new("VSA wall secs", SumVsa, Lower(20.0)) },
    Guard::new("fleet 10k smoke devices/s", At("fleet_scale.smoke_devices_per_sec"), Higher(20.0)),
];

/// `x` to four significant digits.
fn sig(x: f64) -> String {
    let decimals = if x == 0.0 {
        0.0
    } else {
        3.0 - x.abs().log10().floor()
    };
    format!("{x:.*}", decimals.clamp(0.0, 12.0) as usize)
}

/// Checks `current` against the baseline record `doc` (read from
/// `path`) row by row. Returns whether every row passed, and one line
/// per row. A row whose baseline predates its record is skipped; a row
/// this run failed to record fails.
fn check_guards(current: &Json, doc: &Json, path: &str) -> (bool, Vec<String>) {
    let mut ok = true;
    let lines = GUARDS
        .iter()
        .map(|g| {
            let label = g.label;
            let Some(now) = g.now.read(current) else {
                ok = false;
                return format!("bench-smoke: FAIL {label}: this run did not record it");
            };
            let Some(was) = g.baseline(doc) else {
                return format!("bench-smoke: skip {label}: {path} predates its record");
            };
            let pass = g.passes(now, was);
            ok &= pass;
            let verdict = if pass { "ok  " } else { "FAIL" };
            let op = if let Higher(_) = g.better { ">=" } else { "<=" };
            let (now, was, bound) = (sig(now), sig(was), sig(g.bound(was)));
            format!("bench-smoke: {verdict} {label}: {now} vs {was} in {path}, want {op} {bound}")
        })
        .collect();
    (ok, lines)
}

/// `BENCH_<n>.json` files in `dir` as `(n, file name)`, highest `n`
/// first.
fn bench_files(dir: &Path) -> Vec<(u64, String)> {
    let names = std::fs::read_dir(dir).into_iter().flatten().flatten();
    let mut files: Vec<(u64, String)> = names
        .filter_map(|entry| entry.file_name().into_string().ok())
        .filter_map(|name| {
            let n = name
                .strip_prefix("BENCH_")?
                .strip_suffix(".json")?
                .parse()
                .ok()?;
            Some((n, name))
        })
        .collect();
    files.sort_unstable_by(|a, b| b.cmp(a));
    files
}

/// The highest-numbered `BENCH_<n>.json` in `dir` that holds an
/// `ablations` record, as `(file name, record)`. A file on the way that
/// cannot be read or parsed is an error, not a skip.
fn newest_baseline(dir: &Path) -> Result<Option<(String, Json)>, String> {
    for (_, name) in bench_files(dir) {
        let text = std::fs::read_to_string(dir.join(&name)).map_err(|e| format!("{name}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{name}: {e}"))?;
        if doc.get("ablations").is_some() {
            return Ok(Some((name, doc)));
        }
    }
    Ok(None)
}

/// The `--bench-smoke` record: the `analysis` and `ablations` sections
/// of a full record at `trials` per ablation arm, and the 10k-device
/// fleet rate under `fleet_scale`.
fn smoke_record(trials: u64) -> Json {
    let ablations = run_ablations(trials);
    let analysis = analysis_timings();
    let fleet_scale = obj! { "smoke_devices_per_sec" => fleet_smoke_rate() };
    obj! { "analysis" => analysis, "ablations" => ablations, "fleet_scale" => fleet_scale }
}

/// `--bench-smoke`: a tiny-iteration run checked against the newest
/// committed baseline by [`GUARDS`]. Exits 1 when a row fails or the
/// baseline does not parse; 0 with a note when no baseline exists.
fn smoke_vs_baseline() -> i32 {
    let baseline = match newest_baseline(Path::new(".")) {
        Ok(baseline) => baseline,
        Err(e) => {
            println!("bench-smoke: FAIL — {e}");
            return 1;
        }
    };
    let current = smoke_record(SMOKE_TRIALS);
    println!("{current}");
    let Some((path, doc)) = baseline else {
        println!("bench-smoke: no committed BENCH_*.json with ablations — skipping comparison");
        return 0;
    };
    let (ok, lines) = check_guards(&current, &doc, &path);
    for line in lines {
        println!("{line}");
    }
    if !ok {
        return 1;
    }
    println!("bench-smoke: OK");
    0
}

/// Runs the nine-cell exploit matrix (x86/ARM/RISC-V × none/W⊕X/W⊕X+ASLR) with
/// the VM shadow-memory sanitizer armed on the victim and prints the
/// precise overflow diagnostics each cell produces. Returns the process
/// exit code: 0 when every cell is pinpointed, 1 otherwise.
fn sanitize_matrix() -> i32 {
    let cells: [(Protections, &str); 3] = [
        (Protections::none(), "none"),
        (Protections::wxorx(), "wxorx"),
        (Protections::full(), "full"),
    ];
    let mut all_pinpointed = true;
    println!("### shadow-memory sanitizer: 9-cell exploit matrix\n");
    for arch in Arch::ALL {
        for (prot, prot_name) in cells {
            let strategy: Box<dyn ExploitStrategy> = if prot.aslr.enabled {
                Box::new(RopMemcpyChain::new(arch))
            } else if prot.wxorx {
                match arch {
                    Arch::X86 => Box::new(Ret2Libc::new()),
                    Arch::Armv7 => Box::new(ArmGadgetExeclp::new()),
                    Arch::Riscv => Box::new(RiscvGadgetSystem::new()),
                }
            } else {
                Box::new(CodeInjection::new(arch))
            };
            let lab = Lab::new(FirmwareKind::OpenElec, arch)
                .with_protections(prot)
                .with_sanitizer(true);
            let cell = format!("{arch}/{prot_name} ({})", strategy.name());
            match lab.run_exploit(strategy.as_ref()) {
                Ok(report) => match report.proxy_outcome {
                    ProxyOutcome::Crashed(ref fr)
                        if matches!(fr.fault, Fault::RedzoneViolation { .. }) =>
                    {
                        println!("{cell}: {}", fr.fault);
                    }
                    ref other => {
                        all_pinpointed = false;
                        println!("{cell}: NOT PINPOINTED — {other}");
                    }
                },
                Err(e) => {
                    all_pinpointed = false;
                    println!("{cell}: attack could not be built: {e}");
                }
            }
        }
    }
    println!();
    if all_pinpointed {
        println!("all 9 cells pinpointed by the sanitizer");
        0
    } else {
        println!("some cells escaped the sanitizer");
        1
    }
}

/// Times one full static-analysis pipeline (CFG recovery + taint pass +
/// frames + VSA + mitigation audit) per architecture over the OpenElec
/// image, plus the value-set pass alone so the interprocedural layer's
/// cost is visible separately. Returns the record's `analysis` section.
fn analysis_timings() -> Json {
    let per_arch = Arch::ALL
        .iter()
        .map(|&arch| {
            let firmware = Firmware::build(FirmwareKind::OpenElec, arch);
            let t0 = Instant::now();
            let report = cml_analyze::analyze(firmware.image());
            let full = t0.elapsed().as_secs_f64();

            let cfg = cml_analyze::cfg::recover(firmware.image());
            let sources = cml_analyze::taint::effective_sources(
                &cfg,
                &cml_analyze::taint::TaintConfig::default(),
            );
            let t1 = Instant::now();
            let value_sets = cml_analyze::vsa::vsa_pass(&cfg, firmware.image(), &sources);
            let vsa = t1.elapsed().as_secs_f64();
            assert!(
                value_sets
                    .iter()
                    .any(|v| v.tainted_writes().next().is_some()),
                "{arch}: VSA must see the tainted copy it is being timed on"
            );
            obj! {
                "arch" => s(arch.to_string()),
                "wall_secs" => full,
                "vsa_wall_secs" => vsa,
                "instructions" => report.cfg.instructions,
            }
        })
        .collect();
    Value::Arr(per_arch)
}

/// Times the million-device headline campaign (weak-boot-entropy class
/// model, shared CoW boots, batched answers, streamed report) and the
/// three ablation arms, each run at full boot entropy so every device
/// pays a real session. Returns the record's `fleet_scale` section.
fn fleet_scale_timings(jobs: usize) -> Json {
    let spec = FleetSpec::homogeneous(FLEET_SCALE_DEVICES, 0xF1EE7);
    let headline = run_fleet_cfg(&spec, &FleetConfig::new(jobs));

    let smoke_rate = fleet_smoke_rate();

    let mut ab_spec = FleetSpec::homogeneous(FLEET_ABLATION_DEVICES, 0xF1EE7);
    ab_spec.cohorts[0].entropy_bits = ENTROPY_FULL;
    let base = run_fleet_cfg(&ab_spec, &FleetConfig::new(jobs));
    let per_worker = run_fleet_cfg(
        &ab_spec,
        &FleetConfig {
            jobs,
            per_worker_forge: true,
            ..FleetConfig::default()
        },
    );
    let live = run_fleet_cfg(
        &ab_spec,
        &FleetConfig {
            jobs,
            per_device_answers: true,
            ..FleetConfig::default()
        },
    );
    let materialized = run_fleet_cfg(
        &ab_spec,
        &FleetConfig {
            jobs,
            materialize: true,
            ..FleetConfig::default()
        },
    );
    assert_eq!(
        base.render(),
        per_worker.render(),
        "CoW and per-worker forges must agree before their times are comparable"
    );
    assert_eq!(
        base.render(),
        live.render(),
        "batched and per-device answers must agree before their times are comparable"
    );
    assert_eq!(
        base.render(),
        materialized.render(),
        "streamed and materialized reports must agree before their times are comparable"
    );
    let full = base.elapsed.as_secs_f64();
    let secs = |r: &FleetReport| r.elapsed.as_secs_f64();
    obj! {
        "devices" => headline.devices,
        "jobs" => headline.jobs,
        "wall_secs" => secs(&headline),
        "devices_per_sec" => headline.devices_per_sec(),
        "sessions" => headline.sessions,
        "compromised" => headline.compromised(),
        "ablation_devices" => FLEET_ABLATION_DEVICES,
        "smoke_devices_per_sec" => smoke_rate,
        "full_entropy_wall_secs" => full,
        "per_worker_forge_wall_secs" => secs(&per_worker),
        "forge_ratio" => secs(&per_worker) / full.max(1e-9),
        "per_device_answers_wall_secs" => secs(&live),
        "answer_ratio" => secs(&live) / full.max(1e-9),
        "materialized_wall_secs" => secs(&materialized),
        "report_ratio" => secs(&materialized) / full.max(1e-9),
    }
}

/// Devices/sec of a serial 10k-device homogeneous campaign: the scale
/// the bench-smoke fleet guard replays. It is recorded beside the
/// headline because fixed setup (one session per address class)
/// dominates at 10k, so the headline rate does not transfer.
fn fleet_smoke_rate() -> f64 {
    let spec = FleetSpec::homogeneous(10_000, 0xF1EE7);
    run_fleet_cfg(&spec, &FleetConfig::new(1)).devices_per_sec()
}

/// `repro --json`: every table as `{"tables":[{id,title,header,rows,notes}]}`.
fn suite_json(suite: &Suite) -> Value<'_> {
    fn strs(cells: &[String]) -> Value<'_> {
        Value::Arr(cells.iter().map(|c| s(c.as_str())).collect())
    }
    let tables = suite.tables.iter().map(|t| {
        obj! {
            "id" => s(t.id.as_str()),
            "title" => s(t.title.as_str()),
            "header" => strs(&t.header),
            "rows" => Value::Arr(t.rows.iter().map(|r| strs(r)).collect()),
            "notes" => strs(&t.notes),
        }
    });
    obj! { "tables" => Value::Arr(tables.collect()) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cml_core::report::Table;

    fn committed(text: &str) -> Json {
        json::parse(text).expect("committed record parses")
    }

    /// Per row: the baseline the substring scanner this table replaced
    /// read from BENCH_10.json, and the bound its guard applied.
    const BENCH_10: [(&str, f64, f64); 13] = [
        ("snapshot fork insn advantage", 3075.0, 3075.0 / 2.0),
        ("template relocation wall advantage", 441.96, 441.96 / 2.0),
        ("resolver warm-cache q/s", 12945557.0, 12945557.0 / 20.0),
        ("resolver warm-hit allocs/query", 0.0, 0.0),
        (
            "IR-over-insn dispatch advantage",
            0.35548 / 0.023106,
            0.35548 / 0.023106 / 2.0,
        ),
        ("fuzz fork-vs-reboot advantage", 26.90, 26.90 / 2.0),
        ("coverage hook overhead", 1.293, 1.293 * 2.0),
        ("x86 decode table-vs-hand-rolled", 1.078, 1.078 / 4.0),
        ("ARMv7 decode table-vs-hand-rolled", 0.762, 0.762 / 4.0),
        ("RISC-V decode table-vs-hand-rolled", 0.703, 0.703 / 4.0),
        ("RISC-V fuzz execs/s", 114725.88, 114725.88 / 20.0),
        ("VSA wall secs", 0.000062, 0.000062 * 20.0),
        ("fleet 10k smoke devices/s", 338178.36, 338178.36 / 20.0),
    ];

    #[test]
    fn guards_read_the_bench_10_baselines_and_flip_at_their_bounds() {
        let doc = committed(include_str!("../../../../BENCH_10.json"));
        for (g, (label, was, bound)) in GUARDS.iter().zip(BENCH_10) {
            assert_eq!(g.label, label);
            assert_eq!(g.baseline(&doc), Some(was), "{label}");
            assert_eq!(g.bound(was), bound, "{label}");
            assert!(g.passes(bound, was), "{label} passes at its bound");
            let past = match g.better {
                Higher(_) => bound.next_down(),
                Lower(_) => bound.next_up(),
            };
            assert!(!g.passes(past, was), "{label} fails just past its bound");
        }
        // The coverage row clamps a sub-1.0 baseline up to 1.0.
        let coverage = &GUARDS[6];
        assert!(coverage.passes(2.0, 0.5) && !coverage.passes(2.0f64.next_up(), 0.5));
        // The warm-hit row is absolute: one allocation per query fails.
        assert!(!GUARDS[3].passes(1.0, 0.0));
    }

    #[test]
    fn a_record_this_binary_builds_resolves_every_row() {
        let record = smoke_record(1);
        for g in &GUARDS {
            assert!(g.now.read(&record).is_some(), "{} now", g.label);
            assert!(g.baseline(&record).is_some(), "{} as a baseline", g.label);
        }
    }

    #[test]
    fn rows_a_baseline_predates_skip_with_a_note() {
        let bench_10 = committed(include_str!("../../../../BENCH_10.json"));
        let bench_3 = committed(include_str!("../../../../BENCH_3.json"));
        let (ok, lines) = check_guards(&bench_10, &bench_3, "BENCH_3.json");
        assert!(ok);
        let checked: Vec<&str> = GUARDS
            .iter()
            .zip(&lines)
            .filter(|(_, line)| !line.starts_with("bench-smoke: skip"))
            .map(|(g, _)| g.label)
            .collect();
        assert_eq!(
            checked,
            [
                "snapshot fork insn advantage",
                "resolver warm-hit allocs/query"
            ]
        );
        assert_eq!(
            lines[1],
            "bench-smoke: skip template relocation wall advantage: BENCH_3.json predates its record"
        );
        assert!(check_guards(&bench_10, &bench_10, "BENCH_10.json").0);
    }

    #[test]
    fn baseline_is_the_newest_record_with_ablations_and_a_bad_one_fails() {
        let dir = std::env::temp_dir().join(format!("repro-baseline-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, text: &str| std::fs::write(dir.join(name), text).unwrap();
        write("BENCH_3.json", r#"{"ablations":{}}"#);
        write("BENCH_12.json", r#"{"jobs":1}"#);
        write("BENCH_x.json", "not a record");
        let (name, _) = newest_baseline(&dir)
            .unwrap()
            .expect("BENCH_3 has ablations");
        assert_eq!(name, "BENCH_3.json");
        assert_eq!(bench_files(&dir)[0].0, 12);
        write("BENCH_20.json", r#"{"ablations":"#);
        let err = newest_baseline(&dir).unwrap_err();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(err.starts_with("BENCH_20.json: json parse error"), "{err}");
    }

    #[test]
    fn json_tables_escape_control_bytes_and_round_trip() {
        let mut table = Table::new("E0", "escapes", &["cell"]);
        table.row(["quote \" backslash \\"]);
        table.note("tab\there, soh\u{1}, cr\r, newline\n");
        let suite = Suite {
            tables: vec![table],
        };
        let tree = suite_json(&suite);
        let text = tree.to_string();
        assert!(text.bytes().all(|b| b >= 0x20), "{text}");
        assert_eq!(json::parse(&text).unwrap(), tree);
    }
}

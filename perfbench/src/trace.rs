//! Outside-in tracing: spans around the public calls the workloads
//! make, a counting allocator, and deterministic counters.
//!
//! Spans are recorded from the benchmark's own files only; nothing
//! inside the crates is instrumented. A span keeps its name, start,
//! end, parent and op id in memory until [`Tracer::flush`] folds the
//! batch into per-layer totals: a layer's self time is its spans'
//! duration minus the part their direct children cover.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per thread. The workloads
/// run with one worker on the calling thread, so the main thread's
/// count is the whole process's.
pub struct CountingAlloc;

fn count_alloc() {
    // `try_with`: a const-initialised `Cell` has no destructor, but a
    // failed access must never panic inside the allocator.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the only addition is
// a thread-local counter bump, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: same contract as the caller's `alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: same contract as the caller's `alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        // SAFETY: same contract as the caller's `realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's `dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations (including reallocations) made on this thread so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The layers a span can belong to. `Setup` and `Op` are the roots the
/// harness opens; every other layer wraps one public call of a crate.
/// Declaration order is [`Layer::ALL`] order (totals index by it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Setup,
    Op,
    FirmwareBuild,
    FirmwareBoot,
    FirmwareFork,
    ConnmanResolve,
    ConnmanDeliver,
    ExploitRecon,
    ExploitBuild,
    ExploitAnswer,
    AnalysisAnalyze,
    FuzzHarness,
    FuzzMutate,
    FuzzExec,
    FuzzTriage,
    NetsimZone,
    NetsimQueryMiss,
    NetsimQueryHit,
}

impl Layer {
    pub const ALL: [Layer; 18] = [
        Layer::Setup,
        Layer::Op,
        Layer::FirmwareBuild,
        Layer::FirmwareBoot,
        Layer::FirmwareFork,
        Layer::ConnmanResolve,
        Layer::ConnmanDeliver,
        Layer::ExploitRecon,
        Layer::ExploitBuild,
        Layer::ExploitAnswer,
        Layer::AnalysisAnalyze,
        Layer::FuzzHarness,
        Layer::FuzzMutate,
        Layer::FuzzExec,
        Layer::FuzzTriage,
        Layer::NetsimZone,
        Layer::NetsimQueryMiss,
        Layer::NetsimQueryHit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Setup => "bench.setup",
            Layer::Op => "bench.op",
            Layer::FirmwareBuild => "firmware.build",
            Layer::FirmwareBoot => "firmware.boot",
            Layer::FirmwareFork => "firmware.fork",
            Layer::ConnmanResolve => "connman.resolve",
            Layer::ConnmanDeliver => "connman.deliver",
            Layer::ExploitRecon => "exploit.recon",
            Layer::ExploitBuild => "exploit.build",
            Layer::ExploitAnswer => "exploit.answer",
            Layer::AnalysisAnalyze => "analysis.analyze",
            Layer::FuzzHarness => "fuzz.harness",
            Layer::FuzzMutate => "fuzz.mutate",
            Layer::FuzzExec => "fuzz.exec",
            Layer::FuzzTriage => "fuzz.triage",
            Layer::NetsimZone => "netsim.zone",
            Layer::NetsimQueryMiss => "netsim.query_miss",
            Layer::NetsimQueryHit => "netsim.query_hit",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    parent: u32,
    op: u32,
    start: u64,
    end: u64,
    allocs: u64,
}

/// Per-layer totals folded from flushed spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub child_ns: u64,
    pub allocs: u64,
    pub child_allocs: u64,
}

impl LayerTotals {
    pub fn self_s(&self) -> f64 {
        self.total_ns.saturating_sub(self.child_ns) as f64 / 1e9
    }

    pub fn self_allocs(&self) -> u64 {
        self.allocs.saturating_sub(self.child_allocs)
    }
}

/// Handle of an open span (or of no span, when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// Records spans when on; the span methods are cheap no-ops when off,
/// so untraced and traced runs share one code path where the workload
/// calls the crates directly.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
    totals: [LayerTotals; Layer::ALL.len()],
    /// Deterministic counters (`vm.insns`, cache stats, tallies...).
    pub counters: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            totals: [LayerTotals::default(); Layer::ALL.len()],
            counters: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span of `layer` under the innermost open span.
    pub fn open(&mut self, layer: Layer) -> SpanId {
        if !self.on {
            return SpanId(NO_PARENT);
        }
        if layer == Layer::Op {
            self.op += 1;
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            layer,
            parent,
            op: self.op,
            start: self.now_ns(),
            end: 0,
            allocs: allocs(),
        });
        self.stack.push(idx);
        SpanId(idx)
    }

    /// Closes `id` (which must be the innermost open span).
    pub fn close(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        let span = &mut self.spans[id.0 as usize];
        span.end = end;
        span.allocs = allocs() - span.allocs;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id.0), "spans close innermost first");
    }

    /// Closes `id` and files it under `layer`, for calls whose layer is
    /// only known afterwards (a resolver query that hit or missed).
    pub fn close_as(&mut self, id: SpanId, layer: Layer) {
        if !self.on {
            return;
        }
        self.spans[id.0 as usize].layer = layer;
        self.close(id);
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let id = self.open(layer);
        let r = f();
        self.close(id);
        r
    }

    /// Adds `n` to counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Sets counter `name` to the larger of its value and `n`.
    pub fn count_max(&mut self, name: &'static str, n: u64) {
        let c = self.counters.entry(name).or_insert(0);
        *c = (*c).max(n);
    }

    /// Folds every closed span into the per-layer totals and drops the
    /// records, keeping memory bounded by one repetition's spans.
    pub fn flush(&mut self) {
        assert!(self.stack.is_empty(), "flush with open spans");
        for i in 0..self.spans.len() {
            let s = self.spans[i];
            let dur = s.end - s.start;
            let t = &mut self.totals[s.layer as usize];
            t.calls += 1;
            t.total_ns += dur;
            t.allocs += s.allocs;
            if s.parent != NO_PARENT {
                let p = self.spans[s.parent as usize];
                debug_assert!(p.op == s.op || p.layer == Layer::Setup);
                let pt = &mut self.totals[p.layer as usize];
                pt.child_ns += dur;
                pt.child_allocs += s.allocs;
            }
        }
        self.spans.clear();
    }

    pub fn totals(&self, layer: Layer) -> LayerTotals {
        self.totals[layer as usize]
    }
}

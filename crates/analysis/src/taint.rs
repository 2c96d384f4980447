//! Static taint pass: DNS-response bytes → fixed-size stack buffers.
//!
//! The pass runs a small abstract interpretation over each recovered
//! function. In a *source* function (by default `forward_dns_reply`,
//! where the raw DNS reply first enters dnsproxy) the incoming packet
//! pointer is seeded as tainted; loads through it yield tainted data,
//! and stores of tainted data through stack-derived pointers are
//! candidate sinks. Sources propagate **interprocedurally**: when a
//! source function passes a tainted argument at a call site (last push
//! on x86, `r0` on ARM), the callee joins the source set — which is how
//! taint walks the real CVE-2017-12865 chain `forward_dns_reply` →
//! `uncompress` → `parse_response` without `parse_response` being
//! configured by hand.
//!
//! A candidate store becomes a finding when it sits inside a loop none
//! of whose exits compare an *untainted* value against a constant —
//! i.e. the copy runs until attacker-controlled data says stop, the
//! exact shape of CVE-2017-12865's `get_name`. The bounds-checked 1.35
//! body adds a counter-vs-capacity exit, which is untainted-vs-constant,
//! so the same loop is classified bounded and the pass stays quiet.
//!
//! The pass also *consumes* call summaries (see [`crate::callgraph`]):
//! a call site whose callee is summarized as returning a statically
//! evident constant re-seeds the return register with that constant
//! instead of clobbering it to unknown.
//!
//! This is a may-taint analysis: joins prefer `Tainted`, and pointer
//! classes collapse to `Top` on conflict. Buffer capacities come from
//! [`TaintConfig`] frame metadata (the lab's stand-in for DWARF variable
//! info).

use std::collections::{BTreeSet, HashMap};

use cml_image::{Addr, Arch};
use cml_vm::lift::{abi, Abi, ArgLoc, Effect, Lifted, Mem, Operand, Pushed, Src};

use crate::callgraph::Summaries;
use crate::cfg::{Cfg, Function, Terminator};
use crate::dataflow::{solve, write, Lattice, Solution};

/// Abstract value tracked per register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Abs {
    /// Unknown.
    Top,
    /// A known constant (from an immediate move / register zeroing).
    Const(u32),
    /// Pointer into the tainted input (the DNS response).
    ArgPtr,
    /// Data derived from the tainted input.
    Tainted,
    /// Pointer into the current stack frame.
    StackPtr,
}

impl Abs {
    fn join(self, other: Abs) -> Abs {
        if self == other {
            self
        } else if self == Abs::Tainted || other == Abs::Tainted {
            Abs::Tainted
        } else {
            Abs::Top
        }
    }

    fn is_tainted(self) -> bool {
        matches!(self, Abs::Tainted | Abs::ArgPtr)
    }

    fn is_const(self) -> bool {
        matches!(self, Abs::Const(_))
    }

    /// Pointer arithmetic / increments preserve pointer and taint
    /// classes; a stale constant becomes unknown.
    fn after_arith(self) -> Abs {
        match self {
            Abs::ArgPtr | Abs::StackPtr | Abs::Tainted => self,
            Abs::Const(_) | Abs::Top => Abs::Top,
        }
    }
}

/// Per-program-point abstract state: 32 register slots (x86 uses the
/// low 8, ARM the low 16), the class pair of the last flag-setting
/// comparison (on RISC-V, of the last conditional branch — there is no
/// separate compare), and the class of the word at the top of the
/// stack (the outgoing argument of a stack-passing call).
#[derive(Debug, Clone, PartialEq)]
struct State {
    regs: [Abs; 32],
    flags: (Abs, Abs),
    last_push: Abs,
}

impl Lattice for State {
    /// Joins `other` in; the lattice has finite height, so widening is
    /// a plain join.
    fn join_with(&mut self, other: &State, _widen: bool) -> bool {
        let before = self.clone();
        for (r, o) in self.regs.iter_mut().zip(other.regs) {
            *r = r.join(o);
        }
        self.flags = (
            self.flags.0.join(other.flags.0),
            self.flags.1.join(other.flags.1),
        );
        self.last_push = self.last_push.join(other.last_push);
        *self != before
    }
}

/// A store of some abstract value through a stack-derived pointer.
#[derive(Debug, Clone, Copy)]
struct StackStore {
    addr: Addr,
    value: Abs,
}

/// Facts collected on the post-fixpoint pass.
#[derive(Debug, Default)]
struct Collected {
    /// Stores through stack-derived pointers.
    stores: Vec<StackStore>,
    /// Per-call-site outgoing first argument: (call insn addr, class).
    call_args: Vec<(Addr, Abs)>,
    /// Whether any store through any pointer class was seen.
    writes_mem: bool,
}

/// Source/sink configuration.
#[derive(Debug, Clone)]
pub struct TaintConfig {
    /// Functions whose arguments carry attacker-controlled bytes.
    /// Taint propagates from here down the call graph.
    pub sources: Vec<String>,
    /// Frame metadata: function name → stack-buffer capacity in bytes
    /// (the lab's stand-in for DWARF local-variable info).
    pub sink_capacities: Vec<(String, u32)>,
}

impl Default for TaintConfig {
    fn default() -> Self {
        TaintConfig {
            sources: vec![cml_connman::SYM_FORWARD_DNS_REPLY.to_string()],
            sink_capacities: vec![(
                cml_connman::SYM_PARSE_RESPONSE.to_string(),
                cml_connman::NAME_BUFFER_SIZE as u32,
            )],
        }
    }
}

/// One tainted, unbounded copy into a stack buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaintFinding {
    /// Function the flow lives in.
    pub function: String,
    /// Address of (one of) the offending store instruction(s).
    pub store_addr: Addr,
    /// Head of the unbounded copy loop.
    pub loop_head: Addr,
    /// Human-readable taint source.
    pub source: String,
    /// Human-readable sink description.
    pub sink: String,
    /// Sink buffer capacity in bytes (0 when unknown).
    pub capacity: u32,
}

/// Runs the taint pass over a recovered CFG, computing call summaries
/// on the fly. [`taint_pass_with`] accepts precomputed summaries.
pub fn taint_pass(cfg: &Cfg, config: &TaintConfig) -> Vec<TaintFinding> {
    taint_pass_with(cfg, config, &Summaries::compute(cfg))
}

/// [`taint_pass`] with precomputed call summaries.
pub fn taint_pass_with(
    cfg: &Cfg,
    config: &TaintConfig,
    summaries: &Summaries,
) -> Vec<TaintFinding> {
    findings(cfg, config, summaries, &effective_sources(cfg, config))
}

/// [`taint_pass_with`] with the effective source set precomputed too.
pub(crate) fn findings(
    cfg: &Cfg,
    config: &TaintConfig,
    summaries: &Summaries,
    sources: &BTreeSet<String>,
) -> Vec<TaintFinding> {
    let ret_consts = ret_const_sites(cfg, summaries);
    let mut findings = Vec::new();
    for f in &cfg.functions {
        let is_source = sources.contains(&f.name);
        findings.extend(findings_in(cfg.arch, f, is_source, config, &ret_consts));
    }
    findings
}

/// The transitive source set: configured sources plus every function
/// reached by a tainted first argument at a call site, to a fixpoint.
pub fn effective_sources(cfg: &Cfg, config: &TaintConfig) -> BTreeSet<String> {
    let callee_by_site: HashMap<Addr, &str> = cfg
        .call_edges
        .iter()
        .map(|e| (e.at, e.callee.as_str()))
        .collect();
    let mut sources: BTreeSet<String> = config.sources.iter().cloned().collect();
    let no_consts = HashMap::new();
    loop {
        let mut grew = false;
        for f in &cfg.functions {
            if !sources.contains(&f.name) {
                continue;
            }
            let Some(fx) = analyze_fn(cfg.arch, f, true, &no_consts) else {
                continue;
            };
            for (site, class) in &fx.facts.call_args {
                if !class.is_tainted() {
                    continue;
                }
                if let Some(callee) = callee_by_site.get(site) {
                    grew |= sources.insert((*callee).to_string());
                }
            }
        }
        if !grew {
            return sources;
        }
    }
}

/// Per-function facts the call-summary computation needs, derived with
/// the same abstract interpreter the findings pass uses (arguments
/// assumed tainted, no summaries consumed).
#[derive(Debug, Clone, Default)]
pub(crate) struct FnProfile {
    /// Whether the body stores through any pointer.
    pub writes_mem: bool,
    /// Whether the body copies tainted data into the stack through a
    /// loop with no untainted bound, assuming its arguments are
    /// attacker-controlled.
    pub unbounded_copy: bool,
    /// The constant the function leaves in the return register on every
    /// `ret` path, when statically evident.
    pub returns_const: Option<u32>,
}

pub(crate) fn function_profile(arch: Arch, f: &Function) -> FnProfile {
    let no_consts = HashMap::new();
    let Some(fx) = analyze_fn(arch, f, true, &no_consts) else {
        return FnProfile::default();
    };
    // Return-constant detection: every Return block must leave the
    // return register holding the same constant.
    let ret_reg = abi(arch).ret as usize;
    let mut returns_const = None;
    let mut consistent = true;
    for (i, b) in f.blocks.iter().enumerate() {
        if b.term != Terminator::Return {
            continue;
        }
        match fx.exits[i].as_ref().map(|s| s.regs[ret_reg]) {
            Some(Abs::Const(v)) => match returns_const {
                None => returns_const = Some(v),
                Some(prev) if prev == v => {}
                Some(_) => consistent = false,
            },
            _ => consistent = false,
        }
    }
    let writes_mem = fx.facts.writes_mem;
    FnProfile {
        writes_mem,
        unbounded_copy: !unbounded_stores(f, fx).is_empty(),
        returns_const: if consistent { returns_const } else { None },
    }
}

/// Call-site address → constant the callee returns, per the summaries.
fn ret_const_sites(cfg: &Cfg, summaries: &Summaries) -> HashMap<Addr, u32> {
    cfg.call_edges
        .iter()
        .filter_map(|e| {
            summaries
                .get(&e.callee)
                .and_then(|s| s.returns_const)
                .map(|v| (e.at, v))
        })
        .collect()
}

/// One function's taint fixpoint.
fn analyze_fn(
    arch: Arch,
    f: &Function,
    is_source: bool,
    ret_consts: &HashMap<Addr, u32>,
) -> Option<Solution<State, Collected>> {
    let taint = Taint {
        abi: abi(arch),
        is_source,
        ret_consts,
    };
    solve(f, taint.entry(), |st, insn, facts| {
        taint.step(st, insn, facts)
    })
}

/// Tainted stores sitting in loops with no untainted bounding exit:
/// `(store addr, loop head)` pairs, one per loop.
fn unbounded_stores(f: &Function, fx: Solution<State, Collected>) -> Vec<(Addr, Addr)> {
    let loops = f.loops();
    // Whether any conditional exit of the loop compares an untainted
    // value against a constant — the signature of a capacity check.
    let bounded = |head: Addr, end: Addr| {
        f.loop_exits(head, end).any(|i| {
            fx.exits[i].as_ref().is_some_and(|s| {
                let (l, r) = s.flags;
                !l.is_tainted() && !r.is_tainted() && (l.is_const() || r.is_const())
            })
        })
    };

    let mut out = Vec::new();
    let mut seen: BTreeSet<(Addr, Addr)> = BTreeSet::new();
    for store in fx.facts.stores.iter().filter(|s| s.value == Abs::Tainted) {
        for &(head, end) in &loops {
            let in_loop = store.addr >= head && store.addr < end;
            if !in_loop || !seen.insert((head, store.addr)) {
                continue;
            }
            if bounded(head, end) {
                continue;
            }
            out.push((store.addr, head));
        }
    }
    // One finding per loop is enough signal; collapse duplicate stores.
    out.sort_by_key(|&(store, head)| (head, store));
    out.dedup_by_key(|&mut (_, head)| head);
    out
}

fn findings_in(
    arch: Arch,
    f: &Function,
    is_source: bool,
    config: &TaintConfig,
    ret_consts: &HashMap<Addr, u32>,
) -> Vec<TaintFinding> {
    let Some(fx) = analyze_fn(arch, f, is_source, ret_consts) else {
        return Vec::new();
    };
    let capacity = config
        .sink_capacities
        .iter()
        .find(|(name, _)| name == &f.name)
        .map_or(0, |(_, c)| *c);
    unbounded_stores(f, fx)
        .into_iter()
        .map(|(store_addr, loop_head)| TaintFinding {
            function: f.name.clone(),
            store_addr,
            loop_head,
            source: format!("DNS response bytes ({} argument)", f.name),
            sink: if capacity > 0 {
                format!("{capacity}-byte stack name buffer")
            } else {
                "stack buffer (capacity unknown)".to_string()
            },
            capacity,
        })
        .collect()
}

/// The taint transfer function over one function's lifted effects.
struct Taint<'a> {
    abi: &'static Abi,
    /// Whether the function's argument is the tainted packet pointer.
    is_source: bool,
    /// Call sites whose callee is summarized as returning a constant.
    ret_consts: &'a HashMap<Addr, u32>,
}

impl Taint<'_> {
    fn entry(&self) -> State {
        let mut regs = [Abs::Top; 32];
        regs[self.abi.sp as usize] = Abs::StackPtr;
        if let Some(zero) = self.abi.zero {
            regs[zero as usize] = Abs::Const(0);
        }
        if let (true, ArgLoc::Reg(arg)) = (self.is_source, self.abi.arg) {
            regs[arg as usize] = Abs::ArgPtr;
        }
        State {
            regs,
            flags: (Abs::Top, Abs::Top),
            last_push: Abs::Top,
        }
    }

    fn step(&self, st: &mut State, insn: &Lifted, collect: Option<&mut Collected>) {
        let Some(effect) = insn.effect else { return };
        let abi = self.abi;
        let set = |st: &mut State, dst: u8, v: Abs| write(abi, &mut st.regs, dst, v);
        let reg = |st: &State, r: u8| st.regs[r as usize];
        match effect {
            Effect::Set { dst, src } => {
                let v = match src {
                    Src::Const(v) => Abs::Const(v as u32),
                    Src::Imm(v) => Abs::Const(v),
                    Src::Reg(r) => reg(st, r),
                    Src::RegPlus(r, _) | Src::Addr(r, _) => reg(st, r).after_arith(),
                    Src::Sum(a, b) => reg(st, a).join(reg(st, b)).after_arith(),
                    Src::PcRel(_) | Src::Unknown | Src::Bits(_) => Abs::Top,
                };
                set(st, dst, v);
            }
            Effect::Load { dst, mem } => {
                let v = self.load(st, mem);
                set(st, dst, v);
            }
            Effect::Store { src, mem } | Effect::Spill { src, mem } => {
                if let (Some(out), Some(base)) = (collect, mem.base) {
                    out.writes_mem = true;
                    if reg(st, base) == Abs::StackPtr {
                        out.stores.push(StackStore {
                            addr: insn.addr,
                            value: reg(st, src),
                        });
                    }
                }
            }
            Effect::Compare(l, r) => st.flags = (self.operand(st, l), self.operand(st, r)),
            Effect::SpAdjust(_) => {
                let v = reg(st, abi.sp).after_arith();
                set(st, abi.sp, v);
            }
            Effect::Push(Pushed::Regs(list)) => {
                st.last_push = st.regs[list.trailing_zeros() as usize];
            }
            Effect::Push(Pushed::Imm(v)) => st.last_push = Abs::Const(v),
            Effect::Pop { regs, .. } => {
                for r in (0..16).filter(|r| regs & (1 << r) != 0) {
                    set(st, r, Abs::Top);
                }
            }
            Effect::Swap(a, b) => st.regs.swap(a as usize, b as usize),
            // Taint follows no frame pointer across `leave`.
            Effect::Leave => {}
            Effect::Call => {
                if let Some(out) = collect {
                    let arg = match abi.arg {
                        ArgLoc::Stack(_) => st.last_push,
                        ArgLoc::Reg(r) => reg(st, r),
                    };
                    out.call_args.push((insn.addr, arg));
                }
                // Caller-saved registers are clobbered by the callee; a
                // summarized constant return re-seeds the return register.
                for &r in abi.caller_saved {
                    st.regs[r as usize] = Abs::Top;
                }
                if let Some(&v) = self.ret_consts.get(&insn.addr) {
                    st.regs[abi.ret as usize] = Abs::Const(v);
                }
            }
        }
    }

    /// The abstract value read through `mem`: a stack-passed argument
    /// slot of a source function yields [`Abs::ArgPtr`] (the DNS
    /// response pointer); dereferencing a tainted pointer yields
    /// tainted data.
    fn load(&self, st: &State, mem: Mem) -> Abs {
        let Some(base) = mem.base else {
            return Abs::Top;
        };
        let arg_slot = matches!(self.abi.arg, ArgLoc::Stack(min) if mem.disp >= min);
        match st.regs[base as usize] {
            Abs::StackPtr if self.is_source && arg_slot => Abs::ArgPtr,
            Abs::ArgPtr | Abs::Tainted => Abs::Tainted,
            _ => Abs::Top,
        }
    }

    fn operand(&self, st: &State, op: Operand) -> Abs {
        match op {
            Operand::Reg(r) => st.regs[r as usize],
            Operand::Const(v) => Abs::Const(v as u32),
            Operand::Mem(mem) => self.load(st, mem),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg;
    use cml_firmware::build_image_for;

    #[test]
    fn flags_vulnerable_quiet_on_patched() {
        for arch in Arch::ALL {
            let (vuln, _) = build_image_for(arch, 0, false);
            let findings = taint_pass(&cfg::recover(&vuln), &TaintConfig::default());
            assert_eq!(findings.len(), 1, "{arch}: expected exactly one finding");
            let f = &findings[0];
            assert_eq!(f.function, "parse_response", "{arch}");
            assert_eq!(f.capacity, 1024, "{arch}");
            assert!(f.source.contains("DNS response"), "{arch}");

            let (fixed, _) = build_image_for(arch, 0, true);
            let quiet = taint_pass(&cfg::recover(&fixed), &TaintConfig::default());
            assert!(
                quiet.is_empty(),
                "{arch}: patched body must be clean: {quiet:?}"
            );
        }
    }

    #[test]
    fn taint_reaches_parse_response_through_the_call_chain() {
        // The default source is forward_dns_reply; parse_response is
        // flagged only because taint walks the planted call chain.
        for arch in Arch::ALL {
            let (img, _) = build_image_for(arch, 0, false);
            let cfg = cfg::recover(&img);
            let sources = effective_sources(&cfg, &TaintConfig::default());
            for name in ["forward_dns_reply", "uncompress", "parse_response"] {
                assert!(sources.contains(name), "{arch}: {name} not tainted");
            }
            assert!(!sources.contains("daemon_loop"), "{arch}");
        }
    }

    #[test]
    fn non_source_functions_stay_untainted() {
        let (img, _) = build_image_for(Arch::X86, 0, false);
        let config = TaintConfig {
            sources: vec!["daemon_loop".to_string()],
            sink_capacities: Vec::new(),
        };
        assert!(taint_pass(&cfg::recover(&img), &config).is_empty());
    }
}

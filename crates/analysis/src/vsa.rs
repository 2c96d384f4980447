//! Interprocedural value-set analysis (VSA) with a strided-interval
//! domain.
//!
//! Where the taint pass answers *"does attacker data reach this
//! store?"*, VSA answers *"which stack bytes can the store touch?"* —
//! the question an exploitability verdict actually needs. Every
//! register holds a [`ValueSet`]: a memory-region tag ([`Region`])
//! paired with a [`StridedInterval`] `stride[lo, hi]` describing the
//! numeric values it may take, in the style of Balakrishnan & Reps'
//! a-loc analysis.
//!
//! Stack offsets are entry-SP relative (the same coordinate system as
//! [`crate::frames`]): the stack pointer enters every function as
//! `StackRel 0[0,0]`, prologue arithmetic moves it exactly, and a
//! pointer derived from it (`lea edi,[ebp-0x40C]`, `mov r3,sp`) stays
//! `StackRel` with a known offset. A copy loop advances the pointer by
//! its stride each iteration; at the loop head the interval is widened
//! (`hi → +∞`, strides folded by gcd), so the fixpoint converges and
//! the widened set `1[-1040, +∞]` *is* the write extent.
//!
//! Loop bounds are then narrowed back: a loop exit that compares an
//! untainted counter with known start (`0`, stride 1) against an exact
//! constant `k` caps the trip count at `k − lo`, so the patched 1.35
//! body's `cmp counter, 0x400` exit bounds its copy to 1024 bytes —
//! which never reaches the saved return address — while the vulnerable
//! body's only exit tests a tainted byte and the write stays unbounded.

use std::collections::BTreeSet;

use cml_image::{Addr, Arch, Image};
use cml_vm::lift::{abi, Abi, ArgLoc, Effect, Lifted, Mem, Operand, Src};

use crate::cfg::{Cfg, Function};
use crate::dataflow::{solve, write, Lattice};

/// A strided interval `stride[lo, hi]`: all values `lo + n·stride`
/// within the bounds. `stride == 0` means a singleton.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StridedInterval {
    /// Step between representable values (0 for a singleton).
    pub stride: u32,
    /// Lowest representable value (`i64::MIN` = unbounded below).
    pub lo: i64,
    /// Highest representable value (`i64::MAX` = unbounded above).
    pub hi: i64,
}

impl StridedInterval {
    /// The singleton `0[v, v]`.
    pub fn exact(v: i64) -> Self {
        StridedInterval {
            stride: 0,
            lo: v,
            hi: v,
        }
    }

    /// The full interval — no information.
    pub fn top() -> Self {
        StridedInterval {
            stride: 1,
            lo: i64::MIN,
            hi: i64::MAX,
        }
    }

    /// `Some(v)` when the interval is the singleton `v`.
    pub fn as_exact(&self) -> Option<i64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// Whether the upper bound is unknown.
    pub fn unbounded_above(&self) -> bool {
        self.hi == i64::MAX
    }

    /// Shifts the interval by a constant.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, k: i64) -> Self {
        StridedInterval {
            stride: self.stride,
            lo: self.lo.saturating_add(k),
            hi: self.hi.saturating_add(k),
        }
    }

    /// Least upper bound: hull of the bounds, strides (and the gap
    /// between anchors) folded by gcd.
    pub fn join(self, other: Self) -> Self {
        if self == other {
            return self;
        }
        let gap = self.lo.abs_diff(other.lo);
        let folded = fold_stride(self.stride as u64, other.stride as u64);
        let stride = fold_stride(folded as u64, gap);
        StridedInterval {
            stride,
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Widening: any bound that moved jumps straight to ±∞ so loop
    /// fixpoints terminate.
    pub fn widen(self, next: Self) -> Self {
        let joined = self.join(next);
        StridedInterval {
            stride: joined.stride,
            lo: if joined.lo < self.lo {
                i64::MIN
            } else {
                self.lo
            },
            hi: if joined.hi > self.hi {
                i64::MAX
            } else {
                self.hi
            },
        }
    }
}

fn fold_stride(a: u64, b: u64) -> u32 {
    fn gcd(mut a: u64, mut b: u64) -> u64 {
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a
    }
    gcd(a, b).min(u32::MAX as u64) as u32
}

/// Provenance tag of an abstract value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// A plain number (or a value of unknown provenance — the domain's
    /// top collapses here with a top interval).
    Const,
    /// An address inside the loaded image (position-dependent until
    /// relocation; "PIE-relative" in a real build).
    PieRel,
    /// An offset from the function's entry stack pointer.
    StackRel,
    /// Attacker-controlled data, or a pointer into it.
    Tainted,
}

/// One abstract value: a region tag plus a strided interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueSet {
    /// Which memory region the value lives in / points into.
    pub region: Region,
    /// The numeric values it may take within that region.
    pub si: StridedInterval,
}

impl ValueSet {
    fn unknown() -> Self {
        ValueSet {
            region: Region::Const,
            si: StridedInterval::top(),
        }
    }

    fn constant(v: i64) -> Self {
        ValueSet {
            region: Region::Const,
            si: StridedInterval::exact(v),
        }
    }

    fn stack(off: i64) -> Self {
        ValueSet {
            region: Region::StackRel,
            si: StridedInterval::exact(off),
        }
    }

    fn tainted() -> Self {
        ValueSet {
            region: Region::Tainted,
            si: StridedInterval::top(),
        }
    }

    /// A tainted byte: attacker-chosen but 8-bit.
    fn tainted_byte() -> Self {
        ValueSet {
            region: Region::Tainted,
            si: StridedInterval {
                stride: 1,
                lo: 0,
                hi: 0xFF,
            },
        }
    }

    fn add(self, k: i64) -> Self {
        ValueSet {
            region: self.region,
            si: self.si.add(k),
        }
    }

    fn merge(self, other: Self, widen: bool) -> Self {
        let region = if self.region == other.region {
            self.region
        } else if self.region == Region::Tainted || other.region == Region::Tainted {
            Region::Tainted
        } else {
            Region::Const
        };
        let si = if region == self.region && region == other.region {
            if widen {
                self.si.widen(other.si)
            } else {
                self.si.join(other.si)
            }
        } else {
            StridedInterval::top()
        };
        ValueSet { region, si }
    }

    fn is_tainted(self) -> bool {
        self.region == Region::Tainted
    }
}

#[derive(Debug, Clone, PartialEq)]
struct State {
    regs: [ValueSet; 32],
    flags: (ValueSet, ValueSet),
}

impl Lattice for State {
    fn join_with(&mut self, other: &State, widen: bool) -> bool {
        let before = self.clone();
        for (r, o) in self.regs.iter_mut().zip(other.regs) {
            *r = r.merge(o, widen);
        }
        self.flags = (
            self.flags.0.merge(other.flags.0, widen),
            self.flags.1.merge(other.flags.1, widen),
        );
        *self != before
    }
}

/// One store through a stack-derived pointer, with its statically
/// derived write geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackWrite {
    /// Address of the store instruction.
    pub store_addr: Addr,
    /// Entry-SP-relative offset of the first byte written.
    pub start: i64,
    /// Step between consecutive writes (1 for a byte-copy loop).
    pub stride: u32,
    /// Whether the stored value is attacker-derived.
    pub tainted: bool,
    /// Whether the store sits inside a loop.
    pub in_loop: bool,
    /// Maximum bytes the store can touch: `Some(n)` when every
    /// enclosing loop is bounded (or the store is straight-line),
    /// `None` when some enclosing loop has no untainted bound — a
    /// statically unbounded write.
    pub extent: Option<u32>,
}

impl StackWrite {
    /// Highest entry-SP-relative offset this write can reach, when
    /// bounded.
    pub fn end(&self) -> Option<i64> {
        self.extent.map(|e| self.start + e as i64 - 1)
    }
}

/// Value-set results for one function.
#[derive(Debug, Clone)]
pub struct FnVsa {
    /// Function name.
    pub function: String,
    /// Entry-SP-relative offset of the saved return address, when the
    /// prologue stores one (x86: always 0; ARM: the pushed `lr` slot).
    pub ret_slot: Option<i64>,
    /// Stores through stack-derived pointers.
    pub writes: Vec<StackWrite>,
}

impl FnVsa {
    /// The tainted stack writes — the ones an exploit can steer.
    pub fn tainted_writes(&self) -> impl Iterator<Item = &StackWrite> {
        self.writes.iter().filter(|w| w.tainted)
    }
}

/// Runs VSA over every function. `sources` is the effective taint
/// source set (see [`crate::taint::effective_sources`]); in those
/// functions the incoming packet pointer is modeled as `Tainted`.
pub fn vsa_pass(cfg: &Cfg, image: &Image, sources: &BTreeSet<String>) -> Vec<FnVsa> {
    cfg.functions
        .iter()
        .map(|f| vsa_function(cfg.arch, image, f, sources.contains(&f.name)))
        .collect()
}

/// A raw store event observed on the post-fixpoint pass.
struct RawStore {
    addr: Addr,
    width: u32,
    target: ValueSet,
    value: ValueSet,
}

#[derive(Default)]
struct Collected {
    stores: Vec<RawStore>,
    ret_slot: Option<i64>,
}

fn vsa_function(arch: Arch, image: &Image, f: &Function, is_source: bool) -> FnVsa {
    let vsa = Vsa {
        abi: abi(arch),
        image,
        is_source,
    };
    let mut out = FnVsa {
        function: f.name.clone(),
        // The caller's `call` pushed the return address at entry SP on
        // a link-less ISA; otherwise it is found where the prologue
        // saves the link register.
        ret_slot: vsa.abi.link.is_none().then_some(0),
        writes: Vec::new(),
    };
    let Some(fx) = solve(f, vsa.entry(), |st, insn, facts| vsa.step(st, insn, facts)) else {
        return out;
    };
    let collected: Collected = fx.facts;
    if collected.ret_slot.is_some() {
        out.ret_slot = collected.ret_slot;
    }
    let exit_flags: Vec<Option<(ValueSet, ValueSet)>> = fx
        .exits
        .iter()
        .map(|s| s.as_ref().map(|s| s.flags))
        .collect();

    // Per-loop trip bounds from counter-vs-constant exits.
    let loops = f.loops();
    let bounds: Vec<Option<u64>> = loops
        .iter()
        .map(|&(head, end)| loop_trip_bound(f, &exit_flags, head, end))
        .collect();

    for s in &collected.stores {
        if s.target.region != Region::StackRel {
            continue;
        }
        let stride = s.target.si.stride;
        let enclosing: Vec<usize> = loops
            .iter()
            .enumerate()
            .filter(|(_, &(h, e))| s.addr >= h && s.addr < e)
            .map(|(i, _)| i)
            .collect();
        let extent = if enclosing.is_empty() {
            // Straight-line store: the interval hull plus access width.
            if s.target.si.unbounded_above() {
                None
            } else {
                Some((s.target.si.lo.abs_diff(s.target.si.hi) as u32).saturating_add(s.width))
            }
        } else {
            // One write of `stride` bytes per trip of the tightest
            // bounded enclosing loop; unbounded if none is bounded.
            enclosing
                .iter()
                .filter_map(|&i| bounds[i])
                .min()
                .map(|trips| {
                    (trips.saturating_mul(stride.max(1) as u64)).min(u32::MAX as u64) as u32
                })
        };
        out.writes.push(StackWrite {
            store_addr: s.addr,
            start: s.target.si.lo,
            stride,
            tainted: s.value.is_tainted(),
            in_loop: !enclosing.is_empty(),
            extent,
        });
    }
    out
}

/// The best trip-count bound for the loop `[head, end)`: the smallest
/// `k − lo` over exits comparing an untainted counter with known lower
/// bound `lo` against an exact untainted constant `k`.
fn loop_trip_bound(
    f: &Function,
    exit_flags: &[Option<(ValueSet, ValueSet)>],
    head: Addr,
    end: Addr,
) -> Option<u64> {
    let mut best: Option<u64> = None;
    for i in f.loop_exits(head, end) {
        let Some((l, r)) = exit_flags[i] else {
            continue;
        };
        // Either order: (counter, k) or (k, counter).
        for (counter, konst) in [(l, r), (r, l)] {
            if counter.is_tainted() || konst.is_tainted() {
                continue;
            }
            let Some(k) = konst.si.as_exact() else {
                continue;
            };
            if counter.si.lo == i64::MIN {
                continue;
            }
            if k > counter.si.lo {
                let trips = k.wrapping_sub(counter.si.lo) as u64;
                best = Some(best.map_or(trips, |b| b.min(trips)));
            }
        }
    }
    best
}

/// The value-set transfer function over one function's lifted effects.
struct Vsa<'a> {
    abi: &'static Abi,
    image: &'a Image,
    /// Whether the function's argument is the tainted packet pointer.
    is_source: bool,
}

impl Vsa<'_> {
    fn entry(&self) -> State {
        let mut regs = [ValueSet::unknown(); 32];
        regs[self.abi.sp as usize] = ValueSet::stack(0);
        if let Some(zero) = self.abi.zero {
            regs[zero as usize] = ValueSet::constant(0);
        }
        if let (true, ArgLoc::Reg(arg)) = (self.is_source, self.abi.arg) {
            regs[arg as usize] = ValueSet::tainted();
        }
        State {
            regs,
            flags: (ValueSet::unknown(), ValueSet::unknown()),
        }
    }

    /// Classifies an immediate: an address inside the loaded image is
    /// `PieRel`, anything else a plain constant.
    fn classify(&self, v: u32) -> ValueSet {
        if self.image.section_containing(v).is_some() {
            ValueSet {
                region: Region::PieRel,
                si: StridedInterval::exact(v as i64),
            }
        } else {
            ValueSet::constant(v as i64)
        }
    }

    fn step(&self, st: &mut State, insn: &Lifted, collect: Option<&mut Collected>) {
        let Some(effect) = insn.effect else { return };
        let abi = self.abi;
        let set = |st: &mut State, dst: u8, v: ValueSet| write(abi, &mut st.regs, dst, v);
        let reg = |st: &State, r: u8| st.regs[r as usize];
        let sp = abi.sp as usize;
        match effect {
            Effect::Set { dst, src } => {
                let v = match src {
                    Src::Const(v) => ValueSet::constant(v),
                    Src::Imm(v) | Src::PcRel(v) => self.classify(v),
                    Src::Reg(r) => reg(st, r),
                    Src::RegPlus(r, k) | Src::Addr(r, k) => reg(st, r).add(k),
                    Src::Unknown => ValueSet::unknown(),
                    Src::Bits(r) => keep_taint(reg(st, r).is_tainted()),
                    Src::Sum(a, b) => {
                        keep_taint(reg(st, a).is_tainted() || reg(st, b).is_tainted())
                    }
                };
                set(st, dst, v);
            }
            Effect::Load { dst, mem } => {
                let v = self.load(st, mem);
                set(st, dst, v);
            }
            Effect::Store { src, mem } | Effect::Spill { src, mem } => {
                let (Some(out), Some(base)) = (collect, mem.base) else {
                    return;
                };
                let target = reg(st, base).add(mem.disp as i64);
                // The prologue's spill of the link register marks the
                // return slot.
                if matches!(effect, Effect::Spill { .. })
                    && Some(src) == abi.link
                    && target.region == Region::StackRel
                {
                    if let Some(slot) = target.si.as_exact() {
                        out.ret_slot = Some(slot);
                    }
                }
                out.stores.push(RawStore {
                    addr: insn.addr,
                    width: mem.width as u32,
                    target,
                    value: reg(st, src),
                });
            }
            Effect::Compare(l, r) => st.flags = (self.operand(st, l), self.operand(st, r)),
            Effect::SpAdjust(k) => st.regs[sp] = st.regs[sp].add(k),
            Effect::Push(pushed) => {
                let sp_after = st.regs[sp].add(-4 * pushed.words() as i64);
                let link_slot = abi.link.and_then(|l| pushed.slot(l));
                if let (Some(out), Some(base), Some(slot)) =
                    (collect, sp_after.si.as_exact(), link_slot)
                {
                    if st.regs[sp].region == Region::StackRel {
                        out.ret_slot = Some(base + 4 * slot as i64);
                    }
                }
                st.regs[sp] = sp_after;
            }
            Effect::Pop { regs, words } => {
                for r in (0..16).filter(|r| regs & (1 << r) != 0) {
                    set(st, r, ValueSet::unknown());
                }
                st.regs[sp] = st.regs[sp].add(4 * words as i64);
            }
            Effect::Leave => {
                if let Some(fp) = abi.fp {
                    st.regs[sp] = reg(st, fp).add(4);
                    st.regs[fp as usize] = ValueSet::unknown();
                }
            }
            Effect::Swap(a, b) => st.regs.swap(a as usize, b as usize),
            Effect::Call => {
                for &r in abi.caller_saved {
                    st.regs[r as usize] = ValueSet::unknown();
                }
            }
        }
    }

    /// The value read through `mem`: a stack-passed argument slot of a
    /// source function holds the packet pointer; dereferencing tainted
    /// data yields tainted data (a byte load only 8 bits of it).
    fn load(&self, st: &State, mem: Mem) -> ValueSet {
        let Some(base) = mem.base else {
            return ValueSet::unknown();
        };
        let arg_slot = matches!(self.abi.arg, ArgLoc::Stack(min) if mem.disp >= min);
        match st.regs[base as usize].region {
            Region::StackRel if self.is_source && arg_slot => ValueSet::tainted(),
            Region::Tainted if mem.width == 1 => ValueSet::tainted_byte(),
            Region::Tainted => ValueSet::tainted(),
            _ => ValueSet::unknown(),
        }
    }

    fn operand(&self, st: &State, op: Operand) -> ValueSet {
        match op {
            Operand::Reg(r) => st.regs[r as usize],
            Operand::Const(v) => ValueSet::constant(v),
            Operand::Mem(mem) => self.load(st, mem),
        }
    }
}

/// Bitwise mixes keep taint and lose every numeric fact.
fn keep_taint(tainted: bool) -> ValueSet {
    if tainted {
        ValueSet::tainted()
    } else {
        ValueSet::unknown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg;
    use crate::taint::{effective_sources, TaintConfig};
    use cml_firmware::build_image_for;

    fn vsa_of(arch: Arch, patched: bool, name: &str) -> FnVsa {
        let (img, _) = build_image_for(arch, 0, patched);
        let cfg = cfg::recover(&img);
        let sources = effective_sources(&cfg, &TaintConfig::default());
        vsa_pass(&cfg, &img, &sources)
            .into_iter()
            .find(|v| v.function == name)
            .expect("function analyzed")
    }

    #[test]
    fn vulnerable_write_is_unbounded_and_reaches_the_return_slot() {
        for (arch, start, ret) in [
            (Arch::X86, -1040, 0),
            (Arch::Armv7, -1076, -4),
            (Arch::Riscv, -1060, -4),
        ] {
            let v = vsa_of(arch, false, "parse_response");
            assert_eq!(v.ret_slot, Some(ret), "{arch}");
            let w: Vec<&StackWrite> = v.tainted_writes().collect();
            assert_eq!(w.len(), 1, "{arch}: one tainted stack write");
            assert_eq!(w[0].start, start, "{arch}");
            assert_eq!(w[0].stride, 1, "{arch}");
            assert!(w[0].in_loop, "{arch}");
            assert_eq!(w[0].extent, None, "{arch}: statically unbounded");
            assert_eq!(ret - w[0].start, i64::from(1024 + buf_pad(arch)), "{arch}");
        }
    }

    #[test]
    fn patched_write_is_bounded_below_the_return_slot() {
        for arch in Arch::ALL {
            let v = vsa_of(arch, true, "parse_response");
            let w: Vec<&StackWrite> = v.tainted_writes().collect();
            assert_eq!(w.len(), 1, "{arch}");
            assert_eq!(w[0].extent, Some(1024), "{arch}: capped at NAME_SIZE");
            let end = w[0].end().unwrap();
            assert!(
                end < v.ret_slot.unwrap(),
                "{arch}: bounded write must stop short of the return slot"
            );
        }
    }

    /// Frame padding between the 1024-byte buffer and the saved return
    /// address: x86 has 12 bytes of locals + saved ebp, ARM 48 bytes of
    /// locals + callee saves below lr, RISC-V 32 bytes of padding and
    /// callee saves below ra.
    fn buf_pad(arch: Arch) -> u32 {
        match arch {
            Arch::X86 => 16,
            Arch::Armv7 => 48,
            Arch::Riscv => 32,
        }
    }

    #[test]
    fn strided_interval_algebra_holds() {
        let a = StridedInterval::exact(-1040);
        let b = a.add(1);
        let j = a.join(b);
        assert_eq!((j.lo, j.hi, j.stride), (-1040, -1039, 1));
        let w = j.widen(j.add(1));
        assert_eq!((w.lo, w.hi), (-1040, i64::MAX));
        assert!(w.unbounded_above());
        assert_eq!(StridedInterval::exact(7).as_exact(), Some(7));
    }
}

//! Pinned digests of every analyzer output.
//!
//! Each row digests, with 64-bit FNV-1a, four renderings of one input
//! image: the `analyze` JSON report, the `{:?}` of `vsa_pass` over
//! every function, the effective taint-source set, and each function's
//! basic blocks (start, end, successors, terminator). The inputs are
//! the firmware images (three ISAs × vulnerable/bounds-checked ×
//! variants 0..8) plus seeded images whose function bodies are random
//! streams from each ISA's public assembler, drawing every instruction
//! form the analyzer interprets. The generated functions carry the
//! names of the CVE-2017-12865 call chain, so source seeding, argument
//! propagation and call summaries run on generated code too.
//!
//! A refactor of the analyzer must leave every row unchanged; a
//! deliberate change of analysis results re-pins the table and says
//! why.

use std::fmt::Write as _;

use cml_analyze::taint::{effective_sources, TaintConfig};
use cml_analyze::{analyze, cfg, vsa};
use cml_firmware::build_image_for;
use cml_image::layout::layout_for;
use cml_image::{Addr, Arch, Image, ImageBuilder, SectionKind, SymbolKind};
use cml_vm::{arm, riscv, x86, X86Reg};

fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One pinned row: the four digests of `image`.
fn row(label: &str, image: &Image) -> String {
    let report = analyze(image).to_json().to_string();
    let cfg = cfg::recover(image);
    let sources = effective_sources(&cfg, &TaintConfig::default());
    let value_sets = format!("{:?}", vsa::vsa_pass(&cfg, image, &sources));
    let mut blocks = String::new();
    for f in &cfg.functions {
        let _ = write!(blocks, "{}:", f.name);
        for b in &f.blocks {
            let _ = write!(
                blocks,
                " [{:#x},{:#x}) {:x?} {:?};",
                b.start, b.end, b.succs, b.term
            );
        }
        blocks.push('\n');
    }
    format!(
        "{label} report={:016x} vsa={:016x} sources={:016x} blocks={:016x}",
        fnv1a(&report),
        fnv1a(&value_sets),
        fnv1a(&format!("{sources:?}")),
        fnv1a(&blocks)
    )
}

/// SplitMix64: a self-contained deterministic stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// A function body under construction: its bytes and the offset of
/// every instruction start (the only legal backward-branch targets).
#[derive(Default)]
struct Body {
    bytes: Vec<u8>,
    starts: Vec<usize>,
}

impl Body {
    fn push(&mut self, insn: Vec<u8>) {
        self.starts.push(self.bytes.len());
        self.bytes.extend(insn);
    }

    fn pos(&self) -> usize {
        self.bytes.len()
    }

    /// A recent instruction start, for a backward branch.
    fn back_target(&self, rng: &mut Rng) -> Option<usize> {
        let recent = &self.starts[self.starts.len().saturating_sub(8)..];
        (!recent.is_empty()).then(|| rng.pick(recent))
    }
}

/// Immediates worth drawing: small numbers plus addresses inside the
/// image, so value classification sees image pointers.
struct Immediates {
    text: Addr,
    data: Addr,
}

impl Immediates {
    fn any(&self, rng: &mut Rng) -> u32 {
        match rng.below(5) {
            0 => self.text + rng.below(0x100) as u32,
            1 => self.data + rng.below(0x40) as u32,
            2 => rng.next() as u32,
            _ => rng.pick(&[0, 1, 4, 8, 0x20, 0x400, 0x3FF, 0xFF]),
        }
    }
}

/// One ISA's instruction forms, as the stream generator draws them.
trait Forms {
    /// One straight-line (non-transfer) instruction.
    fn straight(&self, rng: &mut Rng, imm: &Immediates) -> Vec<u8>;
    /// One prologue-shaped instruction: saves, frame pointer, carve,
    /// frame addresses.
    fn prologue(&self, rng: &mut Rng) -> Vec<u8>;
    /// A branch at body offset `from` back to offset `to`.
    fn back_branch(&self, rng: &mut Rng, from: usize, to: usize) -> Vec<u8>;
    /// A branch over the next `skip` bytes.
    fn skip_branch(&self, rng: &mut Rng, skip: usize) -> Vec<u8>;
    /// A direct call from `at` to `target`.
    fn call(&self, rng: &mut Rng, at: Addr, target: Addr) -> Vec<u8>;
    /// An indirect transfer, halt or odd return form.
    fn other_transfer(&self, rng: &mut Rng, imm: &Immediates) -> Vec<u8>;
    /// A byte-copy loop from the incoming argument into a frame
    /// address: its set-up goes into `body`, its pieces are returned.
    /// The loaded byte may pass through a bitwise or additive mix
    /// first, and the loop may exit on a counter bound or on the
    /// result of a call to `callee`.
    fn copy_loop(&self, rng: &mut Rng, body: &mut Body, callee: Option<Addr>) -> Loop;
    /// Passes the incoming argument (or some register) to `target`.
    fn arg_call(&self, rng: &mut Rng, body: &mut Body, base: Addr, target: Addr);
    /// The closing return, sometimes after a constant return value.
    fn epilogue(&self, rng: &mut Rng, body: &mut Body);
}

/// One loop instruction, encoded once its absolute address and the
/// byte distance from its end to the loop exit are known (every piece
/// has a fixed length, so encoding at `(0, 0)` measures it).
type Piece = Box<dyn Fn(Addr, usize) -> Vec<u8>>;

/// A loop under construction: its pieces from the head on, and the
/// closing backward branch, encoded from its byte offset to the head.
struct Loop {
    pieces: Vec<Piece>,
    back: Box<dyn Fn(i64) -> Vec<u8>>,
}

impl Loop {
    fn emit(self, body: &mut Body, base: Addr) {
        let total: usize =
            self.pieces.iter().map(|p| p(0, 0).len()).sum::<usize>() + (self.back)(0).len();
        let head = body.pos();
        for p in &self.pieces {
            let (at, len) = (body.pos(), p(0, 0).len());
            body.push(p(base + at as u32, total - (at - head) - len));
        }
        let pos = body.pos();
        body.push((self.back)(head as i64 - pos as i64));
    }
}

/// A piece independent of its placement.
fn fixed(bytes: Vec<u8>) -> Piece {
    Box::new(move |_, _| bytes.clone())
}

/// A function body: prologue forms, then a random stream; `straight`
/// bodies draw no transfers, so their return value is often a
/// summarizable constant.
fn generated_body(
    forms: &dyn Forms,
    rng: &mut Rng,
    base: Addr,
    callees: &[Addr],
    imm: &Immediates,
    straight: bool,
) -> Vec<u8> {
    let mut body = Body::default();
    for _ in 0..rng.below(5) {
        body.push(forms.prologue(rng));
    }
    if straight {
        for _ in 0..4 + rng.below(8) {
            body.push(forms.straight(rng, imm));
        }
        forms.epilogue(rng, &mut body);
        return body.bytes;
    }
    for _ in 0..12 + rng.below(28) {
        let pos = body.pos();
        match rng.below(24) {
            0 | 1 => {
                if let Some(t) = body.back_target(rng) {
                    body.push(forms.back_branch(rng, pos, t));
                }
            }
            2 | 3 => {
                let chunk: Vec<Vec<u8>> = (0..1 + rng.below(3))
                    .map(|_| forms.straight(rng, imm))
                    .collect();
                let skip = chunk.iter().map(Vec::len).sum();
                body.push(forms.skip_branch(rng, skip));
                for c in chunk {
                    body.push(c);
                }
            }
            4 if !callees.is_empty() => {
                let target = rng.pick(callees);
                body.push(forms.call(rng, base + pos as u32, target));
            }
            5 | 6 if !callees.is_empty() => {
                let target = rng.pick(callees);
                forms.arg_call(rng, &mut body, base, target);
            }
            7 => body.push(forms.other_transfer(rng, imm)),
            8 | 9 => {
                // Mostly the straight-line `helper`, whose return value
                // is often a summarized constant.
                let callee = (!callees.is_empty() && rng.chance(40)).then(|| {
                    if rng.chance(70) {
                        callees[0]
                    } else {
                        rng.pick(callees)
                    }
                });
                let lp = forms.copy_loop(rng, &mut body, callee);
                lp.emit(&mut body, base);
            }
            _ => body.push(forms.straight(rng, imm)),
        }
    }
    forms.epilogue(rng, &mut body);
    body.bytes
}

// ---- x86 ----

struct X86;

fn xr(rng: &mut Rng) -> X86Reg {
    X86Reg::from_bits(rng.below(8) as u8)
}

/// A register usable as a ModRM base with a disp8 (no SIB for esp).
fn xbase(rng: &mut Rng) -> u8 {
    rng.pick(&[0, 1, 2, 3, 5, 6, 7])
}

fn xdisp(rng: &mut Rng) -> i8 {
    rng.pick(&[-16, -8, -4, 0, 4, 8, 12, 16])
}

/// Three distinct registers other than esp/ebp.
fn x3(rng: &mut Rng) -> [X86Reg; 3] {
    pick3(rng, [0, 1, 2, 3, 6, 7]).map(X86Reg::from_bits)
}

/// Three distinct registers from `pool`, in random order.
fn pick3<const N: usize>(rng: &mut Rng, mut pool: [u8; N]) -> [u8; 3] {
    for i in 0..3 {
        let j = i + rng.below((N - i) as u64) as usize;
        pool.swap(i, j);
    }
    [pool[0], pool[1], pool[2]]
}

impl Forms for X86 {
    fn straight(&self, rng: &mut Rng, imm: &Immediates) -> Vec<u8> {
        let a = x86::Asm::new();
        let a = match rng.below(40) {
            0 => a.nop(),
            1 | 2 => a.push_r(xr(rng)),
            3 => a.pop_r(xr(rng)),
            4 => a.push_imm(imm.any(rng)),
            5 | 6 => a.mov_r_imm(xr(rng), imm.any(rng)),
            7 => a.mov_r8_imm(xr(rng), rng.next() as u8),
            8 | 9 => a.mov_rr(xr(rng), xr(rng)),
            10 | 11 => a.mov_mem_r(xr(rng), xdisp(rng), xr(rng)),
            12 | 13 => a.mov_r_mem(xr(rng), xr(rng), xdisp(rng)),
            14 => a.mov_r_abs(xr(rng), imm.any(rng)),
            15 => {
                let r = xr(rng);
                a.xor_rr(r, if rng.chance(50) { r } else { xr(rng) })
            }
            16 => a.and_rr(xr(rng), xr(rng)),
            17 => a.or_rr(xr(rng), xr(rng)),
            18 => a.cmp_rr(xr(rng), xr(rng)),
            19 => a.test_rr(xr(rng), xr(rng)),
            20 => a.shl_r_imm8(xr(rng), rng.below(32) as u8),
            21 => a.shr_r_imm8(xr(rng), rng.below(32) as u8),
            22 => a.lea(xr(rng), xr(rng), xdisp(rng)),
            23 => a.lea_disp32(xr(rng), xr(rng), -(rng.below(0x500) as i32)),
            24 => a.xchg_eax_r(X86Reg::from_bits(1 + rng.below(7) as u8)),
            25 => a.add_r_imm8(xr(rng), rng.next() as i8),
            26 => a.sub_r_imm8(xr(rng), rng.below(128) as i8),
            27 => a.cmp_r_imm8(xr(rng), rng.next() as i8),
            28 => a.add_r_imm32(xr(rng), imm.any(rng)),
            29 => a.sub_r_imm32(xr(rng), rng.below(0x800) as u32),
            30 => a.cmp_r_imm32(xr(rng), imm.any(rng)),
            31 => a.inc_r(xr(rng)),
            32 => a.dec_r(xr(rng)),
            33 => a.leave(),
            34 => a.movzx_rr8(xr(rng), xr(rng)),
            35 => a.int80(),
            // Memory-operand forms the assembler has no helper for, in
            // their ModRM mod=01 (disp8) encodings.
            36 => {
                // movzx r32, byte [base+disp8]
                let (reg, base) = (rng.below(8) as u8, xbase(rng));
                a.raw(&[0x0F, 0xB6, 0x40 | reg << 3 | base, xdisp(rng) as u8])
            }
            37 => {
                // cmp dword [base+disp8], imm8
                let base = xbase(rng);
                a.raw(&[0x83, 0x78 | base, xdisp(rng) as u8, rng.next() as u8])
            }
            38 => {
                // test / cmp [base+disp8], r32
                let op = rng.pick(&[0x85, 0x39]);
                let (reg, base) = (rng.below(8) as u8, xbase(rng));
                a.raw(&[op, 0x40 | reg << 3 | base, xdisp(rng) as u8])
            }
            _ => {
                // xor / add on a memory destination
                let base = xbase(rng);
                if rng.chance(50) {
                    let reg = rng.below(8) as u8;
                    a.raw(&[0x31, 0x40 | reg << 3 | base, xdisp(rng) as u8])
                } else {
                    a.raw(&[0x83, 0x40 | base, xdisp(rng) as u8, rng.next() as u8])
                }
            }
        };
        a.finish()
    }

    fn prologue(&self, rng: &mut Rng) -> Vec<u8> {
        let a = x86::Asm::new();
        let a = match rng.below(10) {
            0 => a.push_r(X86Reg::Ebp),
            1 | 2 => a.mov_rr(X86Reg::Ebp, X86Reg::Esp),
            3 => a.sub_r_imm32(X86Reg::Esp, 4 * rng.below(0x120) as u32),
            4 => a.sub_r_imm8(X86Reg::Esp, 4 * rng.below(32) as i8),
            5 => a.lea_disp32(xr(rng), X86Reg::Ebp, -(rng.below(0x440) as i32)),
            6 => a.lea(xr(rng), X86Reg::Esp, rng.below(64) as i8),
            7 => a.mov_rr(xr(rng), X86Reg::Esp),
            8 => a.add_r_imm8(X86Reg::Esp, rng.pick(&[-16, -4, 4, 8])),
            _ => a.push_imm(rng.below(16) as u32),
        };
        a.finish()
    }

    fn back_branch(&self, rng: &mut Rng, from: usize, to: usize) -> Vec<u8> {
        let rel = |len: usize| to as i64 - (from + len) as i64;
        let a = x86::Asm::new();
        match rng.below(5) {
            0 => a.jz_rel8(rel(2) as i8),
            1 => a.jnz_rel8(rel(2) as i8),
            2 => a.jmp_rel8(rel(2) as i8),
            3 => a.jz_rel32(rel(6) as i32),
            _ => a.jnz_rel32(rel(6) as i32),
        }
        .finish()
    }

    fn skip_branch(&self, rng: &mut Rng, skip: usize) -> Vec<u8> {
        let a = x86::Asm::new();
        match rng.below(5) {
            0 => a.jz_rel8(skip as i8),
            1 => a.jnz_rel8(skip as i8),
            2 => a.jmp_rel8(skip as i8),
            3 => a.jz_rel32(skip as i32),
            // jmp rel32 (0xE9)
            _ => a.raw(&[0xE9]).raw(&(skip as i32).to_le_bytes()),
        }
        .finish()
    }

    fn call(&self, _rng: &mut Rng, at: Addr, target: Addr) -> Vec<u8> {
        let rel = target.wrapping_sub(at + 5) as i32;
        x86::Asm::new().call_rel32(rel).finish()
    }

    fn other_transfer(&self, rng: &mut Rng, imm: &Immediates) -> Vec<u8> {
        let a = x86::Asm::new();
        match rng.below(5) {
            0 => a.call_r(xr(rng)),
            1 => a.jmp_r(xr(rng)),
            2 => a.jmp_abs_mem(imm.any(rng)),
            3 => a.hlt(),
            _ => a.ret_imm16(4),
        }
        .finish()
    }

    fn copy_loop(&self, rng: &mut Rng, body: &mut Body, callee: Option<Addr>) -> Loop {
        // A loop that calls keeps its state in callee-saved registers.
        let [src, byte, dst] = match callee {
            Some(_) => pick3(rng, [3, 6, 7]).map(X86Reg::from_bits),
            None => x3(rng),
        };
        let frame = rng.pick(&[X86Reg::Ebp, X86Reg::Esp]);
        let asm = x86::Asm::new;
        body.push(asm().mov_r_mem(src, frame, rng.pick(&[4, 8, 12])).finish());
        body.push(if frame == X86Reg::Ebp {
            asm()
                .lea_disp32(dst, X86Reg::Ebp, -(0x10 + 4 * rng.below(0x110) as i32))
                .finish()
        } else {
            asm()
                .lea(dst, X86Reg::Esp, 4 * rng.below(16) as i8)
                .finish()
        });
        let counter = X86Reg::Edx;
        let bounded = rng.chance(40) && ![src, byte, dst].contains(&counter);
        if bounded {
            body.push(asm().xor_rr(counter, counter).finish());
        }
        let exit: fn(Addr, usize) -> Vec<u8> =
            |_, skip| x86::Asm::new().jz_rel8(skip as i8).finish();
        // movzx byte, byte [src+0]
        let mut pieces = vec![fixed(vec![
            0x0F,
            0xB6,
            0x40 | byte.bits() << 3 | src.bits(),
            0,
        ])];
        if rng.chance(40) {
            let k = 1 + rng.below(7) as u8;
            pieces.push(fixed(if rng.chance(50) {
                asm().shl_r_imm8(byte, k).finish()
            } else {
                asm().shr_r_imm8(byte, k).finish()
            }));
        }
        if bounded {
            pieces.push(fixed(asm().cmp_r_imm32(counter, 0x400).finish()));
            pieces.push(Box::new(exit));
        }
        if let Some(target) = callee {
            pieces.push(Box::new(move |at, _| {
                let rel = target.wrapping_sub(at + 5) as i32;
                x86::Asm::new().call_rel32(rel).finish()
            }));
            pieces.push(fixed(if rng.chance(50) {
                asm().test_rr(X86Reg::Eax, X86Reg::Eax).finish()
            } else {
                asm().cmp_r_imm32(X86Reg::Eax, 0x400).finish()
            }));
            pieces.push(Box::new(exit));
        }
        pieces.push(fixed(asm().mov_mem_r(dst, 0, byte).finish()));
        pieces.push(fixed(asm().inc_r(src).finish()));
        pieces.push(fixed(asm().inc_r(dst).finish()));
        if bounded {
            pieces.push(fixed(asm().inc_r(counter).finish()));
        }
        pieces.push(fixed(asm().test_rr(byte, byte).finish()));
        Loop {
            pieces,
            back: Box::new(|d| x86::Asm::new().jnz_rel8((d - 2) as i8).finish()),
        }
    }

    fn arg_call(&self, rng: &mut Rng, body: &mut Body, base: Addr, target: Addr) {
        let r = x3(rng)[0];
        let frame = rng.pick(&[X86Reg::Ebp, X86Reg::Esp]);
        body.push(
            x86::Asm::new()
                .mov_r_mem(r, frame, rng.pick(&[4, 8, 12]))
                .finish(),
        );
        if rng.chance(80) {
            body.push(x86::Asm::new().push_r(r).finish());
        }
        let call = self.call(rng, base + body.pos() as u32, target);
        body.push(call);
        body.push(x86::Asm::new().add_r_imm8(X86Reg::Esp, 4).finish());
    }

    fn epilogue(&self, rng: &mut Rng, body: &mut Body) {
        match rng.below(4) {
            0 => body.push(x86::Asm::new().xor_rr(X86Reg::Eax, X86Reg::Eax).finish()),
            1 => body.push(
                x86::Asm::new()
                    .mov_r_imm(X86Reg::Eax, rng.below(4) as u32)
                    .finish(),
            ),
            _ => {}
        }
        if rng.chance(50) {
            body.push(x86::Asm::new().leave().finish());
        }
        body.push(x86::Asm::new().ret().finish());
    }
}

// ---- ARMv7 ----

struct Armv7;

fn ar(rng: &mut Rng) -> u8 {
    rng.pick(&[0, 0, 1, 2, 3, 4, 5, 6, 7, 11, 12, 13, 14])
}

/// A rotated 8-bit immediate (always encodable), or an image address
/// when that happens to be encodable.
fn arm_imm(rng: &mut Rng, imm: &Immediates) -> u32 {
    if rng.chance(25) {
        let v = rng.pick(&[imm.text, imm.data]);
        if (0..16).any(|r| v.rotate_left(2 * r) < 0x100) {
            return v;
        }
    }
    (rng.below(256) as u32).rotate_right(2 * rng.below(16) as u32)
}

fn arm_off(rng: &mut Rng) -> i32 {
    rng.pick(&[-16, -8, -4, 0, 4, 8, 12, 16])
}

fn arm_list(rng: &mut Rng) -> Vec<u8> {
    let mut regs: Vec<u8> = (0..15).filter(|_| rng.chance(25)).collect();
    if regs.is_empty() {
        regs.push(4);
    }
    regs
}

impl Forms for Armv7 {
    fn straight(&self, rng: &mut Rng, imm: &Immediates) -> Vec<u8> {
        let a = arm::Asm::new();
        let a = match rng.below(19) {
            0 | 1 => a.mov_imm(ar(rng), arm_imm(rng, imm)),
            2 => a.mvn_imm(ar(rng), arm_imm(rng, imm)),
            3 | 4 => a.mov_reg(ar(rng), ar(rng)),
            5 => a.add_imm(ar(rng), ar(rng), arm_imm(rng, imm)),
            6 => a.sub_imm(ar(rng), ar(rng), arm_imm(rng, imm)),
            7 => a.orr_imm(ar(rng), ar(rng), arm_imm(rng, imm)),
            8 => a.and_imm(ar(rng), ar(rng), arm_imm(rng, imm)),
            9 => a.eor_imm(ar(rng), ar(rng), arm_imm(rng, imm)),
            10 => a.lsl_imm(ar(rng), ar(rng), 1 + rng.below(31) as u8),
            11 => a.cmp_imm(ar(rng), arm_imm(rng, imm)),
            12 => a.ldr(ar(rng), ar(rng), arm_off(rng)),
            13 => a.str(ar(rng), ar(rng), arm_off(rng)),
            14 => a.ldrb(ar(rng), ar(rng), arm_off(rng)),
            15 => a.strb(ar(rng), ar(rng), arm_off(rng)),
            16 => a.push(&arm_list(rng)),
            17 => a.pop(&arm_list(rng)),
            _ => a.svc0(),
        };
        a.finish()
    }

    fn prologue(&self, rng: &mut Rng) -> Vec<u8> {
        let a = arm::Asm::new();
        let a = match rng.below(6) {
            0 => {
                let mut regs = arm_list(rng);
                regs.retain(|&r| r != 14);
                regs.push(14);
                a.push(&regs)
            }
            1 => a.sub_imm(13, 13, 4 * rng.below(0x100) as u32),
            2 => a.mov_reg(ar(rng), 13),
            3 => a.add_imm(ar(rng), 13, 4 * rng.below(64) as u32),
            4 => a.sub_imm(ar(rng), 13, 4 * rng.below(64) as u32),
            _ => a.str(ar(rng), 13, 4 * rng.below(8) as i32),
        };
        a.finish()
    }

    fn back_branch(&self, rng: &mut Rng, from: usize, to: usize) -> Vec<u8> {
        let off = to as i32 - (from as i32 + 8);
        let a = arm::Asm::new();
        match rng.below(3) {
            0 => a.beq(off),
            1 => a.bne(off),
            _ => a.b(off),
        }
        .finish()
    }

    fn skip_branch(&self, rng: &mut Rng, skip: usize) -> Vec<u8> {
        let off = skip as i32 - 4;
        let a = arm::Asm::new();
        match rng.below(3) {
            0 => a.beq(off),
            1 => a.bne(off),
            _ => a.b(off),
        }
        .finish()
    }

    fn call(&self, _rng: &mut Rng, at: Addr, target: Addr) -> Vec<u8> {
        arm::Asm::new()
            .bl(target.wrapping_sub(at + 8) as i32)
            .finish()
    }

    fn other_transfer(&self, rng: &mut Rng, _imm: &Immediates) -> Vec<u8> {
        let a = arm::Asm::new();
        match rng.below(3) {
            0 => a.blx(ar(rng)),
            1 => a.bx(ar(rng)),
            _ => a.pop(&[4, 15]),
        }
        .finish()
    }

    fn copy_loop(&self, rng: &mut Rng, body: &mut Body, callee: Option<Addr>) -> Loop {
        let asm = arm::Asm::new;
        let (src, byte, dst, counter) = match callee {
            // A loop that calls keeps its state in callee-saved registers.
            Some(_) => {
                body.push(asm().mov_reg(4, 0).finish());
                (4, 8, rng.pick(&[5, 6]), 7)
            }
            None => (rng.pick(&[0, 0, 1, 4]), 3, rng.pick(&[5, 6]), 7),
        };
        body.push(if rng.chance(50) {
            asm().mov_reg(dst, 13).finish()
        } else {
            asm().add_imm(dst, 13, 4 * rng.below(64) as u32).finish()
        });
        let bounded = rng.chance(40);
        if bounded {
            body.push(asm().mov_imm(counter, 0).finish());
        }
        let exit: fn(Addr, usize) -> Vec<u8> =
            |_, skip| arm::Asm::new().beq(skip as i32 - 4).finish();
        let mut pieces = vec![fixed(asm().ldrb(byte, src, 0).finish())];
        if rng.chance(40) {
            let k = 1 << rng.below(8);
            pieces.push(fixed(match rng.below(3) {
                0 => asm().eor_imm(byte, byte, k).finish(),
                1 => asm().orr_imm(byte, byte, k).finish(),
                _ => asm().and_imm(byte, byte, 0xFF).finish(),
            }));
        }
        if bounded {
            pieces.push(fixed(asm().cmp_imm(counter, 0x400).finish()));
            pieces.push(Box::new(exit));
        }
        if let Some(target) = callee {
            pieces.push(Box::new(move |at, _| {
                arm::Asm::new()
                    .bl(target.wrapping_sub(at + 8) as i32)
                    .finish()
            }));
            pieces.push(fixed(asm().cmp_imm(0, 0).finish()));
            pieces.push(Box::new(exit));
        }
        pieces.push(fixed(asm().strb(byte, dst, 0).finish()));
        pieces.push(fixed(asm().add_imm(src, src, 1).finish()));
        pieces.push(fixed(asm().add_imm(dst, dst, 1).finish()));
        if bounded {
            pieces.push(fixed(asm().add_imm(counter, counter, 1).finish()));
        }
        pieces.push(fixed(asm().cmp_imm(byte, 0).finish()));
        Loop {
            pieces,
            back: Box::new(|d| arm::Asm::new().bne(d as i32 - 8).finish()),
        }
    }

    fn arg_call(&self, rng: &mut Rng, body: &mut Body, base: Addr, target: Addr) {
        if rng.chance(40) {
            body.push(arm::Asm::new().mov_reg(0, ar(rng)).finish());
        }
        let call = self.call(rng, base + body.pos() as u32, target);
        body.push(call);
    }

    fn epilogue(&self, rng: &mut Rng, body: &mut Body) {
        if rng.chance(50) {
            body.push(arm::Asm::new().mov_imm(0, rng.below(4) as u32).finish());
        }
        let a = arm::Asm::new();
        let ret = if rng.chance(50) {
            a.pop(&[4, 5, 15])
        } else {
            a.bx(14)
        };
        body.push(ret.finish());
    }
}

// ---- RV32IC ----

struct Rv32;

fn rr(rng: &mut Rng) -> u8 {
    rng.pick(&[0, 1, 2, 5, 6, 8, 9, 10, 10, 11, 12, 14, 15, 28])
}

/// A nonzero register for the compressed forms that forbid x0.
fn rnz(rng: &mut Rng) -> u8 {
    rng.pick(&[1, 5, 6, 8, 9, 10, 11, 12, 14, 15, 28])
}

/// A register in the compressed x8..x15 window.
fn rc(rng: &mut Rng) -> u8 {
    8 + rng.below(8) as u8
}

fn rimm12(rng: &mut Rng) -> i32 {
    rng.pick(&[-16, -8, -4, -1, 0, 1, 4, 8, 16, 0x3FF, -0x400])
}

impl Forms for Rv32 {
    fn straight(&self, rng: &mut Rng, imm: &Immediates) -> Vec<u8> {
        let a = riscv::Asm::new();
        let a = match rng.below(32) {
            0 => a.lui(rnz(rng), imm.any(rng) & !0xFFF),
            1 => a.auipc(rnz(rng), rng.pick(&[0, 0x1000, 0x9_0000, 0x7000_0000])),
            2..=4 => a.addi(rr(rng), rr(rng), rimm12(rng)),
            5 => a.addi(rr(rng), 0, rimm12(rng)),
            6 => a.andi(rr(rng), rr(rng), rimm12(rng)),
            7 => a.ori(rr(rng), rr(rng), rimm12(rng)),
            8 => a.xori(rr(rng), rr(rng), rimm12(rng)),
            9 => a.slli(rr(rng), rr(rng), rng.below(32) as u8),
            10 => a.srli(rr(rng), rr(rng), rng.below(32) as u8),
            11 => a.add(rr(rng), rr(rng), rr(rng)),
            12 => a.sub(rr(rng), rr(rng), rr(rng)),
            13 | 14 => a.lw(rr(rng), rr(rng), rimm12(rng)),
            15 => a.lbu(rr(rng), rr(rng), rimm12(rng)),
            16 | 17 => a.sw(rr(rng), rr(rng), rimm12(rng)),
            18 => a.sb(rr(rng), rr(rng), rimm12(rng)),
            19 => a.ecall(),
            20 => a.c_nop(),
            21 => a.c_addi(rnz(rng), rng.pick(&[-4, -1, 1, 4, 31])),
            22 => a.c_li(rnz(rng), rng.pick(&[-32, -1, 0, 1, 8, 31])),
            23 => a.c_lui(rng.pick(&[1, 5, 8, 10, 15]), rng.pick(&[0x1000, 0x1F000])),
            24 => a.c_addi16sp(rng.pick(&[-512, -48, -16, 16, 32])),
            25 => a.c_addi4spn(rc(rng), 4 * (1 + rng.below(64) as i32)),
            26 => a.c_mv(rnz(rng), rng.pick(&[1, 2, 8, 10, 11])),
            27 => a.c_add(rnz(rng), rnz(rng)),
            28 => a.c_slli(rnz(rng), 1 + rng.below(31) as u8),
            29 => a.c_lwsp(rnz(rng), 4 * rng.below(16) as i32),
            30 => a.c_swsp(rr(rng), 4 * rng.below(16) as i32),
            _ => {
                if rng.chance(50) {
                    a.c_lw(rc(rng), rc(rng), 4 * rng.below(8) as i32)
                } else {
                    a.c_sw(rc(rng), rc(rng), 4 * rng.below(8) as i32)
                }
            }
        };
        a.finish()
    }

    fn prologue(&self, rng: &mut Rng) -> Vec<u8> {
        let a = riscv::Asm::new();
        let a = match rng.below(6) {
            0 | 1 => a.addi(2, 2, -16 * (1 + rng.below(80) as i32)),
            2 => a.sw(1, 2, 4 * rng.below(16) as i32),
            3 => a.sw(rng.pick(&[8, 9]), 2, 4 * rng.below(16) as i32),
            4 => a.addi(rr(rng), 2, 4 * rng.below(256) as i32),
            _ => a.c_swsp(1, 4 * rng.below(16) as i32),
        };
        a.finish()
    }

    fn back_branch(&self, rng: &mut Rng, from: usize, to: usize) -> Vec<u8> {
        let off = to as i32 - from as i32;
        let a = riscv::Asm::new();
        match rng.below(5) {
            0 => a.beq(rr(rng), rr(rng), off),
            1 => a.bne(rr(rng), rr(rng), off),
            2 => a.jal(0, off),
            3 => a.c_bnez(rc(rng), off),
            _ => a.c_j(off),
        }
        .finish()
    }

    fn skip_branch(&self, rng: &mut Rng, skip: usize) -> Vec<u8> {
        let skip = skip as i32;
        let a = riscv::Asm::new();
        match rng.below(4) {
            0 => a.beq(rr(rng), rr(rng), 4 + skip),
            1 => a.bne(rr(rng), rr(rng), 4 + skip),
            2 => a.c_beqz(rc(rng), 2 + skip),
            _ => a.jal(0, 4 + skip),
        }
        .finish()
    }

    fn call(&self, rng: &mut Rng, at: Addr, target: Addr) -> Vec<u8> {
        let rd = if rng.chance(85) { 1 } else { 5 };
        riscv::Asm::new()
            .jal(rd, target.wrapping_sub(at) as i32)
            .finish()
    }

    fn other_transfer(&self, rng: &mut Rng, _imm: &Immediates) -> Vec<u8> {
        let a = riscv::Asm::new();
        match rng.below(7) {
            0 => a.jalr(1, rnz(rng), 0),
            1 => a.jalr(0, rnz(rng), rng.pick(&[0, 4])),
            2 => a.jalr(5, rnz(rng), 0),
            3 => a.c_jalr(rnz(rng)),
            4 => a.c_jr(rnz(rng)),
            5 => a.ebreak(),
            _ => a.c_ebreak(),
        }
        .finish()
    }

    fn copy_loop(&self, rng: &mut Rng, body: &mut Body, callee: Option<Addr>) -> Loop {
        let asm = riscv::Asm::new;
        let (src, byte, dst, counter, cap) = match callee {
            // A loop that calls keeps its state in callee-saved registers.
            Some(_) => {
                body.push(asm().addi(18, 10, 0).finish());
                (18, 19, rng.pick(&[8, 9]), 20, 21)
            }
            None => (rng.pick(&[10, 10, 11, 12]), 5, rng.pick(&[8, 9]), 6, 28),
        };
        body.push(asm().addi(dst, 2, 4 * rng.below(64) as i32).finish());
        let bounded = rng.chance(40);
        if bounded {
            body.push(asm().addi(counter, 0, 0).finish());
            body.push(asm().addi(cap, 0, 0x400).finish());
        }
        let mut pieces = vec![fixed(asm().lbu(byte, src, 0).finish())];
        if rng.chance(40) {
            pieces.push(fixed(match rng.below(5) {
                0 => asm().xori(byte, byte, 0x20).finish(),
                1 => asm().slli(byte, byte, 1).finish(),
                2 => asm().add(byte, byte, rr(rng)).finish(),
                3 => asm().sub(byte, rr(rng), byte).finish(),
                _ => asm().c_add(byte, rnz(rng)).finish(),
            }));
        }
        if bounded {
            pieces.push(Box::new(move |_, skip| {
                riscv::Asm::new()
                    .beq(counter, cap, 4 + skip as i32)
                    .finish()
            }));
        }
        if let Some(target) = callee {
            pieces.push(Box::new(move |at, _| {
                riscv::Asm::new()
                    .jal(1, target.wrapping_sub(at) as i32)
                    .finish()
            }));
            let other = rng.pick(&[0, 7, 9]);
            pieces.push(Box::new(move |_, skip| {
                riscv::Asm::new().beq(10, other, 4 + skip as i32).finish()
            }));
        }
        pieces.push(fixed(asm().sb(byte, dst, 0).finish()));
        pieces.push(fixed(asm().addi(src, src, 1).finish()));
        pieces.push(fixed(asm().addi(dst, dst, 1).finish()));
        if bounded {
            pieces.push(fixed(asm().addi(counter, counter, 1).finish()));
        }
        Loop {
            pieces,
            back: Box::new(move |d| riscv::Asm::new().bne(byte, 0, d as i32).finish()),
        }
    }

    fn arg_call(&self, rng: &mut Rng, body: &mut Body, base: Addr, target: Addr) {
        if rng.chance(40) {
            body.push(riscv::Asm::new().addi(10, rr(rng), 0).finish());
        }
        let call = self.call(rng, base + body.pos() as u32, target);
        body.push(call);
    }

    fn epilogue(&self, rng: &mut Rng, body: &mut Body) {
        match rng.below(4) {
            0 | 1 => body.push(riscv::Asm::new().addi(10, 0, rng.below(4) as i32).finish()),
            2 => body.push(riscv::Asm::new().auipc(10, 0).finish()),
            _ => {}
        }
        let a = riscv::Asm::new();
        let ret = if rng.chance(50) {
            a.c_ret()
        } else {
            a.jalr(0, 1, 0)
        };
        body.push(ret.finish());
    }
}

/// A seeded image: four generated functions, each free to call the
/// ones placed before it, named after the dnsproxy call chain so the
/// default taint configuration seeds and propagates through them. The
/// first, `helper`, is straight-line, so callers often see a
/// summarized constant return.
fn generated_image(arch: Arch, seed: u64) -> Image {
    let l = layout_for(arch);
    let mut b = ImageBuilder::new(arch);
    b.section_default(SectionKind::Text, l.text_base, 0x4000);
    b.section_default(SectionKind::Data, l.data_base, 0x100);
    b.append_code(SectionKind::Data, &[0x41; 0x40]);
    let imm = Immediates {
        text: l.text_base,
        data: l.data_base,
    };
    let forms: &dyn Forms = match arch {
        Arch::X86 => &X86,
        Arch::Armv7 => &Armv7,
        Arch::Riscv => &Rv32,
    };
    let mut rng = Rng(seed ^ (arch as u64) << 32);
    let mut placed: Vec<Addr> = Vec::new();
    for name in [
        "helper",
        "parse_response",
        "uncompress",
        "forward_dns_reply",
    ] {
        let base = b.align_to(SectionKind::Text, 4);
        let body = generated_body(forms, &mut rng, base, &placed, &imm, name == "helper");
        let at = b.append_code(SectionKind::Text, &body);
        b.symbol(name, at, body.len() as u32, SymbolKind::Function);
        placed.push(at);
    }
    b.build().expect("generated layout is disjoint")
}

fn rows() -> Vec<String> {
    let mut rows = Vec::new();
    for arch in Arch::ALL {
        for bounds_checked in [false, true] {
            for variant in 0..8 {
                let (img, _) = build_image_for(arch, variant, bounds_checked);
                let flavour = if bounds_checked { "fixed" } else { "vuln" };
                rows.push(row(&format!("{arch}/{flavour}/{variant}"), &img));
            }
        }
    }
    // Generated images are pinned in groups: one digest over the rows
    // of `GROUP` consecutive seeds.
    for arch in Arch::ALL {
        for first in (0..GENERATED_SEEDS).step_by(GROUP as usize) {
            let group: Vec<String> = (first..first + GROUP)
                .map(|seed| row(&format!("{seed}"), &generated_image(arch, seed)))
                .collect();
            let last = first + GROUP - 1;
            rows.push(format!(
                "{arch}/gen/{first}-{last} {:016x}",
                fnv1a(&group.join("\n"))
            ));
        }
    }
    rows
}

const GENERATED_SEEDS: u64 = 256;
const GROUP: u64 = 16;

/// Generated on the analyzer before the effect lifting replaced its
/// per-ISA interpreters.
const PINNED: &str = "
x86/vuln/0 report=5dd39258eb5efc83 vsa=392e3c0569652646 sources=32d9f18915db993b blocks=55dd087890401c25
x86/vuln/1 report=efe228bb7dfc1a3e vsa=392e3c0569652646 sources=32d9f18915db993b blocks=55dd087890401c25
x86/vuln/2 report=efe228bb7dfc1a3e vsa=392e3c0569652646 sources=32d9f18915db993b blocks=55dd087890401c25
x86/vuln/3 report=22911b9a08a44c95 vsa=392e3c0569652646 sources=32d9f18915db993b blocks=55dd087890401c25
x86/vuln/4 report=efe228bb7dfc1a3e vsa=392e3c0569652646 sources=32d9f18915db993b blocks=55dd087890401c25
x86/vuln/5 report=84d5f309817e4594 vsa=392e3c0569652646 sources=32d9f18915db993b blocks=55dd087890401c25
x86/vuln/6 report=84d5f309817e4594 vsa=392e3c0569652646 sources=32d9f18915db993b blocks=55dd087890401c25
x86/vuln/7 report=5dd39258eb5efc83 vsa=392e3c0569652646 sources=32d9f18915db993b blocks=55dd087890401c25
x86/fixed/0 report=6663de39963bb68e vsa=bcd234740814614a sources=32d9f18915db993b blocks=a95fe8813d6b81d8
x86/fixed/1 report=7374f2b993ee886f vsa=bcd234740814614a sources=32d9f18915db993b blocks=a95fe8813d6b81d8
x86/fixed/2 report=7374f2b993ee886f vsa=bcd234740814614a sources=32d9f18915db993b blocks=a95fe8813d6b81d8
x86/fixed/3 report=cb0a11c970e6ef82 vsa=bcd234740814614a sources=32d9f18915db993b blocks=a95fe8813d6b81d8
x86/fixed/4 report=7374f2b993ee886f vsa=bcd234740814614a sources=32d9f18915db993b blocks=a95fe8813d6b81d8
x86/fixed/5 report=a5ce4797c22b3bc9 vsa=bcd234740814614a sources=32d9f18915db993b blocks=a95fe8813d6b81d8
x86/fixed/6 report=a5ce4797c22b3bc9 vsa=bcd234740814614a sources=32d9f18915db993b blocks=a95fe8813d6b81d8
x86/fixed/7 report=6663de39963bb68e vsa=bcd234740814614a sources=32d9f18915db993b blocks=a95fe8813d6b81d8
ARMv7/vuln/0 report=9f158fced92c3ddd vsa=623cf50a17de04eb sources=32d9f18915db993b blocks=72f20dbb52005e4d
ARMv7/vuln/1 report=9f158fced92c3ddd vsa=623cf50a17de04eb sources=32d9f18915db993b blocks=72f20dbb52005e4d
ARMv7/vuln/2 report=9f158fced92c3ddd vsa=623cf50a17de04eb sources=32d9f18915db993b blocks=72f20dbb52005e4d
ARMv7/vuln/3 report=9f158fced92c3ddd vsa=623cf50a17de04eb sources=32d9f18915db993b blocks=72f20dbb52005e4d
ARMv7/vuln/4 report=9f158fced92c3ddd vsa=623cf50a17de04eb sources=32d9f18915db993b blocks=72f20dbb52005e4d
ARMv7/vuln/5 report=9f158fced92c3ddd vsa=623cf50a17de04eb sources=32d9f18915db993b blocks=72f20dbb52005e4d
ARMv7/vuln/6 report=9f158fced92c3ddd vsa=623cf50a17de04eb sources=32d9f18915db993b blocks=72f20dbb52005e4d
ARMv7/vuln/7 report=9f158fced92c3ddd vsa=623cf50a17de04eb sources=32d9f18915db993b blocks=72f20dbb52005e4d
ARMv7/fixed/0 report=d3291ad9c4dd0f82 vsa=2fedfc0fd5347736 sources=32d9f18915db993b blocks=345ef255a523de42
ARMv7/fixed/1 report=d3291ad9c4dd0f82 vsa=2fedfc0fd5347736 sources=32d9f18915db993b blocks=345ef255a523de42
ARMv7/fixed/2 report=d3291ad9c4dd0f82 vsa=2fedfc0fd5347736 sources=32d9f18915db993b blocks=345ef255a523de42
ARMv7/fixed/3 report=d3291ad9c4dd0f82 vsa=2fedfc0fd5347736 sources=32d9f18915db993b blocks=345ef255a523de42
ARMv7/fixed/4 report=d3291ad9c4dd0f82 vsa=2fedfc0fd5347736 sources=32d9f18915db993b blocks=345ef255a523de42
ARMv7/fixed/5 report=d3291ad9c4dd0f82 vsa=2fedfc0fd5347736 sources=32d9f18915db993b blocks=345ef255a523de42
ARMv7/fixed/6 report=d3291ad9c4dd0f82 vsa=2fedfc0fd5347736 sources=32d9f18915db993b blocks=345ef255a523de42
ARMv7/fixed/7 report=d3291ad9c4dd0f82 vsa=2fedfc0fd5347736 sources=32d9f18915db993b blocks=345ef255a523de42
RISC-V/vuln/0 report=ba1c8cfd9c32356d vsa=866b745cb166c787 sources=32d9f18915db993b blocks=397791c499d79ec7
RISC-V/vuln/1 report=ba1c8cfd9c32356d vsa=866b745cb166c787 sources=32d9f18915db993b blocks=397791c499d79ec7
RISC-V/vuln/2 report=ba1c8cfd9c32356d vsa=866b745cb166c787 sources=32d9f18915db993b blocks=397791c499d79ec7
RISC-V/vuln/3 report=ba1c8cfd9c32356d vsa=866b745cb166c787 sources=32d9f18915db993b blocks=397791c499d79ec7
RISC-V/vuln/4 report=ba1c8cfd9c32356d vsa=866b745cb166c787 sources=32d9f18915db993b blocks=397791c499d79ec7
RISC-V/vuln/5 report=ba1c8cfd9c32356d vsa=866b745cb166c787 sources=32d9f18915db993b blocks=397791c499d79ec7
RISC-V/vuln/6 report=ba1c8cfd9c32356d vsa=866b745cb166c787 sources=32d9f18915db993b blocks=397791c499d79ec7
RISC-V/vuln/7 report=ba1c8cfd9c32356d vsa=866b745cb166c787 sources=32d9f18915db993b blocks=397791c499d79ec7
RISC-V/fixed/0 report=2be758a38a04124d vsa=249d147a962adb9d sources=32d9f18915db993b blocks=f2ddeb5f7981ff41
RISC-V/fixed/1 report=2be758a38a04124d vsa=249d147a962adb9d sources=32d9f18915db993b blocks=f2ddeb5f7981ff41
RISC-V/fixed/2 report=2be758a38a04124d vsa=249d147a962adb9d sources=32d9f18915db993b blocks=f2ddeb5f7981ff41
RISC-V/fixed/3 report=2be758a38a04124d vsa=249d147a962adb9d sources=32d9f18915db993b blocks=f2ddeb5f7981ff41
RISC-V/fixed/4 report=2be758a38a04124d vsa=249d147a962adb9d sources=32d9f18915db993b blocks=f2ddeb5f7981ff41
RISC-V/fixed/5 report=2be758a38a04124d vsa=249d147a962adb9d sources=32d9f18915db993b blocks=f2ddeb5f7981ff41
RISC-V/fixed/6 report=2be758a38a04124d vsa=249d147a962adb9d sources=32d9f18915db993b blocks=f2ddeb5f7981ff41
RISC-V/fixed/7 report=2be758a38a04124d vsa=249d147a962adb9d sources=32d9f18915db993b blocks=f2ddeb5f7981ff41
x86/gen/0-15 9136ccc244e509eb
x86/gen/16-31 51fa828d2ca7932f
x86/gen/32-47 3f570f9dabdb5152
x86/gen/48-63 0dd563fd73bab47d
x86/gen/64-79 15d49aa023dca85d
x86/gen/80-95 2e231a052681565f
x86/gen/96-111 09f4b43e6dca0153
x86/gen/112-127 5a447d3f01886728
x86/gen/128-143 63011d94f7933263
x86/gen/144-159 7d8a08e9d7a92fcb
x86/gen/160-175 b745e0b7f47b1a0b
x86/gen/176-191 3f8478cd50bbf340
x86/gen/192-207 28abc38cdd1c25af
x86/gen/208-223 5c4635b187c953e9
x86/gen/224-239 5e3040d5e72bd060
x86/gen/240-255 c96b3d94b6e06da3
ARMv7/gen/0-15 ebe61110394ccaa3
ARMv7/gen/16-31 4c031aef37304cd7
ARMv7/gen/32-47 1308b7c9c62e5dc3
ARMv7/gen/48-63 ab83b6cd2b8bf421
ARMv7/gen/64-79 26152c5df2279924
ARMv7/gen/80-95 131501c5b1cac337
ARMv7/gen/96-111 b820607b711814bd
ARMv7/gen/112-127 735b66bee092df7b
ARMv7/gen/128-143 b434c077f332e457
ARMv7/gen/144-159 092fb7c1d4e003a2
ARMv7/gen/160-175 a007966a0b7efe88
ARMv7/gen/176-191 265bf38fb027381d
ARMv7/gen/192-207 d8e88eb69f7bbc9b
ARMv7/gen/208-223 cb8848b81e79ae29
ARMv7/gen/224-239 e03f61d5157dc0e2
ARMv7/gen/240-255 ea611da459e5ef57
RISC-V/gen/0-15 c20d899965bf1418
RISC-V/gen/16-31 d4e1d4600b08beb6
RISC-V/gen/32-47 a78fc2a5d1dae941
RISC-V/gen/48-63 1a3a95fcea766f5d
RISC-V/gen/64-79 5e54728f312fd38e
RISC-V/gen/80-95 a3f5556ec6f318d5
RISC-V/gen/96-111 8df359963a5d9115
RISC-V/gen/112-127 2054298e4d500662
RISC-V/gen/128-143 5053d4ae4c0ae167
RISC-V/gen/144-159 efa802f5d6727e4d
RISC-V/gen/160-175 9b25f28372f8aa58
RISC-V/gen/176-191 c34548dc44ce1c6b
RISC-V/gen/192-207 ab020cd5367fd4b2
RISC-V/gen/208-223 208c1ae364ec3913
RISC-V/gen/224-239 58aaf242893bdb2a
RISC-V/gen/240-255 6126426b1570bb75
";

#[test]
fn analyzer_outputs_match_the_pinned_digests() {
    let got = rows().join("\n");
    assert!(
        got == PINNED.trim(),
        "analyzer output drifted from the pinned digests; current table:\n{got}"
    );
}

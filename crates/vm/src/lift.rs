//! One semantic form per instruction: each ISA's decoded instructions
//! lifted to the effects a static pass interprets.
//!
//! The interpreters ([`x86`], [`arm`], [`riscv`]) execute instructions;
//! a static analysis instead wants to know what an instruction *does*
//! to registers, memory and the stack, independent of its encoding.
//! [`lift`] answers that once per ISA: an instruction becomes at most
//! one data [`Effect`] plus its control transfer ([`Flow`]), and the
//! per-arch [`Abi`] table names the registers those effects are read
//! against (stack and frame pointer, return value, first argument,
//! caller-saved set, the hardwired zero).
//!
//! The effect vocabulary keeps the distinctions the analyses draw: an
//! immediate that may name an image address ([`Src::Imm`]) is not a
//! plain number ([`Src::Const`]), a frame address taken (`lea`,
//! `add rd, sp, #k`: [`Src::Addr`]) is not an in-place adjustment
//! ([`Src::RegPlus`]), and a stack carve ([`Effect::SpAdjust`]) is not
//! ordinary arithmetic on the stack pointer.

use cml_image::{Addr, Arch};

use crate::{arm, riscv, x86, X86Reg};

/// A register slot: the x86 register number (0..8), ARM `r0..r15`, or
/// RISC-V `x0..x31`.
pub type Reg = u8;

/// A memory operand `[base + disp]` of `width` bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mem {
    /// Base register; `None` is an absolute address.
    pub base: Option<Reg>,
    /// Signed displacement.
    pub disp: i32,
    /// Access width in bytes.
    pub width: u8,
}

/// The value a register is set to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// A plain number.
    Const(i64),
    /// An immediate that may name an address inside the image.
    Imm(u32),
    /// A pc-relative address (`auipc`).
    PcRel(u32),
    /// A copy of a register.
    Reg(Reg),
    /// A register adjusted by a constant (`add r, k`, `inc r`).
    RegPlus(Reg, i64),
    /// An address computed from a register and a displacement (`lea`,
    /// `add rd, sp, #k`, `addi rd, sp, k`).
    Addr(Reg, i64),
    /// Nothing known (partial-register writes, register-register logic).
    Unknown,
    /// A bitwise or shift function of one register.
    Bits(Reg),
    /// A sum or difference of two registers.
    Sum(Reg, Reg),
}

/// One side of a comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// A register's value.
    Reg(Reg),
    /// A constant.
    Const(i64),
    /// The value loaded from memory.
    Mem(Mem),
}

/// What a push stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pushed {
    /// A register set (bit `r` = register `r`); ascending register
    /// numbers land at ascending addresses.
    Regs(u16),
    /// One immediate word.
    Imm(u32),
}

impl Pushed {
    /// Words the push moves the stack pointer down by.
    pub fn words(self) -> u32 {
        match self {
            Pushed::Regs(list) => list.count_ones(),
            Pushed::Imm(_) => 1,
        }
    }

    /// The registers saved (none for an immediate).
    pub fn regs(self) -> u16 {
        match self {
            Pushed::Regs(list) => list,
            Pushed::Imm(_) => 0,
        }
    }

    /// The word slot, counted up from the new stack pointer, where
    /// `reg` is saved, if it is pushed.
    pub fn slot(self, reg: Reg) -> Option<u32> {
        let list = u32::from(self.regs());
        (list >> reg & 1 == 1).then(|| (list & ((1 << reg) - 1)).count_ones())
    }
}

/// The data effect of one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// `dst := src`.
    Set {
        /// Register written.
        dst: Reg,
        /// Its new value.
        src: Src,
    },
    /// `dst := [mem]`.
    Load {
        /// Register written.
        dst: Reg,
        /// Address read.
        mem: Mem,
    },
    /// `[mem] := src`.
    Store {
        /// Register stored.
        src: Reg,
        /// Address written.
        mem: Mem,
    },
    /// A word store that may save a register: on RISC-V, which has no
    /// push, the prologue saves registers with `sw`.
    Spill {
        /// Register stored.
        src: Reg,
        /// Address written.
        mem: Mem,
    },
    /// Sets the flags (or, on RISC-V, tests a branch's operands).
    Compare(Operand, Operand),
    /// The stack pointer moves by the given bytes to carve or release
    /// frame space (`sub esp, N`, `sub sp, sp, #N`, `addi sp, sp, N`).
    SpAdjust(i64),
    /// The stack pointer moves down one word per pushed value.
    Push(Pushed),
    /// Registers reloaded from the stack; the stack pointer moves up
    /// `words` words.
    Pop {
        /// Registers that receive stack values (never sp or pc).
        regs: u16,
        /// Words popped.
        words: u8,
    },
    /// `leave`: the stack pointer returns to just above the saved frame
    /// pointer, which is reloaded.
    Leave,
    /// Two registers exchange values.
    Swap(Reg, Reg),
    /// A call under the ABI: the first argument leaves, caller-saved
    /// registers are clobbered, the return register receives a result.
    Call,
}

/// How control leaves an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Falls through to the next instruction.
    Seq,
    /// Unconditional direct jump.
    Jump(Addr),
    /// Conditional direct branch; falls through otherwise.
    Cond(Addr),
    /// Direct call; returns to the next instruction.
    Call(Addr),
    /// Jump through a register or memory operand.
    IndirectJump,
    /// Call through a register or memory operand.
    IndirectCall,
    /// Function return.
    Return,
    /// Stops the machine (`hlt`, `ebreak`).
    Halt,
}

/// One lifted instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lifted {
    /// Virtual address.
    pub addr: Addr,
    /// Encoded length in bytes.
    pub len: u32,
    /// What it does to registers, memory and the stack.
    pub effect: Option<Effect>,
    /// How control leaves it.
    pub flow: Flow,
}

/// Where a function finds its first argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgLoc {
    /// On the stack, at this displacement or above from a frame
    /// register; a caller passes it with its last push.
    Stack(i32),
    /// In a register, in callee and caller alike.
    Reg(Reg),
}

/// The calling-convention facts the effects are read against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Abi {
    /// Stack pointer.
    pub sp: Reg,
    /// Frame pointer the prologue hands the stack pointer to, when the
    /// convention addresses frames through one.
    pub fp: Option<Reg>,
    /// Link register; `None` when a call pushes the return address at
    /// the callee's entry stack pointer.
    pub link: Option<Reg>,
    /// Return-value register.
    pub ret: Reg,
    /// First argument.
    pub arg: ArgLoc,
    /// Registers a call clobbers.
    pub caller_saved: &'static [Reg],
    /// Register hardwired to zero, whose writes are discarded.
    pub zero: Option<Reg>,
}

const X86_ABI: Abi = Abi {
    sp: 4,
    fp: Some(5),
    link: None,
    ret: 0,
    arg: ArgLoc::Stack(8),
    caller_saved: &[0, 1, 2],
    zero: None,
};

const ARM_ABI: Abi = Abi {
    sp: 13,
    fp: None,
    link: Some(14),
    ret: 0,
    arg: ArgLoc::Reg(0),
    caller_saved: &[0, 1, 2, 3],
    zero: None,
};

const RISCV_ABI: Abi = Abi {
    sp: 2,
    fp: None,
    link: Some(1),
    ret: 10,
    arg: ArgLoc::Reg(10),
    caller_saved: &[1, 5, 6, 7, 28, 29, 30, 31, 10, 11, 12, 13, 14, 15, 16, 17],
    zero: Some(0),
};

/// The ABI table of `arch`.
pub fn abi(arch: Arch) -> &'static Abi {
    match arch {
        Arch::X86 => &X86_ABI,
        Arch::Armv7 => &ARM_ABI,
        Arch::Riscv => &RISCV_ABI,
    }
}

/// Decodes and lifts the instruction at the start of `bytes`, which sit
/// at `addr`. `None` for undecodable bytes.
pub fn lift(arch: Arch, bytes: &[u8], addr: Addr) -> Option<Lifted> {
    let ((effect, flow), len) = match arch {
        Arch::X86 => x86::decode(bytes)
            .map(|(i, len)| (lift_x86(&i, addr.wrapping_add(len as u32)), len))
            .ok()?,
        Arch::Armv7 => arm::decode(bytes)
            .map(|(i, len)| (lift_arm(&i, addr), len))
            .ok()?,
        Arch::Riscv => riscv::decode(bytes)
            .map(|(i, len)| (lift_riscv(&i, addr), len))
            .ok()?,
    };
    Some(Lifted {
        addr,
        len: len as u32,
        effect,
        flow,
    })
}

fn set(dst: Reg, src: Src) -> Option<Effect> {
    Some(Effect::Set { dst, src })
}

/// `[base + disp]`, `width` bytes.
fn at(base: Reg, disp: i32, width: u8) -> Mem {
    Mem {
        base: Some(base),
        disp,
        width,
    }
}

fn load(dst: Reg, mem: Mem) -> Option<Effect> {
    Some(Effect::Load { dst, mem })
}

fn store(src: Reg, mem: Mem) -> Option<Effect> {
    Some(Effect::Store { src, mem })
}

fn compare(l: Operand, r: Operand) -> Option<Effect> {
    Some(Effect::Compare(l, r))
}

fn x86_operand(op: x86::Operand) -> Operand {
    match op {
        x86::Operand::Reg(r) => Operand::Reg(r.bits()),
        x86::Operand::Mem { base, disp } => Operand::Mem(Mem {
            base: base.map(X86Reg::bits),
            disp,
            width: 4,
        }),
    }
}

fn x86_mem(op: x86::Operand, width: u8) -> Option<Mem> {
    match x86_operand(op) {
        Operand::Mem(m) => Some(Mem { width, ..m }),
        _ => None,
    }
}

/// `next` is the address after the instruction (x86 branches are
/// relative to it).
fn lift_x86(i: &x86::Insn, next: Addr) -> (Option<Effect>, Flow) {
    use x86::Insn as I;
    use x86::Operand as O;
    let sp = X86_ABI.sp;
    let rel = |d: i32| next.wrapping_add(d as u32);
    let effect = match *i {
        I::MovRImm(d, v) => set(d.bits(), Src::Imm(v)),
        I::MovR8Imm(d, _) => set(d.bits(), Src::Unknown),
        I::MovRmR {
            dst: O::Reg(d),
            src,
        } => set(d.bits(), Src::Reg(src.bits())),
        I::MovRmR { dst, src } => x86_mem(dst, 4)
            .filter(|m| m.base.is_some())
            .and_then(|mem| store(src.bits(), mem)),
        I::MovRRm {
            dst,
            src: O::Reg(s),
        }
        | I::Movzx8 {
            dst,
            src: O::Reg(s),
        } => set(dst.bits(), Src::Reg(s.bits())),
        I::MovRRm { dst, src } => x86_mem(src, 4).and_then(|mem| load(dst.bits(), mem)),
        I::Movzx8 { dst, src } => x86_mem(src, 1).and_then(|mem| load(dst.bits(), mem)),
        I::Lea {
            dst,
            src: O::Mem {
                base: Some(b),
                disp,
            },
        } => set(dst.bits(), Src::Addr(b.bits(), disp as i64)),
        I::Lea { dst, .. } => set(dst.bits(), Src::Unknown),
        I::XorRmR {
            dst: O::Reg(d),
            src,
        } if d == src => set(d.bits(), Src::Const(0)),
        I::XorRmR { dst: O::Reg(d), .. }
        | I::AndRmR { dst: O::Reg(d), .. }
        | I::OrRmR { dst: O::Reg(d), .. } => set(d.bits(), Src::Unknown),
        I::AddRmImm8 {
            dst: O::Reg(d),
            imm,
        } => set(d.bits(), Src::RegPlus(d.bits(), imm as i64)),
        I::AddRmImm32 {
            dst: O::Reg(d),
            imm,
        } => set(d.bits(), Src::RegPlus(d.bits(), imm as i64)),
        I::SubRmImm8 {
            dst: O::Reg(d),
            imm,
        } => x86_sub(d.bits(), imm as i64, sp),
        I::SubRmImm32 {
            dst: O::Reg(d),
            imm,
        } => x86_sub(d.bits(), imm as i64, sp),
        I::IncR(d) => set(d.bits(), Src::RegPlus(d.bits(), 1)),
        I::DecR(d) => set(d.bits(), Src::RegPlus(d.bits(), -1)),
        I::ShlRImm8 { reg, .. } | I::ShrRImm8 { reg, .. } => set(reg.bits(), Src::Bits(reg.bits())),
        I::PushR(s) => Some(Effect::Push(Pushed::Regs(1 << s.bits()))),
        I::PushImm(v) => Some(Effect::Push(Pushed::Imm(v))),
        I::PopR(d) => Some(Effect::Pop {
            regs: 1 << d.bits(),
            words: 1,
        }),
        I::XchgEaxR(d) => Some(Effect::Swap(X86Reg::Eax.bits(), d.bits())),
        I::TestRmR { dst, src } | I::CmpRmR { dst, src } => {
            compare(x86_operand(dst), Operand::Reg(src.bits()))
        }
        I::CmpRmImm8 { dst, imm } => compare(x86_operand(dst), Operand::Const(imm as i64)),
        I::CmpRmImm32 { dst, imm } => compare(x86_operand(dst), Operand::Const(imm as i64)),
        I::Leave => Some(Effect::Leave),
        I::CallRel32(_) | I::CallRm(_) => Some(Effect::Call),
        _ => None,
    };
    let flow = match *i {
        I::Ret | I::RetImm16(_) => Flow::Return,
        I::JmpRel8(d) => Flow::Jump(rel(d as i32)),
        I::JmpRel32(d) => Flow::Jump(rel(d)),
        I::Jz8(d) | I::Jnz8(d) => Flow::Cond(rel(d as i32)),
        I::Jz32(d) | I::Jnz32(d) => Flow::Cond(rel(d)),
        I::CallRel32(d) => Flow::Call(rel(d)),
        I::CallRm(_) => Flow::IndirectCall,
        I::JmpRm(_) => Flow::IndirectJump,
        I::Hlt => Flow::Halt,
        _ => Flow::Seq,
    };
    (effect, flow)
}

/// `sub r, imm`: a carve when `r` is the stack pointer.
fn x86_sub(d: Reg, imm: i64, sp: Reg) -> Option<Effect> {
    if d == sp {
        Some(Effect::SpAdjust(-imm))
    } else {
        set(d, Src::RegPlus(d, -imm))
    }
}

/// A32 branch targets are relative to the instruction + 8.
fn lift_arm(i: &arm::Insn, addr: Addr) -> (Option<Effect>, Flow) {
    use arm::Insn as I;
    let sp = ARM_ABI.sp;
    let rel = |off: i32| addr.wrapping_add(8).wrapping_add(off as u32);
    let effect = match *i {
        I::MovImm { rd, imm } => set(rd, Src::Imm(imm)),
        I::MvnImm { rd, .. } | I::LslImm { rd, .. } => set(rd, Src::Unknown),
        I::MovReg { rd, rm } => set(rd, Src::Reg(rm)),
        I::AddImm { rd, rn, imm } if rd == sp => set(rd, Src::RegPlus(rn, imm as i64)),
        I::AddImm { rd, rn, imm } => set(rd, Src::Addr(rn, imm as i64)),
        I::SubImm { rd, rn, imm } if rd == sp && rn == sp => Some(Effect::SpAdjust(-(imm as i64))),
        I::SubImm { rd, rn, imm } => set(rd, Src::RegPlus(rn, -(imm as i64))),
        I::OrrImm { rd, rn, .. } | I::AndImm { rd, rn, .. } | I::EorImm { rd, rn, .. } => {
            set(rd, Src::Bits(rn))
        }
        I::CmpImm { rn, imm } => compare(Operand::Reg(rn), Operand::Const(imm as i64)),
        I::Ldr { rd, rn, offset } => load(rd, at(rn, offset, 4)),
        I::Ldrb { rd, rn, offset } => load(rd, at(rn, offset, 1)),
        I::Str { rd, rn, offset } => store(rd, at(rn, offset, 4)),
        I::Strb { rd, rn, offset } => store(rd, at(rn, offset, 1)),
        I::Push { list } => Some(Effect::Push(Pushed::Regs(list))),
        I::Pop { list } => Some(Effect::Pop {
            regs: list & !(1 << sp | 1 << 15),
            words: list.count_ones() as u8,
        }),
        I::Bl { .. } | I::Blx { .. } => Some(Effect::Call),
        _ => None,
    };
    let flow = match *i {
        I::B { offset } => Flow::Jump(rel(offset)),
        I::BEq { offset } | I::BNe { offset } => Flow::Cond(rel(offset)),
        I::Bl { offset } => Flow::Call(rel(offset)),
        I::Bx { rm } if Some(rm) == ARM_ABI.link => Flow::Return,
        I::Bx { .. } => Flow::IndirectJump,
        I::Blx { .. } => Flow::IndirectCall,
        I::Pop { list } if list & (1 << 15) != 0 => Flow::Return,
        _ => Flow::Seq,
    };
    (effect, flow)
}

/// RV32 branch and jump offsets are relative to the instruction itself.
fn lift_riscv(i: &riscv::Insn, addr: Addr) -> (Option<Effect>, Flow) {
    use riscv::Insn as I;
    let sp = RISCV_ABI.sp;
    let link = 1;
    let rel = |off: i32| addr.wrapping_add(off as u32);
    let effect = match *i {
        I::Lui { rd, imm } => set(rd, Src::Imm(imm)),
        I::Auipc { rd, imm } => set(rd, Src::PcRel(addr.wrapping_add(imm))),
        I::Addi { rd, rs1, imm } if rd == sp && rs1 == sp => Some(Effect::SpAdjust(imm as i64)),
        I::Addi { rd, rs1: 0, imm } => set(rd, Src::Const(imm as i64)),
        I::Addi { rd, rs1, imm } if rd == sp => set(rd, Src::RegPlus(rs1, imm as i64)),
        I::Addi { rd, rs1, imm } => set(rd, Src::Addr(rs1, imm as i64)),
        I::Andi { rd, rs1, .. }
        | I::Ori { rd, rs1, .. }
        | I::Xori { rd, rs1, .. }
        | I::Slli { rd, rs1, .. }
        | I::Srli { rd, rs1, .. } => set(rd, Src::Bits(rs1)),
        I::Add { rd, rs1, rs2 } | I::Sub { rd, rs1, rs2 } => set(rd, Src::Sum(rs1, rs2)),
        I::Lw { rd, rs1, offset } => load(rd, at(rs1, offset, 4)),
        I::Lbu { rd, rs1, offset } => load(rd, at(rs1, offset, 1)),
        I::Sw { rs2, rs1, offset } => Some(Effect::Spill {
            src: rs2,
            mem: at(rs1, offset, 4),
        }),
        I::Sb { rs2, rs1, offset } => store(rs2, at(rs1, offset, 1)),
        I::Beq { rs1, rs2, .. } | I::Bne { rs1, rs2, .. } => {
            compare(Operand::Reg(rs1), Operand::Reg(rs2))
        }
        I::Jal { rd, .. } | I::Jalr { rd, .. } if rd == link => Some(Effect::Call),
        _ => None,
    };
    let flow = match *i {
        I::Jalr {
            rd: 0,
            rs1,
            offset: 0,
        } if rs1 == link => Flow::Return,
        I::Jal { rd: 0, offset } => Flow::Jump(rel(offset)),
        I::Jal { offset, .. } => Flow::Call(rel(offset)),
        I::Jalr { rd: 0, .. } => Flow::IndirectJump,
        I::Jalr { .. } => Flow::IndirectCall,
        I::Beq { offset, .. } | I::Bne { offset, .. } => Flow::Cond(rel(offset)),
        I::Ebreak => Flow::Halt,
        _ => Flow::Seq,
    };
    (effect, flow)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lift_all(arch: Arch, code: &[u8], base: Addr) -> Vec<(Option<Effect>, Flow)> {
        let mut out = Vec::new();
        let mut off = 0;
        while off < code.len() {
            let l = lift(arch, &code[off..], base + off as u32).expect("decodes");
            out.push((l.effect, l.flow));
            off += l.len as usize;
        }
        out
    }

    #[test]
    fn prologues_lift_to_saves_carves_and_frame_addresses() {
        let x = x86::Asm::new()
            .push_r(X86Reg::Ebp)
            .mov_rr(X86Reg::Ebp, X86Reg::Esp)
            .sub_r_imm32(X86Reg::Esp, 0x40C)
            .lea_disp32(X86Reg::Edi, X86Reg::Ebp, -0x40C)
            .ret()
            .finish();
        assert_eq!(
            lift_all(Arch::X86, &x, 0x1000),
            [
                (Some(Effect::Push(Pushed::Regs(1 << 5))), Flow::Seq),
                (set(5, Src::Reg(4)), Flow::Seq),
                (Some(Effect::SpAdjust(-0x40C)), Flow::Seq),
                (set(7, Src::Addr(5, -0x40C)), Flow::Seq),
                (None, Flow::Return),
            ]
        );

        let a = arm::Asm::new()
            .push(&[4, 14])
            .sub_imm(13, 13, 0x10)
            .add_imm(3, 13, 4)
            .bl(0)
            .bx(14)
            .finish();
        assert_eq!(
            lift_all(Arch::Armv7, &a, 0x1000),
            [
                (
                    Some(Effect::Push(Pushed::Regs(1 << 4 | 1 << 14))),
                    Flow::Seq
                ),
                (Some(Effect::SpAdjust(-0x10)), Flow::Seq),
                (set(3, Src::Addr(13, 4)), Flow::Seq),
                (Some(Effect::Call), Flow::Call(0x100C + 8)),
                (None, Flow::Return),
            ]
        );
        assert_eq!(Pushed::Regs(1 << 4 | 1 << 14).slot(14), Some(1));
        assert_eq!(Pushed::Imm(7).slot(14), None);

        let r = riscv::Asm::new()
            .addi(2, 2, -32)
            .sw(1, 2, 28)
            .jal(1, 8)
            .c_ret()
            .finish();
        assert_eq!(
            lift_all(Arch::Riscv, &r, 0x1000),
            [
                (Some(Effect::SpAdjust(-32)), Flow::Seq),
                (
                    Some(Effect::Spill {
                        src: 1,
                        mem: at(2, 28, 4)
                    }),
                    Flow::Seq
                ),
                (Some(Effect::Call), Flow::Call(0x1008 + 8)),
                (None, Flow::Return),
            ]
        );
    }

    #[test]
    fn undecodable_bytes_do_not_lift() {
        assert_eq!(lift(Arch::X86, &[], 0), None);
        assert_eq!(lift(Arch::Riscv, &[0x00], 0), None);
    }
}

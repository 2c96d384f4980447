//! Property tests over the three instruction sets: everything the
//! assemblers can emit, the decoders must round-trip; decoding arbitrary
//! bytes must be total (no panics) and report honest lengths; and every
//! generated program must run identically under IR dispatch and the
//! per-instruction reference path.

use proptest::prelude::*;

use cml_image::{Arch, Perms, SectionKind};
use cml_vm::riscv::Insn as RvInsn;
use cml_vm::{arm, riscv, x86, ArmReg, Event, Machine, Regs, RiscvReg, RunOutcome, X86Reg};

/// A recipe for one x86 instruction, generatable by proptest.
#[derive(Debug, Clone)]
enum XInsn {
    Nop,
    PushR(u8),
    PopR(u8),
    PushImm(u32),
    MovRImm(u8, u32),
    MovR8Imm(u8, u8),
    MovRR(u8, u8),
    XorRR(u8, u8),
    AndRR(u8, u8),
    OrRR(u8, u8),
    CmpRR(u8, u8),
    TestRR(u8, u8),
    ShlImm(u8, u8),
    ShrImm(u8, u8),
    Lea(u8, u8, i8),
    AddImm8(u8, i8),
    SubImm8(u8, i8),
    CmpImm8(u8, i8),
    IncR(u8),
    DecR(u8),
    Ret,
    RetImm16(u16),
    Leave,
    CallRel(i32),
    CallR(u8),
    JmpR(u8),
    JmpRel8(i8),
    Jz(i8),
    Jnz(i8),
    Int80,
    Hlt,
    MovMemR(u8, i8, u8),
    MovRMem(u8, u8, i8),
    MovRAbs(u8, u32),
    XchgEax(u8),
}

fn reg(bits: u8) -> X86Reg {
    X86Reg::from_bits(bits)
}

fn x_strategy() -> impl Strategy<Value = XInsn> {
    let r = 0u8..8;
    prop_oneof![
        Just(XInsn::Nop),
        r.clone().prop_map(XInsn::PushR),
        r.clone().prop_map(XInsn::PopR),
        any::<u32>().prop_map(XInsn::PushImm),
        (r.clone(), any::<u32>()).prop_map(|(a, b)| XInsn::MovRImm(a, b)),
        (r.clone(), any::<u8>()).prop_map(|(a, b)| XInsn::MovR8Imm(a, b)),
        (r.clone(), r.clone()).prop_map(|(a, b)| XInsn::MovRR(a, b)),
        (r.clone(), r.clone()).prop_map(|(a, b)| XInsn::XorRR(a, b)),
        (r.clone(), r.clone()).prop_map(|(a, b)| XInsn::AndRR(a, b)),
        (r.clone(), r.clone()).prop_map(|(a, b)| XInsn::OrRR(a, b)),
        (r.clone(), r.clone()).prop_map(|(a, b)| XInsn::CmpRR(a, b)),
        (r.clone(), r.clone()).prop_map(|(a, b)| XInsn::TestRR(a, b)),
        (r.clone(), 0u8..32).prop_map(|(a, b)| XInsn::ShlImm(a, b)),
        (r.clone(), 0u8..32).prop_map(|(a, b)| XInsn::ShrImm(a, b)),
        (r.clone(), r.clone(), any::<i8>()).prop_map(|(a, b, c)| XInsn::Lea(a, b, c)),
        (r.clone(), any::<i8>()).prop_map(|(a, b)| XInsn::AddImm8(a, b)),
        (r.clone(), any::<i8>()).prop_map(|(a, b)| XInsn::SubImm8(a, b)),
        (r.clone(), any::<i8>()).prop_map(|(a, b)| XInsn::CmpImm8(a, b)),
        r.clone().prop_map(XInsn::IncR),
        r.clone().prop_map(XInsn::DecR),
        Just(XInsn::Ret),
        any::<u16>().prop_map(XInsn::RetImm16),
        Just(XInsn::Leave),
        any::<i32>().prop_map(XInsn::CallRel),
        r.clone().prop_map(XInsn::CallR),
        r.clone().prop_map(XInsn::JmpR),
        any::<i8>().prop_map(XInsn::JmpRel8),
        any::<i8>().prop_map(XInsn::Jz),
        any::<i8>().prop_map(XInsn::Jnz),
        Just(XInsn::Int80),
        Just(XInsn::Hlt),
        (r.clone(), any::<i8>(), r.clone()).prop_map(|(a, b, c)| XInsn::MovMemR(a, b, c)),
        (r.clone(), r.clone(), any::<i8>()).prop_map(|(a, b, c)| XInsn::MovRMem(a, b, c)),
        (r.clone(), any::<u32>()).prop_map(|(a, b)| XInsn::MovRAbs(a, b)),
        (1u8..8).prop_map(XInsn::XchgEax),
    ]
}

fn assemble_x86(insns: &[XInsn]) -> Vec<u8> {
    let mut a = x86::Asm::new();
    for i in insns {
        a = match *i {
            XInsn::Nop => a.nop(),
            XInsn::PushR(r0) => a.push_r(reg(r0)),
            XInsn::PopR(r0) => a.pop_r(reg(r0)),
            XInsn::PushImm(v) => a.push_imm(v),
            XInsn::MovRImm(r0, v) => a.mov_r_imm(reg(r0), v),
            XInsn::MovR8Imm(r0, v) => a.mov_r8_imm(reg(r0), v),
            XInsn::MovRR(d, s) => a.mov_rr(reg(d), reg(s)),
            XInsn::XorRR(d, s) => a.xor_rr(reg(d), reg(s)),
            XInsn::AndRR(d, s) => a.and_rr(reg(d), reg(s)),
            XInsn::OrRR(d, s) => a.or_rr(reg(d), reg(s)),
            XInsn::CmpRR(d, s) => a.cmp_rr(reg(d), reg(s)),
            XInsn::TestRR(d, s) => a.test_rr(reg(d), reg(s)),
            XInsn::ShlImm(r0, v) => a.shl_r_imm8(reg(r0), v),
            XInsn::ShrImm(r0, v) => a.shr_r_imm8(reg(r0), v),
            XInsn::Lea(d, b, disp) => a.lea(reg(d), reg(b), disp),
            XInsn::AddImm8(r0, v) => a.add_r_imm8(reg(r0), v),
            XInsn::SubImm8(r0, v) => a.sub_r_imm8(reg(r0), v),
            XInsn::CmpImm8(r0, v) => a.cmp_r_imm8(reg(r0), v),
            XInsn::IncR(r0) => a.inc_r(reg(r0)),
            XInsn::DecR(r0) => a.dec_r(reg(r0)),
            XInsn::Ret => a.ret(),
            XInsn::RetImm16(v) => a.ret_imm16(v),
            XInsn::Leave => a.leave(),
            XInsn::CallRel(v) => a.call_rel32(v),
            XInsn::CallR(r0) => a.call_r(reg(r0)),
            XInsn::JmpR(r0) => a.jmp_r(reg(r0)),
            XInsn::JmpRel8(v) => a.jmp_rel8(v),
            XInsn::Jz(v) => a.jz_rel8(v),
            XInsn::Jnz(v) => a.jnz_rel8(v),
            XInsn::Int80 => a.int80(),
            XInsn::Hlt => a.hlt(),
            XInsn::MovMemR(b, disp, s) => a.mov_mem_r(reg(b), disp, reg(s)),
            XInsn::MovRMem(d, b, disp) => a.mov_r_mem(reg(d), reg(b), disp),
            XInsn::MovRAbs(d, addr) => a.mov_r_abs(reg(d), addr),
            XInsn::XchgEax(r0) => a.xchg_eax_r(reg(r0)),
        };
    }
    a.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Assembled x86 streams decode instruction-by-instruction, consuming
    /// every byte exactly.
    #[test]
    fn x86_streams_roundtrip(insns in proptest::collection::vec(x_strategy(), 1..24)) {
        let bytes = assemble_x86(&insns);
        let mut pos = 0usize;
        let mut count = 0usize;
        while pos < bytes.len() {
            let (_, len) = x86::decode(&bytes[pos..])
                .unwrap_or_else(|e| panic!("{e} at {pos} in {bytes:02x?}"));
            prop_assert!(len > 0);
            pos += len;
            count += 1;
        }
        prop_assert_eq!(pos, bytes.len());
        prop_assert_eq!(count, insns.len());
    }

    /// x86 decode is total: arbitrary bytes either decode with an honest
    /// length or produce a typed error — never a panic, never a length
    /// beyond the input.
    #[test]
    fn x86_decode_total(bytes in proptest::collection::vec(any::<u8>(), 0..32)) {
        if let Ok((_, len)) = x86::decode(&bytes) { prop_assert!(len > 0 && len <= bytes.len()) }
    }

    /// ARM decode is total as well.
    #[test]
    fn arm_decode_total(word in any::<u32>()) {
        if let Ok((_, len)) = arm::decode(&word.to_le_bytes()) { prop_assert_eq!(len, 4) }
    }
}

/// A recipe for one A32 instruction.
#[derive(Debug, Clone)]
enum AInsn {
    MovImm(u8, u8),
    MvnImm(u8, u8),
    MovReg(u8, u8),
    AddImm(u8, u8, u8),
    SubImm(u8, u8, u8),
    OrrImm(u8, u8, u8),
    AndImm(u8, u8, u8),
    EorImm(u8, u8, u8),
    Lsl(u8, u8, u8),
    CmpImm(u8, u8),
    Ldr(u8, u8, i16),
    Str(u8, u8, i16),
    Ldrb(u8, u8, i16),
    Strb(u8, u8, i16),
    Push(u16),
    Pop(u16),
    Bx(u8),
    Blx(u8),
    B(i16),
    Bl(i16),
    Beq(i16),
    Bne(i16),
    Svc,
}

fn a_strategy() -> impl Strategy<Value = AInsn> {
    let r = 0u8..16;
    let rlo = 0u8..15; // exclude pc where it would be a branch
    let off = -1024i16..1024;
    prop_oneof![
        (rlo.clone(), any::<u8>()).prop_map(|(a, b)| AInsn::MovImm(a, b)),
        (rlo.clone(), any::<u8>()).prop_map(|(a, b)| AInsn::MvnImm(a, b)),
        (rlo.clone(), r.clone()).prop_map(|(a, b)| AInsn::MovReg(a, b)),
        (rlo.clone(), r.clone(), any::<u8>()).prop_map(|(a, b, c)| AInsn::AddImm(a, b, c)),
        (rlo.clone(), r.clone(), any::<u8>()).prop_map(|(a, b, c)| AInsn::SubImm(a, b, c)),
        (rlo.clone(), r.clone(), any::<u8>()).prop_map(|(a, b, c)| AInsn::OrrImm(a, b, c)),
        (rlo.clone(), r.clone(), any::<u8>()).prop_map(|(a, b, c)| AInsn::AndImm(a, b, c)),
        (rlo.clone(), r.clone(), any::<u8>()).prop_map(|(a, b, c)| AInsn::EorImm(a, b, c)),
        (rlo.clone(), r.clone(), 1u8..32).prop_map(|(a, b, c)| AInsn::Lsl(a, b, c)),
        (r.clone(), any::<u8>()).prop_map(|(a, b)| AInsn::CmpImm(a, b)),
        (rlo.clone(), r.clone(), off.clone()).prop_map(|(a, b, c)| AInsn::Ldr(a, b, c)),
        (rlo.clone(), r.clone(), off.clone()).prop_map(|(a, b, c)| AInsn::Str(a, b, c)),
        (rlo.clone(), r.clone(), off.clone()).prop_map(|(a, b, c)| AInsn::Ldrb(a, b, c)),
        (rlo.clone(), r.clone(), off.clone()).prop_map(|(a, b, c)| AInsn::Strb(a, b, c)),
        (1u16..0x8000).prop_map(AInsn::Push),
        (1u16..0xFFFF).prop_map(AInsn::Pop),
        r.clone().prop_map(AInsn::Bx),
        r.clone().prop_map(AInsn::Blx),
        off.clone().prop_map(AInsn::B),
        off.clone().prop_map(AInsn::Bl),
        off.clone().prop_map(AInsn::Beq),
        off.clone().prop_map(AInsn::Bne),
        Just(AInsn::Svc),
    ]
}

fn list_from(bits: u16) -> Vec<u8> {
    (0..16).filter(|i| bits & (1 << i) != 0).collect()
}

fn assemble_arm(insns: &[AInsn]) -> Vec<u8> {
    let mut a = arm::Asm::new();
    for i in insns {
        a = match *i {
            AInsn::MovImm(rd, v) => a.mov_imm(rd, v as u32),
            AInsn::MvnImm(rd, v) => a.mvn_imm(rd, v as u32),
            AInsn::MovReg(rd, rm) => a.mov_reg(rd, rm),
            AInsn::AddImm(rd, rn, v) => a.add_imm(rd, rn, v as u32),
            AInsn::SubImm(rd, rn, v) => a.sub_imm(rd, rn, v as u32),
            AInsn::OrrImm(rd, rn, v) => a.orr_imm(rd, rn, v as u32),
            AInsn::AndImm(rd, rn, v) => a.and_imm(rd, rn, v as u32),
            AInsn::EorImm(rd, rn, v) => a.eor_imm(rd, rn, v as u32),
            AInsn::Lsl(rd, rm, s) => a.lsl_imm(rd, rm, s),
            AInsn::CmpImm(rn, v) => a.cmp_imm(rn, v as u32),
            AInsn::Ldr(rd, rn, o) => a.ldr(rd, rn, o as i32),
            AInsn::Str(rd, rn, o) => a.str(rd, rn, o as i32),
            AInsn::Ldrb(rd, rn, o) => a.ldrb(rd, rn, o as i32),
            AInsn::Strb(rd, rn, o) => a.strb(rd, rn, o as i32),
            AInsn::Push(bits) => a.push(&list_from(bits)),
            AInsn::Pop(bits) => a.pop(&list_from(bits)),
            AInsn::Bx(rm) => a.bx(rm),
            AInsn::Blx(rm) => a.blx(rm),
            AInsn::B(o) => a.b(o as i32 * 4),
            AInsn::Bl(o) => a.bl(o as i32 * 4),
            AInsn::Beq(o) => a.beq(o as i32 * 4),
            AInsn::Bne(o) => a.bne(o as i32 * 4),
            AInsn::Svc => a.svc0(),
        };
    }
    a.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Assembled A32 streams decode word-by-word.
    #[test]
    fn arm_streams_roundtrip(insns in proptest::collection::vec(a_strategy(), 1..24)) {
        let bytes = assemble_arm(&insns);
        prop_assert_eq!(bytes.len(), insns.len() * 4);
        for (k, chunk) in bytes.chunks(4).enumerate() {
            arm::decode(chunk).unwrap_or_else(|e| panic!("insn {k}: {e}"));
        }
    }
}

/// Machine determinism: the same program produces bit-identical outcomes
/// and event logs on repeated runs.
#[test]
fn execution_is_deterministic() {
    let code = assemble_x86(&[
        XInsn::MovRImm(1, 5),
        XInsn::PushR(1),
        XInsn::PopR(2),
        XInsn::XorRR(0, 0),
        XInsn::MovR8Imm(0, 1),
        XInsn::Int80,
    ]);
    let run = || {
        let mut m = Machine::new(Arch::X86);
        m.mem_mut()
            .map(".text", Some(SectionKind::Text), 0x1000, 0x1000, Perms::RX);
        m.mem_mut()
            .map("stack", Some(SectionKind::Stack), 0x8000, 0x1000, Perms::RW);
        m.mem_mut().poke(0x1000, &code).unwrap();
        m.regs_mut().set_pc(0x1000);
        m.regs_mut().set_sp(0x8800);
        let out = m.run(100);
        (out, m.events().to_vec())
    };
    assert_eq!(run(), run());
}

/// A recipe for one RV32IC instruction: base words and compressed
/// parcels, each of which the decoder expands to an RV32I [`RvInsn`].
#[derive(Debug, Clone)]
enum RInsn {
    Lui(u8, u32),
    Auipc(u8, u32),
    Jal(u8, i32),
    Jalr(u8, u8, i32),
    Beq(u8, u8, i32),
    Bne(u8, u8, i32),
    Lw(u8, u8, i32),
    Lbu(u8, u8, i32),
    Sw(u8, u8, i32),
    Sb(u8, u8, i32),
    Addi(u8, u8, i32),
    Andi(u8, u8, i32),
    Ori(u8, u8, i32),
    Xori(u8, u8, i32),
    Slli(u8, u8, u8),
    Srli(u8, u8, u8),
    Add(u8, u8, u8),
    Sub(u8, u8, u8),
    Ecall,
    Ebreak,
    CNop,
    CAddi(u8, i32),
    CLi(u8, i32),
    CLui(u8, i32),
    CAddi16sp(i32),
    CAddi4spn(u8, i32),
    CMv(u8, u8),
    CAdd(u8, u8),
    CJr(u8),
    CJalr(u8),
    CEbreak,
    CJ(i32),
    CBeqz(u8, i32),
    CBnez(u8, i32),
    CSlli(u8, u8),
    CLwsp(u8, i32),
    CSwsp(u8, i32),
    CLw(u8, u8, i32),
    CSw(u8, u8, i32),
}

fn r_strategy() -> impl Strategy<Value = RInsn> {
    let r = 0u8..32;
    let nz = 1u8..32; // registers the compressed form cannot name as x0
    let cr = 8u8..16; // the x8–x15 window of the 3-bit register fields
    let imm12 = -2048i32..2048;
    let imm6 = -32i32..32;
    let upper = 0u32..0x10_0000;
    prop_oneof![
        (r.clone(), upper.clone()).prop_map(|(a, b)| RInsn::Lui(a, b)),
        (r.clone(), upper).prop_map(|(a, b)| RInsn::Auipc(a, b)),
        (r.clone(), -1024i32..1024).prop_map(|(a, b)| RInsn::Jal(a, b * 2)),
        (r.clone(), r.clone(), imm12.clone()).prop_map(|(a, b, c)| RInsn::Jalr(a, b, c)),
        (r.clone(), r.clone(), -2048i32..2048).prop_map(|(a, b, c)| RInsn::Beq(a, b, c * 2)),
        (r.clone(), r.clone(), -2048i32..2048).prop_map(|(a, b, c)| RInsn::Bne(a, b, c * 2)),
        (r.clone(), r.clone(), imm12.clone()).prop_map(|(a, b, c)| RInsn::Lw(a, b, c)),
        (r.clone(), r.clone(), imm12.clone()).prop_map(|(a, b, c)| RInsn::Lbu(a, b, c)),
        (r.clone(), r.clone(), imm12.clone()).prop_map(|(a, b, c)| RInsn::Sw(a, b, c)),
        (r.clone(), r.clone(), imm12.clone()).prop_map(|(a, b, c)| RInsn::Sb(a, b, c)),
        (r.clone(), r.clone(), imm12.clone()).prop_map(|(a, b, c)| RInsn::Addi(a, b, c)),
        (r.clone(), r.clone(), imm12.clone()).prop_map(|(a, b, c)| RInsn::Andi(a, b, c)),
        (r.clone(), r.clone(), imm12.clone()).prop_map(|(a, b, c)| RInsn::Ori(a, b, c)),
        (r.clone(), r.clone(), imm12).prop_map(|(a, b, c)| RInsn::Xori(a, b, c)),
        (r.clone(), r.clone(), 0u8..32).prop_map(|(a, b, c)| RInsn::Slli(a, b, c)),
        (r.clone(), r.clone(), 0u8..32).prop_map(|(a, b, c)| RInsn::Srli(a, b, c)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(a, b, c)| RInsn::Add(a, b, c)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(a, b, c)| RInsn::Sub(a, b, c)),
        Just(RInsn::Ecall),
        Just(RInsn::Ebreak),
        Just(RInsn::CNop),
        (r.clone(), imm6.clone()).prop_map(|(a, b)| RInsn::CAddi(a, b)),
        (r.clone(), imm6.clone()).prop_map(|(a, b)| RInsn::CLi(a, b)),
        (3u8..32, imm6).prop_map(|(a, b)| RInsn::CLui(a, if b == 0 { 1 } else { b })),
        (-32i32..31).prop_map(|k| RInsn::CAddi16sp(if k >= 0 { k + 1 } else { k } * 16)),
        (cr.clone(), 1i32..256).prop_map(|(a, k)| RInsn::CAddi4spn(a, k * 4)),
        (nz.clone(), nz.clone()).prop_map(|(a, b)| RInsn::CMv(a, b)),
        (nz.clone(), nz.clone()).prop_map(|(a, b)| RInsn::CAdd(a, b)),
        nz.clone().prop_map(RInsn::CJr),
        nz.clone().prop_map(RInsn::CJalr),
        Just(RInsn::CEbreak),
        (-1024i32..1024).prop_map(|k| RInsn::CJ(k * 2)),
        (cr.clone(), -128i32..128).prop_map(|(a, k)| RInsn::CBeqz(a, k * 2)),
        (cr.clone(), -128i32..128).prop_map(|(a, k)| RInsn::CBnez(a, k * 2)),
        (r.clone(), 0u8..32).prop_map(|(a, b)| RInsn::CSlli(a, b)),
        (nz, 0i32..64).prop_map(|(a, k)| RInsn::CLwsp(a, k * 4)),
        (r, 0i32..64).prop_map(|(a, k)| RInsn::CSwsp(a, k * 4)),
        (cr.clone(), cr.clone(), 0i32..32).prop_map(|(a, b, k)| RInsn::CLw(a, b, k * 4)),
        (cr.clone(), cr, 0i32..32).prop_map(|(a, b, k)| RInsn::CSw(a, b, k * 4)),
    ]
}

fn assemble_riscv(insns: &[RInsn]) -> Vec<u8> {
    let mut a = riscv::Asm::new();
    for i in insns {
        a = match *i {
            RInsn::Lui(rd, up) => a.lui(rd, up << 12),
            RInsn::Auipc(rd, up) => a.auipc(rd, up << 12),
            RInsn::Jal(rd, o) => a.jal(rd, o),
            RInsn::Jalr(rd, rs1, o) => a.jalr(rd, rs1, o),
            RInsn::Beq(rs1, rs2, o) => a.beq(rs1, rs2, o),
            RInsn::Bne(rs1, rs2, o) => a.bne(rs1, rs2, o),
            RInsn::Lw(rd, rs1, o) => a.lw(rd, rs1, o),
            RInsn::Lbu(rd, rs1, o) => a.lbu(rd, rs1, o),
            RInsn::Sw(rs2, rs1, o) => a.sw(rs2, rs1, o),
            RInsn::Sb(rs2, rs1, o) => a.sb(rs2, rs1, o),
            RInsn::Addi(rd, rs1, v) => a.addi(rd, rs1, v),
            RInsn::Andi(rd, rs1, v) => a.andi(rd, rs1, v),
            RInsn::Ori(rd, rs1, v) => a.ori(rd, rs1, v),
            RInsn::Xori(rd, rs1, v) => a.xori(rd, rs1, v),
            RInsn::Slli(rd, rs1, sh) => a.slli(rd, rs1, sh),
            RInsn::Srli(rd, rs1, sh) => a.srli(rd, rs1, sh),
            RInsn::Add(rd, rs1, rs2) => a.add(rd, rs1, rs2),
            RInsn::Sub(rd, rs1, rs2) => a.sub(rd, rs1, rs2),
            RInsn::Ecall => a.ecall(),
            RInsn::Ebreak => a.ebreak(),
            RInsn::CNop => a.c_nop(),
            RInsn::CAddi(rd, v) => a.c_addi(rd, v),
            RInsn::CLi(rd, v) => a.c_li(rd, v),
            RInsn::CLui(rd, hi) => a.c_lui(rd, (hi << 12) as u32),
            RInsn::CAddi16sp(v) => a.c_addi16sp(v),
            RInsn::CAddi4spn(rd, v) => a.c_addi4spn(rd, v),
            RInsn::CMv(rd, rs2) => a.c_mv(rd, rs2),
            RInsn::CAdd(rd, rs2) => a.c_add(rd, rs2),
            RInsn::CJr(rs1) => a.c_jr(rs1),
            RInsn::CJalr(rs1) => a.c_jalr(rs1),
            RInsn::CEbreak => a.c_ebreak(),
            RInsn::CJ(o) => a.c_j(o),
            RInsn::CBeqz(rs1, o) => a.c_beqz(rs1, o),
            RInsn::CBnez(rs1, o) => a.c_bnez(rs1, o),
            RInsn::CSlli(rd, sh) => a.c_slli(rd, sh),
            RInsn::CLwsp(rd, o) => a.c_lwsp(rd, o),
            RInsn::CSwsp(rs2, o) => a.c_swsp(rs2, o),
            RInsn::CLw(rd, rs1, o) => a.c_lw(rd, rs1, o),
            RInsn::CSw(rs2, rs1, o) => a.c_sw(rs2, rs1, o),
        };
    }
    a.finish()
}

/// What the decoder must produce for a recipe: the RV32I form (RVC
/// parcels expanded) and the encoded length.
fn expand_riscv(insn: &RInsn) -> (RvInsn, usize) {
    use RvInsn as I;
    match *insn {
        RInsn::Lui(rd, up) => (I::Lui { rd, imm: up << 12 }, 4),
        RInsn::Auipc(rd, up) => (I::Auipc { rd, imm: up << 12 }, 4),
        RInsn::Jal(rd, offset) => (I::Jal { rd, offset }, 4),
        RInsn::Jalr(rd, rs1, offset) => (I::Jalr { rd, rs1, offset }, 4),
        RInsn::Beq(rs1, rs2, offset) => (I::Beq { rs1, rs2, offset }, 4),
        RInsn::Bne(rs1, rs2, offset) => (I::Bne { rs1, rs2, offset }, 4),
        RInsn::Lw(rd, rs1, offset) => (I::Lw { rd, rs1, offset }, 4),
        RInsn::Lbu(rd, rs1, offset) => (I::Lbu { rd, rs1, offset }, 4),
        RInsn::Sw(rs2, rs1, offset) => (I::Sw { rs2, rs1, offset }, 4),
        RInsn::Sb(rs2, rs1, offset) => (I::Sb { rs2, rs1, offset }, 4),
        RInsn::Addi(rd, rs1, imm) => (I::Addi { rd, rs1, imm }, 4),
        RInsn::Andi(rd, rs1, imm) => (I::Andi { rd, rs1, imm }, 4),
        RInsn::Ori(rd, rs1, imm) => (I::Ori { rd, rs1, imm }, 4),
        RInsn::Xori(rd, rs1, imm) => (I::Xori { rd, rs1, imm }, 4),
        RInsn::Slli(rd, rs1, shamt) => (I::Slli { rd, rs1, shamt }, 4),
        RInsn::Srli(rd, rs1, shamt) => (I::Srli { rd, rs1, shamt }, 4),
        RInsn::Add(rd, rs1, rs2) => (I::Add { rd, rs1, rs2 }, 4),
        RInsn::Sub(rd, rs1, rs2) => (I::Sub { rd, rs1, rs2 }, 4),
        RInsn::Ecall => (I::Ecall, 4),
        RInsn::Ebreak => (I::Ebreak, 4),
        RInsn::CNop => (
            I::Addi {
                rd: 0,
                rs1: 0,
                imm: 0,
            },
            2,
        ),
        RInsn::CAddi(rd, imm) => (I::Addi { rd, rs1: rd, imm }, 2),
        RInsn::CLi(rd, imm) => (I::Addi { rd, rs1: 0, imm }, 2),
        RInsn::CLui(rd, hi) => (
            I::Lui {
                rd,
                imm: (hi << 12) as u32,
            },
            2,
        ),
        RInsn::CAddi16sp(imm) => (I::Addi { rd: 2, rs1: 2, imm }, 2),
        RInsn::CAddi4spn(rd, imm) => (I::Addi { rd, rs1: 2, imm }, 2),
        RInsn::CMv(rd, rs2) => (I::Add { rd, rs1: 0, rs2 }, 2),
        RInsn::CAdd(rd, rs2) => (I::Add { rd, rs1: rd, rs2 }, 2),
        RInsn::CJr(rs1) => (
            I::Jalr {
                rd: 0,
                rs1,
                offset: 0,
            },
            2,
        ),
        RInsn::CJalr(rs1) => (
            I::Jalr {
                rd: 1,
                rs1,
                offset: 0,
            },
            2,
        ),
        RInsn::CEbreak => (I::Ebreak, 2),
        RInsn::CJ(offset) => (I::Jal { rd: 0, offset }, 2),
        RInsn::CBeqz(rs1, offset) => (
            I::Beq {
                rs1,
                rs2: 0,
                offset,
            },
            2,
        ),
        RInsn::CBnez(rs1, offset) => (
            I::Bne {
                rs1,
                rs2: 0,
                offset,
            },
            2,
        ),
        RInsn::CSlli(rd, shamt) => (I::Slli { rd, rs1: rd, shamt }, 2),
        RInsn::CLwsp(rd, offset) => (I::Lw { rd, rs1: 2, offset }, 2),
        RInsn::CSwsp(rs2, offset) => (
            I::Sw {
                rs2,
                rs1: 2,
                offset,
            },
            2,
        ),
        RInsn::CLw(rd, rs1, offset) => (I::Lw { rd, rs1, offset }, 2),
        RInsn::CSw(rs2, rs1, offset) => (I::Sw { rs2, rs1, offset }, 2),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Assembled RV32IC streams decode parcel by parcel to exactly the
    /// RV32I forms the recipes name, with 2-byte compressed and 4-byte
    /// base strides interleaved.
    #[test]
    fn riscv_streams_roundtrip(insns in proptest::collection::vec(r_strategy(), 1..24)) {
        let bytes = assemble_riscv(&insns);
        let mut pos = 0usize;
        for (k, recipe) in insns.iter().enumerate() {
            let got = riscv::decode(&bytes[pos..])
                .unwrap_or_else(|e| panic!("insn {k} ({recipe:?}): {e}"));
            prop_assert_eq!(got, expand_riscv(recipe), "insn {} at {}", k, pos);
            pos += got.1;
        }
        prop_assert_eq!(pos, bytes.len());
    }

    /// RISC-V decode is total: any bytes either decode with an honest
    /// 2- or 4-byte length or produce a typed error.
    #[test]
    fn riscv_decode_total(bytes in proptest::collection::vec(any::<u8>(), 0..8)) {
        if let Ok((_, len)) = riscv::decode(&bytes) {
            prop_assert!((len == 2 || len == 4) && len <= bytes.len());
        }
    }
}

/// Base of the mapped program text in the differential runs.
const TEXT: u32 = 0x1000;

/// Register values biased toward addresses that matter: the stack
/// window (loads and stores that succeed, weighted so runs get past
/// their first memory access), the program's own text (self-modifying
/// stores when the text is writable), small counts, and anything at all.
fn reg_value() -> impl Strategy<Value = u32> {
    prop_oneof![
        0x8100u32..0x8F00,
        0x8100u32..0x8F00,
        0x8100u32..0x8F00,
        TEXT..TEXT + 0x40,
        0u32..64,
        any::<u32>(),
    ]
}

/// Everything one run can observe: outcome, events, instruction count,
/// registers and pc.
type Observed = (RunOutcome, Vec<Event>, u64, Regs, u32);

/// Boots `code` at [`TEXT`] with a stack at 0x8000, seeds the general
/// registers from `seeds`, and runs `budget` steps on the path `ir_on`
/// selects.
fn run_path(
    arch: Arch,
    code: &[u8],
    seeds: &[u32],
    wx: bool,
    budget: u64,
    ir_on: bool,
) -> Observed {
    let mut m = Machine::new(arch);
    let text_perms = if wx { Perms::RX } else { Perms::RWX };
    m.mem_mut()
        .map(".text", Some(SectionKind::Text), TEXT, 0x1000, text_perms);
    m.mem_mut()
        .map("stack", Some(SectionKind::Stack), 0x8000, 0x1000, Perms::RW);
    m.mem_mut().poke(TEXT, code).unwrap();
    m.regs_mut().set_pc(TEXT);
    m.regs_mut().set_sp(0x8800);
    let regs = m.regs_mut();
    match arch {
        Arch::X86 => {
            for i in (0..8u8).filter(|&i| i != X86Reg::Esp.bits()) {
                regs.x86_mut().set(X86Reg::from_bits(i), seeds[i as usize]);
            }
        }
        Arch::Armv7 => {
            for i in (0..15u8).filter(|&i| i != 13) {
                regs.arm_mut().set(ArmReg(i), seeds[i as usize]);
            }
        }
        Arch::Riscv => {
            for i in (1..32u8).filter(|&i| i != 2) {
                regs.riscv_mut().set(RiscvReg(i), seeds[i as usize]);
            }
        }
    }
    m.set_ir_dispatch_enabled(ir_on);
    let out = m.run(budget);
    (
        out,
        m.events().to_vec(),
        m.insn_count(),
        *m.regs(),
        m.regs().pc(),
    )
}

/// Budgets swept exhaustively by [`assert_paths_agree`].
const SWEPT_BUDGETS: u64 = 48;

/// Expands `(recipe, repeat)` pairs so streams contain runs of
/// identical instructions — the shape IR lowering folds into one op.
fn with_runs<T: Clone>(runs: Vec<(T, usize)>) -> Vec<T> {
    runs.into_iter()
        .flat_map(|(insn, n)| std::iter::repeat_n(insn, n))
        .collect()
}

/// IR dispatch must be invisible: for a budget large enough to reach a
/// terminal state, for every budget that expires within the first
/// [`SWEPT_BUDGETS`] steps (inside lowered blocks, folded runs and fused
/// compare-and-branch ops), and for the random `budget`, both paths
/// observe the same thing.
fn assert_paths_agree(arch: Arch, code: &[u8], seeds: &[u32], wx: bool, budget: u64) {
    const FULL: u64 = 20_000;
    let steps = run_path(arch, code, seeds, wx, FULL, false).2;
    for budget in (1..=steps.min(SWEPT_BUDGETS)).chain([budget, FULL]) {
        let reference = run_path(arch, code, seeds, wx, budget, false);
        let ir = run_path(arch, code, seeds, wx, budget, true);
        assert_eq!(
            ir, reference,
            "{arch} budget={budget} wx={wx} seeds={seeds:x?}\ncode={code:02x?}"
        );
    }
}

/// Assembles a differential program: `head`, then — when `plant` is
/// `Some(frac)` — a sequence from `store` that writes a register into
/// the program's own text `frac/256` of the way through it, then
/// `tail`, then — when `close` is given — a loop back to the first
/// instruction. `store` gets its own address and the target; `close`
/// gets the length so far. Both emit fixed-size encodings, so a first
/// pass fixes the program length the target is taken from.
fn program(
    head: &[u8],
    tail: &[u8],
    plant: Option<u8>,
    store: impl Fn(u32, u32) -> Vec<u8>,
    close: Option<&dyn Fn(u32) -> Vec<u8>>,
) -> Vec<u8> {
    let build = |target: u32| {
        let mut code = head.to_vec();
        if plant.is_some() {
            code.extend(store(TEXT + code.len() as u32, target));
        }
        code.extend_from_slice(tail);
        if let Some(close) = close {
            code.extend(close(code.len() as u32));
        }
        code
    };
    let len = build(TEXT).len() as u32;
    build(TEXT + len * u32::from(plant.unwrap_or(0)) / 256)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// x86 streams — with runs of repeated instructions, optionally a
    /// store into their own text (self-modifying code), optionally
    /// closed into a `dec ecx; jnz` loop back to the first instruction
    /// (the fused `DecBr` shape).
    #[test]
    fn x86_ir_matches_per_insn(
        runs in proptest::collection::vec((x_strategy(), 1usize..4), 1..7),
        shape in (any::<bool>(), any::<bool>(), any::<u8>(), any::<usize>()),
        seeds in proptest::collection::vec(reg_value(), 32),
        wx in any::<bool>(),
        budget in 1u64..400,
    ) {
        let (looped, smc, frac, cut) = shape;
        let mut insns = with_runs(runs);
        if looped {
            // A straight-line body, so the loop actually iterates.
            insns.retain(|i| {
                !matches!(
                    i,
                    XInsn::Ret
                        | XInsn::RetImm16(_)
                        | XInsn::CallRel(_)
                        | XInsn::CallR(_)
                        | XInsn::JmpR(_)
                        | XInsn::JmpRel8(_)
                        | XInsn::Jz(_)
                        | XInsn::Jnz(_)
                        | XInsn::Int80
                        | XInsn::Hlt
                )
            });
        }
        let (head, tail) = insns.split_at(cut % (insns.len() + 1));
        let store = |_at: u32, target: u32| {
            x86::Asm::new()
                .mov_r_imm(X86Reg::Edi, target)
                .mov_mem_r(X86Reg::Edi, 0, X86Reg::Eax)
                .finish()
        };
        // At most 18 recipes of at most 6 bytes plus the 8-byte store:
        // the branch back fits rel8.
        let close = |len: u32| {
            let back = i8::try_from(-(len as i32 + 3)).unwrap();
            x86::Asm::new().dec_r(X86Reg::Ecx).jnz_rel8(back).finish()
        };
        let code = program(
            &assemble_x86(head),
            &assemble_x86(tail),
            smc.then_some(frac),
            store,
            looped.then_some(&close as &dyn Fn(u32) -> Vec<u8>),
        );
        assert_paths_agree(Arch::X86, &code, &seeds, wx, budget);
    }

    /// The same for ARM streams; the loop is `sub; cmp; bne` (the fused
    /// `CmpBr` shape).
    #[test]
    fn arm_ir_matches_per_insn(
        runs in proptest::collection::vec((a_strategy(), 1usize..4), 1..7),
        shape in (any::<bool>(), any::<bool>(), any::<u8>(), any::<usize>()),
        seeds in proptest::collection::vec(reg_value(), 32),
        wx in any::<bool>(),
        budget in 1u64..400,
    ) {
        let (looped, smc, frac, cut) = shape;
        let mut insns = with_runs(runs);
        if looped {
            insns.retain(|i| {
                !matches!(
                    i,
                    AInsn::Bx(_)
                        | AInsn::Blx(_)
                        | AInsn::B(_)
                        | AInsn::Bl(_)
                        | AInsn::Beq(_)
                        | AInsn::Bne(_)
                        | AInsn::Svc
                ) && !matches!(i, AInsn::Pop(bits) if bits & 0x8000 != 0)
            });
        }
        let (head, tail) = insns.split_at(cut % (insns.len() + 1));
        // Reading pc yields the instruction's address + 8.
        let store = |at: u32, target: u32| {
            let offset = target as i32 - (at as i32 + 8);
            arm::Asm::new().mov_reg(11, 15).str(0, 11, offset).finish()
        };
        // `bne` sits 8 bytes in; its target is pc + 8 + offset.
        let close = |len: u32| {
            let back = -(len as i32 + 8 + 8);
            arm::Asm::new()
                .sub_imm(12, 12, 1)
                .cmp_imm(12, 0)
                .bne(back)
                .finish()
        };
        let code = program(
            &assemble_arm(head),
            &assemble_arm(tail),
            smc.then_some(frac),
            store,
            looped.then_some(&close as &dyn Fn(u32) -> Vec<u8>),
        );
        assert_paths_agree(Arch::Armv7, &code, &seeds, wx, budget);
    }

    /// The same for RV32IC streams mixing base and compressed forms; the
    /// loop is `addi; bne`.
    #[test]
    fn riscv_ir_matches_per_insn(
        runs in proptest::collection::vec((r_strategy(), 1usize..4), 1..7),
        shape in (any::<bool>(), any::<bool>(), any::<u8>(), any::<usize>()),
        seeds in proptest::collection::vec(reg_value(), 32),
        wx in any::<bool>(),
        budget in 1u64..400,
    ) {
        let (looped, smc, frac, cut) = shape;
        let mut insns = with_runs(runs);
        if looped {
            insns.retain(|i| {
                !matches!(
                    i,
                    RInsn::Jal(..)
                        | RInsn::Jalr(..)
                        | RInsn::Beq(..)
                        | RInsn::Bne(..)
                        | RInsn::Ecall
                        | RInsn::Ebreak
                        | RInsn::CJr(_)
                        | RInsn::CJalr(_)
                        | RInsn::CEbreak
                        | RInsn::CJ(_)
                        | RInsn::CBeqz(..)
                        | RInsn::CBnez(..)
                )
            });
        }
        let (head, tail) = insns.split_at(cut % (insns.len() + 1));
        let store = |at: u32, target: u32| {
            let offset = target as i32 - at as i32;
            riscv::Asm::new().auipc(30, 0).sw(10, 30, offset).finish()
        };
        // Branch offsets are relative to the branch itself.
        let close = |len: u32| {
            let back = -(len as i32 + 4);
            riscv::Asm::new().addi(31, 31, -1).bne(31, 0, back).finish()
        };
        let code = program(
            &assemble_riscv(head),
            &assemble_riscv(tail),
            smc.then_some(frac),
            store,
            looped.then_some(&close as &dyn Fn(u32) -> Vec<u8>),
        );
        assert_paths_agree(Arch::Riscv, &code, &seeds, wx, budget);
    }
}

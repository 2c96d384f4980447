//! Assembly of the simulated `connmand` binary image.
//!
//! The image is deterministic per architecture (firmware binaries do not
//! change between boots — only ASLR moves things, and that happens in
//! the loader). Program text mixes filler "functions" with the gadget
//! material the paper's exploits harvest with `ropper`/`ROPgadget`.

use cml_connman::{
    SYM_DAEMON_INIT, SYM_DAEMON_LOOP, SYM_FORWARD_DNS_REPLY, SYM_PARSE_RESPONSE, SYM_UNCOMPRESS,
};
use cml_image::{layout, Addr, Arch, Image, ImageBuilder, SectionKind, SymbolKind};
use cml_vm::{arm, riscv, x86, X86Reg};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ground-truth addresses of the deliberately planted gadgets.
///
/// Tests use these to validate the gadget *finder*; exploit strategies
/// never read them — they locate gadgets by scanning the image bytes,
/// as the paper does.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GadgetAddrs {
    /// x86 `ret`.
    pub ret: Option<Addr>,
    /// x86 `pop ebx; pop esi; pop edi; ret`.
    pub pppr: Option<Addr>,
    /// x86 `pop ebx; pop esi; pop edi; pop ebp; ret` — the paper's
    /// argument-cleanup gadget for the memcpy chain.
    pub ppppr: Option<Addr>,
    /// x86 `pop ebp; ret`.
    pub pop_ebp_ret: Option<Addr>,
    /// x86 `add esp, 0xC; pop ebp; ret` (a memcpy-style epilogue).
    pub add_esp_pop_ret: Option<Addr>,
    /// ARM `pop {r0,r1,r2,r3,r5,r6,r7,pc}` — Listing 2's register loader.
    pub pop_r0_r7_pc: Option<Addr>,
    /// ARM `blx r3; add sp, sp, #4; pop {pc}` — the chain trampoline
    /// (Listing 5: the NULL word after `pc` is the "offset for blx").
    pub blx_r3_tramp: Option<Addr>,
    /// ARM `pop {r4, pc}`.
    pub pop_r4_pc: Option<Addr>,
    /// ARM `pop {r4-r11, pc}` (also `parse_response`'s real epilogue).
    pub pop_r4_r11_pc: Option<Addr>,
    /// RISC-V `lw a0/a1/a2/a3/ra, …(sp); addi sp, sp, 20; ret` — the
    /// register loader the rv32 chains enter through.
    pub lw_args_ret: Option<Addr>,
    /// RISC-V `c.jalr a3; lw ra, 0(sp); addi sp, sp, 4; ret` — the
    /// call-and-resume trampoline (the `blx r3` analogue).
    pub jalr_a3_tramp: Option<Addr>,
    /// RISC-V bare compressed `ret` (`c.jr ra`, parcel `0x8082`).
    pub rvc_ret: Option<Addr>,
    /// RISC-V `ret` parcel hidden *inside* a 4-byte `lui` — reachable
    /// only by 2-byte-granular scanning (the RVC misaligned surface).
    pub misaligned_ret: Option<Addr>,
}

/// libc link-time offsets (stable across the simulated distro).
mod libc_off {
    pub const SYSTEM: u32 = 0x3a940;
    pub const EXIT: u32 = 0x2e7b0;
    pub const MEMCPY: u32 = 0x74c00;
    pub const EXECVE: u32 = 0x726d0;
    pub const EXECLP: u32 = 0x72810;
    pub const STACK_CHK_FAIL: u32 = 0x84000;
    /// "/bin/sh" literal — the paper's ARM W⊕X exploit loads this
    /// address (`0x76d853e4` on their Pi; ours differs by libc build).
    pub const STR_BIN_SH: u32 = 0x853e4;
}

/// Strings placed in `.rodata`. Deliberately chosen so every character
/// of `/bin/sh` occurs *somewhere* (the `-memstr` harvest) without the
/// full string appearing in the program image.
const RODATA_STRINGS: &[&str] = &[
    "connmand starting",
    "dnsproxy: bad response",
    "wifi station joined network",
    "bound to interface",
    "/usr/lib/plugins",
    "hotplug event",
    "tethering disabled",
];

/// Builds the simulated Connman image for `arch`, returning the image
/// and the planted-gadget ground truth.
pub fn build_image(arch: Arch) -> (Image, GadgetAddrs) {
    build_image_variant(arch, 0)
}

/// Builds a *variant* of the firmware image: same symbols and layout
/// bases, different filler code and gadget placement — modelling a
/// different build of the same software (paper §V: the approach ports
/// with "minimal modification" because reconnaissance re-discovers all
/// addresses).
pub fn build_image_variant(arch: Arch, variant: u64) -> (Image, GadgetAddrs) {
    build_image_for(arch, variant, false)
}

/// Builds a firmware image variant with an explicit `parse_response`
/// body flavour.
///
/// When `bounds_checked` is `false` the emitted copy loop reproduces the
/// CVE-2017-12865 defect: packet bytes stream into a fixed-size stack
/// buffer and the only loop exit tests the (attacker-controlled) data
/// itself. When `true` the loop additionally compares an untainted
/// counter against the buffer capacity (`0x400`) before every store —
/// the Connman 1.35 fix. The bodies are what `cml-analyze`'s CFG/taint
/// passes inspect; the daemon models the parse natively either way.
pub fn build_image_for(arch: Arch, variant: u64, bounds_checked: bool) -> (Image, GadgetAddrs) {
    let l = layout::layout_for(arch);
    let mut b = ImageBuilder::new(arch);
    b.section_default(SectionKind::Text, l.text_base, 0x8000);
    b.section_default(SectionKind::Plt, l.plt_base, 0x200);
    b.section_default(SectionKind::Got, l.got_base, 0x100);
    b.section_default(SectionKind::Rodata, l.rodata_base, 0x1000);
    b.section_default(SectionKind::Data, l.data_base, 0x1000);
    b.section_default(SectionKind::Bss, l.bss_base, 0x2000);
    b.section_default(SectionKind::Heap, l.heap_base, 0x4000);
    b.section_default(SectionKind::Libc, l.libc_base, 0xA0000);
    b.section_default(SectionKind::Stack, l.stack_top - l.stack_size, l.stack_size);

    let mut gadgets = GadgetAddrs::default();
    match arch {
        Arch::X86 => build_x86_text(&mut b, &mut gadgets, variant, bounds_checked),
        Arch::Armv7 => build_arm_text(&mut b, &mut gadgets, variant, bounds_checked),
        Arch::Riscv => build_riscv_text(&mut b, &mut gadgets, variant, bounds_checked),
    }
    build_plt_got(&mut b, arch, l.got_base, l.libc_base);
    build_rodata(&mut b);
    build_libc(&mut b, arch, l.libc_base);
    b.symbol("__bss_start", l.bss_base, 0, SymbolKind::Marker);

    (
        b.build()
            .expect("firmware layout is disjoint and symbol-complete"),
        gadgets,
    )
}

fn build_x86_text(b: &mut ImageBuilder, g: &mut GadgetAddrs, variant: u64, bounds_checked: bool) {
    let mut rng = StdRng::seed_from_u64(0xC0FF_EE00 ^ variant.wrapping_mul(0x9E37_79B9));
    let shift = (variant % 5) as usize;
    // _start-ish preamble.
    b.append_code(SectionKind::Text, &x86::Asm::new().nop().nop().finish());

    // daemon_loop: an idle loop the legitimate return lands in.
    let loop_addr = b.append_code(
        SectionKind::Text,
        &x86::Asm::new().nop().nop().jmp_rel8(-4).finish(),
    );
    b.symbol(SYM_DAEMON_LOOP, loop_addr, 4, SymbolKind::Function);

    // daemon_init: one-time boot work (config parse, plugin scan, …)
    // modelled as a pure-register countdown. Runs once per boot; the
    // snapshot/fork path executes it exactly once per firmware profile.
    let init = x86::Asm::new()
        .mov_r_imm(X86Reg::Ecx, 1536)
        .dec_r(X86Reg::Ecx) // loop:
        .jnz_rel8(-3) // -> loop
        .ret()
        .finish();
    let init_size = init.len() as u32;
    let init_addr = b.append_code(SectionKind::Text, &init);
    b.symbol(SYM_DAEMON_INIT, init_addr, init_size, SymbolKind::Function);

    // parse_response: prologue/epilogue around a `get_name`-style copy
    // loop. The daemon models the parse natively (cml-connman); these
    // bytes exist so static analysis sees the same defect the paper
    // exploits — esi walks the packet, edi walks the 1024-byte name
    // buffer at the bottom of a 0x40C-byte frame (8 locals + canary
    // slot above it, so buf→saved-ret is the real 1040 bytes). The
    // store sits *before* the terminator test (strcpy shape), so the
    // static write count for an N-byte name is N+1 — byte-identical to
    // the daemon's model — and the vulnerable flavour's only loop exit
    // tests packet data.
    let body = if bounds_checked {
        // 1.35: `xor ecx,ecx; mov edx,0x400` seeds an untainted counter
        // checked against the capacity before every store.
        x86::Asm::new()
            .push_r(X86Reg::Ebp)
            .mov_rr(X86Reg::Ebp, X86Reg::Esp)
            .sub_r_imm32(X86Reg::Esp, 0x40C)
            .mov_r_mem(X86Reg::Esi, X86Reg::Ebp, 8)
            .lea_disp32(X86Reg::Edi, X86Reg::Ebp, -0x40C)
            .xor_rr(X86Reg::Ecx, X86Reg::Ecx)
            .mov_r_imm(X86Reg::Edx, 0x400)
            .mov_r_mem(X86Reg::Eax, X86Reg::Esi, 0) // loop:
            .cmp_rr(X86Reg::Ecx, X86Reg::Edx)
            .jz_rel8(10) // -> done (capacity reached)
            .mov_mem_r(X86Reg::Edi, 0, X86Reg::Eax)
            .inc_r(X86Reg::Esi)
            .inc_r(X86Reg::Edi)
            .inc_r(X86Reg::Ecx)
            .test_rr(X86Reg::Eax, X86Reg::Eax)
            .jnz_rel8(-17) // -> loop
            .leave() // done:
            .ret()
            .finish()
    } else {
        x86::Asm::new()
            .push_r(X86Reg::Ebp)
            .mov_rr(X86Reg::Ebp, X86Reg::Esp)
            .sub_r_imm32(X86Reg::Esp, 0x40C)
            .mov_r_mem(X86Reg::Esi, X86Reg::Ebp, 8)
            .lea_disp32(X86Reg::Edi, X86Reg::Ebp, -0x40C)
            .mov_r_mem(X86Reg::Eax, X86Reg::Esi, 0) // loop:
            .mov_mem_r(X86Reg::Edi, 0, X86Reg::Eax)
            .inc_r(X86Reg::Esi)
            .inc_r(X86Reg::Edi)
            .test_rr(X86Reg::Eax, X86Reg::Eax)
            .jnz_rel8(-12) // -> loop
            .leave() // done:
            .ret()
            .finish()
    };
    let size = body.len() as u32;
    let parse_addr = b.append_code(SectionKind::Text, &body);
    b.symbol(SYM_PARSE_RESPONSE, parse_addr, size, SymbolKind::Function);

    // The real CVE-2017-12865 call path, forward_dns_reply → uncompress
    // → parse_response, planted as *static* material: nothing branches
    // here at run time (the daemon parses natively), but the analyzer's
    // call graph and interprocedural taint propagation walk exactly
    // this chain — attacker bytes enter at forward_dns_reply and reach
    // the copy loop two calls down. Each hop loads its pointer argument
    // and pushes it for the callee; uncompress returns a constant
    // status, which call summaries propagate to its caller.
    let unc_pre = x86::Asm::new()
        .push_r(X86Reg::Ebp)
        .mov_rr(X86Reg::Ebp, X86Reg::Esp)
        .mov_r_mem(X86Reg::Eax, X86Reg::Ebp, 8)
        .push_r(X86Reg::Eax)
        .finish();
    let unc_addr = b.append_code(SectionKind::Text, &unc_pre);
    let call_end = unc_addr + unc_pre.len() as u32 + 5;
    let unc_rest = x86::Asm::new()
        .call_rel32(parse_addr.wrapping_sub(call_end) as i32)
        .add_r_imm8(X86Reg::Esp, 4)
        .xor_rr(X86Reg::Eax, X86Reg::Eax)
        .leave()
        .ret()
        .finish();
    b.append_code(SectionKind::Text, &unc_rest);
    b.symbol(
        SYM_UNCOMPRESS,
        unc_addr,
        (unc_pre.len() + unc_rest.len()) as u32,
        SymbolKind::Function,
    );

    let fwd_pre = x86::Asm::new()
        .push_r(X86Reg::Ebp)
        .mov_rr(X86Reg::Ebp, X86Reg::Esp)
        .mov_r_mem(X86Reg::Eax, X86Reg::Ebp, 8)
        .push_r(X86Reg::Eax)
        .finish();
    let fwd_addr = b.append_code(SectionKind::Text, &fwd_pre);
    let call_end = fwd_addr + fwd_pre.len() as u32 + 5;
    let fwd_rest = x86::Asm::new()
        .call_rel32(unc_addr.wrapping_sub(call_end) as i32)
        .add_r_imm8(X86Reg::Esp, 4)
        .leave()
        .ret()
        .finish();
    b.append_code(SectionKind::Text, &fwd_rest);
    b.symbol(
        SYM_FORWARD_DNS_REPLY,
        fwd_addr,
        (fwd_pre.len() + fwd_rest.len()) as u32,
        SymbolKind::Function,
    );

    // Filler + gadget pool, interleaved the way optimized epilogues pepper
    // a real binary.
    for i in 0usize..40 {
        filler_fn_x86(b, &mut rng);
        match i.wrapping_sub(shift) {
            6 => {
                g.pppr = Some(
                    b.append_code(
                        SectionKind::Text,
                        &x86::Asm::new()
                            .pop_r(X86Reg::Ebx)
                            .pop_r(X86Reg::Esi)
                            .pop_r(X86Reg::Edi)
                            .ret()
                            .finish(),
                    ),
                )
            }
            11 => {
                g.add_esp_pop_ret = Some(
                    b.append_code(
                        SectionKind::Text,
                        &x86::Asm::new()
                            .add_r_imm8(X86Reg::Esp, 0x0C)
                            .pop_r(X86Reg::Ebp)
                            .ret()
                            .finish(),
                    ),
                )
            }
            17 => {
                g.ppppr = Some(
                    b.append_code(
                        SectionKind::Text,
                        &x86::Asm::new()
                            .pop_r(X86Reg::Ebx)
                            .pop_r(X86Reg::Esi)
                            .pop_r(X86Reg::Edi)
                            .pop_r(X86Reg::Ebp)
                            .ret()
                            .finish(),
                    ),
                )
            }
            23 => {
                g.pop_ebp_ret = Some(b.append_code(
                    SectionKind::Text,
                    &x86::Asm::new().pop_r(X86Reg::Ebp).ret().finish(),
                ))
            }
            29 => g.ret = Some(b.append_code(SectionKind::Text, &x86::Asm::new().ret().finish())),
            _ => {}
        }
    }
}

fn filler_fn_x86(b: &mut ImageBuilder, rng: &mut StdRng) {
    let mut a = x86::Asm::new()
        .push_r(X86Reg::Ebp)
        .mov_rr(X86Reg::Ebp, X86Reg::Esp);
    for _ in 0..rng.gen_range(2..8) {
        a = match rng.gen_range(0..5) {
            0 => a.nop(),
            1 => a.mov_r_imm(X86Reg::Eax, rng.gen()),
            2 => a.xor_rr(X86Reg::Ecx, X86Reg::Ecx),
            3 => a.inc_r(X86Reg::Edx),
            _ => a.push_imm(rng.gen()),
        };
    }
    let code = a
        .mov_rr(X86Reg::Esp, X86Reg::Ebp)
        .pop_r(X86Reg::Ebp)
        .ret()
        .finish();
    b.append_code(SectionKind::Text, &code);
}

fn build_arm_text(b: &mut ImageBuilder, g: &mut GadgetAddrs, variant: u64, bounds_checked: bool) {
    let mut rng = StdRng::seed_from_u64(0xC0FF_EE01 ^ variant.wrapping_mul(0x9E37_79B9));
    let shift = (variant % 5) as usize;
    b.append_code(SectionKind::Text, &arm::Asm::new().mov_reg(1, 1).finish());

    let loop_addr = b.append_code(
        SectionKind::Text,
        // mov r1, r1; b .-4 (offset −12 relative to pc+8).
        &arm::Asm::new().mov_reg(1, 1).b(-12).finish(),
    );
    b.symbol(SYM_DAEMON_LOOP, loop_addr, 8, SymbolKind::Function);

    // daemon_init: see build_x86_text. Branch offset is relative to
    // pc+8: from the `bne` at +12 back to the `sub` at +4 is −16.
    let init = arm::Asm::new()
        .mov_imm(0, 0x600)
        .sub_imm(0, 0, 1) // loop:
        .cmp_imm(0, 0)
        .bne(-16) // -> loop
        .bx(14)
        .finish();
    let init_size = init.len() as u32;
    let init_addr = b.append_code(SectionKind::Text, &init);
    b.symbol(SYM_DAEMON_INIT, init_addr, init_size, SymbolKind::Function);

    // parse_response: r2 walks the packet (arg in r0), r3 walks the
    // 1024-byte name buffer at the bottom of the 0x410-byte frame
    // carved by `sub sp, sp, #0x410` (null-check slots, canary and pad
    // above it; with the 8 callee-saved registers pushed under lr the
    // buf→saved-ret distance is the real 1072 bytes). The store sits
    // before the terminator test (strcpy shape), so an N-byte name
    // writes N+1 bytes — byte-identical to the daemon's model. Branch
    // offsets are relative to pc+8, in bytes. See build_x86_text for
    // the flavour semantics.
    let body = if bounds_checked {
        arm::Asm::new()
            .push(&[4, 5, 6, 7, 8, 9, 10, 11, 14])
            .sub_imm(13, 13, 0x410)
            .mov_reg(2, 0)
            .mov_reg(3, 13)
            .mov_imm(7, 0)
            .ldrb(5, 2, 0) // loop:
            .cmp_imm(7, 0x400)
            .beq(20) // -> done (capacity reached)
            .strb(5, 3, 0)
            .add_imm(2, 2, 1)
            .add_imm(3, 3, 1)
            .add_imm(7, 7, 1)
            .cmp_imm(5, 0)
            .bne(-40) // -> loop
            .add_imm(13, 13, 0x410) // done:
            .finish()
    } else {
        arm::Asm::new()
            .push(&[4, 5, 6, 7, 8, 9, 10, 11, 14])
            .sub_imm(13, 13, 0x410)
            .mov_reg(2, 0)
            .mov_reg(3, 13)
            .ldrb(5, 2, 0) // loop:
            .strb(5, 3, 0)
            .add_imm(2, 2, 1)
            .add_imm(3, 3, 1)
            .cmp_imm(5, 0)
            .bne(-28) // -> loop
            .add_imm(13, 13, 0x410) // done:
            .finish()
    };
    // The symbol span includes the epilogue below, so CFG recovery sees
    // the function terminate at the `pop {.., pc}` return.
    let size = body.len() as u32 + 4;
    let parse_addr = b.append_code(SectionKind::Text, &body);
    b.symbol(SYM_PARSE_RESPONSE, parse_addr, size, SymbolKind::Function);
    // parse_response's own epilogue doubles as a gadget.
    g.pop_r4_r11_pc = Some(
        b.append_code(
            SectionKind::Text,
            &arm::Asm::new()
                .pop(&[4, 5, 6, 7, 8, 9, 10, 11, 15])
                .finish(),
        ),
    );

    // The static CVE call chain (see build_x86_text): forward_dns_reply
    // → uncompress → parse_response, never executed, analyzed. The
    // reply pointer rides r0 untouched into each callee; uncompress
    // returns a constant status after the call.
    let unc_pre = arm::Asm::new().push(&[4, 14]).finish();
    let unc_addr = b.append_code(SectionKind::Text, &unc_pre);
    let unc_rest = arm::Asm::new()
        .bl(parse_addr.wrapping_sub(unc_addr + 4 + 8) as i32)
        .mov_imm(0, 0)
        .pop(&[4, 15])
        .finish();
    b.append_code(SectionKind::Text, &unc_rest);
    b.symbol(
        SYM_UNCOMPRESS,
        unc_addr,
        (unc_pre.len() + unc_rest.len()) as u32,
        SymbolKind::Function,
    );

    let fwd_pre = arm::Asm::new().push(&[4, 14]).finish();
    let fwd_addr = b.append_code(SectionKind::Text, &fwd_pre);
    let fwd_rest = arm::Asm::new()
        .bl(unc_addr.wrapping_sub(fwd_addr + 4 + 8) as i32)
        .pop(&[4, 15])
        .finish();
    b.append_code(SectionKind::Text, &fwd_rest);
    b.symbol(
        SYM_FORWARD_DNS_REPLY,
        fwd_addr,
        (fwd_pre.len() + fwd_rest.len()) as u32,
        SymbolKind::Function,
    );

    for i in 0usize..40 {
        filler_fn_arm(b, &mut rng);
        match i.wrapping_sub(shift) {
            7 => {
                g.pop_r0_r7_pc = Some(b.append_code(
                    SectionKind::Text,
                    &arm::Asm::new().pop(&[0, 1, 2, 3, 5, 6, 7, 15]).finish(),
                ))
            }
            13 => {
                g.blx_r3_tramp = Some(
                    b.append_code(
                        SectionKind::Text,
                        &arm::Asm::new()
                            .blx(3)
                            .add_imm(13, 13, 4)
                            .pop(&[15])
                            .finish(),
                    ),
                )
            }
            19 => {
                g.pop_r4_pc =
                    Some(b.append_code(SectionKind::Text, &arm::Asm::new().pop(&[4, 15]).finish()))
            }
            _ => {}
        }
    }
}

fn filler_fn_arm(b: &mut ImageBuilder, rng: &mut StdRng) {
    let mut a = arm::Asm::new().push(&[4, 14]);
    for _ in 0..rng.gen_range(2..8) {
        a = match rng.gen_range(0..4) {
            0 => a.mov_reg(1, 1),
            1 => a.mov_imm(0, rng.gen_range(0..255)),
            2 => a.add_imm(2, 2, 4),
            _ => a.cmp_imm(0, 0),
        };
    }
    b.append_code(SectionKind::Text, &a.pop(&[4, 15]).finish());
}

fn build_riscv_text(b: &mut ImageBuilder, g: &mut GadgetAddrs, variant: u64, bounds_checked: bool) {
    let mut rng = StdRng::seed_from_u64(0xC0FF_EE02 ^ variant.wrapping_mul(0x9E37_79B9));
    let shift = (variant % 5) as usize;
    b.append_code(
        SectionKind::Text,
        &riscv::Asm::new().c_nop().c_nop().finish(),
    );

    // daemon_loop: c.nop; c.j .-2.
    let loop_addr = b.append_code(
        SectionKind::Text,
        &riscv::Asm::new().c_nop().c_j(-2).finish(),
    );
    b.symbol(SYM_DAEMON_LOOP, loop_addr, 4, SymbolKind::Function);

    // daemon_init: see build_x86_text. The branch offset is relative to
    // the branch instruction itself on RISC-V.
    let init = riscv::Asm::new()
        .addi(10, 0, 0x600)
        .addi(10, 10, -1) // loop:
        .bne(10, 0, -4) // -> loop
        .c_ret()
        .finish();
    let init_size = init.len() as u32;
    let init_addr = b.append_code(SectionKind::Text, &init);
    b.symbol(SYM_DAEMON_INIT, init_addr, init_size, SymbolKind::Function);

    // parse_response: a2 walks the packet (arg in a0), a3 walks the
    // 1024-byte name buffer at the bottom of the 0x424-byte frame. ra is
    // spilled at sp+0x420, so buf→saved-ret is the real 1056 bytes
    // (pad 8 + canary 4 + pad 4 + s0-s3 above the buffer). The store
    // sits before the terminator test (strcpy shape), so an N-byte name
    // writes N+1 bytes — byte-identical to the daemon's model. See
    // build_x86_text for the flavour semantics.
    let body = if bounds_checked {
        riscv::Asm::new()
            .addi(2, 2, -0x424)
            .sw(1, 2, 0x420)
            .sw(8, 2, 0x410)
            .sw(9, 2, 0x414)
            .addi(12, 10, 0)
            .addi(13, 2, 0)
            .addi(14, 0, 0) // untainted counter
            .addi(16, 0, 0x400) // capacity
            .lbu(15, 12, 0) // loop:
            .beq(14, 16, 24) // -> done (capacity reached)
            .sb(15, 13, 0)
            .addi(12, 12, 1)
            .addi(13, 13, 1)
            .addi(14, 14, 1)
            .bne(15, 0, -24) // -> loop
            .lw(1, 2, 0x420) // done:
            .lw(8, 2, 0x410)
            .lw(9, 2, 0x414)
            .addi(2, 2, 0x424)
            .c_ret()
            .finish()
    } else {
        riscv::Asm::new()
            .addi(2, 2, -0x424)
            .sw(1, 2, 0x420)
            .sw(8, 2, 0x410)
            .sw(9, 2, 0x414)
            .addi(12, 10, 0)
            .addi(13, 2, 0)
            .lbu(15, 12, 0) // loop:
            .sb(15, 13, 0)
            .addi(12, 12, 1)
            .addi(13, 13, 1)
            .bne(15, 0, -16) // -> loop
            .lw(1, 2, 0x420) // done:
            .lw(8, 2, 0x410)
            .lw(9, 2, 0x414)
            .addi(2, 2, 0x424)
            .c_ret()
            .finish()
    };
    let size = body.len() as u32;
    let parse_addr = b.append_code(SectionKind::Text, &body);
    b.symbol(SYM_PARSE_RESPONSE, parse_addr, size, SymbolKind::Function);

    // The static CVE call chain (see build_x86_text): forward_dns_reply
    // → uncompress → parse_response, never executed, analyzed. The
    // reply pointer rides a0 untouched into each callee; uncompress
    // returns a constant status after the call.
    let unc_pre = riscv::Asm::new().addi(2, 2, -16).sw(1, 2, 12).finish();
    let unc_addr = b.append_code(SectionKind::Text, &unc_pre);
    let jal_at = unc_addr + unc_pre.len() as u32;
    let unc_rest = riscv::Asm::new()
        .jal(1, parse_addr.wrapping_sub(jal_at) as i32)
        .addi(10, 0, 0)
        .lw(1, 2, 12)
        .addi(2, 2, 16)
        .c_ret()
        .finish();
    b.append_code(SectionKind::Text, &unc_rest);
    b.symbol(
        SYM_UNCOMPRESS,
        unc_addr,
        (unc_pre.len() + unc_rest.len()) as u32,
        SymbolKind::Function,
    );

    let fwd_pre = riscv::Asm::new().addi(2, 2, -16).sw(1, 2, 12).finish();
    let fwd_addr = b.append_code(SectionKind::Text, &fwd_pre);
    let jal_at = fwd_addr + fwd_pre.len() as u32;
    let fwd_rest = riscv::Asm::new()
        .jal(1, unc_addr.wrapping_sub(jal_at) as i32)
        .lw(1, 2, 12)
        .addi(2, 2, 16)
        .c_ret()
        .finish();
    b.append_code(SectionKind::Text, &fwd_rest);
    b.symbol(
        SYM_FORWARD_DNS_REPLY,
        fwd_addr,
        (fwd_pre.len() + fwd_rest.len()) as u32,
        SymbolKind::Function,
    );

    for i in 0usize..40 {
        filler_fn_riscv(b, &mut rng);
        match i.wrapping_sub(shift) {
            5 => {
                g.lw_args_ret = Some(
                    b.append_code(
                        SectionKind::Text,
                        &riscv::Asm::new()
                            .lw(10, 2, 0)
                            .lw(11, 2, 4)
                            .lw(12, 2, 8)
                            .lw(13, 2, 12)
                            .lw(1, 2, 16)
                            .addi(2, 2, 20)
                            .c_ret()
                            .finish(),
                    ),
                )
            }
            13 => {
                g.jalr_a3_tramp = Some(
                    b.append_code(
                        SectionKind::Text,
                        &riscv::Asm::new()
                            .c_jalr(13)
                            .lw(1, 2, 0)
                            .addi(2, 2, 4)
                            .c_ret()
                            .finish(),
                    ),
                )
            }
            19 => {
                g.rvc_ret =
                    Some(b.append_code(SectionKind::Text, &riscv::Asm::new().c_ret().finish()))
            }
            27 => {
                // `lui a0, 0x80820000`: the upper parcel of the word is
                // 0x8082 = `c.jr ra`, so a 2-byte-stride scan finds a
                // `ret` two bytes *inside* this 4-byte instruction.
                let w = b.append_code(
                    SectionKind::Text,
                    &riscv::Asm::new().lui(10, 0x8082_0000).finish(),
                );
                g.misaligned_ret = Some(w + 2);
            }
            _ => {}
        }
    }
}

fn filler_fn_riscv(b: &mut ImageBuilder, rng: &mut StdRng) {
    let mut a = riscv::Asm::new().addi(2, 2, -16).sw(1, 2, 12);
    for _ in 0..rng.gen_range(2..8) {
        a = match rng.gen_range(0..4) {
            0 => a.c_nop(),
            1 => a.addi(10, 0, rng.gen_range(0..256)),
            2 => a.c_mv(11, 10),
            _ => a.add(12, 12, 13),
        };
    }
    b.append_code(
        SectionKind::Text,
        &a.lw(1, 2, 12).addi(2, 2, 16).c_ret().finish(),
    );
}

fn build_plt_got(b: &mut ImageBuilder, arch: Arch, got_base: Addr, libc_base: Addr) {
    // Two PLT entries, as in the paper: memcpy@plt and execlp@plt. The
    // loader hooks the stub addresses directly (modelling a resolved
    // GOT), but the stubs carry plausible bytes and the GOT holds the
    // link-time libc addresses.
    let entries: [(&str, u32); 2] = [
        ("memcpy@plt", libc_off::MEMCPY),
        ("execlp@plt", libc_off::EXECLP),
    ];
    for (i, (name, off)) in entries.iter().enumerate() {
        let got_slot = got_base + 4 * i as Addr;
        let stub = match arch {
            Arch::X86 => b.append_code(
                SectionKind::Plt,
                &x86::Asm::new().jmp_abs_mem(got_slot).nop().nop().finish(),
            ),
            Arch::Armv7 => {
                // Real stubs are `add ip, pc; ldr pc, [ip]`; ours is a
                // placeholder body since the hook fires on entry.
                b.append_code(
                    SectionKind::Plt,
                    &arm::Asm::new().mov_reg(12, 12).bx(14).finish(),
                )
            }
            Arch::Riscv => {
                // Real stubs are `auipc t3; lw t3, …; jalr t1, t3`; a
                // placeholder again, since the hook fires on entry.
                b.append_code(
                    SectionKind::Plt,
                    &riscv::Asm::new()
                        .c_mv(28, 28)
                        .c_mv(28, 28)
                        .c_nop()
                        .c_ret()
                        .finish(),
                )
            }
        };
        b.symbol(*name, stub, 8, SymbolKind::PltEntry);
        b.append_code(SectionKind::Got, &(libc_base + off).to_le_bytes());
    }
}

fn build_rodata(b: &mut ImageBuilder) {
    for s in RODATA_STRINGS {
        b.append_code(SectionKind::Rodata, s.as_bytes());
        b.append_code(SectionKind::Rodata, &[0]);
    }
}

fn build_libc(b: &mut ImageBuilder, arch: Arch, libc_base: Addr) {
    let fns: [(&str, u32); 6] = [
        ("system", libc_off::SYSTEM),
        ("exit", libc_off::EXIT),
        ("memcpy", libc_off::MEMCPY),
        ("execve", libc_off::EXECVE),
        ("execlp", libc_off::EXECLP),
        ("__stack_chk_fail", libc_off::STACK_CHK_FAIL),
    ];
    for (name, off) in fns {
        b.symbol(name, libc_base + off, 16, SymbolKind::LibcFunction);
    }
    b.symbol(
        "str_bin_sh",
        libc_base + libc_off::STR_BIN_SH,
        8,
        SymbolKind::Object,
    );
    // Initialized libc bytes: fill up to the string so it is present.
    // (Sections zero-fill; we only need bytes at the string offset, but
    // the builder appends linearly, so pad.)
    // The filler is whole return instructions (STR_BIN_SH is 4-aligned).
    let ret: &[u8] = match arch {
        Arch::X86 => &[0xC3],
        Arch::Armv7 => &0xE12F_FF1Eu32.to_le_bytes(), // bx lr
        Arch::Riscv => &0x8082u16.to_le_bytes(),      // c.jr ra
    };
    let ret_fill = ret.repeat(libc_off::STR_BIN_SH as usize / ret.len());
    b.append_code(SectionKind::Libc, &ret_fill);
    b.append_code(SectionKind::Libc, b"/bin/sh\0");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_images_build_and_carry_symbols() {
        for arch in Arch::ALL {
            let (img, _) = build_image(arch);
            for sym in [
                SYM_DAEMON_INIT,
                SYM_DAEMON_LOOP,
                SYM_PARSE_RESPONSE,
                "memcpy@plt",
                "execlp@plt",
                "system",
                "exit",
                "memcpy",
                "execve",
                "execlp",
                "str_bin_sh",
                "__bss_start",
            ] {
                assert!(img.symbol(sym).is_some(), "{arch}: missing {sym}");
            }
        }
    }

    #[test]
    fn gadget_ground_truth_points_at_expected_bytes() {
        let (img, g) = build_image(Arch::X86);
        assert_eq!(img.bytes_at(g.ret.unwrap(), 1), Some(&[0xC3u8][..]));
        assert_eq!(
            img.bytes_at(g.ppppr.unwrap(), 5),
            Some(&[0x5B, 0x5E, 0x5F, 0x5D, 0xC3][..])
        );
        let (img, g) = build_image(Arch::Armv7);
        assert_eq!(
            img.bytes_at(g.pop_r0_r7_pc.unwrap(), 4),
            Some(&0xE8BD_80EFu32.to_le_bytes()[..])
        );
        assert_eq!(
            img.bytes_at(g.blx_r3_tramp.unwrap(), 4),
            Some(&0xE12F_FF33u32.to_le_bytes()[..])
        );
        let (img, g) = build_image(Arch::Riscv);
        // `lw a0, 0(sp)` heads the register loader.
        assert_eq!(
            img.bytes_at(g.lw_args_ret.unwrap(), 4),
            Some(&0x0001_2503u32.to_le_bytes()[..])
        );
        assert_eq!(img.bytes_at(g.rvc_ret.unwrap(), 2), Some(&[0x82, 0x80][..]));
        // The misaligned ret is the upper parcel of a `lui`.
        assert_eq!(
            img.bytes_at(g.misaligned_ret.unwrap() - 2, 4),
            Some(&0x8082_0537u32.to_le_bytes()[..])
        );
    }

    #[test]
    fn bin_sh_characters_available_in_program_image_but_not_the_string() {
        for arch in Arch::ALL {
            let (img, _) = build_image(arch);
            for ch in b"/bins h".iter().filter(|c| **c != b' ') {
                let hits = img.find_bytes(&[*ch]);
                let program_hit = hits.iter().any(|&a| {
                    img.section_containing(a)
                        .is_some_and(|s| s.kind() != SectionKind::Libc)
                });
                assert!(program_hit, "{arch}: char {:?} missing", *ch as char);
            }
            // The full string exists only in libc.
            let full = img.find_bytes(b"/bin/sh");
            assert!(!full.is_empty());
            for a in full {
                assert_eq!(img.section_containing(a).unwrap().kind(), SectionKind::Libc);
            }
        }
    }

    #[test]
    fn libc_string_at_expected_symbol() {
        for arch in Arch::ALL {
            let (img, _) = build_image(arch);
            let addr = img.symbol("str_bin_sh").unwrap().addr();
            assert_eq!(img.bytes_at(addr, 8), Some(&b"/bin/sh\0"[..]));
        }
    }

    #[test]
    fn parse_response_bodies_decode_cleanly_and_differ_by_flavour() {
        for arch in Arch::ALL {
            let (vuln, _) = build_image_for(arch, 0, false);
            let (fixed, _) = build_image_for(arch, 0, true);
            for img in [&vuln, &fixed] {
                let sym = img.symbol(SYM_PARSE_RESPONSE).unwrap();
                let bytes = img.bytes_at(sym.addr(), sym.size() as usize).unwrap();
                let mut off = 0usize;
                while off < bytes.len() {
                    let len = match arch {
                        Arch::X86 => x86::decode(&bytes[off..]).expect("body decodes").1,
                        Arch::Armv7 => arm::decode(&bytes[off..]).expect("body decodes").1,
                        Arch::Riscv => riscv::decode(&bytes[off..]).expect("body decodes").1,
                    };
                    off += len;
                }
                assert_eq!(off, bytes.len(), "{arch}: ragged decode");
            }
            let vs = vuln.symbol(SYM_PARSE_RESPONSE).unwrap();
            let fs = fixed.symbol(SYM_PARSE_RESPONSE).unwrap();
            assert!(fs.size() > vs.size(), "{arch}: patched body not larger");
        }
    }

    #[test]
    fn daemon_init_decodes_cleanly() {
        for arch in Arch::ALL {
            let (img, _) = build_image(arch);
            let sym = img.symbol(SYM_DAEMON_INIT).unwrap();
            let bytes = img.bytes_at(sym.addr(), sym.size() as usize).unwrap();
            let mut off = 0usize;
            while off < bytes.len() {
                let len = match arch {
                    Arch::X86 => x86::decode(&bytes[off..]).expect("init decodes").1,
                    Arch::Armv7 => arm::decode(&bytes[off..]).expect("init decodes").1,
                    Arch::Riscv => riscv::decode(&bytes[off..]).expect("init decodes").1,
                };
                off += len;
            }
            assert_eq!(off, bytes.len(), "{arch}: ragged init decode");
        }
    }

    #[test]
    fn images_are_deterministic() {
        let (a, _) = build_image(Arch::X86);
        let (b, _) = build_image(Arch::X86);
        assert_eq!(
            a.section(SectionKind::Text).unwrap().bytes(),
            b.section(SectionKind::Text).unwrap().bytes()
        );
    }
}

//! Pins the bytes of the libc section on every ISA: the return-instruction
//! filler up to `str_bin_sh`, then the `/bin/sh\0` literal. Recon, the
//! VM loader and the ASLR slide all read these bytes, so a change to how
//! the filler is generated must leave them byte-identical.

use cml_firmware::{Arch, Firmware, FirmwareKind};
use cml_image::SectionKind;

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn libc_bytes(fw: &Firmware) -> &[u8] {
    fw.image()
        .section(SectionKind::Libc)
        .expect("every build has a libc section")
        .bytes()
}

#[test]
fn libc_section_bytes_pinned_per_isa() {
    // (ISA, initialized length, FNV-1a 64 of the initialized bytes).
    let pins = [
        (Arch::X86, 545_772, 0x6d32_4962_cf26_0ff9u64),
        (Arch::Armv7, 545_772, 0x6bd5_6ca6_28f6_5eb6),
        (Arch::Riscv, 545_772, 0xbf07_7df1_ed21_17ed),
    ];
    for (arch, len, digest) in pins {
        let fw = Firmware::build(FirmwareKind::OpenElec, arch);
        let bytes = libc_bytes(&fw);
        assert_eq!(bytes.len(), len, "{arch}: libc length");
        assert_eq!(
            fnv1a64(bytes),
            digest,
            "{arch}: libc digest {:#018x}",
            fnv1a64(bytes)
        );
        assert!(bytes.ends_with(b"/bin/sh\0"), "{arch}: literal last");
    }
}

#[test]
fn libc_section_independent_of_build_variant_and_patch() {
    for arch in Arch::ALL {
        let base = Firmware::build(FirmwareKind::OpenElec, arch);
        for fw in [
            Firmware::build_variant(FirmwareKind::OpenElec, arch, 0x7E7A),
            Firmware::build(FirmwareKind::Patched, arch),
        ] {
            assert_eq!(libc_bytes(&fw), libc_bytes(&base), "{arch}");
        }
    }
}

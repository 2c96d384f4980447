//! Gadget-finder benchmarks (the `ropper` / `ROPgadget` step).

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};

use cml_exploit::{GadgetSet, TargetInfo};
use cml_firmware::{Arch, Firmware, FirmwareKind, Protections};

fn bench_scan(c: &mut Criterion) {
    for arch in Arch::ALL {
        let fw = Firmware::build(FirmwareKind::OpenElec, arch);
        c.bench_function(format!("gadget/scan_{arch}"), |b| {
            b.iter(|| GadgetSet::scan(black_box(fw.image())))
        });
    }
}

fn bench_queries(c: &mut Criterion) {
    let fw_x86 = Firmware::build(FirmwareKind::OpenElec, Arch::X86);
    let fw_arm = Firmware::build(FirmwareKind::OpenElec, Arch::Armv7);
    let set_x86 = GadgetSet::scan(fw_x86.image());
    let set_arm = GadgetSet::scan(fw_arm.image());
    c.bench_function("gadget/query_x86_pop4", |b| {
        b.iter(|| black_box(&set_x86).x86_pop_chain(4).unwrap().addr)
    });
    c.bench_function("gadget/query_arm_pop_including", |b| {
        b.iter(|| {
            black_box(&set_arm)
                .arm_pop_including(&[0, 1, 2, 3, 5, 6, 7])
                .unwrap()
                .addr
        })
    });
}

/// Recon's static harvest (PLT, libc symbols, `--memstr` characters,
/// gadgets) as the retarget loop issues it: once per freshly built image.
fn bench_static_harvest(c: &mut Criterion) {
    for (arch, tag) in [
        (Arch::X86, "x86"),
        (Arch::Armv7, "arm"),
        (Arch::Riscv, "riscv"),
    ] {
        let fw = Firmware::build(FirmwareKind::OpenElec, arch);
        let frame = TargetInfo::gather(fw.image(), || fw.boot(Protections::full(), 5))
            .expect("vulnerable firmware")
            .frame;
        c.bench_function(format!("recon/static_harvest_{tag}"), |b| {
            b.iter_batched(
                || Firmware::build(FirmwareKind::OpenElec, arch),
                |fw| TargetInfo::from_parts(fw.image(), frame.clone()),
                BatchSize::SmallInput,
            )
        });
    }
}

criterion_group!(benches, bench_scan, bench_queries, bench_static_harvest);
criterion_main!(benches);

//! Payload-construction benchmarks: reconnaissance, strategy build and
//! the DNS label-layout solver.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cml_exploit::strategies_for;
use cml_exploit::{BufferImage, TargetInfo};
use cml_firmware::{Arch, Firmware, FirmwareKind, Protections};

fn bench_recon(c: &mut Criterion) {
    let mut g = c.benchmark_group("recon");
    g.sample_size(20);
    for arch in Arch::ALL {
        let fw = Firmware::build(FirmwareKind::OpenElec, arch);
        g.bench_function(format!("gather_{arch}"), |b| {
            b.iter(|| TargetInfo::gather(fw.image(), || fw.boot(Protections::full(), 5)).unwrap())
        });
    }
    g.finish();
}

fn bench_strategy_build(c: &mut Criterion) {
    for arch in Arch::ALL {
        let fw = Firmware::build(FirmwareKind::OpenElec, arch);
        let info = TargetInfo::gather(fw.image(), || fw.boot(Protections::full(), 5)).unwrap();
        for strategy in strategies_for(arch) {
            c.bench_function(format!("build/{}_{arch}", strategy.name()), |b| {
                b.iter(|| strategy.build(black_box(&info)).unwrap())
            });
        }
    }
}

fn bench_labelize(c: &mut Criterion) {
    // Worst realistic case: a dense chain image with interleaved fixed
    // words and flexible placeholders.
    let mut img = BufferImage::filler(1072);
    let mut off = 1072;
    for block in 0..8 {
        for w in 0..8 {
            if (4..7).contains(&w) {
                img.set_flex_word(off, 0);
            } else {
                img.set_word(off, 0x0001_1000 + block * 64 + w as u32);
            }
            off += 4;
        }
    }
    c.bench_function("labelize/dense_chain_1300B", |b| {
        b.iter(|| black_box(&img).labelize().unwrap())
    });
    let filler = BufferImage::filler(1300);
    c.bench_function("labelize/pure_filler_1300B", |b| {
        b.iter(|| black_box(&filler).labelize().unwrap())
    });
}

criterion_group!(benches, bench_recon, bench_strategy_build, bench_labelize);
criterion_main!(benches);

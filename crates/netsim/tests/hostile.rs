//! Hostile authoritative servers: every misbehaviour an upstream can
//! throw at the recursive resolver ends as a counted failure after a
//! bounded number of upstream queries — never a panic, never a hang.

use std::net::Ipv4Addr;

use cml_dns::{
    Message, Name, Question, Record, RecordClass, RecordData, RecordType, Zone, ZoneServer,
};
use cml_netsim::{Internet, RecursiveResolver};

const ROOT: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
const A: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);
const B: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 2);

fn a_query(name: &str) -> Vec<u8> {
    Message::query(7, Question::new(Name::parse(name).unwrap(), RecordType::A))
        .encode()
        .unwrap()
}

/// A root that delegates `example` to `ns.example` at `addr` (glued).
fn root_delegating_example_to(addr: Ipv4Addr) -> ZoneServer {
    let mut z = Zone::rooted("");
    z.ns("example", 60, "ns.example").a("ns.example", 60, addr);
    ZoneServer::new(z)
}

/// Resolves `name` once and checks the failure contract: no answer, one
/// counted failure, at most `max_upstream` upstream queries, and the
/// trace naming `reason`. Returns the upstream query count.
fn assert_fails(mut net: Internet, name: &str, max_upstream: u64, reason: &str) -> u64 {
    let mut r = RecursiveResolver::new(7, 16);
    assert!(r.handle_query(&mut net, &a_query(name)).is_none());
    let stats = r.stats();
    assert_eq!(stats.failures, 1, "{reason}: one counted failure");
    assert!(
        stats.upstream_queries <= max_upstream,
        "{reason}: {} upstream queries",
        stats.upstream_queries
    );
    assert!(
        r.trace().contains(reason),
        "trace lacks {reason:?}:\n{}",
        r.trace()
    );
    // The resolver is not wedged: the next question runs to its own end.
    let before = stats.upstream_queries;
    let _ = r.handle_query(&mut net, &a_query(name));
    assert_eq!(r.stats().client_queries, 2);
    assert!(r.stats().upstream_queries > before);
    stats.upstream_queries
}

#[test]
fn self_referral_hits_the_referral_budget() {
    let mut net = Internet::new(ROOT);
    // The root refers `example` to itself, forever.
    net.add_server(ROOT, root_delegating_example_to(ROOT));
    assert_eq!(assert_fails(net, "www.example", 17, "referral loop"), 17);
}

#[test]
fn mutual_referral_hits_the_referral_budget() {
    let mut net = Internet::new(ROOT);
    net.add_server(ROOT, root_delegating_example_to(A));
    // A and B each claim the other serves `example`.
    let mut za = Zone::new();
    za.ns("example", 60, "ns.b.example")
        .a("ns.b.example", 60, B);
    let mut zb = Zone::new();
    zb.ns("example", 60, "ns.a.example")
        .a("ns.a.example", 60, A);
    net.add_server(A, ZoneServer::new(za))
        .add_server(B, ZoneServer::new(zb));
    assert_eq!(assert_fails(net, "www.example", 17, "referral loop"), 17);
}

#[test]
fn glue_chase_cycle_hits_the_frame_budget() {
    let mut net = Internet::new(ROOT);
    // `example` is served by a nameserver under `test`, and `test` by
    // one under `example`; neither delegation carries glue, so every
    // chase needs another chase.
    let mut root = Zone::rooted("");
    root.ns("example", 60, "ns.test")
        .ns("test", 60, "ns.example");
    net.add_server(ROOT, ZoneServer::new(root));
    let n = assert_fails(net, "www.example", 17, "(no glue)");
    assert_eq!(n, 17, "one root query per pushed frame");
}

#[test]
fn cname_loop_hits_the_cname_budget() {
    let mut net = Internet::new(ROOT);
    net.add_server(ROOT, root_delegating_example_to(A));
    let mut z = Zone::rooted("example");
    z.cname("a.example", 60, "b.example")
        .cname("b.example", 60, "a.example");
    net.add_server(A, ZoneServer::new(z));
    // Nine root→authority round trips: eight follows, then the ninth
    // CNAME trips the budget.
    assert_eq!(assert_fails(net, "a.example", 18, "cname loop"), 18);
}

#[test]
fn silent_server_fails_after_one_query() {
    let mut net = Internet::new(ROOT);
    // The glue points at an address where nothing is deployed.
    net.add_server(ROOT, root_delegating_example_to(A));
    assert_eq!(assert_fails(net, "www.example", 2, "silent"), 2);
}

#[test]
fn undecodable_answer_fails_after_one_query() {
    let mut net = Internet::new(ROOT);
    net.add_server(ROOT, root_delegating_example_to(A));
    // An A record with three bytes of RDATA: the server encodes it, the
    // resolver's strict decoder refuses it.
    let mut z = Zone::rooted("example");
    z.insert(Record::with_parts(
        Name::parse("www.example").unwrap(),
        RecordType::A,
        RecordClass::In,
        60,
        RecordData::Opaque(vec![1, 2, 3]),
    ));
    net.add_server(A, ZoneServer::new(z));
    assert_eq!(assert_fails(net, "www.example", 2, "undecodable"), 2);
}

#[test]
fn silent_root_fails_after_one_query() {
    let net = Internet::new(ROOT);
    assert_eq!(assert_fails(net, "www.example", 1, "silent"), 1);
}

/// An internet whose `example` authority at A serves `zone`.
fn internet_with(zone: Zone) -> Internet {
    let mut net = Internet::new(ROOT);
    net.add_server(ROOT, root_delegating_example_to(A))
        .add_server(A, ZoneServer::new(zone));
    net
}

#[test]
fn ttl_zero_is_answered_but_never_cached() {
    let mut z = Zone::rooted("example");
    z.a("now.example", 0, Ipv4Addr::new(192, 0, 2, 1));
    let mut net = internet_with(z);
    let mut r = RecursiveResolver::new(7, 16);
    for _ in 0..2 {
        assert!(r.handle_query(&mut net, &a_query("now.example")).is_some());
    }
    assert_eq!(r.cache().stats().inserts, 0);
    assert_eq!(r.stats().upstream_queries, 4, "both lookups recursed");
}

#[test]
fn ttl_max_is_cached_without_overflowing_the_clock() {
    let mut z = Zone::rooted("example");
    z.a("forever.example", u32::MAX, Ipv4Addr::new(192, 0, 2, 2));
    let mut net = internet_with(z);
    let mut r = RecursiveResolver::new(7, 16);
    assert!(r
        .handle_query(&mut net, &a_query("forever.example"))
        .is_some());
    r.advance_to(r.now() + 100 * 365 * 86_400 * cml_netsim::TICKS_PER_SEC);
    assert!(r
        .handle_query(&mut net, &a_query("forever.example"))
        .is_some());
    assert_eq!(r.cache().stats().hits, 1, "a century later, still live");
    assert_eq!(r.stats().upstream_queries, 2);
}

#[test]
fn answer_over_64_kib_resolves_and_decodes() {
    let mut z = Zone::rooted("example");
    for i in 0..5_000u32 {
        z.a("big.example", 60, Ipv4Addr::from(0x0A00_0000 | i));
    }
    let mut net = internet_with(z);
    let mut r = RecursiveResolver::new(7, 16);
    let resp = r
        .handle_query(&mut net, &a_query("big.example"))
        .expect("resolves");
    assert!(resp.len() > 64 * 1024, "{} bytes", resp.len());
    let m = Message::decode(&resp).expect("strictly decodable");
    assert_eq!(m.answers().len(), 5_000);
    assert_eq!(r.stats().upstream_queries, 2);
    assert_eq!(r.stats().failures, 0);
}

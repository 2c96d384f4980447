//! A tiny authoritative zone and server — the *benign* side of the lab.
//!
//! The malicious server lives in `cml-exploit`; this one answers
//! honestly from configured records, so the legitimate access point in
//! the remote experiments serves real-looking traffic (and control-group
//! devices work normally).

use std::collections::HashMap;
use std::net::{Ipv4Addr, Ipv6Addr};

use crate::header::Rcode;
use crate::message::Message;
use crate::name::{suffix_offsets, Name, WireName, MAX_NAME_LEN};
use crate::question::WireQuestion;
use crate::record::{Record, RecordData, RecordType};
use crate::wire::WireBuf;

/// An in-memory zone: record sets keyed by lowercased wire name and
/// type.
///
/// Lookups build their key on the stack and hand back borrowed record
/// sets, so answering from a zone never allocates.
///
/// A zone may carry NS records below its origin; those express
/// *delegation*, and [`Zone::delegation`] finds the referral (NS set
/// plus glue addresses) a query outside the zone's own data should be
/// bounced to. NS records *at* the origin are the zone's own apex set,
/// never a referral.
#[derive(Debug, Clone, Default)]
pub struct Zone {
    records: HashMap<Box<[u8]>, Vec<Record>>,
    origin: Option<Name>,
}

/// A record-set key, built on the stack: the lowercased wire name, then
/// the type's wire value and a byte telling an explicit `Other(n)` for
/// an assigned `n` apart from the named type. The type bytes trail the
/// name, so the key of any ancestor is a sub-slice of the key of its
/// descendant.
struct SetKey {
    len: usize,
    buf: [u8; MAX_NAME_LEN + 3],
}

impl SetKey {
    fn new(name: &[u8], rtype: RecordType) -> Self {
        let n = name.len();
        let mut buf = [0u8; MAX_NAME_LEN + 3];
        buf[..n].copy_from_slice(name);
        buf[..n].make_ascii_lowercase();
        buf[n..n + 2].copy_from_slice(&rtype.to_u16().to_be_bytes());
        buf[n + 2] = u8::from(RecordType::from_u16(rtype.to_u16()) != rtype);
        SetKey { len: n + 3, buf }
    }

    fn as_bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

impl Zone {
    /// An empty zone.
    pub fn new() -> Self {
        Zone::default()
    }

    /// An empty zone rooted at `origin` (e.g. `"com"` for a TLD server,
    /// `""` for the root). The origin marks where the zone's own
    /// authority starts: NS records *below* it are delegations, NS
    /// records *at* it are the apex set.
    ///
    /// # Panics
    ///
    /// Panics on an unparsable origin; zone origins are static strings.
    pub fn rooted(origin: &str) -> Self {
        Zone {
            records: HashMap::new(),
            origin: Some(Name::parse(origin).expect("zone origins are static and valid")),
        }
    }

    /// The zone's origin, if one was declared.
    pub fn origin(&self) -> Option<&Name> {
        self.origin.as_ref()
    }

    /// Adds a record.
    pub fn insert(&mut self, record: Record) -> &mut Self {
        let key = SetKey::new(WireName::from(record.name()).as_bytes(), record.rtype());
        self.records
            .entry(key.as_bytes().into())
            .or_default()
            .push(record);
        self
    }

    /// Convenience: adds an A record.
    pub fn a(&mut self, name: &str, ttl: u32, addr: Ipv4Addr) -> &mut Self {
        let name = Name::parse(name).expect("zone names are static and valid");
        self.insert(Record::new(name, ttl, RecordData::A(addr)))
    }

    /// Convenience: adds an AAAA record.
    pub fn aaaa(&mut self, name: &str, ttl: u32, addr: Ipv6Addr) -> &mut Self {
        let name = Name::parse(name).expect("zone names are static and valid");
        self.insert(Record::new(name, ttl, RecordData::Aaaa(addr)))
    }

    /// Convenience: adds a CNAME record.
    pub fn cname(&mut self, name: &str, ttl: u32, target: &str) -> &mut Self {
        let name = Name::parse(name).expect("zone names are static and valid");
        let target = Name::parse(target).expect("zone names are static and valid");
        self.insert(Record::new(name, ttl, RecordData::Cname(target)))
    }

    /// Convenience: adds an NS record delegating `name` to `nameserver`.
    /// Pair with [`a`](Self::a) records for the nameserver's own name to
    /// provide glue.
    pub fn ns(&mut self, name: &str, ttl: u32, nameserver: &str) -> &mut Self {
        let name = Name::parse(name).expect("zone names are static and valid");
        let ns = Name::parse(nameserver).expect("zone names are static and valid");
        self.insert(Record::new(name, ttl, RecordData::Ns(ns)))
    }

    /// The record set for a wire name and type, if any.
    fn set(&self, name: &[u8], rtype: RecordType) -> Option<&[Record]> {
        self.records
            .get(SetKey::new(name, rtype).as_bytes())
            .map(Vec::as_slice)
    }

    /// Finds the deepest delegation covering `qname`: walks from the
    /// query name up through its ancestors (stopping at the zone
    /// origin, whose NS set is the apex, not a cut) and returns the
    /// first NS set found together with its glue — the A/AAAA records
    /// this zone holds for the delegated nameservers.
    pub fn delegation(&self, qname: &Name) -> Option<Referral<'_>> {
        self.delegation_wire(&WireName::from(qname))
    }

    /// [`delegation`](Self::delegation) over a wire name: every
    /// ancestor's key is a sub-slice of the query's, so the walk builds
    /// one key and clones nothing.
    fn delegation_wire(&self, qname: &WireName) -> Option<Referral<'_>> {
        let origin = self
            .origin
            .as_ref()
            .map(|o| WireName::from(o).to_ascii_lowercase());
        let wire = qname.as_bytes();
        let key = SetKey::new(wire, RecordType::Ns);
        let root = wire.len() - 1;
        for at in suffix_offsets(wire).chain([root]) {
            let cut = &key.as_bytes()[at..];
            if origin.is_some_and(|o| o.as_bytes() == &cut[..wire.len() - at]) {
                return None;
            }
            if let Some(ns) = self.records.get(cut).filter(|r| !r.is_empty()) {
                return Some(Referral { zone: self, ns });
            }
        }
        None
    }

    /// Looks records up along the CNAME chain, visiting at most five
    /// names. The answer borrows the zone's record sets: the CNAME set
    /// of each name visited, then the set of the asked type.
    pub fn lookup(&self, name: &Name, rtype: RecordType) -> Lookup<'_> {
        self.lookup_wire(&WireName::from(name), rtype)
    }

    fn lookup_wire(&self, name: &WireName, rtype: RecordType) -> Lookup<'_> {
        let mut out = Lookup {
            sets: [&[]; MAX_LOOKUP_SETS],
            len: 0,
        };
        let mut current = *name;
        for _ in 0..MAX_LOOKUP_SETS {
            if let Some(records) = self.set(current.as_bytes(), rtype) {
                out.push(records);
                return out;
            }
            let Some(cnames) = self.set(current.as_bytes(), RecordType::Cname) else {
                return out;
            };
            out.push(cnames);
            match cnames.first().map(Record::data) {
                Some(RecordData::Cname(target)) => current = WireName::from(target),
                _ => return out,
            }
        }
        out
    }

    /// What the zone answers for `name`/`rtype`: records, a referral,
    /// or nothing.
    fn reply(&self, name: &WireName, rtype: RecordType) -> Reply<'_> {
        let answer = self.lookup_wire(name, rtype);
        if !answer.is_empty() {
            Reply::Answer(answer)
        } else if let Some(referral) = self.delegation_wire(name) {
            Reply::Referral(referral)
        } else {
            Reply::NxDomain
        }
    }

    /// Number of record sets.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the zone has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Most names one lookup visits along a CNAME chain, and so the most
/// record sets it returns.
const MAX_LOOKUP_SETS: usize = 5;

/// The answer to a [`Zone::lookup`]: borrowed record sets in chain
/// order (each CNAME link's set, then the asked type's).
#[derive(Debug, Clone, Copy)]
pub struct Lookup<'z> {
    sets: [&'z [Record]; MAX_LOOKUP_SETS],
    len: usize,
}

impl<'z> Lookup<'z> {
    fn push(&mut self, set: &'z [Record]) {
        self.sets[self.len] = set;
        self.len += 1;
    }

    /// The answer records in order.
    pub fn records(&self) -> impl Iterator<Item = &'z Record> + 'z {
        let sets = self.sets;
        sets.into_iter().take(self.len).flatten()
    }

    /// Whether the lookup found nothing.
    pub fn is_empty(&self) -> bool {
        self.sets[..self.len].iter().all(|s| s.is_empty())
    }
}

/// A delegation found by [`Zone::delegation`], borrowed from the zone.
#[derive(Debug, Clone, Copy)]
pub struct Referral<'z> {
    zone: &'z Zone,
    ns: &'z [Record],
}

impl<'z> Referral<'z> {
    /// The NS set at the cut.
    pub fn ns(&self) -> &'z [Record] {
        self.ns
    }

    /// The glue: for each delegated nameserver in NS-set order, the A
    /// then AAAA records the zone holds for it.
    pub fn glue(&self) -> impl Iterator<Item = &'z Record> + 'z {
        let zone = self.zone;
        self.ns
            .iter()
            .filter_map(|ns| match ns.data() {
                RecordData::Ns(target) => Some(WireName::from(target)),
                _ => None,
            })
            .flat_map(move |target| {
                [RecordType::A, RecordType::Aaaa]
                    .into_iter()
                    .flat_map(move |rtype| zone.set(target.as_bytes(), rtype).unwrap_or(&[]))
            })
    }
}

/// What a zone answers one question with.
enum Reply<'z> {
    Answer(Lookup<'z>),
    Referral(Referral<'z>),
    NxDomain,
}

/// A request/response server over a [`Zone`].
#[derive(Debug, Clone, Default)]
pub struct ZoneServer {
    zone: Zone,
    queries_answered: u64,
    queries_nxdomain: u64,
    queries_referred: u64,
}

impl ZoneServer {
    /// Serves the given zone.
    pub fn new(zone: Zone) -> Self {
        ZoneServer {
            zone,
            queries_answered: 0,
            queries_nxdomain: 0,
            queries_referred: 0,
        }
    }

    /// The zone being served.
    pub fn zone(&self) -> &Zone {
        &self.zone
    }

    /// (answered, nxdomain) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.queries_answered, self.queries_nxdomain)
    }

    /// Queries bounced with a referral (NS records in the authority
    /// section, glue in the additional section).
    pub fn referrals(&self) -> u64 {
        self.queries_referred
    }

    /// Handles one datagram: decodes the query, answers from the zone,
    /// refers queries under a delegation cut to the delegated
    /// nameservers (NS in the authority section, glue addresses in the
    /// additional section), returns `NXDOMAIN` for unknown names, drops
    /// undecodable input.
    pub fn handle(&mut self, query_bytes: &[u8]) -> Option<Vec<u8>> {
        let mut out = WireBuf::new();
        if self.handle_into(query_bytes, &mut out) {
            Some(out.into_vec())
        } else {
            None
        }
    }

    /// [`handle`](Self::handle) into a reusable buffer: replaces
    /// `out`'s contents with the response (keeping its capacity) and
    /// returns `true`, or returns `false` when the packet is dropped.
    /// A canonical query (see [`WireQuestion`]) is answered straight
    /// from the borrowed record sets, so with a warm `out` it does not
    /// allocate; any other shape goes through a decoded [`Message`].
    pub fn handle_into(&mut self, query_bytes: &[u8], out: &mut WireBuf) -> bool {
        let Some(q) = WireQuestion::parse(query_bytes) else {
            return self.handle_decoded(query_bytes, out);
        };
        let reply = self.zone.reply(&q.qname, RecordType::from_u16(q.qtype));
        let none: &[Record] = &[];
        let sent = match reply {
            Reply::Answer(answer) => {
                self.queries_answered += 1;
                q.respond(
                    Rcode::NoError,
                    answer.records(),
                    none,
                    none,
                    out.as_mut_vec(),
                )
            }
            Reply::Referral(referral) => {
                self.queries_referred += 1;
                q.respond(
                    Rcode::NoError,
                    none,
                    referral.ns(),
                    referral.glue(),
                    out.as_mut_vec(),
                )
            }
            Reply::NxDomain => {
                self.queries_nxdomain += 1;
                q.respond(Rcode::NxDomain, none, none, none, out.as_mut_vec())
            }
        };
        sent.is_ok()
    }

    /// The general path for queries off the canonical shape (several
    /// questions, compressed names, extra records): decode, answer the
    /// first question, echo every question.
    fn handle_decoded(&mut self, query_bytes: &[u8], out: &mut WireBuf) -> bool {
        let query = match Message::decode(query_bytes) {
            Ok(q) if !q.is_response() && !q.questions().is_empty() => q,
            _ => return false,
        };
        let q = &query.questions()[0];
        let mut resp = Message::response_to(&query);
        match self.zone.reply(&WireName::from(q.qname()), q.qtype()) {
            Reply::Answer(answer) => {
                answer.records().for_each(|r| resp.push_answer(r.clone()));
                self.queries_answered += 1;
            }
            Reply::Referral(referral) => {
                referral
                    .ns()
                    .iter()
                    .for_each(|r| resp.push_authority(r.clone()));
                referral
                    .glue()
                    .for_each(|r| resp.push_additional(r.clone()));
                self.queries_referred += 1;
            }
            Reply::NxDomain => {
                resp.set_rcode(Rcode::NxDomain);
                self.queries_nxdomain += 1;
            }
        }
        resp.encode_into(out).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::question::Question;

    fn server() -> ZoneServer {
        let mut zone = Zone::new();
        zone.a("cloud.vendor.example", 300, Ipv4Addr::new(203, 0, 113, 7))
            .a("cloud.vendor.example", 300, Ipv4Addr::new(203, 0, 113, 8))
            .aaaa("cloud.vendor.example", 300, "2001:db8::7".parse().unwrap())
            .cname("www.vendor.example", 600, "cloud.vendor.example");
        ZoneServer::new(zone)
    }

    fn ask(s: &mut ZoneServer, host: &str, rtype: RecordType) -> Message {
        let q = Message::query(9, Question::new(Name::parse(host).unwrap(), rtype));
        let resp = s.handle(&q.encode().unwrap()).expect("responds");
        Message::decode(&resp).unwrap()
    }

    #[test]
    fn answers_from_zone() {
        let mut s = server();
        let m = ask(&mut s, "cloud.vendor.example", RecordType::A);
        assert_eq!(m.answers().len(), 2);
        assert_eq!(m.header().rcode, Rcode::NoError);
    }

    #[test]
    fn follows_cnames() {
        let mut s = server();
        let m = ask(&mut s, "www.vendor.example", RecordType::A);
        // CNAME + the two A records behind it.
        assert_eq!(m.answers().len(), 3);
        assert_eq!(m.answers()[0].rtype(), RecordType::Cname);
    }

    #[test]
    fn nxdomain_for_unknown() {
        let mut s = server();
        let m = ask(&mut s, "ghost.example", RecordType::A);
        assert_eq!(m.header().rcode, Rcode::NxDomain);
        assert!(m.answers().is_empty());
        assert_eq!(s.stats(), (0, 1));
    }

    #[test]
    fn case_insensitive_lookup() {
        let mut s = server();
        let m = ask(&mut s, "CLOUD.Vendor.EXAMPLE", RecordType::A);
        assert_eq!(m.answers().len(), 2);
    }

    #[test]
    fn drops_garbage() {
        let mut s = server();
        assert!(s.handle(&[1, 2, 3]).is_none());
    }

    fn tld_server() -> ZoneServer {
        // A "com" TLD zone delegating vendor.example-style children:
        // NS cuts below the origin plus in-bailiwick glue.
        let mut zone = Zone::rooted("com");
        zone.ns("vendor.com", 86400, "ns1.vendor.com")
            .ns("vendor.com", 86400, "ns2.vendor.com")
            .a("ns1.vendor.com", 86400, Ipv4Addr::new(198, 51, 100, 1))
            .a("ns2.vendor.com", 86400, Ipv4Addr::new(198, 51, 100, 2))
            .aaaa("ns1.vendor.com", 86400, "2001:db8::53".parse().unwrap())
            .ns("com", 86400, "a.gtld.example");
        ZoneServer::new(zone)
    }

    #[test]
    fn referral_carries_ns_and_glue() {
        let mut s = tld_server();
        let m = ask(&mut s, "www.vendor.com", RecordType::A);
        assert_eq!(m.header().rcode, Rcode::NoError);
        assert!(m.answers().is_empty(), "a referral answers nothing");
        assert_eq!(m.authorities().len(), 2);
        assert!(m
            .authorities()
            .iter()
            .all(|r| r.rtype() == RecordType::Ns && r.name().to_string() == "vendor.com"));
        // Glue: both nameservers' A records plus ns1's AAAA.
        assert_eq!(m.additionals().len(), 3);
        assert_eq!(s.referrals(), 1);
        assert_eq!(s.stats(), (0, 0));
    }

    #[test]
    fn apex_ns_is_not_a_referral() {
        let mut s = tld_server();
        // The origin's own NS set is an answer when asked for directly…
        let m = ask(&mut s, "com", RecordType::Ns);
        assert_eq!(m.answers().len(), 1);
        // …and a miss at the apex is NXDOMAIN, not a self-referral.
        let m = ask(&mut s, "com", RecordType::A);
        assert_eq!(m.header().rcode, Rcode::NxDomain);
        assert!(m.authorities().is_empty());
    }

    #[test]
    fn delegation_finds_deepest_cut_case_insensitively() {
        let zone = {
            let mut z = Zone::rooted("com");
            z.ns("vendor.com", 60, "ns1.vendor.com").a(
                "ns1.vendor.com",
                60,
                Ipv4Addr::new(198, 51, 100, 1),
            );
            z
        };
        let q = Name::parse("Deep.Sub.VENDOR.Com").unwrap();
        let referral = zone.delegation(&q).expect("covered by the cut");
        assert_eq!(referral.ns().len(), 1);
        assert_eq!(referral.glue().count(), 1);
        assert!(zone
            .delegation(&Name::parse("other.org").unwrap())
            .is_none());
    }

    #[test]
    fn referral_roundtrips_through_pooled_encode_path() {
        use crate::wire::BufPool;
        let q = Message::query(
            77,
            Question::new(Name::parse("www.vendor.com").unwrap(), RecordType::A),
        )
        .encode()
        .unwrap();
        let mut s = tld_server();
        let via_handle = s.handle(&q).expect("responds");

        let mut pool = BufPool::new();
        let mut buf = pool.checkout();
        let mut s2 = tld_server();
        assert!(s2.handle_into(&q, &mut buf));
        assert_eq!(buf.as_bytes(), &via_handle[..], "pooled path is identical");

        // Round-trip: the decoded referral re-encodes to the same bytes
        // through a *warm* pooled buffer without growing it.
        let decoded = Message::decode(buf.as_bytes()).unwrap();
        assert_eq!(decoded.authorities().len(), 2);
        assert_eq!(decoded.additionals().len(), 3);
        let warm_cap = buf.as_mut_vec().capacity();
        decoded.encode_into(&mut buf).unwrap();
        assert_eq!(buf.as_bytes(), &via_handle[..]);
        assert_eq!(buf.as_mut_vec().capacity(), warm_cap, "warm buffer reused");
        pool.checkin(buf);
    }

    #[test]
    fn cname_loop_bounded() {
        let mut zone = Zone::new();
        zone.cname("a.example", 60, "b.example");
        zone.cname("b.example", 60, "a.example");
        let mut s = ZoneServer::new(zone);
        // Must terminate (bounded follow), answering with the CNAME chain.
        let m = ask(&mut s, "a.example", RecordType::A);
        assert!(m.answers().len() <= 12);
    }
}

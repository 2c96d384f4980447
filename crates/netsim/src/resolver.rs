//! A recursive resolver with an allocation-free answer cache, driven by
//! the deterministic discrete-event [`scheduler`](crate::scheduler).
//!
//! # The state machine
//!
//! A cache miss walks the delegation tree exactly the way a real
//! iterative resolver does, as three event kinds on the scheduler:
//!
//! * **InitQuery** — a client query arrives; the cache missed, so a
//!   resolution chain starts at a root server.
//! * **QueryTarget** — the resolver sends a (case-normalized,
//!   uncompressed) query to one authoritative server; the packet is in
//!   flight for one seeded latency draw.
//! * **QueryResponse** — the server's answer arrives after a second
//!   draw and is classified: a final answer set, a CNAME to follow
//!   (restart at the root for the target), a referral to chase (use
//!   glue from the additional section, or recurse to resolve the
//!   nameserver's own address first), or a dead end.
//!
//! Every latency is a pure function of `(seed, link, event index)`, and
//! ties dispatch in schedule order, so the whole trace is a
//! deterministic function of the seed — byte-identical at any worker
//! count.
//!
//! # The cache (the hot path)
//!
//! [`ResolverCache`] keys entries by a hash of the *canonical* question
//! — the qname lowercased on the fly, plus the qtype — so any case
//! variant of the same question hits. An entry stores the full response
//! message in a pooled [`WireBuf`]; a hit copies it into the caller's
//! warm buffer and patches the transaction id, touching the heap not at
//! all. Expiry is batched: entries carry an expiry tick on the event
//! clock and a binary heap drains everything due whenever the clock
//! advances past it.
//!
//! # The attack surface
//!
//! [`RecursiveResolver::poison`] injects an attacker-controlled
//! response under a question's canonical key — the XDRI
//! (arXiv 2208.12003) upstream-compromise model. Every dependent
//! client from then on receives the injected bytes as an ordinary
//! cache hit: one poisoning event, fleet-wide redirection, no
//! per-device malicious delivery.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::net::Ipv4Addr;

use cml_dns::{
    BufPool, Message, Name, Rcode, RecordData, RecordType, WireBuf, WireName, WireQuestion,
    ZoneServer,
};

use crate::scheduler::{link_latency_us, mix64, Scheduler, SimTime};

/// Event-clock ticks per second of DNS TTL.
pub const TICKS_PER_SEC: SimTime = 1_000_000;

/// Most CNAME links one resolution will follow.
const MAX_CNAME_FOLLOWS: u8 = 8;

/// Most referrals one resolution will chase.
const MAX_REFERRALS: u8 = 16;

/// FNV-1a over the case-folded qname wire plus the qtype, finished with
/// a SplitMix64 mix. Length bytes are at most 63, outside the ASCII
/// uppercase range, so folding every byte never corrupts the structure.
fn canonical_key(qname_wire: &[u8], qtype: u16) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in qname_wire {
        h = (h ^ b.to_ascii_lowercase() as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    for b in qtype.to_be_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix64(h)
}

/// Counters the cache keeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a live entry.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Entries stored (including overwrites).
    pub inserts: u64,
    /// Entries dropped by batched TTL expiry.
    pub expirations: u64,
    /// Entries dropped to make room at capacity.
    pub evictions: u64,
    /// Entries injected by an attacker.
    pub poisonings: u64,
}

#[derive(Debug)]
struct CacheEntry {
    /// Canonical (lowercased) qname wire bytes, for collision safety.
    qname: WireBuf,
    qtype: u16,
    /// The full response message; byte 0..2 (the id) is patched per hit.
    answer: WireBuf,
    expires_at: SimTime,
}

/// The resolver's answer cache: hashed canonical-question keys, pooled
/// buffers, batched TTL expiry on the event clock. The steady-state hit
/// path ([`lookup_into`](Self::lookup_into) with a warm `out`) performs
/// zero heap allocations.
#[derive(Debug)]
pub struct ResolverCache {
    entries: HashMap<u64, CacheEntry>,
    expiry: BinaryHeap<Reverse<(SimTime, u64)>>,
    capacity: usize,
    pool: BufPool,
    stats: CacheStats,
}

impl ResolverCache {
    /// An empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        ResolverCache {
            entries: HashMap::with_capacity(capacity.min(4096)),
            expiry: BinaryHeap::new(),
            capacity: capacity.max(1),
            pool: BufPool::new(),
            stats: CacheStats::default(),
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Serves `query` from the cache if a live entry matches its
    /// canonical question: copies the stored response into `out`
    /// (contents replaced, capacity kept) with the query's transaction
    /// id patched in, and returns `true`. A warm `out` makes the whole
    /// hit allocation-free.
    pub fn lookup_into(&mut self, now: SimTime, query: &[u8], out: &mut Vec<u8>) -> bool {
        if let Some(q) = WireQuestion::parse(query) {
            let qname = q.qname.as_bytes();
            let key = canonical_key(qname, q.qtype);
            if let Some(e) = self.entries.get(&key) {
                if now < e.expires_at
                    && e.qtype == q.qtype
                    && e.qname.as_bytes().eq_ignore_ascii_case(qname)
                {
                    out.clear();
                    out.extend_from_slice(e.answer.as_bytes());
                    out[0..2].copy_from_slice(&q.id.to_be_bytes());
                    self.stats.hits += 1;
                    return true;
                }
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Stores `response` under `query`'s canonical question until
    /// `now + ttl_ticks`. A zero TTL stores nothing. At capacity the
    /// soonest-expiring entry is evicted first. Returns whether the
    /// entry was stored.
    pub fn insert(
        &mut self,
        now: SimTime,
        query: &[u8],
        response: &[u8],
        ttl_ticks: SimTime,
    ) -> bool {
        if ttl_ticks == 0 || response.len() < 12 {
            return false;
        }
        let Some(q) = WireQuestion::parse(query) else {
            return false;
        };
        let (qname, qtype) = (q.qname.as_bytes(), q.qtype);
        let key = canonical_key(qname, qtype);
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            self.evict_soonest();
            if self.entries.len() >= self.capacity {
                return false;
            }
        }
        let mut qbuf = self.pool.checkout();
        qbuf.as_mut_vec().extend_from_slice(qname);
        qbuf.as_mut_vec().make_ascii_lowercase();
        let mut abuf = self.pool.checkout();
        abuf.as_mut_vec().extend_from_slice(response);
        let expires_at = now.saturating_add(ttl_ticks);
        if let Some(old) = self.entries.insert(
            key,
            CacheEntry {
                qname: qbuf,
                qtype,
                answer: abuf,
                expires_at,
            },
        ) {
            self.pool.checkin(old.qname);
            self.pool.checkin(old.answer);
        }
        self.expiry.push(Reverse((expires_at, key)));
        self.stats.inserts += 1;
        true
    }

    /// [`insert`](Self::insert) as the attacker: same mechanics, counted
    /// as a poisoning. One successful call redirects every dependent
    /// client until the TTL runs out.
    pub fn poison(
        &mut self,
        now: SimTime,
        query: &[u8],
        response: &[u8],
        ttl_ticks: SimTime,
    ) -> bool {
        let stored = self.insert(now, query, response, ttl_ticks);
        if stored {
            self.stats.poisonings += 1;
        }
        stored
    }

    /// Batched expiry: drops every entry whose TTL has run out at `now`.
    /// Amortized O(expired · log n); nothing is scanned when nothing is
    /// due, so the hot path stays flat under churn.
    pub fn advance(&mut self, now: SimTime) {
        while let Some(&Reverse((due, key))) = self.expiry.peek() {
            if due > now {
                break;
            }
            self.expiry.pop();
            // The heap may hold stale tickets for keys that were
            // overwritten with a later expiry; drop only a true match.
            if self.entries.get(&key).is_some_and(|e| e.expires_at <= now) {
                let e = self.entries.remove(&key).expect("checked present");
                self.pool.checkin(e.qname);
                self.pool.checkin(e.answer);
                self.stats.expirations += 1;
            }
        }
    }

    fn evict_soonest(&mut self) {
        while let Some(Reverse((due, key))) = self.expiry.pop() {
            if self.entries.get(&key).is_some_and(|e| e.expires_at == due) {
                let e = self.entries.remove(&key).expect("checked present");
                self.pool.checkin(e.qname);
                self.pool.checkin(e.answer);
                self.stats.evictions += 1;
                return;
            }
        }
    }
}

/// The simulated internet: authoritative [`ZoneServer`]s by address,
/// plus the root hint a resolution chain starts from.
#[derive(Debug)]
pub struct Internet {
    servers: HashMap<Ipv4Addr, ZoneServer>,
    root: Ipv4Addr,
}

impl Internet {
    /// An internet whose root servers answer at `root`.
    pub fn new(root: Ipv4Addr) -> Self {
        Internet {
            servers: HashMap::new(),
            root,
        }
    }

    /// The root hint.
    pub fn root(&self) -> Ipv4Addr {
        self.root
    }

    /// Deploys an authoritative server at `addr`.
    pub fn add_server(&mut self, addr: Ipv4Addr, server: ZoneServer) -> &mut Self {
        self.servers.insert(addr, server);
        self
    }

    /// The server at `addr`, if one is deployed.
    pub fn server(&self, addr: Ipv4Addr) -> Option<&ZoneServer> {
        self.servers.get(&addr)
    }

    /// Delivers one query datagram to the server at `addr`, writing
    /// the response into `out`; `false` when nobody answers.
    fn handle_into(&mut self, addr: Ipv4Addr, query: &[u8], out: &mut WireBuf) -> bool {
        self.servers
            .get_mut(&addr)
            .is_some_and(|s| s.handle_into(query, out))
    }
}

/// Counters the resolver keeps (cache counters live in [`CacheStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolverStats {
    /// Client queries handled (hit or miss).
    pub client_queries: u64,
    /// Queries sent to authoritative servers.
    pub upstream_queries: u64,
    /// Referrals followed.
    pub referrals: u64,
    /// CNAME links followed.
    pub cname_follows: u64,
    /// Referrals whose nameserver had no glue and needed its own
    /// resolution chain.
    pub glue_chases: u64,
    /// Resolutions that dead-ended (NXDOMAIN, loops, silent servers).
    pub failures: u64,
}

/// One event on the resolution state machine. Queries always concern
/// the top frame of the resolution chain, so the events carry no name.
#[derive(Debug)]
enum ResolveEvent {
    InitQuery,
    QueryTarget {
        server: Ipv4Addr,
    },
    QueryResponse {
        server: Ipv4Addr,
        /// The response, in a buffer from the resolver's pool.
        bytes: Option<WireBuf>,
    },
}

/// One link of the resolution chain: the name currently being resolved
/// (lowercased; CNAME rewrites replace it) and loop budgets. Glue
/// chases push a fresh frame; its answer becomes the parent's next
/// server address.
#[derive(Debug)]
struct Frame {
    name: WireName,
    qtype: RecordType,
    cnames: u8,
    referrals: u8,
}

/// A recursive resolver over an [`Internet`], with a poisonable
/// [`ResolverCache`] and a deterministic event trace.
///
/// A miss reuses everything it touches: the frame stack, the upstream
/// query buffer and the pooled response buffers live on the resolver,
/// names travel as inline [`WireName`]s, the authoritative servers
/// answer into the pooled buffers, and trace lines are formatted
/// straight into the trace.
#[derive(Debug)]
pub struct RecursiveResolver {
    seed: u64,
    cache: ResolverCache,
    sched: Scheduler<ResolveEvent>,
    trace: String,
    stats: ResolverStats,
    next_id: u16,
    frames: Vec<Frame>,
    query_buf: Vec<u8>,
    pool: BufPool,
}

fn ip_link(addr: Ipv4Addr) -> u64 {
    u32::from(addr) as u64
}

impl RecursiveResolver {
    /// A resolver with the given latency seed and cache capacity.
    pub fn new(seed: u64, cache_capacity: usize) -> Self {
        RecursiveResolver {
            seed,
            cache: ResolverCache::new(cache_capacity),
            sched: Scheduler::new(),
            trace: String::new(),
            stats: ResolverStats::default(),
            next_id: 1,
            frames: Vec::new(),
            query_buf: Vec::new(),
            pool: BufPool::new(),
        }
    }

    /// The event clock, in ticks ([`TICKS_PER_SEC`] per second).
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Advances the event clock to `t` (arrivals between queries),
    /// expiring everything due on the way.
    pub fn advance_to(&mut self, t: SimTime) {
        self.sched.advance_to(t);
        self.cache.advance(self.sched.now());
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ResolverStats {
        self.stats
    }

    /// The answer cache.
    pub fn cache(&self) -> &ResolverCache {
        &self.cache
    }

    /// The event trace so far: one line per state-machine transition,
    /// stamped with the event clock. Byte-identical for equal seeds.
    pub fn trace(&self) -> &str {
        &self.trace
    }

    /// Discards the trace (long fleet runs truncate between cohorts).
    pub fn clear_trace(&mut self) {
        self.trace.clear();
    }

    /// Injects `response` under `query`'s canonical question for
    /// `ttl_secs` — the upstream cache-poisoning event. Returns whether
    /// the injection stuck.
    pub fn poison(&mut self, query: &[u8], response: &[u8], ttl_secs: u32) -> bool {
        let now = self.sched.now();
        let stored = self
            .cache
            .poison(now, query, response, ttl_secs as SimTime * TICKS_PER_SEC);
        if stored {
            let tag = WireQuestion::parse(query)
                .map(|q| RecordType::from_u16(q.qtype).to_string())
                .unwrap_or_default();
            self.trace_line(now, format_args!("poisoned {tag} ttl={ttl_secs}s"));
        }
        stored
    }

    /// Handles one client query: answers from the cache when a live
    /// entry matches, otherwise runs the full recursive chain and
    /// caches the result. Returns the response bytes, or `None` when
    /// resolution dead-ends.
    pub fn handle_query(&mut self, net: &mut Internet, query: &[u8]) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        if self.handle_query_into(net, query, &mut out) {
            Some(out)
        } else {
            None
        }
    }

    /// [`handle_query`](Self::handle_query) into a reusable buffer:
    /// replaces `out`'s contents and returns `true`, or returns `false`
    /// on a dead end. The cache-hit path with a warm `out` is
    /// allocation-free; a miss on a canonical query allocates only
    /// while decoding the upstream responses.
    pub fn handle_query_into(
        &mut self,
        net: &mut Internet,
        query: &[u8],
        out: &mut Vec<u8>,
    ) -> bool {
        self.stats.client_queries += 1;
        let now = self.sched.now();
        self.cache.advance(now);
        if self.cache.lookup_into(now, query, out) {
            return true;
        }
        let answered = match WireQuestion::parse(query) {
            Some(q) => self
                .run(net, q.qname, RecordType::from_u16(q.qtype))
                .and_then(|msg| {
                    let encoded = q.respond(Rcode::NoError, msg.answers(), &[], &[], out);
                    encoded.ok().map(|()| msg)
                }),
            None => self.resolve_decoded(net, query, out),
        };
        let Some(msg) = answered else {
            self.stats.failures += 1;
            return false;
        };
        let ttl_secs = msg
            .answers()
            .iter()
            .map(|a| a.ttl())
            .min()
            .unwrap_or(u32::MAX);
        self.cache.insert(
            self.sched.now(),
            query,
            out,
            ttl_secs as SimTime * TICKS_PER_SEC,
        );
        true
    }

    /// The miss path for client queries off the canonical shape:
    /// decode, resolve the first question, echo every question. Returns
    /// the final upstream answer with `out` holding the response.
    fn resolve_decoded(
        &mut self,
        net: &mut Internet,
        query: &[u8],
        out: &mut Vec<u8>,
    ) -> Option<Message> {
        let client = Message::decode(query)
            .ok()
            .filter(|m| !m.is_response() && !m.questions().is_empty())?;
        let q = &client.questions()[0];
        let msg = self.run(net, WireName::from(q.qname()), q.qtype())?;
        let mut resp = Message::response_to(&client);
        msg.answers()
            .iter()
            .for_each(|a| resp.push_answer(a.clone()));
        *out = resp.encode().ok()?;
        Some(msg)
    }

    /// Drives the InitQuery → QueryTarget → QueryResponse machine to
    /// completion for one question. Returns the decoded final response,
    /// whose answer section is the answer set.
    fn run(&mut self, net: &mut Internet, name: WireName, qtype: RecordType) -> Option<Message> {
        let root = net.root();
        self.frames.clear();
        self.frames.push(Frame {
            name: name.to_ascii_lowercase(),
            qtype,
            cnames: 0,
            referrals: 0,
        });
        self.sched.schedule_in(0, ResolveEvent::InitQuery);
        while let Some((t, ev)) = self.sched.pop() {
            match ev {
                ResolveEvent::InitQuery => {
                    let f = self.frames.last()?;
                    let (name, qtype) = (f.name, f.qtype);
                    self.trace_line(t, format_args!("init {name} {qtype}"));
                    self.send(root);
                }
                ResolveEvent::QueryTarget { server } => {
                    let f = self.frames.last()?;
                    let (name, qtype) = (f.name, f.qtype);
                    self.trace_line(t, format_args!("-> {server} {name} {qtype}"));
                    self.stats.upstream_queries += 1;
                    let id = self.next_id;
                    self.next_id = self.next_id.wrapping_add(1).max(1);
                    WireQuestion::encode_query(id, &name, qtype, &mut self.query_buf);
                    let mut resp = self.pool.checkout();
                    let bytes = if net.handle_into(server, &self.query_buf, &mut resp) {
                        Some(resp)
                    } else {
                        self.pool.checkin(resp);
                        None
                    };
                    let idx = self.sched.events_scheduled();
                    let delay = link_latency_us(self.seed, ip_link(server), idx);
                    self.sched
                        .schedule_in(delay, ResolveEvent::QueryResponse { server, bytes });
                }
                ResolveEvent::QueryResponse { server, bytes } => {
                    let step =
                        self.on_response(root, t, server, bytes.as_ref().map(WireBuf::as_bytes));
                    if let Some(b) = bytes {
                        self.pool.checkin(b);
                    }
                    match step {
                        Step::Continue => {}
                        Step::Done(msg) => return Some(msg),
                        Step::Fail => return None,
                    }
                }
            }
        }
        None
    }

    /// Classifies one upstream response and advances the frame stack.
    /// Whatever the server sent — a self-referral, a referral cycle, a
    /// CNAME loop, silence or garbage — ends in a typed step: loops run
    /// into the CNAME/referral budgets, never into a panic.
    fn on_response(
        &mut self,
        root: Ipv4Addr,
        t: SimTime,
        server: Ipv4Addr,
        bytes: Option<&[u8]>,
    ) -> Step {
        let Some(bytes) = bytes else {
            self.trace_line(t, format_args!("<- {server} silent"));
            return Step::Fail;
        };
        let Ok(msg) = Message::decode(bytes) else {
            self.trace_line(t, format_args!("<- {server} undecodable"));
            return Step::Fail;
        };
        if msg.header().rcode == Rcode::NxDomain {
            self.trace_line(t, format_args!("<- {server} nxdomain"));
            return Step::Fail;
        }
        let Some(frame) = self.frames.last() else {
            return Step::Fail;
        };
        let (name, qtype) = (frame.name, frame.qtype);
        let is_name = |n: &Name| WireName::from(n).eq_ignore_case(&name);
        // A final answer: records of the asked type at the asked name.
        let done = msg
            .answers()
            .iter()
            .any(|r| r.rtype() == qtype && is_name(r.name()));
        if done {
            let n = msg.answers().len();
            self.trace_line(t, format_args!("<- {server} answer ({n} records)"));
            self.frames.pop();
            if self.frames.is_empty() {
                return Step::Done(msg);
            }
            // A finished glue chase: the first address becomes the
            // parent frame's next server.
            let addr = msg.answers().iter().find_map(|r| match r.data() {
                RecordData::A(a) => Some(*a),
                _ => None,
            });
            let Some(addr) = addr else {
                return Step::Fail;
            };
            self.trace_line(t, format_args!("glue resolved -> {addr}"));
            self.send(addr);
            return Step::Continue;
        }
        // A CNAME for the current name: rewrite and restart at the root.
        let cname = msg.answers().iter().find_map(|r| match r.data() {
            RecordData::Cname(target) if is_name(r.name()) => Some(target),
            _ => None,
        });
        if let Some(target) = cname {
            let Some(frame) = self.frames.last_mut() else {
                return Step::Fail;
            };
            frame.cnames += 1;
            if frame.cnames > MAX_CNAME_FOLLOWS {
                self.trace_line(t, format_args!("cname loop"));
                return Step::Fail;
            }
            frame.name = WireName::from(target).to_ascii_lowercase();
            let name = frame.name;
            self.stats.cname_follows += 1;
            self.trace_line(t, format_args!("<- {server} cname -> {name}"));
            self.send(root);
            return Step::Continue;
        }
        // A referral: NS in the authority section, maybe glue in the
        // additional section.
        let ns = msg.authorities().iter().find_map(|r| match r.data() {
            RecordData::Ns(target) => Some((r.name(), target)),
            _ => None,
        });
        if let Some((cut, ns_name)) = ns {
            let Some(frame) = self.frames.last_mut() else {
                return Step::Fail;
            };
            frame.referrals += 1;
            if frame.referrals > MAX_REFERRALS {
                self.trace_line(t, format_args!("referral loop"));
                return Step::Fail;
            }
            self.stats.referrals += 1;
            let glue = msg.additionals().iter().find_map(|r| match r.data() {
                RecordData::A(a) if r.name().eq_ignore_case(ns_name) => Some(*a),
                _ => None,
            });
            if let Some(addr) = glue {
                self.trace_line(
                    t,
                    format_args!("<- {server} referral {cut} -> {ns_name} ({addr})"),
                );
                self.send(addr);
            } else {
                // Glue chase: resolve the nameserver's address first.
                self.trace_line(
                    t,
                    format_args!("<- {server} referral {cut} -> {ns_name} (no glue)"),
                );
                self.stats.glue_chases += 1;
                if self.frames.len() > MAX_REFERRALS as usize {
                    return Step::Fail;
                }
                self.frames.push(Frame {
                    name: WireName::from(ns_name).to_ascii_lowercase(),
                    qtype: RecordType::A,
                    cnames: 0,
                    referrals: 0,
                });
                self.send(root);
            }
            return Step::Continue;
        }
        self.trace_line(t, format_args!("<- {server} dead end"));
        Step::Fail
    }

    /// Schedules a QueryTarget for the top frame after one seeded
    /// latency draw.
    fn send(&mut self, server: Ipv4Addr) {
        let idx = self.sched.events_scheduled();
        let delay = link_latency_us(self.seed, ip_link(server), idx);
        self.sched
            .schedule_in(delay, ResolveEvent::QueryTarget { server });
    }

    /// Appends one stamped line, formatted straight into the trace.
    fn trace_line(&mut self, t: SimTime, line: fmt::Arguments<'_>) {
        use std::fmt::Write;
        let _ = writeln!(self.trace, "[{t:>10}us] {line}");
    }
}

/// Control-flow result of classifying one response.
enum Step {
    Continue,
    /// The final response; its answer section is the answer set.
    Done(Message),
    Fail,
}

/// Builds the small demo internet the CLI and the smoke tests resolve
/// against: a root zone delegating `example`, an `example` TLD zone
/// delegating `vendor.example` (with glue) and `cdn.example` (without
/// glue, forcing a chase), and authoritative zones with a CNAME chain.
/// Returns the internet and the name whose resolution exercises every
/// transition: `www.vendor.example` → CNAME → `edge.cdn.example`.
pub fn example_internet() -> (Internet, Name) {
    use cml_dns::Zone;

    let root_addr = Ipv4Addr::new(198, 41, 0, 4);
    let tld_addr = Ipv4Addr::new(192, 5, 6, 30);
    let vendor_addr = Ipv4Addr::new(203, 0, 113, 53);
    let cdn_addr = Ipv4Addr::new(203, 0, 113, 54);

    let mut root = Zone::rooted("");
    root.ns("example", 172800, "a.gtld.example")
        .a("a.gtld.example", 172800, tld_addr);

    let mut tld = Zone::rooted("example");
    tld.ns("vendor.example", 86400, "ns1.vendor.example")
        .a("ns1.vendor.example", 86400, vendor_addr)
        // The cdn nameserver is out-of-bailiwick (its address lives in
        // the vendor zone), so this delegation carries no glue and any
        // resolution under cdn.example chases the nameserver first.
        .ns("cdn.example", 86400, "cdnns.vendor.example");

    let mut vendor = Zone::rooted("vendor.example");
    vendor
        .a(
            "telemetry.vendor.example",
            300,
            Ipv4Addr::new(203, 0, 113, 7),
        )
        .cname("www.vendor.example", 600, "edge.cdn.example")
        .a("ns1.vendor.example", 86400, vendor_addr)
        .a("cdnns.vendor.example", 86400, cdn_addr);

    let mut cdn = Zone::rooted("cdn.example");
    cdn.a("edge.cdn.example", 120, Ipv4Addr::new(203, 0, 113, 80));

    let mut net = Internet::new(root_addr);
    net.add_server(root_addr, ZoneServer::new(root))
        .add_server(tld_addr, ZoneServer::new(tld))
        .add_server(vendor_addr, ZoneServer::new(vendor))
        .add_server(cdn_addr, ZoneServer::new(cdn));
    (net, Name::parse("www.vendor.example").expect("static name"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cml_dns::{Question, Record};

    fn a_query(id: u16, name: &str) -> Vec<u8> {
        Message::query(id, Question::new(Name::parse(name).unwrap(), RecordType::A))
            .encode()
            .unwrap()
    }

    #[test]
    fn resolves_through_delegation_and_glue() {
        let (mut net, _) = example_internet();
        let mut r = RecursiveResolver::new(7, 64);
        let resp = r
            .handle_query(&mut net, &a_query(42, "telemetry.vendor.example"))
            .expect("resolves");
        let m = Message::decode(&resp).unwrap();
        assert_eq!(m.id(), 42);
        assert_eq!(
            m.answers()[0].to_string(),
            "telemetry.vendor.example 300 IN A 203.0.113.7"
        );
        // Chain: root referral -> tld referral -> authoritative answer.
        assert_eq!(r.stats().referrals, 2);
        assert_eq!(r.stats().upstream_queries, 3);
        assert!(r.trace().contains("referral example -> a.gtld.example"));
    }

    #[test]
    fn follows_cname_across_zones_with_glue_chase() {
        let (mut net, www) = example_internet();
        let mut r = RecursiveResolver::new(7, 64);
        let q = a_query(9, &www.to_string());
        let resp = r.handle_query(&mut net, &q).expect("resolves");
        let m = Message::decode(&resp).unwrap();
        assert!(m
            .answers()
            .iter()
            .any(|rec| rec.to_string() == "edge.cdn.example 120 IN A 203.0.113.80"));
        assert_eq!(r.stats().cname_follows, 1);
        assert_eq!(r.stats().glue_chases, 1, "cdn delegation has no glue");
        assert!(r.trace().contains("(no glue)"));
        assert!(r.trace().contains("glue resolved ->"));
    }

    #[test]
    fn second_query_hits_cache_and_any_case_matches() {
        let (mut net, _) = example_internet();
        let mut r = RecursiveResolver::new(7, 64);
        let cold = r
            .handle_query(&mut net, &a_query(1, "telemetry.vendor.example"))
            .expect("resolves");
        let upstream_after_cold = r.stats().upstream_queries;
        let warm = r
            .handle_query(&mut net, &a_query(0xBEEF, "Telemetry.VENDOR.example"))
            .expect("cache hit");
        assert_eq!(
            r.stats().upstream_queries,
            upstream_after_cold,
            "no re-fetch"
        );
        assert_eq!(r.cache().stats().hits, 1);
        assert_eq!(warm[0..2], 0xBEEFu16.to_be_bytes(), "id patched");
        assert_eq!(warm[2..], cold[2..], "same answer bytes after the id");
    }

    #[test]
    fn trace_is_deterministic_for_a_seed() {
        let run = |seed| {
            let (mut net, www) = example_internet();
            let mut r = RecursiveResolver::new(seed, 64);
            r.handle_query(&mut net, &a_query(5, &www.to_string()))
                .expect("resolves");
            r.trace().to_string()
        };
        assert_eq!(run(7), run(7), "same seed, same trace bytes");
        assert_ne!(run(7), run(8), "latency draws depend on the seed");
    }

    #[test]
    fn nxdomain_fails_cleanly() {
        let (mut net, _) = example_internet();
        let mut r = RecursiveResolver::new(7, 64);
        assert!(r
            .handle_query(&mut net, &a_query(1, "ghost.vendor.example"))
            .is_none());
        assert_eq!(r.stats().failures, 1);
    }

    #[test]
    fn poisoned_cache_redirects_every_dependent_query() {
        let (mut net, _) = example_internet();
        let mut r = RecursiveResolver::new(7, 64);
        let q = a_query(1, "telemetry.vendor.example");
        // The attacker's answer: same question, attacker's address.
        let mut forged = Message::response_to(&Message::decode(&q).unwrap());
        forged.push_answer(Record::new(
            Name::parse("telemetry.vendor.example").unwrap(),
            600,
            RecordData::A(Ipv4Addr::new(10, 13, 37, 99)),
        ));
        let forged = forged.encode().unwrap();
        assert!(r.poison(&q, &forged, 600));
        // Every client from now on gets the injected bytes — the
        // authoritative servers are never consulted.
        for id in [2u16, 3, 4] {
            let resp = r
                .handle_query(&mut net, &a_query(id, "telemetry.vendor.example"))
                .expect("served from poison");
            let m = Message::decode(&resp).unwrap();
            assert_eq!(m.id(), id);
            assert_eq!(
                m.answers()[0].to_string(),
                "telemetry.vendor.example 600 IN A 10.13.37.99"
            );
        }
        assert_eq!(r.stats().upstream_queries, 0);
        assert_eq!(r.cache().stats().poisonings, 1);
        assert_eq!(r.cache().stats().hits, 3);
    }

    #[test]
    fn ttl_expiry_boundaries_are_exact() {
        let mut cache = ResolverCache::new(8);
        let q = a_query(1, "host.example");
        let resp = {
            let mut m = Message::response_to(&Message::decode(&q).unwrap());
            m.push_answer(Record::new(
                Name::parse("host.example").unwrap(),
                1,
                RecordData::A(Ipv4Addr::new(1, 2, 3, 4)),
            ));
            m.encode().unwrap()
        };
        cache.insert(1000, &q, &resp, 500);
        let mut out = Vec::new();
        assert!(
            cache.lookup_into(1499, &q, &mut out),
            "one tick before expiry"
        );
        assert!(!cache.lookup_into(1500, &q, &mut out), "exactly at expiry");
        assert!(
            !cache.lookup_into(1501, &q, &mut out),
            "one tick after expiry"
        );
        // Batched expiry actually reclaims the entry.
        cache.advance(1500);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().expirations, 1);
    }

    #[test]
    fn capacity_evicts_soonest_expiring_first() {
        let mut cache = ResolverCache::new(2);
        let mk = |name: &str| {
            let q = a_query(1, name);
            let mut m = Message::response_to(&Message::decode(&q).unwrap());
            m.push_answer(Record::new(
                Name::parse(name).unwrap(),
                60,
                RecordData::A(Ipv4Addr::new(1, 2, 3, 4)),
            ));
            (q, m.encode().unwrap())
        };
        let (qa, ra) = mk("a.example");
        let (qb, rb) = mk("b.example");
        let (qc, rc) = mk("c.example");
        cache.insert(0, &qa, &ra, 100); // expires first
        cache.insert(0, &qb, &rb, 1000);
        cache.insert(0, &qc, &rc, 500); // evicts a
        let mut out = Vec::new();
        assert!(
            !cache.lookup_into(1, &qa, &mut out),
            "soonest-expiring evicted"
        );
        assert!(cache.lookup_into(1, &qb, &mut out));
        assert!(cache.lookup_into(1, &qc, &mut out));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn warm_hit_path_reuses_the_output_buffer() {
        let (mut net, _) = example_internet();
        let mut r = RecursiveResolver::new(7, 64);
        let q = a_query(1, "telemetry.vendor.example");
        let mut out = Vec::new();
        assert!(r.handle_query_into(&mut net, &q, &mut out));
        assert!(r.handle_query_into(&mut net, &q, &mut out), "warm hit");
        let ptr = out.as_ptr();
        let cap = out.capacity();
        for _ in 0..64 {
            assert!(r.handle_query_into(&mut net, &q, &mut out));
        }
        assert_eq!(out.as_ptr(), ptr, "no reallocation across warm hits");
        assert_eq!(out.capacity(), cap);
    }
}

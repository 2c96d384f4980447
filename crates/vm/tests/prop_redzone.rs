//! Differential property test for the sanitizer's armed bulk accesses.
//!
//! With a redzone armed, `Memory::write_bytes` and `Memory::read_into`
//! split an access into a below-zone prefix, the poisoned middle and an
//! above-zone suffix instead of walking it byte by byte. The reference
//! here *is* the byte walk — a `write_u8` / `read_u8` loop — and every
//! generated case must agree with it on the `Result`, every region's
//! bytes, the read buffer, the redzone record returned by
//! `disarm_redzone` (which must also equal the record this file keeps
//! itself, byte by byte), and the dirty-page set (a snapshot taken before the
//! access, restored after it, must give back the snapshot's bytes).
//!
//! Cases cover read-write, read-only, no-access and executable regions
//! with and without unmapped gaps between them, zones ending inside, at
//! or beyond their region (and empty or wrapped zones), accesses that
//! straddle the buffer end, the zone edges and region edges, a hit
//! already recorded before the access, and ranges that wrap 2^32.

use cml_image::{Perms, SectionKind};
use cml_vm::{Addr, Fault, Memory, RedzoneAccess, RedzoneHit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 6_000;
const SPACE: u64 = 1 << 32;
const PRIOR_PC: Addr = 0x1111;
const ACCESS_PC: Addr = 0x2222;

const PERMS: [Perms; 5] = [Perms::RW, Perms::RW, Perms::READ, Perms::NONE, Perms::RWX];

/// One generated scenario, Debug-printed when a case fails.
#[derive(Debug, Clone)]
struct Case {
    regions: Vec<(Addr, u32, Perms)>,
    buffer: Addr,
    capacity: u32,
    zone_end: u64,
    /// A single-byte poisoned access made before the one under test.
    prior: Option<(Addr, bool)>,
    addr: Addr,
    len: usize,
    write: bool,
}

/// Lays out 1–3 regions upward from a low base, or (for wrap cases) one
/// region ending at 2^32 and one starting at 0.
fn gen_regions(rng: &mut StdRng) -> Vec<(Addr, u32, Perms)> {
    let mut perms = || PERMS[rng.gen_range(0..PERMS.len())];
    let (p0, p1, p2) = (perms(), perms(), perms());
    if rng.gen_range(0..4u32) == 0 {
        let top = rng.gen_range(1..=0x2800u32);
        let low = rng.gen_range(1..=0x2800u32);
        return vec![(0u32.wrapping_sub(top), top, p0), (0, low, p1)];
    }
    let mut out = Vec::new();
    let mut base = 0x0001_0000u32 + rng.gen_range(0..0x1000u32);
    for p in [p0, p1, p2].into_iter().take(rng.gen_range(1..=3)) {
        let size = rng.gen_range(1..=0x2800u32);
        out.push((base, size, p));
        let gap = if rng.gen::<bool>() {
            0
        } else {
            rng.gen_range(1..0x300u32)
        };
        base += size + gap;
    }
    out
}

/// An address within 40 bytes of a randomly picked anchor.
fn near(rng: &mut StdRng, anchors: &[u64]) -> u64 {
    let anchor = anchors[rng.gen_range(0..anchors.len())];
    (anchor + SPACE + rng.gen_range(0..80u64) - 40) % SPACE
}

fn gen_case(rng: &mut StdRng) -> Case {
    let regions = gen_regions(rng);
    let (rb, rs, _) = regions[rng.gen_range(0..regions.len())];
    let region_end = rb as u64 + rs as u64;
    let buffer = rb.wrapping_add(rng.gen_range(0..rs));
    let capacity = match rng.gen_range(0..8u32) {
        0 => rng.gen::<u32>(),
        1 => 0,
        _ => rng.gen_range(0..0x800u32),
    };
    let zone_start = buffer.wrapping_add(capacity) as u64;
    let zone_end = match rng.gen_range(0..6u32) {
        0 => region_end,
        1 => zone_start,
        2 => zone_start + rng.gen_range(1..0x400u64),
        3 => region_end + rng.gen_range(1..0x400u64),
        4 => region_end.saturating_sub(rng.gen_range(0..0x400u64)),
        _ => SPACE + rng.gen_range(0..0x400u64),
    };

    let mut anchors = vec![buffer as u64, zone_start, zone_end % SPACE, 0];
    for &(b, s, _) in &regions {
        anchors.extend([b as u64, (b as u64 + s as u64) % SPACE]);
    }
    let addr = near(rng, &anchors) as Addr;
    let len = match rng.gen_range(0..5u32) {
        0 => rng.gen_range(0..0x40usize),
        1 => rng.gen_range(0..0x3000usize),
        // Run just past the zone's end.
        2 if (addr as u64) < zone_end => {
            (zone_end - addr as u64 + rng.gen_range(1..0x40u64)).min(0x6000) as usize
        }
        _ => {
            // End the access near another anchor, through the wrap if
            // that anchor lies below the start.
            let to = near(rng, &anchors);
            ((to + SPACE - addr as u64) % SPACE).min(0x6000) as usize
        }
    };

    let prior = (rng.gen_range(0..3u32) == 0 && zone_end > zone_start).then(|| {
        let hi = zone_end.min(SPACE) - 1;
        let at = if rng.gen::<bool>() {
            hi
        } else {
            rng.gen_range(zone_start..=hi)
        };
        (at as Addr, rng.gen::<bool>())
    });
    Case {
        regions,
        buffer,
        capacity,
        zone_end,
        prior,
        addr,
        len,
        write: rng.gen::<bool>(),
    }
}

/// The redzone record a byte-at-a-time sanitizer keeps, written out
/// here so the reference's expected diagnostic does not share
/// `Memory`'s own bookkeeping.
struct Record {
    zone: (u64, u64),
    first: Option<Addr>,
    last: Addr,
    pc: Addr,
    access: RedzoneAccess,
}

impl Record {
    fn touch(&mut self, addr: Addr, pc: Addr, access: RedzoneAccess) {
        if !(self.zone.0..self.zone.1).contains(&(addr as u64)) {
            return;
        }
        match self.first {
            None => {
                self.first = Some(addr);
                self.last = addr;
                self.pc = pc;
                self.access = access;
            }
            Some(f) => {
                self.first = Some(f.min(addr));
                self.last = self.last.max(addr);
            }
        }
    }

    fn hit(&self, case: &Case) -> Option<RedzoneHit> {
        Some(RedzoneHit {
            buffer: case.buffer,
            capacity: case.capacity,
            first: self.first?,
            last: self.last,
            pc: self.pc,
            access: self.access,
        })
    }
}

/// The per-byte reference: one `write_u8` per byte, in order.
fn write_bytes_ref(
    m: &mut Memory,
    rec: &mut Record,
    addr: Addr,
    bytes: &[u8],
    pc: Addr,
) -> Result<(), Fault> {
    for (i, b) in bytes.iter().enumerate() {
        let a = addr.wrapping_add(i as u32);
        rec.touch(a, pc, RedzoneAccess::Store);
        m.write_u8(a, *b, pc)?;
    }
    Ok(())
}

/// The per-byte reference: one `read_u8` per byte, in order.
fn read_into_ref(
    m: &Memory,
    rec: &mut Record,
    addr: Addr,
    buf: &mut [u8],
    pc: Addr,
) -> Result<(), Fault> {
    for (i, slot) in buf.iter_mut().enumerate() {
        let a = addr.wrapping_add(i as u32);
        rec.touch(a, pc, RedzoneAccess::Load);
        *slot = m.read_u8(a, pc)?;
    }
    Ok(())
}

fn contents(m: &Memory) -> Vec<(Addr, Vec<u8>)> {
    m.regions()
        .iter()
        .map(|r| (r.base(), r.data().to_vec()))
        .collect()
}

/// What one side of the comparison observed.
#[derive(Debug, PartialEq)]
struct Observed {
    result: Result<(), Fault>,
    buf: Vec<u8>,
    regions: Vec<(Addr, Vec<u8>)>,
    hit: Option<RedzoneHit>,
}

/// Which interesting shapes a case exercised (for the coverage floor).
#[derive(Default)]
struct Seen {
    wrapped: usize,
    prior_hit: usize,
    faulted: usize,
    straddled_zone: usize,
}

fn run_case(case: &Case, rng: &mut StdRng, seen: &mut Seen) {
    let mut m = Memory::new();
    for (i, &(base, size, perms)) in case.regions.iter().enumerate() {
        m.map(format!("r{i}"), Some(SectionKind::Data), base, size, perms);
        let mut fill = vec![0u8; size as usize];
        rng.fill_bytes(&mut fill);
        m.poke(base, &fill).expect("mapped");
    }
    let before = contents(&m);
    let snap = m.snapshot();
    m.arm_redzone(case.buffer, case.capacity, case.zone_end);
    let mut rec = Record {
        zone: (
            case.buffer.wrapping_add(case.capacity) as u64,
            case.zone_end,
        ),
        first: None,
        last: 0,
        pc: 0,
        access: RedzoneAccess::Store,
    };
    if let Some((at, store)) = case.prior {
        let prior = if store {
            rec.touch(at, PRIOR_PC, RedzoneAccess::Store);
            m.write_u8(at, 0x5A, PRIOR_PC)
        } else {
            rec.touch(at, PRIOR_PC, RedzoneAccess::Load);
            m.read_u8(at, PRIOR_PC).map(|_| ())
        };
        prior.expect("a poisoned access is always diverted");
    }
    let mut data = vec![0u8; case.len];
    rng.fill_bytes(&mut data);

    let mut reference = m.clone();
    let mut observe = |m: &mut Memory, segmented: bool| {
        let mut buf = vec![0xEEu8; case.len];
        let result = match (case.write, segmented) {
            (true, true) => m.write_bytes(case.addr, &data, ACCESS_PC),
            (true, false) => write_bytes_ref(m, &mut rec, case.addr, &data, ACCESS_PC),
            (false, true) => m.read_into(case.addr, &mut buf, ACCESS_PC),
            (false, false) => read_into_ref(m, &mut rec, case.addr, &mut buf, ACCESS_PC),
        };
        Observed {
            result,
            buf,
            regions: contents(m),
            hit: m.disarm_redzone(),
        }
    };
    let want = observe(&mut reference, false);
    let got = observe(&mut m, true);
    assert_eq!(want.hit, rec.hit(case), "byte walk misrecorded: {case:?}");
    assert_eq!(
        got, want,
        "segmented access diverged from the byte walk: {case:?}"
    );

    m.restore(&snap);
    assert_eq!(
        contents(&m),
        before,
        "restore missed a dirty page: {case:?}"
    );
    // The rewind zeroed the bitmap in place; tracking must still be live.
    let (base, size, _) = case.regions[0];
    if m.write_bytes(base, &vec![0xC3; size as usize], 0).is_ok() {
        m.restore(&snap);
        assert_eq!(
            contents(&m),
            before,
            "second rewind missed a page: {case:?}"
        );
    }

    let start = case.addr as u64;
    let zone_start = case.buffer.wrapping_add(case.capacity) as u64;
    seen.wrapped += usize::from(start + case.len as u64 > SPACE);
    seen.prior_hit += usize::from(case.prior.is_some());
    seen.faulted += usize::from(want.result.is_err());
    seen.straddled_zone += usize::from(
        start < zone_start && start + case.len as u64 > case.zone_end && case.zone_end > zone_start,
    );
}

#[test]
fn segmented_armed_accesses_match_the_byte_walk() {
    let mut rng = StdRng::seed_from_u64(0x0001_2865);
    let mut seen = Seen::default();
    for _ in 0..CASES {
        let case = gen_case(&mut rng);
        run_case(&case, &mut rng, &mut seen);
    }
    // The generator must keep reaching the shapes the test is for.
    for (what, n) in [
        ("wrapping ranges", seen.wrapped),
        ("prior hits", seen.prior_hit),
        ("faulting accesses", seen.faulted),
        ("clean prefix + zone + suffix", seen.straddled_zone),
    ] {
        assert!(n >= CASES / 100, "only {n} cases with {what}");
    }
}

//! AFL-style edge-coverage bitmap for the fuzzing subsystem.
//!
//! The map is a fixed-size table of saturating 8-bit hit counters
//! indexed by `hash(prev) ^ hash(cur)` — the classic AFL edge encoding,
//! here riding the IR dispatch path: every lowered-block entry (and
//! every instruction on the per-insn reference path) notes its location,
//! so two executions that traverse different control-flow edges light
//! up different counters even when they visit the same set of blocks.
//!
//! Because most of the simulated daemon's DNS parsing is *ported* code
//! running natively (it writes through the machine's MMU but executes
//! no guest instructions), the map also accepts **virtual edges** via
//! [`crate::Machine::cov_note`]: instrumentation points in the ported
//! `get_name` loop feed bucketed parse-progress locations into the same
//! map, exactly like compile-time instrumentation of a real target.
//! Guest edges and virtual edges share one `prev` register, so the
//! interleaving of boot-time execution and parse progress is itself an
//! observable path signal.
//!
//! The hook is off by default and costs exploit runs a single `Option`
//! check per dispatched block, mirroring the shadow-memory sanitizer's
//! "pay only when armed" contract.

/// Number of counters in the edge map. A power of two so indexing is a
/// mask; 8 KiB keeps the whole map in L1 while leaving collision rates
/// low for a workload of this size (the real daemon lights up a few
/// hundred edges).
pub const COV_MAP_SIZE: usize = 1 << 13;

/// Mixes a location (a guest pc, or a virtual-edge id) into a
/// well-distributed 32-bit value. Multiplicative hashing by the golden
/// ratio, same recipe as the decode cache.
#[inline]
fn mix(loc: u32) -> u32 {
    let h = loc.wrapping_mul(0x9E37_79B1);
    h ^ (h >> 16)
}

/// [`mix`] exposed to the threaded-code IR lowering, which bakes the
/// mixed block-entry hash into a `Cov` op at build time so the dispatch
/// loop's coverage update is two loads, an xor and a saturating add.
#[inline]
pub(crate) fn premix(loc: u32) -> u32 {
    mix(loc)
}

/// A fixed-size edge-coverage map: saturating hit counters plus the
/// rolling `prev` location register.
#[derive(Debug, Clone)]
pub struct CoverageMap {
    map: Box<[u8]>,
    prev: u32,
}

impl Default for CoverageMap {
    fn default() -> Self {
        CoverageMap::new()
    }
}

impl CoverageMap {
    /// A zeroed map.
    pub fn new() -> Self {
        CoverageMap {
            map: vec![0u8; COV_MAP_SIZE].into_boxed_slice(),
            prev: 0,
        }
    }

    /// Records one location: bumps the counter for the edge from the
    /// previously noted location to `loc`.
    #[inline]
    pub fn note(&mut self, loc: u32) {
        let h = mix(loc);
        let idx = (self.prev ^ h) as usize & (COV_MAP_SIZE - 1);
        self.map[idx] = self.map[idx].saturating_add(1);
        // Shift so that A→B and B→A land in different slots.
        self.prev = h >> 1;
    }

    /// Records one location whose [`premix`] hash was computed at IR
    /// build time. `note_premixed(premix(loc))` updates the map exactly
    /// like `note(loc)` — the differential suite holds the two dispatch
    /// modes to byte-identical maps.
    #[inline]
    pub(crate) fn note_premixed(&mut self, h: u32) {
        let idx = (self.prev ^ h) as usize & (COV_MAP_SIZE - 1);
        self.map[idx] = self.map[idx].saturating_add(1);
        self.prev = h >> 1;
    }

    /// Zeroes every counter and the `prev` register — called by the
    /// fuzzer between inputs so each execution reports its own edges.
    pub fn reset(&mut self) {
        self.map.fill(0);
        self.prev = 0;
    }

    /// The raw counter bytes ([`COV_MAP_SIZE`] of them).
    pub fn bytes(&self) -> &[u8] {
        &self.map
    }

    /// How many distinct edges have a nonzero counter.
    pub fn edges(&self) -> usize {
        self.map.iter().filter(|&&c| c != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_are_order_sensitive() {
        let mut ab = CoverageMap::new();
        ab.note(0x1000);
        ab.note(0x2000);
        let mut ba = CoverageMap::new();
        ba.note(0x2000);
        ba.note(0x1000);
        assert_ne!(ab.bytes(), ba.bytes(), "A→B must differ from B→A");
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let mut m = CoverageMap::new();
        for _ in 0..300 {
            m.note(0x4000);
            m.note(0x4004);
        }
        assert_eq!(m.bytes().iter().max().copied(), Some(255));
        assert!(m.edges() >= 2);
    }

    #[test]
    fn premixed_note_matches_plain_note() {
        let mut plain = CoverageMap::new();
        let mut pre = CoverageMap::new();
        for loc in [0x1000u32, 0x2044, 0xAAAA_0001, 7] {
            plain.note(loc);
            pre.note_premixed(premix(loc));
        }
        assert_eq!(plain.bytes(), pre.bytes(), "same edges, same map");
    }

    #[test]
    fn reset_clears_counters_and_history() {
        let mut m = CoverageMap::new();
        m.note(0xAA);
        m.note(0xBB);
        let first = m.bytes().to_vec();
        m.reset();
        assert_eq!(m.edges(), 0);
        m.note(0xAA);
        m.note(0xBB);
        assert_eq!(m.bytes(), &first[..], "reset restarts the edge stream");
    }
}

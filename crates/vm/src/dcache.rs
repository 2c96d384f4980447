//! Predecoded-instruction cache.
//!
//! Decoding is pure — the same bytes at the same pc always decode to the
//! same [`Insn`](crate::x86::Insn) — so the fetch/decode half of the
//! interpreter loop can be memoised. The cache is owned by
//! [`Memory`](crate::Memory) and uses *push* invalidation: every path
//! that can change code bytes or their executability (`write_u8`,
//! `poke`, `set_perms`, `map`) notifies the cache directly, so a cache
//! hit needs **no** validation — no permission re-check, no generation
//! compare. This keeps self-modifying shellcode and per-boot reloads
//! correct while the hot path is a single probe of an open-addressing
//! table.
//!
//! Two tables share that invalidation state: per-instruction decodes
//! (the reference path's, and the input of block formation) and the
//! lowered IR blocks built from them.
//!
//! Invalidation is deliberately coarse (any write to a page that holds
//! cached decodes flushes both tables): flushes are rare — code is
//! written in bursts and then executed — and coarse flushing keeps the
//! write path to one compare in the common sequential-write case.

use std::sync::Arc;

use cml_image::Addr;

use crate::ir::IrBlock;
use crate::{arm, riscv, x86};

/// Pages are the invalidation granule.
pub(crate) const PAGE_SIZE: u32 = 0x1000;
pub(crate) const PAGE_MASK: u32 = !(PAGE_SIZE - 1);

/// A memoised decode for either ISA.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CachedInsn {
    /// x86 instruction plus its encoded length.
    X86(x86::Insn, u8),
    /// ARM instructions are always 4 bytes.
    Arm(arm::Insn),
    /// RISC-V instruction (RVC forms pre-expanded to RV32I) plus its
    /// encoded length: 2 for a compressed parcel, 4 for a base word.
    Riscv(riscv::Insn, u8),
}

impl CachedInsn {
    /// Encoded length of the instruction in bytes.
    pub(crate) fn byte_len(self) -> u32 {
        match self {
            CachedInsn::X86(_, len) => len as u32,
            CachedInsn::Arm(_) => 4,
            CachedInsn::Riscv(_, len) => len as u32,
        }
    }
}

/// Open-addressing pc → `V` table, the storage behind both halves of
/// the [`DecodeCache`]. Starts empty (a machine that never executes
/// pays nothing) and grows geometrically from a small table, so
/// short-lived machines pay a few hundred nanoseconds at most.
#[derive(Debug, Clone)]
struct PcTable<V> {
    slots: Vec<Option<(Addr, V)>>,
    len: usize,
}

impl<V> Default for PcTable<V> {
    fn default() -> Self {
        PcTable {
            slots: Vec::new(),
            len: 0,
        }
    }
}

const INITIAL_SLOTS: usize = 256;

fn hash(pc: Addr) -> usize {
    (pc.wrapping_mul(0x9E37_79B1)) as usize
}

impl<V: Clone> PcTable<V> {
    fn get(&self, pc: Addr) -> Option<&V> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = hash(pc) & mask;
        loop {
            match &self.slots[i] {
                Some((at, v)) if *at == pc => return Some(v),
                Some(_) => i = (i + 1) & mask,
                None => return None,
            }
        }
    }

    /// Inserts `v` at `pc` unless an entry is already there.
    fn insert(&mut self, pc: Addr, v: V) {
        if self.slots.len() * 3 <= (self.len + 1) * 4 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = hash(pc) & mask;
        loop {
            match &self.slots[i] {
                Some((at, _)) if *at == pc => return,
                Some(_) => i = (i + 1) & mask,
                None => {
                    self.slots[i] = Some((pc, v));
                    self.len += 1;
                    return;
                }
            }
        }
    }

    fn grow(&mut self) {
        let cap = if self.slots.is_empty() {
            INITIAL_SLOTS
        } else {
            self.slots.len() * 4
        };
        let old = std::mem::replace(&mut self.slots, vec![None; cap]);
        let mask = cap - 1;
        for e in old.into_iter().flatten() {
            let mut i = hash(e.0) & mask;
            while self.slots[i].is_some() {
                i = (i + 1) & mask;
            }
            self.slots[i] = Some(e);
        }
    }

    /// Empties the table, keeping its capacity.
    fn clear(&mut self) {
        if self.len > 0 {
            self.slots.iter_mut().for_each(|s| *s = None);
            self.len = 0;
        }
    }
}

/// The predecoded-instruction cache: a per-instruction table (the
/// reference path's decodes, which block formation also reads) and a
/// lowered-IR table, sharing one push-invalidation state.
#[derive(Debug, Clone)]
pub(crate) struct DecodeCache {
    enabled: bool,
    /// Whether the threaded-code IR dispatcher may use the IR table
    /// (per-insn entries stay usable either way).
    ir_enabled: bool,
    insns: PcTable<CachedInsn>,
    ir: PcTable<Arc<IrBlock>>,
    /// Sorted page bases that contain (or contribute bytes to) cached
    /// decodes. Writes consult this to decide whether to flush.
    code_pages: Vec<u32>,
    /// Last page verified *not* to hold cached decodes — dedups the
    /// `code_pages` lookup for sequential write bursts.
    last_clean_page: Option<u32>,
    /// Bumped on every flush; the IR dispatcher snapshots it so a
    /// self-modifying write mid-block aborts the lowered block.
    generation: u64,
    hits: u64,
    misses: u64,
}

impl Default for DecodeCache {
    fn default() -> Self {
        DecodeCache {
            enabled: true,
            ir_enabled: true,
            insns: PcTable::default(),
            ir: PcTable::default(),
            code_pages: Vec::new(),
            last_clean_page: None,
            generation: 0,
            hits: 0,
            misses: 0,
        }
    }
}

impl DecodeCache {
    /// Turns the cache on or off (off = decode every step; used by the
    /// ablation benchmark). Disabling drops all cached decodes.
    pub(crate) fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
        if !on {
            self.flush();
            self.insns = PcTable::default();
            self.ir = PcTable::default();
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns the threaded-code IR dispatcher on or off for this machine
    /// (off selects the per-instruction reference path). Disabling
    /// drops all lowered blocks.
    pub(crate) fn set_ir_enabled(&mut self, on: bool) {
        self.ir_enabled = on;
        if !on {
            self.ir = PcTable::default();
        }
    }

    pub(crate) fn ir_enabled(&self) -> bool {
        self.ir_enabled
    }

    /// Flush-generation counter; bumped whenever cached state is dropped.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// `(hits, misses)` counters of the per-instruction table.
    pub(crate) fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Looks up a memoised decode. A hit is valid by construction: any
    /// mutation since insertion would have flushed the table.
    pub(crate) fn get(&mut self, pc: Addr) -> Option<CachedInsn> {
        if !self.enabled {
            return None;
        }
        let hit = self.insns.get(pc).copied();
        if hit.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Memoises a successful decode of `byte_len` bytes at `pc`.
    pub(crate) fn insert(&mut self, pc: Addr, insn: CachedInsn, byte_len: u32) {
        if !self.enabled {
            return;
        }
        self.insns.insert(pc, insn);
        // Record every page the encoding touches so writes to any of
        // them (including the tail page of a straddling x86 insn) flush.
        self.note_code_span(pc, byte_len);
    }

    /// Looks up a lowered IR block starting at `pc`. Valid by
    /// construction, like per-insn entries (push invalidation), and
    /// additionally hook-free by construction: hook registration
    /// flushes, and the builder refuses hooked start addresses, so a hit
    /// never needs a hook probe.
    pub(crate) fn get_ir(&self, pc: Addr) -> Option<Arc<IrBlock>> {
        if !self.enabled || !self.ir_enabled {
            return None;
        }
        self.ir.get(pc).cloned()
    }

    /// Memoises a lowered IR block whose encodings span `span` bytes.
    pub(crate) fn insert_ir(&mut self, pc: Addr, block: Arc<IrBlock>, span: u32) {
        if !self.enabled || !self.ir_enabled {
            return;
        }
        self.ir.insert(pc, block);
        self.note_code_span(pc, span);
    }

    /// Marks every page of `[pc, pc + span)` as holding cached decodes.
    fn note_code_span(&mut self, pc: Addr, span: u32) {
        let mut page = pc & PAGE_MASK;
        let last = pc.wrapping_add(span.saturating_sub(1)) & PAGE_MASK;
        loop {
            if let Err(at) = self.code_pages.binary_search(&page) {
                self.code_pages.insert(at, page);
                // The page just became cache-backed; a previous "clean"
                // verdict for it no longer holds.
                self.last_clean_page = None;
            }
            if page == last {
                break;
            }
            page = page.wrapping_add(PAGE_SIZE);
        }
    }

    /// A byte at `addr` is about to change. One compare in the common
    /// case (sequential writes to a non-code page); flushes the table
    /// when the page holds cached decodes.
    #[inline]
    pub(crate) fn note_write(&mut self, addr: Addr) {
        let page = addr & PAGE_MASK;
        if self.last_clean_page == Some(page) {
            return;
        }
        if self.code_pages.binary_search(&page).is_ok() {
            self.flush();
        }
        self.last_clean_page = Some(page);
    }

    /// A whole range is about to change (chunked writes / pokes).
    pub(crate) fn note_write_range(&mut self, addr: Addr, len: usize) {
        let mut page = addr & PAGE_MASK;
        let last = addr.wrapping_add(len.saturating_sub(1) as u32) & PAGE_MASK;
        loop {
            self.note_write(page);
            if page == last {
                break;
            }
            page = page.wrapping_add(PAGE_SIZE);
        }
    }

    /// Drops every cached decode and lowered block (permission change,
    /// new mapping, hook registration, snapshot restore, or a write to a
    /// cached page).
    pub(crate) fn flush(&mut self) {
        self.insns.clear();
        self.ir.clear();
        self.code_pages.clear();
        self.last_clean_page = None;
        self.generation = self.generation.wrapping_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x86_nop() -> CachedInsn {
        CachedInsn::X86(x86::Insn::Nop, 1)
    }

    #[test]
    fn get_insert_roundtrip_and_stats() {
        let mut c = DecodeCache::default();
        assert!(c.get(0x1000).is_none());
        c.insert(0x1000, x86_nop(), 1);
        assert!(matches!(
            c.get(0x1000),
            Some(CachedInsn::X86(x86::Insn::Nop, 1))
        ));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn write_to_cached_page_flushes() {
        let mut c = DecodeCache::default();
        c.insert(0x1000, x86_nop(), 1);
        c.note_write(0x8000); // unrelated page: no flush
        assert!(c.get(0x1000).is_some());
        c.note_write(0x1A00); // same page as the cached pc
        assert!(c.get(0x1000).is_none());
    }

    #[test]
    fn clean_page_verdict_is_revoked_when_page_becomes_cached() {
        let mut c = DecodeCache::default();
        c.note_write(0x1004); // page 0x1000 marked clean
        c.insert(0x1000, x86_nop(), 1); // …now it holds a decode
        c.note_write(0x1004); // must flush despite the earlier verdict
        assert!(c.get(0x1000).is_none());
    }

    #[test]
    fn straddling_insert_tracks_tail_page() {
        let mut c = DecodeCache::default();
        c.insert(0x1FFE, CachedInsn::X86(x86::Insn::Nop, 5), 5);
        c.note_write(0x2001); // tail page of the straddling encoding
        assert!(c.get(0x1FFE).is_none());
    }

    #[test]
    fn ir_table_shares_invalidation_but_not_stats() {
        let mut c = DecodeCache::default();
        let block = Arc::new(crate::ir::lower(&[x86_nop()], 0x1000));
        c.insert_ir(0x1000, block, 1);
        assert!(c.get_ir(0x1000).is_some());
        assert!(c.get_ir(0x2000).is_none());
        assert_eq!(c.stats(), (0, 0), "only per-insn probes are counted");
        c.note_write(0x1004);
        assert!(c.get_ir(0x1000).is_none(), "a write to its page orphans it");
        c.set_ir_enabled(false);
        c.insert_ir(0x1000, Arc::new(crate::ir::lower(&[x86_nop()], 0x1000)), 1);
        assert!(c.get_ir(0x1000).is_none(), "IR off keeps the table empty");
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut c = DecodeCache::default();
        for i in 0..2_000u32 {
            c.insert(0x1000 + i, x86_nop(), 1);
        }
        for i in 0..2_000u32 {
            assert!(c.get(0x1000 + i).is_some(), "entry {i} survived growth");
        }
    }
}

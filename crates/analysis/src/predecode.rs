//! Shared per-address predecode memo — the static twin of the VM's
//! predecoded instruction cache.
//!
//! CFG recovery decodes and lifts each text address through this memo
//! ([`cml_vm::lift::lift`]), so an address is decoded and lifted once;
//! the taint pass, the value-set analysis and frame recovery then read
//! the lifted effects off the recovered blocks.

use std::collections::HashMap;

use cml_image::{Addr, Image};
use cml_vm::lift::{lift, Lifted};

/// Per-address decode memo over one image.
pub struct Predecoder<'a> {
    image: &'a Image,
    memo: HashMap<Addr, Option<Lifted>>,
    hits: u64,
    misses: u64,
}

impl<'a> Predecoder<'a> {
    /// A fresh memo over `image`.
    pub fn new(image: &'a Image) -> Self {
        Predecoder {
            image,
            memo: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Decodes and lifts the instruction at `addr`, bounded by its
    /// section. Returns `None` for unmapped or undecodable bytes.
    pub fn decode_at(&mut self, addr: Addr) -> Option<Lifted> {
        if let Some(cached) = self.memo.get(&addr) {
            self.hits += 1;
            return *cached;
        }
        self.misses += 1;
        let decoded = self.decode_uncached(addr);
        self.memo.insert(addr, decoded);
        decoded
    }

    /// Memo hits so far (an address decoded once, consumed again).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Memo misses so far (fresh decodes).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    fn decode_uncached(&self, addr: Addr) -> Option<Lifted> {
        let section = self.image.section_containing(addr)?;
        let off = (addr - section.base()) as usize;
        lift(self.image.arch(), section.bytes().get(off..)?, addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cml_firmware::build_image_for;
    use cml_image::Arch;

    #[test]
    fn second_decode_of_an_address_hits_the_memo() {
        let (img, _) = build_image_for(Arch::X86, 0, false);
        let entry = img.symbol("parse_response").unwrap().addr();
        let mut pred = Predecoder::new(&img);
        let first = pred.decode_at(entry).expect("decodes");
        let again = pred.decode_at(entry).expect("decodes");
        assert_eq!(first, again);
        assert_eq!(pred.misses(), 1);
        assert_eq!(pred.hits(), 1);
    }

    #[test]
    fn unmapped_addresses_memoize_as_undecodable() {
        let (img, _) = build_image_for(Arch::Armv7, 0, false);
        let mut pred = Predecoder::new(&img);
        assert!(pred.decode_at(0xDEAD_0001).is_none());
        assert!(pred.decode_at(0xDEAD_0001).is_none());
        assert_eq!(pred.misses(), 1);
        assert_eq!(pred.hits(), 1);
    }
}

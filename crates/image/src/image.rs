//! The assembled image and its query API.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::{Addr, Arch, Section, SectionKind, Symbol};

/// Errors from image construction or queries.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ImageError {
    /// Two sections overlap in the address space.
    Overlap {
        /// First of the two overlapping kinds.
        a: SectionKind,
        /// Second of the two overlapping kinds.
        b: SectionKind,
    },
    /// Two symbols share a name.
    DuplicateSymbol(String),
    /// A symbol's address is not covered by any section.
    DanglingSymbol(String),
    /// A required symbol is missing.
    MissingSymbol(String),
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::Overlap { a, b } => write!(f, "sections {a} and {b} overlap"),
            ImageError::DuplicateSymbol(n) => write!(f, "duplicate symbol {n}"),
            ImageError::DanglingSymbol(n) => write!(f, "symbol {n} outside all sections"),
            ImageError::MissingSymbol(n) => write!(f, "missing symbol {n}"),
        }
    }
}

impl Error for ImageError {}

/// A complete binary image: architecture, sections and symbols.
///
/// `Image` is immutable once built (see [`crate::ImageBuilder`]); the VM's
/// loader copies its contents into permissioned memory, applying the
/// protection policy and ASLR slides.
#[derive(Debug, Clone)]
pub struct Image {
    arch: Arch,
    sections: Vec<Section>,
    symbols: Vec<Symbol>,
    by_name: HashMap<String, usize>,
}

impl Image {
    pub(crate) fn from_parts(
        arch: Arch,
        sections: Vec<Section>,
        symbols: Vec<Symbol>,
    ) -> Result<Self, ImageError> {
        // Overlap check: sort by base, ensure disjoint.
        let mut sorted: Vec<&Section> = sections.iter().collect();
        sorted.sort_by_key(|s| s.base());
        for w in sorted.windows(2) {
            if w[0].end() > w[1].base() as u64 {
                return Err(ImageError::Overlap {
                    a: w[0].kind(),
                    b: w[1].kind(),
                });
            }
        }
        let mut by_name = HashMap::with_capacity(symbols.len());
        for (i, sym) in symbols.iter().enumerate() {
            if by_name.insert(sym.name().to_string(), i).is_some() {
                return Err(ImageError::DuplicateSymbol(sym.name().to_string()));
            }
            if !sections.iter().any(|s| s.contains(sym.addr())) {
                return Err(ImageError::DanglingSymbol(sym.name().to_string()));
            }
        }
        Ok(Image {
            arch,
            sections,
            symbols,
            by_name,
        })
    }

    /// Target architecture.
    pub fn arch(&self) -> Arch {
        self.arch
    }

    /// All sections, in insertion order.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// All symbols, in insertion order.
    pub fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }

    /// Looks up a symbol by exact name.
    pub fn symbol(&self, name: &str) -> Option<&Symbol> {
        self.by_name.get(name).map(|&i| &self.symbols[i])
    }

    /// Looks up a symbol, converting absence into an error (for loaders
    /// that require certain symbols).
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::MissingSymbol`] when absent.
    pub fn require_symbol(&self, name: &str) -> Result<&Symbol, ImageError> {
        self.symbol(name)
            .ok_or_else(|| ImageError::MissingSymbol(name.to_string()))
    }

    /// The section of the given kind, if present.
    pub fn section(&self, kind: SectionKind) -> Option<&Section> {
        self.sections.iter().find(|s| s.kind() == kind)
    }

    /// The section containing `addr`, if any.
    pub fn section_containing(&self, addr: Addr) -> Option<&Section> {
        self.sections.iter().find(|s| s.contains(addr))
    }

    /// Reads initialized bytes spanning `addr..addr+len` from whichever
    /// section holds them.
    pub fn bytes_at(&self, addr: Addr, len: usize) -> Option<&[u8]> {
        self.section_containing(addr)?.initialized_at(addr, len)
    }

    /// Finds every occurrence of `needle` in the initialized bytes of
    /// readable sections, returning absolute addresses — the equivalent of
    /// `ROPgadget --memstr`, which the paper uses to find single
    /// characters of `/bin/sh` in Connman's memory.
    pub fn find_bytes(&self, needle: &[u8]) -> Vec<Addr> {
        if needle.is_empty() {
            return Vec::new();
        }
        let mut hits = Vec::new();
        for s in self.sections.iter().filter(|s| s.perms().readable()) {
            hits.extend(
                s.bytes()
                    .windows(needle.len())
                    .enumerate()
                    .filter(|(_, w)| *w == needle)
                    .map(|(off, _)| s.base() + off as Addr),
            );
        }
        hits
    }

    /// Like [`Image::find_bytes`] but returns the first hit.
    pub fn find_first(&self, needle: &[u8]) -> Option<Addr> {
        self.find_bytes(needle).into_iter().next()
    }
}

impl fmt::Display for Image {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "image for {} ({} sections, {} symbols)",
            self.arch,
            self.sections.len(),
            self.symbols.len()
        )?;
        for s in &self.sections {
            writeln!(f, "  {s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Perms, SymbolKind};

    fn img() -> Image {
        Image::from_parts(
            Arch::X86,
            vec![
                Section::new(
                    SectionKind::Text,
                    0x1000,
                    0x100,
                    Perms::RX,
                    b"AB/bin".to_vec(),
                ),
                Section::new(SectionKind::Bss, 0x3000, 0x100, Perms::RW, vec![]),
            ],
            vec![Symbol::new("main", 0x1000, 4, SymbolKind::Function)],
        )
        .unwrap()
    }

    #[test]
    fn queries() {
        let im = img();
        assert_eq!(im.symbol("main").unwrap().addr(), 0x1000);
        assert!(im.symbol("nope").is_none());
        assert!(matches!(
            im.require_symbol("nope"),
            Err(ImageError::MissingSymbol(_))
        ));
        assert_eq!(im.section(SectionKind::Bss).unwrap().base(), 0x3000);
        assert_eq!(
            im.section_containing(0x1005).unwrap().kind(),
            SectionKind::Text
        );
        assert_eq!(im.bytes_at(0x1002, 4), Some(&b"/bin"[..]));
    }

    #[test]
    fn memstr_equivalent() {
        let im = img();
        assert_eq!(im.find_bytes(b"/"), vec![0x1002]);
        assert_eq!(im.find_first(b"bin"), Some(0x1003));
        assert!(im.find_bytes(b"zz").is_empty());
        assert!(im.find_bytes(b"").is_empty());
    }

    #[test]
    fn overlap_rejected() {
        let err = Image::from_parts(
            Arch::X86,
            vec![
                Section::new(SectionKind::Text, 0x1000, 0x100, Perms::RX, vec![]),
                Section::new(SectionKind::Data, 0x10FF, 0x10, Perms::RW, vec![]),
            ],
            vec![],
        )
        .unwrap_err();
        assert!(matches!(err, ImageError::Overlap { .. }));
    }

    #[test]
    fn dangling_symbol_rejected() {
        let err = Image::from_parts(
            Arch::X86,
            vec![Section::new(
                SectionKind::Text,
                0x1000,
                0x10,
                Perms::RX,
                vec![],
            )],
            vec![Symbol::new("ghost", 0x9999, 0, SymbolKind::Object)],
        )
        .unwrap_err();
        assert_eq!(err, ImageError::DanglingSymbol("ghost".into()));
    }

    #[test]
    fn duplicate_symbol_rejected() {
        let err = Image::from_parts(
            Arch::X86,
            vec![Section::new(
                SectionKind::Text,
                0x1000,
                0x10,
                Perms::RX,
                vec![],
            )],
            vec![
                Symbol::new("f", 0x1000, 0, SymbolKind::Function),
                Symbol::new("f", 0x1004, 0, SymbolKind::Function),
            ],
        )
        .unwrap_err();
        assert_eq!(err, ImageError::DuplicateSymbol("f".into()));
    }
}

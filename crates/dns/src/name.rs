//! Domain names: labels, parsing, wire encoding and decompression.

use std::fmt;

use crate::wire::{WireBuf, WireReader, WireWriter};
use crate::DnsError;

/// Maximum length of a single label on the wire (RFC 1035 §2.3.4).
pub const MAX_LABEL_LEN: usize = 63;

/// Maximum length of a full name on the wire, including length bytes and
/// the root terminator (RFC 1035 §2.3.4).
pub const MAX_NAME_LEN: usize = 255;

/// Maximum number of compression pointers the strict decoder will chase
/// for one name before declaring the message malicious.
pub const MAX_POINTER_HOPS: usize = 32;

/// One label of a domain name.
///
/// The strict constructor only accepts the conventional hostname alphabet
/// (letters, digits, hyphen, underscore); [`Label::from_bytes_relaxed`]
/// accepts any bytes, which decoding uses because real-world traffic is
/// not always polite.
///
/// Stored inline (a label is at most 63 bytes by construction), so
/// building one never allocates — decoding a name costs one `Vec` for
/// the label list and nothing per label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label {
    len: u8,
    // Invariant: bytes past `len` are zero, so the derived equality over
    // the whole buffer equals byte-string equality.
    buf: [u8; MAX_LABEL_LEN],
}

impl Label {
    fn from_checked(bytes: &[u8]) -> Self {
        let mut buf = [0u8; MAX_LABEL_LEN];
        buf[..bytes.len()].copy_from_slice(bytes);
        Label {
            len: bytes.len() as u8,
            buf,
        }
    }

    /// Creates a label from text, validating the hostname alphabet.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::EmptyLabel`], [`DnsError::LabelTooLong`] or
    /// [`DnsError::InvalidLabelByte`] on bad input.
    pub fn new(text: &str) -> Result<Self, DnsError> {
        let bytes = text.as_bytes();
        if bytes.is_empty() {
            return Err(DnsError::EmptyLabel);
        }
        if bytes.len() > MAX_LABEL_LEN {
            return Err(DnsError::LabelTooLong(bytes.len()));
        }
        for &b in bytes {
            if !(b.is_ascii_alphanumeric() || b == b'-' || b == b'_') {
                return Err(DnsError::InvalidLabelByte(b));
            }
        }
        Ok(Label::from_checked(bytes))
    }

    /// Creates a label from arbitrary bytes, checking only the length
    /// limits that the wire format itself enforces.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::EmptyLabel`] or [`DnsError::LabelTooLong`].
    pub fn from_bytes_relaxed(bytes: &[u8]) -> Result<Self, DnsError> {
        if bytes.is_empty() {
            return Err(DnsError::EmptyLabel);
        }
        if bytes.len() > MAX_LABEL_LEN {
            return Err(DnsError::LabelTooLong(bytes.len()));
        }
        Ok(Label::from_checked(bytes))
    }

    /// The raw bytes of the label.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[..self.len as usize]
    }

    /// Length of the label in bytes (1..=63).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// A label is never empty; this always returns `false` but exists for
    /// API symmetry with collection types.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Case-insensitive comparison as required for name matching
    /// (RFC 1035 §2.3.3).
    pub fn eq_ignore_case(&self, other: &Label) -> bool {
        self.as_bytes().eq_ignore_ascii_case(other.as_bytes())
    }
}

impl std::hash::Hash for Label {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl PartialOrd for Label {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Label {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_label(self.as_bytes(), f)
    }
}

/// Writes one label in presentation form: runs of plain printable
/// bytes go out in one `write_str`, and `.`, `\` and every non-graphic
/// byte as a `\DDD` decimal escape.
fn fmt_label(bytes: &[u8], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let plain = |b: u8| b.is_ascii_graphic() && b != b'.' && b != b'\\';
    let mut rest = bytes;
    loop {
        let run = rest.iter().position(|&b| !plain(b)).unwrap_or(rest.len());
        // A run of ASCII graphic bytes is always valid UTF-8.
        f.write_str(std::str::from_utf8(&rest[..run]).map_err(|_| fmt::Error)?)?;
        let Some((&b, tail)) = rest[run..].split_first() else {
            return Ok(());
        };
        write!(f, "\\{b:03}")?;
        rest = tail;
    }
}

/// Writes a label sequence in presentation form (`.` for the root).
fn fmt_labels<'a>(
    mut labels: impl Iterator<Item = &'a [u8]>,
    f: &mut fmt::Formatter<'_>,
) -> fmt::Result {
    let Some(first) = labels.next() else {
        return f.write_str(".");
    };
    fmt_label(first, f)?;
    for label in labels {
        f.write_str(".")?;
        fmt_label(label, f)?;
    }
    Ok(())
}

/// A fully-qualified domain name as an ordered list of labels.
///
/// The empty list is the DNS root. `Name` values built through the public
/// constructors always satisfy the RFC length limits; only the [`forge`]
/// module emits names that do not.
///
/// [`forge`]: crate::forge
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Name {
    labels: Vec<Label>,
}

impl Name {
    /// The root name (zero labels).
    pub fn root() -> Self {
        Name { labels: Vec::new() }
    }

    /// Parses a dotted name such as `"www.example.com"`.
    ///
    /// A single trailing dot is accepted and ignored. The empty string and
    /// `"."` both denote the root.
    ///
    /// # Errors
    ///
    /// Returns an error if any label is invalid or the total wire length
    /// would exceed [`MAX_NAME_LEN`].
    pub fn parse(text: &str) -> Result<Self, DnsError> {
        let trimmed = text.strip_suffix('.').unwrap_or(text);
        if trimmed.is_empty() {
            return Ok(Name::root());
        }
        let mut labels = Vec::new();
        for part in trimmed.split('.') {
            labels.push(Label::new(part)?);
        }
        Name::from_labels(labels)
    }

    /// Builds a name from pre-validated labels, enforcing the total
    /// length limit.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::NameTooLong`] if the wire form would exceed
    /// [`MAX_NAME_LEN`] bytes.
    pub fn from_labels(labels: Vec<Label>) -> Result<Self, DnsError> {
        let name = Name { labels };
        let wire = name.wire_len();
        if wire > MAX_NAME_LEN {
            return Err(DnsError::NameTooLong(wire));
        }
        Ok(name)
    }

    /// The labels of this name, most-specific first.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Whether this is the root name.
    pub fn is_root(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// Length of the uncompressed wire encoding, including each label's
    /// length byte and the trailing root byte.
    pub fn wire_len(&self) -> usize {
        1 + self.labels.iter().map(|l| l.len() + 1).sum::<usize>()
    }

    /// Case-insensitive equality, as used for cache lookups.
    pub fn eq_ignore_case(&self, other: &Name) -> bool {
        self.labels.len() == other.labels.len()
            && self
                .labels
                .iter()
                .zip(&other.labels)
                .all(|(a, b)| a.eq_ignore_case(b))
    }

    /// The parent name (one label removed), or `None` at the root.
    pub fn parent(&self) -> Option<Name> {
        if self.labels.is_empty() {
            None
        } else {
            Some(Name {
                labels: self.labels[1..].to_vec(),
            })
        }
    }

    /// Encodes without compression.
    ///
    /// # Errors
    ///
    /// Propagates writer capacity errors.
    pub fn encode_uncompressed(&self, w: &mut WireWriter) -> Result<(), DnsError> {
        for label in &self.labels {
            w.write_u8(label.len() as u8)?;
            w.write_bytes(label.as_bytes())?;
        }
        w.write_u8(0)
    }

    /// [`encode_uncompressed`](Self::encode_uncompressed) into a
    /// reusable buffer: `out`'s contents are replaced, its capacity is
    /// kept, and a warm buffer makes the encode allocation-free.
    ///
    /// # Errors
    ///
    /// Propagates writer capacity errors.
    pub fn encode_into(&self, out: &mut WireBuf) -> Result<(), DnsError> {
        let mut w = WireWriter::from_vec(std::mem::take(out.as_mut_vec()));
        self.encode_uncompressed(&mut w)?;
        *out.as_mut_vec() = w.into_bytes();
        Ok(())
    }

    /// Encodes with RFC 1035 §4.1.4 compression, sharing `comp`'s
    /// record of the suffixes already in the message.
    ///
    /// # Errors
    ///
    /// Propagates writer capacity errors.
    pub fn encode_compressed(
        &self,
        w: &mut WireWriter,
        comp: &mut Compressor,
    ) -> Result<(), DnsError> {
        comp.write_name(w, WireName::from(self).as_bytes())
    }

    /// Decodes a (possibly compressed) name at the reader's position,
    /// leaving the reader just past the name's in-place bytes.
    ///
    /// This is the *strict* decoder: it enforces backward-only pointers, a
    /// hop limit, and the 255-byte total. The vulnerable proxy in
    /// `cml-connman` deliberately does **not** use this routine — it
    /// re-implements the buggy C logic.
    ///
    /// # Errors
    ///
    /// Returns a [`DnsError`] describing the first malformation found.
    pub fn decode(r: &mut WireReader<'_>) -> Result<Self, DnsError> {
        let msg = r.message();
        let mut labels = Vec::new();
        let mut wire_len = 1usize;
        let mut hops = 0usize;
        // Position we will restore the reader to once the in-place portion
        // of the name has been consumed. Set on the first pointer only.
        let mut resume: Option<usize> = None;
        let mut pos = r.position();
        loop {
            let len = *msg.get(pos).ok_or(DnsError::Truncated {
                context: "name length byte",
            })? as usize;
            match len {
                0 => {
                    pos += 1;
                    break;
                }
                l if l & 0xC0 == 0xC0 => {
                    let lo = *msg.get(pos + 1).ok_or(DnsError::Truncated {
                        context: "pointer low byte",
                    })? as usize;
                    let target = ((l & 0x3F) << 8) | lo;
                    if target >= pos {
                        return Err(DnsError::ForwardPointer { target, at: pos });
                    }
                    hops += 1;
                    if hops > MAX_POINTER_HOPS {
                        return Err(DnsError::PointerLimit(MAX_POINTER_HOPS));
                    }
                    if resume.is_none() {
                        resume = Some(pos + 2);
                    }
                    pos = target;
                }
                l if l & 0xC0 != 0 => return Err(DnsError::BadLabelType(l as u8)),
                l => {
                    let end = pos + 1 + l;
                    let bytes = msg.get(pos + 1..end).ok_or(DnsError::Truncated {
                        context: "label bytes",
                    })?;
                    wire_len += l + 1;
                    if wire_len > MAX_NAME_LEN {
                        return Err(DnsError::NameTooLong(wire_len));
                    }
                    labels.push(Label::from_bytes_relaxed(bytes)?);
                    pos = end;
                }
            }
        }
        r.seek(resume.unwrap_or(pos))?;
        Ok(Name { labels })
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_labels(self.labels.iter().map(Label::as_bytes), f)
    }
}

impl std::str::FromStr for Name {
    type Err = DnsError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

/// A name in uncompressed wire form — length-prefixed labels and the
/// root byte — held inline. A wire name is at most [`MAX_NAME_LEN`]
/// bytes, so building, copying, case-folding and comparing one never
/// touches the heap; it is the allocation-free currency of the zone
/// keys, the name compressor and the resolver's miss path.
#[derive(Clone, Copy)]
pub struct WireName {
    len: u8,
    buf: [u8; MAX_NAME_LEN],
}

impl WireName {
    /// Wraps the uncompressed wire name that makes up all of `bytes`,
    /// or `None` if `bytes` is not exactly one (no pointers, a root
    /// terminator as the last byte, at most [`MAX_NAME_LEN`] bytes).
    pub fn from_wire(bytes: &[u8]) -> Option<Self> {
        if bytes.len() > MAX_NAME_LEN {
            return None;
        }
        let mut i = 0;
        loop {
            let l = *bytes.get(i)? as usize;
            if l == 0 {
                break;
            }
            if l > MAX_LABEL_LEN {
                return None;
            }
            i += 1 + l;
        }
        if i + 1 != bytes.len() {
            return None;
        }
        let mut buf = [0u8; MAX_NAME_LEN];
        buf[..bytes.len()].copy_from_slice(bytes);
        Some(WireName {
            len: bytes.len() as u8,
            buf,
        })
    }

    /// The wire bytes, root byte included.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[..self.len as usize]
    }

    /// The same name with every ASCII letter lowercased — the canonical
    /// form of RFC 1035 §2.3.3 case-insensitive matching. Length bytes
    /// are at most 63, below the ASCII uppercase range, so folding the
    /// whole buffer never corrupts the structure.
    pub fn to_ascii_lowercase(mut self) -> Self {
        self.buf[..self.len as usize].make_ascii_lowercase();
        self
    }

    /// Case-insensitive equality.
    pub fn eq_ignore_case(&self, other: &WireName) -> bool {
        self.as_bytes().eq_ignore_ascii_case(other.as_bytes())
    }

    /// The label bytes, most-specific first.
    pub(crate) fn labels(&self) -> impl Iterator<Item = &[u8]> {
        suffix_offsets(self.as_bytes()).map(|at| {
            let l = self.buf[at] as usize;
            &self.buf[at + 1..at + 1 + l]
        })
    }
}

impl From<&Name> for WireName {
    fn from(name: &Name) -> Self {
        // Every `Name` is at most MAX_NAME_LEN bytes on the wire.
        let mut buf = [0u8; MAX_NAME_LEN];
        let mut at = 0;
        for label in &name.labels {
            buf[at] = label.len;
            buf[at + 1..at + 1 + label.len()].copy_from_slice(label.as_bytes());
            at += 1 + label.len();
        }
        WireName {
            len: at as u8 + 1,
            buf,
        }
    }
}

impl fmt::Display for WireName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_labels(self.labels(), f)
    }
}

impl PartialEq for WireName {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for WireName {}

impl fmt::Debug for WireName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WireName({self})")
    }
}

/// Offsets of every non-root suffix of a well-formed uncompressed wire
/// name: the position of each label's length byte.
pub(crate) fn suffix_offsets(wire: &[u8]) -> impl Iterator<Item = usize> + '_ {
    let mut at = 0;
    std::iter::from_fn(move || {
        let l = *wire.get(at)? as usize;
        if l == 0 {
            return None;
        }
        let here = at;
        at += 1 + l;
        Some(here)
    })
}

/// Inline capacity of a [`Compressor`] before it spills to the heap;
/// a referral with glue records about a dozen suffixes.
const INLINE_SUFFIXES: usize = 32;

/// Name-compression state for one message (RFC 1035 §4.1.4).
///
/// Remembers where each suffix was first written as a `(hash, offset)`
/// pair — inline for the first 32, on the heap only past that — and
/// confirms every hash hit against the bytes already written, so a
/// collision can never produce a wrong pointer. Matching is
/// byte-exact (case-sensitive), the first-seen offset of a suffix is
/// the one reused, and only offsets that fit the 14-bit pointer are
/// recorded: the output is byte-identical to a `HashMap<Name, u16>`
/// keyed by whole suffixes, without cloning a `Name` per suffix.
#[derive(Debug, Clone)]
pub struct Compressor {
    inline: [(u32, u16); INLINE_SUFFIXES],
    len: usize,
    spill: Vec<(u32, u16)>,
}

impl Default for Compressor {
    fn default() -> Self {
        Self::new()
    }
}

impl Compressor {
    /// Empty state for a fresh message.
    pub fn new() -> Self {
        Compressor {
            inline: [(0, 0); INLINE_SUFFIXES],
            len: 0,
            spill: Vec::new(),
        }
    }

    fn entries(&self) -> impl Iterator<Item = &(u32, u16)> {
        self.inline[..self.len].iter().chain(&self.spill)
    }

    fn remember(&mut self, hash: u32, offset: u16) {
        if self.len < INLINE_SUFFIXES {
            self.inline[self.len] = (hash, offset);
            self.len += 1;
        } else {
            self.spill.push((hash, offset));
        }
    }

    /// Writes the uncompressed wire name `wire` (as produced by
    /// [`WireName::as_bytes`]) into `w`, replacing its longest suffix
    /// already in the message by a pointer and remembering the suffixes
    /// it writes out in full.
    ///
    /// # Errors
    ///
    /// Propagates writer capacity errors.
    pub fn write_name(&mut self, w: &mut WireWriter, wire: &[u8]) -> Result<(), DnsError> {
        for at in suffix_offsets(wire) {
            let suffix = &wire[at..];
            let hash = fnv1a(suffix);
            let hit = self
                .entries()
                .find(|&&(h, off)| h == hash && written_at(w.as_bytes(), off as usize, suffix));
            if let Some(&(_, off)) = hit {
                return w.write_u16(0xC000 | off);
            }
            let here = w.len();
            if here <= 0x3FFF {
                self.remember(hash, here as u16);
            }
            w.write_bytes(&suffix[..1 + suffix[0] as usize])?;
        }
        w.write_u8(0)
    }
}

/// FNV-1a over a suffix's exact wire bytes.
fn fnv1a(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0x811C_9DC5u32, |h, &b| {
        (h ^ b as u32).wrapping_mul(0x0100_0193)
    })
}

/// Whether the (possibly compressed) name written at `at` in `msg`
/// spells exactly the uncompressed wire name `want`. Pointers a
/// [`Compressor`] writes always target a label it wrote in full, so
/// following them terminates.
fn written_at(msg: &[u8], mut at: usize, mut want: &[u8]) -> bool {
    loop {
        let Some(&len) = msg.get(at) else {
            return false;
        };
        if len & 0xC0 == 0xC0 {
            let Some(&lo) = msg.get(at + 1) else {
                return false;
            };
            at = ((len as usize & 0x3F) << 8) | lo as usize;
            continue;
        }
        let l = len as usize;
        match (want.get(..1 + l), msg.get(at..at + 1 + l)) {
            (Some(a), Some(b)) if a == b => {}
            _ => return false,
        }
        if l == 0 {
            return true;
        }
        want = &want[1 + l..];
        at += 1 + l;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(name: &Name) -> Vec<u8> {
        let mut w = WireWriter::new();
        name.encode_uncompressed(&mut w).unwrap();
        w.into_bytes()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        let n = Name::parse("www.Example.com").unwrap();
        assert_eq!(n.label_count(), 3);
        assert_eq!(n.to_string(), "www.Example.com");
        assert_eq!(Name::parse("www.example.com.").unwrap().label_count(), 3);
    }

    #[test]
    fn root_forms() {
        assert!(Name::parse("").unwrap().is_root());
        assert!(Name::parse(".").unwrap().is_root());
        assert_eq!(Name::root().to_string(), ".");
        assert_eq!(encode(&Name::root()), vec![0]);
    }

    #[test]
    fn rejects_bad_labels() {
        assert!(matches!(Name::parse("a..b"), Err(DnsError::EmptyLabel)));
        assert!(matches!(
            Name::parse("bad domain"),
            Err(DnsError::InvalidLabelByte(b' '))
        ));
        let long = "x".repeat(64);
        assert!(matches!(
            Name::parse(&long),
            Err(DnsError::LabelTooLong(64))
        ));
    }

    #[test]
    fn rejects_overlong_name() {
        let label = "a".repeat(63);
        let text = vec![label; 5].join(".");
        assert!(matches!(Name::parse(&text), Err(DnsError::NameTooLong(_))));
    }

    #[test]
    fn wire_len_counts_length_bytes_and_root() {
        let n = Name::parse("ab.cd").unwrap();
        // 1+2 + 1+2 + 1 = 7
        assert_eq!(n.wire_len(), 7);
        assert_eq!(encode(&n).len(), 7);
    }

    #[test]
    fn uncompressed_encoding_matches_rfc_example() {
        let n = Name::parse("f.isi.arpa").unwrap();
        assert_eq!(
            encode(&n),
            vec![1, b'f', 3, b'i', b's', b'i', 4, b'a', b'r', b'p', b'a', 0]
        );
    }

    #[test]
    fn decode_simple() {
        let bytes = encode(&Name::parse("a.bc").unwrap());
        let mut r = WireReader::new(&bytes);
        let n = Name::decode(&mut r).unwrap();
        assert_eq!(n.to_string(), "a.bc");
        assert!(r.is_empty());
    }

    #[test]
    fn compression_shares_suffixes() {
        let mut w = WireWriter::new();
        let mut comp = Compressor::new();
        Name::parse("mail.example.com")
            .unwrap()
            .encode_compressed(&mut w, &mut comp)
            .unwrap();
        let first_len = w.len();
        Name::parse("ftp.example.com")
            .unwrap()
            .encode_compressed(&mut w, &mut comp)
            .unwrap();
        let bytes = w.into_bytes();
        // Second name is "ftp" label + 2-byte pointer.
        assert_eq!(bytes.len() - first_len, 1 + 3 + 2);
        let mut r = WireReader::new(&bytes);
        assert_eq!(
            Name::decode(&mut r).unwrap().to_string(),
            "mail.example.com"
        );
        assert_eq!(Name::decode(&mut r).unwrap().to_string(), "ftp.example.com");
        assert!(r.is_empty());
    }

    #[test]
    fn decode_rejects_forward_pointer() {
        // Pointer at offset 0 pointing to itself.
        let bytes = [0xC0, 0x00];
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            Name::decode(&mut r),
            Err(DnsError::ForwardPointer { .. })
        ));
    }

    #[test]
    fn decode_rejects_reserved_label_bits() {
        let bytes = [0x40, 0x00];
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            Name::decode(&mut r),
            Err(DnsError::BadLabelType(0x40))
        ));
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = [5, b'a', b'b'];
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            Name::decode(&mut r),
            Err(DnsError::Truncated {
                context: "label bytes"
            })
        ));
    }

    #[test]
    fn decode_rejects_overlong_expansion() {
        // Chain of labels each pointing backward would exceed 255 bytes of
        // logical name: build 5 in-place 63-byte labels.
        let mut bytes = Vec::new();
        for _ in 0..5 {
            bytes.push(63);
            bytes.extend(std::iter::repeat_n(b'a', 63));
        }
        bytes.push(0);
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            Name::decode(&mut r),
            Err(DnsError::NameTooLong(_))
        ));
    }

    #[test]
    fn decode_resumes_after_first_pointer() {
        // message: name "x" at 0; then at 3: label "y" + pointer to 0; then
        // a sentinel byte.
        let bytes = [1, b'x', 0, 1, b'y', 0xC0, 0x00, 0xEE];
        let mut r = WireReader::new(&bytes);
        r.seek(3).unwrap();
        let n = Name::decode(&mut r).unwrap();
        assert_eq!(n.to_string(), "y.x");
        assert_eq!(r.position(), 7);
        assert_eq!(r.read_u8("sentinel").unwrap(), 0xEE);
    }

    #[test]
    fn case_insensitive_matching() {
        let a = Name::parse("WWW.Example.COM").unwrap();
        let b = Name::parse("www.example.com").unwrap();
        assert!(a.eq_ignore_case(&b));
        assert_ne!(a, b);
    }

    #[test]
    fn wire_name_mirrors_name() {
        let odd = Name::from_labels(vec![
            Label::from_bytes_relaxed(b"Dot.ted").unwrap(),
            Label::from_bytes_relaxed(b"b\\s").unwrap(),
            Label::from_bytes_relaxed(b"hi\xE9 x").unwrap(),
            Label::new("COM").unwrap(),
        ])
        .unwrap();
        for name in [odd, Name::root(), Name::parse("www.Example.com").unwrap()] {
            let wire = WireName::from(&name);
            assert_eq!(wire.as_bytes(), encode(&name));
            assert_eq!(wire.to_string(), name.to_string());
            assert_eq!(WireName::from_wire(wire.as_bytes()), Some(wire));
            let lower = wire.to_ascii_lowercase();
            assert!(lower.eq_ignore_case(&wire));
            assert_eq!(wire.labels().count(), name.label_count());
        }
        assert_eq!(
            WireName::from(
                &Name::from_labels(vec![Label::from_bytes_relaxed(b"a.b\\").unwrap()]).unwrap()
            )
            .to_string(),
            "a\\046b\\092"
        );
    }

    #[test]
    fn wire_name_refuses_malformed_bytes() {
        for bad in [
            &[][..],
            &[1, b'a'],
            &[1, b'a', 0, 0],
            &[0xC0, 0x00],
            &[64],
            &[2, b'a', 0],
        ] {
            assert!(WireName::from_wire(bad).is_none(), "{bad:?}");
        }
        let mut long = Vec::new();
        for _ in 0..4 {
            long.push(63);
            long.extend([b'x'; 63]);
        }
        long.push(0);
        assert!(WireName::from_wire(&long).is_none(), "257 bytes");
    }

    #[test]
    fn parent_walks_to_root() {
        let mut n = Name::parse("a.b.c").unwrap();
        let mut seen = Vec::new();
        loop {
            seen.push(n.to_string());
            match n.parent() {
                Some(p) => n = p,
                None => break,
            }
        }
        assert_eq!(seen, vec!["a.b.c", "b.c", "c", "."]);
    }
}

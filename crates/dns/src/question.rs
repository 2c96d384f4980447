//! The question section entry (RFC 1035 §4.1.2).

use std::fmt;

use crate::header::Rcode;
use crate::name::{Compressor, Name, WireName};
use crate::record::{Record, RecordClass, RecordType};
use crate::wire::{WireReader, WireWriter};
use crate::DnsError;

/// One entry of the question section: the name, type and class being
/// asked about.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    qname: Name,
    qtype: RecordType,
    qclass: RecordClass,
}

impl Question {
    /// Creates an `IN`-class question.
    pub fn new(qname: Name, qtype: RecordType) -> Self {
        Question {
            qname,
            qtype,
            qclass: RecordClass::In,
        }
    }

    /// Creates a question with an explicit class.
    pub fn with_class(qname: Name, qtype: RecordType, qclass: RecordClass) -> Self {
        Question {
            qname,
            qtype,
            qclass,
        }
    }

    /// The queried name.
    pub fn qname(&self) -> &Name {
        &self.qname
    }

    /// The queried record type.
    pub fn qtype(&self) -> RecordType {
        self.qtype
    }

    /// The queried class.
    pub fn qclass(&self) -> RecordClass {
        self.qclass
    }

    /// Encodes the question, sharing name compression state.
    ///
    /// # Errors
    ///
    /// Propagates writer capacity errors.
    pub fn encode(&self, w: &mut WireWriter, comp: &mut Compressor) -> Result<(), DnsError> {
        self.qname.encode_compressed(w, comp)?;
        w.write_u16(self.qtype.to_u16())?;
        w.write_u16(self.qclass.to_u16())
    }

    /// Decodes one question.
    ///
    /// # Errors
    ///
    /// Returns a [`DnsError`] on truncation or a malformed name.
    pub fn decode(r: &mut WireReader<'_>) -> Result<Self, DnsError> {
        let qname = Name::decode(r)?;
        let qtype = RecordType::from_u16(r.read_u16("question type")?);
        let qclass = RecordClass::from_u16(r.read_u16("question class")?);
        Ok(Question {
            qname,
            qtype,
            qclass,
        })
    }
}

impl fmt::Display for Question {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.qname, self.qclass, self.qtype)
    }
}

/// A query in the canonical shape, read in place: header with QR
/// clear, QDCOUNT 1, empty record sections, one uncompressed question
/// and nothing after it. This is the shape every well-behaved stub and
/// resolver sends, and the one the allocation-free paths serve — the
/// response cache keys on it and [`respond`](Self::respond) answers it
/// without building a [`Message`](crate::Message).
#[derive(Debug, Clone, Copy)]
pub struct WireQuestion {
    /// Transaction id.
    pub id: u16,
    /// The second header word (QR, opcode, AA, TC, RD, RA, Z, RCODE).
    pub flags: u16,
    /// The queried name, as sent (case preserved).
    pub qname: WireName,
    /// The question's qtype.
    pub qtype: u16,
    /// The question's qclass.
    pub qclass: u16,
}

impl WireQuestion {
    /// Reads `b` as a canonical query, or `None` when it has any other
    /// shape (callers fall back to [`Message::decode`](crate::Message::decode)).
    pub fn parse(b: &[u8]) -> Option<Self> {
        if b.len() < 12 || b[2] & 0x80 != 0 {
            return None;
        }
        if b[4..12] != [0, 1, 0, 0, 0, 0, 0, 0] {
            return None;
        }
        let mut i = 12usize;
        loop {
            let l = *b.get(i)? as usize;
            i += 1 + l;
            if l == 0 {
                break;
            }
            if l & 0xC0 != 0 {
                return None;
            }
        }
        if b.len() != i + 4 {
            return None;
        }
        let word = |at: usize| u16::from_be_bytes([b[at], b[at + 1]]);
        Some(WireQuestion {
            id: word(0),
            flags: word(2),
            qname: WireName::from_wire(&b[12..i])?,
            qtype: word(i),
            qclass: word(i + 2),
        })
    }

    /// The canonical query for `qname`/`qtype` into `out` (contents
    /// replaced, capacity kept): byte-identical to encoding
    /// `Message::query(id, Question::new(qname, qtype))`.
    pub fn encode_query(id: u16, qname: &WireName, qtype: RecordType, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&id.to_be_bytes());
        out.extend_from_slice(&[0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0]);
        out.extend_from_slice(qname.as_bytes());
        out.extend_from_slice(&qtype.to_u16().to_be_bytes());
        out.extend_from_slice(&RecordClass::In.to_u16().to_be_bytes());
    }

    /// Encodes the response to this query straight from borrowed
    /// records into `out` (contents replaced, capacity kept): the id
    /// and RD bit echoed, QR and RA set, the question copied, then the
    /// three sections with name compression. Byte-identical to
    /// `Message::response_to` over the decoded query plus `push_*` of
    /// each record and `encode_into`, without the message, the record
    /// clones or a compression map.
    ///
    /// # Errors
    ///
    /// Returns a [`DnsError`] if a record fails to encode.
    pub fn respond<'r>(
        &self,
        rcode: Rcode,
        answers: impl IntoIterator<Item = &'r Record>,
        authorities: impl IntoIterator<Item = &'r Record>,
        additionals: impl IntoIterator<Item = &'r Record>,
        out: &mut Vec<u8>,
    ) -> Result<(), DnsError> {
        let mut w = WireWriter::from_vec(std::mem::take(out));
        let flags = 0x8000 | (self.flags & 0x0100) | 0x0080 | rcode.to_u8() as u16;
        w.write_u16(self.id)?;
        w.write_u16(flags)?;
        w.write_bytes(&[0, 1, 0, 0, 0, 0, 0, 0])?;
        let mut comp = Compressor::new();
        comp.write_name(&mut w, self.qname.as_bytes())?;
        w.write_u16(self.qtype)?;
        w.write_u16(self.qclass)?;
        encode_section(&mut w, &mut comp, 6, answers)?;
        encode_section(&mut w, &mut comp, 8, authorities)?;
        encode_section(&mut w, &mut comp, 10, additionals)?;
        *out = w.into_bytes();
        Ok(())
    }
}

/// Appends one record section and patches its header count at
/// `count_at`.
fn encode_section<'r>(
    w: &mut WireWriter,
    comp: &mut Compressor,
    count_at: usize,
    records: impl IntoIterator<Item = &'r Record>,
) -> Result<(), DnsError> {
    let mut count = 0u16;
    for r in records {
        r.encode(w, comp)?;
        count = count.wrapping_add(1);
    }
    w.patch_u16(count_at, count);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let q = Question::new(Name::parse("a.b").unwrap(), RecordType::Aaaa);
        let mut w = WireWriter::new();
        q.encode(&mut w, &mut Compressor::new()).unwrap();
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(Question::decode(&mut r).unwrap(), q);
        assert!(r.is_empty());
    }

    #[test]
    fn display() {
        let q = Question::new(Name::parse("x.example").unwrap(), RecordType::A);
        assert_eq!(q.to_string(), "x.example IN A");
    }

    #[test]
    fn encode_query_matches_the_message_encoder() {
        for (host, rtype) in [("Www.Example.COM", RecordType::A), (".", RecordType::Ns)] {
            let name = Name::parse(host).unwrap();
            let want = crate::Message::query(0xBEEF, Question::new(name.clone(), rtype))
                .encode()
                .unwrap();
            let mut got = vec![0xAA; 3];
            WireQuestion::encode_query(0xBEEF, &WireName::from(&name), rtype, &mut got);
            assert_eq!(got, want);
            let q = WireQuestion::parse(&got).expect("canonical");
            assert_eq!(
                (q.id, q.flags, q.qtype, q.qclass),
                (0xBEEF, 0x0100, rtype.to_u16(), 1)
            );
            assert_eq!(q.qname, WireName::from(&name));
        }
    }

    #[test]
    fn parse_refuses_every_other_shape() {
        let good =
            crate::Message::query(1, Question::new(Name::parse("a.b").unwrap(), RecordType::A))
                .encode()
                .unwrap();
        assert!(WireQuestion::parse(&good).is_some());
        let mut response = good.clone();
        response[2] |= 0x80;
        let mut two = good.clone();
        two[5] = 2;
        let mut answer = good.clone();
        answer[7] = 1;
        let mut trailing = good.clone();
        trailing.push(0);
        let mut pointer = good[..12].to_vec();
        pointer.extend_from_slice(&[0xC0, 0x0C, 0, 1, 0, 1]);
        for bad in [
            &response[..],
            &two,
            &answer,
            &trailing,
            &good[..good.len() - 1],
            &pointer,
            &good[..11],
        ] {
            assert!(WireQuestion::parse(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn decode_truncated() {
        let bytes = [1, b'a', 0, 0]; // name then half a qtype
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            Question::decode(&mut r),
            Err(DnsError::Truncated { .. })
        ));
    }
}

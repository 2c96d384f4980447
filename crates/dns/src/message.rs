//! Whole-message assembly and parsing.

use std::fmt;

use crate::header::{Header, Rcode};
use crate::name::Compressor;
use crate::question::Question;
use crate::record::Record;
use crate::wire::{WireBuf, WireReader, WireWriter};
use crate::DnsError;

/// A complete DNS message: header plus the four sections.
///
/// Construction goes through [`Message::query`] / [`Message::response_to`]
/// and the `push_*` methods, which keep the header counts consistent with
/// the section contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    header: Header,
    questions: Vec<Question>,
    answers: Vec<Record>,
    authorities: Vec<Record>,
    additionals: Vec<Record>,
}

impl Message {
    /// Creates a standard recursive query with one question.
    pub fn query(id: u16, question: Question) -> Self {
        let mut m = Message {
            header: Header {
                id,
                ..Header::default()
            },
            questions: Vec::new(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        };
        m.push_question(question);
        m
    }

    /// Creates an empty response echoing `query`'s id and question
    /// section, with the QR and RA bits set — the shape Connman's checks
    /// expect before it will parse answers.
    pub fn response_to(query: &Message) -> Self {
        let mut m = Message {
            header: Header {
                id: query.header.id,
                response: true,
                recursion_desired: query.header.recursion_desired,
                recursion_available: true,
                ..Header::default()
            },
            questions: Vec::new(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        };
        for q in &query.questions {
            m.push_question(q.clone());
        }
        m
    }

    /// Transaction id.
    pub fn id(&self) -> u16 {
        self.header.id
    }

    /// The header (counts always reflect the sections).
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Whether the QR bit marks this as a response.
    pub fn is_response(&self) -> bool {
        self.header.response
    }

    /// Sets the response code.
    pub fn set_rcode(&mut self, rcode: Rcode) {
        self.header.rcode = rcode;
    }

    /// Marks the message truncated (TC bit).
    pub fn set_truncated(&mut self, truncated: bool) {
        self.header.truncated = truncated;
    }

    /// Question section.
    pub fn questions(&self) -> &[Question] {
        &self.questions
    }

    /// Answer section.
    pub fn answers(&self) -> &[Record] {
        &self.answers
    }

    /// Authority section.
    pub fn authorities(&self) -> &[Record] {
        &self.authorities
    }

    /// Additional section.
    pub fn additionals(&self) -> &[Record] {
        &self.additionals
    }

    /// Appends a question, updating QDCOUNT.
    pub fn push_question(&mut self, q: Question) {
        self.questions.push(q);
        self.header.qdcount = self.questions.len() as u16;
    }

    /// Appends an answer record, updating ANCOUNT.
    pub fn push_answer(&mut self, r: Record) {
        self.answers.push(r);
        self.header.ancount = self.answers.len() as u16;
    }

    /// Appends an authority record, updating NSCOUNT.
    pub fn push_authority(&mut self, r: Record) {
        self.authorities.push(r);
        self.header.nscount = self.authorities.len() as u16;
    }

    /// Appends an additional record, updating ARCOUNT.
    pub fn push_additional(&mut self, r: Record) {
        self.additionals.push(r);
        self.header.arcount = self.additionals.len() as u16;
    }

    /// Encodes the message with name compression and no size ceiling.
    ///
    /// # Errors
    ///
    /// Returns a [`DnsError`] if any component fails to encode.
    pub fn encode(&self) -> Result<Vec<u8>, DnsError> {
        self.encode_with(WireWriter::new())
    }

    /// Encodes with a size ceiling (e.g. [`crate::MAX_UDP_MESSAGE`]).
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::MessageTooLarge`] if the ceiling is exceeded.
    pub fn encode_with_limit(&self, limit: usize) -> Result<Vec<u8>, DnsError> {
        self.encode_with(WireWriter::with_limit(limit))
    }

    /// [`encode`](Self::encode) into a reusable buffer: `out`'s
    /// contents are replaced, its capacity is kept, and a warm buffer
    /// makes the whole encode allocation-free.
    ///
    /// # Errors
    ///
    /// Returns a [`DnsError`] if any component fails to encode.
    pub fn encode_into(&self, out: &mut WireBuf) -> Result<(), DnsError> {
        let w = WireWriter::from_vec(std::mem::take(out.as_mut_vec()));
        *out.as_mut_vec() = self.encode_with(w)?;
        Ok(())
    }

    fn encode_with(&self, mut w: WireWriter) -> Result<Vec<u8>, DnsError> {
        let mut comp = Compressor::new();
        self.header.encode(&mut w)?;
        for q in &self.questions {
            q.encode(&mut w, &mut comp)?;
        }
        for r in &self.answers {
            r.encode(&mut w, &mut comp)?;
        }
        for r in &self.authorities {
            r.encode(&mut w, &mut comp)?;
        }
        for r in &self.additionals {
            r.encode(&mut w, &mut comp)?;
        }
        Ok(w.into_bytes())
    }

    /// Decodes a complete message, rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`DnsError`] describing the first malformation.
    pub fn decode(bytes: &[u8]) -> Result<Self, DnsError> {
        let mut r = WireReader::new(bytes);
        let m = Self::decode_from(&mut r)?;
        if !r.is_empty() {
            return Err(DnsError::TrailingBytes(r.remaining()));
        }
        Ok(m)
    }

    /// Decodes a message from a reader, leaving the cursor after it.
    ///
    /// # Errors
    ///
    /// Returns a [`DnsError`] describing the first malformation.
    pub fn decode_from(r: &mut WireReader<'_>) -> Result<Self, DnsError> {
        let header = Header::decode(r)?;
        let mut m = Message {
            header,
            questions: Vec::with_capacity(header.qdcount as usize),
            answers: Vec::with_capacity(header.ancount.min(64) as usize),
            authorities: Vec::new(),
            additionals: Vec::new(),
        };
        for _ in 0..header.qdcount {
            m.questions
                .push(Question::decode(r).map_err(|e| section_err(e, "question"))?);
        }
        for _ in 0..header.ancount {
            m.answers
                .push(Record::decode(r).map_err(|e| section_err(e, "answer"))?);
        }
        for _ in 0..header.nscount {
            m.authorities
                .push(Record::decode(r).map_err(|e| section_err(e, "authority"))?);
        }
        for _ in 0..header.arcount {
            m.additionals
                .push(Record::decode(r).map_err(|e| section_err(e, "additional"))?);
        }
        Ok(m)
    }
}

fn section_err(e: DnsError, section: &'static str) -> DnsError {
    match e {
        DnsError::Truncated { .. } => DnsError::CountMismatch { section },
        other => other,
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            ";; id {} {} {} qd={} an={} ns={} ar={}",
            self.header.id,
            if self.header.response {
                "response"
            } else {
                "query"
            },
            self.header.rcode,
            self.header.qdcount,
            self.header.ancount,
            self.header.nscount,
            self.header.arcount
        )?;
        for q in &self.questions {
            writeln!(f, ";{q}")?;
        }
        for r in &self.answers {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::Name;
    use crate::record::{RecordData, RecordType};
    use std::net::Ipv4Addr;

    fn sample_query() -> Message {
        Message::query(
            0xABCD,
            Question::new(Name::parse("www.example.com").unwrap(), RecordType::A),
        )
    }

    #[test]
    fn query_roundtrip() {
        let q = sample_query();
        let bytes = q.encode().unwrap();
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back, q);
        assert!(!back.is_response());
    }

    #[test]
    fn response_echoes_question_and_id() {
        let q = sample_query();
        let mut resp = Message::response_to(&q);
        resp.push_answer(Record::new(
            Name::parse("www.example.com").unwrap(),
            120,
            RecordData::A(Ipv4Addr::new(93, 184, 216, 34)),
        ));
        let bytes = resp.encode().unwrap();
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back.id(), 0xABCD);
        assert!(back.is_response());
        assert_eq!(back.questions(), q.questions());
        assert_eq!(back.answers().len(), 1);
        assert_eq!(back.header().ancount, 1);
    }

    #[test]
    fn counts_track_sections() {
        let mut m = sample_query();
        m.push_answer(Record::new(
            Name::parse("a").unwrap(),
            0,
            RecordData::A(Ipv4Addr::UNSPECIFIED),
        ));
        m.push_authority(Record::new(
            Name::parse("b").unwrap(),
            0,
            RecordData::Ns(Name::parse("ns.b").unwrap()),
        ));
        m.push_additional(Record::new(
            Name::parse("c").unwrap(),
            0,
            RecordData::A(Ipv4Addr::LOCALHOST),
        ));
        let h = m.header();
        assert_eq!((h.qdcount, h.ancount, h.nscount, h.arcount), (1, 1, 1, 1));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample_query().encode().unwrap();
        bytes.push(0xFF);
        assert_eq!(Message::decode(&bytes), Err(DnsError::TrailingBytes(1)));
    }

    #[test]
    fn count_mismatch_reported_per_section() {
        let mut m = sample_query();
        m.push_answer(Record::new(
            Name::parse("a").unwrap(),
            0,
            RecordData::A(Ipv4Addr::UNSPECIFIED),
        ));
        let mut bytes = m.encode().unwrap();
        // Claim two answers but provide one.
        bytes[7] = 2;
        assert_eq!(
            Message::decode(&bytes),
            Err(DnsError::CountMismatch { section: "answer" })
        );
    }

    #[test]
    fn udp_limit_enforced() {
        let mut m = sample_query();
        for i in 0..60 {
            m.push_answer(Record::new(
                Name::parse(&format!("host-{i}.example.com")).unwrap(),
                300,
                RecordData::A(Ipv4Addr::new(10, 0, 0, i as u8)),
            ));
        }
        assert!(matches!(
            m.encode_with_limit(crate::MAX_UDP_MESSAGE),
            Err(DnsError::MessageTooLarge { .. })
        ));
        assert!(m.encode().is_ok());
    }

    #[test]
    fn compression_round_trips_shared_names() {
        let q = sample_query();
        let mut resp = Message::response_to(&q);
        for i in 0..4 {
            resp.push_answer(Record::new(
                Name::parse("www.example.com").unwrap(),
                60 + i,
                RecordData::A(Ipv4Addr::new(1, 1, 1, i as u8)),
            ));
        }
        let bytes = resp.encode().unwrap();
        // All four answer owner names should be 2-byte pointers; a naive
        // encoding would repeat 17 bytes each.
        assert!(bytes.len() < 12 + 21 + 4 * (2 + 10 + 4) + 8);
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back.answers().len(), 4);
        assert_eq!(back.answers()[2].name().to_string(), "www.example.com");
    }
}

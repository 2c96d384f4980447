//! The suffix-list name compressor against the map it replaced: every
//! generated message — shared suffixes, case variants, labels holding
//! `.`, `\` and high bytes, enough names to spill past the inline list —
//! encodes byte-identically to a reference encoder that keeps a
//! `HashMap<Name, u16>` of whole suffixes, and the `WireQuestion` fast
//! response path agrees with both.

use std::collections::HashMap;

use proptest::prelude::*;

use cml_dns::{
    Label, Message, Name, Question, Record, RecordData, RecordType, WireQuestion, WireWriter,
};

/// Labels chosen to collide: case variants of the same word and bytes
/// the presentation form escapes.
const LABELS: &[&[u8]] = &[
    b"a",
    b"A",
    b"mail",
    b"MAIL",
    b"Mail",
    b"example",
    b"EXAMPLE",
    b"com",
    b"c-o",
    b"dot.ted",
    b"back\\slash",
    b"hi\xE9",
    b"HI\xE9",
    b"\xC0\x0C",
];

fn name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(0..LABELS.len(), 0..5).prop_map(|ix| {
        Name::from_labels(
            ix.into_iter()
                .map(|i| Label::from_bytes_relaxed(LABELS[i]).unwrap())
                .collect(),
        )
        .unwrap()
    })
}

fn data() -> impl Strategy<Value = RecordData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RecordData::A(o.into())),
        name().prop_map(RecordData::Cname),
        name().prop_map(RecordData::Ns),
        (any::<u16>(), name()).prop_map(|(preference, exchange)| RecordData::Mx {
            preference,
            exchange
        }),
        (name(), name()).prop_map(|(mname, rname)| RecordData::Soa {
            mname,
            rname,
            serial: 1,
            refresh: 2,
            retry: 3,
            expire: 4,
            minimum: 5,
        }),
    ]
}

fn records() -> impl Strategy<Value = Vec<Record>> {
    proptest::collection::vec(
        (name(), data()).prop_map(|(n, d)| Record::new(n, 60, d)),
        0..12,
    )
}

/// The pre-suffix-list algorithm: a map from whole suffixes (cloned
/// `Name`s) to the offset where each was first written.
fn ref_name(w: &mut Vec<u8>, name: &Name, offsets: &mut HashMap<Name, u16>) {
    let mut suffix = name.clone();
    loop {
        if suffix.is_root() {
            w.push(0);
            return;
        }
        if let Some(&off) = offsets.get(&suffix) {
            w.extend_from_slice(&(0xC000 | off).to_be_bytes());
            return;
        }
        if w.len() <= 0x3FFF {
            offsets.insert(suffix.clone(), w.len() as u16);
        }
        let label = suffix.labels()[0];
        w.push(label.len() as u8);
        w.extend_from_slice(label.as_bytes());
        suffix = suffix.parent().unwrap();
    }
}

fn ref_record(w: &mut Vec<u8>, r: &Record, offsets: &mut HashMap<Name, u16>) {
    ref_name(w, r.name(), offsets);
    w.extend_from_slice(&r.rtype().to_u16().to_be_bytes());
    w.extend_from_slice(&r.class().to_u16().to_be_bytes());
    w.extend_from_slice(&r.ttl().to_be_bytes());
    let len_at = w.len();
    w.extend_from_slice(&[0, 0]);
    match r.data() {
        RecordData::A(ip) => w.extend_from_slice(&ip.octets()),
        RecordData::Cname(n) | RecordData::Ns(n) => ref_name(w, n, offsets),
        RecordData::Mx {
            preference,
            exchange,
        } => {
            w.extend_from_slice(&preference.to_be_bytes());
            ref_name(w, exchange, offsets);
        }
        RecordData::Soa { mname, rname, .. } => {
            ref_name(w, mname, offsets);
            ref_name(w, rname, offsets);
            for v in 1u32..=5 {
                w.extend_from_slice(&v.to_be_bytes());
            }
        }
        other => unreachable!("not generated: {other:?}"),
    }
    let rdlen = (w.len() - len_at - 2) as u16;
    w[len_at..len_at + 2].copy_from_slice(&rdlen.to_be_bytes());
}

fn ref_encode(m: &Message) -> Vec<u8> {
    let mut hw = WireWriter::new();
    m.header().encode(&mut hw).unwrap();
    let mut w = hw.into_bytes();
    let mut offsets = HashMap::new();
    for q in m.questions() {
        ref_name(&mut w, q.qname(), &mut offsets);
        w.extend_from_slice(&q.qtype().to_u16().to_be_bytes());
        w.extend_from_slice(&q.qclass().to_u16().to_be_bytes());
    }
    for r in m
        .answers()
        .iter()
        .chain(m.authorities())
        .chain(m.additionals())
    {
        ref_record(&mut w, r, &mut offsets);
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn suffix_list_matches_the_hashmap_reference(
        id in any::<u16>(),
        qname in name(),
        answers in records(),
        authorities in records(),
        additionals in records(),
    ) {
        let query = Message::query(id, Question::new(qname, RecordType::A));
        let mut resp = Message::response_to(&query);
        answers.iter().for_each(|r| resp.push_answer(r.clone()));
        authorities.iter().for_each(|r| resp.push_authority(r.clone()));
        additionals.iter().for_each(|r| resp.push_additional(r.clone()));
        let reference = ref_encode(&resp);
        prop_assert_eq!(&resp.encode().unwrap(), &reference);

        let q = WireQuestion::parse(&query.encode().unwrap()).unwrap();
        let mut direct = Vec::new();
        q.respond(resp.header().rcode, &answers, &authorities, &additionals, &mut direct)
            .unwrap();
        prop_assert_eq!(&direct, &reference);
    }
}

#[test]
fn many_distinct_suffixes_spill_and_still_match() {
    // Sixty names of two fresh labels each under one shared suffix:
    // well over the inline capacity of suffixes.
    let query = Message::query(
        1,
        Question::new(Name::parse("q.example").unwrap(), RecordType::A),
    );
    let mut resp = Message::response_to(&query);
    for i in 0..60 {
        let n = Name::parse(&format!("h{i}.s{}.example", i % 7)).unwrap();
        resp.push_answer(Record::new(n, 1, RecordData::A([10, 0, 0, i as u8].into())));
    }
    assert_eq!(resp.encode().unwrap(), ref_encode(&resp));
}

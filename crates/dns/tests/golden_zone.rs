//! Golden `ZoneServer` responses: the exact bytes answered for a fixed
//! query corpus — answers, CNAME chains, referrals with and without
//! glue, the apex, NXDOMAIN, case variants, labels holding `.`, `\` and
//! high bytes, and query shapes off the canonical one (compressed
//! qname, two questions, extra records, odd header flags). The hex
//! strings were captured from the `Message`-assembling server; any
//! change to the response encoder must reproduce them byte for byte.

use std::net::Ipv4Addr;

use cml_dns::{
    Label, Message, Name, Question, Record, RecordClass, RecordData, RecordType, WireBuf, Zone,
    ZoneServer,
};

fn odd_name(labels: &[&[u8]]) -> Name {
    Name::from_labels(
        labels
            .iter()
            .map(|l| Label::from_bytes_relaxed(l).unwrap())
            .collect(),
    )
    .unwrap()
}

fn root_server() -> ZoneServer {
    let mut z = Zone::rooted("");
    z.ns("example", 172800, "a.gtld.example")
        .ns("example", 172800, "b.gtld.example")
        .a("a.gtld.example", 172800, Ipv4Addr::new(192, 5, 6, 30))
        .aaaa("a.gtld.example", 172800, "2001:db8::30".parse().unwrap())
        .ns("org", 172800, "ns.elsewhere.net");
    ZoneServer::new(z)
}

fn tld_server() -> ZoneServer {
    let mut z = Zone::rooted("example");
    z.ns("example", 86400, "a.gtld.example")
        .a("example", 3600, Ipv4Addr::new(192, 0, 2, 1))
        .ns("vendor.example", 86400, "ns1.vendor.example")
        .ns("vendor.example", 86400, "ns2.vendor.example")
        .a("ns1.vendor.example", 86400, Ipv4Addr::new(203, 0, 113, 53))
        .aaaa("ns1.vendor.example", 86400, "2001:db8::53".parse().unwrap())
        .a("ns2.vendor.example", 86400, Ipv4Addr::new(203, 0, 113, 54))
        .ns("cdn.example", 86400, "cdnns.vendor.example");
    ZoneServer::new(z)
}

fn vendor_server() -> ZoneServer {
    let mut z = Zone::rooted("vendor.example");
    z.a("cloud.vendor.example", 300, Ipv4Addr::new(203, 0, 113, 7))
        .a("cloud.vendor.example", 300, Ipv4Addr::new(203, 0, 113, 8))
        .aaaa("cloud.vendor.example", 300, "2001:db8::7".parse().unwrap())
        .cname("www.vendor.example", 600, "edge.vendor.example")
        .cname("edge.vendor.example", 600, "cloud.vendor.example")
        .cname("Mixed.Vendor.Example", 60, "CLOUD.vendor.EXAMPLE")
        .cname("loop1.vendor.example", 60, "loop2.vendor.example")
        .cname("loop2.vendor.example", 60, "loop1.vendor.example")
        .cname("off.vendor.example", 60, "host.other.net")
        .ns("sub.vendor.example", 3600, "ns.sub.vendor.example")
        .a("ns.sub.vendor.example", 3600, Ipv4Addr::new(10, 0, 0, 53));
    z.insert(Record::new(
        Name::parse("vendor.example").unwrap(),
        3600,
        RecordData::Mx {
            preference: 10,
            exchange: Name::parse("mail.vendor.example").unwrap(),
        },
    ));
    z.insert(Record::new(
        Name::parse("vendor.example").unwrap(),
        3600,
        RecordData::Soa {
            mname: Name::parse("ns1.vendor.example").unwrap(),
            rname: Name::parse("hostmaster.vendor.example").unwrap(),
            serial: 2019,
            refresh: 7200,
            retry: 600,
            expire: 86400,
            minimum: 300,
        },
    ));
    z.insert(Record::new(
        Name::parse("vendor.example").unwrap(),
        3600,
        RecordData::Txt(vec![b"v=spf1 -all".to_vec(), vec![0xFF, b'\\', b'.']]),
    ));
    z.insert(Record::new(
        odd_name(&[b"dot.ted", b"vendor", b"example"]),
        60,
        RecordData::A(Ipv4Addr::new(198, 51, 100, 1)),
    ));
    z.insert(Record::new(
        odd_name(&[b"back\\slash", b"vendor", b"example"]),
        60,
        RecordData::Cname(odd_name(&[b"hi\xE9", b"vendor", b"example"])),
    ));
    z.insert(Record::new(
        odd_name(&[b"HI\xE9", b"vendor", b"example"]),
        60,
        RecordData::A(Ipv4Addr::new(198, 51, 100, 2)),
    ));
    z.insert(Record::with_parts(
        Name::parse("opaque.vendor.example").unwrap(),
        RecordType::Other(99),
        RecordClass::In,
        60,
        RecordData::Opaque(vec![1, 2, 3]),
    ));
    ZoneServer::new(z)
}

fn q(id: u16, name: Name, rtype: RecordType) -> Vec<u8> {
    Message::query(id, Question::new(name, rtype))
        .encode()
        .unwrap()
}

fn qs(id: u16, name: &str, rtype: RecordType) -> Vec<u8> {
    q(id, Name::parse(name).unwrap(), rtype)
}

/// One corpus entry: (server, label, query bytes).
type Case = (fn() -> ZoneServer, &'static str, Vec<u8>);

fn corpus() -> Vec<Case> {
    let mut c: Vec<Case> = vec![
        (
            root_server,
            "root referral with A+AAAA glue",
            qs(1, "www.vendor.example", RecordType::A),
        ),
        (
            root_server,
            "root referral without glue",
            qs(2, "x.org", RecordType::A),
        ),
        (root_server, "root nxdomain", qs(3, "x.net", RecordType::A)),
        (root_server, "root apex", qs(4, ".", RecordType::Ns)),
        (
            tld_server,
            "tld referral, two ns, glue",
            qs(5, "deep.sub.vendor.example", RecordType::Aaaa),
        ),
        (
            tld_server,
            "tld referral, out-of-bailiwick, no glue",
            qs(6, "edge.cdn.example", RecordType::A),
        ),
        (
            tld_server,
            "tld apex ns answer",
            qs(7, "example", RecordType::Ns),
        ),
        (tld_server, "tld apex a", qs(8, "EXAMPLE", RecordType::A)),
        (
            tld_server,
            "tld apex miss",
            qs(9, "example", RecordType::Mx),
        ),
        (
            tld_server,
            "tld referral, case variant",
            qs(10, "WWW.Vendor.EXAMPLE", RecordType::A),
        ),
        (
            tld_server,
            "ns name itself is under the cut",
            qs(11, "ns1.vendor.example", RecordType::A),
        ),
        (
            vendor_server,
            "two A answers",
            qs(12, "cloud.vendor.example", RecordType::A),
        ),
        (
            vendor_server,
            "AAAA answer",
            qs(13, "cloud.vendor.example", RecordType::Aaaa),
        ),
        (
            vendor_server,
            "two-step cname chain",
            qs(14, "www.vendor.example", RecordType::A),
        ),
        (
            vendor_server,
            "cname asked directly",
            qs(15, "www.vendor.example", RecordType::Cname),
        ),
        (
            vendor_server,
            "case variant answer",
            qs(16, "Cloud.VENDOR.example", RecordType::A),
        ),
        (
            vendor_server,
            "mixed-case cname target",
            qs(17, "mixed.vendor.example", RecordType::A),
        ),
        (
            vendor_server,
            "cname loop bounded",
            qs(18, "loop1.vendor.example", RecordType::A),
        ),
        (
            vendor_server,
            "cname out of zone",
            qs(19, "off.vendor.example", RecordType::A),
        ),
        (
            vendor_server,
            "in-zone delegation with glue",
            qs(20, "a.sub.vendor.example", RecordType::A),
        ),
        (
            vendor_server,
            "mx",
            qs(21, "vendor.example", RecordType::Mx),
        ),
        (
            vendor_server,
            "soa",
            qs(22, "vendor.example", RecordType::Soa),
        ),
        (
            vendor_server,
            "txt",
            qs(23, "vendor.example", RecordType::Txt),
        ),
        (
            vendor_server,
            "opaque type",
            qs(24, "opaque.vendor.example", RecordType::Other(99)),
        ),
        (
            vendor_server,
            "nxdomain",
            qs(25, "ghost.vendor.example", RecordType::A),
        ),
        (
            vendor_server,
            "label with a dot",
            q(
                26,
                odd_name(&[b"dot.ted", b"vendor", b"example"]),
                RecordType::A,
            ),
        ),
        (
            vendor_server,
            "label with a dot is not two labels",
            qs(27, "ted.vendor.example", RecordType::A),
        ),
        (
            vendor_server,
            "backslash label, cname to a high-byte label",
            q(
                28,
                odd_name(&[b"back\\slash", b"vendor", b"example"]),
                RecordType::A,
            ),
        ),
        (
            vendor_server,
            "high byte case is not folded",
            q(
                29,
                odd_name(&[b"hi\xC9", b"vendor", b"example"]),
                RecordType::A,
            ),
        ),
        (
            vendor_server,
            "high-byte label, ascii case folded",
            q(
                30,
                odd_name(&[b"Hi\xE9", b"VENDOR", b"example"]),
                RecordType::A,
            ),
        ),
    ];

    // Header variants on the canonical shape: RD clear, opcode and
    // AA/TC bits set, class CH.
    let mut rd_clear = qs(31, "cloud.vendor.example", RecordType::A);
    rd_clear[2] &= !0x01;
    c.push((vendor_server, "rd clear", rd_clear));
    let mut odd_flags = qs(32, "cloud.vendor.example", RecordType::A);
    odd_flags[2] |= 0x16; // opcode 2, AA, TC
    odd_flags[3] |= 0x70; // Z bits
    c.push((vendor_server, "odd flags", odd_flags));
    c.push((
        vendor_server,
        "class CH",
        Message::query(
            33,
            Question::with_class(
                Name::parse("cloud.vendor.example").unwrap(),
                RecordType::A,
                RecordClass::Ch,
            ),
        )
        .encode()
        .unwrap(),
    ));

    // Off the canonical shape.
    let mut two = Message::query(
        34,
        Question::new(Name::parse("www.vendor.example").unwrap(), RecordType::A),
    );
    two.push_question(Question::new(
        Name::parse("cloud.vendor.example").unwrap(),
        RecordType::Aaaa,
    ));
    // The second qname compresses against the first.
    c.push((vendor_server, "two questions", two.encode().unwrap()));
    let mut extra = Message::query(
        35,
        Question::new(Name::parse("cloud.vendor.example").unwrap(), RecordType::A),
    );
    extra.push_additional(Record::new(
        Name::parse("client.vendor.example").unwrap(),
        0,
        RecordData::A(Ipv4Addr::LOCALHOST),
    ));
    c.push((
        vendor_server,
        "query with an additional",
        extra.encode().unwrap(),
    ));
    let mut garbage_tail = qs(37, "cloud.vendor.example", RecordType::A);
    garbage_tail.push(0);
    c.push((vendor_server, "trailing byte dropped", garbage_tail));
    let mut response = qs(38, "cloud.vendor.example", RecordType::A);
    response[2] |= 0x80;
    c.push((vendor_server, "response dropped", response));
    let mut no_question = qs(39, "cloud.vendor.example", RecordType::A);
    no_question.truncate(12);
    no_question[5] = 0;
    c.push((vendor_server, "no question dropped", no_question));
    c.push((vendor_server, "garbage dropped", vec![1, 2, 3]));
    c
}

const GOLDEN: &[&str] = &[
        // root referral with A+AAAA glue
        "000181800001000000020002037777770676656e646f72076578616d706c650000010001c017000200010002a300000901610467746c64c017c017000200010002a30000040162c032c030000100010002a3000004c005061ec030001c00010002a300001020010db8000000000000000000000030",
        // root referral without glue
        "0002818000010000000100000178036f72670000010001c00e000200010002a3000012026e7309656c73657768657265036e657400",
        // root nxdomain
        "0003818300010000000000000178036e65740000010001",
        // root apex
        "0004818300010000000000000000020001",
        // tld referral, two ns, glue
        "0005818000010000000200030464656570037375620676656e646f72076578616d706c6500001c0001c01500020001000151800006036e7331c015c01500020001000151800006036e7332c015c03500010001000151800004cb007135c035001c000100015180001020010db8000000000000000000000053c04700010001000151800004cb007136",
        // tld referral, out-of-bailiwick, no glue
        "00068180000100000001000004656467650363646e076578616d706c650000010001c0110002000100015180000f0563646e6e730676656e646f72c015",
        // tld apex ns answer
        "000781800001000100000000076578616d706c650000020001c00c0002000100015180000901610467746c64c00c",
        // tld apex a
        "000881800001000100000000074558414d504c450000010001076578616d706c65000001000100000e100004c0000201",
        // tld apex miss
        "000981830001000000000000076578616d706c6500000f0001",
        // tld referral, case variant
        "000a81800001000000020003035757570656656e646f72074558414d504c4500000100010676656e646f72076578616d706c650000020001000151800006036e7331c024c02400020001000151800006036e7332c024c03e00010001000151800004cb007135c03e001c000100015180001020010db8000000000000000000000053c05000010001000151800004cb007136",
        // ns name itself is under the cut
        "000b81800001000100000000036e73310676656e646f72076578616d706c650000010001c00c00010001000151800004cb007135",
        // two A answers
        "000c8180000100020000000005636c6f75640676656e646f72076578616d706c650000010001c00c000100010000012c0004cb007107c00c000100010000012c0004cb007108",
        // AAAA answer
        "000d8180000100010000000005636c6f75640676656e646f72076578616d706c6500001c0001c00c001c00010000012c001020010db8000000000000000000000007",
        // two-step cname chain
        "000e81800001000400000000037777770676656e646f72076578616d706c650000010001c00c000500010000025800070465646765c010c0300005000100000258000805636c6f7564c010c043000100010000012c0004cb007107c043000100010000012c0004cb007108",
        // cname asked directly
        "000f81800001000100000000037777770676656e646f72076578616d706c650000050001c00c000500010000025800070465646765c010",
        // case variant answer
        "00108180000100020000000005436c6f75640656454e444f52076578616d706c65000001000105636c6f75640676656e646f72c019000100010000012c0004cb007107c026000100010000012c0004cb007108",
        // mixed-case cname target
        "001181800001000300000000056d697865640676656e646f72076578616d706c650000010001054d697865640656656e646f72074578616d706c6500000500010000003c001605434c4f55440676656e646f72074558414d504c450005636c6f7564c012000100010000012c0004cb007107c05c000100010000012c0004cb007108",
        // cname loop bounded
        "001281800001000500000000056c6f6f70310676656e646f72076578616d706c650000010001c00c000500010000003c0008056c6f6f7032c012c032000500010000003c0002c00cc00c000500010000003c0002c032c032000500010000003c0002c00cc00c000500010000003c0002c032",
        // cname out of zone
        "001381800001000100000000036f66660676656e646f72076578616d706c650000010001c00c000500010000003c001004686f7374056f74686572036e657400",
        // in-zone delegation with glue
        "0014818000010000000100010161037375620676656e646f72076578616d706c650000010001c00e0002000100000e100005026e73c00ec0320001000100000e1000040a000035",
        // mx
        "0015818000010001000000000676656e646f72076578616d706c6500000f0001c00c000f000100000e100009000a046d61696cc00c",
        // soa
        "0016818000010001000000000676656e646f72076578616d706c650000060001c00c0006000100000e100027036e7331c00c0a686f73746d6173746572c00c000007e300001c2000000258000151800000012c",
        // txt
        "0017818000010001000000000676656e646f72076578616d706c650000100001c00c0010000100000e1000100b763d73706631202d616c6c03ff5c2e",
        // opaque type
        "001881800001000100000000066f70617175650676656e646f72076578616d706c650000630001c00c006300010000003c0003010203",
        // nxdomain
        "0019818300010000000000000567686f73740676656e646f72076578616d706c650000010001",
        // label with a dot
        "001a8180000100010000000007646f742e7465640676656e646f72076578616d706c650000010001c00c000100010000003c0004c6336401",
        // label with a dot is not two labels
        "001b81830001000000000000037465640676656e646f72076578616d706c650000010001",
        // backslash label, cname to a high-byte label
        "001c818000010002000000000a6261636b5c736c6173680676656e646f72076578616d706c650000010001c00c000500010000003c0006036869e9c017034849e9c017000100010000003c0004c6336402",
        // high byte case is not folded
        "001d81830001000000000000036869c90676656e646f72076578616d706c650000010001",
        // high-byte label, ascii case folded
        "001e81800001000100000000034869e90656454e444f52076578616d706c650000010001034849e90676656e646f72c017000100010000003c0004c6336402",
        // rd clear
        "001f8080000100020000000005636c6f75640676656e646f72076578616d706c650000010001c00c000100010000012c0004cb007107c00c000100010000012c0004cb007108",
        // odd flags
        "00208180000100020000000005636c6f75640676656e646f72076578616d706c650000010001c00c000100010000012c0004cb007107c00c000100010000012c0004cb007108",
        // class CH
        "00218180000100020000000005636c6f75640676656e646f72076578616d706c650000010003c00c000100010000012c0004cb007107c00c000100010000012c0004cb007108",
        // two questions
        "002281800002000400000000037777770676656e646f72076578616d706c65000001000105636c6f7564c010001c0001c00c000500010000025800070465646765c010c03c00050001000002580002c024c024000100010000012c0004cb007107c024000100010000012c0004cb007108",
        // query with an additional
        "00238180000100020000000005636c6f75640676656e646f72076578616d706c650000010001c00c000100010000012c0004cb007107c00c000100010000012c0004cb007108",
        // trailing byte dropped
        "drop",
        // response dropped
        "drop",
        // no question dropped
        "drop",
        // garbage dropped
        "drop",
];

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

#[test]
fn zone_server_responses_match_golden_bytes() {
    let mut got = Vec::new();
    for (mk, label, query) in corpus() {
        let mut s = mk();
        let out = s
            .handle(&query)
            .map_or_else(|| "drop".to_string(), |r| hex(&r));
        got.push((label, out));
    }
    assert_eq!(GOLDEN.len(), got.len(), "corpus size");
    for ((label, out), want) in got.iter().zip(GOLDEN) {
        assert_eq!(out, want, "{label}");
    }
}

#[test]
fn pooled_and_plain_paths_agree_on_the_corpus() {
    let mut buf = WireBuf::new();
    for (mk, label, query) in corpus() {
        let plain = mk().handle(&query);
        let pooled = mk().handle_into(&query, &mut buf);
        assert_eq!(plain.is_some(), pooled, "{label}");
        if let Some(p) = plain {
            assert_eq!(buf.as_bytes(), &p[..], "{label}");
        }
    }
}

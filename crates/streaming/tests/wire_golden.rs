//! Golden bytes for the socket encoding of [`Wire`].
//!
//! The codec's proptests round-trip every variant, but a round trip
//! cannot see two fields written and read in the same swapped order.
//! This test pins the layout itself: each message below is encoded and
//! its length and FNV-1a hash compared with the values recorded from the
//! encoder. Every field carries a distinct value, so swapping two fields
//! of one layout changes the bytes. The list covers every `Wire` and
//! `ControlRequest` variant, each `Option` field in both states, all four
//! `StreamKind`s, a DRM header and segments carrying packets of 0, 1 and
//! 3 payloads.
//!
//! Re-record a row only when the wire format is meant to change (a frame
//! version bump): a failure prints the new length, hash and hex.

use lod_asf::{
    DataPacket, DrmHeader, FileProperties, Payload, ScriptCommand, ScriptCommandList, StreamKind,
    StreamProperties,
};
use lod_obs::TraceCtx;
use lod_simnet::NodeId;
use lod_streaming::{ControlRequest, SegmentData, StreamHeader, Wire};
use lod_transport::WireCodec;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn trace() -> TraceCtx {
    TraceCtx {
        lecture: 0x0101_0101_0101_0101,
        segment: 0x0202,
        seq: 0x0003_0303,
        origin: 0x0404_0404,
    }
}

fn payload(i: u32, len: usize) -> Payload {
    Payload {
        stream: 0x10 + i as u16,
        object_id: 0x2000 + i,
        offset: 0x30_0000 + i,
        total: 0x4000_0000 + i,
        pres_time: 0x50_0000_0000 + u64::from(i),
        data: (0..len)
            .map(|b| (b as u8) ^ 0xA5)
            .collect::<Vec<u8>>()
            .into(),
    }
}

fn packet(send_time: u64, payloads: usize) -> DataPacket {
    DataPacket {
        send_time,
        payloads: (0..payloads)
            .map(|i| payload(i as u32, 3 + 2 * i))
            .collect::<Vec<_>>()
            .into(),
    }
}

fn header(drm: bool) -> StreamHeader {
    let kinds = [
        StreamKind::Audio,
        StreamKind::Video,
        StreamKind::Image,
        StreamKind::Script,
    ];
    let mut script = ScriptCommandList::new();
    script.push(ScriptCommand::new(0x61, "slide", "2"));
    script.push(ScriptCommand::new(0x62, "url", "eq.4"));
    StreamHeader {
        props: FileProperties {
            file_id: 0x7101,
            created: 0x7202,
            packet_size: 0x7303,
            play_duration: 0x7404,
            preroll: 0x7505,
            broadcast: true,
            max_bitrate: 0x7606,
        },
        streams: kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| StreamProperties {
                number: 1 + i as u16,
                kind,
                codec: 0x80 + i as u16,
                bitrate: 0x9000 + i as u32,
                name: format!("s{i}"),
            })
            .collect(),
        script,
        drm: drm.then(|| DrmHeader {
            key_id: "cs101".into(),
            probe: [1, 2, 3, 4, 5, 6, 7, 8],
        }),
        epoch: 0xE1,
    }
}

fn segment(full: bool) -> SegmentData {
    SegmentData {
        content: "lecture".into(),
        segment: 0x11,
        base_packet: 0x22,
        total_packets: 0x33,
        total_segments: 0x44,
        segment_packets: 0x55,
        packet_size: 0x66,
        packets: if full {
            vec![packet(0xA0, 0), packet(0xA1, 1), packet(0xA2, 3)]
        } else {
            Vec::new()
        },
        header: full.then(|| Box::new(header(true))),
        start_packet: full.then_some(0x77),
        at_time: full.then_some(0x88),
        epoch: 0x99,
        trace: full.then(trace),
    }
}

fn messages() -> Vec<(&'static str, Wire)> {
    let fetch = |full: bool| ControlRequest::FetchSegment {
        content: "lecture".into(),
        segment: 0x12,
        at_time: full.then_some(0x34),
        want_header: full,
        trace: full.then(trace),
    };
    vec![
        (
            "play",
            Wire::Request(ControlRequest::Play {
                content: "lecture".into(),
                from: 0x56,
            }),
        ),
        ("pause", Wire::Request(ControlRequest::Pause)),
        ("resume", Wire::Request(ControlRequest::Resume)),
        ("seek", Wire::Request(ControlRequest::Seek { to: 0x78 })),
        (
            "select_none",
            Wire::Request(ControlRequest::SelectStreams(Vec::new())),
        ),
        (
            "select_three",
            Wire::Request(ControlRequest::SelectStreams(vec![1, 0x202, 3])),
        ),
        ("teardown", Wire::Request(ControlRequest::Teardown)),
        ("fetch_bare", Wire::Request(fetch(false))),
        ("fetch_full", Wire::Request(fetch(true))),
        ("ping", Wire::Request(ControlRequest::Ping { epoch: 0x9A })),
        ("header_drm", Wire::Header(Box::new(header(true)))),
        ("header_plain", Wire::Header(Box::new(header(false)))),
        ("data_0", Wire::Data(packet(0xB0, 0))),
        ("data_1", Wire::Data(packet(0xB1, 1))),
        ("data_3", Wire::Data(packet(0xB2, 3))),
        (
            "script",
            Wire::Script(ScriptCommand::new(0xC0, "slide", "7")),
        ),
        ("eos", Wire::EndOfStream),
        ("not_found", Wire::NotFound("missing".into())),
        ("segment_bare", Wire::Segment(segment(false))),
        ("segment_full", Wire::Segment(segment(true))),
        (
            "redirect",
            Wire::Redirect {
                to: NodeId::from_index(0x0D),
            },
        ),
        (
            "busy_bare",
            Wire::Busy {
                retry_after: 0xF0,
                alternate: None,
            },
        ),
        (
            "busy_alternate",
            Wire::Busy {
                retry_after: 0xF1,
                alternate: Some(NodeId::from_index(0x0E)),
            },
        ),
        ("pong", Wire::Pong { epoch: 0xF2 }),
        ("mark", Wire::Mark(trace())),
    ]
}

/// `(name, encoded length, FNV-1a of the encoding)`, recorded from the
/// encoder.
const GOLDEN: &[(&str, usize, u64)] = &[
    ("play", 21, 0x5aeeec58a56228b6),
    ("pause", 2, 0x08328707b4eb6e3a),
    ("resume", 2, 0x08328607b4eb6c87),
    ("seek", 10, 0xd864ee49adc2782c),
    ("select_none", 6, 0xa5297050345fc7b1),
    ("select_three", 12, 0x356b2e1f536524f8),
    ("teardown", 2, 0x08328307b4eb676e),
    ("fetch_bare", 20, 0xe5847f1be4beaf8c),
    ("fetch_full", 60, 0x1f2001992b909678),
    ("ping", 10, 0x1519fd1cf5b82ad2),
    ("header_drm", 181, 0x6adf91831efe7eb8),
    ("header_plain", 164, 0xd14cd477243c559a),
    ("data_0", 13, 0x3ae34ad269768c65),
    ("data_1", 42, 0x701d5c48b2a9c678),
    ("data_3", 106, 0xaf0e91229ddb92af),
    ("script", 23, 0xe9b82538c021ad9a),
    ("eos", 1, 0xaf63b94c8601b113),
    ("not_found", 12, 0xa94290eb5edee675),
    ("segment_bare", 52, 0xfa85e40921cf2038),
    ("segment_full", 434, 0x56bfb1380d7d50cc),
    ("redirect", 9, 0xc6ab654e9d6bba2b),
    ("busy_bare", 10, 0x65a165c185276305),
    ("busy_alternate", 18, 0xe3c801db99bcb20b),
    ("pong", 9, 0xbed270c52411c5f6),
    ("mark", 33, 0xbc87261251503248),
];

#[test]
fn every_message_encodes_to_its_recorded_bytes() {
    let messages = messages();
    let mut failures = Vec::new();
    for (name, wire) in &messages {
        let bytes = wire.to_frame_payload();
        let got = (bytes.len(), fnv1a(&bytes));
        let want = GOLDEN
            .iter()
            .find(|(n, ..)| n == name)
            .map(|&(_, len, hash)| (len, hash));
        if want != Some(got) {
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            failures.push(format!(
                "    (\"{name}\", {}, 0x{:016x}), // {hex}",
                got.0, got.1
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "encodings differ from the recorded layout:\n{}",
        failures.join("\n")
    );
    assert_eq!(GOLDEN.len(), messages.len(), "one golden row per message");
}

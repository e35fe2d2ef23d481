//! Golden bytes for the transport's own frames.
//!
//! The `Wire` encoding is pinned by `lod-streaming`'s `wire_golden.rs`;
//! this file pins what wraps it and what the repair sublayer sends on
//! its own: the 24-byte frame header, the 32-byte trace extension, a
//! dense NACK (base plus a full 63-offset bitmap, 43 bytes framed) as
//! the NACK builder makes it, and a heartbeat (33 bytes framed). Each
//! frame is encoded and its length and FNV-1a hash compared with the
//! values recorded from the encoder. Every field carries a distinct
//! value, so swapping two fields of one layout changes the bytes.
//!
//! Re-record a row only when the frame format is meant to change (a
//! version bump): a failure prints the new length, hash and hex.

use lod_obs::TraceCtx;
use lod_transport::frame::encode_frame_traced;
use lod_transport::{encode_frame, ControlFrame, WireCodec, FLAG_CONTROL};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A control frame as the repair sublayer ships it: sequence 0, the
/// control flag, no trace extension.
fn control(sent_at: u64, cf: &ControlFrame) -> Vec<u8> {
    encode_frame_traced(0, sent_at, FLAG_CONTROL, None, &cf.to_frame_payload())
}

fn frames() -> Vec<(&'static str, Vec<u8>)> {
    let trace = TraceCtx {
        lecture: 0x0101_0101_0101_0101,
        segment: 0x0202,
        seq: 0x0003_0303,
        origin: 0x0404_0404,
    };
    let nacks = ControlFrame::build_nacks(std::iter::once(0x0A0B_0C0D..0x0A0B_0C0D + 64));
    assert_eq!(nacks.len(), 1, "64 contiguous sequences fit one NACK");
    vec![
        (
            "header",
            encode_frame(0x0102_0304_0506_0708, 0x1112_1314_1516_1718, true, &[]),
        ),
        (
            "trace_ext",
            encode_frame_traced(0x21, 0x22, 0, Some(trace), &[]),
        ),
        ("nack_dense", control(0x31, &nacks[0])),
        (
            "heartbeat",
            control(
                0x41,
                &ControlFrame::Heartbeat {
                    top_seq: 0x4243_4445_4647_4849,
                },
            ),
        ),
    ]
}

/// `(name, frame length, FNV-1a of the frame)`, recorded from the
/// encoder.
const GOLDEN: &[(&str, usize, u64)] = &[
    ("header", 24, 0x9cb46ce6f89aba0f),
    ("trace_ext", 56, 0xce6b8f09432e762e),
    ("nack_dense", 43, 0xf1827d5e3dc61f7c),
    ("heartbeat", 33, 0x518444405e9e7c81),
];

#[test]
fn every_frame_encodes_to_its_recorded_bytes() {
    let frames = frames();
    let mut failures = Vec::new();
    for (name, bytes) in &frames {
        let got = (bytes.len(), fnv1a(bytes));
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
    assert_eq!(GOLDEN.len(), frames.len(), "one golden row per frame");
}

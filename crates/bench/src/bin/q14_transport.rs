//! Q14: the transport tier on real sockets — first entry in the perf
//! trajectory.
//!
//! Two measurements, both on the production `UdpTransport` path:
//!
//! * **Codec micro-bench** — median ns to encode and decode
//!   representative `Wire` messages (a 32-packet `Segment` near the
//!   datagram ceiling, and a small control `Request`), since the UDP
//!   backend runs the codec on every frame on the hot path.
//! * **Loopback deployment** — origin + 2 relays + 32 clients on real
//!   localhost sockets, stepped by the tier driver on its manual clock,
//!   completing a one-minute lecture; reported as frames/sec and
//!   bytes/sec through the transports, plus the run's reorder counters.
//!
//! The JSON report is split into two sections so the CI perf gate can
//! consume it:
//!
//! * `"tracked"` — the two frame sizes: exact on every machine.
//!   `scripts/ci.sh` re-runs this bench and fails when a fresh tracked
//!   value differs from the committed `BENCH_q14.json` (see
//!   `perf_gate`, which compares for equality).
//! * `"untracked"` — the codec medians and the loopback numbers. The
//!   loopback counts repeat exactly run to run; the medians and the
//!   wall-clock figures (seconds, frames/sec) are the machine's, and
//!   nanoseconds committed from one machine are not a gate on another.
//!   Recorded for the perf trajectory, never gated; timing one commit
//!   against another on one machine is `wmps_bench`'s job.
//!
//! Usage: `q14_transport [--json PATH] [--codec-only]`
//!
//! `--codec-only` skips the loopback deployment (the slow half; the
//! untracked block then carries just the medians) — what the CI perf
//! gate runs.

use lod_bench::report::{emit, median_ns, BenchReport, Json};
use lod_core::{serve_loopback_udp, synthetic_lecture, RelayTierConfig, UdpConfig, Wmps};
use lod_streaming::wire::{ControlRequest, Wire};
use lod_transport::{decode_frame, encode_frame, WireCodec};

struct Args {
    json: Option<String>,
    codec_only: bool,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        json: None,
        codec_only: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => parsed.json = Some(args.next().expect("--json takes a path")),
            "--codec-only" => parsed.codec_only = true,
            other => panic!(
                "unknown argument {other} (usage: q14_transport [--json PATH] [--codec-only])"
            ),
        }
    }
    parsed
}

/// A 32 × 1400 B segment, the frame the relay tier actually ships.
fn big_segment() -> Wire {
    let packets = (0..32)
        .map(|i| lod_asf::DataPacket {
            send_time: u64::from(i) * 10_000,
            payloads: vec![lod_asf::Payload {
                stream: 1,
                object_id: i,
                offset: 0,
                total: 1_400,
                pres_time: u64::from(i) * 10_000,
                data: vec![0x5A; 1_400].into(),
            }]
            .into(),
        })
        .collect();
    Wire::Segment(lod_streaming::wire::SegmentData {
        content: "lecture".into(),
        segment: 5,
        base_packet: 160,
        total_packets: 1_600,
        total_segments: 50,
        segment_packets: 32,
        packet_size: 1_400,
        packets,
        header: None,
        start_packet: Some(160),
        at_time: Some(7_000_000),
        epoch: 1,
        trace: None,
    })
}

fn main() {
    let args = parse_args();
    println!("Q14 — transport perf: codec medians + loopback UDP throughput\n");

    // Codec micro-bench. Warm up, then take medians.
    const ITERS: usize = 2_000;
    let seg = big_segment();
    let ctrl = Wire::Request(ControlRequest::FetchSegment {
        content: "lecture".into(),
        segment: 5,
        at_time: Some(7_000_000),
        want_header: false,
        trace: None,
    });
    let seg_payload = seg.to_frame_payload();
    let seg_frame = encode_frame(1, 0, false, &seg_payload);
    let ctrl_payload = ctrl.to_frame_payload();
    let ctrl_frame = encode_frame(1, 0, true, &ctrl_payload);

    let enc_segment_ns = median_ns(ITERS, || {
        std::hint::black_box(encode_frame(1, 0, false, &seg.to_frame_payload()));
    });
    let dec_segment_ns = median_ns(ITERS, || {
        let (_, payload) = decode_frame(std::hint::black_box(&seg_frame)).expect("frame");
        std::hint::black_box(Wire::from_frame_payload(payload).expect("payload"));
    });
    // The production receive path: one allocation per datagram, then
    // zero-copy payload views into it.
    let dec_segment_shared_ns = median_ns(ITERS, || {
        let (_, payload) = decode_frame(std::hint::black_box(&seg_frame)).expect("frame");
        let payload = bytes::Bytes::copy_from_slice(payload);
        std::hint::black_box(Wire::from_shared_payload(&payload).expect("payload"));
    });
    let enc_control_ns = median_ns(ITERS, || {
        std::hint::black_box(encode_frame(1, 0, true, &ctrl.to_frame_payload()));
    });
    let dec_control_ns = median_ns(ITERS, || {
        let (_, payload) = decode_frame(std::hint::black_box(&ctrl_frame)).expect("frame");
        std::hint::black_box(Wire::from_frame_payload(payload).expect("payload"));
    });
    println!(
        "codec: segment ({} B) encode {enc_segment_ns} ns / decode {dec_segment_ns} ns \
         (shared {dec_segment_shared_ns} ns), control ({} B) encode {enc_control_ns} ns / \
         decode {dec_control_ns} ns",
        seg_frame.len(),
        ctrl_frame.len()
    );

    let mut untracked = Vec::new();
    if !args.codec_only {
        // Loopback deployment: the acceptance scenario, timed. Counts that
        // repeat exactly and wall-clock figures alike are for the record.
        let wmps = Wmps::new();
        let file = wmps
            .publish(&synthetic_lecture(1, 1, 300_000))
            .expect("publish");
        let (clients, relays) = (32, 2);
        let cfg = RelayTierConfig {
            relays,
            ..RelayTierConfig::default()
        };
        let report = serve_loopback_udp(file, clients, 7, &cfg, UdpConfig::loopback(), None)
            .expect("loopback sockets");
        let completed = report.completed_sessions();
        let abandoned = report.clients.iter().filter(|c| c.abandoned).count();
        assert_eq!(
            (completed, abandoned),
            (clients, 0),
            "perf record requires a clean run: {report:?}"
        );
        let socket = report.socket.expect("a socket run");
        let (transport, reorder) = (socket.transport, socket.reorder);
        let wall_s = socket.wall.as_secs_f64();
        let frames_per_sec = transport.frames_sent as f64 / wall_s;
        let bytes_per_sec = transport.bytes_sent as f64 / wall_s;
        println!(
            "loopback: {clients} clients / {relays} relays completed in {wall_s:.2} s wall — \
             {frames_per_sec:.0} frames/s, {:.1} MB/s, {} reordered, {} skipped",
            bytes_per_sec / 1e6,
            reorder.out_of_order,
            reorder.skipped_seqs
        );

        untracked = vec![
            ("clients", clients.into()),
            ("relays", relays.into()),
            ("completed", completed.into()),
            ("abandoned", abandoned.into()),
            ("wall_seconds", Json::Num(format!("{wall_s:.3}"))),
            ("frames_sent", transport.frames_sent.into()),
            ("frames_received", transport.frames_received.into()),
            ("bytes_sent", transport.bytes_sent.into()),
            ("frames_per_sec", Json::Num(format!("{frames_per_sec:.0}"))),
            ("bytes_per_sec", Json::Num(format!("{bytes_per_sec:.0}"))),
            ("reordered", reorder.out_of_order.into()),
            ("skipped", reorder.skipped_seqs.into()),
            ("decode_errors", transport.decode_errors.into()),
        ];
    }
    untracked.extend(vec![
        ("segment_encode_ns_median", enc_segment_ns.into()),
        ("segment_decode_ns_median", dec_segment_ns.into()),
        (
            "segment_decode_shared_ns_median",
            dec_segment_shared_ns.into(),
        ),
        ("control_encode_ns_median", enc_control_ns.into()),
        ("control_decode_ns_median", dec_control_ns.into()),
    ]);
    let report = BenchReport {
        bench: "q14_transport",
        tracked: vec![
            ("segment_frame_bytes", seg_frame.len() as u64),
            ("control_frame_bytes", ctrl_frame.len() as u64),
        ],
        untracked,
    };
    emit(&report.render(), args.json.as_deref());

    println!(
        "\nshape: the codec costs microseconds against a millisecond-scale\n\
         datagram path, so framing is nowhere near the bottleneck; the\n\
         loopback tier moves a one-minute lecture for a 35-node deployment\n\
         as fast as its code runs, with nothing reordered on a clean wire."
    );
}

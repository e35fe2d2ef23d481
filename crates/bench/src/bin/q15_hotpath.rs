//! Q15: the zero-copy segment hot path — second entry in the perf
//! trajectory.
//!
//! Three measurements over the path a lecture's bytes actually travel:
//!
//! * **Mux ns/packet** — median ns per data packet to serialize a
//!   60-second lecture with `write_asf` (the origin's publish cost).
//! * **Fan-out throughput** — 1 origin ships one 32-packet segment to
//!   4 relays over the real UDP codec; each relay caches it and fans it
//!   out to its share of 256 readers, simnet-style (`Wire::Data` values,
//!   no re-serialization). Reported as median ns per packet delivery and
//!   MB/s of payload moved.
//! * **Payload-copy counters** — `bytes::stats` counts every backing
//!   allocation and deep-copied byte. With ref-counted payloads the
//!   whole fan-out performs exactly one backing allocation per relay
//!   (the datagram buffer), *independent of reader count*; the
//!   deep-copy counterfactual (cloning payload storage per reader, the
//!   pre-zero-copy behavior) is re-enacted and reported alongside so
//!   the O(readers) → O(1) collapse is visible in the same JSON.
//!
//! The JSON splits into `"tracked"` (the — fully deterministic — copy
//! counters; the CI perf gate holds these to exactly the committed
//! `BENCH_q15.json`) and `"untracked"` (the two wall-clock medians,
//! throughput and counterfactual context: this machine's, recorded,
//! never gated). A reintroduced per-reader copy
//! would blow `fanout_backing_allocs_256` three orders of magnitude past
//! its committed value and fail the gate.
//!
//! Usage: `q15_hotpath [--json PATH]`

use lod_asf::{
    write_asf, AsfFile, DataPacket, FileProperties, MediaSample, Packetizer, Payload,
    ScriptCommandList, StreamKind, StreamProperties,
};
use lod_bench::report::{emit, median_ns, BenchReport};
use lod_relay::{CachedSegment, SegmentCache};
use lod_streaming::wire::{SegmentData, Wire};
use lod_transport::{decode_frame, encode_frame, WireCodec};

const RELAYS: usize = 4;
const READERS: usize = 256;
const SEGMENT_PACKETS: u32 = 32;
const PACKET_SIZE: u32 = 1_400;

fn parse_args() -> Option<String> {
    let mut json = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = Some(args.next().expect("--json takes a path")),
            other => panic!("unknown argument {other} (usage: q15_hotpath [--json PATH])"),
        }
    }
    json
}

/// A 60-second ~400 kbit/s lecture, the mux workload.
fn lecture_file() -> AsfFile {
    let mut pk = Packetizer::new(PACKET_SIZE).unwrap();
    for i in 0..600 {
        pk.push(&MediaSample::new(1, i * 1_000_000, vec![0xAB; 5_000]));
    }
    AsfFile {
        props: FileProperties {
            file_id: 15,
            created: 0,
            packet_size: PACKET_SIZE,
            play_duration: 600_000_000,
            preroll: 20_000_000,
            broadcast: false,
            max_bitrate: 400_000,
        },
        streams: vec![StreamProperties {
            number: 1,
            kind: StreamKind::Video,
            codec: 4,
            bitrate: 400_000,
            name: "camera".into(),
        }],
        script: ScriptCommandList::new(),
        drm: None,
        packets: pk.finish(),
        index: None,
    }
}

/// One relay-sized segment as the origin would answer a fetch: 32
/// packets of fragments slicing a handful of large samples.
fn origin_segment() -> Wire {
    let mut pk = Packetizer::new(PACKET_SIZE).unwrap();
    for i in 0..10 {
        pk.push(&MediaSample::new(1, i * 1_000_000, vec![0x5A; 5_000]));
    }
    let mut packets = pk.finish();
    packets.truncate(SEGMENT_PACKETS as usize);
    assert_eq!(packets.len(), SEGMENT_PACKETS as usize);
    Wire::Segment(SegmentData {
        content: "lecture".into(),
        segment: 5,
        base_packet: 160,
        total_packets: 1_600,
        total_segments: 50,
        segment_packets: SEGMENT_PACKETS,
        packet_size: PACKET_SIZE,
        packets,
        header: None,
        start_packet: Some(160),
        at_time: Some(7_000_000),
        epoch: 1,
        trace: None,
    })
}

/// Ships `frame` to every relay (real codec decode into one shared
/// buffer each), caches the segment, then delivers it to `readers`
/// simnet-style. Returns total packet deliveries.
fn fan_out(frame: &[u8], readers: usize) -> u64 {
    let mut deliveries = 0u64;
    for relay in 0..RELAYS {
        // The production receive path: one allocation per datagram,
        // payloads are zero-copy views into it.
        let (_, payload) = decode_frame(frame).expect("frame");
        let payload = bytes::Bytes::copy_from_slice(payload);
        let Wire::Segment(mut seg) = Wire::from_shared_payload(&payload).expect("payload") else {
            panic!("origin sent a segment");
        };
        let mut cache = SegmentCache::new(1 << 20);
        let data = CachedSegment {
            base_packet: seg.base_packet,
            bytes: seg.packets.len() as u64 * u64::from(seg.packet_size),
            packets: std::mem::take(&mut seg.packets),
        };
        cache.insert(&seg.content, seg.segment, data);

        // This relay's share of the readers, served from cache: each
        // delivery clones the packet value (Arc bumps on payloads), as
        // the simnet fan-out does.
        let share = readers / RELAYS + usize::from(relay < readers % RELAYS);
        for _ in 0..share {
            let cached = cache.get(&seg.content, seg.segment).expect("just inserted");
            for p in &cached.packets {
                std::hint::black_box(Wire::Data(p.clone()));
                deliveries += 1;
            }
        }
    }
    deliveries
}

/// The pre-zero-copy behavior, re-enacted: every delivery rebuilds the
/// packet's payload list over duplicated payload storage, so allocations
/// scale with readers.
fn fan_out_deep_copy(frame: &[u8], readers: usize) -> u64 {
    let mut deliveries = 0u64;
    for relay in 0..RELAYS {
        let (_, payload) = decode_frame(frame).expect("frame");
        let payload = bytes::Bytes::copy_from_slice(payload);
        let Wire::Segment(seg) = Wire::from_shared_payload(&payload).expect("payload") else {
            panic!("origin sent a segment");
        };
        let share = readers / RELAYS + usize::from(relay < readers % RELAYS);
        for _ in 0..share {
            for p in &seg.packets {
                let copy = DataPacket {
                    send_time: p.send_time,
                    payloads: p
                        .payloads
                        .iter()
                        .map(|pl| Payload {
                            data: bytes::Bytes::copy_from_slice(&pl.data),
                            ..pl.clone()
                        })
                        .collect(),
                };
                std::hint::black_box(Wire::Data(copy));
                deliveries += 1;
            }
        }
    }
    deliveries
}

fn main() {
    let json_path = parse_args();
    println!("Q15 — zero-copy hot path: mux ns/packet, fan-out, copy counters\n");

    // Mux: median ns per packet over the whole serialized lecture.
    let file = lecture_file();
    let n_packets = file.packets.len() as u64;
    let mux_ns = median_ns(50, || {
        std::hint::black_box(write_asf(std::hint::black_box(&file)).unwrap().len());
    });
    let mux_ns_per_packet = mux_ns / n_packets;
    println!("mux: {n_packets} packets, {mux_ns_per_packet} ns/packet");

    // Fan-out timing: 1 origin segment -> 4 relays -> 256 readers.
    let seg = origin_segment();
    let seg_payload = seg.to_frame_payload();
    let frame = encode_frame(1, 0, false, &seg_payload);
    let deliveries = fan_out(&frame, READERS);
    let fanout_ns = median_ns(30, || {
        std::hint::black_box(fan_out(std::hint::black_box(&frame), READERS));
    });
    let fanout_ns_per_packet = fanout_ns / deliveries;
    let payload_bytes_moved = deliveries * u64::from(PACKET_SIZE);
    let mb_per_sec = payload_bytes_moved as f64 / (fanout_ns as f64 / 1e9) / 1e6;
    println!(
        "fan-out: {RELAYS} relays x {READERS} readers, {deliveries} deliveries, \
         {fanout_ns_per_packet} ns/packet, {mb_per_sec:.0} MB/s"
    );

    // Copy counters: deterministic, so the perf gate can hold them to
    // exact-scale. One backing allocation per relay datagram — whether 4
    // readers or 256 are watching.
    bytes::stats::reset();
    fan_out(&frame, 4);
    let allocs_4 = bytes::stats::backing_allocations();
    bytes::stats::reset();
    fan_out(&frame, READERS);
    let allocs_256 = bytes::stats::backing_allocations();
    let copied_256 = bytes::stats::bytes_deep_copied();
    bytes::stats::reset();
    fan_out_deep_copy(&frame, READERS);
    let deep_allocs_256 = bytes::stats::backing_allocations();
    let deep_copied_256 = bytes::stats::bytes_deep_copied();
    assert_eq!(
        allocs_4, allocs_256,
        "zero-copy fan-out must not scale allocations with readers"
    );
    assert!(
        deep_allocs_256 > allocs_256 * 100,
        "counterfactual must show the O(readers) blow-up"
    );
    println!(
        "copies: shared fan-out {allocs_256} allocs ({copied_256} B copied) for 256 readers \
         (= {allocs_4} for 4 readers); deep-copy counterfactual {deep_allocs_256} allocs \
         ({deep_copied_256} B copied)"
    );

    let report = BenchReport {
        bench: "q15_hotpath",
        tracked: vec![
            ("fanout_backing_allocs_4", allocs_4),
            ("fanout_backing_allocs_256", allocs_256),
            ("fanout_bytes_deep_copied_256", copied_256),
        ],
        untracked: vec![
            ("mux_ns_per_packet", mux_ns_per_packet.into()),
            ("fanout_ns_per_packet", fanout_ns_per_packet.into()),
            ("relays", RELAYS.into()),
            ("readers", READERS.into()),
            ("segment_packets", SEGMENT_PACKETS.into()),
            ("mux_packets", n_packets.into()),
            ("fanout_deliveries", deliveries.into()),
            ("fanout_mb_per_sec", (mb_per_sec as u64).into()),
            ("deepcopy_backing_allocs_256", deep_allocs_256.into()),
            ("deepcopy_bytes_deep_copied_256", deep_copied_256.into()),
        ],
    };
    emit(&report.render(), json_path.as_deref());

    println!(
        "\nshape: payload copies no longer scale with the audience — the\n\
         shared path allocates once per relay datagram where the deep-copy\n\
         era allocated once per reader per fragment, and the cache holds\n\
         views into the same storage the fan-out ships."
    );
}

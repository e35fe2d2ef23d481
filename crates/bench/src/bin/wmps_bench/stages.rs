//! The stage table: tight loops over one public function each, on fixed
//! inputs made from the seed. These are the unit costs the traced
//! shares are made of; each value is the median of [`BATCHES`] timed
//! batches, in the order of [`crate::metrics::STAGES`].

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::Bytes;
use lod_asf::{read_asf, write_asf, DataPacket, MediaSample, Packetizer, Reassembler};
use lod_core::obs::{Event, Recorder};
use lod_core::{synthetic_lecture, Abstractor, RelayTierConfig, Wmps};
use lod_player::PlayerEngine;
use lod_relay::{CachedSegment, SegmentCache};
use lod_simnet::{LinkSpec, Network};
use lod_streaming::wire::{ControlRequest, SegmentData};
use lod_streaming::Wire;
use lod_transport::{
    decode_frame, encode_frame, ReorderBuffer, RepairConfig, RepairRx, RepairTx, WireCodec,
};

use crate::metrics::STAGES;
use crate::stats::median;
use crate::workloads::{STEP, UDP_SEGMENT_PACKETS};

/// Timed batches per stage.
const BATCHES: usize = 31;

/// Median over [`BATCHES`] batches of nanoseconds per operation. `batch`
/// does its untimed preparation, times its own loop, and says how many
/// operations the loop did.
fn ns_per_op(mut batch: impl FnMut() -> (Duration, u64)) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (elapsed, ops) = batch();
            elapsed.as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// [`ns_per_op`] for a loop with nothing to prepare: `op` run `ops` times.
fn ns_per_call(ops: u64, mut op: impl FnMut()) -> f64 {
    ns_per_op(|| {
        let t = Instant::now();
        for _ in 0..ops {
            op();
        }
        (t.elapsed(), ops)
    })
}

/// Encode and decode cost of one `Wire` message on the socket path, and
/// its exact frame size: `(encode ns, decode ns, frame bytes)`. Decoding
/// is the production receive path — one allocation per datagram, then
/// zero-copy views into it.
fn codec(msg: &Wire, ops: u64) -> (f64, f64, f64) {
    let frame = encode_frame(1, 0, false, &msg.to_frame_payload());
    let encode = ns_per_call(ops, || {
        black_box(encode_frame(
            1,
            0,
            false,
            &black_box(msg).to_frame_payload(),
        ));
    });
    let decode = ns_per_call(ops, || {
        let (_, payload) = decode_frame(black_box(&frame)).expect("frame decodes");
        let payload = Bytes::copy_from_slice(payload);
        black_box(Wire::from_shared_payload(&payload).expect("payload decodes"));
    });
    (encode, decode, frame.len() as f64)
}

/// Runs every stage. Takes a few seconds.
pub fn run(seed: u64) -> Vec<(&'static str, f64)> {
    let wmps = Wmps::new();
    let lecture = synthetic_lecture(seed, 1, 300_000);
    let file = wmps.publish(&lecture).expect("1400-byte packets publish");
    let n_packets = file.packets.len() as u64;
    let bytes = write_asf(&file).expect("published files serialize");
    let samples: Vec<MediaSample> = {
        let mut r = Reassembler::new();
        for p in &file.packets {
            r.push_packet(p).expect("published packets reassemble");
        }
        r.take_completed()
    };
    let engine = PlayerEngine::load(file.clone(), None).expect("unprotected content loads");
    let segment: Vec<DataPacket> = file.packets[..UDP_SEGMENT_PACKETS as usize].to_vec();

    let packetize = ns_per_op(|| {
        let mut pk = Packetizer::new(1_400).expect("1400 is a valid packet size");
        let t = Instant::now();
        for s in &samples {
            pk.push(s);
        }
        let packets = black_box(pk.finish());
        (t.elapsed(), packets.len() as u64)
    });
    let mux = ns_per_op(|| {
        let t = Instant::now();
        black_box(write_asf(black_box(&file)).expect("serializes"));
        (t.elapsed(), n_packets)
    });
    let demux = ns_per_op(|| {
        let t = Instant::now();
        black_box(read_asf(black_box(&bytes)).expect("parses"));
        (t.elapsed(), n_packets)
    });
    let reassemble = ns_per_op(|| {
        let mut r = Reassembler::new();
        let t = Instant::now();
        for p in &file.packets {
            r.push_packet(p).expect("reassembles");
        }
        black_box(r.take_completed());
        (t.elapsed(), n_packets)
    });
    let publish = ns_per_op(|| {
        let t = Instant::now();
        black_box(wmps.publish(black_box(&lecture)).expect("publishes"));
        (t.elapsed(), n_packets)
    });
    let abstractor = Abstractor::new();
    let summarize_ns = ns_per_call(200, || {
        black_box(abstractor.summarize(black_box(&lecture), 1));
    });
    let load = ns_per_op(|| {
        let copy = file.clone();
        let t = Instant::now();
        let e = black_box(PlayerEngine::load(copy, None).expect("loads"));
        (t.elapsed(), e.sample_count() as u64)
    });
    let tick = ns_per_op(|| {
        let mut playback = engine.play(0);
        let mut now = 0;
        let t = Instant::now();
        while !playback.is_finished(now) {
            now += STEP;
            black_box(playback.tick(now));
        }
        (t.elapsed(), playback.trace().len() as u64)
    });

    let seg_msg = Wire::Segment(SegmentData {
        content: "lecture".into(),
        segment: 5,
        base_packet: 5 * UDP_SEGMENT_PACKETS,
        total_packets: n_packets as u32,
        total_segments: n_packets.div_ceil(u64::from(UDP_SEGMENT_PACKETS)) as u32,
        segment_packets: UDP_SEGMENT_PACKETS,
        packet_size: 1_400,
        packets: segment.clone(),
        header: None,
        start_packet: None,
        at_time: None,
        epoch: 1,
        trace: None,
    });
    let data_msg = Wire::Data(segment[0].clone());
    let ctrl_msg = Wire::Request(ControlRequest::FetchSegment {
        content: "lecture".into(),
        segment: 5,
        at_time: None,
        want_header: false,
        trace: None,
    });
    let (seg_enc, seg_dec, seg_bytes) = codec(&seg_msg, 100);
    let (data_enc, data_dec, data_bytes) = codec(&data_msg, 2_000);
    let (ctrl_enc, ctrl_dec, ctrl_bytes) = codec(&ctrl_msg, 2_000);

    const SEQS: u64 = 4_096;
    let in_order = ns_per_op(|| {
        let mut buf = ReorderBuffer::new(500_000);
        let t = Instant::now();
        for seq in 1..=SEQS {
            black_box(buf.accept(seq, seq, seq));
        }
        (t.elapsed(), SEQS)
    });
    // Every block of eight arrives back to front: seven frames wait,
    // the eighth releases them all.
    let shuffled = ns_per_op(|| {
        let mut buf = ReorderBuffer::new(500_000);
        let t = Instant::now();
        for block in 0..SEQS / 8 {
            for i in (1..=8).rev() {
                let seq = block * 8 + i;
                black_box(buf.accept(seq, seq, seq));
            }
        }
        (t.elapsed(), SEQS)
    });

    let frame = encode_frame(1, 0, false, &data_msg.to_frame_payload());
    let record = ns_per_op(|| {
        let mut tx = RepairTx::new(RepairConfig::default());
        let t = Instant::now();
        for seq in 1..=SEQS {
            tx.record(seq, black_box(&frame));
        }
        (t.elapsed(), SEQS)
    });
    // One NACK naming eight buffered frames, each asked for once.
    let on_nack = ns_per_op(|| {
        let mut tx = RepairTx::new(RepairConfig::default());
        for seq in 1..=256 {
            tx.record(seq, &frame);
        }
        let nacks: Vec<Vec<u64>> = (0..32).map(|b| (b * 8 + 1..=b * 8 + 8).collect()).collect();
        let t = Instant::now();
        for seqs in &nacks {
            black_box(tx.on_nack(1_000, seqs));
        }
        (t.elapsed(), nacks.len() as u64)
    });
    // A receiver reconciling eight open gaps, poll after poll.
    let rx_poll = ns_per_op(|| {
        let mut rx = RepairRx::new(RepairConfig::default());
        let missing: Vec<u64> = (1..=8).map(|i| i * 3).collect();
        let t = Instant::now();
        for now in 0..1_000u64 {
            black_box(rx.poll(now * 1_000, &missing));
        }
        (t.elapsed(), 1_000)
    });

    const SEGMENTS: u32 = 64;
    let cached = CachedSegment {
        base_packet: 0,
        bytes: u64::from(UDP_SEGMENT_PACKETS) * 1_400,
        packets: segment.clone(),
    };
    let insert = ns_per_op(|| {
        let mut cache = SegmentCache::new(64 << 20);
        let fresh: Vec<CachedSegment> = (0..SEGMENTS).map(|_| cached.clone()).collect();
        let t = Instant::now();
        for (i, seg) in fresh.into_iter().enumerate() {
            black_box(cache.insert("lecture", i as u32, seg));
        }
        (t.elapsed(), u64::from(SEGMENTS))
    });
    let mut warm = SegmentCache::new(64 << 20);
    for i in 0..SEGMENTS {
        warm.insert("lecture", i, cached.clone());
    }
    let get_hit = ns_per_op(|| {
        let t = Instant::now();
        for round in 0..16 {
            for i in 0..SEGMENTS {
                black_box(warm.get("lecture", (i + round) % SEGMENTS).is_some());
            }
        }
        (t.elapsed(), 16 * u64::from(SEGMENTS))
    });

    let send_deliver = ns_per_op(|| {
        let mut net: Network<Wire> = Network::new(seed);
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.connect_bidirectional(a, b, LinkSpec::lan());
        let t = Instant::now();
        for _ in 0..1_000 {
            net.send(a, b, 1_400, data_msg.clone()).expect("linked");
        }
        let delivered = black_box(net.advance_to(u64::MAX / 2));
        (t.elapsed(), delivered.len() as u64)
    });

    let emit = ns_per_op(|| {
        let obs = Recorder::with_event_capacity(1 << 12);
        let t = Instant::now();
        for at in 0..4_096u64 {
            obs.emit(at, Event::StallStart { client: at });
        }
        (t.elapsed(), 4_096)
    });
    let disabled = Recorder::disabled();
    let emit_disabled = ns_per_call(4_096, || {
        black_box(&disabled).emit(0, Event::StallStart { client: 7 });
    });
    // How many events a fully observed deployment emits per session-second
    // (recorder on, every segment traced): times `emit`, the cost of
    // observability.
    let events_per_session_s = {
        let cfg = RelayTierConfig {
            relays: 2,
            recorder: Recorder::new(),
            trace_permille: 1_000,
            ..RelayTierConfig::default()
        };
        let students = 8;
        wmps.serve_with_relays(
            file.clone(),
            LinkSpec::lan(),
            LinkSpec::lan(),
            students,
            seed,
            &cfg,
        );
        cfg.recorder.event_count() as f64 / (students as f64 * 60.0)
    };

    let src = vec![0xA5u8; 1_400];
    let mut dst = vec![0u8; 1_400];
    let copy = ns_per_call(10_000, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });

    let values = [
        ("asf.packetize_ns_per_pkt", packetize),
        ("asf.mux_ns_per_pkt", mux),
        ("asf.demux_ns_per_pkt", demux),
        ("asf.reassemble_ns_per_pkt", reassemble),
        ("encoder.publish_ns_per_pkt", publish),
        ("abstractor.summarize_us", summarize_ns / 1_000.0),
        ("player.load_ns_per_sample", load),
        ("player.tick_ns_per_item", tick),
        ("codec.segment_encode_ns", seg_enc),
        ("codec.segment_decode_ns", seg_dec),
        ("codec.data_encode_ns", data_enc),
        ("codec.data_decode_ns", data_dec),
        ("codec.control_encode_ns", ctrl_enc),
        ("codec.control_decode_ns", ctrl_dec),
        ("codec.segment_frame_bytes", seg_bytes),
        ("codec.data_frame_bytes", data_bytes),
        ("codec.control_frame_bytes", ctrl_bytes),
        ("reorder.accept_in_order_ns", in_order),
        ("reorder.accept_shuffled_ns", shuffled),
        ("repair.record_ns_per_frame", record),
        ("repair.on_nack_ns", on_nack),
        ("repair.rx_poll_ns", rx_poll),
        ("cache.insert_ns", insert),
        ("cache.get_hit_ns", get_hit),
        ("simnet.send_deliver_ns_per_msg", send_deliver),
        ("obs.emit_ns_per_event", emit),
        ("obs.emit_disabled_ns", emit_disabled),
        ("obs.events_per_session_s", events_per_session_s),
        ("ref.copy_1400B_ns", copy),
    ];
    assert!(
        values.iter().map(|v| v.0).eq(STAGES.iter().map(|s| s.0)),
        "the stage table lists exactly the stages measured, in order"
    );
    values.to_vec()
}

//! Q17: the tracing plane — what end-to-end segment tracing costs and
//! what it buys.
//!
//! Three interleaved runs of the same seeded relay-tier lecture time
//! the telemetry plane:
//!
//! * **obs-off** — recorder disabled, `trace_permille = 0`: the
//!   baseline hot path.
//! * **sampled** — ring recorder armed, 50‰ head-sampling, a rate
//!   that keeps a handful of this lecture's 30 segments, so the
//!   sampled plane is measured with something in it.
//! * **full** — every segment traced (1000‰): the debugging posture.
//!
//! The wall times are reported, never gated: on identical code the
//! sampled-over-off delta of these short runs spreads wider than any
//! budget worth asserting.
//!
//! Untimed runs then feed the fidelity gates: causal span invariants
//! must hold over the full and the sampled log, the assembler must
//! reconstruct waterfalls carrying the whole delivery chain
//! (`relay_fetch → packetize → fan_out → reassemble → playout_wait`) —
//! at least one from the full log and every one from the sampled log,
//! which keeps fewer segments — and the event log must survive a JSONL
//! round trip.
//!
//! The JSON report follows the perf-trajectory convention:
//!
//! * `"tracked"` — wire-format byte counts and the deterministic span
//!   ledger (span/trace/event counts, violation totals). No wall clock
//!   lands here, and `perf_gate` holds every value to exactly its
//!   committed baseline: any drift is a protocol-behavior change that
//!   should come with a deliberate baseline update.
//! * `"untracked"` — wall-clock medians and the derived overhead
//!   permilles, machine-dependent by nature.
//!
//! Usage: `q17_tracing [--json PATH] [--events PATH]`
//!
//! `--events` writes the full-trace run's event log as JSONL — the
//! determinism artifact `scripts/ci.sh` byte-diffs across two
//! processes, and the input `wmps trace` renders waterfalls from.

use std::time::Instant;

use lod_bench::report::{emit, median, BenchReport};
use lod_core::obs::{sampled, SegmentTrace, TraceCtx};
use lod_core::{
    check_causal, fmt_ticks, lecture_id, parse_jsonl, synthetic_lecture, Recorder, RelayTierConfig,
    SpanAssembler, Wmps, WmpsReport,
};
use lod_simnet::NodeId;
use lod_streaming::StreamingServer;
use lod_transport::frame::{encode_frame_traced, TRACE_EXT_BYTES};
use lod_transport::{WireCodec, FLAG_RELIABLE};

const STUDENTS: usize = 24;
const RELAYS: usize = 2;
const SEED: u64 = 7;
/// Timed repetitions per configuration, interleaved so scheduler drift
/// hits all three configurations alike.
const REPS: usize = 5;
/// Sampling rate under test, timed and gated. On this 30-segment
/// lecture the head-sampler deterministically keeps a handful of
/// segments, proving a sub-full plane still assembles complete
/// waterfalls (ctx presence on the wire is the whole propagated
/// decision — nothing downstream re-rolls the dice).
const SAMPLED_PERMILLE: u16 = 50;
/// The five delivery-chain hops a complete simnet waterfall carries.
const CHAIN: [&str; 5] = [
    "relay_fetch",
    "packetize",
    "fan_out",
    "reassemble",
    "playout_wait",
];

fn parse_args() -> (Option<String>, Option<String>) {
    let mut json = None;
    let mut events = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = Some(args.next().expect("--json takes a path")),
            "--events" => events = Some(args.next().expect("--events takes a path")),
            other => {
                panic!(
                    "unknown argument {other} (usage: q17_tracing [--json PATH] [--events PATH])"
                )
            }
        }
    }
    (json, events)
}

/// One relay-tier run at `permille` with `recorder` armed; same seed,
/// links and students every time.
fn run_tier(wmps: &Wmps, file: &lod_asf::AsfFile, recorder: Recorder, permille: u16) -> WmpsReport {
    let cfg = RelayTierConfig {
        relays: RELAYS,
        recorder,
        trace_permille: permille,
        ..RelayTierConfig::default()
    };
    wmps.serve_with_relays(
        file.clone(),
        lod_simnet::LinkSpec::lan(),
        lod_simnet::LinkSpec::lan(),
        STUDENTS,
        SEED,
        &cfg,
    )
}

/// Whether `trace` holds a span of every hop in [`CHAIN`].
fn carries_chain(trace: &SegmentTrace) -> bool {
    CHAIN
        .iter()
        .all(|hop| trace.spans.iter().any(|s| s.hop == *hop))
}

fn main() {
    let (json_path, events_path) = parse_args();
    println!("Q17 — tracing plane: sampled-overhead contract + waterfall fidelity");
    println!(
        "({STUDENTS} students, {RELAYS} relays, 1-minute lecture, seed {SEED}, \
         {REPS} interleaved reps per config)\n"
    );

    let wmps = Wmps::new();
    let file = wmps
        .publish(&synthetic_lecture(11, 1, 300_000))
        .expect("publish");

    // The sampled plane must hold something: check with the relays' own
    // pure decision, before any run, that the rate keeps ≥ 3 segments.
    let segment_packets = StreamingServer::new(NodeId::from_index(0)).segment_packets();
    let segments = (file.packets.len() as u64).div_ceil(u64::from(segment_packets));
    let lecture = lecture_id("lecture");
    let kept = (0..segments)
        .filter(|&s| sampled(lecture, s, SAMPLED_PERMILLE))
        .count();
    assert!(
        kept >= 3,
        "{SAMPLED_PERMILLE}\u{2030} keeps {kept} of the lecture's {segments} segments; \
         the sampled arm needs at least 3"
    );

    // Wire-format costs: the one reliable Mark a sampled segment adds
    // per session, and the fixed per-frame trace extension.
    let ctx = TraceCtx {
        lecture,
        segment: 5,
        seq: 1,
        origin: 7_000_000,
    };
    let mark = lod_streaming::wire::Wire::Mark(ctx);
    let mark_frame = encode_frame_traced(1, 0, FLAG_RELIABLE, Some(ctx), &mark.to_frame_payload());
    println!(
        "wire: Mark frame {} B, per-frame trace extension {TRACE_EXT_BYTES} B\n",
        mark_frame.len()
    );

    // Timed runs, interleaved: off / sampled / full per repetition.
    // Fresh recorders every run so the ring never carries state across
    // repetitions.
    let mut off_ns = Vec::with_capacity(REPS);
    let mut sampled_ns = Vec::with_capacity(REPS);
    let mut full_ns = Vec::with_capacity(REPS);
    let mut session_ticks = 0;
    for _ in 0..REPS {
        let t = Instant::now();
        let report = run_tier(&wmps, &file, Recorder::disabled(), 0);
        off_ns.push(t.elapsed().as_nanos() as u64);
        session_ticks = report.session_ticks;

        let t = Instant::now();
        run_tier(
            &wmps,
            &file,
            Recorder::with_event_capacity(1 << 16),
            SAMPLED_PERMILLE,
        );
        sampled_ns.push(t.elapsed().as_nanos() as u64);

        let t = Instant::now();
        run_tier(&wmps, &file, Recorder::with_event_capacity(1 << 16), 1000);
        full_ns.push(t.elapsed().as_nanos() as u64);
    }
    let off_med = median(&mut off_ns);
    let sampled_med = median(&mut sampled_ns);
    let full_med = median(&mut full_ns);
    // Signed permille deltas against obs-off; a quiet machine lands the
    // sampled figure in single digits.
    let permille_over = |ns: u64| (ns as i64 - off_med as i64) * 1000 / off_med as i64;
    let ns_per_ktick = |ns: u64| ns * 1000 / session_ticks.max(1);
    println!(
        "overhead (median of {REPS}, {} session-ticks/run):\n\
         \x20 obs-off      {:>12} ns  ({:>5} ns/ktick)\n\
         \x20 sampled {SAMPLED_PERMILLE}\u{2030} {:>12} ns  ({:>5} ns/ktick, {:+} \u{2030} vs off)\n\
         \x20 full 1000\u{2030}  {:>12} ns  ({:>5} ns/ktick, {:+} \u{2030} vs off)\n",
        session_ticks,
        off_med,
        ns_per_ktick(off_med),
        sampled_med,
        ns_per_ktick(sampled_med),
        permille_over(sampled_med),
        full_med,
        ns_per_ktick(full_med),
        permille_over(full_med),
    );

    // Untimed analysis runs: the deterministic span ledgers.
    let full_rec = Recorder::with_event_capacity(1 << 16);
    let full_report = run_tier(&wmps, &file, full_rec.clone(), 1000);
    let sampled_rec = Recorder::with_event_capacity(1 << 16);
    let sampled_report = run_tier(&wmps, &file, sampled_rec.clone(), SAMPLED_PERMILLE);
    assert_eq!(
        full_report.completed_sessions(),
        STUDENTS,
        "tracing must not disturb delivery: {full_report:?}"
    );
    assert_eq!(sampled_report.completed_sessions(), STUDENTS);

    // Gate 1: causal span invariants over both logs.
    let full_events = full_rec.events();
    let full_causal = check_causal(&full_events);
    assert!(
        full_causal.holds(),
        "full-trace log must satisfy the causal span invariants: {full_causal:?}"
    );
    let sampled_events = sampled_rec.events();
    let sampled_causal = check_causal(&sampled_events);
    assert!(
        sampled_causal.holds(),
        "sampled log must satisfy the causal span invariants: {sampled_causal:?}"
    );
    println!(
        "PASS: causal invariants — {} span(s) opened full-trace, {} sampled, zero violations",
        full_causal.spans_opened, sampled_causal.spans_opened
    );

    // Gate 2: the assembler reconstructs complete waterfalls.
    let mut full_asm = SpanAssembler::default();
    full_asm.ingest_all(&full_events);
    let full_traces = full_asm.traces();
    assert!(
        !full_traces.is_empty(),
        "a 1000\u{2030} run must assemble at least one trace"
    );
    let complete = full_traces.iter().filter(|t| carries_chain(t)).count();
    assert!(
        complete > 0,
        "at least one waterfall must carry the whole delivery chain {CHAIN:?}"
    );
    let mut sampled_asm = SpanAssembler::default();
    sampled_asm.ingest_all(&sampled_events);
    let sampled_traces = sampled_asm.traces();
    // Head-sampling must shrink the plane, not mirror it or empty it.
    assert!(
        !sampled_traces.is_empty() && sampled_traces.len() < full_traces.len(),
        "the {SAMPLED_PERMILLE}\u{2030} plane must keep some but not all segments \
         ({} of {})",
        sampled_traces.len(),
        full_traces.len()
    );
    assert!(
        sampled_traces.iter().all(carries_chain),
        "every sampled segment must carry the whole delivery chain"
    );
    assert!(
        sampled_events.len() < full_events.len(),
        "the sampled plane must emit fewer events than full tracing"
    );
    println!(
        "PASS: waterfalls — {}/{} full traces carry all {} chain hops; \
         {SAMPLED_PERMILLE}\u{2030} keeps {} complete trace(s) / {} event(s) (full: {} / {})\n",
        complete,
        full_traces.len(),
        CHAIN.len(),
        sampled_traces.len(),
        sampled_events.len(),
        full_traces.len(),
        full_events.len()
    );

    // Gate 3: the log survives a JSONL round trip.
    let jsonl = full_rec.to_jsonl();
    assert_eq!(
        parse_jsonl(&jsonl).expect("log parses"),
        full_events,
        "JSONL round trip"
    );

    println!("hop latency across every full trace:");
    println!("  {:<13} {:>7} {:>10} {:>10}", "hop", "count", "p50", "p99");
    for h in full_asm.hop_stats() {
        println!(
            "  {:<13} {:>7} {:>10} {:>10}",
            h.hop,
            h.count,
            fmt_ticks(h.p50),
            fmt_ticks(h.p99)
        );
    }
    println!("\nworst segment by end-to-end latency:");
    for t in full_asm.worst_by_end_to_end(1) {
        print!("{}", t.waterfall(48));
    }

    // Integers only under "tracked", so the gate verdict is portable.
    let report = BenchReport {
        bench: "q17_tracing",
        tracked: vec![
            ("mark_frame_bytes", mark_frame.len() as u64),
            ("trace_ext_bytes", TRACE_EXT_BYTES as u64),
            ("full_spans_opened", full_causal.spans_opened),
            (
                "full_span_violations",
                full_causal.spans_unclosed
                    + full_causal.span_order_violations
                    + full_causal.span_receipt_violations,
            ),
            ("full_traces", full_traces.len() as u64),
            ("full_events", full_events.len() as u64),
            ("sampled_spans_opened", sampled_causal.spans_opened),
            ("sampled_traces", sampled_traces.len() as u64),
            ("sampled_events", sampled_events.len() as u64),
        ],
        untracked: vec![
            ("students", STUDENTS.into()),
            ("relays", RELAYS.into()),
            ("reps", REPS.into()),
            ("session_ticks", session_ticks.into()),
            ("off_ns_median", off_med.into()),
            ("sampled_ns_median", sampled_med.into()),
            ("full_ns_median", full_med.into()),
            (
                "sampled_overhead_permille",
                permille_over(sampled_med).into(),
            ),
            ("full_overhead_permille", permille_over(full_med).into()),
        ],
    };
    emit(&report.render(), json_path.as_deref());
    if let Some(path) = events_path {
        std::fs::write(&path, &jsonl).expect("write event log");
        println!(
            "event log written to {path} ({} record(s))",
            full_events.len()
        );
    }

    println!(
        "\nshape: tracing rides the messages the system already sends — a\n\
         32-byte frame extension, one Mark per sampled segment — so the\n\
         sampled plane is within noise of obs-off while still producing\n\
         causally-checked waterfalls; full tracing is the debugging dial,\n\
         paid for only when turned."
    );
}

//! Property tests for every reader of the JSONL event log: whatever a
//! log says — any kind with any `u64` fields (0 and `u64::MAX`
//! included), ticks in any order, truncated or mutated lines — no reader
//! may panic, and every valid line round-trips byte for byte.

use lod_obs::{
    check_causal, parse_event, parse_jsonl, session_timelines, worst_by_stall, EventRecord,
    SpanAssembler,
};
use proptest::prelude::*;

/// Every kind tag the log carries.
const KINDS: [&str; 41] = [
    "node_label",
    "session_start",
    "playback_start",
    "stall_start",
    "stall_end",
    "backlog_high",
    "backlog_low",
    "downshift",
    "upshift",
    "admission_shed",
    "busy_bounce",
    "client_shed",
    "retry",
    "outage_start",
    "recovery",
    "abandon",
    "session_end",
    "session_reaped",
    "breaker_open",
    "breaker_probe",
    "breaker_close",
    "cache_hit",
    "cache_coalesced",
    "cache_miss",
    "cache_evict",
    "fetch_retry",
    "fetch_give_up",
    "fault_strike",
    "fault_heal",
    "heartbeat_miss",
    "failover_start",
    "promoted",
    "demoted",
    "checkpoint",
    "session_migrated",
    "nack_sent",
    "retransmit",
    "repair_give_up",
    "gap_skipped",
    "span_open",
    "span_close",
];

/// The first kind of each pair a reader matches up, and its partner.
const PAIRS: [(&str, &str); 3] = [
    ("stall_start", "stall_end"),
    ("nack_sent", "retransmit"),
    ("span_open", "span_close"),
];

/// The union of every kind's numeric fields. A line carrying all of them
/// parses as any kind: the codec reads the fields its kind declares and
/// ignores the rest.
const NUM_FIELDS: [&str; 27] = [
    "node",
    "client",
    "startup_ticks",
    "stall_ticks",
    "backlog",
    "from_bps",
    "to_bps",
    "attempt",
    "outage_ticks",
    "segment",
    "bytes",
    "a",
    "b",
    "detail",
    "misses",
    "from",
    "to",
    "epoch",
    "horizon",
    "peer",
    "base_seq",
    "span",
    "seq",
    "retries",
    "budget",
    "nacks",
    "lecture",
];

/// The union of every kind's string fields.
const STR_FIELDS: [&str; 3] = ["label", "fault", "hop"];

const HOPS: [&str; 9] = [
    "relay_fetch",
    "packetize",
    "fan_out",
    "pace",
    "wire",
    "reorder",
    "repair_stall",
    "reassemble",
    "playout_wait",
];

/// Characters a mutation writes into a line: JSON structure, escapes,
/// digits, a letter and a multi-byte character.
const NOISE: [char; 10] = ['{', '}', '"', ':', ',', '\\', ' ', '9', 'x', 'é'];

/// Mostly a handful of small values so records share clients, keys and
/// sequence ranges; otherwise the extremes or anything at all.
fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        4 => 0u64..4,
        1 => Just(0u64),
        1 => Just(u64::MAX),
        1 => Just(u64::MAX - 1),
        1 => any::<u64>(),
    ]
}

fn arb_str() -> impl Strategy<Value = String> {
    prop_oneof![
        3 => (0..HOPS.len()).prop_map(|i| HOPS[i].to_string()),
        1 => "[a-z_ \"\\\\{}:,é]{0,8}",
    ]
}

fn arb_kind() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        (0..KINDS.len()).prop_map(|i| KINDS[i]),
        (0..PAIRS.len()).prop_map(|i| PAIRS[i].0),
    ]
}

/// Parses a line carrying every field as `kind`.
fn record(kind: &str, t: u64, nums: &[u64], strs: &[String]) -> EventRecord {
    let mut line = format!("{{\"t\":{t},\"kind\":\"{kind}\"");
    for (key, v) in NUM_FIELDS.iter().zip(nums) {
        line.push_str(&format!(",\"{key}\":{v}"));
    }
    for (key, s) in STR_FIELDS.iter().zip(strs) {
        let escaped = s.replace('\\', "\\\\").replace('"', "\\\"");
        line.push_str(&format!(",\"{key}\":\"{escaped}\""));
    }
    line.push('}');
    parse_event(&line).unwrap_or_else(|e| panic!("{kind} must parse: {e}"))
}

/// A record of any kind; the first kind of a pair is followed by its
/// partner with the same fields at an arbitrary tick, so opens meet
/// their closes (before or after them).
fn arb_records() -> impl Strategy<Value = Vec<EventRecord>> {
    (
        arb_kind(),
        (arb_u64(), arb_u64()),
        proptest::collection::vec(arb_u64(), NUM_FIELDS.len()),
        proptest::collection::vec(arb_str(), STR_FIELDS.len()),
    )
        .prop_map(|(kind, (t, partner_t), nums, strs)| {
            let mut recs = vec![record(kind, t, &nums, &strs)];
            if let Some(&(_, partner)) = PAIRS.iter().find(|(first, _)| *first == kind) {
                recs.push(record(partner, partner_t, &nums, &strs));
            }
            recs
        })
}

/// A log of `len` draws of [`arb_records`].
fn arb_log(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<EventRecord>> {
    proptest::collection::vec(arb_records(), len).prop_map(|groups| groups.concat())
}

/// One edit of a line: truncate, overwrite, delete or insert at a char
/// position.
fn arb_mutation() -> impl Strategy<Value = (u8, usize, usize)> {
    (0u8..4, any::<usize>(), 0..NOISE.len())
}

fn mutate(line: &str, (op, at, noise): (u8, usize, usize)) -> String {
    let mut chars: Vec<char> = line.chars().collect();
    let at = at % (chars.len() + 1);
    match op {
        0 => chars.truncate(at),
        1 if at < chars.len() => chars[at] = NOISE[noise],
        2 if at < chars.len() => {
            chars.remove(at);
        }
        _ => chars.insert(at, NOISE[noise]),
    }
    chars.into_iter().collect()
}

fn jsonl(recs: &[EventRecord]) -> String {
    recs.iter().map(|r| r.to_json() + "\n").collect()
}

/// Runs every reader `wmps report` and `wmps trace` use over `recs`.
fn read_everything(recs: &[EventRecord], width: usize, n: usize) {
    let timelines = session_timelines(recs);
    for t in &timelines {
        let _ = t.render();
    }
    let _ = worst_by_stall(&timelines, n);
    let _ = check_causal(recs).holds();
    let mut asm = SpanAssembler::new();
    asm.ingest_all(recs);
    for t in asm.traces() {
        let _ = t.waterfall(width);
    }
    let _ = asm.hop_stats();
    for t in asm.worst_by_end_to_end(n) {
        let _ = t.end_to_end();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Serialize → parse → serialize is the identity on every kind, one
    /// line at a time and as a whole log.
    #[test]
    fn valid_lines_round_trip_byte_for_byte(
        recs in arb_log(1..30),
    ) {
        for rec in &recs {
            let line = rec.to_json();
            let back = parse_event(&line).map_err(TestCaseError::fail)?;
            prop_assert_eq!(&back, rec, "{}", line);
            prop_assert_eq!(back.to_json(), line);
        }
        let text = jsonl(&recs);
        let back = parse_jsonl(&text).map_err(TestCaseError::fail)?;
        prop_assert_eq!(&back, &recs);
        prop_assert_eq!(jsonl(&back), text);
    }

    /// Arbitrary records with ticks in any order.
    #[test]
    fn readers_never_panic_on_valid_records(
        recs in arb_log(0..40),
        width in 0usize..160,
        n in 0usize..8,
    ) {
        read_everything(&recs, width, n);
    }

    /// Truncated and mutated lines are an error or a different valid
    /// record, never a panic; whatever still parses feeds every reader.
    #[test]
    fn readers_never_panic_on_damaged_lines(
        recs in arb_log(1..30),
        damage in proptest::collection::vec((any::<usize>(), arb_mutation()), 1..8),
        width in 0usize..160,
        n in 0usize..8,
    ) {
        let mut lines: Vec<String> = recs.iter().map(EventRecord::to_json).collect();
        for (which, edit) in damage {
            let i = which % lines.len();
            lines[i] = mutate(&lines[i], edit);
        }
        let _ = parse_jsonl(&lines.join("\n"));
        let parsed: Vec<EventRecord> =
            lines.iter().filter_map(|l| parse_event(l).ok()).collect();
        read_everything(&parsed, width, n);
    }
}

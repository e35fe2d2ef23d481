//! Typed, tick-stamped observability events and their JSONL codec.
//!
//! Every event is a plain record of integers (raw node indices, ticks,
//! byte/bit counts) plus the occasional fixed vocabulary string, so a
//! seeded run serializes to a byte-identical JSONL log on every machine.
//! Node identity is carried as the raw `usize` index of a
//! `lod_simnet::NodeId` — this crate sits below the simulator in the
//! dependency order and must not know its types.
//!
//! The schema is written once: each row of the `event_schema!` table
//! below names a variant, its `kind` tag and its fields, and the table
//! generates the [`Event`] enum, [`Event::kind`] and both directions of
//! the codec. Adding a kind is adding one row. A line's keys follow the
//! row's field order after `t` and `kind`.

use serde::{Deserialize, Serialize};

/// Declares [`Event`] from one table of `Variant = "kind" { field: Type }`
/// rows and derives from it the kind tags, the per-variant field writer
/// used by [`EventRecord::to_json`] and the per-kind constructor used by
/// [`parse_event`]. Every field type implements [`Field`].
macro_rules! event_schema {
    (
        $(#[$meta:meta])*
        pub enum Event {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $kind:literal {
                    $( $(#[$fmeta:meta])* $field:ident : $ty:ty, )*
                },
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum Event {
            $(
                $(#[$vmeta])*
                $variant { $( $(#[$fmeta])* $field: $ty, )* },
            )*
        }

        impl Event {
            /// The event's kind tag — the `kind` field of its JSONL form and the
            /// label of its `lod_events_total` counter.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( Event::$variant { .. } => $kind, )*
                }
            }

            /// Appends `,"field":value` for every field, in row order.
            fn write_fields(&self, out: &mut String) {
                match self {
                    $( Event::$variant { $($field),* } => {
                        $( Field::write_to($field, stringify!($field), out); )*
                    } )*
                }
            }

            /// Builds the variant tagged `kind` from parsed fields.
            fn from_fields(kind: &str, f: &Fields) -> Result<Self, String> {
                Ok(match kind {
                    $( $kind => Event::$variant {
                        $( $field: <$ty as Field>::read_from(f, stringify!($field))?, )*
                    }, )*
                    other => return Err(format!("unknown event kind {other}")),
                })
            }
        }
    };
}

event_schema! {
    /// One observability event. Variants mirror the lifecycle the paper's
    /// delivery chain actually goes through: admission, startup, stalls,
    /// degradation, outages/recoveries, relay cache traffic, breaker
    /// transitions and injected faults.
    #[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
    pub enum Event {
        /// A human-readable role for a node (`origin`, `relay0`, `student3`),
        /// emitted once at the head of the log by the driver that built the
        /// topology.
        NodeLabel = "node_label" {
            /// Raw node index.
            node: u64,
            /// Role label.
            label: String,
        },
        /// The server created (or re-created) a session for `client`.
        SessionStart = "session_start" {
            /// Raw node index of the client.
            client: u64,
        },
        /// The client left Buffering for Playing for the first time.
        PlaybackStart = "playback_start" {
            /// Raw node index of the client.
            client: u64,
            /// Ticks from Play to first render.
            startup_ticks: u64,
        },
        /// Playback underran and the client paused to rebuffer.
        StallStart = "stall_start" {
            /// Raw node index of the client.
            client: u64,
        },
        /// The stall ended; playback resumed.
        StallEnd = "stall_end" {
            /// Raw node index of the client.
            client: u64,
            /// Length of the stall in ticks.
            stall_ticks: u64,
        },
        /// The first-hop backlog for this session crossed above the degrade
        /// policy's high watermark (the sample every later downshift is
        /// causally rooted in).
        BacklogHigh = "backlog_high" {
            /// Raw node index of the client.
            client: u64,
            /// Backlog observed, in bytes.
            backlog: u64,
        },
        /// The backlog dropped below the low watermark.
        BacklogLow = "backlog_low" {
            /// Raw node index of the client.
            client: u64,
            /// Backlog observed, in bytes.
            backlog: u64,
        },
        /// The server downshifted the session one profile rung.
        Downshift = "downshift" {
            /// Raw node index of the client.
            client: u64,
            /// Effective bitrate before the shift.
            from_bps: u64,
            /// Effective bitrate after the shift.
            to_bps: u64,
        },
        /// The server stepped the session back up a rung.
        Upshift = "upshift" {
            /// Raw node index of the client.
            client: u64,
            /// Effective bitrate before the shift.
            from_bps: u64,
            /// Effective bitrate after the shift.
            to_bps: u64,
        },
        /// Admission control refused a Play with `Wire::Busy`.
        AdmissionShed = "admission_shed" {
            /// Raw node index of the refusing server or relay.
            node: u64,
            /// Raw node index of the refused client.
            client: u64,
        },
        /// The client received a `Wire::Busy` bounce.
        BusyBounce = "busy_bounce" {
            /// Raw node index of the client.
            client: u64,
        },
        /// The client exhausted its bounce budget and gave up as shed.
        ClientShed = "client_shed" {
            /// Raw node index of the client.
            client: u64,
        },
        /// The retry layer re-issued Play after a silence timeout.
        Retry = "retry" {
            /// Raw node index of the client.
            client: u64,
            /// 1-based consecutive attempt number.
            attempt: u64,
        },
        /// The retry layer declared an outage (first unanswered deadline).
        OutageStart = "outage_start" {
            /// Raw node index of the client.
            client: u64,
        },
        /// Server traffic resumed after an outage.
        Recovery = "recovery" {
            /// Raw node index of the client.
            client: u64,
            /// Ticks from last progress to the recovery.
            outage_ticks: u64,
        },
        /// The retry budget ran out; the session was abandoned.
        Abandon = "abandon" {
            /// Raw node index of the client.
            client: u64,
        },
        /// The client finished playback cleanly.
        SessionEnd = "session_end" {
            /// Raw node index of the client.
            client: u64,
        },
        /// The server reaped an idle session.
        SessionReaped = "session_reaped" {
            /// Raw node index of the reaping server.
            node: u64,
            /// Raw node index of the idle client.
            client: u64,
        },
        /// A circuit breaker tripped open.
        BreakerOpen = "breaker_open" {
            /// Raw node index of the breaker's owner (the relay).
            node: u64,
        },
        /// An open breaker admitted its half-open probe.
        BreakerProbe = "breaker_probe" {
            /// Raw node index of the breaker's owner.
            node: u64,
        },
        /// A breaker closed again (probe answered, upstream alive).
        BreakerClose = "breaker_close" {
            /// Raw node index of the breaker's owner.
            node: u64,
        },
        /// Segment-cache lookup answered locally.
        CacheHit = "cache_hit" {
            /// Raw node index of the relay.
            node: u64,
            /// Segment index (or synthetic time-fetch key).
            segment: u64,
        },
        /// Lookup joined an already-inflight upstream fetch.
        CacheCoalesced = "cache_coalesced" {
            /// Raw node index of the relay.
            node: u64,
            /// Segment index.
            segment: u64,
        },
        /// Lookup missed and triggered an upstream pull.
        CacheMiss = "cache_miss" {
            /// Raw node index of the relay.
            node: u64,
            /// Segment index.
            segment: u64,
        },
        /// The byte budget forced a segment out of the cache.
        CacheEvict = "cache_evict" {
            /// Raw node index of the relay.
            node: u64,
            /// Segment index evicted.
            segment: u64,
            /// Bytes reclaimed.
            bytes: u64,
        },
        /// An upstream fetch was re-issued after its patience window.
        FetchRetry = "fetch_retry" {
            /// Raw node index of the relay.
            node: u64,
            /// Segment index (or synthetic time-fetch key).
            segment: u64,
        },
        /// An upstream fetch exhausted its retry budget.
        FetchGiveUp = "fetch_give_up" {
            /// Raw node index of the relay.
            node: u64,
            /// Segment index.
            segment: u64,
        },
        /// The fault injector applied a fault.
        FaultStrike = "fault_strike" {
            /// Fault vocabulary: `link_down`, `node_down`, `loss_burst`,
            /// `latency_spike`.
            fault: String,
            /// First endpoint (or the node itself).
            a: u64,
            /// Second endpoint (== `a` for node faults).
            b: u64,
            /// Fault-specific magnitude: loss per-mille for bursts, extra
            /// ticks for latency spikes, 0 otherwise.
            detail: u64,
        },
        /// The fault injector healed a fault.
        FaultHeal = "fault_heal" {
            /// Fault vocabulary (same as [`Event::FaultStrike`]).
            fault: String,
            /// First endpoint.
            a: u64,
            /// Second endpoint.
            b: u64,
        },
        /// The failure detector's heartbeat went unanswered past its
        /// deadline (the sample every later promotion is causally rooted in).
        HeartbeatMiss = "heartbeat_miss" {
            /// Raw node index of the silent origin.
            node: u64,
            /// Consecutive misses so far, 1-based.
            misses: u64,
        },
        /// The detector crossed its miss threshold and began failover.
        FailoverStart = "failover_start" {
            /// Raw node index of the origin declared dead.
            from: u64,
            /// Raw node index of the standby about to be promoted.
            to: u64,
            /// The miss threshold that was crossed.
            misses: u64,
        },
        /// The standby took over as primary at a new fencing epoch.
        Promoted = "promoted" {
            /// Raw node index of the promoted standby.
            node: u64,
            /// The fencing epoch it now serves at (strictly above every
            /// earlier primary's).
            epoch: u64,
        },
        /// A deposed primary observed a higher fencing epoch and stepped
        /// down to standby instead of serving split-brain.
        Demoted = "demoted" {
            /// Raw node index of the demoted node.
            node: u64,
            /// The higher epoch it observed.
            epoch: u64,
        },
        /// The origin journaled a session checkpoint for replication.
        Checkpoint = "checkpoint" {
            /// Raw node index of the checkpointed session's client.
            client: u64,
            /// Playback horizon captured (next packet index).
            horizon: u64,
        },
        /// A promoted standby restored a replicated session, ready to resume
        /// it from its checkpointed horizon.
        SessionMigrated = "session_migrated" {
            /// Raw node index of the session's client.
            client: u64,
            /// The horizon the session will resume from.
            horizon: u64,
        },
        /// A transport receiver NACKed a sequence gap toward its peer.
        NackSent = "nack_sent" {
            /// Raw node index of the receiver that noticed the gap.
            node: u64,
            /// Raw node index of the sender being asked to repair.
            peer: u64,
            /// First missing sequence named by the NACK.
            base_seq: u64,
            /// Width of the sequence range the NACK covers (`[base_seq,
            /// base_seq + span)` — 1 for a single-seq NACK).
            span: u64,
        },
        /// A transport sender answered a NACK by resending a buffered frame.
        Retransmit = "retransmit" {
            /// Raw node index of the resending sender.
            node: u64,
            /// Raw node index of the receiver that NACKed.
            peer: u64,
            /// Sequence being resent.
            seq: u64,
            /// Which retransmission this is, 1-based.
            attempt: u64,
        },
        /// A transport sender stopped repairing a sequence (retry budget
        /// spent or the frame already evicted from the retransmit buffer).
        RepairGiveUp = "repair_give_up" {
            /// Raw node index of the sender giving up.
            node: u64,
            /// Raw node index of the receiver that asked.
            peer: u64,
            /// The abandoned sequence.
            seq: u64,
            /// Retransmissions actually performed for it.
            retries: u64,
            /// The configured per-seq retry budget.
            budget: u64,
        },
        /// A transport receiver skipped a range of missing sequences and
        /// released the frames behind it. With repair on this is lawful only
        /// after the range's NACK budget was spent (`nacks == budget`);
        /// without repair both counts are 0 (a reorder-timeout skip).
        GapSkipped = "gap_skipped" {
            /// Raw node index of the receiver skipping.
            node: u64,
            /// Raw node index of the peer whose frames were lost.
            peer: u64,
            /// The first skipped sequence.
            first: u64,
            /// How many sequences, from `first` on, were skipped.
            count: u64,
            /// NACKs that were sent for the range before the skip.
            nacks: u64,
            /// The configured NACK budget (0 = repair disabled).
            budget: u64,
        },
        /// A traced segment entered a delivery hop (see `span.rs` for the
        /// hop vocabulary: `packetize`, `relay_fetch`, `fan_out`, `pace`,
        /// `wire`, `reorder`, `repair_stall`, `reassemble`, `playout_wait`).
        SpanOpen = "span_open" {
            /// Raw node index emitting the span (where the hop runs).
            node: u64,
            /// Raw node index of the other endpoint (== `node` for local
            /// hops such as `packetize` or `playout_wait`).
            peer: u64,
            /// Hop name from the fixed vocabulary.
            hop: String,
            /// Lecture id (splitmix64 hash of the content name).
            lecture: u64,
            /// Segment index within the lecture.
            segment: u64,
        },
        /// The matching hop completed. Pairs with the [`Event::SpanOpen`]
        /// carrying the same `(node, peer, hop, lecture, segment)` key.
        SpanClose = "span_close" {
            /// Raw node index emitting the span.
            node: u64,
            /// Raw node index of the other endpoint.
            peer: u64,
            /// Hop name from the fixed vocabulary.
            hop: String,
            /// Lecture id.
            lecture: u64,
            /// Segment index within the lecture.
            segment: u64,
        },
    }
}

/// An [`Event`] stamped with the simulation tick it happened at. Records
/// are kept (and serialized) strictly in emission order, which under the
/// single-threaded deterministic drivers is also causal order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Simulation tick (100 ns units).
    pub at: u64,
    /// What happened.
    pub event: Event,
}

/// One event field's JSON form: how it is written after its key and
/// read back out of a parsed line.
trait Field: Sized {
    fn write_to(&self, key: &str, out: &mut String);
    fn read_from(f: &Fields, key: &str) -> Result<Self, String>;
}

impl Field for u64 {
    fn write_to(&self, key: &str, out: &mut String) {
        use std::fmt::Write;
        let _ = write!(out, ",\"{key}\":{self}");
    }

    fn read_from(f: &Fields, key: &str) -> Result<Self, String> {
        match f.get(key)? {
            Val::Num(v) => Ok(*v),
            Val::Str(_) => Err(format!("field {key} is a string, expected number")),
        }
    }
}

impl Field for String {
    fn write_to(&self, key: &str, out: &mut String) {
        out.push_str(",\"");
        out.push_str(key);
        out.push_str("\":\"");
        escape_into(out, self);
        out.push('"');
    }

    fn read_from(f: &Fields, key: &str) -> Result<Self, String> {
        match f.get(key)? {
            Val::Str(s) => Ok(s.clone()),
            Val::Num(_) => Err(format!("field {key} is a number, expected string")),
        }
    }
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
}

impl EventRecord {
    /// Serializes the record as one flat JSON object (no trailing
    /// newline). Field order is fixed per kind, so equal records always
    /// produce equal bytes.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(64);
        let _ = write!(
            out,
            "{{\"t\":{},\"kind\":\"{}\"",
            self.at,
            self.event.kind()
        );
        self.event.write_fields(&mut out);
        out.push('}');
        out
    }
}

/// A parsed flat-JSON value: every field of every event is one of these.
enum Val {
    Num(u64),
    Str(String),
}

/// Splits one flat JSON object (`{"k":v,...}`) into key/value pairs.
/// Only the subset this crate emits is accepted: string keys, u64 or
/// string values, no nesting.
fn parse_flat(line: &str) -> Result<Vec<(String, Val)>, String> {
    let inner = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| format!("not a JSON object: {line}"))?;
    let mut pairs = Vec::new();
    let mut chars = inner.chars().peekable();
    loop {
        while matches!(chars.peek(), Some(',') | Some(' ')) {
            chars.next();
        }
        if chars.peek().is_none() {
            break;
        }
        if chars.next() != Some('"') {
            return Err(format!("expected key quote in: {line}"));
        }
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '"' {
                break;
            }
            key.push(c);
        }
        if chars.next() != Some(':') {
            return Err(format!("expected ':' after key {key} in: {line}"));
        }
        match chars.peek() {
            Some('"') => {
                chars.next();
                let mut s = String::new();
                let mut escaped = false;
                for c in chars.by_ref() {
                    if escaped {
                        s.push(c);
                        escaped = false;
                    } else if c == '\\' {
                        escaped = true;
                    } else if c == '"' {
                        break;
                    } else {
                        s.push(c);
                    }
                }
                pairs.push((key, Val::Str(s)));
            }
            Some(c) if c.is_ascii_digit() => {
                let mut n = String::new();
                while matches!(chars.peek(), Some(c) if c.is_ascii_digit()) {
                    n.push(chars.next().expect("peeked"));
                }
                let v = n
                    .parse::<u64>()
                    .map_err(|e| format!("bad number {n}: {e}"))?;
                pairs.push((key, Val::Num(v)));
            }
            other => return Err(format!("unsupported value start {other:?} in: {line}")),
        }
    }
    Ok(pairs)
}

struct Fields(Vec<(String, Val)>);

impl Fields {
    fn get(&self, key: &str) -> Result<&Val, String> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field {key}"))
    }
}

/// Parses one JSONL line back into an [`EventRecord`]. The inverse of
/// [`EventRecord::to_json`]; unknown kinds are an error.
pub fn parse_event(line: &str) -> Result<EventRecord, String> {
    let f = Fields(parse_flat(line)?);
    let at = u64::read_from(&f, "t")?;
    let kind = String::read_from(&f, "kind")?;
    let event = Event::from_fields(&kind, &f)?;
    Ok(EventRecord { at, event })
}

/// Parses a whole JSONL log (blank lines skipped) back into records.
pub fn parse_jsonl(text: &str) -> Result<Vec<EventRecord>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(parse_event)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_round_trips() {
        let all = vec![
            Event::NodeLabel {
                node: 0,
                label: "origin".into(),
            },
            Event::SessionStart { client: 3 },
            Event::PlaybackStart {
                client: 3,
                startup_ticks: 12_000_000,
            },
            Event::StallStart { client: 3 },
            Event::StallEnd {
                client: 3,
                stall_ticks: 7,
            },
            Event::BacklogHigh {
                client: 3,
                backlog: 900_000,
            },
            Event::BacklogLow {
                client: 3,
                backlog: 10,
            },
            Event::Downshift {
                client: 3,
                from_bps: 300_000,
                to_bps: 150_000,
            },
            Event::Upshift {
                client: 3,
                from_bps: 150_000,
                to_bps: 300_000,
            },
            Event::AdmissionShed { node: 0, client: 9 },
            Event::BusyBounce { client: 9 },
            Event::ClientShed { client: 9 },
            Event::Retry {
                client: 4,
                attempt: 2,
            },
            Event::OutageStart { client: 4 },
            Event::Recovery {
                client: 4,
                outage_ticks: 55,
            },
            Event::Abandon { client: 4 },
            Event::SessionEnd { client: 3 },
            Event::SessionReaped { node: 0, client: 5 },
            Event::BreakerOpen { node: 2 },
            Event::BreakerProbe { node: 2 },
            Event::BreakerClose { node: 2 },
            Event::CacheHit {
                node: 2,
                segment: 11,
            },
            Event::CacheCoalesced {
                node: 2,
                segment: 11,
            },
            Event::CacheMiss {
                node: 2,
                segment: 12,
            },
            Event::CacheEvict {
                node: 2,
                segment: 1,
                bytes: 64_000,
            },
            Event::FetchRetry {
                node: 2,
                segment: 12,
            },
            Event::FetchGiveUp {
                node: 2,
                segment: 12,
            },
            Event::FaultStrike {
                fault: "loss_burst".into(),
                a: 1,
                b: 7,
                detail: 250,
            },
            Event::FaultHeal {
                fault: "loss_burst".into(),
                a: 1,
                b: 7,
            },
            Event::HeartbeatMiss { node: 0, misses: 2 },
            Event::FailoverStart {
                from: 0,
                to: 9,
                misses: 3,
            },
            Event::Promoted { node: 9, epoch: 2 },
            Event::Demoted { node: 0, epoch: 2 },
            Event::Checkpoint {
                client: 3,
                horizon: 4_096,
            },
            Event::SessionMigrated {
                client: 3,
                horizon: 4_096,
            },
            Event::NackSent {
                node: 5,
                peer: 1,
                base_seq: 42,
                span: 3,
            },
            Event::Retransmit {
                node: 1,
                peer: 5,
                seq: 42,
                attempt: 1,
            },
            Event::RepairGiveUp {
                node: 1,
                peer: 5,
                seq: 44,
                retries: 3,
                budget: 3,
            },
            Event::GapSkipped {
                node: 5,
                peer: 1,
                first: 44,
                count: 600,
                nacks: 3,
                budget: 3,
            },
            Event::SpanOpen {
                node: 2,
                peer: 0,
                hop: "relay_fetch".into(),
                lecture: 0xfeed_beef,
                segment: 17,
            },
            Event::SpanClose {
                node: 2,
                peer: 0,
                hop: "relay_fetch".into(),
                lecture: 0xfeed_beef,
                segment: 17,
            },
        ];
        for (i, event) in all.into_iter().enumerate() {
            let rec = EventRecord {
                at: i as u64 * 100,
                event,
            };
            let line = rec.to_json();
            let back = parse_event(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, rec, "{line}");
        }
    }

    #[test]
    fn labels_with_quotes_and_backslashes_survive() {
        let rec = EventRecord {
            at: 1,
            event: Event::NodeLabel {
                node: 1,
                label: "we\"ird\\label".into(),
            },
        };
        assert_eq!(parse_event(&rec.to_json()).unwrap(), rec);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_event("not json").is_err());
        assert!(parse_event("{\"t\":1,\"kind\":\"no_such_kind\"}").is_err());
        assert!(parse_event("{\"t\":1,\"kind\":\"retry\",\"client\":2}").is_err());
    }

    #[test]
    fn jsonl_round_trips_in_order() {
        let recs = vec![
            EventRecord {
                at: 0,
                event: Event::SessionStart { client: 1 },
            },
            EventRecord {
                at: 5,
                event: Event::StallStart { client: 1 },
            },
        ];
        let text: String = recs.iter().map(|r| r.to_json() + "\n").collect();
        assert_eq!(parse_jsonl(&text).unwrap(), recs);
    }
}

//! Cross-node trace contexts, deterministic head-sampling, and the
//! span assembler that folds merged JSONL logs back into per-segment
//! hop-latency waterfalls.
//!
//! A [`TraceCtx`] names one sampled segment delivery: the lecture (a
//! splitmix64 hash of the content name), the segment index, a per-node
//! mint sequence and the origin tick it was minted at. The ctx rides the
//! streaming wire (`FetchSegment`/`SegmentData`/`Mark`) and the UDP
//! frame header, and every hop that sees it emits a paired
//! [`Event::SpanOpen`]/[`Event::SpanClose`] into its local [`Recorder`].
//! Because the sampling decision is a pure function of `(lecture,
//! segment)`, every node reaches the same verdict without coordination —
//! ctx presence on the wire *is* the propagated decision.
//!
//! The hop vocabulary, in delivery order:
//!
//! | hop            | opens at                    | closes at                  |
//! |----------------|-----------------------------|----------------------------|
//! | `relay_fetch`  | relay issues `FetchSegment` | relay receives the segment |
//! | `packetize`    | origin starts serving       | origin hands bytes to wire |
//! | `fan_out`      | relay starts a segment      | relay finishes the segment |
//! | `pace`         | sender enqueues a frame     | frame reaches the socket   |
//! | `wire`         | frame's `sent_at` stamp     | receiver drains it         |
//! | `reorder`      | frame arrives out of order  | frame is released in order |
//! | `repair_stall` | lost frame's `sent_at`      | repair (or skip) releases  |
//! | `reassemble`   | client sees the `Mark`      | first sample completes     |
//! | `playout_wait` | sample enters the buffer    | sample is rendered         |
//!
//! [`Recorder`]: crate::Recorder

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write;

use crate::event::{Event, EventRecord};

/// Compact trace context for one sampled segment delivery. 32 bytes on
/// the wire (four little-endian u64s), cheap enough to stamp into every
/// traced frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TraceCtx {
    /// Lecture id: [`lecture_id`] of the content name.
    pub lecture: u64,
    /// Segment index within the lecture.
    pub segment: u64,
    /// Mint sequence on the minting node (disambiguates re-fetches of
    /// the same segment).
    pub seq: u64,
    /// Tick the ctx was minted at (the trace's time origin).
    pub origin: u64,
}

/// The splitmix64 mixing function (Sebastiano Vigna's finalizer) — the
/// repo-wide deterministic hash: trace sampling here, retry jitter and
/// stream thinning in `lod-streaming`, the fault dice in `lod-transport`.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes a content name to its lecture id. Deterministic across nodes
/// and runs; every participant derives the same id from the same name.
pub fn lecture_id(content: &str) -> u64 {
    let mut h = 0xA076_1D64_78BD_642Fu64;
    for chunk in content.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = splitmix64(h ^ u64::from_le_bytes(word));
    }
    h
}

/// Deterministic head-sampling verdict for `(lecture, segment)` at
/// `permille` parts-per-thousand. Pure and coordination-free: any node
/// can recompute the decision, but in practice only the minting relay
/// does — everyone downstream trusts ctx presence on the wire.
pub fn sampled(lecture: u64, segment: u64, permille: u16) -> bool {
    if permille == 0 {
        return false;
    }
    if permille >= 1000 {
        return true;
    }
    splitmix64(lecture ^ splitmix64(segment)) % 1000 < u64::from(permille)
}

/// One assembled hop span within a segment trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRow {
    /// Hop name from the fixed vocabulary.
    pub hop: String,
    /// Node the hop ran on.
    pub node: u64,
    /// The hop's other endpoint (== `node` for local hops).
    pub peer: u64,
    /// Tick of the first `SpanOpen` for this key.
    pub open: u64,
    /// Tick of the last `SpanClose`, when one arrived.
    pub close: Option<u64>,
}

impl SpanRow {
    /// Span duration in ticks; zero while unclosed or when the close
    /// landed before the open (clock-skewed logs).
    pub fn duration(&self) -> u64 {
        self.close.map_or(0, |c| c.saturating_sub(self.open))
    }
}

/// The reconstructed waterfall for one `(lecture, segment)` delivery.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentTrace {
    /// Lecture id.
    pub lecture: u64,
    /// Segment index.
    pub segment: u64,
    /// Hop spans sorted by open tick (ties by hop name, then node).
    pub spans: Vec<SpanRow>,
}

impl SegmentTrace {
    /// End-to-end latency: last close (or open, if nothing closed)
    /// minus first open, in ticks.
    pub fn end_to_end(&self) -> u64 {
        let first = self.spans.iter().map(|s| s.open).min().unwrap_or(0);
        let last = self
            .spans
            .iter()
            .map(|s| s.close.unwrap_or(s.open))
            .max()
            .unwrap_or(0);
        last.saturating_sub(first)
    }

    /// Renders the trace as an ASCII waterfall, one row per hop span,
    /// bars scaled to `width` columns of wall time.
    pub fn waterfall(&self, width: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "segment {} (lecture {:016x}) — {} end-to-end",
            self.segment,
            self.lecture,
            fmt_ticks(self.end_to_end())
        );
        if self.spans.is_empty() {
            out.push_str("  (no spans)\n");
            return out;
        }
        // A span that closes before it opens (a skewed or hand-edited
        // log) still lies inside [t0, t1], so every bar fits the width.
        let t0 = self.spans.iter().map(|s| s.open).min().unwrap_or(0);
        let t1 = self
            .spans
            .iter()
            .map(|s| s.close.map_or(s.open, |c| c.max(s.open)))
            .max()
            .unwrap_or(t0);
        let total = (t1 - t0).max(1);
        let width = width.max(10);
        let scale =
            |t: u64| (t.saturating_sub(t0) as u128 * width as u128 / total as u128) as usize;
        for s in &self.spans {
            let start = scale(s.open); // 0..=width
            let end = scale(s.close.unwrap_or(s.open)).max(start + 1); // start+1..=width+1
            let _ = writeln!(
                out,
                "  {:<13} {:>3}→{:<3} |{}{}{}| {}{}",
                s.hop,
                s.node,
                s.peer,
                " ".repeat(start),
                "█".repeat(end - start),
                " ".repeat(width + 1 - end),
                fmt_ticks(s.duration()),
                if s.close.is_none() { " (unclosed)" } else { "" },
            );
        }
        out
    }
}

/// Formats a tick count (100 ns units) as human-readable milliseconds.
pub fn fmt_ticks(ticks: u64) -> String {
    // One tick is 100 ns; 10_000 ticks is a millisecond.
    let tenths_of_ms = ticks / 1_000;
    format!("{}.{}ms", tenths_of_ms / 10, tenths_of_ms % 10)
}

/// Per-hop latency summary across every trace the assembler has seen.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HopStats {
    /// Hop name.
    pub hop: String,
    /// Closed spans observed.
    pub count: u64,
    /// Median duration in ticks (nearest-rank).
    pub p50: u64,
    /// 99th-percentile duration in ticks (nearest-rank).
    pub p99: u64,
}

/// Reconstructs per-segment waterfalls from span events in a merged
/// JSONL log. Feed it every record (non-span events are ignored), then
/// ask for individual [`SegmentTrace`]s or aggregate [`HopStats`].
///
/// Duplicate opens keep the earliest tick and duplicate closes the
/// latest (fault-injected duplicate frames legitimately double-close a
/// `pace` span); closes without a matching open are counted in
/// [`SpanAssembler::stray_closes`] but otherwise ignored.
#[derive(Debug, Default)]
pub struct SpanAssembler {
    // (lecture, segment) -> (node, peer, hop) -> (open, close)
    segments: BTreeMap<(u64, u64), SegmentSpans>,
    stray_closes: u64,
}

/// One segment's accumulated spans: (node, peer, hop) → (open, close).
type SegmentSpans = BTreeMap<(u64, u64, String), (Option<u64>, Option<u64>)>;

impl SpanAssembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests one record; non-span events are ignored.
    pub fn ingest(&mut self, rec: &EventRecord) {
        match &rec.event {
            Event::SpanOpen {
                node,
                peer,
                hop,
                lecture,
                segment,
            } => {
                let slot = self
                    .segments
                    .entry((*lecture, *segment))
                    .or_default()
                    .entry((*node, *peer, hop.clone()))
                    .or_insert((None, None));
                // First open wins: a duplicate open never moves the start.
                if slot.0.is_none_or(|t| rec.at < t) {
                    slot.0 = Some(rec.at);
                }
            }
            Event::SpanClose {
                node,
                peer,
                hop,
                lecture,
                segment,
            } => {
                match self
                    .segments
                    .get_mut(&(*lecture, *segment))
                    .and_then(|m| m.get_mut(&(*node, *peer, hop.clone())))
                {
                    Some(slot) if slot.0.is_some() => {
                        if slot.1.is_none_or(|t| rec.at > t) {
                            slot.1 = Some(rec.at);
                        }
                    }
                    _ => self.stray_closes += 1,
                }
            }
            _ => {}
        }
    }

    /// Ingests a whole record slice.
    pub fn ingest_all(&mut self, recs: &[EventRecord]) {
        for r in recs {
            self.ingest(r);
        }
    }

    /// Closes seen without a matching open (tolerated, but reported).
    pub fn stray_closes(&self) -> u64 {
        self.stray_closes
    }

    /// Every `(lecture, segment)` key with at least one span, sorted.
    pub fn segments(&self) -> Vec<(u64, u64)> {
        self.segments.keys().copied().collect()
    }

    /// The assembled trace for one segment, or `None` if unseen. Pass
    /// `lecture = None` to match any lecture carrying that segment index
    /// (the common single-lecture CLI case).
    pub fn trace(&self, lecture: Option<u64>, segment: u64) -> Option<SegmentTrace> {
        let ((lec, seg), spans) = self
            .segments
            .iter()
            .find(|((l, s), _)| *s == segment && lecture.is_none_or(|want| *l == want))?;
        let mut rows: Vec<SpanRow> = spans
            .iter()
            .filter_map(|((node, peer, hop), (open, close))| {
                open.map(|open| SpanRow {
                    hop: hop.clone(),
                    node: *node,
                    peer: *peer,
                    open,
                    close: *close,
                })
            })
            .collect();
        rows.sort_by(|a, b| {
            (a.open, &a.hop, a.node, a.peer).cmp(&(b.open, &b.hop, b.node, b.peer))
        });
        Some(SegmentTrace {
            lecture: *lec,
            segment: *seg,
            spans: rows,
        })
    }

    /// All assembled traces, in `(lecture, segment)` order.
    pub fn traces(&self) -> Vec<SegmentTrace> {
        self.segments
            .keys()
            .filter_map(|(l, s)| self.trace(Some(*l), *s))
            .collect()
    }

    /// The worst `n` segments by end-to-end latency, descending. Ties
    /// break toward the lower `(lecture, segment)` key.
    pub fn worst_by_end_to_end(&self, n: usize) -> Vec<SegmentTrace> {
        let mut all = self.traces();
        all.sort_by(|a, b| {
            b.end_to_end()
                .cmp(&a.end_to_end())
                .then((a.lecture, a.segment).cmp(&(b.lecture, b.segment)))
        });
        all.truncate(n);
        all
    }

    /// Per-hop duration percentiles across every closed span, sorted by
    /// hop name.
    pub fn hop_stats(&self) -> Vec<HopStats> {
        let mut per_hop: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        for spans in self.segments.values() {
            for ((_, _, hop), (open, close)) in spans {
                if let (Some(o), Some(c)) = (open, close) {
                    per_hop.entry(hop).or_default().push(c.saturating_sub(*o));
                }
            }
        }
        per_hop
            .into_iter()
            .map(|(hop, mut durs)| {
                durs.sort_unstable();
                HopStats {
                    hop: hop.to_string(),
                    count: durs.len() as u64,
                    p50: nearest_rank(&durs, 500),
                    p99: nearest_rank(&durs, 990),
                }
            })
            .collect()
    }
}

/// Nearest-rank percentile over a sorted slice, `permille` in [0, 1000].
fn nearest_rank(sorted: &[u64], permille: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (permille * sorted.len() as u64).div_ceil(1000).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(at: u64, open: bool, node: u64, peer: u64, hop: &str, seg: u64) -> EventRecord {
        let (lecture, segment) = (7, seg);
        EventRecord {
            at,
            event: if open {
                Event::SpanOpen {
                    node,
                    peer,
                    hop: hop.into(),
                    lecture,
                    segment,
                }
            } else {
                Event::SpanClose {
                    node,
                    peer,
                    hop: hop.into(),
                    lecture,
                    segment,
                }
            },
        }
    }

    #[test]
    fn sampling_is_deterministic_and_respects_permille_edges() {
        assert!(!sampled(1, 2, 0));
        assert!(sampled(1, 2, 1000));
        assert!(sampled(1, 2, 1500));
        for seg in 0..64 {
            assert_eq!(sampled(9, seg, 250), sampled(9, seg, 250));
        }
        // At 250‰ roughly a quarter of segments should be picked —
        // loosely banded so the test pins behavior, not the hash.
        let picked = (0..1000).filter(|s| sampled(42, *s, 250)).count();
        assert!((150..350).contains(&picked), "picked {picked}");
    }

    #[test]
    fn lecture_ids_differ_across_names_and_agree_across_calls() {
        assert_eq!(lecture_id("lecture-9"), lecture_id("lecture-9"));
        assert_ne!(lecture_id("lecture-9"), lecture_id("lecture-8"));
        assert_ne!(lecture_id(""), lecture_id("\0"));
    }

    #[test]
    fn assembler_reconstructs_a_waterfall_in_open_order() {
        let mut asm = SpanAssembler::new();
        asm.ingest_all(&[
            span(100, true, 2, 0, "relay_fetch", 4),
            span(120, true, 0, 2, "packetize", 4),
            span(180, false, 0, 2, "packetize", 4),
            span(300, false, 2, 0, "relay_fetch", 4),
            span(320, true, 2, 5, "fan_out", 4),
            span(900, false, 2, 5, "fan_out", 4),
        ]);
        let t = asm.trace(Some(7), 4).expect("trace");
        assert_eq!(
            t.spans.iter().map(|s| s.hop.as_str()).collect::<Vec<_>>(),
            ["relay_fetch", "packetize", "fan_out"]
        );
        assert_eq!(t.end_to_end(), 800);
        let art = t.waterfall(40);
        assert!(art.contains("relay_fetch"), "{art}");
        assert!(art.contains("fan_out"), "{art}");
        assert!(!art.contains("unclosed"), "{art}");
    }

    #[test]
    fn waterfall_fits_spans_that_close_before_they_open() {
        // An unsorted log can hand the assembler a close ticked before
        // its open; the waterfall must still draw every bar in the width.
        let bars = |records: &[EventRecord]| {
            let mut asm = SpanAssembler::new();
            asm.ingest_all(records);
            let art = asm.trace(None, 0).expect("trace").waterfall(20);
            art.lines()
                .skip(1)
                .map(|l| l.split('|').nth(1).expect("bar").chars().count())
                .collect::<Vec<_>>()
        };
        let alone = [
            span(100, true, 2, 3, "reorder", 0),
            span(50, false, 2, 3, "reorder", 0),
        ];
        assert_eq!(bars(&alone), [21]);
        let after_a_lawful_span = [
            span(0, true, 1, 2, "wire", 0),
            span(10, false, 1, 2, "wire", 0),
            alone[0].clone(),
            alone[1].clone(),
        ];
        assert_eq!(bars(&after_a_lawful_span), [21, 21]);
    }

    #[test]
    fn duplicate_opens_and_closes_collapse_to_widest_span() {
        let mut asm = SpanAssembler::new();
        asm.ingest_all(&[
            span(50, true, 1, 2, "pace", 0),
            span(60, true, 1, 2, "pace", 0),
            span(70, false, 1, 2, "pace", 0),
            span(90, false, 1, 2, "pace", 0),
        ]);
        let t = asm.trace(None, 0).expect("trace");
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].open, 50);
        assert_eq!(t.spans[0].close, Some(90));
    }

    #[test]
    fn stray_closes_are_counted_not_fatal() {
        let mut asm = SpanAssembler::new();
        asm.ingest(&span(10, false, 1, 2, "wire", 3));
        assert_eq!(asm.stray_closes(), 1);
        assert!(asm.trace(None, 3).is_none_or(|t| t.spans.is_empty()));
    }

    #[test]
    fn hop_stats_cover_closed_spans() {
        let mut asm = SpanAssembler::new();
        for seg in 0..10u64 {
            asm.ingest(&span(0, true, 1, 2, "wire", seg));
            asm.ingest(&span((seg + 1) * 1000, false, 1, 2, "wire", seg));
        }
        let stats = asm.hop_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].hop, "wire");
        assert_eq!(stats[0].count, 10);
        assert_eq!(stats[0].p50, 5000);
        assert_eq!(stats[0].p99, 10_000);
    }

    #[test]
    fn worst_by_end_to_end_orders_descending() {
        let mut asm = SpanAssembler::new();
        asm.ingest_all(&[
            span(0, true, 1, 2, "wire", 0),
            span(100, false, 1, 2, "wire", 0),
            span(0, true, 1, 2, "wire", 1),
            span(900, false, 1, 2, "wire", 1),
        ]);
        let worst = asm.worst_by_end_to_end(2);
        assert_eq!(worst[0].segment, 1);
        assert_eq!(worst[1].segment, 0);
    }

    #[test]
    fn fmt_ticks_prints_tenths_of_milliseconds() {
        assert_eq!(fmt_ticks(0), "0.0ms");
        assert_eq!(fmt_ticks(10_000), "1.0ms");
        assert_eq!(fmt_ticks(25_000), "2.5ms");
    }
}

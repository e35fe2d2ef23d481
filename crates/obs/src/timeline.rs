//! Per-session timeline reconstruction and causal trace invariants.
//!
//! The event log is a flat stream; this module folds it back into the
//! story of each session (startup → stall spans → downshifts → outages →
//! end) and cross-checks the causal claims the counters alone cannot
//! make: a downshift without a preceding backlog-high sample, or a
//! recovery without a matching outage-start, means an emitter lied.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::event::{Event, EventRecord};

/// How a session's story ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EndKind {
    /// Finished playback cleanly.
    Completed,
    /// Explicitly refused until the bounce budget ran out.
    Shed,
    /// Gave up on a silent server after exhausting retries.
    Abandoned,
}

impl EndKind {
    fn label(self) -> &'static str {
        match self {
            EndKind::Completed => "completed",
            EndKind::Shed => "shed",
            EndKind::Abandoned => "abandoned",
        }
    }
}

/// One rebuffering pause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallSpan {
    /// Tick the stall began.
    pub start: u64,
    /// Length in ticks (0 for a stall still open at end of log).
    pub ticks: u64,
}

/// The reconstructed story of one client's session.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionTimeline {
    /// Raw node index of the client.
    pub client: u64,
    /// Role label when the log carries one (`student3`), else `node<i>`.
    pub label: String,
    /// Tick of the first `session_start` for this client.
    pub requested_at: Option<u64>,
    /// Tick playback first started.
    pub playback_at: Option<u64>,
    /// Startup latency reported at playback start.
    pub startup_ticks: u64,
    /// Every stall span, in time order.
    pub stalls: Vec<StallSpan>,
    /// Total ticks spent stalled (closed spans only).
    pub stall_ticks: u64,
    /// Every downshift `(at, from_bps, to_bps)`.
    pub downshifts: Vec<(u64, u64, u64)>,
    /// Upshifts applied.
    pub upshifts: u64,
    /// Every recovered outage `(recovered_at, outage_ticks)`.
    pub outages: Vec<(u64, u64)>,
    /// Play re-requests issued by the retry layer.
    pub retries: u64,
    /// `Busy` bounces received.
    pub busy_bounces: u64,
    /// `(at, kind)` of the session's end, when it ended.
    pub ended: Option<(u64, EndKind)>,
}

impl SessionTimeline {
    fn new(client: u64) -> Self {
        Self {
            client,
            label: format!("node{client}"),
            requested_at: None,
            playback_at: None,
            startup_ticks: 0,
            stalls: Vec::new(),
            stall_ticks: 0,
            downshifts: Vec::new(),
            upshifts: 0,
            outages: Vec::new(),
            retries: 0,
            busy_bounces: 0,
            ended: None,
        }
    }

    /// Renders the timeline as indented plain text, one span per line,
    /// ticks shown as milliseconds (integer division — deterministic).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let ms = |t: u64| t / 10_000;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "session {} (client {}): {} stall ms over {} stall(s), {} downshift(s), {} outage(s)",
            self.label,
            self.client,
            ms(self.stall_ticks),
            self.stalls.len(),
            self.downshifts.len(),
            self.outages.len(),
        );
        if let Some(at) = self.requested_at {
            let _ = writeln!(out, "  t={:>8}ms  play requested", ms(at));
        }
        if let Some(at) = self.playback_at {
            let _ = writeln!(
                out,
                "  t={:>8}ms  playback started (startup {} ms)",
                ms(at),
                ms(self.startup_ticks)
            );
        }
        for s in &self.stalls {
            let _ = writeln!(
                out,
                "  t={:>8}ms  stalled for {} ms",
                ms(s.start),
                ms(s.ticks)
            );
        }
        for &(at, from, to) in &self.downshifts {
            let _ = writeln!(
                out,
                "  t={:>8}ms  downshift {} -> {} bit/s",
                ms(at),
                from,
                to
            );
        }
        for &(at, dur) in &self.outages {
            let _ = writeln!(
                out,
                "  t={:>8}ms  recovered from a {} ms outage",
                ms(at),
                ms(dur)
            );
        }
        if let Some((at, kind)) = self.ended {
            let _ = writeln!(out, "  t={:>8}ms  {}", ms(at), kind.label());
        }
        out
    }
}

/// Folds an event log into one timeline per client, ordered by client
/// node index. Only client-facing events contribute; relay/fault events
/// are ignored here.
pub fn session_timelines(events: &[EventRecord]) -> Vec<SessionTimeline> {
    let mut map: BTreeMap<u64, SessionTimeline> = BTreeMap::new();
    let mut labels: BTreeMap<u64, String> = BTreeMap::new();
    let mut open_stall: BTreeMap<u64, u64> = BTreeMap::new();
    for rec in events {
        let at = rec.at;
        match &rec.event {
            Event::NodeLabel { node, label } => {
                labels.insert(*node, label.clone());
            }
            Event::SessionStart { client } => {
                let t = map
                    .entry(*client)
                    .or_insert_with(|| SessionTimeline::new(*client));
                if t.requested_at.is_none() {
                    t.requested_at = Some(at);
                }
            }
            Event::PlaybackStart {
                client,
                startup_ticks,
            } => {
                let t = map
                    .entry(*client)
                    .or_insert_with(|| SessionTimeline::new(*client));
                if t.playback_at.is_none() {
                    t.playback_at = Some(at);
                    t.startup_ticks = *startup_ticks;
                }
            }
            Event::StallStart { client } => {
                open_stall.insert(*client, at);
            }
            Event::StallEnd {
                client,
                stall_ticks,
            } => {
                let t = map
                    .entry(*client)
                    .or_insert_with(|| SessionTimeline::new(*client));
                let start = open_stall
                    .remove(client)
                    .unwrap_or_else(|| at.saturating_sub(*stall_ticks));
                t.stalls.push(StallSpan {
                    start,
                    ticks: *stall_ticks,
                });
                t.stall_ticks = t.stall_ticks.saturating_add(*stall_ticks);
            }
            Event::Downshift {
                client,
                from_bps,
                to_bps,
            } => {
                map.entry(*client)
                    .or_insert_with(|| SessionTimeline::new(*client))
                    .downshifts
                    .push((at, *from_bps, *to_bps));
            }
            Event::Upshift { client, .. } => {
                map.entry(*client)
                    .or_insert_with(|| SessionTimeline::new(*client))
                    .upshifts += 1;
            }
            Event::Recovery {
                client,
                outage_ticks,
            } => {
                map.entry(*client)
                    .or_insert_with(|| SessionTimeline::new(*client))
                    .outages
                    .push((at, *outage_ticks));
            }
            Event::Retry { client, .. } => {
                map.entry(*client)
                    .or_insert_with(|| SessionTimeline::new(*client))
                    .retries += 1;
            }
            Event::BusyBounce { client } => {
                map.entry(*client)
                    .or_insert_with(|| SessionTimeline::new(*client))
                    .busy_bounces += 1;
            }
            Event::SessionEnd { client } => {
                map.entry(*client)
                    .or_insert_with(|| SessionTimeline::new(*client))
                    .ended
                    .get_or_insert((at, EndKind::Completed));
            }
            Event::ClientShed { client } => {
                map.entry(*client)
                    .or_insert_with(|| SessionTimeline::new(*client))
                    .ended
                    .get_or_insert((at, EndKind::Shed));
            }
            Event::Abandon { client } => {
                map.entry(*client)
                    .or_insert_with(|| SessionTimeline::new(*client))
                    .ended
                    .get_or_insert((at, EndKind::Abandoned));
            }
            _ => {}
        }
    }
    // A stall still open when the log ends becomes a zero-length span
    // (visible, but not counted as stalled time).
    for (client, start) in open_stall {
        if let Some(t) = map.get_mut(&client) {
            t.stalls.push(StallSpan { start, ticks: 0 });
        }
    }
    let mut timelines: Vec<SessionTimeline> = map.into_values().collect();
    for t in &mut timelines {
        if let Some(l) = labels.get(&t.client) {
            t.label = l.clone();
        }
    }
    timelines
}

/// The `n` sessions with the most stalled time, worst first; ties break
/// toward the lower client index so the ranking is deterministic.
pub fn worst_by_stall(timelines: &[SessionTimeline], n: usize) -> Vec<&SessionTimeline> {
    let mut refs: Vec<&SessionTimeline> = timelines.iter().collect();
    refs.sort_by(|a, b| {
        b.stall_ticks
            .cmp(&a.stall_ticks)
            .then(a.client.cmp(&b.client))
    });
    refs.truncate(n);
    refs
}

/// What [`check_causal`] found in an event log.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CausalReport {
    /// Downshift events seen.
    pub downshifts: u64,
    /// Downshifts with no earlier `backlog_high` sample for the same
    /// client — a causality violation.
    pub unheralded_downshifts: u64,
    /// Recovery events seen.
    pub recoveries: u64,
    /// Recoveries with no open `outage_start` for the same client — a
    /// causality violation.
    pub unmatched_recoveries: u64,
    /// `admission_shed` events per refusing node.
    pub sheds_by_node: BTreeMap<u64, u64>,
    /// `heartbeat_miss` events seen (all nodes).
    pub heartbeat_misses: u64,
    /// `promoted` events seen.
    pub promotions: u64,
    /// Promotions not heralded by a `failover_start` whose origin had
    /// accumulated at least the declared miss threshold of
    /// `heartbeat_miss` events — a causality violation.
    pub unheralded_promotions: u64,
    /// `session_migrated` events seen.
    pub migrations: u64,
    /// Migrations with no earlier `checkpoint` for the same client — a
    /// causality violation (the standby invented state).
    pub unmatched_migrations: u64,
    /// Fencing-epoch violations: a `promoted` event whose epoch does not
    /// strictly exceed every epoch promoted (or demoted-to) before it —
    /// two nodes would be serving the same epoch.
    pub epoch_conflicts: u64,
    /// `retransmit` events seen.
    #[serde(default)]
    pub retransmits: u64,
    /// Retransmits with no earlier `nack_sent` from the receiving peer
    /// covering the resent sequence — the sender resent unasked, a
    /// causality violation.
    #[serde(default)]
    pub unmatched_retransmits: u64,
    /// `repair_give_up` events seen.
    #[serde(default)]
    pub repair_give_ups: u64,
    /// Give-ups whose declared retry count exceeds the declared budget —
    /// the sender kept repairing past its own limit.
    #[serde(default)]
    pub over_budget_give_ups: u64,
    /// `gap_skipped` events seen.
    #[serde(default)]
    pub gap_skips: u64,
    /// Gap-skips that happened before the NACK budget was exhausted
    /// (`nacks < budget`) — with repair enabled, a skip is only lawful
    /// after budget exhaustion.
    #[serde(default)]
    pub premature_gap_skips: u64,
    /// Distinct trace spans opened (`span_open` events, deduplicated by
    /// `(lecture, segment, node, peer, hop)`).
    #[serde(default)]
    pub spans_opened: u64,
    /// Spans opened but never closed — every traced hop must complete.
    #[serde(default)]
    pub spans_unclosed: u64,
    /// Span closes with no earlier matching open, plus delivery-chain
    /// hops whose first opens are not monotone in ticks (`relay_fetch →
    /// packetize → fan_out → reassemble → playout_wait`).
    #[serde(default)]
    pub span_order_violations: u64,
    /// Traces where the client's `reassemble` hop closed before the
    /// origin's `packetize` hop opened — receipt preceding emission.
    #[serde(default)]
    pub span_receipt_violations: u64,
}

impl CausalReport {
    /// Total admission refusals across all nodes.
    pub fn total_sheds(&self) -> u64 {
        self.sheds_by_node.values().sum()
    }

    /// Admission refusals issued by `node`.
    pub fn sheds_at(&self, node: u64) -> u64 {
        self.sheds_by_node.get(&node).copied().unwrap_or(0)
    }

    /// Whether every causal invariant holds (overload, failover,
    /// transport repair and trace spans).
    pub fn holds(&self) -> bool {
        self.unheralded_downshifts == 0
            && self.unmatched_recoveries == 0
            && self.unheralded_promotions == 0
            && self.unmatched_migrations == 0
            && self.epoch_conflicts == 0
            && self.unmatched_retransmits == 0
            && self.over_budget_give_ups == 0
            && self.premature_gap_skips == 0
            && self.spans_unclosed == 0
            && self.span_order_violations == 0
            && self.span_receipt_violations == 0
    }
}

/// Checks the causal trace invariants over `events` (which must be in
/// emission order, as [`crate::Recorder`] keeps them):
///
/// 1. every `downshift` is preceded by a `backlog_high` sample for the
///    same client (the watermark crossing that justified it),
/// 2. every `recovery` closes an `outage_start` opened earlier for the
///    same client, with no recovery in between,
/// 3. every `promoted` is heralded by a `failover_start` whose dead
///    origin accumulated at least the declared threshold of
///    `heartbeat_miss` events,
/// 4. every `session_migrated` is matched by an earlier `checkpoint` for
///    the same client, and
/// 5. fencing epochs are strictly monotonic: no two promotions (nor a
///    promotion and the demotion it fenced) share an epoch, so no two
///    nodes ever serve the same epoch,
/// 6. every `retransmit` answers an earlier `nack_sent` from the
///    receiving peer whose `[base_seq, base_seq + span)` range covers the
///    resent sequence (a sender never resends unasked),
/// 7. every `repair_give_up` declares `retries <= budget` (the sender
///    never repaired past its own limit), and
/// 8. every `gap_skipped` declares `nacks >= budget` (with repair on, a
///    receiver only abandons a gap after exhausting its NACK budget;
///    plain reorder-timeout skips carry `nacks == budget == 0` and are
///    lawful),
/// 9. every `span_open` is eventually matched by a `span_close` for the
///    same `(lecture, segment, node, peer, hop)` key,
/// 10. delivery-chain hops open in causal order within a trace —
///     `relay_fetch → packetize → fan_out → reassemble → playout_wait`
///     first-opens are monotone in ticks (the frame-level hops `pace`,
///     `wire`, `reorder`, `repair_stall` recur on every leg and are
///     exempt), and a close never precedes its open, and
/// 11. the client's `reassemble` hop never closes before the origin's
///     `packetize` hop opened for the same segment (receipt ≥ emission;
///     meaningful because loopback nodes share one tick epoch).
///
/// Span checks assume the full log: a capacity-ringed recorder that
/// overwrote early opens will truthfully report order violations.
pub fn check_causal(events: &[EventRecord]) -> CausalReport {
    let mut report = CausalReport::default();
    let mut backlog_high_seen: BTreeMap<u64, bool> = BTreeMap::new();
    let mut outage_open: BTreeMap<u64, bool> = BTreeMap::new();
    // Failover bookkeeping: misses accumulated per origin, promotions
    // armed per standby, checkpoints seen per client, highest epoch
    // promoted so far.
    let mut misses_by_node: BTreeMap<u64, u64> = BTreeMap::new();
    let mut promotion_armed: BTreeMap<u64, bool> = BTreeMap::new();
    let mut checkpointed: BTreeMap<u64, bool> = BTreeMap::new();
    let mut max_epoch_promoted: Option<u64> = None;
    // Repair bookkeeping: NACK ranges per (nacker, peer) direction.
    let mut nack_ranges: BTreeMap<(u64, u64), Vec<(u64, u64)>> = BTreeMap::new();
    // Span bookkeeping: (lecture, segment, node, peer, hop) →
    // (first open tick, last close tick).
    type SpanKey<'a> = (u64, u64, u64, u64, &'a str);
    let mut span_state: BTreeMap<SpanKey, (u64, Option<u64>)> = BTreeMap::new();
    for rec in events {
        match &rec.event {
            Event::BacklogHigh { client, .. } => {
                backlog_high_seen.insert(*client, true);
            }
            Event::Downshift { client, .. } => {
                report.downshifts += 1;
                if !backlog_high_seen.get(client).copied().unwrap_or(false) {
                    report.unheralded_downshifts += 1;
                }
            }
            Event::OutageStart { client } => {
                outage_open.insert(*client, true);
            }
            Event::Recovery { client, .. } => {
                report.recoveries += 1;
                if outage_open.insert(*client, false) != Some(true) {
                    report.unmatched_recoveries += 1;
                }
            }
            Event::AdmissionShed { node, .. } => {
                *report.sheds_by_node.entry(*node).or_insert(0) += 1;
            }
            Event::HeartbeatMiss { node, .. } => {
                report.heartbeat_misses += 1;
                *misses_by_node.entry(*node).or_insert(0) += 1;
            }
            Event::FailoverStart { from, to, misses } => {
                // The declared threshold must actually have been
                // accumulated against the dead origin.
                let earned = misses_by_node.get(from).copied().unwrap_or(0) >= *misses;
                promotion_armed.insert(*to, earned);
            }
            Event::Promoted { node, epoch } => {
                report.promotions += 1;
                if promotion_armed.insert(*node, false) != Some(true) {
                    report.unheralded_promotions += 1;
                }
                if max_epoch_promoted.is_some_and(|m| *epoch <= m) {
                    report.epoch_conflicts += 1;
                }
                max_epoch_promoted = max_epoch_promoted.max(Some(*epoch));
            }
            Event::Demoted { node, epoch } => {
                // A demotion at an epoch *above* the highest promotion
                // would mean the rejoiner fenced itself against a primary
                // the log never promoted.
                if max_epoch_promoted.is_none_or(|m| *epoch > m) {
                    report.epoch_conflicts += 1;
                }
                let _ = node;
            }
            Event::Checkpoint { client, .. } => {
                checkpointed.insert(*client, true);
            }
            Event::SessionMigrated { client, .. } => {
                report.migrations += 1;
                if !checkpointed.get(client).copied().unwrap_or(false) {
                    report.unmatched_migrations += 1;
                }
            }
            Event::NackSent {
                node,
                peer,
                base_seq,
                span,
            } => {
                nack_ranges
                    .entry((*node, *peer))
                    .or_default()
                    .push((*base_seq, *span));
            }
            Event::Retransmit {
                node, peer, seq, ..
            } => {
                report.retransmits += 1;
                // The matching NACK was sent *by* the peer *to* this
                // sender, so the key direction flips.
                let asked = nack_ranges.get(&(*peer, *node)).is_some_and(|ranges| {
                    ranges
                        .iter()
                        .any(|&(base, span)| *seq >= base && *seq - base < span)
                });
                if !asked {
                    report.unmatched_retransmits += 1;
                }
            }
            Event::RepairGiveUp {
                retries, budget, ..
            } => {
                report.repair_give_ups += 1;
                if retries > budget {
                    report.over_budget_give_ups += 1;
                }
            }
            Event::GapSkipped { nacks, budget, .. } => {
                report.gap_skips += 1;
                if nacks < budget {
                    report.premature_gap_skips += 1;
                }
            }
            Event::SpanOpen {
                node,
                peer,
                hop,
                lecture,
                segment,
            } => {
                let key = (*lecture, *segment, *node, *peer, hop.as_str());
                if let std::collections::btree_map::Entry::Vacant(e) = span_state.entry(key) {
                    e.insert((rec.at, None));
                    report.spans_opened += 1;
                }
            }
            Event::SpanClose {
                node,
                peer,
                hop,
                lecture,
                segment,
            } => {
                let key = (*lecture, *segment, *node, *peer, hop.as_str());
                match span_state.get_mut(&key) {
                    // Duplicate closes are lawful (fault-duplicated
                    // frames double-close `pace`); the widest span wins.
                    Some(slot) => slot.1 = Some(slot.1.map_or(rec.at, |c| c.max(rec.at))),
                    // A close before (or without) its open: in a
                    // tick-sorted merged log this is an order violation.
                    None => report.span_order_violations += 1,
                }
            }
            _ => {}
        }
    }
    // Unclosed spans, delivery-chain open monotonicity, and
    // receipt-after-emission per trace.
    const CHAIN: [&str; 5] = [
        "relay_fetch",
        "packetize",
        "fan_out",
        "reassemble",
        "playout_wait",
    ];
    let mut chain_opens: BTreeMap<(u64, u64), [Option<u64>; 5]> = BTreeMap::new();
    let mut first_packetize_open: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let mut first_reassemble_close: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for (&(lecture, segment, _, _, hop), &(open, close)) in &span_state {
        if close.is_none() {
            report.spans_unclosed += 1;
        }
        if let Some(i) = CHAIN.iter().position(|&h| h == hop) {
            let slot = &mut chain_opens.entry((lecture, segment)).or_insert([None; 5])[i];
            if slot.is_none_or(|t| open < t) {
                *slot = Some(open);
            }
        }
        if hop == "packetize" {
            let e = first_packetize_open
                .entry((lecture, segment))
                .or_insert(open);
            *e = (*e).min(open);
        }
        if hop == "reassemble" {
            if let Some(close) = close {
                let e = first_reassemble_close
                    .entry((lecture, segment))
                    .or_insert(close);
                *e = (*e).min(close);
            }
        }
    }
    for opens in chain_opens.values() {
        let mut prev = None;
        for &open in opens.iter().flatten() {
            if prev.is_some_and(|p| open < p) {
                report.span_order_violations += 1;
            }
            prev = Some(open);
        }
    }
    for (key, &close) in &first_reassemble_close {
        if first_packetize_open
            .get(key)
            .is_some_and(|&open| close < open)
        {
            report.span_receipt_violations += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at: u64, event: Event) -> EventRecord {
        EventRecord { at, event }
    }

    #[test]
    fn timeline_folds_one_session() {
        let events = vec![
            rec(
                0,
                Event::NodeLabel {
                    node: 5,
                    label: "student2".into(),
                },
            ),
            rec(10, Event::SessionStart { client: 5 }),
            rec(
                30,
                Event::PlaybackStart {
                    client: 5,
                    startup_ticks: 20,
                },
            ),
            rec(40, Event::StallStart { client: 5 }),
            rec(
                70,
                Event::StallEnd {
                    client: 5,
                    stall_ticks: 30,
                },
            ),
            rec(
                80,
                Event::Downshift {
                    client: 5,
                    from_bps: 10,
                    to_bps: 5,
                },
            ),
            rec(90, Event::SessionEnd { client: 5 }),
        ];
        let tl = session_timelines(&events);
        assert_eq!(tl.len(), 1);
        let t = &tl[0];
        assert_eq!(t.label, "student2");
        assert_eq!(t.requested_at, Some(10));
        assert_eq!(t.playback_at, Some(30));
        assert_eq!(t.stall_ticks, 30);
        assert_eq!(
            t.stalls,
            vec![StallSpan {
                start: 40,
                ticks: 30
            }]
        );
        assert_eq!(t.downshifts, vec![(80, 10, 5)]);
        assert_eq!(t.ended, Some((90, EndKind::Completed)));
        let text = t.render();
        assert!(text.contains("student2"), "{text}");
        assert!(text.contains("downshift 10 -> 5"), "{text}");
    }

    #[test]
    fn worst_by_stall_ranks_deterministically() {
        let mut a = SessionTimeline::new(1);
        a.stall_ticks = 50;
        let mut b = SessionTimeline::new(2);
        b.stall_ticks = 100;
        let mut c = SessionTimeline::new(3);
        c.stall_ticks = 50;
        let tls = vec![a, b, c];
        let worst: Vec<u64> = worst_by_stall(&tls, 2).iter().map(|t| t.client).collect();
        assert_eq!(worst, vec![2, 1]);
    }

    #[test]
    fn stall_ticks_saturate_instead_of_overflowing() {
        let stall = |at| {
            rec(
                at,
                Event::StallEnd {
                    client: 1,
                    stall_ticks: u64::MAX,
                },
            )
        };
        let tl = session_timelines(&[stall(10), stall(20)]);
        assert_eq!(tl[0].stall_ticks, u64::MAX);
        assert_eq!(tl[0].stalls.len(), 2);
        assert!(tl[0].render().contains("stalled for"));
    }

    #[test]
    fn nack_at_the_top_of_the_sequence_space_covers_its_range() {
        let resend = |seq| {
            rec(
                20,
                Event::Retransmit {
                    node: 1,
                    peer: 5,
                    seq,
                    attempt: 1,
                },
            )
        };
        let nack = rec(
            10,
            Event::NackSent {
                node: 5,
                peer: 1,
                base_seq: u64::MAX,
                span: 3,
            },
        );
        let r = check_causal(&[nack.clone(), resend(u64::MAX)]);
        assert_eq!((r.retransmits, r.unmatched_retransmits), (1, 0));
        let r = check_causal(&[nack, resend(u64::MAX - 1)]);
        assert_eq!((r.retransmits, r.unmatched_retransmits), (1, 1));
    }

    #[test]
    fn causal_invariants_hold_on_a_lawful_trace() {
        let events = vec![
            rec(
                10,
                Event::BacklogHigh {
                    client: 1,
                    backlog: 999,
                },
            ),
            rec(
                20,
                Event::Downshift {
                    client: 1,
                    from_bps: 10,
                    to_bps: 5,
                },
            ),
            rec(30, Event::OutageStart { client: 2 }),
            rec(
                40,
                Event::Recovery {
                    client: 2,
                    outage_ticks: 10,
                },
            ),
            rec(50, Event::AdmissionShed { node: 0, client: 3 }),
            rec(60, Event::AdmissionShed { node: 0, client: 4 }),
        ];
        let r = check_causal(&events);
        assert!(r.holds(), "{r:?}");
        assert_eq!(r.downshifts, 1);
        assert_eq!(r.recoveries, 1);
        assert_eq!(r.sheds_at(0), 2);
        assert_eq!(r.total_sheds(), 2);
    }

    #[test]
    fn causal_violations_are_counted() {
        let events = vec![
            // Downshift with no backlog-high sample anywhere.
            rec(
                20,
                Event::Downshift {
                    client: 1,
                    from_bps: 10,
                    to_bps: 5,
                },
            ),
            // Recovery with no outage open.
            rec(
                40,
                Event::Recovery {
                    client: 2,
                    outage_ticks: 10,
                },
            ),
            rec(50, Event::OutageStart { client: 3 }),
            rec(
                60,
                Event::Recovery {
                    client: 3,
                    outage_ticks: 5,
                },
            ),
            // Second recovery against the same (now closed) outage.
            rec(
                70,
                Event::Recovery {
                    client: 3,
                    outage_ticks: 5,
                },
            ),
        ];
        let r = check_causal(&events);
        assert_eq!(r.unheralded_downshifts, 1);
        assert_eq!(r.unmatched_recoveries, 2);
        assert!(!r.holds());
    }

    #[test]
    fn failover_invariants_hold_on_a_lawful_trace() {
        let events = vec![
            rec(
                10,
                Event::Checkpoint {
                    client: 7,
                    horizon: 100,
                },
            ),
            rec(20, Event::HeartbeatMiss { node: 0, misses: 1 }),
            rec(30, Event::HeartbeatMiss { node: 0, misses: 2 }),
            rec(40, Event::HeartbeatMiss { node: 0, misses: 3 }),
            rec(
                40,
                Event::FailoverStart {
                    from: 0,
                    to: 9,
                    misses: 3,
                },
            ),
            rec(40, Event::Promoted { node: 9, epoch: 2 }),
            rec(
                40,
                Event::SessionMigrated {
                    client: 7,
                    horizon: 100,
                },
            ),
            // The healed old origin fences itself against epoch 2.
            rec(90, Event::Demoted { node: 0, epoch: 2 }),
        ];
        let r = check_causal(&events);
        assert!(r.holds(), "{r:?}");
        assert_eq!(r.promotions, 1);
        assert_eq!(r.migrations, 1);
        assert_eq!(r.epoch_conflicts, 0);
    }

    #[test]
    fn failover_violations_are_counted() {
        let events = vec![
            // Promotion with only 1 accumulated miss against a declared
            // threshold of 3.
            rec(10, Event::HeartbeatMiss { node: 0, misses: 1 }),
            rec(
                20,
                Event::FailoverStart {
                    from: 0,
                    to: 9,
                    misses: 3,
                },
            ),
            rec(20, Event::Promoted { node: 9, epoch: 2 }),
            // Migration of a client never checkpointed.
            rec(
                30,
                Event::SessionMigrated {
                    client: 5,
                    horizon: 10,
                },
            ),
            // A second promotion re-using epoch 2: split-brain.
            rec(
                40,
                Event::FailoverStart {
                    from: 9,
                    to: 0,
                    misses: 0,
                },
            ),
            rec(40, Event::Promoted { node: 0, epoch: 2 }),
        ];
        let r = check_causal(&events);
        assert_eq!(r.unheralded_promotions, 1);
        assert_eq!(r.unmatched_migrations, 1);
        assert_eq!(r.epoch_conflicts, 1);
        assert!(!r.holds());
    }

    #[test]
    fn promotion_herald_is_single_use() {
        // One lawful failover does not bless a second promotion of the
        // same standby.
        let mut events = vec![
            rec(10, Event::HeartbeatMiss { node: 0, misses: 1 }),
            rec(20, Event::HeartbeatMiss { node: 0, misses: 2 }),
            rec(
                20,
                Event::FailoverStart {
                    from: 0,
                    to: 9,
                    misses: 2,
                },
            ),
            rec(20, Event::Promoted { node: 9, epoch: 2 }),
        ];
        events.push(rec(50, Event::Promoted { node: 9, epoch: 3 }));
        let r = check_causal(&events);
        assert_eq!(r.promotions, 2);
        assert_eq!(r.unheralded_promotions, 1);
        assert_eq!(r.epoch_conflicts, 0, "epoch 3 is still monotonic");
    }

    #[test]
    fn repair_invariants_hold_on_a_lawful_trace() {
        // Node 5 (receiver) NACKs a 3-wide range at node 1 (sender); the
        // sender retransmits inside the range, gives up on one seq at
        // budget, and the receiver skips it after exhausting its NACKs.
        let events = vec![
            rec(
                10,
                Event::NackSent {
                    node: 5,
                    peer: 1,
                    base_seq: 42,
                    span: 3,
                },
            ),
            rec(
                20,
                Event::Retransmit {
                    node: 1,
                    peer: 5,
                    seq: 42,
                    attempt: 1,
                },
            ),
            rec(
                20,
                Event::Retransmit {
                    node: 1,
                    peer: 5,
                    seq: 44,
                    attempt: 1,
                },
            ),
            rec(
                30,
                Event::RepairGiveUp {
                    node: 1,
                    peer: 5,
                    seq: 44,
                    retries: 3,
                    budget: 3,
                },
            ),
            rec(
                40,
                Event::GapSkipped {
                    node: 5,
                    peer: 1,
                    seq: 44,
                    nacks: 3,
                    budget: 3,
                },
            ),
            // A repair-off reorder-timeout skip is lawful too.
            rec(
                50,
                Event::GapSkipped {
                    node: 6,
                    peer: 1,
                    seq: 7,
                    nacks: 0,
                    budget: 0,
                },
            ),
        ];
        let r = check_causal(&events);
        assert!(r.holds(), "{r:?}");
        assert_eq!(r.retransmits, 2);
        assert_eq!(r.repair_give_ups, 1);
        assert_eq!(r.gap_skips, 2);
    }

    #[test]
    fn repair_violations_are_counted() {
        let events = vec![
            // Retransmit with no NACK anywhere.
            rec(
                10,
                Event::Retransmit {
                    node: 1,
                    peer: 5,
                    seq: 42,
                    attempt: 1,
                },
            ),
            rec(
                20,
                Event::NackSent {
                    node: 5,
                    peer: 1,
                    base_seq: 50,
                    span: 2,
                },
            ),
            // Retransmit outside the NACKed range [50, 52).
            rec(
                30,
                Event::Retransmit {
                    node: 1,
                    peer: 5,
                    seq: 52,
                    attempt: 1,
                },
            ),
            // NACK in the wrong direction does not bless a retransmit:
            // node 7 nacked node 8, not the other way around.
            rec(
                40,
                Event::NackSent {
                    node: 8,
                    peer: 7,
                    base_seq: 9,
                    span: 1,
                },
            ),
            rec(
                50,
                Event::Retransmit {
                    node: 8,
                    peer: 7,
                    seq: 9,
                    attempt: 1,
                },
            ),
            // Give-up past its own budget.
            rec(
                60,
                Event::RepairGiveUp {
                    node: 1,
                    peer: 5,
                    seq: 50,
                    retries: 4,
                    budget: 3,
                },
            ),
            // Skip before the NACK budget was spent.
            rec(
                70,
                Event::GapSkipped {
                    node: 5,
                    peer: 1,
                    seq: 50,
                    nacks: 1,
                    budget: 3,
                },
            ),
        ];
        let r = check_causal(&events);
        assert_eq!(r.retransmits, 3);
        assert_eq!(r.unmatched_retransmits, 3);
        assert_eq!(r.over_budget_give_ups, 1);
        assert_eq!(r.premature_gap_skips, 1);
        assert!(!r.holds());
    }

    fn span_rec(at: u64, open: bool, node: u64, peer: u64, hop: &str) -> EventRecord {
        let (lecture, segment) = (11, 4);
        rec(
            at,
            if open {
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
        )
    }

    #[test]
    fn span_invariants_hold_on_a_lawful_trace() {
        let events = vec![
            span_rec(100, true, 2, 0, "relay_fetch"),
            span_rec(110, true, 0, 0, "packetize"),
            span_rec(150, false, 0, 0, "packetize"),
            span_rec(200, false, 2, 0, "relay_fetch"),
            span_rec(210, true, 2, 5, "fan_out"),
            span_rec(230, true, 5, 2, "reassemble"),
            span_rec(300, false, 5, 2, "reassemble"),
            span_rec(300, true, 5, 5, "playout_wait"),
            span_rec(400, false, 5, 5, "playout_wait"),
            span_rec(500, false, 2, 5, "fan_out"),
        ];
        let r = check_causal(&events);
        assert!(r.holds(), "{r:?}");
        assert_eq!(r.spans_opened, 5);
        assert_eq!(r.spans_unclosed, 0);
    }

    #[test]
    fn span_violations_are_counted() {
        let events = vec![
            // Close with no open anywhere: an order violation.
            span_rec(50, false, 9, 9, "wire"),
            // Opened but never closed.
            span_rec(100, true, 2, 0, "relay_fetch"),
            // Chain out of order: packetize first-opens before the
            // relay_fetch that should precede it.
            span_rec(90, true, 0, 0, "packetize"),
            span_rec(95, false, 0, 0, "packetize"),
            // Receipt before emission: reassemble closes at 80, before
            // packetize opened at 90.
            span_rec(70, true, 5, 2, "reassemble"),
            span_rec(80, false, 5, 2, "reassemble"),
        ];
        let r = check_causal(&events);
        assert_eq!(r.spans_opened, 3);
        assert_eq!(r.spans_unclosed, 1);
        // One stray close + two chain inversions (packetize@90 after
        // relay_fetch@100, reassemble@70 after packetize@90).
        assert_eq!(r.span_order_violations, 3, "{r:?}");
        assert_eq!(r.span_receipt_violations, 1);
        assert!(!r.holds());
    }

    /// Satellite: `session_timelines` over a multi-node merged log —
    /// interleaved per-node JSONL folds correctly, and a log whose final
    /// line was truncated mid-write errors instead of silently dropping
    /// the tail.
    #[test]
    fn interleaved_multi_node_jsonl_folds_and_truncation_errors() {
        use crate::event::parse_jsonl;
        // Two nodes' logs, interleaved by tick as the loopback driver
        // merges them.
        let node_a = [
            rec(10, Event::SessionStart { client: 1 }),
            rec(
                30,
                Event::PlaybackStart {
                    client: 1,
                    startup_ticks: 20,
                },
            ),
            rec(90, Event::SessionEnd { client: 1 }),
        ];
        let node_b = [
            rec(20, Event::SessionStart { client: 2 }),
            rec(40, Event::StallStart { client: 2 }),
            rec(
                60,
                Event::StallEnd {
                    client: 2,
                    stall_ticks: 20,
                },
            ),
        ];
        let mut merged: Vec<EventRecord> = node_a.iter().chain(&node_b).cloned().collect();
        merged.sort_by_key(|r| r.at);
        let text: String = merged.iter().map(|r| r.to_json() + "\n").collect();
        let parsed = parse_jsonl(&text).expect("well-formed log");
        let tls = session_timelines(&parsed);
        assert_eq!(tls.len(), 2);
        assert_eq!(tls[0].client, 1);
        assert_eq!(tls[0].ended, Some((90, EndKind::Completed)));
        assert_eq!(tls[1].client, 2);
        assert_eq!(tls[1].stall_ticks, 20);

        // Mid-line truncation anywhere in the final record must error —
        // at every cut point, including mid-number and mid-kind.
        let full_len = text.len();
        let last_line_start = text[..full_len - 1].rfind('\n').unwrap() + 1;
        for cut in last_line_start + 1..full_len - 1 {
            let truncated = &text[..cut];
            assert!(
                parse_jsonl(truncated).is_err(),
                "cut at {cut} silently accepted: {:?}",
                &truncated[last_line_start..]
            );
        }
    }
}

//! Transport-layer loss repair: NACK/retransmit with RTT-adaptive timers.
//!
//! Without repair, every datagram the kernel drops escalates all the way
//! up the stack: the reorder buffer gap-flushes past it, the streaming
//! client notices a hole in the lecture, and the application retry layer
//! re-requests a whole segment — the failure mode production RTP/SFU
//! stacks avoid with NACK-based retransmission. This module is that
//! sublayer, split into two pure state machines so both the real
//! [`crate::UdpTransport`] and deterministic drills can drive them:
//!
//! * [`RepairTx`] — the sender half. Keeps a byte-budgeted window of
//!   recently sent frames per peer and answers NACKs with the original
//!   encoded bytes, deduplicating repeat requests and giving up on a
//!   sequence once its retry budget is spent (explicit [`GiveUp`]
//!   accounting — a silent drop is exactly what this layer exists to
//!   remove).
//! * [`RepairRx`] — the receiver half. One [`RepairRx::round`] per poll
//!   watches the gaps a [`ReorderBuffer`] exposes as ranges, emits
//!   compact [`ControlFrame::Nack`] frames (base sequence + bitmap of
//!   additional misses) on a timer derived from a smoothed path-delay
//!   estimate (fed by the send timestamps every frame already carries),
//!   re-NACKs unanswered gaps with the same adaptive interval, and —
//!   only after the retry budget is exhausted, in place of the reorder
//!   buffer's blind timeout — skips the gap, one range at a time.
//!
//! The give-up → gap-skip handoff is the causal contract the obs layer
//! checks: `check_causal` proves every retransmit answers a prior NACK,
//! every give-up stayed within budget, and every skipped range was
//! skipped only after budget exhaustion (see DESIGN.md §14).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::VecDeque;
use std::ops::Range;

use crate::frame::{CodecError, Reader, WireCodec};
use crate::reorder::{ReorderBuffer, SkippedRange};

/// Most additional misses one NACK bitmap can name past its base
/// sequence (64 bytes of bitmap = offsets 1..=512).
pub const MAX_NACK_OFFSET: u16 = 512;

/// Knobs for the repair sublayer. All budgets must be positive — see
/// [`RepairConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairConfig {
    /// Per-peer byte budget of the sender-side retransmit buffer; the
    /// oldest frames are evicted once recording a new frame would exceed
    /// it.
    pub buffer_bytes: u64,
    /// Retry budget per sequence: the sender retransmits a frame at most
    /// this many times, and the receiver NACKs a gap at most this many
    /// times before authorizing a gap-skip.
    pub retry_budget: u32,
    /// Seed for the smoothed path-delay estimate before any sample
    /// arrived, in ticks.
    pub initial_rtt_ticks: u64,
    /// Floor of the adaptive NACK interval, in ticks (also the sender's
    /// duplicate-suppression window).
    pub min_nack_interval_ticks: u64,
}

impl Default for RepairConfig {
    fn default() -> Self {
        Self {
            // Half a dozen 45 KiB segment frames — enough history to
            // answer a NACK one adaptive interval later.
            buffer_bytes: 512 * 1024,
            retry_budget: 3,
            // 2 ms: generous for loopback, instantly corrected by the
            // first real sample.
            initial_rtt_ticks: 20_000,
            // 1 ms floor so a jittery estimate cannot NACK-storm.
            min_nack_interval_ticks: 10_000,
        }
    }
}

impl RepairConfig {
    /// Panics when any knob is a zero that would disable the machinery
    /// silently (mirrors the zero-value validation of the server/relay
    /// builders).
    pub fn validate(&self) {
        assert!(
            self.buffer_bytes > 0,
            "repair buffer_bytes must be positive"
        );
        assert!(
            self.retry_budget > 0,
            "repair retry_budget must be positive"
        );
        assert!(
            self.initial_rtt_ticks > 0,
            "repair initial_rtt_ticks must be positive"
        );
        assert!(
            self.min_nack_interval_ticks > 0,
            "repair min_nack_interval_ticks must be positive"
        );
    }
}

/// Transport-internal control messages, carried in frames flagged
/// [`crate::frame::FLAG_CONTROL`] (sequence 0, exempt from reordering).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlFrame {
    /// Negative acknowledgement: `base_seq` is missing, and so is
    /// `base_seq + offset` for every offset in `offsets` (sorted,
    /// distinct, each in `1..=MAX_NACK_OFFSET`). On the wire the offsets
    /// travel as a bitmap: bit `i` of the bitmap means `base_seq + 1 + i`
    /// is missing.
    Nack {
        /// First missing sequence named by this frame.
        base_seq: u64,
        /// Additional missing sequences, as offsets past `base_seq`.
        offsets: Vec<u16>,
    },
    /// Sender heartbeat advertising the highest data sequence put on the
    /// wire so far. This is what makes *tail* loss repairable: a dropped
    /// final frame (an end-of-stream marker, the last segment of a
    /// burst) leaves no later arrival to expose the gap, so without the
    /// advertisement the receiver would never know to NACK it.
    Heartbeat {
        /// Highest data sequence the sender has transmitted.
        top_seq: u64,
    },
}

/// Wire tag of [`ControlFrame::Nack`].
const TAG_NACK: u8 = 0;
/// Wire tag of [`ControlFrame::Heartbeat`].
const TAG_HEARTBEAT: u8 = 1;

impl ControlFrame {
    /// Packs sorted, disjoint ranges of missing sequences into as few
    /// NACK frames as the bitmap span allows.
    pub fn build_nacks(missing: impl IntoIterator<Item = Range<u64>>) -> Vec<ControlFrame> {
        let mut out = Vec::new();
        for seq in missing.into_iter().flatten() {
            match out.last_mut() {
                Some(ControlFrame::Nack { base_seq, offsets })
                    if seq - *base_seq <= u64::from(MAX_NACK_OFFSET) =>
                {
                    offsets.push((seq - *base_seq) as u16);
                }
                _ => out.push(ControlFrame::Nack {
                    base_seq: seq,
                    offsets: Vec::new(),
                }),
            }
        }
        out
    }

    /// Every sequence this frame reports missing, in order (empty for
    /// frames that name no misses).
    pub fn seqs(&self) -> Vec<u64> {
        match self {
            ControlFrame::Nack { base_seq, offsets } => std::iter::once(*base_seq)
                .chain(offsets.iter().map(|o| base_seq + u64::from(*o)))
                .collect(),
            ControlFrame::Heartbeat { .. } => Vec::new(),
        }
    }

    /// The sequence span `[base, base + span)` this frame covers — the
    /// range a matching retransmit must fall into (the causal checker's
    /// unit of matching). Zero for frames that name no misses.
    pub fn span(&self) -> u64 {
        match self {
            ControlFrame::Nack { offsets, .. } => 1 + offsets.last().map_or(0, |o| u64::from(*o)),
            ControlFrame::Heartbeat { .. } => 0,
        }
    }
}

impl WireCodec for ControlFrame {
    fn encode_wire(&self, buf: &mut Vec<u8>) {
        match self {
            ControlFrame::Nack { base_seq, offsets } => {
                buf.push(TAG_NACK);
                crate::frame::write_u64(buf, *base_seq);
                let top = offsets.last().copied().unwrap_or(0);
                assert!(top <= MAX_NACK_OFFSET, "offset past the bitmap span");
                let bytes = (usize::from(top)).div_ceil(8);
                crate::frame::write_u16(buf, bytes as u16);
                let mut bitmap = vec![0u8; bytes];
                for &o in offsets {
                    assert!(o >= 1, "offset 0 is the base itself");
                    let bit = usize::from(o) - 1;
                    bitmap[bit / 8] |= 1 << (bit % 8);
                }
                buf.extend_from_slice(&bitmap);
            }
            ControlFrame::Heartbeat { top_seq } => {
                buf.push(TAG_HEARTBEAT);
                crate::frame::write_u64(buf, *top_seq);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        match self {
            ControlFrame::Nack { offsets, .. } => {
                let top = offsets.last().copied().unwrap_or(0);
                1 + 8 + 2 + usize::from(top).div_ceil(8)
            }
            ControlFrame::Heartbeat { .. } => 1 + 8,
        }
    }

    fn decode_wire(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            TAG_NACK => {
                let base_seq = r.u64()?;
                let bytes = r.u16()? as usize;
                if bytes > usize::from(MAX_NACK_OFFSET) / 8 {
                    return Err(CodecError::BadTag {
                        what: "nack bitmap length",
                        tag: (bytes / 8).min(255) as u8,
                    });
                }
                let mut offsets = Vec::new();
                let mut last_byte = 0u8;
                for i in 0..bytes {
                    let b = r.u8()?;
                    last_byte = b;
                    for bit in 0..8 {
                        if b & (1 << bit) != 0 {
                            offsets.push((i * 8 + bit + 1) as u16);
                        }
                    }
                }
                // Canonical form: the final bitmap byte must carry a set
                // bit, or the same NACK would have two encodings and the
                // byte-diff determinism gates could be fooled.
                if bytes > 0 && last_byte == 0 {
                    return Err(CodecError::BadTag {
                        what: "nack bitmap padding",
                        tag: 0,
                    });
                }
                Ok(ControlFrame::Nack { base_seq, offsets })
            }
            TAG_HEARTBEAT => Ok(ControlFrame::Heartbeat { top_seq: r.u64()? }),
            tag => Err(CodecError::BadTag {
                what: "control frame",
                tag,
            }),
        }
    }
}

lod_obs::counters! {
    /// Counters the sender half keeps.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct RepairTxStats {
        /// Frames resent in answer to NACKs.
        pub retransmits: u64,
        /// NACKs ignored because the same frame was resent within the
        /// duplicate-suppression window.
        pub suppressed_duplicates: u64,
        /// Sequences given up on (budget exhausted or already evicted).
        pub give_ups: u64,
        /// NACKed sequences no longer (or never) in the buffer.
        pub unbuffered_nacks: u64,
        /// Frames evicted to keep the buffer inside its byte budget.
        pub evicted_frames: u64,
    }
}

/// One frame to put back on the wire in answer to a NACK.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Retransmission {
    /// The frame's sequence number.
    pub seq: u64,
    /// Which retransmission this is, 1-based.
    pub attempt: u32,
    /// The original encoded frame (header + payload); the caller marks
    /// it with [`crate::frame::mark_retransmit`] before sending.
    pub frame: Vec<u8>,
}

/// A sequence the sender will no longer repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GiveUp {
    /// The abandoned sequence.
    pub seq: u64,
    /// Retransmissions actually performed before giving up (0 when the
    /// frame had already left the buffer).
    pub retries: u32,
}

/// What [`RepairTx::on_nack`] decided.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NackResponse {
    /// Frames to resend, in sequence order.
    pub resend: Vec<Retransmission>,
    /// Sequences abandoned by this NACK.
    pub give_ups: Vec<GiveUp>,
}

#[derive(Debug)]
struct SentFrame {
    seq: u64,
    frame: Vec<u8>,
    resends: u32,
    last_resent_at: Option<u64>,
    gave_up: bool,
}

/// Sender half: per-peer byte-budgeted retransmit buffer.
#[derive(Debug)]
pub struct RepairTx {
    cfg: RepairConfig,
    window: VecDeque<SentFrame>,
    buffered_bytes: u64,
    stats: RepairTxStats,
}

impl RepairTx {
    /// An empty buffer under `cfg`'s byte budget.
    pub fn new(cfg: RepairConfig) -> Self {
        cfg.validate();
        Self {
            cfg,
            window: VecDeque::new(),
            buffered_bytes: 0,
            stats: RepairTxStats::default(),
        }
    }

    /// Records an encoded data frame just sent as `seq`, evicting the
    /// oldest frames if the byte budget would overflow. Sequences must
    /// arrive monotonically (they do — the transport assigns them).
    pub fn record(&mut self, seq: u64, frame: &[u8]) {
        debug_assert!(
            self.window.back().is_none_or(|f| f.seq < seq),
            "send sequences are monotonic"
        );
        let len = frame.len() as u64;
        while self.buffered_bytes + len > self.cfg.buffer_bytes {
            let Some(old) = self.window.pop_front() else {
                // A single frame larger than the whole budget: nothing
                // to evict, nothing to keep — it can never be repaired.
                self.stats.evicted_frames += 1;
                return;
            };
            self.buffered_bytes -= old.frame.len() as u64;
            self.stats.evicted_frames += 1;
        }
        self.buffered_bytes += len;
        self.window.push_back(SentFrame {
            seq,
            frame: frame.to_vec(),
            resends: 0,
            last_resent_at: None,
            gave_up: false,
        });
    }

    /// Answers a NACK for `seqs` (sorted) received at `now`: returns the
    /// frames to resend and the sequences given up on. Repeat requests
    /// inside the duplicate-suppression window are dropped; a sequence
    /// whose retry budget is spent is given up exactly once.
    pub fn on_nack(&mut self, now: u64, seqs: &[u64]) -> NackResponse {
        let mut response = NackResponse::default();
        for &seq in seqs {
            let buffered = self.window.iter_mut().find(|f| f.seq == seq);
            let Some(entry) = buffered else {
                // Evicted (or never recorded): the repair window has
                // moved past it — an explicit give-up, not a silent one.
                self.stats.unbuffered_nacks += 1;
                self.stats.give_ups += 1;
                response.give_ups.push(GiveUp { seq, retries: 0 });
                continue;
            };
            if entry.gave_up {
                continue;
            }
            if entry.resends >= self.cfg.retry_budget {
                entry.gave_up = true;
                self.stats.give_ups += 1;
                response.give_ups.push(GiveUp {
                    seq,
                    retries: entry.resends,
                });
                continue;
            }
            if entry
                .last_resent_at
                .is_some_and(|t| now.saturating_sub(t) < self.cfg.min_nack_interval_ticks)
            {
                self.stats.suppressed_duplicates += 1;
                continue;
            }
            entry.resends += 1;
            entry.last_resent_at = Some(now);
            self.stats.retransmits += 1;
            response.resend.push(Retransmission {
                seq,
                attempt: entry.resends,
                frame: entry.frame.clone(),
            });
        }
        response
    }

    /// Bytes currently held for repair.
    pub fn buffered_bytes(&self) -> u64 {
        self.buffered_bytes
    }

    /// Frames currently held for repair.
    pub fn buffered_frames(&self) -> usize {
        self.window.len()
    }

    /// Counters.
    pub fn stats(&self) -> &RepairTxStats {
        &self.stats
    }
}

lod_obs::counters! {
    /// Counters the receiver half keeps.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct RepairRxStats {
        /// NACK control frames emitted.
        pub nacks_sent: u64,
        /// Missing sequences named across those NACKs (re-NACKs counted).
        pub seqs_nacked: u64,
        /// Gaps that closed after at least one NACK — repaired, not skipped.
        pub repaired: u64,
    }
}

/// What one receiver round decided.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RxRound {
    /// NACK frames to send to the peer.
    pub nacks: Vec<ControlFrame>,
    /// The ranges skipped in the reorder buffer, oldest first.
    pub skipped: Vec<SkippedRange>,
}

/// A run `[start, end)` of missing sequences that share one NACK
/// history. A frame filling its middle splits it.
#[derive(Debug, Clone, Copy)]
struct GapRun {
    start: u64,
    end: u64,
    nacks: u32,
    last_nack_at: u64,
}

impl GapRun {
    fn len(&self) -> u64 {
        self.end - self.start
    }
}

/// Receiver half: gap tracking, adaptive NACK timers, skip authorization.
#[derive(Debug)]
pub struct RepairRx {
    cfg: RepairConfig,
    /// Smoothed one-way path delay in ticks (EWMA, gain 1/8 — the
    /// classic SRTT filter), fed by frame send timestamps.
    srtt: u64,
    /// Highest data sequence the peer is known to have sent (admitted
    /// frames and heartbeat advertisements inside the receive window) —
    /// the reference that makes tail loss detectable.
    top: u64,
    /// The open gaps, sorted and disjoint.
    gaps: Vec<GapRun>,
    stats: RepairRxStats,
}

impl RepairRx {
    /// A fresh receiver seeded with `cfg.initial_rtt_ticks`.
    pub fn new(cfg: RepairConfig) -> Self {
        cfg.validate();
        Self {
            srtt: cfg.initial_rtt_ticks,
            cfg,
            top: 0,
            gaps: Vec::new(),
            stats: RepairRxStats::default(),
        }
    }

    /// Folds one path-delay sample (receive tick minus the frame's send
    /// timestamp) into the smoothed estimate.
    pub fn observe_delay(&mut self, sample_ticks: u64) {
        // srtt += (sample - srtt) / 8, in integer arithmetic that cannot
        // underflow. A sample of 0 still decays the estimate.
        self.srtt = self.srtt - self.srtt / 8 + sample_ticks / 8;
        self.srtt = self.srtt.max(1);
    }

    /// Notes that the peer sent data sequence `seq` (a frame carried it
    /// or a heartbeat advertised it). A sequence at or past `window_end`,
    /// the receive window's end, is ignored: it may be corrupt or
    /// forged, and no round names a sequence past the window.
    pub fn observe_top(&mut self, seq: u64, window_end: u64) {
        if seq < window_end {
            self.top = self.top.max(seq);
        }
    }

    /// The smoothed path-delay estimate, in ticks.
    pub fn srtt(&self) -> u64 {
        self.srtt
    }

    /// The adaptive NACK interval: one full round trip (twice the
    /// one-way estimate), floored by the configured minimum.
    pub fn nack_interval(&self) -> u64 {
        (self.srtt * 2).max(self.cfg.min_nack_interval_ticks)
    }

    /// One receiver round at `now` over the peer's reorder buffer. The
    /// open gaps are the buffer's holes plus the tail up to the observed
    /// top. Fresh or re-due gaps get NACKed; then, from the front, every
    /// gap whose budget is spent and whose final retransmit had one more
    /// interval to land is skipped, releasing the frames behind it into
    /// `released`. With no gap left open, the buffer may follow a peer
    /// that moved past the window ([`ReorderBuffer::skip_beyond`], a
    /// range skipped after no NACK).
    pub fn round<T>(
        &mut self,
        now: u64,
        buffer: &mut ReorderBuffer<T>,
        released: &mut Vec<T>,
    ) -> RxRound {
        let tail = buffer.horizon()..self.top + 1;
        let nacks = self.nack_due(now, buffer.holes().chain(Some(tail)));
        let (budget, interval) = (self.cfg.retry_budget, self.nack_interval());
        let mut skipped = Vec::new();
        for run in &self.gaps {
            if run.start != buffer.expected()
                || run.nacks < budget
                || now.saturating_sub(run.last_nack_at) < interval
            {
                break;
            }
            skipped.push(buffer.skip_to(run.end, run.nacks, released));
        }
        self.gaps.drain(..skipped.len());
        if self.gaps.is_empty() {
            skipped.extend(buffer.skip_beyond(now, released));
        }
        RxRound { nacks, skipped }
    }

    /// The NACKs [`Self::round`] would send at `now` for `missing`
    /// (sorted, distinct), without skipping anything.
    pub fn poll(&mut self, now: u64, missing: &[u64]) -> Vec<ControlFrame> {
        let runs = missing.chunk_by(|a, b| a + 1 == *b);
        self.nack_due(now, runs.map(|run| run[0]..run[run.len() - 1] + 1))
    }

    /// Rebuilds the gap ledger from `missing` (sorted, disjoint ranges)
    /// and returns the NACKs due at `now`. A missing sequence keeps the
    /// history of the run it was in and a new one starts with none; a
    /// NACKed sequence no longer missing was repaired. A run is NACKed
    /// when it is fresh or its interval elapsed with budget left.
    fn nack_due(
        &mut self,
        now: u64,
        missing: impl Iterator<Item = Range<u64>>,
    ) -> Vec<ControlFrame> {
        let (interval, budget) = (self.nack_interval(), self.cfg.retry_budget);
        let old = std::mem::take(&mut self.gaps);
        // Every run was NACKed when it opened, so every sequence of the
        // old ledger that is not carried over below was repaired.
        let mut repaired: u64 = old.iter().map(GapRun::len).sum();
        let (mut i, mut due) = (0, Vec::new());
        for hole in missing {
            let mut at = hole.start;
            while at < hole.end {
                while old.get(i).is_some_and(|run| run.end <= at) {
                    i += 1;
                }
                let mut run = match old.get(i) {
                    Some(run) if run.start <= at => GapRun {
                        start: at,
                        end: run.end.min(hole.end),
                        ..*run
                    },
                    next => GapRun {
                        start: at,
                        end: next.map_or(hole.end, |run| run.start.min(hole.end)),
                        nacks: 0,
                        last_nack_at: 0,
                    },
                };
                if run.nacks > 0 {
                    repaired -= run.len();
                }
                at = run.end;
                if run.nacks < budget
                    && (run.nacks == 0 || now.saturating_sub(run.last_nack_at) >= interval)
                {
                    run.nacks += 1;
                    run.last_nack_at = now;
                    self.stats.seqs_nacked += run.len();
                    due.push(run.start..run.end);
                }
                // Neighbours with one history are one run.
                match self.gaps.last_mut() {
                    Some(last)
                        if last.end == run.start
                            && (last.nacks, last.last_nack_at) == (run.nacks, run.last_nack_at) =>
                    {
                        last.end = run.end;
                    }
                    _ => self.gaps.push(run),
                }
            }
        }
        self.stats.repaired += repaired;
        let nacks = ControlFrame::build_nacks(due);
        self.stats.nacks_sent += nacks.len() as u64;
        nacks
    }

    /// Counters.
    pub fn stats(&self) -> &RepairRxStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame;

    fn cfg() -> RepairConfig {
        RepairConfig {
            buffer_bytes: 4096,
            retry_budget: 2,
            initial_rtt_ticks: 1_000,
            min_nack_interval_ticks: 100,
        }
    }

    fn frame(seq: u64, len: usize) -> Vec<u8> {
        encode_frame(seq, 0, false, &vec![0xAB; len])
    }

    #[test]
    fn tx_answers_a_nack_with_the_original_frame() {
        let mut tx = RepairTx::new(cfg());
        let f = frame(1, 64);
        tx.record(1, &f);
        let r = tx.on_nack(500, &[1]);
        assert_eq!(r.resend.len(), 1);
        assert_eq!(r.resend[0].seq, 1);
        assert_eq!(r.resend[0].attempt, 1);
        assert_eq!(r.resend[0].frame, f);
        assert!(r.give_ups.is_empty());
        assert_eq!(tx.stats().retransmits, 1);
    }

    #[test]
    fn tx_suppresses_duplicate_nacks_inside_the_window() {
        let mut tx = RepairTx::new(cfg());
        tx.record(1, &frame(1, 64));
        assert_eq!(tx.on_nack(500, &[1]).resend.len(), 1);
        // 50 ticks later: inside the 100-tick suppression window.
        assert!(tx.on_nack(550, &[1]).resend.is_empty());
        assert_eq!(tx.stats().suppressed_duplicates, 1);
        // Past the window: the second (and last) budgeted attempt.
        assert_eq!(tx.on_nack(700, &[1]).resend.len(), 1);
        assert_eq!(tx.stats().retransmits, 2);
    }

    #[test]
    fn tx_gives_up_exactly_once_after_the_budget() {
        let mut tx = RepairTx::new(cfg());
        tx.record(1, &frame(1, 64));
        tx.on_nack(100, &[1]);
        tx.on_nack(300, &[1]); // budget of 2 now spent
        let r = tx.on_nack(500, &[1]);
        assert!(r.resend.is_empty());
        assert_eq!(r.give_ups, vec![GiveUp { seq: 1, retries: 2 }]);
        // Further NACKs for the same seq stay silent.
        let r = tx.on_nack(700, &[1]);
        assert!(r.resend.is_empty() && r.give_ups.is_empty());
        assert_eq!(tx.stats().give_ups, 1);
    }

    #[test]
    fn tx_byte_budget_evicts_oldest_and_evicted_nacks_give_up() {
        let mut tx = RepairTx::new(RepairConfig {
            buffer_bytes: 400,
            ..cfg()
        });
        // ~88 bytes each (24 header + 64 payload): the 5th evicts the 1st.
        for seq in 1..=5 {
            tx.record(seq, &frame(seq, 64));
        }
        assert!(tx.buffered_frames() < 5);
        assert!(tx.buffered_bytes() <= 400);
        assert!(tx.stats().evicted_frames >= 1);
        let r = tx.on_nack(100, &[1]);
        assert!(r.resend.is_empty());
        assert_eq!(r.give_ups, vec![GiveUp { seq: 1, retries: 0 }]);
        assert_eq!(tx.stats().unbuffered_nacks, 1);
    }

    #[test]
    fn tx_rejects_a_frame_larger_than_the_whole_budget() {
        let mut tx = RepairTx::new(RepairConfig {
            buffer_bytes: 64,
            ..cfg()
        });
        tx.record(1, &frame(1, 200));
        assert_eq!(tx.buffered_frames(), 0);
        assert_eq!(tx.stats().evicted_frames, 1);
    }

    #[test]
    fn rx_nacks_a_fresh_gap_immediately_and_renacks_on_the_interval() {
        let mut rx = RepairRx::new(cfg());
        let nacks = rx.poll(0, &[2, 3]);
        assert_eq!(nacks.len(), 1);
        assert_eq!(nacks[0].seqs(), vec![2, 3]);
        // Before the interval: silence.
        assert!(rx.poll(100, &[2, 3]).is_empty());
        // nack_interval = 2 * srtt = 2000 ticks here.
        let nacks = rx.poll(2_000, &[2, 3]);
        assert_eq!(nacks.len(), 1, "re-NACK after the adaptive interval");
        assert_eq!(rx.stats().seqs_nacked, 4);
    }

    /// A reorder buffer that delivered `seqs[0]` and holds the rest.
    fn buffer(seqs: &[u64]) -> ReorderBuffer<u64> {
        let mut b = ReorderBuffer::new(u64::MAX);
        for &seq in seqs {
            b.accept(seq, 0, seq);
        }
        b
    }

    #[test]
    fn rx_skip_authorization_waits_for_budget_plus_grace() {
        let mut rx = RepairRx::new(cfg());
        let mut b = buffer(&[1, 3]);
        let mut released = Vec::new();
        assert_eq!(rx.round(0, &mut b, &mut released).nacks.len(), 1); // nack 1
                                                                       // NACK 2 spends the budget.
        assert_eq!(rx.round(2_000, &mut b, &mut released).nacks.len(), 1);
        // Immediately after the last NACK: neither NACKed nor skipped.
        assert_eq!(rx.round(2_100, &mut b, &mut released), RxRound::default());
        let round = rx.round(4_100, &mut b, &mut released);
        assert_eq!(
            round.skipped,
            vec![SkippedRange {
                first: 2,
                count: 1,
                nacks: 2
            }]
        );
        assert!(round.nacks.is_empty());
        assert_eq!(released, vec![3]);
        assert_eq!(b.expected(), 4);
        assert_eq!(rx.gaps.len(), 0);
    }

    #[test]
    fn rx_counts_a_closed_gap_as_repaired() {
        let mut rx = RepairRx::new(cfg());
        rx.poll(0, &[2]);
        assert!(rx.poll(500, &[]).is_empty()); // gap closed by a retransmit
        assert_eq!(rx.stats().repaired, 1);
    }

    #[test]
    fn rx_a_gap_run_splits_when_a_frame_fills_its_middle() {
        let mut rx = RepairRx::new(cfg());
        let mut b = buffer(&[1, 10]);
        let mut released = Vec::new();
        let round = rx.round(0, &mut b, &mut released);
        assert_eq!(round.nacks.len(), 1);
        assert_eq!(round.nacks[0].seqs(), (2..10).collect::<Vec<_>>());
        assert_eq!(rx.gaps.len(), 1);
        // A retransmit of 5 lands: two runs, one history, one repaired seq.
        b.accept(5, 100, 5);
        assert!(rx.round(100, &mut b, &mut released).nacks.is_empty());
        assert_eq!(rx.gaps.len(), 2);
        assert_eq!(rx.stats().repaired, 1);
        // Both halves come due together and share one NACK frame.
        let round = rx.round(2_000, &mut b, &mut released);
        assert_eq!(round.nacks.len(), 1);
        assert_eq!(round.nacks[0].seqs(), vec![2, 3, 4, 6, 7, 8, 9]);
        assert_eq!(rx.stats().seqs_nacked, 8 + 7);
        // Once the budget is spent both halves go in one round, and the
        // frames behind them are released in order.
        let round = rx.round(4_000, &mut b, &mut released);
        let skipped: Vec<(u64, u64)> = round.skipped.iter().map(|r| (r.first, r.count)).collect();
        assert_eq!(skipped, vec![(2, 3), (6, 4)]);
        assert_eq!(released, vec![5, 10]);
        assert!(released.is_sorted());
    }

    #[test]
    fn rx_a_gap_wider_than_one_nack_is_skipped_as_one_range() {
        let mut rx = RepairRx::new(cfg());
        let mut b = buffer(&[1, 600]);
        let mut released = Vec::new();
        let round = rx.round(0, &mut b, &mut released);
        // 598 missing: one NACK spans 513 sequences, the second the rest.
        let named: Vec<u64> = round.nacks.iter().flat_map(ControlFrame::seqs).collect();
        assert_eq!(round.nacks.len(), 2);
        assert_eq!(named, (2..600).collect::<Vec<_>>());
        rx.round(2_000, &mut b, &mut released);
        let round = rx.round(4_000, &mut b, &mut released);
        assert_eq!(
            round.skipped,
            vec![SkippedRange {
                first: 2,
                count: 598,
                nacks: 2
            }]
        );
        assert_eq!(released, vec![600]);
    }

    #[test]
    fn rx_the_tail_follows_the_top_inside_the_receive_window() {
        let mut rx = RepairRx::new(cfg());
        let mut b = buffer(&[1]);
        let mut released = Vec::new();
        // A heartbeat advertising a top past the window names nothing; one
        // inside it names the tail up to it.
        rx.observe_top(1 << 40, b.window_end());
        assert_eq!(rx.round(0, &mut b, &mut released), RxRound::default());
        rx.observe_top(b.window_end() - 1, b.window_end());
        let round = rx.round(0, &mut b, &mut released);
        let named = round.nacks.iter().map(|n| n.seqs().len()).sum::<usize>();
        assert_eq!(named as u64, crate::reorder::RECEIVE_WINDOW);
        assert_eq!(round.nacks.len(), 8, "ceil(4096 / 513) frames");
        rx.round(2_000, &mut b, &mut released);
        let round = rx.round(4_000, &mut b, &mut released);
        assert_eq!(round.skipped.len(), 1);
        assert_eq!(round.skipped[0].count, crate::reorder::RECEIVE_WINDOW);
        assert_eq!(rx.round(10_000, &mut b, &mut released), RxRound::default());
        assert_eq!(rx.gaps.len(), 0);
    }

    #[test]
    fn rx_follows_a_peer_past_the_window_once_no_gap_is_open() {
        let mut rx = RepairRx::new(cfg());
        let mut b = ReorderBuffer::new(10_000);
        let mut released = Vec::new();
        for (seq, at) in [(1, 0), (3, 0), (5_000, 100)] {
            released.extend(b.accept(seq, at, seq));
            rx.observe_top(seq, b.window_end());
        }
        assert_eq!(released, vec![1]);
        // The gap inside the window is NACKed and skipped by its budget;
        // the flush deadline never touches it.
        rx.round(0, &mut b, &mut released);
        rx.round(2_000, &mut b, &mut released);
        let round = rx.round(4_000, &mut b, &mut released);
        assert_eq!(
            round.skipped,
            vec![SkippedRange {
                first: 2,
                count: 1,
                nacks: 2
            }]
        );
        assert_eq!(released, vec![1, 3]);
        // Seq 5000 never opened a tail; it waits out the deadline and is
        // then reached in one range, skipped after no NACK.
        assert_eq!(rx.round(10_099, &mut b, &mut released), RxRound::default());
        let round = rx.round(10_100, &mut b, &mut released);
        assert!(round.nacks.is_empty());
        assert_eq!(
            round.skipped,
            vec![SkippedRange {
                first: 4,
                count: 4_996,
                nacks: 0
            }]
        );
        assert_eq!(released, vec![1, 3, 5_000]);
    }

    #[test]
    fn rx_srtt_tracks_samples_and_drives_the_interval() {
        let mut rx = RepairRx::new(cfg());
        assert_eq!(rx.srtt(), 1_000);
        for _ in 0..64 {
            rx.observe_delay(8_000);
        }
        assert!(
            rx.srtt() > 6_000,
            "estimate converges upward: {}",
            rx.srtt()
        );
        assert_eq!(rx.nack_interval(), rx.srtt() * 2);
        let mut fast = RepairRx::new(cfg());
        for _ in 0..64 {
            fast.observe_delay(10);
        }
        assert_eq!(
            fast.nack_interval(),
            100,
            "floor holds when the path is faster than the minimum"
        );
    }

    #[test]
    fn build_nacks_splits_past_the_bitmap_span() {
        let last = 10 + u64::from(MAX_NACK_OFFSET);
        let frames = ControlFrame::build_nacks([10..12, last..last + 1, 2_000..2_001]);
        assert_eq!(frames.len(), 2);
        assert_eq!(
            frames[0].seqs(),
            vec![10, 11, 10 + u64::from(MAX_NACK_OFFSET)]
        );
        assert_eq!(frames[1].seqs(), vec![2_000]);
        assert_eq!(frames[0].span(), 1 + u64::from(MAX_NACK_OFFSET));
        assert_eq!(frames[1].span(), 1);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn round_trip(c: &ControlFrame) -> ControlFrame {
            ControlFrame::from_frame_payload(&c.to_frame_payload()).expect("round trip")
        }

        fn arb_offsets() -> impl Strategy<Value = Vec<u16>> {
            proptest::collection::vec(1u16..=MAX_NACK_OFFSET, 0..24).prop_map(|mut v| {
                v.sort_unstable();
                v.dedup();
                v
            })
        }

        fn arb_control() -> impl Strategy<Value = ControlFrame> {
            prop_oneof![
                (any::<u64>(), arb_offsets())
                    .prop_map(|(base_seq, offsets)| ControlFrame::Nack { base_seq, offsets }),
                any::<u64>().prop_map(|top_seq| ControlFrame::Heartbeat { top_seq }),
            ]
        }

        proptest! {
            #[test]
            fn every_control_variant_round_trips(c in arb_control()) {
                prop_assert_eq!(round_trip(&c), c);
            }

            #[test]
            fn encoded_len_is_exact_and_allocated_once(c in arb_control()) {
                let bytes = c.to_frame_payload();
                prop_assert_eq!(c.encoded_len(), bytes.len());
                prop_assert_eq!(bytes.capacity(), bytes.len());
            }

            #[test]
            fn decoder_never_panics_on_junk(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
                let _ = ControlFrame::from_frame_payload(&bytes);
            }

            #[test]
            fn truncation_is_rejected_at_every_cut(c in arb_control()) {
                let bytes = c.to_frame_payload();
                for cut in 0..bytes.len() {
                    prop_assert!(
                        ControlFrame::from_frame_payload(&bytes[..cut]).is_err(),
                        "cut at {} must not decode", cut
                    );
                }
            }
        }

        #[test]
        fn bitmap_boundary_sizes_round_trip() {
            // 0/1/63/64/65 additional gap entries: empty bitmap, one
            // byte, and the 8-byte (64-bit) word boundary on both sides.
            for n in [0u16, 1, 63, 64, 65] {
                let offsets: Vec<u16> = (1..=n).collect();
                let c = ControlFrame::Nack {
                    base_seq: 77,
                    offsets: offsets.clone(),
                };
                assert_eq!(round_trip(&c), c, "{n} entries");
                assert_eq!(c.seqs().len(), usize::from(n) + 1);
                let encoded = c.to_frame_payload();
                // tag + base + u16 length + ceil(n/8) bitmap bytes.
                assert_eq!(encoded.len(), 1 + 8 + 2 + usize::from(n).div_ceil(8));
            }
        }

        #[test]
        fn noncanonical_padding_and_bad_tags_are_rejected() {
            // A one-byte bitmap with no set bit: same meaning as an
            // empty bitmap, so the decoder must refuse it.
            let mut payload = Vec::new();
            payload.push(TAG_NACK);
            crate::frame::write_u64(&mut payload, 5);
            crate::frame::write_u16(&mut payload, 1);
            payload.push(0);
            assert!(matches!(
                ControlFrame::from_frame_payload(&payload),
                Err(CodecError::BadTag {
                    what: "nack bitmap padding",
                    ..
                })
            ));
            assert!(matches!(
                ControlFrame::from_frame_payload(&[9]),
                Err(CodecError::BadTag {
                    what: "control frame",
                    tag: 9
                })
            ));
            // A declared bitmap longer than the span cap.
            let mut long = Vec::new();
            long.push(TAG_NACK);
            crate::frame::write_u64(&mut long, 5);
            crate::frame::write_u16(&mut long, (MAX_NACK_OFFSET / 8) + 1);
            long.extend_from_slice(&vec![0xFF; usize::from(MAX_NACK_OFFSET / 8) + 1]);
            assert!(ControlFrame::from_frame_payload(&long).is_err());
        }

        #[test]
        fn trailing_garbage_is_rejected() {
            let mut bytes = ControlFrame::Nack {
                base_seq: 1,
                offsets: vec![],
            }
            .to_frame_payload();
            bytes.push(0);
            assert_eq!(
                ControlFrame::from_frame_payload(&bytes).unwrap_err(),
                CodecError::TrailingBytes(1)
            );
        }
    }
}

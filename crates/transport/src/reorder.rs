//! Receiver-side re-sequencing of out-of-order datagrams.
//!
//! UDP reorders; the state machines upstairs assume in-order delivery
//! per sender (the simulator's links are FIFO). A [`ReorderBuffer`]
//! restores that contract per peer: frames at the expected sequence
//! number pass straight through, frames from the future wait in a
//! `BTreeMap` until the gap fills, and a gap that stays open longer than
//! `flush_after` ticks is declared lost — the buffer skips ahead rather
//! than head-of-line-block the lecture behind one dropped datagram (the
//! retry layers above recover the content). Loss is named in ranges:
//! [`ReorderBuffer::holes`] lists the open gaps, and a flush reports
//! each gap it walks past as one range.

use std::collections::BTreeMap;
use std::ops::Range;

/// The receive window, in sequences: only `[expected, expected +
/// RECEIVE_WINDOW)` can hold gaps. The largest lead of a legitimate
/// frame over `expected` is about a hundred sequences (q16's chaos
/// profile). A frame further ahead waits apart (one window's span of
/// them) until a frame inside the window drops it as corrupt or forged,
/// or the window stays quiet past the flush deadline and the buffer
/// skips to it ([`ReorderBuffer::skip_beyond`]).
pub const RECEIVE_WINDOW: u64 = 4_096;

lod_obs::counters! {
    /// Counters a [`ReorderBuffer`] keeps about its traffic. Merged across
    /// peers they describe one transport, across transports a deployment.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ReorderStats {
        /// Frames handed to the consumer, in order.
        pub delivered: u64,
        /// Frames that arrived ahead of a gap and had to wait.
        pub out_of_order: u64,
        /// Frames dropped as duplicates or late (seq already passed).
        pub duplicates: u64,
        /// Frames that arrived at or past the receive window.
        pub out_of_window: u64 => sparse_counter "transport_out_of_window",
        /// Sequence numbers abandoned by gap flushes or authorized skips.
        pub skipped_seqs: u64 => gauge "transport_skipped_seqs",
        /// High-water mark of frames waiting at once.
        pub max_depth: usize max => gauge "transport_reorder_depth_peak",
    }
}

/// A run of sequences a receiver walked past: `count` sequences from
/// `first` on, abandoned after `nacks` NACKs (0 for a timeout flush).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkippedRange {
    /// The first skipped sequence.
    pub first: u64,
    /// How many sequences were skipped.
    pub count: u64,
    /// NACKs the range absorbed before the skip.
    pub nacks: u32,
}

/// Per-peer re-sequencer keyed on frame sequence numbers (which start
/// at 1 on every (sender, receiver) pair).
#[derive(Debug)]
pub struct ReorderBuffer<T> {
    next_seq: u64,
    /// Frames waiting behind a gap, with their arrival ticks.
    pending: BTreeMap<u64, (u64, T)>,
    /// Frames past the window that arrived since the last one inside it.
    beyond: BTreeMap<u64, (u64, T)>,
    flush_after: u64,
    stats: ReorderStats,
}

impl<T> ReorderBuffer<T> {
    /// A buffer expecting sequence 1 first, declaring a gap lost after
    /// `flush_after` ticks.
    pub fn new(flush_after: u64) -> Self {
        Self {
            next_seq: 1,
            pending: BTreeMap::new(),
            beyond: BTreeMap::new(),
            flush_after,
            stats: ReorderStats::default(),
        }
    }

    /// Accepts a frame received at `now` and returns every frame that is
    /// now deliverable in sequence order (possibly empty, possibly more
    /// than one when this frame fills a gap). A frame past the receive
    /// window waits apart; a frame inside it drops those.
    pub fn accept(&mut self, seq: u64, now: u64, item: T) -> Vec<T> {
        if seq < self.next_seq {
            self.stats.duplicates += 1;
            return Vec::new();
        }
        if seq >= self.window_end() {
            self.stats.out_of_window += 1;
            self.beyond.insert(seq, (now, item));
            if let Some((&lowest, _)) = self.beyond.first_key_value() {
                self.beyond
                    .split_off(&lowest.saturating_add(RECEIVE_WINDOW));
            }
            self.stats.max_depth = self.stats.max_depth.max(self.depth());
            return Vec::new();
        }
        self.beyond.clear();
        if seq == self.next_seq {
            self.next_seq += 1;
            self.stats.delivered += 1;
            let mut out = vec![item];
            self.drain_ready(&mut out);
            return out;
        }
        if self.pending.insert(seq, (now, item)).is_some() {
            self.stats.duplicates += 1;
        } else {
            self.stats.out_of_order += 1;
        }
        self.stats.max_depth = self.stats.max_depth.max(self.depth());
        Vec::new()
    }

    /// Declares gaps older than `flush_after` lost and releases whatever
    /// was waiting behind them, in sequence order, then follows a peer
    /// past the window ([`Self::skip_beyond`]). Appends each gap it
    /// walks past to `skipped`, oldest first; a call that skips nothing
    /// costs nothing per missing sequence.
    pub fn flush_due(&mut self, now: u64, skipped: &mut Vec<SkippedRange>) -> Vec<T> {
        let mut out = Vec::new();
        while let Some((&seq, entry)) = self.pending.first_key_value() {
            debug_assert!(seq > self.next_seq, "in-order frames never wait");
            if entry.0.saturating_add(self.flush_after) > now {
                break;
            }
            skipped.push(self.skip_to(seq, 0, &mut out));
        }
        skipped.extend(self.skip_beyond(now, &mut out));
        out
    }

    /// With nothing waiting inside the window, once the lowest frame
    /// past it is `flush_after` ticks old the peer lost more than a
    /// window: skips to that frame, moves the frames past the window
    /// inside it, and returns the range walked past. Repair never names
    /// a sequence past the window, so this deadline holds under repair.
    pub fn skip_beyond(&mut self, now: u64, out: &mut Vec<T>) -> Option<SkippedRange> {
        let (&seq, &(at, _)) = self.beyond.first_key_value()?;
        if !self.pending.is_empty() || at.saturating_add(self.flush_after) > now {
            return None;
        }
        self.pending.append(&mut self.beyond);
        Some(self.skip_to(seq, 0, out))
    }

    /// The open gaps, oldest first: each run of sequences below the
    /// newest waiting frame that was neither delivered nor waits. Empty
    /// when nothing waits.
    pub fn holes(&self) -> impl Iterator<Item = Range<u64>> + '_ {
        let mut cursor = self.next_seq;
        self.pending.keys().filter_map(move |&seq| {
            let hole = cursor..seq;
            cursor = seq + 1;
            (!hole.is_empty()).then_some(hole)
        })
    }

    /// Abandons every sequence before `seq` and releases whatever was
    /// waiting behind them: [`Self::flush_due`] past a due gap, or the
    /// repair round once a gap's retry budget is exhausted (the flush is
    /// bypassed when repair runs). Returns the range walked past, booked
    /// against the `nacks` it absorbed.
    pub fn skip_to(&mut self, seq: u64, nacks: u32, out: &mut Vec<T>) -> SkippedRange {
        let (first, count) = (self.next_seq, seq.saturating_sub(self.next_seq));
        if count > 0 {
            debug_assert!(
                self.pending
                    .first_key_value()
                    .is_none_or(|(&s, _)| seq <= s),
                "skipping past a frame that actually arrived"
            );
            self.stats.skipped_seqs += count;
            self.next_seq = seq;
            self.drain_ready(out);
        }
        SkippedRange {
            first,
            count,
            nacks,
        }
    }

    fn drain_ready(&mut self, out: &mut Vec<T>) {
        while let Some(entry) = self.pending.remove(&self.next_seq) {
            self.next_seq += 1;
            self.stats.delivered += 1;
            out.push(entry.1);
        }
    }

    /// Frames currently waiting, behind a gap or past the window.
    pub fn depth(&self) -> usize {
        self.pending.len() + self.beyond.len()
    }

    /// The next sequence number the consumer will see.
    pub fn expected(&self) -> u64 {
        self.next_seq
    }

    /// One past the last sequence the receive window admits.
    pub fn window_end(&self) -> u64 {
        self.next_seq.saturating_add(RECEIVE_WINDOW)
    }

    /// One past the highest sequence this buffer knows about — every
    /// sequence below it was delivered, is pending, or lies in one of
    /// [`Self::holes`]. Sequences from here up to a peer-advertised top
    /// are *tail* losses no later arrival will ever expose.
    pub fn horizon(&self) -> u64 {
        self.pending
            .last_key_value()
            .map_or(self.next_seq, |(&seq, _)| seq + 1)
    }

    /// Traffic counters.
    pub fn stats(&self) -> &ReorderStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranges(skipped: &[SkippedRange]) -> Vec<Range<u64>> {
        skipped.iter().map(|r| r.first..r.first + r.count).collect()
    }

    #[test]
    fn in_order_frames_pass_straight_through() {
        let mut b: ReorderBuffer<u64> = ReorderBuffer::new(1_000);
        for seq in 1..=5 {
            assert_eq!(b.accept(seq, 0, seq * 10), vec![seq * 10]);
        }
        assert_eq!(b.depth(), 0);
        assert_eq!(b.stats().delivered, 5);
        assert_eq!(b.stats().out_of_order, 0);
    }

    #[test]
    fn a_gap_fill_releases_the_whole_run() {
        let mut b: ReorderBuffer<u64> = ReorderBuffer::new(1_000);
        assert_eq!(b.accept(2, 0, 20), Vec::<u64>::new());
        assert_eq!(b.accept(4, 0, 40), Vec::<u64>::new());
        assert_eq!(b.accept(3, 0, 30), Vec::<u64>::new());
        assert_eq!(b.depth(), 3);
        assert_eq!(b.accept(1, 0, 10), vec![10, 20, 30, 40]);
        assert_eq!(b.stats().max_depth, 3);
        assert_eq!(b.stats().out_of_order, 3);
        assert_eq!(b.expected(), 5);
    }

    #[test]
    fn duplicates_and_late_frames_are_dropped() {
        let mut b: ReorderBuffer<u64> = ReorderBuffer::new(1_000);
        assert_eq!(b.accept(1, 0, 10), vec![10]);
        assert_eq!(b.accept(1, 0, 10), Vec::<u64>::new()); // late
        assert_eq!(b.accept(3, 0, 30), Vec::<u64>::new());
        assert_eq!(b.accept(3, 0, 30), Vec::<u64>::new()); // duplicate wait
        assert_eq!(b.stats().duplicates, 2);
    }

    #[test]
    fn a_stale_gap_is_skipped_after_the_flush_timeout() {
        let mut b: ReorderBuffer<u64> = ReorderBuffer::new(1_000);
        assert_eq!(b.accept(1, 0, 10), vec![10]);
        // Seq 2 is lost; 3 and 4 wait behind the gap.
        assert_eq!(b.accept(3, 100, 30), Vec::<u64>::new());
        assert_eq!(b.accept(4, 120, 40), Vec::<u64>::new());
        let mut gaps = Vec::new();
        assert_eq!(b.flush_due(900, &mut gaps), Vec::<u64>::new()); // not yet due
        assert!(gaps.is_empty());
        assert_eq!(b.flush_due(1_100, &mut gaps), vec![30, 40]);
        assert_eq!(ranges(&gaps), vec![2..3]);
        assert_eq!(b.stats().skipped_seqs, 1);
        assert_eq!(b.expected(), 5);
        // Seq 2 finally limps in: it is late now.
        assert_eq!(b.accept(2, 1_200, 20), Vec::<u64>::new());
        assert_eq!(b.stats().duplicates, 1);
    }

    #[test]
    fn flush_deadline_boundary_is_exact() {
        // The gap is declared lost exactly at timestamp + flush_after:
        // `flush_due` holds while `timestamp + flush_after > now` and
        // fires the moment equality is reached.
        let mut b: ReorderBuffer<u64> = ReorderBuffer::new(1_000);
        assert_eq!(b.accept(2, 100, 20), Vec::<u64>::new());
        let mut gaps = Vec::new();
        assert_eq!(
            b.flush_due(1_099, &mut gaps),
            Vec::<u64>::new(),
            "one tick early"
        );
        assert_eq!(b.stats().skipped_seqs, 0);
        assert_eq!(
            b.flush_due(1_100, &mut gaps),
            vec![20],
            "exactly at the deadline"
        );
        assert_eq!(b.stats().skipped_seqs, 1);
    }

    #[test]
    fn a_flush_names_the_gaps_it_skips_and_no_others() {
        let mut b: ReorderBuffer<u64> = ReorderBuffer::new(1_000);
        assert_eq!(b.accept(1, 0, 10), vec![10]);
        assert_eq!(b.accept(3, 0, 30), Vec::<u64>::new());
        assert_eq!(b.accept(6, 0, 60), Vec::<u64>::new());
        assert_eq!(b.accept(9, 500, 90), Vec::<u64>::new());
        let holes: Vec<_> = b.holes().collect();
        let mut gaps = Vec::new();
        // The gaps before 3 and 6 are due; the one before 9 is not.
        assert_eq!(b.flush_due(1_000, &mut gaps), vec![30, 60]);
        assert_eq!(ranges(&gaps), holes[..2]);
        assert_eq!(holes[..2], [2..3, 4..6]);
        assert_eq!(b.stats().skipped_seqs, 3);
        assert_eq!(b.holes().collect::<Vec<_>>(), vec![7..9]);
    }

    #[test]
    fn holes_are_the_open_gaps_as_ranges() {
        let mut b: ReorderBuffer<u64> = ReorderBuffer::new(1_000);
        assert_eq!(b.holes().count(), 0);
        assert_eq!(b.accept(1, 0, 10), vec![10]);
        assert_eq!(b.accept(4, 0, 40), Vec::<u64>::new());
        assert_eq!(b.accept(5, 0, 50), Vec::<u64>::new());
        assert_eq!(b.accept(8, 0, 80), Vec::<u64>::new());
        // Adjacent waiting frames leave no empty hole between them.
        assert_eq!(b.holes().collect::<Vec<_>>(), vec![2..4, 6..8]);
        assert_eq!(b.horizon(), 9);
    }

    #[test]
    fn the_receive_window_bounds_what_may_wait() {
        let mut b: ReorderBuffer<u64> = ReorderBuffer::new(1_000);
        assert_eq!(b.accept(1, 0, 10), vec![10]);
        assert_eq!(b.window_end(), 2 + RECEIVE_WINDOW);
        // The last admitted sequence waits in a gap; the first past it
        // waits apart, and a far future one, over a window beyond that,
        // is dropped. Neither leaves a hole behind.
        let last = b.window_end() - 1;
        assert_eq!(b.accept(last, 0, 1), Vec::<u64>::new());
        assert_eq!(b.accept(last + 1, 0, 2), Vec::<u64>::new());
        assert_eq!(b.accept(1 << 40, 0, 3), Vec::<u64>::new());
        assert_eq!(b.stats().out_of_window, 2);
        assert_eq!((b.pending.len(), b.beyond.len()), (1, 1));
        assert_eq!(b.holes().collect::<Vec<_>>(), vec![2..last]);
        // However the peer spreads its sequences, no more than a window
        // waits inside the window and no more than one past it.
        for seq in (2..last + 100).chain(last..last + 3 * RECEIVE_WINDOW) {
            b.accept(seq + 1, 0, seq);
            assert!(b.pending.len() <= RECEIVE_WINDOW as usize);
            assert!(b.beyond.len() <= RECEIVE_WINDOW as usize);
        }
        assert!(b.stats().max_depth <= 2 * RECEIVE_WINDOW as usize);
    }

    #[test]
    fn a_frame_inside_the_window_drops_those_past_it() {
        let mut b: ReorderBuffer<u64> = ReorderBuffer::new(1_000);
        assert_eq!(b.accept(1, 0, 10), vec![10]);
        assert_eq!(b.accept(1 << 40, 0, 0), Vec::<u64>::new());
        assert_eq!(b.depth(), 1);
        // The peer is still inside the window: seq 2^40 was corrupt or
        // forged, and no deadline ever follows it.
        assert_eq!(b.accept(2, 10, 20), vec![20]);
        assert_eq!(b.depth(), 0);
        let mut gaps = Vec::new();
        assert_eq!(b.flush_due(1_000_000, &mut gaps), Vec::<u64>::new());
        assert!(gaps.is_empty());
        assert_eq!(b.expected(), 3);
    }

    #[test]
    fn a_quiet_window_follows_the_peer_past_it() {
        let mut b: ReorderBuffer<u64> = ReorderBuffer::new(1_000);
        assert_eq!(b.accept(1, 0, 10), vec![10]);
        assert_eq!(b.accept(3, 0, 30), Vec::<u64>::new());
        // An outage longer than the window: the peer resumes at 5000.
        for (seq, at) in [(5_000, 500), (5_001, 500), (5_003, 600)] {
            assert_eq!(b.accept(seq, at, seq), Vec::<u64>::new());
        }
        let mut gaps = Vec::new();
        // The gap inside the window is flushed first; the frames past it
        // wait out their own deadline.
        assert_eq!(b.flush_due(1_000, &mut gaps), vec![30]);
        assert_eq!(ranges(&gaps), vec![2..3]);
        assert_eq!(b.flush_due(1_499, &mut gaps), Vec::<u64>::new());
        assert_eq!(b.flush_due(1_500, &mut gaps), vec![5_000, 5_001]);
        assert_eq!(ranges(&gaps), vec![2..3, 4..5_000]);
        assert_eq!(b.stats().skipped_seqs, 4_997);
        // The rest moved inside the window, behind an ordinary gap.
        assert_eq!(b.holes().collect::<Vec<_>>(), vec![5_002..5_003]);
        assert_eq!(b.accept(5_002, 1_600, 5_002), vec![5_002, 5_003]);
    }

    #[test]
    fn skip_to_abandons_the_gap_and_releases_the_run() {
        let mut b: ReorderBuffer<u64> = ReorderBuffer::new(1_000);
        assert_eq!(b.accept(1, 0, 10), vec![10]);
        assert_eq!(b.accept(4, 0, 40), Vec::<u64>::new());
        assert_eq!(b.accept(5, 0, 50), Vec::<u64>::new());
        let mut out = Vec::new();
        b.skip_to(2, 0, &mut out); // no-op: 2 is already the cursor...
        b.skip_to(4, 0, &mut out);
        assert_eq!(out, vec![40, 50]);
        assert_eq!(b.stats().skipped_seqs, 2);
        assert_eq!(b.expected(), 6);
        // Skipping backward is a no-op.
        b.skip_to(3, 0, &mut out);
        assert_eq!(b.expected(), 6);
    }
}

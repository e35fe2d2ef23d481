//! Receiver-side re-sequencing of out-of-order datagrams.
//!
//! UDP reorders; the state machines upstairs assume in-order delivery
//! per sender (the simulator's links are FIFO). A [`ReorderBuffer`]
//! restores that contract per peer: frames at the expected sequence
//! number pass straight through, frames from the future wait in a
//! `BTreeMap` until the gap fills, and a gap that stays open longer than
//! `flush_after` ticks is declared lost — the buffer skips ahead rather
//! than head-of-line-block the lecture behind one dropped datagram (the
//! retry layers above recover the content).

use std::collections::BTreeMap;
use std::ops::Range;

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
        /// Sequence numbers abandoned by gap flushes or authorized skips.
        pub skipped_seqs: u64 => gauge "transport_skipped_seqs",
        /// High-water mark of frames waiting at once.
        pub max_depth: usize max => gauge "transport_reorder_depth_peak",
    }
}

/// Per-peer re-sequencer keyed on frame sequence numbers (which start
/// at 1 on every (sender, receiver) pair).
#[derive(Debug)]
pub struct ReorderBuffer<T> {
    next_seq: u64,
    pending: BTreeMap<u64, (u64, T)>,
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
            flush_after,
            stats: ReorderStats::default(),
        }
    }

    /// Accepts a frame received at `now` and returns every frame that is
    /// now deliverable in sequence order (possibly empty, possibly more
    /// than one when this frame fills a gap).
    pub fn accept(&mut self, seq: u64, now: u64, item: T) -> Vec<T> {
        if seq < self.next_seq {
            self.stats.duplicates += 1;
            return Vec::new();
        }
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
        self.stats.max_depth = self.stats.max_depth.max(self.pending.len());
        Vec::new()
    }

    /// Declares gaps older than `flush_after` lost and releases whatever
    /// was waiting behind them, in sequence order. Appends each gap it
    /// walks past to `skipped`, oldest first; a call that skips nothing
    /// costs nothing per missing sequence.
    pub fn flush_due(&mut self, now: u64, skipped: &mut Vec<Range<u64>>) -> Vec<T> {
        let mut out = Vec::new();
        while let Some((&seq, entry)) = self.pending.first_key_value() {
            debug_assert!(seq > self.next_seq, "in-order frames never wait");
            if entry.0.saturating_add(self.flush_after) > now {
                break;
            }
            self.stats.skipped_seqs += seq - self.next_seq;
            skipped.push(self.next_seq..seq);
            self.next_seq = seq;
            self.drain_ready(&mut out);
        }
        out
    }

    /// The first open gap — the sequences between the consumer's cursor
    /// and the oldest waiting frame — or `None` when nothing waits.
    pub fn first_gap(&self) -> Option<Range<u64>> {
        let (&seq, _) = self.pending.first_key_value()?;
        Some(self.next_seq..seq)
    }

    /// The missing sequences currently blocking delivery, oldest first,
    /// at most `cap` of them (the NACK layer's view of this buffer).
    pub fn missing(&self, cap: usize) -> Vec<u64> {
        let mut out = Vec::new();
        let mut cursor = self.next_seq;
        for &seq in self.pending.keys() {
            for s in cursor..seq {
                if out.len() == cap {
                    return out;
                }
                out.push(s);
            }
            cursor = seq + 1;
        }
        out
    }

    /// Abandons every sequence before `seq` and releases whatever was
    /// waiting behind them — the repair layer calls this once a gap's
    /// retry budget is exhausted (the time-based [`Self::flush_due`] is
    /// bypassed when repair runs, so skips only happen here).
    pub fn skip_to(&mut self, seq: u64, out: &mut Vec<T>) {
        if seq <= self.next_seq {
            return;
        }
        debug_assert!(
            self.pending
                .first_key_value()
                .is_none_or(|(&s, _)| seq <= s),
            "skipping past a frame that actually arrived"
        );
        self.stats.skipped_seqs += seq - self.next_seq;
        self.next_seq = seq;
        self.drain_ready(out);
    }

    fn drain_ready(&mut self, out: &mut Vec<T>) {
        while let Some(entry) = self.pending.remove(&self.next_seq) {
            self.next_seq += 1;
            self.stats.delivered += 1;
            out.push(entry.1);
        }
    }

    /// Frames currently waiting behind a gap.
    pub fn depth(&self) -> usize {
        self.pending.len()
    }

    /// The next sequence number the consumer will see.
    pub fn expected(&self) -> u64 {
        self.next_seq
    }

    /// One past the highest sequence this buffer knows about — every
    /// sequence below it was delivered, is pending, or shows up in
    /// [`Self::missing`]. Sequences from here up to a peer-advertised
    /// top are *tail* losses no later arrival will ever expose.
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
        assert_eq!(gaps, vec![2..3]);
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
        let missing = b.missing(usize::MAX);
        let mut gaps = Vec::new();
        // The gaps before 3 and 6 are due; the one before 9 is not.
        assert_eq!(b.flush_due(1_000, &mut gaps), vec![30, 60]);
        assert_eq!(gaps, vec![2..3, 4..6]);
        let skipped: Vec<u64> = gaps.into_iter().flatten().collect();
        assert_eq!(skipped, missing[..3]);
        assert_eq!(b.stats().skipped_seqs, 3);
        assert_eq!(b.first_gap(), Some(7..9));
    }

    #[test]
    fn missing_and_first_gap_describe_the_holes() {
        let mut b: ReorderBuffer<u64> = ReorderBuffer::new(1_000);
        assert_eq!(b.first_gap(), None);
        assert_eq!(b.accept(1, 0, 10), vec![10]);
        assert_eq!(b.accept(4, 0, 40), Vec::<u64>::new());
        assert_eq!(b.accept(7, 0, 70), Vec::<u64>::new());
        assert_eq!(b.first_gap(), Some(2..4));
        assert_eq!(b.missing(usize::MAX), vec![2, 3, 5, 6]);
        assert_eq!(b.missing(3), vec![2, 3, 5]);
    }

    #[test]
    fn skip_to_abandons_the_gap_and_releases_the_run() {
        let mut b: ReorderBuffer<u64> = ReorderBuffer::new(1_000);
        assert_eq!(b.accept(1, 0, 10), vec![10]);
        assert_eq!(b.accept(4, 0, 40), Vec::<u64>::new());
        assert_eq!(b.accept(5, 0, 50), Vec::<u64>::new());
        let mut out = Vec::new();
        b.skip_to(2, &mut out); // no-op: 2 is already the cursor...
        b.skip_to(4, &mut out);
        assert_eq!(out, vec![40, 50]);
        assert_eq!(b.stats().skipped_seqs, 2);
        assert_eq!(b.expected(), 6);
        // Skipping backward is a no-op.
        b.skip_to(3, &mut out);
        assert_eq!(b.expected(), 6);
    }
}

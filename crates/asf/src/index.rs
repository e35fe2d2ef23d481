//! The seek-index object (the paper's "ASF Indexer" output).

use serde::{Deserialize, Serialize};

use crate::error::AsfError;
use crate::io::{Reader, Writer};

/// Maps presentation times to packet numbers for efficient seeking.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AsfIndex {
    /// `(presentation time, packet number)` pairs, sorted by time.
    entries: Vec<(u64, u32)>,
}

impl AsfIndex {
    /// Wire size of one entry: time (8) + packet number (4).
    const ENTRY_BYTES: usize = 12;

    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an index from `(time, packet)` pairs (sorted internally).
    pub fn from_entries(mut entries: Vec<(u64, u32)>) -> Self {
        entries.sort_unstable();
        Self { entries }
    }

    /// Adds an entry.
    pub fn push(&mut self, time: u64, packet: u32) {
        let at = self.entries.partition_point(|&(t, _)| t <= time);
        self.entries.insert(at, (time, packet));
    }

    /// The entries in time order.
    pub fn entries(&self) -> &[(u64, u32)] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The packet from which playback at `time` should start: the last
    /// entry at or before `time` (packet 0 when the index starts later).
    pub fn packet_for(&self, time: u64) -> u32 {
        let at = self.entries.partition_point(|&(t, _)| t <= time);
        if at == 0 {
            0
        } else {
            self.entries[at - 1].1
        }
    }

    pub(crate) fn wire_len(&self) -> usize {
        4 + Self::ENTRY_BYTES * self.entries.len()
    }

    pub(crate) fn write(&self, w: &mut Writer) {
        w.u32(self.entries.len() as u32);
        for &(t, p) in &self.entries {
            w.u64(t);
            w.u32(p);
        }
    }

    pub(crate) fn read(r: &mut Reader<'_>) -> Result<Self, AsfError> {
        let n = r.u32("index entry count")?;
        // The count is a wire field: reserve only what the input can hold.
        let mut entries = Vec::with_capacity((n as usize).min(r.remaining() / Self::ENTRY_BYTES));
        for _ in 0..n {
            let t = r.u64("index time")?;
            let p = r.u32("index packet")?;
            entries.push((t, p));
        }
        Ok(Self::from_entries(entries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seek_finds_floor_entry() {
        let idx = AsfIndex::from_entries(vec![(100, 5), (0, 0), (200, 12)]);
        assert_eq!(idx.packet_for(0), 0);
        assert_eq!(idx.packet_for(150), 5);
        assert_eq!(idx.packet_for(200), 12);
        assert_eq!(idx.packet_for(99_999), 12);
    }

    #[test]
    fn before_first_entry_is_packet_zero() {
        let idx = AsfIndex::from_entries(vec![(100, 5)]);
        assert_eq!(idx.packet_for(50), 0);
    }

    #[test]
    fn wire_round_trip() {
        let idx = AsfIndex::from_entries(vec![(0, 0), (500, 3), (1000, 9)]);
        let mut w = Writer::new();
        idx.write(&mut w);
        let v = w.into_vec();
        let mut r = Reader::new(&v);
        assert_eq!(AsfIndex::read(&mut r).unwrap(), idx);
    }

    #[test]
    fn push_keeps_sorted() {
        let mut idx = AsfIndex::new();
        idx.push(500, 2);
        idx.push(100, 1);
        idx.push(900, 3);
        let times: Vec<u64> = idx.entries().iter().map(|e| e.0).collect();
        assert_eq!(times, [100, 500, 900]);
    }
}

//! Byte-budgeted LRU cache of ASF packet segments.
//!
//! Relays do not mirror whole lectures; they pull fixed-size packet
//! *segments* from the origin on demand and keep the hottest ones within
//! a configurable byte budget. Recency is tracked with a monotonic use
//! counter, and eviction removes least-recently-used segments until a new
//! entry fits.
//!
//! # Budget accounting vs. real heap residency
//!
//! The budget counts each segment's *wire size* ([`CachedSegment::bytes`]),
//! exactly as it did before payloads became ref-counted [`bytes::Bytes`]
//! views. That keeps admission, eviction order and every counter
//! bit-identical to the deep-copy era: a segment's cost is what it would
//! occupy on the wire, whether or not its payloads share backing storage
//! with
//! another resident segment or an in-flight fan-out. The *actual* unique
//! heap held by cached payloads — where sharing IS visible — is reported
//! separately by [`CachedSegment::unique_backing_bytes`] and
//! [`SegmentCache::resident_backing_bytes`], which deduplicate backing
//! allocations by identity so shared storage is counted once.

use std::collections::{BTreeMap, HashSet};

use lod_asf::DataPacket;
use serde::{Deserialize, Serialize};

/// One cached run of packets for `(content, segment)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedSegment {
    /// Global index of the first packet in this segment.
    pub base_packet: u32,
    /// The packets, in stream order.
    pub packets: Vec<DataPacket>,
    /// Wire size of the segment in bytes (what the budget accounts).
    pub bytes: u64,
}

impl CachedSegment {
    /// Unique payload heap bytes this segment keeps alive: each distinct
    /// backing allocation is counted once at its full length, no matter
    /// how many payload views point into it. A freshly packetized segment
    /// whose fragments all slice one sample reports that sample's size,
    /// not the sum of the fragment lengths.
    pub fn unique_backing_bytes(&self) -> u64 {
        let mut seen = HashSet::new();
        let mut total = 0u64;
        for packet in &self.packets {
            for payload in packet.payloads.iter() {
                if seen.insert(payload.data.backing_id()) {
                    total += payload.data.backing_len() as u64;
                }
            }
        }
        total
    }
}

lod_obs::counters! {
    /// Hit/miss/eviction accounting for a [`SegmentCache`].
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct CacheStats {
        /// Lookups answered from cache.
        pub hits: u64 => counter "lod_cache_hits_total",
        /// Lookups that missed.
        pub misses: u64 => counter "lod_cache_misses_total",
        /// Segments accepted by [`SegmentCache::insert`].
        pub insertions: u64 => counter "lod_cache_insertions_total",
        /// Segments evicted to make room.
        pub evictions: u64 => counter "lod_cache_evictions_total",
        /// Total bytes reclaimed by eviction.
        pub bytes_evicted: u64 => counter "lod_cache_bytes_evicted_total",
    }
}

impl CacheStats {
    /// Total recorded lookups (`hits + misses`).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from cache; 0 when nothing was looked
    /// up yet.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// A content name's index in a [`SegmentCache`]'s content table. The
/// relay resolves a name from the wire once and carries this id, so no
/// per-packet lookup hashes or compares a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ContentId(u32);

impl ContentId {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone)]
struct Entry {
    segment: CachedSegment,
    last_used: u64,
}

/// One content's name and its resident segments.
#[derive(Debug, Clone)]
struct Content {
    name: String,
    segments: BTreeMap<u32, Entry>,
}

/// LRU segment cache with a hard byte budget.
#[derive(Debug, Clone)]
pub struct SegmentCache {
    budget: u64,
    used: u64,
    clock: u64,
    /// Every content interned so far, in intern order; a [`ContentId`]
    /// indexes it. A content keeps its slot when its last segment goes,
    /// so the table is as long as the number of distinct names ever
    /// cached or interned — for a relay, its declared catalog.
    contents: Vec<Content>,
    stats: CacheStats,
}

impl SegmentCache {
    /// An empty cache allowed to hold at most `budget_bytes` of segment
    /// data.
    pub fn new(budget_bytes: u64) -> Self {
        Self {
            budget: budget_bytes,
            used: 0,
            clock: 0,
            contents: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes currently held, in the budget's wire-size accounting.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Unique payload heap bytes resident across *all* cached segments:
    /// backing allocations shared between segments (or with fan-out
    /// queues) are counted once. Always `<=` the sum of per-segment
    /// [`CachedSegment::unique_backing_bytes`]; introspection only — the
    /// budget never looks at this.
    pub fn resident_backing_bytes(&self) -> u64 {
        let mut seen = HashSet::new();
        let mut total = 0u64;
        for entry in self.contents.iter().flat_map(|c| c.segments.values()) {
            for packet in &entry.segment.packets {
                for payload in packet.payloads.iter() {
                    if seen.insert(payload.data.backing_id()) {
                        total += payload.data.backing_len() as u64;
                    }
                }
            }
        }
        total
    }

    /// Number of cached segments.
    pub fn len(&self) -> usize {
        self.contents.iter().map(|c| c.segments.len()).sum()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.contents.iter().all(|c| c.segments.is_empty())
    }

    /// Accounting so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The id of `content`, found by scanning the content table.
    pub(crate) fn resolve(&self, content: &str) -> Option<ContentId> {
        let i = self.contents.iter().position(|c| c.name == content)?;
        Some(ContentId(i as u32))
    }

    /// The id of `content`, adding it to the content table when new.
    pub(crate) fn intern(&mut self, content: &str) -> ContentId {
        self.resolve(content).unwrap_or_else(|| {
            let id = u32::try_from(self.contents.len()).expect("fewer than 2^32 contents");
            self.contents.push(Content {
                name: content.to_string(),
                segments: BTreeMap::new(),
            });
            ContentId(id)
        })
    }

    /// The name `id` was interned under.
    pub(crate) fn name(&self, id: ContentId) -> &str {
        &self.contents[id.index()].name
    }

    /// Looks up a segment, recording a hit or miss and refreshing its
    /// recency on hit.
    pub fn get(&mut self, content: &str, segment: u32) -> Option<&CachedSegment> {
        let id = self.resolve(content);
        self.lookup(id, segment)
    }

    /// [`SegmentCache::get`] by content id.
    pub(crate) fn get_id(&mut self, content: ContentId, segment: u32) -> Option<&CachedSegment> {
        self.lookup(Some(content), segment)
    }

    fn lookup(&mut self, content: Option<ContentId>, segment: u32) -> Option<&CachedSegment> {
        self.clock += 1;
        let clock = self.clock;
        let entry = content.and_then(|id| self.contents[id.index()].segments.get_mut(&segment));
        match entry {
            Some(entry) => {
                entry.last_used = clock;
                self.stats.hits += 1;
                Some(&entry.segment)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Records a lookup answered by a fetch another lookup already has in
    /// flight (request coalescing / collapsed forwarding). Counted as a
    /// hit: the bytes are served locally without another origin pull.
    pub fn record_coalesced_hit(&mut self) {
        self.stats.hits += 1;
    }

    /// Looks up a segment without touching recency or the hit/miss
    /// counters (for introspection and tests).
    pub fn peek(&self, content: &str, segment: u32) -> Option<&CachedSegment> {
        self.peek_id(self.resolve(content)?, segment)
    }

    /// [`SegmentCache::peek`] by content id: an index and one ordered-map
    /// probe, on the relay's per-packet path.
    pub(crate) fn peek_id(&self, content: ContentId, segment: u32) -> Option<&CachedSegment> {
        self.contents[content.index()]
            .segments
            .get(&segment)
            .map(|e| &e.segment)
    }

    /// Whether the segment is resident (no accounting).
    pub fn contains(&self, content: &str, segment: u32) -> bool {
        self.peek(content, segment).is_some()
    }

    /// Inserts a segment, evicting least-recently-used entries until it
    /// fits. Returns `None` (and caches nothing) when the segment alone
    /// exceeds the whole budget; otherwise the evicted
    /// `(content, segment, bytes)` triples, in eviction order (the LRU
    /// clock is unique per entry, so the order is deterministic).
    /// Re-inserting an existing key replaces it without counting an
    /// eviction.
    pub fn insert(
        &mut self,
        content: &str,
        segment: u32,
        data: CachedSegment,
    ) -> Option<Vec<(String, u32, u64)>> {
        // Refused before interning, so a refused segment adds no name.
        if data.bytes > self.budget {
            return None;
        }
        let id = self.intern(content);
        let evicted = self.insert_id(id, segment, data)?;
        let named = evicted
            .into_iter()
            .map(|(id, segment, bytes)| (self.name(id).to_string(), segment, bytes));
        Some(named.collect())
    }

    /// [`SegmentCache::insert`] by content id; evictions name their
    /// content by id too.
    pub(crate) fn insert_id(
        &mut self,
        content: ContentId,
        segment: u32,
        data: CachedSegment,
    ) -> Option<Vec<(ContentId, u32, u64)>> {
        if data.bytes > self.budget {
            return None;
        }
        let segments = &mut self.contents[content.index()].segments;
        if let Some(old) = segments.remove(&segment) {
            self.used -= old.segment.bytes;
        }
        let mut evicted = Vec::new();
        while self.used + data.bytes > self.budget {
            evicted.push(self.evict_lru());
        }
        self.used += data.bytes;
        self.clock += 1;
        self.stats.insertions += 1;
        let entry = Entry {
            segment: data,
            last_used: self.clock,
        };
        self.contents[content.index()]
            .segments
            .insert(segment, entry);
        Some(evicted)
    }

    fn evict_lru(&mut self) -> (ContentId, u32, u64) {
        // `last_used` is unique per entry, so the victim does not depend
        // on iteration order.
        let (id, segment) = self
            .contents
            .iter()
            .enumerate()
            .flat_map(|(i, c)| {
                c.segments
                    .iter()
                    .map(move |(&segment, e)| (e.last_used, i, segment))
            })
            .min_by_key(|&(last_used, _, _)| last_used)
            .map(|(_, i, segment)| (ContentId(i as u32), segment))
            .expect("eviction requested on an empty cache");
        let entry = self.contents[id.index()]
            .segments
            .remove(&segment)
            .expect("victim just found");
        self.used -= entry.segment.bytes;
        self.stats.evictions += 1;
        self.stats.bytes_evicted += entry.segment.bytes;
        (id, segment, entry.segment.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(bytes: u64) -> CachedSegment {
        CachedSegment {
            base_packet: 0,
            packets: Vec::new(),
            bytes,
        }
    }

    #[test]
    fn hit_miss_accounting() {
        let mut cache = SegmentCache::new(1_000);
        assert!(cache.get("talk", 0).is_none());
        assert!(cache.insert("talk", 0, seg(100)).is_some());
        assert!(cache.get("talk", 0).is_some());
        assert!(cache.get("talk", 1).is_none());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.lookups(), 3);
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let mut cache = SegmentCache::new(300);
        assert!(cache.insert("talk", 0, seg(100)).is_some());
        assert!(cache.insert("talk", 1, seg(100)).is_some());
        assert!(cache.insert("talk", 2, seg(100)).is_some());
        // Touch 0 so 1 becomes the LRU victim.
        assert!(cache.get("talk", 0).is_some());
        let evicted = cache
            .insert("talk", 3, seg(100))
            .expect("fits after eviction");
        assert_eq!(evicted, vec![("talk".to_string(), 1, 100)]);
        assert!(cache.contains("talk", 0));
        assert!(!cache.contains("talk", 1));
        assert!(cache.contains("talk", 2));
        assert!(cache.contains("talk", 3));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().bytes_evicted, 100);
        assert_eq!(cache.used_bytes(), 300);
    }

    #[test]
    fn rejects_segment_larger_than_budget() {
        let mut cache = SegmentCache::new(50);
        assert!(cache.insert("talk", 0, seg(51)).is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.used_bytes(), 0);
    }

    #[test]
    fn reinsert_replaces_without_double_counting() {
        let mut cache = SegmentCache::new(200);
        assert!(cache.insert("talk", 0, seg(80)).is_some());
        let evicted = cache.insert("talk", 0, seg(120)).expect("replacement fits");
        assert!(evicted.is_empty(), "replacement is not an eviction");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.used_bytes(), 120);
    }

    fn packet_slicing(sample: &bytes::Bytes, chunk: usize) -> lod_asf::DataPacket {
        let payloads = (0..sample.len())
            .step_by(chunk)
            .map(|off| lod_asf::Payload {
                stream: 1,
                object_id: 0,
                offset: off as u32,
                total: sample.len() as u32,
                pres_time: 0,
                data: sample.slice(off..(off + chunk).min(sample.len())),
            })
            .collect();
        lod_asf::DataPacket {
            send_time: 0,
            payloads,
        }
    }

    #[test]
    fn unique_backing_counts_shared_storage_once() {
        let sample = bytes::Bytes::from(vec![7u8; 1_000]);
        let seg = CachedSegment {
            base_packet: 0,
            packets: vec![packet_slicing(&sample, 100), packet_slicing(&sample, 250)],
            bytes: 2_000,
        };
        // 14 payload views over one 1000-byte sample: counted once.
        assert_eq!(seg.unique_backing_bytes(), 1_000);

        let mut cache = SegmentCache::new(10_000);
        assert!(cache.insert("talk", 0, seg.clone()).is_some());
        assert!(cache.insert("talk", 1, seg).is_some());
        // Two cached segments, same backing sample: resident heap is
        // still one sample, while the wire-size budget charges both.
        assert_eq!(cache.resident_backing_bytes(), 1_000);
        assert_eq!(cache.used_bytes(), 4_000);
    }

    #[test]
    fn unique_backing_sums_distinct_samples() {
        let a = bytes::Bytes::from(vec![1u8; 300]);
        let b = bytes::Bytes::from(vec![2u8; 500]);
        let seg = CachedSegment {
            base_packet: 0,
            packets: vec![packet_slicing(&a, 100), packet_slicing(&b, 100)],
            bytes: 800,
        };
        assert_eq!(seg.unique_backing_bytes(), 800);
    }

    #[test]
    fn peek_does_not_count() {
        let mut cache = SegmentCache::new(100);
        assert!(cache.insert("talk", 0, seg(10)).is_some());
        assert!(cache.peek("talk", 0).is_some());
        assert!(cache.peek("talk", 9).is_none());
        assert_eq!(cache.stats().lookups(), 0);
    }
}

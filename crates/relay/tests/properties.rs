//! Property tests for the segment cache invariants the relay tier leans
//! on: the byte budget is a hard ceiling, the accounting identity holds,
//! an evicted segment refetched from the origin is byte-identical, and —
//! since payloads became ref-counted [`bytes::Bytes`] views — budget
//! accounting, eviction order and every counter are bit-for-bit
//! unchanged whether a segment's payloads share one backing buffer or
//! each own a private copy. The cache also answers every operation as an
//! LRU over one `BTreeMap<(String, u32), _>`, kept here as a model.
//! Fan-out shares each cached packet with every student it serves.

use std::rc::Rc;

use lod_asf::{
    AsfFile, DataPacket, FileProperties, MediaSample, Packetizer, Payload, ScriptCommandList,
    StreamKind, StreamProperties,
};
use lod_relay::{CachedSegment, RelayNode, SegmentCache};
use lod_simnet::{LinkSpec, Network};
use lod_streaming::wire::{ControlRequest, SegmentData};
use lod_streaming::{StreamHeader, Wire};
use proptest::prelude::*;

/// One scripted cache operation.
#[derive(Debug, Clone)]
enum Op {
    /// Look up `(content, segment)`.
    Get(u8, u8),
    /// Insert `(content, segment)` with the given payload size.
    Insert(u8, u8, u64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, 0u8..16).prop_map(|(c, s)| Op::Get(c, s)),
        (0u8..4, 0u8..16, 1u64..400).prop_map(|(c, s, b)| Op::Insert(c, s, b)),
    ]
}

fn segment(base: u32, bytes: u64) -> CachedSegment {
    CachedSegment {
        base_packet: base,
        packets: Vec::new(),
        bytes,
    }
}

fn content_name(c: u8) -> String {
    format!("lecture-{c}")
}

/// The cache as one ordered map keyed by an owned `(content, segment)`
/// pair. Kept as the model the content-table cache is checked against.
mod reference {
    use std::collections::BTreeMap;

    use lod_relay::{CacheStats, CachedSegment};

    struct Entry {
        segment: CachedSegment,
        last_used: u64,
    }

    pub struct SegmentCache {
        budget: u64,
        used: u64,
        clock: u64,
        entries: BTreeMap<(String, u32), Entry>,
        stats: CacheStats,
    }

    impl SegmentCache {
        pub fn new(budget: u64) -> Self {
            Self {
                budget,
                used: 0,
                clock: 0,
                entries: BTreeMap::new(),
                stats: CacheStats::default(),
            }
        }

        pub fn used_bytes(&self) -> u64 {
            self.used
        }

        pub fn len(&self) -> usize {
            self.entries.len()
        }

        pub fn stats(&self) -> CacheStats {
            self.stats
        }

        pub fn get(&mut self, content: &str, segment: u32) -> Option<&CachedSegment> {
            self.clock += 1;
            let clock = self.clock;
            match self.entries.get_mut(&(content.to_string(), segment)) {
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

        pub fn record_coalesced_hit(&mut self) {
            self.stats.hits += 1;
        }

        pub fn peek(&self, content: &str, segment: u32) -> Option<&CachedSegment> {
            self.entries
                .get(&(content.to_string(), segment))
                .map(|e| &e.segment)
        }

        pub fn contains(&self, content: &str, segment: u32) -> bool {
            self.entries.contains_key(&(content.to_string(), segment))
        }

        pub fn insert(
            &mut self,
            content: &str,
            segment: u32,
            data: CachedSegment,
        ) -> Option<Vec<(String, u32, u64)>> {
            if data.bytes > self.budget {
                return None;
            }
            let key = (content.to_string(), segment);
            if let Some(old) = self.entries.remove(&key) {
                self.used -= old.segment.bytes;
            }
            let mut evicted = Vec::new();
            while self.used + data.bytes > self.budget {
                evicted.push(self.evict_lru());
            }
            self.used += data.bytes;
            self.clock += 1;
            self.stats.insertions += 1;
            self.entries.insert(
                key,
                Entry {
                    segment: data,
                    last_used: self.clock,
                },
            );
            Some(evicted)
        }

        fn evict_lru(&mut self) -> (String, u32, u64) {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("eviction requested on an empty cache");
            let entry = self.entries.remove(&victim).expect("victim just found");
            self.used -= entry.segment.bytes;
            self.stats.evictions += 1;
            self.stats.bytes_evicted += entry.segment.bytes;
            (victim.0, victim.1, entry.segment.bytes)
        }
    }
}

/// Every operation the relay performs on its cache.
#[derive(Debug, Clone)]
enum FullOp {
    Get(u8, u8),
    Peek(u8, u8),
    Contains(u8, u8),
    Insert(u8, u8, u64),
    Coalesced,
}

fn full_op() -> impl Strategy<Value = FullOp> {
    prop_oneof![
        (0u8..4, 0u8..16).prop_map(|(c, s)| FullOp::Get(c, s)),
        (0u8..4, 0u8..16).prop_map(|(c, s)| FullOp::Peek(c, s)),
        (0u8..4, 0u8..16).prop_map(|(c, s)| FullOp::Contains(c, s)),
        (0u8..4, 0u8..16, 1u64..400).prop_map(|(c, s, b)| FullOp::Insert(c, s, b)),
        Just(FullOp::Coalesced),
    ]
}

/// Segment `s` of the model ops: most are small, the top two are the
/// largest a wire `u32` can name.
fn segment_index(s: u8) -> u32 {
    match s {
        15 => u32::MAX,
        14 => u32::MAX - 1,
        s => u32::from(s),
    }
}

proptest! {
    /// `used_bytes` never exceeds the budget, whatever the op sequence.
    #[test]
    fn byte_budget_is_never_exceeded(
        budget in 1u64..1_000,
        ops in proptest::collection::vec(op(), 0..64),
    ) {
        let mut cache = SegmentCache::new(budget);
        for op in ops {
            match op {
                Op::Get(c, s) => {
                    cache.get(&content_name(c), u32::from(s));
                }
                Op::Insert(c, s, b) => {
                    let accepted = cache.insert(&content_name(c), u32::from(s), segment(0, b));
                    prop_assert_eq!(accepted.is_some(), b <= budget);
                }
            }
            prop_assert!(
                cache.used_bytes() <= cache.budget(),
                "{} bytes used exceeds budget {}",
                cache.used_bytes(),
                cache.budget()
            );
        }
    }

    /// Every recorded lookup is exactly one hit or one miss.
    #[test]
    fn hits_plus_misses_equals_lookups(
        ops in proptest::collection::vec(op(), 0..64),
        coalesced in 0u64..8,
    ) {
        let mut cache = SegmentCache::new(500);
        let mut gets = 0u64;
        for op in ops {
            match op {
                Op::Get(c, s) => {
                    cache.get(&content_name(c), u32::from(s));
                    gets += 1;
                }
                Op::Insert(c, s, b) => {
                    cache.insert(&content_name(c), u32::from(s), segment(0, b));
                }
            }
        }
        for _ in 0..coalesced {
            cache.record_coalesced_hit();
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.lookups(), gets + coalesced);
        prop_assert_eq!(stats.hits + stats.misses, stats.lookups());
        prop_assert!(stats.misses <= gets, "coalesced lookups are never misses");
    }

    /// Evicting a segment and refetching it from the origin yields the
    /// same bytes: a cache round-trip is content-transparent.
    #[test]
    fn evicted_then_refetched_segment_is_byte_identical(
        send_times in proptest::collection::vec(0u64..1_000_000, 1..20),
        base in 0u32..10_000,
    ) {
        // The "origin": an immutable segment of real packets.
        let origin_packets: Vec<DataPacket> = send_times
            .iter()
            .map(|&t| DataPacket { send_time: t, payloads: Vec::new().into() })
            .collect();
        let origin_segment = CachedSegment {
            base_packet: base,
            packets: origin_packets.clone(),
            bytes: origin_packets.len() as u64 * 256,
        };

        let mut cache = SegmentCache::new(origin_segment.bytes); // fits exactly one
        prop_assert!(cache.insert("lec", 0, origin_segment.clone()).is_some());
        let first = cache.get("lec", 0).cloned().expect("just inserted");

        // Insert a same-sized rival: the budget forces eviction of seg 0.
        let evicted = cache.insert("lec", 1, segment(0, origin_segment.bytes))
            .expect("rival fits the budget");
        prop_assert_eq!(evicted, vec![("lec".to_string(), 0u32, origin_segment.bytes)]);
        prop_assert!(!cache.contains("lec", 0), "budget fits only one segment");
        prop_assert_eq!(cache.stats().evictions, 1);
        prop_assert_eq!(cache.stats().bytes_evicted, origin_segment.bytes);

        // "Refetch" from the origin and compare byte-for-byte.
        prop_assert!(cache.insert("lec", 0, origin_segment.clone()).is_some());
        let second = cache.get("lec", 0).cloned().expect("just refetched");
        prop_assert_eq!(&first, &second);
        prop_assert_eq!(&second, &origin_segment);
    }

    /// Driving two caches through the same op script — one fed segments
    /// whose payloads are zero-copy slices of a single shared sample,
    /// the other fed byte-identical segments whose every payload owns a
    /// private deep copy — produces identical budget usage, hit/miss/
    /// eviction counters, eviction order and residency. The `Bytes`
    /// switch is invisible to the accounting.
    #[test]
    fn accounting_ignores_payload_backing_sharing(
        budget in 2_000u64..20_000,
        ops in proptest::collection::vec(op(), 0..64),
    ) {
        let mut shared_cache = SegmentCache::new(budget);
        let mut copied_cache = SegmentCache::new(budget);
        for op in ops {
            match op {
                Op::Get(c, s) => {
                    let a = shared_cache.get(&content_name(c), u32::from(s)).cloned();
                    let b = copied_cache.get(&content_name(c), u32::from(s)).cloned();
                    prop_assert_eq!(a, b);
                }
                Op::Insert(c, s, b) => {
                    let (shared, copied) = twin_segments(s, b);
                    let ev_a = shared_cache.insert(&content_name(c), u32::from(s), shared);
                    let ev_b = copied_cache.insert(&content_name(c), u32::from(s), copied);
                    prop_assert_eq!(ev_a, ev_b, "eviction decisions and order must match");
                }
            }
            prop_assert_eq!(shared_cache.used_bytes(), copied_cache.used_bytes());
            prop_assert_eq!(shared_cache.len(), copied_cache.len());
            prop_assert_eq!(shared_cache.stats(), copied_cache.stats());
        }
    }

    /// The content-table cache answers every operation exactly as an LRU
    /// over one ordered `(String, u32)`-keyed map: the same lookups, the
    /// same eviction triples in the same order, the same counters and
    /// residency.
    #[test]
    fn cache_matches_string_keyed_reference(
        budget in 1u64..2_000,
        ops in proptest::collection::vec(full_op(), 0..128),
    ) {
        let mut cache = SegmentCache::new(budget);
        let mut model = reference::SegmentCache::new(budget);
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                FullOp::Get(c, s) => {
                    let (c, s) = (content_name(c), segment_index(s));
                    prop_assert_eq!(cache.get(&c, s).cloned(), model.get(&c, s).cloned());
                }
                FullOp::Peek(c, s) => {
                    let (c, s) = (content_name(c), segment_index(s));
                    prop_assert_eq!(cache.peek(&c, s), model.peek(&c, s));
                }
                FullOp::Contains(c, s) => {
                    let (c, s) = (content_name(c), segment_index(s));
                    prop_assert_eq!(cache.contains(&c, s), model.contains(&c, s));
                }
                FullOp::Insert(c, s, b) => {
                    let (c, s) = (content_name(c), segment_index(s));
                    let seg = segment(i as u32, b);
                    prop_assert_eq!(cache.insert(&c, s, seg.clone()), model.insert(&c, s, seg));
                }
                FullOp::Coalesced => {
                    cache.record_coalesced_hit();
                    model.record_coalesced_hit();
                }
            }
            prop_assert_eq!(cache.stats(), model.stats());
            prop_assert_eq!(cache.used_bytes(), model.used_bytes());
            prop_assert_eq!(cache.len(), model.len());
            prop_assert_eq!(cache.is_empty(), model.len() == 0);
        }
    }

    /// A relay serving `students` from one cached segment hands every one
    /// of them the cached packets themselves: each delivered
    /// `Wire::Data` shares its payload list with the cache entry (and
    /// with the origin's file it was cut from), and nothing is dropped.
    #[test]
    fn fan_out_shares_each_cached_packet_with_every_student(
        students in 1usize..9,
        sample_bytes in proptest::collection::vec(1usize..2_000, 1..24),
    ) {
        let file = lecture(&sample_bytes);
        let mut net: Network<Wire> = Network::new(3);
        let origin = net.add_node("origin");
        let relay_id = net.add_node("relay");
        net.connect_bidirectional(origin, relay_id, LinkSpec::lan());
        let students: Vec<_> = (0..students)
            .map(|i| {
                let s = net.add_node(format!("student-{i}"));
                net.connect_bidirectional(relay_id, s, LinkSpec::lan());
                s
            })
            .collect();
        let mut relay = RelayNode::new(relay_id, origin, 64 << 20);
        relay.serve_vod("lec");
        let n = file.packets.len() as u32;
        let segment = Wire::Segment(SegmentData {
            content: "lec".into(),
            segment: 0,
            base_packet: 0,
            total_packets: n,
            total_segments: 1,
            segment_packets: n,
            packet_size: file.props.packet_size,
            packets: file.packets.clone(),
            header: Some(Box::new(StreamHeader::of(&file, 1))),
            start_packet: None,
            at_time: None,
            epoch: 1,
            trace: None,
        });
        relay.on_message(&mut net, 0, origin, segment);
        for &s in &students {
            let play = ControlRequest::Play { content: "lec".into(), from: 0 };
            relay.on_message(&mut net, 0, s, Wire::Request(play));
        }
        let cached = relay.cache().peek("lec", 0).expect("segment cached").clone();
        // Which cached packet each delivery shares, per student (LAN
        // jitter may reorder deliveries).
        let mut got = vec![Vec::new(); students.len()];
        let mut now = 0;
        while now < 120_000_000_000 && got.iter().any(|g| g.len() < file.packets.len()) {
            relay.poll(&mut net, now);
            for d in net.advance_to(now) {
                let Wire::Data(p) = d.message else { continue };
                let k = students.iter().position(|&s| s == d.dst).expect("a student");
                let i = cached.packets.iter().position(|c| Rc::ptr_eq(&c.payloads, &p.payloads));
                prop_assert!(i.is_some(), "delivered a copy of the cached packet");
                let i = i.unwrap_or_default();
                prop_assert!(Rc::ptr_eq(&p.payloads, &file.packets[i].payloads));
                got[k].push(i);
            }
            now += 1_000_000;
        }
        for g in &mut got {
            g.sort_unstable();
            prop_assert!(g.iter().copied().eq(0..file.packets.len()), "{g:?}");
        }
    }

    /// `resident_backing_bytes` counts shared storage once: with every
    /// payload slicing one backing buffer per segment it never exceeds
    /// the deep-copy residency, and a segment's own payloads never
    /// double-count their common backing.
    #[test]
    fn resident_backing_bytes_never_double_counts(
        sizes in proptest::collection::vec(64u64..512, 1..8),
    ) {
        let mut shared_cache = SegmentCache::new(1 << 20);
        let mut copied_cache = SegmentCache::new(1 << 20);
        for (i, &bytes) in sizes.iter().enumerate() {
            let (shared, copied) = twin_segments(i as u8, bytes);
            // All views of one sample: unique backing is that one sample.
            prop_assert_eq!(shared.unique_backing_bytes(), bytes);
            // Private copies: the same total, reached fragment by fragment.
            prop_assert_eq!(copied.unique_backing_bytes(), bytes);
            shared_cache.insert("lec", i as u32, shared);
            copied_cache.insert("lec", i as u32, copied);
        }
        let total: u64 = sizes.iter().sum();
        prop_assert_eq!(shared_cache.resident_backing_bytes(), total);
        prop_assert_eq!(copied_cache.resident_backing_bytes(), total);
        prop_assert!(shared_cache.resident_backing_bytes() <= copied_cache.resident_backing_bytes());
    }
}

/// A segment at the top of the `u32` range costs what one at 0 does: a
/// table indexed by segment number would need gigabytes to hold it.
#[test]
fn the_last_segment_index_allocates_like_the_first() {
    let mut cache = SegmentCache::new(1_000);
    for s in [u32::MAX, 0, u32::MAX - 1] {
        assert_eq!(cache.insert("lec", s, segment(s, 100)), Some(Vec::new()));
    }
    assert_eq!(cache.len(), 3);
    assert_eq!(cache.used_bytes(), 300);
    assert!(cache.contains("lec", u32::MAX));
    assert_eq!(
        cache.get("lec", u32::MAX).map(|s| s.base_packet),
        Some(u32::MAX)
    );
    assert!(cache.peek("lec", u32::MAX - 2).is_none());
}

/// A one-stream lecture of samples of `sizes` bytes, 100 ms apart, in
/// 512-byte packets (large samples fragment).
fn lecture(sizes: &[usize]) -> AsfFile {
    let mut pk = Packetizer::new(512).expect("valid packet size");
    for (i, &len) in sizes.iter().enumerate() {
        pk.push(&MediaSample::new(
            1,
            i as u64 * 1_000_000,
            vec![i as u8; len],
        ));
    }
    AsfFile {
        props: FileProperties {
            file_id: 1,
            created: 0,
            packet_size: 512,
            play_duration: sizes.len() as u64 * 1_000_000,
            preroll: 0,
            broadcast: false,
            max_bitrate: 400_000,
        },
        streams: vec![StreamProperties {
            number: 1,
            kind: StreamKind::Video,
            codec: 4,
            bitrate: 400_000,
            name: "v".into(),
        }],
        script: ScriptCommandList::new(),
        drm: None,
        packets: pk.finish(),
        index: None,
    }
}

/// Two byte-identical segments of `bytes` payload bytes: the first's
/// payloads are zero-copy slices of one shared sample, the second's each
/// own a freshly allocated copy. Wire-size accounting (`bytes`) is the
/// same for both.
fn twin_segments(seed: u8, bytes: u64) -> (CachedSegment, CachedSegment) {
    let sample = bytes::Bytes::from(vec![seed; bytes as usize]);
    let chunk = 100usize;
    let make = |deep: bool| {
        let payloads: Vec<Payload> = (0..sample.len())
            .step_by(chunk)
            .map(|off| {
                let view = sample.slice(off..(off + chunk).min(sample.len()));
                Payload {
                    stream: 1,
                    object_id: 0,
                    offset: off as u32,
                    total: sample.len() as u32,
                    pres_time: 0,
                    data: if deep {
                        bytes::Bytes::copy_from_slice(&view)
                    } else {
                        view
                    },
                }
            })
            .collect();
        CachedSegment {
            base_packet: 0,
            packets: vec![DataPacket {
                send_time: 0,
                payloads: payloads.into(),
            }],
            bytes,
        }
    };
    (make(false), make(true))
}

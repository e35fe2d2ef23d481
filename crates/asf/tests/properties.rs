//! Property-based tests: the container round-trips arbitrary content.

use lod_asf::{
    read_asf, write_asf, AsfFile, DataPacket, FileProperties, License, MediaSample, Packetizer,
    Payload, Reassembler, ScriptCommand, ScriptCommandList, StreamKind, StreamProperties,
};
use proptest::prelude::*;

/// The reassembler as it was before it lost its hash tables, kept as the
/// model the table-free one is checked against: every object keyed in a
/// `HashMap`, every delivered key remembered for ever.
mod reference {
    use std::collections::{HashMap, HashSet};

    use lod_asf::{AsfError, DataPacket, MediaSample, Payload};

    #[derive(Default)]
    pub struct Reassembler {
        partial: HashMap<(u16, u32), PartialSample>,
        finished: HashSet<(u16, u32)>,
        complete: Vec<MediaSample>,
    }

    struct PartialSample {
        pres_time: u64,
        total: u32,
        received: u32,
        data: Vec<u8>,
        seen: Vec<(u32, u32)>,
    }

    impl Reassembler {
        pub fn push_packet(&mut self, packet: &DataPacket) -> Result<(), AsfError> {
            for p in &packet.payloads {
                self.push_payload(p)?;
            }
            Ok(())
        }

        fn push_payload(&mut self, p: &Payload) -> Result<(), AsfError> {
            let key = (p.stream, p.object_id);
            if self.finished.contains(&key) {
                return Ok(());
            }
            let mismatch = AsfError::FragmentMismatch {
                stream: p.stream,
                object: p.object_id,
            };
            let entry = self.partial.entry(key).or_insert_with(|| PartialSample {
                pres_time: p.pres_time,
                total: p.total,
                received: 0,
                data: vec![0; p.total as usize],
                seen: Vec::new(),
            });
            if entry.total != p.total || entry.pres_time != p.pres_time {
                return Err(mismatch);
            }
            let end = p.offset as usize + p.data.len();
            if end > entry.data.len() {
                return Err(mismatch);
            }
            if entry.seen.contains(&(p.offset, p.data.len() as u32)) {
                return Ok(());
            }
            if entry
                .seen
                .iter()
                .any(|&(o, l)| p.offset < o + l && o < p.offset + p.data.len() as u32)
            {
                return Err(mismatch);
            }
            entry.data[p.offset as usize..end].copy_from_slice(&p.data);
            entry.seen.push((p.offset, p.data.len() as u32));
            entry.received += p.data.len() as u32;
            if entry.received >= entry.total {
                let done = self.partial.remove(&key).expect("entry exists");
                self.finished.insert(key);
                self.complete.push(MediaSample {
                    stream: key.0,
                    pres_time: done.pres_time,
                    data: done.data.into(),
                });
            }
            Ok(())
        }

        pub fn take_completed(&mut self) -> Vec<MediaSample> {
            let mut out = std::mem::take(&mut self.complete);
            out.sort_by_key(|s| (s.pres_time, s.stream));
            out
        }

        pub fn incomplete(&self) -> usize {
            self.partial.len()
        }
    }
}

fn arb_samples() -> impl Strategy<Value = Vec<MediaSample>> {
    proptest::collection::vec(
        (
            1u16..=3,
            0u64..100_000,
            proptest::collection::vec(any::<u8>(), 0..600),
        ),
        0..20,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(s, t, d)| MediaSample::new(s, t, d))
            .collect()
    })
}

fn arb_script() -> impl Strategy<Value = ScriptCommandList> {
    proptest::collection::vec((0u64..10_000, "[a-z]{1,8}", "[ -~]{0,20}"), 0..10).prop_map(|v| {
        v.into_iter()
            .map(|(t, k, p)| ScriptCommand::new(t, k, p))
            .collect()
    })
}

fn make_file(samples: &[MediaSample], script: ScriptCommandList, packet_size: u32) -> AsfFile {
    let mut pk = Packetizer::new(packet_size).unwrap();
    for s in samples {
        pk.push(s);
    }
    AsfFile {
        props: FileProperties {
            file_id: 99,
            created: 5,
            packet_size,
            play_duration: 0,
            preroll: 0,
            broadcast: false,
            max_bitrate: 128_000,
        },
        streams: (1..=3)
            .map(|n| StreamProperties {
                number: n,
                kind: StreamKind::Video,
                codec: 4,
                bitrate: 1000,
                name: format!("s{n}"),
            })
            .collect(),
        script,
        drm: None,
        packets: pk.finish(),
        index: None,
    }
}

proptest! {
    /// write → read is the identity on the whole file model.
    #[test]
    fn mux_demux_identity(
        samples in arb_samples(),
        script in arb_script(),
        packet_size in 64u32..2048,
    ) {
        let mut f = make_file(&samples, script, packet_size);
        f.build_index(1_000);
        let bytes = write_asf(&f).unwrap();
        let back = read_asf(&bytes).unwrap();
        prop_assert_eq!(back, f);
    }

    /// Packetize → reassemble restores every sample exactly.
    #[test]
    fn fragment_reassemble_identity(
        samples in arb_samples(),
        packet_size in 64u32..512,
    ) {
        let mut pk = Packetizer::new(packet_size).unwrap();
        for s in &samples {
            pk.push(s);
        }
        let packets = pk.finish();
        let mut rs = Reassembler::new();
        for p in &packets {
            rs.push_packet(p).unwrap();
        }
        let mut got = rs.take_completed();
        let mut want = samples.clone();
        // Order by (time, stream, data) — object ids disambiguate on the
        // wire but equal (time, stream) pairs are unordered here.
        let key = |s: &MediaSample| (s.pres_time, s.stream, s.data.clone());
        got.sort_by_key(key);
        want.sort_by_key(key);
        prop_assert_eq!(got, want);
        prop_assert_eq!(rs.incomplete(), 0);
    }

    /// Under shuffled, duplicated, dropped and conflicting fragments the
    /// reassembler agrees with its reference model on every result,
    /// every batch of completed samples (and their order) and the count
    /// of incomplete ones. (Inputs stay inside what both can represent:
    /// fewer objects per stream than the delivered window, totals under
    /// the sample cap.)
    #[test]
    fn reassembler_matches_reference_model(
        samples in arb_samples(),
        packet_size in 64u32..400,
        seed in any::<u64>(),
    ) {
        let mut pk = Packetizer::new(packet_size).unwrap();
        for s in &samples {
            pk.push(s);
        }
        let mut rng = proptest::test_runner::TestRng::from_seed(seed);
        let mut draw = move |n: u64| rng.next_u64() % n;
        let mut frags: Vec<Payload> = Vec::new();
        for f in pk.finish().into_iter().flat_map(|p| p.payloads) {
            match draw(10) {
                0 => continue, // dropped
                1 => frags.push(f.clone()), // duplicated
                2 => {
                    // Conflicting: another total, time, or an overlapping
                    // or overhanging range.
                    let mut bad = f.clone();
                    match draw(4) {
                        0 => bad.total += 1 + draw(5) as u32,
                        1 => bad.pres_time += 1,
                        2 => bad.offset = bad.offset.saturating_sub(1 + draw(3) as u32),
                        _ => bad.offset += 1 + draw(40) as u32,
                    }
                    frags.push(bad);
                }
                _ => {}
            }
            frags.push(f);
        }
        // Shuffle within a horizon: mostly near-in-order, sometimes far.
        for i in 0..frags.len() {
            let reach = if draw(4) == 0 { frags.len() } else { 4 };
            let j = (i + draw(reach as u64) as usize).min(frags.len() - 1);
            frags.swap(i, j);
        }
        let mut new = Reassembler::new();
        let mut old = reference::Reassembler::default();
        let mut rest = frags.as_slice();
        while !rest.is_empty() {
            let (now, later) = rest.split_at((1 + draw(3) as usize).min(rest.len()));
            rest = later;
            let packet = DataPacket { send_time: 0, payloads: now.to_vec() };
            prop_assert_eq!(new.push_packet(&packet), old.push_packet(&packet));
            if draw(3) == 0 {
                prop_assert_eq!(new.take_completed(), old.take_completed());
            }
            prop_assert_eq!(new.incomplete(), old.incomplete());
        }
        prop_assert_eq!(new.take_completed(), old.take_completed());
        prop_assert_eq!(new.incomplete(), old.incomplete());
    }

    /// Every serialized packet is exactly the declared size.
    #[test]
    fn packets_have_fixed_size(
        samples in arb_samples(),
        packet_size in 64u32..512,
    ) {
        let mut pk = Packetizer::new(packet_size).unwrap();
        for s in &samples {
            pk.push(s);
        }
        for p in pk.finish() {
            prop_assert_eq!(p.write(packet_size).unwrap().len(), packet_size as usize);
        }
    }

    /// DRM protect → unprotect restores the content bit-exactly, and the
    /// wrong key never verifies.
    #[test]
    fn drm_round_trip(
        samples in arb_samples(),
        key in any::<u64>(),
    ) {
        let f = make_file(&samples, ScriptCommandList::new(), 256);
        let mut g = f.clone();
        let lic = License::new("k", key);
        g.protect(&lic);
        let mut wrong = g.clone();
        prop_assert!(wrong.unprotect(&License::new("k", key.wrapping_add(1))).is_err());
        g.unprotect(&lic).unwrap();
        prop_assert_eq!(g.packets, f.packets);
    }

    /// Parsing arbitrary bytes never panics (it may error).
    #[test]
    fn demux_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = read_asf(&bytes);
    }

    /// Truncating a valid file at any point fails cleanly, never panics.
    #[test]
    fn truncation_fails_cleanly(
        samples in arb_samples(),
        cut_ratio in 0.0f64..1.0,
    ) {
        let f = make_file(&samples, ScriptCommandList::new(), 128);
        let bytes = write_asf(&f).unwrap();
        let cut = ((bytes.len() as f64) * cut_ratio) as usize;
        if cut < bytes.len() {
            prop_assert!(read_asf(&bytes[..cut]).is_err());
        }
    }
}

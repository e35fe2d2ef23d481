//! Property-based tests for the playback engine.

use lod_asf::{
    AsfFile, FileProperties, MediaSample, Packetizer, ScriptCommand, ScriptCommandList, StreamKind,
    StreamProperties,
};
use lod_player::{PlayerEngine, SkewStats};
use proptest::prelude::*;

fn make_file(samples: &[(u16, u64, usize)], commands: &[(u64, String)]) -> AsfFile {
    let mut pk = Packetizer::new(256).unwrap();
    for &(stream, t, len) in samples {
        pk.push(&MediaSample::new(stream, t, vec![1; len]));
    }
    let mut script = ScriptCommandList::new();
    for (t, p) in commands {
        script.push(ScriptCommand::new(*t, "slide", p.clone()));
    }
    AsfFile {
        props: FileProperties {
            file_id: 1,
            created: 0,
            packet_size: 256,
            play_duration: 0,
            preroll: 0,
            broadcast: false,
            max_bitrate: 0,
        },
        streams: vec![
            StreamProperties {
                number: 1,
                kind: StreamKind::Video,
                codec: 4,
                bitrate: 1,
                name: "v".into(),
            },
            StreamProperties {
                number: 2,
                kind: StreamKind::Audio,
                codec: 1,
                bitrate: 1,
                name: "a".into(),
            },
        ],
        script,
        drm: None,
        packets: pk.finish(),
        index: None,
    }
}

/// `SkewStats::from_skews` as it was written first: sort, then read max,
/// mean and the 95th percentile off the sorted list.
fn sorted_skew_stats(mut skews: Vec<u64>) -> SkewStats {
    if skews.is_empty() {
        return SkewStats::default();
    }
    skews.sort_unstable();
    let count = skews.len();
    SkewStats {
        count,
        max: skews[count - 1],
        mean: skews.iter().sum::<u64>() as f64 / count as f64,
        p95: skews[((count as f64 * 0.95).ceil() as usize).min(count) - 1],
    }
}

fn arb_samples() -> impl Strategy<Value = Vec<(u16, u64, usize)>> {
    proptest::collection::vec((1u16..=2, 0u64..1_000_000, 1usize..300), 1..25)
}

fn arb_commands() -> impl Strategy<Value = Vec<(u64, String)>> {
    proptest::collection::vec((0u64..1_000_000, "[a-z]{1,6}"), 0..8)
}

proptest! {
    /// Interactive playback with arbitrary tick cadence renders exactly
    /// the items the ideal trace renders (same multiset of pres times).
    #[test]
    fn interactive_matches_ideal(
        samples in arb_samples(),
        commands in arb_commands(),
        steps in proptest::collection::vec(1u64..400_000, 1..40),
    ) {
        let file = make_file(&samples, &commands);
        let engine = PlayerEngine::load(file, None).unwrap();
        let ideal = engine.render_ideal();

        let mut pb = engine.play(0);
        let mut now = 0u64;
        for s in &steps {
            now += s;
            pb.tick(now);
        }
        // Final tick far past the end renders the tail.
        pb.tick(now + 2_000_000);
        let mut got: Vec<u64> = pb.trace().items().iter().map(|i| i.pres_time).collect();
        let mut want: Vec<u64> = ideal.items().iter().map(|i| i.pres_time).collect();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// Pausing never loses items: pause/resume playback still renders the
    /// complete set.
    #[test]
    fn pause_resume_is_lossless(
        samples in arb_samples(),
        pause_at in 1u64..500_000,
        pause_len in 1u64..2_000_000,
    ) {
        let file = make_file(&samples, &[]);
        let engine = PlayerEngine::load(file, None).unwrap();
        let total = engine.render_ideal().len();
        let mut pb = engine.play(0);
        pb.tick(pause_at);
        pb.pause(pause_at);
        prop_assert!(pb.tick(pause_at + pause_len).is_empty());
        pb.resume(pause_at + pause_len);
        pb.tick(pause_at + pause_len + 3_000_000);
        prop_assert_eq!(pb.trace().len(), total);
    }

    /// Loading never panics and sample counts match what was packetized,
    /// for arbitrary content.
    #[test]
    fn load_reassembles_every_sample(
        samples in arb_samples(),
        commands in arb_commands(),
    ) {
        let file = make_file(&samples, &commands);
        let engine = PlayerEngine::load(file, None).unwrap();
        prop_assert_eq!(engine.sample_count(), samples.len());
        prop_assert_eq!(engine.script().len(), commands.len());
    }

    /// Selecting the 95th percentile gives the statistics sorting gave,
    /// bit for bit: few distinct values (ties at the rank) or many, any
    /// order, any length.
    #[test]
    fn skew_stats_match_the_sorted_formula(
        skews in prop_oneof![
            proptest::collection::vec(0u64..4, 0..300),
            proptest::collection::vec(0u64..1 << 40, 0..300),
        ],
    ) {
        let (got, want) = (SkewStats::from_skews(skews.clone()), sorted_skew_stats(skews));
        prop_assert_eq!(got.mean.to_bits(), want.mean.to_bits());
        prop_assert_eq!(got, want);
    }
}

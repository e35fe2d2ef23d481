//! Experiments E5–E7: the Fig. 5 publishing workflow, the Fig. 6
//! Abstractor view, and the Fig. 7 synchronized replay.

use lod::asf::{read_asf, write_asf, License};
use lod::core::{synthetic_lecture, Abstractor, Wmps};
use lod::player::{PlayerEngine, RenderItem, SkewStats};
use lod::simnet::LinkSpec;

/// E5: video path + slide dir → one ASF whose script commands flip the
/// slides; survives the wire; slides flip at exactly the deck's times.
#[test]
fn e5_publish_produces_synchronized_asf() {
    let lecture = synthetic_lecture(500, 3, 300_000);
    let wmps = Wmps::new();
    let file = wmps.publish(&lecture).unwrap();

    // One "slide" script command per slide, at the slide's show time.
    let slide_cmds: Vec<_> = file
        .script
        .commands()
        .iter()
        .filter(|c| c.kind == "slide")
        .collect();
    assert_eq!(slide_cmds.len(), lecture.slide_count());
    for (cmd, slide) in slide_cmds.iter().zip(&lecture.deck.slides) {
        assert_eq!(cmd.time, slide.show_at.0);
        assert!(cmd.param.ends_with(&slide.file));
    }
    // Annotations ride along.
    let ann = file
        .script
        .commands()
        .iter()
        .filter(|c| c.kind == "annotation")
        .count();
    assert_eq!(ann, lecture.annotations.len());

    // Byte-exact wire round trip.
    let bytes = write_asf(&file).unwrap();
    assert_eq!(read_asf(&bytes).unwrap(), file);
}

/// E5 (DRM leg): protected lectures need the right license to replay,
/// and protecting protected content changes nothing — the first license
/// still restores the published packets.
#[test]
fn e5_drm_gates_playback() {
    let lecture = synthetic_lecture(501, 1, 200_000);
    let plain = Wmps::new().publish(&lecture).unwrap();
    let license = License::new("course", 1234);
    let mut file = plain.clone();
    file.protect(&license);
    file.protect(&license);
    file.protect(&License::new("course", 999));
    assert!(PlayerEngine::load(file.clone(), None).is_err());
    assert!(PlayerEngine::load(file.clone(), Some(&License::new("course", 999))).is_err());
    let engine = PlayerEngine::load(file.clone(), Some(&license)).unwrap();
    assert!(engine.sample_count() > 0);
    file.unprotect(&license).unwrap();
    assert_eq!(file, plain);
}

/// E5 (golden bytes): the published file is pinned, plain and protected,
/// so neither the synthetic content generator nor the DRM keystream nor
/// the muxer can drift without this failing. Sizes and FNV-1a-64 digests
/// recorded from commit `40acb8f`.
#[test]
fn e5_published_bytes_are_pinned() {
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
    let mut file = Wmps::new()
        .publish(&synthetic_lecture(7, 1, 300_000))
        .unwrap();
    let plain = write_asf(&file).unwrap();
    assert_eq!(plain.len(), 2_628_901);
    assert_eq!(fnv1a64(&plain), 0x156b_6a85_d8dd_5b8a);
    file.protect(&License::new("course-101", 777));
    let protected = write_asf(&file).unwrap();
    assert_eq!(protected.len(), 2_628_945);
    assert_eq!(fnv1a64(&protected), 0x024c_352e_559f_461b);
}

/// E6: the Abstractor's content tree spans the lecture and shorter budgets
/// yield shorter presentations.
#[test]
fn e6_abstractor_levels() {
    let lecture = synthetic_lecture(502, 30, 300_000);
    let a = Abstractor::new();
    let tree = a.tree_from_outline(&lecture.outline).unwrap();
    tree.validate().unwrap();
    assert_eq!(tree.level_value(tree.highest_level()), 30 * 60);
    let table = a.level_table(&tree);
    assert!(table.len() >= 3);
    for w in table.windows(2) {
        assert!(w[1].duration_secs >= w[0].duration_secs);
        assert!(w[1].segments >= w[0].segments);
    }
    // The compiled spec at each level matches the tree's duration.
    for row in &table {
        let spec = a.spec_at_level(&tree, row.level, 1);
        assert_eq!(spec.duration(), row.duration_secs);
    }
}

/// E7: local replay renders video + synchronized slides + annotations;
/// slide flips land exactly on their scheduled times in ideal playback.
#[test]
fn e7_local_replay_is_synchronized() {
    let lecture = synthetic_lecture(503, 2, 300_000);
    let file = Wmps::new().publish(&lecture).unwrap();
    let engine = PlayerEngine::load(file, None).unwrap();
    let trace = engine.render_ideal();
    assert!(trace.video_frames() > 0);
    assert_eq!(trace.slide_changes().len(), lecture.slide_count());
    assert_eq!(trace.annotations().len(), lecture.annotations.len());
    assert_eq!(SkewStats::of_slides(&trace, 0).max, 0);

    // The right slide is visible mid-lecture.
    let mid = lecture.duration().0 / 2;
    let expected = lecture
        .deck
        .slides
        .iter()
        .rev()
        .find(|s| s.show_at.0 <= mid)
        .unwrap();
    assert!(trace.slide_at(mid).unwrap().ends_with(&expected.file));
}

/// E7 (interactive leg): pausing and seeking during replay keeps the
/// slide state consistent.
#[test]
fn e7_interactive_playback() {
    let lecture = synthetic_lecture(504, 2, 300_000);
    let file = Wmps::new().publish(&lecture).unwrap();
    let engine = PlayerEngine::load(file, None).unwrap();
    let mut pb = engine.play(0);
    pb.tick(10_000_000);
    pb.pause(10_000_000);
    assert!(pb.tick(60_000_000).is_empty());
    pb.resume(60_000_000);
    // Seek to 90 s: the slide visible there must be the deck's floor.
    let target = 90 * 10_000_000u64;
    pb.seek(70_000_000, target);
    let expected = lecture
        .deck
        .slides
        .iter()
        .rev()
        .find(|s| s.show_at.0 <= target)
        .unwrap();
    assert!(pb
        .trace()
        .slide_at(70_000_000)
        .unwrap()
        .ends_with(&expected.file));
}

/// E7 (networked leg): streamed replay over a LAN renders everything with
/// bounded skew; a modem degrades it measurably.
#[test]
fn e7_networked_replay_shape() {
    let lecture = synthetic_lecture(505, 1, 300_000);
    let wmps = Wmps::new();
    let file = wmps.publish(&lecture).unwrap();
    let lan = wmps.serve_and_replay(file.clone(), LinkSpec::lan(), 3, 1);
    assert_eq!(lan.clients.len(), 3);
    for m in &lan.clients {
        assert_eq!(m.stalls, 0);
        assert!(m.samples_rendered > 0);
    }
    let modem = wmps.serve_and_replay(file, LinkSpec::modem(), 1, 1);
    let m = &modem.clients[0];
    let l = &lan.clients[0];
    assert!(
        m.stalls > l.stalls || m.startup_ticks > l.startup_ticks,
        "modem {m:?} vs lan {l:?}"
    );
}

/// The annotations named in the abstract — "along with synchronized images
/// of his presentation slides and all the annotations/comments" — survive
/// the full publish → wire → replay pipeline.
#[test]
fn annotations_survive_end_to_end() {
    let lecture = synthetic_lecture(506, 2, 300_000);
    let file = Wmps::new().publish(&lecture).unwrap();
    let bytes = write_asf(&file).unwrap();
    let engine = PlayerEngine::load(read_asf(&bytes).unwrap(), None).unwrap();
    let trace = engine.render_ideal();
    let texts: Vec<String> = trace
        .annotations()
        .iter()
        .map(|a| match &a.item {
            RenderItem::Annotation { text } => text.clone(),
            _ => unreachable!(),
        })
        .collect();
    for a in &lecture.annotations {
        assert!(texts.contains(&a.text), "missing annotation {:?}", a.text);
    }
}

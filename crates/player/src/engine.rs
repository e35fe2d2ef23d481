//! The playback engine: demux, clock, script execution.

use lod_asf::{AsfError, AsfFile, License, MediaSample, Reassembler, ScriptCommandList};
use lod_media::{MediaClock, Ticks};

use crate::renderer::{RenderItem, RenderTrace, RenderedItem};

/// Stream-number conventions shared with `lod-encoder`.
const VIDEO_STREAM: u16 = 1;
const AUDIO_STREAM: u16 = 2;

/// A loaded piece of content, ready to play.
#[derive(Debug)]
pub struct PlayerEngine {
    samples: Vec<MediaSample>,
    script: ScriptCommandList,
    duration: u64,
}

impl PlayerEngine {
    /// Loads content: verifies DRM (license required iff protected),
    /// reassembles every packet into media samples.
    ///
    /// # Errors
    ///
    /// [`AsfError::LicenseRejected`] for protected content without a valid
    /// license, or any parse-level error from reassembly.
    pub fn load(mut file: AsfFile, license: Option<&License>) -> Result<Self, AsfError> {
        if let Some(drm) = &file.drm {
            match license {
                Some(l) => {
                    drm.verify(l)?;
                    file.unprotect(l)?;
                }
                None => {
                    return Err(AsfError::LicenseRejected {
                        key_id: drm.key_id.clone(),
                    })
                }
            }
        }
        let mut reasm = Reassembler::new();
        for p in &file.packets {
            reasm.push_packet(p)?;
        }
        let samples = reasm.take_completed();
        let duration = file.props.play_duration.max(file.last_presentation_time());
        Ok(Self {
            samples,
            script: file.script,
            duration,
        })
    }

    /// Content duration in ticks.
    pub fn duration(&self) -> u64 {
        self.duration
    }

    /// Number of media samples.
    pub fn sample_count(&self) -> usize {
        self.samples.len()
    }

    /// The script commands.
    pub fn script(&self) -> &ScriptCommandList {
        &self.script
    }

    /// Ideal local playback: every sample and script command renders at
    /// exactly its presentation time (wall = pres). This is the reference
    /// trace that networked playback is compared against.
    pub fn render_ideal(&self) -> RenderTrace {
        let mut trace = RenderTrace::new();
        for s in &self.samples {
            trace.push(RenderedItem {
                wall_time: s.pres_time,
                pres_time: s.pres_time,
                item: sample_item(s),
            });
        }
        for c in self.script.commands() {
            trace.push(RenderedItem {
                wall_time: c.time,
                pres_time: c.time,
                item: script_item(&c.kind, &c.param),
            });
        }
        let mut items: Vec<RenderedItem> = trace.items().to_vec();
        items.sort_by_key(|a| a.wall_time);
        let mut sorted = RenderTrace::new();
        sorted.extend(items);
        sorted
    }

    /// Starts an interactive playback anchored at wall time `wall_now`.
    pub fn play(&self, wall_now: u64) -> Playback<'_> {
        let mut samples: Vec<&MediaSample> = self.samples.iter().collect();
        samples.sort_by_key(|s| (s.pres_time, s.stream));
        Playback {
            engine: self,
            samples,
            next_sample: 0,
            last_media: None,
            clock: MediaClock::start_at(Ticks(wall_now)),
            trace: RenderTrace::new(),
        }
    }
}

fn sample_item(s: &MediaSample) -> RenderItem {
    match s.stream {
        VIDEO_STREAM => RenderItem::VideoFrame {
            bytes: s.data.len(),
        },
        AUDIO_STREAM => RenderItem::AudioBlock {
            bytes: s.data.len(),
        },
        _ => RenderItem::Image {
            bytes: s.data.len(),
        },
    }
}

fn script_item(kind: &str, param: &str) -> RenderItem {
    match kind {
        "slide" => RenderItem::SlideChange { uri: param.into() },
        "annotation" => RenderItem::Annotation { text: param.into() },
        _ => RenderItem::Script {
            kind: kind.into(),
            param: param.into(),
        },
    }
}

/// An in-progress interactive playback session.
#[derive(Debug)]
pub struct Playback<'a> {
    engine: &'a PlayerEngine,
    samples: Vec<&'a MediaSample>,
    next_sample: usize,
    /// Media time of the previous tick (`None` before the first tick).
    last_media: Option<u64>,
    clock: MediaClock,
    trace: RenderTrace,
}

impl Playback<'_> {
    /// Current media time at wall time `now`.
    pub fn media_time(&self, now: u64) -> u64 {
        self.clock.media_time(Ticks(now)).0
    }

    /// Everything rendered so far.
    pub fn trace(&self) -> &RenderTrace {
        &self.trace
    }

    /// Whether playback has consumed all content.
    pub fn is_finished(&self, now: u64) -> bool {
        self.next_sample >= self.samples.len() && self.media_time(now) >= self.engine.duration
    }

    /// Pauses at wall time `now`.
    pub fn pause(&mut self, now: u64) {
        self.clock.pause(Ticks(now));
    }

    /// Resumes at wall time `now`.
    pub fn resume(&mut self, now: u64) {
        self.clock.resume(Ticks(now));
    }

    /// Seeks to media time `target` at wall time `now`. Items between the
    /// old and new positions are skipped (not rendered); the current slide
    /// is re-rendered so the screen is correct after the jump.
    pub fn seek(&mut self, now: u64, target: u64) {
        self.clock.seek(Ticks(now), Ticks(target));
        self.next_sample = self.samples.partition_point(|s| s.pres_time < target);
        self.last_media = Some(target);
        // Restore the slide that should be visible at the target.
        if let Some(cmd) = self.engine.script.current_of_kind("slide", target) {
            self.trace.push(RenderedItem {
                wall_time: now,
                pres_time: cmd.time,
                item: RenderItem::SlideChange {
                    uri: cmd.param.clone(),
                },
            });
        }
    }

    /// Advances to wall time `now`, rendering everything due. Returns the
    /// newly rendered items.
    pub fn tick(&mut self, now: u64) -> Vec<RenderedItem> {
        let media_now = self.media_time(now);
        let mut out = Vec::new();
        // Media samples due.
        while self.next_sample < self.samples.len() {
            let s = self.samples[self.next_sample];
            if s.pres_time > media_now {
                break;
            }
            out.push(RenderedItem {
                wall_time: now,
                pres_time: s.pres_time,
                item: sample_item(s),
            });
            self.next_sample += 1;
        }
        // Script commands due: on the first tick everything with
        // time ≤ media_now (including t = 0); afterwards the half-open
        // window (last_media, media_now].
        let due: Vec<_> = match self.last_media {
            None => self
                .engine
                .script
                .commands()
                .iter()
                .filter(|c| c.time <= media_now)
                .cloned()
                .collect(),
            Some(prev) => self.engine.script.fired_between(prev, media_now).to_vec(),
        };
        for c in &due {
            out.push(RenderedItem {
                wall_time: now,
                pres_time: c.time,
                item: script_item(&c.kind, &c.param),
            });
        }
        self.last_media = Some(media_now);
        self.trace.extend(out.clone());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lod_asf::{FileProperties, Packetizer, ScriptCommand, StreamKind, StreamProperties};

    fn content(protect: Option<&License>) -> AsfFile {
        let mut pk = Packetizer::new(300).unwrap();
        for i in 0..20u64 {
            pk.push(&MediaSample::new(1, i * 5_000_000, vec![1; 400]));
        }
        for i in 0..10u64 {
            pk.push(&MediaSample::new(2, i * 10_000_000, vec![2; 100]));
        }
        let mut script = ScriptCommandList::new();
        script.push(ScriptCommand::new(0, "slide", "d/s0.png"));
        script.push(ScriptCommand::new(40_000_000, "slide", "d/s1.png"));
        script.push(ScriptCommand::new(45_000_000, "annotation", "look here"));
        let mut f = AsfFile {
            props: FileProperties {
                file_id: 1,
                created: 0,
                packet_size: 300,
                play_duration: 100_000_000,
                preroll: 0,
                broadcast: false,
                max_bitrate: 100_000,
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
        };
        if let Some(l) = protect {
            f.protect(l);
        }
        f
    }

    #[test]
    fn load_rebuilds_samples() {
        let engine = PlayerEngine::load(content(None), None).unwrap();
        assert_eq!(engine.sample_count(), 30);
        assert_eq!(engine.duration(), 100_000_000);
    }

    #[test]
    fn drm_requires_license() {
        let lic = License::new("k", 5);
        let f = content(Some(&lic));
        assert!(matches!(
            PlayerEngine::load(f.clone(), None),
            Err(AsfError::LicenseRejected { .. })
        ));
        assert!(matches!(
            PlayerEngine::load(f.clone(), Some(&License::new("k", 6))),
            Err(AsfError::LicenseRejected { .. })
        ));
        let engine = PlayerEngine::load(f, Some(&lic)).unwrap();
        assert_eq!(engine.sample_count(), 30);
    }

    #[test]
    fn ideal_render_is_time_sorted_and_complete() {
        let engine = PlayerEngine::load(content(None), None).unwrap();
        let trace = engine.render_ideal();
        assert_eq!(trace.len(), 30 + 3);
        let walls: Vec<u64> = trace.items().iter().map(|i| i.wall_time).collect();
        let mut sorted = walls.clone();
        sorted.sort_unstable();
        assert_eq!(walls, sorted);
        assert!(trace.items().iter().all(|i| i.wall_time == i.pres_time));
    }

    #[test]
    fn interactive_playback_renders_in_order() {
        let engine = PlayerEngine::load(content(None), None).unwrap();
        let mut pb = engine.play(1_000_000_000);
        let mut rendered = 0;
        for step in 0..=25u64 {
            rendered += pb.tick(1_000_000_000 + step * 5_000_000).len();
        }
        assert_eq!(rendered, 33);
        assert!(pb.is_finished(1_000_000_000 + 130_000_000));
        assert_eq!(pb.trace().slide_changes().len(), 2);
        assert_eq!(pb.trace().annotations().len(), 1);
    }

    #[test]
    fn pause_holds_rendering() {
        let engine = PlayerEngine::load(content(None), None).unwrap();
        let mut pb = engine.play(0);
        pb.tick(10_000_000);
        pb.pause(10_000_000);
        assert!(pb.tick(90_000_000).is_empty());
        pb.resume(90_000_000);
        assert!(!pb.tick(120_000_000).is_empty());
    }

    #[test]
    fn seek_restores_current_slide() {
        let engine = PlayerEngine::load(content(None), None).unwrap();
        let mut pb = engine.play(0);
        pb.tick(1_000_000);
        pb.seek(2_000_000, 50_000_000);
        // Slide s1 (changed at 40 ms) must be visible after seeking to 50 ms.
        assert_eq!(pb.trace().slide_at(2_000_000), Some("d/s1.png"));
        // Items between are skipped: next tick renders only from 50 ms on.
        let items = pb.tick(3_000_000);
        assert!(items.iter().all(|i| i.pres_time >= 50_000_000));
    }

    #[test]
    fn seek_backwards_replays() {
        let engine = PlayerEngine::load(content(None), None).unwrap();
        let mut pb = engine.play(0);
        pb.tick(100_000_000); // render everything
        let before = pb.trace().len();
        pb.seek(100_000_001, 0);
        pb.tick(200_000_000);
        assert!(pb.trace().len() > before);
    }
}

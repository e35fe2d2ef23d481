//! The encoder: raw frames in, rate-controlled encoded samples out.

use lod_asf::MediaSample;
use lod_media::{CodecRegistry, MediaKind, Ticks};
use serde::{Deserialize, Serialize};

use crate::profile::BandwidthProfile;
use crate::source::{synth_bytes, RawFrame};

/// Stream number conventions used across the system.
pub const VIDEO_STREAM: u16 = 1;
/// Audio stream number.
pub const AUDIO_STREAM: u16 = 2;
/// Slide-image stream number.
pub const SLIDE_STREAM: u16 = 3;

/// Counters the encoder accumulates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncoderStats {
    /// Raw frames offered.
    pub frames_in: u64,
    /// Frames actually encoded.
    pub frames_encoded: u64,
    /// Frames dropped to honour the profile's frame rate.
    pub frames_dropped: u64,
    /// Encoded payload bytes produced.
    pub bytes_out: u64,
}

/// A profile-driven encoder for one audio + one video elementary stream.
#[derive(Debug)]
pub struct Encoder {
    profile: BandwidthProfile,
    registry: CodecRegistry,
    video_pattern: Vec<u32>,
    video_index: usize,
    /// Next video capture time that will be accepted (frame-rate governor).
    next_video_accept: Ticks,
    seed: u64,
    stats: EncoderStats,
}

impl Encoder {
    /// An encoder configured by `profile`.
    pub fn new(profile: BandwidthProfile) -> Self {
        let registry = CodecRegistry::builtin();
        let video_pattern = if profile.has_video() {
            let codec = registry
                .get(profile.codec_for(MediaKind::Video))
                .expect("profile codecs exist in the registry");
            // One keyframe period of sizes, scaled to the profile's own
            // frame rate rather than the codec default.
            let period = codec.keyframe_interval().max(1);
            let spec_sizes = codec.frame_sizes(period, profile.video_bitrate());
            let scale = f64::from(codec.frame_rate()) / f64::from(profile.frame_rate().max(1));
            spec_sizes
                .iter()
                .map(|&s| ((f64::from(s) * scale).round() as u32).max(1))
                .collect()
        } else {
            Vec::new()
        };
        Self {
            profile,
            registry,
            video_pattern,
            video_index: 0,
            next_video_accept: Ticks::ZERO,
            seed: 0,
            stats: EncoderStats::default(),
        }
    }

    /// The configured profile.
    pub fn profile(&self) -> &BandwidthProfile {
        &self.profile
    }

    /// Encoder statistics so far.
    pub fn stats(&self) -> EncoderStats {
        self.stats
    }

    /// Video quality score in \[0, 1\] delivered by this configuration.
    pub fn video_quality(&self) -> f64 {
        if !self.profile.has_video() {
            return 0.0;
        }
        self.registry
            .get(self.profile.codec_for(MediaKind::Video))
            .map(|c| c.quality_at(self.profile.video_bitrate()))
            .unwrap_or(0.0)
    }

    /// Encodes one raw frame. Returns `None` when the frame was dropped
    /// (video frame-rate governor, or video offered to an audio-only
    /// profile).
    pub fn encode(&mut self, frame: &RawFrame) -> Option<MediaSample> {
        self.stats.frames_in += 1;
        match frame.kind {
            MediaKind::Video => {
                if !self.profile.has_video() || frame.time < self.next_video_accept {
                    self.stats.frames_dropped += 1;
                    return None;
                }
                self.next_video_accept = frame.time
                    + lod_media::TickDuration(
                        lod_media::TICKS_PER_SECOND / u64::from(self.profile.frame_rate()),
                    );
                let size = self.video_pattern[self.video_index % self.video_pattern.len()];
                self.video_index += 1;
                self.seed += 1;
                self.stats.frames_encoded += 1;
                self.stats.bytes_out += u64::from(size);
                Some(MediaSample::new(
                    VIDEO_STREAM,
                    frame.time.0,
                    synth_bytes(self.seed, size as usize),
                ))
            }
            MediaKind::Audio => {
                let bytes =
                    (self.profile.audio_bitrate() / 8) as f64 * frame.duration.as_secs_f64();
                let size = (bytes.round() as usize).max(1);
                self.seed += 1;
                self.stats.frames_encoded += 1;
                self.stats.bytes_out += size as u64;
                Some(MediaSample::new(
                    AUDIO_STREAM,
                    frame.time.0,
                    synth_bytes(self.seed, size),
                ))
            }
            _ => {
                self.stats.frames_dropped += 1;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{AudioCaptureDevice, CaptureSource, VideoCaptureDevice};

    fn encode_seconds(profile: &str, secs: u64) -> (Encoder, Vec<MediaSample>) {
        let profile = BandwidthProfile::by_name(profile).unwrap();
        let mut enc = Encoder::new(profile);
        let mut cam = VideoCaptureDevice::new(640, 480, 30);
        let mut mic = AudioCaptureDevice::new(16_000, 100);
        let until = Ticks::from_secs(secs);
        let mut out = Vec::new();
        loop {
            let mut any = false;
            if let Some(f) = cam.next_frame(until) {
                any = true;
                out.extend(enc.encode(&f));
            }
            if let Some(f) = mic.next_frame(until) {
                any = true;
                out.extend(enc.encode(&f));
            }
            if !any {
                break;
            }
        }
        (enc, out)
    }

    #[test]
    fn output_rate_matches_profile() {
        let (enc, out) = encode_seconds("DSL/cable (256k)", 10);
        let bytes: u64 = out.iter().map(|s| s.data.len() as u64).sum();
        let rate = bytes as f64 * 8.0 / 10.0;
        let target = enc.profile().total_bitrate() as f64;
        let err = (rate - target).abs() / target;
        assert!(err < 0.10, "rate {rate} vs target {target}");
    }

    #[test]
    fn frame_rate_governor_drops_frames() {
        // Camera at 30 fps, 56k profile wants 7 fps.
        let (enc, _) = encode_seconds("56k modem", 5);
        let s = enc.stats();
        assert!(s.frames_dropped > s.frames_encoded);
    }

    #[test]
    fn audio_only_profile_rejects_video() {
        let (_, out) = encode_seconds("28.8k modem (audio only)", 2);
        assert!(out.iter().all(|s| s.stream == AUDIO_STREAM));
    }

    #[test]
    fn quality_increases_with_profile() {
        let q: Vec<f64> = BandwidthProfile::all()
            .into_iter()
            .filter(|p| p.has_video())
            .map(|p| Encoder::new(p).video_quality())
            .collect();
        for w in q.windows(2) {
            assert!(w[1] >= w[0], "quality not monotone: {q:?}");
        }
    }

    #[test]
    fn keyframes_visible_in_sizes() {
        let (_, out) = encode_seconds("LAN/T1 (1.5M)", 2);
        let video: Vec<usize> = out
            .iter()
            .filter(|s| s.stream == VIDEO_STREAM)
            .map(|s| s.data.len())
            .collect();
        let max = *video.iter().max().unwrap();
        let min = *video.iter().min().unwrap();
        assert!(max > min * 3, "keyframe structure missing: {max} vs {min}");
    }

    #[test]
    fn samples_timestamped_monotonically_per_stream() {
        let (_, out) = encode_seconds("dual ISDN (128k)", 3);
        for stream in [VIDEO_STREAM, AUDIO_STREAM] {
            let times: Vec<u64> = out
                .iter()
                .filter(|s| s.stream == stream)
                .map(|s| s.pres_time)
                .collect();
            let mut sorted = times.clone();
            sorted.sort_unstable();
            assert_eq!(times, sorted);
        }
    }
}

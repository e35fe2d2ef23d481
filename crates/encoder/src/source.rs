//! Media sources: synthetic capture devices.
//!
//! §2.5: "User can either encode a media file (video/audio) or use attached
//! devices (video camera or microphone) to produce the orchestrated media
//! contents." No camera exists here, so devices synthesize deterministic
//! frame descriptors: correct timing, correct raw sizes, reproducible
//! pseudo-content bytes (seeded xorshift), which is everything the encoder
//! and packetizer downstream actually consume.

use lod_media::{MediaKind, TickDuration, Ticks, TICKS_PER_SECOND};

/// One raw (uncompressed) frame or audio block from a source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFrame {
    /// Capture timestamp.
    pub time: Ticks,
    /// Time this frame covers (the source's frame/block interval).
    pub duration: TickDuration,
    /// Audio or video.
    pub kind: MediaKind,
    /// Uncompressed size in bytes.
    pub raw_bytes: u64,
}

/// A source of raw frames.
///
/// Implementors produce frames in non-decreasing time order; `None` means
/// the source is exhausted (capture devices never exhaust on their own —
/// stop pulling to stop them).
pub trait CaptureSource {
    /// Media kind this source produces.
    fn kind(&self) -> MediaKind;

    /// Produces the next frame at or after `until` is reached; returns
    /// `None` if the next frame would be *after* `until`.
    fn next_frame(&mut self, until: Ticks) -> Option<RawFrame>;
}

/// A synthetic video camera.
#[derive(Debug, Clone)]
pub struct VideoCaptureDevice {
    frame_interval: TickDuration,
    raw_frame_bytes: u64,
    next_time: Ticks,
}

impl VideoCaptureDevice {
    /// A camera producing `frame_rate` frames/s of `width`×`height` YUV
    /// 4:2:0 video.
    ///
    /// # Panics
    ///
    /// Panics if `frame_rate` is zero.
    pub fn new(width: u32, height: u32, frame_rate: u32) -> Self {
        assert!(frame_rate > 0, "frame rate must be positive");
        Self {
            frame_interval: TickDuration(TICKS_PER_SECOND / u64::from(frame_rate)),
            raw_frame_bytes: u64::from(width) * u64::from(height) * 3 / 2,
            next_time: Ticks::ZERO,
        }
    }
}

impl CaptureSource for VideoCaptureDevice {
    fn kind(&self) -> MediaKind {
        MediaKind::Video
    }

    fn next_frame(&mut self, until: Ticks) -> Option<RawFrame> {
        if self.next_time > until {
            return None;
        }
        let f = RawFrame {
            time: self.next_time,
            duration: self.frame_interval,
            kind: MediaKind::Video,
            raw_bytes: self.raw_frame_bytes,
        };
        self.next_time += self.frame_interval;
        Some(f)
    }
}

/// A synthetic microphone.
#[derive(Debug, Clone)]
pub struct AudioCaptureDevice {
    block_interval: TickDuration,
    block_bytes: u64,
    next_time: Ticks,
}

impl AudioCaptureDevice {
    /// A microphone producing PCM blocks of `block_ms` milliseconds at
    /// `sample_rate` Hz, 16-bit mono.
    ///
    /// # Panics
    ///
    /// Panics if `block_ms` is zero.
    pub fn new(sample_rate: u32, block_ms: u64) -> Self {
        assert!(block_ms > 0, "block length must be positive");
        Self {
            block_interval: TickDuration::from_millis(block_ms),
            block_bytes: u64::from(sample_rate) * 2 * block_ms / 1000,
            next_time: Ticks::ZERO,
        }
    }
}

impl CaptureSource for AudioCaptureDevice {
    fn kind(&self) -> MediaKind {
        MediaKind::Audio
    }

    fn next_frame(&mut self, until: Ticks) -> Option<RawFrame> {
        if self.next_time > until {
            return None;
        }
        let f = RawFrame {
            time: self.next_time,
            duration: self.block_interval,
            kind: MediaKind::Audio,
            raw_bytes: self.block_bytes,
        };
        self.next_time += self.block_interval;
        Some(f)
    }
}

/// One xorshift64 step: shifts and XORs with no constant, so it is linear
/// over GF(2) — `step(a ^ b) == step(a) ^ step(b)`.
const fn step(mut s: u64) -> u64 {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    s
}

/// The byte a state contributes to the content.
const fn emit(s: u64) -> u8 {
    (s >> 24) as u8
}

/// A cache line of emitted bytes: 64 of them as eight little-endian
/// words, aligned so one table entry is one line.
#[derive(Clone, Copy)]
#[repr(align(64))]
struct Line([u64; 8]);

impl Line {
    /// The line's 64 bytes in emission order.
    fn to_le_bytes(self) -> [u8; 64] {
        let mut bytes = [0u8; 64];
        for (dst, w) in bytes.chunks_exact_mut(8).zip(self.0) {
            dst.copy_from_slice(&w.to_le_bytes());
        }
        bytes
    }
}

/// Sixty-four steps at once. Both the state after sixty-four steps and
/// the 64 bytes emitted on the way (first byte lowest) are linear maps of
/// the state they start from, so each is the XOR of one table entry per
/// byte of that state: `[i][v]` is the image of the state whose byte `i`
/// is `v` and whose other bytes are zero. Each of the eight bytes XORs in
/// one whole line (8 × 256 × 64 B = 128 KiB of lines, which sit in L2).
struct SixtyFourSteps {
    state: [[u64; 256]; 8],
    bytes: [[Line; 256]; 8],
}

static SIXTY_FOUR_STEPS: SixtyFourSteps = {
    let mut t = SixtyFourSteps {
        state: [[0; 256]; 8],
        bytes: [[Line([0; 8]); 256]; 8],
    };
    let mut bit = 0;
    while bit < 64 {
        // The image of one basis state, from the scalar step itself.
        let (mut s, mut line) = (1u64 << bit, [0u64; 8]);
        let mut j = 0;
        while j < 64 {
            s = step(s);
            line[j / 8] |= (emit(s) as u64) << (8 * (j % 8));
            j += 1;
        }
        // Every byte value with this as its highest bit: the image of
        // the rest of the value, already filled in, XOR this one.
        let (i, top) = (bit / 8, 1usize << (bit % 8));
        let mut rest = 0;
        while rest < top {
            t.state[i][top | rest] = t.state[i][rest] ^ s;
            let mut w = 0;
            while w < 8 {
                t.bytes[i][top | rest].0[w] = t.bytes[i][rest].0[w] ^ line[w];
                w += 1;
            }
            rest += 1;
        }
        bit += 1;
    }
    t
};

/// The state sixty-four steps after `state`, and the 64 bytes emitted on
/// the way as one line.
#[inline]
fn sixty_four_steps(state: u64) -> (u64, Line) {
    let (mut next, mut line) = (0, [0u64; 8]);
    for (i, v) in state.to_le_bytes().into_iter().enumerate() {
        next ^= SIXTY_FOUR_STEPS.state[i][usize::from(v)];
        let entry = &SIXTY_FOUR_STEPS.bytes[i][usize::from(v)].0;
        for (w, e) in line.iter_mut().zip(entry) {
            *w ^= e;
        }
    }
    (next, Line(line))
}

/// Deterministic pseudo-content: `len` bytes derived from `seed` (used to
/// fill encoded samples so DRM and packetization operate on real data).
///
/// One byte per xorshift64 step, produced sixty-four steps at a time (see
/// `SixtyFourSteps`). The `len % 64` tail is the start of one more line:
/// nothing reads the state after it.
pub fn synth_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut out = vec![0u8; len];
    let mut lines = out.chunks_exact_mut(64);
    for chunk in &mut lines {
        let (next, line) = sixty_four_steps(state);
        chunk.copy_from_slice(&line.to_le_bytes());
        state = next;
    }
    let tail = lines.into_remainder();
    if !tail.is_empty() {
        let n = tail.len();
        tail.copy_from_slice(&sixty_four_steps(state).1.to_le_bytes()[..n]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn camera_produces_at_frame_rate() {
        let mut cam = VideoCaptureDevice::new(320, 240, 25);
        let mut frames = Vec::new();
        while let Some(f) = cam.next_frame(Ticks::from_secs(1)) {
            frames.push(f);
        }
        // 25 fps over [0, 1s] inclusive of t=1s boundary frame.
        assert_eq!(frames.len(), 26);
        assert_eq!(frames[0].time, Ticks::ZERO);
        assert_eq!(frames[1].time.0 - frames[0].time.0, 400_000);
        assert_eq!(frames[0].raw_bytes, 320 * 240 * 3 / 2);
    }

    #[test]
    fn microphone_blocks() {
        let mut mic = AudioCaptureDevice::new(16_000, 100);
        let f = mic.next_frame(Ticks::from_secs(1)).unwrap();
        // 100 ms at 16 kHz 16-bit mono = 3200 bytes.
        assert_eq!(f.raw_bytes, 3_200);
        assert_eq!(mic.kind(), MediaKind::Audio);
    }

    #[test]
    fn until_gates_production() {
        let mut cam = VideoCaptureDevice::new(160, 120, 10);
        assert!(cam.next_frame(Ticks::ZERO).is_some());
        // Next frame is at 100 ms; not yet due at 50 ms.
        assert!(cam.next_frame(Ticks::from_millis(50)).is_none());
        assert!(cam.next_frame(Ticks::from_millis(100)).is_some());
    }

    #[test]
    fn synth_bytes_deterministic() {
        assert_eq!(synth_bytes(1, 32), synth_bytes(1, 32));
        assert_ne!(synth_bytes(1, 32), synth_bytes(2, 32));
        assert_eq!(synth_bytes(7, 0).len(), 0);
    }

    /// The generator as it was before it used tables: the oracle the
    /// table kernel must match byte for byte.
    fn scalar_synth_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect()
    }

    /// Every tail residue on both sides of one 64-byte line and of a few
    /// (words included), over a few hundred seeds and the two extreme
    /// ones.
    #[test]
    fn table_kernel_matches_the_scalar_loop_around_word_boundaries() {
        let seeds = (0..300u64)
            .map(|i| i.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ i)
            .chain([0, u64::MAX]);
        for seed in seeds {
            for len in 0..=200 {
                assert_eq!(
                    synth_bytes(seed, len),
                    scalar_synth_bytes(seed, len),
                    "seed {seed:#x}, len {len}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn table_kernel_matches_the_scalar_loop(seed in any::<u64>(), len in 0usize..100_000) {
            prop_assert_eq!(synth_bytes(seed, len), scalar_synth_bytes(seed, len));
        }

        /// The tables hold linear maps: were an entry wrong, XOR-ing two
        /// states would not XOR their images, whatever seeds are in use.
        /// Every word of the line, and the state, of `a ^ b` is the XOR of
        /// those of `a` and of `b`.
        #[test]
        fn sixty_four_steps_is_linear(a in any::<u64>(), b in any::<u64>()) {
            let ((next_a, Line(line_a)), (next_b, Line(line_b))) =
                (sixty_four_steps(a), sixty_four_steps(b));
            let (next, Line(line)) = sixty_four_steps(a ^ b);
            prop_assert_eq!(next, next_a ^ next_b);
            for w in 0..8 {
                prop_assert_eq!(line[w], line_a[w] ^ line_b[w], "word {}", w);
            }
        }
    }
}

//! When a serving node may send a session's next packet: the
//! [`Playhead`] says when it is due, the [`session_pacer`] how fast the
//! due packets may leave. The origin's sessions and a relay's VoD
//! sessions and live subscribers share both.

use lod_simnet::TokenBucket;

/// A session's presentation clock against wall time: the wall tick of
/// presentation time zero, and since when the session has been paused.
/// Pause, resume and seek move it; the send loop asks [`Playhead::is_due`].
#[derive(Debug, Clone, Copy)]
pub struct Playhead {
    /// Wall tick at which presentation time zero plays.
    base_time: u64,
    /// Wall tick the current pause began.
    paused_at: Option<u64>,
}

impl Playhead {
    /// A running playhead showing presentation time `pres` at wall tick
    /// `now`.
    pub fn new(now: u64, pres: u64) -> Self {
        Self {
            base_time: now.saturating_sub(pres),
            paused_at: None,
        }
    }

    /// Stops the clock at `now` (a no-op when already paused).
    pub fn pause(&mut self, now: u64) {
        self.paused_at.get_or_insert(now);
    }

    /// Restarts the clock at `now`, shifted by the pause so playback
    /// continues where it stopped (a no-op when not paused).
    pub fn resume(&mut self, now: u64) {
        if let Some(at) = self.paused_at.take() {
            self.base_time += now.saturating_sub(at);
        }
    }

    /// Whether the clock is stopped.
    pub fn is_paused(&self) -> bool {
        self.paused_at.is_some()
    }

    /// Whether a packet stamped `send_time` is due at wall tick `now`.
    #[inline]
    pub fn is_due(&self, send_time: u64, now: u64) -> bool {
        send_time + self.base_time <= now
    }

    /// Re-anchors the clock so it shows presentation time `pres` at `now`
    /// (a seek). A paused clock stays paused, and its pause restarts at
    /// `now`: the resume that follows shifts by the time paused since
    /// the seek, not since the original pause.
    pub fn anchor(&mut self, now: u64, pres: u64) {
        self.base_time = now.saturating_sub(pres);
        if let Some(at) = &mut self.paused_at {
            *at = now;
        }
    }
}

/// The pacer of one session streaming at `bps`: twice the rate (at
/// least 64 kbit/s) so the client can build preroll, with a burst of
/// half a second at that rate and at least eight packets, so one 100 ms
/// driver step never starves it.
pub fn session_pacer(bps: u64, packet_size: u32) -> TokenBucket {
    let rate = bps.max(64_000) * 2;
    let burst = (rate / 8 / 2).max(u64::from(packet_size) * 8);
    TokenBucket::new(rate, burst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resume_shifts_by_the_pause() {
        let mut p = Playhead::new(100, 0);
        assert!(p.is_due(0, 100) && !p.is_due(10, 109));
        p.pause(110);
        p.pause(150); // a second Pause does not move the start
        p.resume(170);
        assert!(!p.is_paused());
        assert!(!p.is_due(20, 179) && p.is_due(20, 180));
        p.resume(500); // not paused: nothing to shift
        assert!(!p.is_due(20, 179));
    }
}

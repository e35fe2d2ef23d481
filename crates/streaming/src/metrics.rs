//! Client-side quality-of-experience counters.

use serde::{Deserialize, Serialize};

/// What a client experienced during one playback session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ClientMetrics {
    /// Ticks from Play request to first rendered sample.
    pub startup_ticks: u64,
    /// Number of rebuffering events after startup.
    pub stalls: u64,
    /// Total ticks spent stalled.
    pub stall_ticks: u64,
    /// Media samples rendered.
    pub samples_rendered: u64,
    /// Bytes of media payload received.
    pub bytes_received: u64,
    /// Samples that could never be completed (fragments lost).
    pub samples_lost: u64,
    /// Play re-requests issued by the retry layer after request timeouts.
    pub retries: u64,
    /// Outages survived (server traffic resumed after at least one retry).
    pub recoveries: u64,
    /// Total ticks from last server progress to the recovery, summed over
    /// all recoveries.
    pub recover_ticks_total: u64,
    /// Longest single recovery, in ticks.
    pub recover_ticks_max: u64,
    /// Whether the session gave up after exhausting its retry budget.
    pub abandoned: bool,
    /// `Wire::Busy` answers received (admission-control bounces).
    pub busy_bounces: u64,
    /// Whether the session was explicitly shed: every admission attempt
    /// ended in `Busy` and the bounce budget ran out. Distinct from
    /// `abandoned` (a timeout giving up on a *silent* server).
    pub shed: bool,
}

impl ClientMetrics {
    /// Fraction of wall time spent stalled over a playback of
    /// `playback_ticks` (0 when playback is empty).
    pub fn rebuffer_ratio(&self, playback_ticks: u64) -> f64 {
        if playback_ticks == 0 {
            0.0
        } else {
            self.stall_ticks as f64 / playback_ticks as f64
        }
    }

    /// Integer twin of [`ClientMetrics::rebuffer_ratio`]: stalled ticks
    /// per thousand ticks of playback (0 when playback is empty). Use
    /// this in seeded experiment reports — float formatting is not
    /// byte-stable, per-mille division is.
    pub fn rebuffer_permille(&self, playback_ticks: u64) -> u64 {
        self.stall_ticks
            .saturating_mul(1000)
            .checked_div(playback_ticks)
            .unwrap_or(0)
    }
}

lod_obs::counters! {
    /// What a server did over its lifetime.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct ServerMetrics {
        /// Sessions started (Play requests that found their content).
        pub sessions_served: u64 => counter "lod_server_sessions_served_total",
        /// Bytes of media payload pushed onto the wire.
        pub payload_bytes_sent: u64 => counter "lod_server_payload_bytes_total",
        /// Times a session stopped sending because the first-hop backlog
        /// exceeded the backpressure window.
        pub backpressure_pauses: u64 => counter "lod_server_backpressure_pauses_total",
        /// Sessions that subscribed to a live feed.
        pub live_subscribers: u64,
        /// Packet segments served to relays.
        pub segments_served: u64 => counter "lod_server_segments_served_total",
        /// Sessions dropped because they made no progress for longer than the
        /// idle timeout (crashed clients, never-resumed pauses).
        pub sessions_reaped: u64 => counter "lod_server_sessions_reaped_total",
        /// Play requests refused with `Wire::Busy` (admission control).
        pub sessions_shed: u64 => counter "lod_server_sessions_shed_total",
        /// Profile downshifts applied under sustained backlog.
        pub downshifts: u64 => counter "lod_server_downshifts_total",
        /// Profile upshifts after backlog drained and the hold-down passed.
        pub upshifts: u64 => counter "lod_server_upshifts_total",
        /// Distinct sessions that were downshifted at least once.
        pub sessions_degraded: u64 => counter "lod_server_sessions_degraded_total",
        /// Session checkpoints journaled for standby replication
        /// (exported only when failover is armed, by the run's report).
        pub checkpoints_emitted: u64,
        /// Replicated sessions restored at promotion (failover takeovers).
        pub sessions_migrated: u64,
        /// Plays admitted at packet index 0 — fresh starts. After a
        /// promotion this must stay 0 on the standby: every migrated session
        /// resumes from its checkpointed horizon, never from the top.
        pub plays_from_zero: u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebuffer_ratio() {
        let m = ClientMetrics {
            stall_ticks: 10,
            ..Default::default()
        };
        assert!((m.rebuffer_ratio(100) - 0.1).abs() < 1e-12);
        assert_eq!(m.rebuffer_ratio(0), 0.0);
    }

    #[test]
    fn rebuffer_permille_twin() {
        let m = ClientMetrics {
            stall_ticks: 10,
            ..Default::default()
        };
        assert_eq!(m.rebuffer_permille(100), 100);
        assert_eq!(m.rebuffer_permille(0), 0);
        // Absurd stall counts saturate the ×1000 instead of wrapping
        // (an undercount, never a panic or a garbage value).
        let wedged = ClientMetrics {
            stall_ticks: u64::MAX / 2,
            ..Default::default()
        };
        assert_eq!(wedged.rebuffer_permille(u64::MAX), 1);
    }
}

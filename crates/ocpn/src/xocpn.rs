//! XOCPN: the Extended Object Composition Petri Net (paper ref \[5\]).
//!
//! XOCPN "can specify temporal relationships for the presentation of
//! pre-orchestrated multimedia data, and … set up channels according to the
//! required QoS of the data". The compiled net augments the OCPN with one
//! *transmit* transition per media object, started eagerly at presentation
//! start (channel prefetch) and drawing from a bounded channel pool. A
//! playout transition needs both its *control* token (the temporal
//! structure) and its *data* token (transmission complete), so inadequate
//! bandwidth shows up as delayed playout — which is exactly the effect the
//! WMPS comparison experiments measure.

use std::collections::HashMap;

use lod_petri::{Marking, NetBuilder, PlaceId, TimedNet, TransitionId};
use serde::{Deserialize, Serialize};

use crate::build::{compile_rec, run};
use crate::schedule::PlayoutSchedule;
use crate::spec::PresentationSpec;

/// Channel quality-of-service declaration for one media object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelQos {
    /// Total transmission time in ticks (setup + transfer).
    pub transmit_ticks: u64,
}

impl ChannelQos {
    /// QoS from object size and channel bandwidth.
    ///
    /// `ticks_per_second` fixes the tick unit (use 1 for second-granular
    /// specs, `lod_media::TICKS_PER_SECOND` for 100 ns ticks).
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is zero.
    pub fn from_rate(
        bytes: u64,
        bandwidth_bps: u64,
        setup_ticks: u64,
        ticks_per_second: u64,
    ) -> Self {
        assert!(bandwidth_bps > 0, "bandwidth must be positive");
        let transfer = bytes.saturating_mul(8).saturating_mul(ticks_per_second) / bandwidth_bps;
        Self {
            transmit_ticks: setup_ticks + transfer,
        }
    }

    /// QoS with an explicit transmission time.
    pub fn from_ticks(transmit_ticks: u64) -> Self {
        Self { transmit_ticks }
    }
}

/// A compiled XOCPN: OCPN temporal structure plus prefetching transmit
/// transitions over a bounded channel pool.
#[derive(Debug)]
pub struct Xocpn {
    timed: TimedNet,
    media: HashMap<String, (TransitionId, u64)>,
    transmits: HashMap<String, (TransitionId, u64)>,
    entry: PlaceId,
    pool_place: PlaceId,
    pool_size: usize,
}

impl Xocpn {
    /// Compiles `spec` with per-object `qos`. Objects missing from `qos`
    /// get zero transmission time (local media). `channels` bounds how many
    /// transmissions may run concurrently (the channel pool).
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn compile(
        spec: &PresentationSpec,
        qos: &HashMap<String, ChannelQos>,
        channels: usize,
    ) -> Self {
        assert!(channels > 0, "at least one channel is required");
        let mut b = NetBuilder::new();
        let entry = b.place("entry");
        let pool = b.place("channel.pool");
        let mut durations: Vec<(TransitionId, u64)> = Vec::new();
        let mut media = HashMap::new();
        let mut transmits = HashMap::new();
        let mut ready_places: HashMap<String, PlaceId> = HashMap::new();

        // Transmission pipelines, forked eagerly from `entry` via `start`.
        let start = b.transition("start");
        b.arc_in(entry, start, 1).expect("fresh ids");
        for name in spec.interval_names() {
            let ticks = qos.get(name).map_or(0, |q| q.transmit_ticks);
            let trigger = b.place(format!("tx.{name}.trigger"));
            let ready = b.place(format!("tx.{name}.ready"));
            let t = b.transition(format!("tx.{name}"));
            b.arc_out(start, trigger, 1).expect("fresh ids");
            b.arc_in(trigger, t, 1).expect("fresh ids");
            // Occupy one channel for the duration of the transmission.
            b.arc_in(pool, t, 1).expect("fresh ids");
            b.arc_out(t, pool, 1).expect("fresh ids");
            b.arc_out(t, ready, 1).expect("fresh ids");
            durations.push((t, ticks));
            transmits.insert(format!("tx.{name}"), (t, ticks));
            ready_places.insert(name.to_string(), ready);
        }

        // Temporal structure; playout also consumes the data-ready token.
        let (first_in, _exit) =
            compile_rec(spec, &mut b, &mut durations, &mut media, &ready_places);
        b.arc_out(start, first_in, 1).expect("fresh ids");

        let mut timed = TimedNet::new(b.build());
        for (t, d) in durations {
            timed.set_duration(t, d);
        }
        Self {
            timed,
            media,
            transmits,
            entry,
            pool_place: pool,
            pool_size: channels,
        }
    }

    /// Executes the net and returns the playout schedule of the media
    /// objects (transmissions excluded; see
    /// [`Xocpn::transmission_schedule`]).
    pub fn schedule(&self) -> PlayoutSchedule {
        self.run(&self.media)
    }

    /// Schedule of the transmissions themselves (channel occupancy).
    pub fn transmission_schedule(&self) -> PlayoutSchedule {
        self.run(&self.transmits)
    }

    /// The underlying timed net.
    pub fn timed_net(&self) -> &TimedNet {
        &self.timed
    }

    fn run(&self, named: &HashMap<String, (TransitionId, u64)>) -> PlayoutSchedule {
        let mut m = Marking::new(self.timed.net().place_count());
        m.set(self.entry, 1);
        m.set(self.pool_place, self.pool_size as u64);
        run(&self.timed, m, named).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TemporalRelation;

    fn qos(pairs: &[(&str, u64)]) -> HashMap<String, ChannelQos> {
        pairs
            .iter()
            .map(|(n, t)| (n.to_string(), ChannelQos::from_ticks(*t)))
            .collect()
    }

    #[test]
    fn adequate_bandwidth_keeps_ocpn_schedule() {
        // b is scheduled at t=30; its transmission takes 10 and starts at 0,
        // so it is ready well before its slot.
        let spec = PresentationSpec::interval("a", 30).then(PresentationSpec::interval("b", 10));
        let x = Xocpn::compile(&spec, &qos(&[("a", 0), ("b", 10)]), 2);
        let s = x.schedule();
        assert_eq!(s.start_of("a"), Some(0));
        assert_eq!(s.start_of("b"), Some(30));
    }

    #[test]
    fn slow_transmission_delays_playout() {
        let spec = PresentationSpec::interval("a", 30).then(PresentationSpec::interval("b", 10));
        // b needs 50 ticks to arrive: playout slips from 30 to 50.
        let x = Xocpn::compile(&spec, &qos(&[("b", 50)]), 2);
        let s = x.schedule();
        assert_eq!(s.start_of("b"), Some(50));
    }

    #[test]
    fn first_object_waits_for_its_own_data() {
        let spec = PresentationSpec::interval("a", 30).then(PresentationSpec::interval("b", 10));
        let x = Xocpn::compile(&spec, &qos(&[("a", 20)]), 2);
        let s = x.schedule();
        assert_eq!(s.start_of("a"), Some(20));
        assert_eq!(s.start_of("b"), Some(50));
    }

    #[test]
    fn channel_pool_serializes_transmissions() {
        // Two parallel objects, one channel: transmissions run back to back.
        let spec = PresentationSpec::interval("a", 100).compose(
            TemporalRelation::Starts,
            PresentationSpec::interval("b", 100),
        );
        let x = Xocpn::compile(&spec, &qos(&[("a", 40), ("b", 40)]), 1);
        let tx = x.transmission_schedule();
        let starts: Vec<u64> = ["tx.a", "tx.b"]
            .iter()
            .filter_map(|n| tx.start_of(n))
            .collect();
        assert_eq!(starts.len(), 2);
        assert!(starts.contains(&0) && starts.contains(&40), "{starts:?}");
    }

    #[test]
    fn two_channels_transmit_in_parallel() {
        let spec = PresentationSpec::interval("a", 100).compose(
            TemporalRelation::Starts,
            PresentationSpec::interval("b", 100),
        );
        let x = Xocpn::compile(&spec, &qos(&[("a", 40), ("b", 40)]), 2);
        let tx = x.transmission_schedule();
        assert_eq!(tx.start_of("tx.a"), Some(0));
        assert_eq!(tx.start_of("tx.b"), Some(0));
    }

    #[test]
    fn qos_from_rate_computes_transfer() {
        // 1 MB over 1 Mbit/s = 8 s; with 1 tick per second and 2 setup.
        let q = ChannelQos::from_rate(1_000_000, 1_000_000, 2, 1);
        assert_eq!(q.transmit_ticks, 10);
    }

    #[test]
    fn missing_qos_means_local_media() {
        let spec = PresentationSpec::interval("a", 30);
        let x = Xocpn::compile(&spec, &HashMap::new(), 1);
        let s = x.schedule();
        assert_eq!(s.start_of("a"), Some(0));
    }
}

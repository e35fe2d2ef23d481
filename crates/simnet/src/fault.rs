//! Deterministic, scheduled fault injection: the one fault vocabulary of
//! every fabric.
//!
//! The paper's extended timed Petri net exists because OCPN/XOCPN cannot
//! model network transport failing under a distributed schedule (§1, §4).
//! This module is the failure half of that argument. A [`FaultPlan`] is a
//! *script* of faults — link flaps, loss bursts in permille, latency
//! spikes, node crashes — each pinned to a start tick and a duration. A
//! [`FaultInjector`] is the one scheduler: it strikes and heals the plan's
//! faults on a [`FaultTarget`] while a driver advances time. A fabric only
//! applies what struck and undoes what healed, composing the faults in
//! force by the one rule of [`ActiveFaults::compose`]: a
//! [`crate::Network`] rewrites its links, `lod-transport`'s fault engine
//! rules on each datagram. Nothing here draws a random number, so two
//! runs of the same plan over the same topology are identical byte for
//! byte — which is what lets CI gate on a chaos drill.

use serde::{Deserialize, Serialize};

use crate::network::NodeId;

/// One kind of injectable fault. Link faults break *both* directions of
/// the named pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fault {
    /// The a ↔ b link goes dark: sends fail, forwarded packets drop.
    LinkDown {
        /// One end of the link.
        a: NodeId,
        /// The other end.
        b: NodeId,
    },
    /// The a ↔ b link's loss rate is replaced by `loss_permille`.
    LossBurst {
        /// One end of the link.
        a: NodeId,
        /// The other end.
        b: NodeId,
        /// Per-packet loss in `[0, 1000)` ‰ during the burst.
        loss_permille: u16,
    },
    /// The a ↔ b link's propagation delay grows by `extra_ticks`.
    LatencySpike {
        /// One end of the link.
        a: NodeId,
        /// The other end.
        b: NodeId,
        /// Extra delay added to the link, in ticks.
        extra_ticks: u64,
    },
    /// Every link touching `node` goes dark (crash / reboot).
    NodeDown {
        /// The crashing node.
        node: NodeId,
    },
}

impl Fault {
    /// The nodes the fault names: a link's two ends, or the crashed node
    /// twice.
    pub(crate) fn ends(&self) -> (NodeId, NodeId) {
        match *self {
            Fault::LinkDown { a, b }
            | Fault::LossBurst { a, b, .. }
            | Fault::LatencySpike { a, b, .. } => (a, b),
            Fault::NodeDown { node } => (node, node),
        }
    }

    /// Whether the fault names `node`: as either end of its link, or as
    /// the node that crashes.
    pub fn names(&self, node: NodeId) -> bool {
        let (a, b) = self.ends();
        a == node || b == node
    }

    /// Whether the fault breaks the `src → dst` link: a link fault covers
    /// its pair in both directions, a node fault every link touching its
    /// node.
    pub(crate) fn covers_link(&self, src: NodeId, dst: NodeId) -> bool {
        match *self {
            Fault::NodeDown { node } => node == src || node == dst,
            _ => self.ends() == (src, dst) || self.ends() == (dst, src),
        }
    }

    /// The observability vocabulary of a fault: `(kind, a, b, detail)`
    /// with raw node indices and an integer magnitude (loss permille for
    /// bursts, extra ticks for latency spikes, 0 otherwise).
    fn obs_parts(&self) -> (&'static str, u64, u64, u64) {
        let (kind, detail) = match *self {
            Fault::LinkDown { .. } => ("link_down", 0),
            Fault::LossBurst { loss_permille, .. } => ("loss_burst", u64::from(loss_permille)),
            Fault::LatencySpike { extra_ticks, .. } => ("latency_spike", extra_ticks),
            Fault::NodeDown { .. } => ("node_down", 0),
        };
        let (a, b) = self.ends();
        (kind, a.index() as u64, b.index() as u64, detail)
    }
}

/// One scheduled fault: what, when, and for how long.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Tick at which the fault strikes.
    pub at: u64,
    /// Ticks until it heals (`u64::MAX` = never, e.g. a dead relay).
    pub duration: u64,
    /// What breaks.
    pub fault: Fault,
}

impl FaultEvent {
    /// Tick at which the fault heals (saturating; `u64::MAX` = never).
    pub fn until(&self) -> u64 {
        self.at.saturating_add(self.duration)
    }
}

/// A script of faults to replay against a topology.
///
/// Build one with the chainable scheduling methods, then hand it to a
/// [`FaultInjector`] to drive.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (injecting it is a no-op).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules an arbitrary event.
    pub fn schedule(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// The a ↔ b link flaps down at `at` for `duration` ticks.
    pub fn link_down(self, at: u64, duration: u64, a: NodeId, b: NodeId) -> Self {
        self.schedule(FaultEvent {
            at,
            duration,
            fault: Fault::LinkDown { a, b },
        })
    }

    /// The a ↔ b link loses `loss_permille` ‰ of its packets from `at`
    /// for `duration` ticks.
    ///
    /// # Panics
    ///
    /// Panics when `loss_permille` is 1000 or more, like
    /// [`crate::LinkSpec::with_loss`] for a loss outside `[0, 1)`.
    pub fn loss_burst(
        self,
        at: u64,
        duration: u64,
        a: NodeId,
        b: NodeId,
        loss_permille: u16,
    ) -> Self {
        assert!(
            loss_permille < 1000,
            "burst loss must be in [0, 1000) permille, got {loss_permille}"
        );
        self.schedule(FaultEvent {
            at,
            duration,
            fault: Fault::LossBurst {
                a,
                b,
                loss_permille,
            },
        })
    }

    /// The a ↔ b link's delay grows by `extra_ticks` from `at` for
    /// `duration` ticks.
    pub fn latency_spike(
        self,
        at: u64,
        duration: u64,
        a: NodeId,
        b: NodeId,
        extra_ticks: u64,
    ) -> Self {
        self.schedule(FaultEvent {
            at,
            duration,
            fault: Fault::LatencySpike { a, b, extra_ticks },
        })
    }

    /// `node` crashes at `at` for `duration` ticks (`u64::MAX` = for
    /// good): every link touching it goes dark.
    pub fn node_down(self, at: u64, duration: u64, node: NodeId) -> Self {
        self.schedule(FaultEvent {
            at,
            duration,
            fault: Fault::NodeDown { node },
        })
    }
}

/// What the faults in force do to one path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathFaults {
    /// A link or node fault covers the path.
    pub down: bool,
    /// The largest active loss burst (`None`: the path's base loss).
    pub loss_permille: Option<u16>,
    /// Every active latency spike, summed onto the base delay.
    pub extra_ticks: u64,
}

/// The faults a fabric has had struck and not yet healed.
#[derive(Debug, Clone, Default)]
pub struct ActiveFaults(Vec<Fault>);

impl ActiveFaults {
    /// Puts `fault` in force.
    pub fn strike(&mut self, fault: Fault) {
        self.0.push(fault);
    }

    /// Lifts one struck copy of `fault`.
    pub fn heal(&mut self, fault: Fault) {
        if let Some(i) = self.0.iter().position(|f| *f == fault) {
            self.0.remove(i);
        }
    }

    /// The composition rule every fabric applies to the active faults
    /// `covers` selects for one path: it is down while any of them is a
    /// link or node down, its loss is the largest burst, and its delay
    /// grows by every spike.
    pub fn compose(&self, covers: impl Fn(&Fault) -> bool) -> PathFaults {
        let mut path = PathFaults::default();
        for fault in self.0.iter().filter(|f| covers(f)) {
            match *fault {
                Fault::LinkDown { .. } | Fault::NodeDown { .. } => path.down = true,
                Fault::LossBurst { loss_permille, .. } => {
                    path.loss_permille = path.loss_permille.max(Some(loss_permille));
                }
                Fault::LatencySpike { extra_ticks, .. } => {
                    path.extra_ticks = path.extra_ticks.saturating_add(extra_ticks);
                }
            }
        }
        path
    }
}

/// A fabric a [`FaultInjector`] drives: it applies each fault that
/// strikes and undoes each that heals, composing what is in force with
/// [`ActiveFaults`].
pub trait FaultTarget {
    /// `fault` strikes.
    fn strike(&mut self, fault: Fault);
    /// `fault`, struck earlier, heals.
    fn heal(&mut self, fault: Fault);
}

/// Replays a [`FaultPlan`] against a fabric as a driver advances time —
/// the only code that compares a tick against a fault window.
///
/// Call [`FaultInjector::poll`] once per scheduling round *before*
/// delivering traffic; it heals every fault whose duration has elapsed,
/// strikes every fault whose start time has come, mirrors each transition
/// into the recorder, and returns the faults that struck this round (so
/// drivers can react — e.g. re-home the clients of a crashed relay).
#[derive(Debug)]
pub struct FaultInjector {
    /// Pending events sorted by start time descending (pop from the back).
    pending: Vec<FaultEvent>,
    /// Struck events, in strike order.
    active: Vec<FaultEvent>,
    obs: lod_obs::Recorder,
}

impl FaultInjector {
    /// An injector that will replay `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let mut pending = plan.events;
        // Stable: events sharing a start tick strike in insertion order.
        pending.sort_by_key(|e| std::cmp::Reverse(e.at));
        Self {
            pending,
            active: Vec::new(),
            obs: lod_obs::Recorder::disabled(),
        }
    }

    /// Mirrors every strike and heal into `recorder` as
    /// `fault_strike` / `fault_heal` events.
    pub fn with_recorder(mut self, recorder: lod_obs::Recorder) -> Self {
        self.obs = recorder;
        self
    }

    /// Faults currently in force.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Whether every scheduled fault has struck and healed.
    pub fn is_drained(&self) -> bool {
        self.pending.is_empty() && self.active.is_empty()
    }

    /// Applies every transition due at or before `now` to `target`;
    /// returns the faults that *struck* this call. Heals go first, so a
    /// fault ending exactly when another starts never overlaps it.
    pub fn poll(&mut self, target: &mut impl FaultTarget, now: u64) -> Vec<Fault> {
        let mut i = 0;
        while i < self.active.len() {
            if self.active[i].until() <= now {
                let healed = self.active.remove(i).fault;
                self.heal(target, healed, now);
            } else {
                i += 1;
            }
        }
        let mut struck = Vec::new();
        while self.pending.last().is_some_and(|e| e.at <= now) {
            let event = self.pending.pop().expect("peeked above");
            target.strike(event.fault);
            let (fault, a, b, detail) = event.fault.obs_parts();
            let fault = fault.to_string();
            self.obs.emit(
                now,
                lod_obs::Event::FaultStrike {
                    fault,
                    a,
                    b,
                    detail,
                },
            );
            struck.push(event.fault);
            if event.until() <= now {
                // Degenerate zero-length fault: heal immediately.
                self.heal(target, event.fault, now);
            } else {
                self.active.push(event);
            }
        }
        struck
    }

    fn heal(&self, target: &mut impl FaultTarget, fault: Fault, now: u64) {
        target.heal(fault);
        let (fault, a, b, _) = fault.obs_parts();
        let fault = fault.to_string();
        self.obs
            .emit(now, lod_obs::Event::FaultHeal { fault, a, b });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::network::Network;

    fn pair() -> (Network<u32>, NodeId, NodeId) {
        let mut net = Network::new(3);
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.connect_bidirectional(a, b, LinkSpec::lan().with_jitter(0));
        (net, a, b)
    }

    #[test]
    fn link_flap_strikes_and_heals() {
        let (mut net, a, b) = pair();
        let obs = lod_obs::Recorder::new();
        let plan = FaultPlan::new().link_down(100, 900, a, b);
        let mut inj = FaultInjector::new(plan).with_recorder(obs.clone());
        assert!(inj.poll(&mut net, 0).is_empty());
        assert!(net.is_link_up(a, b));
        let struck = inj.poll(&mut net, 100);
        assert_eq!(struck, vec![Fault::LinkDown { a, b }]);
        assert!(!net.is_link_up(a, b));
        assert!(!net.is_link_up(b, a));
        assert_eq!(inj.active_count(), 1);
        inj.poll(&mut net, 999);
        assert!(!net.is_link_up(a, b), "heals at 1000, not before");
        inj.poll(&mut net, 1000);
        assert!(net.is_link_up(a, b));
        assert!(net.is_link_up(b, a));
        assert!(inj.is_drained());
        // One strike, one heal, each at the tick it was applied.
        let log: Vec<(u64, bool)> = obs
            .events()
            .iter()
            .map(|r| (r.at, matches!(r.event, lod_obs::Event::FaultStrike { .. })))
            .collect();
        assert_eq!(log, vec![(100, true), (1000, false)]);
    }

    #[test]
    fn loss_burst_swaps_and_restores_the_spec() {
        let (mut net, a, b) = pair();
        let original = net.link_spec(a, b).unwrap();
        let mut inj = FaultInjector::new(FaultPlan::new().loss_burst(0, 500, a, b, 250));
        inj.poll(&mut net, 0);
        assert_eq!(net.link_spec(a, b).unwrap().loss, 0.25);
        assert_eq!(net.link_spec(b, a).unwrap().loss, 0.25);
        inj.poll(&mut net, 500);
        assert_eq!(net.link_spec(a, b).unwrap(), original);
        assert_eq!(net.link_spec(b, a).unwrap(), original);
    }

    #[test]
    fn every_burst_in_the_drills_is_its_old_float() {
        // Seeded drills used to schedule these as f64 literals; permille
        // over 1000 must land on the very same doubles.
        for (permille, loss) in [
            (20, 0.02),
            (50, 0.05),
            (250, 0.25),
            (350, 0.35),
            (999, 0.999),
        ] {
            let (mut net, a, b) = pair();
            let plan = FaultPlan::new().loss_burst(0, 10, a, b, permille);
            FaultInjector::new(plan).poll(&mut net, 0);
            assert_eq!(
                net.link_spec(a, b).unwrap().loss.to_bits(),
                f64::to_bits(loss)
            );
        }
    }

    #[test]
    fn latency_spike_adds_and_removes_delay() {
        let (mut net, a, b) = pair();
        let base = net.link_spec(a, b).unwrap().delay_ticks;
        let mut inj = FaultInjector::new(FaultPlan::new().latency_spike(0, 500, a, b, 7_000));
        inj.poll(&mut net, 0);
        assert_eq!(net.link_spec(a, b).unwrap().delay_ticks, base + 7_000);
        inj.poll(&mut net, 500);
        assert_eq!(net.link_spec(a, b).unwrap().delay_ticks, base);
    }

    #[test]
    fn node_down_darkens_every_touching_link() {
        let mut net: Network<u32> = Network::new(1);
        let a = net.add_node("a");
        let b = net.add_node("b");
        let c = net.add_node("c");
        net.connect_bidirectional(a, b, LinkSpec::lan());
        net.connect_bidirectional(b, c, LinkSpec::lan());
        net.connect_bidirectional(a, c, LinkSpec::lan());
        let mut inj = FaultInjector::new(FaultPlan::new().node_down(0, 100, b));
        inj.poll(&mut net, 0);
        assert!(!net.is_link_up(a, b));
        assert!(!net.is_link_up(b, a));
        assert!(!net.is_link_up(b, c));
        assert!(!net.is_link_up(c, b));
        assert!(net.is_link_up(a, c), "bystander link untouched");
        inj.poll(&mut net, 100);
        assert!(net.is_link_up(a, b) && net.is_link_up(b, c));
    }

    #[test]
    fn permanent_node_down_never_heals() {
        let (mut net, a, b) = pair();
        let mut inj = FaultInjector::new(FaultPlan::new().node_down(0, u64::MAX, b));
        inj.poll(&mut net, 0);
        inj.poll(&mut net, u64::MAX / 2);
        assert!(!net.is_link_up(a, b));
        assert_eq!(inj.active_count(), 1);
    }

    #[test]
    fn overlapping_flaps_heal_independently() {
        let (mut net, a, b) = pair();
        let plan = FaultPlan::new()
            .link_down(0, 1_000, a, b)
            .link_down(500, 1_000, a, b);
        let mut inj = FaultInjector::new(plan);
        inj.poll(&mut net, 0);
        inj.poll(&mut net, 500);
        // The first heals at 1000, but the second still covers the link.
        inj.poll(&mut net, 1_000);
        assert!(!net.is_link_up(a, b));
        assert!(!net.is_link_up(b, a));
        inj.poll(&mut net, 1_499);
        assert!(!net.is_link_up(a, b));
        inj.poll(&mut net, 1_500);
        assert!(net.is_link_up(a, b) && net.is_link_up(b, a));
        assert!(inj.is_drained());
    }

    #[test]
    fn an_overlapping_burst_and_spike_compose_and_heal_in_either_order() {
        // (burst window, spike window): the burst heals first, then the
        // spike does.
        for (burst, spike) in [((0, 1_000), (500, 1_000)), ((500, 1_000), (0, 1_000))] {
            let (mut net, a, b) = pair();
            let original = net.link_spec(a, b).unwrap();
            let plan = FaultPlan::new()
                .loss_burst(burst.0, burst.1, a, b, 250)
                .latency_spike(spike.0, spike.1, a, b, 7_000);
            let mut inj = FaultInjector::new(plan);
            inj.poll(&mut net, 0);
            inj.poll(&mut net, 500);
            let both = net.link_spec(a, b).unwrap();
            assert_eq!(both.loss, 0.25);
            assert_eq!(both.delay_ticks, original.delay_ticks + 7_000);
            // The first fault heals; the other still holds.
            inj.poll(&mut net, 1_000);
            let one = net.link_spec(b, a).unwrap();
            if burst.0 == 0 {
                assert_eq!(one.loss, original.loss);
                assert_eq!(one.delay_ticks, original.delay_ticks + 7_000);
            } else {
                assert_eq!(one.loss, 0.25);
                assert_eq!(one.delay_ticks, original.delay_ticks);
            }
            inj.poll(&mut net, 1_500);
            assert!(inj.is_drained());
            assert_eq!(net.link_spec(a, b).unwrap(), original);
            assert_eq!(net.link_spec(b, a).unwrap(), original);
        }
    }

    #[test]
    fn the_largest_burst_wins_and_spikes_add_up() {
        let (a, b) = (NodeId::from_index(0), NodeId::from_index(1));
        let mut active = ActiveFaults::default();
        for fault in [
            Fault::LossBurst {
                a,
                b,
                loss_permille: 50,
            },
            Fault::LossBurst {
                a,
                b,
                loss_permille: 350,
            },
            Fault::LatencySpike {
                a,
                b,
                extra_ticks: 5,
            },
            Fault::LatencySpike {
                a,
                b,
                extra_ticks: 7,
            },
        ] {
            active.strike(fault);
        }
        let all = |_: &Fault| true;
        let path = active.compose(all);
        assert_eq!(path.loss_permille, Some(350));
        assert_eq!(path.extra_ticks, 12);
        assert!(!path.down);
        active.heal(Fault::LossBurst {
            a,
            b,
            loss_permille: 350,
        });
        assert_eq!(active.compose(all).loss_permille, Some(50));
        active.strike(Fault::NodeDown { node: b });
        assert!(active.compose(all).down);
        assert!(!active.compose(|f| f.covers_link(a, a)).down);
    }

    #[test]
    fn faults_actually_break_traffic() {
        let (mut net, a, b) = pair();
        let mut inj = FaultInjector::new(FaultPlan::new().link_down(0, 10_000, a, b));
        inj.poll(&mut net, 0);
        assert!(net.send(a, b, 100, 1).is_err());
        inj.poll(&mut net, 10_000);
        net.send(a, b, 100, 2).unwrap();
        assert_eq!(net.advance_to(u64::MAX / 2).len(), 1);
    }
}

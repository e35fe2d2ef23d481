//! Deterministic fault injection for real datagram paths.
//!
//! Simnet can drop, delay and duplicate packets because it *is* the
//! network; a real `UdpTransport` on loopback is embarrassingly
//! reliable, so loss-repair machinery would go untested exactly where it
//! matters. This module closes that gap with a seeded chaos stage that
//! works on real traffic:
//!
//! * [`FaultSpec`] — the steady-state profile: loss / duplication / delay
//!   rates in permille.
//! * [`FaultEngine`] — the decision function. Splitmix64 keyed on
//!   `(seed, src, dst, nonce)` makes every verdict a pure function of
//!   the spec, the faults in force and the draw order: two runs with the
//!   same seed make the same decisions in the same order. The nonce
//!   increments per draw, so a retransmit of the same sequence gets a
//!   *fresh* coin — without this, a deterministically dropped frame would
//!   be dropped again on every repair attempt and NACK repair could never
//!   converge. `UdpTransport::set_egress_faults` applies it per
//!   *datagram* on the wire path, the level the repair sublayer needs
//!   (each lost datagram leaves a sequence gap to NACK).
//!
//! Timed faults are simnet's own vocabulary: the engine is a
//! [`FaultTarget`], so the [`lod_simnet::FaultInjector`] that schedules a
//! [`lod_simnet::FaultPlan`] strikes and heals the same faults here, and
//! the engine composes those in force by simnet's rule
//! ([`ActiveFaults::compose`]). A socket has no links, only nodes, so a
//! fault covers every datagram sent or received by a node it names. In
//! `relay_tree`, where every link has the silent router at one end, that
//! is exactly the traffic the link carries on simnet.

use lod_obs::splitmix64;
use lod_simnet::{ActiveFaults, Fault, FaultTarget, NodeId};

/// A seeded steady-state chaos profile for real datagram paths.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSpec {
    /// Seed of the decision stream.
    pub seed: u64,
    /// Steady-state per-datagram loss, in permille (‰).
    pub loss_permille: u16,
    /// Steady-state per-datagram duplication, in permille.
    pub dup_permille: u16,
    /// Steady-state per-datagram delay injection, in permille.
    pub delay_permille: u16,
    /// Extra ticks a delayed datagram is held.
    pub delay_ticks: u64,
}

impl FaultSpec {
    /// A steady Bernoulli loss profile.
    pub fn loss(seed: u64, loss_permille: u16) -> Self {
        Self {
            seed,
            loss_permille,
            ..Self::default()
        }
    }
}

/// What the engine decided for one datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Pass it through untouched.
    Deliver,
    /// Silently drop it.
    Drop,
    /// Deliver it twice.
    Duplicate,
    /// Deliver it after this many extra ticks.
    Delay(u64),
}

/// The seeded decision function applying a [`FaultSpec`] and the faults
/// struck on it.
#[derive(Debug, Clone)]
pub struct FaultEngine {
    spec: FaultSpec,
    nonce: u64,
    active: ActiveFaults,
}

impl FaultEngine {
    /// An engine at draw 0 of `spec`'s decision stream, with no fault in
    /// force.
    pub fn new(spec: FaultSpec) -> Self {
        Self {
            spec,
            nonce: 0,
            active: ActiveFaults::default(),
        }
    }

    /// The spec this engine applies.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// A uniform draw in `[0, 1000)` — one permille die roll.
    fn roll(&mut self, src: NodeId, dst: NodeId) -> u64 {
        let key = self
            .spec
            .seed
            .wrapping_add((src.index() as u64).wrapping_mul(0x0000_0100_0000_01B3))
            .wrapping_add((dst.index() as u64).wrapping_mul(0x517C_C1B7_2722_0A95))
            .wrapping_add(self.nonce);
        self.nonce += 1;
        splitmix64(key) % 1000
    }

    /// Decides the fate of one datagram from `src` to `dst`. Every call
    /// consumes exactly one draw of the decision stream, so the verdict
    /// sequence is reproducible for a given spec and fault schedule.
    pub fn action(&mut self, src: NodeId, dst: NodeId) -> FaultAction {
        let path = self.active.compose(|f| f.names(src) || f.names(dst));
        let roll = self.roll(src, dst);
        if path.down {
            return FaultAction::Drop;
        }
        let loss = u64::from(path.loss_permille.unwrap_or(self.spec.loss_permille));
        // One roll, three stacked bands: [0, loss) drops, the next
        // dup_permille duplicates, the next delay_permille delays.
        if roll < loss {
            return FaultAction::Drop;
        }
        if roll < loss + u64::from(self.spec.dup_permille) {
            return FaultAction::Duplicate;
        }
        if path.extra_ticks > 0 {
            return FaultAction::Delay(path.extra_ticks);
        }
        if roll < loss + u64::from(self.spec.dup_permille) + u64::from(self.spec.delay_permille) {
            return FaultAction::Delay(self.spec.delay_ticks);
        }
        FaultAction::Deliver
    }
}

impl FaultTarget for FaultEngine {
    fn strike(&mut self, fault: Fault) {
        self.active.strike(fault);
    }

    fn heal(&mut self, fault: Fault) {
        self.active.heal(fault);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lod_simnet::{FaultInjector, FaultPlan};

    fn nodes() -> (NodeId, NodeId) {
        (NodeId::from_index(0), NodeId::from_index(1))
    }

    #[test]
    fn same_seed_same_verdicts() {
        let (a, b) = nodes();
        let spec = FaultSpec {
            seed: 7,
            loss_permille: 300,
            dup_permille: 50,
            delay_permille: 50,
            delay_ticks: 1_000,
        };
        let mut e1 = FaultEngine::new(spec.clone());
        let mut e2 = FaultEngine::new(spec);
        let v1: Vec<FaultAction> = (0..200).map(|_| e1.action(a, b)).collect();
        let v2: Vec<FaultAction> = (0..200).map(|_| e2.action(a, b)).collect();
        assert_eq!(v1, v2);
        assert!(v1.contains(&FaultAction::Drop));
        assert!(v1.contains(&FaultAction::Deliver));
    }

    #[test]
    fn loss_rate_lands_near_the_spec() {
        let (a, b) = nodes();
        let mut e = FaultEngine::new(FaultSpec::loss(11, 100));
        let drops = (0..10_000)
            .filter(|_| e.action(a, b) == FaultAction::Drop)
            .count();
        assert!((600..=1_400).contains(&drops), "~10% of 10k, got {drops}");
    }

    #[test]
    fn retransmits_of_a_dropped_frame_get_fresh_coins() {
        // The property NACK repair depends on: a drop verdict is not
        // sticky per (src, dst) — the nonce advances, so a repeated send
        // eventually gets through.
        let (a, b) = nodes();
        let mut e = FaultEngine::new(FaultSpec::loss(3, 500));
        let verdicts: Vec<FaultAction> = (0..32).map(|_| e.action(a, b)).collect();
        assert!(verdicts.contains(&FaultAction::Deliver));
        assert!(verdicts.contains(&FaultAction::Drop));
    }

    #[test]
    fn struck_faults_override_the_steady_state() {
        let (a, b) = nodes();
        let plan = FaultPlan::new()
            .loss_burst(1_000, 1_000, a, b, 999)
            .latency_spike(3_000, 1_000, a, b, 777)
            .link_down(5_000, 1_000, a, b);
        let mut inj = FaultInjector::new(plan);
        let mut e = FaultEngine::new(FaultSpec::loss(5, 0));
        let mut at = |e: &mut FaultEngine, now| {
            inj.poll(e, now);
            e.action(a, b)
        };
        assert_eq!(at(&mut e, 0), FaultAction::Deliver, "before any window");
        let burst_drops = (0..20)
            .filter(|_| at(&mut e, 1_500) == FaultAction::Drop)
            .count();
        assert!(burst_drops >= 18, "99.9% burst loss, got {burst_drops}/20");
        assert_eq!(
            at(&mut e, 3_500),
            FaultAction::Delay(777),
            "latency spike adds ticks"
        );
        assert_eq!(at(&mut e, 5_500), FaultAction::Drop, "link down");
        assert_eq!(at(&mut e, 6_500), FaultAction::Deliver, "healed");
    }

    #[test]
    fn a_fault_covers_every_datagram_of_the_nodes_it_names() {
        // relay_tree's access link router ↔ student: on sockets it holds
        // every datagram the student sends or receives, and nothing else.
        let [router, relay, student, other] = [1, 2, 4, 5].map(NodeId::from_index);
        let mut e = FaultEngine::new(FaultSpec::loss(9, 0));
        e.strike(Fault::LinkDown {
            a: router,
            b: student,
        });
        assert_eq!(e.action(relay, student), FaultAction::Drop);
        assert_eq!(e.action(student, relay), FaultAction::Drop);
        assert_eq!(e.action(relay, other), FaultAction::Deliver);
        e.heal(Fault::LinkDown {
            a: router,
            b: student,
        });
        assert_eq!(e.action(relay, student), FaultAction::Deliver);
    }
}

//! Deterministic fault injection for real datagram paths.
//!
//! Simnet can drop, delay and duplicate packets because it *is* the
//! network; a real `UdpTransport` on loopback is embarrassingly
//! reliable, so loss-repair machinery would go untested exactly where it
//! matters. This module closes that gap with a seeded chaos stage that
//! works on real traffic:
//!
//! * [`FaultSpec`] — the chaos profile: steady-state loss / duplication
//!   / delay rates in permille, plus a reused [`lod_simnet::FaultPlan`]
//!   so the same burst-loss / latency-spike / link-down windows that
//!   drive simnet storms drive real sockets too.
//! * [`FaultEngine`] — the decision function. Splitmix64 keyed on
//!   `(seed, src, dst, nonce)` makes every verdict a pure function of
//!   the spec and the draw order: two runs with the same seed make the
//!   same decisions in the same order. The nonce increments per draw, so
//!   a retransmit of the same sequence gets a *fresh* coin — without
//!   this, a deterministically dropped frame would be dropped again on
//!   every repair attempt and NACK repair could never converge.
//!   `UdpTransport::set_egress_faults` applies it per *datagram* on the
//!   wire path, the level the repair sublayer needs (each lost datagram
//!   leaves a sequence gap to NACK).

use lod_obs::splitmix64;
use lod_simnet::{Fault, FaultPlan, NodeId};

/// A seeded chaos profile for real datagram paths.
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// Timed fault windows (burst loss, latency spikes, link/node down)
    /// reusing simnet's plan vocabulary, so one chaos spec drives both
    /// substrates.
    pub plan: FaultPlan,
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

/// The seeded decision function applying a [`FaultSpec`].
#[derive(Debug, Clone)]
pub struct FaultEngine {
    spec: FaultSpec,
    nonce: u64,
}

impl FaultEngine {
    /// An engine at draw 0 of `spec`'s decision stream.
    pub fn new(spec: FaultSpec) -> Self {
        Self { spec, nonce: 0 }
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

    /// Active plan windows touching the `src` → `dst` direction at
    /// `now`: the strongest loss override, any extra latency, and
    /// whether the path is administratively dead.
    fn plan_state(&self, now: u64, src: NodeId, dst: NodeId) -> (Option<u64>, u64, bool) {
        let mut burst_loss_permille = None;
        let mut extra_ticks_total = 0;
        let mut down = false;
        for ev in self.spec.plan.events() {
            if now < ev.at || now >= ev.until() {
                continue;
            }
            match ev.fault {
                Fault::LinkDown { a, b } => {
                    if (a == src && b == dst) || (a == dst && b == src) {
                        down = true;
                    }
                }
                Fault::NodeDown { node } => {
                    if node == src || node == dst {
                        down = true;
                    }
                }
                Fault::LossBurst { a, b, loss } => {
                    if (a == src && b == dst) || (a == dst && b == src) {
                        let p = (loss * 1000.0) as u64;
                        burst_loss_permille =
                            Some(burst_loss_permille.map_or(p, |prev: u64| prev.max(p)));
                    }
                }
                Fault::LatencySpike { a, b, extra_ticks } => {
                    if (a == src && b == dst) || (a == dst && b == src) {
                        extra_ticks_total += extra_ticks;
                    }
                }
            }
        }
        (burst_loss_permille, extra_ticks_total, down)
    }

    /// Decides the fate of one datagram from `src` to `dst` at `now`.
    /// Every call consumes exactly one draw of the decision stream, so
    /// the verdict sequence is reproducible for a given spec.
    pub fn action(&mut self, now: u64, src: NodeId, dst: NodeId) -> FaultAction {
        let (burst, spike_ticks, down) = self.plan_state(now, src, dst);
        let roll = self.roll(src, dst);
        if down {
            return FaultAction::Drop;
        }
        let loss = burst.unwrap_or(u64::from(self.spec.loss_permille));
        // One roll, three stacked bands: [0, loss) drops, the next
        // dup_permille duplicates, the next delay_permille delays.
        if roll < loss {
            return FaultAction::Drop;
        }
        if roll < loss + u64::from(self.spec.dup_permille) {
            return FaultAction::Duplicate;
        }
        if spike_ticks > 0 {
            return FaultAction::Delay(spike_ticks);
        }
        if roll < loss + u64::from(self.spec.dup_permille) + u64::from(self.spec.delay_permille) {
            return FaultAction::Delay(self.spec.delay_ticks);
        }
        FaultAction::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            plan: FaultPlan::new(),
        };
        let mut e1 = FaultEngine::new(spec.clone());
        let mut e2 = FaultEngine::new(spec);
        let v1: Vec<FaultAction> = (0..200).map(|_| e1.action(0, a, b)).collect();
        let v2: Vec<FaultAction> = (0..200).map(|_| e2.action(0, a, b)).collect();
        assert_eq!(v1, v2);
        assert!(v1.contains(&FaultAction::Drop));
        assert!(v1.contains(&FaultAction::Deliver));
    }

    #[test]
    fn loss_rate_lands_near_the_spec() {
        let (a, b) = nodes();
        let mut e = FaultEngine::new(FaultSpec::loss(11, 100));
        let drops = (0..10_000)
            .filter(|_| e.action(0, a, b) == FaultAction::Drop)
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
        let verdicts: Vec<FaultAction> = (0..32).map(|_| e.action(0, a, b)).collect();
        assert!(verdicts.contains(&FaultAction::Deliver));
        assert!(verdicts.contains(&FaultAction::Drop));
    }

    #[test]
    fn plan_windows_override_the_steady_state() {
        let (a, b) = nodes();
        let spec = FaultSpec {
            seed: 5,
            plan: FaultPlan::new()
                .loss_burst(1_000, 1_000, a, b, 0.999)
                .latency_spike(3_000, 1_000, a, b, 777)
                .link_down(5_000, 1_000, a, b),
            ..FaultSpec::default()
        };
        let mut e = FaultEngine::new(spec);
        assert_eq!(e.action(0, a, b), FaultAction::Deliver, "before any window");
        let burst_drops = (0..20)
            .filter(|_| e.action(1_500, a, b) == FaultAction::Drop)
            .count();
        assert!(burst_drops >= 18, "99.9% burst loss, got {burst_drops}/20");
        assert_eq!(
            e.action(3_500, a, b),
            FaultAction::Delay(777),
            "latency spike adds ticks"
        );
        assert_eq!(e.action(5_500, a, b), FaultAction::Drop, "link down");
        assert_eq!(e.action(6_500, a, b), FaultAction::Deliver, "healed");
    }
}

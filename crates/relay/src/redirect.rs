//! Play-time redirection and failover across the relay tier.
//!
//! The origin fronts the whole relay fleet: students always address their
//! Play at the origin, and a [`RedirectManager`] standing in front of the
//! origin's session logic answers with [`Wire::Redirect`] pointing at the
//! least-loaded healthy relay. When a relay dies mid-lecture, its students
//! are re-pointed at a surviving sibling (or the origin itself) and their
//! clients re-issue Play from their playback horizon.

use std::collections::{HashMap, HashSet};

use lod_simnet::NodeId;
use lod_streaming::wire::{ControlRequest, Wire};
use lod_transport::Transport;

/// Assigns sessions to relays and re-homes them on failure.
#[derive(Debug)]
pub struct RedirectManager {
    origin: NodeId,
    relays: Vec<NodeId>,
    failed: HashSet<NodeId>,
    /// client → relay (or origin) currently serving it.
    assignments: HashMap<NodeId, NodeId>,
    /// Seats per relay the manager will steer into (None = unbounded).
    relay_capacity: Option<usize>,
}

impl RedirectManager {
    /// A manager fronting `origin` with the given relay fleet.
    pub fn new(origin: NodeId, relays: Vec<NodeId>) -> Self {
        Self {
            origin,
            relays,
            failed: HashSet::new(),
            assignments: HashMap::new(),
            relay_capacity: None,
        }
    }

    /// Caps how many clients the manager steers at any one relay; a full
    /// fleet spills the overflow to the origin. Size this to the relays'
    /// own [`lod_streaming::AdmissionPolicy`] so steering and admission
    /// agree.
    pub fn with_relay_capacity(mut self, seats: usize) -> Self {
        assert!(seats > 0, "relay capacity must be positive");
        self.relay_capacity = Some(seats);
        self
    }

    /// The server fronting the fleet: the origin, or the standby it was
    /// re-fronted at.
    pub fn origin(&self) -> NodeId {
        self.origin
    }

    /// Relays still in service.
    pub fn healthy_relays(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.relays
            .iter()
            .copied()
            .filter(move |r| !self.failed.contains(r))
    }

    /// Where `client` was last pointed.
    pub fn assignment(&self, client: NodeId) -> Option<NodeId> {
        self.assignments.get(&client).copied()
    }

    /// Number of clients currently assigned to `target`.
    pub fn load(&self, target: NodeId) -> usize {
        self.assignments.values().filter(|&&t| t == target).count()
    }

    /// Whether `relay` has a free seat under the capacity cap, not
    /// counting `exclude`'s own assignment (a client re-checking the
    /// relay it already occupies must not evict itself).
    fn has_seat(&self, relay: NodeId, exclude: Option<NodeId>) -> bool {
        match self.relay_capacity {
            None => true,
            Some(cap) => {
                self.assignments
                    .iter()
                    .filter(|&(&c, &t)| t == relay && Some(c) != exclude)
                    .count()
                    < cap
            }
        }
    }

    /// The healthy relay carrying the fewest sessions (first in fleet
    /// order on ties), or the origin when every relay is down or full.
    fn least_loaded(&self) -> NodeId {
        self.least_loaded_excluding(None)
    }

    /// [`Self::least_loaded`] with one relay ruled out (the one that just
    /// answered Busy). An explicit fleet-order scan with a strict `<`:
    /// only a strictly lower load displaces the incumbent, so ties always
    /// resolve to the earliest relay in fleet order and seeded runs
    /// replay byte for byte.
    fn least_loaded_excluding(&self, skip: Option<NodeId>) -> NodeId {
        let mut best: Option<(NodeId, usize)> = None;
        for r in self.healthy_relays() {
            if Some(r) == skip || !self.has_seat(r, None) {
                continue;
            }
            let load = self.load(r);
            if best.is_none_or(|(_, b)| load < b) {
                best = Some((r, load));
            }
        }
        best.map_or(self.origin, |(r, _)| r)
    }

    /// Re-steers a client bounced with [`Wire::Busy`] by `busy` at the
    /// least-loaded healthy sibling with a free seat, returning the new
    /// target to name as the Busy `alternate`. `None` means no sibling
    /// can take it — the assignment is forgotten so the client's paced
    /// retry at the origin gets a fresh pick once capacity frees.
    pub fn reassign_busy(&mut self, client: NodeId, busy: NodeId) -> Option<NodeId> {
        let target = self.least_loaded_excluding(Some(busy));
        if target == self.origin {
            self.assignments.remove(&client);
            return None;
        }
        self.assignments.insert(client, target);
        Some(target)
    }

    /// Examines a message addressed to the origin *before* the origin's
    /// session logic sees it. Returns `true` when the message was consumed
    /// by answering with a redirect — the driver must then skip
    /// `StreamingServer::on_message` for it. Everything except a first
    /// Play from a student (relay fetches, control on origin-homed
    /// sessions) passes through.
    pub fn intercept(&mut self, net: &mut impl Transport<Wire>, from: NodeId, msg: &Wire) -> bool {
        if self.relays.contains(&from) {
            return false; // relay ↔ origin traffic is never redirected
        }
        let Wire::Request(ControlRequest::Play { .. }) = msg else {
            return false;
        };
        let target = match self.assignment(from) {
            // Respect a still-healthy earlier assignment (client
            // restarts) as long as the client still fits there.
            Some(t)
                if t == self.origin
                    || (!self.failed.contains(&t) && self.has_seat(t, Some(from))) =>
            {
                t
            }
            _ => self.least_loaded(),
        };
        if target == self.origin {
            // Nobody better to hand this to; let the origin serve it.
            self.assignments.insert(from, self.origin);
            return false;
        }
        self.assignments.insert(from, target);
        let msg = Wire::Redirect { to: target };
        let bytes = msg.wire_bytes(0);
        let _ = net.send_reliable(self.origin, from, bytes, msg);
        true
    }

    /// Marks `relay` failed and re-points every client it carried at the
    /// least-loaded survivor (or the origin). Returns the clients that
    /// were re-homed; the redirects are already on the wire.
    pub fn fail_relay(&mut self, net: &mut impl Transport<Wire>, relay: NodeId) -> Vec<NodeId> {
        if !self.failed.insert(relay) {
            return Vec::new();
        }
        let mut stranded: Vec<NodeId> = self
            .assignments
            .iter()
            .filter(|&(_, &t)| t == relay)
            .map(|(&c, _)| c)
            .collect();
        // HashMap order is not deterministic; redirect order decides who
        // lands on which survivor, and the whole simulation must replay
        // byte-for-byte under one seed.
        stranded.sort_unstable();
        for &client in &stranded {
            let target = self.least_loaded();
            self.assignments.insert(client, target);
            let msg = Wire::Redirect { to: target };
            let bytes = msg.wire_bytes(0);
            let _ = net.send_reliable(self.origin, client, bytes, msg);
        }
        stranded
    }

    /// Re-fronts the manager at a promoted `standby` after the origin
    /// itself fails. Clients homed *at the origin* (spilled or
    /// fallback assignments) are re-pointed at the standby and sent a
    /// redirect — from the standby, since the old origin can no longer
    /// speak. Relay-homed assignments stay put; the relays re-point
    /// their uplinks separately. Returns the re-homed clients in sorted
    /// order (the same determinism discipline as [`Self::fail_relay`]:
    /// redirect order must not depend on map iteration).
    pub fn retarget_origin(
        &mut self,
        net: &mut impl Transport<Wire>,
        standby: NodeId,
    ) -> Vec<NodeId> {
        let old = self.origin;
        self.origin = standby;
        let mut stranded: Vec<NodeId> = self
            .assignments
            .iter()
            .filter(|&(_, &t)| t == old)
            .map(|(&c, _)| c)
            .collect();
        stranded.sort_unstable();
        for &client in &stranded {
            self.assignments.insert(client, standby);
            let msg = Wire::Redirect { to: standby };
            let bytes = msg.wire_bytes(0);
            let _ = net.send_reliable(standby, client, bytes, msg);
        }
        stranded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lod_simnet::LinkSpec;
    use lod_simnet::Network;

    fn world() -> (Network<Wire>, NodeId, Vec<NodeId>, Vec<NodeId>) {
        let mut net = Network::new(7);
        let origin = net.add_node("origin");
        let relays: Vec<NodeId> = (0..2).map(|i| net.add_node(format!("relay{i}"))).collect();
        let students: Vec<NodeId> = (0..4)
            .map(|i| net.add_node(format!("student{i}")))
            .collect();
        for &s in &students {
            net.connect_bidirectional(origin, s, LinkSpec::lan());
        }
        (net, origin, relays, students)
    }

    fn play(name: &str) -> Wire {
        Wire::Request(ControlRequest::Play {
            content: name.into(),
            from: 0,
        })
    }

    #[test]
    fn spreads_players_across_relays() {
        let (mut net, origin, relays, students) = world();
        let mut mgr = RedirectManager::new(origin, relays.clone());
        for &s in &students {
            assert!(mgr.intercept(&mut net, s, &play("lec")));
        }
        assert_eq!(mgr.load(relays[0]), 2);
        assert_eq!(mgr.load(relays[1]), 2);
        // Four redirects went out on the wire.
        let redirects = net
            .advance_to(10_000_000)
            .into_iter()
            .filter(|d| matches!(d.message, Wire::Redirect { .. }))
            .count();
        assert_eq!(redirects, 4);
    }

    #[test]
    fn passes_through_non_play_and_relay_traffic() {
        let (mut net, origin, relays, students) = world();
        let mut mgr = RedirectManager::new(origin, relays.clone());
        assert!(!mgr.intercept(&mut net, students[0], &Wire::Request(ControlRequest::Pause)));
        assert!(!mgr.intercept(
            &mut net,
            relays[0],
            &play("lec") // a relay's upstream live subscription
        ));
    }

    #[test]
    fn fail_relay_rehomes_its_clients() {
        let (mut net, origin, relays, students) = world();
        let mut mgr = RedirectManager::new(origin, relays.clone());
        for &s in &students {
            mgr.intercept(&mut net, s, &play("lec"));
        }
        net.advance_to(10_000_000);
        let stranded = mgr.fail_relay(&mut net, relays[0]);
        assert_eq!(stranded.len(), 2);
        for &c in &stranded {
            assert_eq!(mgr.assignment(c), Some(relays[1]));
        }
        assert_eq!(mgr.load(relays[1]), 4);
        let redirects: Vec<NodeId> = net
            .advance_to(20_000_000)
            .into_iter()
            .filter_map(|d| match d.message {
                Wire::Redirect { to } => Some(to),
                _ => None,
            })
            .collect();
        assert_eq!(redirects, vec![relays[1], relays[1]]);
    }

    #[test]
    fn all_relays_down_falls_back_to_origin() {
        let (mut net, origin, relays, students) = world();
        let mut mgr = RedirectManager::new(origin, relays.clone());
        mgr.fail_relay(&mut net, relays[0]);
        mgr.fail_relay(&mut net, relays[1]);
        // Play passes through to the origin's own session logic.
        assert!(!mgr.intercept(&mut net, students[0], &play("lec")));
        assert_eq!(mgr.assignment(students[0]), Some(origin));
    }

    #[test]
    fn failing_every_relay_rehomes_to_origin_without_looping() {
        let (mut net, origin, relays, students) = world();
        let mut mgr = RedirectManager::new(origin, relays.clone());
        for &s in &students {
            assert!(mgr.intercept(&mut net, s, &play("lec")));
        }
        net.advance_to(10_000_000);
        // First casualty: its clients move to the surviving relay.
        let stranded = mgr.fail_relay(&mut net, relays[0]);
        assert_eq!(stranded.len(), 2);
        // Second casualty: now *no* relay is healthy; everyone must land
        // on the origin, not on the already-failed sibling.
        let stranded = mgr.fail_relay(&mut net, relays[1]);
        assert_eq!(stranded.len(), 4);
        for &s in &students {
            assert_eq!(mgr.assignment(s), Some(origin));
        }
        // The initial 4 redirects were already drained above; what's left
        // is 2 from the first failure and 4 from the second.
        let redirects: Vec<NodeId> = net
            .advance_to(30_000_000)
            .into_iter()
            .filter_map(|d| match d.message {
                Wire::Redirect { to } => Some(to),
                _ => None,
            })
            .collect();
        assert_eq!(redirects.len(), 2 + 4);
        // (Arrival order interleaves under link jitter; count targets.)
        assert_eq!(
            redirects.iter().filter(|&&t| t == origin).count(),
            4,
            "the second failure must re-home everyone to the origin: {redirects:?}"
        );
        assert_eq!(redirects.iter().filter(|&&t| t == relays[1]).count(), 2);
        // Replayed Plays now pass through to the origin (no redirect
        // ping-pong for origin-homed clients).
        for &s in &students {
            assert!(!mgr.intercept(&mut net, s, &play("lec")));
            assert_eq!(mgr.assignment(s), Some(origin));
        }
        // A failed relay failing again is a no-op.
        assert!(mgr.fail_relay(&mut net, relays[0]).is_empty());
    }

    #[test]
    fn least_loaded_breaks_ties_in_fleet_order() {
        let mut net: Network<Wire> = Network::new(7);
        let origin = net.add_node("origin");
        let relays: Vec<NodeId> = (0..3).map(|i| net.add_node(format!("relay{i}"))).collect();
        let students: Vec<NodeId> = (0..6)
            .map(|i| net.add_node(format!("student{i}")))
            .collect();
        for &s in &students {
            net.connect_bidirectional(origin, s, LinkSpec::lan());
        }
        let mut mgr = RedirectManager::new(origin, relays.clone());
        // Every relay starts at load 0: each arrival must land on the
        // earliest tied relay, giving round-robin in fleet order — never
        // an order that depends on map iteration.
        for (i, &s) in students.iter().enumerate() {
            mgr.intercept(&mut net, s, &play("lec"));
            assert_eq!(
                mgr.assignment(s),
                Some(relays[i % 3]),
                "student {i} must land in fleet order"
            );
        }
    }

    #[test]
    fn full_fleet_spills_to_origin() {
        let (mut net, origin, relays, students) = world();
        let mut mgr = RedirectManager::new(origin, relays.clone()).with_relay_capacity(1);
        assert!(mgr.intercept(&mut net, students[0], &play("lec")));
        assert!(mgr.intercept(&mut net, students[1], &play("lec")));
        assert_eq!(mgr.assignment(students[0]), Some(relays[0]));
        assert_eq!(mgr.assignment(students[1]), Some(relays[1]));
        // Both seats taken: the third student passes through to the
        // origin itself, and a replay from a seated student still sticks.
        assert!(!mgr.intercept(&mut net, students[2], &play("lec")));
        assert_eq!(mgr.assignment(students[2]), Some(origin));
        assert!(mgr.intercept(&mut net, students[0], &play("lec")));
        assert_eq!(mgr.assignment(students[0]), Some(relays[0]));
    }

    #[test]
    fn busy_bounce_reassigns_to_a_sibling() {
        let (mut net, origin, relays, students) = world();
        let mut mgr = RedirectManager::new(origin, relays.clone());
        mgr.intercept(&mut net, students[0], &play("lec"));
        assert_eq!(mgr.assignment(students[0]), Some(relays[0]));
        // relay0 answered Busy: the manager names relay1 as the alternate.
        assert_eq!(mgr.reassign_busy(students[0], relays[0]), Some(relays[1]));
        assert_eq!(mgr.assignment(students[0]), Some(relays[1]));
        // relay1 Busy too and relay0 is the only sibling — but say it
        // failed meanwhile: no alternate, and the stale assignment is
        // forgotten so the retry re-rolls.
        mgr.fail_relay(&mut net, relays[0]);
        assert_eq!(mgr.reassign_busy(students[0], relays[1]), None);
        assert_eq!(mgr.assignment(students[0]), None);
    }

    #[test]
    #[should_panic(expected = "relay capacity must be positive")]
    fn zero_relay_capacity_is_rejected() {
        let mut net: Network<Wire> = Network::new(1);
        let origin = net.add_node("origin");
        let _ = RedirectManager::new(origin, Vec::new()).with_relay_capacity(0);
    }

    #[test]
    fn retarget_origin_rehomes_origin_clients_in_sorted_order() {
        let mut net: Network<Wire> = Network::new(5);
        let origin = net.add_node("origin");
        let standby = net.add_node("standby");
        let relays: Vec<NodeId> = (0..1).map(|i| net.add_node(format!("relay{i}"))).collect();
        let students: Vec<NodeId> = (0..4)
            .map(|i| net.add_node(format!("student{i}")))
            .collect();
        for &s in &students {
            net.connect_bidirectional(origin, s, LinkSpec::lan());
            net.connect_bidirectional(standby, s, LinkSpec::lan());
        }
        // One seat on the single relay: student0 takes it, the rest
        // spill to the origin itself.
        let mut mgr = RedirectManager::new(origin, relays.clone()).with_relay_capacity(1);
        for &s in &students {
            mgr.intercept(&mut net, s, &play("lec"));
        }
        assert_eq!(mgr.assignment(students[0]), Some(relays[0]));
        net.advance_to(10_000_000);
        // The origin dies; the standby takes over the front door.
        let rehomed = mgr.retarget_origin(&mut net, standby);
        // Exactly the origin-homed clients, in sorted (insertion-
        // independent) order — the same determinism rule as fail_relay.
        let mut expect = vec![students[1], students[2], students[3]];
        expect.sort_unstable();
        assert_eq!(rehomed, expect);
        // The relay-homed student keeps its seat; the rest now point at
        // the standby.
        assert_eq!(mgr.assignment(students[0]), Some(relays[0]));
        for &s in &students[1..] {
            assert_eq!(mgr.assignment(s), Some(standby));
        }
        // Every redirect came *from the standby* (the origin is dead)
        // and names the standby.
        let redirects: Vec<(NodeId, NodeId)> = net
            .advance_to(20_000_000)
            .into_iter()
            .filter_map(|d| match d.message {
                Wire::Redirect { to } => Some((d.src, to)),
                _ => None,
            })
            .collect();
        assert_eq!(redirects.len(), 3);
        assert!(redirects
            .iter()
            .all(|&(src, to)| src == standby && to == standby));
        // A post-failover Play from a fresh client intercepts against
        // the promoted origin: full relay ⇒ pass-through to standby.
        let extra = students[1];
        assert!(!mgr.intercept(&mut net, extra, &play("lec")));
        assert_eq!(mgr.assignment(extra), Some(standby));
    }

    #[test]
    fn sticky_assignment_survives_replays() {
        let (mut net, origin, relays, students) = world();
        let mut mgr = RedirectManager::new(origin, relays.clone());
        mgr.intercept(&mut net, students[0], &play("lec"));
        let first = mgr.assignment(students[0]).unwrap();
        mgr.intercept(&mut net, students[0], &play("lec"));
        assert_eq!(mgr.assignment(students[0]), Some(first));
    }
}

//! The tier driver: the one loop that steps a lecture deployment.
//!
//! A [`Tier`] is the nodes of a deployment as plain data — the origin,
//! an optional warm standby, the relays, an optional redirect manager,
//! the students — over a [`Fabric`] that says how their messages travel.
//! Every way lod-core runs a lecture (direct, shared uplink, relay tier,
//! live classroom) builds a `Tier` and calls [`Tier::run`]; they differ
//! in what they build and in what their `before_step` does, never in how
//! a step is taken. The relay tier is built by one function on either
//! fabric (`wmps::relay_tier`), so loopback UDP is the relay tier on
//! [`Sockets`].
//!
//! There is deliberately no `Node` trait: promotion reaches into the
//! relays, the redirect manager and the clients at once, so a trait over
//! `on_message`/`poll` would hide nothing the driver does not still have
//! to know.

use lod_obs::{Event, Recorder};
use lod_relay::{HeartbeatMonitor, RedirectManager, RelayNode};
use lod_simnet::{Delivery, Fault, FaultTarget, Network, NodeId};
use lod_streaming::{ClientState, SessionLedger, StreamingClient, StreamingServer, Wire};
use lod_transport::UdpTransport;

/// The driver's cadence: 100 ms of lecture time per step.
const STEP: u64 = 1_000_000;

/// How a tier's messages travel: which transport a node sends through,
/// and what has arrived by `now`.
pub(crate) trait Fabric {
    /// What a node sends through.
    type Net: lod_transport::Transport<Wire>;

    /// The transport `node` sends through.
    fn net(&mut self, node: NodeId) -> &mut Self::Net;

    /// Advances every node's clock to `now` and returns what arrived, at
    /// any node, in delivery order.
    fn deliveries(&mut self, now: u64) -> Vec<Delivery<Wire>>;

    /// Bytes `node` has put on the wire so far.
    fn egress_bytes(&self, node: NodeId) -> u64;
}

/// Simnet: the one network is every node's transport.
impl Fabric for Network<Wire> {
    type Net = Self;

    #[inline]
    fn net(&mut self, _node: NodeId) -> &mut Self {
        self
    }

    #[inline]
    fn deliveries(&mut self, now: u64) -> Vec<Delivery<Wire>> {
        self.advance_to(now)
    }

    fn egress_bytes(&self, node: NodeId) -> u64 {
        Network::egress_bytes(self, node)
    }
}

/// Real sockets: one [`UdpTransport`] per node, indexed by
/// [`NodeId::index`], all on the driver's manual clock and polled in
/// node order. The loopback interface queues a datagram on its peer's
/// socket before `send_to` returns, so what a step receives depends on
/// what was sent before it and never on timing.
pub(crate) struct Sockets(pub(crate) Vec<UdpTransport<Wire>>);

impl Fabric for Sockets {
    type Net = UdpTransport<Wire>;

    fn net(&mut self, node: NodeId) -> &mut Self::Net {
        &mut self.0[node.index()]
    }

    fn deliveries(&mut self, now: u64) -> Vec<Delivery<Wire>> {
        let mut out = Vec::new();
        for t in &mut self.0 {
            t.set_manual_now(now);
            out.extend(lod_transport::Transport::poll(t, now));
        }
        out
    }

    fn egress_bytes(&self, node: NodeId) -> u64 {
        self.0[node.index()].stats().bytes_sent
    }
}

/// A fault strikes every node's egress fault stage: each rules on its own
/// datagrams, so between them they cover every datagram a fault names.
impl FaultTarget for Sockets {
    fn strike(&mut self, fault: Fault) {
        for t in &mut self.0 {
            t.strike(fault);
        }
    }

    fn heal(&mut self, fault: Fault) {
        for t in &mut self.0 {
            t.heal(fault);
        }
    }
}

/// A warm standby origin and the failure detector that promotes it.
pub(crate) struct Standby {
    pub(crate) server: StreamingServer,
    pub(crate) monitor: HeartbeatMonitor,
}

/// One deployment: its nodes, its fabric, and the accounts of its run.
pub(crate) struct Tier<F: Fabric> {
    pub(crate) fabric: F,
    pub(crate) origin: StreamingServer,
    pub(crate) standby: Option<Standby>,
    pub(crate) relays: Vec<RelayNode>,
    /// Answers a student's Play, in front of whichever server fronts
    /// the tier, with the relay to use. `None`: students stream from the
    /// node they address.
    pub(crate) redirect: Option<RedirectManager>,
    pub(crate) clients: Vec<StreamingClient>,
    /// Per client, the tick it sends its first Play at.
    pub(crate) start_at: Vec<u64>,
    /// What every client rendered; also the client slot table.
    pub(crate) ledger: SessionLedger,
    pub(crate) obs: Recorder,
    /// Students re-homed off failed relays (`before_step` keeps it).
    pub(crate) reattached: usize,
    /// Fault strikes applied to the fabric (`before_step` keeps it).
    pub(crate) faults_applied: u64,
    pub(crate) checkpoints_replicated: u64,
    pub(crate) stale_epoch_replies: u64,
    pub(crate) promoted_at: Option<u64>,
    promoted_epoch: Option<u64>,
}

impl<F: Fabric> Tier<F> {
    /// `origin` and `clients` (all starting at tick 0) on `fabric`, and
    /// nothing else: callers fill in the other roles they deploy.
    pub(crate) fn new(fabric: F, origin: StreamingServer, clients: Vec<StreamingClient>) -> Self {
        Self {
            fabric,
            origin,
            standby: None,
            relays: Vec::new(),
            redirect: None,
            start_at: vec![0; clients.len()],
            ledger: SessionLedger::new(clients.iter().map(StreamingClient::node)),
            clients,
            obs: Recorder::disabled(),
            reattached: 0,
            faults_applied: 0,
            checkpoints_replicated: 0,
            stale_epoch_replies: 0,
            promoted_at: None,
            promoted_epoch: None,
        }
    }

    /// Steps the tier every 100 ms of lecture time until every client is
    /// done (and `before_step` agrees nothing more is coming) or
    /// `horizon` passes. Returns the tick it stopped at.
    ///
    /// `before_step(tier, now)` runs once the students due at `now` have
    /// started and before any node is polled: the relay tier injects its
    /// faults there, the live classroom pumps its encoder. It returns
    /// whether the run may end once the clients are done.
    pub(crate) fn run(
        &mut self,
        horizon: u64,
        mut before_step: impl FnMut(&mut Self, u64) -> bool,
    ) -> u64 {
        let mut now = 0u64;
        while now <= horizon {
            for (c, &at) in self.clients.iter_mut().zip(&self.start_at) {
                if now >= at && c.state() == ClientState::Idle {
                    c.start(self.fabric.net(c.node()));
                }
            }
            let drained = before_step(self, now);
            let origin = self.origin.node();
            self.origin.poll(self.fabric.net(origin), now);
            self.step_standby(now);
            for r in self.relays.iter_mut() {
                r.poll(self.fabric.net(r.node()), now);
            }
            for d in self.fabric.deliveries(now) {
                self.dispatch(d);
            }
            for (c, &at) in self.clients.iter_mut().zip(&self.start_at) {
                if now >= at {
                    c.step(self.fabric.net(c.node()), now, &mut |e| {
                        self.ledger.record(e);
                    });
                }
            }
            if drained && self.clients.iter().all(StreamingClient::is_done) {
                break;
            }
            now += STEP;
        }
        now
    }

    /// The standby's share of a step: apply what the primary journaled,
    /// probe the primary, take over if it is dead, then serve.
    fn step_standby(&mut self, now: u64) {
        let Some(sb) = self.standby.as_mut() else {
            return;
        };
        let node = sb.server.node();
        // Replication lag is bounded by one driver step on top of the
        // journal's own checkpoint cadence.
        let entries = self.origin.journal_drain();
        self.checkpoints_replicated += entries.len() as u64;
        sb.server.apply_journal(&entries);
        if sb.monitor.poll(self.fabric.net(node), now) {
            // The origin is dead. Promote the standby one epoch past the
            // primary's, re-point every relay uplink (deterministic Vec
            // order), re-front the redirect manager, re-home every
            // client, and keep fencing the old origin so a heal demotes
            // it.
            let dead = self.origin.node();
            let epoch = self.origin.epoch() + 1;
            self.obs.emit(
                now,
                Event::FailoverStart {
                    from: dead.index() as u64,
                    to: node.index() as u64,
                    misses: u64::from(sb.monitor.misses()),
                },
            );
            sb.server.promote(epoch, now);
            for r in self.relays.iter_mut() {
                r.retarget_origin(node, epoch, now);
            }
            if let Some(redirect) = self.redirect.as_mut() {
                let _ = redirect.retarget_origin(self.fabric.net(node), node);
            }
            for c in self.clients.iter_mut() {
                c.retarget_home(dead, node);
            }
            sb.monitor.fence(dead, epoch);
            self.promoted_at = Some(now);
            self.promoted_epoch = Some(epoch);
        }
        sb.server.poll(self.fabric.net(node), now);
    }

    /// Hands one delivery to the node it is addressed to.
    #[inline]
    fn dispatch(&mut self, mut d: Delivery<Wire>) {
        // Fencing audit: after promotion, nothing carrying a
        // pre-promotion epoch may reach anyone (epoch 0 marks epoch-less
        // unit-test fixtures, never a served reply).
        if let Some(pe) = self.promoted_epoch {
            match &d.message {
                Wire::Header(h) if h.epoch > 0 && h.epoch < pe => self.stale_epoch_replies += 1,
                Wire::Segment(s) if s.epoch > 0 && s.epoch < pe => self.stale_epoch_replies += 1,
                _ => {}
            }
        }
        let net = self.fabric.net(d.dst);
        if d.dst == self.origin.node() {
            let taken = self
                .redirect
                .as_mut()
                .is_some_and(|r| r.intercept(net, d.src, &d.message));
            if !taken {
                self.origin.on_message(net, d.time, d.src, d.message);
            }
        } else if let Some(sb) = self.standby.as_mut().filter(|sb| sb.server.node() == d.dst) {
            match d.message {
                // Heartbeat answers feed the failure detector.
                Wire::Pong { .. } => sb.monitor.on_pong(d.time),
                // Post-promotion the standby is the front door, so the
                // redirect manager intercepts Plays exactly as it did at
                // the old origin.
                msg => {
                    let taken = self
                        .redirect
                        .as_mut()
                        .is_some_and(|r| r.intercept(net, d.src, &msg));
                    if !taken {
                        sb.server.on_message(net, d.time, d.src, msg);
                    }
                }
            }
        } else if let Some(slot) = self.ledger.slot(d.dst) {
            // A relay bouncing a student names no alternate (it only
            // knows itself); the redirect manager fills one in so the
            // bounce lands on the least-loaded sibling instead of a
            // blind wait-and-retry.
            if let (Wire::Busy { alternate, .. }, Some(redirect)) =
                (&mut d.message, self.redirect.as_mut())
            {
                if alternate.is_none() && self.relays.iter().any(|r| r.node() == d.src) {
                    *alternate = redirect.reassign_busy(d.dst, d.src);
                }
            }
            self.clients[slot].on_message(d.time, d.message);
        } else if let Some(r) = self.relays.iter_mut().find(|r| r.node() == d.dst) {
            r.on_message(net, d.time, d.src, d.message);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presentation::synthetic_lecture;
    use crate::wmps::{vod_horizon, Wmps};
    use lod_asf::AsfFile;
    use lod_simnet::LinkSpec;
    use lod_streaming::run_to_completion_with;
    use proptest::prelude::*;

    /// A server and `students` clients on a lossy star, or behind one
    /// shared uplink.
    fn world(
        file: &AsfFile,
        students: usize,
        seed: u64,
        shared: bool,
    ) -> (Network<Wire>, StreamingServer, Vec<StreamingClient>) {
        let mut net = Network::new(seed);
        let s = net.add_node("server");
        let mut server = StreamingServer::new(s);
        server.publish("lecture", file.clone());
        let router = shared.then(|| {
            let router = net.add_node("router");
            net.connect_bidirectional(s, router, LinkSpec::lan().with_bandwidth(10_000_000));
            router
        });
        let clients = (0..students)
            .map(|i| {
                let c = net.add_node(format!("student{i}"));
                match router {
                    Some(router) => {
                        net.connect_bidirectional(router, c, LinkSpec::broadband());
                        net.set_next_hop(s, c, router);
                        net.set_next_hop(c, s, router);
                    }
                    None => net.connect_bidirectional(s, c, LinkSpec::broadband().with_loss(0.02)),
                }
                StreamingClient::new(c, s, "lecture")
            })
            .collect();
        (net, server, clients)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The two loops that remain are one loop: a tier of nothing but
        /// a server and its students takes exactly the steps of
        /// `lod_streaming::run_to_completion_with`.
        #[test]
        fn a_bare_tier_is_run_to_completion(
            students in 0usize..6,
            seed in any::<u64>(),
            shared in any::<bool>(),
        ) {
            let file = Wmps::new().publish(&synthetic_lecture(1, 1, 300_000)).unwrap();
            let horizon = vod_horizon(file.props.play_duration);

            let (net, server, clients) = world(&file, students, seed, shared);
            let mut tier = Tier::new(net, server, clients);
            tier.run(horizon, |_, _| true);

            let (mut net, mut server, mut clients) = world(&file, students, seed, shared);
            let mut ledger = SessionLedger::new(clients.iter().map(StreamingClient::node));
            let mut refs: Vec<&mut StreamingClient> = clients.iter_mut().collect();
            run_to_completion_with(&mut net, &mut server, &mut refs, horizon, &mut |e| {
                ledger.record(e);
            });

            for (a, b) in tier.clients.iter().zip(&clients) {
                prop_assert_eq!(a.metrics(), b.metrics());
            }
            prop_assert_eq!(
                tier.ledger.client_skews().collect::<Vec<_>>(),
                ledger.client_skews().collect::<Vec<_>>()
            );
            prop_assert_eq!(tier.ledger.script_spreads(), ledger.script_spreads());
            prop_assert_eq!(tier.ledger.last_wall_time(), ledger.last_wall_time());
            prop_assert_eq!(
                tier.fabric.egress_bytes(tier.origin.node()),
                net.egress_bytes(server.node())
            );
            prop_assert_eq!(tier.origin.metrics(), server.metrics());
        }
    }
}

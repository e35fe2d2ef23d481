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

use lod_asf::DataPacket;
use lod_obs::{Event, Recorder};
use lod_relay::{HeartbeatMonitor, RedirectManager, RelayNode};
use lod_simnet::{Delivery, Fault, FaultTarget, Network, NetworkError, NodeId};
use lod_streaming::{ClientState, SessionLedger, StreamingClient, StreamingServer, Wire};
use lod_transport::{Transport, UdpTransport};

/// The driver's cadence: 100 ms of lecture time per step.
const STEP: u64 = 1_000_000;

/// How a tier's messages travel: which transport a node sends through,
/// and what has arrived by `now`.
pub(crate) trait Fabric {
    /// What a node sends through.
    type Net: Transport<Wire>;

    /// A message as it arrives: a [`Wire`], or the fabric's own form of
    /// one, turned into a `Wire` only by the call that consumes it.
    type Msg: Carry;

    /// The transport `node` sends through.
    fn net(&mut self, node: NodeId) -> &mut Self::Net;

    /// Advances every node's clock to `now` and returns what arrived, at
    /// any node, in delivery order.
    fn deliveries(&mut self, now: u64) -> Vec<Delivery<Self::Msg>>;

    /// Bytes `node` has put on the wire so far.
    fn egress_bytes(&self, node: NodeId) -> u64;
}

/// A message in the form a fabric delivers it.
pub(crate) trait Carry: Into<Wire> {
    /// The message as a [`Wire`] unless it is a data packet, which no
    /// rule of the driver looks into.
    fn control(&mut self) -> Option<&mut Wire>;
}

impl Carry for Wire {
    #[inline]
    fn control(&mut self) -> Option<&mut Wire> {
        (!matches!(self, Wire::Data(_))).then_some(self)
    }
}

/// A [`Wire`] as simnet carries it: a data packet inline, every other
/// message boxed. A `Wire` is as large as its largest variant (a
/// segment), while almost every message is a data packet; carried this
/// way a delivery is 56 bytes instead of 184, and the network moves
/// each message in and out of its in-flight store at that size.
#[derive(Debug)]
pub(crate) enum Carried {
    Data(DataPacket),
    Boxed(Box<Wire>),
}

impl From<Wire> for Carried {
    #[inline]
    fn from(message: Wire) -> Self {
        match message {
            Wire::Data(p) => Carried::Data(p),
            other => Carried::Boxed(Box::new(other)),
        }
    }
}

impl From<Carried> for Wire {
    #[inline]
    fn from(message: Carried) -> Self {
        match message {
            Carried::Data(p) => Wire::Data(p),
            Carried::Boxed(w) => *w,
        }
    }
}

impl Carry for Carried {
    #[inline]
    fn control(&mut self) -> Option<&mut Wire> {
        match self {
            Carried::Data(_) => None,
            Carried::Boxed(w) => Some(w),
        }
    }
}

/// Simnet: the one network is every node's transport. It carries
/// [`Carried`] messages, so a node sends a `Wire` and the tier receives
/// a `Carried`.
#[derive(Debug)]
pub(crate) struct Simnet(pub(crate) Network<Carried>);

impl Transport<Wire> for Simnet {
    #[inline]
    fn send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        message: Wire,
    ) -> Result<(), NetworkError> {
        self.0.send(src, dst, bytes, message.into())
    }

    #[inline]
    fn send_reliable(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        message: Wire,
    ) -> Result<(), NetworkError> {
        self.0.send_reliable(src, dst, bytes, message.into())
    }

    fn first_hop_backlog(&self, src: NodeId, dst: NodeId) -> Option<u64> {
        self.0.first_hop_backlog(src, dst)
    }

    fn now(&self) -> u64 {
        self.0.now()
    }

    fn link_up(&self, src: NodeId, dst: NodeId) -> bool {
        self.0.is_link_up(src, dst)
    }

    fn poll(&mut self, now: u64) -> Vec<Delivery<Wire>> {
        self.0
            .advance_to(now)
            .into_iter()
            .map(|d| Delivery {
                time: d.time,
                src: d.src,
                dst: d.dst,
                bytes: d.bytes,
                message: d.message.into(),
            })
            .collect()
    }
}

impl FaultTarget for Simnet {
    fn strike(&mut self, fault: Fault) {
        self.0.strike(fault);
    }

    fn heal(&mut self, fault: Fault) {
        self.0.heal(fault);
    }
}

impl Fabric for Simnet {
    type Net = Self;
    type Msg = Carried;

    #[inline]
    fn net(&mut self, _node: NodeId) -> &mut Self {
        self
    }

    #[inline]
    fn deliveries(&mut self, now: u64) -> Vec<Delivery<Carried>> {
        self.0.advance_to(now)
    }

    fn egress_bytes(&self, node: NodeId) -> u64 {
        self.0.egress_bytes(node)
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
    type Msg = Wire;

    fn net(&mut self, node: NodeId) -> &mut Self::Net {
        &mut self.0[node.index()]
    }

    fn deliveries(&mut self, now: u64) -> Vec<Delivery<Wire>> {
        let mut out = Vec::new();
        for t in &mut self.0 {
            t.set_manual_now(now);
            out.extend(Transport::poll(t, now));
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

    /// Hands one delivery to the node it is addressed to. The message
    /// becomes a [`Wire`] in the call that consumes it, never before.
    #[inline]
    fn dispatch(&mut self, mut d: Delivery<F::Msg>) {
        // Fencing audit: after promotion, nothing carrying a
        // pre-promotion epoch may reach anyone (epoch 0 marks epoch-less
        // unit-test fixtures, never a served reply).
        if let Some(pe) = self.promoted_epoch {
            match d.message.control() {
                Some(Wire::Header(h)) if h.epoch > 0 && h.epoch < pe => {
                    self.stale_epoch_replies += 1;
                }
                Some(Wire::Segment(s)) if s.epoch > 0 && s.epoch < pe => {
                    self.stale_epoch_replies += 1;
                }
                _ => {}
            }
        }
        let net = self.fabric.net(d.dst);
        if d.dst == self.origin.node() {
            let taken = self
                .redirect
                .as_mut()
                .zip(d.message.control())
                .is_some_and(|(r, msg)| r.intercept(net, d.src, msg));
            if !taken {
                self.origin.on_message(net, d.time, d.src, d.message.into());
            }
        } else if let Some(sb) = self.standby.as_mut().filter(|sb| sb.server.node() == d.dst) {
            match d.message.control() {
                // Heartbeat answers feed the failure detector.
                Some(Wire::Pong { .. }) => sb.monitor.on_pong(d.time),
                // Post-promotion the standby is the front door, so the
                // redirect manager intercepts Plays exactly as it did at
                // the old origin.
                msg => {
                    let taken = self
                        .redirect
                        .as_mut()
                        .zip(msg)
                        .is_some_and(|(r, msg)| r.intercept(net, d.src, msg));
                    if !taken {
                        sb.server.on_message(net, d.time, d.src, d.message.into());
                    }
                }
            }
        } else if let Some(slot) = self.ledger.slot(d.dst) {
            // A relay bouncing a student names no alternate (it only
            // knows itself); the redirect manager fills one in so the
            // bounce lands on the least-loaded sibling instead of a
            // blind wait-and-retry.
            if let (Some(Wire::Busy { alternate, .. }), Some(redirect)) =
                (d.message.control(), self.redirect.as_mut())
            {
                if alternate.is_none() && self.relays.iter().any(|r| r.node() == d.src) {
                    *alternate = redirect.reassign_busy(d.dst, d.src);
                }
            }
            self.clients[slot].on_message(d.time, d.message.into());
        } else if let Some(r) = self.relays.iter_mut().find(|r| r.node() == d.dst) {
            r.on_message(net, d.time, d.src, d.message.into());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presentation::synthetic_lecture;
    use crate::wmps::{vod_horizon, Wmps};
    use lod_asf::{AsfFile, ScriptCommand};
    use lod_obs::TraceCtx;
    use lod_simnet::LinkSpec;
    use lod_streaming::{run_to_completion_with, ControlRequest, SegmentData, StreamHeader};
    use proptest::prelude::*;

    /// A server and `students` clients on a lossy star, or behind one
    /// shared uplink.
    fn world<M>(
        file: &AsfFile,
        students: usize,
        seed: u64,
        shared: bool,
    ) -> (Network<M>, StreamingServer, Vec<StreamingClient>) {
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

    #[test]
    fn a_carried_delivery_fits_in_56_bytes() {
        // Simnet moves each message into its in-flight store and out
        // again at this size; a whole `Wire` makes it 184.
        let size = std::mem::size_of::<Delivery<Carried>>();
        assert!(size <= 56, "{size}");
    }

    /// Every kind of `Wire`, each field that a box could lose set.
    fn one_of_each(file: &AsfFile) -> Vec<Wire> {
        let ctx = TraceCtx {
            lecture: 1,
            segment: 2,
            seq: 3,
            origin: 4,
        };
        let header = StreamHeader::of(file, 3);
        vec![
            Wire::Request(ControlRequest::FetchSegment {
                content: "lecture".into(),
                segment: 5,
                at_time: Some(6),
                want_header: true,
                trace: Some(ctx),
            }),
            Wire::Request(ControlRequest::Ping { epoch: 2 }),
            Wire::Header(Box::new(header.clone())),
            Wire::Data(file.packets[0].clone()),
            Wire::Script(ScriptCommand::new(7, "slide", "s2.png")),
            Wire::EndOfStream,
            Wire::NotFound("missing".into()),
            Wire::Segment(SegmentData {
                content: "lecture".into(),
                segment: 1,
                base_packet: 2,
                total_packets: file.packets.len() as u32,
                total_segments: 9,
                segment_packets: 2,
                packet_size: file.props.packet_size,
                packets: file.packets[2..4].to_vec(),
                header: Some(Box::new(header)),
                start_packet: Some(3),
                at_time: Some(8),
                epoch: 3,
                trace: Some(ctx),
            }),
            Wire::Redirect {
                to: NodeId::from_index(1),
            },
            Wire::Busy {
                retry_after: 9,
                alternate: Some(NodeId::from_index(0)),
            },
            Wire::Pong { epoch: 4 },
            Wire::Mark(ctx),
            Wire::Data(file.packets[1].clone()),
        ]
    }

    #[test]
    fn every_wire_crosses_the_carriage_unchanged() {
        let file = Wmps::new()
            .publish(&synthetic_lecture(1, 1, 300_000))
            .unwrap();
        let sent = one_of_each(&file);
        let mut net = Simnet(Network::new(1));
        let a = net.0.add_node("a");
        let b = net.0.add_node("b");
        // Jitter-free, so the link keeps the send order.
        net.0.connect(a, b, LinkSpec::lan().with_jitter(0));
        for w in &sent {
            let mut carried = Carried::from(w.clone());
            // The driver looks into everything but a data packet.
            assert_eq!(carried.control().is_none(), matches!(w, Wire::Data(_)));
            assert_eq!(Wire::from(carried), *w);
            Transport::send_reliable(&mut net, a, b, 64, w.clone()).unwrap();
        }
        let got: Vec<Wire> = Transport::poll(&mut net, u64::MAX / 2)
            .into_iter()
            .map(|d| d.message)
            .collect();
        assert_eq!(got, sent);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The two loops that remain are one loop, and the carriage
        /// changes nothing: a tier of nothing but a server and its
        /// students on [`Simnet`] takes exactly the steps of
        /// `lod_streaming::run_to_completion_with` on a plain
        /// `Network<Wire>`.
        #[test]
        fn a_bare_tier_is_run_to_completion(
            students in 0usize..6,
            seed in any::<u64>(),
            shared in any::<bool>(),
        ) {
            let file = Wmps::new().publish(&synthetic_lecture(1, 1, 300_000)).unwrap();
            let horizon = vod_horizon(file.props.play_duration);

            let (net, server, clients) = world(&file, students, seed, shared);
            let mut tier = Tier::new(Simnet(net), server, clients);
            tier.run(horizon, |_, _| true);

            let (mut net, mut server, mut clients) = world::<Wire>(&file, students, seed, shared);
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

//! The two socket workloads: origin + relays + students on real
//! `127.0.0.1` UDP sockets, all driven by **one thread** that
//! round-robins the nodes on a manual clock.
//!
//! The product's `serve_loopback_udp` gives every node a thread that
//! sleeps 200 µs per turn, so its throughput is set by the sleeps. Here
//! nothing sleeps and the clock is `UdpTransport::set_manual_now`,
//! advanced 100 ms per round: wall time is the cost of the code (frame
//! codec, pacer, reorder, repair, `sendto`/`recvfrom`) and nothing else.
//! This is the host's loopback interface, not a real link.

use std::net::UdpSocket;
use std::time::Instant;

use lod_relay::{RelayMetrics, RelayNode};
use lod_simnet::NodeId;
use lod_streaming::{ClientMetrics, RenderEvent, StreamingClient, StreamingServer, Wire};
use lod_transport::{
    FaultSpec, ReorderStats, RepairConfig, Transport, TransportStats, UdpConfig, UdpTransport,
};

use crate::sim::client_turn;
use crate::spans::{self, Span, Timed};
use crate::workloads::{
    worst_skews_ms, Account, Input, Outcome, Workload, STEP, UDP_SEGMENT_PACKETS,
};

/// Sender pacing of every node, bit/s: high enough never to be the
/// bottleneck, low enough to keep a fan-out burst inside the kernel's
/// socket buffers (the product's loopback default).
const PACE_BPS: u64 = 200_000_000;
/// Steady per-datagram loss at origin and relay egress in `udp_lossy`, ‰.
const LOSS_PERMILLE: u16 = 50;
/// Per-relay segment cache, bytes (the product's default).
const CACHE_BUDGET: u64 = 64 << 20;
/// A run that has not finished after this many lecture lengths is stuck.
const HORIZON_LECTURES: u64 = 4;

type Net = Timed<UdpTransport<Wire>>;

/// Every node of the deployment, bound and wired but not yet started.
pub struct Deployment {
    origin: (StreamingServer, Net),
    relays: Vec<(RelayNode, Net)>,
    clients: Vec<(StreamingClient, Net)>,
}

impl Deployment {
    /// Binds one loopback socket per node, registers every peer with
    /// every transport and constructs the state machines. Part of what
    /// `setup_s` times.
    ///
    /// # Panics
    ///
    /// When the host cannot bind loopback sockets at all.
    ///
    /// `draw` picks the loss pattern of `udp_lossy`: every unit of a run
    /// draws its own from the seed, and the run reports the median unit.
    /// Which start-up datagram a pattern happens to drop decides whether
    /// the class starts in 2.1 s or in 4.6 s (6 of 40 seeds did the
    /// latter), so one draw per run made `startup_ms_*` a lottery.
    pub fn build(input: &Input, draw: u64) -> Self {
        let lossy = input.workload == Workload::UdpLossy;
        let n_nodes = 1 + input.size.relays + input.size.students;
        let sockets: Vec<UdpSocket> = (0..n_nodes)
            .map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind loopback socket"))
            .collect();
        let book: Vec<_> = sockets
            .iter()
            .enumerate()
            .map(|(i, s)| {
                (
                    NodeId::from_index(i),
                    s.local_addr().expect("bound socket has an address"),
                )
            })
            .collect();
        let mut udp = UdpConfig {
            pace_rate_bps: PACE_BPS,
            ..UdpConfig::default()
        };
        if lossy {
            udp = udp.with_repair(RepairConfig::default());
        }
        let mut transports = sockets.into_iter().enumerate().map(|(i, socket)| {
            let me = NodeId::from_index(i);
            let mut t = UdpTransport::from_socket(me, socket, udp).expect("nonblocking socket");
            for &(peer, addr) in &book {
                if peer != me {
                    t.register_peer(peer, addr);
                }
            }
            // Loss strikes the media direction only (origin and relay
            // egress), so request loss does not blur what repair costs.
            if lossy && i <= input.size.relays {
                let fault_seed = input.seed ^ draw.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                t.set_egress_faults(FaultSpec::loss(fault_seed, LOSS_PERMILLE));
            }
            t.set_manual_now(0);
            Timed::udp(t)
        });

        let origin_id = book[0].0;
        let mut server = StreamingServer::new(origin_id).with_segment_packets(UDP_SEGMENT_PACKETS);
        server.publish("lecture", input.file.clone());
        let origin = (server, transports.next().expect("origin transport"));
        let relay_ids: Vec<NodeId> = (1..=input.size.relays).map(|i| book[i].0).collect();
        let relays = relay_ids
            .iter()
            .map(|&me| {
                let mut relay = RelayNode::new(me, origin_id, CACHE_BUDGET).with_prefetch(true);
                relay.serve_vod("lecture");
                (relay, transports.next().expect("relay transport"))
            })
            .collect();
        let clients = (0..input.size.students)
            .map(|i| {
                let me = book[1 + input.size.relays + i].0;
                let home = relay_ids[i % relay_ids.len()];
                (
                    StreamingClient::new(me, home, "lecture"),
                    transports.next().expect("client transport"),
                )
            })
            .collect();
        Self {
            origin,
            relays,
            clients,
        }
    }

    /// Plays the lecture to every student and reports what happened.
    pub fn run(mut self, input: &Input) -> Outcome {
        let horizon = input.file.props.play_duration * HORIZON_LECTURES;
        let mut events: Vec<RenderEvent> = Vec::new();
        let mut account = Account::default();
        let t = Instant::now();
        for (c, net) in self.clients.iter_mut() {
            spans::timed(Span::ClientStart, || c.start(net));
        }
        let mut now = 0u64;
        while now <= horizon {
            now += STEP;
            let done = spans::step(|| {
                let (server, net) = &mut self.origin;
                net.inner.set_manual_now(now);
                for d in net.poll(now) {
                    account.deliveries += 1;
                    spans::timed(Span::ServerOnMessage, || {
                        server.on_message(net, d.time, d.src, d.message)
                    });
                }
                spans::timed(Span::ServerPoll, || server.poll(net, now));
                for (relay, net) in self.relays.iter_mut() {
                    net.inner.set_manual_now(now);
                    for d in net.poll(now) {
                        account.deliveries += 1;
                        spans::timed(Span::RelayOnMessage, || {
                            relay.on_message(net, d.time, d.src, d.message)
                        });
                    }
                    spans::timed(Span::RelayPoll, || relay.poll(net, now));
                }
                let mut all_done = true;
                for (c, net) in self.clients.iter_mut() {
                    net.inner.set_manual_now(now);
                    for d in net.poll(now) {
                        account.deliveries += 1;
                        account.data_packets += u64::from(matches!(d.message, Wire::Data(_)));
                        spans::timed(Span::ClientOnMessage, || c.on_message(d.time, d.message));
                    }
                    client_turn(c, net, now, &mut events);
                    all_done &= c.is_done() || c.is_abandoned();
                }
                all_done
            });
            account.steps += 1;
            if done {
                break;
            }
        }
        let wall_s = t.elapsed().as_secs_f64();

        let mut transport = TransportStats::default();
        let mut reorder = ReorderStats::default();
        let mut give_ups = 0;
        let nets = std::iter::once(&self.origin.1)
            .chain(self.relays.iter().map(|(_, n)| n))
            .chain(self.clients.iter().map(|(_, n)| n));
        for net in nets {
            transport.merge(net.inner.stats());
            reorder.merge(&net.inner.reorder_stats());
            give_ups += net.inner.repair_tx_stats().give_ups;
        }
        let mut relay = RelayMetrics::default();
        for (r, _) in &self.relays {
            relay += r.metrics();
            account.cache += r.cache().stats();
        }
        let clients: Vec<ClientMetrics> = self.clients.iter().map(|(c, _)| *c.metrics()).collect();
        let (skew_worst_ms, script_skew_worst_ms) = worst_skews_ms(&events);
        account.server = self.origin.0.metrics();
        account.relay = relay;
        account.wire_bytes = transport.bytes_sent;
        account.count_clients(&clients);
        account.script_skew_worst_ms = script_skew_worst_ms;
        account.transport = transport;
        account.reorder = reorder;
        account.repair_give_ups = give_ups;

        let mut outcome = Outcome::of_sessions(input, &clients, |i| self.clients[i].0.is_done());
        outcome.wall_s = wall_s;
        outcome.skew_worst_ms = skew_worst_ms;
        outcome.exact.session_ticks = events.iter().map(|e| e.wall_time).max().unwrap_or(0);
        outcome.exact.origin_egress_bytes = self.origin.1.inner.stats().bytes_sent;
        outcome.exact.frames_sent = transport.frames_sent;
        outcome.account = Some(account);
        outcome
    }
}

//! Loopback deployment: the relay tier on real sockets.
//!
//! [`serve_loopback_udp`] stands up the same origin → relay → student
//! topology that [`crate::Wmps::serve_with_relays`] simulates, except
//! every node owns a [`UdpTransport`] on a `127.0.0.1` socket. The state
//! machines are the *same types* the simulator runs — `StreamingServer`,
//! `RelayNode`, `StreamingClient` — and the loop that steps them is the
//! same tier driver (`tier.rs`), so a lecture that completes here shows
//! the whole protocol stack surviving contact with an actual kernel:
//! every byte crosses a real socket through the real frame codec, pacer,
//! reorder buffer, repair sublayer and fault engine.
//!
//! Clocking: one thread steps every node, and every transport runs on
//! the driver's manual clock (100 ms of lecture time per step), exactly
//! as on simnet. Nothing sleeps and nothing reads the wall clock, so a
//! run costs what its code costs and — as long as the kernel drops no
//! datagram — two runs of one config take the same steps and report the
//! same counters and the same event log. What this gives up against a
//! thread per node is OS concurrency and sub-step timestamps: hop
//! latencies in a trace quantise to the step.

use std::net::UdpSocket;
use std::time::{Duration, Instant};

use lod_asf::AsfFile;
use lod_obs::{EventRecord, Recorder};
use lod_relay::{RelayMetrics, RelayNode};
use lod_simnet::NodeId;
use lod_streaming::wire::{StreamHeader, Wire};
use lod_streaming::{ClientMetrics, RetryPolicy, ServerMetrics, StreamingClient, StreamingServer};
use lod_transport::{FaultSpec, ReorderStats, TransportStats, UdpConfig, UdpTransport, WireCodec};

use crate::tier::{Sockets, Tier};
use crate::wmps::vod_horizon;

/// Knobs for a [`serve_loopback_udp`] run.
#[derive(Debug, Clone)]
pub struct LoopbackConfig {
    /// Edge relays between the origin and the students.
    pub relays: usize,
    /// Student clients, split round-robin across the relays.
    pub clients: usize,
    /// Socket-level transport knobs applied to every node.
    pub udp: UdpConfig,
    /// Seeded egress fault injection applied at the origin and relay
    /// tiers — the media direction, where loss actually hurts playback.
    /// Client egress stays clean so request loss does not conflate the
    /// measurement. `None` leaves the wire untouched.
    pub fault: Option<FaultSpec>,
    /// Application-level retry policy for the clients (re-Play from the
    /// playback horizon on prolonged silence), salted per client. On a
    /// clean wire it never fires; under fault injection it is the
    /// recovery of last resort when even transport repair gives up.
    pub client_retry: Option<RetryPolicy>,
    /// When set, every node records its events (playback, transport
    /// repair, trace spans) into one shared log and the report carries
    /// it in emission order — which, with one thread stepping every
    /// node, is causal order.
    pub record_events: bool,
    /// Per-mille of segments traced end-to-end across the deployment
    /// (relays mint the contexts, the UDP frames carry them, every node
    /// books its hop spans). Needs `record_events` for the spans to
    /// reach the report. 0 = tracing off.
    pub trace_permille: u16,
}

impl Default for LoopbackConfig {
    fn default() -> Self {
        Self {
            relays: 2,
            clients: 32,
            udp: UdpConfig {
                // Real pacing, high enough to never be the bottleneck
                // for a short lecture but low enough to smooth segment
                // fan-out below the kernel's socket-buffer burst size.
                pace_rate_bps: 200_000_000,
                ..UdpConfig::default()
            },
            fault: None,
            client_retry: None,
            record_events: false,
            trace_permille: 0,
        }
    }
}

/// What a loopback deployment run produced.
#[derive(Debug, Clone)]
pub struct LoopbackReport {
    /// Per-client playback metrics, in client order.
    pub clients: Vec<ClientMetrics>,
    /// Origin server metrics.
    pub server: ServerMetrics,
    /// Relay metrics summed across the tier.
    pub relay: RelayMetrics,
    /// Socket traffic counters summed across every node.
    pub transport: TransportStats,
    /// Reorder-buffer counters merged across every node.
    pub reorder: ReorderStats,
    /// Clients that rendered media and were never abandoned (the
    /// [`crate::WmpsReport::completed_sessions`] rule).
    pub completed: usize,
    /// Clients that gave up (must be 0 on a healthy loopback).
    pub abandoned: usize,
    /// Application-level re-requests: client segment retries plus relay
    /// fetch retries. The number transport repair exists to shrink —
    /// every one is a round trip the playback deadline pays for.
    pub rerequests: u64,
    /// Every node's events in emission order (all nodes share the
    /// driver's clock, so a cause is always logged before its effect).
    /// Empty unless [`LoopbackConfig::record_events`] was set. Feed to
    /// [`lod_obs::check_causal`] to prove repair causality.
    pub events: Vec<EventRecord>,
    /// Wall time the deployment ran for.
    pub wall: Duration,
}

/// Packets per fetched segment: as many as share one datagram with the
/// stream header (it rides the first segment a relay fetches), at most
/// 32. 0 when not even one fits.
fn segment_packets(file: &AsfFile, max_frame_bytes: usize) -> usize {
    let header = Wire::Header(StreamHeader {
        props: file.props.clone(),
        streams: file.streams.clone(),
        script: file.script.clone(),
        drm: file.drm.clone(),
        epoch: 0,
    });
    // 256 bytes cover the frame header, its trace extension and a
    // segment's own fields (153 in all).
    let fixed = 256 + header.to_frame_payload().len();
    // The wire codec spends 12 + 26 bytes per payload on a packet where
    // ASF spends 9 + 24, so an eighth on top of the ASF size covers it.
    let packet = file.props.packet_size as usize;
    (max_frame_bytes.saturating_sub(fixed) / (packet + packet / 8).max(1)).min(32)
}

/// Serves `file` through an origin + relay tier + clients, each on a
/// real localhost UDP socket, until every client finishes.
///
/// # Panics
///
/// Panics when localhost sockets cannot be bound (the host cannot run
/// the deployment at all), or when `file`'s packets are too large for
/// even one to share a `cfg.udp.max_frame_bytes` datagram with the
/// stream header — every segment would be dropped as oversize and the
/// lecture would play nothing.
pub fn serve_loopback_udp(file: AsfFile, cfg: &LoopbackConfig) -> LoopbackReport {
    assert!(cfg.relays > 0, "a relay tier needs at least one relay");
    let segment_packets = segment_packets(&file, cfg.udp.max_frame_bytes);
    assert!(
        segment_packets > 0,
        "a {}-byte packet and the stream header do not fit one {}-byte datagram \
         (UdpConfig::max_frame_bytes)",
        file.props.packet_size,
        cfg.udp.max_frame_bytes
    );
    let horizon = vod_horizon(file.props.play_duration);
    let started = Instant::now();
    let n_nodes = 1 + cfg.relays + cfg.clients;
    // Node ids are socket indices: 0 = origin, 1..=relays = relays, the
    // rest = clients.
    let node = NodeId::from_index;
    let sockets: Vec<UdpSocket> = (0..n_nodes)
        .map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind loopback socket"))
        .collect();
    let book: Vec<_> = sockets
        .iter()
        .map(|s| s.local_addr().expect("bound socket has an address"))
        .collect();
    let obs = if cfg.record_events {
        Recorder::with_event_capacity(n_nodes << 16)
    } else {
        Recorder::disabled()
    };
    let transports = sockets
        .into_iter()
        .enumerate()
        .map(|(i, socket)| {
            let mut t = UdpTransport::from_socket(node(i), socket, cfg.udp)
                .expect("nonblocking socket")
                .with_recorder(obs.clone());
            for (peer, &addr) in book.iter().enumerate() {
                if peer != i {
                    t.register_peer(node(peer), addr);
                }
            }
            match &cfg.fault {
                // The media direction only: origin and relay egress.
                Some(spec) if i <= cfg.relays => t.set_egress_faults(spec.clone()),
                _ => {}
            }
            t.set_manual_now(0);
            t
        })
        .collect();

    let mut origin = StreamingServer::new(node(0))
        .with_segment_packets(segment_packets as u32)
        .with_recorder(obs.clone());
    origin.publish("lecture", file);
    let clients = (0..cfg.clients)
        .map(|i| {
            let home = node(1 + i % cfg.relays);
            let c = StreamingClient::new(node(1 + cfg.relays + i), home, "lecture")
                .with_recorder(obs.clone());
            match cfg.client_retry {
                Some(policy) => c.with_retry(policy, i as u64),
                None => c,
            }
        })
        .collect();
    let mut tier = Tier::new(Sockets(transports), origin, clients);
    tier.relays = (1..=cfg.relays)
        .map(|i| {
            let mut relay = RelayNode::new(node(i), node(0), 64 << 20)
                .with_prefetch(true)
                .with_recorder(obs.clone())
                .with_trace_permille(cfg.trace_permille);
            relay.serve_vod("lecture");
            relay
        })
        .collect();
    tier.run(horizon, |_, _| true);

    let clients: Vec<ClientMetrics> = tier.clients.iter().map(|c| *c.metrics()).collect();
    let mut relay = RelayMetrics::default();
    for r in &tier.relays {
        relay += r.metrics();
    }
    let mut transport = TransportStats::default();
    let mut reorder = ReorderStats::default();
    for t in &tier.fabric.0 {
        transport.merge(t.stats());
        reorder.merge(&t.reorder_stats());
    }
    LoopbackReport {
        completed: clients
            .iter()
            .filter(|m| m.samples_rendered > 0 && !m.abandoned)
            .count(),
        abandoned: clients.iter().filter(|m| m.abandoned).count(),
        rerequests: clients.iter().map(|m| m.retries).sum::<u64>() + relay.fetch_retries,
        clients,
        server: tier.origin.metrics(),
        relay,
        transport,
        reorder,
        events: obs.events(),
        wall: started.elapsed(),
    }
}

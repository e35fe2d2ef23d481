//! Loopback deployment: the relay tier on real sockets.
//!
//! [`serve_loopback_udp`] is [`crate::Wmps::serve_with_relays`] with
//! every node on its own `127.0.0.1` [`UdpTransport`]: the same builder,
//! config, node ids, labels, chaos step, tier driver and report, plus the
//! socket counters. Every byte crosses a real socket through the real
//! frame codec, pacer, reorder buffer, repair sublayer and fault engine.
//! A [`crate::ChaosSpec`] storm runs here as it does on simnet: the same
//! injector strikes and heals the same faults, and each node's egress
//! fault engine drops, or delays, the datagrams they cover.
//!
//! One thread steps every node on the driver's manual clock (100 ms of
//! lecture time per step); nothing sleeps or reads the wall clock. While
//! the kernel drops no datagram, two runs of one config take the same
//! steps and log the same events. The price is OS concurrency and
//! sub-step timestamps: hop latencies in a trace quantise to the step.

use std::io::{self, ErrorKind};
use std::net::UdpSocket;
use std::time::{Duration, Instant};

use lod_asf::AsfFile;
use lod_simnet::{NodeId, RelayTree};
use lod_streaming::wire::{StreamHeader, Wire};
use lod_transport::{FaultSpec, ReorderStats, TransportStats, UdpConfig, UdpTransport, WireCodec};

use crate::tier::Sockets;
use crate::wmps::{
    relay_tier, run_relay_tier, session_report, vod_horizon, RelayTierConfig, WmpsReport,
};

/// What only a run on sockets has to say.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SocketReport {
    /// Socket traffic counters summed across every node.
    pub transport: TransportStats,
    /// Reorder-buffer counters merged across every node.
    pub reorder: ReorderStats,
    /// Wall time the deployment ran for.
    pub wall: Duration,
}

/// Packets per fetched segment: as many as share one datagram with the
/// stream header (it rides the first segment a relay fetches), at most
/// 32. 0 when not even one fits.
fn segment_packets(file: &AsfFile, max_frame_bytes: usize) -> usize {
    let header = Wire::Header(Box::new(StreamHeader::of(file, 0)));
    // 256 bytes cover the frame header, its trace extension and a
    // segment's own fields (153 in all).
    let fixed = 256 + header.encoded_len();
    // The wire codec spends 12 + 26 bytes per payload on a packet where
    // ASF spends 9 + 24, so an eighth on top of the ASF size covers it.
    let packet = file.props.packet_size as usize;
    (max_frame_bytes.saturating_sub(fixed) / (packet + packet / 8).max(1)).min(32)
}

/// Serves `file` to `n_clients` through the relay tier `cfg` describes,
/// as [`crate::Wmps::serve_with_relays`] does, with every node on a
/// localhost UDP socket. Nodes sit where `relay_tree` puts them (origin,
/// router, relays, students, then the standby); the router's socket
/// stays silent, since on loopback the kernel routes. `udp` tunes every
/// socket; `fault` is seeded egress fault injection at every node but the
/// students (the media direction, where loss hurts playback). A non-empty
/// `cfg.chaos` gives every node an egress fault stage to strike, the
/// students' with no steady rates.
///
/// # Errors
///
/// [`ErrorKind::InvalidInput`] when `file`'s packets cannot share a
/// datagram with the stream header (every segment would be dropped as
/// oversize) or when `cfg.chaos` kills the origin without
/// `cfg.failover`; any error setting up a localhost socket.
pub fn serve_loopback_udp(
    file: AsfFile,
    n_clients: usize,
    seed: u64,
    cfg: &RelayTierConfig,
    udp: UdpConfig,
    fault: Option<FaultSpec>,
) -> io::Result<WmpsReport> {
    let refuse = |msg: String| Err(io::Error::new(ErrorKind::InvalidInput, msg));
    if let Err(why) = cfg.check() {
        return refuse(why.into());
    }
    let segment_packets = segment_packets(&file, udp.max_frame_bytes);
    if segment_packets == 0 {
        return refuse(format!(
            "a {}-byte packet and the stream header do not fit one {}-byte datagram \
             (UdpConfig::max_frame_bytes)",
            file.props.packet_size, udp.max_frame_bytes
        ));
    }
    let horizon = vod_horizon(file.props.play_duration);
    let started = Instant::now();
    let node = NodeId::from_index;
    let first_student = 2 + cfg.relays;
    let n_nodes = first_student + n_clients;
    let tree = RelayTree {
        origin: node(0),
        router: node(1),
        relays: (2..first_student).map(node).collect(),
        students: (first_student..n_nodes).map(node).collect(),
    };
    let standby = cfg.failover.map(|_| node(n_nodes));
    let sockets = (0..n_nodes + usize::from(standby.is_some()))
        .map(|_| UdpSocket::bind("127.0.0.1:0"))
        .collect::<io::Result<Vec<_>>>()?;
    let book = sockets
        .iter()
        .map(UdpSocket::local_addr)
        .collect::<io::Result<Vec<_>>>()?;
    let mut transports = Vec::with_capacity(sockets.len());
    for (i, socket) in sockets.into_iter().enumerate() {
        let mut t =
            UdpTransport::from_socket(node(i), socket, udp)?.with_recorder(cfg.recorder.clone());
        for (peer, &addr) in book.iter().enumerate() {
            if peer != i {
                t.register_peer(node(peer), addr);
            }
        }
        let student = (first_student..n_nodes).contains(&i);
        match &fault {
            Some(spec) if !student => t.set_egress_faults(spec.clone()),
            _ if !cfg.chaos.is_empty() => t.set_egress_faults(FaultSpec::loss(seed, 0)),
            _ => {}
        }
        transports.push(t);
    }
    let (fabric, packets) = (Sockets(transports), Some(segment_packets as u32));
    let mut tier = relay_tier(fabric, &tree, standby, file, seed, cfg, packets);
    run_relay_tier(&mut tier, &tree, cfg, horizon);

    let mut report = session_report(&tier, tier.ledger.last_wall_time());
    let mut transport = TransportStats::default();
    let mut reorder = ReorderStats::default();
    let mut depth = 0;
    for t in &tier.fabric.0 {
        transport.merge(t.stats());
        reorder.merge(&t.reorder_stats());
        depth += t.reorder_depth();
    }
    // The socket counters are exported once, from the deployment's
    // aggregate: depths and skips summed over every node, the peak maxed.
    transport.publish(&tier.obs);
    reorder.publish(&tier.obs);
    tier.obs.gauge_set("transport_reorder_depth", depth as u64);
    report.socket = Some(SocketReport {
        transport,
        reorder,
        wall: started.elapsed(),
    });
    Ok(report)
}

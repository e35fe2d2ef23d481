//! The real-socket backend: `Wire` conversations on `std::net::UdpSocket`.
//!
//! One socket per node, nonblocking. Outbound messages are encoded with
//! [`WireCodec`], framed ([`crate::frame`]) with a per-destination
//! monotonic sequence number and a send timestamp, then paced through a
//! token bucket so a relay fanning out to dozens of clients does not
//! burst-drop in the kernel's socket buffer. Inbound datagrams are
//! mapped back to a [`NodeId`] through the peer table, re-sequenced by a
//! per-peer [`ReorderBuffer`], and handed up as [`Delivery`] records —
//! the same shape the simulator produces, so the state machines cannot
//! tell the backends apart.
//!
//! Clocking: the transport keeps no clock of its own. It starts at tick
//! 0, and the driver that steps it hands it the current tick with
//! [`UdpTransport::set_manual_now`], so pacing, gap flushes, NACK timers
//! and fault decisions are deterministic.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, UdpSocket};

use lod_obs::{Event, Recorder, TraceCtx};
use lod_simnet::{Delivery, Fault, FaultTarget, NetworkError, NodeId, TokenBucket};

use crate::fault::{FaultAction, FaultEngine, FaultSpec};
use crate::frame::{
    decode_frame, encode_message_frame, mark_retransmit, peek_trace, WireCodec, FLAG_CONTROL,
    FLAG_RELIABLE,
};
use crate::reorder::{ReorderBuffer, ReorderStats};
use crate::repair::{ControlFrame, RepairConfig, RepairRx, RepairTx};
use crate::{Transport, TICKS_PER_SECOND};

/// Most gap sequences one receiver poll reconciles per peer (also the
/// widest NACK span one frame can carry).
const MISSING_CAP: usize = 512;

/// Knobs for a [`UdpTransport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpConfig {
    /// Sender pacing rate in bits/s (0 = unpaced).
    pub pace_rate_bps: u64,
    /// Pacing burst tolerance in bytes.
    pub pace_burst_bytes: u64,
    /// Ticks an out-of-order gap may stay open before the reorder
    /// buffer declares it lost and skips ahead.
    pub reorder_flush_ticks: u64,
    /// Largest frame (header + payload) the transport will emit;
    /// oversize messages are counted and dropped, mirroring what the
    /// kernel would do to a > 64 KiB datagram.
    pub max_frame_bytes: usize,
    /// NACK/retransmit loss repair. `None` (the default) keeps the plain
    /// reorder-timeout behavior; `Some` enables the repair sublayer and
    /// hands gap-skip authority to its retry budget.
    pub repair: Option<RepairConfig>,
}

impl Default for UdpConfig {
    fn default() -> Self {
        Self {
            pace_rate_bps: 0,
            pace_burst_bytes: 256 * 1024,
            // 50 ms: an eternity on loopback, short enough that a lost
            // datagram never stalls playout past one driver beat.
            reorder_flush_ticks: 500_000,
            max_frame_bytes: 60 * 1024,
            repair: None,
        }
    }
}

impl UdpConfig {
    /// The loopback deployment's tuning: the defaults plus real pacing at
    /// 200 Mbit/s, high enough never to be the bottleneck for a lecture
    /// but low enough to smooth segment fan-out below the kernel's
    /// socket-buffer burst size.
    pub fn loopback() -> Self {
        Self {
            pace_rate_bps: 200_000_000,
            ..Self::default()
        }
    }

    /// Sets the reorder gap-flush timeout, rejecting a zero that would
    /// skip every gap instantly.
    #[must_use]
    pub fn with_reorder_flush_ticks(mut self, ticks: u64) -> Self {
        assert!(ticks > 0, "reorder_flush_ticks must be positive");
        self.reorder_flush_ticks = ticks;
        self
    }

    /// Sets the pacing rate and burst, rejecting zeros that would stall
    /// the sender forever (use the `pace_rate_bps: 0` default to disable
    /// pacing instead).
    #[must_use]
    pub fn with_pacing(mut self, rate_bps: u64, burst_bytes: u64) -> Self {
        assert!(rate_bps > 0, "pace_rate_bps must be positive");
        assert!(burst_bytes > 0, "pace_burst_bytes must be positive");
        self.pace_rate_bps = rate_bps;
        self.pace_burst_bytes = burst_bytes;
        self
    }

    /// Enables NACK/retransmit repair, validating every budget in
    /// `repair` is positive.
    #[must_use]
    pub fn with_repair(mut self, repair: RepairConfig) -> Self {
        repair.validate();
        self.repair = Some(repair);
        self
    }
}

lod_obs::counters! {
    /// Traffic counters of one [`UdpTransport`]. A deployment merges them
    /// across its nodes and publishes the sum once, at the end of its run.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct TransportStats {
        /// Frames put on the socket.
        pub frames_sent: u64 => sparse_counter "transport_frames_sent",
        /// Bytes put on the socket (headers included).
        pub bytes_sent: u64,
        /// Frames received and handed to a reorder buffer.
        pub frames_received: u64 => sparse_counter "transport_frames_received",
        /// Bytes received.
        pub bytes_received: u64,
        /// Datagrams that failed frame or payload decoding.
        pub decode_errors: u64 => sparse_counter "transport_decode_errors",
        /// Datagrams from addresses not in the peer table.
        pub unknown_peer: u64,
        /// Messages dropped for exceeding `max_frame_bytes`.
        pub oversize_drops: u64,
        /// `send_to` failures other than `WouldBlock`.
        pub send_errors: u64,
        /// NACK control frames sent by this receiver.
        pub nacks_sent: u64 => sparse_counter "transport_nacks_sent",
        /// NACK control frames received by this sender.
        pub nacks_received: u64 => sparse_counter "transport_nacks_received",
        /// Data frames resent in answer to NACKs.
        pub retransmits_sent: u64 => sparse_counter "transport_retransmits_sent",
        /// Retransmitted data frames received.
        pub retransmits_received: u64 => sparse_counter "transport_retransmits_received",
        /// Sequences the repair sender gave up on.
        pub repair_give_ups: u64 => sparse_counter "transport_repair_give_ups",
        /// Sequences skipped after the NACK budget was exhausted.
        pub gap_skipped_seqs: u64 => sparse_counter "transport_gap_skipped_seqs",
        /// Heartbeat control frames sent (top-sequence advertisements).
        pub heartbeats_sent: u64 => sparse_counter "transport_heartbeats_sent",
        /// Heartbeat control frames received.
        pub heartbeats_received: u64 => sparse_counter "transport_heartbeats_received",
        /// Datagrams dropped by the egress fault stage.
        pub faults_dropped: u64,
        /// Datagrams duplicated by the egress fault stage.
        pub faults_duplicated: u64,
        /// Datagrams delayed by the egress fault stage.
        pub faults_delayed: u64,
    }
}

/// Per-peer heartbeat pacing: heartbeats fire only after the data path
/// toward that peer goes quiet, and only a bounded burst of them — the
/// receiver remembers the advertised top, so the advertisement needs to
/// land once, not flow forever.
#[derive(Debug)]
struct HbState {
    /// Tick of the last data frame or heartbeat sent to this peer.
    last_activity_at: u64,
    /// Heartbeats sent since the last data frame.
    sent_since_data: u32,
}

/// A frame waiting in a reorder buffer: its wire length, its trace
/// context and the decoded message.
type Pending<M> = (u64, Option<TraceCtx>, M);

/// Everything a transport keeps about one registered peer, both
/// directions. The sub-state is created on first use: the reorder buffer
/// by the first data frame from the peer, the repair and heartbeat state
/// once repair has something to track.
#[derive(Debug)]
struct Peer<M> {
    addr: SocketAddr,
    /// Sender side: the sequence the next data frame toward the peer
    /// carries (1 first).
    next_seq: u64,
    /// Receiver side: highest data sequence the peer is known to have
    /// sent (max of observed frames and heartbeat advertisements) — the
    /// reference that makes tail loss detectable.
    top: u64,
    reorder: Option<ReorderBuffer<Pending<M>>>,
    repair_tx: Option<RepairTx>,
    repair_rx: Option<RepairRx>,
    hb: Option<HbState>,
}

/// The peer registered at `index`, if any: a bounds-checked lookup that
/// never grows the table. A free function, so the caller keeps the
/// transport's other fields to itself while it holds the peer.
fn peer_mut<M>(peers: &mut [Option<Peer<M>>], index: usize) -> Option<&mut Peer<M>> {
    peers.get_mut(index).and_then(Option::as_mut)
}

/// A [`Transport`] backend on a real UDP socket.
#[derive(Debug)]
pub struct UdpTransport<M> {
    node: NodeId,
    socket: UdpSocket,
    local_addr: SocketAddr,
    /// The peer table, indexed by [`NodeId::index`]; only
    /// [`Self::register_peer`] grows it. A poll walks it in index order,
    /// and the order it NACKs, skips and heartbeats in feeds the fault
    /// dice and the event log.
    peers: Vec<Option<Peer<M>>>,
    /// The receive path's one address lookup.
    by_addr: HashMap<SocketAddr, NodeId>,
    fault: Option<FaultEngine>,
    /// Fault-delayed datagrams: release tick, peer index, frame.
    delayed: Vec<(u64, usize, Vec<u8>)>,
    pacer: Option<TokenBucket>,
    /// Frames waiting for the pacer: peer index, frame.
    queue: VecDeque<(usize, Vec<u8>)>,
    queued_bytes: u64,
    /// The tick the driver last handed in.
    now: u64,
    cfg: UdpConfig,
    stats: TransportStats,
    obs: Recorder,
    recv_buf: Vec<u8>,
}

impl<M: WireCodec> UdpTransport<M> {
    /// Wraps an already-bound socket. This is how a whole deployment is
    /// wired: bind every node's socket up front, so every address is
    /// known, then build each transport and register its peers.
    ///
    /// # Errors
    ///
    /// [`io::Error`] when the socket cannot be made nonblocking.
    pub fn from_socket(node: NodeId, socket: UdpSocket, cfg: UdpConfig) -> io::Result<Self> {
        socket.set_nonblocking(true)?;
        let local_addr = socket.local_addr()?;
        let pacer = (cfg.pace_rate_bps > 0)
            .then(|| TokenBucket::new(cfg.pace_rate_bps, cfg.pace_burst_bytes));
        Ok(Self {
            node,
            socket,
            local_addr,
            peers: Vec::new(),
            by_addr: HashMap::new(),
            fault: None,
            delayed: Vec::new(),
            pacer,
            queue: VecDeque::new(),
            queued_bytes: 0,
            now: 0,
            cfg,
            stats: TransportStats::default(),
            obs: Recorder::disabled(),
            recv_buf: vec![0u8; 64 * 1024],
        })
    }

    /// Binds on an ephemeral localhost port (read it back with
    /// [`Self::local_addr`]).
    ///
    /// # Errors
    ///
    /// [`io::Error`] when the bind fails.
    pub fn bind_localhost(node: NodeId, cfg: UdpConfig) -> io::Result<Self> {
        let socket = UdpSocket::bind(SocketAddr::from(([127, 0, 0, 1], 0)))?;
        Self::from_socket(node, socket, cfg)
    }

    /// Routes the transport's events and span edges into a shared
    /// recorder. Its counters stay in [`Self::stats`]: a deployment
    /// publishes them once, merged across nodes.
    #[must_use]
    pub fn with_recorder(mut self, obs: Recorder) -> Self {
        self.obs = obs;
        self
    }

    /// The node this transport speaks for.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The socket's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Registers (or re-points) a peer's address. Sequence numbering
    /// toward the peer starts at 1 on first registration; re-pointing
    /// keeps the peer's sequences and buffers.
    pub fn register_peer(&mut self, node: NodeId, addr: SocketAddr) {
        let index = node.index();
        if index >= self.peers.len() {
            self.peers.resize_with(index + 1, || None);
        }
        let peer = self.peers[index].get_or_insert_with(|| Peer {
            addr,
            next_seq: 1,
            top: 0,
            reorder: None,
            repair_tx: None,
            repair_rx: None,
            hb: None,
        });
        self.by_addr.remove(&peer.addr);
        peer.addr = addr;
        self.by_addr.insert(addr, node);
    }

    /// Sets the transport's clock to the driver's tick.
    pub fn set_manual_now(&mut self, now: u64) {
        self.now = now;
    }

    /// Installs a seeded fault stage on this node's egress: every
    /// outbound datagram (data, control and retransmits alike) passes
    /// through the engine's drop/duplicate/delay decision right before
    /// `send_to`. This is datagram-level chaos — each dropped datagram
    /// leaves a real sequence gap for the repair sublayer to NACK. Faults
    /// struck on the transport (it is a [`FaultTarget`]) land on this
    /// stage; without one they are ignored.
    pub fn set_egress_faults(&mut self, spec: FaultSpec) {
        self.fault = Some(FaultEngine::new(spec));
    }

    /// Aggregated sender-side repair counters across peers.
    pub fn repair_tx_stats(&self) -> crate::repair::RepairTxStats {
        let mut total = crate::repair::RepairTxStats::default();
        for tx in self.registered().filter_map(|p| p.repair_tx.as_ref()) {
            total.merge(tx.stats());
        }
        total
    }

    /// Aggregated receiver-side repair counters across peers.
    pub fn repair_rx_stats(&self) -> crate::repair::RepairRxStats {
        let mut total = crate::repair::RepairRxStats::default();
        for rx in self.registered().filter_map(|p| p.repair_rx.as_ref()) {
            total.merge(rx.stats());
        }
        total
    }

    /// Traffic counters.
    pub fn stats(&self) -> &TransportStats {
        &self.stats
    }

    /// Reorder counters aggregated across peers.
    pub fn reorder_stats(&self) -> ReorderStats {
        let mut total = ReorderStats::default();
        for b in self.registered().filter_map(|p| p.reorder.as_ref()) {
            total.merge(b.stats());
        }
        total
    }

    /// Frames waiting in the reorder buffers now, across peers.
    pub fn reorder_depth(&self) -> usize {
        self.registered()
            .filter_map(|p| p.reorder.as_ref())
            .map(ReorderBuffer::depth)
            .sum()
    }

    /// Bytes currently waiting in the pacer queue.
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// The registered peers, in index order.
    fn registered(&self) -> impl Iterator<Item = &Peer<M>> {
        self.peers.iter().flatten()
    }

    fn send_impl(
        &mut self,
        src: NodeId,
        dst: NodeId,
        message: &M,
        reliable: bool,
    ) -> Result<(), NetworkError> {
        debug_assert_eq!(src, self.node, "a transport only sends as its own node");
        let index = dst.index();
        let Some(peer) = peer_mut(&mut self.peers, index) else {
            return Err(NetworkError::UnknownNode(dst));
        };
        let now = self.now;
        // A traced message's context rides a frame-header extension, so
        // the receiving transport can stamp hop spans without decoding
        // the payload. Untraced messages keep the bare 24-byte header.
        let seq = peer.next_seq;
        let flags = if reliable { FLAG_RELIABLE } else { 0 };
        let Some(frame) = encode_message_frame(seq, now, flags, message, self.cfg.max_frame_bytes)
        else {
            self.stats.oversize_drops += 1;
            return Ok(());
        };
        peer.next_seq += 1;
        if let Some(ctx) = message.trace_ctx() {
            // "pace" spans the pacer/fault stage: open here, closed by
            // `raw_send` when the datagram actually reaches the socket
            // (or by the fault stage when it eats the frame).
            let node = self.node.index() as u64;
            self.obs.span(now, true, node, index as u64, "pace", ctx);
        }
        if let Some(repair) = self.cfg.repair {
            peer.repair_tx
                .get_or_insert_with(|| RepairTx::new(repair))
                .record(seq, &frame);
            peer.hb = Some(HbState {
                last_activity_at: now,
                sent_since_data: 0,
            });
        }
        self.pace_or_queue(now, index, frame);
        Ok(())
    }

    /// Sends `frame` to peer `index` immediately if the pacer allows,
    /// else parks it in the pacer queue (the path data, control and
    /// retransmit frames all share, so repair traffic is paced like
    /// everything else).
    fn pace_or_queue(&mut self, now: u64, index: usize, frame: Vec<u8>) {
        let len = frame.len() as u64;
        let unblocked =
            self.queue.is_empty() && self.pacer.as_mut().is_none_or(|p| p.try_consume(len, now));
        if unblocked {
            self.put_on_wire(now, index, &frame);
        } else {
            self.queued_bytes += len;
            self.queue.push_back((index, frame));
        }
    }

    fn put_on_wire(&mut self, now: u64, index: usize, frame: &[u8]) {
        // Every datagram rolls the same dice, reliable-flagged or not:
        // this stage models the physical network, and a kernel dropping
        // a UDP datagram does not consult application flags.
        if let Some(engine) = self.fault.as_mut() {
            match engine.action(self.node, NodeId::from_index(index)) {
                FaultAction::Deliver => {}
                FaultAction::Drop => {
                    self.stats.faults_dropped += 1;
                    // The frame dies here: close its pace span so a
                    // faulted run still has every span paired (the
                    // repair layer's retransmit will re-close it later
                    // if the segment is recovered).
                    if let Some(ctx) = peek_trace(frame) {
                        let node = self.node.index() as u64;
                        self.obs.span(now, false, node, index as u64, "pace", ctx);
                    }
                    return;
                }
                FaultAction::Duplicate => {
                    self.stats.faults_duplicated += 1;
                    self.raw_send(now, index, frame);
                }
                FaultAction::Delay(extra) => {
                    self.stats.faults_delayed += 1;
                    self.delayed
                        .push((now.saturating_add(extra), index, frame.to_vec()));
                    return;
                }
            }
        }
        self.raw_send(now, index, frame);
    }

    fn raw_send(&mut self, now: u64, index: usize, frame: &[u8]) {
        // Frames are only ever addressed to registered peers.
        let Some(addr) = peer_mut(&mut self.peers, index).map(|p| p.addr) else {
            return;
        };
        match self.socket.send_to(frame, addr) {
            Ok(_) => {
                self.stats.frames_sent += 1;
                self.stats.bytes_sent += frame.len() as u64;
                if let Some(ctx) = peek_trace(frame) {
                    // Pace span closes when the datagram hits the wire;
                    // a retransmit re-closes it (last close wins), so
                    // the span stretches over the repair round trip.
                    let node = self.node.index() as u64;
                    self.obs.span(now, false, node, index as u64, "pace", ctx);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // Kernel buffer full: park it in the pacer queue and let
                // the next poll retry instead of losing the frame.
                self.queued_bytes += frame.len() as u64;
                self.queue.push_front((index, frame.to_vec()));
            }
            Err(_) => self.stats.send_errors += 1,
        }
    }

    fn flush_queue(&mut self, now: u64) {
        while let Some((_, frame)) = self.queue.front() {
            let len = frame.len() as u64;
            if let Some(p) = self.pacer.as_mut() {
                if !p.try_consume(len, now) {
                    break;
                }
            }
            let Some((index, frame)) = self.queue.pop_front() else {
                break;
            };
            self.queued_bytes -= len;
            let before = self.queue.len();
            self.put_on_wire(now, index, &frame);
            if self.queue.len() > before {
                break; // WouldBlock re-queued it; stop hammering
            }
        }
    }

    /// Releases fault-delayed datagrams whose hold has elapsed. They go
    /// straight to the socket — the fault stage already ruled on them.
    fn release_delayed(&mut self, now: u64) {
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].0 <= now {
                let (_, index, frame) = self.delayed.remove(i);
                self.raw_send(now, index, &frame);
            } else {
                i += 1;
            }
        }
    }

    fn drain_socket(&mut self, now: u64, out: &mut Vec<Delivery<M>>) {
        loop {
            let (n, addr) = match self.socket.recv_from(&mut self.recv_buf) {
                Ok(got) => got,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    self.stats.decode_errors += 1;
                    break;
                }
            };
            self.stats.bytes_received += n as u64;
            let Some(src) = self.by_addr.get(&addr).map(|node| node.index()) else {
                self.stats.unknown_peer += 1;
                continue;
            };
            let (header, payload) = match decode_frame(&self.recv_buf[..n]) {
                Ok(ok) => ok,
                Err(_) => {
                    self.stats.decode_errors += 1;
                    continue;
                }
            };
            if header.control {
                // Transport-internal repair traffic: never enters the
                // reorder buffer (control frames ride seq 0) and never
                // reaches the state machines.
                match ControlFrame::from_frame_payload(payload) {
                    Ok(cf) => self.on_control(now, src, &cf, header.sent_at),
                    Err(_) => self.stats.decode_errors += 1,
                }
                continue;
            }
            if header.retransmit {
                self.stats.retransmits_received += 1;
            }
            let Some(peer) = peer_mut(&mut self.peers, src) else {
                continue;
            };
            if let Some(repair) = self.cfg.repair {
                peer.top = peer.top.max(header.seq);
                if !header.retransmit {
                    // Feed the path-delay estimate that paces NACK timers.
                    // Send timestamps come from the peer's clock; on the
                    // loopback harness every node shares one epoch, so the
                    // difference is a real one-way delay sample (saturating
                    // against clock skew). Retransmits are excluded (Karn's
                    // rule): they keep the original send timestamp, so their
                    // "delay" includes the whole NACK round trip and would
                    // drag the estimate — and with it the NACK interval —
                    // into a runaway feedback loop.
                    peer.repair_rx
                        .get_or_insert_with(|| RepairRx::new(repair))
                        .observe_delay(now.saturating_sub(header.sent_at));
                }
            }
            // One allocation per datagram: the payload moves into a
            // ref-counted buffer, and every byte-string field inside the
            // message (media payload fragments, most of the bytes of a
            // Segment frame) decodes as a zero-copy view of it.
            let payload = bytes::Bytes::copy_from_slice(payload);
            let message = match M::from_shared_payload(&payload) {
                Ok(m) => m,
                Err(_) => {
                    self.stats.decode_errors += 1;
                    continue;
                }
            };
            self.stats.frames_received += 1;
            if let Some(ctx) = header.trace {
                let node = self.node.index() as u64;
                // "wire" spans the one-way flight: opened at the peer's
                // send timestamp (valid under the loopback harness's
                // shared epoch), closed at local arrival. A retransmit
                // instead books a "repair_stall" span — its original
                // timestamp covers the whole NACK round trip, and
                // folding that into "wire" would poison the estimate.
                let hop = if header.retransmit {
                    "repair_stall"
                } else {
                    "wire"
                };
                self.obs
                    .span(header.sent_at.min(now), true, node, src as u64, hop, ctx);
                self.obs.span(now, false, node, src as u64, hop, ctx);
                // "reorder" opens at arrival and closes when the frame
                // leaves the resequencing buffer (possibly right now).
                self.obs.span(now, true, node, src as u64, "reorder", ctx);
            }
            let flush_after = self.cfg.reorder_flush_ticks;
            let released = peer
                .reorder
                .get_or_insert_with(|| ReorderBuffer::new(flush_after))
                .accept(header.seq, now, (n as u64, header.trace, message));
            self.release(now, src, released, out);
        }
    }

    /// Hands the frames `src`'s reorder buffer let go of up as
    /// deliveries, in order, closing each traced frame's "reorder" span.
    fn release(&self, now: u64, src: usize, released: Vec<Pending<M>>, out: &mut Vec<Delivery<M>>) {
        let (node, peer) = (self.node.index() as u64, src as u64);
        for (bytes, trace, message) in released {
            if let Some(ctx) = trace {
                self.obs.span(now, false, node, peer, "reorder", ctx);
            }
            out.push(Delivery {
                time: now,
                src: NodeId::from_index(src),
                dst: self.node,
                bytes,
                message,
            });
        }
    }

    /// Announces the sequences `src`'s reorder buffer walked past. Under
    /// repair each is booked against the NACKs its gap absorbed and the
    /// retry budget; a plain timeout skip carries zero of both, so the
    /// causal checker sees every abandoned sequence either way.
    fn announce_skips(&mut self, now: u64, src: usize, seqs: impl IntoIterator<Item = u64>) {
        let budget = self.cfg.repair.map_or(0, |r| u64::from(r.retry_budget));
        let node = self.node.index() as u64;
        let mut rx = peer_mut(&mut self.peers, src).and_then(|p| p.repair_rx.as_mut());
        for seq in seqs {
            let nacks = match rx.as_deref_mut() {
                Some(rx) => {
                    self.stats.gap_skipped_seqs += 1;
                    rx.on_skipped(seq)
                }
                None => 0,
            };
            self.obs.emit(
                now,
                Event::GapSkipped {
                    node,
                    peer: src as u64,
                    seq,
                    nacks: u64::from(nacks),
                    budget,
                },
            );
        }
    }

    /// Handles one inbound control frame from peer `src`: a heartbeat
    /// updates the peer's known top sequence; a NACK is answered with
    /// marked retransmits through the shared pacing path, emitting the
    /// obs events the causal checker audits.
    fn on_control(&mut self, now: u64, src: usize, cf: &ControlFrame, sent_at: u64) {
        let repair = self.cfg.repair;
        let Some(peer) = peer_mut(&mut self.peers, src) else {
            return;
        };
        if let ControlFrame::Heartbeat { top_seq } = cf {
            self.stats.heartbeats_received += 1;
            if repair.is_some() {
                peer.top = peer.top.max(*top_seq);
            }
            return;
        }
        self.stats.nacks_received += 1;
        let Some(repair) = repair else {
            // A NACK from a repair-enabled peer while ours is off:
            // nothing buffered, nothing to resend.
            return;
        };
        let response = peer
            .repair_tx
            .get_or_insert_with(|| RepairTx::new(repair))
            .on_nack(now, &cf.seqs());
        // This node's clock is frozen for the whole poll round, so `now`
        // can lag the tick the *peer* stamped on the NACK it just pulled
        // off the socket. The response provably happened after the NACK
        // was sent — floor its event timestamps there so cause precedes
        // effect in any merged, tick-sorted log.
        let at = now.max(sent_at.saturating_add(1));
        let (node, peer) = (self.node.index() as u64, src as u64);
        for give_up in &response.give_ups {
            self.stats.repair_give_ups += 1;
            self.obs.emit(
                at,
                Event::RepairGiveUp {
                    node,
                    peer,
                    seq: give_up.seq,
                    retries: u64::from(give_up.retries),
                    budget: u64::from(repair.retry_budget),
                },
            );
        }
        for rt in response.resend {
            let mut frame = rt.frame;
            mark_retransmit(&mut frame);
            self.stats.retransmits_sent += 1;
            self.obs.emit(
                at,
                Event::Retransmit {
                    node,
                    peer,
                    seq: rt.seq,
                    attempt: u64::from(rt.attempt),
                },
            );
            self.pace_or_queue(now, src, frame);
        }
    }

    /// The receiver half of repair: reconcile every peer's reorder gaps,
    /// send due NACKs, and perform authorized gap-skips.
    fn poll_repair_rx(&mut self, now: u64, out: &mut Vec<Delivery<M>>) {
        let Some(repair) = self.cfg.repair else {
            return;
        };
        let node = self.node.index() as u64;
        for src in 0..self.peers.len() {
            let Some(peer) = peer_mut(&mut self.peers, src) else {
                continue;
            };
            let Some(buffer) = peer.reorder.as_ref() else {
                continue;
            };
            let mut missing = buffer.missing(MISSING_CAP);
            // Tail losses: sequences past every pending frame, known
            // only from the peer's advertisement (data seqs observed or
            // heartbeat tops). Appending keeps the list sorted — the
            // tail starts past everything `missing` can name.
            for seq in buffer.horizon()..=peer.top {
                if missing.len() == MISSING_CAP {
                    break;
                }
                missing.push(seq);
            }
            let decision = peer
                .repair_rx
                .get_or_insert_with(|| RepairRx::new(repair))
                .poll(now, &missing);
            for nack in &decision.nacks {
                let ControlFrame::Nack { base_seq, .. } = nack else {
                    unreachable!("RepairRx::poll only emits NACKs");
                };
                let (base_seq, span) = (*base_seq, nack.span());
                self.stats.nacks_sent += 1;
                self.obs.emit(
                    now,
                    Event::NackSent {
                        node,
                        peer: src as u64,
                        base_seq,
                        span,
                    },
                );
                // NACKs ride control frames on seq 0, outside the data
                // sequence space, so they can never create the gaps
                // they exist to repair. Straight to the wire — a NACK
                // stuck behind a paced media backlog would only push
                // the repair RTT up.
                if let Some(frame) = encode_message_frame(0, now, FLAG_CONTROL, nack, usize::MAX) {
                    self.put_on_wire(now, src, &frame);
                }
            }
            if decision.skippable.is_empty() {
                continue;
            }
            let authorized = |seq: u64| decision.skippable.iter().any(|s| s.seq == seq);
            // A gap can only be walked past from the front: skip while
            // the first gap's sequences are all authorized. A tail gap
            // has nothing pending behind it, so skipping releases no
            // frames — it just advances the cursor past the authorized
            // contiguous prefix so the ledger stops churning.
            while let Some(buffer) = peer_mut(&mut self.peers, src).and_then(|p| p.reorder.as_mut())
            {
                let (gap, tail) = match buffer.first_gap() {
                    Some(gap) if !gap.is_empty() && gap.clone().all(authorized) => (gap, false),
                    Some(_) => break,
                    None => {
                        let start = buffer.expected();
                        let end = (start..).find(|&seq| !authorized(seq)).unwrap_or(start);
                        (start..end, true)
                    }
                };
                let mut released = Vec::new();
                buffer.skip_to(gap.end, &mut released);
                self.announce_skips(now, src, gap);
                self.release(now, src, released, out);
                if tail {
                    break;
                }
            }
        }
    }

    fn flush_reorder(&mut self, now: u64, out: &mut Vec<Delivery<M>>) {
        for src in 0..self.peers.len() {
            let Some(buffer) = peer_mut(&mut self.peers, src).and_then(|p| p.reorder.as_mut())
            else {
                continue;
            };
            let missing_before = buffer.missing(usize::MAX);
            let before = buffer.stats().skipped_seqs;
            let released = buffer.flush_due(now);
            let skipped = buffer.stats().skipped_seqs > before;
            let horizon = buffer.expected();
            self.release(now, src, released, out);
            if skipped {
                let seqs = missing_before.into_iter().filter(|&s| s < horizon);
                self.announce_skips(now, src, seqs);
            }
        }
    }

    /// Advertises the top data sequence to peers whose data path went
    /// quiet: a bounded burst of heartbeats (budget + 1, spaced two NACK
    /// floors apart) after the last data frame, so a dropped *final*
    /// frame still gets exposed, NACKed and repaired. Bounded because
    /// the receiver remembers the top — the advertisement must land
    /// once, not flow forever.
    fn poll_heartbeats(&mut self, now: u64) {
        let Some(repair) = self.cfg.repair else {
            return;
        };
        let interval = repair.min_nack_interval_ticks * 2;
        for index in 0..self.peers.len() {
            let Some(peer) = peer_mut(&mut self.peers, index) else {
                continue;
            };
            let top = peer.next_seq - 1;
            let Some(hb) = peer.hb.as_mut() else {
                continue;
            };
            if top == 0
                || hb.sent_since_data > repair.retry_budget
                || now.saturating_sub(hb.last_activity_at) < interval
            {
                continue;
            }
            hb.last_activity_at = now;
            hb.sent_since_data += 1;
            let heartbeat = ControlFrame::Heartbeat { top_seq: top };
            self.stats.heartbeats_sent += 1;
            if let Some(frame) = encode_message_frame(0, now, FLAG_CONTROL, &heartbeat, usize::MAX)
            {
                self.put_on_wire(now, index, &frame);
            }
        }
    }
}

impl<M: WireCodec> Transport<M> for UdpTransport<M> {
    fn send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        _bytes: u64,
        message: M,
    ) -> Result<(), NetworkError> {
        self.send_impl(src, dst, &message, false)
    }

    fn send_reliable(
        &mut self,
        src: NodeId,
        dst: NodeId,
        _bytes: u64,
        message: M,
    ) -> Result<(), NetworkError> {
        self.send_impl(src, dst, &message, true)
    }

    fn first_hop_backlog(&self, _src: NodeId, _dst: NodeId) -> Option<u64> {
        // The pacer queue is this backend's first hop: convert its
        // depth to ticks-until-drained at the pacing rate, the same
        // unit the simulator's backlog probe reports.
        match (&self.pacer, self.queued_bytes) {
            (_, 0) => Some(0),
            (Some(p), queued) => Some(
                queued.saturating_mul(8).saturating_mul(TICKS_PER_SECOND) / p.rate_bps().max(1),
            ),
            (None, _) => Some(0),
        }
    }

    fn now(&self) -> u64 {
        self.now
    }

    fn link_up(&self, src: NodeId, dst: NodeId) -> bool {
        src == self.node && self.peers.get(dst.index()).is_some_and(Option::is_some)
    }

    fn poll(&mut self, now: u64) -> Vec<Delivery<M>> {
        let mut out = Vec::new();
        self.flush_queue(now);
        self.release_delayed(now);
        self.drain_socket(now, &mut out);
        if self.cfg.repair.is_some() {
            // Repair owns gap handling: NACK timers decide when to ask
            // again, and skips happen only after budget exhaustion — the
            // blind reorder timeout stays out of the way.
            self.poll_repair_rx(now, &mut out);
            self.poll_heartbeats(now);
        } else {
            self.flush_reorder(now, &mut out);
        }
        out
    }
}

impl<M> FaultTarget for UdpTransport<M> {
    fn strike(&mut self, fault: Fault) {
        if let Some(engine) = self.fault.as_mut() {
            engine.strike(fault);
        }
    }

    fn heal(&mut self, fault: Fault) {
        if let Some(engine) = self.fault.as_mut() {
            engine.heal(fault);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{self, Reader, FRAME_HEADER_BYTES};
    use crate::CodecError;
    use std::time::{Duration, Instant};

    /// Minimal codec-bearing message for transport-level tests (the
    /// real `Wire` codec lives in `lod-streaming`).
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct TestMsg {
        id: u64,
        body: Vec<u8>,
    }

    impl WireCodec for TestMsg {
        fn encode_wire(&self, buf: &mut Vec<u8>) {
            frame::write_u64(buf, self.id);
            frame::write_bytes(buf, &self.body);
        }

        fn encoded_len(&self) -> usize {
            8 + 4 + self.body.len()
        }

        fn decode_wire(r: &mut Reader<'_>) -> Result<Self, CodecError> {
            Ok(Self {
                id: r.u64()?,
                body: r.bytes()?,
            })
        }
    }

    fn pair(cfg: UdpConfig) -> (UdpTransport<TestMsg>, UdpTransport<TestMsg>) {
        let a_id = NodeId::from_index(0);
        let b_id = NodeId::from_index(1);
        let mut a = UdpTransport::bind_localhost(a_id, cfg).unwrap();
        let mut b = UdpTransport::bind_localhost(b_id, cfg).unwrap();
        let (a_addr, b_addr) = (a.local_addr(), b.local_addr());
        a.register_peer(b_id, b_addr);
        b.register_peer(a_id, a_addr);
        (a, b)
    }

    /// Polls `t` until `want` messages arrived or a wall-clock budget
    /// expires (localhost delivery is fast but not synchronous).
    fn collect(t: &mut UdpTransport<TestMsg>, now: u64, want: usize) -> Vec<Delivery<TestMsg>> {
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while got.len() < want && Instant::now() < deadline {
            got.extend(t.poll(now));
            if got.len() < want {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        got
    }

    #[test]
    fn messages_cross_the_loopback_in_order() {
        let (mut a, mut b) = pair(UdpConfig::default());
        for id in 0..4u64 {
            a.send(
                a.node(),
                b.node(),
                64,
                TestMsg {
                    id,
                    body: vec![7; 32],
                },
            )
            .unwrap();
        }
        let got = collect(&mut b, 10, 4);
        assert_eq!(got.len(), 4);
        for (i, d) in got.iter().enumerate() {
            assert_eq!(d.message.id, i as u64);
            assert_eq!(d.src, a.node());
            assert_eq!(d.dst, b.node());
            assert!(d.bytes > FRAME_HEADER_BYTES as u64);
        }
        assert_eq!(a.stats().frames_sent, 4);
        assert_eq!(b.stats().frames_received, 4);
    }

    #[test]
    fn unknown_destination_is_an_error_and_link_status_tracks_the_table() {
        let (mut a, b) = pair(UdpConfig::default());
        let stranger = NodeId::from_index(99);
        assert_eq!(
            a.send(
                a.node(),
                stranger,
                64,
                TestMsg {
                    id: 0,
                    body: vec![]
                }
            ),
            Err(NetworkError::UnknownNode(stranger))
        );
        assert!(a.link_up(a.node(), b.node()));
        assert!(!a.link_up(a.node(), stranger));
    }

    #[test]
    fn shuffled_arrival_is_resequenced_before_delivery() {
        // The acceptance drill: datagrams leave in shuffled order, the
        // state machine sees an in-sequence stream, and the reorder
        // depth shows up in the transport's counters (the deployment
        // exports them: `core/tests/loopback_udp.rs`).
        let sender_id = NodeId::from_index(0);
        let recv_id = NodeId::from_index(1);
        let mut rx: UdpTransport<TestMsg> =
            UdpTransport::bind_localhost(recv_id, UdpConfig::default()).unwrap();
        let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
        rx.register_peer(sender_id, raw.local_addr().unwrap());

        // Frames seq 1..=12, sent in a fixed shuffled order.
        let order = [3usize, 1, 4, 2, 7, 5, 6, 10, 12, 8, 9, 11];
        for &seq in &order {
            let msg = TestMsg {
                id: seq as u64,
                body: vec![seq as u8; 16],
            };
            let frame = frame::encode_frame(seq as u64, 0, false, &msg.to_frame_payload());
            raw.send_to(&frame, rx.local_addr()).unwrap();
        }

        let got = collect(&mut rx, 100, 12);
        let ids: Vec<u64> = got.iter().map(|d| d.message.id).collect();
        assert_eq!(
            ids,
            (1..=12).collect::<Vec<u64>>(),
            "in-sequence despite shuffle"
        );
        let stats = rx.reorder_stats();
        assert!(
            stats.out_of_order > 0,
            "shuffle actually exercised reordering"
        );
        assert!(stats.max_depth > 0);
        assert_eq!(stats.skipped_seqs, 0);
        assert_eq!(rx.reorder_depth(), 0, "nothing left waiting");
    }

    #[test]
    fn a_lost_datagram_is_skipped_after_the_flush_timeout() {
        let cfg = UdpConfig {
            reorder_flush_ticks: 1_000,
            ..UdpConfig::default()
        };
        let sender_id = NodeId::from_index(0);
        let mut rx: UdpTransport<TestMsg> =
            UdpTransport::bind_localhost(NodeId::from_index(1), cfg).unwrap();
        let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
        rx.register_peer(sender_id, raw.local_addr().unwrap());
        // Seq 1 arrives; seq 2 is lost; 3 and 4 arrive and wait.
        for seq in [1u64, 3, 4] {
            let msg = TestMsg {
                id: seq,
                body: vec![],
            };
            raw.send_to(
                &frame::encode_frame(seq, 0, false, &msg.to_frame_payload()),
                rx.local_addr(),
            )
            .unwrap();
        }
        let first = collect(&mut rx, 0, 1);
        assert_eq!(first.len(), 1, "only seq 1 passes while the gap is open");
        // Past the flush timeout the gap is abandoned and 3, 4 flow.
        let late: Vec<u64> = collect(&mut rx, 2_000, 2)
            .iter()
            .map(|d| d.message.id)
            .collect();
        assert_eq!(late, vec![3, 4]);
        assert_eq!(rx.reorder_stats().skipped_seqs, 1);
    }

    #[test]
    fn pacing_queues_bursts_and_releases_them_over_time() {
        // 800 kbit/s, burst of one 100-byte consume: at t=0 roughly one
        // frame leaves; the rest wait in the queue and drain as the
        // manual clock advances.
        let cfg = UdpConfig {
            pace_rate_bps: 800_000,
            pace_burst_bytes: 100,
            ..UdpConfig::default()
        };
        let (mut a, mut b) = pair(cfg);
        for id in 0..5u64 {
            a.send(
                a.node(),
                b.node(),
                64,
                TestMsg {
                    id,
                    body: vec![0; 40],
                },
            )
            .unwrap();
        }
        assert!(a.queued_bytes() > 0, "burst exceeded the bucket");
        assert!(
            Transport::<TestMsg>::first_hop_backlog(&a, a.node(), b.node()).unwrap() > 0,
            "backlog probe sees the pacer queue"
        );
        // The bucket refills 100 bytes/ms (capped at the 100-byte
        // burst), so polling on a 1 ms cadence releases about one frame
        // per beat until the queue is dry.
        let mut t = 0;
        while a.queued_bytes() > 0 && t < 100_000_000 {
            t += 10_000;
            a.set_manual_now(t);
            a.poll(t);
        }
        assert_eq!(a.queued_bytes(), 0);
        assert_eq!(
            Transport::<TestMsg>::first_hop_backlog(&a, a.node(), b.node()),
            Some(0)
        );
        let ids: Vec<u64> = collect(&mut b, 10, 5)
            .iter()
            .map(|d| d.message.id)
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4], "pacing preserves order");
    }

    #[test]
    fn garbage_datagrams_are_counted_not_fatal() {
        let sender_id = NodeId::from_index(0);
        let mut rx: UdpTransport<TestMsg> =
            UdpTransport::bind_localhost(NodeId::from_index(1), UdpConfig::default()).unwrap();
        let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
        rx.register_peer(sender_id, raw.local_addr().unwrap());
        raw.send_to(b"not a frame at all", rx.local_addr()).unwrap();
        let msg = TestMsg {
            id: 1,
            body: vec![],
        };
        raw.send_to(
            &frame::encode_frame(1, 0, false, &msg.to_frame_payload()),
            rx.local_addr(),
        )
        .unwrap();
        let got = collect(&mut rx, 0, 1);
        assert_eq!(got.len(), 1);
        assert_eq!(rx.stats().decode_errors, 1);
    }

    /// Sends data frame `seq` (message id `seq`) from a raw socket.
    fn send_raw(raw: &UdpSocket, to: SocketAddr, seq: u64) {
        let msg = TestMsg {
            id: seq,
            body: vec![],
        };
        let frame = frame::encode_frame(seq, 0, false, &msg.to_frame_payload());
        raw.send_to(&frame, to).unwrap();
    }

    /// Polls `t` until `done` holds or a wall-clock budget expires.
    fn poll_until(
        t: &mut UdpTransport<TestMsg>,
        got: &mut Vec<Delivery<TestMsg>>,
        done: impl Fn(&UdpTransport<TestMsg>, &[Delivery<TestMsg>]) -> bool,
    ) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done(t, got) && Instant::now() < deadline {
            got.extend(t.poll(0));
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    #[test]
    fn a_frame_from_an_unregistered_address_is_counted_and_dropped() {
        let mut rx: UdpTransport<TestMsg> =
            UdpTransport::bind_localhost(NodeId::from_index(1), UdpConfig::default()).unwrap();
        let stranger = UdpSocket::bind("127.0.0.1:0").unwrap();
        send_raw(&stranger, rx.local_addr(), 1);
        let mut got = Vec::new();
        poll_until(&mut rx, &mut got, |t, _| t.stats().unknown_peer == 1);
        assert_eq!(rx.stats().unknown_peer, 1);
        assert!(got.is_empty(), "nothing delivered: {got:?}");
        assert_eq!(rx.stats().frames_received, 0);
        assert_eq!(rx.reorder_depth(), 0);
    }

    #[test]
    fn a_repointed_peer_keeps_its_sequence_and_its_old_address_goes_unknown() {
        let sender_id = NodeId::from_index(0);
        let mut rx: UdpTransport<TestMsg> =
            UdpTransport::bind_localhost(NodeId::from_index(1), UdpConfig::default()).unwrap();
        let (old, new) = (
            UdpSocket::bind("127.0.0.1:0").unwrap(),
            UdpSocket::bind("127.0.0.1:0").unwrap(),
        );
        rx.register_peer(sender_id, old.local_addr().unwrap());
        for seq in [1, 2] {
            send_raw(&old, rx.local_addr(), seq);
        }
        let mut got = collect(&mut rx, 0, 2);
        rx.register_peer(sender_id, new.local_addr().unwrap());
        // The old address now speaks for nobody; the new one continues
        // the peer's sequence where the old one left it, so a replayed
        // seq 2 is a duplicate and seq 3 is delivered.
        send_raw(&old, rx.local_addr(), 3);
        for seq in [2, 3] {
            send_raw(&new, rx.local_addr(), seq);
        }
        poll_until(&mut rx, &mut got, |t, got| {
            got.len() == 3 && t.stats().unknown_peer == 1 && t.reorder_stats().duplicates == 1
        });
        let ids: Vec<u64> = got.iter().map(|d| d.message.id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert!(got.iter().all(|d| d.src == sender_id));
        assert_eq!(rx.stats().unknown_peer, 1);
        assert_eq!(rx.reorder_stats().duplicates, 1);
        assert_eq!(rx.reorder_depth(), 0);
    }

    #[test]
    fn oversize_messages_are_dropped_and_counted() {
        let cfg = UdpConfig {
            max_frame_bytes: 128,
            ..UdpConfig::default()
        };
        let (mut a, b) = pair(cfg);
        a.send(
            a.node(),
            b.node(),
            64,
            TestMsg {
                id: 0,
                body: vec![0; 4096],
            },
        )
        .unwrap();
        assert_eq!(a.stats().oversize_drops, 1);
        assert_eq!(a.stats().frames_sent, 0);
    }

    #[test]
    #[should_panic(expected = "reorder_flush_ticks must be positive")]
    fn zero_reorder_flush_is_rejected() {
        let _ = UdpConfig::default().with_reorder_flush_ticks(0);
    }

    #[test]
    #[should_panic(expected = "pace_rate_bps must be positive")]
    fn zero_pacing_rate_is_rejected() {
        let _ = UdpConfig::default().with_pacing(0, 1024);
    }

    #[test]
    #[should_panic(expected = "pace_burst_bytes must be positive")]
    fn zero_pacing_burst_is_rejected() {
        let _ = UdpConfig::default().with_pacing(1_000_000, 0);
    }

    #[test]
    #[should_panic(expected = "buffer_bytes must be positive")]
    fn zero_repair_buffer_is_rejected() {
        let _ = UdpConfig::default().with_repair(RepairConfig {
            buffer_bytes: 0,
            ..RepairConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "retry_budget must be positive")]
    fn zero_retry_budget_is_rejected() {
        let _ = UdpConfig::default().with_repair(RepairConfig {
            retry_budget: 0,
            ..RepairConfig::default()
        });
    }

    #[test]
    fn builders_accept_positive_knobs() {
        let cfg = UdpConfig::default()
            .with_reorder_flush_ticks(250_000)
            .with_pacing(1_000_000, 64 * 1024)
            .with_repair(RepairConfig::default());
        assert_eq!(cfg.reorder_flush_ticks, 250_000);
        assert_eq!(cfg.pace_rate_bps, 1_000_000);
        assert_eq!(cfg.pace_burst_bytes, 64 * 1024);
        assert!(cfg.repair.is_some());
    }

    /// A codec whose messages can carry a trace context (only the frame
    /// header transports it; the payload stays context-free, like the
    /// real `Wire` codec's untraced variants).
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct TracedMsg {
        id: u64,
        trace: Option<TraceCtx>,
    }

    impl WireCodec for TracedMsg {
        fn encode_wire(&self, buf: &mut Vec<u8>) {
            frame::write_u64(buf, self.id);
        }

        fn encoded_len(&self) -> usize {
            8
        }

        fn decode_wire(r: &mut Reader<'_>) -> Result<Self, CodecError> {
            Ok(Self {
                id: r.u64()?,
                trace: None,
            })
        }

        fn trace_ctx(&self) -> Option<TraceCtx> {
            self.trace
        }
    }

    #[test]
    fn traced_frames_emit_paired_transport_spans() {
        let a_rec = Recorder::new();
        let b_rec = Recorder::new();
        let a_id = NodeId::from_index(0);
        let b_id = NodeId::from_index(1);
        let mut a: UdpTransport<TracedMsg> =
            UdpTransport::bind_localhost(a_id, UdpConfig::default())
                .unwrap()
                .with_recorder(a_rec.clone());
        let mut b: UdpTransport<TracedMsg> =
            UdpTransport::bind_localhost(b_id, UdpConfig::default())
                .unwrap()
                .with_recorder(b_rec.clone());
        a.register_peer(b_id, b.local_addr());
        b.register_peer(a_id, a.local_addr());
        a.set_manual_now(100);
        b.set_manual_now(100);
        let ctx = TraceCtx {
            lecture: 7,
            segment: 3,
            seq: 1,
            origin: 100,
        };
        a.send(
            a_id,
            b_id,
            64,
            TracedMsg {
                id: 1,
                trace: Some(ctx),
            },
        )
        .unwrap();
        // An untraced message on the same path grows no spans.
        a.send(a_id, b_id, 64, TracedMsg { id: 2, trace: None })
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut got = Vec::new();
        while got.len() < 2 && Instant::now() < deadline {
            got.extend(b.poll(200));
            std::thread::sleep(Duration::from_micros(200));
        }
        assert_eq!(got.len(), 2);

        let mut log = a_rec.events();
        log.extend(b_rec.events());
        let causal = lod_obs::check_causal(&log);
        assert!(causal.holds(), "{causal:?}");
        assert_eq!(causal.spans_opened, 3, "pace + wire + reorder");
        let mut asm = lod_obs::SpanAssembler::new();
        for rec in &log {
            asm.ingest(rec);
        }
        let trace = asm.trace(Some(7), 3).expect("the traced segment");
        let hops: Vec<&str> = trace.spans.iter().map(|s| s.hop.as_str()).collect();
        assert!(hops.contains(&"pace"), "{hops:?}");
        assert!(hops.contains(&"wire"), "{hops:?}");
        assert!(hops.contains(&"reorder"), "{hops:?}");
        for s in &trace.spans {
            assert!(s.close.is_some(), "every transport span closes: {s:?}");
        }
    }

    /// Drives a sender and a receiver in manual-clock lockstep until the
    /// receiver has `want` messages or the tick budget runs out.
    fn pump(
        a: &mut UdpTransport<TestMsg>,
        b: &mut UdpTransport<TestMsg>,
        want: usize,
        start: u64,
        max_ticks: u64,
    ) -> Vec<Delivery<TestMsg>> {
        let mut got = Vec::new();
        let mut t = start;
        let wall_deadline = Instant::now() + Duration::from_secs(10);
        while got.len() < want && t < max_ticks && Instant::now() < wall_deadline {
            t += 5_000;
            a.set_manual_now(t);
            a.poll(t);
            b.set_manual_now(t);
            got.extend(b.poll(t));
            std::thread::sleep(Duration::from_micros(100));
        }
        got
    }

    #[test]
    fn a_loss_burst_is_repaired_by_nack_and_retransmit() {
        // Sender a loses ~everything in the first 50k ticks (seeded
        // egress burst), then heals. A trailing frame exposes the gap,
        // the receiver NACKs, and the sender repairs from its buffer —
        // no sequence is skipped and the stream arrives complete.
        let recorder = Recorder::new();
        let cfg = UdpConfig::default().with_repair(RepairConfig::default());
        let (mut a, mut b) = pair(cfg);
        let b_rec = Recorder::new();
        a = a.with_recorder(recorder.clone());
        b = b.with_recorder(b_rec.clone());
        a.set_egress_faults(FaultSpec::loss(42, 0));
        let plan = lod_simnet::FaultPlan::new().loss_burst(0, 50_000, a.node(), b.node(), 999);
        let mut burst = lod_simnet::FaultInjector::new(plan);
        burst.poll(&mut a, 0);
        for id in 1..=10u64 {
            a.send(
                a.node(),
                b.node(),
                64,
                TestMsg {
                    id,
                    body: vec![id as u8; 32],
                },
            )
            .unwrap();
        }
        // Past the burst window, a trailing frame makes the gap visible.
        a.set_manual_now(60_000);
        burst.poll(&mut a, 60_000);
        a.send(
            a.node(),
            b.node(),
            64,
            TestMsg {
                id: 11,
                body: vec![11; 32],
            },
        )
        .unwrap();
        let got = pump(&mut a, &mut b, 11, 60_000, 50_000_000);
        let ids: Vec<u64> = got.iter().map(|d| d.message.id).collect();
        assert_eq!(
            ids,
            (1..=11).collect::<Vec<u64>>(),
            "every lost frame was repaired, in order"
        );
        assert!(a.stats().faults_dropped > 0, "the burst actually dropped");
        assert!(a.stats().nacks_received > 0);
        assert!(a.stats().retransmits_sent > 0);
        assert!(b.stats().nacks_sent > 0);
        assert!(b.stats().retransmits_received > 0);
        assert_eq!(b.reorder_stats().skipped_seqs, 0, "nothing was abandoned");
        assert!(b.repair_rx_stats().repaired > 0);
        // The whole exchange is causally lawful: receiver events first,
        // then the sender's (every retransmit needs its NACK upstream).
        let mut log = b_rec.events();
        log.extend(recorder.events());
        let causal = lod_obs::check_causal(&log);
        assert!(causal.holds(), "{causal:?}");
        assert!(causal.retransmits > 0);
    }

    #[test]
    fn a_tail_loss_is_exposed_by_heartbeat_and_repaired() {
        // The FINAL frame of a burst is dropped: no later data frame
        // will ever expose the gap to the reorder buffer, so only the
        // sender's heartbeat advertisement can get it NACKed.
        let a_rec = Recorder::new();
        let b_rec = Recorder::new();
        let cfg = UdpConfig::default().with_repair(RepairConfig::default());
        let (mut a, mut b) = pair(cfg);
        a = a.with_recorder(a_rec.clone());
        b = b.with_recorder(b_rec.clone());
        a.set_egress_faults(FaultSpec::loss(7, 0));
        let plan =
            lod_simnet::FaultPlan::new().loss_burst(100_000, 50_000, a.node(), b.node(), 999);
        let mut burst = lod_simnet::FaultInjector::new(plan);
        for id in 1..=2u64 {
            a.send(
                a.node(),
                b.node(),
                64,
                TestMsg {
                    id,
                    body: vec![id as u8; 32],
                },
            )
            .unwrap();
        }
        // Inside the burst: the last frame vanishes, then silence.
        a.set_manual_now(100_000);
        burst.poll(&mut a, 100_000);
        a.send(
            a.node(),
            b.node(),
            64,
            TestMsg {
                id: 3,
                body: vec![3; 32],
            },
        )
        .unwrap();
        burst.poll(&mut a, 160_000);
        let got = pump(&mut a, &mut b, 3, 160_000, 50_000_000);
        let ids: Vec<u64> = got.iter().map(|d| d.message.id).collect();
        assert_eq!(ids, vec![1, 2, 3], "the tail frame was repaired");
        assert!(a.stats().faults_dropped > 0, "the tail was actually lost");
        assert!(a.stats().heartbeats_sent > 0, "{:?}", a.stats());
        assert!(b.stats().heartbeats_received > 0, "{:?}", b.stats());
        assert!(b.stats().nacks_sent > 0);
        assert!(a.stats().retransmits_sent > 0);
        assert_eq!(b.reorder_stats().skipped_seqs, 0, "repaired, not skipped");
        // Heartbeats are a bounded burst, not a forever stream: however
        // long the connection idles, at most budget + 1 go out.
        let mut t = 50_000_000u64;
        for _ in 0..100 {
            t += 20_000;
            a.set_manual_now(t);
            a.poll(t);
        }
        assert!(
            a.stats().heartbeats_sent <= u64::from(RepairConfig::default().retry_budget) + 1,
            "{:?}",
            a.stats()
        );
        let mut log = b_rec.events();
        log.extend(a_rec.events());
        let causal = lod_obs::check_causal(&log);
        assert!(causal.holds(), "{causal:?}");
        assert!(causal.retransmits > 0);
    }

    #[test]
    fn budget_exhaustion_authorizes_the_gap_skip() {
        // The peer address points at a mute raw socket, so NACKs go
        // unanswered: after the retry budget the receiver must skip the
        // gap — and prove, via obs, that it waited out the full budget.
        let recorder = Recorder::new();
        let repair = RepairConfig {
            retry_budget: 2,
            ..RepairConfig::default()
        };
        let sender_id = NodeId::from_index(0);
        let mut rx: UdpTransport<TestMsg> = UdpTransport::bind_localhost(
            NodeId::from_index(1),
            UdpConfig::default().with_repair(repair),
        )
        .unwrap()
        .with_recorder(recorder.clone());
        let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
        raw.set_nonblocking(true).unwrap();
        rx.register_peer(sender_id, raw.local_addr().unwrap());
        // Seq 2 is lost forever; 1 and 3 arrive.
        for seq in [1u64, 3] {
            let msg = TestMsg {
                id: seq,
                body: vec![],
            };
            raw.send_to(
                &frame::encode_frame(seq, 0, false, &msg.to_frame_payload()),
                rx.local_addr(),
            )
            .unwrap();
        }
        let mut got = Vec::new();
        let mut t = 0;
        let wall_deadline = Instant::now() + Duration::from_secs(10);
        while got.len() < 2 && Instant::now() < wall_deadline {
            t += 10_000;
            rx.set_manual_now(t);
            got.extend(rx.poll(t));
            std::thread::sleep(Duration::from_micros(100));
        }
        let ids: Vec<u64> = got.iter().map(|d| d.message.id).collect();
        assert_eq!(ids, vec![1, 3], "seq 2 was eventually abandoned");
        assert_eq!(rx.stats().nacks_sent, 2, "exactly the NACK budget");
        assert_eq!(rx.stats().gap_skipped_seqs, 1);
        assert_eq!(rx.reorder_stats().skipped_seqs, 1);
        assert_eq!(rx.repair_rx_stats().gap_skips, 1);
        // The NACKs really left: the mute socket can read them back.
        let mut buf = [0u8; 2048];
        let mut control = 0;
        while let Ok((n, _)) = raw.recv_from(&mut buf) {
            let (h, _) = frame::decode_frame(&buf[..n]).unwrap();
            if h.control {
                control += 1;
            }
        }
        assert_eq!(control, 2);
        // And the trace proves the skip waited out the budget.
        let causal = lod_obs::check_causal(&recorder.events());
        assert!(causal.holds(), "{causal:?}");
        assert_eq!(causal.gap_skips, 1);
    }
}

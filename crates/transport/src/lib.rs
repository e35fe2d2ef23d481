//! Transport abstraction: the same state machines on simnet or real UDP.
//!
//! The streaming server, the relay tier and the clients never cared that
//! their packets travelled through a discrete-event simulator — they only
//! ever used four operations: addressed datagram send (lossy and
//! "reliable"), a backlog probe for the degrade ladder, the clock, and a
//! tick-driven receive. This crate names that surface as the
//! [`Transport`] trait and provides two backends:
//!
//! * **Simnet** — [`lod_simnet::Network`] implements [`Transport`]
//!   directly by forwarding to its inherent methods, so every existing
//!   experiment and byte-diff determinism gate runs through exactly the
//!   same code as before the trait existed. [`SimTransport`] is an alias
//!   that names this backend.
//! * **UDP** — [`UdpTransport`] puts the same `Wire` conversation on real
//!   `std::net::UdpSocket`s: length-prefixed frames carrying a per-peer
//!   monotonic sequence number and a send timestamp ([`frame`]),
//!   token-bucket sender pacing so a relay fan-out does not burst-drop in
//!   the kernel buffer, and a receiver-side reorder buffer ([`reorder`])
//!   that re-sequences out-of-order datagrams before the state machines
//!   see them — the seq/timestamp + pacing + reorder architecture of
//!   production SFU tiers.
//!
//! Determinism contract: the simnet backend is bit-reproducible for a
//! given seed (it *is* the simulator). The UDP backend reads the wall
//! clock unless it is pinned to a manual one
//! ([`UdpTransport::set_manual_now`]); pinned, and polled in a fixed
//! order by one thread, it is a function of the ticks it is handed, so a
//! deployment on it repeats exactly as long as the kernel drops nothing
//! — which is how `lod-core` drives it.

pub mod fault;
pub mod frame;
pub mod reorder;
pub mod repair;
pub mod udp;

use lod_simnet::{Delivery, Network, NetworkError, NodeId};

pub use fault::{FaultAction, FaultEngine, FaultSpec};
pub use frame::{
    decode_frame, encode_frame, mark_retransmit, CodecError, FrameHeader, Reader, WireCodec,
    FLAG_CONTROL, FLAG_RELIABLE, FLAG_RETRANSMIT, FRAME_HEADER_BYTES,
};
pub use reorder::{ReorderBuffer, ReorderStats, SkippedRange, RECEIVE_WINDOW};
pub use repair::{ControlFrame, RepairConfig, RepairRx, RepairTx, RxRound};
pub use udp::{TransportStats, UdpConfig, UdpTransport};

/// Ticks per second (1 tick = 100 ns), matching `lod-simnet`'s clock.
pub const TICKS_PER_SECOND: u64 = 10_000_000;

/// The send/recv/poll surface the server, relay and client state
/// machines use, abstracted over delivery substrate.
///
/// Time is in ticks (100 ns). `NodeId` stays the address type on both
/// backends: the simulator mints ids, the UDP backend maps them to
/// socket addresses through an explicit peer table.
pub trait Transport<M> {
    /// Sends `message` of `bytes` wire size from `src` toward `dst`.
    /// Subject to the substrate's loss model (simnet links may drop it;
    /// UDP is UDP).
    ///
    /// # Errors
    ///
    /// [`NetworkError`] when `dst` is unknown or unroutable.
    fn send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        message: M,
    ) -> Result<(), NetworkError>;

    /// Sends exempt from the substrate's *random* loss model. Control
    /// traffic uses this; on UDP it is the same datagram path (real
    /// reliability lives in the retry layers above), flagged on the
    /// frame so a future connection-oriented backend can diverge.
    ///
    /// # Errors
    ///
    /// [`NetworkError`] when `dst` is unknown or unroutable.
    fn send_reliable(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        message: M,
    ) -> Result<(), NetworkError>;

    /// Ticks until the first hop toward `dst` is free of queued traffic
    /// (`None` when no such link is known). The degrade ladder's
    /// watermark probe.
    fn first_hop_backlog(&self, src: NodeId, dst: NodeId) -> Option<u64>;

    /// Current time in ticks.
    fn now(&self) -> u64;

    /// Link-status signal: whether traffic from `src` can currently
    /// reach `dst` at all (the link is administratively up / the peer is
    /// registered).
    fn link_up(&self, src: NodeId, dst: NodeId) -> bool;

    /// Advances the substrate to `now` and returns everything that
    /// arrived, in delivery order. On simnet this *is*
    /// [`Network::advance_to`]; on UDP it drains the socket, runs the
    /// pacer queue and flushes the reorder buffers.
    fn poll(&mut self, now: u64) -> Vec<Delivery<M>>;
}

/// The deterministic backend: the simulated network itself.
///
/// A thin adapter by construction — the trait impl below forwards every
/// method to the inherent `Network` method of the same name, so code
/// that is generic over [`Transport`] monomorphizes to exactly the
/// pre-trait call graph and cannot perturb a byte of any simnet
/// artifact.
pub type SimTransport<M> = Network<M>;

impl<M> Transport<M> for Network<M> {
    fn send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        message: M,
    ) -> Result<(), NetworkError> {
        Network::send(self, src, dst, bytes, message)
    }

    fn send_reliable(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        message: M,
    ) -> Result<(), NetworkError> {
        Network::send_reliable(self, src, dst, bytes, message)
    }

    fn first_hop_backlog(&self, src: NodeId, dst: NodeId) -> Option<u64> {
        Network::first_hop_backlog(self, src, dst)
    }

    fn now(&self) -> u64 {
        Network::now(self)
    }

    fn link_up(&self, src: NodeId, dst: NodeId) -> bool {
        Network::is_link_up(self, src, dst)
    }

    fn poll(&mut self, now: u64) -> Vec<Delivery<M>> {
        self.advance_to(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lod_simnet::LinkSpec;

    // Exercise the trait surface through a generic function, as the
    // state machines do.
    fn ship<T: Transport<&'static str>>(t: &mut T, src: NodeId, dst: NodeId) {
        t.send(src, dst, 100, "lossy").unwrap();
        t.send_reliable(src, dst, 100, "reliable").unwrap();
    }

    #[test]
    fn simnet_backend_forwards_to_the_network() {
        let mut net: Network<&'static str> = Network::new(1);
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.connect(a, b, LinkSpec::lan());
        ship(&mut net, a, b);
        assert!(Transport::link_up(&net, a, b));
        assert_eq!(Transport::now(&net), 0);
        assert!(Transport::first_hop_backlog(&net, a, b).unwrap() > 0);
        let got = Transport::poll(&mut net, 10_000_000);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].message, "lossy");
        assert_eq!(got[1].message, "reliable");
    }

    #[test]
    fn node_ids_round_trip_through_raw_indices() {
        let mut net: Network<()> = Network::new(1);
        let a = net.add_node("a");
        assert_eq!(NodeId::from_index(a.index()), a);
    }
}

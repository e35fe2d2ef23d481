//! Deterministic discrete-event network simulator.
//!
//! The paper's system is *distributed*: an encoder broadcasts a live ASF
//! stream over HTTP to many students on a campus LAN or the open Internet
//! (§2.5). This crate is that substrate, reproducible down to the tick:
//!
//! * [`Network`] — nodes connected by unidirectional [`LinkSpec`] links
//!   with bandwidth (serialization delay), propagation delay, bounded
//!   uniform jitter and Bernoulli loss, all driven by one seeded RNG.
//! * [`fault`] — the one fault vocabulary and scheduler of every fabric
//!   ([`FaultPlan`] / [`FaultInjector`] / [`FaultTarget`]): link flaps,
//!   loss bursts, latency spikes and node crashes, struck and healed
//!   deterministically and composed by one rule ([`ActiveFaults`]).
//! * [`flow`] — token-bucket flow control, the "fit on a network's
//!   available bandwidth" knob.
//! * [`trace`] — per-link counters (bytes, packets, drops) for the
//!   experiment tables.
//!
//! The simulator is a *transport*, not an actor framework: drivers call
//! [`Network::send`], advance time with [`Network::advance_to`], and pop
//! [`Delivery`] records. Everything is deterministic for a given seed, so
//! every experiment in `EXPERIMENTS.md` is exactly reproducible.
//!
//! # Example
//!
//! ```
//! use lod_simnet::{LinkSpec, Network};
//!
//! let mut net: Network<&'static str> = Network::new(42);
//! let server = net.add_node("server");
//! let client = net.add_node("client");
//! net.connect(server, client, LinkSpec::lan());
//! net.send(server, client, 1500, "hello").unwrap();
//! let deliveries = net.advance_to(1_000_000); // 100 ms in 100ns ticks
//! assert_eq!(deliveries.len(), 1);
//! assert_eq!(deliveries[0].message, "hello");
//! ```

pub mod fault;
pub mod flow;
pub mod link;
pub mod network;
pub mod topology;
pub mod trace;

pub use fault::{
    ActiveFaults, Fault, FaultEvent, FaultInjector, FaultPlan, FaultTarget, PathFaults,
};
pub use flow::TokenBucket;
pub use link::LinkSpec;
pub use network::{Delivery, Network, NetworkError, NodeId};
pub use topology::{relay_tree, RelayTree};
pub use trace::LinkStats;

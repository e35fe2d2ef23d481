//! Petri-net substrate for the WMPS Lecture-on-Demand reproduction.
//!
//! The paper bases its synchronization model on Petri nets ("The concept of
//! our model is based on the Petri net", §1) and cites the classical
//! literature for plain nets (Murata, Peterson), timed nets (Holliday &
//! Vernon) and their analysis (Mayr's reachability). This crate provides
//! that substrate:
//!
//! * [`PetriNet`] — immutable place/transition structure built with
//!   [`NetBuilder`], with weighted arcs and optional place capacities.
//! * [`Marking`] — token assignment, with enabledness and firing rules.
//! * [`timed`] — timed Petri nets: per-transition firing durations and a
//!   deterministic event-driven executor producing an occurrence log.
//! * [`analysis`] — reachability graph exploration, boundedness/safeness,
//!   deadlock detection, and quasi-liveness.
//! * [`invariants`] — incidence matrix and P/T-invariant computation over
//!   rationals (Gaussian elimination), used to verify conservation
//!   properties of the multimedia nets built on top.
//!
//! The paper's model is a *timed* net, so stochastic delays and
//! Karp–Miller coverability are not here: nothing built on this crate
//! needs them.
//!
//! # Example
//!
//! ```
//! use lod_petri::{NetBuilder, Marking};
//!
//! // A two-place producer/consumer loop.
//! let mut b = NetBuilder::new();
//! let free = b.place("free");
//! let full = b.place("full");
//! let produce = b.transition("produce");
//! let consume = b.transition("consume");
//! b.arc_in(free, produce, 1).unwrap();
//! b.arc_out(produce, full, 1).unwrap();
//! b.arc_in(full, consume, 1).unwrap();
//! b.arc_out(consume, free, 1).unwrap();
//! let net = b.build();
//!
//! let mut m = Marking::new(net.place_count());
//! m.set(free, 3);
//! assert!(net.is_enabled(&m, produce));
//! net.fire(&mut m, produce).unwrap();
//! assert_eq!(m.tokens(full), 1);
//! ```

pub mod analysis;
pub mod dot;
pub mod error;
pub mod firing;
pub mod invariants;
pub mod marking;
pub mod net;
pub mod timed;

pub use dot::to_dot;
pub use error::PetriError;
pub use firing::{FiringSequence, RandomFirer};
pub use marking::Marking;
pub use net::{NetBuilder, PetriNet, PlaceId, TransitionId};
pub use timed::{TimedEvent, TimedExecutor, TimedNet};

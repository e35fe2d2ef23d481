//! Media streaming over the simulated network.
//!
//! This is the reproduction's "Windows Media Services": a
//! [`StreamingServer`] that serves stored ASF content (video on demand) or
//! relays a live encoder feed, and a [`StreamingClient`] that buffers,
//! plays out against a pausable media clock, and accounts startup latency
//! and rebuffering — the observable quality metrics of §2.5's bandwidth
//! profiles.
//!
//! The pieces:
//!
//! * [`wire`] — the typed messages exchanged over `lod-simnet`.
//! * [`server`] — sessions, seek via the ASF index, admission,
//!   degradation, live relaying.
//! * [`client`] — reassembly, preroll buffering, stall/resume logic,
//!   render events.
//! * [`ledger`] — running accounts of a session's render events, and
//!   the client slot table drivers dispatch deliveries with.
//! * [`retry`] — the resilience knob: request timeouts, exponential
//!   backoff with deterministic jitter, bounded retries
//!   ([`RetryPolicy`]).
//! * [`metrics`] — per-client quality counters.
//! * [`pacing`] — the playhead and pacer every serving node shares.
//! * [`checkpoint`] — session-state journaling for warm-standby origin
//!   failover ([`SessionCheckpoint`], [`SessionJournal`],
//!   [`StandbyState`]).
//!
//! # Example
//!
//! ```
//! use lod_simnet::{LinkSpec, Network};
//! use lod_streaming::{run_to_completion, StreamingClient, StreamingServer};
//! # use lod_asf::*;
//! # fn demo_file() -> AsfFile {
//! #     let mut pk = Packetizer::new(256).unwrap();
//! #     for i in 0..50u64 {
//! #         pk.push(&MediaSample::new(1, i * 2_000_000, vec![0u8; 200]));
//! #     }
//! #     AsfFile {
//! #         props: FileProperties { file_id: 1, created: 0, packet_size: 256,
//! #             play_duration: 100_000_000, preroll: 10_000_000, broadcast: false,
//! #             max_bitrate: 500_000 },
//! #         streams: vec![StreamProperties { number: 1, kind: StreamKind::Video,
//! #             codec: 4, bitrate: 400_000, name: "v".into() }],
//! #         script: ScriptCommandList::new(),
//! #         drm: None,
//! #         packets: pk.finish(),
//! #         index: None,
//! #     }
//! # }
//! let mut net = Network::new(1);
//! let s = net.add_node("server");
//! let c = net.add_node("client");
//! net.connect_bidirectional(s, c, LinkSpec::lan());
//!
//! let mut server = StreamingServer::new(s);
//! server.publish("lecture", demo_file());
//! let mut client = StreamingClient::new(c, s, "lecture");
//!
//! let events = run_to_completion(&mut net, &mut server, &mut [&mut client], 1_000_000_000);
//! assert!(!events.is_empty());
//! assert_eq!(client.metrics().stalls, 0);
//! ```

pub mod checkpoint;
pub mod client;
pub mod codec;
pub mod ledger;
pub mod metrics;
pub mod pacing;
pub mod retry;
pub mod server;
pub mod wire;

pub use checkpoint::{JournalEntry, SessionCheckpoint, SessionJournal, StandbyState};
pub use client::{ClientState, RenderEvent, StreamingClient};
pub use ledger::{ClientSlots, SessionLedger};
pub use metrics::{ClientMetrics, ServerMetrics};
pub use pacing::{session_pacer, Playhead};
pub use retry::{BreakerPolicy, BreakerState, CircuitBreaker, RetryPolicy};
pub use server::{AdmissionPolicy, DegradePolicy, LiveFeed, StreamingServer};
pub use wire::{ControlRequest, SegmentData, StreamHeader, Wire};

use lod_simnet::Network;

/// Drives server and clients until all clients finish or `horizon` ticks
/// pass, returning every render event in time order.
///
/// The loop alternates: poll the server (which may enqueue packets), advance
/// the network to the next interesting time, deliver messages, tick clients.
pub fn run_to_completion(
    net: &mut Network<Wire>,
    server: &mut StreamingServer,
    clients: &mut [&mut StreamingClient],
    horizon: u64,
) -> Vec<RenderEvent> {
    let mut events = Vec::new();
    run_to_completion_with(net, server, clients, horizon, &mut |e| events.push(e));
    events.sort_by_key(|e| e.wall_time);
    events
}

/// [`run_to_completion`] handing each render event to `sink` as it
/// happens (per step, in client order) instead of collecting them.
pub fn run_to_completion_with(
    net: &mut Network<Wire>,
    server: &mut StreamingServer,
    clients: &mut [&mut StreamingClient],
    horizon: u64,
    sink: &mut impl FnMut(RenderEvent),
) {
    let slots = ClientSlots::new(clients.iter().map(|c| c.node()));
    // Kick off: clients issue their initial requests.
    for c in clients.iter_mut() {
        c.start(net);
    }
    let mut now = 0u64;
    const STEP: u64 = 1_000_000; // 100 ms outer cadence
    while now <= horizon {
        server.poll(net, now);
        let deliveries = net.advance_to(now);
        for d in deliveries {
            if d.dst == server.node() {
                server.on_message(net, d.time, d.src, d.message);
            } else if let Some(slot) = slots.get(d.dst) {
                clients[slot].on_message(d.time, d.message);
            }
        }
        for c in clients.iter_mut() {
            c.step(net, now, sink);
        }
        if clients.iter().all(|c| c.is_done()) {
            break;
        }
        now += STEP;
    }
}

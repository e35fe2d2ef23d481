//! Turns a traced run — spans, counters the nodes keep, the run's own
//! accounting — into the per-layer metrics, in the order of
//! [`crate::metrics::TRACED`].

use crate::metrics::TRACED;
use crate::spans::{Span, TraceReport};
use crate::stats::percentile;
use crate::workloads::{Input, Outcome};

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Walls of the traced unit's untraced twins.
#[derive(Debug, Clone, Copy)]
pub struct Walls {
    /// The same driver with the tracer off.
    pub untraced_s: f64,
    /// The product's facade, where the workload has one.
    pub facade_s: Option<f64>,
}

/// Per-layer metrics of one traced run.
///
/// # Panics
///
/// When `traced` came from a facade run (it has no accounting).
pub fn derive(
    input: &Input,
    traced: &Outcome,
    trace: &TraceReport,
    walls: Walls,
) -> Vec<(&'static str, f64)> {
    let untraced_wall_s = walls.untraced_s;
    let acc = traced
        .account
        .as_ref()
        .expect("a traced run is one of the benchmark's own drivers");
    let wall_ns = traced.wall_s * 1e9;
    let permille = |ns: u64| ratio(ns as f64 * 1000.0, wall_ns);
    let per = |span: Span, den: u64| ratio(trace.of(span).total_ns as f64, den as f64);
    let per_call = |span: Span| per(span, trace.of(span).count);
    let students = input.size.students as u64;
    let session_steps = students * acc.steps;
    let relay_self = trace.layer_self_ns("relay");
    let step_us: Vec<u64> = trace.step_ns.iter().map(|ns| ns / 1_000).collect();

    let value = |name: &str| -> f64 {
        match name {
            "rebuffer_permille" => ratio(
                traced.stall_ticks as f64 * 1000.0,
                traced.playback_ticks as f64,
            ),
            "sessions_failed_permille" => {
                ratio(traced.failed() as f64 * 1000.0, traced.sessions as f64)
            }
            "script_skew_ms_worst" => acc.script_skew_worst_ms,
            "origin_egress_bytes_per_session" => ratio(
                traced.exact.origin_egress_bytes as f64,
                traced.sessions as f64,
            ),
            "core.step_us_p50" => percentile(&step_us, 50) as f64,
            "core.step_us_p99" => percentile(&step_us, 99) as f64,
            "core.driver_self_permille" => permille(trace.layer_self_ns("core")),
            "core.outside_loop_permille" => walls.facade_s.map_or(0.0, |facade_s| {
                ratio((facade_s - untraced_wall_s).max(0.0) * 1000.0, facade_s)
            }),
            "server.poll_ns_per_session_step" => per(Span::ServerPoll, session_steps),
            "server.on_message_ns_per_msg" => per_call(Span::ServerOnMessage),
            "server.self_permille" => permille(trace.layer_self_ns("server")),
            "server.segments_served" => acc.server.segments_served as f64,
            "server.payload_bytes_sent" => acc.server.payload_bytes_sent as f64,
            "server.backpressure_pauses" => acc.server.backpressure_pauses as f64,
            "relay.self_ns_per_pkt" => ratio(relay_self as f64, acc.data_packets as f64),
            "relay.on_message_ns_per_msg" => per_call(Span::RelayOnMessage),
            "relay.poll_ns_per_step" => per_call(Span::RelayPoll),
            "relay.self_permille" => permille(relay_self),
            "relay.cache_hit_permille" => {
                ratio(acc.cache.hits as f64 * 1000.0, acc.cache.lookups() as f64)
            }
            "relay.segment_fetches" => acc.relay.segment_fetches as f64,
            "relay.fetch_retries" => acc.relay.fetch_retries as f64,
            "relay.upstream_bytes" => acc.relay.upstream_bytes_received as f64,
            "client.on_message_ns_per_pkt" => per_call(Span::ClientOnMessage),
            "client.tick_ns_per_session_step" => per_call(Span::ClientTick),
            "client.ctl_ns_per_session_step" => per_call(Span::ClientCtl),
            "client.self_permille" => permille(trace.layer_self_ns("client")),
            "client.samples_lost" => acc.samples_lost as f64,
            "client.retries" => acc.client_retries as f64,
            "client.stalls" => acc.stalls as f64,
            "encoder.self_permille" => permille(trace.layer_self_ns("encoder")),
            "asf.self_permille" => permille(trace.layer_self_ns("asf")),
            "player.self_permille" => permille(trace.layer_self_ns("player")),
            "simnet.send_ns_per_msg" => per_call(Span::SimnetSend),
            "simnet.advance_ns_per_msg" => per(Span::SimnetAdvance, acc.deliveries),
            "simnet.self_permille" => permille(trace.layer_self_ns("simnet")),
            "transport.send_ns_per_frame" => per_call(Span::TransportSend),
            "transport.poll_ns_per_frame" => {
                per(Span::TransportPoll, acc.transport.frames_received)
            }
            "transport.self_permille" => permille(trace.layer_self_ns("transport")),
            "transport.frames_per_s" => ratio(acc.transport.frames_sent as f64, untraced_wall_s),
            "transport.frames_sent" => acc.transport.frames_sent as f64,
            "transport.bytes_sent" => acc.transport.bytes_sent as f64,
            "transport.retransmits" => acc.transport.retransmits_sent as f64,
            "transport.nacks_sent" => acc.transport.nacks_sent as f64,
            "transport.give_ups" => acc.repair_give_ups as f64,
            "transport.reordered" => acc.reorder.out_of_order as f64,
            "transport.skipped_seqs" => acc.reorder.skipped_seqs as f64,
            "transport.duplicates" => acc.reorder.duplicates as f64,
            "transport.decode_errors" => acc.transport.decode_errors as f64,
            "alloc.count_per_pkt" => ratio(trace.allocs as f64, acc.data_packets as f64),
            "alloc.bytes_per_pkt" => ratio(trace.alloc_bytes as f64, acc.data_packets as f64),
            "bytes.backing_allocs" => trace.bytes_backing_allocs as f64,
            "bytes.deep_copied" => trace.bytes_deep_copied as f64,
            "trace.closure_permille" => permille(trace.total_self_ns()),
            "trace.overhead_permille" => {
                ratio((traced.wall_s - untraced_wall_s) * 1000.0, untraced_wall_s)
            }
            other => unreachable!("{other} is in TRACED but has no definition"),
        }
    };
    TRACED
        .iter()
        .map(|&(name, _, _)| (name, value(name)))
        .collect()
}

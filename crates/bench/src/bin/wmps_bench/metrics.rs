//! The metric vocabulary: every name the benchmark prints, with its unit,
//! which direction is better and — for the end-to-end ones — how far it
//! may worsen before that counts as a regression. `BENCHMARK.json` at the
//! repository root lists the same names (a unit test keeps them equal).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a student, or whoever pays for the
/// servers, would notice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median the metric may worsen by.
    pub bound: f64,
    /// A worsening no larger than this (in the metric's own unit) is
    /// below what the measurement resolves and never a regression.
    pub floor: f64,
}

/// The ten end-to-end metrics. Every one applies to every workload and
/// is never zero, because a bound is a share of the baseline: quantities
/// that are zero when all is well (stalled time, failed sessions) are
/// stated as their complement, and the raw figure is a per-layer metric.
///
/// Units: `vms` is milliseconds of the drivers' *virtual* clock — exact
/// and seed-determined, not a wall time.
pub const END_TO_END: [EndToEnd; 10] = [
    // Wall seconds to build and publish the lecture and compute the expected
    // output (plus binding sockets and constructing nodes on udp_*); median
    // of 3-15 set-ups. Most are under 20 ms, where the host alone moves a
    // median by 5-10 %: the widest bound of the ten.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.05,
    },
    // Lecture-seconds delivered to completed sessions per wall second of the
    // timed run: how many real-time students one core carries; the fastest
    // unit of the run's window. The issue asked for 10 %; single runs of
    // unchanged code spread 3-6 % over ten seeds on the box this was written
    // on and 9-11 % (vod_scale_sim) on the acceptance driver's, the shared
    // host's speed moving for whole windows at a time, so the bound is three
    // times the former and twice the latter.
    EndToEnd {
        name: "session_s_per_s",
        unit: "s/s",
        better: Better::Higher,
        bound: 0.2,
        floor: 0.0,
    },
    // Median over sessions of virtual ms from Play to first rendered sample;
    // 5 % of the 2.0-2.3 s it reads is one 100 ms driver step.
    EndToEnd {
        name: "startup_ms_p50",
        unit: "vms",
        better: Better::Lower,
        bound: 0.05,
        floor: 100.0,
    },
    // Slowest session's virtual ms from Play to first rendered sample. Under
    // injected loss it depends on which datagrams the fault seed drops
    // (2.2-4.7 s over ten seeds), hence the wider bound.
    EndToEnd {
        name: "startup_ms_worst",
        unit: "vms",
        better: Better::Lower,
        bound: 0.15,
        floor: 100.0,
    },
    // 1000 minus rebuffer_permille: share of the lecture's ticks not spent
    // stalled.
    EndToEnd {
        name: "smooth_play_permille",
        unit: "permille",
        better: Better::Higher,
        bound: 0.005,
        floor: 1.0,
    },
    // Worst |render wall - (anchor + presentation time)| over every rendered
    // item, slide flips included: the paper's synchronisation guarantee.
    EndToEnd {
        name: "render_skew_ms_worst",
        unit: "vms",
        better: Better::Lower,
        bound: 0.25,
        floor: 100.0,
    },
    // 1000 minus sessions_failed_permille: sessions that finished with every
    // expected sample rendered.
    EndToEnd {
        name: "sessions_ok_permille",
        unit: "permille",
        better: Better::Higher,
        bound: 0.001,
        floor: 0.0,
    },
    // Bytes the origin put on its uplink per 1000 media payload bytes the
    // sessions received: what the relay tier exists to shrink (about 65 with
    // 64 students on 4 relays, about 1045 with none; publish_replay: file
    // bytes read per 1000 payload bytes replayed). An exact count for a
    // seed; stated per payload byte because lectures of different seeds
    // differ by 1 % in size, which is the whole bound.
    EndToEnd {
        name: "origin_egress_permille_of_payload",
        unit: "permille",
        better: Better::Lower,
        bound: 0.01,
        floor: 0.0,
    },
    // (bytes all nodes put on the wire - media payload bytes sessions
    // received) per 1000 payload bytes: headers, control, retransmissions
    // (publish_replay: container bytes over payload).
    EndToEnd {
        name: "wire_overhead_permille",
        unit: "permille",
        better: Better::Lower,
        bound: 0.1,
        floor: 5.0,
    },
    // VmHWM of the run's process once set-up, warm-up and the first timed
    // unit are done.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.1,
        floor: 8.0,
    },
];

/// Looks an end-to-end metric up by name.
#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A per-layer metric: `(name, unit, better)`. No bounds — these explain
/// a movement of an end-to-end metric, they do not gate anything.
pub type Layer = (&'static str, &'static str, Better);

use Better::{Higher as H, Lower as L};

/// Per-layer metrics of the traced run (and the raw figures that
/// end-to-end metrics restate as complements or ratios). A metric whose
/// layer a workload does not run reads 0 there.
pub const TRACED: &[Layer] = &[
    ("rebuffer_permille", "permille", L),
    ("sessions_failed_permille", "permille", L),
    ("script_skew_ms_worst", "vms", L),
    ("origin_egress_bytes_per_session", "bytes", L),
    ("core.step_us_p50", "us", L),
    ("core.step_us_p99", "us", L),
    ("core.driver_self_permille", "permille", L),
    ("core.outside_loop_permille", "permille", L),
    ("server.poll_ns_per_session_step", "ns", L),
    ("server.on_message_ns_per_msg", "ns", L),
    ("server.self_permille", "permille", L),
    ("server.segments_served", "count", L),
    ("server.payload_bytes_sent", "bytes", L),
    ("server.backpressure_pauses", "count", L),
    ("relay.self_ns_per_pkt", "ns", L),
    ("relay.on_message_ns_per_msg", "ns", L),
    ("relay.poll_ns_per_step", "ns", L),
    ("relay.self_permille", "permille", L),
    ("relay.cache_hit_permille", "permille", H),
    ("relay.segment_fetches", "count", L),
    ("relay.fetch_retries", "count", L),
    ("relay.upstream_bytes", "bytes", L),
    ("client.on_message_ns_per_pkt", "ns", L),
    ("client.tick_ns_per_session_step", "ns", L),
    ("client.ctl_ns_per_session_step", "ns", L),
    ("client.self_permille", "permille", L),
    ("client.samples_lost", "count", L),
    ("client.retries", "count", L),
    ("client.stalls", "count", L),
    ("encoder.self_permille", "permille", L),
    ("asf.self_permille", "permille", L),
    ("player.self_permille", "permille", L),
    ("simnet.send_ns_per_msg", "ns", L),
    ("simnet.advance_ns_per_msg", "ns", L),
    ("simnet.self_permille", "permille", L),
    ("transport.send_ns_per_frame", "ns", L),
    ("transport.poll_ns_per_frame", "ns", L),
    ("transport.self_permille", "permille", L),
    ("transport.frames_per_s", "1/s", H),
    ("transport.frames_sent", "count", L),
    ("transport.bytes_sent", "bytes", L),
    ("transport.retransmits", "count", L),
    ("transport.nacks_sent", "count", L),
    ("transport.give_ups", "count", L),
    ("transport.reordered", "count", L),
    ("transport.skipped_seqs", "count", L),
    ("transport.duplicates", "count", L),
    ("transport.decode_errors", "count", L),
    ("alloc.count_per_pkt", "count", L),
    ("alloc.bytes_per_pkt", "bytes", L),
    ("bytes.backing_allocs", "count", L),
    ("bytes.deep_copied", "bytes", L),
    ("trace.closure_permille", "permille", H),
    ("trace.overhead_permille", "permille", L),
];

/// The stage table: isolated loops over one public function each — the
/// unit costs the traced shares are made of. Workload-independent.
pub const STAGES: &[Layer] = &[
    ("asf.packetize_ns_per_pkt", "ns", L),
    ("asf.mux_ns_per_pkt", "ns", L),
    ("asf.demux_ns_per_pkt", "ns", L),
    ("asf.reassemble_ns_per_pkt", "ns", L),
    ("encoder.publish_ns_per_pkt", "ns", L),
    ("abstractor.summarize_us", "us", L),
    ("player.load_ns_per_sample", "ns", L),
    ("player.tick_ns_per_item", "ns", L),
    ("codec.segment_encode_ns", "ns", L),
    ("codec.segment_decode_ns", "ns", L),
    ("codec.data_encode_ns", "ns", L),
    ("codec.data_decode_ns", "ns", L),
    ("codec.control_encode_ns", "ns", L),
    ("codec.control_decode_ns", "ns", L),
    ("codec.segment_frame_bytes", "bytes", L),
    ("codec.data_frame_bytes", "bytes", L),
    ("codec.control_frame_bytes", "bytes", L),
    ("reorder.accept_in_order_ns", "ns", L),
    ("reorder.accept_shuffled_ns", "ns", L),
    ("repair.record_ns_per_frame", "ns", L),
    ("repair.on_nack_ns", "ns", L),
    ("repair.rx_poll_ns", "ns", L),
    ("cache.insert_ns", "ns", L),
    ("cache.get_hit_ns", "ns", L),
    ("simnet.send_deliver_ns_per_msg", "ns", L),
    ("obs.emit_ns_per_event", "ns", L),
    ("obs.emit_disabled_ns", "ns", L),
    ("obs.events_per_session_s", "1/s", L),
    ("ref.copy_1400B_ns", "ns", L),
];

/// Every per-layer metric, traced first.
pub fn per_layer() -> impl Iterator<Item = &'static Layer> {
    TRACED.iter().chain(STAGES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workloads::Workload;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        for &(name, unit, _) in per_layer() {
            assert!(valid_name(name) && valid_unit(unit), "{name}");
            assert!(seen.insert(name), "{name} listed twice");
        }
        assert!(per_layer().count() <= 128);
        assert_eq!(END_TO_END[0].name, "setup_s");
        for w in Workload::ALL {
            assert!(valid_name(w.name()) && w.why().len() <= 200, "{}", w.name());
        }
    }

    /// `BENCHMARK.json` sits at the repository root, some levels above
    /// whichever manifest built this test; when the checkout has it, it
    /// must say what this table says.
    #[test]
    fn benchmark_json_lists_these_metrics_and_workloads() {
        let manifest_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let Some(text) = manifest_dir
            .ancestors()
            .find_map(|dir| std::fs::read_to_string(dir.join("BENCHMARK.json")).ok())
        else {
            return;
        };
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<Value> {
            match doc.get(key) {
                Some(Value::Arr(a)) => a.clone(),
                other => panic!("{key} is not an array: {other:?}"),
            }
        };
        let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);

        let workloads = listed("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (v, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(field(v, "name").as_deref(), Some(w.name()));
            assert_eq!(field(v, "why").as_deref(), Some(w.why()));
        }
        let e2e = listed("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (v, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(v, "name").as_deref(), Some(m.name));
            assert_eq!(field(v, "unit").as_deref(), Some(m.unit));
            assert_eq!(field(v, "better").as_deref(), Some(m.better.as_str()));
            assert_eq!(v.get("bound").and_then(Value::as_f64), Some(m.bound));
        }
        let layers = listed("per_layer");
        assert_eq!(layers.len(), per_layer().count());
        for (v, &(name, unit, better)) in layers.iter().zip(per_layer()) {
            assert_eq!(field(v, "name").as_deref(), Some(name));
            assert_eq!(field(v, "unit").as_deref(), Some(unit));
            assert_eq!(field(v, "better").as_deref(), Some(better.as_str()));
        }
    }
}

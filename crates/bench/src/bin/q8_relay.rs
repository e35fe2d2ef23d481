//! Q8: the edge-relay distribution tier — what a campus full of students
//! costs the origin with and without relays in between.
//!
//! The paper distributes one lecture to many students over limited
//! links; Q8 measures the relay answer: K edge relays pull each ASF
//! packet segment across the shared origin uplink **once**, cache it,
//! and fan it out locally, so origin egress scales with K instead of
//! with the class size. A failure drill kills one relay mid-lecture and
//! checks every re-homed student still finishes.

use lod_bench::report::{header, ms, row};
use lod_core::{synthetic_lecture, ChaosSpec, RelayTierConfig, Wmps, WmpsReport};
use lod_simnet::LinkSpec;

const STUDENTS: usize = 64;
const SEED: u64 = 88;

fn mb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / 1e6)
}

fn table_row(label: &str, report: &WmpsReport, baseline_egress: u64, widths: &[usize]) {
    let n = report.clients.len() as u64;
    let mean_startup: u64 = report.clients.iter().map(|m| m.startup_ticks).sum::<u64>() / n;
    let max_stalls = report.clients.iter().map(|m| m.stalls).max().unwrap_or(0);
    let hit_rate = report
        .relay
        .as_ref()
        .map_or("-".to_string(), |r| format!("{:.2}", r.cache.hit_rate()));
    row(
        &[
            label.to_string(),
            mb(report.origin_egress_bytes),
            format!(
                "{:.1}x",
                baseline_egress as f64 / report.origin_egress_bytes as f64
            ),
            hit_rate,
            ms(mean_startup),
            max_stalls.to_string(),
        ],
        widths,
    );
}

fn main() {
    println!("Q8 — edge relays vs. origin-only over a shared 10 Mbit/s uplink");
    println!("({STUDENTS} students, 1-minute lecture)\n");
    let lecture = synthetic_lecture(55, 1, 300_000);
    let wmps = Wmps::new();
    let file = wmps.publish(&lecture).expect("publish");
    let play_duration = file.props.play_duration;
    let uplink = LinkSpec::broadband().with_bandwidth(10_000_000);
    let access = LinkSpec::lan();

    let baseline = wmps.serve_shared_uplink(file.clone(), uplink, access, STUDENTS, SEED);
    let baseline_egress = baseline.origin_egress_bytes;

    let widths = [12usize, 16, 14, 10, 16, 10];
    header(
        &[
            "relays",
            "origin out MB",
            "uplink cut",
            "cache hit",
            "mean startup ms",
            "max stalls",
        ],
        &widths,
    );
    table_row("origin only", &baseline, baseline_egress, &widths);
    let mut four_relays = None;
    for k in [1usize, 2, 4] {
        let cfg = RelayTierConfig {
            relays: k,
            ..RelayTierConfig::default()
        };
        let report = wmps.serve_with_relays(file.clone(), uplink, access, STUDENTS, SEED, &cfg);
        table_row(&format!("K = {k}"), &report, baseline_egress, &widths);
        if k == 4 {
            four_relays = Some(report);
        }
    }
    let four = four_relays.expect("K=4 ran");

    // The acceptance gates: a 4-relay tier must cut origin uplink bytes
    // at least 2x without making rebuffering worse, and a warm cache must
    // serve most lookups locally.
    let cut = baseline_egress as f64 / four.origin_egress_bytes as f64;
    let base_rebuf = baseline.worst_rebuffer(play_duration);
    let four_rebuf = four.worst_rebuffer(play_duration);
    let hit_rate = four
        .relay
        .as_ref()
        .expect("relay tier ran")
        .cache
        .hit_rate();
    println!(
        "\nuplink cut at K=4: {cut:.1}x  (worst rebuffer {:.1}% -> {:.1}%)",
        base_rebuf * 100.0,
        four_rebuf * 100.0
    );
    assert!(cut >= 2.0, "relays must cut origin egress at least 2x");
    assert!(
        four_rebuf <= base_rebuf,
        "relays must not worsen rebuffering"
    );
    assert!(hit_rate >= 0.8, "warm cache hit rate {hit_rate:.2} < 0.8");
    println!("PASS: K=4 cuts origin uplink {cut:.1}x with no rebuffer regression");
    println!("PASS: warm segment-cache hit rate {hit_rate:.2} >= 0.80");

    // Failure drill: one of four relays dies 20 s into the lecture.
    let cfg = RelayTierConfig {
        relays: 4,
        chaos: ChaosSpec {
            relay_crashes: vec![(200_000_000, u64::MAX, 0)],
            ..ChaosSpec::default()
        },
        ..RelayTierConfig::default()
    };
    let drill = wmps.serve_with_relays(file.clone(), uplink, access, STUDENTS, SEED, &cfg);
    let relay = drill.relay.expect("relay tier ran");
    let complete = drill
        .clients
        .iter()
        .filter(|m| m.samples_rendered > 0)
        .count();
    println!(
        "\nfailure drill: relay 1/4 died at t=20s; {} students re-attached, {}/{} completed",
        relay.reattached, complete, STUDENTS
    );
    assert!(relay.reattached > 0, "the dead relay carried students");
    assert_eq!(complete, STUDENTS, "every student must finish the lecture");
    println!("PASS: mid-lecture relay failure re-attaches students and all complete");

    println!(
        "\nshape: origin egress scales with K (one segment pull per relay)\n\
         instead of with the class; the redirect manager spreads students\n\
         across relays and re-homes them on failure, so the 10 Mbit/s\n\
         uplink that buckled under {STUDENTS} direct sessions carries the\n\
         whole class through {} relay pulls.",
        4
    );
}

//! Golden recording of a relay tier whose caches are under pressure.
//!
//! Every other seeded run uses the default 64 MiB cache budget, which
//! holds a whole lecture, so no segment is ever evicted. Here each relay
//! may keep a quarter of the lecture, the uplink is thin and the students
//! arrive in waves: segments are evicted, re-fetched, retried, coalesced
//! with a fetch already in flight and prefetched. `fixtures/eviction_recording.txt`
//! pins the report and the full event log of that run; any change to
//! which segment a relay evicts, fetches or serves shows up as a diff.

use std::fmt::Write as _;

use lod_core::{synthetic_lecture, RelayTierConfig, Wmps};
use lod_obs::Recorder;
use lod_simnet::LinkSpec;

const STUDENTS: usize = 12;

/// Runs the scenario and renders everything observable about it.
fn record() -> String {
    let wmps = Wmps::new();
    let file = wmps
        .publish(&synthetic_lecture(7, 1, 300_000))
        .expect("publish");
    let lecture_bytes = file.packets.len() as u64 * u64::from(file.props.packet_size);
    let recorder = Recorder::new();
    let cfg = RelayTierConfig {
        relays: 2,
        cache_budget: lecture_bytes / 4,
        arrival_wave: Some((2, 30_000_000)),
        recorder: recorder.clone(),
        ..RelayTierConfig::default()
    };
    let report = wmps.serve_with_relays(
        file,
        LinkSpec::lan().with_bandwidth(1_500_000),
        LinkSpec::lan(),
        STUDENTS,
        7,
        &cfg,
    );
    let relay = report.relay.expect("a relay-tier run reports its relays");
    let mut out = String::new();
    writeln!(
        out,
        "lecture_bytes {lecture_bytes} budget {}",
        cfg.cache_budget
    )
    .unwrap();
    writeln!(out, "{:?}", relay.cache).unwrap();
    writeln!(out, "{:?}", relay.metrics).unwrap();
    for c in &report.clients {
        writeln!(out, "{c:?}").unwrap();
    }
    writeln!(
        out,
        "session_ticks {} origin_egress_bytes {} events_dropped {}",
        report.session_ticks,
        report.origin_egress_bytes,
        recorder.events_dropped()
    )
    .unwrap();
    out.push_str(&recorder.to_jsonl());
    out
}

#[test]
fn evicting_relay_tier_matches_the_recording() {
    let got = record();
    let want = include_str!("fixtures/eviction_recording.txt");
    assert!(
        want.contains("\"kind\":\"cache_evict\""),
        "the recording must exercise eviction"
    );
    assert!(
        got == want,
        "relay-tier report or event log drifted from the recording; first differing line: {:?}",
        got.lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .map(|(i, (g, w))| (i + 1, g.to_string(), w.to_string()))
    );
}

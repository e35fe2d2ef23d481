//! The lossy-chaos drill: the loopback deployment (origin + 2 relays +
//! 32 clients on real localhost UDP sockets) under seeded fault
//! injection — ~10% steady datagram loss on the media direction plus a
//! `ChaosSpec` burst-loss window on every student's access link — run
//! twice, with transport repair off and on.
//!
//! What it proves:
//!
//! * With repair **off**, loss surfaces to the application as segment
//!   re-requests (client retries + relay fetch retries) — the expensive
//!   round trips the NACK/retransmit sublayer exists to remove.
//! * With repair **on**, every one of the 32 sessions still completes,
//!   application-level re-requests shrink at least 5×, and the merged
//!   event log satisfies the repair causality invariants: every
//!   retransmit answers a prior NACK, give-ups stay within the retry
//!   budget, and gaps are skipped only after the budget is exhausted.

use lod_core::{
    serve_loopback_udp, synthetic_lecture, ChaosSpec, Recorder, RelayTierConfig, UdpConfig, Wmps,
    WmpsReport,
};
use lod_obs::{check_causal, EventRecord};
use lod_streaming::RetryPolicy;
use lod_transport::{FaultSpec, RepairConfig};

/// Ticks per simulated second (1 tick = 100 ns).
const SECOND: u64 = 10_000_000;

/// The steady loss both runs share: 12% on every egress datagram of the
/// origin and relay tiers.
fn steady_loss() -> FaultSpec {
    FaultSpec::loss(16, 120)
}

/// The storm both runs share: a 35% burst on every student's access link
/// between simulated seconds 5 and 15.
fn storm() -> ChaosSpec {
    ChaosSpec {
        access_loss_bursts: vec![(5 * SECOND, 10 * SECOND, 350)],
        ..ChaosSpec::default()
    }
}

/// Application-level recovery, active in both runs: it is the layer
/// whose workload (re-requests) the comparison measures. The timeout is
/// a deliberate 3 simulated seconds, so a retry means a genuine
/// unrepaired stall.
fn app_retry() -> RetryPolicy {
    RetryPolicy {
        request_timeout: 3 * SECOND,
        base_backoff: SECOND / 2,
        max_backoff: 4 * SECOND,
        max_retries: 30,
    }
}

/// Application-level re-requests: client segment retries plus relay
/// fetch retries — the round trips transport repair exists to remove.
fn rerequests(report: &WmpsReport) -> u64 {
    let relay = report.relay.map_or(0, |r| r.metrics.fetch_retries);
    report.clients.iter().map(|c| c.retries).sum::<u64>() + relay
}

/// Serves `file` to 32 students through 2 relays under [`steady_loss`]
/// and [`storm`], with [`app_retry`] armed and every event recorded.
fn run(file: &lod_asf::AsfFile, udp: UdpConfig) -> (WmpsReport, Vec<EventRecord>) {
    let cfg = RelayTierConfig {
        relays: 2,
        chaos: storm(),
        client_retry: Some(app_retry()),
        recorder: Recorder::new(),
        ..RelayTierConfig::default()
    };
    let report = serve_loopback_udp(file.clone(), 32, 7, &cfg, udp, Some(steady_loss()))
        .expect("loopback run");
    (report, cfg.recorder.events())
}

#[test]
fn repair_cuts_app_rerequests_five_fold_under_chaos() {
    let wmps = Wmps::new();
    let lecture = synthetic_lecture(1, 1, 300_000);
    let file = wmps.publish(&lecture).expect("publish");

    // Repair off: loss reaches the reorder buffer, times out, and is
    // skipped up to the application, which re-requests at segment
    // granularity.
    let (off_report, off_events) = run(&file, UdpConfig::loopback());
    let off = off_report.socket.expect("socket run").transport;
    assert!(
        off.faults_dropped > 0,
        "the chaos stage must actually drop datagrams: {off:?}"
    );
    assert!(
        rerequests(&off_report) >= 20,
        "without repair, ~10% datagram loss must surface as application \
         re-requests (got {}): {off:?}",
        rerequests(&off_report)
    );
    // Repair-off gap skips are unconditional flushes (nacks = 0 against
    // a budget of 0) and must still be lawful to the checker.
    let off_causal = check_causal(&off_events);
    assert!(off_causal.holds(), "{off_causal:?}");
    assert_eq!(off.retransmits_sent, 0);

    // Repair on: the same seeded chaos, now with the NACK/retransmit
    // sublayer between the wire and the application. Production-shaped
    // tuning for a lossy trunk: enough retransmit buffer that a NACK
    // round trip cannot outrun eviction at segment fan-out rates, and
    // enough budget to ride out the 35% burst.
    let (on_report, on_events) = run(
        &file,
        UdpConfig::loopback().with_repair(RepairConfig {
            buffer_bytes: 4 << 20,
            retry_budget: 6,
            ..RepairConfig::default()
        }),
    );
    let on = on_report.socket.expect("socket run").transport;
    assert_eq!(
        on_report.hard_failures(),
        0,
        "no session may be lost with repair on: {on:?}"
    );
    assert_eq!(
        on_report.completed_sessions(),
        32,
        "every client must complete with repair on: {on:?}"
    );
    assert!(on.faults_dropped > 0, "{on:?}");
    assert!(
        on.nacks_sent > 0 && on.retransmits_sent > 0,
        "repair must have actually run: {on:?}"
    );
    assert!(
        rerequests(&on_report) * 5 <= rerequests(&off_report),
        "repair must cut application re-requests at least 5x: \
         {} with repair vs {} without",
        rerequests(&on_report),
        rerequests(&off_report)
    );

    // Causality: every retransmit answers a NACK some receiver sent
    // earlier, give-ups respect the retry budget, and any skipped gap
    // exhausted its budget first.
    let on_causal = check_causal(&on_events);
    assert!(on_causal.holds(), "{on_causal:?}");
    assert!(on_causal.retransmits > 0, "{on_causal:?}");
}

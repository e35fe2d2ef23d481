//! The loopback deployment drill: origin + 2 relays + 32 clients on
//! real localhost UDP sockets, completing a published lecture, with
//! sample counts reconciling against a simnet run of the same file and
//! tier shape.

use lod_core::{
    serve_loopback_udp, synthetic_lecture, FaultSpec, LoopbackConfig, RelayTierConfig,
    RepairConfig, RetryPolicy, Wmps,
};
use lod_simnet::LinkSpec;

#[test]
fn loopback_udp_lecture_completes_and_reconciles_with_simnet() {
    let wmps = Wmps::new();
    let lecture = synthetic_lecture(1, 1, 300_000);
    let file = wmps.publish(&lecture).expect("publish");

    let cfg = LoopbackConfig::default();
    assert_eq!(cfg.relays, 2);
    assert_eq!(cfg.clients, 32);
    let report = serve_loopback_udp(file.clone(), &cfg);

    // Outcome gates: everyone finishes, nobody gives up or is shed.
    assert_eq!(
        report.abandoned, 0,
        "no session may be abandoned on loopback: {report:?}"
    );
    assert_eq!(
        report.completed, cfg.clients,
        "every client must complete: {report:?}"
    );
    assert!(report.clients.iter().all(|c| !c.shed));

    // The tier actually did tier work: relays fetched from the origin
    // and the sockets moved real traffic.
    assert!(report.relay.segment_fetches > 0, "{:?}", report.relay);
    assert!(report.server.segments_served > 0, "{:?}", report.server);
    assert!(report.transport.frames_sent > 0);
    assert!(report.transport.frames_received > 0);
    assert_eq!(report.transport.decode_errors, 0, "{:?}", report.transport);
    assert_eq!(report.transport.oversize_drops, 0, "{:?}", report.transport);

    // Reconcile with the simulator: the same file through the same tier
    // shape must render the same number of samples per student — the
    // transport must not change *what* plays, only *how* it travels.
    let sim = wmps.serve_with_relays(
        file,
        LinkSpec::lan(),
        LinkSpec::lan(),
        cfg.clients,
        7,
        &RelayTierConfig {
            relays: cfg.relays,
            ..RelayTierConfig::default()
        },
    );
    let sim_samples = sim.clients[0].samples_rendered;
    assert!(sim_samples > 0);
    assert!(
        sim.clients
            .iter()
            .all(|c| c.samples_rendered == sim_samples),
        "simnet baseline must be uniform"
    );
    for (i, c) in report.clients.iter().enumerate() {
        assert_eq!(
            c.samples_rendered, sim_samples,
            "client {i} rendered {} samples, simnet rendered {sim_samples}",
            c.samples_rendered
        );
        assert_eq!(c.samples_lost, 0, "client {i}: {c:?}");
    }
}

/// Packets too large for 32 to share a datagram used to play *nothing*,
/// silently: every segment was an oversize drop. The segment now shrinks
/// to what fits, and the lecture plays every sample simnet plays.
#[test]
fn large_packets_get_smaller_segments_and_play_every_sample() {
    let wmps = Wmps::new().with_packet_size(4_000);
    let file = wmps
        .publish(&synthetic_lecture(3, 1, 300_000))
        .expect("publish");
    let cfg = LoopbackConfig {
        relays: 1,
        clients: 4,
        ..LoopbackConfig::default()
    };
    let report = serve_loopback_udp(file.clone(), &cfg);
    assert_eq!(report.transport.oversize_drops, 0, "{:?}", report.transport);
    assert_eq!(report.completed, cfg.clients, "{report:?}");
    let sim = wmps.serve_and_replay(file, LinkSpec::lan(), 1, 7);
    assert!(sim.clients[0].samples_rendered > 0);
    for (i, c) in report.clients.iter().enumerate() {
        assert_eq!(
            c.samples_rendered, sim.clients[0].samples_rendered,
            "client {i}: {c:?}"
        );
    }
}

#[test]
#[should_panic(expected = "65000-byte packet and the stream header do not fit one 61440-byte")]
fn packets_no_datagram_can_hold_are_refused() {
    let wmps = Wmps::new().with_packet_size(65_000);
    let file = wmps
        .publish(&synthetic_lecture(3, 1, 300_000))
        .expect("publish");
    let _ = serve_loopback_udp(file, &LoopbackConfig::default());
}

/// One thread steps every node on a manual clock, so the socket path is
/// reproducible (while the kernel drops nothing): the same lossy,
/// repaired deployment twice gives the same counters and the same
/// event log.
#[test]
fn lossy_loopback_runs_are_reproducible() {
    let file = Wmps::new()
        .publish(&synthetic_lecture(1, 1, 300_000))
        .expect("publish");
    let mut cfg = LoopbackConfig {
        fault: Some(FaultSpec::loss(16, 120)),
        client_retry: Some(RetryPolicy::client()),
        record_events: true,
        ..LoopbackConfig::default()
    };
    cfg.udp = cfg.udp.with_repair(RepairConfig::default());
    assert_eq!((cfg.relays, cfg.clients), (2, 32));
    let a = serve_loopback_udp(file.clone(), &cfg);
    let b = serve_loopback_udp(file, &cfg);
    assert!(a.transport.faults_dropped > 0 && a.transport.retransmits_sent > 0);
    assert_eq!(a.completed, cfg.clients, "{:?}", a.clients);
    assert_eq!(a.clients, b.clients);
    assert_eq!(a.transport, b.transport);
    assert_eq!(a.reorder, b.reorder);
    assert_eq!(a.rerequests, b.rerequests);
    assert!(!a.events.is_empty());
    assert_eq!(a.events, b.events);
}

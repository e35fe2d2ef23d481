//! The loopback deployment drill: origin + 2 relays + 32 clients on
//! real localhost UDP sockets, completing a published lecture, and
//! agreeing with a simnet run of the same file and tier shape on what
//! every student saw.

use lod_core::{
    check_causal, serve_loopback_udp, session_timelines, synthetic_lecture, AdmissionPolicy,
    ChaosSpec, Event, EventRecord, FailoverConfig, FaultSpec, Recorder, RelayTierConfig,
    RepairConfig, RetryPolicy, UdpConfig, Wmps,
};
use lod_simnet::LinkSpec;
use std::io::ErrorKind;

/// The drill's tier: 2 relays, recording into a fresh recorder.
fn recorded_tier() -> RelayTierConfig {
    RelayTierConfig {
        relays: 2,
        recorder: Recorder::new(),
        ..RelayTierConfig::default()
    }
}

/// Every `(node, label)` a log names, in emission order.
fn labels(events: &[EventRecord]) -> Vec<(u64, String)> {
    events
        .iter()
        .filter_map(|r| match &r.event {
            Event::NodeLabel { node, label } => Some((*node, label.clone())),
            _ => None,
        })
        .collect()
}

#[test]
fn loopback_udp_lecture_completes_and_reconciles_with_simnet() {
    let wmps = Wmps::new();
    let lecture = synthetic_lecture(1, 1, 300_000);
    let file = wmps.publish(&lecture).expect("publish");
    let students = 32;

    let udp_cfg = recorded_tier();
    let report = serve_loopback_udp(
        file.clone(),
        students,
        7,
        &udp_cfg,
        UdpConfig::loopback(),
        None,
    )
    .expect("loopback run");
    let socket = report.socket.expect("a socket run reports its sockets");

    // Outcome gates: everyone finishes, nobody gives up or is shed.
    assert_eq!(report.completed_sessions(), students, "{report:?}");
    assert_eq!(report.hard_failures(), 0, "{report:?}");
    assert_eq!(report.shed_clients(), 0, "{report:?}");

    // The tier actually did tier work: students were redirected to
    // relays, the relays fetched from the origin, and the sockets moved
    // real traffic.
    let relay = report.relay.expect("relay tier");
    assert!(relay.metrics.sessions_served > 0, "{relay:?}");
    assert!(relay.metrics.segment_fetches > 0, "{relay:?}");
    assert!(report.server.segments_served > 0, "{:?}", report.server);
    assert!(report.origin_egress_bytes > 0);
    assert!(socket.transport.frames_sent > 0);
    assert!(socket.transport.frames_received > 0);
    assert_eq!(socket.transport.decode_errors, 0, "{:?}", socket.transport);
    assert_eq!(socket.transport.oversize_drops, 0, "{:?}", socket.transport);

    // Reconcile with the simulator: the same file through the same tier
    // shape must give every student the same session — the transport
    // must not change *what* plays, only *how* it travels.
    let sim_cfg = recorded_tier();
    let sim = wmps.serve_with_relays(
        file,
        LinkSpec::lan(),
        LinkSpec::lan(),
        students,
        7,
        &sim_cfg,
    );
    assert!(sim.socket.is_none());
    let (sim_log, udp_log) = (sim_cfg.recorder.events(), udp_cfg.recorder.events());
    assert_eq!(labels(&sim_log), labels(&udp_log), "one node layout");
    for log in [&sim_log, &udp_log] {
        let causal = check_causal(log);
        assert!(causal.holds(), "{causal:?}");
    }
    let (sim_t, udp_t) = (session_timelines(&sim_log), session_timelines(&udp_log));
    assert_eq!(sim_t.len(), students);
    assert_eq!(udp_t.len(), students);
    for (i, (s, u)) in sim_t.iter().zip(&udp_t).enumerate() {
        assert_eq!(s.label, u.label);
        assert_eq!(s.stalls.len(), u.stalls.len(), "student {i} stalls");
        assert_eq!(s.retries, u.retries, "student {i} retries");
        assert_eq!(s.busy_bounces, u.busy_bounces, "student {i} bounces");
        assert_eq!(
            s.ended.map(|(_, k)| k),
            u.ended.map(|(_, k)| k),
            "student {i} end"
        );
    }
    assert!(sim.clients[0].samples_rendered > 0);
    for (i, (s, u)) in sim.clients.iter().zip(&report.clients).enumerate() {
        assert_eq!(u.samples_rendered, s.samples_rendered, "student {i}");
        assert_eq!(u.samples_lost, 0, "student {i}: {u:?}");
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
    let cfg = RelayTierConfig {
        relays: 1,
        ..RelayTierConfig::default()
    };
    let report = serve_loopback_udp(file.clone(), 4, 7, &cfg, UdpConfig::loopback(), None)
        .expect("loopback run");
    let socket = report.socket.expect("socket run");
    assert_eq!(socket.transport.oversize_drops, 0, "{:?}", socket.transport);
    assert_eq!(report.completed_sessions(), 4, "{report:?}");
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
fn packets_no_datagram_can_hold_are_refused() {
    let wmps = Wmps::new().with_packet_size(65_000);
    let file = wmps
        .publish(&synthetic_lecture(3, 1, 300_000))
        .expect("publish");
    let udp = UdpConfig::loopback();
    let err = serve_loopback_udp(file, 4, 7, &RelayTierConfig::default(), udp, None)
        .expect_err("no datagram holds a 65000-byte packet");
    assert_eq!(err.kind(), ErrorKind::InvalidInput, "{err}");
    assert!(
        err.to_string()
            .contains("65000-byte packet and the stream header do not fit one 61440-byte"),
        "{err}"
    );
}

/// Ticks per simulated second (1 tick = 100 ns).
const SECOND: u64 = 10_000_000;

/// Q9's "severe" storm, sized for 16 students: a 5% brownout on every
/// access link, relay0 dead for good, a 2 s uplink partition and two
/// yanked cables.
fn severe_storm() -> RelayTierConfig {
    RelayTierConfig {
        chaos: ChaosSpec {
            access_loss_bursts: vec![(10 * SECOND, 15 * SECOND, 50)],
            relay_crashes: vec![(20 * SECOND, u64::MAX, 0)],
            uplink_partitions: vec![(30 * SECOND, 2 * SECOND)],
            access_flaps: vec![(12 * SECOND, 3 * SECOND / 2, 7), (35 * SECOND, SECOND, 13)],
            ..ChaosSpec::default()
        },
        client_retry: Some(RetryPolicy::client()),
        ..recorded_tier()
    }
}

/// The socket tuning for a storm: a brownout drops datagrams whatever
/// their flag, so the redirect that re-homes a crashed relay's student
/// needs the repair sublayer to be as reliable as simnet's reliable send.
fn storm_udp() -> UdpConfig {
    UdpConfig::loopback().with_repair(RepairConfig::default())
}

/// Every `(struck, fault, a, b)` a log names, in emission order.
fn faults(events: &[EventRecord]) -> Vec<(bool, String, u64, u64)> {
    events
        .iter()
        .filter_map(|r| match &r.event {
            Event::FaultStrike { fault, a, b, .. } => Some((true, fault.clone(), *a, *b)),
            Event::FaultHeal { fault, a, b } => Some((false, fault.clone(), *a, *b)),
            _ => None,
        })
        .collect()
}

/// The relay-kill drill runs on sockets with no drill-specific wiring:
/// one seeded storm strikes the same faults on both fabrics, re-homes the
/// same students and ends every session the same way.
#[test]
fn the_severe_storm_runs_alike_on_both_fabrics() {
    let wmps = Wmps::new();
    let file = wmps
        .publish(&synthetic_lecture(1, 1, 300_000))
        .expect("publish");
    let students = 16;
    let sim_cfg = severe_storm();
    let sim = wmps.serve_with_relays(
        file.clone(),
        LinkSpec::lan(),
        LinkSpec::lan(),
        students,
        7,
        &sim_cfg,
    );
    let udp_cfg = severe_storm();
    let udp =
        serve_loopback_udp(file, students, 7, &udp_cfg, storm_udp(), None).expect("loopback run");

    // 16 access bursts, one relay crash, one partition, two flaps.
    assert_eq!(sim.faults_applied, 20);
    assert_eq!(udp.faults_applied, sim.faults_applied);
    let (sim_relay, udp_relay) = (
        sim.relay.expect("relay tier"),
        udp.relay.expect("relay tier"),
    );
    assert!(sim_relay.reattached > 0);
    assert_eq!(udp_relay.reattached, sim_relay.reattached);
    let (sim_log, udp_log) = (sim_cfg.recorder.events(), udp_cfg.recorder.events());
    assert_eq!(faults(&udp_log), faults(&sim_log));
    for log in [&sim_log, &udp_log] {
        let causal = check_causal(log);
        assert!(causal.holds(), "{causal:?}");
    }
    let (sim_t, udp_t) = (session_timelines(&sim_log), session_timelines(&udp_log));
    assert_eq!(udp_t.len(), students);
    for (i, (s, u)) in sim_t.iter().zip(&udp_t).enumerate() {
        assert_eq!(
            s.ended.map(|(_, k)| k),
            u.ended.map(|(_, k)| k),
            "student {i} end"
        );
    }
    assert_eq!(udp.completed_sessions(), students, "{:?}", udp.clients);
    let socket = udp.socket.expect("socket run").transport;
    assert!(socket.faults_dropped > 0, "{socket:?}");
}

/// The storm on sockets is as reproducible as the calm: two runs log
/// byte-identical events.
#[test]
fn the_severe_storm_replays_byte_identically_on_sockets() {
    let file = Wmps::new()
        .publish(&synthetic_lecture(1, 1, 300_000))
        .expect("publish");
    let run = || {
        let cfg = severe_storm();
        let report =
            serve_loopback_udp(file.clone(), 16, 7, &cfg, storm_udp(), None).expect("loopback run");
        (report, cfg.recorder.to_jsonl())
    };
    let (a, a_log) = run();
    let (b, b_log) = run();
    assert_eq!(a.clients, b.clients);
    assert_eq!(a.relay, b.relay);
    assert!(!a_log.is_empty());
    assert!(a_log == b_log, "two storm runs logged different events");
}

/// The origin-kill drill on sockets: the origin dies for good 10 s in,
/// the warm standby is promoted, and every student finishes with no
/// stale-epoch reply crossing the fence.
#[test]
fn an_origin_kill_fails_over_on_sockets() {
    let file = Wmps::new()
        .publish(&synthetic_lecture(1, 1, 300_000))
        .expect("publish");
    // One seat per relay: two students stream via relays, two via the
    // origin itself — the sessions a failover must migrate.
    let cfg = RelayTierConfig {
        relay_capacity_sessions: Some(1),
        client_retry: Some(RetryPolicy::client()),
        chaos: ChaosSpec {
            origin_down: vec![(10 * SECOND, u64::MAX)],
            ..ChaosSpec::default()
        },
        failover: Some(FailoverConfig::default()),
        ..recorded_tier()
    };
    let report =
        serve_loopback_udp(file, 4, 3, &cfg, UdpConfig::loopback(), None).expect("loopback run");
    assert_eq!(report.completed_sessions(), 4, "{:?}", report.clients);
    let fo = report.failover.expect("failover tier ran");
    assert!(fo.promoted_at.is_some(), "the standby must be promoted");
    assert!(fo.sessions_migrated >= 2, "{fo:?}");
    assert_eq!(fo.stale_epoch_replies, 0, "fencing must hold: {fo:?}");
    let causal = check_causal(&cfg.recorder.events());
    assert!(causal.holds(), "{causal:?}");
    assert_eq!(causal.promotions, 1);
}

/// Killing the origin with no standby to take over is refused on sockets
/// as on simnet — here as an error rather than a panic.
#[test]
fn an_origin_kill_without_a_standby_is_refused_on_sockets() {
    let file = Wmps::new()
        .publish(&synthetic_lecture(1, 1, 300_000))
        .expect("publish");
    let cfg = RelayTierConfig {
        chaos: ChaosSpec {
            origin_down: vec![(SECOND, u64::MAX)],
            ..ChaosSpec::default()
        },
        ..RelayTierConfig::default()
    };
    let err = serve_loopback_udp(file, 4, 7, &cfg, UdpConfig::loopback(), None)
        .expect_err("no standby to promote");
    assert_eq!(err.kind(), ErrorKind::InvalidInput, "{err}");
    assert!(
        err.to_string()
            .contains("requires RelayTierConfig::failover"),
        "{err}"
    );
}

/// The warm standby and the overload ladder run on sockets too: a
/// one-seat-per-relay tier sheds or serves every student, and the
/// standby replicates without ever being promoted.
#[test]
fn overload_and_standby_knobs_work_on_sockets() {
    let file = Wmps::new()
        .publish(&synthetic_lecture(1, 1, 300_000))
        .expect("publish");
    // One full-rate seat per server, as `wmps serve --max-sessions 1`.
    let seat = u64::from(file.props.max_bitrate).max(64_000);
    let admission = AdmissionPolicy::new(1, seat);
    let cfg = RelayTierConfig {
        relays: 2,
        origin_admission: Some(admission),
        relay_admission: Some(admission),
        relay_capacity_sessions: Some(1),
        failover: Some(FailoverConfig {
            heartbeat_interval: 5_000_000,
            miss_threshold: 10,
            checkpoint_every: 10_000_000,
        }),
        ..RelayTierConfig::default()
    };
    let report =
        serve_loopback_udp(file, 6, 7, &cfg, UdpConfig::loopback(), None).expect("loopback run");
    assert_eq!(report.hard_failures(), 0, "{:?}", report.clients);
    assert!(report.shed_clients() > 0, "{:?}", report.clients);
    let failover = report.failover.expect("standby armed");
    assert_eq!(failover.promoted_at, None);
    assert!(failover.checkpoints_replicated > 0, "{failover:?}");
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
    let run = || {
        let cfg = RelayTierConfig {
            client_retry: Some(RetryPolicy::client()),
            ..recorded_tier()
        };
        let udp = UdpConfig::loopback().with_repair(RepairConfig::default());
        let fault = FaultSpec::loss(16, 120);
        let report =
            serve_loopback_udp(file.clone(), 32, 7, &cfg, udp, Some(fault)).expect("loopback run");
        (report, cfg.recorder.events())
    };
    let (a, a_log) = run();
    let (b, b_log) = run();
    let (sa, sb) = (a.socket.expect("socket run"), b.socket.expect("socket run"));
    assert!(sa.transport.faults_dropped > 0 && sa.transport.retransmits_sent > 0);
    assert_eq!(a.completed_sessions(), 32, "{:?}", a.clients);
    assert_eq!(a.clients, b.clients);
    assert_eq!(sa.transport, sb.transport);
    assert_eq!(sa.reorder, sb.reorder);
    assert_eq!(a.relay, b.relay);
    assert!(!a_log.is_empty());
    assert_eq!(a_log, b_log);
}

/// The socket counters are exported once, from the deployment's
/// aggregate: every `transport_*` counter in the exposition is the
/// matching field of the `TransportStats` merged over every node, and
/// the reorder gauges are the merged `ReorderStats` (skips summed, peak
/// maxed), not whichever node polled last. With repair off too, the
/// summed skips are exported once, as that gauge.
#[test]
fn socket_counters_are_published_from_the_deployment_aggregate() {
    let file = Wmps::new()
        .publish(&synthetic_lecture(1, 1, 300_000))
        .expect("publish");
    for repair in [true, false] {
        let cfg = RelayTierConfig {
            client_retry: Some(RetryPolicy::client()),
            ..recorded_tier()
        };
        let mut udp = UdpConfig::loopback();
        if repair {
            udp = udp.with_repair(RepairConfig::default());
        }
        let fault = FaultSpec::loss(16, 120);
        let report =
            serve_loopback_udp(file.clone(), 32, 7, &cfg, udp, Some(fault)).expect("loopback run");
        let socket = report.socket.expect("socket run");
        let (t, r) = (socket.transport, socket.reorder);
        assert!(r.skipped_seqs > 0, "repair {repair}: the run must skip");
        let reg = cfg.recorder.registry();
        let counters = [
            ("transport_frames_sent", t.frames_sent),
            ("transport_frames_received", t.frames_received),
            ("transport_decode_errors", t.decode_errors),
            ("transport_nacks_sent", t.nacks_sent),
            ("transport_nacks_received", t.nacks_received),
            ("transport_retransmits_sent", t.retransmits_sent),
            ("transport_retransmits_received", t.retransmits_received),
            ("transport_repair_give_ups", t.repair_give_ups),
            ("transport_gap_skipped_seqs", t.gap_skipped_seqs),
            ("transport_heartbeats_sent", t.heartbeats_sent),
            ("transport_heartbeats_received", t.heartbeats_received),
        ];
        for (name, want) in counters {
            assert_eq!(reg.counter(name), want, "repair {repair}: {name}");
        }
        // No other transport counter is exported.
        let prom = cfg.recorder.prometheus();
        for line in prom.lines().filter(|l| l.ends_with(" counter")) {
            let family = line.split(' ').nth(2).expect("# TYPE family kind");
            assert!(
                !family.starts_with("transport_") || counters.iter().any(|(n, _)| *n == family),
                "repair {repair}: stray {family}"
            );
        }
        assert_eq!(reg.counter("transport_frames_skipped"), 0);
        assert_eq!(reg.gauge("transport_skipped_seqs"), r.skipped_seqs);
        assert_eq!(
            reg.gauge("transport_reorder_depth_peak"),
            r.max_depth as u64
        );
        assert!(prom.contains("\ntransport_reorder_depth "), "{prom}");
    }
}

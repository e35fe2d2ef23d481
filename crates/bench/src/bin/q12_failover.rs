//! Q12: origin failover — kill the origin mid-lecture and grade the
//! warm-standby takeover.
//!
//! 64 students stream a one-minute lecture through a 4-relay tier; 20 s
//! in, the origin node crashes for good, wiping its volatile session
//! state. The standby has been applying the replicated checkpoint
//! journal all along; its heartbeat monitor counts the silence, declares
//! the origin dead after the miss threshold, and the driver promotes it
//! at fencing epoch 2 — relays re-point their uplinks, the redirect
//! manager re-fronts, clients re-home and resume from their checkpointed
//! horizons.
//!
//! Gates (all in-binary):
//!
//! * all 64 students complete — an origin crash mid-lecture costs nobody
//!   their session,
//! * the standby was actually promoted and migrated checkpointed
//!   sessions (the drill is not vacuous),
//! * zero restarts from packet 0 on the standby: every migrated session
//!   resumes `Play{from>0}` at its checkpointed horizon,
//! * zero stale-epoch packets after promotion (fencing holds; no
//!   split-brain),
//! * the causal trace checks out: the promotion is heralded by a full
//!   run of heartbeat misses, every migrated session has a prior
//!   checkpoint, and no second node ever serves the promoted epoch,
//! * the event log survives a JSONL round trip.
//!
//! Everything is seeded; two runs with the same `--seed` emit
//! byte-identical JSONL, exposition and JSON (checked by
//! `scripts/ci.sh`).
//!
//! Usage: `q12_failover [--seed N] [--json PATH] [--events PATH]
//! [--prom PATH]`

use lod_bench::report::{emit, Json};
use lod_core::{
    check_causal, parse_jsonl, session_timelines, synthetic_lecture, worst_by_stall,
    AdmissionPolicy, ChaosSpec, DegradePolicy, FailoverConfig, Recorder, RelayTierConfig, Wmps,
};
use lod_simnet::LinkSpec;
use lod_streaming::RetryPolicy;

const STUDENTS: usize = 64;
const RELAYS: usize = 4;
const SECOND: u64 = 10_000_000; // ticks
/// Seats the redirect manager steers into each relay: half the class
/// streams via relays, the other half sits on the origin itself — the
/// sessions the failover must migrate.
const RELAY_STEER: usize = 8;
/// Tick the origin node crashes at (for good).
const ORIGIN_DIES_AT: u64 = 20 * SECOND;

fn parse_args() -> (u64, Option<String>, Option<String>, Option<String>) {
    let mut seed = 7u64;
    let mut json = None;
    let mut events = None;
    let mut prom = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed takes an integer");
            }
            "--json" => json = Some(args.next().expect("--json takes a path")),
            "--events" => events = Some(args.next().expect("--events takes a path")),
            "--prom" => prom = Some(args.next().expect("--prom takes a path")),
            other => panic!(
                "unknown argument {other} (usage: q12_failover [--seed N] \
                 [--json PATH] [--events PATH] [--prom PATH])"
            ),
        }
    }
    (seed, json, events, prom)
}

fn main() {
    let (seed, json_path, events_path, prom_path) = parse_args();
    println!("Q12 — origin failover: warm-standby promotion under a mid-lecture crash");
    println!(
        "({STUDENTS} students, {RELAYS} relays, 1-minute lecture, origin dies at \
         {} s, seed {seed})\n",
        ORIGIN_DIES_AT / SECOND
    );
    let lecture = synthetic_lecture(55, 1, 300_000);
    let wmps = Wmps::new();
    let file = wmps.publish(&lecture).expect("publish");
    let play_duration = file.props.play_duration;
    let nominal = u64::from(file.props.max_bitrate).max(64_000);
    // Headroom matters: half the class streams straight off the origin,
    // and heartbeats share the uplink with their media. A saturated
    // uplink queues the Pongs behind two seconds of backlog and the
    // detector false-positives on a *live* origin — so the uplink is
    // sized above the startup burst (32 sessions × 2× preroll pacing),
    // and the miss threshold buys a full second of silence.
    let uplink = LinkSpec::broadband().with_bandwidth(40_000_000);
    let relay_link = LinkSpec::broadband().with_bandwidth(10_000_000);
    let access = LinkSpec::lan();
    let recorder = Recorder::new();
    let cfg = RelayTierConfig {
        relays: RELAYS,
        relay_link,
        // Seats for the whole class at the origin (and, replicated, at
        // the standby): the drill grades failover, not admission — but
        // the seat budget must *survive* the migration, so it stays
        // armed.
        origin_admission: Some(AdmissionPolicy::new(
            STUDENTS as u32,
            nominal * STUDENTS as u64,
        )),
        relay_capacity_sessions: Some(RELAY_STEER),
        degrade: Some(DegradePolicy::default()),
        client_retry: Some(RetryPolicy::client()),
        chaos: ChaosSpec {
            origin_down: vec![(ORIGIN_DIES_AT, u64::MAX)],
            ..ChaosSpec::default()
        },
        failover: Some(FailoverConfig {
            heartbeat_interval: 2_000_000, // 200 ms beats
            miss_threshold: 5,             // dead after 1 s of silence
            checkpoint_every: 10_000_000,  // journal progress every 1 s
        }),
        recorder: recorder.clone(),
        ..RelayTierConfig::default()
    };
    let report = wmps.serve_with_relays(file, uplink, access, STUDENTS, seed, &cfg);

    let events = recorder.events();
    let causal = check_causal(&events);
    let fo = report.failover.expect("failover tier ran");

    println!(
        "run: {}/{STUDENTS} completed, promoted at {} ms (epoch {}), \
         {} session(s) migrated, {} checkpoint(s) replicated, {} event(s) recorded\n",
        report.completed_sessions(),
        fo.promoted_at.unwrap_or(0) / 10_000,
        fo.epoch,
        fo.sessions_migrated,
        fo.checkpoints_replicated,
        events.len()
    );

    // Gate 1: nobody lost the lecture to the crash.
    assert_eq!(
        report.completed_sessions(),
        STUDENTS,
        "an origin crash must cost nobody their session: {:?}",
        report.clients
    );
    println!("PASS: {STUDENTS}/{STUDENTS} students completed across the failover");

    // Gate 2: the drill is not vacuous — a real promotion migrated real
    // sessions.
    assert!(fo.promoted_at.is_some(), "the standby must be promoted");
    assert_eq!(fo.epoch, 2, "exactly one promotion past the primary");
    assert!(
        fo.sessions_migrated > 0,
        "checkpointed sessions must migrate: {fo:?}"
    );
    assert!(fo.checkpoints_replicated > 0);
    println!(
        "PASS: promotion at epoch {} migrated {} session(s)",
        fo.epoch, fo.sessions_migrated
    );

    // Gate 3: zero restarts from packet 0 — every migrated session
    // resumed from its checkpointed horizon.
    assert_eq!(
        fo.standby.plays_from_zero, 0,
        "migrated sessions must resume from their horizons, never from 0: {fo:?}"
    );
    println!("PASS: zero restarts from packet 0 on the promoted standby");

    // Gate 4: fencing held — nothing carrying the old epoch reached
    // anyone after the promotion.
    assert_eq!(
        fo.stale_epoch_replies, 0,
        "no stale-epoch packets may survive the promotion: {fo:?}"
    );
    println!("PASS: zero stale-epoch packets after promotion");

    // Gate 5: the causal story checks out.
    assert!(causal.holds(), "causal invariants must hold: {causal:?}");
    assert_eq!(causal.promotions, 1, "exactly one promotion in the log");
    assert_eq!(
        causal.unheralded_promotions, 0,
        "the promotion must be heralded by a full run of heartbeat misses"
    );
    assert_eq!(
        causal.unmatched_migrations, 0,
        "every migrated session must have a prior checkpoint in the log"
    );
    assert_eq!(
        causal.epoch_conflicts, 0,
        "no two nodes may ever serve the same epoch"
    );
    println!(
        "PASS: causal trace — 1 promotion heralded, {} migration(s) matched, 0 epoch conflicts",
        causal.migrations
    );

    // Gate 6: the log survives a JSONL round trip.
    let jsonl = recorder.to_jsonl();
    assert_eq!(
        parse_jsonl(&jsonl).expect("log parses"),
        events,
        "JSONL round trip"
    );
    println!("PASS: {} event(s) round-trip through JSONL\n", events.len());

    let timelines = session_timelines(&events);
    println!("worst sessions by stalled time:");
    for t in worst_by_stall(&timelines, 5) {
        print!("{}", t.render());
    }

    // Integers only, so the JSON report is byte-for-byte reproducible.
    let json = Json::Obj(vec![
        ("seed", seed.into()),
        ("students", STUDENTS.into()),
        ("relays", RELAYS.into()),
        ("origin_dies_ms", (ORIGIN_DIES_AT / 10_000).into()),
        ("promoted_ms", (fo.promoted_at.unwrap_or(0) / 10_000).into()),
        ("epoch", fo.epoch.into()),
        ("completed", report.completed_sessions().into()),
        ("sessions_migrated", fo.sessions_migrated.into()),
        ("checkpoints_replicated", fo.checkpoints_replicated.into()),
        (
            "checkpoints_emitted",
            report.server.checkpoints_emitted.into(),
        ),
        ("plays_from_zero", fo.standby.plays_from_zero.into()),
        ("stale_epoch_replies", fo.stale_epoch_replies.into()),
        ("heartbeat_misses", causal.heartbeat_misses.into()),
        ("events", events.len().into()),
        ("faults_applied", report.faults_applied.into()),
        (
            "worst_rebuffer_permille",
            report.worst_rebuffer_permille(play_duration.max(1)).into(),
        ),
        ("session_ms", (report.session_ticks / 10_000).into()),
    ]);
    emit(&json.render(), json_path.as_deref());
    if let Some(path) = events_path {
        std::fs::write(&path, &jsonl).expect("write event log");
        println!("event log written to {path}");
    }
    if let Some(path) = prom_path {
        std::fs::write(&path, recorder.prometheus()).expect("write exposition");
        println!("exposition written to {path}");
    }

    println!(
        "\nshape: the paper's single origin is the system's one unforgivable\n\
         failure point. The warm standby buys it back with integers only —\n\
         compact session checkpoints journaled on every transition,\n\
         replicated each driver step, a tick-counted heartbeat verdict, and\n\
         a monotonic fencing epoch stamped into every reply so the healed\n\
         origin demotes itself instead of splitting the brain. Students\n\
         notice a sub-second gap, then resume exactly where they left off."
    );
}

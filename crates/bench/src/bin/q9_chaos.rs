//! Q9: the chaos drill — scripted fault storms against the full relay
//! tier, graded on how many of 64 students still finish the lecture and
//! how fast their clients recover.
//!
//! Each severity row is one deterministic storm: loss bursts brown out
//! every access link, an edge relay crashes for good, the origin uplink
//! is severed for two seconds, and individual students lose their cable.
//! The resilience layer under test: client retry-from-horizon with
//! jittered exponential backoff, relay fetch retries, redirect-manager
//! re-homing, and origin idle-session reaping. Everything is seeded, so
//! two runs with the same `--seed` emit byte-identical reports — which
//! is exactly what `scripts/ci.sh` checks.
//!
//! Usage: `q9_chaos [--seed N] [--json PATH]`

use lod_bench::report::{emit, header, ms, row, Json};
use lod_core::{synthetic_lecture, ChaosSpec, RelayTierConfig, Wmps, WmpsReport};
use lod_simnet::LinkSpec;
use lod_streaming::RetryPolicy;

const STUDENTS: usize = 64;
const RELAYS: usize = 4;
const SECOND: u64 = 10_000_000; // ticks

/// One named storm at one severity.
struct Scenario {
    name: &'static str,
    chaos: ChaosSpec,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "calm",
            chaos: ChaosSpec::default(),
        },
        Scenario {
            name: "mild",
            // A 2% brownout on every access link mid-lecture.
            chaos: ChaosSpec {
                access_loss_bursts: vec![(10 * SECOND, 15 * SECOND, 20)],
                ..ChaosSpec::default()
            },
        },
        Scenario {
            name: "moderate",
            // 5% brownout plus one relay crashing for good.
            chaos: ChaosSpec {
                access_loss_bursts: vec![(10 * SECOND, 15 * SECOND, 50)],
                relay_crashes: vec![(20 * SECOND, u64::MAX, 0)],
                ..ChaosSpec::default()
            },
        },
        Scenario {
            name: "severe",
            // The acceptance storm: 5% loss burst, one relay crash, a
            // 2 s uplink partition, and two students' cables yanked.
            chaos: ChaosSpec {
                access_loss_bursts: vec![(10 * SECOND, 15 * SECOND, 50)],
                relay_crashes: vec![(20 * SECOND, u64::MAX, 0)],
                uplink_partitions: vec![(30 * SECOND, 2 * SECOND)],
                access_flaps: vec![(12 * SECOND, 3 * SECOND / 2, 7), (35 * SECOND, SECOND, 21)],
                ..ChaosSpec::default()
            },
        },
    ]
}

/// Everything one storm run is graded on, in integers only so the JSON
/// report is byte-for-byte reproducible.
struct Outcome {
    name: &'static str,
    completed: usize,
    abandoned: usize,
    faults_applied: u64,
    reattached: usize,
    retries: u64,
    recoveries: usize,
    recover_ms_p95: u64,
    recover_ms_max: u64,
    mean_startup_ms: u64,
    max_stalls: u64,
    origin_egress_bytes: u64,
    session_ms: u64,
}

impl Outcome {
    fn grade(name: &'static str, report: &WmpsReport) -> Self {
        let n = report.clients.len() as u64;
        Self {
            name,
            completed: report.completed_sessions(),
            abandoned: report.clients.iter().filter(|m| m.abandoned).count(),
            faults_applied: report.faults_applied,
            reattached: report.relay.as_ref().map_or(0, |r| r.reattached),
            retries: report.clients.iter().map(|m| m.retries).sum(),
            recoveries: report.recoveries.len(),
            recover_ms_p95: report.p95_recovery_ticks() / 10_000,
            recover_ms_max: report.recoveries.iter().max().copied().unwrap_or(0) / 10_000,
            mean_startup_ms: report.clients.iter().map(|m| m.startup_ticks).sum::<u64>()
                / n
                / 10_000,
            max_stalls: report.clients.iter().map(|m| m.stalls).max().unwrap_or(0),
            origin_egress_bytes: report.origin_egress_bytes,
            session_ms: report.session_ticks / 10_000,
        }
    }

    fn json(&self) -> Json<'static> {
        Json::Row(vec![
            ("name", self.name.into()),
            ("completed", self.completed.into()),
            ("abandoned", self.abandoned.into()),
            ("faults_applied", self.faults_applied.into()),
            ("reattached", self.reattached.into()),
            ("retries", self.retries.into()),
            ("recoveries", self.recoveries.into()),
            ("recover_ms_p95", self.recover_ms_p95.into()),
            ("recover_ms_max", self.recover_ms_max.into()),
            ("mean_startup_ms", self.mean_startup_ms.into()),
            ("max_stalls", self.max_stalls.into()),
            ("origin_egress_bytes", self.origin_egress_bytes.into()),
            ("session_ms", self.session_ms.into()),
        ])
    }
}

fn parse_args() -> (u64, Option<String>) {
    let mut seed = 7u64;
    let mut json = None;
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
            other => panic!("unknown argument {other} (usage: q9_chaos [--seed N] [--json PATH])"),
        }
    }
    (seed, json)
}

fn main() {
    let (seed, json_path) = parse_args();
    println!("Q9 — chaos drill: fault storms against the relay tier");
    println!("({STUDENTS} students, {RELAYS} relays, 1-minute lecture, seed {seed})\n");
    let lecture = synthetic_lecture(55, 1, 300_000);
    let wmps = Wmps::new();
    let file = wmps.publish(&lecture).expect("publish");
    let uplink = LinkSpec::broadband().with_bandwidth(10_000_000);
    let access = LinkSpec::lan();

    let widths = [10usize, 10, 9, 7, 9, 11, 13, 12, 10];
    header(
        &[
            "storm",
            "complete",
            "faults",
            "rehomed",
            "retries",
            "recoveries",
            "p95 recov ms",
            "max recov ms",
            "max stalls",
        ],
        &widths,
    );

    let mut outcomes = Vec::new();
    for sc in scenarios() {
        let cfg = RelayTierConfig {
            relays: RELAYS,
            chaos: sc.chaos.clone(),
            client_retry: Some(RetryPolicy::client()),
            ..RelayTierConfig::default()
        };
        let report = wmps.serve_with_relays(file.clone(), uplink, access, STUDENTS, seed, &cfg);
        let o = Outcome::grade(sc.name, &report);
        row(
            &[
                o.name.to_string(),
                format!("{}/{}", o.completed, STUDENTS),
                o.faults_applied.to_string(),
                o.reattached.to_string(),
                o.retries.to_string(),
                o.recoveries.to_string(),
                ms(report.p95_recovery_ticks()),
                o.recover_ms_max.to_string(),
                o.max_stalls.to_string(),
            ],
            &widths,
        );
        outcomes.push(o);
    }

    // The acceptance gates run against the severe storm: nearly everyone
    // finishes, nobody is stuck, and recovery is fast.
    let calm = &outcomes[0];
    let severe = outcomes.last().expect("severe ran");
    assert_eq!(
        calm.completed, STUDENTS,
        "a calm run must complete everyone"
    );
    assert_eq!(calm.faults_applied, 0, "calm means calm");
    assert!(
        severe.completed >= STUDENTS - 1,
        "severe storm: only {}/{STUDENTS} sessions completed",
        severe.completed
    );
    assert!(
        severe.recover_ms_p95 < 3_000,
        "p95 time-to-recover {} ms >= 3 s",
        severe.recover_ms_p95
    );
    assert!(severe.faults_applied >= 4, "the storm must actually strike");
    assert!(severe.retries > 0, "the retry layer must have acted");
    println!(
        "\nPASS: severe storm — {}/{STUDENTS} sessions complete (>= {})",
        severe.completed,
        STUDENTS - 1
    );
    println!(
        "PASS: p95 time-to-recover {} ms < 3000 ms across {} recoveries",
        severe.recover_ms_p95, severe.recoveries
    );

    let json = Json::Obj(vec![
        ("seed", seed.into()),
        ("students", STUDENTS.into()),
        ("relays", RELAYS.into()),
        (
            "scenarios",
            Json::Arr(outcomes.iter().map(Outcome::json).collect()),
        ),
    ]);
    emit(&json.render(), json_path.as_deref());

    println!(
        "shape: the storm knocks out a relay (its students re-home through\n\
         the redirect manager), browns out every access link (the loss\n\
         burst rides on retries), severs the uplink for 2 s (relay caches\n\
         absorb it), and yanks two cables (retry-from-horizon resumes\n\
         them) — and the class still finishes the lecture."
    );
}

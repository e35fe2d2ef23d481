//! Q10: the flash crowd — 256 students charging a 4-relay tier with a
//! constrained origin uplink, graded on how gracefully the system sheds
//! load it cannot carry.
//!
//! Three rows, same crowd, same wires:
//!
//! * `unprotected` — no admission, no degradation: everyone is accepted
//!   and the shared links drown; sessions crawl and rebuffer.
//! * `admit_only`  — admission budgets at the origin and every relay:
//!   the overflow is explicitly bounced with Busy (and steered between
//!   relays by the redirect manager) until their patience runs out.
//! * `admit_degrade` — the full ladder: admission, plus profile
//!   downshift at the origin (video thins, audio and script commands
//!   keep flowing), plus upstream circuit breakers at the relays.
//!   Downshifted sessions commit less bitrate, so bounced students are
//!   readmitted into the freed budget — strictly fewer are shed than
//!   under admission alone, and nobody fails silently.
//!
//! Everything is seeded; two runs with the same `--seed` emit
//! byte-identical reports (checked by `scripts/ci.sh`).
//!
//! Usage: `q10_overload [--seed N] [--json PATH]`

use lod_bench::report::{emit, header, row, Json};
use lod_core::{
    synthetic_lecture, AdmissionPolicy, BreakerPolicy, DegradePolicy, RelayTierConfig, Wmps,
    WmpsReport,
};
use lod_simnet::LinkSpec;
use lod_streaming::RetryPolicy;

const STUDENTS: usize = 256;
const RELAYS: usize = 4;
const SECOND: u64 = 10_000_000; // ticks
/// Seats each relay admits.
const RELAY_SEATS: u32 = 12;
/// Seats the redirect manager steers into each relay — deliberately a
/// couple past the admission budget so the bench exercises the relay
/// Busy bounce and the sibling steering that follows it.
const RELAY_STEER: usize = 14;
/// Full-rate seats the origin's bitrate budget covers.
const ORIGIN_SEATS: u64 = 16;

/// One protection posture against the same flash crowd.
struct Scenario {
    name: &'static str,
    admission: bool,
    degrade: bool,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "unprotected",
            admission: false,
            degrade: false,
        },
        Scenario {
            name: "admit_only",
            admission: true,
            degrade: false,
        },
        Scenario {
            name: "admit_degrade",
            admission: true,
            degrade: true,
        },
    ]
}

/// Everything one run is graded on, integers only so the JSON report is
/// byte-for-byte reproducible.
struct Outcome {
    name: &'static str,
    completed: usize,
    shed: usize,
    hard_failures: usize,
    degraded_sessions: u64,
    downshifts: u64,
    upshifts: u64,
    busy_bounces: u64,
    origin_shed: u64,
    relay_shed: u64,
    breaker_opens: u64,
    fetches_suppressed: u64,
    worst_rebuffer_permille: u64,
    session_ms: u64,
}

impl Outcome {
    fn grade(name: &'static str, report: &WmpsReport, play_duration: u64) -> Self {
        let relay = report.relay.as_ref();
        Self {
            name,
            completed: report.completed_sessions(),
            shed: report.shed_clients(),
            hard_failures: report.hard_failures(),
            degraded_sessions: report.degraded_sessions(),
            downshifts: report.server.downshifts,
            upshifts: report.server.upshifts,
            busy_bounces: report.clients.iter().map(|c| c.busy_bounces).sum(),
            origin_shed: report.server.sessions_shed,
            relay_shed: relay.map_or(0, |r| r.metrics.sessions_shed),
            breaker_opens: relay.map_or(0, |r| r.metrics.breaker_opens),
            fetches_suppressed: relay.map_or(0, |r| r.metrics.fetches_suppressed),
            // Integer per-mille so no float ever reaches the report
            // (shed clients never played, so their zero stall time would
            // only dilute the max).
            worst_rebuffer_permille: report
                .clients
                .iter()
                .filter(|c| !c.shed)
                .map(|c| c.rebuffer_permille(play_duration.max(1)))
                .max()
                .unwrap_or(0),
            session_ms: report.session_ticks / 10_000,
        }
    }

    fn json(&self) -> Json<'static> {
        Json::Row(vec![
            ("name", self.name.into()),
            ("completed", self.completed.into()),
            ("shed", self.shed.into()),
            ("hard_failures", self.hard_failures.into()),
            ("degraded_sessions", self.degraded_sessions.into()),
            ("downshifts", self.downshifts.into()),
            ("upshifts", self.upshifts.into()),
            ("busy_bounces", self.busy_bounces.into()),
            ("origin_shed", self.origin_shed.into()),
            ("relay_shed", self.relay_shed.into()),
            ("breaker_opens", self.breaker_opens.into()),
            ("fetches_suppressed", self.fetches_suppressed.into()),
            (
                "worst_rebuffer_permille",
                self.worst_rebuffer_permille.into(),
            ),
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
            other => {
                panic!("unknown argument {other} (usage: q10_overload [--seed N] [--json PATH])")
            }
        }
    }
    (seed, json)
}

fn main() {
    let (seed, json_path) = parse_args();
    println!("Q10 — flash crowd: overload protection & graceful degradation");
    println!(
        "({STUDENTS} students in waves of 32 every 2 s, {RELAYS} relays, \
         1-minute lecture, seed {seed})\n"
    );
    let lecture = synthetic_lecture(55, 1, 300_000);
    let wmps = Wmps::new();
    let file = wmps.publish(&lecture).expect("publish");
    let play_duration = file.props.play_duration;
    let nominal = u64::from(file.props.max_bitrate).max(64_000);
    // The crowd is ~4x the seated capacity: 4 relays x RELAY_SEATS plus
    // ORIGIN_SEATS full-rate seats at the origin.
    let seats = RELAYS as u64 * u64::from(RELAY_SEATS) + ORIGIN_SEATS;
    println!(
        "nominal profile {} bit/s; {seats} full-rate seats for {STUDENTS} students\n",
        nominal
    );
    // The origin uplink is sized *below* the origin's own admission
    // budget, so admitted sessions congest it and (in the last row) the
    // degrade ladder has something to relieve. Relay links carry exactly
    // their seat budget.
    let uplink = LinkSpec::broadband().with_bandwidth(6_000_000);
    let relay_link = LinkSpec::broadband().with_bandwidth(4_000_000);
    let access = LinkSpec::lan();

    let widths = [14usize, 10, 6, 6, 11, 9, 8, 8, 8, 11];
    header(
        &[
            "posture",
            "complete",
            "shed",
            "hard",
            "downshifts",
            "upshifts",
            "bounces",
            "breaker",
            "rebuf\u{2030}",
            "session ms",
        ],
        &widths,
    );

    let mut outcomes = Vec::new();
    for sc in scenarios() {
        let admission = sc.admission.then(|| {
            (
                AdmissionPolicy::new(64, nominal * ORIGIN_SEATS),
                AdmissionPolicy::new(RELAY_SEATS, nominal * u64::from(RELAY_SEATS)),
            )
        });
        let cfg = RelayTierConfig {
            relays: RELAYS,
            relay_link,
            origin_admission: admission.map(|(o, _)| o),
            relay_admission: admission.map(|(_, r)| r),
            relay_capacity_sessions: sc.admission.then_some(RELAY_STEER),
            degrade: sc.degrade.then(DegradePolicy::default),
            breaker: sc.degrade.then(BreakerPolicy::upstream),
            arrival_wave: Some((32, 2 * SECOND)),
            client_retry: Some(RetryPolicy::client()),
            ..RelayTierConfig::default()
        };
        let report = wmps.serve_with_relays(file.clone(), uplink, access, STUDENTS, seed, &cfg);
        let o = Outcome::grade(sc.name, &report, play_duration);
        row(
            &[
                o.name.to_string(),
                format!("{}/{}", o.completed, STUDENTS),
                o.shed.to_string(),
                o.hard_failures.to_string(),
                o.downshifts.to_string(),
                o.upshifts.to_string(),
                o.busy_bounces.to_string(),
                o.breaker_opens.to_string(),
                o.worst_rebuffer_permille.to_string(),
                o.session_ms.to_string(),
            ],
            &widths,
        );
        outcomes.push(o);
    }

    let unprotected = &outcomes[0];
    let admit_only = &outcomes[1];
    let admit_degrade = &outcomes[2];
    // The ladder's whole promise: under a 4x crowd nobody fails silently
    // — every student played, downshifted-but-played, or was told Busy.
    assert_eq!(unprotected.shed, 0, "without admission nobody is ever shed");
    assert_eq!(
        admit_degrade.hard_failures, 0,
        "admit+degrade must leave zero silent failures"
    );
    assert_eq!(
        admit_degrade.completed + admit_degrade.shed,
        STUDENTS,
        "every student accounted for: completed or explicitly shed"
    );
    assert!(
        admit_degrade.shed < admit_only.shed,
        "downshifting must free budget and readmit bounced students: \
         {} shed with degradation vs {} without",
        admit_degrade.shed,
        admit_only.shed
    );
    assert!(
        admit_degrade.downshifts >= 1 && admit_degrade.degraded_sessions >= 1,
        "the congested uplink must actually trigger degradation"
    );
    println!(
        "\nPASS: admit+degrade — {}/{STUDENTS} completed, {} explicitly shed, 0 silent failures",
        admit_degrade.completed, admit_degrade.shed
    );
    println!(
        "PASS: degradation readmits — {} shed vs {} under admission alone",
        admit_degrade.shed, admit_only.shed
    );

    let json = Json::Obj(vec![
        ("seed", seed.into()),
        ("students", STUDENTS.into()),
        ("relays", RELAYS.into()),
        ("nominal_bps", nominal.into()),
        ("seats", seats.into()),
        (
            "scenarios",
            Json::Arr(outcomes.iter().map(Outcome::json).collect()),
        ),
    ]);
    emit(&json.render(), json_path.as_deref());

    println!(
        "shape: the same crowd hits the same wires three times. Unprotected,\n\
         everyone is accepted and the links drown in rebuffering. Admission\n\
         alone keeps the admitted sessions healthy but turns the overflow\n\
         away. With degradation, congested sessions drop one bandwidth rung\n\
         (audio and slide flips intact), the freed budget readmits bounced\n\
         students, and the shed count falls."
    );
}

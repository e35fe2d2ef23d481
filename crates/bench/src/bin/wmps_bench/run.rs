//! One run of one workload — the command `BENCHMARK.json` names:
//! `--workload W --seed N --seconds S --trace 0|1`.
//!
//! With `--trace 0` it sets up (several times, for a steady `setup_s`),
//! warms up, runs whole units of the workload until `S` seconds have
//! passed, checks every unit's output and prints the end-to-end metrics.
//! With `--trace 1` it runs a few rounds of the same unit untraced and
//! traced by the benchmark's own driver, then the stage table, and prints
//! the per-layer metrics. Either way the last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`.

use std::path::PathBuf;
use std::time::Instant;

use lod_core::WmpsReport;

use crate::json::Value;
use crate::metrics::{per_layer, END_TO_END};
use crate::stats::median;
use crate::workloads::{self, Exact, Input, Outcome, Workload};
use crate::{layers, procfs, replay, sim, spans, stages, udp};

/// Set-ups timed per run, `setup_s` being their median: as many as fit
/// [`SETUPS_S`] seconds, but three at least and fifteen at most (most
/// set-ups take 10–20 ms, where a median of five still moved 11 %
/// between sets).
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUPS_S: f64 = 1.0;
/// Wall seconds of small untimed units before the first timed one, so
/// the allocator, the caches and the clock governor are in their steady
/// state when timing starts.
const WARMUP_S: f64 = 1.5;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One small unit instead of a timed window.
    pub smoke: bool,
    /// Where to write `trace.jsonl` (traced runs only).
    pub trace_out: Option<PathBuf>,
}

/// What a run found, beyond its metrics.
#[derive(Debug, Default)]
struct Verdict {
    attempted: u64,
    failed: u64,
    /// Failed checks, for people; any entry makes the run incorrect.
    problems: Vec<String>,
}

impl Verdict {
    fn absorb(&mut self, outcome: &Outcome) {
        self.attempted += outcome.sessions;
        self.failed += outcome.failed();
        self.problems.extend(outcome.failures.iter().cloned());
    }
}

/// Sets the workload up once: input, plus — on the socket workloads —
/// a bound and wired deployment, built and dropped, so that its cost is
/// part of `setup_s` like everything else that precedes a timed run.
fn setup_once(args: &RunArgs) -> (Input, f64) {
    let size = if args.smoke {
        args.workload.smoke_size()
    } else {
        args.workload.full_size()
    };
    let t = Instant::now();
    let input = workloads::setup(args.workload, args.seed, size);
    if args.workload.is_udp() {
        drop(udp::Deployment::build(&input, 0));
    }
    (input, t.elapsed().as_secs_f64())
}

/// One unit of the workload, by the driver whose speed is the product's:
/// the facade for simnet, the one-thread loop for sockets, the pipeline
/// for `publish_replay`. Spans are recorded iff a traced run is open.
/// `draw` is which of the seed's loss patterns `udp_lossy` plays under.
fn unit(input: &Input, draw: u64) -> (Outcome, Option<WmpsReport>) {
    if input.workload.is_sim() {
        let (report, wall_s) = sim::facade(input);
        (sim::facade_outcome(input, &report, wall_s), Some(report))
    } else {
        (own_driver(input, draw, None).0, None)
    }
}

/// One unit by the benchmark's own driver (the mirror, for simnet).
/// With `facade`, a simnet mirror is checked against it.
fn own_driver(
    input: &Input,
    draw: u64,
    facade: Option<&WmpsReport>,
) -> (Outcome, Result<(), String>) {
    if input.workload.is_sim() {
        let mirror = sim::mirror(input);
        let same = facade.map_or(Ok(()), |f| sim::check_mirror(f, &mirror));
        (mirror.outcome, same)
    } else if input.workload.is_udp() {
        (udp::Deployment::build(input, draw).run(input), Ok(()))
    } else {
        (replay::run(input), Ok(()))
    }
}

fn warm_up(args: &RunArgs) {
    let small = workloads::setup(args.workload, args.seed, args.workload.smoke_size());
    let t = Instant::now();
    while t.elapsed().as_secs_f64() < WARMUP_S {
        std::hint::black_box(unit(&small, 0));
    }
}

fn end_to_end(args: &RunArgs) -> (Vec<(&'static str, f64)>, Value, Verdict) {
    let (mut input, first) = setup_once(args);
    let mut setup_s = vec![first];
    while !args.smoke
        && setup_s.len() < MAX_SETUPS
        && (setup_s.len() < MIN_SETUPS || setup_s.iter().sum::<f64>() < SETUPS_S)
    {
        let (again, s) = setup_once(args);
        setup_s.push(s);
        input = again;
    }
    if !args.smoke {
        warm_up(args);
    }

    let cpu0 = procfs::cpu_seconds();
    let window = Instant::now();
    let mut units: Vec<Outcome> = Vec::new();
    let mut peak_rss_mb = f64::NAN;
    let last_report = loop {
        let (outcome, report) = unit(&input, units.len() as u64);
        units.push(outcome);
        if units.len() == 1 {
            // Serving the class once is what a deployment does; what
            // later units add to the high-water mark is the allocator's
            // fragmentation, which varies with how many units fit.
            peak_rss_mb = procfs::peak_rss_mb().unwrap_or(f64::NAN);
        }
        if args.smoke || window.elapsed().as_secs_f64() >= args.seconds {
            break report;
        }
    };
    let window_s = window.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_seconds()
        .zip(cpu0)
        .map_or(f64::NAN, |(a, b)| a - b);

    let mut verdict = Verdict::default();
    for u in &units {
        verdict.absorb(u);
    }
    let first = units.first().expect("at least one unit ran");
    if args.workload.is_deterministic() && units.iter().any(|u| u.exact != first.exact) {
        verdict
            .problems
            .push("units of one seed disagree on an exact count".into());
    }
    // What the facade cannot see — the whole wire, single render events —
    // comes from one untimed run of the mirror, which must be the facade.
    let mirrored_wire_bytes = args.workload.is_sim().then(|| {
        let (mirrored, same) = own_driver(&input, 0, last_report.as_ref());
        if let Err(why) = same {
            verdict.problems.push(why);
        }
        mirrored.account.expect("mirrors account").wire_bytes
    });

    let throughput: Vec<f64> = units.iter().map(Outcome::session_s_per_s).collect();
    // Units of one seed are the same run over again, except under injected
    // loss, where each plays under its own loss pattern: the median unit.
    let per_unit = |f: &dyn Fn(&Outcome) -> f64| median(&units.iter().map(f).collect::<Vec<_>>());
    let wire_bytes = |u: &Outcome| {
        mirrored_wire_bytes
            .or(u.account.as_ref().map(|a| a.wire_bytes))
            .expect("own drivers account") as f64
    };
    let value = |name: &str| -> f64 {
        match name {
            "setup_s" => median(&setup_s),
            // The fastest unit, not the median: every unit does the same
            // deterministic work on one thread, so a slower unit measures
            // what else the host was doing. Over ten seeds the best of a
            // dozen units spreads ≈3 %, their median 6–9 %.
            "session_s_per_s" => throughput.iter().copied().fold(0.0, f64::max),
            "startup_ms_p50" => per_unit(&|u| median(&u.startup_ms)),
            "startup_ms_worst" => per_unit(&|u| u.startup_ms.iter().copied().fold(0.0, f64::max)),
            "smooth_play_permille" => {
                1000.0 - per_unit(&|u| u.stall_ticks as f64 * 1000.0 / u.playback_ticks as f64)
            }
            "render_skew_ms_worst" => per_unit(&|u| u.skew_worst_ms),
            "sessions_ok_permille" => {
                1000.0 - verdict.failed as f64 * 1000.0 / verdict.attempted as f64
            }
            "origin_egress_permille_of_payload" => {
                per_unit(&|u| u.exact.origin_egress_bytes as f64 * 1000.0 / u.payload_bytes as f64)
            }
            "wire_overhead_permille" => per_unit(&|u| {
                (wire_bytes(u) - u.payload_bytes as f64) * 1000.0 / u.payload_bytes as f64
            }),
            "peak_rss_mb" => peak_rss_mb,
            other => unreachable!("{other} is in END_TO_END but has no definition"),
        }
    };
    let metrics = END_TO_END.iter().map(|m| (m.name, value(m.name))).collect();
    let info = Value::obj([
        ("units", Value::Num(units.len() as f64)),
        ("unit_session_s_per_s", Value::nums(&throughput)),
        ("window_s", Value::Num(window_s)),
        ("cpu_s", Value::Num(cpu_s)),
        // The first unit's: under injected loss the one whose loss
        // pattern every run of this seed shares.
        ("exact", exact_json(&first.exact)),
    ]);
    (metrics, info, verdict)
}

fn exact_json(e: &Exact) -> Value {
    Value::obj([
        ("session_ticks", Value::Num(e.session_ticks as f64)),
        (
            "origin_egress_bytes",
            Value::Num(e.origin_egress_bytes as f64),
        ),
        ("samples_rendered", Value::Num(e.samples_rendered as f64)),
        ("frames_sent", Value::Num(e.frames_sent as f64)),
    ])
}

/// Rounds of a traced run; each side's fastest round is the one kept.
const TRACED_ROUNDS: usize = 5;

fn traced(args: &RunArgs) -> (Vec<(&'static str, f64)>, Value, Verdict) {
    let (input, _) = setup_once(args);
    if !args.smoke {
        warm_up(args);
    }
    let mut verdict = Verdict::default();
    // Each round runs the same unit three ways — the facade (simnet
    // only), the benchmark's own driver with the tracer off, and again
    // with it on — and each way keeps its fastest round, the one the
    // host disturbed least. Tracing overhead is traced against untraced
    // of the *same* driver; what the facade costs beyond that driver's
    // loop (node construction, report building) is its own metric.
    let mut facade_wall_s: Option<f64> = None;
    let mut untraced_wall_s = f64::INFINITY;
    let mut best: Option<(Outcome, spans::TraceReport)> = None;
    for _ in 0..if args.smoke { 1 } else { TRACED_ROUNDS } {
        let report = input.workload.is_sim().then(|| {
            let (report, wall_s) = sim::facade(&input);
            facade_wall_s = Some(facade_wall_s.map_or(wall_s, |w| w.min(wall_s)));
            report
        });
        let (untraced, same) = own_driver(&input, 0, report.as_ref());
        verdict.problems.extend(same.err());
        untraced_wall_s = untraced_wall_s.min(untraced.wall_s);

        spans::begin_run();
        let (outcome, _) = own_driver(&input, 0, None);
        let trace = spans::end_run();
        if args.workload.is_deterministic() && outcome.exact != untraced.exact {
            verdict
                .problems
                .push("traced and untraced runs disagree on an exact count".into());
        }
        if best.as_ref().is_none_or(|(b, _)| outcome.wall_s < b.wall_s) {
            best = Some((outcome, trace));
        }
    }
    let (outcome, trace) = best.expect("at least one round ran");
    verdict.absorb(&outcome);
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, trace.to_jsonl(args.workload.name(), args.seed)) {
            verdict
                .problems
                .push(format!("cannot write {}: {e}", path.display()));
        }
    }
    let walls = layers::Walls {
        untraced_s: untraced_wall_s,
        facade_s: facade_wall_s,
    };
    let mut metrics = layers::derive(&input, &outcome, &trace, walls);
    metrics.extend(stages::run(args.seed));
    let info = Value::obj([
        (
            "facade_wall_s",
            Value::Num(facade_wall_s.unwrap_or(f64::NAN)),
        ),
        ("untraced_wall_s", Value::Num(untraced_wall_s)),
        ("traced_wall_s", Value::Num(outcome.wall_s)),
        ("kept_spans", Value::Num(trace.kept.len() as f64)),
        ("exact", exact_json(&outcome.exact)),
    ]);
    (metrics, info, verdict)
}

/// Runs one workload once and prints its result, whose `correct` says
/// whether every check passed.
pub fn run(args: &RunArgs) {
    let (metrics, info, verdict) = if args.trace {
        traced(args)
    } else {
        end_to_end(args)
    };
    let unit_of = |name: &str| -> &'static str {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(per_layer().map(|&(n, u, _)| (n, u)))
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| u)
    };

    println!(
        "wmps_bench {} seed {} ({})",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "end to end" }
    );
    for (name, value) in &metrics {
        println!("  {name:<36} {value:>18.4} {}", unit_of(name));
    }
    for p in &verdict.problems {
        println!("  FAILED CHECK: {p}");
    }
    println!("info {}", info.to_line());
    let correct = verdict.problems.is_empty();
    let result = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(verdict.attempted.max(1) as f64)),
        ("failed", Value::Num(verdict.failed as f64)),
        (
            "metrics",
            Value::obj(metrics.iter().map(|&(name, value)| {
                (
                    name,
                    Value::obj([
                        ("value", Value::Num(value)),
                        ("unit", Value::Str(unit_of(name).into())),
                    ]),
                )
            })),
        ),
    ]);
    println!("{}", result.to_line());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at its smoke size: the product's driver passes the
    /// output checks, and the benchmark's own driver agrees with it on
    /// every exact count (for simnet, down to each client).
    #[test]
    fn smoke_units_pass_their_checks_and_mirrors_match() {
        for workload in Workload::ALL {
            let input = workloads::setup(workload, 3, workload.smoke_size());
            let (outcome, report) = unit(&input, 0);
            assert_eq!(
                outcome.failures,
                Vec::<String>::new(),
                "{}",
                workload.name()
            );
            assert!(outcome.sessions > 0 && outcome.wall_s > 0.0);
            let (own, same) = own_driver(&input, 0, report.as_ref());
            assert_eq!(same, Ok(()), "{}", workload.name());
            assert!(own.account.is_some());
            if workload.is_deterministic() {
                assert_eq!(own.exact, outcome.exact, "{}", workload.name());
            }
        }
    }
}

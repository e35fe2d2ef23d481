//! `wmps_bench all`: every workload, several reps, one results file.
//!
//! Each rep is a fresh child process (this executable again, in the
//! single-run mode the acceptance driver uses), and reps are interleaved
//! round-robin across the workloads so that a drift of the machine hits
//! all of them alike. A rep whose CPU time is under 0.9 of its wall time
//! was descheduled; it is flagged and run again, at most twice.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::compare;
use crate::json::{self, Value};
use crate::metrics::{per_layer, END_TO_END};
use crate::stats::quartiles;
use crate::workloads::Workload;

/// CPU seconds per wall second under which a rep counts as descheduled.
const MIN_CPU_SHARE: f64 = 0.9;
const MAX_RERUNS: usize = 2;
/// The command of `BENCHMARK.json`, from the repository root.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "crates/bench/src/bin/wmps_bench/Cargo.toml",
    "--",
];
const PATHS: [&str; 1] = ["crates/bench/src/bin/wmps_bench"];
/// Seconds one acceptance run measures for (and the default `--seconds`).
/// Fifteen, not ten, for `vod_scale_sim`, whose units take two seconds:
/// over twelve seeds the fastest of 5-6 units spread 5.5-6 %, of 8 3.4 %.
pub const RUN_SECONDS: u32 = 15;

#[derive(Debug, Clone)]
pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub twice: bool,
    pub out: PathBuf,
}

impl SuiteArgs {
    /// End-to-end reps of a workload: 5, or 3 for `vod_scale_sim`, whose
    /// units are the longest; one with `--smoke`.
    fn reps_of(&self, w: Workload) -> usize {
        match (self.smoke, w) {
            (true, _) => 1,
            (false, Workload::VodScaleSim) => 3,
            (false, _) => 5,
        }
    }
}

/// What one child run printed: its result line and its `info` line.
struct Rep {
    result: Value,
    info: Value,
}

impl Rep {
    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    fn correct(&self) -> bool {
        self.result.get("correct").and_then(Value::as_bool) == Some(true)
    }

    /// CPU seconds per wall second of the timed window; `None` for a
    /// window too short for the kernel's 10 ms CPU clock to judge.
    fn cpu_share(&self) -> Option<f64> {
        let cpu = self.info.get("cpu_s")?.as_f64()?;
        let wall = self.info.get("window_s")?.as_f64()?;
        (wall >= 1.0).then_some(cpu / wall)
    }
}

/// Runs this executable once in single-run mode.
fn child(
    args: &SuiteArgs,
    w: Workload,
    trace: bool,
    trace_out: Option<&Path>,
) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let Some(p) = trace_out {
        cmd.arg("--trace-out").arg(p);
    }
    // `output` waits for the child to end.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start a {} rep: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = json::parse(last).map_err(|e| {
        format!(
            "{} rep ended with {} and no result ({e}):\n{stdout}{}",
            w.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    let info = stdout
        .lines()
        .find_map(|l| l.strip_prefix("info "))
        .and_then(|l| json::parse(l).ok())
        .unwrap_or(Value::Null);
    for line in stdout.lines().filter(|l| l.contains("FAILED CHECK")) {
        println!("    {}", line.trim());
    }
    Ok(Rep { result, info })
}

/// One full set: end-to-end reps then a traced rep per workload. Returns
/// the results document and whether every check passed.
fn one_set(args: &SuiteArgs, tag: &str) -> Result<(Value, bool), String> {
    let mut ok = true;
    let mut reps: BTreeMap<&str, Vec<Rep>> = BTreeMap::new();
    let mut descheduled: BTreeMap<&str, usize> = BTreeMap::new();
    let most = Workload::ALL
        .iter()
        .map(|&w| args.reps_of(w))
        .max()
        .unwrap_or(1);
    for round in 0..most {
        for w in Workload::ALL {
            if round >= args.reps_of(w) {
                continue;
            }
            let mut rep = child(args, w, false, None)?;
            for _ in 0..MAX_RERUNS {
                if rep.cpu_share().is_none_or(|s| s >= MIN_CPU_SHARE) {
                    break;
                }
                *descheduled.entry(w.name()).or_default() += 1;
                println!(
                    "  {} rep {round} was descheduled, running it again",
                    w.name()
                );
                rep = child(args, w, false, None)?;
            }
            println!(
                "  {} rep {round}: {:.1} session-s/s{}",
                w.name(),
                rep.metric("session_s_per_s").unwrap_or(f64::NAN),
                if rep.correct() { "" } else { "  (FAILED)" }
            );
            ok &= rep.correct();
            reps.entry(w.name()).or_default().push(rep);
        }
    }

    let mut workloads = BTreeMap::new();
    for w in Workload::ALL {
        let mine = &reps[w.name()];
        let end_to_end = Value::obj(END_TO_END.iter().map(|m| {
            let values: Vec<f64> = mine.iter().filter_map(|r| r.metric(m.name)).collect();
            let (q1, median, q3) = quartiles(&values);
            (
                m.name,
                Value::obj([
                    ("unit", Value::Str(m.unit.into())),
                    ("values", Value::nums(&values)),
                    ("q1", Value::Num(q1)),
                    ("median", Value::Num(median)),
                    ("q3", Value::Num(q3)),
                ]),
            )
        }));

        // A seed fixes these counts; reps that disagree are a failure,
        // except under injected loss, where the drift is only reported.
        let mut exact: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for r in mine {
            if let Some(counts) = r.info.get("exact").and_then(Value::as_obj) {
                for (k, v) in counts {
                    exact.entry(k.clone()).or_default().extend(v.as_f64());
                }
            }
        }
        for (name, values) in &exact {
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            if lo == hi {
                continue;
            }
            if w.is_deterministic() {
                println!("  {}: {name} differs between reps ({lo} .. {hi})", w.name());
                ok = false;
            } else {
                println!("  {}: {name} drifts {lo} .. {hi} between reps", w.name());
            }
        }

        // Named relative to the results file it will sit beside.
        let trace_name = format!("trace{tag}.{}.jsonl", w.name());
        let traced = child(args, w, true, Some(&args.out.join(&trace_name)))?;
        ok &= traced.correct();
        let layers = Value::obj(per_layer().filter_map(|&(name, unit, _)| {
            let value = traced.metric(name)?;
            Some((
                name,
                Value::obj([
                    ("unit", Value::Str(unit.into())),
                    ("value", Value::Num(value)),
                ]),
            ))
        }));
        println!(
            "  {} traced{}",
            w.name(),
            if traced.correct() { "" } else { "  (FAILED)" }
        );

        workloads.insert(
            w.name(),
            Value::obj([
                ("end_to_end", end_to_end),
                ("per_layer", layers),
                (
                    "exact",
                    Value::obj(exact.iter().map(|(k, v)| (k.as_str(), Value::nums(v)))),
                ),
                (
                    "descheduled_reps",
                    Value::Num(descheduled.get(w.name()).copied().unwrap_or(0) as f64),
                ),
                ("trace", Value::Str(trace_name)),
            ]),
        );
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = Value::obj([
        ("bench", Value::Str("wmps_bench".into())),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("smoke", Value::Bool(args.smoke)),
        ("nproc", Value::Num(nproc as f64)),
        ("load_threads", Value::Num(1.0)),
        (
            "network",
            Value::Str(
                "udp_* cross the host's loopback interface (127.0.0.1), not a real link".into(),
            ),
        ),
        ("workloads", Value::obj(workloads)),
    ]);
    Ok((doc, ok))
}

/// Prints every metric of a results document by name, with its unit.
fn print_table(doc: &Value) {
    let Some(workloads) = doc.get("workloads").and_then(Value::as_obj) else {
        return;
    };
    for (name, w) in workloads {
        println!("\n{name}");
        for m in &END_TO_END {
            let Some(e) = w.get("end_to_end").and_then(|e| e.get(m.name)) else {
                continue;
            };
            let num = |k: &str| e.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
            let n = e
                .get("values")
                .and_then(Value::as_nums)
                .map_or(0, |v| v.len());
            println!(
                "  {:<36} {:>16.4} {:<9} [{:.4} .. {:.4}] n={n}",
                m.name,
                num("median"),
                m.unit,
                num("q1"),
                num("q3")
            );
        }
        for &(layer, unit, _) in per_layer() {
            if let Some(v) = w
                .get("per_layer")
                .and_then(|p| p.get(layer))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
            {
                println!("  {layer:<36} {v:>16.4} {unit}");
            }
        }
    }
}

/// Runs the whole suite (twice with `--twice`, then compares the sets).
///
/// # Errors
///
/// When a child cannot be started or printed no result, or the output
/// directory cannot be written.
pub fn run(args: &SuiteArgs) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let write = |name: &str, doc: &Value| {
        let path = args.out.join(name);
        std::fs::write(&path, doc.to_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("results written to {}", path.display());
        Ok::<(), String>(())
    };

    println!("wmps_bench all: seed {}, set 1", args.seed);
    let (first, mut ok) = one_set(args, "")?;
    print_table(&first);
    write("results.json", &first)?;
    if args.twice {
        println!("\nwmps_bench all: seed {}, set 2", args.seed);
        let (second, ok2) = one_set(args, "2")?;
        print_table(&second);
        write("results2.json", &second)?;
        ok &= ok2;
        println!("\nset 2 against set 1");
        ok &= compare::print_rows(&compare::documents(&first, &second));
    }
    Ok(ok)
}

/// `BENCHMARK.json`, from the tables this build was compiled with.
pub fn manifest() -> Value {
    Value::obj([
        (
            "command",
            Value::Arr(COMMAND.iter().map(|&s| Value::Str(s.into())).collect()),
        ),
        (
            "paths",
            Value::Arr(PATHS.iter().map(|&s| Value::Str(s.into())).collect()),
        ),
        ("run_seconds", Value::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Value::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Value::obj([
                            ("name", Value::Str(w.name().into())),
                            ("why", Value::Str(w.why().into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::Str(m.name.into())),
                            ("unit", Value::Str(m.unit.into())),
                            ("better", Value::Str(m.better.as_str().into())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                per_layer()
                    .map(|&(name, unit, better)| {
                        Value::obj([
                            ("name", Value::Str(name.into())),
                            ("unit", Value::Str(unit.into())),
                            ("better", Value::Str(better.as_str().into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

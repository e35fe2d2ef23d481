//! `wmps_bench`: one lecture-delivery benchmark — seven workloads,
//! end-to-end and per-layer — that every later performance claim about
//! this repository is measured with. See `README.md` beside this file
//! for the commands, the metrics and how to read a trace.
//!
//! It measures the program from outside: every number comes from timing
//! or counting calls into the crates' public functions. Load is
//! generated from a single thread.

mod alloc;
mod compare;
mod json;
mod layers;
mod metrics;
mod procfs;
mod replay;
mod run;
mod sim;
mod spans;
mod stages;
mod stats;
mod suite;
mod udp;
mod workloads;

use std::process::ExitCode;

use run::RunArgs;
use workloads::Workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage:
  wmps_bench --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--trace-out FILE]
      one run of one workload; the last line of output is its JSON result
  wmps_bench all [--seed N] [--seconds S] [--smoke] [--twice] [--out DIR]
      every workload, 5 end-to-end reps each (3 of vod_scale_sim, 1 with
      --smoke) in fresh processes plus one traced rep; writes
      DIR/results.json (and results2.json with --twice, then compares the
      two)
  wmps_bench compare A.json B.json
      applies the regression bounds to two result files; exits non-zero
      on any regressed row
  wmps_bench manifest
      prints BENCHMARK.json as this build defines it

workloads: vod_relay_sim vod_scale_sim vod_direct_sim live_sim udp_clean udp_lossy publish_replay";

/// `--flag value` pairs and bare `--switches` after the subcommand.
struct Flags {
    args: Vec<String>,
}

impl Flags {
    /// The value after `--name`, parsed.
    fn value<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        let Some(i) = self.args.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.args.len() {
            return Err(format!("{name} takes a value"));
        }
        let raw = self.args.remove(i + 1);
        self.args.remove(i);
        raw.parse()
            .map(Some)
            .map_err(|_| format!("{name}: cannot read `{raw}`"))
    }

    fn switch(&mut self, name: &str) -> bool {
        let before = self.args.len();
        self.args.retain(|a| a != name);
        self.args.len() != before
    }

    /// Errors if anything was not consumed.
    fn finish(self) -> Result<(), String> {
        match self.args.first() {
            None => Ok(()),
            Some(a) => Err(format!("unexpected argument `{a}`")),
        }
    }
}

fn dispatch(mut args: Vec<String>) -> Result<bool, String> {
    let sub = match args.first().map(String::as_str) {
        Some(s) if !s.starts_with("--") => args.remove(0),
        _ => "run".to_string(),
    };
    let mut flags = Flags { args };
    match sub.as_str() {
        "run" => {
            let name: String = flags.value("--workload")?.ok_or("--workload is required")?;
            let workload =
                Workload::by_name(&name).ok_or_else(|| format!("no workload named `{name}`"))?;
            let seconds: f64 = flags
                .value("--seconds")?
                .unwrap_or(f64::from(suite::RUN_SECONDS));
            if !(seconds > 0.0 && seconds <= 600.0) {
                return Err("--seconds must be in (0, 600]".into());
            }
            let trace = match flags.value::<u8>("--trace")?.unwrap_or(0) {
                0 => false,
                1 => true,
                _ => return Err("--trace is 0 or 1".into()),
            };
            let run_args = RunArgs {
                workload,
                seed: flags.value("--seed")?.unwrap_or(7),
                seconds,
                trace,
                smoke: flags.switch("--smoke"),
                trace_out: flags.value("--trace-out")?,
            };
            flags.finish()?;
            // A run that printed its result has done its job: whether the
            // program under test passed is the result's `correct`, not
            // the exit code (which is for a benchmark that could not run).
            run::run(&run_args);
            Ok(true)
        }
        "all" => {
            let suite_args = suite::SuiteArgs {
                seed: flags.value("--seed")?.unwrap_or(7),
                seconds: flags
                    .value("--seconds")?
                    .unwrap_or(f64::from(suite::RUN_SECONDS)),
                smoke: flags.switch("--smoke"),
                twice: flags.switch("--twice"),
                out: flags
                    .value("--out")?
                    .unwrap_or_else(|| "wmps_bench_out".into()),
            };
            flags.finish()?;
            suite::run(&suite_args)
        }
        "compare" => match flags.args.as_slice() {
            [a, b] => compare::files(a.as_ref(), b.as_ref()),
            _ => Err("compare takes two result files".into()),
        },
        "manifest" => {
            flags.finish()?;
            print!("{}", suite::manifest().to_pretty());
            Ok(true)
        }
        other => Err(format!("no subcommand `{other}`")),
    }
}

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(true) => ExitCode::SUCCESS,
        // `all` or `compare` found a failed check or a regression.
        Ok(false) => ExitCode::from(2),
        Err(why) => {
            eprintln!("wmps_bench: {why}\n{USAGE}");
            ExitCode::from(1)
        }
    }
}

//! The perf-regression gate: compares a fresh benchmark report against
//! a committed baseline and fails when any tracked value changed.
//!
//! Reports (`BENCH_q14.json` … `BENCH_q17.json`) carry a `"tracked"`
//! object of integer values — frame sizes and the deterministic
//! payload-copy, repair and span counters — that are the same on every
//! machine and every run. Everything outside `"tracked"` is wall-clock
//! context and is ignored here. A fresh report passes when it holds
//! every baseline key with exactly the baseline's value: a drift of one
//! unit either way fails, an improvement included, because a tracked
//! value that moved means the behaviour changed. Such a change is
//! adopted by re-running the bench with `--json` and committing the new
//! baseline (see README, "Perf trajectory"). A baseline key missing
//! from the fresh report fails too: a silently dropped metric is a gate
//! failure, not a pass. The comparator lives in `lod_bench::report`,
//! beside the writer the benches produce these reports with.
//!
//! Usage:
//!   perf_gate --fresh FRESH.json --check-against BASELINE.json
//!   perf_gate --self-test
//!
//! `--self-test` runs the comparator against fixtures — a one-unit
//! drift up, a count that fell, a copy-counter blow-up and a dropped key,
//! each of which must FAIL — and `scripts/ci.sh` runs it before trusting
//! any real comparison.

use std::process::ExitCode;

use lod_bench::report::{compare, gate_self_test};

fn main() -> ExitCode {
    let mut fresh = None;
    let mut baseline = None;
    let mut run_self_test = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--fresh" => fresh = Some(args.next().expect("--fresh takes a path")),
            "--check-against" => {
                baseline = Some(args.next().expect("--check-against takes a path"));
            }
            "--self-test" => run_self_test = true,
            other => panic!(
                "unknown argument {other} (usage: perf_gate --fresh F.json \
                 --check-against B.json | --self-test)"
            ),
        }
    }

    if run_self_test {
        return match gate_self_test() {
            Ok(()) => {
                println!("perf_gate self-test: comparator catches every injected change — ok");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perf_gate self-test FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let (Some(fresh), Some(baseline)) = (fresh, baseline) else {
        eprintln!("usage: perf_gate --fresh F.json --check-against B.json | --self-test");
        return ExitCode::FAILURE;
    };
    let fresh_text = std::fs::read_to_string(&fresh)
        .unwrap_or_else(|e| panic!("cannot read fresh report {fresh}: {e}"));
    let baseline_text = std::fs::read_to_string(&baseline)
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline}: {e}"));
    match compare(&baseline_text, &fresh_text) {
        Ok((report, pass)) => {
            print!("perf gate: {fresh} vs baseline {baseline} (exact)\n{report}");
            if pass {
                println!("perf gate: PASS");
                ExitCode::SUCCESS
            } else {
                println!(
                    "perf gate: FAIL — if the change is intended, re-run the bench \
                     with --json and commit the new baseline (see README, Perf trajectory)"
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perf gate: cannot compare: {e}");
            ExitCode::FAILURE
        }
    }
}

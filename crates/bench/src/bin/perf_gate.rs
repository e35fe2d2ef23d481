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
//! failure, not a pass.
//!
//! Usage:
//!   perf_gate --fresh FRESH.json --check-against BASELINE.json
//!   perf_gate --self-test
//!
//! `--self-test` runs the comparator against fixtures — a one-unit
//! drift up, a count that fell, a copy-counter blow-up and a dropped key,
//! each of which must FAIL — and `scripts/ci.sh` runs it before trusting
//! any real comparison.

use std::fmt::Write as _;
use std::process::ExitCode;

/// Integer entries of the `"tracked"` object, in file order.
fn parse_tracked(source: &str) -> Result<Vec<(String, u64)>, String> {
    let Some(at) = source.find("\"tracked\"") else {
        return Err("no \"tracked\" section".into());
    };
    let rest = &source[at + "\"tracked\"".len()..];
    let open = rest.find('{').ok_or("no object after \"tracked\"")?;
    let body = &rest[open + 1..];
    let close = body.find('}').ok_or("unterminated \"tracked\" object")?;
    let mut out = Vec::new();
    for entry in body[..close].split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (key, value) = entry
            .split_once(':')
            .ok_or_else(|| format!("malformed entry {entry:?}"))?;
        let key = key.trim().trim_matches('"').to_string();
        let value: u64 = value
            .trim()
            .parse()
            .map_err(|_| format!("non-integer tracked value for {key:?}: {}", value.trim()))?;
        out.push((key, value));
    }
    if out.is_empty() {
        return Err("\"tracked\" section is empty".into());
    }
    Ok(out)
}

/// Compares fresh against baseline; returns a human-readable report and
/// whether the gate passes.
fn compare(baseline: &str, fresh: &str) -> Result<(String, bool), String> {
    let baseline = parse_tracked(baseline).map_err(|e| format!("baseline: {e}"))?;
    let fresh = parse_tracked(fresh).map_err(|e| format!("fresh: {e}"))?;
    let mut report = String::new();
    let mut pass = true;
    for (key, base) in &baseline {
        match fresh.iter().find(|(k, _)| k == key) {
            Some((_, new)) if new == base => {
                let _ = writeln!(report, "ok   {key}: {new}");
            }
            Some((_, new)) => {
                let _ = writeln!(report, "FAIL {key}: {new}, baseline {base}");
                pass = false;
            }
            None => {
                let _ = writeln!(report, "FAIL {key}: missing from fresh report");
                pass = false;
            }
        }
    }
    Ok((report, pass))
}

/// Fixture-driven check of the comparator itself.
fn self_test() -> Result<(), String> {
    let baseline = r#"{ "bench": "fixture", "tracked": { "a_bytes": 1000, "b_allocs": 4 } }"#;
    let must_fail = [
        (
            "a one-unit drift up",
            r#"{ "bench": "fixture", "tracked": { "a_bytes": 1001, "b_allocs": 4 } }"#,
        ),
        (
            "a tracked count that fell",
            r#"{ "bench": "fixture", "tracked": { "a_bytes": 1000, "b_allocs": 3 } }"#,
        ),
        (
            "a copy-counter blow-up",
            r#"{ "bench": "fixture", "tracked": { "a_bytes": 1000, "b_allocs": 16 } }"#,
        ),
        (
            "a dropped tracked key",
            r#"{ "bench": "fixture", "tracked": { "a_bytes": 1000 } }"#,
        ),
    ];

    let (_, pass) = compare(baseline, baseline)?;
    if !pass {
        return Err("identical reports must pass".into());
    }
    for (what, fresh) in must_fail {
        let (report, pass) = compare(baseline, fresh)?;
        if pass {
            return Err(format!("{what} must fail:\n{report}"));
        }
    }
    if compare(r#"{ "untracked": {} }"#, baseline).is_ok() {
        return Err("baseline without a tracked section must error".into());
    }
    Ok(())
}

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
        return match self_test() {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tracked_integers_in_order() {
        let parsed =
            parse_tracked(r#"{ "bench": "x", "tracked": { "a": 1, "b": 2 }, "untracked": {} }"#)
                .unwrap();
        assert_eq!(parsed, vec![("a".into(), 1), ("b".into(), 2)]);
    }

    #[test]
    fn rejects_float_tracked_values() {
        let err = parse_tracked(r#"{ "tracked": { "a": 1.5 } }"#).unwrap_err();
        assert!(err.contains("non-integer"), "{err}");
    }

    #[test]
    fn only_the_exact_value_passes() {
        let base = r#"{ "tracked": { "a": 1000 } }"#;
        assert!(compare(base, base).unwrap().1);
        for drifted in [999, 1001, 10, 1150] {
            let fresh = format!(r#"{{ "tracked": {{ "a": {drifted} }} }}"#);
            assert!(!compare(base, &fresh).unwrap().1, "{drifted} passed");
        }
    }

    #[test]
    fn extra_fresh_keys_are_not_compared() {
        let base = r#"{ "tracked": { "a": 1000 } }"#;
        let fresh = r#"{ "tracked": { "a": 1000, "brand_new": 99999 } }"#;
        assert!(compare(base, fresh).unwrap().1);
    }

    #[test]
    fn self_test_fixture_suite_holds() {
        self_test().unwrap();
    }
}

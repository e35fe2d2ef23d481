//! The perf-regression gate: compares a fresh benchmark report against
//! a committed baseline and fails when any tracked value regressed.
//!
//! Reports (`BENCH_q14.json`, `BENCH_q15.json`) carry a `"tracked"`
//! object of integer values where lower is better — frame sizes and
//! the (deterministic) payload-copy counters. Everything outside
//! `"tracked"` is wall-clock context and is ignored here. A fresh value
//! passes when
//!
//! ```text
//! fresh * 1000 <= baseline * (1000 + tolerance_permille)
//! ```
//!
//! integer math only, so the verdict is identical on every machine.
//! Improvements always pass (they are adopted by re-running the bench
//! with `--json` and committing the new baseline — see README, "Perf
//! trajectory"). Every baseline key must be present in the fresh
//! report: a silently dropped metric is a gate failure, not a pass.
//!
//! Usage:
//!   perf_gate --fresh FRESH.json --check-against BASELINE.json \
//!             [--tolerance-permille 150]
//!   perf_gate --self-test
//!
//! `--self-test` runs the comparator against fixtures with an injected
//! regression (must FAIL) and an in-tolerance drift (must PASS) —
//! `scripts/ci.sh` runs it before trusting any real comparison.

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
fn compare(baseline: &str, fresh: &str, tolerance_permille: u64) -> Result<(String, bool), String> {
    let baseline = parse_tracked(baseline).map_err(|e| format!("baseline: {e}"))?;
    let fresh = parse_tracked(fresh).map_err(|e| format!("fresh: {e}"))?;
    let mut report = String::new();
    let mut pass = true;
    for (key, base) in &baseline {
        let Some((_, new)) = fresh.iter().find(|(k, _)| k == key) else {
            let _ = writeln!(report, "FAIL {key}: missing from fresh report");
            pass = false;
            continue;
        };
        // Lower is better; `base * (1000 + tol)` fits u64 comfortably
        // for ns-scale medians.
        let limit = base * (1000 + tolerance_permille);
        if new * 1000 <= limit {
            let _ = writeln!(report, "ok   {key}: {new} (baseline {base})");
        } else {
            let _ = writeln!(
                report,
                "FAIL {key}: {new} regressed past baseline {base} \
                 (+{tolerance_permille} permille allowed, limit {})",
                limit / 1000
            );
            pass = false;
        }
    }
    Ok((report, pass))
}

/// Fixture-driven check of the comparator itself.
fn self_test() -> Result<(), String> {
    let baseline = r#"{ "bench": "fixture", "tracked": { "a_ns": 1000, "b_allocs": 4 } }"#;
    // +10% on a_ns: inside the default 15% tolerance.
    let drift = r#"{ "bench": "fixture", "tracked": { "a_ns": 1100, "b_allocs": 4 } }"#;
    // +20% on a_ns: a deliberate regression the gate must catch.
    let regressed = r#"{ "bench": "fixture", "tracked": { "a_ns": 1200, "b_allocs": 4 } }"#;
    // b_allocs quadrupled: the copy-counter blow-up must also fail.
    let copies = r#"{ "bench": "fixture", "tracked": { "a_ns": 1000, "b_allocs": 16 } }"#;
    // A tracked key vanished: must fail, not silently pass.
    let dropped = r#"{ "bench": "fixture", "tracked": { "a_ns": 1000 } }"#;

    let (_, pass) = compare(baseline, baseline, 150)?;
    if !pass {
        return Err("identical reports must pass".into());
    }
    let (_, pass) = compare(baseline, drift, 150)?;
    if !pass {
        return Err("in-tolerance drift must pass".into());
    }
    let (report, pass) = compare(baseline, regressed, 150)?;
    if pass {
        return Err(format!("injected +20% regression must fail:\n{report}"));
    }
    let (report, pass) = compare(baseline, copies, 150)?;
    if pass {
        return Err(format!("copy-counter blow-up must fail:\n{report}"));
    }
    let (report, pass) = compare(baseline, dropped, 150)?;
    if pass {
        return Err(format!("dropped tracked key must fail:\n{report}"));
    }
    if compare(r#"{ "untracked": {} }"#, drift, 150).is_ok() {
        return Err("baseline without a tracked section must error".into());
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut fresh = None;
    let mut baseline = None;
    let mut tolerance_permille = 150u64;
    let mut run_self_test = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--fresh" => fresh = Some(args.next().expect("--fresh takes a path")),
            "--check-against" => {
                baseline = Some(args.next().expect("--check-against takes a path"));
            }
            "--tolerance-permille" => {
                tolerance_permille = args
                    .next()
                    .expect("--tolerance-permille takes an integer")
                    .parse()
                    .expect("tolerance must be a non-negative integer");
            }
            "--self-test" => run_self_test = true,
            other => panic!(
                "unknown argument {other} (usage: perf_gate --fresh F.json \
                 --check-against B.json [--tolerance-permille N] | --self-test)"
            ),
        }
    }

    if run_self_test {
        return match self_test() {
            Ok(()) => {
                println!("perf_gate self-test: comparator catches injected regressions — ok");
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
    match compare(&baseline_text, &fresh_text, tolerance_permille) {
        Ok((report, pass)) => {
            print!(
                "perf gate: {fresh} vs baseline {baseline} \
                 (tolerance +{tolerance_permille} permille)\n{report}"
            );
            if pass {
                println!("perf gate: PASS");
                ExitCode::SUCCESS
            } else {
                println!(
                    "perf gate: FAIL — if the regression is intended, re-run the bench \
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
    fn boundary_is_inclusive() {
        // Exactly +15.0% passes; one more ns fails.
        let base = r#"{ "tracked": { "a": 1000 } }"#;
        let at_limit = r#"{ "tracked": { "a": 1150 } }"#;
        let over = r#"{ "tracked": { "a": 1151 } }"#;
        assert!(compare(base, at_limit, 150).unwrap().1);
        assert!(!compare(base, over, 150).unwrap().1);
    }

    #[test]
    fn improvements_and_extra_fresh_keys_pass() {
        let base = r#"{ "tracked": { "a": 1000 } }"#;
        let fresh = r#"{ "tracked": { "a": 10, "brand_new": 99999 } }"#;
        assert!(compare(base, fresh, 150).unwrap().1);
    }

    #[test]
    fn self_test_fixture_suite_holds() {
        self_test().unwrap();
    }
}

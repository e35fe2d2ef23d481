//! `wmps_bench compare A.json B.json`: did B regress against A?
//!
//! For every workload and end-to-end metric the medians are compared
//! under the metric's bound. Where the run-to-run spread is wider than
//! the bound the answer is `unresolved`, never `ok`, unless every run of
//! B reads better than every run of A: noise that wide could hide the
//! regression. Counts that a seed fixes must match exactly.

use std::path::Path;

use crate::json::{self, Value};
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, quartiles};
use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    Ok,
    Unresolved,
    Regressed,
    /// B lacks a metric A has: nothing vouches for it.
    Missing,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
            Verdict::Missing => "missing",
        }
    }
}

/// Judges one metric on one workload from the rep values of both sides.
///
/// Quiet data is judged on its medians. Where either side's quartiles
/// are further apart than the worsening the metric allows, the medians
/// cannot vouch for anything: the verdict is `unresolved` unless every
/// run of B is on one side of every run of A. Neither can a single run a
/// side prove a regression.
pub fn judge(m: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Missing;
    }
    let (ma, mb) = (median(a), median(b));
    // Positive = B is worse.
    let worse = |x: f64, than: f64| match m.better {
        Better::Lower => x - than,
        Better::Higher => than - x,
    };
    let allowed = (m.bound * ma.abs()).max(m.floor);
    let past_the_bound = worse(mb, ma) > allowed;
    if a.len() < 2 || b.len() < 2 {
        // One run a side (`--smoke`) has no spread to tell noise by.
        return if past_the_bound {
            Verdict::Unresolved
        } else {
            Verdict::Ok
        };
    }
    let iqr = |v: &[f64]| {
        let (q1, _, q3) = quartiles(v);
        q3 - q1
    };
    if iqr(a) <= allowed && iqr(b) <= allowed {
        return if past_the_bound {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    let every_pair =
        |holds: fn(f64) -> bool| b.iter().all(|&y| a.iter().all(|&x| holds(worse(y, x))));
    if every_pair(|w| w < 0.0) {
        Verdict::Ok
    } else if past_the_bound && every_pair(|w| w > 0.0) {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    }
}

/// The rep values of `workload`'s end-to-end `metric` in a result file.
fn values(doc: &Value, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|e| e.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Value::as_nums)
        .unwrap_or_default()
}

/// The seed-determined counts of `workload` in a result file, flattened
/// to `(name, values)`; the traced run's allocation count rides along.
fn exact_counts(doc: &Value, workload: &str) -> Vec<(String, Vec<f64>)> {
    let w = doc.get("workloads").and_then(|w| w.get(workload));
    let mut out: Vec<(String, Vec<f64>)> = w
        .and_then(|w| w.get("exact"))
        .and_then(Value::as_obj)
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_nums()?)))
                .collect()
        })
        .unwrap_or_default();
    let allocs = w
        .and_then(|w| w.get("per_layer"))
        .and_then(|p| p.get("alloc.count_per_pkt"))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64);
    if let Some(v) = allocs {
        out.push(("alloc.count_per_pkt".into(), vec![v]));
    }
    out
}

/// One row of the comparison: the workload's worst verdict and the
/// metrics that are not `ok`.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub verdict: Verdict,
    pub details: Vec<String>,
}

/// Compares two parsed result files, one row per workload of A.
pub fn documents(a: &Value, b: &Value) -> Vec<Row> {
    let same_seed = a.get("seed").and_then(Value::as_f64).is_some()
        && a.get("seed") == b.get("seed")
        && a.get("smoke") == b.get("smoke");
    let names: Vec<String> = a
        .get("workloads")
        .and_then(Value::as_obj)
        .map(|m| m.keys().cloned().collect())
        .unwrap_or_default();
    names
        .into_iter()
        .map(|workload| {
            let mut verdict = Verdict::Ok;
            let mut details = Vec::new();
            for m in &END_TO_END {
                let (va, vb) = (values(a, &workload, m.name), values(b, &workload, m.name));
                if va.is_empty() {
                    continue;
                }
                let v = judge(m, &va, &vb);
                if v != Verdict::Ok {
                    details.push(format!(
                        "{} {} ({} -> {} {})",
                        m.name,
                        v.as_str(),
                        median(&va),
                        median(&vb),
                        m.unit
                    ));
                }
                verdict = verdict.max(v);
            }
            let deterministic =
                Workload::by_name(&workload).is_some_and(Workload::is_deterministic);
            if same_seed && deterministic {
                let counts_b = exact_counts(b, &workload);
                for (name, va) in exact_counts(a, &workload) {
                    let vb = counts_b.iter().find(|(n, _)| *n == name).map(|(_, v)| v);
                    let all_equal = vb.is_some_and(|vb| {
                        va.iter().chain(vb).all(|&x| x == va[0]) && !vb.is_empty()
                    });
                    if !all_equal {
                        details.push(format!("exact count {name} differs"));
                        verdict = verdict.max(Verdict::Regressed);
                    }
                }
            }
            Row {
                workload,
                verdict,
                details,
            }
        })
        .collect()
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compares two result files and prints one row per workload. `Ok(false)`
/// when any row regressed or lost a metric.
///
/// # Errors
///
/// When a file cannot be read or is not a result file.
pub fn files(a: &Path, b: &Path) -> Result<bool, String> {
    let rows = documents(&load(a)?, &load(b)?);
    if rows.is_empty() {
        return Err(format!("{} holds no workloads", a.display()));
    }
    Ok(print_rows(&rows))
}

/// Prints one row per workload, with the metrics that are not `ok`
/// beneath it. False when any row regressed or lost a metric.
pub fn print_rows(rows: &[Row]) -> bool {
    println!("{:<16} verdict", "workload");
    for row in rows {
        println!("{:<16} {}", row.workload, row.verdict.as_str());
        for d in &row.details {
            println!("{:<16}   {d}", "");
        }
    }
    rows.iter().all(|r| r.verdict < Verdict::Regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    fn throughput() -> &'static EndToEnd {
        end_to_end("session_s_per_s").unwrap()
    }

    #[test]
    fn inside_the_bound_is_ok_in_either_direction() {
        let m = throughput();
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(judge(m, &a, &[95.0, 96.0, 94.0, 95.5, 94.5]), Verdict::Ok);
        assert_eq!(judge(m, &a, &[130.0, 131.0, 129.0]), Verdict::Ok);
    }

    #[test]
    fn a_clean_drop_past_the_bound_is_regressed() {
        let m = throughput();
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [70.0, 71.0, 69.0, 70.5, 69.5];
        assert_eq!(judge(m, &a, &b), Verdict::Regressed);
        // Lower-is-better metrics regress upward.
        let rss = end_to_end("peak_rss_mb").unwrap();
        assert_eq!(
            judge(rss, &[100.0, 100.0], &[125.0, 126.0]),
            Verdict::Regressed
        );
        assert_eq!(judge(rss, &[100.0, 100.0], &[80.0, 81.0]), Verdict::Ok);
    }

    #[test]
    fn wide_overlapping_noise_is_unresolved_whatever_the_medians_say() {
        let m = throughput();
        let a = [100.0, 140.0, 70.0, 120.0, 90.0];
        // Equal medians, but a spread that could hide a regression.
        assert_eq!(judge(m, &a, &a), Verdict::Unresolved);
        // One quiet side does not rescue a noisy one.
        assert_eq!(judge(m, &a, &[100.0; 5]), Verdict::Unresolved);
        assert_eq!(judge(m, &[100.0; 5], &a), Verdict::Unresolved);
        // A drop past the bound inside the noise.
        let b = [70.0, 100.0, 55.0, 85.0, 65.0];
        assert_eq!(judge(m, &a, &b), Verdict::Unresolved);
    }

    #[test]
    fn wide_noise_resolves_only_when_the_runs_are_strictly_separated() {
        let m = throughput();
        let a = [100.0, 140.0, 70.0, 120.0, 90.0];
        // Every run of B slower than every run of A: the drop is real.
        let b = [40.0, 60.0, 30.0, 50.0, 45.0];
        assert_eq!(judge(m, &a, &b), Verdict::Regressed);
        // Every run of B faster than every run of A.
        let b = [150.0, 190.0, 141.0, 170.0, 160.0];
        assert_eq!(judge(m, &a, &b), Verdict::Ok);
        // Separated the wrong way, yet the medians are inside the bound:
        // still nothing the noise lets anyone claim.
        let a = [100.0, 125.0, 99.0, 101.0, 124.0];
        let b = [98.0, 98.5, 97.0, 98.2, 97.5];
        assert_eq!(judge(m, &a, &b), Verdict::Unresolved);
    }

    #[test]
    fn the_floor_forgives_what_the_clock_cannot_resolve() {
        // +50 virtual ms of startup is half a driver step.
        let m = end_to_end("startup_ms_p50").unwrap();
        assert_eq!(judge(m, &[300.0; 3], &[350.0; 3]), Verdict::Ok);
        assert_eq!(judge(m, &[300.0; 3], &[500.0; 3]), Verdict::Regressed);
        // One failed session in 64 is far past "any decrease".
        let ok = end_to_end("sessions_ok_permille").unwrap();
        assert_eq!(judge(ok, &[1000.0; 3], &[984.375; 3]), Verdict::Regressed);
    }

    #[test]
    fn one_run_a_side_never_proves_a_regression() {
        let m = throughput();
        assert_eq!(judge(m, &[100.0], &[70.0]), Verdict::Unresolved);
        assert_eq!(judge(m, &[100.0], &[95.0]), Verdict::Ok);
        assert_eq!(
            judge(m, &[100.0, 101.0, 99.0], &[70.0]),
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_missing_key_is_its_own_verdict() {
        assert_eq!(judge(throughput(), &[100.0], &[]), Verdict::Missing);
    }

    fn doc(throughput: &[f64], ticks: f64, with_rss: bool) -> Value {
        let metric = |vals: &[f64]| Value::obj([("values", Value::nums(vals))]);
        let mut e2e = vec![("session_s_per_s", metric(throughput))];
        if with_rss {
            e2e.push(("peak_rss_mb", metric(&[100.0, 100.0])));
        }
        Value::obj([
            ("seed", Value::Num(7.0)),
            (
                "workloads",
                Value::obj([(
                    "vod_relay_sim",
                    Value::obj([
                        ("end_to_end", Value::obj(e2e)),
                        (
                            "exact",
                            Value::obj([("session_ticks", Value::nums(&[ticks, ticks]))]),
                        ),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn documents_compare_row_by_row() {
        let a = doc(&[100.0, 101.0, 99.0], 6_023.0, true);
        let rows = documents(&a, &a);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Ok);
        assert!(rows[0].details.is_empty());

        let slower = doc(&[70.0, 71.0, 69.0], 6_023.0, true);
        assert_eq!(documents(&a, &slower)[0].verdict, Verdict::Regressed);

        let drifted = doc(&[100.0, 101.0, 99.0], 6_024.0, true);
        let rows = documents(&a, &drifted);
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert!(rows[0].details[0].contains("session_ticks"));

        let thinner = doc(&[100.0, 101.0, 99.0], 6_023.0, false);
        assert_eq!(documents(&a, &thinner)[0].verdict, Verdict::Missing);
        // A metric only B has is no regression.
        assert_eq!(documents(&thinner, &a)[0].verdict, Verdict::Ok);
    }
}

//! The experiment binaries' one report writer: the fixed-width tables
//! they print, the JSON reports they write, and the comparator
//! `perf_gate` runs over those reports.
//!
//! The JSON is written by hand and holds no float the caller did not
//! format itself, so two runs with the same seed write the same bytes.

use std::fmt::Write as _;
use std::time::Instant;

/// Prints a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:<w$}", w = w))
        .collect();
    println!("| {} |", line.join(" | "));
}

/// Prints a table header with a separator line.
pub fn header(cells: &[&str], widths: &[usize]) {
    row(
        &cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("|-{}-|", sep.join("-|-"));
}

/// Formats ticks as milliseconds with one decimal.
pub fn ms(ticks: u64) -> String {
    format!("{:.1}", ticks as f64 / 10_000.0)
}

/// Formats ticks as seconds with two decimals.
pub fn secs(ticks: u64) -> String {
    format!("{:.2}", ticks as f64 / 10_000_000.0)
}

/// A JSON value as the reports write it. Keys and strings are
/// identifiers and are written as they are, unescaped.
#[derive(Debug, Clone)]
pub enum Json<'a> {
    /// An integer, signed or not.
    Int(i128),
    /// `true` or `false`.
    Bool(bool),
    /// A string.
    Str(&'a str),
    /// A number the caller formatted, e.g. `format!("{secs:.3}")`.
    Num(String),
    /// An object, one member per line.
    Obj(Vec<(&'a str, Json<'a>)>),
    /// An array, one element per line.
    Arr(Vec<Json<'a>>),
    /// An object on one line: `{"name": "calm", "completed": 64}`.
    Row(Vec<(&'a str, Json<'a>)>),
}

macro_rules! json_int_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Json<'_> {
            fn from(v: $t) -> Self {
                Json::Int(v as i128)
            }
        }
    )*};
}
json_int_from!(u16, u32, u64, usize, i64);

impl From<bool> for Json<'_> {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl<'a> From<&'a str> for Json<'a> {
    fn from(v: &'a str) -> Self {
        Json::Str(v)
    }
}

impl Json<'_> {
    /// The value as a report file: itself at the top level, then a newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Appends the value, whose first line is already indented to `depth`.
    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => {
                let _ = write!(out, "\"{s}\"");
            }
            Json::Num(s) => out.push_str(s),
            Json::Obj(members) => {
                let members = members.iter().map(|(k, v)| (Some(*k), v));
                write_block(out, depth, ['{', '}'], members);
            }
            Json::Arr(items) => {
                write_block(out, depth, ['[', ']'], items.iter().map(|v| (None, v)))
            }
            Json::Row(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "\"{key}\": ");
                    value.write(out, depth);
                }
                out.push('}');
            }
        }
    }
}

/// An object or array with one entry per line, each indented one level
/// deeper than `depth`.
fn write_block<'v, 'a: 'v>(
    out: &mut String,
    depth: usize,
    [open, close]: [char; 2],
    entries: impl Iterator<Item = (Option<&'a str>, &'v Json<'a>)>,
) {
    out.push(open);
    for (i, (key, value)) in entries.enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(depth + 1));
        if let Some(key) = key {
            let _ = write!(out, "\"{key}\": ");
        }
        value.write(out, depth + 1);
    }
    out.push('\n');
    out.push_str(&"  ".repeat(depth));
    out.push(close);
}

/// A perf-trajectory report (`BENCH_q14.json` … `BENCH_q17.json`).
#[derive(Debug)]
pub struct BenchReport<'a> {
    /// The binary that wrote it.
    pub bench: &'a str,
    /// Deterministic integers, the same on every machine and every run:
    /// `perf_gate` fails when any of them changes.
    pub tracked: Vec<(&'a str, u64)>,
    /// Wall-clock figures and context: recorded, never gated.
    pub untracked: Vec<(&'a str, Json<'a>)>,
}

impl BenchReport<'_> {
    /// The report as `perf_gate` reads it.
    pub fn render(&self) -> String {
        let tracked = self.tracked.iter().map(|&(k, v)| (k, v.into())).collect();
        Json::Obj(vec![
            ("bench", Json::Str(self.bench)),
            ("tracked", Json::Obj(tracked)),
            ("untracked", Json::Obj(self.untracked.clone())),
        ])
        .render()
    }
}

/// Writes `json` to `path`, or prints it when no path was given.
pub fn emit(json: &str, path: Option<&str>) {
    match path {
        Some(path) => {
            std::fs::write(path, json).expect("write json report");
            println!("\nreport written to {path}");
        }
        None => println!("\n{json}"),
    }
}

/// Median of `samples` (sorted in place, nearest-rank).
pub fn median(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Median ns per call of `f` over `iters` timed samples.
pub fn median_ns(iters: usize, mut f: impl FnMut()) -> u64 {
    let mut samples: Vec<u64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    median(&mut samples)
}

/// Integer entries of the `"tracked"` object, in file order.
pub fn parse_tracked(source: &str) -> Result<Vec<(String, u64)>, String> {
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
pub fn compare(baseline: &str, fresh: &str) -> Result<(String, bool), String> {
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
pub fn gate_self_test() -> Result<(), String> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn renders_a_nested_untracked_object_with_an_array_of_objects() {
        let sweep = |profile, burst, ticks: u64| {
            Json::Obj(vec![
                ("profile", Json::Str(profile)),
                ("burst", Json::Bool(burst)),
                ("on_ticks", ticks.into()),
            ])
        };
        let report = BenchReport {
            bench: "q16_repair",
            tracked: vec![("nack_frame_bytes", 43), ("chaos_on_give_ups", 0)],
            untracked: vec![
                ("frames_per_run", 2_000u64.into()),
                ("wall_seconds", Json::Num(format!("{:.3}", 0.3171))),
                ("overhead_permille", (-23i64).into()),
                (
                    "sweep",
                    Json::Arr(vec![
                        sweep("steady_050", false, 2_022_000),
                        sweep("chaos_120", true, 2_046_000),
                    ]),
                ),
            ],
        };
        assert_eq!(
            report.render(),
            r#"{
  "bench": "q16_repair",
  "tracked": {
    "nack_frame_bytes": 43,
    "chaos_on_give_ups": 0
  },
  "untracked": {
    "frames_per_run": 2000,
    "wall_seconds": 0.317,
    "overhead_permille": -23,
    "sweep": [
      {
        "profile": "steady_050",
        "burst": false,
        "on_ticks": 2022000
      },
      {
        "profile": "chaos_120",
        "burst": true,
        "on_ticks": 2046000
      }
    ]
  }
}
"#
        );
    }

    #[test]
    fn renders_an_array_of_one_line_rows() {
        let row = |name, completed: usize| {
            Json::Row(vec![
                ("name", Json::Str(name)),
                ("completed", completed.into()),
                ("session_ms", 62_300u64.into()),
            ])
        };
        let json = Json::Obj(vec![
            ("seed", 7u64.into()),
            (
                "scenarios",
                Json::Arr(vec![row("calm", 64), row("severe", 63)]),
            ),
        ]);
        assert_eq!(
            json.render(),
            r#"{
  "seed": 7,
  "scenarios": [
    {"name": "calm", "completed": 64, "session_ms": 62300},
    {"name": "severe", "completed": 63, "session_ms": 62300}
  ]
}
"#
        );
    }

    proptest! {
        /// Whatever the writer puts under `"tracked"`, the gate reads
        /// back: the same keys, the same values, in the same order.
        #[test]
        fn the_gate_reads_back_what_the_writer_tracks(
            entries in proptest::collection::vec(("[a-z0-9_]{1,16}", any::<u64>()), 1..12),
            context in any::<u64>(),
        ) {
            let report = BenchReport {
                bench: "fixture",
                tracked: entries.iter().map(|(k, v)| (k.as_str(), *v)).collect(),
                untracked: vec![("context", context.into())],
            };
            let parsed = parse_tracked(&report.render()).unwrap();
            prop_assert_eq!(parsed, entries);
        }
    }

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
        gate_self_test().unwrap();
    }
}

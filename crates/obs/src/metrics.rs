//! Integer-only metrics registry: counters, gauges and fixed-bucket
//! histograms with exact merge, rendered as a Prometheus-style text
//! exposition.
//!
//! Everything is `u64` and every container is a `BTreeMap`, so the
//! exposition of a seeded run is byte-identical across processes and
//! machines — the same discipline the experiment JSON reports follow.

use std::collections::BTreeMap;
use std::fmt::Write;

use serde::{Deserialize, Serialize};

/// Upper bucket bounds (in ticks, 100 ns units) for duration-flavored
/// histograms: 1 ms, 10 ms, 100 ms, 1 s, 5 s, 10 s, 60 s, 600 s.
pub const TICK_BOUNDS: [u64; 8] = [
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    50_000_000,
    100_000_000,
    600_000_000,
    6_000_000_000,
];

/// A fixed-bucket histogram over `u64` samples.
///
/// `counts[i]` holds samples `v <= bounds[i]` that fit no earlier
/// bucket; one extra overflow bucket (`+Inf`) catches the rest, so
/// every recorded sample lands in exactly one bucket and
/// `count == counts.sum()` always holds. Two histograms over the same
/// bounds merge by element-wise addition, which is exact, associative
/// and commutative — integer math only.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    sum: u64,
    count: u64,
}

impl Histogram {
    /// An empty histogram over `bounds`, which must be strictly
    /// increasing (they are *upper* bucket bounds).
    ///
    /// # Panics
    /// When `bounds` is not strictly increasing.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            count: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum = self.sum.saturating_add(value);
        self.count += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The configured upper bounds (without the implicit `+Inf`).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts; the final entry is the `+Inf` overflow bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Cumulative counts per bucket (Prometheus `le` semantics); the
    /// final entry equals [`Histogram::count`].
    pub fn cumulative(&self) -> Vec<u64> {
        let mut acc = 0u64;
        self.counts
            .iter()
            .map(|&c| {
                acc += c;
                acc
            })
            .collect()
    }

    /// Adds `other` into `self` bucket by bucket. Exact: merging is
    /// associative and commutative and conserves `count` and `sum`
    /// (saturating on the sum like [`Histogram::record`]).
    ///
    /// # Panics
    /// When the two histograms have different bounds.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bounds"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.count += other.count;
    }
}

/// A named collection of counters, gauges and histograms.
///
/// Counter and gauge names may carry a Prometheus label suffix
/// (`lod_events_total{kind="stall_start"}`); the part before `{` is the
/// metric family used for `# TYPE` grouping in the exposition.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

/// The metric family of a sample name: everything before the label set.
fn family(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to the counter `name` (created at zero on first use).
    /// Allocation-free after a counter's first touch: the owned key is
    /// only created when the counter does not exist yet.
    pub fn counter_add(&mut self, name: &str, v: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += v;
        } else {
            self.counters.insert(name.to_string(), v);
        }
    }

    /// Current value of counter `name` (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` to `v` (allocation-free after first touch).
    pub fn gauge_set(&mut self, name: &str, v: u64) {
        if let Some(g) = self.gauges.get_mut(name) {
            *g = v;
        } else {
            self.gauges.insert(name.to_string(), v);
        }
    }

    /// Current value of gauge `name` (0 when never set).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Records `value` into histogram `name`, creating it over `bounds`
    /// on first use.
    ///
    /// # Panics
    /// When the histogram exists with different bounds.
    pub fn observe(&mut self, name: &str, bounds: &[u64], value: u64) {
        let h = self
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds));
        assert_eq!(
            h.bounds(),
            bounds,
            "histogram {name} re-used with different bounds"
        );
        h.record(value);
    }

    /// The histogram `name`, when it exists.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Merges `other` into `self`: counters add, gauges take `other`'s
    /// value, histograms merge exactly.
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
    }

    /// Renders the registry as a Prometheus-style text exposition.
    /// Deterministic: families and samples appear in lexicographic
    /// order, values are integers.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut last_family = "";
        for (name, v) in &self.counters {
            let fam = family(name);
            if fam != last_family {
                let _ = writeln!(out, "# TYPE {fam} counter");
                last_family = fam;
            }
            let _ = writeln!(out, "{name} {v}");
        }
        last_family = "";
        for (name, v) in &self.gauges {
            let fam = family(name);
            if fam != last_family {
                let _ = writeln!(out, "# TYPE {fam} gauge");
                last_family = fam;
            }
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let cumulative = h.cumulative();
            for (i, c) in cumulative.iter().enumerate() {
                match h.bounds().get(i) {
                    Some(b) => {
                        let _ = writeln!(out, "{name}_bucket{{le=\"{b}\"}} {c}");
                    }
                    None => {
                        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {c}");
                    }
                }
            }
            let _ = writeln!(out, "{name}_sum {}", h.sum());
            let _ = writeln!(out, "{name}_count {}", h.count());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[10, 100]);
        h.record(0);
        h.record(10);
        h.record(11);
        h.record(1000);
        assert_eq!(h.bucket_counts(), &[2, 1, 1]);
        assert_eq!(h.cumulative(), vec![2, 3, 4]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1021);
    }

    #[test]
    fn histogram_merge_is_exact() {
        let mut a = Histogram::new(&[10, 100]);
        let mut b = Histogram::new(&[10, 100]);
        a.record(5);
        a.record(500);
        b.record(50);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.sum(), 555);
        assert_eq!(merged.bucket_counts(), &[1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn histogram_merge_rejects_mismatched_bounds() {
        let mut a = Histogram::new(&[10]);
        a.merge(&Histogram::new(&[20]));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(&[10, 10]);
    }

    #[test]
    fn histogram_sum_saturates() {
        let mut h = Histogram::new(&[10]);
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn registry_render_is_sorted_and_integer() {
        let mut r = Registry::new();
        r.counter_add("lod_events_total{kind=\"stall_start\"}", 2);
        r.counter_add("lod_events_total{kind=\"downshift\"}", 1);
        r.counter_add("lod_bytes_total", 99);
        r.gauge_set("lod_session_ticks", 1234);
        r.observe("lod_startup_ticks", &[10, 100], 7);
        let text = r.render();
        let expected = "\
# TYPE lod_bytes_total counter
lod_bytes_total 99
# TYPE lod_events_total counter
lod_events_total{kind=\"downshift\"} 1
lod_events_total{kind=\"stall_start\"} 2
# TYPE lod_session_ticks gauge
lod_session_ticks 1234
# TYPE lod_startup_ticks histogram
lod_startup_ticks_bucket{le=\"10\"} 1
lod_startup_ticks_bucket{le=\"100\"} 1
lod_startup_ticks_bucket{le=\"+Inf\"} 1
lod_startup_ticks_sum 7
lod_startup_ticks_count 1
";
        assert_eq!(text, expected);
    }

    #[test]
    fn registry_merge_adds_counters_and_histograms() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.counter_add("c", 1);
        b.counter_add("c", 2);
        a.observe("h", &[10], 3);
        b.observe("h", &[10], 30);
        b.gauge_set("g", 9);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.gauge("g"), 9);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
    }
}

//! Synchronization measurement over render traces.
//!
//! The paper's demo claim (Fig. 7) is that video and slides stay
//! synchronized. These statistics quantify it: for each rendered item,
//! the *skew* is how far its actual render time deviated from its
//! scheduled time under a common anchor.

use serde::{Deserialize, Serialize};

use crate::renderer::RenderTrace;

/// Summary statistics of a set of skews (in ticks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SkewStats {
    /// Number of measurements.
    pub count: usize,
    /// Maximum skew.
    pub max: u64,
    /// Mean skew.
    pub mean: f64,
    /// 95th-percentile skew.
    pub p95: u64,
}

impl SkewStats {
    /// Computes statistics over raw skews: one pass for max and mean, and
    /// a selection, not a sort, for the 95th percentile.
    pub fn from_skews(mut skews: Vec<u64>) -> Self {
        if skews.is_empty() {
            return Self::default();
        }
        let count = skews.len();
        let (max, sum) = skews
            .iter()
            .fold((0, 0u64), |(max, sum), &s| (s.max(max), sum + s));
        let mean = sum as f64 / count as f64;
        let rank = ((count as f64 * 0.95).ceil() as usize).min(count) - 1;
        let p95 = *skews.select_nth_unstable(rank).1;
        Self {
            count,
            max,
            mean,
            p95,
        }
    }

    /// Skew of every item in `trace` against a wall-time anchor: item
    /// scheduled at presentation time `p` should render at `anchor + p`.
    pub fn of_trace(trace: &RenderTrace, anchor: u64) -> Self {
        let skews = trace
            .items()
            .iter()
            .map(|i| i.wall_time.abs_diff(anchor + i.pres_time))
            .collect();
        Self::from_skews(skews)
    }

    /// Skew restricted to slide changes (the paper's headline sync).
    pub fn of_slides(trace: &RenderTrace, anchor: u64) -> Self {
        let skews = trace
            .slide_changes()
            .iter()
            .map(|i| i.wall_time.abs_diff(anchor + i.pres_time))
            .collect();
        Self::from_skews(skews)
    }

    /// Audio/video lip-sync: for each audio block, the wall-time distance
    /// to the video frame whose presentation time is closest — the "lips
    /// match the voice" number. Empty when either stream is missing.
    pub fn av_sync(trace: &RenderTrace) -> Self {
        use crate::renderer::RenderItem;
        let video: Vec<(u64, u64)> = trace
            .items()
            .iter()
            .filter(|i| matches!(i.item, RenderItem::VideoFrame { .. }))
            .map(|i| (i.pres_time, i.wall_time))
            .collect();
        if video.is_empty() {
            return Self::default();
        }
        let skews: Vec<u64> = trace
            .items()
            .iter()
            .filter(|i| matches!(i.item, RenderItem::AudioBlock { .. }))
            .map(|a| {
                // Video frame nearest in presentation time (video is in
                // pres order in every trace the engine produces).
                let at = video.partition_point(|&(p, _)| p < a.pres_time);
                let candidates = [at.checked_sub(1), Some(at)];
                let (vp, vw) = candidates
                    .into_iter()
                    .flatten()
                    .filter_map(|i| video.get(i))
                    .min_by_key(|(p, _)| p.abs_diff(a.pres_time))
                    .copied()
                    .expect("video non-empty");
                // Difference between the A/V wall gap and the intended
                // presentation gap.
                let intended = vp.abs_diff(a.pres_time);
                let actual = vw.abs_diff(a.wall_time);
                actual.abs_diff(intended)
            })
            .collect();
        Self::from_skews(skews)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::renderer::{RenderItem, RenderedItem};

    #[test]
    fn stats_basic() {
        let s = SkewStats::from_skews(vec![0, 10, 20, 30, 100]);
        assert_eq!(s.count, 5);
        assert_eq!(s.max, 100);
        assert!((s.mean - 32.0).abs() < 1e-9);
        assert_eq!(s.p95, 100);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = SkewStats::from_skews(vec![]);
        assert_eq!(s.count, 0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn trace_skew_uses_anchor() {
        let mut t = RenderTrace::new();
        t.push(RenderedItem {
            wall_time: 1_010,
            pres_time: 0,
            item: RenderItem::VideoFrame { bytes: 1 },
        });
        t.push(RenderedItem {
            wall_time: 1_100,
            pres_time: 100,
            item: RenderItem::SlideChange { uri: "s".into() },
        });
        let s = SkewStats::of_trace(&t, 1_000);
        assert_eq!(s.max, 10);
        let slides = SkewStats::of_slides(&t, 1_000);
        assert_eq!(slides.count, 1);
        assert_eq!(slides.max, 0);
    }

    #[test]
    fn av_sync_zero_on_ideal_trace() {
        let mut t = RenderTrace::new();
        for i in 0..10u64 {
            t.push(RenderedItem {
                wall_time: i * 40,
                pres_time: i * 40,
                item: RenderItem::VideoFrame { bytes: 1 },
            });
        }
        for i in 0..4u64 {
            t.push(RenderedItem {
                wall_time: i * 100,
                pres_time: i * 100,
                item: RenderItem::AudioBlock { bytes: 1 },
            });
        }
        let s = SkewStats::av_sync(&t);
        assert_eq!(s.count, 4);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn av_sync_detects_drift() {
        let mut t = RenderTrace::new();
        for i in 0..10u64 {
            t.push(RenderedItem {
                wall_time: i * 40,
                pres_time: i * 40,
                item: RenderItem::VideoFrame { bytes: 1 },
            });
        }
        // Audio rendered 25 ticks late relative to its schedule.
        t.push(RenderedItem {
            wall_time: 200 + 25,
            pres_time: 200,
            item: RenderItem::AudioBlock { bytes: 1 },
        });
        let s = SkewStats::av_sync(&t);
        assert_eq!(s.max, 25);
    }

    #[test]
    fn av_sync_empty_without_video() {
        let mut t = RenderTrace::new();
        t.push(RenderedItem {
            wall_time: 0,
            pres_time: 0,
            item: RenderItem::AudioBlock { bytes: 1 },
        });
        assert_eq!(SkewStats::av_sync(&t).count, 0);
    }

    #[test]
    fn p95_is_percentile() {
        let skews: Vec<u64> = (1..=100).collect();
        let s = SkewStats::from_skews(skews);
        assert_eq!(s.p95, 95);
    }
}

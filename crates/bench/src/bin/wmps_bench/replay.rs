//! `publish_replay`: the paper's front half with no network at all. For
//! every content-tree level of a 20-minute lecture: summarize, publish,
//! mux to bytes, demux, load into the player and play to the end on the
//! 100 ms driver cadence. One such sweep over the levels is one unit;
//! each level's replay is one "session" (and one traced "step").

use std::time::Instant;

use lod_asf::{read_asf, write_asf};
use lod_core::{Abstractor, Wmps};
use lod_player::{PlayerEngine, RenderItem};

use crate::spans::{self, Span};
use crate::workloads::{Account, Input, Outcome, STEP, TICKS_PER_MS};

/// One sweep over every content-tree level.
pub fn run(input: &Input) -> Outcome {
    let abstractor = Abstractor::new();
    let wmps = Wmps::new();
    let tree = abstractor
        .tree_from_outline(&input.lecture.outline)
        .expect("synthetic outlines are well formed");

    let mut out = Outcome::default();
    let mut account = Account::default();
    let t = Instant::now();
    for level in 0..=tree.highest_level() {
        spans::step(|| {
            let summary = spans::timed(Span::CoreSummarize, || {
                abstractor.summarize(&input.lecture, level)
            });
            let file = spans::timed(Span::EncoderPublish, || {
                wmps.publish(&summary).expect("1400-byte packets publish")
            });
            let bytes = spans::timed(Span::AsfMux, || {
                write_asf(&file).expect("published files serialize")
            });
            let back = spans::timed(Span::AsfDemux, || {
                read_asf(&bytes).expect("written files parse")
            });
            // Byte-exact round trip: what was read writes the same bytes.
            let round_trip =
                spans::timed(Span::AsfMux, || write_asf(&back)).is_ok_and(|again| again == bytes);
            let payload: u64 = back.packets.iter().map(|p| p.media_bytes() as u64).sum();
            let engine = spans::timed(Span::PlayerLoad, || {
                PlayerEngine::load(back, None).expect("unprotected content loads")
            });

            // Local playback on the delivery drivers' cadence: the clock
            // advances a step, then the player renders what is due.
            let mut playback = engine.play(0);
            let mut now = 0u64;
            while !playback.is_finished(now) {
                now += STEP;
                spans::timed(Span::PlayerTick, || playback.tick(now));
            }

            let items = playback.trace().items();
            let ideal = engine.render_ideal().len();
            if !round_trip {
                out.failures
                    .push(format!("level {level}: ASF round trip is not byte-exact"));
            } else if items.len() != ideal {
                out.failures.push(format!(
                    "level {level}: rendered {} of {ideal} items",
                    items.len()
                ));
            }
            let anchor = items
                .iter()
                .map(|i| i.wall_time.saturating_sub(i.pres_time))
                .min()
                .unwrap_or(0);
            for item in items {
                let skew = item.wall_time.abs_diff(anchor + item.pres_time) as f64 / TICKS_PER_MS;
                out.skew_worst_ms = out.skew_worst_ms.max(skew);
                let is_media = matches!(
                    item.item,
                    RenderItem::VideoFrame { .. }
                        | RenderItem::AudioBlock { .. }
                        | RenderItem::Image { .. }
                );
                if !is_media {
                    account.script_skew_worst_ms = account.script_skew_worst_ms.max(skew);
                }
            }
            out.sessions += 1;
            out.startup_ms
                .push(items.first().map_or(now, |i| i.wall_time) as f64 / TICKS_PER_MS);
            out.playback_ticks += engine.duration();
            // The file is the whole "wire" of a local replay: the store
            // hands the player every byte of it, headers, padding and
            // index included.
            out.exact.origin_egress_bytes += bytes.len() as u64;
            out.payload_bytes += payload;
            out.exact.samples_rendered += engine.sample_count() as u64;
            out.exact.session_ticks += now;
            account.data_packets += file.packets.len() as u64;
            account.steps += now / STEP;
        });
    }
    out.wall_s = t.elapsed().as_secs_f64();
    account.wire_bytes = out.exact.origin_egress_bytes;
    out.account = Some(account);
    out
}

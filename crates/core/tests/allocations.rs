//! What a simnet session allocates in payload storage: nothing. Every
//! byte a student renders already sits in the published file's sample
//! buffers, so the relay cache, the fan-out and the client's reassembly
//! and playout buffer must all hold views of them. `bytes::stats` counts
//! backing allocations and deep copies process-wide, so this binary holds
//! exactly one `#[test]`: nothing else may run beside it.

use bytes::stats::{backing_allocations, bytes_deep_copied};
use lod_core::{synthetic_lecture, RelayTierConfig, Wmps, WmpsReport};
use lod_simnet::LinkSpec;

const STUDENTS: usize = 16;

/// Runs `serve` and returns its report with the backing allocations and
/// deep-copied bytes it caused.
fn counted(serve: impl FnOnce() -> WmpsReport) -> (WmpsReport, u64, u64) {
    let (allocs, copied) = (backing_allocations(), bytes_deep_copied());
    let report = serve();
    (
        report,
        backing_allocations() - allocs,
        bytes_deep_copied() - copied,
    )
}

#[test]
fn simnet_sessions_allocate_no_payload_backing() {
    let wmps = Wmps::new();
    let file = wmps
        .publish(&synthetic_lecture(7, 1, 300_000))
        .expect("publish");
    let relayed = RelayTierConfig {
        relays: 2,
        ..RelayTierConfig::default()
    };
    let runs = [
        (
            "serve_with_relays",
            counted(|| {
                wmps.serve_with_relays(
                    file.clone(),
                    LinkSpec::lan().with_bandwidth(10_000_000),
                    LinkSpec::lan(),
                    STUDENTS,
                    7,
                    &relayed,
                )
            }),
        ),
        (
            "serve_and_replay",
            counted(|| wmps.serve_and_replay(file.clone(), LinkSpec::lan(), STUDENTS, 7)),
        ),
    ];
    for (name, (report, allocs, copied)) in runs {
        assert_eq!(report.completed_sessions(), STUDENTS, "{name}");
        assert!(
            report.clients.iter().all(|c| c.samples_lost == 0),
            "{name}: {:?}",
            report.clients
        );
        assert_eq!(allocs, 0, "{name}: new payload backings");
        assert_eq!(copied, 0, "{name}: payload bytes deep-copied");
    }
}

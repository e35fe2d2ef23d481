//! What a session allocates. On simnet, in payload storage: nothing.
//! Every byte a student receives already sits in the published file's
//! sample buffers, so the relay cache and the fan-out hold views of them,
//! and a student's reassembly and playout buffer keep only extents. On
//! the heap: far less than one allocation per packet a student receives,
//! because a data packet is shared, not copied, on its way from the file
//! through the relay cache to every student. On sockets, decoding a
//! datagram copies its payload bytes once, and nothing on the student leg
//! copies them again. `bytes::stats` counts backing allocations and deep
//! copies process-wide, so this binary holds exactly one `#[test]`:
//! nothing else may run beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::stats::{backing_allocations, bytes_deep_copied};
use lod_core::{
    serve_loopback_udp, synthetic_lecture, RelayTierConfig, UdpConfig, Wmps, WmpsReport,
};
use lod_simnet::LinkSpec;

const STUDENTS: usize = 16;

thread_local! {
    // `const` initialiser and no destructor: safe to touch from inside
    // the allocator at any point of a thread's life.
    static HEAP_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the calling thread's allocations and
/// reallocations.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; the counter touches no
// allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_ALLOCS.set(HEAP_ALLOCS.get() + 1);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        HEAP_ALLOCS.set(HEAP_ALLOCS.get() + 1);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HEAP_ALLOCS.set(HEAP_ALLOCS.get() + 1);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What one run caused: new payload backings, deep-copied payload bytes
/// and heap allocations on this thread.
struct Counts {
    backings: u64,
    copied: u64,
    heap: u64,
}

/// Runs `serve` and returns its report with what it allocated.
fn counted(serve: impl FnOnce() -> WmpsReport) -> (WmpsReport, Counts) {
    let (backings, copied) = (backing_allocations(), bytes_deep_copied());
    let heap = HEAP_ALLOCS.get();
    let report = serve();
    let counts = Counts {
        heap: HEAP_ALLOCS.get() - heap,
        backings: backing_allocations() - backings,
        copied: bytes_deep_copied() - copied,
    };
    (report, counts)
}

#[test]
fn sessions_share_packets_and_copy_no_sample() {
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
    for (name, (report, counts)) in &runs {
        assert_eq!(report.completed_sessions(), STUDENTS, "{name}");
        assert!(
            report.clients.iter().all(|c| c.samples_lost == 0),
            "{name}: {:?}",
            report.clients
        );
        assert_eq!(counts.backings, 0, "{name}: new payload backings");
        assert_eq!(counts.copied, 0, "{name}: payload bytes deep-copied");
    }
    // Copying a packet per student per delivery costs at least one
    // allocation each (≈1.4 per packet delivered in all); sharing it
    // leaves ≈0.139 (4 177 for 30 032 packets), the per-step and
    // per-segment rest. Keying content by a `String` per session and
    // segment read ≈0.208.
    let delivered = (STUDENTS * file.packets.len()) as u64;
    let heap = runs[0].1 .1.heap;
    assert!(
        heap * 100 <= delivered * 14,
        "serve_with_relays: {heap} heap allocations for {delivered} packets delivered"
    );

    // On sockets each datagram is decoded into a backing of its own, so
    // the fragments of a split sample never join into one view: a student
    // that joined them by copy would copy about what the students
    // received again (318 MB copied against 183 MB sent on the
    // benchmark's udp_clean). Keeping extents, the decode is the only copy.
    let (report, counts) = counted(|| {
        serve_loopback_udp(
            file.clone(),
            STUDENTS,
            7,
            &relayed,
            UdpConfig::loopback(),
            None,
        )
        .expect("loopback run")
    });
    assert_eq!(report.completed_sessions(), STUDENTS, "{report:?}");
    let carried = report.socket.expect("a socket run").transport.bytes_sent;
    assert!(
        counts.copied <= carried,
        "serve_loopback_udp: {} payload bytes deep-copied, {carried} bytes sent",
        counts.copied
    );
}

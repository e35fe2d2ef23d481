//! What the container path allocates. `bytes::stats` counts backing
//! allocations process-wide and the allocator below watches this
//! thread's largest request, so this binary holds exactly one `#[test]`:
//! nothing else may run beside it.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::stats::backing_allocations;
use common::{arb_file, make_file};
use lod_asf::{read_asf, write_asf, AsfError, License, ScriptCommandList};
use proptest::prelude::*;

thread_local! {
    // `const` initialiser and no destructor: safe to touch from inside
    // the allocator, at any point of a thread's life.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, remembering each thread's largest request.
struct Watching;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; the note taken is a side
// effect that touches no allocation.
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.set(LARGEST.get().max(layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.set(LARGEST.get().max(new_size));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Watching = Watching;

/// A count field is a claim, not a size: a short file saying it holds
/// 2³² packets (or index entries) is refused at the first missing byte
/// having reserved nothing beyond its own length.
fn hostile_counts_reserve_nothing() {
    let mut f = make_file(&[], ScriptCommandList::new(), 128);
    f.index = Some(Default::default());
    let image = write_asf(&f).unwrap();
    let header_len = u64::from_le_bytes(image[16..24].try_into().unwrap()) as usize;
    for at in [header_len + 24, image.len() - 4] {
        let mut hostile = image.clone();
        hostile[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        LARGEST.set(0);
        let got = read_asf(&hostile);
        let largest = LARGEST.get();
        assert!(
            matches!(got, Err(AsfError::UnexpectedEof { .. })),
            "{got:?}"
        );
        assert!(
            largest <= hostile.len(),
            "a {}-byte file made read_asf ask for {largest} bytes at once",
            hostile.len()
        );
    }
}

proptest! {
    /// One backing allocation per file read, and one per protect or
    /// unprotect pass, whatever the payload count: every payload of the
    /// result views that one buffer.
    fn one_backing_per_pass(f in arb_file(), key in any::<u64>()) {
        let bytes = write_asf(&f).unwrap();
        let before = backing_allocations();
        let back = read_asf(&bytes).unwrap();
        prop_assert_eq!(backing_allocations() - before, 1);
        prop_assert_eq!(&back, &f);
        let mut views = back.packets.iter().flat_map(|p| p.payloads.iter());
        if let Some(first) = views.next() {
            prop_assert_eq!(first.data.backing_len(), bytes.len());
            prop_assert!(views.all(|p| p.data.backing_id() == first.data.backing_id()));
        }

        let mut plain = f;
        plain.drm = None;
        let license = License::new("course", key);
        let mut g = plain.clone();
        let before = backing_allocations();
        g.protect(&license);
        prop_assert_eq!(backing_allocations() - before, 1);
        let mut views = g.packets.iter().flat_map(|p| p.payloads.iter());
        if let Some(first) = views.next() {
            prop_assert!(views.all(|p| p.data.backing_id() == first.data.backing_id()));
        }
        let before = backing_allocations();
        g.unprotect(&license).unwrap();
        prop_assert_eq!(backing_allocations() - before, 1);
        prop_assert_eq!(g, plain);
    }
}

#[test]
fn container_allocations() {
    hostile_counts_reserve_nothing();
    one_backing_per_pass();
}

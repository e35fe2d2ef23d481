//! A counting allocator: how many heap allocations, and how many bytes,
//! the code under test asks for. Counting is off (one thread-local flag
//! test per allocation) except during a traced run, so the timed
//! end-to-end reps pay nothing measurable for it.
//!
//! The counters are per thread: the benchmark generates load from one
//! thread, and a thread's count is then exactly what that thread asked
//! for, with no atomics on the allocation path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialisers and no destructors: safe to touch from inside
    // the allocator, at any point of a thread's life.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator with two counters in front of it.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; the counters are side effects
// that touch no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn count(bytes: usize) {
    if COUNTING.get() {
        ALLOCS.set(ALLOCS.get() + 1);
        BYTES.set(BYTES.get() + bytes as u64);
    }
}

/// Turns counting on or off for the calling thread.
pub fn set_counting(on: bool) {
    COUNTING.set(on);
}

/// `(allocations, bytes requested)` the calling thread has counted.
pub fn snapshot() -> (u64, u64) {
    (ALLOCS.get(), BYTES.get())
}

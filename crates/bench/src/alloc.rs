//! The counting allocator behind `repro scale`'s memory-per-entity
//! column and the attach path's allocation budget
//! (`tests/alloc_budget.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator tracking live heap bytes and
/// allocation calls. The `repro` binary installs it as its
/// `#[global_allocator]`, and so does the one test binary that budgets
/// allocations; libraries and other tests never do, so [`live_bytes`]
/// reads 0 there and the scale report says `alloc_counting: false`.
pub struct CountingAlloc;

// SAFETY: delegates verbatim to `System`; the counter updates have no
// effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        let (old, new) = (layout.size() as u64, new_size as u64);
        if new >= old {
            LIVE_BYTES.fetch_add(new - old, Ordering::Relaxed);
        } else {
            LIVE_BYTES.fetch_sub(old - new, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap bytes currently live (allocated minus freed). The scale suite's
/// memory-per-entity column is the *difference* between two quiescent
/// readings, so the binary's own baseline cancels out.
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Allocator calls (`alloc` + `realloc`) so far. A count, so it repeats
/// exactly where the work does.
pub fn calls() -> u64 {
    CALLS.load(Ordering::Relaxed)
}

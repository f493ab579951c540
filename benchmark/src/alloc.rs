//! The benchmark's counting `#[global_allocator]`.
//!
//! Allocator calls and bytes are *counts*: at one worker they repeat
//! run to run, so `allocs_per_op` resolves changes far below what any
//! host-time metric can on a noisy sandbox. The counters cost a few
//! relaxed atomic adds per call; they are always on, for traced and
//! untraced runs and for parent and change alike.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

// Statistics only: nothing is published through these, so `Relaxed`.
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Delegates to the system allocator and counts.
pub struct Counting;

fn grew(by: u64) {
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(by, Relaxed);
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch
// the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            grew(new_size as u64);
        }
        p
    }
}

/// The counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    /// `alloc` + `alloc_zeroed` + `realloc` calls so far.
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Bytes live now.
    pub live: u64,
    /// Highest `live` since the last [`reset_peak`].
    pub peak: u64,
}

/// Reads the counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        live: LIVE.load(Relaxed),
        peak: PEAK.load(Relaxed),
    }
}

/// Restarts peak tracking from the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Bytes as MiB.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Far larger than anything the other tests (which run concurrently
    /// on their own threads and share these counters) hold at once.
    const BIG: u64 = 256 << 20;

    // One test, not several: the counters are process-wide, and two
    // tests each holding BIG would see each other.
    #[test]
    fn counts_calls_bytes_live_and_peak() {
        let before = snapshot();
        let mut v: Vec<u8> = Vec::with_capacity(BIG as usize);
        let held = snapshot();
        assert!(held.calls > before.calls);
        assert!(held.bytes - before.bytes >= BIG);
        assert!(held.live >= BIG && held.peak >= BIG);

        v.reserve_exact(2 * BIG as usize);
        let grown = snapshot();
        assert!(grown.calls > held.calls, "realloc is a call");
        assert!(
            grown.live >= 2 * BIG && grown.live < 3 * BIG,
            "realloc releases the old size and holds the new"
        );

        drop(v);
        let freed = snapshot();
        assert!(freed.live < BIG, "the free is counted");
        assert!(freed.peak >= 2 * BIG, "the peak survives the free");
        reset_peak();
        assert!(
            snapshot().peak < BIG,
            "reset restarts the peak from what is live"
        );
    }
}

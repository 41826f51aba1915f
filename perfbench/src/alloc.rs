//! Counting global allocator: live heap bytes and their high-water mark.
//!
//! Feeds `peak_heap_bytes` (end to end) and `core.session_bytes` (per
//! layer). The counters are statistics only and publish no other data, so
//! every atomic uses `Relaxed`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

struct CountingAlloc;

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grew(delta: i64) {
    let now = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the only addition is
// atomic bookkeeping, which neither allocates nor touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // Forwarded rather than left to the default (alloc + memset) so that
    // zeroed vectors keep `calloc`'s lazily-zeroed pages, as in the
    // program's own binaries.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Bytes currently allocated and not yet freed.
pub fn live_bytes() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// High-water mark of [`live_bytes`] since the last [`reset_peak`].
pub fn peak_bytes() -> i64 {
    PEAK.load(Ordering::Relaxed)
}

/// Restarts the high-water mark from the current live bytes.
pub fn reset_peak() {
    PEAK.store(live_bytes(), Ordering::Relaxed);
}

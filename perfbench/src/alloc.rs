//! Process-wide allocation counting for the traced run.
//!
//! The repository's `bench_baseline` counter is thread-local, so work
//! done on engine shard threads is invisible to it. This allocator
//! keeps a process-wide atomic count and a live-byte high-water mark,
//! plus a const-initialised per-thread count that the protocol
//! decorator reads around each call. Counting is off until
//! [`enable`] so the timed (untraced) runs pay one relaxed load per
//! allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    // const-initialised, no destructor: touching it inside the
    // allocator cannot allocate or recurse
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocations and reallocations (the same events
/// `bench_baseline` counts) on top of the system allocator.
pub struct CountingAlloc;

#[inline]
fn count(grow: i64) {
    if ENABLED.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        let live = LIVE.fetch_add(grow, Relaxed) + grow;
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments; the bookkeeping touches only atomics and a
// const-initialised thread-local, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: forwarded unchanged; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Start counting. Live bytes restart at zero, so the high-water mark
/// read by [`peak_bytes`] is heap growth since this call.
pub fn enable() {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ENABLED.store(true, Relaxed);
}

/// Stop counting.
pub fn disable() {
    ENABLED.store(false, Relaxed);
}

/// Allocations counted process-wide since the program started.
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Allocations counted on the calling thread.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// High-water mark of live heap bytes since [`enable`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed).max(0) as u64
}

//! A counting global allocator (std only).
//!
//! Wraps [`System`] and keeps three counters: bytes currently live, the
//! live-bytes high-water mark, and bytes ever allocated — process-wide and
//! per thread. The benchmark reads them for `peak_heap_mb`,
//! `alloc.bytes_per_query` and `alloc.bytes_per_event`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The allocator registered by `main.rs`.
pub struct Counting;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static TOTAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_TOTAL: Cell<u64> = const { Cell::new(0) };
}

fn on_alloc(size: usize) {
    let size = size as u64;
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
    TOTAL.fetch_add(size, Ordering::Relaxed);
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = THREAD_TOTAL.try_with(|t| t.set(t.get() + size));
}

fn on_dealloc(size: usize) {
    LIVE.fetch_sub(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's guarantees are exactly the ones `System` needs, and returns
// `System`'s result. The bookkeeping touches only atomics and a
// `const`-initialized thread-local `Cell` without a destructor, neither of
// which allocates, so the allocator never re-enters itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // A realloc is a free of the old block plus an allocation of
            // the new one.
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Bytes allocated so far by the whole process.
pub fn total_bytes() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Bytes allocated so far by the calling thread.
pub fn thread_bytes() -> u64 {
    THREAD_TOTAL.with(Cell::get)
}

/// Restarts the high-water mark at the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Highest live-bytes value since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// [`peak_bytes`] in MiB.
pub fn peak_mb() -> f64 {
    peak_bytes() as f64 / (1u64 << 20) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations() {
        let before = thread_bytes();
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        let after = thread_bytes();
        assert!(after - before >= 1 << 20, "{before} -> {after}");
        drop(v);
        assert!(total_bytes() >= after - before);
    }

    #[test]
    fn peak_tracks_the_high_water_mark() {
        let v: Vec<u64> = vec![7; 1 << 18];
        assert!(peak_bytes() >= (v.len() * 8) as u64);
        drop(v);
        reset_peak();
        let live = LIVE.load(Ordering::Relaxed);
        // Other test threads may allocate concurrently, so only the lower
        // bound is exact.
        let w: Vec<u64> = vec![1; 1 << 19];
        assert!(peak_bytes() >= (w.len() * 8) as u64);
        assert!(peak_bytes() + (1 << 30) > live);
    }

    #[test]
    fn realloc_counts_the_new_block() {
        let mut v: Vec<u8> = Vec::with_capacity(16);
        let before = thread_bytes();
        v.reserve_exact(1 << 16);
        assert!(thread_bytes() - before >= 1 << 16);
    }
}

//! A counting global allocator.
//!
//! The paper's Fig. 8/9 report peak memory per analysis stage. This
//! wrapper around the system allocator tracks live and peak heap bytes;
//! the harness resets the peak between stages to attribute memory to each.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);
static TOUCHED: AtomicBool = AtomicBool::new(false);

/// Counting allocator; install with `#[global_allocator]`.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

impl CountingAlloc {
    /// Currently live heap bytes.
    pub fn live() -> usize {
        LIVE.load(Ordering::Relaxed)
    }

    /// Peak live bytes since the last [`CountingAlloc::reset_peak`].
    pub fn peak() -> usize {
        PEAK.load(Ordering::Relaxed)
    }

    /// Allocation calls (`alloc` and `realloc`) serviced so far.
    pub fn calls() -> usize {
        CALLS.load(Ordering::Relaxed)
    }

    /// Bytes those calls asked for (a `realloc` counts its new size).
    pub fn bytes() -> usize {
        BYTES.load(Ordering::Relaxed)
    }

    /// Resets the peak to the current live size.
    pub fn reset_peak() {
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Whether this allocator has ever serviced an allocation — i.e.
    /// whether it is actually installed as the global allocator. When
    /// false, `live`/`peak` are meaningless zeros and measurements must
    /// not report them as real numbers.
    pub fn installed() -> bool {
        TOUCHED.load(Ordering::Relaxed)
    }
}

// SAFETY: delegates all allocation to `System`, only adding counters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            TOUCHED.store(true, Ordering::Relaxed);
            CALLS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size(), Ordering::Relaxed);
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            CALLS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size, Ordering::Relaxed);
            if new_size >= layout.size() {
                let live = LIVE.fetch_add(new_size - layout.size(), Ordering::Relaxed) + new_size
                    - layout.size();
                PEAK.fetch_max(live, Ordering::Relaxed);
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The allocator is not installed in unit tests; exercise the counter
    // arithmetic directly.
    #[test]
    fn peak_tracks_maximum() {
        CountingAlloc::reset_peak();
        let before = CountingAlloc::peak();
        LIVE.fetch_add(100, Ordering::Relaxed);
        PEAK.fetch_max(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
        assert!(CountingAlloc::peak() >= before);
        LIVE.fetch_sub(100, Ordering::Relaxed);
    }
}

//! Allocation and transient-memory guard for the front end — counts, not
//! clocks. Its own test binary because it installs a counting global
//! allocator; one `#[test]` because the counters are process-wide.
//!
//! What it pins: compiling costs a bounded number of allocations per IR
//! instruction produced, and the heap never holds much more than the
//! module being returned — the front end keeps one function's syntax
//! tree alive at a time, not the file's tokens or the program's tree —
//! at any input size.

use pinpoint_workload::gen::{generate, GenConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(by: usize) {
    ALLOCATIONS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every request is passed to `System` unchanged; the counters
// beside it never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What compiling a generated project of `kloc` thousand lines costs.
struct Cost {
    /// Allocator calls per IR instruction of the module.
    allocations_per_inst: f64,
    /// Peak live heap while compiling over the live heap of the returned
    /// module, both counted from the state before the call.
    peak_over_module: f64,
}

fn cost(kloc: f64) -> Cost {
    let project = generate(&GenConfig {
        seed: 1,
        ..GenConfig::default().with_target_kloc(kloc)
    });
    let (allocations, live) = (ALLOCATIONS.load(Relaxed), LIVE.load(Relaxed));
    PEAK.store(live, Relaxed);
    let module = pinpoint_ir::compile(&project.source).expect("generated projects compile");
    let allocations = ALLOCATIONS.load(Relaxed) - allocations;
    let module_bytes = LIVE.load(Relaxed) - live;
    let peak_bytes = PEAK.load(Relaxed) - live;
    Cost {
        allocations_per_inst: allocations as f64 / module.inst_count() as f64,
        peak_over_module: peak_bytes as f64 / module_bytes as f64,
    }
}

#[test]
fn allocations_and_transient_memory_stay_bounded() {
    let at_20 = cost(20.0);
    assert!(
        at_20.allocations_per_inst <= 4.5,
        "{:.2} allocations per instruction",
        at_20.allocations_per_inst
    );
    // Transient memory is O(largest function + item table), not O(file):
    // at every size the heap never holds much more than the module being
    // built, and relative to the module the excess does not grow with
    // the input.
    let (at_5, at_50) = (cost(5.0), cost(50.0));
    for (kloc, at) in [(5, &at_5), (20, &at_20), (50, &at_50)] {
        assert!(
            at.peak_over_module <= 1.25,
            "{kloc} KLoC: peak heap is {:.2} × the module",
            at.peak_over_module
        );
    }
    assert!(
        at_50.peak_over_module <= at_5.peak_over_module + 0.05,
        "peak over module: {:.3} at 5 KLoC, {:.3} at 50 KLoC",
        at_5.peak_over_module,
        at_50.peak_over_module
    );
    eprintln!(
        "allocations/inst {:.2}; peak/module {:.3} (5 KLoC) {:.3} (20) {:.3} (50)",
        at_20.allocations_per_inst,
        at_5.peak_over_module,
        at_20.peak_over_module,
        at_50.peak_over_module
    );
}

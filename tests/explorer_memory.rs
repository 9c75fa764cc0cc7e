//! Pins the litmus explorer's peak heap on the two corpus programs that
//! use up a 50,000-state certification budget, Matrix and Canneal.
//!
//! Explored states share their global image pages copy-on-write, so a
//! visited state costs its page table, its threads and the pages it
//! wrote, not a copy of the whole image. A counting global allocator
//! tracks live and peak bytes; the file holds a single test, so nothing
//! else allocates while a certification runs. Certification is
//! single-threaded and the visited set's hasher is fixed, so the numbers
//! are deterministic.

use corpus::Params;
use fenceplace::{certify, run_pipeline, CertifyOptions, PipelineConfig, TargetModel, Variant};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Bytes allocated now.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most bytes allocated at once since the test last reset it.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live and peak bytes.
struct Counting;

/// Counts `bytes` more of live heap and raises the peak to match.
fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its caller's arguments unchanged to the
// system allocator and returns its result, so `System`'s contract is the
// caller's; the counters are plain atomics and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
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
static ALLOC: Counting = Counting;

/// Peak live heap a certification may add, in bytes. Copying the image
/// into every state took 181–223 MB here; shared pages take 36–74 MB.
const PEAK_LIMIT: usize = 100 << 20;

#[test]
fn budget_exhausting_certifications_stay_under_the_heap_pin() {
    let opts = CertifyOptions {
        max_states: 50_000,
        ..Default::default()
    };
    let entries =
        corpus::resolve_specs(&["corpus:Matrix", "corpus:Canneal"], &Params::default()).unwrap();
    assert_eq!(entries.len(), 2);
    for entry in &entries {
        for (target, tname) in [(TargetModel::X86Tso, "x86tso"), (TargetModel::Weak, "weak")] {
            let placed = run_pipeline(
                &entry.module,
                &PipelineConfig {
                    variant: Variant::Control,
                    target,
                    parallel: false,
                },
            );
            let before = LIVE.load(Relaxed);
            PEAK.store(before, Relaxed);
            let report = certify(&placed, Variant::Control, target, &opts);
            let peak = PEAK.load(Relaxed) - before;
            let label = format!("{} Control:{tname}", entry.name);
            assert_eq!(report.status().name(), "inconclusive", "{label}");
            assert_eq!(report.states, 50_000, "{label}");
            assert!(
                peak < PEAK_LIMIT,
                "{label}: certification peaked at {:.1} MB of live heap, over the {} MB pin",
                peak as f64 / (1 << 20) as f64,
                PEAK_LIMIT >> 20
            );
        }
    }
}

//! A counting global allocator for the heap pins (`explorer_memory.rs`,
//! `pointsto_memory.rs`, `service_memory.rs`).
//!
//! A test file that declares `mod common;` runs on the system allocator,
//! wrapped to track the bytes allocated now ([`LIVE`]) and the most
//! allocated at once ([`PEAK`]). The counts are process-wide, so each of
//! those files holds a single test: nothing else allocates while it
//! measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Bytes allocated now.
pub static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most bytes allocated at once since a test last reset it (by
/// storing the current [`LIVE`] into it).
pub static PEAK: AtomicUsize = AtomicUsize::new(0);

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

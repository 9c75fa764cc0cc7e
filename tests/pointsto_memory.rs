//! Pins the points-to solver's heap at `synthetic:16000`.
//!
//! The solver allocates a value node's set row only when the first
//! location reaches it, and keeps no per-node delta rows: at this size
//! 1,424 of 42,268 nodes ever get a row. A dense set row and a dense
//! pending-delta row per node read 8.00 MB of added peak heap and
//! 3.05 MB held by the result; the on-demand rows read 1.84 MB and
//! 0.31 MB.
//!
//! The counting global allocator in `common/` tracks live and peak
//! bytes; the file holds a single test, so nothing else allocates while
//! it measures. The module is built before the measurement starts, and
//! the solve is single-threaded and deterministic.

use fence_analysis::pointsto::PointsTo;
use fence_ir::Value;
use std::sync::atomic::Ordering::Relaxed;

mod common;
use common::{LIVE, PEAK};

/// Peak live heap the solve may add, in bytes.
const PEAK_LIMIT: usize = 6_000_000;
/// Live heap the returned `PointsTo` may hold, in bytes.
const HELD_LIMIT: usize = 2_000_000;

#[test]
fn points_to_rows_stay_under_the_heap_pin() {
    let module = corpus::synthetic_scaled(16000);
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let pt = PointsTo::analyze(&module);
    let peak = PEAK.load(Relaxed) - before;
    let held = LIVE.load(Relaxed) - before;
    let mb = |b: usize| b as f64 / 1e6;
    // The solve did its work: some instruction result points somewhere.
    let points = module.iter_funcs().any(|(fid, func)| {
        func.iter_insts()
            .any(|(iid, _)| !pt.value_set(fid, Value::Inst(iid)).is_empty())
    });
    assert!(points, "no instruction result points anywhere");
    assert!(
        peak < PEAK_LIMIT,
        "the solve peaked at {:.2} MB of added live heap, over the {:.0} MB pin",
        mb(peak),
        mb(PEAK_LIMIT)
    );
    assert!(
        held < HELD_LIMIT,
        "the result holds {:.2} MB of live heap, over the {:.0} MB pin",
        mb(held),
        mb(HELD_LIMIT)
    );
}

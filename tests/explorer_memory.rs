//! Pins the litmus explorer's peak heap on the two corpus programs that
//! use up a 50,000-state certification budget, Matrix and Canneal.
//!
//! Explored states share their threads, store buffers, page table and
//! image pages copy-on-write, so a visited state costs the thread that
//! moved into it and what that move wrote, not a copy of the whole
//! state. The counting global allocator in `common/` tracks live and
//! peak bytes; the file holds a single test, so nothing else allocates
//! while a certification runs. Certification is single-threaded and the
//! visited set's hasher is fixed, so the numbers are deterministic.

use corpus::Params;
use fenceplace::{certify, run_pipeline, CertifyOptions, PipelineConfig, TargetModel, Variant};
use std::sync::atomic::Ordering::Relaxed;

mod common;
use common::{LIVE, PEAK};

/// Peak live heap a certification may add, in bytes. Copying the image
/// into every state took 181–223 MB here. Sharing only the pages took
/// 73.5 and 35.8 MB (Matrix under TSO and weak) and 38.7 MB (Canneal,
/// both); sharing threads, store buffers and the page table as well
/// takes 18.1 MB (Matrix) and 21.2 MB (Canneal).
const PEAK_LIMIT: usize = 32 << 20;

#[test]
fn budget_exhausting_certifications_stay_under_the_heap_pin() {
    let opts = CertifyOptions { max_states: 50_000 };
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

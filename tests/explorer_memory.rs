//! Pins the peak heap of certification: the litmus explorer on the two
//! corpus programs that use up a 50,000-state budget, Matrix and
//! Canneal, and the race gate's simulator run on two litmus modules.
//!
//! Explored states share their threads, store buffers, page table and
//! image pages copy-on-write, so a visited state costs the thread that
//! moved into it and what that move wrote, not a copy of the whole
//! state. The race gate's simulator builds its memory on demand, so a
//! group that allocates nothing never holds its 2^21-word heap. The
//! counting global allocator in `common/` tracks live and peak bytes;
//! the file holds a single test, so nothing else allocates while a
//! certification runs. Certification is single-threaded and the
//! explorer's hasher is fixed, so the numbers are deterministic.

use corpus::arbitrary::{build_sync, SyncIdiom, SyncShape};
use corpus::Params;
use fence_ir::Module;
use fenceplace::{
    certify, run_pipeline, CertifyOptions, CertifyReport, PipelineConfig, TargetModel, Variant,
};
use std::sync::atomic::Ordering::Relaxed;

mod common;
use common::{LIVE, PEAK};

/// Peak live heap a budget-exhausting certification may add, in bytes.
/// Copying the image into every state took 181–223 MB here. Sharing
/// only the pages took 73.5 and 35.8 MB (Matrix under TSO and weak) and
/// 38.7 MB (Canneal, both); sharing threads, store buffers and the page
/// table as well took 18.1 MB (Matrix) and 21.2 MB (Canneal) with every
/// state behind its own `Rc`, and takes 18.5 and 19.6 MB with a pass's
/// states in one vector.
const PEAK_LIMIT: usize = 32 << 20;

/// Peak live heap a litmus certification may add, in bytes. A zeroed
/// 2^21-word simulator heap for the race gate made it 16.00 MB; memory
/// built on demand makes it 0.02–0.06 MB.
const LITMUS_PEAK_LIMIT: usize = 1 << 20;

const TARGETS: [(TargetModel, &str); 2] =
    [(TargetModel::X86Tso, "x86tso"), (TargetModel::Weak, "weak")];

/// Places `module` under `Control:target`, certifies it with `opts`,
/// and returns the report with the peak live heap the certification
/// added.
fn certify_measured(
    module: &Module,
    target: TargetModel,
    opts: &CertifyOptions,
) -> (CertifyReport, usize) {
    let placed = run_pipeline(
        module,
        &PipelineConfig {
            variant: Variant::Control,
            target,
            parallel: false,
        },
    );
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let report = certify(&placed, Variant::Control, target, opts);
    (report, PEAK.load(Relaxed) - before)
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

#[test]
fn budget_exhausting_certifications_stay_under_the_heap_pin() {
    let opts = CertifyOptions { max_states: 50_000 };
    let entries =
        corpus::resolve_specs(&["corpus:Matrix", "corpus:Canneal"], &Params::default()).unwrap();
    assert_eq!(entries.len(), 2);
    for entry in &entries {
        for (target, tname) in TARGETS {
            let (report, peak) = certify_measured(&entry.module, target, &opts);
            let label = format!("{} Control:{tname}", entry.name);
            assert_eq!(report.status().name(), "inconclusive", "{label}");
            assert_eq!(report.states, 50_000, "{label}");
            assert!(
                peak < PEAK_LIMIT,
                "{label}: certification peaked at {:.1} MB of live heap, over the {} MB pin",
                mb(peak),
                PEAK_LIMIT >> 20
            );
        }
    }

    // The race gate runs each group once on the timing simulator; these
    // groups never allocate, so they must not pay for its heap.
    for idiom in [SyncIdiom::MessagePassing, SyncIdiom::StoreBuffering] {
        let module = build_sync(&SyncShape {
            idiom,
            n_data: 1,
            consts: vec![7],
            pad_ops: 0,
        });
        for (target, tname) in TARGETS {
            let (report, peak) = certify_measured(&module, target, &CertifyOptions::default());
            let label = format!("{idiom:?} Control:{tname}");
            assert!(report.states > 0, "{label}: {}", report.status().name());
            assert!(
                peak < LITMUS_PEAK_LIMIT,
                "{label}: certification peaked at {:.2} MB of live heap, over the 1 MB pin",
                mb(peak)
            );
        }
    }
}

//! Ablations over the pipeline's design choices (DESIGN.md §4):
//!
//! 1. **Target memory model** — the paper targets x86-TSO ("our technique
//!    is generally applicable"); this sweeps SC-hardware / x86-TSO / Weak
//!    and reports the full fences each placement needs.
//! 2. **Entry-fence rule** — the paper's modification to Fang et al.
//!    (entry fence only in functions with sync reads) vs. the unmodified
//!    always-place rule, measured as extra static fences.
//!
//! ```text
//! cargo run --release -p fence_bench --bin ablation
//! ```

use corpus::Params;
use fenceplace::minimize::TargetModel;
use fenceplace::{run_pipeline, PipelineConfig, Variant};

fn main() {
    let p = Params::default();
    let programs = corpus::programs(&p);

    println!("Ablation 1 — full fences per hardware target (Control variant)");
    println!(
        "{:<16} {:>10} {:>10} {:>10}",
        "Program", "SC-hw", "x86-TSO", "Weak"
    );
    for prog in &programs {
        let counts: Vec<usize> = [
            TargetModel::ScHardware,
            TargetModel::X86Tso,
            TargetModel::Weak,
        ]
        .into_iter()
        .map(|target| {
            run_pipeline(
                &prog.module,
                &PipelineConfig {
                    variant: Variant::Control,
                    target,
                    parallel: false,
                },
            )
            .report
            .full_fences()
        })
        .collect();
        println!(
            "{:<16} {:>10} {:>10} {:>10}",
            prog.name, counts[0], counts[1], counts[2]
        );
    }
    println!();
    println!("SC hardware needs no runtime fences (directives only); weaker");
    println!("models need strictly more — the placement adapts per target.");
    println!();

    println!("Ablation 2 — the entry-fence modification (x86-TSO, Control)");
    println!(
        "{:<16} {:>12} {:>14} {:>8}",
        "Program", "modified", "always-place", "saved"
    );
    for prog in &programs {
        let placed = run_pipeline(&prog.module, &PipelineConfig::for_variant(Variant::Control));
        let modified = placed.report.full_fences();
        // The unmodified Fang et al. rule places an entry fence in *every*
        // function; the delta is one fence per sync-read-free function.
        let funcs = prog.module.funcs.len();
        let with_entry = placed
            .report
            .funcs
            .iter()
            .filter(|f| f.acquires > 0)
            .count();
        let always = modified + (funcs - with_entry);
        println!(
            "{:<16} {:>12} {:>14} {:>8}",
            prog.name,
            modified,
            always,
            always - modified
        );
    }
}

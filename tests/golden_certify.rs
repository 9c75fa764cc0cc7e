//! Goldens for `memsim`'s two execution paths: the bounded model checker
//! behind `--certify` and the Figure 10 timing simulator.
//!
//! * `tests/golden/certify.txt` records, for every Table II kernel, every
//!   corpus program (the CLI's `kernel:*` and `corpus:*`) and an 18-shape
//!   sync grid ([`sync_grid`]), placed and certified under
//!   `Control:x86tso` and `Control:weak` at a 4,000-state budget: the
//!   verdict, the group and fence tallies, the skipped count and the
//!   exact number of distinct states explored.
//! * `tests/golden/sim.txt` records, for every tiny-scale corpus program
//!   under every placement variant, the simulator's cycles,
//!   instructions, dynamic full fences, atomic operations and return
//!   values — the numbers Figure 10 prints only as ratios.
//!
//! Regenerate (only legitimate when intentionally changing semantics):
//! `GOLDEN_REGEN=1 cargo test --test golden_certify`.

use corpus::arbitrary::{build_sync, sync_grid, SyncIdiom};
use corpus::Params;
use fence_bench::simulate_variant;
use fence_ir::Module;
use fenceplace::{certify, run_pipeline, CertifyOptions, PipelineConfig, TargetModel, Variant};
use std::fmt::Write as _;

/// Compares `snapshot` with the golden file at `path` line by line, or
/// rewrites the file under `GOLDEN_REGEN`.
fn check_golden(path: &str, snapshot: &str) {
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::create_dir_all("tests/golden").unwrap();
        std::fs::write(path, snapshot).unwrap();
        eprintln!("regenerated {path} ({} lines)", snapshot.lines().count());
        return;
    }
    let golden = std::fs::read_to_string(path).unwrap_or_else(|_| {
        panic!("{path} missing — run GOLDEN_REGEN=1 cargo test --test golden_certify")
    });
    for (i, (g, s)) in golden.lines().zip(snapshot.lines()).enumerate() {
        assert_eq!(g, s, "{path}: first divergence at line {}", i + 1);
    }
    assert_eq!(
        golden.lines().count(),
        snapshot.lines().count(),
        "{path}: line count changed"
    );
}

fn certify_lines(label: &str, module: &Module, out: &mut String) {
    let opts = CertifyOptions { max_states: 4_000 };
    for (target, tname) in [(TargetModel::X86Tso, "x86tso"), (TargetModel::Weak, "weak")] {
        let placed = run_pipeline(
            module,
            &PipelineConfig {
                variant: Variant::Control,
                target,
                parallel: false,
            },
        );
        let r = certify(&placed, Variant::Control, target, &opts);
        writeln!(
            out,
            "{label}|Control:{tname}|status={}|groups={}|race_free={}|fences={}|necessary={}|entry={}|skipped={}|states={}",
            r.status().name(),
            r.groups.len(),
            r.groups.iter().filter(|g| g.race_free).count(),
            r.fences.len(),
            r.fences.iter().filter(|f| f.necessary).count(),
            r.fences.iter().filter(|f| f.entry).count(),
            r.skipped.len(),
            r.states
        )
        .unwrap();
    }
}

#[test]
fn certification_matches_golden() {
    let mut out = String::new();
    for entry in corpus::resolve_specs(&["kernel:*", "corpus:*"], &Params::default()).unwrap() {
        certify_lines(&entry.name, &entry.module, &mut out);
    }
    for shape in sync_grid() {
        let idiom = match shape.idiom {
            SyncIdiom::MessagePassing => "mp",
            SyncIdiom::StoreBuffering => "sb",
        };
        let label = format!("sync:{idiom}/n{}/pad{}", shape.n_data, shape.pad_ops);
        certify_lines(&label, &build_sync(&shape), &mut out);
    }
    check_golden("tests/golden/certify.txt", &out);
}

#[test]
fn simulator_costs_match_golden() {
    let mut out = String::new();
    for prog in corpus::programs(&Params::tiny()) {
        for variant in [
            Variant::Manual,
            Variant::Pensieve,
            Variant::AddressControl,
            Variant::Control,
        ] {
            let r = simulate_variant(&prog, variant);
            writeln!(
                out,
                "{}|{}|cycles={}|insts={}|full_fences={}|atomic_ops={}|retvals={:?}",
                prog.name,
                variant.name(),
                r.cycles,
                r.insts,
                r.full_fences,
                r.atomic_ops,
                r.retvals
            )
            .unwrap();
        }
    }
    check_golden("tests/golden/sim.txt", &out);
}

//! Integration: the whole corpus through the whole pipeline — analysis
//! monotonicity, instrumented execution correctness, and race-freedom of
//! the detected classification.

use corpus::{Params, Program};
use fence_analysis::ModuleAnalysis;
use fenceplace::acquire::{detect_acquires, DetectMode};
use fenceplace::{run_pipeline, PipelineConfig, Variant};
use memsim::{detect_races, MemMode, SimConfig, Simulator, SyncClassification};

#[test]
fn every_program_runs_correctly_under_every_placement() {
    let p = Params::tiny();
    for prog in corpus::programs(&p) {
        for variant in [Variant::Pensieve, Variant::AddressControl, Variant::Control] {
            let placed = run_pipeline(&prog.module, &PipelineConfig::for_variant(variant));
            assert!(
                fence_ir::verify_module(placed.module()).is_empty(),
                "{} instrumented under {variant:?} verifies",
                prog.name
            );
            let sim = Simulator::new(placed.module());
            let r = sim
                .run(&prog.threads)
                .unwrap_or_else(|e| panic!("{} under {variant:?}: {e}", prog.name));
            if let Some(check) = prog.check {
                check(&r, placed.module(), &prog.params)
                    .unwrap_or_else(|e| panic!("{} under {variant:?}: {e}", prog.name));
            }
        }
    }
}

#[test]
fn manual_builds_run_correctly() {
    let p = Params::tiny();
    for prog in corpus::programs(&p) {
        let sim = Simulator::new(&prog.manual_module);
        let r = sim
            .run(&prog.threads)
            .unwrap_or_else(|e| panic!("{} manual: {e}", prog.name));
        if let Some(check) = prog.check {
            check(&r, &prog.manual_module, &prog.params)
                .unwrap_or_else(|e| panic!("{} manual: {e}", prog.name));
        }
        assert_eq!(
            Program::count_manual_fences(&prog.manual_module),
            prog.manual_full_fences,
            "{}",
            prog.name
        );
    }
}

#[test]
fn detection_is_monotone_across_corpus() {
    let p = Params::tiny();
    for prog in corpus::programs(&p) {
        let an = ModuleAnalysis::run(&prog.module);
        for (fid, func) in prog.module.iter_funcs() {
            let ctrl = detect_acquires(
                &prog.module,
                &an.points_to,
                &an.escape,
                fid,
                DetectMode::Control,
            );
            let both = detect_acquires(
                &prog.module,
                &an.points_to,
                &an.escape,
                fid,
                DetectMode::AddressControl,
            );
            for i in ctrl.sync_reads.iter() {
                assert!(
                    both.sync_reads.contains(i),
                    "{}::{}: Control ⊆ A+C",
                    prog.name,
                    func.name
                );
            }
            for i in both.sync_reads.iter() {
                assert!(
                    an.escape.is_escaping(fid, fence_ir::InstId::new(i)),
                    "{}::{}: acquires are escaping reads",
                    prog.name,
                    func.name
                );
            }
        }
    }
}

/// The detected classification makes the flag-synchronized programs race
/// free under the vector-clock detector: acquires = detected sync reads,
/// releases = their potential writers.
#[test]
fn detected_classification_is_race_free_on_fmm() {
    let p = Params::tiny();
    let progs = corpus::programs(&p);
    let prog = progs.iter().find(|p| p.name == "FMM").expect("FMM");
    let an = ModuleAnalysis::run(&prog.module);

    let mut class = SyncClassification::new();
    for (fid, _) in prog.module.iter_funcs() {
        let info = detect_acquires(
            &prog.module,
            &an.points_to,
            &an.escape,
            fid,
            DetectMode::AddressControl,
        );
        let oracle = fence_analysis::AliasOracle::new(&prog.module, &an.points_to, fid);
        for iid in info.sync_read_ids() {
            class.add_acquire(fid, iid);
            // Releases: the stores that may have written the value the
            // acquire read (the paper's conservative release side,
            // narrowed by may-alias).
            for w in oracle.potential_writers(iid) {
                class.add_release(fid, w);
            }
        }
    }

    let sim = Simulator::with_config(
        &prog.module,
        SimConfig {
            mode: MemMode::Sc,
            record_trace: true,
            ..Default::default()
        },
    );
    let r = sim.run(&prog.threads).expect("runs");
    let report = detect_races(&prog.module, &r.trace, prog.threads.len(), &class);
    assert!(
        report.is_race_free(),
        "FMM with detected acquires shows races: {:?}",
        &report.races[..report.races.len().min(3)]
    );
}

/// Dropping the detected acquires re-exposes the data races — the
/// classification is doing real work.
#[test]
fn empty_classification_shows_races_on_fmm() {
    let p = Params::tiny();
    let progs = corpus::programs(&p);
    let prog = progs.iter().find(|p| p.name == "FMM").expect("FMM");
    let sim = Simulator::with_config(
        &prog.module,
        SimConfig {
            mode: MemMode::Sc,
            record_trace: true,
            ..Default::default()
        },
    );
    let r = sim.run(&prog.threads).expect("runs");
    let report = detect_races(
        &prog.module,
        &r.trace,
        prog.threads.len(),
        &SyncClassification::new(),
    );
    assert!(
        !report.is_race_free(),
        "FMM's flag synchronization must race without classification"
    );
}

/// Printer/parser round-trip over every corpus module (both builds).
/// One parse normalizes instruction labels to appearance order; after
/// that, print∘parse must be a fixpoint, and the reparsed module must
/// verify.
#[test]
fn corpus_ir_text_roundtrip() {
    let p = Params::tiny();
    let mut modules: Vec<(String, fence_ir::Module)> = Vec::new();
    for prog in corpus::programs(&p) {
        modules.push((prog.name.to_string(), prog.module.clone()));
        modules.push((
            format!("{} (manual)", prog.name),
            prog.manual_module.clone(),
        ));
    }
    for k in corpus::kernels::all() {
        modules.push((k.name.to_string(), k.module));
    }
    for (name, m) in modules {
        let text = fence_ir::printer::print_module(&m);
        let normalized =
            fence_ir::parser::parse_module(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            fence_ir::verify_module(&normalized).is_empty(),
            "{name} reparsed module verifies"
        );
        let text1 = fence_ir::printer::print_module(&normalized);
        let reparsed =
            fence_ir::parser::parse_module(&text1).unwrap_or_else(|e| panic!("{name} (2nd): {e}"));
        let text2 = fence_ir::printer::print_module(&reparsed);
        assert_eq!(text1, text2, "{name} normalized round-trip fixpoint");
    }
}

/// The pipeline run on a *reparsed* module gives identical fence counts —
/// the analyses depend only on IR semantics, not construction history.
#[test]
fn pipeline_invariant_under_reparse() {
    let p = Params::tiny();
    for prog in corpus::programs(&p).iter().take(5) {
        let text = fence_ir::printer::print_module(&prog.module);
        let reparsed = fence_ir::parser::parse_module(&text).expect("parses");
        for variant in [Variant::Pensieve, Variant::Control] {
            let a = run_pipeline(&prog.module, &PipelineConfig::for_variant(variant));
            let b = run_pipeline(&reparsed, &PipelineConfig::for_variant(variant));
            assert_eq!(
                a.report.full_fences(),
                b.report.full_fences(),
                "{} under {variant:?}",
                prog.name
            );
            assert_eq!(a.report.total_kept(), b.report.total_kept());
        }
    }
}

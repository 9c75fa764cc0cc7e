//! Fleet-driver equivalence and work-accounting tests.
//!
//! The fleet contract: [`run_fleet_opts`] over many modules is
//! **bit-identical** to running [`run_pipeline_batch`] per module
//! (sequential or parallel scheduling), while executing exactly one
//! `ModuleAnalysis` per module and one `Cfg` and one `FuncSubstrate`
//! build per function per run (the substrate reuses the validation
//! gate's `Cfg`).

use corpus::Params;
use fenceplace::{
    run_fleet_opts, run_pipeline_batch, FleetJob, FleetOptions, FleetResult, FleetStats,
    PipelineConfig, TargetModel, Variant,
};

/// The resident fleet under default options, sequential or pooled.
fn run(jobs: &[FleetJob], parallel: bool) -> (Vec<FleetResult>, FleetStats) {
    run_fleet_opts(
        jobs,
        &FleetOptions {
            parallel,
            ..FleetOptions::default()
        },
    )
}

fn sweep_configs() -> Vec<PipelineConfig> {
    let mut configs = Vec::new();
    for variant in Variant::automatic() {
        for target in [
            TargetModel::X86Tso,
            TargetModel::ScHardware,
            TargetModel::Weak,
        ] {
            configs.push(PipelineConfig {
                variant,
                target,
                parallel: false,
            });
        }
    }
    configs
}

/// Golden equivalence: fleet over the full evaluation corpus (all nine
/// kernels + all seventeen programs) reproduces the per-module batch
/// loop bit-for-bit — fence points, every report counter, and the
/// instrumented module text — under sequential and parallel scheduling.
#[test]
fn fleet_matches_per_module_batch_over_full_corpus() {
    let p = Params::default();
    let entries = corpus::manifest::full_fleet(&p);
    let configs = sweep_configs();
    let jobs: Vec<FleetJob<'_>> = entries
        .iter()
        .map(|e| FleetJob::new(e.name.clone(), &e.module, configs.clone()))
        .collect();

    for parallel in [false, true] {
        let (fleet, stats) = run(&jobs, parallel);
        assert_eq!(fleet.len(), jobs.len());
        assert_eq!(stats.modules, jobs.len());
        for (job, got) in jobs.iter().zip(&fleet) {
            let want = run_pipeline_batch(job.module, &job.configs);
            assert_eq!(want.len(), got.results.len(), "{}", job.name);
            for ((w, g), config) in want.iter().zip(&got.results).zip(&configs) {
                assert_eq!(
                    w.points, g.points,
                    "{} under {config:?} (par={parallel}): fence points diverge",
                    job.name
                );
                assert_eq!(
                    format!("{:?}", w.report),
                    format!("{:?}", g.report),
                    "{} under {config:?} (par={parallel}): report diverges",
                    job.name
                );
                assert_eq!(
                    fence_ir::printer::print_module(w.module()),
                    fence_ir::printer::print_module(g.module()),
                    "{} under {config:?} (par={parallel}): instrumented module diverges",
                    job.name
                );
            }
        }
    }
}

/// Work accounting over the full corpus: one `ModuleAnalysis` per module
/// and one `Cfg` and one substrate build per function, pinned both by the fleet's own
/// stats and by the independent thread-local counters in
/// `fence_analysis` / `fence_ir::cfg` (sequential mode, so every unit
/// runs on this thread).
#[test]
fn fleet_runs_one_analysis_and_substrate_per_module() {
    let p = Params::tiny();
    let entries = corpus::manifest::full_fleet(&p);
    let configs = sweep_configs(); // 9 configs, 3 distinct variants
    let jobs: Vec<FleetJob<'_>> = entries
        .iter()
        .map(|e| FleetJob::new(e.name.clone(), &e.module, configs.clone()))
        .collect();
    let total_funcs: usize = entries.iter().map(|e| e.module.funcs.len()).sum();

    let analyses_before = fence_analysis::analysis_runs();
    let cfg_before = fence_ir::cfg::cfg_builds();
    let reach_before = fence_ir::cfg::reachability_builds();
    let (_, stats) = run(&jobs, false);

    assert_eq!(stats.analyses, jobs.len(), "one analysis per module");
    assert_eq!(stats.functions, total_funcs);
    assert_eq!(stats.substrates, total_funcs, "one substrate per function");
    assert_eq!(stats.configs, jobs.len() * configs.len());
    assert_eq!(
        fence_analysis::analysis_runs() - analyses_before,
        jobs.len(),
        "independent ModuleAnalysis counter agrees"
    );
    assert_eq!(
        fence_ir::cfg::cfg_builds() - cfg_before,
        total_funcs,
        "one Cfg build per function: the validation gate's, which the substrate reuses"
    );
    assert_eq!(
        fence_ir::cfg::reachability_builds() - reach_before,
        total_funcs,
        "one Reachability build per function for the whole fleet"
    );
}

/// Edge cases: an empty fleet, a job with no configs at all, and an
/// all-`Manual` fleet must all short-circuit without running any
/// analysis.
#[test]
fn fleet_edge_cases() {
    let (results, stats) = run(&[], false);
    assert!(results.is_empty());
    assert_eq!(stats.analyses, 0);

    let p = Params::tiny();
    let entries = corpus::resolve_spec("kernel:Dekker", &p).unwrap();
    let module = &entries[0].module;

    let jobs = [FleetJob::new("no-configs", module, Vec::new())];
    let (results, stats) = run(&jobs, false);
    assert_eq!(results.len(), 1);
    assert!(results[0].results.is_empty());
    assert_eq!(stats.analyses, 0);
    assert_eq!(stats.configs, 0);

    let manual = [FleetJob::new(
        "manual-only",
        module,
        vec![PipelineConfig::for_variant(Variant::Manual)],
    )];
    let (results, stats) = run(&manual, false);
    assert_eq!(stats.analyses, 0, "Manual-only fleet never analyzes");
    assert_eq!(stats.substrates, 0);
    assert_eq!(results[0].results.len(), 1);
    assert!(results[0].results[0].points.is_empty());
}

/// A mixed fleet — modules with different config lists, including an
/// all-Manual job — keeps results aligned with each job's own configs.
#[test]
fn fleet_heterogeneous_configs() {
    let p = Params::tiny();
    let entries = corpus::resolve_specs(&["kernel:Dekker", "kernel:Peterson"], &p).unwrap();
    let jobs = [
        FleetJob::new(
            "dekker",
            &entries[0].module,
            vec![
                PipelineConfig::for_variant(Variant::Control),
                PipelineConfig::for_variant(Variant::Manual),
            ],
        ),
        FleetJob::new(
            "peterson",
            &entries[1].module,
            vec![PipelineConfig::for_variant(Variant::Pensieve)],
        ),
    ];
    let (fleet, stats) = run(&jobs, false);
    assert_eq!(stats.analyses, 2);
    assert_eq!(fleet[0].results.len(), 2);
    assert_eq!(fleet[1].results.len(), 1);
    for (job, fr) in jobs.iter().zip(&fleet) {
        let want = run_pipeline_batch(job.module, &job.configs);
        for (w, g) in want.iter().zip(&fr.results) {
            assert_eq!(w.points, g.points, "{}", job.name);
        }
    }
}

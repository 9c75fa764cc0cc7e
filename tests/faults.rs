//! Deterministic fault-injection matrix over the full evaluation fleet.
//!
//! Requires the `faultinject` feature (`scripts/check.sh faults`, the
//! CI `faults` job):
//!
//! ```text
//! cargo test -q --features faultinject --test faults
//! ```
//!
//! For **every** (module, stage, fault-kind) injection point on the
//! 26-module corpus fleet, the fleet run must complete, the injected
//! module must report the matching non-`Ok` [`ModuleOutcome`], and every
//! *other* module's placement must be bit-identical to the fault-free
//! run — under sequential and pooled scheduling, with identical
//! outcomes in both.
//!
//! Coverage is exhaustive but batched: each run arms one (stage, kind)
//! point on half of the modules (even/odd split), so every module is
//! exercised at every point across two runs per point — and multi-module
//! quarantine within one run is exercised for free.
//!
//! The `Ingest` stage only executes on the streamed ingestion path, so
//! its injections run through `run_fleet_streamed` (windowed admission
//! over the fleet's printed texts) in a second matrix within the same
//! test. A third matrix sends the armed modules' texts to a fresh
//! [`Service`] per point: every reply must be the bytes the fleet
//! renders for the same module.

use corpus::{manifest, Params};
use fenceplace::faultinject::{self, Fault};
use fenceplace::json::module_json;
use fenceplace::{
    run_fleet_opts, run_fleet_streamed, CertifyOptions, FleetJob, FleetOptions, FleetResult,
    FleetStage, FleetStats, ModuleOutcome, PipelineConfig, Service, ServiceOptions, StreamItem,
    StreamSummary, Variant,
};

/// Big enough that no tiny-params corpus module ever trips it on its
/// own; far smaller than [`faultinject::BLOWUP_COST`].
const BUDGET: u64 = u64::MAX / 16;

fn injection_points() -> Vec<(FleetStage, Fault)> {
    // The resident fleet never executes the Ingest stage (it exists only
    // on the streamed ingestion path, exercised by
    // `streamed_ingest_matrix` below) — an armed ingest fault would
    // simply never fire here.
    let resident = || {
        FleetStage::ALL
            .iter()
            .copied()
            .filter(|&s| s != FleetStage::Ingest)
    };
    let mut points: Vec<(FleetStage, Fault)> = resident().map(|s| (s, Fault::Panic)).collect();
    points.push((FleetStage::Validate, Fault::TruncateIr));
    points.extend(resident().map(|s| (s, Fault::BudgetBlowup)));
    points
}

fn assert_same_results(name: &str, got: &FleetResult, want: &FleetResult) {
    assert_eq!(got.results.len(), want.results.len(), "{name}");
    for (g, w) in got.results.iter().zip(&want.results) {
        assert_eq!(g.points, w.points, "{name}: fence points diverge");
        assert_eq!(
            format!("{:?}", g.report),
            format!("{:?}", w.report),
            "{name}: report diverges"
        );
    }
}

fn assert_outcome_matches(name: &str, stage: FleetStage, fault: Fault, outcome: &ModuleOutcome) {
    match fault {
        Fault::Panic => match outcome {
            ModuleOutcome::Panicked { stage: s, message } => {
                assert_eq!(*s, stage, "{name}: wrong stage");
                assert!(
                    message.contains("faultinject: injected panic"),
                    "{name}: unexpected message {message:?}"
                );
            }
            other => panic!("{name}: expected Panicked at {stage}, got {other:?}"),
        },
        Fault::TruncateIr => match outcome {
            ModuleOutcome::InvalidIr { errors } => {
                assert!(!errors.is_empty(), "{name}: no diagnostics");
            }
            other => panic!("{name}: expected InvalidIr, got {other:?}"),
        },
        Fault::BudgetBlowup => match outcome {
            ModuleOutcome::DeadlineExceeded {
                stage: s,
                spent,
                budget,
            } => {
                assert_eq!(*s, stage, "{name}: wrong stage");
                assert!(spent > budget, "{name}: spent {spent} <= budget {budget}");
            }
            other => panic!("{name}: expected DeadlineExceeded at {stage}, got {other:?}"),
        },
    }
}

/// Silences the default panic hook for the injected panics (hundreds of
/// them across the matrix) while keeping real assertion failures loud.
fn quiet_injected_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.contains("faultinject: injected panic") {
            prev(info);
        }
    }));
}

/// The whole matrix lives in one `#[test]`: the injection registry is
/// process-global, so concurrent tests would race on it.
#[test]
fn fault_matrix_quarantines_exactly_the_injected_modules() {
    quiet_injected_panics();
    let params = Params::tiny();
    let entries = manifest::full_fleet(&params);
    assert_eq!(entries.len(), 26, "the full evaluation fleet");
    let configs = vec![PipelineConfig::for_variant(Variant::Control)];
    let jobs: Vec<FleetJob<'_>> = entries
        .iter()
        .map(|e| FleetJob::new(e.name.clone(), &e.module, configs.clone()))
        .collect();
    let points = injection_points();

    // (point, half, module) -> outcome kind, for seq/pooled agreement.
    let mut mode_outcomes: Vec<Vec<String>> = Vec::new();

    for parallel in [false, true] {
        // Certification is on (tiny budget) so the `Certify` injection
        // points in `FleetStage::ALL` actually execute; a tiny state
        // budget keeps every run at Inconclusive-at-worst cheaply.
        let opts = FleetOptions {
            parallel,
            budget: Some(BUDGET),
            certify: Some(CertifyOptions { max_states: 2_000 }),
            ..FleetOptions::default()
        };

        faultinject::clear();
        let (baseline, base_stats) = run_fleet_opts(&jobs, &opts);
        assert_eq!(base_stats.failed, 0, "fault-free run is clean");
        for fr in &baseline {
            assert!(fr.outcome.is_ok(), "{}: {:?}", fr.name, fr.outcome);
        }

        let mut outcomes: Vec<String> = Vec::new();
        for &(stage, fault) in &points {
            for half in 0..2usize {
                faultinject::clear();
                let armed: Vec<bool> = (0..jobs.len()).map(|j| j % 2 == half).collect();
                for (j, job) in jobs.iter().enumerate() {
                    if armed[j] {
                        faultinject::arm(&job.name, stage, fault);
                    }
                }
                let (fleet, stats) = run_fleet_opts(&jobs, &opts);
                assert_eq!(
                    stats.failed,
                    armed.iter().filter(|&&a| a).count(),
                    "{stage}/{fault:?} (par={parallel}): failure count"
                );
                for (j, fr) in fleet.iter().enumerate() {
                    let tag = format!("{} at {stage}/{fault:?} (par={parallel})", fr.name);
                    if armed[j] {
                        assert_outcome_matches(&tag, stage, fault, &fr.outcome);
                        assert!(fr.results.is_empty(), "{tag}: quarantined results");
                    } else {
                        assert!(fr.outcome.is_ok(), "{tag}: {:?}", fr.outcome);
                        assert_same_results(&tag, fr, &baseline[j]);
                    }
                    outcomes.push(format!("{:?}", fr.outcome));
                }
            }
        }
        mode_outcomes.push(outcomes);
    }
    faultinject::clear();

    assert_eq!(
        mode_outcomes[0], mode_outcomes[1],
        "sequential and pooled runs must agree on every outcome"
    );

    // The registry is process-global, so the streamed and service
    // matrices must run inside this same test.
    streamed_ingest_matrix();
    service_matrix();
}

/// Every resident injection point but `Certify` (the service never
/// certifies), driven through the analysis service. For each point a
/// fresh [`Service`] receives the armed modules' printed texts, and each
/// reply must be byte-identical to the fleet's report for the parsed
/// text — quarantine, budget and panic attribution included, sequential
/// and pooled.
fn service_matrix() {
    let params = Params::tiny();
    let entries = manifest::full_fleet(&params);
    let configs = vec![PipelineConfig::for_variant(Variant::Control)];
    let texts: Vec<(String, String)> = entries
        .iter()
        .map(|e| (e.name.clone(), fence_ir::printer::print_module(&e.module)))
        .collect();
    let modules: Vec<fence_ir::Module> = texts
        .iter()
        .map(|(_, text)| fence_ir::parser::parse_module(text).expect("printed fleet text parses"))
        .collect();
    let jobs: Vec<FleetJob<'_>> = texts
        .iter()
        .zip(&modules)
        .map(|((name, _), m)| FleetJob::new(name.clone(), m, configs.clone()))
        .collect();
    let points: Vec<(FleetStage, Fault)> = injection_points()
        .into_iter()
        .filter(|&(s, _)| s != FleetStage::Certify)
        .collect();

    for parallel in [false, true] {
        let opts = FleetOptions {
            parallel,
            budget: Some(BUDGET),
            ..FleetOptions::default()
        };
        for &(stage, fault) in &points {
            for half in 0..2usize {
                faultinject::clear();
                let armed: Vec<usize> = (0..jobs.len()).filter(|j| j % 2 == half).collect();
                for &j in &armed {
                    faultinject::arm(&jobs[j].name, stage, fault);
                }
                let (fleet, _) = run_fleet_opts(&jobs, &opts);
                let mut service = Service::new(ServiceOptions {
                    budget: Some(BUDGET),
                    ..ServiceOptions::default()
                });
                for &j in &armed {
                    let (name, text) = &texts[j];
                    let tag = format!("service {name} at {stage}/{fault:?} (par={parallel})");
                    let got = service.analyze(name, text, &configs, None);
                    assert_outcome_matches(&tag, stage, fault, &got.outcome);
                    assert_eq!(
                        got.report,
                        module_json(name, &configs, &fleet[j]),
                        "{tag}: report bytes"
                    );
                }
            }
        }
    }
    faultinject::clear();
}

/// Feeds the fleet as texts through the windowed streamed scheduler,
/// collecting each delivered [`FleetResult`] by admission index.
fn run_streamed_collect(
    texts: &[(String, String)],
    configs: &[PipelineConfig],
    opts: &FleetOptions,
) -> (Vec<StreamSummary>, FleetStats, Vec<FleetResult>) {
    let mut slots: Vec<Option<FleetResult>> = (0..texts.len()).map(|_| None).collect();
    let items: Vec<StreamItem> = texts
        .iter()
        .map(|(name, text)| StreamItem::Text {
            name: name.clone(),
            text: text.clone(),
        })
        .collect();
    let (summaries, stats) = run_fleet_streamed(items, configs, opts, |i, fr| {
        assert!(slots[i].is_none(), "slot {i} delivered twice");
        slots[i] = Some(fr);
    });
    let results = slots
        .into_iter()
        .map(|s| s.expect("every slot delivered"))
        .collect();
    (summaries, stats, results)
}

/// Ingest-stage injections exist only on the streamed path: the fleet's
/// printed texts are fed through [`run_fleet_streamed`] under a small
/// admission window with each ingest fault kind armed on half the
/// modules per run. The injected modules must quarantine with the
/// matching outcome *without stalling the window* — every other module
/// completes with placements bit-identical to the fault-free streamed
/// run — and sequential/pooled runs agree on every outcome.
fn streamed_ingest_matrix() {
    let params = Params::tiny();
    let entries = manifest::full_fleet(&params);
    let configs = vec![PipelineConfig::for_variant(Variant::Control)];
    let texts: Vec<(String, String)> = entries
        .iter()
        .map(|e| (e.name.clone(), fence_ir::printer::print_module(&e.module)))
        .collect();
    let faults = [Fault::Panic, Fault::TruncateIr, Fault::BudgetBlowup];

    let mut mode_outcomes: Vec<Vec<String>> = Vec::new();
    for parallel in [false, true] {
        let opts = FleetOptions {
            parallel,
            budget: Some(BUDGET),
            window: Some(3),
            ..FleetOptions::default()
        };

        faultinject::clear();
        let (_, base_stats, baseline) = run_streamed_collect(&texts, &configs, &opts);
        assert_eq!(base_stats.failed, 0, "fault-free streamed run is clean");

        let mut outcomes: Vec<String> = Vec::new();
        for &fault in &faults {
            for half in 0..2usize {
                faultinject::clear();
                let armed: Vec<bool> = (0..texts.len()).map(|j| j % 2 == half).collect();
                for (j, (name, _)) in texts.iter().enumerate() {
                    if armed[j] {
                        faultinject::arm(name, FleetStage::Ingest, fault);
                    }
                }
                let (summaries, stats, fleet) = run_streamed_collect(&texts, &configs, &opts);
                assert_eq!(
                    stats.failed,
                    armed.iter().filter(|&&a| a).count(),
                    "ingest/{fault:?} (par={parallel}): failure count"
                );
                for (j, fr) in fleet.iter().enumerate() {
                    let tag = format!("{} at ingest/{fault:?} (par={parallel})", fr.name);
                    if armed[j] {
                        assert_outcome_matches(&tag, FleetStage::Ingest, fault, &fr.outcome);
                        assert!(fr.results.is_empty(), "{tag}: quarantined results");
                    } else {
                        assert!(fr.outcome.is_ok(), "{tag}: {:?}", fr.outcome);
                        assert_same_results(&tag, fr, &baseline[j]);
                    }
                    assert_eq!(
                        format!("{:?}", summaries[j].outcome),
                        format!("{:?}", fr.outcome),
                        "{tag}: summary must mirror the delivered outcome"
                    );
                    outcomes.push(format!("{:?}", fr.outcome));
                }
            }
        }
        mode_outcomes.push(outcomes);
    }
    faultinject::clear();

    assert_eq!(
        mode_outcomes[0], mode_outcomes[1],
        "streamed sequential and pooled runs must agree on every ingest outcome"
    );
}

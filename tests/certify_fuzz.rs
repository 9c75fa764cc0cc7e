//! Differential fuzzing of the place→certify loop on the generated sync
//! corpus (`corpus::arbitrary`): every generated litmus-shaped module is
//! swept through the pipeline and the bounded model checker must certify
//! the result — soundness (race-free groups stay SC-equal) always,
//! minimality strictly under TSO where the placement's fences are the
//! w→r kind the litmus view can observe.
//!
//! The loop must also *fail* when sabotaged: seeded mutations that
//! weaken a placed fence (runtime-equivalent to deleting it) have to
//! come back [`CertifyStatus::Unsound`], and the failing module is
//! shrunk to a minimal litmus-shaped repro that round-trips through the
//! textual IR printer and parser.

use corpus::arbitrary::{build_sync, shrink_sync, sync_shape_strategy, SyncIdiom, SyncShape};
use fenceplace::{
    certify, run_pipeline, sync_classification, CertifyOptions, CertifyStatus, PipelineConfig,
    TargetModel, Variant,
};
use memsim::check::{full_fence_sites, is_entry_fence, weaken_fence};
use memsim::{detect_races, MemMode, SimConfig, Simulator, ThreadSpec};
use proptest::prelude::*;

fn config(target: TargetModel) -> PipelineConfig {
    PipelineConfig {
        variant: Variant::Control,
        target,
        parallel: false,
    }
}

/// Runs place→certify for `shape` against `target`.
fn place_and_certify(shape: &SyncShape, target: TargetModel) -> fenceplace::CertifyReport {
    let m = build_sync(shape);
    let result = run_pipeline(&m, &config(target));
    certify(
        &result,
        Variant::Control,
        target,
        &CertifyOptions::default(),
    )
}

/// Weakens every non-entry placed full fence and re-certifies; `None`
/// when the placement put down nothing to sabotage.
fn certify_weakened(shape: &SyncShape, target: TargetModel) -> Option<CertifyStatus> {
    let m = build_sync(shape);
    let result = run_pipeline(&m, &config(target));
    let mut module = result.module().clone();
    let fids: Vec<_> = module.iter_funcs().map(|(f, _)| f).collect();
    let sites: Vec<_> = full_fence_sites(&module, &fids)
        .into_iter()
        .filter(|s| !is_entry_fence(module.func(s.func), s.inst))
        .collect();
    if sites.is_empty() {
        return None;
    }
    for site in sites {
        module = weaken_fence(&module, site);
    }
    let report = fenceplace::certify_module(
        &module,
        &sync_classification(&module, Variant::Control),
        target,
        &CertifyOptions::default(),
    );
    Some(report.status())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Differential sweep: whatever the generator produces, the
    /// pipeline's own placement certifies. Under TSO the verdict is
    /// fully `Certified` (sound and every non-entry fence necessary);
    /// under the no-speculation weak machine a post-acquire fence can be
    /// made redundant by the branch itself, so `NotMinimal` is accepted
    /// there — unsoundness and budget exhaustion never are.
    #[test]
    fn generated_sync_corpus_certifies(shape in sync_shape_strategy()) {
        let m = build_sync(&shape);
        prop_assert!(fence_ir::verify_module(&m).is_empty(), "module verifies");
        for target in [TargetModel::X86Tso, TargetModel::Weak] {
            let report = place_and_certify(&shape, target);
            prop_assert!(!report.exhausted, "{target:?}: budget exhausted");
            prop_assert!(!report.groups.is_empty(), "{target:?}: no thread groups");
            for g in &report.groups {
                prop_assert!(
                    g.sound,
                    "{target:?}: group {:?} unsound, witness {:?}",
                    g.threads,
                    g.violation
                );
            }
            let status = report.status();
            if target == TargetModel::X86Tso {
                prop_assert_eq!(status, CertifyStatus::Certified, "{:?}", report);
            } else {
                prop_assert!(
                    matches!(status, CertifyStatus::Certified | CertifyStatus::NotMinimal),
                    "{:?}: {:?}",
                    target,
                    report
                );
            }
        }
    }

    /// The paper's DRF hypothesis holds on the generated corpus: with
    /// acquires taken from the pipeline's *detected* sync reads (and
    /// releases from the escaping writes), an SC execution of each
    /// module's thread pair is data-race-free.
    #[test]
    fn generated_sync_corpus_is_race_free_under_detected_acquires(
        shape in sync_shape_strategy()
    ) {
        let m = build_sync(&shape);
        let class = sync_classification(&m, Variant::AddressControl);
        let sim = Simulator::with_config(
            &m,
            SimConfig {
                mode: MemMode::Sc,
                record_trace: true,
                step_limit: 100_000,
                ..Default::default()
            },
        );
        let specs: Vec<ThreadSpec> = m
            .iter_funcs()
            .map(|(f, _)| ThreadSpec { func: f, args: Vec::new() })
            .collect();
        let result = sim.run(&specs);
        prop_assert!(result.is_ok(), "SC run failed: {:?}", result.err());
        let races = detect_races(&m, &result.unwrap().trace, specs.len(), &class);
        prop_assert!(
            races.is_race_free(),
            "detected-acquire classification leaves races: {:?}",
            races
        );
    }
}

/// Seeded sabotage: weakening the placed fences of a store-buffering
/// module must be refuted as `Unsound`, the counterexample shrinks to
/// the minimal shape, and the shrunk repro prints as parseable textual
/// IR that still verifies.
#[test]
fn weakened_fences_are_refuted_with_shrunk_repro() {
    let seed = SyncShape {
        idiom: SyncIdiom::StoreBuffering,
        n_data: 3,
        consts: vec![41, 42, 43],
        pad_ops: 2,
    };
    let fails =
        |s: &SyncShape| certify_weakened(s, TargetModel::X86Tso) == Some(CertifyStatus::Unsound);
    assert!(fails(&seed), "sabotaged seed must certify as unsound");

    let small = shrink_sync(&seed, fails);
    assert!(fails(&small));
    assert_eq!(small.pad_ops, 0, "shrinker strips padding");
    assert_eq!(small.consts, vec![1], "shrinker minimizes constants");

    // Reconstruct the shrunk sabotaged module and round-trip it.
    let m = build_sync(&small);
    let result = run_pipeline(&m, &config(TargetModel::X86Tso));
    let mut module = result.module().clone();
    let fids: Vec<_> = module.iter_funcs().map(|(f, _)| f).collect();
    for site in full_fence_sites(&module, &fids) {
        if !is_entry_fence(module.func(site.func), site.inst) {
            module = weaken_fence(&module, site);
        }
    }
    let text = fence_ir::printer::print_module(&module);
    eprintln!("minimal unsound repro:\n{text}");
    let reparsed = fence_ir::parser::parse_module(&text).expect("repro parses");
    assert!(fence_ir::verify_module(&reparsed).is_empty());
    assert!(
        text.contains("fence compiler"),
        "repro records the weakened fence: {text}"
    );
    // The re-parsed module certifies identically: the repro is faithful.
    let report = fenceplace::certify_module(
        &reparsed,
        &sync_classification(&reparsed, Variant::Control),
        TargetModel::X86Tso,
        &CertifyOptions::default(),
    );
    assert_eq!(report.status(), CertifyStatus::Unsound);
    assert!(report.first_violation().is_some());
}

/// The weak machine catches a weakened message-passing placement too:
/// the producer-side payload→flag fence is the one thing keeping the
/// consumer from reading a stale payload.
#[test]
fn weakened_mp_fence_is_refuted_under_weak() {
    let shape = SyncShape {
        idiom: SyncIdiom::MessagePassing,
        n_data: 2,
        consts: vec![5, 6],
        pad_ops: 0,
    };
    assert_eq!(
        certify_weakened(&shape, TargetModel::Weak),
        Some(CertifyStatus::Unsound)
    );
}

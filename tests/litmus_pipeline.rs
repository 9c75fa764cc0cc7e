//! End-to-end litmus regressions for the place→certify loop: the three
//! canonical weak-memory shapes (store buffering / Dekker entry, message
//! passing) exhibit non-SC outcomes *before* placement and lose every
//! one of them *after* the pipeline has placed its fences — under both
//! hardware targets the pipeline knows how to relax (x86-TSO and the
//! bounded out-of-order weak machine).
//!
//! The sync reads are branch-shaped (the paper's *control* signature),
//! so the `Control` variant detects them and the placement is the
//! pipeline's own — no hand-placed fences anywhere.
//!
//! The last test links `memsim`'s two front ends: every outcome of a
//! deterministic timing-simulator run must be in the litmus
//! enumerator's exhaustive set for the same model.

use corpus::arbitrary::{build_sync, sync_grid, SyncIdiom, SyncShape};
use fence_ir::builder::{FunctionBuilder, ModuleBuilder};
use fence_ir::{FuncId, Module};
use fenceplace::{run_pipeline, PipelineConfig, TargetModel, Variant};
use memsim::{enumerate, LitmusModel, MemMode, SimConfig, Simulator, ThreadSpec};
use std::collections::BTreeSet;

const WEAK: LitmusModel = LitmusModel::Weak { window: 4 };

/// All-pairs thread groups of a two-function module, in order.
fn pair(module: &Module) -> Vec<(FuncId, Vec<i64>)> {
    let fids: Vec<FuncId> = module.iter_funcs().map(|(f, _)| f).collect();
    assert_eq!(fids.len(), 2);
    vec![(fids[0], Vec::new()), (fids[1], Vec::new())]
}

fn outcomes(module: &Module, model: LitmusModel) -> BTreeSet<Vec<i64>> {
    enumerate(module, &pair(module), model)
}

/// Places fences with the Control variant and returns the instrumented
/// module, asserting at least one full fence actually landed.
fn place(module: &Module, target: TargetModel, expect_full: bool) -> Module {
    let result = run_pipeline(
        module,
        &PipelineConfig {
            variant: Variant::Control,
            target,
            parallel: false,
        },
    );
    let module = result.module();
    let placed = memsim::check::full_fence_sites(
        module,
        &module.iter_funcs().map(|(f, _)| f).collect::<Vec<_>>(),
    );
    if expect_full {
        assert!(!placed.is_empty(), "placement put down no full fences");
    }
    module.clone()
}

/// Store buffering (the Dekker entry protocol): each thread publishes
/// its intent then reads the other's. Under SC at least one thread must
/// observe the other's store, so the both-zero outcome is forbidden;
/// TSO's store buffers (and the weak window) allow it until a w→r fence
/// lands between the store and the load.
#[test]
fn store_buffering_loses_its_relaxed_outcomes() {
    let m = build_sync(&SyncShape {
        idiom: SyncIdiom::StoreBuffering,
        n_data: 1,
        consts: vec![7],
        pad_ops: 0,
    });
    assert!(fence_ir::verify_module(&m).is_empty());
    let sc = outcomes(&m, LitmusModel::Sc);
    // Both threads returning 0 = neither saw the other's intent.
    assert!(!sc.contains(&vec![0, 0]), "SC forbids both-zero: {sc:?}");
    for (target, model) in [
        (TargetModel::X86Tso, LitmusModel::Tso),
        (TargetModel::Weak, WEAK),
    ] {
        let relaxed = outcomes(&m, model);
        assert!(
            relaxed.contains(&vec![0, 0]),
            "{model:?} pre-placement must exhibit both-zero: {relaxed:?}"
        );
        assert!(relaxed.is_superset(&sc));
        let placed = place(&m, target, true);
        let after = outcomes(&placed, model);
        assert_eq!(after, sc, "{model:?} post-placement must equal the SC set");
    }
}

/// Message passing: producer writes payload then flag; consumer branches
/// on the flag before reading the payload. TSO keeps w→w and r→r order,
/// so MP is SC-equal there even unfenced — documenting *why* the TSO
/// placement needs no full fences — while the weak machine reorders the
/// producer's stores until a fence separates payload from flag.
#[test]
fn message_passing_loses_its_relaxed_outcomes_under_weak() {
    let m = build_sync(&SyncShape {
        idiom: SyncIdiom::MessagePassing,
        n_data: 1,
        consts: vec![42],
        pad_ops: 0,
    });
    assert!(fence_ir::verify_module(&m).is_empty());
    let sc = outcomes(&m, LitmusModel::Sc);
    // Flag seen (select picks the sum) but payload stale = outcome 0.
    assert!(
        !sc.contains(&vec![0, 0]),
        "SC forbids flag-up-payload-stale: {sc:?}"
    );
    assert_eq!(
        outcomes(&m, LitmusModel::Tso),
        sc,
        "TSO preserves w→w and r→r, so unfenced MP is already SC"
    );
    let weak = outcomes(&m, WEAK);
    assert!(
        weak.contains(&vec![0, 0]),
        "weak pre-placement must exhibit stale payload: {weak:?}"
    );
    let placed = place(&m, TargetModel::Weak, true);
    assert_eq!(outcomes(&placed, WEAK), sc);
}

/// Full Dekker entry with a guarded critical section: each thread raises
/// its intent and enters (bumping a shared counter read-modify-write
/// style) only if the other's intent is down. Mutual exclusion means SC
/// never lets both threads see `taken == 0`; relaxed machines do until
/// fenced.
#[test]
fn dekker_entry_keeps_mutual_exclusion_after_placement() {
    let mut mb = ModuleBuilder::new("dekker_entry");
    let i0 = mb.global("intent0", 1);
    let i1 = mb.global("intent1", 1);
    let counter = mb.global("counter", 1);
    let mk = |mb: &mut ModuleBuilder, name: &str, own, other| {
        let mut fb = FunctionBuilder::new(name, 0);
        let got_l = fb.local("got");
        fb.store(own, 1i64);
        let seen = fb.load(other);
        let clear = fb.eq(seen, 0i64);
        fb.if_then(clear, |fb| {
            let c = fb.load(counter);
            let c1 = fb.add(c, 1i64);
            fb.store(counter, c1);
            fb.write_local(got_l, 1i64);
        });
        let got = fb.read_local(got_l);
        fb.ret(Some(got));
        mb.add_func(fb.build());
    };
    mk(&mut mb, "d0", i0, i1);
    mk(&mut mb, "d1", i1, i0);
    let m = mb.finish();
    assert!(fence_ir::verify_module(&m).is_empty());

    let sc = outcomes(&m, LitmusModel::Sc);
    assert!(
        !sc.contains(&vec![1, 1]),
        "SC never admits both threads into the critical section: {sc:?}"
    );
    for (target, model) in [
        (TargetModel::X86Tso, LitmusModel::Tso),
        (TargetModel::Weak, WEAK),
    ] {
        let relaxed = outcomes(&m, model);
        assert!(
            relaxed.contains(&vec![1, 1]),
            "{model:?} pre-placement must break mutual exclusion: {relaxed:?}"
        );
        let placed = place(&m, target, true);
        let after = outcomes(&placed, model);
        assert!(
            !after.contains(&vec![1, 1]),
            "{model:?} post-placement readmits the both-entered outcome: {after:?}"
        );
        assert!(after.is_subset(&relaxed));
    }
}

/// The simulator's outcome is one of the enumerator's: over the sync
/// grid, unplaced and placed with `Control:x86tso`, for every ordered
/// pair of functions, a `MemMode::Sc` run returns a member of the `Sc`
/// set and a `MemMode::Tso` run a member of the `Tso` set. Runs that
/// fault or hit the step limit are skipped; on this grid none do.
#[test]
fn simulator_outcomes_are_enumerated() {
    let mut compared = 0;
    for shape in sync_grid() {
        let unplaced = build_sync(&shape);
        let placed = place(&unplaced, TargetModel::X86Tso, false);
        for m in [&unplaced, &placed] {
            let fids: Vec<FuncId> = m.iter_funcs().map(|(f, _)| f).collect();
            for &a in &fids {
                for &b in &fids {
                    let threads = vec![(a, Vec::new()), (b, Vec::new())];
                    let specs: Vec<ThreadSpec> = threads
                        .iter()
                        .map(|(func, args)| ThreadSpec {
                            func: *func,
                            args: args.clone(),
                        })
                        .collect();
                    for (mode, model) in [
                        (MemMode::Sc, LitmusModel::Sc),
                        (MemMode::Tso, LitmusModel::Tso),
                    ] {
                        let config = SimConfig {
                            mode,
                            step_limit: 100_000,
                            ..Default::default()
                        };
                        let Ok(run) = Simulator::with_config(m, config).run(&specs) else {
                            continue;
                        };
                        let set = enumerate(m, &threads, model);
                        assert!(
                            set.contains(&run.retvals),
                            "{shape:?} {}+{} {mode:?}: simulator returned {:?}, enumerator {set:?}",
                            m.func(a).name,
                            m.func(b).name,
                            run.retvals
                        );
                        compared += 1;
                    }
                }
            }
        }
    }
    assert_eq!(
        compared, 288,
        "18 shapes × 2 placements × 4 pairs × 2 models"
    );
}

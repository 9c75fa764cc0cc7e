//! The worklist points-to solver against the legacy
//! fixpoint-by-re-execution solver
//! ([`fence_bench::naive::seed_points_to`], the preserved seed
//! algorithm).
//!
//! * On randomly generated multi-function modules exercising every flow
//!   between functions (publishes through global cells, call-argument
//!   and return edges, unknown-address stores, alloc-site publication),
//!   the solver must produce exactly the seed's sets. On modules that
//!   reach the documented `∅ ⇒ {Unknown}` corner, it must produce
//!   exactly the sets of the seed's `Unknown`-pinning replay
//!   ([`fence_bench::naive::seed_points_to_pinned`]), which are supersets
//!   of the seed's.
//! * Solving stays near-linear when values flow against program order:
//!   on a call chain where each return value reaches its caller only
//!   after the caller was visited, the seed needs one round per link,
//!   but the worklist solver's time stays within a small ratio of the
//!   same chain laid out in program order.

use corpus::arbitrary::{build_pt, pt_shape_strategy, PtOp, PtShape};
use fence_analysis::pointsto::PointsTo;
use fence_bench::naive::{seed_points_to, seed_points_to_pinned, SeedPointsTo};
use fence_ir::builder::{FunctionBuilder, ModuleBuilder};
use fence_ir::{FuncId, Module, Value};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// Diffs every queryable set of `pt` against the oracle. With
/// `exact: false`, only soundness is required: every oracle set must be
/// *contained* in the solver's (the documented `∅ ⇒ {Unknown}` corner
/// yields strict supersets).
fn assert_matches(m: &Module, pt: &PointsTo, reference: &SeedPointsTo, mode: &str, exact: bool) {
    assert_eq!(pt.num_locs(), reference.loc.len(), "{mode}: location count");
    let check = |got: Vec<usize>, want: Vec<usize>, what: String| {
        if exact {
            assert_eq!(got, want, "{mode}: {what}");
        } else {
            assert!(
                want.iter().all(|l| got.contains(l)),
                "{mode}: {what} lost oracle locations: got {got:?}, oracle {want:?}"
            );
        }
    };
    for (fid, func) in m.iter_funcs() {
        for (iid, _) in func.iter_insts() {
            check(
                pt.value_set(fid, Value::Inst(iid)).iter().collect(),
                reference.val[fid.index()][iid.index()].iter().collect(),
                format!("{}/%{} value set", func.name, iid.index()),
            );
        }
        for a in 0..func.num_params {
            check(
                pt.value_set(fid, Value::Arg(a)).iter().collect(),
                reference.arg[fid.index()][a as usize].iter().collect(),
                format!("{}/arg{a} set", func.name),
            );
        }
    }
    for l in 0..pt.num_locs() {
        check(
            pt.loc_pts(l).iter().collect(),
            reference.loc[l].iter().collect(),
            format!("loc {l} pointees"),
        );
    }
}

/// Golden: a solve reproduces the preserved seed algorithm bit-for-bit
/// on a fixed corner-free module exercising every flow between
/// functions.
#[test]
fn default_mode_is_the_pinned_seed_replay() {
    let shape = PtShape {
        n_globals: 3,
        n_cells: 2,
        funcs: vec![
            (
                vec![
                    PtOp::PublishGlobal(0, 1),
                    PtOp::DerefCell(0),
                    PtOp::Call(1, 2),
                ],
                true,
            ),
            (
                vec![PtOp::PublishAlloc(1, 0), PtOp::LoadArg, PtOp::StoreArg(2)],
                false,
            ),
            (vec![PtOp::LoadGlobal(1), PtOp::DerefCell(1)], true),
        ],
    };
    let m = build_pt(&shape, true);
    assert!(fence_ir::verify_module(&m).is_empty());
    let pt = PointsTo::analyze(&m);
    assert_matches(&m, &pt, &seed_points_to(&m), "default", true);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// On corner-free modules (see [`build_pt`]), the solve equals the
    /// legacy whole-module fixpoint bit-for-bit.
    #[test]
    fn sharded_solve_matches_legacy_fixpoint(shape in pt_shape_strategy()) {
        let m = build_pt(&shape, true);
        prop_assert!(fence_ir::verify_module(&m).is_empty(), "module verifies");
        let reference = seed_points_to(&m);
        let pt = PointsTo::analyze(&m);
        assert_matches(&m, &pt, &reference, "corner-free", true);
    }

    /// On *unrestricted* modules — including ones that hit the documented
    /// `∅ ⇒ {Unknown}` divergence corner — the solve equals the seed's
    /// `Unknown`-pinning replay bit-for-bit, and never loses a location
    /// the legacy fixpoint derives (soundness: only conservative
    /// supersets).
    #[test]
    fn sharded_solve_sound_and_schedule_independent(shape in pt_shape_strategy()) {
        let m = build_pt(&shape, false);
        prop_assert!(fence_ir::verify_module(&m).is_empty(), "module verifies");
        let pt = PointsTo::analyze(&m);
        assert_matches(&m, &pt, &seed_points_to_pinned(&m), "pinned", true);
        assert_matches(&m, &pt, &seed_points_to(&m), "unrestricted", false);
    }
}

/// The `∅ ⇒ {Unknown}` corner on a fixed module. `a` loads `%x` from
/// `@cell` and then loads through `%x`; `b` stores `@h` into `@cell` and
/// `@g` through its unknown argument. In round 1, `%x` is still empty
/// when `a`'s second load is visited, so that load is wired to `Unknown`,
/// and it stays wired after `%x` becomes `{h}`. The `@g` that `b` later
/// stores to `Unknown` therefore reaches `%y`; the seed's later rounds
/// read `%y` through `{h}` only and cut it off.
#[test]
fn a_load_wired_to_unknown_in_round_one_stays_wired() {
    let mut mb = ModuleBuilder::new("corner");
    let cell = mb.global("cell", 1);
    let h = mb.global("h", 1);
    let g = mb.global("g", 1);
    let mut fa = FunctionBuilder::new("a", 0);
    let x = fa.load(cell);
    let y = fa.load(x);
    fa.ret(None);
    let a = mb.add_func(fa.build());
    let mut fb = FunctionBuilder::new("b", 1);
    fb.store(cell, h);
    fb.store(Value::Arg(0), g);
    fb.ret(None);
    mb.add_func(fb.build());
    let m = mb.finish();
    assert!(fence_ir::verify_module(&m).is_empty(), "module verifies");

    let pt = PointsTo::analyze(&m);
    let unknown = pt.unknown_idx();
    let got: Vec<usize> = pt.value_set(a, y).iter().collect();
    assert_eq!(got, vec![g.index(), unknown], "solver: %y");
    let Value::Inst(yi) = y else {
        unreachable!("a load yields an instruction result")
    };
    let seed = seed_points_to(&m);
    let want: Vec<usize> = seed.val[a.index()][yi.index()].iter().collect();
    assert_eq!(want, vec![unknown], "seed: %y");
    assert_matches(&m, &pt, &seed_points_to_pinned(&m), "pinned", true);
    assert_matches(&m, &pt, &seed, "corner", false);
}

/// A chain of `n` functions without parameters: `f_i` returns
/// `call f_{i+1}()`, and the last returns `@g`. With `against_order`,
/// `f_0` comes first in the module, so every value flows against program
/// order and the seed solver needs one round per link; otherwise the
/// functions come last to first and one pass in program order resolves
/// the chain.
fn call_chain(n: usize, against_order: bool) -> Module {
    let mut mb = ModuleBuilder::new("chain");
    let g = mb.global("g", 1);
    let mut ids = vec![FuncId::new(0); n];
    let order: Vec<usize> = if against_order {
        (0..n).collect()
    } else {
        (0..n).rev().collect()
    };
    for i in order {
        ids[i] = mb.declare_func(format!("f{i}"), 0);
    }
    let mut calls = Vec::with_capacity(n);
    for i in 0..n {
        let mut fb = FunctionBuilder::new(format!("f{i}"), 0);
        let r = if i + 1 < n {
            let r = fb.call(ids[i + 1], vec![]);
            calls.push((ids[i], r));
            r
        } else {
            Value::Global(g)
        };
        fb.ret(Some(r));
        mb.define_func(ids[i], fb.build());
    }
    let m = mb.finish();
    assert!(fence_ir::verify_module(&m).is_empty(), "chain verifies");
    let pt = PointsTo::analyze(&m);
    for &(f, r) in &calls {
        let got: Vec<usize> = pt.value_set(f, r).iter().collect();
        assert_eq!(got, vec![g.index()], "every call returns @g");
    }
    m
}

#[test]
fn call_chains_match_the_seed_in_both_orders() {
    for against_order in [true, false] {
        let m = call_chain(40, against_order);
        let pt = PointsTo::analyze(&m);
        let mode = if against_order { "against" } else { "along" };
        assert_matches(&m, &pt, &seed_points_to(&m), mode, true);
    }
}

#[test]
fn a_chain_against_program_order_solves_in_near_linear_time() {
    const LINKS: usize = 2000;
    let against = call_chain(LINKS, true);
    let along = call_chain(LINKS, false);
    let time = |m: &Module| {
        let t = Instant::now();
        std::hint::black_box(PointsTo::analyze(m));
        t.elapsed()
    };
    // Interleaved best of a few solves, to shed scheduling noise.
    let (mut a, mut b) = (Duration::MAX, Duration::MAX);
    for _ in 0..5 {
        a = a.min(time(&against));
        b = b.min(time(&along));
    }
    assert!(
        a <= 3 * b,
        "a chain against program order solves in {a:?}, along it in {b:?}: \
         solving is no longer near-linear"
    );
}

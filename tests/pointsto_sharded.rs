//! Property test for the function-sharded points-to solver: on randomly
//! generated multi-function modules exercising every cross-shard flow
//! (publishes through the shared global frontier, call-argument and
//! return edges, unknown-address stores, alloc-site publication), the
//! sharded solver — sequential *and* parallel — must produce exactly the
//! sets of the legacy fixpoint-by-re-execution solver
//! ([`fence_bench::naive::seed_points_to`], the preserved seed
//! algorithm).

use corpus::arbitrary::{build_pt, pt_shape_strategy, PtOp, PtShape};
use fence_analysis::pointsto::PointsTo;
use fence_bench::naive::{seed_points_to, SeedPointsTo};
use fence_ir::{Module, Value};
use proptest::prelude::*;

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

/// Diffs two solver results for exact equality (the sharding property:
/// schedule must not matter).
fn assert_identical(m: &Module, a: &PointsTo, b: &PointsTo) {
    for (fid, func) in m.iter_funcs() {
        for (iid, _) in func.iter_insts() {
            let ga: Vec<usize> = a.value_set(fid, Value::Inst(iid)).iter().collect();
            let gb: Vec<usize> = b.value_set(fid, Value::Inst(iid)).iter().collect();
            assert_eq!(
                ga,
                gb,
                "{}/%{}: parallel != sequential",
                func.name,
                iid.index()
            );
        }
        for p in 0..func.num_params {
            let ga: Vec<usize> = a.value_set(fid, Value::Arg(p)).iter().collect();
            let gb: Vec<usize> = b.value_set(fid, Value::Arg(p)).iter().collect();
            assert_eq!(ga, gb, "{}/arg{p}: parallel != sequential", func.name);
        }
    }
    for l in 0..a.num_locs() {
        let ga: Vec<usize> = a.loc_pts(l).iter().collect();
        let gb: Vec<usize> = b.loc_pts(l).iter().collect();
        assert_eq!(ga, gb, "loc {l}: parallel != sequential");
    }
}

/// Golden: a solve — seq and pooled — reproduces the preserved seed
/// algorithm bit-for-bit on a fixed corner-free module exercising every
/// cross-shard flow.
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
    let reference = seed_points_to(&m);
    for parallel in [false, true] {
        let pt = PointsTo::analyze_on(&m, parallel);
        assert_matches(
            &m,
            &pt,
            &reference,
            if parallel {
                "default/pooled"
            } else {
                "default/seq"
            },
            true,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// On corner-free modules (see [`build_pt`]), sequential and parallel
    /// sharded solves both equal the legacy whole-module fixpoint
    /// bit-for-bit.
    #[test]
    fn sharded_solve_matches_legacy_fixpoint(shape in pt_shape_strategy()) {
        let m = build_pt(&shape, true);
        prop_assert!(fence_ir::verify_module(&m).is_empty(), "module verifies");
        let reference = seed_points_to(&m);
        let seq = PointsTo::analyze(&m);
        assert_matches(&m, &seq, &reference, "sequential", true);
        let par = PointsTo::analyze_on(&m, true);
        assert_matches(&m, &par, &reference, "parallel", true);
    }

    /// On *unrestricted* modules — including ones that hit the documented
    /// `∅ ⇒ {Unknown}` divergence corner — the sharded solve still (a)
    /// never loses a location the legacy fixpoint derives (soundness:
    /// only conservative supersets), and (b) is schedule-independent:
    /// the parallel rounds reproduce the sequential result exactly.
    #[test]
    fn sharded_solve_sound_and_schedule_independent(shape in pt_shape_strategy()) {
        let m = build_pt(&shape, false);
        prop_assert!(fence_ir::verify_module(&m).is_empty(), "module verifies");
        let reference = seed_points_to(&m);
        let seq = PointsTo::analyze(&m);
        assert_matches(&m, &seq, &reference, "sequential", false);
        let par = PointsTo::analyze_on(&m, true);
        assert_identical(&m, &seq, &par);
    }
}

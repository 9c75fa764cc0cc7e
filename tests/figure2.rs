//! Integration test: the paper's Figure 2 worked example end-to-end —
//! delay-set placement needs more fences than the pruned placement, and
//! both instrumented programs still deliver MP semantics on TSO.

use fence_ir::builder::{FunctionBuilder, ModuleBuilder};
use fence_ir::Value;
use fenceplace::{run_pipeline, PipelineConfig, Variant};
use memsim::{Simulator, ThreadSpec};

fn figure2() -> (fence_ir::Module, fence_ir::FuncId, fence_ir::FuncId) {
    let mut mb = ModuleBuilder::new("figure2");
    let x = mb.global("x", 1);
    let y = mb.global("y", 1);
    let flag = mb.global("flag", 1);

    let mut p1 = FunctionBuilder::new("p1", 0);
    p1.store(x, 1i64);
    let _ = p1.load(y);
    p1.store(flag, 1i64);
    p1.ret(None);
    let f1 = mb.add_func(p1.build());

    let mut p2 = FunctionBuilder::new("p2", 2);
    p2.store(Value::Arg(0), 7i64);
    let _ = p2.load(Value::Arg(1));
    p2.spin_while_eq(flag, 0i64);
    p2.store(y, 2i64);
    let r = p2.load(x);
    p2.ret(Some(r));
    let f2 = mb.add_func(p2.build());
    (mb.finish(), f1, f2)
}

#[test]
fn pruning_reduces_fence_count() {
    let (m, _, _) = figure2();
    let pens = run_pipeline(&m, &PipelineConfig::for_variant(Variant::Pensieve));
    let ctrl = run_pipeline(&m, &PipelineConfig::for_variant(Variant::Control));
    // Paper: 5 full fences for delay-set, 2 after pruning. Our counts
    // include the function-entry fences the modified Fang algorithm
    // places; the *reduction* is the claim under test.
    assert!(
        ctrl.report.full_fences() < pens.report.full_fences(),
        "Control {} < Pensieve {}",
        ctrl.report.full_fences(),
        pens.report.full_fences()
    );
    // Exactly one acquire: the flag spin read.
    assert_eq!(ctrl.report.acquires(), 1);
    // Pruned orderings: everything that is not (racq -> *) or (w -> racq)
    // in p2's data section disappears.
    assert!(ctrl.report.total_kept() < pens.report.total_kept());
}

#[test]
fn instrumented_mp_still_delivers() {
    let (m, f1, f2) = figure2();
    // Scratch cells for the unknown pointers *p1/*p2 of the example:
    // pass addresses beyond the globals (the heap base) — use two heap
    // words by allocating via a tiny init thread would complicate the
    // test; instead reuse y's address region (may-alias is the point).
    let layout = memsim::Layout::of(&m);
    let y_addr = layout.base(m.global_by_name("y").unwrap());
    for variant in [Variant::Pensieve, Variant::AddressControl, Variant::Control] {
        let result = run_pipeline(&m, &PipelineConfig::for_variant(variant));
        let sim = Simulator::new(result.module());
        let run = sim
            .run(&[
                ThreadSpec {
                    func: f1,
                    args: vec![],
                },
                ThreadSpec {
                    func: f2,
                    args: vec![y_addr, y_addr],
                },
            ])
            .expect("runs");
        assert_eq!(run.retvals[1], 1, "b5 must read x = 1 under {variant:?}");
    }
}

#[test]
fn all_variants_verify_and_are_deterministic() {
    let (m, _, _) = figure2();
    for variant in Variant::automatic() {
        let r1 = run_pipeline(&m, &PipelineConfig::for_variant(variant));
        let r2 = run_pipeline(&m, &PipelineConfig::for_variant(variant));
        assert!(fence_ir::verify_module(r1.module()).is_empty());
        assert_eq!(r1.points, r2.points, "pipeline deterministic");
    }
}

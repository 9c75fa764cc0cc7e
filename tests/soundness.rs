//! Soundness: the paper's central guarantee — for well-synchronized
//! (legacy DRF) programs, the pruned fence placement still forbids every
//! non-SC outcome the hardware could otherwise produce.
//!
//! Exhaustive litmus enumeration is the oracle: outcomes of the
//! instrumented program under TSO (and the Weak model, with the Weak
//! target) must be a subset of the SC outcomes of the fence-free program.

use fence_ir::builder::{FunctionBuilder, ModuleBuilder};
use fence_ir::{FuncId, Module};
use fenceplace::minimize::TargetModel;
use fenceplace::{run_pipeline, PipelineConfig, Variant};
use memsim::{enumerate, LitmusModel};

/// Dekker-style flags: the outcome (1,1) — both threads enter — is the
/// SC violation TSO allows without fences.
fn dekker_litmus() -> (Module, Vec<(FuncId, Vec<i64>)>) {
    let mut mb = ModuleBuilder::new("dekker");
    let x = mb.global("x", 1);
    let y = mb.global("y", 1);
    let z = mb.global("z", 1);
    let mk = |mb: &mut ModuleBuilder, name: &str, mine, other| {
        let mut f = FunctionBuilder::new(name, 0);
        f.store(mine, 1i64);
        let o = f.load(other); // control acquire: feeds the branch below
        let free = f.eq(o, 0i64);
        let r = f.local("r");
        f.write_local(r, 0i64);
        f.if_then(free, |f| {
            f.store(z, 1i64); // touch z inside the "critical section"
            f.write_local(r, 1i64);
        });
        let rv = f.read_local(r);
        f.ret(Some(rv));
        mb.add_func(f.build())
    };
    let p0 = mk(&mut mb, "p0", x, y);
    let p1 = mk(&mut mb, "p1", y, x);
    (mb.finish(), vec![(p0, vec![]), (p1, vec![])])
}

#[test]
fn dekker_fixed_by_control_placement_on_tso() {
    let (m, threads) = dekker_litmus();
    // Unfenced TSO exhibits the violation.
    let bare = enumerate(&m, &threads, LitmusModel::Tso);
    assert!(bare.contains(&vec![1, 1]), "TSO breaks Dekker unfenced");

    // The Control pipeline detects the flag reads as acquires and places
    // w→r fences; the violation disappears.
    let placed = run_pipeline(&m, &PipelineConfig::for_variant(Variant::Control));
    let t2: Vec<(FuncId, Vec<i64>)> = threads.clone();
    let fixed = enumerate(placed.module(), &t2, LitmusModel::Tso);
    assert!(
        !fixed.contains(&vec![1, 1]),
        "Control placement restores exclusion: {fixed:?}"
    );
    // And the fenced outcomes are exactly a subset of SC outcomes.
    let sc = enumerate(&m, &threads, LitmusModel::Sc);
    for o in &fixed {
        assert!(sc.contains(o), "outcome {o:?} impossible under SC");
    }
}

/// MP with a conditional consumer: the weak model breaks it; the pipeline
/// with the Weak target model must fix it.
fn mp_litmus() -> (Module, Vec<(FuncId, Vec<i64>)>) {
    let mut mb = ModuleBuilder::new("mp");
    let data = mb.global("data", 1);
    let flag = mb.global("flag", 1);
    let mut p = FunctionBuilder::new("producer", 0);
    p.store(data, 1i64);
    p.store(flag, 1i64);
    p.ret(None);
    let pid = mb.add_func(p.build());
    let mut c = FunctionBuilder::new("consumer", 0);
    let r1 = c.load(flag); // acquire: feeds the branch
    let got = c.local("got");
    c.write_local(got, -1i64);
    let set = c.ne(r1, 0i64);
    c.if_then(set, |f| {
        let r2 = f.load(data);
        f.write_local(got, r2);
    });
    let g = c.read_local(got);
    c.ret(Some(g));
    let cid = mb.add_func(c.build());
    (mb.finish(), vec![(pid, vec![]), (cid, vec![])])
}

#[test]
fn mp_fixed_by_weak_target_placement() {
    let (m, threads) = mp_litmus();
    // The weak model allows the producer's stores to reorder: consumer
    // sees flag=1 but data=0.
    let bare = enumerate(&m, &threads, LitmusModel::Weak { window: 4 });
    assert!(
        bare.iter().any(|o| o[1] == 0),
        "weak model breaks MP unfenced: {bare:?}"
    );

    let config = PipelineConfig {
        variant: Variant::Control,
        target: TargetModel::Weak,
        parallel: false,
    };
    let placed = run_pipeline(&m, &config);
    let fixed = enumerate(placed.module(), &threads, LitmusModel::Weak { window: 4 });
    assert!(
        !fixed.iter().any(|o| o[1] == 0),
        "Weak-target placement restores MP: {fixed:?}"
    );
}

#[test]
fn tso_placement_never_adds_outcomes() {
    // For each litmus program: outcomes(instrumented, TSO) ⊆ outcomes(SC).
    for (m, threads) in [dekker_litmus(), mp_litmus()] {
        let sc = enumerate(&m, &threads, LitmusModel::Sc);
        for variant in [Variant::Pensieve, Variant::AddressControl, Variant::Control] {
            let placed = run_pipeline(&m, &PipelineConfig::for_variant(variant));
            let got = enumerate(placed.module(), &threads, LitmusModel::Tso);
            for o in &got {
                assert!(
                    sc.contains(o),
                    "{variant:?} leaves non-SC outcome {o:?} on {}",
                    m.name
                );
            }
        }
    }
}

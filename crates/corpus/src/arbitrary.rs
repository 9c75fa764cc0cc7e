//! Randomized-module generators shared by the property-test suites.
//!
//! Two families live here:
//!
//! * the **points-to family** ([`PtShape`] / [`build_pt`]) — multi-function
//!   modules exercising every pointer flow between functions (publishes
//!   through global cells, call-argument and return edges,
//!   unknown-address stores, alloc-site publication), extracted from the
//!   points-to property tests so the parser fuzzer can reuse them;
//! * the **sync family** ([`SyncShape`] / [`build_sync`]) — litmus-shaped
//!   two-thread synchronization idioms (message passing and store
//!   buffering) whose sync reads carry the paper's *control* signature,
//!   used to differentially fuzz the place→certify loop. Every generated
//!   module is data-race-free under the detected-acquire classification:
//!   each cross-thread conflicting pair is either release/acquire or
//!   ordered by the resulting happens-before edge.
//!
//! The sync family also ships a greedy shrinker ([`shrink_sync`]) — the
//! vendored proptest stub has no shrinking, so counterexample reduction
//! to a minimal litmus-shaped repro is done here.
//!
//! [`mutate`] holds the text mutations the parser fuzzers apply to
//! printed modules of both families.

pub mod mutate;

use fence_ir::builder::{FunctionBuilder, ModuleBuilder};
use fence_ir::{FuncId, Module, Value};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Points-to family
// ---------------------------------------------------------------------

/// One operation in a generated points-to function body.
#[derive(Debug, Clone, Copy)]
pub enum PtOp {
    /// `store g, const`
    StoreConst(usize),
    /// `load g`
    LoadGlobal(usize),
    /// `store cell, &g` — publish a global's address through a cell.
    PublishGlobal(usize, usize),
    /// `p = load cell; load p` — pick a published pointer back up.
    DerefCell(usize),
    /// `a = alloc; store cell, a; store a, &g` — publish an alloc site.
    PublishAlloc(usize, usize),
    /// `call f_k(&g)` — pointer flows into another function's argument.
    Call(usize, usize),
    /// `load arg0` — unknown-address read.
    LoadArg,
    /// `store arg0, &g` — unknown-address write (hits the `Unknown` loc).
    StoreArg(usize),
}

/// Shape of one generated points-to module.
#[derive(Debug, Clone)]
pub struct PtShape {
    /// Number of plain data globals.
    pub n_globals: usize,
    /// Number of pointer-holding cells (the shared frontier).
    pub n_cells: usize,
    /// Per function: its ops and whether it returns its last pointer.
    pub funcs: Vec<(Vec<PtOp>, bool)>,
}

/// Strategy for one [`PtOp`] over the given index spaces.
pub fn pt_op_strategy(
    n_globals: usize,
    n_cells: usize,
    n_funcs: usize,
) -> impl Strategy<Value = PtOp> {
    (
        0usize..8,
        0usize..n_globals,
        0usize..n_cells,
        0usize..n_funcs,
    )
        .prop_map(move |(sel, g, c, f)| match sel {
            0 => PtOp::StoreConst(g),
            1 => PtOp::LoadGlobal(g),
            2 => PtOp::PublishGlobal(c, g),
            3 => PtOp::DerefCell(c),
            4 => PtOp::PublishAlloc(c, g),
            5 => PtOp::Call(f, g),
            6 => PtOp::LoadArg,
            _ => PtOp::StoreArg(g),
        })
}

/// Strategy for whole [`PtShape`]s (2–4 functions, 1–9 ops each).
pub fn pt_shape_strategy() -> impl Strategy<Value = PtShape> {
    (2usize..5, 1usize..3, 2usize..5).prop_flat_map(|(n_globals, n_cells, n_funcs)| {
        proptest::collection::vec(
            (
                proptest::collection::vec(pt_op_strategy(n_globals, n_cells, n_funcs), 1..10),
                any::<bool>(),
            ),
            n_funcs..n_funcs + 1,
        )
        .prop_map(move |funcs| PtShape {
            n_globals,
            n_cells,
            funcs,
        })
    })
}

/// Builds the module. With `corner_free`, the generated program avoids
/// the worklist solver's one documented divergence from the legacy
/// re-execution fixpoint (an address set that is empty when its
/// constraint is first visited but non-empty later): function 0
/// pre-publishes every cell and pre-calls every other function, and
/// calls only ever target later-defined functions — so every address a
/// constraint resolves is already in its final emptiness state at visit
/// time, and the solvers agree bit-for-bit.
pub fn build_pt(shape: &PtShape, corner_free: bool) -> Module {
    let mut mb = ModuleBuilder::new("sharded");
    let globals: Vec<_> = (0..shape.n_globals)
        .map(|i| mb.global(format!("g{i}"), 1))
        .collect();
    let cells: Vec<_> = (0..shape.n_cells)
        .map(|i| mb.global(format!("cell{i}"), 1))
        .collect();
    // Declare every function first so calls can target any function,
    // including later-defined and self-recursive ones.
    let fids: Vec<FuncId> = (0..shape.funcs.len())
        .map(|i| mb.declare_func(format!("f{i}"), 1))
        .collect();
    for (i, (ops, ret_ptr)) in shape.funcs.iter().enumerate() {
        let mut fb = FunctionBuilder::new(format!("f{i}"), 1);
        let mut last_ptr: Option<Value> = None;
        if corner_free && i == 0 {
            for (c, &cell) in cells.iter().enumerate() {
                fb.store(cell, globals[c % globals.len()]);
            }
            for &callee in &fids[1..] {
                let _ = fb.call(callee, vec![Value::Global(globals[0])]);
            }
        }
        for op in ops {
            let op = if corner_free {
                match *op {
                    // Forward calls only; the last function substitutes a
                    // plain load.
                    PtOp::Call(f, g) if f <= i => {
                        if i + 1 < fids.len() {
                            PtOp::Call(i + 1 + (f % (fids.len() - i - 1)), g)
                        } else {
                            PtOp::LoadGlobal(g)
                        }
                    }
                    o => o,
                }
            } else {
                *op
            };
            match op {
                PtOp::StoreConst(g) => fb.store(globals[g], 7i64),
                PtOp::LoadGlobal(g) => {
                    let _ = fb.load(globals[g]);
                }
                PtOp::PublishGlobal(c, g) => fb.store(cells[c], globals[g]),
                PtOp::DerefCell(c) => {
                    let p = fb.load(cells[c]);
                    let _ = fb.load(p);
                    last_ptr = Some(p);
                }
                PtOp::PublishAlloc(c, g) => {
                    let a = fb.alloc(2i64);
                    fb.store(cells[c], a);
                    fb.store(a, globals[g]);
                    last_ptr = Some(a);
                }
                PtOp::Call(f, g) => {
                    let r = fb.call(fids[f], vec![Value::Global(globals[g])]);
                    last_ptr = Some(r);
                }
                PtOp::LoadArg => {
                    let _ = fb.load(Value::Arg(0));
                }
                PtOp::StoreArg(g) => fb.store(Value::Arg(0), globals[g]),
            }
        }
        fb.ret(if *ret_ptr { last_ptr } else { None });
        mb.define_func(fids[i], fb.build());
    }
    mb.finish()
}

// ---------------------------------------------------------------------
// Sync family
// ---------------------------------------------------------------------

/// Which synchronization idiom a generated sync module follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncIdiom {
    /// Producer writes payload then a flag; consumer reads the flag and
    /// branches on it before touching the payload. Needs w→w and r→r
    /// ordering (fences under weak models; TSO keeps both for free).
    MessagePassing,
    /// Two symmetric threads each store their own variable then read the
    /// other's, branching on the value — the Dekker entry protocol.
    /// Needs w→r ordering, the one relaxation TSO has.
    StoreBuffering,
}

/// Shape of one generated sync module: idiom plus payload width, stored
/// constants, and benign padding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncShape {
    /// Idiom to instantiate.
    pub idiom: SyncIdiom,
    /// Payload globals for [`SyncIdiom::MessagePassing`] (1–3).
    pub n_data: usize,
    /// Values the producer stores (length `n_data`; also the store
    /// buffering branch multiplier).
    pub consts: Vec<i64>,
    /// Pure padding ops (const arithmetic) prepended to every function,
    /// varying instruction ids without touching memory.
    pub pad_ops: usize,
}

/// Strategy over both idioms with small payloads and paddings.
pub fn sync_shape_strategy() -> impl Strategy<Value = SyncShape> {
    (0usize..2, 1usize..4, 0usize..3, 1i64..100).prop_map(|(idiom, n_data, pad_ops, c0)| {
        SyncShape {
            idiom: if idiom == 0 {
                SyncIdiom::MessagePassing
            } else {
                SyncIdiom::StoreBuffering
            },
            n_data,
            consts: (0..n_data).map(|i| c0 + i as i64).collect(),
            pad_ops,
        }
    })
}

/// The fixed 18-shape sweep of the sync family: both idioms × payload
/// width 1–3 × padding 0–2, storing the constants 7, 8, 9. The
/// certification golden and the simulator-in-enumerator containment
/// test both run over it.
pub fn sync_grid() -> Vec<SyncShape> {
    let mut grid = Vec::with_capacity(18);
    for idiom in [SyncIdiom::MessagePassing, SyncIdiom::StoreBuffering] {
        for n_data in 1..=3 {
            for pad_ops in 0..=2 {
                grid.push(SyncShape {
                    idiom,
                    n_data,
                    consts: (7..).take(n_data).collect(),
                    pad_ops,
                });
            }
        }
    }
    grid
}

fn pad(fb: &mut FunctionBuilder, n: usize) {
    for i in 0..n {
        let _ = fb.add(i as i64, 1i64);
    }
}

/// Builds the two-thread module for `shape`. Both functions take zero
/// arguments and stay litmus-enumerable (no calls, allocs, or loops), so
/// the whole place→certify loop can run on the result.
pub fn build_sync(shape: &SyncShape) -> Module {
    match shape.idiom {
        SyncIdiom::MessagePassing => {
            let mut mb = ModuleBuilder::new("mp_gen");
            let data: Vec<_> = (0..shape.n_data)
                .map(|i| mb.global(format!("data{i}"), 1))
                .collect();
            let flag = mb.global("flag", 1);
            let mut p = FunctionBuilder::new("producer", 0);
            pad(&mut p, shape.pad_ops);
            for (i, &d) in data.iter().enumerate() {
                p.store(d, shape.consts[i]);
            }
            p.store(flag, 1i64);
            p.ret(None);
            mb.add_func(p.build());
            let mut c = FunctionBuilder::new("consumer", 0);
            // The payload sum crosses the join through a local (values
            // defined in the taken branch do not dominate the join).
            let acc_l = c.local("acc");
            pad(&mut c, shape.pad_ops);
            let f = c.load(flag);
            c.if_then(f, |c| {
                let mut sum = Value::Const(0);
                for &d in &data {
                    let v = c.load(d);
                    sum = c.add(sum, v);
                }
                c.write_local(acc_l, sum);
            });
            let acc = c.read_local(acc_l);
            let picked = c.select(f, acc, -1i64);
            c.ret(Some(picked));
            mb.add_func(c.build());
            mb.finish()
        }
        SyncIdiom::StoreBuffering => {
            let mut mb = ModuleBuilder::new("sb_gen");
            let a = mb.global("a", 1);
            let b = mb.global("b", 1);
            let k = shape.consts[0];
            let mk = |mb: &mut ModuleBuilder, name: &str, own, other| {
                let mut fb = FunctionBuilder::new(name, 0);
                let acc_l = fb.local("acc");
                pad(&mut fb, shape.pad_ops);
                fb.store(own, 1i64);
                let f = fb.load(other);
                fb.if_then(f, |fb| {
                    let v = fb.mul(f, k);
                    fb.write_local(acc_l, v);
                });
                let acc = fb.read_local(acc_l);
                let picked = fb.select(f, acc, 0i64);
                fb.ret(Some(picked));
                mb.add_func(fb.build());
            };
            mk(&mut mb, "t0", a, b);
            mk(&mut mb, "t1", b, a);
            mb.finish()
        }
    }
}

/// Greedily shrinks `shape` while `still_fails` holds: payload width
/// down to 1, padding to 0, constants to 1. Returns the smallest shape
/// found (a fixpoint of the candidate moves).
pub fn shrink_sync<F: Fn(&SyncShape) -> bool>(shape: &SyncShape, still_fails: F) -> SyncShape {
    debug_assert!(still_fails(shape), "shrink seeded with a passing shape");
    let mut best = shape.clone();
    loop {
        let mut candidates = Vec::new();
        if best.n_data > 1 {
            let mut c = best.clone();
            c.n_data -= 1;
            c.consts.truncate(c.n_data);
            candidates.push(c);
        }
        if best.pad_ops > 0 {
            let mut c = best.clone();
            c.pad_ops = 0;
            candidates.push(c);
        }
        if best.consts.iter().any(|&v| v != 1) {
            let mut c = best.clone();
            c.consts = vec![1; c.consts.len()];
            candidates.push(c);
        }
        match candidates.into_iter().find(|c| still_fails(c)) {
            Some(c) => best = c,
            None => return best,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::TestRng;

    #[test]
    fn generated_modules_verify() {
        let pt = pt_shape_strategy();
        let sync = sync_shape_strategy();
        let mut rng = TestRng::from_seed(11);
        for _ in 0..64 {
            let shape = pt.new_value(&mut rng);
            for corner_free in [false, true] {
                let m = build_pt(&shape, corner_free);
                assert!(fence_ir::verify_module(&m).is_empty(), "{shape:?}");
            }
            let shape = sync.new_value(&mut rng);
            let m = build_sync(&shape);
            assert!(fence_ir::verify_module(&m).is_empty(), "{shape:?}");
        }
    }

    #[test]
    fn sync_modules_are_litmus_shaped() {
        let sync = sync_shape_strategy();
        let mut rng = TestRng::from_seed(23);
        for _ in 0..64 {
            let m = build_sync(&sync.new_value(&mut rng));
            assert_eq!(m.funcs.len(), 2);
            for (_, f) in m.iter_funcs() {
                assert_eq!(f.num_params, 0);
                assert!(memsim::litmus::enumerable(f).is_ok(), "{}", f.name);
            }
        }
    }

    #[test]
    fn shrinker_reaches_the_minimal_failing_shape() {
        let seed = SyncShape {
            idiom: SyncIdiom::StoreBuffering,
            n_data: 3,
            consts: vec![41, 42, 43],
            pad_ops: 2,
        };
        // "Fails" whenever the idiom is store buffering — the shrinker
        // must strip everything else away.
        let small = shrink_sync(&seed, |s| s.idiom == SyncIdiom::StoreBuffering);
        assert_eq!(small.n_data, 1);
        assert_eq!(small.pad_ops, 0);
        assert_eq!(small.consts, vec![1]);
    }
}

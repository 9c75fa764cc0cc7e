//! Scaling bench: whole-module points-to on `corpus::synthetic_scaled(n)`,
//! seed algorithm vs. the constraint-graph worklist solver.
//!
//! The seed stage re-applies every constraint each round with two owned
//! `BitSet` clones per operand visit; the worklist stage builds the
//! constraint graph in one walk that also replays the seed's first round
//! in program order, then drains one worklist in which a node pushes its
//! whole set along its successor list, with set rows allocated on
//! demand.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fence_analysis::pointsto::PointsTo;
use fence_bench::naive::seed_points_to;
use fence_ir::Value;

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("pointsto_scaling");
    for n in [250usize, 1000, 4000, 16000] {
        let module = corpus::synthetic_scaled(n);

        // The two solvers must agree before we time anything.
        let seed = seed_points_to(&module);
        let fast = PointsTo::analyze(&module);
        for (fid, func) in module.iter_funcs() {
            for (iid, _) in func.iter_insts() {
                let got: Vec<usize> = fast.value_set(fid, Value::Inst(iid)).iter().collect();
                let want: Vec<usize> = seed.val[fid.index()][iid.index()].iter().collect();
                assert_eq!(
                    got,
                    want,
                    "{}/%{}: sets diverge at n={n}",
                    func.name,
                    iid.index()
                );
            }
        }
        for l in 0..fast.num_locs() {
            let got: Vec<usize> = fast.loc_pts(l).iter().collect();
            let want: Vec<usize> = seed.loc[l].iter().collect();
            assert_eq!(got, want, "loc {l}: pointees diverge at n={n}");
        }

        group.bench_with_input(BenchmarkId::new("seed", n), &n, |b, _| {
            b.iter(|| seed_points_to(&module).loc.len())
        });
        group.bench_with_input(BenchmarkId::new("worklist", n), &n, |b, _| {
            b.iter(|| PointsTo::analyze(&module).num_locs())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_scaling
}
criterion_main!(benches);

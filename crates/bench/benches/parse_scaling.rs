//! Scaling bench: textual-IR parse of `corpus::synthetic_scaled(n)`'s
//! printed form, seed parser vs. the borrowed-token parser.
//!
//! The seed parser copies every line twice, allocates a `String` per
//! token and tokenizes each body line four times; the borrowed-token
//! parser tokenizes each line once into slices of the input.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fence_bench::naive::seed_parse_module;
use fence_ir::parser::parse_module;
use fence_ir::printer::print_module;

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("parse_scaling");
    for n in [250usize, 1000, 4000, 16000] {
        let text = print_module(&corpus::synthetic_scaled(n));

        // Both parsers must build the same module before we time anything.
        let seed = seed_parse_module(&text).expect("printed module parses");
        let fast = parse_module(&text).expect("printed module parses");
        assert_eq!(
            print_module(&fast),
            print_module(&seed),
            "parsers diverge at n={n}"
        );

        group.bench_with_input(BenchmarkId::new("seed", n), &n, |b, _| {
            b.iter(|| seed_parse_module(&text).map(|m| m.funcs.len()))
        });
        group.bench_with_input(BenchmarkId::new("borrowed", n), &n, |b, _| {
            b.iter(|| parse_module(&text).map(|m| m.funcs.len()))
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

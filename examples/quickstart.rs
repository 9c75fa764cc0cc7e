//! Quickstart: build the classic message-passing (MP) program in IR, run
//! the fence-placement pipeline under each variant, and execute the
//! instrumented code on the TSO simulator.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use fence_ir::builder::{FunctionBuilder, ModuleBuilder};
use fence_ir::printer::print_module;
use fenceplace::{run_pipeline, PipelineConfig, Variant};
use memsim::{Simulator, ThreadSpec};

fn main() {
    // --- 1. build the MP producer/consumer module ---
    let mut mb = ModuleBuilder::new("mp");
    let data = mb.global("data", 1);
    let flag = mb.global("flag", 1);

    let mut p = FunctionBuilder::new("producer", 0);
    p.store(data, 42i64);
    p.store(flag, 1i64);
    p.ret(None);
    let producer = mb.add_func(p.build());

    let mut c = FunctionBuilder::new("consumer", 0);
    c.spin_while_eq(flag, 0i64); // the classic ad hoc acquire
    let v = c.load(data);
    c.ret(Some(v));
    let consumer = mb.add_func(c.build());
    let module = mb.finish();

    println!("== input module ==\n{}", print_module(&module));

    // --- 2. run the pipeline under each variant ---
    for variant in Variant::automatic() {
        let result = run_pipeline(&module, &PipelineConfig::for_variant(variant));
        println!(
            "{:<16} acquires={:<2} orderings {:>3} -> {:<3} full fences={} directives={}",
            variant.name(),
            result.report.acquires(),
            result.report.total_orderings(),
            result.report.total_kept(),
            result.report.full_fences(),
            result.report.compiler_fences(),
        );

        // --- 3. execute the instrumented module on the TSO simulator ---
        // The result holds the placement (points + report); `module()`
        // inserts its fences into a copy of the input on first use.
        let sim = Simulator::new(result.module());
        let run = sim
            .run(&[
                ThreadSpec {
                    func: producer,
                    args: vec![],
                },
                ThreadSpec {
                    func: consumer,
                    args: vec![],
                },
            ])
            .expect("simulation runs");
        println!(
            "  consumer read data = {} in {} cycles ({} dynamic fences)",
            run.retvals[1], run.cycles, run.full_fences
        );
        assert_eq!(run.retvals[1], 42, "MP must deliver the payload");
    }
    println!("\nThe flag spin-read is the only acquire Control finds; the");
    println!("data read's orderings are pruned — fewer fences, same result.");
}

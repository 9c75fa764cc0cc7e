//! Regenerates **Figure 10**: simulated execution time under each fence
//! placement, normalized against the expert manual placement.
//!
//! ```text
//! cargo run -p fence_bench --release --bin fig10
//! ```

use corpus::Params;
use fence_bench::{perf_rows, summary};

fn main() {
    let p = Params::default();
    let rows = perf_rows(&p);
    println!("Figure 10 — execution time normalized to manual placement (TSO simulator)");
    println!(
        "{:<16} {:>8} {:>9} {:>9} {:>9}   {:>18}",
        "Program", "Manual", "Pensieve", "A+C", "Control", "dyn fences P/A/C"
    );
    for r in &rows {
        let n = r.normalized();
        println!(
            "{:<16} {:>8.2} {:>9.2} {:>9.2} {:>9.2}   {:>6}/{:>5}/{:>5}",
            r.name, n[0], n[1], n[2], n[3], r.dyn_fences[1], r.dyn_fences[2], r.dyn_fences[3]
        );
    }
    let g = |i: usize| summary(rows.iter().map(|r| r.normalized()[i]));
    println!(
        "{:<16} {:>8.2} {:>9.2} {:>9.2} {:>9.2}",
        "geomean",
        1.0,
        g(1),
        g(2),
        g(3)
    );
    println!();
    println!("Paper (real i3-2100): Pensieve 1.94x, Address+Control 1.69x, Control 1.44x;");
    println!("best case Matrix: Pensieve 5.84x, Control 2.64x faster than Pensieve.");
}

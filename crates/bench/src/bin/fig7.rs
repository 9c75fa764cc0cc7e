//! Regenerates **Figure 7**: static percentage of potentially
//! thread-escaping reads that the analysis marks as acquires, per
//! program, for `Address+Control` and `Control`.
//!
//! ```text
//! cargo run -p fence_bench --release --bin fig7
//! ```

use corpus::Params;
use fence_bench::{pct, static_rows, summary};
use fenceplace::Variant;

fn main() {
    let p = Params::default();
    let rows = static_rows(&p);
    println!("Figure 7 — % of escaping reads marked acquire");
    println!(
        "{:<16} {:>7} {:>9} {:>9}",
        "Program", "eReads", "Addr+Ctl", "Control"
    );
    for r in &rows {
        println!(
            "{:<16} {:>7} {:>9} {:>9}",
            r.name,
            r.escaping_reads,
            pct(r.acquire_fraction(Variant::AddressControl)),
            pct(r.acquire_fraction(Variant::Control)),
        );
    }
    let g_ac = summary(
        rows.iter()
            .map(|r| r.acquire_fraction(Variant::AddressControl)),
    );
    let g_c = summary(rows.iter().map(|r| r.acquire_fraction(Variant::Control)));
    println!(
        "{:<16} {:>7} {:>9} {:>9}",
        "geomean",
        "",
        pct(g_ac),
        pct(g_c)
    );
    println!();
    println!("Paper: Control ≈ 18% geomean (best 7%, worst 33%); Address+Control ≈ 60%.");
}

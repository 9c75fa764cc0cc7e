//! Regenerates **Figure 9**: static percentage of full fences remaining
//! on x86-TSO after pruning, relative to Pensieve.
//!
//! ```text
//! cargo run -p fence_bench --release --bin fig9
//! ```

use corpus::Params;
use fence_bench::{pct, static_rows, summary};
use fenceplace::Variant;

fn main() {
    let p = Params::default();
    let rows = static_rows(&p);
    println!("Figure 9 — full fences remaining vs Pensieve (x86-TSO)");
    println!(
        "{:<16} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "Program", "Pensieve", "A+C", "Control", "A+C %", "Control %"
    );
    for r in &rows {
        println!(
            "{:<16} {:>9} {:>9} {:>9} {:>9} {:>9}",
            r.name,
            r.fences_pensieve,
            r.fences_ac,
            r.fences_ctrl,
            pct(r.fence_fraction(Variant::AddressControl)),
            pct(r.fence_fraction(Variant::Control)),
        );
    }
    let g_ac = summary(
        rows.iter()
            .map(|r| r.fence_fraction(Variant::AddressControl)),
    );
    let g_c = summary(rows.iter().map(|r| r.fence_fraction(Variant::Control)));
    println!(
        "{:<16} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "geomean",
        "",
        "",
        "",
        pct(g_ac),
        pct(g_c)
    );
    println!();
    println!("Paper: ~73% of Pensieve's fences remain under Address+Control,");
    println!("~38% under Control (Canneal best case: 89% reduction).");
}

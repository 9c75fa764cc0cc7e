//! Regenerates **Figure 8**: breakdown of orderings by type for Pensieve
//! (= 100%), Address+Control, and Control, per program.
//!
//! ```text
//! cargo run -p fence_bench --release --bin fig8
//! ```

use corpus::Params;
use fence_bench::{pct, static_rows, summary};
use fenceplace::Variant;

fn row4(label: &str, o: [usize; 4], total: usize) -> String {
    let f = |x: usize| {
        if total == 0 {
            "  0.0%".to_string()
        } else {
            format!("{:5.1}%", 100.0 * x as f64 / total as f64)
        }
    };
    format!(
        "  {label:<14} r->r {}  r->w {}  w->r {}  w->w {}  (total {})",
        f(o[0]),
        f(o[1]),
        f(o[2]),
        f(o[3]),
        o.iter().sum::<usize>()
    )
}

fn main() {
    let p = Params::default();
    let rows = static_rows(&p);
    println!("Figure 8 — orderings by type, as % of Pensieve's orderings");
    for r in &rows {
        let total: usize = r.ords_pensieve.iter().sum();
        println!("{}", r.name);
        println!("{}", row4("Pensieve", r.ords_pensieve, total));
        println!("{}", row4("Addr+Control", r.ords_ac, total));
        println!("{}", row4("Control", r.ords_ctrl, total));
    }
    let g_ac = summary(
        rows.iter()
            .map(|r| r.ordering_fraction(Variant::AddressControl)),
    );
    let g_c = summary(rows.iter().map(|r| r.ordering_fraction(Variant::Control)));
    println!();
    println!(
        "geomean orderings remaining: Address+Control {}, Control {}",
        pct(g_ac),
        pct(g_c)
    );
    println!("Paper: ~68% remain under Address+Control, ~34% under Control;");
    println!("r->w and w->w are untouched by pruning (writes are conservative releases).");
}

//! Regenerates **Table II**: acquire-signature breakdown of the nine
//! synchronization kernels.
//!
//! ```text
//! cargo run -p fence_bench --release --bin table2
//! ```

fn mark(b: bool) -> &'static str {
    if b {
        "Y"
    } else {
        "-"
    }
}

fn main() {
    println!("Table II — acquires found in common synchronization kernels");
    println!(
        "{:<20} {:>5} {:>5} {:>10}   Source",
        "Kernel", "Addr", "Ctrl", "Pure Addr"
    );
    let mut mismatches = 0;
    for row in fence_bench::table2() {
        let ok = (row.addr, row.ctrl, row.pure_addr) == row.expect;
        if !ok {
            mismatches += 1;
        }
        println!(
            "{:<20} {:>5} {:>5} {:>10}   {}{}",
            row.name,
            mark(row.addr),
            mark(row.ctrl),
            mark(row.pure_addr),
            row.citation,
            if ok { "" } else { "   << MISMATCH vs paper" }
        );
    }
    println!();
    if mismatches == 0 {
        println!("All 9 rows match the paper (Addr for Chase-Lev/CLH/MCS/M&S; Ctrl everywhere; no pure-address acquires).");
    } else {
        println!("{mismatches} rows differ from the paper.");
    }
}

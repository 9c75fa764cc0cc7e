//! Prints the textual IR of any corpus program or Table II kernel —
//! useful for inspecting what the analyses actually see.
//!
//! ```text
//! cargo run -p fence_bench --bin dump_ir -- Matrix
//! cargo run -p fence_bench --bin dump_ir -- "MCS Lock"
//! cargo run -p fence_bench --bin dump_ir            # lists names
//! ```

use corpus::Params;
use fence_ir::printer::print_module;

fn main() {
    let name = std::env::args().nth(1);
    let p = Params::tiny();
    let programs = corpus::programs(&p);
    let kernels = corpus::kernels::all();

    let Some(name) = name else {
        println!("available programs:");
        for prog in &programs {
            println!("  {}", prog.name);
        }
        println!("available kernels:");
        for k in &kernels {
            println!("  {}", k.name);
        }
        return;
    };

    if let Some(prog) = programs.iter().find(|pr| pr.name == name) {
        println!("{}", print_module(&prog.module));
        return;
    }
    if let Some(k) = kernels.iter().find(|k| k.name == name) {
        println!("{}", print_module(&k.module));
        return;
    }
    eprintln!("unknown program/kernel `{name}` (run without args to list)");
    std::process::exit(1);
}

//! Text mutations of printed IR, shared by the parser fuzzers: they model
//! realistic corruption of `file:` and `pack:` inputs — truncated writes,
//! dropped/duplicated/swapped lines, and byte splices (snapped to char
//! boundaries so the input stays valid UTF-8).

use proptest::prelude::*;

/// One text mutation, decoded from three raw numbers so the strategy
/// stays a plain tuple vector.
#[derive(Debug)]
pub enum Mutation {
    /// Cut the text at a byte offset.
    Truncate(usize),
    /// Remove one line.
    DeleteLine(usize),
    /// Repeat one line in place.
    DuplicateLine(usize),
    /// Exchange two lines.
    SwapLines(usize, usize),
    /// Insert a printable fragment at a byte offset.
    Splice(usize, u64),
    /// Overwrite one char with another printable char.
    Replace(usize, u64),
}

/// Decodes one mutation from raw strategy numbers.
pub fn decode(op: u32, a: u64, b: u64) -> Mutation {
    match op % 6 {
        0 => Mutation::Truncate(a as usize),
        1 => Mutation::DeleteLine(a as usize),
        2 => Mutation::DuplicateLine(a as usize),
        3 => Mutation::SwapLines(a as usize, b as usize),
        4 => Mutation::Splice(a as usize, b),
        _ => Mutation::Replace(a as usize, b),
    }
}

/// Snaps `pos` (mod len+1) to the nearest char boundary at or below it.
fn snap(text: &str, pos: usize) -> usize {
    let mut p = pos % (text.len() + 1);
    while !text.is_char_boundary(p) {
        p -= 1;
    }
    p
}

/// Printable fragments a splice can inject — parser-adjacent tokens mixed
/// with junk, so mutations hit both "almost valid" and "nonsense" text.
const FRAGMENTS: [&str; 12] = [
    "bb",
    "%",
    "@",
    "fn ",
    "}",
    "{",
    ";",
    ":",
    "store ",
    "bb999999999",
    "\u{00e9}\u{2603}",
    "0x",
];

/// Applies `m` to `text` in place.
pub fn apply(text: &mut String, m: &Mutation) {
    match *m {
        Mutation::Truncate(pos) => {
            let p = snap(text, pos);
            text.truncate(p);
        }
        Mutation::DeleteLine(i) => {
            let mut lines: Vec<&str> = text.lines().collect();
            if lines.is_empty() {
                return;
            }
            let i = i % lines.len();
            lines.remove(i);
            *text = lines.join("\n");
            text.push('\n');
        }
        Mutation::DuplicateLine(i) => {
            let mut lines: Vec<&str> = text.lines().collect();
            if lines.is_empty() {
                return;
            }
            let i = i % lines.len();
            lines.insert(i, lines[i]);
            *text = lines.join("\n");
            text.push('\n');
        }
        Mutation::SwapLines(i, j) => {
            let mut lines: Vec<&str> = text.lines().collect();
            if lines.len() < 2 {
                return;
            }
            let (i, j) = (i % lines.len(), j % lines.len());
            lines.swap(i, j);
            *text = lines.join("\n");
            text.push('\n');
        }
        Mutation::Splice(pos, pick) => {
            let p = snap(text, pos);
            text.insert_str(p, FRAGMENTS[(pick % FRAGMENTS.len() as u64) as usize]);
        }
        Mutation::Replace(pos, pick) => {
            let p = snap(text, pos);
            if p >= text.len() {
                return;
            }
            let c = text[p..].chars().next().unwrap();
            let replacement = (b' ' + (pick % 95) as u8) as char;
            text.replace_range(p..p + c.len_utf8(), &replacement.to_string());
        }
    }
}

/// Printed forms of the seed modules mutations start from: four kernels
/// plus one module from each `corpus::arbitrary` generator family, so
/// mutations also exercise generated-shape text (branches with locals,
/// call/alloc pointer flows).
pub fn seeds() -> Vec<String> {
    let p = crate::Params::tiny();
    let mut out: Vec<String> = [
        "kernel:Dekker",
        "kernel:Peterson",
        "kernel:Lamport",
        "kernel:CLH Lock",
    ]
    .iter()
    .map(|spec| {
        let entries = crate::resolve_spec(spec, &p).expect("seed spec resolves");
        fence_ir::printer::print_module(&entries[0].module)
    })
    .collect();
    let mut rng = proptest::TestRng::from_seed(0x5eed);
    let sync = super::sync_shape_strategy().new_value(&mut rng);
    out.push(fence_ir::printer::print_module(&super::build_sync(&sync)));
    let pt = super::pt_shape_strategy().new_value(&mut rng);
    out.push(fence_ir::printer::print_module(&super::build_pt(
        &pt, false,
    )));
    out
}

//! Regression: parse time must not depend on how result labels hash, or
//! on where a module's biggest function sits.
//!
//! `fence_ir::util::FastMap`'s hash is unkeyed: for two 8-byte words
//! `w0‖w1` it ends in the state `(rotl5(w0·S) ^ w1)·S`, so every label
//! with `w1 = rotl5(w0·S) ^ C` hashes alike. A name table on that hash
//! probes past every earlier crafted label on each insert, which makes
//! the parse quadratic. The parser's name tables are randomly keyed, so a
//! module of crafted labels parses as fast as one of benign labels of the
//! same length.
//!
//! The per-function tables (locals, `%` labels) are built fresh for each
//! function. Clearing one table for reuse instead costs its capacity, so
//! one big function would tax every function after it: quadratic again.

use fence_ir::util::FxHasher;
use fence_ir::Module;
use std::hash::{BuildHasher, BuildHasherDefault};
use std::time::{Duration, Instant};

/// `FxHasher`'s multiplier.
const S: u64 = 0x51_7c_c1_b7_27_22_0a_95;
/// Labels per module: enough that a quadratic table shows.
const LABELS: usize = 6000;
/// Locals of the big function: one past a growth threshold, so its table
/// has 2^19 buckets, the most per local.
const BIG_LOCALS: usize = (1 << 18) / 8 * 7 + 1;
/// One-local functions beside the big one.
const SMALL_FUNCS: usize = 25_000;

/// Bytes a label may hold: printable, no separator or comment character.
fn label_byte(b: u8) -> bool {
    b.is_ascii_graphic() && !b",(){}=;:%".contains(&b)
}

/// `n` distinct 16-byte labels with one `FxHasher` hash. `w0` varies only
/// in its top three bytes, which leaves the low 40 bits of `w0·S` fixed,
/// and with them bits 5..40 of `rotl5(w0·S)`. `C` maps those bits to
/// `0x60` in byte 0 and `a` in bytes 1..=4, and a candidate is kept when
/// the rest of `w1` is made of label bytes too.
fn crafted_labels(n: usize) -> Vec<String> {
    let base = u64::from_le_bytes(*b"collide!");
    let fixed = base.wrapping_mul(S).rotate_left(5) & 0x0000_00ff_ffff_ffe0;
    let c = fixed ^ 0x0000_0061_6161_6160;
    let alphabet: Vec<u8> = (0..=u8::MAX).filter(|&b| label_byte(b)).collect();
    let mut out = Vec::with_capacity(n);
    'search: for &b5 in &alphabet {
        for &b6 in &alphabet {
            for &b7 in &alphabet {
                let w0 = base & 0xff_ffff_ffff
                    | u64::from(b5) << 40
                    | u64::from(b6) << 48
                    | u64::from(b7) << 56;
                let w1 = w0.wrapping_mul(S).rotate_left(5) ^ c;
                let mut bytes = w0.to_le_bytes().to_vec();
                bytes.extend(w1.to_le_bytes());
                if bytes.iter().all(|&b| label_byte(b)) {
                    out.push(String::from_utf8(bytes).unwrap());
                    if out.len() == n {
                        break 'search;
                    }
                }
            }
        }
    }
    assert_eq!(out.len(), n, "search space too small");
    out
}

/// One function binding every label, in order.
fn module_with(labels: &[String]) -> String {
    let mut text = String::from("module labels\nfn f params=0 locals=() {\nbb0:\n");
    for l in labels {
        text.push_str(&format!("  %{l} = add c1, c2\n"));
    }
    text.push_str("  ret\n}\n");
    text
}

/// Best of a few parses, to shed scheduling noise; `check` sees each
/// parsed module.
fn parse_time(text: &str, check: impl Fn(&Module)) -> Duration {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            let m = fence_ir::parser::parse_module(text).expect("module parses");
            let elapsed = t.elapsed();
            check(&m);
            elapsed
        })
        .min()
        .unwrap()
}

#[test]
fn crafted_label_collisions_cost_no_more_than_benign_labels() {
    let crafted = crafted_labels(LABELS);
    let fx = BuildHasherDefault::<FxHasher>::default();
    let hash = fx.hash_one(crafted[0].as_str());
    assert!(crafted.iter().all(|l| fx.hash_one(l.as_str()) == hash));
    let benign: Vec<String> = (0..LABELS).map(|i| format!("{i:016}")).collect();

    let crafted_text = module_with(&crafted);
    let benign_text = module_with(&benign);
    assert_eq!(crafted_text.len(), benign_text.len());
    let check = |m: &Module| assert_eq!(m.funcs[0].num_insts(), LABELS + 1);
    let (c, b) = (
        parse_time(&crafted_text, check),
        parse_time(&benign_text, check),
    );
    assert!(
        c <= 3 * b,
        "crafted labels parse in {c:?}, benign ones in {b:?}: name tables are collision-prone"
    );
}

/// One function per entry of `sizes`, declaring that many locals.
fn module_of_functions(sizes: &[usize]) -> String {
    let mut text = String::from("module spread\n");
    let mut k = 0;
    for (i, &n) in sizes.iter().enumerate() {
        text.push_str(&format!("fn f{i} params=0 locals=("));
        for v in k..k + n {
            text.push_str(&format!(" v{v}"));
        }
        text.push_str(" ) {\n}\n");
        k += n;
    }
    text
}

#[test]
fn a_big_function_does_not_slow_the_functions_after_it() {
    // The same functions in two orders: the parse does the same work, but
    // tables reused across functions would clear the big one's capacity
    // once per small function after it. Locals rather than labels: a
    // local is one header token, so the big table is cheap to fill next
    // to what clearing it would cost.
    let mut sizes = vec![1; SMALL_FUNCS + 1];
    sizes[0] = BIG_LOCALS;
    let big_first = module_of_functions(&sizes);
    sizes.rotate_left(1);
    let big_last = module_of_functions(&sizes);
    assert_eq!(big_first.len(), big_last.len());
    let locals = |m: &Module| {
        let n: usize = m.funcs.iter().map(|f| f.locals.len()).sum();
        assert_eq!(n, BIG_LOCALS + SMALL_FUNCS);
    };
    let (first, last) = (
        parse_time(&big_first, locals),
        parse_time(&big_last, locals),
    );
    assert!(
        3 * first <= 4 * last,
        "big function first parses in {first:?}, last in {last:?}: per-function tables are reused"
    );
}

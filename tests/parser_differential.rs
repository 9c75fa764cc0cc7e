//! Differential property: the borrowed-token parser
//! (`fence_ir::parser::parse_module`) agrees with the seed parser kept in
//! `fence_bench::naive` on every input. Either both accept, with modules
//! that print (and debug-format) identically, or both reject with the
//! identical `ParseError` — so an `invalid_ir` report quotes the same
//! diagnostic whichever parser produced it.
//!
//! Inputs: every `parser_fuzz` mutation family over its seed modules,
//! every kernel, corpus and manual module, the synthetic ladder, and a
//! list of hand-picked edge cases of the line and token rules.

use corpus::arbitrary::mutate::{apply, decode, seeds};
use fence_bench::naive::seed_parse_module;
use fence_ir::parser::parse_module;
use fence_ir::printer::print_module;
use proptest::prelude::*;

/// Panics unless both parsers give the same answer on `text`.
fn assert_agrees(text: &str) {
    match (parse_module(text), seed_parse_module(text)) {
        (Ok(got), Ok(want)) => {
            assert_eq!(
                print_module(&got),
                print_module(&want),
                "printed forms differ"
            );
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "modules differ");
        }
        (Err(got), Err(want)) => assert_eq!(got, want, "diagnostics differ on {text:?}"),
        (got, want) => panic!(
            "parsers disagree on {text:?}: got {:?}, seed {:?}",
            got.map(|m| m.name),
            want.map(|m| m.name)
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Mutated printed modules: the same six mutation families as the
    /// totality property in `parser_fuzz.rs`.
    #[test]
    fn parser_matches_seed_under_mutation(
        input in (
            0usize..6,
            proptest::collection::vec((0u32..6, any::<u64>(), any::<u64>()), 1..8),
        )
    ) {
        let (seed_idx, raw_mutations) = input;
        let mut text = seeds()[seed_idx].clone();
        for (op, a, b) in &raw_mutations {
            apply(&mut text, &decode(*op, *a, *b));
        }
        assert_agrees(&text);
    }
}

#[test]
fn parser_matches_seed_on_every_corpus_module() {
    let p = corpus::Params::tiny();
    let specs = ["kernel:*", "corpus:*", "manual:*"];
    let mut modules: Vec<fence_ir::Module> = corpus::resolve_specs(&specs, &p)
        .unwrap()
        .into_iter()
        .map(|e| e.module)
        .collect();
    modules.extend([250, 1000, 4000, 16000].map(corpus::synthetic_scaled));
    for m in &modules {
        let text = print_module(m);
        assert_agrees(&text);
        // Unparsable variants: the module with its last line cut.
        let cut = &text[..text.trim_end().rfind('\n').unwrap_or(0)];
        assert_agrees(cut);
    }
}

#[test]
fn parser_matches_seed_on_edge_cases() {
    let body = |header: &str, lines: &str| format!("module m\nglobal g 1\n{header}\n{lines}}}\n");
    let f = "fn f params=0 locals=() {";
    let cases = [
        String::new(),
        "\n \t\n; only comments\n".into(),
        "module".into(),
        "module a b".into(),
        "module m\r\nglobal g 2 = 1 2\r\n".into(),
        "module m\nglobal g 1 = 1 2\n".into(),
        "module m\nglobal g x\n".into(),
        "module m\nglobal g 1 2\n".into(),
        "module m\nglobal\u{a0}g 1\n".into(),
        "module\u{b}m\u{c}\nglobal g\t1\r\n".into(),
        "module m\n}x\n".into(),
        "module m\nfn{\n".into(),
        "module m\nfn f params=x locals=() {\n}\n".into(),
        "module m\nfn f params=0 locals=() {\n".into(),
        "module m\nfn f params=0\n}\n".into(),
        body(f, "bb0 :\n  ret\n"),
        body(f, "bb0: ret c1\n  ret\n"),
        body(f, "bb0: ; entry ; block\n\n\n  ret\nbb1: ;  \n  ret\n"),
        body(f, "bb+1:\n  ret\nbb0:\n  br bb+1\n"),
        body(f, "bb0:\n  %x = add c+5, c-0\n  %y = add %x, arg+0\n  ret %y\n"),
        body(f, "bb0:\n  %x = store @g, c1\n  ret\n"),
        body(f, "bb0:\n  %x = load @g\n  %x = load @g\n  ret\n"),
        body(f, "  ret\nbb0:\n  ret\n"),
        body(f, "bb3:\n  ret\n"),
        body(f, "bb2:\n  ret\n"),
        body(f, "bb1:\n  ret\n"),
        body(f, "bb0:\n  store @g c1\n  ret\n"),
        body(f, "bb0:\n  store @g,, c1\n  ret\n"),
        body(f, "bb0:\n  store @g, c1,\n  ret\n"),
        body(f, "bb0:\n  %c = cmp lt %nope, c1\n  ret\n"),
        body(f, "bb0:\n  fence full extra\n  fence\n  ret\n"),
        body(f, "bb0:\n  intrinsic lock_acquire(@g\n  ret\n"),
        body(f, "bb0:\n  call f()\n  call nope()\n  ret\n"),
        body(f, "bb0:\n  condbr c1, bb0 bb0\n  ret\n"),
        body(f, "bb0:\n  ret c1 c2\n"),
        body(f, "bb0:\n  frob c1\n  ret\n"),
        body(f, "bb0:\n  fn g\n  ret\n"),
        body(f, "bb0:\n  ret\n} trailing\n"),
        body("fn f params=0 locals=(a, a) {", "bb0:\n  ret\n"),
        body("fn f params=0 locals=(a b) entry=bb1 {", "bb0:\n  ret\nbb1:\n  write_local a, c1\n  %v = read_local b\n  ret %v\n"),
        body("fn f params=0 locals=(a) entry=x {", "bb0:\n  ret\n"),
        body("fn f params=0 locals {", "bb0:\n  ret\n"),
        body("fn f params=0 locals=() extra {", "bb0:\n  ret\n"),
        body(f, "bb0:\n  write_local nope, c1\n  write_local a c1\n  ret\n"),
        format!("{}{}", body(f, "bb0:\n  ret\n"), "fn f params=0 locals=() {\nbb0:\n  ret\n}\n"),
        format!("module m\n{f}\nbb0:\n  ret\n\u{2003}}}\nfn g params=1 locals=() {{\nbb0:\n  %r = call f()\n  ret arg0\n}}\n"),
    ];
    for text in &cases {
        assert_agrees(text);
    }
}

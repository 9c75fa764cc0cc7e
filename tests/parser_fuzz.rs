//! Property test: `parse_module` is total on arbitrary mutations of
//! well-formed printed IR — it returns `Ok` or a `ParseError` carrying a
//! plausible line number, and never panics, however the text is mangled.
//!
//! Mutations model realistic corruption of `file:` specs: truncated
//! writes, dropped/duplicated/swapped lines, and byte splices (snapped
//! to char boundaries so the input stays valid UTF-8).

use proptest::prelude::*;

use corpus::arbitrary::mutate::{apply, decode, seeds};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// However we mangle printed IR, the parser never panics: it returns
    /// `Ok` or a `ParseError` whose line number points into the text.
    #[test]
    fn parse_module_is_total_under_mutation(
        input in (
            0usize..6,
            proptest::collection::vec((0u32..6, any::<u64>(), any::<u64>()), 1..8),
        )
    ) {
        let (seed_idx, raw_mutations) = input;
        let seeds = seeds();
        let mut text = seeds[seed_idx].clone();
        for (op, a, b) in &raw_mutations {
            apply(&mut text, &decode(*op, *a, *b));
        }
        match fence_ir::parser::parse_module(&text) {
            Ok(module) => {
                // Whatever parsed must at least survive re-printing
                // (the printer indexes blocks/insts the parser built).
                let _ = fence_ir::printer::print_module(&module);
            }
            Err(e) => {
                let max_line = text.lines().count().max(1);
                prop_assert!(
                    e.line >= 1 && e.line <= max_line,
                    "error line {} outside 1..={} for error `{}`",
                    e.line,
                    max_line,
                    e
                );
                prop_assert!(!e.message.is_empty());
            }
        }
    }

    /// Splitting a concatenation of printed seed modules recovers each
    /// module's text: every chunk parses, and chunk-by-chunk parsing is
    /// equivalent to parsing each module individually (the streamed
    /// `pack:` ingestion path ≡ the per-file path).
    #[test]
    fn split_then_parse_equals_parse_individually(
        picks in proptest::collection::vec(0usize..6, 1..6)
    ) {
        let seeds = seeds();
        let mut pack = String::new();
        for &i in &picks {
            pack.push_str(&seeds[i]);
        }
        let chunks = corpus::split_corpus(&pack);
        prop_assert_eq!(chunks.len(), picks.len(), "one chunk per module");
        for (chunk, &i) in chunks.iter().zip(&picks) {
            let from_chunk = fence_ir::parser::parse_module(chunk)
                .expect("chunk of well-formed pack parses");
            let individually = fence_ir::parser::parse_module(&seeds[i]).unwrap();
            prop_assert_eq!(
                fence_ir::printer::print_module(&from_chunk),
                fence_ir::printer::print_module(&individually),
                "chunk {} diverges from its source module", i
            );
        }
    }

    /// The splitter is total on arbitrary mutations of a pack: it never
    /// panics, never loses bytes outside line endings — every chunk's
    /// lines appear in the input in order — and mis-split chunks merely
    /// fail to parse (the streamed path quarantines them).
    #[test]
    fn splitter_is_total_under_mutation(
        input in (
            proptest::collection::vec(0usize..6, 1..4),
            proptest::collection::vec((0u32..6, any::<u64>(), any::<u64>()), 1..8),
        )
    ) {
        let (picks, raw_mutations) = input;
        let seeds = seeds();
        let mut pack = String::new();
        for &i in &picks {
            pack.push_str(&seeds[i]);
        }
        for (op, a, b) in &raw_mutations {
            apply(&mut pack, &decode(*op, *a, *b));
        }
        let chunks = corpus::split_corpus(&pack);
        // Conservation: as long as any content line survived the
        // mutations, the chunks' lines are exactly the input's lines in
        // order. (A pack of only blank/comment lines yields no chunks.)
        let has_content = pack.lines().any(|l| {
            let code = l.split(';').next().unwrap_or("");
            code.split_whitespace().next().is_some()
        });
        let rejoined: Vec<&str> = chunks.iter().flat_map(|c| c.lines()).collect();
        if has_content {
            let original: Vec<&str> = pack.lines().collect();
            prop_assert_eq!(rejoined, original, "splitter must not lose or reorder lines");
        } else {
            prop_assert!(chunks.is_empty(), "content-free pack yields no chunks");
        }
        for chunk in &chunks {
            // Parsing a chunk must be total too (Ok or a ParseError).
            let _ = fence_ir::parser::parse_module(chunk);
        }
    }
}

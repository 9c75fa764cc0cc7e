//! Property-based tests (proptest) over randomly generated
//! flag-synchronized programs: the detector is conservative (every
//! generator-known acquire is found by Address+Control) and the pruning
//! rules never drop an ordering whose source/sink the rules require.

use fence_ir::builder::{FunctionBuilder, ModuleBuilder};
use fence_ir::Module;
use fenceplace::acquire::{detect_acquires, pensieve_all_reads, DetectMode};
use fenceplace::orderings::{FuncOrderings, OrderKind};
use fenceplace::{run_pipeline, PipelineConfig, Variant};
use proptest::prelude::*;

/// A little random-program generator: a consumer function that spins on
/// one of `n_flags` flags, then performs a shuffle of data reads/writes.
#[derive(Debug, Clone)]
struct Shape {
    n_data: usize,
    ops: Vec<(bool, usize)>, // (is_read, data index)
    flag_idx: usize,
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (1usize..5, 0usize..3).prop_flat_map(|(n_data, flag_idx)| {
        proptest::collection::vec((any::<bool>(), 0usize..n_data), 1..8).prop_map(move |ops| {
            Shape {
                n_data,
                ops,
                flag_idx,
            }
        })
    })
}

fn build(shape: &Shape) -> (Module, fence_ir::FuncId, fence_ir::InstId) {
    let mut mb = ModuleBuilder::new("gen");
    let flags = mb.global("flags", 4);
    let data = mb.global("data", shape.n_data.max(1) as u32);
    let mut f = FunctionBuilder::new("consumer", 0);
    let flag_p = f.gep(flags, shape.flag_idx as i64);
    // The spin: its load is the known acquire.
    let header = f.current_block();
    let _ = header;
    // Build spin manually so we can capture the load's id.
    let spin = f.new_block("spin");
    let cont = f.new_block("cont");
    f.br(spin);
    f.switch_to(spin);
    let lv = f.load(flag_p);
    let acquire_inst = lv.as_inst().unwrap();
    let c = f.eq(lv, 0i64);
    f.condbr(c, spin, cont);
    f.switch_to(cont);
    for &(is_read, idx) in &shape.ops {
        let p = f.gep(data, idx as i64);
        if is_read {
            let _ = f.load(p);
        } else {
            f.store(p, 1i64);
        }
    }
    f.ret(None);
    let fid = mb.add_func(f.build());
    (mb.finish(), fid, acquire_inst)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservatism: the generator's known acquire is always detected,
    /// by both algorithms (it is a control acquire).
    #[test]
    fn known_acquire_always_detected(shape in shape_strategy()) {
        let (m, fid, acquire) = build(&shape);
        let an = fence_analysis::ModuleAnalysis::run(&m);
        for mode in [DetectMode::Control, DetectMode::AddressControl] {
            let info = detect_acquires(&m, &an.points_to, &an.escape, fid, mode);
            prop_assert!(
                info.sync_reads.contains(acquire.index()),
                "{mode:?} missed the spin acquire"
            );
        }
    }

    /// Monotonicity: Control ⊆ Address+Control ⊆ escaping reads.
    #[test]
    fn detection_monotone(shape in shape_strategy()) {
        let (m, fid, _) = build(&shape);
        let an = fence_analysis::ModuleAnalysis::run(&m);
        let ctrl = detect_acquires(&m, &an.points_to, &an.escape, fid, DetectMode::Control);
        let both = detect_acquires(&m, &an.points_to, &an.escape, fid, DetectMode::AddressControl);
        let pens = pensieve_all_reads(&m, &an.escape, fid);
        for i in ctrl.sync_reads.iter() {
            prop_assert!(both.sync_reads.contains(i));
        }
        for i in both.sync_reads.iter() {
            prop_assert!(pens.sync_reads.contains(i));
        }
    }

    /// Pruning-rule correctness (Table I): every surviving r→r pair has an
    /// acquire source; every surviving w→r pair has an acquire sink; no
    /// r→w / w→w pair is ever dropped.
    #[test]
    fn pruning_respects_table1(shape in shape_strategy()) {
        let (m, fid, _) = build(&shape);
        let an = fence_analysis::ModuleAnalysis::run(&m);
        let info = detect_acquires(&m, &an.points_to, &an.escape, fid, DetectMode::Control);
        let substrate = fence_ir::FuncSubstrate::new(m.func(fid));
        let ords = FuncOrderings::generate(&m, &an.escape, fid, &substrate);
        let kept = ords.prune(&info.sync_reads);
        let kept_set: std::collections::HashSet<(u32, u32)> = kept.iter().collect();
        let mut n_pairs = 0usize;
        for pair in ords.iter_pairs() {
            n_pairs += 1;
            let (a, b) = pair;
            let fa = &ords.accesses[a as usize];
            let fb = &ords.accesses[b as usize];
            let expected = match ords.kind(pair) {
                OrderKind::RR => info.sync_reads.contains(fa.inst.index()),
                OrderKind::WR => info.sync_reads.contains(fb.inst.index()),
                OrderKind::RW | OrderKind::WW => true,
            };
            prop_assert_eq!(kept_set.contains(&pair), expected);
            prop_assert_eq!(kept.keeps(a, b), expected);
        }
        // The analytic counts agree with the explicit enumeration.
        prop_assert_eq!(ords.counts().iter().sum::<usize>(), n_pairs);
        prop_assert_eq!(kept.len(), kept_set.len());
    }

    /// The full pipeline never panics and produces verifying modules on
    /// arbitrary generated shapes.
    #[test]
    fn pipeline_total(shape in shape_strategy()) {
        let (m, _, _) = build(&shape);
        for variant in Variant::automatic() {
            let r = run_pipeline(&m, &PipelineConfig::for_variant(variant));
            prop_assert!(fence_ir::verify_module(r.module()).is_empty());
        }
    }

    /// Printer/parser round-trip on generated programs.
    #[test]
    fn print_parse_roundtrip(shape in shape_strategy()) {
        let (m, _, _) = build(&shape);
        let text = fence_ir::printer::print_module(&m);
        let parsed = fence_ir::parser::parse_module(&text).expect("parses");
        let text2 = fence_ir::printer::print_module(&parsed);
        prop_assert_eq!(text, text2);
    }
}

/// A generator stressing the alias oracle's inverted writer index:
/// direct global accesses, geps, private/published allocs, accesses
/// through unknown pointer args (the top bucket), multi-location
/// `select` addresses (cross-bucket dedup), RMWs and lock intrinsics.
#[derive(Debug, Clone)]
struct AliasShape {
    n_globals: usize,
    ops: Vec<(usize, usize, usize)>, // (opcode, global a, global b)
}

fn alias_shape_strategy() -> impl Strategy<Value = AliasShape> {
    (2usize..6).prop_flat_map(|n_globals| {
        proptest::collection::vec((0usize..10, 0usize..n_globals, 0usize..n_globals), 1..24)
            .prop_map(move |ops| AliasShape { n_globals, ops })
    })
}

fn build_alias(shape: &AliasShape) -> (Module, fence_ir::FuncId) {
    let mut mb = ModuleBuilder::new("alias_gen");
    let globals: Vec<_> = (0..shape.n_globals)
        .map(|i| mb.global(format!("g{i}"), 4))
        .collect();
    let mut f = FunctionBuilder::new("f", 2);
    for &(op, a, b) in &shape.ops {
        let ga = globals[a];
        let gb = globals[b];
        match op {
            0 => {
                let _ = f.load(ga);
            }
            1 => f.store(gb, 1i64),
            2 => {
                // Private alloc: a location set disjoint from globals.
                let p = f.alloc(2i64);
                f.store(p, 3i64);
                let _ = f.load(p);
            }
            3 => {
                let p = f.gep(gb, fence_ir::Value::Arg(0));
                f.store(p, 4i64);
            }
            4 => {
                let _ = f.load(fence_ir::Value::Arg(0)); // unknown read
            }
            5 => f.store(fence_ir::Value::Arg(1), 5i64), // unknown-top writer
            6 => {
                let p = f.select(fence_ir::Value::Arg(0), ga, gb);
                f.store(p, 6i64); // multi-location writer
            }
            7 => {
                let p = f.select(fence_ir::Value::Arg(1), ga, gb);
                let _ = f.load(p); // multi-location read
            }
            8 => {
                let _ = f.rmw(fence_ir::RmwOp::Add, ga, 1i64);
            }
            _ => f.lock_acquire(ga),
        }
    }
    f.ret(None);
    let fid = mb.add_func(f.build());
    (mb.finish(), fid)
}

/// The seed's linear `potential_writers` filter, recomputed here from
/// the points-to results alone (owned `to_bitset` sets, full writer
/// scan) — deliberately independent of the oracle's inverted index.
fn seed_potential_writers(
    m: &Module,
    pt: &fence_analysis::PointsTo,
    fid: fence_ir::FuncId,
    read: fence_ir::InstId,
) -> Vec<fence_ir::InstId> {
    use fence_ir::InstKind;
    let func = m.func(fid);
    let num = pt.num_locs();
    let locs_of = |iid: fence_ir::InstId| -> Option<fence_ir::util::BitSet> {
        let inst = func.inst(iid);
        if let Some(addr) = inst.kind.mem_addr() {
            Some(pt.addr_locs(fid, addr).to_bitset(num))
        } else if let InstKind::CallIntrinsic { intr, args } = &inst.kind {
            if intr.is_sync_boundary() {
                args.first().map(|&a| pt.addr_locs(fid, a).to_bitset(num))
            } else {
                None
            }
        } else {
            None
        }
    };
    let Some(rl) = locs_of(read) else {
        return Vec::new();
    };
    let unk = pt.unknown_idx();
    let mut out = Vec::new();
    for (iid, inst) in func.iter_insts() {
        let is_writer = inst.kind.is_mem_write()
            || matches!(
                &inst.kind,
                InstKind::CallIntrinsic { intr, args }
                    if intr.is_sync_boundary() && !args.is_empty()
            );
        if !is_writer || iid == read {
            continue;
        }
        let Some(wl) = locs_of(iid) else { continue };
        if rl.contains(unk) || wl.contains(unk) || rl.intersects(&wl) {
            out.push(iid);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The inverted-index oracle returns exactly the same writer set as
    /// the seed's linear filter, for every access of every generated
    /// module — including unknown-top reads/writers and multi-location
    /// addresses that require cross-bucket dedup.
    #[test]
    fn inverted_index_matches_seed_linear_filter(shape in alias_shape_strategy()) {
        let (m, fid) = build_alias(&shape);
        let pt = fence_analysis::PointsTo::analyze(&m);
        let oracle = fence_analysis::AliasOracle::new(&m, &pt, fid);
        let mut scratch = fence_analysis::alias::WriterScratch::new();
        let func = m.func(fid);
        for (iid, _) in func.iter_insts() {
            let want = seed_potential_writers(&m, &pt, fid, iid);
            // Push-style query with a reused scratch (the slicer's path).
            let mut got = Vec::new();
            oracle.for_each_potential_writer(iid, &mut scratch, |w| got.push(w));
            got.sort();
            prop_assert_eq!(
                &got, &want,
                "writers diverge for inst {} of {:?}",
                iid.index(), &shape
            );
            // The materialized compat API agrees too.
            let mut got_vec = oracle.potential_writers(iid);
            got_vec.sort();
            prop_assert_eq!(got_vec, want);
        }
    }
}

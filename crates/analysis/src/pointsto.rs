//! Andersen-style flow-insensitive, field-insensitive points-to analysis,
//! solved with a worklist over an explicit constraint graph.
//!
//! Abstract locations are globals, `alloc` sites (one per syntactic site),
//! and a single `Unknown` top element modelling addresses the analysis
//! cannot resolve (entry-function pointer arguments, raw integers used as
//! addresses). Precision is deliberately in the same class as the
//! conservative substrate the paper builds on: **field-insensitive** (a
//! whole global/array is one location) and **flow-insensitive** (one set
//! per value for the whole program).
//!
//! Constraints (solved to least fixpoint):
//!
//! | instruction          | constraint                                        |
//! |----------------------|---------------------------------------------------|
//! | `%r = alloc n`       | `pts(r) ⊇ {site}`                                 |
//! | `%r = gep b, i`      | `pts(r) ⊇ pts(b)` (index is an integer)           |
//! | `%r = bin a, b`      | `pts(r) ⊇ pts(a) ∪ pts(b)` (pointer arithmetic)   |
//! | `%r = select c,a,b`  | `pts(r) ⊇ pts(a) ∪ pts(b)`                        |
//! | `%r = load p`        | `pts(r) ⊇ ⋃_{L ∈ locs(p)} pts(L)`                 |
//! | `store p, v`         | `∀ L ∈ locs(p): pts(L) ⊇ pts(v)` (weak update)    |
//! | locals               | flow through the slot's set                       |
//! | `call f(a…) → r`     | `pts(param_i) ⊇ pts(a_i)`, `pts(r) ⊇ pts(ret_f)`  |
//!
//! `locs(p)` resolves an *address* operand: if `pts(p)` is empty, the
//! address is unknown ⇒ `{Unknown}`.
//!
//! ## Solver architecture: a function-sharded constraint graph
//!
//! The first rewrite replaced fixpoint-by-re-execution with a worklist
//! over an explicit constraint graph. This version additionally
//! **shards the graph by function** around a small shared frontier:
//!
//! 1. every value/argument/local/return and every abstract location gets
//!    one dense *node* holding its points-to `BitSet`. Node ids are laid
//!    out **location nodes first, then one contiguous group per
//!    function** — the group *is* the shard, so per-shard state splits
//!    into disjoint slices;
//! 2. non-memory constraints become static copy edges (`pts(dst) ⊇
//!    pts(src)`) in one CSR table (two counting passes, two allocations —
//!    the old per-node `Vec`s and per-node delta `BitSet`s made graph
//!    construction the dominant cost of the whole analysis); memory
//!    constraints subscribe to their address node and are wired lazily —
//!    when the address set gains a location `L`, the solver adds
//!    `pts(L) → dst` (load) / `src → pts(L)` (store) edges on the fly;
//!    deltas live in one flat word matrix, wired edges in sparse
//!    overflow lists;
//! 3. the initial pass applies every instruction once in program order:
//!    a single **sequential** pass that replicates the old solver's first
//!    round bit-for-bit, including the conservative `locs(p) = ∅ ⇒
//!    {Unknown}` resolution against in-round intermediate states — the
//!    one order-sensitive rule, which is why this pass cannot shard
//!    without changing answers;
//! 4. the remaining fixpoint rounds drain **per-function worklists**.
//!    Each shard propagates deltas entirely within its own node group;
//!    effects that cross the shard boundary — copies into the shared
//!    location frontier, call/return edges into other functions, and
//!    memory-constraint wiring — are buffered and merged between rounds.
//!    With `parallel` solving, the shards of one round run on the
//!    persistent [`fence_ir::pool`] thread pool and the frontier merge
//!    stays sequential.
//!
//! Sharding cannot change the answer: after the initial pass pins the
//! `∅ ⇒ {Unknown}` wiring decisions, the constraint system is monotone,
//! so its least fixpoint is schedule-independent — parallel and
//! sequential runs produce bit-identical sets (a golden test and a
//! property test against the legacy solver pin this). Each
//! location/edge/constraint is touched `O(1)` times per new bit, so
//! solving is near-linear in `constraints + propagated bits` instead of
//! quadratic in program size.
//!
//! **Equivalence contract.** The `∅ ⇒ {Unknown}` fallback is the one
//! non-monotone rule, so the re-execution solver's result was defined by
//! its sweep schedule, not by the constraint system alone. This solver
//! reproduces it exactly except in one corner: a `{Unknown}`-resolved
//! constraint stays wired to `Unknown` even after its address set later
//! becomes non-empty, so anything stored to `Unknown` *after* that
//! transition still reaches the constraint — where the old solver's
//! last empty-address round would have cut it off. In that corner the
//! result is a strict (still sound, more conservative) superset. No
//! corpus program hits it: `tests/golden_pipeline.rs` pins every
//! pipeline output, and both the `matches_naive_fixpoint_reference`
//! unit test below and `tests/pointsto_sharded.rs` diff every set
//! against the preserved seed solver (`fence_bench::naive`).
//!
//! ## Borrowed query API
//!
//! [`PointsTo::value_set`] / [`PointsTo::addr_locs`] return a [`PtsView`]
//! — a borrowed view (`Empty` / `Singleton` / `&BitSet`) instead of a
//! freshly allocated `BitSet`, so downstream consumers (`escape`,
//! `alias`, the acquire detector) no longer allocate per query.

use fence_ir::util::BitSet;
use fence_ir::{FuncId, GlobalId, InstId, InstKind, LocalId, Module, Value};

/// An abstract memory location.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum AbsLoc {
    /// A whole global region (field-insensitive).
    Global(GlobalId),
    /// One `alloc` site (all cells it ever returns).
    Alloc(FuncId, InstId),
    /// Statically unresolvable memory. Aliases everything.
    Unknown,
}

/// A borrowed view of a points-to set — no allocation per query.
///
/// ```
/// use fence_ir::builder::{FunctionBuilder, ModuleBuilder};
/// use fence_ir::Value;
/// use fence_analysis::pointsto::{PointsTo, PtsView};
///
/// let mut mb = ModuleBuilder::new("m");
/// let g = mb.global("g", 1);
/// let mut fb = FunctionBuilder::new("f", 0);
/// fb.ret(None);
/// let fid = mb.add_func(fb.build());
/// let pt = PointsTo::analyze(&mb.finish());
///
/// // Constants have the empty view; globals are singletons.
/// assert!(pt.value_set(fid, Value::c(7)).is_empty());
/// let view = pt.value_set(fid, Value::Global(g));
/// assert!(view.contains(g.index()));
/// assert_eq!(view.iter().collect::<Vec<_>>(), vec![g.index()]);
/// ```
#[derive(Copy, Clone, Debug)]
pub enum PtsView<'a> {
    /// The empty set (constants, non-pointer values).
    Empty,
    /// A one-element set (a `Value::Global`, or the `Unknown` fallback).
    Singleton(usize),
    /// A borrowed solver set.
    Set(&'a BitSet),
}

impl<'a> PtsView<'a> {
    /// Membership test.
    #[inline]
    pub fn contains(&self, idx: usize) -> bool {
        match self {
            PtsView::Empty => false,
            PtsView::Singleton(s) => *s == idx,
            PtsView::Set(b) => b.contains(idx),
        }
    }

    /// `true` if no locations are in the set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        match self {
            PtsView::Empty => true,
            PtsView::Singleton(_) => false,
            PtsView::Set(b) => b.is_empty(),
        }
    }

    /// Number of locations in the set.
    pub fn count(&self) -> usize {
        match self {
            PtsView::Empty => 0,
            PtsView::Singleton(_) => 1,
            PtsView::Set(b) => b.count(),
        }
    }

    /// `true` if the view shares an element with `other`.
    pub fn intersects(&self, other: &BitSet) -> bool {
        match self {
            PtsView::Empty => false,
            PtsView::Singleton(s) => other.contains(*s),
            PtsView::Set(b) => b.intersects(other),
        }
    }

    /// `true` if two views share an element (no materialization).
    pub fn intersects_view(&self, other: &PtsView<'_>) -> bool {
        match (self, other) {
            (PtsView::Empty, _) | (_, PtsView::Empty) => false,
            (PtsView::Singleton(a), PtsView::Singleton(b)) => a == b,
            (PtsView::Singleton(a), PtsView::Set(s)) | (PtsView::Set(s), PtsView::Singleton(a)) => {
                s.contains(*a)
            }
            (PtsView::Set(a), PtsView::Set(b)) => a.intersects(b),
        }
    }

    /// Iterates the locations in ascending order.
    pub fn iter(&self) -> PtsIter<'a> {
        match self {
            PtsView::Empty => PtsIter::Done,
            PtsView::Singleton(s) => PtsIter::Once(Some(*s)),
            PtsView::Set(b) => PtsIter::Bits { set: b, next: 0 },
        }
    }

    /// Materializes the view into an owned `BitSet` over `universe`
    /// elements (used by callers that cache sets).
    pub fn to_bitset(&self, universe: usize) -> BitSet {
        match self {
            PtsView::Empty => BitSet::new(universe),
            PtsView::Singleton(s) => {
                let mut b = BitSet::new(universe);
                b.insert(*s);
                b
            }
            PtsView::Set(src) => (*src).clone(),
        }
    }
}

/// Iterator over a [`PtsView`].
pub enum PtsIter<'a> {
    /// Exhausted.
    Done,
    /// Singleton state.
    Once(Option<usize>),
    /// Walking a borrowed bitset word by word.
    Bits {
        /// Underlying set.
        set: &'a BitSet,
        /// Next candidate index.
        next: usize,
    },
}

impl Iterator for PtsIter<'_> {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        match self {
            PtsIter::Done => None,
            PtsIter::Once(v) => v.take(),
            PtsIter::Bits { set, next } => {
                let found = set.next_set_bit(*next)?;
                *next = found + 1;
                Some(found)
            }
        }
    }
}

/// The value a `store`-side constraint copies from.
#[derive(Copy, Clone, Debug)]
enum Src {
    /// A solver node.
    Node(u32),
    /// A constant global address (singleton contribution).
    Global(u32),
}

/// One memory constraint, wired lazily as its address set grows. The
/// already-wired location set lives in the solver's flat `resolved`
/// matrix (one row per constraint) rather than one `BitSet` per
/// constraint.
#[derive(Copy, Clone)]
struct MemCon {
    /// Destination node of the read part (`load`/`rmw`/`cas` result).
    load_to: Option<u32>,
    /// Source of the written value, if any.
    store_src: Option<Src>,
}

/// Result of the points-to analysis for a whole module.
pub struct PointsTo {
    /// All abstract locations; `locs[i]` is the location with index `i`.
    locs: Vec<AbsLoc>,
    /// Index of the `Unknown` location (always last).
    unknown: usize,
    /// One points-to set per node; locations occupy nodes `0..locs.len()`.
    pts: Vec<BitSet>,
    /// First argument node of each function.
    arg_base: Vec<u32>,
    /// First local-slot node of each function.
    local_base: Vec<u32>,
    /// First instruction-result node of each function.
    val_base: Vec<u32>,
    /// Return-value node of each function.
    ret_node: Vec<u32>,
}

impl PointsTo {
    /// Runs the analysis to fixpoint over the whole module,
    /// sequentially.
    ///
    /// ```
    /// use fence_ir::builder::{FunctionBuilder, ModuleBuilder};
    /// use fence_analysis::pointsto::PointsTo;
    ///
    /// let mut mb = ModuleBuilder::new("m");
    /// let x = mb.global("x", 1);
    /// let y = mb.global("y", 1);
    /// let mut fb = FunctionBuilder::new("f", 0);
    /// fb.store(y, x);        // y := &x
    /// let p = fb.load(y);    // p points to x
    /// fb.ret(None);
    /// let fid = mb.add_func(fb.build());
    /// let m = mb.finish();
    ///
    /// let pt = PointsTo::analyze(&m);
    /// assert!(pt.value_set(fid, p).contains(x.index()));
    /// ```
    pub fn analyze(module: &Module) -> Self {
        Self::analyze_on(module, false)
    }

    /// Runs the analysis with the post-initial-pass fixpoint rounds
    /// sharded per function; with `parallel`, shards of one round run on
    /// the persistent [`fence_ir::pool`] thread pool. Bit-identical to
    /// [`PointsTo::analyze`] (see the module docs).
    pub fn analyze_on(module: &Module, parallel: bool) -> Self {
        Solver::build(module).solve(parallel)
    }

    #[inline]
    fn node_of(&self, f: FuncId, v: Value) -> Option<u32> {
        match v {
            Value::Const(_) | Value::Global(_) => None,
            Value::Arg(a) => Some(self.arg_base[f.index()] + a as u32),
            Value::Inst(i) => Some(self.val_base[f.index()] + i.index() as u32),
        }
    }

    /// The points-to set of a value (empty for constants/integers),
    /// borrowed from the solver — no allocation.
    pub fn value_set(&self, f: FuncId, v: Value) -> PtsView<'_> {
        match v {
            Value::Const(_) => PtsView::Empty,
            Value::Global(g) => PtsView::Singleton(g.index()),
            _ => {
                let node = self.node_of(f, v).expect("arg/inst has a node");
                let set = &self.pts[node as usize];
                if set.is_empty() {
                    PtsView::Empty
                } else {
                    PtsView::Set(set)
                }
            }
        }
    }

    /// Resolves an *address* operand to abstract locations; an empty set
    /// means "statically unknown address" and becomes `{Unknown}`.
    pub fn addr_locs(&self, f: FuncId, addr: Value) -> PtsView<'_> {
        let v = self.value_set(f, addr);
        if v.is_empty() {
            PtsView::Singleton(self.unknown)
        } else {
            v
        }
    }

    /// Index of the `Unknown` location.
    #[inline]
    pub fn unknown_idx(&self) -> usize {
        self.unknown
    }

    /// The abstract location with dense index `i`.
    #[inline]
    pub fn loc(&self, i: usize) -> AbsLoc {
        self.locs[i]
    }

    /// Number of abstract locations.
    #[inline]
    pub fn num_locs(&self) -> usize {
        self.locs.len()
    }

    /// Pointee set of a location.
    #[inline]
    pub fn loc_pts(&self, i: usize) -> &BitSet {
        &self.pts[i]
    }

    /// The points-to set of a local slot.
    pub fn local_set(&self, f: FuncId, l: LocalId) -> &BitSet {
        &self.pts[(self.local_base[f.index()] + l.index() as u32) as usize]
    }
}

/// Cross-shard effect buffered by a function shard during a parallel
/// round, applied by the sequential frontier merge.
#[derive(Copy, Clone)]
enum Out {
    /// `pts(dst) ⊇ pts(src)` across a shard boundary (a store into the
    /// location frontier, or a call/return edge into another function).
    /// The merge propagates the *full* source set, which subsumes
    /// whatever delta the shard held when it buffered the effect.
    Copy { src: u32, dst: u32 },
    /// Wire memory constraint `con` against location `loc`.
    Wire { con: u32, loc: u32 },
}

/// Worklist control of one shard (the shared location frontier, or one
/// function's node group).
struct ShardCtl {
    /// First node id of the shard's contiguous range.
    base: u32,
    /// Pending nodes (global ids).
    wl: Vec<u32>,
    /// Dedup mask over the shard's local index space.
    on_list: BitSet,
    /// Cross-shard effects buffered during a parallel round.
    outbox: Vec<Out>,
}

/// The per-shard working set a parallel round hands to the pool: the
/// shard's disjoint slices of the points-to table and delta matrix, plus
/// its worklist control.
struct ShardJob<'a> {
    base: u32,
    len: u32,
    pts: &'a mut [BitSet],
    delta: &'a mut [u64],
    ctl: &'a mut ShardCtl,
}

/// Constraint-graph solver state, sharded by function.
///
/// Node ids are laid out location nodes first (`0..num_locs`, the shared
/// frontier), then one contiguous group per function — so shard state
/// splits into disjoint slices and per-function rounds can run on the
/// thread pool without locks on the hot path.
struct Solver<'m> {
    module: &'m Module,
    result: PointsTo,
    /// Words per points-to row (`num_locs.div_ceil(64)`).
    words: usize,
    /// First node of each function's group (ascending; the group of
    /// function `f` ends where group `f + 1` begins, or at `num_nodes`).
    group_base: Vec<u32>,
    /// Owning shard of each node (0 = location frontier, `1 + f` =
    /// function `f`), precomputed so `enqueue` stays O(1) on the
    /// propagation hot path.
    shard_of: Vec<u32>,
    /// Static copy edges `from → to`, CSR (`csr_off[n]..csr_off[n + 1]`
    /// indexes `csr_dst`). Built with two counting passes — no per-node
    /// `Vec` growth, which used to dominate analysis time.
    csr_off: Vec<u32>,
    csr_dst: Vec<u32>,
    /// Dynamically wired edges (loads: `loc → dst`; stores:
    /// `src → loc`). Sparse: only location nodes and store sources are
    /// ever touched.
    dyn_edges: Vec<Vec<u32>>,
    /// Memory constraints, wired lazily.
    mem_cons: Vec<MemCon>,
    /// Already-wired locations, one flat row per constraint.
    resolved: Vec<u64>,
    /// Memory-constraint index of an instruction's *result node*
    /// (`u32::MAX` = none); replaces the old hash map.
    con_of: Vec<u32>,
    /// `subs[node]` — memory constraints whose address is `node`.
    subs: Vec<Vec<u32>>,
    /// Per-node pending delta bits, one flat row per node.
    delta: Vec<u64>,
    /// Worklists: `shards[0]` is the shared location frontier,
    /// `shards[1 + f]` is function `f`.
    shards: Vec<ShardCtl>,
    /// Reusable delta-row snapshot for direct drains.
    scratch: Vec<u64>,
    /// Dense map from alloc site to its location index.
    alloc_idx: fence_ir::util::FastMap<(u32, u32), usize>,
}

impl<'m> Solver<'m> {
    /// Enumerates locations and nodes, builds the static CSR copy-edge
    /// table and the memory-constraint records.
    fn build(module: &'m Module) -> Self {
        // ---- enumerate abstract locations ----
        let mut locs: Vec<AbsLoc> = module
            .iter_globals()
            .map(|(g, _)| AbsLoc::Global(g))
            .collect();
        for (fid, func) in module.iter_funcs() {
            for (iid, inst) in func.iter_insts() {
                if matches!(inst.kind, InstKind::Alloc { .. }) {
                    locs.push(AbsLoc::Alloc(fid, iid));
                }
            }
        }
        let unknown = locs.len();
        locs.push(AbsLoc::Unknown);
        let n = locs.len();
        let words = n.div_ceil(64);

        let mut alloc_idx: fence_ir::util::FastMap<(u32, u32), usize> =
            fence_ir::util::FastMap::default();
        for (i, l) in locs.iter().enumerate() {
            if let AbsLoc::Alloc(f, inst) = l {
                alloc_idx.insert((f.index() as u32, inst.index() as u32), i);
            }
        }

        // ---- node layout: locations first, then per-function shards ----
        let nf = module.funcs.len();
        let mut arg_base = Vec::with_capacity(nf);
        let mut local_base = Vec::with_capacity(nf);
        let mut val_base = Vec::with_capacity(nf);
        let mut ret_node = Vec::with_capacity(nf);
        let mut group_base = Vec::with_capacity(nf);
        let mut next = n as u32;
        for func in &module.funcs {
            group_base.push(next);
            arg_base.push(next);
            next += func.num_params as u32;
            local_base.push(next);
            next += func.locals.len() as u32;
            val_base.push(next);
            next += func.num_insts() as u32;
            ret_node.push(next);
            next += 1;
        }
        let num_nodes = next as usize;

        let mut result = PointsTo {
            locs,
            unknown,
            pts: vec![BitSet::new(n); num_nodes],
            arg_base,
            local_base,
            val_base,
            ret_node,
        };
        // Unknown memory points to unknown memory.
        result.pts[unknown].insert(unknown);

        // ---- shard worklists ----
        let mut shards = Vec::with_capacity(nf + 1);
        shards.push(ShardCtl {
            base: 0,
            wl: Vec::new(),
            on_list: BitSet::new(n),
            outbox: Vec::new(),
        });
        for f in 0..nf {
            let end = if f + 1 < nf {
                group_base[f + 1]
            } else {
                num_nodes as u32
            };
            shards.push(ShardCtl {
                base: group_base[f],
                wl: Vec::new(),
                on_list: BitSet::new((end - group_base[f]) as usize),
                outbox: Vec::new(),
            });
        }

        let mut shard_of = vec![0u32; num_nodes];
        for f in 0..nf {
            let end = if f + 1 < nf {
                group_base[f + 1] as usize
            } else {
                num_nodes
            };
            shard_of[group_base[f] as usize..end].fill((f + 1) as u32);
        }

        let mut this = Solver {
            module,
            result,
            words,
            group_base,
            shard_of,
            csr_off: Vec::new(),
            csr_dst: Vec::new(),
            dyn_edges: vec![Vec::new(); num_nodes],
            mem_cons: Vec::new(),
            resolved: Vec::new(),
            con_of: vec![u32::MAX; num_nodes],
            subs: vec![Vec::new(); num_nodes],
            delta: vec![0u64; num_nodes * words],
            shards,
            scratch: vec![0u64; words],
            alloc_idx,
        };
        this.build_static_csr(num_nodes);
        this.register_mem_cons();
        this
    }

    #[inline]
    fn node_of(&self, f: FuncId, v: Value) -> Option<u32> {
        self.result.node_of(f, v)
    }

    /// Walks every instruction once per pass, reporting each static copy
    /// edge `src → dst` (node sources only — global/constant
    /// contributions are fixed singletons applied by the initial pass).
    fn for_each_static_edge(&self, mut f: impl FnMut(u32, u32)) {
        let r = &self.result;
        for (fid, func) in self.module.iter_funcs() {
            let fi = fid.index();
            let copy = |src: Value, dst: u32, f: &mut dyn FnMut(u32, u32)| {
                if let Some(s) = r.node_of(fid, src) {
                    f(s, dst);
                }
            };
            for (iid, inst) in func.iter_insts() {
                let dst = r.val_base[fi] + iid.index() as u32;
                match &inst.kind {
                    InstKind::Gep { base, .. } => copy(*base, dst, &mut f),
                    InstKind::Bin { lhs, rhs, .. } => {
                        copy(*lhs, dst, &mut f);
                        copy(*rhs, dst, &mut f);
                    }
                    InstKind::Select {
                        then_val, else_val, ..
                    } => {
                        copy(*then_val, dst, &mut f);
                        copy(*else_val, dst, &mut f);
                    }
                    InstKind::ReadLocal { local } => {
                        f(r.local_base[fi] + local.index() as u32, dst);
                    }
                    InstKind::WriteLocal { local, val } => {
                        copy(*val, r.local_base[fi] + local.index() as u32, &mut f);
                    }
                    InstKind::Call { callee, args } => {
                        let cf = callee.index();
                        let nparams = self.module.funcs[cf].num_params as usize;
                        for (k, a) in args.iter().enumerate() {
                            if k < nparams {
                                copy(*a, r.arg_base[cf] + k as u32, &mut f);
                            }
                        }
                        f(r.ret_node[cf], dst);
                    }
                    InstKind::Ret { val: Some(v) } => copy(*v, r.ret_node[fi], &mut f),
                    // Alloc seeds are applied by the initial pass; cmp
                    // results, fences, intrinsics, branches: no flow.
                    _ => {}
                }
            }
        }
    }

    /// Two-pass CSR construction (count, prefix-sum, fill).
    fn build_static_csr(&mut self, num_nodes: usize) {
        let mut count = vec![0u32; num_nodes + 1];
        self.for_each_static_edge(|s, _| count[s as usize + 1] += 1);
        for i in 0..num_nodes {
            count[i + 1] += count[i];
        }
        let total = count[num_nodes] as usize;
        let mut dst = vec![0u32; total];
        let mut cursor = count.clone();
        self.for_each_static_edge(|s, d| {
            dst[cursor[s as usize] as usize] = d;
            cursor[s as usize] += 1;
        });
        self.csr_off = count;
        self.csr_dst = dst;
    }

    /// Registers one memory constraint per load/store/RMW/CAS that moves
    /// pointers, and its address-node subscription.
    fn register_mem_cons(&mut self) {
        for (fid, func) in self.module.iter_funcs() {
            let fi = fid.index();
            for (iid, inst) in func.iter_insts() {
                let dst = self.result.val_base[fi] + iid.index() as u32;
                let (addr, load_to, store_val) = match &inst.kind {
                    InstKind::Load { addr } => (*addr, Some(dst), None),
                    InstKind::Store { addr, val } => (*addr, None, Some(*val)),
                    InstKind::AtomicRmw { addr, val, .. } => (*addr, Some(dst), Some(*val)),
                    InstKind::AtomicCas { addr, new, .. } => (*addr, Some(dst), Some(*new)),
                    _ => continue,
                };
                let store_src = match store_val {
                    None | Some(Value::Const(_)) => None,
                    Some(Value::Global(g)) => Some(Src::Global(g.index() as u32)),
                    Some(v) => Some(Src::Node(self.node_of(fid, v).expect("arg/inst node"))),
                };
                if load_to.is_none() && store_src.is_none() {
                    continue; // stores of constants move no pointers
                }
                let idx = self.mem_cons.len() as u32;
                self.mem_cons.push(MemCon { load_to, store_src });
                self.con_of[dst as usize] = idx;
                // Node addresses are wired lazily as their sets grow;
                // global addresses resolve to fixed singletons and are
                // wired once by the initial pass at their program point.
                if let Some(node) = self.node_of(fid, addr) {
                    self.subs[node as usize].push(idx);
                }
            }
        }
        self.resolved = vec![0u64; self.mem_cons.len() * self.words];
    }

    #[inline]
    fn delta_row(delta: &mut [u64], words: usize, node: usize) -> &mut [u64] {
        &mut delta[node * words..(node + 1) * words]
    }

    fn enqueue(&mut self, node: u32) {
        let s = self.shard_of[node as usize] as usize;
        let ctl = &mut self.shards[s];
        if ctl.on_list.insert((node - ctl.base) as usize) {
            ctl.wl.push(node);
        }
    }

    fn pop_shard(&mut self, s: usize) -> Option<u32> {
        let ctl = &mut self.shards[s];
        let g = ctl.wl.pop()?;
        ctl.on_list.remove((g - ctl.base) as usize);
        Some(g)
    }

    /// Applies `pts(dst) ∪= pts(src_value)` *now* (delta-tracked), exactly
    /// like one visit of the legacy solver.
    fn union_value_into(&mut self, f: FuncId, src: Value, dst: u32) {
        match src {
            Value::Const(_) => {}
            Value::Global(g) => self.insert_bit(dst, g.index()),
            _ => {
                let s = self.node_of(f, src).expect("arg/inst node");
                self.propagate_full(s, dst);
            }
        }
    }

    /// Pushes `pts(src)` into `dst` (used when an edge appears late, and
    /// by the frontier merge, where the full set subsumes any buffered
    /// delta).
    fn propagate_full(&mut self, src: u32, dst: u32) {
        if src == dst {
            return;
        }
        let (s, d) = (src as usize, dst as usize);
        let drow = Self::delta_row(&mut self.delta, self.words, d);
        // Split-borrow the pts table around the two nodes.
        let (a, b) = if s < d {
            let (lo, hi) = self.result.pts.split_at_mut(d);
            (&lo[s], &mut hi[0])
        } else {
            let (lo, hi) = self.result.pts.split_at_mut(s);
            (&hi[0], &mut lo[d])
        };
        if b.union_words(a.words(), drow) {
            self.enqueue(dst);
        }
    }

    fn insert_bit(&mut self, node: u32, bit: usize) {
        if self.result.pts[node as usize].insert(bit) {
            self.delta[node as usize * self.words + bit / 64] |= 1u64 << (bit % 64);
            self.enqueue(node);
        }
    }

    /// Wires constraint `con` against location `l` (idempotent).
    fn wire(&mut self, con: u32, l: usize) {
        let slot = con as usize * self.words + l / 64;
        let bit = 1u64 << (l % 64);
        if self.resolved[slot] & bit != 0 {
            return;
        }
        self.resolved[slot] |= bit;
        let c = self.mem_cons[con as usize];
        if let Some(dst) = c.load_to {
            self.dyn_edges[l].push(dst);
            self.propagate_full(l as u32, dst);
        }
        match c.store_src {
            Some(Src::Node(s)) => {
                self.dyn_edges[s as usize].push(l as u32);
                self.propagate_full(s, l as u32);
            }
            Some(Src::Global(g)) => {
                self.insert_bit(l as u32, g as usize);
            }
            None => {}
        }
    }

    /// Replays the legacy solver's first round: every constraint is
    /// applied exactly once, in program order, against the in-round
    /// intermediate state — direct unions only, no transitive
    /// propagation. This pins down the conservative `∅ ⇒ {Unknown}`
    /// address resolutions exactly as the fixpoint-by-re-execution solver
    /// made them (the empty-set fallback is the one non-monotone rule, so
    /// *when* a set was empty matters); every union the pass performs is
    /// one the worklist closure implies anyway. Because the rule is
    /// order-sensitive **across functions** (callers fill callee argument
    /// nodes, stores fill the shared location frontier), this pass always
    /// runs sequentially — sharding begins only at the monotone fixpoint
    /// rounds that follow.
    fn initial_pass(&mut self) {
        let mut locs_scratch: Vec<u32> = Vec::new();
        for (fid, func) in self.module.iter_funcs() {
            let fi = fid.index();
            for (iid, inst) in func.iter_insts() {
                let dst = self.result.val_base[fi] + iid.index() as u32;
                match &inst.kind {
                    InstKind::Alloc { .. } => {
                        let li = self.alloc_idx[&(fi as u32, iid.index() as u32)];
                        self.insert_bit(dst, li);
                    }
                    InstKind::Gep { base, .. } => self.union_value_into(fid, *base, dst),
                    InstKind::Bin { lhs, rhs, .. } => {
                        self.union_value_into(fid, *lhs, dst);
                        self.union_value_into(fid, *rhs, dst);
                    }
                    InstKind::Select {
                        then_val, else_val, ..
                    } => {
                        self.union_value_into(fid, *then_val, dst);
                        self.union_value_into(fid, *else_val, dst);
                    }
                    InstKind::Load { addr }
                    | InstKind::Store { addr, .. }
                    | InstKind::AtomicRmw { addr, .. }
                    | InstKind::AtomicCas { addr, .. } => {
                        let con = self.con_of[dst as usize];
                        if con == u32::MAX {
                            continue; // store of a constant: moves no pointers
                        }
                        locs_scratch.clear();
                        match self.result.value_set(fid, *addr) {
                            PtsView::Empty => locs_scratch.push(self.result.unknown as u32),
                            view => locs_scratch.extend(view.iter().map(|l| l as u32)),
                        }
                        for &l in &locs_scratch {
                            self.wire(con, l as usize);
                        }
                    }
                    InstKind::ReadLocal { local } => {
                        let l = self.result.local_base[fi] + local.index() as u32;
                        self.propagate_full(l, dst);
                    }
                    InstKind::WriteLocal { local, val } => {
                        let l = self.result.local_base[fi] + local.index() as u32;
                        self.union_value_into(fid, *val, l);
                    }
                    InstKind::Call { callee, args } => {
                        let cf = callee.index();
                        let nparams = self.module.funcs[cf].num_params as usize;
                        for (k, a) in args.iter().enumerate() {
                            if k < nparams {
                                let p = self.result.arg_base[cf] + k as u32;
                                self.union_value_into(fid, *a, p);
                            }
                        }
                        let r = self.result.ret_node[cf];
                        self.propagate_full(r, dst);
                    }
                    InstKind::Ret { val: Some(v) } => {
                        let r = self.result.ret_node[fi];
                        self.union_value_into(fid, *v, r);
                    }
                    _ => {}
                }
            }
        }
    }

    /// Seeds the worklists with every nonempty node's full set so every
    /// static edge sees its source's initial contents at least once;
    /// from then on only deltas travel.
    fn seed(&mut self) {
        let w = self.words;
        for node in 0..self.result.pts.len() {
            if !self.result.pts[node].is_empty() {
                let (pts, delta) = (&self.result.pts, &mut self.delta);
                for (d, s) in Self::delta_row(delta, w, node)
                    .iter_mut()
                    .zip(pts[node].words())
                {
                    *d |= s;
                }
                self.enqueue(node as u32);
            }
        }
    }

    /// Drains one node, applying every effect directly (used by the
    /// sequential drain for all shards, and by the sharded drain for the
    /// shared location frontier and the inter-round merge).
    fn drain_node_direct(&mut self, g: u32) {
        let gi = g as usize;
        let w = self.words;
        // Snapshot the delta row through the reusable scratch, then clear
        // it — a drain step allocates nothing.
        let mut scratch = std::mem::take(&mut self.scratch);
        let drow = Self::delta_row(&mut self.delta, w, gi);
        scratch.copy_from_slice(drow);
        drow.fill(0);
        if scratch.iter().all(|&x| x == 0) {
            self.scratch = scratch;
            return;
        }
        // Static copy edges: pushing just the delta is enough because
        // every edge propagates the full source set when first created.
        for k in self.csr_off[gi]..self.csr_off[gi + 1] {
            let t = self.csr_dst[k as usize];
            self.apply_delta(&scratch, t, gi);
        }
        // Dynamically wired edges.
        let dyns = std::mem::take(&mut self.dyn_edges[gi]);
        for &t in &dyns {
            self.apply_delta(&scratch, t, gi);
        }
        self.dyn_edges[gi] = dyns;
        // Memory constraints subscribed to this address node.
        let subs = std::mem::take(&mut self.subs[gi]);
        for &con in &subs {
            for l in fence_ir::util::iter_words(&scratch) {
                self.wire(con, l);
            }
        }
        self.subs[gi] = subs;
        self.scratch = scratch;
    }

    /// `pts(t) ∪= delta_words` with delta tracking and enqueue.
    fn apply_delta(&mut self, delta_words: &[u64], t: u32, src: usize) {
        let ti = t as usize;
        if ti == src {
            return;
        }
        let drow = Self::delta_row(&mut self.delta, self.words, ti);
        if self.result.pts[ti].union_words(delta_words, drow) {
            self.enqueue(t);
        }
    }

    /// Sequential fixpoint: round-robin over the shards, draining each
    /// directly until everything is quiescent.
    fn drain_sequential(&mut self) {
        loop {
            let mut any = false;
            for s in 0..self.shards.len() {
                while let Some(g) = self.pop_shard(s) {
                    any = true;
                    self.drain_node_direct(g);
                }
            }
            if !any {
                break;
            }
        }
    }

    /// Sharded fixpoint rounds: the shared location frontier drains
    /// sequentially, then every pending function shard drains its local
    /// worklist concurrently on the pool (each confined to its own node
    /// slices), buffering cross-shard copies and constraint wiring into
    /// its outbox; the merge applies those effects and the next round
    /// begins. The constraint system is monotone at this point, so any
    /// schedule converges to the same least fixpoint — parallel runs are
    /// bit-identical to sequential ones.
    fn drain_sharded(&mut self) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;
        let nf = self.module.funcs.len();
        let w = self.words;
        loop {
            // 1. Shared frontier (and anything the merge re-enqueued).
            while let Some(g) = self.pop_shard(0) {
                self.drain_node_direct(g);
            }
            let pending: Vec<usize> = (0..nf)
                .filter(|&f| !self.shards[f + 1].wl.is_empty())
                .collect();
            if pending.is_empty() {
                if self.shards[0].wl.is_empty() {
                    break;
                }
                continue;
            }
            // 2. Function shards in parallel, each on its own slices.
            {
                let n_locs = self.group_base.first().copied().unwrap_or(0) as usize;
                let Solver {
                    ref mut result,
                    ref mut delta,
                    ref mut shards,
                    ref csr_off,
                    ref csr_dst,
                    ref dyn_edges,
                    ref subs,
                    ref group_base,
                    ..
                } = *self;
                let num_nodes = result.pts.len();
                let (_, mut rest_pts) = result.pts.split_at_mut(n_locs);
                let (_, mut rest_delta) = delta.split_at_mut(n_locs * w);
                let (_, func_ctls) = shards.split_at_mut(1);
                let mut jobs: Vec<Mutex<ShardJob<'_>>> = Vec::with_capacity(nf);
                for (f, ctl) in func_ctls.iter_mut().enumerate() {
                    let end = if f + 1 < nf {
                        group_base[f + 1] as usize
                    } else {
                        num_nodes
                    };
                    let len = end - ctl.base as usize;
                    let (p, rp) = rest_pts.split_at_mut(len);
                    rest_pts = rp;
                    let (d, rd) = rest_delta.split_at_mut(len * w);
                    rest_delta = rd;
                    jobs.push(Mutex::new(ShardJob {
                        base: ctl.base,
                        len: len as u32,
                        pts: p,
                        delta: d,
                        ctl,
                    }));
                }
                let next = AtomicUsize::new(0);
                fence_ir::pool::ThreadPool::global().run_scoped(pending.len(), &|| {
                    let mut scratch = vec![0u64; w];
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= pending.len() {
                            break;
                        }
                        let mut job = jobs[pending[i]].lock().unwrap();
                        drain_shard_local(
                            &mut job,
                            csr_off,
                            csr_dst,
                            dyn_edges,
                            subs,
                            w,
                            &mut scratch,
                        );
                    }
                });
            }
            // 3. Sequential frontier merge: apply buffered cross-shard
            // copies (full source sets subsume the buffered deltas) and
            // constraint wiring.
            for s in 1..=nf {
                let outbox = std::mem::take(&mut self.shards[s].outbox);
                for out in outbox {
                    match out {
                        Out::Copy { src, dst } => self.propagate_full(src, dst),
                        Out::Wire { con, loc } => self.wire(con, loc as usize),
                    }
                }
            }
        }
    }

    /// Runs initial pass + fixpoint rounds and returns the result.
    fn solve(mut self, parallel: bool) -> PointsTo {
        self.initial_pass();
        self.seed();
        if parallel && self.module.funcs.len() > 1 {
            self.drain_sharded();
        } else {
            self.drain_sequential();
        }
        self.result
    }
}

/// Drains one function shard's local worklist: propagation among the
/// shard's own nodes is applied directly on its disjoint slices;
/// anything that crosses the shard boundary (stores into the location
/// frontier, call/return edges, constraint wiring) is buffered into the
/// shard's outbox for the sequential merge.
fn drain_shard_local(
    job: &mut ShardJob<'_>,
    csr_off: &[u32],
    csr_dst: &[u32],
    dyn_edges: &[Vec<u32>],
    subs: &[Vec<u32>],
    w: usize,
    scratch: &mut [u64],
) {
    let base = job.base;
    while let Some(g) = job.ctl.wl.pop() {
        let li = (g - base) as usize;
        job.ctl.on_list.remove(li);
        let drow = &mut job.delta[li * w..(li + 1) * w];
        scratch.copy_from_slice(drow);
        drow.fill(0);
        if scratch.iter().all(|&x| x == 0) {
            continue;
        }
        let gi = g as usize;
        let statics = csr_dst[csr_off[gi] as usize..csr_off[gi + 1] as usize].iter();
        for &t in statics.chain(dyn_edges[gi].iter()) {
            if t == g {
                continue;
            }
            let tl = t.wrapping_sub(base);
            if tl < job.len {
                // Shard-local target: apply directly.
                let tli = tl as usize;
                let trow = &mut job.delta[tli * w..(tli + 1) * w];
                if job.pts[tli].union_words(scratch, trow) && job.ctl.on_list.insert(tli) {
                    job.ctl.wl.push(t);
                }
            } else {
                // Crosses the shard boundary: the merge propagates the
                // full (monotone) source set, subsuming this delta.
                job.ctl.outbox.push(Out::Copy { src: g, dst: t });
            }
        }
        for &con in &subs[gi] {
            for l in fence_ir::util::iter_words(scratch) {
                job.ctl.outbox.push(Out::Wire { con, loc: l as u32 });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fence_ir::builder::{FunctionBuilder, ModuleBuilder};

    #[test]
    fn gep_keeps_base_only() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("arr", 8);
        let mut fb = FunctionBuilder::new("f", 1);
        let p = fb.gep(g, Value::Arg(0));
        let _ = fb.load(p);
        fb.ret(None);
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let pt = PointsTo::analyze(&m);
        let s = pt.value_set(fid, p);
        assert!(s.contains(g.index()));
        assert!(!s.contains(pt.unknown_idx()), "integer index adds nothing");
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn pointer_through_memory() {
        // y = &x; r = load y; load r  — classic MP-with-pointers shape.
        let mut mb = ModuleBuilder::new("m");
        let x = mb.global("x", 1);
        let y = mb.global("y", 1);
        let mut fb = FunctionBuilder::new("f", 0);
        fb.store(y, x); // y := &x
        let r = fb.load(y);
        let _v = fb.load(r);
        fb.ret(None);
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let pt = PointsTo::analyze(&m);
        let s = pt.value_set(fid, r);
        assert!(s.contains(x.index()), "loaded pointer points to x");
        let locs = pt.addr_locs(fid, r);
        assert!(locs.contains(x.index()));
    }

    #[test]
    fn alloc_site_tracked_through_global_publish() {
        let mut mb = ModuleBuilder::new("m");
        let head = mb.global("head", 1);
        let mut fb = FunctionBuilder::new("f", 0);
        let node = fb.alloc(2i64);
        fb.store(head, node); // publish
        let got = fb.load(head);
        let _ = fb.load(got);
        fb.ret(None);
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let pt = PointsTo::analyze(&m);
        let s = pt.value_set(fid, got);
        let has_alloc = s.iter().any(|i| matches!(pt.loc(i), AbsLoc::Alloc(_, _)));
        assert!(has_alloc, "load of published pointer sees the alloc site");
    }

    #[test]
    fn unknown_for_integer_addresses() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = FunctionBuilder::new("f", 1);
        let _v = fb.load(Value::Arg(0)); // entry arg: unknown pointer
        fb.ret(None);
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let pt = PointsTo::analyze(&m);
        let locs = pt.addr_locs(fid, Value::Arg(0));
        assert!(locs.contains(pt.unknown_idx()));
    }

    #[test]
    fn interprocedural_arg_flow() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("x", 1);
        let callee = mb.declare_func("reader", 1);
        let mut fb = FunctionBuilder::new("reader", 1);
        let v = fb.load(Value::Arg(0));
        fb.ret(Some(v));
        mb.define_func(callee, fb.build());
        let mut fb2 = FunctionBuilder::new("caller", 0);
        fb2.call(callee, vec![Value::Global(g)]);
        fb2.ret(None);
        mb.add_func(fb2.build());
        let m = mb.finish();
        let pt = PointsTo::analyze(&m);
        let locs = pt.addr_locs(callee, Value::Arg(0));
        assert!(locs.contains(g.index()), "callee arg points to global x");
        assert!(!locs.contains(pt.unknown_idx()));
    }

    #[test]
    fn return_value_flow() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("x", 1);
        let callee = mb.declare_func("get_ptr", 0);
        let mut fb = FunctionBuilder::new("get_ptr", 0);
        fb.ret(Some(Value::Global(g)));
        mb.define_func(callee, fb.build());
        let mut fb2 = FunctionBuilder::new("caller", 0);
        let p = fb2.call(callee, vec![]);
        let _ = fb2.load(p);
        fb2.ret(None);
        let caller = mb.add_func(fb2.build());
        let m = mb.finish();
        let pt = PointsTo::analyze(&m);
        assert!(pt.value_set(caller, p).contains(g.index()));
    }

    #[test]
    fn select_unions_both_arms() {
        let mut mb = ModuleBuilder::new("m");
        let a = mb.global("a", 1);
        let b = mb.global("b", 1);
        let mut fb = FunctionBuilder::new("f", 1);
        let p = fb.select(Value::Arg(0), a, b);
        let _ = fb.load(p);
        fb.ret(None);
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let pt = PointsTo::analyze(&m);
        let s = pt.value_set(fid, p);
        assert!(s.contains(a.index()) && s.contains(b.index()));
    }

    #[test]
    fn views_are_borrowed_and_consistent() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("x", 1);
        let mut fb = FunctionBuilder::new("f", 0);
        let p = fb.gep(g, 0i64);
        let _ = fb.load(p);
        fb.ret(None);
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let pt = PointsTo::analyze(&m);
        // A constant has the empty view; a global is a singleton view.
        assert!(pt.value_set(fid, Value::c(3)).is_empty());
        let gv = pt.value_set(fid, Value::Global(g));
        assert_eq!(gv.iter().collect::<Vec<_>>(), vec![g.index()]);
        // Materialization matches the view.
        let owned = pt.value_set(fid, p).to_bitset(pt.num_locs());
        assert_eq!(
            owned.iter().collect::<Vec<_>>(),
            pt.value_set(fid, p).iter().collect::<Vec<_>>()
        );
        // intersects() across view shapes.
        let mut esc = fence_ir::util::BitSet::new(pt.num_locs());
        esc.insert(g.index());
        assert!(pt.value_set(fid, p).intersects(&esc));
        assert!(gv.intersects(&esc));
        assert!(!PtsView::Empty.intersects(&esc));
    }

    /// Cross-shard frontier: a pointer published through a global by one
    /// function is observed by a load in another function (the flow goes
    /// function-shard → location frontier → function-shard).
    #[test]
    fn frontier_publish_crosses_functions() {
        let mut mb = ModuleBuilder::new("m");
        let x = mb.global("x", 1);
        let cell = mb.global("cell", 1);
        let mut pb = FunctionBuilder::new("publisher", 0);
        pb.store(cell, x); // cell := &x
        pb.ret(None);
        mb.add_func(pb.build());
        let mut cb = FunctionBuilder::new("consumer", 0);
        let p = cb.load(cell);
        let _ = cb.load(p);
        cb.ret(None);
        let consumer = mb.add_func(cb.build());
        let m = mb.finish();
        for parallel in [false, true] {
            let pt = PointsTo::analyze_on(&m, parallel);
            assert!(
                pt.value_set(consumer, p).contains(x.index()),
                "consumer sees the published pointer (parallel={parallel})"
            );
        }
    }

    /// Cross-shard call edges: arguments flow *forward* into a
    /// later-defined callee and return values flow *back* into an
    /// earlier-defined caller, across shard boundaries both ways.
    #[test]
    fn frontier_call_and_return_edges_cross_shards() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 1);
        let callee = mb.declare_func("callee", 1);
        let mut fb = FunctionBuilder::new("caller", 0);
        let r = fb.call(callee, vec![Value::Global(g)]);
        let _ = fb.load(r); // deref the returned pointer
        fb.ret(None);
        let caller = mb.add_func(fb.build());
        let mut cb = FunctionBuilder::new("callee", 1);
        cb.ret(Some(Value::Arg(0))); // identity: arg flows back out
        mb.define_func(callee, cb.build());
        let m = mb.finish();
        for parallel in [false, true] {
            let pt = PointsTo::analyze_on(&m, parallel);
            assert!(
                pt.value_set(callee, Value::Arg(0)).contains(g.index()),
                "arg crosses into the callee shard (parallel={parallel})"
            );
            assert!(
                pt.value_set(caller, r).contains(g.index()),
                "return value crosses back (parallel={parallel})"
            );
        }
    }

    /// Cross-shard `Unknown` frontier: a store through an unresolvable
    /// address in one function reaches unresolvable loads in *another*
    /// function via the shared `Unknown` location.
    #[test]
    fn frontier_unknown_store_reaches_other_functions() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 1);
        let mut wb = FunctionBuilder::new("writer", 1);
        wb.store(Value::Arg(0), g); // *unknown := &g
        wb.ret(None);
        mb.add_func(wb.build());
        let mut rb = FunctionBuilder::new("reader", 1);
        let v = rb.load(Value::Arg(0)); // load *unknown
        rb.ret(None);
        let reader = mb.add_func(rb.build());
        let m = mb.finish();
        for parallel in [false, true] {
            let pt = PointsTo::analyze_on(&m, parallel);
            assert!(
                pt.value_set(reader, v).contains(g.index()),
                "unknown-channel flow crosses shards (parallel={parallel})"
            );
        }
    }

    /// Mutually recursive functions exchanging pointers: the cross-shard
    /// cycle must still converge to the same fixpoint in both modes.
    #[test]
    fn frontier_mutual_recursion_converges() {
        let mut mb = ModuleBuilder::new("m");
        let a = mb.global("a", 1);
        let b = mb.global("b", 1);
        let fa = mb.declare_func("fa", 1);
        let fb_id = mb.declare_func("fb", 1);
        let mut f1 = FunctionBuilder::new("fa", 1);
        let r1 = f1.call(fb_id, vec![Value::Arg(0)]);
        f1.ret(Some(r1));
        mb.define_func(fa, f1.build());
        let mut f2 = FunctionBuilder::new("fb", 1);
        let _ = f2.call(fa, vec![Value::Global(b)]);
        f2.ret(Some(Value::Arg(0))); // returns its arg, seeding the ret cycle
        mb.define_func(fb_id, f2.build());
        let mut root = FunctionBuilder::new("root", 0);
        let r = root.call(fa, vec![Value::Global(a)]);
        root.ret(Some(r));
        let root_id = mb.add_func(root.build());
        let m = mb.finish();
        for parallel in [false, true] {
            let pt = PointsTo::analyze_on(&m, parallel);
            for (who, v) in [
                ("fa arg", (fa, Value::Arg(0))),
                ("fb arg", (fb_id, Value::Arg(0))),
            ] {
                let set = pt.value_set(v.0, v.1);
                assert!(
                    set.contains(a.index()) && set.contains(b.index()),
                    "{who} sees both roots (parallel={parallel})"
                );
            }
            let out = pt.value_set(root_id, r);
            assert!(out.contains(a.index()) && out.contains(b.index()));
        }
    }

    /// The parallel sharded solve is bit-identical to the sequential one
    /// on a module exercising every constraint kind.
    #[test]
    fn parallel_matches_sequential_exactly() {
        let (m, _) = reference_module();
        let seq = PointsTo::analyze(&m);
        let par = PointsTo::analyze_on(&m, true);
        for (fid, func) in m.iter_funcs() {
            for (iid, _) in func.iter_insts() {
                assert_eq!(
                    seq.value_set(fid, Value::Inst(iid))
                        .iter()
                        .collect::<Vec<_>>(),
                    par.value_set(fid, Value::Inst(iid))
                        .iter()
                        .collect::<Vec<_>>(),
                    "{}/%{}",
                    func.name,
                    iid.index()
                );
            }
        }
        for l in 0..seq.num_locs() {
            assert_eq!(
                seq.loc_pts(l).iter().collect::<Vec<_>>(),
                par.loc_pts(l).iter().collect::<Vec<_>>()
            );
        }
    }

    /// The worklist solver and the legacy fixpoint-by-re-execution solver
    /// (`fence_bench::naive::seed_points_to`, the preserved seed
    /// algorithm) must agree on every queryable set of a module
    /// exercising loads/stores through memory, locals, calls, selects,
    /// RMW and unknown addresses.
    #[test]
    fn matches_naive_fixpoint_reference() {
        let (m, driver) = reference_module();
        let pt = PointsTo::analyze(&m);
        let reference = fence_bench::naive::seed_points_to(&m);
        for (fid, func) in m.iter_funcs() {
            for (iid, _) in func.iter_insts() {
                let got: Vec<usize> = pt.value_set(fid, Value::Inst(iid)).iter().collect();
                let want: Vec<usize> = reference.val[fid.index()][iid.index()].iter().collect();
                assert_eq!(got, want, "{}/%{} value set", func.name, iid.index());
            }
            for a in 0..func.num_params {
                let got: Vec<usize> = pt.value_set(fid, Value::Arg(a)).iter().collect();
                let want: Vec<usize> = reference.arg[fid.index()][a as usize].iter().collect();
                assert_eq!(got, want, "{}/arg{a} set", func.name);
            }
        }
        assert_eq!(pt.num_locs(), reference.loc.len(), "location count");
        for l in 0..pt.num_locs() {
            let got: Vec<usize> = pt.loc_pts(l).iter().collect();
            let want: Vec<usize> = reference.loc[l].iter().collect();
            assert_eq!(got, want, "loc {l} pointees");
        }
        // Sanity: driver's through-arg load hits Unknown.
        assert!(pt
            .addr_locs(driver, Value::Arg(0))
            .contains(pt.unknown_idx()));
    }

    /// A module exercising loads/stores through memory, locals, calls,
    /// selects, RMW and unknown addresses — the oracle workload. Returns
    /// it with its `driver` function, whose through-argument load has an
    /// unknown address.
    fn reference_module() -> (Module, FuncId) {
        let mut mb = ModuleBuilder::new("m");
        let head = mb.global("head", 1);
        let swap = mb.global("swap", 1);
        let callee = mb.declare_func("pub_node", 1);
        let mut fb = FunctionBuilder::new("pub_node", 1);
        let node = fb.alloc(2i64);
        fb.store(node, Value::Arg(0)); // node.next = arg
        fb.store(head, node); // publish
        fb.ret(Some(node));
        mb.define_func(callee, fb.build());

        let mut fb2 = FunctionBuilder::new("driver", 1);
        let l = fb2.local("cur");
        let got = fb2.call(callee, vec![Value::Global(swap)]);
        fb2.write_local(l, got);
        let cur = fb2.read_local(l);
        let inner = fb2.load(cur); // through the alloc site
        let _ = fb2.load(inner);
        let sel = fb2.select(Value::Arg(0), cur, inner);
        let _ = fb2.rmw(fence_ir::RmwOp::Add, sel, 1i64);
        let through_arg = fb2.load(Value::Arg(0)); // unknown address
        fb2.store(Value::Arg(0), through_arg);
        fb2.ret(None);
        let driver = mb.add_func(fb2.build());
        (mb.finish(), driver)
    }
}

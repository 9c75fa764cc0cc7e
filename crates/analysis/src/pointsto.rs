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
//! ## Solver architecture: one constraint table, one worklist
//!
//! The first rewrite replaced fixpoint-by-re-execution with a worklist
//! over an explicit constraint graph:
//!
//! 1. every value/argument/local/return and every abstract location gets
//!    one dense *node* holding its points-to `BitSet`: location nodes
//!    first, then per function its arguments, local slots, instruction
//!    results and return value;
//! 2. the table above is written once, as `Table::each`: it maps each
//!    instruction, in program order, to its constraints — an alloc seed,
//!    a copy from a node or a constant global, or a memory access. Every
//!    phase below reads it;
//! 3. copies between nodes become static edges in one CSR table (two
//!    counting passes, two allocations — the old per-node `Vec`s and
//!    per-node delta `BitSet`s made graph construction the dominant cost
//!    of the whole analysis); memory constraints subscribe to their
//!    address node and are wired lazily — when the address set gains a
//!    location `L`, the solver adds `pts(L) → dst` (load) / `src →
//!    pts(L)` (store) edges on the fly; deltas live in one flat word
//!    matrix, wired edges in sparse overflow lists;
//! 4. the initial pass applies every constraint once in program order:
//!    it replicates the old solver's first round bit-for-bit, including
//!    the conservative `locs(p) = ∅ ⇒ {Unknown}` resolution against
//!    in-round intermediate states — the one order-sensitive rule;
//! 5. one worklist then drains the pending deltas to the fixpoint.
//!
//! After the initial pass pins the `∅ ⇒ {Unknown}` wiring decisions, the
//! constraint system is monotone, so its least fixpoint does not depend
//! on the order the worklist drains it in. Each location/edge/constraint
//! is touched `O(1)` times per new bit, so solving is near-linear in
//! `constraints + propagated bits` instead of quadratic in program size.
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
use fence_ir::{FuncId, GlobalId, InstId, InstKind, Module, Value};

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

/// A non-constant operand: a solver node, or a constant global address
/// (a fixed singleton). Constants contribute nothing and have no `Src`.
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

/// One row of the constraint table (module docs), operands resolved to
/// nodes.
#[derive(Copy, Clone)]
enum Con {
    /// `pts(dst) ⊇ {loc}`: an `alloc` site.
    Alloc { dst: u32, loc: u32 },
    /// `pts(dst) ⊇ pts(src)`.
    Copy { src: Src, dst: u32 },
    /// A load/store/RMW/CAS that moves pointers through `locs(addr)`; a
    /// constant address (`None`) always resolves to `{Unknown}`.
    Mem { addr: Option<Src>, con: MemCon },
}

/// The node layout: location nodes first (`0..num_locs`), then per
/// function its arguments, local slots, instruction results and return
/// value.
struct Nodes {
    /// First argument node of each function.
    arg_base: Vec<u32>,
    /// First local-slot node of each function.
    local_base: Vec<u32>,
    /// First instruction-result node of each function.
    val_base: Vec<u32>,
    /// Return-value node of each function.
    ret_node: Vec<u32>,
}

impl Nodes {
    /// Lays out the nodes of `module`; returns the layout and the node
    /// count.
    fn layout(module: &Module, num_locs: usize) -> (Self, usize) {
        let nf = module.funcs.len();
        let mut nodes = Nodes {
            arg_base: Vec::with_capacity(nf),
            local_base: Vec::with_capacity(nf),
            val_base: Vec::with_capacity(nf),
            ret_node: Vec::with_capacity(nf),
        };
        let mut next = num_locs as u32;
        for func in &module.funcs {
            nodes.arg_base.push(next);
            next += func.num_params as u32;
            nodes.local_base.push(next);
            next += func.locals.len() as u32;
            nodes.val_base.push(next);
            next += func.num_insts() as u32;
            nodes.ret_node.push(next);
            next += 1;
        }
        (nodes, next as usize)
    }

    #[inline]
    fn of(&self, f: FuncId, v: Value) -> Option<u32> {
        match v {
            Value::Const(_) | Value::Global(_) => None,
            Value::Arg(a) => Some(self.arg_base[f.index()] + a as u32),
            Value::Inst(i) => Some(self.val_base[f.index()] + i.index() as u32),
        }
    }

    #[inline]
    fn operand(&self, f: FuncId, v: Value) -> Option<Src> {
        match v {
            Value::Const(_) => None,
            Value::Global(g) => Some(Src::Global(g.index() as u32)),
            _ => self.of(f, v).map(Src::Node),
        }
    }
}

/// Result of the points-to analysis for a whole module.
pub struct PointsTo {
    /// All abstract locations; `locs[i]` is the location with index `i`.
    locs: Vec<AbsLoc>,
    /// Index of the `Unknown` location (always last).
    unknown: usize,
    /// One points-to set per node; locations occupy nodes `0..locs.len()`.
    pts: Vec<BitSet>,
    /// Node ids of arguments and instruction results.
    nodes: Nodes,
}

impl PointsTo {
    /// Runs the analysis to fixpoint over the whole module.
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
        let mut locs: Vec<AbsLoc> = module
            .iter_globals()
            .map(|(g, _)| AbsLoc::Global(g))
            .collect();
        let first_alloc = locs.len() as u32;
        for (fid, func) in module.iter_funcs() {
            for (iid, inst) in func.iter_insts() {
                if matches!(inst.kind, InstKind::Alloc { .. }) {
                    locs.push(AbsLoc::Alloc(fid, iid));
                }
            }
        }
        let unknown = locs.len();
        locs.push(AbsLoc::Unknown);
        let (nodes, num_nodes) = Nodes::layout(module, locs.len());
        let table = Table {
            module,
            nodes: &nodes,
            first_alloc,
        };
        let pts = Solver::build(&table, locs.len(), num_nodes).solve(&table);
        PointsTo {
            locs,
            unknown,
            pts,
            nodes,
        }
    }

    /// The points-to set of a value (empty for constants/integers),
    /// borrowed from the solver — no allocation.
    pub fn value_set(&self, f: FuncId, v: Value) -> PtsView<'_> {
        match v {
            Value::Const(_) => PtsView::Empty,
            Value::Global(g) => PtsView::Singleton(g.index()),
            _ => {
                let node = self.nodes.of(f, v).expect("arg/inst has a node");
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
}

/// The constraint table of one module.
struct Table<'m> {
    module: &'m Module,
    nodes: &'m Nodes,
    /// Location index of the first `alloc` site; sites are numbered in
    /// program order.
    first_alloc: u32,
}

impl Table<'_> {
    /// The constraint table of the module docs, written once: calls
    /// `emit` with each instruction's constraints in program order — the
    /// order the initial pass replays. A store of a constant moves no
    /// pointers and yields nothing.
    fn each(&self, mut emit: impl FnMut(Con)) {
        let nodes = self.nodes;
        let mut next_alloc = self.first_alloc;
        for (fid, func) in self.module.iter_funcs() {
            let fi = fid.index();
            for (iid, inst) in func.iter_insts() {
                let dst = nodes.val_base[fi] + iid.index() as u32;
                let mut copy = |v: Value, dst: u32| {
                    if let Some(src) = nodes.operand(fid, v) {
                        emit(Con::Copy { src, dst });
                    }
                };
                // Arms that only copy emit directly; a memory access
                // comes out as `(address, load result, stored value)`.
                let access = match &inst.kind {
                    InstKind::Alloc { .. } => {
                        emit(Con::Alloc {
                            dst,
                            loc: next_alloc,
                        });
                        next_alloc += 1;
                        None
                    }
                    InstKind::Gep { base, .. } => {
                        copy(*base, dst);
                        None
                    }
                    InstKind::Bin { lhs, rhs, .. } => {
                        copy(*lhs, dst);
                        copy(*rhs, dst);
                        None
                    }
                    InstKind::Select {
                        then_val, else_val, ..
                    } => {
                        copy(*then_val, dst);
                        copy(*else_val, dst);
                        None
                    }
                    InstKind::ReadLocal { local } => {
                        let slot = nodes.local_base[fi] + local.index() as u32;
                        emit(Con::Copy {
                            src: Src::Node(slot),
                            dst,
                        });
                        None
                    }
                    InstKind::WriteLocal { local, val } => {
                        copy(*val, nodes.local_base[fi] + local.index() as u32);
                        None
                    }
                    InstKind::Call { callee, args } => {
                        let cf = callee.index();
                        let nparams = self.module.funcs[cf].num_params as usize;
                        for (k, a) in args.iter().take(nparams).enumerate() {
                            copy(*a, nodes.arg_base[cf] + k as u32);
                        }
                        emit(Con::Copy {
                            src: Src::Node(nodes.ret_node[cf]),
                            dst,
                        });
                        None
                    }
                    InstKind::Ret { val: Some(v) } => {
                        copy(*v, nodes.ret_node[fi]);
                        None
                    }
                    InstKind::Load { addr } => Some((*addr, Some(dst), None)),
                    InstKind::Store { addr, val } => Some((*addr, None, Some(*val))),
                    InstKind::AtomicRmw { addr, val, .. } => Some((*addr, Some(dst), Some(*val))),
                    InstKind::AtomicCas { addr, new, .. } => Some((*addr, Some(dst), Some(*new))),
                    // Cmp results, fences, intrinsics, branches: no flow.
                    _ => None,
                };
                let Some((addr, load_to, stored)) = access else {
                    continue;
                };
                let store_src = stored.and_then(|v| nodes.operand(fid, v));
                if load_to.is_some() || store_src.is_some() {
                    emit(Con::Mem {
                        addr: nodes.operand(fid, addr),
                        con: MemCon { load_to, store_src },
                    });
                }
            }
        }
    }
}

/// Constraint-graph solver state.
struct Solver {
    /// One points-to set per node.
    pts: Vec<BitSet>,
    /// Index of the `Unknown` location (the last location node).
    unknown: usize,
    /// Words per points-to row (`num_locs.div_ceil(64)`).
    words: usize,
    /// Static copy edges `from → to`, CSR (`csr_off[n]..csr_off[n + 1]`
    /// indexes `csr_dst`). Built with two counting passes — no per-node
    /// `Vec` growth, which used to dominate analysis time.
    csr_off: Vec<u32>,
    csr_dst: Vec<u32>,
    /// Dynamically wired edges (loads: `loc → dst`; stores:
    /// `src → loc`). Sparse: only location nodes and store sources are
    /// ever touched.
    dyn_edges: Vec<Vec<u32>>,
    /// Memory constraints in table order, wired lazily.
    mem_cons: Vec<MemCon>,
    /// Already-wired locations, one flat row per constraint.
    resolved: Vec<u64>,
    /// `subs[node]` — memory constraints whose address is `node`.
    subs: Vec<Vec<u32>>,
    /// Per-node pending delta bits, one flat row per node.
    delta: Vec<u64>,
    /// Pending nodes.
    wl: Vec<u32>,
    /// Dedup mask over `wl`.
    on_list: BitSet,
    /// Reusable delta-row snapshot for drains.
    scratch: Vec<u64>,
}

impl Solver {
    /// Builds the static CSR copy-edge table and the memory-constraint
    /// records from `table`.
    fn build(table: &Table<'_>, num_locs: usize, num_nodes: usize) -> Self {
        let words = num_locs.div_ceil(64);
        let unknown = num_locs - 1;
        let mut pts = vec![BitSet::new(num_locs); num_nodes];
        // Unknown memory points to unknown memory.
        pts[unknown].insert(unknown);

        // Count pass: static edges per source node, and every memory
        // constraint with its address-node subscription. Node addresses
        // are wired lazily as their sets grow; global and constant
        // addresses resolve to fixed sets and are wired once by the
        // initial pass at their program point.
        let mut csr_off = vec![0u32; num_nodes + 1];
        let mut mem_cons = Vec::new();
        let mut subs = vec![Vec::new(); num_nodes];
        table.each(|c| match c {
            Con::Copy {
                src: Src::Node(s), ..
            } => csr_off[s as usize + 1] += 1,
            Con::Mem { addr, con } => {
                if let Some(Src::Node(a)) = addr {
                    subs[a as usize].push(mem_cons.len() as u32);
                }
                mem_cons.push(con);
            }
            _ => {}
        });
        for i in 0..num_nodes {
            csr_off[i + 1] += csr_off[i];
        }
        // Fill pass.
        let mut csr_dst = vec![0u32; csr_off[num_nodes] as usize];
        let mut cursor = csr_off.clone();
        table.each(|c| {
            if let Con::Copy {
                src: Src::Node(s),
                dst,
            } = c
            {
                csr_dst[cursor[s as usize] as usize] = dst;
                cursor[s as usize] += 1;
            }
        });

        Solver {
            pts,
            unknown,
            words,
            csr_off,
            csr_dst,
            dyn_edges: vec![Vec::new(); num_nodes],
            resolved: vec![0u64; mem_cons.len() * words],
            mem_cons,
            subs,
            delta: vec![0u64; num_nodes * words],
            wl: Vec::new(),
            on_list: BitSet::new(num_nodes),
            scratch: vec![0u64; words],
        }
    }

    #[inline]
    fn delta_row(delta: &mut [u64], words: usize, node: usize) -> &mut [u64] {
        &mut delta[node * words..(node + 1) * words]
    }

    fn enqueue(&mut self, node: u32) {
        if self.on_list.insert(node as usize) {
            self.wl.push(node);
        }
    }

    /// Pushes `pts(src)` into `dst` (used when an edge appears late, and
    /// by the initial pass).
    fn propagate_full(&mut self, src: u32, dst: u32) {
        if src == dst {
            return;
        }
        let (s, d) = (src as usize, dst as usize);
        let drow = Self::delta_row(&mut self.delta, self.words, d);
        // Split-borrow the pts table around the two nodes.
        let (a, b) = if s < d {
            let (lo, hi) = self.pts.split_at_mut(d);
            (&lo[s], &mut hi[0])
        } else {
            let (lo, hi) = self.pts.split_at_mut(s);
            (&hi[0], &mut lo[d])
        };
        if b.union_words(a.words(), drow) {
            self.enqueue(dst);
        }
    }

    fn insert_bit(&mut self, node: u32, bit: usize) {
        if self.pts[node as usize].insert(bit) {
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
    /// one the worklist closure implies anyway.
    fn initial_pass(&mut self, table: &Table<'_>) {
        let mut con = 0u32;
        let mut locs: Vec<u32> = Vec::new();
        table.each(|c| match c {
            Con::Alloc { dst, loc } => self.insert_bit(dst, loc as usize),
            Con::Copy {
                src: Src::Node(s),
                dst,
            } => self.propagate_full(s, dst),
            Con::Copy {
                src: Src::Global(g),
                dst,
            } => self.insert_bit(dst, g as usize),
            Con::Mem { addr, .. } => {
                locs.clear();
                match addr {
                    Some(Src::Node(a)) if !self.pts[a as usize].is_empty() => {
                        locs.extend(self.pts[a as usize].iter().map(|l| l as u32))
                    }
                    Some(Src::Global(g)) => locs.push(g),
                    _ => locs.push(self.unknown as u32),
                }
                for &l in &locs {
                    self.wire(con, l as usize);
                }
                con += 1;
            }
        });
    }

    /// Seeds the worklist with every nonempty node's full set so every
    /// static edge sees its source's initial contents at least once;
    /// from then on only deltas travel.
    fn seed(&mut self) {
        let w = self.words;
        for node in 0..self.pts.len() {
            if !self.pts[node].is_empty() {
                let (pts, delta) = (&self.pts, &mut self.delta);
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

    /// Drains one node: pushes its pending delta along every static and
    /// wired edge, and wires the memory constraints it addresses.
    fn drain_node(&mut self, g: u32) {
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
        if self.pts[ti].union_words(delta_words, drow) {
            self.enqueue(t);
        }
    }

    /// Runs the initial pass, then drains the worklist to the fixpoint;
    /// returns the per-node sets.
    fn solve(mut self, table: &Table<'_>) -> Vec<BitSet> {
        self.initial_pass(table);
        self.seed();
        while let Some(g) = self.wl.pop() {
            self.on_list.remove(g as usize);
            self.drain_node(g);
        }
        self.pts
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

    /// A pointer published through a global by one function is observed
    /// by a load in another function (the flow goes function → location
    /// node → function).
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
        let pt = PointsTo::analyze(&m);
        assert!(
            pt.value_set(consumer, p).contains(x.index()),
            "consumer sees the published pointer"
        );
    }

    /// Call edges across functions: arguments flow *forward* into a
    /// later-defined callee and return values flow *back* into an
    /// earlier-defined caller.
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
        let pt = PointsTo::analyze(&m);
        assert!(
            pt.value_set(callee, Value::Arg(0)).contains(g.index()),
            "arg flows into the callee"
        );
        assert!(
            pt.value_set(caller, r).contains(g.index()),
            "return value flows back"
        );
    }

    /// The shared `Unknown` location: a store through an unresolvable
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
        let pt = PointsTo::analyze(&m);
        assert!(
            pt.value_set(reader, v).contains(g.index()),
            "unknown-channel flow crosses functions"
        );
    }

    /// Mutually recursive functions exchanging pointers: the cycle
    /// across functions must still converge to the fixpoint.
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
        let pt = PointsTo::analyze(&m);
        for (who, v) in [
            ("fa arg", (fa, Value::Arg(0))),
            ("fb arg", (fb_id, Value::Arg(0))),
        ] {
            let set = pt.value_set(v.0, v.1);
            assert!(
                set.contains(a.index()) && set.contains(b.index()),
                "{who} sees both roots"
            );
        }
        let out = pt.value_set(root_id, r);
        assert!(out.contains(a.index()) && out.contains(b.index()));
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

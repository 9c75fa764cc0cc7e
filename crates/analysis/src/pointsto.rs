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
//! ## Solver architecture: one walk, one worklist
//!
//! 1. every value/argument/local/return and every abstract location gets
//!    one dense *node*: location nodes first, then per function its
//!    arguments, local slots, instruction results and return value. A
//!    node costs a row index and two list heads. A location node's
//!    points-to `BitSet` row is allocated up front, a value node's only
//!    when the first location reaches it (1,424 of 42,268 nodes at
//!    `synthetic:16000`);
//! 2. one walk over the instructions in program order adds each
//!    instruction's constraints from the table above to the graph and
//!    applies each once against the state so far. An alloc inserts its
//!    site; a copy becomes the edge `src → dst` in `src`'s successor list
//!    and unions `pts(src)` into `dst`; a memory access subscribes to its
//!    address node and is *wired* against the address's current
//!    locations, or `{Unknown}` if it has none. Wiring location `L` adds
//!    the edge `L → dst` (load) or `src → L` (store) and applies it. The
//!    walk makes direct unions only, so it replays the re-execution
//!    solver's first round bit-for-bit, including the conservative
//!    `locs(p) = ∅ ⇒ {Unknown}` resolution against in-round intermediate
//!    states — the one order-sensitive rule;
//! 3. one worklist then drains to the fixpoint. A node is pending
//!    whenever its set grew; draining it pushes its whole set along its
//!    successor list and wires the memory constraints it addresses
//!    against every location in it. Each constraint's `resolved` row
//!    makes re-wiring a location a no-op, and an edge added late gets its
//!    source's whole set when it is added.
//!
//! After the walk pins the `∅ ⇒ {Unknown}` wiring decisions, the
//! constraint system is monotone, so its least fixpoint does not depend
//! on the order the worklist drains it in. A node is drained at most once
//! per growth, and a drain costs one word-wise union per successor and
//! one `resolved` probe per (constraint, location) pair, so solving is
//! near-linear in `constraints + propagated bits` instead of quadratic in
//! program size.
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
//! against the preserved seed solver (`fence_bench::naive`). On
//! generated modules, the corner included, that file also requires
//! exactly the sets of the seed's `Unknown`-pinning replay.
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

/// One memory constraint, wired lazily as its address set grows; its
/// wired locations are one row of the solver's flat `resolved` matrix.
#[derive(Copy, Clone)]
struct MemCon {
    /// Destination node of the read part (`load`/`rmw`/`cas` result).
    load_to: Option<u32>,
    /// Source of the written value, if any.
    store_src: Option<Src>,
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
    /// Points-to set rows: location `i`'s pointees in row `i`, then one
    /// row per value node that points anywhere.
    rows: Vec<BitSet>,
    /// Each node's row, or `END` for a value node that points nowhere.
    row: Vec<u32>,
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
        let mut solver = Solver::new(locs.len(), num_nodes);
        solver.walk(module, &nodes, first_alloc);
        solver.drain();
        PointsTo {
            locs,
            unknown,
            rows: solver.rows,
            row: solver.row,
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
                match self.row[node as usize] {
                    END => PtsView::Empty,
                    r => PtsView::Set(&self.rows[r as usize]),
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
        &self.rows[i]
    }
}

/// No row (for a node), or the end of a list in `Solver::links`.
const END: u32 = u32::MAX;

/// Constraint-graph solver state.
struct Solver {
    /// Points-to set rows. Location `i`'s row is row `i`, allocated up
    /// front; a value node gets a row when the first location reaches it.
    rows: Vec<BitSet>,
    /// Each node's row, or `END` while a value node points nowhere.
    row: Vec<u32>,
    /// Number of abstract locations; `Unknown` is the last.
    num_locs: usize,
    /// Head in `links` of each node's copy edges, static and wired alike.
    succ: Vec<u32>,
    /// Head in `links` of the memory constraints each node addresses.
    subs: Vec<u32>,
    /// The lists behind `succ` and `subs`, newest first, as `(successor
    /// node or constraint, next entry or END)`.
    links: Vec<(u32, u32)>,
    /// Memory constraints in program order.
    mem_cons: Vec<MemCon>,
    /// Already-wired locations, one flat row of `num_locs` bits per
    /// memory constraint.
    resolved: Vec<u64>,
    /// Pending nodes.
    wl: Vec<u32>,
    /// Dedup mask over `wl`.
    on_list: BitSet,
}

impl Solver {
    fn new(num_locs: usize, num_nodes: usize) -> Self {
        let mut rows = vec![BitSet::new(num_locs); num_locs];
        // Unknown memory points to unknown memory.
        rows[num_locs - 1].insert(num_locs - 1);
        let mut row: Vec<u32> = (0..num_locs as u32).collect();
        row.resize(num_nodes, END);
        Solver {
            rows,
            row,
            num_locs,
            succ: vec![END; num_nodes],
            subs: vec![END; num_nodes],
            links: Vec::new(),
            mem_cons: Vec::new(),
            resolved: Vec::new(),
            wl: Vec::new(),
            on_list: BitSet::new(num_nodes),
        }
    }

    /// The one walk: adds every constraint of the module docs' table to
    /// the graph, in program order, and applies it once against the state
    /// so far. This replays the re-execution solver's first round, so each
    /// `∅ ⇒ {Unknown}` wiring decision sees the in-round state that solver
    /// saw; every union it makes is one the fixpoint implies anyway.
    fn walk(&mut self, module: &Module, nodes: &Nodes, mut next_alloc: u32) {
        let mut locs = Vec::new();
        for (fid, func) in module.iter_funcs() {
            let fi = fid.index();
            let operand = |v: Value| nodes.operand(fid, v);
            for (iid, inst) in func.iter_insts() {
                let dst = nodes.val_base[fi] + iid.index() as u32;
                // Arms that only copy apply directly; a memory access comes
                // out as `(address, load result, stored value)`.
                let access = match &inst.kind {
                    InstKind::Alloc { .. } => {
                        self.insert(dst, next_alloc as usize);
                        next_alloc += 1;
                        None
                    }
                    InstKind::Gep { base, .. } => {
                        self.copy(operand(*base), dst);
                        None
                    }
                    InstKind::Bin { lhs: a, rhs: b, .. }
                    | InstKind::Select {
                        then_val: a,
                        else_val: b,
                        ..
                    } => {
                        self.copy(operand(*a), dst);
                        self.copy(operand(*b), dst);
                        None
                    }
                    InstKind::ReadLocal { local } => {
                        let slot = nodes.local_base[fi] + local.index() as u32;
                        self.copy(Some(Src::Node(slot)), dst);
                        None
                    }
                    InstKind::WriteLocal { local, val } => {
                        let slot = nodes.local_base[fi] + local.index() as u32;
                        self.copy(operand(*val), slot);
                        None
                    }
                    InstKind::Call { callee, args } => {
                        let cf = callee.index();
                        let nparams = module.funcs[cf].num_params as usize;
                        for (k, a) in args.iter().take(nparams).enumerate() {
                            self.copy(operand(*a), nodes.arg_base[cf] + k as u32);
                        }
                        self.copy(Some(Src::Node(nodes.ret_node[cf])), dst);
                        None
                    }
                    InstKind::Ret { val: Some(v) } => {
                        self.copy(operand(*v), nodes.ret_node[fi]);
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
                // A store of a constant moves no pointers.
                let store_src = stored.and_then(operand);
                if load_to.is_none() && store_src.is_none() {
                    continue;
                }
                let con = self.mem_cons.len() as u32;
                self.mem_cons.push(MemCon { load_to, store_src });
                let end = self.resolved.len() + self.num_locs.div_ceil(64);
                self.resolved.resize(end, 0);
                // A node address is wired as its set grows; a global one
                // is fixed; a constant or still-empty one is `{Unknown}`
                // and stays wired to it.
                locs.clear();
                match operand(addr) {
                    Some(Src::Node(a)) => {
                        Self::link(&mut self.subs[a as usize], &mut self.links, con);
                        let r = self.row[a as usize];
                        if r != END {
                            locs.extend(self.rows[r as usize].iter());
                        }
                    }
                    Some(Src::Global(g)) => locs.push(g as usize),
                    None => {}
                }
                if locs.is_empty() {
                    locs.push(self.num_locs - 1);
                }
                for &l in &locs {
                    self.wire(con, l);
                }
            }
        }
    }

    /// Drains the worklist to the fixpoint: each pending node pushes its
    /// whole set along its successors and wires the memory constraints it
    /// addresses against every location in it.
    fn drain(&mut self) {
        while let Some(n) = self.wl.pop() {
            let ni = n as usize;
            self.on_list.remove(ni);
            let mut e = self.succ[ni];
            while e != END {
                let (t, next) = self.links[e as usize];
                self.push(n, t);
                e = next;
            }
            // A pending node grew, so it has a row.
            let r = self.row[ni] as usize;
            let mut e = self.subs[ni];
            while e != END {
                let (con, next) = self.links[e as usize];
                let mut l = self.rows[r].next_set_bit(0);
                while let Some(found) = l {
                    self.wire(con, found);
                    l = self.rows[r].next_set_bit(found + 1);
                }
                e = next;
            }
        }
    }

    /// Wires memory constraint `con` against location `l`, once.
    fn wire(&mut self, con: u32, l: usize) {
        let slot = con as usize * self.num_locs.div_ceil(64) + l / 64;
        let bit = 1u64 << (l % 64);
        if self.resolved[slot] & bit != 0 {
            return;
        }
        self.resolved[slot] |= bit;
        let c = self.mem_cons[con as usize];
        if let Some(dst) = c.load_to {
            self.copy(Some(Src::Node(l as u32)), dst);
        }
        self.copy(c.store_src, l as u32);
    }

    /// Adds the copy edge `src → dst` and applies it once; a constant
    /// global source is a fixed singleton and needs no edge.
    fn copy(&mut self, src: Option<Src>, dst: u32) {
        match src {
            Some(Src::Node(s)) => {
                Self::link(&mut self.succ[s as usize], &mut self.links, dst);
                self.push(s, dst);
            }
            Some(Src::Global(g)) => self.insert(dst, g as usize),
            None => {}
        }
    }

    /// `pts(dst) ∪= pts(src)`, enqueueing `dst` if it grew.
    fn push(&mut self, src: u32, dst: u32) {
        let s = self.row[src as usize];
        if src == dst || s == END || self.rows[s as usize].is_empty() {
            return;
        }
        let (s, d) = (s as usize, self.row_of(dst));
        // Split-borrow the two rows.
        let (from, to) = if s < d {
            let (lo, hi) = self.rows.split_at_mut(d);
            (&lo[s], &mut hi[0])
        } else {
            let (lo, hi) = self.rows.split_at_mut(s);
            (&hi[0], &mut lo[d])
        };
        if to.union_with(from) {
            self.enqueue(dst);
        }
    }

    /// Inserts location `bit` into `pts(node)`, enqueueing it if new.
    fn insert(&mut self, node: u32, bit: usize) {
        let r = self.row_of(node);
        if self.rows[r].insert(bit) {
            self.enqueue(node);
        }
    }

    /// `node`'s row, allocated empty if it has none yet.
    fn row_of(&mut self, node: u32) -> usize {
        if self.row[node as usize] == END {
            self.row[node as usize] = self.rows.len() as u32;
            self.rows.push(BitSet::new(self.num_locs));
        }
        self.row[node as usize] as usize
    }

    /// Prepends `item` to the list that starts at `head`.
    fn link(head: &mut u32, links: &mut Vec<(u32, u32)>, item: u32) {
        links.push((item, *head));
        *head = (links.len() - 1) as u32;
    }

    fn enqueue(&mut self, node: u32) {
        if self.on_list.insert(node as usize) {
            self.wl.push(node);
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

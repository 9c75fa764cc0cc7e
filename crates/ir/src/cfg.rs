//! Control-flow-graph utilities: successors/predecessors, reverse
//! postorder, reachability (the "lookup table" the paper's ordering
//! generation queries), and dominators (used by the verifier).
//!
//! [`Reachability`] is built by Tarjan SCC condensation plus one
//! reverse-topological word-level union sweep — `O(B + E + S·B/64)` and
//! one shared row per SCC — replacing the seed's per-block DFS
//! (`O(B·E)` time, one row per block). `in_cycle` is read straight off
//! the condensation.
//!
//! ## Shared substrate
//!
//! Building a [`Cfg`] and its [`Reachability`] is pure per-function work
//! whose table several downstream stages consume (ordering generation,
//! fence minimization, reports). [`FuncSubstrate`] holds the table so
//! callers build both **exactly once per function** and thread borrowed
//! references everywhere else; the thread-local [`cfg_builds`] /
//! [`reachability_builds`] counters let tests pin that no stage rebuilds
//! them behind the cache's back.

use crate::func::Function;
use crate::ids::BlockId;
use crate::util::BitSet;

thread_local! {
    static CFG_BUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    static REACH_BUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Number of [`Cfg::new`] constructions executed **on this thread** —
/// the observable that lets tests assert the pipeline builds each
/// function's CFG exactly once per batch.
pub fn cfg_builds() -> usize {
    CFG_BUILDS.with(|c| c.get())
}

/// Number of [`Reachability::new`] constructions executed **on this
/// thread** (see [`cfg_builds`]).
pub fn reachability_builds() -> usize {
    REACH_BUILDS.with(|c| c.get())
}

/// Successor / predecessor maps of a function's CFG.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// `succs[b]` = successor blocks of `b`.
    pub succs: Vec<Vec<BlockId>>,
    /// `preds[b]` = predecessor blocks of `b`.
    pub preds: Vec<Vec<BlockId>>,
    /// The function's entry block.
    pub entry: BlockId,
}

impl Cfg {
    /// Builds the CFG of `func` from its block terminators.
    pub fn new(func: &Function) -> Self {
        CFG_BUILDS.with(|c| c.set(c.get() + 1));
        let n = func.num_blocks();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for (bid, block) in func.iter_blocks() {
            if let Some(&term) = block.insts.last() {
                for s in func.inst(term).kind.successors() {
                    succs[bid.index()].push(s);
                    preds[s.index()].push(bid);
                }
            }
        }
        Cfg {
            succs,
            preds,
            entry: func.entry,
        }
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.succs.len()
    }

    /// Reverse postorder starting from the entry block. Unreachable blocks
    /// are appended at the end (in id order) so every block appears exactly
    /// once.
    pub fn rpo(&self) -> Vec<BlockId> {
        let n = self.num_blocks();
        let mut visited = BitSet::new(n);
        let mut post = Vec::with_capacity(n);
        // Iterative DFS with explicit stack of (block, next-successor-index).
        let mut stack: Vec<(BlockId, usize)> = Vec::new();
        visited.insert(self.entry.index());
        stack.push((self.entry, 0));
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if *i < self.succs[b.index()].len() {
                let s = self.succs[b.index()][*i];
                *i += 1;
                if visited.insert(s.index()) {
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        for b in 0..n {
            if !visited.contains(b) {
                post.push(BlockId::new(b));
            }
        }
        post
    }
}

/// Transitive reachability over the CFG: `reaches(a, b)` means there is a
/// path of **one or more** edges from `a` to `b`. In particular
/// `reaches(b, b)` holds iff `b` lies on a cycle.
///
/// This is the lookup table that ordering generation consults (paper §4.3:
/// "Whether there exists a path between basic blocks is determined prior to
/// this process with an examination of the CFG, to create a lookup table of
/// reachability").
///
/// Construction runs iterative Tarjan SCC condensation followed by a
/// single reverse-topological sweep that unions successor rows word-wise:
/// `O(B + E + S·B/64)` for `S` SCCs instead of the old per-block DFS's
/// `O(B·E)`. All blocks of one SCC share a single row (they reach exactly
/// the same set), and `in_cycle` falls out of the condensation for free —
/// a block is on a cycle iff its SCC has more than one member or a self
/// edge.
#[derive(Clone, Debug)]
pub struct Reachability {
    /// SCC id of each block; ids are assigned in Tarjan completion order,
    /// which is reverse-topological over the condensation.
    scc: Vec<u32>,
    /// One reachable-block row per SCC, shared by all its members.
    rows: Vec<BitSet>,
    /// Per SCC: more than one member, or a self edge.
    cyclic: Vec<bool>,
    /// Per SCC: a successor SCC in the condensation whose row is a
    /// subset of this SCC's row (`u32::MAX` for sinks). Chosen as the
    /// largest-row successor, so `rows[s] \ rows[base[s]]` is typically a
    /// handful of blocks — the invariant per-SCC aggregate recurrences
    /// build on (see [`Reachability::scc_base`]).
    base: Vec<u32>,
}

impl Reachability {
    /// Computes all-pairs reachability via SCC condensation.
    pub fn new(cfg: &Cfg) -> Self {
        REACH_BUILDS.with(|c| c.set(c.get() + 1));
        let n = cfg.num_blocks();
        let scc = tarjan_sccs(cfg);
        let num_sccs = scc.iter().map(|&s| s + 1).max().unwrap_or(0) as usize;

        let mut members: Vec<Vec<u32>> = vec![Vec::new(); num_sccs];
        for b in 0..n {
            members[scc[b] as usize].push(b as u32);
        }
        let mut cyclic = vec![false; num_sccs];
        for (s, ms) in members.iter().enumerate() {
            cyclic[s] = ms.len() > 1
                || ms.iter().any(|&b| {
                    cfg.succs[b as usize]
                        .iter()
                        .any(|t| t.index() == b as usize)
                });
        }

        // Reverse-topological sweep: SCC ids increase from sinks to
        // sources, so every cross-SCC successor row is already final.
        // `merged` is a generation stamp deduplicating successor SCCs, so
        // each distinct successor row is unioned once per source SCC (not
        // once per edge).
        let mut rows: Vec<BitSet> = Vec::with_capacity(num_sccs);
        let mut merged = vec![u32::MAX; num_sccs];
        let mut base = vec![u32::MAX; num_sccs];
        // Row popcounts, memoized lazily: only rows actually *compared*
        // (successors of SCCs with several distinct successors) pay the
        // count sweep — an SCC with one successor picks it unconditionally.
        let mut sizes: Vec<u32> = vec![u32::MAX; num_sccs];
        fn size_of(sizes: &mut [u32], rows: &[BitSet], s: usize) -> u32 {
            if sizes[s] == u32::MAX {
                sizes[s] = rows[s].count() as u32;
            }
            sizes[s]
        }
        for s in 0..num_sccs {
            let mut row = BitSet::new(n);
            if cyclic[s] {
                for &m in &members[s] {
                    row.insert(m as usize);
                }
            }
            let mut best = u32::MAX;
            for &m in &members[s] {
                for &t in &cfg.succs[m as usize] {
                    let ts = scc[t.index()] as usize;
                    if ts != s {
                        row.insert(t.index());
                        if merged[ts] != s as u32 {
                            merged[ts] = s as u32;
                            row.union_with(&rows[ts]);
                            // Largest-row successor becomes the base, so
                            // `row \ rows[base]` stays small.
                            if best == u32::MAX
                                || size_of(&mut sizes, &rows, ts)
                                    > size_of(&mut sizes, &rows, best as usize)
                            {
                                best = ts as u32;
                            }
                        }
                    }
                }
            }
            base[s] = best;
            rows.push(row);
        }

        Reachability {
            scc,
            rows,
            cyclic,
            base,
        }
    }

    /// `true` if a path of >= 1 edge leads from `from` to `to`.
    #[inline]
    pub fn reaches(&self, from: BlockId, to: BlockId) -> bool {
        self.rows[self.scc[from.index()] as usize].contains(to.index())
    }

    /// `true` if `b` lies on a CFG cycle.
    #[inline]
    pub fn in_cycle(&self, b: BlockId) -> bool {
        self.cyclic[self.scc[b.index()] as usize]
    }

    /// The reachable-block row of `b` (shared across its SCC).
    #[inline]
    pub fn row(&self, b: BlockId) -> &BitSet {
        &self.rows[self.scc[b.index()] as usize]
    }

    /// The SCC id of block `b`. Ids are dense (`0..num_sccs`) and
    /// assigned in reverse-topological order over the condensation.
    #[inline]
    pub fn scc_of(&self, b: BlockId) -> usize {
        self.scc[b.index()] as usize
    }

    /// Number of SCCs in the condensation.
    #[inline]
    pub fn num_sccs(&self) -> usize {
        self.rows.len()
    }

    /// The reachable-block row of SCC `s` — the single row every member
    /// of the SCC shares. Consumers aggregating per-source-block data
    /// (e.g. ordering counts) walk each row **once per SCC** instead of
    /// once per block.
    #[inline]
    pub fn scc_row(&self, s: usize) -> &BitSet {
        &self.rows[s]
    }

    /// A successor SCC of `s` in the condensation whose row is a
    /// **subset** of `s`'s row (`None` for sinks). Ids are
    /// reverse-topological, so the base is always `< s` — per-SCC
    /// aggregates can be computed in one ascending sweep as
    /// `agg(s) = agg(base) + Σ over scc_row(s) \ scc_row(base)`, turning
    /// the quadratic all-rows walk into one proportional to the (small)
    /// row differences.
    #[inline]
    pub fn scc_base(&self, s: usize) -> Option<usize> {
        let b = self.base[s];
        (b != u32::MAX).then_some(b as usize)
    }
}

/// The cache-once per-function CFG substrate: the [`Reachability`] table
/// of the function's [`Cfg`], built exactly once and then shared by
/// reference across every stage that needs control-flow structure
/// (ordering generation, pruning, fence minimization, reports).
///
/// The fence-placement pipeline owns one `FuncSubstrate` per function
/// (inside its per-function analysis context) for the lifetime of a
/// whole batch run; nothing downstream ever calls [`Cfg::new`] or
/// [`Reachability::new`] again. The fleet builds it from the `Cfg` the
/// validation gate already built ([`crate::verify_module_checked`]).
#[derive(Clone, Debug)]
pub struct FuncSubstrate {
    /// All-pairs reachability over the function's CFG, one row per SCC.
    pub reach: Reachability,
}

impl FuncSubstrate {
    /// Builds the CFG of `func` and its reachability table.
    pub fn new(func: &Function) -> Self {
        Self::from_cfg(&Cfg::new(func))
    }

    /// Builds the reachability table of an already-built CFG.
    pub fn from_cfg(cfg: &Cfg) -> Self {
        FuncSubstrate {
            reach: Reachability::new(cfg),
        }
    }
}

/// Iterative Tarjan: returns the SCC id of every block, ids assigned in
/// completion order (reverse-topological over the condensation).
fn tarjan_sccs(cfg: &Cfg) -> Vec<u32> {
    const UNVISITED: u32 = u32::MAX;
    let n = cfg.num_blocks();
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut scc = vec![UNVISITED; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut call: Vec<(u32, usize)> = Vec::new();
    let mut next_index = 0u32;
    let mut num_sccs = 0u32;

    for start in 0..n {
        if index[start] != UNVISITED {
            continue;
        }
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start as u32);
        on_stack[start] = true;
        call.push((start as u32, 0));

        while let Some(&mut (v, ref mut cursor)) = call.last_mut() {
            let vi = v as usize;
            if *cursor < cfg.succs[vi].len() {
                let w = cfg.succs[vi][*cursor].index();
                *cursor += 1;
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w as u32);
                    on_stack[w] = true;
                    call.push((w as u32, 0));
                } else if on_stack[w] {
                    low[vi] = low[vi].min(index[w]);
                }
            } else {
                if low[vi] == index[vi] {
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        scc[w as usize] = num_sccs;
                        if w == v {
                            break;
                        }
                    }
                    num_sccs += 1;
                }
                call.pop();
                if let Some(&mut (p, _)) = call.last_mut() {
                    let pi = p as usize;
                    low[pi] = low[pi].min(low[vi]);
                }
            }
        }
    }
    scc
}

/// Immediate-dominator tree (Cooper–Harvey–Kennedy iterative algorithm).
#[derive(Clone, Debug)]
pub struct Dominators {
    /// `idom[b]` — immediate dominator; `idom[entry] == entry`; `None` for
    /// unreachable blocks.
    idom: Vec<Option<BlockId>>,
    entry: BlockId,
}

impl Dominators {
    /// Computes dominators for the reachable portion of the CFG.
    pub fn new(cfg: &Cfg) -> Self {
        let n = cfg.num_blocks();
        let rpo = cfg.rpo();
        // rpo may contain unreachable blocks at the tail; restrict to the
        // reachable prefix by recomputing reachable set.
        let mut reachable = BitSet::new(n);
        reachable.insert(cfg.entry.index());
        let mut stack = vec![cfg.entry];
        while let Some(b) = stack.pop() {
            for &s in &cfg.succs[b.index()] {
                if reachable.insert(s.index()) {
                    stack.push(s);
                }
            }
        }
        let rpo: Vec<BlockId> = rpo
            .into_iter()
            .filter(|b| reachable.contains(b.index()))
            .collect();
        let mut rpo_num = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_num[b.index()] = i;
        }

        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[cfg.entry.index()] = Some(cfg.entry);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &cfg.preds[b.index()] {
                    if idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => Self::intersect(&idom, &rpo_num, p, cur),
                    });
                }
                if new_idom != idom[b.index()] && new_idom.is_some() {
                    idom[b.index()] = new_idom;
                    changed = true;
                }
            }
        }
        Dominators {
            idom,
            entry: cfg.entry,
        }
    }

    fn intersect(
        idom: &[Option<BlockId>],
        rpo_num: &[usize],
        mut a: BlockId,
        mut b: BlockId,
    ) -> BlockId {
        while a != b {
            while rpo_num[a.index()] > rpo_num[b.index()] {
                a = idom[a.index()].expect("processed");
            }
            while rpo_num[b.index()] > rpo_num[a.index()] {
                b = idom[b.index()].expect("processed");
            }
        }
        a
    }

    /// `true` if `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if self.idom[b.index()].is_none() {
            // b unreachable: vacuously dominated by anything reachable;
            // report false to be conservative.
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            if cur == self.entry {
                return false;
            }
            cur = match self.idom[cur.index()] {
                Some(d) => d,
                None => return false,
            };
        }
    }

    /// The immediate dominator of `b` (`entry` maps to itself).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom[b.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::value::Value;

    /// Builds a diamond: entry -> (then | else) -> join -> ret.
    fn diamond() -> Function {
        let mut fb = FunctionBuilder::new("d", 0);
        fb.if_then_else(Value::c(1), |_| {}, |_| {});
        fb.ret(None);
        fb.build()
    }

    #[test]
    fn diamond_cfg() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.succs[f.entry.index()].len(), 2);
        let join = cfg
            .preds
            .iter()
            .position(|p| p.len() == 2)
            .expect("join block has two preds");
        let reach = Reachability::new(&cfg);
        assert!(reach.reaches(f.entry, BlockId::new(join)));
        assert!(!reach.reaches(BlockId::new(join), f.entry));
        assert!(!reach.in_cycle(f.entry));
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_all() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        let rpo = cfg.rpo();
        assert_eq!(rpo[0], f.entry);
        assert_eq!(rpo.len(), f.num_blocks());
    }

    #[test]
    fn loop_reachability() {
        let mut fb = FunctionBuilder::new("l", 0);
        fb.for_loop(0i64, 4i64, |_, _| {});
        fb.ret(None);
        let f = fb.build();
        let cfg = Cfg::new(&f);
        let reach = Reachability::new(&cfg);
        let header = cfg
            .preds
            .iter()
            .position(|p| p.len() == 2)
            .map(BlockId::new)
            .expect("loop header has 2 preds");
        assert!(reach.in_cycle(header), "loop header is on a cycle");
    }

    /// Reference implementation: per-block DFS (the seed algorithm),
    /// used to cross-check the SCC-based construction.
    fn dfs_reachability(cfg: &Cfg) -> Vec<BitSet> {
        let n = cfg.num_blocks();
        let mut rows = Vec::with_capacity(n);
        let mut stack = Vec::new();
        for b in 0..n {
            let mut row = BitSet::new(n);
            stack.clear();
            for &s in &cfg.succs[b] {
                if row.insert(s.index()) {
                    stack.push(s);
                }
            }
            while let Some(cur) = stack.pop() {
                for &s in &cfg.succs[cur.index()] {
                    if row.insert(s.index()) {
                        stack.push(s);
                    }
                }
            }
            rows.push(row);
        }
        rows
    }

    fn cfg_from_edges(n: usize, edges: &[(usize, usize)]) -> Cfg {
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for &(a, b) in edges {
            succs[a].push(BlockId::new(b));
            preds[b].push(BlockId::new(a));
        }
        Cfg {
            succs,
            preds,
            entry: BlockId::new(0),
        }
    }

    #[test]
    fn scc_reachability_matches_dfs_reference() {
        let shapes: Vec<(usize, Vec<(usize, usize)>)> = vec![
            // Straight chain.
            (5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]),
            // Self loop.
            (3, vec![(0, 1), (1, 1), (1, 2)]),
            // Two-block cycle plus exit.
            (4, vec![(0, 1), (1, 2), (2, 1), (2, 3)]),
            // Nested loops sharing a header.
            (
                6,
                vec![(0, 1), (1, 2), (2, 1), (2, 3), (3, 1), (3, 4), (4, 5)],
            ),
            // Disconnected component + multi-exit diamond.
            (7, vec![(0, 1), (0, 2), (1, 3), (2, 3), (5, 6), (6, 5)]),
            // Dense: every block to every later block, plus one back edge.
            (
                5,
                (0..5)
                    .flat_map(|a| (a + 1..5).map(move |b| (a, b)))
                    .chain([(4, 0)])
                    .collect(),
            ),
            // Parallel edges (condbr with equal targets).
            (3, vec![(0, 1), (0, 1), (1, 2), (1, 2)]),
        ];
        #[allow(clippy::needless_range_loop)] // a/b index two structures
        for (i, (n, edges)) in shapes.iter().enumerate() {
            let cfg = cfg_from_edges(*n, edges);
            let reference = dfs_reachability(&cfg);
            let reach = Reachability::new(&cfg);
            for a in 0..*n {
                for b in 0..*n {
                    assert_eq!(
                        reach.reaches(BlockId::new(a), BlockId::new(b)),
                        reference[a].contains(b),
                        "shape {i}: reaches({a}, {b})"
                    );
                }
                assert_eq!(
                    reach.in_cycle(BlockId::new(a)),
                    reference[a].contains(a),
                    "shape {i}: in_cycle({a})"
                );
            }
        }
    }

    /// Every non-sink SCC's base successor must (a) have a smaller id and
    /// (b) contribute a row that is a subset of the SCC's own row — the
    /// two invariants the ascending aggregate recurrence relies on.
    #[test]
    fn scc_base_is_smaller_and_subset() {
        let shapes: Vec<(usize, Vec<(usize, usize)>)> = vec![
            (5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]),
            (4, vec![(0, 1), (1, 2), (2, 1), (2, 3)]),
            (
                6,
                vec![(0, 1), (1, 2), (2, 1), (2, 3), (3, 1), (3, 4), (4, 5)],
            ),
            (7, vec![(0, 1), (0, 2), (1, 3), (2, 3), (5, 6), (6, 5)]),
            (
                5,
                (0..5)
                    .flat_map(|a| (a + 1..5).map(move |b| (a, b)))
                    .chain([(4, 0)])
                    .collect(),
            ),
        ];
        for (i, (n, edges)) in shapes.iter().enumerate() {
            let cfg = cfg_from_edges(*n, edges);
            let reach = Reachability::new(&cfg);
            for s in 0..reach.num_sccs() {
                match reach.scc_base(s) {
                    None => {
                        // A sink SCC: no outgoing condensation edge.
                        for b in 0..*n {
                            if reach.scc_of(BlockId::new(b)) == s {
                                for &t in &cfg.succs[b] {
                                    assert_eq!(
                                        reach.scc_of(t),
                                        s,
                                        "shape {i}: sink SCC {s} has an external succ"
                                    );
                                }
                            }
                        }
                    }
                    Some(b) => {
                        assert!(b < s, "shape {i}: base {b} of SCC {s} not smaller");
                        let (own, base) = (reach.scc_row(s), reach.scc_row(b));
                        for bit in base.iter() {
                            assert!(
                                own.contains(bit),
                                "shape {i}: row({b}) ⊄ row({s}) at bit {bit}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn scc_rows_shared_within_cycles() {
        // 1 <-> 2 is one SCC: both blocks must share one row including both.
        let cfg = cfg_from_edges(4, &[(0, 1), (1, 2), (2, 1), (2, 3)]);
        let reach = Reachability::new(&cfg);
        assert!(std::ptr::eq(
            reach.row(BlockId::new(1)),
            reach.row(BlockId::new(2))
        ));
        assert!(reach.row(BlockId::new(1)).contains(1));
        assert!(reach.row(BlockId::new(1)).contains(2));
        assert!(reach.row(BlockId::new(1)).contains(3));
        assert!(!reach.row(BlockId::new(1)).contains(0));
    }

    #[test]
    fn dominators_diamond() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        let dom = Dominators::new(&cfg);
        let join = cfg
            .preds
            .iter()
            .position(|p| p.len() == 2)
            .map(BlockId::new)
            .unwrap();
        assert!(dom.dominates(f.entry, join));
        assert!(dom.dominates(f.entry, f.entry));
        // Neither arm dominates the join.
        for &arm in &cfg.succs[f.entry.index()] {
            assert!(!dom.dominates(arm, join));
            assert_eq!(dom.idom(arm), Some(f.entry));
        }
        assert_eq!(dom.idom(join), Some(f.entry));
    }
}

//! May-alias queries and the `potential_writers` oracle.
//!
//! `potential_writers(load)` is the relation the backwards slicer follows
//! through memory (paper Listing 2, line 17: *"alias analysis is used to
//! find all stores in the function that potentially wrote the value being
//! read"*). It is intraprocedural: only writers in the same function are
//! returned, which matches the paper's intraprocedural slicing assumption
//! (§4: the synchronizing read and the use occur in the same function).
//!
//! ## Inverted writer index
//!
//! The seed oracle answered `potential_writers(read)` by scanning every
//! writer of the function and intersecting location sets — `O(writers)`
//! per slice step, which made acquire detection the dominant pipeline
//! stage on large modules. This oracle instead builds, once per function:
//!
//! * an **inverted index** `loc → writers`: every non-top writer is filed
//!   under each abstract location its address may touch;
//! * a dedicated **unknown-top bucket** for writers whose location set
//!   contains `Unknown` — they may alias *everything*, so they are
//!   returned for every read instead of being filed under every location;
//! * an `occupied` bitmask of locations that have at least one indexed
//!   writer, so a read's location set is walked with
//!   [`BitSet::iter_intersection`] and empty buckets are skipped a word
//!   at a time.
//!
//! A query now enumerates only writers whose location sets actually
//! intersect the read's. Queries are **push-style**
//! ([`AliasOracle::for_each_potential_writer`]): callers hand in a
//! reusable [`WriterScratch`] for cross-bucket dedup and receive writers
//! through a callback, so the slicer's hot loop allocates nothing.
//!
//! Per-access location sets are kept as *interned borrowed views*
//! ([`PtsView`]) into the points-to results — one table entry per
//! distinct set, no per-access `BitSet` clone.

use crate::pointsto::{PointsTo, PtsView};
use fence_ir::util::{BitSet, FastMap};
use fence_ir::{FuncId, InstId, InstKind, Module};

/// Reusable scratch state for [`AliasOracle::for_each_potential_writer`]:
/// a dedup bitset (a writer filed under several locations must be
/// reported once) cleared between queries by undoing only the bits the
/// previous query touched.
#[derive(Default)]
pub struct WriterScratch {
    seen: BitSet,
    touched: Vec<u32>,
}

impl WriterScratch {
    /// Creates an empty scratch; the oracle sizes it on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepares for a query over a universe of `n` instructions.
    fn begin(&mut self, n: usize) {
        if self.seen.universe() < n {
            self.seen = BitSet::new(n);
        } else {
            for &i in &self.touched {
                self.seen.remove(i as usize);
            }
        }
        self.touched.clear();
    }

    /// Marks `i`; returns `true` the first time.
    #[inline]
    fn mark(&mut self, i: usize) -> bool {
        if self.seen.insert(i) {
            self.touched.push(i as u32);
            true
        } else {
            false
        }
    }
}

/// Per-function alias oracle (borrowing module-wide points-to results).
///
/// ```
/// use fence_ir::builder::{FunctionBuilder, ModuleBuilder};
/// use fence_analysis::{AliasOracle, PointsTo};
///
/// let mut mb = ModuleBuilder::new("m");
/// let x = mb.global("x", 1);
/// let y = mb.global("y", 1);
/// let mut fb = FunctionBuilder::new("f", 0);
/// let read = fb.load(x).as_inst().unwrap();
/// fb.store(x, 1i64); // may have written the value `read` sees
/// fb.store(y, 2i64); // distinct global: cannot
/// fb.ret(None);
/// let fid = mb.add_func(fb.build());
/// let m = mb.finish();
///
/// let pt = PointsTo::analyze(&m);
/// let oracle = AliasOracle::new(&m, &pt, fid);
/// assert_eq!(oracle.potential_writers(read).len(), 1);
/// ```
pub struct AliasOracle<'a> {
    pt: &'a PointsTo,
    /// Interned location-set id of every memory access's address operand
    /// (`None` for non-accesses).
    access_set: Vec<Option<u32>>,
    /// Distinct interned location sets, as borrowed views — no clones.
    sets: Vec<PtsView<'a>>,
    /// Memory-writing instructions of the function (incl. lock
    /// intrinsics), in program order.
    writers: Vec<InstId>,
    /// Writers whose location set contains `Unknown`: they may alias
    /// every access, so they live in this bucket instead of the index.
    top_writers: Vec<InstId>,
    /// Inverted index: `loc_writers[l]` lists the non-top writers whose
    /// location set contains `l`, in program order.
    loc_writers: Vec<Vec<InstId>>,
    /// Locations with at least one indexed writer (intersection mask).
    occupied: BitSet,
}

impl<'a> AliasOracle<'a> {
    /// Builds the oracle for `func_id`.
    pub fn new(module: &Module, pt: &'a PointsTo, func_id: FuncId) -> Self {
        let func = module.func(func_id);
        let num_locs = pt.num_locs();
        let unk = pt.unknown_idx();
        let mut this = AliasOracle {
            pt,
            access_set: vec![None; func.num_insts()],
            sets: Vec::new(),
            writers: Vec::new(),
            top_writers: Vec::new(),
            loc_writers: vec![Vec::new(); num_locs],
            occupied: BitSet::new(num_locs),
        };
        // Interning key: views borrow directly from the points-to results,
        // so identity (singleton index / borrowed set address) dedups all
        // accesses sharing an address node without content hashing.
        let mut intern: FastMap<(u8, usize), u32> = FastMap::default();
        for (iid, inst) in func.iter_insts() {
            let (addr, is_write) = if let Some(addr) = inst.kind.mem_addr() {
                (addr, inst.kind.is_mem_write())
            } else if let InstKind::CallIntrinsic { intr, args } = &inst.kind {
                // Lock/barrier intrinsics write their lock word; model them
                // as opaque writers so loads of the same word see them.
                match args.first() {
                    Some(&addr) if intr.is_sync_boundary() => (addr, true),
                    _ => continue,
                }
            } else {
                continue;
            };
            let view = pt.addr_locs(func_id, addr);
            let key = match view {
                PtsView::Empty => (0u8, 0usize),
                PtsView::Singleton(s) => (1u8, s),
                PtsView::Set(b) => (2u8, b as *const BitSet as usize),
            };
            let sets = &mut this.sets;
            let sid = *intern.entry(key).or_insert_with(|| {
                sets.push(view);
                (sets.len() - 1) as u32
            });
            this.access_set[iid.index()] = Some(sid);
            if is_write {
                this.writers.push(iid);
                if view.contains(unk) {
                    this.top_writers.push(iid);
                } else {
                    for l in view.iter() {
                        this.loc_writers[l].push(iid);
                        this.occupied.insert(l);
                    }
                }
            }
        }
        this
    }

    /// The abstract locations access `iid` may touch, as a borrowed view
    /// (`None` for non-accesses).
    pub fn locs_of(&self, iid: InstId) -> Option<PtsView<'a>> {
        self.access_set[iid.index()].map(|sid| self.sets[sid as usize])
    }

    /// May two accesses of this function touch the same memory?
    ///
    /// Two accesses may alias if their location sets intersect, or either
    /// set contains `Unknown` (top).
    pub fn may_alias(&self, a: InstId, b: InstId) -> bool {
        let (sa, sb) = match (self.access_set[a.index()], self.access_set[b.index()]) {
            (Some(x), Some(y)) => {
                if x == y {
                    // Same interned set; address sets are never empty.
                    return true;
                }
                (self.sets[x as usize], self.sets[y as usize])
            }
            _ => return false,
        };
        let unk = self.pt.unknown_idx();
        sa.contains(unk) || sb.contains(unk) || sa.intersects_view(&sb)
    }

    /// Calls `f` for every memory-writing instruction of this function
    /// that may have written the value read by `read` (paper Listing 2,
    /// line 17) — the push-style, allocation-free form of
    /// [`AliasOracle::potential_writers`].
    ///
    /// Only buckets whose location intersects the read's set are visited;
    /// unknown-top writers are reported for every read, and a read whose
    /// own set contains `Unknown` receives all writers.
    pub fn for_each_potential_writer(
        &self,
        read: InstId,
        scratch: &mut WriterScratch,
        mut f: impl FnMut(InstId),
    ) {
        let Some(sid) = self.access_set[read.index()] else {
            return;
        };
        let rset = self.sets[sid as usize];
        let unk = self.pt.unknown_idx();
        if rset.contains(unk) {
            // Top read: every writer may have produced the value.
            for &w in &self.writers {
                if w != read {
                    f(w);
                }
            }
            return;
        }
        // Unknown-top writers alias every access.
        for &w in &self.top_writers {
            if w != read {
                f(w);
            }
        }
        match rset {
            PtsView::Empty => {}
            // A single bucket lists each writer at most once: no dedup.
            PtsView::Singleton(l) => {
                for &w in &self.loc_writers[l] {
                    if w != read {
                        f(w);
                    }
                }
            }
            PtsView::Set(b) => {
                scratch.begin(self.access_set.len());
                for l in b.iter_intersection(&self.occupied) {
                    for &w in &self.loc_writers[l] {
                        if w != read && scratch.mark(w.index()) {
                            f(w);
                        }
                    }
                }
            }
        }
    }

    /// Materialized form of [`AliasOracle::for_each_potential_writer`]
    /// (tests, reports, one-off callers). Writer *sets* are identical to
    /// the seed's linear filter; enumeration order may differ (bucket
    /// order instead of program order).
    pub fn potential_writers(&self, read: InstId) -> Vec<InstId> {
        let mut scratch = WriterScratch::new();
        let mut out = Vec::new();
        self.for_each_potential_writer(read, &mut scratch, |w| out.push(w));
        out
    }

    /// All writer instructions of the function (debug / stats).
    pub fn writers(&self) -> &[InstId] {
        &self.writers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fence_ir::builder::{FunctionBuilder, ModuleBuilder};
    use fence_ir::Value;

    #[test]
    fn distinct_globals_do_not_alias() {
        let mut mb = ModuleBuilder::new("m");
        let x = mb.global("x", 1);
        let y = mb.global("y", 1);
        let mut fb = FunctionBuilder::new("f", 0);
        let l = fb.load(x).as_inst().unwrap();
        fb.store(y, 1i64);
        fb.ret(None);
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let pt = PointsTo::analyze(&m);
        let oracle = AliasOracle::new(&m, &pt, fid);
        assert!(oracle.potential_writers(l).is_empty());
    }

    #[test]
    fn same_global_aliases() {
        let mut mb = ModuleBuilder::new("m");
        let x = mb.global("x", 1);
        let mut fb = FunctionBuilder::new("f", 0);
        let l = fb.load(x).as_inst().unwrap();
        fb.store(x, 1i64);
        fb.ret(None);
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let pt = PointsTo::analyze(&m);
        let oracle = AliasOracle::new(&m, &pt, fid);
        assert_eq!(oracle.potential_writers(l).len(), 1);
    }

    #[test]
    fn unknown_pointer_aliases_everything() {
        let mut mb = ModuleBuilder::new("m");
        let x = mb.global("x", 1);
        let mut fb = FunctionBuilder::new("f", 1);
        let l = fb.load(Value::Arg(0)).as_inst().unwrap(); // *p1 — may alias x
        fb.store(x, 1i64);
        fb.ret(None);
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let pt = PointsTo::analyze(&m);
        let oracle = AliasOracle::new(&m, &pt, fid);
        assert_eq!(
            oracle.potential_writers(l).len(),
            1,
            "unknown pointer may alias the global store"
        );
    }

    /// Writers through an unknown pointer land in the dedicated top
    /// bucket and are returned for *every* read, without being filed
    /// under any concrete location.
    #[test]
    fn unknown_top_writer_bucket() {
        let mut mb = ModuleBuilder::new("m");
        let x = mb.global("x", 1);
        let y = mb.global("y", 1);
        let mut fb = FunctionBuilder::new("f", 1);
        let lx = fb.load(x).as_inst().unwrap();
        let ly = fb.load(y).as_inst().unwrap();
        fb.store(Value::Arg(0), 1i64); // *p = 1 — unknown-top writer
        fb.store(x, 2i64); // concrete writer
        fb.ret(None);
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let pt = PointsTo::analyze(&m);
        let oracle = AliasOracle::new(&m, &pt, fid);
        assert_eq!(oracle.top_writers.len(), 1, "one unknown-top writer");
        let top = oracle.top_writers[0];
        // The top writer is not filed under any location bucket.
        assert!(oracle.loc_writers.iter().all(|b| !b.contains(&top)));
        // It is reported for reads of unrelated locations.
        let wy = oracle.potential_writers(ly);
        assert_eq!(wy, vec![top], "read of y sees only the top writer");
        // Reads of x see both the top writer and the concrete store.
        let wx = oracle.potential_writers(lx);
        assert_eq!(wx.len(), 2);
        assert!(wx.contains(&top));
    }

    /// A read whose own address is unknown-top receives every writer,
    /// and cross-bucket dedup reports multi-location writers once.
    #[test]
    fn top_read_sees_all_writers_once() {
        let mut mb = ModuleBuilder::new("m");
        let a = mb.global("a", 1);
        let b = mb.global("b", 1);
        let mut fb = FunctionBuilder::new("f", 2);
        // p selects between two globals: its set is {a, b}.
        let p = fb.select(Value::Arg(1), a, b);
        fb.store(p, 1i64); // writer filed under both a and b
        let lr = fb.load(Value::Arg(0)).as_inst().unwrap(); // top read
        let la = fb.load(a).as_inst().unwrap();
        fb.ret(None);
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let pt = PointsTo::analyze(&m);
        let oracle = AliasOracle::new(&m, &pt, fid);
        assert_eq!(
            oracle.potential_writers(lr).len(),
            1,
            "top read: all writers"
        );
        // The two-location writer is reported once despite two buckets.
        let wa = oracle.potential_writers(la);
        assert_eq!(wa.len(), 1, "dedup across buckets");
    }

    #[test]
    fn gep_into_same_array_aliases() {
        let mut mb = ModuleBuilder::new("m");
        let arr = mb.global("arr", 16);
        let mut fb = FunctionBuilder::new("f", 2);
        let p = fb.gep(arr, Value::Arg(0));
        let q = fb.gep(arr, Value::Arg(1));
        let l = fb.load(p).as_inst().unwrap();
        fb.store(q, 1i64);
        fb.ret(None);
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let pt = PointsTo::analyze(&m);
        let oracle = AliasOracle::new(&m, &pt, fid);
        // Field-insensitive: same array ⇒ may alias even if indices differ.
        assert_eq!(oracle.potential_writers(l).len(), 1);
    }

    #[test]
    fn lock_intrinsic_is_a_writer() {
        let mut mb = ModuleBuilder::new("m");
        let lock = mb.global("lock", 1);
        let mut fb = FunctionBuilder::new("f", 0);
        let l = fb.load(lock).as_inst().unwrap();
        fb.lock_acquire(lock);
        fb.ret(None);
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let pt = PointsTo::analyze(&m);
        let oracle = AliasOracle::new(&m, &pt, fid);
        assert_eq!(oracle.potential_writers(l).len(), 1);
    }

    #[test]
    fn rmw_counts_as_writer() {
        let mut mb = ModuleBuilder::new("m");
        let x = mb.global("x", 1);
        let mut fb = FunctionBuilder::new("f", 0);
        let l = fb.load(x).as_inst().unwrap();
        fb.rmw(fence_ir::RmwOp::Add, x, 1i64);
        fb.ret(None);
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let pt = PointsTo::analyze(&m);
        let oracle = AliasOracle::new(&m, &pt, fid);
        assert_eq!(oracle.potential_writers(l).len(), 1);
    }
}

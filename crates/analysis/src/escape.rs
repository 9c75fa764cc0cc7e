//! Pensieve-style thread-escape analysis.
//!
//! Determines, per function, the set `E` of memory accesses that may touch
//! thread-shared memory. The paper (§2.1): *"a conservative thread-escape
//! analysis is performed on each access in a function, to determine a set
//! of potentially escaping accesses, E"*, and *"all references to memory
//! that cannot be proven to be restricted to the local function, must be
//! marked as potentially escaping"*.
//!
//! Escaped abstract locations:
//! * every global (module-level shared memory),
//! * `Unknown`,
//! * transitively: any allocation site reachable through the pointee sets
//!   of escaped locations (publishing a heap node through a global — e.g.
//!   linking it into a shared queue — escapes it, plus everything it
//!   points to).
//!
//! An access escapes iff its address may reference an escaped location.

use crate::pointsto::PointsTo;
use fence_ir::util::BitSet;
use fence_ir::{FuncId, InstId, Module};

/// Escape classification for a module.
pub struct EscapeInfo {
    /// Per function: set of escaping memory-access instructions.
    escaping_accesses: Vec<BitSet>,
}

impl EscapeInfo {
    /// Computes escape information from points-to results.
    pub fn analyze(module: &Module, pt: &PointsTo) -> Self {
        let n = pt.num_locs();
        let mut escaped = BitSet::new(n);
        // Seed: all globals + Unknown.
        for i in 0..n {
            match pt.loc(i) {
                crate::pointsto::AbsLoc::Global(_) | crate::pointsto::AbsLoc::Unknown => {
                    escaped.insert(i);
                }
                crate::pointsto::AbsLoc::Alloc(_, _) => {}
            }
        }
        // Closure: cells of escaped locations publish what they point to.
        // Worklist formulation — every location is expanded exactly once.
        let mut work: Vec<usize> = escaped.iter().collect();
        while let Some(l) = work.pop() {
            for p in pt.loc_pts(l).iter() {
                if escaped.insert(p) {
                    work.push(p);
                }
            }
        }

        // Per-function access classification.
        let mut escaping_accesses = Vec::with_capacity(module.funcs.len());
        for (fid, func) in module.iter_funcs() {
            let mut set = BitSet::new(func.num_insts());
            for (iid, inst) in func.iter_insts() {
                if let Some(addr) = inst.kind.mem_addr() {
                    let locs = pt.addr_locs(fid, addr);
                    if locs.intersects(&escaped) {
                        set.insert(iid.index());
                    }
                }
            }
            escaping_accesses.push(set);
        }

        EscapeInfo { escaping_accesses }
    }

    /// `true` if the access may touch thread-shared memory.
    #[inline]
    pub fn is_escaping(&self, f: FuncId, inst: InstId) -> bool {
        self.escaping_accesses[f.index()].contains(inst.index())
    }

    /// The escaping-access set of a function (bit-indexed by `InstId`).
    #[inline]
    pub fn escaping_set(&self, f: FuncId) -> &BitSet {
        &self.escaping_accesses[f.index()]
    }

    /// Escaping *reads* of a function (the candidate acquires), i.e. the
    /// escaping accesses that read memory (`load` / `rmw` / `cas`).
    pub fn escaping_reads(&self, module: &Module, f: FuncId) -> Vec<InstId> {
        let func = module.func(f);
        self.escaping_accesses[f.index()]
            .iter()
            .map(InstId::new)
            .filter(|&iid| func.inst(iid).kind.is_mem_read())
            .collect()
    }

    /// Escaping *writes* of a function (conservatively all releases).
    pub fn escaping_writes(&self, module: &Module, f: FuncId) -> Vec<InstId> {
        let func = module.func(f);
        self.escaping_accesses[f.index()]
            .iter()
            .map(InstId::new)
            .filter(|&iid| func.inst(iid).kind.is_mem_write())
            .collect()
    }

    /// Number of escaping reads — [`EscapeInfo::escaping_reads`] without
    /// materializing the id list (report counters).
    pub fn escaping_read_count(&self, module: &Module, f: FuncId) -> usize {
        let func = module.func(f);
        self.escaping_accesses[f.index()]
            .iter()
            .filter(|&i| func.inst(InstId::new(i)).kind.is_mem_read())
            .count()
    }

    /// Number of escaping writes, without materializing the id list.
    pub fn escaping_write_count(&self, module: &Module, f: FuncId) -> usize {
        let func = module.func(f);
        self.escaping_accesses[f.index()]
            .iter()
            .filter(|&i| func.inst(InstId::new(i)).kind.is_mem_write())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pointsto::PointsTo;
    use fence_ir::builder::{FunctionBuilder, ModuleBuilder};
    use fence_ir::Value;

    fn run(m: &Module) -> (PointsTo, EscapeInfo) {
        let pt = PointsTo::analyze(m);
        let esc = EscapeInfo::analyze(m, &pt);
        (pt, esc)
    }

    #[test]
    fn global_accesses_escape() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("x", 1);
        let mut fb = FunctionBuilder::new("f", 0);
        let v = fb.load(g);
        fb.store(g, v);
        fb.ret(None);
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let (_, esc) = run(&m);
        assert_eq!(esc.escaping_reads(&m, fid).len(), 1);
        assert_eq!(esc.escaping_writes(&m, fid).len(), 1);
    }

    #[test]
    fn private_alloc_does_not_escape() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = FunctionBuilder::new("f", 0);
        let buf = fb.alloc(8i64);
        fb.store(buf, 1i64); // scratch write, never published
        let _v = fb.load(buf);
        fb.ret(None);
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let (_, esc) = run(&m);
        assert!(esc.escaping_reads(&m, fid).is_empty());
        assert!(esc.escaping_writes(&m, fid).is_empty());
    }

    #[test]
    fn published_alloc_escapes() {
        let mut mb = ModuleBuilder::new("m");
        let head = mb.global("head", 1);
        let mut fb = FunctionBuilder::new("f", 0);
        let node = fb.alloc(2i64);
        fb.store(node, 7i64); // init before publish — still escaping
                              // (flow-insensitive, conservative)
        fb.store(head, node); // publish
        let p = fb.load(head);
        let _v = fb.load(p);
        fb.ret(None);
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let (_, esc) = run(&m);
        // node write + head store are escaping writes; head load + node load
        // are escaping reads.
        assert_eq!(esc.escaping_writes(&m, fid).len(), 2);
        assert_eq!(esc.escaping_reads(&m, fid).len(), 2);
    }

    #[test]
    fn unknown_address_escapes() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = FunctionBuilder::new("f", 1);
        let _v = fb.load(Value::Arg(0));
        fb.ret(None);
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let (_, esc) = run(&m);
        assert_eq!(
            esc.escaping_reads(&m, fid).len(),
            1,
            "unknown pointer arg must be conservatively escaping"
        );
    }

    #[test]
    fn transitively_published_alloc_escapes() {
        // head -> nodeA -> nodeB: nodeB escapes through nodeA.
        let mut mb = ModuleBuilder::new("m");
        let head = mb.global("head", 1);
        let mut fb = FunctionBuilder::new("f", 0);
        let a = fb.alloc(1i64);
        let b = fb.alloc(1i64);
        fb.store(a, b); // a.next = b
        fb.store(head, a); // publish a
        let _ = fb.load(b); // read through b: escaping
        fb.ret(None);
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let (_, esc) = run(&m);
        assert_eq!(esc.escaping_reads(&m, fid).len(), 1);
    }
}

//! Synchronization-read (acquire) detection — paper Listings 1 and 3.
//!
//! A read can only be an acquire if it matches at least one of two
//! signatures (Theorem 3.1):
//!
//! * **control**: a conditional branch in the read's forward slice depends
//!   on the value read;
//! * **address**: the value read feeds the address computation of a later
//!   access.
//!
//! Both algorithms invert the forward-slice test: instead of slicing
//! forward from every read, they slice *backwards* from every signature
//! root and collect the escaping reads encountered.
//!
//! * `Control` (Listing 1) roots: the operands of every conditional
//!   branch.
//! * `Address+Control` (Listing 3) roots: additionally every dereference's
//!   address operand and every address-calculation's offset operand.
//!
//! Detection is intraprocedural — the paper's stated (and empirically
//! validated) simplifying assumption is that the synchronizing read and
//! the branch/address use occur in the same function.

use crate::pipeline::Variant;
use fence_analysis::alias::AliasOracle;
use fence_analysis::escape::EscapeInfo;
use fence_analysis::pointsto::PointsTo;
use fence_analysis::slicer::Slicer;
use fence_ir::util::BitSet;
use fence_ir::{FuncId, Function, InstId, InstKind, Module};

/// Which detection algorithm to run.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum DetectMode {
    /// Listing 1: control acquires only.
    Control,
    /// Listing 3: control plus address acquires (conservative variant).
    AddressControl,
}

/// Detection result for one function.
#[derive(Clone, Debug)]
pub struct AcquireInfo {
    /// Escaping reads matching the **control** signature.
    pub control: BitSet,
    /// Escaping reads matching the **address** signature
    /// (populated only under [`DetectMode::AddressControl`]).
    pub address: BitSet,
    /// The union — the function's detected synchronization reads.
    pub sync_reads: BitSet,
}

impl AcquireInfo {
    /// Ids of all detected sync reads.
    pub fn sync_read_ids(&self) -> Vec<InstId> {
        self.sync_reads.iter().map(InstId::new).collect()
    }

    /// Number of detected sync reads.
    pub fn count(&self) -> usize {
        self.sync_reads.count()
    }

    /// Reads matching the address signature but *not* the control
    /// signature ("Pure Addr" in Table II — empirically empty).
    pub fn pure_address_ids(&self) -> Vec<InstId> {
        self.address
            .iter()
            .filter(|&i| !self.control.contains(i))
            .map(InstId::new)
            .collect()
    }

    /// Number of pure-address acquires — [`AcquireInfo::pure_address_ids`]
    /// without materializing the id list (word-level set difference).
    pub fn pure_address_count(&self) -> usize {
        self.address.difference_count(&self.control)
    }
}

/// Runs acquire detection on one function, building a fresh
/// [`AliasOracle`]. Batch callers that already hold a per-function
/// context should use [`detect_acquires_with`] instead.
pub fn detect_acquires(
    module: &Module,
    pt: &PointsTo,
    escape: &EscapeInfo,
    fid: FuncId,
    mode: DetectMode,
) -> AcquireInfo {
    let oracle = AliasOracle::new(module, pt, fid);
    detect_acquires_with(module.func(fid), &oracle, escape.escaping_set(fid), mode)
}

/// Runs acquire detection against a caller-provided oracle and escaping
/// set — the shared-context form: the oracle is built once per function
/// (see `fenceplace::pipeline::FuncContext`) and reused across both
/// slicer passes here and across every variant/target of a batch run.
pub fn detect_acquires_with(
    func: &Function,
    oracle: &AliasOracle<'_>,
    escaping: &BitSet,
    mode: DetectMode,
) -> AcquireInfo {
    // ---- control signature (Listing 1) ----
    let mut control_slicer = Slicer::new(func, oracle, escaping);
    let mut roots = Vec::new();
    for (_, inst) in func.iter_insts() {
        if let InstKind::CondBr { cond, .. } = inst.kind {
            Slicer::push_def(&mut roots, cond);
        }
    }
    control_slicer.slice(roots);
    let control = control_slicer.sync_reads.clone();

    // ---- address signature (Listing 3 extras) ----
    let address = if mode == DetectMode::AddressControl {
        let mut addr_slicer = Slicer::new(func, oracle, escaping);
        let mut roots = Vec::new();
        for (_, inst) in func.iter_insts() {
            match &inst.kind {
                // Address calculation: slice the *offset*.
                InstKind::Gep { index, .. } => Slicer::push_def(&mut roots, *index),
                // Dereference: slice the address operand.
                k if k.is_mem_access() => {
                    if let Some(addr) = k.mem_addr() {
                        Slicer::push_def(&mut roots, addr);
                    }
                }
                _ => {}
            }
        }
        addr_slicer.slice(roots);
        addr_slicer.sync_reads
    } else {
        BitSet::new(func.num_insts())
    };

    let mut sync_reads = control.clone();
    sync_reads.union_with(&address);
    AcquireInfo {
        control,
        address,
        sync_reads,
    }
}

/// The Pensieve baseline "detection": every escaping read is conservatively
/// a potential acquire (no signature pruning at all).
pub fn pensieve_all_reads(module: &Module, escape: &EscapeInfo, fid: FuncId) -> AcquireInfo {
    let func = module.func(fid);
    let mut sync_reads = BitSet::new(func.num_insts());
    for (iid, inst) in func.iter_insts() {
        if inst.kind.is_mem_read() && escape.is_escaping(fid, iid) {
            sync_reads.insert(iid.index());
        }
    }
    AcquireInfo {
        control: sync_reads.clone(),
        address: BitSet::new(func.num_insts()),
        sync_reads,
    }
}

/// The acquires `variant` detects in function `fid`: every escaping read
/// for [`Variant::Pensieve`], Listing 1 for [`Variant::Control`] and
/// Listing 3 for [`Variant::AddressControl`]. `oracle` is the function's
/// alias oracle. [`Variant::Manual`] has no acquire information.
pub(crate) fn variant_acquires(
    module: &Module,
    escape: &EscapeInfo,
    oracle: &AliasOracle<'_>,
    fid: FuncId,
    variant: Variant,
) -> AcquireInfo {
    let mode = match variant {
        Variant::Pensieve => return pensieve_all_reads(module, escape, fid),
        Variant::Control => DetectMode::Control,
        Variant::AddressControl => DetectMode::AddressControl,
        Variant::Manual => unreachable!("Manual has no acquire info"),
    };
    detect_acquires_with(module.func(fid), oracle, escape.escaping_set(fid), mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fence_analysis::ModuleAnalysis;
    use fence_ir::builder::{FunctionBuilder, ModuleBuilder};
    use fence_ir::Value;

    fn analyze(m: &Module) -> ModuleAnalysis {
        ModuleAnalysis::run(m)
    }

    /// MP consumer: the flag spin-read is a control acquire; the data read
    /// is not.
    #[test]
    fn mp_consumer_control_acquire() {
        let mut mb = ModuleBuilder::new("mp");
        let flag = mb.global("flag", 1);
        let data = mb.global("data", 1);
        let mut fb = FunctionBuilder::new("consumer", 0);
        fb.spin_while_eq(flag, 0i64);
        let v = fb.load(data);
        fb.ret(Some(v));
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let a = analyze(&m);
        let info = detect_acquires(&m, &a.points_to, &a.escape, fid, DetectMode::Control);
        assert_eq!(info.count(), 1, "only the flag read is an acquire");
        assert_eq!(a.escape.escaping_reads(&m, fid).len(), 2);
    }

    /// MP with pointers (paper Fig. 5): `r = y; r1 = *r` — the read of `y`
    /// is a *pure address* acquire: caught by Address+Control, missed by
    /// Control.
    #[test]
    fn mp_with_pointers_pure_address_acquire() {
        let mut mb = ModuleBuilder::new("mpp");
        let x = mb.global("x", 1);
        let y = mb.global("y", 1);
        let _z = mb.global("z", 1);
        let _ = x;
        let mut fb = FunctionBuilder::new("p2", 0);
        let r = fb.load(y); // b3: r = y
        let _r1 = fb.load(r); // b5: r1 = *r
        fb.ret(None);
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let a = analyze(&m);

        let ctrl = detect_acquires(&m, &a.points_to, &a.escape, fid, DetectMode::Control);
        assert_eq!(ctrl.count(), 0, "Control misses the pure address acquire");

        let both = detect_acquires(&m, &a.points_to, &a.escape, fid, DetectMode::AddressControl);
        assert_eq!(both.count(), 1, "Address+Control finds the read of y");
        assert_eq!(both.pure_address_ids().len(), 1);
        let found = both.pure_address_ids()[0];
        assert_eq!(Value::Inst(found), r);
    }

    /// Dekker: `if (y == 0) touch z` — the read of y is a control acquire.
    #[test]
    fn dekker_control_acquire() {
        let mut mb = ModuleBuilder::new("dekker");
        let x = mb.global("x", 1);
        let y = mb.global("y", 1);
        let z = mb.global("z", 1);
        let mut fb = FunctionBuilder::new("p1", 0);
        fb.store(x, 1i64);
        let vy = fb.load(y);
        let c = fb.eq(vy, 0i64);
        fb.if_then(c, |b| {
            b.store(z, 1i64);
        });
        fb.ret(None);
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let a = analyze(&m);
        let info = detect_acquires(&m, &a.points_to, &a.escape, fid, DetectMode::Control);
        assert_eq!(info.count(), 1);
        assert_eq!(info.control.count(), 1);
    }

    /// Relaxation-solver shape (paper Fig. 1b): unsynchronized data reads,
    /// no branches or address uses ⇒ zero acquires under either variant.
    #[test]
    fn benign_races_yield_no_acquires() {
        let mut mb = ModuleBuilder::new("relax");
        let x = mb.global("x", 1);
        let y = mb.global("y", 1);
        let l1 = mb.global("local1", 1);
        let l2 = mb.global("local2", 1);
        let mut fb = FunctionBuilder::new("p2", 0);
        let vy = fb.load(y);
        fb.store(l2, vy);
        let vx = fb.load(x);
        fb.store(l1, vx);
        fb.ret(None);
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let a = analyze(&m);
        for mode in [DetectMode::Control, DetectMode::AddressControl] {
            let info = detect_acquires(&m, &a.points_to, &a.escape, fid, mode);
            assert_eq!(info.count(), 0, "no acquires under {mode:?}");
        }
    }

    /// A read feeding a gep index is an address acquire.
    #[test]
    fn index_read_is_address_acquire() {
        let mut mb = ModuleBuilder::new("m");
        let idx = mb.global("idx", 1);
        let arr = mb.global("arr", 64);
        let mut fb = FunctionBuilder::new("f", 0);
        let i = fb.load(idx); // read feeding an address computation
        let p = fb.gep(arr, i);
        let _v = fb.load(p);
        fb.ret(None);
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let a = analyze(&m);
        let both = detect_acquires(&m, &a.points_to, &a.escape, fid, DetectMode::AddressControl);
        assert!(both.address.count() >= 1);
        let ctrl = detect_acquires(&m, &a.points_to, &a.escape, fid, DetectMode::Control);
        assert_eq!(ctrl.count(), 0);
    }

    /// Control ⊆ Address+Control ⊆ escaping reads (monotonicity).
    #[test]
    fn detection_monotonicity() {
        let mut mb = ModuleBuilder::new("m");
        let flag = mb.global("flag", 1);
        let arr = mb.global("arr", 8);
        let idx = mb.global("idx", 1);
        let mut fb = FunctionBuilder::new("f", 0);
        fb.spin_while_eq(flag, 0i64);
        let i = fb.load(idx);
        let p = fb.gep(arr, i);
        let v = fb.load(p);
        fb.store(arr, v);
        fb.ret(None);
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let a = analyze(&m);
        let ctrl = detect_acquires(&m, &a.points_to, &a.escape, fid, DetectMode::Control);
        let both = detect_acquires(&m, &a.points_to, &a.escape, fid, DetectMode::AddressControl);
        let pens = pensieve_all_reads(&m, &a.escape, fid);
        for i in ctrl.sync_reads.iter() {
            assert!(both.sync_reads.contains(i), "Control ⊆ A+C");
        }
        for i in both.sync_reads.iter() {
            assert!(pens.sync_reads.contains(i), "A+C ⊆ escaping reads");
        }
        assert!(ctrl.count() <= both.count());
        assert!(both.count() <= pens.count());
    }

    /// Pensieve counts every escaping read.
    #[test]
    fn pensieve_counts_all_escaping_reads() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 4);
        let mut fb = FunctionBuilder::new("f", 0);
        let _a = fb.load(g);
        let p = fb.gep(g, 1i64);
        let _b = fb.load(p);
        fb.ret(None);
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let a = analyze(&m);
        let pens = pensieve_all_reads(&m, &a.escape, fid);
        assert_eq!(pens.count(), 2);
    }
}

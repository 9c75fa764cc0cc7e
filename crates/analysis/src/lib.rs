//! # fence-analysis
//!
//! The static analyses the fence-placement pipeline builds on, mirroring
//! the substrate the paper assumes from LLVM + the Pensieve project:
//!
//! * [`pointsto`] — a flow-insensitive, field-insensitive, Andersen-style
//!   points-to analysis over abstract locations (globals, allocation
//!   sites, and an `Unknown` top element). This is the "alias analysis
//!   which is notoriously imprecise" that delay-set approximations rely
//!   on; its conservatism is exactly what the paper's pruning exploits.
//! * [`escape`] — the Pensieve-style thread-escape analysis: determines
//!   the set of loads/stores that may touch thread-shared memory
//!   ("all references to memory that cannot be proven to be restricted to
//!   the local function must be marked as potentially escaping").
//! * [`alias`] — may-alias queries and `potential_writers`, the oracle the
//!   backwards slicer consults (paper Listing 2, line 17).
//! * [`slicer`] — the conservative intraprocedural backwards slicer of
//!   Listing 2: walks def-use chains and, through memory, the
//!   potential-writer relation, registering every escaping read it meets.
//! * [`dataflow`] — a small generic bit-vector dataflow framework (used
//!   for liveness; infrastructure for further passes).

pub mod alias;
pub mod dataflow;
pub mod escape;
pub mod pointsto;
pub mod slicer;

pub use alias::AliasOracle;
pub use escape::EscapeInfo;
pub use pointsto::{AbsLoc, PointsTo};
pub use slicer::Slicer;

/// Bundles the analysis results the fence pipeline needs for one module.
pub struct ModuleAnalysis {
    /// Points-to sets for every value/local/location.
    pub points_to: PointsTo,
    /// Thread-escape classification built on top of `points_to`.
    pub escape: EscapeInfo,
}

thread_local! {
    static ANALYSIS_RUNS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Number of [`ModuleAnalysis`] executions performed **on this thread** —
/// the observable that lets batch/fleet drivers pin "exactly one module
/// analysis per module" in tests (the sibling of
/// [`fence_ir::cfg::cfg_builds`]).
pub fn analysis_runs() -> usize {
    ANALYSIS_RUNS.with(|c| c.get())
}

impl ModuleAnalysis {
    /// Runs points-to followed by escape analysis, sequentially.
    pub fn run(module: &fence_ir::Module) -> Self {
        Self::run_on(module, false)
    }

    /// Runs the analyses with the points-to fixpoint rounds optionally
    /// sharded per function on the persistent [`fence_ir::pool`] thread
    /// pool. Results are bit-identical to the sequential run (see the
    /// [`pointsto`] module docs for why).
    pub fn run_on(module: &fence_ir::Module, parallel: bool) -> Self {
        ANALYSIS_RUNS.with(|c| c.set(c.get() + 1));
        let points_to = PointsTo::analyze_on(module, parallel);
        let escape = EscapeInfo::analyze(module, &points_to);
        ModuleAnalysis { points_to, escape }
    }
}

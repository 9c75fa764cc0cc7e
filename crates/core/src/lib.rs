//! # fenceplace
//!
//! The paper's primary contribution: **fence placement for legacy
//! data-race-free programs via synchronization read detection**
//! (McPherson, Nagarajan, Sarkar, Cintra — PPoPP'15).
//!
//! Pipeline (see [`pipeline::run_pipeline`]):
//!
//! 1. thread-escape analysis (from `fence-analysis`) yields the candidate
//!    escaping accesses `E`;
//! 2. [`acquire`] detects **synchronization reads** with the two proved
//!    signatures — *control acquires* (the read feeds a conditional branch
//!    in its forward slice) and *address acquires* (the read feeds the
//!    address of a later access) — via the backwards slicer;
//! 3. [`orderings`] generates the Pensieve-style delay-set approximation
//!    (every CFG-ordered pair of escaping accesses) and prunes it with the
//!    DRF rules of Table I;
//! 4. [`minimize`] runs locally-optimized fence minimization (after Fang
//!    et al. 2003) against a [`TargetModel`], emitting full fences for
//!    orderings the hardware relaxes and compiler directives for the rest;
//! 5. [`insert`] materializes the chosen [`minimize::FencePoint`]s as
//!    `fence` instructions in a fresh module.
//!
//! The [`Variant`] enum selects which sync-read set drives pruning:
//! `Pensieve` (every escaping read — the baseline), `Control`,
//! `AddressControl`, or `Manual` (no automatic placement; the module's
//! hand-placed fences are the placement).
//!
//! The stage sequence is implemented once, by the fleet executor
//! ([`fleet`]), and every driver is a thin caller of it.
//! [`run_pipeline_batch`] is a fleet of one: it runs the module analysis
//! and builds the per-function analysis contexts ([`FuncContext`]: alias
//! oracle, escape set, cache-once CFG substrate, block-aggregated
//! orderings) exactly once for a whole variant × target × (seq|par)
//! sweep. Multi-module callers (corpus sweeps, the `fenceplace` CLI,
//! figure harnesses) use [`run_fleet`], which schedules per-(module,
//! function) work units from *many* modules onto the persistent pool in
//! single cross-module passes, with reachability rows interned
//! fleet-wide. The resident [`Service`] seeds the same executor with the
//! work its cache already holds.

#![warn(missing_docs)]

pub mod acquire;
pub mod certify;
#[cfg(feature = "faultinject")]
pub mod faultinject;
pub mod fleet;
pub mod insert;
pub mod json;
pub mod minimize;
pub mod orderings;
pub mod pipeline;
pub mod report;
pub mod service;

/// No-op shims for the fault-injection hooks the fleet driver calls.
/// With the `faultinject` feature off (the default), these compile to
/// nothing — the production fleet carries zero registry and zero
/// lookups.
#[cfg(not(feature = "faultinject"))]
pub(crate) mod faultinject {
    use crate::report::FleetStage;
    use fence_ir::Module;
    use std::borrow::Cow;

    #[inline(always)]
    pub fn panic_point(_module: &str, _stage: FleetStage) {}

    #[inline(always)]
    pub fn extra_cost(_module: &str, _stage: FleetStage) -> u64 {
        0
    }

    #[inline(always)]
    pub fn validate_view<'m>(_module_name: &str, module: &'m Module) -> Cow<'m, Module> {
        Cow::Borrowed(module)
    }

    #[inline(always)]
    pub fn ingest_view<'t>(_module_name: &str, text: &'t str) -> Cow<'t, str> {
        Cow::Borrowed(text)
    }
}

/// The persistent per-function thread pool, re-exported from `fence_ir`
/// (it moved down a layer so the analysis crate can shard its solvers on
/// the same pool; `fenceplace::pool::ThreadPool` remains the stable
/// path).
pub use fence_ir::pool;

pub use acquire::{AcquireInfo, DetectMode};
pub use certify::{
    certify, certify_module, sync_classification, CertifyOptions, CertifyReport, CertifyStatus,
    FenceCertificate, GroupCertificate,
};
pub use fleet::{
    run_fleet, run_fleet_opts, run_fleet_streamed, run_fleet_with, stream_items, FleetJob,
    FleetOptions, FleetResult, FleetStats, StreamItem, StreamSummary,
};
pub use minimize::{FencePoint, TargetModel};
pub use orderings::{
    Access, AccessKind, FuncOrderings, OrderKind, OrderingSelection, SyncAggregates,
};
pub use pipeline::{
    run_pipeline, run_pipeline_batch, FuncContext, PipelineConfig, PipelineResult, Variant,
};
pub use report::{FleetStage, FuncReport, ModuleOutcome, ModuleReport};
pub use service::{AnalyzeOutcome, CacheDisposition, Service, ServiceOptions, ServiceStats};

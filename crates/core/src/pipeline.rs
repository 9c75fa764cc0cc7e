//! The end-to-end fence-placement pipeline.
//!
//! `escape analysis → acquire detection → ordering generation → pruning →
//! fence minimization → fence insertion`, selectable per [`Variant`]:
//!
//! * [`Variant::Pensieve`] — the baseline: no pruning at all (every
//!   escaping read is conservatively a potential acquire);
//! * [`Variant::Control`] — prune with control acquires (paper Listing 1);
//! * [`Variant::AddressControl`] — prune with control+address acquires
//!   (paper Listing 3, the conservative variant);
//! * [`Variant::Manual`] — no automatic placement; the module's hand-
//!   placed `fence` instructions *are* the placement (the paper's expert
//!   baseline).
//!
//! ## Batch architecture
//!
//! A module's analysis stack is config-independent: points-to, the escape
//! closure, the per-function CFG substrate, [`AliasOracle`] and
//! [`FuncOrderings`] are identical for every variant×target
//! combination, and the [`AcquireInfo`] depends only on the variant.
//! [`run_pipeline_batch`] therefore runs the module analysis **once**,
//! builds one [`FuncSubstrate`] (`Cfg` + `Reachability`, counter-pinned)
//! and one [`FuncContext`] per function (oracle + orderings borrowing
//! the substrate), computes acquire info once per
//! *distinct variant*, and only the cheap tail — pruning, fence
//! minimization, report assembly — runs per config. Fence insertion runs
//! only for a result whose [`PipelineResult::module`] is asked for: the
//! fence counts of Figures 7–9 come from the points and the report.
//! Callers sweeping variants and targets (golden tests, figure binaries)
//! get the whole sweep for roughly the price of one run. [`run_pipeline`]
//! is the single-config special case.
//!
//! The batch owns no stage code of its own: it is a fleet of one
//! ([`crate::fleet`]), validation gate and unit isolation included, so a
//! batch result is a fleet result by construction. Where the fleet
//! quarantines a module, the batch panics with the module's
//! [`ModuleOutcome`](crate::ModuleOutcome). This module holds the
//! per-function pieces every stage calls — [`FuncContext`], the
//! per-config tail, the `Manual` result.
//!
//! A batch runs on the calling thread: the fleet runs one module's
//! stages on one thread, and parallelism comes from running many
//! modules at once ([`crate::fleet::run_fleet_opts`]).

use crate::acquire::{variant_acquires, AcquireInfo};
use crate::fleet::{run_fleet_opts, FleetJob, FleetOptions};
use crate::insert::insert_fences;
use crate::minimize::{count_module_fences, minimize_function, FencePoint, TargetModel};
use crate::orderings::{FuncOrderings, OrderingSelection, SyncAggregates};
use crate::report::{FuncReport, ModuleReport};
use fence_analysis::alias::AliasOracle;
use fence_analysis::ModuleAnalysis;
use fence_ir::cfg::FuncSubstrate;
use fence_ir::{FuncId, Module};
use std::sync::{Arc, OnceLock};

/// Which sync-read set drives pruning.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Variant {
    /// Baseline: delay-set approximation with no pruning.
    Pensieve,
    /// Prune with control acquires only (simple algorithm).
    Control,
    /// Prune with control + address acquires (conservative algorithm).
    AddressControl,
    /// Keep the module's explicit fences; place nothing.
    Manual,
}

impl Variant {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Pensieve => "Pensieve",
            Variant::Control => "Control",
            Variant::AddressControl => "Address+Control",
            Variant::Manual => "Manual",
        }
    }

    /// All automatic variants (everything except `Manual`).
    pub fn automatic() -> [Variant; 3] {
        [Variant::Pensieve, Variant::AddressControl, Variant::Control]
    }

    /// Dense index for per-variant caches.
    pub(crate) fn idx(self) -> usize {
        match self {
            Variant::Pensieve => 0,
            Variant::Control => 1,
            Variant::AddressControl => 2,
            Variant::Manual => 3,
        }
    }
}

/// Pipeline configuration.
#[derive(Copy, Clone, Debug)]
pub struct PipelineConfig {
    /// Which acquire set prunes the orderings.
    pub variant: Variant,
    /// Hardware model fences are minimized against.
    pub target: TargetModel,
    /// Ignored: a module's stages always run on one thread, and the
    /// fleet decides how many modules run at once
    /// ([`FleetOptions::parallel`](crate::FleetOptions::parallel)).
    /// Kept so existing struct literals still build.
    pub parallel: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            variant: Variant::Control,
            target: TargetModel::X86Tso,
            parallel: false,
        }
    }
}

impl PipelineConfig {
    /// Convenience constructor for a variant on x86-TSO.
    pub fn for_variant(variant: Variant) -> Self {
        PipelineConfig {
            variant,
            ..Default::default()
        }
    }
}

/// Everything the pipeline produced for one config: the fence points
/// and the report, which are the placement, and the instrumented module,
/// which is built from them only when [`PipelineResult::module`] asks.
///
/// A result shares its source module with the other results of its job
/// (one `Arc` per job), so a config sweep holds one copy of the module,
/// not one per config.
pub struct PipelineResult {
    /// The chosen fence points (empty for `Manual`).
    pub points: Vec<FencePoint>,
    /// Per-function statistics.
    pub report: ModuleReport,
    /// The module the points were placed in.
    source: Arc<Module>,
    /// `source` with `points` inserted, built on first use.
    instrumented: OnceLock<Module>,
}

impl PipelineResult {
    /// A placement of `points` in `source`, with its report.
    pub(crate) fn new(source: Arc<Module>, points: Vec<FencePoint>, report: ModuleReport) -> Self {
        PipelineResult {
            points,
            report,
            source,
            instrumented: OnceLock::new(),
        }
    }

    /// The instrumented module: the source module with every fence point
    /// inserted ([`insert_fences`]). Built from `points` on the first call
    /// and kept, so a caller that only reads `points` and `report` never
    /// pays for the copy.
    pub fn module(&self) -> &Module {
        self.instrumented
            .get_or_init(|| insert_fences(&self.source, &self.points))
    }
}

/// The per-function analysis cache: everything acquire detection and
/// ordering pruning need that does not depend on the pipeline config.
/// Built once per function and shared across both slicer passes of
/// `detect_acquires` and across every config of a batch run.
///
/// The CFG substrate ([`FuncSubstrate`]: the `Reachability` table) is
/// built exactly **once** per function per run — the fleet executor holds
/// one per function and every stage downstream (ordering generation,
/// pruning, fence minimization) borrows it; a counter test below pins
/// that nothing rebuilds it behind the cache's back.
pub struct FuncContext<'a> {
    /// The function this context describes.
    pub fid: FuncId,
    /// May-alias oracle with the inverted writer index.
    pub oracle: AliasOracle<'a>,
    /// Block-aggregated ordering relation (borrows the function's
    /// cache-once CFG substrate).
    pub orderings: FuncOrderings<'a>,
    /// Per-variant [`SyncAggregates`] (sync tallies + per-SCC sync sums),
    /// computed lazily on first use and then shared between the
    /// counting and minimization stages of every config with that
    /// variant — the orderings/minimize fusion.
    sync_aggs: [OnceLock<SyncAggregates>; 4],
    /// The unpruned (`FuncOrderings::counts`) totals, shared across all
    /// configs of a batch.
    total_counts: OnceLock<[usize; 4]>,
}

impl<'a> FuncContext<'a> {
    /// Builds the context for `fid` on top of the module analysis and the
    /// function's cache-once CFG substrate.
    pub fn build(
        module: &Module,
        analysis: &'a ModuleAnalysis,
        substrate: &'a FuncSubstrate,
        fid: FuncId,
    ) -> Self {
        FuncContext {
            fid,
            oracle: AliasOracle::new(module, &analysis.points_to, fid),
            orderings: FuncOrderings::generate(module, &analysis.escape, fid, substrate),
            sync_aggs: [const { OnceLock::new() }; 4],
            total_counts: OnceLock::new(),
        }
    }

    /// The cached [`SyncAggregates`] of `variant`'s selection, computed
    /// on first use. `sel` must be the selection `finish_function`
    /// derives for that variant (same sync-read set), which the
    /// per-variant acquire cache guarantees.
    pub(crate) fn sync_aggregates(
        &self,
        variant: Variant,
        sel: &OrderingSelection<'_>,
    ) -> &SyncAggregates {
        self.sync_aggs[variant.idx()].get_or_init(|| sel.aggregates())
    }

    /// The cached unpruned pair counts.
    pub(crate) fn total_counts(&self) -> [usize; 4] {
        *self.total_counts.get_or_init(|| self.orderings.counts())
    }

    /// Acquire detection for one automatic variant using the cached
    /// oracle.
    pub(crate) fn acquire_info(
        &self,
        module: &Module,
        analysis: &ModuleAnalysis,
        variant: Variant,
    ) -> AcquireInfo {
        variant_acquires(module, &analysis.escape, &self.oracle, self.fid, variant)
    }
}

/// Pruning + minimization + report tail for one function under one
/// config, from cached context and acquire info.
pub(crate) fn finish_function(
    module: &Module,
    analysis: &ModuleAnalysis,
    ctx: &FuncContext<'_>,
    info: &AcquireInfo,
    config: &PipelineConfig,
) -> (FuncReport, Vec<FencePoint>) {
    let func = module.func(ctx.fid);
    // A lazy selection over the aggregated relation — Pensieve keeps
    // everything without cloning a pair list.
    let kept = match config.variant {
        Variant::Pensieve => ctx.orderings.all(),
        _ => ctx.orderings.prune(&info.sync_reads),
    };
    // One aggregate computation per (function, variant) feeds both the
    // kept-pair counting and fence minimization of every config.
    let aggs = ctx.sync_aggregates(config.variant, &kept);
    let entry_fence = !info.sync_reads.is_empty();
    let points = minimize_function(func, ctx.fid, &kept, aggs, config.target, entry_fence);

    let (full, dir) = crate::minimize::count_fences(&points);
    let report = FuncReport {
        name: func.name.clone(),
        escaping_reads: analysis.escape.escaping_read_count(module, ctx.fid),
        escaping_writes: analysis.escape.escaping_write_count(module, ctx.fid),
        acquires: info.count(),
        control_acquires: info.control.count(),
        address_acquires: info.address.count(),
        pure_address_acquires: info.pure_address_count(),
        orderings_total: ctx.total_counts(),
        orderings_kept: kept.counts_with(aggs),
        full_fences: full,
        compiler_fences: dir,
    };
    (report, points)
}

/// The `Manual` report: nothing placed, explicit fences counted.
pub(crate) fn manual_report(module: &Module, config: &PipelineConfig) -> ModuleReport {
    let (full, dir) = count_module_fences(module);
    ModuleReport {
        module_name: module.name.clone(),
        variant: config.variant.name().to_string(),
        funcs: vec![FuncReport {
            name: "<module>".to_string(),
            full_fences: full,
            compiler_fences: dir,
            ..Default::default()
        }],
    }
}

/// Runs the pipeline once per config, sharing the module analysis, the
/// per-function [`FuncContext`]s (including the cache-once CFG
/// substrate), and per-variant acquire detection across all of them.
/// Results are returned in `configs` order and are bit-identical to
/// running [`run_pipeline`] per config.
///
/// The module passes the fleet's validation gate first, and every unit
/// runs isolated. A module the fleet would quarantine (malformed IR, a
/// panicking unit) makes the batch panic with its
/// [`ModuleOutcome`](crate::ModuleOutcome), e.g. `invalid IR (1
/// diagnostic(s)): [f] %0: branch target bb9 out of range`.
///
/// ```
/// use fence_ir::builder::{FunctionBuilder, ModuleBuilder};
/// use fenceplace::{run_pipeline_batch, PipelineConfig, Variant};
///
/// let mut mb = ModuleBuilder::new("mp");
/// let data = mb.global("data", 1);
/// let flag = mb.global("flag", 1);
/// let mut c = FunctionBuilder::new("consumer", 0);
/// c.spin_while_eq(flag, 0i64);
/// let v = c.load(data);
/// c.ret(Some(v));
/// mb.add_func(c.build());
/// let module = mb.finish();
///
/// // One analysis pass serves the whole sweep.
/// let configs: Vec<PipelineConfig> =
///     Variant::automatic().map(PipelineConfig::for_variant).into();
/// let results = run_pipeline_batch(&module, &configs);
/// assert_eq!(results.len(), 3);
/// // Pruning only ever shrinks the placement.
/// let pensieve = &results[0]; // Variant::automatic()[0] is Pensieve
/// for r in &results[1..] {
///     assert!(r.report.full_fences() <= pensieve.report.full_fences());
/// }
/// ```
pub fn run_pipeline_batch(module: &Module, configs: &[PipelineConfig]) -> Vec<PipelineResult> {
    let job = FleetJob::new(module.name.clone(), module, configs.to_vec());
    let (mut fleet, _) = run_fleet_opts(std::slice::from_ref(&job), &FleetOptions::default());
    let result = fleet.pop().expect("one result per job");
    if !result.outcome.is_ok() {
        panic!("module `{}`: {}", module.name, result.outcome);
    }
    result.results
}

/// Runs the pipeline on a module for one config (the batch of one).
///
/// ```
/// use fence_ir::builder::{FunctionBuilder, ModuleBuilder};
/// use fenceplace::{run_pipeline, PipelineConfig, Variant};
///
/// let mut mb = ModuleBuilder::new("mp");
/// let data = mb.global("data", 1);
/// let flag = mb.global("flag", 1);
/// let mut c = FunctionBuilder::new("consumer", 0);
/// c.spin_while_eq(flag, 0i64); // the classic ad hoc acquire
/// let v = c.load(data);
/// c.ret(Some(v));
/// mb.add_func(c.build());
/// let module = mb.finish();
///
/// let result = run_pipeline(&module, &PipelineConfig::for_variant(Variant::Control));
/// assert_eq!(result.report.acquires(), 1, "only the flag spin-read");
/// // The instrumented module is built on first use.
/// assert!(fence_ir::verify_module(result.module()).is_empty());
/// ```
pub fn run_pipeline(module: &Module, config: &PipelineConfig) -> PipelineResult {
    run_pipeline_batch(module, std::slice::from_ref(config))
        .pop()
        .expect("one result per config")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fence_ir::builder::{FunctionBuilder, ModuleBuilder};
    use fence_ir::FenceKind;

    /// Builds the paper's Figure 2 module: two threads of the legacy-DRF
    /// busy-wait example, with `*p1`/`*p2` unknown pointers that may alias
    /// x and y but not flag.
    fn figure2_module() -> Module {
        let mut mb = ModuleBuilder::new("fig2");
        let x = mb.global("x", 1);
        let y = mb.global("y", 1);
        let flag = mb.global("flag", 1);

        // P1: a1: x = ..; a2: .. = y; a3: flag = 1
        let mut p1 = FunctionBuilder::new("p1", 0);
        p1.store(x, 1i64); // a1
        let _ = p1.load(y); // a2
        p1.store(flag, 1i64); // a3
        p1.ret(None);
        mb.add_func(p1.build());

        // P2: b1: *p1 = ..; b2: .. = *p2; b3: while(flag != 1);
        //     b4: y = ..; b5: .. = x
        let mut p2 = FunctionBuilder::new("p2", 2);
        p2.store(fence_ir::Value::Arg(0), 7i64); // b1: *p1 =
        let _ = p2.load(fence_ir::Value::Arg(1)); // b2: = *p2
        p2.spin_while_eq(flag, 0i64); // b3
        p2.store(y, 2i64); // b4
        let _ = p2.load(x); // b5
        p2.ret(None);
        mb.add_func(p2.build());
        mb.finish()
    }

    #[test]
    fn control_places_fewer_fences_than_pensieve() {
        let m = figure2_module();
        let pens = run_pipeline(&m, &PipelineConfig::for_variant(Variant::Pensieve));
        let ctrl = run_pipeline(&m, &PipelineConfig::for_variant(Variant::Control));
        assert!(
            ctrl.report.full_fences() < pens.report.full_fences(),
            "Control {} < Pensieve {}",
            ctrl.report.full_fences(),
            pens.report.full_fences()
        );
        assert!(ctrl.report.total_kept() < pens.report.total_kept());
        // The flag spin read is the only acquire in p2; p1 has none.
        assert_eq!(ctrl.report.acquires(), 1);
    }

    #[test]
    fn pensieve_keeps_everything() {
        let m = figure2_module();
        let pens = run_pipeline(&m, &PipelineConfig::for_variant(Variant::Pensieve));
        assert_eq!(pens.report.total_orderings(), pens.report.total_kept());
    }

    #[test]
    fn instrumented_module_verifies() {
        let m = figure2_module();
        for v in Variant::automatic() {
            let r = run_pipeline(&m, &PipelineConfig::for_variant(v));
            assert!(
                fence_ir::verify_module(r.module()).is_empty(),
                "{v:?} output verifies"
            );
            let full = r
                .points
                .iter()
                .filter(|p| p.kind == FenceKind::Full)
                .count();
            let dir = r.points.len() - full;
            assert_eq!(full, r.report.full_fences());
            assert_eq!(dir, r.report.compiler_fences());
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let m = figure2_module();
        for v in Variant::automatic() {
            let seq = run_pipeline(
                &m,
                &PipelineConfig {
                    variant: v,
                    target: TargetModel::X86Tso,
                    parallel: false,
                },
            );
            let par = run_pipeline(
                &m,
                &PipelineConfig {
                    variant: v,
                    target: TargetModel::X86Tso,
                    parallel: true,
                },
            );
            assert_eq!(seq.points, par.points, "deterministic under {v:?}");
            assert_eq!(seq.report.full_fences(), par.report.full_fences());
        }
    }

    #[test]
    fn manual_counts_explicit_fences() {
        let mut mb = ModuleBuilder::new("manual");
        let x = mb.global("x", 1);
        let mut fb = FunctionBuilder::new("f", 0);
        fb.store(x, 1i64);
        fb.fence(FenceKind::Full);
        let _ = fb.load(x);
        fb.ret(None);
        mb.add_func(fb.build());
        let m = mb.finish();
        let r = run_pipeline(&m, &PipelineConfig::for_variant(Variant::Manual));
        assert_eq!(r.report.full_fences(), 1);
        assert!(r.points.is_empty());
        assert_eq!(r.module().total_insts(), m.total_insts());
    }

    #[test]
    fn acquire_fraction_monotone_across_variants() {
        let m = figure2_module();
        let pens = run_pipeline(&m, &PipelineConfig::for_variant(Variant::Pensieve));
        let ac = run_pipeline(&m, &PipelineConfig::for_variant(Variant::AddressControl));
        let ctrl = run_pipeline(&m, &PipelineConfig::for_variant(Variant::Control));
        assert!(ctrl.report.acquires() <= ac.report.acquires());
        assert!(ac.report.acquires() <= pens.report.acquires());
    }

    /// A batch over every variant × target × (seq|par) must (a) run the
    /// module analysis exactly once, and (b) reproduce the per-config
    /// `run_pipeline` outputs bit-for-bit.
    #[test]
    fn batch_shares_analysis_and_matches_individual_runs() {
        let m = figure2_module();
        let mut configs = Vec::new();
        for variant in [
            Variant::Pensieve,
            Variant::Control,
            Variant::AddressControl,
            Variant::Manual,
        ] {
            for target in [
                TargetModel::X86Tso,
                TargetModel::ScHardware,
                TargetModel::Weak,
            ] {
                for parallel in [false, true] {
                    configs.push(PipelineConfig {
                        variant,
                        target,
                        parallel,
                    });
                }
            }
        }

        let runs_before = fence_analysis::analysis_runs();
        let batch = run_pipeline_batch(&m, &configs);
        let batch_runs = fence_analysis::analysis_runs() - runs_before;
        assert_eq!(
            batch_runs,
            1,
            "batch of {} configs re-ran the module analysis {batch_runs} times",
            configs.len()
        );

        // Individual runs: one analysis per call.
        let individual: Vec<PipelineResult> = configs.iter().map(|c| run_pipeline(&m, c)).collect();
        let individual_runs = fence_analysis::analysis_runs() - runs_before - batch_runs;
        assert_eq!(
            individual_runs,
            configs
                .iter()
                .filter(|c| c.variant != Variant::Manual)
                .count(),
            "each non-Manual run_pipeline call runs one analysis"
        );

        assert_eq!(batch.len(), individual.len());
        for ((b, i), config) in batch.iter().zip(&individual).zip(&configs) {
            assert_eq!(b.points, i.points, "points diverge under {config:?}");
            assert_eq!(
                format!("{:?}", b.report),
                format!("{:?}", i.report),
                "report diverges under {config:?}"
            );
            assert_eq!(
                fence_ir::printer::print_module(b.module()),
                fence_ir::printer::print_module(i.module()),
                "instrumented module diverges under {config:?}"
            );
        }
    }

    /// A whole batch builds each function's CFG substrate exactly once:
    /// one `Cfg::new` + one `Reachability::new` per function, no matter
    /// how many configs the sweep holds — the cache-once contract of
    /// [`FuncContext`]. The validation gate builds the `Cfg`, and the
    /// substrate reuses it. (The counters are thread-local, and a batch
    /// runs on the calling thread.)
    #[test]
    fn batch_builds_cfg_substrate_once_per_function() {
        let m = figure2_module(); // built first: the builder verifies via its own CFGs
        let configs: Vec<PipelineConfig> =
            [Variant::Pensieve, Variant::Control, Variant::AddressControl]
                .into_iter()
                .flat_map(|variant| {
                    [
                        TargetModel::X86Tso,
                        TargetModel::ScHardware,
                        TargetModel::Weak,
                    ]
                    .into_iter()
                    .map(move |target| PipelineConfig {
                        variant,
                        target,
                        parallel: false,
                    })
                })
                .collect();
        let cfg_before = fence_ir::cfg::cfg_builds();
        let reach_before = fence_ir::cfg::reachability_builds();
        let _ = run_pipeline_batch(&m, &configs);
        assert_eq!(
            fence_ir::cfg::cfg_builds() - cfg_before,
            m.funcs.len(),
            "one Cfg build per function per batch"
        );
        assert_eq!(
            fence_ir::cfg::reachability_builds() - reach_before,
            m.funcs.len(),
            "one Reachability build per function per batch"
        );
    }

    /// An all-Manual batch never runs the analysis at all.
    #[test]
    fn manual_only_batch_skips_analysis() {
        let m = figure2_module();
        let before = fence_analysis::analysis_runs();
        let r = run_pipeline_batch(
            &m,
            &[
                PipelineConfig::for_variant(Variant::Manual),
                PipelineConfig {
                    variant: Variant::Manual,
                    target: TargetModel::Weak,
                    parallel: true,
                },
            ],
        );
        assert_eq!(fence_analysis::analysis_runs(), before);
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|x| x.points.is_empty()));
    }
}

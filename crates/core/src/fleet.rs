//! The fleet executor: fence placement over many modules with
//! cross-module pool reuse and per-module fault isolation — and the one
//! place the stage sequence is implemented.
//!
//! Every entry point is a thin caller of this executor, and every run
//! takes one path: each module passes the validation gate and each work
//! unit runs isolated. [`run_pipeline_batch`](crate::run_pipeline_batch)
//! is a fleet of one that re-raises a quarantine as a panic, the
//! windowed stream runs one single-module fleet per admitted module, and
//! the analysis service ([`crate::service`]) hands the executor a *seed*
//! — the state its cache already holds — so only the missing units run.
//! Fleet ≡ batch ≡ service therefore holds by construction.
//!
//! [`run_fleet_opts`] schedules **per-(module, function) work units from
//! every module at once**. Each pipeline stage becomes one flat
//! cross-module unit list executed in a single pool pass:
//!
//! 1. *validate* — the pre-analysis IR gate
//!    ([`fence_ir::verify_module_checked`]): malformed modules are
//!    rejected with structured diagnostics before any analysis runs, and
//!    a well-formed module hands on the [`Cfg`] the gate built for each
//!    of its functions;
//! 2. *analysis + substrates* — **one overlapped pass**: one
//!    [`ModuleAnalysis`] unit per module (the per-module analysis runs
//!    sequentially inside its unit, so independent modules fill the
//!    cores with no nested pool entry) *and* one [`FuncSubstrate`] unit
//!    per function of any module, built from the gate's `Cfg`
//!    ([`FuncSubstrate::from_cfg`]), so a run builds each function's CFG
//!    once. A substrate depends only on the IR, never on points-to, so
//!    reachability builds overlap the points-to solves;
//! 3. *contexts* — one [`FuncContext`] (alias oracle + orderings) per
//!    function of any module; the first stage with a true dependency
//!    edge on both the analysis and the substrate;
//! 4. *acquire detection* — one [`AcquireInfo`] per (module, distinct
//!    automatic variant, function) triple;
//! 5. *config tails* — pruning + minimization per (module, config,
//!    function), collected into one placement (fence points + report)
//!    per (module, config) pair;
//! 6. *certify* (opt-in, [`FleetOptions::certify`]) — bounded model
//!    checking of every (module, config) placement, fences inserted,
//!    against its target memory model ([`crate::certify()`]), one unit
//!    per pair.
//!
//! No stage builds a fenced module for a result: a [`PipelineResult`]
//! holds its points, its report and an `Arc` of its source module, shared
//! by every result of the job, and inserts the fences when its
//! [`PipelineResult::module`] is first called. The reports the CLI and
//! the service render need only points and reports.
//!
//! Barriers fall only on true dependency edges (a context needs its
//! module's analysis and substrate), and never on a *module* boundary:
//! while one worker finishes the last function of module A, others are
//! already deep into module Q.
//! Every unit keys its result by index, so arrival order cannot affect
//! any output: sequential and parallel runs are **bit-identical**
//! (pinned by `tests/fleet.rs`).
//!
//! # Failure isolation
//!
//! A 1000-module sweep must not die because module 713 trips an
//! assertion. Every work unit runs under a per-unit `catch_unwind`
//! ([`ThreadPool::run_units`]), and a failing module is
//! **quarantined**, never fatal:
//!
//! * the first failing unit (in deterministic unit-index order) decides
//!   the module's [`ModuleOutcome`] — [`ModuleOutcome::InvalidIr`] from
//!   the validation gate, [`ModuleOutcome::Panicked`] from a caught
//!   unit panic, or [`ModuleOutcome::DeadlineExceeded`] from the step
//!   budget below;
//! * every later stage skips the quarantined module's units (stages
//!   never cancel mid-flight: all units of the stage that failed still
//!   execute, so sequential and pooled runs agree exactly);
//! * the module's [`FleetResult::results`] come back empty — its
//!   `Manual` configs included — with the outcome carried in
//!   [`FleetResult::outcome`];
//! * all *other* modules' placements are bit-identical to a run without
//!   the sick module (pinned by `tests/fleet.rs` and `tests/faults.rs`).
//!
//! [`FleetOptions::budget`] adds **deterministic deadlines**: each stage
//! charges a static instruction-count step cost (never wall-clock) at
//! its boundary, so a runaway module is demoted to
//! [`ModuleOutcome::DeadlineExceeded`] at the exact same point whether
//! the fleet runs sequentially or on the pool. One function,
//! `charge_plan`, computes every charge from the module and its configs
//! alone; a seeded run and the service's warm-hit dry run pay the same
//! plan as a cold run.
//!
//! A caller that wants a failure to be fatal reads the outcome:
//! [`run_pipeline_batch`](crate::run_pipeline_batch) panics with the
//! quarantined module's [`ModuleOutcome`].
//!
//! The `faultinject` cargo feature (module `faultinject`) arms
//! deterministic failures at any (module, stage) point to exercise all
//! of the above from tests and the `check.sh faults` CI job.

use crate::acquire::AcquireInfo;
use crate::certify::{CertifyOptions, CertifyReport, CertifyStatus};
use crate::faultinject;
use crate::insert::insert_fences;
use crate::minimize::FencePoint;
use crate::pipeline::{
    finish_function, manual_report, FuncContext, PipelineConfig, PipelineResult, Variant,
};
use crate::pool::ThreadPool;
use crate::report::{FleetStage, FuncReport, ModuleOutcome, ModuleReport};
use fence_analysis::ModuleAnalysis;
use fence_ir::cfg::{Cfg, FuncSubstrate};
use fence_ir::{FuncId, Function, Module};
use std::borrow::Cow;
use std::sync::{Arc, Mutex};

/// Cap on verifier diagnostics retained per quarantined module — a
/// deliberately mutilated module can produce one error per instruction,
/// and the report slot should stay readable (a trailing "… and N more"
/// entry records the overflow).
pub const MAX_IR_DIAGNOSTICS: usize = 8;

/// One unit of fleet work: a module plus the pipeline configs to run it
/// under. The fleet shares one analysis stack across all of a job's
/// configs, and its results share one copy of the module.
pub struct FleetJob<'m> {
    /// Display name used in reports and roll-ups.
    pub name: String,
    /// The module to place fences in.
    pub module: &'m Module,
    /// Configs to run, in result order. `parallel` flags are ignored —
    /// the fleet owns scheduling (outputs are bit-identical either way).
    pub configs: Vec<PipelineConfig>,
}

impl<'m> FleetJob<'m> {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        module: &'m Module,
        configs: impl Into<Vec<PipelineConfig>>,
    ) -> Self {
        FleetJob {
            name: name.into(),
            module,
            configs: configs.into(),
        }
    }
}

/// Knobs for [`run_fleet_opts`]. [`FleetOptions::default`] is the
/// production configuration: parallel, resident, no budget, no
/// certification. No option turns off the validation gate or the
/// per-unit isolation: every run has both.
#[derive(Copy, Clone, Debug)]
pub struct FleetOptions {
    /// Schedule the flattened cross-module unit lists on the persistent
    /// pool. Sequential and parallel runs are bit-identical.
    pub parallel: bool,
    /// Deterministic per-module step budget. Each stage charges a static
    /// instruction-count cost at its boundary (`max(1, insts)` per
    /// function per pass — never wall-clock), and a module whose spend
    /// *exceeds* the budget is quarantined as
    /// [`ModuleOutcome::DeadlineExceeded`] at the same point in
    /// sequential and pooled runs. `None` disables deadlines.
    pub budget: Option<u64>,
    /// Opt-in post-placement certification ([`crate::certify()`]): after
    /// the tails assemble, every (module, config) result is model-checked
    /// against its target — soundness for race-free thread groups,
    /// per-fence minimality — under the given per-module state budget.
    /// Quarantine-aware like every other stage: a panicking or
    /// deadline-tripping certify unit quarantines its module at
    /// [`FleetStage::Certify`]; a *failed certificate* (unsound /
    /// non-minimal placement) is a result, not a quarantine. `None`
    /// (the default) skips the stage entirely.
    pub certify: Option<CertifyOptions>,
    /// Streamed-admission window for [`run_fleet_streamed`]: up to
    /// `min(window, pool workers + 1)` workers (one when sequential) each
    /// hold one module from take to delivery, so at most that many are
    /// resident at once, bounding peak memory at O(window), not O(corpus).
    /// `None` (the default) materializes the whole stream and runs the
    /// exact resident scheduler — results are **bit-identical** to
    /// [`run_fleet_opts`] on the same corpus. Resident entry points
    /// ignore this field.
    pub window: Option<usize>,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            parallel: true,
            budget: None,
            certify: None,
            window: None,
        }
    }
}

/// The results of one [`FleetJob`], in the job's config order.
pub struct FleetResult {
    /// The job's display name.
    pub name: String,
    /// Terminal status. Anything but [`ModuleOutcome::Ok`] means the
    /// module was quarantined and [`FleetResult::results`] is empty.
    pub outcome: ModuleOutcome,
    /// One [`PipelineResult`] per config, bit-identical to what
    /// [`run_pipeline_batch`](crate::run_pipeline_batch) would produce.
    /// Empty when the module was quarantined. The results share one
    /// source module, and each inserts its fences into a copy only when
    /// its [`PipelineResult::module`] is called.
    pub results: Vec<PipelineResult>,
    /// One [`CertifyReport`] per config when
    /// [`FleetOptions::certify`] is enabled (in config order); empty when
    /// certification was disabled or the module was quarantined.
    pub certifications: Vec<CertifyReport>,
}

/// Work accounting for one fleet run — the observables behind the
/// "exactly one analysis / substrate build per module" contract,
/// surfaced in CLI roll-ups and pinned by tests.
#[derive(Copy, Clone, Debug, Default)]
pub struct FleetStats {
    /// Jobs in the fleet.
    pub modules: usize,
    /// Total (module, function) work units across the fleet (modules
    /// that entered the overlapped analysis+substrate pass).
    pub functions: usize,
    /// Total (module, config) result units scheduled (including configs
    /// of modules later quarantined).
    pub configs: usize,
    /// `ModuleAnalysis` executions — one per module that has at least
    /// one non-`Manual` config and passed the gate, never more.
    pub analyses: usize,
    /// `FuncSubstrate` builds — one per function of every module that
    /// entered the overlapped pass, never more (substrate units overlap
    /// the analysis units, so a module quarantined by its analysis still
    /// counts its discarded substrate builds here).
    pub substrates: usize,
    /// Modules quarantined with a non-[`ModuleOutcome::Ok`] outcome.
    pub failed: usize,
    /// Certification reports produced (0 when the stage is disabled).
    pub certifications: usize,
    /// Certification reports whose verdict is
    /// [`CertifyStatus::Unsound`] — placements that leak a non-SC
    /// outcome in a race-free thread group.
    pub certify_unsound: usize,
    /// High-water mark of simultaneously resident modules; a load
    /// failure never holds one. Resident runs pin this at the module
    /// count; a streamed run with [`FleetOptions::window`] `= Some(w)`
    /// never exceeds `w` (pinned by `tests/stream.rs`) and reads 1 when
    /// sequential. A pooled windowed run *measures* it, so it follows
    /// worker timing and can differ from run to run.
    pub peak_resident_modules: usize,
    /// High-water mark of total instructions across the simultaneously
    /// resident modules — the allocation-counter proxy for peak module
    /// memory (texts are counted once parsed). Measured like
    /// `peak_resident_modules`: a sequential windowed run reads the
    /// largest module's count, a pooled one follows worker timing.
    pub peak_resident_insts: u64,
}

/// Folds the work counters of one streamed item (its inner run, or its
/// quarantine before any stage) into the stream-wide accumulator.
/// `modules` and the residency peaks are the streamed run's own.
fn fold_stats(acc: &mut FleetStats, s: &FleetStats) {
    acc.functions += s.functions;
    acc.configs += s.configs;
    acc.analyses += s.analyses;
    acc.substrates += s.substrates;
    acc.failed += s.failed;
    acc.certifications += s.certifications;
    acc.certify_unsound += s.certify_unsound;
}

/// Deterministic step cost of one function for one stage pass.
fn func_step_cost(f: &Function) -> u64 {
    (f.num_insts() as u64).max(1)
}

/// Deterministic step cost of one module-level stage pass.
fn module_step_cost(m: &Module) -> u64 {
    m.funcs.iter().map(func_step_cost).sum::<u64>().max(1)
}

/// Every stage-boundary charge of running `configs` over `module`, in
/// boundary order: the module cost at Validate, Analysis, Substrates and
/// Contexts; the summed per-function costs once per distinct automatic
/// variant (Acquires) and once per automatic config (Tails); the module
/// cost once per config (Certify, when certifying). Charges depend on
/// the request alone, never on which units run, so a seeded run and a
/// warm dry run pay exactly what a cold run pays.
fn charge_plan(
    module: &Module,
    configs: &[PipelineConfig],
    opts: &FleetOptions,
) -> Vec<(FleetStage, u64)> {
    let module_cost = module_step_cost(module);
    let func_sum: u64 = module.funcs.iter().map(func_step_cost).sum();
    let mut variants = [false; 4];
    let mut tails = 0u64;
    for c in configs.iter().filter(|c| c.variant != Variant::Manual) {
        variants[c.variant.idx()] = true;
        tails += 1;
    }
    let variants = variants.iter().filter(|&&v| v).count() as u64;

    let mut plan = Vec::new();
    if !configs.is_empty() {
        plan.push((FleetStage::Validate, module_cost));
    }
    if tails > 0 {
        plan.push((FleetStage::Analysis, module_cost));
        plan.push((FleetStage::Substrates, module_cost));
        plan.push((FleetStage::Contexts, module_cost));
        if func_sum > 0 {
            plan.push((FleetStage::Acquires, variants * func_sum));
            plan.push((FleetStage::Tails, tails * func_sum));
        }
    }
    if opts.certify.is_some() && !configs.is_empty() {
        plan.push((FleetStage::Certify, configs.len() as u64 * module_cost));
    }
    plan
}

/// Per-module quarantine state and deterministic step spend. Written
/// only between stages (from unit results, in unit-index order), never
/// concurrently.
struct Ledger<'n> {
    /// Per module: its name (the fault-injection key) and charge plan.
    plans: Vec<(&'n str, Vec<(FleetStage, u64)>)>,
    budget: Option<u64>,
    spent: Vec<u64>,
    fail: Vec<Option<ModuleOutcome>>,
}

impl<'n> Ledger<'n> {
    fn new(plans: Vec<(&'n str, Vec<(FleetStage, u64)>)>, budget: Option<u64>) -> Self {
        let n = plans.len();
        Ledger {
            plans,
            budget,
            spent: vec![0; n],
            fail: vec![None; n],
        }
    }

    fn healthy(&self, j: usize) -> bool {
        self.fail[j].is_none()
    }

    /// Quarantines module `j` unless an earlier failure already did.
    fn quarantine(&mut self, j: usize, outcome: ModuleOutcome) {
        if self.fail[j].is_none() {
            self.fail[j] = Some(outcome);
        }
    }

    /// Folds a stage's unit results into the quarantine state: the first
    /// `Err` (in unit-index order) of a still-healthy module becomes its
    /// [`ModuleOutcome::Panicked`]. Returns the per-unit values with
    /// panicked units as `None`.
    fn absorb<T>(
        &mut self,
        results: Vec<Result<T, String>>,
        stage: FleetStage,
        job_of: impl Fn(usize) -> usize,
    ) -> Vec<Option<T>> {
        results
            .into_iter()
            .enumerate()
            .map(|(u, r)| match r {
                Ok(v) => Some(v),
                Err(message) => {
                    self.quarantine(job_of(u), ModuleOutcome::Panicked { stage, message });
                    None
                }
            })
            .collect()
    }

    /// Charges every healthy module its planned cost (plus any injected
    /// cost) for `stage`, tripping the deadline of any module whose spend
    /// exceeds the budget. Quarantined modules pay nothing, so a panic
    /// always wins over a same-stage deadline.
    fn boundary(&mut self, stage: FleetStage) {
        for j in 0..self.plans.len() {
            let (name, plan) = &self.plans[j];
            let Some(&(_, cost)) = plan.iter().find(|(s, _)| *s == stage) else {
                continue;
            };
            if self.fail[j].is_some() {
                continue;
            }
            let cost = cost.saturating_add(faultinject::extra_cost(name, stage));
            self.spent[j] = self.spent[j].saturating_add(cost);
            if let Some(budget) = self.budget.filter(|&b| self.spent[j] > b) {
                self.fail[j] = Some(ModuleOutcome::DeadlineExceeded {
                    stage,
                    spent: self.spent[j],
                    budget,
                });
            }
        }
    }
}

/// The outcome the charge plan alone decides for `configs` over
/// `module`: a run whose every unit is already done (the service's warm
/// hits) still pays its stage charges, so a budget trips exactly where a
/// cold run's would.
pub(crate) fn dry_run(
    name: &str,
    module: &Module,
    configs: &[PipelineConfig],
    opts: &FleetOptions,
) -> ModuleOutcome {
    if opts.budget.is_none() {
        return ModuleOutcome::Ok;
    }
    let mut ledger = Ledger::new(
        vec![(name, charge_plan(module, configs, opts))],
        opts.budget,
    );
    for stage in FleetStage::ALL {
        ledger.boundary(stage);
    }
    ledger.fail.pop().flatten().unwrap_or(ModuleOutcome::Ok)
}

/// Runs a stage's unit list, each unit under its own `catch_unwind` (via
/// [`ThreadPool::run_units`] when parallel), so slot `i` becomes
/// `Err(panic message)` instead of the panic unwinding through the whole
/// pass. Every unit still executes exactly once and results stay keyed
/// by index, so sequential and pooled runs are bit-identical — including
/// *which* units failed.
fn stage_map<T: Send>(
    n: usize,
    parallel: bool,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<Result<T, String>> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    if !parallel || n <= 1 {
        return (0..n)
            .map(|i| {
                catch_unwind(AssertUnwindSafe(|| f(i)))
                    .map_err(|p| crate::pool::panic_message(p.as_ref()))
            })
            .collect();
    }
    let collected: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    let panics = ThreadPool::global().run_units(n, &|i| {
        let v = f(i);
        collected.lock().unwrap().push((i, v));
    });
    let mut slots: Vec<Option<Result<T, String>>> =
        panics.into_iter().map(|p| p.map(Err)).collect();
    for (i, v) in collected.into_inner().unwrap() {
        slots[i] = Some(Ok(v));
    }
    slots
        .into_iter()
        .map(|s| s.expect("every unit ran or panicked"))
        .collect()
}

/// The validation gate of one module: the [`Cfg`] of each function when
/// the IR is well-formed, otherwise its verifier diagnostics, capped at
/// [`MAX_IR_DIAGNOSTICS`]. A fault-injected view hands on no CFGs: they
/// would describe the view, not the module.
fn validate(name: &str, module: &Module) -> Result<Vec<Cfg>, Vec<String>> {
    faultinject::panic_point(name, FleetStage::Validate);
    let view = faultinject::validate_view(name, module);
    let errs = match fence_ir::verify_module_checked(view.as_ref()) {
        Ok(cfgs) if matches!(view, Cow::Borrowed(_)) => return Ok(cfgs),
        Ok(_) => return Ok(Vec::new()),
        Err(errs) => errs,
    };
    let total = errs.len();
    let mut msgs: Vec<String> = errs
        .into_iter()
        .take(MAX_IR_DIAGNOSTICS)
        .map(|e| e.to_string())
        .collect();
    if total > MAX_IR_DIAGNOSTICS {
        msgs.push(format!(
            "... and {} more diagnostics",
            total - MAX_IR_DIAGNOSTICS
        ));
    }
    Err(msgs)
}

/// Runs the fleet under `opts` and returns the results together with
/// the run's [`FleetStats`]. See the module docs for the stage structure
/// and the failure-isolation contract. Sequential and parallel runs are
/// bit-identical: every stage keys its results by unit index.
///
/// The jobs are borrowed, so each job's results share one copy of its
/// module (taken only when the job has results); the streamed entry
/// points own their modules and lend them instead, copying none.
///
/// ```
/// use fence_ir::builder::{FunctionBuilder, ModuleBuilder};
/// use fenceplace::fleet::{run_fleet_opts, FleetJob, FleetOptions};
/// use fenceplace::{PipelineConfig, Variant};
///
/// let build = |name: &str| {
///     let mut mb = ModuleBuilder::new(name);
///     let data = mb.global("data", 1);
///     let flag = mb.global("flag", 1);
///     let mut c = FunctionBuilder::new("consumer", 0);
///     c.spin_while_eq(flag, 0i64);
///     let v = c.load(data);
///     c.ret(Some(v));
///     mb.add_func(c.build());
///     mb.finish()
/// };
/// let (a, b) = (build("a"), build("b"));
/// let configs: Vec<PipelineConfig> =
///     Variant::automatic().map(PipelineConfig::for_variant).into();
/// let jobs = [
///     FleetJob::new("a", &a, configs.clone()),
///     FleetJob::new("b", &b, configs),
/// ];
/// let (fleet, stats) = run_fleet_opts(&jobs, &FleetOptions::default());
/// assert_eq!(fleet.len(), 2);
/// assert!(fleet[0].outcome.is_ok());
/// assert_eq!(fleet[0].results.len(), 3);
/// // One analysis per module serves all three configs.
/// assert_eq!(stats.analyses, 2);
/// // Identical modules get identical placements.
/// assert_eq!(fleet[0].results[0].points, fleet[1].results[0].points);
/// ```
pub fn run_fleet_opts(jobs: &[FleetJob], opts: &FleetOptions) -> (Vec<FleetResult>, FleetStats) {
    run_fleet_lent(jobs, opts, |j| Arc::new(jobs[j].module.clone()))
}

/// [`run_fleet_opts`] with each job's source module supplied by
/// `source(j)`: called once per job that has results, and shared by all
/// of them, which build their instrumented modules from it on demand.
fn run_fleet_lent(
    jobs: &[FleetJob],
    opts: &FleetOptions,
    mut source: impl FnMut(usize) -> Arc<Module>,
) -> (Vec<FleetResult>, FleetStats) {
    let mut seeds: Vec<Seed> = jobs.iter().map(|_| Seed::default()).collect();
    let (placed, stats) = run_seeded(jobs, &mut seeds, opts);
    let results = jobs
        .iter()
        .zip(placed)
        .enumerate()
        .map(|(j, (job, p))| {
            let results = if p.placements.is_empty() {
                Vec::new()
            } else {
                let module = source(j);
                p.placements
                    .into_iter()
                    .map(|pl| PipelineResult::new(Arc::clone(&module), pl.points, pl.report))
                    .collect()
            };
            FleetResult {
                name: job.name.clone(),
                outcome: p.outcome,
                results,
                certifications: p.certifications,
            }
        })
        .collect();
    (results, stats)
}

/// The work a job arrives with. [`run_fleet_opts`] seeds every job
/// empty; the service seeds a job from its cache entry. After
/// [`run_seeded`] returns, a seed holds the job's analysis and
/// substrates — what it arrived with plus what the run built.
#[derive(Default)]
pub(crate) struct Seed {
    /// The module already passed the validation gate: the gate's unit is
    /// skipped, its charge is still paid, and with no gate `Cfg` to hand
    /// on, its missing substrates are built by [`FuncSubstrate::new`].
    pub validated: bool,
    /// The module-wide analysis, if already computed.
    pub analysis: Option<ModuleAnalysis>,
    /// Per-function substrates; `None` holes (or an empty list) are built.
    pub substrates: Vec<Option<Arc<FuncSubstrate>>>,
    /// Per config: its result is already known, so the run skips that
    /// config's acquires and tails and returns no placement for it (an
    /// empty list means nothing is cached).
    pub cached: Vec<bool>,
}

/// One config's placement: the chosen fence points and the
/// per-function report. No stage inserts the fences; a
/// [`PipelineResult`] does, when its module is asked for.
pub(crate) struct Placement {
    pub points: Vec<FencePoint>,
    pub report: ModuleReport,
}

/// What [`run_seeded`] produced for one job: its outcome, placements and
/// certifications. [`run_fleet_opts`] wraps the placements in
/// [`PipelineResult`]s; the service renders them directly.
pub(crate) struct Placed {
    pub outcome: ModuleOutcome,
    /// One placement per uncached config, in config order; empty when
    /// the module was quarantined.
    pub placements: Vec<Placement>,
    pub certifications: Vec<CertifyReport>,
}

/// The fleet executor. Runs every job's stage sequence, taking from its
/// [`Seed`] whatever is already done: units run only for what the seed
/// lacks, while every stage boundary charges the plan of the *full*
/// request.
pub(crate) fn run_seeded(
    jobs: &[FleetJob],
    seeds: &mut [Seed],
    opts: &FleetOptions,
) -> (Vec<Placed>, FleetStats) {
    let nj = jobs.len();
    let parallel = opts.parallel;
    let mut ledger = Ledger::new(
        jobs.iter()
            .map(|job| {
                (
                    job.name.as_str(),
                    charge_plan(job.module, &job.configs, opts),
                )
            })
            .collect(),
        opts.budget,
    );
    // The configs each job still needs a result for, in config order,
    // and which jobs need the analysis stack for them at all (the batch
    // contract: all-`Manual` or empty config lists skip the analysis).
    let todo: Vec<Vec<usize>> = jobs
        .iter()
        .zip(seeds.iter())
        .map(|(job, seed)| {
            (0..job.configs.len())
                .filter(|&c| !seed.cached.get(c).copied().unwrap_or(false))
                .collect()
        })
        .collect();
    let needs: Vec<bool> = (0..nj)
        .map(|j| {
            todo[j]
                .iter()
                .any(|&c| jobs[j].configs[c].variant != Variant::Manual)
        })
        .collect();

    // ---- stage 0: validation gate, one unit per module with configs ----
    // A module that passes hands on the `Cfg` of each of its functions.
    let vjobs: Vec<usize> = (0..nj)
        .filter(|&j| !jobs[j].configs.is_empty() && !seeds[j].validated)
        .collect();
    let vres = stage_map(vjobs.len(), parallel, |k| {
        validate(&jobs[vjobs[k]].name, jobs[vjobs[k]].module)
    });
    let mut cfgs: Vec<Vec<Cfg>> = (0..nj).map(|_| Vec::new()).collect();
    for (k, gate) in ledger
        .absorb(vres, FleetStage::Validate, |k| vjobs[k])
        .into_iter()
        .enumerate()
    {
        match gate {
            Some(Ok(built)) => cfgs[vjobs[k]] = built,
            Some(Err(errors)) => ledger.quarantine(vjobs[k], ModuleOutcome::InvalidIr { errors }),
            None => {}
        }
    }
    ledger.boundary(FleetStage::Validate);

    // ---- stages 1+2, one overlapped pool pass: analyses + substrates ----
    // A `FuncSubstrate` depends only on the IR, never on the module
    // analysis, so one combined unit list holds every missing
    // `ModuleAnalysis` (sequential *inside* its unit — nesting the pool
    // would deadlock) followed by every missing substrate, each built from
    // the `Cfg` its module's gate unit handed on (or from scratch, for a
    // seed validated before this run). While one worker grinds a big
    // module's points-to, others already build reachability tables — of
    // that module and every other. Only the context stage carries a true
    // edge on both.
    //
    // Analysis units come *first* in the combined list and their results
    // are absorbed first, so a module failing both stages is attributed
    // to [`FleetStage::Analysis`], and the boundaries keep their order. A
    // module quarantined by its analysis unit still ran its substrate
    // units; their results are discarded like any post-failure output.
    let mut func_units: Vec<(u32, u32)> = Vec::new();
    let mut func_off: Vec<usize> = vec![usize::MAX; nj];
    for j in (0..nj).filter(|&j| needs[j] && ledger.healthy(j)) {
        let n = jobs[j].module.funcs.len();
        seeds[j].substrates.resize(n, None);
        func_off[j] = func_units.len();
        func_units.extend((0..n).map(|f| (j as u32, f as u32)));
    }
    let analysis_units: Vec<usize> = (0..nj)
        .filter(|&j| func_off[j] != usize::MAX && seeds[j].analysis.is_none())
        .collect();
    let substrate_units: Vec<usize> = (0..func_units.len())
        .filter(|&u| {
            let (j, f) = func_units[u];
            seeds[j as usize].substrates[f as usize].is_none()
        })
        .collect();
    enum BuildUnit {
        Analysis(ModuleAnalysis),
        Substrate(FuncSubstrate),
    }
    let na = analysis_units.len();
    let bres = stage_map(na + substrate_units.len(), parallel, |u| {
        if u < na {
            let job = &jobs[analysis_units[u]];
            faultinject::panic_point(&job.name, FleetStage::Analysis);
            BuildUnit::Analysis(ModuleAnalysis::run(job.module))
        } else {
            let (j, f) = func_units[substrate_units[u - na]];
            let (j, f) = (j as usize, f as usize);
            faultinject::panic_point(&jobs[j].name, FleetStage::Substrates);
            BuildUnit::Substrate(match cfgs[j].get(f) {
                Some(cfg) => FuncSubstrate::from_cfg(cfg),
                None => FuncSubstrate::new(jobs[j].module.func(FuncId::new(f))),
            })
        }
    });
    drop(cfgs);
    let mut bres = bres.into_iter();
    let ares: Vec<Result<ModuleAnalysis, String>> = bres
        .by_ref()
        .take(na)
        .map(|r| {
            r.map(|u| match u {
                BuildUnit::Analysis(a) => a,
                BuildUnit::Substrate(_) => unreachable!("units 0..na are analyses"),
            })
        })
        .collect();
    for (k, a) in ledger
        .absorb(ares, FleetStage::Analysis, |k| analysis_units[k])
        .into_iter()
        .enumerate()
    {
        seeds[analysis_units[k]].analysis = a;
    }
    ledger.boundary(FleetStage::Analysis);
    let sres: Vec<Result<FuncSubstrate, String>> = bres
        .map(|r| {
            r.map(|u| match u {
                BuildUnit::Substrate(s) => s,
                BuildUnit::Analysis(_) => unreachable!("units na.. are substrates"),
            })
        })
        .collect();
    let unit_job = |u: usize| func_units[u].0 as usize;
    for (k, s) in ledger
        .absorb(sres, FleetStage::Substrates, |k| {
            unit_job(substrate_units[k])
        })
        .into_iter()
        .enumerate()
    {
        let (j, f) = func_units[substrate_units[k]];
        seeds[j as usize].substrates[f as usize] = s.map(Arc::new);
    }
    ledger.boundary(FleetStage::Substrates);
    let seeds: &[Seed] = seeds;

    // ---- stage 3: per-function contexts, same flat unit list ----
    // The list still contains units of modules that failed during the
    // build pass; an in-unit health check skips them (returning `None`)
    // so the offsets in `func_off` stay aligned.
    let ctx_alive: Vec<bool> = (0..nj).map(|j| ledger.healthy(j)).collect();
    let cres = stage_map(func_units.len(), parallel, |u| {
        let (j, f) = (unit_job(u), func_units[u].1 as usize);
        if !ctx_alive[j] {
            return None;
        }
        faultinject::panic_point(&jobs[j].name, FleetStage::Contexts);
        Some(FuncContext::build(
            jobs[j].module,
            seeds[j].analysis.as_ref().expect("analysis for job"),
            seeds[j].substrates[f]
                .as_deref()
                .expect("substrate for unit"),
            FuncId::new(f),
        ))
    });
    let contexts: Vec<Option<FuncContext<'_>>> = ledger
        .absorb(cres, FleetStage::Contexts, unit_job)
        .into_iter()
        .map(Option::flatten)
        .collect();
    ledger.boundary(FleetStage::Contexts);

    // ---- stage 4: acquire info per (module, distinct variant, function) ----
    // Distinct variants of the configs still to compute, in config order
    // per job. Quarantined modules get no units.
    let mut acq_units: Vec<(u32, Variant, u32)> = Vec::new();
    let mut acq_slot: Vec<[Option<usize>; 4]> = vec![[None; 4]; nj];
    for j in (0..nj).filter(|&j| needs[j] && ledger.healthy(j)) {
        for &c in &todo[j] {
            let variant = jobs[j].configs[c].variant;
            if variant == Variant::Manual || acq_slot[j][variant.idx()].is_some() {
                continue;
            }
            acq_slot[j][variant.idx()] = Some(acq_units.len());
            let n = jobs[j].module.funcs.len() as u32;
            acq_units.extend((0..n).map(|f| (j as u32, variant, f)));
        }
    }
    let aqres = stage_map(acq_units.len(), parallel, |u| {
        let (j, variant, f) = acq_units[u];
        let (j, f) = (j as usize, f as usize);
        faultinject::panic_point(&jobs[j].name, FleetStage::Acquires);
        contexts[func_off[j] + f]
            .as_ref()
            .expect("context for unit")
            .acquire_info(
                jobs[j].module,
                seeds[j].analysis.as_ref().expect("analysis for job"),
                variant,
            )
    });
    let acquire_infos: Vec<Option<AcquireInfo>> =
        ledger.absorb(aqres, FleetStage::Acquires, |u| acq_units[u].0 as usize);
    ledger.boundary(FleetStage::Acquires);

    // ---- stage 5: config tails ----
    // Per-(module, config, *function*) units, so a large module's
    // pruning/minimization shards across the pool; the per-config
    // collection of points and reports then runs on the caller. No
    // fences are inserted here: a result builds its instrumented module
    // when asked (`PipelineResult::module`).
    let tails_alive: Vec<bool> = (0..nj).map(|j| ledger.healthy(j)).collect();
    let mut tail_units: Vec<(u32, u32, u32)> = Vec::new();
    for j in (0..nj).filter(|&j| tails_alive[j]) {
        let n = jobs[j].module.funcs.len() as u32;
        for &c in &todo[j] {
            if jobs[j].configs[c].variant != Variant::Manual {
                tail_units.extend((0..n).map(|f| (j as u32, c as u32, f)));
            }
        }
    }
    let tres: Vec<Result<(FuncReport, Vec<FencePoint>), String>> =
        stage_map(tail_units.len(), parallel, |u| {
            let (j, c, f) = tail_units[u];
            let (j, c, f) = (j as usize, c as usize, f as usize);
            let job = &jobs[j];
            faultinject::panic_point(&job.name, FleetStage::Tails);
            finish_function(
                job.module,
                seeds[j].analysis.as_ref().expect("analysis for job"),
                contexts[func_off[j] + f]
                    .as_ref()
                    .expect("context for unit"),
                acquire_infos[acq_slot[j][job.configs[c].variant.idx()].expect("acquire info") + f]
                    .as_ref()
                    .expect("acquire info for unit"),
                &job.configs[c],
            )
        });
    let tails = ledger.absorb(tres, FleetStage::Tails, |u| tail_units[u].0 as usize);
    ledger.boundary(FleetStage::Tails);

    // Tail units were generated in (job, config, function) order over
    // the modules alive at the tails barrier, so one running cursor
    // regroups them deterministically. A module that failed *during*
    // the tails stage still consumes its cursor entries (keeping later
    // modules aligned) but contributes no results.
    let mut tail_cursor = tails.into_iter();
    let mut placements_per_job: Vec<Vec<Placement>> = Vec::with_capacity(nj);
    for (j, job) in jobs.iter().enumerate() {
        let mut placements = Vec::new();
        if tails_alive[j] {
            let n = job.module.funcs.len();
            for &c in &todo[j] {
                let config = &job.configs[c];
                if config.variant == Variant::Manual {
                    if ledger.healthy(j) {
                        placements.push(Placement {
                            points: Vec::new(),
                            report: manual_report(job.module, config),
                        });
                    }
                    continue;
                }
                let chunk: Vec<_> = tail_cursor.by_ref().take(n).collect();
                if !ledger.healthy(j) {
                    continue;
                }
                let mut funcs = Vec::with_capacity(n);
                let mut points = Vec::new();
                for t in chunk {
                    let (report, pts) = t.expect("tail unit of healthy module");
                    funcs.push(report);
                    points.extend(pts);
                }
                placements.push(Placement {
                    points,
                    report: ModuleReport {
                        module_name: job.module.name.clone(),
                        variant: config.variant.name().to_string(),
                        funcs,
                    },
                });
            }
        }
        placements_per_job.push(placements);
    }

    // ---- stage 6 (opt-in): post-placement certification ----
    // One unit per (healthy module, placement), model-checking the
    // instrumented module against its config's target. Healthy modules
    // hold exactly one placement per config still to compute, in `todo`
    // order.
    let mut certs_per_job: Vec<Vec<CertifyReport>> = (0..nj).map(|_| Vec::new()).collect();
    if let Some(copts) = opts.certify {
        let mut cert_units: Vec<(u32, u32)> = Vec::new();
        for j in (0..nj).filter(|&j| ledger.healthy(j)) {
            cert_units.extend((0..placements_per_job[j].len()).map(|k| (j as u32, k as u32)));
        }
        let crres = stage_map(cert_units.len(), parallel, |u| {
            let (j, k) = cert_units[u];
            let (j, k) = (j as usize, k as usize);
            let job = &jobs[j];
            faultinject::panic_point(&job.name, FleetStage::Certify);
            let config = &job.configs[todo[j][k]];
            let instrumented = insert_fences(job.module, &placements_per_job[j][k].points);
            let class = crate::certify::sync_classification(&instrumented, config.variant);
            crate::certify::certify_module(&instrumented, &class, config.target, &copts)
        });
        let creports = ledger.absorb(crres, FleetStage::Certify, |u| cert_units[u].0 as usize);
        for (u, r) in creports.into_iter().enumerate() {
            if let Some(rep) = r {
                certs_per_job[cert_units[u].0 as usize].push(rep);
            }
        }
    }
    ledger.boundary(FleetStage::Certify);

    let stats = FleetStats {
        modules: nj,
        functions: func_units.len(),
        configs: jobs.iter().map(|j| j.configs.len()).sum(),
        analyses: na,
        substrates: substrate_units.len(),
        failed: ledger.fail.iter().filter(|o| o.is_some()).count(),
        certifications: certs_per_job.iter().map(Vec::len).sum(),
        certify_unsound: certs_per_job
            .iter()
            .flat_map(|v| v.iter())
            .filter(|r| r.status() == CertifyStatus::Unsound)
            .count(),
        // Every job is materialized for the whole run: resident peaks
        // are exactly the fleet size.
        peak_resident_modules: nj,
        peak_resident_insts: jobs.iter().map(|j| j.module.total_insts() as u64).sum(),
    };

    let mut out = Vec::with_capacity(nj);
    for j in 0..nj {
        let outcome = ledger.fail[j].take().unwrap_or(ModuleOutcome::Ok);
        // A module quarantined at any stage — certification included —
        // comes back with empty results.
        let (placements, certifications) = if outcome.is_ok() {
            (
                std::mem::take(&mut placements_per_job[j]),
                std::mem::take(&mut certs_per_job[j]),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        out.push(Placed {
            outcome,
            placements,
            certifications,
        });
    }
    (out, stats)
}

// ---------------------------------------------------------------------
// Streamed ingestion: windowed admission over a lazy corpus feed.
// ---------------------------------------------------------------------

/// One item of the lazy corpus feed consumed by [`run_fleet_streamed`].
/// Producers (e.g. `corpus::ModuleSource`) yield these without ever
/// materializing the whole corpus.
#[derive(Debug)]
pub enum StreamItem {
    /// An already-built module (the built-in manifest families generate
    /// IR directly; no ingest parse is needed).
    Module {
        /// Display name used in reports.
        name: String,
        /// The module to analyze.
        module: Module,
    },
    /// Unparsed textual IR. Parsing runs as a [`FleetStage::Ingest`]
    /// work unit on the pool, overlapped with other modules' analysis;
    /// a text that fails to parse is quarantined as
    /// [`ModuleOutcome::InvalidIr`] without stalling the window.
    Text {
        /// Display name (typically the per-item pseudo-spec).
        name: String,
        /// Raw textual IR.
        text: String,
    },
    /// The loader could not produce this item at all (unreadable file,
    /// broken pack stream). Quarantined as [`ModuleOutcome::LoadFailed`]
    /// — one sick item never aborts the stream.
    Failed {
        /// Display name of the item that failed to load.
        name: String,
        /// The loader's error, verbatim.
        error: String,
    },
}

/// Adapts a lazily-resolving [`corpus::ModuleSource`] into the item
/// stream consumed by [`run_fleet_streamed`]: built-in entries arrive as
/// ready modules, file-backed specs as unparsed texts (so the ingest
/// stage parses them off-thread), and loader errors as
/// [`StreamItem::Failed`] — one unreadable file quarantines that item
/// without aborting the stream. Every front end (the batch CLI, the
/// daemon's spec expansion, `fenceplace client`) reads specs through it.
pub fn stream_items(source: corpus::ModuleSource) -> impl Iterator<Item = StreamItem> + Send {
    source.map(|item| match item {
        Ok(corpus::SourceItem::Module(entry)) => StreamItem::Module {
            name: entry.name,
            module: entry.module,
        },
        Ok(corpus::SourceItem::Text { name, text }) => StreamItem::Text { name, text },
        Err(e) => StreamItem::Failed {
            name: e.spec.clone(),
            error: e.to_string(),
        },
    })
}

/// Name + terminal outcome of one streamed item, in admission order —
/// the O(1)-per-module record the caller keeps after full results are
/// spilled through the completion sink.
#[derive(Clone, Debug)]
pub struct StreamSummary {
    /// The item's display name.
    pub name: String,
    /// Terminal status (exactly what the sink's [`FleetResult`] carried).
    pub outcome: ModuleOutcome,
}

/// The ingest work of one text: injected panic point, fault view, parse.
/// Pure (no shared state), so it parallelizes like any other unit.
fn ingest_parse(name: &str, text: &str) -> Result<Module, fence_ir::parser::ParseError> {
    faultinject::panic_point(name, FleetStage::Ingest);
    let view = faultinject::ingest_view(name, text);
    fence_ir::parser::parse_module(&view)
}

/// One ingest attempt: `Err(panic message)` from isolation, or the
/// parse result.
type IngestAttempt = Result<Result<Module, fence_ir::parser::ParseError>, String>;

/// Folds an ingest attempt into a module or a quarantine outcome.
/// Normal ingest charges **zero** steps — resident runs never see this
/// stage, and streamed budget outcomes must match resident ones exactly
/// — so only injected costs can trip an ingest deadline. A caught panic
/// wins over a same-stage deadline, as at every stage boundary.
fn finish_ingest(
    name: &str,
    attempt: IngestAttempt,
    budget: Option<u64>,
) -> Result<Module, ModuleOutcome> {
    match attempt {
        Err(message) => Err(ModuleOutcome::Panicked {
            stage: FleetStage::Ingest,
            message,
        }),
        Ok(Err(e)) => Err(ModuleOutcome::InvalidIr {
            errors: vec![format!("parse error: {e}")],
        }),
        Ok(Ok(module)) => {
            let extra = faultinject::extra_cost(name, FleetStage::Ingest);
            match budget {
                Some(b) if extra > b => Err(ModuleOutcome::DeadlineExceeded {
                    stage: FleetStage::Ingest,
                    spent: extra,
                    budget: b,
                }),
                _ => Ok(module),
            }
        }
    }
}

/// Parses one text as an isolated unit of its own (the same
/// [`stage_map`] isolation as every stage unit) and folds the attempt
/// into a module or a quarantine outcome.
pub(crate) fn ingest(name: &str, text: &str, opts: &FleetOptions) -> Result<Module, ModuleOutcome> {
    let attempt = stage_map(1, false, |_| ingest_parse(name, text))
        .pop()
        .expect("one unit");
    finish_ingest(name, attempt, opts.budget)
}

/// An item quarantined before any pipeline stage ran: its empty
/// [`FleetResult`] and its work accounting. A load failure never held a
/// module; an ingest quarantine had its configs scheduled, like any
/// module quarantined mid-run.
fn quarantined(name: String, outcome: ModuleOutcome, configs: usize) -> (FleetResult, FleetStats) {
    let admitted = !matches!(outcome, ModuleOutcome::LoadFailed { .. });
    let stats = FleetStats {
        failed: 1,
        configs: if admitted { configs } else { 0 },
        ..FleetStats::default()
    };
    let result = FleetResult {
        name,
        outcome,
        results: Vec::new(),
        certifications: Vec::new(),
    };
    (result, stats)
}

/// Runs fence placement over a **streamed** corpus: items are admitted
/// lazily from `items`, each module's full [`FleetResult`] is delivered
/// to `on_complete(admission_index, result)` as soon as that module
/// retires, and only the O(1)-sized [`StreamSummary`] per item is
/// retained — so a corpus far larger than memory processes at
/// O(window) peak residency ([`FleetStats::peak_resident_modules`]).
///
/// Scheduling depends on [`FleetOptions::window`]:
///
/// * `None` — the whole stream is materialized (texts parsed in one
///   pooled ingest pass) and handed to [`run_fleet_opts`]: per-module
///   results are **bit-identical** to a resident run. `on_complete`
///   fires in admission order.
/// * `Some(w)` — one worker loop on `min(w, pool workers + 1)` threads
///   (one when sequential). Each worker takes the next item, parses it
///   if it is a text, runs it as an exact single-module
///   [`run_fleet_opts`] and delivers the result, so an item is resident
///   only from take to delivery. Quarantine, budget charging and
///   per-module results match the resident scheduler bit-for-bit (the
///   fleet≡per-module-batch equivalence is pinned by `tests/fleet.rs`).
///   `on_complete` may fire in any order; every delivery carries its
///   admission index.
///
/// Summaries are index-keyed and the work counters are sums, so
/// sequential and pooled runs return the same summaries and the same
/// [`FleetStats`], except the two residency peaks. Those are measured
/// high-water marks: under a pooled window they follow worker timing
/// and can differ from run to run, while a sequential window always
/// reads one module and the largest module's instruction count.
///
/// Quarantine semantics extend to ingestion: a [`StreamItem::Failed`]
/// loads as [`ModuleOutcome::LoadFailed`], an unparsable text as
/// [`ModuleOutcome::InvalidIr`] (stage [`FleetStage::Ingest`] hooks the
/// fault-injection registry like any other stage), and neither stalls
/// the window. A panic in `on_complete` is not a unit's and is not
/// isolated: it reaches the caller.
pub fn run_fleet_streamed<I, F>(
    items: I,
    configs: &[PipelineConfig],
    opts: &FleetOptions,
    on_complete: F,
) -> (Vec<StreamSummary>, FleetStats)
where
    I: IntoIterator<Item = StreamItem>,
    I::IntoIter: Send,
    F: FnMut(usize, FleetResult) + Send,
{
    match opts.window {
        None => stream_resident(items, configs, opts, on_complete),
        Some(w) => stream_windowed(items.into_iter(), w.max(1), configs, opts, on_complete),
    }
}

/// `window: None`: materialize everything (one pooled ingest pass over
/// the texts), then run the exact resident scheduler. Each module moves
/// into the `Arc` its results share, so no module is copied.
fn stream_resident<I, F>(
    items: I,
    configs: &[PipelineConfig],
    opts: &FleetOptions,
    mut on_complete: F,
) -> (Vec<StreamSummary>, FleetStats)
where
    I: IntoIterator<Item = StreamItem>,
    F: FnMut(usize, FleetResult),
{
    enum Slot {
        Pending,
        Run(String, Arc<Module>),
        Quarantined(String, ModuleOutcome),
    }
    let mut slots: Vec<Slot> = Vec::new();
    let mut texts: Vec<(usize, String, String)> = Vec::new();
    for item in items {
        match item {
            StreamItem::Module { name, module } => slots.push(Slot::Run(name, Arc::new(module))),
            StreamItem::Failed { name, error } => {
                slots.push(Slot::Quarantined(name, ModuleOutcome::LoadFailed { error }))
            }
            StreamItem::Text { name, text } => {
                texts.push((slots.len(), name, text));
                slots.push(Slot::Pending);
            }
        }
    }
    // One pooled ingest pass, unit-isolated exactly like any stage.
    let attempts: Vec<IngestAttempt> = stage_map(texts.len(), opts.parallel, |k| {
        let (_, name, text) = &texts[k];
        ingest_parse(name, text)
    });
    for ((i, name, _), attempt) in texts.into_iter().zip(attempts) {
        slots[i] = match finish_ingest(&name, attempt, opts.budget) {
            Ok(module) => Slot::Run(name, Arc::new(module)),
            Err(outcome) => Slot::Quarantined(name, outcome),
        };
    }

    let mut jobs: Vec<FleetJob> = Vec::new();
    let mut sources: Vec<&Arc<Module>> = Vec::new();
    for slot in &slots {
        if let Slot::Run(name, module) = slot {
            jobs.push(FleetJob::new(name.clone(), module, configs.to_vec()));
            sources.push(module);
        }
    }
    let inner = FleetOptions {
        window: None,
        ..*opts
    };
    let (fleet, mut stats) = run_fleet_lent(&jobs, &inner, |j| Arc::clone(sources[j]));

    // Deliver in admission order; quarantined-at-ingest items get empty
    // results. Every item but a load failure was resident at once.
    stats.modules = slots.len();
    stats.peak_resident_modules = slots
        .iter()
        .filter(|s| !matches!(s, Slot::Quarantined(_, ModuleOutcome::LoadFailed { .. })))
        .count();
    let mut fleet = fleet.into_iter();
    let mut summaries = Vec::with_capacity(slots.len());
    for (index, slot) in slots.into_iter().enumerate() {
        let fr = match slot {
            Slot::Pending => unreachable!("every text slot was resolved"),
            Slot::Run(..) => fleet.next().expect("one fleet result per job"),
            Slot::Quarantined(name, outcome) => {
                let (fr, qstats) = quarantined(name, outcome, configs.len());
                fold_stats(&mut stats, &qstats);
                fr
            }
        };
        summaries.push(StreamSummary {
            name: fr.name.clone(),
            outcome: fr.outcome.clone(),
        });
        on_complete(index, fr);
    }
    (summaries, stats)
}

/// `window: Some(w)`: one worker loop on up to `window` threads (the
/// pool caps them at its workers plus the caller; one when sequential).
/// Every stage unit is isolated, so only a panicking source or sink ends
/// a worker. No worker waits on another, so the others end too (at the
/// poisoned lock, or when the source runs dry), and
/// [`ThreadPool::run_scoped`] re-raises the panic on the caller.
fn stream_windowed<I, F>(
    source: I,
    window: usize,
    configs: &[PipelineConfig],
    opts: &FleetOptions,
    on_complete: F,
) -> (Vec<StreamSummary>, FleetStats)
where
    I: Iterator<Item = StreamItem> + Send,
    F: FnMut(usize, FleetResult) + Send,
{
    /// The delivered items' summaries by admission index, the folded
    /// stats and the live residency (modules, instructions).
    struct Tally {
        summaries: Vec<(usize, StreamSummary)>,
        stats: FleetStats,
        resident: (usize, u64),
    }
    impl Tally {
        fn hold(&mut self, modules: usize, insts: u64) {
            self.resident.0 += modules;
            self.resident.1 += insts;
            let s = &mut self.stats;
            s.peak_resident_modules = s.peak_resident_modules.max(self.resident.0);
            s.peak_resident_insts = s.peak_resident_insts.max(self.resident.1);
        }
    }

    // The source has a lock of its own, so reading the next item never
    // stalls another worker's bookkeeping; fused, it ends at its first `None`.
    let source = Mutex::new(source.fuse().enumerate());
    let tally = Mutex::new(Tally {
        summaries: Vec::new(),
        stats: FleetStats::default(),
        resident: (0, 0),
    });
    let sink = Mutex::new(on_complete);
    // Only a panicking source or sink poisons a lock; `run_scoped` re-raises it.
    const POISONED: &str = "the stream's source or sink panicked";
    // Sequential and windowless inside (the other workers' modules are the
    // parallelism); every other option is the caller's.
    let inner = FleetOptions {
        parallel: false,
        window: None,
        ..*opts
    };

    let worker = || loop {
        let Some((index, item)) = source.lock().expect(POISONED).next() else {
            break;
        };
        // A load failure never holds a module.
        let held = usize::from(!matches!(item, StreamItem::Failed { .. }));
        tally.lock().expect(POISONED).hold(held, 0);
        let (module, name) = match item {
            StreamItem::Module { name, module } => (Ok(module), name),
            StreamItem::Text { name, text } => (ingest(&name, &text, opts), name),
            StreamItem::Failed { name, error } => (Err(ModuleOutcome::LoadFailed { error }), name),
        };
        let insts = module.as_ref().map_or(0, |m| m.total_insts() as u64);
        tally.lock().expect(POISONED).hold(0, insts);
        let (fr, stats) = match module {
            Ok(module) => {
                // The results share the module itself: it is not copied.
                let module = Arc::new(module);
                let job = FleetJob::new(name, &module, configs.to_vec());
                let (mut results, stats) =
                    run_fleet_lent(std::slice::from_ref(&job), &inner, |_| Arc::clone(&module));
                (results.pop().expect("one result per job"), stats)
            }
            Err(outcome) => quarantined(name, outcome, configs.len()),
        };
        let summary = StreamSummary {
            name: fr.name.clone(),
            outcome: fr.outcome.clone(),
        };
        sink.lock().expect(POISONED)(index, fr);
        let mut t = tally.lock().expect(POISONED);
        t.summaries.push((index, summary));
        fold_stats(&mut t.stats, &stats);
        t.resident.0 -= held;
        t.resident.1 -= insts;
    };
    ThreadPool::global().run_scoped(if opts.parallel { window } else { 1 }, &worker);

    // Every taken item was delivered, or `run_scoped` re-raised a panic.
    let mut t = tally.into_inner().expect(POISONED);
    t.summaries.sort_unstable_by_key(|&(i, _)| i);
    t.stats.modules = t.summaries.len();
    let summaries = t.summaries.into_iter().map(|(_, s)| s).collect();
    (summaries, t.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimize::TargetModel;
    use crate::run_pipeline_batch;
    use fence_ir::builder::{FunctionBuilder, ModuleBuilder};
    use fence_ir::{BlockId, Inst, InstId, InstKind};

    fn spin_module(name: &str, funcs: usize) -> Module {
        let mut mb = ModuleBuilder::new(name);
        let data = mb.global("data", 1);
        let flag = mb.global("flag", 1);
        for i in 0..funcs {
            let mut fb = FunctionBuilder::new(format!("w{i}"), 0);
            fb.store(data, i as i64);
            fb.spin_while_eq(flag, 0i64);
            let v = fb.load(data);
            fb.ret(Some(v));
            mb.add_func(fb.build());
        }
        mb.finish()
    }

    /// A module the verifier rejects: its one block branches to `bb9`,
    /// which does not exist (building its CFG would index out of bounds).
    fn broken_module(name: &str) -> Module {
        let mut f = Function::new("boom", 0);
        f.insts.push(Inst {
            kind: InstKind::Br {
                target: BlockId::new(9),
            },
        });
        f.blocks[0].insts.push(InstId::new(0));
        let mut m = Module::new(name);
        m.funcs.push(f);
        m
    }

    fn sweep_configs() -> Vec<PipelineConfig> {
        let mut v = Vec::new();
        for variant in [
            Variant::Pensieve,
            Variant::Control,
            Variant::AddressControl,
            Variant::Manual,
        ] {
            for target in [TargetModel::X86Tso, TargetModel::Weak] {
                v.push(PipelineConfig {
                    variant,
                    target,
                    parallel: false,
                });
            }
        }
        v
    }

    /// The resident fleet under default options, sequential or pooled.
    fn run(jobs: &[FleetJob], parallel: bool) -> (Vec<FleetResult>, FleetStats) {
        run_fleet_opts(
            jobs,
            &FleetOptions {
                parallel,
                ..FleetOptions::default()
            },
        )
    }

    fn assert_same_results(a: &FleetResult, b: &FleetResult) {
        assert_eq!(a.results.len(), b.results.len());
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.points, y.points, "{}: points", a.name);
            assert_eq!(
                format!("{:?}", x.report),
                format!("{:?}", y.report),
                "{}: report",
                a.name
            );
        }
    }

    #[test]
    fn empty_fleet() {
        let (results, stats) = run(&[], false);
        assert!(results.is_empty());
        assert_eq!(stats.modules, 0);
        assert_eq!(stats.analyses, 0);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn empty_configs_job_runs_nothing() {
        let m = spin_module("m", 2);
        let (results, stats) = run(&[FleetJob::new("m", &m, Vec::new())], false);
        assert_eq!(results.len(), 1);
        assert!(results[0].results.is_empty());
        assert!(results[0].outcome.is_ok());
        assert_eq!(stats.analyses, 0, "no config, no analysis");
        assert_eq!(stats.substrates, 0);
    }

    #[test]
    fn manual_only_job_skips_analysis() {
        let m = spin_module("m", 2);
        let (results, stats) = run(
            &[FleetJob::new(
                "m",
                &m,
                vec![PipelineConfig::for_variant(Variant::Manual)],
            )],
            false,
        );
        assert_eq!(stats.analyses, 0);
        assert_eq!(stats.substrates, 0);
        assert_eq!(results[0].results.len(), 1);
        assert!(results[0].results[0].points.is_empty());
    }

    #[test]
    fn fleet_matches_per_module_batches() {
        let a = spin_module("a", 3);
        let b = spin_module("b", 1);
        let configs = sweep_configs();
        let jobs = [
            FleetJob::new("a", &a, configs.clone()),
            FleetJob::new("b", &b, configs.clone()),
        ];
        for parallel in [false, true] {
            let (fleet, _) = run(&jobs, parallel);
            for (job, got) in jobs.iter().zip(&fleet) {
                assert!(got.outcome.is_ok());
                let want = run_pipeline_batch(job.module, &job.configs);
                assert_eq!(want.len(), got.results.len());
                for (w, g) in want.iter().zip(&got.results) {
                    assert_eq!(w.points, g.points, "{}: points (par={parallel})", job.name);
                    assert_eq!(
                        format!("{:?}", w.report),
                        format!("{:?}", g.report),
                        "{}: report (par={parallel})",
                        job.name
                    );
                }
            }
        }
    }

    #[test]
    fn stats_pin_one_analysis_and_substrate_per_module() {
        let a = spin_module("a", 2);
        let b = spin_module("b", 3);
        let configs = sweep_configs(); // 8 configs, 3 distinct automatic variants
        let runs_before = fence_analysis::analysis_runs();
        let cfg_before = fence_ir::cfg::cfg_builds();
        let (_, stats) = run(
            &[
                FleetJob::new("a", &a, configs.clone()),
                FleetJob::new("b", &b, configs),
            ],
            false, // sequential: thread-local counters observe everything
        );
        assert_eq!(stats.analyses, 2, "one ModuleAnalysis per module");
        assert_eq!(stats.substrates, 5, "one substrate per function");
        assert_eq!(
            fence_analysis::analysis_runs() - runs_before,
            2,
            "independent counter agrees with stats"
        );
        // The validation gate builds each function's CFG, and the
        // substrate reuses it: one build for each of the 5 functions.
        assert_eq!(fence_ir::cfg::cfg_builds() - cfg_before, 5);
    }

    #[test]
    fn invalid_module_is_quarantined_others_bit_identical() {
        let a = spin_module("a", 3);
        let bad = broken_module("bad");
        let c = spin_module("c", 1);
        let configs = sweep_configs();
        let healthy_jobs = [
            FleetJob::new("a", &a, configs.clone()),
            FleetJob::new("c", &c, configs.clone()),
        ];
        let (want, _) = run(&healthy_jobs, false);
        for parallel in [false, true] {
            let jobs = [
                FleetJob::new("a", &a, configs.clone()),
                FleetJob::new("bad", &bad, configs.clone()),
                FleetJob::new("c", &c, configs.clone()),
            ];
            let (got, stats) = run(&jobs, parallel);
            assert_eq!(stats.failed, 1);
            match &got[1].outcome {
                ModuleOutcome::InvalidIr { errors } => {
                    assert!(!errors.is_empty());
                    assert!(
                        errors.iter().any(|e| e.contains("out of range")),
                        "{errors:?}"
                    );
                }
                other => panic!("expected InvalidIr, got {other:?}"),
            }
            assert!(
                got[1].results.is_empty(),
                "quarantined module yields no results (Manual configs included)"
            );
            assert!(got[0].outcome.is_ok());
            assert!(got[2].outcome.is_ok());
            assert_same_results(&got[0], &want[0]);
            assert_same_results(&got[2], &want[1]);
        }
    }

    /// The batch runs the gate like every fleet run and re-raises the
    /// quarantine as a panic that names the outcome, where building the
    /// CFG of the broken branch would panic with an index out of bounds.
    #[test]
    #[should_panic(expected = "branch target bb9 out of range")]
    fn batch_reraises_a_quarantine_as_a_panic() {
        let bad = broken_module("bad");
        run_pipeline_batch(&bad, &[PipelineConfig::for_variant(Variant::Control)]);
    }

    #[test]
    fn certify_stage_reports_and_is_deterministic() {
        let a = spin_module("a", 2);
        let configs = vec![
            PipelineConfig::for_variant(Variant::Control),
            PipelineConfig {
                variant: Variant::Manual,
                target: TargetModel::X86Tso,
                parallel: false,
            },
        ];
        let mut statuses = Vec::new();
        for parallel in [false, true] {
            let opts = FleetOptions {
                parallel,
                certify: Some(CertifyOptions {
                    max_states: 50_000,
                    ..Default::default()
                }),
                ..FleetOptions::default()
            };
            let (got, stats) = run_fleet_opts(&[FleetJob::new("a", &a, configs.clone())], &opts);
            assert!(got[0].outcome.is_ok());
            assert_eq!(got[0].certifications.len(), 2, "one report per config");
            assert_eq!(stats.certifications, 2);
            assert_eq!(stats.certify_unsound, 0);
            statuses.push(
                got[0]
                    .certifications
                    .iter()
                    .map(|r| r.status())
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(statuses[0], statuses[1], "seq and pooled verdicts agree");
        // Disabled by default: no reports, zero stats.
        let (got, stats) = run(&[FleetJob::new("a", &a, configs)], false);
        assert!(got[0].certifications.is_empty());
        assert_eq!(stats.certifications, 0);
    }

    /// Runs the streamed scheduler over `items`, collecting the sink
    /// deliveries keyed by admission index.
    fn stream_collect(
        items: Vec<StreamItem>,
        configs: &[PipelineConfig],
        opts: &FleetOptions,
    ) -> (Vec<StreamSummary>, FleetStats, Vec<Option<FleetResult>>) {
        let delivered = std::sync::Mutex::new(Vec::new());
        let (summaries, stats) = run_fleet_streamed(items, configs, opts, |i, fr| {
            delivered.lock().unwrap().push((i, fr));
        });
        let mut slots: Vec<Option<FleetResult>> = (0..summaries.len()).map(|_| None).collect();
        for (i, fr) in delivered.into_inner().unwrap() {
            assert!(slots[i].is_none(), "each index delivered exactly once");
            slots[i] = Some(fr);
        }
        (summaries, stats, slots)
    }

    fn text_items(modules: &[(&str, &Module)]) -> Vec<StreamItem> {
        modules
            .iter()
            .map(|(name, m)| StreamItem::Text {
                name: name.to_string(),
                text: fence_ir::printer::print_module(m),
            })
            .collect()
    }

    #[test]
    fn streamed_matches_resident_for_every_window() {
        let printed: Vec<Module> = (0..5)
            .map(|i| {
                let m = spin_module(&format!("m{i}"), 1 + i % 3);
                // Round-trip through the printer so the resident baseline
                // sees the same densely renumbered IR the stream parses.
                fence_ir::parser::parse_module(&fence_ir::printer::print_module(&m)).unwrap()
            })
            .collect();
        let named: Vec<(&str, &Module)> = ["m0", "m1", "m2", "m3", "m4"]
            .iter()
            .zip(&printed)
            .map(|(n, m)| (*n, m))
            .collect();
        let configs = sweep_configs();
        let jobs: Vec<FleetJob> = named
            .iter()
            .map(|(n, m)| FleetJob::new(*n, m, configs.clone()))
            .collect();
        let (want, wstats) = run(&jobs, false);
        for parallel in [false, true] {
            for window in [None, Some(1), Some(2), Some(64)] {
                let opts = FleetOptions {
                    parallel,
                    window,
                    ..FleetOptions::default()
                };
                let (summaries, stats, got) = stream_collect(text_items(&named), &configs, &opts);
                assert_eq!(summaries.len(), 5);
                assert_eq!(stats.modules, 5);
                assert_eq!(stats.failed, 0);
                assert_eq!(stats.functions, wstats.functions);
                for (k, (w, g)) in want.iter().zip(&got).enumerate() {
                    let g = g.as_ref().expect("delivered");
                    assert_eq!(summaries[k].name, w.name);
                    assert!(summaries[k].outcome.is_ok());
                    assert_same_results(g, w);
                }
                match window {
                    Some(w) => assert!(
                        stats.peak_resident_modules <= w,
                        "peak {} exceeds window {w} (par={parallel})",
                        stats.peak_resident_modules
                    ),
                    None => assert_eq!(stats.peak_resident_modules, 5),
                }
                assert!(stats.peak_resident_insts > 0);
            }
        }
    }

    #[test]
    fn streamed_quarantines_bad_items_without_stalling() {
        let good = spin_module("good", 2);
        let also = spin_module("also", 1);
        let configs = vec![PipelineConfig::for_variant(Variant::Control)];
        for parallel in [false, true] {
            for window in [None, Some(1), Some(2)] {
                let opts = FleetOptions {
                    parallel,
                    window,
                    ..FleetOptions::default()
                };
                let items = vec![
                    StreamItem::Text {
                        name: "stream:good".into(),
                        text: fence_ir::printer::print_module(&good),
                    },
                    StreamItem::Failed {
                        name: "file:gone.ir".into(),
                        error: "cannot read `gone.ir`: missing".into(),
                    },
                    StreamItem::Text {
                        name: "stream:garbage".into(),
                        text: "this is not ir\n".into(),
                    },
                    StreamItem::Module {
                        name: "stream:also".into(),
                        module: also.clone(),
                    },
                ];
                let (summaries, stats, got) = stream_collect(items, &configs, &opts);
                assert_eq!(stats.modules, 4);
                assert_eq!(stats.failed, 2, "par={parallel} window={window:?}");
                assert!(matches!(
                    summaries[1].outcome,
                    ModuleOutcome::LoadFailed { .. }
                ));
                match &summaries[2].outcome {
                    ModuleOutcome::InvalidIr { errors } => {
                        assert!(errors[0].contains("parse error"), "{errors:?}");
                    }
                    other => panic!("expected InvalidIr, got {other:?}"),
                }
                assert!(summaries[0].outcome.is_ok());
                assert!(summaries[3].outcome.is_ok());
                // Quarantined items deliver empty results; healthy ones
                // match the resident baseline bit-for-bit.
                let g1 = got[1].as_ref().unwrap();
                assert!(g1.results.is_empty());
                // The streamed text round-trips through print+parse, so
                // compare against a resident run of the parsed form.
                let parsed =
                    fence_ir::parser::parse_module(&fence_ir::printer::print_module(&good))
                        .unwrap();
                let (want_parsed, _) = run(
                    &[FleetJob::new("stream:good", &parsed, configs.clone())],
                    false,
                );
                assert_same_results(got[0].as_ref().unwrap(), &want_parsed[0]);
            }
        }
    }

    #[test]
    fn streamed_empty_and_module_items() {
        let configs = vec![PipelineConfig::for_variant(Variant::Control)];
        let opts = FleetOptions {
            parallel: false,
            window: Some(3),
            ..FleetOptions::default()
        };
        let (summaries, stats, _) = stream_collect(Vec::new(), &configs, &opts);
        assert!(summaries.is_empty());
        assert_eq!(stats.modules, 0);
        assert_eq!(stats.peak_resident_modules, 0);
        // Pre-built Module items skip ingest entirely and still match
        // the resident run exactly (no print/parse renumbering).
        let m = spin_module("m", 2);
        let (want, _) = run(&[FleetJob::new("m", &m, configs.clone())], false);
        let items = vec![StreamItem::Module {
            name: "m".into(),
            module: m.clone(),
        }];
        let (summaries, stats, got) = stream_collect(items, &configs, &opts);
        assert!(summaries[0].outcome.is_ok());
        assert_eq!(stats.peak_resident_modules, 1);
        assert_eq!(stats.peak_resident_insts, m.total_insts() as u64);
        assert_same_results(got[0].as_ref().unwrap(), &want[0]);
    }

    #[test]
    fn budget_deadline_is_deterministic() {
        let a = spin_module("a", 2);
        let b = spin_module("b", 2);
        let configs = vec![PipelineConfig::for_variant(Variant::Control)];
        let cost = module_step_cost(&a);
        // The validate charge alone fits exactly; the analysis charge
        // pushes past the budget at the stage boundary.
        let mut outcomes = Vec::new();
        for parallel in [false, true] {
            let opts = FleetOptions {
                parallel,
                budget: Some(cost),
                ..FleetOptions::default()
            };
            let jobs = [
                FleetJob::new("a", &a, configs.clone()),
                FleetJob::new("b", &b, configs.clone()),
            ];
            let (got, stats) = run_fleet_opts(&jobs, &opts);
            assert_eq!(stats.failed, 2, "both identical modules trip the deadline");
            assert_eq!(
                got[0].outcome,
                ModuleOutcome::DeadlineExceeded {
                    stage: FleetStage::Analysis,
                    spent: 2 * cost,
                    budget: cost,
                }
            );
            assert!(got[0].results.is_empty());
            outcomes.push((got[0].outcome.clone(), got[1].outcome.clone()));
        }
        assert_eq!(outcomes[0], outcomes[1], "seq and pooled deadlines agree");
        // A generous budget changes nothing.
        let opts = FleetOptions {
            parallel: false,
            budget: Some(u64::MAX / 2),
            ..FleetOptions::default()
        };
        let (got, stats) = run_fleet_opts(&[FleetJob::new("a", &a, configs.clone())], &opts);
        assert_eq!(stats.failed, 0);
        assert!(got[0].outcome.is_ok());
        let (want, _) = run(&[FleetJob::new("a", &a, configs)], false);
        assert_same_results(&got[0], &want[0]);
    }
}

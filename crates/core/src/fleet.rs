//! The fleet executor: fence placement over many modules with per-module
//! fault isolation — and the one place the stage sequence is
//! implemented.
//!
//! Every entry point is a thin caller of this executor, and every run
//! takes one path: each module passes the validation gate and each work
//! unit runs isolated. [`run_pipeline_batch`](crate::run_pipeline_batch)
//! is a fleet of one that re-raises a quarantine as a panic, and the
//! analysis service ([`crate::service`]) hands the executor a *seed* —
//! the state its cache already holds — so only the missing units run.
//! Fleet ≡ batch ≡ service therefore holds by construction.
//!
//! # One level of parallelism
//!
//! The executor runs one module's stages on the calling thread. A
//! many-module run is one worker loop on scoped threads: each worker
//! takes the next module, runs all of its stages and delivers its
//! result, so whole modules are the only thing the loop schedules. A run
//! that knows its whole input ([`run_fleet_opts`], and
//! [`run_fleet_streamed`] without a window) takes its modules largest
//! first by [`Module::total_insts`] (ties in admission order), so the
//! longest module does not start last; a windowed stream takes them in
//! admission order. The trade-off: one module, or a run of fewer modules
//! than cores, gets one core per module. On a 2-vCPU host spreading a
//! module's functions over several threads measured no faster, and the
//! flattened cross-module passes held every module's intermediate state
//! at once.
//!
//! A module's stages, each a list of units:
//!
//! 1. *validate* — the pre-analysis IR gate
//!    ([`fence_ir::verify_module_checked`]): malformed modules are
//!    rejected with structured diagnostics before any analysis runs, and
//!    a well-formed module hands on the [`Cfg`] the gate built for each
//!    of its functions;
//! 2. *analysis* — one [`ModuleAnalysis`] (points-to + escape);
//! 3. *substrates* — one [`FuncSubstrate`] per function, built from the
//!    gate's `Cfg` ([`FuncSubstrate::from_cfg`]), so a run builds each
//!    function's CFG once;
//! 4. *contexts* — one [`FuncContext`] (alias oracle + orderings) per
//!    function;
//! 5. *acquire detection* — one [`AcquireInfo`] per (distinct automatic
//!    variant, function) pair;
//! 6. *config tails* — pruning + minimization per (config, function),
//!    collected into one placement (fence points + report) per config;
//! 7. *certify* (opt-in, [`FleetOptions::certify`]) — bounded model
//!    checking of every placement, fences inserted, against its target
//!    memory model ([`crate::certify()`]), one unit per config.
//!
//! No stage builds a fenced module for a result: a [`PipelineResult`]
//! holds its points, its report and an `Arc` of its source module, shared
//! by every result of the job, and inserts the fences when its
//! [`PipelineResult::module`] is first called. The reports the CLI and
//! the service render need only points and reports.
//!
//! A module's results depend on that module alone and every result is
//! keyed by its job, so the order in which workers finish cannot affect
//! any output: sequential and parallel runs are **bit-identical**
//! (pinned by `tests/fleet.rs`).
//!
//! # Failure isolation
//!
//! A 1000-module sweep must not die because module 713 trips an
//! assertion. Every work unit runs under its own `catch_unwind`
//! (`Ledger::unit`), and a failing module is **quarantined**, never
//! fatal:
//!
//! * the first failing unit (in unit order) decides the module's
//!   [`ModuleOutcome`] — [`ModuleOutcome::InvalidIr`] from the validation
//!   gate, [`ModuleOutcome::Panicked`] from a caught unit panic, or
//!   [`ModuleOutcome::DeadlineExceeded`] from the step budget below;
//! * later stages run none of the quarantined module's units (a stage
//!   never stops mid-way: every unit of the stage that failed still
//!   executes);
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
//! the fleet runs sequentially or in parallel. One function,
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
use crate::report::{FleetStage, ModuleOutcome, ModuleReport};
use fence_analysis::ModuleAnalysis;
use fence_ir::cfg::{Cfg, FuncSubstrate};
use fence_ir::{FuncId, Function, Module};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::sync::{Arc, Mutex, OnceLock};

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
    /// Run many modules at once: the worker loop takes up to one thread
    /// per core, each running whole modules. A module's own stages always
    /// run on one thread, so a one-module run is the same either way, and
    /// sequential and parallel runs are bit-identical.
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
    /// `min(window, cores)` workers (one when sequential) each
    /// take the next item in admission order and hold its module from
    /// take to delivery, so at most that many are resident at once,
    /// bounding peak memory at O(window), not O(corpus). `None` (the
    /// default) parses the whole stream first and then runs it like
    /// [`run_fleet_opts`], largest module first. Per-module results are
    /// **bit-identical** either way. [`run_fleet_opts`] ignores this
    /// field.
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
    /// Functions of the modules that reached the analysis and substrate
    /// stages: modules that passed the gate with an automatic config
    /// left to compute.
    pub functions: usize,
    /// Total (module, config) result units scheduled (including configs
    /// of modules later quarantined).
    pub configs: usize,
    /// `ModuleAnalysis` executions — one per module that has at least
    /// one non-`Manual` config and passed the gate, never more.
    pub analyses: usize,
    /// `FuncSubstrate` builds — one per function of every module that
    /// reached the substrate stage, never more. Substrates depend only
    /// on the IR, so a module whose analysis panics or trips its
    /// deadline still builds (and counts) them.
    pub substrates: usize,
    /// Modules quarantined with a non-[`ModuleOutcome::Ok`] outcome.
    pub failed: usize,
    /// Certification reports produced (0 when the stage is disabled),
    /// including those of a module a Certify-stage deadline then
    /// quarantines.
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

/// Folds the work counters of one module's run (or its quarantine
/// before any stage) into a run-wide accumulator. `modules` and the
/// residency peaks are the run's own.
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

/// Runs `f` under its own `catch_unwind`: a panic becomes `Err(panic
/// message)` instead of unwinding through the run.
fn isolated<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| panic_message(p.as_ref()))
}

/// Renders a caught panic payload as a message: the `&str` / `String`
/// forms the standard `panic!` macros produce pass through verbatim,
/// anything else gets a placeholder. The quarantine reports carry it.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One module's quarantine state and deterministic step spend.
struct Ledger<'n> {
    /// The module's name (the fault-injection key).
    name: &'n str,
    plan: Vec<(FleetStage, u64)>,
    budget: Option<u64>,
    spent: u64,
    fail: Option<ModuleOutcome>,
}

impl<'n> Ledger<'n> {
    fn new(name: &'n str, plan: Vec<(FleetStage, u64)>, budget: Option<u64>) -> Self {
        Ledger {
            name,
            plan,
            budget,
            spent: 0,
            fail: None,
        }
    }

    fn healthy(&self) -> bool {
        self.fail.is_none()
    }

    /// Quarantines the module unless an earlier failure already did.
    fn quarantine(&mut self, outcome: ModuleOutcome) {
        if self.fail.is_none() {
            self.fail = Some(outcome);
        }
    }

    /// Runs one unit of `stage`, isolated: a panic quarantines the
    /// module as [`ModuleOutcome::Panicked`] (unless an earlier failure
    /// did) and yields `None`. Every unit of every stage runs here.
    fn unit<T>(&mut self, stage: FleetStage, f: impl FnOnce() -> T) -> Option<T> {
        let name = self.name;
        match isolated(|| {
            faultinject::panic_point(name, stage);
            f()
        }) {
            Ok(v) => Some(v),
            Err(message) => {
                self.quarantine(ModuleOutcome::Panicked { stage, message });
                None
            }
        }
    }

    /// Charges the module its planned cost (plus any injected cost) for
    /// `stage`, tripping its deadline if the spend exceeds the budget. A
    /// quarantined module pays nothing, so a panic always wins over a
    /// same-stage deadline.
    fn boundary(&mut self, stage: FleetStage) {
        let Some(&(_, cost)) = self.plan.iter().find(|(s, _)| *s == stage) else {
            return;
        };
        if self.fail.is_some() {
            return;
        }
        let cost = cost.saturating_add(faultinject::extra_cost(self.name, stage));
        self.spent = self.spent.saturating_add(cost);
        if let Some(budget) = self.budget.filter(|&b| self.spent > b) {
            self.fail = Some(ModuleOutcome::DeadlineExceeded {
                stage,
                spent: self.spent,
                budget,
            });
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
    let mut ledger = Ledger::new(name, charge_plan(module, configs, opts), opts.budget);
    for stage in FleetStage::ALL {
        ledger.boundary(stage);
    }
    ledger.fail.unwrap_or(ModuleOutcome::Ok)
}

/// The validation gate of one module: the [`Cfg`] of each function when
/// the IR is well-formed, otherwise its verifier diagnostics, capped at
/// [`MAX_IR_DIAGNOSTICS`]. A fault-injected view hands on no CFGs: they
/// would describe the view, not the module.
fn validate(name: &str, module: &Module) -> Result<Vec<Cfg>, Vec<String>> {
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

/// Runs the fleet under `opts` and returns the results, in job order,
/// together with the run's [`FleetStats`]. See the module docs for the
/// stage structure and the failure-isolation contract. The jobs run
/// largest module first on the worker loop; sequential and parallel
/// runs are bit-identical.
///
/// The jobs are borrowed, so each job's results share one copy of its
/// module (taken only when the job has results); the streamed entry
/// point owns its modules and lends them instead, copying none.
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
    let mut slots: Vec<Option<FleetResult>> = jobs.iter().map(|_| None).collect();
    let stats = run_jobs(
        jobs,
        opts,
        |j| Arc::new(jobs[j].module.clone()),
        |j, fr| slots[j] = Some(fr),
    );
    let results = slots
        .into_iter()
        .map(|s| s.expect("every job ran"))
        .collect();
    (results, stats)
}

/// Runs `jobs` on the worker loop, largest module first (ties in job
/// order), and hands each job's result to `sink(j, result)` as it
/// finishes. `source(j)` supplies job `j`'s source module: called once
/// if the job has results, and shared by all of them, which build their
/// instrumented modules from it on demand. Every job is resident for
/// the whole run, so the residency peaks are the fleet's totals.
fn run_jobs(
    jobs: &[FleetJob],
    opts: &FleetOptions,
    source: impl Fn(usize) -> Arc<Module> + Sync,
    sink: impl FnMut(usize, FleetResult) + Send,
) -> FleetStats {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&j| Reverse(jobs[j].module.total_insts()));
    let sink = Mutex::new((sink, FleetStats::default()));
    let threads = if opts.parallel { jobs.len() } else { 1 };
    for_each_pooled(threads, order.into_iter(), |j| {
        let (fr, stats) = run_job(&jobs[j], opts, || source(j));
        let mut sink = sink.lock().expect(POISONED);
        fold_stats(&mut sink.1, &stats);
        (sink.0)(j, fr);
    });
    let mut stats = sink.into_inner().expect(POISONED).1;
    stats.modules = jobs.len();
    stats.peak_resident_modules = jobs.len();
    stats.peak_resident_insts = jobs.iter().map(|j| j.module.total_insts() as u64).sum();
    stats
}

/// Runs one job on the calling thread from an empty seed and wraps its
/// placements in [`PipelineResult`]s that share `source()`.
fn run_job(
    job: &FleetJob,
    opts: &FleetOptions,
    source: impl FnOnce() -> Arc<Module>,
) -> (FleetResult, FleetStats) {
    let (placed, stats) = run_seeded(job, &mut Seed::default(), opts);
    let results = if placed.placements.is_empty() {
        Vec::new()
    } else {
        let module = source();
        placed
            .placements
            .into_iter()
            .map(|p| PipelineResult::new(Arc::clone(&module), p.points, p.report))
            .collect()
    };
    let result = FleetResult {
        name: job.name.clone(),
        outcome: placed.outcome,
        results,
        certifications: placed.certifications,
    };
    (result, stats)
}

/// Every stage unit is isolated, so only a panicking source or sink
/// poisons a lock of the worker loop; [`for_each_pooled`] re-raises the
/// panic.
const POISONED: &str = "the run's source or sink panicked";

/// The host's core count, read once per process: each read of
/// `available_parallelism` queries the OS.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(4, |n| n.get()))
}

/// The worker loop: runs `work` on every item of `items` from the
/// calling thread plus `min(threads, cores) - 1` scoped threads (none
/// when `threads` is 1). Each thread takes the next item under the
/// iterator's lock, which guards nothing else, so reading the next item
/// never stalls another worker. A panic ends its own worker. No worker
/// waits on another, so the others end too (at a poisoned lock, or when
/// the items run out), and the panic re-raises on the caller once every
/// thread has joined.
fn for_each_pooled<T>(
    threads: usize,
    items: impl Iterator<Item = T> + Send,
    work: impl Fn(T) + Sync,
) {
    let items = Mutex::new(items.fuse());
    let worker = || loop {
        let Some(item) = items.lock().expect(POISONED).next() else {
            break;
        };
        work(item);
    };
    std::thread::scope(|s| {
        for _ in 1..threads.clamp(1, cores()) {
            s.spawn(worker);
        }
        worker();
    });
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

/// The stage executor. Runs one job's stage sequence on the calling
/// thread, taking from its [`Seed`] whatever is already done: units run
/// only for what the seed lacks, while every stage boundary charges the
/// plan of the *full* request.
pub(crate) fn run_seeded(
    job: &FleetJob,
    seed: &mut Seed,
    opts: &FleetOptions,
) -> (Placed, FleetStats) {
    let (module, n) = (job.module, job.module.funcs.len());
    let mut ledger = Ledger::new(
        &job.name,
        charge_plan(module, &job.configs, opts),
        opts.budget,
    );
    let mut stats = FleetStats {
        modules: 1,
        configs: job.configs.len(),
        peak_resident_modules: 1,
        peak_resident_insts: module.total_insts() as u64,
        ..FleetStats::default()
    };
    // The configs still needing a result, in config order, and whether
    // any needs the analysis stack (the batch contract: all-`Manual` or
    // empty config lists skip the analysis).
    let todo: Vec<usize> = (0..job.configs.len())
        .filter(|&c| !seed.cached.get(c).copied().unwrap_or(false))
        .collect();
    let needs = todo
        .iter()
        .any(|&c| job.configs[c].variant != Variant::Manual);

    // ---- validation gate: hands on the `Cfg` of each function ----
    let mut cfgs = Vec::new();
    if !job.configs.is_empty() && !seed.validated {
        match ledger.unit(FleetStage::Validate, || validate(&job.name, module)) {
            Some(Ok(built)) => cfgs = built,
            Some(Err(errors)) => ledger.quarantine(ModuleOutcome::InvalidIr { errors }),
            None => {}
        }
    }
    ledger.boundary(FleetStage::Validate);

    // ---- the analysis, then one substrate per function ----
    // Both depend only on the IR, so a module whose analysis panics or
    // trips its deadline still builds its substrates, which a seed keeps.
    let build = needs && ledger.healthy();
    if build {
        stats.functions = n;
        if seed.analysis.is_none() {
            stats.analyses = 1;
            seed.analysis = ledger.unit(FleetStage::Analysis, || ModuleAnalysis::run(module));
        }
    }
    ledger.boundary(FleetStage::Analysis);
    if build {
        seed.substrates.resize(n, None);
        for (f, slot) in seed.substrates.iter_mut().enumerate() {
            if slot.is_none() {
                stats.substrates += 1;
                *slot = ledger
                    .unit(FleetStage::Substrates, || match cfgs.get(f) {
                        Some(cfg) => FuncSubstrate::from_cfg(cfg),
                        None => FuncSubstrate::new(module.func(FuncId::new(f))),
                    })
                    .map(Arc::new);
            }
        }
    }
    drop(cfgs);
    ledger.boundary(FleetStage::Substrates);
    let seed: &Seed = seed;

    // ---- per-function contexts, then acquires per distinct variant ----
    let analysis = || {
        seed.analysis
            .as_ref()
            .expect("analysis of a healthy module")
    };
    let mut contexts: Vec<Option<FuncContext<'_>>> = Vec::new();
    if needs && ledger.healthy() {
        contexts = (0..n)
            .map(|f| {
                let substrate = seed.substrates[f]
                    .as_deref()
                    .expect("substrate of a healthy module");
                ledger.unit(FleetStage::Contexts, || {
                    FuncContext::build(module, analysis(), substrate, FuncId::new(f))
                })
            })
            .collect();
    }
    ledger.boundary(FleetStage::Contexts);
    let mut acquires: [Vec<Option<AcquireInfo>>; 4] = Default::default();
    if needs && ledger.healthy() {
        for &c in &todo {
            let variant = job.configs[c].variant;
            if variant == Variant::Manual || !acquires[variant.idx()].is_empty() {
                continue;
            }
            acquires[variant.idx()] = contexts
                .iter()
                .map(|ctx| {
                    let ctx = ctx.as_ref().expect("context of a healthy module");
                    ledger.unit(FleetStage::Acquires, || {
                        ctx.acquire_info(module, analysis(), variant)
                    })
                })
                .collect();
        }
    }
    ledger.boundary(FleetStage::Acquires);

    // ---- config tails, collected into one placement per config ----
    // No fences are inserted here: a result builds its instrumented
    // module when asked (`PipelineResult::module`).
    let mut placements = Vec::new();
    if ledger.healthy() {
        for &c in &todo {
            let config = &job.configs[c];
            if config.variant == Variant::Manual {
                placements.push(Placement {
                    points: Vec::new(),
                    report: manual_report(module, config),
                });
                continue;
            }
            let infos = &acquires[config.variant.idx()];
            let mut funcs = Vec::with_capacity(n);
            let mut points = Vec::new();
            for (ctx, info) in contexts.iter().zip(infos) {
                let ctx = ctx.as_ref().expect("context of a healthy module");
                let info = info.as_ref().expect("acquire info of a healthy module");
                let tail = ledger.unit(FleetStage::Tails, || {
                    finish_function(module, analysis(), ctx, info, config)
                });
                if let Some((report, pts)) = tail {
                    funcs.push(report);
                    points.extend(pts);
                }
            }
            placements.push(Placement {
                points,
                report: ModuleReport {
                    module_name: module.name.clone(),
                    variant: config.variant.name().to_string(),
                    funcs,
                },
            });
        }
    }
    ledger.boundary(FleetStage::Tails);

    // ---- (opt-in) post-placement certification, one unit per config ----
    let mut certifications = Vec::new();
    if let Some(copts) = opts.certify.filter(|_| ledger.healthy()) {
        for (&c, p) in todo.iter().zip(&placements) {
            let config = &job.configs[c];
            let report = ledger.unit(FleetStage::Certify, || {
                let instrumented = insert_fences(module, &p.points);
                let class = crate::certify::sync_classification(&instrumented, config.variant);
                crate::certify::certify_module(&instrumented, &class, config.target, &copts)
            });
            certifications.extend(report);
        }
    }
    ledger.boundary(FleetStage::Certify);
    stats.certifications = certifications.len();
    stats.certify_unsound = certifications
        .iter()
        .filter(|r| r.status() == CertifyStatus::Unsound)
        .count();

    // A module quarantined at any stage — certification included — comes
    // back with empty results.
    let outcome = ledger.fail.unwrap_or(ModuleOutcome::Ok);
    if !outcome.is_ok() {
        stats.failed = 1;
        placements.clear();
        certifications.clear();
    }
    let placed = Placed {
        outcome,
        placements,
        certifications,
    };
    (placed, stats)
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
    /// Unparsed textual IR. The worker that takes it parses it as an
    /// isolated [`FleetStage::Ingest`] unit; a text that fails to parse
    /// is quarantined as [`ModuleOutcome::InvalidIr`] without stalling
    /// the window.
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
/// ready modules, file-backed specs as unparsed texts (so the worker
/// that takes one parses it), and loader errors as
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

impl StreamSummary {
    fn of(fr: &FleetResult) -> Self {
        StreamSummary {
            name: fr.name.clone(),
            outcome: fr.outcome.clone(),
        }
    }
}

/// Parses one text as an isolated unit of its own (injected panic
/// point, fault view, parse) and folds the attempt into a module or a
/// quarantine outcome. Normal ingest charges **zero** steps — resident
/// runs never see this stage, and streamed budget outcomes must match
/// resident ones exactly — so only injected costs can trip an ingest
/// deadline. A caught panic wins over a same-stage deadline, as at every
/// stage boundary.
pub(crate) fn ingest(name: &str, text: &str, opts: &FleetOptions) -> Result<Module, ModuleOutcome> {
    let stage = FleetStage::Ingest;
    let parsed = isolated(|| {
        faultinject::panic_point(name, stage);
        fence_ir::parser::parse_module(&faultinject::ingest_view(name, text))
    });
    match parsed {
        Err(message) => Err(ModuleOutcome::Panicked { stage, message }),
        Ok(Err(e)) => Err(ModuleOutcome::InvalidIr {
            errors: vec![format!("parse error: {e}")],
        }),
        Ok(Ok(module)) => match (faultinject::extra_cost(name, stage), opts.budget) {
            (spent, Some(budget)) if spent > budget => Err(ModuleOutcome::DeadlineExceeded {
                stage,
                spent,
                budget,
            }),
            _ => Ok(module),
        },
    }
}

/// Turns one streamed item into its name and module, or the outcome
/// that quarantines it before any stage: a load failure, or an ingest
/// quarantine of a text.
fn admit(item: StreamItem, opts: &FleetOptions) -> (String, Result<Module, ModuleOutcome>) {
    match item {
        StreamItem::Module { name, module } => (name, Ok(module)),
        StreamItem::Text { name, text } => {
            let module = ingest(&name, &text, opts);
            (name, module)
        }
        StreamItem::Failed { name, error } => (name, Err(ModuleOutcome::LoadFailed { error })),
    }
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
/// finishes, and only the O(1)-sized [`StreamSummary`] per item is
/// retained — so with a window a corpus far larger than memory
/// processes at O(window) peak residency
/// ([`FleetStats::peak_resident_modules`]).
///
/// Both modes run the worker loop of [`run_fleet_opts`]: each worker
/// takes the next module, parses it if it is a text, runs all of its
/// stages and delivers the result. [`FleetOptions::window`] decides
/// what "next" means:
///
/// * `None` — every text is parsed first (on the same loop), so the
///   whole stream is resident, and the modules then run largest first
///   by [`Module::total_insts`], ties in admission order, exactly like
///   [`run_fleet_opts`]. Items quarantined before any stage (load
///   failures, texts that do not parse) are delivered first, in
///   admission order.
/// * `Some(w)` — `min(w, cores)` workers (one when sequential) take
///   the items in admission order, so an item is resident only from
///   take to delivery.
///
/// Either way `on_complete` fires in completion order, and every
/// delivery carries its admission index. Quarantine, budget charging and
/// per-module results match [`run_fleet_opts`] bit-for-bit (the
/// fleet≡per-module-batch equivalence is pinned by `tests/fleet.rs`).
///
/// Summaries come back in admission order and the work counters are
/// sums, so sequential and pooled runs return the same summaries and the
/// same [`FleetStats`], except the two residency peaks of a window.
/// Those are measured high-water marks: under a pooled window they
/// follow worker timing and can differ from run to run, while a
/// sequential window always reads one module and the largest module's
/// instruction count.
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
        None => stream_resident(items.into_iter(), configs, opts, on_complete),
        Some(w) => stream_windowed(items.into_iter(), w.max(1), configs, opts, on_complete),
    }
}

/// `window: None`: parse every text on the worker loop, then run the
/// modules largest first through [`run_jobs`]. Each module moves into
/// the `Arc` its results share, so no module is copied.
fn stream_resident<I, F>(
    items: I,
    configs: &[PipelineConfig],
    opts: &FleetOptions,
    mut on_complete: F,
) -> (Vec<StreamSummary>, FleetStats)
where
    I: Iterator<Item = StreamItem> + Send,
    F: FnMut(usize, FleetResult) + Send,
{
    let admitted = Mutex::new(Vec::new());
    let threads = if opts.parallel { usize::MAX } else { 1 };
    for_each_pooled(threads, items.enumerate(), |(index, item)| {
        let (name, module) = admit(item, opts);
        admitted.lock().expect(POISONED).push((index, name, module));
    });
    let mut admitted = admitted.into_inner().expect(POISONED);
    admitted.sort_unstable_by_key(|&(index, ..)| index);

    let mut summaries: Vec<Option<StreamSummary>> = admitted.iter().map(|_| None).collect();
    let mut quarantine_stats = FleetStats::default();
    let mut resident = Vec::new();
    for (index, name, module) in admitted {
        match module {
            Ok(module) => resident.push((index, name, Arc::new(module))),
            Err(outcome) => {
                let (fr, stats) = quarantined(name, outcome, configs.len());
                fold_stats(&mut quarantine_stats, &stats);
                summaries[index] = Some(StreamSummary::of(&fr));
                on_complete(index, fr);
            }
        }
    }
    let jobs: Vec<FleetJob> = resident
        .iter()
        .map(|(_, name, module)| FleetJob::new(name.clone(), module, configs.to_vec()))
        .collect();
    let mut stats = run_jobs(
        &jobs,
        opts,
        |j| Arc::clone(&resident[j].2),
        |j, fr| {
            let index = resident[j].0;
            summaries[index] = Some(StreamSummary::of(&fr));
            on_complete(index, fr);
        },
    );
    fold_stats(&mut stats, &quarantine_stats);
    stats.modules = summaries.len();
    // Every item but a load failure is resident until the run ends.
    stats.peak_resident_modules = summaries
        .iter()
        .flatten()
        .filter(|s| !matches!(s.outcome, ModuleOutcome::LoadFailed { .. }))
        .count();
    let summaries = summaries
        .into_iter()
        .map(|s| s.expect("every item was delivered"))
        .collect();
    (summaries, stats)
}

/// `window: Some(w)`: the worker loop on up to `window` threads (at
/// most one per core; one when sequential), taking items in admission
/// order.
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

    let tally = Mutex::new(Tally {
        summaries: Vec::new(),
        stats: FleetStats::default(),
        resident: (0, 0),
    });
    let sink = Mutex::new(on_complete);
    let threads = if opts.parallel { window } else { 1 };
    for_each_pooled(threads, source.enumerate(), |(index, item)| {
        // A load failure never holds a module.
        let held = usize::from(!matches!(item, StreamItem::Failed { .. }));
        tally.lock().expect(POISONED).hold(held, 0);
        let (name, module) = admit(item, opts);
        let insts = module.as_ref().map_or(0, |m| m.total_insts() as u64);
        tally.lock().expect(POISONED).hold(0, insts);
        let (fr, stats) = match module {
            Ok(module) => {
                // The results share the module itself: it is not copied.
                let module = Arc::new(module);
                let job = FleetJob::new(name, &module, configs.to_vec());
                run_job(&job, opts, || Arc::clone(&module))
            }
            Err(outcome) => quarantined(name, outcome, configs.len()),
        };
        let summary = StreamSummary::of(&fr);
        sink.lock().expect(POISONED)(index, fr);
        let mut t = tally.lock().expect(POISONED);
        t.summaries.push((index, summary));
        fold_stats(&mut t.stats, &stats);
        t.resident.0 -= held;
        t.resident.1 -= insts;
    });

    // Every taken item was delivered, or the worker loop re-raised a panic.
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
                certify: Some(CertifyOptions { max_states: 50_000 }),
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

    /// A run that knows its whole input takes its modules largest first
    /// by `total_insts`, ties in admission order, and still returns its
    /// summaries in admission order.
    #[test]
    fn resident_stream_runs_largest_first() {
        // Every function of a spin module has the same size, so sizes
        // follow the function counts: b and d tie.
        let funcs = [("a", 1), ("b", 3), ("c", 2), ("d", 3), ("e", 4)];
        let items = funcs
            .iter()
            .map(|&(name, n)| StreamItem::Module {
                name: name.to_string(),
                module: spin_module(name, n),
            })
            .collect::<Vec<_>>();
        let configs = vec![PipelineConfig::for_variant(Variant::Control)];
        let opts = FleetOptions {
            parallel: false,
            ..FleetOptions::default()
        };
        let mut delivered = Vec::new();
        let (summaries, _) = run_fleet_streamed(items, &configs, &opts, |i, fr| {
            delivered.push((i, fr.name));
        });
        let want = [(4, "e"), (1, "b"), (3, "d"), (2, "c"), (0, "a")];
        let want: Vec<(usize, String)> = want.iter().map(|&(i, n)| (i, n.to_string())).collect();
        assert_eq!(delivered, want, "largest first, ties in admission order");
        let names: Vec<&str> = summaries.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["a", "b", "c", "d", "e"],
            "summaries in admission order"
        );
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

    #[test]
    fn panic_message_stringifies_non_str_payloads() {
        use std::panic::catch_unwind;
        let payload = catch_unwind(|| std::panic::panic_any(42usize)).unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "non-string panic payload");
        let payload = catch_unwind(|| panic!("unit {} boom", 3)).unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "unit 3 boom");
    }

    /// Every item runs exactly once over borrowed state, and on a
    /// multi-core host on several threads at once: item 0 waits for item
    /// 1, which only another thread can be running.
    #[test]
    fn worker_loop_runs_every_item_once_on_several_threads() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        use std::time::Duration;
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        let (tx, rx) = std::sync::mpsc::channel();
        let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
        let met = AtomicBool::new(false);
        for_each_pooled(8, 0..hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            match i {
                0 if cores() > 1 => {
                    let rx = rx.lock().unwrap();
                    let got = rx.recv_timeout(Duration::from_secs(10));
                    met.store(got.is_ok(), Ordering::Relaxed);
                }
                1 => tx.lock().unwrap().send(()).unwrap(),
                _ => {}
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(
            met.load(Ordering::Relaxed),
            cores() > 1,
            "item 0 met item 1"
        );
    }

    /// One thread is the caller alone: the thread-local build counters
    /// of sequential runs see every build. Item 0 waits for item 1, which
    /// a second thread would take meanwhile.
    #[test]
    fn worker_loop_on_one_thread_runs_on_the_caller() {
        use std::time::Duration;
        let caller = std::thread::current().id();
        let (tx, rx) = std::sync::mpsc::channel();
        let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
        let ran_on = Mutex::new(Vec::new());
        for_each_pooled(1, 0..10, |i| {
            ran_on.lock().unwrap().push(std::thread::current().id());
            match i {
                0 => {
                    let got = rx.lock().unwrap().recv_timeout(Duration::from_millis(250));
                    assert!(got.is_err(), "item 1 ran while item 0 was running");
                }
                1 => tx.lock().unwrap().send(()).unwrap(),
                _ => {}
            }
        });
        let ran_on = ran_on.into_inner().unwrap();
        assert_eq!(ran_on.len(), 10);
        assert!(ran_on.iter().all(|&t| t == caller), "{ran_on:?}");
    }

    /// A panicking item re-raises on the caller once the loop ends, and
    /// the next call runs normally.
    #[test]
    fn worker_loop_reraises_a_panic_and_runs_again() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicUsize, Ordering};
        let result = catch_unwind(AssertUnwindSafe(|| {
            for_each_pooled(4, 0..100, |i| assert_ne!(i, 50, "item 50 fails"))
        }));
        assert!(result.is_err(), "the panic reaches the caller");
        let sum = AtomicUsize::new(0);
        for_each_pooled(4, 0..10, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
    }
}

//! Post-placement certification: bounded model checking of placed fences.
//!
//! Closes the loop on the paper's core claim. The pipeline *places*
//! fences; this module *proves* the placement against the target memory
//! model by driving `memsim::check` over the instrumented module:
//!
//! * **Soundness** — for every race-free thread group, the set of final
//!   outcomes reachable under the relaxed model equals the SC set. The
//!   race gate matters: the paper's theorem only promises SC restoration
//!   for *data-race-free* programs, so groups that race under the
//!   detected sync classification are reported but not required to be
//!   SC-equivalent.
//! * **Minimality** — each placed full fence, when weakened to a
//!   compiler directive (runtime-equivalent to deletion), strictly
//!   enlarges some group's relaxed outcome set. Entry fences (the full
//!   fence placed at the top of a function that contains sync reads)
//!   order the function against its *callers*; whole-module exploration
//!   cannot observe that, so they are reported separately and never
//!   fail certification.
//!
//! Thread groups are all unordered pairs (including self-pairs) of the
//! module's zero-argument, litmus-enumerable functions — the
//! litmus-shaped surface of the module. Functions with parameters,
//! calls, intrinsics, or allocation are listed in
//! [`CertifyReport::skipped`].

use crate::acquire::variant_acquires;
use crate::minimize::TargetModel;
use crate::pipeline::{PipelineResult, Variant};
use fence_analysis::{AliasOracle, ModuleAnalysis};
use fence_ir::{FuncId, Module};
use memsim::check::{self, CheckBudget, CheckError, FenceSite};
use memsim::{
    detect_races, LitmusModel, MemMode, SimConfig, Simulator, SyncClassification, ThreadSpec,
};
use std::collections::BTreeMap;

/// The budget of one certification run.
#[derive(Copy, Clone, Debug)]
pub struct CertifyOptions {
    /// Total distinct-state budget shared by every enumeration pass of
    /// the module (SC + relaxed + per-fence re-explorations, summed over
    /// all thread groups). Exhaustion yields
    /// [`CertifyStatus::Inconclusive`], never a wrong verdict.
    pub max_states: u64,
}

impl Default for CertifyOptions {
    fn default() -> Self {
        CertifyOptions {
            max_states: 400_000,
        }
    }
}

/// Maximum number of thread groups checked per module.
const MAX_GROUPS: usize = 16;

/// Certificate for one thread group (a pair of zero-arg functions).
#[derive(Clone, Debug)]
pub struct GroupCertificate {
    /// Function names, in thread order.
    pub threads: Vec<String>,
    /// Did the group's SC execution come out race-free under the
    /// detected sync classification? (Soundness is only *required* when
    /// it did — the paper's DRF hypothesis.)
    pub race_free: bool,
    /// Relaxed outcome set ⊆ SC outcome set.
    pub sound: bool,
    /// A witness non-SC outcome when unsound.
    pub violation: Option<Vec<i64>>,
}

/// Minimality verdict for one placed full fence, aggregated over every
/// group that exercised it.
#[derive(Clone, Debug)]
pub struct FenceCertificate {
    /// Containing function name.
    pub func: String,
    /// Instruction index of the fence.
    pub inst: usize,
    /// Structural entry fence (first instruction of the entry block) —
    /// placed for callers the litmus view cannot see; exempt from the
    /// minimality gate.
    pub entry: bool,
    /// Weakening this fence enlarged at least one group's relaxed set.
    pub necessary: bool,
}

/// Overall verdict of a certification run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CertifyStatus {
    /// Every race-free group is SC-equivalent and every non-entry fence
    /// is necessary.
    Certified,
    /// Some race-free group reaches a non-SC outcome: the placement
    /// misses a fence (or one was deleted/weakened).
    Unsound,
    /// Sound, but some non-entry full fence is redundant for every
    /// checked group.
    NotMinimal,
    /// The state budget ran out before all groups were checked.
    Inconclusive,
    /// No enumerable zero-arg thread group exists in the module.
    Skipped,
}

impl CertifyStatus {
    /// Stable snake_case tag used in JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            CertifyStatus::Certified => "certified",
            CertifyStatus::Unsound => "unsound",
            CertifyStatus::NotMinimal => "not_minimal",
            CertifyStatus::Inconclusive => "inconclusive",
            CertifyStatus::Skipped => "skipped",
        }
    }
}

/// Everything one certification run produced.
#[derive(Clone, Debug)]
pub struct CertifyReport {
    /// Target model certified against.
    pub target: TargetModel,
    /// One certificate per checked thread group.
    pub groups: Vec<GroupCertificate>,
    /// Per-fence minimality verdicts (full fences in checked functions).
    pub fences: Vec<FenceCertificate>,
    /// Functions (or groups) that could not be checked, with reasons.
    pub skipped: Vec<String>,
    /// Distinct states explored in total.
    pub states: u64,
    /// The state budget ran out before every group was checked.
    pub exhausted: bool,
}

impl CertifyReport {
    /// Collapses the run into a single verdict.
    pub fn status(&self) -> CertifyStatus {
        if self.groups.iter().any(|g| g.race_free && !g.sound) {
            return CertifyStatus::Unsound;
        }
        if self.exhausted {
            return CertifyStatus::Inconclusive;
        }
        if self.groups.is_empty() {
            return CertifyStatus::Skipped;
        }
        if self.fences.iter().any(|f| !f.entry && !f.necessary) {
            return CertifyStatus::NotMinimal;
        }
        CertifyStatus::Certified
    }

    /// First soundness violation, if any: (group index, witness outcome).
    pub fn first_violation(&self) -> Option<(usize, &[i64])> {
        self.groups.iter().enumerate().find_map(|(i, g)| {
            if g.race_free && !g.sound {
                g.violation.as_deref().map(|v| (i, v))
            } else {
                None
            }
        })
    }
}

/// Out-of-order window of the litmus model that stands for
/// [`TargetModel::Weak`].
const WEAK_WINDOW: usize = 4;

fn litmus_model(target: TargetModel) -> LitmusModel {
    match target {
        TargetModel::X86Tso => LitmusModel::Tso,
        TargetModel::Weak => LitmusModel::Weak {
            window: WEAK_WINDOW,
        },
        TargetModel::ScHardware => LitmusModel::Sc,
    }
}

/// Derives the race detector's [`SyncClassification`] from the
/// pipeline's *actual* acquire detection (the satellite the hand-built
/// classifications in `memsim::race` tests stood in for): acquires are
/// the variant's detected sync reads, releases are the conservative
/// escaping-write set. `Manual` has no automatic acquire information and
/// yields releases only.
pub fn sync_classification(module: &Module, variant: Variant) -> SyncClassification {
    let analysis = ModuleAnalysis::run(module);
    let mut class = SyncClassification::new();
    for (fid, _) in module.iter_funcs() {
        if variant != Variant::Manual {
            let oracle = AliasOracle::new(module, &analysis.points_to, fid);
            let info = variant_acquires(module, &analysis.escape, &oracle, fid, variant);
            for iid in info.sync_read_ids() {
                class.add_acquire(fid, iid);
            }
        }
        for iid in analysis.escape.escaping_writes(module, fid) {
            class.add_release(fid, iid);
        }
    }
    class
}

/// One deterministic SC execution of the group, fed to the vector-clock
/// race detector under `class`. `false` when the run faults or exceeds
/// its step limit (e.g. a consumer spinning on a flag nobody sets) —
/// conservatively "not provably race-free", which exempts the group from
/// the soundness requirement rather than inventing one.
fn group_race_free(
    module: &Module,
    threads: &[(FuncId, Vec<i64>)],
    class: &SyncClassification,
    step_limit: u64,
) -> bool {
    let sim = Simulator::with_config(
        module,
        SimConfig {
            mode: MemMode::Sc,
            record_trace: true,
            step_limit,
            ..Default::default()
        },
    );
    let specs: Vec<ThreadSpec> = threads
        .iter()
        .map(|(f, args)| ThreadSpec {
            func: *f,
            args: args.clone(),
        })
        .collect();
    match sim.run(&specs) {
        Ok(r) => detect_races(module, &r.trace, specs.len(), class).is_race_free(),
        Err(_) => false,
    }
}

/// Certifies an instrumented module against `target`.
///
/// `module` must be *post-placement* (fences inserted); `class` is the
/// sync classification used by the race gate — build it with
/// [`sync_classification`] or supply your own.
pub fn certify_module(
    module: &Module,
    class: &SyncClassification,
    target: TargetModel,
    opts: &CertifyOptions,
) -> CertifyReport {
    let model = litmus_model(target);
    let mut skipped = Vec::new();
    let mut eligible: Vec<FuncId> = Vec::new();
    for (fid, func) in module.iter_funcs() {
        if func.num_params != 0 {
            skipped.push(format!(
                "{}: takes {} argument(s)",
                func.name, func.num_params
            ));
            continue;
        }
        if let Err(reason) = memsim::litmus::enumerable(func) {
            skipped.push(format!("{}: {reason}", func.name));
            continue;
        }
        eligible.push(fid);
    }

    let mut groups = Vec::new();
    let mut fence_verdicts: BTreeMap<FenceSite, bool> = BTreeMap::new();
    let mut states: u64 = 0;
    let mut exhausted = false;
    let race_step_limit = opts.max_states.clamp(1_000, 50_000);

    let mut pairs: Vec<(FuncId, FuncId)> = Vec::new();
    for (i, &fi) in eligible.iter().enumerate() {
        for &fj in &eligible[i..] {
            pairs.push((fi, fj));
        }
    }
    if pairs.len() > MAX_GROUPS {
        skipped.push(format!(
            "{} of {} thread groups dropped by max_groups",
            pairs.len() - MAX_GROUPS,
            pairs.len()
        ));
        pairs.truncate(MAX_GROUPS);
    }

    for (fi, fj) in pairs {
        let remaining = opts.max_states.saturating_sub(states);
        if remaining == 0 {
            exhausted = true;
            break;
        }
        let threads = vec![(fi, Vec::new()), (fj, Vec::new())];
        let budget = CheckBudget {
            max_states: remaining,
        };
        match check::check_threads(module, &threads, model, &budget) {
            Ok(res) => {
                states += res.states;
                let race_free = group_race_free(module, &threads, class, race_step_limit);
                groups.push(GroupCertificate {
                    threads: threads
                        .iter()
                        .map(|(f, _)| module.func(*f).name.clone())
                        .collect(),
                    race_free,
                    sound: res.sound(),
                    violation: res.violations().into_iter().next(),
                });
                for v in res.fences {
                    let slot = fence_verdicts.entry(v.site).or_insert(false);
                    *slot |= v.necessary;
                }
            }
            Err(CheckError::BudgetExhausted { states: spent }) => {
                states += spent;
                exhausted = true;
                break;
            }
            Err(CheckError::NotEnumerable { func, reason }) => {
                // Unreachable given the pre-filter, but keep it graceful.
                skipped.push(format!("{func}: {reason}"));
            }
            Err(e @ CheckError::ImageTooLarge { .. }) => {
                // Module-wide: every other group would be refused too.
                skipped.push(format!("{}: {e}", module.name));
                break;
            }
        }
    }

    let fences = fence_verdicts
        .into_iter()
        .map(|(site, necessary)| {
            let func = module.func(site.func);
            FenceCertificate {
                func: func.name.clone(),
                inst: site.inst.index(),
                entry: check::is_entry_fence(func, site.inst),
                necessary,
            }
        })
        .collect();

    CertifyReport {
        target,
        groups,
        fences,
        skipped,
        states,
        exhausted,
    }
}

/// Certifies a pipeline result: builds its instrumented module
/// ([`PipelineResult::module`]) unless it is built already, derives the
/// sync classification for `variant` from it (instruction ids are preserved
/// by fence insertion, and acquire detection ignores fences, so the
/// classification agrees with the pre-placement one) and runs
/// [`certify_module`] against `target`.
pub fn certify(
    result: &PipelineResult,
    variant: Variant,
    target: TargetModel,
    opts: &CertifyOptions,
) -> CertifyReport {
    let module = result.module();
    let class = sync_classification(module, variant);
    certify_module(module, &class, target, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_pipeline, PipelineConfig};
    use fence_ir::builder::{FunctionBuilder, ModuleBuilder};
    use fence_ir::FenceKind;

    /// MP with a branch-shaped consumer so the Control variant detects
    /// the flag read as a sync (control) acquire.
    fn mp_module() -> Module {
        let mut mb = ModuleBuilder::new("mp");
        let data = mb.global("data", 1);
        let flag = mb.global("flag", 1);
        let mut p = FunctionBuilder::new("producer", 0);
        p.store(data, 42i64);
        p.store(flag, 1i64);
        p.ret(None);
        mb.add_func(p.build());
        let mut c = FunctionBuilder::new("consumer", 0);
        let dx_l = c.local("dx");
        let f = c.load(flag);
        c.if_then(f, |c| {
            let d = c.load(data);
            let dx = c.mul(d, 100i64);
            c.write_local(dx_l, dx);
        });
        let dx = c.read_local(dx_l);
        let picked = c.select(f, dx, -1i64);
        c.ret(Some(picked));
        mb.add_func(c.build());
        mb.finish()
    }

    #[test]
    fn placed_mp_is_sound_under_both_targets() {
        let m = mp_module();
        for target in [TargetModel::X86Tso, TargetModel::Weak] {
            let config = PipelineConfig {
                variant: Variant::Control,
                target,
                parallel: false,
            };
            let result = run_pipeline(&m, &config);
            let report = certify(
                &result,
                config.variant,
                config.target,
                &CertifyOptions::default(),
            );
            assert!(!report.groups.is_empty());
            assert!(!report.exhausted);
            for g in &report.groups {
                assert!(g.sound, "group {:?} unsound: {:?}", g.threads, g.violation);
            }
            // Under the no-speculation weak machine, a fence the pipeline
            // places after a control acquire can be redundant (the branch
            // already orders it) — so NotMinimal is acceptable there, but
            // unsoundness never is.
            assert!(
                matches!(
                    report.status(),
                    CertifyStatus::Certified | CertifyStatus::NotMinimal
                ),
                "{target:?}: {report:?}"
            );
        }
    }

    #[test]
    fn weakened_fence_is_caught() {
        let m = mp_module();
        let config = PipelineConfig {
            variant: Variant::Control,
            target: TargetModel::Weak,
            parallel: false,
        };
        let result = run_pipeline(&m, &config);
        // Sabotage: weaken every placed full fence in the producer.
        let mut module = result.module().clone();
        let sites = check::full_fence_sites(
            &module,
            &module.iter_funcs().map(|(f, _)| f).collect::<Vec<_>>(),
        );
        assert!(!sites.is_empty(), "placement put down full fences");
        for site in sites {
            if !check::is_entry_fence(module.func(site.func), site.inst) {
                module = check::weaken_fence(&module, site);
            }
        }
        let class = sync_classification(&module, config.variant);
        let report = certify_module(&module, &class, config.target, &CertifyOptions::default());
        assert_eq!(report.status(), CertifyStatus::Unsound, "{report:?}");
        assert!(report.first_violation().is_some());
    }

    #[test]
    fn module_without_zero_arg_funcs_is_skipped() {
        let mut mb = ModuleBuilder::new("argy");
        let g = mb.global("g", 1);
        let mut fb = FunctionBuilder::new("f", 1);
        let a = fb.load(g);
        fb.ret(Some(a));
        mb.add_func(fb.build());
        let m = mb.finish();
        let class = SyncClassification::new();
        let report = certify_module(&m, &class, TargetModel::X86Tso, &CertifyOptions::default());
        assert_eq!(report.status(), CertifyStatus::Skipped);
        assert_eq!(report.skipped.len(), 1);
    }

    #[test]
    fn budget_exhaustion_is_inconclusive() {
        let m = mp_module();
        let config = PipelineConfig::for_variant(Variant::Control);
        let result = run_pipeline(&m, &config);
        let report = certify(
            &result,
            config.variant,
            config.target,
            &CertifyOptions { max_states: 5 },
        );
        assert_eq!(report.status(), CertifyStatus::Inconclusive);
        assert!(report.exhausted);
    }

    #[test]
    fn manual_fences_get_minimality_verdicts() {
        // Hand-fenced SB: both fences necessary under TSO.
        let mut mb = ModuleBuilder::new("sb");
        let x = mb.global("x", 1);
        let y = mb.global("y", 1);
        let mk = |mb: &mut ModuleBuilder, name: &str, a, b| {
            let mut fb = FunctionBuilder::new(name, 0);
            fb.store(a, 1i64);
            fb.fence(FenceKind::Full);
            let r = fb.load(b);
            fb.ret(Some(r));
            mb.add_func(fb.build())
        };
        mk(&mut mb, "p0", x, y);
        mk(&mut mb, "p1", y, x);
        let m = mb.finish();
        let class = sync_classification(&m, Variant::Manual);
        let report = certify_module(&m, &class, TargetModel::X86Tso, &CertifyOptions::default());
        assert_eq!(report.fences.len(), 2);
        assert!(report.fences.iter().all(|f| f.necessary && !f.entry));
    }
}

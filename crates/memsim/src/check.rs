//! Bounded certifying model checker for placed fences.
//!
//! Builds on [`crate::litmus`]'s exhaustive interleaving enumeration to
//! *certify* a post-placement module against a target memory model:
//!
//! * **Soundness** — the set of reachable final outcomes under the
//!   relaxed model equals the sequentially-consistent set (no SC
//!   violation survives the placed fences).
//! * **Minimality** — for each placed full fence, re-exploring with that
//!   fence weakened to a compiler directive (runtime-equivalent to
//!   deleting it under every hardware model here) strictly enlarges the
//!   reachable outcome set; a fence whose removal changes nothing is
//!   redundant for the threads under test.
//!
//! Exploration is budget-bounded: every distinct state visited across
//! the SC pass, the relaxed pass, and each per-fence re-exploration
//! draws from one shared fuel counter, so the cost of certifying a
//! module is capped deterministically. Every pass runs the one litmus
//! explorer, which applies an invisible-move ample-set reduction
//! (thread-local transitions are executed deterministically instead of
//! branched over) to keep litmus-shaped state spaces small. Explored
//! states share their threads, store buffers and the module's global
//! image (copy-on-write pages behind a shared page table), but each
//! pass builds the image flat once and every move that writes memory
//! copies the page table, so a module whose image exceeds 4,096 words
//! is refused up front ([`CheckError::ImageTooLarge`]) instead of
//! exhausting memory.
//!
//! A pass stores its distinct states in one vector, in discovery order,
//! and frees them when it returns. A state allocates only what the move
//! that made it copied: its table of thread pointers, the thread that
//! moved (whose registers are one buffer), and a store buffer, page
//! table and page when the move writes them. The fuel counts states
//! across passes; their memory does not accumulate.

use crate::layout::Layout;
use crate::litmus::{self, LitmusModel, LitmusOutcome};
use fence_ir::{FenceKind, FuncId, Function, InstId, InstKind, Module};
use std::collections::BTreeSet;
use std::fmt;

/// Largest global image, in words, that [`check_threads`] explores.
/// Each pass builds the image flat once, and every move that writes
/// memory copies the table of pointers to its pages (128 at the cap).
/// The parser accepts global sizes up to `u32::MAX` words, so without a
/// cap one huge global aborts the whole process on an allocation
/// failure. The largest built-in image (Barnes) is 1,290 words.
const MAX_IMAGE_WORDS: u64 = 4_096;

/// State budget for one [`check_threads`] call, shared across the SC
/// pass, the relaxed pass, and every per-fence re-exploration.
#[derive(Copy, Clone, Debug)]
pub struct CheckBudget {
    /// Maximum number of distinct states explored in total.
    pub max_states: u64,
}

impl Default for CheckBudget {
    fn default() -> Self {
        CheckBudget {
            max_states: 1 << 20,
        }
    }
}

/// A full-fence instruction, addressed by function and instruction id.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct FenceSite {
    /// Function containing the fence.
    pub func: FuncId,
    /// The `fence full` instruction.
    pub inst: InstId,
}

/// The minimality verdict for one placed fence.
#[derive(Clone, Debug)]
pub struct FenceVerdict {
    /// Which fence was weakened.
    pub site: FenceSite,
    /// `true` if weakening the fence strictly enlarged the reachable
    /// outcome set — the fence is doing work for these threads.
    pub necessary: bool,
    /// A witness outcome reachable only without the fence, if any.
    pub gained: Option<LitmusOutcome>,
}

/// Result of certifying one thread group.
#[derive(Clone, Debug)]
pub struct CheckResult {
    /// Outcomes reachable under sequential consistency.
    pub sc: BTreeSet<LitmusOutcome>,
    /// Outcomes reachable under the target (relaxed) model.
    pub relaxed: BTreeSet<LitmusOutcome>,
    /// Per-fence minimality verdicts (empty when the target is SC).
    pub fences: Vec<FenceVerdict>,
    /// Distinct states explored, summed over all passes.
    pub states: u64,
}

impl CheckResult {
    /// Soundness: no outcome outside the SC set survives placement.
    pub fn sound(&self) -> bool {
        self.relaxed.is_subset(&self.sc)
    }

    /// Outcomes reachable under the relaxed model but not under SC.
    pub fn violations(&self) -> Vec<LitmusOutcome> {
        self.relaxed.difference(&self.sc).cloned().collect()
    }
}

/// Why a check could not complete.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CheckError {
    /// A thread function cannot be litmus-enumerated.
    NotEnumerable {
        /// Function name.
        func: String,
        /// Human-readable reason (size, calls, allocation...).
        reason: String,
    },
    /// The state budget ran out before exploration finished.
    BudgetExhausted {
        /// States explored before giving up.
        states: u64,
    },
    /// The module's globals are too large to build into one image and
    /// to page in explored states.
    ImageTooLarge {
        /// Words of global memory the module declares.
        words: u64,
        /// The cap they exceed.
        limit: u64,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::NotEnumerable { func, reason } => {
                write!(f, "function {func} not enumerable: {reason}")
            }
            CheckError::BudgetExhausted { states } => {
                write!(f, "state budget exhausted after {states} states")
            }
            CheckError::ImageTooLarge { words, limit } => {
                write!(
                    f,
                    "global image of {words} words exceeds the {limit}-word cap"
                )
            }
        }
    }
}

impl std::error::Error for CheckError {}

/// All `fence full` sites in `funcs` (deduplicated), in deterministic
/// (function, instruction) order.
pub fn full_fence_sites(module: &Module, funcs: &[FuncId]) -> Vec<FenceSite> {
    let mut sites = Vec::new();
    let mut seen: Vec<FuncId> = Vec::new();
    for &f in funcs {
        if seen.contains(&f) {
            continue;
        }
        seen.push(f);
        let func = module.func(f);
        for (iid, inst) in func.iter_insts() {
            if matches!(
                inst.kind,
                InstKind::Fence {
                    kind: FenceKind::Full
                }
            ) {
                sites.push(FenceSite { func: f, inst: iid });
            }
        }
    }
    sites.sort();
    sites
}

/// Returns a copy of `module` with the full fence at `site` weakened to a
/// compiler directive — runtime-equivalent to deleting it under every
/// hardware model ([`litmus`] skips compiler fences), while preserving
/// every instruction id and block index.
pub fn weaken_fence(module: &Module, site: FenceSite) -> Module {
    let mut out = module.clone();
    let func = out.func_mut(site.func);
    let inst = func.inst_mut(site.inst);
    debug_assert!(
        matches!(
            inst.kind,
            InstKind::Fence {
                kind: FenceKind::Full
            }
        ),
        "weaken_fence target is not a full fence"
    );
    inst.kind = InstKind::Fence {
        kind: FenceKind::Compiler,
    };
    out
}

/// Is `func`'s fence at `inst` the structural *entry fence* — the first
/// instruction of the entry block? The placement pass emits one when a
/// function contains synchronization reads, to order it against
/// *callers* the litmus view cannot see; whole-module re-exploration can
/// therefore never prove it necessary and it is reported separately.
pub fn is_entry_fence(func: &Function, inst: InstId) -> bool {
    func.blocks[func.entry.index()].insts.first() == Some(&inst)
}

/// Certifies the thread group `threads` of `module` against `model`.
///
/// Enumerates the SC and relaxed outcome sets, then — for every full
/// fence in the (distinct) thread functions — weakens that fence and
/// re-enumerates under the relaxed model to decide whether it is
/// necessary. All passes draw from the single `budget`. A module whose
/// global image exceeds 4,096 words is refused before anything is
/// allocated.
pub fn check_threads(
    module: &Module,
    threads: &[(FuncId, Vec<i64>)],
    model: LitmusModel,
    budget: &CheckBudget,
) -> Result<CheckResult, CheckError> {
    for (f, _) in threads {
        let func = module.func(*f);
        litmus::enumerable(func).map_err(|reason| CheckError::NotEnumerable {
            func: func.name.clone(),
            reason,
        })?;
    }
    let words = (Layout::of(module).heap_start - Layout::GUARD) as u64;
    if words > MAX_IMAGE_WORDS {
        return Err(CheckError::ImageTooLarge {
            words,
            limit: MAX_IMAGE_WORDS,
        });
    }
    let mut fuel = budget.max_states;
    let spent = |fuel: u64| budget.max_states - fuel;
    let sc = litmus::enumerate_bounded(module, threads, LitmusModel::Sc, &mut fuel).ok_or(
        CheckError::BudgetExhausted {
            states: budget.max_states,
        },
    )?;
    let relaxed = if model == LitmusModel::Sc {
        sc.clone()
    } else {
        litmus::enumerate_bounded(module, threads, model, &mut fuel).ok_or(
            CheckError::BudgetExhausted {
                states: budget.max_states,
            },
        )?
    };
    let mut fences = Vec::new();
    if model != LitmusModel::Sc {
        let funcs: Vec<FuncId> = threads.iter().map(|(f, _)| *f).collect();
        for site in full_fence_sites(module, &funcs) {
            let weakened = weaken_fence(module, site);
            let set = litmus::enumerate_bounded(&weakened, threads, model, &mut fuel).ok_or(
                CheckError::BudgetExhausted {
                    states: budget.max_states,
                },
            )?;
            let gained = set.difference(&relaxed).next().cloned();
            fences.push(FenceVerdict {
                site,
                necessary: gained.is_some(),
                gained,
            });
        }
    }
    Ok(CheckResult {
        sc,
        relaxed,
        fences,
        states: spent(fuel),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fence_ir::builder::{FunctionBuilder, ModuleBuilder};

    /// Fenced SB: x=1; fence; r=y || y=1; fence; r=x.
    fn fenced_sb() -> (Module, Vec<(FuncId, Vec<i64>)>) {
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
        let p0 = mk(&mut mb, "p0", x, y);
        let p1 = mk(&mut mb, "p1", y, x);
        (mb.finish(), vec![(p0, vec![]), (p1, vec![])])
    }

    #[test]
    fn fenced_sb_is_sound_and_minimal_under_tso() {
        let (m, t) = fenced_sb();
        let res = check_threads(&m, &t, LitmusModel::Tso, &CheckBudget::default()).unwrap();
        assert!(res.sound(), "fenced SB is SC-equivalent: {:?}", res.relaxed);
        assert_eq!(res.fences.len(), 2);
        for v in &res.fences {
            assert!(v.necessary, "each SB fence is necessary: {v:?}");
            assert_eq!(v.gained.as_deref(), Some(&[0i64, 0][..]));
        }
        assert!(res.states > 0);
    }

    #[test]
    fn unfenced_sb_is_unsound_under_tso() {
        let (m, t) = fenced_sb();
        let sites = full_fence_sites(&m, &[t[0].0, t[1].0]);
        let weak_one = weaken_fence(&m, sites[0]);
        let res = check_threads(&weak_one, &t, LitmusModel::Tso, &CheckBudget::default()).unwrap();
        assert!(!res.sound(), "half-fenced SB leaks the 0,0 outcome");
        assert_eq!(res.violations(), vec![vec![0, 0]]);
    }

    #[test]
    fn redundant_fence_is_flagged() {
        // Single-threaded program with a pointless fence: nothing to
        // reorder against, so weakening it changes no outcome.
        let mut mb = ModuleBuilder::new("solo");
        let x = mb.global("x", 1);
        let mut fb = FunctionBuilder::new("solo", 0);
        fb.store(x, 3i64);
        fb.fence(FenceKind::Full);
        let r = fb.load(x);
        fb.ret(Some(r));
        let f = mb.add_func(fb.build());
        let m = mb.finish();
        let res = check_threads(
            &m,
            &[(f, vec![]), (f, vec![])],
            LitmusModel::Tso,
            &CheckBudget::default(),
        )
        .unwrap();
        assert!(res.sound());
        assert_eq!(res.fences.len(), 1);
        assert!(!res.fences[0].necessary, "same-address fence is redundant");
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let (m, t) = fenced_sb();
        let err = check_threads(&m, &t, LitmusModel::Tso, &CheckBudget { max_states: 3 })
            .expect_err("3 states cannot cover SB");
        assert!(matches!(err, CheckError::BudgetExhausted { .. }));
    }

    #[test]
    fn non_enumerable_functions_are_rejected() {
        let mut mb = ModuleBuilder::new("alloc");
        let mut fb = FunctionBuilder::new("a", 0);
        let p = fb.alloc(1i64);
        let r = fb.load(p);
        fb.ret(Some(r));
        let f = mb.add_func(fb.build());
        let m = mb.finish();
        let err = check_threads(
            &m,
            &[(f, vec![])],
            LitmusModel::Tso,
            &CheckBudget::default(),
        )
        .expect_err("alloc is not enumerable");
        assert!(matches!(err, CheckError::NotEnumerable { .. }));
    }

    #[test]
    fn oversized_image_is_refused_before_allocating() {
        let mut mb = ModuleBuilder::new("big");
        let x = mb.global("x", 1);
        mb.global("g", u32::MAX);
        let mut fb = FunctionBuilder::new("p", 0);
        fb.store(x, 1i64);
        let r = fb.load(x);
        fb.ret(Some(r));
        let f = mb.add_func(fb.build());
        let m = mb.finish();
        let err = check_threads(
            &m,
            &[(f, vec![]), (f, vec![])],
            LitmusModel::Tso,
            &CheckBudget::default(),
        )
        .expect_err("a 32 GiB image is refused");
        assert_eq!(
            err,
            CheckError::ImageTooLarge {
                words: 1 + u32::MAX as u64,
                limit: MAX_IMAGE_WORDS
            }
        );
    }
}

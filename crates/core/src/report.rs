//! Per-function and per-module statistics collected by the pipeline —
//! the raw numbers behind Figures 7, 8 and 9 of the paper — plus the
//! fleet's structured failure reporting ([`FleetStage`],
//! [`ModuleOutcome`]): when a module is quarantined mid-run, its report
//! slot carries *which stage* failed and *how* instead of a panic
//! unwinding through the whole fleet.

use std::fmt;

/// The fleet pipeline stages, in execution order — the granularity at
/// which failures are attributed, deadlines are charged, and faults are
/// injected (`fenceplace::faultinject`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum FleetStage {
    /// Streamed-corpus ingestion: reading a module's text and parsing it
    /// into IR. Only the streamed scheduler (`fleet::run_fleet_streamed`)
    /// runs this stage; resident runs receive already-built modules.
    Ingest,
    /// Pre-analysis IR well-formedness gate (`fence_ir::verify_module`).
    Validate,
    /// Module-wide analysis (`ModuleAnalysis`: points-to + escape).
    Analysis,
    /// Per-function CFG + reachability substrate builds.
    Substrates,
    /// Per-function context builds (alias oracle, orderings).
    Contexts,
    /// Per-(variant, function) acquire detection.
    Acquires,
    /// Per-(config, function) pruning + minimization + insertion tails.
    Tails,
    /// Opt-in per-(config, module) post-placement certification
    /// (`fenceplace::certify`): bounded model checking of the placed
    /// fences against the target memory model.
    Certify,
}

impl FleetStage {
    /// Every stage, in execution order.
    pub const ALL: [FleetStage; 8] = [
        FleetStage::Ingest,
        FleetStage::Validate,
        FleetStage::Analysis,
        FleetStage::Substrates,
        FleetStage::Contexts,
        FleetStage::Acquires,
        FleetStage::Tails,
        FleetStage::Certify,
    ];

    /// Stable snake_case name used in JSON reports and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            FleetStage::Ingest => "ingest",
            FleetStage::Validate => "validate",
            FleetStage::Analysis => "analysis",
            FleetStage::Substrates => "substrates",
            FleetStage::Contexts => "contexts",
            FleetStage::Acquires => "acquires",
            FleetStage::Tails => "tails",
            FleetStage::Certify => "certify",
        }
    }
}

impl fmt::Display for FleetStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Terminal status of one module in a fleet run. Anything but
/// [`ModuleOutcome::Ok`] means the module was quarantined: every later
/// stage skipped its work units, its `results` are empty, and the other
/// modules' outputs are bit-identical to a run without it failing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModuleOutcome {
    /// Every stage completed; results are present and pinned.
    Ok,
    /// The pre-analysis validation gate rejected the module's IR.
    InvalidIr {
        /// Verifier diagnostics (capped; see `fleet::MAX_IR_DIAGNOSTICS`).
        errors: Vec<String>,
    },
    /// A work unit of the module panicked; the panic was caught per-unit
    /// and converted into this status instead of aborting the fleet.
    Panicked {
        /// Stage the panicking unit belonged to.
        stage: FleetStage,
        /// Stringified panic payload.
        message: String,
    },
    /// The module's deterministic step budget ran out at a stage
    /// boundary (instruction-count based, never wall-clock, so
    /// sequential and pooled runs agree exactly).
    DeadlineExceeded {
        /// Stage whose charge exhausted the budget.
        stage: FleetStage,
        /// Steps spent when the deadline tripped.
        spent: u64,
        /// The configured budget.
        budget: u64,
    },
    /// The streamed loader could not produce the module at all
    /// (unreadable file, broken pack stream) — the fleet never saw IR or
    /// text, so no stage is attributed. Load failures quarantine one
    /// stream item without stalling the admission window.
    LoadFailed {
        /// The loader's error, verbatim.
        error: String,
    },
}

impl ModuleOutcome {
    /// `true` for [`ModuleOutcome::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, ModuleOutcome::Ok)
    }

    /// Stable snake_case status tag used in JSON reports.
    pub fn kind(&self) -> &'static str {
        match self {
            ModuleOutcome::Ok => "ok",
            ModuleOutcome::InvalidIr { .. } => "invalid_ir",
            ModuleOutcome::Panicked { .. } => "panicked",
            ModuleOutcome::DeadlineExceeded { .. } => "deadline_exceeded",
            ModuleOutcome::LoadFailed { .. } => "load_failed",
        }
    }

    /// The stage the failure is attributed to (`None` for `Ok` and for
    /// load failures, which precede every stage; validation failures
    /// report [`FleetStage::Validate`]).
    pub fn stage(&self) -> Option<FleetStage> {
        match self {
            ModuleOutcome::Ok | ModuleOutcome::LoadFailed { .. } => None,
            ModuleOutcome::InvalidIr { .. } => Some(FleetStage::Validate),
            ModuleOutcome::Panicked { stage, .. }
            | ModuleOutcome::DeadlineExceeded { stage, .. } => Some(*stage),
        }
    }
}

impl fmt::Display for ModuleOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModuleOutcome::Ok => write!(f, "ok"),
            ModuleOutcome::InvalidIr { errors } => {
                write!(f, "invalid IR ({} diagnostic(s))", errors.len())?;
                if let Some(first) = errors.first() {
                    write!(f, ": {first}")?;
                }
                Ok(())
            }
            ModuleOutcome::Panicked { stage, message } => {
                write!(f, "panicked at {stage}: {message}")
            }
            ModuleOutcome::DeadlineExceeded {
                stage,
                spent,
                budget,
            } => write!(
                f,
                "deadline exceeded at {stage}: spent {spent} of {budget} steps"
            ),
            ModuleOutcome::LoadFailed { error } => write!(f, "failed to load: {error}"),
        }
    }
}

/// Statistics for one function under one pipeline variant.
#[derive(Clone, Debug, Default)]
pub struct FuncReport {
    /// Function name.
    pub name: String,
    /// Potentially thread-escaping reads (candidate acquires).
    pub escaping_reads: usize,
    /// Potentially thread-escaping writes (conservative releases).
    pub escaping_writes: usize,
    /// Reads the variant marks as sync reads (acquires).
    pub acquires: usize,
    /// Acquires matching the control signature.
    pub control_acquires: usize,
    /// Acquires matching the address signature.
    pub address_acquires: usize,
    /// Acquires matching *only* the address signature.
    pub pure_address_acquires: usize,
    /// Orderings generated, by kind (`[rr, rw, wr, ww]`).
    pub orderings_total: [usize; 4],
    /// Orderings surviving pruning, by kind.
    pub orderings_kept: [usize; 4],
    /// Full fences placed (x86 MFENCE-class).
    pub full_fences: usize,
    /// Compiler directives placed (no runtime presence).
    pub compiler_fences: usize,
}

/// Aggregated statistics for a whole module.
#[derive(Clone, Debug, Default)]
pub struct ModuleReport {
    /// Module name.
    pub module_name: String,
    /// Variant label (e.g. "Control").
    pub variant: String,
    /// One entry per function.
    pub funcs: Vec<FuncReport>,
}

impl ModuleReport {
    /// Sum of escaping reads over all functions.
    pub fn escaping_reads(&self) -> usize {
        self.funcs.iter().map(|f| f.escaping_reads).sum()
    }

    /// Sum of escaping writes.
    pub fn escaping_writes(&self) -> usize {
        self.funcs.iter().map(|f| f.escaping_writes).sum()
    }

    /// Sum of detected acquires.
    pub fn acquires(&self) -> usize {
        self.funcs.iter().map(|f| f.acquires).sum()
    }

    /// Fraction of escaping reads marked acquire (Figure 7's metric).
    pub fn acquire_fraction(&self) -> f64 {
        let er = self.escaping_reads();
        if er == 0 {
            0.0
        } else {
            self.acquires() as f64 / er as f64
        }
    }

    /// Total orderings generated, by kind.
    #[allow(clippy::needless_range_loop)] // k indexes two arrays
    pub fn orderings_total(&self) -> [usize; 4] {
        let mut acc = [0usize; 4];
        for f in &self.funcs {
            for k in 0..4 {
                acc[k] += f.orderings_total[k];
            }
        }
        acc
    }

    /// Total orderings kept after pruning, by kind.
    #[allow(clippy::needless_range_loop)] // k indexes two arrays
    pub fn orderings_kept(&self) -> [usize; 4] {
        let mut acc = [0usize; 4];
        for f in &self.funcs {
            for k in 0..4 {
                acc[k] += f.orderings_kept[k];
            }
        }
        acc
    }

    /// Total orderings generated (all kinds).
    pub fn total_orderings(&self) -> usize {
        self.orderings_total().iter().sum()
    }

    /// Total orderings kept (all kinds).
    pub fn total_kept(&self) -> usize {
        self.orderings_kept().iter().sum()
    }

    /// Full fences placed module-wide.
    pub fn full_fences(&self) -> usize {
        self.funcs.iter().map(|f| f.full_fences).sum()
    }

    /// Compiler directives placed module-wide.
    pub fn compiler_fences(&self) -> usize {
        self.funcs.iter().map(|f| f.compiler_fences).sum()
    }
}

/// Geometric mean helper used for the normalized cross-benchmark summaries
/// ("Geometric mean is used for all normalized results", paper §5).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ModuleReport {
        ModuleReport {
            module_name: "m".into(),
            variant: "Control".into(),
            funcs: vec![
                FuncReport {
                    name: "a".into(),
                    escaping_reads: 4,
                    escaping_writes: 2,
                    acquires: 1,
                    orderings_total: [10, 5, 3, 2],
                    orderings_kept: [2, 5, 1, 2],
                    full_fences: 2,
                    compiler_fences: 3,
                    ..Default::default()
                },
                FuncReport {
                    name: "b".into(),
                    escaping_reads: 6,
                    escaping_writes: 1,
                    acquires: 2,
                    orderings_total: [0, 1, 1, 0],
                    orderings_kept: [0, 1, 0, 0],
                    full_fences: 1,
                    compiler_fences: 0,
                    ..Default::default()
                },
            ],
        }
    }

    #[test]
    fn aggregation() {
        let r = sample();
        assert_eq!(r.escaping_reads(), 10);
        assert_eq!(r.acquires(), 3);
        assert!((r.acquire_fraction() - 0.3).abs() < 1e-12);
        assert_eq!(r.orderings_total(), [10, 6, 4, 2]);
        assert_eq!(r.total_orderings(), 22);
        assert_eq!(r.total_kept(), 11);
        assert_eq!(r.full_fences(), 3);
        assert_eq!(r.compiler_fences(), 3);
    }

    #[test]
    fn outcome_kinds_and_stages() {
        assert!(ModuleOutcome::Ok.is_ok());
        assert_eq!(ModuleOutcome::Ok.kind(), "ok");
        assert_eq!(ModuleOutcome::Ok.stage(), None);
        let inv = ModuleOutcome::InvalidIr {
            errors: vec!["[f] block bb0 is empty".into()],
        };
        assert_eq!(inv.kind(), "invalid_ir");
        assert_eq!(inv.stage(), Some(FleetStage::Validate));
        assert!(inv.to_string().contains("block bb0 is empty"));
        let p = ModuleOutcome::Panicked {
            stage: FleetStage::Analysis,
            message: "boom".into(),
        };
        assert_eq!(p.stage(), Some(FleetStage::Analysis));
        assert!(p.to_string().contains("panicked at analysis: boom"));
        let d = ModuleOutcome::DeadlineExceeded {
            stage: FleetStage::Tails,
            spent: 9,
            budget: 5,
        };
        assert_eq!(d.kind(), "deadline_exceeded");
        assert!(d.to_string().contains("spent 9 of 5"));
        let l = ModuleOutcome::LoadFailed {
            error: "cannot read `x.ir`: gone".into(),
        };
        assert_eq!(l.kind(), "load_failed");
        assert_eq!(l.stage(), None);
        assert!(l.to_string().contains("failed to load: cannot read"));
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = FleetStage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "ingest",
                "validate",
                "analysis",
                "substrates",
                "contexts",
                "acquires",
                "tails",
                "certify"
            ]
        );
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean([5.0]) - 5.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 0.0);
    }
}

//! # fence-bench
//!
//! Shared harness code that regenerates the paper's evaluation — one
//! function per table/figure, used by both the `fig*`/`table2` binaries
//! and the criterion benches. See `EXPERIMENTS.md` at the repository
//! root for paper-vs-measured numbers.

pub mod naive;

use corpus::{Params, Program};
use fenceplace::report::geomean;
use fenceplace::{run_fleet, run_pipeline, FleetJob, PipelineConfig, Variant};
use memsim::{SimConfig, Simulator};

/// One row of Table II.
pub struct Table2Row {
    /// Kernel name.
    pub name: &'static str,
    /// Source citation.
    pub citation: &'static str,
    /// Any address-signature acquires found.
    pub addr: bool,
    /// Any control-signature acquires found.
    pub ctrl: bool,
    /// Any *pure* address acquires found.
    pub pure_addr: bool,
    /// Expected (paper) values.
    pub expect: (bool, bool, bool),
}

/// Runs acquire detection over the nine kernels (Table II) — one fleet
/// over all nine modules, so the per-kernel analyses share the pool
/// instead of running in a hand-rolled loop.
pub fn table2() -> Vec<Table2Row> {
    let kernels = corpus::kernels::all();
    let configs = vec![PipelineConfig::for_variant(Variant::AddressControl)];
    let jobs: Vec<FleetJob<'_>> = kernels
        .iter()
        .map(|k| FleetJob::new(k.name, &k.module, configs.clone()))
        .collect();
    let fleet = run_fleet(&jobs);
    kernels
        .iter()
        .zip(&fleet)
        .map(|(k, fr)| {
            let report = &fr.results[0].report;
            let addr: usize = report.funcs.iter().map(|f| f.address_acquires).sum();
            let ctrl: usize = report.funcs.iter().map(|f| f.control_acquires).sum();
            let pure: usize = report.funcs.iter().map(|f| f.pure_address_acquires).sum();
            Table2Row {
                name: k.name,
                citation: k.citation,
                addr: addr > 0,
                ctrl: ctrl > 0,
                pure_addr: pure > 0,
                expect: (k.expect_addr, k.expect_ctrl, k.expect_pure_addr),
            }
        })
        .collect()
}

/// Per-program static analysis results for Figures 7–9.
pub struct StaticRow {
    /// Program name.
    pub name: &'static str,
    /// Escaping reads (the Figure 7 denominator).
    pub escaping_reads: usize,
    /// Acquires under Address+Control.
    pub acquires_ac: usize,
    /// Acquires under Control.
    pub acquires_ctrl: usize,
    /// Orderings by kind, per variant: `[rr, rw, wr, ww]`.
    pub ords_pensieve: [usize; 4],
    /// Orderings kept under Address+Control.
    pub ords_ac: [usize; 4],
    /// Orderings kept under Control.
    pub ords_ctrl: [usize; 4],
    /// Full fences placed, per variant.
    pub fences_pensieve: usize,
    /// Full fences under Address+Control.
    pub fences_ac: usize,
    /// Full fences under Control.
    pub fences_ctrl: usize,
    /// Hand-placed fences of the expert baseline.
    pub fences_manual: usize,
}

impl StaticRow {
    /// Figure 7 metric: fraction of escaping reads marked acquire.
    pub fn acquire_fraction(&self, variant: Variant) -> f64 {
        let acq = match variant {
            Variant::Control => self.acquires_ctrl,
            Variant::AddressControl => self.acquires_ac,
            Variant::Pensieve => self.escaping_reads,
            Variant::Manual => 0,
        };
        if self.escaping_reads == 0 {
            0.0
        } else {
            acq as f64 / self.escaping_reads as f64
        }
    }

    /// Figure 8 metric: orderings kept as a fraction of Pensieve's.
    pub fn ordering_fraction(&self, variant: Variant) -> f64 {
        let total: usize = self.ords_pensieve.iter().sum();
        let kept: usize = match variant {
            Variant::Control => self.ords_ctrl.iter().sum(),
            Variant::AddressControl => self.ords_ac.iter().sum(),
            Variant::Pensieve => total,
            Variant::Manual => 0,
        };
        if total == 0 {
            0.0
        } else {
            kept as f64 / total as f64
        }
    }

    /// Figure 9 metric: full fences as a fraction of Pensieve's.
    pub fn fence_fraction(&self, variant: Variant) -> f64 {
        let f = match variant {
            Variant::Control => self.fences_ctrl,
            Variant::AddressControl => self.fences_ac,
            Variant::Pensieve => self.fences_pensieve,
            Variant::Manual => self.fences_manual,
        };
        if self.fences_pensieve == 0 {
            0.0
        } else {
            f as f64 / self.fences_pensieve as f64
        }
    }
}

/// Runs the static pipeline (Figures 7, 8, 9) over the whole corpus as
/// **one fleet**: all seventeen programs' per-function work units share
/// the persistent pool, instead of the old per-program batch loop with a
/// stage barrier at every program boundary. Results are bit-identical to
/// the loop (the fleet contract).
pub fn static_rows(p: &Params) -> Vec<StaticRow> {
    let progs = corpus::programs(p);
    let configs = vec![
        PipelineConfig::for_variant(Variant::Pensieve),
        PipelineConfig::for_variant(Variant::AddressControl),
        PipelineConfig::for_variant(Variant::Control),
    ];
    let jobs: Vec<FleetJob<'_>> = progs
        .iter()
        .map(|prog| FleetJob::new(prog.name, &prog.module, configs.clone()))
        .collect();
    let fleet = run_fleet(&jobs);
    progs
        .iter()
        .zip(fleet)
        .map(|(prog, fr)| {
            let mut results = fr.results.into_iter();
            let pens = results.next().expect("pensieve result");
            let ac = results.next().expect("address+control result");
            let ctrl = results.next().expect("control result");
            StaticRow {
                name: prog.name,
                escaping_reads: pens.report.escaping_reads(),
                acquires_ac: ac.report.acquires(),
                acquires_ctrl: ctrl.report.acquires(),
                ords_pensieve: pens.report.orderings_kept(),
                ords_ac: ac.report.orderings_kept(),
                ords_ctrl: ctrl.report.orderings_kept(),
                fences_pensieve: pens.report.full_fences(),
                fences_ac: ac.report.full_fences(),
                fences_ctrl: ctrl.report.full_fences(),
                fences_manual: prog.manual_full_fences,
            }
        })
        .collect()
}

/// One Figure 10 row: simulated cycles per placement, normalized to the
/// expert manual baseline.
pub struct PerfRow {
    /// Program name.
    pub name: &'static str,
    /// Simulated cycles: `[manual, pensieve, address+control, control]`.
    pub cycles: [u64; 4],
    /// Dynamic full fences executed, same order.
    pub dyn_fences: [u64; 4],
}

impl PerfRow {
    /// Execution time normalized against manual placement.
    pub fn normalized(&self) -> [f64; 4] {
        let base = self.cycles[0].max(1) as f64;
        [
            1.0,
            self.cycles[1] as f64 / base,
            self.cycles[2] as f64 / base,
            self.cycles[3] as f64 / base,
        ]
    }
}

/// Runs one program under one placement variant on the TSO simulator.
pub fn simulate_variant(prog: &Program, variant: Variant) -> memsim::SimResult {
    let module = match variant {
        Variant::Manual => prog.manual_module.clone(),
        v => run_pipeline(&prog.module, &PipelineConfig::for_variant(v)).module,
    };
    let sim = Simulator::with_config(&module, SimConfig::default());
    let result = sim
        .run(&prog.threads)
        .unwrap_or_else(|e| panic!("{} under {variant:?}: {e}", prog.name));
    if let Some(check) = prog.check {
        check(&result, &module, &prog.params)
            .unwrap_or_else(|e| panic!("{} under {variant:?}: {e}", prog.name));
    }
    result
}

/// Runs the performance experiment (Figure 10) over the whole corpus.
pub fn perf_rows(p: &Params) -> Vec<PerfRow> {
    corpus::programs(p)
        .iter()
        .map(|prog| {
            let mut cycles = [0u64; 4];
            let mut dyn_fences = [0u64; 4];
            for (i, v) in [
                Variant::Manual,
                Variant::Pensieve,
                Variant::AddressControl,
                Variant::Control,
            ]
            .into_iter()
            .enumerate()
            {
                let r = simulate_variant(prog, v);
                cycles[i] = r.cycles;
                dyn_fences[i] = r.full_fences;
            }
            PerfRow {
                name: prog.name,
                cycles,
                dyn_fences,
            }
        })
        .collect()
}

/// Geometric mean over per-row values.
pub fn summary(values: impl IntoIterator<Item = f64>) -> f64 {
    geomean(values)
}

/// Renders a percentage.
pub fn pct(x: f64) -> String {
    format!("{:5.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper() {
        for row in table2() {
            assert_eq!(
                (row.addr, row.ctrl, row.pure_addr),
                row.expect,
                "{} classification",
                row.name
            );
        }
    }

    #[test]
    fn static_pipeline_shape() {
        let p = Params::tiny();
        let rows = static_rows(&p);
        assert_eq!(rows.len(), 17);
        for r in &rows {
            assert!(
                r.acquires_ctrl <= r.acquires_ac,
                "{}: Control ⊆ A+C",
                r.name
            );
            assert!(
                r.acquires_ac <= r.escaping_reads,
                "{}: A+C ⊆ escaping",
                r.name
            );
            assert!(
                r.fences_ctrl <= r.fences_ac && r.fences_ac <= r.fences_pensieve,
                "{}: fence monotonicity ({} ≤ {} ≤ {})",
                r.name,
                r.fences_ctrl,
                r.fences_ac,
                r.fences_pensieve
            );
        }
        // Average reductions go the right direction.
        let ctrl_frac = summary(rows.iter().map(|r| r.ordering_fraction(Variant::Control)));
        let ac_frac = summary(
            rows.iter()
                .map(|r| r.ordering_fraction(Variant::AddressControl)),
        );
        assert!(ctrl_frac < ac_frac && ac_frac < 1.0);
    }
}

//! Pins the heap a streamed config sweep adds while its reports are
//! rendered.
//!
//! A fleet result carries the fence points and the report of every
//! config. Its instrumented module is built only when asked for, and the
//! results of one module share that module instead of holding one fenced
//! copy per config. The sweep is the `config_sweep` shape: the nine
//! automatic configs plus `Manual:x86tso` over the 26 built-in kernels
//! and corpus programs and three synthetic modules, all streamed as
//! texts. The sink renders each report and drops the result, as the
//! CLI does.
//!
//! When every result held its own fenced copy, the sweep added 45.2 MB
//! of peak heap resident and 23.7 MB under a window of two. With modules
//! built on demand it adds 8.9 MB and 4.5 MB.
//!
//! The counting global allocator in `common/` tracks live and peak
//! bytes; the file holds a single test, so nothing else allocates while
//! it measures. The texts are built before the measurement starts, and
//! the fleet runs sequentially.

use corpus::manifest::full_fleet;
use corpus::{synthetic_scaled, Params};
use fence_ir::printer::print_module;
use fenceplace::json::module_json;
use fenceplace::{
    run_fleet_streamed, FleetOptions, PipelineConfig, StreamItem, TargetModel, Variant,
};
use std::sync::atomic::Ordering::Relaxed;

mod common;
use common::{LIVE, PEAK};

/// Peak live heap the resident sweep may add, in bytes.
const RESIDENT_LIMIT: usize = 16_000_000;
/// Peak live heap the sweep may add under `window: Some(2)`, in bytes.
const WINDOWED_LIMIT: usize = 8_000_000;

/// The nine automatic configs plus `Manual:x86tso`.
fn sweep_configs() -> Vec<PipelineConfig> {
    let targets = [
        TargetModel::X86Tso,
        TargetModel::Weak,
        TargetModel::ScHardware,
    ];
    let mut configs: Vec<PipelineConfig> = targets
        .into_iter()
        .flat_map(|target| {
            Variant::automatic().map(|variant| PipelineConfig {
                variant,
                target,
                parallel: false,
            })
        })
        .collect();
    configs.push(PipelineConfig::for_variant(Variant::Manual));
    configs
}

#[test]
fn config_sweep_heap_stays_under_the_pin() {
    let configs = sweep_configs();
    let mut texts: Vec<(String, String)> = full_fleet(&Params::default())
        .into_iter()
        .map(|e| (e.name, print_module(&e.module)))
        .collect();
    for n in [1500, 3000, 6000] {
        texts.push((format!("synthetic:{n}"), print_module(&synthetic_scaled(n))));
    }
    assert_eq!(texts.len(), 29);
    let mb = |b: usize| b as f64 / 1e6;

    for (window, limit) in [(None, RESIDENT_LIMIT), (Some(2), WINDOWED_LIMIT)] {
        let items: Vec<StreamItem> = texts
            .iter()
            .map(|(name, text)| StreamItem::Text {
                name: name.clone(),
                text: text.clone(),
            })
            .collect();
        let opts = FleetOptions {
            parallel: false,
            window,
            ..FleetOptions::default()
        };
        let before = LIVE.load(Relaxed);
        PEAK.store(before, Relaxed);
        let mut rendered = 0usize;
        let (summaries, stats) = run_fleet_streamed(items, &configs, &opts, |_, fr| {
            assert_eq!(fr.results.len(), configs.len(), "{}", fr.name);
            rendered += module_json(&fr.name, &configs, &fr).len();
        });
        let peak = PEAK.load(Relaxed).saturating_sub(before);

        assert_eq!(summaries.len(), 29);
        assert_eq!(stats.failed, 0, "window {window:?}");
        assert!(rendered > 0);
        assert!(
            peak < limit,
            "the sweep (window {window:?}) peaked at {:.2} MB of added live heap, \
             over the {:.0} MB pin",
            mb(peak),
            mb(limit)
        );
        eprintln!(
            "window {window:?}: peak added heap {:.2} MB (pin {:.0} MB)",
            mb(peak),
            mb(limit)
        );
    }
}

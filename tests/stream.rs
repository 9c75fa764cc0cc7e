//! Streamed-ingestion differential over the full evaluation fleet.
//!
//! The streaming contract ([`run_fleet_streamed`]): per-module results
//! are identical to the resident scheduler's for every admission window
//! — `window: None` bit-identical by construction (same scheduler
//! underneath), `window: Some(w)` bit-identical per module via the
//! fleet≡per-module-batch equivalence — while peak residency stays
//! bounded by the window. The `dir:`/`pack:` corpus specs round-trip
//! through [`corpus::ModuleSource`] and the [`fenceplace::stream_items`]
//! adapter — the one way every front end loads file-backed specs — into
//! the same results.

use corpus::{ModuleSource, Params};
use fenceplace::stream_items;
use fenceplace::{
    run_fleet_opts, run_fleet_streamed, FleetJob, FleetOptions, FleetResult, PipelineConfig,
    StreamItem, TargetModel, Variant,
};
use std::path::PathBuf;

fn sweep_configs() -> Vec<PipelineConfig> {
    vec![
        PipelineConfig {
            variant: Variant::Control,
            target: TargetModel::X86Tso,
            parallel: false,
        },
        PipelineConfig {
            variant: Variant::Pensieve,
            target: TargetModel::Weak,
            parallel: false,
        },
    ]
}

/// The full fleet as (name, printed text) pairs. Streamed texts
/// round-trip through the printer and parser, which renumbers
/// instruction ids densely — so the resident baseline must run on the
/// *parsed* form of the same text, not the builder-built module.
fn fleet_texts() -> Vec<(String, String)> {
    corpus::manifest::full_fleet(&Params::tiny())
        .iter()
        .map(|e| (e.name.clone(), fence_ir::printer::print_module(&e.module)))
        .collect()
}

/// Resident baseline over parsed texts: parse everything up front, run
/// the exact resident fleet scheduler.
fn resident_baseline(
    texts: &[(String, String)],
    configs: &[PipelineConfig],
    parallel: bool,
) -> Vec<FleetResult> {
    let modules: Vec<(String, fence_ir::Module)> = texts
        .iter()
        .map(|(name, text)| {
            (
                name.clone(),
                fence_ir::parser::parse_module(text).expect("printed fleet text parses"),
            )
        })
        .collect();
    let jobs: Vec<FleetJob<'_>> = modules
        .iter()
        .map(|(name, m)| FleetJob::new(name.clone(), m, configs.to_vec()))
        .collect();
    let opts = FleetOptions {
        parallel,
        ..FleetOptions::default()
    };
    let (fleet, _) = run_fleet_opts(&jobs, &opts);
    fleet
}

fn assert_same_results(tag: &str, got: &FleetResult, want: &FleetResult) {
    assert_eq!(got.name, want.name, "{tag}: name");
    assert_eq!(
        format!("{:?}", got.outcome),
        format!("{:?}", want.outcome),
        "{tag}: outcome"
    );
    assert_eq!(got.results.len(), want.results.len(), "{tag}: result count");
    for (g, w) in got.results.iter().zip(&want.results) {
        assert_eq!(g.points, w.points, "{tag}: fence points diverge");
        assert_eq!(
            format!("{:?}", g.report),
            format!("{:?}", w.report),
            "{tag}: report diverges"
        );
    }
}

/// Runs items through the streamed scheduler, collecting deliveries by
/// admission index (the pooled windowed scheduler may deliver out of
/// order).
fn stream_collect(
    items: Vec<StreamItem>,
    configs: &[PipelineConfig],
    opts: &FleetOptions,
) -> (Vec<FleetResult>, fenceplace::FleetStats) {
    let n = items.len();
    let mut slots: Vec<Option<FleetResult>> = (0..n).map(|_| None).collect();
    let (summaries, stats) = run_fleet_streamed(items, configs, opts, |i, fr| {
        assert!(slots[i].is_none(), "slot {i} delivered twice");
        slots[i] = Some(fr);
    });
    assert_eq!(summaries.len(), n, "one summary per item");
    let results: Vec<FleetResult> = slots
        .into_iter()
        .map(|s| s.expect("every slot delivered"))
        .collect();
    for (s, fr) in summaries.iter().zip(&results) {
        assert_eq!(s.name, fr.name, "summary order mirrors admission order");
    }
    (results, stats)
}

/// The core differential: every window (including `None`) × scheduling
/// mode reproduces the resident run over the full 26-module fleet, and
/// the windowed runs pin peak residency at or below the window.
#[test]
fn streamed_fleet_matches_resident_for_every_window() {
    let texts = fleet_texts();
    assert_eq!(texts.len(), 26, "the full evaluation fleet");
    let configs = sweep_configs();

    for parallel in [false, true] {
        let baseline = resident_baseline(&texts, &configs, parallel);
        for window in [None, Some(1), Some(3)] {
            let opts = FleetOptions {
                parallel,
                window,
                ..FleetOptions::default()
            };
            let items: Vec<StreamItem> = texts
                .iter()
                .map(|(name, text)| StreamItem::Text {
                    name: name.clone(),
                    text: text.clone(),
                })
                .collect();
            let (results, stats) = stream_collect(items, &configs, &opts);
            assert_eq!(results.len(), baseline.len());
            assert_eq!(stats.modules, baseline.len());
            assert_eq!(stats.failed, 0);
            for (got, want) in results.iter().zip(&baseline) {
                let tag = format!("{} (window={window:?}, par={parallel})", want.name);
                assert_same_results(&tag, got, want);
            }
            match window {
                // Residency bounded by the window: the O(window) peak
                // memory claim, pinned on the counter.
                Some(w) => assert!(
                    stats.peak_resident_modules <= w,
                    "peak {} > window {w}",
                    stats.peak_resident_modules
                ),
                // window: None materializes the whole stream.
                None => assert_eq!(stats.peak_resident_modules, texts.len()),
            }
            assert!(stats.peak_resident_insts > 0);
        }
    }
}

/// A fresh per-test scratch directory under the target tmpdir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fenceplace-stream-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `dir:` and `pack:` specs stream through [`ModuleSource`] and the
/// fleet's adapter into the same placements as a resident run over the
/// same texts, with load failures quarantined in place.
#[test]
fn dir_and_pack_specs_round_trip_through_the_adapter() {
    let texts: Vec<(String, String)> = fleet_texts().into_iter().take(6).collect();
    let configs = sweep_configs();
    let dir = scratch("roundtrip");

    // First half as one-module-per-file in a directory, second half
    // concatenated into a pack.
    let mod_dir = dir.join("mods");
    std::fs::create_dir_all(&mod_dir).unwrap();
    let mut expected_names = Vec::new();
    for (i, (_, text)) in texts.iter().take(3).enumerate() {
        let path = mod_dir.join(format!("m{i}.ir"));
        std::fs::write(&path, text).unwrap();
        expected_names.push(format!("file:{}", path.display()));
    }
    let pack_path = dir.join("corpus.pack");
    let mut pack = String::new();
    for (_, text) in texts.iter().skip(3) {
        pack.push_str(text);
    }
    std::fs::write(&pack_path, &pack).unwrap();
    for k in 0..3 {
        expected_names.push(format!("pack:{}#{k}", pack_path.display()));
    }

    let mut source = ModuleSource::new(Params::tiny());
    source
        .push_spec(&format!("dir:{}", mod_dir.display()))
        .unwrap();
    source
        .push_spec(&format!("pack:{}", pack_path.display()))
        .unwrap();

    let opts = FleetOptions {
        parallel: true,
        window: Some(2),
        ..FleetOptions::default()
    };
    let items: Vec<StreamItem> = stream_items(source).collect();
    let (results, stats) = stream_collect(items, &configs, &opts);
    assert_eq!(results.len(), 6);
    assert_eq!(stats.failed, 0);
    assert!(stats.peak_resident_modules <= 2);

    // Same texts, resident, with the pseudo-spec names the source used.
    let renamed: Vec<(String, String)> = expected_names
        .iter()
        .cloned()
        .zip(texts.iter().map(|(_, t)| t.clone()))
        .collect();
    let baseline = resident_baseline(&renamed, &configs, false);
    for (got, want) in results.iter().zip(&baseline) {
        assert_same_results(&format!("{} via dir/pack", want.name), got, want);
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Mid-stream failures quarantine without stalling admission: an
/// unreadable file and an unparsable text each take one `load_failed` /
/// `invalid_ir` slot while every healthy module completes.
#[test]
fn mid_stream_failures_do_not_stall_the_window() {
    let texts: Vec<(String, String)> = fleet_texts().into_iter().take(3).collect();
    let configs = sweep_configs();

    let items: Vec<StreamItem> = vec![
        StreamItem::Text {
            name: texts[0].0.clone(),
            text: texts[0].1.clone(),
        },
        StreamItem::Failed {
            name: "file:/no/such/module.ir".into(),
            error: "cannot read file:/no/such/module.ir".into(),
        },
        StreamItem::Text {
            name: "garbage".into(),
            text: "this is not IR at all\n".into(),
        },
        StreamItem::Text {
            name: texts[1].0.clone(),
            text: texts[1].1.clone(),
        },
        StreamItem::Text {
            name: texts[2].0.clone(),
            text: texts[2].1.clone(),
        },
    ];

    let opts = FleetOptions {
        parallel: true,
        window: Some(2),
        ..FleetOptions::default()
    };
    let (results, stats) = stream_collect(items, &configs, &opts);
    assert_eq!(stats.modules, 5);
    assert_eq!(stats.failed, 2);
    assert_eq!(results[1].outcome.kind(), "load_failed");
    assert_eq!(results[2].outcome.kind(), "invalid_ir");
    assert!(
        results[2].outcome.to_string().contains("parse error"),
        "{:?}",
        results[2].outcome
    );

    let baseline = resident_baseline(&texts, &configs, false);
    for (got, want) in [&results[0], &results[3], &results[4]]
        .into_iter()
        .zip(&baseline)
    {
        assert_same_results(&format!("{} with sick neighbors", want.name), got, want);
    }
}

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
use fence_ir::{BlockId, Function, Inst, InstId, InstKind, Module};
use fenceplace::stream_items;
use fenceplace::{
    run_fleet_opts, run_fleet_streamed, FleetJob, FleetOptions, FleetResult, FleetStats,
    PipelineConfig, StreamItem, StreamSummary, TargetModel, Variant,
};
use std::path::PathBuf;
use std::time::Duration;

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
) -> (Vec<StreamSummary>, Vec<FleetResult>, FleetStats) {
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
    (summaries, results, stats)
}

/// The core differential: every window (including `None`) × scheduling
/// mode reproduces the resident run over the full 26-module fleet, and
/// the windowed runs pin peak residency at or below the window. Pooled
/// and sequential runs return the same summaries and the same stats,
/// except the two residency peaks: those are measured high-water marks,
/// and a pooled window's follow worker timing. A sequential window holds
/// one module at a time, so its peaks are exact. A sequential run, which
/// runs every unit on this thread where the build counters count, builds
/// one `Cfg` per function (the validation gate's, which the substrate
/// reuses) and one `Reachability`.
#[test]
fn streamed_fleet_matches_resident_for_every_window() {
    let texts = fleet_texts();
    assert_eq!(texts.len(), 26, "the full evaluation fleet");
    let configs = sweep_configs();
    let largest = texts
        .iter()
        .map(|(_, text)| fence_ir::parser::parse_module(text).unwrap().total_insts() as u64)
        .max()
        .unwrap();
    // Per window, the sequential run's summaries and peak-free stats.
    let mut sequential: Vec<(String, String)> = Vec::new();

    for parallel in [false, true] {
        let baseline = resident_baseline(&texts, &configs, parallel);
        for (k, window) in [None, Some(1), Some(3)].into_iter().enumerate() {
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
            let cfgs = fence_ir::cfg::cfg_builds();
            let reaches = fence_ir::cfg::reachability_builds();
            let (summaries, results, stats) = stream_collect(items, &configs, &opts);
            if !parallel {
                let tag = format!("window={window:?}, seq");
                assert_eq!(fence_ir::cfg::cfg_builds() - cfgs, stats.functions, "{tag}");
                assert_eq!(
                    fence_ir::cfg::reachability_builds() - reaches,
                    stats.functions,
                    "{tag}"
                );
            }
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
            if window.is_some() && !parallel {
                assert_eq!(stats.peak_resident_modules, 1, "window={window:?}, seq");
                assert_eq!(stats.peak_resident_insts, largest, "window={window:?}, seq");
            }
            let run = (
                format!("{summaries:?}"),
                format!(
                    "{:?}",
                    FleetStats {
                        peak_resident_modules: 0,
                        peak_resident_insts: 0,
                        ..stats
                    }
                ),
            );
            if parallel {
                assert_eq!(
                    run, sequential[k],
                    "window={window:?}: pooled summaries or stats differ from sequential"
                );
            } else {
                sequential.push(run);
            }
        }
    }
}

/// A pooled window hands a panic in the caller's sink, the one part of a
/// streamed run that is not unit-isolated, to the caller. The sink
/// panics on the first module, which the validation gate quarantines,
/// and four healthy modules follow; the call must unwind within 20 s
/// instead of leaving the other workers waiting. It runs on a helper
/// thread, so a hang fails this test instead of stalling the suite.
#[test]
fn pooled_window_propagates_an_unisolated_panic() {
    // Block 0 branches to block 9, which does not exist: the verifier
    // refuses it, and the sink refuses the quarantined result.
    let mut boom = Function::new("boom", 0);
    boom.insts.push(Inst {
        kind: InstKind::Br {
            target: BlockId::new(9),
        },
    });
    boom.blocks[0].insts.push(InstId::new(0));
    let mut broken = Module::new("broken");
    broken.funcs.push(boom);
    let mut items = vec![StreamItem::Module {
        name: "broken".into(),
        module: broken,
    }];
    items.extend(
        corpus::manifest::full_fleet(&Params::tiny())
            .into_iter()
            .take(4)
            .map(|e| StreamItem::Module {
                name: e.name,
                module: e.module,
            }),
    );
    let opts = FleetOptions {
        parallel: true,
        window: Some(2),
        ..FleetOptions::default()
    };

    let (tx, rx) = std::sync::mpsc::channel();
    let helper = std::thread::spawn(move || {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_fleet_streamed(items, &sweep_configs(), &opts, |_, fr| {
                assert!(
                    fr.outcome.is_ok(),
                    "sink refuses `{}`: {}",
                    fr.name,
                    fr.outcome
                );
            })
        }));
        let _ = tx.send(run.is_err());
    });
    match rx.recv_timeout(Duration::from_secs(20)) {
        Ok(panicked) => {
            helper.join().expect("the helper catches the run's panic");
            assert!(panicked, "the sink's panic must reach the caller");
        }
        // A hung helper cannot be joined; the test process exits past it.
        Err(_) => panic!("the pooled window still runs 20 s after a worker panicked"),
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
    let (_, results, stats) = stream_collect(items, &configs, &opts);
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

/// Both paths count residency the same way: every item but a load
/// failure holds a module. A `dir:` of two modules and one file that
/// cannot be read as text reads 2 resident modules without a window, 1
/// under a sequential window, and at most 2 under a pooled one.
#[test]
fn load_failures_hold_no_residency_on_either_path() {
    let texts: Vec<(String, String)> = fleet_texts().into_iter().take(2).collect();
    let configs = sweep_configs();
    let dir = scratch("residency");
    std::fs::write(dir.join("a.ir"), &texts[0].1).unwrap();
    // Not UTF-8, so the source cannot read it: one load_failed slot.
    std::fs::write(dir.join("b.ir"), b"module b\n; caf\xff\n").unwrap();
    std::fs::write(dir.join("c.ir"), &texts[1].1).unwrap();

    for (parallel, window, peak) in [
        (false, None, 2),
        (true, None, 2),
        (false, Some(3), 1),
        (true, Some(3), 2),
    ] {
        let mut source = ModuleSource::new(Params::tiny());
        source.push_spec(&format!("dir:{}", dir.display())).unwrap();
        let opts = FleetOptions {
            parallel,
            window,
            ..FleetOptions::default()
        };
        let tag = format!("par={parallel} window={window:?}");
        let (_, results, stats) = stream_collect(stream_items(source).collect(), &configs, &opts);
        assert_eq!(stats.modules, 3, "{tag}");
        assert_eq!(stats.failed, 1, "{tag}");
        assert_eq!(results[1].outcome.kind(), "load_failed", "{tag}");
        if parallel && window.is_some() {
            assert!(stats.peak_resident_modules <= peak, "{tag}");
        } else {
            assert_eq!(stats.peak_resident_modules, peak, "{tag}");
        }
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
    let (_, results, stats) = stream_collect(items, &configs, &opts);
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

/// A pack module holding a byte that is not UTF-8 is quarantined alone,
/// as one `load_failed` slot naming its line; the modules after it still
/// stream and run as if it were not there.
#[test]
fn non_utf8_pack_module_is_quarantined_alone() {
    let texts: Vec<(String, String)> = fleet_texts().into_iter().take(3).collect();
    let configs = sweep_configs();
    let dir = scratch("badutf8");
    let pack_path = dir.join("mixed.pack");
    // Module b gets a comment line with a 0xff byte right after its header.
    let (b_header, b_rest) = texts[1].1.split_once('\n').unwrap();
    let mut pack = texts[0].1.clone().into_bytes();
    pack.extend_from_slice(format!("{b_header}\n").as_bytes());
    pack.extend_from_slice(b"; caf\xff comment\n");
    pack.extend_from_slice(format!("{b_rest}{}", texts[2].1).as_bytes());
    std::fs::write(&pack_path, &pack).unwrap();
    let bad_line = texts[0].1.lines().count() + 2;

    let pspec = format!("pack:{}", pack_path.display());
    let mut source = ModuleSource::new(Params::tiny());
    source.push_spec(&pspec).unwrap();
    let items: Vec<StreamItem> = stream_items(source).collect();
    let opts = FleetOptions {
        parallel: true,
        window: Some(2),
        ..FleetOptions::default()
    };
    let (_, results, stats) = stream_collect(items, &configs, &opts);
    assert_eq!(stats.modules, 3, "every module of the pack gets a slot");
    assert_eq!(stats.failed, 1);
    assert_eq!(results[1].name, format!("{pspec}#1"));
    assert_eq!(results[1].outcome.kind(), "load_failed");
    let shown = results[1].outcome.to_string();
    assert!(shown.contains(&format!("line {bad_line} ")), "{shown}");

    let renamed: Vec<(String, String)> = [0, 2]
        .into_iter()
        .map(|k| (format!("{pspec}#{k}"), texts[k].1.clone()))
        .collect();
    let baseline = resident_baseline(&renamed, &configs, false);
    for (got, want) in [&results[0], &results[2]].into_iter().zip(&baseline) {
        assert_same_results(
            &format!("{} beside a non-UTF-8 module", want.name),
            got,
            want,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

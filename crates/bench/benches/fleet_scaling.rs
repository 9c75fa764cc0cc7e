//! Multi-module scaling bench: the fleet driver on one thread against
//! the fleet's worker loop on one thread per core.
//!
//! Workloads: the 26-module kernel+corpus evaluation set, and a 24-module
//! *varied-size* synthetic fleet — `synthetic_scaled(n)` at a geometric
//! spread of sizes (n = 256 .. ~6k escaping accesses, three distinct
//! modules per size, each seeded by its own `n` so no two are clones).
//! The worker loop runs whole modules, largest first, so the varied set
//! shows whether the biggest modules still finish last. On a 1-core
//! container the loop runs on the caller alone and `fleet_pool` reads
//! the same as `fleet_seq`.

use corpus::Params;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fence_ir::Module;
use fenceplace::{
    run_fleet_opts, run_fleet_streamed, run_pipeline_batch, stream_items, FleetJob, FleetOptions,
    FleetResult, FleetStats, PipelineConfig, Variant,
};

fn sweep() -> Vec<PipelineConfig> {
    vec![
        PipelineConfig::for_variant(Variant::Pensieve),
        PipelineConfig::for_variant(Variant::AddressControl),
        PipelineConfig::for_variant(Variant::Control),
    ]
}

/// The varied-size synthetic fleet: a geometric ladder of module sizes,
/// three modules per rung (offset so each gets its own RNG stream).
/// Sizes span ~25x end to end. The worker loop schedules whole modules,
/// largest first, so the small modules fill in behind the big ones.
fn varied_synthetic() -> Vec<(String, Module)> {
    let mut out = Vec::new();
    for step in 0..8u32 {
        let base = 256usize << (step / 2);
        let n = if step % 2 == 0 { base } else { base + base / 2 };
        for k in 0..3usize {
            let size = n + k * (n / 8).max(16);
            out.push((format!("syn_{size}"), corpus::synthetic_scaled(size)));
        }
    }
    out
}

fn bench_fleet(c: &mut Criterion) {
    let p = Params::default();
    let base = corpus::manifest::full_fleet(&p);
    let synth = varied_synthetic();

    // Two workloads: the evaluation corpus and the varied synthetic set.
    let workloads: Vec<(&str, Vec<FleetJob<'_>>)> = vec![
        (
            "corpus",
            base.iter()
                .map(|e| FleetJob::new(e.name.clone(), &e.module, sweep()))
                .collect(),
        ),
        (
            "varied",
            synth
                .iter()
                .map(|(name, m)| FleetJob::new(name.clone(), m, sweep()))
                .collect(),
        ),
    ];

    let mut group = c.benchmark_group("fleet_scaling");
    for (label, jobs) in &workloads {
        // The fleet must agree with the per-module batch before we time
        // anything.
        let (results, _) = run_fleet_opts(jobs, &FleetOptions::default());
        for (job, fr) in jobs.iter().zip(&results) {
            let want = run_pipeline_batch(job.module, &job.configs);
            for (w, g) in want.iter().zip(&fr.results) {
                assert_eq!(
                    w.points, g.points,
                    "{}: fleet diverges from batch",
                    job.name
                );
            }
        }

        for (id, parallel) in [("fleet_seq", false), ("fleet_pool", true)] {
            let opts = FleetOptions {
                parallel,
                ..FleetOptions::default()
            };
            group.bench_with_input(BenchmarkId::new(id, label), jobs, |b, jobs| {
                b.iter(|| criterion::black_box(run_fleet_opts(jobs, &opts)))
            });
        }
    }
    group.finish();
}

/// Streamed-ingestion rung: the varied fleet written out as one `*.ir`
/// file per module, streamed back through a `dir:` spec — resident
/// (`window: None`, whole corpus materialized) against windowed
/// admission (`window: 4`, O(window) peak residency). Before timing,
/// the two runs must produce identical placements and the windowed
/// run's resident-memory high-water (`FleetStats::peak_resident_*`)
/// must be bounded by the window; the peaks are printed so the rung
/// doubles as a residency report.
fn bench_streamed(c: &mut Criterion) {
    let synth = varied_synthetic();
    let dir = std::env::temp_dir().join(format!("fleet-scaling-stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (name, m) in &synth {
        std::fs::write(
            dir.join(format!("{name}.ir")),
            fence_ir::printer::print_module(m),
        )
        .unwrap();
    }
    let configs = sweep();

    let items = || {
        let mut source = corpus::ModuleSource::new(Params::default());
        source
            .push_spec(&format!("dir:{}", dir.display()))
            .expect("dir spec queues");
        stream_items(source)
    };
    let run = |window: Option<usize>| -> (Vec<FleetResult>, FleetStats) {
        let mut results: Vec<Option<FleetResult>> = (0..synth.len()).map(|_| None).collect();
        let (_, stats) = run_fleet_streamed(
            items(),
            &configs,
            &FleetOptions {
                parallel: true,
                window,
                ..FleetOptions::default()
            },
            |i, fr| results[i] = Some(fr),
        );
        let results = results.into_iter().map(Option::unwrap).collect();
        (results, stats)
    };

    // Windowed and resident streaming must agree before we time anything,
    // and the window must actually bound residency.
    let (windowed, wstats) = run(Some(4));
    let (resident, rstats) = run(None);
    assert_eq!(rstats.failed, 0, "scratch dir reads and parses cleanly");
    assert_eq!(rstats.peak_resident_modules, synth.len());
    assert!(
        wstats.peak_resident_modules <= 4,
        "window breached: {} modules resident",
        wstats.peak_resident_modules
    );
    assert!(wstats.peak_resident_insts <= rstats.peak_resident_insts);
    for (w, r) in windowed.iter().zip(&resident) {
        assert_eq!(w.name, r.name);
        for (wr, rr) in w.results.iter().zip(&r.results) {
            assert_eq!(wr.points, rr.points, "{}: streamed diverges", w.name);
        }
    }
    eprintln!(
        "stream rung: resident peak {} modules / {} insts; window=4 peak {} modules / {} insts",
        rstats.peak_resident_modules,
        rstats.peak_resident_insts,
        wstats.peak_resident_modules,
        wstats.peak_resident_insts
    );

    let mut group = c.benchmark_group("fleet_streaming");
    group.bench_function("resident_dir", |b| {
        b.iter(|| criterion::black_box(run(None)))
    });
    group.bench_function("windowed4_dir", |b| {
        b.iter(|| criterion::black_box(run(Some(4))))
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fleet, bench_streamed
}
criterion_main!(benches);

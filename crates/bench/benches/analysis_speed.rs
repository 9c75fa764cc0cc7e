//! Criterion benches for the static side: points-to + escape analysis,
//! acquire detection, and the full pipeline over the whole corpus
//! (`PipelineConfig::parallel` off and on — a module's stages run on one
//! thread either way — and per-config `run_pipeline` sweeps vs. one
//! `run_pipeline_batch`).

use corpus::Params;
use criterion::{criterion_group, criterion_main, Criterion};
use fence_analysis::ModuleAnalysis;
use fenceplace::acquire::{detect_acquires, DetectMode};
use fenceplace::{run_pipeline, run_pipeline_batch, PipelineConfig, TargetModel, Variant};

fn bench_analysis(c: &mut Criterion) {
    let p = Params::default();
    let programs = corpus::programs(&p);

    c.bench_function("points_to_escape_corpus", |b| {
        b.iter(|| {
            for prog in &programs {
                let an = ModuleAnalysis::run(&prog.module);
                std::hint::black_box(&an.escape);
            }
        })
    });

    c.bench_function("acquire_detection_corpus", |b| {
        let analyses: Vec<_> = programs
            .iter()
            .map(|prog| ModuleAnalysis::run(&prog.module))
            .collect();
        b.iter(|| {
            for (prog, an) in programs.iter().zip(&analyses) {
                for (fid, _) in prog.module.iter_funcs() {
                    let info = detect_acquires(
                        &prog.module,
                        &an.points_to,
                        &an.escape,
                        fid,
                        DetectMode::AddressControl,
                    );
                    std::hint::black_box(info.count());
                }
            }
        })
    });

    for (label, parallel) in [("pipeline_sequential", false), ("pipeline_parallel", true)] {
        c.bench_function(label, |b| {
            b.iter(|| {
                for prog in &programs {
                    let r = run_pipeline(
                        &prog.module,
                        &PipelineConfig {
                            variant: Variant::Control,
                            target: TargetModel::X86Tso,
                            parallel,
                        },
                    );
                    std::hint::black_box(r.report.full_fences());
                }
            })
        });
    }

    // The golden-test / figure-binary access pattern: every automatic
    // variant × target, as individual runs vs. one batch sharing the
    // module analysis, contexts, and per-variant acquire detection.
    let mut sweep = Vec::new();
    for variant in Variant::automatic() {
        for target in [
            TargetModel::X86Tso,
            TargetModel::ScHardware,
            TargetModel::Weak,
        ] {
            sweep.push(PipelineConfig {
                variant,
                target,
                parallel: false,
            });
        }
    }
    c.bench_function("pipeline_sweep_individual", |b| {
        b.iter(|| {
            for prog in &programs {
                for config in &sweep {
                    let r = run_pipeline(&prog.module, config);
                    std::hint::black_box(r.report.full_fences());
                }
            }
        })
    });
    c.bench_function("pipeline_sweep_batch", |b| {
        b.iter(|| {
            for prog in &programs {
                let rs = run_pipeline_batch(&prog.module, &sweep);
                std::hint::black_box(rs.iter().map(|r| r.report.full_fences()).sum::<usize>());
            }
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_analysis
}
criterion_main!(benches);

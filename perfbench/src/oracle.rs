//! The output oracle: what every module report must say.
//!
//! * Kernel and corpus modules are checked against the counts pinned in
//!   `tests/golden/pipeline.txt` (produced by the seed implementation).
//! * Synthetic and litmus modules are checked against the seed stages
//!   preserved in `fence_bench::naive`, computed once per run outside
//!   any timed section.
//! * Malformed modules must come back `invalid_ir`.
//!
//! The compared counts are the ones a report carries per config:
//! acquires, kept orderings, fence points, and full and compiler fences.

use crate::gen::{Origin, TextModule};
use fence_analysis::{EscapeInfo, PointsTo};
use fence_bench::naive::{naive_detect_acquires, naive_ordering_stage};
use fence_ir::util::BitSet;
use fence_ir::FenceKind;
use fenceplace::service::wire::{parse_config_spec, parse_json, Json};
use fenceplace::{DetectMode, PipelineConfig, Variant};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

const GOLDEN: &str = include_str!("../../tests/golden/pipeline.txt");

/// The per-config counts a report carries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub acquires: usize,
    pub kept: usize,
    pub fence_points: usize,
    pub full: usize,
    pub compiler: usize,
}

/// The seed-pinned counts of `tests/golden/pipeline.txt`, keyed by
/// (label, variant, target).
pub struct Golden(HashMap<(String, String, String), Counts>);

impl Golden {
    pub fn load() -> Golden {
        let mut map: HashMap<(String, String, String), Counts> = HashMap::new();
        for line in GOLDEN.lines() {
            let parts: Vec<&str> = line.split('|').collect();
            if parts.len() < 4 {
                continue;
            }
            let key = (
                parts[0].to_string(),
                parts[1].to_string(),
                parts[2].to_string(),
            );
            let c = map.entry(key).or_default();
            let field = |name: &str| {
                parts[3..]
                    .iter()
                    .find_map(|p| p.strip_prefix(name).and_then(|v| v.strip_prefix('=')))
            };
            if let Some(points) = field("points") {
                c.fence_points = points.parse().expect("golden points");
                continue;
            }
            let num = |name: &str| -> usize {
                field(name)
                    .and_then(|v| v.parse().ok())
                    .expect("golden counter")
            };
            c.acquires += num("acq");
            c.full += num("full");
            c.compiler += num("dir");
            let kept = field("ok").expect("golden ok");
            c.kept += kept
                .trim_matches(['[', ']'])
                .split(',')
                .map(|v| v.trim().parse::<usize>().expect("golden ok entry"))
                .sum::<usize>();
        }
        Golden(map)
    }

    fn get(&self, label: &str, config: &PipelineConfig) -> Option<Counts> {
        let key = (
            label.to_string(),
            config.variant.name().to_string(),
            fenceplace::json::target_name(config.target).to_string(),
        );
        self.0.get(&key).copied()
    }
}

/// What one module's report must say.
#[derive(Clone, Debug)]
pub struct Expected {
    /// `ok` or `invalid_ir`.
    pub status: &'static str,
    /// Per-config counts, in config order (empty for `invalid_ir`).
    pub counts: Vec<Counts>,
    /// Whether this is a litmus module (certification verdicts checked).
    pub litmus: bool,
}

/// Seed-stage counts of one text under each config.
fn naive_counts(text: &str, configs: &[PipelineConfig]) -> Result<Vec<Counts>, String> {
    let module = fence_ir::parser::parse_module(text).map_err(|e| format!("oracle parse: {e}"))?;
    let pt = PointsTo::analyze(&module);
    let escape = EscapeInfo::analyze(&module, &pt);
    let mut sync: HashMap<usize, Vec<BitSet>> = HashMap::new();
    let mut out = Vec::with_capacity(configs.len());
    for config in configs {
        let mode = match config.variant {
            Variant::Manual => {
                // Nothing placed; the legacy builds carry no fences.
                out.push(Counts::default());
                continue;
            }
            Variant::Pensieve => None,
            Variant::Control => Some(DetectMode::Control),
            Variant::AddressControl => Some(DetectMode::AddressControl),
        };
        let sets = sync.entry(config.variant as usize).or_insert_with(|| {
            module
                .iter_funcs()
                .map(|(fid, func)| match mode {
                    Some(mode) => {
                        naive_detect_acquires(&module, &pt, &escape, fid, mode).sync_reads
                    }
                    None => {
                        let mut s = BitSet::new(func.num_insts());
                        for (iid, inst) in func.iter_insts() {
                            if inst.kind.is_mem_read() && escape.is_escaping(fid, iid) {
                                s.insert(iid.index());
                            }
                        }
                        s
                    }
                })
                .collect()
        });
        let (kept, points) = naive_ordering_stage(&module, &escape, sets, config.target);
        let full = points.iter().filter(|p| p.kind == FenceKind::Full).count();
        out.push(Counts {
            acquires: sets.iter().map(BitSet::count).sum(),
            kept,
            fence_points: points.len(),
            full,
            compiler: points.len() - full,
        });
    }
    Ok(out)
}

/// The expectation for every module of a workload under `configs`,
/// computed on a few threads (the seed stages are quadratic).
pub fn expect_all(
    modules: &[TextModule],
    configs: &[PipelineConfig],
) -> Result<Vec<Expected>, String> {
    let golden = Golden::load();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, Result<Expected, String>)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(m) = modules.get(i) else {
                            return out;
                        };
                        out.push((i, expect_one(&golden, m, configs)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("oracle thread panicked"))
            .collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, e)| e).collect()
}

fn expect_one(
    golden: &Golden,
    m: &TextModule,
    configs: &[PipelineConfig],
) -> Result<Expected, String> {
    let counts = match &m.origin {
        Origin::Malformed => {
            return Ok(Expected {
                status: "invalid_ir",
                counts: Vec::new(),
                litmus: false,
            })
        }
        Origin::Golden(label) => configs
            .iter()
            .map(|c| match c.variant {
                Variant::Manual => Ok(Counts::default()),
                _ => golden
                    .get(label, c)
                    .ok_or_else(|| format!("no golden entry for {label}")),
            })
            .collect::<Result<Vec<_>, _>>()?,
        Origin::Synthetic(_) | Origin::Litmus => naive_counts(&m.text, configs)?,
    };
    Ok(Expected {
        status: "ok",
        counts,
        litmus: m.origin == Origin::Litmus,
    })
}

/// Parses `Variant:target` config specs.
pub fn configs_of(specs: &[&str]) -> Vec<PipelineConfig> {
    specs
        .iter()
        .map(|s| parse_config_spec(s).expect("benchmark config specs are valid"))
        .collect()
}

/// One certification entry of a report.
#[derive(Clone, Debug)]
pub struct Cert {
    pub target: String,
    pub status: String,
}

/// The parts of a per-module report the oracle reads.
#[derive(Clone, Debug)]
pub struct Report {
    pub status: String,
    pub counts: Vec<Counts>,
    pub certs: Vec<Cert>,
}

fn num(v: &Json, key: &str) -> Result<usize, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .map(|n| n as usize)
        .ok_or_else(|| format!("report field `{key}` missing"))
}

fn string(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("report field `{key}` missing"))
}

pub fn parse_report(text: &str) -> Result<Report, String> {
    let v = parse_json(text)?;
    let arr = |key: &str| {
        v.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("report field `{key}` missing"))
    };
    let mut counts = Vec::new();
    for c in arr("configs")? {
        let kept = c
            .get("orderings_kept")
            .and_then(Json::as_arr)
            .ok_or("report field `orderings_kept` missing")?
            .iter()
            .map(|k| k.as_u64().unwrap_or(0) as usize)
            .sum();
        counts.push(Counts {
            acquires: num(c, "acquires")?,
            kept,
            fence_points: num(c, "fence_points")?,
            full: num(c, "full_fences")?,
            compiler: num(c, "compiler_fences")?,
        });
    }
    let mut certs = Vec::new();
    for c in arr("certifications")? {
        certs.push(Cert {
            target: string(c, "target")?,
            status: string(c, "status")?,
        });
    }
    Ok(Report {
        status: string(&v, "status")?,
        counts,
        certs,
    })
}

/// Checks one report against its expectation. With `certify`, every
/// config must carry a certification: never `unsound`, and a litmus
/// module must certify under x86-TSO (the weak model may also find a
/// placed fence redundant, `not_minimal`).
pub fn check(report: &Report, expected: &Expected, certify: bool) -> Result<(), String> {
    if report.status != expected.status {
        return Err(format!(
            "status `{}`, expected `{}`",
            report.status, expected.status
        ));
    }
    if report.counts != expected.counts {
        return Err(format!(
            "counts {:?}, expected {:?}",
            report.counts, expected.counts
        ));
    }
    if certify && expected.status == "ok" {
        if report.certs.len() != expected.counts.len() {
            return Err(format!("{} certifications", report.certs.len()));
        }
        for c in &report.certs {
            let allowed: &[&str] = match (expected.litmus, c.target.as_str()) {
                (true, "x86tso") => &["certified"],
                (true, _) => &["certified", "not_minimal"],
                (false, _) => &["certified", "not_minimal", "inconclusive", "skipped"],
            };
            if !allowed.contains(&c.status.as_str()) {
                return Err(format!("certification `{}` under {}", c.status, c.target));
            }
        }
    }
    Ok(())
}

/// Whether a certification verdict is decided (`certified`, `unsound`
/// or `not_minimal`), as opposed to `inconclusive` or `skipped`.
pub fn decided(status: &str) -> bool {
    matches!(status, "certified" | "unsound" | "not_minimal")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_sums_match_the_pipeline() {
        let golden = Golden::load();
        let configs = configs_of(&crate::gen::CONFIG_ORDER);
        for m in crate::gen::golden_modules() {
            let Origin::Golden(label) = &m.origin else {
                unreachable!()
            };
            let module = fence_ir::parser::parse_module(&m.text).unwrap();
            let results = fenceplace::run_pipeline_batch(&module, &configs);
            for (c, r) in configs.iter().zip(&results) {
                let g = golden.get(label, c).expect("golden entry");
                assert_eq!(g.acquires, r.report.acquires(), "{label}");
                assert_eq!(g.fence_points, r.points.len(), "{label}");
                assert_eq!(g.full, r.report.full_fences(), "{label}");
                assert_eq!(g.compiler, r.report.compiler_fences(), "{label}");
            }
        }
    }

    #[test]
    fn seed_stages_match_the_pipeline_on_synthetic_text() {
        let configs = configs_of(&crate::gen::CONFIG_ORDER);
        let text = fence_ir::printer::print_module(&corpus::synthetic_scaled(700));
        let naive = naive_counts(&text, &configs).unwrap();
        let module = fence_ir::parser::parse_module(&text).unwrap();
        for ((c, r), n) in configs
            .iter()
            .zip(fenceplace::run_pipeline_batch(&module, &configs))
            .zip(naive)
        {
            let full = r.report.full_fences();
            let got = Counts {
                acquires: r.report.acquires(),
                kept: r.report.orderings_kept().iter().sum(),
                fence_points: r.points.len(),
                full,
                compiler: r.report.compiler_fences(),
            };
            assert_eq!(got, n, "{c:?}");
        }
    }
}

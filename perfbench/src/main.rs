//! `perfbench` — the end-to-end and per-layer benchmark of `fenceplace`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_pack --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Builds the `fenceplace` binary from the enclosing checkout, generates
//! the workload's inputs from the seed, and then either times the real
//! binary (`--trace 0`: one-shot CLI processes, or a daemon driven over
//! its socket) or replays the same inputs in process through every
//! layer's public functions with spans (`--trace 1`). Every output is
//! checked; the last line of standard output is one JSON object with the
//! result. Exits 1 on any failed check, and when it cannot build. See
//! `perfbench/README.md` for the workloads and metrics.

mod gen;
mod oracle;
mod process;
mod stats;
mod timed;
mod traced;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use timed::{Ctx, Metric, Tally};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdPack,
    ConfigSweep,
    ServeEdit,
    CertifyMix,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::ColdPack,
        Workload::ConfigSweep,
        Workload::ServeEdit,
        Workload::CertifyMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdPack => "cold_pack",
            Workload::ConfigSweep => "config_sweep",
            Workload::ServeEdit => "serve_edit",
            Workload::CertifyMix => "certify_mix",
        }
    }
}

/// Times set-up is repeated per run; the median is reported.
const SETUP_REPS: usize = 3;
/// Fewest measured processes of a one-shot workload.
const MIN_RUNS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 15.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or_else(|| format!("unknown workload `{v}`"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "bad --seconds")?;
            }
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Builds `fenceplace` from the checkout and returns its path.
fn build_fenceplace() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "fenceplace",
        ])
        .args(["--manifest-path", "Cargo.toml"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err("building fenceplace failed".into());
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let bin = Path::new(&target).join("release").join("fenceplace");
    if !bin.is_file() {
        return Err(format!("no binary at {}", bin.display()));
    }
    Ok(bin)
}

/// The commit when the checkout is a git repository, else `unknown`.
fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Content hash of the program's sources, which identifies the code
/// measured where there is no git metadata.
fn source_hash() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("src"), &mut files);
    files.sort();
    let mut all = Vec::new();
    for f in files {
        all.extend(f.display().to_string().bytes());
        all.extend(std::fs::read(&f).unwrap_or_default());
    }
    corpus::hash::hex(&corpus::hash::hash_bytes(&all))
}

/// The timed end-to-end run of one workload.
fn timed_run(
    w: Workload,
    ctx: &Ctx,
    seconds: f64,
    tally: &mut Tally,
) -> Result<(Vec<Metric>, timed::InputSize), String> {
    if w == Workload::ServeEdit {
        let mut plan = timed::serve_plan(ctx.seed);
        // Before the run: the sessions grow as they send requests.
        let size = plan.size();
        let (run, check) = timed::run_serve(&mut plan, ctx, seconds, SETUP_REPS, tally)?;
        check.verify(ctx, tally)?;
        let mut kinds = [0usize; 4];
        for s in &run.samples {
            kinds[s.kind as usize] += 1;
        }
        println!(
            "serve_edit: {} requests over {} connections (hit {}, edit {}, grow {}, miss {} by request kind)",
            run.samples.len(),
            timed::CONNECTIONS,
            kinds[0],
            kinds[1],
            kinds[2],
            kinds[3]
        );
        return Ok((timed::serve_metrics(&run), size));
    }
    let plan = timed::write_cli_inputs(w, ctx)?;
    let expected = oracle::expect_all(&plan.modules, &oracle::configs_of(&plan.config_specs))?;
    let runs = timed::run_cli(&plan, &expected, ctx, seconds, SETUP_REPS, MIN_RUNS, tally)?;
    println!("{}: {} measured processes", w.name(), runs.exits.len());
    Ok((timed::cli_metrics(&plan, &runs), plan.size()))
}

fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // A value that is not a finite number fails the run (see main)
        // and is written as 0 to keep the line valid JSON.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]");
            return ExitCode::FAILURE;
        }
    };
    // Everything happens at the root of the checkout the benchmark lives in.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if let Err(e) = std::env::set_current_dir(&root) {
        eprintln!("perfbench: cannot enter {}: {e}", root.display());
        return ExitCode::FAILURE;
    }
    let bin = match build_fenceplace() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let w = args.workload;
    let ctx = Ctx {
        bin,
        work: PathBuf::from(".perfbench").join(w.name()),
        seed: args.seed,
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.work.display());
        return ExitCode::FAILURE;
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut tally = Tally::default();
    let outcome = if args.trace {
        traced::run(w, &ctx, args.seconds, &mut tally).map(|t| {
            println!(
                "trace: {} spans written to {} (Chrome trace-event JSON)",
                t.events,
                t.trace_file.display()
            );
            (t.metrics, t.size)
        })
    } else {
        timed_run(w, &ctx, args.seconds, &mut tally)
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let (metrics, size) = match outcome {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "meta: workload={} seed={} seconds={} trace={} nproc={nproc} commit={} source={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_commit(),
        source_hash()
    );
    println!(
        "inputs: modules={} bytes={} insts={} hash={}",
        size.modules, size.bytes, size.insts, size.hash
    );
    for m in &metrics {
        println!("{} {} = {} {}", w.name(), m.name, m.value, m.unit);
    }
    println!(
        "{} failed_frac = {} ratio ({} of {} operations failed)",
        w.name(),
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    for e in &tally.errors {
        eprintln!("perfbench: FAILED {e}");
    }
    let bad_value = metrics.iter().any(|m| !m.value.is_finite());
    if bad_value {
        tally.fail(1, "a metric is not a finite number".into());
    }
    let json = result_json(&tally, &metrics);
    println!("{json}");
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fenceplace::service::wire::{parse_json, Json};

    /// `BENCHMARK.json` at the root of the checkout describes exactly the
    /// workloads and metrics this program reports.
    #[test]
    fn benchmark_json_matches_the_metrics_reported() {
        let doc = parse_json(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let list = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("a list")
                .iter()
                .map(|m| {
                    fields
                        .iter()
                        .map(|f| {
                            m.get(f)
                                .and_then(Json::as_str)
                                .expect("a string")
                                .to_string()
                        })
                        .collect()
                })
                .collect()
        };
        let workloads: Vec<Vec<String>> = Workload::ALL
            .iter()
            .map(|w| vec![w.name().to_string()])
            .collect();
        assert_eq!(list("workloads", &["name"]), workloads);
        let e2e: Vec<Vec<String>> = timed::END_TO_END
            .iter()
            .map(|(n, u)| vec![n.to_string(), u.to_string()])
            .collect();
        assert_eq!(list("end_to_end", &["name", "unit"]), e2e);
        let layers: Vec<Vec<String>> = traced::per_layer()
            .into_iter()
            .map(|(n, u, b)| vec![n, u.to_string(), b.to_string()])
            .collect();
        assert_eq!(list("per_layer", &["name", "unit", "better"]), layers);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut tally = Tally::default();
        tally.ok(3);
        let m = vec![
            timed::metric("wall_s", 1.25, "s"),
            timed::metric("p99_ms", f64::NAN, "ms"),
        ];
        let v = parse_json(&result_json(&tally, &m)).expect("valid JSON");
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Json::as_u64), Some(3));
        let wall = v
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("wall_s");
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }
}

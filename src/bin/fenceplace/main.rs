//! `fenceplace` — the batch CLI over the fleet driver.
//!
//! Loads a manifest of corpus/kernel/synthetic/file programs plus
//! variant × target configs, reads every spec through one
//! [`corpus::ModuleSource`], runs the whole set as **one fleet** through
//! [`fenceplace::run_fleet_streamed`] (one worker per core, each taking
//! the next module, parsing it if it is a text and running all of its
//! stages), and emits per-module JSON reports plus a roll-up — the repo
//! as a drivable batch service.
//!
//! ```text
//! cargo run --release --bin fenceplace -- --manifest fleet.manifest --out reports/
//! cargo run --release --bin fenceplace -- --program kernel:* --config Control:x86tso
//! cargo run --release --bin fenceplace -- --list
//! ```
//!
//! Two subcommands wrap the same engine as a resident service:
//! `fenceplace serve` (see [`serve`]) keeps analyses cached between
//! requests behind a newline-delimited JSON protocol (`docs/PROTOCOL.md`),
//! and `fenceplace client` (see [`client`]) drives a running daemon.
//!
//! Manifest format (line-based; `#` starts a comment):
//!
//! ```text
//! program kernel:*
//! program corpus:FFT
//! program synthetic:4000
//! program file:path/to/module.fir
//! program dir:path/to/modules
//! program pack:path/to/corpus.pack
//! config Control x86tso
//! config Pensieve weak
//! threads 8
//! scale 16
//! ```
//!
//! # Streaming
//!
//! File-backed specs are always read lazily. Either way one worker per
//! core (one under `--seq`) runs whole modules, and a module runs on one
//! core. Without `--window`, every text is parsed first, so every module
//! is resident at once, and the workers take the modules largest first.
//! `--window N` is the one streaming knob: up to N workers each take the
//! next module in admission order, place its fences and write its
//! report to `--out`, so at most that many modules are resident at once.
//! Per-module reports are byte-identical either way. The roll-up's
//! `stream` peaks are measured, so a pooled windowed run's can differ
//! from run to run. `--stream` is accepted and does nothing.
//!
//! # Failure model and exit codes
//!
//! The fleet quarantines sick modules instead of dying: a module that
//! fails IR validation, panics in a work unit, or blows `--budget` is
//! reported with a structured status (its slot in the per-module JSON
//! and `fleet_summary.json` carries the stage and error) while every
//! other module completes normally. Loading quarantines the same way: a
//! file that cannot be read becomes a `load_failed` slot, a text that
//! does not parse an `invalid_ir` slot, and a duplicate module name
//! (overlapping specs) or a name whose report file an earlier module
//! already claimed (`a_b.ir` after `a-b.ir`: [`file_stem`] maps both
//! names to one file) a `load_failed` slot at admission. A `load_failed` slot gets
//! no report file of its own; the roll-up lists it.
//!
//! | exit | meaning                                                    |
//! |------|------------------------------------------------------------|
//! | 0    | every module completed                                     |
//! | 1    | fatal: bad usage, unresolvable built-in spec, I/O error, `--fail-fast` trip |
//! | 2    | partial success: some modules quarantined (including load failures and duplicates) or a `--certify` run came back unsound; reports written |

#![forbid(unsafe_code)]

mod client;
mod serve;

use corpus::manifest::available;
use corpus::{ModuleSource, Params};
use fenceplace::json::{
    file_stem, json_escape, module_json, outcome_fields, target_name, ReportFiles,
};
use fenceplace::service::wire::parse_config_spec as parse_config;
use fenceplace::{
    run_fleet_streamed, stream_items, CertifyOptions, FleetOptions, FleetStats, ModuleOutcome,
    PipelineConfig, PipelineResult, StreamItem, StreamSummary,
};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// A program spec plus the manifest file/line it came from (None for
/// command-line specs), so resolution errors point at the right entry.
struct SpecAt {
    spec: String,
    origin: Option<(String, u32)>,
}

struct Cli {
    specs: Vec<SpecAt>,
    configs: Vec<PipelineConfig>,
    params: Params,
    parallel: bool,
    out_dir: Option<String>,
    list: bool,
    fail_fast: bool,
    budget: Option<u64>,
    certify: Option<CertifyOptions>,
    window: Option<usize>,
}

/// What `parse_args` decided: run, or print help and exit 0.
enum Parsed {
    Run(Cli),
    Help,
}

fn usage() -> &'static str {
    "fenceplace — batch fence placement over a program manifest (fleet-backed)

USAGE:
  fenceplace [--manifest FILE] [--program SPEC]... [--config V:T]... [options]
  fenceplace serve (--socket PATH | --stdio) [options]   resident daemon
  fenceplace client --socket PATH [options]              drive a daemon
  (`fenceplace serve --help` / `fenceplace client --help` for their options)

OPTIONS:
  --manifest FILE    read `program`/`config`/`threads`/`scale` lines from FILE
  --program SPEC     add a program spec: kernel:NAME|*, corpus:NAME|*,
                     manual:NAME|*, synthetic:N, file:PATH, dir:PATH,
                     pack:PATH  (repeatable)
  --config V:T       add a config, variant:target — variants Pensieve|Control|
                     AddressControl|Manual, targets x86tso|sc|weak (repeatable;
                     default Control:x86tso)
  --threads N        corpus build parameter (default 8, at most 4096)
  --scale N          corpus build parameter (default 16, at most 65536)
  --seq              run every module on this thread (default: one worker
                     per core, each running whole modules, largest first)
  --window N         stream with up to N workers (at most one per core, one
                     with --seq): each takes the next module in admission
                     order, places its fences and writes its report, so at
                     most N modules are resident and peak memory is
                     O(window), not O(corpus); reports are byte-identical
                     to a run without --window
  --stream           accepted for compatibility; does nothing
  --budget N         deterministic per-module step budget: a module whose
                     static instruction-count spend exceeds N is quarantined
                     as deadline_exceeded (never wall-clock)
  --fail-fast        exit 1 on the first failed module instead of
                     quarantining it; reports wait in memory until the
                     run drains, so a trip writes none and prints no
                     roll-up
  --certify          after placement, model-check every (module, config):
                     bounded exhaustive interleaving under the target model,
                     proving SC-equivalence for race-free thread groups and
                     minimality of every placed fence
  --certify-states N total distinct-state budget per certification run
                     (implies --certify; default 400000)
  --out DIR          write per-module JSON reports + fleet_summary.json to DIR
  --list             print every concrete program spec and exit
  --help             this text

Files that cannot be read, texts that do not parse, duplicate module
names (overlapping specs) and names whose report file an earlier module
already writes (a-b.ir and a_b.ir) are quarantined as load_failed /
invalid_ir slots; a load_failed slot is listed in the roll-up but gets
no report file.

EXIT CODES:
  0  every module completed
  1  fatal error (bad usage, unresolvable built-in spec, I/O error,
     --fail-fast trip)
  2  partial success (some modules quarantined or a certification came back
     unsound; reports still written)
"
}

fn parse_manifest(path: &str, cli: &mut Cli) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read manifest {path}: {e}"))?;
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let loc = || format!("{path}:{}", ln + 1);
        let (key, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let rest = rest.trim();
        match key {
            "program" => cli.specs.push(SpecAt {
                spec: rest.to_string(),
                origin: Some((path.to_string(), ln as u32 + 1)),
            }),
            "config" => {
                // `config Control x86tso` or `config Control:x86tso`
                let spec = rest.split_whitespace().collect::<Vec<_>>().join(":");
                cli.configs
                    .push(parse_config(&spec).map_err(|e| format!("{}: {e}", loc()))?);
            }
            "threads" | "scale" => {
                cli.params
                    .set(key, rest)
                    .map_err(|e| format!("{}: bad {key}: {e}", loc()))?;
            }
            other => return Err(format!("{}: unknown directive `{other}`", loc())),
        }
    }
    Ok(())
}

fn parse_args(args: &[String]) -> Result<Parsed, String> {
    let mut cli = Cli {
        specs: Vec::new(),
        configs: Vec::new(),
        params: Params::default(),
        parallel: true,
        out_dir: None,
        list: false,
        fail_fast: false,
        budget: None,
        certify: None,
        window: None,
    };
    let mut it = args.iter();
    let need = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--manifest" => {
                let path = need(&mut it, "--manifest")?;
                parse_manifest(&path, &mut cli)?;
            }
            "--program" => {
                let spec = need(&mut it, "--program")?;
                cli.specs.extend(spec.split(',').map(|s| SpecAt {
                    spec: s.to_string(),
                    origin: None,
                }));
            }
            "--config" => {
                let spec = need(&mut it, "--config")?;
                cli.configs.push(parse_config(&spec)?);
            }
            "--threads" | "--scale" => {
                let v = need(&mut it, arg)?;
                cli.params
                    .set(&arg[2..], &v)
                    .map_err(|e| format!("bad {arg}: {e}"))?;
            }
            "--budget" => {
                let v = need(&mut it, "--budget")?;
                cli.budget = Some(v.parse().map_err(|_| format!("bad --budget `{v}`"))?);
            }
            "--fail-fast" => cli.fail_fast = true,
            "--certify" => {
                cli.certify.get_or_insert_with(CertifyOptions::default);
            }
            "--certify-states" => {
                let v = need(&mut it, "--certify-states")?;
                let max_states = v
                    .parse()
                    .map_err(|_| format!("bad --certify-states `{v}`"))?;
                cli.certify
                    .get_or_insert_with(CertifyOptions::default)
                    .max_states = max_states;
            }
            "--seq" => cli.parallel = false,
            "--stream" => {}
            "--window" => {
                let v = need(&mut it, "--window")?;
                let w: usize = v.parse().map_err(|_| format!("bad --window `{v}`"))?;
                if w == 0 {
                    return Err(
                        "bad --window `0`: the window must admit at least one module".into(),
                    );
                }
                cli.window = Some(w);
            }
            "--out" => cli.out_dir = Some(need(&mut it, "--out")?),
            "--list" => cli.list = true,
            "--help" | "-h" => return Ok(Parsed::Help),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.configs.is_empty() {
        cli.configs.push(PipelineConfig::default());
    }
    Ok(Parsed::Run(cli))
}

/// Per-config roll-up totals, folded in the completion sink over
/// completed modules (a quarantined module has no results to count).
#[derive(Clone, Copy, Default)]
struct ConfigTotals {
    full_fences: usize,
    compiler_fences: usize,
    acquires: usize,
    fence_points: usize,
}

impl ConfigTotals {
    fn add(&mut self, r: &PipelineResult) {
        self.full_fences += r.report.full_fences();
        self.compiler_fences += r.report.compiler_fences();
        self.acquires += r.report.acquires();
        self.fence_points += r.points.len();
    }
}

/// The roll-up JSON (`fleet_summary.json` and stdout), built from the
/// O(1)-per-module summaries and the folded totals — the full results
/// went through the completion sink and were never retained — plus a
/// `"stream"` block recording the admission window (`null` without
/// one) and the peak-residency counters it bounds.
fn rollup_json(
    configs: &[PipelineConfig],
    summaries: &[StreamSummary],
    totals: &[ConfigTotals],
    stats: &FleetStats,
    window: Option<usize>,
    wall_ms: f64,
) -> String {
    let load_failures = summaries
        .iter()
        .filter(|s| matches!(s.outcome, ModuleOutcome::LoadFailed { .. }))
        .count();
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"programs\": {}, \"configs_per_program\": {}, \"functions\": {},",
        summaries.len(),
        configs.len(),
        stats.functions
    );
    let _ = writeln!(
        out,
        "  \"modules_failed\": {}, \"load_failures\": {load_failures},",
        stats.failed
    );
    let _ = writeln!(
        out,
        "  \"fleet\": {{\"analyses\": {}, \"substrates\": {}, \"certifications\": {}, \
         \"certify_unsound\": {}, \"wall_ms\": {wall_ms:.3}}},",
        stats.analyses, stats.substrates, stats.certifications, stats.certify_unsound
    );
    let window_json = match window {
        Some(w) => w.to_string(),
        None => "null".to_string(),
    };
    let _ = writeln!(
        out,
        "  \"stream\": {{\"window\": {window_json}, \"peak_resident_modules\": {}, \
         \"peak_resident_insts\": {}}},",
        stats.peak_resident_modules, stats.peak_resident_insts
    );
    out.push_str("  \"modules\": [\n");
    for (i, s) in summaries.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", {}}}{}",
            json_escape(&s.name),
            outcome_fields(&s.outcome),
            if i + 1 < summaries.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"totals\": [\n");
    for (c, (config, t)) in configs.iter().zip(totals).enumerate() {
        let _ = writeln!(
            out,
            "    {{\"variant\": \"{}\", \"target\": \"{}\", \"full_fences\": {}, \
             \"compiler_fences\": {}, \"acquires\": {}, \"fence_points\": {}}}{}",
            json_escape(config.variant.name()),
            target_name(config.target),
            t.full_fences,
            t.compiler_fences,
            t.acquires,
            t.fence_points,
            if c + 1 < configs.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs the batch. `Ok(0)` = clean, `Ok(2)` = partial success, `Err` =
/// fatal (exit 1).
///
/// Every spec resolves through a [`ModuleSource`]: built-in families up
/// front (a typo is fatal), file-backed specs lazily (each problem
/// becomes a quarantined slot). The worker that takes a text parses it,
/// and only O(1) state per module is retained (its [`StreamSummary`]
/// plus the folded totals): each report is written to `--out` the
/// moment its module finishes, except under `--fail-fast`, whose
/// all-or-nothing contract holds the reports until the run drains.
fn run(cli: &Cli) -> Result<u8, String> {
    if cli.list {
        for spec in available() {
            println!("{spec}");
        }
        println!("synthetic:N");
        println!("file:PATH");
        println!("dir:PATH");
        println!("pack:PATH");
        return Ok(0);
    }
    if cli.specs.is_empty() {
        return Err("no programs: pass --program SPEC or --manifest FILE (see --help)".into());
    }
    let mut source = ModuleSource::new(cli.params);
    for s in &cli.specs {
        let pushed = match &s.origin {
            Some((file, line)) => source.push_spec_at(&s.spec, file, *line),
            None => source.push_spec(&s.spec),
        };
        pushed.map_err(|e| e.to_string())?;
    }

    // Overlapping specs (`kernel:*` + `kernel:Dekker`) would run a module
    // twice and double-count the roll-up totals, and two names with one
    // report file (`a-b.ir`, `a_b.ir`) would overwrite each other's
    // report. A lazy stream cannot look ahead, so the later module is
    // quarantined at admission (exit 2), with or without `--out`, and the
    // batch runs on.
    let mut files = ReportFiles::default();
    let items = stream_items(source).map(move |item| {
        let name = match &item {
            StreamItem::Module { name, .. }
            | StreamItem::Text { name, .. }
            | StreamItem::Failed { name, .. } => name,
        };
        match files.claim(name) {
            Ok(()) => item,
            Err(error) => StreamItem::Failed {
                name: name.clone(),
                error,
            },
        }
    });

    let opts = FleetOptions {
        parallel: cli.parallel,
        budget: cli.budget,
        certify: cli.certify,
        window: cli.window,
    };
    let create_out =
        |dir: &str| std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"));
    let write_report = |dir: &str, (name, report): &(String, String)| {
        let path = format!("{dir}/{}.json", file_stem(name));
        std::fs::write(&path, report).map_err(|e| format!("cannot write {path}: {e}"))
    };
    // Reports spill as modules retire, unless --fail-fast holds them.
    let spill_dir = cli.out_dir.as_deref().filter(|_| !cli.fail_fast);
    if let Some(dir) = spill_dir {
        create_out(dir)?;
    }

    // Everything the roll-up needs is folded here as modules finish; the
    // full FleetResult is spilled (or held, rendered) and dropped. Modules
    // finish in any order, so the unsound lines carry their admission
    // index.
    let mut totals = vec![ConfigTotals::default(); cli.configs.len()];
    let mut unsound: Vec<(usize, String)> = Vec::new();
    let mut held: Vec<(String, String)> = Vec::new();
    let mut spill_err: Option<String> = None;
    let mut written = 0usize;
    let t = Instant::now();
    let (summaries, stats) = run_fleet_streamed(items, &cli.configs, &opts, |index, fr| {
        for (tot, r) in totals.iter_mut().zip(&fr.results) {
            tot.add(r);
        }
        for (config, cr) in cli.configs.iter().zip(&fr.certifications) {
            if cr.status() == fenceplace::CertifyStatus::Unsound {
                let line = format!(
                    "unsound: {} [{}:{}] — a race-free thread group reaches a non-SC outcome",
                    fr.name,
                    config.variant.name(),
                    target_name(config.target)
                );
                unsound.push((index, line));
            }
        }
        // A load_failed slot writes no report: a quarantined duplicate or
        // collision would overwrite the report of the module it follows.
        if cli.out_dir.is_none() || matches!(fr.outcome, ModuleOutcome::LoadFailed { .. }) {
            return;
        }
        let report = (fr.name.clone(), module_json(&fr.name, &cli.configs, &fr));
        match spill_dir {
            None => held.push(report),
            Some(dir) => match write_report(dir, &report) {
                Ok(()) => written += 1,
                Err(e) => {
                    spill_err.get_or_insert(e);
                }
            },
        }
    });
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    if let Some(e) = spill_err {
        return Err(e);
    }
    if summaries.is_empty() {
        return Err("no programs resolved".into());
    }
    if cli.fail_fast {
        if let Some(s) = summaries.iter().find(|s| !s.outcome.is_ok()) {
            return Err(format!("--fail-fast: module `{}` {}", s.name, s.outcome));
        }
    }

    let rollup = rollup_json(
        &cli.configs,
        &summaries,
        &totals,
        &stats,
        cli.window,
        wall_ms,
    );
    if let Some(dir) = &cli.out_dir {
        create_out(dir)?;
        for report in &held {
            write_report(dir, report)?;
            written += 1;
        }
        let summary = format!("{dir}/fleet_summary.json");
        std::fs::write(&summary, &rollup).map_err(|e| format!("cannot write {summary}: {e}"))?;
        eprintln!("wrote {written} module reports + fleet_summary.json to {dir}");
    }
    print!("{rollup}");

    if stats.failed > 0 {
        for s in summaries.iter().filter(|s| !s.outcome.is_ok()) {
            eprintln!("quarantined: {} — {}", s.name, s.outcome);
        }
        eprintln!(
            "{} of {} modules quarantined (exit 2: partial success)",
            stats.failed,
            summaries.len()
        );
        return Ok(2);
    }
    if stats.certify_unsound > 0 {
        // A stable sort keeps a module's configs in config order.
        unsound.sort_by_key(|&(index, _)| index);
        for (_, line) in &unsound {
            eprintln!("{line}");
        }
        eprintln!(
            "{} certification(s) unsound (exit 2: partial success)",
            stats.certify_unsound
        );
        return Ok(2);
    }
    Ok(0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => {
            return match serve::run(&args[1..]) {
                Ok(code) => ExitCode::from(code),
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("client") => {
            return match client::run(&args[1..]) {
                Ok(code) => ExitCode::from(code),
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {}
    }
    let cli = match parse_args(&args) {
        Ok(Parsed::Run(cli)) => cli,
        Ok(Parsed::Help) => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    match run(&cli) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

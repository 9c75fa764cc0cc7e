//! The timed end-to-end runs: real `fenceplace` processes and a real
//! daemon, with every output checked.

use crate::gen::{self, Kind, Request, Session, TextModule, CONFIG_ORDER};
use crate::oracle::{self, Expected, Report};
use crate::process::{self, Conn, Daemon, Exit};
use crate::stats::{median, quantile};
use crate::Workload;
use corpus::hash::{content_hash, hex, ContentHash};
use fenceplace::json::{file_stem, json_escape};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Where and how one run works.
pub struct Ctx {
    /// The `fenceplace` binary.
    pub bin: PathBuf,
    /// This run's private scratch directory inside the checkout.
    pub work: PathBuf,
    pub seed: u64,
}

/// One named metric value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The end-to-end metrics with their units, in report order. Every
/// workload reports all of them (see `perfbench/README.md` for what each
/// means on a one-shot workload and on the daemon).
pub const END_TO_END: [(&str, &str); 8] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("req_per_s", "1/s"),
    ("decided_frac", "ratio"),
];

fn end_to_end(values: [f64; 8]) -> Vec<Metric> {
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| metric(name, value, unit))
        .collect()
}

/// Operations attempted and failed, with the first few failures.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, n: u64, what: String) {
        self.attempted += n;
        self.failed += n;
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }
}

/// Size of a workload's generated inputs, recorded with every result.
#[derive(Clone, Debug, Default)]
pub struct InputSize {
    pub modules: usize,
    pub bytes: usize,
    pub insts: usize,
    pub hash: String,
}

fn input_size(texts: &[&str]) -> InputSize {
    let mut size = InputSize {
        hash: gen::inputs_hash(texts.iter().copied()),
        ..InputSize::default()
    };
    for t in texts {
        size.modules += 1;
        size.bytes += t.len();
        if let Ok(m) = fence_ir::parser::parse_module(t) {
            size.insts += m.funcs.iter().map(|f| f.insts.len()).sum::<usize>();
        }
    }
    size
}

fn path_str(p: &Path) -> String {
    p.display().to_string()
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).map_err(|e| format!("cannot create {}: {e}", path.display()))
}

// ---------------------------------------------------------------------------
// One-shot CLI workloads
// ---------------------------------------------------------------------------

/// Certification state budget of `certify_mix`: enough to decide every
/// litmus module, not enough for Matrix and Canneal.
pub const CERTIFY_STATES: u64 = 50_000;
/// Admission window of `cold_pack`.
pub const COLD_WINDOW: usize = 4;

/// A one-shot CLI workload, generated and written to disk.
pub struct CliPlan {
    pub modules: Vec<TextModule>,
    pub config_specs: Vec<&'static str>,
    pub args: Vec<String>,
    pub out: PathBuf,
    /// The CLI's job name of each module, in module order.
    pub names: Vec<String>,
    pub expected_code: i32,
    pub certify: bool,
}

impl CliPlan {
    pub fn size(&self) -> InputSize {
        let texts: Vec<&str> = self.modules.iter().map(|m| m.text.as_str()).collect();
        input_size(&texts)
    }
}

fn generate(w: Workload, seed: u64) -> Vec<TextModule> {
    match w {
        Workload::ColdPack => gen::cold_pack(seed),
        Workload::ConfigSweep => gen::config_sweep(seed),
        Workload::CertifyMix => gen::certify_mix(seed),
        Workload::ServeEdit => unreachable!("serve_edit is not a one-shot workload"),
    }
}

/// Generates and writes the inputs of a one-shot workload.
pub fn write_cli_inputs(w: Workload, ctx: &Ctx) -> Result<CliPlan, String> {
    let modules = generate(w, ctx.seed);
    let inputs = ctx.work.join("inputs");
    fresh_dir(&inputs)?;
    let out = ctx.work.join("out");
    let mut args: Vec<String> = Vec::new();
    let names: Vec<String>;
    let mut config_specs = vec!["Control:x86tso"];
    let mut expected_code = 0;
    let mut certify = false;
    if w == Workload::ColdPack {
        let pack = inputs.join("corpus.pack");
        let text: String = modules.iter().map(|m| m.text.as_str()).collect();
        write(&pack, &text)?;
        let spec = format!("pack:{}", path_str(&pack));
        names = (0..modules.len()).map(|i| format!("{spec}#{i}")).collect();
        args.extend(["--program".into(), spec, "--stream".into()]);
        args.extend(["--window".into(), COLD_WINDOW.to_string()]);
        expected_code = 2; // the malformed modules are quarantined
    } else {
        let mut n = Vec::new();
        for (i, m) in modules.iter().enumerate() {
            let file = inputs.join(format!("m{i:03}.ir"));
            write(&file, &m.text)?;
            n.push(format!("file:{}", path_str(&file)));
        }
        names = n;
        args.extend(["--program".into(), format!("dir:{}", path_str(&inputs))]);
        if w == Workload::ConfigSweep {
            config_specs = CONFIG_ORDER.to_vec();
            config_specs.push("Manual:x86tso");
        } else {
            config_specs = vec!["Control:x86tso", "Control:weak"];
            args.extend(["--certify".into(), "--certify-states".into()]);
            args.push(CERTIFY_STATES.to_string());
            certify = true;
        }
        for c in &config_specs {
            args.extend(["--config".into(), c.to_string()]);
        }
    }
    args.extend(["--out".into(), path_str(&out)]);
    Ok(CliPlan {
        modules,
        config_specs,
        args,
        out,
        names,
        expected_code,
        certify,
    })
}

/// The process runs of a one-shot workload.
pub struct CliRuns {
    /// The unmeasured set-up runs; the first one's reports are checked
    /// against the oracle.
    pub setup: Vec<Exit>,
    /// The measured runs.
    pub exits: Vec<Exit>,
    /// The parsed reports of the checked run, in module order.
    pub reports: Vec<Option<Report>>,
    /// `fleet_summary.json` of the last run.
    pub rollup: String,
}

fn read_reports(plan: &CliPlan) -> Vec<Option<String>> {
    plan.names
        .iter()
        .map(|n| std::fs::read_to_string(plan.out.join(format!("{}.json", file_stem(n)))).ok())
        .collect()
}

/// Runs the workload `setup_reps` times unmeasured, checking the first
/// run's reports against the oracle, then repeats it for `seconds` (at
/// least `min_runs` times). Every later run's reports must be
/// byte-identical to the checked run's.
pub fn run_cli(
    plan: &CliPlan,
    expected: &[Expected],
    ctx: &Ctx,
    seconds: f64,
    setup_reps: usize,
    min_runs: usize,
    tally: &mut Tally,
) -> Result<CliRuns, String> {
    let log = ctx.work.join("fenceplace.stderr");
    let once = |tally: &mut Tally| -> Result<(Exit, Vec<Option<String>>), String> {
        let _ = std::fs::remove_dir_all(&plan.out);
        let exit = process::run(&ctx.bin, &plan.args, &log)?;
        if exit.code != plan.expected_code {
            let stderr = std::fs::read_to_string(&log).unwrap_or_default();
            tally.fail(
                1,
                format!(
                    "fenceplace exited {} (expected {}): {}",
                    exit.code,
                    plan.expected_code,
                    stderr.lines().last().unwrap_or("")
                ),
            );
        }
        Ok((exit, read_reports(plan)))
    };

    let (first, baseline) = once(tally)?;
    let mut reports = Vec::with_capacity(baseline.len());
    for (i, (text, exp)) in baseline.iter().zip(expected).enumerate() {
        let parsed = match text {
            Some(t) => oracle::parse_report(t),
            None => Err("no report written".to_string()),
        };
        match parsed.and_then(|r| oracle::check(&r, exp, plan.certify).map(|()| r)) {
            Ok(r) => {
                tally.ok(1);
                reports.push(Some(r));
            }
            Err(e) => {
                tally.fail(1, format!("{}: {e}", plan.names[i]));
                reports.push(None);
            }
        }
    }

    let again = |tally: &mut Tally| -> Result<Exit, String> {
        let (exit, texts) = once(tally)?;
        for (i, (t, b)) in texts.iter().zip(&baseline).enumerate() {
            if t.is_some() && t == b {
                tally.ok(1);
            } else {
                tally.fail(1, format!("{}: report differs between runs", plan.names[i]));
            }
        }
        Ok(exit)
    };
    let mut setup = vec![first];
    while setup.len() < setup_reps {
        setup.push(again(tally)?);
    }
    let mut exits = Vec::new();
    let t0 = Instant::now();
    while exits.len() < min_runs || t0.elapsed().as_secs_f64() < seconds {
        exits.push(again(tally)?);
    }
    let rollup = std::fs::read_to_string(plan.out.join("fleet_summary.json")).unwrap_or_default();
    Ok(CliRuns {
        setup,
        exits,
        reports,
        rollup,
    })
}

/// The end-to-end metrics of a one-shot workload. Set-up is the median
/// of the unmeasured runs, which page the binary and the inputs in and
/// would pay for any work moved out of the measured runs. A process is
/// the only request a one-shot run has, so `p50_ms` and `p99_ms` both
/// read the median process wall (15 to 70 processes cannot support a
/// 99th percentile), and `req_per_s` is module reports per second of it.
pub fn cli_metrics(plan: &CliPlan, runs: &CliRuns) -> Vec<Metric> {
    let walls: Vec<f64> = runs.exits.iter().map(|e| e.wall_s).collect();
    let setup: Vec<f64> = runs.setup.iter().map(|e| e.wall_s).collect();
    let cpus: Vec<f64> = runs.exits.iter().map(|e| e.cpu_s).collect();
    let rss: Vec<f64> = runs.exits.iter().map(|e| e.peak_rss_mb).collect();
    let wall = median(&walls);
    let decided_frac = if plan.certify {
        let certs: Vec<&str> = runs
            .reports
            .iter()
            .flatten()
            .flat_map(|r| r.certs.iter().map(|c| c.status.as_str()))
            .collect();
        certs.iter().filter(|s| oracle::decided(s)).count() as f64 / certs.len().max(1) as f64
    } else {
        // Without certification the verdict is the report status itself.
        runs.reports.iter().flatten().count() as f64 / plan.modules.len().max(1) as f64
    };
    end_to_end([
        wall,
        median(&cpus),
        median(&rss),
        median(&setup),
        wall * 1e3,
        wall * 1e3,
        plan.modules.len() as f64 / wall,
        decided_frac,
    ])
}

// ---------------------------------------------------------------------------
// The daemon workload
// ---------------------------------------------------------------------------

/// Concurrent closed-loop client connections.
pub const CONNECTIONS: usize = 2;
/// Daemon cache capacity, below the initial working set of 36 modules.
pub const CACHE_CAP: usize = 28;

/// The wire fields of one analyze request.
pub fn analyze_fields(req: &Request) -> String {
    let configs: Vec<String> = CONFIG_ORDER[..req.configs]
        .iter()
        .map(|c| format!("\"{c}\""))
        .collect();
    format!(
        "\"type\":\"analyze\",\"module\":\"{}\",\"text\":\"{}\",\"configs\":[{}]",
        json_escape(&req.name),
        json_escape(&req.text),
        configs.join(",")
    )
}

/// The parts of a `report` reply the benchmark reads; `report` is still
/// JSON-escaped, exactly as on the wire.
pub struct Reply {
    pub cache: String,
    pub status: String,
    pub report: String,
}

pub fn parse_reply(line: &str) -> Result<Reply, String> {
    let short = || line.chars().take(200).collect::<String>();
    if !line.contains("\"type\":\"report\"") || !line.ends_with("\"}") {
        return Err(format!("not a report: {}", short()));
    }
    let field = |key: &str| -> Result<String, String> {
        let pat = format!("\"{key}\":\"");
        let at = line.find(&pat).ok_or_else(short)? + pat.len();
        let len = line[at..].find('"').ok_or_else(short)?;
        Ok(line[at..at + len].to_string())
    };
    let pat = "\"report\":\"";
    let at = line.find(pat).ok_or_else(short)? + pat.len();
    Ok(Reply {
        cache: field("cache")?,
        status: field("status")?,
        report: line[at..line.len() - 2].to_string(),
    })
}

/// One completed request of the measured phase.
pub struct Sample {
    pub kind: Kind,
    pub cache: String,
    /// Size of the request's module text.
    pub bytes: usize,
    pub latency_s: f64,
}

/// What the client connections saw: every reply, kept for the check
/// against the CLI after the run, plus the samples and failures.
#[derive(Default)]
struct ClientLog {
    texts: HashMap<ContentHash, Arc<str>>,
    /// (module name, text hash, config count) -> escaped report, and how
    /// many replies carried it.
    reports: BTreeMap<(String, ContentHash, usize), (String, u64)>,
    samples: Vec<Sample>,
    sent: usize,
    tally: Tally,
}

impl ClientLog {
    /// Sends `req` and records the reply.
    fn send(&mut self, conn: &mut Conn, req: &Request) {
        self.sent += 1;
        let reply = conn
            .call(&analyze_fields(req))
            .and_then(|(line, dt)| Ok((parse_reply(&line)?, dt)));
        let (reply, dt) = match reply {
            Ok(r) => r,
            Err(e) => return self.tally.fail(1, format!("{}: {e}", req.name)),
        };
        if reply.status != "ok" {
            self.tally
                .fail(1, format!("{}: status `{}`", req.name, reply.status));
        } else {
            let hash = content_hash(&req.text);
            self.texts.entry(hash).or_insert_with(|| req.text.clone());
            self.add_report((req.name.clone(), hash, req.configs), reply.report, 1);
        }
        self.samples.push(Sample {
            kind: req.kind,
            cache: reply.cache,
            bytes: req.text.len(),
            latency_s: dt.as_secs_f64(),
        });
    }

    /// Records `n` replies carrying `report` for `key`; the same request
    /// must always get the same report.
    fn add_report(&mut self, key: (String, ContentHash, usize), report: String, n: u64) {
        match self.reports.get_mut(&key) {
            Some((r, m)) if *r == report => *m += n,
            Some(_) => self
                .tally
                .fail(n, format!("{}: same request, different report", key.0)),
            None => {
                self.reports.insert(key, (report, n));
            }
        }
    }

    /// Folds another connection's log into this one.
    fn absorb(&mut self, other: ClientLog) {
        self.texts.extend(other.texts);
        for (key, (report, n)) in other.reports {
            self.add_report(key, report, n);
        }
        self.samples.extend(other.samples);
        self.sent += other.sent;
        self.tally.attempted += other.tally.attempted;
        self.tally.failed += other.tally.failed;
        for e in other.tally.errors {
            if self.tally.errors.len() < 20 {
                self.tally.errors.push(e);
            }
        }
    }
}

/// The generated sessions of `serve_edit`.
pub struct ServePlan {
    pub sessions: Vec<Session>,
}

impl ServePlan {
    pub fn size(&self) -> InputSize {
        let texts: Vec<&str> = self.sessions.iter().flat_map(Session::texts).collect();
        input_size(&texts)
    }
}

pub fn serve_plan(seed: u64) -> ServePlan {
    ServePlan {
        sessions: (0..CONNECTIONS)
            .map(|c| Session::new(seed, c, CONNECTIONS))
            .collect(),
    }
}

/// What the measured daemon phase produced.
pub struct ServeRun {
    pub samples: Vec<Sample>,
    /// Requests sent in the measured phase, answered or not.
    pub sent: usize,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub setup_s: f64,
    /// The daemon's `stats` reply after the measured phase.
    pub stats: String,
}

/// Runs `f(session, conn)` on one thread per connection and collects the
/// results in connection order.
fn per_conn<T: Send>(
    sessions: &mut [Session],
    conns: &mut [Conn],
    f: impl Fn(&mut Session, &mut Conn) -> T + Sync,
) -> Vec<T> {
    std::thread::scope(|s| {
        let handles: Vec<_> = sessions
            .iter_mut()
            .zip(conns.iter_mut())
            .map(|(session, conn)| {
                let f = &f;
                s.spawn(move || f(session, conn))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Starts a fresh daemon and primes it with every session's working set.
fn start_primed(
    ctx: &Ctx,
    plan: &mut ServePlan,
    socket: &Path,
    log: &mut ClientLog,
) -> Result<(Daemon, Vec<Conn>), String> {
    let args = vec!["--cache-cap".to_string(), CACHE_CAP.to_string()];
    let daemon = Daemon::start(&ctx.bin, socket, &args, &ctx.work.join("daemon.stderr"))?;
    let mut conns = (0..CONNECTIONS)
        .map(|_| Conn::open(daemon.socket()))
        .collect::<Result<Vec<_>, _>>()?;
    for primed in per_conn(&mut plan.sessions, &mut conns, |session, conn| {
        let mut log = ClientLog::default();
        for req in session.initial() {
            log.send(conn, &req);
        }
        log
    }) {
        log.absorb(primed);
    }
    Ok((daemon, conns))
}

/// Sets up the daemon `reps` times (spawn, `hello`, priming pass) and
/// keeps the last one, then drives it with closed-loop clients for
/// `seconds`, then stops it.
pub fn run_serve(
    plan: &mut ServePlan,
    ctx: &Ctx,
    seconds: f64,
    reps: usize,
    tally: &mut Tally,
) -> Result<(ServeRun, ServeCheck), String> {
    let socket = ctx.work.join("sock").join("fenceplace.sock");
    fresh_dir(socket.parent().expect("socket dir"))?;
    let mut setup = Vec::new();
    let (daemon, mut conns, mut log) = loop {
        let mut primed = ClientLog::default();
        let t0 = Instant::now();
        let (daemon, conns) = start_primed(ctx, plan, &socket, &mut primed)?;
        setup.push(t0.elapsed().as_secs_f64());
        if setup.len() >= reps {
            break (daemon, conns, primed);
        }
        drop(conns);
        daemon.stop()?;
    };

    let pid = daemon.pid();
    let cpu0 = process::proc_cpu_s(pid)?;
    let barrier = Barrier::new(CONNECTIONS);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut measured = ClientLog::default();
    let mut end = start;
    for (log, done) in per_conn(&mut plan.sessions, &mut conns, |session, conn| {
        let mut log = ClientLog::default();
        barrier.wait();
        while Instant::now() < deadline {
            log.send(conn, &session.next_request());
        }
        (log, Instant::now())
    }) {
        measured.absorb(log);
        end = end.max(done);
    }
    let wall_s = (end - start).as_secs_f64();
    let cpu_s = process::proc_cpu_s(pid)? - cpu0;
    let peak_rss_mb = process::proc_peak_rss_mb(pid)?;
    drop(conns);
    let stats = Conn::open(daemon.socket())
        .and_then(|mut c| c.call("\"type\":\"stats\"").map(|(line, _)| line))
        .unwrap_or_default();
    if let Err(e) = daemon.stop() {
        tally.fail(1, e);
    }
    let samples = std::mem::take(&mut measured.samples);
    let sent = measured.sent;
    log.absorb(measured);
    tally.attempted += log.tally.attempted;
    tally.failed += log.tally.failed;
    tally.errors.extend(log.tally.errors.iter().cloned());
    Ok((
        ServeRun {
            samples,
            sent,
            wall_s,
            cpu_s,
            peak_rss_mb,
            setup_s: median(&setup),
            stats,
        },
        ServeCheck { log },
    ))
}

/// The replies of a daemon run, to be checked against the CLI.
pub struct ServeCheck {
    log: ClientLog,
}

impl ServeCheck {
    /// Checks that every reply is byte-equal to the report the one-shot
    /// CLI writes for the same text and configs (the `module` field
    /// carries the request's name instead of the CLI's file name).
    pub fn verify(&self, ctx: &Ctx, tally: &mut Tally) -> Result<(), String> {
        let mut by_configs: BTreeMap<usize, Vec<ContentHash>> = BTreeMap::new();
        for (_, hash, k) in self.log.reports.keys() {
            by_configs.entry(*k).or_default().push(*hash);
        }
        let refs = ctx.work.join("ref");
        fresh_dir(&refs)?;
        let mut cli_reports: HashMap<(ContentHash, usize), (String, String)> = HashMap::new();
        for (k, mut hashes) in by_configs {
            hashes.sort_unstable();
            hashes.dedup();
            let dir = refs.join(format!("k{k}"));
            let out = refs.join(format!("k{k}-out"));
            fresh_dir(&dir)?;
            for h in &hashes {
                write(&dir.join(format!("{}.ir", hex(h))), &self.log.texts[h])?;
            }
            let mut args = vec!["--program".to_string(), format!("dir:{}", path_str(&dir))];
            for c in &CONFIG_ORDER[..k] {
                args.extend(["--config".to_string(), c.to_string()]);
            }
            args.extend(["--out".to_string(), path_str(&out)]);
            let exit = process::run(&ctx.bin, &args, &refs.join(format!("k{k}.stderr")))?;
            if exit.code != 0 {
                tally.fail(1, format!("reference CLI run exited {}", exit.code));
            }
            for h in hashes {
                let name = format!("file:{}", path_str(&dir.join(format!("{}.ir", hex(&h)))));
                let report =
                    std::fs::read_to_string(out.join(format!("{}.json", file_stem(&name))))
                        .unwrap_or_default();
                cli_reports.insert((h, k), (name, report));
            }
        }
        for ((name, hash, k), (served, n)) in &self.log.reports {
            let (cli_name, cli_report) = &cli_reports[&(*hash, *k)];
            let expected = json_escape(&cli_report.replacen(
                &format!("\"module\": \"{}\"", json_escape(cli_name)),
                &format!("\"module\": \"{}\"", json_escape(name)),
                1,
            ));
            if cli_report.is_empty() || *served != expected {
                tally.fail(*n, format!("{name}: served report differs from the CLI's"));
            } else {
                tally.ok(*n);
            }
        }
        Ok(())
    }
}

/// The end-to-end metrics of `serve_edit`. `wall_s` and `cpu_s` are per
/// 100 requests, so `wall_s` is `100 / req_per_s`.
pub fn serve_metrics(run: &ServeRun) -> Vec<Metric> {
    let lat: Vec<f64> = run.samples.iter().map(|s| s.latency_s).collect();
    let n = lat.len().max(1) as f64;
    // A request is decided when it came back as a report.
    let decided = lat.len() as f64 / run.sent.max(1) as f64;
    end_to_end([
        run.wall_s * 100.0 / n,
        run.cpu_s * 100.0 / n,
        run.peak_rss_mb,
        run.setup_s,
        quantile(&lat, 0.5) * 1e3,
        quantile(&lat, 0.99) * 1e3,
        n / run.wall_s,
        decided,
    ])
}

//! The traced run: each workload's seeded inputs replayed in process
//! through the public functions of every layer, in pipeline order, with
//! spans recorded here around each call. Spans stay in memory and are
//! written out at the end as Chrome trace-event JSON (Perfetto and
//! `chrome://tracing` open it). A short end-to-end run of the real
//! binary in the same mode supplies the counters only the program itself
//! reports: the roll-up's `fleet` and `stream` blocks and the daemon's
//! `stats`.

use crate::gen::{Kind, Session};
use crate::stats::{median, quantile};
use crate::timed::{self, metric, Ctx, Metric, Tally};
use crate::{oracle, Workload};
use corpus::hash::{content_hash, func_hashes};
use fence_analysis::alias::AliasOracle;
use fence_analysis::{EscapeInfo, PointsTo};
use fence_ir::{FuncId, FuncSubstrate, Module};
use fenceplace::acquire::{detect_acquires_with, pensieve_all_reads, AcquireInfo, DetectMode};
use fenceplace::minimize::minimize_function;
use fenceplace::service::wire::{self, parse_json, Json, Request as WireRequest};
use fenceplace::{
    certify, run_fleet_opts, run_fleet_streamed, CertifyOptions, FleetJob, FleetOptions,
    FleetResult, FuncOrderings, PipelineConfig, Service, ServiceOptions, StreamItem,
    SyncAggregates, TargetModel, Variant,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One recorded span. `parent` indexes the enclosing span.
pub struct Span {
    pub name: &'static str,
    pub module: Option<String>,
    pub config: Option<String>,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
}

/// An in-memory span recorder for one thread of replay.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span named `name`, nested in the open span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        module: Option<&str>,
        config: Option<&str>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            module: module.map(str::to_string),
            config: config.map(str::to_string),
            start: self.t0.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end = self.t0.elapsed();
        r
    }

    /// Sets the config attribute of the innermost open span (for
    /// attributes known only once the work is done).
    pub fn tag(&mut self, config: &str) {
        if let Some(&i) = self.open.last() {
            self.spans[i].config = Some(config.to_string());
        }
    }

    /// Each span's self time in ms: its duration minus the time its
    /// children cover.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end - s.start).saturating_sub(c).as_secs_f64() * 1e3)
            .collect()
    }

    /// Spans with their self times.
    pub fn with_self(&self) -> impl Iterator<Item = (&Span, f64)> {
        self.spans.iter().zip(self.self_ms())
    }

    /// Total self time of the spans `pred` selects.
    pub fn sum_ms(&self, pred: impl Fn(&Span) -> bool) -> f64 {
        self.with_self()
            .filter(|(s, _)| pred(s))
            .map(|(_, ms)| ms)
            .sum()
    }

    /// Total self time of the spans named `name`.
    pub fn named_ms(&self, name: &str) -> f64 {
        self.sum_ms(|s| s.name == name)
    }

    /// Wall time of the first span named `name`.
    pub fn wall_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| (s.end - s.start).as_secs_f64() * 1e3)
    }

    /// The spans as Chrome trace-event JSON ("complete" events).
    pub fn chrome_json(&self) -> String {
        let esc = fenceplace::json::json_escape;
        let opt = |v: &Option<String>| match v {
            Some(s) => format!("\"{}\"", esc(s)),
            None => "null".to_string(),
        };
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let us = |d: Duration| d.as_secs_f64() * 1e6;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\
                 \"args\":{{\"id\":{i},\"parent\":{},\"module\":{},\"config\":{}}}}}{}\n",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                us(s.start),
                us(s.end - s.start),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                opt(&s.module),
                opt(&s.config),
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Checks that `text` is Chrome trace-event JSON: an object whose
/// `traceEvents` array holds complete events with a name, start and
/// duration. Returns the event count.
pub fn check_chrome_json(text: &str) -> Result<usize, String> {
    let v = parse_json(text)?;
    let events = v
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("no traceEvents array")?;
    for e in events {
        let num = |k: &str| matches!(e.get(k), Some(Json::Num(_)));
        if e.get("name").and_then(Json::as_str).is_none()
            || e.get("ph").and_then(Json::as_str) != Some("X")
            || !num("ts")
            || !num("dur")
        {
            return Err("malformed trace event".into());
        }
    }
    Ok(events.len())
}

/// Short tag of an automatic variant, for metric names.
fn variant_tag(v: Variant) -> &'static str {
    match v {
        Variant::Pensieve => "pensieve",
        Variant::Control => "control",
        Variant::AddressControl => "addrctl",
        Variant::Manual => "manual",
    }
}

fn config_tag(c: &PipelineConfig) -> String {
    format!(
        "{}_{}",
        variant_tag(c.variant),
        fenceplace::json::target_name(c.target)
    )
}

const TARGETS: [TargetModel; 3] = [
    TargetModel::X86Tso,
    TargetModel::Weak,
    TargetModel::ScHardware,
];
const SIZE_BUCKETS: [(&str, usize); 3] = [("lt4k", 4096), ("4k_16k", 16384), ("ge16k", usize::MAX)];

/// Index in [`SIZE_BUCKETS`] of a request text of `bytes`.
fn size_bucket(bytes: usize) -> usize {
    SIZE_BUCKETS
        .iter()
        .position(|&(_, max)| bytes < max)
        .unwrap_or(SIZE_BUCKETS.len() - 1)
}

/// Every per-layer metric, with its unit and which direction is better,
/// in the order they are reported. Every traced run reports all of them;
/// a layer the workload bypasses reads 0.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut v: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |n: &str, unit, better| v.push((n.to_string(), unit, better));
    add("manifest.split_ms", "ms", "lower");
    add("parser.parse_ms", "ms", "lower");
    add("parser.mb_per_s", "MB/s", "higher");
    add("verify.ms", "ms", "lower");
    add("analysis.points_to_ms", "ms", "lower");
    add("analysis.escape_ms", "ms", "lower");
    add("cfg.substrate_ms", "ms", "lower");
    add("cfg.unique_rows", "count", "lower");
    add("cfg.row_hits", "count", "higher");
    add("orderings.ms", "ms", "lower");
    add("acquire.ms", "ms", "lower");
    for v in Variant::automatic() {
        add(&format!("acquire.{}.ms", variant_tag(v)), "ms", "lower");
    }
    add("minimize.ms", "ms", "lower");
    for v in Variant::automatic() {
        for t in TARGETS {
            let c = PipelineConfig {
                variant: v,
                target: t,
                parallel: false,
            };
            add(&format!("minimize.{}.ms", config_tag(&c)), "ms", "lower");
        }
    }
    add("json.render_ms", "ms", "lower");
    add("fleet.wall_ms", "ms", "lower");
    add("fleet.overhead_ms", "ms", "lower");
    add("fleet.pool_speedup", "x", "higher");
    add("fleet.peak_resident_modules", "count", "lower");
    add("hash.content_ms", "ms", "lower");
    add("hash.func_ms", "ms", "lower");
    for (b, _) in SIZE_BUCKETS {
        add(&format!("wire.decode_ms.{b}"), "ms", "lower");
    }
    for (b, _) in SIZE_BUCKETS {
        add(&format!("wire.encode_ms.{b}"), "ms", "lower");
    }
    add("service.hit_ms", "ms", "lower");
    add("service.incremental_ms", "ms", "lower");
    add("service.miss_ms", "ms", "lower");
    add("service.hit_ratio", "ratio", "higher");
    add("service.evictions", "count", "lower");
    add("service.substrates_reused", "count", "higher");
    add("service.analyses", "count", "lower");
    add("serve.hit_p99_ms", "ms", "lower");
    add("serve.incremental_p99_ms", "ms", "lower");
    add("serve.miss_p99_ms", "ms", "lower");
    for (b, _) in SIZE_BUCKETS {
        add(&format!("serve.p99_ms.{b}"), "ms", "lower");
    }
    add("serve.transport_ms", "ms", "lower");
    add("certify.ms", "ms", "lower");
    add("check.states", "count", "lower");
    add("check.states_per_s", "1/s", "higher");
    for verdict in ["certified", "not_minimal", "inconclusive", "skipped"] {
        let better = if verdict == "certified" {
            "higher"
        } else {
            "lower"
        };
        add(&format!("certify.{verdict}"), "count", better);
    }
    add("trace.coverage", "ratio", "higher");
    v
}

/// Layer spans whose self times make up a replay of the pipeline
/// (`trace.coverage` sums these).
const STAGE_SPANS: [&str; 13] = [
    "manifest.split",
    "parser.parse",
    "verify",
    "analysis.points_to",
    "analysis.escape",
    "cfg.substrate",
    "orderings",
    "acquire.oracle",
    "acquire",
    "minimize",
    "json.render",
    "certify",
    "module",
];

/// Replays one module through every layer of the pipeline, as the fleet
/// runs it for `configs`. Returns the parsed module when it is valid.
fn replay_module(
    t: &mut Tracer,
    name: &str,
    text: &str,
    configs: &[PipelineConfig],
) -> Option<Module> {
    let m = Some(name);
    t.span("module", m, None, |t| {
        let module = t
            .span("parser.parse", m, None, |_| {
                fence_ir::parser::parse_module(text)
            })
            .ok()?;
        t.span("verify", m, None, |_| {
            fence_ir::verify_module_checked(&module)
        })
        .ok()?;
        if configs.iter().all(|c| c.variant == Variant::Manual) {
            return Some(module);
        }
        let pt = t.span("analysis.points_to", m, None, |_| {
            PointsTo::analyze(&module)
        });
        let escape = t.span("analysis.escape", m, None, |_| {
            EscapeInfo::analyze(&module, &pt)
        });
        let subs: Vec<FuncSubstrate> = t.span("cfg.substrate", m, None, |_| {
            module.funcs.iter().map(FuncSubstrate::new).collect()
        });
        let ords: Vec<FuncOrderings> = t.span("orderings", m, None, |_| {
            module
                .iter_funcs()
                .map(|(fid, _)| {
                    let o = FuncOrderings::generate(&module, &escape, fid, &subs[fid.index()]);
                    black_box(o.counts());
                    o
                })
                .collect()
        });
        let oracles: Vec<AliasOracle> = t.span("acquire.oracle", m, None, |_| {
            module
                .iter_funcs()
                .map(|(fid, _)| AliasOracle::new(&module, &pt, fid))
                .collect()
        });
        let mut infos: HashMap<&'static str, Vec<AcquireInfo>> = HashMap::new();
        for c in configs {
            let tag = variant_tag(c.variant);
            if c.variant == Variant::Manual || infos.contains_key(tag) {
                continue;
            }
            let v = t.span("acquire", m, Some(tag), |_| {
                module
                    .iter_funcs()
                    .map(|(fid, func)| match c.variant {
                        Variant::Pensieve => pensieve_all_reads(&module, &escape, fid),
                        _ => {
                            let mode = if c.variant == Variant::Control {
                                DetectMode::Control
                            } else {
                                DetectMode::AddressControl
                            };
                            detect_acquires_with(
                                func,
                                &oracles[fid.index()],
                                escape.escaping_set(fid),
                                mode,
                            )
                        }
                    })
                    .collect()
            });
            infos.insert(tag, v);
        }
        // One `SyncAggregates` per (function, variant), shared by every
        // target of the variant, as the fleet's `FuncContext` caches it:
        // the first config of a variant pays for it.
        let mut aggs: HashMap<&'static str, Vec<SyncAggregates>> = HashMap::new();
        for c in configs.iter().filter(|c| c.variant != Variant::Manual) {
            let tag = variant_tag(c.variant);
            let (ords, info) = (&ords, &infos[tag]);
            let kept = move |fid: FuncId| match c.variant {
                Variant::Pensieve => ords[fid.index()].all(),
                _ => ords[fid.index()].prune(&info[fid.index()].sync_reads),
            };
            t.span("minimize", m, Some(&config_tag(c)), |_| {
                let aggs = aggs.entry(tag).or_insert_with(|| {
                    module
                        .iter_funcs()
                        .map(|(fid, _)| kept(fid).aggregates())
                        .collect()
                });
                for (fid, func) in module.iter_funcs() {
                    let (sel, a) = (kept(fid), &aggs[fid.index()]);
                    black_box(sel.counts_with(a));
                    black_box(minimize_function(
                        func,
                        fid,
                        &sel,
                        a,
                        c.target,
                        !info[fid.index()].sync_reads.is_empty(),
                    ));
                }
            });
        }
        Some(module)
    })
}

/// Per-layer values, by name.
type Values = HashMap<String, f64>;

fn put(v: &mut Values, name: impl Into<String>, value: f64) {
    // `+ 0.0` turns the -0.0 of an empty sum into 0.
    v.insert(name.into(), value + 0.0);
}

/// Values read from the pipeline replay's spans.
fn stage_values(t: &Tracer, v: &mut Values, parsed_bytes: usize) {
    let parse = t.named_ms("parser.parse");
    put(v, "manifest.split_ms", t.named_ms("manifest.split"));
    put(v, "parser.parse_ms", parse);
    put(
        v,
        "parser.mb_per_s",
        if parse > 0.0 {
            parsed_bytes as f64 / 1e3 / parse
        } else {
            0.0
        },
    );
    put(v, "verify.ms", t.named_ms("verify"));
    put(v, "analysis.points_to_ms", t.named_ms("analysis.points_to"));
    put(v, "analysis.escape_ms", t.named_ms("analysis.escape"));
    put(v, "cfg.substrate_ms", t.named_ms("cfg.substrate"));
    put(v, "orderings.ms", t.named_ms("orderings"));
    put(
        v,
        "acquire.ms",
        t.named_ms("acquire.oracle") + t.named_ms("acquire"),
    );
    for var in Variant::automatic() {
        let tag = variant_tag(var);
        put(
            v,
            format!("acquire.{tag}.ms"),
            t.sum_ms(|s| s.name == "acquire" && s.config.as_deref() == Some(tag)),
        );
    }
    put(v, "minimize.ms", t.named_ms("minimize"));
    for (s, ms) in t.with_self().filter(|(s, _)| s.name == "minimize") {
        let key = format!("minimize.{}.ms", s.config.as_deref().unwrap_or("none"));
        *v.entry(key).or_default() += ms;
    }
}

/// Reads `"key": {... "field": N ...}` numbers out of a roll-up.
fn rollup_num(rollup: &Json, block: &str, field: &str) -> f64 {
    rollup
        .get(block)
        .and_then(|b| b.get(field))
        .and_then(Json::as_u64)
        .map_or(0.0, |n| n as f64)
}

/// What the traced run produced.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub size: timed::InputSize,
    pub trace_file: std::path::PathBuf,
    pub events: usize,
}

/// The traced run of workload `w`. `seconds` bounds the end-to-end part
/// and the daemon replay.
pub fn run(w: Workload, ctx: &Ctx, seconds: f64, tally: &mut Tally) -> Result<Traced, String> {
    let mut t = Tracer::default();
    let mut v: Values = HashMap::new();
    let size = match w {
        Workload::ServeEdit => serve(ctx, seconds, &mut t, &mut v, tally)?,
        _ => cli(w, ctx, &mut t, &mut v, tally)?,
    };
    let json = t.chrome_json();
    let events = check_chrome_json(&json)?;
    let trace_file = std::path::PathBuf::from(".perfbench")
        .join("traces")
        .join(format!("{}-{}.json", w.name(), ctx.seed));
    std::fs::create_dir_all(trace_file.parent().expect("trace dir"))
        .map_err(|e| format!("cannot create trace dir: {e}"))?;
    std::fs::write(&trace_file, json).map_err(|e| format!("cannot write trace: {e}"))?;
    let metrics = per_layer()
        .into_iter()
        .map(|(name, unit, _)| {
            let value = v.get(&name).copied().unwrap_or(0.0);
            metric(name, value, unit)
        })
        .collect();
    Ok(Traced {
        metrics,
        size,
        trace_file,
        events,
    })
}

/// The one-shot workloads: one checked run of the real binary for its
/// roll-up and wall time, then the in-process replay.
fn cli(
    w: Workload,
    ctx: &Ctx,
    t: &mut Tracer,
    v: &mut Values,
    tally: &mut Tally,
) -> Result<timed::InputSize, String> {
    let plan = timed::write_cli_inputs(w, ctx)?;
    let configs = oracle::configs_of(&plan.config_specs);
    let expected = oracle::expect_all(&plan.modules, &configs)?;
    let runs = timed::run_cli(&plan, &expected, ctx, 0.0, 1, 1, tally)?;
    let wall_ms = runs.exits[0].wall_s * 1e3;
    let rollup = parse_json(&runs.rollup).unwrap_or(Json::Null);
    put(
        v,
        "cfg.unique_rows",
        rollup_num(&rollup, "fleet", "unique_rows"),
    );
    put(v, "cfg.row_hits", rollup_num(&rollup, "fleet", "row_hits"));
    put(
        v,
        "fleet.peak_resident_modules",
        rollup_num(&rollup, "stream", "peak_resident_modules"),
    );

    // The pipeline, module by module, in input order.
    let texts: Vec<(String, &str)> = plan
        .names
        .iter()
        .cloned()
        .zip(plan.modules.iter().map(|m| m.text.as_str()))
        .collect();
    if w == Workload::ColdPack {
        let pack: String = plan.modules.iter().map(|m| m.text.as_str()).collect();
        let chunks = t.span("manifest.split", None, None, |_| {
            corpus::split_corpus(&pack)
        });
        if chunks.len() != plan.modules.len() {
            tally.fail(1, format!("pack splits into {} modules", chunks.len()));
        }
    }
    let mut parsed = Vec::new();
    for (name, text) in &texts {
        if let Some(m) = replay_module(t, name, text, &configs) {
            parsed.push((name.clone(), m));
        }
    }
    let bytes: usize = texts.iter().map(|(_, s)| s.len()).sum();
    stage_values(t, v, bytes);
    let stage_ms: f64 = t.sum_ms(|s| STAGE_SPANS.contains(&s.name));

    // The fleet driver itself, pooled and sequential, as the CLI runs it.
    let certify_opts = plan.certify.then(|| CertifyOptions {
        max_states: timed::CERTIFY_STATES,
        ..CertifyOptions::default()
    });
    let fleet = |t: &mut Tracer, name: &'static str, parallel: bool| -> Vec<FleetResult> {
        let opts = FleetOptions {
            parallel,
            certify: certify_opts,
            window: (w == Workload::ColdPack).then_some(timed::COLD_WINDOW),
            ..FleetOptions::default()
        };
        t.span(name, None, None, |_| {
            if w == Workload::ColdPack {
                let items: Vec<StreamItem> = texts
                    .iter()
                    .map(|(name, text)| StreamItem::Text {
                        name: name.clone(),
                        text: text.to_string(),
                    })
                    .collect();
                let mut out = Vec::new();
                run_fleet_streamed(items, &configs, &opts, |_, fr| out.push(fr));
                out
            } else {
                let jobs: Vec<FleetJob> = parsed
                    .iter()
                    .map(|(name, m)| FleetJob::new(name.clone(), m, configs.clone()))
                    .collect();
                run_fleet_opts(&jobs, &opts).0
            }
        })
    };
    let results = fleet(t, "fleet.pooled", true);
    drop(fleet(t, "fleet.sequential", false));
    let pooled = t.wall_ms("fleet.pooled");
    let sequential = t.wall_ms("fleet.sequential");
    put(v, "fleet.wall_ms", pooled);
    put(v, "fleet.pool_speedup", sequential / pooled.max(1e-9));

    // Report rendering, and certification of each placement.
    let mut states = 0u64;
    let mut verdicts: HashMap<&'static str, f64> = HashMap::new();
    for fr in &results {
        t.span("json.render", Some(&fr.name), None, |_| {
            black_box(fenceplace::json::module_json(&fr.name, &configs, fr))
        });
        if let Some(opts) = &certify_opts {
            for (c, r) in configs.iter().zip(&fr.results) {
                let report = t.span("certify", Some(&fr.name), Some(&config_tag(c)), |_| {
                    certify(r, c.variant, c.target, opts)
                });
                states += report.states;
                *verdicts.entry(report.status().name()).or_default() += 1.0;
            }
        }
    }
    put(v, "json.render_ms", t.named_ms("json.render"));
    let certify_ms = t.named_ms("certify");
    put(v, "certify.ms", certify_ms);
    put(v, "check.states", states as f64);
    put(
        v,
        "check.states_per_s",
        if certify_ms > 0.0 {
            states as f64 / certify_ms * 1e3
        } else {
            0.0
        },
    );
    for (verdict, n) in verdicts {
        put(v, format!("certify.{verdict}"), n);
    }
    // Sequential fleet wall not explained by the replayed stages it runs.
    let fleet_stages = stage_ms
        - t.named_ms("manifest.split")
        - if w == Workload::ColdPack {
            0.0
        } else {
            t.named_ms("parser.parse") + t.named_ms("verify")
        }
        + certify_ms;
    put(v, "fleet.overhead_ms", sequential - fleet_stages);
    let covered = t.sum_ms(|s| STAGE_SPANS.contains(&s.name));
    put(v, "trace.coverage", covered / wall_ms);
    Ok(plan.size())
}

/// `serve_edit`: a short daemon run for its `stats` and per-disposition
/// latencies, then the same request stream replayed in process through
/// the wire codec and the service.
fn serve(
    ctx: &Ctx,
    seconds: f64,
    t: &mut Tracer,
    v: &mut Values,
    tally: &mut Tally,
) -> Result<timed::InputSize, String> {
    let mut plan = timed::serve_plan(ctx.seed);
    let size = plan.size();
    let (run, check) = timed::run_serve(&mut plan, ctx, seconds / 2.0, 1, tally)?;
    check.verify(ctx, tally)?;
    let stats = parse_json(&run.stats).unwrap_or(Json::Null);
    let stat = |k: &str| {
        stats
            .get(k)
            .and_then(Json::as_u64)
            .map_or(0.0, |n| n as f64)
    };
    put(
        v,
        "service.hit_ratio",
        stat("hits") / stat("analyze_requests").max(1.0),
    );
    put(v, "service.evictions", stat("evictions"));
    put(v, "service.substrates_reused", stat("substrates_reused"));
    put(v, "service.analyses", stat("analyses"));
    let e2e = |cache: &str| -> Vec<f64> {
        run.samples
            .iter()
            .filter(|s| s.cache == cache)
            .map(|s| s.latency_s * 1e3)
            .collect()
    };
    put(v, "serve.hit_p99_ms", quantile(&e2e("hit"), 0.99));
    put(
        v,
        "serve.incremental_p99_ms",
        quantile(&e2e("incremental"), 0.99),
    );
    put(v, "serve.miss_p99_ms", quantile(&e2e("miss"), 0.99));
    // The same latencies split by request text size, so that the size
    // mix's share of the headline p99 shows.
    for (i, (b, _)) in SIZE_BUCKETS.iter().enumerate() {
        let lat: Vec<f64> = run
            .samples
            .iter()
            .filter(|s| size_bucket(s.bytes) == i)
            .map(|s| s.latency_s * 1e3)
            .collect();
        put(v, format!("serve.p99_ms.{b}"), quantile(&lat, 0.99));
    }

    // In-process replay: the sessions' request streams interleaved, from
    // the priming pass on, until the time budget is spent.
    let mut sessions: Vec<Session> = timed::serve_plan(ctx.seed).sessions;
    let mut svc = Service::new(ServiceOptions {
        capacity: Some(timed::CACHE_CAP),
        ..ServiceOptions::default()
    });
    let mut priming = sessions
        .iter()
        .flat_map(Session::initial)
        .collect::<Vec<_>>()
        .into_iter();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds / 2.0);
    let mut decode = vec![Vec::new(); SIZE_BUCKETS.len()];
    let mut encode = vec![Vec::new(); SIZE_BUCKETS.len()];
    let mut by_cache: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut request_ms = Vec::new();
    let mut id = 0u64;
    loop {
        let req = match priming.next() {
            Some(req) => req,
            None if Instant::now() >= deadline => break,
            None => {
                let turn = id as usize % sessions.len();
                sessions[turn].next_request()
            }
        };
        id += 1;
        let line = format!("{{\"id\":{id},{}}}", timed::analyze_fields(&req));
        let bucket = size_bucket(req.text.len());
        let name = req.name.as_str();
        let first = t.spans.len();
        t.span("request", Some(name), Some(req.kind.name()), |t| {
            let parsed = t.span("wire.decode", Some(name), None, |_| {
                wire::parse_request(&line)
            });
            let Ok((
                id,
                WireRequest::Analyze {
                    module,
                    text: Some(text),
                    configs,
                    budget,
                    ..
                },
            )) = parsed
            else {
                tally.fail(1, format!("{name}: request does not decode"));
                return;
            };
            let out = t.span("service.analyze", Some(name), None, |t| {
                let out = svc.analyze(&module, &text, &configs, budget);
                t.tag(out.cache.name());
                out
            });
            t.span("wire.encode", Some(name), None, |_| {
                black_box(wire::report_json(
                    id,
                    &module,
                    out.cache.name(),
                    out.outcome.kind(),
                    Some(&out.hash),
                    false,
                    &out.report,
                ))
            });
        });
        // The request's children are leaves: their self time is their
        // duration.
        let ms = |s: &Span| (s.end - s.start).as_secs_f64() * 1e3;
        request_ms.push(ms(&t.spans[first]));
        for s in &t.spans[first + 1..] {
            match (s.name, s.config.as_deref()) {
                ("wire.decode", _) => decode[bucket].push(ms(s)),
                ("wire.encode", _) => encode[bucket].push(ms(s)),
                ("service.analyze", Some(cache)) => {
                    let cache = ["hit", "incremental"]
                        .into_iter()
                        .find(|c| *c == cache)
                        .unwrap_or("miss");
                    by_cache.entry(cache).or_default().push(ms(s));
                }
                _ => {}
            }
        }
        // The hashing layer on its own: the content key of every request,
        // per-function keys where the service parses (edits and misses).
        t.span("hash.content", Some(name), None, |_| {
            black_box(content_hash(&req.text))
        });
        if matches!(req.kind, Kind::Edit | Kind::Miss) {
            if let Ok(m) = fence_ir::parser::parse_module(&req.text) {
                t.span("hash.func", Some(name), None, |_| {
                    black_box(func_hashes(&m))
                });
            }
        }
    }
    for (i, (b, _)) in SIZE_BUCKETS.iter().enumerate() {
        put(v, format!("wire.decode_ms.{b}"), median(&decode[i]));
        put(v, format!("wire.encode_ms.{b}"), median(&encode[i]));
    }
    for (cache, name) in [
        ("hit", "service.hit_ms"),
        ("incremental", "service.incremental_ms"),
        ("miss", "service.miss_ms"),
    ] {
        put(
            v,
            name,
            median(by_cache.get(cache).map_or(&[][..], Vec::as_slice)),
        );
    }
    let n = request_ms.len().max(1) as f64;
    let funcs = t
        .spans
        .iter()
        .filter(|s| s.name == "hash.func")
        .count()
        .max(1) as f64;
    put(v, "hash.content_ms", t.named_ms("hash.content") / n);
    put(v, "hash.func_ms", t.named_ms("hash.func") / funcs);
    let hit_e2e = median(&e2e("hit"));
    put(
        v,
        "serve.transport_ms",
        hit_e2e - median(by_cache.get("hit").map_or(&[][..], Vec::as_slice)),
    );
    let e2e_mean = run.samples.iter().map(|s| s.latency_s * 1e3).sum::<f64>()
        / run.samples.len().max(1) as f64;
    put(
        v,
        "trace.coverage",
        request_ms.iter().sum::<f64>() / n / e2e_mean.max(1e-9),
    );
    Ok(size)
}

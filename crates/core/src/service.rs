//! Analysis as a service: the resident cache engine behind
//! `fenceplace serve`.
//!
//! A [`Service`] keeps analyzed modules resident between requests so a
//! fleet of clients hammering mostly-unchanged modules sees near-zero
//! marginal cost per request. The design constraints, in order:
//!
//! 1. **Byte-identity.** The report served for a module is byte-identical
//!    to what the one-shot CLI would emit for the same module text and
//!    config list — cold cache or warm (pinned by the differential test
//!    in `tests/service.rs`). Both paths render through [`crate::json`].
//! 2. **Content addressing.** Cache entries are keyed by the 128-bit
//!    content hash of the module *text* ([`corpus::hash::content_hash`]),
//!    never by the request's module name: same content under a different
//!    name is a hit, and a touched-but-unchanged file re-hashes to the
//!    same key. A side table maps each request name to the last content
//!    hash analyzed under it, which is what makes **function-granular
//!    dirty sets** possible: when a name re-arrives with changed text,
//!    the previous version's per-function hashes
//!    ([`corpus::hash::func_hashes`]) say exactly which functions
//!    changed, and only those rebuild their [`FuncSubstrate`]s — the
//!    same per-(module, function) work units the fleet schedules, just
//!    filtered to the dirty set. The
//!    module-wide [`ModuleAnalysis`] (points-to + escape) re-runs on any
//!    change — it is a whole-module fixpoint and caching it per function
//!    would be unsound.
//! 3. **Fleet semantics.** The service owns no stage code: every
//!    computation is a seeded run of the fleet executor
//!    ([`crate::fleet`]). The service hands it what the cache already
//!    holds — a validated flag, the module analysis, the substrates of
//!    unchanged functions, and which config lines are rendered — and the
//!    executor runs units, on the calling thread, only for what is
//!    missing, with the fleet's validation gate, per-unit `catch_unwind`
//!    isolation, stage attribution and fault hooks. The service renders
//!    the results it returns. A warm hit is a run over a seed that caches
//!    every config: it runs no unit, but every run charges the plan of the
//!    *full* request, so a budgeted request gets the same
//!    `deadline_exceeded` outcome whether or not the cache could have
//!    served it.
//!
//! Eviction is LRU over whole entries, opt-in via
//! [`ServiceOptions::capacity`]: when the entry count exceeds the
//! capacity, least-recently-used entries are dropped with everything
//! they hold — each substrate owns its reachability rows, so a capped
//! service's memory stays bounded (pinned by `tests/service_memory.rs`).
//!
//! The wire protocol over this engine lives in [`wire`]; the transport
//! loops (Unix socket, stdio) live in the `fenceplace` binary.

pub mod wire;

use crate::fleet::{ingest, run_seeded, FleetJob, FleetOptions, Seed};
use crate::json;
use crate::minimize::TargetModel;
use crate::pipeline::PipelineConfig;
use crate::report::{FleetStage, ModuleOutcome};
use corpus::hash::{content_hash, func_hashes, ContentHash};
use fence_analysis::ModuleAnalysis;
use fence_ir::cfg::FuncSubstrate;
use fence_ir::Module;
use std::collections::HashMap;
use std::sync::Arc;

/// Knobs of a [`Service`], fixed for its lifetime. Every request runs
/// on the calling thread, with the fleet's validation gate and per-unit
/// isolation.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceOptions {
    /// Default deterministic step budget applied to every request that
    /// does not carry its own (`None` = no deadline).
    pub budget: Option<u64>,
    /// Maximum cached module entries; least-recently-used entries are
    /// evicted beyond it (`None` = unbounded).
    pub capacity: Option<usize>,
}

/// How much cached state an analyze request could reuse.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CacheDisposition {
    /// Served entirely from cache: the content hash was resident and
    /// every requested config's report line was already rendered (or
    /// the entry is quarantined, so its report is fully determined).
    Hit,
    /// Partially reused: the content hash was resident but some config
    /// lines had to be computed from the cached analysis/substrates, or
    /// the content was new but unchanged functions of the previous
    /// version under the same name donated their substrates.
    Incremental,
    /// Computed from scratch.
    Miss,
}

impl CacheDisposition {
    /// The stable lowercase tag used on the wire.
    pub fn name(self) -> &'static str {
        match self {
            CacheDisposition::Hit => "hit",
            CacheDisposition::Incremental => "incremental",
            CacheDisposition::Miss => "miss",
        }
    }
}

/// What one analyze request produced.
pub struct AnalyzeOutcome {
    /// Cache disposition (see [`CacheDisposition`]).
    pub cache: CacheDisposition,
    /// The module's outcome under the fleet's quarantine/budget rules.
    pub outcome: ModuleOutcome,
    /// Content hash of the request's module text.
    pub hash: ContentHash,
    /// The per-module report document — byte-identical to what
    /// `fenceplace --out DIR` would write for this module.
    pub report: String,
}

/// Deterministic service counters, exposed by the `stats` wire request.
/// All counts are cumulative over the service's lifetime.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// Well-formed, accepted wire requests (all kinds; counted by the
    /// transport loop via [`Service::note_request`]).
    pub requests: u64,
    /// Analyze requests (library calls included).
    pub analyze_requests: u64,
    /// Analyze requests served entirely from cache.
    pub hits: u64,
    /// Analyze requests that partially reused cached state.
    pub incremental: u64,
    /// Analyze requests computed from scratch.
    pub misses: u64,
    /// Module-wide [`ModuleAnalysis`] executions.
    pub analyses: u64,
    /// [`FuncSubstrate`] builds (dirty functions only).
    pub substrates_built: u64,
    /// Substrates reused across module *versions* (unchanged functions
    /// of a changed module; same-version reuse is not counted — it is
    /// the cache working as designed).
    pub substrates_reused: u64,
    /// Entries dropped by LRU eviction.
    pub evictions: u64,
    /// Entries dropped by invalidate requests.
    pub invalidated: u64,
}

/// One resident module: parsed IR, per-function content hashes, the
/// module-wide analysis, substrates, and every config report line
/// rendered so far.
struct Entry {
    /// Parsed module (`None` for quarantined entries), shared with the
    /// results of each run over it.
    module: Option<Arc<Module>>,
    /// Cached terminal outcome: `Ok` or `InvalidIr`. Transient outcomes
    /// (`Panicked`, `DeadlineExceeded`) are never cached — they depend
    /// on the request's config list and budget.
    outcome: ModuleOutcome,
    /// Per-function `(name, content hash)` in function order.
    funcs: Vec<(String, ContentHash)>,
    /// Module-wide analysis (absent until a non-`Manual` config needs it).
    analysis: Option<ModuleAnalysis>,
    /// Substrates, aligned with `funcs` (`None` until built).
    substrates: Vec<Option<Arc<FuncSubstrate>>>,
    /// Rendered config report lines keyed by `(variant, target)` index.
    reports: HashMap<(usize, usize), String>,
    /// LRU clock value of the last request that touched this entry.
    last_used: u64,
}

/// The resident analysis cache. See the module docs for the design; the
/// public surface is [`Service::analyze`] plus cache management
/// ([`Service::invalidate`], [`Service::invalidate_all`]) and the
/// [`ServiceStats`] snapshot.
pub struct Service {
    opts: ServiceOptions,
    entries: HashMap<ContentHash, Entry>,
    names: HashMap<String, ContentHash>,
    tick: u64,
    stats: ServiceStats,
}

/// Dense target index for the per-config report key.
fn target_idx(t: TargetModel) -> usize {
    match t {
        TargetModel::X86Tso => 0,
        TargetModel::ScHardware => 1,
        TargetModel::Weak => 2,
    }
}

/// Cache key of one config's report line. `PipelineConfig::parallel` is
/// ignored by every run, so it is not part of the key.
fn config_key(c: &PipelineConfig) -> (usize, usize) {
    (c.variant.idx(), target_idx(c.target))
}

impl Entry {
    /// A cached `InvalidIr` verdict: content-keyed, so the same bytes
    /// fail the same way, and it holds nothing else worth keeping.
    fn quarantined(outcome: ModuleOutcome) -> Self {
        Entry {
            module: None,
            outcome,
            funcs: Vec::new(),
            analysis: None,
            substrates: Vec::new(),
            reports: HashMap::new(),
            last_used: 0,
        }
    }
}

impl Service {
    /// Creates an empty service with the given options.
    pub fn new(opts: ServiceOptions) -> Self {
        Service {
            opts,
            entries: HashMap::new(),
            names: HashMap::new(),
            tick: 0,
            stats: ServiceStats::default(),
        }
    }

    /// A snapshot of the cumulative counters.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// Number of resident cache entries (distinct module contents).
    pub fn cached_modules(&self) -> usize {
        self.entries.len()
    }

    /// Counts one accepted wire request (any kind). Called by the
    /// transport loop so `stats.requests` covers hello/stats/shutdown
    /// traffic, not just analyzes.
    pub fn note_request(&mut self) {
        self.stats.requests += 1;
    }

    /// Drops the entry the given module name last resolved to (and every
    /// name alias pointing at the same content). Returns the number of
    /// entries dropped (0 or 1).
    pub fn invalidate(&mut self, name: &str) -> usize {
        match self.names.remove(name) {
            Some(h) => {
                self.names.retain(|_, v| *v != h);
                if self.entries.remove(&h).is_some() {
                    self.stats.invalidated += 1;
                    1
                } else {
                    0
                }
            }
            None => 0,
        }
    }

    /// Drops every cache entry and name binding. Returns the number of
    /// entries dropped.
    pub fn invalidate_all(&mut self) -> usize {
        let n = self.entries.len();
        self.entries.clear();
        self.names.clear();
        self.stats.invalidated += n as u64;
        n
    }

    /// Analyzes one module text under the fleet's semantics, reusing
    /// cached state where the content hashes allow it. `budget`
    /// overrides [`ServiceOptions::budget`] for this request.
    ///
    /// The returned [`AnalyzeOutcome::report`] is byte-identical to the
    /// per-module report the one-shot CLI writes for the same (name,
    /// text, configs, budget) — including quarantined outcomes.
    pub fn analyze(
        &mut self,
        name: &str,
        text: &str,
        configs: &[PipelineConfig],
        budget: Option<u64>,
    ) -> AnalyzeOutcome {
        self.stats.analyze_requests += 1;
        self.tick += 1;
        let hash = content_hash(text);
        let opts = FleetOptions {
            budget: budget.or(self.opts.budget),
            ..FleetOptions::default()
        };
        let (cache, outcome, entry) = match self.entries.remove(&hash) {
            Some(mut entry) => {
                let cached: Vec<bool> = configs
                    .iter()
                    .map(|c| entry.reports.contains_key(&config_key(c)))
                    .collect();
                let cache = if !entry.outcome.is_ok() || cached.iter().all(|&c| c) {
                    CacheDisposition::Hit
                } else {
                    CacheDisposition::Incremental
                };
                let outcome = if entry.outcome.is_ok() {
                    // A hit runs no unit but pays the same charge plan: a
                    // budget trips exactly where a cold run's would.
                    self.run(name, &mut entry, true, cached, configs, &opts)
                } else {
                    // InvalidIr wins over any deadline: the fleet absorbs
                    // the validation verdict before the Validate charge.
                    entry.outcome.clone()
                };
                (cache, outcome, Some(entry))
            }
            None => self.cold(name, text, configs, &opts),
        };
        match cache {
            CacheDisposition::Hit => self.stats.hits += 1,
            CacheDisposition::Incremental => self.stats.incremental += 1,
            CacheDisposition::Miss => self.stats.misses += 1,
        }
        let lines: Vec<String> = match &entry {
            Some(e) if outcome.is_ok() => configs
                .iter()
                .map(|c| e.reports[&config_key(c)].clone())
                .collect(),
            _ => Vec::new(),
        };
        if let Some(mut entry) = entry {
            entry.last_used = self.tick;
            self.entries.insert(hash, entry);
            self.names.insert(name.to_string(), hash);
            self.evict();
        }
        let report = json::module_json_parts(name, &outcome, &lines, &[]);
        AnalyzeOutcome {
            cache,
            outcome,
            hash,
            report,
        }
    }

    /// New content: parses it through the fleet's ingest, then runs it
    /// seeded with the substrates that unchanged functions of the
    /// previous version under `name` donate. Returns the entry to cache:
    /// `Ok` and `InvalidIr` are facts about the content, while panics and
    /// deadlines depend on this request's configs and budget — the next
    /// request may legitimately succeed — so they are never cached.
    fn cold(
        &mut self,
        name: &str,
        text: &str,
        configs: &[PipelineConfig],
        opts: &FleetOptions,
    ) -> (CacheDisposition, ModuleOutcome, Option<Entry>) {
        let module = match ingest(name, text, opts) {
            Ok(module) => module,
            Err(outcome) => {
                let entry = matches!(outcome, ModuleOutcome::InvalidIr { .. })
                    .then(|| Entry::quarantined(outcome.clone()));
                return (CacheDisposition::Miss, outcome, entry);
            }
        };
        let funcs = func_hashes(&module);
        let prev = self
            .names
            .get(name)
            .and_then(|h| self.entries.get(h))
            .filter(|p| p.outcome.is_ok());
        let substrates: Vec<Option<Arc<FuncSubstrate>>> = funcs
            .iter()
            .map(|(fname, fh)| {
                let prev = prev?;
                let j = prev.funcs.iter().position(|(n, _)| n == fname)?;
                if prev.funcs[j].1 == *fh {
                    prev.substrates.get(j).cloned().flatten()
                } else {
                    None
                }
            })
            .collect();
        let reused = substrates.iter().flatten().count() as u64;
        let mut entry = Entry {
            module: Some(Arc::new(module)),
            outcome: ModuleOutcome::Ok,
            funcs,
            analysis: None,
            substrates,
            reports: HashMap::new(),
            last_used: 0,
        };
        let outcome = self.run(name, &mut entry, false, Vec::new(), configs, opts);
        match &outcome {
            // Content that never passed the gate reused nothing.
            ModuleOutcome::InvalidIr { .. } => (
                CacheDisposition::Miss,
                outcome.clone(),
                Some(Entry::quarantined(outcome)),
            ),
            ModuleOutcome::Panicked {
                stage: FleetStage::Validate,
                ..
            } => (CacheDisposition::Miss, outcome, None),
            _ => {
                self.stats.substrates_reused += reused;
                let cache = if reused > 0 {
                    CacheDisposition::Incremental
                } else {
                    CacheDisposition::Miss
                };
                let entry = outcome.is_ok().then_some(entry);
                (cache, outcome, entry)
            }
        }
    }

    /// Runs the fleet executor over `entry`'s module, seeded with what
    /// the entry holds plus the `validated` flag and the per-config
    /// `cached` flags, and renders the config line of each result it
    /// returns. Whatever analysis and substrates the run leaves stay in
    /// the entry: they are valid for this content whatever the outcome.
    /// A quarantined run returns no results, so a failed request leaks
    /// no partial lines.
    fn run(
        &mut self,
        name: &str,
        entry: &mut Entry,
        validated: bool,
        cached: Vec<bool>,
        configs: &[PipelineConfig],
        opts: &FleetOptions,
    ) -> ModuleOutcome {
        let module = entry.module.clone().expect("computable entries hold IR");
        let job = FleetJob::new(name, &module, configs.to_vec());
        let mut seed = Seed {
            validated,
            analysis: entry.analysis.take(),
            substrates: std::mem::take(&mut entry.substrates),
            cached,
        };
        let (fr, stats) = run_seeded(&job, &mut seed, opts, || Arc::clone(&module));
        self.stats.analyses += stats.analyses as u64;
        self.stats.substrates_built += stats.substrates as u64;
        entry.analysis = seed.analysis;
        entry.substrates = seed.substrates;
        let todo = configs
            .iter()
            .enumerate()
            .filter(|&(c, _)| !seed.cached.get(c).copied().unwrap_or(false))
            .map(|(_, config)| config);
        for (config, r) in todo.zip(&fr.results) {
            entry.reports.insert(
                config_key(config),
                json::config_json(config, &r.report, r.points.len()),
            );
        }
        fr.outcome
    }

    /// LRU eviction down to the configured capacity.
    fn evict(&mut self) {
        let Some(cap) = self.opts.capacity else {
            return;
        };
        while self.entries.len() > cap {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(h, _)| *h)
                .expect("len > cap > 0 implies non-empty");
            self.entries.remove(&oldest);
            self.names.retain(|_, v| *v != oldest);
            self.stats.evictions += 1;
        }
    }
}

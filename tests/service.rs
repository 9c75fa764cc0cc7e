//! Analysis-as-a-service: the serve daemon, its cache, and its wire
//! protocol.
//!
//! Three contracts are pinned here:
//!
//! 1. **Protocol compatibility** — every `jsonl` example in
//!    `docs/PROTOCOL.md` is replayed byte-for-byte against a real
//!    `fenceplace serve --stdio` daemon, so the documented wire bytes
//!    cannot drift from the implementation.
//! 2. **Byte identity** — for every module of the evaluation fleet,
//!    under every sweep config, cold and warm, sequential and pooled,
//!    the service's report document is byte-identical to what the
//!    one-shot CLI path (`run_fleet_opts` + the shared JSON renderer)
//!    produces.
//! 3. **Cache correctness** — warm re-requests of unchanged content do
//!    zero analysis runs and zero CFG builds (pinned via the
//!    thread-local `analysis_runs()` / `cfg_builds()` counters); a
//!    one-function edit re-analyzes the module but rebuilds exactly one
//!    substrate; eviction, invalidation, and warm-budget simulation
//!    behave like their cold counterparts.

use corpus::Params;
use fenceplace::json::module_json;
use fenceplace::{
    run_fleet_opts, CacheDisposition, FleetJob, FleetOptions, PipelineConfig, Service,
    ServiceOptions, TargetModel, Variant,
};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_fenceplace")
}

fn cfg(variant: Variant, target: TargetModel) -> PipelineConfig {
    PipelineConfig {
        variant,
        target,
        parallel: false,
    }
}

fn sweep_configs() -> Vec<PipelineConfig> {
    vec![
        cfg(Variant::Control, TargetModel::X86Tso),
        cfg(Variant::Pensieve, TargetModel::Weak),
        cfg(Variant::Manual, TargetModel::Weak),
    ]
}

/// The full evaluation fleet as (name, printed text) pairs. The service
/// ingests text, and the printer renumbers instruction ids densely — so
/// the CLI baseline must run on the *parsed* form of the same text.
fn fleet_texts() -> Vec<(String, String)> {
    corpus::manifest::full_fleet(&Params::tiny())
        .iter()
        .map(|e| (e.name.clone(), fence_ir::printer::print_module(&e.module)))
        .collect()
}

/// What the one-shot CLI writes per module for these texts: the fleet
/// scheduler over the parsed texts, rendered by the shared renderer.
fn cli_baseline(
    texts: &[(String, String)],
    configs: &[PipelineConfig],
    opts: &FleetOptions,
) -> Vec<String> {
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
    let (fleet, _) = run_fleet_opts(&jobs, opts);
    fleet
        .iter()
        .zip(&modules)
        .map(|(fr, (name, _))| module_json(name, configs, fr))
        .collect()
}

// ---------------------------------------------------------------------
// 1. Protocol compatibility: replay docs/PROTOCOL.md byte-for-byte.
// ---------------------------------------------------------------------

/// Extracts the pinned session from the ```jsonl blocks of
/// docs/PROTOCOL.md: `-> ` lines are client input, `<- ` lines the
/// expected daemon output, in order across all blocks (the doc is one
/// continuous session).
fn protocol_session() -> (Vec<String>, Vec<String>) {
    let doc_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/PROTOCOL.md");
    let doc = std::fs::read_to_string(&doc_path).expect("docs/PROTOCOL.md exists");
    let (mut input, mut expected) = (Vec::new(), Vec::new());
    let mut in_jsonl = false;
    for line in doc.lines() {
        if line.starts_with("```") {
            in_jsonl = line.trim() == "```jsonl";
            continue;
        }
        if !in_jsonl {
            continue;
        }
        if let Some(req) = line.strip_prefix("-> ") {
            input.push(req.to_string());
        } else if let Some(resp) = line.strip_prefix("<- ") {
            expected.push(resp.to_string());
        } else {
            panic!("unmarked line inside a jsonl block (responses are single lines): {line:?}");
        }
    }
    assert!(
        input.len() >= 10 && input.len() == expected.len(),
        "PROTOCOL.md session shape: {} requests, {} responses",
        input.len(),
        expected.len()
    );
    (input, expected)
}

#[test]
fn protocol_doc_replays_byte_for_byte() {
    let (input, expected) = protocol_session();
    let mut child = Command::new(bin())
        .args(["serve", "--stdio"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve --stdio");
    {
        let mut stdin = child.stdin.take().expect("piped stdin");
        for line in &input {
            writeln!(stdin, "{line}").expect("write request");
        }
        // Dropping stdin closes the pipe (EOF = clean shutdown, though
        // the session already ends with an explicit shutdown request).
    }
    let out = child.wait_with_output().expect("daemon exits");
    assert!(out.status.success(), "daemon exit: {:?}", out.status);
    let got: Vec<&str> = std::str::from_utf8(&out.stdout)
        .expect("utf8 output")
        .lines()
        .collect();
    assert_eq!(
        got.len(),
        expected.len(),
        "response count (got {:?})",
        got.len()
    );
    for (i, (g, w)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(
            g,
            w,
            "response {} of the PROTOCOL.md session diverged from the doc",
            i + 1
        );
    }
}

// ---------------------------------------------------------------------
// 2. Byte identity with the one-shot CLI path.
// ---------------------------------------------------------------------

#[test]
fn differential_full_fleet_cold_and_warm_seq_and_pooled() {
    let texts = fleet_texts();
    let configs = sweep_configs();
    for parallel in [false, true] {
        let tag = if parallel { "pooled" } else { "seq" };
        let expected = cli_baseline(
            &texts,
            &configs,
            &FleetOptions {
                parallel,
                ..FleetOptions::default()
            },
        );
        let mut service = Service::new(ServiceOptions::default());
        // Cold pass: everything computed from scratch, byte-equal.
        for ((name, text), want) in texts.iter().zip(&expected) {
            let got = service.analyze(name, text, &configs, None);
            assert_eq!(
                got.cache,
                CacheDisposition::Miss,
                "{tag}/{name}: cold pass disposition"
            );
            assert_eq!(&got.report, want, "{tag}/{name}: cold report bytes");
        }
        // Warm pass: served entirely from cache, still byte-equal.
        for ((name, text), want) in texts.iter().zip(&expected) {
            let got = service.analyze(name, text, &configs, None);
            assert_eq!(
                got.cache,
                CacheDisposition::Hit,
                "{tag}/{name}: warm pass disposition"
            );
            assert_eq!(&got.report, want, "{tag}/{name}: warm report bytes");
        }
        let stats = service.stats();
        assert_eq!(stats.misses, texts.len() as u64, "{tag}: misses");
        assert_eq!(stats.hits, texts.len() as u64, "{tag}: hits");
    }
}

/// A module that parses but fails IR validation (bb0 lacks a
/// terminator) is quarantined with the exact bytes the fleet produces.
const SICK_IR: &str =
    "module sick\nglobal g 1\n\nfn f params=0 locals=() {\nbb0: ; entry\n  %0 = load @g\n}\n";

#[test]
fn quarantined_module_matches_fleet_bytes() {
    let configs = sweep_configs();
    let expected = cli_baseline(
        &[("sick".to_string(), SICK_IR.to_string())],
        &configs,
        &FleetOptions::default(),
    );
    let mut service = Service::new(ServiceOptions::default());
    let cold = service.analyze("sick", SICK_IR, &configs, None);
    assert_eq!(cold.cache, CacheDisposition::Miss);
    assert_eq!(cold.report, expected[0], "cold quarantine bytes");
    // The verdict is content-keyed and cached: same bytes, same verdict.
    let warm = service.analyze("sick", SICK_IR, &configs, None);
    assert_eq!(warm.cache, CacheDisposition::Hit);
    assert_eq!(warm.report, expected[0], "warm quarantine bytes");
}

// ---------------------------------------------------------------------
// 3. Cache correctness, pinned by the analysis/CFG-build counters.
// ---------------------------------------------------------------------

/// Two functions so a one-function edit has an unchanged neighbor.
const TWO_V1: &str = "module two\nglobal g 1\n\nfn f params=0 locals=() {\nbb0: ; entry\n  %0 = load @g\n  ret\n}\n\nfn h params=0 locals=() {\nbb0: ; entry\n  %0 = load @g\n  ret\n}\n";
/// Same module with only `h` edited (an extra load); `f` is untouched.
const TWO_V2: &str = "module two\nglobal g 1\n\nfn f params=0 locals=() {\nbb0: ; entry\n  %0 = load @g\n  ret\n}\n\nfn h params=0 locals=() {\nbb0: ; entry\n  %0 = load @g\n  %1 = load @g\n  ret\n}\n";

/// A default service. A request runs on the calling thread, so the
/// thread-local counters observe every analysis run and CFG build the
/// service performs.
fn seq_service() -> Service {
    Service::new(ServiceOptions::default())
}

fn counters() -> (usize, usize) {
    (fence_analysis::analysis_runs(), fence_ir::cfg::cfg_builds())
}

#[test]
fn warm_rerequest_of_unchanged_corpus_does_zero_work() {
    let texts = fleet_texts();
    let configs = sweep_configs();
    let mut service = seq_service();
    for (name, text) in &texts {
        service.analyze(name, text, &configs, None);
    }
    let (a0, c0) = counters();
    for (name, text) in &texts {
        let got = service.analyze(name, text, &configs, None);
        assert_eq!(got.cache, CacheDisposition::Hit, "{name}: warm disposition");
    }
    let (a1, c1) = counters();
    assert_eq!(a1 - a0, 0, "warm corpus re-request ran module analyses");
    assert_eq!(c1 - c0, 0, "warm corpus re-request built CFGs");
}

#[test]
fn one_function_edit_rebuilds_exactly_that_function() {
    let configs = vec![cfg(Variant::Control, TargetModel::X86Tso)];
    let mut service = seq_service();
    let (a0, c0) = counters();
    let v1 = service.analyze("two", TWO_V1, &configs, None);
    let (a1, c1) = counters();
    assert_eq!(v1.cache, CacheDisposition::Miss);
    // A cold miss builds each function's CFG once: the validation gate
    // builds it and the substrate reuses it.
    assert_eq!(a1 - a0, 1, "a cold miss runs one module analysis");
    assert_eq!(c1 - c0, 2, "a cold miss builds one Cfg per function");

    let built_v1 = service.stats().substrates_built;
    let (a0, c0) = counters();
    let v2 = service.analyze("two", TWO_V2, &configs, None);
    let (a1, c1) = counters();
    assert_eq!(
        v2.cache,
        CacheDisposition::Incremental,
        "unchanged `f` donates its substrate"
    );
    assert_eq!(a1 - a0, 1, "module analysis re-runs once on content change");
    // Changed content always re-passes the validation gate, which builds
    // one CFG per function (2 here). Only the *edited* function's
    // substrate is rebuilt, from the gate's CFG, so no third build.
    assert_eq!(
        c1 - c0,
        2,
        "validation (2); the edited function's substrate reuses its CFG"
    );
    assert_eq!(
        service.stats().substrates_built - built_v1,
        1,
        "only the edited function's substrate is rebuilt"
    );
    assert_eq!(
        service.stats().substrates_reused,
        1,
        "one donated substrate"
    );

    // And the incremental result is still byte-identical to a cold run.
    let expected = cli_baseline(
        &[("two".to_string(), TWO_V2.to_string())],
        &configs,
        &FleetOptions {
            parallel: false,
            ..FleetOptions::default()
        },
    );
    assert_eq!(v2.report, expected[0], "incremental edit bytes");
}

#[test]
fn new_config_on_cached_text_reuses_analysis_and_substrates() {
    let mut service = seq_service();
    let first = service.analyze(
        "two",
        TWO_V1,
        &[cfg(Variant::Control, TargetModel::X86Tso)],
        None,
    );
    assert_eq!(first.cache, CacheDisposition::Miss);
    let (a0, c0) = counters();
    let second = service.analyze(
        "two",
        TWO_V1,
        &[cfg(Variant::Pensieve, TargetModel::Weak)],
        None,
    );
    let (a1, c1) = counters();
    assert_eq!(second.cache, CacheDisposition::Incremental);
    assert_eq!(a1 - a0, 0, "new config reuses the cached module analysis");
    assert_eq!(c1 - c0, 0, "new config reuses the cached substrates");
}

#[test]
fn same_content_different_name_is_a_hit() {
    let mut service = seq_service();
    let configs = vec![cfg(Variant::Control, TargetModel::X86Tso)];
    let a = service.analyze("alpha", TWO_V1, &configs, None);
    assert_eq!(a.cache, CacheDisposition::Miss);
    let b = service.analyze("beta", TWO_V1, &configs, None);
    assert_eq!(
        b.cache,
        CacheDisposition::Hit,
        "content-keyed, not name-keyed"
    );
    assert_eq!(a.hash, b.hash);
    assert!(
        b.report.contains("\"module\": \"beta\""),
        "the report document carries the request's name"
    );

    // Invalidation drops the shared entry under either alias.
    assert_eq!(service.invalidate("nonexistent"), 0);
    assert_eq!(service.invalidate("alpha"), 1);
    let again = service.analyze("beta", TWO_V1, &configs, None);
    assert_eq!(
        again.cache,
        CacheDisposition::Miss,
        "invalidate drops content"
    );
}

#[test]
fn warm_budget_simulation_matches_cold_budgeted_run() {
    let configs = vec![cfg(Variant::Control, TargetModel::X86Tso)];
    let expected = cli_baseline(
        &[("two".to_string(), TWO_V1.to_string())],
        &configs,
        &FleetOptions {
            parallel: false,
            budget: Some(1),
            ..FleetOptions::default()
        },
    );
    let mut service = seq_service();
    // Fill the cache without a budget...
    let cold = service.analyze("two", TWO_V1, &configs, None);
    assert_eq!(cold.cache, CacheDisposition::Miss);
    // ...then ask again with one: the deadline must be simulated even
    // though the cache could have served the unbudgeted report.
    let budgeted = service.analyze("two", TWO_V1, &configs, Some(1));
    assert_eq!(budgeted.cache, CacheDisposition::Hit);
    assert_eq!(budgeted.report, expected[0], "warm budgeted bytes");
    assert!(
        budgeted.report.contains("deadline_exceeded"),
        "budget 1 must trip at the validate boundary"
    );
}

/// [`TWO_V2`] with `h` cut short (bb0 lacks its terminator): it parses
/// but fails validation, while `f` is unchanged and could donate.
const TWO_BROKEN: &str = "module two\nglobal g 1\n\nfn f params=0 locals=() {\nbb0: ; entry\n  %0 = load @g\n  ret\n}\n\nfn h params=0 locals=() {\nbb0: ; entry\n  %0 = load @g\n  %1 = load @g\n}\n";

/// One sequential service, one fixed request script covering every cache
/// path and its corner cases. Every reply's disposition, outcome and
/// report bytes are pinned against a cold fleet run of the same request,
/// and so is every counter of the final [`ServiceStats`].
#[test]
fn scripted_session_pins_every_reply_and_the_final_stats() {
    use fenceplace::{CacheDisposition::*, FleetStage};
    let c = cfg(Variant::Control, TargetModel::X86Tso);
    let p = cfg(Variant::Pensieve, TargetModel::Weak);
    let a = cfg(Variant::AddressControl, TargetModel::ScHardware);
    // TWO_V2 costs 5 steps per module-level stage: with three automatic
    // configs the plan reaches 35 at acquires and 50 at tails.
    let tails_trip = Some(40);
    let ok = ("ok", None);
    let invalid = ("invalid_ir", Some(FleetStage::Validate));
    let script = [
        ("two", TWO_V1, vec![c], None, Miss, ok),
        ("two", TWO_V1, vec![c], None, Hit, ok),
        // Grow: one config more on resident content.
        ("two", TWO_V1, vec![c, p], None, Incremental, ok),
        // One-function edit: `f` donates its substrate.
        ("two", TWO_V2, vec![c, p], None, Incremental, ok),
        // An edit to invalid IR is a miss, even though `f` could donate.
        ("two", TWO_BROKEN, vec![c, p], None, Miss, invalid),
        // The fixed text is still resident.
        ("two", TWO_V2, vec![c, p], None, Hit, ok),
        // A budgeted grow trips at the tails boundary...
        (
            "two",
            TWO_V2,
            vec![c, p, a],
            tails_trip,
            Incremental,
            ("deadline_exceeded", Some(FleetStage::Tails)),
        ),
        // ...and leaks nothing into the cache: the retry still grows.
        ("two", TWO_V2, vec![c, p, a], None, Incremental, ok),
        // A fourth content evicts TWO_V1, the least recently used...
        ("sick", SICK_IR, vec![c], None, Miss, invalid),
        // ...which then recomputes, evicting TWO_BROKEN.
        ("one", TWO_V1, vec![c], None, Miss, ok),
    ];
    let mut service = Service::new(ServiceOptions {
        capacity: Some(3),
        ..ServiceOptions::default()
    });
    for (step, (name, text, configs, budget, cache, (status, stage))) in script.iter().enumerate() {
        let got = service.analyze(name, text, configs, *budget);
        let want = cli_baseline(
            &[(name.to_string(), text.to_string())],
            configs,
            &FleetOptions {
                parallel: false,
                budget: *budget,
                ..FleetOptions::default()
            },
        );
        assert_eq!(got.cache, *cache, "step {step}: disposition");
        assert_eq!(
            (got.outcome.kind(), got.outcome.stage()),
            (*status, *stage),
            "step {step}: outcome"
        );
        assert_eq!(got.report, want[0], "step {step}: report bytes");
    }
    assert_eq!(service.cached_modules(), 3);
    let s = service.stats();
    assert_eq!(s.requests, 0, "no transport loop counted requests");
    assert_eq!(s.analyze_requests, 10);
    assert_eq!((s.hits, s.incremental, s.misses), (2, 4, 4));
    assert_eq!(s.analyses, 3, "TWO_V1, TWO_V2, TWO_V1 again");
    assert_eq!(s.substrates_built, 5, "2 + the edited `h` + 2");
    assert_eq!(s.substrates_reused, 1, "`f` across the edit");
    assert_eq!(s.evictions, 2);
    assert_eq!(s.invalidated, 0);
}

#[test]
fn lru_eviction_under_capacity() {
    let mut service = Service::new(ServiceOptions {
        capacity: Some(1),
        ..ServiceOptions::default()
    });
    let configs = vec![cfg(Variant::Control, TargetModel::X86Tso)];
    service.analyze("a", TWO_V1, &configs, None);
    service.analyze("b", TWO_V2, &configs, None);
    assert_eq!(
        service.stats().evictions,
        1,
        "capacity 1 evicts the LRU entry"
    );
    assert_eq!(service.cached_modules(), 1);
    let again = service.analyze("a", TWO_V1, &configs, None);
    assert_eq!(
        again.cache,
        CacheDisposition::Miss,
        "evicted content recomputes"
    );
}

// ---------------------------------------------------------------------
// Server-side spec expansion: quarantine per item, like the batch CLI.
// ---------------------------------------------------------------------

/// Runs one `serve --stdio` session: the handshake, then
/// `requests`. Returns every response line after the hello.
fn stdio_session(requests: &[String]) -> Vec<String> {
    let mut child = Command::new(bin())
        .args(["serve", "--stdio"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve --stdio");
    {
        let mut stdin = child.stdin.take().expect("piped stdin");
        writeln!(stdin, "{{\"id\":1,\"type\":\"hello\",\"version\":1}}").expect("hello");
        for line in requests {
            writeln!(stdin, "{line}").expect("write request");
        }
    }
    let out = child.wait_with_output().expect("daemon exits");
    assert!(out.status.success(), "daemon exit: {:?}", out.status);
    let text = String::from_utf8(out.stdout).expect("utf8 output");
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    assert!(lines.remove(0).contains("\"type\":\"hello\""));
    lines
}

#[test]
fn spec_batches_quarantine_per_item_like_the_cli() {
    use fenceplace::service::wire::{parse_json, Json};
    let dir = scratch("spec");
    let mods = dir.join("mods");
    std::fs::create_dir_all(&mods).expect("mods dir");
    let texts = fleet_texts();
    std::fs::write(mods.join("a.ir"), &texts[0].1).expect("write a");
    std::fs::write(mods.join("b.ir"), "not IR at all\n").expect("write b");
    std::fs::write(mods.join("c.ir"), &texts[1].1).expect("write c");
    let spec = format!("dir:{}", mods.display());
    let missing = format!("dir:{}", dir.join("no-such-dir").display());

    // The default CLI run over the same directory quarantines only the
    // bad member and still writes one report file per member; the
    // member checks below pin those files' bytes and statuses.
    let reports = dir.join("reports");
    let cli = Command::new(bin())
        .args(["--seq", "--program", &spec, "--out"])
        .arg(&reports)
        .output()
        .expect("run fenceplace");
    assert_eq!(cli.status.code(), Some(2), "one member is quarantined");

    let analyze = |id: u32, spec: &str| {
        format!(
            "{{\"id\":{id},\"type\":\"analyze\",\"spec\":\"{}\"}}",
            fenceplace::json::json_escape(spec)
        )
    };
    let lines = stdio_session(&[
        analyze(2, &spec),
        analyze(3, &missing),
        analyze(4, "kernel:NoSuch"),
    ]);
    assert_eq!(lines.len(), 7, "{lines:#?}");
    let parsed: Vec<Json> = lines
        .iter()
        .map(|l| parse_json(l).expect("response is JSON"))
        .collect();
    let field = |i: usize, key: &str| parsed[i].get(key).cloned().unwrap_or(Json::Null);

    // The dir streams three members, each the CLI's report byte for byte.
    for (i, (file, status)) in [("a.ir", "ok"), ("b.ir", "invalid_ir"), ("c.ir", "ok")]
        .into_iter()
        .enumerate()
    {
        let name = format!("file:{}", mods.join(file).display());
        assert_eq!(field(i, "module"), Json::Str(name.clone()), "member {i}");
        assert_eq!(field(i, "status"), Json::Str(status.into()), "member {i}");
        assert_eq!(field(i, "final"), Json::Bool(false), "member {i}");
        let stem = fenceplace::json::file_stem(&name);
        let want = std::fs::read_to_string(reports.join(format!("{stem}.json")))
            .expect("the CLI wrote this member's report");
        assert_eq!(
            field(i, "report"),
            Json::Str(want),
            "member {i}: report bytes"
        );
    }
    assert!(
        lines[3].starts_with("{\"id\":2,\"type\":\"batch\",\"modules\":3,")
            && lines[3].contains("\"failed\":1,"),
        "{}",
        lines[3]
    );

    // A missing dir is one load_failed member with no content hash.
    assert_eq!(field(4, "module"), Json::Str(missing));
    assert_eq!(field(4, "status"), Json::Str("load_failed".into()));
    assert!(lines[4].contains("\"hash\":null"), "{}", lines[4]);
    assert!(lines[5].contains("\"modules\":1,") && lines[5].contains("\"failed\":1,"));

    // A typo'd built-in spec is a protocol error, not a batch.
    assert_eq!(field(6, "type"), Json::Str("error".into()));
    assert_eq!(field(6, "code"), Json::Str("bad_spec".into()));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runaway specs get structured errors and the session goes on: a pack
/// with no line breaks is one `load_failed` member (its reader stops at
/// the module-text cap), an oversized `synthetic:N` is a `bad_spec`, and
/// the daemon then answers `stats`.
#[test]
fn runaway_specs_are_refused_and_the_daemon_answers_on() {
    let analyze = |id: u32, spec: &str| {
        format!(
            "{{\"id\":{id},\"type\":\"analyze\",\"spec\":\"{spec}\",\"configs\":[\"Control:x86tso\"]}}"
        )
    };
    let lines = stdio_session(&[
        analyze(2, "pack:/dev/zero"),
        analyze(3, "synthetic:5000000"),
        "{\"id\":4,\"type\":\"stats\"}".to_string(),
    ]);
    assert_eq!(lines.len(), 4, "{lines:?}");
    assert!(lines[0].contains("\"type\":\"report\""), "{}", lines[0]);
    assert!(
        lines[0].contains("\"status\":\"load_failed\""),
        "{}",
        lines[0]
    );
    assert!(lines[0].contains("exceeds"), "{}", lines[0]);
    assert!(lines[1].contains("\"type\":\"batch\""), "{}", lines[1]);
    assert!(lines[1].contains("\"failed\":1"), "{}", lines[1]);
    assert!(lines[2].contains("\"code\":\"bad_spec\""), "{}", lines[2]);
    assert!(lines[3].contains("\"type\":\"stats\""), "{}", lines[3]);
}

// ---------------------------------------------------------------------
// Socket end-to-end: daemon + client, warm second pass, clean shutdown,
// stale-socket replacement and connection-thread reaping.
// ---------------------------------------------------------------------

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fenceplace-service-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn client(sock: &Path, extra: &[&str]) -> std::process::Output {
    let mut cmd = Command::new(bin());
    cmd.args(["client", "--socket"]).arg(sock);
    cmd.args(extra);
    cmd.output().expect("run client")
}

fn serve_cmd(sock: &Path) -> Command {
    let mut cmd = Command::new(bin());
    cmd.args(["serve", "--socket"])
        .arg(sock)
        .stdin(Stdio::null());
    cmd
}

/// A socket daemon, killed on drop so a failing test leaves no process
/// behind.
struct Daemon(std::process::Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts a socket daemon with its output discarded.
fn spawn_daemon(sock: &Path) -> Daemon {
    Daemon(
        serve_cmd(sock)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn serve --socket"),
    )
}

/// One short connection: connect, `hello`, read the reply, hang up.
/// `true` if the daemon greeted back.
fn hello(sock: &Path) -> bool {
    use std::io::BufRead as _;
    let Ok(mut stream) = std::os::unix::net::UnixStream::connect(sock) else {
        return false;
    };
    if writeln!(stream, "{{\"id\":1,\"type\":\"hello\",\"version\":1}}").is_err() {
        return false;
    }
    let mut line = String::new();
    std::io::BufReader::new(&stream)
        .read_line(&mut line)
        .is_ok()
        && line.contains("\"type\":\"hello\"")
}

/// Waits until a daemon at `sock` answers a `hello`.
fn wait_until_serving(sock: &Path) {
    for _ in 0..200 {
        if hello(sock) {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    panic!("no daemon answered at {}", sock.display());
}

/// Shuts the daemon at `sock` down and checks it exited cleanly and
/// removed its socket file.
fn shut_down(sock: &Path, mut daemon: Daemon) {
    let bye = client(sock, &["--shutdown"]);
    assert!(
        bye.status.success(),
        "shutdown client: {}",
        String::from_utf8_lossy(&bye.stderr)
    );
    let status = daemon.0.wait().expect("daemon exit");
    assert!(status.success(), "daemon exit status: {status:?}");
    assert!(!sock.exists(), "daemon removes its socket file on shutdown");
}

#[test]
fn socket_daemon_serves_warm_second_pass_and_shuts_down() {
    let dir = scratch("socket");
    let sock = dir.join("d.sock");
    let daemon = spawn_daemon(&sock);
    wait_until_serving(&sock);

    let out1 = dir.join("pass1");
    let out2 = dir.join("pass2");
    let p1 = client(
        &sock,
        &["--program", "kernel:*", "--out", out1.to_str().unwrap()],
    );
    assert!(
        p1.status.success(),
        "pass 1: {}\n{}",
        String::from_utf8_lossy(&p1.stdout),
        String::from_utf8_lossy(&p1.stderr)
    );
    let p2 = client(
        &sock,
        &[
            "--program",
            "kernel:*",
            "--out",
            out2.to_str().unwrap(),
            "--expect-hit",
        ],
    );
    assert!(
        p2.status.success(),
        "pass 2 (must be all hits): {}\n{}",
        String::from_utf8_lossy(&p2.stdout),
        String::from_utf8_lossy(&p2.stderr)
    );
    // Both passes wrote byte-identical report files.
    let mut reports = 0usize;
    for e in std::fs::read_dir(&out1).expect("pass1 dir") {
        let p = e.expect("dir entry").path();
        let q = out2.join(p.file_name().expect("file name"));
        let (b1, b2) = (
            std::fs::read(&p).expect("pass1 report"),
            std::fs::read(&q).expect("pass2 report"),
        );
        assert_eq!(b1, b2, "cold and warm socket reports differ: {p:?}");
        reports += 1;
    }
    assert!(
        reports >= 9,
        "expected one report per kernel, got {reports}"
    );

    // A cold family under --expect-hit is a contract violation: exit 1.
    let p3 = client(&sock, &["--program", "synthetic:3", "--expect-hit"]);
    assert_eq!(
        p3.status.code(),
        Some(1),
        "cold modules under --expect-hit must exit 1: {}",
        String::from_utf8_lossy(&p3.stderr)
    );

    shut_down(&sock, daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_sends_file_texts_as_read() {
    let dir = scratch("client-files");
    let sock = dir.join("d.sock");
    let daemon = spawn_daemon(&sock);
    wait_until_serving(&sock);

    let good = dir.join("good.ir");
    let bad = dir.join("bad.ir");
    std::fs::write(&good, &fleet_texts()[0].1).expect("write good");
    std::fs::write(&bad, "not IR at all\n").expect("write bad");
    let files = format!("file:{},file:{}", good.display(), bad.display());
    let missing = format!("file:{}", dir.join("no-such.ir").display());
    // `a-b.ir` and `a_b.ir` share one report file.
    let (twin, later) = (dir.join("a-b.ir"), dir.join("a_b.ir"));
    for path in [&twin, &later] {
        std::fs::write(path, &fleet_texts()[0].1).expect("write twin");
    }
    let twins = format!("file:{},file:{}", twin.display(), later.display());
    let reports = dir.join("reports");
    let sent = client(&sock, &["--program", &files]);
    let unreadable = client(&sock, &["--program", &missing]);
    let collided = client(
        &sock,
        &["--program", &twins, "--out", reports.to_str().unwrap()],
    );
    // `kernel:*` names Dekker a second time.
    let repeat_reports = dir.join("repeat-reports");
    let repeated = client(
        &sock,
        &[
            "--program",
            "kernel:Dekker",
            "--program",
            "kernel:*",
            "--out",
            repeat_reports.to_str().unwrap(),
        ],
    );
    shut_down(&sock, daemon);

    // An unparsable file is the daemon's verdict (invalid_ir, exit 2),
    // not a local parse failure; its neighbor still completes.
    let stdout = String::from_utf8_lossy(&sent.stdout);
    assert_eq!(sent.status.code(), Some(2), "{stdout}");
    assert!(
        stdout.contains(&format!("file:{}: ok (miss)", good.display())),
        "{stdout}"
    );
    assert!(
        stdout.contains(&format!("file:{}: invalid_ir (miss)", bad.display())),
        "{stdout}"
    );
    // A file that cannot be read stays fatal.
    assert_eq!(unreadable.status.code(), Some(1));
    // So is a name whose report file an earlier module writes: it is
    // refused before its request, and the earlier report stands.
    let stdout = String::from_utf8_lossy(&collided.stdout);
    let stderr = String::from_utf8_lossy(&collided.stderr);
    assert_eq!(collided.status.code(), Some(1), "{stdout}{stderr}");
    assert!(stderr.contains("report file collision"), "{stderr}");
    assert!(
        stdout.contains(&format!("file:{}: ok", twin.display())),
        "{stdout}"
    );
    assert!(
        !stdout.contains(&format!("file:{}:", later.display())),
        "{stdout}"
    );
    let written: Vec<_> = std::fs::read_dir(&reports)
        .expect("reports dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert_eq!(written.len(), 1, "{written:?}");
    let report = std::fs::read_to_string(&written[0]).expect("report");
    assert!(
        report.contains(&format!("\"module\": \"file:{}\"", twin.display())),
        "{report}"
    );
    // A repeated name is refused before its request, as the batch CLI
    // quarantines it: Dekker is sent and reported once, and every module
    // sent before the repeat has its report.
    let stdout = String::from_utf8_lossy(&repeated.stdout);
    let stderr = String::from_utf8_lossy(&repeated.stderr);
    assert_eq!(repeated.status.code(), Some(1), "{stdout}{stderr}");
    assert!(stderr.contains("duplicate program"), "{stderr}");
    assert_eq!(stdout.matches("kernel:Dekker:").count(), 1, "{stdout}");
    let written = std::fs::read_dir(&repeat_reports)
        .expect("repeat reports dir")
        .count();
    assert_eq!(written, stdout.lines().count(), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `kill -9` leaves the socket file behind; the next daemon on the same
/// path finds nothing answering there, replaces the stale file, serves,
/// and removes it on clean shutdown.
#[test]
fn a_killed_daemons_stale_socket_is_replaced() {
    let dir = scratch("stale");
    let sock = dir.join("d.sock");
    let mut killed = spawn_daemon(&sock);
    wait_until_serving(&sock);
    killed.0.kill().expect("SIGKILL the daemon");
    killed.0.wait().expect("reap the killed daemon");
    assert!(sock.exists(), "a killed daemon leaves its socket file");

    let daemon = spawn_daemon(&sock);
    wait_until_serving(&sock);
    let out = client(&sock, &["--program", "synthetic:3"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    shut_down(&sock, daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A daemon on a path where another daemon answers exits 1 and leaves
/// the live daemon and its socket alone.
#[test]
fn a_live_daemons_socket_is_kept() {
    let dir = scratch("live");
    let sock = dir.join("d.sock");
    let live = spawn_daemon(&sock);
    wait_until_serving(&sock);
    let second = serve_cmd(&sock).output().expect("run a second daemon");
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert_eq!(second.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("a live daemon is already serving"),
        "{stderr}"
    );
    assert!(hello(&sock), "the live daemon still answers");
    shut_down(&sock, live);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A path that is not a socket is never unlinked, even though a connect
/// to it is refused like a stale socket's.
#[test]
fn a_path_that_is_not_a_socket_is_never_removed() {
    let dir = scratch("not-a-socket");
    let path = dir.join("d.sock");
    std::fs::write(&path, "keep me\n").expect("write a regular file");
    let out = serve_cmd(&path).output().expect("run serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("not a socket"), "{stderr}");
    assert_eq!(
        std::fs::read_to_string(&path).expect("the file is still there"),
        "keep me\n"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Each accept joins the connection threads that have ended. Unjoined,
/// every finished thread kept its stack mapped: a daemon grew by about
/// two mappings per connection and aborted once it reached
/// `vm.max_map_count`, after some 33k connections.
#[cfg(target_os = "linux")]
#[test]
fn finished_connection_threads_are_reaped() {
    const CONNECTIONS: usize = 2000;
    let dir = scratch("reap");
    let sock = dir.join("d.sock");
    let daemon = spawn_daemon(&sock);
    wait_until_serving(&sock);
    let maps = format!("/proc/{}/maps", daemon.0.id());
    let mappings = || {
        std::fs::read_to_string(&maps)
            .expect("read the daemon's maps")
            .lines()
            .count()
    };
    let before = mappings();
    for _ in 0..CONNECTIONS {
        assert!(hello(&sock), "the daemon stopped answering");
    }
    let grown = mappings().saturating_sub(before);
    shut_down(&sock, daemon);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        grown < CONNECTIONS / 20,
        "{grown} new mappings after {CONNECTIONS} connections: \
         finished connection threads keep their stacks"
    );
}

// ---------------------------------------------------------------------
// A request line that is not UTF-8 is a `bad_json` error on either
// transport, and the session goes on.
// ---------------------------------------------------------------------

/// `hello`, a line that is not UTF-8, `stats` and `shutdown`.
const NON_UTF8_SESSION: &[u8] = b"{\"id\":1,\"type\":\"hello\",\"version\":1}\n\
    {\"id\":2,\xff\xfe}\n\
    {\"id\":3,\"type\":\"stats\"}\n\
    {\"id\":4,\"type\":\"shutdown\"}\n";

/// Checks the daemon answered each of the four lines of
/// [`NON_UTF8_SESSION`] in order.
fn assert_non_utf8_replies(out: &[u8]) {
    let text = String::from_utf8(out.to_vec()).expect("utf8 output");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "one reply per request line:\n{text}");
    assert!(lines[0].contains("\"type\":\"hello\""), "{}", lines[0]);
    assert!(
        lines[1].starts_with("{\"id\":null,\"type\":\"error\",\"code\":\"bad_json\","),
        "{}",
        lines[1]
    );
    assert!(
        lines[2].starts_with("{\"id\":3,\"type\":\"stats\","),
        "{}",
        lines[2]
    );
    assert_eq!(lines[3], "{\"id\":4,\"type\":\"bye\"}");
}

#[test]
fn stdio_session_survives_a_non_utf8_line() {
    let mut child = Command::new(bin())
        .args(["serve", "--stdio"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve --stdio");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(NON_UTF8_SESSION)
        .expect("send the session");
    let out = child.wait_with_output().expect("daemon exits");
    assert!(out.status.success(), "daemon exit: {:?}", out.status);
    assert_non_utf8_replies(&out.stdout);
}

#[test]
fn socket_connection_survives_a_non_utf8_line() {
    use std::io::Read as _;
    let dir = scratch("non-utf8");
    let sock = dir.join("d.sock");
    let mut daemon = spawn_daemon(&sock);
    wait_until_serving(&sock);
    let mut stream = std::os::unix::net::UnixStream::connect(&sock).expect("connect");
    stream
        .write_all(NON_UTF8_SESSION)
        .expect("send the session");
    // The daemon closes the connection after `bye`.
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("read the replies");
    assert_non_utf8_replies(&out);
    let status = daemon.0.wait().expect("daemon exit");
    assert!(status.success(), "daemon exit status: {status:?}");
    assert!(!sock.exists(), "daemon removes its socket file on shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

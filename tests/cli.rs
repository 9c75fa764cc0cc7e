//! End-to-end tests of the `fenceplace` binary's exit-code contract:
//! 0 = every module completed, 1 = fatal (usage, unresolvable spec,
//! `--fail-fast` trip), 2 = partial success (quarantined modules,
//! reports still written).

use std::path::PathBuf;
use std::process::{Command, Output};

fn fenceplace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fenceplace"))
        .args(args)
        .output()
        .expect("spawn fenceplace")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("process terminated by signal")
}

/// A fresh per-test scratch directory under the target tmpdir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fenceplace-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Textual IR that parses cleanly but fails the validation gate: bb0
/// has no terminator.
const SICK_IR: &str =
    "module sick\nglobal g 1\n\nfn f params=0 locals=() {\nbb0: ; entry\n  %0 = load @g\n}\n";

#[test]
fn help_exits_zero_and_documents_exit_codes() {
    for flag in ["--help", "-h"] {
        let out = fenceplace(&[flag]);
        assert_eq!(exit_code(&out), 0, "{flag} must exit 0");
        let text = stdout(&out);
        assert!(text.contains("USAGE"), "{flag} prints usage");
        assert!(text.contains("EXIT CODES"), "{flag} documents exit codes");
        assert!(text.contains("--fail-fast") && text.contains("--budget"));
    }
}

#[test]
fn usage_errors_are_fatal() {
    let out = fenceplace(&["--bogus-flag"]);
    assert_eq!(exit_code(&out), 1);
    assert!(stderr(&out).contains("unknown argument"));

    let out = fenceplace(&[]);
    assert_eq!(exit_code(&out), 1, "no programs is a usage error");
    assert!(stderr(&out).contains("no programs"));

    let out = fenceplace(&["--program", "corpus:NoSuchProgram"]);
    assert_eq!(exit_code(&out), 1, "typo'd built-in spec is fatal");
    assert!(stderr(&out).contains("NoSuchProgram"));
}

/// No spec can make the loader allocate without bound: a pack with no
/// line breaks stops at the module-text cap and becomes the run's one
/// `load_failed` slot (exit 2), and an oversized `synthetic:N` is a bad
/// spec (exit 1), as is a build parameter above its cap, whether a
/// flag, a manifest line or a `serve` flag sets it.
#[test]
fn runaway_specs_get_structured_errors() {
    let out = fenceplace(&["--program", "pack:/dev/zero", "--seq"]);
    assert_eq!(exit_code(&out), 2, "{}", stderr(&out));
    let rollup = stdout(&out);
    assert_eq!(
        rollup.matches("\"status\": \"load_failed\"").count(),
        1,
        "{rollup}"
    );
    assert!(rollup.contains("exceeds"), "{rollup}");

    let out = fenceplace(&["--program", "synthetic:5000000"]);
    assert_eq!(exit_code(&out), 1, "{}", stderr(&out));
    assert!(stderr(&out).contains("bad spec `synthetic:5000000`"));

    let out = fenceplace(&["--program", "corpus:*", "--threads", "4294967295"]);
    assert_eq!(exit_code(&out), 1, "{}", stderr(&out));
    assert!(stderr(&out).contains("bad --threads: `4294967295` is above the cap"));

    let dir = scratch("runaway");
    let manifest = dir.join("fleet.manifest");
    std::fs::write(&manifest, "program manual:*\nscale 18446744073709551615\n").unwrap();
    let out = fenceplace(&["--manifest", manifest.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 1, "{}", stderr(&out));
    assert!(
        stderr(&out)
            .contains("fleet.manifest:2: bad scale: `18446744073709551615` is above the cap"),
        "{}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);

    let out = fenceplace(&["serve", "--stdio", "--threads", "1000000"]);
    assert_eq!(exit_code(&out), 1, "{}", stderr(&out));
    assert!(stderr(&out).contains("bad --threads: `1000000` is above the cap"));
}

#[test]
fn clean_run_exits_zero() {
    let out = fenceplace(&["--program", "kernel:Dekker", "--seq"]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("\"modules_failed\": 0"), "{text}");
    assert!(text.contains("\"status\": \"ok\""), "{text}");
}

#[test]
fn invalid_file_module_is_partial_success() {
    let dir = scratch("partial");
    let sick = dir.join("sick.fir");
    std::fs::write(&sick, SICK_IR).unwrap();
    let spec = format!("file:{}", sick.display());
    let reports = dir.join("reports");

    let out = fenceplace(&[
        "--program",
        "kernel:Dekker",
        "--program",
        &spec,
        "--out",
        reports.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 2, "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("\"modules_failed\": 1"), "{text}");
    assert!(text.contains("\"status\": \"invalid_ir\""), "{text}");
    assert!(
        text.contains("does not end with a terminator"),
        "verifier diagnostic surfaces in the roll-up: {text}"
    );
    assert!(stderr(&out).contains("quarantined"));

    // Reports are still written for every module, quarantined or not.
    assert!(reports.join("fleet_summary.json").exists());
    let mut module_reports: Vec<_> = std::fs::read_dir(&reports)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    module_reports.sort();
    assert_eq!(module_reports.len(), 3, "{module_reports:?}");
    let sick_report = module_reports
        .iter()
        .find(|n| n.contains("sick") && n.ends_with(".json"))
        .expect("quarantined module still gets a report file");
    let body = std::fs::read_to_string(reports.join(sick_report)).unwrap();
    assert!(body.contains("\"status\": \"invalid_ir\""), "{body}");
    assert!(body.contains("\"stage\": \"validate\""), "{body}");
    assert!(body.contains("\"configs\": [\n  ]"), "no configs: {body}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_file_is_quarantined_at_load() {
    let out = fenceplace(&[
        "--program",
        "kernel:Dekker",
        "--program",
        "file:/no/such/module.fir",
    ]);
    assert_eq!(exit_code(&out), 2, "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("\"load_failures\": 1"), "{text}");
    assert!(text.contains("\"status\": \"load_failed\""), "{text}");
}

#[test]
fn fail_fast_turns_partial_into_fatal() {
    let dir = scratch("failfast");
    let sick = dir.join("sick.fir");
    std::fs::write(&sick, SICK_IR).unwrap();
    let spec = format!("file:{}", sick.display());
    let reports = dir.join("reports");

    let out = fenceplace(&[
        "--program",
        "kernel:Dekker",
        "--program",
        &spec,
        "--fail-fast",
        "--out",
        reports.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 1, "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("--fail-fast"));
    assert!(
        !reports.exists(),
        "--fail-fast must not write partial reports"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn budget_quarantines_deterministically() {
    // Budget 1 is below any module's per-stage cost, so every module
    // trips its deadline at the first charged stage — still exit 2,
    // and the seq/par roll-ups agree modulo wall-clock time.
    let strip_wall = |text: &str| {
        text.lines()
            .filter(|l| !l.contains("wall_ms"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let mut rollups = Vec::new();
    for mode in [&["--seq"][..], &[][..]] {
        let mut args = vec!["--program", "kernel:*", "--budget", "1"];
        args.extend_from_slice(mode);
        let out = fenceplace(&args);
        assert_eq!(exit_code(&out), 2, "stderr: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("\"status\": \"deadline_exceeded\""), "{text}");
        rollups.push(strip_wall(&text));
    }
    assert_eq!(
        rollups[0], rollups[1],
        "deadline roll-up must be identical under seq and parallel scheduling"
    );
}

/// A hand-fenced store-buffering module in textual IR: both full fences
/// are necessary under TSO, so `Manual:x86tso --certify` must come back
/// `certified`.
const FENCED_SB_IR: &str = "module sb
global x 1
global y 1

fn p0 params=0 locals=() {
bb0:
  store @x, c1
  fence full
  %2 = load @y
  ret %2
}

fn p1 params=0 locals=() {
bb0:
  store @y, c1
  fence full
  %2 = load @x
  ret %2
}
";

#[test]
fn certify_flag_model_checks_the_placement() {
    let dir = scratch("certify");
    let sb = dir.join("sb.fir");
    std::fs::write(&sb, FENCED_SB_IR).unwrap();
    let spec = format!("file:{}", sb.display());
    let reports = dir.join("reports");

    let out = fenceplace(&[
        "--program",
        &spec,
        "--config",
        "Manual:x86tso",
        "--certify",
        "--seq",
        "--out",
        reports.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("\"certifications\": 1"), "{text}");
    assert!(text.contains("\"certify_unsound\": 0"), "{text}");

    let body = std::fs::read_to_string(reports.join("file_sb_fir.json"))
        .or_else(|_| {
            // File-spec job names embed the path; find the one report.
            let name = std::fs::read_dir(&reports)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .find(|n| n != "fleet_summary.json")
                .expect("module report written");
            std::fs::read_to_string(reports.join(name))
        })
        .unwrap();
    assert!(body.contains("\"status\": \"certified\""), "{body}");
    assert!(body.contains("\"necessary_fences\": 2"), "{body}");
    assert!(body.contains("\"violation\": null"), "{body}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn certify_off_keeps_reports_certification_free() {
    let out = fenceplace(&["--program", "kernel:Dekker", "--seq"]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("\"certifications\": 0"), "{text}");
}

#[test]
fn certify_states_budget_is_honored() {
    let dir = scratch("certify-budget");
    let sb = dir.join("sb.fir");
    std::fs::write(&sb, FENCED_SB_IR).unwrap();
    let spec = format!("file:{}", sb.display());
    let reports = dir.join("reports");

    // A 3-state budget cannot finish even one enumeration pass:
    // inconclusive, but never a wrong verdict — and still exit 0.
    let out = fenceplace(&[
        "--program",
        &spec,
        "--config",
        "Manual:x86tso",
        "--certify-states",
        "3",
        "--seq",
        "--out",
        reports.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    let name = std::fs::read_dir(&reports)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .find(|n| n != "fleet_summary.json")
        .expect("module report written");
    let body = std::fs::read_to_string(reports.join(name)).unwrap();
    assert!(body.contains("\"status\": \"inconclusive\""), "{body}");
    assert!(body.contains("\"exhausted\": true"), "{body}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The SB pair beside a global of `u32::MAX` words: a 32 GiB image that
/// the model checker must refuse instead of allocating.
const BIG_IMAGE_IR: &str = "module big
global x 1
global y 1
global g 4294967295

fn p0 params=0 locals=() {
bb0:
  store @x, c1
  %1 = load @y
  ret %1
}

fn p1 params=0 locals=() {
bb0:
  store @y, c1
  %1 = load @x
  ret %1
}
";

#[test]
fn oversized_image_is_skipped_without_aborting_the_run() {
    let dir = scratch("certify-big");
    let big = dir.join("big.ir");
    std::fs::write(&big, BIG_IMAGE_IR).unwrap();
    let spec = format!("file:{}", big.display());
    let reports = dir.join("reports");

    let out = fenceplace(&[
        "--program",
        &spec,
        "--program",
        "kernel:CLH Lock",
        "--certify",
        "--seq",
        "--out",
        reports.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    let names: Vec<String> = std::fs::read_dir(&reports)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n != "fleet_summary.json")
        .collect();
    assert_eq!(names.len(), 2, "one report per module: {names:?}");
    for name in names {
        let body = std::fs::read_to_string(reports.join(&name)).unwrap();
        let expect = if name.contains("CLH") {
            "\"status\": \"certified\""
        } else {
            "\"status\": \"skipped\""
        };
        assert!(body.contains(expect), "{name}: {body}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn list_exits_zero() {
    let out = fenceplace(&["--list"]);
    assert_eq!(exit_code(&out), 0);
    let text = stdout(&out);
    assert!(text.contains("kernel:Dekker"));
    assert!(text.contains("file:PATH"));
    assert!(text.contains("dir:PATH"));
    assert!(text.contains("pack:PATH"));
}

#[test]
fn streamed_reports_are_byte_identical_to_resident() {
    let dir = scratch("streamed");
    let mods = dir.join("mods");
    std::fs::create_dir_all(&mods).unwrap();
    // Two parseable modules in a directory; the dir: spec resolves them
    // eagerly resident and lazily streamed.
    std::fs::write(mods.join("a.ir"), FENCED_SB_IR).unwrap();
    std::fs::write(
        mods.join("b.ir"),
        FENCED_SB_IR.replacen("module sb", "module sb2", 1),
    )
    .unwrap();
    let spec = format!("dir:{}", mods.display());
    let out_r = dir.join("resident");
    let out_s = dir.join("streamed");

    let resident = fenceplace(&["--program", &spec, "--out", out_r.to_str().unwrap()]);
    assert_eq!(exit_code(&resident), 0, "stderr: {}", stderr(&resident));
    let streamed = fenceplace(&[
        "--program",
        &spec,
        "--stream",
        "--window",
        "2",
        "--out",
        out_s.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&streamed), 0, "stderr: {}", stderr(&streamed));

    // Every per-module report matches byte for byte; only the summary
    // (wall-clock, stream block) may differ.
    let mut names: Vec<String> = std::fs::read_dir(&out_r)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n != "fleet_summary.json")
        .collect();
    names.sort();
    assert_eq!(names.len(), 2, "{names:?}");
    for name in &names {
        let r = std::fs::read_to_string(out_r.join(name)).unwrap();
        let s = std::fs::read_to_string(out_s.join(name)).unwrap();
        assert_eq!(r, s, "{name}: streamed report differs from resident");
    }
    let summary = std::fs::read_to_string(out_s.join("fleet_summary.json")).unwrap();
    assert!(summary.contains("\"stream\": {\"window\": 2"), "{summary}");
    assert!(summary.contains("\"peak_resident_modules\""), "{summary}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_stream_load_failure_is_partial_success() {
    let out = fenceplace(&[
        "--stream",
        "--window",
        "2",
        "--program",
        "kernel:Dekker",
        "--program",
        "file:/no/such/module.fir",
    ]);
    assert_eq!(exit_code(&out), 2, "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("\"load_failures\": 1"), "{text}");
    assert!(text.contains("\"status\": \"load_failed\""), "{text}");
    assert!(text.contains("\"modules_failed\": 1"), "{text}");
    assert!(stderr(&out).contains("quarantined"));

    // A duplicate spec is likewise quarantined at admission (the lazy
    // stream cannot refuse it up front like the resident path does).
    let out = fenceplace(&[
        "--stream",
        "--program",
        "kernel:Dekker",
        "--program",
        "kernel:Dekker",
    ]);
    assert_eq!(exit_code(&out), 2, "stderr: {}", stderr(&out));
    assert!(
        stdout(&out).contains("duplicate program"),
        "{}",
        stdout(&out)
    );
}

#[test]
fn streamed_unparsable_text_is_quarantined_as_invalid_ir() {
    let dir = scratch("stream-garbage");
    let bad = dir.join("bad.ir");
    std::fs::write(&bad, "not IR at all\n").unwrap();
    let spec = format!("file:{}", bad.display());

    let out = fenceplace(&["--stream", "--program", "kernel:Dekker", "--program", &spec]);
    assert_eq!(exit_code(&out), 2, "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("\"status\": \"invalid_ir\""), "{text}");
    assert!(text.contains("parse error"), "{text}");
    assert!(text.contains("\"status\": \"ok\""), "{text}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quarantined_duplicate_keeps_the_report_it_duplicates() {
    let dir = scratch("duplicate");
    let reports = dir.join("reports");
    let out = fenceplace(&[
        "--program",
        "kernel:Dekker",
        "--program",
        "kernel:Dekker",
        "--out",
        reports.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 2, "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("\"programs\": 2"), "{text}");
    assert!(text.contains("\"status\": \"load_failed\""), "{text}");
    assert!(text.contains("duplicate program"), "{text}");
    let body = std::fs::read_to_string(reports.join("kernel_Dekker.json")).unwrap();
    assert!(body.contains("\"status\": \"ok\""), "{body}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `a-b.ir` and `a_b.ir` share one report file (`file_stem` maps every
/// non-alphanumeric character to `_`). The later one is quarantined at
/// admission, with or without `--out` and windowed or not, so the
/// earlier module's report survives and the roll-up names the collision.
#[test]
fn report_file_collision_quarantines_the_later_module() {
    let dir = scratch("collision");
    let mods = dir.join("mods");
    std::fs::create_dir_all(&mods).unwrap();
    std::fs::write(mods.join("a-b.ir"), FENCED_SB_IR).unwrap();
    std::fs::write(
        mods.join("a_b.ir"),
        FENCED_SB_IR.replacen("module sb", "module sb2", 1),
    )
    .unwrap();
    let spec = format!("dir:{}", mods.display());
    let first = format!("file:{}", mods.join("a-b.ir").display());
    let later = format!("file:{}", mods.join("a_b.ir").display());

    let out = fenceplace(&["--program", &spec]);
    assert_eq!(exit_code(&out), 2, "stderr: {}", stderr(&out));
    let without_out = stdout(&out);
    for (tag, extra) in [("resident", &[][..]), ("windowed", &["--window", "2"][..])] {
        let reports = dir.join(tag);
        let mut args = vec!["--program", &spec, "--out", reports.to_str().unwrap()];
        args.extend(extra);
        let out = fenceplace(&args);
        assert_eq!(exit_code(&out), 2, "{tag} stderr: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("\"modules_failed\": 1"), "{tag}: {text}");
        assert!(text.contains("\"load_failures\": 1"), "{tag}: {text}");
        assert!(text.contains("report file collision"), "{tag}: {text}");
        assert!(
            text.contains(&format!("{later}\", \"status\": \"load_failed\"")),
            "{tag}: {text}"
        );
        assert!(
            text.contains(&format!("`{first}` already writes")),
            "{tag}: {text}"
        );
        assert!(stderr(&out).contains("wrote 1 module reports"), "{tag}");

        let files: Vec<PathBuf> = std::fs::read_dir(&reports)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| !p.ends_with("fleet_summary.json"))
            .collect();
        assert_eq!(files.len(), 1, "{tag}: {files:?}");
        let body = std::fs::read_to_string(&files[0]).unwrap();
        assert!(
            body.contains(&format!("\"module\": \"{first}\"")),
            "{tag}: {body}"
        );
        assert!(body.contains("\"status\": \"ok\""), "{tag}: {body}");
    }
    // The roll-up does not depend on --out (apart from wall_ms and the
    // stream block, which record how the run went).
    let rollup_core = |s: &str| -> String {
        s.lines()
            .filter(|l| !l.contains("\"fleet\": ") && !l.contains("\"stream\": "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let resident =
        std::fs::read_to_string(dir.join("resident").join("fleet_summary.json")).unwrap();
    assert_eq!(rollup_core(&without_out), rollup_core(&resident));

    let _ = std::fs::remove_dir_all(&dir);
}

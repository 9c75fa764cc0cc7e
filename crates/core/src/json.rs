//! Canonical JSON rendering of per-module fence reports.
//!
//! The one-shot CLI (`fenceplace --out DIR`) and the resident service
//! (`fenceplace serve`) both emit per-module report documents, and the
//! service's contract is that its reports are **byte-identical** to the
//! CLI's (pinned by the differential test in `tests/service.rs`). The
//! only way to keep that contract honest is for both paths to call the
//! same rendering code, so it lives here rather than in the binary.
//!
//! Everything in this module is deliberately `String`-assembly over a
//! fixed field order: the report format is part of the CLI's observable
//! surface (`tests/cli.rs` pins substrings of it) and of the wire
//! protocol (`docs/PROTOCOL.md`), so no serializer with its own opinions
//! about ordering or whitespace is welcome here.

use crate::certify::CertifyReport;
use crate::minimize::TargetModel;
use crate::pipeline::PipelineConfig;
use crate::report::{ModuleOutcome, ModuleReport};
use crate::FleetResult;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt::Write as _;

/// Escapes a string for embedding inside a JSON string literal
/// (quotes, backslashes, and control characters; nothing else).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The stable lowercase target tag used in reports and config specs.
pub fn target_name(t: TargetModel) -> &'static str {
    match t {
        TargetModel::X86Tso => "x86tso",
        TargetModel::ScHardware => "sc",
        TargetModel::Weak => "weak",
    }
}

/// One module's status triple as JSON fields (no braces):
/// `"status": .., "stage": ..|null, "error": ..|null`.
pub fn status_fields(status: &str, stage: Option<&str>, error: Option<&str>) -> String {
    let mut out = format!("\"status\": \"{}\"", json_escape(status));
    match stage {
        Some(s) => {
            let _ = write!(out, ", \"stage\": \"{}\"", json_escape(s));
        }
        None => out.push_str(", \"stage\": null"),
    }
    match error {
        Some(e) => {
            let _ = write!(out, ", \"error\": \"{}\"", json_escape(e));
        }
        None => out.push_str(", \"error\": null"),
    }
    out
}

/// A [`ModuleOutcome`] rendered as the status triple of
/// [`status_fields`].
pub fn outcome_fields(outcome: &ModuleOutcome) -> String {
    let stage = outcome.stage().map(|s| s.name());
    let error = if outcome.is_ok() {
        None
    } else {
        Some(outcome.to_string())
    };
    status_fields(outcome.kind(), stage, error.as_deref())
}

/// One completed config's result line: the per-config entry of a module
/// report's `"configs"` array. `fence_points` is the number of placed
/// [`crate::minimize::FencePoint`]s (zero for `Manual`).
pub fn config_json(config: &PipelineConfig, report: &ModuleReport, fence_points: usize) -> String {
    format!(
        "{{\"variant\": \"{}\", \"target\": \"{}\", \"functions\": {}, \
         \"escaping_reads\": {}, \"escaping_writes\": {}, \"acquires\": {}, \
         \"orderings_total\": {:?}, \"orderings_kept\": {:?}, \
         \"fence_points\": {}, \"full_fences\": {}, \"compiler_fences\": {}}}",
        json_escape(config.variant.name()),
        target_name(config.target),
        report.funcs.len(),
        report.escaping_reads(),
        report.escaping_writes(),
        report.acquires(),
        report.orderings_total(),
        report.orderings_kept(),
        fence_points,
        report.full_fences(),
        report.compiler_fences()
    )
}

/// One certification run as JSON: verdict, group/fence tallies, budget
/// spend, and the first soundness violation (when any).
pub fn cert_json(config: &PipelineConfig, cr: &CertifyReport) -> String {
    let violation = match cr.first_violation() {
        Some((group, outcome)) => format!("{{\"group\": {group}, \"outcome\": {outcome:?}}}"),
        None => "null".to_string(),
    };
    format!(
        "{{\"variant\": \"{}\", \"target\": \"{}\", \"status\": \"{}\", \
         \"groups\": {}, \"race_free_groups\": {}, \"fences\": {}, \
         \"necessary_fences\": {}, \"entry_fences\": {}, \"skipped\": {}, \
         \"states\": {}, \"exhausted\": {}, \"violation\": {violation}}}",
        json_escape(config.variant.name()),
        target_name(config.target),
        cr.status().name(),
        cr.groups.len(),
        cr.groups.iter().filter(|g| g.race_free).count(),
        cr.fences.len(),
        cr.fences.iter().filter(|f| f.necessary).count(),
        cr.fences.iter().filter(|f| f.entry).count(),
        cr.skipped.len(),
        cr.states,
        cr.exhausted,
    )
}

/// Assembles a per-module report document from pre-rendered parts: the
/// module name, its outcome triple, and the already-rendered
/// `"configs"` / `"certifications"` entry lines ([`config_json`] /
/// [`cert_json`] output). The service calls this directly so cached
/// config lines are reused verbatim; [`module_json`] is the
/// whole-[`FleetResult`] convenience over it. A quarantined module has
/// empty part lists and renders with empty arrays.
pub fn module_json_parts(
    job_name: &str,
    outcome: &ModuleOutcome,
    configs: &[String],
    certs: &[String],
) -> String {
    let mut out = format!(
        "{{\n  \"module\": \"{}\",\n  {},\n  \"configs\": [\n",
        json_escape(job_name),
        outcome_fields(outcome)
    );
    for (i, line) in configs.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {}{}",
            line,
            if i + 1 < configs.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"certifications\": [\n");
    for (i, line) in certs.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {}{}",
            line,
            if i + 1 < certs.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The per-module report document for one [`FleetResult`] — the exact
/// bytes `fenceplace --out DIR` writes to `DIR/<module>.json` and the
/// exact bytes the service returns in a `report` response.
pub fn module_json(job_name: &str, configs: &[PipelineConfig], fr: &FleetResult) -> String {
    let config_lines: Vec<String> = configs
        .iter()
        .zip(&fr.results)
        .map(|(config, r)| config_json(config, &r.report, r.points.len()))
        .collect();
    let cert_lines: Vec<String> = configs
        .iter()
        .zip(&fr.certifications)
        .map(|(config, cr)| cert_json(config, cr))
        .collect();
    module_json_parts(job_name, &fr.outcome, &config_lines, &cert_lines)
}

/// Sanitized file stem for per-module report files: every
/// non-alphanumeric character becomes `_` (so `corpus:FFT` writes
/// `corpus_FFT.json`). Shared by the CLI spiller and the service client.
pub fn file_stem(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// The admission rule for per-module report files, shared by the batch
/// CLI and `fenceplace client`: each report file belongs to the first
/// name that claims it.
#[derive(Debug, Default)]
pub struct ReportFiles {
    /// Report file stem → the first name that claimed it.
    stems: HashMap<String, String>,
}

impl ReportFiles {
    /// Claims the report file of `name`. Refuses a name that came before
    /// (the specs overlap, so the module would run twice) and a name
    /// whose report file another name already claimed (`a-b.ir` and
    /// `a_b.ir` would overwrite each other's report).
    pub fn claim(&mut self, name: &str) -> Result<(), String> {
        match self.stems.entry(file_stem(name)) {
            Entry::Vacant(slot) => {
                slot.insert(name.to_string());
                Ok(())
            }
            Entry::Occupied(first) if first.get() == name => {
                Err("duplicate program: specs overlap (e.g. a wildcard plus a named spec)".into())
            }
            Entry::Occupied(first) => Err(format!(
                "report file collision: `{}` already writes `{}.json`",
                first.get(),
                first.key()
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_quotes_backslashes_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn status_fields_null_handling() {
        assert_eq!(
            status_fields("ok", None, None),
            "\"status\": \"ok\", \"stage\": null, \"error\": null"
        );
        assert_eq!(
            status_fields("panicked", Some("tails"), Some("boom")),
            "\"status\": \"panicked\", \"stage\": \"tails\", \"error\": \"boom\""
        );
    }

    #[test]
    fn parts_render_empty_arrays_for_quarantined_modules() {
        let doc = module_json_parts("m", &ModuleOutcome::Ok, &[], &[]);
        assert!(doc.contains("\"configs\": [\n  ]"));
        assert!(doc.contains("\"certifications\": [\n  ]"));
        assert!(doc.ends_with("}\n"));
    }
}

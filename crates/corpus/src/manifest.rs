//! The multi-module manifest builder: turns textual program specs into
//! named modules, the input shape of fleet runs (the `fenceplace` CLI
//! and daemon, the figure harnesses, `perf_snapshot`, the scaling
//! benches).
//!
//! A *spec* selects programs from the corpus families:
//!
//! | spec            | meaning                                            |
//! |-----------------|----------------------------------------------------|
//! | `kernel:NAME`   | one Table II kernel (e.g. `kernel:Dekker`)         |
//! | `kernel:*`      | all nine Table II kernels                          |
//! | `corpus:NAME`   | one evaluation program (e.g. `corpus:FFT`)         |
//! | `corpus:*`      | all seventeen evaluation programs                  |
//! | `manual:NAME`   | the expert hand-fenced build of a program          |
//! | `manual:*`      | all seventeen expert builds                        |
//! | `synthetic:N`   | `synthetic_scaled(N)` (e.g. `synthetic:16000`)     |
//! | `file:PATH`     | a textual-IR module loaded from `PATH`             |
//! | `dir:PATH`      | every `*.ir`/`*.fir` module under `PATH` (sorted)  |
//! | `pack:PATH`     | a concatenated corpus file, split on `module` headers |
//!
//! Specs resolve in the order given; a `*` expands in the paper's
//! canonical order ([`crate::PROGRAM_NAMES`], Table II order for
//! kernels). Unknown families and names are [`ManifestError`]s, not
//! silent skips — a batch service must fail loudly on a typo'd
//! manifest — and a spec read from a manifest file carries the file and
//! line it came from ([`resolve_spec_at`]) so the operator can fix the
//! right entry.
//!
//! # Two resolvers
//!
//! [`resolve_spec`] builds the **built-in** families (`kernel:`,
//! `corpus:`, `manual:`, `synthetic:`) into modules. [`ModuleSource`]
//! is the one loader of the file-backed families (`file:`, `dir:`,
//! `pack:`), and every front end reads specs through it. Built-in specs
//! pushed onto it still resolve up front (a typo'd name must fail before
//! the run starts), while file-backed specs defer all I/O to iteration
//! and yield module **texts** one at a time ([`SourceItem::Text`]).
//! Parsing is the consumer's job, which lets the fleet run it as pool
//! units overlapped with analysis, and texts are neither parsed nor
//! validated here: the fleet quarantines an unparsable or malformed
//! module as its own `invalid_ir` slot instead of rejecting the whole
//! spec. A file that cannot be read surfaces as one `Err` item carrying
//! the per-item pseudo-spec (`file:PATH`, `pack:PATH#K`) and the stream
//! continues; the consumer decides whether that quarantines one module
//! or aborts the run.

use crate::{programs, Params};
use fence_ir::Module;
use std::collections::VecDeque;
use std::fmt;
use std::io::BufRead;

/// One resolved manifest entry: a display name plus the module to run.
#[derive(Debug)]
pub struct ManifestEntry {
    /// Unique display name (`family:name`), used as the fleet job name.
    pub name: String,
    /// The module to feed the pipeline.
    pub module: Module,
}

/// A structured spec-resolution failure: the offending spec, what went
/// wrong, and — when the spec came from a manifest file — the exact
/// file and 1-based line to fix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestError {
    /// The spec that failed to resolve, verbatim.
    pub spec: String,
    /// Why it failed.
    pub message: String,
    /// Manifest file the spec came from, if any.
    pub file: Option<String>,
    /// 1-based line within [`ManifestError::file`].
    pub line: Option<u32>,
}

impl ManifestError {
    fn new(spec: &str, message: impl Into<String>) -> Self {
        ManifestError {
            spec: spec.to_string(),
            message: message.into(),
            file: None,
            line: None,
        }
    }

    /// Attaches the manifest-file origin the spec was read from.
    pub fn at(mut self, file: impl Into<String>, line: u32) -> Self {
        self.file = Some(file.into());
        self.line = Some(line);
        self
    }
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let (Some(file), Some(line)) = (&self.file, self.line) {
            write!(f, "{file}:{line}: ")?;
        }
        write!(f, "bad spec `{}`: {}", self.spec, self.message)
    }
}

impl std::error::Error for ManifestError {}

/// Resolves a single built-in spec (`kernel:`, `corpus:`, `manual:`,
/// `synthetic:`) against the corpus at `params`, in canonical order.
/// File-backed specs are an error here: [`ModuleSource`] reads them.
/// See the module docs for the spec grammar.
pub fn resolve_spec(spec: &str, params: &Params) -> Result<Vec<ManifestEntry>, ManifestError> {
    let (family, name) = spec
        .split_once(':')
        .ok_or_else(|| ManifestError::new(spec, "expected `family:name`"))?;
    match family {
        "kernel" => {
            let kernels = crate::kernels::all();
            let selected: Vec<ManifestEntry> = kernels
                .into_iter()
                .filter(|k| name == "*" || k.name == name)
                .map(|k| ManifestEntry {
                    name: format!("kernel:{}", k.name),
                    module: k.module,
                })
                .collect();
            if selected.is_empty() {
                return Err(unknown(
                    spec,
                    "kernel",
                    crate::kernels::all().iter().map(|k| k.name),
                ));
            }
            Ok(selected)
        }
        "corpus" | "manual" => {
            let manual = family == "manual";
            let progs = programs(params);
            let selected: Vec<ManifestEntry> = progs
                .into_iter()
                .filter(|p| name == "*" || p.name == name)
                .map(|p| ManifestEntry {
                    name: format!("{family}:{}", p.name),
                    module: if manual { p.manual_module } else { p.module },
                })
                .collect();
            if selected.is_empty() {
                return Err(unknown(spec, family, crate::PROGRAM_NAMES.iter().copied()));
            }
            Ok(selected)
        }
        "synthetic" => {
            let n: usize = name.parse().map_err(|_| {
                ManifestError::new(spec, format!("synthetic wants a number, got `{name}`"))
            })?;
            Ok(vec![ManifestEntry {
                name: format!("synthetic:{n}"),
                module: crate::synthetic_scaled(n),
            }])
        }
        "file" | "dir" | "pack" => Err(ManifestError::new(
            spec,
            format!("`{family}:` specs are file-backed: read them through `ModuleSource`"),
        )),
        other => Err(ManifestError::new(
            spec,
            format!(
                "unknown family `{other}` (expected kernel, corpus, manual, synthetic, file, dir, or pack)"
            ),
        )),
    }
}

/// [`resolve_spec`], attaching the manifest-file origin (`file`,
/// 1-based `line`) to any error — the CLI's manifest reader uses this so
/// a typo'd entry reports exactly where to fix it.
pub fn resolve_spec_at(
    spec: &str,
    params: &Params,
    file: &str,
    line: u32,
) -> Result<Vec<ManifestEntry>, ManifestError> {
    resolve_spec(spec, params).map_err(|e| e.at(file, line))
}

fn unknown<'a>(spec: &str, family: &str, valid: impl Iterator<Item = &'a str>) -> ManifestError {
    ManifestError::new(
        spec,
        format!(
            "no such {family} (valid: {})",
            valid.collect::<Vec<_>>().join(", ")
        ),
    )
}

/// Resolves many specs in order, concatenating their expansions.
pub fn resolve_specs<S: AsRef<str>>(
    specs: &[S],
    params: &Params,
) -> Result<Vec<ManifestEntry>, ManifestError> {
    let mut out = Vec::new();
    for spec in specs {
        out.extend(resolve_spec(spec.as_ref(), params)?);
    }
    Ok(out)
}

/// Every concrete (non-`*`, non-synthetic) spec the corpus can resolve,
/// in canonical order — the `fenceplace --list` payload.
pub fn available() -> Vec<String> {
    let mut v: Vec<String> = crate::kernels::all()
        .iter()
        .map(|k| format!("kernel:{}", k.name))
        .collect();
    v.extend(crate::PROGRAM_NAMES.iter().map(|n| format!("corpus:{n}")));
    v.extend(crate::PROGRAM_NAMES.iter().map(|n| format!("manual:{n}")));
    v
}

/// The default full-evaluation manifest: all nine kernels plus all
/// seventeen evaluation programs — the standard fleet workload of the
/// figure harnesses and the scaling benches. Built-in specs are
/// statically known-good, so resolution cannot fail.
pub fn full_fleet(params: &Params) -> Vec<ManifestEntry> {
    resolve_specs(&["kernel:*", "corpus:*"], params)
        .unwrap_or_else(|e| unreachable!("built-in specs are statically valid: {e}"))
}

/// Incremental module-boundary splitter for concatenated textual-IR
/// corpora (`pack:` specs): feed lines, get back a completed module text
/// whenever a new top-level `module` header begins.
///
/// The boundary rule mirrors the parser's top-level scan exactly: a line
/// whose first token (after stripping a `;` comment) is `fn` opens a
/// function body, a `}` line closes it, and only a `module` token seen
/// *outside* a body starts a new chunk. A `module` token inside an
/// unterminated body is body content, not a boundary — so a corrupted
/// chunk mis-splits into text that fails to parse (and gets quarantined)
/// rather than silently swallowing its neighbor. The splitter itself is
/// total: it never panics, whatever bytes it is fed.
#[derive(Debug, Default)]
pub struct ModuleSplitter {
    buf: String,
    in_body: bool,
    any: bool,
}

impl ModuleSplitter {
    /// A fresh splitter with no buffered text.
    pub fn new() -> Self {
        ModuleSplitter::default()
    }

    /// Feeds one line (without its trailing newline). Returns the
    /// previous module's complete text when `line` starts the next one.
    pub fn push_line(&mut self, line: &str) -> Option<String> {
        let code = line.split(';').next().unwrap_or("");
        let first = code.split_whitespace().next();
        let mut completed = None;
        match first {
            Some("}") if self.in_body => self.in_body = false,
            _ if self.in_body => {}
            Some("module") if self.any => {
                completed = Some(std::mem::take(&mut self.buf));
                self.any = false;
            }
            Some("fn") => self.in_body = true,
            _ => {}
        }
        if first.is_some() {
            self.any = true;
        }
        self.buf.push_str(line);
        self.buf.push('\n');
        completed
    }

    /// Flushes the final buffered module, if any non-blank line was seen
    /// since the last boundary.
    pub fn finish(self) -> Option<String> {
        if self.any {
            Some(self.buf)
        } else {
            None
        }
    }
}

/// Splits a whole concatenated corpus in memory (the eager counterpart
/// of feeding [`ModuleSplitter`] line by line from a reader).
pub fn split_corpus(text: &str) -> Vec<String> {
    let mut splitter = ModuleSplitter::new();
    let mut out = Vec::new();
    for line in text.lines() {
        out.extend(splitter.push_line(line));
    }
    out.extend(splitter.finish());
    out
}

/// One item yielded by a [`ModuleSource`].
#[derive(Debug)]
pub enum SourceItem {
    /// An already-built module from a built-in family (kernels, corpus,
    /// manual, synthetic) — these are generated, not parsed.
    Module(ManifestEntry),
    /// An unparsed module text from a file-backed spec. `name` is the
    /// per-item pseudo-spec (`file:PATH`, `pack:PATH#K`); parsing is the
    /// consumer's job so it can run off-thread.
    Text {
        /// Unique display name, usable as a fleet job name.
        name: String,
        /// The raw textual IR.
        text: String,
    },
}

/// What one pending spec still owes the stream.
enum Pending {
    /// An eagerly resolved built-in entry.
    Entry(ManifestEntry),
    /// A single file, unread.
    File(String),
    /// A directory, not yet listed.
    Dir(String),
    /// A concatenated corpus file, possibly mid-read.
    Pack {
        path: String,
        state: Option<PackState>,
    },
}

struct PackState {
    reader: std::io::BufReader<std::fs::File>,
    splitter: Option<ModuleSplitter>,
    index: usize,
}

/// Streaming manifest resolution, and the only loader of file-backed
/// specs: yields one [`SourceItem`] at a time, deferring all file I/O
/// (and leaving parsing to the consumer) so a corpus larger than memory
/// can be processed at O(1) resident items per window slot.
///
/// Built-in specs (the [`resolve_spec`] families) resolve eagerly in
/// [`ModuleSource::push_spec`] — a typo must fail before the run
/// starts. File-backed specs are validated only when the stream reaches
/// them: an unreadable file or broken pack surfaces as an `Err` whose
/// [`ManifestError::spec`] is the per-item pseudo-spec, and iteration
/// continues with the next item.
pub struct ModuleSource {
    params: Params,
    queue: VecDeque<Pending>,
}

impl ModuleSource {
    /// An empty source; add specs with [`ModuleSource::push_spec`].
    pub fn new(params: Params) -> Self {
        ModuleSource {
            params,
            queue: VecDeque::new(),
        }
    }

    /// Appends one spec to the stream. Built-in families resolve (and
    /// can fail) here; `file:`/`dir:`/`pack:` specs are recorded without
    /// touching the filesystem.
    pub fn push_spec(&mut self, spec: &str) -> Result<(), ManifestError> {
        match spec.split_once(':') {
            Some(("file", path)) => self.queue.push_back(Pending::File(path.to_string())),
            Some(("dir", path)) => self.queue.push_back(Pending::Dir(path.to_string())),
            Some(("pack", path)) => self.queue.push_back(Pending::Pack {
                path: path.to_string(),
                state: None,
            }),
            _ => {
                for entry in resolve_spec(spec, &self.params)? {
                    self.queue.push_back(Pending::Entry(entry));
                }
            }
        }
        Ok(())
    }

    /// [`ModuleSource::push_spec`], attaching a manifest-file origin to
    /// any eager resolution error.
    pub fn push_spec_at(&mut self, spec: &str, file: &str, line: u32) -> Result<(), ManifestError> {
        self.push_spec(spec).map_err(|e| e.at(file, line))
    }

    /// Lists `dir` and queues its `*.ir`/`*.fir` files (sorted by path)
    /// in place of the `Dir` pending that was just popped.
    fn expand_dir(&mut self, path: &str) -> Result<(), ManifestError> {
        let spec = format!("dir:{path}");
        let entries = std::fs::read_dir(path)
            .map_err(|e| ManifestError::new(&spec, format!("cannot list `{path}`: {e}")))?;
        let mut files: Vec<String> = Vec::new();
        for entry in entries {
            let entry = entry
                .map_err(|e| ManifestError::new(&spec, format!("cannot list `{path}`: {e}")))?;
            let p = entry.path();
            let ext = p.extension().and_then(|e| e.to_str());
            if matches!(ext, Some("ir") | Some("fir")) {
                files.push(p.display().to_string());
            }
        }
        if files.is_empty() {
            return Err(ManifestError::new(
                &spec,
                format!("no `*.ir`/`*.fir` modules in `{path}`"),
            ));
        }
        files.sort();
        for f in files.into_iter().rev() {
            self.queue.push_front(Pending::File(f));
        }
        Ok(())
    }
}

impl Iterator for ModuleSource {
    type Item = Result<SourceItem, ManifestError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match self.queue.pop_front()? {
                Pending::Entry(entry) => return Some(Ok(SourceItem::Module(entry))),
                Pending::File(path) => {
                    let name = format!("file:{path}");
                    return Some(match std::fs::read_to_string(&path) {
                        Ok(text) => Ok(SourceItem::Text { name, text }),
                        Err(e) => Err(ManifestError::new(
                            &name,
                            format!("cannot read `{path}`: {e}"),
                        )),
                    });
                }
                Pending::Dir(path) => {
                    if let Err(e) = self.expand_dir(&path) {
                        return Some(Err(e));
                    }
                    // Files queued; loop to yield the first one.
                }
                Pending::Pack { path, state } => {
                    let mut state = match state {
                        Some(s) => s,
                        None => match std::fs::File::open(&path) {
                            Ok(f) => PackState {
                                reader: std::io::BufReader::new(f),
                                splitter: Some(ModuleSplitter::new()),
                                index: 0,
                            },
                            Err(e) => {
                                return Some(Err(ManifestError::new(
                                    &format!("pack:{path}"),
                                    format!("cannot read `{path}`: {e}"),
                                )));
                            }
                        },
                    };
                    let mut line = String::new();
                    loop {
                        line.clear();
                        match state.reader.read_line(&mut line) {
                            Ok(0) => {
                                // EOF: flush the last module, drop the pack.
                                let last = state.splitter.take().and_then(|s| s.finish());
                                match last {
                                    Some(text) => {
                                        let name = format!("pack:{path}#{}", state.index);
                                        return Some(Ok(SourceItem::Text { name, text }));
                                    }
                                    None if state.index == 0 => {
                                        return Some(Err(ManifestError::new(
                                            &format!("pack:{path}"),
                                            format!("no modules in `{path}`"),
                                        )));
                                    }
                                    None => break,
                                }
                            }
                            Ok(_) => {
                                let trimmed = line.trim_end_matches(['\n', '\r']);
                                let chunk = state
                                    .splitter
                                    .as_mut()
                                    .expect("splitter live until EOF")
                                    .push_line(trimmed);
                                if let Some(text) = chunk {
                                    let name = format!("pack:{path}#{}", state.index);
                                    state.index += 1;
                                    self.queue.push_front(Pending::Pack {
                                        path,
                                        state: Some(state),
                                    });
                                    return Some(Ok(SourceItem::Text { name, text }));
                                }
                            }
                            Err(e) => {
                                // Mid-stream read error: report once under the
                                // pack spec and abandon the rest of the file.
                                return Some(Err(ManifestError::new(
                                    &format!("pack:{path}"),
                                    format!("read error in `{path}`: {e}"),
                                )));
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wildcards_expand_in_canonical_order() {
        let p = Params::tiny();
        let kernels = resolve_spec("kernel:*", &p).unwrap();
        assert_eq!(kernels.len(), 9);
        assert_eq!(kernels[0].name, "kernel:Chase Lev WSQ");
        let corpus = resolve_spec("corpus:*", &p).unwrap();
        assert_eq!(corpus.len(), 17);
        let names: Vec<&str> = corpus
            .iter()
            .map(|e| e.name.strip_prefix("corpus:").unwrap())
            .collect();
        assert_eq!(names, crate::PROGRAM_NAMES.to_vec());
    }

    #[test]
    fn single_specs_resolve() {
        let p = Params::tiny();
        let fft = resolve_spec("corpus:FFT", &p).unwrap();
        assert_eq!(fft.len(), 1);
        assert_eq!(fft[0].name, "corpus:FFT");
        let dekker = resolve_spec("kernel:Dekker", &p).unwrap();
        assert_eq!(dekker.len(), 1);
        let syn = resolve_spec("synthetic:250", &p).unwrap();
        assert_eq!(syn[0].name, "synthetic:250");
        assert!(!syn[0].module.funcs.is_empty());
    }

    #[test]
    fn manual_specs_keep_hand_placed_fences() {
        let p = Params::tiny();
        let legacy = resolve_spec("corpus:Canneal", &p).unwrap();
        let manual = resolve_spec("manual:Canneal", &p).unwrap();
        assert_eq!(crate::Program::count_manual_fences(&legacy[0].module), 0);
        assert!(crate::Program::count_manual_fences(&manual[0].module) > 0);
    }

    #[test]
    fn errors_are_loud_and_structured() {
        let p = Params::tiny();
        let err = resolve_spec("corpus:NoSuch", &p).unwrap_err();
        assert_eq!(err.spec, "corpus:NoSuch");
        assert!(err.message.contains("no such corpus"));
        assert!(err.file.is_none());
        assert!(resolve_spec("kernel:NoSuch", &p).is_err());
        assert!(resolve_spec("nofamily:FFT", &p).is_err());
        assert!(resolve_spec("synthetic:abc", &p).is_err());
        assert!(resolve_spec("plainword", &p).is_err());
        assert!(resolve_specs(&["kernel:*", "corpus:NoSuch"], &p).is_err());
    }

    #[test]
    fn origin_is_attached_and_displayed() {
        let p = Params::tiny();
        let err = resolve_spec_at("kernel:NoSuch", &p, "jobs.txt", 7).unwrap_err();
        assert_eq!(err.file.as_deref(), Some("jobs.txt"));
        assert_eq!(err.line, Some(7));
        let shown = err.to_string();
        assert!(shown.starts_with("jobs.txt:7: "), "{shown}");
        assert!(shown.contains("bad spec `kernel:NoSuch`"));
        // And a good spec at an origin resolves normally.
        assert_eq!(
            resolve_spec_at("kernel:Dekker", &p, "jobs.txt", 1)
                .unwrap()
                .len(),
            1
        );
    }

    /// Drains a source holding the one spec.
    fn drain(spec: &str) -> Vec<Result<SourceItem, ManifestError>> {
        let mut src = ModuleSource::new(Params::tiny());
        src.push_spec(spec).unwrap();
        src.collect()
    }

    #[test]
    fn file_specs_roundtrip_through_the_printer() {
        let p = Params::tiny();
        let dekker = &resolve_spec("kernel:Dekker", &p).unwrap()[0].module;
        let dir = std::env::temp_dir().join(format!("fence-manifest-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dekker.fir");
        std::fs::write(&path, fence_ir::printer::print_module(dekker)).unwrap();
        let spec = format!("file:{}", path.display());
        // The eager resolver refuses file-backed specs and names the loader.
        let refused = resolve_spec(&spec, &p).unwrap_err();
        assert!(refused.message.contains("ModuleSource"), "{refused}");
        let items = drain(&spec);
        assert_eq!(items.len(), 1);
        let Ok(SourceItem::Text { name, text }) = &items[0] else {
            panic!("a file streams one text, got {:?}", items[0]);
        };
        assert_eq!(name, &spec);
        let loaded = fence_ir::parser::parse_module(text).unwrap();
        assert_eq!(loaded.funcs.len(), dekker.funcs.len());
        // Parsing densely renumbers instruction ids, so the printed form
        // is a fixed point after one round-trip, not necessarily equal to
        // the original (which may number with gaps).
        let printed = fence_ir::printer::print_module(&loaded);
        let reparsed = fence_ir::parser::parse_module(&printed).unwrap();
        assert_eq!(printed, fence_ir::printer::print_module(&reparsed));
        assert!(fence_ir::verify_module(&loaded).is_empty());
        // A missing file is a loud, structured error.
        let missing = drain("file:/no/such/path.fir").remove(0).unwrap_err();
        assert!(missing.message.contains("cannot read"));
        std::fs::remove_dir_all(&dir).ok();
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fence-manifest-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn splitter_recovers_concatenated_modules() {
        let p = Params::tiny();
        let printed: Vec<String> = ["kernel:Dekker", "kernel:Peterson", "kernel:Lamport"]
            .iter()
            .map(|s| fence_ir::printer::print_module(&resolve_spec(s, &p).unwrap()[0].module))
            .collect();
        let pack: String = printed.concat();
        let chunks = split_corpus(&pack);
        assert_eq!(chunks.len(), 3);
        for (chunk, original) in chunks.iter().zip(&printed) {
            // Splitting recovers each printed module byte-for-byte, and
            // every chunk parses (ids may renumber densely, so compare
            // text, not reprints).
            assert_eq!(chunk, original);
            fence_ir::parser::parse_module(chunk).unwrap();
        }
        // Separator junk between modules sticks to the preceding chunk
        // (it fails that chunk's parse, not its neighbor's).
        assert_eq!(split_corpus("module a\nmodule b\n").len(), 2);
        // `module` inside an unterminated body is content, not a boundary.
        assert_eq!(split_corpus("module a\nfn f\nmodule b\n").len(), 1);
        // Blank/comment-only text yields nothing.
        assert!(split_corpus("\n  \n; comment only\n").is_empty());
    }

    #[test]
    fn dir_and_pack_specs_stream_and_resolve() {
        let p = Params::tiny();
        let dir = scratch_dir("dirspec");
        let names = ["kernel:Dekker", "kernel:Peterson", "kernel:CLH Lock"];
        let mut printed = Vec::new();
        for (i, spec) in names.iter().enumerate() {
            let text = fence_ir::printer::print_module(&resolve_spec(spec, &p).unwrap()[0].module);
            std::fs::write(dir.join(format!("m{i}.ir")), &text).unwrap();
            printed.push(text);
        }
        // A non-module extension is ignored by dir scans.
        std::fs::write(dir.join("notes.txt"), "not ir").unwrap();
        let pack_path = dir.join("all.pack");
        std::fs::write(&pack_path, printed.concat()).unwrap();
        let texts = |spec: &str| -> Vec<(String, String)> {
            drain(spec)
                .into_iter()
                .map(|item| match item.unwrap() {
                    SourceItem::Text { name, text } => (name, text),
                    other => panic!("file-backed specs stream texts, got {other:?}"),
                })
                .collect()
        };

        // Dir: every *.ir sorted by path, named file:PATH, read verbatim.
        let dspec = format!("dir:{}", dir.display());
        let dir_items = texts(&dspec);
        assert_eq!(dir_items.len(), 3);
        assert!(dir_items[0].0.starts_with("file:"));
        assert!(dir_items[0].0.ends_with("m0.ir"));
        assert!(dir_items.windows(2).all(|w| w[0].0 < w[1].0));
        // Pack: chunks named pack:PATH#K; both carry the printed texts.
        let pspec = format!("pack:{}", pack_path.display());
        let pack_items = texts(&pspec);
        assert_eq!(pack_items.len(), 3);
        assert_eq!(pack_items[0].0, format!("{pspec}#0"));
        assert_eq!(pack_items[2].0, format!("{pspec}#2"));
        for items in [&dir_items, &pack_items] {
            let got: Vec<&String> = items.iter().map(|(_, text)| text).collect();
            assert_eq!(got, printed.iter().collect::<Vec<_>>());
        }

        // Built-ins mix with file-backed specs; typos fail at push time.
        let mut src = ModuleSource::new(p);
        src.push_spec("kernel:Dekker").unwrap();
        src.push_spec(&pspec).unwrap();
        assert!(src.push_spec("kernel:NoSuch").is_err());
        let items: Vec<_> = src.map(|r| r.unwrap()).collect();
        assert_eq!(items.len(), 4);
        assert!(matches!(&items[0], SourceItem::Module(e) if e.name == "kernel:Dekker"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_errors_carry_item_specs_and_do_not_stall() {
        let p = Params::tiny();
        // Missing dir / missing pack / missing file: one Err each, under
        // the right pseudo-spec, and the stream moves on.
        let mut src = ModuleSource::new(p);
        src.push_spec("dir:/no/such/dir").unwrap();
        src.push_spec("file:/no/such/file.ir").unwrap();
        src.push_spec("pack:/no/such/all.pack").unwrap();
        src.push_spec("kernel:Dekker").unwrap();
        let items: Vec<_> = src.collect();
        assert_eq!(items.len(), 4);
        let e0 = items[0].as_ref().unwrap_err();
        assert_eq!(e0.spec, "dir:/no/such/dir");
        assert!(e0.message.contains("cannot list"));
        let e1 = items[1].as_ref().unwrap_err();
        assert_eq!(e1.spec, "file:/no/such/file.ir");
        assert!(e1.message.contains("cannot read"));
        let e2 = items[2].as_ref().unwrap_err();
        assert_eq!(e2.spec, "pack:/no/such/all.pack");
        assert!(items[3].is_ok());

        // An empty dir and an empty pack are loud errors, not silence.
        let dir = scratch_dir("streamerr");
        let empty = dir.join("empty");
        std::fs::create_dir_all(&empty).unwrap();
        let err = drain(&format!("dir:{}", empty.display()))
            .remove(0)
            .unwrap_err();
        assert!(err.message.contains("no `*.ir`"), "{err}");
        let blank = dir.join("blank.pack");
        std::fs::write(&blank, "; nothing here\n").unwrap();
        let err = drain(&format!("pack:{}", blank.display()))
            .remove(0)
            .unwrap_err();
        assert!(err.message.contains("no modules"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

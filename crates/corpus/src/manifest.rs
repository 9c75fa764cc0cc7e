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
//! line it came from ([`ModuleSource::push_spec_at`]) so the operator can
//! fix the right entry.
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
//! Parsing is the consumer's job, which lets each fleet worker parse
//! the module it takes, and texts are neither parsed nor
//! validated here: the fleet quarantines an unparsable or malformed
//! module as its own `invalid_ir` slot instead of rejecting the whole
//! spec. A file that cannot be read surfaces as one `Err` item carrying
//! the per-item pseudo-spec (`file:PATH`, `pack:PATH#K`) and the stream
//! continues; the consumer decides whether that quarantines one module
//! or aborts the run.
//!
//! # Caps
//!
//! No input can make a resolver allocate without bound: a module text is
//! at most [`MAX_MODULE_BYTES`] (a longer `file:` is one `Err` item, and
//! a longer `pack:` chunk is one `Err` item that ends its pack), and
//! `synthetic:N` takes N up to [`MAX_SYNTHETIC`] (a larger N is a
//! [`ManifestError`] from [`resolve_spec`]). The built-in programs'
//! [`Params`] are capped too: [`Params::set`] takes `threads` up to
//! [`MAX_THREADS`] and `scale` up to [`MAX_SCALE`].

use crate::{programs, Params};
use fence_ir::parser::{first_token, TopLevel};
use fence_ir::Module;
use std::collections::VecDeque;
use std::fmt;
use std::io::{BufRead, Read};

/// The longest module text, in bytes, that a file-backed spec yields:
/// 64 MiB, far above the largest module any benchmark workload streams
/// (2.36 MB). Only a runaway input (a pack without line breaks,
/// `/dev/zero`) reaches it.
pub const MAX_MODULE_BYTES: usize = 64 << 20;

/// The largest N `synthetic:N` builds: far above any size a test or
/// script names (`synthetic:16000`), while `synthetic:1000000` would
/// take seconds and gigabytes to build.
pub const MAX_SYNTHETIC: usize = 250_000;

/// The most threads a built-in program is built for ([`Params::threads`]):
/// each thread is one launch entry, and a product such as `threads *
/// scale` must not overflow. At this cap and [`MAX_SCALE`], `corpus:*`,
/// `manual:*` and `kernel:*` build in hundredths of a second.
pub const MAX_THREADS: usize = 4_096;

/// The largest problem-size scale of a built-in program
/// ([`Params::scale`]).
pub const MAX_SCALE: usize = 65_536;

impl Params {
    /// Sets the build parameter `key` (`threads` or `scale`) from its
    /// text: every front end reads both through here, so no input builds
    /// past [`MAX_THREADS`] or [`MAX_SCALE`]. The error says what is
    /// wrong with `value`; the caller names where it came from.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        let (slot, cap) = match key {
            "threads" => (&mut self.threads, MAX_THREADS),
            "scale" => (&mut self.scale, MAX_SCALE),
            other => return Err(format!("`{other}` is not a build parameter")),
        };
        match value.parse() {
            Ok(n) if n <= cap => {
                *slot = n;
                Ok(())
            }
            Ok(_) => Err(format!("`{value}` is above the cap of {cap}")),
            Err(_) => Err(format!("`{value}` is not a number")),
        }
    }
}

/// The error of a module text longer than [`MAX_MODULE_BYTES`].
fn text_too_long() -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("a module text exceeds {MAX_MODULE_BYTES} bytes"),
    )
}

/// Reads a whole `file:` module text, refusing one longer than
/// [`MAX_MODULE_BYTES`] before reading past the cap.
fn read_text(path: &str) -> std::io::Result<String> {
    let mut text = String::new();
    std::fs::File::open(path)?
        .take(MAX_MODULE_BYTES as u64 + 1)
        .read_to_string(&mut text)?;
    if text.len() > MAX_MODULE_BYTES {
        return Err(text_too_long());
    }
    Ok(text)
}

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
            if n > MAX_SYNTHETIC {
                return Err(ManifestError::new(
                    spec,
                    format!("synthetic takes N up to {MAX_SYNTHETIC}, got {n}"),
                ));
            }
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
/// corpora (`pack:` specs). Boundaries follow the parser's own line
/// classifier ([`fence_ir::parser::first_token`] and
/// [`fence_ir::parser::TopLevel`]): only a `module` line outside a function
/// body starts a new chunk, so a corrupted chunk mis-splits into text that
/// fails to parse (and is quarantined) instead of swallowing its neighbor.
/// A line that is not UTF-8 is classified by its lossy decoding and
/// taints only its own chunk. The splitter never panics, whatever it is
/// fed, and never buffers more than [`MAX_MODULE_BYTES`] plus one byte.
#[derive(Debug, Default)]
pub struct ModuleSplitter {
    buf: Vec<u8>,
    scan: TopLevel,
    /// A non-blank line is buffered.
    any: bool,
    /// Lines fed so far.
    lines: usize,
    /// Lines fed before the buffered chunk.
    lines_before: usize,
}

impl ModuleSplitter {
    /// Reads lines from `reader` straight into the buffer until a module
    /// is complete, and returns it; at the end of the input, returns the
    /// last one, then `None`. A module is its text (line endings as
    /// [`str::lines`] reads them, each then `\n`), or `Err` with the
    /// 1-based input line of its first line that is not UTF-8. A module
    /// whose text (with the next module's first line) grows past
    /// [`MAX_MODULE_BYTES`] is an `InvalidData` I/O error.
    pub fn next_chunk(
        &mut self,
        reader: &mut impl BufRead,
    ) -> std::io::Result<Option<Result<String, usize>>> {
        loop {
            let start = self.buf.len();
            // One byte past the cap tells a text that is too long.
            let room = MAX_MODULE_BYTES.saturating_sub(start) + 1;
            if reader.take(room as u64).read_until(b'\n', &mut self.buf)? == 0 {
                return Ok(self.finish());
            }
            if self.buf.len() > MAX_MODULE_BYTES {
                return Err(text_too_long());
            }
            if self.buf.pop_if(|b| *b == b'\n').is_some() {
                self.buf.pop_if(|b| *b == b'\r');
            }
            let line = String::from_utf8_lossy(&self.buf[start..]);
            // A top-level `module` line after buffered content starts the
            // next module; the finished one is cut off before it.
            let boundary = first_token(&line).is_some_and(|tok| {
                let starts = self.scan.is_top_level(tok) && tok == "module" && self.any;
                self.any = true;
                starts
            });
            let done = boundary.then(|| self.cut(start));
            self.lines += 1;
            self.buf.push(b'\n');
            if done.is_some() {
                return Ok(done);
            }
        }
    }

    /// Flushes the buffered module, if any non-blank line was fed since
    /// the last boundary.
    fn finish(&mut self) -> Option<Result<String, usize>> {
        std::mem::take(&mut self.any).then(|| self.cut(self.buf.len()))
    }

    /// Splits the buffered text before byte `at` off as a chunk.
    fn cut(&mut self, at: usize) -> Result<String, usize> {
        let rest = self.buf.split_off(at);
        let text = std::mem::replace(&mut self.buf, rest);
        let before = std::mem::replace(&mut self.lines_before, self.lines);
        String::from_utf8(text).map_err(|e| {
            let valid = &e.as_bytes()[..e.utf8_error().valid_up_to()];
            before + 1 + valid.iter().filter(|&&b| b == b'\n').count()
        })
    }
}

/// Splits a whole concatenated corpus in memory, exactly as a `pack:`
/// file holding `text` streams.
pub fn split_corpus(text: &str) -> Vec<String> {
    let mut splitter = ModuleSplitter::default();
    let mut reader = text.as_bytes();
    // Reading a byte slice cannot fail, and `text` is UTF-8 throughout.
    std::iter::from_fn(|| splitter.next_chunk(&mut reader).ok().flatten())
        .filter_map(Result::ok)
        .collect()
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
    splitter: ModuleSplitter,
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
                    return Some(match read_text(&path) {
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
                    let pack_spec = format!("pack:{path}");
                    let mut state = match state {
                        Some(s) => s,
                        None => match std::fs::File::open(&path) {
                            Ok(f) => PackState {
                                reader: std::io::BufReader::new(f),
                                splitter: ModuleSplitter::default(),
                                index: 0,
                            },
                            Err(e) => {
                                return Some(Err(ManifestError::new(
                                    &pack_spec,
                                    format!("cannot read `{path}`: {e}"),
                                )));
                            }
                        },
                    };
                    let name = format!("{pack_spec}#{}", state.index);
                    let item = match state.splitter.next_chunk(&mut state.reader) {
                        Ok(Some(Ok(text))) => Ok(SourceItem::Text { name, text }),
                        // Quarantine just this module; the rest streams on.
                        Ok(Some(Err(line))) => Err(ManifestError::new(
                            &name,
                            format!("line {line} of `{path}` is not valid UTF-8"),
                        )),
                        Ok(None) if state.index == 0 => {
                            return Some(Err(ManifestError::new(
                                &pack_spec,
                                format!("no modules in `{path}`"),
                            )));
                        }
                        Ok(None) => continue,
                        Err(e) => {
                            // Mid-stream read error or a text over the cap:
                            // report once under the pack spec and abandon
                            // the rest of the file.
                            return Some(Err(ManifestError::new(
                                &pack_spec,
                                format!("read error in `{path}`: {e}"),
                            )));
                        }
                    };
                    state.index += 1;
                    self.queue.push_front(Pending::Pack {
                        path,
                        state: Some(state),
                    });
                    return Some(item);
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

    /// An oversized `synthetic:N` is refused before anything is built.
    #[test]
    fn synthetic_n_is_capped() {
        let spec = format!("synthetic:{}", MAX_SYNTHETIC + 1);
        let err = resolve_spec(&spec, &Params::tiny()).unwrap_err();
        assert!(err.message.contains("up to"), "{err}");
    }

    #[test]
    fn origin_is_attached_and_displayed() {
        let mut src = ModuleSource::new(Params::tiny());
        let err = src
            .push_spec_at("kernel:NoSuch", "jobs.txt", 7)
            .unwrap_err();
        assert_eq!(err.file.as_deref(), Some("jobs.txt"));
        assert_eq!(err.line, Some(7));
        let shown = err.to_string();
        assert!(shown.starts_with("jobs.txt:7: "), "{shown}");
        assert!(shown.contains("bad spec `kernel:NoSuch`"));
        // And a good spec at an origin resolves normally.
        src.push_spec_at("kernel:Dekker", "jobs.txt", 1).unwrap();
        assert_eq!(src.count(), 1);
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

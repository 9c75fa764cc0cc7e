//! `fenceplace serve` — the resident analysis daemon.
//!
//! Wraps a [`fenceplace::Service`] behind the newline-delimited JSON
//! protocol of `docs/PROTOCOL.md` over one of two transports:
//!
//! * `--socket PATH` — a Unix domain socket, one thread per
//!   connection, all connections sharing the one service (and so the
//!   one cache). Each accept joins the connection threads that have
//!   ended, so a long-lived daemon holds stacks only for open
//!   connections. The socket file is removed on clean shutdown; a
//!   daemon killed by a signal leaves it behind, and the next `serve`
//!   on that path replaces it. When the path is in use, a connect to it
//!   decides: a refused connect to a socket file means a stale socket,
//!   which is unlinked and bound again; a daemon that answers keeps its
//!   socket and the new one exits 1. A path that is not a socket is
//!   never removed.
//! * `--stdio` — requests on stdin, responses on stdout, for contract
//!   tests and piping. EOF is a clean shutdown.
//!
//! Analysis requests either carry inline module text or a manifest
//! `spec` (`corpus:FFT`, `kernel:*`, `dir:...`, `pack:...`) the daemon
//! expands server-side through the same `corpus::ModuleSource` as the
//! batch CLI; spec batches stream one `report` response per module
//! (`"final":false`), quarantined per item, and terminate with a `batch`
//! summary.
//!
//! The daemon installs no signal handlers (it is std-only): SIGINT and
//! SIGTERM terminate it with the cache lost, which is safe — the cache
//! is a performance artifact, never the source of truth.

use corpus::{ModuleSource, Params};
use fenceplace::json;
use fenceplace::service::wire::{self, Request, PROTOCOL_VERSION};
use fenceplace::service::{CacheDisposition, Service, ServiceOptions};
use fenceplace::{stream_items, ModuleOutcome, PipelineConfig, StreamItem};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::os::unix::fs::FileTypeExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

fn usage() -> &'static str {
    "fenceplace serve — resident analysis daemon (newline-delimited JSON)

USAGE:
  fenceplace serve (--socket PATH | --stdio) [options]

OPTIONS:
  --socket PATH      listen on a Unix domain socket at PATH (one thread
                     per connection; the file is removed on clean exit,
                     and a stale one left by a killed daemon is replaced)
  --stdio            speak the protocol on stdin/stdout (EOF = shutdown)
  --budget N         default per-request step budget (a request's own
                     `budget` field overrides it)
  --cache-cap N      keep at most N module entries resident; least-
                     recently-used entries are evicted beyond that
  --threads N        corpus build parameter for server-side spec
                     expansion (default 8, at most 4096)
  --scale N          corpus build parameter for spec expansion
                     (default 16, at most 65536)
  --help             this text

The wire protocol (requests, responses, error codes) is documented in
docs/PROTOCOL.md; every example there is pinned by tests/service.rs.

EXIT CODES:
  0  clean shutdown (shutdown request, or EOF under --stdio)
  1  fatal error (bad usage, cannot bind the socket: a live daemon
     answers there or the path is not a socket, I/O error on stdio)
"
}

struct ServeCli {
    socket: Option<String>,
    stdio: bool,
    budget: Option<u64>,
    cache_cap: Option<usize>,
    params: Params,
}

/// `Ok(None)` means `--help`.
fn parse_serve_args(args: &[String]) -> Result<Option<ServeCli>, String> {
    let mut cli = ServeCli {
        socket: None,
        stdio: false,
        budget: None,
        cache_cap: None,
        params: Params::default(),
    };
    let mut it = args.iter();
    let need = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => cli.socket = Some(need(&mut it, "--socket")?),
            "--stdio" => cli.stdio = true,
            "--budget" => {
                let v = need(&mut it, "--budget")?;
                cli.budget = Some(v.parse().map_err(|_| format!("bad --budget `{v}`"))?);
            }
            "--cache-cap" => {
                let v = need(&mut it, "--cache-cap")?;
                let cap: usize = v.parse().map_err(|_| format!("bad --cache-cap `{v}`"))?;
                if cap == 0 {
                    return Err(
                        "bad --cache-cap `0`: the cache must hold at least one entry".into(),
                    );
                }
                cli.cache_cap = Some(cap);
            }
            "--threads" | "--scale" => {
                let v = need(&mut it, arg)?;
                cli.params
                    .set(&arg[2..], &v)
                    .map_err(|e| format!("bad {arg}: {e}"))?;
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown serve argument `{other}`")),
        }
    }
    match (&cli.socket, cli.stdio) {
        (Some(_), true) => Err("--socket and --stdio are exclusive".into()),
        (None, false) => Err("serve needs --socket PATH or --stdio".into()),
        _ => Ok(Some(cli)),
    }
}

pub fn run(args: &[String]) -> Result<u8, String> {
    let Some(cli) = parse_serve_args(args)? else {
        print!("{}", usage());
        return Ok(0);
    };
    let opts = ServiceOptions {
        budget: cli.budget,
        capacity: cli.cache_cap,
    };
    let service = Arc::new(Mutex::new(Service::new(opts)));
    match &cli.socket {
        Some(path) => serve_socket(service, cli.params, path),
        None => serve_stdio(&service, &cli.params),
    }
}

/// What the session loop should do after a request.
enum Flow {
    Continue,
    Shutdown,
}

/// Runs one session until EOF or a `shutdown` request (then returns
/// [`Flow::Shutdown`]). Request lines are read as bytes, so a line that
/// is not UTF-8 is answered by [`handle_line`] like any other malformed
/// line instead of ending the session.
fn session(
    service: &Mutex<Service>,
    params: &Params,
    reader: &mut dyn BufRead,
    writer: &mut dyn Write,
) -> std::io::Result<Flow> {
    let mut greeted = false;
    let mut line = Vec::new();
    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            return Ok(Flow::Continue); // EOF: the client hung up
        }
        let mut out = Vec::new();
        let flow = handle_line(service, params, &mut greeted, &line, &mut out);
        for resp in &out {
            writeln!(writer, "{resp}")?;
        }
        writer.flush()?;
        if matches!(flow, Flow::Shutdown) {
            return Ok(flow);
        }
    }
}

/// Handles one request line, pushing zero or more response lines onto
/// `out`. `greeted` is the per-connection handshake latch: nothing but
/// `hello` is served before it, and a failed handshake leaves the
/// connection open for a retry.
fn handle_line(
    service: &Mutex<Service>,
    params: &Params,
    greeted: &mut bool,
    line: &[u8],
    out: &mut Vec<String>,
) -> Flow {
    let line = match std::str::from_utf8(line) {
        Ok(line) => line.trim(),
        Err(e) => {
            out.push(wire::error_json(
                None,
                "bad_json",
                &format!("bad JSON: {e}"),
            ));
            return Flow::Continue;
        }
    };
    if line.is_empty() {
        return Flow::Continue;
    }
    let (id, req) = match wire::parse_request(line) {
        Ok(parsed) => parsed,
        Err(e) => {
            out.push(wire::wire_error_json(&e));
            return Flow::Continue;
        }
    };
    if !*greeted && !matches!(req, Request::Hello { .. }) {
        out.push(wire::error_json(
            Some(id),
            "handshake_required",
            "open the connection with {\"type\":\"hello\",\"version\":1}",
        ));
        return Flow::Continue;
    }
    match req {
        Request::Hello { version } => {
            if version != PROTOCOL_VERSION {
                out.push(wire::error_json(
                    Some(id),
                    "unsupported_version",
                    &format!("this server speaks version {PROTOCOL_VERSION}, not {version}"),
                ));
            } else {
                *greeted = true;
                service.lock().unwrap().note_request();
                out.push(wire::hello_json(id));
            }
        }
        Request::Analyze {
            module,
            text,
            spec,
            configs,
            budget,
        } => {
            let mut svc = service.lock().unwrap();
            svc.note_request();
            match (text, spec) {
                (Some(text), _) => {
                    let r = svc.analyze(&module, &text, &configs, budget);
                    out.push(wire::report_json(
                        id,
                        &module,
                        r.cache.name(),
                        r.outcome.kind(),
                        Some(&r.hash),
                        false,
                        &r.report,
                    ));
                }
                (None, Some(spec)) => {
                    let mut source = ModuleSource::new(*params);
                    match source.push_spec(&spec) {
                        Ok(()) => expand_spec(&mut svc, id, source, &configs, budget, out),
                        Err(e) => out.push(wire::error_json(Some(id), "bad_spec", &e.to_string())),
                    }
                }
                (None, None) => unreachable!("parse_request requires text or spec"),
            }
        }
        Request::Invalidate { module, all } => {
            let mut svc = service.lock().unwrap();
            svc.note_request();
            let entries = if all {
                svc.invalidate_all()
            } else {
                svc.invalidate(&module.expect("parse_request requires module or all"))
            };
            out.push(wire::invalidated_json(id, entries));
        }
        Request::Stats => {
            let mut svc = service.lock().unwrap();
            svc.note_request();
            let cached = svc.cached_modules();
            out.push(wire::stats_json(id, &svc.stats(), cached));
        }
        Request::Shutdown => {
            service.lock().unwrap().note_request();
            out.push(wire::bye_json(id));
            return Flow::Shutdown;
        }
    }
    Flow::Continue
}

/// Streams one `report` member per item of a spec batch, then the
/// `batch` summary. Items come through the same [`ModuleSource`] and
/// adapter as the batch CLI, so quarantine is per item: a file text is
/// analyzed as read (an unparsable one comes back `invalid_ir`), a
/// built-in module is printed for its content hash, and an item the
/// loader could not produce is one `load_failed` member with
/// `"hash":null`.
fn expand_spec(
    svc: &mut Service,
    id: u64,
    source: ModuleSource,
    configs: &[PipelineConfig],
    budget: Option<u64>,
    out: &mut Vec<String>,
) {
    let (mut modules, mut hits, mut failed) = (0usize, 0usize, 0usize);
    for item in stream_items(source) {
        modules += 1;
        let (name, text) = match item {
            StreamItem::Module { name, module } => (name, fence_ir::printer::print_module(&module)),
            StreamItem::Text { name, text } => (name, text),
            StreamItem::Failed { name, error } => {
                failed += 1;
                let outcome = ModuleOutcome::LoadFailed { error };
                let report = json::module_json_parts(&name, &outcome, &[], &[]);
                let cache = CacheDisposition::Miss.name();
                out.push(wire::report_json(
                    id,
                    &name,
                    cache,
                    outcome.kind(),
                    None,
                    true,
                    &report,
                ));
                continue;
            }
        };
        let r = svc.analyze(&name, &text, configs, budget);
        hits += usize::from(r.cache == CacheDisposition::Hit);
        failed += usize::from(!r.outcome.is_ok());
        out.push(wire::report_json(
            id,
            &name,
            r.cache.name(),
            r.outcome.kind(),
            Some(&r.hash),
            true,
            &r.report,
        ));
    }
    out.push(wire::batch_json(id, modules, hits, failed));
}

fn serve_stdio(service: &Mutex<Service>, params: &Params) -> Result<u8, String> {
    let (mut stdin, mut stdout) = (std::io::stdin().lock(), std::io::stdout().lock());
    session(service, params, &mut stdin, &mut stdout).map_err(|e| format!("stdio: {e}"))?;
    Ok(0) // a shutdown request or EOF: a clean shutdown either way
}

/// Binds the socket at `path`, replacing a stale socket file left by a
/// daemon that was killed (see the module docs).
fn bind(path: &str) -> Result<UnixListener, String> {
    let in_use = match UnixListener::bind(path) {
        Ok(listener) => return Ok(listener),
        Err(e) if e.kind() == ErrorKind::AddrInUse => e,
        Err(e) => return Err(format!("cannot bind {path}: {e}")),
    };
    if !std::fs::symlink_metadata(path).is_ok_and(|m| m.file_type().is_socket()) {
        return Err(format!(
            "cannot bind {path}: {in_use} (the path is not a socket; it is left in place)"
        ));
    }
    match UnixStream::connect(path) {
        Ok(_) => Err(format!(
            "cannot bind {path}: a live daemon is already serving it"
        )),
        Err(e) if e.kind() == ErrorKind::ConnectionRefused => {
            eprintln!("fenceplace serve: replacing the stale socket {path}");
            std::fs::remove_file(path)
                .map_err(|e| format!("cannot remove the stale socket {path}: {e}"))?;
            UnixListener::bind(path).map_err(|e| format!("cannot bind {path}: {e}"))
        }
        Err(_) => Err(format!("cannot bind {path}: {in_use}")),
    }
}

/// Joins the connection threads that have ended, so each one's stack is
/// released now rather than at shutdown.
fn reap(handles: &mut Vec<JoinHandle<()>>) {
    let (done, live): (Vec<_>, Vec<_>) = std::mem::take(handles)
        .into_iter()
        .partition(|h| h.is_finished());
    *handles = live;
    for h in done {
        let _ = h.join();
    }
}

fn serve_socket(service: Arc<Mutex<Service>>, params: Params, path: &str) -> Result<u8, String> {
    let listener = bind(path)?;
    eprintln!("fenceplace serve: listening on {path}");
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        reap(&mut handles);
        let stream = match conn {
            Ok(s) => s,
            Err(e) => {
                eprintln!("fenceplace serve: accept failed: {e}");
                continue;
            }
        };
        let svc = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let path = path.to_string();
        handles.push(std::thread::spawn(move || {
            handle_conn(&svc, params, stream, &stop, &path);
        }));
    }
    for h in handles {
        let _ = h.join();
    }
    let _ = std::fs::remove_file(path);
    eprintln!("fenceplace serve: shut down");
    Ok(0)
}

fn handle_conn(
    service: &Mutex<Service>,
    params: Params,
    stream: UnixStream,
    stop: &AtomicBool,
    path: &str,
) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    // An I/O error ends the connection like a hang-up.
    if let Ok(Flow::Shutdown) = session(service, &params, &mut reader, &mut &stream) {
        stop.store(true, Ordering::SeqCst);
        // The accept loop is blocked in `incoming()`; a throwaway
        // connection wakes it so it can observe `stop` and exit.
        let _ = UnixStream::connect(path);
    }
}

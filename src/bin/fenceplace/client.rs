//! `fenceplace client` — drives a running `fenceplace serve` daemon.
//!
//! Reads program specs **locally**, through the same
//! `corpus::ModuleSource` as the batch CLI, and submits each module as an
//! inline-text analyze request over the daemon's Unix socket — so the
//! daemon's content addressing, not the client's naming, decides what is
//! cached. A file's text is sent as read (the daemon parses it, so an
//! unparsable file comes back `invalid_ir`: exit 2); a built-in module is
//! printed. A file that cannot be read is fatal, and so is a module that
//! an earlier spec of the batch already named, or whose report file an
//! earlier module already claims (`a-b.ir` and `a_b.ir` both write
//! `…a_b_ir.json`). Per module it prints
//! `name: status (cache)`; `--out DIR` additionally writes each returned
//! report document (byte-identical to what `fenceplace --out DIR` would
//! write) to `DIR/<module>.json`.
//!
//! `--expect-hit` turns a warm-cache expectation into an exit code: if
//! any analyze response comes back with a cache disposition other than
//! `hit`, the client exits 1. The CI smoke test runs the corpus twice
//! and pins the second pass with it.

use corpus::{ModuleSource, Params};
use fenceplace::json::{file_stem, json_escape, ReportFiles};
use fenceplace::service::wire::{self, config_label, Json, PROTOCOL_VERSION};
use fenceplace::{stream_items, PipelineConfig, StreamItem};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;

fn usage() -> &'static str {
    "fenceplace client — drive a running fenceplace serve daemon

USAGE:
  fenceplace client --socket PATH [--program SPEC]... [options]

OPTIONS:
  --socket PATH      connect to the daemon's Unix socket at PATH
  --program SPEC     read SPEC locally (kernel:NAME|*, corpus:NAME|*,
                     manual:NAME|*, synthetic:N, file:PATH, dir:PATH,
                     pack:PATH) and submit each module's text (repeatable)
  --config V:T       config to request, variant:target (repeatable;
                     default Control:x86tso)
  --threads N        corpus build parameter (default 8, at most 4096)
  --scale N          corpus build parameter (default 16, at most 65536)
  --budget N         per-request step budget
  --out DIR          write each returned report to DIR/<module>.json
  --expect-hit       exit 1 unless every analyze was served as a cache hit
  --raw LINE         send LINE verbatim and print the response (repeatable;
                     for single-response requests like stats/invalidate)
  --shutdown         ask the daemon to shut down after the batch
  --help             this text

EXIT CODES:
  0  every module completed (and was a hit, under --expect-hit)
  1  fatal error (connect/handshake/I/O failure, unreadable file, two
     modules with one report file) or --expect-hit violated
  2  some module was quarantined (reports still printed/written)
"
}

struct ClientCli {
    socket: String,
    specs: Vec<String>,
    configs: Vec<PipelineConfig>,
    params: Params,
    budget: Option<u64>,
    out_dir: Option<String>,
    expect_hit: bool,
    raw: Vec<String>,
    shutdown: bool,
}

/// `Ok(None)` means `--help`.
fn parse_client_args(args: &[String]) -> Result<Option<ClientCli>, String> {
    let mut cli = ClientCli {
        socket: String::new(),
        specs: Vec::new(),
        configs: Vec::new(),
        params: Params::default(),
        budget: None,
        out_dir: None,
        expect_hit: false,
        raw: Vec::new(),
        shutdown: false,
    };
    let mut it = args.iter();
    let need = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => cli.socket = need(&mut it, "--socket")?,
            "--program" => {
                let spec = need(&mut it, "--program")?;
                cli.specs.extend(spec.split(',').map(str::to_string));
            }
            "--config" => {
                let spec = need(&mut it, "--config")?;
                cli.configs.push(wire::parse_config_spec(&spec)?);
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
            "--out" => cli.out_dir = Some(need(&mut it, "--out")?),
            "--expect-hit" => cli.expect_hit = true,
            "--raw" => cli.raw.push(need(&mut it, "--raw")?),
            "--shutdown" => cli.shutdown = true,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown client argument `{other}`")),
        }
    }
    if cli.socket.is_empty() {
        return Err("client needs --socket PATH".into());
    }
    if cli.configs.is_empty() {
        cli.configs.push(PipelineConfig::default());
    }
    Ok(Some(cli))
}

/// One request/response exchange (every request the client sends gets
/// exactly one response line: specs are expanded locally, so the daemon
/// never streams batches at us).
fn exchange(
    writer: &mut UnixStream,
    reader: &mut BufReader<UnixStream>,
    line: &str,
) -> Result<String, String> {
    writeln!(writer, "{line}").map_err(|e| format!("send: {e}"))?;
    writer.flush().map_err(|e| format!("send: {e}"))?;
    let mut resp = String::new();
    let n = reader
        .read_line(&mut resp)
        .map_err(|e| format!("receive: {e}"))?;
    if n == 0 {
        return Err("daemon closed the connection".into());
    }
    Ok(resp.trim_end_matches('\n').to_string())
}

/// Pulls a string field out of a parsed response object.
fn field<'a>(v: &'a Json, key: &str) -> Option<&'a str> {
    v.get(key).and_then(Json::as_str)
}

pub fn run(args: &[String]) -> Result<u8, String> {
    let Some(cli) = parse_client_args(args)? else {
        print!("{}", usage());
        return Ok(0);
    };
    let stream = UnixStream::connect(&cli.socket).map_err(|e| {
        format!(
            "cannot connect to {}: {e} (is the daemon running?)",
            cli.socket
        )
    })?;
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("cannot clone socket: {e}"))?,
    );
    let mut writer = stream;
    let mut next_id = 0u64;
    let mut id = || {
        next_id += 1;
        next_id
    };

    // Handshake.
    let hello = format!(
        "{{\"id\":{},\"type\":\"hello\",\"version\":{PROTOCOL_VERSION}}}",
        id()
    );
    let resp = exchange(&mut writer, &mut reader, &hello)?;
    let parsed = wire::parse_json(&resp).map_err(|e| format!("bad hello response: {e}"))?;
    if field(&parsed, "type") != Some("hello") {
        return Err(format!("handshake refused: {resp}"));
    }

    // Raw lines go first: they are a protocol escape hatch, printed
    // verbatim for the user to inspect.
    for raw in &cli.raw {
        let resp = exchange(&mut writer, &mut reader, raw)?;
        println!("{resp}");
    }

    // Read every spec locally and submit inline text. Built-in typos
    // fail here, before any request is sent.
    let mut source = ModuleSource::new(cli.params);
    for spec in &cli.specs {
        source.push_spec(spec).map_err(|e| e.to_string())?;
    }
    if let Some(dir) = &cli.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    }
    let configs_json = cli
        .configs
        .iter()
        .map(|c| format!("\"{}\"", json_escape(&config_label(c))))
        .collect::<Vec<_>>()
        .join(",");
    let (mut sent, mut misses, mut failed) = (0usize, 0usize, 0usize);
    let mut files = ReportFiles::default();
    for item in stream_items(source) {
        let (name, text) = match item {
            StreamItem::Module { name, module } => (name, fence_ir::printer::print_module(&module)),
            StreamItem::Text { name, text } => (name, text),
            StreamItem::Failed { error, .. } => return Err(error),
        };
        // A repeated name would be sent twice, and two names with one
        // report file (`a-b.ir`, `a_b.ir`) would overwrite each other's
        // report: like a load failure, both are fatal.
        files.claim(&name).map_err(|e| format!("`{name}`: {e}"))?;
        sent += 1;
        let budget = match cli.budget {
            Some(b) => format!(",\"budget\":{b}"),
            None => String::new(),
        };
        let req = format!(
            "{{\"id\":{},\"type\":\"analyze\",\"module\":\"{}\",\"text\":\"{}\",\"configs\":[{configs_json}]{budget}}}",
            id(),
            json_escape(&name),
            json_escape(&text)
        );
        let resp = exchange(&mut writer, &mut reader, &req)?;
        let parsed = wire::parse_json(&resp).map_err(|e| format!("bad response: {e}"))?;
        match field(&parsed, "type") {
            Some("report") => {}
            Some("error") => {
                return Err(format!(
                    "daemon error for `{name}`: {}",
                    field(&parsed, "message").unwrap_or(&resp)
                ));
            }
            _ => return Err(format!("unexpected response: {resp}")),
        }
        let status = field(&parsed, "status").unwrap_or("?").to_string();
        let cache = field(&parsed, "cache").unwrap_or("?").to_string();
        println!("{name}: {status} ({cache})");
        if status != "ok" {
            failed += 1;
        }
        if cache != "hit" {
            misses += 1;
        }
        if let Some(dir) = &cli.out_dir {
            let report = field(&parsed, "report").unwrap_or_default();
            let path = format!("{dir}/{}.json", file_stem(&name));
            std::fs::write(&path, report).map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }

    if cli.shutdown {
        let resp = exchange(
            &mut writer,
            &mut reader,
            &format!("{{\"id\":{},\"type\":\"shutdown\"}}", id()),
        )?;
        let parsed = wire::parse_json(&resp).map_err(|e| format!("bad bye response: {e}"))?;
        if field(&parsed, "type") != Some("bye") {
            return Err(format!("shutdown refused: {resp}"));
        }
        eprintln!("daemon shut down");
    }

    if cli.expect_hit && misses > 0 {
        eprintln!("--expect-hit: {misses} of {sent} modules were not cache hits");
        return Ok(1);
    }
    if failed > 0 {
        eprintln!("{failed} of {sent} modules quarantined (exit 2: partial success)");
        return Ok(2);
    }
    Ok(0)
}

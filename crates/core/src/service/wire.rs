//! The `fenceplace serve` wire protocol: newline-delimited JSON,
//! version 1.
//!
//! Each line a client writes is one request object; each line the
//! server writes back is one response object. The full protocol —
//! every request and response shape, field order, and error code — is
//! documented in `docs/PROTOCOL.md`, whose examples are pinned verbatim
//! by the contract test in `tests/service.rs`. Treat both as a
//! compatibility contract: additions are fine (clients must ignore
//! unknown fields), renames and reorders are breaking.
//!
//! This module is deliberately std-only: the parser below is a minimal
//! recursive-descent JSON reader (strings, numbers, bools, null,
//! arrays, objects — no serde), and the response emitters assemble
//! their bytes with a **fixed field order** so responses are
//! byte-deterministic and pinnable.

use super::{ContentHash, ServiceStats};
use crate::minimize::TargetModel;
use crate::pipeline::{PipelineConfig, Variant};

/// The protocol version this server speaks. A client must open every
/// connection with `{"id":N,"type":"hello","version":1}` and gets an
/// `unsupported_version` error for anything else.
pub const PROTOCOL_VERSION: u64 = 1;

/// Nesting depth cap for the JSON reader: wire requests are flat
/// (depth 3 in practice), so anything deeper is hostile or broken.
const MAX_DEPTH: usize = 64;

// ---------------------------------------------------------------------------
// JSON values
// ---------------------------------------------------------------------------

/// A parsed JSON value. Object fields keep their wire order; duplicate
/// keys keep the first occurrence (lookups scan front-to-back).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers are exact up to 2^53).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as (key, value) pairs in wire order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (None for missing keys and non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number with no
    /// fractional part (wire ids, versions, and budgets are all u64).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses one complete JSON value from `text`, rejecting trailing
/// non-whitespace (each wire line is exactly one value).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: the low half must follow.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err("lone high surrogate".to_string());
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("bad low surrogate".to_string());
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err("lone low surrogate".to_string());
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(c)
                                    .ok_or_else(|| "bad unicode escape".to_string())?,
                            );
                            // hex4 advanced past the digits; skip the
                            // shared `pos += 1` below.
                            continue;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one whole UTF-8 character (input is &str,
                    // so the byte stream is valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).expect("input was a &str");
                    let c = s.chars().next().expect("peeked a byte");
                    if (c as u32) < 0x20 {
                        return Err(format!("raw control character at byte {}", self.pos));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| "bad \\u escape".to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A protocol error: the stable machine-readable `code` plus a human
/// message, echoed back with the offending request's id (None when the
/// line was not valid JSON / carried no usable id).
#[derive(Debug, PartialEq)]
pub struct WireError {
    /// The request id the error answers, when one was recoverable.
    pub id: Option<u64>,
    /// Stable error code: `bad_json`, `bad_request`,
    /// `handshake_required`, `unsupported_version`, `unknown_type`,
    /// `bad_spec`.
    pub code: &'static str,
    /// Human-readable detail (not part of the compatibility contract).
    pub message: String,
}

impl WireError {
    fn new(id: Option<u64>, code: &'static str, message: impl Into<String>) -> Self {
        WireError {
            id,
            code,
            message: message.into(),
        }
    }
}

/// One parsed client request.
#[derive(Debug)]
pub enum Request {
    /// `{"type":"hello","version":V}` — must open every connection.
    Hello {
        /// The protocol version the client asks for.
        version: u64,
    },
    /// `{"type":"analyze","module":N,"text":T}` (inline text) or
    /// `{"type":"analyze","spec":S}` (server-side `dir:`/`pack:`/…
    /// expansion).
    Analyze {
        /// Module name for inline text; empty when `spec` drives.
        module: String,
        /// Inline module text (exclusive with `spec`).
        text: Option<String>,
        /// A manifest program spec to expand server-side (exclusive
        /// with `text`).
        spec: Option<String>,
        /// Configs to run, parsed from `"Variant:target"` strings
        /// (defaults to `Control:x86tso`).
        configs: Vec<PipelineConfig>,
        /// Per-request step budget (overrides the server default).
        budget: Option<u64>,
    },
    /// `{"type":"invalidate","module":N}` or
    /// `{"type":"invalidate","all":true}`.
    Invalidate {
        /// Name whose entry to drop (None with `all`).
        module: Option<String>,
        /// Drop everything.
        all: bool,
    },
    /// `{"type":"stats"}` — counters snapshot.
    Stats,
    /// `{"type":"shutdown"}` — `bye`, then the server exits.
    Shutdown,
}

/// Parses one request line into `(id, request)`.
pub fn parse_request(line: &str) -> Result<(u64, Request), WireError> {
    let v = match parse_json(line) {
        Ok(v) => v,
        Err(e) => {
            return Err(WireError::new(None, "bad_json", format!("bad JSON: {e}")));
        }
    };
    if !matches!(v, Json::Obj(_)) {
        return Err(WireError::new(
            None,
            "bad_json",
            "request must be an object",
        ));
    }
    // The id is extracted first so every later error can echo it.
    let id = v
        .get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| WireError::new(None, "bad_request", "missing or non-integer `id`"))?;
    let bad = |msg: String| WireError::new(Some(id), "bad_request", msg);
    let ty = v
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing `type`".to_string()))?;
    let req = match ty {
        "hello" => Request::Hello {
            version: v
                .get("version")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("hello needs an integer `version`".to_string()))?,
        },
        "analyze" => {
            let module = v.get("module").and_then(Json::as_str).map(str::to_string);
            let text = v.get("text").and_then(Json::as_str).map(str::to_string);
            let spec = v.get("spec").and_then(Json::as_str).map(str::to_string);
            match (&text, &spec) {
                (Some(_), Some(_)) => {
                    return Err(bad("`text` and `spec` are exclusive".to_string()))
                }
                (None, None) => return Err(bad("analyze needs `text` or `spec`".to_string())),
                (Some(_), None) if module.is_none() => {
                    return Err(bad("inline `text` needs a `module` name".to_string()))
                }
                _ => {}
            }
            let configs = match v.get("configs") {
                None => vec![PipelineConfig::default()],
                Some(arr) => {
                    let items = arr
                        .as_arr()
                        .ok_or_else(|| bad("`configs` must be an array".to_string()))?;
                    if items.is_empty() {
                        return Err(bad("`configs` must not be empty".to_string()));
                    }
                    let mut configs = Vec::with_capacity(items.len());
                    for item in items {
                        let s = item
                            .as_str()
                            .ok_or_else(|| bad("`configs` entries are strings".to_string()))?;
                        configs.push(parse_config_spec(s).map_err(&bad)?);
                    }
                    configs
                }
            };
            let budget =
                match v.get("budget") {
                    None | Some(Json::Null) => None,
                    Some(b) => Some(b.as_u64().ok_or_else(|| {
                        bad("`budget` must be a non-negative integer".to_string())
                    })?),
                };
            Request::Analyze {
                module: module.unwrap_or_default(),
                text,
                spec,
                configs,
                budget,
            }
        }
        "invalidate" => {
            let all = v.get("all").and_then(Json::as_bool).unwrap_or(false);
            let module = v.get("module").and_then(Json::as_str).map(str::to_string);
            if !all && module.is_none() {
                return Err(bad("invalidate needs `module` or `all`: true".to_string()));
            }
            Request::Invalidate { module, all }
        }
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        other => {
            return Err(WireError::new(
                Some(id),
                "unknown_type",
                format!("unknown request type `{other}`"),
            ))
        }
    };
    Ok((id, req))
}

// ---------------------------------------------------------------------------
// Config specs
// ---------------------------------------------------------------------------

/// Parses a variant name (case-insensitive; the CLI accepts the same
/// spellings).
pub fn parse_variant(s: &str) -> Result<Variant, String> {
    match s.to_ascii_lowercase().as_str() {
        "pensieve" => Ok(Variant::Pensieve),
        "control" => Ok(Variant::Control),
        "addresscontrol" | "address+control" | "addrctl" => Ok(Variant::AddressControl),
        "manual" => Ok(Variant::Manual),
        _ => Err(format!(
            "unknown variant `{s}` (Pensieve, Control, AddressControl, Manual)"
        )),
    }
}

/// Parses a target-model name (case-insensitive).
pub fn parse_target(s: &str) -> Result<TargetModel, String> {
    match s.to_ascii_lowercase().as_str() {
        "x86tso" | "x86" | "tso" => Ok(TargetModel::X86Tso),
        "sc" | "schardware" => Ok(TargetModel::ScHardware),
        "weak" => Ok(TargetModel::Weak),
        _ => Err(format!("unknown target `{s}` (x86tso, sc, weak)")),
    }
}

/// Parses a `VARIANT:TARGET` config spec (target defaults to x86tso).
/// Shared by the CLI's `--config` flag and the wire `configs` array, so
/// both accept the same spellings.
pub fn parse_config_spec(spec: &str) -> Result<PipelineConfig, String> {
    let mut parts = spec.split(':');
    let variant = parse_variant(parts.next().unwrap_or_default())?;
    let target = match parts.next() {
        Some(t) => parse_target(t)?,
        None => TargetModel::X86Tso,
    };
    if parts.next().is_some() {
        return Err(format!("bad config `{spec}`: expected VARIANT:TARGET"));
    }
    Ok(PipelineConfig {
        variant,
        target,
        parallel: false, // the service/fleet owns scheduling
    })
}

/// The canonical `Variant:target` label of a config (round-trips
/// through [`parse_config_spec`] except for `Address+Control`, whose
/// display name contains the `+` spelling the parser also accepts).
pub fn config_label(c: &PipelineConfig) -> String {
    format!(
        "{}:{}",
        c.variant.name(),
        crate::json::target_name(c.target)
    )
}

// ---------------------------------------------------------------------------
// Responses (fixed field order — pinned by docs/PROTOCOL.md)
// ---------------------------------------------------------------------------

/// The hello response: protocol version + server identity.
pub fn hello_json(id: u64) -> String {
    format!(
        "{{\"id\":{id},\"type\":\"hello\",\"version\":{PROTOCOL_VERSION},\"server\":\"fenceplace/{}\"}}",
        env!("CARGO_PKG_VERSION")
    )
}

/// One module's report response. `hash` is None for `load_failed`
/// members of a spec batch (there is no text to hash); `batch_member`
/// adds `"final":false` so clients can tell streamed members from the
/// terminating [`batch_json`] line.
pub fn report_json(
    id: u64,
    module: &str,
    cache: &str,
    status: &str,
    hash: Option<&ContentHash>,
    batch_member: bool,
    report: &str,
) -> String {
    let hash = match hash {
        Some(h) => format!("\"{}\"", corpus::hash::hex(h)),
        None => "null".to_string(),
    };
    let final_field = if batch_member { "\"final\":false," } else { "" };
    format!(
        "{{\"id\":{id},\"type\":\"report\",\"module\":\"{}\",\"cache\":\"{}\",\"status\":\"{}\",\"hash\":{hash},{final_field}\"report\":\"{}\"}}",
        crate::json::json_escape(module),
        crate::json::json_escape(cache),
        crate::json::json_escape(status),
        crate::json::json_escape(report)
    )
}

/// The terminating summary of a spec batch.
pub fn batch_json(id: u64, modules: usize, hits: usize, failed: usize) -> String {
    format!(
        "{{\"id\":{id},\"type\":\"batch\",\"modules\":{modules},\"hits\":{hits},\"failed\":{failed},\"final\":true}}"
    )
}

/// The invalidate acknowledgement: how many entries were dropped.
pub fn invalidated_json(id: u64, entries: usize) -> String {
    format!("{{\"id\":{id},\"type\":\"invalidated\",\"entries\":{entries}}}")
}

/// The stats snapshot response.
pub fn stats_json(id: u64, stats: &ServiceStats, cached_modules: usize) -> String {
    format!(
        "{{\"id\":{id},\"type\":\"stats\",\"version\":{PROTOCOL_VERSION},\"modules\":{},\
         \"requests\":{},\"analyze_requests\":{},\"hits\":{},\"incremental\":{},\
         \"misses\":{},\"analyses\":{},\"substrates_built\":{},\"substrates_reused\":{},\
         \"evictions\":{},\"invalidated\":{}}}",
        cached_modules,
        stats.requests,
        stats.analyze_requests,
        stats.hits,
        stats.incremental,
        stats.misses,
        stats.analyses,
        stats.substrates_built,
        stats.substrates_reused,
        stats.evictions,
        stats.invalidated
    )
}

/// The shutdown acknowledgement; the server closes after writing it.
pub fn bye_json(id: u64) -> String {
    format!("{{\"id\":{id},\"type\":\"bye\"}}")
}

/// An error response (`id` is `null` when the request line carried no
/// recoverable id).
pub fn error_json(id: Option<u64>, code: &str, message: &str) -> String {
    let id = match id {
        Some(id) => id.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\"id\":{id},\"type\":\"error\",\"code\":\"{}\",\"message\":\"{}\"}}",
        crate::json::json_escape(code),
        crate::json::json_escape(message)
    )
}

/// [`error_json`] over a [`WireError`].
pub fn wire_error_json(e: &WireError) -> String {
    error_json(e.id, e.code, &e.message)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        assert_eq!(parse_json("null").unwrap(), Json::Null);
        assert_eq!(parse_json(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse_json("-2.5e1").unwrap(), Json::Num(-25.0));
        assert_eq!(
            parse_json("\"a\\u00e9\\n\"").unwrap(),
            Json::Str("a\u{e9}\n".to_string())
        );
        let v = parse_json("{\"a\":[1,{\"b\":null}],\"c\":\"d\"}").unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("d"));
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_json("").is_err());
        assert!(parse_json("{\"a\":1,}").is_err());
        assert!(parse_json("{} {}").is_err());
        assert!(parse_json("\"\\ud800\"").is_err(), "lone surrogate");
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse_json(&deep).is_err(), "depth cap");
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            parse_json("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("\u{1f600}".to_string())
        );
    }

    #[test]
    fn escaped_strings_round_trip_through_the_parser() {
        // ASCII, 2-, 3- and 4-byte characters, every control character
        // (escaped as `\u00XX`), a quote and a backslash.
        let controls: String = (0u8..0x20).map(char::from).collect();
        let text = format!("fn f é€中😀𝄞 \"q\" \\ /{controls}\n").repeat(16);
        let wire = format!("\"{}\"", crate::json::json_escape(&text));
        assert_eq!(parse_json(&wire).unwrap(), Json::Str(text));
        // The short escapes the escaper never emits decode as well.
        assert_eq!(
            parse_json("\"é\\/\\b\\f\\n\\r\\t\\\"\\\\😀\\u20ac\"").unwrap(),
            Json::Str("é/\u{8}\u{c}\n\r\t\"\\😀€".to_string())
        );
    }

    #[test]
    fn request_parsing_and_errors() {
        let (id, req) =
            parse_request("{\"id\":7,\"type\":\"analyze\",\"module\":\"m\",\"text\":\"module m\"}")
                .unwrap();
        assert_eq!(id, 7);
        match req {
            Request::Analyze {
                module,
                text,
                spec,
                configs,
                budget,
            } => {
                assert_eq!(module, "m");
                assert_eq!(text.as_deref(), Some("module m"));
                assert!(spec.is_none());
                assert_eq!(configs.len(), 1);
                assert_eq!(configs[0].variant, Variant::Control);
                assert!(budget.is_none());
            }
            other => panic!("wrong request: {other:?}"),
        }

        let e = parse_request("not json").unwrap_err();
        assert_eq!((e.id, e.code), (None, "bad_json"));
        let e = parse_request("{\"type\":\"stats\"}").unwrap_err();
        assert_eq!((e.id, e.code), (None, "bad_request"));
        let e = parse_request("{\"id\":1,\"type\":\"nope\"}").unwrap_err();
        assert_eq!((e.id, e.code), (Some(1), "unknown_type"));
        let e = parse_request(
            "{\"id\":2,\"type\":\"analyze\",\"module\":\"m\",\"text\":\"t\",\"configs\":[]}",
        )
        .unwrap_err();
        assert_eq!((e.id, e.code), (Some(2), "bad_request"));
        let e = parse_request("{\"id\":3,\"type\":\"analyze\",\"spec\":\"a\",\"text\":\"t\"}")
            .unwrap_err();
        assert_eq!(e.code, "bad_request");
    }

    #[test]
    fn config_specs_round_trip() {
        let c = parse_config_spec("Pensieve:weak").unwrap();
        assert_eq!(config_label(&c), "Pensieve:weak");
        let c = parse_config_spec("control").unwrap();
        assert_eq!(config_label(&c), "Control:x86tso");
        let c = parse_config_spec("Address+Control:sc").unwrap();
        assert_eq!(config_label(&c), "Address+Control:sc");
        assert!(parse_config_spec("Control:x86tso:extra").is_err());
        assert!(parse_config_spec("Bogus").is_err());
    }

    #[test]
    fn responses_have_pinned_shapes() {
        assert_eq!(
            hello_json(1),
            format!(
                "{{\"id\":1,\"type\":\"hello\",\"version\":1,\"server\":\"fenceplace/{}\"}}",
                env!("CARGO_PKG_VERSION")
            )
        );
        assert_eq!(bye_json(9), "{\"id\":9,\"type\":\"bye\"}");
        assert_eq!(
            invalidated_json(4, 2),
            "{\"id\":4,\"type\":\"invalidated\",\"entries\":2}"
        );
        assert_eq!(
            error_json(None, "bad_json", "x"),
            "{\"id\":null,\"type\":\"error\",\"code\":\"bad_json\",\"message\":\"x\"}"
        );
        let r = report_json(2, "m", "hit", "ok", Some(&[1, 2]), false, "{\"k\": 1}\n");
        assert_eq!(
            r,
            "{\"id\":2,\"type\":\"report\",\"module\":\"m\",\"cache\":\"hit\",\
             \"status\":\"ok\",\"hash\":\"00000000000000010000000000000002\",\
             \"report\":\"{\\\"k\\\": 1}\\u000a\"}"
        );
        let b = report_json(2, "m", "miss", "ok", None, true, "");
        assert!(b.contains("\"hash\":null,\"final\":false,"));
        assert_eq!(
            batch_json(3, 26, 25, 0),
            "{\"id\":3,\"type\":\"batch\",\"modules\":26,\"hits\":25,\"failed\":0,\"final\":true}"
        );
    }
}

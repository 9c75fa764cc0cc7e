//! Parser for the textual IR format emitted by [`crate::printer`].
//!
//! The format is line-oriented; `;` starts a comment. See the printer docs
//! for the grammar by example. Parsing is two-phase so that forward
//! references (mutually recursive calls, instruction results used across
//! blocks) resolve without declaration order constraints.
//!
//! Each line is tokenized once, into slices of the input. The phases run
//! in a fixed order (all headers; then per function its header extras, a
//! label pre-pass and the instructions), so the first error in that order
//! is the one reported. Names from the text live in std's randomly keyed
//! `HashMap`: with the unkeyed [`crate::util::FastMap`] hash, crafted
//! names can all collide and make parsing quadratic.

use crate::func::{Block, Function, Inst};
use crate::ids::{BlockId, FuncId, GlobalId, InstId, LocalId};
use crate::inst::{BinOp, CmpOp, FenceKind, InstKind, Intrinsic, RmwOp};
use crate::module::{GlobalDecl, Module};
use crate::value::Value;
use std::collections::HashMap;

/// A parse diagnostic with its 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

/// A name table keyed by text borrowed from the input.
type Names<'a, T> = HashMap<&'a str, T>;

/// Feeds the tokens of `line` before its first `;` to `sink`, until it
/// returns false, and returns the comment after the `;`. A token is a
/// maximal run of non-whitespace, except that each of `, ( ) = { }` is a
/// token of its own.
fn tokenize<'a>(line: &'a str, mut sink: impl FnMut(&'a str) -> bool) -> &'a str {
    let (mut i, mut word) = (0, None);
    while i < line.len() {
        let (space, punct, width) = match line.as_bytes()[i] {
            b';' => break,
            b' ' | b'\t'..=b'\r' => (true, false, 1),
            b',' | b'(' | b')' | b'=' | b'{' | b'}' => (false, true, 1),
            b if b.is_ascii() => (false, false, 1),
            _ => {
                let c = line[i..].chars().next().unwrap_or_default();
                (c.is_whitespace(), false, c.len_utf8())
            }
        };
        if !(space || punct) {
            word.get_or_insert(i);
        } else if word.take().is_some_and(|w| !sink(&line[w..i])) || punct && !sink(&line[i..i + 1])
        {
            return "";
        }
        i += width;
    }
    if let Some(w) = word {
        sink(&line[w..i]);
    }
    line.get(i + 1..).unwrap_or_default()
}

/// The first token of `line`, or `None` for a blank or comment-only line.
/// With [`TopLevel`] this is the line classifier of the parser's header
/// pass, shared with the `pack:` splitter.
pub fn first_token(line: &str) -> Option<&str> {
    let mut first = None;
    tokenize(line, |tok| {
        first = Some(tok);
        false
    });
    first
}

/// Where function bodies are: a top-level `fn` line opens one, and a line
/// whose first token is `}` closes it.
#[derive(Clone, Copy, Debug, Default)]
pub struct TopLevel {
    in_body: bool,
}

impl TopLevel {
    /// Feeds the first token of the next non-blank line. True when the
    /// line is top-level (`module`, `global`, `fn`, or junk the parser
    /// rejects); false for body lines and the `}` that closes a body.
    pub fn is_top_level(&mut self, first: &str) -> bool {
        if self.in_body {
            self.in_body = first != "}";
            false
        } else {
            self.in_body = first == "fn";
            true
        }
    }
}

/// One non-blank source line: number (1-based), tokens, and the text
/// after its first `;`.
struct Line<'t, 'a> {
    no: usize,
    toks: &'t [&'a str],
    comment: &'a str,
}

/// The block token of a label line (`bbN:` or `bbN :`).
fn block_label<'a>(toks: &[&'a str]) -> Option<&'a str> {
    if toks[0].starts_with("bb") && toks.get(1) == Some(&":") {
        Some(toks[0])
    } else {
        toks[0].strip_suffix(':').filter(|s| s.starts_with("bb"))
    }
}

/// The label a `%label = ...` line binds.
fn result_label<'a>(toks: &[&'a str]) -> Option<&'a str> {
    toks[0]
        .strip_prefix('%')
        .filter(|_| toks.get(1) == Some(&"="))
}

fn parse_block_ref(tok: &str, line: usize) -> Result<BlockId, ParseError> {
    match tok.strip_prefix("bb").and_then(|r| r.parse::<usize>().ok()) {
        Some(i) => Ok(BlockId::new(i)),
        None => err(line, format!("expected block reference, got `{tok}`")),
    }
}

struct FuncCtx<'s, 'a> {
    globals: &'s Names<'a, GlobalId>,
    funcs: &'s Names<'a, FuncId>,
    locals: Names<'a, LocalId>,
    inst_labels: Names<'a, InstId>,
}

impl FuncCtx<'_, '_> {
    fn value(&self, tok: &str, line: usize) -> Result<Value, ParseError> {
        if let Some(rest) = tok.strip_prefix('c') {
            if let Ok(v) = rest.parse::<i64>() {
                return Ok(Value::Const(v));
            }
        }
        if let Some(name) = tok.strip_prefix('@') {
            return match self.globals.get(name) {
                Some(&g) => Ok(Value::Global(g)),
                None => err(line, format!("unknown global @{name}")),
            };
        }
        if let Some(rest) = tok.strip_prefix("arg") {
            if let Ok(a) = rest.parse::<u16>() {
                return Ok(Value::Arg(a));
            }
        }
        if let Some(label) = tok.strip_prefix('%') {
            return match self.inst_labels.get(label) {
                Some(&i) => Ok(Value::Inst(i)),
                None => err(line, format!("unknown value %{label}")),
            };
        }
        err(line, format!("cannot parse value `{tok}`"))
    }

    fn local(&self, tok: &str, line: usize) -> Result<LocalId, ParseError> {
        match self.locals.get(tok) {
            Some(&l) => Ok(l),
            None => err(line, format!("unknown local `{tok}`")),
        }
    }

    /// Resolves an operand list `a, b, c` left to right into `sink`.
    fn args(
        &self,
        toks: &[&str],
        line: usize,
        mut sink: impl FnMut(Value),
    ) -> Result<(), ParseError> {
        let mut expect_value = true;
        let mut any = false;
        for &t in toks {
            if t == "," {
                if expect_value {
                    return err(line, "misplaced comma");
                }
                expect_value = true;
            } else {
                if !expect_value {
                    return err(line, format!("expected comma before `{t}`"));
                }
                sink(self.value(t, line)?);
                expect_value = false;
                any = true;
            }
        }
        if expect_value && any {
            return err(line, "trailing comma");
        }
        Ok(())
    }

    /// An operand list of exactly `N` values; `unit` names them in the
    /// count diagnostic (`store takes 2 operands`).
    fn operands<const N: usize>(
        &self,
        toks: &[&str],
        line: usize,
        what: &str,
        unit: &str,
    ) -> Result<[Value; N], ParseError> {
        let mut out = [Value::Const(0); N];
        let mut n = 0;
        self.args(toks, line, |v| {
            if let Some(slot) = out.get_mut(n) {
                *slot = v;
            }
            n += 1;
        })?;
        if n != N {
            let plural = if N == 1 { "" } else { "s" };
            return err(line, format!("{what} takes {N} {unit}{plural}"));
        }
        Ok(out)
    }

    fn inst(&self, toks: &[&str], ln: usize) -> Result<InstKind, ParseError> {
        let Some((&mn, rest)) = toks.split_first() else {
            return err(ln, "empty instruction");
        };
        Ok(match mn {
            "load" => {
                let [addr] = self.operands(rest, ln, mn, "operand")?;
                InstKind::Load { addr }
            }
            "store" => {
                let [addr, val] = self.operands(rest, ln, mn, "operand")?;
                InstKind::Store { addr, val }
            }
            "rmw" => {
                let Some(&name) = rest.first() else {
                    return err(ln, "rmw needs an operator");
                };
                let Some(op) = RmwOp::from_name(name) else {
                    return err(ln, format!("bad rmw op `{name}`"));
                };
                let [addr, val] = self.operands(&rest[1..], ln, mn, "operand")?;
                InstKind::AtomicRmw { op, addr, val }
            }
            "cas" => {
                let [addr, expected, new] = self.operands(rest, ln, mn, "operand")?;
                InstKind::AtomicCas {
                    addr,
                    expected,
                    new,
                }
            }
            "fence" => {
                let kind = match rest.first() {
                    Some(&"full") => FenceKind::Full,
                    Some(&"compiler") => FenceKind::Compiler,
                    _ => return err(ln, "fence kind must be `full` or `compiler`"),
                };
                InstKind::Fence { kind }
            }
            "alloc" => {
                let [words] = self.operands(rest, ln, mn, "operand")?;
                InstKind::Alloc { words }
            }
            "cmp" => {
                let Some(&name) = rest.first() else {
                    return err(ln, "cmp needs an operator");
                };
                let Some(op) = CmpOp::from_name(name) else {
                    return err(ln, format!("bad cmp op `{name}`"));
                };
                let [lhs, rhs] = self.operands(&rest[1..], ln, mn, "operand")?;
                InstKind::Cmp { op, lhs, rhs }
            }
            "select" => {
                let [cond, then_val, else_val] = self.operands(rest, ln, mn, "operand")?;
                InstKind::Select {
                    cond,
                    then_val,
                    else_val,
                }
            }
            "gep" => {
                let [base, index] = self.operands(rest, ln, mn, "operand")?;
                InstKind::Gep { base, index }
            }
            "read_local" => {
                if rest.len() != 1 {
                    return err(ln, "read_local takes 1 local name");
                }
                InstKind::ReadLocal {
                    local: self.local(rest[0], ln)?,
                }
            }
            "write_local" => {
                if rest.len() < 3 || rest[1] != "," {
                    return err(ln, "expected `write_local <local>, <value>`");
                }
                let local = self.local(rest[0], ln)?;
                let [val] = self.operands(&rest[2..], ln, mn, "value")?;
                InstKind::WriteLocal { local, val }
            }
            "call" | "intrinsic" => {
                if rest.len() < 3 || rest[1] != "(" || rest.last() != Some(&")") {
                    return err(ln, format!("expected `{mn} <name>(args)`"));
                }
                let callee = rest[0];
                let mut args = Vec::new();
                self.args(&rest[2..rest.len() - 1], ln, |v| args.push(v))?;
                if mn == "call" {
                    match self.funcs.get(callee) {
                        Some(&f) => InstKind::Call { callee: f, args },
                        None => return err(ln, format!("unknown function `{callee}`")),
                    }
                } else {
                    match Intrinsic::from_name(callee) {
                        Some(intr) => InstKind::CallIntrinsic { intr, args },
                        None => return err(ln, format!("unknown intrinsic `{callee}`")),
                    }
                }
            }
            "br" => {
                if rest.len() != 1 {
                    return err(ln, "br takes 1 block");
                }
                InstKind::Br {
                    target: parse_block_ref(rest[0], ln)?,
                }
            }
            "condbr" => {
                if rest.len() != 5 || rest[1] != "," || rest[3] != "," {
                    return err(ln, "expected `condbr <val>, bbN, bbM`");
                }
                InstKind::CondBr {
                    cond: self.value(rest[0], ln)?,
                    then_bb: parse_block_ref(rest[2], ln)?,
                    else_bb: parse_block_ref(rest[4], ln)?,
                }
            }
            "ret" => match rest {
                [] => InstKind::Ret { val: None },
                [v] => InstKind::Ret {
                    val: Some(self.value(v, ln)?),
                },
                _ => return err(ln, "ret takes at most 1 operand"),
            },
            // Binary ops come last: `add a, b` etc.
            other => match BinOp::from_name(other) {
                Some(op) => {
                    let [lhs, rhs] = self.operands(rest, ln, other, "operand")?;
                    InstKind::Bin { op, lhs, rhs }
                }
                None => return err(ln, format!("unknown instruction `{other}`")),
            },
        })
    }
}

/// Parses a full module from text.
pub fn parse_module(text: &str) -> Result<Module, ParseError> {
    // Tokenize every non-blank line once, into one table of slices,
    // sized for printed IR so it never regrows.
    let mut toks: Vec<&str> = Vec::with_capacity(text.len() / 4);
    let mut spans = Vec::with_capacity(text.len() / 16);
    for (i, l) in text.lines().enumerate() {
        let start = toks.len();
        let comment = tokenize(l, |tok| {
            toks.push(tok);
            true
        });
        if toks.len() > start {
            spans.push((i + 1, start..toks.len(), comment));
        }
    }
    let lines: Vec<Line> = spans
        .into_iter()
        .map(|(no, range, comment)| Line {
            no,
            toks: &toks[range],
            comment,
        })
        .collect();

    let mut module = Module::new("anonymous");
    let mut globals: Names<GlobalId> = Names::new();
    let mut funcs: Names<FuncId> = Names::new();
    // Line index of each function header, in `FuncId` order.
    let mut headers = Vec::new();

    // ---- phase A: headers ----
    // Body lines are phase B's job, but *top-level* lines must be one of
    // the known directives — free text is a parse error, not an empty
    // module.
    let mut scan = TopLevel::default();
    for (i, line) in lines.iter().enumerate() {
        let (t, ln) = (line.toks, line.no);
        if !scan.is_top_level(t[0]) {
            continue;
        }
        match t[0] {
            "module" => {
                if t.len() != 2 {
                    return err(ln, "expected `module <name>`");
                }
                module.name = t[1].to_string();
            }
            "global" => {
                if t.len() < 3 {
                    return err(ln, "expected `global <name> <words> [= inits]`");
                }
                let Ok(words) = t[2].parse::<u32>() else {
                    return err(ln, "bad global size");
                };
                let mut init = Vec::new();
                if t.len() > 3 {
                    if t[3] != "=" {
                        return err(ln, "expected `=` before initializers");
                    }
                    for v in &t[4..] {
                        match v.parse::<i64>() {
                            Ok(v) => init.push(v),
                            Err(_) => return err(ln, format!("bad initializer `{v}`")),
                        }
                    }
                    if init.len() > words as usize {
                        return err(ln, "more initializers than words");
                    }
                }
                let id = GlobalId::new(module.globals.len());
                if globals.insert(t[1], id).is_some() {
                    return err(ln, format!("duplicate global {}", t[1]));
                }
                let name = t[1].to_string();
                module.globals.push(GlobalDecl { name, words, init });
            }
            "fn" => {
                // `fn <name> params = <n> ...`
                if t.len() < 5 || t[2] != "params" || t[3] != "=" {
                    return err(ln, "expected `fn <name> params=<n> locals=(..) {`");
                }
                let Ok(num_params) = t[4].parse::<u16>() else {
                    return err(ln, "bad params count");
                };
                let id = FuncId::new(module.funcs.len());
                if funcs.insert(t[1], id).is_some() {
                    return err(ln, format!("duplicate function {}", t[1]));
                }
                module.funcs.push(Function::new(t[1], num_params));
                headers.push(i);
            }
            other => {
                let want = "expected `module`, `global`, or `fn`";
                return err(ln, format!("unexpected top-level `{other}` ({want})"));
            }
        }
    }

    // ---- phase B: function bodies ----
    // A body runs to the first line that is exactly `}`; reaching another
    // `fn` line first leaves it unterminated.
    for (f, &h) in headers.iter().enumerate() {
        let header = &lines[h];
        let end = lines[h + 1..]
            .iter()
            .position(|l| l.toks == ["}"] || l.toks[0] == "fn")
            .map(|e| h + 1 + e)
            .filter(|&e| lines[e].toks == ["}"]);
        let Some(end) = end else {
            return err(header.no, "unterminated function body (missing `}`)");
        };
        let body = &lines[h + 1..end];
        // Every body line, blank or not, could hold a block label.
        let body_lines = lines[end].no - header.no - 1;
        // Fresh tables per function: clearing a reused one costs its
        // capacity, so one big function would tax every later small one.
        let mut ctx = FuncCtx {
            globals: &globals,
            funcs: &funcs,
            locals: Names::new(),
            inst_labels: Names::new(),
        };
        parse_function_body(&mut module.funcs[f], &mut ctx, header, body, body_lines)?;
    }

    Ok(module)
}

/// Fills `func` (as phase A declared it) from its header extras and body.
fn parse_function_body<'a>(
    func: &mut Function,
    ctx: &mut FuncCtx<'_, 'a>,
    header: &Line<'_, 'a>,
    body: &[Line<'_, 'a>],
    body_lines: usize,
) -> Result<(), ParseError> {
    // Header extras: locals=(..) and optional entry=bbK.
    let (h, hl) = (header.toks, header.no);
    let mut t = 5;
    let mut entry: Option<BlockId> = None;
    while t < h.len() {
        match h[t] {
            "locals" => {
                if h.get(t + 1) != Some(&"=") || h.get(t + 2) != Some(&"(") {
                    return err(hl, "expected `locals=(...)`");
                }
                t += 3;
                while t < h.len() && h[t] != ")" {
                    let lid = LocalId::new(func.locals.len());
                    if ctx.locals.insert(h[t], lid).is_some() {
                        return err(hl, format!("duplicate local {}", h[t]));
                    }
                    func.locals.push(h[t].to_string());
                    t += 1;
                }
                t += 1; // skip `)`
            }
            "entry" => {
                let (Some(&"="), Some(block)) = (h.get(t + 1), h.get(t + 2)) else {
                    return err(hl, "expected `entry=bbK`");
                };
                entry = Some(parse_block_ref(block, hl)?);
                t += 3;
            }
            "{" => t += 1,
            other => return err(hl, format!("unexpected token `{other}` in header")),
        }
    }

    // Pre-pass over body: assign InstIds in appearance order; bind labels;
    // discover blocks. The block table is dense (`0..=max_block`), so a
    // label index is bounded by the body line count — every block needs
    // its own label line — which keeps a mutated `bb999999999:` label
    // from allocating a billion empty blocks.
    let mut max_block = 0usize;
    let mut saw_block = false;
    let mut next_inst = 0usize;
    for line in body {
        if let Some(tok) = block_label(line.toks) {
            let b = parse_block_ref(tok, line.no)?;
            if b.index() >= body_lines {
                return err(
                    line.no,
                    format!(
                        "block label `{tok}` out of range (function body has {body_lines} lines)"
                    ),
                );
            }
            max_block = max_block.max(b.index());
            saw_block = true;
            continue;
        }
        if !saw_block {
            return err(line.no, "instruction before any block label");
        }
        let id = InstId::new(next_inst);
        next_inst += 1;
        if let Some(label) = result_label(line.toks) {
            if ctx.inst_labels.insert(label, id).is_some() {
                return err(line.no, format!("duplicate result label %{label}"));
            }
        }
    }
    func.blocks = vec![Block::default(); max_block + 1];
    func.entry = entry.unwrap_or(BlockId::new(0));

    // Main pass. The pre-pass saw a label before any instruction.
    let mut current = BlockId::new(0);
    for line in body {
        if let Some(tok) = block_label(line.toks) {
            current = parse_block_ref(tok, line.no)?;
            // A trailing comment on the label line is the block's name.
            let name = line.comment.trim();
            if !name.is_empty() {
                func.blocks[current.index()].name = name.to_string();
            }
            continue;
        }
        let label = result_label(line.toks);
        let toks = if label.is_some() {
            &line.toks[2..]
        } else {
            line.toks
        };
        let kind = ctx.inst(toks, line.no)?;
        if label.is_some() && !kind.has_result() {
            return err(line.no, "instruction produces no result but one is bound");
        }
        func.blocks[current.index()]
            .insts
            .push(InstId::new(func.insts.len()));
        func.insts.push(Inst { kind });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FunctionBuilder, ModuleBuilder};
    use crate::printer::print_module;
    use crate::verify::verify_module;

    const MP: &str = r#"
module mp
global data 1
global flag 1

fn producer params=0 locals=() {
bb0:
  store @data, c42
  store @flag, c1
  ret
}

fn consumer params=0 locals=() {
bb0:
  br bb1
bb1:
  %v = load @flag
  %c = cmp eq %v, c0
  condbr %c, bb1, bb2
bb2:
  %d = load @data
  ret %d
}
"#;

    #[test]
    fn parses_mp() {
        let m = parse_module(MP).expect("parses");
        assert_eq!(m.name, "mp");
        assert_eq!(m.globals.len(), 2);
        assert_eq!(m.funcs.len(), 2);
        assert!(verify_module(&m).is_empty(), "parsed module verifies");
        let consumer = m.func(m.func_by_name("consumer").unwrap());
        assert_eq!(consumer.num_blocks(), 3);
    }

    #[test]
    fn roundtrip_print_parse_print() {
        let mut mb = ModuleBuilder::new("rt");
        let g = mb.global_init("arr", 4, vec![1, 2, 3, 4]);
        let lock = mb.global("lock", 1);
        let mut fb = FunctionBuilder::new("worker", 1);
        let l = fb.local("acc");
        fb.write_local(l, 0i64);
        fb.lock_acquire(lock);
        fb.for_loop(0i64, 4i64, |b, i| {
            let p = b.gep(g, i);
            let v = b.load(p);
            let acc = b.read_local(l);
            let s = b.add(acc, v);
            b.write_local(l, s);
        });
        fb.lock_release(lock);
        let r = fb.read_local(l);
        fb.ret(Some(r));
        mb.add_func(fb.build());
        let m = mb.finish();

        let printed = print_module(&m);
        let reparsed = parse_module(&printed).expect("reparse");
        assert!(verify_module(&reparsed).is_empty());
        let printed2 = print_module(&reparsed);
        assert_eq!(printed, printed2, "print-parse-print is a fixpoint");
    }

    #[test]
    fn error_on_unknown_value() {
        let bad = "module m\nfn f params=0 locals=() {\nbb0:\n  ret %nope\n}\n";
        let e = parse_module(bad).unwrap_err();
        assert!(e.message.contains("unknown value"));
        assert_eq!(e.line, 4);
    }

    #[test]
    fn error_on_unknown_instruction() {
        let bad = "module m\nfn f params=0 locals=() {\nbb0:\n  frobnicate c1\n}\n";
        let e = parse_module(bad).unwrap_err();
        assert!(e.message.contains("unknown instruction"));
    }

    #[test]
    fn error_on_duplicate_global() {
        let bad = "module m\nglobal x 1\nglobal x 2\n";
        let e = parse_module(bad).unwrap_err();
        assert!(e.message.contains("duplicate global"));
    }

    #[test]
    fn parses_intrinsics_and_calls() {
        let src = r#"
module m
global lock 1
fn helper params=1 locals=() {
bb0:
  ret arg0
}
fn main params=0 locals=() {
bb0:
  intrinsic lock_acquire(@lock)
  %t = intrinsic thread_id()
  %r = call helper(%t)
  intrinsic lock_release(@lock)
  ret %r
}
"#;
        let m = parse_module(src).expect("parses");
        assert!(verify_module(&m).is_empty());
        let main = m.func(m.func_by_name("main").unwrap());
        assert_eq!(main.num_insts(), 5);
    }

    #[test]
    fn error_on_top_level_junk() {
        let e = parse_module("this is not IR\n").unwrap_err();
        assert!(e.message.contains("unexpected top-level"), "{e}");
        assert_eq!(e.line, 1);
        // Stray instruction after a closed body is junk, not silently dropped.
        let bad = "module m\nfn f params=0 locals=() {\nbb0:\n  ret\n}\n  ret\n";
        let e = parse_module(bad).unwrap_err();
        assert_eq!(e.line, 6);
    }

    #[test]
    fn error_on_out_of_range_block_label() {
        // A mutated label with a huge index must be a diagnostic, not a
        // billion-entry block table.
        let bad = "module m\nfn f params=0 locals=() {\nbb999999999:\n  ret\n}\n";
        let e = parse_module(bad).unwrap_err();
        assert!(e.message.contains("out of range"), "{e}");
        assert_eq!(e.line, 3);
        // Dense labels up to the body size still parse.
        let ok = "module m\nfn f params=0 locals=() {\nbb0:\n  br bb1\nbb1:\n  ret\n}\n";
        assert!(parse_module(ok).is_ok());
    }

    #[test]
    fn global_inits_parse() {
        let m = parse_module("module m\nglobal g 4 = 9 8 7\n").unwrap();
        assert_eq!(m.globals[0].init, vec![9, 8, 7]);
        assert_eq!(m.globals[0].words, 4);
    }

    #[test]
    fn line_classifier_follows_the_tokenizer() {
        assert_eq!(first_token("}x"), Some("}"));
        assert_eq!(first_token("fn{"), Some("fn"));
        assert_eq!(first_token("  module m ; fn"), Some("module"));
        assert_eq!(first_token(" \t; only a comment"), None);
        assert_eq!(first_token("\u{a0}fn\u{2003}f"), Some("fn"));
        let mut scan = TopLevel::default();
        let tops: Vec<bool> = ["module", "fn", "module", "}", "global"]
            .iter()
            .map(|t| scan.is_top_level(t))
            .collect();
        assert_eq!(tops, [true, true, false, false, true]);
    }
}

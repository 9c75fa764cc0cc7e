//! The interpreter core shared by the timing simulator ([`crate::sim`])
//! and the litmus explorer ([`crate::litmus`]): the activation record,
//! operand evaluation, the register instructions and the initial memory
//! image. Memory operations, control transfer and costs stay with each
//! front end, which decides how stores become visible.

use crate::layout::Layout;
use fence_ir::{BlockId, FuncId, Function, InstId, InstKind, Module, Value};

/// One activation of a function: its program counter and registers.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) struct Frame {
    pub func: FuncId,
    pub block: u32,
    pub idx: u32,
    pub args: Vec<i64>,
    pub locals: Vec<i64>,
    pub results: Vec<i64>,
}

impl Frame {
    /// A fresh activation of `func` (whose id is `id`) at its entry.
    pub fn new(id: FuncId, func: &Function, args: Vec<i64>) -> Self {
        Frame {
            func: id,
            block: func.entry.index() as u32,
            idx: 0,
            args,
            locals: vec![0; func.locals.len()],
            results: vec![0; func.num_insts()],
        }
    }

    /// The instruction at the program counter; `func` is this frame's
    /// function.
    pub fn pc(&self, func: &Function) -> InstId {
        func.blocks[self.block as usize].insts[self.idx as usize]
    }

    /// Moves the program counter to the top of `bb`.
    pub fn jump(&mut self, bb: BlockId) {
        self.block = bb.index() as u32;
        self.idx = 0;
    }

    /// The value of operand `v`.
    pub fn eval(&self, v: Value, layout: &Layout) -> i64 {
        match v {
            Value::Const(c) => c,
            Value::Global(g) => layout.base(g),
            Value::Arg(a) => self.args[a as usize],
            Value::Inst(i) => self.results[i.index()],
        }
    }

    /// Executes `kind` (instruction `iid`) if it only reads and writes
    /// registers — `bin`, `cmp`, `select`, `gep`, local reads and
    /// writes — and returns whether it did. Any other instruction is
    /// left untouched for the caller. The program counter never moves.
    pub fn exec_register(&mut self, iid: InstId, kind: &InstKind, layout: &Layout) -> bool {
        let ev = |v| self.eval(v, layout);
        let r = match *kind {
            InstKind::Bin { op, lhs, rhs } => op.eval(ev(lhs), ev(rhs)),
            InstKind::Cmp { op, lhs, rhs } => op.eval(ev(lhs), ev(rhs)),
            InstKind::Select {
                cond,
                then_val,
                else_val,
            } => ev(if ev(cond) != 0 { then_val } else { else_val }),
            InstKind::Gep { base, index } => ev(base).wrapping_add(ev(index)),
            InstKind::ReadLocal { local } => self.locals[local.index()],
            InstKind::WriteLocal { local, val } => {
                self.locals[local.index()] = ev(val);
                return true;
            }
            _ => return false,
        };
        self.results[iid.index()] = r;
        true
    }
}

/// The initial contents of word addresses `lo..hi`: each global's
/// initializer at its layout address, zero everywhere else.
pub(crate) fn memory_image(module: &Module, layout: &Layout, lo: i64, hi: i64) -> Vec<i64> {
    let mut mem = vec![0i64; (hi - lo) as usize];
    for (g, decl) in module.iter_globals() {
        let base = (layout.base(g) - lo) as usize;
        mem[base..base + decl.init.len()].copy_from_slice(&decl.init);
    }
    mem
}

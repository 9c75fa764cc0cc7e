//! Instruction kinds and their static classification.

use crate::ids::{BlockId, FuncId, LocalId};
use crate::value::Value;
use std::fmt;

/// Binary arithmetic / bitwise operators.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
}

/// Signed comparison operators; results are 0 or 1.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Atomic read-modify-write operators.
///
/// Per the paper (§3), RMW operations are modelled as a read followed by a
/// write to the same location; the analyses treat them exactly that way.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum RmwOp {
    Add,
    Exchange,
    And,
    Or,
}

/// The two enforcement mechanisms of the paper's x86-TSO backend.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum FenceKind {
    /// A full memory fence (x86 `MFENCE`): drains the store buffer, ordering
    /// `w → r`. Has real runtime cost.
    Full,
    /// A compiler directive (empty memory-clobbering asm): prevents compiler
    /// reordering but has *no presence in the final binary* and zero runtime
    /// cost. Enforces `r→r`, `r→w`, `w→w` orderings which x86-TSO hardware
    /// already preserves.
    Compiler,
}

/// Built-in operations the IR can call without a user-defined body.
///
/// `LockAcquire`/`LockRelease`/`BarrierWait` model *library* synchronization
/// (pthread locks and barriers). The paper's benchmarks are "well
/// synchronized by library calls to locks and barriers" except for their ad
/// hoc synchronization; library internals are assumed correctly fenced, so
/// these intrinsics are synchronization boundaries for ordering generation
/// and perform the corresponding fencing in the simulator.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Intrinsic {
    /// `lock_acquire(addr)` — spin-acquire the word at `addr`.
    LockAcquire,
    /// `lock_release(addr)` — release the word at `addr`.
    LockRelease,
    /// `barrier_wait(addr, n)` — central sense-reversing barrier for `n` threads.
    BarrierWait,
    /// Returns the executing thread's id (0-based).
    ThreadId,
    /// Returns the number of threads in the launch.
    NumThreads,
    /// Debug print of a single value; no memory semantics.
    Print,
}

impl Intrinsic {
    /// The textual name used by the printer/parser.
    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::LockAcquire => "lock_acquire",
            Intrinsic::LockRelease => "lock_release",
            Intrinsic::BarrierWait => "barrier_wait",
            Intrinsic::ThreadId => "thread_id",
            Intrinsic::NumThreads => "num_threads",
            Intrinsic::Print => "print",
        }
    }

    /// Parses an intrinsic from its textual name.
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "lock_acquire" => Intrinsic::LockAcquire,
            "lock_release" => Intrinsic::LockRelease,
            "barrier_wait" => Intrinsic::BarrierWait,
            "thread_id" => Intrinsic::ThreadId,
            "num_threads" => Intrinsic::NumThreads,
            "print" => Intrinsic::Print,
            _ => return None,
        })
    }

    /// Number of arguments the intrinsic expects.
    pub fn arity(self) -> usize {
        match self {
            Intrinsic::LockAcquire | Intrinsic::LockRelease | Intrinsic::Print => 1,
            Intrinsic::BarrierWait => 2,
            Intrinsic::ThreadId | Intrinsic::NumThreads => 0,
        }
    }

    /// `true` if the intrinsic is a synchronization boundary: orderings do
    /// not need to span across it (the library is assumed correctly fenced).
    pub fn is_sync_boundary(self) -> bool {
        matches!(
            self,
            Intrinsic::LockAcquire | Intrinsic::LockRelease | Intrinsic::BarrierWait
        )
    }
}

/// One IR instruction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum InstKind {
    // ---- shared memory ----
    /// `%r = load addr` — read one word of shared memory.
    Load { addr: Value },
    /// `store addr, val` — write one word of shared memory.
    Store { addr: Value, val: Value },
    /// `%r = rmw <op> addr, val` — atomic read-modify-write; result is the
    /// old value. Counts as a read followed by a write.
    AtomicRmw { op: RmwOp, addr: Value, val: Value },
    /// `%r = cas addr, expected, new` — atomic compare-and-swap; result is
    /// the old value (success iff old == expected). Counts as a read
    /// followed by a (conditional) write.
    AtomicCas {
        addr: Value,
        expected: Value,
        new: Value,
    },
    /// A memory fence (inserted by the placement pass, or hand-placed for
    /// the `Manual` baseline).
    Fence { kind: FenceKind },
    /// `%r = alloc words` — bump-allocate `words` fresh cells from the
    /// shared heap; result is the base address. One abstract location per
    /// syntactic site for the points-to analysis.
    Alloc { words: Value },

    // ---- pure computation ----
    /// `%r = <op> lhs, rhs`.
    Bin { op: BinOp, lhs: Value, rhs: Value },
    /// `%r = cmp <op> lhs, rhs` — 0/1 result.
    Cmp { op: CmpOp, lhs: Value, rhs: Value },
    /// `%r = select cond, a, b`.
    Select {
        cond: Value,
        then_val: Value,
        else_val: Value,
    },
    /// `%r = gep base, index` — address arithmetic (`base + index` in words).
    Gep { base: Value, index: Value },

    // ---- local registers ----
    /// `%r = read_local l` — read a mutable function-local register.
    ReadLocal { local: LocalId },
    /// `write_local l, val`.
    WriteLocal { local: LocalId, val: Value },

    // ---- calls ----
    /// `%r = call f(args...)` — call a function in the same module.
    Call { callee: FuncId, args: Vec<Value> },
    /// `%r = intrinsic name(args...)`.
    CallIntrinsic { intr: Intrinsic, args: Vec<Value> },

    // ---- terminators ----
    /// Unconditional branch.
    Br { target: BlockId },
    /// Conditional branch: non-zero condition takes `then_bb`.
    CondBr {
        cond: Value,
        then_bb: BlockId,
        else_bb: BlockId,
    },
    /// Function return.
    Ret { val: Option<Value> },
}

impl InstKind {
    /// `true` if the instruction ends a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            InstKind::Br { .. } | InstKind::CondBr { .. } | InstKind::Ret { .. }
        )
    }

    /// `true` if the instruction produces a usable result value.
    pub fn has_result(&self) -> bool {
        match self {
            InstKind::Load { .. }
            | InstKind::AtomicRmw { .. }
            | InstKind::AtomicCas { .. }
            | InstKind::Alloc { .. }
            | InstKind::Bin { .. }
            | InstKind::Cmp { .. }
            | InstKind::Select { .. }
            | InstKind::Gep { .. }
            | InstKind::ReadLocal { .. }
            | InstKind::Call { .. } => true,
            InstKind::CallIntrinsic { intr, .. } => {
                matches!(intr, Intrinsic::ThreadId | Intrinsic::NumThreads)
            }
            InstKind::Store { .. }
            | InstKind::Fence { .. }
            | InstKind::WriteLocal { .. }
            | InstKind::Br { .. }
            | InstKind::CondBr { .. }
            | InstKind::Ret { .. } => false,
        }
    }

    /// `true` if the instruction reads shared memory (the "read part" of an
    /// RMW/CAS included, per §3 of the paper).
    pub fn is_mem_read(&self) -> bool {
        matches!(
            self,
            InstKind::Load { .. } | InstKind::AtomicRmw { .. } | InstKind::AtomicCas { .. }
        )
    }

    /// `true` if the instruction writes shared memory.
    pub fn is_mem_write(&self) -> bool {
        matches!(
            self,
            InstKind::Store { .. } | InstKind::AtomicRmw { .. } | InstKind::AtomicCas { .. }
        )
    }

    /// `true` if the instruction accesses shared memory at all.
    pub fn is_mem_access(&self) -> bool {
        self.is_mem_read() || self.is_mem_write()
    }

    /// The address operand of a memory access ("dereference"), if any.
    pub fn mem_addr(&self) -> Option<Value> {
        match self {
            InstKind::Load { addr }
            | InstKind::Store { addr, .. }
            | InstKind::AtomicRmw { addr, .. }
            | InstKind::AtomicCas { addr, .. } => Some(*addr),
            _ => None,
        }
    }

    /// Invokes `f` on every operand value.
    pub fn for_each_operand(&self, mut f: impl FnMut(Value)) {
        match self {
            InstKind::Load { addr } => f(*addr),
            InstKind::Store { addr, val } => {
                f(*addr);
                f(*val);
            }
            InstKind::AtomicRmw { addr, val, .. } => {
                f(*addr);
                f(*val);
            }
            InstKind::AtomicCas {
                addr,
                expected,
                new,
            } => {
                f(*addr);
                f(*expected);
                f(*new);
            }
            InstKind::Fence { .. } => {}
            InstKind::Alloc { words } => f(*words),
            InstKind::Bin { lhs, rhs, .. } | InstKind::Cmp { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            InstKind::Select {
                cond,
                then_val,
                else_val,
            } => {
                f(*cond);
                f(*then_val);
                f(*else_val);
            }
            InstKind::Gep { base, index } => {
                f(*base);
                f(*index);
            }
            InstKind::ReadLocal { .. } => {}
            InstKind::WriteLocal { val, .. } => f(*val),
            InstKind::Call { args, .. } | InstKind::CallIntrinsic { args, .. } => {
                for a in args {
                    f(*a);
                }
            }
            InstKind::Br { .. } => {}
            InstKind::CondBr { cond, .. } => f(*cond),
            InstKind::Ret { val } => {
                if let Some(v) = val {
                    f(*v);
                }
            }
        }
    }

    /// Collects operands into a `Vec` (convenience for non-hot paths).
    pub fn operands(&self) -> Vec<Value> {
        let mut out = Vec::with_capacity(3);
        self.for_each_operand(|v| out.push(v));
        out
    }

    /// Successor blocks for terminators; empty for non-terminators and `ret`.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            InstKind::Br { target } => vec![*target],
            InstKind::CondBr {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            _ => Vec::new(),
        }
    }
}

impl BinOp {
    /// Textual mnemonic.
    pub fn name(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
        }
    }

    /// Parses a mnemonic.
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "add" => BinOp::Add,
            "sub" => BinOp::Sub,
            "mul" => BinOp::Mul,
            "div" => BinOp::Div,
            "rem" => BinOp::Rem,
            "and" => BinOp::And,
            "or" => BinOp::Or,
            "xor" => BinOp::Xor,
            "shl" => BinOp::Shl,
            "shr" => BinOp::Shr,
            _ => return None,
        })
    }

    /// Evaluates the operator on two words (wrapping semantics; division by
    /// zero yields 0, matching a forgiving hardware model).
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            BinOp::Rem => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl((b & 63) as u32),
            BinOp::Shr => a.wrapping_shr((b & 63) as u32),
        }
    }
}

impl CmpOp {
    /// Textual mnemonic.
    pub fn name(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }

    /// Parses a mnemonic.
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "eq" => CmpOp::Eq,
            "ne" => CmpOp::Ne,
            "lt" => CmpOp::Lt,
            "le" => CmpOp::Le,
            "gt" => CmpOp::Gt,
            "ge" => CmpOp::Ge,
            _ => return None,
        })
    }

    /// Evaluates the comparison, returning 0 or 1.
    pub fn eval(self, a: i64, b: i64) -> i64 {
        let r = match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        };
        r as i64
    }
}

impl RmwOp {
    /// Textual mnemonic.
    pub fn name(self) -> &'static str {
        match self {
            RmwOp::Add => "add",
            RmwOp::Exchange => "xchg",
            RmwOp::And => "and",
            RmwOp::Or => "or",
        }
    }

    /// Parses a mnemonic.
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "add" => RmwOp::Add,
            "xchg" => RmwOp::Exchange,
            "and" => RmwOp::And,
            "or" => RmwOp::Or,
            _ => return None,
        })
    }

    /// Computes the new stored value from old value and operand.
    pub fn eval(self, old: i64, operand: i64) -> i64 {
        match self {
            RmwOp::Add => old.wrapping_add(operand),
            RmwOp::Exchange => operand,
            RmwOp::And => old & operand,
            RmwOp::Or => old | operand,
        }
    }
}

impl fmt::Display for FenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FenceKind::Full => write!(f, "full"),
            FenceKind::Compiler => write!(f, "compiler"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        let ld = InstKind::Load {
            addr: Value::Arg(0),
        };
        assert!(ld.is_mem_read() && !ld.is_mem_write() && ld.has_result());
        let st = InstKind::Store {
            addr: Value::Arg(0),
            val: Value::c(1),
        };
        assert!(st.is_mem_write() && !st.is_mem_read() && !st.has_result());
        let rmw = InstKind::AtomicRmw {
            op: RmwOp::Add,
            addr: Value::Arg(0),
            val: Value::c(1),
        };
        assert!(
            rmw.is_mem_read() && rmw.is_mem_write(),
            "rmw = read + write"
        );
        assert!(InstKind::Ret { val: None }.is_terminator());
    }

    #[test]
    fn operand_iteration() {
        let cas = InstKind::AtomicCas {
            addr: Value::Arg(0),
            expected: Value::c(0),
            new: Value::c(1),
        };
        assert_eq!(
            cas.operands(),
            vec![Value::Arg(0), Value::c(0), Value::c(1)]
        );
        assert_eq!(cas.mem_addr(), Some(Value::Arg(0)));
    }

    #[test]
    fn successors_of_terminators() {
        let br = InstKind::Br {
            target: BlockId::new(2),
        };
        assert_eq!(br.successors(), vec![BlockId::new(2)]);
        let cb = InstKind::CondBr {
            cond: Value::c(1),
            then_bb: BlockId::new(0),
            else_bb: BlockId::new(1),
        };
        assert_eq!(cb.successors().len(), 2);
        assert!(InstKind::Ret { val: None }.successors().is_empty());
    }

    #[test]
    fn binop_eval() {
        assert_eq!(BinOp::Add.eval(2, 3), 5);
        assert_eq!(BinOp::Div.eval(7, 0), 0, "div-by-zero is forgiving");
        assert_eq!(BinOp::Shl.eval(1, 65), 2, "shift masked to 6 bits");
        assert_eq!(BinOp::from_name("mul"), Some(BinOp::Mul));
        assert_eq!(BinOp::from_name("nope"), None);
    }

    #[test]
    fn cmp_and_rmw_eval() {
        assert_eq!(CmpOp::Le.eval(2, 2), 1);
        assert_eq!(CmpOp::Gt.eval(2, 2), 0);
        assert_eq!(RmwOp::Exchange.eval(5, 9), 9);
        assert_eq!(RmwOp::Add.eval(5, 9), 14);
    }

    #[test]
    fn intrinsic_roundtrip() {
        for i in [
            Intrinsic::LockAcquire,
            Intrinsic::LockRelease,
            Intrinsic::BarrierWait,
            Intrinsic::ThreadId,
            Intrinsic::NumThreads,
            Intrinsic::Print,
        ] {
            assert_eq!(Intrinsic::from_name(i.name()), Some(i));
        }
        assert!(Intrinsic::LockAcquire.is_sync_boundary());
        assert!(!Intrinsic::ThreadId.is_sync_boundary());
    }
}

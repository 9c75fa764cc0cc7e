//! # fence-ir
//!
//! An *infinite-register load-store intermediate representation* — the
//! compiler substrate on which the whole fence-placement pipeline operates.
//!
//! The paper (McPherson et al., PPoPP'15) implements its analyses inside
//! LLVM; all of its algorithms are stated over "infinite register load-store
//! intermediate representations". This crate provides exactly that
//! abstraction, built from scratch:
//!
//! * **Values** are immutable results of instructions, constants, global
//!   addresses, or function arguments ([`Value`]).
//! * **Locals** are function-scoped mutable registers (`read_local` /
//!   `write_local`), giving the "infinite register file" without requiring
//!   SSA phis. They are *not* memory: only [`InstKind::Load`]-family
//!   instructions touch shared memory.
//! * **Memory** is a flat word-addressed space of 64-bit cells. Globals are
//!   named module-level regions; `alloc` carves fresh cells from a shared
//!   heap. Address arithmetic uses [`InstKind::Gep`] (base + index), the
//!   analogue of LLVM's `getelementptr`.
//! * **Control flow** is basic blocks terminated by `br`/`condbr`/`ret`.
//!
//! Sub-modules:
//!
//! * [`builder`] — ergonomic construction of modules and functions,
//! * [`mod@cfg`] — successor/predecessor maps, reverse postorder, reachability,
//! * [`verify`] — structural well-formedness checking,
//! * [`printer`] / [`parser`] — a stable textual format, round-trippable,
//! * [`util`] — bitsets and fast hash containers shared by the other crates.

#![forbid(unsafe_code)]

pub mod builder;
pub mod cfg;
pub mod func;
pub mod ids;
pub mod inst;
pub mod module;
pub mod parser;
pub mod printer;
pub mod util;
pub mod value;
pub mod verify;

pub use builder::{FunctionBuilder, ModuleBuilder};
pub use cfg::{Cfg, FuncSubstrate, Reachability};
pub use func::{Block, Function, Inst};
pub use ids::{BlockId, FuncId, GlobalId, InstId, LocalId};
pub use inst::{BinOp, CmpOp, FenceKind, InstKind, Intrinsic, RmwOp};
pub use module::{GlobalDecl, Module};
pub use value::Value;
pub use verify::{verify_function, verify_module, verify_module_checked, VerifyError};

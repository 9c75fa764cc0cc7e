//! # memsim
//!
//! The execution substrate: a multi-threaded interpreter for `fence-ir`
//! modules under several memory models. It stands in for the paper's
//! Intel i3-2100 testbed — the performance experiment (Figure 10) measures
//! *dynamic full-fence overhead*, which a store-buffer cost model
//! reproduces in simulated cycles.
//!
//! * [`sim`] — the timing simulator. `Tso` mode gives each thread a FIFO
//!   store buffer (stores retire after a drain latency; loads forward from
//!   the local buffer; `fence full` and atomic operations stall until the
//!   buffer drains). `Sc` mode applies stores immediately — the reference
//!   semantics. Threads advance in smallest-local-clock order, so runs are
//!   deterministic.
//! * [`litmus`] — exhaustive state-space enumeration of *small* programs
//!   under SC, TSO, and a weak (bounded out-of-order window) model, by
//!   one explorer for all three. This is what validates the soundness
//!   story: SB/Dekker exhibit non-SC outcomes under TSO without fences
//!   and lose them once the pipeline's fences are inserted; MP breaks
//!   only under the weak model, matching x86-TSO's `w→r`-only
//!   relaxation.
//! * [`race`] — a vector-clock (FastTrack-flavoured) race detector over SC
//!   execution traces, parameterized by a sync classification (which reads
//!   are acquires, which writes are releases). Used to check that corpus
//!   programs are well-synchronized *given the detected acquires*.
//! * [`check`] — the bounded certifying model checker: proves a
//!   post-placement thread group **sound** (relaxed outcome set ⊆ SC set)
//!   and each placed fence **necessary** (weakening it strictly enlarges
//!   the relaxed set), under a shared per-check state budget. It refuses
//!   modules whose global image exceeds 4,096 words: each pass builds the
//!   image flat once, and every explored state holds a table of its
//!   copy-on-write pages.
//! * [`layout`] / [`cost`] — memory layout, and the cycle cost constants
//!   the simulator charges. `cost` serves the simulator only: the
//!   placement pipeline never consults it (fence minimization is
//!   unit-cost), so as a *synthesis* cost model it is vestigial — see
//!   the ROADMAP's cost-aware synthesis item.
//!
//! [`sim`] and [`litmus`] run on one private interpreter core: the
//! activation record, operand evaluation, the register instructions and
//! the initial memory image are written once.

#![warn(missing_docs)]

pub mod check;
pub mod cost;
mod interp;
pub mod layout;
pub mod litmus;
pub mod race;
pub mod sim;

pub use check::{check_threads, CheckBudget, CheckError, CheckResult, FenceSite, FenceVerdict};
pub use layout::Layout;
pub use litmus::{enumerate, enumerate_bounded, LitmusModel, LitmusOutcome};
pub use race::{detect_races, RaceReport, SyncClassification};
pub use sim::{MemMode, SimConfig, SimResult, Simulator, ThreadSpec};

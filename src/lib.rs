//! # fence-suite
//!
//! Umbrella crate for the reproduction of *Fence Placement for Legacy
//! Data-Race-Free Programs via Synchronization Read Detection* (McPherson,
//! Nagarajan, Sarkar, Cintra, PPoPP 2015).
//!
//! Re-exports the workspace crates; see the `examples/` directory for
//! runnable walkthroughs and `crates/bench` for the figure harnesses.

#![forbid(unsafe_code)]

pub use corpus;
pub use fence_analysis as analysis;
pub use fence_ir as ir;
pub use fenceplace;
pub use memsim;

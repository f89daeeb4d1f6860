//! `pinpoint-bench`: measurement infrastructure for regenerating every
//! table and figure of the paper's evaluation (§5).
//!
//! * [`alloc`] — a counting global allocator measuring live and peak heap
//!   bytes (the paper reports peak memory per stage);
//! * [`fit`] — least-squares line fitting with `R²`, used by the Fig. 10
//!   scalability-curve experiment;
//! * [`measure`](mod@measure) — helpers running one stage with time + peak-memory
//!   accounting.
//!
//! The `reproduce` binary (see `src/bin/reproduce.rs`) drives the
//! experiments; `pinbench/` is the benchmark with bounds.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alloc;
pub mod fit;
pub mod measure;

pub use alloc::CountingAlloc;
pub use fit::{linear_fit, Fit};
pub use measure::{measure, Measurement};

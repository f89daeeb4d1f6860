//! `pinpoint-pta`: the points-to substrate of the Pinpoint reproduction
//! (PLDI 2018).
//!
//! Pinpoint's "holistic" design replaces the conventional independent
//! whole-program points-to stage with a cheap, function-local analysis
//! whose expensive inter-procedural parts are delayed to bug-detection
//! time. This crate provides both sides of that comparison:
//!
//! * [`intra`] — the **quasi path-sensitive points-to analysis**
//!   (§3.1.1): flow-sensitive, guarded facts pruned by the linear-time
//!   contradiction solver, producing conditional memory def-use edges and
//!   Mod/Ref sets;
//! * [`transform`] — the **connector model** (§3.1.2, Fig. 3): Aux formal
//!   parameters and Aux return values that expose non-local side effects
//!   on function interfaces, plus the matching call-site rewriting;
//! * [`driver`] — the bottom-up module pipeline combining the two, the
//!   one algorithm for builds and edits ([`analyze_module_par`]): every
//!   function to analyse runs in a private arena, sharded level by level
//!   over the call graph, and is merged into the shared arena in a fixed
//!   order ([`analyze_module`] is this at one thread with nothing to
//!   splice);
//! * [`incremental`] — what an edit adds to a build: the previous run
//!   ([`PreviousRun`]) whose clean functions are spliced before the rest
//!   are analysed;
//! * [`andersen`] — a whole-program, flow- and context-insensitive
//!   inclusion-based points-to analysis: the substrate of the *layered*
//!   baseline (SVF-style) that the paper's evaluation compares against;
//! * [`symbols`], [`reach`], [`object`] — shared condition and memory
//!   vocabulary.
//!
//! # Examples
//!
//! ```
//! let mut module = pinpoint_ir::compile(
//!     "fn bar(q: int**) {
//!         let c: int* = malloc();
//!         if (*q != null) { *q = c; free(c); }
//!         return;
//!     }",
//! ).unwrap();
//! let analysis = pinpoint_pta::analyze_module(&mut module);
//! let bar = module.func_by_name("bar").unwrap();
//! // *q is both referenced and modified: bar gains the X/Y connectors
//! // of the paper's Fig. 2.
//! assert_eq!(analysis.shape(bar).aux_params.len(), 1);
//! assert_eq!(analysis.shape(bar).aux_rets.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// `clippy.toml` bans hash containers; the ban binds in the modules that
// deny it (`intra`), not crate-wide.
#![allow(clippy::disallowed_types)]

pub mod andersen;
pub mod driver;
pub mod incremental;
pub mod intra;
pub mod object;
pub mod reach;
pub mod symbols;
pub mod transform;

pub use driver::{analyze_module, analyze_module_par, ModuleAnalysis, PtaConfig};
pub use incremental::{dirty_closure, IncrementalOutcome, PreviousRun};
pub use intra::{FuncPta, GlobalAccess, MemDep, PointsTo, PtaStats};
pub use object::{AccessPath, Obj, MAX_PATH_DEPTH};
pub use symbols::{Symbols, SymbolsMark};
pub use transform::AuxShape;

//! `pinpoint-ir`: the program-representation substrate for the Pinpoint
//! reproduction (PLDI 2018).
//!
//! The paper defines its analysis over a small call-by-value language (§3)
//! with assignments, φ-assignments, binary/unary operations, k-level
//! pointer loads and stores, branches, calls, and returns. This crate
//! provides that language end to end:
//!
//! * a C-like surface syntax ([`lexer`], [`parser`], [`ast`]): a pull
//!   lexer and a syntax tree that borrow every name from the source text;
//! * [`lower`] — lowering to an SSA control-flow-graph IR ([`ir`]), with
//!   loops unrolled once (the §4.2 soundiness rule) so every CFG is
//!   acyclic and every function has a unique return statement;
//! * [`frontend`] — the pipeline over those: the file is split into items
//!   once, then each function is parsed, lowered and its tree dropped on
//!   its own ([`compile`] is the serial loop over it);
//! * CFG utilities ([`cfg`](mod@cfg)), dominators and post-dominators ([`dom`]),
//!   control dependence ([`controldep`]), and gating conditions for
//!   φ-assignments ([`gating`]);
//! * the call graph with SCC condensation and bottom-up ordering
//!   ([`callgraph`]) driving the compositional analysis;
//! * a pretty-printer ([`printer`]).
//!
//! # Examples
//!
//! ```
//! let src = "fn main() { let p: int* = malloc(); free(p); return; }";
//! let module = pinpoint_ir::compile(src)?;
//! assert_eq!(module.funcs.len(), 1);
//! assert_eq!(module.funcs[0].name, "main");
//! # Ok::<(), pinpoint_ir::CompileError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ast;
pub mod callgraph;
pub mod cfg;
pub mod controldep;
pub mod dom;
pub mod fingerprint;
pub mod frontend;
pub mod gating;
pub mod ir;
pub mod lexer;
pub mod lower;
pub mod opt;
pub mod parser;
pub mod printer;
pub mod types;
pub mod verify;

pub use callgraph::{CallGraph, ConeMemo};
pub use cfg::Cfg;
pub use controldep::{ControlDep, ControlDeps};
pub use dom::{DomTree, PostDomTree};
pub use fingerprint::{func_fingerprint, module_fingerprints};
pub use frontend::{compile, CompileError, Snapshot, Unit};
pub use gating::{Gate, Gating};
pub use ir::intrinsics;
pub use ir::{
    BinOp, Block, BlockId, CallParts, Callee, Const, FuncId, Function, Global, GlobalId, Inst,
    InstId, Intrinsic, Module, NameTable, Terminator, UnOp, ValueId, ValueInfo,
};
pub use opt::{optimize_module, OptStats};
pub use parser::{common_prefix, common_suffix};
pub use types::Type;
pub use verify::{verify_module, VerifyError};

//! `pinpoint-smt`: the constraint-solving substrate for the Pinpoint
//! reproduction (PLDI 2018).
//!
//! Pinpoint delays all expensive path-feasibility reasoning to the bug
//! detection stage, where whole value-flow path conditions are handed to an
//! SMT solver (the paper uses Z3). This crate is a from-scratch substitute
//! providing everything the analysis needs:
//!
//! * [`term`] — hash-consed condition terms shared across a function's
//!   symbolic expression graph;
//! * [`linear`] — the paper's §3.1.1 *linear-time contradiction solver*
//!   (the `P(C)`/`N(C)` positive/negative atom-set rules) used during the
//!   quasi path-sensitive points-to analysis;
//! * [`sat`] — a CDCL SAT core (two-watched literals, 1UIP learning,
//!   VSIDS activities, Luby restarts);
//! * [`theory`] — EUF congruence closure plus Fourier–Motzkin linear
//!   integer arithmetic;
//! * [`solver`] — query results and the Tseitin encoder;
//! * [`session`] — the lazy DPLL(T) loop combining the above, one
//!   [`SmtSession`] per run of related queries.
//!
//! # Examples
//!
//! ```
//! use pinpoint_smt::term::{Sort, TermArena};
//! use pinpoint_smt::{SmtResult, SmtSession};
//!
//! let mut arena = TermArena::new();
//! let theta1 = arena.var("theta1", Sort::Bool);
//! let x = arena.var("x", Sort::Int);
//! let zero = arena.int(0);
//! let theta3 = arena.ne(x, zero);
//! let path_condition = arena.and2(theta1, theta3);
//!
//! let mut solver = SmtSession::new();
//! assert_eq!(solver.check(&arena, path_condition), SmtResult::Sat);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod canon;
pub mod linear;
pub mod sat;
pub mod session;
pub mod solver;
pub mod term;
pub mod theory;
pub mod verdict;

pub use canon::{canon_info, CanonInfo, CANON_VERSION};
pub use linear::{LinearSolver, LinearVerdict};
pub use session::SmtSession;
pub use solver::SmtResult;
pub use term::{RawTermError, Sort, TermArena, TermId, TermKind, TermMark, TermTranslator};
pub use verdict::{verdict_config_fp, Verdict, VerdictTable};

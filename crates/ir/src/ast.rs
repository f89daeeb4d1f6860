//! Abstract syntax tree of the mini-language.
//!
//! The surface language is a small C-like language designed so that every
//! construct maps one-to-one onto the paper's formal language of §3:
//! typed locals, k-level pointer loads and stores, `malloc`/`free`,
//! branches, (once-unrolled) loops, calls, and a single return.
//!
//! ```text
//! fn bar(q: int**) -> int* {
//!     let c: int* = malloc();
//!     if (*q != null) { *q = c; free(c); }
//!     else { if (nondet_bool()) { *q = gb; } }
//!     let y: int* = *q;
//!     return y;
//! }
//! ```
//!
//! The tree borrows every name from the source text (`'src`): nothing in
//! it owns a string, and the pipeline keeps one function body alive at a
//! time (see [`crate::frontend`]).

use crate::types::Type;
use std::fmt;

/// Source position (byte offset) for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Byte offset of the token that produced the node.
    pub offset: usize,
    /// Line number (1-based).
    pub line: usize,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}", self.line)
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr<'src> {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// The null pointer literal.
    Null,
    /// Variable (local, parameter, or global) reference.
    Var(&'src str, Span),
    /// `*e`, possibly nested (`**e` parses as `Deref(Deref(e))`).
    Deref(Box<Expr<'src>>, Span),
    /// Unary operation.
    Un(UnOpKind, Box<Expr<'src>>, Span),
    /// Binary operation.
    Bin(BinOpKind, Box<Expr<'src>>, Box<Expr<'src>>, Span),
    /// Function or intrinsic call.
    Call(&'src str, Vec<Expr<'src>>, Span),
    /// `malloc()` — fresh heap cell.
    Malloc(Span),
}

impl Expr<'_> {
    /// The span of this expression, when it has one.
    pub fn span(&self) -> Span {
        match self {
            Expr::Var(_, s)
            | Expr::Deref(_, s)
            | Expr::Un(_, _, s)
            | Expr::Bin(_, _, _, s)
            | Expr::Call(_, _, s)
            | Expr::Malloc(s) => *s,
            _ => Span::default(),
        }
    }
}

/// Surface unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOpKind {
    /// `-e`.
    Neg,
    /// `!e`.
    Not,
}

/// Surface binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOpKind {
    /// `+`.
    Add,
    /// `-`.
    Sub,
    /// `*`.
    Mul,
    /// `==`.
    Eq,
    /// `!=`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>` (lowered as swapped `<`).
    Gt,
    /// `>=` (lowered as swapped `<=`).
    Ge,
    /// `&&` (non-short-circuit: both sides are evaluated; the language has
    /// no side effects in conditions).
    And,
    /// `||`.
    Or,
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt<'src> {
    /// `let x: T = e;`.
    Let {
        /// Variable name.
        name: &'src str,
        /// Declared type.
        ty: Type,
        /// Initialiser.
        init: Expr<'src>,
        /// Source location.
        span: Span,
    },
    /// `x = e;`.
    Assign {
        /// Target local.
        name: &'src str,
        /// Right-hand side.
        value: Expr<'src>,
        /// Source location.
        span: Span,
    },
    /// `*x = e;` / `**x = e;` — store through `depth` levels.
    Store {
        /// Pointer-valued expression being stored through.
        ptr: Expr<'src>,
        /// Dereference depth (`*x` is 1).
        depth: u32,
        /// Stored value.
        value: Expr<'src>,
        /// Source location.
        span: Span,
    },
    /// Expression statement (a call evaluated for effect).
    Expr(Expr<'src>),
    /// `if (c) { … } else { … }`.
    If {
        /// Condition.
        cond: Expr<'src>,
        /// Then branch.
        then_body: Vec<Stmt<'src>>,
        /// Else branch (possibly empty).
        else_body: Vec<Stmt<'src>>,
        /// Source location.
        span: Span,
    },
    /// `while (c) { … }` — analysed as a single guarded iteration
    /// (the §4.2 soundiness rule: loops unrolled once).
    While {
        /// Loop condition.
        cond: Expr<'src>,
        /// Loop body.
        body: Vec<Stmt<'src>>,
        /// Source location.
        span: Span,
    },
    /// `return;` / `return e;`.
    Return(Option<Expr<'src>>, Span),
}

/// A function's header, borrowed from its entry of the item table: all
/// that lowering needs to know of a function besides its body, and all
/// it needs of the others.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FnHeader<'a, 'src> {
    /// Function name.
    pub name: &'src str,
    /// Parameters: `(name, type)`.
    pub params: &'a [(&'src str, Type)],
    /// Return type (`None` for procedures).
    pub ret_ty: Option<Type>,
    /// Source location.
    pub span: Span,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_span_defaults_for_literals() {
        assert_eq!(Expr::Int(1).span(), Span::default());
        let s = Span { offset: 5, line: 2 };
        assert_eq!(Expr::Var("x", s).span(), s);
    }

    #[test]
    fn span_displays_line() {
        let s = Span { offset: 0, line: 7 };
        assert_eq!(s.to_string(), "line 7");
    }
}

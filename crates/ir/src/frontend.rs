//! The function-granular front end: split once, then parse → lower one
//! function at a time.
//!
//! [`Unit::split`] makes the one pass over the whole file
//! (`parser::split`) and builds the global and signature tables from
//! the item table. After it, every function is independent:
//! [`Unit::compile_fn`] parses one body into a borrowed tree, lowers it
//! and drops the tree, needing nothing but the source text and the
//! tables, so callers may run it for the functions in any order and on
//! any number of threads. [`Unit::finish`] assembles the module.
//! [`compile`] is the serial caller; the analysis driver shards the same
//! calls over its workers.
//!
//! # Which error is reported
//!
//! Always the one the whole-file pipeline (lex everything, parse
//! everything, then lower) would stop at, so the diagnostic is a
//! function of the source text alone:
//!
//! 1. the first lexing error in file order;
//! 2. else the first parse error in file order — a malformed item header
//!    is therefore held back until the bodies before it have parsed
//!    (`parser::split`), and a lowering error never pre-empts a parse
//!    error in a later function ([`Unit::finish`]);
//! 3. else a duplicate global, else a duplicate function, in declaration
//!    order ([`Unit::split`], once every body has parsed);
//! 4. else the first lowering error in function order ([`Unit::finish`]).

use crate::ir::{Function, Module};
use crate::lower::{self, LowerError, Tables};
use crate::parser::{self, FuncItem, Items, ParseError};
use std::fmt;

/// A front-end error: the source did not parse, or did not lower.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// A lexing or parsing error.
    Parse(ParseError),
    /// A semantic error found while lowering.
    Lower(LowerError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => e.fmt(f),
            CompileError::Lower(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError::Parse(e)
    }
}

impl From<LowerError> for CompileError {
    fn from(e: LowerError) -> Self {
        CompileError::Lower(e)
    }
}

/// One source file, split into items, with the tables its functions
/// lower against.
#[derive(Debug)]
pub struct Unit<'src> {
    src: &'src str,
    items: Items<'src>,
    tables: Tables<'src>,
}

impl<'src> Unit<'src> {
    /// Splits `src` into items and builds its tables.
    ///
    /// # Errors
    ///
    /// Every error of the [module docs](self) that is not inside a
    /// function body: classes 1 and 3, and of class 2 the malformed
    /// headers (or the parse error of an earlier body that outranks one).
    pub fn split(src: &'src str) -> Result<Self, CompileError> {
        let items = parser::split(src)?;
        match Tables::build(&items.globals, items.funcs.iter().map(FuncItem::header)) {
            Ok(tables) => Ok(Unit { src, items, tables }),
            Err(duplicate) => {
                // Names are checked once the whole file has parsed.
                for item in &items.funcs {
                    parser::parse_body(src, item)?;
                }
                Err(duplicate.into())
            }
        }
    }

    /// Number of functions; [`Unit::compile_fn`] takes `0..func_count()`.
    pub fn func_count(&self) -> usize {
        self.items.funcs.len()
    }

    /// Name of function `i`.
    pub fn func_name(&self, i: usize) -> &'src str {
        self.items.funcs[i].name
    }

    /// Tokens in the file (end of input not counted).
    pub fn tokens(&self) -> usize {
        self.items.tokens
    }

    /// Bytes of source text.
    pub fn bytes(&self) -> usize {
        self.src.len()
    }

    /// Parses and lowers function `i`. The syntax tree of its body lives
    /// for the duration of this call.
    ///
    /// # Errors
    ///
    /// Returns the function's first parse error, or else its first
    /// lowering error.
    pub fn compile_fn(&self, i: usize) -> Result<Function, CompileError> {
        let item = &self.items.funcs[i];
        let body = parser::parse_body(self.src, item)?;
        Ok(lower::lower_fn(item.header(), &body, &self.tables)?)
    }

    /// Assembles the module from `results`, the outcome of
    /// [`Unit::compile_fn`] for every function, in function order.
    ///
    /// # Errors
    ///
    /// Returns the first parse error among `results`, or else the first
    /// lowering error.
    ///
    /// # Panics
    ///
    /// Panics if `results` does not hold one entry per function.
    pub fn finish(
        self,
        results: Vec<Result<Function, CompileError>>,
    ) -> Result<Module, CompileError> {
        assert_eq!(results.len(), self.func_count(), "one result per function");
        let mut module = lower::module_with_globals(&self.items.globals, results.len());
        let mut lower_error = None;
        for result in results {
            match result {
                Ok(f) => {
                    module.add_func(f);
                }
                Err(e @ CompileError::Parse(_)) => return Err(e),
                Err(e @ CompileError::Lower(_)) => {
                    lower_error.get_or_insert(e);
                }
            }
        }
        lower_error.map_or(Ok(module), Err)
    }
}

/// Parses and lowers `src`, one function after the other.
///
/// # Errors
///
/// Returns the error the [module docs](self) single out.
pub fn compile(src: &str) -> Result<Module, CompileError> {
    let unit = Unit::split(src)?;
    let results = (0..unit.func_count()).map(|i| unit.compile_fn(i)).collect();
    unit.finish(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn message(src: &str) -> String {
        compile(src).unwrap_err().to_string()
    }

    #[test]
    fn lex_errors_outrank_everything_before_them() {
        // A malformed header, a body that does not parse and a type error
        // all precede the stray `&`.
        let src = "fn a() { let x: int = true; return; }\nfn b() { let }\nfn c( {}\nfn d() { & }";
        let e = compile(src).unwrap_err();
        assert!(matches!(e, CompileError::Parse(_)), "{e:?}");
        assert_eq!(e.to_string(), "parse error at line 4: expected `&&`");
    }

    #[test]
    fn a_malformed_header_waits_for_the_bodies_before_it() {
        let header_only = "fn a() { return; }\nfn b( { return; }";
        assert!(
            message(header_only).contains("line 2: expected identifier"),
            "{}",
            message(header_only)
        );
        let body_first = "fn a() { return }\nfn b( { return; }";
        assert!(
            message(body_first).contains("line 1: expected expression"),
            "{}",
            message(body_first)
        );
    }

    #[test]
    fn a_lowering_error_waits_for_later_parse_errors() {
        let src = "fn a() { x = 1; return; }\nfn b() { return }";
        assert!(message(src).contains("line 2: expected expression"));
        let src = "fn a() { x = 1; return; }\nfn b() { y = 1; return; }";
        assert_eq!(message(src), "error at line 1: unknown variable `x`");
    }

    #[test]
    fn duplicates_sit_between_parse_and_lowering_errors() {
        let dup = "global g: int;\nglobal g: int;\nfn a() { return; }\nfn a() { x = 1; return; }";
        assert_eq!(message(dup), "error at line 2: duplicate global `g`");
        let dup_fn = "fn a() { x = 1; return; }\nfn a() { return; }";
        assert_eq!(message(dup_fn), "error at line 2: duplicate function `a`");
        let parse_first = "fn a() { return; }\nfn a() { return }";
        assert!(message(parse_first).contains("line 2: expected expression"));
        let shadows_intrinsic = "fn free(p: int*) { return; }";
        assert_eq!(
            message(shadows_intrinsic),
            "error at line 1: duplicate function `free`"
        );
    }

    #[test]
    fn unterminated_bodies_fail_in_the_body_parser() {
        assert_eq!(
            message("fn a() { if (c) {"),
            "parse error at line 1: expected statement, found Eof"
        );
        assert_eq!(
            message("fn a() { } }"),
            "parse error at line 1: expected `fn` or `global`, found RBrace"
        );
    }

    #[test]
    fn counters_cover_the_whole_file() {
        let src = "global g: int; // a comment is no token\nfn main() { return; }";
        let unit = Unit::split(src).unwrap();
        assert_eq!(unit.bytes(), src.len());
        // global g : int ;  fn main ( ) { return ; }
        assert_eq!(unit.tokens(), 13);
        assert_eq!(unit.func_count(), 1);
        assert_eq!(unit.func_name(0), "main");
    }
}

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
//! An editor that kept a [`Snapshot`] of the unit of the previous text
//! ([`Unit::snapshot`]: the text and its item table) splits the next one
//! with [`Unit::resplit`], which lexes the edited byte range out to the
//! item boundaries around it and gives the unit [`Unit::split`] would.
//!
//! # What a function's lowering reads
//!
//! Its slice of the file ([`Unit::slice`]: the `fn` item from the keyword
//! to the closing brace) and the tables, which come from the globals
//! (name, type, order) and the function headers (name, parameter types,
//! return type, order) alone ([`Unit::tables_fingerprint`]). Source
//! positions reach only error messages, never the IR. So a slice whose
//! text and tables are those of an earlier, successful compile lowers to
//! the same function again, wherever in the file it now sits: an editor
//! that kept the earlier result can skip it ([`Unit::module`] assembles
//! a module from some functions lowered here and the rest brought in).
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

use crate::ast::FnHeader;
use crate::ir::{Function, Module};
use crate::lower::{self, LowerError, Tables};
use crate::parser::{self, ItemTable, ParseError};
use crate::types::Type;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

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
    items: ItemTable,
    /// Shared with the [`Snapshot`] this unit was re-split from when the
    /// edit left every declaration as it was.
    tables: Arc<Tables>,
    /// The functions whose items the split ran the productions over.
    window: Range<usize>,
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
        let tables = Arc::new(tables_of(src, &items)?);
        let window = 0..items.func_count();
        Ok(Unit {
            src,
            items,
            tables,
            window,
        })
    }

    /// [`Unit::split`] of `src`, an edit of the text `previous` is of,
    /// that lexes only around the edit: the items of `previous` that
    /// start before the first changed byte are kept, the item table is
    /// split again from the last of them up to the first item boundary
    /// the edit left where `previous` had one, and every item after that
    /// is kept, moved by what the edit added. When the items split again
    /// declare what the ones they replace did, the tables of `previous`
    /// (and their fingerprint) are kept too; otherwise they are built
    /// again. Also returns the number of bytes it lexed (the whole file
    /// when the re-split range holds an error: the error is then the one
    /// [`Unit::split`] reports).
    ///
    /// # Errors
    ///
    /// Those of [`Unit::split`].
    pub fn resplit(src: &'src str, previous: &Snapshot) -> Result<(Self, usize), CompileError> {
        let Ok(re) = parser::resplit(src, &previous.text, &previous.items) else {
            return Ok((Self::split(src)?, src.len()));
        };
        let tables = if re.table.same_declarations(
            src,
            re.kept..re.new_end,
            &previous.items,
            &previous.text,
            re.kept..re.old_end,
        ) {
            Arc::clone(&previous.tables)
        } else {
            Arc::new(tables_of(src, &re.table)?)
        };
        let unit = Unit {
            src,
            window: re.table.funcs_among(re.kept..re.new_end),
            items: re.table,
            tables,
        };
        Ok((unit, re.lexed.len()))
    }

    /// What [`Unit::resplit`] of an edit of this unit's text reads: the
    /// text, the item table in offset form and the tables. `text` is this
    /// unit's text, shared rather than copied.
    ///
    /// # Panics
    ///
    /// If `text` is not the text this unit was split from.
    pub fn snapshot(&self, text: Arc<String>) -> Snapshot {
        assert!(
            text.as_str() == self.src,
            "a snapshot keeps its unit's text"
        );
        Snapshot {
            text,
            items: self.items.clone(),
            tables: Arc::clone(&self.tables),
        }
    }

    /// [`Unit::snapshot`], moving the item table and the tables into it.
    /// `text` must be the text the unit borrows, which is not compared:
    /// the check is that the two are one string.
    ///
    /// # Panics
    ///
    /// If `text` is another string than the one the unit borrows.
    pub fn into_snapshot(self, text: Arc<String>) -> Snapshot {
        assert!(
            std::ptr::eq(text.as_str(), self.src),
            "a snapshot keeps its unit's text"
        );
        Snapshot {
            text,
            items: self.items,
            tables: self.tables,
        }
    }

    /// Number of functions; [`Unit::compile_fn`] takes `0..func_count()`.
    pub fn func_count(&self) -> usize {
        self.items.func_count()
    }

    /// Name of function `i`.
    pub fn func_name(&self, i: usize) -> &'src str {
        &self.src[self.items.func(i).name]
    }

    /// The functions whose items the split parsed: all of them after
    /// [`Unit::split`]. After [`Unit::resplit`] every function outside
    /// has the text of its item in the previous snapshot, at the same
    /// index when the [tables fingerprint](Unit::tables_fingerprint) is
    /// the previous one.
    pub fn window(&self) -> Range<usize> {
        self.window.clone()
    }

    /// Tokens in the file (end of input not counted).
    pub fn tokens(&self) -> usize {
        self.items.tokens()
    }

    /// Bytes of source text.
    pub fn bytes(&self) -> usize {
        self.src.len()
    }

    /// The text of function `i`: from its `fn` keyword to its body's
    /// closing brace.
    pub fn slice(&self, i: usize) -> &'src str {
        &self.src[self.items.func_range(i)]
    }

    /// A hash of everything lowering reads besides a function's own
    /// slice: each global's name and type and each function's name,
    /// parameter types and return type, in declaration order (a
    /// function's id is its position, and a call is checked against the
    /// callee's signature).
    pub fn tables_fingerprint(&self) -> u128 {
        self.tables.fingerprint()
    }

    /// Parses and lowers function `i`. The syntax tree of its body lives
    /// for the duration of this call.
    ///
    /// # Errors
    ///
    /// Returns the function's first parse error, or else its first
    /// lowering error.
    pub fn compile_fn(&self, i: usize) -> Result<Function, CompileError> {
        let f = self.items.func(i);
        let body = parser::parse_body(self.src, f.body_at)?;
        let names = f.param_names.iter().map(|r| &self.src[r.clone()]);
        let params: Vec<(&str, Type)> = names.zip(f.param_tys.iter().copied()).collect();
        let header = FnHeader {
            name: &self.src[f.name],
            params: &params,
            ret_ty: f.ret_ty,
            span: f.span,
        };
        Ok(lower::lower_fn(header, &body, &self.tables)?)
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
        if let Some(e) = first_error(&results) {
            return Err(e.clone());
        }
        // The tables are done with: give their memory back before the
        // module takes the functions over.
        drop(self.tables);
        let globals = self
            .items
            .globals()
            .map(|(name, ty, _)| (&self.src[name], ty));
        let mut module = lower::module_with_globals(globals, results.len());
        drop(self.items);
        for f in results.into_iter().flatten() {
            module.add_func(f);
        }
        Ok(module)
    }

    /// Assembles a module of this unit's globals and `funcs`, one per
    /// function in function order, whatever lowered them: the caller of
    /// [`Unit::compile_fn`] for some functions that brings the others
    /// from an earlier compile (see the [module docs](self)).
    ///
    /// # Panics
    ///
    /// Panics if `funcs` does not hold one function per item, or if a
    /// name repeats.
    pub fn module(&self, funcs: impl ExactSizeIterator<Item = Function>) -> Module {
        assert_eq!(funcs.len(), self.func_count(), "one function per item");
        let globals = self
            .items
            .globals()
            .map(|(name, ty, _)| (&self.src[name], ty));
        let mut module = lower::module_with_globals(globals, funcs.len());
        for f in funcs {
            module.add_func(f);
        }
        module
    }
}

/// The tables of `items`, the item table of `src`.
///
/// # Errors
///
/// A duplicate global or function, once every body has parsed (a parse
/// error in a body outranks it).
fn tables_of(src: &str, items: &ItemTable) -> Result<Tables, CompileError> {
    let globals = items
        .globals()
        .map(|(name, ty, span)| (&src[name], ty, span));
    let funcs = items.funcs().map(|f| {
        let params = f.param_tys.iter().copied();
        (&src[f.name], params, f.ret_ty, f.span)
    });
    Tables::build(globals, funcs).map_err(|duplicate| {
        // Names are checked once the whole file has parsed.
        match items
            .funcs()
            .find_map(|f| parser::parse_body(src, f.body_at).err())
        {
            Some(e) => e.into(),
            None => duplicate.into(),
        }
    })
}

/// A source text, its item table and its tables, kept apart from any
/// [`Unit`] ([`Unit::snapshot`]) so that an edit of the text can be split
/// against it ([`Unit::resplit`]). Two snapshots are equal when their
/// texts are and [`Unit::split`] of them made equal items and tables: the
/// same spans, lines, names, types, body starts and ends, token counts
/// and signatures.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    text: Arc<String>,
    items: ItemTable,
    tables: Arc<Tables>,
}

impl Snapshot {
    /// The text of function `i`, as [`Unit::slice`] gave it.
    pub fn slice(&self, i: usize) -> &str {
        &self.text[self.items.func_range(i)]
    }

    /// [`Unit::tables_fingerprint`] of the unit this is a snapshot of.
    pub fn tables_fingerprint(&self) -> u128 {
        self.tables.fingerprint()
    }
}

/// The error the whole-file pipeline reports among the outcomes of
/// [`Unit::compile_fn`] for some functions, in function order: the first
/// parse error, else the first lowering error. Functions left out must
/// be ones that compile.
pub fn first_error(results: &[Result<Function, CompileError>]) -> Option<&CompileError> {
    let mut lower_error = None;
    for e in results.iter().filter_map(|r| r.as_ref().err()) {
        match e {
            CompileError::Parse(_) => return Some(e),
            CompileError::Lower(_) => {
                lower_error.get_or_insert(e);
            }
        }
    }
    lower_error
}

/// Parses and lowers `src`, one function after the other.
///
/// # Errors
///
/// Returns the error the [module docs](self) single out.
///
/// # Examples
///
/// ```
/// let module = pinpoint_ir::compile("fn main() { return; }")?;
/// assert_eq!(module.funcs[0].name, "main");
/// let e = pinpoint_ir::compile("fn main() { return }").unwrap_err();
/// assert!(matches!(e, pinpoint_ir::CompileError::Parse(_)), "{e}");
/// # Ok::<(), pinpoint_ir::CompileError>(())
/// ```
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
    fn a_slice_runs_from_the_keyword_to_the_closing_brace() {
        let src = "global g: int;\nfn a(x: int) -> int { return x; } // tail\nfn b() { if (true) { return; } return; }";
        let unit = Unit::split(src).unwrap();
        assert_eq!(unit.slice(0), "fn a(x: int) -> int { return x; }");
        assert_eq!(unit.slice(1), "fn b() { if (true) { return; } return; }");
        // An unterminated body runs to the end of the file.
        let open = "fn a() { return; }\nfn b() { if (c) {";
        let unit = Unit::split(open).unwrap();
        assert_eq!(unit.slice(1), "fn b() { if (c) {");
    }

    #[test]
    fn a_function_lowers_alike_wherever_its_slice_sits() {
        let f = "fn f(p: int*) -> int { let x: int = *p; if (x > 0) { *stash = p; } return x; }";
        let a = format!("global stash: int*;\n{f}\nfn main() {{ return; }}");
        let b = format!(
            "global stash: int*;\n// moved\n\n\n{f}\nfn main() {{ let y: int = 1; print(y); return; }}"
        );
        let (ua, ub) = (Unit::split(&a).unwrap(), Unit::split(&b).unwrap());
        assert_eq!(ua.tables_fingerprint(), ub.tables_fingerprint());
        assert_eq!(ua.slice(0), ub.slice(0));
        assert_ne!(ua.slice(1), ub.slice(1));
        let (fa, fb) = (ua.compile_fn(0).unwrap(), ub.compile_fn(0).unwrap());
        assert_eq!(format!("{fa:?}"), format!("{fb:?}"));
        // The module assembled from per-function results is `compile`'s.
        let funcs = (0..ub.func_count()).map(|i| ub.compile_fn(i).unwrap());
        assert_eq!(
            format!("{:?}", ub.module(funcs).funcs),
            format!("{:?}", compile(&b).unwrap().funcs)
        );
    }

    #[test]
    fn the_tables_fingerprint_covers_globals_and_headers_only() {
        let fp = |src: &str| Unit::split(src).unwrap().tables_fingerprint();
        let base = "global g: int;\nfn a(x: int) -> int { return x; }\nfn b() { return; }";
        // Bodies and parameter names are in the slices.
        assert_eq!(
            fp(base),
            fp(&base.replace("{ return x;", "{ let y: int = x; return y;"))
        );
        assert_eq!(
            fp(base),
            fp(&base.replace("(x: int) -> int { return x;", "(z: int) -> int { return z;"))
        );
        for changed in [
            base.replace("g: int", "g: int*"),
            format!("global h: bool;\n{base}"),
            base.replace("x: int)", "x: int*)"),
            base.replace("-> int", "-> bool"),
            base.replace("fn b()", "fn c()"),
            format!("{base}\nfn c() {{ return; }}"),
            "global g: int;\nfn b() { return; }\nfn a(x: int) -> int { return x; }".to_string(),
        ] {
            assert_ne!(fp(base), fp(&changed), "{changed}");
        }
    }

    #[test]
    fn first_error_prefers_a_parse_error_in_any_later_function() {
        let src = "fn a() { x = 1; return; }\nfn b() { return; }\nfn c() { return }";
        let unit = Unit::split(src).unwrap();
        let results: Vec<_> = [0, 2].iter().map(|&i| unit.compile_fn(i)).collect();
        let e = first_error(&results).unwrap();
        assert_eq!(e.to_string(), message(src));
        assert!(first_error(&[unit.compile_fn(1)]).is_none());
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

//! Recursive-descent parser for the mini-language, in two steps.
//!
//! `split` makes one streaming pass over the file: it parses `global`
//! items and `fn` headers with the ordinary productions and steps over
//! each body by brace depth, leaving an item table (`Items`).
//! `parse_body` then parses one function's body from where the table
//! says it starts. Both run the same `Parser` over a two-token window
//! of the pull [`Lexer`]; no token vector of the file exists, and the
//! tree borrows its names from the source.
//!
//! `resplit` is `split` of an edited text that an earlier `split` left
//! an `ItemTable` for: it runs the same productions over the changed
//! byte range only (see its docs for why the result is `split`'s).

use crate::ast::{BinOpKind, Expr, FnHeader, FuncDef, GlobalDef, Program, Span, Stmt, UnOpKind};
use crate::lexer::{LexError, Lexer, Tok, Token};
use crate::types::Type;
use std::fmt;
use std::ops::Range;

/// Parse error.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable message.
    pub message: String,
    /// Where the error occurred.
    pub span: Span,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            span: e.span,
        }
    }
}

/// One `fn` item as [`split`] leaves it: the parsed header, where the
/// body starts, and where the item ends.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FuncItem<'src> {
    /// Function name.
    pub name: &'src str,
    /// Parameters: `(name, type)`.
    pub params: Vec<(&'src str, Type)>,
    /// Return type (`None` for procedures).
    pub ret_ty: Option<Type>,
    /// Location of the `fn` keyword.
    pub span: Span,
    /// Location of the body's opening brace ([`parse_body`] starts here).
    pub body_at: Span,
    /// Byte offset just past the body's closing brace (the end of input
    /// when the body is unterminated). `span.offset..end` is the item's
    /// text.
    pub end: usize,
}

impl<'src> FuncItem<'src> {
    /// The function's header.
    pub(crate) fn header(&self) -> FnHeader<'_, 'src> {
        FnHeader {
            name: self.name,
            params: &self.params,
            ret_ty: self.ret_ty,
            span: self.span,
        }
    }
}

/// The item table of one source file.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Items<'src> {
    /// Global declarations, in source order.
    pub globals: Vec<GlobalDef<'src>>,
    /// Function items, in source order.
    pub funcs: Vec<FuncItem<'src>>,
    /// Tokens in the file (end of input not counted).
    pub tokens: usize,
    /// The ordinal of each item's first token (the number of tokens
    /// before it), globals and functions together in source order.
    pub ordinals: Vec<usize>,
}

/// Splits `src` into its top-level items without parsing function bodies.
///
/// # Errors
///
/// The error the whole-file parse of `src` would report, when it lies
/// outside the function bodies of the returned table: the first lexing
/// error anywhere in the file; otherwise, when an item header is
/// malformed, the first parse error in file order, which is the error of
/// an earlier body if one fails to parse and the header's own otherwise.
/// `Ok` therefore promises that the whole file lexes and that every
/// remaining parse error is inside the body of a returned item.
pub(crate) fn split(src: &str) -> Result<Items<'_>, ParseError> {
    let mut items = Items::default();
    let mut p = Parser::at(src, Span { offset: 0, line: 1 })?;
    let malformed = loop {
        match p.item(&mut items) {
            Ok(true) => {}
            Ok(false) => break None,
            // A lexing error later in the file outranks a parse error
            // here. (When `e` itself came from the lexer, the lexer has
            // not moved past it and reports it again.)
            Err(e) => {
                p.lexer.drain()?;
                break Some(e);
            }
        }
    };
    if let Some(e) = malformed {
        // Held back until the bodies before it have parsed: one of them
        // failing is the earlier error.
        for item in &items.funcs {
            parse_body(src, item)?;
        }
        return Err(e);
    }
    items.tokens = p.lexer.tokens();
    Ok(items)
}

/// Parses the body of one function item of `src`'s table.
///
/// # Errors
///
/// Returns the first parse error inside the body.
pub(crate) fn parse_body<'src>(
    src: &'src str,
    item: &FuncItem<'src>,
) -> Result<Vec<Stmt<'src>>, ParseError> {
    Parser::at(src, item.body_at)?.block()
}

/// An item table in offset form: what [`Items`] says of a text, with
/// every name a byte range of it instead of a borrow, so that the table
/// outlives the text and carries over to an edit of it ([`resplit`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ItemTable {
    /// Globals and functions together, in source order.
    items: Vec<Item>,
    /// Every function's parameters back to back: name and type.
    params: Vec<(Range<usize>, Type)>,
    /// The position in [`ItemTable::items`] of each function.
    funcs: Vec<usize>,
    /// Tokens in the text (end of input not counted).
    tokens: usize,
}

/// One entry of an [`ItemTable`].
#[derive(Debug, Clone, PartialEq)]
struct Item {
    /// Location of the item's keyword.
    span: Span,
    /// The number of tokens before the keyword.
    ordinal: usize,
    name: Range<usize>,
    kind: ItemKind,
}

#[derive(Debug, Clone, PartialEq)]
enum ItemKind {
    /// A global and its content type.
    Global(Type),
    /// A function: its parameters (a range of [`ItemTable::params`]) and
    /// the rest of its [`FuncItem`].
    Fn {
        params: Range<usize>,
        ret_ty: Option<Type>,
        body_at: Span,
        end: usize,
    },
}

/// How far the items after an edit moved: the byte, line and token
/// counts the edit added (negative when it removed).
#[derive(Debug, Clone, Copy, Default)]
struct Shift {
    bytes: isize,
    lines: isize,
    tokens: isize,
}

impl Shift {
    fn offset(self, at: usize) -> usize {
        at.wrapping_add_signed(self.bytes)
    }

    fn span(self, span: Span) -> Span {
        Span {
            offset: self.offset(span.offset),
            line: span.line.wrapping_add_signed(self.lines),
        }
    }

    fn range(self, r: &Range<usize>) -> Range<usize> {
        self.offset(r.start)..self.offset(r.end)
    }
}

impl ItemTable {
    /// Makes this the offset form of `items`, the table of `src`, reusing
    /// its memory.
    pub(crate) fn fill(&mut self, src: &str, items: &Items<'_>) {
        // Every name is a slice of `src`, so its place is its address.
        let range = |name: &str| {
            let at = name.as_ptr() as usize - src.as_ptr() as usize;
            debug_assert_eq!(&src[at..at + name.len()], name);
            at..at + name.len()
        };
        self.items.clear();
        self.params.clear();
        self.funcs.clear();
        self.tokens = items.tokens;
        let (mut globals, mut funcs) = (items.globals.iter().peekable(), items.funcs.iter());
        for &ordinal in &items.ordinals {
            let next_fn = funcs.as_slice().first().map(|f| f.span.offset);
            let item = match globals.next_if(|g| next_fn.is_none_or(|f| g.span.offset < f)) {
                Some(g) => Item {
                    span: g.span,
                    ordinal,
                    name: range(g.name),
                    kind: ItemKind::Global(g.ty),
                },
                None => {
                    let f = funcs.next().expect("one ordinal per item");
                    let start = self.params.len();
                    self.params
                        .extend(f.params.iter().map(|&(name, ty)| (range(name), ty)));
                    self.funcs.push(self.items.len());
                    Item {
                        span: f.span,
                        ordinal,
                        name: range(f.name),
                        kind: ItemKind::Fn {
                            params: start..self.params.len(),
                            ret_ty: f.ret_ty,
                            body_at: f.body_at,
                            end: f.end,
                        },
                    }
                }
            };
            self.items.push(item);
        }
    }

    /// Number of functions.
    pub(crate) fn func_count(&self) -> usize {
        self.funcs.len()
    }

    /// The byte range of function `i`'s item, as [`FuncItem`] gives it.
    pub(crate) fn func_range(&self, i: usize) -> Range<usize> {
        let item = &self.items[self.funcs[i]];
        match item.kind {
            ItemKind::Fn { end, .. } => item.span.offset..end,
            ItemKind::Global(_) => unreachable!("`funcs` holds functions"),
        }
    }

    /// Appends item `i`, moved by `shift`, to `items`, its names
    /// borrowed from `src`.
    fn push_to<'src>(&self, i: usize, shift: Shift, src: &'src str, items: &mut Items<'src>) {
        let item = &self.items[i];
        let name = &src[shift.range(&item.name)];
        let span = shift.span(item.span);
        match &item.kind {
            &ItemKind::Global(ty) => items.globals.push(GlobalDef { name, ty, span }),
            ItemKind::Fn {
                params,
                ret_ty,
                body_at,
                end,
            } => items.funcs.push(FuncItem {
                name,
                params: self.params[params.clone()]
                    .iter()
                    .map(|(name, ty)| (&src[shift.range(name)], *ty))
                    .collect(),
                ret_ty: *ret_ty,
                span,
                body_at: shift.span(*body_at),
                end: shift.offset(*end),
            }),
        }
        items
            .ordinals
            .push(item.ordinal.wrapping_add_signed(shift.tokens));
    }
}

/// [`split`] of `src`, an edit of `old_src` whose [`split`] gave `old`,
/// lexing only around the edit; also returns the byte range of `src` it
/// ran the productions over.
///
/// Let `src` and `old_src` share their first `prefix` and their last
/// `suffix` bytes (the two may overlap). The old items that start at or
/// before byte `prefix` reached their keywords through equal text, so
/// [`split`] of `src` reaches them too: all of them but the last are kept
/// as they are, and the productions re-run from the last one (or from the
/// start of the file). A top-level item start is a token boundary at
/// which the lexer carries no state but its position and line, and the
/// parser none but the table it appends to; so when the re-run reaches
/// one inside the shared suffix where an old item started, [`split`] of
/// the rest of `src` is that of the rest of `old_src`, which succeeded:
/// every old item from there on is kept, moved by the byte, line and
/// token counts the edit added. Without such a resync the productions run
/// to the end of the file.
///
/// # Errors
///
/// The first error of the productions over the re-run range. It need not
/// be the one [`split`] of `src` reports (a later lexing error outranks a
/// malformed header); the caller asks [`split`] for that.
pub(crate) fn resplit<'src>(
    src: &'src str,
    old_src: &str,
    old: &ItemTable,
) -> Result<(Items<'src>, Range<usize>), ParseError> {
    let (new, prev) = (src.as_bytes(), old_src.as_bytes());
    let prefix = common_prefix(new, prev);
    let suffix = common_suffix(new, prev);
    let bytes = src.len() as isize - old_src.len() as isize;
    let (kept, start, base) = match old
        .items
        .partition_point(|it| it.span.offset <= prefix)
        .checked_sub(1)
    {
        Some(k) => (k, old.items[k].span, old.items[k].ordinal),
        None => (0, Span { offset: 0, line: 1 }, 0),
    };
    let mut items = Items::default();
    for i in 0..kept {
        old.push_to(i, Shift::default(), src, &mut items);
    }
    let mut p = Parser::at(src, start)?;
    let shared_from = src.len() - suffix;
    let resync = loop {
        let at = p.span();
        if at.offset >= shared_from {
            let old_at = at.offset.wrapping_add_signed(-bytes);
            if let Ok(r) = old.items[kept..].binary_search_by_key(&old_at, |it| it.span.offset) {
                break Some((kept + r, at));
            }
        }
        if !p.item(&mut items)? {
            break None;
        }
    };
    for ordinal in &mut items.ordinals[kept..] {
        *ordinal += base;
    }
    let end = match resync {
        Some((r, at)) => {
            let first = &old.items[r];
            let shift = Shift {
                bytes,
                lines: at.line as isize - first.span.line as isize,
                tokens: (base + p.ordinal()) as isize - first.ordinal as isize,
            };
            for i in r..old.items.len() {
                old.push_to(i, shift, src, &mut items);
            }
            items.tokens = old.tokens.wrapping_add_signed(shift.tokens);
            at.offset
        }
        None => {
            items.tokens = base + p.lexer.tokens();
            src.len()
        }
    };
    Ok((items, start.offset..end))
}

/// Bytes compared at a time by [`common_prefix`] and [`common_suffix`].
const BLOCK: usize = 256;

/// The length of the longest common prefix of `a` and `b`.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i + BLOCK <= n && a[i..i + BLOCK] == b[i..i + BLOCK] {
        i += BLOCK;
    }
    i + a[i..n]
        .iter()
        .zip(&b[i..n])
        .take_while(|(x, y)| x == y)
        .count()
}

/// The length of the longest common suffix of `a` and `b`.
fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let (a, b) = (&a[a.len() - n..], &b[b.len() - n..]);
    let mut i = n;
    while i >= BLOCK && a[i - BLOCK..i] == b[i - BLOCK..i] {
        i -= BLOCK;
    }
    let tail = a[..i].iter().rev().zip(b[..i].iter().rev());
    n - i + tail.take_while(|(x, y)| x == y).count()
}

/// Parses a whole program.
///
/// # Errors
///
/// Returns the first lexing or parsing error encountered.
///
/// # Examples
///
/// ```
/// let src = "fn main() { let x: int = 1; return; }";
/// let program = pinpoint_ir::parser::parse(src)?;
/// assert_eq!(program.funcs.len(), 1);
/// assert_eq!(program.funcs[0].name, "main");
/// # Ok::<(), pinpoint_ir::parser::ParseError>(())
/// ```
pub fn parse(src: &str) -> Result<Program<'_>, ParseError> {
    let items = split(src)?;
    let mut funcs = Vec::with_capacity(items.funcs.len());
    for item in items.funcs {
        let body = parse_body(src, &item)?;
        funcs.push(FuncDef {
            name: item.name,
            params: item.params,
            ret_ty: item.ret_ty,
            body,
            span: item.span,
        });
    }
    Ok(Program {
        globals: items.globals,
        funcs,
    })
}

/// Maximum statement/expression nesting depth. The parser is recursive
/// descent, so without a bound a hostile input like `((((…))))` would
/// overflow the stack; past this depth it returns a [`ParseError`]
/// instead. Far above anything a real program needs, while keeping the
/// worst-case stack usage (each level costs several unoptimized frames,
/// statement nesting the most) inside a 2 MiB test-thread stack.
const MAX_NESTING_DEPTH: usize = 128;

/// The productions, over a two-token window (`cur`, `next`) of the lexer.
struct Parser<'src> {
    lexer: Lexer<'src>,
    cur: Token<'src>,
    next: Token<'src>,
    depth: usize,
}

impl<'src> Parser<'src> {
    /// A parser whose current token is the one at `start`.
    fn at(src: &'src str, start: Span) -> Result<Self, ParseError> {
        let mut lexer = Lexer::at(src, start);
        let cur = lexer.next_token()?;
        let next = lexer.next_token()?;
        Ok(Parser {
            lexer,
            cur,
            next,
            depth: 0,
        })
    }

    fn peek(&self) -> Tok<'src> {
        self.cur.tok
    }

    fn span(&self) -> Span {
        self.cur.span
    }

    /// Consumes the current token. End of input is never consumed: the
    /// lexer keeps answering with it.
    fn bump(&mut self) -> Result<Tok<'src>, ParseError> {
        let t = self.cur.tok;
        self.cur = self.next;
        self.next = self.lexer.next_token()?;
        Ok(t)
    }

    fn expect(&mut self, want: Tok<'src>) -> Result<(), ParseError> {
        if self.peek() == want {
            self.bump()?;
            Ok(())
        } else {
            Err(self.error(format!("expected {want}, found {}", self.peek())))
        }
    }

    fn error(&self, message: String) -> ParseError {
        ParseError {
            message,
            span: self.span(),
        }
    }

    /// Bumps the recursion depth, failing once the input nests deeper
    /// than [`MAX_NESTING_DEPTH`]. Every recursive production calls this
    /// on entry and [`Parser::leave`] on exit.
    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_NESTING_DEPTH {
            Err(self.error(format!(
                "nesting too deep (more than {MAX_NESTING_DEPTH} levels)"
            )))
        } else {
            Ok(())
        }
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn ident(&mut self) -> Result<&'src str, ParseError> {
        match self.peek() {
            Tok::Ident(s) => {
                self.bump()?;
                Ok(s)
            }
            other => Err(self.error(format!("expected identifier, found {other}"))),
        }
    }

    /// The number of tokens this parser's lexer produced before the
    /// current one.
    fn ordinal(&self) -> usize {
        let lexed = |t: Token<'_>| usize::from(t.tok != Tok::Eof);
        self.lexer.tokens() - lexed(self.cur) - lexed(self.next)
    }

    /// Parses the next top-level item into `items`; `false` at end of
    /// input.
    fn item(&mut self, items: &mut Items<'src>) -> Result<bool, ParseError> {
        let ordinal = self.ordinal();
        match self.peek() {
            Tok::Eof => return Ok(false),
            Tok::Global => items.globals.push(self.global()?),
            Tok::Fn => items.funcs.push(self.func_item()?),
            other => return Err(self.error(format!("expected `fn` or `global`, found {other}"))),
        }
        items.ordinals.push(ordinal);
        Ok(true)
    }

    fn global(&mut self) -> Result<GlobalDef<'src>, ParseError> {
        let span = self.span();
        self.expect(Tok::Global)?;
        let name = self.ident()?;
        self.expect(Tok::Colon)?;
        let ty = self.ty()?;
        self.expect(Tok::Semi)?;
        Ok(GlobalDef { name, ty, span })
    }

    /// A function header, then its body stepped over.
    fn func_item(&mut self) -> Result<FuncItem<'src>, ParseError> {
        let span = self.span();
        self.expect(Tok::Fn)?;
        let name = self.ident()?;
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if self.peek() != Tok::RParen {
            loop {
                let pname = self.ident()?;
                self.expect(Tok::Colon)?;
                let ty = self.ty()?;
                params.push((pname, ty));
                if self.peek() == Tok::Comma {
                    self.bump()?;
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        let ret_ty = if self.peek() == Tok::Arrow {
            self.bump()?;
            Some(self.ty()?)
        } else {
            None
        };
        let body_at = self.span();
        self.expect(Tok::LBrace)?;
        let end = self.skip_block()?;
        Ok(FuncItem {
            name,
            params,
            ret_ty,
            span,
            body_at,
            end,
        })
    }

    /// Steps over the rest of a block whose `{` was just consumed, to
    /// the token after the matching `}`, and returns the byte offset just
    /// past that `}`. A loop, not a recursion: input nesting costs no
    /// stack here. Braces are only ever consumed by [`Parser::block`], so
    /// where the body parses at all this is where its parse ends; end of
    /// input first means the body cannot parse, and [`parse_body`] says
    /// why.
    fn skip_block(&mut self) -> Result<usize, ParseError> {
        let mut open = 1usize;
        loop {
            let at = self.span().offset;
            match self.bump()? {
                Tok::LBrace => open += 1,
                Tok::RBrace => {
                    open -= 1;
                    if open == 0 {
                        return Ok(at + 1);
                    }
                }
                Tok::Eof => return Ok(at),
                _ => {}
            }
        }
    }

    fn ty(&mut self) -> Result<Type, ParseError> {
        let mut base = match self.bump()? {
            Tok::TyInt => Type::Int,
            Tok::TyBool => Type::Bool,
            other => return Err(self.error(format!("expected type, found {other}"))),
        };
        while self.peek() == Tok::Star {
            self.bump()?;
            base = base.ptr_to();
        }
        Ok(base)
    }

    fn block(&mut self) -> Result<Vec<Stmt<'src>>, ParseError> {
        self.expect(Tok::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != Tok::RBrace {
            stmts.push(self.stmt()?);
        }
        self.expect(Tok::RBrace)?;
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt<'src>, ParseError> {
        self.enter()?;
        let result = self.stmt_inner();
        self.leave();
        result
    }

    fn stmt_inner(&mut self) -> Result<Stmt<'src>, ParseError> {
        let span = self.span();
        match self.peek() {
            Tok::Let => {
                self.bump()?;
                let name = self.ident()?;
                self.expect(Tok::Colon)?;
                let ty = self.ty()?;
                self.expect(Tok::Assign)?;
                let init = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Let {
                    name,
                    ty,
                    init,
                    span,
                })
            }
            Tok::If => {
                self.bump()?;
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let then_body = self.block()?;
                let else_body = if self.peek() == Tok::Else {
                    self.bump()?;
                    if self.peek() == Tok::If {
                        vec![self.stmt()?]
                    } else {
                        self.block()?
                    }
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    span,
                })
            }
            Tok::While => {
                self.bump()?;
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let body = self.block()?;
                Ok(Stmt::While { cond, body, span })
            }
            Tok::Return => {
                self.bump()?;
                if self.peek() == Tok::Semi {
                    self.bump()?;
                    Ok(Stmt::Return(None, span))
                } else {
                    let e = self.expr()?;
                    self.expect(Tok::Semi)?;
                    Ok(Stmt::Return(Some(e), span))
                }
            }
            Tok::Star => {
                // Store: one or more `*` then a primary expr, `=`, value.
                let mut depth = 0u32;
                while self.peek() == Tok::Star {
                    self.bump()?;
                    depth += 1;
                }
                let ptr = self.primary()?;
                self.expect(Tok::Assign)?;
                let value = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Store {
                    ptr,
                    depth,
                    value,
                    span,
                })
            }
            Tok::Ident(name) => {
                // Assignment or expression statement (call).
                if self.next.tok == Tok::Assign {
                    self.bump()?;
                    self.bump()?;
                    let value = self.expr()?;
                    self.expect(Tok::Semi)?;
                    Ok(Stmt::Assign { name, value, span })
                } else {
                    let e = self.expr()?;
                    self.expect(Tok::Semi)?;
                    Ok(Stmt::Expr(e))
                }
            }
            other => Err(self.error(format!("expected statement, found {other}"))),
        }
    }

    // Precedence climbing: or < and < cmp < add < mul < unary < primary.
    fn expr(&mut self) -> Result<Expr<'src>, ParseError> {
        self.enter()?;
        let result = self.or_expr();
        self.leave();
        result
    }

    fn or_expr(&mut self) -> Result<Expr<'src>, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.peek() == Tok::OrOr {
            let span = self.span();
            self.bump()?;
            let rhs = self.and_expr()?;
            lhs = Expr::Bin(BinOpKind::Or, Box::new(lhs), Box::new(rhs), span);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr<'src>, ParseError> {
        let mut lhs = self.cmp_expr()?;
        while self.peek() == Tok::AndAnd {
            let span = self.span();
            self.bump()?;
            let rhs = self.cmp_expr()?;
            lhs = Expr::Bin(BinOpKind::And, Box::new(lhs), Box::new(rhs), span);
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr<'src>, ParseError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Tok::EqEq => Some(BinOpKind::Eq),
            Tok::NotEq => Some(BinOpKind::Ne),
            Tok::Lt => Some(BinOpKind::Lt),
            Tok::Le => Some(BinOpKind::Le),
            Tok::Gt => Some(BinOpKind::Gt),
            Tok::Ge => Some(BinOpKind::Ge),
            _ => None,
        };
        if let Some(op) = op {
            let span = self.span();
            self.bump()?;
            let rhs = self.add_expr()?;
            Ok(Expr::Bin(op, Box::new(lhs), Box::new(rhs), span))
        } else {
            Ok(lhs)
        }
    }

    fn add_expr(&mut self) -> Result<Expr<'src>, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOpKind::Add,
                Tok::Minus => BinOpKind::Sub,
                _ => break,
            };
            let span = self.span();
            self.bump()?;
            let rhs = self.mul_expr()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs), span);
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr<'src>, ParseError> {
        let mut lhs = self.unary()?;
        while self.peek() == Tok::Star {
            let span = self.span();
            self.bump()?;
            let rhs = self.unary()?;
            lhs = Expr::Bin(BinOpKind::Mul, Box::new(lhs), Box::new(rhs), span);
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr<'src>, ParseError> {
        self.enter()?;
        let result = self.unary_inner();
        self.leave();
        result
    }

    fn unary_inner(&mut self) -> Result<Expr<'src>, ParseError> {
        let span = self.span();
        match self.peek() {
            Tok::Minus => {
                self.bump()?;
                let e = self.unary()?;
                Ok(Expr::Un(UnOpKind::Neg, Box::new(e), span))
            }
            Tok::Bang => {
                self.bump()?;
                let e = self.unary()?;
                Ok(Expr::Un(UnOpKind::Not, Box::new(e), span))
            }
            Tok::Star => {
                self.bump()?;
                let e = self.unary()?;
                Ok(Expr::Deref(Box::new(e), span))
            }
            _ => self.primary(),
        }
    }

    fn primary(&mut self) -> Result<Expr<'src>, ParseError> {
        let span = self.span();
        match self.bump()? {
            Tok::Int(v) => Ok(Expr::Int(v)),
            Tok::True => Ok(Expr::Bool(true)),
            Tok::False => Ok(Expr::Bool(false)),
            Tok::Null => Ok(Expr::Null),
            Tok::Malloc => {
                self.expect(Tok::LParen)?;
                self.expect(Tok::RParen)?;
                Ok(Expr::Malloc(span))
            }
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) => {
                if self.peek() == Tok::LParen {
                    self.bump()?;
                    let mut args = Vec::new();
                    if self.peek() != Tok::RParen {
                        loop {
                            args.push(self.expr()?);
                            if self.peek() == Tok::Comma {
                                self.bump()?;
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(Tok::RParen)?;
                    Ok(Expr::Call(name, args, span))
                } else {
                    Ok(Expr::Var(name, span))
                }
            }
            other => Err(ParseError {
                message: format!("expected expression, found {other}"),
                span,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure1_bar() {
        let src = r#"
            global gb: int*;
            fn bar(q: int**) {
                let c: int* = malloc();
                if (*q != null) {
                    *q = c;
                    free(c);
                } else {
                    if (nondet_bool()) { *q = gb; }
                }
                return;
            }
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.globals.len(), 1);
        assert_eq!(p.funcs.len(), 1);
        let f = &p.funcs[0];
        assert_eq!(f.name, "bar");
        assert_eq!(f.params.len(), 1);
        assert_eq!(f.params[0].1, Type::int_ptr(2));
        assert_eq!(f.body.len(), 3);
    }

    #[test]
    fn parses_nested_deref_store() {
        let src = "fn f(p: int**) { **p = 3; return; }";
        let prog = parse(src).unwrap();
        match &prog.funcs[0].body[0] {
            Stmt::Store { depth, .. } => assert_eq!(*depth, 2),
            other => panic!("expected store, got {other:?}"),
        }
    }

    #[test]
    fn operator_precedence() {
        let src = "fn f() -> int { return 1 + 2 * 3; }";
        let prog = parse(src).unwrap();
        match &prog.funcs[0].body[0] {
            Stmt::Return(Some(Expr::Bin(BinOpKind::Add, _, rhs, _)), _) => {
                assert!(matches!(**rhs, Expr::Bin(BinOpKind::Mul, ..)));
            }
            other => panic!("expected return of addition, got {other:?}"),
        }
    }

    #[test]
    fn logical_precedence() {
        // a || b && c parses as a || (b && c).
        let src = "fn f(a: bool, b: bool, c: bool) -> bool { return a || b && c; }";
        let prog = parse(src).unwrap();
        match &prog.funcs[0].body[0] {
            Stmt::Return(Some(Expr::Bin(BinOpKind::Or, _, rhs, _)), _) => {
                assert!(matches!(**rhs, Expr::Bin(BinOpKind::And, ..)));
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn else_if_chains() {
        let src = "fn f(a: bool, b: bool) { if (a) {} else if (b) {} else {} return; }";
        let prog = parse(src).unwrap();
        match &prog.funcs[0].body[0] {
            Stmt::If { else_body, .. } => {
                assert_eq!(else_body.len(), 1);
                assert!(matches!(else_body[0], Stmt::If { .. }));
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn while_loops_parse() {
        let src = "fn f(n: int) { let i: int = 0; while (i < n) { i = i + 1; } return; }";
        let prog = parse(src).unwrap();
        assert!(matches!(prog.funcs[0].body[1], Stmt::While { .. }));
    }

    #[test]
    fn call_statement_and_expression() {
        let src = "fn f(p: int*) -> int* { free(p); let x: int* = qux(p, 3); return x; }";
        let prog = parse(src).unwrap();
        assert!(matches!(prog.funcs[0].body[0], Stmt::Expr(Expr::Call(..))));
    }

    #[test]
    fn error_on_missing_semicolon() {
        let src = "fn f() { let x: int = 1 return; }";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("expected"), "{}", err);
    }

    #[test]
    fn error_reports_line() {
        let src = "fn f() {\n  let x: int = @;\n}";
        let err = parse(src).unwrap_err();
        assert_eq!(err.span.line, 2);
    }

    #[test]
    fn unary_chains() {
        let src = "fn f(p: int**) -> int { return -**p; }";
        let prog = parse(src).unwrap();
        match &prog.funcs[0].body[0] {
            Stmt::Return(Some(Expr::Un(UnOpKind::Neg, inner, _)), _) => {
                assert!(matches!(**inner, Expr::Deref(..)));
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn deep_paren_nesting_errors_instead_of_overflowing() {
        let src = format!(
            "fn f() -> int {{ return {}1{}; }}",
            "(".repeat(10_000),
            ")".repeat(10_000)
        );
        let err = parse(&src).unwrap_err();
        assert!(err.message.contains("nesting too deep"), "{err}");
    }

    #[test]
    fn deep_unary_nesting_errors_instead_of_overflowing() {
        let src = format!("fn f() -> int {{ return {}1; }}", "-".repeat(10_000));
        let err = parse(&src).unwrap_err();
        assert!(err.message.contains("nesting too deep"), "{err}");
    }

    #[test]
    fn deep_statement_nesting_errors_instead_of_overflowing() {
        let mut src = String::from("fn f(c: bool) {\n");
        for _ in 0..10_000 {
            src.push_str("if (c) {\n");
        }
        src.push_str(&"}\n".repeat(10_000));
        src.push_str("return;\n}");
        let err = parse(&src).unwrap_err();
        assert!(err.message.contains("nesting too deep"), "{err}");
    }

    #[test]
    fn reasonable_nesting_still_parses() {
        // Each paren level passes through both the expr and the unary
        // guard, so 50 levels consume 100 of the 128-deep budget.
        let src = format!(
            "fn f() -> int {{ return {}1{}; }}",
            "(".repeat(50),
            ")".repeat(50)
        );
        assert!(parse(&src).is_ok());
    }
}

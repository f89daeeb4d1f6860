//! Recursive-descent parser for the mini-language, in two steps.
//!
//! `split` makes one streaming pass over the file: it parses `global`
//! items and `fn` headers with the ordinary productions and steps over
//! each body by brace depth, leaving an item table (`ItemTable`, names
//! as byte ranges). `parse_body` then parses one function's body from
//! where the table says it starts. Both run the same `Parser` over a two-token window
//! of the pull [`Lexer`]; no token vector of the file exists, and the
//! tree borrows its names from the source.
//!
//! `resplit` is `split` of an edited text that an earlier `split` left
//! an `ItemTable` for: it runs the same productions over the changed
//! byte range only (see its docs for why the result is `split`'s).

use crate::ast::{BinOpKind, Expr, Span, Stmt, UnOpKind};
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
pub(crate) fn split(src: &str) -> Result<ItemTable, ParseError> {
    let mut table = ItemTable::default();
    let mut p = Parser::at(src, Span { offset: 0, line: 1 })?;
    let malformed = loop {
        match p.item(&mut table) {
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
        for i in 0..table.func_count() {
            parse_body(src, table.func(i).body_at)?;
        }
        return Err(e);
    }
    table.tokens = p.lexer.tokens();
    Ok(table)
}

/// Parses the body of a function of `src` whose opening brace is at
/// `body_at` ([`FuncEntry::body_at`]).
///
/// # Errors
///
/// Returns the first parse error inside the body.
pub(crate) fn parse_body(src: &str, body_at: Span) -> Result<Vec<Stmt<'_>>, ParseError> {
    Parser::at(src, body_at)?.block()
}

/// The item table of a text: where each top-level item is and what its
/// header says, with every name a byte range of the text instead of a
/// borrow, so that the table outlives the text and carries over to an
/// edit of it ([`resplit`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ItemTable {
    /// Globals and functions together, in source order.
    items: Vec<Item>,
    /// Every function's parameter names, back to back.
    param_names: Vec<Range<usize>>,
    /// Their types, alongside.
    param_tys: Vec<Type>,
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
    /// A function: its parameters (a range of the table's parameter
    /// lists) and the rest of its [`FuncEntry`].
    Fn {
        params: Range<usize>,
        ret_ty: Option<Type>,
        body_at: Span,
        end: usize,
    },
}

/// One function of an [`ItemTable`], its names byte ranges of the text.
#[derive(Debug, Clone)]
pub(crate) struct FuncEntry<'t> {
    pub name: Range<usize>,
    /// Parameter names.
    pub param_names: &'t [Range<usize>],
    /// Parameter types.
    pub param_tys: &'t [Type],
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
    /// Number of functions.
    pub(crate) fn func_count(&self) -> usize {
        self.funcs.len()
    }

    /// Tokens in the text (end of input not counted).
    pub(crate) fn tokens(&self) -> usize {
        self.tokens
    }

    /// Function `i`.
    pub(crate) fn func(&self, i: usize) -> FuncEntry<'_> {
        let item = &self.items[self.funcs[i]];
        match &item.kind {
            ItemKind::Fn {
                params,
                ret_ty,
                body_at,
                end,
            } => FuncEntry {
                name: item.name.clone(),
                param_names: &self.param_names[params.clone()],
                param_tys: &self.param_tys[params.clone()],
                ret_ty: *ret_ty,
                span: item.span,
                body_at: *body_at,
                end: *end,
            },
            ItemKind::Global(_) => unreachable!("`funcs` holds functions"),
        }
    }

    /// The byte range of function `i`'s item: from its `fn` keyword to
    /// its body's closing brace.
    pub(crate) fn func_range(&self, i: usize) -> Range<usize> {
        let f = self.func(i);
        f.span.offset..f.end
    }

    /// Every function, in source order.
    pub(crate) fn funcs(&self) -> impl ExactSizeIterator<Item = FuncEntry<'_>> + '_ {
        (0..self.func_count()).map(|i| self.func(i))
    }

    /// Every global in source order: name, content type and location.
    pub(crate) fn globals(&self) -> impl Iterator<Item = (Range<usize>, Type, Span)> + '_ {
        self.items.iter().filter_map(|item| match item.kind {
            ItemKind::Global(ty) => Some((item.name.clone(), ty, item.span)),
            ItemKind::Fn { .. } => None,
        })
    }

    /// The functions among items `items` (positions in source order),
    /// as a range of function indices.
    pub(crate) fn funcs_among(&self, items: Range<usize>) -> Range<usize> {
        let at = |i: usize| self.funcs.partition_point(|&p| p < i);
        at(items.start)..at(items.end)
    }

    /// Whether items `mine` of this table, of text `src`, declare what
    /// items `theirs` of `other`, of text `other_src`, do as far as the
    /// tables lowering reads go: the same kinds in the same order, the
    /// same names, global types, parameter types and return types.
    /// Parameter names, places and bodies may differ.
    pub(crate) fn same_declarations(
        &self,
        src: &str,
        mine: Range<usize>,
        other: &ItemTable,
        other_src: &str,
        theirs: Range<usize>,
    ) -> bool {
        mine.len() == theirs.len()
            && self.items[mine]
                .iter()
                .zip(&other.items[theirs])
                .all(|(a, b)| {
                    src[a.name.clone()] == other_src[b.name.clone()]
                        && match (&a.kind, &b.kind) {
                            (ItemKind::Global(x), ItemKind::Global(y)) => x == y,
                            (
                                ItemKind::Fn {
                                    params: p,
                                    ret_ty: r,
                                    ..
                                },
                                ItemKind::Fn {
                                    params: q,
                                    ret_ty: t,
                                    ..
                                },
                            ) => r == t && self.param_tys[p.clone()] == other.param_tys[q.clone()],
                            _ => false,
                        }
                })
    }

    /// Appends a parsed item.
    fn push(&mut self, item: Item) {
        if matches!(item.kind, ItemKind::Fn { .. }) {
            self.funcs.push(self.items.len());
        }
        self.items.push(item);
    }

    /// Appends items `range` of `old`, moved by `shift`, with their
    /// parameter lists.
    fn extend_from(&mut self, old: &ItemTable, range: Range<usize>, shift: Shift) {
        for item in &old.items[range] {
            let kind = match &item.kind {
                &ItemKind::Global(ty) => ItemKind::Global(ty),
                ItemKind::Fn {
                    params,
                    ret_ty,
                    body_at,
                    end,
                } => {
                    let start = self.param_tys.len();
                    let names = old.param_names[params.clone()].iter();
                    self.param_names.extend(names.map(|r| shift.range(r)));
                    self.param_tys
                        .extend_from_slice(&old.param_tys[params.clone()]);
                    ItemKind::Fn {
                        params: start..self.param_tys.len(),
                        ret_ty: *ret_ty,
                        body_at: shift.span(*body_at),
                        end: shift.offset(*end),
                    }
                }
            };
            self.push(Item {
                span: shift.span(item.span),
                ordinal: item.ordinal.wrapping_add_signed(shift.tokens),
                name: shift.range(&item.name),
                kind,
            });
        }
    }
}

/// What [`resplit`] made of an edit: the new text's item table, and
/// where it differs from the old one.
#[derive(Debug)]
pub(crate) struct Resplit {
    /// The item table of the new text.
    pub table: ItemTable,
    /// The byte range of the new text the productions ran over.
    pub lexed: Range<usize>,
    /// Items `kept..new_end` of [`Resplit::table`] came from the
    /// productions and stand where items `kept..old_end` of the old
    /// table stood; every other item is an old one, moved.
    pub kept: usize,
    /// See [`Resplit::kept`].
    pub old_end: usize,
    /// See [`Resplit::kept`].
    pub new_end: usize,
}

/// [`split`] of `src`, an edit of `old_src` whose [`split`] gave `old`,
/// lexing only around the edit.
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
pub(crate) fn resplit(src: &str, old_src: &str, old: &ItemTable) -> Result<Resplit, ParseError> {
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
    let mut table = ItemTable::default();
    table.extend_from(old, 0..kept, Shift::default());
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
        if !p.item(&mut table)? {
            break None;
        }
    };
    for item in &mut table.items[kept..] {
        item.ordinal += base;
    }
    let new_end = table.items.len();
    let (old_end, end) = match resync {
        Some((r, at)) => {
            let first = &old.items[r];
            let shift = Shift {
                bytes,
                lines: at.line as isize - first.span.line as isize,
                tokens: (base + p.ordinal()) as isize - first.ordinal as isize,
            };
            table.extend_from(old, r..old.items.len(), shift);
            table.tokens = old.tokens.wrapping_add_signed(shift.tokens);
            (r, at.offset)
        }
        None => {
            table.tokens = base + p.lexer.tokens();
            (old.items.len(), src.len())
        }
    };
    Ok(Resplit {
        table,
        lexed: start.offset..end,
        kept,
        old_end,
        new_end,
    })
}

/// Block sizes [`common_prefix`] and [`common_suffix`] compare by, in
/// turn: 4 KiB blocks while they match, then 64-byte ones, then bytes.
/// On a 520 KB text cold in cache this beat 256-byte blocks in five
/// edits of six, by up to a quarter; warm, the two are within 15 %.
const BLOCKS: [usize; 2] = [4096, 64];

/// The length of the longest common prefix of `a` and `b`, compared a
/// block at a time.
pub fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut at = 0;
    for block in BLOCKS {
        while at + block <= n && a[at..at + block] == b[at..at + block] {
            at += block;
        }
    }
    at + a[at..n]
        .iter()
        .zip(&b[at..n])
        .take_while(|(x, y)| x == y)
        .count()
}

/// The length of the longest common suffix of `a` and `b`, compared a
/// block at a time.
pub fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let (a, b) = (&a[a.len() - n..], &b[b.len() - n..]);
    let mut at = n;
    for block in BLOCKS {
        while at >= block && a[at - block..at] == b[at - block..at] {
            at -= block;
        }
    }
    let tail = a[..at].iter().rev().zip(b[..at].iter().rev());
    n - at + tail.take_while(|(x, y)| x == y).count()
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

    /// An identifier, as its byte range of the text.
    fn name(&mut self) -> Result<Range<usize>, ParseError> {
        let at = self.span().offset;
        let name = self.ident()?;
        Ok(at..at + name.len())
    }

    /// Parses the next top-level item into `table`; `false` at end of
    /// input.
    fn item(&mut self, table: &mut ItemTable) -> Result<bool, ParseError> {
        let ordinal = self.ordinal();
        let span = self.span();
        let (name, kind) = match self.peek() {
            Tok::Eof => return Ok(false),
            Tok::Global => self.global()?,
            Tok::Fn => {
                let params = table.param_tys.len();
                let item = self.func_item(table);
                if item.is_err() {
                    table.param_names.truncate(params);
                    table.param_tys.truncate(params);
                }
                item?
            }
            other => return Err(self.error(format!("expected `fn` or `global`, found {other}"))),
        };
        table.push(Item {
            span,
            ordinal,
            name,
            kind,
        });
        Ok(true)
    }

    fn global(&mut self) -> Result<(Range<usize>, ItemKind), ParseError> {
        self.expect(Tok::Global)?;
        let name = self.name()?;
        self.expect(Tok::Colon)?;
        let ty = self.ty()?;
        self.expect(Tok::Semi)?;
        Ok((name, ItemKind::Global(ty)))
    }

    /// A function header, its parameters appended to `table`'s lists,
    /// then its body stepped over.
    fn func_item(&mut self, table: &mut ItemTable) -> Result<(Range<usize>, ItemKind), ParseError> {
        self.expect(Tok::Fn)?;
        let name = self.name()?;
        self.expect(Tok::LParen)?;
        let start = table.param_tys.len();
        if self.peek() != Tok::RParen {
            loop {
                let pname = self.name()?;
                self.expect(Tok::Colon)?;
                let ty = self.ty()?;
                table.param_names.push(pname);
                table.param_tys.push(ty);
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
        let kind = ItemKind::Fn {
            params: start..table.param_tys.len(),
            ret_ty,
            body_at,
            end,
        };
        Ok((name, kind))
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

    /// The body of the first function of `src`, parsed as the front end
    /// does: `split`, then `parse_body` from where the table says.
    fn first_body(src: &str) -> Result<Vec<Stmt<'_>>, ParseError> {
        let table = split(src)?;
        parse_body(src, table.func(0).body_at)
    }

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
        let table = split(src).unwrap();
        assert_eq!(table.globals().count(), 1);
        assert_eq!(table.func_count(), 1);
        let f = table.func(0);
        assert_eq!(&src[f.name], "bar");
        assert_eq!(f.param_tys, [Type::int_ptr(2)]);
        assert_eq!(parse_body(src, f.body_at).unwrap().len(), 3);
    }

    #[test]
    fn parses_nested_deref_store() {
        let src = "fn f(p: int**) { **p = 3; return; }";
        match &first_body(src).unwrap()[0] {
            Stmt::Store { depth, .. } => assert_eq!(*depth, 2),
            other => panic!("expected store, got {other:?}"),
        }
    }

    #[test]
    fn operator_precedence() {
        let src = "fn f() -> int { return 1 + 2 * 3; }";
        match &first_body(src).unwrap()[0] {
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
        match &first_body(src).unwrap()[0] {
            Stmt::Return(Some(Expr::Bin(BinOpKind::Or, _, rhs, _)), _) => {
                assert!(matches!(**rhs, Expr::Bin(BinOpKind::And, ..)));
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn else_if_chains() {
        let src = "fn f(a: bool, b: bool) { if (a) {} else if (b) {} else {} return; }";
        match &first_body(src).unwrap()[0] {
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
        assert!(matches!(first_body(src).unwrap()[1], Stmt::While { .. }));
    }

    #[test]
    fn call_statement_and_expression() {
        let src = "fn f(p: int*) -> int* { free(p); let x: int* = qux(p, 3); return x; }";
        assert!(matches!(
            first_body(src).unwrap()[0],
            Stmt::Expr(Expr::Call(..))
        ));
    }

    #[test]
    fn error_on_missing_semicolon() {
        let src = "fn f() { let x: int = 1 return; }";
        let err = first_body(src).unwrap_err();
        assert!(err.message.contains("expected"), "{}", err);
    }

    #[test]
    fn error_reports_line() {
        let src = "fn f() {\n  let x: int = @;\n}";
        let err = first_body(src).unwrap_err();
        assert_eq!(err.span.line, 2);
    }

    #[test]
    fn unary_chains() {
        let src = "fn f(p: int**) -> int { return -**p; }";
        match &first_body(src).unwrap()[0] {
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
        let err = first_body(&src).unwrap_err();
        assert!(err.message.contains("nesting too deep"), "{err}");
    }

    #[test]
    fn deep_unary_nesting_errors_instead_of_overflowing() {
        let src = format!("fn f() -> int {{ return {}1; }}", "-".repeat(10_000));
        let err = first_body(&src).unwrap_err();
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
        let err = first_body(&src).unwrap_err();
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
        assert!(first_body(&src).is_ok());
    }

    #[test]
    fn block_compares_agree_with_bytewise_ones_at_every_block_edge() {
        let base: Vec<u8> = (0..9000u32).map(|i| (i * 7 % 251) as u8).collect();
        let bytewise_prefix =
            |a: &[u8], b: &[u8]| a.iter().zip(b).take_while(|(x, y)| x == y).count();
        let bytewise_suffix = |a: &[u8], b: &[u8]| {
            let pairs = a.iter().rev().zip(b.iter().rev());
            pairs.take_while(|(x, y)| x == y).count()
        };
        for at in [0, 1, 63, 64, 65, 4095, 4096, 4097, 4160, 8191, 8999] {
            let mut edited = base.clone();
            edited[at] ^= 1;
            for len in [at + 1, 4096, 8192, 9000] {
                let (a, b) = (&base[..len.max(at + 1)], &edited[..len.max(at + 1)]);
                assert_eq!(common_prefix(a, b), bytewise_prefix(a, b), "{at} {len}");
                assert_eq!(common_suffix(a, b), bytewise_suffix(a, b), "{at} {len}");
            }
            // Unequal lengths: one side is the other with bytes added.
            let longer = [&base[..at], &[0, 1, 2][..], &base[at..]].concat();
            assert_eq!(
                common_prefix(&base, &longer),
                bytewise_prefix(&base, &longer)
            );
            assert_eq!(
                common_suffix(&base, &longer),
                bytewise_suffix(&base, &longer)
            );
        }
    }
}

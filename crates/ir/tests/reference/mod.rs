//! The whole-file front end this crate had before it became
//! function-granular — `lex` to a token vector, `parse` to an owned
//! AST, `lower` over the whole program — kept as the reference the
//! differential tests compare [`pinpoint_ir::compile`] against: same
//! `Module` field for field on success, same error on failure. It
//! carries the same scoping rule as the pipeline (a branch arm's
//! declarations do not outlive the arm), and is otherwise unchanged.

#![allow(dead_code, missing_docs)]

use pinpoint_ir::ast::{BinOpKind, Span, UnOpKind};
use pinpoint_ir::ir::{
    intrinsics, BinOp, BlockId, Const, Function, GlobalId, Inst, Module, Terminator, UnOp, ValueId,
};
use pinpoint_ir::lexer::LexError;
use pinpoint_ir::lower::LowerError;
use pinpoint_ir::parser::ParseError;
use pinpoint_ir::{CompileError, Type};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// The reference pipeline end to end.
pub fn compile(src: &str) -> Result<Module, CompileError> {
    let program = parse(src).map_err(CompileError::Parse)?;
    lower(&program).map_err(CompileError::Lower)
}

// ---- lexer ---------------------------------------------------------------

/// Token kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword body.
    Ident(String),
    /// Integer literal.
    Int(i64),
    // Keywords
    /// `fn`.
    Fn,
    /// `let`.
    Let,
    /// `if`.
    If,
    /// `else`.
    Else,
    /// `while`.
    While,
    /// `return`.
    Return,
    /// `global`.
    Global,
    /// `true`.
    True,
    /// `false`.
    False,
    /// `null`.
    Null,
    /// `int` type keyword.
    TyInt,
    /// `bool` type keyword.
    TyBool,
    /// `malloc`.
    Malloc,
    // Punctuation / operators
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `{`.
    LBrace,
    /// `}`.
    RBrace,
    /// `,`.
    Comma,
    /// `;`.
    Semi,
    /// `:`.
    Colon,
    /// `->`.
    Arrow,
    /// `=`.
    Assign,
    /// `==`.
    EqEq,
    /// `!=`.
    NotEq,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `+`.
    Plus,
    /// `-`.
    Minus,
    /// `*`.
    Star,
    /// `!`.
    Bang,
    /// `&&`.
    AndAnd,
    /// `||`.
    OrOr,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Int(v) => write!(f, "integer `{v}`"),
            other => write!(f, "{other:?}"),
        }
    }
}

/// A token with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind.
    pub tok: Tok,
    /// Where it was found.
    pub span: Span,
}

/// Tokenises `src`.
///
/// # Errors
///
/// Returns a [`LexError`] on unknown characters or malformed literals.
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < bytes.len() {
        let c = bytes[i];
        let span = Span { offset: i, line };
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                i += 2;
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(LexError {
                                message: "unterminated block comment".into(),
                                span,
                            })
                        }
                        Some(b'*') if bytes.get(i + 1) == Some(&b'/') => {
                            i += 2;
                            break;
                        }
                        Some(b'\n') => {
                            line += 1;
                            i += 1;
                        }
                        Some(_) => i += 1,
                    }
                }
            }
            b'"' => {
                // The language has no string type, but a stray quote must
                // produce a diagnostic, not cascade into "unexpected
                // character" errors on every byte of the literal's body.
                i += 1;
                loop {
                    match bytes.get(i) {
                        None | Some(b'\n') => {
                            return Err(LexError {
                                message: "unterminated string literal".into(),
                                span,
                            })
                        }
                        Some(b'\\') => i += 2,
                        Some(b'"') => {
                            return Err(LexError {
                                message: "string literals are not supported".into(),
                                span,
                            })
                        }
                        Some(_) => i += 1,
                    }
                }
            }
            b'(' => {
                out.push(Token {
                    tok: Tok::LParen,
                    span,
                });
                i += 1;
            }
            b')' => {
                out.push(Token {
                    tok: Tok::RParen,
                    span,
                });
                i += 1;
            }
            b'{' => {
                out.push(Token {
                    tok: Tok::LBrace,
                    span,
                });
                i += 1;
            }
            b'}' => {
                out.push(Token {
                    tok: Tok::RBrace,
                    span,
                });
                i += 1;
            }
            b',' => {
                out.push(Token {
                    tok: Tok::Comma,
                    span,
                });
                i += 1;
            }
            b';' => {
                out.push(Token {
                    tok: Tok::Semi,
                    span,
                });
                i += 1;
            }
            b':' => {
                out.push(Token {
                    tok: Tok::Colon,
                    span,
                });
                i += 1;
            }
            b'+' => {
                out.push(Token {
                    tok: Tok::Plus,
                    span,
                });
                i += 1;
            }
            b'*' => {
                out.push(Token {
                    tok: Tok::Star,
                    span,
                });
                i += 1;
            }
            b'-' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    out.push(Token {
                        tok: Tok::Arrow,
                        span,
                    });
                    i += 2;
                } else {
                    out.push(Token {
                        tok: Tok::Minus,
                        span,
                    });
                    i += 1;
                }
            }
            b'=' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token {
                        tok: Tok::EqEq,
                        span,
                    });
                    i += 2;
                } else {
                    out.push(Token {
                        tok: Tok::Assign,
                        span,
                    });
                    i += 1;
                }
            }
            b'!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token {
                        tok: Tok::NotEq,
                        span,
                    });
                    i += 2;
                } else {
                    out.push(Token {
                        tok: Tok::Bang,
                        span,
                    });
                    i += 1;
                }
            }
            b'<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token { tok: Tok::Le, span });
                    i += 2;
                } else {
                    out.push(Token { tok: Tok::Lt, span });
                    i += 1;
                }
            }
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token { tok: Tok::Ge, span });
                    i += 2;
                } else {
                    out.push(Token { tok: Tok::Gt, span });
                    i += 1;
                }
            }
            b'&' => {
                if bytes.get(i + 1) == Some(&b'&') {
                    out.push(Token {
                        tok: Tok::AndAnd,
                        span,
                    });
                    i += 2;
                } else {
                    return Err(LexError {
                        message: "expected `&&`".into(),
                        span,
                    });
                }
            }
            b'|' => {
                if bytes.get(i + 1) == Some(&b'|') {
                    out.push(Token {
                        tok: Tok::OrOr,
                        span,
                    });
                    i += 2;
                } else {
                    return Err(LexError {
                        message: "expected `||`".into(),
                        span,
                    });
                }
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &src[start..i];
                let v: i64 = text.parse().map_err(|_| LexError {
                    message: format!("integer literal `{text}` out of range"),
                    span,
                })?;
                out.push(Token {
                    tok: Tok::Int(v),
                    span,
                });
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let text = &src[start..i];
                let tok = match text {
                    "fn" => Tok::Fn,
                    "let" => Tok::Let,
                    "if" => Tok::If,
                    "else" => Tok::Else,
                    "while" => Tok::While,
                    "return" => Tok::Return,
                    "global" => Tok::Global,
                    "true" => Tok::True,
                    "false" => Tok::False,
                    "null" => Tok::Null,
                    "int" => Tok::TyInt,
                    "bool" => Tok::TyBool,
                    "malloc" => Tok::Malloc,
                    _ => Tok::Ident(text.to_string()),
                };
                out.push(Token { tok, span });
            }
            other => {
                return Err(LexError {
                    message: format!("unexpected character `{}`", other as char),
                    span,
                })
            }
        }
    }
    out.push(Token {
        tok: Tok::Eof,
        span: Span {
            offset: bytes.len(),
            line,
        },
    });
    Ok(out)
}

// ---- ast -----------------------------------------------------------------

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// The null pointer literal.
    Null,
    /// Variable (local, parameter, or global) reference.
    Var(String, Span),
    /// `*e`, possibly nested (`**e` parses as `Deref(Deref(e))`).
    Deref(Box<Expr>, Span),
    /// Unary operation.
    Un(UnOpKind, Box<Expr>, Span),
    /// Binary operation.
    Bin(BinOpKind, Box<Expr>, Box<Expr>, Span),
    /// Function or intrinsic call.
    Call(String, Vec<Expr>, Span),
    /// `malloc()` — fresh heap cell.
    Malloc(Span),
}

impl Expr {
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

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `let x: T = e;`.
    Let {
        /// Variable name.
        name: String,
        /// Declared type.
        ty: Type,
        /// Initialiser.
        init: Expr,
        /// Source location.
        span: Span,
    },
    /// `x = e;`.
    Assign {
        /// Target local.
        name: String,
        /// Right-hand side.
        value: Expr,
        /// Source location.
        span: Span,
    },
    /// `*x = e;` / `**x = e;` — store through `depth` levels.
    Store {
        /// Pointer-valued expression being stored through.
        ptr: Expr,
        /// Dereference depth (`*x` is 1).
        depth: u32,
        /// Stored value.
        value: Expr,
        /// Source location.
        span: Span,
    },
    /// Expression statement (a call evaluated for effect).
    Expr(Expr),
    /// `if (c) { … } else { … }`.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_body: Vec<Stmt>,
        /// Else branch (possibly empty).
        else_body: Vec<Stmt>,
        /// Source location.
        span: Span,
    },
    /// `while (c) { … }` — analysed as a single guarded iteration
    /// (the §4.2 soundiness rule: loops unrolled once).
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
        /// Source location.
        span: Span,
    },
    /// `return;` / `return e;`.
    Return(Option<Expr>, Span),
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDef {
    /// Function name.
    pub name: String,
    /// Parameters: `(name, type)`.
    pub params: Vec<(String, Type)>,
    /// Return type (`None` for procedures).
    pub ret_ty: Option<Type>,
    /// Body.
    pub body: Vec<Stmt>,
    /// Source location.
    pub span: Span,
}

/// A global declaration: `global g: int*;`.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDef {
    /// Global name.
    pub name: String,
    /// Content type of the global cell.
    pub ty: Type,
    /// Source location.
    pub span: Span,
}

/// A whole parsed program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Global declarations.
    pub globals: Vec<GlobalDef>,
    /// Function definitions.
    pub funcs: Vec<FuncDef>,
}

// ---- parser --------------------------------------------------------------

/// Parses a whole program.
///
/// # Errors
///
/// Returns the first lexing or parsing error encountered.
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    p.program()
}

/// Maximum statement/expression nesting depth. The parser is recursive
/// descent, so without a bound a hostile input like `((((…))))` would
/// overflow the stack; past this depth it returns a [`ParseError`]
/// instead. Far above anything a real program needs, while keeping the
/// worst-case stack usage (each level costs several unoptimized frames,
/// statement nesting the most) inside a 2 MiB test-thread stack.
const MAX_NESTING_DEPTH: usize = 128;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].tok.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: Tok) -> Result<(), ParseError> {
        if *self.peek() == want {
            self.bump();
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

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.error(format!("expected identifier, found {other}"))),
        }
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut prog = Program::default();
        loop {
            match self.peek() {
                Tok::Eof => break,
                Tok::Global => prog.globals.push(self.global()?),
                Tok::Fn => prog.funcs.push(self.func()?),
                other => {
                    return Err(self.error(format!("expected `fn` or `global`, found {other}")))
                }
            }
        }
        Ok(prog)
    }

    fn global(&mut self) -> Result<GlobalDef, ParseError> {
        let span = self.span();
        self.expect(Tok::Global)?;
        let name = self.ident()?;
        self.expect(Tok::Colon)?;
        let ty = self.ty()?;
        self.expect(Tok::Semi)?;
        Ok(GlobalDef { name, ty, span })
    }

    fn func(&mut self) -> Result<FuncDef, ParseError> {
        let span = self.span();
        self.expect(Tok::Fn)?;
        let name = self.ident()?;
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if *self.peek() != Tok::RParen {
            loop {
                let pname = self.ident()?;
                self.expect(Tok::Colon)?;
                let ty = self.ty()?;
                params.push((pname, ty));
                if *self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        let ret_ty = if *self.peek() == Tok::Arrow {
            self.bump();
            Some(self.ty()?)
        } else {
            None
        };
        let body = self.block()?;
        Ok(FuncDef {
            name,
            params,
            ret_ty,
            body,
            span,
        })
    }

    fn ty(&mut self) -> Result<Type, ParseError> {
        let mut base = match self.bump() {
            Tok::TyInt => Type::Int,
            Tok::TyBool => Type::Bool,
            other => return Err(self.error(format!("expected type, found {other}"))),
        };
        while *self.peek() == Tok::Star {
            self.bump();
            base = base.ptr_to();
        }
        Ok(base)
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect(Tok::LBrace)?;
        let mut stmts = Vec::new();
        while *self.peek() != Tok::RBrace {
            stmts.push(self.stmt()?);
        }
        self.expect(Tok::RBrace)?;
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        self.enter()?;
        let result = self.stmt_inner();
        self.leave();
        result
    }

    fn stmt_inner(&mut self) -> Result<Stmt, ParseError> {
        let span = self.span();
        match self.peek().clone() {
            Tok::Let => {
                self.bump();
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
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let then_body = self.block()?;
                let else_body = if *self.peek() == Tok::Else {
                    self.bump();
                    if *self.peek() == Tok::If {
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
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let body = self.block()?;
                Ok(Stmt::While { cond, body, span })
            }
            Tok::Return => {
                self.bump();
                if *self.peek() == Tok::Semi {
                    self.bump();
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
                while *self.peek() == Tok::Star {
                    self.bump();
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
                if self.tokens[self.pos + 1].tok == Tok::Assign {
                    self.bump();
                    self.bump();
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
    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.enter()?;
        let result = self.or_expr();
        self.leave();
        result
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while *self.peek() == Tok::OrOr {
            let span = self.span();
            self.bump();
            let rhs = self.and_expr()?;
            lhs = Expr::Bin(BinOpKind::Or, Box::new(lhs), Box::new(rhs), span);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.cmp_expr()?;
        while *self.peek() == Tok::AndAnd {
            let span = self.span();
            self.bump();
            let rhs = self.cmp_expr()?;
            lhs = Expr::Bin(BinOpKind::And, Box::new(lhs), Box::new(rhs), span);
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
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
            self.bump();
            let rhs = self.add_expr()?;
            Ok(Expr::Bin(op, Box::new(lhs), Box::new(rhs), span))
        } else {
            Ok(lhs)
        }
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOpKind::Add,
                Tok::Minus => BinOpKind::Sub,
                _ => break,
            };
            let span = self.span();
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs), span);
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        while *self.peek() == Tok::Star {
            let span = self.span();
            self.bump();
            let rhs = self.unary()?;
            lhs = Expr::Bin(BinOpKind::Mul, Box::new(lhs), Box::new(rhs), span);
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        self.enter()?;
        let result = self.unary_inner();
        self.leave();
        result
    }

    fn unary_inner(&mut self) -> Result<Expr, ParseError> {
        let span = self.span();
        match self.peek() {
            Tok::Minus => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr::Un(UnOpKind::Neg, Box::new(e), span))
            }
            Tok::Bang => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr::Un(UnOpKind::Not, Box::new(e), span))
            }
            Tok::Star => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr::Deref(Box::new(e), span))
            }
            _ => self.primary(),
        }
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        let span = self.span();
        match self.bump() {
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
                if *self.peek() == Tok::LParen {
                    self.bump();
                    let mut args = Vec::new();
                    if *self.peek() != Tok::RParen {
                        loop {
                            args.push(self.expr()?);
                            if *self.peek() == Tok::Comma {
                                self.bump();
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

// ---- lowering ------------------------------------------------------------

/// Signature of a callable (user function or intrinsic).
#[derive(Debug, Clone)]
struct Signature {
    params: Vec<Type>,
    ret: Option<Type>,
    /// Intrinsics with polymorphic parameters skip strict checking.
    polymorphic: bool,
}

/// Lowers a parsed program to an SSA module.
///
/// # Errors
///
/// Returns a [`LowerError`] on type errors, unknown names, arity
/// mismatches, or invalid dereferences.
pub fn lower(program: &Program) -> Result<Module, LowerError> {
    let mut module = Module::new();
    let mut globals: HashMap<String, (GlobalId, Type)> = HashMap::new();
    for g in &program.globals {
        let id = module.add_global(&g.name, g.ty);
        if globals.insert(g.name.clone(), (id, g.ty)).is_some() {
            return Err(LowerError {
                message: format!("duplicate global `{}`", g.name),
                span: g.span,
            });
        }
    }
    let mut signatures: HashMap<String, Signature> = intrinsic_signatures();
    for f in &program.funcs {
        let sig = Signature {
            params: f.params.iter().map(|(_, t)| *t).collect(),
            ret: f.ret_ty,
            polymorphic: false,
        };
        if signatures.insert(f.name.clone(), sig).is_some() {
            return Err(LowerError {
                message: format!("duplicate function `{}`", f.name),
                span: f.span,
            });
        }
    }
    for fdef in &program.funcs {
        let func = FnLowerer::new(fdef, &signatures, &globals).run()?;
        module.add_func(func);
    }
    Ok(module)
}

fn intrinsic_signatures() -> HashMap<String, Signature> {
    let mut m = HashMap::new();
    let poly = |params: usize, ret: Option<Type>| Signature {
        params: vec![Type::Int; params],
        ret,
        polymorphic: true,
    };
    m.insert(intrinsics::FREE.into(), poly(1, None));
    m.insert(intrinsics::PRINT.into(), poly(1, None));
    m.insert(
        intrinsics::NONDET_BOOL.into(),
        Signature {
            params: vec![],
            ret: Some(Type::Bool),
            polymorphic: false,
        },
    );
    m.insert(
        intrinsics::NONDET_INT.into(),
        Signature {
            params: vec![],
            ret: Some(Type::Int),
            polymorphic: false,
        },
    );
    m.insert(
        intrinsics::FGETC.into(),
        Signature {
            params: vec![],
            ret: Some(Type::Int),
            polymorphic: false,
        },
    );
    m.insert(
        intrinsics::RECV.into(),
        Signature {
            params: vec![],
            ret: Some(Type::Int),
            polymorphic: false,
        },
    );
    m.insert(
        intrinsics::GETPASS.into(),
        Signature {
            params: vec![],
            ret: Some(Type::Int),
            polymorphic: false,
        },
    );
    m.insert(intrinsics::FOPEN.into(), poly(1, Some(Type::Int)));
    m.insert(intrinsics::SENDTO.into(), poly(1, None));
    m
}

/// Variable environment: source name → current SSA value. Ordered so
/// φ-merges iterate variables in one canonical (name) order: φ emission
/// order numbers the join block's values, and every content fingerprint
/// downstream assumes lowering is a pure function of the source text.
type Env = BTreeMap<String, ValueId>;

struct FnLowerer<'a> {
    def: &'a FuncDef,
    sigs: &'a HashMap<String, Signature>,
    globals: &'a HashMap<String, (GlobalId, Type)>,
    f: Function,
    cur: BlockId,
    /// Return sites: (predecessor block, returned value).
    ret_sites: Vec<(BlockId, Option<ValueId>)>,
    /// `true` once the current block has been terminated.
    terminated: bool,
}

impl<'a> FnLowerer<'a> {
    fn new(
        def: &'a FuncDef,
        sigs: &'a HashMap<String, Signature>,
        globals: &'a HashMap<String, (GlobalId, Type)>,
    ) -> Self {
        let f = Function::new(&def.name);
        let cur = f.entry();
        FnLowerer {
            def,
            sigs,
            globals,
            f,
            cur,
            ret_sites: Vec::new(),
            terminated: false,
        }
    }

    fn run(mut self) -> Result<Function, LowerError> {
        let mut env: Env = Env::new();
        for (name, ty) in &self.def.params {
            let v = self.f.new_value(name.clone(), *ty);
            self.f.params.push(v);
            env.insert(name.clone(), v);
        }
        if let Some(rt) = &self.def.ret_ty {
            self.f.ret_tys.push(*rt);
        }
        self.lower_stmts(&self.def.body, &mut env)?;
        // Implicit `return;` for procedures that fall off the end.
        if !self.terminated {
            if self.def.ret_ty.is_some() {
                return Err(LowerError {
                    message: format!(
                        "function `{}` may fall off the end without returning a value",
                        self.def.name
                    ),
                    span: self.def.span,
                });
            }
            let cur = self.cur;
            self.ret_sites.push((cur, None));
            self.terminated = true; // jump patched below
        }
        // Build the unique exit block.
        let exit = self.f.new_block();
        for &(pred, _) in &self.ret_sites {
            self.f.set_term(pred, Terminator::Jump(exit));
        }
        let ret_vals: Vec<ValueId> = if let Some(rt) = &self.def.ret_ty {
            let vals: Vec<(BlockId, ValueId)> = self
                .ret_sites
                .iter()
                .map(|&(b, v)| (b, v.expect("typed return checked per-site")))
                .collect();
            let merged = if vals.len() == 1 {
                vals[0].1
            } else {
                let dst = self.f.new_value("ret", *rt);
                self.f.push_inst(
                    exit,
                    Inst::Phi {
                        dst,
                        incomings: vals,
                    },
                );
                dst
            };
            vec![merged]
        } else {
            vec![]
        };
        self.f.set_term(exit, Terminator::Return(ret_vals));
        Ok(self.f)
    }

    fn err(&self, message: impl Into<String>, span: Span) -> LowerError {
        LowerError {
            message: message.into(),
            span,
        }
    }

    fn lower_stmts(&mut self, stmts: &[Stmt], env: &mut Env) -> Result<(), LowerError> {
        for s in stmts {
            if self.terminated {
                break; // unreachable code after return: ignore
            }
            self.lower_stmt(s, env)?;
        }
        Ok(())
    }

    fn lower_stmt(&mut self, stmt: &Stmt, env: &mut Env) -> Result<(), LowerError> {
        match stmt {
            Stmt::Let {
                name,
                ty,
                init,
                span,
            } => {
                let v = self.lower_expr(init, env)?;
                let vt = *self.f.ty(v);
                if !types_compatible(ty, &vt) {
                    return Err(self.err(
                        format!("type mismatch in `let {name}`: declared {ty}, got {vt}"),
                        *span,
                    ));
                }
                let named = self.f.new_value(name.clone(), *ty);
                self.f
                    .push_inst(self.cur, Inst::Copy { dst: named, src: v });
                env.insert(name.clone(), named);
                Ok(())
            }
            Stmt::Assign { name, value, span } => {
                let old = *env
                    .get(name)
                    .ok_or_else(|| self.err(format!("unknown variable `{name}`"), *span))?;
                let old_ty = *self.f.ty(old);
                let v = self.lower_expr(value, env)?;
                let vt = *self.f.ty(v);
                if !types_compatible(&old_ty, &vt) {
                    return Err(self.err(
                        format!("type mismatch assigning `{name}`: {old_ty} vs {vt}"),
                        *span,
                    ));
                }
                let named = self.f.new_value(name.clone(), old_ty);
                self.f
                    .push_inst(self.cur, Inst::Copy { dst: named, src: v });
                env.insert(name.clone(), named);
                Ok(())
            }
            Stmt::Store {
                ptr,
                depth,
                value,
                span,
            } => {
                let p = self.lower_expr(ptr, env)?;
                let pt = *self.f.ty(p);
                let Some(target_ty) = pt.deref(*depth as usize) else {
                    return Err(self.err(format!("cannot dereference {pt} {depth} time(s)"), *span));
                };
                let v = self.lower_expr(value, env)?;
                let vt = *self.f.ty(v);
                if !types_compatible(&target_ty, &vt) {
                    return Err(self.err(
                        format!("type mismatch in store: cell is {target_ty}, value is {vt}"),
                        *span,
                    ));
                }
                self.f.push_inst(
                    self.cur,
                    Inst::Store {
                        ptr: p,
                        depth: *depth,
                        src: v,
                    },
                );
                Ok(())
            }
            Stmt::Expr(e) => {
                let _ = self.lower_expr_allow_void(e, env)?;
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                span,
            } => self.lower_if(cond, then_body, else_body, *span, env),
            Stmt::While { cond, body, span } => {
                // Soundiness: analyse one guarded iteration.
                self.lower_if(cond, body, &[], *span, env)
            }
            Stmt::Return(e, span) => {
                let v = match (e, &self.def.ret_ty) {
                    (Some(e), Some(rt)) => {
                        let v = self.lower_expr(e, env)?;
                        let vt = *self.f.ty(v);
                        if !types_compatible(rt, &vt) {
                            return Err(self.err(
                                format!("return type mismatch: expected {rt}, got {vt}"),
                                *span,
                            ));
                        }
                        Some(v)
                    }
                    (None, None) => None,
                    (Some(_), None) => {
                        return Err(self.err("returning a value from a procedure", *span))
                    }
                    (None, Some(_)) => {
                        return Err(self.err("missing return value", *span));
                    }
                };
                self.ret_sites.push((self.cur, v));
                self.terminated = true;
                Ok(())
            }
        }
    }

    fn lower_if(
        &mut self,
        cond: &Expr,
        then_body: &[Stmt],
        else_body: &[Stmt],
        span: Span,
        env: &mut Env,
    ) -> Result<(), LowerError> {
        let c = self.lower_expr(cond, env)?;
        if *self.f.ty(c) != Type::Bool {
            return Err(self.err("branch condition must be bool", span));
        }
        let then_bb = self.f.new_block();
        let else_bb = self.f.new_block();
        self.f.set_term(
            self.cur,
            Terminator::Branch {
                cond: c,
                then_bb,
                else_bb,
            },
        );
        // Then arm.
        let mut then_env = env.clone();
        self.cur = then_bb;
        self.terminated = false;
        self.lower_stmts(then_body, &mut then_env)?;
        let then_exit = if self.terminated {
            None
        } else {
            Some(self.cur)
        };
        // Else arm.
        let mut else_env = env.clone();
        self.cur = else_bb;
        self.terminated = false;
        self.lower_stmts(else_body, &mut else_env)?;
        let else_exit = if self.terminated {
            None
        } else {
            Some(self.cur)
        };
        // Join.
        match (then_exit, else_exit) {
            (None, None) => {
                // Both arms returned; the code after the if is unreachable.
                self.terminated = true;
                Ok(())
            }
            (Some(b), None) => {
                let join = self.f.new_block();
                self.f.set_term(b, Terminator::Jump(join));
                self.cur = join;
                self.terminated = false;
                // The arm's own declarations end with it.
                then_env.retain(|name, _| env.contains_key(name));
                *env = then_env;
                Ok(())
            }
            (None, Some(b)) => {
                let join = self.f.new_block();
                self.f.set_term(b, Terminator::Jump(join));
                self.cur = join;
                self.terminated = false;
                else_env.retain(|name, _| env.contains_key(name));
                *env = else_env;
                Ok(())
            }
            (Some(tb), Some(eb)) => {
                let join = self.f.new_block();
                self.f.set_term(tb, Terminator::Jump(join));
                self.f.set_term(eb, Terminator::Jump(join));
                self.cur = join;
                self.terminated = false;
                // φ-merge differing variables.
                let mut merged = Env::new();
                for (name, &tv) in &then_env {
                    let Some(&ev) = else_env.get(name) else {
                        continue; // declared only in the then-arm: out of scope
                    };
                    if tv == ev {
                        merged.insert(name.clone(), tv);
                    } else {
                        let ty = *self.f.ty(tv);
                        let dst = self.f.new_value(name.clone(), ty);
                        self.f.push_inst(
                            join,
                            Inst::Phi {
                                dst,
                                incomings: vec![(tb, tv), (eb, ev)],
                            },
                        );
                        merged.insert(name.clone(), dst);
                    }
                }
                *env = merged;
                Ok(())
            }
        }
    }

    fn lower_expr(&mut self, e: &Expr, env: &Env) -> Result<ValueId, LowerError> {
        match self.lower_expr_allow_void(e, env)? {
            Some(v) => Ok(v),
            None => Err(self.err("void call used as a value", e.span())),
        }
    }

    fn lower_expr_allow_void(
        &mut self,
        e: &Expr,
        env: &Env,
    ) -> Result<Option<ValueId>, LowerError> {
        match e {
            Expr::Int(v) => {
                let dst = self.f.new_value("c", Type::Int);
                self.f.push_inst(
                    self.cur,
                    Inst::Const {
                        dst,
                        value: Const::Int(*v),
                    },
                );
                Ok(Some(dst))
            }
            Expr::Bool(b) => {
                let dst = self.f.new_value("c", Type::Bool);
                self.f.push_inst(
                    self.cur,
                    Inst::Const {
                        dst,
                        value: Const::Bool(*b),
                    },
                );
                Ok(Some(dst))
            }
            Expr::Null => {
                let dst = self.f.new_value("null", Type::Int.ptr_to());
                self.f.push_inst(
                    self.cur,
                    Inst::Const {
                        dst,
                        value: Const::Null,
                    },
                );
                Ok(Some(dst))
            }
            Expr::Var(name, span) => {
                if let Some(&v) = env.get(name) {
                    return Ok(Some(v));
                }
                if let Some((gid, ty)) = self.globals.get(name) {
                    let dst = self.f.new_value(name.clone(), ty.ptr_to());
                    self.f
                        .push_inst(self.cur, Inst::GlobalAddr { dst, global: *gid });
                    return Ok(Some(dst));
                }
                Err(self.err(format!("unknown variable `{name}`"), *span))
            }
            Expr::Deref(inner, span) => {
                let p = self.lower_expr(inner, env)?;
                let pt = *self.f.ty(p);
                let Some(pointee) = pt.pointee() else {
                    return Err(self.err(format!("cannot dereference non-pointer {pt}"), *span));
                };
                let dst = self.f.new_value("ld", pointee);
                self.f.push_inst(
                    self.cur,
                    Inst::Load {
                        dst,
                        ptr: p,
                        depth: 1,
                    },
                );
                Ok(Some(dst))
            }
            Expr::Un(op, inner, span) => {
                let v = self.lower_expr(inner, env)?;
                let vt = *self.f.ty(v);
                let (irop, want, out) = match op {
                    UnOpKind::Neg => (UnOp::Neg, Type::Int, Type::Int),
                    UnOpKind::Not => (UnOp::Not, Type::Bool, Type::Bool),
                };
                if vt != want {
                    return Err(self.err(format!("operand of `{irop}` must be {want}"), *span));
                }
                let dst = self.f.new_value("t", out);
                self.f.push_inst(
                    self.cur,
                    Inst::Un {
                        dst,
                        op: irop,
                        operand: v,
                    },
                );
                Ok(Some(dst))
            }
            Expr::Bin(op, l, r, span) => {
                let lv = self.lower_expr(l, env)?;
                let rv = self.lower_expr(r, env)?;
                let lt = *self.f.ty(lv);
                let rt = *self.f.ty(rv);
                // Gt/Ge lower to swapped Lt/Le.
                let (irop, lv, rv, lt, rt) = match op {
                    BinOpKind::Gt => (BinOp::Lt, rv, lv, rt, lt),
                    BinOpKind::Ge => (BinOp::Le, rv, lv, rt, lt),
                    BinOpKind::Add => (BinOp::Add, lv, rv, lt, rt),
                    BinOpKind::Sub => (BinOp::Sub, lv, rv, lt, rt),
                    BinOpKind::Mul => (BinOp::Mul, lv, rv, lt, rt),
                    BinOpKind::Eq => (BinOp::Eq, lv, rv, lt, rt),
                    BinOpKind::Ne => (BinOp::Ne, lv, rv, lt, rt),
                    BinOpKind::Lt => (BinOp::Lt, lv, rv, lt, rt),
                    BinOpKind::Le => (BinOp::Le, lv, rv, lt, rt),
                    BinOpKind::And => (BinOp::And, lv, rv, lt, rt),
                    BinOpKind::Or => (BinOp::Or, lv, rv, lt, rt),
                };
                let out_ty = match irop {
                    BinOp::Add | BinOp::Sub | BinOp::Mul => {
                        if lt != Type::Int || rt != Type::Int {
                            return Err(
                                self.err(format!("arithmetic on non-int: {lt} {irop} {rt}"), *span)
                            );
                        }
                        Type::Int
                    }
                    BinOp::Lt | BinOp::Le => {
                        if lt != Type::Int || rt != Type::Int {
                            return Err(
                                self.err(format!("comparison on non-int: {lt} {irop} {rt}"), *span)
                            );
                        }
                        Type::Bool
                    }
                    BinOp::Eq | BinOp::Ne => {
                        if !types_compatible(&lt, &rt) {
                            return Err(self.err(
                                format!("equality between incompatible types {lt} and {rt}"),
                                *span,
                            ));
                        }
                        Type::Bool
                    }
                    BinOp::And | BinOp::Or => {
                        if lt != Type::Bool || rt != Type::Bool {
                            return Err(self.err("logical op on non-bool", *span));
                        }
                        Type::Bool
                    }
                };
                let dst = self.f.new_value("t", out_ty);
                self.f.push_inst(
                    self.cur,
                    Inst::Bin {
                        dst,
                        op: irop,
                        lhs: lv,
                        rhs: rv,
                    },
                );
                Ok(Some(dst))
            }
            Expr::Malloc(_) => {
                // A fresh cell; its type is inferred from the declaration
                // that consumes it — represented as int* by default and
                // adjusted by `types_compatible`'s malloc rule.
                let dst = self.f.new_value("m", Type::Int.ptr_to());
                self.f.push_inst(self.cur, Inst::Alloc { dst });
                Ok(Some(dst))
            }
            Expr::Call(name, args, span) => {
                let sig = self
                    .sigs
                    .get(name)
                    .ok_or_else(|| self.err(format!("unknown function `{name}`"), *span))?
                    .clone();
                if args.len() != sig.params.len() {
                    return Err(self.err(
                        format!(
                            "`{name}` expects {} argument(s), got {}",
                            sig.params.len(),
                            args.len()
                        ),
                        *span,
                    ));
                }
                let mut argv = Vec::with_capacity(args.len());
                for (a, pt) in args.iter().zip(&sig.params) {
                    let v = self.lower_expr(a, env)?;
                    let vt = *self.f.ty(v);
                    if !sig.polymorphic && !types_compatible(pt, &vt) {
                        return Err(self.err(
                            format!("argument type mismatch for `{name}`: expected {pt}, got {vt}"),
                            a.span(),
                        ));
                    }
                    argv.push(v);
                }
                let dsts = match &sig.ret {
                    Some(rt) => {
                        let dst = self.f.new_value("r", *rt);
                        vec![dst]
                    }
                    None => vec![],
                };
                let ret = dsts.first().copied();
                self.f.push_inst(
                    self.cur,
                    Inst::Call {
                        dsts,
                        callee: name.clone(),
                        args: argv,
                    },
                );
                Ok(ret)
            }
        }
    }
}

/// Type compatibility: exact match, or a `malloc` cell (`int*`) used at any
/// pointer type, or `null` (`int*`) used at any pointer type.
fn types_compatible(expected: &Type, got: &Type) -> bool {
    expected == got || (expected.is_ptr() && *got == Type::Int.ptr_to())
}

//! Lexer for the mini-language.
//!
//! A pull lexer: [`Lexer::next_token`] scans one token at a time straight
//! off the source text, so no token vector of the file ever exists, and
//! identifiers are slices of the source ([`Tok::Ident`] borrows). A lexer
//! can be started at any `(offset, line)` with [`Lexer::at`], which is
//! how a function body is re-entered without lexing what precedes it.

use crate::ast::Span;
use std::fmt;

/// Token kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tok<'src> {
    /// Identifier (a slice of the source).
    Ident(&'src str),
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

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Int(v) => write!(f, "integer `{v}`"),
            other => write!(f, "{other:?}"),
        }
    }
}

/// A token with its source span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'src> {
    /// The token kind.
    pub tok: Tok<'src>,
    /// Where it was found.
    pub span: Span,
}

/// Lexing error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Human-readable message.
    pub message: String,
    /// Where the error occurred.
    pub span: Span,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for LexError {}

/// A pull lexer over one source text.
#[derive(Debug, Clone)]
pub struct Lexer<'src> {
    src: &'src str,
    pos: usize,
    line: usize,
    tokens: usize,
}

impl<'src> Lexer<'src> {
    /// A lexer at the start of `src`.
    pub fn new(src: &'src str) -> Self {
        Self::at(src, Span { offset: 0, line: 1 })
    }

    /// A lexer that resumes at `start`, the span of a token an earlier
    /// pass over the same text reported.
    pub fn at(src: &'src str, start: Span) -> Self {
        Lexer {
            src,
            pos: start.offset,
            line: start.line,
            tokens: 0,
        }
    }

    /// Tokens produced so far, not counting [`Tok::Eof`].
    pub fn tokens(&self) -> usize {
        self.tokens
    }

    /// Scans the rest of the text, keeping nothing.
    ///
    /// # Errors
    ///
    /// Returns the first [`LexError`] at or after the current position.
    pub fn drain(&mut self) -> Result<(), LexError> {
        while self.next_token()?.tok != Tok::Eof {}
        Ok(())
    }

    /// Scans the next token; at end of input returns [`Tok::Eof`], again
    /// on every further call.
    ///
    /// # Errors
    ///
    /// Returns a [`LexError`] on unknown characters or malformed
    /// literals. The lexer does not move past an error: the next call
    /// reports it again.
    pub fn next_token(&mut self) -> Result<Token<'src>, LexError> {
        let bytes = self.src.as_bytes();
        let mut i = self.pos;
        let mut line = self.line;
        let (tok, span, end) = loop {
            let Some(&c) = bytes.get(i) else {
                self.pos = i;
                self.line = line;
                return Ok(Token {
                    tok: Tok::Eof,
                    span: Span { offset: i, line },
                });
            };
            let span = Span { offset: i, line };
            let next = bytes.get(i + 1).copied();
            let (tok, len) = match c {
                b'\n' => {
                    line += 1;
                    i += 1;
                    continue;
                }
                b' ' | b'\t' | b'\r' => {
                    i += 1;
                    continue;
                }
                b'/' if next == Some(b'/') => {
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                    }
                    continue;
                }
                b'/' if next == Some(b'*') => {
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
                    continue;
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
                b'(' => (Tok::LParen, 1),
                b')' => (Tok::RParen, 1),
                b'{' => (Tok::LBrace, 1),
                b'}' => (Tok::RBrace, 1),
                b',' => (Tok::Comma, 1),
                b';' => (Tok::Semi, 1),
                b':' => (Tok::Colon, 1),
                b'+' => (Tok::Plus, 1),
                b'*' => (Tok::Star, 1),
                b'-' if next == Some(b'>') => (Tok::Arrow, 2),
                b'-' => (Tok::Minus, 1),
                b'=' if next == Some(b'=') => (Tok::EqEq, 2),
                b'=' => (Tok::Assign, 1),
                b'!' if next == Some(b'=') => (Tok::NotEq, 2),
                b'!' => (Tok::Bang, 1),
                b'<' if next == Some(b'=') => (Tok::Le, 2),
                b'<' => (Tok::Lt, 1),
                b'>' if next == Some(b'=') => (Tok::Ge, 2),
                b'>' => (Tok::Gt, 1),
                b'&' if next == Some(b'&') => (Tok::AndAnd, 2),
                b'&' => {
                    return Err(LexError {
                        message: "expected `&&`".into(),
                        span,
                    })
                }
                b'|' if next == Some(b'|') => (Tok::OrOr, 2),
                b'|' => {
                    return Err(LexError {
                        message: "expected `||`".into(),
                        span,
                    })
                }
                b'0'..=b'9' => {
                    let mut end = i;
                    while end < bytes.len() && bytes[end].is_ascii_digit() {
                        end += 1;
                    }
                    let text = &self.src[i..end];
                    let v: i64 = text.parse().map_err(|_| LexError {
                        message: format!("integer literal `{text}` out of range"),
                        span,
                    })?;
                    (Tok::Int(v), end - i)
                }
                c if c.is_ascii_alphabetic() || c == b'_' => {
                    let mut end = i;
                    while end < bytes.len()
                        && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_')
                    {
                        end += 1;
                    }
                    let text = &self.src[i..end];
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
                        _ => Tok::Ident(text),
                    };
                    (tok, end - i)
                }
                other => {
                    return Err(LexError {
                        message: format!("unexpected character `{}`", other as char),
                        span,
                    })
                }
            };
            break (tok, span, i + len);
        };
        self.pos = end;
        self.line = line;
        self.tokens += 1;
        Ok(Token { tok, span })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every token of `src`, `Eof` included.
    fn lex(src: &str) -> Result<Vec<Token<'_>>, LexError> {
        let mut lexer = Lexer::new(src);
        let mut out = Vec::new();
        loop {
            let t = lexer.next_token()?;
            out.push(t);
            if t.tok == Tok::Eof {
                return Ok(out);
            }
        }
    }

    fn kinds(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_function_header() {
        let toks = kinds("fn foo(a: int*) -> int {");
        assert_eq!(
            toks,
            vec![
                Tok::Fn,
                Tok::Ident("foo"),
                Tok::LParen,
                Tok::Ident("a"),
                Tok::Colon,
                Tok::TyInt,
                Tok::Star,
                Tok::RParen,
                Tok::Arrow,
                Tok::TyInt,
                Tok::LBrace,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn distinguishes_compound_operators() {
        let toks = kinds("= == ! != < <= > >= && || - ->");
        assert_eq!(
            toks,
            vec![
                Tok::Assign,
                Tok::EqEq,
                Tok::Bang,
                Tok::NotEq,
                Tok::Lt,
                Tok::Le,
                Tok::Gt,
                Tok::Ge,
                Tok::AndAnd,
                Tok::OrOr,
                Tok::Minus,
                Tok::Arrow,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn skips_comments_and_tracks_lines() {
        let toks = lex("// comment\nfn").unwrap();
        assert_eq!(toks[0].tok, Tok::Fn);
        assert_eq!(toks[0].span.line, 2);
    }

    #[test]
    fn rejects_stray_ampersand() {
        assert!(lex("a & b").is_err());
    }

    #[test]
    fn block_comments_skip_and_track_lines() {
        let toks = lex("/* one\n * two\n */ fn").unwrap();
        assert_eq!(toks[0].tok, Tok::Fn);
        assert_eq!(toks[0].span.line, 3);
    }

    #[test]
    fn unterminated_block_comment_is_an_error() {
        let err = lex("fn main() { /* oops").unwrap_err();
        assert!(err.message.contains("unterminated block comment"), "{err}");
        // The span points at the comment opener, not end-of-input.
        assert_eq!(err.span.offset, 12);
    }

    #[test]
    fn string_literals_error_cleanly() {
        let err = lex("let s = \"hello\";").unwrap_err();
        assert!(err.message.contains("not supported"), "{err}");
        let err = lex("let s = \"runaway").unwrap_err();
        assert!(err.message.contains("unterminated string"), "{err}");
        let err = lex("let s = \"multi\nline\"").unwrap_err();
        assert!(err.message.contains("unterminated string"), "{err}");
        // A trailing backslash must not index past end-of-input.
        let err = lex("\"esc\\").unwrap_err();
        assert!(err.message.contains("unterminated string"), "{err}");
    }

    #[test]
    fn lexes_integers() {
        assert_eq!(kinds("42 007"), vec![Tok::Int(42), Tok::Int(7), Tok::Eof]);
    }

    #[test]
    fn keywords_versus_identifiers() {
        assert_eq!(
            kinds("iffy if fnord fn"),
            vec![
                Tok::Ident("iffy"),
                Tok::If,
                Tok::Ident("fnord"),
                Tok::Fn,
                Tok::Eof
            ]
        );
    }
}

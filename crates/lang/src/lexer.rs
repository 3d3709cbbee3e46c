//! Hand-written lexer for KISS-C.
//!
//! Supports `//` line comments and `/* ... */` block comments. The
//! `choice` branch separator is the paper's `[]` notation.

use crate::span::Span;
use crate::token::{Tok, Token};
use crate::{LangError, LangErrorKind};

/// Lexes `src` into a token vector terminated by [`Tok::Eof`].
///
/// # Errors
///
/// Returns a [`LangError`] on unknown characters, malformed numbers, or
/// unterminated block comments.
pub fn lex(src: &str) -> Result<Vec<Token>, LangError> {
    lex_at(src, Span::new(1, 1))
}

/// Lexes `src`, a slice of a larger source that starts at `at` there,
/// so every token carries its position in the whole source.
pub(crate) fn lex_at(src: &str, at: Span) -> Result<Vec<Token>, LangError> {
    Lexer { src, pos: 0, line: at.line, col: at.col }.run()
}

struct Lexer<'a> {
    src: &'a str,
    /// Byte offset into `src`.
    pos: usize,
    line: u32,
    /// Counts chars, not bytes.
    col: u32,
}

impl<'a> Lexer<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos + 1).copied()
    }

    /// Consumes one byte. A UTF-8 continuation byte does not advance
    /// the column, so a multi-byte char counts as one.
    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else if b & 0xC0 != 0x80 {
            self.col += 1;
        }
        Some(b)
    }

    /// Consumes the whole char at `pos`, which must be a char boundary.
    fn bump_char(&mut self) -> Option<char> {
        let b = self.peek()?;
        if b.is_ascii() {
            self.bump();
            return Some(char::from(b));
        }
        let c = self.src[self.pos..].chars().next()?;
        self.pos += c.len_utf8();
        self.col += 1;
        Some(c)
    }

    /// Consumes the longest run of ASCII bytes matching `pred` and
    /// returns it.
    fn bump_ascii_while(&mut self, pred: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        let len =
            self.src.as_bytes()[start..].iter().take_while(|&&b| b.is_ascii() && pred(b)).count();
        self.pos += len;
        self.col += len as u32;
        &self.src[start..self.pos]
    }

    fn span(&self) -> Span {
        Span::new(self.line, self.col)
    }

    fn error(&self, msg: impl Into<String>) -> LangError {
        error_at(self.span(), msg)
    }

    fn run(mut self) -> Result<Vec<Token>, LangError> {
        let mut out = Vec::new();
        loop {
            self.skip_trivia()?;
            let span = self.span();
            let Some(c) = self.peek() else {
                out.push(Token { tok: Tok::Eof, span });
                return Ok(out);
            };
            let tok = match c {
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.lex_word(),
                b'0'..=b'9' => self.lex_number(span)?,
                _ => self.lex_symbol(span)?,
            };
            out.push(Token { tok, span });
        }
    }

    fn skip_trivia(&mut self) -> Result<(), LangError> {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii() && char::from(b).is_whitespace() => {
                    self.bump();
                }
                Some(b)
                    if !b.is_ascii() && self.src[self.pos..].starts_with(char::is_whitespace) =>
                {
                    self.bump_char();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(b) = self.bump() {
                        if b == b'\n' {
                            break;
                        }
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.span();
                    self.bump();
                    self.bump();
                    let mut closed = false;
                    while let Some(b) = self.bump() {
                        if b == b'*' && self.peek() == Some(b'/') {
                            self.bump();
                            closed = true;
                            break;
                        }
                    }
                    if !closed {
                        return Err(LangError::new(
                            LangErrorKind::Lex,
                            "unterminated block comment",
                            Some(start),
                        ));
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn lex_word(&mut self) -> Tok {
        let word = self.bump_ascii_while(|b| b.is_ascii_alphanumeric() || b == b'_');
        Tok::keyword(word).unwrap_or_else(|| Tok::Ident(word.to_string()))
    }

    /// Lexes a literal starting at `start`; an out-of-range literal is
    /// reported there, a letter glued to the digits at that letter.
    fn lex_number(&mut self, start: Span) -> Result<Tok, LangError> {
        let digits = self.bump_ascii_while(|b| b.is_ascii_digit());
        if let Some(b) = self.peek().filter(|b| b.is_ascii_alphabetic() || *b == b'_') {
            return Err(self.error(format!("invalid digit `{}` in number", char::from(b))));
        }
        digits
            .parse::<i64>()
            .map(Tok::Int)
            .map_err(|_| error_at(start, format!("integer literal `{digits}` out of range")))
    }

    /// Lexes a symbol starting at `start`, where its errors point.
    fn lex_symbol(&mut self, start: Span) -> Result<Tok, LangError> {
        let c = self.bump_char().expect("caller checked peek");
        let two = |lexer: &mut Self, next: u8, yes: Tok, no: Tok| {
            if lexer.peek() == Some(next) {
                lexer.bump();
                yes
            } else {
                no
            }
        };
        Ok(match c {
            '(' => Tok::LParen,
            ')' => Tok::RParen,
            '{' => Tok::LBrace,
            '}' => Tok::RBrace,
            ';' => Tok::Semi,
            ',' => Tok::Comma,
            '+' => Tok::Plus,
            '%' => Tok::Percent,
            '*' => Tok::Star,
            '[' => {
                if self.peek() == Some(b']') {
                    self.bump();
                    Tok::BranchSep
                } else {
                    return Err(error_at(start, "expected `]` after `[` (choice separator is `[]`)"));
                }
            }
            '-' => two(self, b'>', Tok::Arrow, Tok::Minus),
            '=' => two(self, b'=', Tok::EqEq, Tok::Assign),
            '!' => two(self, b'=', Tok::NotEq, Tok::Bang),
            '<' => two(self, b'=', Tok::Le, Tok::Lt),
            '>' => two(self, b'=', Tok::Ge, Tok::Gt),
            '&' => two(self, b'&', Tok::AndAnd, Tok::Amp),
            '|' => {
                if self.peek() == Some(b'|') {
                    self.bump();
                    Tok::OrOr
                } else {
                    return Err(error_at(
                        start,
                        "single `|` is not a KISS-C operator (did you mean `||`?)",
                    ));
                }
            }
            other => {
                return Err(error_at(start, format!("unexpected character `{other}`")));
            }
        })
    }
}

fn error_at(span: Span, msg: impl Into<String>) -> LangError {
    LangError::new(LangErrorKind::Lex, msg, Some(span))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_keywords_and_idents() {
        assert_eq!(
            toks("async foo iter"),
            vec![Tok::KwAsync, Tok::Ident("foo".into()), Tok::KwIter, Tok::Eof]
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(toks("0 42 1234"), vec![Tok::Int(0), Tok::Int(42), Tok::Int(1234), Tok::Eof]);
    }

    #[test]
    fn rejects_number_followed_by_letter() {
        assert!(lex("12ab").is_err());
    }

    #[test]
    fn lexes_two_char_operators() {
        assert_eq!(
            toks("== != <= >= && || -> []"),
            vec![
                Tok::EqEq,
                Tok::NotEq,
                Tok::Le,
                Tok::Ge,
                Tok::AndAnd,
                Tok::OrOr,
                Tok::Arrow,
                Tok::BranchSep,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn distinguishes_prefix_of_two_char_operators() {
        assert_eq!(
            toks("= ! < > & - *"),
            vec![Tok::Assign, Tok::Bang, Tok::Lt, Tok::Gt, Tok::Amp, Tok::Minus, Tok::Star, Tok::Eof]
        );
    }

    #[test]
    fn skips_line_and_block_comments() {
        assert_eq!(toks("a // hi\n b /* x\ny */ c"), vec![
            Tok::Ident("a".into()),
            Tok::Ident("b".into()),
            Tok::Ident("c".into()),
            Tok::Eof
        ]);
    }

    #[test]
    fn unterminated_block_comment_is_an_error() {
        let err = lex("x /* oops").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn rejects_single_pipe_and_lone_bracket() {
        assert!(lex("a | b").is_err());
        assert!(lex("a [ b").is_err());
    }

    #[test]
    fn tracks_line_and_column() {
        let tokens = lex("a\n  b").unwrap();
        assert_eq!(tokens[0].span, Span::new(1, 1));
        assert_eq!(tokens[1].span, Span::new(2, 3));
    }

    #[test]
    fn rejects_unknown_character() {
        assert!(lex("#").is_err());
    }

    #[test]
    fn columns_count_chars_not_bytes() {
        let tokens = lex("/* é */ x").unwrap();
        assert_eq!(tokens[0].span, Span::new(1, 9));
        let tokens = lex("x // é\n y").unwrap();
        assert_eq!(tokens[1].span, Span::new(2, 2));
    }

    #[test]
    fn a_stray_non_ascii_char_is_named_whole() {
        // Like every symbol error, the span is the char's own column.
        let err = lex("x é").unwrap_err();
        assert_eq!(err.message, "unexpected character `é`");
        assert_eq!(err.span, Some(Span::new(1, 3)));
        let err = lex("1é").unwrap_err();
        assert_eq!(err.message, "unexpected character `é`");
        assert_eq!(err.span, Some(Span::new(1, 2)));
    }

    fn error_col(src: &str) -> u32 {
        lex(src).unwrap_err().span.expect("lex errors carry a span").col
    }

    #[test]
    fn symbol_errors_point_at_the_offending_token() {
        assert_eq!(error_col("g = 1 # 2;"), 7);
        assert_eq!(error_col("a | b"), 3);
        assert_eq!(error_col("a [ b"), 3);
        assert_eq!(error_col("a [b"), 3);
    }

    #[test]
    fn an_out_of_range_literal_is_reported_at_its_start() {
        let err = lex("g = 99999999999999999999;").unwrap_err();
        assert!(err.message.contains("out of range"), "{err}");
        assert_eq!(err.span, Some(Span::new(1, 5)));
        // A letter glued to the digits is reported where it stands.
        assert_eq!(error_col("g = 12ab;"), 7);
    }

    #[test]
    fn non_ascii_whitespace_is_skipped() {
        let tokens = lex("x\u{a0}y\u{2028}z").unwrap();
        let got: Vec<_> = tokens.into_iter().map(|t| (t.tok, t.span.col)).collect();
        assert_eq!(got, vec![
            (Tok::Ident("x".into()), 1),
            (Tok::Ident("y".into()), 3),
            (Tok::Ident("z".into()), 5),
            (Tok::Eof, 6)
        ]);
        assert_eq!(toks("\u{b}x"), vec![Tok::Ident("x".into()), Tok::Eof]);
    }
}

//! # kiss-lang
//!
//! The **KISS-C** language: a C-like concrete syntax for the parallel
//! language of Figure 3 in *KISS: Keep It Simple and Sequential*
//! (Qadeer & Wu, PLDI 2004), extended with structs/fields, pointers and
//! `malloc`, which the paper states KISS "can handle just as well".
//!
//! The crate provides:
//!
//! * the front end ([`frontend`], [`parse_and_lower`]): a byte scan
//!   splits the source into top-level items; the declarations are
//!   lowered and the bodies `main` reaches
//!   ([`hir::reachable_funcs`]) are lowered in full. A [`ValidBodies`]
//!   memo, one per serve daemon, keeps lowered declaration sets and
//!   remembers bodies validated under the same declarations, stubbing
//!   them when `main` does not reach them; `parse_and_lower` remembers
//!   nothing,
//! * a lexer and recursive-descent parser ([`parse_program`]),
//! * a surface AST ([`ast`]) with `if`/`while` and compound expressions,
//! * a core IR ([`hir`]) that is *exactly* the paper's parallel language
//!   (decisions on variables, `choice`, `iter`, `atomic`, `async`),
//! * lowering/desugaring from surface to core ([`lower`]), following the
//!   encodings of paper Section 3 (`if` becomes `choice{assume(v); ...}`,
//!   `while` becomes `iter{...}`),
//! * well-formedness checks ([`wf`]) enforcing the paper's restrictions
//!   (atomic bodies are free of calls, returns and nested atomics),
//! * a pretty-printer ([`pretty`]) that renders core programs back to
//!   parseable KISS-C source,
//! * a programmatic builder API ([`build`]) used by the KISS
//!   transformation and the synthetic driver corpus, and
//! * the one 128-bit fingerprint hasher ([`fingerprint`]), which keys
//!   remembered bodies here and states and cache entries in the crates
//!   above.
//!
//! ```
//! let src = r#"
//!     int g;
//!     void main() { g = 1; assert g == 1; }
//! "#;
//! let program = kiss_lang::parse_and_lower(src).expect("valid program");
//! assert_eq!(program.funcs.len(), 1);
//! ```

pub mod ast;
pub mod build;
pub mod fingerprint;
pub mod frontend;
pub mod hir;
mod items;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod pretty;
pub mod span;
pub mod token;
pub mod wf;

pub use ast::Program as AstProgram;
pub use frontend::{BodyCounts, ValidBodies};
pub use hir::{FuncId, GlobalId, LocalId, Program, StructId};
pub use span::{Span, Spanned};

use std::fmt;

/// Any error produced while turning source text into a checked core
/// program: lexing, parsing, lowering/resolution, or well-formedness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LangError {
    /// Which stage rejected the input.
    pub kind: LangErrorKind,
    /// Human-readable description.
    pub message: String,
    /// Source location, when known.
    pub span: Option<Span>,
}

/// The pipeline stage an error originated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LangErrorKind {
    /// Invalid token stream.
    Lex,
    /// Syntax error.
    Parse,
    /// Name-resolution or desugaring error.
    Lower,
    /// Structural restriction violated (e.g. call inside `atomic`).
    WellFormedness,
}

impl LangError {
    pub(crate) fn new(kind: LangErrorKind, message: impl Into<String>, span: Option<Span>) -> Self {
        LangError { kind, message: message.into(), span }
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stage = match self.kind {
            LangErrorKind::Lex => "lex error",
            LangErrorKind::Parse => "parse error",
            LangErrorKind::Lower => "lowering error",
            LangErrorKind::WellFormedness => "well-formedness error",
        };
        match self.span {
            Some(sp) => write!(f, "{stage} at {}:{}: {}", sp.line, sp.col, self.message),
            None => write!(f, "{stage}: {}", self.message),
        }
    }
}

impl std::error::Error for LangError {}

/// Parses KISS-C source text into the surface AST.
///
/// # Errors
///
/// Returns a [`LangError`] with kind [`LangErrorKind::Lex`] or
/// [`LangErrorKind::Parse`] on malformed input.
pub fn parse_program(src: &str) -> Result<ast::Program, LangError> {
    let tokens = lexer::lex(src)?;
    parser::Parser::new(tokens).parse_program()
}

/// Parses, lowers and well-formedness-checks KISS-C source, producing a
/// core [`hir::Program`] ready for execution or transformation.
///
/// This is the [`frontend`] with nothing remembered: every function
/// body arrives in full.
///
/// # Errors
///
/// Returns the first error from any pipeline stage.
pub fn parse_and_lower(src: &str) -> Result<hir::Program, LangError> {
    frontend::front_end(src, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_includes_stage_and_location() {
        let e = LangError::new(LangErrorKind::Parse, "unexpected token", Some(Span::new(3, 7)));
        assert_eq!(e.to_string(), "parse error at 3:7: unexpected token");
        let e = LangError::new(LangErrorKind::Lower, "unknown variable", None);
        assert_eq!(e.to_string(), "lowering error: unknown variable");
    }

    #[test]
    fn parse_and_lower_smoke() {
        let p = parse_and_lower("void main() { skip; }").unwrap();
        assert_eq!(p.funcs.len(), 1);
        assert_eq!(p.funcs[p.main.0 as usize].name, "main");
    }

    #[test]
    fn parse_and_lower_rejects_garbage() {
        assert!(parse_and_lower("void main( {").is_err());
        assert!(parse_and_lower("@@@").is_err());
    }
}

//! Recursive-descent parser for KISS-C.

use crate::ast::*;
use crate::span::Span;
use crate::token::{Tok, Token};
use crate::{LangError, LangErrorKind};

/// A top-level declaration: a function's is its header alone.
pub(crate) enum Decl {
    Struct(StructDef),
    Global(VarDecl),
    Func(FuncDef),
}

/// The parser state: a token stream with one-token lookahead helpers.
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    /// Creates a parser over a lexed token stream (must end in `Eof`).
    pub fn new(tokens: Vec<Token>) -> Self {
        Parser { tokens, pos: 0 }
    }

    fn peek(&self) -> &Tok {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].tok
    }

    fn peek_at(&self, offset: usize) -> &Tok {
        &self.tokens[(self.pos + offset).min(self.tokens.len() - 1)].tok
    }

    fn span(&self) -> Span {
        self.tokens[self.pos.min(self.tokens.len() - 1)].span
    }

    /// Moves past the current token (never past `Eof`). Lookahead only
    /// goes forward, so a consumed token is never read again.
    fn bump(&mut self) {
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
    }

    fn eat(&mut self, expected: &Tok) -> Result<(), LangError> {
        if self.peek() == expected {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected {}, found {}", expected.describe(), self.peek().describe())))
        }
    }

    /// Consumes an identifier, moving its name out of the token.
    fn eat_ident(&mut self) -> Result<String, LangError> {
        let at = self.pos.min(self.tokens.len() - 1);
        if let Tok::Ident(name) = &mut self.tokens[at].tok {
            let name = std::mem::take(name);
            self.bump();
            return Ok(name);
        }
        Err(self.error(format!("expected identifier, found {}", self.peek().describe())))
    }

    fn error(&self, msg: impl Into<String>) -> LangError {
        LangError::new(LangErrorKind::Parse, msg, Some(self.span()))
    }

    /// Parses a whole program.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error encountered.
    pub fn parse_program(mut self) -> Result<Program, LangError> {
        let mut program = Program::default();
        while self.peek() != &Tok::Eof {
            match self.parse_decl()? {
                Decl::Struct(s) => program.structs.push(s),
                Decl::Global(g) => program.globals.push(g),
                Decl::Func(mut f) => {
                    (f.locals, f.body) = self.parse_body()?;
                    program.funcs.push(f);
                }
            }
        }
        Ok(program)
    }

    /// Parses the whole stream as one declaration item: a struct, a
    /// global, or a function header whose body is a separate item.
    pub(crate) fn parse_decl_item(mut self) -> Result<Decl, LangError> {
        let decl = self.parse_decl()?;
        self.eat(&Tok::Eof)?;
        Ok(decl)
    }

    /// Parses the whole stream as one function body item: its local
    /// declarations and its statements.
    pub(crate) fn parse_body_item(mut self) -> Result<(Vec<VarDecl>, Vec<Stmt>), LangError> {
        let body = self.parse_body()?;
        self.eat(&Tok::Eof)?;
        Ok(body)
    }

    /// One top-level declaration; a function stops before its body.
    fn parse_decl(&mut self) -> Result<Decl, LangError> {
        if self.peek() == &Tok::KwStruct {
            return Ok(Decl::Struct(self.parse_struct()?));
        }
        // A global declaration or a function definition: both start
        // with a type (or `void`), then a name.
        let span = self.span();
        let ret = if self.peek() == &Tok::KwVoid {
            self.bump();
            None
        } else {
            Some(self.parse_type()?)
        };
        let name = self.eat_ident()?;
        if self.peek() == &Tok::LParen {
            let params = self.parse_params()?;
            return Ok(Decl::Func(FuncDef { name, ret, params, locals: Vec::new(), body: Vec::new(), span }));
        }
        let ty = ret.ok_or_else(|| self.error("global variables cannot have type `void`"))?;
        let init = if self.peek() == &Tok::Assign {
            self.bump();
            Some(self.parse_expr()?)
        } else {
            None
        };
        self.eat(&Tok::Semi)?;
        Ok(Decl::Global(VarDecl { name, ty, init, span }))
    }

    fn parse_struct(&mut self) -> Result<StructDef, LangError> {
        let span = self.span();
        self.eat(&Tok::KwStruct)?;
        let name = self.eat_ident()?;
        self.eat(&Tok::LBrace)?;
        let mut fields = Vec::new();
        while self.peek() != &Tok::RBrace {
            fields.push(self.parse_var_decl()?);
        }
        self.eat(&Tok::RBrace)?;
        // Optional trailing `;` after the struct, C style.
        if self.peek() == &Tok::Semi {
            self.bump();
        }
        Ok(StructDef { name, fields, span })
    }

    fn parse_type(&mut self) -> Result<Type, LangError> {
        let mut ty = match self.peek() {
            Tok::KwInt => {
                self.bump();
                Type::Int
            }
            Tok::KwBool => {
                self.bump();
                Type::Bool
            }
            Tok::KwFn => {
                self.bump();
                Type::Fn
            }
            Tok::Ident(_) => Type::Named(self.eat_ident()?),
            other => return Err(self.error(format!("expected a type, found {}", other.describe()))),
        };
        while self.peek() == &Tok::Star {
            self.bump();
            ty = Type::Ptr(Box::new(ty));
        }
        Ok(ty)
    }

    fn parse_var_decl(&mut self) -> Result<VarDecl, LangError> {
        let span = self.span();
        let ty = self.parse_type()?;
        let name = self.eat_ident()?;
        self.eat(&Tok::Semi)?;
        Ok(VarDecl { name, ty, init: None, span })
    }

    fn parse_params(&mut self) -> Result<Vec<VarDecl>, LangError> {
        self.eat(&Tok::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &Tok::RParen {
            loop {
                let pspan = self.span();
                let ty = self.parse_type()?;
                let pname = self.eat_ident()?;
                params.push(VarDecl { name: pname, ty, init: None, span: pspan });
                if self.peek() == &Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.eat(&Tok::RParen)?;
        Ok(params)
    }

    fn parse_body(&mut self) -> Result<(Vec<VarDecl>, Vec<Stmt>), LangError> {
        self.eat(&Tok::LBrace)?;
        // Local declarations come first, C89 style.
        let mut locals = Vec::new();
        while self.looks_like_decl() {
            locals.push(self.parse_var_decl()?);
        }
        let body = self.parse_stmts_until_rbrace()?;
        self.eat(&Tok::RBrace)?;
        Ok((locals, body))
    }

    /// Does the upcoming token sequence start a local declaration rather
    /// than a statement? Declarations start with a builtin type keyword,
    /// or with `Ident Ident` / `Ident * Ident` (a struct-typed
    /// declaration), whereas statements starting with an identifier
    /// continue with `=`, `(`, or `->`.
    fn looks_like_decl(&self) -> bool {
        match self.peek() {
            Tok::KwInt | Tok::KwBool | Tok::KwFn => true,
            Tok::Ident(_) => matches!(
                (self.peek_at(1), self.peek_at(2)),
                (Tok::Ident(_), _) | (Tok::Star, Tok::Ident(_))
            ),
            _ => false,
        }
    }

    fn parse_stmts_until_rbrace(&mut self) -> Result<Vec<Stmt>, LangError> {
        let mut out = Vec::new();
        while self.peek() != &Tok::RBrace && self.peek() != &Tok::Eof && self.peek() != &Tok::BranchSep {
            out.push(self.parse_stmt()?);
        }
        Ok(out)
    }

    fn parse_block(&mut self) -> Result<Vec<Stmt>, LangError> {
        self.eat(&Tok::LBrace)?;
        let stmts = self.parse_stmts_until_rbrace()?;
        self.eat(&Tok::RBrace)?;
        Ok(stmts)
    }

    fn parse_stmt(&mut self) -> Result<Stmt, LangError> {
        let span = self.span();
        let kind = match self.peek() {
            Tok::KwSkip => {
                self.bump();
                self.eat(&Tok::Semi)?;
                StmtKind::Skip
            }
            Tok::KwAssert => {
                self.bump();
                let e = self.parse_paren_or_bare_expr()?;
                self.eat(&Tok::Semi)?;
                StmtKind::Assert(e)
            }
            Tok::KwAssume => {
                self.bump();
                let e = self.parse_paren_or_bare_expr()?;
                self.eat(&Tok::Semi)?;
                StmtKind::Assume(e)
            }
            Tok::KwReturn => {
                self.bump();
                let e = if self.peek() == &Tok::Semi { None } else { Some(self.parse_expr()?) };
                self.eat(&Tok::Semi)?;
                StmtKind::Return(e)
            }
            Tok::KwAtomic => {
                self.bump();
                StmtKind::Atomic(self.parse_block()?)
            }
            Tok::KwIter => {
                self.bump();
                StmtKind::Iter(self.parse_block()?)
            }
            Tok::KwChoice => {
                self.bump();
                self.eat(&Tok::LBrace)?;
                let mut branches = vec![self.parse_stmts_until_rbrace()?];
                while self.peek() == &Tok::BranchSep {
                    self.bump();
                    branches.push(self.parse_stmts_until_rbrace()?);
                }
                self.eat(&Tok::RBrace)?;
                StmtKind::Choice(branches)
            }
            Tok::KwIf => {
                self.bump();
                self.eat(&Tok::LParen)?;
                let cond = self.parse_expr()?;
                self.eat(&Tok::RParen)?;
                let then_branch = self.parse_block()?;
                let else_branch = if self.peek() == &Tok::KwElse {
                    self.bump();
                    if self.peek() == &Tok::KwIf {
                        // `else if`: wrap the nested if as a single-statement block.
                        vec![self.parse_stmt()?]
                    } else {
                        self.parse_block()?
                    }
                } else {
                    Vec::new()
                };
                StmtKind::If(cond, then_branch, else_branch)
            }
            Tok::KwWhile => {
                self.bump();
                self.eat(&Tok::LParen)?;
                let cond = self.parse_expr()?;
                self.eat(&Tok::RParen)?;
                StmtKind::While(cond, self.parse_block()?)
            }
            Tok::KwAsync => {
                self.bump();
                let callee = self.eat_ident()?;
                let args = self.parse_call_args()?;
                self.eat(&Tok::Semi)?;
                StmtKind::Async { callee, args }
            }
            Tok::KwBenign => {
                self.bump();
                StmtKind::Benign(Box::new(self.parse_stmt()?))
            }
            Tok::LBrace => StmtKind::Block(self.parse_block()?),
            Tok::Star | Tok::Ident(_) => self.parse_assign_or_call()?,
            other => return Err(self.error(format!("expected a statement, found {}", other.describe()))),
        };
        Ok(Stmt::new(kind, span))
    }

    /// `assert (e);` and `assert e;` are both accepted.
    fn parse_paren_or_bare_expr(&mut self) -> Result<Expr, LangError> {
        self.parse_expr()
    }

    fn parse_call_args(&mut self) -> Result<Vec<Expr>, LangError> {
        self.eat(&Tok::LParen)?;
        let mut args = Vec::new();
        if self.peek() != &Tok::RParen {
            loop {
                args.push(self.parse_expr()?);
                if self.peek() == &Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.eat(&Tok::RParen)?;
        Ok(args)
    }

    fn parse_lvalue(&mut self) -> Result<LValue, LangError> {
        if self.peek() == &Tok::Star {
            self.bump();
            return Ok(LValue::Deref(self.eat_ident()?));
        }
        let name = self.eat_ident()?;
        if self.peek() == &Tok::Arrow {
            self.bump();
            let field = self.eat_ident()?;
            Ok(LValue::Field(name, field))
        } else {
            Ok(LValue::Var(name))
        }
    }

    fn parse_assign_or_call(&mut self) -> Result<StmtKind, LangError> {
        // Call statement without destination: `f(args);`
        if matches!(self.peek(), Tok::Ident(_)) && self.peek_at(1) == &Tok::LParen {
            let callee = self.eat_ident()?;
            let args = self.parse_call_args()?;
            self.eat(&Tok::Semi)?;
            return Ok(StmtKind::Call { dest: None, callee, args });
        }
        let lv = self.parse_lvalue()?;
        self.eat(&Tok::Assign)?;
        // `lv = malloc(Struct);`
        if self.peek() == &Tok::KwMalloc {
            self.bump();
            self.eat(&Tok::LParen)?;
            let sname = self.eat_ident()?;
            self.eat(&Tok::RParen)?;
            self.eat(&Tok::Semi)?;
            return Ok(StmtKind::Malloc(lv, sname));
        }
        // `lv = f(args);`
        if matches!(self.peek(), Tok::Ident(_)) && self.peek_at(1) == &Tok::LParen {
            let callee = self.eat_ident()?;
            let args = self.parse_call_args()?;
            self.eat(&Tok::Semi)?;
            return Ok(StmtKind::Call { dest: Some(lv), callee, args });
        }
        let rhs = self.parse_expr()?;
        self.eat(&Tok::Semi)?;
        Ok(StmtKind::Assign(lv, rhs))
    }

    // ---- expressions ------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr, LangError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.parse_and()?;
        while self.peek() == &Tok::OrOr {
            self.bump();
            let rhs = self.parse_and()?;
            lhs = Expr::Bin(BinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.parse_cmp()?;
        while self.peek() == &Tok::AndAnd {
            self.bump();
            let rhs = self.parse_cmp()?;
            lhs = Expr::Bin(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_cmp(&mut self) -> Result<Expr, LangError> {
        let lhs = self.parse_add()?;
        let op = match self.peek() {
            Tok::EqEq => BinOp::Eq,
            Tok::NotEq => BinOp::Ne,
            Tok::Lt => BinOp::Lt,
            Tok::Le => BinOp::Le,
            Tok::Gt => BinOp::Gt,
            Tok::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.parse_add()?;
        Ok(Expr::Bin(op, Box::new(lhs), Box::new(rhs)))
    }

    fn parse_add(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.parse_mul()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_mul()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_mul(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_unary()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, LangError> {
        match self.peek() {
            Tok::Bang => {
                self.bump();
                Ok(Expr::Un(UnOp::Not, Box::new(self.parse_unary()?)))
            }
            Tok::Minus => {
                self.bump();
                Ok(Expr::Un(UnOp::Neg, Box::new(self.parse_unary()?)))
            }
            Tok::Star => {
                self.bump();
                Ok(Expr::Deref(self.eat_ident()?))
            }
            Tok::Amp => {
                self.bump();
                let name = self.eat_ident()?;
                if self.peek() == &Tok::Arrow {
                    self.bump();
                    let field = self.eat_ident()?;
                    Ok(Expr::AddrOfField(name, field))
                } else {
                    Ok(Expr::AddrOf(name))
                }
            }
            _ => self.parse_primary(),
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, LangError> {
        match self.peek() {
            &Tok::Int(n) => {
                self.bump();
                Ok(Expr::Int(n))
            }
            Tok::KwTrue => {
                self.bump();
                Ok(Expr::Bool(true))
            }
            Tok::KwFalse => {
                self.bump();
                Ok(Expr::Bool(false))
            }
            Tok::KwNull => {
                self.bump();
                Ok(Expr::Null)
            }
            Tok::Ident(_) => {
                let name = self.eat_ident()?;
                if self.peek() == &Tok::Arrow {
                    self.bump();
                    let field = self.eat_ident()?;
                    Ok(Expr::Field(name, field))
                } else {
                    Ok(Expr::Var(name))
                }
            }
            Tok::LParen => {
                self.bump();
                let e = self.parse_expr()?;
                self.eat(&Tok::RParen)?;
                Ok(e)
            }
            other => Err(self.error(format!("expected an expression, found {}", other.describe()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    #[test]
    fn parses_struct_globals_and_function() {
        let p = parse_program(
            "struct D { int x; bool b; }
             int g;
             D *e;
             void main() { skip; }",
        )
        .unwrap();
        assert_eq!(p.structs.len(), 1);
        assert_eq!(p.structs[0].fields.len(), 2);
        assert_eq!(p.globals.len(), 2);
        assert!(matches!(p.globals[1].ty, Type::Ptr(_)));
        assert_eq!(p.funcs.len(), 1);
    }

    #[test]
    fn parses_local_decls_then_statements() {
        let p = parse_program(
            "void main() {
                int x;
                D *p;
                x = 1;
             }",
        )
        .unwrap();
        assert_eq!(p.funcs[0].locals.len(), 2);
        assert_eq!(p.funcs[0].body.len(), 1);
    }

    #[test]
    fn parses_calls_async_and_field_assign() {
        let p = parse_program(
            "void main() {
                int s;
                e->pendingIo = 1;
                async BCSP_PnpStop(e);
                s = BCSP_IoIncrement(e);
                BCSP_IoDecrement(e);
             }",
        )
        .unwrap();
        let body = &p.funcs[0].body;
        assert!(matches!(body[0].kind, StmtKind::Assign(LValue::Field(_, _), _)));
        assert!(matches!(body[1].kind, StmtKind::Async { .. }));
        assert!(matches!(body[2].kind, StmtKind::Call { dest: Some(_), .. }));
        assert!(matches!(body[3].kind, StmtKind::Call { dest: None, .. }));
    }

    #[test]
    fn parses_choice_with_branch_separators() {
        let p = parse_program("void main() { choice { skip; [] skip; skip; [] skip; } }").unwrap();
        match &p.funcs[0].body[0].kind {
            StmtKind::Choice(branches) => {
                assert_eq!(branches.len(), 3);
                assert_eq!(branches[1].len(), 2);
            }
            other => panic!("expected choice, got {other:?}"),
        }
    }

    #[test]
    fn parses_if_else_chains_and_while() {
        let p = parse_program(
            "void main() {
                int x;
                if (x == 0) { x = 1; } else if (x == 1) { x = 2; } else { x = 3; }
                while (x < 10) { x = x + 1; }
             }",
        )
        .unwrap();
        assert!(matches!(p.funcs[0].body[0].kind, StmtKind::If(..)));
        assert!(matches!(p.funcs[0].body[1].kind, StmtKind::While(..)));
    }

    #[test]
    fn parses_atomic_iter_assume_assert() {
        let p = parse_program(
            "void main() {
                atomic { assume *l == 0; *l = 1; }
                iter { skip; }
                assert !stopped;
             }",
        )
        .unwrap();
        assert!(matches!(p.funcs[0].body[0].kind, StmtKind::Atomic(_)));
        assert!(matches!(p.funcs[0].body[1].kind, StmtKind::Iter(_)));
        assert!(matches!(p.funcs[0].body[2].kind, StmtKind::Assert(_)));
    }

    #[test]
    fn parses_malloc_and_addressof() {
        let p = parse_program(
            "void main() {
                D *e;
                int *q;
                e = malloc(D);
                q = &g;
                q = &e->f;
             }",
        )
        .unwrap();
        let body = &p.funcs[0].body;
        assert!(matches!(body[0].kind, StmtKind::Malloc(..)));
        assert!(matches!(body[1].kind, StmtKind::Assign(_, Expr::AddrOf(_))));
        assert!(matches!(body[2].kind, StmtKind::Assign(_, Expr::AddrOfField(..))));
    }

    #[test]
    fn expression_precedence_is_conventional() {
        let p = parse_program("void main() { int x; x = 1 + 2 * 3; }").unwrap();
        match &p.funcs[0].body[0].kind {
            StmtKind::Assign(_, Expr::Bin(BinOp::Add, lhs, rhs)) => {
                assert_eq!(**lhs, Expr::Int(1));
                assert!(matches!(**rhs, Expr::Bin(BinOp::Mul, _, _)));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn comparison_binds_tighter_than_and() {
        let p = parse_program("void main() { bool b; b = x == 0 && y == 1; }").unwrap();
        match &p.funcs[0].body[0].kind {
            StmtKind::Assign(_, Expr::Bin(BinOp::And, _, _)) => {}
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn reports_error_with_location() {
        let err = parse_program("void main() { x = ; }").unwrap_err();
        assert!(err.message.contains("expected an expression"));
        assert!(err.span.is_some());
    }

    #[test]
    fn rejects_void_global() {
        assert!(parse_program("void g;").is_err());
    }

    #[test]
    fn parses_return_with_and_without_value() {
        let p = parse_program("int f() { return -1; } void g() { return; }").unwrap();
        assert!(matches!(p.funcs[0].body[0].kind, StmtKind::Return(Some(_))));
        assert!(matches!(p.funcs[1].body[0].kind, StmtKind::Return(None)));
    }

    #[test]
    fn parses_parenthesised_assert_like_c(){
        let p = parse_program("void main() { assert(x == 0); assume(e->ok); }").unwrap();
        assert!(matches!(p.funcs[0].body[0].kind, StmtKind::Assert(_)));
        assert!(matches!(p.funcs[0].body[1].kind, StmtKind::Assume(Expr::Field(..))));
    }
}

#[cfg(test)]
mod benign_tests {
    use super::*;
    use crate::parse_program;

    #[test]
    fn parses_benign_statement_and_block() {
        let p = parse_program(
            "void main() { int t; benign t = g; benign { g = 1; g = 2; } }",
        )
        .unwrap();
        assert!(matches!(p.funcs[0].body[0].kind, StmtKind::Benign(_)));
        assert!(matches!(p.funcs[0].body[1].kind, StmtKind::Benign(_)));
    }

    #[test]
    fn benign_lowers_to_user_benign_origin() {
        let p = crate::parse_and_lower("int g; void main() { benign g = 1; g = 2; }").unwrap();
        let crate::hir::StmtKind::Seq(ss) = &p.func(p.main).body.kind else { panic!() };
        assert_eq!(ss[0].origin, crate::hir::Origin::UserBenign);
        assert_eq!(ss[1].origin, crate::hir::Origin::User);
    }

    #[test]
    fn benign_round_trips_through_the_printer() {
        let p = crate::parse_and_lower(
            "int g; void main() { int t; benign t = g; benign atomic { g = 1; } g = 3; }",
        )
        .unwrap();
        let text = crate::pretty::print_program(&p);
        assert!(text.contains("benign t = g;"), "{text}");
        let p2 = crate::parse_and_lower(&text).unwrap();
        let text2 = crate::pretty::print_program(&p2);
        assert_eq!(text, text2, "benign must survive a round trip");
    }
}

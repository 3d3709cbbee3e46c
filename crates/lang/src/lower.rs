//! Lowering from the surface AST to the core IR.
//!
//! This performs name resolution and the desugarings of paper Section 3:
//!
//! * `if (v) s1 else s2`  ⇒  `choice { assume(v); s1 [] assume(!v); s2 }`
//! * `while (v) s`        ⇒  `iter { assume(v); s }; assume(!v)`
//! * decisions on compound expressions are first assigned to fresh
//!   variables ("Decisions on an expression can be modeled by first
//!   assigning the expression to a fresh variable").
//!
//! Two decisions deserve a note:
//!
//! * `&&`/`||` are lowered with **short-circuit** semantics via `choice`
//!   + `assume`, so `p != null && p->f` never dereferences null;
//! * a *blocking* `assume` over a compound expression is wrapped in an
//!   `atomic` block so that the expression is re-evaluated each time the
//!   blocked thread retries — matching the intuitive C semantics of
//!   waiting on a condition over shared memory.

use std::collections::HashMap;

use crate::ast;
use crate::hir::{self, Cond, Const, Operand, Origin, Place, Rvalue, Stmt, StmtKind, VarRef};
use crate::span::Span;
use crate::{LangError, LangErrorKind};

/// Lowers a parsed surface program into the core IR.
///
/// # Errors
///
/// Reports unresolved names, field accesses on non-struct-pointer
/// variables, arity mismatches on direct calls, duplicate definitions,
/// and a missing `main`.
pub fn lower(ast: &ast::Program) -> Result<hir::Program, LangError> {
    let headers = ast::Program {
        structs: ast.structs.clone(),
        globals: ast.globals.clone(),
        funcs: ast
            .funcs
            .iter()
            .map(|f| ast::FuncDef {
                name: f.name.clone(),
                ret: f.ret.clone(),
                params: f.params.clone(),
                locals: Vec::new(),
                body: Vec::new(),
                span: f.span,
            })
            .collect(),
    };
    let decls = Decls::new(headers)?;
    let funcs = ast
        .funcs
        .iter()
        .enumerate()
        .map(|(i, f)| decls.lower_func(i, &f.locals, &f.body))
        .collect::<Result<_, _>>()?;
    decls.finish(funcs)
}

/// A program's declarations, lowered: its structs, its globals with
/// their initializers, and its function names and signatures. Every
/// function body lowers against these alone, so the front end can
/// lower bodies one at a time and in any order. It owns the header AST
/// it was built from, so one lowered set can be shared between calls.
#[derive(Debug)]
pub(crate) struct Decls {
    program: hir::Program,
    env: Env,
}

impl Decls {
    /// Lowers the declarations of `ast`, whose functions' locals and
    /// bodies are ignored (they are lowered by [`Decls::lower_func`]).
    pub(crate) fn new(ast: ast::Program) -> Result<Self, LangError> {
        let mut program = hir::Program::default();

        // Structs.
        let mut struct_ids: HashMap<String, hir::StructId> = HashMap::new();
        for s in &ast.structs {
            if struct_ids.contains_key(&s.name) {
                return Err(err(format!("duplicate struct `{}`", s.name), s.span));
            }
            let mut fields = Vec::new();
            for f in &s.fields {
                if fields.iter().any(|(n, _): &(String, _)| n == &f.name) {
                    return Err(err(format!("duplicate field `{}` in struct `{}`", f.name, s.name), f.span));
                }
                fields.push((f.name.clone(), f.ty.clone()));
            }
            struct_ids.insert(s.name.clone(), hir::StructId(program.structs.len() as u32));
            program.structs.push(hir::StructDef { name: s.name.clone(), fields });
        }

        // Globals.
        let mut global_ids: HashMap<String, hir::GlobalId> = HashMap::new();
        // Function signatures before globals' initializers (a global may be
        // initialized to a function name).
        let mut func_ids: HashMap<String, hir::FuncId> = HashMap::new();
        for g in &ast.globals {
            if global_ids.contains_key(&g.name) {
                return Err(err(format!("duplicate global `{}`", g.name), g.span));
            }
            let id = program.add_global(hir::GlobalDef {
                name: g.name.clone(),
                ty: Some(g.ty.clone()),
                init: None,
            });
            global_ids.insert(g.name.clone(), id);
        }
        for f in &ast.funcs {
            if func_ids.contains_key(&f.name) {
                return Err(err(format!("duplicate function `{}`", f.name), f.span));
            }
            if global_ids.contains_key(&f.name) {
                return Err(err(format!("`{}` is defined as both a global and a function", f.name), f.span));
            }
            func_ids.insert(f.name.clone(), hir::FuncId(func_ids.len() as u32));
        }

        // Global initializers must be constants (possibly negated integers
        // or function names).
        for (idx, g) in ast.globals.iter().enumerate() {
            if let Some(init) = &g.init {
                let c = const_expr(init, &func_ids)
                    .ok_or_else(|| err(format!("initializer of `{}` is not a constant", g.name), g.span))?;
                program.globals[idx].init = Some(c);
            }
        }

        let env = Env { struct_ids, global_ids, func_ids, globals: ast.globals, funcs: ast.funcs };
        Ok(Decls { program, env })
    }

    /// The lowered globals, initializers included.
    pub(crate) fn globals(&self) -> &[hir::GlobalDef] {
        &self.program.globals
    }

    /// `main`'s id.
    ///
    /// # Errors
    ///
    /// Fails when there is no `main` or it takes parameters.
    pub(crate) fn main(&self) -> Result<hir::FuncId, LangError> {
        match self.env.func_ids.get("main") {
            Some(&id) if self.env.funcs[id.0 as usize].params.is_empty() => Ok(id),
            Some(_) => Err(err("`main` must take no parameters", Span::synthetic())),
            None => Err(err("program has no `main` function", Span::synthetic())),
        }
    }

    /// Lowers function `f`: its header from the declarations, with the
    /// local declarations and statements of its body.
    pub(crate) fn lower_func(
        &self,
        f: usize,
        locals: &[ast::VarDecl],
        body: &[ast::Stmt],
    ) -> Result<hir::FuncDef, LangError> {
        let mut cx = FnCx::new(&self.env, &self.program, &self.env.funcs[f], locals)?;
        cx.func.body = cx.lower_stmts(body)?;
        Ok(cx.func)
    }

    /// The body-less stand-in for function `f` when nothing runs it:
    /// its name, its parameters as its only locals, and a `skip` body.
    pub(crate) fn stub(&self, f: usize) -> hir::FuncDef {
        let header = &self.env.funcs[f];
        hir::FuncDef {
            name: header.name.clone(),
            param_count: header.params.len() as u32,
            locals: header
                .params
                .iter()
                .map(|p| hir::LocalDef { name: p.name.clone(), ty: Some(p.ty.clone()) })
                .collect(),
            ret: header.ret.clone(),
            body: Stmt::skip(),
        }
    }

    /// The program with `funcs`, one per declared function in order.
    pub(crate) fn finish(&self, funcs: Vec<hir::FuncDef>) -> Result<hir::Program, LangError> {
        Ok(hir::Program {
            structs: self.program.structs.clone(),
            globals: self.program.globals.clone(),
            funcs,
            main: self.main()?,
        })
    }
}

/// Evaluates an initializer expression to a constant, if it is one.
fn const_expr(e: &ast::Expr, func_ids: &HashMap<String, hir::FuncId>) -> Option<Const> {
    match e {
        ast::Expr::Int(n) => Some(Const::Int(*n)),
        ast::Expr::Bool(b) => Some(Const::Bool(*b)),
        ast::Expr::Null => Some(Const::Null),
        ast::Expr::Var(name) => func_ids.get(name).map(|&f| Const::Fn(f)),
        ast::Expr::Un(ast::UnOp::Neg, inner) => match const_expr(inner, func_ids)? {
            Const::Int(n) => Some(Const::Int(-n)),
            _ => None,
        },
        _ => None,
    }
}

fn err(msg: impl Into<String>, span: Span) -> LangError {
    let span = if span.is_synthetic() { None } else { Some(span) };
    LangError::new(LangErrorKind::Lower, msg, span)
}

#[derive(Debug)]
struct Env {
    struct_ids: HashMap<String, hir::StructId>,
    global_ids: HashMap<String, hir::GlobalId>,
    func_ids: HashMap<String, hir::FuncId>,
    globals: Vec<ast::VarDecl>,
    /// Function headers: their locals and bodies are empty.
    funcs: Vec<ast::FuncDef>,
}

/// Per-function lowering context.
struct FnCx<'a> {
    env: &'a Env,
    structs: &'a [hir::StructDef],
    local_ids: HashMap<String, hir::LocalId>,
    func: hir::FuncDef,
    /// Are we lowering inside an `atomic` block?
    in_atomic: bool,
}

impl<'a> FnCx<'a> {
    fn new(
        env: &'a Env,
        program: &'a hir::Program,
        f: &ast::FuncDef,
        decls: &[ast::VarDecl],
    ) -> Result<Self, LangError> {
        let mut local_ids = HashMap::new();
        let mut locals = Vec::new();
        for decl in f.params.iter().chain(decls) {
            if local_ids.contains_key(&decl.name) {
                return Err(err(format!("duplicate local `{}` in `{}`", decl.name, f.name), decl.span));
            }
            local_ids.insert(decl.name.clone(), hir::LocalId(locals.len() as u32));
            locals.push(hir::LocalDef { name: decl.name.clone(), ty: Some(decl.ty.clone()) });
        }
        Ok(FnCx {
            env,
            structs: &program.structs,
            local_ids,
            func: hir::FuncDef {
                name: f.name.clone(),
                param_count: f.params.len() as u32,
                locals,
                ret: f.ret.clone(),
                body: Stmt::skip(),
            },
            in_atomic: false,
        })
    }

    // ---- name resolution --------------------------------------------

    fn lookup_var(&self, name: &str, span: Span) -> Result<VarRef, LangError> {
        if let Some(&id) = self.local_ids.get(name) {
            return Ok(VarRef::Local(id));
        }
        if let Some(&id) = self.env.global_ids.get(name) {
            return Ok(VarRef::Global(id));
        }
        Err(err(format!("unknown variable `{name}`"), span))
    }

    /// The declared type of a variable, if it has one.
    fn var_type(&self, var: VarRef) -> Option<&ast::Type> {
        match var {
            VarRef::Local(id) => self.func.locals[id.0 as usize].ty.as_ref(),
            VarRef::Global(id) => {
                // Globals in `env.globals` are in insertion order, which
                // matches their ids.
                self.env.globals.get(id.0 as usize).map(|d| &d.ty)
            }
        }
    }

    /// Resolves `base->field` to the struct and field index, via the
    /// declared type of `base`.
    fn resolve_field(&self, base: &str, field: &str, span: Span) -> Result<(VarRef, hir::StructId, u32), LangError> {
        let var = self.lookup_var(base, span)?;
        let ty = self.var_type(var).ok_or_else(|| {
            err(format!("cannot resolve `{base}->{field}`: `{base}` has no declared type"), span)
        })?;
        let ast::Type::Ptr(inner) = ty else {
            return Err(err(format!("`{base}` is not a pointer, cannot access field `{field}`"), span));
        };
        let ast::Type::Named(sname) = inner.as_ref() else {
            return Err(err(format!("`{base}` does not point to a struct"), span));
        };
        let sid = *self
            .env
            .struct_ids
            .get(sname)
            .ok_or_else(|| err(format!("unknown struct `{sname}`"), span))?;
        let fidx = self.structs[sid.0 as usize]
            .field_index(field)
            .ok_or_else(|| err(format!("struct `{sname}` has no field `{field}`"), span))?;
        Ok((var, sid, fidx))
    }

    fn fresh_temp(&mut self) -> hir::LocalId {
        self.func.fresh_local("__t")
    }

    // ---- statements ---------------------------------------------------

    fn lower_stmts(&mut self, stmts: &[ast::Stmt]) -> Result<Stmt, LangError> {
        let mut out = Vec::new();
        for s in stmts {
            self.lower_stmt(s, &mut out)?;
        }
        Ok(seq(out))
    }

    fn lower_stmt(&mut self, s: &ast::Stmt, out: &mut Vec<Stmt>) -> Result<(), LangError> {
        let span = s.span;
        match &s.kind {
            ast::StmtKind::Skip => out.push(Stmt::user(StmtKind::Skip, span)),
            ast::StmtKind::Block(body) => {
                let lowered = self.lower_stmts(body)?;
                out.push(lowered);
            }
            ast::StmtKind::Assign(lv, e) => {
                let place = self.lower_lvalue(lv, span)?;
                // Fast path: expressions that map onto a single core
                // assignment keep reads and writes in one statement, so
                // race instrumentation sees them exactly as written.
                if let Some(rv) = self.expr_as_rvalue(e, span)? {
                    out.push(Stmt::user(StmtKind::Assign(place, rv), span));
                } else {
                    let op = self.lower_expr(e, span, out)?;
                    out.push(Stmt::user(StmtKind::Assign(place, Rvalue::Operand(op)), span));
                }
            }
            ast::StmtKind::Malloc(lv, sname) => {
                let place = self.lower_lvalue(lv, span)?;
                let sid = *self
                    .env
                    .struct_ids
                    .get(sname)
                    .ok_or_else(|| err(format!("unknown struct `{sname}` in malloc"), span))?;
                out.push(Stmt::user(StmtKind::Assign(place, Rvalue::Malloc(sid)), span));
            }
            ast::StmtKind::Call { dest, callee, args } => {
                let target = self.lower_callee(callee, args.len(), span)?;
                let args = self.lower_args(args, span, out)?;
                let dest = dest.as_ref().map(|lv| self.lower_lvalue(lv, span)).transpose()?;
                out.push(Stmt::user(StmtKind::Call { dest, target, args }, span));
            }
            ast::StmtKind::Async { callee, args } => {
                let target = self.lower_callee(callee, args.len(), span)?;
                let args = self.lower_args(args, span, out)?;
                out.push(Stmt::user(StmtKind::Async { target, args }, span));
            }
            ast::StmtKind::Assert(e) => {
                let cond = self.lower_cond(e, span, out)?;
                out.push(Stmt::user(StmtKind::Assert(cond), span));
            }
            ast::StmtKind::Assume(e) => {
                // A blocking assume over a compound expression must
                // re-evaluate the expression on each retry; wrap it in an
                // atomic block (unless we are already inside one, where
                // the enclosing transaction retries as a whole).
                if let Some(cond) = self.expr_as_cond(e, span)? {
                    out.push(Stmt::user(StmtKind::Assume(cond), span));
                } else if self.in_atomic {
                    let cond = self.lower_cond(e, span, out)?;
                    out.push(Stmt::user(StmtKind::Assume(cond), span));
                } else {
                    let mut inner = Vec::new();
                    let was = std::mem::replace(&mut self.in_atomic, true);
                    let cond = self.lower_cond(e, span, &mut inner)?;
                    self.in_atomic = was;
                    inner.push(Stmt::user(StmtKind::Assume(cond), span));
                    out.push(Stmt::user(StmtKind::Atomic(Box::new(seq(inner))), span));
                }
            }
            ast::StmtKind::Atomic(body) => {
                let was = std::mem::replace(&mut self.in_atomic, true);
                let lowered = self.lower_stmts(body);
                self.in_atomic = was;
                out.push(Stmt::user(StmtKind::Atomic(Box::new(lowered?)), span));
            }
            ast::StmtKind::If(cond, then_b, else_b) => {
                // choice { assume(v); s1 [] assume(!v); s2 }
                let c = self.lower_cond(cond, span, out)?;
                let mut tb = vec![Stmt::user(StmtKind::Assume(c), span)];
                tb.push(self.lower_stmts(then_b)?);
                let mut eb = vec![Stmt::user(StmtKind::Assume(negate(c)), span)];
                eb.push(self.lower_stmts(else_b)?);
                out.push(Stmt::user(StmtKind::Choice(vec![seq(tb), seq(eb)]), span));
            }
            ast::StmtKind::While(cond, body) => {
                // iter { assume(v); s }; assume(!v) — with the condition
                // recomputed at each test, per the paper's note on
                // modeling decisions on expressions.
                let mut iter_body = Vec::new();
                let c = self.lower_cond(cond, span, &mut iter_body)?;
                iter_body.push(Stmt::user(StmtKind::Assume(c), span));
                iter_body.push(self.lower_stmts(body)?);
                out.push(Stmt::user(StmtKind::Iter(Box::new(seq(iter_body))), span));
                let c_exit = self.lower_cond(cond, span, out)?;
                out.push(Stmt::user(StmtKind::Assume(negate(c_exit)), span));
            }
            ast::StmtKind::Choice(branches) => {
                let mut lowered = Vec::new();
                for b in branches {
                    lowered.push(self.lower_stmts(b)?);
                }
                out.push(Stmt::user(StmtKind::Choice(lowered), span));
            }
            ast::StmtKind::Iter(body) => {
                let lowered = self.lower_stmts(body)?;
                out.push(Stmt::user(StmtKind::Iter(Box::new(lowered)), span));
            }
            ast::StmtKind::Benign(inner) => {
                // Lower the inner statement, then retag every
                // user-originated statement as benign.
                let mut tmp = Vec::new();
                self.lower_stmt(inner, &mut tmp)?;
                for s in &mut tmp {
                    retag_benign(s);
                }
                out.extend(tmp);
            }
            ast::StmtKind::Return(e) => {
                let op = match e {
                    None => None,
                    Some(e) => Some(self.lower_expr(e, span, out)?),
                };
                out.push(Stmt::user(StmtKind::Return(op), span));
            }
        }
        Ok(())
    }

    fn lower_lvalue(&mut self, lv: &ast::LValue, span: Span) -> Result<Place, LangError> {
        Ok(match lv {
            ast::LValue::Var(name) => Place::Var(self.lookup_var(name, span)?),
            ast::LValue::Deref(name) => Place::Deref(self.lookup_var(name, span)?),
            ast::LValue::Field(base, field) => {
                let (var, sid, fidx) = self.resolve_field(base, field, span)?;
                Place::Field(var, sid, fidx)
            }
        })
    }

    fn lower_callee(&mut self, callee: &str, argc: usize, span: Span) -> Result<hir::CallTarget, LangError> {
        // A variable holding a function reference shadows a function of
        // the same name (locals are the common case for `v0()`).
        if self.local_ids.contains_key(callee) || self.env.global_ids.contains_key(callee) {
            return Ok(hir::CallTarget::Indirect(self.lookup_var(callee, span)?));
        }
        if let Some(&fid) = self.env.func_ids.get(callee) {
            let def = &self.env.funcs[fid.0 as usize];
            if def.params.len() != argc {
                return Err(err(
                    format!("`{callee}` takes {} argument(s), {argc} supplied", def.params.len()),
                    span,
                ));
            }
            return Ok(hir::CallTarget::Direct(fid));
        }
        Err(err(format!("unknown function or variable `{callee}` in call"), span))
    }

    fn lower_args(&mut self, args: &[ast::Expr], span: Span, out: &mut Vec<Stmt>) -> Result<Vec<Operand>, LangError> {
        args.iter().map(|a| self.lower_expr(a, span, out)).collect()
    }

    // ---- expressions --------------------------------------------------

    /// If `e` maps directly onto a single-core-statement rvalue, return
    /// it (no temporaries needed).
    fn expr_as_rvalue(&mut self, e: &ast::Expr, span: Span) -> Result<Option<Rvalue>, LangError> {
        Ok(Some(match e {
            ast::Expr::Int(n) => Rvalue::Operand(Operand::Const(Const::Int(*n))),
            ast::Expr::Bool(b) => Rvalue::Operand(Operand::Const(Const::Bool(*b))),
            ast::Expr::Null => Rvalue::Operand(Operand::Const(Const::Null)),
            ast::Expr::Var(name) => Rvalue::Operand(self.name_operand(name, span)?),
            ast::Expr::Deref(name) => Rvalue::Load(Place::Deref(self.lookup_var(name, span)?)),
            ast::Expr::Field(base, field) => {
                let (var, sid, fidx) = self.resolve_field(base, field, span)?;
                Rvalue::Load(Place::Field(var, sid, fidx))
            }
            ast::Expr::AddrOf(name) => Rvalue::AddrOf(self.lookup_var(name, span)?),
            ast::Expr::AddrOfField(base, field) => {
                let (var, sid, fidx) = self.resolve_field(base, field, span)?;
                Rvalue::AddrOfField(var, sid, fidx)
            }
            ast::Expr::Bin(op, lhs, rhs) if !matches!(op, ast::BinOp::And | ast::BinOp::Or) => {
                match (self.expr_as_operand(lhs, span)?, self.expr_as_operand(rhs, span)?) {
                    (Some(a), Some(b)) => Rvalue::BinOp(*op, a, b),
                    _ => return Ok(None),
                }
            }
            ast::Expr::Un(op, inner) => match self.expr_as_operand(inner, span)? {
                Some(a) => Rvalue::UnOp(*op, a),
                None => return Ok(None),
            },
            _ => return Ok(None),
        }))
    }

    /// Literals and plain variables are operands without temporaries.
    fn expr_as_operand(&mut self, e: &ast::Expr, span: Span) -> Result<Option<Operand>, LangError> {
        Ok(match e {
            ast::Expr::Int(n) => Some(Operand::Const(Const::Int(*n))),
            ast::Expr::Bool(b) => Some(Operand::Const(Const::Bool(*b))),
            ast::Expr::Null => Some(Operand::Const(Const::Null)),
            ast::Expr::Var(name) => Some(self.name_operand(name, span)?),
            _ => None,
        })
    }

    /// A name in expression position: a variable read, or a function
    /// used as a value.
    fn name_operand(&mut self, name: &str, span: Span) -> Result<Operand, LangError> {
        if self.local_ids.contains_key(name) || self.env.global_ids.contains_key(name) {
            return Ok(Operand::Var(self.lookup_var(name, span)?));
        }
        if let Some(&fid) = self.env.func_ids.get(name) {
            return Ok(Operand::Const(Const::Fn(fid)));
        }
        Err(err(format!("unknown variable `{name}`"), span))
    }

    /// If `e` is `v` or `!v`, produce a core condition directly.
    fn expr_as_cond(&mut self, e: &ast::Expr, span: Span) -> Result<Option<Cond>, LangError> {
        Ok(match e {
            ast::Expr::Var(name)
                if self.local_ids.contains_key(name) || self.env.global_ids.contains_key(name) =>
            {
                Some(Cond::pos(self.lookup_var(name, span)?))
            }
            ast::Expr::Un(ast::UnOp::Not, inner) => match inner.as_ref() {
                ast::Expr::Var(name)
                    if self.local_ids.contains_key(name) || self.env.global_ids.contains_key(name) =>
                {
                    Some(Cond::neg(self.lookup_var(name, span)?))
                }
                _ => None,
            },
            _ => None,
        })
    }

    /// Lowers an arbitrary expression used as a condition, emitting the
    /// statements that compute it and returning the condition.
    fn lower_cond(&mut self, e: &ast::Expr, span: Span, out: &mut Vec<Stmt>) -> Result<Cond, LangError> {
        if let Some(c) = self.expr_as_cond(e, span)? {
            return Ok(c);
        }
        let op = self.lower_expr(e, span, out)?;
        match op {
            Operand::Var(v) => Ok(Cond::pos(v)),
            Operand::Const(_) => {
                let t = self.fresh_temp();
                out.push(Stmt::user(
                    StmtKind::Assign(Place::Var(VarRef::Local(t)), Rvalue::Operand(op)),
                    span,
                ));
                Ok(Cond::pos(VarRef::Local(t)))
            }
        }
    }

    /// Lowers an expression into an operand, emitting temporaries as
    /// needed.
    fn lower_expr(&mut self, e: &ast::Expr, span: Span, out: &mut Vec<Stmt>) -> Result<Operand, LangError> {
        if let Some(op) = self.expr_as_operand(e, span)? {
            return Ok(op);
        }
        match e {
            ast::Expr::Bin(op @ (ast::BinOp::And | ast::BinOp::Or), lhs, rhs) => {
                // Short-circuit lowering:
                //   r = lhs;
                //   choice { assume(r); r = rhs [] assume(!r) }      (&&)
                //   choice { assume(!r); r = rhs [] assume(r) }      (||)
                let r = self.fresh_temp();
                let rv = VarRef::Local(r);
                let lhs_op = self.lower_expr(lhs, span, out)?;
                out.push(Stmt::user(
                    StmtKind::Assign(Place::Var(rv), Rvalue::Operand(lhs_op)),
                    span,
                ));
                let (enter, skip_cond) = match op {
                    ast::BinOp::And => (Cond::pos(rv), Cond::neg(rv)),
                    _ => (Cond::neg(rv), Cond::pos(rv)),
                };
                let mut eval_branch = vec![Stmt::user(StmtKind::Assume(enter), span)];
                let rhs_op = self.lower_expr(rhs, span, &mut eval_branch)?;
                eval_branch.push(Stmt::user(
                    StmtKind::Assign(Place::Var(rv), Rvalue::Operand(rhs_op)),
                    span,
                ));
                let skip_branch = Stmt::user(StmtKind::Assume(skip_cond), span);
                out.push(Stmt::user(StmtKind::Choice(vec![seq(eval_branch), skip_branch]), span));
                Ok(Operand::Var(rv))
            }
            ast::Expr::Bin(op, lhs, rhs) => {
                let a = self.lower_expr(lhs, span, out)?;
                let b = self.lower_expr(rhs, span, out)?;
                let t = self.fresh_temp();
                out.push(Stmt::user(
                    StmtKind::Assign(Place::Var(VarRef::Local(t)), Rvalue::BinOp(*op, a, b)),
                    span,
                ));
                Ok(Operand::Var(VarRef::Local(t)))
            }
            ast::Expr::Un(op, inner) => {
                let a = self.lower_expr(inner, span, out)?;
                let t = self.fresh_temp();
                out.push(Stmt::user(
                    StmtKind::Assign(Place::Var(VarRef::Local(t)), Rvalue::UnOp(*op, a)),
                    span,
                ));
                Ok(Operand::Var(VarRef::Local(t)))
            }
            ast::Expr::Deref(_) | ast::Expr::Field(_, _) | ast::Expr::AddrOf(_) | ast::Expr::AddrOfField(_, _) => {
                let rv = self
                    .expr_as_rvalue(e, span)?
                    .expect("deref/field/addrof always lower to an rvalue");
                let t = self.fresh_temp();
                out.push(Stmt::user(StmtKind::Assign(Place::Var(VarRef::Local(t)), rv), span));
                Ok(Operand::Var(VarRef::Local(t)))
            }
            ast::Expr::Int(_) | ast::Expr::Bool(_) | ast::Expr::Null | ast::Expr::Var(_) => {
                unreachable!("handled by expr_as_operand")
            }
        }
    }
}

/// Marks a lowered statement tree as benign (race checks suppressed).
fn retag_benign(s: &mut Stmt) {
    if s.origin == Origin::User {
        s.origin = Origin::UserBenign;
    }
    match &mut s.kind {
        StmtKind::Seq(ss) | StmtKind::Choice(ss) => ss.iter_mut().for_each(retag_benign),
        StmtKind::Atomic(b) | StmtKind::Iter(b) => retag_benign(b),
        _ => {}
    }
}

fn negate(c: Cond) -> Cond {
    Cond { var: c.var, negated: !c.negated }
}

/// Wraps statements in a `Seq`, avoiding single-element nesting.
fn seq(mut stmts: Vec<Stmt>) -> Stmt {
    match stmts.len() {
        0 => Stmt::skip(),
        1 => stmts.pop().expect("len checked"),
        _ => Stmt::synth(StmtKind::Seq(stmts), Origin::User),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    fn lower_src(src: &str) -> hir::Program {
        lower(&parse_program(src).unwrap()).unwrap()
    }

    fn lower_err(src: &str) -> LangError {
        lower(&parse_program(src).unwrap()).unwrap_err()
    }

    fn body(p: &hir::Program, name: &str) -> Stmt {
        p.func(p.func_by_name(name).unwrap()).body.clone()
    }

    #[test]
    fn simple_assignment_stays_single_statement() {
        let p = lower_src("struct D { int f; } D *e; void main() { int x; x = e->f; e->f = x + 1; }");
        let StmtKind::Seq(ss) = body(&p, "main").kind else { panic!("expected seq") };
        assert!(matches!(ss[0].kind, StmtKind::Assign(Place::Var(_), Rvalue::Load(Place::Field(..)))));
        assert!(matches!(ss[1].kind, StmtKind::Assign(Place::Field(..), Rvalue::BinOp(..))));
    }

    #[test]
    fn if_desugars_to_choice_assume() {
        let p = lower_src("int g; void main() { bool c; if (c) { g = 1; } else { g = 2; } }");
        // The body is the single lowered `choice` (a plain variable
        // condition needs no preamble).
        let StmtKind::Choice(branches) = body(&p, "main").kind else { panic!("expected choice") };
        let branches = &branches;
        assert_eq!(branches.len(), 2);
        let StmtKind::Seq(tb) = &branches[0].kind else { panic!() };
        assert!(matches!(tb[0].kind, StmtKind::Assume(Cond { negated: false, .. })));
        let StmtKind::Seq(eb) = &branches[1].kind else { panic!() };
        assert!(matches!(eb[0].kind, StmtKind::Assume(Cond { negated: true, .. })));
    }

    #[test]
    fn while_desugars_to_iter_then_negated_assume() {
        let p = lower_src("void main() { int x; while (x < 3) { x = x + 1; } }");
        let StmtKind::Seq(ss) = body(&p, "main").kind else { panic!() };
        assert!(ss.iter().any(|s| matches!(s.kind, StmtKind::Iter(_))));
        assert!(matches!(ss.last().unwrap().kind, StmtKind::Assume(Cond { negated: true, .. })));
    }

    #[test]
    fn compound_condition_computed_into_temp() {
        let p = lower_src("int g; void main() { if (g == 0) { g = 1; } }");
        let f = p.func(p.main);
        // One temp introduced for `g == 0`.
        assert!(f.locals.iter().any(|l| l.name.starts_with("__t")));
    }

    #[test]
    fn short_circuit_and_uses_choice() {
        let p = lower_src("struct D { bool f; } D *e; void main() { bool r; r = e != null && e->f; }");
        let StmtKind::Seq(ss) = body(&p, "main").kind else { panic!() };
        // Lowering must contain a Choice implementing the short-circuit.
        fn has_choice(s: &Stmt) -> bool {
            match &s.kind {
                StmtKind::Choice(_) => true,
                StmtKind::Seq(ss) => ss.iter().any(has_choice),
                StmtKind::Iter(b) | StmtKind::Atomic(b) => has_choice(b),
                _ => false,
            }
        }
        assert!(ss.iter().any(has_choice));
    }

    #[test]
    fn blocking_assume_over_field_wrapped_in_atomic() {
        let p = lower_src("struct D { bool ev; } D *e; void main() { assume e->ev; }");
        let b = body(&p, "main");
        assert!(matches!(b.kind, StmtKind::Atomic(_)), "got {:?}", b.kind);
    }

    #[test]
    fn assume_on_plain_variable_not_wrapped() {
        let p = lower_src("bool v; void main() { assume v; assume !v; }");
        let StmtKind::Seq(ss) = body(&p, "main").kind else { panic!() };
        assert!(matches!(ss[0].kind, StmtKind::Assume(Cond { negated: false, .. })));
        assert!(matches!(ss[1].kind, StmtKind::Assume(Cond { negated: true, .. })));
    }

    #[test]
    fn assume_inside_atomic_not_doubly_wrapped() {
        let p = lower_src("int l; void main() { int *p; p = &l; atomic { assume *p == 0; *p = 1; } }");
        let StmtKind::Seq(ss) = body(&p, "main").kind else { panic!() };
        let StmtKind::Atomic(inner) = &ss.last().unwrap().kind else { panic!("expected atomic") };
        fn has_nested_atomic(s: &Stmt) -> bool {
            match &s.kind {
                StmtKind::Atomic(_) => true,
                StmtKind::Seq(ss) | StmtKind::Choice(ss) => ss.iter().any(has_nested_atomic),
                StmtKind::Iter(b) => has_nested_atomic(b),
                _ => false,
            }
        }
        assert!(!has_nested_atomic(inner));
    }

    #[test]
    fn function_name_becomes_fn_constant() {
        let p = lower_src("void work() { skip; } void main() { fn f; f = work; async f(); }");
        let StmtKind::Seq(ss) = body(&p, "main").kind else { panic!() };
        assert!(matches!(
            ss[0].kind,
            StmtKind::Assign(_, Rvalue::Operand(Operand::Const(Const::Fn(_))))
        ));
        assert!(matches!(ss[1].kind, StmtKind::Async { target: hir::CallTarget::Indirect(_), .. }));
    }

    #[test]
    fn direct_call_checks_arity() {
        let e = lower_err("void f(int a) { skip; } void main() { f(); }");
        assert!(e.message.contains("argument"));
    }

    #[test]
    fn unknown_names_are_errors() {
        assert!(lower_err("void main() { x = 1; }").message.contains("unknown variable"));
        assert!(lower_err("void main() { g(); }").message.contains("unknown function"));
        assert!(lower_err("void main() { int x; x = malloc(S); }").message.contains("unknown struct"));
    }

    #[test]
    fn field_access_requires_struct_pointer_type() {
        let e = lower_err("void main() { int x; int y; y = x->f; }");
        assert!(e.message.contains("not a pointer"));
        let e = lower_err("struct D { int f; } D *e; void main() { int y; y = e->g; }");
        assert!(e.message.contains("no field"));
    }

    #[test]
    fn missing_main_is_an_error() {
        assert!(lower_err("void f() { skip; }").message.contains("no `main`"));
        assert!(lower_err("void main(int x) { skip; }").message.contains("no parameters"));
    }

    #[test]
    fn duplicate_definitions_rejected() {
        assert!(lower_err("int g; int g; void main() { skip; }").message.contains("duplicate global"));
        assert!(lower_err("void f() { skip; } void f() { skip; } void main() { skip; }")
            .message
            .contains("duplicate function"));
        assert!(lower_err("void main() { int x; int x; skip; }").message.contains("duplicate local"));
        assert!(lower_err("struct D { int f; int f; } void main() { skip; }")
            .message
            .contains("duplicate field"));
    }

    #[test]
    fn bluetooth_driver_model_lowers() {
        // The paper's Figure 2, transcribed to KISS-C.
        let src = r#"
            struct DEVICE_EXTENSION { int pendingIo; bool stoppingFlag; bool stoppingEvent; }
            bool stopped;
            DEVICE_EXTENSION *e0;

            void main() {
                DEVICE_EXTENSION *e;
                e = malloc(DEVICE_EXTENSION);
                e->pendingIo = 1;
                e->stoppingFlag = false;
                e->stoppingEvent = false;
                stopped = false;
                e0 = e;
                async BCSP_PnpStop(e);
                BCSP_PnpAdd(e);
            }

            void BCSP_PnpAdd(DEVICE_EXTENSION *e) {
                int status;
                status = BCSP_IoIncrement(e);
                if (status == 0) {
                    assert !stopped;
                }
                BCSP_IoDecrement(e);
            }

            void BCSP_PnpStop(DEVICE_EXTENSION *e) {
                e->stoppingFlag = true;
                BCSP_IoDecrement(e);
                assume e->stoppingEvent;
                stopped = true;
            }

            int BCSP_IoIncrement(DEVICE_EXTENSION *e) {
                if (e->stoppingFlag) { return -1; }
                atomic { e->pendingIo = e->pendingIo + 1; }
                return 0;
            }

            void BCSP_IoDecrement(DEVICE_EXTENSION *e) {
                int pendingIo;
                atomic { e->pendingIo = e->pendingIo - 1; pendingIo = e->pendingIo; }
                if (pendingIo == 0) { e->stoppingEvent = true; }
            }
        "#;
        let p = lower_src(src);
        assert_eq!(p.funcs.len(), 5);
        assert_eq!(p.func(p.func_by_name("BCSP_IoIncrement").unwrap()).ret, Some(hir::Type::Int));
    }
}

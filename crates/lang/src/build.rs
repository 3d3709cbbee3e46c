//! Programmatic construction of core-IR functions.
//!
//! The KISS transformation generates runtime functions (`schedule`,
//! `check_r`, `check_w`, the `Check(s)` entry point) and the driver
//! corpus generator builds harnesses; both use this builder instead of
//! hand-assembling [`Stmt`] trees.

use crate::hir::*;
use crate::span::Span;

/// Shorthand for a global variable reference.
pub fn g(id: GlobalId) -> VarRef {
    VarRef::Global(id)
}

/// Shorthand for a local variable reference.
pub fn l(id: LocalId) -> VarRef {
    VarRef::Local(id)
}

/// Shorthand for a variable operand.
pub fn var(v: VarRef) -> Operand {
    Operand::Var(v)
}

/// Shorthand for an integer constant operand.
pub fn int(n: i64) -> Operand {
    Operand::Const(Const::Int(n))
}

/// Shorthand for a boolean constant operand.
pub fn boolean(b: bool) -> Operand {
    Operand::Const(Const::Bool(b))
}

/// Shorthand for the null constant operand.
pub fn null() -> Operand {
    Operand::Const(Const::Null)
}

/// Shorthand for a function-reference constant operand.
pub fn fnref(f: FuncId) -> Operand {
    Operand::Const(Const::Fn(f))
}

/// A deferred branch body, as [`FnBuilder::choice`] consumes them.
pub type BranchFn<'a> = Box<dyn FnOnce(&mut FnBuilder) + 'a>;

/// Builds a function statement-by-statement.
#[derive(Debug)]
pub struct FnBuilder {
    func: FuncDef,
    stmts: Vec<Stmt>,
    origin: Origin,
}

impl FnBuilder {
    /// Starts a `void` function with named, untyped parameters.
    pub fn new(name: impl Into<String>, params: &[&str]) -> Self {
        let locals = params
            .iter()
            .map(|p| LocalDef { name: (*p).to_string(), ty: None })
            .collect::<Vec<_>>();
        FnBuilder {
            func: FuncDef {
                name: name.into(),
                param_count: locals.len() as u32,
                locals,
                ret: None,
                body: Stmt::skip(),
            },
            stmts: Vec::new(),
            origin: Origin::Harness,
        }
    }

    /// Sets the provenance attached to subsequently-emitted statements.
    pub fn origin(&mut self, origin: Origin) -> &mut Self {
        self.origin = origin;
        self
    }

    /// Declares a named local, returning its id.
    pub fn local(&mut self, name: impl Into<String>) -> LocalId {
        let id = LocalId(self.func.locals.len() as u32);
        self.func.locals.push(LocalDef { name: name.into(), ty: None });
        id
    }

    /// The id of parameter `idx`.
    pub fn param(&self, idx: u32) -> LocalId {
        assert!(idx < self.func.param_count, "parameter index out of range");
        LocalId(idx)
    }

    fn push(&mut self, kind: StmtKind) -> &mut Self {
        self.stmts.push(Stmt { kind, span: Span::synthetic(), origin: self.origin });
        self
    }

    /// Emits a raw, already-constructed statement.
    pub fn stmt(&mut self, s: Stmt) -> &mut Self {
        self.stmts.push(s);
        self
    }

    /// `place = rvalue;`
    pub fn assign(&mut self, place: Place, rvalue: Rvalue) -> &mut Self {
        self.push(StmtKind::Assign(place, rvalue))
    }

    /// `v = operand;`
    pub fn set(&mut self, v: VarRef, op: Operand) -> &mut Self {
        self.assign(Place::Var(v), Rvalue::Operand(op))
    }

    /// `v = a op b;`
    pub fn binop(&mut self, v: VarRef, op: BinOp, a: Operand, b: Operand) -> &mut Self {
        self.assign(Place::Var(v), Rvalue::BinOp(op, a, b))
    }

    /// `assert cond;`
    pub fn assert(&mut self, cond: Cond) -> &mut Self {
        self.push(StmtKind::Assert(cond))
    }

    /// `assume cond;`
    pub fn assume(&mut self, cond: Cond) -> &mut Self {
        self.push(StmtKind::Assume(cond))
    }

    /// `skip;`
    pub fn skip(&mut self) -> &mut Self {
        self.push(StmtKind::Skip)
    }

    /// A synchronous call.
    pub fn call(&mut self, dest: Option<Place>, target: CallTarget, args: Vec<Operand>) -> &mut Self {
        self.push(StmtKind::Call { dest, target, args })
    }

    /// An asynchronous call.
    pub fn spawn(&mut self, target: CallTarget, args: Vec<Operand>) -> &mut Self {
        self.push(StmtKind::Async { target, args })
    }

    /// `return;` / `return op;`
    pub fn ret(&mut self, op: Option<Operand>) -> &mut Self {
        self.push(StmtKind::Return(op))
    }

    /// `atomic { ... }` with the body built by `f`.
    pub fn atomic(&mut self, f: impl FnOnce(&mut Self)) -> &mut Self {
        let body = self.sub(f);
        self.push(StmtKind::Atomic(Box::new(body)))
    }

    /// `iter { ... }` with the body built by `f`.
    pub fn iter(&mut self, f: impl FnOnce(&mut Self)) -> &mut Self {
        let body = self.sub(f);
        self.push(StmtKind::Iter(Box::new(body)))
    }

    /// `choice { b1 [] b2 [] ... }` with each branch built by a closure.
    pub fn choice(&mut self, branches: Vec<BranchFn<'_>>) -> &mut Self {
        let built: Vec<Stmt> = branches.into_iter().map(|b| self.sub(b)).collect();
        self.push(StmtKind::Choice(built))
    }

    /// `if (cond) { then } else { else }` encoded as the paper's
    /// choice/assume desugaring.
    pub fn if_else(
        &mut self,
        cond: Cond,
        then_f: impl FnOnce(&mut Self),
        else_f: impl FnOnce(&mut Self),
    ) -> &mut Self {
        let origin = self.origin;
        let then_b = self.sub(|b| {
            b.assume(cond);
            then_f(b);
        });
        let else_b = self.sub(|b| {
            b.assume(Cond { var: cond.var, negated: !cond.negated });
            else_f(b);
        });
        let _ = origin;
        self.push(StmtKind::Choice(vec![then_b, else_b]))
    }

    /// Builds a nested block with the same locals table.
    fn sub(&mut self, f: impl FnOnce(&mut Self)) -> Stmt {
        let saved = std::mem::take(&mut self.stmts);
        f(self);
        let inner = std::mem::replace(&mut self.stmts, saved);
        seq_of(inner, self.origin)
    }

    /// Finishes the function.
    pub fn finish(mut self) -> FuncDef {
        let origin = self.origin;
        self.func.body = seq_of(std::mem::take(&mut self.stmts), origin);
        self.func
    }
}

fn seq_of(mut stmts: Vec<Stmt>, origin: Origin) -> Stmt {
    match stmts.len() {
        0 => Stmt::synth(StmtKind::Skip, origin),
        1 => stmts.pop().expect("len checked"),
        _ => Stmt::synth(StmtKind::Seq(stmts), origin),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_function_with_locals_and_control_flow() {
        let mut b = FnBuilder::new("sched", &["x"]);
        let f = b.local("f");
        let x = b.param(0);
        b.set(l(f), null());
        b.iter(|b| {
            b.if_else(
                Cond::pos(l(f)),
                |b| {
                    b.set(l(x), int(1));
                },
                |b| {
                    b.skip();
                },
            );
        });
        b.ret(None);
        let func = b.finish();
        assert_eq!(func.name, "sched");
        assert_eq!(func.param_count, 1);
        assert_eq!(func.locals.len(), 2);
        let StmtKind::Seq(ss) = &func.body.kind else { panic!("expected seq") };
        assert_eq!(ss.len(), 3);
        assert!(matches!(ss[1].kind, StmtKind::Iter(_)));
    }

    #[test]
    fn choice_builder_produces_branches() {
        let mut b = FnBuilder::new("f", &[]);
        b.choice(vec![
            Box::new(|b: &mut FnBuilder| {
                b.skip();
            }),
            Box::new(|b: &mut FnBuilder| {
                b.ret(None);
            }),
        ]);
        let func = b.finish();
        let StmtKind::Choice(branches) = &func.body.kind else { panic!("expected choice") };
        assert_eq!(branches.len(), 2);
    }

    #[test]
    fn origin_is_attached_to_emitted_statements() {
        let mut b = FnBuilder::new("f", &[]);
        b.origin(Origin::Sched).skip();
        let func = b.finish();
        assert_eq!(func.body.origin, Origin::Sched);
    }

    #[test]
    #[should_panic(expected = "parameter index out of range")]
    fn param_out_of_range_panics() {
        let b = FnBuilder::new("f", &["a"]);
        let _ = b.param(1);
    }
}

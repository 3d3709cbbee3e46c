//! Constraint generation and alias queries over the core IR.

use std::collections::HashMap;

use kiss_lang::hir::{
    CallTarget, Const, FnUse, FuncId, GlobalId, LocalId, Operand, Place, Program, Rvalue, Stmt,
    StmtKind, StructId, VarRef,
};

use crate::unify::{NodeId, PtGraph};

/// An abstract memory location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbsLoc {
    /// A global variable's cell.
    Global(GlobalId),
    /// A local variable's cell (per function).
    Local(FuncId, LocalId),
    /// All `(struct, field)` cells (object-insensitive).
    Field(StructId, u32),
    /// All heap objects of a struct, as a whole (used for `malloc`
    /// pointees; field cells refine this).
    Heap(StructId),
    /// The return-value channel of a function.
    Ret(FuncId),
}

/// The computed analysis.
#[derive(Debug, Clone)]
pub struct AliasAnalysis {
    graph: PtGraph,
    nodes: HashMap<AbsLoc, NodeId>,
}

impl AliasAnalysis {
    /// Runs the analysis over a whole program.
    pub fn run(program: &Program) -> AliasAnalysis {
        let mut cx = Cx {
            graph: PtGraph::new(),
            nodes: HashMap::new(),
            program,
            address_taken_funcs: address_taken_funcs(program),
        };
        for f in 0..program.funcs.len() {
            let fid = FuncId(f as u32);
            cx.walk_stmt(fid, &program.funcs[f].body);
        }
        AliasAnalysis { graph: cx.graph, nodes: cx.nodes }
    }

    fn node(&mut self, loc: AbsLoc) -> NodeId {
        match self.nodes.get(&loc) {
            Some(&n) => n,
            None => {
                let n = self.graph.fresh();
                self.nodes.insert(loc, n);
                n
            }
        }
    }

    /// Whether the cells denoted by two abstract locations may be the
    /// same cell.
    pub fn may_alias(&mut self, a: AbsLoc, b: AbsLoc) -> bool {
        let na = self.node(a);
        let nb = self.node(b);
        self.graph.same(na, nb)
    }

    /// Whether dereferencing `var` (in `func`) may touch `target`.
    pub fn deref_may_touch(&mut self, func: FuncId, var: VarRef, target: AbsLoc) -> bool {
        let v = self.node(var_loc(func, var));
        let p = self.graph.pointee(v);
        let t = self.node(target);
        self.graph.same(p, t)
    }

    /// Whether the *variable cell* `var` itself may be `target` (exact
    /// for globals/locals: cells are distinct unless identical).
    pub fn var_cell_is(&mut self, func: FuncId, var: VarRef, target: AbsLoc) -> bool {
        var_loc(func, var) == target
    }

    /// Whether the field cell `(sid, field)` may be `target`.
    pub fn field_may_touch(&mut self, sid: StructId, field: u32, target: AbsLoc) -> bool {
        let f = self.node(AbsLoc::Field(sid, field));
        let t = self.node(target);
        self.graph.same(f, t)
    }

    /// Number of distinct abstract locations tracked.
    pub fn location_count(&self) -> usize {
        self.nodes.len()
    }
}

/// The abstract location of a variable's own cell.
pub fn var_loc(func: FuncId, var: VarRef) -> AbsLoc {
    match var {
        VarRef::Global(g) => AbsLoc::Global(g),
        VarRef::Local(l) => AbsLoc::Local(func, l),
    }
}

/// The functions used as values — the possible targets of an indirect
/// call — in ascending id order: those named by a global initializer,
/// stored by an assignment, passed as a call or `async` argument, or
/// returned.
fn address_taken_funcs(program: &Program) -> Vec<FuncId> {
    let mut taken = vec![false; program.funcs.len()];
    for g in &program.globals {
        if let Some(Const::Fn(f)) = g.init {
            taken[f.0 as usize] = true;
        }
    }
    for f in &program.funcs {
        f.body.visit_funcs(&mut |g, used| {
            if used == FnUse::Value {
                taken[g.0 as usize] = true;
            }
        });
    }
    (0..program.funcs.len() as u32).map(FuncId).filter(|f| taken[f.0 as usize]).collect()
}

struct Cx<'a> {
    graph: PtGraph,
    nodes: HashMap<AbsLoc, NodeId>,
    program: &'a Program,
    address_taken_funcs: Vec<FuncId>,
}

impl Cx<'_> {
    fn node(&mut self, loc: AbsLoc) -> NodeId {
        match self.nodes.get(&loc) {
            Some(&n) => n,
            None => {
                let n = self.graph.fresh();
                self.nodes.insert(loc, n);
                n
            }
        }
    }

    fn var_node(&mut self, func: FuncId, var: VarRef) -> NodeId {
        self.node(var_loc(func, var))
    }

    /// Node denoting the *cell written by* a place.
    fn place_cell(&mut self, func: FuncId, place: &Place) -> NodeId {
        match place {
            Place::Var(v) => self.var_node(func, *v),
            Place::Deref(v) => {
                let n = self.var_node(func, *v);
                self.graph.pointee(n)
            }
            Place::Field(_, sid, fidx) => self.node(AbsLoc::Field(*sid, *fidx)),
        }
    }

    /// Node whose *pointee class* describes the value of an operand
    /// (only pointer-valued operands matter; scalars get harmless fresh
    /// nodes).
    fn operand_value(&mut self, func: FuncId, op: &Operand) -> NodeId {
        match op {
            Operand::Var(v) => self.var_node(func, *v),
            Operand::Const(_) => self.graph.fresh(),
        }
    }

    fn walk_stmt(&mut self, func: FuncId, s: &Stmt) {
        match &s.kind {
            StmtKind::Seq(ss) | StmtKind::Choice(ss) => {
                for inner in ss {
                    self.walk_stmt(func, inner);
                }
            }
            StmtKind::Atomic(b) | StmtKind::Iter(b) => self.walk_stmt(func, b),
            StmtKind::Assign(place, rv) => self.assign(func, place, rv),
            StmtKind::Call { dest, target, args } => self.call(func, dest.as_ref(), *target, args),
            StmtKind::Async { target, args } => self.call(func, None, *target, args),
            StmtKind::Return(Some(op)) => {
                let v = self.operand_value(func, op);
                let r = self.node(AbsLoc::Ret(func));
                self.graph.unify(v, r);
            }
            _ => {}
        }
    }

    fn assign(&mut self, func: FuncId, place: &Place, rv: &Rvalue) {
        let lhs = self.place_cell(func, place);
        match rv {
            Rvalue::Operand(op) => {
                // lhs = op: the stored value's pointee class merges.
                let v = self.operand_value(func, op);
                let (pl, pv) = (self.graph.pointee(lhs), self.graph.pointee(v));
                self.graph.unify(pl, pv);
            }
            Rvalue::Load(src) => {
                let cell = self.place_cell(func, src);
                let (pl, pc) = (self.graph.pointee(lhs), self.graph.pointee(cell));
                self.graph.unify(pl, pc);
            }
            Rvalue::AddrOf(v) => {
                // lhs = &v: pointee of lhs is v's cell.
                let target = self.var_node(func, *v);
                let pl = self.graph.pointee(lhs);
                self.graph.unify(pl, target);
            }
            Rvalue::AddrOfField(_, sid, fidx) => {
                let target = self.node(AbsLoc::Field(*sid, *fidx));
                let pl = self.graph.pointee(lhs);
                self.graph.unify(pl, target);
            }
            Rvalue::Malloc(sid) => {
                // lhs points to the heap node of the struct; field
                // addresses of that struct also live in its field
                // nodes, which AddrOfField/Place::Field reference
                // directly. Unify the heap node with field 0 so that a
                // pointer to the object aliases its first field (our
                // Addr::Heap{obj, field:0} representation).
                let heap = self.node(AbsLoc::Heap(*sid));
                let f0 = self.node(AbsLoc::Field(*sid, 0));
                self.graph.unify(heap, f0);
                let pl = self.graph.pointee(lhs);
                self.graph.unify(pl, heap);
            }
            Rvalue::BinOp(..) | Rvalue::UnOp(..) => {}
        }
    }

    fn call(&mut self, func: FuncId, dest: Option<&Place>, target: CallTarget, args: &[Operand]) {
        let callees: Vec<FuncId> = match target {
            CallTarget::Direct(f) => vec![f],
            CallTarget::Indirect(_) => self
                .address_taken_funcs
                .iter()
                .copied()
                .filter(|f| self.program.func(*f).param_count as usize == args.len())
                .collect(),
        };
        for callee in callees {
            for (i, arg) in args.iter().enumerate() {
                let a = self.operand_value(func, arg);
                let p = self.var_node(callee, VarRef::Local(LocalId(i as u32)));
                let (pa, pp) = (self.graph.pointee(a), self.graph.pointee(p));
                self.graph.unify(pa, pp);
            }
            if let Some(dest) = dest {
                let d = self.place_cell(func, dest);
                let r = self.node(AbsLoc::Ret(callee));
                let (pd, pr) = (self.graph.pointee(d), self.graph.pointee(r));
                self.graph.unify(pd, pr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiss_lang::parse_and_lower;

    fn analyze(src: &str) -> (AliasAnalysis, Program) {
        let p = parse_and_lower(src).unwrap();
        (AliasAnalysis::run(&p), p)
    }

    #[test]
    fn distinct_globals_do_not_alias() {
        let (mut a, p) = analyze("int x; int y; void main() { x = 1; y = 2; }");
        let gx = AbsLoc::Global(p.global_by_name("x").unwrap());
        let gy = AbsLoc::Global(p.global_by_name("y").unwrap());
        assert!(!a.may_alias(gx, gy));
        assert!(a.may_alias(gx, gx));
    }

    #[test]
    fn pointer_to_global_is_tracked() {
        let (mut a, p) = analyze(
            "int x; int y; int *p;
             void main() { p = &x; *p = 3; }",
        );
        let f = p.main;
        let pvar = VarRef::Global(p.global_by_name("p").unwrap());
        assert!(a.deref_may_touch(f, pvar, AbsLoc::Global(p.global_by_name("x").unwrap())));
        assert!(!a.deref_may_touch(f, pvar, AbsLoc::Global(p.global_by_name("y").unwrap())));
    }

    #[test]
    fn copies_merge_points_to_sets() {
        let (mut a, p) = analyze(
            "int x; int *p; int *q;
             void main() { p = &x; q = p; *q = 1; }",
        );
        let f = p.main;
        let q = VarRef::Global(p.global_by_name("q").unwrap());
        assert!(a.deref_may_touch(f, q, AbsLoc::Global(p.global_by_name("x").unwrap())));
    }

    #[test]
    fn field_cells_are_field_sensitive() {
        let (mut a, p) = analyze(
            "struct D { int f; int g; }
             D *e;
             void main() { e = malloc(D); e->f = 1; e->g = 2; }",
        );
        let sid = p.struct_by_name("D").unwrap();
        assert!(!a.may_alias(AbsLoc::Field(sid, 0), AbsLoc::Field(sid, 1)));
        assert!(a.field_may_touch(sid, 0, AbsLoc::Field(sid, 0)));
        assert!(!a.field_may_touch(sid, 0, AbsLoc::Field(sid, 1)));
    }

    #[test]
    fn address_of_field_flows_through_calls() {
        let (mut a, p) = analyze(
            "struct D { int f; int g; }
             D *e;
             void use(int *q) { *q = 1; }
             void main() { int *r; e = malloc(D); r = &e->g; use(r); }",
        );
        let sid = p.struct_by_name("D").unwrap();
        let use_f = p.func_by_name("use").unwrap();
        let q = VarRef::Local(LocalId(0));
        assert!(a.deref_may_touch(use_f, q, AbsLoc::Field(sid, 1)));
        assert!(!a.deref_may_touch(use_f, q, AbsLoc::Field(sid, 0)));
    }

    #[test]
    fn locals_of_different_functions_are_distinct_cells() {
        let (mut a, p) = analyze(
            "void f() { int x; x = 1; }
             void main() { int x; x = 2; }",
        );
        let f = p.func_by_name("f").unwrap();
        let m = p.main;
        assert!(!a.may_alias(AbsLoc::Local(f, LocalId(0)), AbsLoc::Local(m, LocalId(0))));
        // var_cell_is is exact equality on cells.
        assert!(a.var_cell_is(f, VarRef::Local(LocalId(0)), AbsLoc::Local(f, LocalId(0))));
        assert!(!a.var_cell_is(f, VarRef::Local(LocalId(0)), AbsLoc::Local(m, LocalId(0))));
    }

    #[test]
    fn indirect_calls_conservatively_bind_address_taken_functions() {
        let (mut a, p) = analyze(
            "struct D { int f; }
             D *e;
             void h(D *x) { x->f = 1; }
             void main() { fn g; e = malloc(D); g = h; g(e); }",
        );
        // Parameter x of h may point to the heap of D (via e).
        let h = p.func_by_name("h").unwrap();
        let sid = p.struct_by_name("D").unwrap();
        assert!(a.deref_may_touch(h, VarRef::Local(LocalId(0)), AbsLoc::Field(sid, 0)));
    }

    /// Analyzes a program in which `g(r)`-style indirect calls pass
    /// `r = &z`, and `k` is only ever called directly with `&y`.
    /// Returns whether `h`'s and `k`'s parameter may point to `z`:
    /// `h`'s does exactly when `h` is address-taken, `k`'s never.
    fn params_reach_z(globals: &str, body: &str) -> (bool, bool) {
        let (mut a, p) = analyze(&format!(
            "int z; int y; {globals}
             void h(int *x) {{ *x = 1; }}
             void k(int *x) {{ *x = 2; }}
             void run(fn f, int *p) {{ f(p); }}
             void main() {{ int *r; int *q; fn g; r = &z; q = &y; k(q); {body} }}"
        ));
        let z = AbsLoc::Global(p.global_by_name("z").unwrap());
        let x = VarRef::Local(LocalId(0));
        let h = p.func_by_name("h").unwrap();
        let k = p.func_by_name("k").unwrap();
        (a.deref_may_touch(h, x, z), a.deref_may_touch(k, x, z))
    }

    #[test]
    fn each_use_as_a_value_makes_a_function_address_taken() {
        for (globals, body) in [
            ("fn gf = h;", "gf(r);"),
            ("", "g = h; g(r);"),
            ("", "run(h, r);"),
            ("", "async run(h, r);"),
            ("", "choice { g = h; [] skip; } g(r);"),
            ("", "iter { g = h; } g(r);"),
            ("", "atomic { g = h; } g(r);"),
            ("", "choice { skip; [] run(h, r); }"),
            ("", "iter { async run(h, r); }"),
            ("fn get() { return h; }", "g = get(); g(r);"),
        ] {
            assert_eq!(params_reach_z(globals, body), (true, false), "{globals} {body}");
        }
    }

    #[test]
    fn a_function_only_called_directly_is_not_address_taken() {
        assert_eq!(params_reach_z("", "h(q); g(r);"), (false, false));
    }

    #[test]
    fn return_values_flow_to_destinations() {
        let (mut a, p) = analyze(
            "int x;
             int *mk() { int *r; r = &x; return r; }
             void main() { int *q; q = mk(); *q = 5; }",
        );
        let m = p.main;
        let q = VarRef::Local(LocalId(0));
        assert!(a.deref_may_touch(m, q, AbsLoc::Global(p.global_by_name("x").unwrap())));
    }

    #[test]
    fn unrelated_pointers_stay_unrelated() {
        let (mut a, p) = analyze(
            "int x; int y; int *p; int *q;
             void main() { p = &x; q = &y; *p = 1; *q = 2; }",
        );
        let f = p.main;
        let pv = VarRef::Global(p.global_by_name("p").unwrap());
        let qv = VarRef::Global(p.global_by_name("q").unwrap());
        assert!(!a.deref_may_touch(f, pv, AbsLoc::Global(p.global_by_name("y").unwrap())));
        assert!(!a.deref_may_touch(f, qv, AbsLoc::Global(p.global_by_name("x").unwrap())));
    }

    #[test]
    fn location_count_reflects_tracked_cells() {
        let (a, _) = analyze("int x; void main() { x = 1; }");
        assert!(a.location_count() >= 1);
    }
}

//! Semantics-preserving simplification of core programs.
//!
//! Lowering and the KISS transformation both generate degenerate
//! structure — nested `Seq`s, `skip`s, single-branch `choice`s,
//! constant subexpressions — and driver-scale programs carry large
//! amounts of code the harness never calls. This module provides:
//!
//! * [`simplify`] — statement-level cleanup: `Seq` flattening, `skip`
//!   elimination, single-branch `choice` inlining, constant folding of
//!   pure operators, `iter`/`atomic` over nothing;
//! * [`prune_unreachable`] — removes functions unreachable from `main`
//!   (via direct calls, address-taken functions and global
//!   initializers), remapping all function ids.
//!
//! Both preserve program behaviour exactly (including spans and
//! origins, so KISS trace back-mapping still works).

use std::collections::HashMap;

use crate::ast::{BinOp, UnOp};
use crate::hir::*;

/// Statistics from a simplification run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Statements removed (skips, collapsed sequences).
    pub stmts_removed: usize,
    /// Constant expressions folded.
    pub consts_folded: usize,
    /// Functions removed by reachability pruning.
    pub funcs_pruned: usize,
}

/// Simplifies every function body in place.
pub fn simplify(program: &mut Program) -> OptStats {
    let mut stats = OptStats::default();
    for f in &mut program.funcs {
        let body = std::mem::replace(&mut f.body, Stmt::skip());
        f.body = simplify_stmt(body, &mut stats);
    }
    stats
}

fn is_skip(s: &Stmt) -> bool {
    matches!(s.kind, StmtKind::Skip)
}

fn simplify_stmt(s: Stmt, stats: &mut OptStats) -> Stmt {
    let Stmt { kind, span, origin } = s;
    let kind = match kind {
        StmtKind::Seq(ss) => {
            let mut out: Vec<Stmt> = Vec::with_capacity(ss.len());
            for inner in ss {
                let inner = simplify_stmt(inner, stats);
                match inner.kind {
                    StmtKind::Skip => stats.stmts_removed += 1,
                    StmtKind::Seq(nested) => {
                        stats.stmts_removed += 1;
                        out.extend(nested);
                    }
                    _ => out.push(inner),
                }
            }
            match out.len() {
                0 => StmtKind::Skip,
                1 => return out.pop().expect("len checked"),
                _ => StmtKind::Seq(out),
            }
        }
        StmtKind::Choice(branches) => {
            let branches: Vec<Stmt> =
                branches.into_iter().map(|b| simplify_stmt(b, stats)).collect();
            if branches.len() == 1 {
                stats.stmts_removed += 1;
                return branches.into_iter().next().expect("len checked");
            }
            // choice over all-skip branches is a skip.
            if !branches.is_empty() && branches.iter().all(is_skip) {
                stats.stmts_removed += branches.len();
                StmtKind::Skip
            } else {
                StmtKind::Choice(branches)
            }
        }
        StmtKind::Iter(inner) => {
            let inner = simplify_stmt(*inner, stats);
            if is_skip(&inner) {
                stats.stmts_removed += 1;
                StmtKind::Skip
            } else {
                StmtKind::Iter(Box::new(inner))
            }
        }
        StmtKind::Atomic(inner) => {
            let inner = simplify_stmt(*inner, stats);
            if is_skip(&inner) {
                stats.stmts_removed += 1;
                StmtKind::Skip
            } else {
                StmtKind::Atomic(Box::new(inner))
            }
        }
        StmtKind::Assign(place, rv) => StmtKind::Assign(place, fold_rvalue(rv, stats)),
        other => other,
    };
    Stmt { kind, span, origin }
}

fn fold_rvalue(rv: Rvalue, stats: &mut OptStats) -> Rvalue {
    match rv {
        Rvalue::BinOp(op, Operand::Const(a), Operand::Const(b)) => {
            match fold_binop(op, a, b) {
                Some(c) => {
                    stats.consts_folded += 1;
                    Rvalue::Operand(Operand::Const(c))
                }
                None => rv,
            }
        }
        Rvalue::UnOp(op, Operand::Const(a)) => match fold_unop(op, a) {
            Some(c) => {
                stats.consts_folded += 1;
                Rvalue::Operand(Operand::Const(c))
            }
            None => rv,
        },
        other => other,
    }
}

fn fold_binop(op: BinOp, a: Const, b: Const) -> Option<Const> {
    use Const::*;
    Some(match (op, a, b) {
        (BinOp::Add, Int(x), Int(y)) => Int(x.checked_add(y)?),
        (BinOp::Sub, Int(x), Int(y)) => Int(x.checked_sub(y)?),
        (BinOp::Mul, Int(x), Int(y)) => Int(x.checked_mul(y)?),
        // `%` semantics (rem_euclid, div-by-zero error) stay at runtime.
        (BinOp::Eq, x, y) => Bool(x == y),
        (BinOp::Ne, x, y) => Bool(x != y),
        (BinOp::Lt, Int(x), Int(y)) => Bool(x < y),
        (BinOp::Le, Int(x), Int(y)) => Bool(x <= y),
        (BinOp::Gt, Int(x), Int(y)) => Bool(x > y),
        (BinOp::Ge, Int(x), Int(y)) => Bool(x >= y),
        (BinOp::And, Bool(x), Bool(y)) => Bool(x && y),
        (BinOp::Or, Bool(x), Bool(y)) => Bool(x || y),
        _ => return None,
    })
}

fn fold_unop(op: UnOp, a: Const) -> Option<Const> {
    Some(match (op, a) {
        (UnOp::Not, Const::Bool(b)) => Const::Bool(!b),
        (UnOp::Neg, Const::Int(n)) => Const::Int(n.checked_neg()?),
        _ => return None,
    })
}

/// Removes functions unreachable from `main`, remapping every function
/// id (call targets, function constants in statements and global
/// initializers). Returns updated statistics.
pub fn prune_unreachable(program: &mut Program) -> OptStats {
    let n = program.funcs.len();
    let mut reachable = vec![false; n];
    let mut work = vec![program.main];
    // Functions stored in global initializers may be invoked
    // indirectly.
    for g in &program.globals {
        if let Some(Const::Fn(f)) = g.init {
            work.push(f);
        }
    }
    while let Some(f) = work.pop() {
        if std::mem::replace(&mut reachable[f.0 as usize], true) {
            continue;
        }
        collect_mentions(&program.funcs[f.0 as usize].body, &mut work);
    }

    let mut remap: HashMap<FuncId, FuncId> = HashMap::new();
    let mut kept = Vec::with_capacity(n);
    for (i, f) in std::mem::take(&mut program.funcs).into_iter().enumerate() {
        if reachable[i] {
            remap.insert(FuncId(i as u32), FuncId(kept.len() as u32));
            kept.push(f);
        }
    }
    let pruned = n - kept.len();
    program.funcs = kept;
    program.main = remap[&program.main];
    for g in &mut program.globals {
        if let Some(Const::Fn(f)) = g.init {
            g.init = Some(Const::Fn(remap[&f]));
        }
    }
    for f in &mut program.funcs {
        remap_stmt(&mut f.body, &remap);
    }
    OptStats { funcs_pruned: pruned, ..Default::default() }
}

/// Direct callees and address-taken functions mentioned by a statement.
fn collect_mentions(s: &Stmt, out: &mut Vec<FuncId>) {
    match &s.kind {
        StmtKind::Seq(ss) | StmtKind::Choice(ss) => {
            ss.iter().for_each(|s| collect_mentions(s, out))
        }
        StmtKind::Atomic(b) | StmtKind::Iter(b) => collect_mentions(b, out),
        StmtKind::Assign(_, Rvalue::Operand(Operand::Const(Const::Fn(f)))) => out.push(*f),
        StmtKind::Call { target, args, .. } | StmtKind::Async { target, args, .. } => {
            if let CallTarget::Direct(f) = target {
                out.push(*f);
            }
            for a in args {
                if let Operand::Const(Const::Fn(f)) = a {
                    out.push(*f);
                }
            }
        }
        _ => {}
    }
}

fn remap_operand(op: &mut Operand, remap: &HashMap<FuncId, FuncId>) {
    if let Operand::Const(Const::Fn(f)) = op {
        *f = remap[f];
    }
}

fn remap_stmt(s: &mut Stmt, remap: &HashMap<FuncId, FuncId>) {
    match &mut s.kind {
        StmtKind::Seq(ss) | StmtKind::Choice(ss) => {
            ss.iter_mut().for_each(|s| remap_stmt(s, remap))
        }
        StmtKind::Atomic(b) | StmtKind::Iter(b) => remap_stmt(b, remap),
        StmtKind::Assign(_, Rvalue::Operand(op)) => remap_operand(op, remap),
        StmtKind::Assign(_, Rvalue::BinOp(_, a, b)) => {
            remap_operand(a, remap);
            remap_operand(b, remap);
        }
        StmtKind::Assign(_, Rvalue::UnOp(_, a)) => remap_operand(a, remap),
        StmtKind::Call { target, args, .. } | StmtKind::Async { target, args, .. } => {
            if let CallTarget::Direct(f) = target {
                *f = remap[f];
            }
            args.iter_mut().for_each(|a| remap_operand(a, remap));
        }
        StmtKind::Return(Some(op)) => remap_operand(op, remap),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_and_lower;

    #[test]
    fn flattens_seqs_and_removes_skips() {
        let mut p = parse_and_lower("int g; void main() { skip; { skip; g = 1; } skip; }").unwrap();
        let stats = simplify(&mut p);
        assert!(stats.stmts_removed >= 2);
        let body = &p.func(p.main).body;
        assert!(matches!(body.kind, StmtKind::Assign(..)), "{body:?}");
    }

    #[test]
    fn folds_constants() {
        let mut p = parse_and_lower("int g; bool b; void main() { g = 2 + 3; b = 4 < 2; }").unwrap();
        let stats = simplify(&mut p);
        assert_eq!(stats.consts_folded, 2);
        let StmtKind::Seq(ss) = &p.func(p.main).body.kind else { panic!() };
        assert!(matches!(
            ss[0].kind,
            StmtKind::Assign(_, Rvalue::Operand(Operand::Const(Const::Int(5))))
        ));
        assert!(matches!(
            ss[1].kind,
            StmtKind::Assign(_, Rvalue::Operand(Operand::Const(Const::Bool(false))))
        ));
    }

    #[test]
    fn overflowing_folds_are_left_to_runtime() {
        let max = i64::MAX;
        let mut p =
            parse_and_lower(&format!("int g; void main() {{ g = {max} + 1; }}")).unwrap();
        let stats = simplify(&mut p);
        assert_eq!(stats.consts_folded, 0);
    }

    #[test]
    fn single_branch_choice_inlines() {
        let mut p = parse_and_lower("int g; void main() { choice { g = 1; } }").unwrap();
        simplify(&mut p);
        assert!(matches!(p.func(p.main).body.kind, StmtKind::Assign(..)));
    }

    #[test]
    fn prunes_unreachable_functions_and_remaps_ids() {
        let src = "
            int g;
            void dead1() { g = 9; }
            void used() { g = 1; }
            void dead2() { dead1(); }
            void via_value() { g = 2; }
            void main() { fn f; used(); f = via_value; f(); }
        ";
        let mut p = parse_and_lower(src).unwrap();
        let stats = prune_unreachable(&mut p);
        assert_eq!(stats.funcs_pruned, 2);
        assert!(p.func_by_name("dead1").is_none());
        assert!(p.func_by_name("dead2").is_none());
        assert!(p.func_by_name("used").is_some());
        assert!(p.func_by_name("via_value").is_some());
        // The program still behaves: ids were remapped consistently.
        let text = crate::pretty::print_program(&p);
        let p2 = parse_and_lower(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(p2.funcs.len(), p.funcs.len());
    }

    #[test]
    fn pruning_keeps_functions_reachable_through_global_initializers() {
        let src = "
            void handler() { skip; }
            fn h = handler;
            void main() { h(); }
        ";
        let mut p = parse_and_lower(src).unwrap();
        let stats = prune_unreachable(&mut p);
        assert_eq!(stats.funcs_pruned, 0);
        assert!(p.func_by_name("handler").is_some());
    }

    #[test]
    fn simplify_preserves_verdicts() {
        // Checked behaviourally in kiss-core's opt tests; here just the
        // structural invariant that asserts/assumes survive.
        let src = "int g; void main() { skip; choice { skip; [] skip; } assert g == 0; }";
        let mut p = parse_and_lower(src).unwrap();
        simplify(&mut p);
        fn count_asserts(s: &Stmt) -> usize {
            match &s.kind {
                StmtKind::Assert(_) => 1,
                StmtKind::Seq(ss) | StmtKind::Choice(ss) => ss.iter().map(count_asserts).sum(),
                StmtKind::Atomic(b) | StmtKind::Iter(b) => count_asserts(b),
                _ => 0,
            }
        }
        assert_eq!(count_asserts(&p.func(p.main).body), 1);
    }
}

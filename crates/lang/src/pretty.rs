//! Pretty-printer: renders a core [`Program`] back to parseable KISS-C.
//!
//! The output of [`print_program`] re-parses and re-lowers to a program
//! with identical behaviour; this is checked by round-trip tests. It is
//! also how transformed (sequentialized) programs are displayed in the
//! examples and documentation.

use std::fmt::Write as _;

use crate::hir::*;

/// Renders a whole program as KISS-C source text.
pub fn print_program(p: &Program) -> String {
    let mut out = String::new();
    for s in &p.structs {
        let _ = write!(out, "struct {} {{ ", s.name);
        for (name, ty) in &s.fields {
            let _ = write!(out, "{} {}; ", print_type(ty), name);
        }
        out.push_str("}\n");
    }
    if !p.structs.is_empty() {
        out.push('\n');
    }
    for g in &p.globals {
        let ty = g.ty.as_ref().map(print_type).unwrap_or_else(|| infer_global_type(g));
        match &g.init {
            Some(c) => {
                let _ = writeln!(out, "{} {} = {};", ty, g.name, print_const(c, p));
            }
            None => {
                let _ = writeln!(out, "{} {};", ty, g.name);
            }
        }
    }
    if !p.globals.is_empty() {
        out.push('\n');
    }
    for f in &p.funcs {
        print_func(&mut out, p, f);
        out.push('\n');
    }
    out
}

/// Renders a single statement (used in error reports and docs).
pub fn print_stmt(p: &Program, f: &FuncDef, s: &Stmt) -> String {
    let mut out = String::new();
    let mut pr = Printer { out: &mut out, p, f, indent: 0 };
    pr.stmt(s);
    out.trim_end().to_string()
}

fn infer_global_type(g: &GlobalDef) -> String {
    match g.init {
        Some(Const::Bool(_)) => "bool".into(),
        Some(Const::Fn(_)) | Some(Const::Null) => "fn".into(),
        _ => "int".into(),
    }
}

fn print_type(ty: &Type) -> String {
    match ty {
        Type::Int => "int".into(),
        Type::Bool => "bool".into(),
        Type::Fn => "fn".into(),
        Type::Named(n) => n.clone(),
        Type::Ptr(inner) => format!("{} *", print_type(inner)).replace("* *", "**"),
    }
}

fn print_const(c: &Const, p: &Program) -> String {
    match c {
        Const::Int(n) => n.to_string(),
        Const::Bool(b) => b.to_string(),
        Const::Null => "null".into(),
        Const::Fn(f) => p.func(*f).name.clone(),
    }
}

fn print_func(out: &mut String, p: &Program, f: &FuncDef) {
    let ret = f.ret.as_ref().map_or_else(|| "void".into(), print_type);
    let _ = write!(out, "{ret} {}(", f.name);
    for (i, l) in f.locals.iter().take(f.param_count as usize).enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let ty = l.ty.as_ref().map(print_type).unwrap_or_else(|| "int".into());
        let _ = write!(out, "{ty} {}", l.name);
    }
    out.push_str(") {\n");
    for l in f.locals.iter().skip(f.param_count as usize) {
        let ty = l.ty.as_ref().map(print_type).unwrap_or_else(|| "int".into());
        let _ = writeln!(out, "    {ty} {};", l.name);
    }
    let mut pr = Printer { out, p, f, indent: 1 };
    match &f.body.kind {
        StmtKind::Seq(ss) => {
            for s in ss {
                pr.stmt(s);
            }
        }
        _ => pr.stmt(&f.body),
    }
    out.push_str("}\n");
}

struct Printer<'a> {
    out: &'a mut String,
    p: &'a Program,
    f: &'a FuncDef,
    indent: usize,
}

impl Printer<'_> {
    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn var(&self, v: VarRef) -> String {
        match v {
            VarRef::Global(g) => self.p.globals[g.0 as usize].name.clone(),
            VarRef::Local(l) => self.f.locals[l.0 as usize].name.clone(),
        }
    }

    fn place(&self, pl: &Place) -> String {
        match pl {
            Place::Var(v) => self.var(*v),
            Place::Deref(v) => format!("*{}", self.var(*v)),
            Place::Field(v, sid, fidx) => {
                let field = &self.p.structs[sid.0 as usize].fields[*fidx as usize].0;
                format!("{}->{}", self.var(*v), field)
            }
        }
    }

    fn operand(&self, op: &Operand) -> String {
        match op {
            Operand::Const(c) => print_const(c, self.p),
            Operand::Var(v) => self.var(*v),
        }
    }

    fn rvalue(&self, rv: &Rvalue) -> String {
        match rv {
            Rvalue::Operand(op) => self.operand(op),
            Rvalue::Load(pl) => self.place(pl),
            Rvalue::AddrOf(v) => format!("&{}", self.var(*v)),
            Rvalue::AddrOfField(v, sid, fidx) => {
                let field = &self.p.structs[sid.0 as usize].fields[*fidx as usize].0;
                format!("&{}->{}", self.var(*v), field)
            }
            Rvalue::BinOp(op, a, b) => {
                format!("{} {} {}", self.operand(a), print_binop(*op), self.operand(b))
            }
            Rvalue::UnOp(UnOp::Not, a) => format!("!{}", self.operand(a)),
            Rvalue::UnOp(UnOp::Neg, a) => format!("-{}", self.operand(a)),
            Rvalue::Malloc(sid) => format!("malloc({})", self.p.structs[sid.0 as usize].name),
        }
    }

    fn cond(&self, c: &Cond) -> String {
        if c.negated {
            format!("!{}", self.var(c.var))
        } else {
            self.var(c.var)
        }
    }

    fn target(&self, t: &CallTarget) -> String {
        match t {
            CallTarget::Direct(f) => self.p.func(*f).name.clone(),
            CallTarget::Indirect(v) => self.var(*v),
        }
    }

    fn args(&self, args: &[Operand]) -> String {
        args.iter().map(|a| self.operand(a)).collect::<Vec<_>>().join(", ")
    }

    fn block(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Seq(ss) => {
                for inner in ss {
                    self.stmt(inner);
                }
            }
            _ => self.stmt(s),
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        // `benign` annotations survive printing; composite statements
        // get the keyword on its own line (the grammar allows both).
        if s.origin == kiss_origin_benign() {
            match &s.kind {
                StmtKind::Seq(_) => {}
                StmtKind::Atomic(_) | StmtKind::Choice(_) | StmtKind::Iter(_) => {
                    self.line("benign");
                }
                _ => {
                    return self.benign_simple(s);
                }
            }
        }
        match &s.kind {
            StmtKind::Skip => self.line("skip;"),
            StmtKind::Seq(ss) => {
                for inner in ss {
                    self.stmt(inner);
                }
            }
            StmtKind::Assign(pl, rv) => {
                let text = format!("{} = {};", self.place(pl), self.rvalue(rv));
                self.line(&text);
            }
            StmtKind::Assert(c) => {
                let text = format!("assert {};", self.cond(c));
                self.line(&text);
            }
            StmtKind::Assume(c) => {
                let text = format!("assume {};", self.cond(c));
                self.line(&text);
            }
            StmtKind::Atomic(inner) => {
                self.line("atomic {");
                self.indent += 1;
                self.block(inner);
                self.indent -= 1;
                self.line("}");
            }
            StmtKind::Call { dest, target, args } => {
                let call = format!("{}({})", self.target(target), self.args(args));
                let text = match dest {
                    Some(pl) => format!("{} = {call};", self.place(pl)),
                    None => format!("{call};"),
                };
                self.line(&text);
            }
            StmtKind::Async { target, args } => {
                let text = format!("async {}({});", self.target(target), self.args(args));
                self.line(&text);
            }
            StmtKind::Return(op) => {
                let text = match op {
                    Some(op) => format!("return {};", self.operand(op)),
                    None => "return;".into(),
                };
                self.line(&text);
            }
            StmtKind::Choice(branches) => {
                self.line("choice {");
                self.indent += 1;
                for (i, b) in branches.iter().enumerate() {
                    if i > 0 {
                        self.indent -= 1;
                        self.line("[]");
                        self.indent += 1;
                    }
                    self.block(b);
                }
                self.indent -= 1;
                self.line("}");
            }
            StmtKind::Iter(inner) => {
                self.line("iter {");
                self.indent += 1;
                self.block(inner);
                self.indent -= 1;
                self.line("}");
            }
        }
    }
}

impl Printer<'_> {
    /// Prints a simple statement with the `benign` keyword prefix.
    fn benign_simple(&mut self, s: &Stmt) {
        let mut tmp = String::new();
        {
            let mut inner = Printer { out: &mut tmp, p: self.p, f: self.f, indent: 0 };
            let mut plain = s.clone();
            plain.origin = kiss_lang_user();
            inner.stmt(&plain);
        }
        let text = format!("benign {}", tmp.trim());
        self.line(&text);
    }
}

fn kiss_origin_benign() -> crate::hir::Origin {
    crate::hir::Origin::UserBenign
}

fn kiss_lang_user() -> crate::hir::Origin {
    crate::hir::Origin::User
}

fn print_binop(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Mod => "%",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::And => "&&",
        BinOp::Or => "||",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_and_lower;

    const BLUETOOTH: &str = r#"
        struct DEVICE_EXTENSION { int pendingIo; bool stoppingFlag; bool stoppingEvent; }
        bool stopped;
        void main() {
            DEVICE_EXTENSION *e;
            e = malloc(DEVICE_EXTENSION);
            e->pendingIo = 1;
            stopped = false;
            async BCSP_PnpStop(e);
            BCSP_PnpAdd(e);
        }
        void BCSP_PnpAdd(DEVICE_EXTENSION *e) {
            int status;
            status = BCSP_IoIncrement(e);
            if (status == 0) { assert !stopped; }
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

    #[test]
    fn printed_program_reparses() {
        let p = parse_and_lower(BLUETOOTH).unwrap();
        let text = print_program(&p);
        let p2 = parse_and_lower(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        assert_eq!(p.funcs.len(), p2.funcs.len());
        assert_eq!(p.globals.len(), p2.globals.len());
        assert_eq!(p.structs, p2.structs);
    }

    #[test]
    fn printing_is_idempotent_after_one_round_trip() {
        let p = parse_and_lower(BLUETOOTH).unwrap();
        let text1 = print_program(&p);
        let p2 = parse_and_lower(&text1).unwrap();
        let text2 = print_program(&p2);
        let p3 = parse_and_lower(&text2).unwrap();
        let text3 = print_program(&p3);
        assert_eq!(text2, text3);
    }

    #[test]
    fn return_types_survive_a_round_trip() {
        let src = "struct D { int x; }
            void h() { skip; }
            fn get() { return h; }
            bool b() { return true; }
            D *mk() { D *p; p = malloc(D); return p; }
            int n() { return 1; }
            void main() { skip; }";
        let p = parse_and_lower(src).unwrap();
        let text = print_program(&p);
        for sig in ["void h()", "fn get()", "bool b()", "D * mk()", "int n()", "void main()"] {
            assert!(text.contains(sig), "{sig} missing from:\n{text}");
        }
        let p2 = parse_and_lower(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        let rets = |p: &Program| p.funcs.iter().map(|f| f.ret.clone()).collect::<Vec<_>>();
        assert_eq!(rets(&p), rets(&p2));
        assert_eq!(print_program(&p2), text);
    }

    #[test]
    fn prints_global_initializers() {
        let p = parse_and_lower("int g = 3; bool b = true; fn f = null; void main() { skip; }").unwrap();
        let text = print_program(&p);
        assert!(text.contains("int g = 3;"));
        assert!(text.contains("bool b = true;"));
        assert!(text.contains("fn f = null;"));
        parse_and_lower(&text).unwrap();
    }

    #[test]
    fn prints_choice_with_separators() {
        let p = parse_and_lower("int x; void main() { choice { x = 1; [] x = 2; [] skip; } }").unwrap();
        let text = print_program(&p);
        assert_eq!(text.matches("[]").count(), 2);
        parse_and_lower(&text).unwrap();
    }

    #[test]
    fn print_stmt_renders_single_statement() {
        let p = parse_and_lower("int x; void main() { x = 41 + 1; }").unwrap();
        let f = p.func(p.main);
        let rendered = print_stmt(&p, f, &f.body);
        assert!(rendered.contains("x = 41 + 1;"));
    }
}

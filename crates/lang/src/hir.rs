//! The core IR: the paper's parallel language (Figure 3) with fields.
//!
//! Everything the surface language offers is desugared into this IR by
//! [`crate::lower`]: decisions are taken on variables, `if`/`while` are
//! encoded with `choice`/`assume`/`iter` exactly as Section 3 of the
//! paper prescribes, and compound expressions are flattened into
//! three-address statements over fresh temporaries.
//!
//! The KISS transformation (`kiss-core`) is a `Program -> Program`
//! function over this IR.

use crate::span::Span;
pub use crate::ast::{BinOp, Type, UnOp};

/// Index of a function in [`Program::funcs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FuncId(pub u32);

/// Index of a global variable in [`Program::globals`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

/// Index of a local variable (parameters first) in [`FuncDef::locals`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocalId(pub u32);

/// Index of a struct in [`Program::structs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructId(pub u32);

impl std::fmt::Display for FuncId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fn#{}", self.0)
    }
}

/// A compile-time constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Const {
    /// Integer constant.
    Int(i64),
    /// Boolean constant.
    Bool(bool),
    /// Null pointer / null function reference.
    Null,
    /// A function used as a value (thread start function).
    Fn(FuncId),
}

/// Reference to a variable: either a global or a local of the enclosing
/// function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarRef {
    /// A program global.
    Global(GlobalId),
    /// A local (parameter or declaration) of the current function.
    Local(LocalId),
}

/// An operand: a constant or a variable read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Constant operand.
    Const(Const),
    /// Variable read.
    Var(VarRef),
}

/// A memory location expression that can be written (or loaded).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Place {
    /// The variable itself: `v`.
    Var(VarRef),
    /// The cell the pointer variable points to: `*v`.
    Deref(VarRef),
    /// A struct field through a pointer variable: `v->f`, with the
    /// struct resolved statically from the declared type of `v`.
    Field(VarRef, StructId, u32),
}

/// Right-hand sides of assignments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rvalue {
    /// Copy a constant or a variable: `v0 = c` / `v0 = v1`.
    Operand(Operand),
    /// Load through a pointer: `v0 = *v1` / `v0 = v1->f`.
    Load(Place),
    /// Address of a variable: `v0 = &v1`.
    AddrOf(VarRef),
    /// Address of a field: `v0 = &v1->f`.
    AddrOfField(VarRef, StructId, u32),
    /// Binary operation on operands: `v0 = v1 op v2`.
    BinOp(BinOp, Operand, Operand),
    /// Unary operation: `v0 = !v1` / `v0 = -v1`.
    UnOp(UnOp, Operand),
    /// Heap allocation of a struct: `v0 = malloc(S)`.
    Malloc(StructId),
}

/// A condition for `assert`/`assume`: a (possibly negated) variable, as
/// in the paper ("decisions are made on variables").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cond {
    /// The tested variable.
    pub var: VarRef,
    /// Whether the test is `!var` rather than `var`.
    pub negated: bool,
}

impl Cond {
    /// A positive test of `var`.
    pub fn pos(var: VarRef) -> Self {
        Cond { var, negated: false }
    }

    /// A negated test of `var`.
    pub fn neg(var: VarRef) -> Self {
        Cond { var, negated: true }
    }
}

/// The callee of a (synchronous or asynchronous) call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CallTarget {
    /// Statically-known function.
    Direct(FuncId),
    /// Call through a variable holding a function reference (`v0()`).
    Indirect(VarRef),
}

/// Provenance of a statement: `User` statements come from the original
/// program; the other variants are injected by the KISS transformation
/// and drive error-trace back-mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Origin {
    /// Written by the user (or the corpus generator).
    #[default]
    User,
    /// Written by the user inside a `benign` annotation: exempt from
    /// race instrumentation (the paper's §6 future work on benign
    /// races).
    UserBenign,
    /// Part of the generated `schedule()` machinery.
    Sched,
    /// The `choice { skip [] RAISE }` prologue inserted before
    /// statements.
    RaiseChoice,
    /// The `raise = true; return` statement pair itself.
    Raise,
    /// The `if (raise) return` propagation after a call.
    RaisePropagate,
    /// A call that *starts* executing a forked thread (the `[[f]]()`
    /// inside `schedule()`, or the inline `[[v0]]()` when `ts` is full).
    ThreadStart,
    /// A `check_r`/`check_w` race-instrumentation call.
    Check,
    /// Initialization injected by the `Check(s)` wrapper or a test
    /// harness.
    Harness,
}

impl Origin {
    /// Whether the statement came from the user program (annotated or
    /// not) rather than from KISS instrumentation.
    pub fn is_user(self) -> bool {
        matches!(self, Origin::User | Origin::UserBenign)
    }
}

/// A statement with provenance and source location.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// The statement form.
    pub kind: StmtKind,
    /// Source location (synthetic for generated code).
    pub span: Span,
    /// Provenance.
    pub origin: Origin,
}

impl Stmt {
    /// A user-originated statement at a given span.
    pub fn user(kind: StmtKind, span: Span) -> Self {
        Stmt { kind, span, origin: Origin::User }
    }

    /// A synthesized statement with the given provenance.
    pub fn synth(kind: StmtKind, origin: Origin) -> Self {
        Stmt { kind, span: Span::synthetic(), origin }
    }

    /// A synthesized `skip`.
    pub fn skip() -> Self {
        Stmt::synth(StmtKind::Skip, Origin::User)
    }

    /// Calls `visit` on every function the statement names, with how it
    /// names it. A function used as a value may be the target of any
    /// indirect call, so reachability and the alias analysis share
    /// this one rule.
    pub fn visit_funcs(&self, visit: &mut impl FnMut(FuncId, FnUse)) {
        let mut value = |op: &Operand| {
            if let Operand::Const(Const::Fn(f)) = op {
                visit(*f, FnUse::Value);
            }
        };
        match &self.kind {
            StmtKind::Seq(ss) | StmtKind::Choice(ss) => ss.iter().for_each(|s| s.visit_funcs(visit)),
            StmtKind::Atomic(b) | StmtKind::Iter(b) => b.visit_funcs(visit),
            StmtKind::Assign(_, Rvalue::Operand(op)) | StmtKind::Return(Some(op)) => value(op),
            StmtKind::Call { target, args, .. } | StmtKind::Async { target, args } => {
                args.iter().for_each(&mut value);
                if let CallTarget::Direct(f) = target {
                    visit(*f, FnUse::Callee);
                }
            }
            _ => {}
        }
    }

    /// Whether the statement stores a `malloc` of a struct `pick`
    /// accepts anywhere but a plain variable, `atomic` bodies included.
    pub fn mallocs_to_non_var(&self, pick: &impl Fn(StructId) -> bool) -> bool {
        match &self.kind {
            StmtKind::Assign(place, Rvalue::Malloc(m)) => pick(*m) && !matches!(place, Place::Var(_)),
            StmtKind::Seq(ss) | StmtKind::Choice(ss) => ss.iter().any(|s| s.mallocs_to_non_var(pick)),
            StmtKind::Atomic(b) | StmtKind::Iter(b) => b.mallocs_to_non_var(pick),
            _ => false,
        }
    }
}

/// The functions `main` can run, indexed by id: `main` and every
/// function a global initializer names, closed under the direct calls,
/// `async` targets and function values ([`Stmt::visit_funcs`]) of their
/// bodies. This is the one reachability rule: the front end lowers in
/// full only what it reaches, and the transform instruments only that.
///
/// `body(f, follow)` supplies function `f`'s body by calling `follow`
/// on it; it is called once per reached function, so a caller may lower
/// bodies on demand.
///
/// # Errors
///
/// Returns the first error `body` returns.
pub fn reachable_funcs<E>(
    main: FuncId,
    globals: &[GlobalDef],
    func_count: usize,
    mut body: impl FnMut(FuncId, &mut dyn FnMut(&Stmt)) -> Result<(), E>,
) -> Result<Vec<bool>, E> {
    let mut reachable = vec![false; func_count];
    let mut work = vec![main];
    work.extend(globals.iter().filter_map(|g| match g.init {
        Some(Const::Fn(f)) => Some(f),
        _ => None,
    }));
    while let Some(f) = work.pop() {
        if !std::mem::replace(&mut reachable[f.0 as usize], true) {
            body(f, &mut |s| s.visit_funcs(&mut |g, _| work.push(g)))?;
        }
    }
    Ok(reachable)
}

/// How a statement names a function (see [`Stmt::visit_funcs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FnUse {
    /// The direct target of a call or `async`.
    Callee,
    /// A function constant assigned, passed as an argument or returned.
    Value,
}

/// Statement forms of the core language.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// No-op (`assume(true)` in the paper's notation).
    Skip,
    /// Sequential composition.
    Seq(Vec<Stmt>),
    /// All assignment forms of Figure 3 (plus fields and `malloc`).
    Assign(Place, Rvalue),
    /// `assert(v)` — fails the program if the condition is false.
    Assert(Cond),
    /// `assume(v)` — blocks (concurrently) or prunes the path
    /// (sequentially) if the condition is false.
    Assume(Cond),
    /// `atomic { s }` — executes `s` without interruption.
    Atomic(Box<Stmt>),
    /// Synchronous call `v = v0(args)`.
    Call {
        /// Optional destination for the return value.
        dest: Option<Place>,
        /// Callee.
        target: CallTarget,
        /// Argument operands.
        args: Vec<Operand>,
    },
    /// Asynchronous call `async v0(args)` — forks a thread.
    Async {
        /// Callee (the new thread's start function).
        target: CallTarget,
        /// Argument operands, evaluated at fork time.
        args: Vec<Operand>,
    },
    /// `return` / `return v`.
    Return(Option<Operand>),
    /// Nondeterministic choice between branches.
    Choice(Vec<Stmt>),
    /// Execute the body a nondeterministic number of times.
    Iter(Box<Stmt>),
}

/// A struct definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// Field names and declared types, in declaration order.
    pub fields: Vec<(String, Type)>,
}

impl StructDef {
    /// Finds a field index by name.
    pub fn field_index(&self, name: &str) -> Option<u32> {
        self.fields.iter().position(|(n, _)| n == name).map(|i| i as u32)
    }
}

/// A global variable definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalDef {
    /// Name.
    pub name: String,
    /// Declared type, if written by the user (generated globals may omit
    /// it).
    pub ty: Option<Type>,
    /// Initial value; `None` means the type's default (0 / false /
    /// null).
    pub init: Option<Const>,
}

/// A local variable definition (parameters come first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalDef {
    /// Name.
    pub name: String,
    /// Declared type, if any.
    pub ty: Option<Type>,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDef {
    /// Name.
    pub name: String,
    /// Number of parameters; parameters are `locals[0..param_count]`.
    pub param_count: u32,
    /// All locals: parameters first, then declarations, then
    /// lowering-introduced temporaries.
    pub locals: Vec<LocalDef>,
    /// The declared return type; `None` for `void`.
    pub ret: Option<Type>,
    /// The body.
    pub body: Stmt,
}

impl FuncDef {
    /// Adds a fresh local with the given name prefix, returning its id.
    /// The chosen name never collides with an existing local.
    pub fn fresh_local(&mut self, prefix: &str) -> LocalId {
        let id = LocalId(self.locals.len() as u32);
        let mut n = self.locals.len();
        let name = loop {
            let candidate = format!("{prefix}{n}");
            if self.locals.iter().all(|l| l.name != candidate) {
                break candidate;
            }
            n += 1;
        };
        self.locals.push(LocalDef { name, ty: None });
        id
    }
}

/// A whole core program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Struct definitions.
    pub structs: Vec<StructDef>,
    /// Global variables.
    pub globals: Vec<GlobalDef>,
    /// Functions.
    pub funcs: Vec<FuncDef>,
    /// The entry function.
    pub main: FuncId,
}

impl Program {
    /// Looks up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs.iter().position(|f| f.name == name).map(|i| FuncId(i as u32))
    }

    /// Looks up a global by name.
    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.globals.iter().position(|g| g.name == name).map(|i| GlobalId(i as u32))
    }

    /// Looks up a struct by name.
    pub fn struct_by_name(&self, name: &str) -> Option<StructId> {
        self.structs.iter().position(|s| s.name == name).map(|i| StructId(i as u32))
    }

    /// The function definition for an id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn func(&self, id: FuncId) -> &FuncDef {
        &self.funcs[id.0 as usize]
    }

    /// Mutable access to a function definition.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn func_mut(&mut self, id: FuncId) -> &mut FuncDef {
        &mut self.funcs[id.0 as usize]
    }

    /// Adds a global, returning its id.
    pub fn add_global(&mut self, def: GlobalDef) -> GlobalId {
        let id = GlobalId(self.globals.len() as u32);
        self.globals.push(def);
        id
    }

    /// Adds a function, returning its id.
    pub fn add_func(&mut self, def: FuncDef) -> FuncId {
        let id = FuncId(self.funcs.len() as u32);
        self.funcs.push(def);
        id
    }

    /// Counts statements in the whole program (a simple size metric used
    /// by the CFG-blowup experiment).
    pub fn stmt_count(&self) -> usize {
        fn count(s: &Stmt) -> usize {
            1 + match &s.kind {
                StmtKind::Seq(ss) | StmtKind::Choice(ss) => ss.iter().map(count).sum(),
                StmtKind::Atomic(inner) | StmtKind::Iter(inner) => count(inner),
                _ => 0,
            }
        }
        self.funcs.iter().map(|f| count(&f.body)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_program() -> Program {
        let mut p = Program::default();
        p.structs.push(StructDef {
            name: "D".into(),
            fields: vec![("x".into(), Type::Int), ("ok".into(), Type::Bool)],
        });
        p.add_global(GlobalDef { name: "g".into(), ty: Some(Type::Int), init: None });
        p.add_func(FuncDef {
            name: "main".into(),
            param_count: 0,
            locals: vec![],
            ret: None,
            body: Stmt::skip(),
        });
        p
    }

    #[test]
    fn lookup_by_name_works() {
        let p = small_program();
        assert_eq!(p.func_by_name("main"), Some(FuncId(0)));
        assert_eq!(p.func_by_name("nope"), None);
        assert_eq!(p.global_by_name("g"), Some(GlobalId(0)));
        assert_eq!(p.struct_by_name("D"), Some(StructId(0)));
    }

    #[test]
    fn struct_field_index() {
        let p = small_program();
        assert_eq!(p.structs[0].field_index("ok"), Some(1));
        assert_eq!(p.structs[0].field_index("nope"), None);
    }

    #[test]
    fn fresh_local_names_are_unique() {
        let mut p = small_program();
        let f = p.func_mut(FuncId(0));
        let a = f.fresh_local("__t");
        let b = f.fresh_local("__t");
        assert_ne!(a, b);
        assert_ne!(f.locals[a.0 as usize].name, f.locals[b.0 as usize].name);
    }

    #[test]
    fn stmt_count_recurses_through_composites() {
        let mut p = small_program();
        p.func_mut(FuncId(0)).body = Stmt::synth(
            StmtKind::Seq(vec![
                Stmt::skip(),
                Stmt::synth(StmtKind::Iter(Box::new(Stmt::skip())), Origin::User),
            ]),
            Origin::User,
        );
        // Seq + Skip + Iter + inner Skip = 4.
        assert_eq!(p.stmt_count(), 4);
    }

    #[test]
    fn cond_constructors() {
        let v = VarRef::Global(GlobalId(0));
        assert!(!Cond::pos(v).negated);
        assert!(Cond::neg(v).negated);
    }

    #[test]
    fn origin_user_classification() {
        assert!(Origin::User.is_user());
        assert!(Origin::UserBenign.is_user());
        assert!(!Origin::Sched.is_user());
        assert!(!Origin::Check.is_user());
    }
}

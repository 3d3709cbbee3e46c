//! The KISS source-to-source transformation (paper Section 4 and 5).
//!
//! Given a concurrent core-IR program, produces a *sequential* program
//! `Check(s)` that simulates the concurrent program's stack-disciplined
//! (balanced) executions:
//!
//! * a fresh global `__raise`, plus a `RAISE` (`__raise = true; return`)
//!   branch inserted nondeterministically before statements, lets the
//!   simulation terminate a thread at any point; `if (__raise) return`
//!   after every call propagates the unwinding;
//! * the multiset `ts` of forked-but-unscheduled threads is encoded as
//!   `MAX` triples of fresh globals (`__tsN_fn`, `__tsN_argc`,
//!   `__tsN_argJ`); `async f(a)` stores into the first free slot or —
//!   when full — calls `f` inline (running the forked thread to
//!   completion at the fork point, which is itself balanced);
//! * a generated `__schedule()` pops and runs a nondeterministically
//!   chosen number of pending threads, resetting `__raise` after each;
//!   it is invoked before every statement and once more at the end of
//!   `Check(s)`;
//! * in race mode (Figure 5), a fresh global `__access` ∈ {0,1,2} and
//!   generated `__check_r`/`__check_w` functions record accesses to the
//!   distinguished location and assert the absence of read/write and
//!   write/write conflicts; each check is followed by `RAISE` so a
//!   conflict is only ever reported *across* two simulated threads.
//!   A unification alias analysis (`kiss-alias`) prunes checks that
//!   cannot touch the distinguished location.
//!
//! `Check(s)` runs only what the original `main` reaches: `main`, the
//! functions global initializers name and, transitively, every direct
//! call or `async` target and every function used as a value (assigned,
//! passed or returned, see [`Stmt::visit_funcs`]) in a reachable body.
//! Only those bodies are alias-analysed and instrumented, and so only
//! they are lowered. Every other function keeps its id and signature
//! with an empty body, so ids and trace mapping are unchanged. Reserved
//! names and an unregistrable race target are still checked over the
//! whole program. The reachability rule is kiss-lang's
//! [`reachable_funcs`], the same one the front end lowers by.
//!
//! The front end may hand over, for a function `main` does not reach,
//! the same stub this transform would make of it. So the one read of a
//! function body outside the reachable set, [`Stmt::mallocs_to_non_var`]
//! over every body for an unregistrable race target, is listed with the
//! other whole-program reads in `kiss_lang::frontend`'s docs; the front
//! end never stubs a body it is true of. Reachability, the async arity
//! inventory, the alias analysis and the instrumentation all run on the
//! reachable-only working program.

use kiss_alias::{AbsLoc, AliasAnalysis};
use kiss_lang::build::{self, FnBuilder};
use kiss_lang::hir::{
    reachable_funcs, BinOp, CallTarget, Cond, Const, FuncDef, FuncId, GlobalDef, GlobalId, LocalId,
    Operand, Origin, Place, Program, Rvalue, Stmt, StmtKind, StructId, VarRef,
};
use kiss_lang::Span;
use std::convert::Infallible;

/// The distinguished location checked for races.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceTarget {
    /// A global variable `r`.
    Global(GlobalId),
    /// Field `field` of the *first allocated* instance of a struct —
    /// the device-extension idiom of the paper's driver experiments.
    Field(StructId, u32),
}

impl RaceTarget {
    /// Resolves a `"struct.field"` or `"global"` spec against a
    /// program.
    pub fn resolve(program: &Program, spec: &str) -> Option<RaceTarget> {
        if let Some((sname, fname)) = spec.split_once('.') {
            let sid = program.struct_by_name(sname)?;
            let fidx = program.structs[sid.0 as usize].field_index(fname)?;
            Some(RaceTarget::Field(sid, fidx))
        } else {
            program.global_by_name(spec).map(RaceTarget::Global)
        }
    }

    fn abs_loc(&self) -> AbsLoc {
        match self {
            RaceTarget::Global(g) => AbsLoc::Global(*g),
            RaceTarget::Field(s, f) => AbsLoc::Field(*s, *f),
        }
    }
}

/// Transformation options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransformConfig {
    /// `MAX`, the bound on the `ts` multiset. The paper uses 0 for the
    /// driver race experiments and 1 for the Bluetooth assertion bug.
    pub max_ts: usize,
    /// `Some(target)` selects the race instrumentation of Figure 5.
    pub race: Option<RaceTarget>,
    /// Use the alias analysis to prune race checks (paper Section 5).
    pub alias_prune: bool,
}

impl Default for TransformConfig {
    fn default() -> Self {
        TransformConfig { max_ts: 0, race: None, alias_prune: true }
    }
}

/// Errors the transformation can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformError {
    /// The program already defines a name the transformation needs.
    NameCollision(String),
    /// `malloc` of the race-target struct stores to a non-variable
    /// destination; the address of the distinguished field cannot be
    /// registered.
    UnsupportedMallocDest,
}

impl std::fmt::Display for TransformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransformError::NameCollision(n) => {
                write!(f, "program already defines reserved name `{n}`")
            }
            TransformError::UnsupportedMallocDest => {
                write!(f, "malloc of the race-target struct must assign to a plain variable")
            }
        }
    }
}

impl std::error::Error for TransformError {}

/// One encoded `ts` slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TsSlot {
    /// Global holding the pending thread's start function (null =
    /// empty).
    pub fn_g: GlobalId,
    /// Global holding the stored argument count.
    pub argc_g: GlobalId,
    /// Globals holding the stored arguments.
    pub args_g: Vec<GlobalId>,
}

/// One instrumented access site (race mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceSite {
    /// Source span of the accessing statement.
    pub span: Span,
    /// Whether the access is a write.
    pub is_write: bool,
}

/// The transformation's output.
#[derive(Debug, Clone)]
pub struct Transformed {
    /// The sequential program `Check(s)`.
    pub program: Program,
    /// The generated entry point (`Check`'s body).
    pub entry: FuncId,
    /// The original (now transformed in place) `main`.
    pub orig_main: FuncId,
    /// The generated scheduler, if `max_ts > 0`.
    pub schedule: Option<FuncId>,
    /// Generated `check_r`, in race mode.
    pub check_r: Option<FuncId>,
    /// Generated `check_w`, in race mode.
    pub check_w: Option<FuncId>,
    /// The `__raise` global.
    pub raise: GlobalId,
    /// The `__access` global, in race mode.
    pub access: Option<GlobalId>,
    /// The `__race_addr` global, in race mode.
    pub race_addr: Option<GlobalId>,
    /// The `__access_site` global recording which site performed the
    /// first access, in race mode.
    pub access_site: Option<GlobalId>,
    /// Table of race-check sites, indexed by the site id passed to the
    /// check functions.
    pub race_sites: Vec<RaceSite>,
    /// Encoded `ts` slots.
    pub ts_slots: Vec<TsSlot>,
    /// The configuration used.
    pub config: TransformConfig,
    /// Number of race checks emitted after alias pruning.
    pub checks_emitted: usize,
    /// Number of candidate checks the alias analysis removed, counted
    /// over the functions `main` reaches only (unreachable functions
    /// are not instrumented); `kissc race --stats` prints it as
    /// `pruned=`.
    pub checks_pruned: usize,
}

/// Runs the transformation.
///
/// # Errors
///
/// Fails on reserved-name collisions and unregistrable race targets
/// (see [`TransformError`]).
pub fn transform(program: &Program, config: &TransformConfig) -> Result<Transformed, TransformError> {
    // --- reserved names -------------------------------------------------
    let mut reserved: Vec<String> =
        vec!["__raise".into(), "__access".into(), "__race_addr".into(), "__access_site".into()];
    for i in 0..config.max_ts {
        reserved.push(format!("__ts{i}_fn"));
        reserved.push(format!("__ts{i}_argc"));
    }
    for name in ["__schedule", "__check_r", "__check_w", "__kiss_main"] {
        if program.func_by_name(name).is_some() {
            return Err(TransformError::NameCollision(name.into()));
        }
    }
    for name in &reserved {
        if program.global_by_name(name).is_some() {
            return Err(TransformError::NameCollision(name.clone()));
        }
    }

    // An unregistrable race target fails the check wherever it is, so
    // the instrumenter never meets one.
    if let Some(RaceTarget::Field(sid, _)) = config.race {
        if program.funcs.iter().any(|f| f.body.mallocs_to_non_var(&|m| m == sid)) {
            return Err(TransformError::UnsupportedMallocDest);
        }
    }

    // --- reachable functions ----------------------------------------------
    let reachable = reachable_funcs(program.main, &program.globals, program.funcs.len(), |f, follow| {
        follow(&program.func(f).body);
        Ok::<_, Infallible>(())
    })
    .unwrap_or_else(|never| match never {});
    let funcs = program
        .funcs
        .iter()
        .zip(&reachable)
        .map(|(f, &live)| {
            if live {
                f.clone()
            } else {
                FuncDef {
                    name: f.name.clone(),
                    param_count: f.param_count,
                    locals: f.locals[..f.param_count as usize].to_vec(),
                    ret: f.ret.clone(),
                    body: Stmt::skip(),
                }
            }
        })
        .collect();
    let mut p = Program {
        structs: program.structs.clone(),
        globals: program.globals.clone(),
        funcs,
        main: program.main,
    };
    let user_funcs = p.funcs.len();

    // --- async arity inventory -------------------------------------------
    let mut arities: Vec<usize> = Vec::new();
    for f in &p.funcs {
        collect_arities(&f.body, &mut arities);
    }
    arities.sort_unstable();
    arities.dedup();
    let max_arity = arities.last().copied().unwrap_or(0);

    // --- fresh globals ----------------------------------------------------
    let raise = p.add_global(GlobalDef {
        name: "__raise".into(),
        ty: None,
        init: Some(Const::Bool(false)),
    });
    let mut ts_slots = Vec::with_capacity(config.max_ts);
    for i in 0..config.max_ts {
        let fn_g = p.add_global(GlobalDef {
            name: format!("__ts{i}_fn"),
            ty: None,
            init: Some(Const::Null),
        });
        let argc_g = p.add_global(GlobalDef {
            name: format!("__ts{i}_argc"),
            ty: None,
            init: Some(Const::Int(0)),
        });
        let args_g = (0..max_arity)
            .map(|j| {
                p.add_global(GlobalDef {
                    name: format!("__ts{i}_arg{j}"),
                    ty: None,
                    init: Some(Const::Null),
                })
            })
            .collect();
        ts_slots.push(TsSlot { fn_g, argc_g, args_g });
    }
    let (access, race_addr, access_site) = if config.race.is_some() {
        (
            Some(p.add_global(GlobalDef {
                name: "__access".into(),
                ty: None,
                init: Some(Const::Int(0)),
            })),
            Some(p.add_global(GlobalDef {
                name: "__race_addr".into(),
                ty: None,
                init: Some(Const::Null),
            })),
            Some(p.add_global(GlobalDef {
                name: "__access_site".into(),
                ty: None,
                init: Some(Const::Int(-1)),
            })),
        )
    } else {
        (None, None, None)
    };

    // --- function ids of the generated runtime ----------------------------
    let mut next_fid = user_funcs as u32;
    let schedule = if config.max_ts > 0 {
        let id = FuncId(next_fid);
        next_fid += 1;
        Some(id)
    } else {
        None
    };
    let (check_r, check_w) = if config.race.is_some() {
        let r = FuncId(next_fid);
        let w = FuncId(next_fid + 1);
        next_fid += 2;
        (Some(r), Some(w))
    } else {
        (None, None)
    };
    let entry = FuncId(next_fid);

    // --- alias analysis for pruning ---------------------------------------
    let alias = match (&config.race, config.alias_prune) {
        (Some(_), true) => Some(AliasAnalysis::run(&p)),
        _ => None,
    };

    // --- instrument user functions in place --------------------------------
    let mut instr = Instrumenter {
        config: config.clone(),
        schedule,
        check_r,
        check_w,
        raise,
        race_addr,
        ts_slots: &ts_slots,
        alias,
        race_sites: Vec::new(),
        checks_emitted: 0,
        checks_pruned: 0,
        cur_func: FuncId(0),
    };
    for (i, _) in reachable.iter().enumerate().filter(|(_, &live)| live) {
        instr.cur_func = FuncId(i as u32);
        let body = std::mem::replace(&mut p.funcs[i].body, Stmt::skip());
        let mut temps = TempAlloc { def: &mut p.funcs[i] };
        p.funcs[i].body = instr.stmt(&mut temps, &body);
    }
    let checks_emitted = instr.checks_emitted;
    let checks_pruned = instr.checks_pruned;
    let race_sites = std::mem::take(&mut instr.race_sites);

    // --- generated runtime --------------------------------------------------
    if let Some(sched_id) = schedule {
        let def = gen_schedule(&ts_slots, &arities, raise, max_arity);
        let got = p.add_func(def);
        debug_assert_eq!(got, sched_id);
    }
    if let (Some(r_id), Some(w_id), Some(access), Some(race_addr), Some(access_site)) =
        (check_r, check_w, access, race_addr, access_site)
    {
        let got = p.add_func(gen_check(true, access, race_addr, access_site));
        debug_assert_eq!(got, r_id);
        let got = p.add_func(gen_check(false, access, race_addr, access_site));
        debug_assert_eq!(got, w_id);
    }

    // --- Check(s) entry point -------------------------------------------------
    let orig_main = p.main;
    let mut b = FnBuilder::new("__kiss_main", &[]);
    b.origin(Origin::Harness);
    b.set(build::g(raise), build::boolean(false));
    for slot in &ts_slots {
        b.set(build::g(slot.fn_g), build::null());
        b.set(build::g(slot.argc_g), build::int(0));
        for &a in &slot.args_g {
            b.set(build::g(a), build::null());
        }
    }
    if let (Some(access), Some(race_addr)) = (access, race_addr) {
        b.set(build::g(access), build::int(0));
        match config.race {
            Some(RaceTarget::Global(g)) => {
                b.assign(Place::Var(VarRef::Global(race_addr)), Rvalue::AddrOf(VarRef::Global(g)));
            }
            _ => {
                b.set(build::g(race_addr), build::null());
            }
        }
    }
    b.call(None, CallTarget::Direct(orig_main), vec![]);
    b.set(build::g(raise), build::boolean(false));
    if let Some(sched_id) = schedule {
        b.call(None, CallTarget::Direct(sched_id), vec![]);
    }
    let got = p.add_func(b.finish());
    debug_assert_eq!(got, entry);
    p.main = entry;

    Ok(Transformed {
        program: p,
        entry,
        orig_main,
        schedule,
        check_r,
        check_w,
        raise,
        access,
        race_addr,
        access_site,
        race_sites,
        ts_slots,
        config: config.clone(),
        checks_emitted,
        checks_pruned,
    })
}

fn collect_arities(s: &Stmt, out: &mut Vec<usize>) {
    match &s.kind {
        StmtKind::Async { args, .. } => out.push(args.len()),
        StmtKind::Seq(ss) | StmtKind::Choice(ss) => ss.iter().for_each(|s| collect_arities(s, out)),
        StmtKind::Atomic(b) | StmtKind::Iter(b) => collect_arities(b, out),
        _ => {}
    }
}

/// Lazily allocates instrumentation temporaries on a function.
struct TempAlloc<'a> {
    def: &'a mut FuncDef,
}

impl TempAlloc<'_> {
    fn fresh(&mut self) -> LocalId {
        self.def.fresh_local("__k")
    }
}

/// A memory access performed by a statement, as an address expression
/// the check functions can receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AddrExpr {
    /// `&v` — the variable's own cell.
    OfVar(VarRef),
    /// The address *stored in* `v` (a `*v` access).
    ValOf(VarRef),
    /// `&v->f`.
    OfField(VarRef, StructId, u32),
}

struct Instrumenter<'p> {
    config: TransformConfig,
    schedule: Option<FuncId>,
    check_r: Option<FuncId>,
    check_w: Option<FuncId>,
    raise: GlobalId,
    race_addr: Option<GlobalId>,
    ts_slots: &'p [TsSlot],
    alias: Option<AliasAnalysis>,
    race_sites: Vec<RaceSite>,
    checks_emitted: usize,
    checks_pruned: usize,
    cur_func: FuncId,
}

impl Instrumenter<'_> {
    /// `RAISE` = `__raise = true; return`.
    fn raise_stmt(&self) -> Stmt {
        Stmt::synth(
            StmtKind::Seq(vec![
                Stmt::synth(
                    StmtKind::Assign(
                        Place::Var(VarRef::Global(self.raise)),
                        Rvalue::Operand(Operand::Const(Const::Bool(true))),
                    ),
                    Origin::Raise,
                ),
                Stmt::synth(StmtKind::Return(None), Origin::Raise),
            ]),
            Origin::Raise,
        )
    }

    /// The `schedule()` call, when `MAX > 0`.
    fn sched_call(&self) -> Option<Stmt> {
        self.schedule.map(|f| {
            Stmt::synth(
                StmtKind::Call { dest: None, target: CallTarget::Direct(f), args: vec![] },
                Origin::Sched,
            )
        })
    }

    /// The prologue placed before a statement: `schedule();` followed by
    /// the nondeterministic choice between `skip`, `RAISE` (assertion
    /// mode) and per-access `check; RAISE` branches (race mode).
    fn prologue(&mut self, temps: &mut TempAlloc<'_>, s: &Stmt, with_accesses: bool) -> Vec<Stmt> {
        let mut out = Vec::new();
        if let Some(call) = self.sched_call() {
            out.push(call);
        }
        let mut branches = vec![Stmt::synth(StmtKind::Skip, Origin::RaiseChoice)];
        // `benign`-annotated accesses are exempt from race checks (the
        // paper's future-work annotation); they keep the plain RAISE.
        let benign = s.origin == Origin::UserBenign;
        if self.config.race.is_some() && with_accesses && !benign {
            // Figure 5: the plain RAISE branch is replaced by one
            // branch per (unpruned) access.
            for (is_write, addr) in self.accesses(&s.kind) {
                if !self.access_may_touch(&addr) {
                    self.checks_pruned += 1;
                    continue;
                }
                self.checks_emitted += 1;
                branches.push(self.check_branch(temps, is_write, addr, s.span));
            }
        } else {
            branches.push(self.raise_stmt());
        }
        let mut choice = Stmt::synth(StmtKind::Choice(branches), Origin::RaiseChoice);
        choice.span = s.span;
        out.push(choice);
        out
    }

    /// In race mode without pruning, every access is kept; with
    /// pruning, only those the alias analysis cannot rule out.
    fn access_may_touch(&mut self, addr: &AddrExpr) -> bool {
        let Some(target) = self.config.race else { return false };
        let Some(alias) = self.alias.as_mut() else { return true };
        let t = target.abs_loc();
        match addr {
            AddrExpr::OfVar(v) => alias.var_cell_is(self.cur_func, *v, t),
            AddrExpr::ValOf(v) => alias.deref_may_touch(self.cur_func, *v, t),
            AddrExpr::OfField(_, sid, fidx) => alias.field_may_touch(*sid, *fidx, t),
        }
    }

    /// One `check_{r,w}(addr, site); RAISE` branch.
    fn check_branch(&mut self, temps: &mut TempAlloc<'_>, is_write: bool, addr: AddrExpr, span: Span) -> Stmt {
        let check = if is_write { self.check_w } else { self.check_r }.expect("race mode");
        let site = self.race_sites.len() as i64;
        self.race_sites.push(RaceSite { span, is_write });
        let mut stmts = Vec::new();
        let arg: Operand = match addr {
            AddrExpr::ValOf(v) => Operand::Var(v),
            AddrExpr::OfVar(v) => {
                let t = temps.fresh();
                stmts.push(Stmt {
                    kind: StmtKind::Assign(Place::Var(VarRef::Local(t)), Rvalue::AddrOf(v)),
                    span,
                    origin: Origin::Check,
                });
                Operand::Var(VarRef::Local(t))
            }
            AddrExpr::OfField(v, sid, fidx) => {
                let t = temps.fresh();
                stmts.push(Stmt {
                    kind: StmtKind::Assign(
                        Place::Var(VarRef::Local(t)),
                        Rvalue::AddrOfField(v, sid, fidx),
                    ),
                    span,
                    origin: Origin::Check,
                });
                Operand::Var(VarRef::Local(t))
            }
        };
        stmts.push(Stmt {
            kind: StmtKind::Call {
                dest: None,
                target: CallTarget::Direct(check),
                args: vec![arg, Operand::Const(Const::Int(site))],
            },
            span,
            origin: Origin::Check,
        });
        stmts.push(self.raise_stmt());
        Stmt { kind: StmtKind::Seq(stmts), span, origin: Origin::Check }
    }

    /// The reads and writes a simple statement performs, in the style
    /// of Figure 5.
    fn accesses(&self, kind: &StmtKind) -> Vec<(bool, AddrExpr)> {
        let mut out: Vec<(bool, AddrExpr)> = Vec::new();
        let read = |a: AddrExpr, out: &mut Vec<(bool, AddrExpr)>| out.push((false, a));
        let read_operand = |op: &Operand, out: &mut Vec<(bool, AddrExpr)>| {
            if let Operand::Var(v) = op {
                out.push((false, AddrExpr::OfVar(*v)));
            }
        };
        match kind {
            StmtKind::Assign(place, rv) => {
                match rv {
                    Rvalue::Operand(op) => read_operand(op, &mut out),
                    Rvalue::Load(p) => match p {
                        Place::Var(v) => read(AddrExpr::OfVar(*v), &mut out),
                        Place::Deref(v) => {
                            read(AddrExpr::OfVar(*v), &mut out);
                            read(AddrExpr::ValOf(*v), &mut out);
                        }
                        Place::Field(v, sid, f) => {
                            read(AddrExpr::OfVar(*v), &mut out);
                            read(AddrExpr::OfField(*v, *sid, *f), &mut out);
                        }
                    },
                    Rvalue::AddrOf(_) => {}
                    Rvalue::AddrOfField(v, _, _) => read(AddrExpr::OfVar(*v), &mut out),
                    Rvalue::BinOp(_, a, b) => {
                        read_operand(a, &mut out);
                        read_operand(b, &mut out);
                    }
                    Rvalue::UnOp(_, a) => read_operand(a, &mut out),
                    Rvalue::Malloc(_) => {}
                }
                match place {
                    Place::Var(v) => out.push((true, AddrExpr::OfVar(*v))),
                    Place::Deref(v) => {
                        read(AddrExpr::OfVar(*v), &mut out);
                        out.push((true, AddrExpr::ValOf(*v)));
                    }
                    Place::Field(v, sid, f) => {
                        read(AddrExpr::OfVar(*v), &mut out);
                        out.push((true, AddrExpr::OfField(*v, *sid, *f)));
                    }
                }
            }
            StmtKind::Assert(c) | StmtKind::Assume(c) => read(AddrExpr::OfVar(c.var), &mut out),
            StmtKind::Call { dest, target, args } => {
                if let CallTarget::Indirect(v) = target {
                    read(AddrExpr::OfVar(*v), &mut out);
                }
                for a in args {
                    read_operand(a, &mut out);
                }
                if let Some(place) = dest {
                    match place {
                        Place::Var(v) => out.push((true, AddrExpr::OfVar(*v))),
                        Place::Deref(v) => {
                            read(AddrExpr::OfVar(*v), &mut out);
                            out.push((true, AddrExpr::ValOf(*v)));
                        }
                        Place::Field(v, sid, f) => {
                            read(AddrExpr::OfVar(*v), &mut out);
                            out.push((true, AddrExpr::OfField(*v, *sid, *f)));
                        }
                    }
                }
            }
            StmtKind::Async { target, args } => {
                if let CallTarget::Indirect(v) = target {
                    read(AddrExpr::OfVar(*v), &mut out);
                }
                for a in args {
                    read_operand(a, &mut out);
                }
            }
            _ => {}
        }
        out
    }

    /// `if (__raise) return` after a synchronous call.
    fn raise_propagation(&self) -> Stmt {
        let raise = VarRef::Global(self.raise);
        Stmt::synth(
            StmtKind::Choice(vec![
                Stmt::synth(
                    StmtKind::Seq(vec![
                        Stmt::synth(StmtKind::Assume(Cond::pos(raise)), Origin::RaisePropagate),
                        Stmt::synth(StmtKind::Return(None), Origin::RaisePropagate),
                    ]),
                    Origin::RaisePropagate,
                ),
                Stmt::synth(StmtKind::Assume(Cond::neg(raise)), Origin::RaisePropagate),
            ]),
            Origin::RaisePropagate,
        )
    }

    /// The `[[·]]` translation of one statement.
    fn stmt(&mut self, temps: &mut TempAlloc<'_>, s: &Stmt) -> Stmt {
        match &s.kind {
            // Synthetic skips (empty branches) carry no behaviour worth
            // a scheduling point.
            StmtKind::Skip => s.clone(),
            StmtKind::Seq(ss) => {
                let mut v = Vec::with_capacity(ss.len());
                for inner in ss {
                    v.push(self.stmt(temps, inner));
                }
                Stmt { kind: StmtKind::Seq(v), span: s.span, origin: s.origin }
            }
            StmtKind::Choice(ss) => {
                let mut v = Vec::with_capacity(ss.len());
                for inner in ss {
                    v.push(self.stmt(temps, inner));
                }
                Stmt { kind: StmtKind::Choice(v), span: s.span, origin: s.origin }
            }
            StmtKind::Iter(b) => {
                let inner = self.stmt(temps, b);
                Stmt { kind: StmtKind::Iter(Box::new(inner)), span: s.span, origin: s.origin }
            }
            StmtKind::Assign(..) | StmtKind::Assert(_) | StmtKind::Assume(_) => {
                let mut v = self.prologue(temps, s, true);
                v.push(s.clone());
                v.extend(self.registration(temps, s));
                Stmt { kind: StmtKind::Seq(v), span: s.span, origin: s.origin }
            }
            StmtKind::Atomic(b) => {
                // Figure 4/5: schedule(); choice{skip [] RAISE}; s —
                // the body is *not* instrumented (and atomicity is
                // vacuous sequentially), apart from registering a race
                // target allocated inside it.
                let mut v = self.prologue(temps, s, false);
                v.push(Stmt {
                    kind: StmtKind::Atomic(Box::new(self.register_in_atomic(temps, b))),
                    span: s.span,
                    origin: s.origin,
                });
                Stmt { kind: StmtKind::Seq(v), span: s.span, origin: s.origin }
            }
            StmtKind::Call { dest, target, args } => {
                let mut v = self.prologue(temps, s, true);
                v.push(Stmt {
                    kind: StmtKind::Call { dest: *dest, target: *target, args: args.clone() },
                    span: s.span,
                    origin: Origin::User,
                });
                v.push(self.raise_propagation());
                Stmt { kind: StmtKind::Seq(v), span: s.span, origin: s.origin }
            }
            StmtKind::Async { target, args } => {
                let mut v = self.prologue(temps, s, true);
                v.push(self.async_translation(temps, *target, args, s.span));
                Stmt { kind: StmtKind::Seq(v), span: s.span, origin: s.origin }
            }
            StmtKind::Return(_) => {
                let mut v = Vec::new();
                if let Some(call) = self.sched_call() {
                    v.push(call);
                }
                v.push(s.clone());
                Stmt { kind: StmtKind::Seq(v), span: s.span, origin: s.origin }
            }
        }
    }

    /// Race mode on a field: when `s` allocates the target struct, the
    /// registration of the distinguished field's address that follows
    /// it (the first allocation wins).
    fn registration(&self, temps: &mut TempAlloc<'_>, s: &Stmt) -> Option<Stmt> {
        let (StmtKind::Assign(place, Rvalue::Malloc(sid)), Some(RaceTarget::Field(ts, tf))) =
            (&s.kind, self.config.race)
        else {
            return None;
        };
        if *sid != ts {
            return None;
        }
        let Place::Var(dest) = place else {
            unreachable!("`transform` rejects a non-variable malloc of the race target");
        };
        Some(self.register_race_addr(temps, *dest, ts, tf, s.span))
    }

    /// An atomic body with every allocation of the race target
    /// registered, and nothing else instrumented.
    fn register_in_atomic(&self, temps: &mut TempAlloc<'_>, s: &Stmt) -> Stmt {
        let kind = match &s.kind {
            StmtKind::Seq(ss) => {
                StmtKind::Seq(ss.iter().map(|s| self.register_in_atomic(temps, s)).collect())
            }
            StmtKind::Choice(ss) => {
                StmtKind::Choice(ss.iter().map(|s| self.register_in_atomic(temps, s)).collect())
            }
            StmtKind::Iter(b) => StmtKind::Iter(Box::new(self.register_in_atomic(temps, b))),
            _ => match self.registration(temps, s) {
                Some(registration) => StmtKind::Seq(vec![s.clone(), registration]),
                None => return s.clone(),
            },
        };
        Stmt { kind, span: s.span, origin: s.origin }
    }

    /// `if (__race_addr == null) __race_addr = &dest->field;`
    fn register_race_addr(
        &self,
        temps: &mut TempAlloc<'_>,
        dest: VarRef,
        sid: StructId,
        fidx: u32,
        span: Span,
    ) -> Stmt {
        let race_addr = self.race_addr.expect("race mode");
        let t = temps.fresh();
        let tv = VarRef::Local(t);
        let mk = |kind| Stmt { kind, span, origin: Origin::Harness };
        mk(StmtKind::Seq(vec![
            mk(StmtKind::Assign(
                Place::Var(tv),
                Rvalue::BinOp(
                    BinOp::Eq,
                    Operand::Var(VarRef::Global(race_addr)),
                    Operand::Const(Const::Null),
                ),
            )),
            mk(StmtKind::Choice(vec![
                mk(StmtKind::Seq(vec![
                    mk(StmtKind::Assume(Cond::pos(tv))),
                    mk(StmtKind::Assign(
                        Place::Var(VarRef::Global(race_addr)),
                        Rvalue::AddrOfField(dest, sid, fidx),
                    )),
                ])),
                mk(StmtKind::Assume(Cond::neg(tv))),
            ])),
        ]))
    }

    /// `if (size() < MAX) put(v0) else { [[v0]](); raise = false }`,
    /// with `put` choosing the first free slot.
    fn async_translation(
        &mut self,
        temps: &mut TempAlloc<'_>,
        target: CallTarget,
        args: &[Operand],
        span: Span,
    ) -> Stmt {
        let target_op: Operand = match target {
            CallTarget::Direct(f) => Operand::Const(Const::Fn(f)),
            CallTarget::Indirect(v) => Operand::Var(v),
        };
        let mk = |kind, origin| Stmt { kind, span, origin };
        // Innermost: ts full — run the forked thread inline.
        let inline = mk(
            StmtKind::Seq(vec![
                mk(
                    StmtKind::Call { dest: None, target, args: args.to_vec() },
                    Origin::ThreadStart,
                ),
                mk(
                    StmtKind::Assign(
                        Place::Var(VarRef::Global(self.raise)),
                        Rvalue::Operand(Operand::Const(Const::Bool(false))),
                    ),
                    Origin::Sched,
                ),
            ]),
            Origin::Sched,
        );
        let mut chain = inline;
        for slot in self.ts_slots.iter().rev() {
            let t = temps.fresh();
            let tv = VarRef::Local(t);
            let mut store = vec![mk(StmtKind::Assume(Cond::pos(tv)), Origin::Sched)];
            // The fn-slot store is the signal trace mapping uses to
            // register a fork; keep it first.
            store.push(mk(
                StmtKind::Assign(Place::Var(VarRef::Global(slot.fn_g)), Rvalue::Operand(target_op)),
                Origin::Sched,
            ));
            store.push(mk(
                StmtKind::Assign(
                    Place::Var(VarRef::Global(slot.argc_g)),
                    Rvalue::Operand(Operand::Const(Const::Int(args.len() as i64))),
                ),
                Origin::Sched,
            ));
            for (j, a) in args.iter().enumerate() {
                store.push(mk(
                    StmtKind::Assign(Place::Var(VarRef::Global(slot.args_g[j])), Rvalue::Operand(*a)),
                    Origin::Sched,
                ));
            }
            chain = mk(
                StmtKind::Seq(vec![
                    mk(
                        StmtKind::Assign(
                            Place::Var(tv),
                            Rvalue::BinOp(
                                BinOp::Eq,
                                Operand::Var(VarRef::Global(slot.fn_g)),
                                Operand::Const(Const::Null),
                            ),
                        ),
                        Origin::Sched,
                    ),
                    mk(
                        StmtKind::Choice(vec![
                            mk(StmtKind::Seq(store), Origin::Sched),
                            mk(
                                StmtKind::Seq(vec![
                                    mk(StmtKind::Assume(Cond::neg(tv)), Origin::Sched),
                                    chain,
                                ]),
                                Origin::Sched,
                            ),
                        ]),
                        Origin::Sched,
                    ),
                ]),
                Origin::Sched,
            );
        }
        chain
    }
}

/// Generates `__schedule()`.
fn gen_schedule(slots: &[TsSlot], arities: &[usize], raise: GlobalId, max_arity: usize) -> FuncDef {
    let mut b = FnBuilder::new("__schedule", &[]);
    b.origin(Origin::Sched);
    let f = b.local("__f");
    let argc = b.local("__argc");
    let t = b.local("__t");
    let arg_locals: Vec<LocalId> = (0..max_arity).map(|j| b.local(format!("__a{j}"))).collect();

    b.iter(|b| {
        let branches: Vec<build::BranchFn<'_>> = slots
            .iter()
            .map(|slot| {
                let arg_locals = &arg_locals;
                let closure: Box<dyn FnOnce(&mut FnBuilder)> = Box::new(move |b: &mut FnBuilder| {
                    // Occupied slot?
                    b.binop(build::l(t), BinOp::Eq, build::var(build::g(slot.fn_g)), build::null());
                    b.assume(Cond::neg(build::l(t)));
                    b.set(build::l(f), build::var(build::g(slot.fn_g)));
                    b.set(build::l(argc), build::var(build::g(slot.argc_g)));
                    for (j, &a) in slot.args_g.iter().enumerate() {
                        b.set(build::l(arg_locals[j]), build::var(build::g(a)));
                    }
                    b.set(build::g(slot.fn_g), build::null());
                    // Dispatch on the stored arity.
                    let target = CallTarget::Indirect(build::l(f));
                    match arities {
                        [] => {
                            // No async in the program at all; the slot
                            // can never be filled — call with no args.
                            b.origin(Origin::ThreadStart);
                            b.call(None, target, vec![]);
                            b.origin(Origin::Sched);
                        }
                        [k] => {
                            let args: Vec<Operand> =
                                (0..*k).map(|j| build::var(build::l(arg_locals[j]))).collect();
                            b.origin(Origin::ThreadStart);
                            b.call(None, target, args);
                            b.origin(Origin::Sched);
                        }
                        many => {
                            let arms: Vec<build::BranchFn<'_>> = many
                                .iter()
                                .map(|&k| {
                                    let closure: Box<dyn FnOnce(&mut FnBuilder)> =
                                        Box::new(move |b: &mut FnBuilder| {
                                            b.binop(
                                                build::l(t),
                                                BinOp::Eq,
                                                build::var(build::l(argc)),
                                                build::int(k as i64),
                                            );
                                            b.assume(Cond::pos(build::l(t)));
                                            let args: Vec<Operand> = (0..k)
                                                .map(|j| build::var(build::l(arg_locals[j])))
                                                .collect();
                                            b.origin(Origin::ThreadStart);
                                            b.call(None, target, args);
                                            b.origin(Origin::Sched);
                                        });
                                    closure
                                })
                                .collect();
                            b.choice(arms);
                        }
                    }
                    b.set(build::g(raise), build::boolean(false));
                });
                closure
            })
            .collect();
        b.choice(branches);
    });
    b.finish()
}

/// Generates `__check_r` (`is_read = true`) or `__check_w`.
///
/// ```text
/// check_r(x, site) { if (x == &r) { assert !(access == 2); access = 1; access_site = site; } }
/// check_w(x, site) { if (x == &r) { assert access == 0;    access = 2; access_site = site; } }
/// ```
///
/// The `site` argument records which instrumented access performed the
/// *first* access, so the race report can cite both sites.
fn gen_check(is_read: bool, access: GlobalId, race_addr: GlobalId, access_site: GlobalId) -> FuncDef {
    let name = if is_read { "__check_r" } else { "__check_w" };
    let mut b = FnBuilder::new(name, &["x", "site"]);
    b.origin(Origin::Check);
    let x = b.param(0);
    let site = b.param(1);
    let t0 = b.local("__t0");
    let t1 = b.local("__t1");
    b.binop(build::l(t0), BinOp::Eq, build::var(build::l(x)), build::var(build::g(race_addr)));
    b.if_else(
        Cond::pos(build::l(t0)),
        |b| {
            if is_read {
                b.binop(build::l(t1), BinOp::Ne, build::var(build::g(access)), build::int(2));
                b.assert(Cond::pos(build::l(t1)));
                b.set(build::g(access), build::int(1));
            } else {
                b.binop(build::l(t1), BinOp::Eq, build::var(build::g(access)), build::int(0));
                b.assert(Cond::pos(build::l(t1)));
                b.set(build::g(access), build::int(2));
            }
            b.set(build::g(access_site), build::var(build::l(site)));
        },
        |_b| {},
    );
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiss_lang::parse_and_lower;

    fn prog(src: &str) -> Program {
        parse_and_lower(src).unwrap()
    }

    const SIMPLE_ASYNC: &str = "
        int g;
        void other() { g = 1; }
        void main() { async other(); assert g == 0; }
    ";

    #[test]
    fn transform_produces_async_free_program() {
        let p = prog(SIMPLE_ASYNC);
        for max_ts in [0, 1, 2] {
            let t = transform(&p, &TransformConfig { max_ts, ..Default::default() }).unwrap();
            fn has_async(s: &Stmt) -> bool {
                match &s.kind {
                    StmtKind::Async { .. } => true,
                    StmtKind::Seq(ss) | StmtKind::Choice(ss) => ss.iter().any(has_async),
                    StmtKind::Atomic(b) | StmtKind::Iter(b) => has_async(b),
                    _ => false,
                }
            }
            for f in &t.program.funcs {
                assert!(!has_async(&f.body), "async survived in `{}` (MAX={max_ts})", f.name);
            }
        }
    }

    #[test]
    fn max_ts_zero_generates_no_scheduler() {
        let t = transform(&prog(SIMPLE_ASYNC), &TransformConfig::default()).unwrap();
        assert!(t.schedule.is_none());
        assert!(t.program.func_by_name("__schedule").is_none());
        assert_eq!(t.ts_slots.len(), 0);
        assert_eq!(t.program.func(t.entry).name, "__kiss_main");
        assert_eq!(t.program.main, t.entry);
    }

    #[test]
    fn max_ts_positive_generates_slots_and_scheduler() {
        let t = transform(&prog(SIMPLE_ASYNC), &TransformConfig { max_ts: 2, ..Default::default() })
            .unwrap();
        assert!(t.schedule.is_some());
        assert_eq!(t.ts_slots.len(), 2);
        assert_eq!(t.ts_slots[0].args_g.len(), 0); // async other() takes no args
        assert!(t.program.global_by_name("__ts0_fn").is_some());
        assert!(t.program.global_by_name("__ts1_argc").is_some());

        // With a one-argument async, slots carry one argument global.
        let src = "
            struct D { int x; }
            D *e;
            void w(D *p) { p->x = 1; }
            void main() { e = malloc(D); async w(e); }
        ";
        let t = transform(&prog(src), &TransformConfig { max_ts: 1, ..Default::default() }).unwrap();
        assert_eq!(t.ts_slots[0].args_g.len(), 1);
        assert!(t.program.global_by_name("__ts0_arg0").is_some());
    }

    #[test]
    fn race_mode_generates_checks_and_access_globals() {
        let src = "
            int r;
            void w1() { r = 1; }
            void main() { async w1(); r = 2; }
        ";
        let p = prog(src);
        let target = RaceTarget::resolve(&p, "r").unwrap();
        let t = transform(&p, &TransformConfig { max_ts: 0, race: Some(target), alias_prune: true })
            .unwrap();
        assert!(t.check_r.is_some());
        assert!(t.check_w.is_some());
        assert!(t.access.is_some());
        assert!(t.race_addr.is_some());
        assert!(t.checks_emitted >= 2, "writes in both threads must be checked: {t:?}");
    }

    #[test]
    fn alias_pruning_reduces_check_count() {
        let src = "
            int r;
            int unrelated;
            void w1() { r = 1; unrelated = 5; }
            void main() { async w1(); r = 2; unrelated = 6; }
        ";
        let p = prog(src);
        let target = RaceTarget::resolve(&p, "r").unwrap();
        let pruned = transform(&p, &TransformConfig { max_ts: 0, race: Some(target), alias_prune: true })
            .unwrap();
        let full = transform(&p, &TransformConfig { max_ts: 0, race: Some(target), alias_prune: false })
            .unwrap();
        assert!(pruned.checks_emitted < full.checks_emitted);
        assert!(pruned.checks_pruned > 0);
        assert_eq!(full.checks_pruned, 0);
    }

    #[test]
    fn field_target_resolves_and_registers_at_malloc() {
        let src = "
            struct D { int f; bool s; }
            D *e;
            void main() { e = malloc(D); e->s = true; }
        ";
        let p = prog(src);
        let target = RaceTarget::resolve(&p, "D.s").unwrap();
        assert_eq!(target, RaceTarget::Field(StructId(0), 1));
        let t = transform(&p, &TransformConfig { max_ts: 0, race: Some(target), alias_prune: true })
            .unwrap();
        // The transformed main must mention __race_addr registration.
        let text = kiss_lang::pretty::print_program(&t.program);
        assert!(text.contains("__race_addr = &"), "{text}");
    }

    #[test]
    fn name_collisions_are_rejected() {
        let p = prog("int __raise; void main() { skip; }");
        let e = transform(&p, &TransformConfig::default()).unwrap_err();
        assert!(matches!(e, TransformError::NameCollision(_)));
        // `main` does not reach `__schedule`: names are checked over the
        // whole program.
        let p = prog("void __schedule() { skip; } void main() { skip; }");
        let e = transform(&p, &TransformConfig { max_ts: 1, ..Default::default() }).unwrap_err();
        assert!(matches!(e, TransformError::NameCollision(_)));
    }

    #[test]
    fn an_unregistrable_race_target_fails_even_when_unreachable() {
        let src = |bad: &str, main: &str| {
            format!(
                "struct D {{ int f; }}
                 struct H {{ D *d; }}
                 H *h;
                 void bad() {{ {bad} }}
                 void main() {{ h = malloc(H); {main} }}"
            )
        };
        for bad in ["h->d = malloc(D);", "atomic { h->d = malloc(D); }"] {
            for main in ["bad();", "skip;"] {
                let p = prog(&src(bad, main));
                let race = RaceTarget::resolve(&p, "D.f");
                let cfg = TransformConfig { max_ts: 0, race, alias_prune: true };
                let e = transform(&p, &cfg).unwrap_err();
                assert_eq!(e, TransformError::UnsupportedMallocDest, "{bad} {main}");
            }
        }
    }

    /// Whether `s` calls `f` directly.
    fn calls(s: &Stmt, f: FuncId) -> bool {
        match &s.kind {
            StmtKind::Call { target: CallTarget::Direct(g), .. } => *g == f,
            StmtKind::Seq(ss) | StmtKind::Choice(ss) => ss.iter().any(|s| calls(s, f)),
            StmtKind::Atomic(b) | StmtKind::Iter(b) => calls(b, f),
            _ => false,
        }
    }

    #[test]
    fn only_functions_main_reaches_are_instrumented() {
        // `h` writes `g`; it is reached only through a global
        // initializer, an `async` argument or a `return`.
        for (decls, main) in [
            ("fn gh = h;", "gh();"),
            ("void run(fn f) { f(); }", "async run(h);"),
            ("fn get() { return h; }", "fn f; f = get(); f();"),
        ] {
            let p = prog(&format!(
                "int g;
                 void h() {{ g = 1; }}
                 void dead() {{ g = 2; }}
                 {decls}
                 void main() {{ {main} }}"
            ));
            let race = RaceTarget::resolve(&p, "g");
            let t = transform(&p, &TransformConfig { max_ts: 0, race, alias_prune: true }).unwrap();
            let body = |name: &str| &t.program.func(p.func_by_name(name).unwrap()).body;
            assert!(calls(body("h"), t.check_w.unwrap()), "{decls} {main}: `h` not instrumented");
            assert_eq!(body("dead"), &Stmt::skip(), "{decls} {main}: `dead` kept");
            assert_eq!(t.program.funcs.len(), p.funcs.len() + 3, "ids are kept");
        }
    }

    #[test]
    fn transformed_program_pretty_prints_and_reparses() {
        let p = prog(SIMPLE_ASYNC);
        for cfg in [
            TransformConfig { max_ts: 0, ..Default::default() },
            TransformConfig { max_ts: 1, ..Default::default() },
            TransformConfig {
                max_ts: 1,
                race: Some(RaceTarget::resolve(&prog(SIMPLE_ASYNC), "g").unwrap()),
                alias_prune: true,
            },
        ] {
            let t = transform(&p, &cfg).unwrap();
            let text = kiss_lang::pretty::print_program(&t.program);
            let reparsed = kiss_lang::parse_and_lower(&text)
                .unwrap_or_else(|e| panic!("reparse failed ({cfg:?}): {e}\n{text}"));
            assert_eq!(reparsed.funcs.len(), t.program.funcs.len());
        }
    }

    #[test]
    fn instrumentation_blowup_is_a_small_constant() {
        // The paper claims a small constant blowup of the CFG.
        let src = "
            int a; int b; int c;
            void f() { a = 1; b = 2; c = a + b; }
            void main() { f(); assert c == 3; }
        ";
        let p = prog(src);
        let t = transform(&p, &TransformConfig { max_ts: 1, ..Default::default() }).unwrap();
        let before = kiss_exec::Module::lower(p).instr_count();
        let after = kiss_exec::Module::lower(t.program.clone()).instr_count();
        let ratio = after as f64 / before as f64;
        assert!(ratio < 15.0, "blowup ratio {ratio} too large");
    }

    #[test]
    fn resolve_rejects_unknown_specs() {
        let p = prog("struct D { int f; } int r; void main() { skip; }");
        assert!(RaceTarget::resolve(&p, "r").is_some());
        assert!(RaceTarget::resolve(&p, "D.f").is_some());
        assert!(RaceTarget::resolve(&p, "nope").is_none());
        assert!(RaceTarget::resolve(&p, "D.nope").is_none());
        assert!(RaceTarget::resolve(&p, "E.f").is_none());
    }
}

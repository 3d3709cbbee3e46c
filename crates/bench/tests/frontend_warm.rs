//! A front end that remembers validated bodies must hand the transform
//! what a cold one does, as far as the transform can tell.
//!
//! A warm [`ValidBodies`] set stubs the bodies `main` does not reach.
//! The transform stubs exactly those anyway, so the transformed program,
//! its race sites and its check counts, and any `TransformFailed`, must
//! equal a cold front end's on every input; so must every error message.

mod mutate;

use kiss_core::transform::{transform, RaceTarget, TransformConfig};
use kiss_lang::hir::{Const, StmtKind};
use kiss_lang::pretty::print_program;
use kiss_lang::{parse_and_lower, Program, ValidBodies};

/// The transformed program as text, or the transform's error.
fn transformed(program: &Program, race: Option<&str>) -> String {
    let race = race.map(|spec| RaceTarget::resolve(program, spec).expect("race target resolves"));
    let cfg = TransformConfig {
        max_ts: 0,
        race,
        alias_prune: true,
    };
    match transform(program, &cfg) {
        Ok(t) => format!(
            "{}\nsites {:?}\nemitted {} pruned {}",
            print_program(&t.program),
            t.race_sites,
            t.checks_emitted,
            t.checks_pruned
        ),
        Err(e) => format!("transform failed: {e}"),
    }
}

fn stubs(program: &Program) -> usize {
    program
        .funcs
        .iter()
        .filter(|f| matches!(f.body.kind, StmtKind::Skip) && f.body.span.is_synthetic())
        .count()
}

#[test]
fn a_warm_front_end_transforms_every_served_entry_as_a_cold_one() {
    let mut entries = kiss_drivers::corpus_batch(false);
    entries.extend(kiss_drivers::corpus_batch(true));
    let bodies = ValidBodies::new();
    for entry in &entries {
        bodies
            .parse_and_lower(&entry.source)
            .expect("corpus entries parse");
    }
    let before = bodies.counts();
    for entry in &entries {
        let cold = parse_and_lower(&entry.source).expect("corpus entries parse");
        let warm = bodies
            .parse_and_lower(&entry.source)
            .expect("corpus entries parse");
        assert!(
            stubs(&warm) > stubs(&cold),
            "{}: the warm set stubs nothing",
            entry.label
        );
        assert_eq!(
            transformed(&warm, Some(&entry.race_spec)),
            transformed(&cold, Some(&entry.race_spec)),
            "{}",
            entry.label
        );
    }
    let after = bodies.counts();
    assert!(after.stubbed > before.stubbed);
    assert_eq!(after.clears, 0);
}

#[test]
fn a_warm_front_end_answers_mutated_programs_as_a_cold_one() {
    // Every base as written and on one line.
    let bases: Vec<String> = mutate::bases()
        .into_iter()
        .flat_map(|b| [mutate::one_line(&b), b])
        .collect();
    let bodies = ValidBodies::new();
    for base in &bases {
        bodies.parse_and_lower(base).expect("bases parse");
    }
    let mut rng = mutate::Rng(0x7761_726d_2d66_6532);
    let mut accepted = 0;
    for i in 0..600 {
        let src = mutate::mutate(&mut rng, &bases[i % bases.len()]);
        match (parse_and_lower(&src), bodies.parse_and_lower(&src)) {
            (Ok(cold), Ok(warm)) => {
                accepted += 1;
                assert_eq!(transformed(&warm, None), transformed(&cold, None), "{src}");
            }
            (Err(cold), Err(warm)) => assert_eq!(warm.to_string(), cold.to_string(), "{src}"),
            (cold, warm) => panic!("cold {:?} but warm {:?} on\n{src}", cold.err(), warm.err()),
        }
    }
    assert!(accepted > 20, "only {accepted} mutations parse");
    assert!(bodies.counts().stubbed > 0);
}

#[test]
fn an_unreachable_malloc_into_a_field_still_fails_the_transform_when_warm() {
    let src = "struct D { int f; }\nstruct H { D *d; }\nD *e;\nH *h;\n\
               void bad() { h->d = malloc(D); }\n\
               void main() { e = malloc(D); e->f = 1; }";
    let bodies = ValidBodies::new();
    for _ in 0..3 {
        let warm = bodies.parse_and_lower(src).unwrap();
        let bad = warm.func_by_name("bad").unwrap();
        assert!(
            !matches!(warm.func(bad).body.kind, StmtKind::Skip),
            "a non-variable malloc is never stubbed"
        );
        assert_eq!(
            transformed(&warm, Some("D.f")),
            "transform failed: malloc of the race-target struct must assign to a plain variable"
        );
    }
    assert_eq!(bodies.counts().stubbed, 0);
}

#[test]
fn a_warm_front_end_reports_a_new_error_in_an_unreachable_body_exactly() {
    let good = "int g;\nvoid unused() { g = 1; }\nvoid main() { g = 2; }";
    let bad = "int g;\nvoid unused() { g = nope; }\nvoid main() { g = 2; }";
    let bodies = ValidBodies::new();
    // Cold, `unused` is validated in full; warm, it is stubbed.
    assert_eq!(
        bodies.parse_and_lower(good).unwrap(),
        parse_and_lower(good).unwrap()
    );
    assert_eq!(
        bodies.parse_and_lower(good).unwrap(),
        stubbed(parse_and_lower(good).unwrap(), "unused")
    );
    let err = bodies.parse_and_lower(bad).unwrap_err();
    assert_eq!(
        err.to_string(),
        "lowering error at 2:17: unknown variable `nope`"
    );
    assert_eq!(err, parse_and_lower(bad).unwrap_err());
    // Nothing of the failed program was remembered.
    let lowered = bodies.counts().lowered;
    assert!(bodies.parse_and_lower(bad).is_err());
    assert_eq!(bodies.counts().lowered, lowered);
}

#[test]
fn the_same_declarations_at_shifted_positions_are_lowered_again() {
    let src = "struct D { int f; }\nD *e;\nvoid f() { skip; }\nint g = 1;\n\
               void main() { e = malloc(D); e->f = g; f(); }";
    // The whole source moved, and only what follows a longer body.
    let moved = format!("\n  {src}");
    let longer = src.replace("{ skip; }", "{\n    skip;\n}");
    let bodies = ValidBodies::new();
    for _ in 0..2 {
        assert_eq!(
            bodies.parse_and_lower(src).unwrap(),
            parse_and_lower(src).unwrap()
        );
    }
    assert_eq!(bodies.counts().decl_sets_reused, 1);
    for shifted in [&moved, &longer] {
        assert_eq!(
            bodies.parse_and_lower(shifted).unwrap(),
            parse_and_lower(shifted).unwrap()
        );
        assert_eq!(
            bodies.counts().decl_sets_reused,
            1,
            "declarations lowered at other positions were reused for\n{shifted}"
        );
    }
}

#[test]
fn a_new_error_in_a_reached_body_after_a_reused_declaration_set_is_exact() {
    let good = "int g;\nvoid main() { g = 1; }";
    let bodies = ValidBodies::new();
    bodies.parse_and_lower(good).unwrap();
    for (bad, message) in [
        (
            "int g;\nvoid main() { g = nope; }",
            "lowering error at 2:15: unknown variable `nope`",
        ),
        (
            "int g;\nvoid main() { g = ; }",
            "parse error at 2:19: expected an expression, found `;`",
        ),
    ] {
        let reused = bodies.counts().decl_sets_reused;
        let err = bodies.parse_and_lower(bad).unwrap_err();
        assert_eq!(bodies.counts().decl_sets_reused, reused + 1, "{bad}");
        assert_eq!(err.to_string(), message);
        assert_eq!(err, parse_and_lower(bad).unwrap_err());
    }
    assert_eq!(
        bodies.parse_and_lower(good).unwrap(),
        parse_and_lower(good).unwrap()
    );
}

#[test]
fn a_changed_global_initializer_misses_the_declaration_sets() {
    let one = "int g = 1;\nvoid main() { assert g == 1; }";
    let two = "int g = 2;\nvoid main() { assert g == 1; }";
    let bodies = ValidBodies::new();
    bodies.parse_and_lower(one).unwrap();
    let warm = bodies.parse_and_lower(two).unwrap();
    assert_eq!(bodies.counts().decl_sets_reused, 0);
    assert_eq!(warm, parse_and_lower(two).unwrap());
    assert_eq!(warm.globals[0].init, Some(Const::Int(2)));
}

/// `program` with function `name` stubbed the way the transform stubs
/// it.
fn stubbed(mut program: Program, name: &str) -> Program {
    let f = program.func_by_name(name).unwrap();
    let def = program.func_mut(f);
    def.locals.truncate(def.param_count as usize);
    def.body = kiss_lang::hir::Stmt::skip();
    program
}

//! Exploration pinned over the full sample corpus: a golden table for
//! every engine.
//!
//! The golden table fixes, for every sample and every engine, the
//! verdict, the steps executed, the states recorded, the paths
//! explored and a digest of the mapped error trace — for the
//! assertion check and for a race check on every global — plus the
//! verdict, steps, product states and lasso digest of two LTL checks
//! per global. Any rewrite of the
//! step loop or the state store must leave every row unchanged: the
//! engines may get faster or leaner, never explore differently.

use kiss_core::checker::{Engine, Kiss, KissOutcome};
use kiss_seq::Budget;

fn kiss(engine: Engine) -> Kiss {
    Kiss::new()
        .with_engine(engine)
        .with_validation(false)
        .with_budget(Budget::steps_states(2_000_000, 60_000))
}

fn outcome(sample: &kiss_samples::Sample, engine: Engine) -> KissOutcome {
    kiss(engine).check_assertions(&sample.program())
}

/// FNV-1a over the mapped trace's `(tid, line, col)` triples; `-` when
/// the outcome carries no trace.
fn trace_digest(outcome: &KissOutcome) -> String {
    let mapped = match outcome {
        KissOutcome::AssertionViolation(report) => &report.mapped,
        KissOutcome::RaceDetected(report) => &report.mapped,
        _ => return "-".into(),
    };
    let words = mapped.steps.iter().flat_map(|s| [s.tid, s.span.line, s.span.col]);
    format!("{}:{:016x}", mapped.steps.len(), fnv1a(words.flat_map(u32::to_le_bytes)))
}

/// FNV-1a over a lasso's debug-rendered stem and cycle steps.
fn lasso_digest(outcome: &KissOutcome) -> String {
    let KissOutcome::LivenessViolated(report) = outcome else {
        return "-".into();
    };
    let text: String = report.stem.iter().chain(&report.cycle).map(|s| format!("{s:?};")).collect();
    format!("{}+{}:{:016x}", report.stem.len(), report.cycle.len(), fnv1a(text.bytes()))
}

fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// One golden-table row: `check engine verdict steps states paths
/// trace`, where `check` is the sample name for the assertion check
/// and `sample/global` for a race check on that global.
fn row(check: &str, engine: Engine, outcome: &KissOutcome) -> String {
    let stats = outcome.stats();
    format!(
        "{check} {} {} {} {} {} {}",
        engine.name(),
        outcome.verdict_str(),
        stats.map_or(0, |s| s.steps()),
        stats.map_or(0, |s| s.states()),
        stats.map_or(0, |s| s.seq.paths),
        trace_digest(outcome),
    )
}

/// The golden rows of one sample: its assertion check under every
/// engine, then per global a race check under every engine and two
/// LTL checks through the product engine.
fn sample_rows(sample: &kiss_samples::Sample) -> Vec<String> {
    let program = sample.program();
    let mut rows = Vec::new();
    for engine in [Engine::Explicit, Engine::Bfs, Engine::Summary] {
        rows.push(row(sample.name, engine, &outcome(sample, engine)));
    }
    for global in &program.globals {
        for engine in [Engine::Explicit, Engine::Bfs, Engine::Summary] {
            let outcome = kiss(engine)
                .check_race_spec(&program, &global.name)
                .expect("every global is a race target");
            rows.push(row(&format!("{}/{}", sample.name, global.name), engine, &outcome));
        }
        for formula in ["G ({g} == 0)", "F G ({g} == 0)"] {
            let formula = formula.replace("{g}", &global.name);
            let parsed = kiss_ltl::parse(&formula).expect("well-formed formula");
            let outcome = kiss(Engine::Explicit)
                .check_ltl(&program, &parsed)
                .expect("every global is a proposition");
            let stats = outcome.stats();
            rows.push(format!(
                "{}/{} ltl {} {} {} {}",
                sample.name,
                formula.replace(' ', ""),
                outcome.verdict_str(),
                stats.map_or(0, |s| s.steps()),
                stats.map_or(0, |s| s.seq.product_states),
                lasso_digest(&outcome),
            ));
        }
    }
    rows
}

/// Recorded before the step loop was shared between the engines and
/// the second state store was deleted. The `bfs race` verdicts were
/// `bfs assertion` until BFS error traces carried the failing
/// configuration's globals, from which a race report names the first
/// access; steps, states, paths and digests did not change.
const GOLDEN: &[&str] = &[
    "peterson explicit pass 674 111 110 -",
    "peterson bfs pass 674 219 0 -",
    "peterson summary pass 518 3 0 -",
    "peterson/flag0 explicit race 147 50 9 3:c62ad20dd469393b",
    "peterson/flag0 bfs race 90 37 0 3:c62ad20dd469393b",
    "peterson/flag0 summary assertion 281 5 0 0:cbf29ce484222325",
    "peterson/G(flag0==0) ltl liveness 232 232 82+0:962b05b9cd976369",
    "peterson/FG(flag0==0) ltl pass 176 176 -",
    "peterson/flag1 explicit race 223 68 13 19:af1cf739338b00aa",
    "peterson/flag1 bfs race 88 39 0 3:71da809c5a5207dd",
    "peterson/flag1 summary assertion 232 5 0 0:cbf29ce484222325",
    "peterson/G(flag1==0) ltl liveness 290 290 82+0:962b05b9cd976369",
    "peterson/FG(flag1==0) ltl pass 176 176 -",
    "peterson/turn explicit race 204 65 10 13:c0766f48c7482e01",
    "peterson/turn bfs race 63 30 0 3:9970fd8f12596d50",
    "peterson/turn summary assertion 201 3 0 0:cbf29ce484222325",
    "peterson/G(turn==0) ltl liveness 230 230 82+0:962b05b9cd976369",
    "peterson/FG(turn==0) ltl liveness 177 177 82+0:962b05b9cd976369",
    "peterson/in_critical explicit pass 754 233 57 -",
    "peterson/in_critical bfs pass 754 278 0 -",
    "peterson/in_critical summary pass 754 13 0 -",
    "peterson/G(in_critical==0) ltl liveness 214 214 82+0:962b05b9cd976369",
    "peterson/FG(in_critical==0) ltl pass 141 141 -",
    "peterson-broken explicit pass 674 111 110 -",
    "peterson-broken bfs pass 674 219 0 -",
    "peterson-broken summary pass 518 3 0 -",
    "peterson-broken/flag0 explicit race 147 50 9 3:8b16506125d73570",
    "peterson-broken/flag0 bfs race 90 37 0 3:8b16506125d73570",
    "peterson-broken/flag0 summary assertion 281 5 0 0:cbf29ce484222325",
    "peterson-broken/G(flag0==0) ltl liveness 232 232 82+0:d21f8b30c48b90e5",
    "peterson-broken/FG(flag0==0) ltl pass 176 176 -",
    "peterson-broken/flag1 explicit race 223 68 13 19:e63a4fa9e9791ee7",
    "peterson-broken/flag1 bfs race 93 40 0 4:6bbf2f0cdfecc185",
    "peterson-broken/flag1 summary assertion 232 5 0 0:cbf29ce484222325",
    "peterson-broken/G(flag1==0) ltl liveness 284 284 82+0:d21f8b30c48b90e5",
    "peterson-broken/FG(flag1==0) ltl pass 173 173 -",
    "peterson-broken/turn explicit pass 156 47 11 -",
    "peterson-broken/turn bfs pass 156 54 0 -",
    "peterson-broken/turn summary pass 156 5 0 -",
    "peterson-broken/G(turn==0) ltl liveness 230 230 82+0:d21f8b30c48b90e5",
    "peterson-broken/FG(turn==0) ltl liveness 177 177 82+0:d21f8b30c48b90e5",
    "peterson-broken/in_critical explicit pass 754 233 57 -",
    "peterson-broken/in_critical bfs pass 754 278 0 -",
    "peterson-broken/in_critical summary pass 754 13 0 -",
    "peterson-broken/G(in_critical==0) ltl liveness 214 214 82+0:d21f8b30c48b90e5",
    "peterson-broken/FG(in_critical==0) ltl pass 141 141 -",
    "locked-producers explicit pass 277 40 34 -",
    "locked-producers bfs pass 277 67 0 -",
    "locked-producers summary pass 230 7 0 -",
    "locked-producers/l explicit pass 169 31 13 -",
    "locked-producers/l bfs pass 169 39 0 -",
    "locked-producers/l summary pass 146 5 0 -",
    "locked-producers/G(l==0) ltl liveness 138 138 63+0:2ecc44a0f7a0dc72",
    "locked-producers/FG(l==0) ltl pass 86 86 -",
    "locked-producers/total explicit pass 351 57 35 -",
    "locked-producers/total bfs pass 351 77 0 -",
    "locked-producers/total summary pass 300 13 0 -",
    "locked-producers/G(total==0) ltl liveness 161 161 63+0:2ecc44a0f7a0dc72",
    "locked-producers/FG(total==0) ltl liveness 113 113 63+0:2ecc44a0f7a0dc72",
    "locked-producers/done explicit pass 319 53 31 -",
    "locked-producers/done bfs pass 319 71 0 -",
    "locked-producers/done summary pass 268 11 0 -",
    "locked-producers/G(done==0) ltl liveness 155 155 63+0:2ecc44a0f7a0dc72",
    "locked-producers/FG(done==0) ltl liveness 110 110 63+0:2ecc44a0f7a0dc72",
    "racy-producers explicit pass 189 29 25 -",
    "racy-producers bfs pass 189 49 0 -",
    "racy-producers summary pass 153 5 0 -",
    "racy-producers/total explicit race 151 31 11 4:00dc0e76cd02a805",
    "racy-producers/total bfs race 129 45 0 3:6a1e61be567b464d",
    "racy-producers/total summary assertion 66 3 0 0:cbf29ce484222325",
    "racy-producers/G(total==0) ltl liveness 115 115 45+0:9e56d442be1372b0",
    "racy-producers/FG(total==0) ltl liveness 81 81 45+0:9e56d442be1372b0",
    "racy-producers/done explicit race 159 32 12 6:37a4acebe83485c6",
    "racy-producers/done bfs race 185 51 0 6:37a4acebe83485c6",
    "racy-producers/done summary assertion 80 4 0 0:cbf29ce484222325",
    "racy-producers/G(done==0) ltl liveness 109 109 45+0:9e56d442be1372b0",
    "racy-producers/FG(done==0) ltl liveness 78 78 45+0:9e56d442be1372b0",
    "barrier explicit pass 344 50 49 -",
    "barrier bfs pass 344 97 0 -",
    "barrier summary pass 298 3 0 -",
    "barrier/l explicit pass 103 25 8 -",
    "barrier/l bfs pass 103 31 0 -",
    "barrier/l summary pass 101 3 0 -",
    "barrier/G(l==0) ltl pass 76 76 -",
    "barrier/FG(l==0) ltl pass 51 51 -",
    "barrier/arrived explicit pass 232 43 23 -",
    "barrier/arrived bfs pass 232 58 0 -",
    "barrier/arrived summary pass 230 9 0 -",
    "barrier/G(arrived==0) ltl pass 83 83 -",
    "barrier/FG(arrived==0) ltl pass 62 62 -",
    "barrier/go explicit race 123 31 5 19:260418c03b7752c6",
    "barrier/go bfs race 192 58 0 19:260418c03b7752c6",
    "barrier/go summary assertion 189 4 0 0:cbf29ce484222325",
    "barrier/G(go==0) ltl pass 119 119 -",
    "barrier/FG(go==0) ltl pass 80 80 -",
    "barrier/a explicit pass 161 37 13 -",
    "barrier/a bfs pass 161 47 0 -",
    "barrier/a summary pass 159 4 0 -",
    "barrier/G(a==0) ltl pass 103 103 -",
    "barrier/FG(a==0) ltl pass 72 72 -",
    "barrier/b explicit pass 135 29 12 -",
    "barrier/b bfs pass 135 37 0 -",
    "barrier/b summary pass 133 5 0 -",
    "barrier/G(b==0) ltl pass 40 40 -",
    "barrier/FG(b==0) ltl pass 40 40 -",
    "dcl-correct explicit pass 462 86 80 -",
    "dcl-correct bfs pass 462 159 0 -",
    "dcl-correct summary pass 312 7 0 -",
    "dcl-correct/l explicit pass 228 69 19 -",
    "dcl-correct/l bfs pass 228 83 0 -",
    "dcl-correct/l summary pass 166 5 0 -",
    "dcl-correct/G(l==0) ltl liveness 208 208 87+0:2f8eb5a4460c52eb",
    "dcl-correct/FG(l==0) ltl pass 126 126 -",
    "dcl-correct/initialized explicit race 352 88 34 10:14970af07a47b50c",
    "dcl-correct/initialized bfs race 363 124 0 10:14970af07a47b50c",
    "dcl-correct/initialized summary assertion 260 8 0 0:cbf29ce484222325",
    "dcl-correct/G(initialized==0) ltl liveness 235 235 87+0:2f8eb5a4460c52eb",
    "dcl-correct/FG(initialized==0) ltl liveness 170 170 87+0:2f8eb5a4460c52eb",
    "dcl-correct/data explicit pass 408 106 41 -",
    "dcl-correct/data bfs pass 408 133 0 -",
    "dcl-correct/data summary pass 308 11 0 -",
    "dcl-correct/G(data==0) ltl liveness 241 241 87+0:2f8eb5a4460c52eb",
    "dcl-correct/FG(data==0) ltl liveness 173 173 87+0:2f8eb5a4460c52eb",
    "dcl-broken explicit assertion 263 59 37 16:b44e1cd5ceeb954c",
    "dcl-broken bfs assertion 449 165 0 16:b44e1cd5ceeb954c",
    "dcl-broken summary assertion 211 2 0 0:cbf29ce484222325",
    "dcl-broken/l explicit pass 228 69 19 -",
    "dcl-broken/l bfs pass 228 83 0 -",
    "dcl-broken/l summary pass 166 5 0 -",
    "dcl-broken/G(l==0) ltl liveness 208 208 87+0:2f8eb5a4460c52eb",
    "dcl-broken/FG(l==0) ltl pass 126 126 -",
    "dcl-broken/initialized explicit race 352 88 34 9:82704ed156b64642",
    "dcl-broken/initialized bfs race 333 114 0 9:82704ed156b64642",
    "dcl-broken/initialized summary assertion 260 8 0 0:cbf29ce484222325",
    "dcl-broken/G(initialized==0) ltl liveness 241 241 87+0:2f8eb5a4460c52eb",
    "dcl-broken/FG(initialized==0) ltl liveness 173 173 87+0:2f8eb5a4460c52eb",
    "dcl-broken/data explicit assertion 291 81 23 16:b44e1cd5ceeb954c",
    "dcl-broken/data bfs assertion 304 114 0 16:b44e1cd5ceeb954c",
    "dcl-broken/data summary assertion 206 5 0 0:cbf29ce484222325",
    "dcl-broken/G(data==0) ltl liveness 235 235 87+0:2f8eb5a4460c52eb",
    "dcl-broken/FG(data==0) ltl liveness 170 170 87+0:2f8eb5a4460c52eb",
    "ticket-lock explicit pass 259 35 34 -",
    "ticket-lock bfs pass 259 67 0 -",
    "ticket-lock summary pass 233 3 0 -",
    "ticket-lock/next_ticket explicit pass 135 26 11 -",
    "ticket-lock/next_ticket bfs pass 135 35 0 -",
    "ticket-lock/next_ticket summary pass 133 3 0 -",
    "ticket-lock/G(next_ticket==0) ltl liveness 171 171 60+0:ca8439b0a98b8b90",
    "ticket-lock/FG(next_ticket==0) ltl liveness 118 118 60+0:ca8439b0a98b8b90",
    "ticket-lock/now_serving explicit pass 267 42 27 -",
    "ticket-lock/now_serving bfs pass 267 61 0 -",
    "ticket-lock/now_serving summary pass 265 9 0 -",
    "ticket-lock/G(now_serving==0) ltl liveness 145 145 60+0:ca8439b0a98b8b90",
    "ticket-lock/FG(now_serving==0) ltl liveness 105 105 60+0:ca8439b0a98b8b90",
    "ticket-lock/shared explicit pass 283 44 29 -",
    "ticket-lock/shared bfs pass 283 64 0 -",
    "ticket-lock/shared summary pass 281 10 0 -",
    "ticket-lock/G(shared==0) ltl liveness 151 151 60+0:ca8439b0a98b8b90",
    "ticket-lock/FG(shared==0) ltl liveness 108 108 60+0:ca8439b0a98b8b90",
    "ticket-lock/done1 explicit race 148 31 9 13:2ebe0aeb5d79c44e",
    "ticket-lock/done1 bfs race 262 66 0 13:2ebe0aeb5d79c44e",
    "ticket-lock/done1 summary assertion 203 6 0 0:cbf29ce484222325",
    "ticket-lock/G(done1==0) ltl liveness 191 191 60+0:ca8439b0a98b8b90",
    "ticket-lock/FG(done1==0) ltl liveness 128 128 60+0:ca8439b0a98b8b90",
    "dekker explicit pass 362 59 58 -",
    "dekker bfs pass 362 115 0 -",
    "dekker summary pass 286 3 0 -",
    "dekker/want0 explicit race 83 27 5 2:3ab9a55bc9a9fc14",
    "dekker/want0 bfs race 78 31 0 2:3ab9a55bc9a9fc14",
    "dekker/want0 summary assertion 187 5 0 0:cbf29ce484222325",
    "dekker/G(want0==0) ltl liveness 144 144 66+0:a38b917443333250",
    "dekker/FG(want0==0) ltl pass 110 110 -",
    "dekker/want1 explicit race 166 47 9 14:5d67e66752ab746d",
    "dekker/want1 bfs race 70 28 0 2:74c47833cad66b74",
    "dekker/want1 summary assertion 175 5 0 0:cbf29ce484222325",
    "dekker/G(want1==0) ltl liveness 180 180 66+0:a38b917443333250",
    "dekker/FG(want1==0) ltl pass 110 110 -",
    "dekker/turn explicit race 150 45 7 15:6c8f377a36ec1ab2",
    "dekker/turn bfs race 110 43 0 11:9e258cc787ddb3e2",
    "dekker/turn summary assertion 147 3 0 0:cbf29ce484222325",
    "dekker/G(turn==0) ltl liveness 92 92 66+0:a38b917443333250",
    "dekker/FG(turn==0) ltl liveness 86 86 66+0:a38b917443333250",
    "dekker/in_critical explicit pass 460 127 38 -",
    "dekker/in_critical bfs pass 460 153 0 -",
    "dekker/in_critical summary pass 460 13 0 -",
    "dekker/G(in_critical==0) ltl liveness 151 151 66+0:a38b917443333250",
    "dekker/FG(in_critical==0) ltl pass 97 97 -",
    "rw-lock explicit pass 294 39 38 -",
    "rw-lock bfs pass 294 75 0 -",
    "rw-lock summary pass 250 3 0 -",
    "rw-lock/m explicit pass 204 38 16 -",
    "rw-lock/m bfs pass 204 52 0 -",
    "rw-lock/m summary pass 200 3 0 -",
    "rw-lock/G(m==0) ltl liveness 197 197 84+0:054a599672442176",
    "rw-lock/FG(m==0) ltl pass 121 121 -",
    "rw-lock/readers explicit pass 332 54 32 -",
    "rw-lock/readers bfs pass 332 76 0 -",
    "rw-lock/readers summary pass 328 11 0 -",
    "rw-lock/G(readers==0) ltl liveness 155 155 84+0:054a599672442176",
    "rw-lock/FG(readers==0) ltl pass 109 109 -",
    "rw-lock/a explicit pass 260 45 23 -",
    "rw-lock/a bfs pass 260 63 0 -",
    "rw-lock/a summary pass 256 6 0 -",
    "rw-lock/G(a==0) ltl liveness 221 221 84+0:054a599672442176",
    "rw-lock/FG(a==0) ltl liveness 155 155 84+0:054a599672442176",
    "rw-lock/b explicit pass 260 45 23 -",
    "rw-lock/b bfs pass 260 63 0 -",
    "rw-lock/b summary pass 256 6 0 -",
    "rw-lock/G(b==0) ltl liveness 215 215 84+0:054a599672442176",
    "rw-lock/FG(b==0) ltl liveness 152 152 84+0:054a599672442176",
];

#[test]
fn every_engine_matches_the_golden_exploration_table() {
    let rows: Vec<String> = kiss_samples::all().iter().flat_map(sample_rows).collect();
    let table = rows.join("\n");
    assert_eq!(rows.len(), GOLDEN.len(), "golden table size changed; current table:\n{table}");
    for (got, want) in rows.iter().zip(GOLDEN) {
        assert_eq!(got, want, "exploration diverged; current table:\n{table}");
    }
}

/// Summed steps, states stored and store bytes over `outcomes`, and
/// the largest frontier any of them reached.
fn store_totals(outcomes: impl IntoIterator<Item = KissOutcome>) -> (u64, usize, usize, usize) {
    let mut totals = (0, 0, 0, 0);
    for outcome in outcomes {
        if let Some(stats) = outcome.stats() {
            totals.0 += stats.steps();
            totals.1 += stats.seq.states_stored;
            totals.2 += stats.seq.store_bytes;
            totals.3 = totals.3.max(stats.seq.frontier_peak);
        }
    }
    totals
}

/// `engine`'s assertion check of every sample.
fn assertion_outcomes(engine: Engine) -> Vec<KissOutcome> {
    kiss_samples::all().iter().map(|sample| outcome(sample, engine)).collect()
}

/// The golden table's two LTL checks of every global of every sample.
fn ltl_outcomes() -> Vec<KissOutcome> {
    let mut outcomes = Vec::new();
    for sample in kiss_samples::all() {
        let program = sample.program();
        for global in &program.globals {
            for formula in ["G ({g} == 0)", "F G ({g} == 0)"] {
                let parsed = kiss_ltl::parse(&formula.replace("{g}", &global.name))
                    .expect("well-formed formula");
                outcomes.push(
                    kiss(Engine::Explicit)
                        .check_ltl(&program, &parsed)
                        .expect("every global is a proposition"),
                );
            }
        }
    }
    outcomes
}

#[test]
fn every_engine_keeps_its_state_store_footprint() {
    // The golden table pins what each engine explores; this pins what
    // its state store keeps while doing so. A leaner store lowers these
    // numbers on purpose and updates them; a fatter one fails here.
    assert_eq!(store_totals(assertion_outcomes(Engine::Explicit)), (3_798, 619, 17_920, 28));
    assert_eq!(store_totals(assertion_outcomes(Engine::Bfs)), (3_984, 1_232, 96_512, 18));
    assert_eq!(store_totals(assertion_outcomes(Engine::Summary)), (3_009, 563, 12_544, 0));
    assert_eq!(store_totals(ltl_outcomes()), (10_853, 10_853, 898_232, 14));
}

#[test]
fn the_default_engine_is_explicit() {
    // A sample checked through the builder's defaults matches an
    // explicitly selected explicit engine, so existing callers keep it.
    let sample = kiss_samples::all().into_iter().next().expect("non-empty suite");
    let default = Kiss::new()
        .with_validation(false)
        .with_budget(Budget::steps_states(2_000_000, 60_000))
        .check_assertions(&sample.program());
    assert_eq!(default, outcome(&sample, Engine::Explicit));
}

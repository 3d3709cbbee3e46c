//! Alias pruning and the transform's output size, pinned over the
//! served race corpus.
//!
//! Every `corpus_batch` entry is transformed exactly as a served race
//! check is (`max_ts` 0, alias pruning on) and lowered; the race checks
//! the transform emitted and pruned and the lowered instructions are
//! totalled. The transform instruments and the module lowers only the
//! functions the harness `main` reaches, so the pruned count covers
//! reachable code only and the instruction total is a few hundred per
//! check; lowering the whole driver again would multiply it about
//! sixfold. A rewrite of the alias analysis may make it faster, never
//! more or less precise: every total must stay fixed.

use kiss_core::transform::{transform, RaceTarget, TransformConfig};
use kiss_exec::Module;

/// `(checks_emitted, checks_pruned, instrs, entries)` summed over one
/// corpus.
fn pruning_totals(refined: bool) -> (usize, usize, usize, usize) {
    let entries = kiss_drivers::corpus_batch(refined);
    let mut totals = (0, 0, 0, entries.len());
    for entry in &entries {
        let program = kiss_lang::parse_and_lower(&entry.source).expect("corpus entries parse");
        let race = RaceTarget::resolve(&program, &entry.race_spec).expect("race target resolves");
        let cfg = TransformConfig { max_ts: 0, race: Some(race), alias_prune: true };
        let info = transform(&program, &cfg).expect("corpus entries transform");
        totals.0 += info.checks_emitted;
        totals.1 += info.checks_pruned;
        totals.2 += Module::lower(info.program).instr_count();
    }
    totals
}

#[test]
fn naive_corpus_pruning_totals_are_pinned() {
    assert_eq!(pruning_totals(false), (899, 32_252, 223_589, 481));
}

/// With the naive corpus's totals: 1,716 emitted, 62,610 pruned and
/// 436,579 lowered instructions over all 921 served race checks.
#[test]
fn refined_corpus_pruning_totals_are_pinned() {
    assert_eq!(pruning_totals(true), (817, 30_358, 212_990, 440));
}

//! Alias pruning pinned over the served race corpus.
//!
//! Every `corpus_batch` entry is transformed exactly as a served race
//! check is (`max_ts` 0, alias pruning on), and the race checks the
//! transform emitted and pruned are totalled. A rewrite of the alias
//! analysis may make it faster, never more or less precise: both totals
//! must stay fixed.

use kiss_core::transform::{transform, RaceTarget, TransformConfig};

/// `(checks_emitted, checks_pruned, entries)` summed over one corpus.
fn pruning_totals(refined: bool) -> (usize, usize, usize) {
    let entries = kiss_drivers::corpus_batch(refined);
    let mut totals = (0, 0, entries.len());
    for entry in &entries {
        let program = kiss_lang::parse_and_lower(&entry.source).expect("corpus entries parse");
        let race = RaceTarget::resolve(&program, &entry.race_spec).expect("race target resolves");
        let cfg = TransformConfig { max_ts: 0, race: Some(race), alias_prune: true };
        let info = transform(&program, &cfg).expect("corpus entries transform");
        totals.0 += info.checks_emitted;
        totals.1 += info.checks_pruned;
    }
    totals
}

#[test]
fn naive_corpus_pruning_totals_are_pinned() {
    assert_eq!(pruning_totals(false), (899, 579_088, 481));
}

/// With the naive corpus: 1716 emitted and 1,121,980 pruned over all
/// 921 served race checks.
#[test]
fn refined_corpus_pruning_totals_are_pinned() {
    assert_eq!(pruning_totals(true), (817, 542_892, 440));
}

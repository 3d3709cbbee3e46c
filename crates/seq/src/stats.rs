//! Uniform search statistics shared by all three engines.
//!
//! Historically the explicit and summary engines each defined their own
//! `Stats` struct (and the BFS engine reported nothing), which made
//! every downstream consumer engine-specific. [`EngineStats`] is the
//! union of what the engines can measure; fields an engine does not
//! track stay zero.

/// Statistics for one engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Instructions executed. All engines.
    pub steps: u64,
    /// Distinct states recorded (the summary engine counts computed
    /// summaries here, its closest analogue). All engines.
    pub states: usize,
    /// Complete paths explored — ended by return-from-main, prune, or
    /// revisit. Explicit engine only.
    pub paths: u64,
    /// Distinct `(function, entry-state)` summaries computed. Summary
    /// engine only.
    pub summaries: usize,
    /// Fixpoint rounds taken. Summary engine only.
    pub rounds: u32,
    /// Peak length of the queue of states waiting to be expanded: the
    /// explicit engine's DFS stack (with the path it is on), the
    /// breadth-first queue of the BFS engine and of the LTL product.
    /// Zero for the summary engine.
    pub frontier_peak: usize,
    /// Fingerprints held by the state store's visited tables at the end
    /// of the run (the summary engine sums its per-body tables). All
    /// engines.
    pub states_stored: usize,
    /// Exact bytes held by the state store. All engines.
    pub store_bytes: usize,
    /// Equal to `steps` for the BFS and LTL product engines, zero
    /// otherwise. Kept only because the `perfbench` package still reads
    /// it; the next benchmark-defining change removes it together with
    /// perfbench's parallel leg. Read `steps` instead.
    #[doc(hidden)]
    pub speculative_steps: u64,
    /// Distinct `(configuration, Büchi state)` product states explored.
    /// LTL product engine only.
    pub product_states: usize,
    /// States of the (negated-formula) Büchi automaton. LTL product
    /// engine only.
    pub buchi_states: usize,
}

impl EngineStats {
    /// One-line rendering for `--stats` style output.
    pub fn render(&self) -> String {
        let mut line = format!(
            "steps={} states={} paths={} frontier-peak={} stored={} store-bytes={}",
            self.steps, self.states, self.paths, self.frontier_peak,
            self.states_stored, self.store_bytes
        );
        if self.summaries > 0 || self.rounds > 0 {
            line.push_str(&format!(" summaries={} rounds={}", self.summaries, self.rounds));
        }
        if self.product_states > 0 {
            line.push_str(&format!(
                " product-states={} buchi-states={}",
                self.product_states, self.buchi_states
            ));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_shows_summary_fields_only_when_present() {
        let explicit = EngineStats { steps: 10, states: 4, paths: 2, frontier_peak: 3, ..EngineStats::default() };
        let line = explicit.render();
        assert!(line.contains("steps=10") && line.contains("frontier-peak=3"), "{line}");
        assert!(line.contains("stored=0") && line.contains("store-bytes=0"), "{line}");
        assert!(!line.contains("summaries"), "{line}");

        let summary = EngineStats { steps: 10, states: 4, summaries: 4, rounds: 2, ..EngineStats::default() };
        assert!(summary.render().contains("summaries=4 rounds=2"));
    }

    #[test]
    fn render_shows_product_fields_only_for_ltl_runs() {
        let safety = EngineStats { steps: 10, ..EngineStats::default() };
        assert!(!safety.render().contains("product-states"), "{}", safety.render());
        let ltl = EngineStats {
            steps: 10,
            product_states: 7,
            buchi_states: 3,
            ..EngineStats::default()
        };
        assert!(ltl.render().contains("product-states=7 buchi-states=3"), "{}", ltl.render());
    }
}

//! Seeded input generators. The program under test only ever sees what
//! these functions return; the seed never reaches it.
//!
//! Every generator keeps the *mix* of its inputs fixed and lets the seed
//! choose only what does not change the cost of the work: orders,
//! permutations of equivalent alternatives, and inert source text. Two
//! seeds therefore give different bytes but statistically identical
//! workloads, which is what lets ten seeded runs agree within the
//! benchmark's bounds.

use kiss_drivers::FieldClass;

/// SplitMix64: small, seedable, and good enough to shuffle inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one labelled stream of `seed`, so adding draws to
    /// one stream never shifts another.
    pub fn stream(seed: u64, label: &str) -> Rng {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in label.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
        Rng(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

// ---------------------------------------------------------------------
// Driver corpus (serve workloads)
// ---------------------------------------------------------------------

/// One race check of the driver corpus, with the verdict its seeded
/// field class implies.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    pub label: String,
    pub source: String,
    pub race_spec: String,
    pub class: FieldClass,
}

impl CorpusEntry {
    /// The reference verdict. It comes from how the generator seeded
    /// the field, not from the checker: racy shapes race, budget-heavy
    /// shapes exhaust the 200k-step / 20k-state serve budget, and the
    /// rest are clean.
    pub fn expected(&self) -> &'static str {
        match self.class {
            FieldClass::Spurious | FieldClass::Real | FieldClass::Benign => "race",
            FieldClass::Heavy => "inconclusive",
            FieldClass::Clean => "pass",
        }
    }
}

/// The naive and the refined corpus (921 race checks), each entry
/// labelled with its field's seeded class.
pub fn corpus() -> Vec<CorpusEntry> {
    let models = kiss_drivers::generate_corpus();
    let mut out = Vec::new();
    for refined in [false, true] {
        for entry in kiss_drivers::corpus_batch(refined) {
            let (driver, field) = entry
                .label
                .split_once('/')
                .expect("labels are driver/field");
            let model = models
                .iter()
                .find(|m| m.name == driver)
                .expect("label names a driver");
            let field: usize = field.parse().expect("field index");
            out.push(CorpusEntry {
                label: format!(
                    "{}/{}",
                    if refined { "refined" } else { "naive" },
                    entry.label
                ),
                source: entry.source,
                race_spec: entry.race_spec,
                class: model.fields[field].class,
            });
        }
    }
    out
}

fn class_rank(class: FieldClass) -> usize {
    match class {
        FieldClass::Spurious => 0,
        FieldClass::Real => 1,
        FieldClass::Benign => 2,
        FieldClass::Heavy => 3,
        FieldClass::Clean => 4,
    }
}

/// serve-cold's op order: `rounds` passes over the corpus. Within each
/// pass every class is spread evenly (systematic sampling with seeded
/// jitter), so any prefix the time limit cuts holds each class in its
/// corpus proportion, within one op. Heavy fields cost ten times a
/// clean one; an unlucky run of them would otherwise move p90.
pub fn cold_order(seed: u64, entries: &[CorpusEntry], rounds: usize) -> Vec<usize> {
    let mut rng = Rng::stream(seed, "cold-order");
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); 5];
    for (i, e) in entries.iter().enumerate() {
        by_class[class_rank(e.class)].push(i);
    }
    let mut order = Vec::with_capacity(entries.len() * rounds);
    for _ in 0..rounds {
        let mut keyed: Vec<(f64, usize)> = Vec::with_capacity(entries.len());
        for members in &by_class {
            let mut members = members.clone();
            rng.shuffle(&mut members);
            let n = members.len() as f64;
            for (j, &ix) in members.iter().enumerate() {
                keyed.push(((j as f64 + rng.unit()) / n, ix));
            }
        }
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
        order.extend(keyed.into_iter().map(|(_, ix)| ix));
    }
    order
}

/// The source text of op `n`: the entry's program plus a trailing
/// comment that makes every op's cache key distinct (the corpus repeats
/// some harnesses between its naive and refined halves) without
/// changing what is checked.
pub fn tagged_source(entry: &CorpusEntry, seed: u64, n: usize) -> String {
    format!("{}\n// perfbench {seed:x}-{n}\n", entry.source)
}

/// serve-warm's request pool: per driver, one naive and one refined
/// field drawn by seed among the fields of the driver's most common
/// class. Heavy fields are left out. On the hit path every verdict costs
/// the same, but the cache fill is part of `setup_s`, and a check's cost
/// depends on its class (a clean fdc field costs three times a spurious
/// one); fixing the class per driver keeps the fill steady across seeds.
pub fn warm_pool(seed: u64, entries: &[CorpusEntry]) -> Vec<usize> {
    let mut rng = Rng::stream(seed, "warm-pool");
    let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        if e.class == FieldClass::Heavy {
            continue;
        }
        let (half, rest) = e.label.split_once('/').expect("labelled");
        let driver = rest.split_once('/').expect("driver/field").0;
        let key = format!("{half}/{driver}");
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(i),
            None => groups.push((key, vec![i])),
        }
    }
    groups
        .into_iter()
        .map(|(_, members)| {
            let mut counts = [0usize; 5];
            for &i in &members {
                counts[class_rank(entries[i].class)] += 1;
            }
            let top = (0..counts.len())
                .max_by_key(|&r| (counts[r], std::cmp::Reverse(r)))
                .expect("five classes");
            let alike: Vec<usize> = members
                .into_iter()
                .filter(|&i| class_rank(entries[i].class) == top)
                .collect();
            alike[rng.below(alike.len())]
        })
        .collect()
}

/// serve-warm's draw: `count` picks from a pool of `pool` frames, with
/// repeats, as a shuffle bag (every frame once per round, in a seeded
/// order), so frame sizes keep their pool mix in every prefix.
pub fn warm_draw(seed: u64, pool: usize, count: usize) -> Vec<usize> {
    let mut rng = Rng::stream(seed, "warm-draw");
    let mut out = Vec::with_capacity(count);
    let mut bag: Vec<usize> = (0..pool).collect();
    while out.len() < count {
        rng.shuffle(&mut bag);
        out.extend(bag.iter().copied().take(count - out.len()));
    }
    out
}

// ---------------------------------------------------------------------
// Program family (serve-cold's explore leg)
// ---------------------------------------------------------------------

/// How one explore-leg op is checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Explicit,
    Bfs,
    Summary,
    Ltl,
}

impl Mode {
    pub const ALL: [Mode; 4] = [Mode::Explicit, Mode::Bfs, Mode::Summary, Mode::Ltl];

    pub fn name(self) -> &'static str {
        match self {
            Mode::Explicit => "explicit",
            Mode::Bfs => "bfs",
            Mode::Summary => "summary",
            Mode::Ltl => "ltl",
        }
    }
}

/// One generated check: a program, how to check it, and the verdict
/// known by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreOp {
    pub mode: Mode,
    /// Whether the property fails by construction.
    pub fails: bool,
    pub source: String,
    /// The LTL formula, for [`Mode::Ltl`].
    pub formula: Option<String>,
}

impl ExploreOp {
    /// The reference verdict, in `KissOutcome::verdict_str` terms.
    pub fn expected(&self) -> &'static str {
        match (self.mode, self.fails) {
            (_, false) => "pass",
            (Mode::Ltl, true) => "liveness",
            (_, true) => "assertion",
        }
    }
}

/// The value every choice layer must take for the bad state. It sits
/// last in each choice, and the other arms are permuted by seed, so the
/// seed never moves where the searches meet it.
const TARGET_ARM: u32 = 3;
const OTHER_ARMS: [u32; 5] = [1, 2, 4, 5, 6];

/// Loop bound per (mode, fails) class. Each class's searches cost
/// roughly the same (20-40 ms), so no class dominates the leg's time.
fn class_bound(mode: Mode, fails: bool) -> u32 {
    match (mode, fails) {
        (Mode::Explicit, false) => 45,
        (Mode::Explicit, true) => 12,
        (Mode::Bfs, false) => 30,
        (Mode::Bfs, true) => 9,
        (Mode::Summary, false) => 14,
        (Mode::Summary, true) => 75,
        (Mode::Ltl, false) => 15,
        (Mode::Ltl, true) => 15,
    }
}

/// Eight classes: four modes, each with a holding and a failing
/// property.
pub const CLASSES: usize = 8;

/// Op `n` of seed `seed`. Ops come in blocks of [`CLASSES`], one of
/// each class in a seeded order, so the class mix is exact in every
/// complete block.
pub fn explore_op(seed: u64, n: usize) -> ExploreOp {
    let block = n / CLASSES;
    let mut order: Vec<usize> = (0..CLASSES).collect();
    Rng::stream(seed, &format!("explore-block-{block}")).shuffle(&mut order);
    let class = order[n % CLASSES];
    let mode = Mode::ALL[class / 2];
    let fails = class % 2 == 1;
    let mut rng = Rng::stream(seed, &format!("explore-op-{n}"));
    let arms = |rng: &mut Rng, var: &str| {
        let mut values = OTHER_ARMS;
        rng.shuffle(&mut values);
        let mut text: Vec<String> = values.iter().map(|v| format!("{var} = {v};")).collect();
        text.push(format!("{var} = {TARGET_ARM};"));
        text.join(" [] ")
    };
    let (arms_a, arms_b, arms_c) = (
        arms(&mut rng, "a"),
        arms(&mut rng, "b"),
        arms(&mut rng, "c"),
    );
    let salt = rng.below(1_000_000);
    let (d0, d1) = (1 + rng.below(50), 51 + rng.below(50));
    let bound = class_bound(mode, fails);
    // With a = b = c = TARGET_ARM the loop adds `step` per iteration, so
    // w reaches `deepest` and never `deepest + 1`: the bad state is
    // reachable exactly when the op is meant to fail.
    let step = 3 * TARGET_ARM;
    let deepest = bound / step * step;
    let w_bad = if fails { deepest } else { deepest + 1 };
    let bad_key = u64::from(TARGET_ARM) * 1_011_000 + u64::from(w_bad);
    let (assertion, formula) = match mode {
        // The product engine prunes on failed assertions, so the LTL
        // variant keeps only an assertion that always holds and states
        // the bad state as `G !bad` instead.
        Mode::Ltl => (
            format!("assert w <= {bound};"),
            Some(format!(
                "G !(a == {TARGET_ARM} && b == {TARGET_ARM} && c == {TARGET_ARM} && w == {w_bad})"
            )),
        ),
        _ => (
            format!("assert w + a * 1000000 + b * 10000 + c * 1000 != {bad_key};"),
            None,
        ),
    };
    let source = format!(
        "int a; int b; int c; int w; int d; int done; int salt;\n\
         void helper() {{ choice {{ d = {d0}; [] d = {d1}; }} }}\n\
         void main() {{\n    salt = {salt};\n    async helper();\n    \
         choice {{ {arms_a} }}\n    choice {{ {arms_b} }}\n    choice {{ {arms_c} }}\n    \
         iter {{ w = w + a + b + c; assume w <= {bound}; }}\n    {assertion}\n    done = 1;\n}}\n"
    );
    ExploreOp {
        mode,
        fails,
        source,
        formula,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explore_ops_repeat_per_seed_and_differ_across_seeds() {
        let a: Vec<ExploreOp> = (0..40).map(|n| explore_op(7, n)).collect();
        let b: Vec<ExploreOp> = (0..40).map(|n| explore_op(7, n)).collect();
        let c: Vec<ExploreOp> = (0..40).map(|n| explore_op(8, n)).collect();
        assert_eq!(a, b);
        assert!(a.iter().zip(&c).any(|(x, y)| x.source != y.source));
    }

    #[test]
    fn every_explore_block_holds_each_class_once() {
        for seed in [1, 2, 3] {
            for block in 0..5 {
                let mut seen: Vec<(Mode, bool)> = (0..CLASSES)
                    .map(|i| explore_op(seed, block * CLASSES + i))
                    .map(|op| (op.mode, op.fails))
                    .collect();
                seen.sort_by_key(|(m, f)| (m.name(), *f));
                seen.dedup();
                assert_eq!(seen.len(), CLASSES);
            }
        }
    }

    #[test]
    fn explore_ops_parse() {
        for op in (0..CLASSES).map(|n| explore_op(11, n)) {
            kiss_lang::parse_and_lower(&op.source).unwrap_or_else(|e| panic!("{e}\n{}", op.source));
            if let Some(f) = &op.formula {
                kiss_ltl::parse(f).unwrap();
            }
        }
    }

    #[test]
    fn cold_order_repeats_per_seed_and_keeps_the_class_mix_in_prefixes() {
        let entries = corpus();
        assert_eq!(entries.len(), 921);
        let a = cold_order(5, &entries, 2);
        assert_eq!(a, cold_order(5, &entries, 2));
        assert_ne!(a, cold_order(6, &entries, 2));
        assert_eq!(a.len(), 2 * entries.len());
        let heavy_total = entries
            .iter()
            .filter(|e| e.class == FieldClass::Heavy)
            .count() as f64;
        let share = heavy_total / entries.len() as f64;
        for prefix in [100, 450, 700, 1300] {
            let heavy = a[..prefix]
                .iter()
                .filter(|&&i| entries[i].class == FieldClass::Heavy)
                .count();
            assert!(
                (heavy as f64 - share * prefix as f64).abs() <= 2.0,
                "prefix {prefix}: {heavy}"
            );
        }
        assert_ne!(
            tagged_source(&entries[0], 5, 0),
            tagged_source(&entries[0], 5, 1)
        );
        assert_ne!(
            tagged_source(&entries[0], 5, 0),
            tagged_source(&entries[0], 6, 0)
        );
    }

    #[test]
    fn warm_inputs_repeat_per_seed_and_differ_across_seeds() {
        let entries = corpus();
        let pool = warm_pool(3, &entries);
        assert_eq!(pool, warm_pool(3, &entries));
        assert_ne!(pool, warm_pool(4, &entries));
        assert!(pool.iter().all(|&i| entries[i].class != FieldClass::Heavy));
        // Seeds change the fields, never the class mix the fill pays for.
        let classes = |p: &[usize]| {
            p.iter()
                .map(|&i| class_rank(entries[i].class))
                .collect::<Vec<_>>()
        };
        assert_eq!(classes(&pool), classes(&warm_pool(4, &entries)));
        let draw = warm_draw(3, pool.len(), 1000);
        assert_eq!(draw, warm_draw(3, pool.len(), 1000));
        assert_ne!(draw, warm_draw(4, pool.len(), 1000));
        // A complete round holds every frame once.
        let mut round: Vec<usize> = draw[..pool.len()].to_vec();
        round.sort_unstable();
        assert_eq!(round, (0..pool.len()).collect::<Vec<_>>());
    }
}

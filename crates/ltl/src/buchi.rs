//! LTL → Büchi automaton construction.
//!
//! The classic on-the-fly tableau of Gerth–Peled–Vardi–Wolper (GPVW):
//! the formula is pushed to negation normal form over an interned
//! subformula arena, the tableau expansion builds a generalized Büchi
//! automaton whose states are labeled by literal sets (a state reads
//! the *current* position of the word), and a counter construction
//! degeneralizes the per-`Until` acceptance sets into plain Büchi
//! acceptance. Everything iterates over `BTreeSet`s and sorted ids, so
//! state numbering is deterministic — the product engine's
//! counterexample selection, and so its output, relies on it.

use std::collections::{BTreeSet, HashMap};

use crate::ast::{Atom, Formula};

/// Negation-normal-form subformulas, interned by id into an arena.
/// Negation appears only on literals; `F`/`G`/`->` are desugared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Nnf {
    Tt,
    Ff,
    Lit { atom: u32, neg: bool },
    And(u32, u32),
    Or(u32, u32),
    Next(u32),
    Until(u32, u32),
    Release(u32, u32),
}

#[derive(Default)]
struct Arena {
    nodes: Vec<Nnf>,
    index: HashMap<Nnf, u32>,
}

impl Arena {
    fn intern(&mut self, n: Nnf) -> u32 {
        if let Some(&id) = self.index.get(&n) {
            return id;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(n);
        self.index.insert(n, id);
        id
    }
}

fn to_nnf(f: &Formula, neg: bool, atoms: &[Atom], ar: &mut Arena) -> u32 {
    match f {
        Formula::True => ar.intern(if neg { Nnf::Ff } else { Nnf::Tt }),
        Formula::False => ar.intern(if neg { Nnf::Tt } else { Nnf::Ff }),
        Formula::Atom(a) => {
            let atom = atoms.iter().position(|x| x == a).expect("atom collected") as u32;
            ar.intern(Nnf::Lit { atom, neg })
        }
        Formula::Not(x) => to_nnf(x, !neg, atoms, ar),
        Formula::And(a, b) => {
            let (x, y) = (to_nnf(a, neg, atoms, ar), to_nnf(b, neg, atoms, ar));
            ar.intern(if neg { Nnf::Or(x, y) } else { Nnf::And(x, y) })
        }
        Formula::Or(a, b) => {
            let (x, y) = (to_nnf(a, neg, atoms, ar), to_nnf(b, neg, atoms, ar));
            ar.intern(if neg { Nnf::And(x, y) } else { Nnf::Or(x, y) })
        }
        Formula::Implies(a, b) => {
            // a -> b  ≡  !a | b;   !(a -> b)  ≡  a & !b
            let (x, y) = (to_nnf(a, !neg, atoms, ar), to_nnf(b, neg, atoms, ar));
            ar.intern(if neg { Nnf::And(x, y) } else { Nnf::Or(x, y) })
        }
        Formula::Next(x) => {
            let inner = to_nnf(x, neg, atoms, ar);
            ar.intern(Nnf::Next(inner))
        }
        Formula::Finally(x) => {
            // F x ≡ true U x;   !F x ≡ false R !x
            let inner = to_nnf(x, neg, atoms, ar);
            let unit = ar.intern(if neg { Nnf::Ff } else { Nnf::Tt });
            ar.intern(if neg { Nnf::Release(unit, inner) } else { Nnf::Until(unit, inner) })
        }
        Formula::Globally(x) => {
            // G x ≡ false R x;   !G x ≡ true U !x
            let inner = to_nnf(x, neg, atoms, ar);
            let unit = ar.intern(if neg { Nnf::Tt } else { Nnf::Ff });
            ar.intern(if neg { Nnf::Until(unit, inner) } else { Nnf::Release(unit, inner) })
        }
        Formula::Until(a, b) => {
            let (x, y) = (to_nnf(a, neg, atoms, ar), to_nnf(b, neg, atoms, ar));
            ar.intern(if neg { Nnf::Release(x, y) } else { Nnf::Until(x, y) })
        }
        Formula::Release(a, b) => {
            let (x, y) = (to_nnf(a, neg, atoms, ar), to_nnf(b, neg, atoms, ar));
            ar.intern(if neg { Nnf::Until(x, y) } else { Nnf::Release(x, y) })
        }
    }
}

/// The virtual pre-initial node of the tableau.
const INIT: usize = usize::MAX;

/// A finished tableau node.
struct GNode {
    incoming: BTreeSet<usize>,
    old: BTreeSet<u32>,
    next: BTreeSet<u32>,
}

/// A node still being expanded.
#[derive(Clone)]
struct Work {
    incoming: BTreeSet<usize>,
    new: BTreeSet<u32>,
    old: BTreeSet<u32>,
    next: BTreeSet<u32>,
}

struct Tableau<'a> {
    ar: &'a Arena,
    nodes: Vec<GNode>,
}

impl Tableau<'_> {
    fn expand(&mut self, mut w: Work) {
        let Some(&eta) = w.new.iter().next() else {
            // All obligations processed: merge into an equivalent node
            // or commit this one and expand its temporal successor.
            if let Some(idx) =
                self.nodes.iter().position(|n| n.old == w.old && n.next == w.next)
            {
                let incoming = std::mem::take(&mut w.incoming);
                self.nodes[idx].incoming.extend(incoming);
                return;
            }
            let idx = self.nodes.len();
            self.nodes.push(GNode { incoming: w.incoming, old: w.old, next: w.next.clone() });
            self.expand(Work {
                incoming: BTreeSet::from([idx]),
                new: w.next,
                old: BTreeSet::new(),
                next: BTreeSet::new(),
            });
            return;
        };
        w.new.remove(&eta);
        let push_new = |w: &mut Work, x: u32| {
            if !w.old.contains(&x) {
                w.new.insert(x);
            }
        };
        match self.ar.nodes[eta as usize] {
            // `false` is unsatisfiable: the node is discarded.
            Nnf::Ff => {}
            Nnf::Tt => {
                w.old.insert(eta);
                self.expand(w);
            }
            Nnf::Lit { atom, neg } => {
                // A contradictory literal set is discarded.
                let contra = Nnf::Lit { atom, neg: !neg };
                if let Some(nid) = self.ar.index.get(&contra) {
                    if w.old.contains(nid) {
                        return;
                    }
                }
                w.old.insert(eta);
                self.expand(w);
            }
            Nnf::And(a, b) => {
                push_new(&mut w, a);
                push_new(&mut w, b);
                w.old.insert(eta);
                self.expand(w);
            }
            Nnf::Next(x) => {
                w.old.insert(eta);
                w.next.insert(x);
                self.expand(w);
            }
            Nnf::Or(a, b) => {
                let mut w1 = w.clone();
                w1.old.insert(eta);
                push_new(&mut w1, a);
                self.expand(w1);
                w.old.insert(eta);
                push_new(&mut w, b);
                self.expand(w);
            }
            Nnf::Until(a, b) => {
                // a U b  ≡  b ∨ (a ∧ X(a U b))
                let mut w1 = w.clone();
                w1.old.insert(eta);
                push_new(&mut w1, a);
                w1.next.insert(eta);
                self.expand(w1);
                w.old.insert(eta);
                push_new(&mut w, b);
                self.expand(w);
            }
            Nnf::Release(a, b) => {
                // a R b  ≡  (a ∧ b) ∨ (b ∧ X(a R b))
                let mut w1 = w.clone();
                w1.old.insert(eta);
                push_new(&mut w1, b);
                w1.next.insert(eta);
                self.expand(w1);
                w.old.insert(eta);
                push_new(&mut w, a);
                push_new(&mut w, b);
                self.expand(w);
            }
        }
    }
}

/// One state of the (degeneralized) Büchi automaton. The label
/// constrains the word position read *on entry*: every atom in `pos`
/// must hold and every atom in `neg` must not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuchiState {
    /// Atom indices (into [`Buchi::atoms`]) that must hold.
    pub pos: Vec<u32>,
    /// Atom indices that must not hold.
    pub neg: Vec<u32>,
    /// Successor state indices, ascending.
    pub succs: Vec<u32>,
    /// Whether this state is Büchi-accepting.
    pub accepting: bool,
}

/// A Büchi automaton with state labels over atomic propositions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Buchi {
    /// The atomic propositions, indexed by the labels.
    pub atoms: Vec<Atom>,
    /// The states; numbering is deterministic for a given formula.
    pub states: Vec<BuchiState>,
    /// Initial state indices, ascending. A run `q0 q1 …` over a word
    /// `w0 w1 …` needs `q0` initial and `wi` satisfying `label(qi)`.
    pub initial: Vec<u32>,
}

impl Buchi {
    /// Builds the automaton accepting exactly the words satisfying `f`.
    pub fn of_formula(f: &Formula) -> Buchi {
        let atoms = f.atoms();
        let mut ar = Arena::default();
        let root = to_nnf(f, false, &atoms, &mut ar);
        let mut tableau = Tableau { ar: &ar, nodes: Vec::new() };
        tableau.expand(Work {
            incoming: BTreeSet::from([INIT]),
            new: BTreeSet::from([root]),
            old: BTreeSet::new(),
            next: BTreeSet::new(),
        });
        let nodes = tableau.nodes;

        // Per-`Until` generalized acceptance: a node is in F_i when it
        // does not owe `until_i`, or has already discharged it via the
        // right-hand side.
        let untils: Vec<(u32, u32)> = ar
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(id, n)| match n {
                Nnf::Until(_, b) => Some((id as u32, *b)),
                _ => None,
            })
            .collect();
        let in_f = |n: &GNode, i: usize| {
            let (u, rhs) = untils[i];
            !n.old.contains(&u) || n.old.contains(&rhs)
        };

        let label_of = |n: &GNode| {
            let (mut pos, mut neg) = (Vec::new(), Vec::new());
            for &id in &n.old {
                if let Nnf::Lit { atom, neg: is_neg } = ar.nodes[id as usize] {
                    if is_neg {
                        neg.push(atom);
                    } else {
                        pos.push(atom);
                    }
                }
            }
            (pos, neg)
        };
        let node_succs: Vec<Vec<usize>> = (0..nodes.len())
            .map(|i| {
                (0..nodes.len()).filter(|&j| nodes[j].incoming.contains(&i)).collect()
            })
            .collect();
        let node_initial: Vec<usize> =
            (0..nodes.len()).filter(|&j| nodes[j].incoming.contains(&INIT)).collect();

        let k = untils.len();
        if k == 0 {
            // No liveness obligations: every state is accepting.
            let states = nodes
                .iter()
                .enumerate()
                .map(|(i, n)| {
                    let (pos, neg) = label_of(n);
                    BuchiState {
                        pos,
                        neg,
                        succs: node_succs[i].iter().map(|&s| s as u32).collect(),
                        accepting: true,
                    }
                })
                .collect();
            return Buchi {
                atoms,
                states,
                initial: node_initial.iter().map(|&s| s as u32).collect(),
            };
        }

        // Counter degeneralization: state (n, i) waits for acceptance
        // set F_i; the counter advances past i exactly when n ∈ F_i, so
        // wrap points (i = k-1 and n ∈ F_{k-1}) are visited infinitely
        // often iff every F_i is.
        let mut index: HashMap<(usize, usize), u32> = HashMap::new();
        let mut order: Vec<(usize, usize)> = Vec::new();
        let mut queue: std::collections::VecDeque<(usize, usize)> =
            std::collections::VecDeque::new();
        for &n in &node_initial {
            let key = (n, 0);
            if let std::collections::hash_map::Entry::Vacant(e) = index.entry(key) {
                e.insert(order.len() as u32);
                order.push(key);
                queue.push_back(key);
            }
        }
        let mut succs_of: Vec<Vec<u32>> = Vec::new();
        succs_of.resize(order.len(), Vec::new());
        while let Some((n, i)) = queue.pop_front() {
            let i2 = if in_f(&nodes[n], i) { (i + 1) % k } else { i };
            let mut outs = Vec::new();
            for &m in &node_succs[n] {
                let key = (m, i2);
                let id = match index.get(&key) {
                    Some(&id) => id,
                    None => {
                        let id = order.len() as u32;
                        index.insert(key, id);
                        order.push(key);
                        succs_of.push(Vec::new());
                        queue.push_back(key);
                        id
                    }
                };
                outs.push(id);
            }
            let slot = index[&(n, i)] as usize;
            succs_of[slot] = outs;
        }
        let states = order
            .iter()
            .enumerate()
            .map(|(slot, &(n, i))| {
                let (pos, neg) = label_of(&nodes[n]);
                BuchiState {
                    pos,
                    neg,
                    succs: succs_of[slot].clone(),
                    accepting: i == k - 1 && in_f(&nodes[n], k - 1),
                }
            })
            .collect();
        let initial = node_initial.iter().map(|&n| index[&(n, 0)]).collect();
        Buchi { atoms, states, initial }
    }

    /// Builds the automaton for the *negation* of `f` — the one the
    /// product engine explores: an accepting lasso in the product is a
    /// program run violating `f`.
    pub fn for_negation(f: &Formula) -> Buchi {
        let negated = Formula::Not(Box::new(f.clone()));
        let mut b = Buchi::of_formula(&negated);
        // Report atoms in the original formula's order (identical set).
        b.atoms = f.atoms();
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    /// Simulates the automaton on a finite stem + infinite cycle over
    /// explicit truth assignments (one bool per atom), checking for an
    /// accepting lasso — a tiny oracle for the construction itself.
    fn accepts(b: &Buchi, stem: &[Vec<bool>], cycle: &[Vec<bool>]) -> bool {
        assert!(!cycle.is_empty());
        let holds = |s: &BuchiState, w: &Vec<bool>| {
            s.pos.iter().all(|&a| w[a as usize]) && s.neg.iter().all(|&a| !w[a as usize])
        };
        // Position index: 0..stem.len() are stem, then cycle repeats.
        // (state, cycle_pos, seen_accepting_since) would be needed for
        // exact acceptance; instead track (state, pos-in-lasso) pairs
        // and look for a reachable cycle through an accepting state,
        // which is exact for lasso words.
        let lasso_len = stem.len() + cycle.len();
        let word = |i: usize| -> &Vec<bool> {
            if i < stem.len() {
                &stem[i]
            } else {
                &cycle[(i - stem.len()) % cycle.len()]
            }
        };
        let norm = |i: usize| -> usize {
            if i < lasso_len {
                i
            } else {
                stem.len() + (i - stem.len()) % cycle.len()
            }
        };
        // Product of automaton states with lasso positions; search for
        // a cycle containing an accepting automaton state.
        let mut nodes: Vec<(u32, usize)> = Vec::new();
        let mut index = std::collections::HashMap::new();
        let mut edges: Vec<Vec<usize>> = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        for &q in &b.initial {
            if holds(&b.states[q as usize], word(0)) {
                let key = (q, 0);
                if let std::collections::hash_map::Entry::Vacant(e) = index.entry(key) {
                    e.insert(nodes.len());
                    nodes.push(key);
                    edges.push(Vec::new());
                    queue.push_back(key);
                }
            }
        }
        while let Some((q, i)) = queue.pop_front() {
            let j = norm(i + 1);
            let mut outs = Vec::new();
            for &q2 in &b.states[q as usize].succs {
                if holds(&b.states[q2 as usize], word(j)) {
                    let key = (q2, j);
                    let id = *index.entry(key).or_insert_with(|| {
                        nodes.push(key);
                        edges.push(Vec::new());
                        queue.push_back(key);
                        nodes.len() - 1
                    });
                    outs.push(id);
                }
            }
            edges[index[&(q, i)]] = outs;
        }
        // For each accepting node, is it on a cycle?
        for (id, &(q, _)) in nodes.iter().enumerate() {
            if !b.states[q as usize].accepting {
                continue;
            }
            // BFS from id's successors back to id.
            let mut seen = vec![false; nodes.len()];
            let mut bfs: std::collections::VecDeque<usize> = edges[id].iter().copied().collect();
            while let Some(v) = bfs.pop_front() {
                if v == id {
                    return true;
                }
                if std::mem::replace(&mut seen[v], true) {
                    continue;
                }
                bfs.extend(edges[v].iter().copied());
            }
        }
        false
    }

    fn b(formula: &str) -> Buchi {
        Buchi::of_formula(&parse(formula).unwrap())
    }

    const T: bool = true;
    const N: bool = false;

    #[test]
    fn eventually_accepts_iff_atom_appears() {
        let a = b("F p");
        assert!(accepts(&a, &[], &[vec![N], vec![T]]));
        assert!(accepts(&a, &[vec![T]], &[vec![N]]));
        assert!(!accepts(&a, &[], &[vec![N]]));
    }

    #[test]
    fn globally_rejects_any_violation() {
        let a = b("G p");
        assert!(accepts(&a, &[], &[vec![T]]));
        assert!(!accepts(&a, &[vec![T], vec![N]], &[vec![T]]));
        assert!(!accepts(&a, &[], &[vec![T], vec![N]]));
    }

    #[test]
    fn until_requires_the_promise_kept() {
        let a = b("p U q");
        // p=atom0, q=atom1 in first-occurrence order.
        assert!(accepts(&a, &[vec![T, N], vec![T, N]], &[vec![N, T]]));
        assert!(!accepts(&a, &[], &[vec![T, N]])); // q never holds
        assert!(!accepts(&a, &[vec![N, N]], &[vec![N, T]])); // p broken first
    }

    #[test]
    fn next_looks_one_step_ahead() {
        let a = b("X p");
        assert!(accepts(&a, &[vec![N]], &[vec![T]]));
        assert!(!accepts(&a, &[vec![T]], &[vec![N]]));
    }

    #[test]
    fn response_property_on_lassos() {
        let a = b("G (p -> F q)");
        // p then q forever: every p is answered.
        assert!(accepts(&a, &[vec![T, N]], &[vec![N, T]]));
        // p forever with no q: violated.
        assert!(!accepts(&a, &[], &[vec![T, N]]));
        // The negation accepts exactly the violating lasso.
        let neg = Buchi::for_negation(&parse("G (p -> F q)").unwrap());
        assert!(accepts(&neg, &[], &[vec![T, N]]));
        assert!(!accepts(&neg, &[vec![T, N]], &[vec![N, T]]));
    }

    #[test]
    fn contradiction_has_no_states_reachable() {
        let a = b("p & !p");
        assert!(a.initial.is_empty());
        assert!(!accepts(&a, &[], &[vec![T]]));
        assert!(!accepts(&a, &[], &[vec![N]]));
    }

    #[test]
    fn negation_automaton_keeps_original_atom_order() {
        let f = parse("G (locked -> F !locked)").unwrap();
        let neg = Buchi::for_negation(&f);
        assert_eq!(neg.atoms.len(), 1);
        assert_eq!(neg.atoms[0].name, "locked");
        assert!(!neg.states.is_empty());
        assert!(!neg.initial.is_empty());
    }

    #[test]
    fn release_is_dual_to_until() {
        let a = b("p R q");
        // q forever without p: accepted.
        assert!(accepts(&a, &[], &[vec![N, T]]));
        // q until p&q, then anything: accepted.
        assert!(accepts(&a, &[vec![N, T], vec![T, T]], &[vec![N, N]]));
        // q dropped before any p: rejected.
        assert!(!accepts(&a, &[vec![N, T]], &[vec![N, N]]));
    }

    #[test]
    fn true_accepts_everything_and_false_nothing() {
        let t = b("true");
        assert!(accepts(&t, &[], &[vec![]]));
        let f = b("false");
        assert!(!accepts(&f, &[], &[vec![]]));
    }
}

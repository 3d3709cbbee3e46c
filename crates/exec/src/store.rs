//! The one state store: the interned visited table every engine keys
//! on fingerprints, and the search tree the breadth-first engines grow
//! over it. The explicit, BFS and summary engines, the LTL product and
//! the concurrent explorer all record their states here.
//!
//! Explicit-state search lives or dies on its per-state bookkeeping
//! (paper §6 bounds every check at 20 min / 800 MB). A
//! `HashSet<(u64, u64)>` of visited states re-hashes every 128-bit
//! fingerprint through SipHash on insert, and an owned
//! `Vec<TraceStep>` per BFS parent edge duplicates the same
//! `schedule()` preamble segments thousands of times. This module
//! avoids both:
//!
//! * [`VisitedTable`] — open addressing keyed *directly* on the
//!   fingerprint (a [`TwoLaneHasher`](crate::TwoLaneHasher)
//!   output is already avalanche-mixed, so the low bits are the slot
//!   index) which hands out dense [`StateId`]s in insertion order,
//!   giving the engines array-indexed parent maps for free;
//! * [`SearchTree`] — a visited table plus the parent edge of every
//!   state, naming a segment interned in a flat [`TraceStep`] arena
//!   with hash-dedup (a repeated segment costs one slice compare
//!   instead of a clone); it rebuilds the trace to any state by walking
//!   back to its root.

use crate::step::TraceStep;

/// A state store ran out of dense-id space: the table cannot mint
/// another [`StateId`] without wrapping. Engines surface this as an
/// inconclusive verdict — a silent u32 wrap would alias two distinct
/// states and unsoundly prune the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateCapExceeded;

/// A dense index into a [`VisitedTable`], assigned in insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StateId(pub u32);

/// An open-addressing visited table keyed on 128-bit fingerprints.
///
/// Fingerprints arrive fully mixed (two multiply-rotate lanes with a
/// splitmix64 finalizer), so the table uses their low bits as the probe
/// start directly — no second hash pass, unlike `HashSet<(u64, u64)>`
/// which SipHashes the 16 bytes on every insert and probe. Slots hold
/// 1-based indices into a dense fingerprint array, so iteration order,
/// [`StateId`] assignment, and the bytes gauge are all exact.
pub struct VisitedTable {
    /// 1-based indices into `fps`; 0 marks an empty slot.
    slots: Box<[u32]>,
    /// Fingerprints in insertion order; `StateId(i)` names `fps[i]`.
    fps: Vec<(u64, u64)>,
    /// Most fingerprints the table may hold before `insert` reports
    /// [`StateCapExceeded`]. Defaults to the id space itself; tests
    /// inject smaller caps.
    cap: u32,
}

/// Initial slot count; must be a power of two.
const INITIAL_SLOTS: usize = 64;

/// The most entries one table can hold: slot values are 1-based u32
/// indices, so `len + 1` must not wrap.
const TABLE_CAP: u32 = u32::MAX - 1;

impl VisitedTable {
    /// An empty table.
    pub fn new() -> VisitedTable {
        VisitedTable {
            slots: vec![0u32; INITIAL_SLOTS].into_boxed_slice(),
            fps: Vec::new(),
            cap: TABLE_CAP,
        }
    }

    /// Lowers the id-space cap (it can never exceed the structural
    /// 32-bit limit). Exposed so the cap path is testable without
    /// inserting four billion states.
    pub fn with_capacity_limit(mut self, cap: u32) -> VisitedTable {
        self.cap = cap.min(TABLE_CAP);
        self
    }

    /// Number of distinct fingerprints stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.fps.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.fps.is_empty()
    }

    /// Inserts `fp`, returning its [`StateId`] and whether it was new.
    /// Ids are dense and assigned in first-seen order. Fails — without
    /// storing anything — when a genuinely new fingerprint would
    /// exceed the id space.
    #[inline]
    pub fn insert(&mut self, fp: (u64, u64)) -> Result<(StateId, bool), StateCapExceeded> {
        if (self.fps.len() + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut idx = (fp.0 ^ fp.1) as usize & mask;
        loop {
            match self.slots[idx] {
                0 => {
                    if self.fps.len() as u32 >= self.cap {
                        return Err(StateCapExceeded);
                    }
                    self.fps.push(fp);
                    self.slots[idx] = self.fps.len() as u32;
                    return Ok((StateId((self.fps.len() - 1) as u32), true));
                }
                slot => {
                    let id = slot - 1;
                    if self.fps[id as usize] == fp {
                        return Ok((StateId(id), false));
                    }
                    idx = (idx + 1) & mask;
                }
            }
        }
    }

    /// Exact bytes held by the table's backing storage.
    pub fn bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<u32>()
            + self.fps.capacity() * std::mem::size_of::<(u64, u64)>()
    }

    /// Doubles the slot array and re-probes every stored fingerprint.
    fn grow(&mut self) {
        let new_len = self.slots.len() * 2;
        let mut slots = vec![0u32; new_len].into_boxed_slice();
        let mask = new_len - 1;
        for (i, fp) in self.fps.iter().enumerate() {
            let mut idx = (fp.0 ^ fp.1) as usize & mask;
            while slots[idx] != 0 {
                idx = (idx + 1) & mask;
            }
            slots[idx] = (i + 1) as u32;
        }
        self.slots = slots;
    }
}

impl Default for VisitedTable {
    fn default() -> Self {
        VisitedTable::new()
    }
}

/// A handle to a trace segment interned in a [`SearchTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegId(u32);

impl SegId {
    /// The empty segment, pre-interned in every tree.
    pub const EMPTY: SegId = SegId(0);
}

/// The states a breadth-first search found, with the edge to each from
/// the state it was first reached from: the visited table, one parent
/// edge per [`StateId`] and the trace segments the edges name.
///
/// BFS discovers parent edges in segment-sized chunks, and the chunks
/// repeat heavily: every path through a driver harness replays the same
/// `schedule()` preamble, so a per-edge `Vec<TraceStep>` would store the
/// same steps once per *edge* instead of once per *segment*. The tree
/// interns each distinct segment once into one flat arena; an edge then
/// names it by a 4-byte [`SegId`].
pub struct SearchTree {
    visited: VisitedTable,
    /// Parent edge per [`StateId`]; a root is its own parent — the
    /// trace walk's termination sentinel.
    parents: Vec<(StateId, SegId)>,
    /// All interned steps, segment after segment.
    steps: Vec<TraceStep>,
    /// `(start, len)` into `steps`, indexed by `SegId`.
    spans: Vec<(u32, u32)>,
    /// Content hash per span, kept so `grow_segments` re-probes without
    /// re-hashing segment contents.
    hashes: Vec<u64>,
    /// Open-addressing index: 1-based `SegId`s keyed on the content
    /// hash, 0 marks an empty slot (the empty segment is never probed).
    slots: Box<[u32]>,
}

impl SearchTree {
    /// An empty tree over `visited`, whose capacity limit caps it,
    /// holding only the segment [`SegId::EMPTY`].
    pub fn new(visited: VisitedTable) -> SearchTree {
        SearchTree {
            visited,
            parents: Vec::new(),
            steps: Vec::new(),
            spans: vec![(0, 0)],
            hashes: vec![0],
            slots: vec![0u32; INITIAL_SLOTS].into_boxed_slice(),
        }
    }

    /// Records `fp` as a root of the search, returning its id and
    /// whether it is new.
    pub fn root(&mut self, fp: (u64, u64)) -> Result<(StateId, bool), StateCapExceeded> {
        let (id, new) = self.visited.insert(fp)?;
        if new {
            self.parents.push((id, SegId::EMPTY));
        }
        Ok((id, new))
    }

    /// Records `fp` as reached from `parent`, returning its id and
    /// whether it is new. Only a new state calls `seg` for the segment
    /// its parent edge names, so a segment no new state needs is never
    /// interned.
    #[inline]
    pub fn child(
        &mut self,
        fp: (u64, u64),
        parent: StateId,
        seg: impl FnOnce(&mut SearchTree) -> SegId,
    ) -> Result<(StateId, bool), StateCapExceeded> {
        let (id, new) = self.visited.insert(fp)?;
        if new {
            debug_assert_eq!(self.parents.len(), id.0 as usize);
            let seg = seg(self);
            self.parents.push((parent, seg));
        }
        Ok((id, new))
    }

    /// Interns `segment`, returning the id of an existing identical
    /// segment when one is already stored.
    pub fn intern(&mut self, segment: &[TraceStep]) -> SegId {
        if segment.is_empty() {
            return SegId::EMPTY;
        }
        if self.spans.len() * 4 > self.slots.len() * 3 {
            self.grow_segments();
        }
        let hash = hash_segment(segment);
        let mask = self.slots.len() - 1;
        let mut idx = hash as usize & mask;
        loop {
            match self.slots[idx] {
                0 => {
                    let start = self.steps.len() as u32;
                    self.steps.extend_from_slice(segment);
                    let id = self.spans.len() as u32;
                    self.spans.push((start, segment.len() as u32));
                    self.hashes.push(hash);
                    self.slots[idx] = id;
                    return SegId(id);
                }
                slot => {
                    if self.hashes[slot as usize] == hash && self.segment(SegId(slot)) == segment {
                        return SegId(slot);
                    }
                    idx = (idx + 1) & mask;
                }
            }
        }
    }

    /// Doubles the segment index and re-probes every interned segment.
    fn grow_segments(&mut self) {
        let new_len = self.slots.len() * 2;
        let mut slots = vec![0u32; new_len].into_boxed_slice();
        let mask = new_len - 1;
        for (id, &hash) in self.hashes.iter().enumerate().skip(1) {
            let mut idx = hash as usize & mask;
            while slots[idx] != 0 {
                idx = (idx + 1) & mask;
            }
            slots[idx] = id as u32;
        }
        self.slots = slots;
    }

    /// The steps of an interned segment.
    pub fn segment(&self, id: SegId) -> &[TraceStep] {
        let (start, len) = self.spans[id.0 as usize];
        &self.steps[start as usize..(start + len) as usize]
    }

    /// The steps from its root to the state `id`: walks parent edges
    /// back to the self-parented root, then concatenates the edges'
    /// segments in root-first order.
    pub fn trace_to(&self, mut id: StateId) -> Vec<TraceStep> {
        let mut segments: Vec<SegId> = Vec::new();
        loop {
            let (up, seg) = self.parents[id.0 as usize];
            if up == id {
                break;
            }
            segments.push(seg);
            id = up;
        }
        segments.iter().rev().flat_map(|&seg| self.segment(seg)).copied().collect()
    }

    /// Number of states recorded.
    #[inline]
    pub fn len(&self) -> usize {
        self.visited.len()
    }

    /// Whether no state is recorded.
    pub fn is_empty(&self) -> bool {
        self.visited.is_empty()
    }

    /// Exact bytes held by the table, the parent edges and the
    /// segment arena with its index.
    pub fn bytes(&self) -> usize {
        self.visited.bytes()
            + self.parents.capacity() * std::mem::size_of::<(StateId, SegId)>()
            + self.steps.capacity() * std::mem::size_of::<TraceStep>()
            + self.spans.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.hashes.capacity() * std::mem::size_of::<u64>()
            + self.slots.len() * std::mem::size_of::<u32>()
    }
}

/// A cheap content hash: (func, pc) per step under an FNV-style fold.
/// Collisions only cost an extra slice compare.
fn hash_segment(segment: &[TraceStep]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for step in segment {
        h = (h ^ u64::from(step.func.0)).wrapping_mul(0x0000_0100_0000_01B3);
        h = (h ^ step.pc as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiss_lang::hir::{FuncId, Origin};
    use kiss_lang::Span;

    #[test]
    fn visited_table_inserts_dedups_and_survives_growth() {
        let mut t = VisitedTable::new();
        assert!(t.is_empty());
        // Enough entries to force several grow() rebuilds, with
        // adversarially similar fingerprints (sequential low bits).
        for i in 0..5000u64 {
            let (id, new) = t.insert((i, i.rotate_left(17))).unwrap();
            assert!(new, "fp {i} reported as seen on first insert");
            assert_eq!(id, StateId(i as u32), "ids must be dense, in insertion order");
        }
        assert_eq!(t.len(), 5000);
        for i in 0..5000u64 {
            let (id, new) = t.insert((i, i.rotate_left(17))).unwrap();
            assert!(!new, "fp {i} reported as new on re-insert");
            assert_eq!(id, StateId(i as u32), "re-insert must return the original id");
        }
        assert_eq!(t.len(), 5000);
        assert!(t.bytes() >= 5000 * 16);
        assert_eq!(t.insert((9999, 1)).unwrap(), (StateId(5000), true));
    }

    fn step(func: u32, pc: usize) -> TraceStep {
        TraceStep { func: FuncId(func), pc, origin: Origin::User, span: Span::default() }
    }

    #[test]
    fn interner_dedups_repeated_segments() {
        let mut i = SearchTree::new(VisitedTable::new());
        let preamble: Vec<TraceStep> = (0..10).map(|pc| step(0, pc)).collect();
        let other: Vec<TraceStep> = (0..10).map(|pc| step(1, pc)).collect();

        let a = i.intern(&preamble);
        let b = i.intern(&other);
        assert_ne!(a, b);
        let arena_after_two = i.bytes();
        // The repeated preamble — the `schedule()` pattern — must not
        // grow the arena, and must return the original id.
        for _ in 0..100 {
            assert_eq!(i.intern(&preamble), a);
            assert_eq!(i.intern(&other), b);
        }
        assert_eq!(i.bytes(), arena_after_two);
        assert_eq!(i.segment(a), &preamble[..]);
        assert_eq!(i.segment(b), &other[..]);
    }

    #[test]
    fn interner_separates_hash_colliding_but_unequal_segments() {
        let mut i = SearchTree::new(VisitedTable::new());
        // Same (func, pc) content hash, different spans/origin would
        // still hash equal — here we vary pc so contents differ but
        // prefixes collide in the index buckets.
        let s1 = vec![step(0, 1), step(0, 2)];
        let s2 = vec![step(0, 1), step(0, 3)];
        let a = i.intern(&s1);
        let b = i.intern(&s2);
        assert_ne!(a, b);
        assert_eq!(i.segment(a), &s1[..]);
        assert_eq!(i.segment(b), &s2[..]);
    }

    #[test]
    fn trace_to_concatenates_segments_from_the_root() {
        let mut t = SearchTree::new(VisitedTable::new());
        let (root, _) = t.root((0, 0)).unwrap();
        let a = [step(0, 0), step(0, 1)];
        let (one, new) = t.child((1, 1), root, |t| t.intern(&a)).unwrap();
        assert!(new);
        let (two, _) = t.child((2, 2), one, |t| t.intern(&[step(1, 0)])).unwrap();
        // A state reached again keeps its first parent edge and never
        // asks for the new edge's segment.
        let again = t.child((2, 2), root, |_| unreachable!("only new states intern"));
        assert_eq!(again.unwrap(), (two, false));
        assert_eq!(t.trace_to(two), vec![step(0, 0), step(0, 1), step(1, 0)]);
        assert_eq!(t.trace_to(one), vec![step(0, 0), step(0, 1)]);
        assert!(t.trace_to(root).is_empty());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn empty_segment_is_preinterned() {
        let mut i = SearchTree::new(VisitedTable::new());
        assert_eq!(i.intern(&[]), SegId::EMPTY);
        assert_eq!(i.segment(SegId::EMPTY), &[] as &[TraceStep]);
    }

    #[test]
    fn table_reports_state_cap_instead_of_wrapping() {
        let mut t = VisitedTable::new().with_capacity_limit(3);
        for i in 0..3u64 {
            assert!(t.insert((i, i + 100)).unwrap().1);
        }
        // Re-inserting a known fingerprint still works at the cap…
        assert_eq!(t.insert((1, 101)).unwrap(), (StateId(1), false));
        // …but a genuinely new one is a typed error, and nothing is
        // stored.
        assert_eq!(t.insert((9, 109)), Err(StateCapExceeded));
        assert_eq!(t.len(), 3);
        let bytes = t.bytes();
        assert_eq!(t.insert((9, 109)), Err(StateCapExceeded), "the refused fp was not stored");
        assert_eq!(t.bytes(), bytes);
    }
}

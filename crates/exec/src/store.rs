//! The one state store: the interned visited table every engine keys
//! on fingerprints, the trace-segment interner, and the parent-edge
//! walk that turns them back into a trace. The explicit, BFS and
//! summary engines, the LTL product and the concurrent explorer all
//! record their states here.
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
//!   fingerprint (a [`TwoLaneHasher`](crate::fingerprint::TwoLaneHasher)
//!   output is already avalanche-mixed, so the low bits are the slot
//!   index) which hands out dense [`StateId`]s in insertion order,
//!   giving the engines array-indexed parent maps for free;
//! * [`SegmentInterner`] — a flat [`TraceStep`] arena with hash-dedup,
//!   so a repeated segment costs one slice compare instead of a clone;
//! * [`trace_to`] — the one walk from a state back to its root.

use crate::step::TraceStep;

/// A state store ran out of dense-id space: the table cannot mint
/// another [`StateId`] without wrapping. Engines surface this as an
/// inconclusive verdict — a silent u32 wrap would alias two distinct
/// states and unsoundly prune the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateCapExceeded;

impl std::fmt::Display for StateCapExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("state store id space exhausted")
    }
}

impl std::error::Error for StateCapExceeded {}

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

/// A handle to an interned trace segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegId(u32);

impl SegId {
    /// The empty segment, pre-interned in every interner.
    pub const EMPTY: SegId = SegId(0);
}

/// Interns `&[TraceStep]` segments into one flat arena.
///
/// BFS discovers parent edges in segment-sized chunks, and the chunks
/// repeat heavily: every path through a driver harness replays the same
/// `schedule()` preamble, so the historical per-edge `Vec<TraceStep>`
/// clone stored the same steps once per *edge* instead of once per
/// *segment*. Interning stores each distinct segment once; an edge is
/// then a 4-byte [`SegId`].
pub struct SegmentInterner {
    /// All interned steps, segment after segment.
    steps: Vec<TraceStep>,
    /// `(start, len)` into `steps`, indexed by `SegId`.
    spans: Vec<(u32, u32)>,
    /// Content hash per span, kept so `grow` re-probes without
    /// re-hashing segment contents.
    hashes: Vec<u64>,
    /// Open-addressing index: 1-based `SegId`s keyed on the content
    /// hash, 0 marks an empty slot (the empty segment is never probed).
    slots: Box<[u32]>,
}

impl SegmentInterner {
    /// An empty interner holding only [`SegId::EMPTY`].
    pub fn new() -> SegmentInterner {
        SegmentInterner {
            steps: Vec::new(),
            spans: vec![(0, 0)],
            hashes: vec![0],
            slots: vec![0u32; INITIAL_SLOTS].into_boxed_slice(),
        }
    }

    /// Interns `segment`, returning the id of an existing identical
    /// segment when one is already stored.
    pub fn intern(&mut self, segment: &[TraceStep]) -> SegId {
        if segment.is_empty() {
            return SegId::EMPTY;
        }
        if self.spans.len() * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let hash = Self::hash_segment(segment);
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
                    if self.hashes[slot as usize] == hash && self.get(SegId(slot)) == segment {
                        return SegId(slot);
                    }
                    idx = (idx + 1) & mask;
                }
            }
        }
    }

    /// Doubles the slot array and re-probes every interned segment.
    fn grow(&mut self) {
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
    pub fn get(&self, id: SegId) -> &[TraceStep] {
        let (start, len) = self.spans[id.0 as usize];
        &self.steps[start as usize..(start + len) as usize]
    }

    /// Exact bytes held by the arena and its index.
    pub fn bytes(&self) -> usize {
        self.steps.capacity() * std::mem::size_of::<TraceStep>()
            + self.spans.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.hashes.capacity() * std::mem::size_of::<u64>()
            + self.slots.len() * std::mem::size_of::<u32>()
    }

    /// A cheap content hash: (func, pc) per step under an FNV-style
    /// fold. Collisions only cost an extra slice compare.
    fn hash_segment(segment: &[TraceStep]) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for step in segment {
            h = (h ^ u64::from(step.func.0)).wrapping_mul(0x0000_0100_0000_01B3);
            h = (h ^ step.pc as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

impl Default for SegmentInterner {
    fn default() -> Self {
        SegmentInterner::new()
    }
}

/// The steps from the root to the state `id`: walks parent edges —
/// `parent` looks one up — back to the self-parented root, then
/// concatenates the edges' interned segments in root-first order.
pub fn trace_to(
    interner: &SegmentInterner,
    mut id: StateId,
    parent: impl Fn(StateId) -> (StateId, SegId),
) -> Vec<TraceStep> {
    let mut segments: Vec<SegId> = Vec::new();
    loop {
        let (up, seg) = parent(id);
        if up == id {
            break;
        }
        segments.push(seg);
        id = up;
    }
    let total: usize = segments.iter().map(|&s| interner.get(s).len()).sum();
    let mut steps = Vec::with_capacity(total);
    for &seg in segments.iter().rev() {
        steps.extend_from_slice(interner.get(seg));
    }
    steps
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
        let mut i = SegmentInterner::new();
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
        assert_eq!(i.get(a), &preamble[..]);
        assert_eq!(i.get(b), &other[..]);
    }

    #[test]
    fn interner_separates_hash_colliding_but_unequal_segments() {
        let mut i = SegmentInterner::new();
        // Same (func, pc) content hash, different spans/origin would
        // still hash equal — here we vary pc so contents differ but
        // prefixes collide in the index buckets.
        let s1 = vec![step(0, 1), step(0, 2)];
        let s2 = vec![step(0, 1), step(0, 3)];
        let a = i.intern(&s1);
        let b = i.intern(&s2);
        assert_ne!(a, b);
        assert_eq!(i.get(a), &s1[..]);
        assert_eq!(i.get(b), &s2[..]);
    }

    #[test]
    fn trace_to_concatenates_segments_from_the_root() {
        let mut i = SegmentInterner::new();
        let a = i.intern(&[step(0, 0), step(0, 1)]);
        let b = i.intern(&[step(1, 0)]);
        // 0 is the self-parented root; 2 hangs off 1, 1 off the root.
        let parents = [(StateId(0), SegId::EMPTY), (StateId(0), a), (StateId(1), b)];
        let parent = |id: StateId| parents[id.0 as usize];
        assert_eq!(trace_to(&i, StateId(2), parent), vec![step(0, 0), step(0, 1), step(1, 0)]);
        assert_eq!(trace_to(&i, StateId(1), parent), vec![step(0, 0), step(0, 1)]);
        assert!(trace_to(&i, StateId(0), parent).is_empty());
    }

    #[test]
    fn empty_segment_is_preinterned() {
        let mut i = SegmentInterner::new();
        assert_eq!(i.intern(&[]), SegId::EMPTY);
        assert_eq!(i.get(SegId::EMPTY), &[] as &[TraceStep]);
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

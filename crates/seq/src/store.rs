//! The state store shared by the sequential engines: interned visited
//! table, trace-segment interner, and the parent-edge walk that turns
//! them back into a trace.
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
//!   fingerprint (it is already avalanche-mixed, so the low bits are
//!   the slot index) which hands out dense [`StateId`]s in insertion
//!   order, giving the engines array-indexed parent maps for free;
//! * [`ShardedVisitedTable`] — the same table striped for parallel BFS;
//! * [`SegmentInterner`] — a flat [`TraceStep`] arena with hash-dedup,
//!   so a repeated segment costs one slice compare instead of a clone;
//! * [`trace_to`] — the one walk from a state back to its root.

use std::sync::Mutex;

use crate::verdict::TraceStep;

/// A state store ran out of dense-id space: the table (or one shard of
/// the sharded table) cannot mint another [`StateId`] without wrapping.
/// Engines surface this as an inconclusive verdict with
/// [`crate::budget::BoundReason::StateCap`] — a silent u32 wrap would
/// alias two distinct states and unsoundly prune the search.
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
    /// [`StateCapExceeded`]. Defaults to the id space itself; tests and
    /// sharded tables (whose locals share the 32-bit id with a shard
    /// tag) inject smaller caps.
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

    /// Whether `fp` has been inserted.
    pub fn contains(&self, fp: (u64, u64)) -> bool {
        let mask = self.slots.len() - 1;
        let mut idx = (fp.0 ^ fp.1) as usize & mask;
        loop {
            match self.slots[idx] {
                0 => return false,
                slot => {
                    if self.fps[(slot - 1) as usize] == fp {
                        return true;
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

/// Shard-index width of the sharded table: 16 shards, selected by the
/// fingerprint's high bits (the probe sequence inside a shard uses the
/// low bits, so the two never correlate).
pub const SHARD_BITS: u32 = 4;
/// Number of shards in a [`ShardedVisitedTable`].
pub const SHARD_COUNT: usize = 1 << SHARD_BITS;
/// Bits of a [`StateId`] left for the within-shard local index.
const LOCAL_BITS: u32 = 32 - SHARD_BITS;
/// The largest within-shard local index.
const LOCAL_MASK: u32 = (1 << LOCAL_BITS) - 1;

impl StateId {
    /// Packs a (shard, local) pair into the id's bit layout.
    fn from_shard_local(shard: usize, local: u32) -> StateId {
        StateId((shard as u32) << LOCAL_BITS | local)
    }

    /// The shard index of a sharded id.
    fn shard(self) -> usize {
        (self.0 >> LOCAL_BITS) as usize
    }

    /// The within-shard local index of a sharded id.
    fn local(self) -> u32 {
        self.0 & LOCAL_MASK
    }
}

/// One stripe of a [`ShardedVisitedTable`]: an ordinary open-addressed
/// [`VisitedTable`] handing out *local* ids, plus the per-layer claim
/// and parked-payload books the deterministic commit walk reads.
struct Shard<C> {
    table: VisitedTable,
    /// Parent edge per local id; a fresh entry is its own parent until
    /// the commit walk sets the real edge.
    parents: Vec<(StateId, SegId)>,
    /// Locals below this are prior-layer states — revisits, never
    /// claimable in the current layer.
    sealed: u32,
    /// Minimal `(rank, tidx)` claim per current-layer local, indexed by
    /// `local - sealed`.
    claims: Vec<(u32, u32)>,
    /// Parked payload (the discoverer's cloned configuration) per
    /// current-layer local, indexed by `local - sealed`.
    parked: Vec<Option<C>>,
}

/// A [`VisitedTable`] striped into [`SHARD_COUNT`] independently locked
/// partitions, for concurrent insertion from BFS workers.
///
/// The fingerprint's high bits pick the shard, so membership and the
/// set of stored states are identical to a single-shard table no matter
/// how many threads insert, or in what order. Dense [`StateId`]s are
/// allocated *per shard* and tagged with the shard index in their high
/// bits — ids differ from the serial table's, but ids never surface in
/// any observable (verdicts, traces, counts); only membership and
/// parent edges do.
///
/// Determinism across thread interleavings is the point of the claim
/// machinery: every insert carries the inserting node's `(rank, tidx)`
/// — its position in the layer's canonical order — and claims on the
/// same new state min-merge, so the commit walk can ask "which insert
/// would a serial run have seen first?" and get the same answer on
/// every run. `seal` ends a layer: its entries become prior-layer
/// states and the claim books reset.
pub struct ShardedVisitedTable<C> {
    shards: Box<[Mutex<Shard<C>>]>,
}

impl<C> ShardedVisitedTable<C> {
    /// An empty table.
    pub fn new() -> ShardedVisitedTable<C> {
        ShardedVisitedTable::with_shard_capacity(LOCAL_MASK)
    }

    /// An empty table whose shards hold at most `cap` entries each —
    /// the cap path is testable without exhausting a 28-bit id space.
    pub fn with_shard_capacity(cap: u32) -> ShardedVisitedTable<C> {
        let shards = (0..SHARD_COUNT)
            .map(|_| {
                Mutex::new(Shard {
                    table: VisitedTable::new().with_capacity_limit(cap.min(LOCAL_MASK)),
                    parents: Vec::new(),
                    sealed: 0,
                    claims: Vec::new(),
                    parked: Vec::new(),
                })
            })
            .collect();
        ShardedVisitedTable { shards }
    }

    fn shard_of(fp: (u64, u64)) -> usize {
        (fp.0 >> (64 - SHARD_BITS)) as usize
    }

    fn lock(&self, shard: usize) -> std::sync::MutexGuard<'_, Shard<C>> {
        self.shards[shard].lock().expect("shard lock")
    }

    /// Inserts `fp` on behalf of the layer node at `rank`, target
    /// `tidx`. Returns the state's id and whether this call created the
    /// entry (the creator is responsible for [`Self::park`]ing a
    /// payload). Claims on a current-layer entry min-merge, so the
    /// minimal claim — the one a serial run would have seen first — is
    /// what [`Self::claim_of`] later reports regardless of insertion
    /// order.
    pub fn insert_claimed(
        &self,
        fp: (u64, u64),
        rank: u32,
        tidx: u32,
    ) -> Result<(StateId, bool), StateCapExceeded> {
        let shard_idx = Self::shard_of(fp);
        let mut shard = self.lock(shard_idx);
        let (local_id, new) = shard.table.insert(fp)?;
        let id = StateId::from_shard_local(shard_idx, local_id.0);
        if new {
            debug_assert_eq!(local_id.0 as usize, shard.parents.len());
            shard.parents.push((id, SegId::EMPTY));
            shard.claims.push((rank, tidx));
            shard.parked.push(None);
        } else if local_id.0 >= shard.sealed {
            let at = (local_id.0 - shard.sealed) as usize;
            shard.claims[at] = shard.claims[at].min((rank, tidx));
        }
        Ok((id, new))
    }

    /// Parks the payload for an entry this caller created. Any
    /// claimant's payload is state-equivalent (equal fingerprints mean
    /// equal states), so the creator's clone serves whichever claim
    /// wins.
    pub fn park(&self, id: StateId, payload: C) {
        let mut shard = self.lock(id.shard());
        let at = (id.local() - shard.sealed) as usize;
        shard.parked[at] = Some(payload);
    }

    /// The minimal claim recorded for `id` in the current layer, or
    /// `None` when the entry predates it (a revisit).
    pub fn claim_of(&self, id: StateId) -> Option<(u32, u32)> {
        let shard = self.lock(id.shard());
        let local = id.local();
        (local >= shard.sealed).then(|| shard.claims[(local - shard.sealed) as usize])
    }

    /// Takes the parked payload of a winning entry.
    pub fn take_parked(&self, id: StateId) -> Option<C> {
        let mut shard = self.lock(id.shard());
        let at = (id.local() - shard.sealed) as usize;
        shard.parked[at].take()
    }

    /// Sets the parent edge the trace reconstruction walks.
    pub fn set_parent(&self, id: StateId, parent: StateId, seg: SegId) {
        let mut shard = self.lock(id.shard());
        let local = id.local() as usize;
        shard.parents[local] = (parent, seg);
    }

    /// The parent edge of `id` (an uncommitted entry is its own
    /// parent).
    pub fn parent(&self, id: StateId) -> (StateId, SegId) {
        self.lock(id.shard()).parents[id.local() as usize]
    }

    /// Ends the current layer: its entries become prior-layer states,
    /// claims reset, and parked payloads that no winner consumed are
    /// dropped.
    pub fn seal(&self) {
        for shard in self.shards.iter() {
            let mut shard = shard.lock().expect("shard lock");
            shard.sealed = shard.table.len() as u32;
            shard.claims.clear();
            shard.parked.clear();
        }
    }

    /// Total distinct fingerprints across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("shard lock").table.len()).sum()
    }

    /// Whether no fingerprint has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `fp` has been inserted (any layer).
    pub fn contains(&self, fp: (u64, u64)) -> bool {
        self.lock(Self::shard_of(fp)).table.contains(fp)
    }

    /// Exact bytes held by all shards' tables and parent arenas.
    pub fn bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let s = s.lock().expect("shard lock");
                s.table.bytes()
                    + s.parents.capacity() * std::mem::size_of::<(StateId, SegId)>()
            })
            .sum()
    }
}

impl<C> Default for ShardedVisitedTable<C> {
    fn default() -> Self {
        ShardedVisitedTable::new()
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

    /// Number of distinct segments (including the empty one).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether only the empty segment is interned.
    pub fn is_empty(&self) -> bool {
        self.spans.len() == 1
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
            let fp = (i, i.rotate_left(17));
            assert!(t.contains(fp));
            let (id, new) = t.insert(fp).unwrap();
            assert!(!new);
            assert_eq!(id, StateId(i as u32), "re-insert must return the original id");
        }
        assert_eq!(t.len(), 5000);
        assert!(!t.contains((9999, 1)));
        assert!(t.bytes() >= 5000 * 16);
    }

    fn step(func: u32, pc: usize) -> TraceStep {
        TraceStep { func: FuncId(func), pc, origin: Origin::User, span: Span::default() }
    }

    #[test]
    fn interner_dedups_repeated_segments() {
        let mut i = SegmentInterner::new();
        assert!(i.is_empty());
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
        assert_eq!(i.len(), 3, "empty + two distinct segments");
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
        assert!(!t.contains((9, 109)));
    }

    #[test]
    fn sharded_table_matches_single_shard_membership_and_ids() {
        let sharded: ShardedVisitedTable<()> = ShardedVisitedTable::new();
        let mut single = VisitedTable::new();
        // Fingerprints spread across shards (high bits vary).
        let fps: Vec<(u64, u64)> =
            (0..2000u64).map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i)).collect();
        let mut ids = std::collections::HashMap::new();
        for (i, &fp) in fps.iter().enumerate() {
            let (sid, snew) = sharded.insert_claimed(fp, i as u32, 0).unwrap();
            let (_, lnew) = single.insert(fp).unwrap();
            assert_eq!(snew, lnew, "newness diverges on {fp:?}");
            ids.insert(fp, sid);
        }
        assert_eq!(sharded.len(), single.len());
        for &fp in &fps {
            assert!(sharded.contains(fp));
            // Id stability: a re-insert returns the original id.
            let (sid, snew) = sharded.insert_claimed(fp, u32::MAX, u32::MAX).unwrap();
            assert!(!snew);
            assert_eq!(sid, ids[&fp]);
        }
        assert!(!sharded.contains((u64::MAX, u64::MAX)));
    }

    #[test]
    fn sharded_claims_min_merge_and_reset_on_seal() {
        let t: ShardedVisitedTable<u32> = ShardedVisitedTable::new();
        let fp = (42, 43);
        let (id, first) = t.insert_claimed(fp, 7, 1).unwrap();
        assert!(first);
        t.park(id, 99);
        // A later claim with a smaller rank wins; a larger one loses;
        // tidx breaks rank ties.
        assert!(!t.insert_claimed(fp, 9, 0).unwrap().1);
        assert_eq!(t.claim_of(id), Some((7, 1)));
        assert!(!t.insert_claimed(fp, 7, 0).unwrap().1);
        assert_eq!(t.claim_of(id), Some((7, 0)));
        assert!(!t.insert_claimed(fp, 3, 5).unwrap().1);
        assert_eq!(t.claim_of(id), Some((3, 5)));
        assert_eq!(t.take_parked(id), Some(99));
        assert_eq!(t.take_parked(id), None);
        // Sealing turns the entry into a prior-layer state: no claim,
        // and a next-layer insert is a plain revisit.
        t.seal();
        assert_eq!(t.claim_of(id), None);
        let (again, new) = t.insert_claimed(fp, 0, 0).unwrap();
        assert!(!new);
        assert_eq!(again, id);
        assert_eq!(t.claim_of(id), None);
    }

    #[test]
    fn sharded_parent_edges_default_to_self_until_committed() {
        let t: ShardedVisitedTable<()> = ShardedVisitedTable::new();
        let (root, _) = t.insert_claimed((1, 1), 0, 0).unwrap();
        let (child, _) = t.insert_claimed((2, 2), 0, 1).unwrap();
        assert_eq!(t.parent(child), (child, SegId::EMPTY));
        t.set_parent(child, root, SegId::EMPTY);
        assert_eq!(t.parent(child), (root, SegId::EMPTY));
        assert_eq!(t.parent(root), (root, SegId::EMPTY));
    }

    #[test]
    fn sharded_shard_cap_reports_state_cap() {
        // Cap each shard at 2: the third fingerprint landing in one
        // shard trips. Same high bits force one shard.
        let t: ShardedVisitedTable<()> = ShardedVisitedTable::with_shard_capacity(2);
        assert!(t.insert_claimed((1, 1), 0, 0).is_ok());
        assert!(t.insert_claimed((2, 2), 0, 1).is_ok());
        assert_eq!(t.insert_claimed((3, 3), 0, 2), Err(StateCapExceeded));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn sharded_table_survives_concurrent_hammering() {
        // 8 threads insert overlapping fingerprint ranges with
        // different claim ranks; the table must end up with exactly the
        // distinct set, every id stable, and every claim the minimum
        // over the inserting threads.
        let t: ShardedVisitedTable<usize> = ShardedVisitedTable::new();
        let threads = 8usize;
        let per_thread = 2_000u64;
        std::thread::scope(|s| {
            for w in 0..threads {
                let t = &t;
                s.spawn(move || {
                    for i in 0..per_thread {
                        // Every thread inserts every fp, claiming with
                        // its own rank; half the fps collide across all
                        // threads, half are thread-private.
                        let shared = (i.wrapping_mul(0xDEAD_BEEF_CAFE_F00D), i);
                        let (id, first) =
                            t.insert_claimed(shared, w as u32, 0).unwrap();
                        if first {
                            t.park(id, w);
                        }
                        let private =
                            ((w as u64) << 32 | i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        // The second lane keeps private fps disjoint
                        // from the shared ones (whose lane is < 2000).
                        t.insert_claimed((private, 1 << 40 | w as u64), w as u32, 1).unwrap();
                    }
                });
            }
        });
        assert_eq!(t.len(), per_thread as usize * (1 + threads));
        for i in 0..per_thread {
            let shared = (i.wrapping_mul(0xDEAD_BEEF_CAFE_F00D), i);
            assert!(t.contains(shared));
            let (id, new) = t.insert_claimed(shared, u32::MAX, 0).unwrap();
            assert!(!new);
            // All 8 threads claimed rank w — the minimum must have won.
            assert_eq!(t.claim_of(id), Some((0, 0)), "claim on fp {i}");
            // Exactly one thread parked a payload.
            assert!(t.take_parked(id).is_some(), "no parked payload for fp {i}");
        }
    }
}

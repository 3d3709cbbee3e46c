//! Copy-on-write chunked vector — the structural-sharing layer under
//! [`Memory`](crate::Memory).
//!
//! Explicit-state search clones the whole `Memory` on every
//! nondeterministic branch and into every BFS frontier slot. With plain
//! `Vec`s each clone is O(heap); with [`CowVec`] the storage is split
//! into small `Arc`-shared chunks, so a clone is O(chunks) pointer
//! bumps and the first *write* to a shared chunk pays for copying just
//! that chunk (`Arc::make_mut` is the write barrier). Sibling states
//! that never touch a chunk keep sharing it for their whole lifetime —
//! exactly the access pattern of branching searches, where siblings
//! diverge in a handful of cells out of a heap they otherwise share.
//!
//! The chunk size is a compile-time power of two so indexing is a
//! shift and a mask. Eight elements per chunk keeps the write barrier's
//! copy small (a `HeapObj` clone per touched neighbour) while still
//! collapsing a 64-object heap clone into 8 `Arc` bumps.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::fingerprint::fingerprint_of;

const CHUNK_BITS: usize = 3;
const CHUNK: usize = 1 << CHUNK_BITS;
const MASK: usize = CHUNK - 1;

/// One shared chunk: the elements plus a lazily computed, cached
/// content digest. The digest lives inside the `Arc`ed allocation on
/// purpose — once any sharer computes it, every state still sharing
/// the chunk reads it back for free, which turns the per-branch state
/// fingerprint from O(memory) re-hashing into O(chunks) digest loads
/// for all the memory sibling states never wrote.
struct Chunk<T> {
    data: Vec<T>,
    /// [`fingerprint_of`] `data`; meaningful only when `sealed`.
    digest: (AtomicU64, AtomicU64),
    /// Whether `digest` holds the hash of the current `data`.
    sealed: AtomicBool,
}

impl<T> Chunk<T> {
    fn new(data: Vec<T>) -> Self {
        Chunk { data, digest: (AtomicU64::new(0), AtomicU64::new(0)), sealed: AtomicBool::new(false) }
    }

    /// Drops the cached digest; called (through `&mut`, so without
    /// atomic traffic) after every write-barrier crossing.
    fn unseal(&mut self) {
        *self.sealed.get_mut() = false;
    }
}

impl<T: Hash> Chunk<T> {
    /// The cached digest, computing and sealing it on first use. Two
    /// racing computations store identical values, so `Relaxed` lane
    /// stores under an `Acquire`/`Release` seal are enough.
    fn digest(&self) -> (u64, u64) {
        if self.sealed.load(Ordering::Acquire) {
            return (self.digest.0.load(Ordering::Relaxed), self.digest.1.load(Ordering::Relaxed));
        }
        let (a, b) = fingerprint_of(&self.data);
        self.digest.0.store(a, Ordering::Relaxed);
        self.digest.1.store(b, Ordering::Relaxed);
        self.sealed.store(true, Ordering::Release);
        (a, b)
    }
}

impl<T: Clone> Clone for Chunk<T> {
    fn clone(&self) -> Self {
        // A clone exists to be written (it is what `Arc::make_mut`
        // creates behind the write barrier), so it starts unsealed.
        Chunk::new(self.data.clone())
    }
}

/// A vector of `Arc`-shared fixed-size chunks with clone-on-write
/// mutation. Reads and in-place writes go through shift/mask indexing;
/// `Clone` is O(len / CHUNK) `Arc` clones.
#[derive(Clone)]
pub struct CowVec<T> {
    chunks: Vec<Arc<Chunk<T>>>,
    len: usize,
}

impl<T: Clone> CowVec<T> {
    /// An empty vector.
    pub fn new() -> Self {
        CowVec { chunks: Vec::new(), len: 0 }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends an element, starting a fresh chunk when the last one is
    /// full. Pushing into a shared final chunk copies only that chunk.
    pub fn push(&mut self, value: T) {
        if self.len & MASK == 0 {
            self.chunks.push(Arc::new(Chunk::new(Vec::with_capacity(CHUNK))));
        }
        let last = Arc::make_mut(self.chunks.last_mut().expect("chunk pushed above"));
        last.unseal();
        last.data.push(value);
        self.len += 1;
    }

    /// Shared read access; `None` out of bounds.
    pub fn get(&self, index: usize) -> Option<&T> {
        if index >= self.len {
            return None;
        }
        self.chunks[index >> CHUNK_BITS].data.get(index & MASK)
    }

    /// Mutable access through the write barrier: a chunk shared with
    /// sibling states is copied (just that chunk) before the reference
    /// is handed out. `None` out of bounds.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        if index >= self.len {
            return None;
        }
        let chunk = Arc::make_mut(&mut self.chunks[index >> CHUNK_BITS]);
        chunk.unseal();
        chunk.data.get_mut(index & MASK)
    }

    /// Iterates the elements in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.chunks.iter().flat_map(|c| c.data.iter())
    }

    /// Copies the elements out into a plain `Vec` (used at the
    /// boundary where error traces escape the engine).
    pub fn to_vec(&self) -> Vec<T> {
        self.iter().cloned().collect()
    }
}

impl<T: Clone + Hash> CowVec<T> {
    /// Feeds the length and the cached per-chunk digests into `state` —
    /// the fast fingerprint path. The digest stream depends only on the
    /// *contents* (never on sharing history), but it is NOT the same
    /// stream as the element-wise [`Hash`] impl: a fingerprint scheme
    /// must use one or the other for the lifetime of a visited set.
    pub fn hash_cached<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len);
        for chunk in &self.chunks {
            let (a, b) = chunk.digest();
            state.write_u64(a);
            state.write_u64(b);
        }
    }
}

impl<T: Clone> Default for CowVec<T> {
    fn default() -> Self {
        CowVec::new()
    }
}

impl<T: Clone> From<Vec<T>> for CowVec<T> {
    fn from(items: Vec<T>) -> Self {
        items.into_iter().collect()
    }
}

impl<T: Clone> FromIterator<T> for CowVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = CowVec::new();
        for item in iter {
            v.push(item);
        }
        v
    }
}

impl<T> std::ops::Index<usize> for CowVec<T> {
    type Output = T;
    fn index(&self, index: usize) -> &T {
        assert!(index < self.len, "CowVec index {index} out of bounds (len {})", self.len);
        &self.chunks[index >> CHUNK_BITS].data[index & MASK]
    }
}

impl<T: Clone> std::ops::IndexMut<usize> for CowVec<T> {
    fn index_mut(&mut self, index: usize) -> &mut T {
        self.get_mut(index)
            .unwrap_or_else(|| panic!("CowVec index {index} out of bounds"))
    }
}

impl<T: Clone + PartialEq> PartialEq for CowVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: Clone + Eq> Eq for CowVec<T> {}

impl<T: Clone + PartialEq> PartialEq<Vec<T>> for CowVec<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.len == other.len() && self.iter().eq(other.iter())
    }
}

impl<T: Clone + PartialEq> PartialEq<CowVec<T>> for Vec<T> {
    fn eq(&self, other: &CowVec<T>) -> bool {
        other == self
    }
}

impl<T: Clone + PartialOrd> PartialOrd for CowVec<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        self.iter().partial_cmp(other.iter())
    }
}

impl<T: Clone + Ord> Ord for CowVec<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.iter().cmp(other.iter())
    }
}

// Hashes exactly like a `Vec<T>` (length prefix, then elements). State
// fingerprints go through `hash_cached` instead; this impl serves hash
// maps keyed on memory, such as the summary engine's entry states.
impl<T: Clone + std::hash::Hash> std::hash::Hash for CowVec<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_usize(self.len);
        for item in self.iter() {
            item.hash(state);
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for CowVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.chunks.iter().flat_map(|c| c.data.iter())).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    #[test]
    fn push_index_and_iterate_across_chunk_boundaries() {
        let mut v = CowVec::new();
        for i in 0..40usize {
            v.push(i);
        }
        assert_eq!(v.len(), 40);
        assert!(!v.is_empty());
        for i in 0..40 {
            assert_eq!(v[i], i);
            assert_eq!(v.get(i), Some(&i));
        }
        assert!(v.get(40).is_none());
        let collected: Vec<usize> = v.iter().copied().collect();
        assert_eq!(collected, (0..40).collect::<Vec<_>>());
        assert_eq!(v.to_vec(), (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn clones_share_until_written() {
        let mut a: CowVec<usize> = (0..20).collect();
        let b = a.clone();
        // The write barrier copies only the touched chunk; the other
        // chunks keep their original allocation.
        a[17] = 99;
        assert_eq!(b[17], 17);
        assert_eq!(a[17], 99);
        assert!(std::ptr::eq(&a[0], &b[0]), "untouched chunk must stay shared");
        assert!(!std::ptr::eq(&a[17], &b[17]), "touched chunk must be copied");
    }

    #[test]
    fn equality_and_ordering_match_plain_vecs() {
        let a: CowVec<i32> = vec![1, 2, 3].into();
        let b: CowVec<i32> = vec![1, 2, 4].into();
        assert_eq!(a, vec![1, 2, 3]);
        assert_eq!(vec![1, 2, 3], a);
        assert_ne!(a, b);
        assert!(a < b);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn hash_matches_the_vec_representation() {
        let cow: CowVec<u32> = vec![5, 6, 7, 8, 9, 10, 11, 12, 13].into();
        let vec: Vec<u32> = vec![5, 6, 7, 8, 9, 10, 11, 12, 13];
        let mut h1 = DefaultHasher::new();
        cow.hash(&mut h1);
        let mut h2 = DefaultHasher::new();
        vec.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn cached_digests_track_contents_not_history() {
        let pair = |v: &CowVec<u32>| {
            let mut h = DefaultHasher::new();
            v.hash_cached(&mut h);
            h.finish()
        };
        let fresh: CowVec<u32> = (0..20).collect();
        let mut touched: CowVec<u32> = (0..20).collect();
        let baseline = pair(&touched); // seal every chunk
        touched[9] = 99;
        assert_ne!(pair(&touched), baseline, "a write must change the digest");
        touched[9] = 9;
        assert_eq!(pair(&touched), baseline, "contents restored, digest restored");
        assert_eq!(pair(&fresh), baseline, "equal contents, equal digest stream");
        // A clone of a sealed vec reads the same cached digests.
        assert_eq!(pair(&fresh.clone()), baseline);
    }

    #[test]
    fn out_of_bounds_writes_panic() {
        let mut v: CowVec<u8> = vec![1].into();
        assert!(v.get_mut(0).is_some());
        assert!(v.get_mut(1).is_none());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| v[1] = 0));
        assert!(r.is_err());
    }
}

//! Copy-on-write chunked vector — the structural-sharing layer under
//! [`Memory`](crate::Memory).
//!
//! The engines that store configurations — BFS, the LTL product and
//! kiss-conc's explorer — clone the whole `Memory` into every frontier
//! slot or successor. With plain `Vec`s each clone is O(heap); with
//! [`CowVec`] the storage is split into small `Arc`-shared chunks, so a
//! clone is O(chunks) pointer bumps and the first *write* to a shared
//! chunk pays for copying just that chunk (`Arc::make_mut` is the write
//! barrier). Sibling states that never touch a chunk keep sharing it for
//! their whole lifetime — exactly the access pattern of branching
//! searches, where siblings diverge in a handful of cells out of a heap
//! they otherwise share.
//!
//! The chunk size is a compile-time power of two so indexing is a
//! shift and a mask. Eight elements per chunk keeps the write barrier's
//! copy small (a `HeapObj` clone per touched neighbour) while still
//! collapsing a 64-object heap clone into 8 `Arc` bumps.

use std::sync::Arc;

const CHUNK_BITS: usize = 3;
const CHUNK: usize = 1 << CHUNK_BITS;
const MASK: usize = CHUNK - 1;

/// A vector of `Arc`-shared fixed-size chunks with clone-on-write
/// mutation. Reads and in-place writes go through shift/mask indexing;
/// `Clone` is O(len / CHUNK) `Arc` clones.
#[derive(Clone)]
pub struct CowVec<T> {
    chunks: Vec<Arc<Vec<T>>>,
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
            self.chunks.push(Arc::new(Vec::with_capacity(CHUNK)));
        }
        Arc::make_mut(self.chunks.last_mut().expect("chunk pushed above")).push(value);
        self.len += 1;
    }

    /// Removes and returns the last element, dropping its chunk once
    /// empty. Popping from a shared final chunk copies only that chunk.
    pub fn pop(&mut self) -> Option<T> {
        let last = Arc::make_mut(self.chunks.last_mut()?);
        let value = last.pop();
        if last.is_empty() {
            self.chunks.pop();
        }
        self.len -= 1;
        value
    }

    /// Shared read access; `None` out of bounds.
    pub fn get(&self, index: usize) -> Option<&T> {
        if index >= self.len {
            return None;
        }
        self.chunks[index >> CHUNK_BITS].get(index & MASK)
    }

    /// Mutable access through the write barrier: a chunk shared with
    /// sibling states is copied (just that chunk) before the reference
    /// is handed out. `None` out of bounds.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        if index >= self.len {
            return None;
        }
        Arc::make_mut(&mut self.chunks[index >> CHUNK_BITS]).get_mut(index & MASK)
    }

    /// Iterates the elements in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// Copies the elements out into a plain `Vec` (used at the
    /// boundary where error traces escape the engine).
    pub fn to_vec(&self) -> Vec<T> {
        self.iter().cloned().collect()
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
        &self.chunks[index >> CHUNK_BITS][index & MASK]
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

// Hashes exactly like a `Vec<T>` (length prefix, then elements).
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
        f.debug_list().entries(self.chunks.iter().flat_map(|c| c.iter())).finish()
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
    fn pop_undoes_push_across_chunk_boundaries() {
        let mut v: CowVec<usize> = (0..9).collect();
        let shared = v.clone();
        assert_eq!(v.pop(), Some(8));
        assert_eq!(v.len(), 8);
        assert_eq!(v, (0..8).collect::<Vec<_>>());
        v.push(42);
        assert_eq!(v[8], 42);
        assert_eq!(shared[8], 8, "a pop or push never reaches a sharer");
        while v.pop().is_some() {}
        assert!(v.is_empty());
        assert_eq!(v, CowVec::new());
        assert_eq!(v.pop(), None);
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

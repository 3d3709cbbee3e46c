//! Incremental state digests.
//!
//! [`Memory`](crate::Memory) and every [`Frame`](crate::Frame) keep a
//! 128-bit digest of their contents: the two-lane wrapping sum of one
//! term per cell, a term being the [`TwoLaneHasher`] fingerprint of the
//! cell's key and value. A write swaps one term for another, so the
//! digest stays current at O(1) per write, and a state fingerprint
//! folds in one digest per memory and per frame instead of re-hashing
//! every cell (Nguyen & Ruys, *Incremental Hashing for SPIN*, SPIN
//! 2008).
//!
//! A sum does not depend on the order its terms were added in, so
//! equal contents give equal digests whatever their write history. The
//! terms are keyed on the cell, so equal values in different cells do
//! not cancel out.
//!
//! [`TwoLaneHasher`]: crate::TwoLaneHasher

use std::hash::Hash;

use kiss_lang::fingerprint::fingerprint_of;

/// The key a term is hashed under: which cell of a memory or a frame.
#[derive(Debug, Clone, Copy, Hash)]
pub(crate) enum Cell {
    /// A global variable.
    Global(u32),
    /// A field of a heap object.
    Field(u32, u32),
    /// A heap object's header; its value is the object's struct id.
    Object(u32),
    /// A frame's local slot.
    Local(u32),
}

/// A 128-bit content digest: the two-lane wrapping sum of one term per
/// cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(u64, u64);

impl Digest {
    /// Adds the term of `cell` holding `value`.
    #[inline]
    pub(crate) fn add(&mut self, cell: Cell, value: impl Hash) {
        let (a, b) = fingerprint_of(&(cell, value));
        self.0 = self.0.wrapping_add(a);
        self.1 = self.1.wrapping_add(b);
    }

    /// Takes back the term of `cell` holding `value`.
    #[inline]
    pub(crate) fn remove(&mut self, cell: Cell, value: impl Hash) {
        let (a, b) = fingerprint_of(&(cell, value));
        self.0 = self.0.wrapping_sub(a);
        self.1 = self.1.wrapping_sub(b);
    }

    /// Accounts a write of `new` over `old` in `cell`.
    #[inline]
    pub(crate) fn replace(&mut self, cell: Cell, old: impl Hash, new: impl Hash) {
        self.remove(cell, old);
        self.add(cell, new);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terms_commute_and_cancel() {
        let mut a = Digest::default();
        a.add(Cell::Global(0), 1u8);
        a.add(Cell::Global(1), 2u8);
        let mut b = Digest::default();
        b.add(Cell::Global(1), 2u8);
        b.add(Cell::Global(0), 1u8);
        assert_eq!(a, b, "the order of writes does not matter");
        b.replace(Cell::Global(0), 1u8, 3u8);
        assert_ne!(a, b);
        b.replace(Cell::Global(0), 3u8, 1u8);
        assert_eq!(a, b, "a write taken back restores the digest");
        b.remove(Cell::Global(0), 1u8);
        b.remove(Cell::Global(1), 2u8);
        assert_eq!(b, Digest::default());
    }

    #[test]
    fn terms_are_keyed_on_their_cell() {
        let mut a = Digest::default();
        a.add(Cell::Global(0), 1u8);
        a.add(Cell::Global(1), 2u8);
        let mut b = Digest::default();
        b.add(Cell::Global(0), 2u8);
        b.add(Cell::Global(1), 1u8);
        assert_ne!(a, b, "swapped values are different contents");
        let mut c = Digest::default();
        c.add(Cell::Local(0), 1u8);
        c.add(Cell::Local(1), 2u8);
        assert_ne!(a, c);
    }
}

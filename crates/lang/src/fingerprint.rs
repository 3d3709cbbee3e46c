//! The one fingerprint hasher: every state a search records, every term
//! of kiss-exec's incremental memory and frame digests, the serve
//! daemon's cache key and the front end's remembered body keys are 128
//! bits from one [`TwoLaneHasher`] pass. It lives here, below the front end, so that
//! kiss-lang can key bodies with it; kiss-exec re-exports it.
//!
//! The daemon persists cache keys in its journal, so the hasher's
//! output is part of the on-disk format: a change to the lanes' seeds,
//! multipliers or mixing orphans every journal written before it.

use std::hash::{Hash, Hasher};

/// One fingerprint lane: xor-multiply-rotate over 64-bit words with a
/// splitmix64 finalizer. Not cryptographic, but avalanche-tested mixing
/// is plenty for visited-state dedup where a collision needs to happen
/// on *both* independently parameterized lanes at once.
#[derive(Clone, Copy)]
struct Lane {
    state: u64,
    mult: u64,
}

impl Lane {
    #[inline]
    fn mix(&mut self, v: u64) {
        self.state = (self.state.rotate_left(23) ^ v).wrapping_mul(self.mult);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // splitmix64 finalizer: full avalanche over the lane state.
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A [`Hasher`] that feeds every write into two lanes with different
/// seeds and multipliers, yielding a 128-bit result from one traversal
/// of the hashed value. `Copy`, so a partly hashed state can be
/// finished several ways.
#[derive(Clone, Copy)]
pub struct TwoLaneHasher {
    lo: Lane,
    hi: Lane,
}

impl TwoLaneHasher {
    /// A hasher with nothing written yet.
    #[inline]
    pub fn new() -> Self {
        TwoLaneHasher {
            // Seeds: pi fraction bits; multipliers: golden-ratio and
            // xxhash primes (both odd, so multiplication is invertible).
            lo: Lane { state: 0x243F_6A88_85A3_08D3, mult: 0x9E37_79B9_7F4A_7C15 },
            hi: Lane { state: 0x1319_8A2E_0370_7344, mult: 0xC2B2_AE3D_27D4_EB4F },
        }
    }

    #[inline]
    fn mix(&mut self, v: u64) {
        self.lo.mix(v);
        self.hi.mix(v);
    }

    /// The 128-bit fingerprint of everything written so far.
    #[inline]
    pub fn finish_pair(&self) -> (u64, u64) {
        (self.lo.finish(), self.hi.finish())
    }
}

impl Default for TwoLaneHasher {
    fn default() -> Self {
        TwoLaneHasher::new()
    }
}

macro_rules! forward_write {
    ($($method:ident: $ty:ty),* $(,)?) => {
        $(
            #[inline]
            fn $method(&mut self, i: $ty) {
                self.mix(i as u64);
            }
        )*
    };
}

impl Hasher for TwoLaneHasher {
    fn finish(&self) -> u64 {
        self.lo.finish()
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut it = bytes.chunks_exact(8);
        for chunk in &mut it {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = it.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(tail));
        }
        // Length disambiguates "short write" from "padded-zero write".
        self.mix(bytes.len() as u64);
    }

    forward_write! {
        write_u8: u8, write_u16: u16, write_u32: u32, write_u64: u64,
        write_usize: usize,
        write_i8: i8, write_i16: i16, write_i32: i32, write_i64: i64,
        write_isize: isize,
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.mix(i as u64);
        self.mix((i >> 64) as u64);
    }

    #[inline]
    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
    }
}

/// The 128-bit fingerprint of any hashable value in one pass.
pub fn fingerprint_of<T: Hash + ?Sized>(value: &T) -> (u64, u64) {
    let mut h = TwoLaneHasher::new();
    value.hash(&mut h);
    h.finish_pair()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_of_matches_itself_and_separates_values() {
        assert_eq!(fingerprint_of(&(1u64, 2u64)), fingerprint_of(&(1u64, 2u64)));
        assert_ne!(fingerprint_of(&(1u64, 2u64)), fingerprint_of(&(2u64, 1u64)));
    }
}

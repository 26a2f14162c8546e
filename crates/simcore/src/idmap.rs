//! Hash maps keyed by simulator-assigned ids, with one fixed hasher.
//!
//! The simulator keys its per-IO and per-table state by integers it hands
//! out itself (`IoId`, `(node, IoId)`, table ids), so std's SipHash-1-3
//! under a per-process random seed buys no DoS resistance here and costs
//! more than any other step on the per-IO path. [`IdHasher`] is a
//! multiply-add hash in the style of rustc-hash 2: one add and one
//! multiply per word, and a rotate in [`finish`](Hasher::finish) so the
//! low bits hashbrown picks buckets from depend on every key bit.
//!
//! The hasher is fixed (no seed), so a map's layout is a function of its
//! contents and insertion history. That makes nothing else deterministic:
//! iteration order is still unspecified, and lint rule D003 treats
//! [`IdMap`]/[`IdSet`] exactly like `HashMap`/`HashSet`. Use a `BTreeMap`
//! wherever order is observed.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`IdHasher`]. Build with `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` hashed by [`IdHasher`]. Build with `IdSet::default()`.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// rustc-hash 2's multiplier: odd, with well-spread bits.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// The fixed multiply-add hasher behind [`IdMap`] and [`IdSet`].
///
/// Each word `w` updates the state as `(state + w) * K`. A product's low
/// bits depend only on the operands' low bits, so `finish` rotates the
/// high bits down: keys that differ only above bit 12 (page- or
/// power-of-two-strided ids) still land in different buckets.
///
/// The rotation is 18, not rustc-hash's 26: with 18, 4 096 sequential ids,
/// 4 096 page-strided ids and 4 096 per-node sequential `(node, IoId)`
/// pairs each fill over 3 000 of 4 096 low-12-bit buckets (a random hash
/// fills about 2 589). With 26 the sequential ids fill only 1 998.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.hash = self.hash.wrapping_add(i).wrapping_mul(K);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }

    /// Folds bytes as little-endian words, the last one zero-padded, so
    /// eight bytes hash exactly like `write_u64` of the same bytes. Derived
    /// `Hash` impls prefix slices with their length and end strings with a
    /// terminator, so the padding cannot make two distinct keys collide.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(c);
            self.write_u64(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(18)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(x: &T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(x)
    }

    fn low_bits_distinct(hashes: impl Iterator<Item = u64>) -> usize {
        let set: std::collections::BTreeSet<u64> = hashes.map(|h| h & 0xFFF).collect();
        set.len()
    }

    #[derive(Hash)]
    struct IoId(u64);

    #[test]
    fn sequential_strided_and_tuple_keys_spread_over_low_bits() {
        let seq = low_bits_distinct((0..4096u64).map(|k| hash_of(&k)));
        assert!(seq >= 3000, "sequential keys hit {seq} of 4096 buckets");
        // Page-strided keys: a product alone would leave their low 12 bits
        // all zero.
        let strided = low_bits_distinct((0..4096u64).map(|k| hash_of(&(k * 4096))));
        assert!(
            strided >= 3000,
            "stride-4096 keys hit {strided} of 4096 buckets"
        );
        // Twenty nodes, each numbering its IOs from zero.
        let tuples =
            low_bits_distinct((0..4096u64).map(|i| hash_of(&(i as usize % 20, IoId(i / 20)))));
        assert!(
            tuples >= 3000,
            "(node, IoId) keys hit {tuples} of 4096 buckets"
        );
    }

    #[test]
    fn byte_fallback_matches_word_writes() {
        for k in [0u64, 1, 0xFF, 4096, u64::MAX, 0x0123_4567_89AB_CDEF] {
            let mut words = IdHasher::default();
            words.write_u64(k);
            let mut bytes = IdHasher::default();
            bytes.write(&k.to_le_bytes());
            assert_eq!(words.finish(), bytes.finish(), "key {k:#x}");
        }
        // A short tail is one zero-padded word.
        let mut tail = IdHasher::default();
        tail.write(&[1, 2, 3]);
        let mut word = IdHasher::default();
        word.write_u64(0x03_02_01);
        assert_eq!(tail.finish(), word.finish());
        // Narrow integer writes widen to one word.
        let mut a = IdHasher::default();
        a.write_u32(7);
        let mut b = IdHasher::default();
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn maps_filled_in_opposite_orders_are_equal() {
        let mut up: IdMap<(usize, u64), u64> = IdMap::default();
        let mut down: IdMap<(usize, u64), u64> = IdMap::default();
        for i in 0..5_000u64 {
            up.insert((i as usize % 7, i * 4096), i);
        }
        for i in (0..5_000u64).rev() {
            down.insert((i as usize % 7, i * 4096), i);
        }
        assert_eq!(up, down);
        let a: IdSet<u64> = (0..1_000).collect();
        let b: IdSet<u64> = (0..1_000).rev().collect();
        assert_eq!(a, b);
    }
}

//! Small performance-oriented containers shared across the workspace:
//! a dense [`BitSet`] and FxHash-style fast hash maps/sets.
//!
//! The default SipHash hasher is a poor fit for the hot integer-keyed maps
//! used throughout the analyses (see the Rust Performance Book, "Hashing"),
//! so we provide a tiny multiply-xor hasher equivalent in spirit to
//! rustc's `FxHasher`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher: very fast for small integer-like keys.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// `HashMap` with the fast hasher.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` with the fast hasher.
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// A fixed-capacity dense bitset over `usize` indices.
///
/// Used for reachability matrices, escape sets and worklist "seen" sets
/// where the universe is a dense id space.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates an empty set over a universe of `len` elements.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of elements in the universe (not the cardinality).
    #[inline]
    pub fn universe(&self) -> usize {
        self.len
    }

    /// Inserts `idx`; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, idx: usize) -> bool {
        debug_assert!(idx < self.len, "bit {idx} out of universe {}", self.len);
        let (w, b) = (idx / 64, idx % 64);
        let old = self.words[w];
        self.words[w] = old | (1 << b);
        old & (1 << b) == 0
    }

    /// Removes `idx`; returns `true` if it was present.
    ///
    /// Like [`BitSet::contains`] (and unlike the old direct indexing, which
    /// panicked), an out-of-universe index is a debug assertion but a safe
    /// no-op returning `false` in release builds.
    #[inline]
    pub fn remove(&mut self, idx: usize) -> bool {
        debug_assert!(idx < self.len, "bit {idx} out of universe {}", self.len);
        let (w, b) = (idx / 64, idx % 64);
        match self.words.get_mut(w) {
            Some(word) => {
                let old = *word;
                *word = old & !(1 << b);
                old & (1 << b) != 0
            }
            None => false,
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, idx: usize) -> bool {
        let (w, b) = (idx / 64, idx % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Unions `other` into `self`; returns `true` if `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let new = *a | *b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// Returns `true` if the sets share any element.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Iterates the elements of `self ∩ other` in ascending order without
    /// materializing the intersection (word-level AND, then bit-walk).
    ///
    /// This is the primitive behind the alias oracle's inverted writer
    /// index: a read's location set is intersected against the set of
    /// locations that actually have writers, so empty buckets are skipped
    /// a word at a time.
    pub fn iter_intersection<'a>(&'a self, other: &'a BitSet) -> impl Iterator<Item = usize> + 'a {
        self.words
            .iter()
            .zip(&other.words)
            .enumerate()
            .flat_map(|(wi, (&a, &b))| {
                let mut bits = a & b;
                std::iter::from_fn(move || {
                    if bits == 0 {
                        None
                    } else {
                        let bit = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        Some(wi * 64 + bit)
                    }
                })
            })
    }

    /// Iterates the elements of `(self \ minus) ∩ mask` in ascending
    /// order (word-level `a & !b & c`, then bit-walk).
    ///
    /// This is the primitive behind the per-SCC aggregate recurrence in
    /// ordering generation: each SCC's reachability row is a superset of
    /// its base successor's row, so the aggregate difference is summed
    /// over this (typically tiny) set difference instead of re-walking
    /// the whole row.
    pub fn iter_difference_intersection<'a>(
        &'a self,
        minus: &'a BitSet,
        mask: &'a BitSet,
    ) -> impl Iterator<Item = usize> + 'a {
        debug_assert_eq!(self.len, minus.len);
        debug_assert_eq!(self.len, mask.len);
        self.words
            .iter()
            .zip(&minus.words)
            .zip(&mask.words)
            .enumerate()
            .flat_map(|(wi, ((&a, &b), &c))| {
                let mut bits = a & !b & c;
                std::iter::from_fn(move || {
                    if bits == 0 {
                        None
                    } else {
                        let bit = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        Some(wi * 64 + bit)
                    }
                })
            })
    }

    /// Number of elements in `self \ other` (word-level popcount; no
    /// iteration, no allocation).
    pub fn difference_count(&self, other: &BitSet) -> usize {
        debug_assert_eq!(self.len, other.len);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & !b).count_ones() as usize)
            .sum()
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if no bits are set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The smallest set index `>= from`, or `None` (word-level scan; the
    /// primitive behind borrowed-set iterators).
    pub fn next_set_bit(&self, from: usize) -> Option<usize> {
        if from >= self.len {
            return None;
        }
        let (mut w, b) = (from / 64, from % 64);
        let mut word = self.words[w] & (!0u64 << b);
        loop {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w += 1;
            if w >= self.words.len() {
                return None;
            }
            word = self.words[w];
        }
    }

    /// Iterates over set indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Clears all bits, keeping the universe size.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_insert_contains() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64));
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn bitset_iter_sorted() {
        let mut s = BitSet::new(200);
        for &i in &[5usize, 63, 64, 65, 190] {
            s.insert(i);
        }
        let got: Vec<_> = s.iter().collect();
        assert_eq!(got, vec![5, 63, 64, 65, 190]);
    }

    #[test]
    fn bitset_union_and_intersect() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.insert(3);
        b.insert(70);
        assert!(!a.intersects(&b));
        assert!(a.union_with(&b));
        assert!(a.contains(70));
        assert!(!a.union_with(&b), "second union is a no-op");
        assert!(a.intersects(&b));
    }

    #[test]
    fn bitset_remove_and_clear() {
        let mut s = BitSet::new(10);
        s.insert(4);
        assert!(s.remove(4));
        assert!(!s.remove(4));
        s.insert(9);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.universe(), 10);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of universe")]
    fn remove_out_of_universe_asserts_in_debug() {
        let mut s = BitSet::new(10);
        s.remove(10);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn remove_out_of_universe_is_safe_in_release() {
        // Harmonized with `contains`: no panic, nothing to remove.
        let mut s = BitSet::new(10);
        assert!(!s.remove(10));
        assert!(!s.remove(1_000_000));
    }

    #[test]
    fn remove_and_contains_agree_on_word_slack() {
        // Universe 10 occupies one 64-bit word; indices 10..64 are slack.
        // `contains` reports false there and `remove` must behave the same
        // way (modulo the debug assertion), never panic.
        let mut s = BitSet::new(70);
        s.insert(69);
        assert!(!s.contains(68));
        assert!(!s.remove(68));
        assert!(s.remove(69));
        assert!(!s.contains(69));
    }

    #[test]
    fn next_set_bit_scans_words() {
        let mut s = BitSet::new(300);
        for i in [0usize, 63, 64, 200] {
            s.insert(i);
        }
        assert_eq!(s.next_set_bit(0), Some(0));
        assert_eq!(s.next_set_bit(1), Some(63));
        assert_eq!(s.next_set_bit(64), Some(64));
        assert_eq!(s.next_set_bit(65), Some(200));
        assert_eq!(s.next_set_bit(201), None);
        assert_eq!(s.next_set_bit(1000), None);
    }

    #[test]
    fn iter_intersection_matches_filtered_iter() {
        let mut a = BitSet::new(300);
        let mut b = BitSet::new(300);
        for i in [0usize, 5, 63, 64, 65, 128, 299] {
            a.insert(i);
        }
        for i in [5usize, 64, 66, 128, 299] {
            b.insert(i);
        }
        let got: Vec<_> = a.iter_intersection(&b).collect();
        let want: Vec<_> = a.iter().filter(|&i| b.contains(i)).collect();
        assert_eq!(got, want);
        assert_eq!(got, vec![5, 64, 128, 299]);
        let empty = BitSet::new(300);
        assert_eq!(a.iter_intersection(&empty).count(), 0);
    }

    #[test]
    fn iter_difference_intersection_matches_filtered_iter() {
        let mut a = BitSet::new(300);
        let mut minus = BitSet::new(300);
        let mut mask = BitSet::new(300);
        for i in [0usize, 5, 63, 64, 65, 128, 200, 299] {
            a.insert(i);
        }
        for i in [5usize, 64, 128] {
            minus.insert(i);
        }
        for i in [0usize, 63, 65, 128, 200, 250] {
            mask.insert(i);
        }
        let got: Vec<_> = a.iter_difference_intersection(&minus, &mask).collect();
        let want: Vec<_> = a
            .iter()
            .filter(|&i| !minus.contains(i) && mask.contains(i))
            .collect();
        assert_eq!(got, want);
        assert_eq!(got, vec![0, 63, 65, 200]);
        // Subtracting self against a full mask yields nothing.
        let full = {
            let mut f = BitSet::new(300);
            for i in 0..300 {
                f.insert(i);
            }
            f
        };
        assert_eq!(a.iter_difference_intersection(&a, &full).count(), 0);
    }

    #[test]
    fn difference_count_is_set_minus() {
        let mut a = BitSet::new(130);
        let mut b = BitSet::new(130);
        for i in [1usize, 64, 65, 129] {
            a.insert(i);
        }
        b.insert(64);
        b.insert(2);
        assert_eq!(a.difference_count(&b), 3);
        assert_eq!(b.difference_count(&a), 1);
        assert_eq!(a.difference_count(&a), 0);
    }

    #[test]
    fn fast_map_smoke() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.get(&999), Some(&1998));
        let mut s: FastSet<(u32, u32)> = FastSet::default();
        s.insert((1, 2));
        assert!(s.contains(&(1, 2)));
    }
}

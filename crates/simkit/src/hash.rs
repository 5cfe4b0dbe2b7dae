//! The one hasher behind every in-memory map of the workspace.
//!
//! std's `RandomState` keys SipHash per map from per-process randomness:
//! a HashDoS defence ArkFS has no use for (its clients are trusted,
//! DESIGN.md "Hashing") that every metatable insert and lease lookup
//! paid for. [`FixedHasher`] is a word-at-a-time
//! add-multiply hash of the FxHash family (rustc-hash v2's multiplier and
//! rotation). It has no key, so the same inserts iterate in the same order
//! in every process. That order is still not a contract: code whose
//! iteration order reaches the store, a trace or a figure sorts first.
//!
//! `clippy.toml` forbids the std types; these aliases are the only place
//! they are named. Build them with `default()` or
//! `with_capacity_and_hasher(n, Default::default())`.

use std::hash::{BuildHasherDefault, Hasher};

/// `std::collections::HashMap` over [`FixedHasher`].
#[allow(clippy::disallowed_types)]
pub type HashMap<K, V> = std::collections::HashMap<K, V, FixedState>;

/// `std::collections::HashSet` over [`FixedHasher`].
#[allow(clippy::disallowed_types)]
pub type HashSet<T> = std::collections::HashSet<T, FixedState>;

/// Builds a [`FixedHasher`]; zero-sized, unlike `RandomState`'s 16 bytes.
pub type FixedState = BuildHasherDefault<FixedHasher>;

const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Unkeyed add-multiply hasher: one wrapping add and multiply per word.
#[derive(Debug, Default, Clone, Copy)]
pub struct FixedHasher {
    hash: u64,
}

impl FixedHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FixedHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().unwrap()));
        }
        // A tail of 1..=7 bytes fills the low bytes of one word and its
        // length the top byte, so "ab" and "ab\0" differ.
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = (tail.len() as u64) << 56;
            for (i, &b) in tail.iter().enumerate() {
                w |= (b as u64) << (8 * i);
            }
            self.add(w);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The multiply leaves its best bits at the top; hashbrown takes the
    /// bucket from the low bits and the control byte from the top seven,
    /// so the rotation makes both depend on every word.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        FixedState::default().hash_one(v)
    }

    /// The function itself, pinned: a change here reorders every map in
    /// the workspace, so it has to be made on purpose.
    #[test]
    fn golden_values() {
        assert_eq!(hash_of(&42u64), 12_569_757_018_929_961_129);
        assert_eq!(
            hash_of(&0x0123_4567_89ab_cdef_0011_2233_4455_6677u128),
            10_266_341_348_623_929_002
        );
        assert_eq!(hash_of("f.000123"), 3_245_957_821_177_606_072);
        assert_eq!(hash_of("a"), 11_010_541_982_744_399_213);
        assert_ne!(
            hash_of("ab"),
            hash_of("ab\0"),
            "the tail's length is hashed"
        );
    }

    #[test]
    fn same_inserts_iterate_in_the_same_order() {
        let build = || {
            let mut m: HashMap<String, u64> = HashMap::default();
            for i in 0..1000u64 {
                m.insert(format!("f.{i}"), i);
            }
            m
        };
        let (a, b) = (build(), build());
        assert!(a.keys().eq(b.keys()));
        let sa: HashSet<u128> = (0..1000u128).map(|i| i << 64 | i).collect();
        let sb: HashSet<u128> = (0..1000u128).map(|i| i << 64 | i).collect();
        assert!(sa.iter().eq(sb.iter()));
    }
}

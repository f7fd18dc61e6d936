//! A fast, deterministic hasher for tables keyed by ids.
//!
//! std's `RandomState` runs SipHash-1-3 with per-process random keys: it
//! resists collision flooding by hostile keys, at ~20 ns per small key.
//! The fleet's per-session tables (`(NodeId, StreamId)` refcounts, the
//! SIB, the Hier controller's maps) hash ids the simulator drew itself, so
//! they take [`IdHasher`] instead: one add and one multiply per word (the
//! Fx construction rustc uses) and a final rotate that moves the
//! well-mixed high bits into the low bits a table indexes by.
//!
//! Not for keys a peer can choose (anything decoded from a socket): an
//! attacker who knows the constant can make every key land in one bucket.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (rustc-hash's 64-bit constant).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Fx-style hasher over the id's words; the same keys hash the same in
/// every process, so a table's iteration order is a function of what was
/// inserted and removed.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher {
    hash: u64,
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.hash = self.hash.wrapping_add(n).wrapping_mul(K);
    }

    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// A `HashMap` keyed by ids, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of ids, hashed with [`IdHasher`].
pub type IdSet<T> = HashSet<T, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeId, StreamId};
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: impl Hash) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    #[test]
    fn the_hash_is_a_pure_function_of_the_key() {
        let key = (NodeId::new(7), StreamId::new(1010));
        assert_eq!(hash_of(key), hash_of(key));
        assert_ne!(hash_of(key), hash_of((NodeId::new(1010), StreamId::new(7))));
        // Bytes hash word by word; a short tail is zero-padded.
        let (mut a, mut b) = (IdHasher::default(), IdHasher::default());
        a.write(&[1, 0, 0, 0, 0, 0, 0, 0]);
        b.write(&[1]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn ids_spaced_by_a_stride_spread_over_the_low_bits() {
        // Stream ids step by 10; a table of 1024 buckets indexes by the low
        // ten bits. A bare multiply keeps the keys' even low bit, so it
        // fills at most 512 buckets; uniform hashes fill ~647.
        let buckets: IdSet<u64> = (0..1024u64)
            .map(|i| hash_of(StreamId::new(1000 + 10 * i)) & 1023)
            .collect();
        assert!(
            buckets.len() > 560,
            "{} of 1024 buckets used",
            buckets.len()
        );
    }

    #[test]
    fn two_maps_built_alike_iterate_alike() {
        let build = || -> Vec<u64> {
            let mut m: IdMap<u64, ()> = IdMap::default();
            for i in 0..100 {
                m.insert(i * 37, ());
            }
            m.into_keys().collect()
        };
        assert_eq!(build(), build());
    }
}

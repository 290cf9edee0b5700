//! Hashing for integer keys a node mints itself.
//!
//! Timer tags, front-end ids and query ids are counters the engine hands
//! out, so no client can pick them to collide: a one-multiply hash is
//! safe for them and several times cheaper than std's SipHash. Anything a
//! client chooses — predicate keys, attribute names, ids derived from
//! them — keeps std's randomly seeded hasher.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by engine-minted integers (see the module docs).
pub type MintedMap<K, V> = HashMap<K, V, BuildHasherDefault<MintedHasher>>;

/// A set of engine-minted integers (see the module docs).
pub type MintedSet<K> = HashSet<K, BuildHasherDefault<MintedHasher>>;

/// Multiply-rotate hashing of integer words (the scheme of rustc's
/// `FxHasher`). Not collision resistant: only for minted keys.
#[derive(Clone, Copy, Debug, Default)]
pub struct MintedHasher(u64);

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl MintedHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for MintedHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_ids_spread_over_buckets() {
        // hashbrown picks buckets from the low bits and control bytes
        // from the top seven: counters must differ in both.
        let hashes: Vec<u64> = (0u64..1024)
            .map(|n| {
                let mut h = MintedHasher::default();
                h.write_u64(n);
                h.finish()
            })
            .collect();
        let low: HashSet<u64> = hashes.iter().map(|h| h & 1023).collect();
        let top: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert!(low.len() > 600, "{} distinct low buckets", low.len());
        assert_eq!(top.len(), 128);
    }

    #[test]
    fn maps_behave_like_std_maps() {
        let mut m: MintedMap<u64, u64> = MintedMap::default();
        for n in 0..10_000 {
            m.insert(n, n * 2);
        }
        assert!((0..10_000).all(|n| m[&n] == n * 2));
        assert_eq!(m.remove(&5), Some(10));
        assert_eq!(m.len(), 9_999);
    }
}

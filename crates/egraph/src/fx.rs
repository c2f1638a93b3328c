//! A small unkeyed hasher for the e-graph's own maps.
//!
//! The hashcons is probed once per e-node insertion and several times per
//! congruence repair, so its hash function sits on the hottest path of
//! seeding and saturation. std's default SipHash is keyed to resist
//! hash flooding by adversarial keys. The keys here are e-nodes, class ids
//! and constant sets derived from suite designs named on the wire or from
//! in-process generators, never from bytes a client sent, so that
//! protection buys nothing and costs a SipHash round per probe. This is
//! the rotate-xor-multiply word hash rustc uses for its own tables
//! (FxHash).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Word-at-a-time rotate-xor-multiply hasher (unkeyed, deterministic).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` hashed with [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash + ?Sized>(v: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn unkeyed_and_distinct_on_small_keys() {
        // Unkeyed: two builders hash alike, so runs are reproducible.
        assert_eq!(fx(&(3u32, 7i64)), fx(&(3u32, 7i64)));
        // Small dense keys (class ids, short constant sets, a byte string
        // ending in a partial word) do not collide.
        let mut seen: Vec<u64> = (0u32..4096).map(|i| fx(&i)).collect();
        seen.extend((0i64..512).map(|q| fx(&vec![q, q + 1, 3 * q])));
        seen.push(fx(&[1u8, 2, 3, 4, 5, 6, 7, 8, 9][..]));
        let n = seen.len();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), n);
    }
}

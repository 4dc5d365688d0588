//! A fast, non-cryptographic hasher for the VM's interior maps.
//!
//! The dispatch and field-access hot paths hash short strings (method and
//! field names) on every guest operation; the standard library's SipHash
//! is DoS-resistant but costs several times more than the lookups around
//! it. This is the classic `FxHash` multiply-xor scheme (as used by the
//! Rust compiler): not DoS-resistant, which is fine here — every key is
//! authored by the embedding program, never by untrusted input.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the `fxhash` scheme (64-bit golden ratio).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The hasher state. One `u64`, folded a machine word at a time.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail) | ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` keyed through `FxHasher`: for sets of ids the heap hands
/// out, never of outside input.
pub type FxHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_hash_distinctly_enough() {
        let mut map: FxHashMap<String, usize> = FxHashMap::default();
        for i in 0..256 {
            map.insert(format!("field_{i}"), i);
        }
        for i in 0..256 {
            assert_eq!(map.get(&format!("field_{i}")), Some(&i));
        }
    }

    #[test]
    fn length_disambiguates_zero_padded_tails() {
        use std::hash::Hasher;
        let mut a = FxHasher::default();
        a.write(b"ab");
        let mut b = FxHasher::default();
        b.write(b"ab\0");
        assert_ne!(a.finish(), b.finish());
    }
}

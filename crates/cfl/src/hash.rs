//! A fast, non-cryptographic hasher for the analysis hot paths.
//!
//! Every inner loop of the demand-driven engines deduplicates
//! configurations through a hash table: the worklist `seen` sets, the
//! PPTA `visited` set, the [`StackPool`](crate::StackPool) interning
//! table, and the summary cache. `std`'s default SipHash-1-3 is
//! DoS-resistant but costs tens of cycles per lookup on the 8–16 byte
//! keys these tables use; the engines hash *trusted, internally
//! generated* ids, so that resistance buys nothing here.
//!
//! This module vendors the FxHash algorithm (the Firefox / rustc hasher:
//! per-word `rotate ^ mulitply` mixing) behind the std `Hasher` trait —
//! the workspace is offline, so the `rustc-hash` crate is reimplemented
//! rather than depended upon. Collections keyed by untrusted external
//! input should keep the std default.
//!
//! ```
//! use dynsum_cfl::{FxHashMap, FxHashSet};
//!
//! let mut seen: FxHashSet<(u32, u32)> = FxHashSet::default();
//! assert!(seen.insert((1, 2)));
//! assert!(!seen.insert((1, 2)));
//! let mut table: FxHashMap<u64, &str> = FxHashMap::default();
//! table.insert(7, "seven");
//! assert_eq!(table.get(&7), Some(&"seven"));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit multiplicative constant (π in fixed point, as in rustc-hash).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The FxHash state: one 64-bit word, mixed per written word.
///
/// Quality is adequate for the dense integer ids this workspace hashes;
/// it is **not** collision-resistant against adversarial keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Word-at-a-time over the byte stream; the tail is padded into
        // one final word. Keys in this workspace are fixed-size tuples of
        // u32/u64, which take the sized fast paths below instead.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The **format-stable** FNV-1a hasher of the persistent formats
/// (snapshot fingerprints, config digests, payload checksums).
///
/// It lives in `dynsum-pag`, which memoizes each frozen graph's
/// fingerprint with it, and is re-exported here under its historical
/// `dynsum_cfl::StableHasher` path. Unlike [`FxHasher`], its output is
/// frozen:
///
/// ```
/// use std::hash::Hasher;
/// use dynsum_cfl::StableHasher;
///
/// let mut h = StableHasher::new();
/// h.write(b"dynsum");
/// assert_eq!(h.finish(), 0xaae1_f28a_1c1b_412b);
/// assert_eq!(StableHasher::default().finish(), 0xcbf2_9ce4_8422_2325);
/// ```
pub use dynsum_pag::StableHasher;

/// `BuildHasher` for [`FxHasher`] (deterministic: no per-map seeding).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_instances() {
        let key = (3u32, 7u32, 1u8, 0u32);
        assert_eq!(hash_of(&key), hash_of(&key));
        assert_ne!(hash_of(&(1u32, 2u32)), hash_of(&(2u32, 1u32)));
    }

    #[test]
    fn distinguishes_nearby_ids() {
        // Dense sequential ids (the workspace's key shape) must spread.
        let hashes: std::collections::HashSet<u64> =
            (0u32..1024).map(|i| hash_of(&(i, i + 1))).collect();
        assert_eq!(hashes.len(), 1024, "nearby tuples must not collide");
    }

    #[test]
    fn unsized_write_matches_padding_rules() {
        let mut h = FxHasher::default();
        h.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let long = h.finish();
        let mut h = FxHasher::default();
        h.write(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let short = h.finish();
        assert_ne!(long, short);
    }

    #[test]
    fn collections_work() {
        let mut set: FxHashSet<u64> = FxHashSet::default();
        for i in 0..100 {
            set.insert(i);
        }
        assert_eq!(set.len(), 100);
        let mut map: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        map.insert((4, 2), 42);
        assert_eq!(map[&(4, 2)], 42);
    }
}

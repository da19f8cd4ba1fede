//! The one hasher for every simulator-internal map.
//!
//! Every `HashMap`/`HashSet` inside the simulator — the NIC's endpoint
//! frames, channel state, exactly-once windows and in-flight counts, the
//! OS segment driver's endpoint records, the scheduler's threads, the
//! user library's credit ledgers, the fabric's fault tables and the
//! auditor's ledgers — is keyed by small integers the simulation produces
//! itself. `std`'s default SipHash is DoS-resistant but costs several
//! times more per lookup for keys that are never attacker-controlled
//! here. This module provides the classic Firefox `FxHasher`
//! (multiply-rotate word mixing), the same construction `rustc` uses
//! internally, written in-tree because the workspace takes no external
//! dependencies. A root `clippy.toml` disallows `std`'s `HashMap` and
//! `HashSet` so SipHash cannot creep back in.
//!
//! Determinism: the simulation never lets map iteration order reach its
//! outputs — where it iterates a map, it sorts first. To keep the
//! same-seed-twice determinism tests able to catch a missing sort,
//! [`FxBuildHasher`] starts each map's hash state from a seed: in debug
//! builds a per-process counter, so every map built gets its own
//! iteration order (as `RandomState` did), and in release builds the
//! constant `0`, so the measured configuration is exactly plain FxHash.

use std::hash::{BuildHasher, Hasher};

/// `HashMap` keyed with [`FxHasher`].
#[allow(clippy::disallowed_types)] // the one place std's map type is named
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;
/// `HashSet` keyed with [`FxHasher`].
#[allow(clippy::disallowed_types)] // the one place std's set type is named
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// An `FxHashMap` pre-sized for `cap` entries.
pub fn fx_map_with_capacity<K, V>(cap: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(cap, FxBuildHasher::default())
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Builds [`FxHasher`]s whose state starts at a per-map seed (see the
/// module doc): a fresh counter value per `default()` in debug builds,
/// `0` in release builds.
#[derive(Clone, Debug)]
pub struct FxBuildHasher {
    seed: u64,
}

impl Default for FxBuildHasher {
    #[inline]
    fn default() -> Self {
        #[cfg(debug_assertions)]
        let seed = {
            use std::sync::atomic::{AtomicU64, Ordering};
            static NEXT: AtomicU64 = AtomicU64::new(1);
            // splitmix64 finaliser: a counter alone would leave the low
            // bits the table indexes with almost unchanged.
            let mut z = NEXT
                .fetch_add(1, Ordering::Relaxed)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        #[cfg(not(debug_assertions))]
        let seed = 0;
        FxBuildHasher { seed }
    }
}

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher { hash: self.seed }
    }
}

/// Multiply-rotate word hasher (Firefox / rustc "FxHash").
#[derive(Default, Clone)]
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
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
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

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    #[test]
    fn map_roundtrip_and_presize() {
        let mut m: FxHashMap<(u32, u32), u64> = fx_map_with_capacity(64);
        let cap = m.capacity();
        assert!(cap >= 64);
        for i in 0..64u32 {
            m.insert((i, i ^ 7), i as u64 * 3);
        }
        assert_eq!(m.capacity(), cap, "pre-sized map reallocated");
        for i in 0..64u32 {
            assert_eq!(m.get(&(i, i ^ 7)), Some(&(i as u64 * 3)));
        }
    }

    #[test]
    fn hash_is_deterministic_and_spreads() {
        let h = |x: u64| {
            let mut f = FxHasher::default();
            f.write_u64(x);
            f.finish()
        };
        assert_eq!(h(42), h(42));
        // Sequential uids (the auditor's dominant key shape) must not
        // collide in the low bits the table actually indexes with.
        let mut low: FxHashSet<u64> = FxHashSet::default();
        for uid in 0..1024u64 {
            low.insert(h((7 << 40) | uid) & 0x3ff);
        }
        assert!(low.len() > 512, "low-bit spread too poor: {}", low.len());
    }

    #[test]
    fn per_map_seed_only_in_debug_builds() {
        let (a, b) = (FxBuildHasher::default(), FxBuildHasher::default());
        let key = (3u32, 1u8);
        if cfg!(debug_assertions) {
            assert_ne!(a.hash_one(key), b.hash_one(key));
        } else {
            assert_eq!(a.hash_one(key), b.hash_one(key));
            // Release builds hash exactly as an unseeded FxHasher.
            let mut plain = FxHasher::default();
            key.0.hash(&mut plain);
            key.1.hash(&mut plain);
            assert_eq!(a.hash_one(key), plain.finish());
        }
        // Either way, one map's hasher is stable for its lifetime.
        assert_eq!(a.hash_one(key), a.clone().hash_one(key));
    }

    #[test]
    fn debug_seeds_vary_small_table_order() {
        // The determinism tests rely on two maps with the same history
        // iterating differently; that must hold for small tables too,
        // whose index is only the hash's lowest bits.
        let order = || {
            let mut m: FxHashSet<u32> = FxHashSet::default();
            m.extend(0..12);
            m.into_iter().collect::<Vec<_>>()
        };
        let first = order();
        let varied = (0..16).any(|_| order() != first);
        assert_eq!(varied, cfg!(debug_assertions));
    }

    /// Every key of `keys` hashes to a distinct 64-bit value.
    fn no_collisions<K: Hash>(keys: impl Iterator<Item = K>) {
        let b = FxBuildHasher::default();
        let mut seen: FxHashSet<u64> = FxHashSet::default();
        let mut n = 0;
        for k in keys {
            n += 1;
            assert!(
                seen.insert(b.hash_one(k)),
                "64-bit collision after {n} keys"
            );
        }
    }

    #[test]
    fn simulator_key_grids_do_not_collide() {
        // `(HostId, EpId)` endpoint pairs.
        no_collisions((0..512u32).flat_map(|h| (0..256u32).map(move |e| (h, e))));
        // `ChannelKey { peer, idx }`.
        no_collisions((0..16_384u32).flat_map(|p| (0..8u8).map(move |i| (p, i))));
        // Message uids: `host << 40 | per-host counter`.
        no_collisions((0..256u64).flat_map(|h| (0..1024u64).map(move |n| h << 40 | n)));
    }
}

//! A fast, non-cryptographic hasher for the profiler's hot maps.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3, which is
//! DoS-resistant but costs tens of cycles per key — far too slow for maps
//! probed once per profiled memory access. This crate provides an
//! FxHash-style multiplicative hasher (the folded-multiply scheme used by
//! rustc's interner tables): each 8-byte word of the key is combined with
//! a rotate–xor–multiply step, which compiles to a handful of ALU
//! instructions and no memory traffic.
//!
//! All profiler keys are either small integers (addresses, thread ids) or
//! small fixed-size structs ([`profiler::Dep`](../profiler), source
//! locations), so the weaker avalanche behavior relative to SipHash is
//! irrelevant, and none of the maps are exposed to attacker-chosen keys.
//!
//! The hasher is deterministic (no per-process seed), which also makes
//! profiling runs bit-reproducible across processes — an invariant the
//! equivalence tests rely on.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::hash::{BuildHasherDefault, Hasher};

/// Golden-ratio multiplier (2^64 / φ), the classic Fibonacci-hashing
/// constant; odd, so multiplication permutes u64.
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;
/// Rotation distance; balances mixing of high/low halves per step.
const ROTATE: u32 = 26;

/// FxHash-style streaming hasher.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let (words, rest) = bytes.as_chunks::<8>();
        for w in words {
            self.mix(u64::from_le_bytes(*w));
        }
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold in the length so "ab" and "ab\0" differ.
            self.mix(u64::from_le_bytes(tail) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.mix(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche: HashMap takes the *high* bits via multiplication
        // elsewhere, but raw Fx output has weak low bits — xor-fold them.
        let h = self.hash;
        h ^ (h >> 32)
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// An empty [`FxHashMap`] with room for `cap` entries.
pub fn map_with_capacity<K, V>(cap: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(cap, FxBuildHasher::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(f: impl FnOnce(&mut FxHasher)) -> u64 {
        let mut h = FxHasher::default();
        f(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            hash_of(|h| h.write_u64(0xDEAD_BEEF)),
            hash_of(|h| h.write_u64(0xDEAD_BEEF))
        );
    }

    #[test]
    fn distinguishes_close_keys() {
        // Word addresses differ in low bits; the map must not degenerate.
        let hashes: std::collections::HashSet<u64> = (0..1024u64)
            .map(|a| hash_of(|h| h.write_u64(0x1000 + a * 8)))
            .collect();
        assert_eq!(hashes.len(), 1024, "sequential addresses must not collide");
    }

    #[test]
    fn byte_streams_respect_length() {
        assert_ne!(hash_of(|h| h.write(b"ab")), hash_of(|h| h.write(b"ab\0")));
    }

    #[test]
    fn byte_stream_hashes_are_pinned() {
        // Recorded before `write` moved to `as_chunks`: the same words,
        // the same tail fold, the same hashes.
        let input = b"discopop-hash";
        let pinned = [
            (0, 0x0000_0000_0000_0000),
            (7, 0x20d6_9b38_02ba_8e0c),
            (8, 0xbdd6_9b38_9fba_8e0c),
            (13, 0x389b_158f_ffe8_8eda),
        ];
        for (n, want) in pinned {
            assert_eq!(hash_of(|h| h.write(&input[..n])), want, "{n}-byte input");
        }
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u64, u32> = map_with_capacity(16);
        for i in 0..100u64 {
            m.insert(i * 8, i as u32);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m[&64], 8);
    }

    #[test]
    fn low_bits_spread() {
        // HashMap (hashbrown) uses the low 7 bits for SIMD tag matching;
        // make sure they vary across a stride-8 key set.
        // 128 draws into 128 buckets: a uniform hash leaves ~81 distinct
        // tags; a degenerate one (constant low bits) leaves only a handful.
        let mut tags = std::collections::HashSet::new();
        for a in 0..128u64 {
            tags.insert(hash_of(|h| h.write_u64(a * 8)) & 0x7F);
        }
        assert!(tags.len() > 60, "low-bit spread too weak: {}", tags.len());
    }
}

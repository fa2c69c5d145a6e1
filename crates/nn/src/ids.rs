//! Hashed tables keyed by client id, and their one hasher.
//!
//! Executors and selection policies probe per-client sets and maps once
//! per candidate, dispatch or arrival, over fleets of 10⁵ clients and
//! more, and the client sampler ([`Rng64::sample_indices`]) records the
//! slots its virtual shuffle displaced in such a map. [`IdSet`] and
//! [`IdMap`] are std's `HashSet`/`HashMap` over one fixed hasher,
//! [`IdHasher`]: an O(1) probe instead of an ordered tree's O(log n)
//! pointer chase, memory proportional to the ids stored, and — unlike
//! std's default `RandomState`, whose SipHash costs several times more
//! per probe — no per-process seed, so a table's layout and iteration
//! order are the same in every run. Code that needs ids in ascending
//! order sorts them; nothing relies on the iteration order of these
//! tables. `feddrl_sim::ids` re-exports the two table types.
//!
//! [`Rng64::sample_indices`]: crate::rng::Rng64::sample_indices

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The golden-ratio multiplier of Fibonacci hashing: odd, so multiplying
/// by it permutes the low bits of an id, and the carries spread each id
/// bit into the high bits.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// A fixed multiply-fold hasher for `usize` client ids (see the module
/// docs). Other key types fall back to folding their bytes in one at a
/// time, with the same mixing.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    fn write_usize(&mut self, id: usize) {
        self.mix(id as u64);
    }

    fn finish(&self) -> u64 {
        // The table indexes buckets by the low bits and tags them by the
        // top seven; folding the well-mixed high half down serves both.
        self.0 ^ (self.0 >> 32)
    }
}

/// Builds [`IdHasher`]s; stateless, so every table hashes alike.
pub type BuildIdHasher = BuildHasherDefault<IdHasher>;

/// A set of client ids (see the module docs).
pub type IdSet = HashSet<usize, BuildIdHasher>;

/// A map keyed by client id (see the module docs).
pub type IdMap<V> = HashMap<usize, V, BuildIdHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn hashing_is_fixed_and_spreads_dense_and_strided_ids() {
        let build = BuildIdHasher::default();
        assert_eq!(
            build.hash_one(7usize),
            BuildIdHasher::default().hash_one(7usize)
        );
        // Dense and strided ids alike spread over a 1024-bucket table at
        // least about as well as random keys (≈ 647 of 1024 buckets hit),
        // and carry varied seven-bit tags.
        for stride in [1usize, 1024] {
            let ids = (0..1024usize).map(|i| i * stride);
            let buckets: IdSet = ids
                .clone()
                .map(|id| (build.hash_one(id) & 1023) as usize)
                .collect();
            assert!(
                buckets.len() > 600,
                "stride {stride}: {} buckets",
                buckets.len()
            );
            let tags: IdSet = ids.map(|id| (build.hash_one(id) >> 57) as usize).collect();
            assert!(tags.len() > 100, "stride {stride}: {} tags", tags.len());
        }
    }

    #[test]
    fn sets_compare_as_sets_whatever_the_insertion_order() {
        let forward: IdSet = (0..500).collect();
        let backward: IdSet = (0..500).rev().collect();
        assert_eq!(forward, backward);
        let mut sorted: Vec<usize> = backward.into_iter().collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..500).collect::<Vec<_>>());
    }
}

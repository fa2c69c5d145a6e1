//! Deterministic pseudo-random number generation.
//!
//! Every stochastic component of the reproduction (weight init, data
//! synthesis, client selection, DDPG exploration noise, …) draws from
//! [`Rng64`], a xoshiro256++ generator seeded through SplitMix64. Using our
//! own tiny implementation instead of the `rand` crate guarantees the same
//! bit-streams on every platform and toolchain, which in turn makes entire
//! federated-learning runs reproducible from a single `u64` seed.
//!
//! `derive` produces statistically independent child generators from a
//! parent seed plus a stream label, so parallel workers (e.g. one per
//! federated client) can be seeded as `rng.derive(client_id)` without any
//! cross-thread coordination — a requirement for deterministic results under
//! the nondeterministic scheduling of [`crate::parallel`]'s scoped threads.

use serde::{Deserialize, Serialize};

/// xoshiro256++ PRNG with Box–Muller normal sampling.
///
/// Passes BigCrush (per the reference implementation by Blackman & Vigna);
/// period 2^256 − 1. Not cryptographically secure — simulation use only.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Rng64 {
    s: [u64; 4],
    /// Cached second output of the last Box–Muller transform.
    spare_normal: Option<f64>,
}

#[inline(always)]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline(always)]
fn rotl(x: u64, k: u32) -> u64 {
    x.rotate_left(k)
}

impl Rng64 {
    /// Create a generator from a 64-bit seed (expanded via SplitMix64).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self {
            s,
            spare_normal: None,
        }
    }

    /// Derive an independent child generator for stream `stream`.
    ///
    /// The child seed mixes the parent's *current* state with the stream
    /// label, so deriving the same label twice from an advanced parent gives
    /// different streams, while deriving from a freshly-seeded parent is
    /// fully reproducible.
    pub fn derive(&self, stream: u64) -> Self {
        let mixed =
            self.s[0] ^ self.s[1].rotate_left(17) ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        Self::new(mixed)
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = rotl(self.s[0].wrapping_add(self.s[3]), 23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = rotl(self.s[3], 45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of entropy.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        self.next_f64() as f32
    }

    /// Uniform `f32` in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        debug_assert!(lo <= hi, "uniform: lo must be <= hi");
        lo + (hi - lo) * self.next_f32()
    }

    /// Uniform integer in `[0, n)`. Uses Lemire's multiply-shift rejection
    /// method to avoid modulo bias.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0, "below: n must be positive");
        let n = n as u64;
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let lo = m as u64;
            if lo >= n || lo >= lo.wrapping_neg() % n {
                return (m >> 64) as usize;
            }
        }
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn int_range(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo <= hi, "int_range: lo must be <= hi");
        lo + self.below(hi - lo + 1)
    }

    /// Standard normal sample via Box–Muller (polar-free form, cached spare).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Avoid ln(0) by nudging u1 away from zero.
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation as `f32`.
    #[inline]
    pub fn normal_f32(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.normal() as f32
    }

    /// `true` with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i + 1);
            slice.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` (partial Fisher–Yates).
    ///
    /// Runs in O(k) time and memory regardless of `n`: instead of
    /// materializing the `0..n` pool, a hash map records only the slots the
    /// virtual shuffle has displaced (at most `2k` entries), so sampling
    /// 100 clients from a 10⁶-device fleet never allocates a
    /// million-element vector. The draw sequence (`below(n - i)` per step)
    /// and the swap semantics are exactly those of the dense pool, so the
    /// returned sample is bit-identical to the historical implementation —
    /// existing seeded runs reproduce unchanged.
    ///
    /// # Panics
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "sample_indices: k ({k}) must not exceed n ({n})");
        // displaced[p] = the value the virtual pool currently holds at
        // position p, for the positions that no longer hold their identity.
        let mut displaced: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::with_capacity(2 * k);
        let mut out = Vec::with_capacity(k);
        for i in 0..k {
            let j = i + self.below(n - i);
            let vi = displaced.get(&i).copied().unwrap_or(i);
            let vj = displaced.get(&j).copied().unwrap_or(j);
            // swap(i, j) on the virtual pool; position i is final (out).
            displaced.insert(j, vi);
            out.push(vj);
        }
        out
    }

    /// Sample an index from an (unnormalized) non-negative weight vector.
    ///
    /// # Panics
    /// Panics if the weights are empty or sum to a non-finite / non-positive
    /// value.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weighted_index: empty weights");
        let total: f64 = weights.iter().sum();
        assert!(
            total.is_finite() && total > 0.0,
            "weighted_index: weights must sum to a positive finite value (got {total})"
        );
        let mut target = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            debug_assert!(w >= 0.0, "weighted_index: negative weight at {i}");
            target -= w;
            if target < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Fill `out` with i.i.d. normal samples `N(mean, std²)`.
    pub fn fill_normal(&mut self, out: &mut [f32], mean: f32, std: f32) {
        for v in out.iter_mut() {
            *v = self.normal_f32(mean, std);
        }
    }

    /// Fill `out` with i.i.d. uniform samples from `[lo, hi)`.
    pub fn fill_uniform(&mut self, out: &mut [f32], lo: f32, hi: f32) {
        for v in out.iter_mut() {
            *v = self.uniform(lo, hi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0, "distinct seeds should not collide in 64 draws");
    }

    #[test]
    fn derive_is_reproducible_and_distinct() {
        let parent = Rng64::new(7);
        let mut c1 = parent.derive(3);
        let mut c2 = parent.derive(3);
        let mut c3 = parent.derive(4);
        assert_eq!(c1.next_u64(), c2.next_u64());
        let mut c1b = parent.derive(3);
        assert_ne!(c1b.next_u64(), c3.next_u64());
    }

    #[test]
    fn uniform_unit_interval_bounds_and_mean() {
        let mut rng = Rng64::new(99);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!(
            (mean - 0.5).abs() < 0.01,
            "uniform mean {mean} far from 0.5"
        );
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut rng = Rng64::new(5);
        let mut counts = [0usize; 7];
        let n = 70_000;
        for _ in 0..n {
            counts[rng.below(7)] += 1;
        }
        for &c in &counts {
            let expected = n / 7;
            assert!(
                (c as i64 - expected as i64).abs() < (expected / 10) as i64,
                "bucket count {c} deviates more than 10% from {expected}"
            );
        }
    }

    #[test]
    fn int_range_inclusive() {
        let mut rng = Rng64::new(11);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let v = rng.int_range(3, 6);
            assert!((3..=6).contains(&v));
            saw_lo |= v == 3;
            saw_hi |= v == 6;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng64::new(2024);
        let n = 200_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let z = rng.normal();
            sum += z;
            sq += z * z;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "normal mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "normal variance {var}");
    }

    #[test]
    fn normal_f32_respects_params() {
        let mut rng = Rng64::new(8);
        let n = 100_000;
        let mut sum = 0.0f64;
        for _ in 0..n {
            sum += rng.normal_f32(5.0, 0.5) as f64;
        }
        assert!((sum / n as f64 - 5.0).abs() < 0.02);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng64::new(3);
        let mut v: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle left input sorted");
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = Rng64::new(17);
        let sample = rng.sample_indices(50, 20);
        assert_eq!(sample.len(), 20);
        let mut seen = [false; 50];
        for &i in &sample {
            assert!(i < 50);
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
        }
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn sample_indices_rejects_oversample() {
        let mut rng = Rng64::new(1);
        let _ = rng.sample_indices(3, 4);
    }

    /// The sparse sampler must replay the historical dense partial
    /// Fisher–Yates draw-for-draw: same seed, same sample, at every (n, k).
    #[test]
    fn sample_indices_matches_dense_fisher_yates() {
        fn dense(rng: &mut Rng64, n: usize, k: usize) -> Vec<usize> {
            let mut pool: Vec<usize> = (0..n).collect();
            for i in 0..k {
                let j = i + rng.below(n - i);
                pool.swap(i, j);
            }
            pool.truncate(k);
            pool
        }
        for seed in 0..20 {
            for &(n, k) in &[(1, 1), (5, 5), (50, 7), (1000, 64), (1000, 1000)] {
                let sparse = Rng64::new(seed).sample_indices(n, k);
                let reference = dense(&mut Rng64::new(seed), n, k);
                assert_eq!(sparse, reference, "diverged at seed {seed}, n {n}, k {k}");
            }
        }
    }

    #[test]
    fn weighted_index_prefers_heavy_weights() {
        let mut rng = Rng64::new(21);
        let weights = [1.0, 0.0, 9.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight bucket was drawn");
        assert!(
            counts[2] > counts[0] * 5,
            "9:1 weights not respected: {counts:?}"
        );
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng64::new(4);
        for _ in 0..100 {
            assert!(!rng.chance(0.0));
            assert!(rng.chance(1.0));
        }
    }

    #[test]
    fn fill_helpers_cover_buffer() {
        let mut rng = Rng64::new(6);
        let mut buf = vec![0.0f32; 256];
        rng.fill_uniform(&mut buf, 2.0, 3.0);
        assert!(buf.iter().all(|&x| (2.0..3.0).contains(&x)));
        rng.fill_normal(&mut buf, 0.0, 1.0);
        assert!(buf.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn serde_roundtrip_preserves_stream() {
        let mut rng = Rng64::new(123);
        let _ = rng.next_u64();
        let json = serde_json::to_string(&rng).unwrap();
        let mut restored: Rng64 = serde_json::from_str(&json).unwrap();
        for _ in 0..16 {
            assert_eq!(rng.next_u64(), restored.next_u64());
        }
    }
}

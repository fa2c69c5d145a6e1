//! Experience replay with temporal-difference prioritization
//! (paper Algorithm 1, lines 1–4).

use feddrl_nn::rng::Rng64;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// One transition `(s, a, r, s′)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Experience {
    /// Observation at decision time.
    pub state: Vec<f32>,
    /// Action emitted by the policy (the `(μ, σ)` tuple in FedDRL).
    pub action: Vec<f32>,
    /// Reward received after the environment step.
    pub reward: f32,
    /// Observation after the step.
    pub next_state: Vec<f32>,
}

/// Fixed-capacity ring buffer of experiences.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplayBuffer {
    capacity: usize,
    items: Vec<Experience>,
    /// Ring write head (valid once `items.len() == capacity`).
    head: usize,
}

impl ReplayBuffer {
    /// Create a buffer that retains at most `capacity` experiences.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay capacity must be positive");
        Self {
            capacity,
            items: Vec::new(),
            head: 0,
        }
    }

    /// Number of stored experiences.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when no experience is stored.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Maximum number of retained experiences.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append an experience, evicting the oldest once full.
    pub fn push(&mut self, exp: Experience) {
        if self.items.len() < self.capacity {
            self.items.push(exp);
        } else {
            self.items[self.head] = exp;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Append every experience from `other` (used by the two-stage
    /// trainer's buffer merge, paper §3.4.2).
    pub fn absorb(&mut self, other: &ReplayBuffer) {
        for exp in &other.items {
            self.push(exp.clone());
        }
    }

    /// All stored experiences (insertion order not guaranteed once the
    /// ring has wrapped).
    pub fn iter(&self) -> impl Iterator<Item = &Experience> {
        self.items.iter()
    }

    /// Rank the stored experiences by descending priority (Algorithm 1
    /// line 2). `priorities[i]` is the priority of `items[i]` (the caller
    /// computes `|r + γQ′ − Q|` with its critic — Algorithm 1 line 1).
    /// Sampling is rank-based ([`ReplayBuffer::sample_ranked`], ∝ 1/rank),
    /// which keeps the sort order the paper prescribes while remaining
    /// robust to the scale of TD errors. Equal priorities keep buffer
    /// order; a `NaN` priority — a diverged critic's TD error — ranks
    /// after every other one.
    ///
    /// # Panics
    /// Panics if `priorities.len() != self.len()`.
    pub fn rank(&self, priorities: &[f32]) -> PriorityRanks {
        assert_eq!(
            priorities.len(),
            self.items.len(),
            "priorities/buffer length mismatch"
        );
        let mut order: Vec<usize> = (0..self.items.len()).collect();
        // A total order, as `sort_by` requires: NaN last, then descending.
        order.sort_by(|&a, &b| {
            let (pa, pb) = (priorities[a], priorities[b]);
            pa.is_nan()
                .cmp(&pb.is_nan())
                .then_with(|| pb.partial_cmp(&pa).unwrap_or(Ordering::Equal))
        });
        let weights: Vec<f64> = (0..order.len())
            .map(|rank| 1.0 / (rank + 1) as f64)
            .collect();
        let total = weights.iter().sum();
        PriorityRanks {
            order,
            weights,
            total,
        }
    }

    /// `batch` draws with probability ∝ 1/rank under `ranks`, which
    /// [`ReplayBuffer::rank`] built for this buffer's current contents.
    ///
    /// # Panics
    /// Panics if the buffer is empty or `ranks` covers another length.
    pub fn sample_ranked(
        &self,
        batch: usize,
        ranks: &PriorityRanks,
        rng: &mut Rng64,
    ) -> Vec<&Experience> {
        assert!(!self.is_empty(), "sampling from empty replay buffer");
        assert_eq!(
            ranks.order.len(),
            self.items.len(),
            "ranks/buffer length mismatch"
        );
        (0..batch)
            .map(|_| &self.items[ranks.order[rng.weighted_index_of(&ranks.weights, ranks.total)]])
            .collect()
    }
}

/// A ranking of a buffer's experiences by priority, and the `1/rank`
/// weights [`ReplayBuffer::sample_ranked`] draws with.
#[derive(Debug, Clone, PartialEq)]
pub struct PriorityRanks {
    /// Buffer indices, highest priority first.
    order: Vec<usize>,
    /// `1 / (rank + 1)` for each position of `order`.
    weights: Vec<f64>,
    /// The sum of `weights`, taken once instead of once per draw.
    total: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ReplayBuffer {
        /// One rank-based draw of `batch` under `priorities`: the
        /// per-update reference the agent's rank-once sampling matches.
        fn sample_prioritized(
            &self,
            batch: usize,
            priorities: &[f32],
            rng: &mut Rng64,
        ) -> Vec<&Experience> {
            self.sample_ranked(batch, &self.rank(priorities), rng)
        }
    }

    fn exp(tag: f32) -> Experience {
        Experience {
            state: vec![tag; 3],
            action: vec![tag; 2],
            reward: tag,
            next_state: vec![tag + 0.5; 3],
        }
    }

    #[test]
    fn push_until_capacity_then_ring() {
        let mut buf = ReplayBuffer::new(3);
        for i in 0..5 {
            buf.push(exp(i as f32));
        }
        assert_eq!(buf.len(), 3);
        // 0 and 1 evicted; rewards present: {2, 3, 4}.
        let mut rewards: Vec<f32> = buf.iter().map(|e| e.reward).collect();
        rewards.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(rewards, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn absorb_merges_buffers() {
        let mut a = ReplayBuffer::new(10);
        let mut b = ReplayBuffer::new(10);
        a.push(exp(1.0));
        b.push(exp(2.0));
        b.push(exp(3.0));
        a.absorb(&b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn prioritized_sampling_prefers_high_priority() {
        let mut buf = ReplayBuffer::new(4);
        for i in 0..4 {
            buf.push(exp(i as f32));
        }
        // Item 3 has overwhelming priority.
        let priorities = vec![0.01, 0.01, 0.01, 100.0];
        let mut rng = Rng64::new(2);
        let sample = buf.sample_prioritized(1000, &priorities, &mut rng);
        let hits_top = sample.iter().filter(|e| e.reward == 3.0).count();
        // Rank-based 1/rank weights: top rank has weight 1 of (1+1/2+1/3+1/4)
        // ≈ 0.48 of the mass.
        assert!(
            hits_top > 380,
            "top-priority item drawn only {hits_top}/1000 times"
        );
    }

    fn buffer_of(len: usize) -> ReplayBuffer {
        let mut buf = ReplayBuffer::new(len);
        for i in 0..len {
            buf.push(exp(i as f32));
        }
        buf
    }

    /// `|TD|`-like priorities: finite, non-negative, with ties.
    fn td_priorities(len: usize, rng: &mut Rng64) -> Vec<f32> {
        (0..len)
            .map(|_| match rng.below(10) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.normal_f32(0.0, 1.0).abs(),
            })
            .collect()
    }

    /// A `NaN` priority ranks after every finite one and never panics the
    /// sort; the finite ones keep their order among themselves. (Ranked
    /// with `partial_cmp(..).unwrap_or(Equal)`, most of these seeds panic
    /// the sort.)
    #[test]
    fn nan_priorities_rank_last_without_panicking() {
        let buf = buffer_of(1_000);
        for seed in 0..200 {
            let mut rng = Rng64::new(seed);
            let mut priorities: Vec<f32> =
                (0..1_000).map(|_| rng.normal_f32(0.0, 1.0).abs()).collect();
            // A few NaNs among distinct priorities are what most often
            // break a sort without a total order; up to 28 of them.
            for _ in 0..=seed % 28 {
                priorities[rng.below(1_000)] = f32::NAN;
            }
            let nans = priorities.iter().filter(|p| p.is_nan()).count();
            let ranks = buf.rank(&priorities);
            let (finite, nan) = ranks.order.split_at(1_000 - nans);
            assert!(
                finite.iter().all(|&i| !priorities[i].is_nan()),
                "seed {seed}"
            );
            assert!(nan.iter().all(|&i| priorities[i].is_nan()), "seed {seed}");
            assert!(finite
                .windows(2)
                .all(|w| priorities[w[0]] >= priorities[w[1]]));
        }
    }

    /// With finite priorities the ranking is the one the comparator that
    /// treated incomparable pairs as equal gave.
    #[test]
    fn finite_priorities_rank_as_before() {
        let buf = buffer_of(1_000);
        for seed in 0..20 {
            let priorities = td_priorities(1_000, &mut Rng64::new(seed));
            let mut want: Vec<usize> = (0..priorities.len()).collect();
            want.sort_by(|&a, &b| {
                priorities[b]
                    .partial_cmp(&priorities[a])
                    .unwrap_or(Ordering::Equal)
            });
            assert_eq!(buf.rank(&priorities).order, want, "seed {seed}");
        }
    }

    /// Ranking once and drawing several batches draws what one
    /// `sample_prioritized` call per batch — the per-update reference —
    /// draws from the same stream.
    #[test]
    fn ranking_once_draws_the_per_update_batches() {
        let buf = buffer_of(300);
        let priorities = td_priorities(300, &mut Rng64::new(5));
        let tags = |batch: Vec<&Experience>| batch.iter().map(|e| e.reward).collect::<Vec<_>>();
        let (mut per_update, mut once) = (Rng64::new(6), Rng64::new(6));
        let ranks = buf.rank(&priorities);
        for _ in 0..4 {
            let want = tags(buf.sample_prioritized(64, &priorities, &mut per_update));
            assert_eq!(tags(buf.sample_ranked(64, &ranks, &mut once)), want);
        }
    }

    /// Drawing with the rank weights' sum taken once in `rank` draws what
    /// `weighted_index`, summing them on every draw, draws from the same
    /// stream: the same `f64` total, so the same scan.
    #[test]
    fn ranked_draws_match_per_draw_weighted_index() {
        let buf = buffer_of(1_000);
        let priorities = td_priorities(1_000, &mut Rng64::new(8));
        let ranks = buf.rank(&priorities);
        let summed: f64 = ranks.weights.iter().sum();
        assert_eq!(ranks.total.to_bits(), summed.to_bits());
        let (mut once, mut per_draw) = (Rng64::new(9), Rng64::new(9));
        let got: Vec<f32> = buf
            .sample_ranked(256, &ranks, &mut once)
            .iter()
            .map(|e| e.reward)
            .collect();
        let want: Vec<f32> = (0..256)
            .map(|_| buf.items[ranks.order[per_draw.weighted_index(&ranks.weights)]].reward)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn prioritized_rejects_wrong_priority_count() {
        let mut buf = ReplayBuffer::new(2);
        buf.push(exp(0.0));
        let mut rng = Rng64::new(3);
        let _ = buf.sample_prioritized(1, &[1.0, 2.0], &mut rng);
    }

    #[test]
    #[should_panic(expected = "empty replay buffer")]
    fn sampling_empty_panics() {
        let buf = ReplayBuffer::new(2);
        let mut rng = Rng64::new(4);
        let _ = buf.sample_ranked(1, &buf.rank(&[]), &mut rng);
    }

    #[test]
    fn serde_roundtrip() {
        let mut buf = ReplayBuffer::new(4);
        buf.push(exp(7.0));
        let json = serde_json::to_string(&buf).unwrap();
        let back: ReplayBuffer = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back.iter().next().unwrap().reward, 7.0);
    }
}

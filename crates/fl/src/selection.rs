//! Pluggable client-selection policies.
//!
//! The paper samples `K` of `N` clients uniformly every round (Algorithm
//! 2, line 3). That choice is a *policy*, and policies beyond uniform —
//! power-of-choice biased sampling (\[3\] in the paper), bandwidth-aware
//! selection that avoids clients a deadline would cut anyway — need
//! per-client state the server accumulates across rounds. This module
//! promotes selection to a first-class abstraction mirroring
//! [`ExecutorConfig`](crate::executor::ExecutorConfig): the serializable
//! [`Selection`] enum stays in the config layer and [`Selection::build`]s
//! a boxed [`SelectionPolicy`]; the policy is consulted once per round
//! with a [`SelectionContext`] carrying everything the server knows —
//! round number, last-known per-client losses, participation counts, and
//! the executor's [`ExecutorView`] (device fleet, deadline, pending and
//! departed clients, observed reliability telemetry).
//!
//! Determinism: a policy receives a per-round RNG derived from
//! `(master seed, round)` — the same stream the inline selection match
//! historically used — so built-in policies reproduce old histories
//! bit-for-bit and every policy is deterministic under a fixed seed.

use crate::executor::ExecutorView;
use feddrl_nn::rng::Rng64;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// Client-selection policy for each round (config-layer representation;
/// [`Selection::build`] produces the executable [`SelectionPolicy`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Selection {
    /// Uniform sampling without replacement (the paper's setting).
    #[default]
    Uniform,
    /// Power-of-choice (\[3\] in the paper): sample `candidates ≥ K`
    /// clients uniformly, then keep the `K` with the highest last-known
    /// inference loss (unseen clients count as highest). Biases
    /// participation toward struggling clients.
    PowerOfChoice {
        /// Candidate pool size `d` (clamped to `[K, N]`).
        candidates: usize,
    },
    /// Bandwidth-aware power-of-choice: sample `candidates ≥ K` clients
    /// uniformly, then keep the `K` with the highest loss *per predicted
    /// second* — last-known inference loss divided by the device's
    /// estimated upload-completion time, with clients predicted to miss
    /// the round deadline ranked last. Stops the server from sampling
    /// clients it would only cut at the deadline (see
    /// [`BandwidthAwareSelection`]).
    BandwidthAware {
        /// Candidate pool size `d` (clamped to `[K, N]`).
        candidates: usize,
    },
    /// Reliability-aware power-of-choice: candidates are ranked by
    /// *expected* utility — last-known loss times the observed probability
    /// of actually reporting back — so a slot is never knowingly wasted on
    /// a chronically flaky device unless it is informative enough to be
    /// worth the gamble (see [`ReliabilityAwareSelection`]).
    ReliabilityAware {
        /// Candidate pool size `d` (clamped to `[K, N]`).
        candidates: usize,
    },
    /// Staleness-balancing selection for asynchronous executors: idle slow
    /// devices — whose updates arrive chronically stale and would
    /// otherwise be crowded out by the fast-client skew — are oversampled,
    /// and clients with an update already in flight are ranked last (the
    /// executor would skip them as busy, wasting the slot; see
    /// [`StalenessBalancedSelection`]).
    StalenessBalanced {
        /// Candidate pool size `d` (clamped to `[K, N]`).
        candidates: usize,
    },
}

impl Selection {
    /// Build the executable policy for this config (mirrors
    /// [`ExecutorConfig::build`](crate::executor::ExecutorConfig::build)).
    pub fn build(&self) -> Box<dyn SelectionPolicy> {
        match *self {
            Selection::Uniform => Box::new(UniformSelection),
            Selection::PowerOfChoice { candidates } => {
                Box::new(PowerOfChoiceSelection { candidates })
            }
            Selection::BandwidthAware { candidates } => {
                Box::new(BandwidthAwareSelection { candidates })
            }
            Selection::ReliabilityAware { candidates } => {
                Box::new(ReliabilityAwareSelection { candidates })
            }
            Selection::StalenessBalanced { candidates } => {
                Box::new(StalenessBalancedSelection { candidates })
            }
        }
    }
}

/// Everything the server knows when it asks a policy for this round's
/// participants.
pub struct SelectionContext<'a> {
    /// Communication round (0-based).
    pub round: usize,
    /// Total clients `N` in the federation.
    pub n_clients: usize,
    /// Clients to select `K` (the policy must return exactly this many
    /// distinct ids in `[0, N)`).
    pub participants: usize,
    /// Last-known inference loss per client (`None` until a client's first
    /// report arrives), indexed by client id.
    pub known_loss: &'a [Option<f32>],
    /// How many rounds each client has been *selected* for so far,
    /// indexed by client id (fairness-aware policies can rebalance on it).
    pub participation: &'a [usize],
    /// What the round executor exposes about its own state — device
    /// fleet, upload payload, deadline, in-flight and departed clients,
    /// observed reliability telemetry — exactly as
    /// [`RoundExecutor::view`](crate::executor::RoundExecutor::view)
    /// returned it ([`ExecutorView::default`] under the ideal executor).
    /// The helper methods below answer the common per-client questions.
    pub executor: ExecutorView<'a>,
}

impl SelectionContext<'_> {
    /// Predicted virtual time until `client_id`'s update would arrive at
    /// the server (local compute + upload); `None` when the run has no
    /// device fleet (ideal executor).
    pub fn predicted_completion_s(&self, client_id: usize) -> Option<f64> {
        let view = &self.executor;
        view.fleet
            .map(|f| f.profile(client_id).completion_time_s(view.upload_bytes))
    }

    /// Whether `client_id` has an update in flight (the executor would
    /// skip it as busy this round).
    pub fn is_in_flight(&self, client_id: usize) -> bool {
        self.executor.in_flight.contains(&client_id)
    }

    /// Mean observed staleness of `client_id`'s aggregated updates (0
    /// while none arrived, or without telemetry).
    pub fn observed_staleness(&self, client_id: usize) -> f64 {
        self.executor
            .reliability
            .map_or(0.0, |stats| stats.get(client_id).mean_staleness())
    }

    /// Whether `client_id` has departed the fleet under churn (a dispatch
    /// would be wasted as a guaranteed dropout).
    pub fn is_departed(&self, client_id: usize) -> bool {
        self.executor.departed.contains(&client_id)
    }
}

/// A pluggable per-round client-selection policy.
///
/// `select` must return exactly `ctx.participants` *distinct* client ids in
/// `[0, ctx.n_clients)`; the session validates the sample and surfaces a
/// violation as [`FlError::InvalidSelection`](crate::error::FlError::InvalidSelection).
/// All randomness must come from the provided `rng` (derived from the
/// master seed and the round number) so runs stay reproducible.
pub trait SelectionPolicy: Send {
    /// Display name for logs and diagnostics.
    fn name(&self) -> &'static str;

    /// Choose this round's participants.
    fn select(&mut self, ctx: &SelectionContext<'_>, rng: &mut Rng64) -> Vec<usize>;
}

/// Uniform sampling without replacement (the paper's setting).
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformSelection;

impl SelectionPolicy for UniformSelection {
    fn name(&self) -> &'static str {
        "uniform"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>, rng: &mut Rng64) -> Vec<usize> {
        rng.sample_indices(ctx.n_clients, ctx.participants)
    }
}

/// Power-of-choice biased sampling (\[3\] in the paper): an oversampled
/// candidate pool is thinned to the `K` highest-loss clients.
#[derive(Debug, Clone, Copy)]
pub struct PowerOfChoiceSelection {
    /// Candidate pool size `d` (clamped to `[K, N]`).
    pub candidates: usize,
}

impl SelectionPolicy for PowerOfChoiceSelection {
    fn name(&self) -> &'static str {
        "power-of-choice"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>, rng: &mut Rng64) -> Vec<usize> {
        let d = self.candidates.clamp(ctx.participants, ctx.n_clients);
        let mut pool = rng.sample_indices(ctx.n_clients, d);
        // Highest last-known loss first; never-seen clients first of all so
        // everyone is eventually profiled.
        pool.sort_by(|&a, &b| {
            let la = ctx.known_loss[a].unwrap_or(f32::INFINITY);
            let lb = ctx.known_loss[b].unwrap_or(f32::INFINITY);
            lb.partial_cmp(&la).unwrap_or(Ordering::Equal)
        });
        pool.truncate(ctx.participants);
        pool
    }
}

/// Bandwidth-aware power-of-choice (the ROADMAP's straggler-avoiding
/// policy): candidates are ranked by *loss per predicted second* —
/// `known_loss / completion_time` — so a struggling client on a fast link
/// outranks an equally struggling client the round deadline would cut
/// anyway. Clients whose predicted completion exceeds the deadline score
/// zero and are kept only when the pool has nothing better, which is what
/// turns sampled-then-cut stragglers into useful participants.
///
/// Unseen clients are scored with an optimistic loss prior (the highest
/// loss observed so far, or 1.0 before any report) so fast unseen devices
/// are profiled early; slow unseen devices stay down-ranked by their
/// predicted completion time. Without a device fleet (ideal executor) the
/// policy degrades gracefully to pure loss-biased power-of-choice.
#[derive(Debug, Clone, Copy)]
pub struct BandwidthAwareSelection {
    /// Candidate pool size `d` (clamped to `[K, N]`).
    pub candidates: usize,
}

impl SelectionPolicy for BandwidthAwareSelection {
    fn name(&self) -> &'static str {
        "bandwidth-aware"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>, rng: &mut Rng64) -> Vec<usize> {
        let d = self.candidates.clamp(ctx.participants, ctx.n_clients);
        let pool = rng.sample_indices(ctx.n_clients, d);
        let prior = ctx
            .known_loss
            .iter()
            .filter_map(|l| *l)
            .fold(f32::NEG_INFINITY, f32::max);
        let prior = if prior.is_finite() { prior } else { 1.0 };
        let score = |c: usize| -> f64 {
            let loss = f64::from(ctx.known_loss[c].unwrap_or(prior));
            match ctx.predicted_completion_s(c) {
                // No fleet: pure loss-biased power-of-choice.
                None => loss,
                Some(t) => {
                    if ctx.executor.deadline_s.is_some_and(|dl| t > dl) {
                        0.0 // predicted straggler: sampled only as a last resort
                    } else {
                        loss / t.max(1e-9)
                    }
                }
            }
        };
        let mut scored: Vec<(usize, f64)> = pool.into_iter().map(|c| (c, score(c))).collect();
        // Stable sort: ties keep the uniformly-sampled pool order, so the
        // policy stays deterministic under a fixed seed.
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal));
        scored.truncate(ctx.participants);
        scored.into_iter().map(|(c, _)| c).collect()
    }
}

/// Reliability-aware power-of-choice (the ROADMAP's dropout-avoiding
/// policy): candidates are ranked by *expected utility* — last-known loss
/// times the observed probability of reporting back — so the policy
/// debiases toward flaky-but-informative clients instead of either
/// wasting slots on chronic dropouts or starving them entirely.
///
/// The report probability is estimated from the executor's telemetry with
/// an optimistic add-one prior, `1 - dropouts / (tried + 1)`: an
/// untried client scores at full loss (so everyone is profiled), and a
/// single observed failure cannot blacklist a device. Clients with an
/// update already in flight are ranked behind every idle candidate — the
/// executor would skip them as busy, wasting the slot. Without telemetry
/// (ideal executor) the policy degrades to pure loss-biased
/// power-of-choice.
#[derive(Debug, Clone, Copy)]
pub struct ReliabilityAwareSelection {
    /// Candidate pool size `d` (clamped to `[K, N]`).
    pub candidates: usize,
}

/// Observed report probability with the add-one prior (see
/// [`ReliabilityAwareSelection`]).
fn report_probability(ctx: &SelectionContext<'_>, client_id: usize) -> f64 {
    match ctx.executor.reliability {
        None => 1.0,
        Some(stats) => {
            let s = stats.get(client_id);
            1.0 - s.dropouts as f64 / (s.dropouts + s.dispatches + 1) as f64
        }
    }
}

/// Rank `pool` viable-before-unviable-before-departed, then by `score`
/// descending, with ties kept in the uniformly-sampled pool order so the
/// result is deterministic under a fixed seed, and return the first `k`
/// in that order; only the `k` taken are sorted. Busy and departed are
/// O(1) probes of the hashed sets the executor's view lends, and each
/// candidate's predicted completion time is read once from the fleet's
/// profile memo and handed to both the tier and `score` (`None` without a
/// fleet), so the cost tracks the pool, neither the fleet nor what is
/// pending.
///
/// Unviable — kept only when the pool has nothing better — means busy
/// (an update in flight: the executor would skip the dispatch) or a
/// predicted straggler under a bounded deadline (the same last-resort
/// rule [`BandwidthAwareSelection`] applies). The straggler tier matters
/// doubly for telemetry-driven policies: under [`LatePolicy::Drop`] a
/// predicted straggler is skipped *before* dispatch, so it never enters
/// the observed dropout counts or loss table — without this tier it
/// would keep its optimistic unobserved score and win a wasted slot
/// every single round.
///
/// Departed clients ([`ExecutorView::departed`]) rank behind even the
/// unviable tier: a busy or doomed device might still contribute, but a
/// departed one is a guaranteed dropout. They are picked only when the
/// pool cannot otherwise fill `k` slots — the contract still requires
/// exactly `k` distinct ids, and the executor charges the waste as a
/// dropout either way.
///
/// [`LatePolicy::Drop`]: crate::executor::LatePolicy::Drop
fn rank_and_take(
    pool: Vec<usize>,
    ctx: &SelectionContext<'_>,
    k: usize,
    score: impl Fn(usize, Option<f64>) -> f64,
) -> Vec<usize> {
    let deadline_s = ctx.executor.deadline_s;
    let tier = |c: usize, completion_s: Option<f64>| -> u8 {
        let doomed = matches!((deadline_s, completion_s), (Some(dl), Some(t)) if t > dl);
        if ctx.is_departed(c) {
            2
        } else if ctx.is_in_flight(c) || doomed {
            1
        } else {
            0
        }
    };
    // (tier, score, pool position, id): ranked by tier, then score
    // descending, then pool position — the order a stable sort by the
    // first two keeps — so the top `k` can be selected before sorting.
    let mut scored: Vec<(u8, f64, usize, usize)> = pool
        .into_iter()
        .enumerate()
        .map(|(position, c)| {
            let completion_s = ctx.predicted_completion_s(c);
            (tier(c, completion_s), score(c, completion_s), position, c)
        })
        .collect();
    let by_rank = |a: &(u8, f64, usize, usize), b: &(u8, f64, usize, usize)| {
        a.0.cmp(&b.0)
            .then_with(|| b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal))
            .then_with(|| a.2.cmp(&b.2))
    };
    if k < scored.len() {
        scored.select_nth_unstable_by(k, by_rank);
        scored.truncate(k);
    }
    scored.sort_unstable_by(by_rank);
    scored.into_iter().map(|(_, _, _, c)| c).collect()
}

impl SelectionPolicy for ReliabilityAwareSelection {
    fn name(&self) -> &'static str {
        "reliability-aware"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>, rng: &mut Rng64) -> Vec<usize> {
        let d = self.candidates.clamp(ctx.participants, ctx.n_clients);
        let pool = rng.sample_indices(ctx.n_clients, d);
        let prior = ctx
            .known_loss
            .iter()
            .filter_map(|l| *l)
            .fold(f32::NEG_INFINITY, f32::max);
        let prior = if prior.is_finite() { prior } else { 1.0 };
        rank_and_take(pool, ctx, ctx.participants, |c, _| {
            let loss = f64::from(ctx.known_loss[c].unwrap_or(prior));
            loss * report_probability(ctx, c)
        })
    }
}

/// Staleness-balancing selection (the ROADMAP's async-aware policy): the
/// buffered executor's fast-client skew means slow devices contribute
/// rarely and, when they do, chronically stale — on non-IID data their
/// distributions are then underrepresented in the global model. This
/// policy oversamples *idle slow* devices, scoring each idle candidate by
/// `(1 + mean observed staleness) · predicted completion time` — a slow
/// device is dispatched the moment it goes idle (keeping it continuously
/// training, which is the only way to raise its update frequency), while
/// fast devices can catch up in any later round. Clients with an update
/// in flight rank behind every idle candidate: the executor would skip
/// them as busy, wasting the slot.
///
/// Without a fleet or telemetry every score ties and the ranking
/// preserves the uniformly-sampled pool order — a graceful degradation to
/// uniform sampling.
#[derive(Debug, Clone, Copy)]
pub struct StalenessBalancedSelection {
    /// Candidate pool size `d` (clamped to `[K, N]`).
    pub candidates: usize,
}

impl SelectionPolicy for StalenessBalancedSelection {
    fn name(&self) -> &'static str {
        "staleness-balanced"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>, rng: &mut Rng64) -> Vec<usize> {
        let d = self.candidates.clamp(ctx.participants, ctx.n_clients);
        let pool = rng.sample_indices(ctx.n_clients, d);
        rank_and_take(pool, ctx, ctx.participants, |c, completion_s| {
            (1.0 + ctx.observed_staleness(c)) * completion_s.unwrap_or(1.0)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{ClientReliability, ReliabilityTable};
    use feddrl_sim::device::{FleetConfig, FleetView};
    use feddrl_sim::ids::IdSet;
    use std::borrow::Cow;

    fn ctx_parts(n: usize) -> (Vec<Option<f32>>, Vec<usize>) {
        ((0..n).map(|i| Some(1.0 + i as f32)).collect(), vec![0; n])
    }

    fn base_ctx<'a>(
        n: usize,
        k: usize,
        known_loss: &'a [Option<f32>],
        participation: &'a [usize],
    ) -> SelectionContext<'a> {
        SelectionContext {
            round: 0,
            n_clients: n,
            participants: k,
            known_loss,
            participation,
            executor: ExecutorView::default(),
        }
    }

    fn assert_valid_sample(sample: &[usize], n: usize, k: usize) {
        assert_eq!(sample.len(), k);
        let mut sorted = sample.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), k, "duplicate client selected");
        assert!(sorted.iter().all(|&c| c < n));
    }

    #[test]
    fn config_builds_matching_policy() {
        assert_eq!(Selection::Uniform.build().name(), "uniform");
        assert_eq!(
            Selection::PowerOfChoice { candidates: 8 }.build().name(),
            "power-of-choice"
        );
        assert_eq!(
            Selection::BandwidthAware { candidates: 8 }.build().name(),
            "bandwidth-aware"
        );
        assert_eq!(
            Selection::ReliabilityAware { candidates: 8 }.build().name(),
            "reliability-aware"
        );
        assert_eq!(
            Selection::StalenessBalanced { candidates: 8 }
                .build()
                .name(),
            "staleness-balanced"
        );
    }

    #[test]
    fn uniform_matches_raw_sample_indices() {
        let (loss, part) = ctx_parts(10);
        let ctx = base_ctx(10, 4, &loss, &part);
        let picked = UniformSelection.select(&ctx, &mut Rng64::new(3).derive(0));
        let expected = Rng64::new(3).derive(0).sample_indices(10, 4);
        assert_eq!(picked, expected);
        assert_valid_sample(&picked, 10, 4);
    }

    #[test]
    fn power_of_choice_prefers_unseen_then_lossy() {
        let mut loss: Vec<Option<f32>> = (0..6).map(|i| Some(i as f32)).collect();
        loss[2] = None; // unseen outranks every known loss
        let part = vec![0; 6];
        let ctx = base_ctx(6, 2, &loss, &part);
        // Full pool: the choice is purely loss-ranked.
        let mut policy = PowerOfChoiceSelection { candidates: 6 };
        let picked = policy.select(&ctx, &mut Rng64::new(1));
        assert_valid_sample(&picked, 6, 2);
        assert!(picked.contains(&2), "unseen client not profiled first");
        assert!(picked.contains(&5), "highest-loss client not kept");
    }

    #[test]
    fn bandwidth_aware_downranks_slow_and_doomed_clients() {
        let (loss, part) = ctx_parts(8);
        let fleet = FleetView::new(
            8,
            &FleetConfig {
                compute_skew: 6.0,
                seed: 11,
                ..Default::default()
            },
        );
        let upload = 1_000_000;
        let deadline = fleet.completion_percentile_s(upload, 0.5);
        let mut ctx = base_ctx(8, 3, &loss, &part);
        ctx.executor.fleet = Some(&fleet);
        ctx.executor.upload_bytes = upload;
        ctx.executor.deadline_s = Some(deadline);
        let mut policy = BandwidthAwareSelection { candidates: 8 };
        let picked = policy.select(&ctx, &mut Rng64::new(5));
        assert_valid_sample(&picked, 8, 3);
        for &c in &picked {
            let t = ctx.predicted_completion_s(c).unwrap();
            assert!(
                t <= deadline,
                "policy kept a predicted straggler ({t:.1}s > {deadline:.1}s) \
                 with in-time candidates available"
            );
        }
    }

    #[test]
    fn bandwidth_aware_without_fleet_is_loss_biased() {
        let (loss, part) = ctx_parts(10);
        let ctx = base_ctx(10, 3, &loss, &part);
        let mut policy = BandwidthAwareSelection { candidates: 10 };
        let picked = policy.select(&ctx, &mut Rng64::new(2));
        // Losses rise with the id, the pool is the whole fleet: the three
        // highest ids must win.
        assert_eq!(
            {
                let mut p = picked;
                p.sort_unstable();
                p
            },
            vec![7, 8, 9]
        );
    }

    /// Telemetry where client `i` has dropped `drops[i]` of 10 tries.
    fn stats_from_drops(drops: &[usize]) -> ReliabilityTable {
        drops
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                (
                    i,
                    ClientReliability {
                        dropouts: d,
                        dispatches: 10 - d,
                        aggregated: 10 - d,
                        staleness_sum: 0,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn reliability_aware_discounts_flaky_clients_by_expected_utility() {
        // Equal losses; client 2 dropped 9 of 10 tries, client 5 none.
        let loss = vec![Some(1.0f32); 6];
        let part = vec![0; 6];
        let stats = stats_from_drops(&[0, 0, 9, 0, 0, 0]);
        let mut ctx = base_ctx(6, 5, &loss, &part);
        ctx.executor.reliability = Some(&stats);
        let picked = ReliabilityAwareSelection { candidates: 6 }.select(&ctx, &mut Rng64::new(4));
        assert_valid_sample(&picked, 6, 5);
        assert!(
            !picked.contains(&2),
            "chronic dropout kept over reliable peers"
        );
    }

    #[test]
    fn reliability_aware_keeps_flaky_but_informative_clients() {
        // Client 0 drops half its rounds but its loss towers over the
        // rest: expected utility 1.0 * (1 - 5/11) ≈ 0.55 still beats the
        // reliable clients' 0.1 — flaky-but-informative wins the slot.
        let mut loss = vec![Some(0.1f32); 6];
        loss[0] = Some(1.0);
        let part = vec![0; 6];
        let stats = stats_from_drops(&[5, 0, 0, 0, 0, 0]);
        let mut ctx = base_ctx(6, 2, &loss, &part);
        ctx.executor.reliability = Some(&stats);
        let picked = ReliabilityAwareSelection { candidates: 6 }.select(&ctx, &mut Rng64::new(4));
        assert!(picked.contains(&0), "informative flaky client starved");
    }

    /// Regression: under `LatePolicy::Drop` a predicted straggler is
    /// skipped *before* dispatch, so it never enters telemetry or the
    /// loss table — without the last-resort tier its forever-unobserved
    /// optimistic score would win a wasted slot every round.
    #[test]
    fn reliability_and_staleness_policies_downrank_predicted_stragglers() {
        let loss = vec![None; 8]; // nothing observed: everyone at the prior
        let part = vec![0; 8];
        let fleet = FleetView::new(
            8,
            &FleetConfig {
                compute_skew: 6.0,
                seed: 11,
                ..Default::default()
            },
        );
        let upload = 1_000_000;
        let deadline = fleet.completion_percentile_s(upload, 0.5);
        let mut ctx = base_ctx(8, 3, &loss, &part);
        ctx.executor.fleet = Some(&fleet);
        ctx.executor.upload_bytes = upload;
        ctx.executor.deadline_s = Some(deadline);
        for mut policy in [
            Box::new(ReliabilityAwareSelection { candidates: 8 }) as Box<dyn SelectionPolicy>,
            Box::new(StalenessBalancedSelection { candidates: 8 }),
        ] {
            let picked = policy.select(&ctx, &mut Rng64::new(5));
            assert_valid_sample(&picked, 8, 3);
            for &c in &picked {
                let t = ctx.predicted_completion_s(c).unwrap();
                assert!(
                    t <= deadline,
                    "{} kept a predicted straggler ({t:.1}s > {deadline:.1}s) \
                     with in-time candidates available",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn reliability_aware_without_telemetry_is_loss_biased() {
        let (loss, part) = ctx_parts(10);
        let ctx = base_ctx(10, 3, &loss, &part);
        let picked = ReliabilityAwareSelection { candidates: 10 }.select(&ctx, &mut Rng64::new(2));
        assert_eq!(
            {
                let mut p = picked;
                p.sort_unstable();
                p
            },
            vec![7, 8, 9]
        );
    }

    #[test]
    fn staleness_balanced_oversamples_idle_slow_devices() {
        let (loss, part) = ctx_parts(8);
        let fleet = FleetView::new(
            8,
            &FleetConfig {
                compute_skew: 6.0,
                seed: 11,
                ..Default::default()
            },
        );
        let upload = 1_000_000;
        let mut ctx = base_ctx(8, 3, &loss, &part);
        ctx.executor.fleet = Some(&fleet);
        ctx.executor.upload_bytes = upload;
        let picked = StalenessBalancedSelection { candidates: 8 }.select(&ctx, &mut Rng64::new(5));
        assert_valid_sample(&picked, 8, 3);
        // Full pool, no history, everyone idle: exactly the three slowest
        // devices must be chosen.
        let mut by_slowness: Vec<usize> = (0..8).collect();
        by_slowness.sort_by(|&a, &b| {
            fleet
                .profile(b)
                .completion_time_s(upload)
                .total_cmp(&fleet.profile(a).completion_time_s(upload))
        });
        let mut expected = by_slowness[..3].to_vec();
        expected.sort_unstable();
        assert_eq!(
            {
                let mut p = picked;
                p.sort_unstable();
                p
            },
            expected
        );
    }

    #[test]
    fn in_flight_clients_rank_behind_every_idle_candidate() {
        let (loss, part) = ctx_parts(6);
        let mut ctx = base_ctx(6, 3, &loss, &part);
        ctx.executor.in_flight = Cow::Owned(IdSet::from_iter([0, 1, 2]));
        for mut policy in [
            Box::new(ReliabilityAwareSelection { candidates: 6 }) as Box<dyn SelectionPolicy>,
            Box::new(StalenessBalancedSelection { candidates: 6 }),
        ] {
            let picked = policy.select(&ctx, &mut Rng64::new(9));
            assert_valid_sample(&picked, 6, 3);
            assert_eq!(
                {
                    let mut p = picked;
                    p.sort_unstable();
                    p
                },
                vec![3, 4, 5],
                "{} sampled a busy client with idle candidates available",
                policy.name()
            );
        }
    }

    #[test]
    fn departed_clients_rank_behind_even_busy_ones() {
        // Clients 0-1 departed under churn, client 2 busy: the ranking
        // policies must fill from the three live idle candidates, and the
        // busy client must still outrank the departed ones if forced.
        let (loss, part) = ctx_parts(6);
        let mut ctx = base_ctx(6, 3, &loss, &part);
        ctx.executor.in_flight = Cow::Owned(IdSet::from_iter([2]));
        ctx.executor.departed = Cow::Owned(IdSet::from_iter([0, 1]));
        assert!(ctx.is_departed(0) && ctx.is_departed(1) && !ctx.is_departed(2));
        for mut policy in [
            Box::new(ReliabilityAwareSelection { candidates: 6 }) as Box<dyn SelectionPolicy>,
            Box::new(StalenessBalancedSelection { candidates: 6 }),
        ] {
            let picked = policy.select(&ctx, &mut Rng64::new(9));
            assert_valid_sample(&picked, 6, 3);
            assert!(
                !picked.contains(&0) && !picked.contains(&1),
                "{} dispatched a departed client with live candidates available",
                policy.name()
            );
        }
        // Forced: four slots, only three live idle candidates — the busy
        // client must be taken before any departed one.
        ctx.participants = 4;
        let picked = ReliabilityAwareSelection { candidates: 6 }.select(&ctx, &mut Rng64::new(9));
        assert_valid_sample(&picked, 6, 4);
        assert!(
            picked.contains(&2),
            "busy client must be preferred over departed ones"
        );
        assert!(!(picked.contains(&0) && picked.contains(&1)));
    }

    #[test]
    fn staleness_balanced_without_context_degrades_to_pool_order() {
        let loss = vec![None; 10];
        let part = vec![0; 10];
        let ctx = base_ctx(10, 4, &loss, &part);
        let picked = StalenessBalancedSelection { candidates: 10 }.select(&ctx, &mut Rng64::new(3));
        // All scores tie; the stable ranking must preserve the sampled
        // pool order exactly (here: the full-pool sample order).
        let expected: Vec<usize> = Rng64::new(3).sample_indices(10, 10)[..4].to_vec();
        assert_eq!(picked, expected);
    }

    /// Selecting the top `k` before sorting them takes what a stable sort
    /// of the whole pool by tier, then score, takes — in the same order —
    /// with many tied scores, busy and departed candidates and a deadline
    /// that dooms some, for every `k` up to the pool.
    #[test]
    fn ranking_takes_what_a_stable_sort_of_the_pool_takes() {
        let cfg = FleetConfig {
            compute_skew: 4.0,
            seed: 2,
            ..Default::default()
        };
        let fleet = FleetView::new(500, &cfg);
        let deadline_s = fleet.completion_percentile_s(1_000, 0.7);
        let (loss, part) = ctx_parts(500);
        let mut rng = Rng64::new(4);
        let in_flight: IdSet = rng.sample_indices(500, 60).into_iter().collect();
        let departed: IdSet = rng.sample_indices(500, 40).into_iter().collect();
        let mut ctx = base_ctx(500, 1, &loss, &part);
        ctx.executor = ExecutorView {
            fleet: Some(&fleet),
            upload_bytes: 1_000,
            deadline_s: Some(deadline_s),
            in_flight: Cow::Owned(in_flight),
            departed: Cow::Owned(departed),
            ..Default::default()
        };
        // Five score levels over 120 candidates: most candidates tie.
        let score = |c: usize, _: Option<f64>| (c % 5) as f64;
        for seed in 0..10 {
            let pool = Rng64::new(seed).sample_indices(500, 120);
            for k in [1, 7, 64, 119, 120] {
                let mut reference: Vec<(usize, u8, f64)> = pool
                    .iter()
                    .map(|&c| {
                        let completion_s = ctx.predicted_completion_s(c);
                        let doomed = completion_s.is_some_and(|t| t > deadline_s);
                        let tier = if ctx.is_departed(c) {
                            2
                        } else if ctx.is_in_flight(c) || doomed {
                            1
                        } else {
                            0
                        };
                        (c, tier, score(c, completion_s))
                    })
                    .collect();
                reference.sort_by(|a, b| a.1.cmp(&b.1).then(b.2.total_cmp(&a.2)));
                let want: Vec<usize> = reference[..k].iter().map(|r| r.0).collect();
                assert_eq!(
                    rank_and_take(pool.clone(), &ctx, k, score),
                    want,
                    "seed {seed}, k {k}"
                );
            }
        }
    }
}

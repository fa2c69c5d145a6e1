//! The FedDRL aggregation strategy (paper §3.2–3.4, Figure 2 steps 4–5).
//!
//! [`FedDrl`] implements the simulator's [`Strategy`] trait: each round it
//! builds the DRL state from the clients' reports, completes the previous
//! round's transition (the reward for action `a_{t-1}` is computed from
//! this round's `l_before` losses — i.e. from how well the *aggregated*
//! model serves the clients), optionally trains the agent online, then
//! emits impact factors by sampling `softmax(N(μ, σ))` from the policy's
//! action.

use crate::config::FedDrlConfig;
use crate::state::{append_availability_block, build_state, build_state_with_staleness};
use feddrl_drl::buffer::Experience;
use feddrl_drl::ddpg::{sample_impact_factors, DdpgAgent, TrainStats};
use feddrl_drl::reward::reward_from_losses;
use feddrl_fl::client::ClientSummary;
use feddrl_fl::strategy::{RoundContext, Strategy};
use feddrl_nn::rng::Rng64;

/// Deep-reinforcement-learning-based adaptive aggregation.
pub struct FedDrl {
    agent: DdpgAgent,
    lambda: f32,
    explore: bool,
    online_training: bool,
    /// Observe per-update staleness as a fourth state block (see
    /// [`FedDrlConfig::observe_staleness`]).
    observe_staleness: bool,
    /// Observe each update's untrained model fraction under adaptive
    /// structured dropout (see [`FedDrlConfig::observe_availability`]).
    observe_availability: bool,
    /// Per-client state blocks ([`FedDrlConfig::state_blocks`]).
    blocks: usize,
    /// `(state, action)` of the previous round, awaiting its reward.
    pending: Option<(Vec<f32>, Vec<f32>)>,
    rng: Rng64,
    train_stats: Vec<TrainStats>,
    rewards: Vec<f32>,
}

impl FedDrl {
    /// Create a FedDRL strategy for `k` participating clients per round.
    pub fn new(k: usize, cfg: &FedDrlConfig) -> Self {
        let agent = DdpgAgent::new(cfg.ddpg_for(k));
        Self::from_agent(agent, cfg)
    }

    /// Wrap an existing (e.g. two-stage pre-trained) agent.
    pub fn from_agent(agent: DdpgAgent, cfg: &FedDrlConfig) -> Self {
        Self {
            rng: Rng64::new(cfg.seed ^ 0xA1FA),
            lambda: cfg.reward_lambda,
            explore: cfg.explore,
            online_training: cfg.online_training,
            observe_staleness: cfg.observe_staleness,
            observe_availability: cfg.observe_availability,
            blocks: cfg.state_blocks(),
            pending: None,
            train_stats: Vec::new(),
            rewards: Vec::new(),
            agent,
        }
    }

    /// Immutable access to the embedded agent.
    pub fn agent(&self) -> &DdpgAgent {
        &self.agent
    }

    /// Consume the strategy, returning the agent (two-stage workers hand
    /// their experience buffers over this way).
    pub fn into_agent(self) -> DdpgAgent {
        self.agent
    }

    /// Rewards observed so far (one per completed transition).
    pub fn rewards(&self) -> &[f32] {
        &self.rewards
    }

    /// Training diagnostics collected so far.
    pub fn train_stats(&self) -> &[TrainStats] {
        &self.train_stats
    }

    /// The agent's designed-for participant count `K` (state is
    /// `blocks · K`, the paper's `3K` by default).
    fn capacity(&self) -> usize {
        self.agent.config().state_dim / self.blocks
    }

    /// Lift an `m`-client state onto the agent's fixed per-block-`K`
    /// observation.
    ///
    /// Heterogeneous rounds (dropouts, deadline cuts — see
    /// `feddrl_fl::executor`) can report fewer than `K` clients. The loss
    /// blocks are z-normalized (mean 0), so zero-padding the tail of each
    /// block presents the missing clients as "average" placeholders, and
    /// a zero sample-fraction marks them as contributing no data (a zero
    /// staleness feature likewise reads as "fresh", and a zero
    /// availability feature as "trained the full model"). For `m == K`
    /// this is the identity, keeping full-participation rounds
    /// bit-identical to the pre-heterogeneity behavior.
    fn pad_state(
        &self,
        summaries: &[ClientSummary],
        staleness: &[usize],
        mask_ratios: &[f32],
    ) -> Vec<f32> {
        let (m, k, blocks) = (summaries.len(), self.capacity(), self.blocks);
        let mut raw = if self.observe_staleness {
            build_state_with_staleness(summaries, staleness)
        } else {
            build_state(summaries)
        };
        if self.observe_availability {
            append_availability_block(&mut raw, m, mask_ratios);
        }
        if m == k {
            return raw;
        }
        let mut state = vec![0.0f32; blocks * k];
        for block in 0..blocks {
            state[block * k..block * k + m].copy_from_slice(&raw[block * m..(block + 1) * m]);
        }
        state
    }

    /// [`Strategy::impact_factors`] with per-update staleness (model
    /// versions behind) and mask ratios (the model fraction each update
    /// trained under adaptive structured dropout), both aligned with
    /// `summaries`; empty means all fresh and all full-model. Each enters
    /// the DRL state only when [`FedDrlConfig::observe_staleness`] or
    /// [`FedDrlConfig::observe_availability`] is set — otherwise this is
    /// exactly the 3-block paper path, bit for bit.
    pub fn impact_factors_with_dynamics(
        &mut self,
        _round: usize,
        summaries: &[ClientSummary],
        staleness: &[usize],
        mask_ratios: &[f32],
    ) -> Vec<f32> {
        let (m, k) = (summaries.len(), self.capacity());
        assert!(
            m >= 1 && m <= k,
            "FedDRL built for K = {k} clients got {m} summaries"
        );
        let state = self.pad_state(summaries, staleness, mask_ratios);

        // Close the previous transition: this round's l_before losses are
        // the environment's feedback on the previous aggregation.
        if let Some((prev_state, prev_action)) = self.pending.take() {
            let losses: Vec<f32> = summaries.iter().map(|s| s.loss_before).collect();
            let reward = reward_from_losses(&losses, self.lambda);
            self.rewards.push(reward);
            self.agent.remember(Experience {
                state: prev_state,
                action: prev_action,
                reward,
                next_state: state.clone(),
            });
            if self.online_training {
                if let Some(stats) = self.agent.train() {
                    self.train_stats.push(stats);
                }
            }
        }

        // The action holds K means then K std-devs; a short round samples
        // factors from its first `m` of each.
        let action = self.agent.act(&state, self.explore);
        let alpha = if m == k {
            sample_impact_factors(&action, &mut self.rng)
        } else {
            let mut mu_sigma = Vec::with_capacity(2 * m);
            mu_sigma.extend_from_slice(&action[..m]);
            mu_sigma.extend_from_slice(&action[k..k + m]);
            sample_impact_factors(&mu_sigma, &mut self.rng)
        };
        self.pending = Some((state, action));
        alpha
    }
}

impl Strategy for FedDrl {
    fn name(&self) -> &'static str {
        "FedDRL"
    }

    fn impact_factors(&mut self, round: usize, summaries: &[ClientSummary]) -> Vec<f32> {
        self.impact_factors_with_dynamics(round, summaries, &[], &[])
    }

    fn impact_factors_ctx(&mut self, ctx: &RoundContext<'_>) -> Vec<f32> {
        let summaries: Vec<ClientSummary> = ctx.updates.iter().map(|u| u.summary()).collect();
        let staleness: Vec<usize> = ctx.updates.iter().map(|u| u.staleness).collect();
        let mask_ratios: Vec<f32> = ctx.updates.iter().map(|u| u.mask_ratio()).collect();
        self.impact_factors_with_dynamics(ctx.round, &summaries, &staleness, &mask_ratios)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summaries(k: usize, round: usize) -> Vec<ClientSummary> {
        (0..k)
            .map(|i| ClientSummary {
                client_id: i,
                n_samples: 100 + i * 10,
                loss_before: 2.0 - 0.1 * round as f32 + 0.05 * i as f32,
                loss_after: 1.0 - 0.05 * round as f32,
            })
            .collect()
    }

    #[test]
    fn emits_normalizable_factors_every_round() {
        let cfg = FedDrlConfig::default();
        let mut strategy = FedDrl::new(4, &cfg);
        for round in 0..5 {
            let alpha = strategy.impact_factors(round, &summaries(4, round));
            assert_eq!(alpha.len(), 4);
            let sum: f32 = alpha.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "softmax output not normalized");
            assert!(alpha.iter().all(|&a| a > 0.0));
        }
    }

    #[test]
    fn transitions_are_recorded_with_one_round_lag() {
        let cfg = FedDrlConfig::default();
        let mut strategy = FedDrl::new(3, &cfg);
        assert_eq!(strategy.agent().buffer.len(), 0);
        let _ = strategy.impact_factors(0, &summaries(3, 0));
        assert_eq!(
            strategy.agent().buffer.len(),
            0,
            "no reward available before the second round"
        );
        let _ = strategy.impact_factors(1, &summaries(3, 1));
        assert_eq!(strategy.agent().buffer.len(), 1);
        let _ = strategy.impact_factors(2, &summaries(3, 2));
        assert_eq!(strategy.agent().buffer.len(), 2);
        assert_eq!(strategy.rewards().len(), 2);
    }

    #[test]
    fn rewards_improve_when_losses_drop() {
        let cfg = FedDrlConfig::default();
        let mut strategy = FedDrl::new(3, &cfg);
        for round in 0..6 {
            let _ = strategy.impact_factors(round, &summaries(3, round));
        }
        let rewards = strategy.rewards();
        assert!(
            rewards.last().unwrap() > rewards.first().unwrap(),
            "dropping losses must raise the reward: {rewards:?}"
        );
    }

    #[test]
    fn short_rounds_reuse_the_fixed_size_agent() {
        // A K=5 agent serving heterogeneous rounds of 5, 3, 1, 4 clients
        // (dropouts/deadline cuts) must keep emitting simplex factors of
        // the right arity and keep learning across the size changes.
        let cfg = FedDrlConfig::default();
        let mut strategy = FedDrl::new(5, &cfg);
        for (round, m) in [5usize, 3, 1, 4, 5].into_iter().enumerate() {
            let alpha = strategy.impact_factors(round, &summaries(m, round));
            assert_eq!(alpha.len(), m);
            let sum: f32 = alpha.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "round {round}: sum {sum}");
        }
        assert_eq!(strategy.rewards().len(), 4);
        assert_eq!(strategy.agent().buffer.len(), 4);
    }

    #[test]
    fn full_rounds_are_unchanged_by_padding_support() {
        // The padded path must be a strict no-op at full participation:
        // same seeds, same inputs => bit-identical factors.
        let cfg = FedDrlConfig::default();
        let mut a = FedDrl::new(4, &cfg);
        let mut b = FedDrl::new(4, &cfg);
        for round in 0..3 {
            let s = summaries(4, round);
            assert_eq!(a.impact_factors(round, &s), b.impact_factors(round, &s));
        }
    }

    #[test]
    fn staleness_is_ignored_unless_observed() {
        // Default config: the staleness argument must be a strict no-op —
        // same agent seeds, same summaries, bit-identical factors whether
        // the updates are fresh or ancient.
        let cfg = FedDrlConfig::default();
        let mut a = FedDrl::new(4, &cfg);
        let mut b = FedDrl::new(4, &cfg);
        for round in 0..3 {
            let s = summaries(4, round);
            let fa = a.impact_factors(round, &s);
            let fb = b.impact_factors_with_dynamics(round, &s, &[5, 0, 2, 9], &[]);
            assert_eq!(
                fa, fb,
                "round {round}: unobserved staleness leaked into the policy"
            );
        }
    }

    #[test]
    fn observed_staleness_enters_the_state_and_changes_the_action() {
        let cfg = FedDrlConfig {
            observe_staleness: true,
            explore: false,
            ..Default::default()
        };
        let mut a = FedDrl::new(4, &cfg);
        let mut b = FedDrl::new(4, &cfg);
        let s = summaries(4, 0);
        // All-fresh explicit vs implicit must agree...
        let fa = a.impact_factors_with_dynamics(0, &s, &[0, 0, 0, 0], &[]);
        let fb = b.impact_factors_with_dynamics(0, &s, &[], &[]);
        assert_eq!(
            fa, fb,
            "explicit zero staleness must equal the all-fresh path"
        );
        // ...and a stale update must actually perturb the observation.
        let mut c = FedDrl::new(4, &cfg);
        let fc = c.impact_factors_with_dynamics(0, &s, &[4, 0, 0, 0], &[]);
        assert_eq!(fc.len(), 4);
        assert_ne!(fa, fc, "observed staleness did not reach the policy");
    }

    #[test]
    fn staleness_observing_agent_handles_short_rounds() {
        // 4-block padding: a K=5 staleness-observing agent serving short
        // heterogeneous rounds keeps emitting simplex factors.
        let cfg = FedDrlConfig {
            observe_staleness: true,
            ..Default::default()
        };
        let mut strategy = FedDrl::new(5, &cfg);
        assert_eq!(strategy.agent().config().state_dim, 20);
        for (round, m) in [5usize, 3, 1, 4].into_iter().enumerate() {
            let stale: Vec<usize> = (0..m).map(|i| i % 3).collect();
            let alpha =
                strategy.impact_factors_with_dynamics(round, &summaries(m, round), &stale, &[]);
            assert_eq!(alpha.len(), m);
            let sum: f32 = alpha.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "round {round}: sum {sum}");
        }
        assert_eq!(strategy.rewards().len(), 3);
    }

    #[test]
    fn mask_ratios_are_ignored_unless_observed() {
        // Default config: sub-model mask ratios must be a strict no-op —
        // bit-identical factors whether updates are full or quarter-size.
        let cfg = FedDrlConfig::default();
        let mut a = FedDrl::new(4, &cfg);
        let mut b = FedDrl::new(4, &cfg);
        for round in 0..3 {
            let s = summaries(4, round);
            let fa = a.impact_factors(round, &s);
            let fb = b.impact_factors_with_dynamics(round, &s, &[], &[0.25, 1.0, 0.5, 1.0]);
            assert_eq!(
                fa, fb,
                "round {round}: unobserved mask ratios leaked into the policy"
            );
        }
    }

    #[test]
    fn observed_availability_enters_the_state_and_changes_the_action() {
        let cfg = FedDrlConfig {
            observe_availability: true,
            explore: false,
            ..Default::default()
        };
        let mut a = FedDrl::new(4, &cfg);
        let mut b = FedDrl::new(4, &cfg);
        let s = summaries(4, 0);
        // All-full explicit vs implicit must agree...
        let fa = a.impact_factors_with_dynamics(0, &s, &[], &[1.0, 1.0, 1.0, 1.0]);
        let fb = b.impact_factors_with_dynamics(0, &s, &[], &[]);
        assert_eq!(fa, fb, "explicit full ratios must equal the all-full path");
        // ...and a sub-model update must actually perturb the observation.
        let mut c = FedDrl::new(4, &cfg);
        let fc = c.impact_factors_with_dynamics(0, &s, &[], &[0.25, 1.0, 1.0, 1.0]);
        assert_eq!(fc.len(), 4);
        assert_ne!(fa, fc, "observed mask ratio did not reach the policy");
    }

    #[test]
    fn fully_observing_agent_handles_short_rounds() {
        // 5-block padding: staleness + availability observed together on a
        // K=5 agent serving short heterogeneous rounds.
        let cfg = FedDrlConfig {
            observe_staleness: true,
            observe_availability: true,
            ..Default::default()
        };
        let mut strategy = FedDrl::new(5, &cfg);
        assert_eq!(strategy.agent().config().state_dim, 25);
        for (round, m) in [5usize, 3, 1, 4].into_iter().enumerate() {
            let stale: Vec<usize> = (0..m).map(|i| i % 3).collect();
            let ratios: Vec<f32> = (0..m).map(|i| 1.0 - 0.25 * (i % 2) as f32).collect();
            let alpha =
                strategy.impact_factors_with_dynamics(round, &summaries(m, round), &stale, &ratios);
            assert_eq!(alpha.len(), m);
            let sum: f32 = alpha.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "round {round}: sum {sum}");
        }
        assert_eq!(strategy.rewards().len(), 3);
    }

    #[test]
    #[should_panic(expected = "got 6 summaries")]
    fn rejects_more_clients_than_capacity() {
        let mut strategy = FedDrl::new(5, &FedDrlConfig::default());
        let _ = strategy.impact_factors(0, &summaries(6, 0));
    }

    #[test]
    fn name_is_feddrl() {
        let strategy = FedDrl::new(2, &FedDrlConfig::default());
        assert_eq!(strategy.name(), "FedDRL");
        assert!(strategy.proximal_mu().is_none());
    }

    #[test]
    fn exploration_toggle_changes_behaviour() {
        let cfg = FedDrlConfig {
            explore: false,
            ..Default::default()
        };
        let mut a = FedDrl::new(3, &cfg);
        let mut b = FedDrl::new(
            3,
            &FedDrlConfig {
                explore: true,
                ..cfg
            },
        );
        // Same agent seeds, same state: deterministic α sampling differs
        // only through the exploration noise on the action.
        let s = summaries(3, 0);
        let fa = a.impact_factors(0, &s);
        let fb = b.impact_factors(0, &s);
        assert_ne!(fa, fb);
    }
}

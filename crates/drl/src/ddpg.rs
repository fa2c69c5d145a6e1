//! The DDPG actor-critic agent (paper §3.4.1, Algorithm 1).
//!
//! Two network pairs, exactly as Figure 3(a): a *policy* (actor) mapping
//! states to the `(μ, σ)` action tuple and a *value* (critic) scoring
//! state-action pairs, each with a main and a ρ-soft-updated target copy.
//!
//! The action head applies the paper's parameterization on top of the raw
//! policy output: `μ = tanh(raw_μ)` bounds the Gaussian means, and
//! `σ = β·sigmoid(raw_σ)·(|μ| + ε)` enforces the stability constraint
//! `σ ≤ β·μ` of Eq. 6. The head is differentiated analytically inside the
//! policy update (deterministic policy-gradient ascent through the critic).

use crate::buffer::{Experience, PriorityRanks, ReplayBuffer};
use crate::config::DdpgConfig;
use feddrl_nn::init::Init;
use feddrl_nn::layers::{Activation, Dense};
use feddrl_nn::model::Sequential;
use feddrl_nn::optim::Sgd;
use feddrl_nn::rng::Rng64;
use feddrl_nn::tensor::{softmax, Tensor};

/// Floor added to `|μ|` in the σ head so exploration never fully collapses.
const SIGMA_FLOOR: f32 = 1e-3;

/// The logistic squash of the σ head.
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Diagnostics from one [`DdpgAgent::train`] invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrainStats {
    /// Mean critic MSE across the updates.
    pub value_loss: f32,
    /// Mean Q-value of the policy's actions (the ascent objective).
    pub mean_q: f32,
    /// Number of gradient updates performed.
    pub updates: usize,
}

/// DDPG actor-critic with TD-prioritized replay.
pub struct DdpgAgent {
    cfg: DdpgConfig,
    policy: Sequential,
    policy_target: Sequential,
    value: Sequential,
    value_target: Sequential,
    policy_opt: Sgd,
    value_opt: Sgd,
    /// Experience store (public: the two-stage trainer merges buffers).
    pub buffer: ReplayBuffer,
    rng: Rng64,
    /// Current exploration-noise multiplier (anneals by
    /// `exploration_decay` per explored action).
    noise_scale: f32,
}

/// Build the 3-layer policy network of Table 1.
fn build_policy(cfg: &DdpgConfig, rng: &mut Rng64) -> Sequential {
    let mut m = Sequential::new();
    let mut prev = cfg.state_dim;
    for _ in 0..cfg.policy_layers - 1 {
        m.push_boxed(Box::new(Dense::new(prev, cfg.hidden, Init::HeNormal, rng)));
        m.push_boxed(Box::new(Activation::leaky_relu()));
        prev = cfg.hidden;
    }
    // DDPG-style small final init keeps initial actions near zero, i.e.
    // near-uniform initial impact factors after softmax.
    m.push_boxed(Box::new(Dense::new(
        prev,
        cfg.action_dim,
        Init::FinalLayerSmall,
        rng,
    )));
    m
}

/// Build the value network (2 hidden layers of 256, Table 1).
fn build_value(cfg: &DdpgConfig, rng: &mut Rng64) -> Sequential {
    let mut m = Sequential::new();
    let mut prev = cfg.state_dim + cfg.action_dim;
    for _ in 0..cfg.value_hidden_layers {
        m.push_boxed(Box::new(Dense::new(prev, cfg.hidden, Init::HeNormal, rng)));
        m.push_boxed(Box::new(Activation::leaky_relu()));
        prev = cfg.hidden;
    }
    m.push_boxed(Box::new(Dense::new(prev, 1, Init::FinalLayerSmall, rng)));
    m
}

/// Forward cache of the action head, needed for its backward pass.
struct HeadCache {
    mu: Vec<f32>,
    sig: Vec<f32>, // sigmoid(raw_sigma)
}

impl DdpgAgent {
    /// Create an agent with freshly initialized networks (targets start as
    /// exact copies of the mains, as in DDPG).
    pub fn new(cfg: DdpgConfig) -> Self {
        cfg.validate();
        let mut rng = Rng64::new(cfg.seed);
        let policy = build_policy(&cfg, &mut rng);
        let value = build_value(&cfg, &mut rng);
        let policy_target = policy.clone();
        let value_target = value.clone();
        let buffer = ReplayBuffer::new(cfg.buffer_capacity);
        Self {
            policy_opt: Sgd::new(cfg.policy_lr, 0.0),
            value_opt: Sgd::new(cfg.value_lr, 0.0),
            policy,
            policy_target,
            value,
            value_target,
            buffer,
            rng,
            noise_scale: 1.0,
            cfg,
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &DdpgConfig {
        &self.cfg
    }

    /// Number of Gaussians (clients) the action describes.
    pub fn k(&self) -> usize {
        self.cfg.action_dim / 2
    }

    /// Apply the action head to one raw policy output row, writing the
    /// `2k` action values into `action`.
    fn head_action(&self, raw: &[f32], action: &mut [f32]) {
        let k = self.k();
        let beta = self.cfg.sigma_beta;
        for i in 0..k {
            let mu = raw[i].tanh();
            action[i] = mu;
            action[k + i] = beta * sigmoid(raw[k + i]) * (mu.abs() + SIGMA_FLOOR);
        }
    }

    /// [`Self::head_action`] plus what [`Self::head_backward`] needs.
    fn head_forward(&self, raw: &[f32]) -> (Vec<f32>, HeadCache) {
        let k = self.k();
        let mut action = vec![0.0f32; 2 * k];
        self.head_action(raw, &mut action);
        let cache = HeadCache {
            mu: action[..k].to_vec(),
            sig: raw[k..2 * k].iter().map(|&r| sigmoid(r)).collect(),
        };
        (action, cache)
    }

    /// Back-propagate `grad_action` through the head, producing the
    /// gradient w.r.t. the raw policy output.
    fn head_backward(&self, cache: &HeadCache, grad_action: &[f32]) -> Vec<f32> {
        let k = self.k();
        let beta = self.cfg.sigma_beta;
        let mut grad_raw = vec![0.0f32; 2 * k];
        for i in 0..k {
            let mu = cache.mu[i];
            let s = cache.sig[i];
            let dmu_draw = 1.0 - mu * mu; // tanh'
            let dsig_draw = s * (1.0 - s); // sigmoid'
            let g_mu = grad_action[i];
            let g_sigma = grad_action[k + i];
            // σ = β·s·(|μ|+ε): both raw_μ (through |μ|) and raw_σ feed σ.
            grad_raw[i] = g_mu * dmu_draw + g_sigma * beta * s * mu.signum() * dmu_draw;
            grad_raw[k + i] = g_sigma * beta * dsig_draw * (mu.abs() + SIGMA_FLOOR);
        }
        grad_raw
    }

    /// Policy decision for one state. With `explore` the raw output is
    /// perturbed by Gaussian noise (Algorithm 2, line 14: `π(s) + ε`).
    /// Returns the `(μ…, σ…)` action vector.
    pub fn act(&mut self, state: &[f32], explore: bool) -> Vec<f32> {
        assert_eq!(
            state.len(),
            self.cfg.state_dim,
            "state length {} != state_dim {}",
            state.len(),
            self.cfg.state_dim
        );
        let x = Tensor::from_vec(&[1, state.len()], state.to_vec());
        let mut raw = self.policy.forward(&x, false).into_vec();
        if explore && self.cfg.exploration_noise > 0.0 {
            let std = self.cfg.exploration_noise * self.noise_scale;
            for v in raw.iter_mut() {
                *v += self.rng.normal_f32(0.0, std);
            }
            self.noise_scale *= self.cfg.exploration_decay;
        }
        let mut action = vec![0.0f32; self.cfg.action_dim];
        self.head_action(&raw, &mut action);
        action
    }

    /// Store a transition.
    pub fn remember(&mut self, exp: Experience) {
        debug_assert_eq!(exp.state.len(), self.cfg.state_dim);
        debug_assert_eq!(exp.action.len(), self.cfg.action_dim);
        debug_assert_eq!(exp.next_state.len(), self.cfg.state_dim);
        assert!(
            exp.reward.is_finite(),
            "non-finite reward {} pushed to replay buffer",
            exp.reward
        );
        self.buffer.push(exp);
    }

    /// Critic estimate `Q(s, a)` (inference mode).
    pub fn q_value(&mut self, state: &[f32], action: &[f32]) -> f32 {
        let mut input = Vec::with_capacity(state.len() + action.len());
        input.extend_from_slice(state);
        input.extend_from_slice(action);
        let x = Tensor::from_vec(&[1, input.len()], input);
        self.value.forward(&x, false).data()[0]
    }

    /// Batched critic forward over (state, action) rows; `train` keeps the
    /// caches a backward pass needs, and only a pass that back-propagates
    /// asks for them.
    fn q_batch(value: &mut Sequential, states: &Tensor, actions: &Tensor, train: bool) -> Tensor {
        let (b, sd, ad) = (states.rows(), states.cols(), actions.cols());
        let mut input = Vec::with_capacity(b * (sd + ad));
        for (s, a) in states
            .data()
            .chunks_exact(sd)
            .zip(actions.data().chunks_exact(ad))
        {
            input.extend_from_slice(s);
            input.extend_from_slice(a);
        }
        value.forward(&Tensor::from_vec(&[b, sd + ad], input), train)
    }

    /// TD priorities `|r + γ·Q(s′, a′_targ) − Q(s, a)|` for every stored
    /// experience (Algorithm 1, line 1).
    fn compute_priorities(&mut self) -> Vec<f32> {
        let n = self.buffer.len();
        let sd = self.cfg.state_dim;
        let ad = self.cfg.action_dim;
        let mut states = Tensor::zeros(&[n, sd]);
        let mut actions = Tensor::zeros(&[n, ad]);
        let mut next_states = Tensor::zeros(&[n, sd]);
        let mut rewards = Vec::with_capacity(n);
        for (r, exp) in self.buffer.iter().enumerate() {
            states.row_mut(r).copy_from_slice(&exp.state);
            actions.row_mut(r).copy_from_slice(&exp.action);
            next_states.row_mut(r).copy_from_slice(&exp.next_state);
            rewards.push(exp.reward);
        }
        // a′ from the target policy, Q′ from the target critic.
        let raw_next = self.policy_target.forward(&next_states, false);
        let mut next_actions = Tensor::zeros(&[n, ad]);
        for r in 0..n {
            self.head_action(raw_next.row(r), next_actions.row_mut(r));
        }
        let q_next = Self::q_batch(&mut self.value_target, &next_states, &next_actions, false);
        let q_cur = Self::q_batch(&mut self.value, &states, &actions, false);
        (0..n)
            .map(|r| (rewards[r] + self.cfg.gamma * q_next.data()[r] - q_cur.data()[r]).abs())
            .collect()
    }

    /// One training invocation: TD-prioritize the buffer, then perform
    /// `updates_per_round` critic + actor updates with soft target syncs
    /// (Algorithm 1). Returns `None` while the buffer is below `warmup`.
    pub fn train(&mut self) -> Option<TrainStats> {
        if self.buffer.len() < self.cfg.warmup.max(1) {
            return None;
        }
        // Priorities hold for the whole call, so the ranking does too. The
        // uniform-replay ablation ranks nothing: every batch draws each
        // stored transition with equal probability.
        let ranks = self.cfg.prioritized_replay.then(|| {
            let priorities = self.compute_priorities();
            self.buffer.rank(&priorities)
        });
        let mut stats = TrainStats::default();
        for _ in 0..self.cfg.updates_per_round {
            let (value_loss, mean_q) = self.one_update(ranks.as_ref());
            stats.value_loss += value_loss;
            stats.mean_q += mean_q;
            stats.updates += 1;
        }
        let n = stats.updates.max(1) as f32;
        stats.value_loss /= n;
        stats.mean_q /= n;
        Some(stats)
    }

    /// Single critic + actor update on one batch: prioritized under
    /// `ranks`, uniform without.
    fn one_update(&mut self, ranks: Option<&PriorityRanks>) -> (f32, f32) {
        let b = self.cfg.batch_size.min(self.buffer.len());
        let sd = self.cfg.state_dim;
        let ad = self.cfg.action_dim;
        // --- Sample prioritized batch and densify.
        let mut states = Tensor::zeros(&[b, sd]);
        let mut actions = Tensor::zeros(&[b, ad]);
        let mut next_states = Tensor::zeros(&[b, sd]);
        let mut rewards = Vec::with_capacity(b);
        {
            let batch = match ranks {
                Some(ranks) => self.buffer.sample_ranked(b, ranks, &mut self.rng),
                None => self.buffer.sample_uniform(b, &mut self.rng),
            };
            for (r, exp) in batch.iter().enumerate() {
                states.row_mut(r).copy_from_slice(&exp.state);
                actions.row_mut(r).copy_from_slice(&exp.action);
                next_states.row_mut(r).copy_from_slice(&exp.next_state);
                rewards.push(exp.reward);
            }
        }

        // --- Critic targets: y = r + γ Q′(s′, π′(s′))  (Algorithm 1 l.5).
        let raw_next = self.policy_target.forward(&next_states, false);
        let mut next_actions = Tensor::zeros(&[b, ad]);
        for r in 0..b {
            self.head_action(raw_next.row(r), next_actions.row_mut(r));
        }
        let q_next = Self::q_batch(&mut self.value_target, &next_states, &next_actions, false);
        let targets = Tensor::from_vec(
            &[b, 1],
            (0..b)
                .map(|r| rewards[r] + self.cfg.gamma * q_next.data()[r])
                .collect(),
        );

        // --- Critic descent on MSE (Algorithm 1 l.6).
        let q = Self::q_batch(&mut self.value, &states, &actions, true);
        let (value_loss, grad) = feddrl_nn::loss::mse(&q, &targets);
        self.value.zero_grad();
        self.value.backward_params(&grad);
        self.value_opt.step(&mut self.value);

        // --- Actor ascent on Q(s, π(s)) (Algorithm 1 l.7): fold the ascent
        // sign into the critic's input gradient, the one gradient of the
        // critic this pass needs.
        let raw = self.policy.forward(&states, true);
        let mut pol_actions = Tensor::zeros(&[b, ad]);
        let mut caches = Vec::with_capacity(b);
        for r in 0..b {
            let (a, cache) = self.head_forward(raw.row(r));
            pol_actions.row_mut(r).copy_from_slice(&a);
            caches.push(cache);
        }
        let q_pol = Self::q_batch(&mut self.value, &states, &pol_actions, true);
        let mean_q = q_pol.mean();
        // dL/dq = −1/b  (maximize mean Q).
        let grad_q = Tensor::full(&[b, 1], -1.0 / b as f32);
        let grad_input = self.value.backward_input(&grad_q);
        let mut grad_raw = Tensor::zeros(&[b, ad]);
        for (r, cache) in caches.iter().enumerate().take(b) {
            let g_action = &grad_input.row(r)[sd..];
            let g_raw = self.head_backward(cache, g_action);
            grad_raw.row_mut(r).copy_from_slice(&g_raw);
        }
        self.policy.zero_grad();
        self.policy.backward_params(&grad_raw);
        self.policy_opt.step(&mut self.policy);

        // --- Soft target sync (Algorithm 1 l.8–9).
        self.soft_update_targets();
        (value_loss, mean_q)
    }

    /// `target ← (1−τ)·target + τ·main` for both network pairs, in place:
    /// each target tensor beside its main twin.
    pub fn soft_update_targets(&mut self) {
        let tau = self.cfg.tau;
        for (main, target) in [
            (&self.policy, &mut self.policy_target),
            (&self.value, &mut self.value_target),
        ] {
            let mut mains = main.layers().iter().flat_map(|layer| layer.params());
            target.visit_params(|_, t, _| {
                let m = mains.next().expect("target and main share a topology");
                for (t, &m) in t.data_mut().iter_mut().zip(m.data()) {
                    *t = (1.0 - tau) * *t + tau * m;
                }
            });
        }
    }

    /// Flat parameters of the main policy (tests / checkpointing).
    pub fn policy_params(&self) -> Vec<f32> {
        self.policy.flat_params()
    }

    /// Flat parameters of the target policy.
    pub fn target_policy_params(&self) -> Vec<f32> {
        self.policy_target.flat_params()
    }

    /// Flat parameters of the main value network.
    pub fn value_params(&self) -> Vec<f32> {
        self.value.flat_params()
    }

    /// Flat parameters of the target value network.
    pub fn target_value_params(&self) -> Vec<f32> {
        self.value_target.flat_params()
    }

    /// Overwrite all four networks from flat parameter vectors (used by
    /// checkpoint restore).
    ///
    /// # Panics
    /// Panics if any vector length mismatches the config's topology.
    pub fn set_network_params(
        &mut self,
        policy: &[f32],
        policy_target: &[f32],
        value: &[f32],
        value_target: &[f32],
    ) {
        self.policy.set_flat_params(policy);
        self.policy_target.set_flat_params(policy_target);
        self.value.set_flat_params(value);
        self.value_target.set_flat_params(value_target);
    }
}

/// Sample impact factors from the `(μ…, σ…)` action: `α = softmax(z)`,
/// `z_k ~ N(μ_k, σ_k)` (paper Eq. 5).
pub fn sample_impact_factors(mu_sigma: &[f32], rng: &mut Rng64) -> Vec<f32> {
    assert!(
        mu_sigma.len() >= 2 && mu_sigma.len().is_multiple_of(2),
        "action must hold K means + K std-devs"
    );
    let k = mu_sigma.len() / 2;
    let z: Vec<f32> = (0..k)
        .map(|i| rng.normal_f32(mu_sigma[i], mu_sigma[k + i].max(0.0)))
        .collect();
    softmax(&z)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> DdpgConfig {
        DdpgConfig {
            state_dim: 6,
            action_dim: 4,
            hidden: 32,
            batch_size: 8,
            warmup: 8,
            updates_per_round: 2,
            policy_lr: 1e-3,
            value_lr: 1e-2,
            ..Default::default()
        }
    }

    #[test]
    fn act_produces_bounded_mu_and_constrained_sigma() {
        let mut agent = DdpgAgent::new(small_cfg());
        let action = agent.act(&[0.1, -0.2, 0.3, 0.0, 1.0, -1.0], false);
        assert_eq!(action.len(), 4);
        let beta = agent.config().sigma_beta;
        for i in 0..2 {
            let mu = action[i];
            let sigma = action[2 + i];
            assert!((-1.0..=1.0).contains(&mu), "mu out of tanh range: {mu}");
            assert!(sigma >= 0.0);
            assert!(
                sigma <= beta * (mu.abs() + SIGMA_FLOOR) + 1e-6,
                "Eq.6 violated: sigma {sigma} > beta*|mu| {}",
                beta * mu.abs()
            );
        }
    }

    #[test]
    fn exploration_noise_changes_actions() {
        let mut agent = DdpgAgent::new(small_cfg());
        let s = [0.5; 6];
        let quiet = agent.act(&s, false);
        let quiet2 = agent.act(&s, false);
        assert_eq!(quiet, quiet2, "deterministic act must be repeatable");
        let noisy = agent.act(&s, true);
        assert_ne!(quiet, noisy, "exploration left the action unchanged");
    }

    #[test]
    fn head_backward_matches_finite_difference() {
        let agent = DdpgAgent::new(small_cfg());
        let raw = vec![0.3f32, -0.7, 0.2, 0.9];
        let (_, cache) = agent.head_forward(&raw);
        // Random seed gradient on the action.
        let g_action = vec![0.7f32, -0.4, 1.3, 0.2];
        let grad = agent.head_backward(&cache, &g_action);
        let eps = 1e-3f32;
        for i in 0..raw.len() {
            let mut rp = raw.clone();
            rp[i] += eps;
            let mut rm = raw.clone();
            rm[i] -= eps;
            let (ap, _) = agent.head_forward(&rp);
            let (am, _) = agent.head_forward(&rm);
            let fp: f32 = ap.iter().zip(&g_action).map(|(a, g)| a * g).sum();
            let fm: f32 = am.iter().zip(&g_action).map(|(a, g)| a * g).sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - grad[i]).abs() < 2e-3,
                "head grad mismatch at {i}: {numeric} vs {}",
                grad[i]
            );
        }
    }

    #[test]
    fn train_requires_warmup() {
        let mut agent = DdpgAgent::new(small_cfg());
        assert!(agent.train().is_none());
        for i in 0..8 {
            agent.remember(Experience {
                state: vec![i as f32 / 8.0; 6],
                action: vec![0.0; 4],
                reward: -1.0,
                next_state: vec![(i + 1) as f32 / 8.0; 6],
            });
        }
        let stats = agent.train().expect("buffer warmed up");
        assert_eq!(stats.updates, 2);
        assert!(stats.value_loss.is_finite());
    }

    #[test]
    fn critic_learns_constant_reward_value() {
        // With reward always c and gamma-discounting, Q should approach
        // c/(1−γ) at convergence; in a short run it must at least move
        // toward positive values from its near-zero init.
        let mut cfg = small_cfg();
        cfg.gamma = 0.0; // makes the fixed point exactly the reward
        cfg.updates_per_round = 50;
        let mut agent = DdpgAgent::new(cfg);
        let mut rng = Rng64::new(5);
        for _ in 0..64 {
            let s: Vec<f32> = (0..6).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let a: Vec<f32> = (0..4).map(|_| rng.uniform(-0.5, 0.5)).collect();
            agent.remember(Experience {
                state: s.clone(),
                action: a,
                reward: 2.0,
                next_state: s,
            });
        }
        for _ in 0..40 {
            agent.train().unwrap();
        }
        let q = agent.q_value(&[0.0; 6], &[0.0; 4]);
        assert!(
            (q - 2.0).abs() < 0.5,
            "critic failed to learn constant reward: q = {q}"
        );
    }

    #[test]
    fn policy_moves_toward_higher_q_actions() {
        // Reward = mean of the action's μ components → the policy should
        // push μ upward once the critic has learned the pattern.
        let mut cfg = small_cfg();
        cfg.gamma = 0.0;
        cfg.updates_per_round = 30;
        cfg.exploration_noise = 0.3;
        let mut agent = DdpgAgent::new(cfg);
        let state = vec![0.2f32; 6];
        let mu_before: f32 = agent.act(&state, false)[..2].iter().sum::<f32>() / 2.0;
        let mut rng = Rng64::new(9);
        for _ in 0..200 {
            let mut action = agent.act(&state, true);
            // Clamp into the head's reachable set.
            for v in action.iter_mut().take(2) {
                *v = v.clamp(-0.999, 0.999);
            }
            let reward = (action[0] + action[1]) / 2.0 + rng.normal_f32(0.0, 0.01);
            agent.remember(Experience {
                state: state.clone(),
                action,
                reward,
                next_state: state.clone(),
            });
        }
        for _ in 0..30 {
            agent.train().unwrap();
        }
        let mu_after: f32 = agent.act(&state, false)[..2].iter().sum::<f32>() / 2.0;
        assert!(
            mu_after > mu_before + 0.05,
            "policy did not ascend: {mu_before} -> {mu_after}"
        );
    }

    /// The in-place sync is the flat formula bit for bit, on both pairs.
    #[test]
    fn soft_update_moves_target_by_tau() {
        let mut agent = DdpgAgent::new(small_cfg());
        // Perturb both mains, so every target scalar moves.
        let mut rng = Rng64::new(12);
        let mut perturb = |flat: Vec<f32>| -> Vec<f32> {
            flat.into_iter()
                .map(|v| v + rng.normal_f32(0.0, 1.0))
                .collect()
        };
        let policy = perturb(agent.policy_params());
        let value = perturb(agent.value_params());
        agent.policy.set_flat_params(&policy);
        agent.value.set_flat_params(&value);
        let before = [agent.target_policy_params(), agent.target_value_params()];
        agent.soft_update_targets();
        let after = [agent.target_policy_params(), agent.target_value_params()];
        let tau = agent.config().tau;
        for ((before, after), main) in before.iter().zip(&after).zip([&policy, &value]) {
            let want: Vec<u32> = before
                .iter()
                .zip(main)
                .map(|(&t, &m)| ((1.0 - tau) * t + tau * m).to_bits())
                .collect();
            let got: Vec<u32> = after.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn impact_factors_on_simplex_and_respond_to_mu() {
        let mut rng = Rng64::new(11);
        // Client 0 has much higher mean → should usually dominate.
        let action = vec![0.9, -0.9, -0.9, 0.001, 0.001, 0.001];
        let mut wins = 0;
        for _ in 0..200 {
            let alpha = sample_impact_factors(&action, &mut rng);
            assert_eq!(alpha.len(), 3);
            assert!((alpha.iter().sum::<f32>() - 1.0).abs() < 1e-5);
            assert!(alpha.iter().all(|&a| (0.0..=1.0).contains(&a)));
            if alpha[0] > alpha[1] && alpha[0] > alpha[2] {
                wins += 1;
            }
        }
        assert!(wins > 190, "high-mu client won only {wins}/200 draws");
    }

    #[test]
    #[should_panic(expected = "non-finite reward")]
    fn rejects_nan_reward() {
        let mut agent = DdpgAgent::new(small_cfg());
        agent.remember(Experience {
            state: vec![0.0; 6],
            action: vec![0.0; 4],
            reward: f32::NAN,
            next_state: vec![0.0; 6],
        });
    }
}

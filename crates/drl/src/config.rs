//! DDPG hyper-parameters (paper Table 1).

use serde::{Deserialize, Serialize};

/// Configuration of the DDPG agent.
///
/// Defaults reproduce the paper's Table 1 exactly; `state_dim`/`action_dim`
/// are supplied by the embedding application (FedDRL uses `3K` and `2K` for
/// `K` participating clients).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DdpgConfig {
    /// Dimensionality of the observation vector.
    pub state_dim: usize,
    /// Dimensionality of the action vector.
    pub action_dim: usize,
    /// Fully-connected layers in the policy network (Table 1: 3).
    pub policy_layers: usize,
    /// Hidden layers in the value network (Table 1: 2).
    pub value_hidden_layers: usize,
    /// Width of every hidden layer (Table 1: 256).
    pub hidden: usize,
    /// Policy learning rate (Table 1: 1e-4).
    pub policy_lr: f32,
    /// Value learning rate (Table 1: 1e-3).
    pub value_lr: f32,
    /// Replay buffer capacity (Table 1: 100 000).
    pub buffer_capacity: usize,
    /// Discount factor γ (Table 1: 0.99).
    pub gamma: f32,
    /// Soft main→target transfer fraction (Table 1's ρ = 0.02, read as the
    /// standard DDPG τ; docs/REPRODUCING.md, "Deviations from the paper",
    /// discusses the paper's ambiguous update direction).
    pub tau: f32,
    /// Mini-batch size for replay updates.
    pub batch_size: usize,
    /// Gradient updates per training invocation (Algorithm 1's `B`).
    pub updates_per_round: usize,
    /// Minimum experiences in the buffer before training starts
    /// (Algorithm 2's "if D is sufficient").
    pub warmup: usize,
    /// Std-dev of the Gaussian exploration noise ε added to the policy
    /// output while acting online (Algorithm 2, line 14).
    pub exploration_noise: f32,
    /// Multiplicative decay applied to the exploration noise after every
    /// explored action (1.0 = constant noise, the paper's implicit
    /// setting; scaled-down profiles anneal noise to exploit sooner).
    pub exploration_decay: f32,
    /// The paper's Eq. 6 stability constraint `σ ≤ β·μ`: the σ head is
    /// squashed into `[0, β·|μ|]` (β ∈ (0, 1], paper leaves the value
    /// unspecified; 0.2 ablated in `exp_paper -- ablation`).
    pub sigma_beta: f32,
    /// Use the paper's TD-prioritized replay sampling; `false` falls back
    /// to uniform sampling (`exp_paper -- ablation`).
    pub prioritized_replay: bool,
    /// Seed for network init, exploration and replay sampling.
    pub seed: u64,
}

impl Default for DdpgConfig {
    fn default() -> Self {
        Self {
            state_dim: 30,
            action_dim: 20,
            policy_layers: 3,
            value_hidden_layers: 2,
            hidden: 256,
            policy_lr: 1e-4,
            value_lr: 1e-3,
            buffer_capacity: 100_000,
            gamma: 0.99,
            tau: 0.02,
            batch_size: 64,
            updates_per_round: 4,
            warmup: 16,
            exploration_noise: 0.1,
            exploration_decay: 1.0,
            sigma_beta: 0.2,
            prioritized_replay: true,
            seed: 0xDD9,
        }
    }
}

impl DdpgConfig {
    /// Validate ranges; called by the agent constructor.
    pub fn validate(&self) {
        assert!(self.state_dim > 0, "state_dim must be positive");
        assert!(
            self.action_dim > 0 && self.action_dim.is_multiple_of(2),
            "action_dim must be positive and even (means + std-devs), got {}",
            self.action_dim
        );
        assert!(self.policy_layers >= 2, "policy needs >= 2 layers");
        assert!(self.hidden > 0, "hidden width must be positive");
        assert!(
            (0.0..1.0).contains(&self.gamma) || self.gamma == 1.0 - f32::EPSILON,
            "gamma must be in [0,1), got {}",
            self.gamma
        );
        assert!((0.0..=1.0).contains(&self.tau), "tau must be in [0,1]");
        assert!(self.batch_size > 0, "batch_size must be positive");
        assert!(
            self.buffer_capacity >= self.batch_size,
            "buffer capacity smaller than batch size"
        );
        assert!(
            self.exploration_decay > 0.0 && self.exploration_decay <= 1.0,
            "exploration_decay must be in (0,1], got {}",
            self.exploration_decay
        );
        assert!(
            self.sigma_beta > 0.0 && self.sigma_beta <= 1.0,
            "sigma_beta must be in (0,1], got {}",
            self.sigma_beta
        );
    }

    /// Render the Table 1 hyper-parameter block as printable rows.
    pub fn table1_rows(&self) -> Vec<(String, String)> {
        vec![
            ("pi-network's #layer".into(), self.policy_layers.to_string()),
            (
                "Q-network's #layer".into(),
                (self.value_hidden_layers + 1).to_string(),
            ),
            ("Hidden layer size".into(), self.hidden.to_string()),
            (
                "pi-network learning rate".into(),
                format!("{}", self.policy_lr),
            ),
            (
                "Q-network learning rate".into(),
                format!("{}", self.value_lr),
            ),
            (
                "Experience buffer size".into(),
                self.buffer_capacity.to_string(),
            ),
            ("Discount factor gamma".into(), format!("{}", self.gamma)),
            (
                "Soft main-target update factor rho".into(),
                format!("{}", self.tau),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_table1() {
        let cfg = DdpgConfig::default();
        assert_eq!(cfg.policy_layers, 3);
        assert_eq!(cfg.value_hidden_layers, 2);
        assert_eq!(cfg.hidden, 256);
        assert_eq!(cfg.policy_lr, 1e-4);
        assert_eq!(cfg.value_lr, 1e-3);
        assert_eq!(cfg.buffer_capacity, 100_000);
        assert_eq!(cfg.gamma, 0.99);
        assert_eq!(cfg.tau, 0.02);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn validate_rejects_odd_action_dim() {
        let cfg = DdpgConfig {
            action_dim: 3,
            ..Default::default()
        };
        cfg.validate();
    }

    #[test]
    fn table1_rows_cover_all_hyperparameters() {
        let rows = DdpgConfig::default().table1_rows();
        assert_eq!(rows.len(), 8);
        assert!(rows
            .iter()
            .any(|(k, v)| k.contains("buffer") && v == "100000"));
    }

    #[test]
    fn serde_roundtrip() {
        let cfg = DdpgConfig {
            state_dim: 15,
            action_dim: 10,
            ..Default::default()
        };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: DdpgConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}

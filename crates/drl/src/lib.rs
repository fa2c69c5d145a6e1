//! # feddrl-drl — the DDPG substrate of FedDRL
//!
//! A from-scratch deep-deterministic-policy-gradient implementation
//! matching the paper's §3.4 description and Table 1 configuration:
//!
//! * [`config::DdpgConfig`] — Table 1 hyper-parameters with validation;
//! * [`buffer::ReplayBuffer`] — experience store with the paper's
//!   temporal-difference prioritization (Algorithm 1, lines 1–2);
//! * [`ddpg::DdpgAgent`] — main/target policy and value networks, soft
//!   updates, exploration noise, and the analytic `(μ, σ)` action head
//!   enforcing Eq. 6's `σ ≤ β·μ` constraint;
//! * [`ddpg::sample_impact_factors`] — Eq. 5's
//!   `α = softmax(z), z ~ N(μ, σ)`;
//! * [`reward`] — Eq. 7's accuracy + fairness reward (sign-corrected, see
//!   docs/REPRODUCING.md, "Deviations from the paper").
//!
//! The crate is deliberately independent of federated learning: it consumes
//! abstract state/action vectors, so it can be tested on synthetic control
//! problems (see the unit tests) and reused outside the FL context.

#![warn(missing_docs)]

pub mod buffer;
pub mod checkpoint;
pub mod config;
pub mod ddpg;
pub mod reward;

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::buffer::{Experience, ReplayBuffer};
    pub use crate::checkpoint::AgentCheckpoint;
    pub use crate::config::DdpgConfig;
    pub use crate::ddpg::{sample_impact_factors, DdpgAgent, TrainStats};
    pub use crate::reward::{reward_from_losses, reward_terms, RewardTerms};
}

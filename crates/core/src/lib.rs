//! # feddrl — Deep Reinforcement Learning-based Adaptive Aggregation for
//! Non-IID Federated Learning
//!
//! Rust reproduction of *FedDRL* (Nguyen et al., ICPP 2022,
//! arXiv:2208.02442). The server's aggregation weights — the *impact
//! factors* of paper Eq. 4 — are chosen by a DDPG agent instead of a fixed
//! rule, letting the federation adapt to arbitrary non-IID structure, in
//! particular the paper's novel *cluster-skew* distributions.
//!
//! This crate composes the substrates into the paper's system:
//!
//! * [`state`] — the `3K` observation of §3.3.2 (losses before/after local
//!   training + sample counts);
//! * [`strategy::FedDrl`] — the aggregation strategy (Figure 2 steps 4–5)
//!   implementing `feddrl_fl::strategy::Strategy`;
//! * [`two_stage`] — the §3.4.2 two-stage (online workers → offline main
//!   agent) training procedure;
//! * [`runner`] — end-to-end orchestration used by the experiment harness.
//!
//! ## Quickstart
//!
//! ```
//! use feddrl::prelude::*;
//!
//! // Synthetic cluster-skew federation: 6 clients, main group δ = 0.6.
//! let (train, test) = SynthSpec { train_size: 600, test_size: 150,
//!     ..SynthSpec::mnist_like() }.generate(1);
//! let partition = PartitionMethod::ce(0.6)
//!     .partition(&train, 6, &mut Rng64::new(2)).unwrap();
//! let spec = ModelSpec::Mlp { in_dim: train.feature_dim(),
//!     hidden: vec![16], out_dim: train.num_classes() };
//! let fl = FlConfig { rounds: 3, participants: 6, ..Default::default() };
//! let run = try_run_feddrl(&spec, &train, &test, &partition, &fl,
//!     &FedDrlRunConfig::default(), "synthetic").expect("valid config");
//! assert_eq!(run.history.records.len(), 3);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod runner;
pub mod state;
pub mod strategy;
pub mod two_stage;

/// One-stop import for applications: FedDRL types plus the substrate
/// preludes they are used with.
pub mod prelude {
    pub use crate::config::FedDrlConfig;
    pub use crate::runner::{try_run_feddrl, FedDrlRun, FedDrlRunConfig};
    pub use crate::state::build_state;
    pub use crate::strategy::FedDrl;
    pub use crate::two_stage::{two_stage_train, TwoStageConfig, TwoStageReport};
    pub use feddrl_data::prelude::*;
    pub use feddrl_drl::prelude::*;
    pub use feddrl_fl::prelude::*;
    pub use feddrl_nn::prelude::*;
}

//! Hashed tables keyed by client id, [`IdSet`] and [`IdMap`], for the
//! per-client tables executors and selection policies probe every round.
//!
//! They are defined, with their one fixed hasher, in [`feddrl_nn::ids`]:
//! the client sampler under every selection policy
//! ([`Rng64::sample_indices`](feddrl_nn::rng::Rng64::sample_indices))
//! hashes ids with the same hasher, and this crate depends on that one.

pub use feddrl_nn::ids::{IdMap, IdSet};

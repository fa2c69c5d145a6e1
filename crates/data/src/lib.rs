//! # feddrl-data — federated datasets and non-IID partitioners
//!
//! The data substrate of the FedDRL (ICPP'22) reproduction:
//!
//! * [`dataset::Dataset`] — shared in-memory training/test sets that
//!   clients index into;
//! * [`synth`] — seeded synthetic stand-ins for MNIST / Fashion-MNIST /
//!   CIFAR-100 (docs/REPRODUCING.md, "Deviations from the paper", gives
//!   the substitution rationale);
//! * [`partition`] — every partitioning scheme of the paper: Pareto (PA),
//!   the novel cluster-skew Clustered-Equal/Non-Equal (CE/CN), FedAvg's
//!   Equal/Non-equal shards, and IID;
//! * [`stats`] — skew statistics that *derive* the paper's Table 2 and
//!   render Figure 4's bubble matrices.
//!
//! ## Example
//!
//! ```
//! use feddrl_data::prelude::*;
//! use feddrl_nn::rng::Rng64;
//!
//! let (train, _test) = SynthSpec::mnist_like().generate(42);
//! let partition = PartitionMethod::ce(0.6)
//!     .partition(&train, 10, &mut Rng64::new(7))
//!     .expect("partition");
//! let stats = PartitionStats::compute(&partition, &train);
//! assert!(stats.has_cluster_skew());
//! ```

#![warn(missing_docs)]

pub mod dataset;
pub mod partition;
pub mod stats;
pub mod synth;

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::dataset::Dataset;
    pub use crate::partition::{Partition, PartitionError, PartitionMethod};
    pub use crate::stats::PartitionStats;
    pub use crate::synth::{LabelPopularity, SynthSpec};
}

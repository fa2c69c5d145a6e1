//! Non-IID data partitioners.
//!
//! Implements every client-partitioning scheme evaluated in the paper
//! (Table 2, §4.1.1 and §5.1):
//!
//! * **PA** — Pareto label-skew: fixed labels per client, per-label sample
//!   counts following a power law ([12, 13]);
//! * **CE** — *Clustered-Equal*, the paper's novel cluster-skew: label
//!   clusters owned by client groups, one "main" group holding `δ·N`
//!   clients, equal samples per client;
//! * **CN** — *Clustered-Non-Equal*: CE plus power-law quantity skew;
//! * **Equal / Non-equal shards** — FedAvg's label-size-imbalance splits
//!   (\[17\], §5.1);
//! * **IID** — uniform reference split.
//!
//! A [`Partition`] is a list of disjoint index sets into one shared
//! training [`Dataset`] plus optional group metadata. All methods are
//! deterministic given the caller's [`Rng64`].

mod cluster;
mod iid;
mod pareto;
mod shards;

use crate::dataset::Dataset;
use feddrl_nn::rng::Rng64;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors raised when a partition request cannot be satisfied.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionError {
    /// Zero clients requested.
    NoClients,
    /// The dataset has fewer samples than clients.
    NotEnoughSamples {
        /// Samples available.
        samples: usize,
        /// Clients requested.
        clients: usize,
    },
    /// A method parameter is outside its valid range.
    BadParameter(String),
    /// The label space is too small for the requested scheme.
    NotEnoughLabels {
        /// Labels available.
        labels: usize,
        /// Labels needed.
        needed: usize,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::NoClients => write!(f, "cannot partition for zero clients"),
            PartitionError::NotEnoughSamples { samples, clients } => write!(
                f,
                "dataset has {samples} samples but {clients} clients were requested"
            ),
            PartitionError::BadParameter(msg) => write!(f, "bad partition parameter: {msg}"),
            PartitionError::NotEnoughLabels { labels, needed } => {
                write!(f, "scheme needs {needed} labels but dataset has {labels}")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// A partitioning scheme with its parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PartitionMethod {
    /// Uniform IID split (reference).
    Iid,
    /// Pareto label-skew (paper "PA").
    Pareto {
        /// Distinct labels held by each client (2 for 10-class sets, 20 for
        /// CIFAR-100 per §4.1.1).
        labels_per_client: usize,
        /// Power-law exponent for per-label client shares.
        alpha: f64,
    },
    /// Clustered-Equal cluster-skew (paper "CE").
    ClusteredEqual {
        /// Fraction of clients in the main group (paper's δ, default 0.6).
        delta: f64,
        /// Number of client groups / label clusters (Figure 1 uses 3).
        num_groups: usize,
        /// Distinct labels per client.
        labels_per_client: usize,
    },
    /// Clustered-Non-Equal cluster-skew (paper "CN"): CE + quantity skew.
    ClusteredNonEqual {
        /// Fraction of clients in the main group.
        delta: f64,
        /// Number of client groups / label clusters.
        num_groups: usize,
        /// Distinct labels per client.
        labels_per_client: usize,
        /// Power-law exponent for per-client sample counts.
        alpha: f64,
    },
    /// FedAvg label-size-imbalance, equal variant (§5.1 "Equal"):
    /// `shards_per_client × N` sorted shards, fixed shards per client.
    ShardsEqual {
        /// Shards per client (paper uses 2).
        shards_per_client: usize,
    },
    /// FedAvg label-size-imbalance, non-equal variant (§5.1 "Non-equal"):
    /// `10 N` sorted shards, each client drawing a random shard count.
    ShardsNonEqual {
        /// Minimum shards per client (paper: 6).
        min_shards: usize,
        /// Maximum shards per client (paper: 14).
        max_shards: usize,
    },
}

impl PartitionMethod {
    /// Paper-default PA for a 10-class dataset (2 labels/client).
    pub fn pa() -> Self {
        PartitionMethod::Pareto {
            labels_per_client: 2,
            alpha: 1.2,
        }
    }

    /// Paper-default PA for CIFAR-100 (20 labels/client).
    pub fn pa_cifar100() -> Self {
        PartitionMethod::Pareto {
            labels_per_client: 20,
            alpha: 1.2,
        }
    }

    /// Paper-default CE with the given non-IID level δ.
    pub fn ce(delta: f64) -> Self {
        PartitionMethod::ClusteredEqual {
            delta,
            num_groups: 3,
            labels_per_client: 2,
        }
    }

    /// Paper-default CN with the given non-IID level δ.
    pub fn cn(delta: f64) -> Self {
        PartitionMethod::ClusteredNonEqual {
            delta,
            num_groups: 3,
            labels_per_client: 2,
            alpha: 1.2,
        }
    }

    /// CE variant sized for a 100-label dataset (20 labels/client).
    pub fn ce_cifar100(delta: f64) -> Self {
        PartitionMethod::ClusteredEqual {
            delta,
            num_groups: 3,
            labels_per_client: 20,
        }
    }

    /// CN variant sized for a 100-label dataset.
    pub fn cn_cifar100(delta: f64) -> Self {
        PartitionMethod::ClusteredNonEqual {
            delta,
            num_groups: 3,
            labels_per_client: 20,
            alpha: 1.2,
        }
    }

    /// Paper-default Equal shards (2·N shards, 2 per client).
    pub fn shards_equal() -> Self {
        PartitionMethod::ShardsEqual {
            shards_per_client: 2,
        }
    }

    /// Paper-default Non-equal shards (10·N shards, 6–14 per client).
    pub fn shards_non_equal() -> Self {
        PartitionMethod::ShardsNonEqual {
            min_shards: 6,
            max_shards: 14,
        }
    }

    /// Short code used in tables ("PA", "CE", …).
    pub fn code(&self) -> &'static str {
        match self {
            PartitionMethod::Iid => "IID",
            PartitionMethod::Pareto { .. } => "PA",
            PartitionMethod::ClusteredEqual { .. } => "CE",
            PartitionMethod::ClusteredNonEqual { .. } => "CN",
            PartitionMethod::ShardsEqual { .. } => "Equal",
            PartitionMethod::ShardsNonEqual { .. } => "Non-equal",
        }
    }

    /// Partition `dataset` across `n_clients` clients.
    pub fn partition(
        &self,
        dataset: &Dataset,
        n_clients: usize,
        rng: &mut Rng64,
    ) -> Result<Partition, PartitionError> {
        if n_clients == 0 {
            return Err(PartitionError::NoClients);
        }
        if dataset.len() < n_clients {
            return Err(PartitionError::NotEnoughSamples {
                samples: dataset.len(),
                clients: n_clients,
            });
        }
        let (client_indices, groups) = match self {
            PartitionMethod::Iid => (iid::split(dataset, n_clients, rng), None),
            PartitionMethod::Pareto {
                labels_per_client,
                alpha,
            } => (
                pareto::split(dataset, n_clients, *labels_per_client, *alpha, rng)?,
                None,
            ),
            PartitionMethod::ClusteredEqual {
                delta,
                num_groups,
                labels_per_client,
            } => {
                let (idx, groups) = cluster::split(
                    dataset,
                    n_clients,
                    *delta,
                    *num_groups,
                    *labels_per_client,
                    None,
                    rng,
                )?;
                (idx, Some(groups))
            }
            PartitionMethod::ClusteredNonEqual {
                delta,
                num_groups,
                labels_per_client,
                alpha,
            } => {
                let (idx, groups) = cluster::split(
                    dataset,
                    n_clients,
                    *delta,
                    *num_groups,
                    *labels_per_client,
                    Some(*alpha),
                    rng,
                )?;
                (idx, Some(groups))
            }
            PartitionMethod::ShardsEqual { shards_per_client } => (
                shards::split_equal(dataset, n_clients, *shards_per_client, rng)?,
                None,
            ),
            PartitionMethod::ShardsNonEqual {
                min_shards,
                max_shards,
            } => (
                shards::split_non_equal(dataset, n_clients, *min_shards, *max_shards, rng)?,
                None,
            ),
        };
        let partition = Partition {
            method: self.clone(),
            client_indices,
            groups,
        };
        partition.validate(dataset);
        Ok(partition)
    }
}

/// The result of partitioning: disjoint per-client index sets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Partition {
    method: PartitionMethod,
    client_indices: Vec<Vec<usize>>,
    /// Client → group id, for cluster-skew methods.
    groups: Option<Vec<usize>>,
}

impl Partition {
    /// The scheme that produced this partition.
    pub fn method(&self) -> &PartitionMethod {
        &self.method
    }

    /// Number of clients.
    pub fn n_clients(&self) -> usize {
        self.client_indices.len()
    }

    /// Index set of one client.
    pub fn client(&self, i: usize) -> &[usize] {
        &self.client_indices[i]
    }

    /// All index sets.
    pub fn clients(&self) -> &[Vec<usize>] {
        &self.client_indices
    }

    /// Per-client sample counts.
    pub fn sizes(&self) -> Vec<usize> {
        self.client_indices.iter().map(|c| c.len()).collect()
    }

    /// Group id per client for cluster-skew methods, `None` otherwise.
    pub fn groups(&self) -> Option<&[usize]> {
        self.groups.as_deref()
    }

    /// Debug-mode invariant check: indices are in-bounds, disjoint across
    /// clients, and every client is non-empty.
    fn validate(&self, dataset: &Dataset) {
        let mut seen = vec![false; dataset.len()];
        for (c, indices) in self.client_indices.iter().enumerate() {
            assert!(
                !indices.is_empty(),
                "partition invariant: client {c} received no samples"
            );
            for &i in indices {
                assert!(i < dataset.len(), "index {i} out of dataset bounds");
                assert!(!seen[i], "index {i} assigned to two clients");
                seen[i] = true;
            }
        }
    }
}

/// Split `pool` (a label's sample indices) among `want` shares; share `j`
/// receives a count proportional to `want[j]` with floors distributed so the
/// total never exceeds the pool. Shared by the PA/CE/CN implementations.
pub(crate) fn allocate_proportional(pool_len: usize, want: &[f64]) -> Vec<usize> {
    let total_w: f64 = want.iter().sum();
    if total_w <= 0.0 || pool_len == 0 {
        return vec![0; want.len()];
    }
    let mut alloc: Vec<usize> = want
        .iter()
        .map(|w| ((w / total_w) * pool_len as f64).floor() as usize)
        .collect();
    let used: usize = alloc.iter().sum();
    // Hand out the remainder to the largest fractional parts (stable order).
    let mut order: Vec<usize> = (0..want.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = (want[a] / total_w) * pool_len as f64 - alloc[a] as f64;
        let fb = (want[b] / total_w) * pool_len as f64 - alloc[b] as f64;
        fb.partial_cmp(&fa).unwrap_or(std::cmp::Ordering::Equal)
    });
    let spare = pool_len.saturating_sub(used);
    for &j in order.iter().take(spare) {
        alloc[j] += 1;
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SynthSpec;

    fn toy_dataset() -> Dataset {
        let spec = SynthSpec {
            name: "toy".into(),
            num_classes: 10,
            feature_dim: 4,
            train_size: 1000,
            test_size: 100,
            noise_std: 1.0,
            modes_per_class: 1,
            proto_scale: 1.0,
            popularity: crate::synth::LabelPopularity::Uniform,
        };
        spec.generate(5).0
    }

    #[test]
    fn all_methods_produce_valid_partitions() {
        let ds = toy_dataset();
        let methods = [
            PartitionMethod::Iid,
            PartitionMethod::pa(),
            PartitionMethod::ce(0.6),
            PartitionMethod::cn(0.6),
            PartitionMethod::shards_equal(),
            PartitionMethod::shards_non_equal(),
        ];
        for m in methods {
            let mut rng = Rng64::new(42);
            let p = m.partition(&ds, 10, &mut rng).unwrap_or_else(|e| {
                panic!("{} failed: {e}", m.code());
            });
            assert_eq!(p.n_clients(), 10);
            // validate() ran inside partition(); re-check coverage bound.
            let total: usize = p.sizes().iter().sum();
            assert!(total <= ds.len());
            assert!(
                total >= ds.len() / 2,
                "{}: wasted too many samples",
                m.code()
            );
        }
    }

    #[test]
    fn zero_clients_rejected() {
        let ds = toy_dataset();
        let mut rng = Rng64::new(1);
        assert_eq!(
            PartitionMethod::Iid.partition(&ds, 0, &mut rng),
            Err(PartitionError::NoClients)
        );
    }

    #[test]
    fn too_many_clients_rejected() {
        let ds = toy_dataset();
        let mut rng = Rng64::new(1);
        let err = PartitionMethod::Iid
            .partition(&ds, ds.len() + 1, &mut rng)
            .unwrap_err();
        assert!(matches!(err, PartitionError::NotEnoughSamples { .. }));
    }

    #[test]
    fn determinism_per_seed() {
        let ds = toy_dataset();
        let p1 = PartitionMethod::ce(0.6)
            .partition(&ds, 10, &mut Rng64::new(7))
            .unwrap();
        let p2 = PartitionMethod::ce(0.6)
            .partition(&ds, 10, &mut Rng64::new(7))
            .unwrap();
        assert_eq!(p1.clients(), p2.clients());
        let p3 = PartitionMethod::ce(0.6)
            .partition(&ds, 10, &mut Rng64::new(8))
            .unwrap();
        assert_ne!(p1.clients(), p3.clients());
    }

    #[test]
    fn allocate_proportional_conserves_pool() {
        let alloc = allocate_proportional(100, &[1.0, 2.0, 7.0]);
        assert_eq!(alloc.iter().sum::<usize>(), 100);
        assert!(alloc[2] > alloc[1] && alloc[1] > alloc[0]);
        // Degenerate cases.
        assert_eq!(allocate_proportional(0, &[1.0]), vec![0]);
        assert_eq!(allocate_proportional(10, &[]), Vec::<usize>::new());
    }

    #[test]
    fn partition_serde_roundtrip() {
        let ds = toy_dataset();
        let p = PartitionMethod::pa()
            .partition(&ds, 5, &mut Rng64::new(3))
            .unwrap();
        let json = serde_json::to_string(&p).unwrap();
        let back: Partition = serde_json::from_str(&json).unwrap();
        assert_eq!(back.clients(), p.clients());
        assert_eq!(back.method().code(), "PA");
    }
}

//! Synthetic federated datasets.
//!
//! The paper evaluates on MNIST, Fashion-MNIST and CIFAR-100. Those corpora
//! are not redistributable inside this offline reproduction, so we generate
//! *synthetic Gaussian-prototype* classification problems with the same
//! label structure instead (docs/REPRODUCING.md, "Deviations from the
//! paper", gives the substitution argument):
//! every non-IID effect the paper studies is imposed by the *partitioner* on
//! label-indexed samples, so any dataset whose per-client loss reflects
//! label skew exercises the identical FedDRL code path.
//!
//! Each class owns `modes_per_class` prototype vectors; a sample is a
//! prototype plus isotropic Gaussian noise. Difficulty is controlled by the
//! prototype-separation-to-noise ratio, calibrated per preset so the
//! SingleSet reference lands near the paper's relative levels
//! (MNIST ≫ Fashion-MNIST > CIFAR-100).

use crate::dataset::Dataset;
use feddrl_nn::rng::Rng64;
use feddrl_nn::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// How many training samples each label receives.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LabelPopularity {
    /// Every label has the same number of samples.
    Uniform,
    /// Label `l` receives mass `∝ (l+1)^(−alpha)`, producing the
    /// head-vs-tail imbalance the paper observes in real data (§2.2: most
    /// popular label ≈ 23× the least popular in Flickr-Mammal).
    PowerLaw {
        /// Decay exponent; ≈1.4 gives a 23× head/tail ratio over 10 labels.
        alpha: f64,
    },
}

/// Declarative description of a synthetic dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthSpec {
    /// Human-readable name used in reports ("mnist-like", …).
    pub name: String,
    /// Number of labels.
    pub num_classes: usize,
    /// Feature dimensionality.
    pub feature_dim: usize,
    /// Total training samples (split across labels per `popularity`).
    pub train_size: usize,
    /// Total test samples (always label-uniform, mirroring the benchmark
    /// test sets the paper evaluates top-1 accuracy on).
    pub test_size: usize,
    /// Std-dev of the isotropic sample noise around each prototype.
    pub noise_std: f32,
    /// Prototypes per class (>1 creates multi-modal classes, which raises
    /// difficulty for linear models the way natural-image classes do).
    pub modes_per_class: usize,
    /// Scale of the prototype positions; separation/noise sets difficulty.
    pub proto_scale: f32,
    /// Training-label popularity profile.
    pub popularity: LabelPopularity,
}

impl SynthSpec {
    /// MNIST-like preset: 10 well-separated classes, easy (SingleSet ≳ 95%).
    pub fn mnist_like() -> Self {
        Self {
            name: "mnist-like".into(),
            num_classes: 10,
            feature_dim: 32,
            train_size: 4000,
            test_size: 1000,
            noise_std: 1.3,
            modes_per_class: 1,
            proto_scale: 1.0,
            popularity: LabelPopularity::Uniform,
        }
    }

    /// Fashion-MNIST-like preset: 10 classes with overlap (SingleSet ≈ 90%).
    pub fn fashion_like() -> Self {
        Self {
            name: "fashion-like".into(),
            num_classes: 10,
            feature_dim: 32,
            train_size: 4000,
            test_size: 1000,
            noise_std: 1.65,
            modes_per_class: 2,
            proto_scale: 1.0,
            popularity: LabelPopularity::Uniform,
        }
    }

    /// CIFAR-100-like preset: 100 harder classes with a power-law head
    /// (SingleSet ≈ 70%).
    pub fn cifar100_like() -> Self {
        Self {
            name: "cifar100-like".into(),
            num_classes: 100,
            feature_dim: 64,
            train_size: 12_000,
            test_size: 2_000,
            noise_std: 2.3,
            modes_per_class: 1,
            proto_scale: 1.0,
            popularity: LabelPopularity::PowerLaw { alpha: 0.8 },
        }
    }

    /// Pill-image-like preset reproducing Figure 1's motivating scenario:
    /// 30 pill classes whose popularity is strongly head-heavy (common
    /// medications) — used together with cluster partitioning by "disease".
    pub fn pill_like() -> Self {
        Self {
            name: "pill-like".into(),
            num_classes: 30,
            feature_dim: 48,
            train_size: 6000,
            test_size: 1200,
            noise_std: 1.8,
            modes_per_class: 1,
            proto_scale: 1.0,
            popularity: LabelPopularity::PowerLaw { alpha: 1.4 },
        }
    }

    /// Per-label training sample counts under this spec's popularity
    /// profile. Every label is guaranteed at least 2 samples.
    pub fn train_label_counts(&self) -> Vec<usize> {
        match self.popularity {
            LabelPopularity::Uniform => {
                let base = self.train_size / self.num_classes;
                let mut counts = vec![base; self.num_classes];
                for item in counts.iter_mut().take(self.train_size % self.num_classes) {
                    *item += 1;
                }
                counts
            }
            LabelPopularity::PowerLaw { alpha } => {
                let weights: Vec<f64> = (0..self.num_classes)
                    .map(|l| ((l + 1) as f64).powf(-alpha))
                    .collect();
                let total_w: f64 = weights.iter().sum();
                let mut counts: Vec<usize> = weights
                    .iter()
                    .map(|w| ((w / total_w) * self.train_size as f64).floor() as usize)
                    .map(|c| c.max(2))
                    .collect();
                // Give any rounding remainder to the head label.
                let assigned: usize = counts.iter().sum();
                if assigned < self.train_size {
                    counts[0] += self.train_size - assigned;
                }
                counts
            }
        }
    }

    /// Generate `(train, test)` datasets deterministically from `seed`.
    pub fn generate(&self, seed: u64) -> (Dataset, Dataset) {
        assert!(self.num_classes > 0 && self.feature_dim > 0);
        assert!(self.modes_per_class > 0, "modes_per_class must be positive");
        let mut rng = Rng64::new(seed ^ 0x5EED_DA7A);
        // Prototypes: [class][mode] → feature vector.
        let protos: Vec<Vec<Tensor>> = (0..self.num_classes)
            .map(|_| {
                (0..self.modes_per_class)
                    .map(|_| Tensor::randn(&[self.feature_dim], 0.0, self.proto_scale, &mut rng))
                    .collect()
            })
            .collect();

        let sample_into = |label: usize, rng: &mut Rng64, row: &mut [f32]| {
            let mode = rng.below(self.modes_per_class);
            let proto = &protos[label][mode];
            for (v, &p) in row.iter_mut().zip(proto.data().iter()) {
                *v = p + rng.normal_f32(0.0, self.noise_std);
            }
        };

        // Training set follows the popularity profile.
        let counts = self.train_label_counts();
        let n_train: usize = counts.iter().sum();
        let mut train_x = Tensor::zeros(&[n_train, self.feature_dim]);
        let mut train_y = Vec::with_capacity(n_train);
        let mut r = 0;
        for (label, &count) in counts.iter().enumerate() {
            for _ in 0..count {
                sample_into(label, &mut rng, train_x.row_mut(r));
                train_y.push(label);
                r += 1;
            }
        }

        // Test set is label-uniform.
        let per_class = (self.test_size / self.num_classes).max(1);
        let n_test = per_class * self.num_classes;
        let mut test_x = Tensor::zeros(&[n_test, self.feature_dim]);
        let mut test_y = Vec::with_capacity(n_test);
        let mut r = 0;
        for label in 0..self.num_classes {
            for _ in 0..per_class {
                sample_into(label, &mut rng, test_x.row_mut(r));
                test_y.push(label);
                r += 1;
            }
        }

        (
            Dataset::new(train_x, train_y, self.num_classes),
            Dataset::new(test_x, test_y, self.num_classes),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = SynthSpec::mnist_like();
        let (a_train, a_test) = spec.generate(11);
        let (b_train, b_test) = spec.generate(11);
        assert_eq!(a_train, b_train);
        assert_eq!(a_test, b_test);
        let (c_train, _) = spec.generate(12);
        assert_ne!(a_train, c_train);
    }

    #[test]
    fn sizes_and_classes_match_spec() {
        let spec = SynthSpec::fashion_like();
        let (train, test) = spec.generate(1);
        assert_eq!(train.len(), spec.train_size);
        assert_eq!(test.len(), spec.test_size);
        assert_eq!(train.num_classes(), 10);
        assert_eq!(train.feature_dim(), spec.feature_dim);
    }

    #[test]
    fn uniform_popularity_is_balanced() {
        let spec = SynthSpec::mnist_like();
        let counts = spec.train_label_counts();
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        assert!(max - min <= 1, "uniform counts differ: {counts:?}");
    }

    #[test]
    fn power_law_head_dominates_tail() {
        let spec = SynthSpec::pill_like();
        let counts = spec.train_label_counts();
        let head = counts[0] as f64;
        let tail = *counts.last().unwrap() as f64;
        // Paper cites ~23x for Flickr-Mammal; alpha=1.4 over 30 labels
        // should exceed 20x.
        assert!(
            head / tail > 20.0,
            "head/tail ratio too small: {head}/{tail}"
        );
        assert_eq!(counts.iter().sum::<usize>(), spec.train_size);
    }

    #[test]
    fn every_label_present_in_train_and_test() {
        let spec = SynthSpec::cifar100_like();
        let (train, test) = spec.generate(3);
        let train_counts = train.label_counts();
        let test_counts = test.label_counts();
        assert!(train_counts.iter().all(|&c| c >= 2), "missing train label");
        assert!(test_counts.iter().all(|&c| c > 0), "missing test label");
    }

    #[test]
    fn classes_are_learnable_but_noisy() {
        // Nearest-prototype accuracy on the mnist-like preset should be
        // high but not perfect — the task must leave room for methods to
        // differ, mirroring real datasets.
        let spec = SynthSpec::mnist_like();
        let (train, test) = spec.generate(7);
        // Class means from training data as a crude classifier.
        let d = train.feature_dim();
        let mut means = vec![vec![0.0f32; d]; spec.num_classes];
        let counts = train.label_counts();
        for i in 0..train.len() {
            let l = train.label(i);
            for (m, &x) in means[l].iter_mut().zip(train.features().row(i)) {
                *m += x;
            }
        }
        for (mean, &c) in means.iter_mut().zip(counts.iter()) {
            for m in mean.iter_mut() {
                *m /= c as f32;
            }
        }
        let mut correct = 0;
        for i in 0..test.len() {
            let x = test.features().row(i);
            let mut best = 0;
            let mut best_d = f32::INFINITY;
            for (l, mean) in means.iter().enumerate() {
                let dist: f32 = x
                    .iter()
                    .zip(mean.iter())
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                if dist < best_d {
                    best_d = dist;
                    best = l;
                }
            }
            if best == test.label(i) {
                correct += 1;
            }
        }
        let acc = correct as f32 / test.len() as f32;
        assert!(acc > 0.80, "mnist-like too hard: {acc}");
        assert!(acc < 1.0, "mnist-like degenerate (perfectly separable)");
    }

    #[test]
    fn spec_serde_roundtrip() {
        let spec = SynthSpec::cifar100_like();
        let json = serde_json::to_string(&spec).unwrap();
        let back: SynthSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }
}

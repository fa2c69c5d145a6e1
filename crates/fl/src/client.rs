//! Client-side local training (paper Algorithm 2, lines 5–12).
//!
//! Each selected client receives the global model, measures the inference
//! loss *before* training (`l_before` — one of the DRL state components),
//! runs `E` epochs of mini-batch SGD (optionally with FedProx's proximal
//! term), measures the loss *after* training, and ships
//! `(l_before, l_after, n_k, w_k)` back to the server.

use crate::metrics::inference_loss;
use feddrl_data::dataset::Dataset;
use feddrl_nn::loss::cross_entropy_logits;
use feddrl_nn::mask::StructuredMask;
use feddrl_nn::model::Sequential;
use feddrl_nn::optim::Sgd;
use feddrl_nn::rng::Rng64;
use serde::{Deserialize, Serialize};

/// Salt for the per-`(round, client)` structured-dropout mask stream:
/// `Rng64::new(seed ^ MASK_SALT).derive(round).derive(client_id)`. Disjoint
/// from the training (`0xC11E`), dropout (`DROPOUT_SALT`) and churn
/// (`CHURN_SALT`) streams, so enabling adaptive structured dropout never
/// perturbs any other draw.
pub const MASK_SALT: u64 = 0x3A5C;

/// Derive the structured-dropout mask for one `(round, client)` dispatch.
///
/// This is the *only* sanctioned derivation: both the in-process session
/// path and the networked runtime call it, which is what lets a
/// `MaskedUpdate` frame omit the mask entirely — the server re-derives the
/// identical mask from `(seed, round, client_id, keep_ratio)` and the
/// model's layer structure. Any drift between the two sides would scatter
/// kept weights into the wrong positions, so keep this a single function.
pub fn dispatch_mask(
    model: &Sequential,
    seed: u64,
    round: u64,
    client_id: u64,
    keep_ratio: f64,
) -> StructuredMask {
    let mut rng = Rng64::new(seed ^ MASK_SALT).derive(round).derive(client_id);
    StructuredMask::derive(model, keep_ratio, &mut rng)
}

/// Hyper-parameters of the local solver (paper §4.1.2: SGD, `E = 5`,
/// `lr = 0.01`, batch 10).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalTrainConfig {
    /// Local epochs `E`.
    pub epochs: usize,
    /// Mini-batch size `b`.
    pub batch_size: usize,
    /// SGD learning rate `η`.
    pub lr: f32,
    /// SGD momentum (0 = paper-faithful plain SGD).
    pub momentum: f32,
    /// FedProx proximal coefficient `μ`; `None` disables the term
    /// (FedAvg/FedDRL), `Some(0.01)` is the paper's FedProx setting.
    pub proximal_mu: Option<f32>,
    /// Optional global gradient-norm clip (stabilizer; not in the paper).
    pub clip_norm: Option<f32>,
}

impl Default for LocalTrainConfig {
    fn default() -> Self {
        Self {
            epochs: 5,
            batch_size: 10,
            lr: 0.01,
            momentum: 0.0,
            proximal_mu: None,
            clip_norm: None,
        }
    }
}

/// Everything a client reports to the server at the end of a round
/// (paper's tuple `p_k^t = {l_before, l_after, n_k, w_k}`).
#[derive(Debug, Clone)]
pub struct ClientUpdate {
    /// Client index in the federation.
    pub client_id: usize,
    /// Locally-trained flat weight vector `w_k^t`.
    pub weights: Vec<f32>,
    /// Local sample count `n_k`.
    pub n_samples: usize,
    /// Inference loss of the *global* model on the client's data, measured
    /// on receipt (start of round).
    pub loss_before: f32,
    /// Inference loss of the *locally trained* model at the end of the
    /// round.
    pub loss_after: f32,
    /// Model versions the update is behind at aggregation time: 0 for a
    /// fresh report (every synchronous round), positive for updates
    /// carried across rounds or buffered by an asynchronous executor. Set
    /// by the executor, never by the client — a client cannot know how
    /// many aggregations happened while it was training.
    pub staleness: usize,
    /// The structured sub-model mask this update was trained under, or
    /// `None` for full-model training. Masked positions of `weights` are
    /// exactly zero and must not vote in aggregation — the server's
    /// mask-aware average excludes them per position.
    pub mask: Option<StructuredMask>,
}

impl ClientUpdate {
    /// Fraction of the model this update trained: the mask's keep fraction,
    /// or `1.0` for full-model training. One of the DRL availability
    /// observations, and the `dynamics` sweep's sub-model-size metric.
    pub fn mask_ratio(&self) -> f32 {
        self.mask.as_ref().map_or(1.0, |m| m.keep_fraction() as f32)
    }

    /// Scalar summary (everything except the weight vector) — what the DRL
    /// agent's state is built from.
    pub fn summary(&self) -> ClientSummary {
        ClientSummary {
            client_id: self.client_id,
            n_samples: self.n_samples,
            loss_before: self.loss_before,
            loss_after: self.loss_after,
        }
    }
}

/// The per-client scalars used to form the DRL state (paper §3.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClientSummary {
    /// Client index in the federation.
    pub client_id: usize,
    /// Local sample count `n_k`.
    pub n_samples: usize,
    /// Global-model loss on the client's data at round start.
    pub loss_before: f32,
    /// Local-model loss after `E` epochs.
    pub loss_after: f32,
}

/// Run one client's local round: evaluate, train `E` epochs, evaluate.
///
/// `model` must already hold the broadcast global weights; it is consumed
/// as the client's working copy. `indices` selects the client's shard of
/// `train`. Deterministic given `rng`.
///
/// # Panics
/// Panics if `indices` is empty — the partitioners guarantee non-empty
/// shards, so an empty shard indicates orchestration error.
pub fn run_local_round(
    model: Sequential,
    train: &Dataset,
    indices: &[usize],
    client_id: usize,
    cfg: &LocalTrainConfig,
    rng: &mut Rng64,
) -> ClientUpdate {
    train_with_mask(model, train, indices, client_id, cfg, None, rng)
}

/// Run one client's local round on a *structured sub-model*: masked hidden
/// units are deleted from the broadcast weights before training and pinned
/// at zero throughout, so the device trains (and uploads) a strictly
/// smaller model. A full mask delegates to [`run_local_round`] and is
/// byte-identical to it — the guarantee the fleet-dynamics suite pins.
///
/// # Panics
/// Panics on an empty shard, degenerate config, or a mask whose length
/// mismatches the model's parameter count.
pub fn run_local_round_masked(
    model: Sequential,
    train: &Dataset,
    indices: &[usize],
    client_id: usize,
    cfg: &LocalTrainConfig,
    mask: StructuredMask,
    rng: &mut Rng64,
) -> ClientUpdate {
    if mask.is_full() {
        let mut update = run_local_round(model, train, indices, client_id, cfg, rng);
        update.mask = Some(mask);
        return update;
    }
    train_with_mask(model, train, indices, client_id, cfg, Some(mask), rng)
}

fn train_with_mask(
    mut model: Sequential,
    train: &Dataset,
    indices: &[usize],
    client_id: usize,
    cfg: &LocalTrainConfig,
    mask: Option<StructuredMask>,
    rng: &mut Rng64,
) -> ClientUpdate {
    assert!(
        !indices.is_empty(),
        "client {client_id} has no local samples"
    );
    assert!(cfg.epochs > 0, "local epochs must be positive");
    assert!(cfg.batch_size > 0, "batch size must be positive");

    if let Some(m) = mask.as_ref() {
        // Delete the masked units from the broadcast model. Everything the
        // client measures and trains from here on is the sub-model: the
        // proximal anchor, `loss_before`, and every SGD step.
        m.apply_to_model(&mut model);
    }
    let w_global = cfg.proximal_mu.map(|_| model.flat_params());
    let loss_before = inference_loss(&mut model, train, indices, cfg.batch_size.max(64));

    let mut opt = Sgd::new(cfg.lr, cfg.momentum);
    let mut order: Vec<usize> = indices.to_vec();
    for _ in 0..cfg.epochs {
        rng.shuffle(&mut order);
        for batch in order.chunks(cfg.batch_size) {
            let (x, y) = train.gather(batch);
            let logits = model.forward(&x, true);
            let (_, grad) = cross_entropy_logits(&logits, &y);
            model.zero_grad();
            model.backward_params(&grad);
            if let (Some(mu), Some(w_ref)) = (cfg.proximal_mu, w_global.as_deref()) {
                model.add_proximal_grad(mu, w_ref);
            }
            if let Some(max_norm) = cfg.clip_norm {
                model.clip_grad_norm(max_norm);
            }
            opt.step(&mut model);
            if let Some(m) = mask.as_ref() {
                // Structural deletion makes every masked gradient exactly
                // zero, so this re-projection is a no-op in exact
                // arithmetic — it pins the invariant against future layer
                // types whose masked gradients are only *numerically* zero.
                m.apply_to_model(&mut model);
            }
        }
    }

    let loss_after = inference_loss(&mut model, train, indices, cfg.batch_size.max(64));
    ClientUpdate {
        client_id,
        weights: model.flat_params(),
        n_samples: indices.len(),
        loss_before,
        loss_after,
        staleness: 0,
        mask,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feddrl_data::synth::SynthSpec;
    use feddrl_nn::zoo::ModelSpec;

    fn setup() -> (Dataset, Sequential) {
        let (train, _) = SynthSpec::mnist_like().generate(1);
        let spec = ModelSpec::Mlp {
            in_dim: train.feature_dim(),
            hidden: vec![32],
            out_dim: train.num_classes(),
        };
        (train, spec.build(42))
    }

    #[test]
    fn local_training_reduces_local_loss() {
        let (train, model) = setup();
        let indices: Vec<usize> = (0..400).collect();
        let cfg = LocalTrainConfig {
            epochs: 3,
            lr: 0.05,
            ..Default::default()
        };
        let update = run_local_round(model, &train, &indices, 0, &cfg, &mut Rng64::new(2));
        assert!(
            update.loss_after < update.loss_before * 0.9,
            "training did not reduce loss: {} -> {}",
            update.loss_before,
            update.loss_after
        );
        assert_eq!(update.n_samples, 400);
        assert_eq!(update.client_id, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let (train, model) = setup();
        let indices: Vec<usize> = (0..100).collect();
        let cfg = LocalTrainConfig::default();
        let a = run_local_round(model.clone(), &train, &indices, 1, &cfg, &mut Rng64::new(3));
        let b = run_local_round(model, &train, &indices, 1, &cfg, &mut Rng64::new(3));
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.loss_before, b.loss_before);
        assert_eq!(a.loss_after, b.loss_after);
    }

    #[test]
    fn proximal_term_keeps_weights_closer_to_global() {
        let (train, model) = setup();
        let indices: Vec<usize> = (0..200).collect();
        let w0 = model.flat_params();
        let plain_cfg = LocalTrainConfig {
            epochs: 3,
            lr: 0.05,
            ..Default::default()
        };
        let prox_cfg = LocalTrainConfig {
            proximal_mu: Some(0.5),
            ..plain_cfg.clone()
        };
        let plain = run_local_round(
            model.clone(),
            &train,
            &indices,
            0,
            &plain_cfg,
            &mut Rng64::new(4),
        );
        let prox = run_local_round(model, &train, &indices, 0, &prox_cfg, &mut Rng64::new(4));
        let dist = |w: &[f32]| -> f32 {
            w.iter()
                .zip(w0.iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
                .sqrt()
        };
        assert!(
            dist(&prox.weights) < dist(&plain.weights),
            "proximal term failed to anchor weights ({} !< {})",
            dist(&prox.weights),
            dist(&plain.weights)
        );
    }

    #[test]
    fn summary_strips_weights() {
        let (train, model) = setup();
        let indices: Vec<usize> = (0..50).collect();
        let update = run_local_round(
            model,
            &train,
            &indices,
            7,
            &LocalTrainConfig::default(),
            &mut Rng64::new(5),
        );
        let s = update.summary();
        assert_eq!(s.client_id, 7);
        assert_eq!(s.n_samples, 50);
        assert_eq!(s.loss_before, update.loss_before);
        assert_eq!(s.loss_after, update.loss_after);
    }

    #[test]
    #[should_panic(expected = "no local samples")]
    fn rejects_empty_shard() {
        let (train, model) = setup();
        let _ = run_local_round(
            model,
            &train,
            &[],
            0,
            &LocalTrainConfig::default(),
            &mut Rng64::new(6),
        );
    }

    #[test]
    fn full_mask_is_byte_identical_to_plain_training() {
        let (train, model) = setup();
        let indices: Vec<usize> = (0..100).collect();
        let cfg = LocalTrainConfig::default();
        let plain = run_local_round(model.clone(), &train, &indices, 2, &cfg, &mut Rng64::new(9));
        let full = StructuredMask::derive(&model, 1.0, &mut Rng64::new(1));
        let masked =
            run_local_round_masked(model, &train, &indices, 2, &cfg, full, &mut Rng64::new(9));
        assert_eq!(plain.weights, masked.weights);
        assert_eq!(plain.loss_before, masked.loss_before);
        assert_eq!(plain.loss_after, masked.loss_after);
        assert_eq!(masked.mask_ratio(), 1.0);
        assert_eq!(plain.mask_ratio(), 1.0, "absent mask reads as full");
    }

    #[test]
    fn masked_training_pins_masked_positions_at_zero_and_still_learns() {
        let (train, model) = setup();
        let indices: Vec<usize> = (0..400).collect();
        let cfg = LocalTrainConfig {
            epochs: 3,
            lr: 0.05,
            ..Default::default()
        };
        let mask = StructuredMask::derive(&model, 0.5, &mut Rng64::new(21));
        assert!(!mask.is_full());
        let update = run_local_round_masked(
            model,
            &train,
            &indices,
            3,
            &cfg,
            mask.clone(),
            &mut Rng64::new(9),
        );
        for (p, w) in update.weights.iter().enumerate() {
            if !mask.keeps(p) {
                assert_eq!(*w, 0.0, "masked position {p} escaped the sub-model");
            }
        }
        assert!(update.mask_ratio() < 1.0);
        assert!(
            update.loss_after < update.loss_before,
            "half-width sub-model failed to learn: {} -> {}",
            update.loss_before,
            update.loss_after
        );
    }

    #[test]
    fn clip_norm_is_applied_without_breaking_learning() {
        let (train, model) = setup();
        let indices: Vec<usize> = (0..200).collect();
        let cfg = LocalTrainConfig {
            epochs: 2,
            lr: 0.05,
            clip_norm: Some(1.0),
            ..Default::default()
        };
        let update = run_local_round(model, &train, &indices, 0, &cfg, &mut Rng64::new(7));
        assert!(update.loss_after < update.loss_before);
    }
}

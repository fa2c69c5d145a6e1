//! SingleSet reference: centralized training on the concatenation of all
//! clients' data (paper §4.1, footnote 4). Reported as the ceiling every FL
//! method is compared against in Tables 3 and 4.

use crate::history::{RoundRecord, RunHistory};
use crate::metrics::evaluate;
use feddrl_data::dataset::Dataset;
use feddrl_nn::loss::cross_entropy_logits;
use feddrl_nn::optim::Sgd;
use feddrl_nn::rng::Rng64;
use feddrl_nn::zoo::ModelSpec;

/// Centralized training configuration.
#[derive(Debug, Clone)]
pub struct SingleSetConfig {
    /// Training epochs over the full dataset.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Evaluation batch size.
    pub eval_batch: usize,
    /// Seed for init and shuffling.
    pub seed: u64,
}

impl Default for SingleSetConfig {
    fn default() -> Self {
        Self {
            epochs: 30,
            batch_size: 32,
            lr: 0.05,
            eval_batch: 256,
            seed: 0x51,
        }
    }
}

/// Train centrally and evaluate after every epoch; the returned history
/// uses one record per epoch so it slots into the same reporting as FL
/// runs.
pub fn run_singleset(
    spec: &ModelSpec,
    train: &Dataset,
    test: &Dataset,
    cfg: &SingleSetConfig,
) -> RunHistory {
    assert!(cfg.epochs > 0 && cfg.batch_size > 0);
    let mut rng = Rng64::new(cfg.seed);
    let mut model = spec.build(rng.next_u64());
    let mut opt = Sgd::new(cfg.lr, 0.0);
    let mut order: Vec<usize> = (0..train.len()).collect();
    let mut records = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        rng.shuffle(&mut order);
        for batch in order.chunks(cfg.batch_size) {
            let (x, y) = train.gather(batch);
            let logits = model.forward(&x, true);
            let (_, grad) = cross_entropy_logits(&logits, &y);
            model.zero_grad();
            model.backward_params(&grad);
            opt.step(&mut model);
        }
        let (acc, loss) = evaluate(&mut model, test, cfg.eval_batch);
        records.push(RoundRecord {
            round: epoch,
            test_accuracy: acc,
            test_loss: loss,
            selected: Vec::new(),
            impact_factors: Vec::new(),
            client_losses_before: Vec::new(),
            strategy_micros: 0,
            aggregate_micros: 0,
            hetero: None,
        });
    }
    RunHistory {
        method: "SingleSet".into(),
        dataset: String::new(),
        partition: "-".into(),
        n_clients: 1,
        participants: 1,
        seed: cfg.seed,
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feddrl_data::synth::SynthSpec;

    #[test]
    fn singleset_reaches_high_accuracy_on_mnist_like() {
        let (train, test) = SynthSpec {
            train_size: 2000,
            test_size: 500,
            ..SynthSpec::mnist_like()
        }
        .generate(3);
        let spec = ModelSpec::Mlp {
            in_dim: train.feature_dim(),
            hidden: vec![64],
            out_dim: train.num_classes(),
        };
        let cfg = SingleSetConfig {
            epochs: 15,
            ..Default::default()
        };
        let history = run_singleset(&spec, &train, &test, &cfg);
        assert_eq!(history.records.len(), 15);
        let best = history.best().best_accuracy;
        assert!(best > 0.9, "SingleSet underfit: {best}");
    }

    #[test]
    fn deterministic() {
        let (train, test) = SynthSpec {
            train_size: 600,
            test_size: 200,
            ..SynthSpec::mnist_like()
        }
        .generate(4);
        let spec = ModelSpec::Mlp {
            in_dim: train.feature_dim(),
            hidden: vec![16],
            out_dim: train.num_classes(),
        };
        let cfg = SingleSetConfig {
            epochs: 3,
            ..Default::default()
        };
        let a = run_singleset(&spec, &train, &test, &cfg);
        let b = run_singleset(&spec, &train, &test, &cfg);
        assert_eq!(a.accuracies(), b.accuracies());
    }
}

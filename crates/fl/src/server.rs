//! The federated-learning server configuration.
//!
//! The round loop itself lives in [`crate::session`] (the Algorithm 2
//! orchestration as a driveable [`Session`](crate::session::Session));
//! this module keeps the serializable [`FlConfig`] knob bundle that
//! [`SessionBuilder::config`](crate::session::SessionBuilder::config)
//! reads. With default components a session's histories are
//! byte-identical to the pre-session loop (enforced by the committed
//! golden fixture `tests/golden/ideal_history.json`).

use crate::executor::ExecutorConfig;
use crate::server_opt::ServerOptConfig;
use serde::{Deserialize, Serialize};

pub use crate::selection::Selection;

use crate::client::LocalTrainConfig;

/// Federated orchestration parameters (paper §4.1.2 defaults).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlConfig {
    /// Communication rounds `T`.
    pub rounds: usize,
    /// Participating clients per round `K` (paper default 10).
    pub participants: usize,
    /// Local solver settings.
    pub local: LocalTrainConfig,
    /// Evaluation batch size.
    pub eval_batch: usize,
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// Print progress to stderr every `log_every` rounds (0 = silent);
    /// implemented as an auto-installed
    /// [`ProgressLogger`](crate::session::ProgressLogger) observer.
    pub log_every: usize,
    /// Client-selection policy (the paper uses uniform sampling).
    #[serde(default)]
    pub selection: Selection,
    /// Round-execution model: ideal synchronous (default),
    /// deadline-bounded over a heterogeneous device fleet, or buffered
    /// asynchronous aggregation with staleness discounting.
    #[serde(default)]
    pub executor: ExecutorConfig,
    /// Server-side optimizer applied to the aggregated model each round:
    /// plain Eq. 4 replacement (default, byte-identical to the historical
    /// path) or an adaptive step (FedAdam/FedYogi/FedAMSGrad) on the
    /// pseudo-gradient `Δ = aggregate − global`. Skipped in JSON while
    /// `Plain` so existing config/history files keep their exact shape.
    #[serde(default, skip_serializing_if = "ServerOptConfig::is_plain")]
    pub server_opt: ServerOptConfig,
}

impl Default for FlConfig {
    fn default() -> Self {
        Self {
            rounds: 100,
            participants: 10,
            local: LocalTrainConfig::default(),
            eval_batch: 256,
            seed: 0xFEDD,
            log_every: 0,
            selection: Selection::Uniform,
            executor: ExecutorConfig::Ideal,
            server_opt: ServerOptConfig::Plain,
        }
    }
}

impl FlConfig {
    /// Check this configuration against a federation of `n_clients` —
    /// exactly the validation
    /// [`SessionBuilder::build`](crate::session::SessionBuilder::build)
    /// performs, exposed separately so callers can reject a degenerate
    /// config *before* constructing models, fleets, or pre-training
    /// pipelines.
    ///
    /// # Errors
    /// The same [`FlError`](crate::error::FlError) variants
    /// [`SessionBuilder::build`](crate::session::SessionBuilder::build)
    /// reports.
    pub fn validate(&self, n_clients: usize) -> Result<(), crate::error::FlError> {
        use crate::error::FlError;
        if self.participants == 0 {
            return Err(FlError::ZeroParticipants);
        }
        if self.participants > n_clients {
            return Err(FlError::ParticipantsExceedClients {
                participants: self.participants,
                n_clients,
            });
        }
        if self.rounds == 0 {
            return Err(FlError::ZeroRounds);
        }
        match &self.executor {
            ExecutorConfig::Ideal => {}
            ExecutorConfig::Deadline(h) => h.validate()?,
            ExecutorConfig::Buffered(b) => b.validate(self.participants)?,
        }
        self.server_opt.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::LocalTrainConfig;
    use crate::history::RunHistory;
    use crate::session::SessionBuilder;
    use crate::strategy::{FedAvg, FedProx, Strategy, Uniform};
    use feddrl_data::dataset::Dataset;
    use feddrl_data::partition::{Partition, PartitionMethod};
    use feddrl_data::synth::SynthSpec;
    use feddrl_nn::rng::Rng64;
    use feddrl_nn::zoo::ModelSpec;

    /// A whole run through the session builder, panicking with the
    /// builder's error message on a bad config.
    fn run_session(
        spec: &ModelSpec,
        train: &Dataset,
        test: &Dataset,
        partition: &Partition,
        strategy: &mut dyn Strategy,
        cfg: &FlConfig,
    ) -> RunHistory {
        SessionBuilder::new(spec, train, test, partition, strategy)
            .config(cfg)
            .build()
            .unwrap_or_else(|e| panic!("{e}"))
            .run()
            .expect("federated run")
    }

    fn quick_setup() -> (ModelSpec, Dataset, Dataset, Partition) {
        let spec_ds = SynthSpec {
            train_size: 1200,
            test_size: 300,
            ..SynthSpec::mnist_like()
        };
        let (train, test) = spec_ds.generate(5);
        let partition = PartitionMethod::Iid
            .partition(&train, 6, &mut Rng64::new(9))
            .unwrap();
        let spec = ModelSpec::Mlp {
            in_dim: train.feature_dim(),
            hidden: vec![32],
            out_dim: train.num_classes(),
        };
        (spec, train, test, partition)
    }

    fn quick_cfg(rounds: usize) -> FlConfig {
        FlConfig {
            rounds,
            participants: 6,
            local: LocalTrainConfig {
                epochs: 2,
                batch_size: 16,
                lr: 0.05,
                ..Default::default()
            },
            eval_batch: 128,
            seed: 77,
            log_every: 0,
            selection: Selection::Uniform,
            executor: ExecutorConfig::Ideal,
            server_opt: ServerOptConfig::Plain,
        }
    }

    #[test]
    fn fedavg_learns_on_iid_data() {
        let (spec, train, test, partition) = quick_setup();
        let mut strategy = FedAvg;
        let history = run_session(
            &spec,
            &train,
            &test,
            &partition,
            &mut strategy,
            &quick_cfg(12),
        );
        assert_eq!(history.records.len(), 12);
        let best = history.best();
        assert!(
            best.best_accuracy > 0.7,
            "FedAvg failed to learn: best acc {}",
            best.best_accuracy
        );
        // Accuracy should improve over the run.
        let first = history.records[0].test_accuracy;
        assert!(best.best_accuracy > first + 0.2);
    }

    #[test]
    fn runs_are_deterministic() {
        let (spec, train, test, partition) = quick_setup();
        let h1 = run_session(&spec, &train, &test, &partition, &mut FedAvg, &quick_cfg(4));
        let h2 = run_session(&spec, &train, &test, &partition, &mut FedAvg, &quick_cfg(4));
        assert_eq!(h1.accuracies(), h2.accuracies());
        let mut other_cfg = quick_cfg(4);
        other_cfg.seed = 78;
        let h3 = run_session(&spec, &train, &test, &partition, &mut FedAvg, &other_cfg);
        assert_ne!(h1.accuracies(), h3.accuracies());
    }

    #[test]
    fn fedprox_propagates_proximal_mu() {
        let (spec, train, test, partition) = quick_setup();
        let mut prox = FedProx::new(0.1);
        let h = run_session(&spec, &train, &test, &partition, &mut prox, &quick_cfg(3));
        assert_eq!(h.method, "FedProx");
        // Sanity: still learns.
        assert!(h.best().best_accuracy > 0.4);
    }

    #[test]
    fn impact_factors_are_recorded_and_normalized() {
        let (spec, train, test, partition) = quick_setup();
        let h = run_session(
            &spec,
            &train,
            &test,
            &partition,
            &mut Uniform,
            &quick_cfg(2),
        );
        for r in &h.records {
            let sum: f32 = r.impact_factors.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert_eq!(r.impact_factors.len(), r.selected.len());
            assert_eq!(r.client_losses_before.len(), r.selected.len());
        }
    }

    #[test]
    fn partial_participation_selects_k_clients() {
        let (spec, train, test, partition) = quick_setup();
        let mut cfg = quick_cfg(3);
        cfg.participants = 3;
        let h = run_session(&spec, &train, &test, &partition, &mut FedAvg, &cfg);
        for r in &h.records {
            assert_eq!(r.selected.len(), 3);
            let mut s = r.selected.to_vec();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 3, "duplicate client selected");
        }
    }

    #[test]
    fn power_of_choice_prefers_lossy_clients() {
        let (spec, train, test, partition) = quick_setup();
        let mut cfg = quick_cfg(8);
        cfg.participants = 2;
        cfg.selection = Selection::PowerOfChoice { candidates: 6 };
        let h = run_session(&spec, &train, &test, &partition, &mut FedAvg, &cfg);
        // All clients must eventually be profiled (unseen-first rule).
        let mut seen = std::collections::HashSet::new();
        for r in &h.records {
            for &c in &r.selected {
                seen.insert(c);
            }
            assert_eq!(r.selected.len(), 2);
        }
        assert_eq!(seen.len(), 6, "power-of-choice starved some clients");
        // Still learns.
        assert!(h.best().best_accuracy > 0.5);
    }

    #[test]
    fn bandwidth_aware_runs_through_the_config_layer() {
        let (spec, train, test, partition) = quick_setup();
        let mut cfg = quick_cfg(4);
        cfg.participants = 3;
        cfg.selection = Selection::BandwidthAware { candidates: 5 };
        let h = run_session(&spec, &train, &test, &partition, &mut FedAvg, &cfg);
        for r in &h.records {
            assert_eq!(r.selected.len(), 3);
        }
        // Serializable like every other config knob.
        let json = serde_json::to_string(&cfg).unwrap();
        let back: FlConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.selection, cfg.selection);
    }

    #[test]
    #[should_panic(expected = "exceeds N")]
    fn rejects_k_larger_than_n() {
        let (spec, train, test, partition) = quick_setup();
        let mut cfg = quick_cfg(1);
        cfg.participants = 7;
        let _ = run_session(&spec, &train, &test, &partition, &mut FedAvg, &cfg);
    }
}

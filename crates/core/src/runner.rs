//! High-level FedDRL run orchestration.
//!
//! Wires the two training modes together the way the paper deploys them:
//! optionally pre-train an agent with the two-stage procedure (§3.4.2),
//! then run the measured federated training with the FedDRL strategy
//! continuing to learn online (the paper's main-thread/side-thread split).

use crate::config::FedDrlConfig;
use crate::strategy::FedDrl;
use crate::two_stage::{two_stage_train, TwoStageConfig, TwoStageReport};
use feddrl_data::dataset::Dataset;
use feddrl_data::partition::Partition;
use feddrl_fl::error::FlError;
#[cfg(test)]
use feddrl_fl::executor::ExecutorConfig;
use feddrl_fl::history::RunHistory;
use feddrl_fl::server::FlConfig;
#[cfg(test)]
use feddrl_fl::server::Selection;
use feddrl_fl::session::SessionBuilder;
use feddrl_nn::zoo::ModelSpec;
use serde::{Deserialize, Serialize};

/// How the FedDRL agent is obtained for a measured run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FedDrlRunConfig {
    /// Strategy/agent settings.
    pub feddrl: FedDrlConfig,
    /// Optional two-stage pre-training before the measured run.
    pub two_stage: Option<TwoStageConfig>,
}

/// Result of [`try_run_feddrl`].
pub struct FedDrlRun {
    /// Round-by-round history of the measured run.
    pub history: RunHistory,
    /// Two-stage diagnostics when pre-training was enabled.
    pub two_stage_report: Option<TwoStageReport>,
    /// Rewards observed during the measured run.
    pub rewards: Vec<f32>,
}

/// Run FedDRL end to end: (optional) two-stage pre-training, then the
/// measured federated training.
///
/// # Errors
/// Returns the [`FlError`] the session builder reports for a degenerate
/// `fl_cfg` (`K = 0`, `K > N`, zero rounds, bad deadline/fleet) — before
/// any pre-training compute is spent.
pub fn try_run_feddrl(
    spec: &ModelSpec,
    train: &Dataset,
    test: &Dataset,
    partition: &Partition,
    fl_cfg: &FlConfig,
    run_cfg: &FedDrlRunConfig,
    dataset_name: &str,
) -> Result<FedDrlRun, FlError> {
    // Validate the orchestration config up front: two-stage pre-training
    // is expensive, it reuses (a clone of) the same config, and the DRL
    // agent itself cannot be sized from a degenerate `participants`.
    fl_cfg.validate(partition.n_clients())?;
    let (mut strategy, report) = match &run_cfg.two_stage {
        Some(ts) => {
            let (agent, report) =
                two_stage_train(spec, train, test, partition, fl_cfg, &run_cfg.feddrl, ts);
            (FedDrl::from_agent(agent, &run_cfg.feddrl), Some(report))
        }
        None => (FedDrl::new(fl_cfg.participants, &run_cfg.feddrl), None),
    };
    let history = SessionBuilder::new(spec, train, test, partition, &mut strategy)
        .config(fl_cfg)
        .dataset_name(dataset_name)
        .build()?
        .run()?;
    Ok(FedDrlRun {
        history,
        two_stage_report: report,
        rewards: strategy.rewards().to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use feddrl_data::partition::PartitionMethod;
    use feddrl_data::synth::SynthSpec;
    use feddrl_fl::client::LocalTrainConfig;
    use feddrl_nn::rng::Rng64;

    fn env() -> (ModelSpec, Dataset, Dataset, Partition, FlConfig) {
        let (train, test) = SynthSpec {
            train_size: 800,
            test_size: 200,
            ..SynthSpec::mnist_like()
        }
        .generate(8);
        let partition = PartitionMethod::ce(0.6)
            .partition(&train, 6, &mut Rng64::new(2))
            .unwrap();
        let spec = ModelSpec::Mlp {
            in_dim: train.feature_dim(),
            hidden: vec![24],
            out_dim: train.num_classes(),
        };
        let fl_cfg = FlConfig {
            rounds: 8,
            participants: 6,
            local: LocalTrainConfig {
                epochs: 2,
                batch_size: 16,
                lr: 0.05,
                ..Default::default()
            },
            eval_batch: 128,
            seed: 21,
            log_every: 0,
            selection: Selection::Uniform,
            executor: ExecutorConfig::Ideal,
            server_opt: feddrl_fl::server_opt::ServerOptConfig::Plain,
        };
        (spec, train, test, partition, fl_cfg)
    }

    fn small_run_cfg() -> FedDrlRunConfig {
        let mut cfg = FedDrlRunConfig::default();
        cfg.feddrl.ddpg.hidden = 32;
        cfg.feddrl.ddpg.batch_size = 4;
        cfg.feddrl.ddpg.warmup = 4;
        cfg.feddrl.ddpg.updates_per_round = 1;
        cfg
    }

    #[test]
    fn online_only_run_learns() {
        let (spec, train, test, partition, fl_cfg) = env();
        let run = try_run_feddrl(
            &spec,
            &train,
            &test,
            &partition,
            &fl_cfg,
            &small_run_cfg(),
            "",
        )
        .expect("valid config");
        assert_eq!(run.history.records.len(), 8);
        assert!(run.two_stage_report.is_none());
        assert_eq!(run.rewards.len(), 7);
        assert!(
            run.history.best().best_accuracy > 0.5,
            "FedDRL failed to learn at all: {}",
            run.history.best().best_accuracy
        );
    }

    #[test]
    fn feddrl_runs_under_deadline_executor_with_dropouts() {
        use feddrl_fl::executor::{HeteroConfig, LatePolicy};
        use feddrl_sim::device::FleetConfig;

        let (spec, train, test, partition, mut fl_cfg) = env();
        fl_cfg.rounds = 5;
        fl_cfg.executor = ExecutorConfig::Deadline(HeteroConfig {
            fleet: FleetConfig {
                compute_skew: 4.0,
                dropout: 0.3,
                ..Default::default()
            },
            deadline_s: None,
            late_policy: LatePolicy::Drop,
            ..Default::default()
        });
        let run = try_run_feddrl(
            &spec,
            &train,
            &test,
            &partition,
            &fl_cfg,
            &small_run_cfg(),
            "",
        )
        .expect("valid config");
        assert_eq!(run.history.records.len(), 5);
        assert!(
            run.history.total_dropouts() > 0,
            "30% dropout over 30 client-rounds drew nothing"
        );
        assert!(run.history.mean_participation() < 6.0);
        assert!(run.history.total_sim_time_s() > 0.0);
        // Short rounds still produce normalized factors for the survivors.
        for r in &run.history.records {
            let h = r
                .hetero
                .as_ref()
                .expect("deadline run must record telemetry");
            assert_eq!(h.aggregated(), r.impact_factors.len());
            if !r.impact_factors.is_empty() {
                let sum: f32 = r.impact_factors.iter().sum();
                assert!((sum - 1.0).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn feddrl_observes_staleness_under_buffered_executor() {
        use feddrl_fl::executor::{BufferedConfig, StalenessDiscount};
        use feddrl_sim::device::FleetConfig;

        let (spec, train, test, partition, mut fl_cfg) = env();
        fl_cfg.rounds = 6;
        fl_cfg.executor = ExecutorConfig::Buffered(BufferedConfig {
            fleet: FleetConfig {
                compute_skew: 6.0,
                ..Default::default()
            },
            buffer_size: 3,
            staleness: StalenessDiscount::Polynomial { alpha: 1.0 },
            ..Default::default()
        });
        let mut cfg = small_run_cfg();
        cfg.feddrl.observe_staleness = true;
        let run = try_run_feddrl(&spec, &train, &test, &partition, &fl_cfg, &cfg, "")
            .expect("valid config");
        assert_eq!(run.history.records.len(), 6);
        for r in &run.history.records {
            let h = r
                .hetero
                .as_ref()
                .expect("buffered run must record telemetry");
            assert!(
                r.impact_factors.is_empty() || r.impact_factors.len() == 3,
                "aggregations must hold exactly the buffer size"
            );
            assert_eq!(h.staleness.len(), r.impact_factors.len());
            if !r.impact_factors.is_empty() {
                let sum: f32 = r.impact_factors.iter().sum();
                assert!((sum - 1.0).abs() < 1e-4);
            }
        }
        assert!(
            run.history.mean_staleness() > 0.0,
            "a 6x-skewed fleet with a small buffer must aggregate stale updates"
        );
        assert!(run.history.total_sim_time_s() > 0.0);
    }

    #[test]
    fn two_stage_pretraining_is_reported() {
        let (spec, train, test, partition, fl_cfg) = env();
        let mut cfg = small_run_cfg();
        cfg.two_stage = Some(TwoStageConfig {
            workers: 2,
            online_rounds: 3,
            offline_updates: 2,
            seed: 3,
        });
        let run = try_run_feddrl(&spec, &train, &test, &partition, &fl_cfg, &cfg, "")
            .expect("valid config");
        let report = run.two_stage_report.expect("two-stage report missing");
        assert_eq!(report.worker_experiences.len(), 2);
        assert!(report.merged_experiences >= 4);
        assert_eq!(run.history.method, "FedDRL");
    }
}

//! End-to-end integration tests: full federated runs across every crate.

use feddrl_repro::prelude::*;

mod common;
use common::run_session;

fn small_env(
    partition_method: PartitionMethod,
    n_clients: usize,
    seed: u64,
) -> (ModelSpec, Dataset, Dataset, Partition) {
    let (train, test) = SynthSpec {
        train_size: 1500,
        test_size: 400,
        ..SynthSpec::mnist_like()
    }
    .generate(seed);
    let partition = partition_method
        .partition(&train, n_clients, &mut Rng64::new(seed ^ 0xF))
        .expect("partition");
    let model = ModelSpec::Mlp {
        in_dim: train.feature_dim(),
        hidden: vec![32],
        out_dim: train.num_classes(),
    };
    (model, train, test, partition)
}

fn fl_cfg(rounds: usize, participants: usize, seed: u64) -> FlConfig {
    FlConfig {
        rounds,
        participants,
        local: LocalTrainConfig {
            epochs: 2,
            batch_size: 16,
            lr: 0.05,
            ..Default::default()
        },
        eval_batch: 256,
        seed,
        log_every: 0,
        selection: Selection::Uniform,
        executor: ExecutorConfig::Ideal,
        server_opt: ServerOptConfig::Plain,
    }
}

#[test]
fn all_strategies_learn_on_iid() {
    let (model, train, test, partition) = small_env(PartitionMethod::Iid, 8, 1);
    let cfg = fl_cfg(10, 8, 11);
    let fedavg = run_session(&model, &train, &test, &partition, &mut FedAvg, &cfg);
    let fedprox = run_session(
        &model,
        &train,
        &test,
        &partition,
        &mut FedProx::default(),
        &cfg,
    );
    let mut drl_cfg = FedDrlRunConfig::default();
    drl_cfg.feddrl.ddpg.hidden = 64;
    let feddrl = try_run_feddrl(&model, &train, &test, &partition, &cfg, &drl_cfg, "")
        .expect("valid config");
    for h in [&fedavg, &fedprox, &feddrl.history] {
        assert!(
            h.best().best_accuracy > 0.75,
            "{} only reached {:.3} on IID data",
            h.method,
            h.best().best_accuracy
        );
    }
}

#[test]
fn feddrl_competitive_on_cluster_skew() {
    // On CE cluster skew with a dominant main group, FedDRL must stay
    // within noise of FedAvg or beat it (paper Table 3 shows gains;
    // at this scale we assert non-inferiority with a small margin).
    let (model, train, test, partition) = small_env(PartitionMethod::ce(0.6), 10, 2);
    let cfg = fl_cfg(25, 10, 22);
    let fedavg = run_session(&model, &train, &test, &partition, &mut FedAvg, &cfg);
    let mut drl_cfg = FedDrlRunConfig::default();
    drl_cfg.feddrl.ddpg.hidden = 64;
    let feddrl = try_run_feddrl(&model, &train, &test, &partition, &cfg, &drl_cfg, "")
        .expect("valid config");
    let a = fedavg.best().best_accuracy;
    let d = feddrl.history.best().best_accuracy;
    assert!(
        d > a - 0.05,
        "FedDRL ({d:.3}) collapsed vs FedAvg ({a:.3}) on cluster skew"
    );
}

#[test]
fn full_runs_are_deterministic_across_invocations() {
    let (model, train, test, partition) = small_env(PartitionMethod::cn(0.6), 8, 3);
    let cfg = fl_cfg(6, 8, 33);
    let run = || {
        let mut drl_cfg = FedDrlRunConfig::default();
        drl_cfg.feddrl.ddpg.hidden = 32;
        try_run_feddrl(&model, &train, &test, &partition, &cfg, &drl_cfg, "").expect("valid config")
    };
    let h1 = run();
    let h2 = run();
    assert_eq!(h1.history.accuracies(), h2.history.accuracies());
    assert_eq!(h1.rewards, h2.rewards);
}

#[test]
fn every_partition_method_supports_full_runs() {
    for (i, method) in [
        PartitionMethod::Iid,
        PartitionMethod::pa(),
        PartitionMethod::ce(0.6),
        PartitionMethod::cn(0.6),
        PartitionMethod::shards_equal(),
        PartitionMethod::shards_non_equal(),
    ]
    .into_iter()
    .enumerate()
    {
        let code = method.code().to_string();
        let (model, train, test, partition) = small_env(method, 10, 40 + i as u64);
        let cfg = fl_cfg(3, 5, 50 + i as u64);
        let h = run_session(&model, &train, &test, &partition, &mut FedAvg, &cfg);
        assert_eq!(h.records.len(), 3, "partition {code} broke the round loop");
        assert_eq!(h.partition, code);
    }
}

#[test]
fn histories_roundtrip_through_json() {
    let (model, train, test, partition) = small_env(PartitionMethod::pa(), 6, 4);
    let cfg = fl_cfg(3, 6, 44);
    let h = run_session(&model, &train, &test, &partition, &mut FedAvg, &cfg);
    let dir = std::env::temp_dir().join("feddrl_e2e_history");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("h.json");
    h.save_json(&path).unwrap();
    let back = RunHistory::load_json(&path).unwrap();
    assert_eq!(back.accuracies(), h.accuracies());
    assert_eq!(back.records[0].impact_factors, h.records[0].impact_factors);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn singleset_beats_federated_methods() {
    // The centralized ceiling must dominate (paper's framing of SingleSet).
    let (model, train, test, partition) = small_env(PartitionMethod::ce(0.6), 10, 5);
    let single = run_singleset(
        &model,
        &train,
        &test,
        &SingleSetConfig {
            epochs: 20,
            seed: 5,
            ..Default::default()
        },
    );
    let cfg = fl_cfg(10, 10, 55);
    let fedavg = run_session(&model, &train, &test, &partition, &mut FedAvg, &cfg);
    assert!(
        single.best().best_accuracy >= fedavg.best().best_accuracy - 0.02,
        "SingleSet ({:.3}) should not lose to FedAvg ({:.3})",
        single.best().best_accuracy,
        fedavg.best().best_accuracy
    );
}

#[test]
fn partial_participation_with_cluster_skew() {
    let (model, train, test, partition) = small_env(PartitionMethod::ce(0.6), 12, 6);
    let cfg = fl_cfg(6, 4, 66); // K = 4 of N = 12
    let mut drl_cfg = FedDrlRunConfig::default();
    drl_cfg.feddrl.ddpg.hidden = 32;
    let run = try_run_feddrl(&model, &train, &test, &partition, &cfg, &drl_cfg, "")
        .expect("valid config");
    for r in &run.history.records {
        assert_eq!(r.selected.len(), 4);
        assert_eq!(r.impact_factors.len(), 4);
    }
}

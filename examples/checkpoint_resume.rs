//! Checkpointing a trained FedDRL agent and resuming aggregation with it.
//!
//! Production FL deployments pre-train the DRL policy (e.g. with the
//! two-stage procedure), persist it, and ship it to the aggregation
//! server. This example trains an agent on one federation, saves it to
//! JSON, restores it, and verifies the restored policy makes identical
//! decisions — then keeps training it on a *new* federation (warm start).
//!
//! Run with: `cargo run --release --example checkpoint_resume`

use feddrl_repro::prelude::*;

fn main() {
    let (train, test) = SynthSpec {
        train_size: 1200,
        test_size: 300,
        ..SynthSpec::mnist_like()
    }
    .generate(4);
    let partition = PartitionMethod::ce(0.6)
        .partition(&train, 8, &mut Rng64::new(5))
        .expect("partition");
    let model = ModelSpec::Mlp {
        in_dim: train.feature_dim(),
        hidden: vec![32],
        out_dim: train.num_classes(),
    };
    let fl_cfg = FlConfig {
        rounds: 10,
        participants: 8,
        local: LocalTrainConfig {
            epochs: 2,
            batch_size: 16,
            lr: 0.05,
            ..Default::default()
        },
        eval_batch: 256,
        seed: 6,
        log_every: 0,
        selection: Selection::Uniform,
        executor: ExecutorConfig::Ideal,
        server_opt: ServerOptConfig::Plain,
    };

    // 1. Pre-train an agent with the two-stage procedure.
    let mut feddrl_cfg = FedDrlConfig::default();
    feddrl_cfg.ddpg.hidden = 64;
    feddrl_cfg.ddpg.warmup = 8;
    let ts = TwoStageConfig {
        workers: 2,
        online_rounds: 8,
        offline_updates: 20,
        seed: 7,
    };
    let (mut agent, report) =
        two_stage_train(&model, &train, &test, &partition, &fl_cfg, &feddrl_cfg, &ts);
    println!(
        "two-stage: {} worker experiences merged, {} offline updates",
        report.merged_experiences, report.offline_updates
    );

    // 2. Persist to disk (deploy checkpoint: buffer excluded).
    let dir = std::env::temp_dir().join("feddrl_example_ckpt");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("agent.json");
    AgentCheckpoint::capture(&agent, false)
        .save(&path)
        .expect("save checkpoint");
    println!("saved checkpoint to {}", path.display());

    // 3. Restore and verify bit-identical decisions.
    let mut restored = AgentCheckpoint::load(&path).expect("load").restore();
    let probe_state = vec![0.1f32; 3 * fl_cfg.participants];
    assert_eq!(
        agent.act(&probe_state, false),
        restored.act(&probe_state, false),
        "restored agent must act identically"
    );
    println!("restored agent acts identically on a probe state");

    // 4. Warm-start aggregation on the measured run, driven one round at
    //    a time via `Session::step` so the agent could be re-checkpointed
    //    between rounds (here: after round 5).
    let mut strategy = FedDrl::from_agent(restored, &feddrl_cfg);
    let mut session = SessionBuilder::new(&model, &train, &test, &partition, &mut strategy)
        .config(&fl_cfg)
        .dataset_name("mnist-like")
        .build()
        .expect("valid federated config");
    let mut records = Vec::new();
    while let Some(record) = session.step().expect("round") {
        if record.round == 5 {
            println!("  (round 5 checkpoint hook would persist the agent here)");
        }
        records.push(record.clone());
    }
    let history = session.into_history(records);
    println!(
        "warm-started FedDRL: best accuracy {:.2}% (round {})",
        history.best().best_accuracy * 100.0,
        history.best().best_round
    );
    std::fs::remove_dir_all(&dir).ok();
}

//! Extending the framework: writing a custom client-selection policy.
//!
//! Implements "RoundRobin" — a user-defined [`SelectionPolicy`] that walks
//! the federation deterministically so every client participates at the
//! same rate — and plugs it into a session next to the built-ins. Also
//! demonstrates the bandwidth-aware built-in avoiding deadline-cut
//! stragglers on a heterogeneous fleet.
//!
//! Run with: `cargo run --release --example custom_selection`

use feddrl_repro::prelude::*;

/// Perfect-fairness selection: clients take turns in id order, `K` per
/// round, wrapping around the federation. Ignores the provided RNG — a
/// policy may be fully deterministic.
///
/// It also ignores `ctx.executor`, the round executor's [`ExecutorView`]
/// (device fleet, deadline, in-flight and departed clients, observed
/// reliability telemetry — `ExecutorView::default()` under the ideal
/// executor). The built-in policies of part 2 rank on it, through helpers
/// such as `ctx.predicted_completion_s(c)` and `ctx.is_departed(c)`.
struct RoundRobin {
    cursor: usize,
}

impl SelectionPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>, _rng: &mut Rng64) -> Vec<usize> {
        let picked = (0..ctx.participants)
            .map(|i| (self.cursor + i) % ctx.n_clients)
            .collect();
        self.cursor = (self.cursor + ctx.participants) % ctx.n_clients;
        picked
    }
}

fn main() {
    let (train, test) = SynthSpec {
        train_size: 2000,
        test_size: 400,
        ..SynthSpec::mnist_like()
    }
    .generate(11);
    let partition = PartitionMethod::ce(0.6)
        .partition(&train, 12, &mut Rng64::new(3))
        .expect("partition");
    let model = ModelSpec::Mlp {
        in_dim: train.feature_dim(),
        hidden: vec![32],
        out_dim: train.num_classes(),
    };
    let fl_cfg = FlConfig {
        rounds: 12,
        participants: 4,
        local: LocalTrainConfig {
            epochs: 2,
            batch_size: 16,
            lr: 0.05,
            ..Default::default()
        },
        eval_batch: 256,
        seed: 7,
        log_every: 0,
        selection: Selection::Uniform,
        executor: ExecutorConfig::Ideal,
        server_opt: ServerOptConfig::Plain,
    };

    // --- 1. The custom policy, end to end.
    let mut strategy = FedAvg;
    let history = SessionBuilder::new(&model, &train, &test, &partition, &mut strategy)
        .config(&fl_cfg)
        .dataset_name("mnist-like")
        .selection_policy(Box::new(RoundRobin { cursor: 0 }))
        .build()
        .expect("valid federated config")
        .run()
        .expect("round-robin run");

    let mut turns = vec![0usize; partition.n_clients()];
    for r in &history.records {
        for &c in &r.selected {
            turns[c] += 1;
        }
    }
    println!(
        "round-robin over {} rounds (N = {}, K = {}): best acc {:.2}%",
        fl_cfg.rounds,
        partition.n_clients(),
        fl_cfg.participants,
        history.best().best_accuracy * 100.0
    );
    println!("  participation per client: {turns:?} (perfectly balanced)");
    assert!(
        turns.iter().max() == turns.iter().min(),
        "round-robin must balance participation exactly"
    );

    // --- 2. The bandwidth-aware built-in vs uniform on a skewed fleet
    //     with a deadline at the 60th completion percentile: the policy
    //     should stop sampling clients the deadline would cut anyway.
    let hetero = ExecutorConfig::Deadline(HeteroConfig {
        fleet: FleetConfig {
            compute_skew: 4.0,
            bandwidth_skew: 2.0,
            seed: 0xF1EE7,
            ..Default::default()
        },
        deadline_s: Some(14.0),
        late_policy: LatePolicy::Drop,
        ..Default::default()
    });
    for (label, selection) in [
        ("uniform", Selection::Uniform),
        (
            "bandwidth-aware",
            Selection::BandwidthAware { candidates: 9 },
        ),
    ] {
        let mut strategy = FedAvg;
        let h = SessionBuilder::new(&model, &train, &test, &partition, &mut strategy)
            .config(&fl_cfg)
            .dataset_name("mnist-like")
            .selection(selection)
            .executor(hetero.clone())
            .build()
            .expect("valid federated config")
            .run()
            .expect("hetero run");
        println!(
            "{label:>16}: best acc {:.2}%, stragglers cut {}, mean K' {:.2}",
            h.best().best_accuracy * 100.0,
            h.total_stragglers(),
            h.mean_participation()
        );
    }
}

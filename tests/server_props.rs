//! Property-based hardening of the federated round loop and the
//! discrete-event heterogeneity engine.
//!
//! The refactor of the round loop onto the `RoundExecutor` abstraction
//! promises three invariants, checked here: (1) the ideal executor is
//! byte-identical to the pre-refactor loop (golden JSON fixture), (2) an
//! unbounded deadline with zero dropout reduces the deadline executor to
//! the ideal one, and (3) impact factors stay on the simplex under
//! arbitrary dropout/deadline patterns. The event-queue laws (nondecreasing
//! pop order, also under schedule/pop interleavings across multiple model
//! versions with FIFO tie-break; round time = max, not sum, of completions)
//! are checked on randomized inputs. The buffered asynchronous executor has
//! its own suite in `tests/async_props.rs`.

use feddrl_repro::prelude::*;
use proptest::prelude::*;
// Both glob imports export a `Strategy` trait (ours vs proptest's);
// re-import proptest's unambiguously for method resolution.
use proptest::strategy::Strategy as _;

mod common;
use common::{ctx, golden_json, run_session};

/// The exact configuration the golden fixture was generated with (by the
/// pre-refactor loop at the commit introducing the executor abstraction).
fn golden_setup() -> (ModelSpec, Dataset, Dataset, Partition, FlConfig) {
    let (train, test) = SynthSpec {
        train_size: 600,
        test_size: 150,
        ..SynthSpec::mnist_like()
    }
    .generate(5);
    let partition = PartitionMethod::ce(0.6)
        .partition(&train, 6, &mut Rng64::new(9))
        .unwrap();
    let spec = ModelSpec::Mlp {
        in_dim: train.feature_dim(),
        hidden: vec![16],
        out_dim: train.num_classes(),
    };
    let cfg = FlConfig {
        rounds: 3,
        participants: 5,
        local: LocalTrainConfig {
            epochs: 1,
            batch_size: 16,
            lr: 0.05,
            ..Default::default()
        },
        eval_batch: 64,
        seed: 77,
        log_every: 0,
        selection: Selection::Uniform,
        executor: ExecutorConfig::Ideal,
        server_opt: ServerOptConfig::Plain,
    };
    (spec, train, test, partition, cfg)
}

/// The ideal executor reproduces the pre-refactor round loop exactly:
/// its serialized history (timings scrubbed) is byte-identical to the
/// fixture generated before the `RoundExecutor` abstraction existed.
///
/// Regenerate (only for an *intentional* format change, never to paper
/// over a behavioral one) with:
/// `REGEN_GOLDEN=1 cargo test --test server_props golden`.
#[test]
fn ideal_history_matches_pre_refactor_golden_fixture() {
    let (spec, train, test, partition, cfg) = golden_setup();
    let history = run_session(&spec, &train, &test, &partition, &mut FedAvg, &cfg);
    let json = golden_json(history);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/ideal_history.json"
    );
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(path, &json).expect("regenerate golden fixture");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("read golden fixture");
    assert_eq!(
        json, golden,
        "ideal-executor history diverged from the pre-refactor loop"
    );
}

/// Tiny federated environment for the executor properties (kept small:
/// every proptest case below runs full federated trainings).
fn tiny_env(data_seed: u64) -> (ModelSpec, Dataset, Dataset, Partition) {
    let (train, test) = SynthSpec {
        train_size: 400,
        test_size: 100,
        ..SynthSpec::mnist_like()
    }
    .generate(data_seed);
    let partition = PartitionMethod::Iid
        .partition(&train, 5, &mut Rng64::new(3))
        .unwrap();
    let spec = ModelSpec::Mlp {
        in_dim: train.feature_dim(),
        hidden: vec![8],
        out_dim: train.num_classes(),
    };
    (spec, train, test, partition)
}

fn tiny_cfg(executor: ExecutorConfig) -> FlConfig {
    FlConfig {
        rounds: 2,
        participants: 4,
        local: LocalTrainConfig {
            epochs: 1,
            batch_size: 16,
            lr: 0.05,
            ..Default::default()
        },
        eval_batch: 64,
        seed: 11,
        log_every: 0,
        selection: Selection::Uniform,
        executor,
        server_opt: ServerOptConfig::Plain,
    }
}

/// `RoundRecord::impact_factors`/`client_losses_before` align with the
/// *aggregated* set (`HeteroRoundRecord::aggregated_ids`), not with
/// `selected`: under carry-over the aggregated set omits stragglers and
/// re-injects clients sampled in earlier rounds, so the two genuinely
/// diverge — which is exactly what the field docs must (and now do) say.
#[test]
fn factor_alignment_follows_aggregated_ids_not_selected() {
    let (spec, train, test, partition) = tiny_env(4);
    let fleet = FleetConfig {
        compute_skew: 5.0,
        seed: 17,
        ..Default::default()
    };
    // A deadline at the 40th percentile cuts the slow majority, so under
    // CarryOver their updates land one-plus rounds late.
    let deadline = FleetView::new(5, &fleet).completion_percentile_s(4_000_000, 0.4);
    let mut cfg = tiny_cfg(ExecutorConfig::Deadline(HeteroConfig {
        fleet,
        deadline_s: Some(deadline),
        late_policy: LatePolicy::CarryOver,
        ..Default::default()
    }));
    cfg.rounds = 6;
    let history = run_session(&spec, &train, &test, &partition, &mut FedAvg, &cfg);
    let mut saw_carry = false;
    let mut saw_divergence = false;
    for r in &history.records {
        let h = r.hetero.as_ref().expect("deadline run records telemetry");
        assert_eq!(
            r.impact_factors.len(),
            h.aggregated_ids.len(),
            "round {}: impact_factors must align with aggregated_ids",
            r.round
        );
        assert_eq!(
            r.client_losses_before.len(),
            h.aggregated_ids.len(),
            "round {}: client_losses_before must align with aggregated_ids",
            r.round
        );
        saw_carry |= h.carried_in > 0;
        saw_divergence |= h.aggregated_ids != r.selected;
    }
    assert!(
        saw_carry && saw_divergence,
        "the run must actually exercise carry-over (carried {saw_carry}, diverged {saw_divergence})"
    );
}

fn arb_fleet() -> impl proptest::strategy::Strategy<Value = FleetConfig> {
    (1.0f64..6.0, 1.0f64..4.0, 0.0f64..1.0, 0u64..1000).prop_map(
        |(compute_skew, bandwidth_skew, latency_s, seed)| FleetConfig {
            compute_skew,
            bandwidth_skew,
            latency_s,
            seed,
            ..Default::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For any seeded device fleet, an unbounded deadline with zero
    /// dropout reduces the deadline executor to the ideal one: identical
    /// accuracies, selections and impact factors, with clean telemetry.
    #[test]
    fn infinite_deadline_reduces_to_ideal(fleet in arb_fleet()) {
        let (spec, train, test, partition) = tiny_env(8);
        let ideal = run_session(
            &spec, &train, &test, &partition, &mut FedAvg,
            &tiny_cfg(ExecutorConfig::Ideal),
        );
        let hetero_cfg = ExecutorConfig::Deadline(HeteroConfig {
            fleet,
            deadline_s: None,
            late_policy: LatePolicy::Drop,
            ..Default::default()
        });
        let hetero = run_session(
            &spec, &train, &test, &partition, &mut FedAvg, &tiny_cfg(hetero_cfg),
        );
        prop_assert_eq!(ideal.accuracies(), hetero.accuracies());
        for (ri, rh) in ideal.records.iter().zip(hetero.records.iter()) {
            prop_assert_eq!(&ri.selected, &rh.selected);
            prop_assert_eq!(&ri.impact_factors, &rh.impact_factors);
            prop_assert_eq!(&ri.client_losses_before, &rh.client_losses_before);
            prop_assert!(ri.hetero.is_none());
            let h = rh.hetero.as_ref().expect("deadline run must record telemetry");
            prop_assert_eq!(h.stragglers, 0);
            prop_assert_eq!(h.dropouts, 0);
            prop_assert_eq!(h.aggregated(), rh.selected.len());
            prop_assert_eq!(&h.aggregated_ids, &rh.selected);
            prop_assert!(h.sim_time_s > 0.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under arbitrary dropout probabilities and deadlines, every
    /// non-empty round's impact factors stay normalized (sum ≈ 1), the
    /// telemetry is self-consistent, and participation accounting closes:
    /// dropouts + stragglers + fresh arrivals = sampled clients.
    #[test]
    fn factors_stay_normalized_under_arbitrary_dropout(
        dropout in 0.0f64..0.9,
        deadline_scale in 0.5f64..2.0,
        fleet_seed in 0u64..1000,
    ) {
        let (spec, train, test, partition) = tiny_env(9);
        let fleet = FleetConfig {
            compute_skew: 4.0,
            dropout,
            seed: fleet_seed,
            ..Default::default()
        };
        // Deadline anywhere from "cuts half the fleet" to "generous".
        let probe = FleetView::new(5, &fleet);
        let deadline = probe.completion_percentile_s(4_000_000, 0.5) * deadline_scale;
        let cfg = tiny_cfg(ExecutorConfig::Deadline(HeteroConfig {
            fleet,
            deadline_s: Some(deadline),
            late_policy: LatePolicy::Drop,
            ..Default::default()
        }));
        let history = run_session(&spec, &train, &test, &partition, &mut FedAvg, &cfg);
        for r in &history.records {
            let h = r.hetero.as_ref().expect("deadline run must record telemetry");
            prop_assert_eq!(h.aggregated(), r.impact_factors.len());
            prop_assert_eq!(h.carried_in, 0); // LatePolicy::Drop
            prop_assert_eq!(
                h.dropouts + h.stragglers + h.aggregated(),
                r.selected.len(),
                "round {}: participation accounting does not close", r.round
            );
            if r.impact_factors.is_empty() {
                prop_assert_eq!(r.strategy_micros, 0);
            } else {
                let sum: f32 = r.impact_factors.iter().sum();
                prop_assert!(
                    (sum - 1.0).abs() < 1e-5,
                    "round {}: factors sum to {}", r.round, sum
                );
                prop_assert!(r.impact_factors.iter().all(|&a| a >= 0.0));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Events pop in nondecreasing virtual-time order for any schedule.
    #[test]
    fn event_queue_pops_in_nondecreasing_order(
        times in proptest::collection::vec(0.0f64..1e6, 1..200),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, EventKind::UploadComplete { client_id: i, version: 0 });
        }
        prop_assert_eq!(q.len(), times.len());
        let mut last = f64::NEG_INFINITY;
        let mut popped = 0;
        while let Some(e) = q.pop() {
            prop_assert!(
                e.time_s >= last,
                "popped {} after {}", e.time_s, last
            );
            last = e.time_s;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Interleaved `schedule`/`pop` across multiple in-flight model
    /// versions (the buffered executor's access pattern) preserves the
    /// total order: pop times never decrease even as new events are
    /// scheduled between pops, equal-time events pop FIFO regardless of
    /// the version they carry, and every popped event returns exactly the
    /// `(time, version)` it was scheduled with — so staleness derived at
    /// pop time (`current version − trained version`) is never negative.
    #[test]
    fn interleaved_multi_version_pops_preserve_total_order_and_fifo(
        steps in proptest::collection::vec(
            (proptest::collection::vec(0.0f64..50.0, 0..6), 0usize..8),
            1..24,
        ),
    ) {
        let mut q = EventQueue::new();
        let mut now = 0.0f64;
        let mut inserted = 0usize;
        // Per insertion id: the (time, version) it was scheduled with.
        let mut meta: Vec<(f64, usize)> = Vec::new();
        // Pop log: (time, insertion id).
        let mut popped: Vec<(f64, usize)> = Vec::new();
        let check_pop = |e: Event,
                         now: &mut f64,
                         current_version: Option<usize>,
                         meta: &[(f64, usize)],
                         popped: &mut Vec<(f64, usize)>| {
            assert!(e.time_s >= *now, "pop {} rewound past {}", e.time_s, *now);
            *now = e.time_s;
            let EventKind::UploadComplete { client_id, version } = e.kind else {
                panic!("unexpected event kind");
            };
            assert_eq!(
                meta[client_id],
                (e.time_s, version),
                "event lost its scheduled time/version"
            );
            if let Some(v) = current_version {
                assert!(v >= version, "negative staleness: popped v{version} at v{v}");
            }
            popped.push((e.time_s, client_id));
        };
        for (version, (deltas, pops)) in steps.iter().enumerate() {
            // Model version `version`: dispatch a batch of uploads that
            // complete `delta` seconds from the current virtual time...
            for &delta in deltas {
                let t = now + delta;
                q.schedule(t, EventKind::UploadComplete { client_id: inserted, version });
                meta.push((t, version));
                inserted += 1;
            }
            // ...then consume a few arrivals, advancing the clock.
            for _ in 0..*pops {
                let Some(e) = q.pop() else { break };
                check_pop(e, &mut now, Some(version), &meta, &mut popped);
            }
        }
        while let Some(e) = q.pop() {
            check_pop(e, &mut now, None, &meta, &mut popped);
        }
        prop_assert_eq!(popped.len(), inserted, "events were lost");
        // Total order with FIFO tie-break: nondecreasing times, and equal
        // times pop in insertion order.
        for w in popped.windows(2) {
            prop_assert!(
                w[1].0 > w[0].0 || (w[1].0 == w[0].0 && w[1].1 > w[0].1),
                "order violated: {:?} then {:?}", w[0], w[1]
            );
        }
    }

    /// The simulated round time of an unbounded round equals the *max*
    /// (not the sum) of the surviving clients' completion times.
    #[test]
    fn round_time_is_max_not_sum_of_completions(
        fleet in arb_fleet(),
        k in 2usize..12,
    ) {
        let cfg = HeteroConfig {
            fleet,
            deadline_s: None,
            late_policy: LatePolicy::Drop,
            ..Default::default()
        };
        let mut ex = DeadlineExecutor::new(cfg, k, 50_000, k, 17);
        let selected: Vec<usize> = (0..k).collect();
        let train = |_: &TrainContext<'_>, dispatches: &[Dispatch]| -> Vec<ClientUpdate> {
            dispatches
                .iter()
                .map(|&Dispatch { client_id, .. }| ClientUpdate {
                    client_id,
                    weights: vec![0.0; 4],
                    n_samples: 10,
                    loss_before: 1.0,
                    loss_after: 0.5,
                    staleness: 0,
                    mask: None,
                })
                .collect()
        };
        let view = ex.view();
        let fleet = view.fleet.expect("deadline executor has a fleet");
        let completions: Vec<f64> = (0..k)
            .map(|c| fleet.profile(c).completion_time_s(view.upload_bytes))
            .collect();
        let out = ex.execute(&ctx(0), &selected, &train);
        let h = out.hetero.expect("deadline executor always reports");
        let max = completions.iter().copied().fold(0.0f64, f64::max);
        let sum: f64 = completions.iter().sum();
        prop_assert!((h.sim_time_s - max).abs() < 1e-9,
            "round time {} != max completion {}", h.sim_time_s, max);
        prop_assert!(k == 1 || h.sim_time_s < sum,
            "round time {} looks like a sum ({})", h.sim_time_s, sum);
    }
}

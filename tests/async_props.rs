//! Property suite for the buffered asynchronous executor
//! (`feddrl_fl::executor::BufferedExecutor`) and its staleness machinery,
//! in the mold of `tests/server_props.rs`.
//!
//! Contracts proven here:
//!
//! 1. **Golden reduction** — a full buffer (`m = K`) on a homogeneous
//!    zero-dropout fleet reduces the buffered executor to the paper's
//!    synchronous loop *byte-identically*: with the per-round telemetry
//!    stripped, its serialized history equals the committed
//!    `tests/golden/ideal_history.json` fixture.
//! 2. **Simplex invariance** — under arbitrary fleets, buffer sizes and
//!    discounts, every non-empty round's impact factors stay normalized,
//!    and with discount `None` a zero-staleness round's factors are
//!    bit-identical to the undiscounted path.
//! 3. **Staleness monotonicity** — a faster device never accumulates more
//!    average staleness than a slower one.
//! 4. **Counting law** — aggregation count × buffer size = accepted-update
//!    count, under arbitrary dropout: the buffer aggregates exactly `m`
//!    updates or nothing.
//! 5. **Wall-clock-to-accuracy** — on a skewed fleet the buffered
//!    executor reaches a shared accuracy target in less simulated
//!    wall-clock than the deadline round barrier (the `async` sweep's headline,
//!    pinned as a test).
//! 6. **Carry-over aging** — the same `StalenessDiscount` machinery ages
//!    `LatePolicy::CarryOver` reinjections: a carried update's normalized
//!    impact factor shrinks relative to the undiscounted run.

use feddrl_repro::prelude::*;
use proptest::prelude::*;
// Both glob imports export a `Strategy` trait (ours vs proptest's);
// re-import proptest's unambiguously for method resolution.
use proptest::strategy::Strategy as _;

mod common;
use common::{ctx, golden_json, run_session};

/// The golden fixture's environment (must match `server_props`).
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

fn stub_update(client_id: usize) -> ClientUpdate {
    ClientUpdate {
        client_id,
        weights: vec![0.0; 4],
        n_samples: 10,
        loss_before: 1.0,
        loss_after: 0.5,
        staleness: 0,
        mask: None,
    }
}

fn stub_train(_ctx: &TrainContext<'_>, dispatches: &[Dispatch]) -> Vec<ClientUpdate> {
    dispatches
        .iter()
        .map(|d| stub_update(d.client_id))
        .collect()
}

/// Contract 1: with `m = K` on a homogeneous zero-dropout fleet, every
/// sampled client's upload lands in the same buffer fill, in sampling
/// order and fresh — so the training trajectory is the synchronous one.
/// Stripping the (purely additive) telemetry must reproduce the committed
/// pre-executor golden fixture byte for byte.
#[test]
fn full_buffer_on_homogeneous_fleet_reduces_to_ideal_golden_fixture() {
    let (spec, train, test, partition, mut cfg) = golden_setup();
    cfg.executor = ExecutorConfig::Buffered(BufferedConfig {
        fleet: FleetConfig::default(), // homogeneous, zero dropout
        buffer_size: cfg.participants, // m = K
        staleness: StalenessDiscount::None,
        server_mix: None,
    });
    let history = run_session(&spec, &train, &test, &partition, &mut FedAvg, &cfg);

    // The telemetry itself must describe a synchronous run...
    for r in &history.records {
        let h = r
            .hetero
            .as_ref()
            .expect("buffered run must record telemetry");
        assert_eq!(h.aggregated_ids, r.selected, "sampling order not preserved");
        assert_eq!(
            h.staleness,
            vec![0; r.selected.len()],
            "nothing may be stale"
        );
        assert_eq!((h.busy, h.buffered, h.dropouts, h.stragglers), (0, 0, 0, 0));
        assert!(h.sim_time_s > 0.0, "virtual time must pass");
    }

    // ...and with it stripped, the history is byte-identical to the
    // golden fixture (timings scrubbed like every golden comparison).
    let mut scrubbed = history;
    for r in &mut scrubbed.records {
        r.hetero = None;
    }
    let json = golden_json(scrubbed);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/ideal_history.json"
    );
    let golden = std::fs::read_to_string(path).expect("read golden fixture");
    assert_eq!(
        json, golden,
        "buffered executor with m = K diverged from the synchronous loop"
    );
}

/// The buffered golden fixture's run: a 200-client skewed fleet with
/// dropout, diurnal availability and churn, staleness-balanced selection,
/// `K = 16` dispatched and `m = 4` aggregated per round, real training.
fn buffered_golden_history() -> RunHistory {
    let (train, test) = SynthSpec {
        train_size: 2_000,
        test_size: 150,
        ..SynthSpec::mnist_like()
    }
    .generate(5);
    let partition = PartitionMethod::Iid
        .partition(&train, 200, &mut Rng64::new(9))
        .unwrap();
    let (spec, _, _, _, golden_cfg) = golden_setup();
    let cfg = FlConfig {
        rounds: 60,
        participants: 16,
        selection: Selection::StalenessBalanced { candidates: 48 },
        executor: ExecutorConfig::Buffered(BufferedConfig {
            fleet: FleetConfig {
                compute_skew: 4.0,
                bandwidth_skew: 2.0,
                dropout: 0.1,
                diurnal: Some(Default::default()),
                churn: Some(Default::default()),
                seed: 0xB0FF,
                ..Default::default()
            },
            buffer_size: 4,
            ..Default::default()
        }),
        ..golden_cfg
    };
    run_session(&spec, &train, &test, &partition, &mut FedAvg, &cfg)
}

/// The buffered executor's own golden fixture, recorded from the executor
/// that trained every client at dispatch and parked the full update until
/// its upload landed. Training at arrival, from a snapshot of the dispatch
/// round's broadcast, must reproduce it byte for byte.
#[test]
fn buffered_executor_reproduces_its_golden_fixture() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/buffered_history.json"
    );
    let golden = std::fs::read_to_string(path).expect("read golden fixture");
    let history = buffered_golden_history();
    let stale = history.mean_staleness();
    assert!(stale > 0.0, "the fixture must exercise stale arrivals");
    assert_eq!(
        golden_json(history),
        golden,
        "buffered history diverged from its fixture"
    );
}

/// Contract 3: run the executor directly over a fleet with well-separated
/// device speeds, all clients redispatched as soon as they idle. Mean
/// observed staleness must be non-increasing in device speed — a faster
/// device's uploads never age more than a slower one's.
#[test]
fn staleness_is_monotonically_non_increasing_in_device_speed() {
    let cfg = BufferedConfig {
        fleet: FleetConfig {
            compute_skew: 8.0,
            seed: 0x57A1E,
            ..Default::default()
        },
        buffer_size: 2,
        ..Default::default()
    };
    const N: usize = 6;
    let mut ex = BufferedExecutor::new(cfg, N, 1_000, N, 7);
    let completion: Vec<f64> = {
        let view = ex.view();
        let fleet = view.fleet.expect("buffered executor has a fleet");
        (0..N)
            .map(|c| fleet.profile(c).completion_time_s(view.upload_bytes))
            .collect()
    };

    let mut total = [0usize; N];
    let mut count = [0usize; N];
    let selected: Vec<usize> = (0..N).collect();
    for round in 0..200 {
        let out = ex.execute(&ctx(round), &selected, &stub_train);
        for u in &out.updates {
            total[u.client_id] += u.staleness;
            count[u.client_id] += 1;
        }
    }
    let mean: Vec<f64> = (0..N)
        .map(|c| total[c] as f64 / count[c].max(1) as f64)
        .collect();
    assert!(
        count.iter().all(|&c| c > 0),
        "every device must eventually be aggregated: {count:?}"
    );
    let mut order: Vec<usize> = (0..N).collect();
    order.sort_by(|&a, &b| completion[a].total_cmp(&completion[b]));
    for pair in order.windows(2) {
        let (fast, slow) = (pair[0], pair[1]);
        assert!(
            mean[fast] <= mean[slow] + 1e-9,
            "faster device {fast} ({:.2}s) has mean staleness {:.3} > slower \
             device {slow} ({:.2}s) with {:.3}",
            completion[fast],
            mean[fast],
            completion[slow],
            mean[slow]
        );
    }
    assert!(
        mean[order[N - 1]] > mean[order[0]],
        "an 8x-skewed fleet must actually spread staleness: {mean:?}"
    );
}

/// Contract 5 (the `async` sweep's headline, pinned): on a skewed fleet, the
/// buffered executor reaches a shared accuracy target in strictly less
/// simulated wall-clock than the deadline round barrier.
#[test]
fn buffered_reaches_target_accuracy_in_less_sim_time_than_deadline() {
    let (train, test) = SynthSpec {
        train_size: 500,
        test_size: 150,
        ..SynthSpec::mnist_like()
    }
    .generate(5);
    let partition = PartitionMethod::Iid
        .partition(&train, 10, &mut Rng64::new(3))
        .unwrap();
    let spec = ModelSpec::Mlp {
        in_dim: train.feature_dim(),
        hidden: vec![12],
        out_dim: train.num_classes(),
    };
    let fleet = FleetConfig {
        compute_skew: 8.0,
        seed: 0xFA57,
        ..Default::default()
    };
    let base_cfg = FlConfig {
        rounds: 10,
        participants: 8,
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
        executor: ExecutorConfig::Ideal,
        server_opt: ServerOptConfig::Plain,
    };

    // Baseline: the barrier waits out its 70th-percentile deadline every
    // round that cuts a straggler.
    let probe = DeadlineExecutor::new(
        HeteroConfig {
            fleet: fleet.clone(),
            ..Default::default()
        },
        10,
        spec.build(1).param_count(),
        base_cfg.participants,
        base_cfg.seed,
    );
    let view = probe.view();
    let deadline = view
        .fleet
        .expect("deadline executor has a fleet")
        .completion_percentile_s(view.upload_bytes, 0.7);
    let mut deadline_cfg = base_cfg.clone();
    deadline_cfg.executor = ExecutorConfig::Deadline(HeteroConfig {
        fleet: fleet.clone(),
        deadline_s: Some(deadline),
        late_policy: LatePolicy::Drop,
        ..Default::default()
    });
    let barrier = run_session(&spec, &train, &test, &partition, &mut FedAvg, &deadline_cfg);

    // Shared target: what the barrier demonstrably reaches.
    let target = barrier.best().best_accuracy * 0.9;
    let barrier_time = barrier
        .sim_time_to_accuracy_s(target)
        .expect("the barrier run must reach 90% of its own best");

    // Buffered: aggregate the 3 fastest of every 8 dispatches, FedBuff
    // server mixing, early-stopped at the shared target.
    let mut buffered_cfg = base_cfg.clone();
    buffered_cfg.rounds = 80;
    buffered_cfg.executor = ExecutorConfig::Buffered(BufferedConfig {
        fleet,
        buffer_size: 3,
        staleness: StalenessDiscount::None,
        server_mix: Some(0.375), // m / K
    });
    let mut strategy = FedAvg;
    let buffered = SessionBuilder::new(&spec, &train, &test, &partition, &mut strategy)
        .config(&buffered_cfg)
        .observer(Box::new(EarlyStop {
            target_accuracy: target,
        }))
        .build()
        .expect("valid config")
        .run()
        .expect("buffered run");
    let buffered_time = buffered
        .sim_time_to_accuracy_s(target)
        .expect("buffered run never reached the shared target");

    assert!(
        buffered_time < barrier_time,
        "buffered executor was not faster to {target:.3} accuracy: \
         {buffered_time:.1}s vs barrier {barrier_time:.1}s"
    );
    assert!(
        buffered.mean_staleness() > 0.0,
        "a skewed fleet with a small buffer must see staleness"
    );
}

/// Contract 6: the carry-over satellite, session-level. Two identical
/// deadline/CarryOver runs — one undiscounted, one with polynomial aging —
/// stay structurally aligned (same seeds drive selection, dropouts and
/// straggler structure), so in every round that carries a stale update in,
/// the discounted run must give that update strictly less normalized
/// weight, redistributing it to the fresh arrivals.
#[test]
fn carry_over_aging_shrinks_stale_factors_session_level() {
    let (spec, train, test, partition, mut cfg) = golden_setup();
    cfg.rounds = 8;
    cfg.participants = 4;
    let mk_exec = |staleness| {
        ExecutorConfig::Deadline(HeteroConfig {
            fleet: FleetConfig {
                compute_skew: 5.0,
                seed: 0xCA22,
                ..Default::default()
            },
            // Placed below the fleet median so stragglers are common.
            deadline_s: Some(10.0),
            late_policy: LatePolicy::CarryOver,
            staleness,
            ..Default::default()
        })
    };
    cfg.executor = mk_exec(StalenessDiscount::None);
    let plain = run_session(&spec, &train, &test, &partition, &mut FedAvg, &cfg);
    cfg.executor = mk_exec(StalenessDiscount::Polynomial { alpha: 1.0 });
    let aged = run_session(&spec, &train, &test, &partition, &mut FedAvg, &cfg);

    let mut carried_rounds = 0usize;
    for (rp, ra) in plain.records.iter().zip(aged.records.iter()) {
        let (hp, ha) = (rp.hetero.as_ref().unwrap(), ra.hetero.as_ref().unwrap());
        // Same structure: the discount only redistributes weight.
        assert_eq!(hp.aggregated_ids, ha.aggregated_ids);
        assert_eq!(hp.staleness, ha.staleness);
        let stale: Vec<usize> = (0..ha.staleness.len())
            .filter(|&i| ha.staleness[i] > 0)
            .collect();
        let fresh: Vec<usize> = (0..ha.staleness.len())
            .filter(|&i| ha.staleness[i] == 0)
            .collect();
        if stale.is_empty() || fresh.is_empty() {
            continue;
        }
        carried_rounds += 1;
        // The invariant the discount guarantees: every stale-to-fresh
        // weight *ratio* strictly shrinks (with several stale updates of
        // different ages, a mildly stale one may still gain in absolute
        // normalized terms as harder-discounted peers release weight).
        for &i in &stale {
            for &j in &fresh {
                assert!(
                    ra.impact_factors[i] * rp.impact_factors[j]
                        < rp.impact_factors[i] * ra.impact_factors[j],
                    "round {}: stale update {i} (s = {}) did not lose weight \
                     relative to fresh update {j}",
                    ra.round,
                    ha.staleness[i]
                );
            }
        }
    }
    assert!(
        carried_rounds > 0,
        "scenario produced no mixed stale/fresh aggregation to compare"
    );
}

fn arb_buffered() -> impl proptest::strategy::Strategy<Value = BufferedConfig> {
    (1.0f64..8.0, 1usize..=4, 0u64..1000, 0usize..3).prop_map(
        |(compute_skew, buffer_size, seed, discount)| BufferedConfig {
            fleet: FleetConfig {
                compute_skew,
                seed,
                ..Default::default()
            },
            buffer_size,
            staleness: match discount {
                0 => StalenessDiscount::None,
                1 => StalenessDiscount::Polynomial { alpha: 1.0 },
                _ => StalenessDiscount::Hinge { cutoff: 1 },
            },
            server_mix: None,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Contract 2, session-level: for arbitrary buffered configurations,
    /// every non-empty round aggregates exactly `buffer_size` updates
    /// with simplex-normalized factors aligned to the recorded staleness,
    /// and with discount `None` every zero-staleness round is untouched.
    #[test]
    fn buffered_factors_stay_on_the_simplex(cfg in arb_buffered()) {
        let (train, test) = SynthSpec {
            train_size: 400,
            test_size: 100,
            ..SynthSpec::mnist_like()
        }
        .generate(8);
        let partition = PartitionMethod::Iid
            .partition(&train, 5, &mut Rng64::new(3))
            .unwrap();
        let spec = ModelSpec::Mlp {
            in_dim: train.feature_dim(),
            hidden: vec![8],
            out_dim: train.num_classes(),
        };
        let m = cfg.buffer_size;
        let fl_cfg = FlConfig {
            rounds: 4,
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
            executor: ExecutorConfig::Buffered(cfg),
            server_opt: ServerOptConfig::Plain,
        };
        let history = run_session(&spec, &train, &test, &partition, &mut FedAvg, &fl_cfg);
        for r in &history.records {
            let h = r.hetero.as_ref().expect("buffered run must record telemetry");
            prop_assert!(
                r.impact_factors.is_empty() || r.impact_factors.len() == m,
                "round {}: {} factors for buffer {m}", r.round, r.impact_factors.len()
            );
            prop_assert_eq!(h.staleness.len(), r.impact_factors.len());
            prop_assert_eq!(h.aggregated(), r.impact_factors.len());
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
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Contract 4, executor-level: under arbitrary per-device dropout and
    /// fleet skew, every aggregation holds exactly `buffer_size` updates,
    /// so aggregations × buffer size = accepted updates, and the dispatch
    /// accounting closes (trained = accepted + in flight + still
    /// buffered).
    #[test]
    fn aggregation_count_times_buffer_equals_accepted_updates(
        dropout in 0.0f64..0.9,
        compute_skew in 1.0f64..8.0,
        buffer_size in 1usize..=5,
        seed in 0u64..1000,
    ) {
        let cfg = BufferedConfig {
            fleet: FleetConfig {
                compute_skew,
                dropout,
                seed,
                ..Default::default()
            },
            buffer_size,
            ..Default::default()
        };
        const N: usize = 8;
        const K: usize = 5;
        let mut ex = BufferedExecutor::new(cfg, N, 500, K, seed ^ 0xD0);
        let mut dispatched = 0usize;
        let mut accepted = 0usize;
        let mut aggregations = 0usize;
        for round in 0..20 {
            let selected: Vec<usize> = (0..N).filter(|c| (c + round) % 2 == 0).collect();
            let out = ex.execute(&ctx(round), &selected, &stub_train);
            let h = out.hetero.expect("buffered executor always reports");
            dispatched += selected.len() - (h.dropouts + h.busy);
            prop_assert!(
                out.updates.is_empty() || out.updates.len() == buffer_size,
                "round {round}: partial aggregation of {}", out.updates.len()
            );
            prop_assert_eq!(h.buffered, ex.buffered());
            if !out.updates.is_empty() {
                aggregations += 1;
            }
            accepted += out.updates.len();
        }
        prop_assert_eq!(accepted, aggregations * buffer_size);
        prop_assert_eq!(
            dispatched, accepted + ex.in_flight() + ex.buffered(),
            "dispatch accounting does not close"
        );
    }

    /// Contract 2, discount form: `StalenessDiscount::None` at zero
    /// staleness multiplies factors by exactly 1 — the discounted path is
    /// bit-identical to the undiscounted one on all-fresh rounds — and
    /// every discount keeps factors in (0, 1] with value 1 at s = 0.
    #[test]
    fn discounts_are_exactly_one_at_zero_staleness(
        alpha in 0.0f64..4.0,
        cutoff in 0usize..5,
        s in 0usize..12,
    ) {
        for d in [
            StalenessDiscount::None,
            StalenessDiscount::Polynomial { alpha },
            StalenessDiscount::Hinge { cutoff },
        ] {
            prop_assert_eq!(d.factor(0), 1.0);
            let f = d.factor(s);
            prop_assert!(f > 0.0 && f <= 1.0, "{:?} factor({}) = {}", d, s, f);
        }
        prop_assert_eq!(StalenessDiscount::None.factor(s), 1.0);
    }
}

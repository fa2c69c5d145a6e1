//! Integration contract of the session-based orchestration API.
//!
//! Three promises from the redesign, checked at the workspace boundary:
//! (1) a `SessionBuilder` with default components reproduces the committed
//! golden fixture byte-for-byte (`server_props` checks the same fixture
//! and holds its regeneration switch); (2) driving a session one round
//! at a time via `step()` yields the same history as `run()`; (3)
//! degenerate configurations surface as typed `FlError`s from the builder
//! instead of panics mid-run, through every entry layer (fl and core) —
//! and so does a user strategy that misbehaves mid-run.

use feddrl_repro::prelude::*;

mod common;
use common::golden_json as scrubbed_json;

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

/// A default-component `SessionBuilder` is byte-identical to the
/// pre-session loop: same golden fixture as `server_props`' ideal run.
#[test]
fn session_builder_defaults_match_golden_fixture() {
    let (spec, train, test, partition, cfg) = golden_setup();
    let mut strategy = FedAvg;
    let history = SessionBuilder::new(&spec, &train, &test, &partition, &mut strategy)
        .config(&cfg)
        .build()
        .expect("golden config is valid")
        .run()
        .expect("golden run");
    let json = scrubbed_json(history);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/ideal_history.json"
    );
    let golden = std::fs::read_to_string(path).expect("read golden fixture");
    assert_eq!(
        json, golden,
        "SessionBuilder with default components diverged from the golden fixture"
    );
}

/// `step()`-driven sessions produce exactly the history `run()` does —
/// for the ideal executor, for a heterogeneous deadline-bounded one with
/// a non-default selection policy, and for the buffered asynchronous
/// executor (whose virtual clock and in-flight state persist *across*
/// `step()` calls — the equivalence proves that state is carried, not
/// reset per round).
#[test]
fn step_by_step_equals_run() {
    let (spec, train, test, partition, base_cfg) = golden_setup();
    let hetero = ExecutorConfig::Deadline(HeteroConfig {
        fleet: FleetConfig {
            compute_skew: 4.0,
            dropout: 0.2,
            ..Default::default()
        },
        deadline_s: Some(30.0),
        late_policy: LatePolicy::CarryOver,
        ..Default::default()
    });
    let buffered = ExecutorConfig::Buffered(BufferedConfig {
        fleet: FleetConfig {
            compute_skew: 4.0,
            dropout: 0.1,
            ..Default::default()
        },
        buffer_size: 2,
        staleness: StalenessDiscount::Polynomial { alpha: 1.0 },
        server_mix: Some(0.5),
    });
    let variants: [(Selection, ExecutorConfig); 3] = [
        (Selection::Uniform, ExecutorConfig::Ideal),
        (Selection::BandwidthAware { candidates: 6 }, hetero),
        (Selection::Uniform, buffered),
    ];
    for (selection, executor) in variants {
        let mut cfg = base_cfg.clone();
        cfg.selection = selection;
        cfg.executor = executor;

        let mut s1 = FedAvg;
        let whole = SessionBuilder::new(&spec, &train, &test, &partition, &mut s1)
            .config(&cfg)
            .dataset_name("mnist-like")
            .build()
            .expect("valid config")
            .run()
            .expect("run");

        let mut s2 = FedAvg;
        let mut session = SessionBuilder::new(&spec, &train, &test, &partition, &mut s2)
            .config(&cfg)
            .dataset_name("mnist-like")
            .build()
            .expect("valid config");
        let mut records = Vec::new();
        while let Some(record) = session.step().expect("step") {
            assert_eq!(record.round, records.len(), "step returned the wrong round");
            records.push(record.clone());
        }
        let steps = records.len();
        assert!(session.is_finished());
        assert!(
            session.step().expect("idempotent step").is_none(),
            "step on a finished session must be a no-op"
        );
        let stepped = session.into_history(records);

        assert_eq!(steps, cfg.rounds);
        assert_eq!(scrubbed_json(whole), scrubbed_json(stepped));
    }
}

/// Degenerate configs come back as typed errors from the builder — no
/// training compute is spent, nothing panics.
#[test]
fn builder_reports_typed_errors() {
    let (spec, train, test, partition, cfg) = golden_setup();

    let cases: [(FlConfig, FlError); 3] = [
        (
            FlConfig {
                participants: 0,
                ..cfg.clone()
            },
            FlError::ZeroParticipants,
        ),
        (
            FlConfig {
                participants: 7,
                ..cfg.clone()
            },
            FlError::ParticipantsExceedClients {
                participants: 7,
                n_clients: 6,
            },
        ),
        (
            FlConfig {
                rounds: 0,
                ..cfg.clone()
            },
            FlError::ZeroRounds,
        ),
    ];
    for (bad_cfg, expected) in cases {
        let mut strategy = FedAvg;
        let err = SessionBuilder::new(&spec, &train, &test, &partition, &mut strategy)
            .config(&bad_cfg)
            .build()
            .err()
            .expect("degenerate config must not build");
        assert_eq!(err, expected);
    }

    // The deadline executor's knobs are validated too.
    let mut strategy = FedAvg;
    let err = SessionBuilder::new(&spec, &train, &test, &partition, &mut strategy)
        .config(&cfg)
        .executor(ExecutorConfig::Deadline(HeteroConfig {
            deadline_s: Some(f64::NAN),
            ..Default::default()
        }))
        .build()
        .err()
        .expect("NaN deadline must not build");
    assert!(matches!(err, FlError::InvalidDeadline { .. }));
}

/// A misbehaving user strategy is a typed error from `step()`, raised
/// before aggregation touches the global model — the twin of the
/// misbehaving-policy `InvalidSelection` path.
#[test]
fn misbehaving_strategy_surfaces_invalid_factors() {
    /// All-ones factors, `missing` too few, the first one `first`.
    struct Bad {
        missing: usize,
        first: f32,
    }
    impl Strategy for Bad {
        fn name(&self) -> &'static str {
            "bad"
        }
        fn impact_factors(&mut self, _round: usize, summaries: &[ClientSummary]) -> Vec<f32> {
            let mut factors = vec![1.0; summaries.len() - self.missing];
            factors[0] = self.first;
            factors
        }
    }
    let (spec, train, test, partition, cfg) = golden_setup();
    let short = Bad {
        missing: 1,
        first: 1.0,
    };
    let nan = Bad {
        missing: 0,
        first: f32::NAN,
    };
    for mut bad in [short, nan] {
        let mut session = SessionBuilder::new(&spec, &train, &test, &partition, &mut bad)
            .config(&cfg)
            .build()
            .expect("golden config is valid");
        let before = session.global_params();
        let err = session.step().err();
        assert!(matches!(
            err,
            Some(FlError::InvalidFactors { round: 0, .. })
        ));
        assert_eq!(session.global_params(), before, "global model touched");
    }
}

/// A misbehaving `train_fn` is a typed error too: an update one weight
/// short, or carrying a mask of another length, names its round and client
/// and leaves the global model untouched — where the aggregation kernels
/// would have panicked on a length assert.
#[test]
fn ragged_update_surfaces_invalid_update() {
    let (spec, train, test, partition, cfg) = golden_setup();
    // Every client echoes the broadcast; the second one dispatched bends
    // its update out of shape.
    type Bend = fn(&mut ClientUpdate);
    let short: Bend = |u| {
        u.weights.pop();
    };
    let ragged_mask: Bend = |u| u.mask = Some(StructuredMask::full(u.weights.len() + 1));
    for bend in [short, ragged_mask] {
        let train_fn = move |ctx: &TrainContext<'_>, dispatches: &[Dispatch]| {
            let echo = |(i, d): (usize, &Dispatch)| {
                let mut update = ClientUpdate {
                    client_id: d.client_id,
                    weights: ctx.global.to_vec(),
                    n_samples: 1,
                    loss_before: 1.0,
                    loss_after: 0.5,
                    staleness: 0,
                    mask: None,
                };
                if i == 1 {
                    bend(&mut update);
                }
                update
            };
            dispatches.iter().enumerate().map(echo).collect()
        };
        let mut strategy = FedAvg;
        let mut session = SessionBuilder::new(&spec, &train, &test, &partition, &mut strategy)
            .config(&cfg)
            .train_fn(Box::new(train_fn))
            .build()
            .expect("golden config is valid");
        let before = session.global_params();
        let err = session.step().err();
        let Some(FlError::InvalidUpdate {
            round: 0,
            client_id,
            reason,
        }) = err
        else {
            panic!("expected InvalidUpdate, got {err:?}");
        };
        assert!(client_id < partition.n_clients());
        assert!(reason.contains("expected"), "reason: {reason}");
        assert_eq!(session.global_params(), before, "global model touched");
    }
}

/// A client reporting a NaN loss — what a peer's raw f32 bits on the wire
/// can carry — is a typed error naming its round and client, not a panic
/// in FedDRL's state vector, and the global model stays untouched.
#[test]
fn non_finite_loss_surfaces_invalid_update() {
    let (spec, train, test, partition, cfg) = golden_setup();
    let train_fn = |ctx: &TrainContext<'_>, dispatches: &[Dispatch]| {
        let echo = |(i, d): (usize, &Dispatch)| ClientUpdate {
            client_id: d.client_id,
            weights: ctx.global.to_vec(),
            n_samples: 1,
            loss_before: 1.0,
            loss_after: if i == 1 { f32::NAN } else { 0.5 },
            staleness: 0,
            mask: None,
        };
        dispatches.iter().enumerate().map(echo).collect()
    };
    let mut strategy = FedDrl::new(cfg.participants, &FedDrlConfig::default());
    let mut session = SessionBuilder::new(&spec, &train, &test, &partition, &mut strategy)
        .config(&cfg)
        .train_fn(Box::new(train_fn))
        .build()
        .expect("golden config is valid");
    let before = session.global_params();
    let err = session.step().err();
    let Some(FlError::InvalidUpdate {
        round: 0,
        client_id,
        reason,
    }) = err
    else {
        panic!("expected InvalidUpdate, got {err:?}");
    };
    assert!(client_id < partition.n_clients());
    assert!(reason.contains("finite"), "reason: {reason}");
    assert_eq!(session.global_params(), before, "global model touched");
}

/// The buffered executor's knobs surface as the new typed errors — from
/// the builder, before any compute is spent.
#[test]
fn builder_rejects_degenerate_buffered_configs() {
    let (spec, train, test, partition, cfg) = golden_setup();
    let buffered = |buffer_size, staleness, server_mix| {
        ExecutorConfig::Buffered(BufferedConfig {
            fleet: FleetConfig::default(),
            buffer_size,
            staleness,
            server_mix,
        })
    };
    type ErrCheck = fn(&FlError) -> bool;
    let cases: [(ExecutorConfig, ErrCheck); 4] = [
        (buffered(0, StalenessDiscount::None, None), |e| {
            matches!(e, FlError::ZeroBuffer)
        }),
        // golden_setup has K = 5 participants.
        (buffered(6, StalenessDiscount::None, None), |e| {
            matches!(
                e,
                FlError::BufferExceedsParticipants {
                    buffer_size: 6,
                    participants: 5
                }
            )
        }),
        (
            buffered(2, StalenessDiscount::Polynomial { alpha: f64::NAN }, None),
            |e| matches!(e, FlError::InvalidDiscount { .. }),
        ),
        (buffered(2, StalenessDiscount::None, Some(0.0)), |e| {
            matches!(e, FlError::InvalidServerMix { .. })
        }),
    ];
    for (executor, expect) in cases {
        let mut strategy = FedAvg;
        let err = SessionBuilder::new(&spec, &train, &test, &partition, &mut strategy)
            .config(&cfg)
            .executor(executor.clone())
            .build()
            .err()
            .unwrap_or_else(|| panic!("{executor:?} must not build"));
        assert!(expect(&err), "{executor:?} produced unexpected error {err}");
        // FlConfig::validate reports the same error without a builder.
        let mut direct = cfg.clone();
        direct.executor = executor;
        let direct_err = direct.validate(partition.n_clients()).err().unwrap();
        assert_eq!(direct_err, err);
    }
}

/// The core-crate entry point surfaces the same typed errors before any
/// (expensive) two-stage pre-training starts.
#[test]
fn try_run_feddrl_propagates_builder_errors() {
    let (spec, train, test, partition, mut cfg) = golden_setup();
    cfg.participants = 99;
    let err = try_run_feddrl(
        &spec,
        &train,
        &test,
        &partition,
        &cfg,
        &FedDrlRunConfig::default(),
        "mnist-like",
    )
    .err()
    .expect("K > N must not run");
    assert_eq!(
        err,
        FlError::ParticipantsExceedClients {
            participants: 99,
            n_clients: 6
        }
    );
}

/// Observers see every round in order, and any `Stop` vote ends the run
/// with the stopping round's record kept.
#[test]
fn observers_see_every_round_and_can_stop() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    struct Counter {
        rounds_seen: Arc<AtomicUsize>,
        stop_after: usize,
    }
    impl RoundObserver for Counter {
        fn on_round_end(&mut self, signals: &RoundSignals<'_>) -> RoundControl {
            let seen = self.rounds_seen.fetch_add(1, Ordering::SeqCst);
            assert_eq!(
                signals.record.round, seen,
                "observer saw rounds out of order"
            );
            // The ideal executor produces no reliability telemetry: the
            // cumulative signals must stay at their zero identities.
            assert_eq!(signals.total_dropouts, 0);
            assert_eq!(signals.total_stragglers, 0);
            assert_eq!(signals.sim_time_s, 0.0);
            assert_eq!(signals.mean_staleness, 0.0);
            assert_eq!(signals.in_flight, 0);
            if signals.record.round + 1 >= self.stop_after {
                RoundControl::Stop
            } else {
                RoundControl::Continue
            }
        }
    }

    let (spec, train, test, partition, mut cfg) = golden_setup();
    cfg.rounds = 10;
    let seen = Arc::new(AtomicUsize::new(0));
    let mut strategy = FedAvg;
    let history = SessionBuilder::new(&spec, &train, &test, &partition, &mut strategy)
        .config(&cfg)
        .observer(Box::new(Counter {
            rounds_seen: Arc::clone(&seen),
            stop_after: 2,
        }))
        .build()
        .expect("valid config")
        .run()
        .expect("run");
    assert_eq!(history.records.len(), 2, "Stop vote ignored");
    assert_eq!(seen.load(Ordering::SeqCst), 2);
}

/// A caller of `run` keeps every record, and with it the record's
/// `selected` ids, so they are held at exactly their length — not in
/// whatever buffer the policy built them in, which for the oversampling
/// built-ins is a candidate pool several times `K` wide, and for a user
/// policy is anything at all.
#[test]
fn records_hold_selected_ids_at_exact_capacity() {
    struct Roomy;
    impl SelectionPolicy for Roomy {
        fn name(&self) -> &'static str {
            "roomy"
        }
        fn select(&mut self, ctx: &SelectionContext<'_>, _rng: &mut Rng64) -> Vec<usize> {
            let mut picked = Vec::with_capacity(4096);
            picked.extend(0..ctx.participants);
            picked
        }
    }
    let (spec, train, test, partition, mut cfg) = golden_setup();
    let candidates = partition.n_clients();
    for k in [2, 6] {
        (cfg.rounds, cfg.participants) = (2, k);
        let policies: Vec<Box<dyn SelectionPolicy>> = vec![
            Selection::Uniform.build(),
            Selection::PowerOfChoice { candidates }.build(),
            Selection::BandwidthAware { candidates }.build(),
            Selection::ReliabilityAware { candidates }.build(),
            Selection::StalenessBalanced { candidates }.build(),
            Box::new(Roomy),
        ];
        for policy in policies {
            let name = policy.name();
            let roomy = name == "roomy";
            let mut strategy = FedAvg;
            let history = SessionBuilder::new(&spec, &train, &test, &partition, &mut strategy)
                .config(&cfg)
                .selection_policy(policy)
                .build()
                .expect("valid config")
                .run()
                .expect("run");
            for r in &history.records {
                assert_eq!(r.selected.len(), k, "{name}: round {}", r.round);
                assert_eq!(
                    r.selected.capacity(),
                    k,
                    "{name}: round {} kept a wider buffer",
                    r.round
                );
                if roomy {
                    assert_eq!(r.selected, (0..k).collect::<Vec<_>>());
                }
            }
        }
    }
}

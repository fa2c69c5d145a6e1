//! Scale-invariant property suite: the laws that make fleet size a free
//! variable (the million-client milestone).
//!
//! Contracts proven here:
//!
//! 1. **Stable under growth** — under arbitrary seeds/configs, growing N
//!    never changes the device `FleetView` derives for an existing
//!    client.
//! 2. **Sparse accounting law** — the `ReliabilityTable`'s totals close
//!    against the per-round records (the reliability accounting law,
//!    re-proved on the sparse type), and the table holds entries only for
//!    clients actually dispatched or seen to drop; its hashed storage still
//!    iterates in ascending id order.
//! 3. **Parallel ≡ serial** — a session whose client-training fan-out
//!    runs on four threads produces a byte-identical serialized history
//!    to the one-thread run at the same seed (timings scrubbed, like every
//!    golden comparison), for both the deadline and the buffered executor.
//! 4. **Event-queue order at scale** — at 10^5 active entries the queue
//!    pops a total order on time with FIFO tie-breaking, without growing
//!    past its presized capacity.
//! 5. **Selection at scale** — the oversampling policies keep their
//!    K-distinct/in-range/deterministic contract over a 10^5-client lazy
//!    fleet while deriving at most one profile per candidate, never O(N).
//! 6. **Memory proportionality** — a full buffered round at N = 10^5
//!    keeps telemetry entries bounded by the distinct clients dispatched
//!    and profile derivations proportional to the clients actually
//!    consulted.
//! 7. **Long-run bookkeeping** — over 3 000 rounds of a 10^5-client
//!    buffered session a client is pending at most once, every dispatch
//!    is aggregated, lost, traveling or parked, `train` runs exactly once
//!    per upload that arrives with its client still active, and every
//!    broadcast snapshot is held by an upload still traveling.

use feddrl_repro::prelude::*;
use proptest::prelude::*;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

mod common;
use common::{ctx, run_session, scrubbed_json};
use feddrl_repro::feddrl_nn::parallel::set_max_threads;

fn stub_train(_ctx: &TrainContext<'_>, dispatches: &[Dispatch]) -> Vec<ClientUpdate> {
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Contract 1: a wider view derives the same device at every index
    /// the narrower one covers, under arbitrary seeds and heterogeneity
    /// configs.
    #[test]
    fn fleet_view_profiles_are_stable_under_growth(
        n in 1usize..64,
        seed in 0u64..1_000,
        compute_skew in 1.0f64..8.0,
        bandwidth_skew in 1.0f64..4.0,
        dropout in 0.0f64..0.3,
        dropout_skew in 1.0f64..3.0,
        strength in 0.0f64..1.0,
        correlated in 0u8..2,
    ) {
        let cfg = FleetConfig {
            compute_skew,
            bandwidth_skew,
            dropout,
            reliability: ReliabilityConfig {
                dropout_skew,
                correlation: if correlated == 1 {
                    DropoutCorrelation::SpeedCorrelated { strength }
                } else {
                    DropoutCorrelation::Independent
                },
            },
            seed,
            ..Default::default()
        };
        prop_assert!(cfg.validate().is_ok());
        let view = FleetView::new(n, &cfg);
        let grown = FleetView::new(n * 4, &cfg);
        for i in 0..n {
            prop_assert_eq!(
                grown.profile(i), view.profile(i),
                "client {}'s device changed because the fleet grew", i
            );
        }
    }

    /// Contract 2: the sparse telemetry's totals close against the
    /// per-round records under arbitrary dropout and skew — dropouts and
    /// aggregations match the records exactly, sampled-slot and dispatch
    /// accounting both close, and the table stays bounded by the distinct
    /// clients ever selected.
    #[test]
    fn sparse_telemetry_totals_close_against_round_records(
        dropout in 0.0f64..0.5,
        compute_skew in 1.0f64..8.0,
        buffer_size in 1usize..=5,
        seed in 0u64..1_000,
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
        const N: usize = 40;
        const K: usize = 6;
        let mut ex = BufferedExecutor::new(cfg, N, 500, K, seed ^ 0xACC);
        let master = Rng64::new(seed ^ 0x5E1);
        let mut distinct = BTreeSet::new();
        let (mut rec_dropouts, mut rec_aggregated, mut rec_staleness) = (0, 0, 0);
        let mut rec_busy = 0usize;
        let rounds = 30usize;
        for round in 0..rounds {
            let selected = master.derive(round as u64).sample_indices(N, K);
            distinct.extend(selected.iter().copied());
            let out = ex.execute(&ctx(round), &selected, &stub_train);
            let h = out.hetero.expect("buffered telemetry");
            rec_dropouts += h.dropouts;
            rec_busy += h.busy;
            rec_aggregated += h.aggregated();
            rec_staleness += h.staleness_sum();
        }
        let view = ex.view();
        let stats = view.reliability.expect("buffered telemetry");
        let totals = stats.totals();
        prop_assert_eq!(totals.dropouts, rec_dropouts);
        prop_assert_eq!(totals.aggregated, rec_aggregated);
        prop_assert_eq!(totals.staleness_sum, rec_staleness);
        prop_assert_eq!(
            totals.dropouts + totals.dispatches + rec_busy,
            rounds * K,
            "sampled-slot accounting must close"
        );
        prop_assert_eq!(
            totals.dispatches,
            totals.aggregated + ex.in_flight() + ex.buffered(),
            "dispatch accounting must close"
        );
        // Sparsity: entries exist only for clients actually sampled, and
        // every entry carries at least one observation.
        prop_assert!(stats.observed() <= distinct.len());
        for (cid, s) in stats.iter() {
            prop_assert!(distinct.contains(&cid), "entry for never-sampled client {}", cid);
            prop_assert!(s.dropouts + s.dispatches > 0, "empty entry for client {}", cid);
        }
        // Unobserved clients read as the zero default without insertion.
        let before = stats.observed();
        prop_assert_eq!(stats.get(N + 7), ClientReliability::default());
        prop_assert_eq!(stats.observed(), before);
    }

    /// Contract 2, hashed storage: the table keeps its entries in a hash
    /// map, yet iterates in ascending id order whatever order the clients
    /// were observed in, and two tables holding the same entries compare
    /// equal.
    #[test]
    fn reliability_table_iterates_ascending_after_shuffled_insertion(
        n in 1usize..400,
        stride in 1usize..5_000,
        seed in 0u64..1_000,
    ) {
        let mut rng = Rng64::new(seed);
        let mut observed: Vec<usize> = (0..n).map(|i| i * stride + rng.below(stride)).collect();
        let entry = |id: usize| ClientReliability {
            dispatches: id % 7 + 1,
            ..Default::default()
        };
        let ascending: ReliabilityTable = observed.iter().map(|&id| (id, entry(id))).collect();
        rng.shuffle(&mut observed);
        let mut shuffled = ReliabilityTable::new();
        for &id in &observed {
            shuffled.entry(id).dispatches = entry(id).dispatches;
        }
        observed.sort_unstable();
        let ids: Vec<usize> = shuffled.iter().map(|(id, _)| id).collect();
        prop_assert_eq!(&ids, &observed, "iteration is not ascending");
        prop_assert!(shuffled.iter().all(|(id, s)| *s == entry(id)));
        prop_assert_eq!(shuffled.observed(), n);
        prop_assert_eq!(&shuffled, &ascending);
    }

    /// Contract 2, sparsity: every telemetry entry is a client the planner
    /// dispatched or saw drop, so the table holds at least the distinct
    /// clients `train` was called for, at most the distinct clients ever
    /// sampled, and entries with dispatches are exactly the dispatched
    /// clients.
    #[test]
    fn telemetry_entries_track_distinct_dispatched_clients(
        dropout in 0.0f64..0.5,
        seed in 0u64..1_000,
    ) {
        const N: usize = 2_000;
        const K: usize = 32;
        let cfg = HeteroConfig {
            fleet: FleetConfig {
                compute_skew: 4.0,
                dropout,
                seed,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut ex = DeadlineExecutor::new(cfg, N, 500, K, seed ^ 0xD15);
        let dispatched = std::cell::RefCell::new(IdSet::default());
        let recording = |ctx: &TrainContext<'_>, dispatches: &[Dispatch]| {
            dispatched.borrow_mut().extend(dispatches.iter().map(|d| d.client_id));
            stub_train(ctx, dispatches)
        };
        let master = Rng64::new(seed ^ 0x5E1);
        let mut sampled = IdSet::default();
        for round in 0..20 {
            let selected = master.derive(round as u64).sample_indices(N, K);
            sampled.extend(selected.iter().copied());
            ex.execute(&ctx(round), &selected, &recording);
        }
        let dispatched = dispatched.into_inner();
        let view = ex.view();
        let stats = view.reliability.expect("deadline telemetry");
        prop_assert!(dispatched.len() <= stats.observed());
        prop_assert!(stats.observed() <= sampled.len());
        let with_dispatches: IdSet = stats
            .iter()
            .filter(|(_, s)| s.dispatches > 0)
            .map(|(id, _)| id)
            .collect();
        prop_assert_eq!(with_dispatches, dispatched);
    }
}

/// Contract 3: the session's train callback fans a dispatch batch out
/// over `par_map`, the one place client training runs in parallel. At a
/// fixed seed the full serialized history — every weight, loss, impact
/// factor and telemetry record — must be byte-identical whether that
/// fan-out (and every kernel under it) has one thread or four, for both
/// the deadline and the buffered executor. Timings are scrubbed exactly
/// like the golden-fixture comparisons (they measure wall clock, not the
/// trajectory).
#[test]
fn train_fan_out_history_is_byte_identical_across_thread_counts() {
    let (train, test) = SynthSpec {
        train_size: 400,
        test_size: 100,
        ..SynthSpec::mnist_like()
    }
    .generate(5);
    let partition = PartitionMethod::Iid
        .partition(&train, 8, &mut Rng64::new(9))
        .unwrap();
    let spec = ModelSpec::Mlp {
        in_dim: train.feature_dim(),
        hidden: vec![12],
        out_dim: train.num_classes(),
    };
    let fleet = FleetConfig {
        compute_skew: 4.0,
        dropout: 0.2,
        seed: 0xF1EE7,
        ..Default::default()
    };
    let executors = [
        (
            "deadline",
            ExecutorConfig::Deadline(HeteroConfig {
                fleet: fleet.clone(),
                deadline_s: Some(40.0),
                late_policy: LatePolicy::CarryOver,
                ..Default::default()
            }),
        ),
        (
            "buffered",
            ExecutorConfig::Buffered(BufferedConfig {
                fleet,
                buffer_size: 3,
                ..Default::default()
            }),
        ),
    ];
    for (label, executor) in executors {
        let cfg = FlConfig {
            rounds: 4,
            participants: 5,
            local: LocalTrainConfig {
                epochs: 1,
                batch_size: 16,
                lr: 0.05,
                ..Default::default()
            },
            eval_batch: 64,
            seed: 23,
            log_every: 0,
            selection: Selection::Uniform,
            executor,
            server_opt: ServerOptConfig::Plain,
        };
        let histories: Vec<String> = [1, 4]
            .into_iter()
            .map(|threads| {
                set_max_threads(threads);
                let history = run_session(&spec, &train, &test, &partition, &mut FedAvg, &cfg);
                scrubbed_json(history)
            })
            .collect();
        set_max_threads(0);
        assert_eq!(
            histories[0], histories[1],
            "{label}: the four-thread fan-out diverged from the one-thread trajectory"
        );
    }
}

/// Contract 4: at 10^5 active entries the queue pops exactly the stable
/// sort of its input by time — a total order with FIFO tie-breaking —
/// and never grows past the capacity it was presized with.
#[test]
fn event_queue_pop_order_is_total_with_fifo_ties_at_scale() {
    const N: usize = 100_000;
    let mut q = EventQueue::with_capacity(N);
    let cap = q.capacity();
    assert!(cap >= N);
    // Many ties: only 1000 distinct times across 10^5 entries.
    let times: Vec<f64> = (0..N).map(|i| ((i * 7919) % 1_000) as f64).collect();
    for (i, &t) in times.iter().enumerate() {
        q.schedule(
            t,
            EventKind::UploadComplete {
                client_id: i,
                version: 0,
            },
        );
    }
    assert_eq!(q.len(), N);
    assert_eq!(
        q.capacity(),
        cap,
        "presized queue reallocated while within capacity"
    );
    let mut expected: Vec<usize> = (0..N).collect();
    expected.sort_by(|&a, &b| times[a].total_cmp(&times[b])); // stable: FIFO ties
    for (k, &want) in expected.iter().enumerate() {
        let e = q.pop().expect("queue must hold N entries");
        assert_eq!(e.time_s, times[want], "pop {k} broke the time order");
        match e.kind {
            EventKind::UploadComplete { client_id, .. } => {
                assert_eq!(
                    client_id, want,
                    "pop {k} broke FIFO tie-breaking at time {}",
                    e.time_s
                );
            }
            other => panic!("unexpected event kind {other:?}"),
        }
    }
    assert!(q.pop().is_none());
}

/// Contract 5: over a 10^5-client lazy fleet every oversampling policy
/// keeps the session's selection contract — exactly K distinct in-range
/// ids, reproducible under a fixed seed — while deriving at most one
/// device profile per candidate per call (a dense policy would derive all
/// 10^5).
#[test]
fn selection_contracts_hold_over_a_hundred_thousand_client_lazy_fleet() {
    const N: usize = 100_000;
    const K: usize = 64;
    const D: usize = 256;
    let fleet = FleetView::new(
        N,
        &FleetConfig {
            compute_skew: 4.0,
            bandwidth_skew: 2.0,
            dropout: 0.1,
            seed: 0xB16,
            ..Default::default()
        },
    );
    let mut rng = Rng64::new(31);
    let known_loss: Vec<Option<f32>> = (0..N)
        .map(|_| rng.chance(0.5).then(|| rng.uniform(0.1, 3.0)))
        .collect();
    let stats: ReliabilityTable = (0..200)
        .map(|i| {
            (
                i * 97,
                ClientReliability {
                    dropouts: rng.below(5),
                    dispatches: rng.below(20),
                    aggregated: 0,
                    staleness_sum: 0,
                },
            )
        })
        .collect();
    let in_flight: IdSet = rng.sample_indices(N, 32).into_iter().collect();
    for selection in [
        Selection::PowerOfChoice { candidates: D },
        Selection::ReliabilityAware { candidates: D },
        Selection::StalenessBalanced { candidates: D },
    ] {
        let mut policy = selection.build();
        let ctx = SelectionContext {
            round: 3,
            n_clients: N,
            participants: K,
            known_loss: &known_loss,
            participation: &[],
            executor: ExecutorView {
                fleet: Some(&fleet),
                upload_bytes: 1_000_000,
                deadline_s: Some(fleet.completion_percentile_s(1_000_000, 0.9)),
                in_flight: Cow::Borrowed(&in_flight),
                reliability: Some(&stats),
                ..Default::default()
            },
        };
        let before = fleet.derivations();
        let picked = policy.select(&ctx, &mut Rng64::new(7).derive(3));
        let derived = fleet.derivations() - before;
        assert!(
            derived <= D as u64,
            "{} derived {derived} profiles for a {D}-candidate pool — \
             selection cost must scale with candidates, not fleet size",
            policy.name()
        );
        assert_eq!(picked.len(), K, "{} returned a short sample", policy.name());
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), K, "{} returned duplicates", policy.name());
        assert!(
            sorted.iter().all(|&c| c < N),
            "{} selected out of range",
            policy.name()
        );
        let again = policy.select(&ctx, &mut Rng64::new(7).derive(3));
        assert_eq!(
            picked,
            again,
            "{} is nondeterministic under a fixed seed",
            policy.name()
        );
    }
}

/// Contract 6: a buffered run
/// over 10^5 clients completes full aggregation rounds while keeping its
/// per-client state proportional to the clients actually touched —
/// telemetry entries bounded by distinct dispatched clients, profile
/// derivations bounded by per-round consultations — never O(N).
#[test]
fn buffered_rounds_at_hundred_thousand_clients_stay_sparse() {
    const N: usize = 100_000;
    const K: usize = 64;
    let cfg = BufferedConfig {
        fleet: FleetConfig {
            compute_skew: 4.0,
            dropout: 0.1,
            seed: 0x5CA1E,
            ..Default::default()
        },
        buffer_size: 16,
        ..Default::default()
    };
    let mut ex = BufferedExecutor::new(cfg, N, 1_000, K, 7);
    let master = Rng64::new(11);
    let mut distinct = BTreeSet::new();
    let mut aggregations = 0usize;
    let rounds = 8usize;
    for round in 0..rounds {
        let selected = master.derive(round as u64).sample_indices(N, K);
        distinct.extend(selected.iter().copied());
        let out = ex.execute(&ctx(round), &selected, &stub_train);
        if !out.updates.is_empty() {
            aggregations += 1;
            assert_eq!(out.updates.len(), 16, "partial aggregation");
        }
    }
    assert!(
        aggregations > 0,
        "10^5-client run never filled its aggregation buffer"
    );
    let view = ex.view();
    let stats = view.reliability.expect("buffered telemetry");
    assert!(
        stats.observed() <= distinct.len(),
        "{} resident telemetry entries for {} distinct dispatched clients",
        stats.observed(),
        distinct.len()
    );
    // Each dispatched client costs a bounded number of profile
    // derivations (completion-time lookups); nothing scans the fleet.
    let derived = view
        .fleet
        .expect("buffered executor has a fleet")
        .derivations();
    assert!(
        derived <= (rounds * K * 4) as u64,
        "{derived} profiles derived for {} dispatch slots — the executor \
         must consult candidates only, never the whole fleet",
        rounds * K
    );
    assert!(
        derived < N as u64 / 10,
        "profile derivations ({derived}) approach fleet size ({N})"
    );
}

/// A [`BufferedExecutor`] inside a session, with the bookkeeping laws of a
/// long run checked after every round from where both the executor's
/// accessors and the `train` callback are in reach.
struct AuditedBuffered {
    inner: BufferedExecutor,
    dispatched: usize,
    aggregated: usize,
    lost: usize,
    /// Every `(dispatch round, client)` trained so far.
    trained: std::collections::HashSet<(usize, usize)>,
    peak_pending: Arc<AtomicUsize>,
}

impl RoundExecutor for AuditedBuffered {
    fn view(&self) -> ExecutorView<'_> {
        self.inner.view()
    }

    fn execute(
        &mut self,
        ctx: &TrainContext<'_>,
        selected: &[usize],
        train: &TrainFn<'_>,
    ) -> RoundOutcome {
        let round = ctx.round;
        let gone_before: IdSet = self.inner.view().departed.into_owned();
        let calls = Mutex::new(Vec::new());
        let recorded = |ctx: &TrainContext<'_>, dispatches: &[Dispatch]| {
            let of_round = dispatches.iter().map(|d| (ctx.round, d.client_id));
            calls.lock().unwrap().extend(of_round);
            train(ctx, dispatches)
        };
        let out = self.inner.execute(ctx, selected, &recorded);
        let h = out.hetero.as_ref().expect("buffered telemetry");

        // Every dispatch is aggregated, lost in transit, traveling or
        // parked — and a client is pending at most once.
        self.dispatched += selected.len() - (h.dropouts + h.busy);
        self.aggregated += out.updates.len();
        self.lost += h.stragglers;
        let (pending, buffered) = (self.inner.in_flight(), self.inner.buffered());
        assert_eq!(
            self.dispatched,
            self.aggregated + self.lost + pending + buffered,
            "round {round}: dispatch accounting must close"
        );
        let view = self.inner.view();
        let universe = view.universe.expect("churn is on");
        assert!(pending + buffered <= universe, "round {round}: pending");
        assert_eq!(view.in_flight.len(), pending + buffered);
        self.peak_pending.fetch_max(pending, Ordering::Relaxed);

        // `train` ran exactly once per upload that arrived with its client
        // still active — those are what reached the buffer — at most once
        // per dispatch, and never for a client already gone at the round's
        // start (whose upload is lost in transit, untrained).
        for (dispatch_round, client) in calls.into_inner().unwrap() {
            assert!(dispatch_round <= round);
            assert!(
                !gone_before.contains(&client),
                "round {round}: trained departed client {client}"
            );
            assert!(
                self.trained.insert((dispatch_round, client)),
                "round {round}: client {client} of round {dispatch_round} trained twice"
            );
        }
        assert_eq!(self.trained.len(), self.aggregated + buffered);

        // Every broadcast snapshot is held by a pending upload: one per
        // dispatch round with uploads still traveling, none unreferenced.
        let (mut held, mut last_round) = (0, None);
        for (dispatch_round, uploads) in self.inner.broadcasts() {
            assert!(
                uploads > 0,
                "round {round}: snapshot {dispatch_round} leaked"
            );
            assert!(last_round < Some(dispatch_round) && dispatch_round <= round);
            (held, last_round) = (held + uploads, Some(dispatch_round));
        }
        assert_eq!(held, pending, "round {round}: snapshot references");
        out
    }
}

/// Contract 7: the bookkeeping of a buffered fleet closes over a run long
/// enough for the pending set to dwarf a round — 3 000 rounds of a stub
/// session at N = 10^5 (the `fleet_scale` configuration), audited every
/// round by [`AuditedBuffered`].
#[test]
fn long_buffered_session_closes_its_books_every_round() {
    const N: usize = 100_000;
    const ROUNDS: usize = 3_000;
    let (train, test) = SynthSpec {
        feature_dim: 8,
        num_classes: 4,
        train_size: 2 * N,
        test_size: 64,
        ..SynthSpec::mnist_like()
    }
    .generate(5);
    let partition = PartitionMethod::Iid
        .partition(&train, N, &mut Rng64::new(9))
        .unwrap();
    let spec = ModelSpec::Mlp {
        in_dim: train.feature_dim(),
        hidden: vec![16],
        out_dim: train.num_classes(),
    };
    let buffered = BufferedConfig {
        fleet: FleetConfig {
            compute_skew: 4.0,
            bandwidth_skew: 2.0,
            dropout: 0.1,
            diurnal: Some(Default::default()),
            // A few hundred departures over the ~160 virtual seconds of
            // the run, so that uploads are lost in transit.
            churn: Some(ChurnConfig {
                mean_arrival_gap_s: 0.5,
                mean_departure_gap_s: 0.25,
            }),
            seed: 0x5CA1E,
            ..Default::default()
        },
        buffer_size: 16,
        ..Default::default()
    };
    let cfg = FlConfig {
        rounds: ROUNDS,
        participants: 64,
        seed: 23,
        selection: Selection::StalenessBalanced { candidates: 256 },
        ..Default::default()
    };
    let params = spec.build(0).param_count();
    let peak_pending = Arc::new(AtomicUsize::new(0));
    let audited = AuditedBuffered {
        inner: BufferedExecutor::new(buffered, N, params, cfg.participants, cfg.seed),
        dispatched: 0,
        aggregated: 0,
        lost: 0,
        trained: Default::default(),
        peak_pending: Arc::clone(&peak_pending),
    };
    // Every client reports the broadcast it trained from, unchanged.
    let echo = |ctx: &TrainContext<'_>, dispatches: &[Dispatch]| -> Vec<ClientUpdate> {
        let update = |d: &Dispatch| ClientUpdate {
            weights: ctx.global.to_vec(),
            ..stub_train(ctx, &[*d]).remove(0)
        };
        dispatches.iter().map(update).collect()
    };
    let mut strategy = FedAvg;
    let history = SessionBuilder::new(&spec, &train, &test, &partition, &mut strategy)
        .config(&cfg)
        .executor_instance(Box::new(audited))
        .train_fn(Box::new(echo))
        .build()
        .expect("valid config")
        .run()
        .expect("federated run");
    assert_eq!(history.records.len(), ROUNDS);
    assert!(history.mean_staleness() > 0.0, "nothing ever arrived stale");
    assert!(
        history.total_stragglers() > 10,
        "too few uploads were lost in transit to exercise the law"
    );
    let peak = peak_pending.load(Ordering::Relaxed);
    assert!(
        peak > 100 * cfg.participants,
        "only {peak} uploads ever pending: the run is too short to age the fleet"
    );
}

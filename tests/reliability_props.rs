//! Property-based hardening of the per-device reliability model and the
//! reliability-aware selection loop.
//!
//! The reliability model owes the rest of the workspace three laws: rates
//! are *deterministic and stable under fleet growth* (client `i`'s device
//! never changes because the federation grew), *bounded* (every rate a
//! validated config can produce stays a probability below 1), and — under
//! full speed correlation — *monotone in slowness* (a slower device never
//! drops less, the arXiv:2507.10430 observation the model encodes). On
//! top sit the end-to-end promises of the two new policies, checked by
//! driving the executors directly with stub updates (no NN training):
//! `ReliabilityAware` cuts dropout-wasted dispatches, `StalenessBalanced`
//! rebalances the buffered executor's fast-client skew.

use feddrl_repro::prelude::*;
use proptest::prelude::*;

mod common;
use common::ctx;

fn reliability_cfg(
    seed: u64,
    compute_skew: f64,
    dropout: f64,
    dropout_skew: f64,
    correlation: DropoutCorrelation,
) -> FleetConfig {
    FleetConfig {
        compute_skew,
        dropout,
        reliability: ReliabilityConfig {
            dropout_skew,
            correlation,
        },
        seed,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Profiles — dropout rates included — are identical across repeated
    /// generation, stable under fleet growth, and change with the seed.
    #[test]
    fn profiles_with_reliability_are_stable_under_growth_and_reseeding(
        seed in 0u64..1_000,
        compute_skew in 1.0f64..8.0,
        dropout in 0.0f64..0.3,
        dropout_skew in 1.0f64..3.0,
        strength in 0.0f64..1.0,
        correlated in 0u8..2,
    ) {
        let correlation = if correlated == 1 {
            DropoutCorrelation::SpeedCorrelated { strength }
        } else {
            DropoutCorrelation::Independent
        };
        // dropout < 0.3 and dropout_skew < 3 keep the product below 1,
        // so every generated config is valid by construction.
        let cfg = reliability_cfg(seed, compute_skew, dropout, dropout_skew, correlation);
        prop_assert!(cfg.validate().is_ok());
        let small = FleetView::new(6, &cfg);
        let again = FleetView::new(6, &cfg);
        let big = FleetView::new(48, &cfg);
        for i in 0..6 {
            prop_assert_eq!(small.profile(i), again.profile(i), "regeneration drifted");
            prop_assert_eq!(
                small.profile(i), big.profile(i),
                "client {}'s device changed because the fleet grew", i
            );
        }
        let reseeded = FleetView::new(6, &FleetConfig { seed: seed ^ 0x9E3779B9, ..cfg });
        prop_assert!(
            (0..6).any(|i| reseeded.profile(i) != small.profile(i)),
            "re-seeding left every profile untouched"
        );
    }

    /// Every validated config keeps every device's rate inside
    /// `[dropout / dropout_skew, dropout * dropout_skew] ⊂ [0, 1)`.
    #[test]
    fn per_device_rates_stay_bounded_probabilities(
        seed in 0u64..1_000,
        compute_skew in 1.0f64..8.0,
        dropout in 0.0f64..0.5,
        dropout_skew in 1.0f64..4.0,
        strength in 0.0f64..1.0,
        correlated in 0u8..2,
    ) {
        let correlation = if correlated == 1 {
            DropoutCorrelation::SpeedCorrelated { strength }
        } else {
            DropoutCorrelation::Independent
        };
        // Clamp the base rate so the spread stays below certainty — the
        // bound `validate` enforces.
        let dropout = dropout.min(0.99 / dropout_skew - 1e-9);
        let cfg = reliability_cfg(seed, compute_skew, dropout, dropout_skew, correlation);
        prop_assert!(cfg.validate().is_ok());
        let fleet = FleetView::new(32, &cfg);
        let (lo, hi) = (dropout / dropout_skew, dropout * dropout_skew);
        for i in 0..32 {
            let d = fleet.profile(i).dropout;
            prop_assert!(
                (0.0..1.0).contains(&d),
                "client {}'s rate {} is not a probability", i, d
            );
            prop_assert!(
                d >= lo - 1e-12 && d <= hi + 1e-12,
                "client {}'s rate {} escaped [{}, {}]", i, d, lo, hi
            );
        }
    }

    /// Under full speed correlation, dropout is monotone in compute time:
    /// for any two devices, the slower one never drops less.
    #[test]
    fn full_speed_correlation_is_monotone_in_slowness(
        seed in 0u64..1_000,
        compute_skew in 1.0f64..8.0,
        dropout in 0.01f64..0.2,
        dropout_skew in 1.0f64..4.0,
    ) {
        let cfg = reliability_cfg(
            seed,
            compute_skew,
            dropout,
            dropout_skew,
            DropoutCorrelation::SpeedCorrelated { strength: 1.0 },
        );
        // dropout < 0.2 and dropout_skew < 4: the product stays below 1.
        prop_assert!(cfg.validate().is_ok());
        let fleet = FleetView::new(24, &cfg);
        for a in 0..24 {
            for b in 0..24 {
                let (pa, pb) = (fleet.profile(a), fleet.profile(b));
                if pa.compute_s < pb.compute_s {
                    prop_assert!(
                        pa.dropout <= pb.dropout,
                        "faster device {} ({} s) drops more ({}) than slower {} ({} s, {})",
                        a, pa.compute_s, pa.dropout, b, pb.compute_s, pb.dropout
                    );
                }
            }
        }
    }

    /// Zero correlation strength is *exactly* the independent draw: the
    /// interpolation has no hidden effect at its endpoint.
    #[test]
    fn zero_strength_equals_independent(
        seed in 0u64..1_000,
        compute_skew in 1.0f64..8.0,
        dropout_skew in 1.0f64..4.0,
    ) {
        let indep = reliability_cfg(
            seed, compute_skew, 0.1, dropout_skew, DropoutCorrelation::Independent,
        );
        let zero = reliability_cfg(
            seed, compute_skew, 0.1, dropout_skew,
            DropoutCorrelation::SpeedCorrelated { strength: 0.0 },
        );
        prop_assert!(indep.validate().is_ok());
        // Profile vectors, not views: view equality is `(n, config)`, and
        // these are two different configs deriving equal fleets.
        prop_assert_eq!(
            FleetView::new(16, &indep).profiles().collect::<Vec<_>>(),
            FleetView::new(16, &zero).profiles().collect::<Vec<_>>()
        );
    }
}

/// A weightless update (policy/executor logic never reads the payload).
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

/// Drive `rounds` rounds of `executor` under `policy`, mirroring the
/// session's selection bookkeeping (per-round derived RNG, known-loss and
/// participation updates, executor-fed in-flight set and telemetry), and
/// return the finished executor.
fn drive(
    ex: &mut dyn RoundExecutor,
    policy: &mut dyn SelectionPolicy,
    n: usize,
    k: usize,
    rounds: usize,
) -> Vec<RoundOutcome> {
    let master = Rng64::new(33);
    let mut known_loss: Vec<Option<f32>> = vec![None; n];
    let participation = vec![0usize; n];
    let mut outcomes = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let mut rng = master.derive(round as u64);
        let selected = {
            let ctx = SelectionContext {
                round,
                n_clients: n,
                participants: k,
                known_loss: &known_loss,
                participation: &participation,
                executor: ex.view(),
            };
            policy.select(&ctx, &mut rng)
        };
        assert_eq!(selected.len(), k);
        let out = ex.execute(&ctx(round), &selected, &stub_train);
        for u in &out.updates {
            known_loss[u.client_id] = Some(u.loss_before);
        }
        outcomes.push(out);
    }
    outcomes
}

/// Speed-correlated fleet every end-to-end law below runs on: 4x compute
/// skew, base dropout 0.25 spread 3x per device, slow devices flakiest.
fn correlated_fleet_cfg() -> FleetConfig {
    reliability_cfg(
        0xAB5EED,
        4.0,
        0.25,
        3.0,
        DropoutCorrelation::SpeedCorrelated { strength: 1.0 },
    )
}

/// Dropout-waste rate (failures per dispatch attempt) of a deadline run
/// under `policy` — the executor's own telemetry is the ground truth.
fn deadline_waste_rate(policy: &mut dyn SelectionPolicy, rounds: usize) -> f64 {
    const N: usize = 40;
    const K: usize = 6;
    let cfg = HeteroConfig {
        fleet: correlated_fleet_cfg(),
        deadline_s: None,
        late_policy: LatePolicy::Drop,
        ..Default::default()
    };
    let mut ex = DeadlineExecutor::new(cfg, N, 60_000, K, 9);
    drive(&mut ex, policy, N, K, rounds);
    let view = ex.view();
    let stats = view.reliability.expect("deadline telemetry");
    let dropouts: usize = stats.iter().map(|(_, s)| s.dropouts).sum();
    let dispatches: usize = stats.iter().map(|(_, s)| s.dispatches).sum();
    dropouts as f64 / (dropouts + dispatches) as f64
}

/// The ROADMAP promise behind `ReliabilityAware`: on a fleet whose flaky
/// devices are learnable from observation, expected-utility selection
/// wastes at least 2x fewer dispatches on dropouts than uniform sampling.
#[test]
fn reliability_aware_halves_dropout_waste_vs_uniform() {
    let rounds = 200;
    let uniform = deadline_waste_rate(&mut UniformSelection, rounds);
    let aware = deadline_waste_rate(&mut ReliabilityAwareSelection { candidates: 32 }, rounds);
    assert!(
        uniform > 0.15,
        "uniform waste rate {uniform:.3} implausibly low — dropout model misconfigured?"
    );
    assert!(
        aware * 2.0 <= uniform,
        "reliability-aware selection did not halve dropout waste: \
         {aware:.3} vs uniform's {uniform:.3}"
    );
}

/// The ROADMAP promise behind `StalenessBalanced`: under the buffered
/// executor on a skewed fleet, the slower half of the devices contributes
/// a larger share of the aggregated updates than under uniform sampling —
/// the fast-client skew is measurably rebalanced.
#[test]
fn staleness_balanced_rebalances_the_fast_client_skew() {
    // Dispatch slots are deliberately scarce (K = 4 of N = 40): with
    // abundant slots every device saturates and selection cannot matter;
    // with scarce ones the policy decides which devices stay busy.
    const N: usize = 40;
    const K: usize = 4;
    let rounds = 200;
    let slow_share = |policy: &mut dyn SelectionPolicy| -> f64 {
        let cfg = BufferedConfig {
            fleet: correlated_fleet_cfg(),
            buffer_size: 2,
            ..Default::default()
        };
        let mut ex = BufferedExecutor::new(cfg, N, 60_000, K, 9);
        let outcomes = drive(&mut ex, policy, N, K, rounds);
        let fleet = ex.view().fleet.expect("buffered fleet").clone();
        let mut order: Vec<usize> = (0..N).collect();
        order.sort_by(|&a, &b| {
            fleet
                .profile(a)
                .compute_s
                .total_cmp(&fleet.profile(b).compute_s)
        });
        let slow = &order[N / 2..];
        let (mut from_slow, mut total) = (0usize, 0usize);
        for out in &outcomes {
            for u in &out.updates {
                total += 1;
                from_slow += usize::from(slow.contains(&u.client_id));
            }
        }
        assert!(total > 0, "no aggregation ever fired");
        from_slow as f64 / total as f64
    };
    let uniform = slow_share(&mut UniformSelection);
    let balanced = slow_share(&mut StalenessBalancedSelection { candidates: 32 });
    assert!(
        uniform < 0.5,
        "uniform slow-share {uniform:.2} shows no fast-client skew to rebalance"
    );
    assert!(
        balanced > uniform + 0.1,
        "staleness-balanced selection did not rebalance the skew: \
         slow-share {balanced:.2} vs uniform's {uniform:.2}"
    );
}

/// The executor accounting identity behind every waste metric: sampled =
/// dropouts + dispatches + busy-skips, and telemetry totals agree with
/// the per-round records.
#[test]
fn telemetry_totals_close_against_round_records() {
    const N: usize = 24;
    const K: usize = 6;
    let cfg = BufferedConfig {
        fleet: correlated_fleet_cfg(),
        buffer_size: 3,
        ..Default::default()
    };
    let mut ex = BufferedExecutor::new(cfg, N, 60_000, K, 9);
    let rounds = 60;
    let outcomes = drive(&mut ex, &mut UniformSelection, N, K, rounds);
    let (mut rec_dropouts, mut rec_busy, mut rec_aggregated) = (0usize, 0usize, 0usize);
    for out in &outcomes {
        let h = out.hetero.as_ref().expect("buffered telemetry");
        rec_dropouts += h.dropouts;
        rec_busy += h.busy;
        rec_aggregated += h.aggregated();
    }
    let view = ex.view();
    let stats = view.reliability.unwrap();
    let dropouts: usize = stats.iter().map(|(_, s)| s.dropouts).sum();
    let dispatches: usize = stats.iter().map(|(_, s)| s.dispatches).sum();
    let aggregated: usize = stats.iter().map(|(_, s)| s.aggregated).sum();
    assert_eq!(dropouts, rec_dropouts);
    assert_eq!(aggregated, rec_aggregated);
    assert_eq!(
        dropouts + dispatches + rec_busy,
        rounds * K,
        "sampled-slot accounting must close"
    );
    // Dispatches either aggregated or are still in flight / buffered.
    assert_eq!(
        dispatches,
        aggregated + ex.in_flight() + ex.buffered(),
        "dispatch accounting must close"
    );
    // Mean staleness telemetry agrees with the recorded per-round ages.
    let stat_staleness: usize = stats.iter().map(|(_, s)| s.staleness_sum).sum();
    let rec_staleness: usize = outcomes
        .iter()
        .filter_map(|o| o.hetero.as_ref())
        .map(|h| h.staleness_sum())
        .sum();
    assert_eq!(stat_staleness, rec_staleness);
}

//! Property-based lockdown of the fleet-dynamics layer: churn, diurnal
//! availability, and adaptive structured dropout.
//!
//! The dynamics layer owes the rest of the workspace four laws. (1)
//! *Conservation*: the churn process never loses a client —
//! `initial + joins − leaves == active` at every instant, ids mint
//! monotonically, and departures never rejoin. (2) *Modulation stays a
//! probability*: every effective dropout rate a validated config can
//! produce is in `[0, 1)` and periodic with the configured cycle. (3)
//! *Byte-inertness*: absent (or zero-amplitude) dynamics reproduce the
//! pre-dynamics histories bit-for-bit, and a ratio-1 mask trains
//! bit-identically to the unmasked path. (4) *Churn-aware bookkeeping closes*:
//! departed clients keep their telemetry, ranked selection never spends a
//! slot on a known-departed device while live candidates remain, and the
//! dispatch/aggregation accounting identities survive mid-flight
//! departures.

use feddrl_repro::prelude::*;
use proptest::prelude::*;

mod common;
use common::{ctx, scrubbed_json};

// ---------------------------------------------------------------------------
// Churn process laws
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `initial + joins − leaves == active` at every advancement step, the
    /// fleet never empties, and the id universe grows by exactly the joins.
    #[test]
    fn churn_conservation_closes_at_every_instant(
        seed in 0u64..10_000,
        initial_n in 1usize..40,
        arrival_gap in 0.5f64..50.0,
        departure_gap in 0.5f64..50.0,
        steps in 1usize..80,
        step_s in 0.5f64..20.0,
    ) {
        let cfg = ChurnConfig {
            mean_arrival_gap_s: arrival_gap,
            mean_departure_gap_s: departure_gap,
        };
        let mut p = ChurnProcess::new(initial_n, &cfg, seed);
        for step in 1..=steps {
            let events = p.advance_to(step as f64 * step_s);
            prop_assert_eq!(
                p.initial_n() + p.joins() - p.leaves(),
                p.active_count(),
                "conservation broken at step {}", step
            );
            prop_assert!(p.active_count() >= 1, "fleet emptied");
            prop_assert_eq!(p.universe(), initial_n + p.joins());
            for e in &events {
                prop_assert!(e.time_s <= step as f64 * step_s + 1e-9);
            }
        }
        // Departed ids are all inactive; every other minted id is active.
        let departed = p.departed();
        prop_assert_eq!(departed.len(), p.leaves());
        for &c in departed {
            prop_assert!(!p.is_active(c), "departed client {} still active", c);
        }
        let active = (0..p.universe()).filter(|&c| p.is_active(c)).count();
        prop_assert_eq!(active, p.active_count());
    }

    /// Every effective dropout rate a validated diurnal config can produce
    /// is a probability, and the modulation is periodic: the rate at
    /// `t + period` equals the rate at `t` (up to f64 rounding of the
    /// phase argument).
    #[test]
    fn effective_dropout_stays_a_probability_and_is_periodic(
        fleet_seed in 0u64..1_000,
        dropout in 0.0f64..0.5,
        dropout_skew in 1.0f64..3.0,
        amplitude in 0.0f64..0.9,
        period in 10.0f64..100_000.0,
        t in 0.0f64..50_000.0,
    ) {
        // Clamp the base rate so the peak stays below certainty — the
        // tight bound `validate_dynamics` enforces.
        let dropout = dropout
            .min(0.99 / (dropout_skew * (1.0 + amplitude)) - 1e-9)
            .max(0.0);
        let diurnal = DiurnalConfig {
            period_s: period,
            dropout_amplitude: amplitude,
            latency_amplitude: amplitude * 0.5,
        };
        let cfg = FleetConfig {
            dropout,
            reliability: ReliabilityConfig {
                dropout_skew,
                correlation: DropoutCorrelation::Independent,
            },
            diurnal: Some(diurnal),
            seed: fleet_seed,
            ..Default::default()
        };
        prop_assert!(cfg.validate().is_ok());
        let fleet = FleetView::new(12, &cfg);
        for i in 0..12 {
            let prof = fleet.profile(i);
            for probe in [0.0, t, t + period / 3.0, t + period / 2.0] {
                let p = prof.effective_dropout(Some(&diurnal), probe);
                prop_assert!(
                    (0.0..1.0).contains(&p),
                    "client {}'s effective rate {} at t={} is not a probability",
                    i, p, probe
                );
                let lat = prof.effective_latency_s(Some(&diurnal), probe);
                prop_assert!(lat >= 0.0, "negative effective latency {}", lat);
            }
            let now = prof.effective_dropout(Some(&diurnal), t);
            let next_cycle = prof.effective_dropout(Some(&diurnal), t + period);
            prop_assert!(
                (now - next_cycle).abs() <= 1e-6 * (1.0 + now.abs()),
                "client {}: rate {} at t drifted to {} one period later",
                i, now, next_cycle
            );
        }
    }

    /// The two inertness contracts of the device-timing API: no diurnal
    /// config reproduces the static completion time bit-for-bit, and a
    /// zero-amplitude cycle is exactly the identity modulation.
    #[test]
    fn absent_and_zero_amplitude_diurnal_are_bit_inert(
        fleet_seed in 0u64..1_000,
        compute_skew in 1.0f64..8.0,
        dropout in 0.0f64..0.5,
        bytes in 1u64..10_000_000,
        t in 0.0f64..100_000.0,
        period in 10.0f64..100_000.0,
    ) {
        let static_cfg = FleetConfig {
            compute_skew,
            dropout,
            seed: fleet_seed,
            ..Default::default()
        };
        let zero_amp = DiurnalConfig {
            period_s: period,
            dropout_amplitude: 0.0,
            latency_amplitude: 0.0,
        };
        let fleet = FleetView::new(8, &static_cfg);
        for i in 0..8 {
            let prof = fleet.profile(i);
            prop_assert_eq!(
                prof.completion_time_at(bytes, 1.0, None, t).to_bits(),
                prof.completion_time_s(bytes).to_bits(),
                "completion_time_at(.., 1.0, None, t) must be completion_time_s"
            );
            prop_assert_eq!(
                prof.effective_dropout(None, t).to_bits(),
                prof.dropout.to_bits()
            );
            prop_assert_eq!(
                prof.effective_dropout(Some(&zero_amp), t).to_bits(),
                prof.dropout.to_bits(),
                "zero-amplitude modulation must be the exact identity"
            );
            prop_assert_eq!(
                prof.completion_time_at(bytes, 1.0, Some(&zero_amp), t).to_bits(),
                prof.completion_time_s(bytes).to_bits()
            );
        }
    }

    /// Dynamic profile fields obey the same stability laws as the static
    /// ones: growth never changes an existing client's device (diurnal
    /// phase included), a grown view agrees with a fresh one, and
    /// reseeding moves the phases while enabling the cycle leaves every
    /// pre-existing field untouched.
    #[test]
    fn dynamic_profiles_are_stable_under_growth_and_reseeding(
        seed in 0u64..1_000,
        compute_skew in 1.0f64..8.0,
        dropout in 0.0f64..0.3,
    ) {
        let diurnal = Some(DiurnalConfig::default());
        let cfg = FleetConfig {
            compute_skew,
            dropout,
            diurnal,
            seed,
            ..Default::default()
        };
        let mut view = FleetView::new(6, &cfg);
        let before: Vec<DeviceProfile> = (0..6).map(|i| view.profile(i)).collect();
        view.grow(48);
        let fresh = FleetView::new(48, &cfg);
        for (i, b) in before.iter().enumerate() {
            prop_assert_eq!(
                &view.profile(i), b,
                "client {}'s device changed because the fleet grew", i
            );
            prop_assert_eq!(
                view.profile(i), fresh.profile(i),
                "grown view and a fresh one disagree at {}", i
            );
        }
        // A diurnal fleet actually has phases to move.
        prop_assert!((0..48).any(|i| view.profile(i).phase != 0.0));
        let reseeded = FleetView::new(6, &FleetConfig { seed: seed ^ 0x9E3779B9, ..cfg.clone() });
        prop_assert!(
            (0..6).any(|i| reseeded.profile(i).phase != before[i].phase),
            "re-seeding left every diurnal phase untouched"
        );
        // Switching the cycle on only adds the phase draw: every field the
        // static fleet had stays byte-identical.
        let static_fleet = FleetView::new(6, &FleetConfig { diurnal: None, ..cfg });
        for (i, b) in before.iter().enumerate() {
            let s = static_fleet.profile(i);
            prop_assert_eq!(s.compute_s.to_bits(), b.compute_s.to_bits());
            prop_assert_eq!(s.bandwidth_bps.to_bits(), b.bandwidth_bps.to_bits());
            prop_assert_eq!(s.latency_s.to_bits(), b.latency_s.to_bits());
            prop_assert_eq!(s.dropout.to_bits(), b.dropout.to_bits());
            prop_assert_eq!(s.phase, 0.0, "static fleets must keep phase 0 at {}", i);
        }
    }
}

// ---------------------------------------------------------------------------
// Masked local training
// ---------------------------------------------------------------------------

proptest! {
    // Real (tiny) SGD runs: keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A ratio-1 mask trains byte-identically to the unmasked path, and a
    /// partial mask pins every masked parameter at exactly zero.
    #[test]
    fn full_mask_training_is_byte_identical(seed in 0u64..1_000, ratio in 0.3f64..0.9) {
        let (train, _) = SynthSpec {
            train_size: 48,
            test_size: 10,
            ..SynthSpec::mnist_like()
        }
        .generate(seed);
        let mut init_rng = Rng64::new(seed ^ 0xA11CE);
        let model = Sequential::new()
            .push(Dense::new(train.feature_dim(), 12, Init::HeNormal, &mut init_rng))
            .push(Activation::leaky_relu())
            .push(Dense::new(12, train.num_classes(), Init::XavierUniform, &mut init_rng));
        let indices: Vec<usize> = (0..48).collect();
        let cfg = LocalTrainConfig {
            epochs: 1,
            batch_size: 16,
            lr: 0.05,
            ..Default::default()
        };

        let plain = run_local_round(model.clone(), &train, &indices, 0, &cfg, &mut Rng64::new(seed));
        let full_mask = StructuredMask::derive(&model, 1.0, &mut Rng64::new(seed ^ 1));
        prop_assert!(full_mask.is_full());
        let masked = run_local_round_masked(
            model.clone(), &train, &indices, 0, &cfg, full_mask, &mut Rng64::new(seed),
        );
        prop_assert_eq!(
            &plain.weights, &masked.weights,
            "ratio-1 masked training diverged from the unmasked path"
        );
        prop_assert_eq!(plain.loss_before.to_bits(), masked.loss_before.to_bits());
        prop_assert_eq!(plain.loss_after.to_bits(), masked.loss_after.to_bits());
        prop_assert!(masked.mask.as_ref().is_some_and(|m| m.is_full()));
        prop_assert!((masked.mask_ratio() - 1.0).abs() < 1e-12);

        // A genuinely partial mask deletes its units: the uploaded weights
        // are exactly zero at every masked position, and nowhere else is
        // forced to zero by the projection.
        let part = StructuredMask::derive(&model, ratio, &mut Rng64::new(seed ^ 2));
        prop_assert!(!part.is_full(), "ratio {} produced a full mask", ratio);
        let sub = run_local_round_masked(
            model.clone(), &train, &indices, 0, &cfg, part.clone(), &mut Rng64::new(seed),
        );
        for (p, &w) in sub.weights.iter().enumerate() {
            if !part.keeps(p) {
                prop_assert_eq!(w, 0.0, "masked position {} escaped the sub-model", p);
            }
        }
        prop_assert!(sub.mask_ratio() < 1.0);
        prop_assert!(
            sub.weights != plain.weights,
            "sub-model training cannot equal full-model training"
        );
    }
}

// ---------------------------------------------------------------------------
// Config serialization
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every `ExecutorConfig` variant — dynamics knobs included — survives
    /// a JSON round trip unchanged, absent dynamics leave no keys behind
    /// (the legacy wire shape), and a config written while the executors
    /// still had a parallel-dispatch switch loads as the same config.
    #[test]
    fn executor_config_roundtrips_through_json(
        variant in 0u8..3,
        dropout in 0.0f64..0.4,
        dropout_skew in 1.0f64..3.0,
        flags in 0u8..32,
        period in 60.0f64..7200.0,
        amplitude in 0.0f64..0.6,
        arrival_gap in 1.0f64..1e6,
        departure_gap in 1.0f64..1e6,
        min_ratio in 0.05f64..0.95,
        levels in 1usize..6,
        deadline in 5.0f64..500.0,
        alpha in 0.1f64..4.0,
        buffer_size in 1usize..8,
        server_mix in 0.1f64..1.0,
        seed in 0u64..1_000,
    ) {
        // Five independent coin flips packed into one draw (the vendored
        // proptest has no bool/Option strategies).
        let bit = |i: u8| flags & (1 << i) != 0;
        let (has_diurnal, has_churn, has_sd, carry) = (bit(0), bit(1), bit(2), bit(3));
        let deadline = bit(4).then_some(deadline);
        let alpha = bit(0).then_some(alpha);
        let server_mix = bit(1).then_some(server_mix);
        let dropout = dropout
            .min(0.99 / (dropout_skew * (1.0 + amplitude)) - 1e-9)
            .max(0.0);
        let fleet = FleetConfig {
            dropout,
            reliability: ReliabilityConfig {
                dropout_skew,
                correlation: DropoutCorrelation::Independent,
            },
            diurnal: has_diurnal.then_some(DiurnalConfig {
                period_s: period,
                dropout_amplitude: amplitude,
                latency_amplitude: amplitude * 0.5,
            }),
            churn: has_churn.then_some(ChurnConfig {
                mean_arrival_gap_s: arrival_gap,
                mean_departure_gap_s: departure_gap,
            }),
            seed,
            ..Default::default()
        };
        let staleness = match alpha {
            Some(a) => StalenessDiscount::Polynomial { alpha: a },
            None => StalenessDiscount::None,
        };
        let cfg = match variant {
            0 => ExecutorConfig::Ideal,
            1 => ExecutorConfig::Deadline(HeteroConfig {
                fleet,
                deadline_s: deadline,
                late_policy: if carry { LatePolicy::CarryOver } else { LatePolicy::Drop },
                structured_dropout: has_sd.then_some(StructuredDropoutConfig {
                    min_ratio,
                    levels,
                }),
                staleness,
            }),
            _ => ExecutorConfig::Buffered(BufferedConfig {
                fleet,
                buffer_size,
                staleness,
                server_mix,
            }),
        };
        match &cfg {
            ExecutorConfig::Ideal => {}
            ExecutorConfig::Deadline(h) => prop_assert!(h.validate().is_ok()),
            ExecutorConfig::Buffered(b) => prop_assert!(b.validate(8).is_ok()),
        }
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ExecutorConfig = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &cfg, "round trip changed the config");
        // Off dynamics serialize to *nothing*: pre-dynamics consumers of
        // these configs never see the new keys.
        if variant != 0 {
            if !has_diurnal {
                prop_assert!(!json.contains("diurnal"));
            }
            if !has_churn {
                prop_assert!(!json.contains("churn"));
            }
            if variant == 1 && !has_sd {
                prop_assert!(!json.contains("structured_dropout"));
            }
            // The removed switch, as older files wrote it: `true` on the
            // deadline executor, `false` on the buffered one.
            let body = json.strip_suffix("}}").expect("a struct variant");
            let legacy = format!("{body},\"parallel_dispatch\":{}}}}}", variant == 1);
            let back: ExecutorConfig = serde_json::from_str(&legacy).unwrap();
            prop_assert_eq!(&back, &cfg, "the legacy key changed the config");
        }
    }
}

/// Configs written before the dynamics layer existed (no `diurnal`,
/// `churn`, or `structured_dropout` keys) still deserialize, with every
/// dynamics knob off.
#[test]
fn legacy_executor_json_deserializes_with_dynamics_off() {
    let legacy = r#"{
        "Deadline": {
            "fleet": {
                "compute_s": 10.0, "compute_skew": 4.0,
                "bandwidth_bps": 1e6, "bandwidth_skew": 1.0,
                "latency_s": 0.05, "dropout": 0.1, "seed": 7
            },
            "deadline_s": 30.0,
            "late_policy": "CarryOver"
        }
    }"#;
    let cfg: ExecutorConfig = serde_json::from_str(legacy).expect("legacy JSON must load");
    let ExecutorConfig::Deadline(h) = cfg else {
        panic!("wrong variant");
    };
    assert!(h.fleet.diurnal.is_none());
    assert!(h.fleet.churn.is_none());
    assert!(h.structured_dropout.is_none());
    assert_eq!(h.deadline_s, Some(30.0));
}

/// Degenerate dynamics configs are rejected up front by the shared
/// validators, not discovered mid-run.
#[test]
fn validation_rejects_degenerate_dynamics() {
    let base = FleetConfig::default();
    let bad_amp = FleetConfig {
        diurnal: Some(DiurnalConfig {
            dropout_amplitude: 1.0,
            ..Default::default()
        }),
        ..base.clone()
    };
    assert!(bad_amp
        .validate()
        .unwrap_err()
        .contains("dropout_amplitude"));
    let bad_period = FleetConfig {
        diurnal: Some(DiurnalConfig {
            period_s: 0.0,
            ..Default::default()
        }),
        ..base.clone()
    };
    assert!(bad_period.validate().unwrap_err().contains("period"));
    let bad_peak = FleetConfig {
        dropout: 0.6,
        diurnal: Some(DiurnalConfig {
            dropout_amplitude: 0.9,
            ..Default::default()
        }),
        ..base.clone()
    };
    assert!(bad_peak.validate().unwrap_err().contains("below 1"));
    let bad_gap = FleetConfig {
        churn: Some(ChurnConfig {
            mean_arrival_gap_s: 0.0,
            ..Default::default()
        }),
        ..base
    };
    assert!(bad_gap
        .validate()
        .unwrap_err()
        .contains("mean_arrival_gap_s"));
    for sd in [
        StructuredDropoutConfig {
            min_ratio: 0.0,
            levels: 4,
        },
        StructuredDropoutConfig {
            min_ratio: 1.0,
            levels: 4,
        },
        StructuredDropoutConfig {
            min_ratio: 0.5,
            levels: 0,
        },
    ] {
        let cfg = HeteroConfig {
            structured_dropout: Some(sd),
            ..Default::default()
        };
        assert!(
            matches!(cfg.validate(), Err(FlError::InvalidDynamics { .. })),
            "degenerate grid {sd:?} slipped through"
        );
    }
}

// ---------------------------------------------------------------------------
// Churn-aware executor bookkeeping (stub training — no NN)
// ---------------------------------------------------------------------------

/// A weightless update (executor logic never reads the payload).
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

/// Drive `rounds` rounds mirroring the session's churn bookkeeping (the
/// client universe grows with the executor's, selection sees departures),
/// asserting along the way that ranked selection never spends a slot on a
/// known-departed client while live candidates remain. Returns the
/// outcomes.
fn drive_churned(
    ex: &mut dyn RoundExecutor,
    policy: &mut dyn SelectionPolicy,
    initial_n: usize,
    k: usize,
    rounds: usize,
) -> Vec<RoundOutcome> {
    let master = Rng64::new(33);
    let mut n = initial_n;
    let mut known_loss: Vec<Option<f32>> = vec![None; n];
    let mut participation = vec![0usize; n];
    let mut outcomes = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let view = ex.view();
        if let Some(universe) = view.universe {
            if universe > n {
                known_loss.resize(universe, None);
                participation.resize(universe, 0);
                n = universe;
            }
        }
        let mut rng = master.derive(round as u64);
        let departed = view.departed.clone().into_owned();
        let selected = {
            let ctx = SelectionContext {
                round,
                n_clients: n,
                participants: k,
                known_loss: &known_loss,
                participation: &participation,
                executor: view,
            };
            policy.select(&ctx, &mut rng)
        };
        assert_eq!(selected.len(), k);
        for &c in &selected {
            participation[c] += 1;
        }
        if n - departed.len() >= k {
            for &c in &selected {
                assert!(
                    !departed.contains(&c),
                    "round {round}: selected departed client {c} with live candidates available"
                );
            }
        }
        let out = ex.execute(&ctx(round), &selected, &stub_train);
        for u in &out.updates {
            known_loss[u.client_id] = Some(u.loss_before);
        }
        outcomes.push(out);
    }
    outcomes
}

fn churning_fleet(seed: u64) -> FleetConfig {
    FleetConfig {
        compute_skew: 4.0,
        dropout: 0.1,
        diurnal: Some(DiurnalConfig {
            period_s: 300.0,
            dropout_amplitude: 0.4,
            latency_amplitude: 0.3,
        }),
        churn: Some(ChurnConfig {
            mean_arrival_gap_s: 25.0,
            mean_departure_gap_s: 30.0,
        }),
        seed,
        ..Default::default()
    }
}

/// The buffered executor's accounting identities survive churn: sampled
/// slots split exactly into dropouts + dispatches + busy-skips, every
/// dispatch is aggregated, lost in transit to a departure, in flight, or
/// buffered — and a departed client's telemetry persists in the table
/// instead of being reaped.
#[test]
fn buffered_churn_accounting_closes_and_telemetry_persists() {
    const N: usize = 24;
    const K: usize = 6;
    let rounds = 80;
    let cfg = BufferedConfig {
        fleet: churning_fleet(0xD15EA5E),
        buffer_size: 3,
        ..Default::default()
    };
    let mut ex = BufferedExecutor::new(cfg, N, 60_000, K, 9);
    let outcomes = drive_churned(
        &mut ex,
        &mut ReliabilityAwareSelection { candidates: 1024 },
        N,
        K,
        rounds,
    );
    let view = ex.view();
    let departed = &view.departed;
    assert!(!departed.is_empty(), "no departures in 80 churning rounds");
    assert!(
        view.universe.unwrap() > N,
        "no arrivals in 80 churning rounds"
    );
    let (mut rec_dropouts, mut rec_busy, mut rec_lost, mut rec_aggregated) = (0, 0, 0, 0usize);
    let (mut rec_joined, mut rec_departed) = (0usize, 0usize);
    for out in &outcomes {
        let h = out.hetero.as_ref().expect("buffered telemetry");
        rec_dropouts += h.dropouts;
        rec_busy += h.busy;
        rec_lost += h.stragglers;
        rec_aggregated += h.aggregated();
        rec_joined += h.joined;
        rec_departed += h.departed;
    }
    assert!(rec_joined > 0 && rec_departed > 0, "records saw no churn");
    let stats = view.reliability.unwrap();
    let totals = stats.totals();
    assert_eq!(totals.dropouts, rec_dropouts);
    assert_eq!(totals.aggregated, rec_aggregated);
    assert_eq!(
        totals.dropouts + totals.dispatches + rec_busy,
        rounds * K,
        "sampled-slot accounting must close under churn"
    );
    assert_eq!(
        totals.dispatches,
        totals.aggregated + rec_lost + ex.in_flight() + ex.buffered(),
        "dispatch accounting must close: lost-in-transit departures are stragglers"
    );
    // Telemetry outlives the device: at least one departed client was
    // observed before leaving, and its record is still in the table.
    assert!(
        departed.iter().any(|&c| {
            let s = stats.get(c);
            s.dispatches + s.dropouts > 0
        }),
        "no departed client left any telemetry behind"
    );
}

/// Deadline-executor churn bookkeeping: dispatches to departed clients
/// read as dropouts, the universe the selection loop sees only grows, and
/// the sampled-slot identity holds (no foregone stragglers under an
/// unbounded deadline).
#[test]
fn deadline_churn_accounting_closes() {
    const N: usize = 16;
    const K: usize = 5;
    let rounds = 60;
    let cfg = HeteroConfig {
        fleet: churning_fleet(0xBEEF),
        deadline_s: None,
        late_policy: LatePolicy::CarryOver,
        ..Default::default()
    };
    let mut ex = DeadlineExecutor::new(cfg, N, 60_000, K, 9);
    let outcomes = drive_churned(
        &mut ex,
        &mut ReliabilityAwareSelection { candidates: 1024 },
        N,
        K,
        rounds,
    );
    let view = ex.view();
    let totals = view.reliability.unwrap().totals();
    let rec_dropouts: usize = outcomes
        .iter()
        .map(|o| o.hetero.as_ref().unwrap().dropouts)
        .sum();
    assert_eq!(totals.dropouts, rec_dropouts);
    assert_eq!(
        totals.dropouts + totals.dispatches,
        rounds * K,
        "every sampled slot is either a dropout (incl. departed) or a dispatch"
    );
    assert!(
        view.universe.unwrap() > N && !view.departed.is_empty(),
        "churn never fired"
    );
}

/// Adaptive structured dropout converts foregone stragglers into masked
/// sub-model dispatches: under a deadline the full fleet cannot meet,
/// every deadline-pressed device trains the largest grid ratio that fits,
/// the record counts it, and nothing is lost to the late policy.
#[test]
fn structured_dropout_rescues_deadline_pressed_devices() {
    use std::sync::Mutex;
    const N: usize = 8;
    let deadline = 12.0;
    let fleet = FleetConfig {
        compute_skew: 4.0,
        seed: 0xFA57,
        ..Default::default()
    };

    let run = |sd: Option<StructuredDropoutConfig>| {
        let cfg = HeteroConfig {
            fleet: fleet.clone(),
            deadline_s: Some(deadline),
            late_policy: LatePolicy::Drop,
            structured_dropout: sd,
            ..Default::default()
        };
        let mut ex = DeadlineExecutor::new(cfg, N, 60_000, N, 9);
        let seen = Mutex::new(Vec::new());
        let train = |ctx: &TrainContext<'_>, dispatches: &[Dispatch]| -> Vec<ClientUpdate> {
            seen.lock().unwrap().extend_from_slice(dispatches);
            stub_train(ctx, dispatches)
        };
        let selected: Vec<usize> = (0..N).collect();
        let out = ex.execute(&ctx(0), &selected, &train);
        (out, seen.into_inner().unwrap(), ex)
    };

    let (dropped, plain_dispatches, _) = run(None);
    let h = dropped.hetero.as_ref().unwrap();
    assert!(
        h.stragglers > 0,
        "Drop run lost nobody — deadline too loose"
    );
    assert!(plain_dispatches.iter().all(|d| d.keep_ratio == 1.0));

    let (rescued, dispatches, ex) = run(Some(StructuredDropoutConfig::default()));
    let h = rescued.hetero.as_ref().unwrap();
    assert!(h.masked > 0, "no device was masked");
    assert_eq!(
        h.masked,
        dispatches.iter().filter(|d| d.keep_ratio < 1.0).count(),
        "masked count must match sub-model dispatches"
    );
    assert_eq!(
        h.stragglers, 0,
        "a fitted sub-model must never miss the deadline"
    );
    assert!(
        rescued.updates.len() > dropped.updates.len(),
        "structured dropout must aggregate more than the Drop policy"
    );
    // Each masked dispatch got the *largest* grid ratio that fits.
    let sd = StructuredDropoutConfig::default();
    let grid: Vec<f64> = (0..sd.levels)
        .rev()
        .map(|i| sd.min_ratio + i as f64 * (1.0 - sd.min_ratio) / sd.levels as f64)
        .collect();
    let view = ex.view();
    let (fleet, upload_bytes) = (view.fleet.unwrap(), view.upload_bytes);
    for d in dispatches.iter().filter(|d| d.keep_ratio < 1.0) {
        let prof = fleet.profile(d.client_id);
        assert!(
            prof.completion_time_at(upload_bytes, d.keep_ratio, None, 0.0) <= deadline,
            "client {} was masked to {} yet still misses",
            d.client_id,
            d.keep_ratio
        );
        let larger = grid
            .iter()
            .find(|&&r| prof.completion_time_at(upload_bytes, r, None, 0.0) <= deadline)
            .expect("some grid ratio fits");
        assert_eq!(
            d.keep_ratio, *larger,
            "client {} did not get the largest fitting ratio",
            d.client_id
        );
    }
}

// ---------------------------------------------------------------------------
// End-to-end byte-identity (real training)
// ---------------------------------------------------------------------------

/// Shared small-session environment (mirrors `session_api`'s golden setup
/// but with one more round so churn has time to fire).
fn dynamics_setup() -> (ModelSpec, Dataset, Dataset, Partition, FlConfig) {
    let (train, test) = SynthSpec {
        train_size: 360,
        test_size: 90,
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
        rounds: 4,
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

fn run_history(cfg: &FlConfig) -> RunHistory {
    let (spec, train, test, partition, _) = dynamics_setup();
    let mut strategy = FedAvg;
    SessionBuilder::new(&spec, &train, &test, &partition, &mut strategy)
        .config(cfg)
        .dataset_name("mnist-like")
        .build()
        .expect("valid dynamics config")
        .run()
        .expect("dynamics run")
}

/// Fully dynamic deadline executor for the end-to-end laws: churning
/// diurnal fleet, tight deadline, adaptive structured dropout.
fn dynamic_deadline() -> ExecutorConfig {
    ExecutorConfig::Deadline(HeteroConfig {
        fleet: churning_fleet(0xD1A1),
        deadline_s: Some(12.0),
        late_policy: LatePolicy::Drop,
        structured_dropout: Some(StructuredDropoutConfig::default()),
        staleness: StalenessDiscount::None,
    })
}

fn dynamic_buffered() -> ExecutorConfig {
    ExecutorConfig::Buffered(BufferedConfig {
        fleet: churning_fleet(0xD1A2),
        buffer_size: 2,
        staleness: StalenessDiscount::Polynomial { alpha: 1.0 },
        server_mix: Some(0.5),
    })
}

/// The dynamic runs actually exercise the machinery on both executors:
/// churn events appear in the records, and the deadline run masks
/// somebody, or the structured-dropout path was never end-to-end
/// exercised.
#[test]
fn churned_dynamic_runs_exercise_churn_and_masking() {
    let (_, _, _, _, base) = dynamics_setup();
    let mut deadline_masked = 0;
    for executor in [dynamic_deadline(), dynamic_buffered()] {
        let is_deadline = matches!(executor, ExecutorConfig::Deadline(_));
        let mut cfg = base.clone();
        cfg.selection = Selection::ReliabilityAware { candidates: 64 };
        cfg.executor = executor;
        let history = run_history(&cfg);
        let hetero = || history.records.iter().filter_map(|r| r.hetero.as_ref());
        let churned: usize = hetero().map(|h| h.joined + h.departed).sum();
        assert!(churned > 0, "dynamic run saw no churn — fixture too tame");
        if is_deadline {
            deadline_masked = hetero().map(|h| h.masked).sum();
        }
    }
    assert!(
        deadline_masked > 0,
        "dynamic deadline run never masked a device"
    );
}

/// The PR-6 regression lock: turning every dynamics knob to its inert
/// setting (zero-amplitude diurnal cycle, churn gaps beyond the horizon)
/// reproduces the dynamics-free history byte-for-byte on both executors.
#[test]
fn inert_dynamics_reproduce_dynamics_free_histories() {
    let (_, _, _, _, base) = dynamics_setup();
    let static_fleet = FleetConfig {
        compute_skew: 4.0,
        dropout: 0.2,
        ..Default::default()
    };
    let inert_fleet = FleetConfig {
        diurnal: Some(DiurnalConfig {
            period_s: 3600.0,
            dropout_amplitude: 0.0,
            latency_amplitude: 0.0,
        }),
        churn: Some(ChurnConfig {
            mean_arrival_gap_s: 1e18,
            mean_departure_gap_s: 1e18,
        }),
        ..static_fleet.clone()
    };
    let deadline = |fleet: FleetConfig| {
        ExecutorConfig::Deadline(HeteroConfig {
            fleet,
            deadline_s: Some(30.0),
            late_policy: LatePolicy::CarryOver,
            ..Default::default()
        })
    };
    let buffered = |fleet: FleetConfig| {
        ExecutorConfig::Buffered(BufferedConfig {
            fleet,
            buffer_size: 2,
            ..Default::default()
        })
    };
    let pairs: [(ExecutorConfig, ExecutorConfig); 2] = [
        (
            deadline(static_fleet.clone()),
            deadline(inert_fleet.clone()),
        ),
        (buffered(static_fleet), buffered(inert_fleet)),
    ];
    for (off, inert) in pairs {
        let mut cfg_off = base.clone();
        cfg_off.executor = off;
        let mut cfg_inert = base.clone();
        cfg_inert.executor = inert;
        assert_eq!(
            scrubbed_json(run_history(&cfg_off)),
            scrubbed_json(run_history(&cfg_inert)),
            "inert dynamics changed a history byte"
        );
    }
}

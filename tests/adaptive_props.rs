//! Property suite for the server-optimizer layer.
//!
//! Four promises, checked at the workspace boundary: (1) the default
//! `ServerOptConfig::Plain` — and a legacy config JSON with the field
//! absent — reproduces the committed golden fixture byte-for-byte, so
//! the optimizer layer is invisible until opted into; (2) adaptive
//! optimizer state (first/second moments) persists across `step()`
//! exactly as across `run()`; (3) the config round-trips through JSON,
//! with `Plain` leaving the serialized shape untouched; (4) degenerate
//! hyper-parameters surface as typed `FlError::InvalidServerOpt` from
//! both `FlConfig::validate` and the builder. The update formulas
//! themselves are pinned against straight-line reference implementations
//! here and in `crates/fl/src/server_opt.rs`'s unit tests.

use feddrl_repro::prelude::*;

mod common;
use common::{golden_json, scrubbed_json};

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

fn golden_fixture() -> String {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/ideal_history.json"
    );
    std::fs::read_to_string(path).expect("read golden fixture")
}

/// Degenerate-config reduction: an explicit `.server_opt(Plain)` through
/// the builder reproduces the pre-optimizer golden fixture byte-for-byte.
/// `Plain` is structural (its `apply` returns the aggregate untouched),
/// so this holds exactly, not approximately.
#[test]
fn plain_reproduces_the_golden_fixture() {
    let (spec, train, test, partition, cfg) = golden_setup();
    let mut strategy = FedAvg;
    let history = SessionBuilder::new(&spec, &train, &test, &partition, &mut strategy)
        .config(&cfg)
        .server_opt(ServerOptConfig::Plain)
        .build()
        .expect("golden config is valid")
        .run()
        .expect("golden run");
    assert_eq!(
        golden_json(history),
        golden_fixture(),
        "Plain server optimizer diverged from the replacement path"
    );
}

/// A config JSON written before the field existed deserializes to
/// `Plain` and reproduces the golden fixture — old experiment configs
/// keep their meaning, bit for bit.
#[test]
fn legacy_config_json_without_the_field_reduces_to_plain() {
    let (spec, train, test, partition, cfg) = golden_setup();
    // The golden config exactly as serde serialized it before the
    // `server_opt` field existed.
    let legacy = r#"{
        "rounds": 3,
        "participants": 5,
        "local": {
            "epochs": 1,
            "batch_size": 16,
            "lr": 0.05,
            "momentum": 0.0,
            "proximal_mu": null,
            "clip_norm": null
        },
        "eval_batch": 64,
        "seed": 77,
        "log_every": 0,
        "selection": "Uniform",
        "executor": "Ideal"
    }"#;
    let parsed: FlConfig = serde_json::from_str(legacy).expect("legacy config parses");
    assert_eq!(parsed.server_opt, ServerOptConfig::Plain);
    assert_eq!(parsed, cfg, "legacy JSON must mean the golden config");
    let mut strategy = FedAvg;
    let history = SessionBuilder::new(&spec, &train, &test, &partition, &mut strategy)
        .config(&parsed)
        .build()
        .expect("valid config")
        .run()
        .expect("run");
    assert_eq!(
        golden_json(history),
        golden_fixture(),
        "a legacy config must reproduce the golden fixture byte-for-byte"
    );
}

/// `Plain` keeps the serialized config shape untouched (the field is
/// skipped), every adaptive variant round-trips losslessly, and a
/// serialized adaptive config deserializes back to itself.
#[test]
fn config_json_round_trips_and_plain_stays_invisible() {
    let (_, _, _, _, cfg) = golden_setup();
    let plain_json = serde_json::to_string_pretty(&cfg).expect("serialize");
    assert!(
        !plain_json.contains("server_opt"),
        "Plain must be skipped so legacy JSON keeps its shape:\n{plain_json}"
    );
    let back: FlConfig = serde_json::from_str(&plain_json).expect("parse");
    assert_eq!(back, cfg);

    let params = AdaptiveParams {
        lr: 0.25,
        beta1: 0.8,
        beta2: 0.95,
        tau: 1e-4,
    };
    for server_opt in [
        ServerOptConfig::FedAdam(params),
        ServerOptConfig::FedYogi(params),
        ServerOptConfig::FedAMSGrad(params),
    ] {
        let mut adaptive = cfg.clone();
        adaptive.server_opt = server_opt;
        let json = serde_json::to_string_pretty(&adaptive).expect("serialize");
        assert!(
            json.contains("server_opt"),
            "{} must be serialized",
            server_opt.name()
        );
        let back: FlConfig = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, adaptive, "{} round-trip", server_opt.name());
    }
}

/// Optimizer-state persistence: driving a FedAdam (and FedYogi) session
/// one round at a time via `step()` yields byte-for-byte the history
/// `run()` does. The second round's step depends on the first round's
/// moments, so the equivalence proves the state is carried in the
/// session, not reset per round.
#[test]
fn step_by_step_equals_run_with_adaptive_state() {
    let (spec, train, test, partition, base_cfg) = golden_setup();
    for server_opt in [
        ServerOptConfig::FedAdam(AdaptiveParams::default()),
        ServerOptConfig::FedYogi(AdaptiveParams::default()),
    ] {
        let mut cfg = base_cfg.clone();
        cfg.server_opt = server_opt;

        let mut s1 = FedAvg;
        let whole = SessionBuilder::new(&spec, &train, &test, &partition, &mut s1)
            .config(&cfg)
            .build()
            .expect("valid config")
            .run()
            .expect("run");

        let mut s2 = FedAvg;
        let mut session = SessionBuilder::new(&spec, &train, &test, &partition, &mut s2)
            .config(&cfg)
            .build()
            .expect("valid config");
        let mut records = Vec::new();
        while let Some(record) = session.step().expect("step") {
            records.push(record.clone());
        }
        let stepped = session.into_history(records);

        assert_eq!(
            scrubbed_json(whole),
            scrubbed_json(stepped),
            "{}: step() and run() histories diverged",
            server_opt.name()
        );
    }
}

/// The adaptive optimizers actually change the trajectory (they are not
/// accidentally `Plain`), and different families diverge from each other.
#[test]
fn adaptive_histories_diverge_from_plain() {
    let (spec, train, test, partition, base_cfg) = golden_setup();
    let mut histories = Vec::new();
    for server_opt in [
        ServerOptConfig::Plain,
        ServerOptConfig::FedAdam(AdaptiveParams::default()),
    ] {
        let mut cfg = base_cfg.clone();
        cfg.server_opt = server_opt;
        let mut strategy = FedAvg;
        let history = SessionBuilder::new(&spec, &train, &test, &partition, &mut strategy)
            .config(&cfg)
            .build()
            .expect("valid config")
            .run()
            .expect("run");
        histories.push(scrubbed_json(history));
    }
    assert_ne!(
        histories[0], histories[1],
        "FedAdam must not silently reduce to the replacement path"
    );
}

/// Multi-round cross-check of all three update rules against
/// straight-line reference implementations at the public `ServerOpt`
/// boundary — bitwise, over a pseudo-random trajectory.
#[test]
fn optimizers_match_straightline_references() {
    let p = AdaptiveParams {
        lr: 0.3,
        beta1: 0.9,
        beta2: 0.97,
        tau: 1e-3,
    };
    let dim = 64;
    for cfg in [
        ServerOptConfig::FedAdam(p),
        ServerOptConfig::FedYogi(p),
        ServerOptConfig::FedAMSGrad(p),
    ] {
        let mut opt = cfg.build();
        let mut rng = Rng64::new(0xADA);
        let mut global: Vec<f32> = (0..dim).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let (mut m, mut v, mut vmax) = (vec![0.0f64; dim], vec![0.0f64; dim], vec![0.0f64; dim]);
        for round in 0..5 {
            let aggregate: Vec<f32> = global.iter().map(|&w| w + rng.uniform(-0.5, 0.5)).collect();
            let got = opt.apply(&global, aggregate.clone());
            // Straight-line reference, all math in f64.
            let mut want = vec![0.0f32; dim];
            for i in 0..dim {
                let delta = aggregate[i] as f64 - global[i] as f64;
                m[i] = p.beta1 * m[i] + (1.0 - p.beta1) * delta;
                let d2 = delta * delta;
                v[i] = match cfg {
                    ServerOptConfig::FedYogi(_) => {
                        v[i] - (1.0 - p.beta2) * d2 * (v[i] - d2).signum()
                    }
                    _ => p.beta2 * v[i] + (1.0 - p.beta2) * d2,
                };
                let denom_v = if matches!(cfg, ServerOptConfig::FedAMSGrad(_)) {
                    vmax[i] = vmax[i].max(v[i]);
                    vmax[i]
                } else {
                    v[i]
                };
                want[i] = (global[i] as f64 + p.lr * m[i] / (denom_v.sqrt() + p.tau)) as f32;
            }
            let got_bits: Vec<u32> = got.iter().map(|w| w.to_bits()).collect();
            let want_bits: Vec<u32> = want.iter().map(|w| w.to_bits()).collect();
            assert_eq!(
                got_bits,
                want_bits,
                "{} diverged from the reference at round {round}",
                cfg.name()
            );
            global = got;
        }
    }
}

/// Degenerate hyper-parameters come back as typed
/// `FlError::InvalidServerOpt` — from `FlConfig::validate` and from the
/// builder, before any training compute is spent.
#[test]
fn degenerate_params_surface_as_typed_errors() {
    let (spec, train, test, partition, base_cfg) = golden_setup();
    let bad_cases = [
        AdaptiveParams {
            lr: 0.0,
            ..AdaptiveParams::default()
        },
        AdaptiveParams {
            lr: f64::INFINITY,
            ..AdaptiveParams::default()
        },
        AdaptiveParams {
            tau: 0.0,
            ..AdaptiveParams::default()
        },
        AdaptiveParams {
            beta1: 1.0,
            ..AdaptiveParams::default()
        },
        AdaptiveParams {
            beta2: f64::NAN,
            ..AdaptiveParams::default()
        },
    ];
    for params in bad_cases {
        let mut cfg = base_cfg.clone();
        cfg.server_opt = ServerOptConfig::FedAdam(params);
        let err = cfg.validate(6).expect_err("validate must reject");
        assert!(
            matches!(err, FlError::InvalidServerOpt { .. }),
            "wrong error for {params:?}: {err:?}"
        );
        let mut strategy = FedAvg;
        let err = SessionBuilder::new(&spec, &train, &test, &partition, &mut strategy)
            .config(&cfg)
            .build()
            .err()
            .expect("builder must reject");
        assert!(
            matches!(err, FlError::InvalidServerOpt { .. }),
            "builder passed through {params:?}: {err:?}"
        );
    }
}

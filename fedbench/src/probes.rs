//! Isolated probes: public functions of each layer timed on the shapes the
//! workloads use. Every value is the median over at least 30 samples
//! taken after warm-up calls.

use std::hint::black_box;
use std::time::{Duration, Instant};

use feddrl::prelude::{
    dispatch_mask, evaluate, masked_weighted_average, run_local_round, run_local_round_masked,
    weighted_average, ClientUpdate, DdpgAgent, DdpgConfig, Experience, FedAvg, FedDrl,
    FedDrlConfig, ModelSpec, PartitionMethod, Rng64, RoundContext, ServerOptConfig, SessionBuilder,
    Strategy, SynthSpec, Tensor,
};
use feddrl_net::prelude::{run_client, Message, NetClientBuilder, NetServerBuilder, UpdateMsg};
use feddrl_nn::parallel::par_map;

use crate::stats::median;
use crate::workloads::{build_world, fleet_world, train_fn, Workload, FLEET_CLIENTS};
use crate::Metric;

/// Samples behind every reported median.
const SAMPLES: usize = 30;

/// Calls made before the first sample.
const WARMUP: usize = 3;

/// A sample repeats a fast call until it lasts about this long.
const MIN_SAMPLE: Duration = Duration::from_micros(200);

/// Median seconds per call of `f`.
fn seconds_per_call<R>(mut f: impl FnMut() -> R) -> f64 {
    let mut once = Duration::ZERO;
    for _ in 0..WARMUP {
        let t = Instant::now();
        black_box(f());
        once = t.elapsed();
    }
    let reps = (MIN_SAMPLE.as_secs_f64() / once.as_secs_f64().max(1e-9)).clamp(1.0, 10_000.0);
    let reps = reps as u32;
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                black_box(f());
            }
            t.elapsed().as_secs_f64() / reps as f64
        })
        .collect();
    median(&samples)
}

fn micros<R>(name: &str, f: impl FnMut() -> R) -> Metric {
    Metric::new(name, seconds_per_call(f) * 1e6, "us")
}

fn millis<R>(name: &str, f: impl FnMut() -> R) -> Metric {
    Metric::new(name, seconds_per_call(f) * 1e3, "ms")
}

/// The `server_fig9` model: 2048 → 1024 → 10, 2 108 426 parameters.
fn big_spec() -> ModelSpec {
    ModelSpec::Mlp {
        in_dim: 2048,
        hidden: vec![1024],
        out_dim: 10,
    }
}

fn nn_probes(seed: u64, out: &mut Vec<Metric>) {
    let mut rng = Rng64::new(seed);
    let w = Tensor::randn(&[64, 128], 0.0, 1.0, &mut rng);
    let batch = Tensor::randn(&[10, 64], 0.0, 1.0, &mut rng);
    out.push(micros("nn.matmul_train_us", || batch.matmul(&w)));
    // 512·64·128 multiply-adds is past the kernel's thread threshold.
    let eval = Tensor::randn(&[512, 64], 0.0, 1.0, &mut rng);
    out.push(micros("nn.matmul_eval_us", || eval.matmul(&w)));

    // Forward and backward of the paper model on one mini-batch of 10;
    // the logits stand in for the loss gradient (same shape, same work).
    let mut paper = ModelSpec::Mlp {
        in_dim: 64,
        hidden: vec![128],
        out_dim: 100,
    }
    .build(seed);
    out.push(micros("nn.fwd_bwd_step_us", || {
        let logits = paper.forward(&batch, true);
        paper.zero_grad();
        paper.backward(&logits)
    }));

    let mut big = big_spec().build(seed);
    let flat = big.flat_params();
    out.push(micros("nn.model_clone_us", || big.clone()));
    out.push(micros("nn.flat_params_us", || big.flat_params()));
    out.push(micros("nn.set_flat_params_us", || {
        big.set_flat_params(&flat)
    }));
    out.push(micros("nn.mask_derive_us", || {
        dispatch_mask(&big, seed, 3, 5, 0.625)
    }));
    let clients: Vec<usize> = (0..10).collect();
    out.push(micros("nn.par_map_spawn_us", || {
        par_map(&clients, |_, &c| c)
    }));
}

fn data_probes(seed: u64, out: &mut Vec<Metric>) {
    let spec = SynthSpec::cifar100_like();
    out.push(millis("data.generate_ms", || spec.generate(seed)));
    let (train, _) = spec.generate(seed);
    out.push(millis("data.partition_ms", || {
        PartitionMethod::ce_cifar100(0.6).partition(&train, 10, &mut Rng64::new(seed))
    }));
}

/// `k` full-size updates as `server_fig9` sees them; every second one is
/// a 0.625 sub-model.
fn big_updates(k: usize, seed: u64) -> (Vec<f32>, Vec<ClientUpdate>) {
    let model = big_spec().build(seed);
    let global = model.flat_params();
    let updates = (0..k)
        .map(|c| {
            let mut weights: Vec<f32> = global.iter().map(|g| g * 0.5).collect();
            let mask = (c % 2 == 1).then(|| {
                let mask = dispatch_mask(&model, seed, 0, c as u64, 0.625);
                mask.apply(&mut weights);
                mask
            });
            ClientUpdate {
                client_id: c,
                weights,
                n_samples: 2,
                loss_before: 1.0,
                loss_after: 0.5,
                staleness: 0,
                mask,
            }
        })
        .collect();
    (global, updates)
}

fn fl_probes(seed: u64, out: &mut Vec<Metric>) {
    // One paper-shape client on one thread: the single-worker baseline of
    // the round `paper_cluster_skew` fans out.
    let world = build_world(Workload::PaperClusterSkew, seed);
    let mut model = world.spec.build(seed);
    let shard = world.partition.client(0);
    let local = &world.cfg.local;
    out.push(millis("fl.local_round_ms", || {
        run_local_round(
            model.clone(),
            &world.train,
            shard,
            0,
            local,
            &mut Rng64::new(seed),
        )
    }));
    out.push(millis("fl.local_round_masked_ms", || {
        let mask = dispatch_mask(&model, seed, 0, 0, 0.625);
        run_local_round_masked(
            model.clone(),
            &world.train,
            shard,
            0,
            local,
            mask,
            &mut Rng64::new(seed),
        )
    }));
    out.push(millis("fl.evaluate_ms", || {
        evaluate(&mut model, &world.test, world.cfg.eval_batch)
    }));

    let k = 16;
    let alphas = vec![1.0 / k as f32; k];
    let (global, updates) = big_updates(k, seed);
    let refs: Vec<&[f32]> = updates.iter().map(|u| u.weights.as_slice()).collect();
    out.push(millis("fl.weighted_average_ms", || {
        weighted_average(&refs, &alphas)
    }));
    out.push(millis("fl.masked_weighted_average_ms", || {
        masked_weighted_average(&global, &updates, &alphas)
    }));
    let mut opt = ServerOptConfig::FedAdam(Default::default()).build();
    let mut aggregate = Some(updates[0].weights.clone());
    out.push(millis("fl.server_opt_fedadam_ms", || {
        // `apply` consumes the aggregate; its result is the next input,
        // so no copy is timed.
        let next = opt.apply(&global, aggregate.take().expect("previous result"));
        aggregate = Some(next);
    }));
    // 135 MB the fleet probes below should not carry.
    drop(refs);
    drop(updates);

    // The `fleet_scale` round at two fleet sizes, same K, buffer and model,
    // after 500 rounds: a round's cost grows with the clients the session
    // has touched so far, which a fresh session hides.
    for (name, n) in [
        ("fl.step_stub_n1e3_us", 1_000),
        ("fl.step_stub_n1e5_us", FLEET_CLIENTS),
    ] {
        let world = fleet_world(n, seed);
        let mut strategy = FedAvg;
        let mut session = SessionBuilder::new(
            &world.spec,
            &world.train,
            &world.test,
            &world.partition,
            &mut strategy,
        )
        .config(&world.cfg)
        .train_fn(train_fn(Workload::FleetScale, &world, None).expect("stub train_fn"))
        .build()
        .expect("fleet config is valid");
        let mut step = || session.step().expect("fleet round").map(|r| r.round);
        for _ in 0..500 {
            step();
        }
        out.push(micros(name, step));
    }
}

/// `k` scalar client reports (the strategy never reads the weights).
fn reports(k: usize, round: usize) -> Vec<ClientUpdate> {
    (0..k)
        .map(|c| ClientUpdate {
            client_id: c,
            weights: Vec::new(),
            n_samples: 100 + 10 * c,
            loss_before: 2.0 / (1.0 + round as f32).sqrt() + 0.05 * c as f32,
            loss_after: 1.0 / (1.0 + round as f32).sqrt(),
            staleness: 0,
            mask: None,
        })
        .collect()
}

fn strategy_call(strategy: &mut FedDrl, k: usize, round: &mut usize) -> Vec<f32> {
    let updates = reports(k, *round);
    let factors = strategy.impact_factors_ctx(&RoundContext {
        round: *round,
        global_weights: &[],
        updates: &updates,
    });
    *round += 1;
    factors
}

fn drl_probes(out: &mut Vec<Metric>) {
    // The paper's Fig. 9 row: inference only, no online training.
    let frozen = FedDrlConfig {
        online_training: false,
        ..Default::default()
    };
    let (mut strategy, mut round) = (FedDrl::new(10, &frozen), 0);
    out.push(micros("core.impact_factors_infer_us", || {
        strategy_call(&mut strategy, 10, &mut round)
    }));

    // What a default (online) FedDRL round pays once the replay buffer is
    // past its 16-transition warm-up: 20 rounds first, then the samples.
    for (name, k) in [
        ("core.impact_factors_online_k10_ms", 10),
        ("core.impact_factors_online_k16_ms", 16),
    ] {
        let (mut strategy, mut round) = (FedDrl::new(k, &Default::default()), 0);
        for _ in 0..20 {
            strategy_call(&mut strategy, k, &mut round);
        }
        out.push(millis(name, || strategy_call(&mut strategy, k, &mut round)));
    }

    let cfg = DdpgConfig {
        buffer_capacity: 256,
        ..Default::default()
    };
    let (state_dim, action_dim) = (cfg.state_dim, cfg.action_dim);
    let mut agent = DdpgAgent::new(cfg);
    let state = vec![0.1f32; state_dim];
    out.push(micros("drl.act_us", || agent.act(&state, true)));
    for i in 0..256 {
        agent.remember(Experience {
            state: vec![0.01 * (i % 17) as f32; state_dim],
            action: vec![0.1; action_dim],
            reward: -(i as f32) / 256.0,
            next_state: vec![0.01 * (i % 13) as f32; state_dim],
        });
    }
    out.push(millis("drl.train_ms", || agent.train()));
}

fn net_probes(out: &mut Vec<Metric>) {
    for (tag, params) in [("530k", 529_930usize), ("3k", 2_762)] {
        let msg = Message::Update(UpdateMsg {
            client_id: 1,
            round: 9,
            model_version: 9,
            staleness: 0,
            n_samples: 64,
            loss_before: 1.0,
            loss_after: 0.5,
            weights: (0..params).map(|i| i as f32 * 1e-6).collect(),
        });
        let frame = msg.encode();
        out.push(micros(&format!("net.wire.encode_update_{tag}_us"), || {
            msg.encode()
        }));
        out.push(micros(&format!("net.wire.decode_update_{tag}_us"), || {
            Message::decode(&frame).expect("own frame decodes")
        }));
        out.push(Metric::new(
            &format!("net.wire.update_frame_{tag}_bytes"),
            frame.len() as f64,
            "B",
        ));
    }

    // Bind, one worker connects and subscribes, shut down, join.
    out.push(millis("net.connect_ms", || {
        let server = NetServerBuilder::new().build().expect("bind");
        let cfg = NetClientBuilder::new(server.local_addr().to_string(), 0)
            .build()
            .expect("worker config");
        let worker = std::thread::spawn(move || {
            run_client(&cfg, |_, global| ClientUpdate {
                client_id: 0,
                weights: global.to_vec(),
                n_samples: 1,
                loss_before: 1.0,
                loss_after: 1.0,
                staleness: 0,
                mask: None,
            })
        });
        server
            .wait_for_clients(1, Duration::from_secs(10))
            .expect("worker subscribes");
        drop(server);
        worker.join().expect("worker thread").expect("clean exit");
    }));
}

/// Run every probe.
pub fn run_probes(seed: u64) -> Vec<Metric> {
    let mut out = Vec::new();
    nn_probes(seed, &mut out);
    data_probes(seed, &mut out);
    fl_probes(seed, &mut out);
    drl_probes(&mut out);
    net_probes(&mut out);
    out
}

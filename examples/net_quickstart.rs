//! Networked quickstart: a federated run over real loopback sockets.
//!
//! Starts a `feddrl_net` server and four worker threads in one process,
//! wires them together with the `NetworkExecutor`, and drives five
//! rounds of *real* local training through the unchanged session loop —
//! every model broadcast and every update crosses a TCP socket. Prints
//! the accuracy trajectory plus the measured transport telemetry
//! (p50/p99 round-trip time).
//!
//! Run with: `cargo run --release --example net_quickstart`

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use feddrl_repro::prelude::*;

const N_CLIENTS: usize = 4;
const ROUNDS: usize = 5;

fn main() {
    // 1. Data and model, shared read-only with every worker thread.
    let (train, test) = SynthSpec {
        train_size: 1200,
        test_size: 300,
        ..SynthSpec::mnist_like()
    }
    .generate(11);
    let partition = PartitionMethod::ce(0.6)
        .partition(&train, N_CLIENTS, &mut Rng64::new(3))
        .expect("partition");
    let spec = ModelSpec::Mlp {
        in_dim: train.feature_dim(),
        hidden: vec![32],
        out_dim: train.num_classes(),
    };
    let cfg = FlConfig {
        rounds: ROUNDS,
        participants: N_CLIENTS,
        local: LocalTrainConfig {
            epochs: 1,
            batch_size: 16,
            lr: 0.05,
            ..Default::default()
        },
        eval_batch: 256,
        seed: 2022,
        log_every: 0,
        selection: Selection::Uniform,
        executor: ExecutorConfig::Ideal, // overridden by the net executor
        server_opt: ServerOptConfig::Plain,
    };
    let shared_train = Arc::new(train.clone());
    let shared_partition = Arc::new(partition.clone());
    let shared_spec = Arc::new(spec.clone());
    let local_cfg = cfg.local.clone();
    let seed = cfg.seed;

    // 2. The server endpoint on an ephemeral loopback port, with
    //    delta-compressed publishes on (steady-state broadcasts cross
    //    the wire as sparse residuals whenever that is cheaper).
    let server = NetServerBuilder::new()
        .delta_publish(true)
        .build()
        .expect("bind server");
    let addr = server.local_addr().to_string();
    println!("server listening on {addr}");

    // 3. Four workers, each a real `feddrl_net::client` loop doing real
    //    local training on its own shard: rebuild the model from the
    //    published weights, train, report. The RNG derivation matches the
    //    in-process session contract, so this is the same computation the
    //    simulator would run — just across sockets.
    let workers: Vec<_> = (0..N_CLIENTS)
        .map(|cid| {
            let (train, partition, spec) = (
                Arc::clone(&shared_train),
                Arc::clone(&shared_partition),
                Arc::clone(&shared_spec),
            );
            let local_cfg = local_cfg.clone();
            let worker_cfg = NetClientBuilder::new(addr.clone(), cid)
                .build()
                .expect("client config");
            thread::spawn(move || {
                run_client(&worker_cfg, move |order, global| {
                    let mut model = spec.build(0);
                    model.set_flat_params(global);
                    let mut rng = Rng64::new(seed ^ 0xC11E)
                        .derive(order.round)
                        .derive(cid as u64);
                    run_local_round(
                        model,
                        &train,
                        partition.client(cid),
                        cid,
                        &local_cfg,
                        &mut rng,
                    )
                })
            })
        })
        .collect();
    server
        .wait_for_clients(N_CLIENTS, Duration::from_secs(10))
        .expect("workers subscribed");
    println!("{N_CLIENTS} workers subscribed");

    // 4. The unchanged session loop over the networked executor.
    let executor = NetworkExecutor::barrier(server);
    let telemetry = executor.telemetry();
    let mut strategy = FedAvg;
    let history = SessionBuilder::new(&spec, &train, &test, &partition, &mut strategy)
        .config(&cfg)
        .dataset_name("mnist-like")
        .executor_instance(Box::new(executor))
        .build()
        .expect("valid federated config")
        .run()
        .expect("networked run");
    // Dropping the session shut the server down; workers exit on `Bye`.
    for w in workers {
        w.join().expect("worker thread").expect("clean worker exit");
    }

    // 5. Report: learning trajectory plus measured transport telemetry.
    println!("\nround  accuracy");
    for r in &history.records {
        println!("{:>5}  {:.4}", r.round, r.test_accuracy);
    }
    let t = telemetry.lock().unwrap();
    println!(
        "\ntransport: {} dispatches, {} updates, p50 RTT = {:.3} ms, p99 RTT = {:.3} ms",
        t.dispatched,
        t.accepted,
        t.p50_rtt_ms(),
        t.p99_rtt_ms()
    );
    println!(
        "publishes: {} B on the wire vs {} B dense ({} delta / {} full frames, ratio {:.3})",
        t.publish.wire_bytes,
        t.publish.dense_bytes,
        t.publish.delta_frames,
        t.publish.full_frames,
        t.publish.wire_to_dense_ratio()
    );
    assert!(t.dispatched == ROUNDS * N_CLIENTS && t.failed_dispatches == 0);
}

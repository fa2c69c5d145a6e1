//! Networked-runtime measurement: the `feddrl_net` executor over real
//! loopback sockets vs the simulator's predictions for the same fleet.
//!
//! Spins up a `feddrl_net` server plus one worker per client — a thread
//! by default, a real OS process under `--processes` (`exp_paper`
//! re-execs itself with `--worker`, see [`run_worker_process`]) — and
//! drives the `NetworkExecutor` directly: every model broadcast and every
//! update crosses a TCP socket. Each worker delays its reply by its device profile's
//! completion time (drawn from the same skewed [`FleetConfig`] the
//! simulator uses, linearly scaled from simulated seconds to real
//! milliseconds), so the transport sees the fleet the discrete-event
//! simulator only imagines. Two measured cells:
//!
//! * **barrier** — wait for every dispatch: measured p50/p99 round-trip
//!   time and update throughput against the fleet profile's predicted
//!   completion percentiles (staleness is zero by construction). Delta
//!   publishes are on: after the first dense fan-out, steady-state
//!   rounds ship sparse `ModelPublishDelta` frames and the cell reports
//!   (and asserts) the resulting bytes-on-wire reduction. Under
//!   `--processes` one worker process is killed mid-run; its TTL expiry
//!   must surface as a permanent departure.
//! * **buffered(m)** — aggregate at the m-th arrival: *measured* mean
//!   staleness (model-version gaps of real late arrivals) against the
//!   mean staleness the simulator's `BufferedExecutor` predicts for the
//!   identical fleet, buffer, and horizon.
//!
//! Artifacts: `net_sweep.txt` (table) and `net_sweep.csv`.

use std::process::{Child, Command};
use std::thread;
use std::time::{Duration, Instant};

use super::Federation;
use crate::{Env, ExpOptions, ExperimentSpec, Row, Scale, SweepTable};
use feddrl::prelude::*;
use feddrl_net::prelude::*;
use feddrl_sim::prelude::*;

/// Liveness TTL / worker heartbeat for the process cell — short enough
/// that a killed worker departs within a quick run.
const PROCESS_TTL: Duration = Duration::from_millis(900);
const PROCESS_HEARTBEAT: Duration = Duration::from_millis(100);

/// Real milliseconds the slowest device's completion time maps onto.
fn target_max_ms(scale: Scale) -> f64 {
    match scale {
        Scale::Quick => 60.0,
        _ => 150.0,
    }
}

/// The deterministic stub update both the workers and the simulator's
/// train callback compute: a cheap, client-dependent transform of the
/// published weights (the measurement targets the transport, not SGD).
fn stub_update(client_id: usize, round: u64, global: &[f32]) -> ClientUpdate {
    let scale = 0.9 - 0.01 * client_id as f32;
    ClientUpdate {
        client_id,
        weights: global.iter().map(|w| w * scale).collect(),
        n_samples: 10 + client_id,
        loss_before: 1.0 / (round as f32 + 1.0),
        loss_after: 0.5 / (round as f32 + 1.0),
        staleness: 0,
        mask: None,
    }
}

/// The `--worker` entry point: `exp_paper --worker --addr A --id N
/// --delay-ms D`, re-execed by the `net` sweep as one federated worker
/// process. Parses its own tiny argument grammar (`args` follow
/// `--worker`; they must never reach [`ExpOptions::parse`], which would
/// reject them), runs the same deterministic stub the thread workers run,
/// and exits 0 on a clean `Bye`.
///
/// # Panics
/// Panics on an unknown or missing worker argument.
pub fn run_worker_process(args: &[String]) -> ! {
    let mut addr = None;
    let mut id = None;
    let mut delay_ms = 0.0f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = it.next().cloned(),
            "--id" => id = it.next().and_then(|v| v.parse::<usize>().ok()),
            "--delay-ms" => {
                delay_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--delay-ms needs a float");
            }
            other => panic!("unknown worker argument: {other}"),
        }
    }
    let addr = addr.expect("--worker needs --addr");
    let id = id.expect("--worker needs --id");
    let cfg = NetClientBuilder::new(addr, id)
        .heartbeat(PROCESS_HEARTBEAT)
        .train_delay(Duration::from_secs_f64(delay_ms / 1e3))
        .build()
        .expect("worker config");
    let outcome = run_client(&cfg, move |order, global| {
        stub_update(id, order.round, global)
    });
    match outcome {
        Ok(_) => std::process::exit(0),
        Err(e) => {
            eprintln!("worker {id} failed: {e}");
            std::process::exit(1);
        }
    }
}

/// One measured loopback run's outcome.
struct NetRun {
    telemetry: NetTelemetry,
    wall_s: f64,
    /// Publish bytes-on-wire over the steady-state rounds (everything
    /// after the first round's cold dense fan-out).
    steady_publish: PublishStats,
    /// Ids departed by the end of the run (TTL expiry or `Bye`).
    departed: Vec<usize>,
}

/// Worker handles for either spawning mode, so the run loop can join
/// threads and reap processes uniformly (and kill one process mid-run).
enum Workers {
    Threads(Vec<thread::JoinHandle<Result<ClientReport, WireError>>>),
    Processes(Vec<Child>),
}

impl Workers {
    /// Kill worker `idx` (process mode only; thread workers cannot be
    /// killed mid-run and `None` is returned).
    fn kill(&mut self, idx: usize) -> Option<usize> {
        match self {
            Workers::Threads(_) => None,
            Workers::Processes(children) => {
                let child = children.get_mut(idx)?;
                child.kill().expect("kill worker process");
                let _ = child.wait();
                Some(idx)
            }
        }
    }

    fn join(self) {
        match self {
            Workers::Threads(handles) => {
                for h in handles {
                    let _ = h.join().expect("worker thread");
                }
            }
            Workers::Processes(children) => {
                for mut c in children {
                    let _ = c.wait();
                }
            }
        }
    }
}

/// Server + `n_clients` delayed loopback workers, `rounds` executor
/// rounds; `buffer: None` is barrier mode, `Some(m)` buffered. With
/// `processes` the workers are real OS processes and the one with the
/// highest id is killed halfway through — its TTL expiry must flow into
/// the departed set without stalling the remaining rounds.
fn run_net(
    n_clients: usize,
    rounds: usize,
    params: usize,
    delays_ms: &[f64],
    buffer: Option<usize>,
    processes: bool,
) -> NetRun {
    let ttl = if processes {
        PROCESS_TTL
    } else {
        Duration::from_secs(5)
    };
    let server = NetServerBuilder::new()
        .ttl(ttl)
        .delta_publish(true)
        .build()
        .expect("bind server");
    let addr = server.local_addr().to_string();

    let mut workers = if processes {
        let exe = std::env::current_exe().expect("own binary path");
        Workers::Processes(
            (0..n_clients)
                .map(|cid| {
                    Command::new(&exe)
                        .args([
                            "--worker",
                            "--addr",
                            &addr,
                            "--id",
                            &cid.to_string(),
                            "--delay-ms",
                            &format!("{:.3}", delays_ms[cid]),
                        ])
                        .spawn()
                        .expect("spawn worker process")
                })
                .collect(),
        )
    } else {
        Workers::Threads(
            (0..n_clients)
                .map(|cid| {
                    let cfg = NetClientBuilder::new(addr.clone(), cid)
                        .train_delay(Duration::from_secs_f64(delays_ms[cid] / 1e3))
                        .build()
                        .expect("worker config");
                    thread::spawn(move || {
                        run_client(&cfg, move |order, global| {
                            stub_update(cid, order.round, global)
                        })
                    })
                })
                .collect(),
        )
    };
    server
        .wait_for_clients(n_clients, Duration::from_secs(10))
        .expect("workers subscribed");

    let mut exec = match buffer {
        None => NetworkExecutor::barrier(server),
        Some(m) => NetworkExecutor::buffered(server, m),
    }
    .with_round_timeout(Duration::from_secs(30));
    let telemetry = exec.telemetry();
    let selected: Vec<usize> = (0..n_clients).collect();
    let mut global = vec![0.0f32; params];
    let noop: &TrainFn<'_> = &|_, _| Vec::new();
    let kill_at = rounds / 2;
    let mut cold_publish = PublishStats::default();
    let start = Instant::now();
    for round in 0..rounds {
        // Sweep (and surface) departures before dispatching, exactly as
        // the session does via selection context.
        let _ = exec.view();
        // Touch one parameter per round so steady-state publishes are
        // genuine sparse deltas, not empty ones.
        global[round % params] = (round + 1) as f32;
        exec.publish_model(round, &global);
        let ctx = TrainContext {
            round,
            seed: 0,
            global: &global,
        };
        let _ = exec.execute(&ctx, &selected, noop);
        if round == 0 {
            cold_publish = telemetry.lock().unwrap().publish;
        }
        if processes && round + 1 == kill_at {
            // Kill between rounds, then outlast the TTL so the next
            // round's sweep retires the worker instead of the barrier
            // waiting on its corpse.
            if let Some(idx) = workers.kill(n_clients - 1) {
                eprintln!("killed worker process {idx} after round {round}");
                thread::sleep(ttl * 5 / 2);
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let departed = exec.server().departed();
    // Dropping the executor shuts the server down; workers exit on `Bye`
    // (a buffered run may cut a still-sleeping straggler's socket, so the
    // worker result is not required to be clean here).
    drop(exec);
    workers.join();
    let snapshot = telemetry.lock().unwrap().clone();
    let steady_publish = snapshot.publish.since(&cold_publish);
    NetRun {
        telemetry: snapshot,
        wall_s,
        steady_publish,
        departed,
    }
}

/// The simulator's prediction for the same fleet/buffer/horizon: a
/// `BufferedExecutor` session over the identical stub train transform.
fn run_sim_buffered(
    exp: &ExperimentSpec,
    env: &Env,
    fleet: &FleetConfig,
    buffer_size: usize,
    rounds: usize,
) -> RunHistory {
    let (train, test, partition, model) = env;
    let mut fl_cfg = exp.fl_config();
    fl_cfg.rounds = rounds;
    fl_cfg.executor = ExecutorConfig::Buffered(BufferedConfig {
        fleet: fleet.clone(),
        buffer_size,
        ..Default::default()
    });
    let mut strategy = FedAvg;
    SessionBuilder::new(model, train, test, partition, &mut strategy)
        .config(&fl_cfg)
        .dataset_name(exp.dataset.name())
        .train_fn(Box::new(
            |ctx: &TrainContext<'_>, dispatches: &[Dispatch]| {
                dispatches
                    .iter()
                    .map(|d| stub_update(d.client_id, ctx.round as u64, ctx.global))
                    .collect()
            },
        ))
        .build()
        .unwrap_or_else(|e| panic!("invalid sim cell: {e}"))
        .run()
        .unwrap_or_else(|e| panic!("sim cell failed: {e}"))
}

/// The sweep row of one measured cell.
fn row(
    mode: &str,
    buffer: &str,
    rounds: usize,
    run: &NetRun,
    (pred_p50_ms, pred_p99_ms): (f64, f64),
    sim_staleness: f64,
) -> Row {
    let t = &run.telemetry;
    let p = &t.publish;
    Row::new()
        .text(mode)
        .text(buffer)
        .text(rounds)
        .text(t.dispatched)
        .text(t.accepted)
        .num(t.p50_rtt_ms(), 2)
        .num(t.p99_rtt_ms(), 2)
        .num(pred_p50_ms, 2)
        .num(pred_p99_ms, 2)
        .num(t.accepted as f64 / run.wall_s.max(1e-9), 0)
        .num(t.mean_staleness(), 2)
        .num(sim_staleness, 2)
        .text(p.wire_bytes)
        .text(p.dense_bytes)
        // One table column, two CSV columns.
        .cell(
            format!("{}/{}", p.delta_frames, p.full_frames),
            format!("{},{}", p.delta_frames, p.full_frames),
        )
        .num(run.steady_publish.wire_to_dense_ratio(), 3)
}

pub(crate) fn run(opts: &ExpOptions) {
    let n_clients = 8;
    let rounds = opts.rounds();
    let buffer_size = n_clients / 2;
    let Federation {
        exp,
        env,
        params,
        upload_bytes,
    } = Federation::new(opts, n_clients);

    // The fleet both sides share: the workers' real delays and the
    // simulator's virtual completion times come from the same profiles.
    let fleet = FleetConfig {
        compute_skew: 4.0,
        seed: opts.seed ^ 0xA51C,
        ..Default::default()
    };
    let devices = FleetView::new(n_clients, &fleet);
    let completion_s: Vec<f64> = devices
        .profiles()
        .map(|p| p.completion_time_s(upload_bytes))
        .collect();
    let max_s = completion_s.iter().cloned().fold(0.0f64, f64::max);
    let ms_per_sim_s = target_max_ms(opts.scale) / max_s.max(1e-9);
    let delays_ms: Vec<f64> = completion_s.iter().map(|s| s * ms_per_sim_s).collect();
    // The fleet's nearest-rank percentiles (the definition the measured
    // `NetTelemetry::rtt_percentile_ms` shares), on the workers' scale.
    let predicted = (
        devices.completion_percentile_s(upload_bytes, 0.5) * ms_per_sim_s,
        devices.completion_percentile_s(upload_bytes, 0.99) * ms_per_sim_s,
    );
    println!(
        "fleet: skew {:.0}, completion {:.2}-{:.2} sim s, scaled at {:.1} ms per sim s \
         ({} params, {} B upload), workers as {}",
        fleet.compute_skew,
        completion_s.iter().cloned().fold(f64::INFINITY, f64::min),
        max_s,
        ms_per_sim_s,
        params,
        upload_bytes,
        if opts.processes {
            "OS processes"
        } else {
            "threads"
        }
    );

    let mut table = SweepTable::new(&[
        ("mode", "mode"),
        ("buffer m", "buffer"),
        ("rounds", "rounds"),
        ("dispatched", "dispatched"),
        ("updates", "updates"),
        ("p50 RTT ms", "p50_rtt_ms"),
        ("p99 RTT ms", "p99_rtt_ms"),
        ("pred p50", "predicted_p50_ms"),
        ("pred p99", "predicted_p99_ms"),
        ("upd/s", "updates_per_s"),
        ("stale (meas)", "measured_mean_staleness"),
        ("stale (sim)", "predicted_mean_staleness"),
        ("pub wire B", "publish_wire_bytes"),
        ("pub dense B", "publish_dense_bytes"),
        ("delta/full", "delta_frames,full_frames"),
        ("steady ratio", "steady_wire_to_dense"),
    ]);

    // Cell 1 — barrier: every round waits for all dispatches, so RTT
    // percentiles should track the fleet's completion percentiles and
    // staleness is zero on both sides by construction. Delta publishes
    // are on; under --processes the workers are real killable processes.
    let barrier = run_net(n_clients, rounds, params, &delays_ms, None, opts.processes);
    let steady = &barrier.steady_publish;
    println!(
        "barrier publishes: steady-state {} wire B vs {} dense-equivalent B \
         (ratio {:.3}, {} delta / {} full frames)",
        steady.wire_bytes,
        steady.dense_bytes,
        steady.wire_to_dense_ratio(),
        steady.delta_frames,
        steady.full_frames,
    );
    assert!(
        steady.wire_to_dense_ratio() <= 0.5,
        "steady-state delta publishes must cost at most half the dense \
         fan-out, got {:.3}",
        steady.wire_to_dense_ratio()
    );
    if opts.processes {
        assert!(
            barrier.departed.contains(&(n_clients - 1)),
            "the killed worker process must surface as departed, got {:?}",
            barrier.departed
        );
        println!(
            "killed worker {} departed via TTL expiry; survivors finished the run",
            n_clients - 1
        );
    }
    table.push(row("barrier", "-", rounds, &barrier, predicted, 0.0));

    // Cell 2 — buffered(m): real late arrivals carry measured staleness;
    // the simulator predicts it for the identical fleet/buffer/horizon.
    let buffered = run_net(
        n_clients,
        rounds,
        params,
        &delays_ms,
        Some(buffer_size),
        false,
    );
    let sim = run_sim_buffered(&exp, &env, &fleet, buffer_size, rounds);
    let buffer = buffer_size.to_string();
    table.push(row(
        "buffered",
        &buffer,
        rounds,
        &buffered,
        predicted,
        sim.mean_staleness(),
    ));

    println!(
        "\nNetworked runtime over loopback: N = {n_clients}, {rounds} rounds, \
         buffered m = {buffer_size}\n"
    );
    println!("{}", table.render());
    println!(
        "reading guide: workers delay replies by their device profile's \
         completion time (scaled sim s -> real ms), so 'p50/p99 RTT' are \
         *measured* socket round trips against the fleet's 'pred' \
         completion percentiles; 'stale (meas)' is the mean model-version \
         gap of real buffered arrivals vs the simulator's prediction for \
         the identical fleet, buffer, and horizon. 'pub wire B' counts \
         bytes actually written by publishes vs their dense-equivalent \
         cost, and 'steady ratio' is that quotient excluding the first \
         round's cold dense fan-out — the delta-encoding saving."
    );
    table.write(opts, "net_sweep");
}

//! Criterion harness for the heterogeneity engine's hot paths.
//!
//! `event_queue/*` measures the discrete-event core in isolation
//! (schedule + drain of n upload-completion events); `deadline_round/*`
//! measures a full `DeadlineExecutor::execute` over pre-trained updates —
//! the per-round overhead the engine adds on top of local training;
//! `buffered_round/*` does the same for the asynchronous
//! `BufferedExecutor`, whose event queue persists across rounds (in-flight
//! bookkeeping plus the partial drain to a filled buffer).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use feddrl_fl::client::ClientUpdate;
use feddrl_fl::executor::{
    BufferedConfig, BufferedExecutor, DeadlineExecutor, Dispatch, HeteroConfig, LatePolicy,
    RoundExecutor, StalenessDiscount, TrainContext,
};
use feddrl_nn::rng::Rng64;
use feddrl_sim::device::FleetConfig;
use feddrl_sim::event::{EventKind, EventQueue};

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    for n in [64usize, 1024, 16384] {
        let mut rng = Rng64::new(11);
        let times: Vec<f64> = (0..n).map(|_| rng.next_f64() * 1e4).collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("schedule_drain", n), &n, |b, _| {
            b.iter(|| {
                let mut q = EventQueue::new();
                for (i, &t) in times.iter().enumerate() {
                    q.schedule(
                        t,
                        EventKind::UploadComplete {
                            client_id: i,
                            version: i % 8,
                        },
                    );
                }
                let mut last = 0.0f64;
                while let Some(e) = q.pop() {
                    last = e.time_s;
                }
                std::hint::black_box(last)
            })
        });
    }
    group.finish();
}

fn bench_deadline_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("deadline_round");
    for k in [10usize, 100] {
        let cfg = HeteroConfig {
            fleet: FleetConfig {
                compute_skew: 4.0,
                bandwidth_skew: 2.0,
                dropout: 0.1,
                ..Default::default()
            },
            deadline_s: Some(60.0),
            late_policy: LatePolicy::CarryOver,
            staleness: StalenessDiscount::Polynomial { alpha: 1.0 },
            ..Default::default()
        };
        let mut ex = DeadlineExecutor::new(cfg, k, 100_000, k, 7);
        let selected: Vec<usize> = (0..k).collect();
        // Pre-built updates: the bench isolates the engine, not training.
        let updates: Vec<ClientUpdate> = (0..k).map(stub_update).collect();
        let train = |_: &TrainContext<'_>, dispatches: &[Dispatch]| -> Vec<ClientUpdate> {
            dispatches
                .iter()
                .map(|d| updates[d.client_id].clone())
                .collect()
        };
        let mut round = 0usize;
        group.throughput(Throughput::Elements(k as u64));
        group.bench_with_input(BenchmarkId::new("execute", k), &k, |b, _| {
            b.iter(|| {
                let out = ex.execute(
                    &TrainContext {
                        round,
                        seed: 0,
                        global: &[],
                    },
                    &selected,
                    &train,
                );
                round += 1;
                std::hint::black_box(out.hetero)
            })
        });
    }
    group.finish();
}

fn stub_update(client_id: usize) -> ClientUpdate {
    ClientUpdate {
        client_id,
        weights: vec![0.0; 64],
        n_samples: 100,
        loss_before: 1.0,
        loss_after: 0.5,
        staleness: 0,
        mask: None,
    }
}

fn bench_buffered_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("buffered_round");
    for k in [10usize, 100] {
        let cfg = BufferedConfig {
            fleet: FleetConfig {
                compute_skew: 4.0,
                bandwidth_skew: 2.0,
                dropout: 0.1,
                ..Default::default()
            },
            buffer_size: k / 2,
            staleness: StalenessDiscount::Polynomial { alpha: 0.5 },
            ..Default::default()
        };
        let mut ex = BufferedExecutor::new(cfg, k, 100_000, k, 7);
        let selected: Vec<usize> = (0..k).collect();
        let updates: Vec<ClientUpdate> = (0..k).map(stub_update).collect();
        let train = |_: &TrainContext<'_>, dispatches: &[Dispatch]| -> Vec<ClientUpdate> {
            dispatches
                .iter()
                .map(|d| updates[d.client_id].clone())
                .collect()
        };
        let mut round = 0usize;
        group.throughput(Throughput::Elements(k as u64));
        group.bench_with_input(BenchmarkId::new("execute", k), &k, |b, _| {
            b.iter(|| {
                let out = ex.execute(
                    &TrainContext {
                        round,
                        seed: 0,
                        global: &[],
                    },
                    &selected,
                    &train,
                );
                round += 1;
                std::hint::black_box(out.hetero)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_deadline_round,
    bench_buffered_round
);
criterion_main!(benches);

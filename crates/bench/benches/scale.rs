//! Criterion harness for the million-client scale machinery.
//!
//! `scale/round` prices one full buffered round (selection → parallel
//! dispatch → event queue → aggregation, stub training) against fleet
//! size: with the lazy `FleetView`, sparse `ReliabilityTable` and the
//! O(log active) event queue, per-round cost must track the dispatch
//! width, not N — the group is the rounds/sec gate behind the `exp_scale`
//! sweep. `scale/fleet_view` prices lazy executor construction (O(1) in
//! N) and single-profile derivation; `scale/event_queue` prices a
//! push/pop cycle at a large active-entry count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use feddrl_fl::client::ClientUpdate;
use feddrl_fl::executor::{BufferedConfig, BufferedExecutor, Dispatch, RoundExecutor};
use feddrl_fl::selection::{Selection, SelectionContext};
use feddrl_nn::rng::Rng64;
use feddrl_sim::device::{FleetConfig, FleetView};
use feddrl_sim::event::{EventKind, EventQueue};

const K: usize = 64;
const BUFFER: usize = 16;
const CANDIDATES: usize = 256;

fn stub_train(dispatches: &[Dispatch]) -> Vec<ClientUpdate> {
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

fn bench_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale");
    for n in [10_000usize, 1_000_000] {
        let cfg = BufferedConfig {
            fleet: FleetConfig {
                compute_skew: 4.0,
                dropout: 0.1,
                seed: 0x5CA1E,
                ..Default::default()
            },
            buffer_size: BUFFER,
            ..Default::default()
        };
        let mut ex = BufferedExecutor::new(cfg, n, 1_000, K, 7);
        let mut policy = Selection::StalenessBalanced {
            candidates: CANDIDATES,
        }
        .build();
        let known_loss: Vec<Option<f32>> = vec![None; n];
        let master = Rng64::new(21);
        let mut round = 0usize;
        group.throughput(Throughput::Elements(K as u64));
        group.bench_function(BenchmarkId::new("round", n), |b| {
            b.iter(|| {
                let mut rng = master.derive(round as u64);
                let selected = {
                    let ctx = SelectionContext {
                        round,
                        n_clients: n,
                        participants: K,
                        known_loss: &known_loss,
                        participation: &[],
                        executor: ex.view(),
                    };
                    policy.select(&ctx, &mut rng)
                };
                let out = ex.execute(round, &selected, &stub_train);
                round += 1;
                std::hint::black_box(out.updates.len())
            })
        });
    }
    group.finish();
}

fn bench_fleet_view(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale");
    let cfg = FleetConfig {
        compute_skew: 4.0,
        bandwidth_skew: 2.0,
        dropout: 0.1,
        ..Default::default()
    };
    for n in [10_000usize, 1_000_000] {
        group.bench_with_input(BenchmarkId::new("fleet_view_new", n), &n, |b, &n| {
            b.iter(|| std::hint::black_box(FleetView::new(n, &cfg)))
        });
    }
    let view = FleetView::new(1_000_000, &cfg);
    let mut i = 0usize;
    group.bench_function("fleet_view_profile", |b| {
        b.iter(|| {
            i = (i + 7919) % view.len();
            std::hint::black_box(view.profile(i))
        })
    });
    group.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale");
    const ACTIVE: usize = 100_000;
    let mut q = EventQueue::with_capacity(ACTIVE + 1);
    for i in 0..ACTIVE {
        q.schedule(
            (i % 997) as f64,
            EventKind::UploadComplete {
                client_id: i,
                version: 0,
            },
        );
    }
    let mut t = 0.0f64;
    group.bench_function("event_queue_cycle", |b| {
        b.iter(|| {
            let e = q.pop().expect("queue is kept full");
            t += 0.25;
            q.schedule(e.time_s + t.rem_euclid(997.0), e.kind);
            std::hint::black_box(e.time_s)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_round, bench_fleet_view, bench_event_queue);
criterion_main!(benches);

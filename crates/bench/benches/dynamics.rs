//! Criterion harness for the fleet-dynamics layer.
//!
//! `churn_advance/*` prices the seeded arrival/departure process against
//! the simulated horizon — the executors advance it at every round start
//! (and the buffered executor inside its drain loop), so it must stay
//! cheap even over long virtual spans. `diurnal_modulation/*` compares a
//! completion-time prediction with and without the availability cycle:
//! the per-dispatch cost of the sinusoidal modulation. `mask_derive/*`
//! measures structured-mask derivation against model size — paid once per
//! sub-model dispatch. `dynamic_deadline_round/*` runs a full
//! `DeadlineExecutor::execute` with churn, diurnal availability, and
//! structured dropout all on: the end-to-end dynamics overhead per round.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use feddrl_fl::client::ClientUpdate;
use feddrl_fl::executor::{
    DeadlineExecutor, Dispatch, HeteroConfig, LatePolicy, RoundExecutor, StructuredDropoutConfig,
    TrainContext,
};
use feddrl_nn::rng::Rng64;
use feddrl_nn::zoo::build_mlp;
use feddrl_sim::churn::ChurnProcess;
use feddrl_sim::device::{ChurnConfig, DeviceProfile, DiurnalConfig, FleetConfig, FleetView};

fn bench_churn_advance(c: &mut Criterion) {
    let mut group = c.benchmark_group("churn_advance");
    let cfg = ChurnConfig {
        mean_arrival_gap_s: 30.0,
        mean_departure_gap_s: 40.0,
    };
    for horizon_s in [1e3, 1e5] {
        // ~horizon/gap events of each kind per iteration.
        let events =
            (horizon_s / cfg.mean_arrival_gap_s + horizon_s / cfg.mean_departure_gap_s) as u64;
        group.throughput(Throughput::Elements(events.max(1)));
        group.bench_with_input(
            BenchmarkId::new("advance_to", horizon_s as u64),
            &horizon_s,
            |b, &t| {
                b.iter(|| {
                    let mut churn = ChurnProcess::new(64, &cfg, 7);
                    let events = churn.advance_to(t);
                    std::hint::black_box((events.len(), churn.active_count()))
                })
            },
        );
    }
    group.finish();
}

fn bench_diurnal_modulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("diurnal_modulation");
    const N: usize = 1024;
    let diurnal = DiurnalConfig {
        period_s: 3600.0,
        dropout_amplitude: 0.4,
        latency_amplitude: 0.3,
    };
    // Derived up front: the loop below measures the modulation alone.
    let fleet: Vec<DeviceProfile> = FleetView::new(
        N,
        &FleetConfig {
            compute_skew: 4.0,
            bandwidth_skew: 2.0,
            dropout: 0.2,
            diurnal: Some(diurnal),
            ..Default::default()
        },
    )
    .profiles()
    .collect();
    for (label, cycle) in [("static", None), ("diurnal", Some(diurnal))] {
        group.throughput(Throughput::Elements(N as u64));
        group.bench_function(BenchmarkId::new("completion", label), |b| {
            let mut now = 0.0f64;
            b.iter(|| {
                now += 17.0;
                let total: f64 = fleet
                    .iter()
                    .map(|p| p.completion_time_at(1_000_000, 1.0, cycle.as_ref(), now))
                    .sum();
                std::hint::black_box(total)
            })
        });
    }
    group.finish();
}

fn bench_mask_derive(c: &mut Criterion) {
    let mut group = c.benchmark_group("mask_derive");
    for hidden in [64usize, 256] {
        let model = build_mlp(784, &[hidden], 10, &mut Rng64::new(3));
        let mut rng = Rng64::new(11);
        group.throughput(Throughput::Elements(model.param_count() as u64));
        group.bench_with_input(BenchmarkId::new("mlp", hidden), &hidden, |b, _| {
            b.iter(|| {
                let mask = feddrl_nn::mask::StructuredMask::derive(&model, 0.5, &mut rng);
                std::hint::black_box(mask.keep_fraction())
            })
        });
    }
    group.finish();
}

fn bench_dynamic_deadline_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic_deadline_round");
    for k in [10usize, 100] {
        let cfg = HeteroConfig {
            fleet: FleetConfig {
                compute_skew: 4.0,
                bandwidth_skew: 2.0,
                dropout: 0.1,
                diurnal: Some(DiurnalConfig {
                    period_s: 600.0,
                    dropout_amplitude: 0.4,
                    latency_amplitude: 0.3,
                }),
                churn: Some(ChurnConfig {
                    mean_arrival_gap_s: 90.0,
                    mean_departure_gap_s: 120.0,
                }),
                ..Default::default()
            },
            deadline_s: Some(60.0),
            late_policy: LatePolicy::Drop,
            structured_dropout: Some(StructuredDropoutConfig::default()),
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

criterion_group!(
    benches,
    bench_churn_advance,
    bench_diurnal_modulation,
    bench_mask_derive,
    bench_dynamic_deadline_round
);
criterion_main!(benches);

//! Criterion harness for the reliability model and the async-aware
//! selection policies.
//!
//! `fleet_generate/*` prices the per-device reliability draw (three
//! log-uniform exponents per profile) against fleet size — generation sits
//! on every executor construction, so it must stay linear and cheap.
//! `selection/*` measures one `select` call per policy over a large
//! candidate pool with full telemetry visible: the per-round cost a
//! smarter policy adds on top of uniform sampling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use feddrl_fl::executor::{ClientReliability, ExecutorView, ReliabilityTable};
use feddrl_fl::selection::{Selection, SelectionContext};
use feddrl_nn::rng::Rng64;
use feddrl_sim::device::{DropoutCorrelation, FleetConfig, FleetView, ReliabilityConfig};
use std::borrow::Cow;
use std::collections::BTreeSet;

fn bench_fleet_generate(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_generate");
    for n in [100usize, 10_000] {
        let cfg = FleetConfig {
            compute_skew: 4.0,
            bandwidth_skew: 2.0,
            dropout: 0.2,
            reliability: ReliabilityConfig {
                dropout_skew: 3.0,
                correlation: DropoutCorrelation::SpeedCorrelated { strength: 0.8 },
            },
            ..Default::default()
        };
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("speed_correlated", n), &n, |b, &n| {
            b.iter(|| std::hint::black_box(FleetView::new(n, &cfg).profiles().collect::<Vec<_>>()))
        });
    }
    group.finish();
}

fn bench_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("selection");
    const N: usize = 2048;
    const K: usize = 64;
    const D: usize = 256;

    let fleet = FleetView::new(
        N,
        &FleetConfig {
            compute_skew: 4.0,
            dropout: 0.2,
            reliability: ReliabilityConfig {
                dropout_skew: 3.0,
                correlation: DropoutCorrelation::SpeedCorrelated { strength: 1.0 },
            },
            ..Default::default()
        },
    );
    let mut rng = Rng64::new(17);
    let known_loss: Vec<Option<f32>> = (0..N)
        .map(|_| rng.chance(0.8).then(|| rng.uniform(0.1, 3.0)))
        .collect();
    let participation: Vec<usize> = (0..N).map(|_| rng.below(50)).collect();
    // Sparse telemetry, as the executors produce it: entries only for
    // clients the server has actually dispatched (here ~half the fleet).
    let reliability: ReliabilityTable = (0..N)
        .filter_map(|i| {
            if !rng.chance(0.5) {
                return None;
            }
            let dropouts = rng.below(10);
            let dispatches = rng.below(40);
            Some((
                i,
                ClientReliability {
                    dropouts,
                    dispatches,
                    aggregated: dispatches,
                    staleness_sum: rng.below(5) * dispatches,
                },
            ))
        })
        .collect();
    let in_flight: BTreeSet<usize> = rng.sample_indices(N, N / 4).into_iter().collect();

    for (label, selection) in [
        ("uniform", Selection::Uniform),
        (
            "power_of_choice",
            Selection::PowerOfChoice { candidates: D },
        ),
        (
            "bandwidth_aware",
            Selection::BandwidthAware { candidates: D },
        ),
        (
            "reliability_aware",
            Selection::ReliabilityAware { candidates: D },
        ),
        (
            "staleness_balanced",
            Selection::StalenessBalanced { candidates: D },
        ),
    ] {
        let mut policy = selection.build();
        let mut round = 0usize;
        group.throughput(Throughput::Elements(K as u64));
        group.bench_function(BenchmarkId::new("select", label), |b| {
            b.iter(|| {
                let ctx = SelectionContext {
                    round,
                    n_clients: N,
                    participants: K,
                    known_loss: &known_loss,
                    participation: &participation,
                    // The view borrows its in-flight set, as a real
                    // executor's does.
                    executor: ExecutorView {
                        fleet: Some(&fleet),
                        upload_bytes: 1_000_000,
                        in_flight: Cow::Borrowed(&in_flight),
                        reliability: Some(&reliability),
                        ..Default::default()
                    },
                };
                let picked = policy.select(&ctx, &mut Rng64::new(7).derive(round as u64));
                round += 1;
                std::hint::black_box(picked)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fleet_generate, bench_selection);
criterion_main!(benches);

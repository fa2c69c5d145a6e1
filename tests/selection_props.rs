//! Property-based hardening of the client-selection policies.
//!
//! Every policy — built-in or user-defined — owes the session the same
//! contract: exactly `K` distinct in-range client ids, deterministically
//! under a fixed seed. The bandwidth-aware policy additionally promises to
//! *reduce* deadline-cut stragglers against uniform sampling on a skewed
//! fleet, which is checked by driving the deadline executor directly
//! (stub updates, no NN training) so the comparison is cheap and exact.

use feddrl_repro::prelude::*;
use proptest::prelude::*;
use std::borrow::Cow;
use std::collections::BTreeSet;

mod common;
use common::ctx;

/// A context owner: the borrowed `SelectionContext` views into it.
struct CtxData {
    n: usize,
    k: usize,
    known_loss: Vec<Option<f32>>,
    participation: Vec<usize>,
    fleet: Option<FleetView>,
    upload_bytes: u64,
    deadline_s: Option<f64>,
    in_flight: BTreeSet<usize>,
    reliability: Option<ReliabilityTable>,
}

impl CtxData {
    /// Deterministically synthesize per-client state from a seed: a mix of
    /// seen/unseen losses, (optionally) a skewed fleet, a random in-flight
    /// subset no larger than `N - K` (the executor can never hold more in
    /// flight while still dispatching `K` fresh clients), and random
    /// reliability telemetry.
    fn synth(n: usize, k: usize, state_seed: u64, with_fleet: bool, bounded: bool) -> Self {
        let mut rng = Rng64::new(state_seed);
        let known_loss = (0..n)
            .map(|_| rng.chance(0.7).then(|| rng.uniform(0.05, 4.0)))
            .collect();
        let participation = (0..n).map(|_| rng.below(10)).collect();
        let fleet = with_fleet.then(|| {
            FleetView::new(
                n,
                &FleetConfig {
                    compute_skew: 4.0,
                    bandwidth_skew: 2.0,
                    seed: state_seed ^ 0xF1,
                    ..Default::default()
                },
            )
        });
        let upload_bytes = if with_fleet { 2_000_000 } else { 0 };
        let deadline_s = match (&fleet, bounded) {
            (Some(f), true) => Some(f.completion_percentile_s(upload_bytes, 0.5)),
            _ => None,
        };
        let in_flight_len = rng.below(n - k + 1);
        let in_flight = rng.sample_indices(n, in_flight_len).into_iter().collect();
        let reliability = with_fleet.then(|| {
            (0..n)
                .map(|i| {
                    let dropouts = rng.below(8);
                    let dispatches = rng.below(8);
                    (
                        i,
                        ClientReliability {
                            dropouts,
                            dispatches,
                            aggregated: dispatches,
                            staleness_sum: rng.below(4) * dispatches,
                        },
                    )
                })
                .collect::<ReliabilityTable>()
        });
        Self {
            n,
            k,
            known_loss,
            participation,
            fleet,
            upload_bytes,
            deadline_s,
            in_flight,
            reliability,
        }
    }

    fn ctx(&self, round: usize) -> SelectionContext<'_> {
        SelectionContext {
            round,
            n_clients: self.n,
            participants: self.k,
            known_loss: &self.known_loss,
            participation: &self.participation,
            executor: ExecutorView {
                fleet: self.fleet.as_ref(),
                upload_bytes: self.upload_bytes,
                deadline_s: self.deadline_s,
                in_flight: Cow::Borrowed(&self.in_flight),
                reliability: self.reliability.as_ref(),
                ..Default::default()
            },
        }
    }
}

fn all_policies(candidates: usize) -> Vec<Box<dyn SelectionPolicy>> {
    vec![
        Selection::Uniform.build(),
        Selection::PowerOfChoice { candidates }.build(),
        Selection::BandwidthAware { candidates }.build(),
        Selection::ReliabilityAware { candidates }.build(),
        Selection::StalenessBalanced { candidates }.build(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Contract: every built-in policy returns exactly `K` distinct ids in
    /// `[0, N)`, for arbitrary federation shapes, candidate pools, seeds,
    /// per-client state, and fleet visibility — and repeating the call
    /// with an identical RNG reproduces the identical sample.
    #[test]
    fn policies_return_k_distinct_in_range_deterministically(
        n in 1usize..40,
        k_frac in 0.0f64..1.0,
        candidates in 0usize..64,
        seed in 0u64..1_000,
        state_seed in 0u64..1_000,
        with_fleet in 0u8..2,
        bounded in 0u8..2,
    ) {
        let (with_fleet, bounded) = (with_fleet == 1, bounded == 1);
        let k = ((n as f64 * k_frac) as usize).clamp(1, n);
        let data = CtxData::synth(n, k, state_seed, with_fleet, bounded);
        for mut policy in all_policies(candidates) {
            let ctx = data.ctx(0);
            let picked = policy.select(&ctx, &mut Rng64::new(seed).derive(0));
            prop_assert_eq!(
                picked.len(), k,
                "{} returned {} of {} clients", policy.name(), picked.len(), k
            );
            let mut sorted = picked.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), k, "{} returned duplicates", policy.name());
            prop_assert!(
                sorted.iter().all(|&c| c < n),
                "{} selected out-of-range client", policy.name()
            );
            let again = policy.select(&ctx, &mut Rng64::new(seed).derive(0));
            prop_assert_eq!(
                &picked, &again,
                "{} is nondeterministic under a fixed seed", policy.name()
            );
        }
    }
}

/// Drive `rounds` deadline-executor rounds with `policy`, mirroring the
/// session's selection bookkeeping (per-round derived RNG, known-loss and
/// participation updates), and return the total deadline-cut stragglers.
fn stragglers_under(policy: &mut dyn SelectionPolicy, rounds: usize) -> usize {
    const N: usize = 24;
    const K: usize = 6;
    let cfg = HeteroConfig {
        fleet: FleetConfig {
            compute_skew: 4.0,
            bandwidth_skew: 2.0,
            seed: 0xBEEF,
            ..Default::default()
        },
        deadline_s: None, // placed below from the fleet's 50th percentile
        late_policy: LatePolicy::Drop,
        ..Default::default()
    };
    let probe = DeadlineExecutor::new(cfg.clone(), N, 60_000, K, 9);
    let view = probe.view();
    let deadline = view
        .fleet
        .expect("deadline executor has a fleet")
        .completion_percentile_s(view.upload_bytes, 0.5);
    let mut ex = DeadlineExecutor::new(
        HeteroConfig {
            deadline_s: Some(deadline),
            ..cfg
        },
        N,
        60_000,
        K,
        9,
    );
    let stub_train = |_: &TrainContext<'_>, dispatches: &[Dispatch]| -> Vec<ClientUpdate> {
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
    };
    let master = Rng64::new(21);
    let mut known_loss: Vec<Option<f32>> = vec![None; N];
    let mut participation = vec![0usize; N];
    let mut stragglers = 0usize;
    for round in 0..rounds {
        let mut rng = master.derive(round as u64);
        let selected = {
            let ctx = SelectionContext {
                round,
                n_clients: N,
                participants: K,
                known_loss: &known_loss,
                participation: &participation,
                executor: ex.view(),
            };
            policy.select(&ctx, &mut rng)
        };
        assert_eq!(selected.len(), K);
        for &c in &selected {
            participation[c] += 1;
        }
        let out = ex.execute(&ctx(round), &selected, &stub_train);
        stragglers += out.hetero.expect("deadline telemetry").stragglers as usize;
        for u in &out.updates {
            known_loss[u.client_id] = Some(u.loss_before);
        }
    }
    stragglers
}

/// The ROADMAP promise behind `BandwidthAware`: on a skewed fleet with a
/// median deadline it stops sampling clients the deadline would cut,
/// measurably beating uniform selection on total stragglers.
#[test]
fn bandwidth_aware_reduces_deadline_cut_stragglers_vs_uniform() {
    let rounds = 40;
    let uniform = stragglers_under(&mut UniformSelection, rounds);
    let aware = stragglers_under(&mut BandwidthAwareSelection { candidates: 18 }, rounds);
    // A median deadline cuts ~half of uniform's samples; the aware policy
    // must do strictly — and substantially — better.
    assert!(
        uniform >= rounds,
        "uniform produced implausibly few stragglers ({uniform}) — deadline misplaced?"
    );
    assert!(
        aware * 2 < uniform,
        "bandwidth-aware selection did not measurably reduce stragglers: \
         {aware} vs uniform's {uniform}"
    );
}

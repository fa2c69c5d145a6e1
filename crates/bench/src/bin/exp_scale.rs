//! Scale sweep (beyond the paper): fleet size as a free variable.
//!
//! The paper simulates fleets of at most 100 clients; cross-device
//! deployments reach millions. This sweep drives the buffered
//! asynchronous executor over fleets of N ∈ {10^3, 10^4, 10^5} clients
//! (plus 10^6 outside `--quick`) with a stub training closure — the
//! point is the orchestration engine, not SGD — and measures how the
//! per-round machinery scales:
//!
//! * **rounds/sec** — wall-clock throughput of the full selection →
//!   dispatch → event-queue → aggregation loop;
//! * **select µs** — mean wall-clock of one policy `select` call over an
//!   oversampled candidate pool (must track the pool, not N);
//! * **telemetry** — resident `ReliabilityTable` entries after the run:
//!   sparse, so bounded by the distinct clients actually dispatched;
//! * **profiles** — device profiles derived by the lazy `FleetView`:
//!   selection and dispatch consult candidates only, so this stays
//!   proportional to candidate-pool draws, never to N.
//!
//! Client training runs through the executor's rayon-parallel dispatch
//! (`parallel_dispatch: true`), which `tests/scale_props.rs` proves
//! bit-identical to the serial path under a fixed seed.

use feddrl::prelude::*;
use feddrl_bench::{render_table, write_artifact, ExpOptions, Scale};
use feddrl_sim::prelude::*;
use std::time::Instant;

/// Dispatch width `K` per round.
const PARTICIPANTS: usize = 64;
/// Aggregation buffer `m`.
const BUFFER: usize = 16;
/// Candidate pool for the async-aware selection policy.
const CANDIDATES: usize = 256;
/// Model size driving the upload payload (weights are never materialized
/// per client beyond the stub update's small vector).
const PARAM_COUNT: usize = 1_000;

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

/// One tier of the sweep: drive `rounds` buffered rounds over an
/// N-client lazy fleet, mirroring the session's selection bookkeeping
/// (per-round derived RNG, participation counts), and report the scale
/// metrics.
struct TierStats {
    n: usize,
    rounds: usize,
    rounds_per_sec: f64,
    mean_select_us: f64,
    telemetry_entries: usize,
    profiles_derived: u64,
    distinct_dispatched: usize,
    aggregations: usize,
    mean_staleness: f64,
}

fn run_tier(n: usize, rounds: usize, seed: u64) -> TierStats {
    let cfg = BufferedConfig {
        fleet: FleetConfig {
            compute_skew: 4.0,
            bandwidth_skew: 2.0,
            dropout: 0.1,
            seed: seed ^ 0x5CA1E,
            ..Default::default()
        },
        buffer_size: BUFFER,
        parallel_dispatch: true,
        ..Default::default()
    };
    let mut ex = BufferedExecutor::new(cfg, n, PARAM_COUNT, PARTICIPANTS, seed);
    let mut policy = Selection::StalenessBalanced {
        candidates: CANDIDATES,
    }
    .build();

    // Sparse server-side bookkeeping, like the session's but without the
    // dense known-loss table (a 10^6-slot `Vec<Option<f32>>` is fine —
    // it is N machine words once, not per round — but the sweep keeps
    // the hot loop free of O(N) work to expose the engine's scaling).
    let known_loss: Vec<Option<f32>> = vec![None; n];
    let mut participation: std::collections::BTreeMap<usize, usize> = Default::default();
    let master = Rng64::new(seed);

    let mut select_ns = 0u128;
    let mut aggregations = 0usize;
    let (mut staleness_sum, mut staleness_count) = (0usize, 0usize);
    let t0 = Instant::now();
    for round in 0..rounds {
        let mut rng = master.derive(round as u64);
        let view = ex.view();
        let ts = Instant::now();
        let selected = {
            let ctx = SelectionContext {
                round,
                n_clients: n,
                participants: PARTICIPANTS,
                known_loss: &known_loss,
                participation: &[], // unused by the swept policy
                executor: view,
            };
            policy.select(&ctx, &mut rng)
        };
        select_ns += ts.elapsed().as_nanos();
        for &c in &selected {
            *participation.entry(c).or_insert(0) += 1;
        }
        let out = ex.execute(round, &selected, &stub_train);
        if !out.updates.is_empty() {
            aggregations += 1;
        }
        for u in &out.updates {
            staleness_sum += u.staleness;
            staleness_count += 1;
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();

    let view = ex.view();
    TierStats {
        n,
        rounds,
        rounds_per_sec: rounds as f64 / elapsed.max(1e-9),
        mean_select_us: select_ns as f64 / 1e3 / rounds as f64,
        telemetry_entries: view.reliability.expect("buffered telemetry").observed(),
        profiles_derived: view
            .fleet
            .expect("buffered executor has a fleet")
            .derivations(),
        distinct_dispatched: participation.len(),
        aggregations,
        mean_staleness: if staleness_count == 0 {
            0.0
        } else {
            staleness_sum as f64 / staleness_count as f64
        },
    }
}

fn main() {
    let opts = ExpOptions::from_args();
    let rounds = opts.rounds.unwrap_or(match opts.scale {
        Scale::Quick => 10,
        Scale::Default => 30,
        Scale::Full => 100,
    });
    let mut tiers: Vec<usize> = vec![1_000, 10_000, 100_000];
    if opts.scale != Scale::Quick {
        tiers.push(1_000_000);
    }

    let mut rows = Vec::new();
    let mut csv = String::from(
        "n_clients,rounds,rounds_per_sec,mean_select_us,telemetry_entries,\
         profiles_derived,distinct_dispatched,aggregations,mean_staleness\n",
    );
    for &n in &tiers {
        let s = run_tier(n, rounds, opts.seed);
        assert!(
            s.telemetry_entries <= s.distinct_dispatched,
            "N = {n}: {} resident telemetry entries for {} distinct dispatched \
             clients — the table must stay sparse",
            s.telemetry_entries,
            s.distinct_dispatched
        );
        rows.push(vec![
            s.n.to_string(),
            s.rounds.to_string(),
            format!("{:.1}", s.rounds_per_sec),
            format!("{:.1}", s.mean_select_us),
            s.telemetry_entries.to_string(),
            s.profiles_derived.to_string(),
            s.distinct_dispatched.to_string(),
            s.aggregations.to_string(),
            format!("{:.2}", s.mean_staleness),
        ]);
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{},{}\n",
            s.n,
            s.rounds,
            s.rounds_per_sec,
            s.mean_select_us,
            s.telemetry_entries,
            s.profiles_derived,
            s.distinct_dispatched,
            s.aggregations,
            s.mean_staleness,
        ));
    }

    let table = render_table(
        &[
            "N",
            "rounds",
            "rounds/sec",
            "select µs",
            "telemetry",
            "profiles",
            "dispatched",
            "aggs",
            "mean stale",
        ],
        &rows,
    );
    println!(
        "Scale sweep: buffered executor, K = {PARTICIPANTS}, m = {BUFFER}, \
         candidates = {CANDIDATES}, {rounds} rounds per tier, stub training, \
         parallel dispatch\n"
    );
    println!("{table}");
    println!(
        "reading guide: 'select µs' is the mean wall-clock of one policy \
         select call — with the lazy fleet and sparse telemetry it must \
         track the candidate pool, not N. 'telemetry' counts resident \
         per-client reliability entries after the run (sparse: bounded by \
         'dispatched', the distinct clients ever dispatched). 'profiles' \
         counts device profiles derived on demand by the lazy FleetView — \
         proportional to candidate draws, never to fleet size. A dense \
         implementation would pay O(N) per column; every column here is \
         O(clients actually touched)."
    );
    write_artifact(&opts.out_path("scale_sweep.txt"), &table);
    write_artifact(&opts.out_path("scale_sweep.csv"), &csv);
}

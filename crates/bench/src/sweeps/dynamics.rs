//! Fleet-dynamics sweep (beyond the paper): churn, diurnal availability,
//! and adaptive structured dropout compared at equal simulated time.
//!
//! Production fleets are not the paper's fixed client set: devices join
//! and leave mid-run (churn), their availability follows a day/night
//! cycle (diurnal modulation of dropout and latency), and a device that
//! cannot finish a full local round before the deadline can still train
//! a *masked sub-model* (adaptive structured dropout) instead of wasting
//! the slot. This sweep puts the deadline executor on such a fleet and
//! compares the three fates of a predicted deadline-misser:
//!
//! * `drop` — the classic [`LatePolicy::Drop`]: the straggler's round is
//!   wasted (this cell defines the family's simulated-time budget);
//! * `carry-over` — [`LatePolicy::CarryOver`] with polynomial staleness
//!   discounting: late updates land a round later, stale;
//! * `structured` — [`StructuredDropoutConfig`]: the server asks the
//!   deadline-pressed device for the largest sub-model that still fits,
//!   and aggregates it mask-aware at full freshness.
//!
//! A `static/drop` reference cell (same devices, no churn, no diurnal
//! cycle) prices what the dynamics themselves cost. Every non-baseline
//! cell runs under the `dynamic/drop` cell's simulated-time budget, so
//! `best acc` compares accuracy at equal virtual time — the headline
//! check is `structured` beating `drop` on that column. A closing
//! FedAvg-vs-FedDRL pair re-runs the structured cell under both
//! aggregation strategies, FedDRL observing each update's untrained
//! fraction (`observe_availability`).

use super::Federation;
use crate::{ExpOptions, MethodKind, Row, SweepTable};
use feddrl::prelude::*;
use feddrl_sim::prelude::*;

/// Candidate pool for the reliability-aware policy every cell uses.
const CANDIDATES: usize = 24;
/// Deadline percentile: the round deadline sits at this fraction of the
/// static fleet's full-model completion-time distribution, so a solid
/// minority of devices is deadline-pressed in every round.
const DEADLINE_PCT: f64 = 0.6;
/// Base per-round dropout probability before diurnal modulation.
const BASE_DROPOUT: f64 = 0.15;

/// The static device population: skewed compute so the deadline bites.
fn static_fleet(seed: u64) -> FleetConfig {
    FleetConfig {
        compute_skew: 4.0,
        dropout: BASE_DROPOUT,
        seed,
        ..Default::default()
    }
}

/// The same devices with the dynamics switched on. Churn gaps and the
/// diurnal period scale with the round deadline so the run sees a few
/// arrivals/departures per handful of rounds and several availability
/// cycles overall, regardless of the absolute time scale.
fn dynamic_fleet(seed: u64, deadline_s: f64) -> FleetConfig {
    FleetConfig {
        diurnal: Some(DiurnalConfig {
            period_s: 8.0 * deadline_s,
            dropout_amplitude: 0.4,
            latency_amplitude: 0.3,
        }),
        churn: Some(ChurnConfig {
            mean_arrival_gap_s: 1.5 * deadline_s,
            mean_departure_gap_s: 2.0 * deadline_s,
        }),
        ..static_fleet(seed)
    }
}

fn deadline_exec(
    fleet: FleetConfig,
    deadline_s: f64,
    late_policy: LatePolicy,
    structured: bool,
) -> ExecutorConfig {
    ExecutorConfig::Deadline(HeteroConfig {
        fleet,
        deadline_s: Some(deadline_s),
        late_policy,
        structured_dropout: structured.then(StructuredDropoutConfig::default),
        staleness: if matches!(late_policy, LatePolicy::CarryOver) {
            StalenessDiscount::Polynomial { alpha: 1.0 }
        } else {
            StalenessDiscount::None
        },
    })
}

pub(crate) fn run(opts: &ExpOptions) {
    let n_clients = 32; // initial population; churn grows the universe
    let Federation {
        exp,
        env,
        upload_bytes,
        ..
    } = Federation::new(opts, n_clients);
    let fleet_seed = opts.seed ^ 0xD1A;

    // The deadline comes from the *static* completion-time distribution
    // (diurnal modulation leaves the compute/bandwidth draws untouched, so
    // it prices the same devices the dynamic cells run on).
    let deadline_s = FleetView::new(n_clients, &static_fleet(fleet_seed))
        .completion_percentile_s(upload_bytes, DEADLINE_PCT);

    // One cell: the experiment's config on `executor` with the
    // reliability-aware policy, the agent observing availability.
    // Budgeted cells get round headroom — the simulated-time budget is
    // what actually ends the run (deadline rounds all cost about one
    // deadline of virtual time, so 2x is plenty).
    let mut drl_cfg = exp.feddrl_config();
    drl_cfg.feddrl.observe_availability = true;
    let run_cell = |method: MethodKind, executor: &ExecutorConfig, sim_budget_s: Option<f64>| {
        let mut fl_cfg = exp.fl_config();
        fl_cfg.executor = executor.clone();
        fl_cfg.selection = Selection::ReliabilityAware {
            candidates: CANDIDATES,
        };
        if sim_budget_s.is_some() {
            fl_cfg.rounds = exp.rounds * 2;
        }
        exp.run_cell(&env, method, &fl_cfg, &drl_cfg, sim_budget_s)
    };

    let cells: [(&str, ExecutorConfig); 4] = [
        (
            "dynamic/drop",
            deadline_exec(
                dynamic_fleet(fleet_seed, deadline_s),
                deadline_s,
                LatePolicy::Drop,
                false,
            ),
        ),
        (
            "static/drop",
            deadline_exec(
                static_fleet(fleet_seed),
                deadline_s,
                LatePolicy::Drop,
                false,
            ),
        ),
        (
            "dynamic/carry-over",
            deadline_exec(
                dynamic_fleet(fleet_seed, deadline_s),
                deadline_s,
                LatePolicy::CarryOver,
                false,
            ),
        ),
        (
            "dynamic/structured",
            deadline_exec(
                dynamic_fleet(fleet_seed, deadline_s),
                deadline_s,
                LatePolicy::Drop,
                true,
            ),
        ),
    ];

    let mut table = SweepTable::new(&[
        ("method", "method"),
        ("cell", "cell"),
        ("best acc", "best_acc"),
        ("rounds", "rounds"),
        ("aggregated", "aggregated"),
        ("masked", "masked"),
        ("late", "late"),
        ("dropouts", "dropouts"),
        ("joins", "joins"),
        ("departs", "departs"),
        ("mean stale", "mean_staleness"),
        ("sim hours", "sim_hours"),
        ("h to target", "hours_to_target"),
    ]);

    // The dynamic/drop baseline runs first: it defines the family's
    // simulated-time budget and the shared accuracy target.
    let baseline = run_cell(MethodKind::FedAvg, &cells[0].1, None);
    let budget_s = baseline.total_sim_time_s();
    let target = baseline.best().best_accuracy * 0.95;

    let mut by_cell = Vec::new();
    for (label, exec) in &cells {
        let history = if *label == "dynamic/drop" {
            baseline.clone()
        } else {
            run_cell(MethodKind::FedAvg, exec, Some(budget_s))
        };
        let stats = CellStats::measure(&history, target);
        table.push(stats.row("FedAvg", label));
        by_cell.push((*label, stats));
    }

    // Closing pair: FedAvg vs FedDRL on the structured cell at an equal
    // round count (no budget — `try_run_feddrl` has no observer hook),
    // FedDRL observing each update's untrained model fraction.
    for method in [MethodKind::FedAvg, MethodKind::FedDrl] {
        let history = run_cell(method, &cells[3].1, None);
        let stats = CellStats::measure(&history, f32::INFINITY);
        table.push(stats.row(method.name(), "dynamic/structured"));
    }

    println!(
        "Fleet-dynamics sweep: N = {n_clients} (+churn), K = {}, CE(0.6), deadline {:.1}s \
         (p{:.0} of static completion times), diurnal period {:.0}s, \
         mean churn gaps {:.0}s/{:.0}s (arrive/depart)\n",
        exp.participants,
        deadline_s,
        DEADLINE_PCT * 100.0,
        8.0 * deadline_s,
        1.5 * deadline_s,
        2.0 * deadline_s,
    );
    println!("{}", table.render());

    let drop = by_cell.iter().find(|(l, _)| *l == "dynamic/drop");
    let structured = by_cell.iter().find(|(l, _)| *l == "dynamic/structured");
    if let (Some((_, d)), Some((_, s))) = (drop, structured) {
        println!(
            "headline: structured dropout {} plain drop at equal sim time \
             ({:.4} vs {:.4}); {} sub-model updates converted {} would-be \
             wasted straggler slots into aggregations",
            if s.best_acc > d.best_acc {
                "BEATS"
            } else {
                "does NOT beat"
            },
            s.best_acc,
            d.best_acc,
            s.masked,
            d.late.saturating_sub(s.late),
        );
    }
    println!(
        "reading guide: every non-baseline FedAvg cell runs under the \
         dynamic/drop cell's simulated-time budget, so 'best acc' compares \
         accuracy at equal virtual time. 'masked' counts sub-model updates \
         trained under structured dropout; 'late' counts deadline-missers \
         (wasted under drop, buffered under carry-over, mostly rescued \
         under structured); 'joins'/'departs' are churn events the \
         executor observed; 'h to target' is simulated hours to 95% of \
         the baseline's best accuracy. Exception: the closing FedAvg-vs-\
         FedDRL pair compares aggregation strategies at an equal round \
         count with no budget — those two rows are comparable only to \
         each other."
    );
    table.write(opts, "dynamics_sweep");
}

/// Everything a sweep row reports about one run.
struct CellStats {
    best_acc: f32,
    rounds: usize,
    aggregated: usize,
    masked: usize,
    late: usize,
    dropouts: usize,
    joins: usize,
    departs: usize,
    mean_staleness: f64,
    sim_hours: f64,
    hours_to_target: Option<f64>,
}

impl CellStats {
    fn measure(history: &RunHistory, target: f32) -> Self {
        let (mut aggregated, mut masked, mut late) = (0usize, 0usize, 0usize);
        let (mut dropouts, mut joins, mut departs) = (0usize, 0usize, 0usize);
        for r in &history.records {
            if let Some(h) = &r.hetero {
                aggregated += h.aggregated();
                masked += h.masked;
                late += h.stragglers;
                dropouts += h.dropouts;
                joins += h.joined;
                departs += h.departed;
            }
        }
        Self {
            best_acc: history.best().best_accuracy,
            rounds: history.records.len(),
            aggregated,
            masked,
            late,
            dropouts,
            joins,
            departs,
            mean_staleness: history.mean_staleness(),
            sim_hours: history.total_sim_time_s() / 3600.0,
            hours_to_target: history.sim_time_to_accuracy_s(target).map(|s| s / 3600.0),
        }
    }

    /// The sweep row of this cell.
    fn row(&self, method: &str, cell: &str) -> Row {
        Row::new()
            .text(method)
            .text(cell)
            .num(self.best_acc, 4)
            .text(self.rounds)
            .text(self.aggregated)
            .text(self.masked)
            .text(self.late)
            .text(self.dropouts)
            .text(self.joins)
            .text(self.departs)
            .num(self.mean_staleness, 2)
            .num(self.sim_hours, 2)
            .text(super::hours_to_target(self.hours_to_target))
    }
}

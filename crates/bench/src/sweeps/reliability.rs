//! Reliability sweep (beyond the paper): per-device dropout profiles ×
//! async-aware selection policies.
//!
//! Real fleets do not fail uniformly — the adaptive-dropout system
//! (arXiv:2507.10430) observes that slow devices drop out
//! disproportionately often. This sweep generates fleets whose per-device
//! dropout rates spread log-uniformly around a base rate
//! (`dropout_skew = 3`), either independently of device speed or fully
//! speed-correlated, and compares selection policies on the buffered
//! asynchronous executor under an *equal simulated-time budget* (the
//! `async` sweep's convention, budget taken from each cell's `Uniform`
//! baseline):
//!
//! * `Uniform` — the paper's sampling; wastes slots on flaky devices and
//!   lets fast clients crowd out slow ones (the non-IID staleness skew);
//! * `ReliabilityAware` — ranks an oversampled candidate pool by expected
//!   utility (loss × observed report probability), cutting dropout-wasted
//!   dispatches without starving flaky-but-informative clients;
//! * `StalenessBalanced` — oversamples idle slow devices so their updates
//!   stop arriving chronically stale, rebalancing the fast-client skew.
//!
//! Per cell: best accuracy within the budget, aggregations, mean
//! participation, dropout-wasted dispatches, mean staleness, the share of
//! aggregated updates from the slower half of the fleet, and simulated
//! hours to a shared accuracy target. A final FedAvg-vs-FedDRL pair runs
//! the headline speed-correlated skewed cell under both aggregation
//! strategies with the reliability-aware policy.

use super::Federation;
use crate::{ExpOptions, MethodKind, Row, SweepTable};
use feddrl::prelude::*;
use feddrl_sim::prelude::*;

/// Aggregation buffer `m` for every buffered cell (`K = 10` dispatches).
const BUFFER: usize = 5;
/// Candidate pool for the oversampling policies.
const CANDIDATES: usize = 24;
/// Base per-round dropout rate; per-device rates spread in
/// `[base / DROPOUT_SKEW, base * DROPOUT_SKEW]`.
const BASE_DROPOUT: f64 = 0.25;
const DROPOUT_SKEW: f64 = 3.0;

fn correlations() -> [(&'static str, DropoutCorrelation); 2] {
    [
        ("indep", DropoutCorrelation::Independent),
        (
            "speed(1.0)",
            DropoutCorrelation::SpeedCorrelated { strength: 1.0 },
        ),
    ]
}

fn policies() -> [(&'static str, Selection); 3] {
    [
        ("uniform", Selection::Uniform),
        (
            "reliability-aware",
            Selection::ReliabilityAware {
                candidates: CANDIDATES,
            },
        ),
        (
            "staleness-balanced",
            Selection::StalenessBalanced {
                candidates: CANDIDATES,
            },
        ),
    ]
}

pub(crate) fn run(opts: &ExpOptions) {
    let n_clients = 40; // N >> K so selection has room to choose
    let Federation { exp, env, .. } = Federation::new(opts, n_clients);
    let drl_cfg = exp.feddrl_config();

    // One cell: the experiment's config on `executor` under `selection`,
    // with a generous aggregation cap — the simulated-time budget (for
    // budgeted cells) is what actually ends the run; unbudgeted cells get
    // the equal-aggregation count.
    let run_cell = |method: MethodKind,
                    executor: &ExecutorConfig,
                    selection: Selection,
                    sim_budget_s: Option<f64>| {
        let mut fl_cfg = exp.fl_config();
        fl_cfg.executor = executor.clone();
        fl_cfg.selection = selection;
        fl_cfg.rounds = if sim_budget_s.is_some() {
            exp.rounds * exp.participants
        } else {
            (exp.rounds * exp.participants).div_ceil(BUFFER)
        };
        exp.run_cell(&env, method, &fl_cfg, &drl_cfg, sim_budget_s)
    };

    let mut table = SweepTable::new(&[
        ("method", "method"),
        ("correlation", "correlation"),
        ("skew", "compute_skew"),
        ("policy", "policy"),
        ("best acc", "best_acc"),
        ("aggs", "aggregations"),
        ("mean K'", "mean_participation"),
        ("waste rate", "waste_rate"),
        ("mean stale", "mean_staleness"),
        ("slow share", "slow_share"),
        ("sim hours", "sim_hours"),
        ("h to target", "hours_to_target"),
    ]);
    let mut summary = Vec::new();
    for (corr_label, correlation) in correlations() {
        for &skew in &[1.0f64, 4.0] {
            let fleet_cfg = FleetConfig {
                compute_skew: skew,
                dropout: BASE_DROPOUT,
                reliability: ReliabilityConfig {
                    dropout_skew: DROPOUT_SKEW,
                    correlation,
                },
                seed: opts.seed ^ 0x5EED,
                ..Default::default()
            };
            let exec = ExecutorConfig::Buffered(BufferedConfig {
                fleet: fleet_cfg.clone(),
                buffer_size: BUFFER,
                staleness: StalenessDiscount::Polynomial { alpha: 1.0 },
                server_mix: Some(BUFFER as f64 / exp.participants as f64),
            });
            let fleet = FleetView::new(n_clients, &fleet_cfg);

            // Uniform baseline first: it defines the cell family's
            // simulated-time budget and the shared accuracy target.
            let baseline = run_cell(MethodKind::FedAvg, &exec, Selection::Uniform, None);
            let budget_s = baseline.total_sim_time_s();
            let target = baseline.best().best_accuracy * 0.95;
            let mut per_policy = Vec::new();
            for (policy_label, selection) in policies() {
                let history = if matches!(selection, Selection::Uniform) {
                    baseline.clone()
                } else {
                    run_cell(MethodKind::FedAvg, &exec, selection, Some(budget_s))
                };
                let stats = CellStats::measure(&history, &fleet, target);
                table.push(stats.row("FedAvg", corr_label, skew, policy_label));
                per_policy.push((policy_label, stats));
            }
            if corr_label != "indep" && skew > 1.0 {
                summarize(&mut summary, corr_label, skew, &per_policy);
            }
        }
    }

    // FedAvg vs FedDRL on the headline cell: speed-correlated dropout,
    // 4x compute skew, the reliability-aware policy for both.
    let headline_fleet = FleetConfig {
        compute_skew: 4.0,
        dropout: BASE_DROPOUT,
        reliability: ReliabilityConfig {
            dropout_skew: DROPOUT_SKEW,
            correlation: DropoutCorrelation::SpeedCorrelated { strength: 1.0 },
        },
        seed: opts.seed ^ 0x5EED,
        ..Default::default()
    };
    let fleet = FleetView::new(n_clients, &headline_fleet);
    let exec = ExecutorConfig::Buffered(BufferedConfig {
        fleet: headline_fleet,
        buffer_size: BUFFER,
        staleness: StalenessDiscount::Polynomial { alpha: 1.0 },
        server_mix: Some(0.5),
    });
    for method in [MethodKind::FedAvg, MethodKind::FedDrl] {
        let selection = Selection::ReliabilityAware {
            candidates: CANDIDATES,
        };
        let history = run_cell(method, &exec, selection, None);
        // Equal-aggregation-count comparison, not equal-time: no budget
        // applies and no shared target exists, so 'h to target' is blank
        // (f32::INFINITY is never reached) — these two rows are
        // comparable only to each other (see the reading guide).
        let stats = CellStats::measure(&history, &fleet, f32::INFINITY);
        table.push(stats.row(method.name(), "speed(1.0)", 4.0, "reliability-aware"));
    }

    println!(
        "Reliability sweep: {} rounds, N = {n_clients}, K = {}, CE(0.6), buffered m = {BUFFER}, \
         base dropout {BASE_DROPOUT} spread x{DROPOUT_SKEW} per device\n",
        opts.rounds(),
        exp.participants
    );
    println!("{}", table.render());
    for line in &summary {
        println!("{line}");
    }
    println!(
        "reading guide: every non-uniform FedAvg cell runs under its \
         family's uniform-baseline simulated-time budget, so 'best acc' \
         compares accuracy at equal virtual time. 'waste rate' is the \
         fraction of dispatch attempts lost to device dropouts (each one \
         a wasted slot); 'slow share' is the fraction of aggregated \
         updates contributed by the slower half of the fleet (0.5 = \
         perfectly balanced); 'h to target' is simulated hours until 95% \
         of the uniform baseline's best accuracy. Exception: the closing \
         FedAvg-vs-FedDRL pair compares the two aggregation strategies \
         at an equal aggregation count with no budget — those two rows \
         are comparable only to each other, and their 'h to target' is \
         blank."
    );
    table.write(opts, "reliability_sweep");
}

/// Everything a sweep row reports about one run.
struct CellStats {
    best_acc: f32,
    aggregations: usize,
    mean_participation: f64,
    /// Fraction of dispatch attempts lost to device dropouts — a *rate*,
    /// so cells that fit different round counts into the same simulated
    /// time stay comparable.
    waste_rate: f64,
    mean_staleness: f64,
    slow_share: f64,
    sim_hours: f64,
    hours_to_target: Option<f64>,
}

impl CellStats {
    fn measure(history: &RunHistory, fleet: &FleetView, target: f32) -> Self {
        // Share of aggregated updates from the slower half of the fleet,
        // and dropout waste per dispatch attempt (sampled minus busy).
        let compute_s: Vec<f64> = fleet.profiles().map(|p| p.compute_s).collect();
        let mut order: Vec<usize> = (0..fleet.len()).collect();
        order.sort_by(|&a, &b| compute_s[a].total_cmp(&compute_s[b]));
        let slow: Vec<usize> = order[fleet.len() / 2..].to_vec();
        let (mut from_slow, mut total) = (0usize, 0usize);
        let (mut dropouts, mut tried) = (0usize, 0usize);
        for r in &history.records {
            if let Some(h) = &r.hetero {
                total += h.aggregated_ids.len();
                from_slow += h
                    .aggregated_ids
                    .iter()
                    .filter(|&c| slow.contains(c))
                    .count();
                dropouts += h.dropouts;
                tried += r.selected.len() - h.busy;
            }
        }
        Self {
            best_acc: history.best().best_accuracy,
            aggregations: history
                .records
                .iter()
                .filter(|r| !r.impact_factors.is_empty())
                .count(),
            mean_participation: history.mean_participation(),
            waste_rate: if tried == 0 {
                0.0
            } else {
                dropouts as f64 / tried as f64
            },
            mean_staleness: history.mean_staleness(),
            slow_share: if total == 0 {
                0.0
            } else {
                from_slow as f64 / total as f64
            },
            sim_hours: history.total_sim_time_s() / 3600.0,
            hours_to_target: history.sim_time_to_accuracy_s(target).map(|s| s / 3600.0),
        }
    }

    /// The sweep row of this cell.
    fn row(&self, method: &str, correlation: &str, skew: f64, policy: &str) -> Row {
        Row::new()
            .text(method)
            .text(correlation)
            .num(skew, 0)
            .text(policy)
            .num(self.best_acc, 4)
            .text(self.aggregations)
            .num(self.mean_participation, 2)
            .num(self.waste_rate, 3)
            .num(self.mean_staleness, 2)
            .num(self.slow_share, 2)
            .num(self.sim_hours, 2)
            .text(super::hours_to_target(self.hours_to_target))
    }
}

/// The headline comparison lines for a speed-correlated cell family.
fn summarize(
    summary: &mut Vec<String>,
    corr: &str,
    skew: f64,
    per_policy: &[(&'static str, CellStats)],
) {
    let uniform = per_policy.iter().find(|(l, _)| *l == "uniform");
    let aware = per_policy.iter().find(|(l, _)| *l == "reliability-aware");
    let balanced = per_policy.iter().find(|(l, _)| *l == "staleness-balanced");
    if let (Some((_, u)), Some((_, a))) = (uniform, aware) {
        summary.push(format!(
            "{corr} skew {skew:.0}: dropout-waste rate {:.3} (uniform) vs {:.3} \
             (reliability-aware), {:.1}x reduction; acc at equal sim time \
             {:.4} vs {:.4}",
            u.waste_rate,
            a.waste_rate,
            u.waste_rate / a.waste_rate.max(1e-9),
            u.best_acc,
            a.best_acc,
        ));
    }
    if let (Some((_, u)), Some((_, b))) = (uniform, balanced) {
        summary.push(format!(
            "{corr} skew {skew:.0}: slow-half share of aggregated updates \
             {:.2} (uniform) vs {:.2} (staleness-balanced); mean staleness \
             {:.2} vs {:.2}",
            u.slow_share, b.slow_share, u.mean_staleness, b.mean_staleness,
        ));
    }
}

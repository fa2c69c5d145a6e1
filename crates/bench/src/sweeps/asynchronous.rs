//! Asynchronous aggregation sweep (beyond the paper): buffered
//! FedBuff-style execution vs the deadline-bounded round barrier.
//!
//! Sweeps buffer size × staleness discount × device skew on the MNIST-like
//! CE(0.6) federation. Every cell reports best accuracy, mean per-round
//! participation, mean staleness of the aggregated updates, total
//! simulated wall-clock, and — the headline metric — simulated hours until
//! the run first reaches a shared accuracy target (95% of the deadline
//! baseline's best). Runs are compared on an equal *simulated-time*
//! budget, the async-FL convention: every buffered cell may aggregate as
//! often as it likes but is stopped (by a `RoundObserver`) once it has
//! consumed the virtual time the deadline baseline needed for its rounds.
//! On a skewed fleet the deadline executor waits out its 70th-percentile
//! deadline every round, while the buffered executor aggregates as soon
//! as the fastest `m` uploads land — many more, cheaper aggregations per
//! virtual hour, so it reaches the target sooner at a staleness cost.
//!
//! A final pair of FedDRL rows (skewed fleet, one buffered cell) contrasts
//! `observe_staleness` off/on — the agent seeing each update's age as a
//! fourth state block.

use super::Federation;
use crate::{ExpOptions, MethodKind, Row, SweepTable};
use feddrl::prelude::*;
use feddrl_sim::prelude::*;

/// Buffer sizes swept (`K = 10` participants per round).
const BUFFER_SIZES: [usize; 3] = [3, 5, 10];

fn discounts() -> [(&'static str, StalenessDiscount); 3] {
    [
        ("none", StalenessDiscount::None),
        ("poly(1)", StalenessDiscount::Polynomial { alpha: 1.0 }),
        ("hinge(2)", StalenessDiscount::Hinge { cutoff: 2 }),
    ]
}

pub(crate) fn run(opts: &ExpOptions) {
    let n_clients = 12;
    let Federation {
        exp,
        env,
        upload_bytes,
        ..
    } = Federation::new(opts, n_clients);

    // One cell: the experiment's config on `executor`. A buffered cell
    // gets a generous aggregation cap; the virtual-time budget (or, for
    // the FedDRL flavor rows, an equal accepted-update budget) is what
    // actually ends the run.
    let run_cell = |method: MethodKind,
                    executor: &ExecutorConfig,
                    observe_staleness: bool,
                    sim_budget_s: Option<f64>| {
        let mut fl_cfg = exp.fl_config();
        fl_cfg.executor = executor.clone();
        if let ExecutorConfig::Buffered(b) = executor {
            fl_cfg.rounds = if sim_budget_s.is_some() {
                exp.rounds * exp.participants
            } else {
                (exp.rounds * exp.participants).div_ceil(b.buffer_size)
            };
        }
        let mut drl_cfg = exp.feddrl_config();
        drl_cfg.feddrl.observe_staleness = observe_staleness;
        exp.run_cell(&env, method, &fl_cfg, &drl_cfg, sim_budget_s)
    };

    let mut table = SweepTable::new(&[
        ("method", "method"),
        ("executor", "executor"),
        ("skew", "compute_skew"),
        ("buffer m", "buffer"),
        ("discount", "discount"),
        ("best acc", "best_acc"),
        ("aggs", "aggregations"),
        ("mean K'", "mean_participation"),
        ("mean stale", "mean_staleness"),
        ("sim hours", "sim_hours"),
        ("h to target", "hours_to_target"),
    ]);
    let mut summary = Vec::new();
    for &skew in &[1.0f64, 4.0] {
        let fleet = FleetConfig {
            compute_skew: skew,
            seed: opts.seed ^ 0xA51C,
            ..Default::default()
        };
        // Baseline: the round barrier, cut at the fleet's 70th
        // completion-time percentile (the `hetero` sweep's convention).
        let deadline = FleetView::new(n_clients, &fleet).completion_percentile_s(upload_bytes, 0.7);
        let baseline_exec = ExecutorConfig::Deadline(HeteroConfig {
            fleet: fleet.clone(),
            deadline_s: Some(deadline),
            late_policy: LatePolicy::Drop,
            ..Default::default()
        });
        let baseline = run_cell(MethodKind::FedAvg, &baseline_exec, false, None);
        let target = baseline.best().best_accuracy * 0.95;
        let budget_s = baseline.total_sim_time_s();
        let baseline_hours = baseline.sim_time_to_accuracy_s(target).map(|s| s / 3600.0);
        push_row(
            &mut table,
            "FedAvg",
            &format!("deadline({deadline:.0}s)"),
            skew,
            "-",
            "-",
            &baseline,
            baseline_hours,
        );

        let mut best_buffered: Option<(usize, &'static str, f64)> = None;
        for &m in &BUFFER_SIZES {
            for (label, discount) in discounts() {
                let exec = ExecutorConfig::Buffered(BufferedConfig {
                    fleet: fleet.clone(),
                    buffer_size: m,
                    staleness: discount,
                    // η = m/K: a buffer covering the whole dispatch width
                    // replaces the global (the barrier semantics), a small
                    // one nudges it proportionally — FedBuff's server step
                    // with the rate tied to the swept buffer size.
                    server_mix: Some(m as f64 / exp.participants as f64),
                });
                let history = run_cell(MethodKind::FedAvg, &exec, false, Some(budget_s));
                let hours = history.sim_time_to_accuracy_s(target).map(|s| s / 3600.0);
                if let Some(h) = hours {
                    if best_buffered.is_none_or(|(_, _, b)| h < b) {
                        best_buffered = Some((m, label, h));
                    }
                }
                push_row(
                    &mut table,
                    "FedAvg",
                    "buffered",
                    skew,
                    &m.to_string(),
                    label,
                    &history,
                    hours,
                );
            }
        }
        if let (Some(b), Some((m, label, h))) = (baseline_hours, best_buffered) {
            summary.push(format!(
                "skew {skew:.0}: target acc {target:.4} — deadline barrier {b:.2} sim h, \
                 best buffered (m = {m}, {label}) {h:.2} sim h ({:.1}x faster)",
                b / h.max(1e-9)
            ));
        }
    }

    // FedDRL flavor: the same skewed buffered cell with the agent blind
    // to staleness vs observing it as a fourth state block.
    let skewed_fleet = FleetConfig {
        compute_skew: 4.0,
        seed: opts.seed ^ 0xA51C,
        ..Default::default()
    };
    for observe in [false, true] {
        let exec = ExecutorConfig::Buffered(BufferedConfig {
            fleet: skewed_fleet.clone(),
            buffer_size: 5,
            staleness: StalenessDiscount::Polynomial { alpha: 1.0 },
            server_mix: Some(0.5),
        });
        let history = run_cell(MethodKind::FedDrl, &exec, observe, None);
        let method = if observe { "FedDRL+stale" } else { "FedDRL" };
        push_row(
            &mut table, method, "buffered", 4.0, "5", "poly(1)", &history, None,
        );
    }

    println!(
        "Async aggregation sweep: {} rounds, N = {n_clients}, K = {}, CE(0.6), \
         deadline baseline at the 70th completion percentile\n",
        opts.rounds(),
        exp.participants
    );
    println!("{}", table.render());
    for line in &summary {
        println!("{line}");
    }
    println!(
        "reading guide: every buffered cell runs under the deadline \
         baseline's total simulated-time budget; an aggregation ends at \
         its m-th arrival, so smaller buffers fit many more (staler, \
         cheaper) aggregations into the same virtual time, while the \
         deadline row waits out stragglers every round. 'h to target' is \
         simulated hours until 95% of the deadline baseline's best \
         accuracy; 'aggs' counts non-empty aggregations."
    );
    table.write(opts, "async_sweep");
}

#[allow(clippy::too_many_arguments)]
fn push_row(
    table: &mut SweepTable,
    method: &str,
    executor: &str,
    skew: f64,
    buffer: &str,
    discount: &str,
    history: &RunHistory,
    hours_to_target: Option<f64>,
) {
    let aggs = history
        .records
        .iter()
        .filter(|r| !r.impact_factors.is_empty())
        .count();
    table.push(
        Row::new()
            .text(method)
            .text(executor)
            .num(skew, 0)
            .text(buffer)
            .text(discount)
            .num(history.best().best_accuracy, 4)
            .text(aggs)
            .num(history.mean_participation(), 2)
            .num(history.mean_staleness(), 2)
            .num(history.total_sim_time_s() / 3600.0, 2)
            .text(super::hours_to_target(hours_to_target)),
    );
}

//! Server-optimizer sweep (beyond the paper): adaptive federated
//! optimization (FedAdam/FedYogi/FedAMSGrad, Reddi et al.-style server
//! steps on the pseudo-gradient) judged under this repo's heterogeneity
//! engine.
//!
//! Sweeps executor cell × method × server optimizer on the MNIST-like
//! CE(0.6) non-IID federation over a compute-skewed device fleet. The
//! cells are the three execution models: the ideal synchronous barrier,
//! the deadline-bounded barrier (stragglers dropped at the fleet's 60th
//! completion percentile), and buffered asynchronous aggregation with
//! polynomial staleness discounting — i.e. the regimes where the
//! aggregate is respectively clean, partial, and stale. Each cell runs
//! FedAvg/FedProx/FedDRL rows against plain Eq. 4 replacement and the
//! three adaptive server optimizers.
//!
//! Comparison is at *equal simulated time* by construction: the server
//! optimizer runs after aggregation and consumes no randomness, so every
//! optimizer column of a cell sees the identical selection draws,
//! dispatch pattern and per-round simulated wall-clock — same rounds,
//! same virtual hours, only the server step differs. The headline lines
//! report, per heterogeneous cell, the best adaptive optimizer's
//! accuracy edge over plain replacement at that shared budget.

use super::Federation;
use crate::{ExpOptions, MethodKind, Row, SweepTable};
use feddrl::prelude::*;
use feddrl_sim::prelude::*;

/// Deadline percentile for the barrier cell (the `dynamics` sweep's setting:
/// wait for the fastest 60%, drop the rest).
const DEADLINE_PCT: f64 = 0.6;

/// One optimizer column: label + config. The adaptive rates are the
/// sweep's single tuned knob — a conservative server step that damps the
/// noisy pseudo-gradients partial/stale aggregation produces.
fn server_opts() -> [(&'static str, ServerOptConfig); 4] {
    let p = AdaptiveParams::default();
    [
        ("plain", ServerOptConfig::Plain),
        ("fedadam", ServerOptConfig::FedAdam(p)),
        ("fedyogi", ServerOptConfig::FedYogi(p)),
        ("fedamsgrad", ServerOptConfig::FedAMSGrad(p)),
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

    let fleet = FleetConfig {
        compute_skew: 4.0,
        seed: opts.seed ^ 0xADA9,
        ..Default::default()
    };
    let deadline =
        FleetView::new(n_clients, &fleet).completion_percentile_s(upload_bytes, DEADLINE_PCT);

    let cells: [(&str, ExecutorConfig); 3] = [
        ("ideal", ExecutorConfig::Ideal),
        (
            "deadline",
            ExecutorConfig::Deadline(HeteroConfig {
                fleet: fleet.clone(),
                deadline_s: Some(deadline),
                late_policy: LatePolicy::Drop,
                ..Default::default()
            }),
        ),
        (
            "buffered",
            ExecutorConfig::Buffered(BufferedConfig {
                fleet: fleet.clone(),
                buffer_size: 5,
                staleness: StalenessDiscount::Polynomial { alpha: 1.0 },
                server_mix: Some(0.5),
            }),
        ),
    ];
    let drl_cfg = exp.feddrl_config();

    let mut table = SweepTable::new(&[
        ("method", "method"),
        ("executor", "executor"),
        ("server opt", "server_opt"),
        ("best acc", "best_acc"),
        ("final acc", "final_acc"),
        ("mean K'", "mean_participation"),
        ("sim hours", "sim_hours"),
    ]);
    let mut summary = Vec::new();
    for (cell, executor) in &cells {
        // Per (cell, method): plain is the baseline the adaptive columns
        // must beat at the cell's shared simulated-time budget.
        for method in MethodKind::federated() {
            let mut plain: Option<(f32, f64)> = None;
            let mut best_adaptive: Option<(&'static str, f32)> = None;
            for (opt_label, server_opt) in server_opts() {
                let mut fl_cfg = exp.fl_config();
                fl_cfg.executor = executor.clone();
                fl_cfg.server_opt = server_opt;
                let history = exp.run_cell(&env, method, &fl_cfg, &drl_cfg, None);
                let best = history.best().best_accuracy;
                let final_acc = final_third_accuracy(&history);
                let hours = history.total_sim_time_s() / 3600.0;
                table.push(
                    Row::new()
                        .text(method.name())
                        .text(cell)
                        .text(opt_label)
                        .num(best, 4)
                        .num(final_acc, 4)
                        .num(history.mean_participation(), 2)
                        .num(hours, 2),
                );
                if opt_label == "plain" {
                    plain = Some((best, hours));
                } else if best_adaptive.is_none_or(|(_, b)| best > b) {
                    best_adaptive = Some((opt_label, best));
                }
            }
            if *cell == "ideal" {
                continue; // headline only for the heterogeneous cells
            }
            if let (Some((p, hours)), Some((label, a))) = (plain, best_adaptive) {
                summary.push(format!(
                    "{cell} / {}: plain {p:.4} vs best adaptive ({label}) {a:.4} at equal \
                     simulated time ({hours:.2} h) — {}{:.4}",
                    method.name(),
                    if a >= p { "+" } else { "" },
                    a - p
                ));
            }
        }
    }

    println!(
        "Server-optimizer sweep: {} rounds, N = {n_clients}, K = {}, CE(0.6), \
         compute skew 4x; deadline cell at the {:.0}th completion percentile, \
         buffered cell m = 5 with poly(1) discount\n",
        opts.rounds(),
        exp.participants,
        DEADLINE_PCT * 100.0,
    );
    println!("{}", table.render());
    for line in &summary {
        println!("{line}");
    }
    println!(
        "reading guide: within a cell every server-opt column sees the \
         identical selection draws, dispatch pattern and simulated \
         wall-clock (the server step consumes no randomness), so rows \
         differing only in 'server opt' are an accuracy-at-equal-\
         simulated-time comparison. 'final acc' averages the last third \
         of the rounds; the summary lines report each heterogeneous \
         cell's best adaptive optimizer against plain replacement."
    );
    table.write(opts, "adaptive_sweep");
}

/// Mean test accuracy over the final third of the rounds — a smoother
/// equal-time endpoint than the single best round.
fn final_third_accuracy(history: &RunHistory) -> f32 {
    let n = history.records.len();
    let tail = &history.records[n - (n / 3).max(1)..];
    tail.iter().map(|r| r.test_accuracy).sum::<f32>() / tail.len() as f32
}

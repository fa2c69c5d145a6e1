//! Heterogeneity sweep (beyond the paper): FedAvg vs FedDRL under
//! stragglers, dropouts and deadline-bounded rounds.
//!
//! Sweeps dropout rate × round deadline × device skew on the MNIST-like
//! CE(0.6) federation and reports, per cell: best accuracy, mean per-round
//! participation, total stragglers/dropouts, and total simulated
//! wall-clock. The deadline is set at the fleet's 70th completion-time
//! percentile, so a skewed fleet loses its slow tail while a homogeneous
//! one keeps everyone — isolating the cost of stragglers from the cost of
//! dropouts.

use super::Federation;
use crate::{ExpOptions, MethodKind, Row, SweepTable};
use feddrl::prelude::*;
use feddrl_sim::prelude::*;

pub(crate) fn run(opts: &ExpOptions) {
    let n_clients = 12;
    // One deterministic environment shared by every cell.
    let Federation {
        exp,
        env,
        upload_bytes,
        ..
    } = Federation::new(opts, n_clients);
    let drl_cfg = exp.feddrl_config();

    let mut table = SweepTable::new(&[
        ("method", "method"),
        ("dropout", "dropout"),
        ("skew", "compute_skew"),
        ("deadline (s)", "deadline_s"),
        ("best acc", "best_acc"),
        ("mean K'", "mean_participation"),
        ("stragglers", "stragglers"),
        ("dropouts", "dropouts"),
        ("sim hours", "sim_hours"),
    ]);
    for &skew in &[1.0f64, 4.0] {
        for &dropout in &[0.0f64, 0.2] {
            for bounded in [false, true] {
                let fleet = FleetConfig {
                    compute_skew: skew,
                    dropout,
                    seed: opts.seed ^ 0xF1EE7,
                    ..Default::default()
                };
                // Wait for the fastest ~70% of devices (a no-op when
                // skew = 1: every device finishes at the same instant).
                let deadline = bounded.then(|| {
                    FleetView::new(n_clients, &fleet).completion_percentile_s(upload_bytes, 0.7)
                });
                let mut fl_cfg = exp.fl_config();
                let ideal = dropout == 0.0 && deadline.is_none() && skew == 1.0;
                if !ideal {
                    fl_cfg.executor = ExecutorConfig::Deadline(HeteroConfig {
                        fleet,
                        deadline_s: deadline,
                        late_policy: LatePolicy::Drop,
                        ..Default::default()
                    });
                }
                for method in [MethodKind::FedAvg, MethodKind::FedDrl] {
                    let history = exp.run_cell(&env, method, &fl_cfg, &drl_cfg, None);
                    let row = Row::new().text(method.name()).num(dropout, 1).num(skew, 0);
                    let row = match deadline {
                        Some(d) => row.num(d, 1),
                        None => row.text("inf"),
                    };
                    table.push(
                        row.num(history.best().best_accuracy, 4)
                            .num(history.mean_participation(), 2)
                            .text(history.total_stragglers())
                            .text(history.total_dropouts())
                            .num(history.total_sim_time_s() / 3600.0, 2),
                    );
                }
            }
        }
    }

    println!(
        "Heterogeneity sweep: {} rounds, N = {n_clients}, K = {}, CE(0.6), \
         deadline at the 70th completion percentile\n",
        opts.rounds(),
        exp.participants
    );
    println!("{}", table.render());
    println!(
        "reading guide: dropout > 0 or a finite deadline on a skewed fleet \
         lowers mean per-round participation K' below K and raises the \
         straggler/dropout counts; the (dropout 0, inf, skew 1) rows match \
         the paper's ideal synchronous setting."
    );
    table.write(opts, "hetero_sweep");
}

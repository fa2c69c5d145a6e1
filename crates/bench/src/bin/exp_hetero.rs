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

use feddrl::prelude::*;
use feddrl_bench::{
    render_table, write_artifact, DatasetKind, ExpOptions, ExperimentSpec, MethodKind,
};
use feddrl_sim::prelude::*;

fn main() {
    let opts = ExpOptions::from_args();
    let n_clients = 12;
    let exp = ExperimentSpec::new(DatasetKind::MnistLike, "CE", n_clients, &opts);

    // One deterministic environment shared by every cell.
    let env = exp.materialize(opts.scale);
    let params = env.3.build(1).param_count();

    // Per-client upload payload for deadline placement — the number
    // DeadlineExecutor's planner prices dispatches with.
    let upload_bytes = feddrl_fl::dispatch::upload_bytes(params, exp.participants);
    let drl_cfg = exp.feddrl_config();

    let mut rows = Vec::new();
    let mut csv = String::from(
        "method,dropout,compute_skew,deadline_s,best_acc,mean_participation,\
         stragglers,dropouts,sim_hours\n",
    );
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
                    let best = history.best();
                    rows.push(vec![
                        method.name().to_string(),
                        format!("{dropout:.1}"),
                        format!("{skew:.0}"),
                        deadline.map_or("inf".to_string(), |d| format!("{d:.1}")),
                        format!("{:.4}", best.best_accuracy),
                        format!("{:.2}", history.mean_participation()),
                        history.total_stragglers().to_string(),
                        history.total_dropouts().to_string(),
                        format!("{:.2}", history.total_sim_time_s() / 3600.0),
                    ]);
                    csv.push_str(&format!(
                        "{},{dropout},{skew},{},{},{},{},{},{}\n",
                        method.name(),
                        deadline.map_or("inf".to_string(), |d| d.to_string()),
                        best.best_accuracy,
                        history.mean_participation(),
                        history.total_stragglers(),
                        history.total_dropouts(),
                        history.total_sim_time_s() / 3600.0,
                    ));
                }
            }
        }
    }

    let table = render_table(
        &[
            "method",
            "dropout",
            "skew",
            "deadline (s)",
            "best acc",
            "mean K'",
            "stragglers",
            "dropouts",
            "sim hours",
        ],
        &rows,
    );
    println!(
        "Heterogeneity sweep: {} rounds, N = {n_clients}, K = {}, CE(0.6), \
         deadline at the 70th completion percentile\n",
        opts.rounds(),
        exp.participants
    );
    println!("{table}");
    println!(
        "reading guide: dropout > 0 or a finite deadline on a skewed fleet \
         lowers mean per-round participation K' below K and raises the \
         straggler/dropout counts; the (dropout 0, inf, skew 1) rows match \
         the paper's ideal synchronous setting."
    );
    write_artifact(&opts.out_path("hetero_sweep.txt"), &table);
    write_artifact(&opts.out_path("hetero_sweep.csv"), &csv);
}

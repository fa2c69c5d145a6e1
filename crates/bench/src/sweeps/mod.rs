//! The beyond-the-paper sweeps: the paper's federation under device
//! heterogeneity, asynchronous aggregation, per-device reliability, fleet
//! dynamics, real sockets and adaptive server optimizers. Each is one
//! artifact of [`crate::paper::ARTIFACTS`] and writes
//! `<name>_sweep.{txt,csv}`.

pub(crate) mod adaptive;
pub(crate) mod asynchronous;
pub(crate) mod dynamics;
pub(crate) mod hetero;
pub mod net;
pub(crate) mod reliability;

use crate::{DatasetKind, Env, ExpOptions, ExperimentSpec};

/// The federation a sweep runs on: the MNIST-like CE(0.6) block with
/// `n_clients` clients, materialized once and shared by every cell.
pub(crate) struct Federation {
    pub exp: ExperimentSpec,
    pub env: Env,
    /// Parameters of the client model.
    pub params: usize,
    /// One client's upload, as the executors' dispatch planner prices it.
    pub upload_bytes: u64,
}

impl Federation {
    pub fn new(opts: &ExpOptions, n_clients: usize) -> Self {
        let exp = ExperimentSpec::new(DatasetKind::MnistLike, "CE", n_clients, opts);
        let env = exp.materialize(opts.scale);
        let params = env.3.build(1).param_count();
        let upload_bytes = feddrl_fl::dispatch::upload_bytes(params, exp.participants);
        Self {
            exp,
            env,
            params,
            upload_bytes,
        }
    }
}

/// The "h to target" cell: simulated hours to two decimals, `-` for a
/// target never reached; the CSV holds the same text.
fn hours_to_target(hours: Option<f64>) -> String {
    hours.map_or("-".to_string(), |h| format!("{h:.2}"))
}

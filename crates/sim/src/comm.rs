//! Communication-overhead model (paper §3.5).
//!
//! The paper argues FedDRL's communication overhead over FedAvg is "some
//! extra floating point numbers for the inference loss". This module makes
//! that claim quantitative: an analytic per-round byte count for each
//! method, parameterized by model size and participation, so the §3.5
//! discussion becomes a reproducible table (printed by `exp_paper -- fig9`).

use serde::{Deserialize, Serialize};

/// Bytes in one serialized `f32` model parameter.
const BYTES_PER_PARAM: u64 = 4;
/// Bytes for one scalar loss value.
const BYTES_PER_LOSS: u64 = 4;
/// Bytes for one sample-count integer.
const BYTES_PER_COUNT: u64 = 8;

/// Federation shape for the communication model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommModel {
    /// Trainable parameters of the exchanged model.
    pub param_count: u64,
    /// Participating clients per round `K`.
    pub participants: u64,
}

/// Per-round traffic breakdown in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundTraffic {
    /// Server → clients: global model broadcast.
    pub downlink: u64,
    /// Clients → server: locally trained models.
    pub uplink_models: u64,
    /// Clients → server: scalar metadata (losses, sample counts).
    pub uplink_metadata: u64,
}

impl RoundTraffic {
    /// Total bytes on the wire for the round.
    pub fn total(&self) -> u64 {
        self.downlink + self.uplink_models + self.uplink_metadata
    }
}

impl CommModel {
    /// Create a model for a `param_count`-parameter DNN and `K` clients.
    pub fn new(param_count: u64, participants: u64) -> Self {
        assert!(param_count > 0 && participants > 0);
        Self {
            param_count,
            participants,
        }
    }

    /// FedAvg traffic: model down, model + `n_k` up.
    pub fn fedavg_round(&self) -> RoundTraffic {
        let model = self.param_count * BYTES_PER_PARAM;
        RoundTraffic {
            downlink: model * self.participants,
            uplink_models: model * self.participants,
            uplink_metadata: BYTES_PER_COUNT * self.participants,
        }
    }

    /// FedDRL traffic: FedAvg plus the two inference losses
    /// (`l_before`, `l_after`) each client reports (§3.3.2).
    pub fn feddrl_round(&self) -> RoundTraffic {
        let base = self.fedavg_round();
        RoundTraffic {
            uplink_metadata: base.uplink_metadata + 2 * BYTES_PER_LOSS * self.participants,
            ..base
        }
    }

    /// FedDRL's relative traffic overhead vs FedAvg (fraction, e.g.
    /// `2.2e-7` for VGG-11).
    pub fn feddrl_overhead_ratio(&self) -> f64 {
        let a = self.fedavg_round().total() as f64;
        let d = self.feddrl_round().total() as f64;
        (d - a) / a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fedavg_round_is_symmetric_in_models() {
        let m = CommModel::new(1000, 10);
        let t = m.fedavg_round();
        assert_eq!(t.downlink, 1000 * 4 * 10);
        assert_eq!(t.uplink_models, t.downlink);
        assert_eq!(t.uplink_metadata, 80);
    }

    #[test]
    fn feddrl_adds_exactly_two_floats_per_client() {
        let m = CommModel::new(1000, 10);
        let avg = m.fedavg_round();
        let drl = m.feddrl_round();
        assert_eq!(drl.total() - avg.total(), 2 * 4 * 10);
        assert_eq!(drl.downlink, avg.downlink);
        assert_eq!(drl.uplink_models, avg.uplink_models);
    }

    #[test]
    fn overhead_ratio_is_negligible_for_real_models() {
        // VGG-11-sized model: overhead must be below one part per million,
        // confirming the paper's "trivial overhead" claim.
        let m = CommModel::new(9_500_000, 10);
        let ratio = m.feddrl_overhead_ratio();
        assert!(ratio > 0.0);
        assert!(ratio < 1e-6, "overhead ratio {ratio} not trivial");
    }

    #[test]
    #[should_panic]
    fn rejects_zero_params() {
        let _ = CommModel::new(0, 10);
    }
}

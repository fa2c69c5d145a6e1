//! Run histories: everything recorded per communication round, exportable
//! as JSON for the experiment harness (Figures 5–8 and 10 are plotted
//! straight from these records).

use crate::metrics::{best_accuracy, ConvergenceStats};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Predicate for `skip_serializing_if`: counters that are only meaningful
/// for some executors stay out of the JSON when zero, so histories from
/// older executors keep their exact shape.
fn is_zero(n: &usize) -> bool {
    *n == 0
}

/// Heterogeneity telemetry for one round (opened and closed by the
/// dispatch planner under `executor::DeadlineExecutor`,
/// `executor::BufferedExecutor` and buffered socket rounds; absent for
/// the ideal executor and socket barriers).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HeteroRoundRecord {
    /// Simulated wall-clock of the round in seconds (virtual time from
    /// broadcast to the last accepted upload, or the deadline if the
    /// server had to wait one out; for the buffered executor, the slice of
    /// the persistent virtual timeline this aggregation consumed).
    pub sim_time_s: f64,
    /// Sampled clients that dropped out before reporting.
    pub dropouts: usize,
    /// Sampled clients whose report missed the round deadline.
    pub stragglers: usize,
    /// Stale updates carried in from earlier rounds and aggregated now.
    pub carried_in: usize,
    /// Sampled clients skipped because their device was still training or
    /// uploading an earlier model version (buffered executor only; omitted
    /// from JSON when zero so deadline/ideal histories keep their shape).
    #[serde(default, skip_serializing_if = "is_zero")]
    pub busy: usize,
    /// Updates that had arrived but were still waiting for the
    /// aggregation buffer to fill when the round ended (buffered executor
    /// only; omitted from JSON when zero).
    #[serde(default, skip_serializing_if = "is_zero")]
    pub buffered: usize,
    /// Clients that joined the federation (churn arrivals) since the
    /// previous round ended, including mid-round arrivals (omitted from
    /// JSON when zero so churn-free histories keep their shape).
    #[serde(default, skip_serializing_if = "is_zero")]
    pub joined: usize,
    /// Clients that departed the federation (churn departures) since the
    /// previous round ended, including mid-round departures (omitted from
    /// JSON when zero).
    #[serde(default, skip_serializing_if = "is_zero")]
    pub departed: usize,
    /// Dispatched clients that trained a structured-dropout sub-model
    /// (keep ratio below 1) instead of being dropped or carried stale
    /// (omitted from JSON when zero).
    #[serde(default, skip_serializing_if = "is_zero")]
    pub masked: usize,
    /// Per-update staleness in model versions, aligned with
    /// `aggregated_ids` (omitted from JSON when empty — an all-fresh
    /// round under a round-barrier executor records nothing here).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub staleness: Vec<usize>,
    /// Ids of the clients whose updates were aggregated this round, in
    /// aggregation order — i.e. aligned with the record's
    /// `impact_factors`/`client_losses_before`. Unlike `selected` (the
    /// *sampled* set), this can omit dropouts/stragglers and, under
    /// carry-over, include clients sampled in an earlier round.
    pub aggregated_ids: Vec<usize>,
}

impl HeteroRoundRecord {
    /// Updates actually aggregated this round (arrivals + carried).
    pub fn aggregated(&self) -> usize {
        self.aggregated_ids.len()
    }

    /// Total staleness, in model versions, over this round's updates.
    pub fn staleness_sum(&self) -> usize {
        self.staleness.iter().sum()
    }
}

/// Per-round measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Communication round (0-based).
    pub round: usize,
    /// Top-1 accuracy of the new global model on the test set.
    pub test_accuracy: f32,
    /// Mean test loss of the new global model.
    pub test_loss: f32,
    /// Ids of the clients *sampled* this round. Under the ideal executor
    /// this is also the aggregated set; under hetero executors the
    /// aggregated set is [`HeteroRoundRecord::aggregated_ids`] instead
    /// (dropouts/stragglers omitted, carried-over updates included).
    /// Held at exactly its length: the session shrinks the policy's
    /// buffer, which may be a candidate pool several times `K` wide,
    /// before a caller of `Session::run` keeps it for the whole run.
    pub selected: Vec<usize>,
    /// Normalized impact factors applied at aggregation, one per
    /// *aggregated* update in aggregation order — aligned with
    /// [`HeteroRoundRecord::aggregated_ids`] when `hetero` is present
    /// (and with `selected` only under the ideal executor, where the two
    /// sets coincide).
    pub impact_factors: Vec<f32>,
    /// Inference loss of the broadcast global model on each aggregated
    /// client's data (`l_before`; Figure 6's robustness metric), aligned
    /// with `impact_factors` — *not* with `selected` under hetero
    /// executors.
    pub client_losses_before: Vec<f32>,
    /// Wall-clock spent computing impact factors (µs) — Figure 9's "DRL".
    pub strategy_micros: u64,
    /// Wall-clock spent averaging weight vectors (µs) — Figure 9's
    /// "Aggregation".
    pub aggregate_micros: u64,
    /// Heterogeneity telemetry; `None` under the ideal executor, and then
    /// omitted from JSON so ideal histories stay byte-identical to the
    /// pre-executor format.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub hetero: Option<HeteroRoundRecord>,
}

/// A complete federated run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunHistory {
    /// Strategy name ("FedAvg", "FedProx", "FedDRL", …).
    pub method: String,
    /// Dataset name ("mnist-like", …).
    pub dataset: String,
    /// Partition code ("PA", "CE", "CN", …).
    pub partition: String,
    /// Total clients `N`.
    pub n_clients: usize,
    /// Participants per round `K`.
    pub participants: usize,
    /// Master seed of the run.
    pub seed: u64,
    /// One record per round, in order.
    pub records: Vec<RoundRecord>,
}

impl RunHistory {
    /// Accuracy trajectory.
    pub fn accuracies(&self) -> Vec<f32> {
        self.records.iter().map(|r| r.test_accuracy).collect()
    }

    /// Best accuracy and when it was reached.
    pub fn best(&self) -> ConvergenceStats {
        best_accuracy(&self.accuracies())
    }

    /// Moving average of the accuracy trajectory (the paper smooths
    /// Fashion-MNIST curves over 10 rounds for Figure 5).
    pub fn smoothed_accuracies(&self, window: usize) -> Vec<f32> {
        let acc = self.accuracies();
        let w = window.max(1);
        acc.iter()
            .enumerate()
            .map(|(i, _)| {
                let lo = i.saturating_sub(w - 1);
                let slice = &acc[lo..=i];
                slice.iter().sum::<f32>() / slice.len() as f32
            })
            .collect()
    }

    /// Total simulated wall-clock over the run in seconds (0 for ideal
    /// runs, where no virtual time passes).
    pub fn total_sim_time_s(&self) -> f64 {
        // Folded from +0.0: `Sum<f64>`'s identity is -0.0, which formats
        // as "-0.00" for ideal (telemetry-free) histories.
        self.records
            .iter()
            .filter_map(|r| r.hetero.as_ref().map(|h| h.sim_time_s))
            .fold(0.0, |acc, t| acc + t)
    }

    /// Total deadline-missing clients over the run.
    pub fn total_stragglers(&self) -> usize {
        self.records
            .iter()
            .filter_map(|r| r.hetero.as_ref().map(|h| h.stragglers))
            .sum()
    }

    /// Total dropped-out clients over the run.
    pub fn total_dropouts(&self) -> usize {
        self.records
            .iter()
            .filter_map(|r| r.hetero.as_ref().map(|h| h.dropouts))
            .sum()
    }

    /// Mean staleness over every aggregated update that recorded one
    /// (0 when the run never aggregated a stale update).
    pub fn mean_staleness(&self) -> f64 {
        let (mut total, mut count) = (0usize, 0usize);
        for r in &self.records {
            if let Some(h) = &r.hetero {
                total += h.staleness_sum();
                count += h.staleness.len();
            }
        }
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    }

    /// Simulated seconds until test accuracy first reaches `target` —
    /// the wall-clock-to-accuracy metric asynchronous executors are
    /// compared on. `None` if the run never got there (including ideal
    /// runs, where no virtual time passes).
    pub fn sim_time_to_accuracy_s(&self, target: f32) -> Option<f64> {
        let mut elapsed = 0.0f64;
        for r in &self.records {
            elapsed += r.hetero.as_ref().map_or(0.0, |h| h.sim_time_s);
            if r.test_accuracy >= target {
                return Some(elapsed);
            }
        }
        None
    }

    /// Mean number of updates aggregated per round — `participants` under
    /// the ideal executor, less once dropouts/deadlines bite.
    pub fn mean_participation(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let total: usize = self.records.iter().map(|r| r.impact_factors.len()).sum();
        total as f64 / self.records.len() as f64
    }

    /// Serialize to pretty JSON at `path` (parent directories must exist).
    pub fn save_json(&self, path: &Path) -> std::io::Result<()> {
        let json = serde_json::to_string_pretty(self).expect("history serialization");
        std::fs::write(path, json)
    }

    /// Deserialize from a JSON file produced by [`RunHistory::save_json`].
    pub fn load_json(path: &Path) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        serde_json::from_str(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_history() -> RunHistory {
        RunHistory {
            method: "FedAvg".into(),
            dataset: "mnist-like".into(),
            partition: "CE".into(),
            n_clients: 10,
            participants: 10,
            seed: 1,
            records: (0..5)
                .map(|round| RoundRecord {
                    round,
                    test_accuracy: 0.1 * (round as f32 + 1.0),
                    test_loss: 1.0 / (round as f32 + 1.0),
                    selected: vec![0, 1],
                    impact_factors: vec![0.5, 0.5],
                    client_losses_before: vec![1.0, 2.0],
                    strategy_micros: 3,
                    aggregate_micros: 45,
                    hetero: None,
                })
                .collect(),
        }
    }

    fn hetero_history() -> RunHistory {
        let mut h = toy_history();
        for (i, r) in h.records.iter_mut().enumerate() {
            r.hetero = Some(HeteroRoundRecord {
                sim_time_s: 10.0 + i as f64,
                dropouts: 1,
                stragglers: 2,
                carried_in: 0,
                busy: 0,
                buffered: 0,
                joined: 0,
                departed: 0,
                masked: 0,
                staleness: Vec::new(),
                aggregated_ids: vec![0, 1],
            });
        }
        h
    }

    #[test]
    fn best_tracks_maximum() {
        let h = toy_history();
        let best = h.best();
        assert!((best.best_accuracy - 0.5).abs() < 1e-6);
        assert_eq!(best.best_round, 4);
    }

    #[test]
    fn smoothing_window_one_is_identity() {
        let h = toy_history();
        assert_eq!(h.smoothed_accuracies(1), h.accuracies());
    }

    #[test]
    fn smoothing_averages_prefix() {
        let h = toy_history();
        let sm = h.smoothed_accuracies(3);
        assert!((sm[0] - 0.1).abs() < 1e-6);
        assert!((sm[1] - 0.15).abs() < 1e-6);
        assert!((sm[4] - 0.4).abs() < 1e-6); // (0.3+0.4+0.5)/3
    }

    #[test]
    fn ideal_records_serialize_without_hetero_key() {
        let json = serde_json::to_string_pretty(&toy_history()).unwrap();
        assert!(
            !json.contains("hetero"),
            "ideal history leaked a hetero key:\n{json}"
        );
        // And the key's absence deserializes back to None.
        let back: RunHistory = serde_json::from_str(&json).unwrap();
        assert!(back.records.iter().all(|r| r.hetero.is_none()));
    }

    #[test]
    fn hetero_records_roundtrip() {
        let h = hetero_history();
        let json = serde_json::to_string(&h).unwrap();
        let back: RunHistory = serde_json::from_str(&json).unwrap();
        assert_eq!(back.records[2].hetero, h.records[2].hetero);
    }

    #[test]
    fn hetero_totals_sum_over_rounds() {
        let h = hetero_history();
        assert!((h.total_sim_time_s() - (10.0 + 11.0 + 12.0 + 13.0 + 14.0)).abs() < 1e-9);
        assert_eq!(h.total_stragglers(), 10);
        assert_eq!(h.total_dropouts(), 5);
        assert!((h.mean_participation() - 2.0).abs() < 1e-9);
        let ideal = toy_history();
        assert_eq!(ideal.total_sim_time_s(), 0.0);
        assert!(
            ideal.total_sim_time_s().is_sign_positive(),
            "empty-sum must not leak IEEE -0.0 into reports"
        );
        assert_eq!(ideal.total_stragglers(), 0);
    }

    #[test]
    fn dynamics_free_records_omit_churn_and_mask_keys() {
        // A static-fleet record keeps the exact pre-dynamics JSON shape...
        let json = serde_json::to_string(&hetero_history()).unwrap();
        assert!(!json.contains("joined"), "zero joined leaked: {json}");
        assert!(!json.contains("departed"), "zero departed leaked: {json}");
        assert!(!json.contains("masked"), "zero masked leaked: {json}");
        // ...while live churn/mask telemetry round-trips.
        let mut h = hetero_history();
        let rec = h.records[3].hetero.as_mut().unwrap();
        rec.joined = 2;
        rec.departed = 1;
        rec.masked = 3;
        let json = serde_json::to_string(&h).unwrap();
        assert!(json.contains("joined") && json.contains("masked"));
        let back: RunHistory = serde_json::from_str(&json).unwrap();
        assert_eq!(back.records[3].hetero, h.records[3].hetero);
    }

    #[test]
    fn fresh_hetero_records_omit_async_keys() {
        // A deadline-style record (no busy/buffered/staleness activity)
        // keeps the exact pre-async JSON shape...
        let json = serde_json::to_string(&hetero_history()).unwrap();
        assert!(!json.contains("busy"), "zero busy leaked: {json}");
        assert!(!json.contains("buffered"), "zero buffered leaked: {json}");
        assert!(
            !json.contains("staleness"),
            "empty staleness leaked: {json}"
        );
        // ...and the omitted keys deserialize back to their defaults.
        let back: RunHistory = serde_json::from_str(&json).unwrap();
        let h = back.records[0].hetero.as_ref().unwrap();
        assert_eq!((h.busy, h.buffered), (0, 0));
        assert!(h.staleness.is_empty());
    }

    #[test]
    fn async_hetero_fields_roundtrip() {
        let mut h = hetero_history();
        let rec = h.records[1].hetero.as_mut().unwrap();
        rec.busy = 2;
        rec.buffered = 1;
        rec.staleness = vec![3, 0];
        let json = serde_json::to_string(&h).unwrap();
        assert!(json.contains("busy") && json.contains("staleness"));
        let back: RunHistory = serde_json::from_str(&json).unwrap();
        assert_eq!(back.records[1].hetero, h.records[1].hetero);
    }

    #[test]
    fn mean_staleness_averages_recorded_updates_only() {
        let mut h = hetero_history();
        assert_eq!(h.mean_staleness(), 0.0);
        h.records[0].hetero.as_mut().unwrap().staleness = vec![2, 0];
        h.records[1].hetero.as_mut().unwrap().staleness = vec![4];
        assert!((h.mean_staleness() - 2.0).abs() < 1e-9); // (2+0+4)/3
    }

    #[test]
    fn sim_time_to_accuracy_accumulates_until_target() {
        let h = hetero_history(); // accuracies 0.1..0.5, times 10..14
                                  // 0.3 is first reached at round 2: 10 + 11 + 12 seconds elapsed.
        assert_eq!(h.sim_time_to_accuracy_s(0.3), Some(33.0));
        assert_eq!(h.sim_time_to_accuracy_s(0.9), None);
        assert_eq!(toy_history().sim_time_to_accuracy_s(0.3), Some(0.0));
    }

    #[test]
    fn json_roundtrip_via_disk() {
        let h = toy_history();
        let dir = std::env::temp_dir().join("feddrl_fl_history_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.json");
        h.save_json(&path).unwrap();
        let back = RunHistory::load_json(&path).unwrap();
        assert_eq!(back.records.len(), 5);
        assert_eq!(back.method, "FedAvg");
        std::fs::remove_dir_all(&dir).ok();
    }
}

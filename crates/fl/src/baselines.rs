//! Additional adaptive-weighting baselines from the paper's related work
//! (§2.2.2): heuristic impact-factor rules that FedDRL is positioned
//! against. These make the "fixed rule vs learned policy" comparison
//! concrete and are exercised by `exp_paper -- baselines`.

use crate::client::ClientSummary;
use crate::strategy::{RoundContext, Strategy};
use feddrl_sim::ids::IdMap;

/// FedAdp-style gradient-angle adaptive weighting (Wu & Wang, IEEE TCCN
/// 2021 — the paper's reference \[25\]).
///
/// Clients whose local update direction aligns with the aggregate update
/// direction get amplified weights; misaligned ("conflicting") clients are
/// damped. The instantaneous angle is smoothed per client across the
/// rounds it participates in, then mapped through a Gompertz function.
pub struct FedAdp {
    /// Gompertz steepness α (reference implementation uses 5).
    alpha: f32,
    /// Per-client smoothed angle and participation count.
    smoothed: IdMap<(f32, usize)>,
}

impl FedAdp {
    /// Create with the given Gompertz steepness.
    pub fn new(alpha: f32) -> Self {
        assert!(alpha > 0.0, "FedAdp alpha must be positive");
        Self {
            alpha,
            smoothed: IdMap::default(),
        }
    }
}

impl Default for FedAdp {
    fn default() -> Self {
        Self::new(5.0)
    }
}

impl Strategy for FedAdp {
    fn name(&self) -> &'static str {
        "FedAdp"
    }

    fn impact_factors(&mut self, _round: usize, summaries: &[ClientSummary]) -> Vec<f32> {
        // Without gradient geometry we cannot do better than FedAvg; the
        // server always calls the ctx variant, this exists for trait
        // completeness.
        summaries.iter().map(|s| s.n_samples as f32).collect()
    }

    fn impact_factors_ctx(&mut self, ctx: &RoundContext<'_>) -> Vec<f32> {
        let dim = ctx.global_weights.len();
        let k = ctx.updates.len();
        // Local update directions Δ_k = w_k − w_global and the
        // sample-weighted aggregate direction.
        let mut agg = vec![0.0f32; dim];
        let total_n: f32 = ctx.updates.iter().map(|u| u.n_samples as f32).sum();
        for u in ctx.updates {
            let frac = u.n_samples as f32 / total_n.max(1.0);
            for ((a, &w), &g) in agg.iter_mut().zip(u.weights.iter()).zip(ctx.global_weights) {
                *a += frac * (w - g);
            }
        }
        let agg_norm = agg.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
        let mut factors = Vec::with_capacity(k);
        for u in ctx.updates {
            let mut dot = 0.0f32;
            let mut norm = 0.0f32;
            for ((&w, &g), &a) in u.weights.iter().zip(ctx.global_weights).zip(agg.iter()) {
                let d = w - g;
                dot += d * a;
                norm += d * d;
            }
            let cos = (dot / (norm.sqrt().max(1e-12) * agg_norm)).clamp(-1.0, 1.0);
            let theta = cos.acos();
            // Per-client running average over participations.
            let entry = self.smoothed.entry(u.client_id).or_insert((theta, 0));
            let t = entry.1 as f32;
            entry.0 = (t / (t + 1.0)) * entry.0 + (1.0 / (t + 1.0)) * theta;
            entry.1 += 1;
            let smooth = entry.0;
            // Gompertz mapping: aligned (small angle) → large weight.
            let alpha = self.alpha;
            let f = alpha * (1.0 - (-((-alpha * (smooth - 1.0)).exp())).exp());
            factors.push(u.n_samples as f32 * f.exp());
        }
        factors
    }
}

/// Loss-proportional weighting in the spirit of q-FFL / FedCav: clients
/// where the global model currently performs worst receive more weight,
/// tempered by the exponent `q` (`q = 0` recovers FedAvg).
#[derive(Debug, Clone)]
pub struct LossProportional {
    q: f32,
}

impl LossProportional {
    /// Create with loss exponent `q ≥ 0`.
    pub fn new(q: f32) -> Self {
        assert!(q >= 0.0, "loss exponent must be non-negative, got {q}");
        Self { q }
    }
}

impl Default for LossProportional {
    fn default() -> Self {
        Self::new(1.0)
    }
}

impl Strategy for LossProportional {
    fn name(&self) -> &'static str {
        "LossProp"
    }

    fn impact_factors(&mut self, _round: usize, summaries: &[ClientSummary]) -> Vec<f32> {
        summaries
            .iter()
            .map(|s| s.n_samples as f32 * s.loss_before.max(1e-6).powf(self.q))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientUpdate;
    use crate::strategy::normalize_factors;

    fn update(id: usize, n: usize, weights: Vec<f32>, loss: f32) -> ClientUpdate {
        ClientUpdate {
            client_id: id,
            weights,
            n_samples: n,
            loss_before: loss,
            loss_after: loss * 0.5,
            staleness: 0,
            mask: None,
        }
    }

    #[test]
    fn fedadp_rewards_aligned_clients() {
        let mut adp = FedAdp::default();
        let global = vec![0.0f32; 4];
        // Two clients pull in +x, one pulls the opposite way.
        let updates = vec![
            update(0, 100, vec![1.0, 1.0, 0.0, 0.0], 1.0),
            update(1, 100, vec![0.9, 1.1, 0.0, 0.0], 1.0),
            update(2, 100, vec![-1.0, -1.0, 0.0, 0.0], 1.0),
        ];
        let ctx = RoundContext {
            round: 0,
            global_weights: &global,
            updates: &updates,
        };
        let alpha = normalize_factors(&adp.impact_factors_ctx(&ctx));
        assert!(
            alpha[0] > alpha[2] && alpha[1] > alpha[2],
            "conflicting client not damped: {alpha:?}"
        );
    }

    #[test]
    fn fedadp_smooths_angles_across_rounds() {
        let mut adp = FedAdp::default();
        let global = vec![0.0f32; 2];
        let aligned = vec![
            update(0, 10, vec![1.0, 0.0], 1.0),
            update(1, 10, vec![1.0, 0.1], 1.0),
        ];
        let ctx = RoundContext {
            round: 0,
            global_weights: &global,
            updates: &aligned,
        };
        let _ = adp.impact_factors_ctx(&ctx);
        let first = adp.smoothed[&0];
        let _ = adp.impact_factors_ctx(&RoundContext {
            round: 1,
            global_weights: &global,
            updates: &aligned,
        });
        let second = adp.smoothed[&0];
        assert_eq!(second.1, 2, "participation count not tracked");
        assert!(
            (second.0 - first.0).abs() < 1e-5,
            "identical geometry should keep the smoothed angle"
        );
    }

    #[test]
    fn loss_proportional_prefers_struggling_clients() {
        let mut s = LossProportional::new(1.0);
        let sums = vec![
            ClientSummary {
                client_id: 0,
                n_samples: 100,
                loss_before: 0.5,
                loss_after: 0.2,
            },
            ClientSummary {
                client_id: 1,
                n_samples: 100,
                loss_before: 2.0,
                loss_after: 0.2,
            },
        ];
        let alpha = normalize_factors(&s.impact_factors(0, &sums));
        assert!(
            (alpha[1] - 0.8).abs() < 1e-5,
            "expected 4:1 split, got {alpha:?}"
        );
    }

    #[test]
    fn loss_proportional_q_zero_is_fedavg() {
        let mut s = LossProportional::new(0.0);
        let sums = vec![
            ClientSummary {
                client_id: 0,
                n_samples: 300,
                loss_before: 9.0,
                loss_after: 0.2,
            },
            ClientSummary {
                client_id: 1,
                n_samples: 100,
                loss_before: 0.1,
                loss_after: 0.2,
            },
        ];
        let alpha = normalize_factors(&s.impact_factors(0, &sums));
        assert!((alpha[0] - 0.75).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn fedadp_rejects_bad_alpha() {
        let _ = FedAdp::new(0.0);
    }
}

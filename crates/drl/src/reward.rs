//! The FedDRL reward (paper Eq. 7).
//!
//! The paper prints `r_t = avg(l_b) + (max(l_b) − min(l_b))` and states both
//! terms are to be *minimized* ("1) Improving the global model's accuracy …
//! 2) Balancing the global model's performance"). A reward that the agent
//! maximizes must therefore be the negative of that sum; we implement
//! `r = −(avg + λ·(max − min))` with λ = 1 by default and expose λ for the
//! ablation bench (docs/REPRODUCING.md, "Deviations from the paper",
//! documents this sign reading).

/// Compute the reward from the global model's inference losses on the
/// participating clients' datasets (`l_before` of the round *after* the
/// aggregation being scored).
///
/// # Panics
/// Panics on an empty slice or non-finite losses.
pub fn reward_from_losses(losses: &[f32], lambda: f32) -> f32 {
    assert!(!losses.is_empty(), "reward needs at least one client loss");
    let mut sum = 0.0f64;
    let mut max = f32::NEG_INFINITY;
    let mut min = f32::INFINITY;
    for (i, &l) in losses.iter().enumerate() {
        assert!(l.is_finite(), "client loss {i} is not finite: {l}");
        sum += l as f64;
        max = max.max(l);
        min = min.min(l);
    }
    let avg = (sum / losses.len() as f64) as f32;
    -(avg + lambda * (max - min))
}

/// Decomposed reward terms, for diagnostics and the ablation experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewardTerms {
    /// Mean loss across clients (accuracy objective).
    pub avg_loss: f32,
    /// Max − min loss across clients (fairness objective).
    pub loss_gap: f32,
}

/// Compute both reward terms without combining them.
pub fn reward_terms(losses: &[f32]) -> RewardTerms {
    assert!(!losses.is_empty(), "reward needs at least one client loss");
    let avg = losses.iter().sum::<f32>() / losses.len() as f32;
    let max = losses.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let min = losses.iter().copied().fold(f32::INFINITY, f32::min);
    RewardTerms {
        avg_loss: avg,
        loss_gap: max - min,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reward_is_negative_of_eq7() {
        // avg = 2, gap = 2 → r = −4.
        let r = reward_from_losses(&[1.0, 2.0, 3.0], 1.0);
        assert!((r + 4.0).abs() < 1e-6);
    }

    #[test]
    fn lambda_scales_fairness_term() {
        let balanced = reward_from_losses(&[2.0, 2.0, 2.0], 5.0);
        let skewed = reward_from_losses(&[1.0, 2.0, 3.0], 5.0);
        assert!((balanced + 2.0).abs() < 1e-6, "gap term should vanish");
        assert!((skewed + 12.0).abs() < 1e-6); // −(2 + 5·2)
    }

    #[test]
    fn lower_losses_give_higher_reward() {
        let good = reward_from_losses(&[0.5, 0.6], 1.0);
        let bad = reward_from_losses(&[2.0, 2.1], 1.0);
        assert!(good > bad);
    }

    #[test]
    fn fairer_outcome_wins_at_equal_average() {
        let fair = reward_from_losses(&[1.0, 1.0], 1.0);
        let unfair = reward_from_losses(&[0.0, 2.0], 1.0);
        assert!(fair > unfair);
    }

    #[test]
    fn terms_decompose() {
        let t = reward_terms(&[1.0, 3.0]);
        assert_eq!(t.avg_loss, 2.0);
        assert_eq!(t.loss_gap, 2.0);
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn rejects_nan_loss() {
        let _ = reward_from_losses(&[1.0, f32::NAN], 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn rejects_empty() {
        let _ = reward_from_losses(&[], 1.0);
    }
}

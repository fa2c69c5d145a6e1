//! DRL state construction (paper §3.3.2).
//!
//! The state is the concatenation of three `K`-vectors: the global model's
//! inference loss on each participating client (`l_before`), each client's
//! post-training local loss (`l_after`), and the clients' sample counts.
//! The paper feeds these raw; raw cross-entropy magnitudes and sample
//! counts in the thousands destabilize DDPG, so we z-normalize each loss
//! block and convert counts to fractions — a monotone, information-
//! preserving transform (docs/REPRODUCING.md, "Deviations from the
//! paper").
//!
//! Beyond the paper, [`build_state_with_staleness`] appends a fourth
//! `K`-vector — each update's staleness in model versions, squashed into
//! `[0, 1)` by [`staleness_feature`] — for runs under carry-over or
//! buffered asynchronous executors, where the agent should be able to
//! learn staleness-aware impact factors. A fresh update contributes `0`,
//! so the block degenerates to zeros in any synchronous setting.
//! [`append_availability_block`] does the same for adaptive structured
//! dropout: each update's untrained model fraction ([`availability_feature`],
//! `1 − mask_ratio`) as one more `K`-vector, exactly zero for every
//! full-model update.

use feddrl_fl::client::ClientSummary;

/// z-normalize a block in place (mean 0, unit variance; degenerate blocks
/// collapse to zeros).
fn z_normalize(block: &mut [f32]) {
    let n = block.len() as f32;
    if n == 0.0 {
        return;
    }
    let mean = block.iter().sum::<f32>() / n;
    let var = block.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n;
    let std = var.sqrt();
    if std < 1e-8 {
        for v in block.iter_mut() {
            *v = 0.0;
        }
    } else {
        for v in block.iter_mut() {
            *v = (*v - mean) / std;
        }
    }
}

/// Build the `3K` state vector from the clients' round reports, in the
/// order the summaries are given (which matches the order impact factors
/// must be returned in).
///
/// # Panics
/// Panics if `summaries` is empty or a loss is non-finite.
pub fn build_state(summaries: &[ClientSummary]) -> Vec<f32> {
    assert!(!summaries.is_empty(), "state needs at least one client");
    let k = summaries.len();
    let mut state = Vec::with_capacity(3 * k);
    for s in summaries {
        assert!(
            s.loss_before.is_finite(),
            "client {} reported non-finite loss_before",
            s.client_id
        );
        state.push(s.loss_before);
    }
    for s in summaries {
        assert!(
            s.loss_after.is_finite(),
            "client {} reported non-finite loss_after",
            s.client_id
        );
        state.push(s.loss_after);
    }
    let total: f32 = summaries.iter().map(|s| s.n_samples as f32).sum();
    for s in summaries {
        state.push(s.n_samples as f32 / total.max(1.0));
    }
    z_normalize(&mut state[..k]);
    z_normalize(&mut state[k..2 * k]);
    state
}

/// Squash a staleness count into `[0, 1)`: `s / (1 + s)`. Exactly `0` for
/// a fresh update, approaching `1` for arbitrarily stale ones — bounded,
/// so a pathological straggler cannot blow up the observation scale.
pub fn staleness_feature(staleness: usize) -> f32 {
    staleness as f32 / (1.0 + staleness as f32)
}

/// Build the `4K` state vector: [`build_state`]'s three blocks plus one
/// block of [`staleness_feature`]s, in the same client order. An empty
/// `staleness` slice means "all fresh" (a zero block).
///
/// # Panics
/// Panics if `staleness` is non-empty with a length different from
/// `summaries`, or on [`build_state`]'s conditions.
pub fn build_state_with_staleness(summaries: &[ClientSummary], staleness: &[usize]) -> Vec<f32> {
    assert!(
        staleness.is_empty() || staleness.len() == summaries.len(),
        "{} staleness entries for {} summaries",
        staleness.len(),
        summaries.len()
    );
    let mut state = build_state(summaries);
    if staleness.is_empty() {
        state.extend(std::iter::repeat_n(0.0, summaries.len()));
    } else {
        state.extend(staleness.iter().map(|&s| staleness_feature(s)));
    }
    state
}

/// The availability observation of one update: the fraction of the model
/// it did *not* train under adaptive structured dropout, `1 − mask_ratio`
/// clamped to `[0, 1]`. Exactly `0` for a full-model update, so the block
/// degenerates to zeros whenever structured dropout is off — the same
/// degeneration contract as [`staleness_feature`].
pub fn availability_feature(mask_ratio: f32) -> f32 {
    (1.0 - mask_ratio).clamp(0.0, 1.0)
}

/// Append one `K`-block of [`availability_feature`]s to a state vector, in
/// the same client order as the existing blocks. An empty `mask_ratios`
/// slice means "all full-model" (a zero block).
///
/// # Panics
/// Panics if `mask_ratios` is non-empty with a length different from `k`.
pub fn append_availability_block(state: &mut Vec<f32>, k: usize, mask_ratios: &[f32]) {
    assert!(
        mask_ratios.is_empty() || mask_ratios.len() == k,
        "{} mask ratios for {} summaries",
        mask_ratios.len(),
        k
    );
    if mask_ratios.is_empty() {
        state.extend(std::iter::repeat_n(0.0, k));
    } else {
        state.extend(mask_ratios.iter().map(|&r| availability_feature(r)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(id: usize, n: usize, before: f32, after: f32) -> ClientSummary {
        ClientSummary {
            client_id: id,
            n_samples: n,
            loss_before: before,
            loss_after: after,
        }
    }

    #[test]
    fn state_has_3k_entries() {
        let s = build_state(&[
            summary(0, 100, 2.0, 1.0),
            summary(1, 300, 3.0, 0.5),
            summary(2, 100, 1.0, 0.2),
        ]);
        assert_eq!(s.len(), 9);
    }

    #[test]
    fn loss_blocks_are_z_normalized() {
        let s = build_state(&[
            summary(0, 10, 1.0, 5.0),
            summary(1, 10, 2.0, 6.0),
            summary(2, 10, 3.0, 7.0),
        ]);
        let before = &s[0..3];
        let after = &s[3..6];
        for block in [before, after] {
            let mean: f32 = block.iter().sum::<f32>() / 3.0;
            assert!(mean.abs() < 1e-6, "block mean {mean}");
            let var: f32 = block.iter().map(|x| x * x).sum::<f32>() / 3.0;
            assert!((var - 1.0).abs() < 1e-5, "block variance {var}");
        }
    }

    #[test]
    fn sample_counts_become_fractions() {
        let s = build_state(&[summary(0, 100, 1.0, 1.0), summary(1, 300, 2.0, 2.0)]);
        assert!((s[4] - 0.25).abs() < 1e-6);
        assert!((s[5] - 0.75).abs() < 1e-6);
    }

    #[test]
    fn identical_losses_collapse_to_zero_block() {
        let s = build_state(&[summary(0, 10, 2.0, 2.0), summary(1, 20, 2.0, 2.0)]);
        assert_eq!(&s[0..4], &[0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn ordering_follows_input_not_client_id() {
        let a = build_state(&[summary(9, 10, 1.0, 0.0), summary(2, 30, 5.0, 0.0)]);
        // First position belongs to client 9 (lower loss → negative z).
        assert!(a[0] < a[1]);
    }

    #[test]
    fn staleness_feature_is_bounded_and_monotone() {
        assert_eq!(staleness_feature(0), 0.0);
        let mut prev = -1.0f32;
        for s in 0..100 {
            let f = staleness_feature(s);
            assert!((0.0..1.0).contains(&f));
            assert!(f > prev);
            prev = f;
        }
        assert!((staleness_feature(1) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn staleness_block_appends_without_touching_the_3k_prefix() {
        let sums = [summary(0, 10, 1.0, 0.5), summary(1, 30, 2.0, 0.7)];
        let base = build_state(&sums);
        let with = build_state_with_staleness(&sums, &[2, 0]);
        assert_eq!(with.len(), 8);
        assert_eq!(&with[..6], &base[..], "3K prefix must be unchanged");
        assert!((with[6] - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(with[7], 0.0);
        // Empty staleness means an all-fresh (zero) block.
        let fresh = build_state_with_staleness(&sums, &[]);
        assert_eq!(&fresh[6..], &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "staleness entries")]
    fn rejects_misaligned_staleness() {
        let _ = build_state_with_staleness(&[summary(0, 10, 1.0, 0.5)], &[1, 2]);
    }

    #[test]
    fn availability_feature_is_zero_for_full_models_and_bounded() {
        assert_eq!(availability_feature(1.0), 0.0);
        assert!((availability_feature(0.25) - 0.75).abs() < 1e-6);
        assert_eq!(availability_feature(2.0), 0.0, "over-full ratios clamp");
        assert_eq!(availability_feature(-1.0), 1.0, "negative ratios clamp");
    }

    #[test]
    fn availability_block_appends_without_touching_the_prefix() {
        let sums = [summary(0, 10, 1.0, 0.5), summary(1, 30, 2.0, 0.7)];
        let base = build_state(&sums);
        let mut with = base.clone();
        append_availability_block(&mut with, 2, &[0.5, 1.0]);
        assert_eq!(with.len(), 8);
        assert_eq!(&with[..6], &base[..], "3K prefix must be unchanged");
        assert!((with[6] - 0.5).abs() < 1e-6);
        assert_eq!(with[7], 0.0);
        // Empty ratios mean an all-full (zero) block.
        let mut fresh = base.clone();
        append_availability_block(&mut fresh, 2, &[]);
        assert_eq!(&fresh[6..], &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "mask ratios")]
    fn rejects_misaligned_mask_ratios() {
        let mut state = vec![0.0; 3];
        append_availability_block(&mut state, 1, &[0.5, 0.25]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan_loss() {
        let _ = build_state(&[summary(0, 10, f32::NAN, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn rejects_empty() {
        let _ = build_state(&[]);
    }
}

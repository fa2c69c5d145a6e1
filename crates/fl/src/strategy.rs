//! Server-side aggregation strategies.
//!
//! A [`Strategy`] maps the clients' round reports to *impact factors* — the
//! weights `α` of the convex combination `w^{t+1} = Σ_k α_k · w_k^t`
//! (paper Eq. 4). The server normalizes and applies the combination itself,
//! which cleanly separates "deciding α" (3 ms for the DRL policy in Fig. 9)
//! from "averaging weights" (model-size dependent).
//!
//! Built-in strategies: [`FedAvg`] (α ∝ n_k, paper Eq. 1), [`FedProx`]
//! (FedAvg aggregation + proximal local solver, \[12\]) and [`Uniform`]
//! (α = 1/K ablation). FedDRL itself lives in the `feddrl` crate and plugs
//! in through this same trait.
//!
//! # The aggregation sweep
//!
//! [`weighted_average`] and [`masked_weighted_average`] are one pass over
//! the P positions of the model, in blocks of `SWEEP_BLOCK`: for each block
//! the clients are walked in order, each adding its term into the output
//! block (and, mask-aware, its `α` into a block-sized mass array on the
//! stack), so every client's weights are read once and nothing P-sized is
//! allocated but the result. What callers — and the golden fixtures and
//! `fedbench --verify` hashes, which pin every bit — may rely on:
//!
//! * **Per-position order.** Position `p` starts at `+0.0` and adds
//!   `α_k · w_k[p]` for k = 0, 1, … in the order the clients were passed,
//!   one rounded multiply and one rounded add each; the mass adds `α_k` in
//!   the same order. No reassociation, no fused multiply-add. Blocking
//!   changes which position is worked on next, never the order within one.
//! * **Zero-α skip.** A client whose `α` compares equal to zero contributes
//!   nothing — its weights are not read, so a non-finite value there stays
//!   out of the result (`0 · ∞` is never formed) — and, mask-aware, adds no
//!   mass. Its weight vector's length is still checked; its mask's is not.
//! * **Threads.** The output is split into one contiguous piece per thread
//!   only from `PAR_SWEEP_WORK` (2²² clients × positions) up, and never
//!   from inside a [`parallel`] worker. Positions are independent, so
//!   every thread count gives the same bits. Both constants carry the
//!   tables they were chosen from.

use crate::client::{ClientSummary, ClientUpdate};
use feddrl_nn::parallel;

/// Everything a strategy may inspect about the current round beyond the
/// scalar summaries: the global model broadcast at round start and the
/// full client updates (including weight vectors), enabling
/// gradient-geometry strategies like [`FedAdp`](crate::baselines::FedAdp).
pub struct RoundContext<'a> {
    /// Communication round (0-based).
    pub round: usize,
    /// Flat global weights broadcast at the start of this round.
    pub global_weights: &'a [f32],
    /// Full client reports, aligned with the summaries.
    pub updates: &'a [ClientUpdate],
}

/// A pluggable impact-factor policy.
pub trait Strategy: Send {
    /// Display name used in tables and history files.
    fn name(&self) -> &'static str;

    /// Compute one impact factor per entry of `summaries` for round
    /// `round`. The returned vector needs to be non-negative and finite;
    /// the server normalizes it onto the simplex.
    fn impact_factors(&mut self, round: usize, summaries: &[ClientSummary]) -> Vec<f32>;

    /// Context-aware variant the server actually invokes. The default
    /// delegates to [`Strategy::impact_factors`]; strategies that need the
    /// weight vectors or the broadcast global model (e.g. gradient-angle
    /// weighting) override this instead.
    fn impact_factors_ctx(&mut self, ctx: &RoundContext<'_>) -> Vec<f32> {
        let summaries: Vec<ClientSummary> = ctx.updates.iter().map(|u| u.summary()).collect();
        self.impact_factors(ctx.round, &summaries)
    }

    /// Proximal coefficient the local solver should use (`Some` only for
    /// FedProx-style strategies).
    fn proximal_mu(&self) -> Option<f32> {
        None
    }
}

/// FedAvg: impact proportional to the client's sample count (Eq. 1).
#[derive(Debug, Clone, Default)]
pub struct FedAvg;

impl Strategy for FedAvg {
    fn name(&self) -> &'static str {
        "FedAvg"
    }

    fn impact_factors(&mut self, _round: usize, summaries: &[ClientSummary]) -> Vec<f32> {
        summaries.iter().map(|s| s.n_samples as f32).collect()
    }
}

/// FedProx: FedAvg's aggregation plus the proximal term `(μ/2)‖w−w_t‖²`
/// in the local objective (paper baseline, μ = 0.01).
#[derive(Debug, Clone)]
pub struct FedProx {
    mu: f32,
}

impl FedProx {
    /// Create FedProx with proximal coefficient `μ`.
    pub fn new(mu: f32) -> Self {
        assert!(mu >= 0.0, "FedProx mu must be non-negative, got {mu}");
        Self { mu }
    }
}

impl Default for FedProx {
    /// Paper setting μ = 0.01.
    fn default() -> Self {
        Self::new(0.01)
    }
}

impl Strategy for FedProx {
    fn name(&self) -> &'static str {
        "FedProx"
    }

    fn impact_factors(&mut self, _round: usize, summaries: &[ClientSummary]) -> Vec<f32> {
        summaries.iter().map(|s| s.n_samples as f32).collect()
    }

    fn proximal_mu(&self) -> Option<f32> {
        Some(self.mu)
    }
}

/// Uniform weighting (α = 1/K); ablation reference.
#[derive(Debug, Clone, Default)]
pub struct Uniform;

impl Strategy for Uniform {
    fn name(&self) -> &'static str {
        "Uniform"
    }

    fn impact_factors(&mut self, _round: usize, summaries: &[ClientSummary]) -> Vec<f32> {
        vec![1.0; summaries.len()]
    }
}

/// Normalize raw factors onto the probability simplex.
///
/// # Panics
/// Panics if any factor is negative/non-finite or the sum is zero — a
/// strategy returning such factors is a bug worth failing loudly on.
pub fn normalize_factors(raw: &[f32]) -> Vec<f32> {
    assert!(!raw.is_empty(), "no impact factors to normalize");
    let mut sum = 0.0f64;
    for (i, &f) in raw.iter().enumerate() {
        assert!(f.is_finite() && f >= 0.0, "impact factor {i} invalid: {f}");
        sum += f as f64;
    }
    assert!(sum > 0.0, "impact factors sum to zero");
    raw.iter().map(|&f| (f as f64 / sum) as f32).collect()
}

/// Positions per block of the aggregation sweep (module docs): the output
/// block and, on the mask-aware path, the `mass` block beside it stay in
/// cache while every client's weights stream past once.
///
/// The sweep is bound by the 16 × 8.4 MB it streams, not by the block:
/// measured on the 2-vCPU reference box at P = 2 108 426, K = 16, every
/// second client a 0.625 sub-model (best of 7, ms, range over three runs;
/// the parent's client-by-client walk took 61–63 masked, 20–21 dense):
///
/// | block | masked, 1 thread | masked, 2 threads | dense, 1 | dense, 2 |
/// |---|---|---|---|---|
/// | 512 | 32–33 | 16–43 | 18–22 | 10–20 |
/// | 2 048 | 36–37 | 19–26 | 19–20 | 10–14 |
/// | 4 096 | 33–47 | 20–24 | 20–24 | 10–12 |
/// | 8 192 | 33–35 | 17–20 | 19–21 | 10–13 |
/// | 16 384 | 32–35 | 17–19 | 20–25 | 11–12 |
/// | 32 768 | 31–42 | 17–19 | 19–20 | 10–13 |
/// | 65 536 | 32–37 | 17–22 | 19–21 | 11–13 |
///
/// Flat from 2 048 up; 8 192 keeps output and mass block (64 KB) well
/// inside the 2 MiB L2 and the stack array at 32 KB. A branch-free select
/// in the masked loop measured the same as the branch (±2 ms either way).
const SWEEP_BLOCK: usize = 8192;

/// Minimum work, in clients × positions, before the sweep is split over
/// threads.
///
/// Serial / two threads, µs, best of 15–200, block 8 192, on a run where
/// the second vCPU was there to be had (on one where it was not, two
/// threads cost the serial time plus a 25–40 µs spawn at every size):
///
/// | K × P | shape | dense | masked |
/// |---|---|---|---|
/// | 19 k | 2 × 9 610 | 3 / 27 | 14 / 55 |
/// | 96 k | 10 × 9 610 | 13 / 41 | 54 / 97 |
/// | 0.55 M | 16 × 34 186 | 87 / 129 | 300 / 376 |
/// | 1.06 M | 2 × 529 930 | 314 / 330 | 864 / 754 |
/// | 1.07 M | 16 × 66 954 | 198 / 247 | 610 / 707 |
/// | 2.1 M | 16 × 133 898 | 436 / 522 | 1 328 / 1 050 |
/// | 4.2 M | 16 × 264 970 | 949 / 660 | 2 648 / 2 009 |
/// | 8.5 M | 16 × 529 930 | 1 995 / 1 241 | 5 983 / 4 002 |
/// | 16.9 M | 16 × 1 054 218 | 8 683 / 4 083 | 13 753 / 10 067 |
/// | 33.7 M | 16 × 2 108 426 | 19 888 / 12 931 | 33 707 / 17 593 |
///
/// 2²² is the first size where two threads win on both paths. Of the
/// `fedbench` workloads only `server_fig9` (33.7 M) is above it;
/// `net_bulk` (1.06 M), `paper_cluster_skew` (212 k), `net_chatty` (5.5 k)
/// and `fleet_scale` (3.4 k) run the serial sweep and never spawn.
const PAR_SWEEP_WORK: usize = 1 << 22;

/// Threads a sweep of `work` clients × positions is split over.
fn sweep_threads(work: usize) -> usize {
    if work < PAR_SWEEP_WORK || parallel::in_worker() {
        1
    } else {
        parallel::max_threads()
    }
}

/// Run `block(offset, out_block)` over `out` in [`SWEEP_BLOCK`]-sized
/// blocks, `threads` contiguous pieces of `out` at a time. Positions are
/// independent, so every thread count leaves the same bits.
fn sweep(out: &mut [f32], threads: usize, block: impl Fn(usize, &mut [f32]) + Sync) {
    parallel::par_split_mut(out, threads, |start, piece| {
        for (i, out_block) in piece.chunks_mut(SWEEP_BLOCK).enumerate() {
            block(start + i * SWEEP_BLOCK, out_block);
        }
    });
}

/// Weighted average of flat client weight vectors: `Σ_k α_k w_k`
/// (paper Eq. 4). `alphas` must already be normalized.
///
/// Every position starts at `+0.0` and adds `α_k · w_k[p]` in client
/// order; a client whose `α` is zero is skipped (module docs, "The
/// aggregation sweep").
///
/// # Panics
/// Panics on length mismatches.
pub fn weighted_average(weights: &[&[f32]], alphas: &[f32]) -> Vec<f32> {
    let dim = weights.first().map_or(0, |w| w.len());
    weighted_average_on(weights, alphas, sweep_threads(weights.len() * dim))
}

fn weighted_average_on(weights: &[&[f32]], alphas: &[f32], threads: usize) -> Vec<f32> {
    assert_eq!(
        weights.len(),
        alphas.len(),
        "weights/alphas cardinality mismatch"
    );
    assert!(!weights.is_empty(), "nothing to aggregate");
    let dim = weights[0].len();
    for w in weights {
        assert_eq!(w.len(), dim, "client weight vector length mismatch");
    }
    let mut out = vec![0.0f32; dim];
    sweep(&mut out, threads, |lo, out_block| {
        let hi = lo + out_block.len();
        for (w, &a) in weights.iter().zip(alphas) {
            if a == 0.0 {
                continue;
            }
            for (o, &v) in out_block.iter_mut().zip(&w[lo..hi]) {
                *o += a * v;
            }
        }
    });
    out
}

/// Mask-aware weighted average for heterogeneous sub-model updates
/// (adaptive structured dropout, arXiv:2507.10430).
///
/// A masked client trains only the parameters its
/// [`StructuredMask`](feddrl_nn::mask::StructuredMask) keeps, pinning the
/// rest at zero — averaging those zeros in as if they were trained values
/// would drag every masked coordinate toward the origin. Instead each
/// position `p` is averaged only over the clients that actually trained
/// it, renormalizing the impact mass per position:
///
/// `w[p] = Σ_k α_k · keeps_k(p) · w_k[p]  /  Σ_k α_k · keeps_k(p)`
///
/// Positions no participating client trained (`Σ_k α_k · keeps_k(p) = 0`)
/// keep the broadcast global value `global[p]` — untouched, not zeroed.
/// When every update is full (no mask, or a mask keeping everything) this
/// reduces exactly to [`weighted_average`]; the session only routes
/// through here when some update carries a partial mask, so dynamics-free
/// runs never pay the per-position bookkeeping.
///
/// Numerator and mass both start at `+0.0` and add their terms in client
/// order, a zero-`α` client contributing to neither; a weight at a position
/// its client's mask drops is never read, whatever it holds (module docs,
/// "The aggregation sweep").
///
/// # Panics
/// Panics on length mismatches between `global`, the update weight
/// vectors, their masks, and `alphas`.
pub fn masked_weighted_average(
    global: &[f32],
    updates: &[ClientUpdate],
    alphas: &[f32],
) -> Vec<f32> {
    let threads = sweep_threads(updates.len() * global.len());
    masked_weighted_average_on(global, updates, alphas, threads)
}

fn masked_weighted_average_on(
    global: &[f32],
    updates: &[ClientUpdate],
    alphas: &[f32],
    threads: usize,
) -> Vec<f32> {
    assert_eq!(
        updates.len(),
        alphas.len(),
        "updates/alphas cardinality mismatch"
    );
    assert!(!updates.is_empty(), "nothing to aggregate");
    let dim = global.len();
    // (α, weights, keep flags unless the client trained every position).
    let mut voters = Vec::with_capacity(updates.len());
    for (u, &a) in updates.iter().zip(alphas) {
        assert_eq!(u.weights.len(), dim, "client weight vector length mismatch");
        if a == 0.0 {
            continue;
        }
        let keep = u.mask.as_ref().map(|m| {
            assert_eq!(m.len(), dim, "client mask length mismatch");
            m.as_slice()
        });
        voters.push((a, u.weights.as_slice(), keep));
    }
    let mut out = vec![0.0f32; dim];
    sweep(&mut out, threads, |lo, num| {
        let hi = lo + num.len();
        let mut mass = [0.0f32; SWEEP_BLOCK];
        let mass = &mut mass[..num.len()];
        for &(a, w, keep) in &voters {
            let terms = num.iter_mut().zip(mass.iter_mut()).zip(&w[lo..hi]);
            match keep {
                None => {
                    for ((n, m), &v) in terms {
                        *n += a * v;
                        *m += a;
                    }
                }
                Some(keep) => {
                    for (((n, m), &v), &k) in terms.zip(&keep[lo..hi]) {
                        if k {
                            *n += a * v;
                            *m += a;
                        }
                    }
                }
            }
        }
        for ((n, &m), &g) in num.iter_mut().zip(mass.iter()).zip(&global[lo..hi]) {
            *n = if m > 0.0 { *n / m } else { g };
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summaries(ns: &[usize]) -> Vec<ClientSummary> {
        ns.iter()
            .enumerate()
            .map(|(i, &n)| ClientSummary {
                client_id: i,
                n_samples: n,
                loss_before: 1.0,
                loss_after: 0.5,
            })
            .collect()
    }

    #[test]
    fn fedavg_weights_by_sample_count() {
        let mut s = FedAvg;
        let raw = s.impact_factors(0, &summaries(&[100, 300]));
        let alpha = normalize_factors(&raw);
        assert!((alpha[0] - 0.25).abs() < 1e-6);
        assert!((alpha[1] - 0.75).abs() < 1e-6);
        assert!(s.proximal_mu().is_none());
    }

    #[test]
    fn fedprox_same_aggregation_with_proximal() {
        let mut p = FedProx::default();
        let mut a = FedAvg;
        let sums = summaries(&[10, 20, 30]);
        assert_eq!(p.impact_factors(3, &sums), a.impact_factors(3, &sums));
        assert_eq!(p.proximal_mu(), Some(0.01));
    }

    #[test]
    fn uniform_is_flat() {
        let mut u = Uniform;
        let alpha = normalize_factors(&u.impact_factors(0, &summaries(&[5, 500])));
        assert!((alpha[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn normalize_puts_on_simplex() {
        let alpha = normalize_factors(&[2.0, 2.0, 4.0]);
        assert!((alpha.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert_eq!(alpha, vec![0.25, 0.25, 0.5]);
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn normalize_rejects_nan() {
        let _ = normalize_factors(&[1.0, f32::NAN]);
    }

    #[test]
    #[should_panic(expected = "sum to zero")]
    fn normalize_rejects_all_zero() {
        let _ = normalize_factors(&[0.0, 0.0]);
    }

    #[test]
    fn weighted_average_identity_on_identical_inputs() {
        let w = vec![1.0f32, -2.0, 3.0];
        let avg = weighted_average(&[&w, &w, &w], &[0.2, 0.5, 0.3]);
        for (a, b) in avg.iter().zip(w.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn weighted_average_convex_combination() {
        let a = vec![0.0f32, 0.0];
        let b = vec![1.0f32, 2.0];
        let avg = weighted_average(&[&a, &b], &[0.75, 0.25]);
        assert_eq!(avg, vec![0.25, 0.5]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn weighted_average_rejects_ragged_inputs() {
        let a = vec![0.0f32, 0.0];
        let b = vec![1.0f32];
        let _ = weighted_average(&[&a, &b], &[0.5, 0.5]);
    }

    fn update(id: usize, weights: Vec<f32>, mask: Option<StructuredMask>) -> ClientUpdate {
        ClientUpdate {
            client_id: id,
            weights,
            n_samples: 10,
            loss_before: 1.0,
            loss_after: 0.5,
            staleness: 0,
            mask,
        }
    }

    use feddrl_nn::mask::StructuredMask;

    #[test]
    fn masked_average_with_full_masks_matches_weighted_average() {
        let a = update(0, vec![1.0, 2.0, 3.0, 4.0], None);
        let b = update(1, vec![5.0, 6.0, 7.0, 8.0], Some(StructuredMask::full(4)));
        let alphas = [0.25f32, 0.75];
        let global = vec![0.0f32; 4];
        let masked = masked_weighted_average(&global, &[a.clone(), b.clone()], &alphas);
        let plain = weighted_average(&[&a.weights, &b.weights], &alphas);
        // alphas sum to exactly 1.0 in f32, so the per-position mass
        // normalization divides by exactly 1 and the results coincide.
        assert_eq!(masked, plain);
    }

    #[test]
    fn masked_positions_average_only_over_their_trainers() {
        // Client 1 trained only the first two positions; positions 2-3 of
        // its vector are frozen at zero and must not vote.
        let full = update(0, vec![1.0, 1.0, 1.0, 1.0], None);
        let sub = update(
            1,
            vec![3.0, 3.0, 0.0, 0.0],
            Some(StructuredMask::from_keep(vec![true, true, false, false])),
        );
        let global = vec![9.0f32; 4];
        let avg = masked_weighted_average(&global, &[full, sub], &[0.5, 0.5]);
        // Positions 0-1: both vote, (0.5*1 + 0.5*3) / (0.5 + 0.5) = 2.
        // Positions 2-3: only the full client votes, 0.5*1 / 0.5 = 1 — the
        // sub-model's frozen zeros never drag the average toward zero.
        assert_eq!(avg, vec![2.0, 2.0, 1.0, 1.0]);
    }

    #[test]
    fn positions_nobody_trained_keep_the_global_value() {
        let mask = StructuredMask::from_keep(vec![true, false, false]);
        let a = update(0, vec![4.0, 0.0, 0.0], Some(mask.clone()));
        let b = update(1, vec![8.0, 0.0, 0.0], Some(mask));
        let global = vec![-1.0f32, -2.0, -3.0];
        let avg = masked_weighted_average(&global, &[a, b], &[0.5, 0.5]);
        assert_eq!(avg, vec![6.0, -2.0, -3.0]);
    }

    #[test]
    fn masked_average_skips_zero_alpha_updates() {
        // A zero-impact masked update contributes neither value nor mass:
        // its exclusive positions fall back to the global weights.
        let a = update(0, vec![1.0, 1.0], None);
        let b = update(
            1,
            vec![7.0, 0.0],
            Some(StructuredMask::from_keep(vec![true, false])),
        );
        let avg = masked_weighted_average(&[5.0, 5.0], &[a, b], &[0.0, 1.0]);
        assert_eq!(avg, vec![7.0, 5.0]);
    }

    /// Both sweeps leave the same bits on one, two and three threads — the
    /// explicit counts the public entry points would only pick on a box
    /// with that many cores — for sizes around the block boundary and
    /// pieces that end inside a block, with a zero-α client and dense,
    /// full-mask and sub-model updates mixed.
    #[test]
    fn every_thread_count_leaves_the_same_bits() {
        use feddrl_nn::rng::Rng64;
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        let mut rng = Rng64::new(22);
        for dim in [
            0,
            1,
            SWEEP_BLOCK - 1,
            SWEEP_BLOCK,
            SWEEP_BLOCK + 1,
            3 * SWEEP_BLOCK + 17,
        ] {
            let global: Vec<f32> = (0..dim).map(|_| rng.normal_f32(0.0, 1.0)).collect();
            let updates: Vec<ClientUpdate> = (0..5)
                .map(|c| {
                    let weights = (0..dim).map(|_| rng.normal_f32(0.0, 1.0)).collect();
                    let mask = match c % 3 {
                        0 => None,
                        1 => Some(StructuredMask::full(dim)),
                        _ => Some(StructuredMask::from_keep(
                            (0..dim).map(|_| rng.below(8) < 5).collect(),
                        )),
                    };
                    update(c, weights, mask)
                })
                .collect();
            let alphas = [0.3f32, 0.1, 0.0, 0.4, 0.2];
            let refs: Vec<&[f32]> = updates.iter().map(|u| u.weights.as_slice()).collect();
            let dense = bits(weighted_average_on(&refs, &alphas, 1));
            let masked = bits(masked_weighted_average_on(&global, &updates, &alphas, 1));
            for threads in [2, 3] {
                assert_eq!(
                    dense,
                    bits(weighted_average_on(&refs, &alphas, threads)),
                    "dense, dim {dim}, {threads} threads"
                );
                assert_eq!(
                    masked,
                    bits(masked_weighted_average_on(
                        &global, &updates, &alphas, threads
                    )),
                    "masked, dim {dim}, {threads} threads"
                );
            }
        }
    }

    /// The fan-out threshold sits between the workloads that must not
    /// spawn and the one that should.
    #[test]
    fn small_sweeps_stay_on_the_callers_thread() {
        assert_eq!(sweep_threads(10 * 21_220), 1, "paper_cluster_skew");
        assert_eq!(sweep_threads(2 * 529_930), 1, "net_bulk");
        assert_eq!(
            sweep_threads(16 * 2_108_426),
            parallel::max_threads(),
            "server_fig9"
        );
    }

    #[test]
    #[should_panic(expected = "mask length mismatch")]
    fn masked_average_rejects_ragged_masks() {
        let a = update(
            0,
            vec![1.0, 2.0],
            Some(StructuredMask::from_keep(vec![true])),
        );
        let _ = masked_weighted_average(&[0.0, 0.0], &[a], &[1.0]);
    }
}

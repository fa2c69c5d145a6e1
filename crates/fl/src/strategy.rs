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
//! allocated but the result. The three block loops are slice kernels of
//! [`feddrl_nn::simd`], which compiles each for the baseline target and for
//! AVX2 and picks at run time; both give the same bits. What callers — and
//! the golden fixtures and `fedbench --verify` hashes, which pin every bit
//! — may rely on:
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
use feddrl_nn::{parallel, simd};

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
/// block and, on the mask-aware path, the `mass` block beside it stay in L1
/// while every client's weights stream past once.
///
/// Measured on the 2-vCPU reference box at P = 2 108 426, K = 16, every
/// second client a 0.625 sub-model (best of 7, ms, range over seven runs in
/// an hour when the second vCPU was there to be had):
///
/// | block | masked, 1 thread | masked, 2 threads | dense, 1 | dense, 2 |
/// |---|---|---|---|---|
/// | 64 | 8.7–10.7 | 4.9–5.1 | 6.4–13.5 | 3.6–4.0 |
/// | 128 | 8.6–10.8 | 4.2–5.7 | 5.4–7.3 | 3.2–3.9 |
/// | 256 | 9.6–12.0 | 4.8–7.1 | 6.0–8.4 | 3.2–4.1 |
/// | 512 | 9.8–14.7 | 4.6–6.3 | 6.4–11.1 | 3.5–4.6 |
/// | 1 024 | 11.3–14.4 | 5.3–6.1 | 7.7–12.1 | 3.6–4.3 |
/// | 2 048 | 11.5–21.1 | 4.9–8.4 | 6.4–12.9 | 3.3–5.8 |
/// | 4 096 | 13.1–16.6 | 5.7–8.5 | 6.5–10.1 | 4.2–4.4 |
/// | 8 192 | 13.5–19.7 | 5.7–9.3 | 8.1–13.1 | 4.3–5.8 |
///
/// and in an hour when it was not (one thread, three runs): 512 9.0–9.9
/// masked, 5.6–6.2 dense; 2 048 11.2–11.8, 6.7–7.4; 8 192 12.1–12.6,
/// 7.3–7.8; 32 768 11.6–14.2, 7.2–8.3. While the block loops were scalar
/// the table was flat from 2 048 up and 8 192 was chosen; at vector width
/// the pass runs at what memory delivers and is flat from 64 to 512, a
/// fifth to a third slower from 2 048 up (plausibly: sixteen streams that
/// each advance a fraction of a page per turn keep the prefetchers on all
/// of them). 512 is the largest block on the flat part — the fewest kernel
/// calls — and output plus mass block are 4 KB.
const SWEEP_BLOCK: usize = 512;

/// Minimum work, in clients × positions, before the sweep is split over
/// threads.
///
/// Serial / two threads, µs, best of 7–200, block 512, range over three
/// runs in an hour when the second vCPU was there to be had:
///
/// | K × P | shape | dense | masked |
/// |---|---|---|---|
/// | 19 k | 2 × 9 610 | 2–3 / 34–36 | 6–8 / 30–38 |
/// | 96 k | 10 × 9 610 | 8–10 / 34–39 | 18–21 / 44–46 |
/// | 0.55 M | 16 × 34 186 | 61–65 / 70–74 | 112–130 / 95–105 |
/// | 1.05 M | 2 × 527 114 | 272–289 / 222–245 | 397–416 / 292–327 |
/// | 1.07 M | 16 × 66 954 | 145–165 / 123–136 | 201–283 / 176–201 |
/// | 2.1 M | 16 × 132 490 | 332–416 / 240–252 | 515–535 / 354–387 |
/// | 4.2 M | 16 × 263 562 | 706–739 / 455–553 | 1 026–1 166 / 689–814 |
/// | 8.4 M | 16 × 527 114 | 1 259–1 522 / 845–1 027 | 1 881–2 411 / 1 130–1 591 |
/// | 16.9 M | 16 × 1 054 218 | 2 734–3 501 / 1 839–2 026 | 4 241–4 797 / 2 526–3 084 |
/// | 33.7 M | 16 × 2 108 426 | 6 959–14 079 / 3 640–5 573 | 10 292–17 510 / 5 357–6 560 |
///
/// In an hour when it was not (four runs, block 8 192), two threads cost
/// the serial time plus a 25–50 µs spawn up to 8 M — 275–310 / 328–347 µs
/// dense at 2 × 527 114, 760–851 / 833–1 008 at 4.2 M — and tied from 16 M
/// up: one thread at vector width already takes most of what memory
/// delivers. The serial sweep is 1.3–2.5× faster than the scalar one this
/// threshold was first measured against, and on a good hour two threads
/// now win from 2²⁰ up (1.15–1.3× there, 1.5× from 2²²). The constant
/// stays at 2²²: between 2²⁰ and 2²² the win is 0.05–0.25 ms and the loss,
/// when the second vCPU is away, a fifth of the sweep. Of the `fedbench`
/// workloads only `server_fig9` (33.7 M) is above it; `net_bulk` (1.06 M),
/// `paper_cluster_skew` (212 k), `net_chatty` (5.5 k) and `fleet_scale`
/// (3.4 k) run the serial sweep and never spawn.
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

/// [`weighted_average`] on a thread count the caller picks — the seam the
/// bit-equality laws use to pin threaded = serial on any box.
#[doc(hidden)]
pub fn weighted_average_on(weights: &[&[f32]], alphas: &[f32], threads: usize) -> Vec<f32> {
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
            simd::add_scaled(out_block, a, &w[lo..hi]);
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
/// its client's mask drops never reaches either sum, whatever it holds
/// (module docs, "The aggregation sweep").
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

/// [`masked_weighted_average`] on a thread count the caller picks (see
/// [`weighted_average_on`]).
#[doc(hidden)]
pub fn masked_weighted_average_on(
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
            simd::add_vote(num, mass, a, &w[lo..hi], keep.map(|k| &k[lo..hi]));
        }
        simd::settle_votes(num, mass, &global[lo..hi]);
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

//! Property-based tests of the server's aggregation sweep (paper Eq. 4,
//! dense and mask-aware): bits, not tolerances. The blocked, threaded sweep
//! of `feddrl_fl::strategy` must equal a scalar per-position statement of
//! its contract — the loops it replaced, kept here as the reference.

use feddrl_repro::feddrl_fl::strategy::{masked_weighted_average_on, weighted_average_on};
use feddrl_repro::feddrl_nn::simd::for_each_instantiation;
use feddrl_repro::prelude::*;
use proptest::prelude::*;

/// `feddrl_fl::strategy`'s private `SWEEP_BLOCK`: the drawn sizes sit on
/// both sides of it. A different block there only moves the boundary these
/// cases cross, not what they assert.
const BLOCK: usize = 512;

/// The dense contract: position `p` starts at `+0.0` and adds `α_k · w_k[p]`
/// in client order, zero-α clients skipped.
fn reference_dense(weights: &[&[f32]], alphas: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; weights[0].len()];
    for (w, &a) in weights.iter().zip(alphas) {
        if a == 0.0 {
            continue;
        }
        for p in 0..out.len() {
            out[p] += a * w[p];
        }
    }
    out
}

/// The mask-aware contract: numerator and mass per position, in client
/// order, over the clients that kept it; the global value where nobody did.
fn reference_masked(global: &[f32], updates: &[ClientUpdate], alphas: &[f32]) -> Vec<f32> {
    let mut num = vec![0.0f32; global.len()];
    let mut mass = vec![0.0f32; global.len()];
    for (u, &a) in updates.iter().zip(alphas) {
        if a == 0.0 {
            continue;
        }
        for p in 0..global.len() {
            if u.mask.as_ref().is_none_or(|m| m.keeps(p)) {
                num[p] += a * u.weights[p];
                mass[p] += a;
            }
        }
    }
    (0..global.len())
        .map(|p| {
            if mass[p] > 0.0 {
                num[p] / mass[p]
            } else {
                global[p]
            }
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Normal values with exact zeros and `-0.0` planted: the sign of a sum of
/// zeros is part of the contract.
fn planted(dim: usize, rng: &mut Rng64) -> Vec<f32> {
    (0..dim)
        .map(|_| match rng.below(8) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.normal_f32(0.0, 1.0),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Both sweeps are the reference bit for bit — as the CPU dispatches
    /// their block kernels and pinned to the baseline bodies, on one, two and
    /// three threads: K from 1 to 8, sizes 0, 1, either side of a block and
    /// several blocks, zero alphas, planted `-0.0`, `∞`/`NaN` where a mask
    /// drops the position or α is zero (never in the result), and — in one
    /// case of three — a position every client's mask drops, which keeps the
    /// global value.
    #[test]
    fn sweeps_match_the_per_position_reference_bit_for_bit(
        seed in 0u64..10_000,
        k in 1usize..9,
        size in 0usize..8,
        extra in 0usize..700,
        orphan in 0usize..3,
    ) {
        let mut rng = Rng64::new(seed);
        let dim = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, extra, 2 * BLOCK + extra, 3 * BLOCK + extra][size];
        let orphan = (orphan == 0 && dim > 0).then(|| rng.below(dim));
        let global = planted(dim, &mut rng);
        let alphas: Vec<f32> = (0..k)
            .map(|_| if rng.below(4) == 0 { 0.0 } else { rng.uniform(0.01, 1.0) })
            .collect();
        let non_finite = |rng: &mut Rng64| if rng.below(2) == 0 { f32::NAN } else { f32::INFINITY };

        let updates: Vec<ClientUpdate> = (0..k)
            .map(|c| {
                let mut weights = planted(dim, &mut rng);
                // With an orphan position every client carries a partial
                // mask; otherwise dense, full-mask and sub-model updates mix.
                let mask = match (orphan, rng.below(3)) {
                    (None, 0) => None,
                    (None, 1) => Some(StructuredMask::full(dim)),
                    _ => {
                        let mut keep: Vec<bool> = (0..dim).map(|_| rng.below(8) < 5).collect();
                        if let Some(p) = orphan {
                            keep[p] = false;
                        }
                        for (w, &kept) in weights.iter_mut().zip(&keep) {
                            if !kept && rng.below(16) == 0 {
                                *w = non_finite(&mut rng);
                            }
                        }
                        Some(StructuredMask::from_keep(keep))
                    }
                };
                if alphas[c] == 0.0 && dim > 0 {
                    weights[rng.below(dim)] = non_finite(&mut rng);
                }
                ClientUpdate {
                    client_id: c,
                    weights,
                    n_samples: 1,
                    loss_before: 1.0,
                    loss_after: 0.5,
                    staleness: 0,
                    mask,
                }
            })
            .collect();

        let got = masked_weighted_average(&global, &updates, &alphas);
        let want_masked = bits(&reference_masked(&global, &updates, &alphas));
        prop_assert_eq!(bits(&got), &want_masked[..], "masked, dim {}", dim);
        prop_assert!(got.iter().all(|v| v.is_finite()), "a dropped or zero-α value leaked");
        if let Some(p) = orphan {
            prop_assert_eq!(got[p].to_bits(), global[p].to_bits(), "orphan position");
        }

        // The dense sweep reads every weight of a client with α ≠ 0, so it
        // gets the finite vectors: the masked ones with their mask applied.
        let dense: Vec<Vec<f32>> = updates
            .iter()
            .map(|u| {
                let mut w = u.weights.clone();
                if let Some(m) = &u.mask {
                    m.apply(&mut w);
                }
                w
            })
            .collect();
        let refs: Vec<&[f32]> = dense.iter().map(Vec::as_slice).collect();
        let want_dense = bits(&reference_dense(&refs, &alphas));
        prop_assert_eq!(bits(&weighted_average(&refs, &alphas)), &want_dense[..], "dense, dim {}", dim);

        for_each_instantiation(|which| {
            for threads in 1..=3 {
                let got = masked_weighted_average_on(&global, &updates, &alphas, threads);
                prop_assert_eq!(bits(&got), &want_masked[..], "{} masked, dim {}, {} threads", which, dim, threads);
                let got = weighted_average_on(&refs, &alphas, threads);
                prop_assert_eq!(bits(&got), &want_dense[..], "{} dense, dim {}, {} threads", which, dim, threads);
            }
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A derived mask applied to a flat vector, applied to a model in place,
    /// and read back position by position or as a slice are one mask —
    /// non-finite values at dropped positions zeroed like any other — and
    /// the kept count is the number of kept positions.
    #[test]
    fn derived_masks_apply_the_positions_they_report(
        seed in 0u64..10_000,
        hidden in 1usize..40,
        second in 0usize..12,
        ratio in 0.01f64..1.0,
    ) {
        let hidden = if second == 0 { vec![hidden] } else { vec![hidden, second] };
        let mut model = ModelSpec::Mlp { in_dim: 7, hidden, out_dim: 3 }.build(seed);
        let mask = dispatch_mask(&model, seed, 3, 5, ratio);
        prop_assert_eq!(mask.len(), model.param_count());
        prop_assert_eq!(mask.kept(), (0..mask.len()).filter(|&p| mask.keeps(p)).count());
        prop_assert!((0..mask.len()).all(|p| mask.as_slice()[p] == mask.keeps(p)));

        let mut before = model.flat_params();
        let mut rng = Rng64::new(seed);
        for v in [f32::NAN, f32::INFINITY, -0.0] {
            let at = rng.below(before.len());
            before[at] = v;
        }
        model.set_flat_params(&before);
        let want: Vec<f32> = (0..before.len())
            .map(|p| if mask.keeps(p) { before[p] } else { 0.0 })
            .collect();
        let mut flat = before.clone();
        mask.apply(&mut flat);
        mask.apply_to_model(&mut model);
        prop_assert_eq!(bits(&flat), bits(&want));
        prop_assert_eq!(bits(&model.flat_params()), bits(&want));
    }
}

//! Property-based tests of the numeric substrate: tensor algebra laws,
//! softmax/simplex invariants, and model flat-parameter roundtrips.

use feddrl_repro::prelude::*;
use proptest::prelude::*;

fn arb_vec(len: usize) -> impl proptest::strategy::Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// softmax output is always a probability simplex point, regardless of
    /// input scale.
    #[test]
    fn softmax_is_on_simplex(xs in proptest::collection::vec(-100.0f32..100.0, 1..32)) {
        let s = softmax(&xs);
        prop_assert_eq!(s.len(), xs.len());
        let sum: f32 = s.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(s.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    /// softmax is shift-invariant: softmax(x) == softmax(x + c).
    #[test]
    fn softmax_shift_invariant(xs in proptest::collection::vec(-5.0f32..5.0, 2..16), c in -10.0f32..10.0) {
        let a = softmax(&xs);
        let shifted: Vec<f32> = xs.iter().map(|&x| x + c).collect();
        let b = softmax(&shifted);
        for (pa, pb) in a.iter().zip(b.iter()) {
            prop_assert!((pa - pb).abs() < 1e-4);
        }
    }

    /// Matmul distributes over addition: (A+B)C == AC + BC.
    #[test]
    fn matmul_distributes(seed in 0u64..500) {
        let mut rng = Rng64::new(seed);
        let a = Tensor::randn(&[4, 5], 0.0, 1.0, &mut rng);
        let b = Tensor::randn(&[4, 5], 0.0, 1.0, &mut rng);
        let c = Tensor::randn(&[5, 3], 0.0, 1.0, &mut rng);
        let lhs = a.add(&b).matmul(&c);
        let mut rhs = a.matmul(&c);
        rhs.add_assign(&b.matmul(&c));
        for (x, y) in lhs.data().iter().zip(rhs.data().iter()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// Transpose reverses matmul: (AB)^T == B^T A^T.
    #[test]
    fn matmul_transpose_law(seed in 0u64..500) {
        let mut rng = Rng64::new(seed);
        let a = Tensor::randn(&[3, 4], 0.0, 1.0, &mut rng);
        let b = Tensor::randn(&[4, 2], 0.0, 1.0, &mut rng);
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        for (x, y) in lhs.data().iter().zip(rhs.data().iter()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// Flat-parameter export/import is the identity on models.
    #[test]
    fn flat_params_roundtrip(seed in 0u64..500) {
        let spec = ModelSpec::Mlp { in_dim: 6, hidden: vec![8, 8], out_dim: 4 };
        let model = spec.build(seed);
        let flat = model.flat_params();
        let mut other = spec.build(seed.wrapping_add(1));
        other.set_flat_params(&flat);
        prop_assert_eq!(other.flat_params(), flat);
    }

    /// Weighted aggregation with simplex weights is a convex combination:
    /// the result is bounded by the per-coordinate min/max of the inputs.
    #[test]
    fn aggregation_is_convex(
        w1 in arb_vec(16),
        w2 in arb_vec(16),
        alpha in 0.0f32..1.0,
    ) {
        let alphas = vec![alpha, 1.0 - alpha];
        let out = weighted_average(&[w1.as_slice(), w2.as_slice()], &alphas);
        for ((o, a), b) in out.iter().zip(w1.iter()).zip(w2.iter()) {
            let lo = a.min(*b) - 1e-4;
            let hi = a.max(*b) + 1e-4;
            prop_assert!((lo..=hi).contains(o), "{o} outside [{lo}, {hi}]");
        }
    }

    /// normalize_factors always lands on the simplex for positive inputs.
    #[test]
    fn normalize_factors_simplex(raw in proptest::collection::vec(0.001f32..1000.0, 1..20)) {
        let alpha = normalize_factors(&raw);
        let sum: f32 = alpha.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
    }

    /// The reward is monotone: uniformly lower losses never reduce it.
    #[test]
    fn reward_monotone_in_losses(
        losses in proptest::collection::vec(0.1f32..5.0, 2..10),
        drop in 0.01f32..0.09,
    ) {
        let better: Vec<f32> = losses.iter().map(|&l| l - drop).collect();
        let r_before = reward_from_losses(&losses, 1.0);
        let r_after = reward_from_losses(&better, 1.0);
        prop_assert!(r_after >= r_before, "uniform improvement lowered reward");
    }

    /// Impact factors sampled from any valid (mu, sigma) action are a
    /// probability distribution.
    #[test]
    fn sampled_impact_factors_valid(
        mus in proptest::collection::vec(-1.0f32..1.0, 2..8),
        seed in 0u64..300,
    ) {
        let k = mus.len();
        let mut action = mus.clone();
        action.extend(std::iter::repeat_n(0.05f32, k));
        let mut rng = Rng64::new(seed);
        let alpha = sample_impact_factors(&action, &mut rng);
        prop_assert_eq!(alpha.len(), k);
        let sum: f32 = alpha.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
    }
}

// ---------------------------------------------------------------------------
// Kernel contract: bits, not tolerances
// ---------------------------------------------------------------------------

/// Scalar statement of the product kernels' contract (`feddrl_nn::tensor`
/// module doc): output `(r, c)` starts at `+0.0` and adds `a(r, kk) ·
/// b(kk, c)` in increasing `kk`; `skip_zero` drops the terms whose left
/// factor is zero.
fn reference_product(
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
    (m, k, n): (usize, usize, usize),
    skip_zero: bool,
) -> Vec<f32> {
    let mut out = Vec::with_capacity(m * n);
    for r in 0..m {
        for c in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                let a_v = a(r, kk);
                if skip_zero && a_v == 0.0 {
                    continue;
                }
                acc += a_v * b(kk, c);
            }
            out.push(acc);
        }
    }
    out
}

/// Bit equality, except that any NaN equals any NaN: which payload a NaN
/// carries out of an add is the one thing the compiler may choose.
fn same_bits(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
}

/// Normal entries with exact zeros and `-0.0` planted: the values the zero
/// skip and the sign of an all-skipped sum depend on.
fn planted(shape: &[usize], rng: &mut Rng64) -> Tensor {
    let mut t = Tensor::randn(shape, 0.0, 1.0, rng);
    for v in t.data_mut() {
        match rng.below(8) {
            0 | 1 => *v = 0.0,
            2 => *v = -0.0,
            _ => {}
        }
    }
    t
}

/// Column counts on both sides of the 8-lane, the 32-column block and the
/// two-block boundary, plus the paper model's 100; the law below draws one
/// of these two times in three.
const EDGE_COLS: [usize; 9] = [1, 7, 8, 9, 31, 32, 33, 64, 100];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `matmul`, `t_matmul` and `matmul_t` are the scalar reference bit for
    /// bit, in both instantiations — across every lane and column-block
    /// boundary and tail, fewer rows than lanes, an empty inner dimension,
    /// with `±0.0` on the left and, in four cases out of five, a non-finite
    /// entry on the right (where `0·∞` is skipped by the first two and is
    /// `NaN` in the third) or on the left (where it meets the zero-padded
    /// lanes of the tail panel).
    #[test]
    fn products_match_the_scalar_reference_bit_for_bit(
        seed in 0u64..10_000,
        m in 1usize..40,
        k in 0usize..150,
        n in 1usize..140,
        edge in 0usize..27,
        non_finite in 0usize..5,
    ) {
        let mut rng = Rng64::new(seed);
        let n = EDGE_COLS.get(edge).copied().unwrap_or(n);
        let plant = |t: &mut Tensor, rng: &mut Rng64| {
            if t.numel() == 0 {
                return;
            }
            let at = rng.below(t.numel());
            t.data_mut()[at] = if non_finite % 2 == 1 { f32::INFINITY } else { f32::NAN };
        };
        let (left, right) = (non_finite > 2, (1..=2).contains(&non_finite));
        let dims = (m, k, n);

        let mut a = planted(&[m, k], &mut rng);
        let mut b = planted(&[k, n], &mut rng);
        let mut a_t = planted(&[k, m], &mut rng);
        let mut b_t = planted(&[n, k], &mut rng);
        for (t, planted_here) in [(&mut a, left), (&mut a_t, left), (&mut b, right), (&mut b_t, right)] {
            if planted_here {
                plant(t, &mut rng);
            }
        }
        let want = reference_product(|r, kk| a.at(r, kk), |kk, c| b.at(kk, c), dims, true);
        let want_t = reference_product(|r, kk| a_t.at(kk, r), |kk, c| b.at(kk, c), dims, true);
        let want_mt = reference_product(|r, kk| a.at(r, kk), |kk, c| b_t.at(c, kk), dims, false);

        // The binary holds every kernel twice; a law has to name both.
        feddrl_repro::feddrl_nn::simd::for_each_instantiation(|which| {
            prop_assert!(same_bits(a.matmul(&b).data(), &want), "{which} matmul {dims:?}");
            prop_assert!(same_bits(a_t.t_matmul(&b).data(), &want_t), "{which} t_matmul {dims:?}");
            prop_assert!(same_bits(a.matmul_t(&b_t).data(), &want_mt), "{which} matmul_t {dims:?}");
        });
    }
}

/// The row kernel's packed paths are the scalar reference bit for bit in
/// both instantiations: a right-hand matrix past `MAX_BLOCKED_RHS`, copied
/// one 32-column panel at a time, and narrow outputs through the
/// zero-padded tail panel — `n` of 1, 10, 20, 33, 59, 100 and 1 034 pad
/// their tails to each width, 8, 16, 24 and 32 lanes. Seventeen rows carry each product past the threading
/// threshold, so the bands pack their own panels; `∞` and `NaN` sit on
/// both sides, where a non-finite left factor meets every padded lane.
#[test]
fn packed_panels_match_the_scalar_reference_bit_for_bit() {
    use feddrl_repro::feddrl_nn::simd::{for_each_instantiation, MAX_BLOCKED_RHS};
    let m = 17;
    for (seed, n) in [1usize, 10, 20, 33, 59, 100, 1_034].into_iter().enumerate() {
        let k = MAX_BLOCKED_RHS / n + 1;
        let mut rng = Rng64::new(seed as u64);
        let mut a = planted(&[m, k], &mut rng);
        let mut b = planted(&[k, n], &mut rng);
        for t in [&mut a, &mut b] {
            for v in [f32::INFINITY, f32::NAN] {
                let at = rng.below(t.numel());
                t.data_mut()[at] = v;
            }
        }
        let b_t = b.transpose();
        let dims = (m, k, n);
        let want = reference_product(|r, kk| a.at(r, kk), |kk, c| b.at(kk, c), dims, true);
        let want_mt = reference_product(|r, kk| a.at(r, kk), |kk, c| b.at(kk, c), dims, false);
        for_each_instantiation(|which| {
            assert!(
                same_bits(a.matmul(&b).data(), &want),
                "{which} matmul {dims:?}"
            );
            assert!(
                same_bits(a.matmul_t(&b_t).data(), &want_mt),
                "{which} matmul_t {dims:?}"
            );
        });
    }
}

/// The row-pair tile decides the zero skip per row. Two rows share every
/// load of `b`, whose row 3 holds `∞` and `NaN`; one row of each pair has
/// a `0.0` or `-0.0` left factor there and the other a nonzero one. The
/// skipping row stays finite, the other turns non-finite in every column,
/// and both are the scalar reference — in either row of the pair, over a
/// full 32-column block and over each tail width.
#[test]
fn a_row_pair_skips_zero_terms_row_by_row() {
    use feddrl_repro::feddrl_nn::simd::for_each_instantiation;
    let (m, k) = (4, 7);
    for n in [8, 16, 24, 29, 32, 40, 64, 100] {
        let mut rng = Rng64::new(n as u64);
        let mut a = Tensor::randn(&[m, k], 0.0, 1.0, &mut rng);
        let mut b = Tensor::randn(&[k, n], 0.0, 1.0, &mut rng);
        for c in 0..n {
            *b.at_mut(3, c) = if c % 2 == 0 { f32::INFINITY } else { f32::NAN };
        }
        // Rows 0 and 3 skip; rows 1 and 2 do not. Pairs (0, 1) and (2, 3).
        (*a.at_mut(0, 3), *a.at_mut(3, 3)) = (0.0, -0.0);
        let dims = (m, k, n);
        let a_t = a.transpose();
        let want = reference_product(|r, kk| a.at(r, kk), |kk, c| b.at(kk, c), dims, true);
        for_each_instantiation(|which| {
            for got in [a.matmul(&b), a_t.t_matmul(&b)] {
                assert!(same_bits(got.data(), &want), "{which} {dims:?}");
                for r in 0..m {
                    let finite = got.row(r).iter().all(|v| v.is_finite());
                    assert_eq!(finite, r == 0 || r == 3, "{which} {dims:?} row {r}");
                }
            }
        });
    }
}

/// An odd `m` leaves the last row of a band to the one-row block: every
/// odd row count up to 11, over a full block and then a tail of each
/// width (8, 16, 24 and 32 lanes), in all three products.
#[test]
fn odd_row_counts_end_in_a_one_row_block() {
    use feddrl_repro::feddrl_nn::simd::for_each_instantiation;
    let k = 13;
    for (seed, n) in [1, 9, 17, 25, 33, 41, 49, 57].into_iter().enumerate() {
        for m in [1, 3, 5, 7, 9, 11] {
            let mut rng = Rng64::new((seed * 16 + m) as u64);
            let a = planted(&[m, k], &mut rng);
            let b = planted(&[k, n], &mut rng);
            let (a_t, b_t) = (a.transpose(), b.transpose());
            let dims = (m, k, n);
            let want = reference_product(|r, kk| a.at(r, kk), |kk, c| b.at(kk, c), dims, true);
            let want_mt = reference_product(|r, kk| a.at(r, kk), |kk, c| b.at(kk, c), dims, false);
            for_each_instantiation(|which| {
                assert!(
                    same_bits(a.matmul(&b).data(), &want),
                    "{which} matmul {dims:?}"
                );
                assert!(
                    same_bits(a_t.t_matmul(&b).data(), &want),
                    "{which} t_matmul {dims:?}"
                );
                assert!(
                    same_bits(a.matmul_t(&b_t).data(), &want_mt),
                    "{which} matmul_t {dims:?}"
                );
            });
        }
    }
}

/// A threaded product whose row bands each hold an odd number of rows:
/// 21 rows over three threads are bands of 7, each three pairs and a lone
/// row, with `b` read in place (`k · n` under `MAX_BLOCKED_RHS`) and a
/// 16-lane tail. Serial and threaded are the scalar reference bit for bit.
#[test]
fn threaded_bands_of_odd_height_match_the_scalar_reference() {
    use feddrl_repro::feddrl_nn::parallel::set_max_threads;
    use feddrl_repro::feddrl_nn::simd::{for_each_instantiation, MAX_BLOCKED_RHS};
    let (m, k, n) = (21, 500, 400);
    assert!(k * n <= MAX_BLOCKED_RHS && m * k * n >= 1 << 22);
    let mut rng = Rng64::new(21);
    let a = planted(&[m, k], &mut rng);
    let b = planted(&[k, n], &mut rng);
    let want = reference_product(|r, kk| a.at(r, kk), |kk, c| b.at(kk, c), (m, k, n), true);
    for threads in [1, 3] {
        set_max_threads(threads);
        for_each_instantiation(|which| {
            assert!(
                same_bits(a.matmul(&b).data(), &want),
                "{which}, {threads} threads"
            );
        });
    }
    set_max_threads(0);
}

/// `transpose` is the naive double loop for every small shape — empty ones,
/// every remainder of the eight-row bands — and for the shapes training
/// transposes (`W₂` of the paper model, its mirror, one long row).
#[test]
fn transpose_matches_the_naive_double_loop() {
    let small = (0..=20).flat_map(|m| (0..=20).map(move |n| (m, n)));
    for (m, n) in small.chain([(128, 100), (100, 128), (1, 1_000)]) {
        let t = Tensor::from_vec(&[m, n], (0..m * n).map(|i| i as f32).collect());
        let got = t.transpose();
        assert_eq!(got.shape(), [n, m]);
        for r in 0..m {
            for c in 0..n {
                assert_eq!(got.at(c, r), t.at(r, c), "{m}×{n} at ({r}, {c})");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `backward_params` accumulates the parameter gradients `backward`
    /// does, bit for bit, on an MLP and on a conv stack — twice in a row
    /// without `zero_grad`, so accumulation is covered as well.
    #[test]
    fn backward_params_leaves_the_gradients_backward_leaves(seed in 0u64..1_000) {
        let mut rng = Rng64::new(seed);
        let mlp = ModelSpec::Mlp { in_dim: 9, hidden: vec![33, 7], out_dim: 5 }.build(seed);
        let conv = Sequential::new()
            .push(Conv2d::new(2, 6, 6, 3, 3, 1, 1, &mut rng))
            .push(Activation::relu())
            .push(MaxPool2d::new(3, 6, 6, 2, 2))
            .push(Dense::new(27, 4, Init::HeNormal, &mut rng));
        for (model, in_dim) in [(mlp, 9), (conv, 72)] {
            let (mut full, mut params_only) = (model.clone(), model);
            for _ in 0..2 {
                let x = Tensor::randn(&[6, in_dim], 0.0, 1.0, &mut rng);
                let grad = full.forward(&x, true).map(|v| v - 0.5);
                params_only.forward(&x, true);
                full.backward(&grad);
                params_only.backward_params(&grad);
                prop_assert!(same_bits(&params_only.flat_grads(), &full.flat_grads()));
            }
        }
    }
}

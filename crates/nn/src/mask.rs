//! Structured sub-model masks for adaptive dropout.
//!
//! "Efficient Federated Learning with Heterogeneous Data and Adaptive
//! Dropout" (arXiv:2507.10430) has pressured devices train a *masked
//! sub-model* — whole hidden units removed — whose update still aggregates
//! into the full model. [`StructuredMask`] is that mask over a
//! [`Sequential`]'s flat parameter vector: for each masked hidden unit it
//! covers the unit's incoming weight column, its bias, and its outgoing
//! weight row in the next dense layer, so zeroing the masked positions is
//! *exactly* equivalent to deleting the unit from the network (its
//! activation and every gradient through it vanish identically).
//!
//! Masks are structured per maskable layer (a dense layer followed — up to
//! parameter-free layers — by another dense consuming its features), drawn
//! from a caller-provided RNG stream so per-`(round, client)` masks
//! reproduce bit-for-bit. A ratio-1 mask keeps everything and is
//! recognized by [`StructuredMask::is_full`], letting callers skip the
//! masked code path entirely — the byte-identity guarantee the
//! fleet-dynamics property suite pins.
//!
//! **Row layout.** A dense layer stores its weights `[in, out]` row-major
//! with the bias behind them, so a dropped unit `j` is one position in each
//! of `in + 1` consecutive `out`-long rows (its incoming column and its
//! bias) and one whole row of the next layer's weights (its outgoing row).
//! [`StructuredMask::derive`] therefore writes the mask by rows: the
//! `out`-long unit pattern copied `in + 1` times, then one `fill(false)`
//! per dropped outgoing row, and the kept positions counted once at the
//! end — at P = 2.1 M 0.5 ms (0.37 of it the count) where setting the
//! same positions one strided byte at a time took 2.7–3.4 ms, on the
//! client and again on the server that re-derives the mask of every
//! `MaskedUpdate`.

use crate::model::Sequential;
use crate::rng::Rng64;

/// A keep/drop mask over a model's flat parameter vector, aligned with
/// [`Sequential::flat_params`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructuredMask {
    keep: Vec<bool>,
    kept: usize,
}

/// A dense layer's placement inside the flat parameter vector.
struct DenseSeg {
    /// Flat offset of the layer's weight matrix (bias follows it).
    offset: usize,
    in_dim: usize,
    out_dim: usize,
    /// Whether only parameter-free layers sit between this dense and the
    /// previous one (i.e. the previous dense's features feed it directly).
    directly_fed: bool,
}

fn dense_segments(model: &Sequential) -> Vec<DenseSeg> {
    let mut segs = Vec::new();
    let mut offset = 0;
    let mut gap_params = 0usize;
    for layer in model.layers() {
        if let Some((in_dim, out_dim)) = layer.io_dims() {
            segs.push(DenseSeg {
                offset,
                in_dim,
                out_dim,
                directly_fed: gap_params == 0,
            });
            gap_params = 0;
        } else {
            gap_params += layer.param_count();
        }
        offset += layer.param_count();
    }
    segs
}

impl StructuredMask {
    /// The all-keep mask over `param_count` positions.
    pub fn full(param_count: usize) -> Self {
        Self {
            keep: vec![true; param_count],
            kept: param_count,
        }
    }

    /// A mask from an explicit per-position keep vector. Escape hatch for
    /// custom masking schemes and precise aggregation tests;
    /// [`StructuredMask::derive`] is the structured whole-unit path.
    pub fn from_keep(keep: Vec<bool>) -> Self {
        let kept = keep.iter().filter(|&&k| k).count();
        Self { keep, kept }
    }

    /// Draw a mask keeping `keep_ratio` of each maskable layer's hidden
    /// units (at least one per layer), consuming `rng` deterministically.
    ///
    /// Maskable units are the outputs of a dense layer that directly feeds
    /// another dense layer (only parameter-free layers such as activations
    /// in between, and matching dimensions). Models with no such pair (e.g.
    /// single-layer heads) yield the full mask. `keep_ratio = 1` is the full
    /// mask by construction, bit-identical to untrained-through code paths.
    ///
    /// # Panics
    /// Panics unless `keep_ratio` is in `(0, 1]`.
    pub fn derive(model: &Sequential, keep_ratio: f64, rng: &mut Rng64) -> Self {
        assert!(
            keep_ratio.is_finite() && 0.0 < keep_ratio && keep_ratio <= 1.0,
            "keep_ratio must be in (0, 1], got {keep_ratio}"
        );
        let mut keep = vec![true; model.param_count()];
        let mut dropped_rows = Vec::new();
        let segs = dense_segments(model);
        for pair in segs.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            if !(b.directly_fed && a.out_dim == b.in_dim) {
                continue;
            }
            let keep_units = ((a.out_dim as f64 * keep_ratio).ceil() as usize).clamp(1, a.out_dim);
            let drop_units = a.out_dim - keep_units;
            if drop_units == 0 {
                continue;
            }
            let mut units = vec![true; a.out_dim];
            for j in rng.sample_indices(a.out_dim, drop_units) {
                units[j] = false;
                // Outgoing row j of b's weights [in, out].
                dropped_rows.push(b.offset + j * b.out_dim..b.offset + (j + 1) * b.out_dim);
            }
            // The incoming columns of a's weights [in, out] (row-major)
            // and a's bias: `in + 1` rows, each the unit pattern.
            let rows = &mut keep[a.offset..a.offset + (a.in_dim + 1) * a.out_dim];
            for row in rows.chunks_exact_mut(a.out_dim) {
                row.copy_from_slice(&units);
            }
        }
        // After every column pattern: in a chain of three dense layers the
        // middle one's weights take rows from one pair and columns from
        // the next, and a copy would put a dropped row back.
        for row in dropped_rows {
            keep[row].fill(false);
        }
        Self::from_keep(keep)
    }

    /// Whether position `p` of the flat vector is kept (trained and
    /// aggregated).
    pub fn keeps(&self, p: usize) -> bool {
        self.keep[p]
    }

    /// The keep flags of every position, in flat-vector order: what a loop
    /// over many positions zips over, where [`StructuredMask::keeps`]
    /// would pay a bounds check per parameter.
    pub fn as_slice(&self) -> &[bool] {
        &self.keep
    }

    /// Number of positions the mask covers (the model's parameter count).
    pub fn len(&self) -> usize {
        self.keep.len()
    }

    /// Whether the mask covers zero positions.
    pub fn is_empty(&self) -> bool {
        self.keep.is_empty()
    }

    /// Number of kept positions.
    pub fn kept(&self) -> usize {
        self.kept
    }

    /// Fraction of parameters kept, in `(0, 1]` (1 on an empty mask).
    pub fn keep_fraction(&self) -> f64 {
        if self.keep.is_empty() {
            1.0
        } else {
            self.kept as f64 / self.keep.len() as f64
        }
    }

    /// Whether every position is kept — the fast path that makes ratio-1
    /// masking byte-identical to no masking at all.
    pub fn is_full(&self) -> bool {
        self.kept == self.keep.len()
    }

    /// Zero the masked positions of `flat` (deleting the masked units from
    /// a parameter vector of matching layout).
    ///
    /// # Panics
    /// Panics if `flat` length mismatches the mask.
    pub fn apply(&self, flat: &mut [f32]) {
        assert_eq!(flat.len(), self.keep.len(), "mask/vector length mismatch");
        zero_dropped(&self.keep, flat);
    }

    /// [`StructuredMask::apply`] on the parameters a model holds, in place:
    /// what masked local training runs after every optimizer step, without
    /// the round trip through a flat copy.
    ///
    /// # Panics
    /// Panics if the model's parameter count mismatches the mask.
    pub fn apply_to_model(&self, model: &mut Sequential) {
        assert_eq!(
            model.param_count(),
            self.keep.len(),
            "mask/model length mismatch"
        );
        model.visit_params(|offset, p, _| {
            zero_dropped(&self.keep[offset..offset + p.numel()], p.data_mut());
        });
    }
}

fn zero_dropped(keep: &[bool], weights: &mut [f32]) {
    for (w, &k) in weights.iter_mut().zip(keep) {
        if !k {
            *w = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::layers::{Activation, Dense, Layer};
    use crate::tensor::Tensor;

    fn mlp(rng: &mut Rng64) -> Sequential {
        Sequential::new()
            .push(Dense::new(6, 10, Init::HeNormal, rng))
            .push(Activation::leaky_relu())
            .push(Dense::new(10, 4, Init::XavierUniform, rng))
    }

    #[test]
    fn ratio_one_is_the_full_mask() {
        let mut rng = Rng64::new(1);
        let model = mlp(&mut rng);
        let mask = StructuredMask::derive(&model, 1.0, &mut rng);
        assert!(mask.is_full());
        assert_eq!(mask.keep_fraction(), 1.0);
        assert_eq!(mask.kept(), model.param_count());
        let mut flat = model.flat_params();
        let before = flat.clone();
        mask.apply(&mut flat);
        assert_eq!(flat, before, "full mask must not touch a single byte");
    }

    #[test]
    fn derivation_is_deterministic_and_ratio_monotone() {
        let mut rng = Rng64::new(2);
        let model = mlp(&mut rng);
        let m1 = StructuredMask::derive(&model, 0.5, &mut Rng64::new(77));
        let m2 = StructuredMask::derive(&model, 0.5, &mut Rng64::new(77));
        assert_eq!(m1, m2);
        let mut prev = 0;
        for ratio in [0.2, 0.5, 0.8, 1.0] {
            let kept = StructuredMask::derive(&model, ratio, &mut Rng64::new(9)).kept();
            assert!(kept >= prev, "kept count not monotone in ratio");
            prev = kept;
        }
        assert_eq!(prev, model.param_count());
    }

    #[test]
    fn masked_positions_form_whole_units() {
        let mut rng = Rng64::new(3);
        let model = mlp(&mut rng);
        let mask = StructuredMask::derive(&model, 0.5, &mut Rng64::new(5));
        assert!(!mask.is_full());
        // Layout: W1 [6,10], b1 [10], W2 [10,4], b2 [4].
        let (w1, b1, w2) = (0, 60, 70);
        let masked_units: Vec<usize> = (0..10).filter(|&j| !mask.keeps(b1 + j)).collect();
        assert_eq!(masked_units.len(), 5, "ratio 0.5 over 10 units");
        for j in 0..10 {
            let dropped = masked_units.contains(&j);
            for i in 0..6 {
                assert_eq!(mask.keeps(w1 + i * 10 + j), !dropped, "col {j} row {i}");
            }
            assert_eq!(mask.keeps(b1 + j), !dropped, "bias {j}");
            for k in 0..4 {
                assert_eq!(mask.keeps(w2 + j * 4 + k), !dropped, "row {j} col {k}");
            }
        }
        // The output layer's biases are never maskable.
        for k in 0..4 {
            assert!(mask.keeps(70 + 40 + k));
        }
        assert_eq!(
            mask.kept(),
            model.param_count() - 5 * (6 + 1 + 4),
            "each masked unit must cost exactly in+1+out scalars"
        );
    }

    #[test]
    fn applying_the_mask_deletes_the_units_from_the_network() {
        // Forward of the masked model must be identical to a model whose
        // masked hidden activations are forced to zero: structural removal,
        // not mere perturbation.
        let mut rng = Rng64::new(4);
        let model = mlp(&mut rng);
        let mask = StructuredMask::derive(&model, 0.4, &mut Rng64::new(11));
        let mut masked = model.clone();
        let mut flat = masked.flat_params();
        mask.apply(&mut flat);
        masked.set_flat_params(&flat);
        let mut in_place = model.clone();
        mask.apply_to_model(&mut in_place);
        assert_eq!(in_place.flat_params(), flat, "in-place apply diverged");
        let x = Tensor::randn(&[3, 6], 0.0, 1.0, &mut rng);
        let y = masked.forward(&x, false);
        // Recompute manually: masked units contribute nothing.
        let b1 = 60;
        let live: Vec<usize> = (0..10).filter(|&j| mask.keeps(b1 + j)).collect();
        assert!(!live.is_empty() && live.len() < 10);
        let w = masked.flat_params();
        for r in 0..3 {
            for k in 0..4 {
                let mut acc = w[70 + 40 + k]; // output bias
                for &j in &live {
                    let mut h = w[b1 + j];
                    for i in 0..6 {
                        h += x.at(r, i) * w[i * 10 + j];
                    }
                    // leaky_relu as used by Activation::leaky_relu()
                    let h = if h > 0.0 { h } else { 0.01 * h };
                    acc += h * w[70 + j * 4 + k];
                }
                assert!(
                    (y.at(r, k) - acc).abs() < 1e-5,
                    "masked forward diverged at ({r}, {k})"
                );
            }
        }
    }

    /// A per-feature bias, `y = x + b`: a layer with parameters that
    /// [`Layer::io_dims`] does not describe, so it breaks a dense pair.
    #[derive(Clone)]
    struct Bias {
        b: Tensor,
        gb: Tensor,
    }

    impl Layer for Bias {
        fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
            let mut y = x.clone();
            y.add_row_vec(&self.b);
            y
        }

        fn backward(&mut self, grad_out: &Tensor) -> Tensor {
            self.gb.add_assign(&grad_out.sum_rows());
            grad_out.clone()
        }

        fn params(&self) -> Vec<&Tensor> {
            vec![&self.b]
        }

        fn params_mut(&mut self) -> Vec<&mut Tensor> {
            vec![&mut self.b]
        }

        fn grads(&self) -> Vec<&Tensor> {
            vec![&self.gb]
        }

        fn grads_mut(&mut self) -> Vec<&mut Tensor> {
            vec![&mut self.gb]
        }

        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
            f(&mut self.b, &mut self.gb);
        }

        fn name(&self) -> &'static str {
            "bias"
        }

        fn clone_box(&self) -> Box<dyn Layer> {
            Box::new(self.clone())
        }
    }

    /// The derivation `derive` replaced, kept as its reference: the same
    /// pairs and the same draws, every position of a dropped unit cleared
    /// one at a time.
    fn derive_by_position(model: &Sequential, keep_ratio: f64, rng: &mut Rng64) -> StructuredMask {
        let mut keep = vec![true; model.param_count()];
        for pair in dense_segments(model).windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            if !(b.directly_fed && a.out_dim == b.in_dim) {
                continue;
            }
            let keep_units = ((a.out_dim as f64 * keep_ratio).ceil() as usize).clamp(1, a.out_dim);
            if keep_units == a.out_dim {
                continue;
            }
            for j in rng.sample_indices(a.out_dim, a.out_dim - keep_units) {
                for i in 0..a.in_dim {
                    keep[a.offset + i * a.out_dim + j] = false;
                }
                keep[a.offset + a.in_dim * a.out_dim + j] = false;
                for k in 0..b.out_dim {
                    keep[b.offset + j * b.out_dim + k] = false;
                }
            }
        }
        StructuredMask::from_keep(keep)
    }

    /// Row-wise derivation is the per-position one in mask, kept count and
    /// the RNG state it leaves — over one to three maskable pairs (a middle
    /// layer then takes dropped rows from one pair and dropped columns from
    /// the next), a pair broken by a layer with parameters or by a
    /// dimension mismatch, and ratios from one unit to all of them.
    #[test]
    fn row_wise_derivation_matches_the_per_position_reference() {
        let dense = |i, o, rng: &mut Rng64| Dense::new(i, o, Init::HeNormal, rng);
        let mut rng = Rng64::new(12);
        let r = &mut rng;
        let models = [
            mlp(r),
            Sequential::new()
                .push(dense(5, 8, r))
                .push(Activation::leaky_relu())
                .push(dense(8, 7, r))
                .push(Activation::leaky_relu())
                .push(dense(7, 3, r)),
            Sequential::new()
                .push(dense(4, 9, r))
                .push(dense(9, 6, r))
                .push(Activation::leaky_relu())
                .push(dense(6, 11, r))
                .push(dense(11, 2, r)),
            Sequential::new()
                .push(dense(6, 10, r))
                .push(Bias {
                    b: Tensor::zeros(&[10]),
                    gb: Tensor::zeros(&[10]),
                })
                .push(dense(10, 4, r))
                .push(Activation::leaky_relu())
                .push(dense(4, 3, r)),
            Sequential::new()
                .push(dense(6, 10, r))
                .push(dense(9, 5, r))
                .push(dense(5, 2, r)),
        ];
        for model in &models {
            for ratio in [0.01, 0.3, 0.5, 0.625, 0.99, 1.0] {
                for seed in 0..8 {
                    let (mut by_rows, mut by_position) = (Rng64::new(seed), Rng64::new(seed));
                    let got = StructuredMask::derive(model, ratio, &mut by_rows);
                    let want = derive_by_position(model, ratio, &mut by_position);
                    assert_eq!(got, want, "ratio {ratio}, seed {seed}");
                    assert_eq!(got.kept(), want.kept());
                    assert_eq!(by_rows.next_u64(), by_position.next_u64(), "rng state");
                }
            }
        }
    }

    #[test]
    fn single_dense_models_have_no_maskable_units() {
        let mut rng = Rng64::new(6);
        let model = Sequential::new().push(Dense::new(8, 3, Init::HeNormal, &mut rng));
        let mask = StructuredMask::derive(&model, 0.2, &mut rng);
        assert!(mask.is_full(), "output layer must never be masked");
    }

    #[test]
    fn tiny_ratio_keeps_at_least_one_unit_per_layer() {
        let mut rng = Rng64::new(7);
        let model = mlp(&mut rng);
        let mask = StructuredMask::derive(&model, 0.01, &mut rng);
        let live = (0..10).filter(|&j| mask.keeps(60 + j)).count();
        assert_eq!(live, 1, "floor of one unit per maskable layer");
    }

    #[test]
    #[should_panic(expected = "keep_ratio")]
    fn rejects_zero_ratio() {
        let mut rng = Rng64::new(8);
        let model = mlp(&mut rng);
        let _ = StructuredMask::derive(&model, 0.0, &mut rng);
    }
}

//! Sequential model container.
//!
//! [`Sequential`] is the unit of exchange in the federated simulation: the
//! server broadcasts its *flat parameter vector*, clients train a forked
//! copy, and strategies aggregate flat vectors back into the global model.
//! Hence the container's first-class support for
//! [`Sequential::flat_params`]/[`Sequential::set_flat_params`] alongside the
//! usual forward/backward plumbing.

use crate::layers::Layer;
use crate::tensor::Tensor;

/// An ordered stack of layers trained with explicit backprop.
#[derive(Clone)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl Sequential {
    /// Empty model.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Append a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Append a boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` if the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Run the full stack. `train` enables dropout masks and gradient caches.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let Some((bottom, upper)) = self.layers.split_first_mut() else {
            return x.clone();
        };
        let mut h = bottom.forward(x, train);
        for layer in upper {
            h = layer.forward(&h, train);
        }
        h
    }

    /// Back-propagate from the loss gradient, accumulating parameter
    /// gradients in every layer; returns the gradient w.r.t. the input.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// [`Sequential::backward`] for a model trained on data: the gradient
    /// w.r.t. the input is not computed. Parameter gradients are the same
    /// bits as after `backward`.
    pub fn backward_params(&mut self, grad_out: &Tensor) {
        let Some((bottom, upper)) = self.layers.split_first_mut() else {
            return;
        };
        let mut g = grad_out.clone();
        for layer in upper.iter_mut().rev() {
            g = layer.backward(&g);
        }
        bottom.backward_params(&g);
    }

    /// [`Sequential::backward`] for a caller that wants only the gradient
    /// w.r.t. the input: the same bits, through [`Layer::backward_input`],
    /// so a stack of dense layers and activations leaves its parameter
    /// gradients untouched.
    pub fn backward_input(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward_input(&g);
        }
        g
    }

    /// Call `f(offset, parameter, its gradient)` for every trainable tensor
    /// in [`Sequential::flat_params`] order, `offset` being the tensor's
    /// position in that flat vector.
    pub fn visit_params(&mut self, mut f: impl FnMut(usize, &mut Tensor, &mut Tensor)) {
        let mut offset = 0;
        for layer in self.layers.iter_mut() {
            layer.visit_params(&mut |p, g| {
                f(offset, p, g);
                offset += p.numel();
            });
        }
    }

    /// Zero all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for layer in self.layers.iter_mut() {
            layer.zero_grad();
        }
    }

    /// Total number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Layers as shared trait objects.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Copy every parameter into one flat vector (layer order, param order,
    /// row-major within each tensor). This is the model representation sent
    /// over the (simulated) network in federated learning.
    pub fn flat_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            for p in layer.params() {
                out.extend_from_slice(p.data());
            }
        }
        out
    }

    /// Overwrite every parameter from a flat vector produced by
    /// [`Sequential::flat_params`] on an identically-shaped model.
    ///
    /// # Panics
    /// Panics if the vector length does not match [`Sequential::param_count`].
    pub fn set_flat_params(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.param_count(),
            "flat vector has {} scalars, model expects {}",
            flat.len(),
            self.param_count()
        );
        let mut offset = 0;
        for layer in self.layers.iter_mut() {
            for p in layer.params_mut() {
                let n = p.numel();
                p.data_mut().copy_from_slice(&flat[offset..offset + n]);
                offset += n;
            }
        }
    }

    /// Accumulated gradients flattened in the same order as
    /// [`Sequential::flat_params`].
    pub fn flat_grads(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            for g in layer.grads() {
                out.extend_from_slice(g.data());
            }
        }
        out
    }

    /// Add the FedProx proximal gradient `μ·(w − w_ref)` to the accumulated
    /// gradients (paper \[12\]; used when the local solver is FedProx).
    ///
    /// # Panics
    /// Panics if `w_ref` length mismatches the parameter count.
    pub fn add_proximal_grad(&mut self, mu: f32, w_ref: &[f32]) {
        assert_eq!(
            w_ref.len(),
            self.param_count(),
            "proximal reference length mismatch"
        );
        self.visit_params(|offset, p, g| {
            let w_ref = &w_ref[offset..offset + p.numel()];
            for ((gv, &pv), &rv) in g.data_mut().iter_mut().zip(p.data()).zip(w_ref) {
                *gv += mu * (pv - rv);
            }
        });
    }

    /// Global L2 norm of all accumulated gradients.
    pub fn grad_norm(&self) -> f32 {
        let mut acc = 0.0f32;
        for layer in &self.layers {
            for g in layer.grads() {
                acc += g.norm_sq();
            }
        }
        acc.sqrt()
    }

    /// Scale all gradients so their global norm is at most `max_norm`.
    /// Returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for layer in self.layers.iter_mut() {
                for g in layer.grads_mut() {
                    g.scale(scale);
                }
            }
        }
        norm
    }

    /// One-line-per-layer architecture summary.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        for (i, layer) in self.layers.iter().enumerate() {
            s.push_str(&format!(
                "{i:>3}: {:<12} params={}\n",
                layer.name(),
                layer.param_count()
            ));
        }
        s.push_str(&format!("total params: {}", self.param_count()));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::layers::{Activation, Dense};
    use crate::loss::{cross_entropy_logits, mse};
    use crate::optim::Sgd;
    use crate::rng::Rng64;

    fn tiny_mlp(rng: &mut Rng64) -> Sequential {
        Sequential::new()
            .push(Dense::new(4, 8, Init::HeNormal, rng))
            .push(Activation::leaky_relu())
            .push(Dense::new(8, 3, Init::XavierUniform, rng))
    }

    #[test]
    fn forward_shape() {
        let mut rng = Rng64::new(1);
        let mut model = tiny_mlp(&mut rng);
        let x = Tensor::randn(&[5, 4], 0.0, 1.0, &mut rng);
        let y = model.forward(&x, false);
        assert_eq!(y.shape(), &[5, 3]);
    }

    /// An inference pass caches nothing and drops what the training pass
    /// before it cached, so there is nothing to back-propagate through.
    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn inference_forward_leaves_no_gradient_caches() {
        let mut rng = Rng64::new(1);
        let mut model = tiny_mlp(&mut rng);
        let x = Tensor::randn(&[5, 4], 0.0, 1.0, &mut rng);
        let y = model.forward(&x, true);
        model.forward(&x, false);
        model.backward(&y);
    }

    #[test]
    fn flat_params_roundtrip() {
        let mut rng = Rng64::new(2);
        let model = tiny_mlp(&mut rng);
        let flat = model.flat_params();
        assert_eq!(flat.len(), model.param_count());
        let mut other = tiny_mlp(&mut rng); // different init
        assert_ne!(other.flat_params(), flat);
        other.set_flat_params(&flat);
        assert_eq!(other.flat_params(), flat);
    }

    #[test]
    #[should_panic(expected = "model expects")]
    fn set_flat_params_rejects_wrong_length() {
        let mut rng = Rng64::new(3);
        let mut model = tiny_mlp(&mut rng);
        model.set_flat_params(&[0.0; 3]);
    }

    #[test]
    fn clone_is_deep() {
        let mut rng = Rng64::new(4);
        let model = tiny_mlp(&mut rng);
        let mut fork = model.clone();
        let mut flat = fork.flat_params();
        flat[0] += 1.0;
        fork.set_flat_params(&flat);
        assert_ne!(model.flat_params()[0], fork.flat_params()[0]);
    }

    #[test]
    fn sgd_descends_on_regression_task() {
        let mut rng = Rng64::new(5);
        let mut model = Sequential::new()
            .push(Dense::new(2, 16, Init::HeNormal, &mut rng))
            .push(Activation::tanh())
            .push(Dense::new(16, 1, Init::XavierUniform, &mut rng));
        let mut opt = Sgd::new(0.05, 0.9);
        // Learn y = x0 - x1.
        let x = Tensor::randn(&[64, 2], 0.0, 1.0, &mut rng);
        let target = Tensor::from_vec(&[64, 1], (0..64).map(|i| x.at(i, 0) - x.at(i, 1)).collect());
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..200 {
            let pred = model.forward(&x, true);
            let (loss, grad) = mse(&pred, &target);
            first_loss.get_or_insert(loss);
            last_loss = loss;
            model.zero_grad();
            model.backward(&grad);
            opt.step(&mut model);
        }
        assert!(
            last_loss < first_loss.unwrap() * 0.1,
            "loss did not drop: {first_loss:?} -> {last_loss}"
        );
    }

    #[test]
    fn sgd_learns_classification() {
        let mut rng = Rng64::new(6);
        let mut model = tiny_mlp(&mut rng);
        let mut opt = Sgd::new(0.1, 0.0);
        // Three linearly separable blobs.
        let mut xs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..90 {
            let class = i % 3;
            let center = [(class as f32) * 4.0 - 4.0; 4];
            for c in center {
                xs.push(c + rng.normal_f32(0.0, 0.3));
            }
            labels.push(class);
        }
        let x = Tensor::from_vec(&[90, 4], xs);
        for _ in 0..100 {
            let logits = model.forward(&x, true);
            let (_, grad) = cross_entropy_logits(&logits, &labels);
            model.zero_grad();
            model.backward(&grad);
            opt.step(&mut model);
        }
        let logits = model.forward(&x, false);
        let acc = crate::loss::accuracy(&logits, &labels);
        assert!(acc > 0.95, "blob accuracy only {acc}");
    }

    #[test]
    fn proximal_grad_pulls_toward_reference() {
        let mut rng = Rng64::new(7);
        let mut model = tiny_mlp(&mut rng);
        let w_ref = vec![0.0f32; model.param_count()];
        model.zero_grad();
        model.add_proximal_grad(0.5, &w_ref);
        // Gradient should equal 0.5 * (w - 0) = 0.5 * w.
        let flat_w = model.flat_params();
        let flat_g = model.flat_grads();
        for (w, g) in flat_w.iter().zip(flat_g.iter()) {
            assert!((g - 0.5 * w).abs() < 1e-6);
        }
    }

    #[test]
    fn grad_clipping_caps_norm() {
        let mut rng = Rng64::new(8);
        let mut model = tiny_mlp(&mut rng);
        let x = Tensor::randn(&[4, 4], 0.0, 10.0, &mut rng);
        let y = model.forward(&x, true);
        model.zero_grad();
        model.backward(&Tensor::full(y.shape(), 100.0));
        let pre = model.grad_norm();
        assert!(pre > 1.0);
        let reported = model.clip_grad_norm(1.0);
        assert!((reported - pre).abs() < pre * 1e-5);
        assert!((model.grad_norm() - 1.0).abs() < 1e-3);
    }

    /// `backward_input` returns `backward`'s input gradient bit for bit and
    /// leaves the parameter gradients as it found them — non-zero here —
    /// on a small Dense/LeakyReLU stack and on the DDPG critic's shape.
    #[test]
    fn backward_input_is_backwards_input_gradient_without_parameter_gradients() {
        let mut rng = Rng64::new(10);
        for (dims, batch) in [(&[4, 8, 8, 3][..], 5), (&[80, 256, 256, 1][..], 64)] {
            let mut model = Sequential::new();
            for (i, io) in dims.windows(2).enumerate() {
                model.push_boxed(Box::new(Dense::new(io[0], io[1], Init::HeNormal, &mut rng)));
                if i + 2 < dims.len() {
                    model.push_boxed(Box::new(Activation::leaky_relu()));
                }
            }
            let x = Tensor::randn(&[batch, dims[0]], 0.0, 1.0, &mut rng);
            let y = model.forward(&x, true);
            let seed = Tensor::randn(y.shape(), 0.0, 1.0, &mut rng);
            model.backward(&seed);
            let grads = model.flat_grads();
            assert!(grads.iter().any(|&g| g != 0.0));

            model.forward(&x, true);
            let want = model.clone().backward(&seed);
            let got = model.backward_input(&seed);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got.data()), bits(want.data()), "{dims:?}");
            assert_eq!(bits(&model.flat_grads()), bits(&grads), "{dims:?}");
        }
    }

    #[test]
    fn summary_mentions_layers() {
        let mut rng = Rng64::new(9);
        let model = tiny_mlp(&mut rng);
        let s = model.summary();
        assert!(s.contains("dense"));
        assert!(s.contains("leaky_relu"));
        assert!(s.contains("total params"));
    }
}

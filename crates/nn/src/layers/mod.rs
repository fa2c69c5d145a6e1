//! Neural-network layers with explicit backpropagation.
//!
//! Rather than a tape-based autograd, each [`Layer`] caches what it needs in
//! `forward` and produces input gradients (accumulating parameter gradients)
//! in `backward`. This matches the fixed feed-forward topologies the
//! reproduction trains — client MLPs and the 2–3 layer MLP policy/value
//! networks of the DRL agent — and keeps the hot training loop free of
//! allocation-heavy graph bookkeeping.
//!
//! Layout convention: every inter-layer activation is a 2-D tensor
//! `[batch, features]`.

mod activation;
mod dense;

pub use activation::{Activation, ActivationKind};
pub use dense::Dense;

use crate::tensor::Tensor;

/// A differentiable layer.
///
/// Implementations cache what `backward` needs in a training `forward`;
/// `backward` must be called after the matching `forward` with a gradient of
/// the same shape as that forward's output. Parameter gradients accumulate
/// across calls until [`Layer::zero_grad`].
pub trait Layer: Send + Sync {
    /// Compute the layer output. `train` toggles the caches `backward`
    /// consumes: an inference pass (`false`) caches nothing and drops what
    /// an earlier training pass left, so a `backward` after it is the
    /// layer's "backward called before forward" panic.
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Back-propagate `grad_out` (shape of the last forward's output),
    /// returning the gradient w.r.t. that forward's input and accumulating
    /// parameter gradients.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// [`Layer::backward`] for a caller that will not read the input
    /// gradient — the bottom layer of a model trained on data. Parameter
    /// gradients accumulate exactly as in `backward`; a layer whose input
    /// gradient is a separate product (see [`Dense`]) overrides this to
    /// skip it.
    fn backward_params(&mut self, grad_out: &Tensor) {
        let _ = self.backward(grad_out);
    }

    /// [`Layer::backward`] for a caller that wants only the input gradient
    /// — a network differentiated with respect to its input, such as the
    /// DDPG critic in the actor's update. Returns the same bits as
    /// `backward`; a layer whose parameter gradients are a separate product
    /// (see [`Dense`]) overrides this to leave them untouched, and any
    /// other layer accumulates them as `backward` does.
    fn backward_input(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward(grad_out)
    }

    /// Immutable views of the trainable parameters (possibly empty).
    fn params(&self) -> Vec<&Tensor>;

    /// Mutable views of the trainable parameters, paired index-for-index
    /// with [`Layer::grads_mut`].
    fn params_mut(&mut self) -> Vec<&mut Tensor>;

    /// Immutable views of the accumulated gradients.
    fn grads(&self) -> Vec<&Tensor>;

    /// Mutable views of the accumulated gradients.
    fn grads_mut(&mut self) -> Vec<&mut Tensor>;

    /// Call `f(parameter, its gradient)` for every trainable tensor, in
    /// [`Layer::params`] order. The one way to hold a parameter and its
    /// gradient mutably at once — what an optimizer step, the FedProx term
    /// and an in-place mask need — since [`Layer::params_mut`] and
    /// [`Layer::grads`] cannot be borrowed together.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor));

    /// Reset accumulated gradients to zero.
    fn zero_grad(&mut self) {
        for g in self.grads_mut() {
            g.fill_zero();
        }
    }

    /// Short human-readable layer name for summaries.
    fn name(&self) -> &'static str;

    /// `(fan_in, fan_out)` for layers with a 2-D feature map — currently
    /// only [`Dense`] — `None` otherwise. Structured-dropout masking uses
    /// this to find adjacent dense pairs whose shared hidden units can be
    /// masked without breaking shapes.
    fn io_dims(&self) -> Option<(usize, usize)> {
        None
    }

    /// Number of trainable scalars.
    fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.numel()).sum()
    }

    /// Clone into a boxed trait object (layers hold no shared state, so this
    /// is a deep copy; used when federated clients fork the global model).
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Finite-difference gradient check used by layer tests.
///
/// Verifies `d loss / d input` returned by `backward` against central
/// differences of `loss(x) = Σ forward(x) ⊙ seed`, where `seed` is a fixed
/// random weighting so every output coordinate participates.
#[cfg(test)]
pub(crate) fn grad_check_input(
    layer: &mut dyn Layer,
    x: &Tensor,
    seed_rng: &mut crate::rng::Rng64,
    tol: f32,
) {
    let y = layer.forward(x, true);
    let seed = Tensor::randn(y.shape(), 0.0, 1.0, seed_rng);
    let grad_in = layer.backward(&seed);
    let eps = 1e-2f32;
    for i in 0..x.numel() {
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        let lp = layer.forward(&xp, true).dot(&seed);
        let lm = layer.forward(&xm, true).dot(&seed);
        let numeric = (lp - lm) / (2.0 * eps);
        let analytic = grad_in.data()[i];
        assert!(
            (numeric - analytic).abs() <= tol * (1.0 + numeric.abs().max(analytic.abs())),
            "input grad mismatch at {i}: numeric {numeric} vs analytic {analytic}"
        );
    }
}

/// Finite-difference check of parameter gradients (same seeding trick).
#[cfg(test)]
pub(crate) fn grad_check_params(
    layer: &mut dyn Layer,
    x: &Tensor,
    seed_rng: &mut crate::rng::Rng64,
    tol: f32,
) {
    let y = layer.forward(x, true);
    let seed = Tensor::randn(y.shape(), 0.0, 1.0, seed_rng);
    layer.zero_grad();
    let _ = layer.backward(&seed);
    let analytic: Vec<Vec<f32>> = layer.grads().iter().map(|g| g.data().to_vec()).collect();
    let eps = 1e-2f32;
    for (p_idx, param_grads) in analytic.iter().enumerate() {
        for (i, &a) in param_grads.iter().enumerate() {
            let orig = layer.params()[p_idx].data()[i];
            layer.params_mut()[p_idx].data_mut()[i] = orig + eps;
            let lp = layer.forward(x, true).dot(&seed);
            layer.params_mut()[p_idx].data_mut()[i] = orig - eps;
            let lm = layer.forward(x, true).dot(&seed);
            layer.params_mut()[p_idx].data_mut()[i] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - a).abs() <= tol * (1.0 + numeric.abs().max(a.abs())),
                "param {p_idx} grad mismatch at {i}: numeric {numeric} vs analytic {a}"
            );
        }
    }
}

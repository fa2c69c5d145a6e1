//! Optimizers.
//!
//! The paper trains clients with plain SGD (lr 0.01) and the DDPG nets with
//! SGD-style updates at lr 1e-4/1e-3; [`Sgd`] covers both, with optional
//! classical momentum and decoupled L2 weight decay.

use crate::model::Sequential;
use crate::simd;
use crate::tensor::Tensor;

/// Stochastic gradient descent with optional momentum and weight decay.
///
/// Velocity buffers are allocated lazily on the first step and keyed by
/// the parameter tensor's position in the model, so the optimizer must be
/// used with a single model topology for its lifetime.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Create an optimizer. `momentum` and `weight_decay` of `0.0` disable
    /// those terms.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive, got {lr}");
        assert!(
            (0.0..1.0).contains(&momentum),
            "momentum must be in [0,1), got {momentum}"
        );
        assert!(weight_decay >= 0.0, "weight decay must be non-negative");
        Self {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Replace the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        assert!(lr > 0.0, "learning rate must be positive, got {lr}");
        self.lr = lr;
    }

    /// Apply one update using the gradients accumulated in `model`.
    ///
    /// Gradient-ascent callers (the DDPG policy update) should negate their
    /// objective when computing gradients, or use [`Sgd::step_scaled`] with
    /// `-1.0`.
    pub fn step(&mut self, model: &mut Sequential) {
        self.step_scaled(model, 1.0);
    }

    /// Like [`Sgd::step`] but multiplies every gradient by `grad_scale`
    /// before the update (`-1.0` turns descent into ascent).
    pub fn step_scaled(&mut self, model: &mut Sequential, grad_scale: f32) {
        let mut index = 0;
        model.visit_params(|_, p, g| {
            let direction = if self.momentum > 0.0 {
                if self.velocity.len() <= index {
                    self.velocity.push(Tensor::zeros(g.shape()));
                }
                let v = &mut self.velocity[index];
                debug_assert_eq!(v.shape(), g.shape(), "velocity shape drift");
                // v ← m·v + g
                v.scale(self.momentum);
                v.add_assign(g);
                &*v
            } else {
                g
            };
            // p ← p − lr·(scale·d + wd·p), d the gradient or its velocity
            let (lr, decay) = (self.lr, self.weight_decay);
            simd::sgd_update(p.data_mut(), direction.data(), lr, grad_scale, decay);
            index += 1;
        });
    }

    /// Drop all velocity state (e.g. when the model weights are replaced by
    /// a broadcast global model at the start of a federated round).
    pub fn reset_state(&mut self) {
        self.velocity.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::layers::Dense;
    use crate::loss::mse;
    use crate::rng::Rng64;

    fn one_param_model(initial: f32) -> Sequential {
        // Single 1x1 dense layer: y = w·x + b.
        let mut rng = Rng64::new(0);
        let mut model = Sequential::new().push(Dense::new(1, 1, Init::Zeros, &mut rng));
        model.set_flat_params(&[initial, 0.0]);
        model
    }

    #[test]
    fn vanilla_sgd_matches_hand_update() {
        let mut model = one_param_model(2.0);
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        // loss = (w·1 − 0)², dL/dw = 2w = 4 at w=2 (x=1, target=0).
        let x = Tensor::from_vec(&[1, 1], vec![1.0]);
        let t = Tensor::from_vec(&[1, 1], vec![0.0]);
        let pred = model.forward(&x, true);
        let (_, grad) = mse(&pred, &t);
        model.zero_grad();
        model.backward(&grad);
        opt.step(&mut model);
        let w = model.flat_params()[0];
        assert!((w - (2.0 - 0.1 * 4.0)).abs() < 1e-6, "w = {w}");
    }

    #[test]
    fn momentum_accelerates_along_constant_gradient() {
        let mut plain = one_param_model(1.0);
        let mut heavy = one_param_model(1.0);
        let mut opt_plain = Sgd::new(0.01, 0.0, 0.0);
        let mut opt_heavy = Sgd::new(0.01, 0.9, 0.0);
        let x = Tensor::from_vec(&[1, 1], vec![1.0]);
        let t = Tensor::from_vec(&[1, 1], vec![-10.0]);
        for _ in 0..20 {
            for (m, o) in [(&mut plain, &mut opt_plain), (&mut heavy, &mut opt_heavy)] {
                let pred = m.forward(&x, true);
                let (_, grad) = mse(&pred, &t);
                m.zero_grad();
                m.backward(&grad);
                o.step(m);
            }
        }
        let d_plain = (plain.flat_params()[0] - 1.0).abs();
        let d_heavy = (heavy.flat_params()[0] - 1.0).abs();
        assert!(
            d_heavy > d_plain * 2.0,
            "momentum should travel farther: {d_heavy} vs {d_plain}"
        );
    }

    #[test]
    fn weight_decay_shrinks_params_without_gradient() {
        let mut model = one_param_model(1.0);
        let mut opt = Sgd::new(0.1, 0.0, 0.5);
        model.zero_grad(); // gradients are zero
        opt.step(&mut model);
        let w = model.flat_params()[0];
        assert!((w - (1.0 - 0.1 * 0.5)).abs() < 1e-6, "w = {w}");
    }

    #[test]
    fn step_scaled_negative_ascends() {
        let mut model = one_param_model(1.0);
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        let x = Tensor::from_vec(&[1, 1], vec![1.0]);
        let t = Tensor::from_vec(&[1, 1], vec![0.0]);
        let pred = model.forward(&x, true);
        let (_, grad) = mse(&pred, &t);
        model.zero_grad();
        model.backward(&grad);
        opt.step_scaled(&mut model, -1.0);
        // Ascent on the loss moves w away from 0.
        assert!(model.flat_params()[0] > 1.0);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn rejects_zero_lr() {
        let _ = Sgd::new(0.0, 0.0, 0.0);
    }

    #[test]
    fn reset_state_clears_velocity() {
        let mut model = one_param_model(1.0);
        let mut opt = Sgd::new(0.1, 0.9, 0.0);
        let x = Tensor::from_vec(&[1, 1], vec![1.0]);
        let t = Tensor::from_vec(&[1, 1], vec![0.0]);
        let pred = model.forward(&x, true);
        let (_, grad) = mse(&pred, &t);
        model.zero_grad();
        model.backward(&grad);
        opt.step(&mut model);
        opt.reset_state();
        // After reset, a zero-grad step must not move parameters.
        model.zero_grad();
        let before = model.flat_params();
        opt.step(&mut model);
        assert_eq!(before, model.flat_params());
    }
}

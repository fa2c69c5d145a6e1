//! Parameter-free activation layers.

use super::Layer;
use crate::tensor::Tensor;

/// Supported activation functions.
///
/// The paper uses LeakyReLU throughout the DRL networks (§3.4.1), and the
/// client MLPs use it too; Tanh and Sigmoid serve the policy head (μ
/// bounded by tanh, σ shaped by sigmoid — see `feddrl-drl`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ActivationKind {
    /// LeakyReLU with the given negative-side slope (paper default 0.01).
    LeakyRelu(f32),
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl ActivationKind {
    #[inline]
    fn apply(self, x: f32) -> f32 {
        match self {
            ActivationKind::LeakyRelu(a) => {
                if x >= 0.0 {
                    x
                } else {
                    a * x
                }
            }
            ActivationKind::Tanh => x.tanh(),
            ActivationKind::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// Derivative expressed in terms of input `x` and output `y` (whichever
    /// is cheaper for the kind).
    #[inline]
    fn derivative(self, x: f32, y: f32) -> f32 {
        match self {
            ActivationKind::LeakyRelu(a) => {
                if x > 0.0 {
                    1.0
                } else {
                    a
                }
            }
            ActivationKind::Tanh => 1.0 - y * y,
            ActivationKind::Sigmoid => y * (1.0 - y),
        }
    }
}

/// Element-wise activation layer.
#[derive(Clone)]
pub struct Activation {
    kind: ActivationKind,
    cache_x: Option<Tensor>,
    cache_y: Option<Tensor>,
}

impl Activation {
    /// Create an activation layer of the given kind.
    pub fn new(kind: ActivationKind) -> Self {
        Self {
            kind,
            cache_x: None,
            cache_y: None,
        }
    }

    /// The paper's default LeakyReLU (slope 0.01).
    pub fn leaky_relu() -> Self {
        Self::new(ActivationKind::LeakyRelu(0.01))
    }

    /// Hyperbolic tangent.
    pub fn tanh() -> Self {
        Self::new(ActivationKind::Tanh)
    }

    /// Logistic sigmoid.
    pub fn sigmoid() -> Self {
        Self::new(ActivationKind::Sigmoid)
    }
}

impl Layer for Activation {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let y = x.map(|v| self.kind.apply(v));
        self.cache_x = train.then(|| x.clone());
        self.cache_y = train.then(|| y.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cache_x
            .take()
            .expect("Activation backward called before forward");
        let y = self
            .cache_y
            .take()
            .expect("activation output cache missing");
        let mut grad = grad_out.clone();
        for ((g, &xv), &yv) in grad
            .data_mut()
            .iter_mut()
            .zip(x.data().iter())
            .zip(y.data().iter())
        {
            *g *= self.kind.derivative(xv, yv);
        }
        grad
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn grads_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}

    fn name(&self) -> &'static str {
        match self.kind {
            ActivationKind::LeakyRelu(_) => "leaky_relu",
            ActivationKind::Tanh => "tanh",
            ActivationKind::Sigmoid => "sigmoid",
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::grad_check_input;
    use crate::rng::Rng64;

    #[test]
    fn leaky_relu_of_slope_zero_clamps_negatives() {
        let mut layer = Activation::new(ActivationKind::LeakyRelu(0.0));
        let x = Tensor::from_vec(&[1, 4], vec![-2.0, -0.5, 0.0, 3.0]);
        let y = layer.forward(&x, false);
        assert_eq!(y.data(), &[0.0, 0.0, 0.0, 3.0]);
    }

    #[test]
    fn leaky_relu_scales_negatives() {
        let mut layer = Activation::new(ActivationKind::LeakyRelu(0.1));
        let x = Tensor::from_vec(&[1, 3], vec![-10.0, 0.0, 5.0]);
        let y = layer.forward(&x, false);
        assert_eq!(y.data(), &[-1.0, 0.0, 5.0]);
    }

    #[test]
    fn sigmoid_bounds_and_midpoint() {
        let mut layer = Activation::sigmoid();
        let x = Tensor::from_vec(&[1, 3], vec![-100.0, 0.0, 100.0]);
        let y = layer.forward(&x, false);
        assert!(y.data()[0] < 1e-6);
        assert!((y.data()[1] - 0.5).abs() < 1e-6);
        assert!(y.data()[2] > 1.0 - 1e-6);
    }

    #[test]
    fn tanh_is_odd() {
        let mut layer = Activation::tanh();
        let x = Tensor::from_vec(&[1, 2], vec![1.3, -1.3]);
        let y = layer.forward(&x, false);
        assert!((y.data()[0] + y.data()[1]).abs() < 1e-6);
    }

    #[test]
    fn all_kinds_pass_gradient_check() {
        let mut rng = Rng64::new(7);
        for kind in [
            ActivationKind::LeakyRelu(0.01),
            ActivationKind::Tanh,
            ActivationKind::Sigmoid,
        ] {
            let mut layer = Activation::new(kind);
            // Offset away from 0 to dodge the LeakyReLU kink during finite diff.
            let mut x = Tensor::randn(&[4, 6], 0.0, 1.0, &mut rng);
            x.map_inplace(|v| if v.abs() < 0.05 { v + 0.1 } else { v });
            grad_check_input(&mut layer, &x, &mut rng, 2e-2);
        }
    }

    #[test]
    fn has_no_params() {
        let layer = Activation::leaky_relu();
        assert_eq!(layer.param_count(), 0);
    }
}

//! Fully-connected (affine) layer.

use super::Layer;
use crate::init::Init;
use crate::rng::Rng64;
use crate::tensor::Tensor;

/// Affine transform `y = x·W + b` with `W: [in, out]`, `b: [out]`.
///
/// This is the workhorse of the reproduction: the DDPG policy and value
/// networks (paper Table 1) are pure `Dense`/LeakyReLU stacks, and the
/// scaled-down client models are MLPs.
#[derive(Clone)]
pub struct Dense {
    w: Tensor,
    b: Tensor,
    gw: Tensor,
    gb: Tensor,
    /// Input cached by the last training `forward`, consumed by `backward`.
    cache_x: Option<Tensor>,
}

impl Dense {
    /// Create a layer with the given fan-in/fan-out and weight init
    /// (biases start at zero).
    pub fn new(in_dim: usize, out_dim: usize, init: Init, rng: &mut Rng64) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "Dense dims must be positive");
        Self {
            w: init.build(in_dim, out_dim, rng),
            b: Tensor::zeros(&[out_dim]),
            gw: Tensor::zeros(&[in_dim, out_dim]),
            gb: Tensor::zeros(&[out_dim]),
            cache_x: None,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.shape()[0]
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.shape()[1]
    }

    /// The input the last training `forward` cached, which one backward
    /// pass consumes.
    fn take_cache(&mut self) -> Tensor {
        self.cache_x
            .take()
            .expect("Dense backward called before forward")
    }
}

impl Layer for Dense {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        debug_assert_eq!(
            x.cols(),
            self.in_dim(),
            "Dense forward: input has {} features, layer expects {}",
            x.cols(),
            self.in_dim()
        );
        let mut y = x.matmul(&self.w);
        y.add_row_vec(&self.b);
        self.cache_x = train.then(|| x.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_params(grad_out);
        // dX = dY · Wᵀ
        grad_out.matmul_t(&self.w)
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        let x = self.take_cache();
        // dW = xᵀ · dY, db = Σ_rows dY
        self.gw.add_assign(&x.t_matmul(grad_out));
        self.gb.add_assign(&grad_out.sum_rows());
    }

    fn backward_input(&mut self, grad_out: &Tensor) -> Tensor {
        // The cache goes as in `backward`, unread: dX needs only W.
        self.take_cache();
        grad_out.matmul_t(&self.w)
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.w, &self.b]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.w, &mut self.b]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.gw, &self.gb]
    }

    fn grads_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.gw, &mut self.gb]
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.w, &mut self.gw);
        f(&mut self.b, &mut self.gb);
    }

    fn name(&self) -> &'static str {
        "dense"
    }

    fn io_dims(&self) -> Option<(usize, usize)> {
        Some((self.in_dim(), self.out_dim()))
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{grad_check_input, grad_check_params};

    #[test]
    fn forward_matches_manual() {
        let mut rng = Rng64::new(1);
        let mut layer = Dense::new(2, 3, Init::Zeros, &mut rng);
        // W = [[1,2,3],[4,5,6]], b = [0.5, 0, -0.5]
        layer.params_mut()[0]
            .data_mut()
            .copy_from_slice(&[1., 2., 3., 4., 5., 6.]);
        layer.params_mut()[1]
            .data_mut()
            .copy_from_slice(&[0.5, 0.0, -0.5]);
        let x = Tensor::from_vec(&[1, 2], vec![1.0, 2.0]);
        let y = layer.forward(&x, false);
        assert_eq!(y.data(), &[9.5, 12.0, 14.5]);
    }

    #[test]
    fn gradients_pass_finite_difference() {
        let mut rng = Rng64::new(2);
        let mut layer = Dense::new(4, 3, Init::XavierUniform, &mut rng);
        let x = Tensor::randn(&[5, 4], 0.0, 1.0, &mut rng);
        grad_check_input(&mut layer, &x, &mut rng, 2e-2);
        grad_check_params(&mut layer, &x, &mut rng, 2e-2);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut rng = Rng64::new(3);
        let mut layer = Dense::new(2, 2, Init::XavierUniform, &mut rng);
        let x = Tensor::randn(&[3, 2], 0.0, 1.0, &mut rng);
        let g = Tensor::full(&[3, 2], 1.0);
        let _ = layer.forward(&x, true);
        let _ = layer.backward(&g);
        let first = layer.grads()[0].clone();
        let _ = layer.forward(&x, true);
        let _ = layer.backward(&g);
        let doubled = layer.grads()[0].clone();
        for (a, b) in first.data().iter().zip(doubled.data().iter()) {
            assert!((2.0 * a - b).abs() < 1e-5, "grads did not accumulate");
        }
        layer.zero_grad();
        assert_eq!(layer.grads()[0].sum(), 0.0);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_without_forward_panics() {
        let mut rng = Rng64::new(4);
        let mut layer = Dense::new(2, 2, Init::Zeros, &mut rng);
        let g = Tensor::zeros(&[1, 2]);
        let _ = layer.backward(&g);
    }

    #[test]
    fn param_count() {
        let mut rng = Rng64::new(5);
        let layer = Dense::new(10, 7, Init::Zeros, &mut rng);
        assert_eq!(layer.param_count(), 10 * 7 + 7);
    }
}

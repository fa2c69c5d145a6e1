//! Inverted dropout.

use super::Layer;
use crate::rng::Rng64;
use crate::tensor::Tensor;
use std::sync::{Arc, Mutex, PoisonError};

/// Inverted dropout: at train time each element is zeroed with probability
/// `p` and survivors are scaled by `1/(1−p)`, so inference is the identity.
///
/// VGG-11's classifier head uses dropout; the scaled-down profiles keep it
/// available for parity. The layer owns its RNG (behind a mutex so the layer
/// stays `Send` for scoped worker threads) and is reseeded on clone
/// derivation by the model builder.
pub struct Dropout {
    p: f32,
    rng: Arc<Mutex<Rng64>>,
    mask: Option<Tensor>,
}

impl Dropout {
    /// Create a dropout layer with drop probability `p ∈ [0, 1)`.
    pub fn new(p: f32, rng: Rng64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout p must be in [0,1), got {p}"
        );
        Self {
            p,
            rng: Arc::new(Mutex::new(rng)),
            mask: None,
        }
    }

    /// Drop probability.
    pub fn p(&self) -> f32 {
        self.p
    }
}

impl Clone for Dropout {
    fn clone(&self) -> Self {
        // Clones derive an independent stream so forked client models do not
        // share masks (sharing would correlate their SGD noise).
        let child = self
            .rng
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .derive(0x0D0D);
        Self {
            p: self.p,
            rng: Arc::new(Mutex::new(child)),
            mask: None,
        }
    }
}

impl Layer for Dropout {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if !train || self.p == 0.0 {
            self.mask = None;
            return x.clone();
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mut mask = Tensor::zeros(x.shape());
        {
            let mut rng = self.rng.lock().unwrap_or_else(PoisonError::into_inner);
            for m in mask.data_mut() {
                *m = if rng.chance(keep as f64) { scale } else { 0.0 };
            }
        }
        let mut y = x.clone();
        y.mul_assign(&mask);
        self.mask = Some(mask);
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match self.mask.take() {
            Some(mask) => {
                let mut g = grad_out.clone();
                g.mul_assign(&mask);
                g
            }
            // Inference-mode forward (or p == 0): identity.
            None => grad_out.clone(),
        }
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
        "dropout"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inference_is_identity() {
        let mut layer = Dropout::new(0.5, Rng64::new(1));
        let x = Tensor::from_slice(&[1.0, 2.0, 3.0]).reshape(&[1, 3]);
        let y = layer.forward(&x, false);
        assert_eq!(y, x);
    }

    #[test]
    fn train_preserves_expectation() {
        let mut layer = Dropout::new(0.3, Rng64::new(2));
        let x = Tensor::full(&[1, 20_000], 1.0);
        let y = layer.forward(&x, true);
        let mean = y.mean();
        assert!((mean - 1.0).abs() < 0.05, "inverted-dropout mean {mean}");
        // Survivors are scaled by 1/keep.
        let scale = 1.0 / 0.7;
        assert!(y
            .data()
            .iter()
            .all(|&v| v == 0.0 || (v - scale).abs() < 1e-5));
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut layer = Dropout::new(0.5, Rng64::new(3));
        let x = Tensor::full(&[1, 64], 1.0);
        let y = layer.forward(&x, true);
        let g = layer.backward(&Tensor::full(&[1, 64], 1.0));
        // Gradient must be zero exactly where the output was dropped.
        for (yo, go) in y.data().iter().zip(g.data().iter()) {
            assert_eq!(*yo == 0.0, *go == 0.0);
        }
    }

    #[test]
    fn zero_p_is_passthrough_in_training() {
        let mut layer = Dropout::new(0.0, Rng64::new(4));
        let x = Tensor::from_slice(&[5.0, -1.0]).reshape(&[1, 2]);
        assert_eq!(layer.forward(&x, true), x);
    }

    #[test]
    #[should_panic(expected = "must be in [0,1)")]
    fn rejects_invalid_probability() {
        let _ = Dropout::new(1.0, Rng64::new(5));
    }

    #[test]
    fn clones_use_independent_streams() {
        let mut a = Dropout::new(0.5, Rng64::new(6));
        let mut b = a.clone();
        let x = Tensor::full(&[1, 256], 1.0);
        let ya = a.forward(&x, true);
        let yb = b.forward(&x, true);
        assert_ne!(ya, yb, "cloned dropout produced an identical mask");
    }
}

//! Weight initialization schemes.
//!
//! The paper's policy/value networks and the client MLPs are standard
//! fully-connected stacks; we provide the two ubiquitous fan-based
//! schemes. All draws go through the deterministic [`Rng64`] so a
//! model is fully reproducible from its seed.

use crate::rng::Rng64;
use crate::tensor::Tensor;

/// Supported initialization schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Init {
    /// Xavier/Glorot uniform: `U(±sqrt(6/(fan_in+fan_out)))`. Good default
    /// for tanh/sigmoid/softmax heads (used in the DDPG policy net).
    XavierUniform,
    /// He/Kaiming normal: `N(0, 2/fan_in)`. Default for ReLU-family stacks.
    HeNormal,
    /// All zeros (biases).
    Zeros,
    /// Small uniform `U(±0.003)` — the DDPG paper's final-layer init, which
    /// keeps initial actions near zero so softmax impact factors start
    /// near-uniform.
    FinalLayerSmall,
}

impl Init {
    /// Materialize a `[fan_in, fan_out]` weight matrix.
    pub fn build(self, fan_in: usize, fan_out: usize, rng: &mut Rng64) -> Tensor {
        let shape = &[fan_in, fan_out];
        match self {
            Init::XavierUniform => {
                let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
                Tensor::rand_uniform(shape, -limit, limit, rng)
            }
            Init::HeNormal => {
                let std = (2.0 / fan_in as f32).sqrt();
                Tensor::randn(shape, 0.0, std, rng)
            }
            Init::Zeros => Tensor::zeros(shape),
            Init::FinalLayerSmall => Tensor::rand_uniform(shape, -3e-3, 3e-3, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_respects_limit() {
        let mut rng = Rng64::new(1);
        let t = Init::XavierUniform.build(64, 64, &mut rng);
        let limit = (6.0f32 / 128.0).sqrt();
        assert!(t.data().iter().all(|&x| x.abs() <= limit));
        // Should actually use the range, not collapse to zero.
        assert!(t.max() > limit * 0.5);
    }

    #[test]
    fn he_normal_std_is_plausible() {
        let mut rng = Rng64::new(2);
        let fan_in = 256;
        let t = Init::HeNormal.build(fan_in, 256, &mut rng);
        let std = (t.norm_sq() / t.numel() as f32).sqrt();
        let expected = (2.0f32 / fan_in as f32).sqrt();
        assert!(
            (std - expected).abs() < expected * 0.1,
            "std {std} vs expected {expected}"
        );
    }

    #[test]
    fn zeros_is_zero() {
        let mut rng = Rng64::new(3);
        let t = Init::Zeros.build(10, 10, &mut rng);
        assert_eq!(t.sum(), 0.0);
    }

    #[test]
    fn final_layer_small_is_tiny() {
        let mut rng = Rng64::new(4);
        let t = Init::FinalLayerSmall.build(32, 32, &mut rng);
        assert!(t.data().iter().all(|&x| x.abs() <= 3e-3));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Init::HeNormal.build(8, 8, &mut Rng64::new(9));
        let b = Init::HeNormal.build(8, 8, &mut Rng64::new(9));
        assert_eq!(a, b);
    }
}

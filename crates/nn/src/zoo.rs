//! Model zoo: the client models the experiments build — MLP profiles
//! scaled to the synthetic datasets' flat feature vectors.
//!
//! Models are described by a serializable [`ModelSpec`] and materialized
//! with [`ModelSpec::build`] from a seed, so a federated run can reconstruct
//! bit-identical client models anywhere. The spec is also what gets written
//! next to checkpoints.

use crate::init::Init;
use crate::layers::{Activation, ActivationKind, Dense};
use crate::model::Sequential;
use crate::rng::Rng64;
use serde::{Deserialize, Serialize};

/// Declarative model description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ModelSpec {
    /// Multi-layer perceptron with LeakyReLU hidden activations. The
    /// client model of every experiment (the paper's CNN and VGG-11 need
    /// image data the repository does not carry).
    Mlp {
        /// Input feature dimensionality.
        in_dim: usize,
        /// Hidden layer widths, in order.
        hidden: Vec<usize>,
        /// Number of output classes.
        out_dim: usize,
    },
}

impl ModelSpec {
    /// Instantiate the model with weights drawn from `seed`.
    pub fn build(&self, seed: u64) -> Sequential {
        let mut rng = Rng64::new(seed);
        match self {
            ModelSpec::Mlp {
                in_dim,
                hidden,
                out_dim,
            } => build_mlp(*in_dim, hidden, *out_dim, &mut rng),
        }
    }
}

/// Build an MLP: `in → hidden… → out` with LeakyReLU between layers.
pub fn build_mlp(in_dim: usize, hidden: &[usize], out_dim: usize, rng: &mut Rng64) -> Sequential {
    let mut model = Sequential::new();
    let mut prev = in_dim;
    for &h in hidden {
        model.push_boxed(Box::new(Dense::new(prev, h, Init::HeNormal, rng)));
        model.push_boxed(Box::new(Activation::new(ActivationKind::LeakyRelu(0.01))));
        prev = h;
    }
    model.push_boxed(Box::new(Dense::new(
        prev,
        out_dim,
        Init::XavierUniform,
        rng,
    )));
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn mlp_shapes_and_determinism() {
        let spec = ModelSpec::Mlp {
            in_dim: 16,
            hidden: vec![32, 32],
            out_dim: 10,
        };
        let mut a = spec.build(7);
        let b = spec.build(7);
        assert_eq!(a.flat_params(), b.flat_params());
        let mut rng = Rng64::new(1);
        let x = Tensor::randn(&[4, 16], 0.0, 1.0, &mut rng);
        let y = a.forward(&x, false);
        assert_eq!(y.shape(), &[4, 10]);
        // in*32 + 32 + 32*32 + 32 + 32*10 + 10
        assert_eq!(a.param_count(), 16 * 32 + 32 + 32 * 32 + 32 + 32 * 10 + 10);
    }

    #[test]
    fn spec_serde_roundtrip() {
        let spec = ModelSpec::Mlp {
            in_dim: 64,
            hidden: vec![128],
            out_dim: 100,
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: ModelSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn different_seeds_give_different_weights() {
        let spec = ModelSpec::Mlp {
            in_dim: 4,
            hidden: vec![8],
            out_dim: 2,
        };
        assert_ne!(spec.build(1).flat_params(), spec.build(2).flat_params());
    }
}

//! # feddrl-nn — deep-learning substrate for the FedDRL reproduction
//!
//! A small, dependency-light neural-network library purpose-built for the
//! FedDRL (ICPP'22) reproduction. It provides everything the paper's
//! training stack needs and nothing more:
//!
//! * [`tensor::Tensor`] — dense row-major `f32` arrays with parallel matmul;
//! * [`layers`] — Dense / Conv2d / MaxPool2d / activations / Dropout with
//!   explicit backprop and finite-difference-verified gradients;
//! * [`loss`] — fused softmax cross-entropy and MSE;
//! * [`optim::Sgd`] — SGD with momentum, weight decay and an ascent mode
//!   (for the DDPG policy update);
//! * [`model::Sequential`] — layer stack with *flat parameter vector*
//!   import/export, the representation exchanged in federated aggregation;
//! * [`mask::StructuredMask`] — whole-hidden-unit sub-model masks for
//!   adaptive structured dropout (arXiv:2507.10430): pressured federated
//!   clients train a masked sub-model that still aggregates into the full
//!   model;
//! * [`zoo`] — the paper's client architectures (CNN, VGG-11) and MLP
//!   profiles;
//! * [`rng::Rng64`] — deterministic xoshiro256++ randomness so whole
//!   federated runs reproduce from one seed;
//! * [`ids`] — client-id sets and maps over one fixed hasher, shared by
//!   [`rng::Rng64::sample_indices`] and the simulator's and executors'
//!   per-client tables;
//! * [`parallel`] — data-parallel helpers on `std` scoped threads;
//! * [`simd`] — the hot loops (products, aggregation sweep) compiled for
//!   the baseline target and for AVX2, picked at run time, bit-identical.
//!
//! ## Example
//!
//! ```
//! use feddrl_nn::prelude::*;
//!
//! let mut rng = Rng64::new(42);
//! let mut model = Sequential::new()
//!     .push(Dense::new(8, 16, Init::HeNormal, &mut rng))
//!     .push(Activation::leaky_relu())
//!     .push(Dense::new(16, 3, Init::XavierUniform, &mut rng));
//! let x = Tensor::randn(&[4, 8], 0.0, 1.0, &mut rng);
//! let logits = model.forward(&x, true);
//! let (loss, grad) = cross_entropy_logits(&logits, &[0, 1, 2, 0]);
//! model.zero_grad();
//! model.backward(&grad);
//! Sgd::new(0.1, 0.9, 0.0).step(&mut model);
//! assert!(loss > 0.0);
//! ```

#![warn(missing_docs)]

pub mod ids;
pub mod init;
pub mod layers;
pub mod loss;
pub mod mask;
pub mod model;
pub mod optim;
pub mod parallel;
pub mod rng;
pub mod simd;
pub mod tensor;
pub mod zoo;

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::init::Init;
    pub use crate::layers::{Activation, ActivationKind, Conv2d, Dense, Dropout, Layer, MaxPool2d};
    pub use crate::loss::{accuracy, cross_entropy_logits, cross_entropy_loss_only, mse};
    pub use crate::mask::StructuredMask;
    pub use crate::model::Sequential;
    pub use crate::optim::Sgd;
    pub use crate::rng::Rng64;
    pub use crate::tensor::{softmax, Tensor};
    pub use crate::zoo::{build_mlp, ModelSpec};
}

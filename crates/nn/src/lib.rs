//! # fabflip-nn
//!
//! A minimal, pure-Rust, CPU neural-network library built for the `fabflip`
//! reproduction of *Fabricated Flips: Poisoning Federated Learning without
//! Data* (DSN 2023).
//!
//! It provides exactly the pieces the paper's experiments need:
//!
//! * convolutional classifiers for the two image tasks
//!   ([`models::fashion_cnn`], [`models::cifar_cnn`]),
//! * a transposed-convolution generator for the ZKA-G attack
//!   ([`models::tcnn_generator`]),
//! * a single trainable convolution "filter layer" for the ZKA-R attack
//!   ([`models::filter_layer`]),
//! * softmax cross-entropy with **soft targets** (ZKA-R optimizes towards the
//!   uniform distribution `Y_D = [1/L, …, 1/L]`),
//! * plain SGD, and flat parameter-vector access
//!   ([`Sequential::flat_params`] / [`Sequential::set_flat_params`]) — the
//!   representation federated aggregation rules operate on.
//!
//! Every layer implements [`Layer`] with an explicit `forward`/`backward`
//! pair; gradients are verified against finite differences in the test
//! suite.
//!
//! # Examples
//!
//! ```
//! use fabflip_nn::{models, losses::softmax_cross_entropy_hard};
//! use fabflip_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut model = models::fashion_cnn(&mut rng);
//! let x = Tensor::zeros(vec![2, 1, 28, 28]);
//! let logits = model.forward(&x)?;
//! let (loss, grad) = fabflip_nn::losses::softmax_cross_entropy_hard(&logits, &[3, 7])?;
//! assert!(loss > 0.0);
//! model.backward(&grad)?;
//! model.sgd_step(0.1);
//! # Ok::<(), fabflip_nn::NnError>(())
//! ```

mod activations;
mod conv;
mod conv_transpose;
mod dense;
mod error;
mod flatten;
mod layer;
pub mod losses;
pub mod models;
mod pool;
mod sequential;

pub use activations::{Relu, Sigmoid};
pub use conv::Conv2d;
pub use conv_transpose::ConvTranspose2d;
pub use dense::Dense;
pub use error::NnError;
pub use flatten::{Flatten, Reshape};
pub use layer::{Layer, LayerClone};
pub use pool::MaxPool2d;
pub use sequential::Sequential;

#[cfg(test)]
mod gradcheck;
#[cfg(test)]
mod proptests;

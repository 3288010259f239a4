//! # holo-nn
//!
//! A small, self-contained neural-network substrate.
//!
//! The paper's models (Figure 2 and Figure 7) are modest dense networks:
//! highway layers over embeddings, a two-layer fully-connected classifier
//! with ReLU and Softmax, dropout, logistic loss, the ADAM optimizer, and
//! Platt scaling for confidence calibration. The original prototype used
//! PyTorch; this crate reimplements exactly the pieces HoloDetect needs,
//! with explicit forward/backward passes and gradient-checked layers:
//!
//! * [`matrix::Matrix`] — row-major `f32` matrices with the product and
//!   broadcast ops backprop requires,
//! * [`param::Param`] — a trainable tensor bundling value, gradient and
//!   ADAM moments,
//! * [`layers`] — `Dense`, `ReLU`, `Dropout`, `Highway`,
//! * [`loss`] — softmax cross-entropy (the paper's logistic loss) with
//!   fused gradients,
//! * [`optim`] — ADAM \[36\],
//! * [`network::Sequential`] — a layer stack for simple models,
//! * [`calibrate`] — Platt scaling \[46\] on a holdout set.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod calibrate;
pub mod layers;
pub mod loss;
pub mod matrix;
pub mod network;
pub mod optim;
pub mod param;

pub use calibrate::PlattScaler;
pub use layers::{Dense, Dropout, Highway, Layer, Relu};
pub use loss::{softmax_cross_entropy, softmax_cross_entropy_scaled};
pub use matrix::Matrix;
pub use network::Sequential;
pub use optim::Adam;
pub use param::Param;

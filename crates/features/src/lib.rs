//! # holo-features
//!
//! The representation model `Q` (§4, Table 7): per-cell features over
//! attribute-level, tuple-level, and dataset-level contexts.
//!
//! A cell's representation concatenates:
//!
//! * **wide (fixed) features** — format 3-gram score, symbolic 3-gram
//!   score, empirical value frequency, one-hot column id, pairwise
//!   co-occurrence statistics, per-constraint violation counts, and the
//!   top-1 neighbourhood distance ([`wide`]),
//! * **deep (learnable-branch) inputs** — the FastText-style character,
//!   word, tuple, and neighbourhood embeddings of the cell
//!   ([`featurizer`]); the learnable highway layers that consume them
//!   live in the `holodetect` crate and are trained jointly with the
//!   classifier.
//!
//! Every feature supports *hypothetical values* — "what would this cell's
//! representation be if it held `v`?" — which data augmentation requires
//! (synthetic errors are transformed values in a real tuple context).
//!
//! [`config::Component`] enumerates the eight removable representation
//! models used in the Figure 3 ablation study.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod config;
pub mod featurizer;
pub mod layout;
pub mod wide;

pub use config::{Component, FeatureConfig};
pub use featurizer::{CacheStats, Featurizer};
pub use layout::FeatureLayout;

//! # holo-data
//!
//! Relational dataset substrate for the HoloDetect reproduction.
//!
//! The paper operates on a relational dataset `D` with attributes
//! `A = {A1..AN}`; every tuple `t` is a collection of cells `t[Ai]`, and
//! error detection is a per-cell binary classification problem (§3.1).
//! This crate provides:
//!
//! * [`schema::Schema`] — attribute names and lookup,
//! * [`value::ValuePool`] — string interning so cells are `u32` symbols
//!   (columnar storage stays cache-friendly and comparisons are O(1)),
//! * [`dataset::Dataset`] — the columnar table plus cell addressing
//!   ([`cell::CellId`]),
//! * [`csv`] — a small, dependency-free CSV reader/writer,
//! * [`binio`] — the hand-rolled binary codec trained-model artifacts
//!   persist through (no registry dependencies),
//! * [`delta`] — epoch-stamped appends to a dataset plus the durable, replayable [`delta::DeltaLog`] the streaming
//!   subsystem maintains models through,
//! * [`labels`] — the training set `T = {(c, v_c, v*_c)}`, ground truth,
//!   and the `E_c ∈ {correct, error}` label type.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod binio;
pub mod cell;
pub mod csv;
pub mod dataset;
pub mod delta;
pub mod labels;
pub mod schema;
pub mod value;

pub use cell::CellId;
pub use dataset::{Dataset, DatasetBuilder};
pub use delta::{DeltaError, DeltaLog, DeltaOp};
pub use labels::{GroundTruth, Label, LabeledCell, TrainingSet};
pub use schema::{Row, RowError, Schema};
pub use value::{Symbol, ValuePool};

//! # holo-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (§6 and Appendix A), plus criterion micro-benchmarks.
//!
//! Every binary accepts:
//!
//! * `--scale <f>`   — multiply the per-dataset default row counts,
//! * `--runs <n>`    — number of split seeds (paper: 10; default 3),
//! * `--epochs <n>`  — training epochs for learned models,
//! * `--datasets a,b` — restrict to named datasets,
//! * `--paper-faithful` — the paper's exact 500-epoch/batch-5 schedule.
//!
//! Measured numbers are printed alongside the paper's reported numbers
//! where the paper gives them. Absolute agreement is not expected (the
//! substrate datasets are simulations); the *shape* — who wins, by
//! roughly what factor — is the reproduction target (see EXPERIMENTS.md).

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod args;
pub mod harness;
pub mod paper;
pub mod smoke;

pub use args::ExpArgs;
pub use harness::{bench_config, detectors_for_table2, make_dataset, run_method, seeds};

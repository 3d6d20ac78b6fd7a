//! # socbus-bench — the experiment harness
//!
//! Assembles full design points (code structure + measured codec costs +
//! bus electrical model + optional voltage scaling) and regenerates every
//! table and figure of the paper's evaluation. Each `src/bin/*.rs` binary
//! reproduces one table or figure; this library holds the shared design
//! assembly ([`designs`]) and plain-text table formatting ([`fmt`]).

pub mod codec;
pub mod designs;
pub mod dvs;
pub mod fmt;
pub mod health;
pub mod host;
pub mod mesh;
pub mod rare;
pub mod reliability;
pub mod soak;
pub mod sweeps;

pub use designs::{design_point, residual_model_for, DesignOptions};
pub use sweeps::{sweep_lambda, sweep_length, sweep_width, Metric};

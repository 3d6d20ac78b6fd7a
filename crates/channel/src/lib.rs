//! # socbus-channel — DSM noise, reliability measurement, voltage scaling
//!
//! The paper treats the bus as a *noisy channel*: additive Gaussian noise
//! gives each wire a bit-error probability `ε = Q(Vdd/2σ)` (eq. (5)), and
//! error-control coding converts redundancy into either reliability or —
//! via low-swing signaling — energy savings (eq. (11)).
//!
//! * [`awgn`] — Gaussian and i.i.d. bit-flip channel models;
//! * [`fault`] — composable seeded fault injection beyond the i.i.d.
//!   assumption: Gilbert–Elliott bursts, stuck-at and bridged wires, and
//!   transient voltage droop;
//! * [`montecarlo`] — residual word-error measurement through real
//!   codecs, validating eqs. (7)–(9) and Appendix II;
//! * [`rare`] — rare-event estimation (importance sampling, multilevel
//!   splitting, exhaustive-enumeration oracle) reaching the WER ≤ 1e-12
//!   regime plain Monte-Carlo cannot;
//! * [`scaling`] — the eq. (11) voltage-scaling solver behind the
//!   paper's Table III `V̂dd` column.
//!
//! # Example
//!
//! ```
//! use socbus_channel::scaling::{scale_voltage, ResidualModel};
//!
//! // A 32-bit Hamming bus can run below the nominal 1.2 V while meeting
//! // the same 1e-20 word-error target as the uncoded bus.
//! let d = scale_voltage(ResidualModel::DoubleError { wires: 38 }, 32, 1e-20, 1.2);
//! assert!(d.scaled_vdd < 1.0);
//! assert!(d.energy_scale() < 0.7);
//! ```

pub mod awgn;
pub mod fault;
mod flip_stream;
pub mod montecarlo;
pub mod rare;
pub mod scaling;

pub use awgn::{BitFlipChannel, GaussianChannel};
pub use fault::{
    rescale_eps, BridgeFault, BridgeMode, DroopFault, FaultInjector, FaultModel, FaultSpec,
    GilbertElliott, IidFault, StuckAtFault,
};
pub use montecarlo::{
    mc_shards, word_error_rate, word_error_rate_parallel, word_error_rate_parallel_traced,
    word_error_rate_traced, WeightedTally, WordErrorEstimate,
};
pub use rare::{RareChannel, Twist};
pub use scaling::{scale_voltage, try_scale_voltage, ResidualModel, ScaledDesign, ScalingError};

//! # socbus-netlist — gate-level codec synthesis substrate
//!
//! The paper reports codec area, delay, and energy from netlists
//! synthesized with a commercial 0.13-µm standard-cell flow. This crate
//! plays that flow's role, fully in Rust:
//!
//! * [`cell`] — a 0.13-µm standard-cell library (FO4 ≈ 45 ps);
//! * [`graph`] — a gate-level netlist with combinational evaluation and
//!   DFF state (cycle-accurate for the sequential codecs);
//! * [`builders`] — XOR trees, popcount, comparators;
//! * [`codecs`] — encoder/decoder netlist generators for every scheme in
//!   the catalog, read from the codecs in `socbus-codes`: linear encoders
//!   probed from the word form, one decoder per codec family;
//! * [`sta`] — static timing analysis (critical path) and area roll-up;
//! * [`power`] — toggle-count power estimation over simulated traffic;
//! * [`cost`] — the combined [`CodecCost`] measurement used by the
//!   benches to fill the paper's "Codec" table columns.
//!
//! # Example
//!
//! ```
//! use socbus_codes::Scheme;
//! use socbus_netlist::{cell::CellLibrary, cost::codec_cost};
//!
//! let lib = CellLibrary::cmos_130nm();
//! let dap = codec_cost(Scheme::Dap, 4, &lib, 500, 7);
//! let ham = codec_cost(Scheme::Hamming, 4, &lib, 500, 7);
//! // DAP's codec is cheaper than Hamming's despite equal correction.
//! assert!(dap.area < ham.area * 1.5);
//! ```

pub mod builders;
pub mod cell;
pub mod codecs;
pub mod cost;
pub mod gf_logic;
pub mod graph;
pub mod power;
pub mod sta;

pub use cell::{CellKind, CellLibrary, CellParams};
pub use codecs::{synthesize, CodecPair};
pub use cost::{codec_cost, CodecCost};
pub use graph::{Netlist, Node, NodeId};
pub use power::{simulate, simulate_random, PowerReport};
pub use sta::{analyze, area, TimingReport};

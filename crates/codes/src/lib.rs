//! # socbus-codes — the unified bus-coding framework
//!
//! The paper's primary contribution (Sridhara & Shanbhag, DAC 2004 /
//! TVLSI 2005): a framework that composes **low-power codes** (LPC),
//! **crosstalk-avoidance codes** (CAC), and **error-control codes** (ECC)
//! into joint codes that trade off bus delay, codec latency, power, area,
//! and reliability on deep-submicron on-chip buses.
//!
//! * [`traits`] — the [`BusCode`] abstraction all schemes implement;
//! * [`batch`] — bit-sliced [`WordBlock`]s, [`BatchCode`] (the block form
//!   of a codec), [`Codec`] (both forms over one state) and the plane
//!   stages the codecs compose: 64 words per bitwise op for the
//!   Monte-Carlo and mesh hot loops;
//! * [`catalog`] — every evaluated scheme constructible by name: one
//!   codec type per scheme ([`Scheme::codec`]) and one statement of the
//!   widths it builds at ([`Scheme::check`]);
//! * [`lpc`] — bus-invert `BI(i)` and its sub-bus partition;
//! * [`cac`] — shielding, duplication, FTC (Fibonacci codebooks), FPC;
//! * [`ecc`] — parity, the Hamming family ([`Hamming`]: Hamming,
//!   HammingX, BIH, extended Hamming and the sabotaged self-test
//!   decoder), BCH;
//! * [`joint`] — the duplicate-add-parity family ([`Dap`]: **DAP**,
//!   **DAPX**, **DAPBI** and the BSC baseline) and **FTC+HC**;
//! * [`framework`] — the generic Fig.-4 composer with the five
//!   composition-legality rules;
//! * [`analysis`] — delay-class / energy / distance measurement of any
//!   code (the numbers behind the paper's tables);
//! * [`theory`] — executable Appendix I (no linear CAC beats shielding or
//!   duplication);
//! * [`kernels`] — the process-wide codebook cache and O(1) inverse
//!   decode tables behind the FPC/FTC hot path.
//!
//! # Example
//!
//! ```
//! use socbus_codes::{BusCode, Dap};
//! use socbus_model::{DelayClass, Word};
//!
//! // DAP: single-error correction at CAC delay with 2k+1 wires.
//! let mut dap = Dap::new(8);
//! let data = Word::from_bits(0x5A, 8);
//! let mut wire_word = dap.encode(data);
//! wire_word.set_bit(3, !wire_word.bit(3)); // a DSM noise hit
//! assert_eq!(dap.decode(wire_word), data);
//! assert_eq!(dap.guaranteed_delay_class(), DelayClass::CAC);
//! ```

pub mod analysis;
pub mod batch;
pub mod cac;
pub mod catalog;
pub mod ecc;
pub mod framework;
pub mod joint;
pub mod kernels;
pub mod lpc;
pub mod theory;
pub mod traits;

pub use batch::{
    batch_build, batch_is_native, BatchCode, BlockStatus, Codec, WordBlock, BLOCK_WORDS,
};
pub use cac::{Duplication, ForbiddenPatternCode, ForbiddenTransitionCode, Shielding};
pub use catalog::Scheme;
pub use ecc::{BchDec, Hamming, ParityBit};
pub use framework::{ComposedCode, CompositionError, Framework};
pub use joint::{Dap, FtcHc};
pub use kernels::{codebook_builds, codebook_kernel, BookKey, CodebookKernel};
pub use lpc::{BusInvert, CouplingBusInvert, SubBus};
pub use traits::{BusCode, CloneBusCode, DecodeStatus, Uncoded};

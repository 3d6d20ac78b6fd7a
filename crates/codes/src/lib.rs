//! # socbus-codes — the unified bus-coding framework
//!
//! The paper's primary contribution (Sridhara & Shanbhag, DAC 2004 /
//! TVLSI 2005): a framework that composes **low-power codes** (LPC),
//! **crosstalk-avoidance codes** (CAC), and **error-control codes** (ECC)
//! into joint codes that trade off bus delay, codec latency, power, area,
//! and reliability on deep-submicron on-chip buses.
//!
//! * [`traits`] — the [`BusCode`] abstraction all schemes implement;
//! * [`lpc`] — bus-invert `BI(i)`;
//! * [`cac`] — shielding, duplication, half-shielding, FTC (Fibonacci
//!   codebooks), FPC;
//! * [`ecc`] — parity, systematic Hamming, extended Hamming;
//! * [`joint`] — the paper's derived codes: **DAP**, **DAPX**, **DAPBI**,
//!   **BIH**, **HammingX**, **FTC+HC**, and the BSC baseline;
//! * [`framework`] — the generic Fig.-4 composer with the five
//!   composition-legality rules;
//! * [`analysis`] — delay-class / energy / distance measurement of any
//!   code (the numbers behind the paper's tables);
//! * [`theory`] — executable Appendix I (no linear CAC beats shielding or
//!   duplication);
//! * [`kernels`] — the process-wide codebook cache and O(1) inverse
//!   decode tables behind the FPC/FTC hot path;
//! * [`batch`] — bit-sliced [`WordBlock`] batch codecs: 64 words per
//!   bitwise op for the Monte-Carlo and mesh hot loops;
//! * [`catalog`] — every evaluated scheme constructible by name.
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
pub mod sabotage;
pub mod theory;
pub mod traits;

pub use batch::{batch_build, batch_is_native, BatchCode, BlockStatus, WordBlock, BLOCK_WORDS};
pub use cac::{
    Duplication, ForbiddenPatternCode, ForbiddenTransitionCode, HalfShielding, Shielding,
};
pub use catalog::Scheme;
pub use ecc::{BchDec, ExtendedHamming, Hamming, ParityBit};
pub use framework::{ComposedCode, CompositionError, Framework};
pub use joint::{Bih, Bsc, Dap, Dapbi, Dapx, FtcHc, HammingX};
pub use kernels::{codebook_builds, codebook_kernel, BookKey, CodebookKernel};
pub use lpc::{BusInvert, CouplingBusInvert};
pub use sabotage::SabotagedHamming;
pub use traits::{BusCode, CloneBusCode, DecodeStatus, Uncoded};

//! Joint codes derived from the unified framework (paper §III, Table I).
//!
//! | Code | CAC | LPC | ECC | LXC1 | LXC2 | Paper |
//! |------|-----|-----|-----|------|------|-------|
//! | [`Dap`]      | duplication | — | parity | — | — | §III-C |
//! | [`Dapx`]     | duplication | — | parity | — | duplication | §III-E |
//! | [`Dapbi`]    | duplication | BI(1) | parity | duplication | — | §III-D |
//! | [`Bih`]      | — | BI(1) | Hamming | — | — | §III-B |
//! | [`HammingX`] | — | — | Hamming | — | half-shielding | §III-E |
//! | [`FtcHc`]    | FTC | — | Hamming | — | shielding | §III-C |
//! | [`Bsc`]      | boundary shift | — | parity | — | — | baseline \[19\] |

mod bih;
mod bsc;
mod dap;
mod dapbi;
mod dapx;
mod ftc_hc;
mod hamming_x;

pub use bih::Bih;
pub use bsc::Bsc;
pub use dap::Dap;
pub use dapbi::Dapbi;
pub use dapx::Dapx;
pub use ftc_hc::FtcHc;
pub use hamming_x::HammingX;

pub(crate) use ftc_hc::parity_layout as ftc_hc_parity_layout;
pub(crate) use hamming_x::parity_layout as hamming_x_parity_layout;

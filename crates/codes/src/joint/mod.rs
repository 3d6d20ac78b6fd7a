//! Joint codes derived from the unified framework (paper §III, Table I).
//!
//! | Code | CAC | LPC | ECC | LXC1 | LXC2 | Paper | Constructor |
//! |------|-----|-----|-----|------|------|-------|-------------|
//! | DAP      | duplication | — | parity | — | — | §III-C | [`Dap::new`] |
//! | DAPX     | duplication | — | parity | — | duplication | §III-E | [`Dap::dapx`] |
//! | DAPBI    | duplication | BI(1) | parity | duplication | — | §III-D | [`Dap::dapbi`] |
//! | BSC      | boundary shift | — | parity | — | — | baseline \[19\] | [`Dap::bsc`] |
//! | BIH      | — | BI(1) | Hamming | — | — | §III-B | [`crate::Hamming::bih`] |
//! | HammingX | — | — | Hamming | — | half-shielding | §III-E | [`crate::Hamming::hamming_x`] |
//! | FTC+HC   | FTC | — | Hamming | — | shielding | §III-C | [`FtcHc::new`] |
//!
//! The duplicate-add-parity family is one type, [`Dap`]; the Hamming
//! family lives with its ECC in [`crate::ecc`].

mod dap;
mod ftc_hc;

pub use dap::Dap;
pub use ftc_hc::FtcHc;

//! Error-control codes (ECC).
//!
//! The paper restricts itself to *linear, systematic* ECC (framework
//! condition 4): the data bits cross the bus unmodified, so an upstream
//! LPC's activity reduction and CAC's transition constraint survive, and
//! only the appended parity bits need their own (linear) crosstalk
//! protection.
//!
//! * [`ParityBit`] — distance-2 single-error *detection*; the ECC atom of
//!   the DAP family.
//! * [`Hamming`] — distance-3 single-error correction with `m ~ log2 k`
//!   parity bits (the paper's reliability baseline), and the family built
//!   on its syndrome structure: HammingX, BIH, distance-4 SEC-DED
//!   extended Hamming, and the sabotaged self-test decoder;
//! * [`BchDec`] — distance-5 double-error-correcting BCH, the stronger
//!   code the paper's §V names for aggressive supply scaling.

mod bch;
pub mod gf;
mod hamming;
mod parity;

pub(crate) use bch::bch_parity_bits;
pub use bch::BchDec;
pub use hamming::{hamming_parity_bits, Hamming};
pub use parity::ParityBit;

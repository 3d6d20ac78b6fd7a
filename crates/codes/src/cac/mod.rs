//! Crosstalk-avoidance codes (CAC).
//!
//! The delay of a wire depends on its own and its neighbors' transitions
//! (model eq. (1)); the worst case `(1+4λ)τ0` occurs when both neighbors
//! switch against the victim. CACs restrict codeword transitions so the
//! worst case is `(1+2λ)τ0`, via one of two conditions:
//!
//! * **Forbidden transition (FT)**: no transition may drive adjacent wires
//!   in opposite directions. Satisfied trivially by [`Shielding`]; with
//!   fewer wires by the Fibonacci-codebook [`ForbiddenTransitionCode`].
//! * **Forbidden pattern (FP)**: no codeword contains `010` or `101`.
//!   Satisfied trivially by [`Duplication`]; general FP codebooks are
//!   provided by [`ForbiddenPatternCode`].
//!
//! Appendix I of the paper proves no *linear* code beats shielding (FT) or
//! duplication (FP); see [`crate::theory`] for the executable check.

mod duplication;
mod fpc;
mod ftc;
mod shielding;

pub(crate) use duplication::duplicated;
pub use duplication::Duplication;
pub(crate) use fpc::enumerate_fp_book;
pub use fpc::{fp_condition, fpc_codebook, fpc_wires_for_bits, ForbiddenPatternCode};
pub use ftc::{
    ft_compatible, ftc_codebook, ftc_groups, ftc_wires_for_bits, ForbiddenTransitionCode,
};
pub(crate) use ftc::{ftc_info_bits, search_ft_book};
pub use shielding::Shielding;

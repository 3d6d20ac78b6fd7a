//! Forbidden-pattern codes (FPC) — Duan, Tirumala & Khatri's CAC.
//!
//! A codeword satisfies the **FP condition** when it contains neither the
//! bit pattern `010` nor `101` anywhere. If every codeword in a codebook
//! satisfies it, every transition has worst-case delay `(1 + 2λ)τ0` —
//! a *memoryless* per-codeword condition, unlike the pairwise FT
//! condition. The number of FP words on `n` wires is `2·F(n+1)`
//! (Fibonacci), so the asymptotic overhead approaches `1/log2(φ) ≈ 1.44×`,
//! below duplication's 2×.
//!
//! Because the FP condition survives complementation (`010`/`101` swap
//! into each other's absence), FP codebooks — unlike FT ones — compose
//! with bus-invert low-power coding (paper §III-A).

use std::sync::Arc;

use crate::batch::{BlockStatus, LookupStage, Planes, WordBlock};
use crate::kernels::{codebook_kernel, BookKey, CodebookKernel};
use crate::traits::{BusCode, DecodeStatus};
use socbus_model::{DelayClass, Word};

/// Whether `w` contains no `010` or `101` pattern.
#[must_use]
pub fn fp_condition(w: Word) -> bool {
    for i in 0..w.width().saturating_sub(2) {
        let (a, b, c) = (w.bit(i), w.bit(i + 1), w.bit(i + 2));
        if a == c && a != b {
            return false;
        }
    }
    true
}

/// The raw enumeration behind [`fpc_codebook`] — called through the
/// process-wide cache in [`crate::kernels`], at most once per `wires`.
pub(crate) fn enumerate_fp_book(wires: usize) -> Vec<Word> {
    assert!(
        (1..=24).contains(&wires),
        "fpc_codebook supports 1..=24 wires"
    );
    Word::enumerate_all(wires)
        .filter(|&w| fp_condition(w))
        .collect()
}

/// All FP-condition words on `wires` wires, ascending. Memoized: the
/// enumeration runs once per process per wire count; repeated calls
/// clone the cached book.
///
/// # Panics
///
/// Panics if `wires == 0` or `wires > 24` (enumeration guard).
#[must_use]
pub fn fpc_codebook(wires: usize) -> Vec<Word> {
    crate::kernels::fp_book(wires).as_ref().clone()
}

/// Smallest wire count whose FP codebook holds `2^bits` codewords.
#[must_use]
pub fn fpc_wires_for_bits(bits: usize) -> usize {
    for wires in 1..=24 {
        // |FP(n)| = 2·F(n+1); grow until it covers the data alphabet.
        if fpc_codebook_len(wires) >= 1usize << bits {
            return wires;
        }
    }
    panic!("no FP codebook within 24 wires for {bits} bits");
}

fn fpc_codebook_len(wires: usize) -> usize {
    // a(1)=2, a(2)=4, a(n) = a(n-1) + a(n-2)  (2·Fibonacci).
    let (mut prev, mut cur) = (2usize, 4usize);
    match wires {
        1 => return 2,
        2 => return 4,
        _ => {}
    }
    for _ in 3..=wires {
        let next = prev + cur;
        prev = cur;
        cur = next;
    }
    cur
}

/// Single-group forbidden-pattern code: `k` data bits mapped onto the
/// first `2^k` FP codewords of the minimal wire count.
///
/// This is the general (non-duplication) FPC; the paper's DAP family uses
/// [`super::Duplication`] — the trivial FPC — because its decoder is a
/// wire permutation. `ForbiddenPatternCode` exists to quantify the
/// rate/complexity tradeoff between the two (see the ablation bench).
///
/// # Examples
///
/// ```
/// use socbus_codes::{BusCode, ForbiddenPatternCode};
/// use socbus_model::Word;
///
/// let mut fpc = ForbiddenPatternCode::new(4);
/// assert!(fpc.wires() < 8, "beats duplication's 2k wires");
/// let d = Word::from_bits(0b1011, 4);
/// let coded = fpc.encode(d);
/// assert_eq!(fpc.decode(coded), d);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForbiddenPatternCode {
    k: usize,
    wires: usize,
    kernel: Arc<CodebookKernel>,
}

impl ForbiddenPatternCode {
    /// FPC over `k` data bits (single group). The codebook and its
    /// inverse decode table come from the process-wide kernel cache:
    /// constructing any number of codecs enumerates the book once.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > 16` (single-group table size guard).
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(
            (1..=16).contains(&k),
            "single-group FPC supports 1..=16 bits"
        );
        let kernel = codebook_kernel(BookKey::Fpc { k });
        let wires = kernel.wires();
        ForbiddenPatternCode { k, wires, kernel }
    }

    /// The codebook in data-index order.
    #[must_use]
    pub fn codebook(&self) -> &[Word] {
        self.kernel.book()
    }

    /// The reference linear-scan decoder (exact match, then first-
    /// minimum nearest codeword — the same lowest-index tie-break as
    /// [`BusCode::decode`]). Kept for the decode-equivalence tests and
    /// the `bench --bin codec` scan baseline.
    #[must_use]
    pub fn decode_scan(&self, bus: Word) -> Word {
        assert_eq!(bus.width(), self.wires, "bus width mismatch");
        let (idx, _) = self.kernel.decode_index_scan(bus);
        Word::from_bits(idx as u128, self.k)
    }
}

impl BusCode for ForbiddenPatternCode {
    fn name(&self) -> String {
        "FPC".into()
    }

    fn data_bits(&self) -> usize {
        self.k
    }

    fn wires(&self) -> usize {
        self.wires
    }

    fn encode(&mut self, data: Word) -> Word {
        assert_eq!(data.width(), self.k, "data width mismatch");
        self.kernel.book()[data.bits() as usize]
    }

    /// Decodes via the kernel's inverse table: the exact match when
    /// `bus` is a codeword, else the **nearest codeword by Hamming
    /// distance, lowest codebook index on ties** — the pinned fallback
    /// contract (identical to a first-minimum linear scan, which the
    /// equivalence tests verify exhaustively).
    fn decode(&mut self, bus: Word) -> Word {
        assert_eq!(bus.width(), self.wires, "bus width mismatch");
        let (idx, _) = self.kernel.decode_index(bus);
        Word::from_bits(idx as u128, self.k)
    }

    /// Like [`BusCode::decode`], but reports whether the received word
    /// was a valid codeword: a non-codeword bus yields
    /// [`DecodeStatus::Detected`] (best-effort nearest data) instead of
    /// being silently mapped. FPC guarantees no minimum distance
    /// ([`BusCode::detectable_errors`] stays 0) — the status is
    /// best-effort membership checking, not a detection promise.
    fn decode_checked(&mut self, bus: Word) -> (Word, DecodeStatus) {
        assert_eq!(bus.width(), self.wires, "bus width mismatch");
        let (idx, exact) = self.kernel.decode_index(bus);
        let status = if exact {
            DecodeStatus::Clean
        } else {
            DecodeStatus::Detected
        };
        (Word::from_bits(idx as u128, self.k), status)
    }

    fn guaranteed_delay_class(&self) -> DelayClass {
        DelayClass::CAC
    }
}

/// The plane form: single-group lookups through the codebook kernel
/// (`LookupStage`).
impl Planes for ForbiddenPatternCode {
    fn encode_planes(&mut self, data: &WordBlock) -> WordBlock {
        LookupStage {
            kernel: &self.kernel,
        }
        .encode(data)
    }

    fn decode_planes(&mut self, bus: &WordBlock) -> (WordBlock, BlockStatus) {
        let vm = bus.valid_mask();
        let lookup = LookupStage {
            kernel: &self.kernel,
        };
        let (out, clean) = lookup.decode(bus, self.k);
        let status = BlockStatus {
            clean,
            detected: vm & !clean,
            ..BlockStatus::default()
        };
        (out, status)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socbus_model::{bus_delay_factor, TransitionVector};

    #[test]
    fn codebook_counts_are_2_fibonacci() {
        assert_eq!(fpc_codebook(1).len(), 2);
        assert_eq!(fpc_codebook(2).len(), 4);
        assert_eq!(fpc_codebook(3).len(), 6);
        assert_eq!(fpc_codebook(4).len(), 10);
        assert_eq!(fpc_codebook(5).len(), 16);
        assert_eq!(fpc_codebook(6).len(), 26);
        // closed form agrees with enumeration
        for n in 1..=10 {
            assert_eq!(fpc_codebook(n).len(), fpc_codebook_len(n), "n={n}");
        }
    }

    #[test]
    fn fp_condition_examples() {
        assert!(!fp_condition(Word::from_bits(0b010, 3)));
        assert!(!fp_condition(Word::from_bits(0b101, 3)));
        assert!(fp_condition(Word::from_bits(0b011, 3)));
        assert!(!fp_condition(Word::from_bits(0b11010, 5)));
    }

    #[test]
    fn four_bits_fit_on_five_wires() {
        // 2^4 = 16 = |FP(5)|: four bits need only five wires (vs 8 for
        // duplication).
        assert_eq!(fpc_wires_for_bits(4), 5);
        assert_eq!(ForbiddenPatternCode::new(4).wires(), 5);
    }

    #[test]
    fn roundtrip() {
        for k in 1..=6 {
            let mut c = ForbiddenPatternCode::new(k);
            for w in Word::enumerate_all(k) {
                assert_eq!(
                    {
                        let cw = c.encode(w);
                        c.decode(cw)
                    },
                    w,
                    "k={k}"
                );
            }
        }
    }

    #[test]
    fn any_fp_pair_transition_is_cac_class() {
        // The FP condition is per-codeword, so *every* pair of FP words
        // must transition within (1+2λ) — check exhaustively on 5 wires.
        let lambda = 2.8;
        let book = fpc_codebook(5);
        let mut worst: f64 = 0.0;
        for &a in &book {
            for &b in &book {
                let tv = TransitionVector::between(a, b);
                worst = worst.max(bus_delay_factor(&tv, lambda));
            }
        }
        assert!(
            worst <= DelayClass::CAC.factor(lambda) + 1e-12,
            "worst factor {worst}"
        );
    }

    #[test]
    fn complementing_an_fp_word_preserves_fp() {
        for &w in &fpc_codebook(6) {
            assert!(fp_condition(w.not()), "complement of {w} violates FP");
        }
    }
}

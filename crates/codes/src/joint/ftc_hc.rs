//! FTC+HC: concatenated forbidden-transition code and Hamming code
//! (paper §III-C, Table I).

use crate::cac::ForbiddenTransitionCode;
use crate::ecc::Hamming;
use crate::traits::{BusCode, DecodeStatus};
use socbus_model::{DelayClass, Word};

/// FTC+HC: data goes through the FTC crosstalk-avoidance code; a Hamming
/// code protects the FTC code bits; the Hamming parity bits are fully
/// shielded (LXC2 = shielding, framework condition 5) so they share the
/// `(1 + 2λ)τ0` delay class.
///
/// The joint code is a plain concatenation of its components, which is why
/// the paper finds it dominated by DAP: equivalent bus-level guarantees at
/// much higher wire count and codec cost (Table II: 14 wires vs DAP's 9
/// for 4 bits; 65 vs 65 at 32 bits but with a far heavier codec).
///
/// Wire layout: `[FTC(data) with its internal shields, S, p0, S, p1, ...]`.
///
/// At the decoder, error correction runs first (the ECC is systematic over
/// the FTC bits), then the corrected FTC word is mapped back to data —
/// the ordering the framework's condition 1 mandates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FtcHc {
    ftc: ForbiddenTransitionCode,
    hamming: Hamming,
    /// Bus wire index of each FTC code bit.
    code_wires: Vec<usize>,
    /// Bus wire index of each Hamming parity bit.
    parity_wires: Vec<usize>,
    wires: usize,
}

impl FtcHc {
    /// FTC+HC over `k` data bits.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or the coded bus exceeds the word limit.
    #[must_use]
    pub fn new(k: usize) -> Self {
        let ftc = ForbiddenTransitionCode::new(k);
        let code_wires = ftc.info_wires();
        let hamming = Hamming::new(code_wires.len());
        let (parity_wires, wires) = parity_layout(ftc.wires(), hamming.parity_bits());
        FtcHc {
            ftc,
            hamming,
            code_wires,
            parity_wires,
            wires,
        }
    }

    /// Number of Hamming parity bits (excluding shields).
    #[must_use]
    pub fn parity_bits(&self) -> usize {
        self.hamming.parity_bits()
    }
}

/// FTC+HC's parity placement after an FTC region of `ftc_wires` wires:
/// the bus wire of each of the `m` Hamming parity bits (a boundary
/// shield, then parity wires separated by shields) and the total wire
/// count.
///
/// # Panics
///
/// Panics if the coded bus exceeds the word limit.
pub(crate) fn parity_layout(ftc_wires: usize, m: usize) -> (Vec<usize>, usize) {
    let parity_wires: Vec<usize> = (0..m).map(|j| ftc_wires + 1 + 2 * j).collect();
    let wires = ftc_wires + 2 * m;
    assert!(wires <= socbus_model::word::MAX_WIDTH, "bus too wide");
    (parity_wires, wires)
}

impl BusCode for FtcHc {
    fn name(&self) -> String {
        "FTC+HC".into()
    }

    fn data_bits(&self) -> usize {
        self.ftc.data_bits()
    }

    fn wires(&self) -> usize {
        self.wires
    }

    fn encode(&mut self, data: Word) -> Word {
        let ftc_word = self.ftc.encode(data);
        let mut code_bits = Word::zero(self.code_wires.len());
        for (i, &w) in self.code_wires.iter().enumerate() {
            code_bits.set_bit(i, ftc_word.bit(w));
        }
        let ham_word = self.hamming.encode(code_bits);
        let mut out = Word::zero(self.wires);
        for w in 0..self.ftc.wires() {
            out.set_bit(w, ftc_word.bit(w));
        }
        for (j, &pw) in self.parity_wires.iter().enumerate() {
            out.set_bit(pw, ham_word.bit(self.code_wires.len() + j));
        }
        out
    }

    fn decode(&mut self, bus: Word) -> Word {
        self.decode_checked(bus).0
    }

    fn decode_checked(&mut self, bus: Word) -> (Word, DecodeStatus) {
        assert_eq!(bus.width(), self.wires, "bus width mismatch");
        let mut ham_word = Word::zero(self.hamming.wires());
        for (i, &w) in self.code_wires.iter().enumerate() {
            ham_word.set_bit(i, bus.bit(w));
        }
        for (j, &pw) in self.parity_wires.iter().enumerate() {
            ham_word.set_bit(self.code_wires.len() + j, bus.bit(pw));
        }
        let (code_bits, status) = self.hamming.decode_checked(ham_word);
        let mut ftc_word = Word::zero(self.ftc.wires());
        for (i, &w) in self.code_wires.iter().enumerate() {
            ftc_word.set_bit(w, code_bits.bit(i));
        }
        (self.ftc.decode(ftc_word), status)
    }

    fn correctable_errors(&self) -> usize {
        1
    }

    fn guaranteed_delay_class(&self) -> DelayClass {
        DelayClass::CAC
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socbus_model::{bus_delay_factor, TransitionVector};

    #[test]
    fn wire_counts_match_paper() {
        assert_eq!(FtcHc::new(4).wires(), 14); // Table II
                                               // Table III lists 65 for 32 bits: FTC 53 code region carries 43
                                               // info bits -> m = 6 parity -> 53 + 1 + 11 = 65.
        assert_eq!(FtcHc::new(32).wires(), 65);
    }

    #[test]
    fn roundtrip_clean() {
        let mut c = FtcHc::new(4);
        for w in Word::enumerate_all(4) {
            let (d, s) = {
                let cw = c.encode(w);
                c.decode_checked(cw)
            };
            assert_eq!(d, w);
            assert_eq!(s, DecodeStatus::Clean);
        }
    }

    #[test]
    fn corrects_every_single_error_exhaustive() {
        let mut c = FtcHc::new(4);
        for w in Word::enumerate_all(4) {
            let cw = c.encode(w);
            for i in 0..cw.width() {
                let bad = cw.with_bit(i, !cw.bit(i));
                assert_eq!(c.decode(bad), w, "flip wire {i} of {cw}");
            }
        }
    }

    #[test]
    fn whole_bus_stays_in_cac_class() {
        let lambda = 2.8;
        let mut c = FtcHc::new(4);
        let mut worst: f64 = 0.0;
        for b in Word::enumerate_all(4) {
            for a in Word::enumerate_all(4) {
                let tv = TransitionVector::between(c.encode(b), c.encode(a));
                worst = worst.max(bus_delay_factor(&tv, lambda));
            }
        }
        assert!(
            worst <= DelayClass::CAC.factor(lambda) + 1e-12,
            "worst factor {worst}"
        );
    }
}

//! Wire duplication: the trivial forbidden-pattern code.

use crate::batch::{BlockStatus, Planes, WordBlock};
use crate::catalog::Scheme;
use crate::traits::{BusCode, DecodeStatus};
use socbus_model::{DelayClass, Word};

/// `data` with every bit driven on two adjacent wires, the pairs starting
/// at wire `lo` of a `width`-wire word (bit `i` on wires `lo + 2i` and
/// `lo + 2i + 1`): the wiring shared by duplication and the DAP family.
pub(crate) fn duplicated(data: Word, width: usize, lo: usize) -> Word {
    data.spread2(width, lo).or(data.spread2(width, lo + 1))
}

/// Duplication: every data bit driven on two adjacent wires —
/// `k` data bits on `2k` wires.
///
/// No codeword can contain `010` or `101` (bits come in equal pairs), so
/// the FP condition holds and the worst-case delay is `(1 + 2λ)τ0`.
/// Duplication is the CAC component of the paper's DAP-family joint codes
/// and doubles as a distance-2 error-detecting code.
///
/// Wire layout: `[d0, d0, d1, d1, ..., d(k-1), d(k-1)]`.
///
/// Decoding uses the even copy of each pair; [`Duplication::mismatch_mask`]
/// exposes pairs whose copies disagree (single-wire error detection).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Duplication {
    k: usize,
}

impl Duplication {
    /// Duplicated `k`-bit bus.
    ///
    /// # Panics
    ///
    /// Panics where [`Scheme::check`] rejects `k`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        Scheme::Duplication.assert_builds(k);
        Duplication { k }
    }

    /// Data-bit positions whose two copies disagree in `bus` — a nonzero
    /// mask means a detectable error.
    ///
    /// # Panics
    ///
    /// Panics if `bus.width() != 2k`.
    #[must_use]
    pub fn mismatch_mask(&self, bus: Word) -> Word {
        assert_eq!(bus.width(), self.wires(), "bus width mismatch");
        bus.gather2(0, self.k).xor(bus.gather2(1, self.k))
    }
}

impl BusCode for Duplication {
    fn name(&self) -> String {
        "Duplication".into()
    }

    fn data_bits(&self) -> usize {
        self.k
    }

    fn wires(&self) -> usize {
        2 * self.k
    }

    fn encode(&mut self, data: Word) -> Word {
        assert_eq!(data.width(), self.k, "data width mismatch");
        duplicated(data, self.wires(), 0)
    }

    fn decode(&mut self, bus: Word) -> Word {
        assert_eq!(bus.width(), self.wires(), "bus width mismatch");
        bus.gather2(0, self.k)
    }

    fn detectable_errors(&self) -> usize {
        1
    }

    fn decode_checked(&mut self, bus: Word) -> (Word, DecodeStatus) {
        let status = if self.mismatch_mask(bus).count_ones() == 0 {
            DecodeStatus::Clean
        } else {
            DecodeStatus::Detected
        };
        (self.decode(bus), status)
    }

    fn guaranteed_delay_class(&self) -> DelayClass {
        DelayClass::CAC
    }
}

/// The plane form: lane fan-out on encode, pairwise XOR/OR mismatch
/// planes on the membership check.
impl Planes for Duplication {
    fn encode_planes(&mut self, data: &WordBlock) -> WordBlock {
        let mut out = WordBlock::zero(self.wires(), data.len());
        for i in 0..self.k {
            *out.lane_mut(2 * i) = data.lane(i);
            *out.lane_mut(2 * i + 1) = data.lane(i);
        }
        out
    }

    fn decode_planes(&mut self, bus: &WordBlock) -> (WordBlock, BlockStatus) {
        let mut out = WordBlock::zero(self.k, bus.len());
        for i in 0..self.k {
            *out.lane_mut(i) = bus.lane(2 * i);
        }
        let vm = bus.valid_mask();
        let mismatch =
            (0..self.k).fold(0u64, |acc, i| acc | (bus.lane(2 * i) ^ bus.lane(2 * i + 1)));
        let status = BlockStatus {
            clean: vm & !mismatch,
            detected: mismatch & vm,
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
    fn roundtrip() {
        let mut c = Duplication::new(4);
        for w in Word::enumerate_all(4) {
            assert_eq!(
                {
                    let cw = c.encode(w);
                    c.decode(cw)
                },
                w
            );
        }
    }

    #[test]
    fn codewords_have_no_forbidden_patterns() {
        let mut c = Duplication::new(4);
        for w in Word::enumerate_all(4) {
            let cw = c.encode(w);
            for i in 0..cw.width() - 2 {
                let pat = (cw.bit(i), cw.bit(i + 1), cw.bit(i + 2));
                assert_ne!(pat, (false, true, false), "010 in {cw}");
                assert_ne!(pat, (true, false, true), "101 in {cw}");
            }
        }
    }

    #[test]
    fn worst_case_delay_is_cac_class() {
        let lambda = 1.3;
        let mut c = Duplication::new(3);
        let mut worst: f64 = 0.0;
        for b in Word::enumerate_all(3) {
            for a in Word::enumerate_all(3) {
                let tv = TransitionVector::between(c.encode(b), c.encode(a));
                worst = worst.max(bus_delay_factor(&tv, lambda));
            }
        }
        assert!((worst - DelayClass::CAC.factor(lambda)).abs() < 1e-12);
    }

    #[test]
    fn minimum_distance_is_two() {
        let mut c = Duplication::new(3);
        let mut min = u32::MAX;
        for b in Word::enumerate_all(3) {
            for a in Word::enumerate_all(3) {
                if a != b {
                    min = min.min(c.encode(a).hamming_distance(c.encode(b)));
                }
            }
        }
        assert_eq!(min, 2);
    }

    #[test]
    fn decode_checked_reports_pair_mismatch() {
        let mut c = Duplication::new(4);
        let cw = c.encode(Word::from_bits(0b0110, 4));
        assert_eq!(c.decode_checked(cw).1, DecodeStatus::Clean);
        let corrupted = cw.with_bit(0, !cw.bit(0));
        let (_, status) = c.decode_checked(corrupted);
        assert_eq!(status, DecodeStatus::Detected);
    }

    #[test]
    fn mismatch_mask_flags_corrupted_pair() {
        let mut c = Duplication::new(4);
        let cw = c.encode(Word::from_bits(0b1010, 4));
        assert_eq!(c.mismatch_mask(cw).count_ones(), 0);
        let corrupted = cw.with_bit(5, !cw.bit(5)); // second copy of bit 2
        let mask = c.mismatch_mask(corrupted);
        assert_eq!(mask.count_ones(), 1);
        assert!(mask.bit(2));
    }
}

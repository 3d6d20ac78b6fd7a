//! Wire shielding: the trivial forbidden-transition code.

use crate::batch::{BlockStatus, Planes, WordBlock};
use crate::catalog::Scheme;
use crate::traits::{BusCode, DecodeStatus};
use socbus_model::{DelayClass, Word};

/// Shielding: a grounded wire between every pair of data wires —
/// `k` data bits on `2k − 1` wires.
///
/// Every switching wire has only grounded neighbors, so its delay is at
/// most `(1 + 2λ)τ0` (the shields still present their coupling
/// capacitance). No codec logic is required, which is why the paper's
/// Table III shows shielding with zero codec overhead — at the price of the
/// largest wire count and no power or reliability benefit.
///
/// Wire layout: `[d0, S, d1, S, ..., d(k-1)]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Shielding {
    k: usize,
}

impl Shielding {
    /// Shielded `k`-bit bus.
    ///
    /// # Panics
    ///
    /// Panics where [`Scheme::check`] rejects `k`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        Scheme::Shielding.assert_builds(k);
        Shielding { k }
    }
}

impl BusCode for Shielding {
    fn name(&self) -> String {
        "Shielding".into()
    }

    fn data_bits(&self) -> usize {
        self.k
    }

    fn wires(&self) -> usize {
        2 * self.k - 1
    }

    fn encode(&mut self, data: Word) -> Word {
        assert_eq!(data.width(), self.k, "data width mismatch");
        data.spread2(self.wires(), 0)
    }

    fn decode(&mut self, bus: Word) -> Word {
        assert_eq!(bus.width(), self.wires(), "bus width mismatch");
        bus.gather2(0, self.k)
    }

    /// Like [`BusCode::decode`], but reports whether the received bus was
    /// a valid codeword: the encoder grounds every odd (shield) wire, so a
    /// set shield marks the word [`DecodeStatus::Detected`]. Flips on data
    /// wires are invisible — every data pattern is a codeword — so
    /// [`BusCode::detectable_errors`] stays 0; the status is best-effort
    /// membership checking, not a detection promise.
    fn decode_checked(&mut self, bus: Word) -> (Word, DecodeStatus) {
        let out = self.decode(bus);
        let shields_clear = bus.gather2(1, self.k - 1).count_ones() == 0;
        let status = if shields_clear {
            DecodeStatus::Clean
        } else {
            DecodeStatus::Detected
        };
        (out, status)
    }

    fn guaranteed_delay_class(&self) -> DelayClass {
        DelayClass::CAC
    }
}

/// The plane form: a pure lane remap, plus an OR tree over the shield
/// lanes for the membership check.
impl Planes for Shielding {
    fn encode_planes(&mut self, data: &WordBlock) -> WordBlock {
        let mut out = WordBlock::zero(self.wires(), data.len());
        for i in 0..self.k {
            *out.lane_mut(2 * i) = data.lane(i);
        }
        out
    }

    fn decode_planes(&mut self, bus: &WordBlock) -> (WordBlock, BlockStatus) {
        let mut out = WordBlock::zero(self.k, bus.len());
        for i in 0..self.k {
            *out.lane_mut(i) = bus.lane(2 * i);
        }
        let vm = bus.valid_mask();
        let shields = (0..self.k - 1).fold(0u64, |acc, i| acc | bus.lane(2 * i + 1));
        let status = BlockStatus {
            clean: vm & !shields,
            detected: shields & vm,
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
        let mut c = Shielding::new(4);
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
    fn shields_stay_grounded() {
        let mut c = Shielding::new(3);
        let coded = c.encode(Word::from_bits(0b111, 3));
        assert_eq!(coded.to_string(), "10101");
    }

    #[test]
    fn wire_count_matches_paper() {
        // Table III: 32-bit shielded bus uses 63 wires.
        assert_eq!(Shielding::new(32).wires(), 63);
    }

    #[test]
    fn worst_case_delay_is_cac_class() {
        let lambda = 2.8;
        let mut c = Shielding::new(3);
        let mut worst: f64 = 0.0;
        for b in Word::enumerate_all(3) {
            for a in Word::enumerate_all(3) {
                let tv = TransitionVector::between(c.encode(b), c.encode(a));
                worst = worst.max(bus_delay_factor(&tv, lambda));
            }
        }
        assert!((worst - DelayClass::CAC.factor(lambda)).abs() < 1e-12);
    }
}

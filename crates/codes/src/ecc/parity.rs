//! Single even-parity bit: the minimal systematic ECC.

use crate::batch::{BlockStatus, Planes, WordBlock};
use crate::catalog::Scheme;
use crate::traits::{BusCode, DecodeStatus};
use socbus_model::Word;

/// Even parity over `k` data bits: `k + 1` wires, Hamming distance 2,
/// detects any single error.
///
/// Wire layout: `[d0, ..., d(k-1), p]`.
///
/// # Examples
///
/// ```
/// use socbus_codes::{BusCode, DecodeStatus, ParityBit};
/// use socbus_model::Word;
///
/// let mut code = ParityBit::new(4);
/// let coded = code.encode(Word::from_bits(0b0111, 4));
/// assert!(coded.bit(4), "odd-weight data sets the parity wire");
/// let flipped = coded.with_bit(2, !coded.bit(2));
/// let (_, status) = code.decode_checked(flipped);
/// assert_eq!(status, DecodeStatus::Detected);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParityBit {
    k: usize,
}

impl ParityBit {
    /// Parity-protected `k`-bit bus.
    ///
    /// # Panics
    ///
    /// Panics where [`Scheme::check`] rejects `k`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        Scheme::Parity.assert_builds(k);
        ParityBit { k }
    }

    /// The parity plane of a block's first `k` lanes: one XOR tree, 64
    /// parity bits per fold.
    fn parity_plane(&self, block: &WordBlock) -> u64 {
        block.lanes[..self.k].iter().fold(0u64, |acc, &l| acc ^ l)
    }
}

impl BusCode for ParityBit {
    fn name(&self) -> String {
        "Parity".into()
    }

    fn data_bits(&self) -> usize {
        self.k
    }

    fn wires(&self) -> usize {
        self.k + 1
    }

    fn encode(&mut self, data: Word) -> Word {
        assert_eq!(data.width(), self.k, "data width mismatch");
        data.concat(Word::from_bits(u128::from(data.parity()), 1))
    }

    fn decode(&mut self, bus: Word) -> Word {
        self.decode_checked(bus).0
    }

    fn decode_checked(&mut self, bus: Word) -> (Word, DecodeStatus) {
        assert_eq!(bus.width(), self.wires(), "bus width mismatch");
        let data = bus.slice(0, self.k);
        // The parity wire matches the data exactly when the whole bus
        // has even weight.
        let status = if !bus.parity() {
            DecodeStatus::Clean
        } else {
            DecodeStatus::Detected
        };
        (data, status)
    }

    fn detectable_errors(&self) -> usize {
        1
    }
}

impl Planes for ParityBit {
    fn encode_planes(&mut self, data: &WordBlock) -> WordBlock {
        let mut out = data.clone();
        out.lanes.push(self.parity_plane(data));
        out
    }

    fn decode_planes(&mut self, bus: &WordBlock) -> (WordBlock, BlockStatus) {
        let vm = bus.valid_mask();
        let detected = (self.parity_plane(bus) ^ bus.lane(self.k)) & vm;
        let status = BlockStatus {
            clean: vm & !detected,
            detected,
            ..BlockStatus::default()
        };
        (bus.prefix(self.k), status)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_clean() {
        let mut c = ParityBit::new(5);
        for w in Word::enumerate_all(5) {
            let (d, s) = {
                let cw = c.encode(w);
                c.decode_checked(cw)
            };
            assert_eq!(d, w);
            assert_eq!(s, DecodeStatus::Clean);
        }
    }

    #[test]
    fn every_single_error_is_detected() {
        let mut c = ParityBit::new(4);
        for w in Word::enumerate_all(4) {
            let cw = c.encode(w);
            for i in 0..cw.width() {
                let bad = cw.with_bit(i, !cw.bit(i));
                let (_, s) = c.decode_checked(bad);
                assert_eq!(s, DecodeStatus::Detected, "flip {i} of {cw}");
            }
        }
    }

    #[test]
    fn double_errors_escape_detection() {
        let mut c = ParityBit::new(4);
        let cw = c.encode(Word::from_bits(0b1010, 4));
        let bad = cw.with_bit(0, !cw.bit(0)).with_bit(1, !cw.bit(1));
        let (_, s) = c.decode_checked(bad);
        assert_eq!(
            s,
            DecodeStatus::Clean,
            "distance-2 code cannot see double errors"
        );
    }

    #[test]
    fn minimum_distance_is_two() {
        let mut c = ParityBit::new(3);
        let mut min = u32::MAX;
        for a in Word::enumerate_all(3) {
            for b in Word::enumerate_all(3) {
                if a != b {
                    min = min.min(c.encode(a).hamming_distance(c.encode(b)));
                }
            }
        }
        assert_eq!(min, 2);
    }
}

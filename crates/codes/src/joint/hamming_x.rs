//! HammingX: Hamming with encoder-delay masking via half-shielded parity
//! (paper §III-E).

use crate::ecc::Hamming;
use crate::traits::{BusCode, DecodeStatus};
use socbus_model::{DelayClass, Word};

/// HammingX: a systematic Hamming code whose parity group is laid out with
/// half-shielding so the parity wires fly at `(1 + 3λ)τ0` while the
/// (unprotected) data wires take `(1 + 4λ)τ0` — the `λτ0` slack masks the
/// Hamming encoder delay on long buses.
///
/// Parity layout: a singleton next to the data, then shield-separated
/// pairs, so *every* parity wire has at most one switching neighbor:
/// `[d0..d(k-1), p0, S, p1, p2, S, p3, p4, ...]`. Extra wires over plain
/// Hamming: `ceil((m−1)/2)` shields — 1 for the 4-bit bus (8 wires total)
/// and 3 for the 32-bit bus (41 wires), matching Tables II/III.
///
/// Bus-level behavior (energy coefficient at equal λ, reliability) is
/// identical to [`Hamming`]; only the wire count and the timing paths
/// differ, which is why the paper reports it as a constant ~1.03× speed-up
/// that *decreases* with bus length (the masked encoder delay is a fixed
/// cost while wire delay grows).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HammingX {
    inner: Hamming,
    /// Bus wire index of each parity bit.
    parity_wire: Vec<usize>,
    wires: usize,
}

impl HammingX {
    /// HammingX over `k` data bits.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or the coded bus exceeds the word limit.
    #[must_use]
    pub fn new(k: usize) -> Self {
        let inner = Hamming::new(k);
        let (parity_wire, wires) = parity_layout(k, inner.parity_bits());
        HammingX {
            inner,
            parity_wire,
            wires,
        }
    }

    /// Number of Hamming parity bits (excluding shields).
    #[must_use]
    pub fn parity_bits(&self) -> usize {
        self.inner.parity_bits()
    }

    /// The delay class of the half-shielded parity path.
    #[must_use]
    pub fn parity_delay_class(&self) -> DelayClass {
        DelayClass::new(3)
    }

    fn k(&self) -> usize {
        self.inner.data_bits()
    }
}

/// HammingX's wire layout for `k` data bits and `m` parity bits: the bus
/// wire of each parity bit and the total wire count. A singleton parity
/// wire sits next to the data, then shield-separated pairs.
///
/// # Panics
///
/// Panics if the coded bus exceeds the word limit.
pub(crate) fn parity_layout(k: usize, m: usize) -> (Vec<usize>, usize) {
    let mut parity_wire = Vec::with_capacity(m);
    let mut wire = k;
    let mut placed = 0;
    while placed < m {
        let group = if placed == 0 { 1 } else { 2.min(m - placed) };
        if placed > 0 {
            wire += 1; // shield before this group
        }
        for _ in 0..group {
            parity_wire.push(wire);
            wire += 1;
            placed += 1;
        }
    }
    assert!(wire <= socbus_model::word::MAX_WIDTH, "bus too wide");
    (parity_wire, wire)
}

impl BusCode for HammingX {
    fn name(&self) -> String {
        "HammingX".into()
    }

    fn data_bits(&self) -> usize {
        self.k()
    }

    fn wires(&self) -> usize {
        self.wires
    }

    fn encode(&mut self, data: Word) -> Word {
        assert_eq!(data.width(), self.k(), "data width mismatch");
        let flat = self.inner.encode(data);
        let mut out = Word::zero(self.wires);
        for i in 0..self.k() {
            out.set_bit(i, flat.bit(i));
        }
        for (j, &w) in self.parity_wire.iter().enumerate() {
            out.set_bit(w, flat.bit(self.k() + j));
        }
        out
    }

    fn decode(&mut self, bus: Word) -> Word {
        self.decode_checked(bus).0
    }

    fn decode_checked(&mut self, bus: Word) -> (Word, DecodeStatus) {
        assert_eq!(bus.width(), self.wires, "bus width mismatch");
        let mut flat = Word::zero(self.inner.wires());
        for i in 0..self.k() {
            flat.set_bit(i, bus.bit(i));
        }
        for (j, &w) in self.parity_wire.iter().enumerate() {
            flat.set_bit(self.k() + j, bus.bit(w));
        }
        self.inner.decode_checked(flat)
    }

    fn correctable_errors(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socbus_model::{wire_delay_factor, TransitionVector};

    #[test]
    fn wire_counts_match_paper() {
        assert_eq!(HammingX::new(4).wires(), 8); // Table II
        assert_eq!(HammingX::new(32).wires(), 41); // Table III
    }

    #[test]
    fn roundtrip_and_correction() {
        let mut c = HammingX::new(4);
        for w in Word::enumerate_all(4) {
            let cw = c.encode(w);
            let (d, s) = c.decode_checked(cw);
            assert_eq!(d, w);
            assert_eq!(s, DecodeStatus::Clean);
            for i in 0..cw.width() {
                let bad = cw.with_bit(i, !cw.bit(i));
                // Shield wires carry no information; flipping one is either
                // corrected (it aliases a parity position) or ignored.
                let (d, _) = c.decode_checked(bad);
                if self_is_shield(&c, i) {
                    assert_eq!(d, w, "shield flip {i} must not corrupt data");
                } else {
                    assert_eq!(d, w, "flip {i}");
                }
            }
        }
    }

    fn self_is_shield(c: &HammingX, wire: usize) -> bool {
        wire >= c.k() && !c.parity_wire.contains(&wire)
    }

    #[test]
    fn parity_wires_fly_at_most_1_plus_3_lambda() {
        let lambda = 2.8;
        let mut c = HammingX::new(4);
        let limit = DelayClass::new(3).factor(lambda);
        for b in Word::enumerate_all(4) {
            for a in Word::enumerate_all(4) {
                let tv = TransitionVector::between(c.encode(b), c.encode(a));
                for &w in &c.parity_wire.clone() {
                    let f = wire_delay_factor(&tv, w, lambda);
                    assert!(f <= limit + 1e-12, "parity wire {w} factor {f}");
                }
            }
        }
    }

    #[test]
    fn layout_shields_are_quiet() {
        let mut c = HammingX::new(4);
        // k=4, m=3: wires [d0..d3, p0, S, p1, p2] -> wire 5 is the shield.
        assert_eq!(c.parity_wire, vec![4, 6, 7]);
        for w in Word::enumerate_all(4) {
            assert!(!c.encode(w).bit(5), "shield driven high");
        }
    }

    #[test]
    fn same_codeword_content_as_hamming() {
        // Shield-stripped HammingX equals Hamming: same reliability math.
        let mut hx = HammingX::new(8);
        let mut h = Hamming::new(8);
        for w in Word::enumerate_all(8) {
            let cx = hx.encode(w);
            let ch = h.encode(w);
            for i in 0..8 {
                assert_eq!(cx.bit(i), ch.bit(i));
            }
            for (j, &pw) in hx.parity_wire.clone().iter().enumerate() {
                assert_eq!(cx.bit(pw), ch.bit(8 + j));
            }
        }
    }
}

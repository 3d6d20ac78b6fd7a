//! Double-error-correcting BCH code — the paper's §V extension.
//!
//! "With aggressive supply scaling and increase in DSM noise, more
//! powerful error correction schemes may be needed … Multiple error
//! correction codes such as Bose–Chaudhuri–Hocquenghem (BCH) can be
//! employed in such situations."
//!
//! This is a systematic, shortened, narrow-sense BCH code with designed
//! distance 5 (t = 2): generator `g(x) = m₁(x)·m₃(x)` over GF(2^m),
//! syndrome decoding with the closed-form two-error locator and a Chien
//! search. Being linear and systematic, it slots into the unified
//! framework exactly like Hamming (conditions 4–5), just with more parity
//! wires and a heavier decoder — the codec-overhead concern the paper
//! flags.

use crate::ecc::gf::{poly_mul, Field};
use crate::traits::{BusCode, DecodeStatus};
use socbus_model::Word;

/// Shortened double-error-correcting BCH code over `k` data bits.
///
/// Wire layout: `[d0 … d(k−1), p0 … p(r−1)]` with `r = deg g ≈ 2m`.
///
/// # Examples
///
/// ```
/// use socbus_codes::{BchDec, BusCode};
/// use socbus_model::Word;
///
/// let mut bch = BchDec::new(32);
/// assert_eq!(bch.wires(), 44); // 32 data + 12 parity (BCH(63,51) shortened)
/// let d = Word::from_bits(0xFEED_5EED, 32);
/// let mut cw = bch.encode(d);
/// cw.set_bit(3, !cw.bit(3));
/// cw.set_bit(40, !cw.bit(40)); // two errors
/// assert_eq!(bch.decode(cw), d);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BchDec {
    k: usize,
    r: usize,
    field: Field,
    generator: u64,
}

impl BchDec {
    /// DEC BCH over `k` data bits, using the smallest field that fits.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or no supported field (m ≤ 8) fits `k`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "need at least one data bit");
        for m in 4..=8u32 {
            let field = Field::new(m);
            let m1 = field.minimal_polynomial(1);
            let m3 = field.minimal_polynomial(3);
            let generator = if m1 == m3 { m1 } else { poly_mul(m1, m3) };
            let r = (63 - generator.leading_zeros()) as usize;
            if k + r <= field.order() {
                assert!(k + r <= socbus_model::word::MAX_WIDTH, "bus too wide");
                return BchDec {
                    k,
                    r,
                    field,
                    generator,
                };
            }
        }
        panic!("no supported BCH field fits k = {k}");
    }

    /// Number of parity wires `r`.
    #[must_use]
    pub fn parity_bits(&self) -> usize {
        self.r
    }

    /// The underlying field GF(2^m) — the gate-level synthesizer builds
    /// its syndrome/locator datapath from this.
    #[must_use]
    pub fn field(&self) -> &Field {
        &self.field
    }

    /// The generator polynomial `g(x) = m₁(x)·m₃(x)` as a bitmask with the
    /// leading term included.
    pub(crate) fn generator(&self) -> u64 {
        self.generator
    }

    /// Syndromes `S1 = c(α)` and `S3 = c(α³)` of a received word.
    fn syndromes(&self, cw: Word) -> (u16, u16) {
        let mut s1 = 0u16;
        let mut s3 = 0u16;
        for p in 0..cw.width() {
            if cw.bit(p) {
                s1 ^= self.field.alpha_pow(p);
                s3 ^= self.field.alpha_pow(3 * p);
            }
        }
        (s1, s3)
    }

    /// Maps a wire index to its polynomial coefficient position (identity:
    /// parity occupies x^0..x^(r−1), data x^r..; we store the word in that
    /// order internally).
    fn to_poly_word(&self, bus: Word) -> Word {
        // bus = [data, parity]; poly = [parity, data].
        bus.slice(self.k, self.r).concat(bus.slice(0, self.k))
    }

    #[allow(clippy::wrong_self_convention)]
    fn from_poly_word(&self, poly: Word) -> Word {
        poly.slice(self.r, self.k).concat(poly.slice(0, self.r))
    }
}

impl BusCode for BchDec {
    fn name(&self) -> String {
        "BCH-DEC".into()
    }

    fn data_bits(&self) -> usize {
        self.k
    }

    fn wires(&self) -> usize {
        self.k + self.r
    }

    fn encode(&mut self, data: Word) -> Word {
        assert_eq!(data.width(), self.k, "data width mismatch");
        // parity = (d(x) · x^r) mod g(x), LFSR-style: shift the message in
        // bit by bit (then r zeros for the ·x^r), reducing by g whenever
        // the degree reaches r — the remainder never exceeds r bits, so
        // arbitrary k is fine.
        let mut rem = 0u64;
        let step = |rem: &mut u64, bit: bool| {
            *rem = (*rem << 1) | u64::from(bit);
            if *rem >> self.r & 1 == 1 {
                *rem ^= self.generator;
            }
        };
        for i in (0..self.k).rev() {
            step(&mut rem, data.bit(i));
        }
        for _ in 0..self.r {
            step(&mut rem, false);
        }
        let mut out = data.concat(Word::zero(self.r));
        for j in 0..self.r {
            out.set_bit(self.k + j, rem >> j & 1 == 1);
        }
        out
    }

    fn decode(&mut self, bus: Word) -> Word {
        self.decode_checked(bus).0
    }

    fn decode_checked(&mut self, bus: Word) -> (Word, DecodeStatus) {
        assert_eq!(bus.width(), self.wires(), "bus width mismatch");
        let mut poly = self.to_poly_word(bus);
        let (s1, s3) = self.syndromes(poly);
        if s1 == 0 && s3 == 0 {
            return (bus.slice(0, self.k), DecodeStatus::Clean);
        }
        let f = &self.field;
        if s1 != 0 && s3 == f.mul(f.mul(s1, s1), s1) {
            // Single error at position log(S1).
            let p = f.log(s1);
            if p < poly.width() {
                poly.set_bit(p, !poly.bit(p));
                let data = self.from_poly_word(poly).slice(0, self.k);
                return (data, DecodeStatus::Corrected);
            }
            return (bus.slice(0, self.k), DecodeStatus::Detected);
        }
        if s1 == 0 {
            // S1 = 0 with S3 ≠ 0: detectable but not correctable as ≤2.
            return (bus.slice(0, self.k), DecodeStatus::Detected);
        }
        // Two errors: roots of σ(x) = x² + S1·x + (S3/S1 + S1²).
        let q = f.mul(s1, s1) ^ f.div(s3, s1);
        let mut roots = Vec::with_capacity(2);
        for p in 0..poly.width() {
            let x = f.alpha_pow(p);
            let val = f.mul(x, x) ^ f.mul(s1, x) ^ q;
            if val == 0 {
                roots.push(p);
            }
        }
        if roots.len() == 2 {
            for &p in &roots {
                poly.set_bit(p, !poly.bit(p));
            }
            let data = self.from_poly_word(poly).slice(0, self.k);
            (data, DecodeStatus::Corrected)
        } else {
            (bus.slice(0, self.k), DecodeStatus::Detected)
        }
    }

    fn correctable_errors(&self) -> usize {
        2
    }

    fn detectable_errors(&self) -> usize {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn wire_counts() {
        assert_eq!(BchDec::new(4).wires(), 12); // BCH(15,7) shortened
        assert_eq!(BchDec::new(7).wires(), 15); // full BCH(15,7)
        assert_eq!(BchDec::new(32).wires(), 44); // BCH(63,51) shortened
        assert_eq!(BchDec::new(64).wires(), 78); // BCH(127,113) shortened
    }

    #[test]
    fn roundtrip_clean_exhaustive() {
        let mut c = BchDec::new(7);
        for w in Word::enumerate_all(7) {
            let (d, s) = {
                let cw = c.encode(w);
                c.decode_checked(cw)
            };
            assert_eq!(d, w);
            assert_eq!(s, DecodeStatus::Clean);
        }
    }

    #[test]
    fn corrects_every_single_and_double_error_exhaustive_k4() {
        let mut c = BchDec::new(4);
        for w in Word::enumerate_all(4) {
            let cw = c.encode(w);
            for i in 0..cw.width() {
                let bad = cw.with_bit(i, !cw.bit(i));
                let (d, s) = c.decode_checked(bad);
                assert_eq!(d, w, "single flip {i}");
                assert_eq!(s, DecodeStatus::Corrected);
                for j in (i + 1)..cw.width() {
                    let bad2 = bad.with_bit(j, !bad.bit(j));
                    let (d, s) = c.decode_checked(bad2);
                    assert_eq!(d, w, "double flips {i},{j} of {cw}");
                    assert_eq!(s, DecodeStatus::Corrected);
                }
            }
        }
    }

    #[test]
    fn corrects_double_errors_wide_random() {
        let mut rng = StdRng::seed_from_u64(77);
        let mut c = BchDec::new(32);
        for _ in 0..400 {
            let w = Word::from_bits(rng.gen::<u128>(), 32);
            let cw = c.encode(w);
            let i = rng.gen_range(0..cw.width());
            let mut j = rng.gen_range(0..cw.width());
            while j == i {
                j = rng.gen_range(0..cw.width());
            }
            let bad = cw.with_bit(i, !cw.bit(i)).with_bit(j, !cw.bit(j));
            assert_eq!(c.decode(bad), w, "flips {i},{j}");
        }
    }

    #[test]
    fn minimum_distance_at_least_five() {
        let mut c = BchDec::new(6);
        let mut min = u32::MAX;
        let zero_cw = c.encode(Word::zero(6));
        // Linearity lets us check weights of nonzero codewords only.
        for w in Word::enumerate_all(6).skip(1) {
            min = min.min(c.encode(w).hamming_distance(zero_cw));
        }
        assert!(min >= 5, "minimum distance {min}");
    }

    #[test]
    fn code_is_linear_and_systematic() {
        let mut c = BchDec::new(6);
        for a in Word::enumerate_all(6) {
            let ca = c.encode(a);
            assert_eq!(ca.slice(0, 6), a, "systematic");
            for b in Word::enumerate_all(6) {
                let cb = c.encode(b);
                assert_eq!(ca.xor(cb), c.encode(a.xor(b)), "linear");
            }
        }
    }

    #[test]
    fn most_triple_errors_are_flagged_not_miscorrected_silently() {
        // Distance 5: a triple error decodes to a wrong codeword at most
        // 2 flips away or is detected — it must never be returned as Clean.
        let mut rng = StdRng::seed_from_u64(5);
        let mut c = BchDec::new(16);
        for _ in 0..300 {
            let w = Word::from_bits(rng.gen::<u128>(), 16);
            let cw = c.encode(w);
            let mut bad = cw;
            let mut picked = std::collections::HashSet::new();
            while picked.len() < 3 {
                picked.insert(rng.gen_range(0..cw.width()));
            }
            for &p in &picked {
                bad.set_bit(p, !bad.bit(p));
            }
            let (_, s) = c.decode_checked(bad);
            assert_ne!(s, DecodeStatus::Clean, "triple error invisible");
        }
    }
}

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

use std::sync::OnceLock;

use crate::batch::{BlockStatus, Columns, Planes, SyndromeStage, WordBlock};
use crate::catalog::Scheme;
use crate::ecc::gf::{poly_mul, Field};
use crate::traits::{BusCode, DecodeStatus};
use socbus_model::Word;

/// Smallest and largest supported field degree `m`.
const M_RANGE: std::ops::RangeInclusive<u32> = 4..=8;

/// Everything a DEC BCH code over GF(2^m) derives from `m` alone, built
/// once per process and shared by every codec over that field.
#[derive(Debug, PartialEq, Eq)]
struct BchField {
    field: Field,
    /// `r = deg g`: the parity wire count.
    r: usize,
    /// `x^j mod g(x)` for `j < 2^m − 1`: the parity contribution of a
    /// message bit at polynomial position `j`.
    x_pow_mod_g: Vec<u64>,
    /// `(α^j, α^(3j))` for `j < 2^m − 1`: the syndrome contribution of a
    /// set bit at polynomial position `j`.
    syndrome_terms: Vec<(u16, u16)>,
}

impl BchField {
    fn build(m: u32) -> BchField {
        let field = Field::new(m);
        let m1 = field.minimal_polynomial(1);
        let m3 = field.minimal_polynomial(3);
        let generator = if m1 == m3 { m1 } else { poly_mul(m1, m3) };
        let r = (63 - generator.leading_zeros()) as usize;
        let mut x_pow_mod_g = Vec::with_capacity(field.order());
        let mut rem = 1u64;
        for _ in 0..field.order() {
            x_pow_mod_g.push(rem);
            rem <<= 1;
            if rem >> r & 1 == 1 {
                rem ^= generator;
            }
        }
        let syndrome_terms = (0..field.order())
            .map(|j| (field.alpha_pow(j), field.alpha_pow(3 * j)))
            .collect();
        BchField {
            field,
            r,
            x_pow_mod_g,
            syndrome_terms,
        }
    }

    /// The process-wide tables for GF(2^m).
    fn get(m: u32) -> &'static BchField {
        static FIELDS: [OnceLock<BchField>; 5] = [const { OnceLock::new() }; 5];
        FIELDS[(m - M_RANGE.start()) as usize].get_or_init(|| BchField::build(m))
    }

    /// The smallest supported field whose code fits `k` data bits.
    fn fitting(k: usize) -> Option<&'static BchField> {
        M_RANGE
            .map(BchField::get)
            .find(|t| k + t.r <= t.field.order())
    }
}

/// Parity wires of the DEC BCH code over `k` data bits, if a supported
/// field fits it.
pub(crate) fn bch_parity_bits(k: usize) -> Option<usize> {
    BchField::fitting(k).map(|t| t.r)
}

/// Shortened double-error-correcting BCH code over `k` data bits.
///
/// Wire layout: `[d0 … d(k−1), p0 … p(r−1)]` with `r = deg g ≈ 2m`.
/// In polynomial order the parity occupies `x^0 … x^(r−1)` and data bit
/// `i` sits at `x^(r+i)`. Encoding XORs the precomputed `x^(r+i) mod g`
/// of every set data bit; the syndromes are XORs of `α^p` and `α^(3p)`
/// over every set wire.
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
    tables: &'static BchField,
}

impl BchDec {
    /// DEC BCH over `k` data bits, using the smallest field that fits.
    ///
    /// # Panics
    ///
    /// Panics where [`Scheme::check`] rejects `k`: no supported field
    /// (m ≤ 8) fits it.
    #[must_use]
    pub fn new(k: usize) -> Self {
        Scheme::BchDec.assert_builds(k);
        let tables = BchField::fitting(k).expect("checked: a field fits");
        BchDec { k, tables }
    }

    /// Number of parity wires `r`.
    #[must_use]
    pub fn parity_bits(&self) -> usize {
        self.tables.r
    }

    /// The underlying field GF(2^m) — the gate-level synthesizer builds
    /// its syndrome/locator datapath from this.
    #[must_use]
    pub fn field(&self) -> &Field {
        &self.tables.field
    }

    /// `(αᵖ, α³ᵖ)` of polynomial position `p` as one parity-check column:
    /// S1 in the low `m` bits, S3 above.
    fn syndrome_column(&self, p: usize) -> u32 {
        let (s1, s3) = self.tables.syndrome_terms[p];
        u32::from(s1) | u32::from(s3) << self.tables.field.m()
    }

    /// Polynomial position of bus wire `w` (data after the parity).
    fn poly_pos(&self, w: usize) -> usize {
        if w < self.k {
            self.tables.r + w
        } else {
            w - self.k
        }
    }

    /// Syndromes `S1 = c(α)` and `S3 = c(α³)` of a received bus word.
    fn syndromes(&self, bus: Word) -> (u16, u16) {
        bus.ones().fold((0, 0), |(s1, s3), w| {
            let (t1, t3) = self.tables.syndrome_terms[self.poly_pos(w)];
            (s1 ^ t1, s3 ^ t3)
        })
    }

    /// The received data with the wires at polynomial positions `flips`
    /// inverted (parity positions leave the data untouched).
    fn flip_data(&self, bus: Word, flips: &[usize]) -> Word {
        flips
            .iter()
            .filter(|&&p| p >= self.tables.r)
            .fold(bus.slice(0, self.k), |data, &p| {
                let i = p - self.tables.r;
                data.with_bit(i, !data.bit(i))
            })
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
        self.k + self.tables.r
    }

    fn encode(&mut self, data: Word) -> Word {
        assert_eq!(data.width(), self.k, "data width mismatch");
        // parity = (d(x) · x^r) mod g(x): the XOR of x^(r+i) mod g over
        // the set data bits.
        let t = self.tables;
        let parity = data
            .ones()
            .fold(0u64, |rem, i| rem ^ t.x_pow_mod_g[t.r + i]);
        data.concat(Word::from_bits(u128::from(parity), t.r))
    }

    fn decode(&mut self, bus: Word) -> Word {
        self.decode_checked(bus).0
    }

    fn decode_checked(&mut self, bus: Word) -> (Word, DecodeStatus) {
        assert_eq!(bus.width(), self.wires(), "bus width mismatch");
        let (s1, s3) = self.syndromes(bus);
        let unchanged = || bus.slice(0, self.k);
        if s1 == 0 && s3 == 0 {
            return (unchanged(), DecodeStatus::Clean);
        }
        let f = &self.tables.field;
        let n = self.wires();
        if s1 != 0 && s3 == f.mul(f.mul(s1, s1), s1) {
            // Single error at position log(S1).
            let p = f.log(s1);
            if p < n {
                return (self.flip_data(bus, &[p]), DecodeStatus::Corrected);
            }
            return (unchanged(), DecodeStatus::Detected);
        }
        if s1 == 0 {
            // S1 = 0 with S3 ≠ 0: detectable but not correctable as ≤2.
            return (unchanged(), DecodeStatus::Detected);
        }
        // Two errors: roots of σ(x) = x² + S1·x + (S3/S1 + S1²), found by
        // a Chien search; exactly two roots inside the code are needed.
        let q = f.mul(s1, s1) ^ f.div(s3, s1);
        let mut roots = [0usize; 2];
        let mut found = 0;
        for p in 0..n {
            let x = f.alpha_pow(p);
            if f.mul(x, x) ^ f.mul(s1, x) ^ q == 0 {
                if found < roots.len() {
                    roots[found] = p;
                }
                found += 1;
            }
        }
        if found == roots.len() {
            (self.flip_data(bus, &roots), DecodeStatus::Corrected)
        } else {
            (unchanged(), DecodeStatus::Detected)
        }
    }

    fn correctable_errors(&self) -> usize {
        2
    }

    fn detectable_errors(&self) -> usize {
        2
    }
}

/// Bus lane `i < k` is polynomial position `r + i`, parity lane `k + j`
/// position `j`; data bit `i` feeds the parity planes of `x^(r+i) mod g`.
impl Columns for BchDec {
    fn planes(&self) -> usize {
        2 * self.tables.field.m() as usize
    }

    fn column(&self, i: usize) -> u32 {
        self.syndrome_column(self.tables.r + i)
    }

    fn parity_column(&self, j: usize) -> u32 {
        self.syndrome_column(j)
    }

    #[allow(clippy::cast_possible_truncation)]
    fn feed(&self, i: usize) -> u32 {
        self.tables.x_pow_mod_g[self.tables.r + i] as u32
    }
}

/// The plane form: S1/S3 syndrome planes from the word kernel's own
/// tables. Zero syndromes and single errors (`(S1, S3) = (αᵖ, α³ᵖ)` for a
/// position `p < n`) decode in the planes; the remaining words — double
/// errors and uncorrectable syndromes, about 3e-4 of words at k = 16 and
/// ε = 1e-3 — go through the word decoder one each, which keeps its
/// shortened-position and double-error branches exact.
impl Planes for BchDec {
    fn encode_planes(&mut self, data: &WordBlock) -> WordBlock {
        let mut out = data.clone();
        out.lanes.resize(self.wires(), 0);
        let stage = SyndromeStage::new(&*self, self.k, self.k..self.wires());
        stage.place(stage.parity(data.lanes.iter().copied()), &mut out);
        out
    }

    fn decode_planes(&mut self, bus: &WordBlock) -> (WordBlock, BlockStatus) {
        let vm = bus.valid_mask();
        let mut out = bus.prefix(self.k);
        let syn = SyndromeStage::new(&*self, self.k, self.k..self.wires()).decode(
            bus,
            vm,
            &mut out.lanes,
        );
        let mut status = BlockStatus {
            clean: vm & !syn.nonzero,
            corrected: syn.matched,
            ..BlockStatus::default()
        };
        let mut rest = syn.nonzero & !syn.matched;
        while rest != 0 {
            let j = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let (data, s) = self.decode_checked(bus.word(j));
            for (i, lane) in out.lanes.iter_mut().enumerate() {
                *lane = (*lane & !(1 << j)) | u64::from(data.bit(i)) << j;
            }
            status.set(j, s);
        }
        (out, status)
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

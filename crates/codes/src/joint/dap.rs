//! The duplicate-add-parity family: DAP, the paper's flagship joint
//! CAC + ECC code, and the codes built on its structure — DAPX, DAPBI and
//! the BSC baseline. One type, [`Dap`], holds all four: every payload bit
//! on a wire pair (the FP-condition CAC) plus one parity wire, decoded
//! through the Fig. 6 multiplexer; the members differ in the payload
//! (DAPBI adds the invert bit), the parity copies (DAPX doubles it) and
//! the placement (BSC shifts the codeword every cycle).

use crate::batch::{dap_select, BlockStatus, Planes, WordBlock};
use crate::cac::duplicated;
use crate::catalog::Scheme;
use crate::lpc::{invert_block, invert_payload, restore_block, restore_payload};
use crate::traits::{BusCode, DecodeStatus};
use socbus_model::{DelayClass, Word};

/// Which member of the DAP family a [`Dap`] codec is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Form {
    /// DAP.
    Dap,
    /// DAPX: the parity wire duplicated.
    Dapx,
    /// DAPBI: BI(1) first, DAP over the data and invert bit.
    Dapbi,
    /// BSC: the codeword shifting one wire every cycle.
    Bsc,
}

/// DAP: every data bit duplicated (FP-condition CAC, distance 2) plus one
/// parity wire (distance 3) — `2k + 1` wires, single-error correction at
/// `(1 + 2λ)τ0` worst-case delay.
///
/// Decoding (paper Fig. 6): regenerate the parity from copy set `A`; if it
/// matches the received parity output `A`, else output `B`. A single error
/// corrupts at most one of the sets or the parity, so the selected set is
/// always clean.
///
/// Wire layout: `[d0, d0, d1, d1, ..., d(k-1), d(k-1), p]`, with set `A`
/// on even wire indices and `B` on odd. The other members change this as
/// their constructors say.
///
/// # Examples
///
/// ```
/// use socbus_codes::{BusCode, Dap};
/// use socbus_model::{DelayClass, Word};
///
/// let mut dap = Dap::new(4);
/// assert_eq!(dap.wires(), 9); // paper Table II
/// assert_eq!(dap.guaranteed_delay_class(), DelayClass::CAC);
/// let d = Word::from_bits(0b1001, 4);
/// let cw = dap.encode(d);
/// // Any single wire error is corrected.
/// for i in 0..9 {
///     assert_eq!(dap.decode(cw.with_bit(i, !cw.bit(i))), d);
/// }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dap {
    k: usize,
    form: Form,
    /// DAPBI's encoder memory: the data lines `y` as last driven.
    prev: Word,
    /// BSC's phase: `true` when the next word puts the parity on the
    /// left edge (always `false` for the fixed layouts).
    phase: bool,
}

impl Dap {
    fn build(scheme: Scheme, form: Form, k: usize) -> Self {
        scheme.assert_builds(k);
        Dap {
            k,
            form,
            prev: Word::zero(k),
            phase: false,
        }
    }

    /// DAP over `k` data bits.
    ///
    /// # Panics
    ///
    /// Panics where [`Scheme::check`] rejects `k`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        Dap::build(Scheme::Dap, Form::Dap, k)
    }

    /// DAPX (paper §III-E): DAP with the parity wire duplicated (LXC2 =
    /// duplication) — `2k + 2` wires.
    ///
    /// The parity pair sits at the bus edge and always switches in common
    /// mode, so the outer parity wire flies at `(1 + λ)τ0` or better —
    /// `λτ0` faster than the `(1 + 2λ)τ0` data wires. On a long bus that
    /// slack exceeds the parity-tree encoder delay, making DAPX a *zero or
    /// negative latency* error-correcting code: the encoder delay is
    /// completely hidden behind the wire flight of the data bits.
    ///
    /// Wire layout: `[d0, d0, ..., d(k-1), d(k-1), p, p]`. The decoder
    /// uses the first parity copy; a single error on either copy or any
    /// data wire is corrected exactly as in DAP.
    ///
    /// # Panics
    ///
    /// Panics where [`Scheme::check`] rejects `k`.
    #[must_use]
    pub fn dapx(k: usize) -> Self {
        Dap::build(Scheme::Dapx, Form::Dapx, k)
    }

    /// DAPBI, the full LPC + CAC + ECC combination (paper §III-D, Fig. 7):
    /// BI(1) bus-invert over the data, then DAP over the `k + 1` bits
    /// (inverted data + invert wire) — `2k + 3` wires, single-error
    /// correction, `(1 + 2λ)τ0` delay, and the lowest bus energy of the
    /// paper's Table II.
    ///
    /// Composition per the framework: duplication is the CAC (FP condition
    /// survives inversion), BI(1) the LPC, a single parity bit the ECC, and
    /// the invert bit goes through LXC1 = duplication so it enjoys the same
    /// crosstalk and error protection as the data.
    ///
    /// Like BIH, the encoder uses the XOR property to compute the parity in
    /// parallel with the invert decision: for even `k` (the paper's
    /// standing assumption) the parity over the inverted data plus invert
    /// bit equals `parity(data) ⊕ inv`, one XOR after the parallel trees.
    ///
    /// Wire layout: `[y0, y0, ..., y(k-1), y(k-1), inv, inv, p]` with
    /// `y = data ⊕ inv` and `p = parity(y) ⊕ inv`.
    ///
    /// # Panics
    ///
    /// Panics where [`Scheme::check`] rejects `k`.
    #[must_use]
    pub fn dapbi(k: usize) -> Self {
        Dap::build(Scheme::Dapbi, Form::Dapbi, k)
    }

    /// BSC, the boundary shift code — Patel & Markov's FT-based joint
    /// CAC + ECC code, the paper's comparison baseline for DAP: duplicated
    /// data plus parity, with the parity wire's position alternating
    /// between the right edge (even cycles) and the left edge (odd cycles)
    /// — `2k + 1` wires, distance 3, single-error correction.
    ///
    /// Shifting the codeword by one wire every cycle makes the code satisfy
    /// the **forbidden-transition** condition: in the transition between
    /// the two placements, every adjacent wire pair either *starts* from
    /// the same value (both carried the same duplicated bit) or *ends* at
    /// the same value — either way the pair cannot switch in opposite
    /// directions, so the worst-case delay is `(1 + 2λ)τ0`.
    ///
    /// The cost relative to DAP is the shift machinery: a phase flip-flop
    /// and a 2:1 mux column in both encoder and decoder, which is why the
    /// paper's Table II shows BSC with ~1.2× the codec delay and ~1.7× the
    /// codec energy of DAP for identical bus-level behavior.
    ///
    /// Wire layout (k = 2): even cycles `[d0, d0, d1, d1, p]`,
    /// odd cycles `[p, d0, d0, d1, d1]`.
    ///
    /// # Panics
    ///
    /// Panics where [`Scheme::check`] rejects `k`.
    #[must_use]
    pub fn bsc(k: usize) -> Self {
        Dap::build(Scheme::Bsc, Form::Bsc, k)
    }

    /// BSC's phase: `false` when the next transfer puts the parity on the
    /// right edge (always, for the fixed layouts).
    #[must_use]
    pub fn phase(&self) -> bool {
        self.phase
    }

    /// Bits on wire pairs: the data, plus DAPBI's invert bit.
    fn payload(&self) -> usize {
        self.k + usize::from(self.form == Form::Dapbi)
    }

    /// This word's phase, advancing BSC's: `true` when the codeword sits
    /// one wire up with the parity on wire 0.
    fn next_phase(&mut self) -> bool {
        let shifted = self.phase;
        self.phase ^= self.form == Form::Bsc;
        shifted
    }

    /// DAP decode over the `len` pairs starting at wire `lo` of `bus`:
    /// `parity` is the received parity wire.
    fn select_set(bus: Word, lo: usize, len: usize, parity: bool) -> (Word, DecodeStatus) {
        let (a, b) = (bus.gather2(lo, len), bus.gather2(lo + 1, len));
        if a.parity() == parity {
            let status = if a == b {
                DecodeStatus::Clean
            } else {
                DecodeStatus::Corrected
            };
            (a, status)
        } else {
            (b, DecodeStatus::Corrected)
        }
    }

    /// The block's phase plane (zero for the fixed layouts); advances the
    /// phase past the block. On odd-phase words the whole codeword shifts
    /// one wire up and the parity moves to wire 0: bit `j` of the plane
    /// is `phase ^ (j & 1)`, i.e. `0x5555…` shifted by the block's
    /// starting phase, and the phase after a block is
    /// `phase ^ (len & 1)`.
    fn shift_plane(&mut self, vm: u64, len: usize) -> u64 {
        if self.form != Form::Bsc {
            return 0;
        }
        let plane = if self.phase {
            0x5555_5555_5555_5555
        } else {
            0xAAAA_AAAA_AAAA_AAAA
        };
        self.phase ^= len % 2 == 1;
        plane & vm
    }
}

impl BusCode for Dap {
    fn name(&self) -> String {
        match self.form {
            Form::Dap => "DAP",
            Form::Dapx => "DAPX",
            Form::Dapbi => "DAPBI",
            Form::Bsc => "BSC",
        }
        .into()
    }

    fn data_bits(&self) -> usize {
        self.k
    }

    fn wires(&self) -> usize {
        2 * self.payload() + 1 + usize::from(self.form == Form::Dapx)
    }

    fn encode(&mut self, data: Word) -> Word {
        assert_eq!(data.width(), self.k, "data width mismatch");
        // DAPBI: the invert bit joins the duplicated region; the parity
        // covers the k+1 protected bits (y plus inv).
        let payload = if self.form == Form::Dapbi {
            invert_payload(data, &mut self.prev)
        } else {
            data
        };
        let q = payload.width();
        let parity = payload.parity();
        let shifted = self.next_phase();
        let p_wire = if shifted { 0 } else { 2 * q };
        let word = duplicated(payload, self.wires(), usize::from(shifted)).with_bit(p_wire, parity);
        if self.form == Form::Dapx {
            word.with_bit(2 * q + 1, parity)
        } else {
            word
        }
    }

    fn decode(&mut self, bus: Word) -> Word {
        self.decode_checked(bus).0
    }

    fn decode_checked(&mut self, bus: Word) -> (Word, DecodeStatus) {
        assert_eq!(bus.width(), self.wires(), "bus width mismatch");
        let q = self.payload();
        let shifted = self.next_phase();
        let p_wire = if shifted { 0 } else { 2 * q };
        // Only the first parity copy takes part in decoding; DAPX's second
        // exists to mask the encoder delay on the wire.
        let (payload, status) = Dap::select_set(bus, usize::from(shifted), q, bus.bit(p_wire));
        if self.form == Form::Dapbi {
            (restore_payload(payload), status)
        } else {
            (payload, status)
        }
    }

    fn reset(&mut self) {
        self.prev = Word::zero(self.k);
        self.phase = false;
    }

    fn is_stateful(&self) -> bool {
        matches!(self.form, Form::Dapbi | Form::Bsc)
    }

    fn correctable_errors(&self) -> usize {
        1
    }

    fn guaranteed_delay_class(&self) -> DelayClass {
        DelayClass::CAC
    }
}

/// The plane form: each payload lane on a wire pair plus one parity wire,
/// decoded through `dap_select` — behind an `InvertStage` for DAPBI,
/// with a second parity copy for DAPX and BSC's phase plane shifting the
/// odd-phase words.
impl Planes for Dap {
    fn encode_planes(&mut self, data: &WordBlock) -> WordBlock {
        let mut payload = data.lanes.clone();
        if self.form == Form::Dapbi {
            let mask = invert_block(data, &mut self.prev);
            for lane in &mut payload {
                *lane ^= mask;
            }
            payload.push(mask);
        }
        let parity = payload.iter().fold(0, |acc, &l| acc ^ l);
        let shift = self.shift_plane(data.valid_mask(), data.len());
        let q = payload.len();
        let mut out = WordBlock::zero(self.wires(), data.len());
        // Wire 2i+1 carries payload bit i in either phase; wire 2i carries
        // it on unshifted words and bit i-1 (the parity, for i = 0) on
        // shifted ones, and wire 2q the parity or bit q-1.
        for i in 0..q {
            let left = if i == 0 { parity } else { payload[i - 1] };
            out.lanes[2 * i] = (payload[i] & !shift) | (left & shift);
            out.lanes[2 * i + 1] = payload[i];
        }
        out.lanes[2 * q] = (parity & !shift) | (payload[q - 1] & shift);
        if self.form == Form::Dapx {
            out.lanes[2 * q + 1] = parity;
        }
        out
    }

    fn decode_planes(&mut self, bus: &WordBlock) -> (WordBlock, BlockStatus) {
        let vm = bus.valid_mask();
        let shift = self.shift_plane(vm, bus.len());
        let lanes = &bus.lanes;
        // Copy set A sits on wire 2i (2i+1 when shifted), B one wire up;
        // only the first parity copy takes part in decoding.
        let mux = |w: usize| (lanes[w] & !shift) | (lanes[w + 1] & shift);
        let q = self.payload();
        let mut out = WordBlock::zero(q, bus.len());
        for (i, a) in out.lanes.iter_mut().enumerate() {
            *a = mux(2 * i);
        }
        let parity = (lanes[2 * q] & !shift) | (lanes[0] & shift);
        let status = dap_select(&mut out.lanes, |i| mux(2 * i + 1), parity, vm);
        if self.form == Form::Dapbi {
            restore_block(&mut out.lanes);
        }
        (out, status)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use socbus_model::{bus_delay_factor, wire_delay_factor, TransitionVector};

    /// The four members, by name, at `k` data bits.
    fn family(k: usize) -> [Dap; 4] {
        [Dap::new(k), Dap::dapx(k), Dap::dapbi(k), Dap::bsc(k)]
    }

    #[test]
    fn wire_counts_match_paper() {
        // Table II at 4 bits, Table III at 32: DAP, DAPX, DAPBI, BSC.
        for (k, wires) in [(4, [9, 10, 11, 9]), (32, [65, 66, 67, 65])] {
            for (c, w) in family(k).iter().zip(wires) {
                assert_eq!(c.wires(), w, "{} k={k}", c.name());
            }
        }
    }

    #[test]
    fn roundtrip_clean() {
        let mut c = Dap::new(5);
        for w in Word::enumerate_all(5) {
            let (d, s) = {
                let cw = c.encode(w);
                c.decode_checked(cw)
            };
            assert_eq!(d, w);
            assert_eq!(s, DecodeStatus::Clean);
        }
    }

    /// A fresh encoder and decoder pair per member, over a random
    /// sequence (DAPBI's memory and BSC's phase advance with it).
    #[test]
    fn roundtrip_sequence() {
        for (k, seed) in [(6, 23), (5, 3)] {
            let mut rng = StdRng::seed_from_u64(seed);
            for (mut enc, mut dec) in family(k).into_iter().zip(family(k)) {
                for _ in 0..300 {
                    let d = Word::from_bits(rng.gen::<u128>(), k);
                    assert_eq!(dec.decode(enc.encode(d)), d, "{}", enc.name());
                }
            }
        }
    }

    /// Every single wire error of every 4-bit codeword is corrected: DAP
    /// and DAPX on one codec, DAPBI from fresh codecs per word (its
    /// decoder is stateless), BSC in both phases.
    #[test]
    fn corrects_every_single_error_exhaustive() {
        for mut c in [Dap::new(4), Dap::dapx(4)] {
            for w in Word::enumerate_all(4) {
                let cw = c.encode(w);
                for i in 0..cw.width() {
                    let bad = cw.with_bit(i, !cw.bit(i));
                    let (d, s) = c.decode_checked(bad);
                    assert_eq!(d, w, "{}: flip wire {i} of {cw}", c.name());
                    // DAPX's second parity copy takes no part in decoding.
                    if i <= 8 {
                        assert_eq!(s, DecodeStatus::Corrected, "{}", c.name());
                    }
                }
            }
        }
        for w in Word::enumerate_all(4) {
            let mut enc = Dap::dapbi(4);
            let cw = enc.encode(w);
            for i in 0..cw.width() {
                let mut dec = Dap::dapbi(4);
                assert_eq!(dec.decode(cw.with_bit(i, !cw.bit(i))), w, "flip {i}");
            }
        }
        for start_odd in [false, true] {
            for w in Word::enumerate_all(4) {
                let mut enc = Dap::bsc(4);
                let mut dec = Dap::bsc(4);
                if start_odd {
                    // Advance both codecs one cycle.
                    let x = Word::zero(4);
                    dec.decode(enc.encode(x));
                }
                let cw = enc.encode(w);
                for i in 0..cw.width() {
                    let mut dec_i = dec.clone();
                    let bad = cw.with_bit(i, !cw.bit(i));
                    assert_eq!(dec_i.decode(bad), w, "phase {start_odd} flip {i}");
                }
            }
        }
    }

    #[test]
    fn minimum_distance_is_three() {
        let mut c = Dap::new(4);
        let mut min = u32::MAX;
        for a in Word::enumerate_all(4) {
            for b in Word::enumerate_all(4) {
                if a != b {
                    min = min.min(c.encode(a).hamming_distance(c.encode(b)));
                }
            }
        }
        assert_eq!(min, 3);
        // BSC within one phase.
        let mut min = u32::MAX;
        for a in Word::enumerate_all(4) {
            for b in Word::enumerate_all(4) {
                if a == b {
                    continue;
                }
                let mut c1 = Dap::bsc(4);
                let mut c2 = Dap::bsc(4);
                min = min.min(c1.encode(a).hamming_distance(c2.encode(b)));
            }
        }
        assert_eq!(min, 3);
    }

    #[test]
    fn worst_case_delay_is_cac_class() {
        for (mut c, lambda) in [(Dap::new(3), 2.8), (Dap::dapx(3), 1.1)] {
            let mut worst: f64 = 0.0;
            for b in Word::enumerate_all(3) {
                for a in Word::enumerate_all(3) {
                    let tv = TransitionVector::between(c.encode(b), c.encode(a));
                    worst = worst.max(bus_delay_factor(&tv, lambda));
                }
            }
            assert!(
                worst <= DelayClass::CAC.factor(lambda) + 1e-12,
                "{} worst factor {worst}",
                c.name()
            );
        }
    }

    #[test]
    fn average_energy_matches_paper_coefficients() {
        // Table II: DAP 4-bit bus energy 2.25 + 2.00λ (exact enumeration).
        let mut c = Dap::new(4);
        let mut acc = socbus_model::EnergyCoeff::default();
        let mut count = 0.0;
        for b in Word::enumerate_all(4) {
            for a in Word::enumerate_all(4) {
                acc = acc.add(socbus_model::word_transition_energy(
                    c.encode(b),
                    c.encode(a),
                ));
                count += 1.0;
            }
        }
        let avg = acc.scale(1.0 / count);
        assert!((avg.self_coeff - 2.25).abs() < 1e-12, "{}", avg.self_coeff);
        assert!(
            (avg.coupling_coeff - 2.00).abs() < 1e-12,
            "{}",
            avg.coupling_coeff
        );
    }

    #[test]
    fn outer_parity_wire_flies_at_most_1_plus_lambda() {
        // The DAPX masking claim: over every codeword transition the
        // *outer* parity wire's delay factor never exceeds 1+λ.
        let lambda = 2.8;
        let mut c = Dap::dapx(3);
        let outer = c.wires() - 1;
        let mut worst: f64 = 0.0;
        for b in Word::enumerate_all(3) {
            for a in Word::enumerate_all(3) {
                let tv = TransitionVector::between(c.encode(b), c.encode(a));
                worst = worst.max(wire_delay_factor(&tv, outer, lambda));
            }
        }
        assert!(
            worst <= DelayClass::DUPLICATED_EDGE.factor(lambda) + 1e-12,
            "outer parity factor {worst}"
        );
    }

    #[test]
    fn second_parity_copy_error_is_harmless() {
        let mut c = Dap::dapx(8);
        let d = Word::from_bits(0b1100_1010, 8);
        let cw = c.encode(d);
        let outer = c.wires() - 1;
        assert_eq!(c.decode(cw.with_bit(outer, !cw.bit(outer))), d);
    }

    #[test]
    fn dapbi_transitions_stay_in_cac_class() {
        // The FP condition must survive inversion: simulate a random data
        // sequence and check every actual bus transition.
        let lambda = 2.8;
        let mut enc = Dap::dapbi(4);
        let mut rng = StdRng::seed_from_u64(31);
        let mut prev = enc.encode(Word::zero(4));
        for _ in 0..2000 {
            let cur = enc.encode(Word::from_bits(rng.gen::<u128>(), 4));
            let tv = TransitionVector::between(prev, cur);
            let f = bus_delay_factor(&tv, lambda);
            assert!(f <= DelayClass::CAC.factor(lambda) + 1e-12, "factor {f}");
            prev = cur;
        }
    }

    #[test]
    fn dapbi_has_lower_bus_energy_than_dap() {
        // Table II: DAPBI 1.81+1.75λ vs DAP 2.25+2.00λ — bus-invert must
        // cut average energy on random data despite two extra wires.
        let lambda = 2.8;
        let mut rng = StdRng::seed_from_u64(41);
        let mut dapbi = Dap::dapbi(4);
        let mut dap = Dap::new(4);
        let mut prev_bi = dapbi.encode(Word::zero(4));
        let mut prev_d = dap.encode(Word::zero(4));
        let (mut e_bi, mut e_d) = (0.0, 0.0);
        for _ in 0..20000 {
            let d = Word::from_bits(rng.gen::<u128>(), 4);
            let c_bi = dapbi.encode(d);
            let c_d = dap.encode(d);
            e_bi += socbus_model::word_transition_energy(prev_bi, c_bi).total(lambda);
            e_d += socbus_model::word_transition_energy(prev_d, c_d).total(lambda);
            prev_bi = c_bi;
            prev_d = c_d;
        }
        assert!(e_bi < e_d, "DAPBI {e_bi} should undercut DAP {e_d}");
    }

    #[test]
    fn dapbi_parallel_parity_identity_for_even_k() {
        // p = parity(y) ^ inv must equal parity(data) ^ inv for even k
        // (y = data ^ inv on every bit: parity(y) = parity(data) ^ (k&1)*inv).
        for d in Word::enumerate_all(4) {
            for inv in [false, true] {
                let y = if inv { d.not() } else { d };
                let direct = (y.count_ones() % 2 == 1) ^ inv;
                let parallel = (d.count_ones() % 2 == 1) ^ inv;
                assert_eq!(direct, parallel, "d={d} inv={inv}");
            }
        }
    }

    #[test]
    fn bsc_every_cross_phase_transition_satisfies_ft() {
        // The boundary-shift property: exhaustive over all (prev, next)
        // data pairs in both phase orders, the bus never leaves the CAC
        // class.
        let lambda = 2.8;
        for first_phase in [false, true] {
            for b in Word::enumerate_all(4) {
                for a in Word::enumerate_all(4) {
                    let mut enc = Dap::bsc(4);
                    enc.phase = first_phase;
                    let w1 = enc.encode(b);
                    let w2 = enc.encode(a);
                    let tv = TransitionVector::between(w1, w2);
                    let f = bus_delay_factor(&tv, lambda);
                    assert!(
                        f <= DelayClass::CAC.factor(lambda) + 1e-12,
                        "factor {f} for {b}->{a} phase {first_phase}"
                    );
                }
            }
        }
    }

    #[test]
    fn bsc_phase_alternates_and_reset_restores() {
        let mut c = Dap::bsc(3);
        assert!(!c.phase());
        let _ = c.encode(Word::zero(3));
        assert!(c.phase());
        c.reset();
        assert!(!c.phase());
        // The fixed layouts never shift.
        let mut dap = Dap::new(3);
        let _ = dap.encode(Word::zero(3));
        assert!(!dap.phase());
    }
}

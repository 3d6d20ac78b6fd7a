//! The Hamming family: systematic Hamming, the paper's single-error-
//! correcting baseline, and the codes built on its syndrome structure —
//! HammingX, BIH, extended Hamming (SEC-DED) and the sabotaged self-test
//! decoder. One type, [`Hamming`], holds all five; they differ only in
//! the payload (BIH adds the invert bit), where the parity wires sit
//! (HammingX half-shields them) and what the decoder does with the
//! syndrome (ExtHamming gates it on an overall parity wire, Sabotaged
//! drops it).

use crate::batch::{BlockStatus, Columns, Planes, SyndromeStage, WordBlock};
use crate::catalog::Scheme;
use crate::lpc::{invert_block, invert_payload, restore_block, restore_payload};
use crate::traits::{BusCode, DecodeStatus};
use socbus_model::word::MAX_WIDTH;
use socbus_model::Word;

/// Number of Hamming parity bits `m` for `k` data bits: the smallest `m`
/// with `k ≤ 2^m − m − 1` (paper §II-D). Grows as `log2 k`: 3 for k ≤ 4,
/// 4 for k ≤ 11, 5 for k ≤ 26, 6 for k ≤ 57.
///
/// # Panics
///
/// Panics if `k == 0`.
#[must_use]
pub fn hamming_parity_bits(k: usize) -> usize {
    assert!(k > 0, "need at least one data bit");
    let mut m = 2;
    while (1usize << m) - m - 1 < k {
        m += 1;
    }
    m
}

/// Widest syndrome any [`Hamming`] code needs: `k + m ≤ MAX_WIDTH`
/// keeps every canonical position below `2^9`.
const MAX_PARITY: usize = 9;

/// Canonical Hamming position of data bit `i`: the `i`-th position ≥ 3
/// that is not a power of two.
const fn data_position(i: usize) -> usize {
    let mut pos: usize = 3;
    let mut seen = 0;
    while seen < i {
        pos += 1;
        if !pos.is_power_of_two() {
            seen += 1;
        }
    }
    pos
}

/// [`data_position`] of every data bit: the parity-check column of each
/// payload lane.
static POSITION: [u16; MAX_WIDTH] = {
    let mut positions = [0u16; MAX_WIDTH];
    let mut i = 0;
    while i < MAX_WIDTH {
        positions[i] = data_position(i) as u16;
        i += 1;
    }
    positions
};

/// Parity-check masks over data-bit indices, as [`Word`] limbs: bit `i`
/// of mask `j` is set when data bit `i`'s canonical position has bit `j`
/// set. A data bit's position does not depend on `k`, so one table of
/// constants serves every code width (a word's unused high wires are 0).
static COVER: [[u64; Word::LIMB_COUNT]; MAX_PARITY] = {
    let mut masks = [[0u64; Word::LIMB_COUNT]; MAX_PARITY];
    let mut i = 0;
    while i < MAX_WIDTH {
        let pos = data_position(i);
        let mut j = 0;
        while j < MAX_PARITY {
            if pos >> j & 1 == 1 {
                masks[j][i / 64] |= 1 << (i % 64);
            }
            j += 1;
        }
        i += 1;
    }
    masks
};

/// Offset of parity bit `j` from the first parity wire in HammingX's
/// half-shielded layout: `p0` at 0, then pairs behind a shield each
/// (`S, p1, p2, S, p3, p4, …`). The layout's one statement: the word and
/// plane forms, the width check and the netlist read it through
/// [`Hamming::parity_wire`].
const fn half_shielded_slot(j: usize) -> usize {
    if j == 0 {
        0
    } else {
        j + 1 + (j - 1) / 2
    }
}

/// Which member of the Hamming family a [`Hamming`] codec is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Form {
    /// Systematic Hamming.
    Plain,
    /// HammingX: the parity wires half-shielded.
    HalfShielded,
    /// BIH: BI(1) first, Hamming over the data and invert bit.
    BusInvert,
    /// ExtHamming: an overall parity wire after the Hamming bus.
    Extended,
    /// Sabotaged: correction dropped and the word reported clean.
    Sabotaged,
}

/// The Hamming family over `k` data bits: a systematic Hamming code over
/// a payload, `m` parity bits, Hamming distance 3, corrects any
/// single-wire error.
///
/// Wire layout: `[d0, ..., d(k-1), p0, ..., p(m-1)]` — the data crosses
/// unmodified (framework condition 4), parity is appended. The other
/// members change this as their constructors say.
///
/// Internally payload bit `i` occupies canonical Hamming position
/// `data_position(i)` (the `i`-th non-power-of-two position ≥ 3) and
/// parity bit `j` position `2^j`; the syndrome of a corrupted word equals
/// the canonical position of the flipped bit. Parity `j` is one masked
/// popcount of the payload word (the XOR tree of the paper's encoder),
/// and a payload syndrome `s` maps back to payload bit
/// `s − ⌊log₂ s⌋ − 2` in closed form. The plane form reads the same
/// positions as its parity-check columns.
///
/// # Examples
///
/// ```
/// use socbus_codes::{BusCode, Hamming};
/// use socbus_model::Word;
///
/// // Table III: 32 data bits need 6 parity bits -> 38 wires.
/// let mut code = Hamming::new(32);
/// assert_eq!(code.wires(), 38);
/// let d = Word::from_bits(0xCAFE_F00D, 32);
/// let mut cw = code.encode(d);
/// cw.set_bit(17, !cw.bit(17)); // single error anywhere
/// assert_eq!(code.decode(cw), d);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hamming {
    k: usize,
    m: usize,
    form: Form,
    /// BIH's encoder memory: the data lines `y` as last driven.
    prev: Word,
}

impl Hamming {
    fn build(scheme: Scheme, form: Form, k: usize) -> Self {
        scheme.assert_builds(k);
        let payload = k + usize::from(form == Form::BusInvert);
        Hamming {
            k,
            m: hamming_parity_bits(payload),
            form,
            prev: Word::zero(k),
        }
    }

    /// Hamming code over `k` data bits.
    ///
    /// # Panics
    ///
    /// Panics where [`Scheme::check`] rejects `k`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        Hamming::build(Scheme::Hamming, Form::Plain, k)
    }

    /// HammingX (paper §III-E): the parity group laid out with
    /// half-shielding, so the parity wires fly at `(1 + 3λ)τ0` while the
    /// (unprotected) data wires take `(1 + 4λ)τ0` — the `λτ0` slack masks
    /// the Hamming encoder delay on long buses.
    ///
    /// Parity layout: a singleton next to the data, then shield-separated
    /// pairs, so *every* parity wire has at most one switching neighbor:
    /// `[d0..d(k-1), p0, S, p1, p2, S, p3, p4, ...]`. Extra wires over
    /// plain Hamming: `ceil((m−1)/2)` shields — 1 for the 4-bit bus (8
    /// wires total) and 3 for the 32-bit bus (41 wires), matching Tables
    /// II/III.
    ///
    /// Bus-level behavior (energy coefficient at equal λ, reliability) is
    /// identical to plain Hamming; only the wire count and the timing
    /// paths differ, which is why the paper reports it as a constant
    /// ~1.03× speed-up that *decreases* with bus length (the masked
    /// encoder delay is a fixed cost while wire delay grows).
    ///
    /// # Panics
    ///
    /// Panics where [`Scheme::check`] rejects `k`.
    #[must_use]
    pub fn hamming_x(k: usize) -> Self {
        Hamming::build(Scheme::HammingX, Form::HalfShielded, k)
    }

    /// BIH, bus-invert Hamming (paper §III-B, Fig. 5): BI(1) bus-invert
    /// over the data followed by a systematic Hamming code over the
    /// `k + 1` bits (data + invert wire) — `k + 1 + m` wires, single-error
    /// correction with reduced transition activity.
    ///
    /// The naive concatenation would pay `T_BI + T_Hamming` of encoder
    /// delay. The paper's trick exploits the XOR property — inverting an
    /// odd number of inputs of an XOR tree inverts its output — so the
    /// Hamming parity trees run on the *uninverted* data in parallel with
    /// the invert-decision logic; parities whose coverage set has odd size
    /// (counting the invert wire) are then conditionally flipped by one
    /// final XOR. The encoder delay becomes `max(T_BI, T_parity) + T_XOR`
    /// (21–33% less in the paper's gate-level estimates; see the
    /// `bih_delay` bench). [`Hamming::parity_inverts`] lists the parities
    /// that need the final XOR; the netlist generator builds from it.
    ///
    /// Wire layout: `[y0..y(k-1), inv, p0..p(m-1)]` where `y = data ⊕ inv`.
    ///
    /// # Panics
    ///
    /// Panics where [`Scheme::check`] rejects `k`.
    #[must_use]
    pub fn bih(k: usize) -> Self {
        Hamming::build(Scheme::Bih, Form::BusInvert, k)
    }

    /// Extended Hamming (SEC-DED, the paper's §V extension direction):
    /// Hamming plus an overall parity wire — distance 4, corrects single
    /// errors *and* detects double errors.
    ///
    /// The paper's conclusion notes that aggressive supply scaling will
    /// demand stronger codes than plain SEC; SEC-DED is the standard first
    /// step (a detected double error can trigger a link-level
    /// retransmission, see `socbus-noc`).
    ///
    /// Wire layout: `[d0..d(k-1), p0..p(m-1), q]` with `q` the overall
    /// parity.
    ///
    /// # Panics
    ///
    /// Panics where [`Scheme::check`] rejects `k`.
    #[must_use]
    pub fn extended(k: usize) -> Self {
        Hamming::build(Scheme::ExtHamming, Form::Extended, k)
    }

    /// A deliberately broken decoder for harness self-tests.
    ///
    /// A soak/chaos harness is only trustworthy if it *fails* when the
    /// stack under test is broken. This is the planted fault that proves
    /// it: a systematic Hamming codec whose decoder, whenever the syndrome
    /// indicates a correctable single-wire error, **skips the correction
    /// and reports the word as clean** — exactly the silent-corruption
    /// failure mode a detecting code must never exhibit (Niesen &
    /// Kudekar's burst-error hazard, here made unconditional).
    ///
    /// The scheme advertises Hamming's single-error guarantees
    /// ([`BusCode::correctable_errors`]`/`[`BusCode::detectable_errors`]`
    /// = 1`) — that lie is the point: the chaos monitors hold every scheme
    /// to its advertised contract, so any single-wire fault schedule
    /// catches this decoder within a handful of words. It is excluded from
    /// [`Scheme::catalog`] and every paper table; the only legitimate uses
    /// are the chaos harness's self-tests and replay files.
    ///
    /// # Panics
    ///
    /// Panics where [`Scheme::check`] rejects `k`.
    #[must_use]
    pub fn sabotaged(k: usize) -> Self {
        Hamming::build(Scheme::Sabotaged, Form::Sabotaged, k)
    }

    /// Plain Hamming over `k` data bits with its `m` parity bits known:
    /// the view FTC+HC builds of its inner code, which the FTC+HC width
    /// check covers.
    pub(crate) fn over(k: usize, m: usize) -> Self {
        Hamming {
            k,
            m,
            form: Form::Plain,
            prev: Word::zero(0),
        }
    }

    /// HammingX's wire count at `k` data bits.
    pub(crate) fn half_shielded_wires(k: usize) -> usize {
        k + half_shielded_slot(hamming_parity_bits(k) - 1) + 1
    }

    /// Bits the Hamming code protects: the data, plus BIH's invert bit.
    fn payload(&self) -> usize {
        self.k + usize::from(self.form == Form::BusInvert)
    }

    /// Number of parity wires, shields excluded: the Hamming parity bits
    /// plus ExtHamming's overall parity.
    #[must_use]
    pub fn parity_bits(&self) -> usize {
        self.m + usize::from(self.form == Form::Extended)
    }

    /// Bus wire of Hamming parity bit `j` (`j < m`).
    #[must_use]
    pub fn parity_wire(&self, j: usize) -> usize {
        let slot = if self.form == Form::HalfShielded {
            half_shielded_slot(j)
        } else {
            j
        };
        self.payload() + slot
    }

    /// Payload-bit indices covered by parity bit `j` — the XOR-tree fan-in
    /// of that parity output. Needed by the netlist generator and by BIH's
    /// parallel-parity trick (paper §III-B), which must know whether each
    /// parity covers an odd or even number of payload bits.
    ///
    /// # Panics
    ///
    /// Panics if `j >= m`.
    #[must_use]
    pub fn parity_coverage(&self, j: usize) -> Vec<usize> {
        assert!(j < self.m, "parity index {j} out of range");
        (0..self.payload())
            .filter(|&i| data_position(i) & (1 << j) != 0)
            .collect()
    }

    /// Canonical Hamming position of payload bit `i`: the syndrome a flip
    /// of it produces, which the decoder's match logic compares against.
    #[must_use]
    pub fn position(&self, i: usize) -> usize {
        usize::from(POSITION[i])
    }

    /// BIH: for each parity bit, whether it must be conditionally inverted
    /// when the invert decision fires — true iff the parity's coverage set
    /// contains an odd number of *inverting* inputs (the `k` data members
    /// flip with `inv`; the invert-wire member equals `inv` itself, which
    /// flips from the parallel tree's assumed 0).
    #[must_use]
    pub fn parity_inverts(&self) -> Vec<bool> {
        (0..self.m)
            .map(|j| self.parity_coverage(j).len() % 2 == 1)
            .collect()
    }

    /// The `m` parity bits of a payload word, parity `j` at bit `j`: one
    /// masked popcount per parity (the payload is 0 above its width, so
    /// the width-free masks need no trimming).
    pub(crate) fn parities(&self, payload: Word) -> usize {
        let mut p = 0;
        for (j, mask) in COVER[..self.m].iter().enumerate() {
            let covered = (0..Word::LIMB_COUNT).fold(0, |acc, l| acc ^ (payload.limb(l) & mask[l]));
            p |= (covered.count_ones() as usize & 1) << j;
        }
        p
    }

    /// Corrects `payload` against the received parity bits `recv_p`
    /// (parity `j` at bit `j`): the syndrome is the canonical position of
    /// a single flipped wire.
    pub(crate) fn correct(&self, payload: Word, recv_p: usize) -> (Word, DecodeStatus) {
        let syndrome = recv_p ^ self.parities(payload);
        if syndrome == 0 {
            return (payload, DecodeStatus::Clean);
        }
        if syndrome.is_power_of_two() {
            // A parity wire flipped; the payload is intact.
            return (payload, DecodeStatus::Corrected);
        }
        // Error in a payload bit: invert `data_position`.
        let i = syndrome - syndrome.ilog2() as usize - 2;
        if i < self.payload() {
            (
                payload.with_bit(i, !payload.bit(i)),
                DecodeStatus::Corrected,
            )
        } else {
            // Syndrome points outside the used positions: uncorrectable
            // (multi-bit) error.
            (payload, DecodeStatus::Detected)
        }
    }

    /// The plane form's syndrome stage: the payload lanes, the parity on
    /// their wires.
    fn stage(&self) -> SyndromeStage<'_, Self> {
        SyndromeStage::new(
            self,
            self.payload(),
            (0..self.m).map(|j| self.parity_wire(j)),
        )
    }
}

impl BusCode for Hamming {
    fn name(&self) -> String {
        match self.form {
            Form::Plain => "Hamming",
            Form::HalfShielded => "HammingX",
            Form::BusInvert => "BIH",
            Form::Extended => "ExtHamming",
            Form::Sabotaged => "Sabotaged",
        }
        .into()
    }

    fn data_bits(&self) -> usize {
        self.k
    }

    fn wires(&self) -> usize {
        self.parity_wire(self.m - 1) + 1 + usize::from(self.form == Form::Extended)
    }

    fn encode(&mut self, data: Word) -> Word {
        assert_eq!(data.width(), self.k, "data width mismatch");
        let payload = if self.form == Form::BusInvert {
            invert_payload(data, &mut self.prev)
        } else {
            data
        };
        let p = self.parities(payload);
        match self.form {
            Form::HalfShielded => {
                let region = (0..self.m).fold(0u128, |acc, j| {
                    acc | ((p >> j & 1) as u128) << half_shielded_slot(j)
                });
                payload.concat(Word::from_bits(region, self.wires() - self.k))
            }
            Form::Extended => {
                let base = payload.concat(Word::from_bits(p as u128, self.m));
                base.concat(Word::from_bits(u128::from(base.parity()), 1))
            }
            _ => payload.concat(Word::from_bits(p as u128, self.m)),
        }
    }

    fn decode(&mut self, bus: Word) -> Word {
        self.decode_checked(bus).0
    }

    fn decode_checked(&mut self, bus: Word) -> (Word, DecodeStatus) {
        assert_eq!(bus.width(), self.wires(), "bus width mismatch");
        let q = self.payload();
        #[allow(clippy::cast_possible_truncation)]
        let recv_p = if self.form == Form::HalfShielded {
            let region = bus.field(q, self.wires() - q);
            (0..self.m).fold(0, |acc, j| {
                acc | ((region >> half_shielded_slot(j) & 1) as usize) << j
            })
        } else {
            bus.field(q, self.m) as usize
        };
        let (payload, status) = self.correct(bus.slice(0, q), recv_p);
        match (self.form, status) {
            (Form::BusInvert, _) => (restore_payload(payload), status),
            // The overall parity wire is consistent when the whole bus
            // has even weight. A syndrome with consistent overall parity
            // is an even number of errors: an uncorrectable double error.
            (Form::Extended, DecodeStatus::Clean) if bus.parity() => {
                (payload, DecodeStatus::Corrected)
            }
            (Form::Extended, DecodeStatus::Corrected) if !bus.parity() => {
                (bus.slice(0, self.k), DecodeStatus::Detected)
            }
            // The sabotage: drop the correction, hand the raw systematic
            // data bits upward, and claim the word arrived clean.
            (Form::Sabotaged, DecodeStatus::Corrected) => {
                (bus.slice(0, self.k), DecodeStatus::Clean)
            }
            _ => (payload, status),
        }
    }

    fn reset(&mut self) {
        self.prev = Word::zero(self.k);
    }

    fn is_stateful(&self) -> bool {
        self.form == Form::BusInvert
    }

    fn correctable_errors(&self) -> usize {
        1
    }

    fn detectable_errors(&self) -> usize {
        1 + usize::from(self.form == Form::Extended)
    }
}

impl Columns for Hamming {
    fn planes(&self) -> usize {
        self.m
    }

    fn column(&self, i: usize) -> u32 {
        u32::from(POSITION[i])
    }

    fn parity_column(&self, j: usize) -> u32 {
        1 << j
    }
}

/// The plane form: the syndrome stage over the payload lanes, behind an
/// `InvertStage` for BIH (its payload is the inverted data plus the
/// invert lane), with the parity bits on the family's lanes, an
/// overall-parity lane for ExtHamming and correction suppressed for
/// Sabotaged.
impl Planes for Hamming {
    fn encode_planes(&mut self, data: &WordBlock) -> WordBlock {
        let wires = self.wires();
        let mut out = WordBlock::zero(wires, data.len());
        out.lanes[..self.k].copy_from_slice(&data.lanes);
        if self.form == Form::BusInvert {
            let mask = invert_block(data, &mut self.prev);
            for lane in &mut out.lanes[..self.k] {
                *lane ^= mask;
            }
            out.lanes[self.k] = mask;
        }
        let stage = self.stage();
        let parity = stage.parity(out.lanes[..self.payload()].iter().copied());
        stage.place(parity, &mut out);
        if self.form == Form::Extended {
            let n = wires - 1;
            out.lanes[n] = out.lanes[..n].iter().fold(0, |acc, &l| acc ^ l);
        }
        out
    }

    fn decode_planes(&mut self, bus: &WordBlock) -> (WordBlock, BlockStatus) {
        let vm = bus.valid_mask();
        // SEC-DED: bit set where the recomputed overall parity disagrees
        // with the received overall-parity wire (an odd error count).
        let odd = if self.form == Form::Extended {
            bus.lanes.iter().fold(0, |acc, &l| acc ^ l) & vm
        } else {
            0
        };
        let correct = match self.form {
            // With consistent overall parity a fired syndrome is a double
            // error: the raw data goes out, as in the word decoder.
            Form::Extended => odd,
            Form::Sabotaged => 0,
            _ => vm,
        };
        let mut out = bus.prefix(self.payload());
        let syn = self.stage().decode(bus, correct, &mut out.lanes);
        if self.form == Form::BusInvert {
            restore_block(&mut out.lanes);
        }
        let clean = vm & !syn.nonzero;
        let corrected = syn.nonzero & syn.matched;
        let detected = syn.nonzero & !syn.matched;
        let status = match self.form {
            Form::Extended => BlockStatus {
                clean: clean & !odd,
                corrected: (clean | corrected) & odd,
                detected: (corrected & !odd) | detected,
                ..BlockStatus::default()
            },
            Form::Sabotaged => BlockStatus {
                clean: vm & !detected,
                detected,
                ..BlockStatus::default()
            },
            _ => BlockStatus {
                clean,
                corrected,
                detected,
                ..BlockStatus::default()
            },
        };
        (out, status)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn parity_bit_counts_match_paper() {
        assert_eq!(hamming_parity_bits(4), 3); // Table II: 7 wires
        assert_eq!(hamming_parity_bits(5), 4); // BIH 4-bit: data+invert
        assert_eq!(hamming_parity_bits(11), 4);
        assert_eq!(hamming_parity_bits(26), 5);
        assert_eq!(hamming_parity_bits(32), 6); // Table III: 38 wires
        assert_eq!(hamming_parity_bits(33), 6); // BIH 32-bit: 39 wires
        assert_eq!(hamming_parity_bits(57), 6);
        assert_eq!(hamming_parity_bits(64), 7);
    }

    #[test]
    fn roundtrip_clean() {
        let mut c = Hamming::new(8);
        for w in Word::enumerate_all(8) {
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
        let mut c = Hamming::new(4);
        for w in Word::enumerate_all(4) {
            let cw = c.encode(w);
            for i in 0..cw.width() {
                let bad = cw.with_bit(i, !cw.bit(i));
                let (d, s) = c.decode_checked(bad);
                assert_eq!(d, w, "flip wire {i} of {cw}");
                assert_eq!(s, DecodeStatus::Corrected);
            }
        }
    }

    #[test]
    fn corrects_single_errors_wide_random() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut c = Hamming::new(32);
        for _ in 0..300 {
            let w = Word::from_bits(rng.gen::<u128>(), 32);
            let cw = c.encode(w);
            let i = rng.gen_range(0..cw.width());
            assert_eq!(c.decode(cw.with_bit(i, !cw.bit(i))), w);
        }
    }

    #[test]
    fn minimum_distance_is_three() {
        let mut c = Hamming::new(4);
        let mut min = u32::MAX;
        for a in Word::enumerate_all(4) {
            for b in Word::enumerate_all(4) {
                if a != b {
                    min = min.min(c.encode(a).hamming_distance(c.encode(b)));
                }
            }
        }
        assert_eq!(min, 3);
    }

    #[test]
    fn code_is_linear() {
        // XOR of codewords is a codeword (needed by Appendix-I reasoning
        // and the framework's "linear ECC" requirement).
        let mut c = Hamming::new(6);
        for a in Word::enumerate_all(6) {
            for b in Word::enumerate_all(6) {
                let ca = c.encode(a);
                let cb = c.encode(b);
                assert_eq!(ca.xor(cb), c.encode(a.xor(b)));
            }
        }
    }

    #[test]
    fn parity_coverage_is_consistent_with_encoder() {
        let c = Hamming::new(16);
        for j in 0..c.parity_bits() {
            let cover = c.parity_coverage(j);
            // Flipping exactly one covered data bit flips parity j.
            let mut enc = c.clone();
            let base = enc.encode(Word::zero(16));
            let mut d = Word::zero(16);
            d.set_bit(cover[0], true);
            let cw = enc.encode(d);
            assert!(base.bit(16 + j) != cw.bit(16 + j));
        }
    }

    #[test]
    fn systematic_layout() {
        let mut c = Hamming::new(8);
        let d = Word::from_bits(0b1011_0010, 8);
        let cw = c.encode(d);
        assert_eq!(cw.slice(0, 8), d, "data must cross unmodified");
    }

    #[test]
    fn family_wire_counts_match_paper() {
        // Table II at 4 bits, Table III at 32: HammingX, BIH, ExtHamming.
        for (k, wires) in [(4, [8, 9, 8]), (32, [41, 39, 39])] {
            let family = [Hamming::hamming_x(k), Hamming::bih(k), Hamming::extended(k)];
            for (c, w) in family.iter().zip(wires) {
                assert_eq!(c.wires(), w, "{} k={k}", c.name());
            }
        }
    }

    fn parity_wires(c: &Hamming) -> Vec<usize> {
        (0..c.m).map(|j| c.parity_wire(j)).collect()
    }

    #[test]
    fn hamming_x_roundtrips_and_corrects() {
        let mut c = Hamming::hamming_x(4);
        for w in Word::enumerate_all(4) {
            let cw = c.encode(w);
            let (d, s) = c.decode_checked(cw);
            assert_eq!(d, w);
            assert_eq!(s, DecodeStatus::Clean);
            for i in 0..cw.width() {
                // Shield wires carry no information; flipping one is either
                // corrected (it aliases a parity position) or ignored.
                let (d, _) = c.decode_checked(cw.with_bit(i, !cw.bit(i)));
                assert_eq!(d, w, "flip {i}");
            }
        }
    }

    #[test]
    fn hamming_x_parity_wires_fly_at_most_1_plus_3_lambda() {
        let lambda = 2.8;
        let mut c = Hamming::hamming_x(4);
        let limit = socbus_model::DelayClass::new(3).factor(lambda);
        for b in Word::enumerate_all(4) {
            for a in Word::enumerate_all(4) {
                let tv = socbus_model::TransitionVector::between(c.encode(b), c.encode(a));
                for &w in &parity_wires(&c) {
                    let f = socbus_model::wire_delay_factor(&tv, w, lambda);
                    assert!(f <= limit + 1e-12, "parity wire {w} factor {f}");
                }
            }
        }
    }

    #[test]
    fn hamming_x_layout_shields_are_quiet() {
        let mut c = Hamming::hamming_x(4);
        // k=4, m=3: wires [d0..d3, p0, S, p1, p2] -> wire 5 is the shield.
        assert_eq!(parity_wires(&c), vec![4, 6, 7]);
        for w in Word::enumerate_all(4) {
            assert!(!c.encode(w).bit(5), "shield driven high");
        }
    }

    #[test]
    fn hamming_x_carries_hammings_codewords() {
        // Shield-stripped HammingX equals Hamming: same reliability math.
        let mut hx = Hamming::hamming_x(8);
        let mut h = Hamming::new(8);
        for w in Word::enumerate_all(8) {
            let cx = hx.encode(w);
            let ch = h.encode(w);
            for i in 0..8 {
                assert_eq!(cx.bit(i), ch.bit(i));
            }
            for (j, &pw) in parity_wires(&hx).iter().enumerate() {
                assert_eq!(cx.bit(pw), ch.bit(8 + j));
            }
        }
    }

    #[test]
    fn bih_roundtrips_a_sequence() {
        let mut enc = Hamming::bih(8);
        let mut dec = Hamming::bih(8);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..300 {
            let d = Word::from_bits(rng.gen::<u128>(), 8);
            assert_eq!(dec.decode(enc.encode(d)), d);
        }
    }

    #[test]
    fn bih_corrects_single_errors_along_a_sequence() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut enc = Hamming::bih(8);
        let dec = Hamming::bih(8);
        for _ in 0..200 {
            let d = Word::from_bits(rng.gen::<u128>(), 8);
            let cw = enc.encode(d);
            let i = rng.gen_range(0..cw.width());
            // Decoder is stateless (inversion is carried on the wire), so a
            // fresh clone per word is fine.
            let mut dec_i = dec.clone();
            assert_eq!(dec_i.decode(cw.with_bit(i, !cw.bit(i))), d, "flip {i}");
        }
    }

    #[test]
    fn bih_activity_reduced_versus_plain_hamming() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut bih = Hamming::bih(16);
        let mut ham = Hamming::new(16);
        let (mut prev_b, mut prev_h) = (Word::zero(bih.wires()), Word::zero(ham.wires()));
        let (mut tog_b, mut tog_h) = (0u64, 0u64);
        for _ in 0..4000 {
            let d = Word::from_bits(rng.gen::<u128>(), 16);
            let cb = bih.encode(d);
            let ch = ham.encode(d);
            tog_b += u64::from(prev_b.hamming_distance(cb));
            tog_h += u64::from(prev_h.hamming_distance(ch));
            prev_b = cb;
            prev_h = ch;
        }
        assert!(
            tog_b < tog_h,
            "BIH toggles {tog_b} should undercut Hamming {tog_h}"
        );
    }

    #[test]
    fn bih_parity_inverts_matches_coverage_parity() {
        let bih = Hamming::bih(4);
        let inv = bih.parity_inverts();
        assert_eq!(inv.len(), 4);
        for (j, &flag) in inv.iter().enumerate() {
            assert_eq!(flag, bih.parity_coverage(j).len() % 2 == 1);
        }
    }

    #[test]
    fn bih_xor_trick_is_sound() {
        // Computing parities on uninverted data and conditionally flipping
        // the odd-coverage ones must equal encoding the inverted data.
        let k = 6;
        let mut hamming = Hamming::new(k + 1);
        let inverts = Hamming::bih(k).parity_inverts();
        for d in Word::enumerate_all(k) {
            // Parallel path: parity of (d || 0), then flip odd-coverage bits.
            let base = hamming.encode(d.concat(Word::from_bools(&[false])));
            let mut parallel = Word::zero(hamming.parity_bits());
            for (j, &inv) in inverts.iter().enumerate() {
                let p = base.bit(k + 1 + j) ^ inv;
                parallel.set_bit(j, p);
            }
            // Serial path: parity of (!d || 1).
            let serial = hamming.encode(d.not().concat(Word::from_bools(&[true])));
            for j in 0..hamming.parity_bits() {
                assert_eq!(parallel.bit(j), serial.bit(k + 1 + j), "parity {j} of {d}");
            }
        }
    }

    #[test]
    fn extended_roundtrips_clean() {
        let mut c = Hamming::extended(6);
        for w in Word::enumerate_all(6) {
            let (d, s) = {
                let cw = c.encode(w);
                c.decode_checked(cw)
            };
            assert_eq!(d, w);
            assert_eq!(s, DecodeStatus::Clean);
        }
    }

    #[test]
    fn extended_corrects_every_single_error() {
        let mut c = Hamming::extended(4);
        for w in Word::enumerate_all(4) {
            let cw = c.encode(w);
            for i in 0..cw.width() {
                let bad = cw.with_bit(i, !cw.bit(i));
                let (d, s) = c.decode_checked(bad);
                assert_eq!(d, w, "flip wire {i}");
                assert_eq!(s, DecodeStatus::Corrected);
            }
        }
    }

    #[test]
    fn extended_detects_every_double_error() {
        let mut c = Hamming::extended(4);
        for w in Word::enumerate_all(4) {
            let cw = c.encode(w);
            for i in 0..cw.width() {
                for j in (i + 1)..cw.width() {
                    let bad = cw.with_bit(i, !cw.bit(i)).with_bit(j, !cw.bit(j));
                    let (_, s) = c.decode_checked(bad);
                    assert_eq!(s, DecodeStatus::Detected, "flips {i},{j} of {cw}");
                }
            }
        }
    }

    #[test]
    fn extended_minimum_distance_is_four() {
        let mut c = Hamming::extended(4);
        let mut min = u32::MAX;
        for a in Word::enumerate_all(4) {
            for b in Word::enumerate_all(4) {
                if a != b {
                    min = min.min(c.encode(a).hamming_distance(c.encode(b)));
                }
            }
        }
        assert_eq!(min, 4);
    }

    #[test]
    fn sabotaged_clean_words_roundtrip() {
        let mut enc = Hamming::sabotaged(8);
        let mut dec = Hamming::sabotaged(8);
        for v in [0u128, 0xA5, 0xFF, 0x3C] {
            let d = Word::from_bits(v, 8);
            let (out, status) = dec.decode_checked(enc.encode(d));
            assert_eq!(out, d);
            assert_eq!(status, DecodeStatus::Clean);
        }
    }

    #[test]
    fn sabotaged_single_data_wire_error_is_silently_delivered_wrong() {
        let mut enc = Hamming::sabotaged(8);
        let mut dec = Hamming::sabotaged(8);
        let d = Word::from_bits(0x5A, 8);
        let mut bus = enc.encode(d);
        bus.set_bit(3, !bus.bit(3)); // single error on a data wire
        let (out, status) = dec.decode_checked(bus);
        assert_eq!(
            status,
            DecodeStatus::Clean,
            "the sabotage claims the word is clean"
        );
        assert_ne!(out, d, "…while delivering corrupted data");
        assert_eq!(out, d.with_bit(3, !d.bit(3)));
    }

    #[test]
    fn sabotaged_parity_wire_error_still_lies_about_cleanliness() {
        let mut enc = Hamming::sabotaged(8);
        let mut dec = Hamming::sabotaged(8);
        let d = Word::from_bits(0x5A, 8);
        let mut bus = enc.encode(d);
        let parity_wire = dec.wires() - 1;
        bus.set_bit(parity_wire, !bus.bit(parity_wire));
        let (out, status) = dec.decode_checked(bus);
        assert_eq!(out, d, "data bits were untouched");
        assert_eq!(
            status,
            DecodeStatus::Clean,
            "but Clean is still a lie for a corrupted codeword"
        );
    }
}

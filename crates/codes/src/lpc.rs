//! Low-power codes (LPC): transition-activity reduction.
//!
//! The paper's LPC representative is **bus-invert coding** (Stan &
//! Burleson): send the data word complemented, plus a set invert wire,
//! whenever the word differs from the previously driven word in more than
//! half its bits. Wide buses are partitioned into `i` sub-buses, each with
//! its own invert wire — the paper's `BI(i)` notation.
//!
//! Bus-invert is *nonlinear* and has memory (the previous bus word); the
//! paper's framework therefore places it after CAC and feeds its invert
//! bits through a linear CAC (LXC1) in joint codes.

use crate::batch::{BlockStatus, InvertStage, Planes, WordBlock};
use crate::catalog::Scheme;
use crate::traits::BusCode;
use socbus_model::Word;

/// BI(1) over a whole data word against `prev`, the data lines as last
/// driven: the driven lines `y` with the invert bit on top — the payload
/// BIH and DAPBI protect. Advances `prev` to `y`.
pub(crate) fn invert_payload(data: Word, prev: &mut Word) -> Word {
    let inv = 2 * data.hamming_distance(*prev) as usize > data.width();
    let y = if inv { data.not() } else { data };
    *prev = y;
    y.concat(Word::from_bits(u128::from(inv), 1))
}

/// The inverse of [`invert_payload`]: the data from `y` and its invert
/// bit.
pub(crate) fn restore_payload(payload: Word) -> Word {
    let k = payload.width() - 1;
    let y = payload.slice(0, k);
    if payload.bit(k) {
        y.not()
    } else {
        y
    }
}

/// [`invert_payload`] over a block: the invert plane of `data`'s words,
/// seeded from and advancing `prev`, the data lines as last driven.
pub(crate) fn invert_block(data: &WordBlock, prev: &mut Word) -> u64 {
    let mut stage = InvertStage::new(0, data.width(), *prev);
    let mask = stage.mask(data);
    *prev = stage.driven();
    mask
}

/// [`restore_payload`] over a block: pops the invert lane off `lanes`
/// and flips the data lanes under it.
pub(crate) fn restore_block(lanes: &mut Vec<u64>) {
    let inv = lanes.pop().expect("invert lane");
    for lane in lanes {
        *lane ^= inv;
    }
}

/// Bus-invert code `BI(i)`: `k` data bits in `i` sub-buses, each with its
/// own invert wire placed immediately after the sub-bus.
///
/// Wire layout for `BI(2)` on 8 bits:
/// `[d0..d3, inv0, d4..d7, inv1]` — 10 wires.
///
/// # Examples
///
/// ```
/// use socbus_codes::{BusCode, BusInvert};
/// use socbus_model::Word;
///
/// let mut enc = BusInvert::new(8, 1);
/// let mut dec = BusInvert::new(8, 1);
/// // First word from the all-zero state: 6 of 8 bits high -> inverted.
/// let coded = enc.encode(Word::from_bits(0b0111_1110, 8));
/// assert!(coded.bit(8), "invert wire set");
/// assert_eq!(dec.decode(coded), Word::from_bits(0b0111_1110, 8));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BusInvert {
    k: usize,
    /// Number of sub-buses `i`.
    i: usize,
    /// Previously driven bus word (encoder memory).
    prev: Word,
}

/// One sub-bus of [`BusInvert`], derived from `(k, i)` on demand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubBus {
    /// First data-bit index (in the data word) of this sub-bus.
    pub data_lo: usize,
    /// Number of data bits.
    pub len: usize,
    /// First wire index of this sub-bus on the bus; the invert wire is at
    /// `wire_lo + len`.
    pub wire_lo: usize,
}

/// The wires a bus-invert word runs on, as whole-word bit operations: the
/// bus as one `u64` when it has at most 64 wires (every catalog width up
/// to k = 56 under BI(8)), else as a bus-wide [`Word`]. Every value has
/// the bus's width.
trait Lines: Copy {
    /// No wires set.
    fn none(self) -> Self;
    /// Ones on wires `lo..hi` (`lo < hi`).
    fn window(self, lo: usize, hi: usize) -> Self;
    fn and(self, other: Self) -> Self;
    fn or(self, other: Self) -> Self;
    fn xor(self, other: Self) -> Self;
    /// Every wire moved `n` wires up.
    fn up(self, n: usize) -> Self;
    /// Every wire moved `n` wires down.
    fn down(self, n: usize) -> Self;
    /// Number of wires at 1.
    fn ones(self) -> u32;
    /// Wire `i`.
    fn bit(self, i: usize) -> bool;
    /// `self` when `on`, else no wires.
    fn when(self, on: bool) -> Self;
}

impl Lines for u64 {
    fn none(self) -> u64 {
        0
    }

    fn window(self, lo: usize, hi: usize) -> u64 {
        u64::MAX >> (64 - (hi - lo)) << lo
    }

    fn and(self, other: u64) -> u64 {
        self & other
    }

    fn or(self, other: u64) -> u64 {
        self | other
    }

    fn xor(self, other: u64) -> u64 {
        self ^ other
    }

    fn up(self, n: usize) -> u64 {
        self << n
    }

    fn down(self, n: usize) -> u64 {
        self >> n
    }

    fn ones(self) -> u32 {
        self.count_ones()
    }

    fn bit(self, i: usize) -> bool {
        self >> i & 1 == 1
    }

    /// Branch-free: the invert decisions follow the data.
    fn when(self, on: bool) -> u64 {
        self & 0u64.wrapping_sub(u64::from(on))
    }
}

impl Lines for Word {
    fn none(self) -> Word {
        Word::zero(self.width())
    }

    fn window(self, lo: usize, hi: usize) -> Word {
        self.none().place(lo, Word::zero(hi - lo).not())
    }

    fn and(self, other: Word) -> Word {
        Word::and(self, other)
    }

    fn or(self, other: Word) -> Word {
        Word::or(self, other)
    }

    fn xor(self, other: Word) -> Word {
        Word::xor(self, other)
    }

    fn up(self, n: usize) -> Word {
        self.shl(n)
    }

    fn down(self, n: usize) -> Word {
        self.shr(n)
    }

    fn ones(self) -> u32 {
        self.count_ones()
    }

    fn bit(self, i: usize) -> bool {
        Word::bit(self, i)
    }

    fn when(self, on: bool) -> Word {
        if on {
            self
        } else {
            self.none()
        }
    }
}

impl BusInvert {
    /// Creates `BI(i)` over `k` data bits. Sub-bus sizes differ by at most
    /// one when `i` does not divide `k`.
    ///
    /// # Panics
    ///
    /// Panics where [`Scheme::check`] rejects `k`: `i == 0`, `i > k`, or
    /// a coded width past the word limit.
    #[must_use]
    pub fn new(k: usize, i: usize) -> Self {
        Scheme::BusInvert(i).assert_builds(k);
        BusInvert {
            k,
            i,
            prev: Word::zero(k + i),
        }
    }

    /// Number of sub-buses `i`.
    #[must_use]
    pub fn sub_buses(&self) -> usize {
        self.i
    }

    /// The sub-buses in wire order: the first `k mod i` carry one bit
    /// more than the rest, and every sub-bus is followed by its invert
    /// wire. The partition's one statement: the word and plane forms,
    /// `framework` and the netlist generator all read it.
    pub fn subs(&self) -> impl Iterator<Item = SubBus> {
        let (base, extra) = (self.k / self.i, self.k % self.i);
        (0..self.i).map(move |s| {
            let data_lo = s * base + s.min(extra);
            SubBus {
                data_lo,
                len: base + usize::from(s < extra),
                wire_lo: data_lo + s,
            }
        })
    }

    /// The invert rule on whole words: `data` (data bits) and the
    /// previously driven bus word to the next driven bus word. Sub-bus
    /// `s` sits `s` wires up the bus, past the invert wires below it, so
    /// its toggle count is one masked popcount of `data ^ (prev >> s)`;
    /// the inverted sub-buses, invert wires included, flip in one XOR.
    fn invert<B: Lines>(&self, data: B, prev: B) -> B {
        let (mut placed, mut flip) = (prev.none(), prev.none());
        for (s, sub) in self.subs().enumerate() {
            let mask = prev.window(sub.data_lo, sub.data_lo + sub.len);
            placed = placed.or(data.and(mask).up(s));
            // Invert when more than half the data lines would toggle.
            let toggles = data.xor(prev.down(s)).and(mask).ones() as usize;
            let wires = prev.window(sub.wire_lo, sub.wire_lo + sub.len + 1);
            flip = flip.or(wires.when(2 * toggles > sub.len));
        }
        placed.xor(flip)
    }

    /// The inverse of [`BusInvert::invert`]: each sub-bus moved down to
    /// its data bits, the inverted ones flipped back in one XOR.
    fn restore<B: Lines>(&self, bus: B) -> B {
        let (mut data, mut flip) = (bus.none(), bus.none());
        for (s, sub) in self.subs().enumerate() {
            let mask = bus.window(sub.data_lo, sub.data_lo + sub.len);
            data = data.or(bus.down(s).and(mask));
            flip = flip.or(mask.when(bus.bit(sub.wire_lo + sub.len)));
        }
        data.xor(flip)
    }
}

impl BusCode for BusInvert {
    fn name(&self) -> String {
        format!("BI({})", self.i)
    }

    fn data_bits(&self) -> usize {
        self.k
    }

    fn wires(&self) -> usize {
        self.k + self.i
    }

    fn encode(&mut self, data: Word) -> Word {
        assert_eq!(data.width(), self.k, "data width mismatch");
        let wires = self.wires();
        self.prev = if wires <= 64 {
            let out = self.invert(data.limb(0), self.prev.limb(0));
            Word::from_limbs([out, 0, 0, 0], wires)
        } else {
            self.invert(Word::zero(wires).place(0, data), self.prev)
        };
        self.prev
    }

    fn decode(&mut self, bus: Word) -> Word {
        assert_eq!(bus.width(), self.wires(), "bus width mismatch");
        if self.wires() <= 64 {
            Word::from_limbs([self.restore(bus.limb(0)), 0, 0, 0], self.k)
        } else {
            self.restore(bus).slice(0, self.k)
        }
    }

    fn reset(&mut self) {
        self.prev = Word::zero(self.wires());
    }

    fn is_stateful(&self) -> bool {
        true
    }
}

/// The plane form: one `InvertStage` per sub-bus, seeded from its wires
/// of the last driven word, each followed by its invert wire; the
/// block's last word is the new memory.
impl Planes for BusInvert {
    fn encode_planes(&mut self, data: &WordBlock) -> WordBlock {
        let mut out = WordBlock::zero(self.wires(), data.len());
        for sub in self.subs() {
            let (lo, len) = (sub.data_lo, sub.len);
            let mut stage = InvertStage::new(lo, len, self.prev.slice(sub.wire_lo, len));
            let mask = stage.mask(data);
            for (o, &d) in out.lanes[sub.wire_lo..]
                .iter_mut()
                .zip(&data.lanes[lo..lo + len])
            {
                *o = d ^ mask;
            }
            out.lanes[sub.wire_lo + len] = mask;
        }
        if !data.is_empty() {
            self.prev = out.word(data.len() - 1);
        }
        out
    }

    fn decode_planes(&mut self, bus: &WordBlock) -> (WordBlock, BlockStatus) {
        let mut out = WordBlock::zero(self.k, bus.len());
        for sub in self.subs() {
            let (lo, len) = (sub.data_lo, sub.len);
            let inv = bus.lanes[sub.wire_lo + len];
            for (o, &b) in out.lanes[lo..lo + len]
                .iter_mut()
                .zip(&bus.lanes[sub.wire_lo..])
            {
                *o = b ^ inv;
            }
        }
        (out, BlockStatus::all_unchecked(bus.len()))
    }
}

/// Coupling-driven bus-invert (the paper's refs \[5\], \[6\]): the bus is
/// split into *odd* and *even* wire groups, each with its own invert
/// wire, and the two invert decisions jointly minimize the estimated
/// self + coupling energy of the transition at a given design-time λ.
///
/// The paper's §II-B assessment — "these codes require significant
/// increase in complexity and overhead" — is what the encoder here makes
/// concrete: all four invert combinations are evaluated against the full
/// eq. (2)–(4) metric every cycle (in hardware, four parallel metric
/// trees plus a comparator tree), versus plain BI's single popcount.
///
/// Wire layout: `[d0 … d(k-1), inv_even, inv_odd]`, where data bit `i`
/// belongs to the even group when `i` is even.
#[derive(Clone, Debug)]
pub struct CouplingBusInvert {
    k: usize,
    lambda: f64,
    prev: Word,
}

impl CouplingBusInvert {
    /// Coupling-driven odd/even bus invert over `k` data bits, optimizing
    /// for coupling ratio `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`, `lambda <= 0`, or the bus is too wide.
    #[must_use]
    pub fn new(k: usize, lambda: f64) -> Self {
        assert!(k >= 2, "need both an odd and an even group");
        assert!(lambda > 0.0, "lambda must be positive");
        assert!(k + 2 <= socbus_model::word::MAX_WIDTH, "bus too wide");
        CouplingBusInvert {
            k,
            lambda,
            prev: Word::zero(k + 2),
        }
    }

    /// The data wires with the even and/or odd group complemented.
    fn invert_groups(data: Word, inv_even: bool, inv_odd: bool) -> Word {
        let even = Word::from_limbs([0x5555_5555_5555_5555; Word::LIMB_COUNT], data.width());
        let mut flip = Word::zero(data.width());
        if inv_even {
            flip = flip.xor(even);
        }
        if inv_odd {
            flip = flip.xor(even.not());
        }
        data.xor(flip)
    }

    fn apply(&self, data: Word, inv_even: bool, inv_odd: bool) -> Word {
        let invs = u128::from(inv_even) | u128::from(inv_odd) << 1;
        Self::invert_groups(data, inv_even, inv_odd).concat(Word::from_bits(invs, 2))
    }
}

impl BusCode for CouplingBusInvert {
    fn name(&self) -> String {
        "OE-BI".into()
    }

    fn data_bits(&self) -> usize {
        self.k
    }

    fn wires(&self) -> usize {
        self.k + 2
    }

    fn encode(&mut self, data: Word) -> Word {
        assert_eq!(data.width(), self.k, "data width mismatch");
        let mut best: Option<(f64, Word)> = None;
        for inv_even in [false, true] {
            for inv_odd in [false, true] {
                let candidate = self.apply(data, inv_even, inv_odd);
                let e =
                    socbus_model::word_transition_energy(self.prev, candidate).total(self.lambda);
                if best.as_ref().is_none_or(|(b, _)| e < *b) {
                    best = Some((e, candidate));
                }
            }
        }
        let (_, chosen) = best.expect("four candidates evaluated");
        self.prev = chosen;
        chosen
    }

    fn decode(&mut self, bus: Word) -> Word {
        assert_eq!(bus.width(), self.wires(), "bus width mismatch");
        Self::invert_groups(bus.slice(0, self.k), bus.bit(self.k), bus.bit(self.k + 1))
    }

    fn reset(&mut self) {
        self.prev = Word::zero(self.wires());
    }

    fn is_stateful(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    impl SubBus {
        /// The sub-bus in fields of at most 64 wires: `(offset, len)`.
        fn chunks(self) -> impl Iterator<Item = (usize, usize)> {
            (0..self.len)
                .step_by(64)
                .map(move |c| (c, 64.min(self.len - c)))
        }
    }

    impl BusInvert {
        /// The field-by-field encoder the whole-word rule replaced: the
        /// reference it must equal.
        fn encode_fields(&mut self, data: Word) -> Word {
            let mut out = Word::zero(self.wires());
            for sub in self.subs() {
                let mut toggles = 0;
                for (c, n) in sub.chunks() {
                    let old = self.prev.field(sub.wire_lo + c, n);
                    toggles += (data.field(sub.data_lo + c, n) ^ old).count_ones() as usize;
                }
                let invert = 2 * toggles > sub.len;
                let flip = if invert { u64::MAX } else { 0 };
                for (c, n) in sub.chunks() {
                    out = out.with_field(sub.wire_lo + c, n, data.field(sub.data_lo + c, n) ^ flip);
                }
                out = out.with_bit(sub.wire_lo + sub.len, invert);
            }
            self.prev = out;
            out
        }

        /// The field-by-field decoder the whole-word rule replaced.
        fn decode_fields(&self, bus: Word) -> Word {
            let mut out = Word::zero(self.k);
            for sub in self.subs() {
                let flip = if bus.bit(sub.wire_lo + sub.len) {
                    u64::MAX
                } else {
                    0
                };
                for (c, n) in sub.chunks() {
                    out = out.with_field(sub.data_lo + c, n, bus.field(sub.wire_lo + c, n) ^ flip);
                }
            }
            out
        }
    }

    fn random_word(rng: &mut StdRng, width: usize) -> Word {
        (0..width).fold(Word::zero(width), |w, i| w.with_bit(i, rng.gen::<bool>()))
    }

    proptest! {
        /// The whole-word rule equals the field-by-field reference on
        /// every sub-bus layout up to 64 data bits — one-`u64` buses and
        /// limb buses up to 128 wires — over a stream (so the encoder
        /// memory is exercised) and on arbitrary received words.
        #[test]
        fn whole_word_rule_equals_the_field_reference(
            k in 1usize..=64,
            i_pick in 0usize..64,
            seed in any::<u64>(),
        ) {
            let i = 1 + i_pick % k;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut fast = BusInvert::new(k, i);
            let mut reference = BusInvert::new(k, i);
            for _ in 0..24 {
                let data = random_word(&mut rng, k);
                let coded = fast.encode(data);
                prop_assert_eq!(coded, reference.encode_fields(data), "BI({}) k={} encode", i, k);
                prop_assert_eq!(fast.decode(coded), data);
                let bus = random_word(&mut rng, k + i);
                prop_assert_eq!(fast.decode(bus), reference.decode_fields(bus), "BI({}) k={} decode", i, k);
            }
        }
    }

    #[test]
    fn whole_word_rule_equals_the_field_reference_on_wide_buses() {
        let mut rng = StdRng::seed_from_u64(0xB1DE);
        for (k, i) in [
            (200, 1),
            (200, 7),
            (130, 2),
            (255, 1),
            (128, 128),
            (192, 63),
        ] {
            let mut fast = BusInvert::new(k, i);
            let mut reference = BusInvert::new(k, i);
            for _ in 0..64 {
                let data = random_word(&mut rng, k);
                let coded = fast.encode(data);
                assert_eq!(coded, reference.encode_fields(data), "BI({i}) k={k}");
                let bus = random_word(&mut rng, k + i);
                assert_eq!(
                    fast.decode(bus),
                    reference.decode_fields(bus),
                    "BI({i}) k={k}"
                );
            }
        }
    }

    #[test]
    fn roundtrip_random_sequence() {
        let mut rng = StdRng::seed_from_u64(7);
        for i in [1usize, 2, 4, 8] {
            let mut enc = BusInvert::new(16, i);
            let mut dec = BusInvert::new(16, i);
            for _ in 0..500 {
                let d = Word::from_bits(rng.gen::<u128>(), 16);
                assert_eq!(dec.decode(enc.encode(d)), d, "BI({i})");
            }
        }
    }

    #[test]
    fn inverts_when_majority_toggles() {
        let mut enc = BusInvert::new(4, 1);
        // From 0000, data 1110 toggles 3 of 4 lines: must invert.
        let coded = enc.encode(Word::from_bits(0b1110, 4));
        assert!(coded.bit(4));
        assert_eq!(coded.slice(0, 4), Word::from_bits(0b0001, 4));
    }

    #[test]
    fn does_not_invert_on_tie() {
        let mut enc = BusInvert::new(4, 1);
        // 0011 toggles exactly half: no inversion.
        let coded = enc.encode(Word::from_bits(0b0011, 4));
        assert!(!coded.bit(4));
    }

    #[test]
    fn transition_count_never_exceeds_half_plus_invert() {
        // The BI(1) guarantee: at most ceil(k/2) data-line toggles plus
        // possibly the invert wire.
        let mut rng = StdRng::seed_from_u64(13);
        let mut enc = BusInvert::new(8, 1);
        let mut prev = Word::zero(9);
        for _ in 0..2000 {
            let d = Word::from_bits(rng.gen::<u128>(), 8);
            let cur = enc.encode(d);
            let data_toggles = prev.slice(0, 8).hamming_distance(cur.slice(0, 8));
            assert!(
                data_toggles <= 4,
                "BI(1) exceeded k/2 toggles: {data_toggles}"
            );
            prev = cur;
        }
    }

    #[test]
    fn sub_bus_partition_covers_all_bits() {
        // 10 bits in 3 sub-buses: sizes 4,3,3.
        let bi = BusInvert::new(10, 3);
        assert_eq!(bi.wires(), 13);
        let sizes: Vec<usize> = bi.subs().map(|s| s.len).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        assert_eq!(bi.subs().map(|s| s.len).sum::<usize>(), 10);
    }

    #[test]
    fn reset_clears_memory() {
        let mut enc = BusInvert::new(4, 1);
        let _ = enc.encode(Word::from_bits(0b1111, 4));
        enc.reset();
        // After reset, encoding 1110 behaves as from all-zero: inverted.
        let coded = enc.encode(Word::from_bits(0b1110, 4));
        assert!(coded.bit(4));
    }

    #[test]
    fn bi8_reduces_activity_vs_uncoded() {
        // Average switching over random data must drop below the uncoded
        // k/2 toggles per transfer (BI bound), despite the extra wires.
        let mut rng = StdRng::seed_from_u64(99);
        let mut enc = BusInvert::new(32, 8);
        let mut prev = Word::zero(enc.wires());
        let mut total = 0u64;
        let n = 4000;
        for _ in 0..n {
            let d = Word::from_bits(rng.gen::<u128>(), 32);
            let cur = enc.encode(d);
            total += u64::from(prev.hamming_distance(cur));
            prev = cur;
        }
        let avg = total as f64 / f64::from(n);
        assert!(
            avg < 16.0,
            "BI(8) average switching {avg} not below uncoded 16"
        );
    }

    #[test]
    #[should_panic(expected = "more sub-buses")]
    fn too_many_sub_buses_panics() {
        let _ = BusInvert::new(4, 5);
    }

    #[test]
    fn coupling_bi_roundtrips() {
        let mut enc = CouplingBusInvert::new(16, 2.8);
        let mut dec = CouplingBusInvert::new(16, 2.8);
        let mut rng = StdRng::seed_from_u64(51);
        for _ in 0..500 {
            let d = Word::from_bits(rng.gen::<u128>(), 16);
            assert_eq!(dec.decode(enc.encode(d)), d);
        }
    }

    #[test]
    fn coupling_bi_reduces_coupling_energy_below_plain_bi() {
        // The coupling-aware metric must beat self-only BI on total energy
        // at high lambda (its design point), measured over random traffic.
        let lambda = 4.0;
        let mut oe = CouplingBusInvert::new(16, lambda);
        let mut bi = BusInvert::new(16, 2); // same wire count (18)
        let mut rng = StdRng::seed_from_u64(61);
        let (mut e_oe, mut e_bi) = (0.0, 0.0);
        let mut prev_oe = oe.encode(Word::zero(16));
        let mut prev_bi = bi.encode(Word::zero(16));
        for _ in 0..15_000 {
            let d = Word::from_bits(rng.gen::<u128>(), 16);
            let c_oe = oe.encode(d);
            let c_bi = bi.encode(d);
            e_oe += socbus_model::word_transition_energy(prev_oe, c_oe).total(lambda);
            e_bi += socbus_model::word_transition_energy(prev_bi, c_bi).total(lambda);
            prev_oe = c_oe;
            prev_bi = c_bi;
        }
        assert!(e_oe < e_bi, "OE-BI {e_oe} should undercut BI(2) {e_bi}");
    }

    #[test]
    fn coupling_bi_encoder_is_greedy_optimal_per_step() {
        // Every chosen word is the cheapest of the four candidates.
        let lambda = 2.8;
        let mut enc = CouplingBusInvert::new(8, lambda);
        let mut rng = StdRng::seed_from_u64(71);
        let mut prev = enc.encode(Word::zero(8));
        for _ in 0..200 {
            let d = Word::from_bits(rng.gen::<u128>(), 8);
            let probe = enc.clone();
            let chosen = enc.encode(d);
            let chosen_e = socbus_model::word_transition_energy(prev, chosen).total(lambda);
            for ie in [false, true] {
                for io in [false, true] {
                    let cand = probe.apply(d, ie, io);
                    let e = socbus_model::word_transition_energy(prev, cand).total(lambda);
                    assert!(chosen_e <= e + 1e-12);
                }
            }
            prev = chosen;
        }
    }
}

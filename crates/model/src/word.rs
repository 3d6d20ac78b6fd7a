//! Fixed-width bus words.
//!
//! A [`Word`] is the value carried by the parallel wires of an on-chip bus in
//! one clock cycle. Wire 0 is, by convention, the *first* (edge) wire of the
//! bus; adjacency of wire indices is physical adjacency, which is what the
//! crosstalk models in [`crate::delay`] and [`crate::energy`] act on.
//!
//! Words are value types backed by four 64-bit limbs, supporting buses of up
//! to 256 wires — the paper's widest evaluated design (DAPBI on a 64-bit
//! bus) needs 131.
//!
//! Every multi-wire operation works on whole limbs: [`Word::slice`],
//! [`Word::concat`], [`Word::place`], [`Word::shl`] and [`Word::shr`]
//! are limb shifts,
//! [`Word::spread2`]/[`Word::gather2`] move a word onto or off every
//! other wire with a fixed shift-and-mask ladder, and [`Word::parity`] is
//! one popcount. These are the primitives the scalar codecs are built
//! from — the software image of the paper's word-parallel XOR trees and
//! wire permutations.

use rand::Rng;
use std::fmt;

/// Maximum supported bus width in wires.
pub const MAX_WIDTH: usize = 256;

const LIMBS: usize = MAX_WIDTH / 64;

/// Limb `l` of the mask selecting wires `0..width`.
#[inline]
fn low_mask(width: usize, l: usize) -> u64 {
    let bits = width.saturating_sub(64 * l).min(64);
    u64::MAX.checked_shr((64 - bits) as u32).unwrap_or(0)
}

/// Moves wire `i` to wire `i + n`; wires pushed past [`MAX_WIDTH`] drop.
///
/// Whole limbs move first (skipped for the common `n < 64`), then every
/// limb shifts by `n % 64` with the carry from the limb below. The carry
/// is shifted in two steps so `n % 64 == 0` needs no special case.
#[inline]
fn shl_limbs(src: [u64; LIMBS], n: usize) -> [u64; LIMBS] {
    let (q, r) = (n / 64, (n % 64) as u32);
    let mut s = src;
    if q > 0 {
        s = [0; LIMBS];
        if q < LIMBS {
            s[q..].copy_from_slice(&src[..LIMBS - q]);
        }
    }
    let mut out = [0u64; LIMBS];
    out[0] = s[0] << r;
    for l in 1..LIMBS {
        out[l] = s[l] << r | (s[l - 1] >> 1) >> (63 - r);
    }
    out
}

/// Moves wire `i` to wire `i − n`; wires below `n` drop. The mirror
/// image of [`shl_limbs`].
#[inline]
fn shr_limbs(src: [u64; LIMBS], n: usize) -> [u64; LIMBS] {
    let (q, r) = (n / 64, (n % 64) as u32);
    let mut s = src;
    if q > 0 {
        s = [0; LIMBS];
        if q < LIMBS {
            s[..LIMBS - q].copy_from_slice(&src[q..]);
        }
    }
    let mut out = [0u64; LIMBS];
    for l in 0..LIMBS - 1 {
        out[l] = s[l] >> r | (s[l + 1] << 1) << (63 - r);
    }
    out[LIMBS - 1] = s[LIMBS - 1] >> r;
    out
}

/// Bit `i` of the low 32 bits of `x` moved to bit `2i`.
#[inline]
fn spread32(x: u64) -> u64 {
    let mut x = x & 0xFFFF_FFFF;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    (x | (x << 1)) & 0x5555_5555_5555_5555
}

/// Bit `2i` of `x` moved to bit `i` (the inverse of [`spread32`]).
#[inline]
fn gather32(x: u64) -> u64 {
    let mut x = x & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    (x | (x >> 16)) & 0xFFFF_FFFF
}

/// A fixed-width binary word on a parallel bus.
///
/// Bit `i` of the word is the logic value on wire `i`. Two words on the same
/// bus must have equal [`width`](Word::width); operations that combine words
/// panic on width mismatch (this is a programming error, not a data error).
///
/// # Examples
///
/// ```
/// use socbus_model::Word;
///
/// let w = Word::from_bits(0b1011, 4);
/// assert_eq!(w.width(), 4);
/// assert!(w.bit(0) && w.bit(1) && !w.bit(2) && w.bit(3));
/// assert_eq!(w.count_ones(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Word {
    limbs: [u64; LIMBS],
    width: u16,
}

impl Word {
    /// Creates an all-zero word of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width > MAX_WIDTH`.
    #[must_use]
    #[inline]
    pub fn zero(width: usize) -> Self {
        assert!(width <= MAX_WIDTH, "bus width {width} exceeds {MAX_WIDTH}");
        Word {
            limbs: [0; LIMBS],
            width: width as u16,
        }
    }

    /// Creates a word from the low `width` bits of `bits`.
    ///
    /// Bits above `width` are masked off.
    ///
    /// # Panics
    ///
    /// Panics if `width > MAX_WIDTH`.
    #[must_use]
    #[inline]
    pub fn from_bits(bits: u128, width: usize) -> Self {
        let mut w = Word::zero(width);
        w.limbs[0] = bits as u64;
        w.limbs[1] = (bits >> 64) as u64;
        w.mask_off();
        w
    }

    /// A uniformly random `width`-wire word: one `u128` draw per 128
    /// wires, low wires first. Up to 128 wires that is the single
    /// `Word::from_bits(rng.gen::<u128>(), width)` draw.
    ///
    /// # Panics
    ///
    /// Panics if `width > MAX_WIDTH`.
    #[must_use]
    #[inline]
    pub fn random<R: Rng>(rng: &mut R, width: usize) -> Self {
        let low = Word::from_bits(rng.gen::<u128>(), width);
        if width <= 128 {
            return low;
        }
        let high = rng.gen::<u128>();
        let mut limbs = low.limbs;
        limbs[2] = high as u64;
        limbs[3] = (high >> 64) as u64;
        Word::from_limbs(limbs, width)
    }

    /// Creates a word from a slice of booleans, one per wire.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() > MAX_WIDTH`.
    #[must_use]
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut w = Word::zero(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            w.set_bit(i, b);
        }
        w
    }

    /// Clears any bits at or above `width`.
    #[inline]
    fn mask_off(&mut self) {
        let width = self.width as usize;
        for (l, limb) in self.limbs.iter_mut().enumerate() {
            *limb &= low_mask(width, l);
        }
    }

    /// A `width`-wire word from raw limbs that must already be zero at
    /// and above `width` (checked in debug builds).
    #[inline]
    fn from_clean_limbs(limbs: [u64; LIMBS], width: usize) -> Self {
        debug_assert!(width <= MAX_WIDTH);
        debug_assert!((0..LIMBS).all(|l| limbs[l] & !low_mask(width, l) == 0));
        Word {
            limbs,
            width: width as u16,
        }
    }

    /// Number of wires this word spans.
    #[must_use]
    #[inline]
    pub fn width(self) -> usize {
        self.width as usize
    }

    /// The raw bit pattern as `u128` (low 128 wires).
    ///
    /// # Panics
    ///
    /// Panics if any wire at index 128 or above is set (the value would not
    /// fit); words up to width 128 always succeed. Callers that may see wider
    /// buses should use [`try_bits`](Word::try_bits) and degrade to the
    /// [`limb`](Word::limb) accessors instead.
    #[must_use]
    #[inline]
    pub fn bits(self) -> u128 {
        self.try_bits()
            .expect("word has bits above 128; use try_bits()/limb() accessors")
    }

    /// The raw bit pattern as `u128`, or `None` if any wire at index 128 or
    /// above is set (the value would not fit).
    ///
    /// Non-panicking counterpart of [`bits`](Word::bits) for code that must
    /// keep working on 129–256-wire buses.
    #[must_use]
    #[inline]
    pub fn try_bits(self) -> Option<u128> {
        if self.limbs[2] != 0 || self.limbs[3] != 0 {
            return None;
        }
        Some(u128::from(self.limbs[0]) | (u128::from(self.limbs[1]) << 64))
    }

    /// Number of 64-bit limbs backing every word ([`MAX_WIDTH`]` / 64`).
    pub const LIMB_COUNT: usize = LIMBS;

    /// Raw 64-bit limb `l` (wires `64*l .. 64*l + 64`), zero-padded above
    /// the word's width. Works at any width; the batch (bit-sliced) paths
    /// use this instead of [`bits`](Word::bits) so wide buses never panic.
    ///
    /// # Panics
    ///
    /// Panics if `l >= Self::LIMB_COUNT`.
    #[must_use]
    #[inline]
    pub fn limb(self, l: usize) -> u64 {
        self.limbs[l]
    }

    /// Builds a word directly from its limbs; bits at or above `width` are
    /// masked off. Inverse of reading all [`limb`](Word::limb)s.
    ///
    /// # Panics
    ///
    /// Panics if `width > MAX_WIDTH`.
    #[must_use]
    #[inline]
    pub fn from_limbs(limbs: [u64; LIMBS], width: usize) -> Self {
        let mut w = Word::zero(width);
        w.limbs = limbs;
        w.mask_off();
        w
    }

    /// Logic value on wire `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    #[must_use]
    #[inline]
    pub fn bit(self, i: usize) -> bool {
        assert!(
            i < self.width(),
            "wire {i} out of range for width {}",
            self.width
        );
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets the logic value on wire `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    #[inline]
    pub fn set_bit(&mut self, i: usize, value: bool) {
        assert!(
            i < self.width(),
            "wire {i} out of range for width {}",
            self.width
        );
        if value {
            self.limbs[i / 64] |= 1 << (i % 64);
        } else {
            self.limbs[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Returns a copy with wire `i` set to `value`.
    #[must_use]
    #[inline]
    pub fn with_bit(mut self, i: usize, value: bool) -> Self {
        self.set_bit(i, value);
        self
    }

    /// Number of wires at logic 1.
    #[must_use]
    #[inline]
    pub fn count_ones(self) -> u32 {
        // Only the limbs the width reaches can hold ones.
        let used = self.width().div_ceil(64);
        self.limbs[..used].iter().map(|l| l.count_ones()).sum()
    }

    /// Bitwise XOR; the Hamming-distance mask between two words.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[must_use]
    #[inline]
    pub fn xor(self, other: Word) -> Word {
        assert_eq!(self.width, other.width, "width mismatch in xor");
        let mut out = self;
        for l in 0..LIMBS {
            out.limbs[l] ^= other.limbs[l];
        }
        out
    }

    /// Bitwise AND: the wires set in both words.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[must_use]
    #[inline]
    pub fn and(self, other: Word) -> Word {
        assert_eq!(self.width, other.width, "width mismatch in and");
        let mut out = self;
        for l in 0..LIMBS {
            out.limbs[l] &= other.limbs[l];
        }
        out
    }

    /// Bitwise OR: the wires set in either word.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[must_use]
    #[inline]
    pub fn or(self, other: Word) -> Word {
        assert_eq!(self.width, other.width, "width mismatch in or");
        let mut out = self;
        for l in 0..LIMBS {
            out.limbs[l] |= other.limbs[l];
        }
        out
    }

    /// Bitwise complement within the word's width.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn not(self) -> Word {
        let mut out = self;
        for l in 0..LIMBS {
            out.limbs[l] = !out.limbs[l];
        }
        out.mask_off();
        out
    }

    /// Every wire moved `n` wires up at the same width: wires pushed past
    /// the width drop, and wires `0..n` read 0.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn shl(self, n: usize) -> Word {
        let mut out = Word {
            limbs: shl_limbs(self.limbs, n),
            width: self.width,
        };
        out.mask_off();
        out
    }

    /// Every wire moved `n` wires down at the same width: wires below `n`
    /// drop, and the top `n` wires read 0.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn shr(self, n: usize) -> Word {
        Word {
            limbs: shr_limbs(self.limbs, n),
            width: self.width,
        }
    }

    /// XOR of every wire: `true` when an odd number of wires is at 1.
    #[must_use]
    #[inline]
    pub fn parity(self) -> bool {
        let folded = self.limbs.iter().fold(0, |acc, l| acc ^ l);
        folded.count_ones() & 1 == 1
    }

    /// Hamming distance to another word of the same width.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[must_use]
    #[inline]
    pub fn hamming_distance(self, other: Word) -> u32 {
        self.xor(other).count_ones()
    }

    /// Number of wires that change value going from `self` to `next`
    /// (the self-transition count).
    #[must_use]
    #[inline]
    pub fn transition_count(self, next: Word) -> u32 {
        self.hamming_distance(next)
    }

    /// Concatenates `other` above `self`: `self` occupies wires
    /// `0..self.width()` and `other` occupies the wires after it.
    ///
    /// # Panics
    ///
    /// Panics if the combined width exceeds [`MAX_WIDTH`].
    #[must_use]
    #[inline]
    pub fn concat(self, other: Word) -> Word {
        let total = self.width() + other.width();
        assert!(
            total <= MAX_WIDTH,
            "concatenated width {total} exceeds {MAX_WIDTH}"
        );
        let mut limbs = shl_limbs(other.limbs, self.width());
        for (l, limb) in limbs.iter_mut().enumerate() {
            *limb |= self.limbs[l];
        }
        Word::from_clean_limbs(limbs, total)
    }

    /// Extracts wires `lo..lo + len` as a new word.
    ///
    /// # Panics
    ///
    /// Panics if `lo + len > self.width()`.
    #[must_use]
    #[inline]
    pub fn slice(self, lo: usize, len: usize) -> Word {
        assert!(
            lo + len <= self.width(),
            "slice {lo}..{} out of range",
            lo + len
        );
        let mut out = Word {
            limbs: shr_limbs(self.limbs, lo),
            width: len as u16,
        };
        out.mask_off();
        out
    }

    /// Returns a copy with wires `lo..lo + part.width()` replaced by
    /// `part` (wire `i` of `part` lands on wire `lo + i`).
    ///
    /// # Panics
    ///
    /// Panics if `lo + part.width() > self.width()`.
    #[must_use]
    #[inline]
    pub fn place(self, lo: usize, part: Word) -> Word {
        let hi = lo + part.width();
        assert!(hi <= self.width(), "place {lo}..{hi} out of range");
        let moved = shl_limbs(part.limbs, lo);
        let mut out = self;
        for (l, (limb, moved)) in out.limbs.iter_mut().zip(moved).enumerate() {
            let window = low_mask(hi, l) & !low_mask(lo, l);
            *limb = (*limb & !window) | moved;
        }
        out
    }

    /// Wires `lo..lo + len` as an integer (wire `lo` at bit 0) — the
    /// one- or two-limb fast form of [`slice`](Word::slice) for fields of
    /// at most 64 wires.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64` or `lo + len > self.width()`.
    #[must_use]
    #[inline]
    pub fn field(self, lo: usize, len: usize) -> u64 {
        assert!(
            len <= 64 && lo + len <= self.width(),
            "field {lo}..{} out of range",
            lo + len
        );
        if len == 0 {
            return 0;
        }
        let (l, r) = (lo / 64, lo % 64);
        let mut x = self.limbs[l] >> r;
        if r + len > 64 {
            x |= self.limbs[l + 1] << (64 - r);
        }
        x & low_mask(len, 0)
    }

    /// Returns a copy with wires `lo..lo + len` set to the low `len` bits
    /// of `value` — the one- or two-limb fast form of
    /// [`place`](Word::place) for fields of at most 64 wires.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64` or `lo + len > self.width()`.
    #[must_use]
    #[inline]
    pub fn with_field(mut self, lo: usize, len: usize, value: u64) -> Word {
        assert!(
            len <= 64 && lo + len <= self.width(),
            "field {lo}..{} out of range",
            lo + len
        );
        if len == 0 {
            return self;
        }
        let mask = low_mask(len, 0);
        let value = value & mask;
        let (l, r) = (lo / 64, lo % 64);
        self.limbs[l] = (self.limbs[l] & !(mask << r)) | value << r;
        if r + len > 64 {
            let spill = 64 - r;
            self.limbs[l + 1] = (self.limbs[l + 1] & !(mask >> spill)) | value >> spill;
        }
        self
    }

    /// Indices of the wires at logic 1, ascending.
    #[inline]
    pub fn ones(self) -> impl Iterator<Item = usize> {
        (0..LIMBS).flat_map(move |l| {
            let mut rest = self.limbs[l];
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let b = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    64 * l + b
                })
            })
        })
    }

    /// Spreads the word onto every other wire of a new `width`-wire word:
    /// wire `i` lands on wire `lo + 2i`, every other wire is 0. The
    /// wiring of duplication, shielding and the DAP family.
    ///
    /// # Panics
    ///
    /// Panics if the last spread wire `lo + 2(self.width() − 1)` does not
    /// fit in `width`, or `width > MAX_WIDTH`.
    #[must_use]
    #[inline]
    pub fn spread2(self, width: usize, lo: usize) -> Word {
        assert!(width <= MAX_WIDTH, "bus width {width} exceeds {MAX_WIDTH}");
        assert!(
            self.width == 0 || lo + 2 * self.width() - 1 <= width,
            "spread of {} wires from {lo} exceeds width {width}",
            self.width
        );
        let mut even = [0u64; LIMBS];
        for l in 0..LIMBS / 2 {
            even[2 * l] = spread32(self.limbs[l]);
            even[2 * l + 1] = spread32(self.limbs[l] >> 32);
        }
        Word::from_clean_limbs(shl_limbs(even, lo), width)
    }

    /// Gathers every other wire into a new `len`-wire word: wire
    /// `lo + 2i` lands on wire `i`. The inverse of
    /// [`spread2`](Word::spread2).
    ///
    /// # Panics
    ///
    /// Panics if the last gathered wire `lo + 2(len − 1)` is out of range.
    #[must_use]
    #[inline]
    pub fn gather2(self, lo: usize, len: usize) -> Word {
        assert!(
            len == 0 || lo + 2 * len - 1 <= self.width(),
            "gather of {len} wires from {lo} exceeds width {}",
            self.width
        );
        let src = shr_limbs(self.limbs, lo);
        let mut out = Word {
            limbs: [0; LIMBS],
            width: len as u16,
        };
        for l in 0..LIMBS / 2 {
            out.limbs[l] = gather32(src[2 * l]) | gather32(src[2 * l + 1]) << 32;
        }
        out.mask_off();
        out
    }

    /// Iterates over the logic values wire by wire, wire 0 first.
    pub fn iter_bits(self) -> impl Iterator<Item = bool> {
        (0..self.width()).map(move |i| (self.limbs[i / 64] >> (i % 64)) & 1 == 1)
    }

    /// All `2^width` words of a given width, in numeric order.
    ///
    /// Useful for exhaustive codebook analysis of narrow buses.
    ///
    /// # Panics
    ///
    /// Panics if `width >= 32` (the enumeration would be intractable).
    pub fn enumerate_all(width: usize) -> impl Iterator<Item = Word> {
        assert!(width < 32, "exhaustive enumeration limited to width < 32");
        (0u128..(1 << width)).map(move |b| Word::from_bits(b, width))
    }
}

impl fmt::Debug for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Word({}:", self.width)?;
        // Print wire (width-1) first so the string reads like a binary number.
        for i in (0..self.width()).rev() {
            write!(f, "{}", u8::from(self.bit(i)))?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..self.width()).rev() {
            write!(f, "{}", u8::from(self.bit(i)))?;
        }
        Ok(())
    }
}

impl fmt::Binary for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..self.width().max(1)).rev() {
            let b = if i < self.width() && self.bit(i) {
                '1'
            } else {
                '0'
            };
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

impl fmt::LowerHex for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let digits = self.width().max(1).div_ceil(4);
        for d in (0..digits).rev() {
            let mut nibble = 0u8;
            for b in 0..4 {
                let i = d * 4 + b;
                if i < self.width() && self.bit(i) {
                    nibble |= 1 << b;
                }
            }
            write!(f, "{nibble:x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The uniform data draw of the estimators, traffic and netlist power
    /// runs: every wire of a wide word is drawn, and up to 128 wires the
    /// draw is the one `u128` it always was.
    #[test]
    fn random_words_draw_every_wire() {
        let mut rng = StdRng::seed_from_u64(3);
        let high: u32 = (0..500)
            .map(|_| Word::random(&mut rng, 200).slice(128, 72).count_ones())
            .sum();
        let density = f64::from(high) / (500.0 * 72.0);
        assert!((density - 0.5).abs() < 0.02, "density {density}");
        let (mut a, mut b) = (StdRng::seed_from_u64(4), StdRng::seed_from_u64(4));
        for width in [1, 63, 64, 100, 128] {
            assert_eq!(
                Word::random(&mut a, width),
                Word::from_bits(b.gen::<u128>(), width)
            );
        }
        assert_eq!(Word::random(&mut a, 256).width(), 256);
    }

    #[test]
    fn zero_has_no_ones() {
        let w = Word::zero(17);
        assert_eq!(w.count_ones(), 0);
        assert_eq!(w.width(), 17);
    }

    #[test]
    fn from_bits_masks_high_bits() {
        let w = Word::from_bits(0xFF, 4);
        assert_eq!(w.bits(), 0xF);
    }

    #[test]
    fn bit_get_set_roundtrip() {
        let mut w = Word::zero(8);
        w.set_bit(3, true);
        assert!(w.bit(3));
        w.set_bit(3, false);
        assert!(!w.bit(3));
    }

    #[test]
    fn from_bools_matches_bit_order() {
        let w = Word::from_bools(&[true, false, true]);
        assert_eq!(w.bits(), 0b101);
    }

    #[test]
    fn hamming_distance_counts_differing_wires() {
        let a = Word::from_bits(0b1100, 4);
        let b = Word::from_bits(0b1010, 4);
        assert_eq!(a.hamming_distance(b), 2);
    }

    #[test]
    fn not_stays_within_width() {
        let w = Word::from_bits(0b0101, 4);
        assert_eq!(w.not().bits(), 0b1010);
        assert_eq!(w.not().not(), w);
    }

    #[test]
    fn concat_places_other_above_self() {
        let lo = Word::from_bits(0b01, 2);
        let hi = Word::from_bits(0b11, 2);
        let c = lo.concat(hi);
        assert_eq!(c.width(), 4);
        assert_eq!(c.bits(), 0b1101);
    }

    #[test]
    fn slice_inverts_concat() {
        let lo = Word::from_bits(0b01, 2);
        let hi = Word::from_bits(0b10, 3);
        let c = lo.concat(hi);
        assert_eq!(c.slice(0, 2), lo);
        assert_eq!(c.slice(2, 3), hi);
    }

    #[test]
    fn enumerate_all_counts() {
        assert_eq!(Word::enumerate_all(5).count(), 32);
    }

    #[test]
    fn wide_words_work_across_limbs() {
        // 200-wire word: set bits straddling every limb boundary.
        let mut w = Word::zero(200);
        for &i in &[0usize, 63, 64, 127, 128, 191, 192, 199] {
            w.set_bit(i, true);
        }
        assert_eq!(w.count_ones(), 8);
        for &i in &[0usize, 63, 64, 127, 128, 191, 192, 199] {
            assert!(w.bit(i), "bit {i}");
        }
        assert_eq!(w.not().count_ones(), 192);
        // Slice across a limb boundary.
        let s = w.slice(60, 10); // contains original bits 63 and 64
        assert_eq!(s.count_ones(), 2);
        assert!(s.bit(3) && s.bit(4));
    }

    #[test]
    fn shifts_keep_the_width_and_drop_the_edge() {
        let w = Word::from_limbs([u64::MAX, 1, 0, 1 << 9], 202);
        let up = w.shl(70);
        assert_eq!(up.width(), 202);
        assert_eq!(up.limb(0), 0);
        assert_eq!(up.limb(1), u64::MAX << 6);
        assert_eq!(up.limb(2), 63 | 1 << 6);
        // Wire 201 (limb 3, bit 9) moved past the width.
        assert_eq!(up.limb(3), 0);
        let down = w.shr(130);
        assert_eq!(down.limb(0), 0);
        assert_eq!(down.limb(1), 1 << 7);
        assert_eq!((down.limb(2), down.limb(3)), (0, 0));
        assert_eq!(w.shl(0), w);
        assert_eq!(w.shr(0), w);
        assert_eq!(w.shl(256), Word::zero(202));
    }

    #[test]
    fn concat_across_limb_boundaries() {
        let lo = Word::from_bits(u128::MAX, 100);
        let hi = Word::from_bits(0b101, 3);
        let c = lo.concat(hi);
        assert_eq!(c.width(), 103);
        assert_eq!(c.count_ones(), 102);
        assert!(c.bit(100) && !c.bit(101) && c.bit(102));
        assert_eq!(c.slice(0, 100), lo);
        assert_eq!(c.slice(100, 3), hi);
    }

    #[test]
    fn max_width_word_works() {
        let mut w = Word::zero(MAX_WIDTH);
        for i in 0..MAX_WIDTH {
            w.set_bit(i, true);
        }
        assert_eq!(w.count_ones(), MAX_WIDTH as u32);
        assert_eq!(w.not().count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn xor_panics_on_width_mismatch() {
        let _ = Word::zero(4).xor(Word::zero(5));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_out_of_range_panics() {
        let _ = Word::zero(4).bit(4);
    }

    #[test]
    #[should_panic(expected = "bits above 128")]
    fn bits_panics_above_128() {
        let w = Word::zero(200).with_bit(150, true);
        let _ = w.bits();
    }

    #[test]
    fn try_bits_degrades_instead_of_panicking() {
        // Width 129 with only low wires set: still representable.
        let low = Word::from_bits(0xDEAD_BEEF, 129);
        assert_eq!(low.try_bits(), Some(0xDEAD_BEEF));
        // Width 129 with wire 128 set: not representable, returns None.
        let w129 = Word::zero(129).with_bit(128, true);
        assert_eq!(w129.try_bits(), None);
        // Width 256 with the top wire set: not representable either.
        let w256 = Word::zero(256).with_bit(255, true).with_bit(0, true);
        assert_eq!(w256.try_bits(), None);
        // The limb view still sees every wire.
        assert_eq!(w129.limb(2), 1);
        assert_eq!(w256.limb(0), 1);
        assert_eq!(w256.limb(3), 1 << 63);
    }

    #[test]
    fn limbs_roundtrip_at_full_width() {
        let mut w = Word::zero(256);
        for &i in &[0usize, 63, 64, 127, 128, 191, 192, 255] {
            w.set_bit(i, true);
        }
        let limbs = [w.limb(0), w.limb(1), w.limb(2), w.limb(3)];
        assert_eq!(Word::from_limbs(limbs, 256), w);
        // from_limbs masks above the requested width.
        let narrowed = Word::from_limbs(limbs, 129);
        assert_eq!(narrowed.count_ones(), 5);
        assert!(narrowed.bit(128) && narrowed.try_bits().is_none());
    }

    #[test]
    fn display_is_msb_first() {
        let w = Word::from_bits(0b0011, 4);
        assert_eq!(w.to_string(), "0011");
    }

    #[test]
    fn hex_and_binary_formatting() {
        let w = Word::from_bits(0b1010_1111, 8);
        assert_eq!(format!("{w:x}"), "af");
        assert_eq!(format!("{w:b}"), "10101111");
    }
}

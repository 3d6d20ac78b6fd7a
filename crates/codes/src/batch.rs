//! Bit-sliced batch codecs: 64 bus words per bitwise operation.
//!
//! The scalar hot path processes one [`Word`] at a time; PR 5's raw-u128
//! FTC path showed that dropping the per-word object overhead is worth an
//! order of magnitude. This module goes further with a **transposed
//! (bit-plane) representation**: a [`WordBlock`] holds up to
//! [`BLOCK_WORDS`] words of a common width as `width` *lanes* of `u64`,
//! where bit `j` of lane `i` is wire `i` of word `j`. One bitwise op on a
//! lane then processes all 64 words at once.
//!
//! [`BatchCode`] mirrors [`BusCode`] over blocks, and every [`Scheme`] has
//! a native implementation. Following the paper's Fig. 4, the joint codes
//! are compositions of a few plane stages rather than hand-copied
//! kernels:
//!
//! * `InvertStage` — the BI(1) invert decision: per-word toggle counts
//!   from a fixed-size vertical counter, then the invert-mask recurrence
//!   as a six-step parallel-prefix scan (`invert_scan`; BI(i), BIH,
//!   DAPBI);
//! * `SyndromeStage` — a systematic linear code as XOR trees: parity
//!   planes from per-data-lane feed masks, syndrome planes from
//!   parity-check columns, single-error hits as AND trees, parity bits on
//!   any lanes (Hamming, HammingX, BIH, ExtHamming, FTC+HC, Sabotaged,
//!   BCH-DEC);
//! * `dap_select` — DAP's Fig. 6 multiplexer (DAP, DAPX, DAPBI, BSC);
//! * the lane-placement maps each scheme keeps (HammingX's half-shielded
//!   parity lanes, FTC+HC's info and parity lanes, BSC's phase plane);
//! * truth-table planes — each FTC group's encoder, nearest-codeword
//!   decoder and codeword test, read off its [`crate::kernels`] kernel as
//!   [`TruthTables`] and evaluated by ORing the group's minterm planes
//!   (`minterms`, `select`; FTC, FTC+HC);
//! * `LookupStage` — the FPC codebook, one group over all the data bits
//!   (23 wires at k = 16), too wide for a truth table: the block goes
//!   through one narrow tile transpose to rows (below) and each word is
//!   looked up in the kernel.
//!
//! Words enter and leave the planes through tile transposes, one per
//! 64-wire limb the width reaches, that run only the rounds the limb's
//! width needs: rows of `w` bits are first packed into `n` rows (`n` the
//! power of two at or above `w`), and only `log2 n` swap rounds follow
//! (DESIGN.md §24).
//!
//! BCH-DEC decodes zero syndromes and single errors in the planes and
//! hands only the remaining words (double errors and uncorrectable
//! syndromes) to the scalar [`BchDec`], one word each.
//!
//! **Equivalence contract:** for every scheme, feeding the words of a
//! block through the batch codec produces bit-identical outputs and
//! statuses to feeding them one by one (in block order) through the
//! scalar codec from the same starting state. The exhaustive + property
//! suite in `crates/codes/tests/batch_equiv.rs` and the root
//! `tests/batch_contract.rs` pin this, and it is what lets
//! `channel::montecarlo` use batching by default while reproducing the
//! scalar estimates byte for byte.

use std::sync::Arc;

use crate::cac::{fpc_wires_for_bits, ftc_groups, ftc_wires_for_bits};
use crate::catalog::Scheme;
use crate::ecc::{hamming_parity_bits, BchDec};
use crate::joint::{ftc_hc_parity_layout, hamming_x_parity_layout};
use crate::kernels::{codebook_kernel, BookKey, CodebookKernel, TruthTables};
use crate::traits::{BusCode, DecodeStatus};
use socbus_model::word::MAX_WIDTH;
use socbus_model::Word;

/// Number of words a full [`WordBlock`] holds: one per bit of a `u64` lane.
pub const BLOCK_WORDS: usize = 64;

const LIMBS: usize = Word::LIMB_COUNT;

/// One limb of a block: 64 rows or 64 lanes of 64 bits.
type Tile = [u64; BLOCK_WORDS];

/// A block of up to [`BLOCK_WORDS`] equal-width words in transposed
/// (bit-plane) layout: lane `i`, bit `j` is wire `i` of word `j`.
///
/// Invariant: every lane has zero bits at positions `>= len()`, so lane
/// logic composed of AND/OR/XOR of lanes stays masked for free; anything
/// involving complement must re-mask with [`WordBlock::valid_mask`].
///
/// Degenerate shapes are legal: a width-0 block (no wires) and a length-0
/// block (no words) both behave as empty products, and width-1 blocks are
/// just a single lane.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WordBlock {
    lanes: Vec<u64>,
    len: usize,
}

impl WordBlock {
    /// An all-zero block of `len` words of `width` wires.
    ///
    /// # Panics
    ///
    /// Panics if `width > MAX_WIDTH` or `len > BLOCK_WORDS`.
    #[must_use]
    pub fn zero(width: usize, len: usize) -> Self {
        assert!(
            width <= MAX_WIDTH,
            "block width {width} exceeds {MAX_WIDTH}"
        );
        assert!(
            len <= BLOCK_WORDS,
            "block length {len} exceeds {BLOCK_WORDS}"
        );
        WordBlock {
            lanes: vec![0; width],
            len,
        }
    }

    /// Transposes a slice of equal-width words into a block (word `j` of
    /// the slice becomes bit `j` of every lane).
    ///
    /// # Panics
    ///
    /// Panics if `words.len() > BLOCK_WORDS` or the widths are mixed.
    #[must_use]
    pub fn from_words(words: &[Word]) -> Self {
        let width = words.first().map_or(0, |w| w.width());
        for w in words {
            assert_eq!(w.width(), width, "mixed widths in block");
        }
        WordBlock::from_rows(width, words.len(), |l, j| words[j].limb(l))
    }

    /// Builds a block of `len` words of `width` wires from its rows:
    /// `row(l, j)` is limb `l` of word `j`, masked here to the width. Each
    /// limb the width reaches is one narrow tile transpose.
    fn from_rows(width: usize, len: usize, row: impl Fn(usize, usize) -> u64) -> Self {
        let mut block = WordBlock::zero(width, len);
        for (l, lanes) in block.lanes.chunks_mut(64).enumerate() {
            let mask = low_bits(lanes.len());
            let mut tile: Tile = [0; BLOCK_WORDS];
            for (j, t) in tile[..len].iter_mut().enumerate() {
                *t = row(l, j) & mask;
            }
            turn(&mut tile, lanes.len(), Turn::ToLanes);
            lanes.copy_from_slice(&tile[..lanes.len()]);
        }
        block
    }

    /// Limb `l` of every word, word `j` at index `j`: the mirror of
    /// [`WordBlock::from_rows`]. Entries at and past `len()` are zero.
    fn to_rows(&self, l: usize) -> Tile {
        let lanes = &self.lanes[64 * l..self.width().min(64 * l + 64)];
        let mut tile: Tile = [0; BLOCK_WORDS];
        tile[..lanes.len()].copy_from_slice(lanes);
        turn(&mut tile, lanes.len(), Turn::ToRows);
        tile
    }

    /// Number of wires (lanes).
    #[must_use]
    pub fn width(&self) -> usize {
        self.lanes.len()
    }

    /// Number of words in the block.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the block holds no words.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mask with one set bit per word in the block (`len` low bits).
    #[must_use]
    pub fn valid_mask(&self) -> u64 {
        low_bits(self.len)
    }

    /// Untransposes word `j` back into the [`Word`] inspection view (one
    /// bit of every lane; use [`WordBlock::to_words`] for the whole block).
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.len()`.
    #[must_use]
    pub fn word(&self, j: usize) -> Word {
        assert!(
            j < self.len,
            "word {j} out of range for block of {}",
            self.len
        );
        let mut limbs = [0u64; LIMBS];
        for (i, lane) in self.lanes.iter().enumerate() {
            limbs[i / 64] |= ((lane >> j) & 1) << (i % 64);
        }
        Word::from_limbs(limbs, self.width())
    }

    /// Untransposes the whole block, word 0 first.
    #[must_use]
    pub fn to_words(&self) -> Vec<Word> {
        let limbs = self.width().div_ceil(64);
        let tiles: [Tile; LIMBS] = std::array::from_fn(|l| {
            if l < limbs {
                self.to_rows(l)
            } else {
                [0; BLOCK_WORDS]
            }
        });
        (0..self.len)
            .map(|j| Word::from_limbs(std::array::from_fn(|l| tiles[l][j]), self.width()))
            .collect()
    }

    /// Raw lane `i` (wire `i` of every word, word `j` at bit `j`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    #[must_use]
    pub fn lane(&self, i: usize) -> u64 {
        self.lanes[i]
    }

    /// Mutable access to lane `i`. Callers must keep bits at positions
    /// `>= len()` clear (the masking invariant).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    pub fn lane_mut(&mut self, i: usize) -> &mut u64 {
        &mut self.lanes[i]
    }

    /// The block's first `n` lanes as a block of their own.
    fn prefix(&self, n: usize) -> WordBlock {
        WordBlock {
            lanes: self.lanes[..n].to_vec(),
            len: self.len,
        }
    }

    /// Flips wire `wire` of word `j` — the batch counterpart of a channel
    /// bit-flip.
    ///
    /// # Panics
    ///
    /// Panics if `wire >= self.width()` or `j >= self.len()`.
    pub fn flip_bit(&mut self, wire: usize, j: usize) {
        assert!(
            j < self.len,
            "word {j} out of range for block of {}",
            self.len
        );
        self.lanes[wire] ^= 1 << j;
    }
}

/// Mask of the `n <= 64` low bits.
fn low_bits(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1 << n) - 1
    }
}

/// The direction of a narrow tile transpose.
#[derive(Clone, Copy, Debug)]
enum Turn {
    /// Rows (`tile[j]` word `j`, bits below the width) to lanes
    /// (`tile[i]` wire `i`, for `i` below the width; the rows above are
    /// left as scratch).
    ToLanes,
    /// Lanes (`tile[i]` for `i` below the width, zero above) to rows, all
    /// 64 exact.
    ToRows,
}

/// Transposes one tile of `width <= 64` columns, running only the rounds
/// that width needs (DESIGN.md §24): `n`, the power of two at or above
/// the width, fixes the rounds at compile time.
fn turn(tile: &mut Tile, width: usize, to: Turn) {
    match width.next_power_of_two() {
        1 => turn_rounds::<1>(tile, to),
        2 => turn_rounds::<2>(tile, to),
        4 => turn_rounds::<4>(tile, to),
        8 => turn_rounds::<8>(tile, to),
        16 => turn_rounds::<16>(tile, to),
        32 => turn_rounds::<32>(tile, to),
        64 => turn_rounds::<64>(tile, to),
        n => unreachable!("tile of {n} columns"),
    }
}

/// The six rounds of a 64×64 transpose, one per index bit, for rows of
/// `N` columns. Round `W` swaps bit `log2 W` of the row index with the
/// same bit of the column index, so the rounds commute. A round with
/// `W >= N` finds nothing to move down and packs rows `W..2W` into rows
/// `0..W` (`ToLanes`) or unpacks them (`ToRows`); the rounds below `N`
/// swap within rows `0..N` only.
#[inline(always)]
fn turn_rounds<const N: usize>(a: &mut Tile, to: Turn) {
    match to {
        Turn::ToLanes => {
            pack::<32, N>(a);
            pack::<16, N>(a);
            pack::<8, N>(a);
            pack::<4, N>(a);
            pack::<2, N>(a);
            pack::<1, N>(a);
            swap_rounds::<N>(a);
        }
        Turn::ToRows => {
            swap_rounds::<N>(a);
            unpack::<1, N>(a);
            unpack::<2, N>(a);
            unpack::<4, N>(a);
            unpack::<8, N>(a);
            unpack::<16, N>(a);
            unpack::<32, N>(a);
        }
    }
}

/// The columns whose index has bit `log2 W` clear.
const fn keep_mask(w: usize) -> u64 {
    u64::MAX / ((1 << w) + 1)
}

/// The swap rounds `W < N`, widest first.
#[inline(always)]
fn swap_rounds<const N: usize>(a: &mut Tile) {
    swap::<32, N>(a);
    swap::<16, N>(a);
    swap::<8, N>(a);
    swap::<4, N>(a);
    swap::<2, N>(a);
    swap::<1, N>(a);
}

/// Pack round `W >= N`: row `k + W` moves up `W` columns into row `k`.
#[inline(always)]
fn pack<const W: usize, const N: usize>(a: &mut Tile) {
    if W >= N {
        let (lo, hi) = a.split_at_mut(W);
        for (x, y) in lo.iter_mut().zip(&hi[..W]) {
            *x |= *y << W;
        }
    }
}

/// Unpack round `W >= N`, the mirror of [`pack`]: the columns of row
/// `k` with bit `log2 W` set move down into row `k + W`, empty until now.
#[inline(always)]
fn unpack<const W: usize, const N: usize>(a: &mut Tile) {
    if W >= N {
        let (lo, hi) = a.split_at_mut(W);
        for (x, y) in lo.iter_mut().zip(&mut hi[..W]) {
            *y = (*x >> W) & keep_mask(W);
            *x &= keep_mask(W);
        }
    }
}

/// Swap round `W < N` over rows `0..N` (Hacker's Delight §7-3).
#[inline(always)]
fn swap<const W: usize, const N: usize>(a: &mut Tile) {
    if W < N {
        for pair in a[..N].chunks_exact_mut(2 * W) {
            let (lo, hi) = pair.split_at_mut(W);
            for (x, y) in lo.iter_mut().zip(hi) {
                let t = ((*x >> W) ^ *y) & keep_mask(W);
                *x ^= t << W;
                *y ^= t;
            }
        }
    }
}

/// Per-word [`DecodeStatus`] planes for a decoded block: bit `j` of each
/// mask describes word `j`. For every word exactly one mask has its bit
/// set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct BlockStatus {
    /// Words the scheme performs no checking on.
    pub unchecked: u64,
    /// Words received as valid codewords.
    pub clean: u64,
    /// Words with a corrected error.
    pub corrected: u64,
    /// Words with a detected but uncorrected error.
    pub detected: u64,
}

impl BlockStatus {
    /// All `len` words unchecked (the default for schemes without error
    /// control).
    #[must_use]
    pub fn all_unchecked(len: usize) -> Self {
        assert!(
            len <= BLOCK_WORDS,
            "block length {len} exceeds {BLOCK_WORDS}"
        );
        BlockStatus {
            unchecked: low_bits(len),
            ..BlockStatus::default()
        }
    }

    /// The status of word `j`.
    #[must_use]
    pub fn status(&self, j: usize) -> DecodeStatus {
        let bit = 1u64 << j;
        if self.clean & bit != 0 {
            DecodeStatus::Clean
        } else if self.corrected & bit != 0 {
            DecodeStatus::Corrected
        } else if self.detected & bit != 0 {
            DecodeStatus::Detected
        } else {
            DecodeStatus::Unchecked
        }
    }

    /// Sets word `j`'s bit in the mask of `status`.
    fn set(&mut self, j: usize, status: DecodeStatus) {
        let mask = match status {
            DecodeStatus::Unchecked => &mut self.unchecked,
            DecodeStatus::Clean => &mut self.clean,
            DecodeStatus::Corrected => &mut self.corrected,
            DecodeStatus::Detected => &mut self.detected,
        };
        *mask |= 1 << j;
    }
}

/// A bus coding scheme over transposed blocks: the batch counterpart of
/// [`BusCode`], with the same state semantics — processing a block is
/// equivalent to processing its words in order through the scalar codec.
pub trait BatchCode {
    /// Scheme name, matching the scalar codec's [`BusCode::name`].
    fn name(&self) -> String;

    /// Number of data bits `k` per word.
    fn data_bits(&self) -> usize;

    /// Number of physical bus wires `n` per word.
    fn wires(&self) -> usize;

    /// Encodes a block of data words into a block of bus words.
    ///
    /// # Panics
    ///
    /// Panics if `data.width() != self.data_bits()`.
    fn encode(&mut self, data: &WordBlock) -> WordBlock;

    /// Decodes a block of received bus words back into data words.
    ///
    /// # Panics
    ///
    /// Panics if `bus.width() != self.wires()`.
    fn decode(&mut self, bus: &WordBlock) -> WordBlock;

    /// Decodes and reports per-word [`DecodeStatus`] planes.
    fn decode_checked(&mut self, bus: &WordBlock) -> (WordBlock, BlockStatus) {
        let len = bus.len();
        (self.decode(bus), BlockStatus::all_unchecked(len))
    }

    /// Clears any codec memory, like [`BusCode::reset`].
    fn reset(&mut self) {}
}

/// Builds the native batch codec for `scheme` over `k` data bits.
#[must_use]
pub fn batch_build(scheme: Scheme, k: usize) -> Box<dyn BatchCode> {
    match scheme {
        Scheme::Uncoded => Box::new(BatchUncoded::new(k)),
        Scheme::BusInvert(i) => Box::new(BatchBusInvert::new(k, i)),
        Scheme::Shielding => Box::new(BatchShielding::new(k)),
        Scheme::Duplication => Box::new(BatchDuplication::new(k)),
        Scheme::Ftc => Box::new(BatchFtc::new(k)),
        Scheme::Parity => Box::new(BatchParity::new(k)),
        Scheme::Hamming => Box::new(BatchHamming::new(k)),
        Scheme::HammingX => Box::new(BatchHamming::hamming_x(k)),
        Scheme::Bih => Box::new(BatchHamming::bih(k)),
        Scheme::ExtHamming => Box::new(BatchHamming::extended(k)),
        Scheme::Sabotaged => Box::new(BatchHamming::sabotaged(k)),
        Scheme::FtcHc => Box::new(BatchFtcHc::new(k)),
        Scheme::Dap => Box::new(BatchDap::new(k)),
        Scheme::Dapx => Box::new(BatchDap::dapx(k)),
        Scheme::Dapbi => Box::new(BatchDap::dapbi(k)),
        Scheme::Bsc => Box::new(BatchDap::bsc(k)),
        Scheme::BchDec => Box::new(BatchBch::new(k)),
    }
}

/// Whether `scheme` has a native bit-sliced batch codec: true for every
/// scheme since the scalar fallback was retired. Kept because the
/// end-to-end benchmark splits its codec layer by this predicate.
#[must_use]
pub fn batch_is_native(_scheme: Scheme) -> bool {
    true
}

// ---------------------------------------------------------------------------
// Plane stages shared by the schemes
// ---------------------------------------------------------------------------

/// A 64-way vertical counter: bit `j` of `planes[b]` is bit `b` of word
/// `j`'s count. Nine planes count to 511, past the widest sub-bus.
#[derive(Clone, Copy, Debug, Default)]
struct VerticalCounter {
    planes: [u64; 9],
}

impl VerticalCounter {
    /// Adds a one-bit plane: 64 parallel increments.
    fn add(&mut self, plane: u64) {
        let mut carry = plane;
        for c in &mut self.planes {
            let sum = *c ^ carry;
            carry &= *c;
            *c = sum;
            if carry == 0 {
                return;
            }
        }
    }

    /// Per-word `(count > t, count == t)` masks, compared most
    /// significant plane first.
    fn compare(&self, t: usize) -> (u64, u64) {
        let (mut gt, mut eq) = (0u64, u64::MAX);
        for (b, &c) in self.planes.iter().enumerate().rev() {
            if t >> b & 1 == 1 {
                eq &= c;
            } else {
                gt |= eq & c;
                eq &= !c;
            }
        }
        (gt, eq)
    }
}

/// The BI(1) invert decision over data lanes `lo .. lo + len`, chained
/// across blocks exactly like the scalar encoder's previously-driven-word
/// memory.
///
/// Word `j` toggles `d_j` data bits against word `j - 1`, so against the
/// previously *driven* word it toggles `d_j` bits when that word went out
/// uninverted and `len - d_j` when it went out inverted; it is inverted
/// when that exceeds half the sub-bus. The counts are bit-parallel, and so
/// is the decision: `invert_scan` resolves the recurrence over the block's
/// 64 words in six doubling steps.
#[derive(Clone, Debug)]
struct InvertStage {
    lo: usize,
    len: usize,
    /// Data bits (before inversion) of the last word encoded: bit `b` is
    /// lane `lo + b`.
    prev_data: [u64; LIMBS],
    /// Whether the last word encoded went out inverted.
    prev_inv: bool,
}

impl InvertStage {
    fn new(lo: usize, len: usize) -> Self {
        InvertStage {
            lo,
            len,
            prev_data: [0; LIMBS],
            prev_inv: false,
        }
    }

    fn reset(&mut self) {
        self.prev_data = [0; LIMBS];
        self.prev_inv = false;
    }

    /// The invert plane of `data`'s block (bit `j` set when word `j` is
    /// driven inverted); advances the memory to the block's last word.
    fn mask(&mut self, data: &WordBlock) -> u64 {
        let n = data.len();
        if n == 0 {
            return 0;
        }
        let vm = data.valid_mask();
        let lanes = &data.lanes[self.lo..self.lo + self.len];
        let mut counter = VerticalCounter::default();
        for (b, &lane) in lanes.iter().enumerate() {
            let prev = self.prev_data[b / 64] >> (b % 64) & 1;
            counter.add((lane ^ (lane << 1 | prev)) & vm);
        }
        let (gt, eq) = counter.compare(self.len / 2);
        // 2d > len: invert after an uninverted word.
        let above = gt & vm;
        // 2d < len: invert after an inverted word. With 2d == len the
        // toggle count is exactly half either way: never invert.
        let below = if self.len % 2 == 1 { !gt } else { !gt & !eq } & vm;
        let mask = invert_scan(above, below, self.prev_inv);
        self.prev_inv = mask >> (n - 1) & 1 == 1;
        self.prev_data = [0; LIMBS];
        for (b, &lane) in lanes.iter().enumerate() {
            self.prev_data[b / 64] |= (lane >> (n - 1) & 1) << (b % 64);
        }
        mask
    }
}

/// The invert plane of a block: word `j` is inverted when
/// `inv(j−1) ? below(j) : above(j)`, with `inv(−1) = prev_inv`.
///
/// Word `j`'s rule is a map of the previous decision, held as the bit
/// pair `(A, B) = (above(j), below(j))`: its output after an uninverted
/// and after an inverted word. Applying `(A₁, B₁)` then `(A₂, B₂)` is the
/// map `(A₁ ? B₂ : A₂, B₁ ? B₂ : A₂)`. That product is associative, so
/// six doubling steps turn the two planes into the maps of every prefix
/// of the block, with the identity `(0, 1)` shifted in below word 0; the
/// invert plane then reads `prev_inv ? B : A`. Both inputs must be masked
/// to the block's words, which keeps every map past `len()` the constant
/// 0 and the output masked.
fn invert_scan(above: u64, below: u64, prev_inv: bool) -> u64 {
    let (mut a, mut b) = (above, below);
    for d in [1, 2, 4, 8, 16, 32] {
        // The maps of the prefixes ending `d` words earlier.
        let (pa, pb) = (a << d, b << d | ((1u64 << d) - 1));
        let flip = a ^ b;
        (a, b) = (a ^ (pa & flip), a ^ (pb & flip));
    }
    if prev_inv {
        b
    } else {
        a
    }
}

/// Most parity or syndrome planes a [`SyndromeStage`] carries: BCH-DEC
/// over GF(2⁸) has 16 parity bits and a 16-bit (S1, S3) syndrome.
const MAX_PLANES: usize = 16;

/// XORs `lane` into every plane whose bit is set in `mask`.
fn xor_planes(planes: &mut [u64; MAX_PLANES], mut mask: u32, lane: u64) {
    while mask != 0 {
        planes[mask.trailing_zeros() as usize] ^= lane;
        mask &= mask - 1;
    }
}

/// Syndrome summary of one decoded block.
#[derive(Clone, Copy, Debug, Default)]
struct Syndrome {
    /// Words with a nonzero syndrome.
    nonzero: u64,
    /// Words whose syndrome equals one lane's parity-check column: a
    /// single error on a payload or parity lane.
    matched: u64,
}

/// A systematic linear code as plane logic. Parity planes are XOR trees
/// of the data lanes; syndrome planes are XOR trees of the data and
/// parity lanes through their parity-check columns; a single error on a
/// lane is the AND tree matching the syndrome against that lane's column.
///
/// Hamming uses the canonical positions as both feeds and columns (parity
/// bit `j` has column `2^j`); BCH-DEC feeds data bit `i` into
/// `x^(r+i) mod g(x)` and checks with the columns `(αᵖ, α³ᵖ)` of each
/// lane's polynomial position `p`. The parity bits sit on any bus lanes —
/// the placement map that makes HammingX and FTC+HC.
#[derive(Clone, Debug)]
struct SyndromeStage {
    /// Parity-check column of each data lane, then of each parity lane
    /// (the syndrome a single flip on that lane produces), then — where
    /// they differ from the data columns — the parity planes each data
    /// lane feeds (bit `j` = parity bit `j`).
    table: Vec<u32>,
    /// Index in `table` of data lane 0's feed mask.
    feeds_at: usize,
    /// Bus lane of each parity bit.
    parity_lanes: Vec<usize>,
    /// Number of data lanes.
    data: usize,
    /// Number of syndrome planes.
    planes: usize,
}

impl SyndromeStage {
    /// The systematic Hamming code over `k` data lanes, parity bit `j` on
    /// bus lane `parity_lanes[j]` — canonical positions identical to the
    /// scalar [`crate::ecc::Hamming`] construction.
    fn hamming(k: usize, parity_lanes: Vec<usize>) -> Self {
        let m = hamming_parity_bits(k);
        assert_eq!(parity_lanes.len(), m, "one lane per parity bit");
        let mut table = Vec::with_capacity(k + m);
        let mut pos = 1u32;
        while table.len() < k {
            if !pos.is_power_of_two() {
                table.push(pos);
            }
            pos += 1;
        }
        table.extend((0..m).map(|j| 1 << j));
        SyndromeStage {
            table,
            feeds_at: 0,
            parity_lanes,
            data: k,
            planes: m,
        }
    }

    /// The BCH code of `code`: data on lanes `0..k`, parity on `k..k+r`.
    /// Bus lane `i < k` is polynomial position `r + i`, parity lane
    /// `k + j` position `j` (the scalar codec's internal order).
    fn bch(code: &BchDec) -> Self {
        let (k, r) = (code.data_bits(), code.parity_bits());
        let field = code.field();
        let m = field.m() as usize;
        let g = code.generator();
        let column =
            |p: usize| u32::from(field.alpha_pow(p)) | u32::from(field.alpha_pow(3 * p)) << m;
        let mut table = Vec::with_capacity(2 * k + r);
        table.extend((0..k).map(|i| column(r + i)));
        table.extend((0..r).map(column));
        // x^r mod g(x), then one multiply by x per data bit.
        let mut rem = g ^ (1 << r);
        for _ in 0..k {
            table.push(rem as u32);
            rem <<= 1;
            if rem >> r & 1 == 1 {
                rem ^= g;
            }
        }
        SyndromeStage {
            table,
            feeds_at: k + r,
            parity_lanes: (k..k + r).collect(),
            data: k,
            planes: 2 * m,
        }
    }

    /// Number of data (payload) lanes.
    fn data_lanes(&self) -> usize {
        self.data
    }

    /// Parity planes of the payload lanes (plane `j` is parity bit `j`).
    fn parity(&self, payload: impl IntoIterator<Item = u64>) -> [u64; MAX_PLANES] {
        let mut parity = [0u64; MAX_PLANES];
        let feeds = &self.table[self.feeds_at..self.feeds_at + self.data];
        for (lane, &feed) in payload.into_iter().zip(feeds) {
            xor_planes(&mut parity, feed, lane);
        }
        parity
    }

    /// Writes parity planes onto their bus lanes of `out`.
    fn place(&self, parity: [u64; MAX_PLANES], out: &mut WordBlock) {
        for (&lane, plane) in self.parity_lanes.iter().zip(parity) {
            out.lanes[lane] = plane;
        }
    }

    /// Syndrome-decodes the payload in `lanes` against the parity lanes
    /// of `bus`: `lanes` holds the received payload on entry and
    /// `payload ^ (correction & correct)` on exit (`correct` gates which
    /// words get their single error fixed).
    fn decode(&self, bus: &WordBlock, correct: u64, lanes: &mut [u64]) -> Syndrome {
        let mut s = [0u64; MAX_PLANES];
        let received = lanes
            .iter()
            .copied()
            .chain(self.parity_lanes.iter().map(|&l| bus.lanes[l]));
        let (data_columns, rest) = self.table.split_at(self.data);
        let parity_columns = &rest[..self.parity_lanes.len()];
        for (lane, &column) in received.zip(data_columns.iter().chain(parity_columns)) {
            xor_planes(&mut s, column, lane);
        }
        let s = &s[..self.planes];
        let nonzero = s.iter().fold(0, |acc, &p| acc | p);
        if nonzero == 0 {
            return Syndrome::default();
        }
        let vm = bus.valid_mask();
        let hit = |column: u32| {
            s.iter().enumerate().fold(vm, |acc, (b, &p)| {
                acc & if column >> b & 1 == 1 { p } else { !p }
            })
        };
        let mut matched = 0;
        for (o, &column) in lanes.iter_mut().zip(data_columns) {
            let mask = hit(column);
            *o ^= mask & correct;
            matched |= mask;
        }
        for &column in parity_columns {
            matched |= hit(column);
        }
        Syndrome { nonzero, matched }
    }
}

/// DAP's Fig. 6 multiplexer: `out` holds copy set A on entry and the
/// selected set on exit. Words where A's parity disagrees with the
/// received parity plane take copy set B (`b(i)` is B's lane `i`).
fn dap_select(out: &mut [u64], b: impl Fn(usize) -> u64, parity: u64, vm: u64) -> BlockStatus {
    let parity_a = out.iter().fold(0, |acc, &a| acc ^ a);
    let use_b = (parity_a ^ parity) & vm;
    let mut mismatch = 0;
    for (i, a) in out.iter_mut().enumerate() {
        let diff = *a ^ b(i);
        mismatch |= diff;
        *a ^= use_b & diff;
    }
    BlockStatus {
        clean: vm & !use_b & !mismatch,
        corrected: (use_b | mismatch) & vm,
        ..BlockStatus::default()
    }
}

/// One FTC sub-bus group: `bits` data bits at `data_lo` map through
/// `kernel` to `wires` bus wires at `wire_lo`.
#[derive(Clone, Debug)]
struct FtcGroup {
    data_lo: usize,
    bits: usize,
    wire_lo: usize,
    wires: usize,
    kernel: Arc<CodebookKernel>,
}

impl FtcGroup {
    /// The group kernel's truth tables.
    fn tables(&self) -> &TruthTables {
        self.kernel
            .tables()
            .expect("FTC group kernels carry truth tables")
    }
}

/// The minterm planes of up to six input lanes: bit `j` of plane `v` is
/// set when word `j` reads `v` on the inputs (input `i` is bit `i` of
/// `v`). Each input doubles the planes built so far, starting from the
/// valid mask, so no complement leaks past the block's words.
fn minterms(inputs: &[u64], vm: u64) -> [u64; 64] {
    let mut planes = [0u64; 64];
    planes[0] = vm;
    for (i, &x) in inputs.iter().enumerate() {
        let (without, with) = planes.split_at_mut(1 << i);
        for (lo, hi) in without.iter_mut().zip(with) {
            *hi = *lo & x;
            *lo &= !x;
        }
    }
    planes
}

/// A truth table's output plane: the OR of the minterm planes it
/// selects, one OR per set bit.
fn select(minterms: &[u64; 64], mut table: u64) -> u64 {
    let mut plane = 0;
    while table != 0 {
        plane |= minterms[table.trailing_zeros() as usize];
        table &= table - 1;
    }
    plane
}

/// Per-word codebook lookups over a block, for FPC only: its one group
/// spans all the data bits (23 wires at k = 16), too wide for a truth
/// table (FTC's groups of at most 6 wires evaluate theirs on bit planes
/// instead). The block is turned to rows by one narrow tile transpose,
/// each row is looked up in the kernel, and the results are turned back.
/// FPC carries at most 16 data bits on at most 23 wires, so a row is its
/// low limb.
#[derive(Clone, Debug)]
struct LookupStage {
    kernel: Arc<CodebookKernel>,
}

impl LookupStage {
    fn encode(&self, data: &WordBlock) -> WordBlock {
        let rows = data.to_rows(0);
        WordBlock::from_rows(self.kernel.wires(), data.len(), |_, j| {
            self.kernel.codeword_bits(rows[j] as usize) as u64
        })
    }

    /// Decodes every word to `k` data lanes; returns the mask of words
    /// that were exact codewords.
    fn decode(&self, bus: &WordBlock, k: usize) -> (WordBlock, u64) {
        let rows = bus.to_rows(0);
        let mut out: Tile = [0; BLOCK_WORDS];
        let mut exact_all = bus.valid_mask();
        for (j, (&src, dst)) in rows[..bus.len()].iter().zip(&mut out).enumerate() {
            let (idx, exact) = self.kernel.decode_index_raw(u128::from(src));
            if !exact {
                exact_all &= !(1u64 << j);
            }
            *dst = idx as u64;
        }
        (WordBlock::from_rows(k, bus.len(), |_, j| out[j]), exact_all)
    }
}

// ---------------------------------------------------------------------------
// Schemes
// ---------------------------------------------------------------------------

/// Batch identity code (`Uncoded`).
#[derive(Clone, Debug)]
pub struct BatchUncoded {
    k: usize,
}

impl BatchUncoded {
    /// Uncoded `k`-bit bus.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k > 0 && k <= MAX_WIDTH);
        BatchUncoded { k }
    }
}

impl BatchCode for BatchUncoded {
    fn name(&self) -> String {
        "Uncoded".into()
    }

    fn data_bits(&self) -> usize {
        self.k
    }

    fn wires(&self) -> usize {
        self.k
    }

    fn encode(&mut self, data: &WordBlock) -> WordBlock {
        assert_eq!(data.width(), self.k, "data width mismatch");
        data.clone()
    }

    fn decode(&mut self, bus: &WordBlock) -> WordBlock {
        assert_eq!(bus.width(), self.k, "bus width mismatch");
        bus.clone()
    }
}

/// Batch even-parity code: the parity lane is one XOR tree over the data
/// lanes — 64 parity bits per fold.
#[derive(Clone, Debug)]
pub struct BatchParity {
    k: usize,
}

impl BatchParity {
    /// Parity-protected `k`-bit bus.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "need at least one data bit");
        assert!(k < MAX_WIDTH, "bus too wide");
        BatchParity { k }
    }

    fn data_parity_plane(&self, block: &WordBlock) -> u64 {
        block.lanes[..self.k].iter().fold(0u64, |acc, &l| acc ^ l)
    }
}

impl BatchCode for BatchParity {
    fn name(&self) -> String {
        "Parity".into()
    }

    fn data_bits(&self) -> usize {
        self.k
    }

    fn wires(&self) -> usize {
        self.k + 1
    }

    fn encode(&mut self, data: &WordBlock) -> WordBlock {
        assert_eq!(data.width(), self.k, "data width mismatch");
        let mut out = data.clone();
        out.lanes.push(self.data_parity_plane(data));
        out
    }

    fn decode(&mut self, bus: &WordBlock) -> WordBlock {
        self.decode_checked(bus).0
    }

    fn decode_checked(&mut self, bus: &WordBlock) -> (WordBlock, BlockStatus) {
        assert_eq!(bus.width(), self.wires(), "bus width mismatch");
        let vm = bus.valid_mask();
        let mut out = bus.clone();
        out.lanes.truncate(self.k);
        let detected = (self.data_parity_plane(bus) ^ bus.lane(self.k)) & vm;
        let status = BlockStatus {
            clean: vm & !detected,
            detected,
            ..BlockStatus::default()
        };
        (out, status)
    }
}

/// How a [`BatchHamming`] turns its syndrome into data and status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HammingCheck {
    /// Single-error correction (Hamming, HammingX, BIH).
    Sec,
    /// SEC-DED: an overall-parity lane after the Hamming bus gates the
    /// correction (the paper's §V status table).
    SecDed,
    /// Correction suppressed and reported clean — the planted fault.
    Sabotaged,
}

/// The batch Hamming family: a `SyndromeStage` over the payload lanes,
/// optionally behind an `InvertStage` (BIH's payload is the inverted
/// data plus the invert lane), with the parity bits on any lanes
/// (HammingX's half-shielded placement), an overall-parity lane
/// (ExtHamming), or correction suppressed (Sabotaged).
#[derive(Clone, Debug)]
pub struct BatchHamming {
    name: &'static str,
    k: usize,
    wires: usize,
    invert: Option<InvertStage>,
    stage: SyndromeStage,
    check: HammingCheck,
}

impl BatchHamming {
    fn build(name: &'static str, k: usize, check: HammingCheck) -> Self {
        let m = hamming_parity_bits(k);
        let wires = k + m + usize::from(check == HammingCheck::SecDed);
        assert!(wires <= MAX_WIDTH, "bus too wide");
        BatchHamming {
            name,
            k,
            wires,
            invert: None,
            stage: SyndromeStage::hamming(k, (k..k + m).collect()),
            check,
        }
    }

    /// Systematic Hamming over `k` data bits.
    #[must_use]
    pub fn new(k: usize) -> Self {
        BatchHamming::build("Hamming", k, HammingCheck::Sec)
    }

    /// SEC-DED extended Hamming over `k` data bits.
    pub(crate) fn extended(k: usize) -> Self {
        BatchHamming::build("ExtHamming", k, HammingCheck::SecDed)
    }

    /// The sabotaged Hamming of [`crate::sabotage`] over `k` data bits.
    pub(crate) fn sabotaged(k: usize) -> Self {
        BatchHamming::build("Sabotaged", k, HammingCheck::Sabotaged)
    }

    /// HammingX: Hamming planes with the parity lanes remapped onto the
    /// scalar [`crate::HammingX`]'s half-shielded wires.
    pub(crate) fn hamming_x(k: usize) -> Self {
        let (parity, wires) = hamming_x_parity_layout(k, hamming_parity_bits(k));
        BatchHamming {
            name: "HammingX",
            k,
            wires,
            invert: None,
            stage: SyndromeStage::hamming(k, parity),
            check: HammingCheck::Sec,
        }
    }

    /// BIH: the invert stage over the data, then Hamming over the `k + 1`
    /// lanes of inverted data plus invert bit.
    pub(crate) fn bih(k: usize) -> Self {
        assert!(k > 0, "need at least one data bit");
        let mut code = BatchHamming::build("BIH", k + 1, HammingCheck::Sec);
        code.k = k;
        code.invert = Some(InvertStage::new(0, k));
        code
    }
}

impl BatchCode for BatchHamming {
    fn name(&self) -> String {
        self.name.into()
    }

    fn data_bits(&self) -> usize {
        self.k
    }

    fn wires(&self) -> usize {
        self.wires
    }

    fn encode(&mut self, data: &WordBlock) -> WordBlock {
        assert_eq!(data.width(), self.k, "data width mismatch");
        let mut out = WordBlock::zero(self.wires, data.len());
        out.lanes[..self.k].copy_from_slice(&data.lanes);
        if let Some(invert) = &mut self.invert {
            let mask = invert.mask(data);
            for lane in &mut out.lanes[..self.k] {
                *lane ^= mask;
            }
            out.lanes[self.k] = mask;
        }
        let q = self.stage.data_lanes();
        let parity = self.stage.parity(out.lanes[..q].iter().copied());
        self.stage.place(parity, &mut out);
        if self.check == HammingCheck::SecDed {
            let n = self.wires - 1;
            out.lanes[n] = out.lanes[..n].iter().fold(0, |acc, &l| acc ^ l);
        }
        out
    }

    fn decode(&mut self, bus: &WordBlock) -> WordBlock {
        self.decode_checked(bus).0
    }

    fn decode_checked(&mut self, bus: &WordBlock) -> (WordBlock, BlockStatus) {
        assert_eq!(bus.width(), self.wires, "bus width mismatch");
        let vm = bus.valid_mask();
        let q = self.stage.data_lanes();
        // SEC-DED: bit set where the recomputed overall parity disagrees
        // with the received overall-parity wire (an odd error count).
        let odd = if self.check == HammingCheck::SecDed {
            bus.lanes.iter().fold(0, |acc, &l| acc ^ l) & vm
        } else {
            0
        };
        let correct = match self.check {
            HammingCheck::Sec => vm,
            // With consistent overall parity a fired syndrome is a double
            // error: the raw data goes out, as in the scalar decoder.
            HammingCheck::SecDed => odd,
            HammingCheck::Sabotaged => 0,
        };
        let mut out = bus.prefix(q);
        let syn = self.stage.decode(bus, correct, &mut out.lanes);
        if self.invert.is_some() {
            let inv = out.lanes.pop().expect("invert lane");
            for lane in &mut out.lanes {
                *lane ^= inv;
            }
        }
        let clean = vm & !syn.nonzero;
        let corrected = syn.nonzero & syn.matched;
        let detected = syn.nonzero & !syn.matched;
        let status = match self.check {
            HammingCheck::Sec => BlockStatus {
                clean,
                corrected,
                detected,
                ..BlockStatus::default()
            },
            HammingCheck::SecDed => BlockStatus {
                clean: clean & !odd,
                corrected: (clean | corrected) & odd,
                detected: (corrected & !odd) | detected,
                ..BlockStatus::default()
            },
            HammingCheck::Sabotaged => BlockStatus {
                clean: vm & !detected,
                detected,
                ..BlockStatus::default()
            },
        };
        (out, status)
    }

    fn reset(&mut self) {
        if let Some(invert) = &mut self.invert {
            invert.reset();
        }
    }
}

/// Batch bus-invert `BI(i)`: one `InvertStage` per sub-bus, partitioned
/// exactly like the scalar [`crate::lpc::BusInvert`], each followed by its
/// invert wire.
#[derive(Clone, Debug)]
pub struct BatchBusInvert {
    k: usize,
    /// Each sub-bus's invert stage and first bus wire.
    subs: Vec<(InvertStage, usize)>,
}

impl BatchBusInvert {
    /// `BI(i)` over `k` data bits.
    #[must_use]
    pub fn new(k: usize, i: usize) -> Self {
        assert!(i > 0, "need at least one sub-bus");
        assert!(i <= k, "more sub-buses ({i}) than data bits ({k})");
        assert!(k + i <= MAX_WIDTH, "coded bus too wide");
        let (base, extra) = (k / i, k % i);
        let mut subs = Vec::with_capacity(i);
        let mut data_lo = 0;
        for s in 0..i {
            let len = base + usize::from(s < extra);
            subs.push((InvertStage::new(data_lo, len), data_lo + s));
            data_lo += len;
        }
        BatchBusInvert { k, subs }
    }
}

impl BatchCode for BatchBusInvert {
    fn name(&self) -> String {
        format!("BI({})", self.subs.len())
    }

    fn data_bits(&self) -> usize {
        self.k
    }

    fn wires(&self) -> usize {
        self.k + self.subs.len()
    }

    fn encode(&mut self, data: &WordBlock) -> WordBlock {
        assert_eq!(data.width(), self.k, "data width mismatch");
        let mut out = WordBlock::zero(self.wires(), data.len());
        for (stage, wire_lo) in &mut self.subs {
            let mask = stage.mask(data);
            let (lo, len) = (stage.lo, stage.len);
            for (o, &d) in out.lanes[*wire_lo..]
                .iter_mut()
                .zip(&data.lanes[lo..lo + len])
            {
                *o = d ^ mask;
            }
            out.lanes[*wire_lo + len] = mask;
        }
        out
    }

    fn decode(&mut self, bus: &WordBlock) -> WordBlock {
        assert_eq!(bus.width(), self.wires(), "bus width mismatch");
        let mut out = WordBlock::zero(self.k, bus.len());
        for (stage, wire_lo) in &self.subs {
            let (lo, len) = (stage.lo, stage.len);
            let inv = bus.lanes[wire_lo + len];
            for (o, &b) in out.lanes[lo..lo + len]
                .iter_mut()
                .zip(&bus.lanes[*wire_lo..])
            {
                *o = b ^ inv;
            }
        }
        out
    }

    fn reset(&mut self) {
        for (stage, _) in &mut self.subs {
            stage.reset();
        }
    }
}

/// Batch shielding: pure lane remap plus an OR tree over the shield lanes
/// for the membership check.
#[derive(Clone, Debug)]
pub struct BatchShielding {
    k: usize,
}

impl BatchShielding {
    /// Shielded `k`-bit bus.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "need at least one data bit");
        assert!(2 * k - 1 <= MAX_WIDTH, "shielded bus too wide");
        BatchShielding { k }
    }
}

impl BatchCode for BatchShielding {
    fn name(&self) -> String {
        "Shielding".into()
    }

    fn data_bits(&self) -> usize {
        self.k
    }

    fn wires(&self) -> usize {
        2 * self.k - 1
    }

    fn encode(&mut self, data: &WordBlock) -> WordBlock {
        assert_eq!(data.width(), self.k, "data width mismatch");
        let mut out = WordBlock::zero(self.wires(), data.len());
        for i in 0..self.k {
            *out.lane_mut(2 * i) = data.lane(i);
        }
        out
    }

    fn decode(&mut self, bus: &WordBlock) -> WordBlock {
        assert_eq!(bus.width(), self.wires(), "bus width mismatch");
        let mut out = WordBlock::zero(self.k, bus.len());
        for i in 0..self.k {
            *out.lane_mut(i) = bus.lane(2 * i);
        }
        out
    }

    fn decode_checked(&mut self, bus: &WordBlock) -> (WordBlock, BlockStatus) {
        let out = self.decode(bus);
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

/// Batch duplication: lane fan-out on encode, pairwise XOR/OR mismatch
/// planes on the membership check.
#[derive(Clone, Debug)]
pub struct BatchDuplication {
    k: usize,
}

impl BatchDuplication {
    /// Duplicated `k`-bit bus.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "need at least one data bit");
        assert!(2 * k <= MAX_WIDTH, "duplicated bus too wide");
        BatchDuplication { k }
    }
}

impl BatchCode for BatchDuplication {
    fn name(&self) -> String {
        "Duplication".into()
    }

    fn data_bits(&self) -> usize {
        self.k
    }

    fn wires(&self) -> usize {
        2 * self.k
    }

    fn encode(&mut self, data: &WordBlock) -> WordBlock {
        assert_eq!(data.width(), self.k, "data width mismatch");
        let mut out = WordBlock::zero(self.wires(), data.len());
        for i in 0..self.k {
            *out.lane_mut(2 * i) = data.lane(i);
            *out.lane_mut(2 * i + 1) = data.lane(i);
        }
        out
    }

    fn decode(&mut self, bus: &WordBlock) -> WordBlock {
        assert_eq!(bus.width(), self.wires(), "bus width mismatch");
        let mut out = WordBlock::zero(self.k, bus.len());
        for i in 0..self.k {
            *out.lane_mut(i) = bus.lane(2 * i);
        }
        out
    }

    fn decode_checked(&mut self, bus: &WordBlock) -> (WordBlock, BlockStatus) {
        let out = self.decode(bus);
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

/// The batch duplicate-add-parity family: each payload lane on a wire
/// pair plus one parity wire, decoded through `dap_select`.
///
/// * DAP: payload = data, layout `[d0, d0, …, d(k-1), d(k-1), p]`;
/// * DAPX: DAP plus a copy of the parity lane;
/// * DAPBI: the invert stage first, payload = inverted data plus the
///   invert lane;
/// * BSC: DAP under an alternating *phase plane* — on odd-phase words the
///   whole codeword shifts one wire up and the parity moves to wire 0.
///   Bit `j` of the plane is `phase ^ (j & 1)`, i.e. `0x5555…` shifted
///   by the block's starting phase, and the phase after a block is
///   `phase ^ (len & 1)`.
#[derive(Clone, Debug)]
pub struct BatchDap {
    name: &'static str,
    k: usize,
    invert: Option<InvertStage>,
    dup_parity: bool,
    /// BSC's phase: `Some(true)` when the next word puts parity on the
    /// left edge; `None` for the fixed layouts.
    phase: Option<bool>,
}

impl BatchDap {
    fn build(name: &'static str, k: usize) -> Self {
        assert!(k > 0, "need at least one data bit");
        assert!(2 * k < MAX_WIDTH, "bus too wide");
        BatchDap {
            name,
            k,
            invert: None,
            dup_parity: false,
            phase: None,
        }
    }

    /// DAP over `k` data bits.
    #[must_use]
    pub fn new(k: usize) -> Self {
        BatchDap::build("DAP", k)
    }

    /// DAPX: DAP with a duplicated parity wire.
    pub(crate) fn dapx(k: usize) -> Self {
        let code = BatchDap {
            dup_parity: true,
            ..BatchDap::build("DAPX", k)
        };
        assert!(code.wires() <= MAX_WIDTH, "bus too wide");
        code
    }

    /// DAPBI: bus-invert, then DAP over data plus invert bit.
    pub(crate) fn dapbi(k: usize) -> Self {
        let code = BatchDap {
            invert: Some(InvertStage::new(0, k)),
            ..BatchDap::build("DAPBI", k)
        };
        assert!(code.wires() <= MAX_WIDTH, "bus too wide");
        code
    }

    /// BSC: DAP with the codeword shifting one wire every cycle.
    pub(crate) fn bsc(k: usize) -> Self {
        BatchDap {
            phase: Some(false),
            ..BatchDap::build("BSC", k)
        }
    }

    /// Payload lanes: the data plus the invert lane, if any.
    fn payload(&self) -> usize {
        self.k + usize::from(self.invert.is_some())
    }

    /// The block's phase plane (zero for the fixed layouts); advances the
    /// phase past the block.
    fn shift_plane(&mut self, vm: u64, len: usize) -> u64 {
        match &mut self.phase {
            None => 0,
            Some(phase) => {
                let plane = if *phase {
                    0x5555_5555_5555_5555
                } else {
                    0xAAAA_AAAA_AAAA_AAAA
                };
                *phase ^= len % 2 == 1;
                plane & vm
            }
        }
    }
}

impl BatchCode for BatchDap {
    fn name(&self) -> String {
        self.name.into()
    }

    fn data_bits(&self) -> usize {
        self.k
    }

    fn wires(&self) -> usize {
        2 * self.payload() + 1 + usize::from(self.dup_parity)
    }

    fn encode(&mut self, data: &WordBlock) -> WordBlock {
        assert_eq!(data.width(), self.k, "data width mismatch");
        let mut payload = data.lanes.clone();
        if let Some(invert) = &mut self.invert {
            let mask = invert.mask(data);
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
        if self.dup_parity {
            out.lanes[2 * q + 1] = parity;
        }
        out
    }

    fn decode(&mut self, bus: &WordBlock) -> WordBlock {
        self.decode_checked(bus).0
    }

    fn decode_checked(&mut self, bus: &WordBlock) -> (WordBlock, BlockStatus) {
        assert_eq!(bus.width(), self.wires(), "bus width mismatch");
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
        if self.invert.is_some() {
            let inv = out.lanes.pop().expect("invert lane");
            for lane in &mut out.lanes {
                *lane ^= inv;
            }
        }
        (out, status)
    }

    fn reset(&mut self) {
        if let Some(invert) = &mut self.invert {
            invert.reset();
        }
        if let Some(phase) = &mut self.phase {
            *phase = false;
        }
    }
}

/// Batch forbidden-transition code: every sub-bus group evaluated on bit
/// planes from its kernel's truth tables (`minterms`, `select`), plus an
/// OR tree over the inter-group shield lanes for the membership check.
#[derive(Clone, Debug)]
pub struct BatchFtc {
    k: usize,
    wires: usize,
    groups: Vec<FtcGroup>,
}

impl BatchFtc {
    /// FTC over `k` data bits, partitioned exactly like the scalar
    /// [`crate::cac::ForbiddenTransitionCode`].
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "need at least one data bit");
        let wires = ftc_wires_for_bits(k);
        assert!(wires <= MAX_WIDTH, "FTC bus too wide");
        let mut groups = Vec::new();
        let mut data_lo = 0;
        let mut wire_lo = 0;
        for (bits, gw) in ftc_groups(k) {
            groups.push(FtcGroup {
                data_lo,
                bits,
                wire_lo,
                wires: gw,
                kernel: codebook_kernel(BookKey::FtcGroup { bits, wires: gw }),
            });
            data_lo += bits;
            wire_lo += gw + 1;
        }
        BatchFtc { k, wires, groups }
    }

    /// Writes every group's codeword planes onto its wires of `out`.
    fn encode_into(&self, data: &WordBlock, out: &mut [u64]) {
        let vm = data.valid_mask();
        for g in &self.groups {
            let planes = minterms(&data.lanes[g.data_lo..g.data_lo + g.bits], vm);
            let wires = &mut out[g.wire_lo..g.wire_lo + g.wires];
            for (lane, &table) in wires.iter_mut().zip(&g.tables().encode) {
                *lane = select(&planes, table);
            }
        }
    }

    /// Decodes every group's code lanes into its data lanes of `out` and
    /// returns the mask of words whose every group was a codeword. Group
    /// `i`'s lanes start at its bus wire in `code`, or — without
    /// `shields` — `i` lanes lower: the shield-free info layout FTC+HC
    /// protects.
    fn decode_into(&self, code: &[u64], shields: bool, vm: u64, out: &mut [u64]) -> u64 {
        let mut exact = vm;
        for (i, g) in self.groups.iter().enumerate() {
            let lo = if shields { g.wire_lo } else { g.wire_lo - i };
            let planes = minterms(&code[lo..lo + g.wires], vm);
            let tables = g.tables();
            let data = &mut out[g.data_lo..g.data_lo + g.bits];
            for (lane, &table) in data.iter_mut().zip(&tables.decode) {
                *lane = select(&planes, table);
            }
            exact &= select(&planes, tables.codeword);
        }
        exact
    }

    /// Decodes a bus block: the data and the all-groups-codeword mask.
    fn decode_block(&self, bus: &WordBlock) -> (WordBlock, u64) {
        assert_eq!(bus.width(), self.wires, "bus width mismatch");
        let mut out = WordBlock::zero(self.k, bus.len());
        let exact = self.decode_into(&bus.lanes, true, bus.valid_mask(), &mut out.lanes);
        (out, exact)
    }
}

impl BatchCode for BatchFtc {
    fn name(&self) -> String {
        "FTC".into()
    }

    fn data_bits(&self) -> usize {
        self.k
    }

    fn wires(&self) -> usize {
        self.wires
    }

    fn encode(&mut self, data: &WordBlock) -> WordBlock {
        assert_eq!(data.width(), self.k, "data width mismatch");
        let mut out = WordBlock::zero(self.wires, data.len());
        self.encode_into(data, &mut out.lanes);
        out
    }

    fn decode(&mut self, bus: &WordBlock) -> WordBlock {
        self.decode_block(bus).0
    }

    fn decode_checked(&mut self, bus: &WordBlock) -> (WordBlock, BlockStatus) {
        let vm = bus.valid_mask();
        let (out, exact_all) = self.decode_block(bus);
        // Any set inter-group shield wire marks the word corrupted.
        let groups = &self.groups;
        let shields = groups[..groups.len() - 1]
            .iter()
            .fold(0u64, |acc, g| acc | bus.lane(g.wire_lo + g.wires));
        let clean = exact_all & !shields & vm;
        let status = BlockStatus {
            clean,
            detected: vm & !clean,
            ..BlockStatus::default()
        };
        (out, status)
    }
}

/// Batch FTC+HC: the FTC planes, then Hamming over the FTC info lanes
/// with the parity on the scalar [`crate::FtcHc`]'s shielded wires. Decoding
/// corrects the info lanes first, then maps them back through FTC. Both
/// directions keep their working lanes on the stack: each allocates only
/// its output block.
#[derive(Clone, Debug)]
pub(crate) struct BatchFtcHc {
    ftc: BatchFtc,
    /// Bus lane of each FTC info bit (the Hamming payload).
    info: Vec<usize>,
    stage: SyndromeStage,
    wires: usize,
}

impl BatchFtcHc {
    /// FTC+HC over `k` data bits.
    pub(crate) fn new(k: usize) -> Self {
        let ftc = BatchFtc::new(k);
        // Every FTC wire but the inter-group shields carries a code bit.
        let info: Vec<usize> = ftc
            .groups
            .iter()
            .flat_map(|g| g.wire_lo..g.wire_lo + g.wires)
            .collect();
        let (parity, wires) = ftc_hc_parity_layout(ftc.wires, hamming_parity_bits(info.len()));
        BatchFtcHc {
            stage: SyndromeStage::hamming(info.len(), parity),
            ftc,
            info,
            wires,
        }
    }
}

impl BatchCode for BatchFtcHc {
    fn name(&self) -> String {
        "FTC+HC".into()
    }

    fn data_bits(&self) -> usize {
        self.ftc.k
    }

    fn wires(&self) -> usize {
        self.wires
    }

    fn encode(&mut self, data: &WordBlock) -> WordBlock {
        assert_eq!(data.width(), self.ftc.k, "data width mismatch");
        let mut out = WordBlock::zero(self.wires, data.len());
        self.ftc.encode_into(data, &mut out.lanes);
        let parity = self.stage.parity(self.info.iter().map(|&w| out.lanes[w]));
        self.stage.place(parity, &mut out);
        out
    }

    fn decode(&mut self, bus: &WordBlock) -> WordBlock {
        self.decode_checked(bus).0
    }

    fn decode_checked(&mut self, bus: &WordBlock) -> (WordBlock, BlockStatus) {
        assert_eq!(bus.width(), self.wires, "bus width mismatch");
        let vm = bus.valid_mask();
        // The received code bits in the shield-free info layout, then
        // corrected in place.
        let mut info = [0u64; MAX_WIDTH];
        let info = &mut info[..self.info.len()];
        for (lane, &w) in info.iter_mut().zip(&self.info) {
            *lane = bus.lanes[w];
        }
        let syn = self.stage.decode(bus, vm, info);
        let mut out = WordBlock::zero(self.ftc.k, bus.len());
        self.ftc.decode_into(info, false, vm, &mut out.lanes);
        let status = BlockStatus {
            clean: vm & !syn.nonzero,
            corrected: syn.nonzero & syn.matched,
            detected: syn.nonzero & !syn.matched,
            ..BlockStatus::default()
        };
        (out, status)
    }
}

/// Batch double-error-correcting BCH: S1/S3 syndrome planes from a
/// `SyndromeStage` built on the field's `alpha_pow` masks. Zero
/// syndromes and single errors (`(S1, S3) = (αᵖ, α³ᵖ)` for a position
/// `p < n`) decode in the planes; the remaining words — double errors and
/// uncorrectable syndromes, about 3e-4 of words at k = 16 and ε = 1e-3 —
/// go through the scalar [`BchDec`] one word each, which keeps its
/// shortened-position and double-error branches exact.
#[derive(Clone, Debug)]
pub(crate) struct BatchBch {
    scalar: BchDec,
    stage: SyndromeStage,
}

impl BatchBch {
    /// BCH-DEC over `k` data bits.
    pub(crate) fn new(k: usize) -> Self {
        let scalar = BchDec::new(k);
        let stage = SyndromeStage::bch(&scalar);
        BatchBch { scalar, stage }
    }
}

impl BatchCode for BatchBch {
    fn name(&self) -> String {
        "BCH-DEC".into()
    }

    fn data_bits(&self) -> usize {
        self.scalar.data_bits()
    }

    fn wires(&self) -> usize {
        self.scalar.wires()
    }

    fn encode(&mut self, data: &WordBlock) -> WordBlock {
        assert_eq!(data.width(), self.data_bits(), "data width mismatch");
        let mut out = data.clone();
        out.lanes.resize(self.wires(), 0);
        self.stage
            .place(self.stage.parity(data.lanes.iter().copied()), &mut out);
        out
    }

    fn decode(&mut self, bus: &WordBlock) -> WordBlock {
        self.decode_checked(bus).0
    }

    fn decode_checked(&mut self, bus: &WordBlock) -> (WordBlock, BlockStatus) {
        assert_eq!(bus.width(), self.wires(), "bus width mismatch");
        let vm = bus.valid_mask();
        let k = self.data_bits();
        let mut out = bus.prefix(k);
        let syn = self.stage.decode(bus, vm, &mut out.lanes);
        let mut status = BlockStatus {
            clean: vm & !syn.nonzero,
            corrected: syn.matched,
            ..BlockStatus::default()
        };
        let mut rest = syn.nonzero & !syn.matched;
        while rest != 0 {
            let j = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let (data, s) = self.scalar.decode_checked(bus.word(j));
            for (i, lane) in out.lanes.iter_mut().enumerate() {
                *lane = (*lane & !(1 << j)) | u64::from(data.bit(i)) << j;
            }
            status.set(j, s);
        }
        (out, status)
    }
}

/// Batch forbidden-pattern code: single-group LUT lookups through the
/// codebook kernel (dense inverse table up to 16 wires).
#[derive(Clone, Debug)]
pub struct BatchFpc {
    k: usize,
    wires: usize,
    lookup: LookupStage,
}

impl BatchFpc {
    /// FPC over `k` data bits (`1..=16`, like the scalar
    /// [`crate::cac::ForbiddenPatternCode`]).
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(
            (1..=16).contains(&k),
            "single-group FPC supports 1..=16 data bits"
        );
        BatchFpc {
            k,
            wires: fpc_wires_for_bits(k),
            lookup: LookupStage {
                kernel: codebook_kernel(BookKey::Fpc { k }),
            },
        }
    }
}

impl BatchCode for BatchFpc {
    fn name(&self) -> String {
        "FPC".into()
    }

    fn data_bits(&self) -> usize {
        self.k
    }

    fn wires(&self) -> usize {
        self.wires
    }

    fn encode(&mut self, data: &WordBlock) -> WordBlock {
        assert_eq!(data.width(), self.k, "data width mismatch");
        self.lookup.encode(data)
    }

    fn decode(&mut self, bus: &WordBlock) -> WordBlock {
        self.decode_checked(bus).0
    }

    fn decode_checked(&mut self, bus: &WordBlock) -> (WordBlock, BlockStatus) {
        assert_eq!(bus.width(), self.wires, "bus width mismatch");
        let vm = bus.valid_mask();
        let (out, clean) = self.lookup.decode(bus, self.k);
        let status = BlockStatus {
            clean,
            detected: vm & !clean,
            ..BlockStatus::default()
        };
        (out, status)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_block(rng: &mut StdRng, width: usize, len: usize) -> WordBlock {
        let words: Vec<Word> = (0..len)
            .map(|_| {
                let mut w = Word::zero(width);
                for i in 0..width {
                    w.set_bit(i, rng.gen::<f64>() < 0.5);
                }
                w
            })
            .collect();
        let block = WordBlock::from_words(&words);
        // from_words is consistent with per-word readback.
        assert_eq!(block.to_words(), words);
        for (j, &w) in words.iter().enumerate() {
            assert_eq!(block.word(j), w);
        }
        block
    }

    /// Transposes a 64×64 bit matrix in place: afterwards bit `j` of
    /// `a[i]` is what bit `i` of `a[j]` was. Hacker's Delight §7-3: six
    /// rounds of block swaps, halving the block size each round. The
    /// reference the narrow transposes are checked against.
    fn transpose64(a: &mut Tile) {
        let mut width = 32;
        let mut mask: u64 = 0x0000_0000_FFFF_FFFF;
        while width != 0 {
            let mut k = 0;
            while k < 64 {
                let t = ((a[k] >> width) ^ a[k + width]) & mask;
                a[k] ^= t << width;
                a[k + width] ^= t;
                k = (k + width + 1) & !width;
            }
            width >>= 1;
            mask ^= mask << width;
        }
    }

    #[test]
    fn transpose64_matches_the_bitwise_definition() {
        let mut rng = StdRng::seed_from_u64(64);
        let a: Tile = std::array::from_fn(|_| rng.gen());
        let mut t = a;
        transpose64(&mut t);
        for (i, row) in t.iter().enumerate() {
            for (j, col) in a.iter().enumerate() {
                assert_eq!(row >> j & 1, col >> i & 1, "bit ({i}, {j})");
            }
        }
        transpose64(&mut t);
        assert_eq!(t, a, "transpose is an involution");
    }

    /// A tile whose first `rows` rows are random with bits below `cols`
    /// only, the rest zero.
    fn random_tile(rng: &mut StdRng, rows: usize, cols: usize) -> Tile {
        std::array::from_fn(|j| {
            if j < rows {
                rng.gen::<u64>() & low_bits(cols)
            } else {
                0
            }
        })
    }

    /// At every (width, row count) pair of a tile, one random tile of
    /// rows turned to lanes and one of lanes turned to rows equal the
    /// full transpose on the rows the narrow form keeps.
    #[test]
    fn narrow_transpose_equals_transpose64() {
        let mut rng = StdRng::seed_from_u64(0x7A11);
        for width in 0..=64 {
            for len in 0..=BLOCK_WORDS {
                let rows = random_tile(&mut rng, len, width);
                let (mut want, mut got) = (rows, rows);
                transpose64(&mut want);
                turn(&mut got, width, Turn::ToLanes);
                assert_eq!(
                    got[..width],
                    want[..width],
                    "to lanes: width {width}, {len} rows"
                );
                let lanes = random_tile(&mut rng, width, len);
                let (mut want, mut got) = (lanes, lanes);
                transpose64(&mut want);
                turn(&mut got, width, Turn::ToRows);
                assert_eq!(got, want, "to rows: width {width}, {len} rows");
            }
        }
    }

    #[test]
    fn transpose_untranspose_is_identity_across_limb_boundaries() {
        let mut rng = StdRng::seed_from_u64(42);
        for width in [1usize, 2, 63, 64, 65, 127, 128, 129, 200, 255, 256] {
            for len in [0usize, 1, 2, 63, 64] {
                let block = random_block(&mut rng, width, len);
                // An empty slice carries no width: from_words infers 0.
                assert_eq!(block.width(), if len == 0 { 0 } else { width });
                assert_eq!(block.len(), len);
                for i in 0..block.width() {
                    assert_eq!(block.lane(i) & !block.valid_mask(), 0);
                }
            }
        }
    }

    #[test]
    fn width_zero_block_is_legal() {
        let block = WordBlock::zero(0, 17);
        assert_eq!(block.width(), 0);
        assert_eq!(block.len(), 17);
        assert_eq!(block.valid_mask(), (1 << 17) - 1);
        // Every word reads back as the zero-width word.
        assert_eq!(block.word(3), Word::zero(0));
        let words = vec![Word::zero(0); 5];
        assert_eq!(WordBlock::from_words(&words).to_words(), words);
    }

    #[test]
    fn width_one_block_masks_correctly() {
        let words: Vec<Word> = (0..5).map(|j| Word::from_bits(j & 1, 1)).collect();
        let block = WordBlock::from_words(&words);
        assert_eq!(block.width(), 1);
        assert_eq!(block.lane(0), 0b01010);
        assert_eq!(block.valid_mask(), 0b11111);
        assert_eq!(block.to_words(), words);
    }

    #[test]
    fn empty_block_edge_cases() {
        let block = WordBlock::from_words(&[]);
        assert_eq!(block.width(), 0);
        assert!(block.is_empty());
        assert_eq!(block.valid_mask(), 0);
        assert!(block.to_words().is_empty());
    }

    #[test]
    fn full_block_valid_mask_is_all_ones() {
        assert_eq!(WordBlock::zero(3, BLOCK_WORDS).valid_mask(), u64::MAX);
    }

    #[test]
    fn flip_bit_matches_word_view() {
        let mut block = WordBlock::zero(130, 64);
        block.flip_bit(129, 63);
        assert!(block.word(63).bit(129));
        assert!(!block.word(62).bit(129));
        block.flip_bit(129, 63);
        assert_eq!(block.word(63), Word::zero(130));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn word_out_of_range_panics() {
        let _ = WordBlock::zero(4, 3).word(3);
    }

    #[test]
    #[should_panic(expected = "mixed widths")]
    fn mixed_width_block_panics() {
        let _ = WordBlock::from_words(&[Word::zero(4), Word::zero(5)]);
    }

    /// The invert recurrence word by word: the reference `invert_scan`
    /// replaces.
    fn invert_serial(above: u64, below: u64, prev_inv: bool, n: usize) -> (u64, bool) {
        let mut inv = prev_inv;
        let mut mask = 0u64;
        for j in 0..n {
            inv = (if inv { below } else { above }) >> j & 1 == 1;
            mask |= u64::from(inv) << j;
        }
        (mask, inv)
    }

    #[test]
    fn invert_scan_equals_the_serial_recurrence() {
        let mut rng = StdRng::seed_from_u64(0x5CA7);
        for n in 1..=BLOCK_WORDS {
            let vm = WordBlock::zero(0, n).valid_mask();
            for _ in 0..64 {
                let (above, below) = (rng.gen::<u64>() & vm, rng.gen::<u64>() & vm);
                for prev_inv in [false, true] {
                    let mask = invert_scan(above, below, prev_inv);
                    let (want, carried) = invert_serial(above, below, prev_inv, n);
                    assert_eq!(mask, want, "n={n} prev_inv={prev_inv}");
                    assert_eq!(mask >> (n - 1) & 1 == 1, carried, "n={n}");
                }
            }
        }
    }

    #[test]
    fn vertical_counter_counts_and_compares() {
        let mut counter = VerticalCounter::default();
        // Three planes: word j's count = number of planes with bit j set.
        counter.add(0b1011);
        counter.add(0b0011);
        counter.add(0b0001);
        // Counts: word 0 = 3, word 1 = 2, word 2 = 0, word 3 = 1.
        assert_eq!(counter.compare(1), (0b0011, 0b1000));
        assert_eq!(counter.compare(2).0 & 0b1111, 0b0001);
        assert_eq!(counter.compare(2).1 & 0b1111, 0b0010);
        assert_eq!(counter.compare(0).1 & 0b1111, 0b0100);
        // 300 increments of one word reach the ninth plane.
        let mut wide = VerticalCounter::default();
        for _ in 0..300 {
            wide.add(1);
        }
        assert_eq!(wide.compare(299).0 & 1, 1);
        assert_eq!(wide.compare(300).1 & 1, 1);
    }

    #[test]
    fn block_status_picks_exactly_one() {
        let s = BlockStatus {
            unchecked: 0b0001,
            clean: 0b0010,
            corrected: 0b0100,
            detected: 0b1000,
        };
        assert_eq!(s.status(0), DecodeStatus::Unchecked);
        assert_eq!(s.status(1), DecodeStatus::Clean);
        assert_eq!(s.status(2), DecodeStatus::Corrected);
        assert_eq!(s.status(3), DecodeStatus::Detected);
    }

    #[test]
    fn batch_build_covers_every_catalog_scheme() {
        let mut schemes = Scheme::catalog();
        schemes.push(Scheme::Sabotaged);
        for scheme in schemes {
            let k = 8;
            let mut batch = batch_build(scheme, k);
            let scalar = scheme.build(k);
            assert!(batch_is_native(scheme));
            assert_eq!(batch.name(), scalar.name());
            assert_eq!(batch.data_bits(), scalar.data_bits());
            assert_eq!(batch.wires(), scalar.wires());
            // Smoke roundtrip on a fresh pair of codecs.
            let mut rng = StdRng::seed_from_u64(7);
            let block = random_block(&mut rng, k, 64);
            let mut dec = batch_build(scheme, k);
            let coded = batch.encode(&block);
            assert_eq!(dec.decode(&coded), block, "{}", scalar.name());
        }
    }

    #[test]
    fn dap_at_64_bits_crosses_the_128_wire_ceiling() {
        // DAP(64) uses 129 wires — the satellite-1 regression: the batch
        // path (and the scalar one) must work where Word::bits() cannot.
        let k = 64;
        let mut enc = BatchDap::new(k);
        let mut dec = BatchDap::new(k);
        assert_eq!(enc.wires(), 129);
        let mut rng = StdRng::seed_from_u64(11);
        let block = random_block(&mut rng, k, 64);
        let mut coded = enc.encode(&block);
        // Flip one wire of every word, covering wires above the u128 range.
        for j in 0..64 {
            coded.flip_bit(128 - j, j);
        }
        let (out, status) = dec.decode_checked(&coded);
        assert_eq!(out, block);
        assert_eq!(status.clean, 0);
    }
}

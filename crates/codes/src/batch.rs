//! Bit-sliced block codecs: 64 bus words per bitwise operation.
//!
//! The word form of a codec processes one [`Word`] at a time. Every
//! [`Scheme`]'s codec also has a **transposed (bit-plane) form**: a
//! [`WordBlock`] holds up to [`BLOCK_WORDS`] words of a common width as
//! `width` *lanes* of `u64`, where bit `j` of lane `i` is wire `i` of word
//! `j`. One bitwise op on a lane then processes all 64 words at once.
//!
//! [`BatchCode`] mirrors [`BusCode`] over blocks. A scheme's codec type
//! implements both ([`Codec`], built by [`Scheme::codec`]): its plane
//! kernel sits next to its word kernel. Following the paper's Fig. 4, the
//! joint codes compose a few plane stages kept here rather than
//! hand-copied kernels:
//!
//! * `InvertStage` — the BI(1) invert decision: per-word toggle counts
//!   from a fixed-size vertical counter, then the invert-mask recurrence
//!   as a six-step parallel-prefix scan (`invert_scan`; BI(i), BIH,
//!   DAPBI);
//! * `SyndromeStage` — a systematic linear code as XOR trees over the
//!   parity-check columns its word kernel already holds (`Columns`):
//!   parity planes from per-data-lane feed masks, syndrome planes from
//!   the columns, single-error hits as AND trees, parity bits on any
//!   lanes (the Hamming family, FTC+HC, BCH-DEC);
//! * `dap_select` — DAP's Fig. 6 multiplexer (the DAP family);
//! * the lane placements each codec keeps (HammingX's half-shielded
//!   parity lanes, FTC+HC's info and parity lanes, BSC's phase plane);
//! * truth-table planes — each FTC group's encoder, nearest-codeword
//!   decoder and codeword test, read off its [`crate::kernels`] kernel as
//!   [`crate::kernels::TruthTables`] and evaluated by ORing the group's
//!   minterm planes (`minterms`, `select`; FTC, FTC+HC);
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
//! syndromes) to its word decoder, one word each.
//!
//! **Equivalence contract:** a codec is one type with one state, which
//! both forms read and advance. Feeding the words of a block through
//! [`BatchCode`] gives bit-identical outputs and statuses to feeding them
//! one by one, in block order, through [`BusCode`]; so any interleaving
//! of word calls and block calls on one instance gives what word calls
//! alone give. A stateful codec seeds each block from its word state
//! (BI(i), BIH and DAPBI: the last driven word; BSC: the phase) and
//! writes the state back after it. `crates/codes/tests/batch_equiv.rs`
//! and the root `tests/batch_contract.rs` pin this, mixed use included,
//! and it is what lets `channel::montecarlo` run on blocks while
//! reproducing the word-at-a-time estimates byte for byte.

use crate::catalog::Scheme;
use crate::kernels::CodebookKernel;
use crate::traits::{BusCode, DecodeStatus};
use socbus_model::word::MAX_WIDTH;
use socbus_model::Word;

/// Number of words a full [`WordBlock`] holds: one per bit of a `u64` lane.
pub const BLOCK_WORDS: usize = 64;

const LIMBS: usize = Word::LIMB_COUNT;

/// One limb of a block: 64 rows or 64 lanes of 64 bits.
pub(crate) type Tile = [u64; BLOCK_WORDS];

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
    pub(crate) lanes: Vec<u64>,
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
    pub(crate) fn from_rows(width: usize, len: usize, row: impl Fn(usize, usize) -> u64) -> Self {
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
    pub(crate) fn to_rows(&self, l: usize) -> Tile {
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
    pub(crate) fn prefix(&self, n: usize) -> WordBlock {
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
    pub(crate) fn set(&mut self, j: usize, status: DecodeStatus) {
        let mask = match status {
            DecodeStatus::Unchecked => &mut self.unchecked,
            DecodeStatus::Clean => &mut self.clean,
            DecodeStatus::Corrected => &mut self.corrected,
            DecodeStatus::Detected => &mut self.detected,
        };
        *mask |= 1 << j;
    }
}

/// A bus coding scheme over transposed blocks: the block form of
/// [`BusCode`]. A catalog codec implements both over one state, so
/// processing a block is equivalent to processing its words in order
/// through the word form, and the two may be mixed on one instance.
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

/// A scheme's codec in both forms: [`BusCode`] for one word and
/// [`BatchCode`] for a block of 64, over one state. [`Scheme::codec`]
/// builds one; [`Scheme::build`] and [`batch_build`] hand out its two
/// views.
pub trait Codec: BusCode + BatchCode {}

impl<T: BusCode + BatchCode> Codec for T {}

/// The plane form of a word codec. Implementing it gives the codec
/// [`BatchCode`], whose name, widths and reset are its [`BusCode`] ones:
/// both forms read and advance the codec's one state.
pub(crate) trait Planes: BusCode {
    /// Encodes a block of `data_bits()` lanes.
    fn encode_planes(&mut self, data: &WordBlock) -> WordBlock;

    /// Decodes a block of `wires()` lanes, with per-word statuses.
    fn decode_planes(&mut self, bus: &WordBlock) -> (WordBlock, BlockStatus);
}

impl<T: Planes> BatchCode for T {
    fn name(&self) -> String {
        BusCode::name(self)
    }

    fn data_bits(&self) -> usize {
        BusCode::data_bits(self)
    }

    fn wires(&self) -> usize {
        BusCode::wires(self)
    }

    fn encode(&mut self, data: &WordBlock) -> WordBlock {
        assert_eq!(
            data.width(),
            BusCode::data_bits(self),
            "data width mismatch"
        );
        self.encode_planes(data)
    }

    fn decode(&mut self, bus: &WordBlock) -> WordBlock {
        assert_eq!(bus.width(), BusCode::wires(self), "bus width mismatch");
        self.decode_planes(bus).0
    }

    fn decode_checked(&mut self, bus: &WordBlock) -> (WordBlock, BlockStatus) {
        assert_eq!(bus.width(), BusCode::wires(self), "bus width mismatch");
        self.decode_planes(bus)
    }

    fn reset(&mut self) {
        BusCode::reset(self);
    }
}

/// The block view of `scheme`'s codec over `k` data bits.
///
/// # Panics
///
/// Panics where [`Scheme::check`] rejects `k`.
#[must_use]
pub fn batch_build(scheme: Scheme, k: usize) -> Box<dyn BatchCode> {
    scheme.codec(k)
}

/// Whether `scheme` has a native bit-sliced batch codec: true for every
/// scheme since the scalar fallback was retired. Kept because the
/// end-to-end benchmark splits its codec layer by this predicate.
#[must_use]
pub fn batch_is_native(_scheme: Scheme) -> bool {
    true
}

// ---------------------------------------------------------------------------
// Plane stages shared by the codecs
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

/// The BI(1) invert decision over data lanes `lo .. lo + len` of one
/// block, seeded from the word codec's memory: the sub-bus as last driven.
///
/// Word `j` toggles `d_j` data bits against word `j - 1`, so against the
/// previously *driven* word it toggles `d_j` bits when that word went out
/// uninverted and `len - d_j` when it went out inverted; it is inverted
/// when that exceeds half the sub-bus. The counts are bit-parallel, and so
/// is the decision: `invert_scan` resolves the recurrence over the block's
/// 64 words in six doubling steps.
#[derive(Clone, Debug)]
pub(crate) struct InvertStage {
    lo: usize,
    len: usize,
    /// Data bits (before inversion) of the last word encoded: bit `b` is
    /// lane `lo + b`.
    prev_data: [u64; LIMBS],
    /// Whether the last word encoded went out inverted.
    prev_inv: bool,
}

impl InvertStage {
    /// The stage after `prev`, the sub-bus as last driven (bit `b` is
    /// lane `lo + b`): as the data of an uninverted word, it gives the
    /// block's first word the word codec's decision.
    pub(crate) fn new(lo: usize, len: usize, prev: Word) -> Self {
        InvertStage {
            lo,
            len,
            prev_data: std::array::from_fn(|l| prev.limb(l)),
            prev_inv: false,
        }
    }

    /// The sub-bus as last driven: the memory the word codec keeps.
    pub(crate) fn driven(&self) -> Word {
        let data = Word::from_limbs(self.prev_data, self.len);
        if self.prev_inv {
            data.not()
        } else {
            data
        }
    }

    /// The invert plane of `data`'s block (bit `j` set when word `j` is
    /// driven inverted); advances the memory to the block's last word.
    pub(crate) fn mask(&mut self, data: &WordBlock) -> u64 {
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
pub(crate) struct Syndrome {
    /// Words with a nonzero syndrome.
    pub(crate) nonzero: u64,
    /// Words whose syndrome equals one lane's parity-check column: a
    /// single error on a payload or parity lane.
    pub(crate) matched: u64,
}

/// A systematic linear code's parity-check columns, read from the tables
/// its word kernel already holds: Hamming's canonical positions (parity
/// bit `j` has column `2^j`), BCH-DEC's `(αᵖ, α³ᵖ)` syndrome terms and
/// `xᵖ mod g(x)` remainders.
pub(crate) trait Columns {
    /// Number of syndrome planes.
    fn planes(&self) -> usize;

    /// Parity-check column of payload lane `i`: the syndrome a single
    /// flip on it produces.
    fn column(&self, i: usize) -> u32;

    /// Parity-check column of parity bit `j`.
    fn parity_column(&self, j: usize) -> u32;

    /// The parity planes payload lane `i` feeds (bit `j` = parity bit
    /// `j`): its column, unless the code checks in another basis than it
    /// encodes in (BCH-DEC).
    fn feed(&self, i: usize) -> u32 {
        self.column(i)
    }
}

/// A systematic linear code as plane logic. Parity planes are XOR trees
/// of the payload lanes; syndrome planes are XOR trees of the payload and
/// parity lanes through their parity-check columns; a single error on a
/// lane is the AND tree matching the syndrome against that lane's column.
/// The parity bits sit on any bus lanes — the placement that makes
/// HammingX and FTC+HC. Built on the stack per block from the codec's
/// [`Columns`], so the word path never pays for it.
pub(crate) struct SyndromeStage<'a, C> {
    code: &'a C,
    /// Number of payload lanes.
    data: usize,
    /// Bus lane of each parity bit.
    parity_lanes: [usize; MAX_PLANES],
    /// Number of parity bits.
    parity: usize,
}

impl<'a, C: Columns> SyndromeStage<'a, C> {
    /// The stage of `code` over `data` payload lanes, parity bit `j` on
    /// the `j`-th bus lane of `lanes`.
    pub(crate) fn new(code: &'a C, data: usize, lanes: impl IntoIterator<Item = usize>) -> Self {
        let mut parity_lanes = [0; MAX_PLANES];
        let mut parity = 0;
        for (slot, lane) in parity_lanes.iter_mut().zip(lanes) {
            *slot = lane;
            parity += 1;
        }
        SyndromeStage {
            code,
            data,
            parity_lanes,
            parity,
        }
    }

    fn lanes(&self) -> &[usize] {
        &self.parity_lanes[..self.parity]
    }

    /// Parity planes of the payload lanes (plane `j` is parity bit `j`).
    pub(crate) fn parity(&self, payload: impl IntoIterator<Item = u64>) -> [u64; MAX_PLANES] {
        let mut parity = [0u64; MAX_PLANES];
        for (lane, i) in payload.into_iter().zip(0..self.data) {
            xor_planes(&mut parity, self.code.feed(i), lane);
        }
        parity
    }

    /// Writes parity planes onto their bus lanes of `out`.
    pub(crate) fn place(&self, parity: [u64; MAX_PLANES], out: &mut WordBlock) {
        for (&lane, plane) in self.lanes().iter().zip(parity) {
            out.lanes[lane] = plane;
        }
    }

    /// Syndrome-decodes the payload in `lanes` against the parity lanes
    /// of `bus`: `lanes` holds the received payload on entry and
    /// `payload ^ (correction & correct)` on exit (`correct` gates which
    /// words get their single error fixed).
    pub(crate) fn decode(&self, bus: &WordBlock, correct: u64, lanes: &mut [u64]) -> Syndrome {
        let mut s = [0u64; MAX_PLANES];
        for (i, &lane) in lanes.iter().enumerate() {
            xor_planes(&mut s, self.code.column(i), lane);
        }
        for (j, &l) in self.lanes().iter().enumerate() {
            xor_planes(&mut s, self.code.parity_column(j), bus.lanes[l]);
        }
        let s = &s[..self.code.planes()];
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
        for (i, o) in lanes.iter_mut().enumerate() {
            let mask = hit(self.code.column(i));
            *o ^= mask & correct;
            matched |= mask;
        }
        for j in 0..self.parity {
            matched |= hit(self.code.parity_column(j));
        }
        Syndrome { nonzero, matched }
    }
}

/// DAP's Fig. 6 multiplexer: `out` holds copy set A on entry and the
/// selected set on exit. Words where A's parity disagrees with the
/// received parity plane take copy set B (`b(i)` is B's lane `i`).
pub(crate) fn dap_select(
    out: &mut [u64],
    b: impl Fn(usize) -> u64,
    parity: u64,
    vm: u64,
) -> BlockStatus {
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

/// The minterm planes of up to six input lanes: bit `j` of plane `v` is
/// set when word `j` reads `v` on the inputs (input `i` is bit `i` of
/// `v`). Each input doubles the planes built so far, starting from the
/// valid mask, so no complement leaks past the block's words.
pub(crate) fn minterms(inputs: &[u64], vm: u64) -> [u64; 64] {
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
pub(crate) fn select(minterms: &[u64; 64], mut table: u64) -> u64 {
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
pub(crate) struct LookupStage<'a> {
    pub(crate) kernel: &'a CodebookKernel,
}

impl LookupStage<'_> {
    pub(crate) fn encode(&self, data: &WordBlock) -> WordBlock {
        let rows = data.to_rows(0);
        WordBlock::from_rows(self.kernel.wires(), data.len(), |_, j| {
            self.kernel.codeword_bits(rows[j] as usize) as u64
        })
    }

    /// Decodes every word to `k` data lanes; returns the mask of words
    /// that were exact codewords.
    pub(crate) fn decode(&self, bus: &WordBlock, k: usize) -> (WordBlock, u64) {
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
        let mut enc = crate::Dap::new(k);
        let mut dec = crate::Dap::new(k);
        assert_eq!(BatchCode::wires(&enc), 129);
        let mut rng = StdRng::seed_from_u64(11);
        let block = random_block(&mut rng, k, 64);
        let mut coded = BatchCode::encode(&mut enc, &block);
        // Flip one wire of every word, covering wires above the u128 range.
        for j in 0..64 {
            coded.flip_bit(128 - j, j);
        }
        let (out, status) = BatchCode::decode_checked(&mut dec, &coded);
        assert_eq!(out, block);
        assert_eq!(status.clean, 0);
    }
}

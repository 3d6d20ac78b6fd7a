//! Forbidden-transition codes (FTC) — Victor & Keutzer's CAC.
//!
//! A set of codewords satisfies the **FT condition** when no transition
//! between two codewords of the set drives adjacent wires in opposite
//! directions. The largest such set on `n` wires has Fibonacci size
//! `F(n+2)` (3, 5, 8, 13, … for n = 2, 3, 4, 5), so 4 wires carry 3 bits —
//! the `FTC(4,3)` sub-bus code the paper builds FTC+HC from.
//!
//! Wide buses are partitioned into sub-bus groups with one grounded shield
//! wire between groups (groups are FT-safe internally; the shield makes
//! the boundary safe). For 32 bits this yields the paper's 53 wires:
//! ten 3-bit groups (4 wires each) + one 2-bit group (3 wires) + ten
//! shields.

use std::sync::Arc;

use crate::batch::{minterms, select, BlockStatus, Planes, WordBlock};
use crate::catalog::Scheme;
use crate::kernels::{codebook_kernel, BookKey, CodebookKernel, TruthTables};
use crate::traits::{BusCode, DecodeStatus};
use socbus_model::{DelayClass, Word};

/// Whether the transition `u → v` satisfies the FT condition: at no wire
/// boundary do the two words carry `01` in one and `10` in the other.
#[must_use]
pub fn ft_compatible(u: Word, v: Word) -> bool {
    assert_eq!(u.width(), v.width(), "width mismatch");
    for i in 0..u.width().saturating_sub(1) {
        let du = (u.bit(i), u.bit(i + 1));
        let dv = (v.bit(i), v.bit(i + 1));
        if (du == (false, true) && dv == (true, false))
            || (du == (true, false) && dv == (false, true))
        {
            return false;
        }
    }
    true
}

/// The maximum FT-condition codebook on `wires` wires, found by exact
/// maximum-clique search over the FT-compatibility graph, returned in
/// ascending numeric order.
///
/// The size follows the Fibonacci sequence `F(wires+2)`.
///
/// Memoized: the clique search runs once per process per wire count;
/// repeated calls clone the cached book.
///
/// # Panics
///
/// Panics if `wires == 0` or `wires > 6` (the clique search is exact and
/// exponential; wider buses should be partitioned into groups).
#[must_use]
pub fn ftc_codebook(wires: usize) -> Vec<Word> {
    crate::kernels::ft_book(wires).as_ref().clone()
}

/// The raw clique search behind [`ftc_codebook`] — called through the
/// process-wide cache in [`crate::kernels`], at most once per `wires`.
pub(crate) fn search_ft_book(wires: usize) -> Vec<Word> {
    assert!(
        (1..=6).contains(&wires),
        "ftc_codebook supports 1..=6 wires"
    );
    let n_vert = 1usize << wires;
    // adjacency bitsets over at most 64 vertices
    let mut adj = vec![0u64; n_vert];
    for a in 0..n_vert {
        for b in (a + 1)..n_vert {
            let wa = Word::from_bits(a as u128, wires);
            let wb = Word::from_bits(b as u128, wires);
            if ft_compatible(wa, wb) {
                adj[a] |= 1 << b;
                adj[b] |= 1 << a;
            }
        }
    }
    let best = max_clique(&adj);
    let mut book: Vec<Word> = (0..n_vert)
        .filter(|v| best & (1 << v) != 0)
        .map(|v| Word::from_bits(v as u128, wires))
        .collect();
    book.sort();
    book
}

/// Exact maximum clique over ≤64 vertices (simple branch and bound).
fn max_clique(adj: &[u64]) -> u64 {
    fn expand(adj: &[u64], current: u64, candidates: u64, best: &mut u64) {
        if candidates == 0 {
            if current.count_ones() > best.count_ones() {
                *best = current;
            }
            return;
        }
        if current.count_ones() + candidates.count_ones() <= best.count_ones() {
            return; // bound
        }
        let mut cand = candidates;
        while cand != 0 {
            let v = cand.trailing_zeros() as usize;
            let vbit = 1u64 << v;
            cand &= !vbit;
            if (current | cand).count_ones() < best.count_ones() {
                return;
            }
            expand(adj, current | vbit, cand & adj[v], best);
        }
    }
    let mut best = 0u64;
    expand(
        adj,
        0,
        (1u128 << adj.len()).wrapping_sub(1) as u64,
        &mut best,
    );
    if adj.len() == 64 {
        // (1<<64) wrapped; recompute candidates mask as all-ones.
        best = 0;
        expand(adj, 0, u64::MAX, &mut best);
    }
    best
}

/// Group shape used when partitioning `k` data bits into FTC sub-buses:
/// `(body, tail)` — `body` 3-bit groups on 4 wires, each followed by a
/// shield, then one `tail` group of `(data_bits, wires)`.
///
/// 3-bit groups on 4 wires are the densest small group (`F(6) = 8`); a
/// remainder of 2 bits takes 3 wires (`F(5) = 5`) and a remainder of 1 is
/// merged with a 3-bit group into a 4-bit group on 6 wires (`F(8) = 21`),
/// which beats a separate 1-bit group plus shield. This reproduces the
/// paper's wire counts: 53 wires for 32 bits (Table III) and 6 FTC wires
/// inside the 14-wire 4-bit FTC+HC (Table II).
fn group_shape(k: usize) -> (usize, (usize, usize)) {
    match (k / 3, k % 3) {
        // k < 3: one small group.
        (0, r) => (0, (r, [0, 2, 3][r])),
        // Fold the lone remainder bit into the last group: 4 bits / 6 wires.
        (f, 1) => (f - 1, (4, 6)),
        (f, 0) => (f - 1, (3, 4)),
        (f, _) => (f, (2, 3)),
    }
}

/// Data bits and wires of a body group, plus the wires per body group
/// including its trailing shield.
const BODY_BITS: usize = 3;
const BODY_WIRES: usize = 4;
const BODY_STRIDE: usize = BODY_WIRES + 1;

/// The `(data_bits, wires)` sub-bus partition used for `k` data bits —
/// exposed so the gate-level synthesizer can mirror the exact grouping.
#[must_use]
pub fn ftc_groups(k: usize) -> Vec<(usize, usize)> {
    let (body, tail) = group_shape(k);
    let mut groups = vec![(BODY_BITS, BODY_WIRES); body];
    groups.push(tail);
    groups
}

/// Total wires (groups + inter-group shields) for `k` data bits.
#[must_use]
pub fn ftc_wires_for_bits(k: usize) -> usize {
    let (body, (_, tail_wires)) = group_shape(k);
    body * BODY_STRIDE + tail_wires
}

/// Code bits (the wires minus the inter-group shields) for `k` data
/// bits: the payload FTC+HC's Hamming code protects.
pub(crate) fn ftc_info_bits(k: usize) -> usize {
    ftc_wires_for_bits(k) - group_shape(k).0
}

/// One sub-bus group: where its data bits and wires start, and the
/// shared kernel of its shape.
struct Group<'a> {
    data_lo: usize,
    bits: usize,
    wire_lo: usize,
    wires: usize,
    kernel: &'a CodebookKernel,
}

impl Group<'_> {
    /// The group kernel's truth tables.
    fn tables(&self) -> &TruthTables {
        self.kernel
            .tables()
            .expect("FTC group kernels carry truth tables")
    }
}

/// Partitioned forbidden-transition code over `k` data bits.
///
/// # Examples
///
/// ```
/// use socbus_codes::{BusCode, ForbiddenTransitionCode};
/// use socbus_model::Word;
///
/// // The paper's Table III row: FTC on 32 bits uses 53 wires.
/// let mut ftc = ForbiddenTransitionCode::new(32);
/// assert_eq!(ftc.wires(), 53);
/// let d = Word::from_bits(0xDEAD_BEEF, 32);
/// let coded = ftc.encode(d);
/// assert_eq!(ftc.decode(coded), d);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForbiddenTransitionCode {
    k: usize,
    wires: usize,
    /// Groups of the 3-bit / 4-wire body shape, each followed by a shield.
    body: usize,
    /// Shared decode kernels of the body and tail shapes. Only four
    /// distinct shapes ever occur (`group_shape`), so every FTC instance
    /// in the process — any width, encoder or decoder — shares the same
    /// four cached kernels; `body_kernel` is `None` when there is no body
    /// group, so no unused shape is ever built.
    body_kernel: Option<Arc<CodebookKernel>>,
    tail_kernel: Arc<CodebookKernel>,
}

impl ForbiddenTransitionCode {
    /// FTC over `k` data bits.
    ///
    /// # Panics
    ///
    /// Panics where [`Scheme::check`] rejects `k`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        Scheme::Ftc.assert_builds(k);
        let wires = ftc_wires_for_bits(k);
        let (body, (bits, tail_wires)) = group_shape(k);
        let body_kernel = (body > 0).then(|| {
            codebook_kernel(BookKey::FtcGroup {
                bits: BODY_BITS,
                wires: BODY_WIRES,
            })
        });
        ForbiddenTransitionCode {
            k,
            wires,
            body,
            body_kernel,
            tail_kernel: codebook_kernel(BookKey::FtcGroup {
                bits,
                wires: tail_wires,
            }),
        }
    }

    /// The tail group, after the body groups laid out `stride` wires
    /// apart: a shield of `stride − 4` wires follows each body group (1
    /// on the bus; 0 in the shield-free info layout FTC+HC protects).
    fn tail_group(&self, stride: usize) -> Group<'_> {
        Group {
            data_lo: BODY_BITS * self.body,
            bits: self.k - BODY_BITS * self.body,
            wire_lo: stride * self.body,
            wires: self.tail_kernel.wires(),
            kernel: &self.tail_kernel,
        }
    }

    /// The groups of the bus in wire order, one at a time: the view of
    /// the reference scan and the plane form.
    fn groups(&self) -> impl Iterator<Item = Group<'_>> {
        self.groups_at(BODY_STRIDE)
    }

    /// The groups laid out `stride` wires apart: the bus (`BODY_STRIDE`)
    /// or the shield-free info layout FTC+HC protects (`BODY_WIRES`).
    fn groups_at(&self, stride: usize) -> impl Iterator<Item = Group<'_>> {
        let body = self.body_kernel.iter().flat_map(move |kernel| {
            (0..self.body).map(move |g| Group {
                data_lo: BODY_BITS * g,
                bits: BODY_BITS,
                wire_lo: stride * g,
                wires: BODY_WIRES,
                kernel,
            })
        });
        body.chain(std::iter::once(self.tail_group(stride)))
    }

    /// The bus wire of each code bit, in info order: every wire but the
    /// inter-group shields.
    pub(crate) fn info_wires(&self) -> impl Iterator<Item = usize> + '_ {
        self.groups().flat_map(|g| g.wire_lo..g.wire_lo + g.wires)
    }

    /// Writes every group's codeword planes onto its wires of `out`: each
    /// group evaluated from its kernel's truth tables (`minterms`,
    /// `select`).
    pub(crate) fn encode_planes_into(&self, data: &WordBlock, out: &mut [u64]) {
        let vm = data.valid_mask();
        for g in self.groups() {
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
    pub(crate) fn decode_planes_into(
        &self,
        code: &[u64],
        shields: bool,
        vm: u64,
        out: &mut [u64],
    ) -> u64 {
        let stride = if shields { BODY_STRIDE } else { BODY_WIRES };
        let mut exact = vm;
        for g in self.groups_at(stride) {
            let planes = minterms(&code[g.wire_lo..g.wire_lo + g.wires], vm);
            let tables = g.tables();
            let data = &mut out[g.data_lo..g.data_lo + g.bits];
            for (lane, &table) in data.iter_mut().zip(&tables.decode) {
                *lane = select(&planes, table);
            }
            exact &= select(&planes, tables.codeword);
        }
        exact
    }

    /// The body groups in windows of as many groups as one 64-wire field
    /// holds when body groups sit `STRIDE` wires apart: `(first, count)`
    /// pairs. The stride is a constant parameter so the window arithmetic
    /// compiles to shifts and multiplies, not divisions.
    fn body_windows<const STRIDE: usize>(&self) -> impl Iterator<Item = (usize, usize)> {
        let (per_window, body) = (64 / STRIDE, self.body);
        (0..body)
            .step_by(per_window)
            .map(move |first| (first, per_window.min(body - first)))
    }

    /// Decodes the groups laid out at `STRIDE` wires each: the data, and
    /// whether every group slice was an exact codeword with its shield
    /// wires (the `STRIDE − 4` wires after each body group) at 0. Each
    /// window of body groups is one field load and one data field store.
    #[inline(always)]
    fn decode_groups<const STRIDE: usize>(&self, bus: Word) -> (Word, bool) {
        const GROUP: u64 = (1 << BODY_WIRES) - 1;
        let shield = (1 << STRIDE) - 1 - GROUP;
        let mut out = Word::zero(self.k);
        let mut valid = true;
        if let Some(kernel) = &self.body_kernel {
            for (first, n) in self.body_windows::<STRIDE>() {
                let window = bus.field(STRIDE * first, STRIDE * n);
                let mut data = 0;
                for j in 0..n {
                    let group = window >> (STRIDE * j);
                    let (idx, exact) = kernel.decode_index_raw(u128::from(group & GROUP));
                    data |= (idx as u64) << (BODY_BITS * j);
                    valid &= exact && group & shield == 0;
                }
                out = out.with_field(BODY_BITS * first, BODY_BITS * n, data);
            }
        }
        let tail = self.tail_group(STRIDE);
        let raw = u128::from(bus.field(tail.wire_lo, tail.wires));
        let (idx, exact) = tail.kernel.decode_index_raw(raw);
        (
            out.with_field(tail.data_lo, tail.bits, idx as u64),
            valid && exact,
        )
    }

    /// The reference linear-scan decoder (per group: exact match, then
    /// first-minimum nearest codeword — the same lowest-index tie-break
    /// as [`BusCode::decode`]). Kept for the decode-equivalence tests
    /// and the `bench --bin codec` scan baseline.
    #[must_use]
    pub fn decode_scan(&self, bus: Word) -> Word {
        assert_eq!(bus.width(), self.wires, "bus width mismatch");
        let mut out = Word::zero(self.k);
        for g in self.groups() {
            let (idx, _) = g.kernel.decode_index_scan(bus.slice(g.wire_lo, g.wires));
            out = out.with_field(g.data_lo, g.bits, idx as u64);
        }
        out
    }

    /// Number of code bits: the wires minus the inter-group shields.
    pub(crate) fn info_bits(&self) -> usize {
        self.wires - self.body
    }

    /// The code bits of an FTC bus word with the shields squeezed out —
    /// the word FTC+HC's Hamming code protects.
    pub(crate) fn to_info(&self, bus: Word) -> Word {
        let mut info = Word::zero(self.info_bits());
        for (first, n) in self.body_windows::<BODY_STRIDE>() {
            let wired = bus.field(BODY_STRIDE * first, BODY_STRIDE * n);
            let packed = (0..n).fold(0, |packed, j| {
                let group = wired >> (BODY_STRIDE * j) & ((1 << BODY_WIRES) - 1);
                packed | group << (BODY_WIRES * j)
            });
            info = info.with_field(BODY_WIRES * first, BODY_WIRES * n, packed);
        }
        let (wired, packed) = (self.tail_group(BODY_STRIDE), self.tail_group(BODY_WIRES));
        info.with_field(
            packed.wire_lo,
            packed.wires,
            bus.field(wired.wire_lo, wired.wires),
        )
    }

    /// Decodes squeezed code bits (see [`Self::to_info`]) to data.
    pub(crate) fn decode_info(&self, info: Word) -> Word {
        self.decode_groups::<BODY_WIRES>(info).0
    }
}

impl BusCode for ForbiddenTransitionCode {
    fn name(&self) -> String {
        "FTC".into()
    }

    fn data_bits(&self) -> usize {
        self.k
    }

    fn wires(&self) -> usize {
        self.wires
    }

    /// Encodes each group as one codebook load; each window of body
    /// groups is one data field load and one bus field store. Shields
    /// stay 0.
    fn encode(&mut self, data: Word) -> Word {
        assert_eq!(data.width(), self.k, "data width mismatch");
        let mut out = Word::zero(self.wires);
        if let Some(kernel) = &self.body_kernel {
            for (first, n) in self.body_windows::<BODY_STRIDE>() {
                let indices = data.field(BODY_BITS * first, BODY_BITS * n);
                let window = (0..n).fold(0, |window, j| {
                    let idx = indices >> (BODY_BITS * j) & ((1 << BODY_BITS) - 1);
                    #[allow(clippy::cast_possible_truncation)]
                    let cw = kernel.codeword_bits(idx as usize) as u64;
                    window | cw << (BODY_STRIDE * j)
                });
                out = out.with_field(BODY_STRIDE * first, BODY_STRIDE * n, window);
            }
        }
        let tail = self.tail_group(BODY_STRIDE);
        #[allow(clippy::cast_possible_truncation)]
        let cw = tail
            .kernel
            .codeword_bits(data.field(tail.data_lo, tail.bits) as usize) as u64;
        out.with_field(tail.wire_lo, tail.wires, cw)
    }

    /// Decodes each group via its kernel's inverse table: the exact match
    /// when the group slice is a codeword, else the **nearest codeword by
    /// Hamming distance, lowest codebook index on ties** — the pinned
    /// fallback contract (identical to a first-minimum linear scan, which
    /// the equivalence tests verify exhaustively). Shield wires are
    /// ignored here; [`BusCode::decode_checked`] inspects them.
    fn decode(&mut self, bus: Word) -> Word {
        assert_eq!(bus.width(), self.wires, "bus width mismatch");
        self.decode_groups::<BODY_STRIDE>(bus).0
    }

    /// Like [`BusCode::decode`], but reports whether the received bus was
    /// a valid codeword: every group slice must match its codebook exactly
    /// **and** every inter-group shield wire must read 0, else the word is
    /// [`DecodeStatus::Detected`] (best-effort nearest data per group).
    /// FTC guarantees no minimum distance ([`BusCode::detectable_errors`]
    /// stays 0) — the status is best-effort membership checking, not a
    /// detection promise.
    fn decode_checked(&mut self, bus: Word) -> (Word, DecodeStatus) {
        assert_eq!(bus.width(), self.wires, "bus width mismatch");
        // The encoder grounds every shield, so a set shield marks
        // corruption as surely as a non-codeword group does.
        let (out, valid) = self.decode_groups::<BODY_STRIDE>(bus);
        let status = if valid {
            DecodeStatus::Clean
        } else {
            DecodeStatus::Detected
        };
        (out, status)
    }

    fn guaranteed_delay_class(&self) -> DelayClass {
        DelayClass::CAC
    }
}

/// The plane form: every group's truth tables on bit planes, plus an OR
/// tree over the inter-group shield lanes for the membership check.
impl Planes for ForbiddenTransitionCode {
    fn encode_planes(&mut self, data: &WordBlock) -> WordBlock {
        let mut out = WordBlock::zero(self.wires, data.len());
        self.encode_planes_into(data, &mut out.lanes);
        out
    }

    fn decode_planes(&mut self, bus: &WordBlock) -> (WordBlock, BlockStatus) {
        let vm = bus.valid_mask();
        let mut out = WordBlock::zero(self.k, bus.len());
        let exact_all = self.decode_planes_into(&bus.lanes, true, vm, &mut out.lanes);
        // Any set inter-group shield wire marks the word corrupted.
        let shields = self
            .groups()
            .take(self.body)
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

#[cfg(test)]
mod tests {
    use super::*;
    use socbus_model::{bus_delay_factor, TransitionVector};

    #[test]
    fn codebook_sizes_are_fibonacci() {
        assert_eq!(ftc_codebook(1).len(), 2);
        assert_eq!(ftc_codebook(2).len(), 3);
        assert_eq!(ftc_codebook(3).len(), 5);
        assert_eq!(ftc_codebook(4).len(), 8);
        assert_eq!(ftc_codebook(5).len(), 13);
        assert_eq!(ftc_codebook(6).len(), 21);
    }

    #[test]
    fn codebook_is_pairwise_ft_compatible() {
        for wires in 2..=5 {
            let book = ftc_codebook(wires);
            for &a in &book {
                for &b in &book {
                    assert!(ft_compatible(a, b), "{a} vs {b} on {wires} wires");
                }
            }
        }
    }

    #[test]
    fn wire_counts_match_paper() {
        assert_eq!(ftc_wires_for_bits(32), 53); // Table III
        assert_eq!(ftc_wires_for_bits(3), 4); // FTC(4,3)
        assert_eq!(ftc_wires_for_bits(4), 6); // FTC part of 4-bit FTC+HC
        assert_eq!(ftc_wires_for_bits(6), 9); // two 3-bit groups + shield
        assert_eq!(ftc_wires_for_bits(7), 11); // 3-bit + 4-bit + shield
        assert_eq!(ftc_wires_for_bits(1), 2);
        assert_eq!(ftc_wires_for_bits(2), 3);
    }

    #[test]
    fn roundtrip_small_and_wide() {
        for k in [1usize, 2, 3, 4, 5, 7, 8] {
            let mut c = ForbiddenTransitionCode::new(k);
            for w in Word::enumerate_all(k) {
                assert_eq!(
                    {
                        let cw = c.encode(w);
                        c.decode(cw)
                    },
                    w,
                    "k={k}"
                );
            }
        }
    }

    #[test]
    fn worst_case_delay_is_cac_class_exhaustive() {
        // Full-bus check including the group-boundary shields.
        let lambda = 3.1;
        let mut c = ForbiddenTransitionCode::new(4);
        let mut worst: f64 = 0.0;
        for b in Word::enumerate_all(4) {
            for a in Word::enumerate_all(4) {
                let tv = TransitionVector::between(c.encode(b), c.encode(a));
                worst = worst.max(bus_delay_factor(&tv, lambda));
            }
        }
        assert!(
            worst <= DelayClass::CAC.factor(lambda) + 1e-12,
            "worst factor {worst}"
        );
    }

    #[test]
    fn ft_compatibility_examples() {
        let w = |b: u128| Word::from_bits(b, 2);
        assert!(!ft_compatible(w(0b01), w(0b10)));
        assert!(ft_compatible(w(0b00), w(0b11)));
        assert!(ft_compatible(w(0b01), w(0b11)));
        assert!(ft_compatible(w(0b01), w(0b00)));
    }

    #[test]
    fn decode_nearest_recovers_single_group_error() {
        // Not guaranteed correction, but the nearest-codeword fallback must
        // return *some* valid data word without panicking.
        let mut c = ForbiddenTransitionCode::new(3);
        let cw = c.encode(Word::from_bits(0b101, 3));
        let corrupted = cw.with_bit(0, !cw.bit(0));
        let _ = c.decode(corrupted);
    }
}

//! Memoized codebook kernels: build every CAC codebook once per
//! process, decode in O(1).
//!
//! The Fibonacci codebooks behind [`crate::ForbiddenPatternCode`] and
//! [`crate::ForbiddenTransitionCode`] are pure functions of their wire
//! count, yet the pre-kernel implementation re-enumerated them for every
//! encoder *and* decoder — twice per Monte-Carlo estimate and once per
//! 65 536-trial shard — and decoded by linear scan with an O(|book|)
//! nearest-codeword fallback on every corrupted word. This module fixes
//! both ends:
//!
//! * **Process-wide caches.** Raw codebook enumeration (`fp`/`ft` per
//!   wire count) and finished [`CodebookKernel`]s (per [`BookKey`]) are
//!   memoized behind `OnceLock<Mutex<HashMap>>`; a build happens at most
//!   once per key for the process lifetime, whatever the shard or thread
//!   count. [`codebook_builds`] exposes the global build counter so
//!   tests can pin the O(schemes)-not-O(shards) property.
//! * **O(1) decode.** Buses of at most [`DENSE_MAX_WIRES`] wires get a
//!   dense inverse table: `table[bus] = nearest codeword index`, built
//!   by a multi-source BFS over the hypercube in O(2ʷ·w). Wider buses
//!   fall back to binary search on the (ascending) codebook for the
//!   exact match plus a distance-1 neighborhood probe, with a linear
//!   scan only for the rare weight ≥ 2 corruption.
//!
//! * **Truth tables.** An FTC group has at most 6 wires, so each of its
//!   three maps — encoder, nearest-codeword decoder, codeword test — is a
//!   function of at most 6 input bits: one `u64` truth table per output
//!   bit. [`TruthTables`] reads them off the kernel once, at build, and
//!   the bit-plane form of the FTC codecs evaluates them 64 words
//!   at a time.
//!
//! Every decode path — dense table, sparse search, truth table, and the
//! reference [`CodebookKernel::decode_index_scan`] — resolves
//! nearest-codeword ties identically: **lowest codebook index wins** (the
//! first minimum a linear scan encounters). The equivalence tests in
//! `crates/codes/tests/decode_equiv.rs` verify this exhaustively.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use socbus_model::Word;

/// Widest bus that gets a dense `2^wires`-entry inverse table (64 Ki
/// entries, 128 KiB). Above this, kernels use sorted-book binary search.
pub const DENSE_MAX_WIRES: usize = 16;

/// Identity of one memoized decode kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BookKey {
    /// Single-group FPC over `k` data bits: the first `2^k` forbidden-
    /// pattern words on [`crate::cac::fpc_wires_for_bits`]`(k)` wires.
    Fpc {
        /// Data bits.
        k: usize,
    },
    /// One FTC sub-bus group: the first `2^bits` forbidden-transition
    /// codewords on `wires` wires.
    FtcGroup {
        /// Data bits carried by the group.
        bits: usize,
        /// Wires of the group (≤ 6; the exact clique search bound).
        wires: usize,
    },
}

/// How a kernel maps a received bus word to a codebook index.
#[derive(Debug, PartialEq, Eq)]
enum DecodeIndex {
    /// `table[bus.bits()]` is the nearest codeword's index
    /// (lowest-index tie-break); exactness is one codeword compare.
    Dense(Vec<u16>),
    /// Binary search on the ascending codebook; nearest fallback probes
    /// the distance-1 neighborhood before scanning.
    Sparse,
}

/// Most wires of an FTC group: the exact clique search's bound, and the
/// input count of a 64-entry truth table.
pub const MAX_GROUP_WIRES: usize = 6;

/// Most data bits of an FTC group: `|FT(6)| = 21` codewords hold 4 bits.
pub const MAX_GROUP_BITS: usize = 4;

/// An FTC group kernel's three maps as truth tables: bit `v` of a table
/// is the map's output for input `v`. Read off the kernel itself — the
/// codebook, the dense nearest-codeword table and its exactness compare
/// — so every table is the scalar rule, lowest-index ties included.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TruthTables {
    /// Encoder, one table per wire over the data index (at most 16
    /// entries): bit `idx` of `encode[w]` is wire `w` of codeword `idx`.
    pub encode: [u64; MAX_GROUP_WIRES],
    /// Decoder, one table per data bit over the received group (at most
    /// 64 entries): bit `raw` of `decode[b]` is bit `b` of the index
    /// [`CodebookKernel::decode_index_raw`] returns for `raw`.
    pub decode: [u64; MAX_GROUP_BITS],
    /// Codeword test: bit `raw` is set when `raw` is a codeword.
    pub codeword: u64,
}

impl TruthTables {
    fn of(kernel: &CodebookKernel) -> TruthTables {
        let mut t = TruthTables {
            encode: [0; MAX_GROUP_WIRES],
            decode: [0; MAX_GROUP_BITS],
            codeword: 0,
        };
        for idx in 0..kernel.book.len() {
            let cw = kernel.codeword_bits(idx);
            for (w, table) in t.encode[..kernel.wires].iter_mut().enumerate() {
                *table |= ((cw >> w) as u64 & 1) << idx;
            }
        }
        let bits = kernel.book.len().trailing_zeros() as usize;
        for raw in 0..1u64 << kernel.wires {
            let (idx, exact) = kernel.decode_index_raw(u128::from(raw));
            for (b, table) in t.decode[..bits].iter_mut().enumerate() {
                *table |= (idx as u64 >> b & 1) << raw;
            }
            t.codeword |= u64::from(exact) << raw;
        }
        t
    }
}

/// A codebook plus its precomputed inverse: the shared, immutable part
/// of an FPC codec or FTC sub-bus group. Obtained via [`codebook_kernel`]
/// and held by `Arc`, so any number of encoder/decoder instances share
/// one build.
#[derive(Debug, PartialEq, Eq)]
pub struct CodebookKernel {
    wires: usize,
    /// Data-index order; ascending by construction (the enumerations
    /// yield ascending words and truncation preserves order), which the
    /// sparse path's binary search relies on.
    book: Vec<Word>,
    /// `book` as raw bit patterns (kernels never exceed 24 wires), so the
    /// raw hot path skips `Word` construction entirely.
    book_bits: Vec<u128>,
    index: DecodeIndex,
    /// The group's truth tables: FTC group kernels only (an FPC kernel
    /// spans all its data bits, up to 23 wires, past a `u64` table).
    tables: Option<TruthTables>,
}

impl CodebookKernel {
    fn build(key: BookKey) -> CodebookKernel {
        let (wires, book) = match key {
            BookKey::Fpc { k } => {
                assert!((1..=16).contains(&k), "FPC kernels support 1..=16 bits");
                let wires = crate::cac::fpc_wires_for_bits(k);
                let book: Vec<Word> = fp_book(wires).iter().copied().take(1 << k).collect();
                (wires, book)
            }
            BookKey::FtcGroup { bits, wires } => {
                assert!(
                    (1..=6).contains(&wires),
                    "FTC group kernels support 1..=6 wires"
                );
                let book: Vec<Word> = ft_book(wires).iter().copied().take(1 << bits).collect();
                assert!(book.len() == 1 << bits, "codebook too small for group");
                (wires, book)
            }
        };
        debug_assert!(book.windows(2).all(|w| w[0] < w[1]), "book must ascend");
        let index = if wires <= DENSE_MAX_WIRES {
            DecodeIndex::Dense(dense_table(&book, wires))
        } else {
            DecodeIndex::Sparse
        };
        let book_bits = book.iter().map(|w| w.bits()).collect();
        let mut kernel = CodebookKernel {
            wires,
            book,
            book_bits,
            index,
            tables: None,
        };
        if let BookKey::FtcGroup { .. } = key {
            kernel.tables = Some(TruthTables::of(&kernel));
        }
        kernel
    }

    /// The truth tables of an FTC group kernel; `None` for FPC.
    #[must_use]
    pub fn tables(&self) -> Option<&TruthTables> {
        self.tables.as_ref()
    }

    /// The codebook in data-index order.
    #[must_use]
    pub fn book(&self) -> &[Word] {
        &self.book
    }

    /// Bus wires the kernel decodes.
    #[must_use]
    pub fn wires(&self) -> usize {
        self.wires
    }

    /// Decodes `bus` to `(codebook index, exact)`: the index of the
    /// exact-matching codeword, or — when `bus` is not a codeword
    /// (`exact == false`) — of the nearest codeword by Hamming
    /// distance, lowest index on ties.
    #[must_use]
    pub fn decode_index(&self, bus: Word) -> (usize, bool) {
        debug_assert_eq!(bus.width(), self.wires, "bus width mismatch");
        match &self.index {
            DecodeIndex::Dense(table) => {
                #[allow(clippy::cast_possible_truncation)]
                let idx = table[bus.bits() as usize] as usize;
                (idx, self.book[idx] == bus)
            }
            DecodeIndex::Sparse => {
                if let Ok(idx) = self.book.binary_search(&bus) {
                    return (idx, true);
                }
                // Distance-1 probe: nearly all corrupted words in the
                // noise regimes we simulate are one flip away from a
                // codeword. Collect every distance-1 hit and keep the
                // lowest index (== lowest value: the book ascends).
                let mut best: Option<usize> = None;
                for w in 0..self.wires {
                    let cand = bus.with_bit(w, !bus.bit(w));
                    if let Ok(idx) = self.book.binary_search(&cand) {
                        best = Some(best.map_or(idx, |b| b.min(idx)));
                    }
                }
                if let Some(idx) = best {
                    return (idx, false);
                }
                // Weight ≥ 2 from every codeword: rare; full scan.
                self.decode_index_scan(bus)
            }
        }
    }

    /// [`CodebookKernel::decode_index`] on the raw bit pattern of a
    /// received slice — the allocation-free hot path FTC's per-group
    /// decode uses (one table load + one integer compare on the dense
    /// path, no `Word` round-trip).
    #[must_use]
    #[inline]
    pub fn decode_index_raw(&self, raw: u128) -> (usize, bool) {
        match &self.index {
            DecodeIndex::Dense(table) => {
                #[allow(clippy::cast_possible_truncation)]
                let idx = table[raw as usize] as usize;
                (idx, self.book_bits[idx] == raw)
            }
            DecodeIndex::Sparse => self.decode_index(Word::from_bits(raw, self.wires)),
        }
    }

    /// Codeword `idx` as its raw bit pattern (the encode-side hot path).
    #[must_use]
    #[inline]
    pub fn codeword_bits(&self, idx: usize) -> u128 {
        self.book_bits[idx]
    }

    /// The reference decoder the kernels replace: linear scan for the
    /// exact match, then a first-minimum (= lowest-index) nearest-
    /// codeword scan. Kept callable so the equivalence tests and the
    /// `bench --bin codec` baseline can compare against it.
    #[must_use]
    pub fn decode_index_scan(&self, bus: Word) -> (usize, bool) {
        debug_assert_eq!(bus.width(), self.wires, "bus width mismatch");
        if let Some(idx) = self.book.iter().position(|&cw| cw == bus) {
            return (idx, true);
        }
        let idx = self
            .book
            .iter()
            .enumerate()
            .min_by_key(|(_, &cw)| cw.hamming_distance(bus))
            .map(|(i, _)| i)
            .expect("non-empty codebook");
        (idx, false)
    }
}

/// Builds the dense inverse table by multi-source BFS over the `wires`-
/// dimensional hypercube: every bus value gets the index of its nearest
/// codeword with the lowest-index tie-break, in O(2ʷ·w) instead of the
/// naive O(2ʷ·|book|) distance matrix.
///
/// Layered relaxation keeps the tie-break exact: nodes settled at
/// distance `d` propagate `min(index)` into the distance-`d+1` layer, and
/// for any bus word `v` at distance `d+1` the true minimal index is
/// reachable through a distance-`d` neighbor (flip one differing bit of
/// the witness codeword), so the per-layer minimum equals the global
/// lexicographic `(distance, index)` minimum a linear scan would pick.
fn dense_table(book: &[Word], wires: usize) -> Vec<u16> {
    assert!(wires <= DENSE_MAX_WIRES, "dense table too wide");
    assert!(
        book.len() <= u16::MAX as usize + 1,
        "book exceeds u16 index"
    );
    let size = 1usize << wires;
    let mut dist = vec![u8::MAX; size];
    let mut table = vec![0u16; size];
    let mut frontier: Vec<usize> = Vec::with_capacity(book.len());
    for (i, cw) in book.iter().enumerate() {
        #[allow(clippy::cast_possible_truncation)]
        let v = cw.bits() as usize;
        dist[v] = 0;
        #[allow(clippy::cast_possible_truncation)]
        {
            table[v] = i as u16;
        }
        frontier.push(v);
    }
    let mut d = 0u8;
    while !frontier.is_empty() {
        let mut next: Vec<usize> = Vec::new();
        for &u in &frontier {
            for b in 0..wires {
                let v = u ^ (1 << b);
                if dist[v] == u8::MAX {
                    dist[v] = d + 1;
                    table[v] = table[u];
                    next.push(v);
                } else if dist[v] == d + 1 && table[u] < table[v] {
                    table[v] = table[u];
                }
            }
        }
        frontier = next;
        d += 1;
    }
    table
}

/// Raw (un-truncated, un-indexed) codebook caches, keyed by wire count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum RawKey {
    Fp(usize),
    Ft(usize),
}

static RAW_BOOKS: OnceLock<Mutex<HashMap<RawKey, Arc<Vec<Word>>>>> = OnceLock::new();
static KERNELS: OnceLock<Mutex<HashMap<BookKey, Arc<CodebookKernel>>>> = OnceLock::new();
static BUILDS: AtomicU64 = AtomicU64::new(0);

fn raw_book(key: RawKey, build: impl FnOnce() -> Vec<Word>) -> Arc<Vec<Word>> {
    let cache = RAW_BOOKS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("codebook cache poisoned");
    map.entry(key)
        .or_insert_with(|| {
            BUILDS.fetch_add(1, Ordering::Relaxed);
            Arc::new(build())
        })
        .clone()
}

/// The memoized full FP codebook on `wires` wires (ascending). Shared
/// backing store of [`crate::cac::fpc_codebook`] and the FPC kernels:
/// the enumeration runs at most once per wire count per process.
///
/// The width guard runs *before* the cache lock so an invalid request
/// panics without poisoning the process-wide cache.
pub(crate) fn fp_book(wires: usize) -> Arc<Vec<Word>> {
    assert!(
        (1..=24).contains(&wires),
        "fpc_codebook supports 1..=24 wires"
    );
    raw_book(RawKey::Fp(wires), || crate::cac::enumerate_fp_book(wires))
}

/// The memoized maximum FT codebook on `wires` wires (ascending). The
/// exact clique search runs at most once per wire count per process.
///
/// The width guard runs *before* the cache lock so an invalid request
/// panics without poisoning the process-wide cache.
pub(crate) fn ft_book(wires: usize) -> Arc<Vec<Word>> {
    assert!(
        (1..=6).contains(&wires),
        "ftc_codebook supports 1..=6 wires"
    );
    raw_book(RawKey::Ft(wires), || crate::cac::search_ft_book(wires))
}

/// The process-wide kernel for `key`: built on first request (the build
/// is counted by [`codebook_builds`]), shared by reference afterwards.
/// Any number of codec instances — encoder and decoder of every shard of
/// every sweep — hold the same `Arc`.
#[must_use]
pub fn codebook_kernel(key: BookKey) -> Arc<CodebookKernel> {
    // Validate before locking: a panic inside the build closure would
    // poison the process-wide cache for every later caller.
    match key {
        BookKey::Fpc { k } => {
            assert!((1..=16).contains(&k), "FPC kernels support 1..=16 bits");
        }
        BookKey::FtcGroup { bits, wires } => {
            assert!(
                (1..=6).contains(&wires),
                "FTC group kernels support 1..=6 wires"
            );
            assert!(bits >= 1, "FTC group needs at least one bit");
            // |FT(n)| = F(n+2): reject an over-packed group before the
            // build (the same check the clique search would fail).
            const FT_BOOK_LEN: [usize; 7] = [0, 2, 3, 5, 8, 13, 21];
            assert!(
                1usize << bits <= FT_BOOK_LEN[wires],
                "codebook too small for group"
            );
        }
    }
    let cache = KERNELS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("kernel cache poisoned");
    map.entry(key)
        .or_insert_with(|| {
            BUILDS.fetch_add(1, Ordering::Relaxed);
            Arc::new(CodebookKernel::build(key))
        })
        .clone()
}

/// Total expensive constructions (raw codebook enumerations plus kernel
/// index builds) performed by this process. Because both caches build
/// at most once per key, this number is bounded by the count of
/// *distinct* keys ever requested — never by shard, trial, or codec
/// instance counts. The Monte-Carlo cache test and `bench --bin codec`
/// report it.
#[must_use]
pub fn codebook_builds() -> u64 {
    BUILDS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_are_shared_not_rebuilt() {
        let a = codebook_kernel(BookKey::FtcGroup { bits: 3, wires: 4 });
        let builds = codebook_builds();
        let b = codebook_kernel(BookKey::FtcGroup { bits: 3, wires: 4 });
        assert!(Arc::ptr_eq(&a, &b), "same key must share one kernel");
        assert_eq!(
            codebook_builds(),
            builds,
            "a cache hit must not build anything"
        );
    }

    #[test]
    fn dense_table_matches_scan_exhaustively() {
        for key in [
            BookKey::Fpc { k: 4 },
            BookKey::FtcGroup { bits: 1, wires: 2 },
            BookKey::FtcGroup { bits: 3, wires: 4 },
            BookKey::FtcGroup { bits: 2, wires: 3 },
            BookKey::FtcGroup { bits: 4, wires: 6 },
        ] {
            let kernel = codebook_kernel(key);
            let tables = kernel.tables();
            assert_eq!(tables.is_some(), matches!(key, BookKey::FtcGroup { .. }));
            for bus in Word::enumerate_all(kernel.wires()) {
                let (idx, exact) = kernel.decode_index(bus);
                assert_eq!(
                    (idx, exact),
                    kernel.decode_index_scan(bus),
                    "{key:?} disagrees on {bus}"
                );
                // The truth tables are the same decoder, bit by bit.
                if let Some(t) = tables {
                    let raw = bus.bits() as u64;
                    let decoded =
                        (0..MAX_GROUP_BITS).fold(0, |acc, b| acc | (t.decode[b] >> raw & 1) << b);
                    assert_eq!(decoded as usize, idx, "{key:?} table decode of {bus}");
                    assert_eq!(t.codeword >> raw & 1 == 1, exact, "{key:?} codeword test");
                }
            }
            if let Some(t) = tables {
                for (idx, &cw) in kernel.book().iter().enumerate() {
                    let encoded =
                        (0..MAX_GROUP_WIRES).fold(0, |acc, w| acc | (t.encode[w] >> idx & 1) << w);
                    assert_eq!(
                        u128::from(encoded),
                        cw.bits(),
                        "{key:?} table encode of {idx}"
                    );
                }
            }
        }
    }

    #[test]
    fn sparse_path_matches_scan_on_probes() {
        // FPC over 16 bits lives on 23 wires: the sparse path. Exact
        // codewords, single flips, and heavier corruption must all agree
        // with the scan reference.
        let kernel = codebook_kernel(BookKey::Fpc { k: 16 });
        assert!(kernel.wires() > DENSE_MAX_WIRES);
        for (i, &cw) in kernel.book().iter().enumerate().step_by(997) {
            assert_eq!(kernel.decode_index(cw), (i, true));
            for w in [0, kernel.wires() / 2, kernel.wires() - 1] {
                let flipped = cw.with_bit(w, !cw.bit(w));
                assert_eq!(
                    kernel.decode_index(flipped),
                    kernel.decode_index_scan(flipped),
                    "codeword {i} flip {w}"
                );
            }
            let double = cw.with_bit(1, !cw.bit(1)).with_bit(4, !cw.bit(4));
            assert_eq!(
                kernel.decode_index(double),
                kernel.decode_index_scan(double),
                "codeword {i} double flip"
            );
        }
    }

    #[test]
    #[should_panic(expected = "FTC group kernels support 1..=6 wires")]
    fn oversized_ftc_group_is_rejected() {
        let _ = CodebookKernel::build(BookKey::FtcGroup { bits: 5, wires: 7 });
    }
}

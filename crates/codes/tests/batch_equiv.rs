//! Batch-vs-scalar equivalence: the contract that lets the Monte-Carlo
//! hot loops run on the bit-sliced [`socbus_codes::batch`] codecs while
//! reproducing the scalar estimates byte for byte.
//!
//! For every catalog scheme, feeding a block of words through the batch
//! codec must equal feeding the same words one at a time (in block
//! order) through the scalar codec from the same starting state — for
//! `encode`, `decode`, and `decode_checked` (data *and* per-word
//! status), across full and partial blocks, corrupted and clean, and
//! across consecutive blocks (stateful codecs carry state over block
//! boundaries). Exhaustive over all received bus words for the small
//! widths, proptest over random widths, data, and noise for the rest;
//! transpose ∘ untranspose = id is pinned separately.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socbus_codes::{
    batch_build, batch_is_native, BusCode, DecodeStatus, Scheme, WordBlock, BLOCK_WORDS,
};
use socbus_model::Word;

/// A deterministic pseudo-random word of the given width (full 256-bit
/// range, not just the `u128` span).
fn random_word(rng: &mut StdRng, width: usize) -> Word {
    let mut w = Word::zero(width);
    for i in 0..width {
        w.set_bit(i, rng.gen::<f64>() < 0.5);
    }
    w
}

/// Runs `blocks` through fresh batch and scalar codec pairs and asserts
/// encode, decode, and decode_checked agree word for word, including on
/// versions of the coded blocks corrupted with flip probability `noise`.
fn assert_blocks_equiv(scheme: Scheme, k: usize, blocks: &[Vec<Word>], noise: f64, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    // Independent codec instances per operation, mirroring how the
    // Monte-Carlo loop keeps encoder and decoder state separate.
    let mut b_enc = batch_build(scheme, k);
    let mut s_enc = scheme.build(k);
    let mut b_dec = batch_build(scheme, k);
    let mut s_dec = scheme.build(k);
    let mut b_chk = batch_build(scheme, k);
    let mut s_chk = scheme.build(k);
    assert_eq!(b_enc.name(), s_enc.name());
    assert_eq!(b_enc.data_bits(), s_enc.data_bits());
    assert_eq!(b_enc.wires(), s_enc.wires());
    for words in blocks {
        let data = WordBlock::from_words(words);
        let coded = b_enc.encode(&data);
        let scalar_coded: Vec<Word> = words.iter().map(|&w| s_enc.encode(w)).collect();
        assert_eq!(
            coded.to_words(),
            scalar_coded,
            "{} k={k} encode diverged",
            scheme.name()
        );
        // Corrupt the scalar codewords, then re-transpose: both paths
        // decode the identical received sequence.
        let received: Vec<Word> = scalar_coded
            .iter()
            .map(|&w| {
                let mut r = w;
                for i in 0..r.width() {
                    if rng.gen::<f64>() < noise {
                        r.set_bit(i, !r.bit(i));
                    }
                }
                r
            })
            .collect();
        let received_block = WordBlock::from_words(&received);
        let out = b_dec.decode(&received_block);
        let scalar_out: Vec<Word> = received.iter().map(|&w| s_dec.decode(w)).collect();
        assert_eq!(
            out.to_words(),
            scalar_out,
            "{} k={k} decode diverged",
            scheme.name()
        );
        let (chk, status) = b_chk.decode_checked(&received_block);
        let chk_words = chk.to_words();
        for (j, &w) in received.iter().enumerate() {
            let (s_data, s_status) = s_chk.decode_checked(w);
            assert_eq!(
                chk_words[j],
                s_data,
                "{} k={k} decode_checked data diverged at word {j}",
                scheme.name()
            );
            assert_eq!(
                status.status(j),
                s_status,
                "{} k={k} decode_checked status diverged at word {j}",
                scheme.name()
            );
        }
    }
}

/// Block shapes covering the remainder cases: full, single-word, odd
/// partial, and a follow-up block so stateful codecs cross a boundary.
fn block_shapes(rng: &mut StdRng, k: usize) -> Vec<Vec<Word>> {
    [BLOCK_WORDS, 1, 7, 33, BLOCK_WORDS]
        .iter()
        .map(|&len| (0..len).map(|_| random_word(rng, k)).collect())
        .collect()
}

/// Every catalog scheme at the paper's 8-bit bus width, clean and noisy.
#[test]
fn catalog_batch_equals_scalar_at_k8() {
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    for scheme in Scheme::catalog() {
        let blocks = block_shapes(&mut rng, 8);
        assert_blocks_equiv(scheme, 8, &blocks, 0.0, 1);
        assert_blocks_equiv(scheme, 8, &blocks, 0.08, 2);
    }
}

/// The bit-sliced kernels across widths, including
/// limb-crossing and >128-wire buses where `Word::bits()` would refuse.
#[test]
fn native_schemes_batch_equals_scalar_across_widths() {
    let mut rng = StdRng::seed_from_u64(0xBA7D);
    let cases: Vec<(Scheme, Vec<usize>)> = vec![
        (Scheme::Parity, vec![1, 2, 13, 64, 65, 127]),
        (Scheme::Hamming, vec![1, 4, 11, 32, 57]),
        (Scheme::ExtHamming, vec![1, 4, 26, 57]),
        (Scheme::Dap, vec![1, 2, 31, 63, 64]), // DAP(64): 129 wires
        (Scheme::Shielding, vec![1, 2, 64, 128]),
        (Scheme::Duplication, vec![1, 3, 64, 128]),
        (Scheme::Uncoded, vec![1, 64, 129, 256]),
        (Scheme::BusInvert(1), vec![1, 8, 32, 64]),
        (Scheme::BusInvert(4), vec![4, 9, 32]),
        (Scheme::Ftc, vec![1, 2, 3, 4, 7, 12, 16]),
        (Scheme::HammingX, vec![1, 4, 16, 32, 57]),
        (Scheme::Bih, vec![1, 4, 16, 32, 56]),
        (Scheme::FtcHc, vec![1, 3, 4, 16, 32]),
        // BSC/DAPX/DAPBI at 63 and 64 bits: 127-131 wires.
        (Scheme::Bsc, vec![1, 2, 31, 63, 64]),
        (Scheme::Dapx, vec![1, 2, 31, 63, 64]),
        (Scheme::Dapbi, vec![1, 2, 31, 63, 64]),
        (Scheme::BchDec, vec![1, 4, 7, 16, 32, 64, 120]),
        (Scheme::Sabotaged, vec![1, 4, 32]),
    ];
    for (scheme, widths) in cases {
        for k in widths {
            assert!(batch_is_native(scheme), "{}", scheme.name());
            let blocks = block_shapes(&mut rng, k);
            assert_blocks_equiv(scheme, k, &blocks, 0.1, k as u64);
        }
    }
}

/// Exhaustive over every possible received bus word for the small-width
/// checked decoders: batch `decode_checked` must match scalar on all
/// `2^wires` inputs, not just random ones. Each input is decoded in both
/// word phases (the second pass starts one word later), which covers
/// both of BSC's parity placements.
#[test]
fn checked_decode_is_exhaustively_equivalent_at_small_widths() {
    for (scheme, k) in [
        (Scheme::Parity, 3),
        (Scheme::Hamming, 4),
        (Scheme::ExtHamming, 4),
        (Scheme::Dap, 3),
        (Scheme::Shielding, 4),
        (Scheme::Duplication, 4),
        (Scheme::Ftc, 1),
        (Scheme::Ftc, 2),
        (Scheme::Ftc, 3),
        (Scheme::Ftc, 4),
        (Scheme::Ftc, 5),
        (Scheme::HammingX, 4),
        (Scheme::Bih, 4),
        (Scheme::Bsc, 3),
        (Scheme::Dapx, 3),
        (Scheme::Dapbi, 3),
        (Scheme::FtcHc, 3),
        (Scheme::FtcHc, 4),
        (Scheme::BchDec, 4),
    ] {
        for offset in [0, 1] {
            let mut scalar = scheme.build(k);
            let mut batch = batch_build(scheme, k);
            let mut all: Vec<Word> = Word::enumerate_all(scalar.wires()).collect();
            all.splice(
                0..0,
                std::iter::repeat_n(Word::zero(scalar.wires()), offset),
            );
            for chunk in all.chunks(BLOCK_WORDS) {
                let block = WordBlock::from_words(chunk);
                let (out, status) = batch.decode_checked(&block);
                let out_words = out.to_words();
                for (j, &bus) in chunk.iter().enumerate() {
                    let (s_data, s_status) = scalar.decode_checked(bus);
                    assert_eq!(out_words[j], s_data, "{} k={k} bus={bus}", scheme.name());
                    assert_eq!(
                        status.status(j),
                        s_status,
                        "{} k={k} bus={bus}",
                        scheme.name()
                    );
                }
            }
        }
    }
}

/// The BCH words the planes cannot decode go through the scalar codec:
/// a double error, `S1 = 0` with `S3 != 0`, and a single-error syndrome
/// `(αᵖ, α³ᵖ)` at a shortened position `p >= n`. Each named case is
/// found by search over the 12-wire BCH(4) bus, checked to hit its
/// scalar branch, and decoded in a block next to clean words.
#[test]
fn bch_residual_branches_match_scalar() {
    let k = 4;
    let mut scalar = Scheme::BchDec.build(k);
    let code = socbus_codes::BchDec::new(k);
    let field = code.field();
    let (n, r) = (code.wires(), code.parity_bits());
    let order = field.order();
    // Wire w sits at polynomial position r + w (data) or w - k (parity).
    let syndromes = |e: &[usize]| {
        e.iter().fold((0u16, 0u16), |(s1, s3), &w| {
            let p = if w < k { r + w } else { w - k };
            (s1 ^ field.alpha_pow(p), s3 ^ field.alpha_pow(3 * p))
        })
    };
    let data = Word::from_bits(0b1011, k);
    let cw = scalar.encode(data);
    let flipped = |e: &[usize]| e.iter().fold(cw, |w, &i| w.with_bit(i, !w.bit(i)));
    let mut patterns: Vec<Vec<usize>> = Vec::new();
    for a in 0..n {
        for b in a + 1..n {
            patterns.push(vec![a, b]);
            for c in b + 1..n {
                patterns.push(vec![a, b, c]);
                for d in c + 1..n {
                    patterns.push(vec![a, b, c, d]);
                }
            }
        }
    }
    let double = vec![2, 9];
    let s1_zero = patterns
        .iter()
        .find(|e| {
            let (s1, s3) = syndromes(e);
            s1 == 0 && s3 != 0
        })
        .expect("an S1 = 0, S3 != 0 pattern")
        .clone();
    let shortened = patterns
        .iter()
        .find(|e| {
            let (s1, s3) = syndromes(e);
            (n..order).any(|p| s1 == field.alpha_pow(p) && s3 == field.alpha_pow(3 * p))
        })
        .expect("a single-error syndrome at a shortened position")
        .clone();
    let cases = [
        (double, DecodeStatus::Corrected),
        (s1_zero, DecodeStatus::Detected),
        (shortened, DecodeStatus::Detected),
    ];
    for (e, expect) in &cases {
        assert_eq!(
            scalar.decode_checked(flipped(e)).1,
            *expect,
            "pattern {e:?}"
        );
    }
    // Clean, single-error and residual words interleaved in one block.
    let mut words = vec![cw, cw.with_bit(0, !cw.bit(0))];
    words.extend(cases.iter().map(|(e, _)| flipped(e)));
    words.push(cw);
    let mut batch = batch_build(Scheme::BchDec, k);
    let (out, status) = batch.decode_checked(&WordBlock::from_words(&words));
    for (j, &w) in words.iter().enumerate() {
        let (s_data, s_status) = scalar.decode_checked(w);
        assert_eq!(out.word(j), s_data, "word {j}");
        assert_eq!(status.status(j), s_status, "word {j}");
    }
}

/// Stateful codecs must agree on the *state trajectory* too: across odd
/// partial blocks (which flip BSC's starting phase from block to block),
/// and after a reset, which must restore both to the zero state.
#[test]
fn stateful_reset_matches_scalar() {
    let mut rng = StdRng::seed_from_u64(0xBA7E);
    for scheme in [
        Scheme::BusInvert(2),
        Scheme::Bih,
        Scheme::Bsc,
        Scheme::Dapbi,
    ] {
        let k = 8;
        let mut batch = batch_build(scheme, k);
        let mut scalar = scheme.build(k);
        let mut batch_dec = batch_build(scheme, k);
        let mut scalar_dec = scheme.build(k);
        for len in [17, 3, 33, 1, 64] {
            let words: Vec<Word> = (0..len).map(|_| random_word(&mut rng, k)).collect();
            let b = batch.encode(&WordBlock::from_words(&words));
            let s: Vec<Word> = words.iter().map(|&w| scalar.encode(w)).collect();
            assert_eq!(b.to_words(), s, "{} block of {len}", scheme.name());
            let d = batch_dec.decode(&b);
            let sd: Vec<Word> = s.iter().map(|&w| scalar_dec.decode(w)).collect();
            assert_eq!(d.to_words(), sd, "{} decode block of {len}", scheme.name());
            assert_eq!(sd, words, "{} roundtrip", scheme.name());
        }
        batch.reset();
        scalar.reset();
        let probe: Vec<Word> = (0..5).map(|_| random_word(&mut rng, k)).collect();
        let b = batch.encode(&WordBlock::from_words(&probe));
        let s: Vec<Word> = probe.iter().map(|&w| scalar.encode(w)).collect();
        assert_eq!(b.to_words(), s, "{} post-reset", scheme.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// transpose ∘ untranspose = id over random widths and lengths,
    /// including the degenerate and limb-boundary shapes.
    #[test]
    fn transpose_untranspose_roundtrips(
        width in 0usize..=256,
        len in 0usize..=BLOCK_WORDS,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let words: Vec<Word> = (0..len).map(|_| random_word(&mut rng, width)).collect();
        let block = WordBlock::from_words(&words);
        prop_assert_eq!(block.len(), len);
        prop_assert_eq!(block.to_words(), words);
        // The masking invariant: no lane carries bits past `len`.
        for i in 0..block.width() {
            prop_assert_eq!(block.lane(i) & !block.valid_mask(), 0);
        }
    }

    /// Random scheme, width, data, and noise: the batch path is the
    /// scalar path.
    #[test]
    fn random_blocks_batch_equals_scalar(
        scheme_idx in 0usize..17,
        k in 1usize..=16,
        noise in 0.0f64..0.3,
        seed in any::<u64>(),
    ) {
        let catalog = Scheme::catalog();
        let scheme = catalog[scheme_idx % catalog.len()];
        // BI(i) needs i <= k; clamp via the smallest valid width.
        let k = if let Scheme::BusInvert(i) = scheme { k.max(i) } else { k };
        let mut rng = StdRng::seed_from_u64(seed);
        let len = 1 + (seed as usize % BLOCK_WORDS);
        let blocks: Vec<Vec<Word>> = (0..2)
            .map(|_| (0..len).map(|_| random_word(&mut rng, k)).collect())
            .collect();
        assert_blocks_equiv(scheme, k, &blocks, noise, seed);
    }
}

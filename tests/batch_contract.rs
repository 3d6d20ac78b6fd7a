//! Tier-1 contract for the bit-sliced batch codecs: every batch kernel is
//! its scalar codec, word for word.
//!
//! The Monte-Carlo and rare-event engines run on `socbus_codes::batch`
//! blocks and promise the scalar estimates byte for byte. That promise
//! rests on each kernel matching the scalar codec on `encode`, `decode`
//! and `decode_checked` (data and per-word status), with stateful codecs
//! carrying their state across block boundaries. The exhaustive suite in
//! `crates/codes/tests/batch_equiv.rs` goes deeper; this file keeps a
//! fast slice of it in the root package so a broken kernel fails
//! `cargo test`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socbus::channel::montecarlo::{word_error_rate, word_error_rate_scalar};
use socbus::codes::{batch_build, BatchCode, BusCode, Scheme, WordBlock};
use socbus::model::Word;

/// Every catalog scheme plus the planted-fault `Sabotaged`, buildable at
/// `k` data bits.
fn schemes(k: usize) -> Vec<Scheme> {
    let mut all = Scheme::catalog();
    all.push(Scheme::Sabotaged);
    all.retain(|s| !matches!(s, Scheme::BusInvert(i) if *i > k));
    all
}

fn random_word(rng: &mut StdRng, width: usize) -> Word {
    let mut w = Word::zero(width);
    for i in 0..width {
        w.set_bit(i, rng.gen::<bool>());
    }
    w
}

/// One scheme's encoder, decoder and checked decoder, as batch and as
/// scalar codecs, each keeping its own state.
struct Codecs {
    batch: [Box<dyn BatchCode>; 3],
    scalar: [Box<dyn BusCode>; 3],
}

impl Codecs {
    fn new(scheme: Scheme, k: usize) -> Self {
        Codecs {
            batch: std::array::from_fn(|_| batch_build(scheme, k)),
            scalar: std::array::from_fn(|_| scheme.build(k)),
        }
    }

    /// Encodes, corrupts (flip probability `noise` per wire) and decodes
    /// `words` as one block on the batch codecs and word by word on the
    /// scalar codecs, asserting the two agree everywhere.
    fn check(&mut self, words: &[Word], noise: f64, rng: &mut StdRng) {
        let name = self.scalar[0].name();
        let [b_enc, b_dec, b_chk] = &mut self.batch;
        let [s_enc, s_dec, s_chk] = &mut self.scalar;
        let coded = b_enc.encode(&WordBlock::from_words(words));
        let sent: Vec<Word> = words.iter().map(|&w| s_enc.encode(w)).collect();
        assert_eq!(coded.to_words(), sent, "{name}: encode");
        let received: Vec<Word> = sent
            .iter()
            .map(|&w| {
                (0..w.width()).fold(w, |acc, i| {
                    if rng.gen::<f64>() < noise {
                        acc.with_bit(i, !acc.bit(i))
                    } else {
                        acc
                    }
                })
            })
            .collect();
        let block = WordBlock::from_words(&received);
        let out = b_dec.decode(&block).to_words();
        let (chk, status) = b_chk.decode_checked(&block);
        let chk = chk.to_words();
        for (j, &w) in received.iter().enumerate() {
            assert_eq!(out[j], s_dec.decode(w), "{name}: decode word {j}");
            let (data, s) = s_chk.decode_checked(w);
            assert_eq!(chk[j], data, "{name}: decode_checked word {j}");
            assert_eq!(status.status(j), s, "{name}: status of word {j}");
        }
    }
}

/// Full, 1-word and 33-word blocks, then a full block again, on the same
/// codec instances: the state crosses three block boundaries, one of
/// them after an odd-length block.
#[test]
fn every_batch_kernel_equals_its_scalar_codec() {
    let mut rng = StdRng::seed_from_u64(0xC0_47AC7);
    // k = 1 brings FTC's (1, 2) group, k = 5 its (3, 4) + (2, 3) pair,
    // k = 17 uneven BI(8) sub-buses.
    for k in [1, 4, 5, 16, 17, 32] {
        for scheme in schemes(k) {
            for noise in [0.0, 0.05] {
                let mut codecs = Codecs::new(scheme, k);
                for len in [64, 1, 33, 64] {
                    let words: Vec<Word> = (0..len).map(|_| random_word(&mut rng, k)).collect();
                    codecs.check(&words, noise, &mut rng);
                }
            }
        }
    }
}

/// The schemes whose bus at 129 data bits needs more than `MAX_WIDTH`
/// (256) wires: they panic at construction, batch and scalar alike.
const TOO_WIDE_AT_129: [Scheme; 6] = [
    Scheme::Shielding,
    Scheme::Duplication,
    Scheme::Dap,
    Scheme::Dapx,
    Scheme::Dapbi,
    Scheme::Bsc,
];

/// The batch Monte-Carlo engine reproduces the scalar one exactly. At
/// k = 8 over a trial count that ends one word into a block; elsewhere
/// over two full blocks and a partial one, at an ε that makes failures
/// common. The data widths take the block-native data draw through
/// every tile round count (tiles of 1, 2, 4, 8, 16, 32 and 64 columns
/// after rounding up to a power of two) and into the second limb.
#[test]
fn batch_monte_carlo_equals_scalar() {
    for (k, eps, trials) in [
        (1, 0.05, 133),
        (2, 0.05, 133),
        (3, 0.05, 133),
        (8, 1e-2, 4_097),
        (16, 0.05, 133),
        (17, 0.05, 133),
        (33, 0.05, 133),
        (64, 0.05, 133),
        (65, 0.05, 133),
        (129, 0.05, 133),
    ] {
        let mut schemes = schemes(k);
        if k == 129 {
            schemes.retain(|s| !TOO_WIDE_AT_129.contains(s));
        }
        for scheme in schemes {
            let batch = word_error_rate(scheme, k, eps, trials, 0xB10C);
            let scalar = word_error_rate_scalar(scheme, k, eps, trials, 0xB10C);
            assert_eq!(batch, scalar, "{} at k = {k}", scheme.name());
            // From k = 16 on every estimate sees failures, so those cells
            // never compare two zeros (a few at k <= 3 do).
            assert!(k < 16 || batch.failures > 0, "{} at k = {k}", scheme.name());
        }
    }
}

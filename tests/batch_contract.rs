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
//! `cargo test`. Each scheme's codec is one type with one state, so the
//! contract also holds for one instance driven in both forms at once.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socbus::channel::montecarlo::{word_error_rate, word_error_rate_scalar};
use socbus::codes::{batch_build, BatchCode, BlockStatus, BusCode, Codec, Scheme, WordBlock};
use socbus::model::Word;

/// Every catalog scheme plus the planted-fault `Sabotaged`.
fn all_schemes() -> Vec<Scheme> {
    let mut all = Scheme::catalog();
    all.push(Scheme::Sabotaged);
    all
}

/// The schemes of [`all_schemes`] that build at `k` data bits, by
/// [`Scheme::check`], the one statement of each scheme's width limits.
fn schemes(k: usize) -> Vec<Scheme> {
    let mut all = all_schemes();
    all.retain(|s| s.check(k).is_ok());
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

/// A seeded schedule over `n` words: `None` is one word call, `Some(len)`
/// one block call of 0 to 64 words (so blocks are often partial, and
/// their edges fall at every BSC phase and after both invert states).
fn schedule(rng: &mut StdRng, n: usize) -> Vec<Option<usize>> {
    let mut steps = Vec::new();
    let mut at = 0;
    while at < n {
        let step = rng
            .gen::<bool>()
            .then(|| rng.gen_range(0..=64usize).min(n - at));
        at += step.unwrap_or(1);
        steps.push(step);
    }
    steps
}

/// `words` (all `width` wide) as one block; an empty block keeps the
/// width.
fn block_of(words: &[Word], width: usize) -> WordBlock {
    if words.is_empty() {
        WordBlock::zero(width, 0)
    } else {
        WordBlock::from_words(words)
    }
}

/// Drives `codec` over `inputs` (each `width` wide) with a seeded mix of
/// word and block calls of `word` and `block`, returning every output in
/// input order.
fn drive<T>(
    codec: &mut dyn Codec,
    inputs: &[Word],
    width: usize,
    rng: &mut StdRng,
    word: impl Fn(&mut dyn Codec, Word) -> T,
    block: impl Fn(&mut dyn Codec, &WordBlock) -> Vec<T>,
) -> Vec<T> {
    let mut out = Vec::with_capacity(inputs.len());
    let mut at = 0;
    for step in schedule(rng, inputs.len()) {
        match step {
            None => out.push(word(codec, inputs[at])),
            Some(len) => out.extend(block(codec, &block_of(&inputs[at..at + len], width))),
        }
        at += step.unwrap_or(1);
    }
    out
}

/// One instance, both forms: every catalog scheme and `Sabotaged`, at
/// every width of the grid it builds at, encodes a random stream through
/// a seeded mix of word and block calls on one instance, and a second
/// instance decodes the noisy bus words the same way. Bus words, decoded
/// words and statuses equal those of fresh instances driven word by word.
#[test]
fn one_instance_mixes_word_and_block_calls() {
    let mut rng = StdRng::seed_from_u64(0x0B07_4F02);
    for k in [1, 5, 16, 17, 33, 64, 100] {
        for scheme in schemes(k) {
            let name = scheme.name();
            let data: Vec<Word> = (0..400).map(|_| random_word(&mut rng, k)).collect();
            let mut reference = scheme.codec(k);
            let sent: Vec<Word> = data
                .iter()
                .map(|&w| BusCode::encode(&mut *reference, w))
                .collect();
            let wires = sent[0].width();
            let mixed = drive(
                &mut *scheme.codec(k),
                &data,
                k,
                &mut rng,
                |c, w| BusCode::encode(c, w),
                |c, b| BatchCode::encode(c, b).to_words(),
            );
            assert_eq!(mixed, sent, "{name} k={k}: encode");
            let received: Vec<Word> = sent
                .iter()
                .map(|&w| {
                    (0..wires).fold(w, |acc, i| {
                        if rng.gen::<f64>() < 0.03 {
                            acc.with_bit(i, !acc.bit(i))
                        } else {
                            acc
                        }
                    })
                })
                .collect();
            let mut reference = scheme.codec(k);
            let want: Vec<_> = received
                .iter()
                .map(|&w| BusCode::decode_checked(&mut *reference, w))
                .collect();
            let statuses = |b: &WordBlock, s: BlockStatus| (0..b.len()).map(move |j| s.status(j));
            let got = drive(
                &mut *scheme.codec(k),
                &received,
                wires,
                &mut rng,
                |c, w| BusCode::decode_checked(c, w),
                |c, b| {
                    let (out, status) = BatchCode::decode_checked(c, b);
                    out.to_words()
                        .into_iter()
                        .zip(statuses(b, status))
                        .collect()
                },
            );
            assert_eq!(got, want, "{name} k={k}: decode_checked");
        }
    }
}

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
        for scheme in schemes(k) {
            let batch = word_error_rate(scheme, k, eps, trials, 0xB10C);
            let scalar = word_error_rate_scalar(scheme, k, eps, trials, 0xB10C);
            assert_eq!(batch, scalar, "{} at k = {k}", scheme.name());
            // From k = 16 on every estimate sees failures, so those cells
            // never compare two zeros (a few at k <= 3 do).
            assert!(k < 16 || batch.failures > 0, "{} at k = {k}", scheme.name());
        }
    }
}

/// At every width this file runs, [`schemes`] keeps every (scheme, k)
/// case of the explicit width limits: `BI(i)` needs `i <= k`, and at
/// k = 129 the six schemes below need more than 256 wires. A drift in
/// [`Scheme::check`] cannot silently drop a case from the tests above.
#[test]
fn derived_cases_keep_every_hand_written_case() {
    const TOO_WIDE_AT_129: [Scheme; 6] = [
        Scheme::Shielding,
        Scheme::Duplication,
        Scheme::Dap,
        Scheme::Dapx,
        Scheme::Dapbi,
        Scheme::Bsc,
    ];
    for k in [1, 2, 3, 4, 5, 8, 16, 17, 32, 33, 64, 65, 100, 129] {
        let derived = schemes(k);
        let mut old = all_schemes();
        old.retain(|s| !matches!(s, Scheme::BusInvert(i) if *i > k));
        if k == 129 {
            old.retain(|s| !TOO_WIDE_AT_129.contains(s));
        }
        for scheme in old {
            assert!(derived.contains(&scheme), "{} at k = {k}", scheme.name());
        }
    }
}

//! The additive-Gaussian-noise bus channel (paper §II-A.3).
//!
//! Every wire of the received word sees the driven rail voltage plus a
//! zero-mean Gaussian noise sample of standard deviation σ_N; the
//! receiver slices at half swing. The resulting bit-error probability is
//! `ε = Q(swing / 2σ_N)` — eq. (5).

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socbus_codes::WordBlock;
use socbus_model::{bit_error_probability, Word};

use crate::flip_stream::FlipStream;

/// A noisy bus channel.
#[derive(Clone, Debug)]
pub struct GaussianChannel {
    /// Signal swing on the wires (V); the scaled `V̂dd` when low-swing
    /// signaling is used.
    pub swing: f64,
    /// Noise standard deviation σ_N (V).
    pub sigma: f64,
    rng: StdRng,
}

impl GaussianChannel {
    /// A channel with the given swing and noise level.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are positive.
    #[must_use]
    pub fn new(swing: f64, sigma: f64, seed: u64) -> Self {
        assert!(swing > 0.0 && sigma > 0.0, "parameters must be positive");
        GaussianChannel {
            swing,
            sigma,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The per-wire bit-error probability `Q(swing/2σ)`.
    #[must_use]
    pub fn bit_error_probability(&self) -> f64 {
        bit_error_probability(self.swing, self.sigma)
    }

    /// One standard Gaussian sample (Box–Muller).
    fn gauss(&mut self) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Transmits a word: drives each wire to its rail, adds noise, and
    /// slices at half swing.
    #[must_use]
    pub fn transmit(&mut self, word: Word) -> Word {
        let half = self.swing / 2.0;
        let mut out = Word::zero(word.width());
        for i in 0..word.width() {
            let v = if word.bit(i) { self.swing } else { 0.0 };
            let noisy = v + self.sigma * self.gauss();
            out.set_bit(i, noisy > half);
        }
        out
    }
}

/// A simpler abstraction for validation: flips each wire independently
/// with probability ε (the regime the analytic formulas assume).
///
/// Each wire of each word takes one draw of the `StdRng::seed_from_u64`
/// stream, in word order and ascending wire within a word, and flips
/// exactly when `rng.gen::<f64>() < ε` would hold. The channel buffers
/// the outcomes of the next 2¹⁷ draws, computed eight lanes at a time
/// (DESIGN.md §22), so a word costs a scan of its hit bits rather than a
/// draw per wire.
#[derive(Clone)]
pub struct BitFlipChannel {
    eps: f64,
    flips: FlipStream,
}

impl BitFlipChannel {
    /// A channel flipping wires i.i.d. with probability `eps`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= eps <= 1`.
    #[must_use]
    pub fn new(eps: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&eps), "eps out of range");
        BitFlipChannel {
            eps,
            flips: FlipStream::new(eps, seed),
        }
    }

    /// Per-wire flip probability.
    #[must_use]
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Transmits a word through the flip channel.
    #[must_use]
    pub fn transmit(&mut self, word: Word) -> Word {
        let mut flips = [0; Word::LIMB_COUNT];
        self.flips
            .for_each_hit(word.width(), |i| flips[i / 64] |= 1 << (i % 64));
        word.xor(Word::from_limbs(flips, word.width()))
    }

    /// Transmits a whole [`WordBlock`] in place, drawing the flip
    /// variates **word by word, wire-ascending within each word** — the
    /// exact RNG stream [`BitFlipChannel::transmit`] consumes for the
    /// same words in the same order. This is what keeps the batch
    /// Monte-Carlo path byte-identical to the scalar one.
    pub fn corrupt_block(&mut self, block: &mut WordBlock) {
        // Draw `d` of the block is wire `d - start` of word `j`, where
        // `start = j·width` is the first draw of the word.
        let width = block.width();
        let (mut j, mut start) = (0, 0);
        self.flips.for_each_hit(block.len() * width, |d| {
            while d >= start + width {
                start += width;
                j += 1;
            }
            *block.lane_mut(d - start) ^= 1 << j;
        });
    }
}

/// Prints ε and how far into its buffer the stream is, not the buffer.
impl fmt::Debug for BitFlipChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BitFlipChannel")
            .field("eps", &self.eps)
            .field("buffer_position", &self.flips.position())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_channel_is_transparent() {
        let mut ch = GaussianChannel::new(1.2, 1e-6, 1);
        let w = Word::from_bits(0b1011, 4);
        for _ in 0..100 {
            assert_eq!(ch.transmit(w), w);
        }
    }

    #[test]
    fn measured_ber_matches_q_function() {
        // σ chosen for ε ≈ 2.3% — measurable in few trials.
        let swing = 1.2;
        let sigma = 0.3;
        let mut ch = GaussianChannel::new(swing, sigma, 7);
        let expect = ch.bit_error_probability();
        let w = Word::from_bits(0, 64);
        let mut flips = 0u64;
        let trials = 4000;
        for _ in 0..trials {
            flips += u64::from(ch.transmit(w).count_ones());
        }
        let measured = flips as f64 / (64.0 * f64::from(trials));
        assert!(
            (measured - expect).abs() / expect < 0.1,
            "measured {measured} vs Q {expect}"
        );
    }

    #[test]
    fn lower_swing_raises_error_rate() {
        let hi = GaussianChannel::new(1.2, 0.1, 1).bit_error_probability();
        let lo = GaussianChannel::new(0.8, 0.1, 1).bit_error_probability();
        assert!(lo > hi);
    }

    #[test]
    fn corrupt_block_consumes_the_scalar_stream() {
        // Same seed, same words: the block path must produce exactly the
        // words the scalar path does, because it draws the same variates
        // in the same order.
        let words: Vec<Word> = (0..64u128).map(|j| Word::from_bits(j * 37, 11)).collect();
        let mut scalar_ch = BitFlipChannel::new(0.2, 99);
        let scalar: Vec<Word> = words.iter().map(|&w| scalar_ch.transmit(w)).collect();
        let mut block = WordBlock::from_words(&words);
        let mut block_ch = BitFlipChannel::new(0.2, 99);
        block_ch.corrupt_block(&mut block);
        assert_eq!(block.to_words(), scalar);
    }

    #[test]
    fn flip_channel_rate_is_calibrated() {
        let mut ch = BitFlipChannel::new(0.05, 3);
        let w = Word::zero(100);
        let mut flips = 0u64;
        for _ in 0..2000 {
            flips += u64::from(ch.transmit(w).count_ones());
        }
        let rate = flips as f64 / 200_000.0;
        assert!((rate - 0.05).abs() < 0.005, "rate {rate}");
    }

    #[test]
    fn debug_shows_eps_and_position_not_the_buffer() {
        let mut ch = BitFlipChannel::new(0.25, 5);
        let _ = ch.transmit(Word::zero(20));
        assert_eq!(ch.eps(), 0.25);
        assert_eq!(
            format!("{ch:?}"),
            "BitFlipChannel { eps: 0.25, buffer_position: 20 }"
        );
    }
}

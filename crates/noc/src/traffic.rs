//! Synthetic traffic generators for link-level studies.
//!
//! The paper's tables assume spatially and temporally uncorrelated,
//! equiprobable data ([`UniformTraffic`]); realistic NoC links also carry
//! correlated payload streams ([`CorrelatedTraffic`]) and address-like
//! ramps ([`RampTraffic`]), where low-power codes behave differently —
//! the example applications explore exactly that.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socbus_model::word::MAX_WIDTH;
use socbus_model::Word;

/// Uniform i.i.d. words — the paper's workload assumption.
#[derive(Clone, Debug)]
pub struct UniformTraffic {
    width: usize,
    rng: StdRng,
}

impl UniformTraffic {
    /// Uniform traffic of the given word width.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= width <= MAX_WIDTH` (a width-0 generator
    /// would emit empty words forever).
    #[must_use]
    pub fn new(width: usize, seed: u64) -> Self {
        assert!((1..=MAX_WIDTH).contains(&width), "width out of range");
        UniformTraffic {
            width,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Iterator for UniformTraffic {
    type Item = Word;

    fn next(&mut self) -> Option<Word> {
        Some(Word::random(&mut self.rng, self.width))
    }
}

/// Temporally correlated words: each bit is an independent two-state
/// Markov chain flipping with probability `alpha` per cycle. Small
/// `alpha` models slowly-varying payload (e.g. media streams).
#[derive(Clone, Debug)]
pub struct CorrelatedTraffic {
    state: Word,
    alpha: f64,
    rng: StdRng,
}

impl CorrelatedTraffic {
    /// Correlated traffic with per-bit flip probability `alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= alpha <= 1` and `1 <= width <= MAX_WIDTH`.
    #[must_use]
    pub fn new(width: usize, alpha: f64, seed: u64) -> Self {
        assert!((1..=MAX_WIDTH).contains(&width), "width out of range");
        assert!((0.0..=1.0).contains(&alpha), "alpha out of range");
        let mut rng = StdRng::seed_from_u64(seed);
        let state = Word::random(&mut rng, width);
        CorrelatedTraffic { state, alpha, rng }
    }
}

impl Iterator for CorrelatedTraffic {
    type Item = Word;

    fn next(&mut self) -> Option<Word> {
        let mut next = self.state;
        for i in 0..next.width() {
            if self.rng.gen::<f64>() < self.alpha {
                next.set_bit(i, !next.bit(i));
            }
        }
        self.state = next;
        Some(next)
    }
}

/// Sequential address-like ramp: a counter with a configurable stride,
/// occasionally jumping to a random base (modeling branch behavior on an
/// address bus).
#[derive(Clone, Debug)]
pub struct RampTraffic {
    width: usize,
    value: u128,
    stride: u128,
    jump_probability: f64,
    rng: StdRng,
}

impl RampTraffic {
    /// A ramp with the given stride and per-cycle jump probability.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= width <= 128`.
    #[must_use]
    pub fn new(width: usize, stride: u128, jump_probability: f64, seed: u64) -> Self {
        assert!((1..=128).contains(&width), "width out of range");
        RampTraffic {
            width,
            value: 0,
            stride,
            jump_probability,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Iterator for RampTraffic {
    type Item = Word;

    fn next(&mut self) -> Option<Word> {
        if self.rng.gen::<f64>() < self.jump_probability {
            self.value = self.rng.gen();
        } else {
            self.value = self.value.wrapping_add(self.stride);
        }
        Some(Word::from_bits(self.value, self.width))
    }
}

/// Packs a byte stream into `width`-bit words (zero-padded tail).
///
/// # Panics
///
/// Panics unless `1 <= width <= 128`.
#[must_use]
pub fn words_from_bytes(bytes: &[u8], width: usize) -> Vec<Word> {
    assert!((1..=128).contains(&width), "width out of range");
    // Accumulate bit by bit: a byte-at-a-time accumulator needs shifts
    // of up to 128 (UB) and loses carry bits for widths above 120.
    let mut out = Vec::new();
    let mut acc: u128 = 0;
    let mut bits = 0usize;
    for &b in bytes {
        for i in 0..8 {
            if (b >> i) & 1 == 1 {
                acc |= 1u128 << bits;
            }
            bits += 1;
            if bits == width {
                out.push(Word::from_bits(acc, width));
                acc = 0;
                bits = 0;
            }
        }
    }
    if bits > 0 {
        out.push(Word::from_bits(acc, width));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_traffic_has_half_density() {
        let ones: u32 = UniformTraffic::new(32, 1)
            .take(2000)
            .map(Word::count_ones)
            .sum();
        let density = f64::from(ones) / (2000.0 * 32.0);
        assert!((density - 0.5).abs() < 0.02, "density {density}");
    }

    /// Every wire of a wide word is drawn, those above 128 included.
    #[test]
    fn uniform_traffic_draws_every_wire_above_128() {
        let high: u32 = UniformTraffic::new(200, 1)
            .take(500)
            .map(|w| w.slice(128, 72).count_ones())
            .sum();
        let density = f64::from(high) / (500.0 * 72.0);
        assert!((density - 0.5).abs() < 0.02, "density {density}");
        let state = CorrelatedTraffic::new(200, 0.0, 1).next().unwrap();
        assert_ne!(state.slice(128, 72).count_ones(), 0);
    }

    #[test]
    fn correlated_traffic_switches_less() {
        let collect_activity = |mut it: Box<dyn Iterator<Item = Word>>| {
            let first = it.next().unwrap();
            let mut prev = first;
            let mut toggles = 0u32;
            for w in it.take(2000) {
                toggles += prev.hamming_distance(w);
                prev = w;
            }
            f64::from(toggles) / (2000.0 * 16.0)
        };
        let uni = collect_activity(Box::new(UniformTraffic::new(16, 3)));
        let cor = collect_activity(Box::new(CorrelatedTraffic::new(16, 0.05, 3)));
        assert!(cor < uni / 3.0, "correlated {cor} vs uniform {uni}");
    }

    #[test]
    fn ramp_mostly_increments() {
        let words: Vec<Word> = RampTraffic::new(16, 1, 0.0, 5).take(10).collect();
        for (i, w) in words.iter().enumerate() {
            assert_eq!(w.bits(), (i + 1) as u128);
        }
    }

    #[test]
    fn generators_accept_the_full_word_width() {
        // Width 128 is the Word ceiling; all generators must take it.
        let w = UniformTraffic::new(128, 1).next().unwrap();
        assert_eq!(w.width(), 128);
        let w = CorrelatedTraffic::new(128, 0.1, 1).next().unwrap();
        assert_eq!(w.width(), 128);
        let w = RampTraffic::new(128, 3, 0.0, 1).next().unwrap();
        assert_eq!(w.width(), 128);
        let words = words_from_bytes(&[0xAA; 16], 128);
        assert_eq!(words.len(), 1);
        assert_eq!(words[0].width(), 128);
        assert_eq!(words[0].bits(), u128::from_le_bytes([0xAA; 16]));
    }

    #[test]
    fn words_from_bytes_carries_across_wide_word_boundaries() {
        // Regression: widths above 120 used to lose the carry bits of a
        // byte straddling the word boundary (and width 128 panicked on
        // a 128-bit shift). 17 bytes at width 127 straddle at bit 127.
        let mut bytes = [0u8; 17];
        bytes[15] = 0x80; // stream bit 127 — the first bit of word 1
        bytes[16] = 0xFF; // stream bits 128..136 — word 1 bits 1..9
        let words = words_from_bytes(&bytes, 127);
        assert_eq!(words.len(), 2);
        assert_eq!(words[0].bits(), 0, "word 0 is stream bits 0..127, all zero");
        assert_eq!(words[1].bits(), 0b1_1111_1111);
    }

    #[test]
    #[should_panic(expected = "width out of range")]
    fn uniform_rejects_width_zero() {
        let _ = UniformTraffic::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "width out of range")]
    fn uniform_rejects_width_beyond_word() {
        let _ = UniformTraffic::new(MAX_WIDTH + 1, 1);
    }

    #[test]
    #[should_panic(expected = "width out of range")]
    fn correlated_rejects_width_zero() {
        let _ = CorrelatedTraffic::new(0, 0.1, 1);
    }

    #[test]
    #[should_panic(expected = "width out of range")]
    fn correlated_rejects_width_beyond_word() {
        let _ = CorrelatedTraffic::new(MAX_WIDTH + 1, 0.1, 1);
    }

    #[test]
    #[should_panic(expected = "width out of range")]
    fn ramp_rejects_width_zero() {
        let _ = RampTraffic::new(0, 1, 0.0, 1);
    }

    #[test]
    #[should_panic(expected = "width out of range")]
    fn ramp_rejects_width_beyond_word() {
        let _ = RampTraffic::new(129, 1, 0.0, 1);
    }

    #[test]
    #[should_panic(expected = "width out of range")]
    fn words_from_bytes_rejects_width_zero() {
        let _ = words_from_bytes(&[1, 2], 0);
    }

    #[test]
    fn bytes_roundtrip_into_words() {
        let words = words_from_bytes(&[0xAB, 0xCD], 8);
        assert_eq!(words.len(), 2);
        assert_eq!(words[0].bits(), 0xAB);
        assert_eq!(words[1].bits(), 0xCD);
        // Non-divisible width pads the tail.
        let words = words_from_bytes(&[0xFF, 0x01], 12);
        assert_eq!(words.len(), 2);
        assert_eq!(words[0].bits(), 0x1FF);
        assert_eq!(words[1].bits(), 0x0);
    }
}

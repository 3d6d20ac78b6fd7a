//! Importance-sampled word-error estimation via exponential twisting.
//!
//! The per-wire flip probability is tilted from the nominal `ε` to
//! `ε_θ = ε·e^θ / (ε·e^θ + 1 − ε)` — the exponentially twisted Bernoulli
//! measure. Each trial draws its error pattern under `ε_θ` and carries
//! the exact likelihood ratio back to the nominal measure:
//!
//! ```text
//! w(e) = Π_wires  (ε/ε_θ)^[flipped] · ((1−ε)/(1−ε_θ))^[kept]
//! ```
//!
//! so `E_θ[w·fail] = Σ_e q_θ(e)·(p(e)/q_θ(e))·fail(e) = p_fail` — the
//! estimator is unbiased for *any* θ, and a good θ concentrates samples
//! on the error weights that dominate the failure set, shrinking the
//! variance by orders of magnitude at low ε.
//!
//! Zero twist (`theta = 0`) is special-cased to use `ε` *exactly* —
//! same flip-RNG stream, draw count, and threshold as
//! [`crate::BitFlipChannel`] — so it reproduces
//! [`crate::montecarlo::word_error_rate`] byte for byte; the regression
//! suite pins that down.

use crate::montecarlo::{mc_shards, WeightedTally};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socbus_codes::{batch_build, Scheme, WordBlock, BLOCK_WORDS};
use socbus_exec::run_shards;
use socbus_model::Word;

/// Seed salt separating the flip-draw RNG stream from the data stream —
/// the same constant [`crate::montecarlo::word_error_rate`] uses,
/// which is what lets zero-twist importance sampling reproduce the plain
/// estimator byte for byte.
const FLIP_SEED_SALT: u64 = 0x5EED;

/// The exponentially twisted flip probability
/// `ε_θ = ε·e^θ / (ε·e^θ + 1 − ε)`.
///
/// `θ = 0` returns `ε` **exactly** (bitwise, not just approximately):
/// the zero-twist estimator must draw the identical flip pattern to the
/// plain channel, and `ε·1.0/(ε·1.0 + 1 − ε)` is not guaranteed to
/// round back to `ε`.
#[must_use]
pub fn twisted_eps(eps: f64, theta: f64) -> f64 {
    if theta == 0.0 {
        return eps;
    }
    let tilted = eps * theta.exp();
    tilted / (tilted + (1.0 - eps))
}

/// Importance-sampled word-error estimate of `scheme` at width `k`
/// through the i.i.d. channel of flip probability `eps`, sampling under
/// the tilt `theta`, over `trials` words.
///
/// Encoder and decoder persist across trials (endpoint state advances
/// exactly as in [`crate::montecarlo::word_error_rate`]), and trials run
/// in [`BLOCK_WORDS`]-sized blocks: the block's data words are drawn
/// and encoded, then each word's flips are drawn wire by wire straight
/// into the encoded block, then one decode. The data and flip streams
/// are separate RNGs, so each keeps the per-trial order. With
/// `theta = 0` this reproduces [`crate::montecarlo::word_error_rate`]
/// byte for byte (same seeds, same RNG streams, weights exactly 1).
#[must_use]
pub fn is_word_error(
    scheme: Scheme,
    k: usize,
    eps: f64,
    theta: f64,
    trials: u64,
    seed: u64,
) -> WeightedTally {
    let mut enc = batch_build(scheme, k);
    let mut dec = batch_build(scheme, k);
    let wires = enc.wires();
    let mut data_rng = StdRng::seed_from_u64(seed);
    let mut flip_rng = StdRng::seed_from_u64(seed ^ FLIP_SEED_SALT);
    let eps_t = twisted_eps(eps, theta);
    // Exact zero twist (or degenerate ε ∈ {0, 1}): unit weights,
    // avoiding the 0/0 shape at ε = 0.
    let (flip_w, keep_w) = if eps_t == eps {
        (1.0, 1.0)
    } else {
        (eps / eps_t, (1.0 - eps) / (1.0 - eps_t))
    };
    let mut tally = WeightedTally::zero();
    let mut words = [Word::zero(k); BLOCK_WORDS];
    let mut weights = [1.0f64; BLOCK_WORDS];
    let mut done = 0u64;
    while done < trials {
        let n = usize::try_from((trials - done).min(BLOCK_WORDS as u64)).expect("n <= 64");
        for w in &mut words[..n] {
            *w = Word::from_bits(data_rng.gen::<u128>(), k);
        }
        let data = WordBlock::from_words(&words[..n]);
        let mut received = enc.encode(&data);
        for (j, weight) in weights[..n].iter_mut().enumerate() {
            let mut w = 1.0;
            for i in 0..wires {
                // Same draw shape as `BitFlipChannel::transmit`, so the
                // zero-twist flips are the plain channel's.
                if flip_rng.gen::<f64>() < eps_t {
                    received.flip_bit(i, j);
                    w *= flip_w;
                } else {
                    w *= keep_w;
                }
            }
            *weight = w;
        }
        let out = dec.decode(&received);
        let fail_mask = (0..k).fold(0u64, |acc, i| acc | (out.lane(i) ^ data.lane(i)));
        for (j, &w) in weights[..n].iter().enumerate() {
            tally.record(w, fail_mask >> j & 1 == 1);
        }
        done += n as u64;
    }
    tally
}

/// [`is_word_error`] on the deterministic parallel engine: the run is
/// cut by [`mc_shards`] into a thread-count-independent shard list, each
/// shard sampled with its own split seed, and the per-shard tallies
/// merged in shard order via [`WeightedTally::merged`] — byte-identical
/// at any `threads >= 1`.
#[must_use]
pub fn is_word_error_parallel(
    scheme: Scheme,
    k: usize,
    eps: f64,
    theta: f64,
    trials: u64,
    root_seed: u64,
    threads: usize,
) -> WeightedTally {
    let shards = mc_shards(trials, root_seed);
    WeightedTally::merged(run_shards(threads, &shards, |_, &(shard_trials, seed)| {
        is_word_error(scheme, k, eps, theta, shard_trials, seed)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twisted_eps_zero_theta_is_bitwise_identity() {
        for eps in [0.0, 1e-12, 1e-3, 0.4999999, 0.5, 1.0] {
            assert_eq!(twisted_eps(eps, 0.0).to_bits(), eps.to_bits());
        }
    }

    #[test]
    fn twisted_eps_monotone_in_theta() {
        let eps = 1e-3;
        let mut last = 0.0;
        for theta in [0.0, 1.0, 2.0, 4.0, 8.0] {
            let t = twisted_eps(eps, theta);
            assert!(t >= last, "theta={theta}");
            assert!((0.0..=1.0).contains(&t));
            last = t;
        }
        // Large positive tilt pushes ε toward 1; negative toward 0.
        assert!(twisted_eps(eps, 12.0) > 0.99);
        assert!(twisted_eps(eps, -4.0) < eps);
    }

    #[test]
    fn zero_twist_weights_are_exactly_one() {
        let t = is_word_error(Scheme::Hamming, 8, 0.01, 0.0, 5_000, 7);
        assert_eq!(t.weighted_trials, 5_000.0);
        assert_eq!(t.mean_weight(), 1.0);
        assert_eq!(t.sum, t.failures as f64);
    }

    #[test]
    fn twisted_estimate_is_consistent_with_plain() {
        // ε high enough for plain MC to see failures: the twisted
        // estimate must agree within joint CIs.
        let (k, eps) = (8, 0.02);
        let plain = is_word_error(Scheme::Hamming, k, eps, 0.0, 200_000, 11);
        let twisted = is_word_error(Scheme::Hamming, k, eps, 1.5, 200_000, 13);
        let gap = (plain.rate() - twisted.rate()).abs();
        let tol = 3.0 * (plain.confidence95() + twisted.confidence95());
        assert!(
            gap < tol,
            "plain {} (±{}) vs twisted {} (±{})",
            plain.rate(),
            plain.confidence95(),
            twisted.rate(),
            twisted.confidence95()
        );
        // And the twist actually concentrates samples on failures.
        assert!(twisted.failures > 10 * plain.failures);
    }

    #[test]
    fn parallel_matches_thread_counts() {
        let one = is_word_error_parallel(Scheme::Dap, 8, 1e-3, 3.0, 100_000, 5, 1);
        let eight = is_word_error_parallel(Scheme::Dap, 8, 1e-3, 3.0, 100_000, 5, 8);
        assert_eq!(one, eight);
        assert!(one.failures > 0, "twist must reach the failure set");
    }
}

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
//! For the Gilbert–Elliott burst channel the chain is marginalized
//! *exactly*: word `t` is in the burst state with closed-form probability
//! `b_t` ([`RareChannel::occupancy`] averages it), the sampler draws each
//! trial's state from a `burst_boost`-tilted occupancy with its own
//! likelihood ratio, and the per-wire twist applies within the state.
//! Tilting the marginal rather than the path avoids the classic
//! path-weight degeneration of chain-level twisting (a product of
//! per-step ratios over millions of steps has unbounded variance).
//!
//! Zero twist (`Twist::NONE`) is special-cased to use `ε` *exactly* —
//! same flip-RNG stream, draw count, and threshold as
//! [`crate::BitFlipChannel`] — so it reproduces
//! [`crate::montecarlo::word_error_rate`] byte for byte; the regression
//! suite pins that down.

use super::{RareChannel, TrialStream, FLIP_SEED_SALT};
use crate::montecarlo::{mc_shards, WeightedTally};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socbus_codes::{Scheme, BLOCK_WORDS};
use socbus_exec::run_shards;

/// The sampling-measure tilt of one importance-sampled run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Twist {
    /// Exponential tilt θ of the per-wire flip probability; `0` samples
    /// the nominal measure.
    pub theta: f64,
    /// Multiplicative odds boost on the burst-state occupancy of a
    /// [`RareChannel::Burst`] channel; `1` leaves the chain marginal
    /// untouched. Ignored for i.i.d. channels.
    pub burst_boost: f64,
}

impl Twist {
    /// The identity twist: sample the nominal measure, all weights 1.
    pub const NONE: Twist = Twist {
        theta: 0.0,
        burst_boost: 1.0,
    };

    /// A pure per-wire tilt (no burst boost).
    #[must_use]
    pub fn theta(theta: f64) -> Twist {
        Twist {
            theta,
            burst_boost: 1.0,
        }
    }
}

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

/// The boosted burst occupancy `q' = q·B / (q·B + 1 − q)` (odds scaled
/// by `B`); `B = 1` returns `q` exactly, mirroring [`twisted_eps`].
fn boosted_occupancy(q: f64, boost: f64) -> f64 {
    if boost == 1.0 {
        return q;
    }
    let tilted = q * boost;
    tilted / (tilted + (1.0 - q))
}

/// One single-threaded shard of the IS estimator: `trials` words of
/// `scheme` at width `k` through `channel` sampled under `twist`, with
/// the burst occupancy `occupancy` fixed by the caller (the *whole-run*
/// average — every shard of one run must target the same marginal or the
/// sharded estimate would depend on the decomposition).
fn is_shard(
    scheme: Scheme,
    k: usize,
    channel: RareChannel,
    twist: Twist,
    occupancy: f64,
    trials: u64,
    seed: u64,
) -> WeightedTally {
    let mut stream = TrialStream::new(scheme, k, seed);
    let mut flip_rng = StdRng::seed_from_u64(seed ^ FLIP_SEED_SALT);
    let wires = stream.wires();
    let mut tally = WeightedTally::zero();
    // Per-state twisted parameters are trial-invariant: precompute the
    // (ε, ε_θ, flip-ratio, keep-ratio) tuple per reachable state.
    let params = |eps: f64| -> (f64, f64, f64) {
        let eps_t = twisted_eps(eps, twist.theta);
        if eps_t == eps {
            // Exact zero-twist (or degenerate ε ∈ {0, 1}): unit weights,
            // avoiding the 0/0 shape at ε = 0.
            (eps_t, 1.0, 1.0)
        } else {
            (eps_t, eps / eps_t, (1.0 - eps) / (1.0 - eps_t))
        }
    };
    let iid = params(channel.base_eps());
    let burst = match channel {
        RareChannel::Iid { .. } => None,
        RareChannel::Burst { eps_bad, .. } => {
            let q = occupancy;
            let qb = boosted_occupancy(q, twist.burst_boost);
            // State weights q/q' and (1−q)/(1−q'): exact 1.0 at B = 1.
            let (w_bad, w_good) = if qb == q {
                (1.0, 1.0)
            } else {
                (q / qb, (1.0 - q) / (1.0 - qb))
            };
            Some((params(eps_bad), qb, w_bad, w_good))
        }
    };
    // Trials run in BLOCK_WORDS-sized batches: all of a block's noise
    // draws happen first (the flip RNG is a separate stream from the data
    // RNG, so its per-stream order is unchanged), then one batch
    // encode/decode, then the tally records per trial in original order —
    // the float sums stay byte-identical to the per-trial loop.
    let mut patterns: Vec<u128> = Vec::with_capacity(BLOCK_WORDS);
    let mut weights: Vec<f64> = Vec::with_capacity(BLOCK_WORDS);
    let mut done = 0u64;
    while done < trials {
        let n = usize::try_from((trials - done).min(BLOCK_WORDS as u64)).expect("n <= 64");
        patterns.clear();
        weights.clear();
        for _ in 0..n {
            let ((eps_t, flip_w, keep_w), state_w) = match burst {
                None => (iid, 1.0),
                Some((bad, qb, w_bad, w_good)) => {
                    // One occupancy draw per word, mirroring the one
                    // transition draw per word of `GilbertElliott::corrupt`.
                    if flip_rng.gen::<f64>() < qb {
                        (bad, w_bad)
                    } else {
                        (iid, w_good)
                    }
                }
            };
            let mut w = state_w;
            let mut pattern = 0u128;
            for i in 0..wires {
                // Same draw shape as `BitFlipChannel::transmit`, so the
                // zero-twist pattern stream is the plain channel's.
                if flip_rng.gen::<f64>() < eps_t {
                    pattern |= 1u128 << i;
                    w *= flip_w;
                } else {
                    w *= keep_w;
                }
            }
            patterns.push(pattern);
            weights.push(w);
        }
        let fail_mask = stream.fails_with_patterns(&patterns);
        for (j, &w) in weights.iter().enumerate() {
            tally.record(w, fail_mask >> j & 1 == 1);
        }
        done += n as u64;
    }
    tally
}

/// Importance-sampled word-error estimate of `scheme` at width `k`
/// through `channel`, sampling under `twist`, over `trials` words.
///
/// With `Twist::NONE` on an i.i.d. channel this reproduces
/// [`crate::montecarlo::word_error_rate`] byte for byte (same seeds,
/// same RNG streams, weights exactly 1).
#[must_use]
pub fn is_word_error(
    scheme: Scheme,
    k: usize,
    channel: RareChannel,
    twist: Twist,
    trials: u64,
    seed: u64,
) -> WeightedTally {
    let occupancy = channel.occupancy(trials);
    is_shard(scheme, k, channel, twist, occupancy, trials, seed)
}

/// [`is_word_error`] on the deterministic parallel engine: the run is
/// cut by [`mc_shards`] into a thread-count-independent shard list, each
/// shard sampled with its own split seed against the *whole-run* burst
/// occupancy, and the per-shard tallies merged in shard order via
/// [`WeightedTally::merged`] — byte-identical at any `threads >= 1`.
#[must_use]
pub fn is_word_error_parallel(
    scheme: Scheme,
    k: usize,
    channel: RareChannel,
    twist: Twist,
    trials: u64,
    root_seed: u64,
    threads: usize,
) -> WeightedTally {
    let occupancy = channel.occupancy(trials);
    is_parallel_occ(
        scheme, k, channel, twist, occupancy, trials, root_seed, threads,
    )
}

/// The occupancy-pinned core of [`is_word_error_parallel`]: callers
/// that merge *multiple* parallel runs into one estimate (the adaptive
/// driver's geometric batches) must pin one burst occupancy across
/// every batch or the merged estimate would mix targets.
#[allow(clippy::too_many_arguments)]
pub(crate) fn is_parallel_occ(
    scheme: Scheme,
    k: usize,
    channel: RareChannel,
    twist: Twist,
    occupancy: f64,
    trials: u64,
    root_seed: u64,
    threads: usize,
) -> WeightedTally {
    let shards = mc_shards(trials, root_seed);
    WeightedTally::merged(run_shards(threads, &shards, |_, &(shard_trials, seed)| {
        is_shard(scheme, k, channel, twist, occupancy, shard_trials, seed)
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
    fn boosted_occupancy_edges() {
        assert_eq!(boosted_occupancy(0.125, 1.0).to_bits(), 0.125f64.to_bits());
        assert!(boosted_occupancy(0.01, 50.0) > 0.3);
        assert_eq!(boosted_occupancy(0.0, 50.0), 0.0);
    }

    #[test]
    fn zero_twist_weights_are_exactly_one() {
        let t = is_word_error(
            Scheme::Hamming,
            8,
            RareChannel::Iid { eps: 0.01 },
            Twist::NONE,
            5_000,
            7,
        );
        assert_eq!(t.weighted_trials, 5_000.0);
        assert_eq!(t.mean_weight(), 1.0);
        assert_eq!(t.sum, t.failures as f64);
    }

    #[test]
    fn twisted_estimate_is_consistent_with_plain() {
        // ε high enough for plain MC to see failures: the twisted
        // estimate must agree within joint CIs.
        let (k, eps) = (8, 0.02);
        let ch = RareChannel::Iid { eps };
        let plain = is_word_error(Scheme::Hamming, k, ch, Twist::NONE, 200_000, 11);
        let twisted = is_word_error(Scheme::Hamming, k, ch, Twist::theta(1.5), 200_000, 13);
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
    fn burst_occupancy_closed_form_matches_recurrence() {
        let ch = RareChannel::Burst {
            eps_good: 1e-4,
            eps_bad: 0.1,
            p_enter: 0.01,
            p_exit: 0.2,
        };
        for trials in [1u64, 2, 17, 1000] {
            let mut b = 0.0f64;
            let mut acc = 0.0;
            for _ in 0..trials {
                // Transition happens before each word (GilbertElliott).
                b = b * (1.0 - 0.2) + (1.0 - b) * 0.01;
                acc += b;
            }
            let expect = acc / trials as f64;
            let got = ch.occupancy(trials);
            assert!(
                (got - expect).abs() < 1e-12,
                "trials={trials}: {got} vs {expect}"
            );
        }
        assert_eq!(RareChannel::Iid { eps: 0.5 }.occupancy(100), 0.0);
    }

    #[test]
    fn parallel_matches_thread_counts() {
        let ch = RareChannel::Iid { eps: 1e-3 };
        let tw = Twist::theta(3.0);
        let one = is_word_error_parallel(Scheme::Dap, 8, ch, tw, 100_000, 5, 1);
        let eight = is_word_error_parallel(Scheme::Dap, 8, ch, tw, 100_000, 5, 8);
        assert_eq!(one, eight);
        assert!(one.failures > 0, "twist must reach the failure set");
    }
}

//! Monte-Carlo residual word-error measurement.
//!
//! Drives real encoder/decoder pairs through a noisy channel and counts
//! decoded-word failures — the experimental check of the paper's
//! eqs. (7)–(9) and Appendix II, run at error rates high enough to
//! observe (the analytic formulas then extrapolate to the 1e-20 design
//! point, exactly as the paper does).
//!
//! Large runs go through [`word_error_rate_parallel`]: trials are cut
//! into a *static* shard list of [`MC_SHARD_TRIALS`]-sized chunks, each
//! shard seeded by [`socbus_exec::shard_seed`] from the root seed and
//! its shard index, shards execute on a work-stealing thread pool, and
//! the per-shard estimates merge in shard order — so the result is
//! bit-identical for every thread count, 1 included.

use crate::awgn::BitFlipChannel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socbus_codes::{batch_build, Scheme, WordBlock, BLOCK_WORDS};
use socbus_exec::{run_shards, shard_seed};
use socbus_model::Word;

/// Trials per shard in [`word_error_rate_parallel`]. Part of the result
/// definition: the decomposition (and therefore the merged estimate) is
/// fixed by the trial count alone, never by the thread count.
pub const MC_SHARD_TRIALS: u64 = 65_536;

/// Result of a word-error Monte-Carlo run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WordErrorEstimate {
    /// Observed residual word-error rate.
    pub rate: f64,
    /// Number of word transfers simulated.
    pub trials: u64,
    /// Number of erroneous decoded words.
    pub failures: u64,
}

impl WordErrorEstimate {
    /// Approximate 95% confidence half-width (normal approximation),
    /// with a one-sided *rule-of-three* bound at the degenerate edges.
    ///
    /// A zero-failure run used to report a width-0 interval — which
    /// claims the rate is *exactly* 0 no matter how few trials ran. The
    /// honest statement is the Clopper–Pearson-style upper bound: with 0
    /// failures in `n` trials, the exact one-sided 95% bound is
    /// `1 - 0.05^(1/n) ≈ 3/n` (the "rule of three"), so this returns
    /// `min(3/n, 1)` as the half-width of the one-sided interval
    /// `[0, 3/n]`. An all-failures run is the mirror image
    /// (`[1 - 3/n, 1]`). Zero trials yields `INFINITY` (no information).
    /// The result is never NaN.
    #[must_use]
    pub fn confidence95(&self) -> f64 {
        if self.trials == 0 {
            return f64::INFINITY;
        }
        let p = self.rate;
        if !p.is_finite() {
            return f64::INFINITY;
        }
        let var = p * (1.0 - p) / self.trials as f64;
        if var <= 0.0 {
            // 0 failures (or all failures): rule-of-three upper bound.
            return (3.0 / self.trials as f64).min(1.0);
        }
        1.96 * var.sqrt()
    }

    /// Merges per-shard estimates into the whole-run estimate: trials
    /// and failures add exactly, and the rate is **recomputed** from the
    /// merged tallies (never averaged — shards may have unequal sizes).
    /// The result is identical to a monolithic run that produced the
    /// same total tallies, `confidence95` included. An empty iterator
    /// (or all-empty shards) yields the zero-trial estimate.
    #[must_use]
    pub fn merged(shards: impl IntoIterator<Item = WordErrorEstimate>) -> WordErrorEstimate {
        let (trials, failures) = shards
            .into_iter()
            .fold((0u64, 0u64), |(t, f), s| (t + s.trials, f + s.failures));
        WordErrorEstimate::from_counts(trials, failures)
    }

    /// The estimate of `failures` in `trials` (an empty run has rate 0,
    /// not NaN).
    fn from_counts(trials: u64, failures: u64) -> WordErrorEstimate {
        let rate = if trials == 0 {
            0.0
        } else {
            failures as f64 / trials as f64
        };
        WordErrorEstimate {
            rate,
            trials,
            failures,
        }
    }

    /// This estimate as a weighted tally: a plain Monte-Carlo run is the
    /// special case of likelihood-ratio weighting where every trial has
    /// weight exactly 1, so the sums are the raw counts.
    #[must_use]
    pub fn weighted(&self) -> WeightedTally {
        WeightedTally {
            sum: self.failures as f64,
            sum_sq: self.failures as f64,
            weighted_trials: self.trials as f64,
            trials: self.trials,
            failures: self.failures,
        }
    }
}

/// Streaming moments of a *weighted* word-error measurement — the
/// accumulator behind the importance-sampled estimators in
/// [`crate::rare`].
///
/// Each trial `i` contributes a likelihood-ratio weight `w_i` (the
/// nominal-measure probability of the drawn noise divided by its
/// probability under the biased sampling measure) and a failure
/// indicator `f_i ∈ {0, 1}`. The tally tracks exactly the sums that
/// shard-merge associatively:
///
/// * `sum`   = Σ `w_i·f_i`  — the unnormalized failure mass;
/// * `sum_sq` = Σ `(w_i·f_i)²` — its second moment, for the variance;
/// * `weighted_trials` = Σ `w_i` over **all** trials — under the nominal
///   measure `E[w] = 1`, so this should concentrate near `trials` (the
///   self-normalization sanity check the rare-event suite asserts);
/// * `trials`, `failures` — raw counts.
///
/// The estimator is `rate() = sum / trials`, which is **provably
/// unbiased** for the true failure probability whenever the sampling
/// measure dominates the failure set (every noise draw that can fail has
/// nonzero probability under the biased measure): `E[w·f] = Σ_e q(e) ·
/// (p(e)/q(e)) · f(e) = Σ_e p(e) f(e) = p_fail`.
///
/// Plain (unweighted) runs embed via [`WordErrorEstimate::weighted`]
/// with every `w_i = 1`, and the two merge paths agree exactly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WeightedTally {
    /// Σ of `weight × failure-indicator` over all trials.
    pub sum: f64,
    /// Σ of `(weight × failure-indicator)²` over all trials.
    pub sum_sq: f64,
    /// Σ of the likelihood-ratio weight over all trials (failing or not).
    pub weighted_trials: f64,
    /// Number of simulated word transfers.
    pub trials: u64,
    /// Raw count of failing trials (unweighted).
    pub failures: u64,
}

impl WeightedTally {
    /// The empty tally (identity of [`WeightedTally::merged`]).
    #[must_use]
    pub fn zero() -> WeightedTally {
        WeightedTally {
            sum: 0.0,
            sum_sq: 0.0,
            weighted_trials: 0.0,
            trials: 0,
            failures: 0,
        }
    }

    /// Adds one trial with likelihood-ratio weight `w`, failing or not.
    pub fn record(&mut self, w: f64, failed: bool) {
        self.trials += 1;
        self.weighted_trials += w;
        if failed {
            self.failures += 1;
            self.sum += w;
            self.sum_sq += w * w;
        }
    }

    /// The unbiased rate estimate `sum / trials` (0 for an empty tally).
    #[must_use]
    pub fn rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.sum / self.trials as f64
        }
    }

    /// Mean likelihood-ratio weight over all trials; ≈ 1 when sampling
    /// under the nominal measure (the self-normalization check).
    #[must_use]
    pub fn mean_weight(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.weighted_trials / self.trials as f64
        }
    }

    /// Sample variance of the per-trial contribution `w·f` (0 when the
    /// tally holds fewer than two trials).
    #[must_use]
    pub fn sample_variance(&self) -> f64 {
        if self.trials < 2 {
            return 0.0;
        }
        let n = self.trials as f64;
        let mean = self.sum / n;
        // E[X²] - E[X]² with the n/(n-1) Bessel correction; clamp the
        // cancellation error at 0.
        ((self.sum_sq / n - mean * mean) * (n / (n - 1.0))).max(0.0)
    }

    /// 95% confidence half-width of [`WeightedTally::rate`] (normal
    /// approximation on the weighted mean). A tally with zero observed
    /// failures falls back to the weight-free rule-of-three bound `3/n`,
    /// mirroring [`WordErrorEstimate::confidence95`]; zero trials yields
    /// `INFINITY`.
    #[must_use]
    pub fn confidence95(&self) -> f64 {
        if self.trials == 0 {
            return f64::INFINITY;
        }
        if self.failures == 0 {
            return (3.0 / self.trials as f64).min(1.0);
        }
        let n = self.trials as f64;
        1.96 * (self.sample_variance() / n).sqrt()
    }

    /// Relative 95% half-width `confidence95 / rate`; `INFINITY` when the
    /// rate is 0 (no failure mass — nothing to be relative to).
    #[must_use]
    pub fn relative_ci95(&self) -> f64 {
        let r = self.rate();
        if r > 0.0 {
            self.confidence95() / r
        } else {
            f64::INFINITY
        }
    }

    /// Merges per-shard tallies in iteration order: every field is a
    /// plain sum, so the merge is exact for the integer fields and
    /// *order-deterministic* for the float fields — merging in shard
    /// order is what keeps the sharded estimators byte-identical across
    /// thread counts (the float sums are associative only in a fixed
    /// order). Mirrors [`WordErrorEstimate::merged`]; rates are never
    /// averaged, always recomputed from the merged sums.
    #[must_use]
    pub fn merged(shards: impl IntoIterator<Item = WeightedTally>) -> WeightedTally {
        let mut out = WeightedTally::zero();
        for s in shards {
            out.sum += s.sum;
            out.sum_sq += s.sum_sq;
            out.weighted_trials += s.weighted_trials;
            out.trials += s.trials;
            out.failures += s.failures;
        }
        out
    }
}

/// The static shard decomposition of a `trials`-sized run rooted at
/// `root_seed`: `(shard trials, shard seed)` pairs of [`MC_SHARD_TRIALS`]
/// full shards plus one remainder shard. Thread-count independent by
/// construction; exposed so tests can assert the decomposition directly.
#[must_use]
pub fn mc_shards(trials: u64, root_seed: u64) -> Vec<(u64, u64)> {
    let full = trials / MC_SHARD_TRIALS;
    let rem = trials % MC_SHARD_TRIALS;
    let mut shards = Vec::with_capacity(usize::try_from(full).unwrap_or(usize::MAX) + 1);
    for i in 0..full {
        shards.push((MC_SHARD_TRIALS, shard_seed(root_seed, i)));
    }
    if rem > 0 {
        shards.push((rem, shard_seed(root_seed, full)));
    }
    shards
}

/// Measures the residual word-error rate of `scheme` at width `k`
/// under i.i.d. per-wire flip probability `eps`, over `trials` random words.
///
/// Encoder and decoder advance in lockstep (wire errors never desynchronize
/// the codecs in this crate: decoder state is data-independent).
///
/// Trials run on the bit-sliced batch path ([`socbus_codes::batch`]) in
/// [`BLOCK_WORDS`]-sized blocks — byte-identical to the scalar reference
/// [`word_error_rate_scalar`] (the two RNG streams are consumed in the
/// same per-stream order; see the odd-trials regression tests) but an
/// order of magnitude cheaper on the linear schemes.
#[must_use]
pub fn word_error_rate(
    scheme: Scheme,
    k: usize,
    eps: f64,
    trials: u64,
    seed: u64,
) -> WordErrorEstimate {
    // Two codec objects (endpoint state must stay independent for
    // stateful codes like BI); native batch codecs share the process-wide
    // codebook cache with the scalar ones, so construction cost per sweep
    // stays O(schemes) — see `cache_makes_builds_o_schemes`.
    let mut enc = batch_build(scheme, k);
    let mut dec = batch_build(scheme, k);
    let mut ch = BitFlipChannel::new(eps, seed ^ 0x5EED);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut failures = 0u64;
    let mut done = 0u64;
    let mut words = [Word::zero(k); BLOCK_WORDS];
    while done < trials {
        let n = usize::try_from((trials - done).min(BLOCK_WORDS as u64)).expect("n <= 64");
        // Data draws first (one `u128` per trial, in trial order), then
        // the channel draws (per word, wire-ascending): each stream is
        // its own RNG, so batching keeps both streams in scalar order.
        for w in &mut words[..n] {
            *w = Word::from_bits(rng.gen::<u128>(), k);
        }
        let data = WordBlock::from_words(&words[..n]);
        let sent = enc.encode(&data);
        let mut received = sent;
        ch.corrupt_block(&mut received);
        let out = dec.decode(&received);
        let fail_plane = (0..k).fold(0u64, |acc, i| acc | (out.lane(i) ^ data.lane(i)));
        failures += u64::from(fail_plane.count_ones());
        done += n as u64;
    }
    WordErrorEstimate::from_counts(trials, failures)
}

/// The scalar (one-`Word`-at-a-time) reference implementation of
/// [`word_error_rate`]. Kept as the equivalence witness for the batch
/// path and as the baseline the codec bench measures speedups against.
#[must_use]
pub fn word_error_rate_scalar(
    scheme: Scheme,
    k: usize,
    eps: f64,
    trials: u64,
    seed: u64,
) -> WordErrorEstimate {
    // Two codec objects (endpoint state must stay independent for
    // stateful codes like BI), but both route through the process-wide
    // codebook cache in `socbus_codes::kernels`: building a shard's
    // encoder + decoder shares the Fibonacci books and inverse decode
    // tables with every other shard, so construction cost per sweep is
    // O(schemes), not O(shards) — see `cache_makes_builds_o_schemes`.
    let mut enc = scheme.build(k);
    let mut dec = scheme.build(k);
    let mut ch = BitFlipChannel::new(eps, seed ^ 0x5EED);
    let mut rng = StdRng::seed_from_u64(seed);
    let failures = (0..trials)
        .filter(|_| {
            let d = Word::from_bits(rng.gen::<u128>(), k);
            dec.decode(ch.transmit(enc.encode(d))) != d
        })
        .count() as u64;
    WordErrorEstimate::from_counts(trials, failures)
}

/// [`word_error_rate`] on the deterministic parallel engine: the run is
/// cut by [`mc_shards`] into a thread-count-independent shard list, each
/// shard measured with its own split seed, and the per-shard estimates
/// merged in shard order via [`WordErrorEstimate::merged`] — so any
/// `threads >= 1` returns the identical estimate (the property the
/// determinism proptests pin down).
///
/// Note the sharded estimate differs from the single-stream
/// [`word_error_rate`] at equal `(trials, seed)` — the RNG streams are
/// split differently — but it is a Monte-Carlo estimate of the same
/// quantity with the same variance, and unlike the single-stream form it
/// scales to the paper's low-ε trial counts.
#[must_use]
pub fn word_error_rate_parallel(
    scheme: Scheme,
    k: usize,
    eps: f64,
    trials: u64,
    root_seed: u64,
    threads: usize,
) -> WordErrorEstimate {
    let shards = mc_shards(trials, root_seed);
    WordErrorEstimate::merged(run_shards(threads, &shards, |_, &(shard_trials, seed)| {
        word_error_rate(scheme, k, eps, shard_trials, seed)
    }))
}

/// [`word_error_rate_parallel`] on the scalar reference path — the
/// sharded counterpart of [`word_error_rate_scalar`], kept so CI can
/// `cmp` batch-vs-scalar estimates at any thread count.
#[must_use]
pub fn word_error_rate_parallel_scalar(
    scheme: Scheme,
    k: usize,
    eps: f64,
    trials: u64,
    root_seed: u64,
    threads: usize,
) -> WordErrorEstimate {
    let shards = mc_shards(trials, root_seed);
    WordErrorEstimate::merged(run_shards(threads, &shards, |_, &(shard_trials, seed)| {
        word_error_rate_scalar(scheme, k, eps, shard_trials, seed)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use socbus_model::noise;

    fn assert_close(measured: &WordErrorEstimate, expect: f64, label: &str) {
        let tol = 4.0 * measured.confidence95() + 0.10 * expect;
        assert!(
            (measured.rate - expect).abs() < tol,
            "{label}: measured {} (±{}) vs analytic {expect}",
            measured.rate,
            measured.confidence95()
        );
    }

    #[test]
    fn uncoded_matches_eq7() {
        let (k, eps) = (8, 2e-3);
        let m = word_error_rate(Scheme::Uncoded, k, eps, 200_000, 11);
        assert_close(&m, noise::word_error_uncoded_exact(k, eps), "uncoded");
    }

    #[test]
    fn hamming_matches_eq8() {
        let (k, eps) = (8, 8e-3);
        let m = word_error_rate(Scheme::Hamming, k, eps, 400_000, 13);
        let expect = noise::word_error_hamming(k, 4, eps);
        assert_close(&m, expect, "hamming");
    }

    #[test]
    fn dap_matches_appendix_ii() {
        let (k, eps) = (8, 5e-3);
        let m = word_error_rate(Scheme::Dap, k, eps, 400_000, 17);
        let exact = noise::word_error_dap_exact(k, eps);
        let approx = noise::word_error_dap(k, eps);
        assert_close(&m, exact, "dap exact eq14");
        // The low-eps approximation is close to exact at this eps too.
        assert!((approx - exact).abs() / exact < 0.1);
    }

    #[test]
    fn bsc_matches_dap_reliability() {
        // Same code structure per phase -> same residual error.
        let (k, eps) = (8, 5e-3);
        let m = word_error_rate(Scheme::Bsc, k, eps, 300_000, 19);
        assert_close(&m, noise::word_error_dap_exact(k, eps), "bsc");
    }

    #[test]
    fn dapbi_matches_dap_over_k_plus_1() {
        // DAPBI protects k data bits plus the invert bit with a DAP(k+1).
        let (k, eps) = (8, 5e-3);
        let m = word_error_rate(Scheme::Dapbi, k, eps, 300_000, 23);
        // Failures require >=2 errors; a payload failure corrupts the word.
        let expect = noise::word_error_dap_exact(k + 1, eps);
        // The decoded *data* can still be right when the error lands only
        // in the invert position... both copies plus compensating data —
        // negligible; accept the payload-level bound within tolerance.
        assert_close(&m, expect, "dapbi");
    }

    #[test]
    fn ecc_beats_uncoded_at_matched_eps() {
        let eps = 3e-3;
        let unc = word_error_rate(Scheme::Uncoded, 8, eps, 100_000, 29);
        let dap = word_error_rate(Scheme::Dap, 8, eps, 100_000, 31);
        assert!(
            dap.rate < unc.rate / 5.0,
            "dap {} vs uncoded {}",
            dap.rate,
            unc.rate
        );
    }

    /// Edge cases (ISSUE satellite): zero trials, zero errors, all
    /// errors — every field stays well-defined, never NaN, and the
    /// degenerate 0-failure/all-failure shapes report the rule-of-three
    /// upper bound instead of a width-0 interval.
    #[test]
    fn confidence95_edge_cases_stay_finite() {
        // Zero trials: rate 0 (not 0/0 = NaN), infinite half-width.
        let empty = word_error_rate(Scheme::Uncoded, 8, 0.5, 0, 1);
        assert_eq!(empty.rate, 0.0, "zero-trial rate must not be NaN");
        assert!(empty.rate.is_finite());
        assert_eq!(empty.confidence95(), f64::INFINITY);
        // Zero errors: a clean run does NOT prove rate 0 — it bounds it
        // by the rule of three, 3/n.
        let clean = word_error_rate(Scheme::Uncoded, 8, 0.0, 1000, 1);
        assert_eq!(clean.failures, 0);
        assert_eq!(clean.rate, 0.0);
        assert_eq!(clean.confidence95(), 3.0 / 1000.0);
        // All errors: eps=1 flips every wire, every word fails; the
        // interval mirrors to [1 - 3/n, 1].
        let dirty = word_error_rate(Scheme::Uncoded, 8, 1.0, 1000, 1);
        assert_eq!(dirty.failures, 1000);
        assert_eq!(dirty.rate, 1.0);
        assert_eq!(dirty.confidence95(), 3.0 / 1000.0);
        // A hand-built NaN rate is caught by the guard too.
        let nan = WordErrorEstimate {
            rate: f64::NAN,
            trials: 10,
            failures: 0,
        };
        assert!(!nan.confidence95().is_nan());
    }

    /// ISSUE 9 satellite: the rule-of-three bound at the degenerate
    /// edges — 0 failures, all failures, and the 1-trial extreme (where
    /// 3/n > 1 must clamp to 1, a probability half-width can't exceed 1).
    #[test]
    fn confidence95_zero_failure_rule_of_three() {
        let zero_fail = WordErrorEstimate {
            rate: 0.0,
            trials: 1_000_000,
            failures: 0,
        };
        // The exact one-sided bound is 1 - 0.05^(1/n); 3/n approximates
        // it to within ~0.2% at this n. Never again a degenerate 0.
        let exact = 1.0 - 0.05f64.powf(1e-6);
        assert!(zero_fail.confidence95() > 0.0, "0-failure CI must not be 0");
        assert!((zero_fail.confidence95() - exact).abs() / exact < 5e-3);
        let all_fail = WordErrorEstimate {
            rate: 1.0,
            trials: 64,
            failures: 64,
        };
        assert_eq!(all_fail.confidence95(), 3.0 / 64.0);
        let one_trial = WordErrorEstimate {
            rate: 0.0,
            trials: 1,
            failures: 0,
        };
        assert_eq!(
            one_trial.confidence95(),
            1.0,
            "a single clean trial knows nothing: half-width clamps to 1"
        );
        let one_trial_fail = WordErrorEstimate {
            rate: 1.0,
            trials: 1,
            failures: 1,
        };
        assert_eq!(one_trial_fail.confidence95(), 1.0);
    }

    /// ISSUE 9 tentpole: the weighted tally embeds plain runs exactly
    /// (weight 1 per trial) and its merge recomputes, never averages.
    #[test]
    fn weighted_tally_embeds_plain_runs() {
        let plain = word_error_rate(Scheme::Uncoded, 8, 0.05, 10_000, 3);
        let w = plain.weighted();
        assert_eq!(w.trials, plain.trials);
        assert_eq!(w.failures, plain.failures);
        assert_eq!(w.rate(), plain.rate, "weight-1 tally is the plain rate");
        assert_eq!(w.mean_weight(), 1.0);
        // The unit-weight binomial variance matches the plain normal CI
        // up to the n/(n-1) Bessel correction.
        let n = plain.trials as f64;
        let ratio = w.confidence95() / plain.confidence95();
        assert!((ratio * ratio - n / (n - 1.0)).abs() < 1e-9);
    }

    /// ISSUE 9 satellite (shard-merge-order): weighted merge sums every
    /// field exactly in iteration order and equals the monolithic tally —
    /// mirroring `merged_preserves_tallies_and_recomputes_rate`.
    #[test]
    fn weighted_merge_preserves_sums_and_recomputes_rate() {
        let mut a = WeightedTally::zero();
        a.record(0.5, true);
        a.record(2.0, false);
        let mut b = WeightedTally::zero();
        b.record(0.25, true);
        b.record(1.0, true);
        b.record(1.0, false);
        let m = WeightedTally::merged([a, b]);
        assert_eq!(m.trials, 5);
        assert_eq!(m.failures, 3);
        assert_eq!(m.sum, 0.5 + 0.25 + 1.0);
        assert_eq!(m.sum_sq, 0.25 + 0.0625 + 1.0);
        assert_eq!(m.weighted_trials, 4.75);
        // Recomputed from merged sums, not averaged shard rates.
        assert_eq!(m.rate(), 1.75 / 5.0);
        // Monolithic tally recording the same stream agrees exactly.
        let mut mono = WeightedTally::zero();
        for (w, f) in [
            (0.5, true),
            (2.0, false),
            (0.25, true),
            (1.0, true),
            (1.0, false),
        ] {
            mono.record(w, f);
        }
        assert_eq!(m, mono);
        assert_eq!(m.confidence95(), mono.confidence95());
        // Identity and edge shapes.
        assert_eq!(WeightedTally::merged([]), WeightedTally::zero());
        assert_eq!(WeightedTally::zero().confidence95(), f64::INFINITY);
        let mut clean = WeightedTally::zero();
        clean.record(1.0, false);
        clean.record(1.0, false);
        assert_eq!(
            clean.confidence95(),
            1.0,
            "0 failures in 2 trials: 3/2 clamps to 1"
        );
        assert_eq!(clean.relative_ci95(), f64::INFINITY);
    }

    /// ISSUE 4 satellite: shard merge preserves tallies exactly and
    /// recomputes (never averages) the rate.
    #[test]
    fn merged_preserves_tallies_and_recomputes_rate() {
        let shards = [
            WordErrorEstimate {
                rate: 0.5,
                trials: 10,
                failures: 5,
            },
            WordErrorEstimate {
                rate: 0.01,
                trials: 1000,
                failures: 10,
            },
        ];
        let m = WordErrorEstimate::merged(shards);
        assert_eq!(m.trials, 1010);
        assert_eq!(m.failures, 15);
        // Recomputed from the merged tallies (15/1010 ≈ 0.01485), NOT
        // the shard-rate average (0.255) — unequal shards would bias it.
        assert!((m.rate - 15.0 / 1010.0).abs() < 1e-15);
        // The merged confidence interval is the monolithic run's: an
        // estimate built directly from the same totals agrees exactly.
        let mono = WordErrorEstimate {
            rate: 15.0 / 1010.0,
            trials: 1010,
            failures: 15,
        };
        assert_eq!(m, mono);
        assert_eq!(m.confidence95(), mono.confidence95());
    }

    /// Merge edge cases: empty input, empty shards, all-failure shards.
    #[test]
    fn merged_edge_cases() {
        let zero = WordErrorEstimate::merged([]);
        assert_eq!((zero.rate, zero.trials, zero.failures), (0.0, 0, 0));
        assert_eq!(zero.confidence95(), f64::INFINITY);
        // An empty shard (aborted or zero-length) contributes nothing.
        let empty = WordErrorEstimate {
            rate: 0.0,
            trials: 0,
            failures: 0,
        };
        let real = WordErrorEstimate {
            rate: 0.25,
            trials: 8,
            failures: 2,
        };
        let m = WordErrorEstimate::merged([empty, real, empty]);
        assert_eq!(m, real);
        // An all-failure shard merges to the exact failure count and the
        // one-sided rule-of-three interval when alone.
        let all_fail = WordErrorEstimate {
            rate: 1.0,
            trials: 16,
            failures: 16,
        };
        let solo = WordErrorEstimate::merged([all_fail]);
        assert_eq!(solo.rate, 1.0);
        assert_eq!(solo.confidence95(), 3.0 / 16.0);
        let mixed = WordErrorEstimate::merged([all_fail, real]);
        assert_eq!(mixed.trials, 24);
        assert_eq!(mixed.failures, 18);
        assert!((mixed.rate - 0.75).abs() < 1e-15);
    }

    /// The static decomposition covers every trial exactly once and is
    /// seeded purely by `(root, index)`.
    #[test]
    fn mc_shards_partition_the_trials() {
        for trials in [
            0,
            1,
            MC_SHARD_TRIALS - 1,
            MC_SHARD_TRIALS,
            3 * MC_SHARD_TRIALS + 7,
        ] {
            let shards = mc_shards(trials, 99);
            let total: u64 = shards.iter().map(|&(t, _)| t).sum();
            assert_eq!(total, trials, "trials={trials}");
            assert!(shards.iter().all(|&(t, _)| t > 0 && t <= MC_SHARD_TRIALS));
            let mut seeds: Vec<u64> = shards.iter().map(|&(_, s)| s).collect();
            seeds.sort_unstable();
            seeds.dedup();
            assert_eq!(seeds.len(), shards.len(), "split seeds are distinct");
        }
        assert!(mc_shards(0, 99).is_empty());
    }

    /// The parallel estimate is invariant in the thread count — the
    /// direct (non-proptest) version of the determinism property.
    #[test]
    fn parallel_estimate_is_thread_count_invariant() {
        let trials = 2 * MC_SHARD_TRIALS + 4321;
        let one = word_error_rate_parallel(Scheme::Dap, 8, 5e-3, trials, 7, 1);
        for threads in [2, 3, 7, 16] {
            let n = word_error_rate_parallel(Scheme::Dap, 8, 5e-3, trials, 7, threads);
            assert_eq!(one, n, "threads={threads}");
        }
        assert_eq!(one.trials, trials);
    }

    #[test]
    fn parallel_matches_analytic_rate() {
        // The sharded estimator measures the same quantity as the
        // single-stream one: check it against the analytic formula.
        let (k, eps) = (8, 2e-3);
        let m = word_error_rate_parallel(Scheme::Uncoded, k, eps, 200_000, 11, 4);
        assert_close(&m, noise::word_error_uncoded_exact(k, eps), "parallel");
    }

    #[test]
    fn detection_only_codes_still_deliver_data() {
        // Parity detects but passes data through; residual rate tracks the
        // probability of >=1 data-bit error.
        let (k, eps) = (8, 2e-3);
        let m = word_error_rate(Scheme::Parity, k, eps, 200_000, 37);
        let expect = noise::word_error_uncoded_exact(k, eps);
        assert_close(&m, expect, "parity passthrough");
    }

    /// ISSUE 10 satellite (remainder handling): the batch path must be
    /// byte-identical to the scalar reference at trial counts that leave
    /// partial final blocks — 1, 63 (sub-block), 65 (one full block plus
    /// one word), 65537 (one word past a shard's worth) —
    /// and at block-aligned counts, across stateless, stateful, and
    /// LUT-decoded schemes.
    #[test]
    fn batch_path_is_byte_identical_to_scalar_at_odd_trials() {
        let eps = 2e-2;
        for scheme in [
            Scheme::Uncoded,
            Scheme::Dap,
            Scheme::BusInvert(2),
            Scheme::Ftc,
            Scheme::Bsc,
        ] {
            for trials in [0u64, 1, 63, 64, 65, 2 * 64 + 7] {
                let batch = word_error_rate(scheme, 8, eps, trials, 77);
                let scalar = word_error_rate_scalar(scheme, 8, eps, trials, 77);
                assert_eq!(batch, scalar, "{} at {trials} trials", scheme.name());
            }
        }
        // The long odd run, on a correcting scheme so failures are rare
        // but nonzero at this eps.
        let batch = word_error_rate(Scheme::Dap, 8, eps, 65_537, 77);
        let scalar = word_error_rate_scalar(Scheme::Dap, 8, eps, 65_537, 77);
        assert_eq!(batch, scalar, "DAP at 65537 trials");
        assert!(batch.failures > 0, "test must exercise the failure path");
    }

    /// ISSUE 10 satellite: the sharded batch estimator equals the sharded
    /// scalar one at every thread count, including an odd total that
    /// leaves a remainder shard which itself ends mid-block.
    #[test]
    fn parallel_batch_equals_parallel_scalar_across_threads() {
        let trials = MC_SHARD_TRIALS + 4321;
        let scalar = word_error_rate_parallel_scalar(Scheme::Dap, 8, 5e-3, trials, 7, 1);
        for threads in [1, 2, 8] {
            let batch = word_error_rate_parallel(Scheme::Dap, 8, 5e-3, trials, 7, threads);
            assert_eq!(batch, scalar, "threads={threads}");
        }
    }

    #[test]
    fn cache_makes_builds_o_schemes() {
        // A sharded FTC sweep constructs 2 codecs per shard (enc + dec),
        // but the Fibonacci books and inverse decode tables come from the
        // process-wide kernel cache, so *codebook construction* count per
        // sweep stays O(schemes), not O(shards).
        //
        // `codebook_builds()` is a process-global counter and the test
        // harness runs other tests concurrently, so measure deltas and
        // bound them by the total number of distinct cache keys that can
        // ever exist: 24 raw FP books + 6 raw FT books + 16 FPC kernels +
        // 4 FTC group kernels = 50. Without the cache, *each* sweep below
        // would add >= 2 builds x 2 codecs x 16 shards = 64 on its own.
        let trials = 16 * MC_SHARD_TRIALS;
        assert_eq!(mc_shards(trials, 99).len(), 16);
        let before = socbus_codes::codebook_builds();
        let _ = word_error_rate_parallel(Scheme::Ftc, 3, 1e-3, trials, 99, 4);
        let _ = word_error_rate_parallel(Scheme::Ftc, 3, 1e-3, trials, 7, 4);
        let delta = socbus_codes::codebook_builds() - before;
        assert!(
            delta <= 50,
            "codebook builds must be bounded by distinct keys (50), \
             not shards (>= 64 per sweep if uncached): got {delta}"
        );
    }
}

//! Fixed-effort multilevel splitting keyed on error weight.
//!
//! Importance sampling with one exponential twist concentrates samples
//! around a single error weight; schemes whose failure set mixes weights
//! (mis-correction at `t+1` *and* detection escapes at higher weights)
//! can be under-covered by any single θ. Splitting avoids choosing: the
//! rare event `{decode fails}` is reached through a nested sequence of
//! less-rare events keyed by the error *weight* `W(e)` (flipped-wire
//! count),
//!
//! ```text
//! {W ≥ L_1} ⊇ {W ≥ L_2} ⊇ … ⊇ {W ≥ L_m} ⊇ {fail}
//! ```
//!
//! where the last level `L_m ≤ t+1` is sound by the decode contract —
//! a scheme correcting `t` errors cannot fail on patterns of weight
//! ≤ `t`, so the failure set lives entirely inside `{W ≥ t+1}`. Each
//! stage runs a fixed effort of samples from the previous conditional
//! `p(·|W ≥ L_{l−1})` (via an exact Metropolis kernel: redraw one wire's
//! flip from its unconditional Bernoulli, accept iff the constraint
//! still holds — the acceptance ratio collapses to the indicator, so
//! the conditional is invariant) and measures the fraction reaching the
//! next level; the word-error probability is the product of the stage
//! fractions times the final conditional failure fraction.
//!
//! Replicas are the shard unit: independent replicas run on
//! [`socbus_exec::run_shards`] and merge in replica order, so estimates
//! are byte-identical at any thread count, and the replica spread yields
//! the confidence interval. An empty level schedule degrades *exactly*
//! to plain Monte-Carlo (the regression suite pins byte-equality with
//! [`crate::montecarlo::word_error_rate`]).

use super::{RareChannel, TrialStream, FLIP_SEED_SALT};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socbus_codes::Scheme;
use socbus_exec::{run_shards, shard_seed};

/// The level schedule and effort of one splitting run.
#[derive(Clone, Debug, PartialEq)]
pub struct SplitConfig {
    /// Strictly increasing error-weight thresholds `L_1 < … < L_m`.
    /// Zero thresholds condition on nothing and are dropped at
    /// construction; an empty schedule is plain Monte-Carlo.
    pub levels: Vec<usize>,
    /// Samples per stage per replica.
    pub effort: u64,
    /// Independent replicas (the shard/CI unit).
    pub replicas: u64,
}

impl SplitConfig {
    /// A schedule with the given levels (zeros dropped, must be strictly
    /// increasing after that).
    ///
    /// # Panics
    ///
    /// Panics if the nonzero levels are not strictly increasing, or if
    /// `effort` or `replicas` is 0.
    #[must_use]
    pub fn new(levels: Vec<usize>, effort: u64, replicas: u64) -> SplitConfig {
        assert!(
            effort > 0 && replicas > 0,
            "effort and replicas must be > 0"
        );
        let levels: Vec<usize> = levels.into_iter().filter(|&l| l > 0).collect();
        assert!(
            levels.windows(2).all(|w| w[0] < w[1]),
            "levels must be strictly increasing: {levels:?}"
        );
        SplitConfig {
            levels,
            effort,
            replicas,
        }
    }

    /// The canonical schedule for `scheme` at width `k`: one level per
    /// weight from 1 through `t + 1` (`t` = guaranteed corrected
    /// errors), so the last level provably contains the failure set.
    #[must_use]
    pub fn for_scheme(scheme: Scheme, k: usize, effort: u64, replicas: u64) -> SplitConfig {
        let t = scheme.build(k).correctable_errors();
        SplitConfig::new((1..=t + 1).collect(), effort, replicas)
    }

    /// The degenerate schedule: no levels — plain Monte-Carlo with
    /// `effort` words per replica.
    #[must_use]
    pub fn direct(effort: u64, replicas: u64) -> SplitConfig {
        SplitConfig::new(Vec::new(), effort, replicas)
    }

    /// Simulated words per replica: `effort` per splitting stage plus
    /// `effort` for the final failure-evaluation stage.
    #[must_use]
    pub fn words_per_replica(&self) -> u64 {
        self.effort * (self.levels.len() as u64 + 1)
    }
}

/// Result of a multilevel-splitting run: per-replica probability
/// estimates reduced to the order-deterministic sums that shard-merge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SplitEstimate {
    /// Σ of per-replica probability estimates.
    pub sum: f64,
    /// Σ of squared per-replica estimates.
    pub sum_sq: f64,
    /// Number of replicas merged in.
    pub replicas: u64,
    /// Total simulated words across all replicas and stages.
    pub trials: u64,
    /// Raw failing-decode count in the final stages (diagnostic; 0 means
    /// the failure set was never reached and the estimate is 0).
    pub failures: u64,
}

impl SplitEstimate {
    /// The empty estimate (identity of [`SplitEstimate::merged`]).
    #[must_use]
    pub fn zero() -> SplitEstimate {
        SplitEstimate {
            sum: 0.0,
            sum_sq: 0.0,
            replicas: 0,
            trials: 0,
            failures: 0,
        }
    }

    /// The word-error estimate: mean of the per-replica estimates (each
    /// replica is unbiased, so the mean is).
    #[must_use]
    pub fn rate(&self) -> f64 {
        if self.replicas == 0 {
            0.0
        } else {
            self.sum / self.replicas as f64
        }
    }

    /// 95% half-width from the replica spread (normal approximation on
    /// the replica mean). Falls back to the rule-of-three bound over the
    /// total simulated words when no failure was ever observed, and to
    /// `INFINITY` with no replicas — mirroring
    /// [`crate::montecarlo::WeightedTally::confidence95`].
    #[must_use]
    pub fn confidence95(&self) -> f64 {
        if self.replicas == 0 {
            return f64::INFINITY;
        }
        if self.failures == 0 {
            return (3.0 / self.trials.max(1) as f64).min(1.0);
        }
        if self.replicas < 2 {
            // One replica has no spread information; bound by the
            // estimate itself (one-sided, conservative).
            return self.rate();
        }
        let r = self.replicas as f64;
        let mean = self.sum / r;
        let var = ((self.sum_sq / r - mean * mean) * (r / (r - 1.0))).max(0.0);
        1.96 * (var / r).sqrt()
    }

    /// Relative 95% half-width; `INFINITY` when the rate is 0.
    #[must_use]
    pub fn relative_ci95(&self) -> f64 {
        let r = self.rate();
        if r > 0.0 {
            self.confidence95() / r
        } else {
            f64::INFINITY
        }
    }

    /// Merges per-replica estimates in iteration order — every field a
    /// plain sum, so the merge is order-deterministic (float sums) and
    /// exact (integer tallies), mirroring
    /// [`crate::montecarlo::WeightedTally::merged`].
    #[must_use]
    pub fn merged(parts: impl IntoIterator<Item = SplitEstimate>) -> SplitEstimate {
        let mut out = SplitEstimate::zero();
        for p in parts {
            out.sum += p.sum;
            out.sum_sq += p.sum_sq;
            out.replicas += p.replicas;
            out.trials += p.trials;
            out.failures += p.failures;
        }
        out
    }
}

/// Weight of an error pattern (flipped-wire count).
fn weight(pattern: u128) -> usize {
    pattern.count_ones() as usize
}

/// Draws a fresh i.i.d. error pattern at rate `eps` — the identical
/// per-wire draw shape as [`crate::BitFlipChannel::transmit`], which is
/// what makes the level-free schedule reproduce plain Monte-Carlo byte
/// for byte.
fn draw_pattern(rng: &mut StdRng, wires: usize, eps: f64) -> u128 {
    let mut pattern = 0u128;
    for i in 0..wires {
        if rng.gen::<f64>() < eps {
            pattern |= 1u128 << i;
        }
    }
    pattern
}

/// One sweep of the Metropolis kernel preserving `p(·|W ≥ floor)`:
/// `wires` single-site moves, each redrawing one uniformly chosen wire's
/// flip from its unconditional Bernoulli and accepting iff the
/// constraint still holds (the Hastings ratio is exactly the indicator —
/// see the module docs).
fn mutate(rng: &mut StdRng, pattern: u128, wires: usize, eps: f64, floor: usize) -> u128 {
    let mut cur = pattern;
    for _ in 0..wires {
        let wire = rng.gen_range(0..wires);
        let bit = 1u128 << wire;
        let proposed = if rng.gen::<f64>() < eps {
            cur | bit
        } else {
            cur & !bit
        };
        if weight(proposed) >= floor {
            cur = proposed;
        }
    }
    cur
}

/// One replica: the full level cascade at i.i.d. rate `eps`, returning
/// `(probability estimate, failing decodes)`.
fn split_replica(
    scheme: Scheme,
    k: usize,
    eps: f64,
    config: &SplitConfig,
    seed: u64,
) -> (f64, u64) {
    let mut stream = TrialStream::new(scheme, k, seed);
    let mut flip_rng = StdRng::seed_from_u64(seed ^ FLIP_SEED_SALT);
    let wires = stream.wires();
    let effort = config.effort;
    if config.levels.is_empty() {
        // Degenerate schedule: plain Monte-Carlo, interleaved per trial
        // exactly like `word_error_rate` (pattern draw then decode).
        let mut failures = 0u64;
        for _ in 0..effort {
            let pattern = draw_pattern(&mut flip_rng, wires, eps);
            if stream.fails_with_pattern(pattern) {
                failures += 1;
            }
        }
        return (failures as f64 / effort as f64, failures);
    }
    let mut p_hat = 1.0f64;
    let mut seeds: Vec<u128> = Vec::new();
    for (stage, &level) in config.levels.iter().enumerate() {
        let mut hits: Vec<u128> = Vec::new();
        if stage == 0 {
            // Entry stage: fresh unconditional draws.
            for _ in 0..effort {
                let pattern = draw_pattern(&mut flip_rng, wires, eps);
                if weight(pattern) >= level {
                    hits.push(pattern);
                }
            }
        } else {
            let floor = config.levels[stage - 1];
            for j in 0..effort {
                let from = seeds[j as usize % seeds.len()];
                let pattern = mutate(&mut flip_rng, from, wires, eps, floor);
                if weight(pattern) >= level {
                    hits.push(pattern);
                }
            }
        }
        p_hat *= hits.len() as f64 / effort as f64;
        if hits.is_empty() {
            // Cascade extinct: the estimate for this replica is 0.
            return (0.0, 0);
        }
        seeds = hits;
    }
    // Final stage: samples conditioned on the last level, decoded for
    // real. The last level bounds the failure set from above (decode
    // contract), so this conditional fraction completes the product.
    let floor = *config.levels.last().expect("nonempty levels");
    let mut failures = 0u64;
    for j in 0..effort {
        let from = seeds[j as usize % seeds.len()];
        let pattern = mutate(&mut flip_rng, from, wires, eps, floor);
        if stream.fails_with_pattern(pattern) {
            failures += 1;
        }
    }
    (p_hat * failures as f64 / effort as f64, failures)
}

/// Multilevel-splitting word-error estimate of `scheme` at width `k`
/// through `channel` under `config`, all replicas sequential
/// (= [`split_word_error_parallel`] at `threads = 1`).
///
/// A [`RareChannel::Burst`] channel is handled by exact chain
/// marginalization: each replica runs the cascade once per state and
/// mixes the two estimates by the closed-form average occupancy — the
/// identical quantity [`super::exact::FailureProfile::wer_channel`]
/// computes.
#[must_use]
pub fn split_word_error(
    scheme: Scheme,
    k: usize,
    channel: RareChannel,
    config: &SplitConfig,
    root_seed: u64,
) -> SplitEstimate {
    split_word_error_parallel(scheme, k, channel, config, root_seed, 1)
}

/// [`split_word_error`] on the deterministic parallel engine: replicas
/// are the shards, each seeded by [`shard_seed`] from the root seed and
/// replica index, merged in replica order via [`SplitEstimate::merged`]
/// — byte-identical at any `threads >= 1`.
#[must_use]
pub fn split_word_error_parallel(
    scheme: Scheme,
    k: usize,
    channel: RareChannel,
    config: &SplitConfig,
    root_seed: u64,
    threads: usize,
) -> SplitEstimate {
    let shards: Vec<u64> = (0..config.replicas)
        .map(|r| shard_seed(root_seed, r))
        .collect();
    // Burst marginalization: mix per-state cascades at the closed-form
    // occupancy over this run's total word budget.
    let total_words = config.words_per_replica() * config.replicas;
    let estimates = run_shards(threads, &shards, |_, &seed| {
        let (p_hat, failures) = match channel {
            RareChannel::Iid { eps } => split_replica(scheme, k, eps, config, seed),
            RareChannel::Burst {
                eps_good, eps_bad, ..
            } => {
                let q = channel.occupancy(total_words);
                let (p_good, f_good) = split_replica(scheme, k, eps_good, config, seed);
                let (p_bad, f_bad) = split_replica(scheme, k, eps_bad, config, seed ^ 0xB1_A5ED);
                (q * p_bad + (1.0 - q) * p_good, f_good + f_bad)
            }
        };
        let words = match channel {
            RareChannel::Iid { .. } => config.words_per_replica(),
            RareChannel::Burst { .. } => 2 * config.words_per_replica(),
        };
        SplitEstimate {
            sum: p_hat,
            sum_sq: p_hat * p_hat,
            replicas: 1,
            trials: words,
            failures,
        }
    });
    SplitEstimate::merged(estimates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::word_error_rate;

    #[test]
    fn config_normalizes_and_guards() {
        let c = SplitConfig::new(vec![0, 1, 3], 100, 4);
        assert_eq!(c.levels, vec![1, 3]);
        assert_eq!(SplitConfig::direct(10, 2).levels, Vec::<usize>::new());
        let auto = SplitConfig::for_scheme(Scheme::Dap, 8, 100, 4);
        assert_eq!(auto.levels, vec![1, 2], "DAP corrects 1: levels 1..=2");
        assert_eq!(auto.words_per_replica(), 300);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn config_rejects_non_increasing_levels() {
        let _ = SplitConfig::new(vec![2, 2], 100, 1);
    }

    #[test]
    fn direct_schedule_is_plain_monte_carlo_byte_for_byte() {
        // ISSUE 9 satellite: splitting with a trivial schedule degrades
        // to plain MC *exactly* — same RNG streams, same failure count.
        let (scheme, k, eps, seed) = (Scheme::Hamming, 8, 0.02, 97);
        let config = SplitConfig::direct(20_000, 1);
        let split = split_word_error(scheme, k, RareChannel::Iid { eps }, &config, seed);
        // Replica 0 runs at shard_seed(seed, 0); compare the plain
        // estimator at that same derived seed.
        let plain = word_error_rate(scheme, k, eps, 20_000, shard_seed(seed, 0));
        assert_eq!(split.failures, plain.failures, "identical failure stream");
        assert_eq!(split.rate(), plain.rate, "identical rate, bit for bit");
    }

    #[test]
    fn mutation_preserves_constraint_and_marginal() {
        // The kernel must never leave the constraint set, and its
        // stationary weight distribution must match the conditional
        // binomial (chi-square-free sanity: mean within 3 sigma).
        let mut rng = StdRng::seed_from_u64(5);
        let (wires, eps, floor) = (10, 0.3, 2);
        let mut cur = (1u128 << floor) - 1; // weight == floor
        let mut sum_w = 0.0;
        let samples = 20_000;
        for _ in 0..samples {
            cur = mutate(&mut rng, cur, wires, eps, floor);
            assert!(weight(cur) >= floor);
            sum_w += weight(cur) as f64;
        }
        // Conditional mean of Binomial(10, 0.3) given W >= 2.
        let mut num = 0.0;
        let mut den = 0.0;
        for w in floor..=wires {
            let mut c = 1.0;
            for i in 0..w {
                c *= (wires - i) as f64 / (i + 1) as f64;
            }
            let p = c * eps.powi(w as i32) * (1.0 - eps).powi((wires - w) as i32);
            num += w as f64 * p;
            den += p;
        }
        let expect = num / den;
        let got = sum_w / samples as f64;
        assert!(
            (got - expect).abs() < 0.05,
            "conditional mean {got} vs exact {expect}"
        );
    }

    #[test]
    fn split_is_thread_count_invariant() {
        let config = SplitConfig::for_scheme(Scheme::Dap, 8, 2_000, 8);
        let ch = RareChannel::Iid { eps: 1e-3 };
        let one = split_word_error_parallel(Scheme::Dap, 8, ch, &config, 3, 1);
        let eight = split_word_error_parallel(Scheme::Dap, 8, ch, &config, 3, 8);
        assert_eq!(one, eight);
        assert!(one.failures > 0, "cascade must reach the failure set");
    }

    #[test]
    fn split_estimate_merge_mirrors_weighted_tally() {
        let a = SplitEstimate {
            sum: 0.5,
            sum_sq: 0.25,
            replicas: 1,
            trials: 100,
            failures: 3,
        };
        let b = SplitEstimate {
            sum: 0.1,
            sum_sq: 0.01,
            replicas: 1,
            trials: 100,
            failures: 1,
        };
        let m = SplitEstimate::merged([a, b]);
        assert_eq!(m.replicas, 2);
        assert_eq!(m.rate(), 0.3);
        assert_eq!(m.trials, 200);
        assert_eq!(SplitEstimate::merged([]), SplitEstimate::zero());
        assert_eq!(SplitEstimate::zero().confidence95(), f64::INFINITY);
        let clean = SplitEstimate {
            sum: 0.0,
            sum_sq: 0.0,
            replicas: 4,
            trials: 1000,
            failures: 0,
        };
        assert_eq!(clean.confidence95(), 3.0 / 1000.0, "rule of three");
        assert_eq!(clean.relative_ci95(), f64::INFINITY);
    }
}

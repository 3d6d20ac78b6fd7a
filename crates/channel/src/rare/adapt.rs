//! The adaptive driver: per-`(scheme, ε)` tilt selection and
//! relative-error-controlled certification.
//!
//! The right twist θ depends on which error weights dominate a scheme's
//! failure set — a single-error-correcting code at ε = 1e-6 wants the
//! tilt that makes weight-2 patterns common, a DEC code wants weight-3,
//! and an uncoded bus wants barely any tilt at all. Rather than encode
//! per-scheme analysis, [`plan`] runs a short **pilot** at each
//! candidate tilt and keeps the one with the smallest pilot relative
//! CI among those whose pilot saw a failure. When no candidate fails,
//! θ stays 0 with pilot rate 0. That happens only where the true rate
//! is 0: at ε = 0, and at ε = 1 on a code whose decoder undoes a flip
//! of every wire (BI(1), BI(8), BIH, DAPBI). [`certify`] then runs the
//! plain sampler there and reports rate 0, not converged.
//!
//! [`certify`] drives the chosen tilt in geometrically growing batches,
//! merging tallies in batch order (deterministic at any thread count),
//! until the 95% CI half-width is within the requested fraction of the
//! estimate or the word budget is exhausted — the loop behind every
//! `BENCH_rare.json` cell.

use super::twist::{is_word_error, is_word_error_parallel};
use crate::montecarlo::WeightedTally;
use socbus_codes::Scheme;
use socbus_exec::shard_seed;
use socbus_telemetry::Telemetry;

/// Pilot trials per candidate twist.
pub const PILOT_TRIALS: u64 = 2_048;

/// Twisted-ε targets the pilot sweeps. Candidates are defined by where
/// the tilt *lands* (`ε_θ`), not by absolute θ — at ε = 1e-12 the tilt
/// needed to make errors common is θ ≈ 27, at ε = 1e-3 it is θ ≈ 6; a
/// fixed θ grid can't serve both, a target grid serves any ε.
const TWISTED_EPS_TARGETS: [f64; 7] = [0.02, 0.05, 0.1, 0.15, 0.25, 0.35, 0.5];

/// The tilt θ that maps flip probability `eps` to `target` under
/// exponential twisting: θ = logit(target) − logit(eps).
fn theta_for(eps: f64, target: f64) -> f64 {
    (target / (1.0 - target)).ln() - (eps / (1.0 - eps)).ln()
}

/// The pilot's candidate tilts at flip probability `eps`: 0 (the
/// nominal measure) plus one tilt per [`TWISTED_EPS_TARGETS`] entry
/// meaningfully above `eps`.
fn candidate_thetas(eps: f64) -> Vec<f64> {
    let mut out = vec![0.0];
    if eps > 0.0 && eps < 0.5 {
        for &target in &TWISTED_EPS_TARGETS {
            if target > 2.0 * eps {
                out.push(theta_for(eps, target));
            }
        }
    }
    out
}

/// Result of [`plan`]: the chosen tilt plus the pilot evidence.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    /// Scheme under test.
    pub scheme: Scheme,
    /// Data bits per transfer.
    pub k: usize,
    /// i.i.d. per-wire flip probability of the cell.
    pub eps: f64,
    /// The selected exponential tilt (0 when no pilot candidate failed).
    pub theta: f64,
    /// Pilot estimate of the rate under the winning candidate (0 when
    /// the pilot never failed).
    pub pilot_rate: f64,
    /// Total pilot words simulated across all candidates.
    pub pilot_words: u64,
}

/// Pilot-selects the tilt for `(scheme, k, eps)`: runs [`PILOT_TRIALS`]
/// importance-sampled words at every candidate tilt and keeps the
/// candidate with the smallest pilot relative CI among those that
/// observed at least one failure, or θ = 0 when none did. Fully
/// deterministic in `seed` (each candidate gets a split sub-seed).
#[must_use]
pub fn plan(scheme: Scheme, k: usize, eps: f64, seed: u64) -> Plan {
    let mut pilot_words = 0u64;
    let mut best: Option<(f64, f64, f64)> = None;
    for (candidate, theta) in candidate_thetas(eps).into_iter().enumerate() {
        let tally = is_word_error(
            scheme,
            k,
            eps,
            theta,
            PILOT_TRIALS,
            shard_seed(seed, candidate as u64),
        );
        pilot_words += PILOT_TRIALS;
        if tally.failures == 0 {
            continue;
        }
        let score = tally.relative_ci95();
        if best.is_none_or(|(_, _, best_score)| score < best_score) {
            best = Some((theta, tally.rate(), score));
        }
    }
    let (theta, pilot_rate, _) = best.unwrap_or((0.0, 0.0, f64::INFINITY));
    Plan {
        scheme,
        k,
        eps,
        theta,
        pilot_rate,
        pilot_words,
    }
}

/// A certified word-error rate: estimate, CI, and the work that bought
/// it.
#[derive(Clone, Debug, PartialEq)]
pub struct Certification {
    /// Scheme under test.
    pub scheme: Scheme,
    /// Data bits per transfer.
    pub k: usize,
    /// i.i.d. per-wire flip probability the estimate integrates over.
    pub eps: f64,
    /// The exponential tilt that produced the numbers.
    pub theta: f64,
    /// The word-error estimate.
    pub rate: f64,
    /// 95% CI half-width.
    pub ci95: f64,
    /// `ci95 / rate` (`INFINITY` when the rate is 0).
    pub rel_ci95: f64,
    /// Total simulated words, pilot included.
    pub words: u64,
    /// Whether the relative-CI target was met within the word budget.
    pub converged: bool,
}

/// Certifies the WER of `(scheme, k, eps)` to relative 95% CI
/// half-width `target_rel` using at most `max_words` simulated words
/// (pilot included): plans via [`plan`], then drives the chosen tilt in
/// geometrically growing batches merged in batch order — so the
/// stopping decision depends only on thread-count-invariant merged
/// tallies and the result is byte-identical at any `threads`.
///
/// `tel` records one `mc.rare.certify.batch` event per batch (value =
/// words done) and the final `mc.rare.rate`/`mc.rare.ci95` gauges, all
/// from the merge path in batch order, so the recording is
/// thread-count invariant too.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn certify(
    scheme: Scheme,
    k: usize,
    eps: f64,
    target_rel: f64,
    max_words: u64,
    seed: u64,
    threads: usize,
    tel: &Telemetry,
) -> Certification {
    let plan = plan(scheme, k, eps, seed);
    let mut words = plan.pilot_words;
    let scheme_name = if tel.is_enabled() {
        scheme.name()
    } else {
        String::new()
    };
    let labels = [("scheme", scheme_name.as_str())];
    let mut batch_words = 65_536u64.min(max_words.saturating_sub(words).max(1));
    let mut batch_index = 0u64;
    let mut merged = WeightedTally::zero();
    while words < max_words {
        let trials = batch_words.min(max_words - words);
        let batch = is_word_error_parallel(
            scheme,
            k,
            eps,
            plan.theta,
            trials,
            shard_seed(seed ^ 0xCE87, batch_index),
            threads,
        );
        merged = WeightedTally::merged([merged, batch]);
        words += trials;
        batch_index += 1;
        if tel.is_enabled() {
            tel.event("mc.rare.certify.batch", &labels, words);
        }
        if merged.failures > 0 && merged.relative_ci95() <= target_rel {
            break;
        }
        batch_words = batch_words.saturating_mul(2);
    }
    let (rate, ci95, rel_ci95) = (merged.rate(), merged.confidence95(), merged.relative_ci95());
    if tel.is_enabled() {
        tel.gauge("mc.rare.rate", &labels, rate);
        tel.gauge("mc.rare.ci95", &labels, ci95);
    }
    Certification {
        scheme,
        k,
        eps,
        theta: plan.theta,
        rate,
        ci95,
        rel_ci95,
        words,
        converged: rel_ci95 <= target_rel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_picks_plain_sampling_at_high_eps() {
        // At ε = 0.05 an uncoded bus fails constantly: the untwisted
        // pilot has the best relative CI, or near it — the chosen theta
        // must be small.
        let p = plan(Scheme::Uncoded, 8, 0.05, 1);
        assert!(p.theta <= 3.0, "chose theta {}", p.theta);
        assert!(p.pilot_rate > 0.1);
        assert!(p.pilot_words >= PILOT_TRIALS);
    }

    #[test]
    fn plan_picks_aggressive_twist_at_low_eps() {
        // At ε = 1e-6 a DEC code fails only at weight >= 3 — untwisted
        // pilots see nothing; the target-grid tilt reaches in anyway.
        let p = plan(Scheme::BchDec, 4, 1e-6, 2);
        assert!(p.theta >= 5.0, "chose theta {}", p.theta);
        assert!(p.pilot_rate > 0.0);
    }

    #[test]
    fn theta_for_lands_on_target() {
        for eps in [1e-12, 1e-6, 1e-3, 0.01] {
            for target in TWISTED_EPS_TARGETS {
                let got = crate::rare::twist::twisted_eps(eps, theta_for(eps, target));
                assert!(
                    (got - target).abs() < 1e-9,
                    "eps={eps} target={target}: landed {got}"
                );
            }
        }
    }

    #[test]
    fn certify_meets_target_within_budget() {
        let cert = certify(
            Scheme::Dap,
            8,
            1e-4,
            0.3,
            2_000_000,
            7,
            2,
            &Telemetry::off(),
        );
        assert!(cert.converged, "rel ci {}", cert.rel_ci95);
        assert!(cert.rel_ci95 <= 0.3);
        assert!(cert.words <= 2_000_000);
        assert!(cert.rate > 0.0);
    }

    #[test]
    fn certify_is_thread_count_invariant() {
        let off = Telemetry::off();
        let a = certify(Scheme::Hamming, 8, 1e-3, 0.3, 500_000, 11, 1, &off);
        let b = certify(Scheme::Hamming, 8, 1e-3, 0.3, 500_000, 11, 8, &off);
        assert_eq!(a, b);
    }
}

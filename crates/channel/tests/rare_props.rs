//! Rare-event estimator verification suite (ISSUE 9 satellites).
//!
//! An unbiased-but-wrong importance sampler fails *silently*: its CI is
//! tight around the wrong number and every downstream voltage-scaling
//! decision inherits the error. This suite is what makes it fail
//! loudly, in three layers:
//!
//! 1. **Oracle cross-checks** — for every catalog scheme narrow enough
//!    to enumerate (`rare::exact::oracle_catalog`, all wires ≤ 12), the
//!    adaptively-driven IS estimate must be statistically consistent
//!    with the *exact* WER from exhaustive pattern enumeration.
//! 2. **Coverage** — the claimed 95% CI must actually cover: across 100
//!    independent estimator runs, the empirical coverage of the exact
//!    rate is ≥ 90% (proptest over scheme, ε, and seed; the vendored
//!    proptest is deterministic per test name, so green stays green).
//! 3. **Exact degenerations** — zero twist reproduces the plain
//!    Monte-Carlo estimator byte for byte (above 128 wires too), weights
//!    self-normalize to 1, the planner falls back to θ = 0 only where the
//!    true rate is 0, and every estimator is byte-identical at any
//!    thread count, traced included.

use proptest::prelude::*;
use socbus_channel::montecarlo::{word_error_rate, word_error_rate_parallel};
use socbus_channel::rare::{
    certify, failure_profile, is_word_error, is_word_error_parallel, oracle_catalog, plan,
};
use socbus_codes::Scheme;
use socbus_exec::shard_seed;
use socbus_telemetry::{Recorder, Telemetry};
use std::rc::Rc;

/// The headline oracle cross-check: for every enumerable catalog scheme
/// and ε ∈ {1e-1, 1e-2, 1e-3}, the pilot-planned, relative-error-driven
/// IS estimate must land within 2 CI half-widths of the exhaustive
/// truth (97.7% two-sided per cell; all seeds fixed, so this is a
/// regression pin, not a coin flip).
#[test]
fn oracle_cross_check_importance_sampling_covers_exact() {
    for (scheme, k) in oracle_catalog() {
        let profile = failure_profile(scheme, k);
        for (i, eps) in [1e-1, 1e-2, 1e-3].into_iter().enumerate() {
            let exact = profile.wer(eps);
            assert!(
                exact > 0.0,
                "{} k={k}: exact WER 0 at eps={eps}",
                scheme.name()
            );
            let cert = certify(
                scheme,
                k,
                eps,
                0.3,
                400_000,
                1000 + i as u64,
                2,
                &Telemetry::off(),
            );
            assert!(
                cert.rate > 0.0,
                "{} k={k} eps={eps}: estimator never reached the failure set",
                scheme.name()
            );
            let gap = (cert.rate - exact).abs();
            assert!(
                gap <= 2.0 * cert.ci95,
                "{} k={k} eps={eps}: estimate {} (±{}) vs exact {exact} — gap {gap}",
                scheme.name(),
                cert.rate,
                cert.ci95
            );
        }
    }
}

/// ISSUE 9 satellite: likelihood-ratio weights are self-normalizing —
/// under the twisted measure `E[w] = 1` exactly, so the mean weight
/// over a long run must concentrate near 1 even at an aggressive tilt.
#[test]
fn likelihood_ratio_weights_sum_to_one_under_nominal() {
    for theta in [0.0, 1.5, 3.0] {
        let tally = is_word_error(Scheme::Hamming, 8, 5e-3, theta, 200_000, 5);
        let mw = tally.mean_weight();
        assert!(
            (mw - 1.0).abs() < 0.05,
            "theta={theta}: mean weight {mw} drifted from 1"
        );
        assert!((tally.weighted_trials - tally.trials as f64).abs() < 0.05 * tally.trials as f64);
    }
}

/// ISSUE 9 satellite: zero-twist IS **is** the plain estimator — same
/// RNG streams, same failure stream, weights exactly 1 — byte for byte,
/// in both the single-stream and sharded forms. The rows after the
/// first put the bus above 128 wires (130, 130, 136, 255 and 255), past
/// what one `u128` error pattern can hold.
#[test]
fn zero_twist_reproduces_plain_estimator_byte_for_byte() {
    let rows = [
        (Scheme::Dap, 8, 5e-3, 41, 70_000u64),
        (Scheme::ExtHamming, 121, 2e-3, 5, 20_000),
        (Scheme::Dapx, 64, 2e-3, 5, 20_000),
        (Scheme::BchDec, 120, 2e-3, 5, 20_000),
        (Scheme::Shielding, 128, 2e-3, 5, 20_000),
        (Scheme::Dapbi, 126, 2e-3, 5, 20_000),
    ];
    for (scheme, k, eps, seed, trials) in rows {
        let name = scheme.name();
        let plain = word_error_rate(scheme, k, eps, trials, seed);
        let is = is_word_error(scheme, k, eps, 0.0, trials, seed);
        assert_eq!(
            is,
            plain.weighted(),
            "{name} k={k}: single-stream zero-twist diverged"
        );
        assert_eq!(
            is.rate().to_bits(),
            plain.rate.to_bits(),
            "{name} k={k}: rate bit-identical"
        );
        let plain_par = word_error_rate_parallel(scheme, k, eps, trials, seed, 4);
        let is_par = is_word_error_parallel(scheme, k, eps, 0.0, trials, seed, 4);
        assert_eq!(
            is_par,
            plain_par.weighted(),
            "{name} k={k}: sharded zero-twist diverged"
        );
    }
}

/// The pilot planner is deterministic, and for every oracle cell at
/// every ε strictly between 0 and 1 on the grid (from 1e-12, where
/// plain MC at pilot effort sees nothing, to 0.45) it picks a tilt
/// whose pilot saw failures. At ε = 0 no candidate can fail: θ stays 0
/// with pilot rate 0, and `certify` reports rate 0, not converged —
/// the only kind of cell the planner leaves without evidence.
#[test]
fn planner_always_returns_a_viable_method() {
    let off = Telemetry::off();
    for (scheme, k) in oracle_catalog() {
        let name = scheme.name();
        assert_eq!(
            plan(scheme, k, 1e-3, 77),
            plan(scheme, k, 1e-3, 77),
            "{name}: plan must be deterministic"
        );
        for eps in [1e-12, 1e-6, 1e-3, 0.05, 0.45] {
            let p = plan(scheme, k, eps, 77);
            assert!(
                p.pilot_rate > 0.0,
                "{name} k={k} eps={eps}: theta {} chosen without evidence",
                p.theta
            );
        }
        let p = plan(scheme, k, 0.0, 77);
        assert_eq!((p.theta, p.pilot_rate), (0.0, 0.0), "{name} k={k} eps=0");
        let cert = certify(scheme, k, 0.0, 0.3, 4_096, 77, 1, &off);
        assert_eq!(cert.rate, 0.0, "{name} k={k} eps=0");
        assert!(!cert.converged, "{name} k={k} eps=0");
    }
}

/// ISSUE 9 satellite (determinism, untraced): every rare estimator is
/// byte-identical at `--threads 1` vs `--threads 8`.
#[test]
fn estimators_are_thread_count_invariant_untraced() {
    let is1 = is_word_error_parallel(Scheme::Dapbi, 4, 1e-3, 3.0, 150_000, 3, 1);
    let is8 = is_word_error_parallel(Scheme::Dapbi, 4, 1e-3, 3.0, 150_000, 3, 8);
    assert_eq!(is1, is8, "IS estimator diverged across thread counts");
    let off = Telemetry::off();
    let c1 = certify(Scheme::Hamming, 8, 1e-3, 0.3, 300_000, 3, 1, &off);
    let c8 = certify(Scheme::Hamming, 8, 1e-3, 0.3, 300_000, 3, 8, &off);
    assert_eq!(c1, c8, "certify diverged across thread counts");
}

/// Determinism (traced): `certify` records its batches from the merge
/// path in batch order, so the *entire recording* — exported JSONL,
/// byte for byte — is thread-count invariant too.
#[test]
fn estimators_are_thread_count_invariant_traced() {
    for scheme in [Scheme::Hamming, Scheme::Dap] {
        let run = |threads: usize| {
            let rec = Rc::new(Recorder::new());
            let tel = Telemetry::from_recorder(&rec);
            let cert = certify(scheme, 8, 1e-3, 0.3, 300_000, 7, threads, &tel);
            drop(tel);
            (cert, rec.export_jsonl())
        };
        let (c1, j1) = run(1);
        let (c8, j8) = run(8);
        assert_eq!(c1, c8);
        assert_eq!(
            j1, j8,
            "{scheme:?}: certify telemetry diverged across thread counts"
        );
        assert!(j1.contains("mc.rare.certify.batch"), "batch events missing");
        assert!(j1.contains("mc.rare.ci95"), "final gauges missing");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// ISSUE 9 satellite: CI coverage. Across 100 independent IS runs
    /// (fresh derived seed each), the claimed 95% CI must cover the
    /// exact WER at least 90 times.
    #[test]
    fn ci_coverage_is_at_least_90_percent(
        scheme_pick in any::<u64>(),
        eps in 5e-3f64..0.03,
        base_seed in any::<u64>(),
    ) {
        let cells = [(Scheme::Dap, 4usize), (Scheme::Hamming, 6), (Scheme::Uncoded, 8)];
        let (scheme, k) = cells[(scheme_pick % cells.len() as u64) as usize];
        let exact = failure_profile(scheme, k).wer(eps);
        let mut covered = 0u32;
        for run in 0..100u64 {
            let tally = is_word_error_parallel(
                scheme,
                k,
                eps,
                1.5,
                10_000,
                shard_seed(base_seed, run),
                2,
            );
            if (tally.rate() - exact).abs() <= tally.confidence95() {
                covered += 1;
            }
        }
        prop_assert!(
            covered >= 90,
            "{} k={k} eps={eps}: CI covered exact WER only {covered}/100 times",
            scheme.name()
        );
    }

    /// Weighted determinism across a random grid: thread counts 1, 2,
    /// and 7 agree on the IS tally for any (scheme, eps, trials, seed),
    /// the rare-event mirror of PR 4's plain-MC determinism proptest.
    #[test]
    fn is_tally_is_thread_count_invariant(
        scheme_pick in any::<u64>(),
        eps in 1e-4f64..0.05,
        theta in 0.0f64..5.0,
        trials in 1u64..80_000,
        root_seed in any::<u64>(),
    ) {
        let catalog = oracle_catalog();
        let (scheme, k) = catalog[(scheme_pick % catalog.len() as u64) as usize];
        let one = is_word_error_parallel(scheme, k, eps, theta, trials, root_seed, 1);
        let two = is_word_error_parallel(scheme, k, eps, theta, trials, root_seed, 2);
        let seven = is_word_error_parallel(scheme, k, eps, theta, trials, root_seed, 7);
        prop_assert_eq!(one, two, "1 vs 2 threads diverged");
        prop_assert_eq!(one, seven, "1 vs 7 threads diverged");
        prop_assert_eq!(one.trials, trials);
    }
}

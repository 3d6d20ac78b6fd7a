//! Rare-event word-error estimation on the i.i.d. channel: importance
//! sampling checked against an exhaustive-enumeration oracle.
//!
//! The paper's central claim — unified crosstalk/error coding lets the
//! bus scale voltage down while *holding* a word-error target — is only
//! testable at production DSM targets (WER ≤ 1e-12) if the harness can
//! estimate rates plain Monte-Carlo cannot reach: at WER 1e-12 a direct
//! simulation needs ~1e14 trials for a single decimal digit. Every
//! estimate here is over the one channel the paper rates codes on, the
//! i.i.d. per-wire flip with probability ε of eq. (5):
//!
//! * [`twist`] — **importance sampling**: the per-wire flip distribution
//!   is exponentially tilted toward error-causing draws and every trial
//!   carries the exact likelihood ratio back to the nominal measure, so
//!   the weighted estimator is provably unbiased
//!   (`E[w·fail] = Σ_e q(e)·(p(e)/q(e))·fail(e) = p_fail`), with
//!   streaming variance tracking for a relative-error-controlled 95% CI.
//! * [`exact`] — the **exhaustive-enumeration oracle**: for small buses
//!   it sums channel probabilities over *all* error patterns (and all
//!   data words), producing the true WER the estimator must converge
//!   to. An unbiased-but-wrong IS estimator fails silently — the oracle
//!   suite in `tests/rare_props.rs` is what makes it fail loudly.
//! * [`adapt`] — the **adaptive driver**: a short pilot run picks the
//!   tilt θ per `(scheme, ε)`, and [`certify`] drives it to a relative
//!   CI target. When no pilot candidate fails, θ stays 0 and the cell
//!   reports rate 0, not converged: that happens only where the true
//!   rate is 0 (ε = 0, or ε = 1 on a code whose decoder undoes a flip
//!   of every wire).
//!
//! The estimators shard over `socbus_exec` with merged
//! `(sum, sum_sq, weighted_trials)` accumulators
//! ([`crate::montecarlo::WeightedTally`]) in shard order, so results are
//! byte-identical at any `--threads N`; [`certify`] records its batches
//! as `mc.rare.*` telemetry.

pub mod adapt;
pub mod exact;
pub mod twist;

pub use adapt::{certify, plan, Certification, Plan};
pub use exact::{failure_profile, oracle_catalog, FailureProfile};
pub use twist::{is_word_error, is_word_error_parallel, twisted_eps};

//! Rare-event word-error estimation: importance sampling, multilevel
//! splitting, and an exhaustive-enumeration oracle.
//!
//! The paper's central claim — unified crosstalk/error coding lets the
//! bus scale voltage down while *holding* a word-error target — is only
//! testable at production DSM targets (WER ≤ 1e-12) if the harness can
//! estimate rates plain Monte-Carlo cannot reach: at WER 1e-12 a direct
//! simulation needs ~1e14 trials for a single decimal digit. This module
//! closes that gap with three cooperating estimators:
//!
//! * [`twist`] — **importance sampling**: the per-wire flip distribution
//!   is exponentially tilted toward error-causing draws and every trial
//!   carries the exact likelihood ratio back to the nominal measure, so
//!   the weighted estimator is provably unbiased
//!   (`E[w·fail] = Σ_e q(e)·(p(e)/q(e))·fail(e) = p_fail`), with
//!   streaming variance tracking for a relative-error-controlled 95% CI.
//!   The Gilbert–Elliott burst channel additionally gets burst-occupancy
//!   twisting (the marginal of burst-length tilting).
//! * [`split`] — **fixed-effort multilevel splitting** keyed on the
//!   error *weight* (flipped-wire count) as the level function, for
//!   schemes where a single exponential twist under-covers the failure
//!   set.
//! * [`exact`] — the **exhaustive-enumeration oracle**: for small buses
//!   it sums channel probabilities over *all* error patterns (and all
//!   data words), producing the true WER the estimators must converge
//!   to. An unbiased-but-wrong IS estimator fails silently — the oracle
//!   suite in `tests/rare_props.rs` is what makes it fail loudly.
//! * [`adapt`] — the **adaptive driver**: a short pilot run picks the
//!   twist parameter per `(scheme, ε)` and falls back to splitting when
//!   every pilot twist leaves the failure set unhit.
//!
//! All estimators shard over `socbus_exec` with merged
//! `(sum, sum_sq, weighted_trials)` accumulators
//! ([`crate::montecarlo::WeightedTally`]) in shard order, so results are
//! byte-identical at any `--threads N`, and emit `mc.rare.*` telemetry.

pub mod adapt;
pub mod exact;
pub mod split;
pub mod twist;

pub use adapt::{certify, certify_traced, plan, Certification, Method, Plan};
pub use exact::{failure_profile, oracle_catalog, FailureProfile};
pub use split::{
    split_word_error, split_word_error_parallel, split_word_error_parallel_traced, SplitConfig,
    SplitEstimate,
};
pub use twist::{
    is_word_error, is_word_error_parallel, is_word_error_parallel_traced, is_word_error_traced,
    twisted_eps, Twist,
};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socbus_codes::{batch_build, BatchCode, Scheme, WordBlock, BLOCK_WORDS};
use socbus_model::Word;

/// The noise process a rare-event estimator integrates over.
///
/// Both variants describe the same channels the plain Monte-Carlo and
/// fault layers simulate — [`crate::BitFlipChannel`] and
/// [`crate::GilbertElliott`] — reduced to the parameters that define
/// their word-error probability.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RareChannel {
    /// i.i.d. per-wire flips with probability `eps` (paper eq. (5)).
    Iid {
        /// Per-wire flip probability.
        eps: f64,
    },
    /// Gilbert–Elliott burst channel: a two-state Markov chain advanced
    /// once per word *before* corruption (matching
    /// [`crate::GilbertElliott`]), flipping wires i.i.d. at the state's
    /// rate.
    Burst {
        /// Flip probability in the good state.
        eps_good: f64,
        /// Flip probability in the burst state.
        eps_bad: f64,
        /// Good→bad transition probability per word.
        p_enter: f64,
        /// Bad→good transition probability per word.
        p_exit: f64,
    },
}

impl RareChannel {
    /// Short human-readable label for reports.
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            RareChannel::Iid { eps } => format!("iid(eps={eps:e})"),
            RareChannel::Burst {
                eps_good, eps_bad, ..
            } => format!("burst(good={eps_good:e},bad={eps_bad:e})"),
        }
    }

    /// The exact average burst-state occupancy over a `trials`-word run
    /// started in the good state (0 for the i.i.d. channel).
    ///
    /// The [`crate::GilbertElliott`] chain transitions *before* each
    /// word, so word `t` is in the bad state with probability
    /// `b_t = π + (p_enter - π)·r^t`, where `π = p_enter/(p_enter+p_exit)`
    /// is the stationary occupancy and `r = 1 - p_enter - p_exit` the
    /// mixing rate. This returns `(1/N)·Σ_{t<N} b_t` in closed form —
    /// the estimators and the oracle share it, so both target the exact
    /// same `N`-word chain-average WER, transient included.
    #[must_use]
    pub fn occupancy(&self, trials: u64) -> f64 {
        match *self {
            RareChannel::Iid { .. } => 0.0,
            RareChannel::Burst {
                p_enter, p_exit, ..
            } => {
                if trials == 0 || p_enter <= 0.0 {
                    return 0.0;
                }
                let sum = p_enter + p_exit;
                if sum <= 0.0 {
                    return 0.0;
                }
                let pi = p_enter / sum;
                let r = 1.0 - sum;
                let n = trials as f64;
                if (1.0 - r).abs() < 1e-12 {
                    return p_enter; // chain frozen at b_0
                }
                // Geometric-series average of b_t = pi + (b_0 - pi) r^t.
                pi + (p_enter - pi) * (1.0 - r.powf(n)) / (n * (1.0 - r))
            }
        }
    }

    /// The flip probability used when the channel has no state (i.i.d.),
    /// or in the *good* state (burst).
    #[must_use]
    pub fn base_eps(&self) -> f64 {
        match *self {
            RareChannel::Iid { eps } => eps,
            RareChannel::Burst { eps_good, .. } => eps_good,
        }
    }
}

/// Seed salt separating the flip-draw RNG stream from the data stream —
/// the same constant [`crate::montecarlo::word_error_rate_traced`] uses,
/// which is what lets zero-twist importance sampling reproduce the plain
/// estimator byte for byte.
pub(crate) const FLIP_SEED_SALT: u64 = 0x5EED;

/// The per-trial codec stream shared by the IS and splitting estimators:
/// persistent encoder/decoder pair (endpoint state advances across
/// trials, exactly like [`crate::montecarlo::word_error_rate`]) plus the
/// uniform data-word stream. Runs on the bit-sliced batch codecs; a
/// single-pattern call is the one-word block special case, so per-trial
/// and per-block callers stay on one byte-identical code path.
pub(crate) struct TrialStream {
    enc: Box<dyn BatchCode>,
    dec: Box<dyn BatchCode>,
    data_rng: StdRng,
    k: usize,
    wires: usize,
}

impl TrialStream {
    /// A stream for `scheme` at width `k`, data seeded by `seed` (the
    /// flip draws live in the caller's separate RNG).
    pub(crate) fn new(scheme: Scheme, k: usize, seed: u64) -> TrialStream {
        let enc = batch_build(scheme, k);
        let dec = batch_build(scheme, k);
        let wires = enc.wires();
        TrialStream {
            enc,
            dec,
            data_rng: StdRng::seed_from_u64(seed),
            k,
            wires,
        }
    }

    /// Physical bus width in wires.
    pub(crate) fn wires(&self) -> usize {
        self.wires
    }

    /// Runs one block of transfers: draws the next `patterns.len()` data
    /// words (one `u128` per trial, in trial order), encodes the block,
    /// XORs error pattern `j` onto codeword `j`, decodes, and returns the
    /// failure mask (bit `j` set when decoded word `j` differs from the
    /// sent data). Advances both codec states across the whole block —
    /// identical draw counts and codec-state trajectory to running the
    /// trials one at a time.
    pub(crate) fn fails_with_patterns(&mut self, patterns: &[u128]) -> u64 {
        let n = patterns.len();
        debug_assert!(n <= BLOCK_WORDS, "pattern block too large");
        if n == 0 {
            return 0;
        }
        let mut words = [Word::zero(self.k); BLOCK_WORDS];
        for w in &mut words[..n] {
            *w = Word::from_bits(self.data_rng.gen::<u128>(), self.k);
        }
        let data = WordBlock::from_words(&words[..n]);
        let mut received = self.enc.encode(&data);
        let wire_mask = if self.wires >= 128 {
            u128::MAX
        } else {
            (1u128 << self.wires) - 1
        };
        for (j, &p) in patterns.iter().enumerate() {
            let mut rem = p & wire_mask;
            while rem != 0 {
                received.flip_bit(rem.trailing_zeros() as usize, j);
                rem &= rem - 1;
            }
        }
        let out = self.dec.decode(&received);
        (0..self.k).fold(0u64, |acc, i| acc | (out.lane(i) ^ data.lane(i)))
    }

    /// One transfer: [`TrialStream::fails_with_patterns`] on a one-word
    /// block.
    pub(crate) fn fails_with_pattern(&mut self, pattern: u128) -> bool {
        self.fails_with_patterns(&[pattern]) == 1
    }
}

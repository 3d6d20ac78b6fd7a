//! Closed-loop dynamic voltage scaling (DVS) + adaptive coding control.
//!
//! The paper's central trade — spend codec redundancy to buy back
//! voltage margin — is only realized when something *closes the loop*:
//! scale the swing down until errors start to appear and let the code
//! catch them (Kaul et al.'s timing-error-correction DVS; Worm et al.'s
//! self-calibrating low-swing bus). This module is that loop for one
//! link, built as three separable stages:
//!
//! 1. **Observation window** — every delivered word contributes one
//!    *trouble* bit (the word needed correction, retransmission, or was
//!    flagged uncorrectable) and its largest per-attempt injected error
//!    weight; a window of [`ControlPolicy::window`] words reduces to a
//!    trouble rate plus a worst observed weight.
//! 2. **Policy** — a ladder of [`OperatingPoint`]s ordered from the
//!    guard-banded safe state (index 0: worst-case swing margin and the
//!    strongest detection guarantee) toward aggressive low-energy
//!    points. Window verdicts move the index at most one step per
//!    window, with hysteresis (a dead band between the relax and
//!    retreat thresholds), an anti-flap dwell timer on relaxation, and
//!    an emergency path that slams back to the safe state mid-window
//!    when a fault storm is detected.
//! 3. **Actuation** — the link engine maps an index change to a wire
//!    swing rescale (ε moves through the eq. (5) relation
//!    `ε' = Q(factor·Q⁻¹(ε))`) and, when the scheme differs, a codec
//!    re-provisioning.
//!
//! **Safe-state contract.** The controller can never occupy an
//! operating point whose advertised detection guarantee is below the
//! error weight observed while deciding to move there:
//!
//! * [`ControlPolicy::validate`] requires guarantees to be
//!   nonincreasing along the ladder, so every retreat or emergency
//!   (index decrease) weakly *strengthens* the guarantee;
//! * a relaxation (index increase) fires only after
//!   [`ControlPolicy::dwell`] consecutive quiet windows *and* only if
//!   the destination guarantee covers the largest weight seen across
//!   that whole quiet streak.
//!
//! The chaos monitor re-checks the recorded [`ControlTransition`]s
//! against exactly these clauses (the `control-safe-state` invariant),
//! so a controller bug becomes a shrinkable reproducer, not a silent
//! reliability hole.

use socbus_codes::Scheme;
use socbus_model::swing_energy_scale;

/// Words an observation window must contain before the mid-window
/// emergency detector may fire (avoids spurious slams off one or two
/// early trouble words).
const STORM_MIN_WORDS: u64 = 8;

/// One selectable `(voltage swing, coding scheme)` operating point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OperatingPoint {
    /// Wire swing relative to the nominal design point (energy scales
    /// with `swing²`; ε-driven fault processes rescale through eq. (5)).
    pub swing: f64,
    /// Coding scheme provisioned at this point.
    pub scheme: Scheme,
}

/// Why a [`ControlPolicy`] is rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControlError {
    /// The policy has no operating points.
    NoOperatingPoints,
    /// An operating point's swing is zero, negative, or non-finite.
    DegenerateSwing {
        /// Index of the offending point.
        index: usize,
    },
    /// An operating point's scheme does not build at the link's data
    /// width ([`Scheme::check`]).
    SchemeDoesNotBuild {
        /// Index of the offending point.
        index: usize,
        /// The point's scheme.
        scheme: Scheme,
        /// The data width it was checked at.
        data_bits: usize,
    },
    /// The target residual word-error rate is outside `(0, 1)`.
    TargetOutOfRange,
    /// The observation window is zero words long.
    ZeroWindow,
    /// The relax dwell is zero windows long.
    ZeroDwell,
    /// The thresholds are not `0 ≤ lower < raise ≤ storm ≤ 1` and finite.
    BadThresholds,
    /// A point's detection guarantee exceeds its predecessor's — the
    /// ladder must run from the strongest guarantee (the safe state)
    /// toward weaker ones, or retreats could *lose* protection.
    GuaranteeNotMonotone {
        /// Index of the point whose guarantee exceeds its predecessor's.
        index: usize,
    },
}

impl std::fmt::Display for ControlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlError::NoOperatingPoints => write!(f, "control policy has no operating points"),
            ControlError::DegenerateSwing { index } => {
                write!(f, "operating point {index} has a degenerate swing")
            }
            ControlError::SchemeDoesNotBuild {
                index,
                scheme,
                data_bits,
            } => write!(
                f,
                "operating point {index} runs {}, which does not build at {data_bits} data bits",
                scheme.name()
            ),
            ControlError::TargetOutOfRange => {
                write!(f, "target residual WER must lie in (0, 1)")
            }
            ControlError::ZeroWindow => write!(f, "observation window must be at least 1 word"),
            ControlError::ZeroDwell => write!(f, "relax dwell must be at least 1 window"),
            ControlError::BadThresholds => {
                write!(f, "need 0 <= lower < raise <= storm <= 1, all finite")
            }
            ControlError::GuaranteeNotMonotone { index } => write!(
                f,
                "operating point {index} detects more errors than point {} — \
                 ladder guarantees must be nonincreasing",
                index - 1
            ),
        }
    }
}

impl std::error::Error for ControlError {}

/// The closed-loop control policy of one link.
#[derive(Clone, Debug, PartialEq)]
pub struct ControlPolicy {
    /// Operating points from the safe state (index 0, worst-case margin,
    /// strongest detection guarantee) toward aggressive low-energy
    /// points. The controller starts at index 0 and moves one step per
    /// decision.
    pub points: Vec<OperatingPoint>,
    /// Residual word-error rate the loop is provisioned for (recorded in
    /// reports and checked by the dvs bench; the controller itself acts
    /// on the trouble thresholds below).
    pub target_wer: f64,
    /// Words per observation window.
    pub window: u64,
    /// Consecutive quiet windows required before one relaxation step
    /// (the anti-flap dwell timer).
    pub dwell: u64,
    /// Trouble rate at or below which a window counts as quiet.
    pub lower_trouble: f64,
    /// Trouble rate above which the controller retreats one step.
    /// Rates in `(lower_trouble, raise_trouble]` are the hysteresis dead
    /// band: hold position, reset the dwell.
    pub raise_trouble: f64,
    /// Trouble rate at or above which the window is a fault storm: slam
    /// to the safe state (also checked mid-window once
    /// `STORM_MIN_WORDS` words have accumulated).
    pub storm_trouble: f64,
}

impl ControlPolicy {
    /// Advertised single-transfer detection guarantees of every point,
    /// for `data_bits`-bit payloads.
    ///
    /// # Panics
    ///
    /// Panics if a point's scheme does not build at `data_bits`; a policy
    /// that passes [`ControlPolicy::validate`] at `data_bits` never does.
    #[must_use]
    pub fn guarantees(&self, data_bits: usize) -> Vec<u32> {
        self.points
            .iter()
            .map(|p| {
                u32::try_from(p.scheme.build(data_bits).detectable_errors()).unwrap_or(u32::MAX)
            })
            .collect()
    }

    /// Checks the policy's structural well-formedness for
    /// `data_bits`-bit payloads.
    ///
    /// # Errors
    ///
    /// Returns the first [`ControlError`] found: an empty ladder, a
    /// degenerate swing (via [`swing_energy_scale`]), a scheme that does
    /// not build at `data_bits` (via [`Scheme::check`]), an out-of-range
    /// target, a zero window or dwell, inverted thresholds, or a ladder
    /// whose detection guarantees increase with the index.
    pub fn validate(&self, data_bits: usize) -> Result<(), ControlError> {
        self.checked_guarantees(data_bits).map(drop)
    }

    /// [`ControlPolicy::validate`], returning the
    /// [`ControlPolicy::guarantees`] its monotonicity check computed, so
    /// [`Controller::new`] builds each point's codec once.
    fn checked_guarantees(&self, data_bits: usize) -> Result<Vec<u32>, ControlError> {
        if self.points.is_empty() {
            return Err(ControlError::NoOperatingPoints);
        }
        for (index, p) in self.points.iter().enumerate() {
            if swing_energy_scale(p.swing).is_err() {
                return Err(ControlError::DegenerateSwing { index });
            }
            if p.scheme.check(data_bits).is_err() {
                return Err(ControlError::SchemeDoesNotBuild {
                    index,
                    scheme: p.scheme,
                    data_bits,
                });
            }
        }
        if !(self.target_wer > 0.0 && self.target_wer < 1.0) {
            return Err(ControlError::TargetOutOfRange);
        }
        if self.window == 0 {
            return Err(ControlError::ZeroWindow);
        }
        if self.dwell == 0 {
            return Err(ControlError::ZeroDwell);
        }
        let ordered = self.lower_trouble >= 0.0
            && self.lower_trouble < self.raise_trouble
            && self.raise_trouble <= self.storm_trouble
            && self.storm_trouble <= 1.0;
        if !ordered {
            return Err(ControlError::BadThresholds);
        }
        let guarantees = self.guarantees(data_bits);
        for (index, pair) in guarantees.windows(2).enumerate() {
            if pair[1] > pair[0] {
                return Err(ControlError::GuaranteeNotMonotone { index: index + 1 });
            }
        }
        Ok(guarantees)
    }
}

/// Why a [`ControlTransition`] fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControlCause {
    /// A quiet streak of `dwell` windows earned one step toward lower
    /// energy (index + 1).
    Relax,
    /// A troubled window (rate above `raise_trouble`) pulled the link
    /// one step back toward the safe state (index − 1).
    Retreat,
    /// A fault storm (rate at or above `storm_trouble`, possibly
    /// detected mid-window) slammed the link to the safe state (index 0).
    Emergency,
}

impl ControlCause {
    /// Stable lower-case name (telemetry labels, repro files).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ControlCause::Relax => "relax",
            ControlCause::Retreat => "retreat",
            ControlCause::Emergency => "emergency",
        }
    }

    /// Inverse of [`ControlCause::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<ControlCause> {
        match name {
            "relax" => Some(ControlCause::Relax),
            "retreat" => Some(ControlCause::Retreat),
            "emergency" => Some(ControlCause::Emergency),
            _ => None,
        }
    }
}

/// One recorded controller decision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ControlTransition {
    /// Words delivered when the transition fired.
    pub at_word: u64,
    /// Operating-point index before the move.
    pub from: usize,
    /// Operating-point index after the move.
    pub to: usize,
    /// Trouble rate of the (possibly partial, for an emergency) window
    /// that decided the move.
    pub trouble_rate: f64,
    /// Largest per-attempt injected error weight observed while earning
    /// the move: over the whole quiet streak for a relax, over the
    /// deciding window otherwise.
    pub observed_weight: u32,
    /// Advertised detection guarantee of the destination point — the
    /// safe-state invariant requires `guarantee >= observed_weight` on
    /// every relax.
    pub guarantee: u32,
    /// What fired the transition.
    pub cause: ControlCause,
}

/// The per-link decision state machine: feed it one `(trouble, weight)`
/// observation per delivered word, get back at most one
/// [`ControlTransition`] to actuate. Pure data in, pure data out — the
/// engine owns all actuation, which is what makes decision traces
/// byte-reproducible across thread counts.
pub struct Controller {
    policy: ControlPolicy,
    guarantees: Vec<u32>,
    index: usize,
    window_words: u64,
    window_trouble: u64,
    window_weight: u32,
    quiet_streak: u64,
    streak_weight: u32,
}

impl Controller {
    /// Builds a controller at the safe state (index 0).
    ///
    /// # Errors
    ///
    /// Returns the policy's [`ControlError`] when it fails
    /// [`ControlPolicy::validate`].
    pub fn new(policy: ControlPolicy, data_bits: usize) -> Result<Self, ControlError> {
        let guarantees = policy.checked_guarantees(data_bits)?;
        Ok(Controller {
            policy,
            guarantees,
            index: 0,
            window_words: 0,
            window_trouble: 0,
            window_weight: 0,
            quiet_streak: 0,
            streak_weight: 0,
        })
    }

    /// The policy driving this controller.
    #[must_use]
    pub fn policy(&self) -> &ControlPolicy {
        &self.policy
    }

    /// Current operating-point index.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// The operating point at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn point(&self, index: usize) -> OperatingPoint {
        self.policy.points[index]
    }

    /// The currently selected operating point.
    #[must_use]
    pub fn current(&self) -> OperatingPoint {
        self.policy.points[self.index]
    }

    /// Advertised detection guarantee of the point at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn guarantee(&self, index: usize) -> u32 {
        self.guarantees[index]
    }

    /// Feeds one delivered word's observation (`trouble`: the word
    /// needed correction, retransmission, or was flagged uncorrectable;
    /// `weight`: its largest per-attempt injected error weight) and
    /// returns the transition to actuate, if the window decided one.
    /// `at_word` stamps the transition (the caller's delivered-word
    /// count).
    pub fn observe(
        &mut self,
        trouble: bool,
        weight: u32,
        at_word: u64,
    ) -> Option<ControlTransition> {
        self.window_words += 1;
        if trouble {
            self.window_trouble += 1;
        }
        self.window_weight = self.window_weight.max(weight);
        #[allow(clippy::cast_precision_loss)]
        let rate = self.window_trouble as f64 / self.window_words as f64;
        // Mid-window emergency: a storm should not get to rage for the
        // rest of a long window before the loop reacts.
        if self.window_words >= STORM_MIN_WORDS
            && self.window_words < self.policy.window
            && rate >= self.policy.storm_trouble
            && self.index != 0
        {
            let observed = self.window_weight;
            self.reset_window();
            self.reset_streak();
            return Some(self.shift(0, rate, observed, ControlCause::Emergency, at_word));
        }
        if self.window_words < self.policy.window {
            return None;
        }
        let observed = self.window_weight;
        self.reset_window();
        if rate >= self.policy.storm_trouble {
            self.reset_streak();
            if self.index != 0 {
                return Some(self.shift(0, rate, observed, ControlCause::Emergency, at_word));
            }
            return None;
        }
        if rate > self.policy.raise_trouble {
            self.reset_streak();
            if self.index > 0 {
                let to = self.index - 1;
                return Some(self.shift(to, rate, observed, ControlCause::Retreat, at_word));
            }
            return None;
        }
        if rate <= self.policy.lower_trouble {
            self.quiet_streak += 1;
            self.streak_weight = self.streak_weight.max(observed);
            if self.quiet_streak >= self.policy.dwell && self.index + 1 < self.policy.points.len() {
                let to = self.index + 1;
                let streak_weight = self.streak_weight;
                // Earned or not, the dwell is spent: re-arm the streak.
                self.reset_streak();
                if self.guarantees[to] >= streak_weight {
                    return Some(self.shift(to, rate, streak_weight, ControlCause::Relax, at_word));
                }
            }
            return None;
        }
        // Dead band between lower and raise: hold, and make the flap
        // candidate re-earn its dwell from scratch.
        self.reset_streak();
        None
    }

    fn reset_window(&mut self) {
        self.window_words = 0;
        self.window_trouble = 0;
        self.window_weight = 0;
    }

    fn reset_streak(&mut self) {
        self.quiet_streak = 0;
        self.streak_weight = 0;
    }

    fn shift(
        &mut self,
        to: usize,
        trouble_rate: f64,
        observed_weight: u32,
        cause: ControlCause,
        at_word: u64,
    ) -> ControlTransition {
        let from = self.index;
        self.index = to;
        ControlTransition {
            at_word,
            from,
            to,
            trouble_rate,
            observed_weight,
            guarantee: self.guarantees[to],
            cause,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> ControlPolicy {
        ControlPolicy {
            points: vec![
                OperatingPoint {
                    swing: 1.4,
                    scheme: Scheme::ExtHamming,
                },
                OperatingPoint {
                    swing: 1.0,
                    scheme: Scheme::Parity,
                },
                OperatingPoint {
                    swing: 0.8,
                    scheme: Scheme::Parity,
                },
            ],
            target_wer: 1e-2,
            window: 10,
            dwell: 2,
            lower_trouble: 0.1,
            raise_trouble: 0.3,
            storm_trouble: 0.6,
        }
    }

    fn feed_windows(
        ctl: &mut Controller,
        windows: &[(u64, u32)],
        word: &mut u64,
    ) -> Vec<ControlTransition> {
        let mut out = Vec::new();
        for &(trouble, weight) in windows {
            for i in 0..10u64 {
                *word += 1;
                if let Some(t) = ctl.observe(i < trouble, weight, *word) {
                    out.push(t);
                }
            }
        }
        out
    }

    #[test]
    fn validation_rejects_each_degenerate_policy() {
        let base = policy();
        assert_eq!(base.validate(8), Ok(()));
        let mut p = base.clone();
        p.points.clear();
        assert_eq!(p.validate(8), Err(ControlError::NoOperatingPoints));
        let mut p = base.clone();
        p.points[1].swing = 0.0;
        assert_eq!(
            p.validate(8),
            Err(ControlError::DegenerateSwing { index: 1 })
        );
        let mut p = base.clone();
        p.points[2].swing = f64::NAN;
        assert_eq!(
            p.validate(8),
            Err(ControlError::DegenerateSwing { index: 2 })
        );
        let mut p = base.clone();
        p.target_wer = 1.0;
        assert_eq!(p.validate(8), Err(ControlError::TargetOutOfRange));
        let mut p = base.clone();
        p.window = 0;
        assert_eq!(p.validate(8), Err(ControlError::ZeroWindow));
        let mut p = base.clone();
        p.dwell = 0;
        assert_eq!(p.validate(8), Err(ControlError::ZeroDwell));
        let mut p = base.clone();
        p.lower_trouble = 0.4; // >= raise
        assert_eq!(p.validate(8), Err(ControlError::BadThresholds));
        let mut p = base.clone();
        p.storm_trouble = f64::NAN;
        assert_eq!(p.validate(8), Err(ControlError::BadThresholds));
        // Parity (detects 1) followed by ExtHamming (detects 2) climbs.
        let mut p = base;
        p.points[2].scheme = Scheme::ExtHamming;
        assert_eq!(
            p.validate(8),
            Err(ControlError::GuaranteeNotMonotone { index: 2 })
        );
    }

    /// A point whose scheme is too wide for the link is refused by
    /// index before any codec is built (building it would panic), and so
    /// is the controller.
    #[test]
    fn validation_refuses_a_point_scheme_the_width_cannot_build() {
        let mut p = policy();
        p.points[1].scheme = Scheme::BusInvert(17);
        let err = ControlError::SchemeDoesNotBuild {
            index: 1,
            scheme: Scheme::BusInvert(17),
            data_bits: 16,
        };
        assert_eq!(p.validate(16), Err(err));
        assert_eq!(Controller::new(p, 16).err(), Some(err));
        assert_eq!(
            err.to_string(),
            "operating point 1 runs BI(17), which does not build at 16 data bits"
        );
    }

    #[test]
    fn relax_needs_the_full_dwell_and_steps_once() {
        let mut ctl = Controller::new(policy(), 8).expect("valid");
        let mut word = 0;
        // One quiet window is not enough (dwell = 2).
        assert!(feed_windows(&mut ctl, &[(0, 0)], &mut word).is_empty());
        let moved = feed_windows(&mut ctl, &[(0, 0)], &mut word);
        assert_eq!(moved.len(), 1);
        let t = moved[0];
        assert_eq!((t.from, t.to), (0, 1));
        assert_eq!(t.cause, ControlCause::Relax);
        assert_eq!(t.at_word, 20);
        assert!(t.trouble_rate <= 0.1);
        // The streak re-arms: the very next quiet window must not move.
        assert!(feed_windows(&mut ctl, &[(0, 0)], &mut word).is_empty());
        assert_eq!(ctl.index(), 1);
    }

    #[test]
    fn dead_band_holds_position_and_resets_the_dwell() {
        let mut ctl = Controller::new(policy(), 8).expect("valid");
        let mut word = 0;
        // quiet, then dead band (rate 0.2), then quiet: the dead-band
        // window must have reset the streak, so no transition yet.
        assert!(feed_windows(&mut ctl, &[(0, 0), (2, 1), (0, 0)], &mut word).is_empty());
        assert_eq!(ctl.index(), 0);
        let moved = feed_windows(&mut ctl, &[(0, 0)], &mut word);
        assert_eq!(moved.len(), 1, "second consecutive quiet window relaxes");
    }

    #[test]
    fn retreat_steps_back_one_point() {
        let mut ctl = Controller::new(policy(), 8).expect("valid");
        let mut word = 0;
        feed_windows(&mut ctl, &[(0, 0), (0, 0)], &mut word);
        assert_eq!(ctl.index(), 1);
        let moved = feed_windows(&mut ctl, &[(4, 1)], &mut word);
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0].cause, ControlCause::Retreat);
        assert_eq!((moved[0].from, moved[0].to), (1, 0));
        // At the safe state a troubled window has nowhere to go.
        assert!(feed_windows(&mut ctl, &[(4, 1)], &mut word).is_empty());
    }

    #[test]
    fn storm_at_window_end_slams_to_safe_state() {
        let mut ctl = Controller::new(policy(), 8).expect("valid");
        let mut word = 0;
        feed_windows(&mut ctl, &[(0, 0), (0, 0), (0, 0), (0, 0)], &mut word);
        assert_eq!(ctl.index(), 2);
        // Trouble arriving late in the window dodges the mid-window
        // detector but still storms the full-window rate.
        let mut moved = Vec::new();
        for i in 0..10u64 {
            word += 1;
            if let Some(t) = ctl.observe(i >= 3, 2, word) {
                moved.push(t);
            }
        }
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0].cause, ControlCause::Emergency);
        assert_eq!(moved[0].to, 0);
        assert_eq!(ctl.index(), 0);
    }

    #[test]
    fn midwindow_storm_fires_before_the_window_closes() {
        let mut ctl = Controller::new(policy(), 8).expect("valid");
        let mut word = 0;
        feed_windows(&mut ctl, &[(0, 0), (0, 0)], &mut word);
        assert_eq!(ctl.index(), 1);
        let mut fired_at = None;
        for _ in 0..10u64 {
            word += 1;
            if let Some(t) = ctl.observe(true, 3, word) {
                fired_at = Some((t, word));
                break;
            }
        }
        let (t, at) = fired_at.expect("storm must fire");
        assert_eq!(t.cause, ControlCause::Emergency);
        assert_eq!(t.to, 0);
        assert!(at < 30, "must not wait for the window boundary: {at}");
        assert!((t.trouble_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn relax_is_blocked_while_observed_weight_exceeds_the_guarantee() {
        // Parity detects 1; weight-2 words observed during the quiet
        // streak must block the move from ExtHamming to Parity.
        let mut ctl = Controller::new(policy(), 8).expect("valid");
        let mut word = 0;
        // Quiet windows (0 trouble) that nevertheless saw weight-2
        // corruption (e.g. masked by correction at the safe point).
        assert!(feed_windows(&mut ctl, &[(0, 2), (0, 2)], &mut word).is_empty());
        assert_eq!(ctl.index(), 0, "guarantee guard must hold the safe state");
        // Once the channel calms to weight <= 1, the dwell re-earns.
        let moved = feed_windows(&mut ctl, &[(0, 1), (0, 1)], &mut word);
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0].cause, ControlCause::Relax);
        assert!(moved[0].guarantee >= moved[0].observed_weight);
    }

    #[test]
    fn every_transition_satisfies_the_safe_state_clauses() {
        // Drive the state machine with a deterministic pseudo-random
        // observation stream and check the invariant clauses on every
        // transition — the same clauses the chaos monitor enforces.
        let mut ctl = Controller::new(policy(), 8).expect("valid");
        let p = policy();
        let mut state = 0x9E37_79B9u64;
        let mut prev_index = 0usize;
        let mut prev_word = 0u64;
        for word in 1..=20_000u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let trouble = (state >> 33).is_multiple_of(5);
            let weight = u32::try_from((state >> 13) % 3).expect("small");
            if let Some(t) = ctl.observe(trouble, weight, word) {
                assert!(t.from < p.points.len() && t.to < p.points.len());
                assert_eq!(t.from, prev_index, "transition chain must be continuous");
                assert!(t.at_word >= prev_word);
                match t.cause {
                    ControlCause::Relax => {
                        assert_eq!(t.to, t.from + 1);
                        assert!(t.trouble_rate <= p.lower_trouble);
                        assert!(t.guarantee >= t.observed_weight);
                    }
                    ControlCause::Retreat => {
                        assert_eq!(t.to + 1, t.from);
                        assert!(t.trouble_rate > p.raise_trouble);
                    }
                    ControlCause::Emergency => {
                        assert_eq!(t.to, 0);
                        assert!(t.trouble_rate >= p.storm_trouble);
                    }
                }
                prev_index = t.to;
                prev_word = t.at_word;
            }
        }
        assert_eq!(ctl.index(), prev_index);
    }

    #[test]
    fn cause_names_round_trip() {
        for c in [
            ControlCause::Relax,
            ControlCause::Retreat,
            ControlCause::Emergency,
        ] {
            assert_eq!(ControlCause::from_name(c.name()), Some(c));
        }
        assert_eq!(ControlCause::from_name("panic"), None);
    }
}

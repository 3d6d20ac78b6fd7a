//! Online invariant monitors for chaos runs.
//!
//! The monitor watches every word cross the path ([`Monitor::observe`])
//! and audits the final accounting ([`Monitor::finish`]). Five invariant
//! families:
//!
//! * **silent-corruption** — a decoder may never hand up a wrong word
//!   while claiming success *within its advertised guarantees*. If the
//!   channel injected at most `correctable_errors` wire flips on every
//!   attempt, delivery must be exact; if it injected at most
//!   `detectable_errors` and the final decode reported `Clean` /
//!   `Unchecked`, delivery must be exact. Heavier corruption may alias —
//!   that is physics, not a bug — so the monitor scopes the check by the
//!   *measured* injected weight and never flags genuine
//!   beyond-minimum-distance aliasing.
//! * **conservation** — every transferred word lands in exactly one
//!   [`FaultLedger`](socbus_noc::FaultLedger) bucket, the coarse
//!   [`LinkReport`](socbus_noc::LinkReport) counters must re-derive from
//!   the per-word traces, and path totals must equal the sum over hops.
//! * **latency-bound** — no word may consume more bus cycles at one hop
//!   than [`Protocol::worst_case_word_cycles`] allows, no matter what the
//!   fault schedule does.
//! * **ladder-monotonic** — degradation transitions must walk the
//!   configured ladder one rung at a time: demotions replay it in order
//!   at nondecreasing word indices, non-forced demotions must actually
//!   have exceeded the trigger, and promotions may only undo the rung
//!   most recently deployed, only when a recovery policy exists and the
//!   closing window was quiet.
//! * **control-safe-state** — closed-loop controller transitions must
//!   form a contiguous, justified walk over the configured operating
//!   points: relaxations step down exactly one point, only from a quiet
//!   window, and never onto a point whose advertised guarantee is below
//!   the observed error weight; retreats and emergencies must have
//!   earned their trouble rates; emergencies always land on the
//!   worst-case safe state (index 0).

use socbus_codes::DecodeStatus;
use socbus_noc::link::{DegradationPolicy, Protocol};
use socbus_noc::{ControlCause, ControlPolicy, ControlTransition, PathReport, PathStep};
use socbus_telemetry::Telemetry;

/// The invariant families the monitor checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InvariantKind {
    /// Wrong payload delivered within the decoder's advertised guarantees.
    SilentCorruption,
    /// Accounting identity broken (ledger, counters, or path totals).
    Conservation,
    /// A word exceeded the protocol's worst-case cycle budget.
    LatencyBound,
    /// Degradation transitions out of ladder order or unjustified.
    LadderMonotonic,
    /// Controller left the safe envelope: an unjustified transition, or
    /// an operating point whose guarantee is below the observed weight.
    ControlSafeState,
}

/// The invariants one harness checks — [`InvariantKind`] on a path,
/// [`crate::mesh::MeshInvariant`] on a mesh — each with a stable name.
pub trait Invariant: Copy + PartialEq + std::fmt::Debug + Send + 'static {
    /// All kinds, in reporting order.
    const ALL: [Self; 5];

    /// The telemetry label naming a violation's site (`at_hop` on a
    /// path, `at_link` on a mesh).
    const SITE_LABEL: &'static str;

    /// That label's value for an end-to-end violation.
    const END_TO_END: &'static str;

    /// Stable name (used in reports and repro files).
    fn name(self) -> &'static str;

    /// Position in [`Invariant::ALL`].
    fn index(self) -> usize;

    /// Inverse of [`Invariant::name`].
    fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl Invariant for InvariantKind {
    const ALL: [InvariantKind; 5] = [
        InvariantKind::SilentCorruption,
        InvariantKind::Conservation,
        InvariantKind::LatencyBound,
        InvariantKind::LadderMonotonic,
        InvariantKind::ControlSafeState,
    ];
    const SITE_LABEL: &'static str = "at_hop";
    const END_TO_END: &'static str = "path";

    fn name(self) -> &'static str {
        match self {
            InvariantKind::SilentCorruption => "silent-corruption",
            InvariantKind::Conservation => "conservation",
            InvariantKind::LatencyBound => "latency-bound",
            InvariantKind::LadderMonotonic => "ladder-monotonic",
            InvariantKind::ControlSafeState => "control-safe-state",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One observed invariant violation, on a path (`K` =
/// [`InvariantKind`]) or a mesh ([`crate::mesh::MeshViolation`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Violation<K = InvariantKind> {
    /// Which invariant broke.
    pub kind: K,
    /// The hop (path) or link (mesh) it broke on, or `None` for an
    /// end-to-end violation.
    pub site: Option<usize>,
    /// The 0-based word (path) or cycle (mesh) at which it broke (for
    /// end-of-run audits, the run's length).
    pub at: u64,
    /// Human-readable evidence.
    pub detail: String,
}

impl<K: Copy> Violation<K> {
    /// The identity the shrinker preserves: a shrunken schedule
    /// reproduces iff it violates the same invariant at the same site.
    #[must_use]
    pub fn key(&self) -> (K, Option<usize>) {
        (self.kind, self.site)
    }
}

/// Pass/fail tally for one invariant kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InvariantStats {
    /// Individual checks evaluated.
    pub checked: u64,
    /// Checks that failed.
    pub violated: u64,
}

/// The verdict bookkeeping every monitor shares: the pass/fail tally of
/// each invariant kind, the violations found, and their telemetry — a
/// `monitor.violations` counter and a `monitor.violation` event per
/// violation as it is found (labelled by `K`'s site label; the event is
/// word-domain on a path, cycle-domain on a mesh), and the
/// `monitor.checks` counters on each flush.
pub struct Verdicts<K> {
    stats: [InvariantStats; 5],
    /// `stats[i].checked` already reported as a `monitor.checks`
    /// counter, so [`Verdicts::flush_telemetry`] emits only the delta.
    checks_flushed: [u64; 5],
    violations: Vec<Violation<K>>,
    tel: Telemetry,
}

impl<K: Invariant> Verdicts<K> {
    pub(crate) fn new() -> Self {
        Verdicts {
            stats: [InvariantStats::default(); 5],
            checks_flushed: [0; 5],
            violations: Vec::new(),
            tel: Telemetry::off(),
        }
    }

    /// Attaches a telemetry handle: check tallies batch locally and
    /// [`Verdicts::flush_telemetry`] reports them as `monitor.checks`
    /// counters keyed by invariant name; every violation immediately
    /// emits its counter and event.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// One check of `kind` at `site` (`None` end to end) at word or cycle
    /// `at`: a failed one is tallied, reported and kept with `detail()`.
    pub(crate) fn check(
        &mut self,
        kind: K,
        site: Option<usize>,
        at: u64,
        ok: bool,
        detail: impl FnOnce() -> String,
    ) {
        let stats = &mut self.stats[kind.index()];
        stats.checked += 1;
        if ok {
            return;
        }
        stats.violated += 1;
        if self.tel.is_enabled() {
            let site_label = site.map_or_else(|| K::END_TO_END.to_owned(), |s| s.to_string());
            let labels = [
                ("invariant", kind.name()),
                (K::SITE_LABEL, site_label.as_str()),
            ];
            self.tel.counter("monitor.violations", &labels, 1);
            self.tel.event("monitor.violation", &labels, at);
        }
        self.violations.push(Violation {
            kind,
            site,
            at,
            detail: detail(),
        });
    }

    /// Reports the `monitor.checks` counters accumulated since the last
    /// flush (safe to call repeatedly; each check is reported once).
    pub fn flush_telemetry(&mut self) {
        if !self.tel.is_enabled() {
            return;
        }
        for (idx, kind) in K::ALL.iter().enumerate() {
            let delta = self.stats[idx].checked - self.checks_flushed[idx];
            if delta > 0 {
                self.tel
                    .counter("monitor.checks", &[("invariant", kind.name())], delta);
                self.checks_flushed[idx] = self.stats[idx].checked;
            }
        }
    }

    /// Pass/fail tally for one invariant kind.
    #[must_use]
    pub fn stats(&self, kind: K) -> InvariantStats {
        self.stats[kind.index()]
    }

    /// Violations recorded so far.
    #[must_use]
    pub fn violations(&self) -> &[Violation<K>] {
        &self.violations
    }

    /// Consumes the tally, returning all violations.
    #[must_use]
    pub fn into_violations(self) -> Vec<Violation<K>> {
        self.violations
    }
}

/// Per-hop accumulators the end-of-run conservation audit re-derives the
/// report counters from.
#[derive(Clone, Copy, Debug, Default)]
struct HopTally {
    retries: u64,
    detected: u64,
    corrected: u64,
}

/// The online monitor for one chaos case.
pub struct Monitor {
    budget: u64,
    policy: Option<DegradationPolicy>,
    control: Option<(ControlPolicy, Vec<u32>)>,
    words: u64,
    tallies: Vec<HopTally>,
    /// The checks' verdicts (`at_hop` labels the hop without claiming a
    /// cycle-domain timestamp; the events sit on the control track).
    pub verdicts: Verdicts<InvariantKind>,
    /// Worst per-hop word latency observed (cycles).
    pub worst_word_cycles: u64,
}

impl Monitor {
    /// Builds a monitor for a path of `hops` links running `protocol`,
    /// optionally with a degradation `policy`.
    #[must_use]
    pub fn new(hops: usize, protocol: Protocol, policy: Option<DegradationPolicy>) -> Self {
        Monitor {
            budget: protocol.worst_case_word_cycles(),
            policy,
            control: None,
            words: 0,
            tallies: vec![HopTally::default(); hops],
            verdicts: Verdicts::new(),
            worst_word_cycles: 0,
        }
    }

    /// Arms the control-safe-state invariant: `policy` is the controller
    /// policy the links run (or `None` for open-loop links, in which case
    /// any recorded controller transition is itself a violation), and
    /// `data_bits` recomputes each operating point's advertised guarantee
    /// independently of what the report claims.
    pub fn set_control(&mut self, policy: Option<ControlPolicy>, data_bits: usize) {
        self.control = policy.map(|p| {
            let guarantees = p.guarantees(data_bits);
            (p, guarantees)
        });
    }

    /// Audits one word's traversal of the path. `word` is its 0-based
    /// index.
    pub fn observe(&mut self, word: u64, step: &PathStep) {
        self.words = self.words.max(word + 1);
        for (hop, h) in step.hops.iter().enumerate() {
            let t = &h.trace;
            self.tallies[hop].retries += u64::from(t.retries);
            self.tallies[hop].detected +=
                u64::from(t.retries) + u64::from(t.final_status == DecodeStatus::Detected);
            self.tallies[hop].corrected += u64::from(t.final_status == DecodeStatus::Corrected);
            self.worst_word_cycles = self.worst_word_cycles.max(t.cycles);

            // Silent corruption, scoped by the measured injected weight.
            let weight = u64::from(t.max_error_weight);
            let within_correction = weight <= t.correctable_errors as u64;
            let claims_clean = matches!(
                t.final_status,
                DecodeStatus::Clean | DecodeStatus::Unchecked
            );
            let within_detection = weight <= t.detectable_errors as u64;
            let guaranteed_exact = within_correction || (within_detection && claims_clean);
            self.verdicts.check(
                InvariantKind::SilentCorruption,
                Some(hop),
                word,
                !guaranteed_exact || h.exited == h.entered,
                || {
                    format!(
                        "hop {hop} delivered a wrong word inside its guarantees: \
                         injected weight {} vs t={}/d={}, final status {:?}, \
                         entered {:?} exited {:?}",
                        t.max_error_weight,
                        t.correctable_errors,
                        t.detectable_errors,
                        t.final_status,
                        h.entered,
                        h.exited,
                    )
                },
            );

            // Earned detection: a decoder may report `Detected` only when
            // the received word genuinely left its correction envelope. An
            // honest `decode_checked` flags only non-codewords, and a
            // non-codeword on the final attempt means the injected weight
            // exceeded the correctable budget — so a `Detected` with
            // `weight <= correctable` is a phantom detection (a decoder
            // crying wolf on a word it was guaranteed to deliver exactly).
            self.verdicts.check(
                InvariantKind::SilentCorruption,
                Some(hop),
                word,
                t.final_status != DecodeStatus::Detected || !within_correction,
                || {
                    format!(
                        "hop {hop} reported Detected inside its correction \
                         guarantee: injected weight {} vs t={}",
                        t.max_error_weight, t.correctable_errors,
                    )
                },
            );

            // Latency bound.
            let budget = self.budget;
            self.verdicts.check(
                InvariantKind::LatencyBound,
                Some(hop),
                word,
                t.cycles <= budget,
                || {
                    format!(
                        "hop {hop} spent {} cycles on one word; budget is {budget}",
                        t.cycles
                    )
                },
            );
        }
    }

    /// End-of-run audit: conservation of the fault accounting, counter
    /// re-derivation, path aggregation, and ladder monotonicity.
    pub fn finish(&mut self, report: &PathReport) {
        let words = self.words;
        for (hop, link) in report.per_hop.iter().enumerate() {
            let tally = self.tallies[hop];
            self.verdicts.check(
                InvariantKind::Conservation,
                Some(hop),
                words,
                link.ledger.total() == link.delivered && link.delivered == link.offered,
                || {
                    format!(
                        "hop {hop} ledger leaks words: {:?} totals {} vs delivered {} / offered {}",
                        link.ledger,
                        link.ledger.total(),
                        link.delivered,
                        link.offered
                    )
                },
            );
            self.verdicts.check(
                InvariantKind::Conservation,
                Some(hop),
                words,
                link.residual_errors == link.ledger.residual,
                || {
                    format!(
                        "hop {hop} residual counter {} disagrees with ledger residual {}",
                        link.residual_errors, link.ledger.residual
                    )
                },
            );
            self.verdicts.check(
                InvariantKind::Conservation,
                Some(hop),
                words,
                link.retransmits == tally.retries
                    && link.detected == tally.detected
                    && link.corrected == tally.corrected,
                || {
                    format!(
                        "hop {hop} counters do not re-derive from traces: \
                         retransmits {} vs {}, detected {} vs {}, corrected {} vs {}",
                        link.retransmits,
                        tally.retries,
                        link.detected,
                        tally.detected,
                        link.corrected,
                        tally.corrected
                    )
                },
            );
            self.verdicts.check(
                InvariantKind::Conservation,
                Some(hop),
                words,
                link.offered == report.offered,
                || {
                    format!(
                        "hop {hop} offered {} words but the path offered {}",
                        link.offered, report.offered
                    )
                },
            );

            // Ladder monotonicity.
            let ladder_ok = self.ladder_ok(link.transitions.as_slice());
            let policy = self.policy.clone();
            self.verdicts.check(
                InvariantKind::LadderMonotonic,
                Some(hop),
                words,
                ladder_ok,
                || {
                    format!(
                        "hop {hop} transitions violate the ladder: {:?} (policy {policy:?})",
                        link.transitions
                    )
                },
            );

            // Controller safe state.
            let control_err = self.control_error(link.control.as_slice());
            self.verdicts.check(
                InvariantKind::ControlSafeState,
                Some(hop),
                words,
                control_err.is_none(),
                || {
                    format!(
                        "hop {hop} controller left the safe envelope: {} (transitions {:?})",
                        control_err.unwrap_or_default(),
                        link.control
                    )
                },
            );
        }

        let hop_cycles: u64 = report.per_hop.iter().map(|l| l.cycles).sum();
        self.verdicts.check(
            InvariantKind::Conservation,
            None,
            words,
            report.cycles == hop_cycles,
            || {
                format!(
                    "path cycles {} do not equal the per-hop sum {hop_cycles}",
                    report.cycles
                )
            },
        );
        let hop_residual: u64 = report.per_hop.iter().map(|l| l.residual_errors).sum();
        self.verdicts.check(
            InvariantKind::Conservation,
            None,
            words,
            report.end_to_end_errors <= hop_residual,
            || {
                format!(
                    "end-to-end errors {} exceed the per-hop residual sum {hop_residual}: \
                     an e2e error with no hop owning it",
                    report.end_to_end_errors
                )
            },
        );
    }

    /// Transitions must walk the ladder one rung at a time, at
    /// nondecreasing word indices. Demotions deploy rungs in ladder
    /// order and non-forced ones must have earned their trigger;
    /// promotions undo exactly the most recently deployed rung, require
    /// a recovery policy, and must close on a quiet window.
    fn ladder_ok(&self, transitions: &[socbus_noc::link::LinkTransition]) -> bool {
        let Some(policy) = &self.policy else {
            return transitions.is_empty();
        };
        let mut rung = 0usize;
        let mut last_word = 0u64;
        for t in transitions {
            if t.at_word < last_word {
                return false;
            }
            last_word = t.at_word;
            if t.promoted {
                let Some(promote) = policy.promote else {
                    return false;
                };
                if rung == 0
                    || t.action != policy.ladder[rung - 1]
                    || t.forced
                    || t.trouble_rate > promote.trigger
                {
                    return false;
                }
                rung -= 1;
            } else {
                if rung >= policy.ladder.len() || t.action != policy.ladder[rung] {
                    return false;
                }
                if !t.forced && t.trouble_rate <= policy.trigger {
                    return false;
                }
                rung += 1;
            }
        }
        true
    }

    /// Audits a recorded controller transition chain against the armed
    /// control policy. Returns `None` when every safe-state clause
    /// holds, or a description of the first broken clause.
    fn control_error(&self, transitions: &[ControlTransition]) -> Option<String> {
        let Some((policy, guarantees)) = &self.control else {
            return if transitions.is_empty() {
                None
            } else {
                Some("controller transitions recorded without a control policy".to_owned())
            };
        };
        let points = policy.points.len();
        let mut prev_index = 0usize;
        let mut last_word = 0u64;
        for (i, t) in transitions.iter().enumerate() {
            if t.from >= points || t.to >= points {
                return Some(format!(
                    "transition {i} indexes out of range: {} -> {} with {points} points",
                    t.from, t.to
                ));
            }
            if t.from != prev_index {
                return Some(format!(
                    "transition {i} breaks the chain: from {} but the controller was at {prev_index}",
                    t.from
                ));
            }
            if t.at_word < last_word {
                return Some(format!(
                    "transition {i} runs time backwards: word {} after {last_word}",
                    t.at_word
                ));
            }
            if t.guarantee != guarantees[t.to] {
                return Some(format!(
                    "transition {i} misstates the guarantee of point {}: {} vs {}",
                    t.to, t.guarantee, guarantees[t.to]
                ));
            }
            match t.cause {
                ControlCause::Relax => {
                    if t.to != t.from + 1 {
                        return Some(format!(
                            "transition {i} relaxes by more than one point: {} -> {}",
                            t.from, t.to
                        ));
                    }
                    if t.trouble_rate > policy.lower_trouble {
                        return Some(format!(
                            "transition {i} relaxed out of a noisy window: rate {} > lower {}",
                            t.trouble_rate, policy.lower_trouble
                        ));
                    }
                    if guarantees[t.to] < t.observed_weight {
                        return Some(format!(
                            "transition {i} relaxed below the observed weight: \
                             guarantee {} < weight {}",
                            guarantees[t.to], t.observed_weight
                        ));
                    }
                }
                ControlCause::Retreat => {
                    if t.to + 1 != t.from {
                        return Some(format!(
                            "transition {i} retreats by more than one point: {} -> {}",
                            t.from, t.to
                        ));
                    }
                    if t.trouble_rate <= policy.raise_trouble {
                        return Some(format!(
                            "transition {i} retreated without trouble: rate {} <= raise {}",
                            t.trouble_rate, policy.raise_trouble
                        ));
                    }
                }
                ControlCause::Emergency => {
                    if t.to != 0 {
                        return Some(format!(
                            "transition {i} declared an emergency but landed on point {}",
                            t.to
                        ));
                    }
                    if t.trouble_rate < policy.storm_trouble {
                        return Some(format!(
                            "transition {i} declared an emergency without a storm: \
                             rate {} < storm {}",
                            t.trouble_rate, policy.storm_trouble
                        ));
                    }
                }
            }
            prev_index = t.to;
            last_word = t.at_word;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socbus_codes::Scheme;
    use socbus_noc::link::{DegradationAction, LinkConfig};
    use socbus_noc::traffic::UniformTraffic;
    use socbus_noc::{PathConfig, PathSim};

    fn drive(cfg: &PathConfig, words: usize, monitor: &mut Monitor) -> PathReport {
        let mut sim = PathSim::new(cfg, 5);
        for (i, data) in UniformTraffic::new(cfg.link.data_bits, 3)
            .take(words)
            .enumerate()
        {
            monitor.observe(i as u64, sim.step(data));
        }
        let report = sim.finish();
        monitor.finish(&report);
        report
    }

    #[test]
    fn honest_noisy_path_passes_all_invariants() {
        let proto = Protocol::DetectRetransmit {
            rtt_cycles: 3,
            max_retries: 3,
        };
        let cfg = PathConfig::new(
            3,
            LinkConfig::new(Scheme::ExtHamming, 16, 3e-3).with_protocol(proto),
        );
        let mut monitor = Monitor::new(3, proto, None);
        drive(&cfg, 4_000, &mut monitor);
        assert_eq!(monitor.verdicts.violations(), &[] as &[Violation]);
        assert!(
            monitor
                .verdicts
                .stats(InvariantKind::SilentCorruption)
                .checked
                >= 12_000
        );
        assert!(monitor.verdicts.stats(InvariantKind::Conservation).checked > 0);
        for (i, kind) in InvariantKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i, "{kind:?}");
        }
    }

    #[test]
    fn sabotaged_decoder_is_caught_as_silent_corruption() {
        let cfg = PathConfig::new(1, LinkConfig::new(Scheme::Sabotaged, 16, 5e-3));
        let mut monitor = Monitor::new(1, Protocol::Fec, None);
        drive(&cfg, 4_000, &mut monitor);
        assert!(
            monitor
                .verdicts
                .violations()
                .iter()
                .any(|v| v.kind == InvariantKind::SilentCorruption),
            "the planted lie must be flagged: {:?}",
            monitor.verdicts.violations().first()
        );
    }

    #[test]
    fn heavy_aliasing_on_an_honest_code_is_not_flagged() {
        // ε far beyond any guarantee: Hamming will alias, but every alias
        // comes with injected weight > d_min-1, so the monitor stays calm.
        let cfg = PathConfig::new(2, LinkConfig::new(Scheme::Hamming, 16, 0.05));
        let mut monitor = Monitor::new(2, Protocol::Fec, None);
        let report = drive(&cfg, 4_000, &mut monitor);
        assert!(report.end_to_end_errors > 0, "this ε must cause residuals");
        assert_eq!(
            monitor.verdicts.violations(),
            &[] as &[Violation],
            "aliasing beyond the guarantees is physics, not a violation"
        );
    }

    #[test]
    fn invariant_names_round_trip() {
        for kind in InvariantKind::ALL {
            assert_eq!(InvariantKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(InvariantKind::from_name("nope"), None);
    }

    #[test]
    fn ladder_prefix_rules_are_enforced() {
        let policy = DegradationPolicy {
            window: 100,
            trigger: 0.2,
            ladder: vec![
                DegradationAction::RaiseSwing { factor: 1.3 },
                DegradationAction::SwitchScheme(Scheme::Dap),
            ],
            promote: None,
        };
        let monitor = Monitor::new(1, Protocol::Fec, Some(policy.clone()));
        use socbus_noc::link::LinkTransition;
        let raise = LinkTransition {
            at_word: 10,
            trouble_rate: 0.5,
            action: DegradationAction::RaiseSwing { factor: 1.3 },
            forced: false,
            promoted: false,
        };
        let switch = LinkTransition {
            at_word: 20,
            trouble_rate: 0.0,
            action: DegradationAction::SwitchScheme(Scheme::Dap),
            forced: true,
            promoted: false,
        };
        assert!(monitor.ladder_ok(&[]));
        assert!(monitor.ladder_ok(&[raise]));
        assert!(monitor.ladder_ok(&[raise, switch]));
        // Out of order: the switch may not fire first.
        assert!(!monitor.ladder_ok(&[switch]));
        // Unearned: non-forced transition at rate below the trigger.
        let lazy = LinkTransition {
            trouble_rate: 0.1,
            forced: false,
            ..raise
        };
        assert!(!monitor.ladder_ok(&[lazy]));
        // Time must not run backwards.
        let early_switch = LinkTransition {
            at_word: 5,
            ..switch
        };
        assert!(!monitor.ladder_ok(&[raise, early_switch]));
        // A promotion against a policy with no recovery clause is illegal.
        let promote_back = LinkTransition {
            at_word: 30,
            trouble_rate: 0.0,
            action: DegradationAction::SwitchScheme(Scheme::Dap),
            forced: false,
            promoted: true,
        };
        assert!(!monitor.ladder_ok(&[raise, switch, promote_back]));
    }

    #[test]
    fn promotions_must_undo_the_last_deployed_rung() {
        use socbus_noc::link::{LinkTransition, PromotePolicy};
        let policy = DegradationPolicy {
            window: 100,
            trigger: 0.2,
            ladder: vec![
                DegradationAction::RaiseSwing { factor: 1.3 },
                DegradationAction::SwitchScheme(Scheme::Dap),
            ],
            promote: Some(PromotePolicy {
                quiet_windows: 2,
                trigger: 0.05,
            }),
        };
        let monitor = Monitor::new(1, Protocol::Fec, Some(policy));
        let raise = LinkTransition {
            at_word: 10,
            trouble_rate: 0.5,
            action: DegradationAction::RaiseSwing { factor: 1.3 },
            forced: false,
            promoted: false,
        };
        let switch = LinkTransition {
            at_word: 20,
            trouble_rate: 0.5,
            action: DegradationAction::SwitchScheme(Scheme::Dap),
            forced: false,
            promoted: false,
        };
        let undo_switch = LinkTransition {
            at_word: 40,
            trouble_rate: 0.0,
            action: DegradationAction::SwitchScheme(Scheme::Dap),
            forced: false,
            promoted: true,
        };
        let undo_raise = LinkTransition {
            at_word: 60,
            trouble_rate: 0.0,
            action: DegradationAction::RaiseSwing { factor: 1.3 },
            forced: false,
            promoted: true,
        };
        // Full deploy, full recovery, and a re-deploy are all legal.
        assert!(monitor.ladder_ok(&[raise, switch, undo_switch, undo_raise]));
        let redeploy = LinkTransition {
            at_word: 80,
            ..switch
        };
        assert!(monitor.ladder_ok(&[raise, switch, undo_switch, redeploy]));
        // Promoting a rung that is not the most recently deployed is not.
        assert!(!monitor.ladder_ok(&[raise, switch, undo_raise]));
        // Promoting below the base is not.
        assert!(!monitor.ladder_ok(&[undo_raise]));
        // Promoting out of a noisy window is not.
        let noisy_undo = LinkTransition {
            trouble_rate: 0.5,
            ..undo_switch
        };
        assert!(!monitor.ladder_ok(&[raise, switch, noisy_undo]));
    }

    #[test]
    fn control_chain_clauses_are_each_enforced() {
        use socbus_noc::{ControlCause, ControlPolicy, ControlTransition, OperatingPoint};
        let policy = ControlPolicy {
            points: vec![
                OperatingPoint {
                    swing: 1.4,
                    scheme: Scheme::ExtHamming,
                },
                OperatingPoint {
                    swing: 1.0,
                    scheme: Scheme::Parity,
                },
            ],
            target_wer: 1e-2,
            window: 10,
            dwell: 2,
            lower_trouble: 0.1,
            raise_trouble: 0.3,
            storm_trouble: 0.6,
        };
        let mut monitor = Monitor::new(1, Protocol::Fec, None);
        monitor.set_control(Some(policy), 16);
        let relax = ControlTransition {
            at_word: 20,
            from: 0,
            to: 1,
            trouble_rate: 0.0,
            observed_weight: 0,
            guarantee: 1,
            cause: ControlCause::Relax,
        };
        let retreat = ControlTransition {
            at_word: 40,
            from: 1,
            to: 0,
            trouble_rate: 0.5,
            observed_weight: 2,
            guarantee: 2,
            cause: ControlCause::Retreat,
        };
        let emergency = ControlTransition {
            at_word: 60,
            from: 1,
            to: 0,
            trouble_rate: 0.8,
            observed_weight: 3,
            guarantee: 2,
            cause: ControlCause::Emergency,
        };
        assert_eq!(monitor.control_error(&[]), None);
        assert_eq!(monitor.control_error(&[relax, retreat]), None);
        assert_eq!(monitor.control_error(&[relax, emergency]), None);
        // Chain continuity: the controller starts at index 0.
        assert!(monitor.control_error(&[retreat]).is_some());
        // A relax out of a noisy window is unjustified.
        let noisy_relax = ControlTransition {
            trouble_rate: 0.2,
            ..relax
        };
        assert!(monitor.control_error(&[noisy_relax]).is_some());
        // A relax below the observed error weight breaks the safe state.
        let reckless = ControlTransition {
            observed_weight: 2,
            ..relax
        };
        assert!(monitor.control_error(&[reckless]).is_some());
        // The recorded guarantee must match the recomputed one.
        let liar = ControlTransition {
            guarantee: 9,
            ..relax
        };
        assert!(monitor.control_error(&[liar]).is_some());
        // An emergency must land on the safe state with a storm rate.
        let mild = ControlTransition {
            trouble_rate: 0.4,
            ..emergency
        };
        assert!(monitor.control_error(&[relax, mild]).is_some());
        // Without a policy, any recorded transition is a violation.
        let mut bare = Monitor::new(1, Protocol::Fec, None);
        bare.set_control(None, 16);
        assert!(bare.control_error(&[relax]).is_some());
        assert_eq!(bare.control_error(&[]), None);
    }
}

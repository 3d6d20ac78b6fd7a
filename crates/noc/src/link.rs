//! A coded point-to-point NoC link.
//!
//! One sender, one receiver, a coded parallel bus in between, and DSM
//! noise on the wires. Three link protocols:
//!
//! * **FEC** — decode whatever arrives; residual errors escape upward
//!   (the paper's reliable-bus design);
//! * **detect-and-retransmit** — codes with error *detection* NACK the
//!   word and resend, trading latency and energy for reliability (the
//!   paper's §II-D note that detection is cheaper but needs
//!   retransmission);
//! * **ARQ with timeout and bounded exponential backoff** — the
//!   realistic variant: a dropped/corrupted NACK is covered by a sender
//!   timeout, and repeated failures back off exponentially so a link in
//!   a noise burst does not hammer the bus at line rate.
//!
//! On top of any protocol, an optional **adaptive degradation ladder**
//! ([`DegradationPolicy`]) monitors the windowed *trouble rate* (words
//! that needed correction, retransmission, or were flagged
//! uncorrectable) and, past a threshold, walks a configured ladder of
//! fallbacks: raise the wire swing (lowering ε via the eq. (5) relation)
//! or switch to a stronger scheme from the catalog. With a
//! [`PromotePolicy`], the ladder also *recovers*: a long enough streak
//! of quiet windows undoes the most recent rung again. Every transition
//! is recorded in the [`LinkReport`].
//!
//! Alternatively a link runs under a **closed-loop DVS controller**
//! ([`crate::control::ControlPolicy`], mutually exclusive with the
//! ladder): the same trouble observations drive an operating-point
//! state machine that trades wire swing (and scheme) against observed
//! reliability, with the safe-state guarantees documented in
//! [`crate::control`]. Controller decisions land in
//! [`LinkReport::control`] and on the telemetry stream, and the
//! wire-energy accounting scales with `swing²` so the energy the loop
//! saves (or spends) is visible in the report.
//!
//! The simulator tracks delivered words, residual word errors, cycle
//! counts (including retransmission round trips and backoff), corrected
//! and detected-uncorrectable events, and the wire-energy coefficient
//! actually switched — multiply by `C·V̂dd²` for joules.

use crate::control::{ControlPolicy, ControlTransition, Controller};
use socbus_channel::{FaultInjector, FaultSpec};
use socbus_codes::{BusCode, DecodeStatus, Scheme};
use socbus_model::{word_transition_energy, EnergyCoeff, Word};
use socbus_telemetry::{EventKey, EventKind, Telemetry};

/// Link-level protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// Forward error correction only.
    Fec,
    /// Stop-and-wait detect-and-retransmit with a NACK round trip of
    /// `rtt_cycles` and a retry budget.
    DetectRetransmit {
        /// Cycles consumed by one NACK round trip.
        rtt_cycles: u64,
        /// Maximum resends before the word is delivered as-is.
        max_retries: u32,
    },
    /// Stop-and-wait ARQ where every retry costs a sender timeout plus a
    /// bounded exponential backoff: retry `r` (0-based) waits
    /// `timeout_cycles + min(backoff_base << r, backoff_cap)` cycles
    /// before the resend.
    ArqBackoff {
        /// Cycles before the sender gives up waiting for an ACK.
        timeout_cycles: u64,
        /// Backoff of the first retry (doubles per retry).
        backoff_base: u64,
        /// Upper bound on the backoff term.
        backoff_cap: u64,
        /// Maximum resends before the word is delivered as-is.
        max_retries: u32,
    },
}

impl Protocol {
    /// Upper bound on the bus cycles a single word can consume under this
    /// protocol: the first transmission plus, for every allowed retry,
    /// its penalty and the retransmission itself. This is the latency
    /// budget the chaos monitors hold [`LinkEngine`] to — no fault
    /// schedule may push one word past it. Saturates at `u64::MAX` for
    /// pathological configurations (huge timeouts or retry budgets)
    /// instead of wrapping.
    #[must_use]
    pub fn worst_case_word_cycles(&self) -> u64 {
        let mut total: u64 = 1;
        let mut retry = 0;
        while let Some(penalty) = self.retry_penalty(retry) {
            total = total.saturating_add(1).saturating_add(penalty);
            if total == u64::MAX {
                // Already saturated: further retries cannot raise the
                // bound, and a u32::MAX retry budget would otherwise
                // spin here for four billion iterations.
                break;
            }
            retry += 1;
        }
        total
    }

    /// Penalty cycles charged for retry number `tries` (0-based), or
    /// `None` when the protocol does not allow another retry.
    #[must_use]
    pub fn retry_penalty(&self, tries: u32) -> Option<u64> {
        match *self {
            Protocol::Fec => None,
            Protocol::DetectRetransmit {
                rtt_cycles,
                max_retries,
            } => (tries < max_retries).then_some(rtt_cycles),
            Protocol::ArqBackoff {
                timeout_cycles,
                backoff_base,
                backoff_cap,
                max_retries,
            } => (tries < max_retries).then(|| {
                let backoff = backoff_base
                    .checked_shl(tries)
                    .map_or(backoff_cap, |b| b.min(backoff_cap));
                // Saturating: a near-MAX timeout plus a capped backoff
                // must clamp, not wrap the cycle budget around zero.
                timeout_cycles.saturating_add(backoff)
            }),
        }
    }
}

/// One fallback step of the degradation ladder.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DegradationAction {
    /// Multiply the wire swing by `factor` (> 1), lowering every
    /// ε-driven fault process through `ε' = Q(factor·Q⁻¹(ε))`. Hard
    /// faults (stuck-at, bridges) are unaffected.
    RaiseSwing {
        /// Swing multiplier (> 1 raises Vdd).
        factor: f64,
    },
    /// Re-provision the link with a different coding scheme (codec state
    /// resets on both ends; the bus is re-initialized to all-zero).
    SwitchScheme(Scheme),
}

/// Guarded re-promotion after the trouble subsides: once the link has
/// degraded, a streak of `quiet_windows` consecutive windows with
/// trouble rate at or below `trigger` undoes the most recent ladder
/// rung (swing raises are rescaled back; scheme switches revert to the
/// scheme that rung replaced). Any window above `trigger` — and any
/// forced degradation — resets the streak, so promotion has the same
/// dwell-style hysteresis as the closed-loop controller's relax path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PromotePolicy {
    /// Consecutive quiet windows required to undo one rung.
    pub quiet_windows: u64,
    /// Trouble rate at or below which a window counts as quiet (usually
    /// well below the degradation trigger).
    pub trigger: f64,
}

/// Windowed-monitoring policy for adaptive degradation.
#[derive(Clone, Debug, PartialEq)]
pub struct DegradationPolicy {
    /// Words per monitoring window.
    pub window: u64,
    /// Trouble-rate threshold above which the next ladder rung fires.
    pub trigger: f64,
    /// Fallback actions, applied in order, at most one per window.
    pub ladder: Vec<DegradationAction>,
    /// Optional guarded recovery path back up the ladder.
    pub promote: Option<PromotePolicy>,
}

impl DegradationPolicy {
    /// Checks every [`DegradationAction::SwitchScheme`] target against a
    /// `data_bits`-bit link, so a rung that could never provision its
    /// codec is refused before the run instead of panicking when it
    /// fires.
    ///
    /// # Errors
    ///
    /// Returns [`Scheme::check`]'s message for the first switch target
    /// that does not build at `data_bits`.
    pub fn validate(&self, data_bits: usize) -> Result<(), String> {
        self.ladder.iter().try_for_each(|action| match action {
            DegradationAction::SwitchScheme(scheme) => scheme.check(data_bits),
            DegradationAction::RaiseSwing { .. } => Ok(()),
        })
    }
}

/// A recorded degradation-ladder transition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkTransition {
    /// Number of words delivered when the transition fired.
    pub at_word: u64,
    /// Trouble rate of the window that triggered it (for a forced
    /// transition, the rate of the partial window at that moment).
    pub trouble_rate: f64,
    /// The action taken — for a promotion, the ladder action that was
    /// *undone*.
    pub action: DegradationAction,
    /// Whether the transition was forced externally
    /// ([`LinkEngine::force_degrade`]) rather than triggered by the
    /// windowed monitor — forced transitions need not exceed the trigger.
    pub forced: bool,
    /// Whether this transition undid `action` (a [`PromotePolicy`]
    /// recovery) instead of applying it.
    pub promoted: bool,
}

/// Configuration of one link.
#[derive(Clone, Debug)]
pub struct LinkConfig {
    /// Coding scheme on the wires.
    pub scheme: Scheme,
    /// Data bits per word.
    pub data_bits: usize,
    /// Per-wire error probability per transfer (the baseline i.i.d.
    /// process; set to 0 for a clean bus).
    pub eps: f64,
    /// Link protocol.
    pub protocol: Protocol,
    /// Additional fault processes stacked on the baseline (bursts,
    /// stuck-at wires, bridges, droop windows).
    pub faults: Vec<FaultSpec>,
    /// Optional adaptive degradation ladder (mutually exclusive with
    /// `controller`).
    pub degradation: Option<DegradationPolicy>,
    /// Optional closed-loop DVS controller (mutually exclusive with
    /// `degradation`).
    pub controller: Option<ControlPolicy>,
}

impl LinkConfig {
    /// A FEC link with the baseline i.i.d. channel and no extra faults.
    #[must_use]
    pub fn new(scheme: Scheme, data_bits: usize, eps: f64) -> Self {
        LinkConfig {
            scheme,
            data_bits,
            eps,
            protocol: Protocol::Fec,
            faults: Vec::new(),
            degradation: None,
            controller: None,
        }
    }

    /// Replaces the link protocol.
    #[must_use]
    pub fn with_protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Stacks one more fault process onto the channel.
    #[must_use]
    pub fn with_fault(mut self, fault: FaultSpec) -> Self {
        self.faults.push(fault);
        self
    }

    /// Installs an adaptive degradation ladder.
    #[must_use]
    pub fn with_degradation(mut self, policy: DegradationPolicy) -> Self {
        self.degradation = Some(policy);
        self
    }

    /// Installs a closed-loop DVS controller. The link starts at the
    /// policy's safe state (operating point 0), whatever `scheme` and
    /// the nominal swing say.
    #[must_use]
    pub fn with_controller(mut self, policy: ControlPolicy) -> Self {
        self.controller = Some(policy);
        self
    }

    /// The full fault stack: baseline i.i.d. ε (if nonzero) plus the
    /// configured extra faults.
    #[must_use]
    pub fn fault_stack(&self) -> Vec<FaultSpec> {
        let mut specs = Vec::with_capacity(self.faults.len() + 1);
        if self.eps > 0.0 {
            specs.push(FaultSpec::Iid { eps: self.eps });
        }
        specs.extend(self.faults.iter().cloned());
        specs
    }
}

/// Exact per-word fault accounting: every transferred word lands in
/// exactly one bucket, so `clean + corrected_masked + retry_masked +
/// residual` always equals the number of words the engine transferred.
/// The chaos conservation monitor cross-checks this ledger against the
/// coarser [`LinkReport`] counters every run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultLedger {
    /// Words the channel never corrupted (on any attempt) and that
    /// arrived intact.
    pub clean: u64,
    /// Words corrupted by the channel but delivered intact without any
    /// retransmission — masked by the code's correction (or by the
    /// corruption missing the decoded payload).
    pub corrected_masked: u64,
    /// Words corrupted by the channel and delivered intact only after at
    /// least one retransmission.
    pub retry_masked: u64,
    /// Words delivered with the wrong payload.
    pub residual: u64,
}

impl FaultLedger {
    /// Total words accounted for (the conservation left-hand side).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.clean + self.corrected_masked + self.retry_masked + self.residual
    }

    /// Words the channel touched at least once (injected = masked +
    /// residual, the conservation identity of the chaos monitors).
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.corrected_masked + self.retry_masked + self.residual
    }
}

/// Aggregate statistics of a link run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LinkReport {
    /// Words handed to the link.
    pub offered: u64,
    /// Words delivered (all of them; reliability is in `residual_errors`).
    pub delivered: u64,
    /// Delivered words that differ from what was sent.
    pub residual_errors: u64,
    /// The subset of `residual_errors` whose final decode status was
    /// `Detected`: retry-exhausted words force-delivered with an
    /// explicit bad-data flag, so the upstream protocol knows not to
    /// trust them. `residual_errors - detected_residuals` is the
    /// *silent* (undetected) error count — the paper's residual WER.
    pub detected_residuals: u64,
    /// Total bus cycles consumed, including retransmissions and backoff.
    pub cycles: u64,
    /// Number of retransmissions performed.
    pub retransmits: u64,
    /// Decode attempts where an error was detected and corrected.
    pub corrected: u64,
    /// Decode attempts where an error was detected but not correctable
    /// (each failed ARQ attempt counts once).
    pub detected: u64,
    /// Degradation-ladder transitions, in firing order.
    pub transitions: Vec<LinkTransition>,
    /// Closed-loop controller transitions, in firing order.
    pub control: Vec<ControlTransition>,
    /// Accumulated wire-energy coefficient (units of `C·Vdd²`),
    /// self and coupling parts kept separate so callers can apply their λ.
    pub energy: EnergyCoeff,
    /// Exact per-word fault accounting (filled by the engine; the chaos
    /// monitors check it against the counters above).
    pub ledger: FaultLedger,
}

impl LinkReport {
    /// Residual word-error rate.
    #[must_use]
    pub fn residual_rate(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.residual_errors as f64 / self.delivered as f64
        }
    }

    /// Silent (undetected) residual word-error rate: wrong deliveries
    /// that arrived claiming `Clean`/`Unchecked`/`Corrected`. Wrong
    /// words force-delivered after retry exhaustion carry `Detected`
    /// and are excluded — the receiver was warned. This matches the
    /// paper's notion of residual WER (errors that escape the code).
    #[must_use]
    pub fn undetected_rate(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.residual_errors.saturating_sub(self.detected_residuals) as f64
                / self.delivered as f64
        }
    }

    /// Average cycles per delivered word (≥ 1; grows with retransmission).
    #[must_use]
    pub fn cycles_per_word(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.cycles as f64 / self.delivered as f64
        }
    }

    /// Average wire-energy coefficient per delivered word at coupling
    /// ratio `lambda` (units of `C·Vdd²`).
    #[must_use]
    pub fn energy_per_word(&self, lambda: f64) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.energy.total(lambda) / self.delivered as f64
        }
    }
}

/// Everything the link observed while transferring one word — the
/// monitor hook point the chaos harness consumes. A trace is pure data;
/// collecting it costs two word compares per attempt.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WordTrace {
    /// The word handed upward by the receiver.
    pub delivered: Word,
    /// Retransmissions performed for this word.
    pub retries: u32,
    /// Total bus transmissions (`retries + 1`).
    pub attempts: u32,
    /// Bus cycles this word consumed, including retry penalties.
    pub cycles: u64,
    /// Attempts on which the channel altered the word on the wires.
    pub corrupt_attempts: u32,
    /// Largest per-attempt injected error weight (wires flipped by the
    /// channel on a single transmission).
    pub max_error_weight: u32,
    /// Decode status of the final (delivered) attempt.
    pub final_status: DecodeStatus,
    /// Single-transfer detection guarantee of the decoder *at the time
    /// this word was sent* (scheme switches change it for later words).
    pub detectable_errors: usize,
    /// Single-transfer correction guarantee of the decoder at the time
    /// this word was sent.
    pub correctable_errors: usize,
    /// The degradation transition this word triggered, if any.
    pub transition: Option<LinkTransition>,
}

/// The per-link transfer machinery, shared by [`simulate_link`] and the
/// multi-hop path simulator: codec pair, fault injector, protocol state,
/// and the degradation monitor. Public so external harnesses (the chaos
/// soak driver) can step a link word by word, reach into its fault
/// injector between words, and force degradation transitions.
pub struct LinkEngine {
    enc: Box<dyn BusCode>,
    dec: Box<dyn BusCode>,
    injector: FaultInjector,
    bus_state: Word,
    data_bits: usize,
    protocol: Protocol,
    policy: Option<DegradationPolicy>,
    controller: Option<Controller>,
    rung: usize,
    window_words: u64,
    window_trouble: u64,
    /// Consecutive quiet windows accumulated toward a ladder promotion.
    quiet_windows: u64,
    /// The scheme the link was configured with, restored when a
    /// promotion undoes the ladder's first scheme switch.
    base_scheme: Scheme,
    /// Current wire swing relative to the nominal design point; energy
    /// is billed at `swing²`.
    swing: f64,
    words_done: u64,
    tel: Telemetry,
    scheme_label: String,
    /// Set by every site that changes `scheme_label`, so the per-word
    /// batch lookup compares labels only after a change.
    label_changed: bool,
    hop_label: String,
    /// Per-scheme-label metric batches (a scheme switch mid-run starts a
    /// new batch so counters stay split by the label they occurred
    /// under), the last one holding the word's event keys. Flushed by
    /// [`LinkEngine::flush_telemetry`].
    tel_batches: Vec<(String, LinkTelemetryBatch)>,
}

/// The events a link records per word, each under a key its active
/// batch holds.
#[derive(Clone, Copy)]
enum WordEvent {
    /// The `link.word` span.
    Word,
    /// A `link.retry` instant event.
    Retry,
}

impl WordEvent {
    fn name_and_kind(self) -> (&'static str, EventKind) {
        match self {
            WordEvent::Word => ("link.word", EventKind::Span),
            WordEvent::Retry => ("link.retry", EventKind::Instant),
        }
    }
}

/// Word latencies below this many cycles are counted in a dense array.
/// Every protocol the chaos campaigns and benchmarks run fits: the
/// slowest word of their ARQ backoff (three retries) takes 17 cycles.
const DENSE_CYCLES: usize = 32;

/// Locally accumulated per-word metrics, flushed to the sink once per
/// run — keeps the per-word telemetry cost to one span call plus local
/// arithmetic.
#[derive(Default)]
struct LinkTelemetryBatch {
    /// Each [`WordEvent`]'s key under this batch's label, resolved at
    /// the event's first occurrence, so a link that never retries interns
    /// no `link.retry` key; dropped wherever the scheme label is set or
    /// the handle replaced.
    keys: [Option<EventKey>; 2],
    words: u64,
    retransmits: u64,
    corrected: u64,
    detected: u64,
    residual: u64,
    /// The subset of `residual` whose final decode status was *not*
    /// `Detected` — silent wrong deliveries, the numerator of the
    /// paper's undetected WER and of the health monitor's
    /// `undetected_wer` SLO.
    silent: u64,
    /// Word-latency histogram: `cycles_hist[c]` words took `c` cycles.
    cycles_hist: [u64; DENSE_CYCLES],
    /// Words that took [`DENSE_CYCLES`] or more cycles, as (cycles,
    /// occurrences): only a slow backoff protocol reaches these.
    long_cycles: std::collections::BTreeMap<u64, u64>,
}

impl LinkTelemetryBatch {
    fn count_cycles(&mut self, cycles: u64) {
        match usize::try_from(cycles)
            .ok()
            .and_then(|c| self.cycles_hist.get_mut(c))
        {
            Some(n) => *n += 1,
            None => *self.long_cycles.entry(cycles).or_insert(0) += 1,
        }
    }

    /// Every observed latency with its word count, in ascending cycles.
    fn cycle_counts(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (0..)
            .zip(self.cycles_hist)
            .filter(|&(_, n)| n > 0)
            .chain(self.long_cycles.iter().map(|(&c, &n)| (c, n)))
    }
}

impl LinkEngine {
    /// Builds the engine for `cfg` with `extra` fault processes stacked
    /// on top of the config's own (used for per-hop fault domains).
    /// With a controller configured, the link is provisioned at the
    /// policy's safe state: operating point 0's scheme and swing.
    ///
    /// # Panics
    ///
    /// Panics if both a degradation ladder and a controller are
    /// configured, if the ladder fails [`DegradationPolicy::validate`]
    /// (a switch target that does not build at the link's width), or if
    /// the control policy fails [`ControlPolicy::validate`].
    #[must_use]
    pub fn new(cfg: &LinkConfig, extra: &[FaultSpec], seed: u64) -> Self {
        assert!(
            cfg.degradation.is_none() || cfg.controller.is_none(),
            "a link runs either a degradation ladder or a closed-loop controller, not both"
        );
        if let Some(policy) = &cfg.degradation {
            policy
                .validate(cfg.data_bits)
                .expect("degradation ladder must validate");
        }
        let controller = cfg.controller.as_ref().map(|p| {
            Controller::new(p.clone(), cfg.data_bits).expect("control policy must validate")
        });
        let start = controller.as_ref().map(Controller::current);
        let scheme = start.map_or(cfg.scheme, |p| p.scheme);
        let swing = start.map_or(1.0, |p| p.swing);
        let enc = scheme.build(cfg.data_bits);
        let bus_state = Word::zero(enc.wires());
        let mut specs = cfg.fault_stack();
        specs.extend(extra.iter().cloned());
        let mut injector = FaultInjector::new(&specs, seed);
        if swing != 1.0 {
            injector.rescale_swing(swing);
        }
        LinkEngine {
            enc,
            dec: scheme.build(cfg.data_bits),
            injector,
            bus_state,
            data_bits: cfg.data_bits,
            protocol: cfg.protocol,
            policy: cfg.degradation.clone(),
            controller,
            rung: 0,
            window_words: 0,
            window_trouble: 0,
            quiet_windows: 0,
            base_scheme: cfg.scheme,
            swing,
            words_done: 0,
            tel: Telemetry::off(),
            scheme_label: scheme.name(),
            label_changed: false,
            hop_label: "0".to_owned(),
            tel_batches: Vec::new(),
        }
    }

    /// Attaches a telemetry handle, tagging every metric and event from
    /// this engine with `hop` (the Perfetto track). The handle is also
    /// forwarded to the fault injector for per-family corruption
    /// counters. With the handle disabled (the default), instrumented
    /// paths reduce to a single branch. Spans and events stream to the
    /// sink per word; counters and the latency histogram batch locally
    /// until [`LinkEngine::flush_telemetry`].
    pub fn set_telemetry(&mut self, tel: Telemetry, hop: usize) {
        self.injector.set_telemetry(tel.clone());
        self.tel = tel;
        self.hop_label = hop.to_string();
        self.drop_keys();
    }

    /// Forgets the held event keys; the next traced word resolves them
    /// under the current labels and handle.
    fn drop_keys(&mut self) {
        if let Some((_, batch)) = self.tel_batches.last_mut() {
            batch.keys = [None; 2];
        }
    }

    /// Emits the locally batched counters and latency histogram, plus
    /// the injector's corruption counters, and resets the batches (safe
    /// to call repeatedly; each delta is reported once).
    pub fn flush_telemetry(&mut self) {
        self.injector.flush_telemetry();
        if !self.tel.is_enabled() {
            return;
        }
        let tel = self.tel.clone();
        for (scheme, b) in std::mem::take(&mut self.tel_batches) {
            let labels = [
                ("scheme", scheme.as_str()),
                ("hop", self.hop_label.as_str()),
            ];
            tel.counter("link.words", &labels, b.words);
            if b.retransmits > 0 {
                tel.counter("link.retransmits", &labels, b.retransmits);
            }
            if b.corrected > 0 {
                tel.counter("link.corrected", &labels, b.corrected);
            }
            if b.detected > 0 {
                tel.counter("link.detected", &labels, b.detected);
            }
            if b.residual > 0 {
                tel.counter("link.residual", &labels, b.residual);
            }
            if b.silent > 0 {
                tel.counter("link.silent", &labels, b.silent);
            }
            for (cycles, n) in b.cycle_counts() {
                #[allow(clippy::cast_precision_loss)]
                tel.observe_n("link.word_cycles", &labels, cycles as f64, n);
            }
        }
    }

    /// The batch metrics accumulate into and the key `event` goes under;
    /// `None` only with telemetry off, so sites call it inside their
    /// `is_enabled` guard and the untraced path never does. The batch is
    /// the last one if its scheme label is still current, else a fresh
    /// one for the new label; the labels are compared only when there is
    /// no batch yet or the label has changed since the last word. A key
    /// is resolved once per batch and again after
    /// [`LinkEngine::drop_keys`].
    fn active_batch(&mut self, event: WordEvent) -> Option<(&mut LinkTelemetryBatch, EventKey)> {
        if std::mem::take(&mut self.label_changed) || self.tel_batches.is_empty() {
            let stale = !matches!(self.tel_batches.last(), Some((l, _)) if *l == self.scheme_label);
            if stale {
                self.tel_batches
                    .push((self.scheme_label.clone(), LinkTelemetryBatch::default()));
            }
        }
        let batch = &mut self.tel_batches.last_mut()?.1;
        let held = &mut batch.keys[event as usize];
        if held.is_none() {
            let labels = [
                ("scheme", self.scheme_label.as_str()),
                ("hop", self.hop_label.as_str()),
            ];
            let (name, kind) = event.name_and_kind();
            *held = self.tel.key(name, &labels, kind);
        }
        let key = (*held)?;
        Some((batch, key))
    }

    /// Transfers one word, driving the protocol to completion, and
    /// returns what the receiver hands upward. Accounting (cycles,
    /// energy, retransmits, corrected/detected, ledger, transitions) goes
    /// into `report`; the caller owns `offered`/`delivered`/
    /// `residual_errors` because only it knows the reference word.
    pub fn transfer(&mut self, data: Word, report: &mut LinkReport) -> Word {
        self.transfer_traced(data, report).delivered
    }

    /// [`LinkEngine::transfer`], returning the full per-word
    /// [`WordTrace`] for online invariant monitoring.
    pub fn transfer_traced(&mut self, data: Word, report: &mut LinkReport) -> WordTrace {
        let detectable_errors = self.dec.detectable_errors();
        let correctable_errors = self.dec.correctable_errors();
        let cycles_before = report.cycles;
        let transitions_before = report.transitions.len();
        let mut tries = 0u32;
        let mut corrupt_attempts = 0u32;
        let mut max_error_weight = 0u32;
        loop {
            let sent = self.enc.encode(data);
            report.energy = report
                .energy
                .add(word_transition_energy(self.bus_state, sent).scale(self.swing * self.swing));
            self.bus_state = sent;
            report.cycles += 1;
            let received = self.injector.transmit(sent);
            if received != sent {
                corrupt_attempts += 1;
                max_error_weight = max_error_weight.max(sent.hamming_distance(received));
            }
            let (decoded, status) = self.dec.decode_checked(received);
            match status {
                DecodeStatus::Corrected => report.corrected += 1,
                DecodeStatus::Detected => report.detected += 1,
                DecodeStatus::Clean | DecodeStatus::Unchecked => {}
            }
            if status == DecodeStatus::Detected {
                if let Some(penalty) = self.protocol.retry_penalty(tries) {
                    report.cycles += penalty;
                    report.retransmits += 1;
                    tries += 1;
                    if self.tel.is_enabled() {
                        if let Some((_, retry)) = self.active_batch(WordEvent::Retry) {
                            self.tel.record(retry, report.cycles, report.cycles);
                        }
                    }
                    continue;
                }
            }
            if decoded != data {
                report.ledger.residual += 1;
                if status == DecodeStatus::Detected {
                    report.detected_residuals += 1;
                }
            } else if corrupt_attempts == 0 {
                report.ledger.clean += 1;
            } else if tries == 0 {
                report.ledger.corrected_masked += 1;
            } else {
                report.ledger.retry_masked += 1;
            }
            if self.tel.is_enabled() {
                if let Some((b, word)) = self.active_batch(WordEvent::Word) {
                    let word_cycles = report.cycles - cycles_before;
                    let residual = decoded != data;
                    b.words += 1;
                    b.retransmits += u64::from(tries);
                    match status {
                        DecodeStatus::Corrected => b.corrected += 1,
                        DecodeStatus::Detected => b.detected += 1,
                        DecodeStatus::Clean | DecodeStatus::Unchecked => {}
                    }
                    if residual {
                        b.residual += 1;
                        if status != DecodeStatus::Detected {
                            b.silent += 1;
                        }
                    }
                    b.count_cycles(word_cycles);
                    self.tel.record(word, cycles_before, report.cycles);
                }
            }
            let trouble =
                tries > 0 || matches!(status, DecodeStatus::Corrected | DecodeStatus::Detected);
            self.finish_word(trouble, max_error_weight, report);
            return WordTrace {
                delivered: decoded,
                retries: tries,
                attempts: tries + 1,
                cycles: report.cycles - cycles_before,
                corrupt_attempts,
                max_error_weight,
                final_status: status,
                detectable_errors,
                correctable_errors,
                transition: report.transitions.get(transitions_before).copied(),
            };
        }
    }

    /// Mutable access to the fault injector, so a schedule driver can
    /// activate/deactivate fault processes between words.
    pub fn injector_mut(&mut self) -> &mut FaultInjector {
        &mut self.injector
    }

    /// Read access to the fault injector (event clock, slot states).
    #[must_use]
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// Applies the next ladder rung immediately, regardless of the
    /// windowed trouble rate, recording a `forced` transition. Returns
    /// `None` when there is no policy or the ladder is exhausted — the
    /// chaos schedules use this to exercise mid-flight degradation at
    /// adversarial moments.
    pub fn force_degrade(&mut self, report: &mut LinkReport) -> Option<LinkTransition> {
        let action = self
            .policy
            .as_ref()
            .and_then(|p| p.ladder.get(self.rung))
            .copied()?;
        let trouble_rate = if self.window_words == 0 {
            0.0
        } else {
            self.window_trouble as f64 / self.window_words as f64
        };
        self.apply(action);
        self.rung += 1;
        self.quiet_windows = 0;
        let transition = LinkTransition {
            at_word: self.words_done,
            trouble_rate,
            action,
            forced: true,
            promoted: false,
        };
        report.transitions.push(transition);
        self.emit_degrade(&transition, report.cycles);
        Some(transition)
    }

    /// Reports one ladder transition on the hop's track (the scheme label
    /// is the *post-transition* scheme — `apply` has already run).
    fn emit_degrade(&self, transition: &LinkTransition, at_cycle: u64) {
        if !self.tel.is_enabled() {
            return;
        }
        let action = match transition.action {
            DegradationAction::RaiseSwing { .. } => "raise_swing",
            DegradationAction::SwitchScheme(_) => "switch_scheme",
        };
        let labels = [
            ("scheme", self.scheme_label.as_str()),
            ("hop", self.hop_label.as_str()),
            ("action", action),
            ("forced", if transition.forced { "true" } else { "false" }),
            (
                "dir",
                if transition.promoted {
                    "promote"
                } else {
                    "demote"
                },
            ),
        ];
        self.tel.event("link.degrade", &labels, at_cycle);
        self.tel.counter("link.degrades", &labels[1..3], 1);
    }

    /// The ladder rung the engine will apply next (demotions minus
    /// promotions so far).
    #[must_use]
    pub fn rung(&self) -> usize {
        self.rung
    }

    /// Current wire swing relative to the nominal design point (1.0
    /// without a controller or swing-raising ladder action). Energy is
    /// billed at `swing²`.
    #[must_use]
    pub fn swing(&self) -> f64 {
        self.swing
    }

    /// Current controller operating-point index, when a controller is
    /// configured.
    #[must_use]
    pub fn control_index(&self) -> Option<usize> {
        self.controller.as_ref().map(Controller::index)
    }

    /// Window bookkeeping + adaptation stepping (degradation ladder or
    /// closed-loop controller), once per word.
    fn finish_word(&mut self, trouble: bool, weight: u32, report: &mut LinkReport) {
        self.words_done += 1;
        if self.controller.is_some() {
            self.step_controller(trouble, weight, report);
            return;
        }
        let Some((window, trigger)) = self.policy.as_ref().map(|p| (p.window, p.trigger)) else {
            return;
        };
        self.window_words += 1;
        if trouble {
            self.window_trouble += 1;
        }
        if self.window_words < window {
            return;
        }
        #[allow(clippy::cast_precision_loss)]
        let rate = self.window_trouble as f64 / self.window_words as f64;
        self.window_words = 0;
        self.window_trouble = 0;
        if rate > trigger {
            self.quiet_windows = 0;
            let next = self
                .policy
                .as_ref()
                .and_then(|p| p.ladder.get(self.rung))
                .copied();
            if let Some(action) = next {
                self.apply(action);
                self.rung += 1;
                let transition = LinkTransition {
                    at_word: self.words_done,
                    trouble_rate: rate,
                    action,
                    forced: false,
                    promoted: false,
                };
                report.transitions.push(transition);
                self.emit_degrade(&transition, report.cycles);
            }
            return;
        }
        // The window stayed at or below the trigger — maybe promote.
        let Some(promote) = self.policy.as_ref().and_then(|p| p.promote) else {
            return;
        };
        if self.rung == 0 || rate > promote.trigger {
            self.quiet_windows = 0;
            return;
        }
        self.quiet_windows += 1;
        if self.quiet_windows < promote.quiet_windows {
            return;
        }
        self.quiet_windows = 0;
        let undone = self.unapply(self.rung - 1);
        self.rung -= 1;
        let transition = LinkTransition {
            at_word: self.words_done,
            trouble_rate: rate,
            action: undone,
            forced: false,
            promoted: true,
        };
        report.transitions.push(transition);
        self.emit_degrade(&transition, report.cycles);
    }

    /// Applies the controller's decision for this word, if any:
    /// rescale the swing and/or re-provision the codec, then record the
    /// transition.
    fn step_controller(&mut self, trouble: bool, weight: u32, report: &mut LinkReport) {
        let (transition, from_point, to_point) = {
            let Some(ctl) = self.controller.as_mut() else {
                return;
            };
            let from = ctl.current();
            match ctl.observe(trouble, weight, self.words_done) {
                Some(t) => {
                    let to = ctl.point(t.to);
                    (t, from, to)
                }
                None => return,
            }
        };
        if to_point.swing != from_point.swing {
            self.injector
                .rescale_swing(to_point.swing / from_point.swing);
            self.swing = to_point.swing;
        }
        if to_point.scheme != from_point.scheme {
            self.switch_scheme(to_point.scheme);
        }
        report.control.push(transition);
        if self.tel.is_enabled() {
            let labels = [
                ("scheme", self.scheme_label.as_str()),
                ("hop", self.hop_label.as_str()),
                ("cause", transition.cause.name()),
            ];
            self.tel.event("control.transition", &labels, report.cycles);
            self.tel.counter("control.transitions", &labels[1..], 1);
        }
    }

    fn apply(&mut self, action: DegradationAction) {
        match action {
            DegradationAction::RaiseSwing { factor } => {
                self.injector.rescale_swing(factor);
                self.swing *= factor;
            }
            DegradationAction::SwitchScheme(scheme) => self.switch_scheme(scheme),
        }
    }

    /// Re-provisions the codec pair for `scheme` on an idle bus and
    /// relabels the link; the held event keys go with the old label.
    fn switch_scheme(&mut self, scheme: Scheme) {
        self.enc = scheme.build(self.data_bits);
        self.dec = scheme.build(self.data_bits);
        self.bus_state = Word::zero(self.enc.wires());
        self.scheme_label = scheme.name();
        self.label_changed = true;
        self.drop_keys();
    }

    /// Undoes ladder rung `rung_index` (a promotion): a swing raise is
    /// rescaled back, a scheme switch reverts to the scheme that rung
    /// replaced (the previous switch on the ladder, else the configured
    /// base scheme). Returns the action that was undone.
    fn unapply(&mut self, rung_index: usize) -> DegradationAction {
        let action = self
            .policy
            .as_ref()
            .expect("promotion requires a policy")
            .ladder[rung_index];
        match action {
            DegradationAction::RaiseSwing { factor } => {
                self.injector.rescale_swing(1.0 / factor);
                self.swing /= factor;
            }
            DegradationAction::SwitchScheme(_) => {
                let scheme = {
                    let policy = self.policy.as_ref().expect("promotion requires a policy");
                    policy.ladder[..rung_index]
                        .iter()
                        .rev()
                        .find_map(|a| match a {
                            DegradationAction::SwitchScheme(s) => Some(*s),
                            DegradationAction::RaiseSwing { .. } => None,
                        })
                        .unwrap_or(self.base_scheme)
                };
                self.switch_scheme(scheme);
            }
        }
        action
    }
}

/// Simulates `traffic` over the configured link.
///
/// # Panics
///
/// Panics if the scheme rejects the width.
pub fn simulate_link(
    cfg: &LinkConfig,
    traffic: impl Iterator<Item = Word>,
    seed: u64,
) -> LinkReport {
    simulate_link_with(cfg, traffic, seed, Telemetry::off())
}

/// [`simulate_link`] with a telemetry handle attached to the engine (hop
/// track 0). Passing `Telemetry::off()` is exactly `simulate_link`.
///
/// # Panics
///
/// Panics if the scheme rejects the width.
pub fn simulate_link_with(
    cfg: &LinkConfig,
    traffic: impl Iterator<Item = Word>,
    seed: u64,
    tel: Telemetry,
) -> LinkReport {
    let mut engine = LinkEngine::new(cfg, &[], seed);
    engine.set_telemetry(tel, 0);
    let mut report = LinkReport::default();
    for data in traffic {
        report.offered += 1;
        let decoded = engine.transfer(data, &mut report);
        report.delivered += 1;
        if decoded != data {
            report.residual_errors += 1;
        }
    }
    engine.flush_telemetry();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{RampTraffic, UniformTraffic};

    fn run(scheme: Scheme, eps: f64, protocol: Protocol, n: usize) -> LinkReport {
        let cfg = LinkConfig::new(scheme, 8, eps).with_protocol(protocol);
        simulate_link(&cfg, UniformTraffic::new(8, 42).take(n), 7)
    }

    #[test]
    fn arq_backoff_cycle_arithmetic_saturates_instead_of_wrapping() {
        // Regression: retry penalties near u64::MAX used to wrap the
        // cycle budget around zero, making the chaos latency invariant
        // vacuous (budget ~0) or falsely violated.
        let proto = Protocol::ArqBackoff {
            timeout_cycles: u64::MAX - 2,
            backoff_base: u64::MAX / 2,
            backoff_cap: u64::MAX,
            max_retries: 3,
        };
        assert_eq!(proto.retry_penalty(0), Some(u64::MAX));
        assert_eq!(proto.retry_penalty(2), Some(u64::MAX));
        assert_eq!(proto.retry_penalty(3), None);
        assert_eq!(proto.worst_case_word_cycles(), u64::MAX);
    }

    #[test]
    fn worst_case_cycles_terminates_on_huge_retry_budgets() {
        // A u32::MAX retry budget with saturated penalties must return
        // promptly (the loop breaks at saturation) rather than iterate
        // four billion times.
        let proto = Protocol::ArqBackoff {
            timeout_cycles: u64::MAX,
            backoff_base: 1,
            backoff_cap: 8,
            max_retries: u32::MAX,
        };
        assert_eq!(proto.worst_case_word_cycles(), u64::MAX);
        // Sane configurations are unchanged by the guard.
        let proto = Protocol::ArqBackoff {
            timeout_cycles: 3,
            backoff_base: 1,
            backoff_cap: 8,
            max_retries: 3,
        };
        // 1 + (1+3+1) + (1+3+2) + (1+3+4) = 20
        assert_eq!(proto.worst_case_word_cycles(), 20);
    }

    #[test]
    fn clean_link_delivers_everything() {
        let r = run(Scheme::Uncoded, 0.0, Protocol::Fec, 500);
        assert_eq!(r.delivered, 500);
        assert_eq!(r.residual_errors, 0);
        assert_eq!(r.cycles, 500);
        assert!(r.transitions.is_empty());
    }

    #[test]
    fn fec_dap_beats_uncoded_reliability() {
        let eps = 5e-3;
        let unc = run(Scheme::Uncoded, eps, Protocol::Fec, 30_000);
        let dap = run(Scheme::Dap, eps, Protocol::Fec, 30_000);
        assert!(unc.residual_errors > 0, "uncoded should see errors");
        assert!(
            dap.residual_rate() < unc.residual_rate() / 5.0,
            "dap {} vs uncoded {}",
            dap.residual_rate(),
            unc.residual_rate()
        );
        assert!(dap.corrected > 0, "corrections should be counted");
    }

    #[test]
    fn retransmission_buys_reliability_with_latency() {
        let eps = 5e-3;
        let proto = Protocol::DetectRetransmit {
            rtt_cycles: 4,
            max_retries: 4,
        };
        let fec = run(Scheme::ExtHamming, eps, Protocol::Fec, 30_000);
        let arq = run(Scheme::ExtHamming, eps, proto, 30_000);
        assert!(arq.residual_rate() <= fec.residual_rate());
        assert!(arq.cycles_per_word() > 1.0);
        assert!(arq.retransmits > 0);
    }

    #[test]
    fn parity_arq_recovers_single_errors() {
        let eps = 3e-3;
        let proto = Protocol::DetectRetransmit {
            rtt_cycles: 2,
            max_retries: 8,
        };
        let plain = run(Scheme::Parity, eps, Protocol::Fec, 30_000);
        let arq = run(Scheme::Parity, eps, proto, 30_000);
        assert!(
            arq.residual_rate() < plain.residual_rate() / 3.0,
            "arq {} vs plain {}",
            arq.residual_rate(),
            plain.residual_rate()
        );
    }

    #[test]
    fn dup_energy_beats_uncoded_per_coefficient_ordering() {
        // Duplication halves opposing-coupling events per delivered bit;
        // sanity-check the energy bookkeeping is wired through.
        let unc = run(Scheme::Uncoded, 0.0, Protocol::Fec, 5_000);
        assert!(unc.energy_per_word(2.8) > 0.0);
        let dap = run(Scheme::Dap, 0.0, Protocol::Fec, 5_000);
        // DAP switches more wires (self energy up) but its coupling
        // coefficient per word stays below the uncoded bus's.
        let per = 1.0 / unc.delivered as f64;
        assert!(dap.energy.self_coeff * per > unc.energy.self_coeff * per);
        assert!(dap.energy.coupling_coeff < unc.energy.coupling_coeff * 1.2);
    }

    /// Retry-exhaustion audit (ISSUE 1 satellite): once `max_retries` is
    /// spent, the word goes upward as-is — it must be compared against
    /// the sent word (residual accounting) and every failed round must
    /// stay in the cycle count. Driven fully deterministically by a
    /// stuck-at fault instead of a random channel.
    #[test]
    fn exhausted_retries_count_residuals_and_failed_cycles() {
        let max_retries = 3u32;
        let rtt = 4u64;
        // Wire 0 carries data bit 0; stuck-at-0 corrupts exactly the odd
        // payloads. RampTraffic with stride 1 yields values 1..=100, so
        // 50 odd words fail detection on every attempt.
        let cfg = LinkConfig::new(Scheme::Parity, 8, 0.0)
            .with_protocol(Protocol::DetectRetransmit {
                rtt_cycles: rtt,
                max_retries,
            })
            .with_fault(FaultSpec::StuckAt {
                wire: 0,
                value: false,
            });
        let r = simulate_link(&cfg, RampTraffic::new(8, 1, 0.0, 1).take(100), 9);
        assert_eq!(r.offered, 100);
        assert_eq!(r.delivered, 100, "exhausted words still deliver");
        assert_eq!(
            r.residual_errors, 50,
            "as-is deliveries must be checked against the sent word"
        );
        assert_eq!(r.retransmits, 50 * u64::from(max_retries));
        // Odd word: 1 + max_retries attempts plus rtt per retry; even: 1.
        let expect_cycles = 100 + 50 * u64::from(max_retries) + 50 * rtt * u64::from(max_retries);
        assert_eq!(r.cycles, expect_cycles, "failed rounds must be billed");
        // Every failed attempt (including the final as-is one) is a
        // detected-uncorrectable event.
        assert_eq!(r.detected, 50 * (u64::from(max_retries) + 1));
    }

    /// Zero-word guard (ISSUE 2 satellite): an empty run must report 0.0
    /// rates, never NaN — downstream JSON and monitors divide by these.
    #[test]
    fn zero_word_link_report_is_nan_free() {
        let empty = simulate_link(
            &LinkConfig::new(Scheme::Dap, 8, 1e-3),
            std::iter::empty(),
            1,
        );
        assert_eq!(empty.delivered, 0);
        assert_eq!(empty.residual_rate(), 0.0);
        assert_eq!(empty.cycles_per_word(), 0.0);
        assert_eq!(empty.energy_per_word(2.8), 0.0);
        assert!(!empty.residual_rate().is_nan());
        let blank = LinkReport::default();
        assert_eq!(blank.residual_rate(), 0.0);
        assert_eq!(blank.cycles_per_word(), 0.0);
    }

    /// The worst-case word budget really bounds every transfer, and the
    /// trace/ledger bookkeeping is conserved word by word.
    #[test]
    fn traces_respect_worst_case_budget_and_ledger_conserves() {
        let proto = Protocol::ArqBackoff {
            timeout_cycles: 3,
            backoff_base: 1,
            backoff_cap: 8,
            max_retries: 3,
        };
        // 1 + (1+4) + (1+5) + (1+7) = 20 cycles at most per word.
        assert_eq!(proto.worst_case_word_cycles(), 20);
        assert_eq!(Protocol::Fec.worst_case_word_cycles(), 1);
        let cfg = LinkConfig::new(Scheme::Parity, 8, 5e-3).with_protocol(proto);
        let mut engine = LinkEngine::new(&cfg, &[], 3);
        let mut report = LinkReport::default();
        let mut words = 0u64;
        for data in UniformTraffic::new(8, 11).take(3_000) {
            let trace = engine.transfer_traced(data, &mut report);
            words += 1;
            assert!(
                trace.cycles <= proto.worst_case_word_cycles(),
                "word exceeded its cycle budget: {trace:?}"
            );
            assert_eq!(trace.attempts, trace.retries + 1);
            assert_eq!(report.ledger.total(), words, "ledger must conserve");
        }
        assert!(report.ledger.clean > 0);
        assert!(
            report.ledger.injected() > 0,
            "5e-3 eps must touch some words"
        );
    }

    /// `force_degrade` walks the ladder in order, marks transitions
    /// forced, and reports exhaustion.
    #[test]
    fn force_degrade_walks_ladder_in_order() {
        let policy = DegradationPolicy {
            window: 1_000_000,
            trigger: 1.0,
            ladder: vec![
                DegradationAction::RaiseSwing { factor: 1.25 },
                DegradationAction::SwitchScheme(Scheme::Dap),
            ],
            promote: None,
        };
        let cfg = LinkConfig::new(Scheme::Parity, 8, 0.0).with_degradation(policy);
        let mut engine = LinkEngine::new(&cfg, &[], 0);
        let mut report = LinkReport::default();
        let first = engine.force_degrade(&mut report).expect("rung 0");
        assert!(first.forced);
        assert!(matches!(first.action, DegradationAction::RaiseSwing { .. }));
        let second = engine.force_degrade(&mut report).expect("rung 1");
        assert!(matches!(
            second.action,
            DegradationAction::SwitchScheme(Scheme::Dap)
        ));
        assert_eq!(engine.rung(), 2);
        assert!(engine.force_degrade(&mut report).is_none(), "exhausted");
        assert_eq!(report.transitions.len(), 2);
        // The engine still transfers correctly on the switched scheme.
        let w = Word::from_bits(0x5A, 8);
        assert_eq!(engine.transfer(w, &mut report), w);
    }

    /// Equivalence audit (ISSUE satellite): for every scheme in the
    /// catalog, `transfer` and `transfer_traced` deliver identical words
    /// and identical `LinkReport` deltas (cycles, retransmits, corrected,
    /// detected, energy, ledger buckets) from the same seed — the traced
    /// path is a pure observer.
    #[test]
    fn transfer_and_transfer_traced_are_equivalent_across_catalog() {
        let proto = Protocol::DetectRetransmit {
            rtt_cycles: 3,
            max_retries: 2,
        };
        for scheme in Scheme::catalog() {
            let cfg = LinkConfig::new(scheme, 8, 8e-3)
                .with_protocol(proto)
                .with_fault(FaultSpec::Burst {
                    eps_good: 1e-3,
                    eps_bad: 0.1,
                    p_enter: 0.02,
                    p_exit: 0.2,
                });
            let mut plain = LinkEngine::new(&cfg, &[], 23);
            let mut traced = LinkEngine::new(&cfg, &[], 23);
            let mut plain_report = LinkReport::default();
            let mut traced_report = LinkReport::default();
            for data in UniformTraffic::new(8, 31).take(400) {
                let word = plain.transfer(data, &mut plain_report);
                let trace = traced.transfer_traced(data, &mut traced_report);
                assert_eq!(
                    word,
                    trace.delivered,
                    "{}: delivered words must match",
                    scheme.name()
                );
                assert_eq!(
                    plain_report,
                    traced_report,
                    "{}: report deltas must match",
                    scheme.name()
                );
            }
            assert_eq!(plain_report.ledger, traced_report.ledger);
        }
    }

    /// Attaching an enabled telemetry sink must not perturb the
    /// simulation: words, report, and ledger stay identical, while the
    /// recorder's counters agree with the report's own accounting.
    #[test]
    fn telemetry_observes_without_perturbing() {
        use socbus_telemetry::Recorder;
        use std::rc::Rc;
        let cfg =
            LinkConfig::new(Scheme::Parity, 8, 8e-3).with_protocol(Protocol::DetectRetransmit {
                rtt_cycles: 3,
                max_retries: 2,
            });
        let mut plain = LinkEngine::new(&cfg, &[], 29);
        let mut traced = LinkEngine::new(&cfg, &[], 29);
        let recorder = Rc::new(Recorder::new());
        traced.set_telemetry(Telemetry::from_recorder(&recorder), 4);
        let mut plain_report = LinkReport::default();
        let mut traced_report = LinkReport::default();
        for data in UniformTraffic::new(8, 37).take(2_000) {
            assert_eq!(
                plain.transfer(data, &mut plain_report),
                traced.transfer(data, &mut traced_report)
            );
        }
        assert_eq!(plain_report, traced_report);
        let labels = [("scheme", "Parity"), ("hop", "4")];
        assert_eq!(
            recorder.counter_value("link.words", &labels),
            0,
            "counters batch locally until flushed"
        );
        traced.flush_telemetry();
        traced.flush_telemetry(); // idempotent: deltas report once
        assert_eq!(recorder.counter_value("link.words", &labels), 2_000);
        assert_eq!(
            recorder.counter_value("link.retransmits", &labels),
            traced_report.retransmits
        );
        assert_eq!(
            recorder.counter_value("link.detected", &labels),
            traced_report.detected - traced_report.retransmits,
            "detected counter tallies final-attempt detections only"
        );
        let hist = recorder
            .histogram("link.word_cycles", &labels)
            .expect("cycle histogram");
        assert_eq!(hist.count, 2_000);
        assert_eq!(hist.sum, traced_report.cycles as f64);
    }

    /// A link holds its `link.word` and `link.retry` keys across words
    /// and resolves them again when its scheme label or its handle
    /// changes: every event carries the scheme and hop in force when it
    /// was recorded, none reaches a recorder the link has left, and no
    /// recorder sees a key it did not issue.
    #[test]
    fn held_event_keys_follow_scheme_switches_and_handle_moves() {
        use socbus_telemetry::{json, Json, Recorder};
        use std::rc::Rc;
        let ladder = [Scheme::Hamming, Scheme::Dap, Scheme::ExtHamming];
        let cfg = LinkConfig::new(Scheme::Parity, 8, 2e-2)
            .with_protocol(Protocol::DetectRetransmit {
                rtt_cycles: 2,
                max_retries: 3,
            })
            .with_degradation(DegradationPolicy {
                window: u64::MAX,
                trigger: 1.0,
                ladder: ladder.map(DegradationAction::SwitchScheme).to_vec(),
                promote: None,
            });
        let mut engine = LinkEngine::new(&cfg, &[], 9);
        let (first, second) = (Rc::new(Recorder::new()), Rc::new(Recorder::new()));
        engine.set_telemetry(Telemetry::from_recorder(&first), 1);
        let mut report = LinkReport::default();
        let mut rungs = ladder.iter();
        let (mut scheme, mut hop) = (Scheme::Parity, 1);
        let mut in_force = Vec::new();
        for (word, data) in (0..400).zip(UniformTraffic::new(8, 4)) {
            match word {
                100 | 200 | 350 => {
                    engine.force_degrade(&mut report).expect("a rung is left");
                    scheme = *rungs.next().expect("a rung is left");
                }
                300 => {
                    engine.set_telemetry(Telemetry::from_recorder(&second), 2);
                    hop = 2;
                }
                _ => {}
            }
            in_force.push((scheme.name(), hop.to_string()));
            engine.transfer(data, &mut report);
        }
        let check = |rec: &Recorder, words: std::ops::Range<usize>| {
            let (mut word, mut retries) = (words.start, 0);
            for line in rec.export_jsonl().lines() {
                let doc = json::parse(line).expect("valid JSONL");
                let name = doc.get("name").and_then(Json::as_str);
                if !matches!(name, Some("link.word" | "link.retry")) {
                    continue;
                }
                let labels = doc.get("labels").expect("labels");
                let label = |k| labels.get(k).and_then(Json::as_str).expect(k).to_owned();
                assert_eq!(
                    (label("scheme"), label("hop")),
                    in_force[word],
                    "word {word}"
                );
                if name == Some("link.word") {
                    word += 1;
                } else {
                    retries += 1;
                }
            }
            assert_eq!(word, words.end, "one span per word, all in this recorder");
            assert!(retries > 0, "the retry key was exercised");
            assert_eq!(rec.kind_conflicts(), 0);
        };
        check(&first, 0..300);
        check(&second, 300..400);
    }

    /// Word latencies on both sides of the dense array's end flush as
    /// one `observe_n` call per latency, in ascending cycle order.
    #[test]
    fn word_latencies_flush_in_ascending_cycle_order() {
        use socbus_telemetry::sink::{Labels, TelemetrySink};
        use std::cell::RefCell;
        use std::rc::Rc;
        #[derive(Default)]
        struct Latencies(RefCell<Vec<(f64, u64)>>);
        impl TelemetrySink for Latencies {
            fn counter_add(&self, _: &'static str, _: Labels<'_>, _: u64) {}
            fn gauge_set(&self, _: &'static str, _: Labels<'_>, _: f64) {}
            fn observe(&self, name: &'static str, labels: Labels<'_>, value: f64) {
                self.observe_n(name, labels, value, 1);
            }
            fn observe_n(&self, name: &'static str, _: Labels<'_>, value: f64, n: u64) {
                if name == "link.word_cycles" {
                    self.0.borrow_mut().push((value, n));
                }
            }
            fn key(&self, _: &'static str, _: Labels<'_>, _: EventKind) -> EventKey {
                EventKey::new(0, 0)
            }
            fn record(&self, _: EventKey, _: u64, _: u64) {}
        }
        // Retries cost 12, 14, 18, 26, 26 and 26 cycles: latencies 1, 13,
        // 27, 45, 71, 97 and 123.
        let cfg = LinkConfig::new(Scheme::Parity, 8, 3e-2).with_protocol(Protocol::ArqBackoff {
            timeout_cycles: 10,
            backoff_base: 2,
            backoff_cap: 16,
            max_retries: 6,
        });
        let mut engine = LinkEngine::new(&cfg, &[], 5);
        let sink = Rc::new(Latencies::default());
        engine.set_telemetry(Telemetry::new(Rc::clone(&sink) as Rc<dyn TelemetrySink>), 0);
        let mut report = LinkReport::default();
        for data in UniformTraffic::new(8, 11).take(4_000) {
            engine.transfer(data, &mut report);
        }
        engine.flush_telemetry();
        let calls = sink.0.borrow();
        assert!(calls.windows(2).all(|w| w[0].0 < w[1].0), "{calls:?}");
        assert!(calls.iter().any(|&(c, _)| c < DENSE_CYCLES as f64));
        assert!(calls.iter().any(|&(c, _)| c >= DENSE_CYCLES as f64));
        assert_eq!(calls.iter().map(|&(_, n)| n).sum::<u64>(), 4_000);
        let cycles: f64 = calls.iter().map(|&(c, n)| c * n as f64).sum();
        assert_eq!(cycles, report.cycles as f64);
    }

    #[test]
    fn backoff_grows_exponentially_and_is_bounded() {
        assert_eq!(Protocol::Fec.retry_penalty(0), None);
        let p = Protocol::ArqBackoff {
            timeout_cycles: 10,
            backoff_base: 2,
            backoff_cap: 16,
            max_retries: 6,
        };
        assert_eq!(p.retry_penalty(0), Some(12)); // 10 + 2
        assert_eq!(p.retry_penalty(1), Some(14)); // 10 + 4
        assert_eq!(p.retry_penalty(2), Some(18)); // 10 + 8
        assert_eq!(p.retry_penalty(3), Some(26)); // 10 + 16 (cap)
        assert_eq!(p.retry_penalty(4), Some(26)); // capped
        assert_eq!(p.retry_penalty(6), None); // budget spent
    }

    #[test]
    fn backoff_arq_bills_more_cycles_than_flat_arq() {
        let stuck = FaultSpec::StuckAt {
            wire: 0,
            value: false,
        };
        let flat = LinkConfig::new(Scheme::Parity, 8, 0.0)
            .with_protocol(Protocol::DetectRetransmit {
                rtt_cycles: 2,
                max_retries: 4,
            })
            .with_fault(stuck.clone());
        let backoff = LinkConfig::new(Scheme::Parity, 8, 0.0)
            .with_protocol(Protocol::ArqBackoff {
                timeout_cycles: 2,
                backoff_base: 1,
                backoff_cap: 64,
                max_retries: 4,
            })
            .with_fault(stuck);
        let rf = simulate_link(&flat, RampTraffic::new(8, 1, 0.0, 1).take(100), 9);
        let rb = simulate_link(&backoff, RampTraffic::new(8, 1, 0.0, 1).take(100), 9);
        // Identical retry counts, but each backoff retry r adds 1<<r extra:
        // 1 + 2 + 4 + 8 = 15 per failing word, 50 failing words.
        assert_eq!(rf.retransmits, rb.retransmits);
        assert_eq!(rb.cycles, rf.cycles + 50 * 15);
    }

    /// End-to-end acceptance: a link with a degradation ladder recovers
    /// from an injected stuck-at fault — after the ladder switches to a
    /// correcting scheme, no further residual errors accumulate.
    #[test]
    fn degradation_ladder_recovers_from_stuck_wire() {
        let policy = DegradationPolicy {
            window: 200,
            trigger: 0.2,
            ladder: vec![
                DegradationAction::RaiseSwing { factor: 1.25 },
                DegradationAction::SwitchScheme(Scheme::Dap),
            ],
            promote: None,
        };
        let cfg = LinkConfig::new(Scheme::Parity, 8, 1e-4)
            .with_protocol(Protocol::DetectRetransmit {
                rtt_cycles: 2,
                max_retries: 2,
            })
            .with_fault(FaultSpec::StuckAt {
                wire: 0,
                value: false,
            })
            .with_degradation(policy);
        let head = simulate_link(&cfg, UniformTraffic::new(8, 5).take(2_000), 13);
        let full = simulate_link(&cfg, UniformTraffic::new(8, 5).take(40_000), 13);
        // The ladder fully deploys early: swing raise first (does not fix
        // a hard fault), then the scheme switch (does).
        assert_eq!(head.transitions.len(), 2, "{:?}", head.transitions);
        assert!(matches!(
            head.transitions[0].action,
            DegradationAction::RaiseSwing { .. }
        ));
        assert!(matches!(
            head.transitions[1].action,
            DegradationAction::SwitchScheme(Scheme::Dap)
        ));
        assert!(head.residual_errors > 0, "parity phase must show damage");
        // Determinism: the long run replays the same prefix, so any
        // difference in residuals comes from the post-recovery tail.
        assert_eq!(full.transitions, head.transitions);
        let tail_errors = full.residual_errors - head.residual_errors;
        let tail_words = full.delivered - head.delivered;
        let tail_rate = tail_errors as f64 / tail_words as f64;
        assert!(
            tail_rate < 0.2 / 100.0,
            "post-recovery residual rate {tail_rate} must fall well below the trigger"
        );
    }

    #[test]
    fn raise_swing_alone_recovers_from_soft_noise() {
        // Against *soft* noise a swing raise is sufficient — the ladder
        // should stop after one rung.
        let policy = DegradationPolicy {
            window: 500,
            trigger: 0.05,
            ladder: vec![
                DegradationAction::RaiseSwing { factor: 1.5 },
                DegradationAction::SwitchScheme(Scheme::ExtHamming),
            ],
            promote: None,
        };
        let cfg = LinkConfig::new(Scheme::Parity, 8, 2e-2)
            .with_protocol(Protocol::DetectRetransmit {
                rtt_cycles: 2,
                max_retries: 4,
            })
            .with_degradation(policy);
        let r = simulate_link(&cfg, UniformTraffic::new(8, 6).take(30_000), 17);
        assert!(
            !r.transitions.is_empty(),
            "2% eps on 9 wires must trip a 5% trouble trigger"
        );
        assert!(
            r.transitions.len() <= 2,
            "swing raise should stem the trouble quickly: {:?}",
            r.transitions
        );
        assert!(matches!(
            r.transitions[0].action,
            DegradationAction::RaiseSwing { .. }
        ));
    }

    /// Satellite (ladder recovery): quiet windows undo the ladder rung
    /// by rung — swing raises rescale back and scheme switches revert to
    /// the scheme they replaced.
    #[test]
    fn promotion_undoes_the_ladder_rung_by_rung() {
        let policy = DegradationPolicy {
            window: 50,
            trigger: 0.5,
            ladder: vec![
                DegradationAction::RaiseSwing { factor: 1.3 },
                DegradationAction::SwitchScheme(Scheme::Dap),
            ],
            promote: Some(PromotePolicy {
                quiet_windows: 2,
                trigger: 0.02,
            }),
        };
        let cfg = LinkConfig::new(Scheme::Parity, 8, 0.0).with_degradation(policy);
        let mut engine = LinkEngine::new(&cfg, &[], 3);
        let mut report = LinkReport::default();
        engine.force_degrade(&mut report).expect("rung 0");
        engine.force_degrade(&mut report).expect("rung 1");
        assert_eq!(engine.rung(), 2);
        assert!((engine.swing() - 1.3).abs() < 1e-12);
        // Two quiet 50-word windows undo the scheme switch, two more the
        // swing raise.
        for data in UniformTraffic::new(8, 8).take(100) {
            engine.transfer(data, &mut report);
        }
        assert_eq!(engine.rung(), 1);
        let undo_switch = report.transitions[2];
        assert!(undo_switch.promoted);
        assert!(!undo_switch.forced);
        assert!(matches!(
            undo_switch.action,
            DegradationAction::SwitchScheme(Scheme::Dap)
        ));
        for data in UniformTraffic::new(8, 9).take(100) {
            engine.transfer(data, &mut report);
        }
        assert_eq!(engine.rung(), 0);
        let undo_raise = report.transitions[3];
        assert!(undo_raise.promoted);
        assert!(matches!(
            undo_raise.action,
            DegradationAction::RaiseSwing { .. }
        ));
        assert_eq!(engine.swing(), 1.0, "swing must rescale back exactly");
        // Fully promoted: the link transfers correctly on the base scheme.
        let w = Word::from_bits(0x2B, 8);
        assert_eq!(engine.transfer(w, &mut report), w);
        assert_eq!(report.residual_errors, 0);
    }

    /// A window with any trouble above the promote trigger resets the
    /// quiet streak — a stuck wire therefore pins the ladder down.
    #[test]
    fn promotion_streak_resets_on_trouble() {
        let policy = DegradationPolicy {
            window: 50,
            trigger: 0.9,
            ladder: vec![DegradationAction::RaiseSwing { factor: 1.3 }],
            promote: Some(PromotePolicy {
                quiet_windows: 2,
                trigger: 0.02,
            }),
        };
        let cfg = LinkConfig::new(Scheme::Parity, 8, 0.0)
            .with_protocol(Protocol::DetectRetransmit {
                rtt_cycles: 2,
                max_retries: 1,
            })
            .with_fault(FaultSpec::StuckAt {
                wire: 0,
                value: false,
            })
            .with_degradation(policy);
        let mut engine = LinkEngine::new(&cfg, &[], 5);
        let mut report = LinkReport::default();
        engine.force_degrade(&mut report).expect("rung 0");
        // Half the ramp words hit the stuck wire: every window's trouble
        // rate is ~0.5, far above the promote trigger.
        for data in RampTraffic::new(8, 1, 0.0, 1).take(500) {
            engine.transfer(data, &mut report);
        }
        assert_eq!(engine.rung(), 1, "the ladder must stay deployed");
        assert_eq!(report.transitions.len(), 1);
    }

    /// A configured controller provisions the link at its safe state
    /// and bills energy at `swing²`.
    #[test]
    fn controller_starts_at_the_safe_state_and_scales_energy() {
        use crate::control::{ControlPolicy, OperatingPoint};
        let half_swing = ControlPolicy {
            points: vec![OperatingPoint {
                swing: 0.5,
                scheme: Scheme::Parity,
            }],
            target_wer: 1e-2,
            window: 64,
            dwell: 2,
            lower_trouble: 0.05,
            raise_trouble: 0.2,
            storm_trouble: 0.5,
        };
        let plain = LinkConfig::new(Scheme::Parity, 8, 0.0);
        let controlled = plain.clone().with_controller(half_swing);
        let rp = simulate_link(&plain, UniformTraffic::new(8, 21).take(1_000), 7);
        let rc = simulate_link(&controlled, UniformTraffic::new(8, 21).take(1_000), 7);
        assert!(rc.control.is_empty(), "a single point can never move");
        // 0.5² = 0.25 is a power of two, so the scaling is bit-exact.
        assert_eq!(rc.energy.self_coeff, rp.energy.self_coeff * 0.25);
        assert_eq!(rc.energy.coupling_coeff, rp.energy.coupling_coeff * 0.25);
        assert_eq!(rc.residual_errors, 0);
    }

    /// Closed-loop acceptance: the controller relaxes off the safe
    /// state when the channel is quiet, slams back on a droop storm,
    /// and every recorded transition chains correctly.
    #[test]
    fn controller_relaxes_when_quiet_and_slams_on_storms() {
        use crate::control::{ControlCause, ControlPolicy, OperatingPoint};
        let policy = ControlPolicy {
            points: vec![
                OperatingPoint {
                    swing: 1.25,
                    scheme: Scheme::ExtHamming,
                },
                OperatingPoint {
                    swing: 1.0,
                    scheme: Scheme::Parity,
                },
            ],
            target_wer: 1e-2,
            window: 50,
            dwell: 2,
            lower_trouble: 0.05,
            raise_trouble: 0.2,
            storm_trouble: 0.4,
        };
        // The droop erupts mid-window (start 2_025 with 50-word windows)
        // so the emergency detector, not a window-end retreat, must
        // catch it.
        let cfg = LinkConfig::new(Scheme::Parity, 8, 0.0)
            .with_protocol(Protocol::DetectRetransmit {
                rtt_cycles: 2,
                max_retries: 3,
            })
            .with_fault(FaultSpec::Droop {
                eps: 1e-6,
                scale: 3e5,
                start: 2_025,
                duration: 300,
            })
            .with_controller(policy);
        let r = simulate_link(&cfg, UniformTraffic::new(8, 12).take(5_000), 19);
        assert!(
            r.control.len() >= 2,
            "expected relax + emergency at least: {:?}",
            r.control
        );
        assert_eq!(r.control[0].cause, ControlCause::Relax);
        assert_eq!((r.control[0].from, r.control[0].to), (0, 1));
        assert!(
            r.control
                .iter()
                .any(|t| t.cause == ControlCause::Emergency && t.to == 0),
            "the droop storm must slam the link to the safe state: {:?}",
            r.control
        );
        let mut index = 0;
        let mut word = 0;
        for t in &r.control {
            assert_eq!(t.from, index, "transition chain must be continuous");
            assert!(t.at_word >= word);
            index = t.to;
            word = t.at_word;
        }
        assert!(r.residual_rate() < 0.05, "rate {}", r.residual_rate());
    }

    #[test]
    #[should_panic(expected = "not both")]
    fn ladder_and_controller_are_mutually_exclusive() {
        use crate::control::{ControlPolicy, OperatingPoint};
        let cfg = LinkConfig::new(Scheme::Parity, 8, 0.0)
            .with_degradation(DegradationPolicy {
                window: 100,
                trigger: 0.5,
                ladder: vec![],
                promote: None,
            })
            .with_controller(ControlPolicy {
                points: vec![OperatingPoint {
                    swing: 1.0,
                    scheme: Scheme::Parity,
                }],
                target_wer: 1e-2,
                window: 64,
                dwell: 2,
                lower_trouble: 0.05,
                raise_trouble: 0.2,
                storm_trouble: 0.5,
            });
        let _ = LinkEngine::new(&cfg, &[], 1);
    }

    /// A ladder whose switch target does not build at the link's width
    /// fails `validate` with the scheme's own message.
    #[test]
    fn ladder_validation_checks_every_switch_target() {
        let mut policy = too_wide_ladder();
        assert_eq!(
            policy.validate(16),
            Err(
                "BI(17) does not build at 16 data bits: more sub-buses (17) than data bits (16)"
                    .into()
            )
        );
        assert_eq!(policy.validate(17), Ok(()));
        policy.ladder[1] = DegradationAction::SwitchScheme(Scheme::Dap);
        assert_eq!(policy.validate(16), Ok(()));
    }

    /// A switch target the link's width cannot build is refused at
    /// construction, not when its rung fires mid-run.
    #[test]
    #[should_panic(expected = "degradation ladder must validate")]
    fn a_switch_target_too_wide_for_the_link_panics_at_construction() {
        let cfg = LinkConfig::new(Scheme::Parity, 16, 0.0).with_degradation(too_wide_ladder());
        let _ = LinkEngine::new(&cfg, &[], 1);
    }

    /// A swing step, then a switch to BI(17), which needs 17 data bits.
    fn too_wide_ladder() -> DegradationPolicy {
        DegradationPolicy {
            window: 100,
            trigger: 0.5,
            ladder: vec![
                DegradationAction::RaiseSwing { factor: 1.25 },
                DegradationAction::SwitchScheme(Scheme::BusInvert(17)),
            ],
            promote: None,
        }
    }
}

//! Composable DSM fault injection (beyond the paper's i.i.d. channel).
//!
//! The paper's analysis assumes a memoryless channel: every wire flips
//! independently with probability `ε = Q(Vdd/2σ)` (eq. (5)). Its §V,
//! however, motivates coding with noise sources that are anything but
//! memoryless — crosstalk (neighbor-dependent), supply droop (transient,
//! affects every wire for a window of cycles), and manufacturing or
//! wear-out defects (permanent, tied to one wire). This module models
//! those regimes as composable, seedable [`FaultModel`]s:
//!
//! * [`FaultSpec::Iid`] — the paper's baseline: each wire flips
//!   independently with probability ε every cycle;
//! * [`FaultSpec::Burst`] — a Gilbert–Elliott two-state Markov channel:
//!   a *good* state with low ε and a *bad* (burst) state with high ε,
//!   with per-cycle transition probabilities, modeling correlated noise
//!   events such as simultaneous-switching supply bounce;
//! * [`FaultSpec::StuckAt`] — a persistent hard fault pinning one wire
//!   to 0 or 1 (open/short defects, latent oxide breakdown);
//! * [`FaultSpec::Bridge`] — two neighboring wires shorted together,
//!   reading back the AND (ground-dominant) or OR (supply-dominant) of
//!   what was driven;
//! * [`FaultSpec::Droop`] — a transient voltage droop scaling ε up for a
//!   window of cycles (the DVS hazard studied by Kaul et al.).
//!
//! Every model is deterministic for a given seed; the reliability sweep
//! binary depends on byte-identical reruns. Models stack via
//! [`FaultInjector`], which owns the cycle counter so that transient
//! windows stay aligned with link retransmissions.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use socbus_model::{q, q_inv, Word};
use socbus_telemetry::Telemetry;

use crate::flip_stream::hit_count;

/// What a shorted wire pair reads back.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BridgeMode {
    /// Ground-dominant short: both wires read the AND of the driven pair.
    And,
    /// Supply-dominant short: both wires read the OR of the driven pair.
    Or,
}

/// A serializable description of one fault process.
///
/// Specs are plain data — `Clone`/`PartialEq`, no RNG state — so link and
/// path configurations stay cheap to copy; [`FaultSpec::build`] turns one
/// into a live, seeded [`FaultModel`].
#[derive(Clone, Debug, PartialEq)]
pub enum FaultSpec {
    /// Memoryless channel: every wire flips with probability `eps` each
    /// cycle (the paper's eq. (5) regime).
    Iid {
        /// Per-wire flip probability.
        eps: f64,
    },
    /// Gilbert–Elliott burst channel.
    Burst {
        /// Per-wire flip probability in the good state.
        eps_good: f64,
        /// Per-wire flip probability in the bad (burst) state.
        eps_bad: f64,
        /// Per-cycle probability of entering the bad state.
        p_enter: f64,
        /// Per-cycle probability of leaving the bad state.
        p_exit: f64,
    },
    /// Wire `wire` permanently reads `value`.
    StuckAt {
        /// Affected wire index.
        wire: usize,
        /// The value the wire is stuck at.
        value: bool,
    },
    /// Wires `wire` and `wire + 1` are shorted together.
    Bridge {
        /// Lower wire index of the shorted pair.
        wire: usize,
        /// Which logic value dominates the short.
        mode: BridgeMode,
    },
    /// i.i.d. flips at `eps`, scaled by `scale` during the droop window
    /// `[start, start + duration)` (in cycles).
    Droop {
        /// Baseline per-wire flip probability.
        eps: f64,
        /// Multiplier applied to ε inside the window.
        scale: f64,
        /// First cycle of the droop window.
        start: u64,
        /// Length of the droop window in cycles.
        duration: u64,
    },
}

impl FaultSpec {
    /// Instantiates the live model, deterministically seeded.
    #[must_use]
    pub fn build(&self, seed: u64) -> Box<dyn FaultModel> {
        match *self {
            FaultSpec::Iid { eps } => Box::new(IidFault::new(eps, seed)),
            FaultSpec::Burst {
                eps_good,
                eps_bad,
                p_enter,
                p_exit,
            } => Box::new(GilbertElliott::new(
                eps_good, eps_bad, p_enter, p_exit, seed,
            )),
            FaultSpec::StuckAt { wire, value } => Box::new(StuckAtFault::new(wire, value)),
            FaultSpec::Bridge { wire, mode } => Box::new(BridgeFault::new(wire, mode)),
            FaultSpec::Droop {
                eps,
                scale,
                start,
                duration,
            } => Box::new(DroopFault::new(eps, scale, start, duration, seed)),
        }
    }

    /// The stable family name used as the `fault_family` telemetry
    /// label: one of `iid`, `burst`, `stuck_at`, `bridge`, `droop`.
    #[must_use]
    pub fn family(&self) -> &'static str {
        match self {
            FaultSpec::Iid { .. } => "iid",
            FaultSpec::Burst { .. } => "burst",
            FaultSpec::StuckAt { .. } => "stuck_at",
            FaultSpec::Bridge { .. } => "bridge",
            FaultSpec::Droop { .. } => "droop",
        }
    }

    /// Short human-readable label (used by reports and the sweep output).
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            FaultSpec::Iid { eps } => format!("iid(eps={eps})"),
            FaultSpec::Burst {
                eps_good, eps_bad, ..
            } => format!("burst(good={eps_good},bad={eps_bad})"),
            FaultSpec::StuckAt { wire, value } => {
                format!("stuck-at-{}(wire={wire})", u8::from(value))
            }
            FaultSpec::Bridge { wire, mode } => format!(
                "bridge-{}(wires={wire},{})",
                match mode {
                    BridgeMode::And => "and",
                    BridgeMode::Or => "or",
                },
                wire + 1
            ),
            FaultSpec::Droop {
                eps,
                scale,
                start,
                duration,
            } => format!("droop(eps={eps},x{scale}@{start}+{duration})"),
        }
    }
}

/// Rescales a bit-error probability as if the wire swing were multiplied
/// by `factor`, through the eq. (5) relation `ε = Q(swing/2σ)`:
/// `ε' = Q(factor · Q⁻¹(ε))`. Degenerate ε (≤0 or ≥0.5) and degenerate
/// factors (≤0 or non-finite, which would otherwise launder a NaN into
/// every later corruption draw) pass ε through unchanged.
#[must_use]
pub fn rescale_eps(eps: f64, factor: f64) -> f64 {
    if eps <= 0.0 || eps >= 0.5 || !factor.is_finite() || factor <= 0.0 {
        return eps;
    }
    q(factor * q_inv(eps))
}

/// A fault process corrupting bus words cycle by cycle.
pub trait FaultModel {
    /// Short human-readable label.
    fn label(&self) -> String;

    /// Corrupts the word on the wires at the given cycle index.
    fn corrupt(&mut self, cycle: u64, word: Word) -> Word;

    /// [`FaultModel::corrupt`], also returning on how many wires the
    /// output differs from `word`. The default compares the two words; a
    /// model that flips wires one draw at a time counts its flips
    /// instead, with the same draws.
    fn corrupt_counted(&mut self, cycle: u64, word: Word) -> (Word, u32) {
        let out = self.corrupt(cycle, word);
        (out, word.hamming_distance(out))
    }

    /// Adjusts any ε-driven randomness as if the wire swing were
    /// multiplied by `factor` (> 1 lowers ε). Persistent hard faults are
    /// voltage-independent and ignore this — which is exactly why the
    /// degradation ladder needs scheme switching as well as swing steps.
    fn rescale_swing(&mut self, factor: f64) {
        let _ = factor;
    }

    /// Restores the model to its initial (post-seed) state.
    fn reset(&mut self) {}
}

/// Whether the next draw of `rng` hits at the rate whose
/// [`hit_count`] is `count`: exactly when the `f64` rule
/// `rng.gen::<f64>() < ε` would, with the same one draw (DESIGN.md §22).
#[inline(always)]
fn hits(rng: &mut StdRng, count: u64) -> bool {
    rng.next_u64() >> 11 < count
}

/// Flips each wire of `word` at the rate whose [`hit_count`] is `count`,
/// one draw per wire in wire order, and counts the flips: each wire flips
/// at most once, so the count is the output's distance from `word`.
/// Always inlined, so a `corrupt` that drops the count compiles to the
/// uncounted loop.
#[inline(always)]
fn flip_each(rng: &mut StdRng, count: u64, word: Word) -> (Word, u32) {
    let mut out = word;
    let mut flipped = 0;
    for i in 0..word.width() {
        if hits(rng, count) {
            out.set_bit(i, !out.bit(i));
            flipped += 1;
        }
    }
    (out, flipped)
}

/// The paper's memoryless channel as a [`FaultModel`].
#[derive(Clone, Debug)]
pub struct IidFault {
    eps: f64,
    /// `hit_count(eps)`, kept in step with `eps`.
    count: u64,
    seed: u64,
    rng: StdRng,
}

impl IidFault {
    /// i.i.d. flips with probability `eps`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= eps <= 1`.
    #[must_use]
    pub fn new(eps: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&eps), "eps out of range");
        IidFault {
            eps,
            count: hit_count(eps),
            seed,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The current per-wire flip probability.
    #[must_use]
    pub fn eps(&self) -> f64 {
        self.eps
    }
}

impl FaultModel for IidFault {
    fn label(&self) -> String {
        format!("iid(eps={})", self.eps)
    }

    fn corrupt(&mut self, _cycle: u64, word: Word) -> Word {
        flip_each(&mut self.rng, self.count, word).0
    }

    fn corrupt_counted(&mut self, _cycle: u64, word: Word) -> (Word, u32) {
        flip_each(&mut self.rng, self.count, word)
    }

    fn rescale_swing(&mut self, factor: f64) {
        self.eps = rescale_eps(self.eps, factor);
        self.count = hit_count(self.eps);
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
    }
}

/// Gilbert–Elliott two-state burst channel.
///
/// The state evolves once per cycle *before* the word is corrupted, so a
/// burst entered on cycle `c` already degrades cycle `c`.
#[derive(Clone, Debug)]
pub struct GilbertElliott {
    eps_good: f64,
    eps_bad: f64,
    p_enter: f64,
    p_exit: f64,
    /// `hit_count` of `eps_good`, `eps_bad`, `p_enter` and `p_exit`, in
    /// that order, kept in step with the rates.
    counts: [u64; 4],
    in_burst: bool,
    seed: u64,
    rng: StdRng,
}

impl GilbertElliott {
    /// A burst channel starting in the good state.
    ///
    /// # Panics
    ///
    /// Panics unless all probabilities are in `[0, 1]`.
    #[must_use]
    pub fn new(eps_good: f64, eps_bad: f64, p_enter: f64, p_exit: f64, seed: u64) -> Self {
        for p in [eps_good, eps_bad, p_enter, p_exit] {
            assert!((0.0..=1.0).contains(&p), "probability out of range");
        }
        GilbertElliott {
            eps_good,
            eps_bad,
            p_enter,
            p_exit,
            counts: [eps_good, eps_bad, p_enter, p_exit].map(hit_count),
            in_burst: false,
            seed,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Stationary average per-wire flip probability.
    #[must_use]
    pub fn avg_eps(&self) -> f64 {
        if self.p_enter + self.p_exit == 0.0 {
            return self.eps_good;
        }
        let p_bad = self.p_enter / (self.p_enter + self.p_exit);
        p_bad * self.eps_bad + (1.0 - p_bad) * self.eps_good
    }

    /// Whether the channel is currently in the burst state.
    #[must_use]
    pub fn in_burst(&self) -> bool {
        self.in_burst
    }

    /// Steps the two-state chain once and returns the [`hit_count`] of
    /// the state's ε.
    fn advance(&mut self) -> u64 {
        let [good, bad, enter, exit] = self.counts;
        if hits(&mut self.rng, if self.in_burst { exit } else { enter }) {
            self.in_burst = !self.in_burst;
        }
        if self.in_burst {
            bad
        } else {
            good
        }
    }
}

impl FaultModel for GilbertElliott {
    fn label(&self) -> String {
        format!("burst(good={},bad={})", self.eps_good, self.eps_bad)
    }

    fn corrupt(&mut self, _cycle: u64, word: Word) -> Word {
        let count = self.advance();
        flip_each(&mut self.rng, count, word).0
    }

    fn corrupt_counted(&mut self, _cycle: u64, word: Word) -> (Word, u32) {
        let count = self.advance();
        flip_each(&mut self.rng, count, word)
    }

    fn rescale_swing(&mut self, factor: f64) {
        self.eps_good = rescale_eps(self.eps_good, factor);
        self.eps_bad = rescale_eps(self.eps_bad, factor);
        self.counts[0] = hit_count(self.eps_good);
        self.counts[1] = hit_count(self.eps_bad);
    }

    fn reset(&mut self) {
        self.in_burst = false;
        self.rng = StdRng::seed_from_u64(self.seed);
    }
}

/// A wire permanently stuck at 0 or 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StuckAtFault {
    wire: usize,
    value: bool,
}

impl StuckAtFault {
    /// Wire `wire` stuck at `value`.
    #[must_use]
    pub fn new(wire: usize, value: bool) -> Self {
        StuckAtFault { wire, value }
    }
}

impl FaultModel for StuckAtFault {
    fn label(&self) -> String {
        format!("stuck-at-{}(wire={})", u8::from(self.value), self.wire)
    }

    fn corrupt(&mut self, _cycle: u64, word: Word) -> Word {
        if self.wire < word.width() {
            word.with_bit(self.wire, self.value)
        } else {
            word
        }
    }
}

/// Two neighboring wires shorted together.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BridgeFault {
    wire: usize,
    mode: BridgeMode,
}

impl BridgeFault {
    /// Wires `wire` and `wire + 1` shorted, with the given dominance.
    #[must_use]
    pub fn new(wire: usize, mode: BridgeMode) -> Self {
        BridgeFault { wire, mode }
    }
}

impl FaultModel for BridgeFault {
    fn label(&self) -> String {
        FaultSpec::Bridge {
            wire: self.wire,
            mode: self.mode,
        }
        .label()
    }

    fn corrupt(&mut self, _cycle: u64, word: Word) -> Word {
        let (a, b) = (self.wire, self.wire + 1);
        if b >= word.width() {
            return word;
        }
        let merged = match self.mode {
            BridgeMode::And => word.bit(a) && word.bit(b),
            BridgeMode::Or => word.bit(a) || word.bit(b),
        };
        word.with_bit(a, merged).with_bit(b, merged)
    }
}

/// Transient voltage droop: ε multiplied by `scale` inside the window.
#[derive(Clone, Debug)]
pub struct DroopFault {
    eps: f64,
    scale: f64,
    start: u64,
    duration: u64,
    /// `hit_count` of [`DroopFault::rates`], kept in step with `eps`.
    counts: [u64; 2],
    seed: u64,
    rng: StdRng,
}

impl DroopFault {
    /// i.i.d. flips at `eps`, at `eps * scale` during
    /// `[start, start + duration)`.
    ///
    /// # Panics
    ///
    /// Panics unless `eps` and `eps * scale` are valid probabilities.
    #[must_use]
    pub fn new(eps: f64, scale: f64, start: u64, duration: u64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&eps), "eps out of range");
        assert!(
            scale >= 0.0 && eps * scale <= 1.0,
            "scaled eps out of range"
        );
        DroopFault {
            eps,
            scale,
            start,
            duration,
            counts: Self::rates(eps, scale).map(hit_count),
            seed,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The ε outside and inside the window.
    fn rates(eps: f64, scale: f64) -> [f64; 2] {
        [eps, (eps * scale).min(1.0)]
    }

    /// 1 if `cycle` lies in the window (see [`DroopFault::eps_at`]),
    /// else 0: the index of its rate in [`DroopFault::rates`].
    fn window_index(&self, cycle: u64) -> usize {
        usize::from(cycle >= self.start && cycle - self.start < self.duration)
    }

    /// The effective ε at the given cycle.
    ///
    /// The droop window is half-open, `[start, start + duration)`: the
    /// scaled ε applies from `start` through `start + duration - 1`
    /// inclusive, and the cycle `start + duration` itself is already back
    /// at the nominal ε — the supply has recovered *by* that edge, not
    /// one cycle later. The subtraction form keeps the comparison exact
    /// even when `start + duration` would overflow `u64`.
    #[must_use]
    pub fn eps_at(&self, cycle: u64) -> f64 {
        Self::rates(self.eps, self.scale)[self.window_index(cycle)]
    }
}

impl FaultModel for DroopFault {
    fn label(&self) -> String {
        format!(
            "droop(eps={},x{}@{}+{})",
            self.eps, self.scale, self.start, self.duration
        )
    }

    fn corrupt(&mut self, cycle: u64, word: Word) -> Word {
        let count = self.counts[self.window_index(cycle)];
        flip_each(&mut self.rng, count, word).0
    }

    fn corrupt_counted(&mut self, cycle: u64, word: Word) -> (Word, u32) {
        let count = self.counts[self.window_index(cycle)];
        flip_each(&mut self.rng, count, word)
    }

    fn rescale_swing(&mut self, factor: f64) {
        self.eps = rescale_eps(self.eps, factor);
        self.counts = Self::rates(self.eps, self.scale).map(hit_count);
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
    }
}

/// Application-order class of a fault process; see
/// [`FaultInjector::transmit`] for the ordering contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum FaultClass {
    /// ε-driven random noise (i.i.d., burst, droop).
    Soft,
    /// Bridged wire pairs.
    Bridge,
    /// Stuck-at wires.
    Stuck,
}

impl FaultClass {
    fn of(spec: &FaultSpec) -> Self {
        match spec {
            FaultSpec::StuckAt { .. } => FaultClass::Stuck,
            FaultSpec::Bridge { .. } => FaultClass::Bridge,
            _ => FaultClass::Soft,
        }
    }
}

/// One fault process in the injector, with its activation state.
struct FaultSlot {
    model: Box<dyn FaultModel>,
    class: FaultClass,
    family: &'static str,
    enabled: bool,
    /// Corruptions batched locally while telemetry is enabled; flushed
    /// to the sink by [`FaultInjector::flush_telemetry`].
    corruptions: u64,
    /// Total bits flipped, batched alongside `corruptions`.
    flipped_bits: u64,
}

/// A stack of fault models applied in a fixed physical order, with a
/// shared event clock (the cycle counter), and per-slot activation so a
/// schedule can switch individual fault processes on and off mid-run.
///
/// # Ordering contract
///
/// [`FaultInjector::transmit`] applies fault processes in three passes,
/// in this order regardless of the order the specs were given in:
///
/// 1. **soft noise** (i.i.d., Gilbert–Elliott bursts, droop) — random
///    flips happen on the driven values;
/// 2. **bridge faults** — a short reads back the AND/OR of what the
///    (possibly noise-corrupted) drivers put on the shorted pair;
/// 3. **stuck-at faults** — a stuck wire reads its stuck value no matter
///    what the noise or a bridge did: on the same wire, *stuck-at wins
///    over bridge*, matching the physical dominance of a hard open/short
///    to rail over a resistive wire-to-wire defect.
///
/// Within a class, processes apply in the order their specs were pushed.
pub struct FaultInjector {
    slots: Vec<FaultSlot>,
    cycle: u64,
    tel: Telemetry,
}

impl FaultInjector {
    /// Builds the stack from specs; sub-model `i` is seeded with
    /// `seed` mixed with `i` so stacks are deterministic yet decorrelated.
    #[must_use]
    pub fn new(specs: &[FaultSpec], seed: u64) -> Self {
        let mut inj = FaultInjector {
            slots: Vec::with_capacity(specs.len()),
            cycle: 0,
            tel: Telemetry::off(),
        };
        for (i, spec) in specs.iter().enumerate() {
            let sub_seed = seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let _ = inj.push_spec(spec, sub_seed);
        }
        inj
    }

    /// Appends one more fault process (enabled), seeded with `seed`, and
    /// returns its slot index for later [`FaultInjector::set_enabled`]
    /// calls. The process joins its class's pass of the ordering
    /// contract, after any processes of the same class already present.
    pub fn push_spec(&mut self, spec: &FaultSpec, seed: u64) -> usize {
        self.slots.push(FaultSlot {
            model: spec.build(seed),
            class: FaultClass::of(spec),
            family: spec.family(),
            enabled: true,
            corruptions: 0,
            flipped_bits: 0,
        });
        self.slots.len() - 1
    }

    /// Attaches a telemetry handle. When enabled, [`FaultInjector::transmit`]
    /// batches per-family corruption counts locally (each slot's flip
    /// count from [`FaultModel::corrupt_counted`], one branch plus two
    /// adds per corrupted word), and [`FaultInjector::flush_telemetry`]
    /// reports them as `fault.corruptions` / `fault.flipped_bits`; when
    /// disabled (the default), the hot loop is byte-for-byte the
    /// uninstrumented one.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Emits the locally batched corruption counters and resets the
    /// batch (safe to call repeatedly; each delta is reported once).
    pub fn flush_telemetry(&mut self) {
        if !self.tel.is_enabled() {
            return;
        }
        let tel = self.tel.clone();
        for s in &mut self.slots {
            if s.corruptions > 0 {
                let labels = [("fault_family", s.family)];
                tel.counter("fault.corruptions", &labels, s.corruptions);
                tel.counter("fault.flipped_bits", &labels, s.flipped_bits);
                s.corruptions = 0;
                s.flipped_bits = 0;
            }
        }
    }

    /// Enables or disables the fault process in `slot`. Disabled soft
    /// processes draw no randomness, so toggling is itself deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn set_enabled(&mut self, slot: usize, enabled: bool) {
        self.slots[slot].enabled = enabled;
    }

    /// Whether the fault process in `slot` is currently enabled.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[must_use]
    pub fn is_enabled(&self, slot: usize) -> bool {
        self.slots[slot].enabled
    }

    /// Number of fault-process slots (enabled or not).
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Transmits one word through every enabled fault process and
    /// advances the event clock (retransmissions therefore consume droop
    /// cycles). See the type-level docs for the ordering contract.
    #[must_use]
    pub fn transmit(&mut self, word: Word) -> Word {
        let cycle = self.cycle;
        self.cycle += 1;
        let mut w = word;
        let watching = self.tel.is_enabled();
        for class in [FaultClass::Soft, FaultClass::Bridge, FaultClass::Stuck] {
            for s in &mut self.slots {
                if s.enabled && s.class == class {
                    if watching {
                        let (out, flipped) = s.model.corrupt_counted(cycle, w);
                        if flipped > 0 {
                            s.corruptions += 1;
                            s.flipped_bits += u64::from(flipped);
                        }
                        w = out;
                    } else {
                        w = s.model.corrupt(cycle, w);
                    }
                }
            }
        }
        w
    }

    /// The number of words transmitted so far — the event clock that
    /// cycle-window faults (droop) and fault schedules are aligned to.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Raises (factor > 1) or lowers the modeled swing on every ε-driven
    /// sub-model, enabled or not (the swing is a property of the bus, not
    /// of the schedule). Hard faults are unaffected.
    pub fn rescale_swing(&mut self, factor: f64) {
        for s in &mut self.slots {
            if s.class == FaultClass::Soft {
                s.model.rescale_swing(factor);
            }
        }
    }

    /// Rescales the modeled swing on a single slot — used when a fault
    /// process is pushed onto a bus that is already running away from
    /// the nominal swing (its ε spec is nominal-referenced, so it must
    /// be brought to the bus's current operating point). Hard-fault
    /// slots ignore this, like [`FaultInjector::rescale_swing`].
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn rescale_swing_slot(&mut self, slot: usize, factor: f64) {
        let s = &mut self.slots[slot];
        if s.class == FaultClass::Soft {
            s.model.rescale_swing(factor);
        }
    }

    /// Labels of the enabled sub-models, in application order.
    #[must_use]
    pub fn labels(&self) -> Vec<String> {
        let mut out = Vec::new();
        for class in [FaultClass::Soft, FaultClass::Bridge, FaultClass::Stuck] {
            for s in &self.slots {
                if s.enabled && s.class == class {
                    out.push(s.model.label());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_flips(specs: &[FaultSpec], width: usize, n: u64, seed: u64) -> u64 {
        let mut inj = FaultInjector::new(specs, seed);
        let w = Word::zero(width);
        (0..n)
            .map(|_| u64::from(inj.transmit(w).count_ones()))
            .sum()
    }

    #[test]
    fn iid_injector_matches_bitflip_rate() {
        let flips = count_flips(&[FaultSpec::Iid { eps: 0.05 }], 100, 2000, 3);
        let rate = flips as f64 / 200_000.0;
        assert!((rate - 0.05).abs() < 0.005, "rate {rate}");
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let specs = [
            FaultSpec::Burst {
                eps_good: 1e-3,
                eps_bad: 0.2,
                p_enter: 0.02,
                p_exit: 0.2,
            },
            FaultSpec::StuckAt {
                wire: 3,
                value: true,
            },
        ];
        let mut a = FaultInjector::new(&specs, 9);
        let mut b = FaultInjector::new(&specs, 9);
        let mut c = FaultInjector::new(&specs, 10);
        let w = Word::from_bits(0xA5A5, 16);
        let mut diverged = false;
        for _ in 0..500 {
            let (xa, xb, xc) = (a.transmit(w), b.transmit(w), c.transmit(w));
            assert_eq!(xa, xb, "same seed must reproduce");
            diverged |= xa != xc;
        }
        assert!(diverged, "different seeds should differ somewhere");
    }

    #[test]
    fn burst_channel_clusters_errors() {
        // Same average ε, bursty vs memoryless: the burst channel must
        // show a higher variance of per-word error counts.
        let ge = GilbertElliott::new(0.0, 0.25, 0.02, 0.2, 1);
        let avg = ge.avg_eps();
        let n = 20_000u64;
        let width = 16usize;
        let var = |spec: &[FaultSpec]| {
            let mut inj = FaultInjector::new(spec, 7);
            let w = Word::zero(width);
            let counts: Vec<f64> = (0..n)
                .map(|_| f64::from(inj.transmit(w).count_ones()))
                .collect();
            let mean = counts.iter().sum::<f64>() / n as f64;
            let var = counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / n as f64;
            (mean, var)
        };
        let (mean_b, var_b) = var(&[FaultSpec::Burst {
            eps_good: 0.0,
            eps_bad: 0.25,
            p_enter: 0.02,
            p_exit: 0.2,
        }]);
        let (mean_i, var_i) = var(&[FaultSpec::Iid { eps: avg }]);
        assert!(
            (mean_b - mean_i).abs() / mean_i < 0.25,
            "avg rates comparable: {mean_b} vs {mean_i}"
        );
        assert!(
            var_b > 2.0 * var_i,
            "burstiness: var {var_b} vs iid {var_i}"
        );
    }

    #[test]
    fn stuck_at_pins_exactly_one_wire() {
        let mut inj = FaultInjector::new(
            &[FaultSpec::StuckAt {
                wire: 2,
                value: false,
            }],
            0,
        );
        for bits in [0b1111u128, 0b0100, 0b1011, 0b0000] {
            let out = inj.transmit(Word::from_bits(bits, 4));
            assert!(!out.bit(2));
            for i in [0usize, 1, 3] {
                assert_eq!(out.bit(i), (bits >> i) & 1 == 1);
            }
        }
    }

    #[test]
    fn bridge_merges_neighbors() {
        let mut or = FaultInjector::new(
            &[FaultSpec::Bridge {
                wire: 1,
                mode: BridgeMode::Or,
            }],
            0,
        );
        let out = or.transmit(Word::from_bits(0b0010, 4));
        assert!(out.bit(1) && out.bit(2), "or-short raises both");
        let mut and = FaultInjector::new(
            &[FaultSpec::Bridge {
                wire: 1,
                mode: BridgeMode::And,
            }],
            0,
        );
        let out = and.transmit(Word::from_bits(0b0010, 4));
        assert!(!out.bit(1) && !out.bit(2), "and-short grounds both");
        // Agreeing neighbors pass through unchanged.
        let mut or2 = FaultInjector::new(
            &[FaultSpec::Bridge {
                wire: 0,
                mode: BridgeMode::Or,
            }],
            0,
        );
        assert_eq!(
            or2.transmit(Word::from_bits(0b11, 2)),
            Word::from_bits(0b11, 2)
        );
    }

    #[test]
    fn droop_raises_error_rate_only_in_window() {
        let spec = [FaultSpec::Droop {
            eps: 1e-3,
            scale: 100.0,
            start: 1000,
            duration: 1000,
        }];
        let mut inj = FaultInjector::new(&spec, 11);
        let w = Word::zero(64);
        let mut before = 0u64;
        let mut during = 0u64;
        let mut after = 0u64;
        for c in 0..3000u64 {
            let flips = u64::from(inj.transmit(w).count_ones());
            match c {
                0..=999 => before += flips,
                1000..=1999 => during += flips,
                _ => after += flips,
            }
        }
        assert!(
            during > 20 * (before + after + 1),
            "window {during} vs outside {before}+{after}"
        );
    }

    #[test]
    fn rescale_swing_lowers_soft_eps_but_not_hard_faults() {
        let mut inj = FaultInjector::new(
            &[
                FaultSpec::Iid { eps: 1e-2 },
                FaultSpec::StuckAt {
                    wire: 0,
                    value: true,
                },
            ],
            5,
        );
        inj.rescale_swing(1.4);
        let w = Word::zero(64);
        let flips: u64 = (0..2000)
            .map(|_| u64::from(inj.transmit(w).count_ones()))
            .sum();
        // 64 wires * 2000 cycles: wire 0 always flips (stuck at 1), the
        // soft rate drops well below 1e-2.
        let soft_flips = flips - 2000;
        let rate = soft_flips as f64 / (63.0 * 2000.0);
        let expect = rescale_eps(1e-2, 1.4);
        assert!(rate < 5e-3, "soft rate {rate}");
        assert!(
            (rate - expect).abs() / expect < 0.5,
            "rate {rate} vs {expect}"
        );
    }

    /// Satellite (degenerate operating points): a NaN/Inf or
    /// non-positive swing factor must pass ε through unchanged instead
    /// of poisoning every later corruption draw.
    #[test]
    fn degenerate_swing_factors_leave_eps_untouched() {
        assert_eq!(rescale_eps(1e-3, f64::NAN), 1e-3);
        assert_eq!(rescale_eps(1e-3, f64::INFINITY), 1e-3);
        assert_eq!(rescale_eps(1e-3, f64::NEG_INFINITY), 1e-3);
        assert_eq!(rescale_eps(1e-3, 0.0), 1e-3);
        assert_eq!(rescale_eps(1e-3, -2.0), 1e-3);
        // Degenerate ε still passes through under a sane factor.
        assert_eq!(rescale_eps(0.0, 1.3), 0.0);
        assert_eq!(rescale_eps(0.7, 1.3), 0.7);
        // And the sane path stays sane.
        let scaled = rescale_eps(1e-3, 1.3);
        assert!(scaled.is_finite() && scaled > 0.0 && scaled < 1e-3);
    }

    /// A slot pushed onto an already-rescaled bus is brought to the
    /// bus's swing via [`FaultInjector::rescale_swing_slot`] — and only
    /// that slot moves; hard-fault slots ignore it.
    #[test]
    fn rescale_swing_slot_touches_only_the_named_soft_slot() {
        let mut whole = FaultInjector::new(&[FaultSpec::Iid { eps: 1e-2 }], 5);
        whole.rescale_swing(1.4);
        let late = whole.push_spec(&FaultSpec::Iid { eps: 1e-2 }, 77);
        whole.rescale_swing_slot(late, 1.4);
        let mut fresh = FaultInjector::new(&[FaultSpec::Iid { eps: 1e-2 }], 5);
        fresh.rescale_swing(1.4);
        let l2 = fresh.push_spec(&FaultSpec::Iid { eps: 1e-2 }, 77);
        // Same state either way: both slots sit at the 1.4-swing ε...
        let w = Word::zero(64);
        let a: u64 = (0..2000)
            .map(|_| u64::from(whole.transmit(w).count_ones()))
            .sum();
        // ...whereas the un-rescaled late slot flips at the nominal rate.
        let b: u64 = (0..2000)
            .map(|_| u64::from(fresh.transmit(w).count_ones()))
            .sum();
        assert!(
            b > a + a / 2,
            "nominal-ε late slot must out-flip the rescaled one: {b} vs {a}"
        );
        // Hard slots ignore the per-slot rescale (no panic, no change).
        let stuck = whole.push_spec(
            &FaultSpec::StuckAt {
                wire: 0,
                value: true,
            },
            3,
        );
        whole.rescale_swing_slot(stuck, 1.4);
        assert!(whole.transmit(Word::zero(64)).bit(0));
        let _ = l2;
    }

    /// Droop boundary (ISSUE 2 satellite): the window is `[start,
    /// start + duration)` — the last droop cycle is `start+duration-1`
    /// and the nominal ε is restored exactly at `start+duration`, not one
    /// cycle late.
    #[test]
    fn droop_window_boundary_is_half_open() {
        let d = DroopFault::new(1e-3, 50.0, 1000, 100, 1);
        let scaled = 1e-3 * 50.0;
        assert_eq!(d.eps_at(999), 1e-3, "cycle before the window is nominal");
        assert_eq!(d.eps_at(1000), scaled, "window opens at start");
        assert_eq!(d.eps_at(1099), scaled, "last window cycle still drooped");
        assert_eq!(
            d.eps_at(1100),
            1e-3,
            "cycle start+duration must already be nominal"
        );
        // Degenerate and overflow-adjacent shapes.
        let empty = DroopFault::new(1e-3, 50.0, 7, 0, 1);
        assert_eq!(empty.eps_at(7), 1e-3, "zero-length window never droops");
        let late = DroopFault::new(1e-3, 50.0, u64::MAX - 2, 10, 1);
        assert_eq!(late.eps_at(u64::MAX - 3), 1e-3);
        assert_eq!(
            late.eps_at(u64::MAX),
            scaled,
            "window straddling u64::MAX must not overflow"
        );
    }

    /// Ordering contract (ISSUE 2 satellite): stuck-at wins over bridge
    /// on the same wire, regardless of the order the specs were given in.
    #[test]
    fn stuck_at_wins_over_bridge_on_same_wire() {
        let stuck = FaultSpec::StuckAt {
            wire: 1,
            value: false,
        };
        let bridge = FaultSpec::Bridge {
            wire: 1,
            mode: BridgeMode::Or,
        };
        for specs in [
            [stuck.clone(), bridge.clone()],
            [bridge.clone(), stuck.clone()],
        ] {
            let mut inj = FaultInjector::new(&specs, 0);
            // Driven 0b0100: the or-bridge over wires 1,2 raises wire 1,
            // then the stuck-at-0 pins it back low. Wire 2 keeps the
            // bridged value.
            let out = inj.transmit(Word::from_bits(0b0100, 4));
            assert!(!out.bit(1), "stuck-at-0 must win on wire 1: {out:?}");
            assert!(out.bit(2), "bridge still drives the partner wire");
        }
    }

    /// Soft noise is applied before hard faults: a stuck wire reads its
    /// stuck value even when the noise process flips it every cycle.
    #[test]
    fn hard_faults_apply_after_soft_noise() {
        let specs = [
            FaultSpec::Iid { eps: 1.0 },
            FaultSpec::StuckAt {
                wire: 3,
                value: true,
            },
        ];
        let mut inj = FaultInjector::new(&specs, 4);
        for _ in 0..50 {
            assert!(inj.transmit(Word::zero(8)).bit(3));
        }
    }

    #[test]
    fn slots_toggle_without_disturbing_the_event_clock() {
        let specs = [
            FaultSpec::StuckAt {
                wire: 0,
                value: true,
            },
            FaultSpec::Droop {
                eps: 0.0,
                scale: 1.0,
                start: 0,
                duration: u64::MAX,
            },
        ];
        let mut inj = FaultInjector::new(&specs, 0);
        assert_eq!(inj.slot_count(), 2);
        assert!(inj.is_enabled(0));
        let w = Word::zero(4);
        assert!(inj.transmit(w).bit(0), "enabled stuck-at fires");
        inj.set_enabled(0, false);
        assert!(!inj.transmit(w).bit(0), "disabled stuck-at is transparent");
        inj.set_enabled(0, true);
        assert!(inj.transmit(w).bit(0), "re-enabled stuck-at fires again");
        assert_eq!(inj.cycles(), 3, "the event clock ticks regardless");
        // A dynamically pushed slot participates like a built-in one.
        let slot = inj.push_spec(
            &FaultSpec::StuckAt {
                wire: 1,
                value: true,
            },
            9,
        );
        assert_eq!(slot, 2);
        assert!(inj.transmit(w).bit(1));
        inj.set_enabled(slot, false);
        assert!(!inj.transmit(w).bit(1));
        assert_eq!(inj.labels().len(), 2, "labels list enabled slots only");
    }

    /// Telemetry: corruption counters are keyed by fault family and
    /// count flipped bits; attaching a sink never changes the words.
    #[test]
    fn telemetry_counts_corruptions_per_family() {
        use std::rc::Rc;
        let specs = [
            FaultSpec::Iid { eps: 1.0 },
            FaultSpec::StuckAt {
                wire: 0,
                value: true,
            },
        ];
        let mut plain = FaultInjector::new(&specs, 21);
        let mut traced = FaultInjector::new(&specs, 21);
        let recorder = Rc::new(socbus_telemetry::Recorder::new());
        traced.set_telemetry(Telemetry::from_recorder(&recorder));
        let w = Word::zero(8);
        for _ in 0..10 {
            assert_eq!(plain.transmit(w), traced.transmit(w), "words unchanged");
        }
        let iid = [("fault_family", "iid")];
        let stuck = [("fault_family", "stuck_at")];
        assert_eq!(
            recorder.counter_value("fault.corruptions", &iid),
            0,
            "counters are batched until flushed"
        );
        traced.flush_telemetry();
        traced.flush_telemetry(); // idempotent: deltas report once
        assert_eq!(
            recorder.counter_value("fault.corruptions", &iid),
            10,
            "eps=1.0 corrupts every word"
        );
        assert_eq!(
            recorder.counter_value("fault.flipped_bits", &iid),
            80,
            "eps=1.0 flips all 8 wires every cycle"
        );
        // iid flips wire 0 to 1, so the stuck-at-1 pass sees it already
        // high and changes nothing — no stuck_at corruption counted.
        assert_eq!(recorder.counter_value("fault.corruptions", &stuck), 0);
    }

    /// The reference the integer counts must equal: the `f64` rule, one
    /// `gen::<f64>()` per decision compared with the rate, in the order
    /// the models draw (a burst's state step, then one draw per wire).
    struct F64Rule {
        spec: FaultSpec,
        in_burst: bool,
        rng: StdRng,
    }

    impl F64Rule {
        fn new(spec: &FaultSpec, seed: u64) -> Self {
            F64Rule {
                spec: spec.clone(),
                in_burst: false,
                rng: StdRng::seed_from_u64(seed),
            }
        }

        fn draw(&mut self, p: f64) -> bool {
            use rand::Rng;
            self.rng.gen::<f64>() < p
        }

        fn rescale_swing(&mut self, factor: f64) {
            match &mut self.spec {
                FaultSpec::Iid { eps } | FaultSpec::Droop { eps, .. } => {
                    *eps = rescale_eps(*eps, factor);
                }
                FaultSpec::Burst {
                    eps_good, eps_bad, ..
                } => {
                    *eps_good = rescale_eps(*eps_good, factor);
                    *eps_bad = rescale_eps(*eps_bad, factor);
                }
                FaultSpec::StuckAt { .. } | FaultSpec::Bridge { .. } => {}
            }
        }

        /// The corrupted word and its number of flipped wires.
        fn corrupt(&mut self, cycle: u64, word: Word) -> (Word, u32) {
            let eps = match self.spec {
                FaultSpec::Iid { eps } => eps,
                FaultSpec::Burst {
                    eps_good,
                    eps_bad,
                    p_enter,
                    p_exit,
                } => {
                    if self.draw(if self.in_burst { p_exit } else { p_enter }) {
                        self.in_burst = !self.in_burst;
                    }
                    if self.in_burst {
                        eps_bad
                    } else {
                        eps_good
                    }
                }
                FaultSpec::Droop {
                    eps,
                    scale,
                    start,
                    duration,
                } => {
                    if cycle >= start && cycle - start < duration {
                        (eps * scale).min(1.0)
                    } else {
                        eps
                    }
                }
                FaultSpec::StuckAt { .. } | FaultSpec::Bridge { .. } => unreachable!("soft only"),
            };
            let mut out = word;
            let mut flipped = 0;
            for i in 0..word.width() {
                if self.draw(eps) {
                    out.set_bit(i, !out.bit(i));
                    flipped += 1;
                }
            }
            (out, flipped)
        }
    }

    /// The soft models decide every draw by its integer count exactly as
    /// the `f64` rule would, with the same draws: at widths on both sides
    /// of each limb boundary, at rates from 0 through the smallest
    /// subnormal and `1 − 2⁻⁵³` to 1, with a burst chain that never or
    /// always moves, in and out of a droop window, and before and after
    /// a swing rescale. `corrupt` and `corrupt_counted` both equal the
    /// reference word for word over 1 000 words, and the count is the
    /// reference's; a draw more or fewer per word would shift every word
    /// after it.
    #[test]
    fn soft_models_count_their_flips_with_the_same_draws() {
        const WORDS: u64 = 1_000;
        let rates = [0.0, 5e-324, 1e-12, 1e-3, 0.5, 1.0 - 2f64.powi(-53), 1.0];
        let chains = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.02, 0.3)];
        let mut specs = Vec::new();
        for (r, &eps) in rates.iter().enumerate() {
            specs.push(FaultSpec::Iid { eps });
            for (p_enter, p_exit) in chains {
                specs.push(FaultSpec::Burst {
                    eps_good: eps,
                    eps_bad: rates[rates.len() - 1 - r],
                    p_enter,
                    p_exit,
                });
            }
            // The largest of these that keeps the drooped rate at most 1.
            let scale = [8.0, 1.0 / eps, 1.0]
                .into_iter()
                .find(|s| eps * s <= 1.0)
                .expect("scale 1 always fits");
            specs.push(FaultSpec::Droop {
                eps,
                scale,
                start: WORDS / 4,
                duration: WORDS / 2,
            });
        }
        let mut data = StdRng::seed_from_u64(0xF64);
        let mut flips = 0u64;
        for spec in &specs {
            for width in [1, 63, 64, 65, 128, 129, 256] {
                // The swing moves halfway through the run, inside the
                // droop window, so each row runs both before and after.
                for swing in [1.3, 0.7] {
                    let seed = data.next_u64();
                    let mut reference = F64Rule::new(spec, seed);
                    let (mut plain, mut counted) = (spec.build(seed), spec.build(seed));
                    for cycle in 0..WORDS {
                        if cycle == WORDS / 2 {
                            reference.rescale_swing(swing);
                            plain.rescale_swing(swing);
                            counted.rescale_swing(swing);
                        }
                        let limbs = std::array::from_fn(|_| data.next_u64());
                        let word = Word::from_limbs(limbs, width);
                        let want = reference.corrupt(cycle, word);
                        let at = || {
                            format!("{} width {width} swing {swing} cycle {cycle}", spec.label())
                        };
                        assert_eq!(plain.corrupt(cycle, word), want.0, "{}", at());
                        assert_eq!(counted.corrupt_counted(cycle, word), want, "{}", at());
                        flips += u64::from(want.1);
                    }
                }
            }
        }
        assert!(flips > 0, "the table flipped nothing");
    }

    #[test]
    fn rescale_eps_follows_q_relation() {
        let eps = 1e-3;
        let up = rescale_eps(eps, 1.2);
        let down = rescale_eps(eps, 0.8);
        assert!(up < eps && down > eps);
        // Round trip through q_inv/q.
        let back = rescale_eps(up, 1.0 / 1.2);
        assert!((back - eps).abs() / eps < 1e-9, "back {back}");
        // Degenerate inputs pass through.
        assert_eq!(rescale_eps(0.0, 2.0), 0.0);
        assert_eq!(rescale_eps(0.6, 2.0), 0.6);
    }
}

//! The sink trait and the handle the instrumented crates carry.
//!
//! Instrumentation sites hold a [`Telemetry`] handle and guard every
//! recording block with [`Telemetry::is_enabled`]:
//!
//! ```
//! # use socbus_telemetry::Telemetry;
//! # let tel = Telemetry::off();
//! # let cycles = 7u64;
//! if tel.is_enabled() {
//!     // Label building and formatting happen only on this path.
//!     tel.counter("link.words", &[("scheme", "DAP")], 1);
//!     tel.observe("link.word_cycles", &[], cycles as f64);
//! }
//! ```
//!
//! With `Telemetry::off()` the guard is a single `Option` discriminant
//! test — the compiler sees a `None` that never changes, so the disabled
//! cost on a hot path is one predictable branch per word. The methods
//! also each re-check the handle, so unguarded single calls are safe too.
//!
//! # Held event keys
//!
//! Spans and instant events have one recording path: a sink resolves an
//! event name, label set and [`EventKind`] to an [`EventKey`] once
//! ([`Telemetry::key`]), then records each occurrence under it
//! ([`Telemetry::record`]). [`Telemetry::span`] and [`Telemetry::event`]
//! do both in one call, which is what a site that fires now and then
//! wants. A site that fires every word resolves its key when its labels
//! are set and holds it until they change or the handle is replaced:
//!
//! ```
//! # use std::rc::Rc;
//! # use socbus_telemetry::{EventKind, Recorder, Telemetry};
//! let recorder = Rc::new(Recorder::new());
//! let tel = Telemetry::from_recorder(&recorder);
//! // Once, while the labels hold (`None` when telemetry is off).
//! let word = tel.key("link.word", &[("scheme", "DAP"), ("hop", "0")], EventKind::Span);
//! for cycle in 0..4u64 {
//!     if let Some(word) = word {
//!         // Per word: no label hashing, no lookup.
//!         tel.record(word, cycle, cycle + 1);
//!     }
//! }
//! assert_eq!(recorder.ring_stats().recorded, 4);
//! ```
//!
//! A key names the sink that issued it. Recorded into another sink it is
//! ignored and tallied as a kind conflict, never stored under some other
//! key's name, so a site that moves to a new handle must resolve its
//! keys again.

use std::rc::Rc;

/// A borrowed label set: `(key, value)` pairs with static keys. Sites
/// build these on the stack only when telemetry is enabled; sinks copy
/// what they keep.
pub type Labels<'a> = &'a [(&'static str, &'a str)];

/// Where instrumented code sends its observations.
///
/// All timestamps are **simulated cycles** supplied by the caller (each
/// track owns its clock; see the recorder docs) — implementations must
/// not consult wall-clock time, so recording stays deterministic.
pub trait TelemetrySink {
    /// Adds `delta` to the monotonic counter `name` keyed by `labels`.
    fn counter_add(&self, name: &'static str, labels: Labels<'_>, delta: u64);

    /// Sets the gauge `name` keyed by `labels` to `value` (last write
    /// wins).
    fn gauge_set(&self, name: &'static str, labels: Labels<'_>, value: f64);

    /// Records `value` into the fixed-bucket histogram `name` keyed by
    /// `labels`.
    fn observe(&self, name: &'static str, labels: Labels<'_>, value: f64);

    /// Records `value` into the histogram `n` times — the bulk form
    /// instrumentation sites use to flush locally batched observations
    /// (hot paths accumulate, then flush once per run, so the per-word
    /// cost with any sink stays one branch plus local arithmetic).
    fn observe_n(&self, name: &'static str, labels: Labels<'_>, value: f64, n: u64) {
        for _ in 0..n {
            self.observe(name, labels, value);
        }
    }

    /// Resolves an event name, label set and kind to the key
    /// [`TelemetrySink::record`] takes. Resolving the same triple again,
    /// labels in any order, gives an equal key.
    fn key(&self, name: &'static str, labels: Labels<'_>, kind: EventKind) -> EventKey;

    /// Records one occurrence of `key` covering simulated cycles
    /// `[begin, end]`; an instant event passes `end = begin`. A key this
    /// sink did not issue is ignored.
    fn record(&self, key: EventKey, begin: u64, end: u64);

    /// Records an instantaneous event at simulated cycle `at`.
    fn event(&self, name: &'static str, labels: Labels<'_>, at: u64) {
        self.record(self.key(name, labels, EventKind::Instant), at, at);
    }

    /// Records a span covering simulated cycles `[begin, end]`.
    fn span(&self, name: &'static str, labels: Labels<'_>, begin: u64, end: u64) {
        self.record(self.key(name, labels, EventKind::Span), begin, end);
    }
}

/// Whether an event key names spans or instant events.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// An interval of simulated cycles.
    Span,
    /// One simulated cycle.
    Instant,
}

/// An event name, label set and kind as resolved by one sink: a small
/// `Copy` value a hot site holds instead of re-deriving it per word.
/// It names the sink that issued it, so a key recorded into any other
/// sink is recognised and ignored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventKey {
    sink: u64,
    id: u32,
}

impl EventKey {
    /// Entry `id` of the sink whose identity is `sink` — for sink
    /// implementations; the numbers mean nothing to anyone else.
    #[must_use]
    pub const fn new(sink: u64, id: u32) -> Self {
        EventKey { sink, id }
    }

    /// The identity of the sink that issued the key.
    #[must_use]
    pub const fn sink(self) -> u64 {
        self.sink
    }

    /// The key's entry within its sink.
    #[must_use]
    pub const fn id(self) -> u32 {
        self.id
    }
}

/// A sink that drops everything — the dispatch-path stand-in the
/// overhead gate benchmarks against a fully disabled handle.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {
    fn counter_add(&self, _name: &'static str, _labels: Labels<'_>, _delta: u64) {}
    fn gauge_set(&self, _name: &'static str, _labels: Labels<'_>, _value: f64) {}
    fn observe(&self, _name: &'static str, _labels: Labels<'_>, _value: f64) {}
    fn observe_n(&self, _name: &'static str, _labels: Labels<'_>, _value: f64, _n: u64) {}
    fn key(&self, _name: &'static str, _labels: Labels<'_>, _kind: EventKind) -> EventKey {
        EventKey::new(0, 0)
    }
    fn record(&self, _key: EventKey, _begin: u64, _end: u64) {}
}

/// The cheap, cloneable handle instrumented code carries. `off()` (also
/// the `Default`) disables everything; handles around a shared sink
/// multiplex into one recording.
#[derive(Clone, Default)]
pub struct Telemetry {
    sink: Option<Rc<dyn TelemetrySink>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// A disabled handle: every call is a no-op behind one branch.
    #[must_use]
    pub fn off() -> Self {
        Telemetry { sink: None }
    }

    /// A handle around an explicit sink.
    #[must_use]
    pub fn new(sink: Rc<dyn TelemetrySink>) -> Self {
        Telemetry { sink: Some(sink) }
    }

    /// A handle recording into `recorder`.
    #[must_use]
    pub fn from_recorder(recorder: &Rc<crate::Recorder>) -> Self {
        Telemetry::new(Rc::clone(recorder) as Rc<dyn TelemetrySink>)
    }

    /// An *enabled* handle that records nothing — exercises the dynamic
    /// dispatch path so the overhead gate can measure it.
    #[must_use]
    pub fn noop() -> Self {
        Telemetry::new(Rc::new(NoopSink))
    }

    /// Whether a sink is attached. Hot paths check this once before
    /// building labels.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Adds `delta` to a monotonic counter.
    #[inline]
    pub fn counter(&self, name: &'static str, labels: Labels<'_>, delta: u64) {
        if let Some(sink) = &self.sink {
            sink.counter_add(name, labels, delta);
        }
    }

    /// Sets a gauge (last write wins).
    #[inline]
    pub fn gauge(&self, name: &'static str, labels: Labels<'_>, value: f64) {
        if let Some(sink) = &self.sink {
            sink.gauge_set(name, labels, value);
        }
    }

    /// Records a histogram observation.
    #[inline]
    pub fn observe(&self, name: &'static str, labels: Labels<'_>, value: f64) {
        if let Some(sink) = &self.sink {
            sink.observe(name, labels, value);
        }
    }

    /// Records `n` identical histogram observations at once.
    #[inline]
    pub fn observe_n(&self, name: &'static str, labels: Labels<'_>, value: f64, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(sink) = &self.sink {
            sink.observe_n(name, labels, value, n);
        }
    }

    /// The key under which `record` stores events named `name` with
    /// `labels` of `kind`, or `None` when the handle is off. Hold it
    /// while the labels hold, and resolve it again after switching to
    /// another handle.
    #[inline]
    #[must_use]
    pub fn key(&self, name: &'static str, labels: Labels<'_>, kind: EventKind) -> Option<EventKey> {
        self.sink.as_ref().map(|sink| sink.key(name, labels, kind))
    }

    /// Records one occurrence of `key` covering simulated cycles
    /// `[begin, end]` (`end = begin` for an instant event).
    #[inline]
    pub fn record(&self, key: EventKey, begin: u64, end: u64) {
        if let Some(sink) = &self.sink {
            sink.record(key, begin, end);
        }
    }

    /// Records an instantaneous event at simulated cycle `at`.
    #[inline]
    pub fn event(&self, name: &'static str, labels: Labels<'_>, at: u64) {
        if let Some(sink) = &self.sink {
            sink.event(name, labels, at);
        }
    }

    /// Records a span covering simulated cycles `[begin, end]`.
    #[inline]
    pub fn span(&self, name: &'static str, labels: Labels<'_>, begin: u64, end: u64) {
        if let Some(sink) = &self.sink {
            sink.span(name, labels, begin, end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_is_disabled_and_silent() {
        let tel = Telemetry::off();
        assert!(!tel.is_enabled());
        // All calls are no-ops; nothing to observe, but they must not panic.
        tel.counter("c", &[], 1);
        tel.gauge("g", &[], 1.0);
        tel.observe("h", &[], 1.0);
        tel.event("e", &[], 0);
        tel.span("s", &[], 0, 1);
    }

    #[test]
    fn noop_handle_is_enabled_but_records_nothing() {
        let tel = Telemetry::noop();
        assert!(tel.is_enabled());
        tel.counter("c", &[("k", "v")], 3);
        tel.span("s", &[], 0, 5);
        let key = tel.key("s", &[], EventKind::Span).expect("enabled");
        tel.record(key, 0, 5);
    }

    #[test]
    fn an_off_handle_issues_no_key() {
        assert_eq!(Telemetry::off().key("s", &[], EventKind::Span), None);
    }

    #[test]
    fn default_is_off() {
        assert!(!Telemetry::default().is_enabled());
        assert_eq!(
            format!("{:?}", Telemetry::off()),
            "Telemetry { enabled: false }"
        );
    }
}

//! # socbus-telemetry — observability for the socbus stack
//!
//! A zero-overhead-when-disabled instrumentation layer for the
//! simulators: the paper's evaluation (Tables II–III, Figs. 8–15) is all
//! about *measured* quantities — transition activity, coupling energy,
//! latency, residual error rate — and this crate makes those quantities
//! observable while a simulation runs instead of only as end-of-run
//! aggregates.
//!
//! Three pieces:
//!
//! * [`sink`] — the [`TelemetrySink`] trait and the cheap cloneable
//!   [`Telemetry`] handle the instrumented crates carry. A disabled
//!   handle (`Telemetry::off()`) costs one branch per instrumentation
//!   site; no labels are built, no strings formatted, nothing recorded.
//! * [`recorder`] — the in-memory sink: a metrics registry (monotonic
//!   counters, gauges, fixed-bucket histograms, keyed by static metric
//!   names plus label sets like `scheme`/`hop`/`fault_family`) and a
//!   bounded ring buffer of structured spans and events stamped with
//!   **simulated cycles**, never wall-clock time — recording is fully
//!   deterministic, so two identical runs export byte-identical files.
//! * [`export`] — three renderers over a [`Recorder`]: a JSONL event
//!   log (validated by the checked-in schema, see
//!   [`export::jsonl_schema`]), a Chrome `trace_event` JSON loadable in
//!   `ui.perfetto.dev` (optionally with `ph:"C"` counter tracks), and a
//!   human-readable summary table.
//!
//! Two layers sit on top of the raw stream:
//!
//! * [`health`] — the online health monitor: per-entity
//!   Healthy/Degraded/Critical/Down state machines, SLO error budgets
//!   with multi-window burn-rate alerts, and the byte-canonical
//!   `socbus-incident v1` report (schema + validator + Perfetto counter
//!   tracks for scores and budget burn).
//! * [`quantile`] — the shared histogram-quantile helpers (nearest-rank
//!   p50/p95/p99/max) used by both the mesh bench and the health SLOs.
//!
//! [`json`] is a minimal self-contained JSON parser used by the schema
//! validators (`validate_jsonl` / `validate_incident` binaries) and the
//! exporter tests; the build environment has no serde.
//!
//! # Example
//!
//! ```
//! use std::rc::Rc;
//! use socbus_telemetry::{Recorder, Telemetry};
//!
//! let recorder = Rc::new(Recorder::new());
//! let tel = Telemetry::from_recorder(&recorder);
//! // An instrumented hot loop: guard, then record.
//! for cycle in 0..4u64 {
//!     if tel.is_enabled() {
//!         tel.counter("demo.words", &[("scheme", "DAP")], 1);
//!         tel.span("demo.word", &[("scheme", "DAP")], cycle, cycle + 1);
//!     }
//! }
//! let jsonl = recorder.export_jsonl();
//! assert_eq!(jsonl.lines().count(), 1 + 4 + 1 + 1); // meta, spans, counter, dropped
//! assert!(recorder.export_chrome_trace().contains("\"traceEvents\""));
//! ```

pub mod export;
pub mod health;
pub mod json;
pub mod quantile;
pub mod recorder;
pub mod sink;

pub use export::{jsonl_schema, validate_jsonl, CounterSample};
pub use health::{
    incident_schema, validate_incident, HealthAggregator, HealthConfig, HealthReport, ScopeReport,
};
pub use json::Json;
pub use quantile::Quantiles;
pub use recorder::{Recorder, RingStats};
pub use sink::{EventKey, EventKind, Labels, NoopSink, Telemetry, TelemetrySink};

//! Exporters over a [`Recorder`]: JSONL, Chrome/Perfetto `trace_event`
//! JSON, and a human-readable summary table.
//!
//! All three renderings are **byte-deterministic**: the registry is a
//! `BTreeMap`, the ring preserves insertion order, and floats use
//! shortest-roundtrip formatting (`null` for non-finite values, which
//! JSON cannot express). The CI trace job runs the `trace` binary twice
//! and byte-compares every output.
//!
//! # JSONL
//!
//! One JSON object per line: a `meta` header, then every ring event in
//! record order (`span` / `event`), then every registry metric in key
//! order (`counter` / `gauge` / `histogram`), then a `ring` trailer with
//! occupancy stats. The checked-in schema
//! (`crates/telemetry/schemas/telemetry-jsonl.schema.json`, embedded as
//! [`jsonl_schema`]) lists the required fields per record type;
//! [`validate_jsonl`] enforces it.
//!
//! # Chrome trace
//!
//! The `trace_event` JSON understood by `chrome://tracing` and
//! <https://ui.perfetto.dev>: spans become `ph:"X"` complete events and
//! instants become `ph:"i"` thread-scoped events. One simulated cycle is
//! rendered as one microsecond. Tracks: events labeled `hop=<n>` land on
//! thread `n` (`"hop <n>"`); everything else lands on the "control"
//! thread, tid 1000 — or, when some hop reaches 1000, the first tid
//! above the highest hop, so a track never merges into "control". Each
//! track owns its cycle clock (see the recorder docs).

use std::fmt::Write as _;

use crate::json::{self, escape, Json};
use crate::recorder::{Event, Inner, Metric, Recorder};
use crate::sink::EventKind;

/// The checked-in JSONL schema, embedded so library users and tests
/// validate against the same bytes CI does.
#[must_use]
pub fn jsonl_schema() -> &'static str {
    include_str!("../schemas/telemetry-jsonl.schema.json")
}

/// The `tid` non-hop events are mapped to in the Chrome trace while
/// every hop track lies below it.
const CONTROL_TID: u64 = 1000;

/// One sample on a Perfetto counter track (`ph:"C"`), e.g. a health
/// score or an SLO burn rate. Samples render in slice order on track
/// `track` of the `socbus` process; Perfetto draws the track as a step
/// function.
#[derive(Clone, Debug, PartialEq)]
pub struct CounterSample {
    /// Track (counter) name.
    pub track: String,
    /// Simulated cycle of the sample.
    pub at: u64,
    /// Sampled value.
    pub value: f64,
}

fn labels_json(labels: &[(String, String)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": \"{}\"", escape(k), escape(v));
    }
    out.push('}');
    out
}

fn hop(labels: &[(String, String)]) -> Option<u64> {
    labels
        .iter()
        .find(|(k, _)| k == "hop")
        .and_then(|(_, v)| v.parse::<u64>().ok())
}

/// One interned event key rendered once, however many records name it.
struct RenderedKey {
    /// The escaped event name.
    name: String,
    /// Whether the key names spans.
    span: bool,
    /// The label set as a JSON object.
    labels: String,
    /// The hop track the labels name, if any.
    hop: Option<u64>,
}

fn rendered_keys(inner: &Inner) -> Vec<RenderedKey> {
    inner
        .keys
        .iter()
        .map(|(name, kind, set)| RenderedKey {
            name: escape(name),
            span: kind == EventKind::Span,
            labels: labels_json(set),
            hop: hop(set),
        })
        .collect()
}

impl Recorder {
    /// Renders the JSONL event log.
    #[must_use]
    pub fn export_jsonl(&self) -> String {
        let inner = self.inner.borrow();
        let keys = rendered_keys(&inner);
        let mut out = String::new();
        out.push_str("{\"type\": \"meta\", \"version\": 1, \"clock\": \"cycles\"}\n");
        for e in inner.events() {
            let RenderedKey {
                name, span, labels, ..
            } = &keys[e.key as usize];
            if *span {
                let _ = writeln!(
                    out,
                    "{{\"type\": \"span\", \"name\": \"{name}\", \"begin\": {}, \"end\": {}, \
                     \"labels\": {labels}}}",
                    e.begin, e.end
                );
            } else {
                let _ = writeln!(
                    out,
                    "{{\"type\": \"event\", \"name\": \"{name}\", \"at\": {}, \
                     \"labels\": {labels}}}",
                    e.begin
                );
            }
        }
        for ((name, labels), metric) in &inner.metrics {
            let labels = labels_json(labels);
            match metric {
                Metric::Counter(v) => {
                    let _ = writeln!(
                        out,
                        "{{\"type\": \"counter\", \"name\": \"{}\", \"labels\": {labels}, \
                         \"value\": {v}}}",
                        escape(name)
                    );
                }
                Metric::Gauge(v) => {
                    let _ = writeln!(
                        out,
                        "{{\"type\": \"gauge\", \"name\": \"{}\", \"labels\": {labels}, \
                         \"value\": {}}}",
                        escape(name),
                        json::num(*v)
                    );
                }
                Metric::Histogram(h) => {
                    let bounds: Vec<String> = h.bounds.iter().map(|b| json::num(*b)).collect();
                    let counts: Vec<String> = h.counts.iter().map(u64::to_string).collect();
                    let _ = writeln!(
                        out,
                        "{{\"type\": \"histogram\", \"name\": \"{}\", \"labels\": {labels}, \
                         \"bounds\": [{}], \"counts\": [{}], \"sum\": {}, \"count\": {}}}",
                        escape(name),
                        bounds.join(", "),
                        counts.join(", "),
                        json::num(h.sum),
                        h.count
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "{{\"type\": \"ring\", \"recorded\": {}, \"dropped\": {}, \"capacity\": {}}}",
            inner.ring.len(),
            inner.dropped,
            inner.capacity
        );
        out
    }

    /// Renders the Chrome `trace_event` JSON (Perfetto-loadable).
    #[must_use]
    pub fn export_chrome_trace(&self) -> String {
        self.export_chrome_trace_with_counters(&[])
    }

    /// Renders the Chrome trace with additional `ph:"C"` counter tracks
    /// appended after the ring events (health scores, SLO burn rates).
    /// With an empty `counters` slice the output is byte-identical to
    /// [`Recorder::export_chrome_trace`].
    #[must_use]
    pub fn export_chrome_trace_with_counters(&self, counters: &[CounterSample]) -> String {
        let inner = self.inner.borrow();
        let keys = rendered_keys(&inner);
        let hops = || inner.ring.iter().map(|e| keys[e.key as usize].hop);
        let control_tid = match hops().flatten().max() {
            Some(highest) if highest >= CONTROL_TID => highest.saturating_add(1),
            _ => CONTROL_TID,
        };
        let mut tids: Vec<u64> = hops().map(|h| h.unwrap_or(control_tid)).collect();
        tids.sort_unstable();
        tids.dedup();
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        let mut first = true;
        let mut push = |line: String, first: &mut bool| {
            if !*first {
                out.push_str(",\n");
            }
            *first = false;
            out.push_str("  ");
            out.push_str(&line);
        };
        push(
            "{\"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"name\": \"process_name\", \
             \"args\": {\"name\": \"socbus\"}}"
                .to_owned(),
            &mut first,
        );
        for tid in &tids {
            let name = if *tid == control_tid {
                "control".to_owned()
            } else {
                format!("hop {tid}")
            };
            push(
                format!(
                    "{{\"ph\": \"M\", \"pid\": 0, \"tid\": {tid}, \"name\": \"thread_name\", \
                     \"args\": {{\"name\": \"{name}\"}}}}"
                ),
                &mut first,
            );
        }
        for e in inner.events() {
            let key = &keys[e.key as usize];
            push(
                chrome_event(&e, key, key.hop.unwrap_or(control_tid)),
                &mut first,
            );
        }
        for c in counters {
            push(
                format!(
                    "{{\"ph\": \"C\", \"pid\": 0, \"tid\": 0, \"name\": \"{}\", \"ts\": {}, \
                     \"args\": {{\"value\": {}}}}}",
                    escape(&c.track),
                    c.at,
                    json::num(c.value)
                ),
                &mut first,
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// Renders the human-readable summary table.
    #[must_use]
    pub fn render_summary(&self) -> String {
        let inner = self.inner.borrow();
        let mut out = String::from("telemetry summary (clock: simulated cycles)\n");
        let _ = writeln!(
            out,
            "events: {} recorded, {} dropped (ring capacity {})",
            inner.ring.len(),
            inner.dropped,
            inner.capacity
        );
        if inner.dropped > 0 {
            let _ = writeln!(
                out,
                "WARNING: {} events dropped (ring full) — counters are complete, \
                 the event log is not",
                inner.dropped
            );
        }
        if inner.kind_conflicts > 0 {
            let _ = writeln!(
                out,
                "WARNING: {} metric kind conflicts",
                inner.kind_conflicts
            );
        }
        for (section, want) in [
            ("counters", "counter"),
            ("gauges", "gauge"),
            ("histograms", "histogram"),
        ] {
            let entries: Vec<_> = inner
                .metrics
                .iter()
                .filter(|(_, m)| m.kind() == want)
                .collect();
            if entries.is_empty() {
                continue;
            }
            let _ = writeln!(out, "\n{section}:");
            for ((name, labels), metric) in entries {
                let key = if labels.is_empty() {
                    name.clone()
                } else {
                    let pairs: Vec<String> =
                        labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
                    format!("{name}{{{}}}", pairs.join(","))
                };
                match metric {
                    Metric::Counter(v) => {
                        let _ = writeln!(out, "  {key:<58} {v:>12}");
                    }
                    Metric::Gauge(v) => {
                        let _ = writeln!(out, "  {key:<58} {v:>12?}");
                    }
                    Metric::Histogram(h) => {
                        let mean = if h.count == 0 {
                            0.0
                        } else {
                            h.sum / h.count as f64
                        };
                        let _ = writeln!(out, "  {key:<58} count={} mean={mean:.3}", h.count);
                        for (i, c) in h.counts.iter().enumerate() {
                            if *c == 0 {
                                continue;
                            }
                            let label = h
                                .bounds
                                .get(i)
                                .map_or_else(|| "+inf".to_owned(), |b| format!("{b:?}"));
                            let _ = writeln!(out, "    <= {label:<10} {c:>12}");
                        }
                    }
                }
            }
        }
        out
    }
}

fn chrome_event(e: &Event, key: &RenderedKey, tid: u64) -> String {
    let RenderedKey {
        name, span, labels, ..
    } = key;
    if *span {
        format!(
            "{{\"ph\": \"X\", \"pid\": 0, \"tid\": {tid}, \"name\": \"{name}\", \"ts\": {}, \
             \"dur\": {}, \"args\": {labels}}}",
            e.begin,
            e.end.saturating_sub(e.begin)
        )
    } else {
        format!(
            "{{\"ph\": \"i\", \"pid\": 0, \"tid\": {tid}, \"name\": \"{name}\", \"ts\": {}, \
             \"s\": \"t\", \"args\": {labels}}}",
            e.begin
        )
    }
}

/// Validates a JSONL document against a schema of the checked-in format
/// (see [`jsonl_schema`]): every non-empty line must parse as a JSON
/// object whose `type` names a schema entry and which carries every
/// required field with the required JSON type. Returns the number of
/// validated lines.
///
/// # Errors
///
/// Returns a message describing a malformed schema, or a line-tagged
/// message on the first offending line (a schema fault first met while
/// checking a line carries that line's tag too).
pub fn validate_jsonl(schema_text: &str, input: &str) -> Result<u64, String> {
    let types = json::schema_types(schema_text)?;
    let mut validated = 0;
    for (lineno, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |msg: String| format!("line {}: {msg}", lineno + 1);
        let record = json::parse(line).map_err(&at)?;
        let ty = record
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing string field \"type\"".into()))?;
        json::check_record(&record, ty, &types).map_err(at)?;
        validated += 1;
    }
    Ok(validated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TelemetrySink;

    fn sample() -> Recorder {
        let r = Recorder::new();
        r.span("link.word", &[("hop", "0"), ("scheme", "DAP")], 0, 3);
        r.event("monitor.violation", &[("invariant", "latency-bound")], 7);
        r.counter_add("link.words", &[("scheme", "DAP")], 2);
        r.gauge_set("mc.rate", &[], 1.5e-3);
        r.observe("link.word_cycles", &[], 3.0);
        r
    }

    #[test]
    fn jsonl_validates_against_the_checked_in_schema() {
        let r = sample();
        let jsonl = r.export_jsonl();
        let lines = validate_jsonl(jsonl_schema(), &jsonl).expect("valid");
        // meta + 2 ring events + 3 metrics + ring trailer.
        assert_eq!(lines, 7);
    }

    #[test]
    fn jsonl_lines_each_parse_and_carry_labels() {
        let jsonl = sample().export_jsonl();
        let span = jsonl.lines().nth(1).unwrap();
        let doc = json::parse(span).expect("span parses");
        assert_eq!(doc.get("type").unwrap().as_str(), Some("span"));
        assert_eq!(
            doc.get("labels").unwrap().get("scheme").unwrap().as_str(),
            Some("DAP")
        );
        assert_eq!(doc.get("begin").unwrap().as_num(), Some(0.0));
        assert_eq!(doc.get("end").unwrap().as_num(), Some(3.0));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_thread_metadata() {
        let trace = sample().export_chrome_trace();
        let doc = json::parse(&trace).expect("trace parses");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // process_name + 2 thread_names (hop 0, control) + 2 events.
        assert_eq!(events.len(), 5);
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(Json::as_str) == Some("M")
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    == Some("hop 0")
        }));
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .expect("one complete event");
        assert_eq!(span.get("dur").unwrap().as_num(), Some(3.0));
        assert_eq!(span.get("tid").unwrap().as_num(), Some(0.0));
        let instant = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("i"))
            .expect("one instant event");
        assert_eq!(
            instant.get("tid").unwrap().as_num(),
            Some(f64::from(1000u16))
        );
    }

    /// A 16×16 mesh has 960 directed links, so router tracks reach hop
    /// 1000: control then moves above the highest hop instead of
    /// merging into it.
    #[test]
    fn control_track_moves_above_a_hop_of_1000() {
        let r = Recorder::new();
        r.span("link.word", &[("hop", "1000")], 0, 2);
        r.span("link.word", &[("hop", "7")], 1, 3);
        r.event("monitor.violation", &[("invariant", "x")], 4);
        let doc = json::parse(&r.export_chrome_trace()).expect("trace parses");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let tid = |e: &Json| e.get("tid").and_then(Json::as_num);
        let thread = |name: &str| {
            events
                .iter()
                .find(|e| {
                    e.get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                        == Some(name)
                })
                .and_then(tid)
        };
        assert_eq!(thread("hop 7"), Some(7.0));
        assert_eq!(thread("hop 1000"), Some(1000.0));
        assert_eq!(thread("control"), Some(1001.0));
        let instant = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("i"))
            .expect("one instant event");
        assert_eq!(tid(instant), Some(1001.0));
        let names = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .count();
        assert_eq!(names, 4, "process + three distinct threads");
    }

    #[test]
    fn exports_are_deterministic() {
        let a = sample();
        let b = sample();
        assert_eq!(a.export_jsonl(), b.export_jsonl());
        assert_eq!(a.export_chrome_trace(), b.export_chrome_trace());
        assert_eq!(a.render_summary(), b.render_summary());
    }

    #[test]
    fn summary_lists_every_metric_kind() {
        let summary = sample().render_summary();
        assert!(summary.contains("counters:"));
        assert!(summary.contains("link.words{scheme=DAP}"));
        assert!(summary.contains("gauges:"));
        assert!(summary.contains("histograms:"));
        assert!(summary.contains("events: 2 recorded, 0 dropped"));
    }

    #[test]
    fn counter_tracks_append_as_ph_c_events() {
        let r = sample();
        assert_eq!(
            r.export_chrome_trace(),
            r.export_chrome_trace_with_counters(&[]),
            "no counters => byte-identical to the plain export"
        );
        let counters = vec![
            CounterSample {
                track: "health/link:0".to_owned(),
                at: 5,
                value: 100.0,
            },
            CounterSample {
                track: "slo/delivery_burn".to_owned(),
                at: 256,
                value: 12.5,
            },
        ];
        let trace = r.export_chrome_trace_with_counters(&counters);
        let doc = json::parse(&trace).expect("trace parses");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let samples: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .collect();
        assert_eq!(samples.len(), 2);
        assert_eq!(
            samples[0].get("name").and_then(Json::as_str),
            Some("health/link:0")
        );
        assert_eq!(
            samples[1]
                .get("args")
                .and_then(|a| a.get("value"))
                .and_then(Json::as_num),
            Some(12.5)
        );
    }

    /// The ring-overflow satellite: forcing the ring over capacity must
    /// surface in the summary, the JSONL trailer, and the bin-facing
    /// [`crate::recorder::RingStats::overflow_warning`] line.
    #[test]
    fn forced_ring_overflow_is_loudly_reported() {
        let r = Recorder::with_capacity(2);
        for at in 0..5 {
            r.event("e", &[], at);
        }
        let summary = r.render_summary();
        assert!(
            summary.contains("WARNING: 3 events dropped (ring full)"),
            "{summary}"
        );
        let jsonl = r.export_jsonl();
        let trailer = jsonl.lines().last().unwrap();
        let doc = json::parse(trailer).expect("ring trailer parses");
        assert_eq!(doc.get("dropped").unwrap().as_num(), Some(3.0));
        let warning = r.ring_stats().overflow_warning().expect("warns");
        assert!(
            warning.contains("dropped 3 of 5 events (capacity 2)"),
            "{warning}"
        );
        // ... and a quiet recorder stays quiet.
        let quiet = Recorder::new();
        quiet.event("e", &[], 0);
        assert!(quiet.ring_stats().overflow_warning().is_none());
        assert!(!quiet.render_summary().contains("WARNING"));
    }

    #[test]
    fn validator_rejects_bad_records() {
        let schema = jsonl_schema();
        assert!(validate_jsonl(schema, "{\"no_type\": 1}\n").is_err());
        assert!(validate_jsonl(schema, "{\"type\": \"nonsense\"}\n").is_err());
        let missing = "{\"type\": \"span\", \"name\": \"x\", \"begin\": 0, \"end\": 1}\n";
        let err = validate_jsonl(schema, missing).unwrap_err();
        assert!(err.contains("labels"), "{err}");
        let wrong = "{\"type\": \"counter\", \"name\": \"x\", \"labels\": {}, \
                     \"value\": \"three\"}\n";
        let err = validate_jsonl(schema, wrong).unwrap_err();
        assert!(err.contains("requires number"), "{err}");
        assert_eq!(validate_jsonl(schema, "\n\n").unwrap(), 0);
    }
}

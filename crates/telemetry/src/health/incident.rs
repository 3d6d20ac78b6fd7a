//! The byte-canonical `socbus-incident v1` report format.
//!
//! A health run produces one report holding one *scope* per analyzed
//! telemetry stream (one chaos cell, one bench sub-run, one replay).
//! Scope order is push order — under `exec` sharding the coordinator
//! pushes scopes in shard order, which is what makes the document
//! byte-identical for any `--threads` value (the same discipline as
//! `Recorder::absorb`).
//!
//! The format mirrors the repro-file discipline: a checked-in schema
//! (`crates/telemetry/schemas/socbus-incident.schema.json`, embedded as
//! [`incident_schema`]), a dependency-free validator
//! ([`validate_incident`]), and a canonical serializer whose output
//! [`HealthReport::parse`] round-trips byte-for-byte. Floats use
//! shortest-roundtrip formatting ([`crate::json::num`]); `null` stands
//! for "still open" (`closed_at`) and "nothing to measure" (`measured`).
//!
//! Perfetto counter samples (health scores, burn rates) ride on the
//! in-memory [`ScopeReport`] but are deliberately *not* serialized here —
//! they are an exporter concern
//! ([`crate::Recorder::export_chrome_trace_with_counters`]).

use std::fmt::Write as _;

use crate::export::CounterSample;
use crate::json::{self, escape, Json};

use super::slo::{Alert, SloResult};
use super::state::{Evidence, HealthState};

/// Incident severity: the worst state reached while open.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Entity reached `Critical`.
    Critical,
    /// Entity reached `Down`.
    Down,
}

impl Severity {
    /// Lowercase name used in reports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Critical => "critical",
            Severity::Down => "down",
        }
    }
}

/// One incident: an entity entering `Critical`/`Down` until it returns
/// to `Healthy` (or the run ends with it still unwell).
#[derive(Clone, Debug, PartialEq)]
pub struct Incident {
    /// Sequential id in detection order within the scope.
    pub id: u64,
    /// Blamed entity, e.g. `link:3`.
    pub entity: String,
    /// Worst state reached while open.
    pub severity: Severity,
    /// Entity-local cycle the incident opened.
    pub opened_at: u64,
    /// Entity-local cycle the entity returned to `Healthy`; `None` if
    /// still open at end of run.
    pub closed_at: Option<u64>,
    /// The entity's cumulative evidence counters at close (or end of
    /// run).
    pub evidence: Evidence,
}

/// Final state of one entity.
#[derive(Clone, Debug, PartialEq)]
pub struct EntitySummary {
    /// Entity id, e.g. `router:24`.
    pub entity: String,
    /// Entity kind name (`link`/`router`/`path`).
    pub kind: String,
    /// State at the entity's last observation.
    pub state: HealthState,
    /// Lifetime weighted strain.
    pub strain: u64,
    /// Last observed entity-local cycle.
    pub last_cycle: u64,
}

/// The health verdict over one telemetry stream.
#[derive(Clone, Debug, PartialEq)]
pub struct ScopeReport {
    /// Scope name (cell / sub-run id).
    pub scope: String,
    /// Largest event cycle observed.
    pub cycles: u64,
    /// Instant events processed (spans are ignored by the aggregator).
    pub events: u64,
    /// Events lost to ring eviction before the aggregator saw the
    /// stream (both the online and offline path see the same surviving
    /// suffix, so this is consistent between them).
    pub ring_dropped: u64,
    /// Final entity states, links first, then routers, then paths, each
    /// ordered by id.
    pub entities: Vec<EntitySummary>,
    /// Incident timeline in detection order.
    pub incidents: Vec<Incident>,
    /// SLO burn-rate alerts in open order.
    pub alerts: Vec<Alert>,
    /// Final objective verdicts.
    pub slos: Vec<SloResult>,
    /// Perfetto counter samples (not serialized; see module docs).
    pub samples: Vec<CounterSample>,
}

impl ScopeReport {
    /// Entity ids currently `Down`, in report order.
    #[must_use]
    pub fn down_entities(&self) -> Vec<String> {
        self.entities
            .iter()
            .filter(|e| e.state == HealthState::Down)
            .map(|e| e.entity.clone())
            .collect()
    }

    /// Entity ids blamed by at least one incident, in first-blame order.
    #[must_use]
    pub fn blamed_entities(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for i in &self.incidents {
            if !out.contains(&i.entity) {
                out.push(i.entity.clone());
            }
        }
        out
    }
}

/// The full multi-scope report — the `socbus-incident v1` document.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HealthReport {
    /// Scopes in push (shard) order.
    pub scopes: Vec<ScopeReport>,
}

/// The checked-in incident schema, embedded so library users and tests
/// validate against the same bytes CI does.
#[must_use]
pub fn incident_schema() -> &'static str {
    include_str!("../../schemas/socbus-incident.schema.json")
}

fn num_or_null(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_owned(), json::num)
}

fn cycle_or_null(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_owned(), |c| c.to_string())
}

impl HealthReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        HealthReport::default()
    }

    /// Appends one scope. **Call in shard order** — scope order is part
    /// of the canonical bytes.
    pub fn push_scope(&mut self, scope: ScopeReport) {
        self.scopes.push(scope);
    }

    /// All Perfetto counter samples, scope-prefixed
    /// (`<scope>/health/link:3`, `<scope>/slo/delivery_burn`), in scope
    /// then sample order.
    #[must_use]
    pub fn counter_samples(&self) -> Vec<CounterSample> {
        let mut out = Vec::new();
        for s in &self.scopes {
            for c in &s.samples {
                out.push(CounterSample {
                    track: format!("{}/{}", s.scope, c.track),
                    at: c.at,
                    value: c.value,
                });
            }
        }
        out
    }

    /// Renders the canonical `socbus-incident v1` document.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn serialize(&self) -> String {
        let mut out = String::from("{\n  \"format\": \"socbus-incident\",\n  \"version\": 1,\n");
        if self.scopes.is_empty() {
            out.push_str("  \"scopes\": []\n}\n");
            return out;
        }
        out.push_str("  \"scopes\": [\n");
        for (si, s) in self.scopes.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"scope\": \"{}\",", escape(&s.scope));
            let _ = writeln!(out, "      \"cycles\": {},", s.cycles);
            let _ = writeln!(out, "      \"events\": {},", s.events);
            let _ = writeln!(out, "      \"ring_dropped\": {},", s.ring_dropped);
            Self::render_array(&mut out, "entities", &s.entities, |e| {
                format!(
                    "{{\"entity\": \"{}\", \"kind\": \"{}\", \"state\": \"{}\", \
                     \"score\": {}, \"strain\": {}, \"last_cycle\": {}}}",
                    escape(&e.entity),
                    escape(&e.kind),
                    e.state.as_str(),
                    e.state.score(),
                    e.strain,
                    e.last_cycle
                )
            });
            out.push_str(",\n");
            Self::render_array(&mut out, "incidents", &s.incidents, |i| {
                let ev = &i.evidence;
                format!(
                    "{{\"id\": {}, \"entity\": \"{}\", \"severity\": \"{}\", \
                     \"opened_at\": {}, \"closed_at\": {}, \"evidence\": \
                     {{\"retries\": {}, \"demotes\": {}, \"promotes\": {}, \
                     \"emergencies\": {}, \"retreats\": {}, \"queue_highs\": {}, \
                     \"give_ups\": {}, \"e2e_errors\": {}}}}}",
                    i.id,
                    escape(&i.entity),
                    i.severity.as_str(),
                    i.opened_at,
                    cycle_or_null(i.closed_at),
                    ev.retries,
                    ev.demotes,
                    ev.promotes,
                    ev.emergencies,
                    ev.retreats,
                    ev.queue_highs,
                    ev.give_ups,
                    ev.e2e_errors
                )
            });
            out.push_str(",\n");
            Self::render_array(&mut out, "alerts", &s.alerts, |a| {
                let blamed: Vec<String> = a
                    .blamed
                    .iter()
                    .map(|b| format!("\"{}\"", escape(b)))
                    .collect();
                format!(
                    "{{\"slo\": \"{}\", \"opened_at\": {}, \"closed_at\": {}, \
                     \"peak_burn\": {}, \"blamed\": [{}]}}",
                    escape(&a.slo),
                    a.opened_at,
                    cycle_or_null(a.closed_at),
                    json::num(a.peak_burn),
                    blamed.join(", ")
                )
            });
            out.push_str(",\n");
            Self::render_array(&mut out, "slos", &s.slos, |r| {
                format!(
                    "{{\"name\": \"{}\", \"objective\": {}, \"measured\": {}, \"ok\": {}}}",
                    escape(&r.name),
                    json::num(r.objective),
                    num_or_null(r.measured),
                    r.ok
                )
            });
            out.push('\n');
            if si + 1 < self.scopes.len() {
                out.push_str("    },\n");
            } else {
                out.push_str("    }\n");
            }
        }
        out.push_str("  ]\n}\n");
        out
    }

    fn render_array<T>(out: &mut String, key: &str, items: &[T], line: impl Fn(&T) -> String) {
        if items.is_empty() {
            let _ = write!(out, "      \"{key}\": []");
            return;
        }
        let _ = writeln!(out, "      \"{key}\": [");
        for (i, item) in items.iter().enumerate() {
            out.push_str("        ");
            out.push_str(&line(item));
            if i + 1 < items.len() {
                out.push_str(",\n");
            } else {
                out.push('\n');
            }
        }
        out.push_str("      ]");
    }

    /// Parses a canonical document back into a report (without Perfetto
    /// samples, which are not serialized). `serialize` of the result
    /// reproduces the input byte-for-byte.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first structural problem.
    pub fn parse(text: &str) -> Result<HealthReport, String> {
        let doc = json::parse(text)?;
        if doc.get("format").and_then(Json::as_str) != Some("socbus-incident") {
            return Err("not a socbus-incident document".into());
        }
        if doc.get("version").and_then(Json::as_num) != Some(1.0) {
            return Err("unsupported socbus-incident version".into());
        }
        let scopes = doc
            .get("scopes")
            .and_then(Json::as_arr)
            .ok_or("missing scopes array")?;
        let mut report = HealthReport::new();
        for s in scopes {
            report.push_scope(parse_scope(s)?);
        }
        Ok(report)
    }
}

fn req_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

#[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
fn req_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_num)
        .map(|n| n as u64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

#[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        Some(Json::Null) => Ok(None),
        Some(Json::Num(n)) => Ok(Some(*n as u64)),
        _ => Err(format!("field {key:?} must be a number or null")),
    }
}

fn opt_f64(v: &Json, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        Some(Json::Null) => Ok(None),
        Some(Json::Num(n)) => Ok(Some(*n)),
        _ => Err(format!("field {key:?} must be a number or null")),
    }
}

fn parse_state(name: &str) -> Result<HealthState, String> {
    match name {
        "healthy" => Ok(HealthState::Healthy),
        "degraded" => Ok(HealthState::Degraded),
        "critical" => Ok(HealthState::Critical),
        "down" => Ok(HealthState::Down),
        other => Err(format!("unknown health state {other:?}")),
    }
}

fn parse_scope(s: &Json) -> Result<ScopeReport, String> {
    let mut scope = ScopeReport {
        scope: req_str(s, "scope")?,
        cycles: req_u64(s, "cycles")?,
        events: req_u64(s, "events")?,
        ring_dropped: req_u64(s, "ring_dropped")?,
        entities: Vec::new(),
        incidents: Vec::new(),
        alerts: Vec::new(),
        slos: Vec::new(),
        samples: Vec::new(),
    };
    for e in s
        .get("entities")
        .and_then(Json::as_arr)
        .ok_or("missing entities")?
    {
        scope.entities.push(EntitySummary {
            entity: req_str(e, "entity")?,
            kind: req_str(e, "kind")?,
            state: parse_state(&req_str(e, "state")?)?,
            strain: req_u64(e, "strain")?,
            last_cycle: req_u64(e, "last_cycle")?,
        });
    }
    for i in s
        .get("incidents")
        .and_then(Json::as_arr)
        .ok_or("missing incidents")?
    {
        let ev = i.get("evidence").ok_or("missing evidence")?;
        scope.incidents.push(Incident {
            id: req_u64(i, "id")?,
            entity: req_str(i, "entity")?,
            severity: match req_str(i, "severity")?.as_str() {
                "critical" => Severity::Critical,
                "down" => Severity::Down,
                other => return Err(format!("unknown severity {other:?}")),
            },
            opened_at: req_u64(i, "opened_at")?,
            closed_at: opt_u64(i, "closed_at")?,
            evidence: Evidence {
                retries: req_u64(ev, "retries")?,
                demotes: req_u64(ev, "demotes")?,
                promotes: req_u64(ev, "promotes")?,
                emergencies: req_u64(ev, "emergencies")?,
                retreats: req_u64(ev, "retreats")?,
                queue_highs: req_u64(ev, "queue_highs")?,
                give_ups: req_u64(ev, "give_ups")?,
                e2e_errors: req_u64(ev, "e2e_errors")?,
            },
        });
    }
    for a in s
        .get("alerts")
        .and_then(Json::as_arr)
        .ok_or("missing alerts")?
    {
        let blamed = a
            .get("blamed")
            .and_then(Json::as_arr)
            .ok_or("missing blamed")?
            .iter()
            .map(|b| {
                b.as_str()
                    .map(str::to_owned)
                    .ok_or("blamed entries must be strings")
            })
            .collect::<Result<Vec<_>, _>>()?;
        scope.alerts.push(Alert {
            slo: req_str(a, "slo")?,
            opened_at: req_u64(a, "opened_at")?,
            closed_at: opt_u64(a, "closed_at")?,
            peak_burn: a
                .get("peak_burn")
                .and_then(Json::as_num)
                .ok_or("missing peak_burn")?,
            blamed,
        });
    }
    for r in s.get("slos").and_then(Json::as_arr).ok_or("missing slos")? {
        scope.slos.push(SloResult {
            name: req_str(r, "name")?,
            objective: r
                .get("objective")
                .and_then(Json::as_num)
                .ok_or("missing objective")?,
            measured: opt_f64(r, "measured")?,
            ok: match r.get("ok") {
                Some(Json::Bool(b)) => *b,
                _ => return Err("missing bool field \"ok\"".into()),
            },
        });
    }
    Ok(scope)
}

/// Validates a `socbus-incident v1` document against a schema of the
/// checked-in shape (see [`incident_schema`]): the root must satisfy the
/// `report` kind, every scope the `scope` kind, and every element of a
/// scope's `entities` / `incidents` / `alerts` / `slos` arrays the
/// correspondingly named kind. Returns the number of validated records
/// (root + scopes + array elements).
///
/// # Errors
///
/// Returns a message naming the first offending record or a malformed
/// schema.
pub fn validate_incident(schema_text: &str, input: &str) -> Result<u64, String> {
    let types = json::schema_types(schema_text)?;
    let doc = json::parse(input)?;
    if doc.get("format").and_then(Json::as_str) != Some("socbus-incident") {
        return Err("not a socbus-incident document".into());
    }
    if doc.get("version").and_then(Json::as_num) != Some(1.0) {
        return Err("unsupported socbus-incident version".into());
    }
    json::check_record(&doc, "report", &types)?;
    let mut validated = 1;
    let scopes = doc
        .get("scopes")
        .and_then(Json::as_arr)
        .ok_or("missing scopes")?;
    for (si, s) in scopes.iter().enumerate() {
        let at = |e: String| format!("scope {si}: {e}");
        json::check_record(s, "scope", &types).map_err(at)?;
        validated += 1;
        for (key, kind) in [
            ("entities", "entity"),
            ("incidents", "incident"),
            ("alerts", "alert"),
            ("slos", "slo"),
        ] {
            let arr = s
                .get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("scope {si}: missing array {key:?}"))?;
            for (i, record) in arr.iter().enumerate() {
                json::check_record(record, kind, &types)
                    .map_err(|e| format!("scope {si} {key}[{i}]: {e}"))?;
                validated += 1;
            }
        }
    }
    Ok(validated)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> HealthReport {
        let mut report = HealthReport::new();
        report.push_scope(ScopeReport {
            scope: "DAP/burst".to_owned(),
            cycles: 4096,
            events: 120,
            ring_dropped: 0,
            entities: vec![
                EntitySummary {
                    entity: "link:0".to_owned(),
                    kind: "link".to_owned(),
                    state: HealthState::Down,
                    strain: 44,
                    last_cycle: 4000,
                },
                EntitySummary {
                    entity: "router:16".to_owned(),
                    kind: "router".to_owned(),
                    state: HealthState::Healthy,
                    strain: 2,
                    last_cycle: 4090,
                },
            ],
            incidents: vec![Incident {
                id: 0,
                entity: "link:0".to_owned(),
                severity: Severity::Down,
                opened_at: 900,
                closed_at: None,
                evidence: Evidence {
                    retries: 31,
                    demotes: 4,
                    promotes: 1,
                    ..Evidence::default()
                },
            }],
            alerts: vec![Alert {
                slo: "delivery".to_owned(),
                opened_at: 1024,
                closed_at: Some(2048),
                peak_burn: 25.5,
                blamed: vec!["path:20".to_owned()],
            }],
            slos: vec![
                SloResult {
                    name: "delivery".to_owned(),
                    objective: 0.99,
                    measured: Some(0.875),
                    ok: false,
                },
                SloResult {
                    name: "latency_p99".to_owned(),
                    objective: 64.0,
                    measured: None,
                    ok: true,
                },
            ],
            samples: vec![CounterSample {
                track: "health/link:0".to_owned(),
                at: 900,
                value: 0.0,
            }],
        });
        report.push_scope(ScopeReport {
            scope: "empty".to_owned(),
            cycles: 0,
            events: 0,
            ring_dropped: 3,
            entities: Vec::new(),
            incidents: Vec::new(),
            alerts: Vec::new(),
            slos: Vec::new(),
            samples: Vec::new(),
        });
        report
    }

    #[test]
    fn serialize_validates_against_the_checked_in_schema() {
        let text = sample_report().serialize();
        let n = validate_incident(incident_schema(), &text).expect("valid");
        // report + 2 scopes + 2 entities + 1 incident + 1 alert + 2 slos.
        assert_eq!(n, 9);
    }

    #[test]
    fn serialize_parse_roundtrips_byte_for_byte() {
        let text = sample_report().serialize();
        let parsed = HealthReport::parse(&text).expect("parses");
        assert_eq!(parsed.serialize(), text);
        // Samples are not serialized, the rest is.
        assert_eq!(parsed.scopes.len(), 2);
        assert!(parsed.scopes[0].samples.is_empty());
        assert_eq!(parsed.scopes[0].incidents[0].closed_at, None);
        assert_eq!(parsed.scopes[0].slos[1].measured, None);
    }

    #[test]
    fn empty_report_is_canonical_too() {
        let text = HealthReport::new().serialize();
        assert!(text.contains("\"scopes\": []"));
        let parsed = HealthReport::parse(&text).expect("parses");
        assert_eq!(parsed.serialize(), text);
        assert_eq!(validate_incident(incident_schema(), &text).unwrap(), 1);
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        let schema = incident_schema();
        assert!(validate_incident(schema, "{\"format\": \"other\"}").is_err());
        let bad_version = "{\"format\": \"socbus-incident\", \"version\": 2, \"scopes\": []}";
        assert!(validate_incident(schema, bad_version).is_err());
        // A scope missing a required array.
        let text = sample_report()
            .serialize()
            .replace("\"alerts\"", "\"axerts\"");
        let err = validate_incident(schema, &text).unwrap_err();
        assert!(err.contains("alerts"), "{err}");
        // A wrongly-typed field inside a nested record.
        let text = sample_report()
            .serialize()
            .replace("\"score\": 0,", "\"score\": \"zero\",");
        let err = validate_incident(schema, &text).unwrap_err();
        assert!(err.contains("score"), "{err}");
    }

    #[test]
    fn down_and_blamed_views_cover_the_cross_check() {
        let report = sample_report();
        assert_eq!(report.scopes[0].down_entities(), vec!["link:0".to_owned()]);
        assert_eq!(
            report.scopes[0].blamed_entities(),
            vec!["link:0".to_owned()]
        );
    }

    #[test]
    fn counter_samples_are_scope_prefixed() {
        let samples = sample_report().counter_samples();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].track, "DAP/burst/health/link:0");
    }
}

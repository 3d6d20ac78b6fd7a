//! The streaming health aggregator.
//!
//! Consumes one deterministic telemetry stream — either directly from a
//! live [`Recorder`] ([`HealthAggregator::ingest_recorder`]) or from an
//! exported JSONL document ([`HealthAggregator::ingest_jsonl`]) — and
//! folds it into per-entity health machines, SLO trackers, and an
//! incident timeline.
//!
//! # Online ≡ offline
//!
//! Both ingestion paths process the *same logical sequence*: every ring
//! event in record order, then every registry metric in key order, then
//! the ring's drop tally (the JSONL exporter writes exactly this order,
//! and ring eviction happens before either path looks). The aggregator
//! is a pure fold over that sequence, so analyzing a recorder online and
//! replaying its exported JSONL offline produce byte-identical
//! `socbus-incident` documents — the property the health proptests pin.
//!
//! Spans are ignored: every strain signal has an instant-event form, and
//! span begin/end pairs carry no additional health information.
//!
//! # Event vocabulary
//!
//! | event | entity | signal |
//! |---|---|---|
//! | `link.retry` | `link:<hop>` | `Retry` |
//! | `link.degrade` (`dir=promote`) | `link:<hop>` | `Promote` |
//! | `link.degrade` (otherwise) | `link:<hop>` | `Demote` |
//! | `control.transition` (`cause=emergency`) | `link:<hop>` | `Emergency` |
//! | `control.transition` (`cause=retreat`) | `link:<hop>` | `Retreat` |
//! | `control.transition` (`cause=relax`) | `link:<hop>` | `Activity` |
//! | `mesh.link_down` | `link:<hop>` | `Down` |
//! | `mesh.accept` | `router:<hop>` | `Activity` + delivery good |
//! | `mesh.queue_high` | `router:<hop>` | `QueueHigh` |
//! | `mesh.give_up` | `path:<hop>` | `GiveUp` + delivery bad |
//! | `path.e2e_error` | `path:<hop or 0>` | `E2eError` |
//!
//! End-of-run counters feed the final SLOs: `link.words` and
//! `link.silent` (undetected-WER), the `link.word_cycles` histogram
//! (p99 latency).

use std::collections::BTreeMap;

use crate::export::CounterSample;
use crate::json::{self, Json};
use crate::recorder::{Metric, Recorder};
use crate::sink::EventKind;

use super::incident::{EntitySummary, Incident, ScopeReport, Severity};
use super::slo::{latency_slo, undetected_wer_slo, DeliverySlo};
use super::state::{EntityHealth, EntityKind, HealthState, Signal, Transition};
use super::HealthConfig;

fn label<'a>(labels: &'a [(String, String)], key: &str) -> Option<&'a str> {
    labels
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

fn hop(labels: &[(String, String)]) -> Option<u64> {
    label(labels, "hop").and_then(|v| v.parse::<u64>().ok())
}

/// Hops below this index live in dense per-kind lanes; larger hops
/// spill to an ordered map. Every real fabric keys entities by small
/// integers, so the hot-path lookup is one bounds check and a vector
/// index.
const DENSE_HOPS: u64 = 256;

fn kind_index(kind: EntityKind) -> usize {
    match kind {
        EntityKind::Link => 0,
        EntityKind::Router => 1,
        EntityKind::Path => 2,
    }
}

/// The entity table, tuned for the fold's hot path (one lookup per
/// health-relevant event). Iteration order is `(kind, hop)`
/// lexicographic — identical to the `BTreeMap<(EntityKind, u64), _>` it
/// replaces, so reports stay byte-identical.
struct EntityStore {
    dense: [Vec<Option<EntityHealth>>; 3],
    spill: BTreeMap<(EntityKind, u64), EntityHealth>,
}

impl EntityStore {
    fn new() -> Self {
        EntityStore {
            dense: [Vec::new(), Vec::new(), Vec::new()],
            spill: BTreeMap::new(),
        }
    }

    /// Finds or creates the entity; sets `created` when a new machine
    /// was born (its birth also costs the caller a score sample).
    fn get_or_insert(
        &mut self,
        kind: EntityKind,
        hop: u64,
        cycle: u64,
        created: &mut bool,
    ) -> &mut EntityHealth {
        if hop < DENSE_HOPS {
            let lane = &mut self.dense[kind_index(kind)];
            #[allow(clippy::cast_possible_truncation)]
            let i = hop as usize;
            if lane.len() <= i {
                lane.resize_with(i + 1, || None);
            }
            if lane[i].is_none() {
                *created = true;
                lane[i] = Some(EntityHealth::new(kind, hop, cycle));
            }
            lane[i].as_mut().expect("just filled")
        } else {
            match self.spill.entry((kind, hop)) {
                std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::btree_map::Entry::Vacant(e) => {
                    *created = true;
                    e.insert(EntityHealth::new(kind, hop, cycle))
                }
            }
        }
    }

    /// All entities in `(kind, hop)` order.
    fn values(&self) -> impl Iterator<Item = &EntityHealth> + '_ {
        [EntityKind::Link, EntityKind::Router, EntityKind::Path]
            .into_iter()
            .flat_map(move |kind| {
                let lane = self.dense[kind_index(kind)]
                    .iter()
                    .filter_map(Option::as_ref);
                let spill = self
                    .spill
                    .range((kind, DENSE_HOPS)..=(kind, u64::MAX))
                    .map(|(_, e)| e);
                lane.chain(spill)
            })
    }
}

/// The streaming fold from telemetry to a [`ScopeReport`].
pub struct HealthAggregator {
    cfg: HealthConfig,
    entities: EntityStore,
    incidents: Vec<Incident>,
    /// entity name -> index into `incidents` of its open incident.
    open: BTreeMap<String, usize>,
    delivery: DeliverySlo,
    samples: Vec<CounterSample>,
    words: u64,
    silent: u64,
    latency_hist: Option<(Vec<f64>, Vec<u64>)>,
    cycles: u64,
    events: u64,
    ring_dropped: u64,
    scratch: Vec<Transition>,
}

impl HealthAggregator {
    /// A fresh aggregator.
    #[must_use]
    pub fn new(cfg: HealthConfig) -> Self {
        let delivery = DeliverySlo::new(
            cfg.delivery_objective,
            cfg.burn_threshold,
            cfg.burn_bucket_cycles,
            cfg.long_buckets,
        );
        HealthAggregator {
            cfg,
            entities: EntityStore::new(),
            incidents: Vec::new(),
            open: BTreeMap::new(),
            delivery,
            samples: Vec::new(),
            words: 0,
            silent: 0,
            latency_hist: None,
            cycles: 0,
            events: 0,
            ring_dropped: 0,
            scratch: Vec::new(),
        }
    }

    /// One-shot: analyze a live recorder under `cfg`.
    #[must_use]
    pub fn scope_from_recorder(scope: &str, cfg: &HealthConfig, rec: &Recorder) -> ScopeReport {
        let mut agg = HealthAggregator::new(cfg.clone());
        agg.ingest_recorder(rec);
        agg.finish(scope)
    }

    /// One-shot: analyze an exported JSONL document under `cfg`.
    ///
    /// # Errors
    ///
    /// Returns a line-tagged message on malformed JSONL.
    pub fn scope_from_jsonl(
        scope: &str,
        cfg: &HealthConfig,
        text: &str,
    ) -> Result<ScopeReport, String> {
        let mut agg = HealthAggregator::new(cfg.clone());
        agg.ingest_jsonl(text)?;
        Ok(agg.finish(scope))
    }

    fn signal(&mut self, kind: EntityKind, hop: u64, cycle: u64, sig: Signal) {
        // This is the fold's hot path — one call per health-relevant
        // event — so it must not allocate unless something actually
        // happened: one map probe, and the entity name is only
        // formatted on creation and on state transitions.
        let mut created = false;
        let entity = self.entities.get_or_insert(kind, hop, cycle, &mut created);
        if created {
            self.samples.push(CounterSample {
                track: format!("health/{}", entity.name()),
                at: cycle,
                value: 100.0,
            });
        }
        self.scratch.clear();
        entity.observe(cycle, sig, &self.cfg.thresholds, &mut self.scratch);
        if self.scratch.is_empty() {
            return;
        }
        let name = entity.name();
        let evidence = entity.evidence;
        for i in 0..self.scratch.len() {
            let t = self.scratch[i];
            #[allow(clippy::cast_precision_loss)]
            let score = t.to.score() as f64;
            self.samples.push(CounterSample {
                track: format!("health/{name}"),
                at: t.cycle,
                value: score,
            });
            match t.to {
                HealthState::Critical | HealthState::Down => {
                    let severity = if t.to == HealthState::Down {
                        Severity::Down
                    } else {
                        Severity::Critical
                    };
                    if let Some(&idx) = self.open.get(&name) {
                        let worst = self.incidents[idx].severity.max(severity);
                        self.incidents[idx].severity = worst;
                    } else if t.from < HealthState::Critical {
                        let id = self.incidents.len() as u64;
                        self.open.insert(name.clone(), self.incidents.len());
                        self.incidents.push(Incident {
                            id,
                            entity: name.clone(),
                            severity,
                            opened_at: t.cycle,
                            closed_at: None,
                            evidence,
                        });
                    }
                }
                HealthState::Healthy => {
                    if let Some(idx) = self.open.remove(&name) {
                        self.incidents[idx].closed_at = Some(t.cycle);
                        self.incidents[idx].evidence = evidence;
                    }
                }
                HealthState::Degraded => {}
            }
        }
    }

    /// Feeds one instant event (`name`, sorted `labels`, cycle `at`).
    pub fn observe_event(&mut self, name: &str, labels: &[(String, String)], at: u64) {
        self.observe_labeled(name, labels, hop(labels), at);
    }

    /// [`HealthAggregator::observe_event`] with the `hop` label already
    /// parsed.
    fn observe_labeled(
        &mut self,
        name: &str,
        labels: &[(String, String)],
        hop: Option<u64>,
        at: u64,
    ) {
        self.events += 1;
        self.cycles = self.cycles.max(at);
        match name {
            "link.retry" => {
                if let Some(h) = hop {
                    self.signal(EntityKind::Link, h, at, Signal::Retry);
                }
            }
            "link.degrade" => {
                if let Some(h) = hop {
                    let sig = if label(labels, "dir") == Some("promote") {
                        Signal::Promote
                    } else {
                        Signal::Demote
                    };
                    self.signal(EntityKind::Link, h, at, sig);
                }
            }
            "control.transition" => {
                if let Some(h) = hop {
                    let sig = match label(labels, "cause") {
                        Some("emergency") => Signal::Emergency,
                        Some("retreat") => Signal::Retreat,
                        _ => Signal::Activity,
                    };
                    self.signal(EntityKind::Link, h, at, sig);
                }
            }
            "mesh.link_down" => {
                if let Some(h) = hop {
                    self.signal(EntityKind::Link, h, at, Signal::Down);
                }
            }
            "mesh.accept" => {
                if let Some(h) = hop {
                    self.signal(EntityKind::Router, h, at, Signal::Activity);
                    self.delivery.good(at);
                }
            }
            "mesh.queue_high" => {
                if let Some(h) = hop {
                    self.signal(EntityKind::Router, h, at, Signal::QueueHigh);
                }
            }
            "mesh.give_up" => {
                if let Some(h) = hop {
                    self.signal(EntityKind::Path, h, at, Signal::GiveUp);
                    self.delivery.bad(at, &format!("path:{h}"));
                }
            }
            "path.e2e_error" => {
                let h = hop.unwrap_or(0);
                self.signal(EntityKind::Path, h, at, Signal::E2eError);
            }
            _ => {}
        }
    }

    /// Feeds one end-of-run counter total.
    pub fn observe_counter(&mut self, name: &str, value: u64) {
        match name {
            "link.words" => self.words += value,
            "link.silent" => self.silent += value,
            _ => {}
        }
    }

    /// Feeds one end-of-run histogram (merged into the latency SLO when
    /// it is `link.word_cycles`; bounds mismatches are skipped).
    pub fn observe_histogram(&mut self, name: &str, bounds: &[f64], counts: &[u64]) {
        if name != "link.word_cycles" {
            return;
        }
        match &mut self.latency_hist {
            None => self.latency_hist = Some((bounds.to_vec(), counts.to_vec())),
            Some((b, c)) => {
                if b.as_slice() == bounds && c.len() == counts.len() {
                    for (acc, n) in c.iter_mut().zip(counts) {
                        *acc += n;
                    }
                }
            }
        }
    }

    /// Ingests a live recorder: ring events in record order, then
    /// registry metrics in key order, then the ring drop tally — the
    /// same logical sequence the JSONL exporter writes.
    pub fn ingest_recorder(&mut self, rec: &Recorder) {
        let inner = rec.inner.borrow();
        // Each interned key's hop is parsed once, not per event; span
        // keys carry nothing the fold reads.
        let keys: Vec<_> = inner
            .keys
            .iter()
            .map(|(name, kind, labels)| {
                (kind == EventKind::Instant).then(|| (name, labels, hop(labels)))
            })
            .collect();
        for e in &inner.ring {
            if let Some((name, labels, hop)) = keys[e.key as usize] {
                self.observe_labeled(name, labels, hop, e.begin);
            }
        }
        for ((name, _labels), metric) in &inner.metrics {
            match metric {
                Metric::Counter(v) => self.observe_counter(name, *v),
                Metric::Gauge(_) => {}
                Metric::Histogram(h) => self.observe_histogram(name, &h.bounds, &h.counts),
            }
        }
        self.ring_dropped += inner.dropped;
    }

    /// Ingests an exported JSONL document (the offline replay path).
    ///
    /// # Errors
    ///
    /// Returns a line-tagged message on unparsable lines; unknown record
    /// types are ignored (forward compatibility).
    pub fn ingest_jsonl(&mut self, text: &str) -> Result<(), String> {
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let at_line = |msg: String| format!("line {}: {msg}", lineno + 1);
            let doc = json::parse(line).map_err(&at_line)?;
            let ty = doc
                .get("type")
                .and_then(Json::as_str)
                .ok_or_else(|| at_line("missing string field \"type\"".into()))?;
            match ty {
                "event" => {
                    let name = doc
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| at_line("event missing name".into()))?;
                    let at = doc
                        .get("at")
                        .and_then(Json::as_num)
                        .ok_or_else(|| at_line("event missing at".into()))?;
                    let labels = match doc.get("labels") {
                        Some(Json::Obj(members)) => members
                            .iter()
                            .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_owned())))
                            .collect(),
                        _ => Vec::new(),
                    };
                    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
                    self.observe_event(name, &labels, at as u64);
                }
                "counter" => {
                    let name = doc
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| at_line("counter missing name".into()))?;
                    let value = doc
                        .get("value")
                        .and_then(Json::as_num)
                        .ok_or_else(|| at_line("counter missing value".into()))?;
                    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
                    self.observe_counter(name, value as u64);
                }
                "histogram" => {
                    let name = doc
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| at_line("histogram missing name".into()))?;
                    let nums = |key: &str| -> Vec<f64> {
                        doc.get(key)
                            .and_then(Json::as_arr)
                            .map(|a| a.iter().filter_map(Json::as_num).collect())
                            .unwrap_or_default()
                    };
                    let bounds = nums("bounds");
                    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
                    let counts: Vec<u64> = nums("counts").iter().map(|&n| n as u64).collect();
                    self.observe_histogram(name, &bounds, &counts);
                }
                "ring" => {
                    let dropped = doc.get("dropped").and_then(Json::as_num).unwrap_or(0.0);
                    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
                    {
                        self.ring_dropped += dropped as u64;
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Finalizes into a [`ScopeReport`]: entity states as of their last
    /// observation (silence is not recovery), still-open incidents with
    /// `closed_at: null` and end-of-run evidence, the trailing delivery
    /// bucket completed, and the final-only SLOs evaluated.
    #[must_use]
    pub fn finish(mut self, scope: &str) -> ScopeReport {
        let (mut alerts, delivery_verdict, burn) = self.delivery.finish();
        for (at, value) in burn {
            self.samples.push(CounterSample {
                track: "slo/delivery_burn".to_owned(),
                at,
                value,
            });
        }
        // Evidence for incidents still open at end of run.
        for (name, idx) in &self.open {
            for entity in self.entities.values() {
                if &entity.name() == name {
                    self.incidents[*idx].evidence = entity.evidence;
                }
            }
        }
        let entities: Vec<EntitySummary> = self
            .entities
            .values()
            .map(|e| EntitySummary {
                entity: e.name(),
                kind: e.kind.as_str().to_owned(),
                state: e.state,
                strain: e.strain_total,
                last_cycle: e.last_cycle,
            })
            .collect();
        let slos = vec![
            delivery_verdict,
            latency_slo(
                self.latency_hist.as_ref().map_or(&[], |(b, _)| b),
                self.latency_hist.as_ref().map_or(&[], |(_, c)| c),
                self.cfg.latency_budget,
            ),
            undetected_wer_slo(self.silent, self.words, self.cfg.undetected_wer_objective),
        ];
        alerts.sort_by_key(|a| a.opened_at);
        ScopeReport {
            scope: scope.to_owned(),
            cycles: self.cycles,
            events: self.events,
            ring_dropped: self.ring_dropped,
            entities,
            incidents: self.incidents,
            alerts,
            slos,
            samples: self.samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::HealthReport;
    use super::*;
    use crate::sink::TelemetrySink;

    fn storm_recorder() -> Recorder {
        let r = Recorder::new();
        // Retry storm on link 0 -> Critical.
        for at in 0..20 {
            r.event("link.retry", &[("scheme", "DAP"), ("hop", "0")], at);
        }
        // Ladder re-promotions bring it back -> incident closes.
        r.event(
            "link.degrade",
            &[
                ("scheme", "DAP"),
                ("hop", "0"),
                ("action", "raise_swing"),
                ("forced", "false"),
                ("dir", "promote"),
            ],
            40,
        );
        r.event(
            "link.degrade",
            &[
                ("scheme", "DAP"),
                ("hop", "0"),
                ("action", "raise_swing"),
                ("forced", "false"),
                ("dir", "promote"),
            ],
            41,
        );
        // Auto-down on link 2 -> open Down incident.
        r.event("mesh.link_down", &[("hop", "2")], 100);
        // Mesh traffic: mostly good with a give-up burst in cycle order.
        for at in 0..600 {
            r.event("mesh.accept", &[("hop", "20")], at);
            if (200..230).contains(&at) {
                r.event("mesh.give_up", &[("hop", "21")], at);
            }
        }
        // Spans must be ignored.
        r.span("link.word", &[("hop", "0")], 0, 3);
        // End-of-run metrics.
        r.counter_add("link.words", &[("scheme", "DAP"), ("hop", "0")], 5000);
        r.counter_add("link.silent", &[("scheme", "DAP"), ("hop", "0")], 2);
        r.observe_n(
            "link.word_cycles",
            &[("scheme", "DAP"), ("hop", "0")],
            3.0,
            4900,
        );
        r.observe_n(
            "link.word_cycles",
            &[("scheme", "DAP"), ("hop", "0")],
            40.0,
            100,
        );
        r
    }

    #[test]
    fn storms_open_and_close_incidents() {
        let rec = storm_recorder();
        let scope = HealthAggregator::scope_from_recorder("cell", &HealthConfig::default(), &rec);
        // link:0 recovered via promotions; link:2 is down.
        let link0 = scope
            .entities
            .iter()
            .find(|e| e.entity == "link:0")
            .unwrap();
        assert_eq!(link0.state, HealthState::Healthy);
        let link2 = scope
            .entities
            .iter()
            .find(|e| e.entity == "link:2")
            .unwrap();
        assert_eq!(link2.state, HealthState::Down);
        assert_eq!(scope.down_entities(), vec!["link:2".to_owned()]);
        // Three incidents in detection order: link:0 (closed critical),
        // link:2 (open down), path:21 (open critical, give-up storm).
        assert_eq!(scope.incidents.len(), 3);
        let i0 = &scope.incidents[0];
        assert_eq!(
            (i0.entity.as_str(), i0.severity),
            ("link:0", Severity::Critical)
        );
        assert_eq!(i0.closed_at, Some(41));
        assert_eq!(i0.evidence.retries, 20);
        assert_eq!(i0.evidence.promotes, 2);
        let i1 = &scope.incidents[1];
        assert_eq!(
            (i1.entity.as_str(), i1.severity),
            ("link:2", Severity::Down)
        );
        assert_eq!(i1.closed_at, None);
        let i2 = &scope.incidents[2];
        assert_eq!(
            (i2.entity.as_str(), i2.severity),
            ("path:21", Severity::Critical)
        );
        assert_eq!(i2.evidence.give_ups, 30);
        assert!(scope.blamed_entities().contains(&"link:2".to_owned()));
        // The give-up burst blew the delivery budget in its bucket.
        assert_eq!(scope.alerts.len(), 1);
        assert_eq!(scope.alerts[0].blamed, vec!["path:21".to_owned()]);
        // SLO verdicts: delivery violated, latency ok, wer ok.
        assert_eq!(scope.slos[0].name, "delivery");
        assert!(!scope.slos[0].ok);
        assert_eq!(scope.slos[1].name, "latency_p99");
        assert_eq!(scope.slos[1].measured, Some(64.0));
        assert!(scope.slos[1].ok);
        assert_eq!(scope.slos[2].name, "undetected_wer");
        assert_eq!(scope.slos[2].measured, Some(4e-4));
        assert!(scope.slos[2].ok);
        // Counter tracks exist for every entity plus the burn stream.
        assert!(scope.samples.iter().any(|s| s.track == "health/link:0"));
        assert!(scope.samples.iter().any(|s| s.track == "slo/delivery_burn"));
    }

    /// The tentpole determinism property at unit scale: analyzing the
    /// recorder online and replaying its exported JSONL offline yield
    /// byte-identical incident reports.
    #[test]
    fn online_equals_offline_jsonl_replay() {
        let rec = storm_recorder();
        let cfg = HealthConfig::default();
        let online = HealthAggregator::scope_from_recorder("cell", &cfg, &rec);
        let offline =
            HealthAggregator::scope_from_jsonl("cell", &cfg, &rec.export_jsonl()).expect("parses");
        let mut a = HealthReport::new();
        a.push_scope(online);
        let mut b = HealthReport::new();
        b.push_scope(offline);
        assert_eq!(a.serialize(), b.serialize());
    }

    #[test]
    fn ring_eviction_stays_consistent_between_paths() {
        let rec = Recorder::with_capacity(8);
        for at in 0..64 {
            rec.event("link.retry", &[("hop", "1")], at);
        }
        let cfg = HealthConfig::default();
        let online = HealthAggregator::scope_from_recorder("s", &cfg, &rec);
        let offline =
            HealthAggregator::scope_from_jsonl("s", &cfg, &rec.export_jsonl()).expect("parses");
        assert_eq!(online, offline);
        assert_eq!(online.ring_dropped, 56);
        assert_eq!(online.events, 8, "only the surviving suffix is seen");
    }

    #[test]
    fn queue_pressure_degrades_routers() {
        let rec = Recorder::new();
        for at in 0..2 {
            rec.event("mesh.queue_high", &[("hop", "30")], at);
        }
        let scope = HealthAggregator::scope_from_recorder("s", &HealthConfig::default(), &rec);
        let router = &scope.entities[0];
        assert_eq!(router.entity, "router:30");
        assert_eq!(router.kind, "router");
        assert_eq!(router.state, HealthState::Degraded);
        assert!(
            scope.incidents.is_empty(),
            "degraded alone is not an incident"
        );
    }
}

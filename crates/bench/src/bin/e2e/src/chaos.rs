//! `chaos_health`: the path and mesh chaos campaigns with telemetry and
//! the health monitor on. Every cell runs under its own `Recorder` on the
//! `run_shards` pool, folds a health scope, and is absorbed into one
//! combined recorder and incident report in grid order — so every word
//! is spanned and the telemetry, health and harness plumbing all run.

use std::rc::Rc;
use std::time::Instant;

use socbus_chaos::campaign::{campaign_cells, FULL_WORDS, HOPS, SMOKE_WORDS};
use socbus_chaos::mesh::{
    build_mesh_case, mesh_cells, run_mesh_case_health, MeshCaseOutcome, MeshFamily,
    FULL_MESH_CYCLES, SMOKE_MESH_CYCLES,
};
use socbus_chaos::{build_case, protocol_for, run_case_with, CaseOutcome, ScheduleFamily};
use socbus_codes::Scheme;
use socbus_exec::{run_shards, shard_seed};
use socbus_telemetry::{
    HealthAggregator, HealthConfig, HealthReport, Recorder, ScopeReport, Telemetry,
};

use crate::mesh::digest_mesh;
use crate::trace::{Spans, Trace};
use crate::workload::{Fnv, Op, Round, Workload};

#[derive(Clone, Copy, Debug)]
enum Kind {
    Path(ScheduleFamily),
    Mesh(MeshFamily),
}

#[derive(Clone, Copy, Debug)]
struct Cell {
    scheme: Scheme,
    kind: Kind,
    /// The campaign's own grid seed, which fixes the fault schedule.
    schedule_seed: u64,
    /// Seeds the traffic and simulation streams.
    stream_seed: u64,
}

pub struct Chaos {
    cells: Vec<Cell>,
    words: u64,
    mesh_cycles: u64,
}

/// What a cell hands back to the merge.
type CellOut = (Op, ScopeReport, Recorder, Option<Trace>);

impl Chaos {
    /// The path grid then the mesh grid. Each cell keeps the campaign's
    /// schedule for its grid position; its traffic and simulation streams
    /// are seeded from `(seed, grid index)`. Smoke keeps every fourth
    /// cell, at the campaigns' own smoke lengths.
    #[must_use]
    pub fn new(seed: u64, smoke: bool) -> Self {
        let cells = campaign_cells(FULL_WORDS)
            .into_iter()
            .map(|(s, f, g)| (s, Kind::Path(f), g))
            .chain(
                mesh_cells()
                    .into_iter()
                    .map(|(s, f, g)| (s, Kind::Mesh(f), g)),
            )
            .enumerate()
            .step_by(if smoke { 4 } else { 1 })
            .map(|(g, (scheme, kind, schedule_seed))| Cell {
                scheme,
                kind,
                schedule_seed,
                stream_seed: shard_seed(seed, g as u64),
            })
            .collect();
        Chaos {
            cells,
            words: if smoke { SMOKE_WORDS } else { FULL_WORDS },
            mesh_cycles: if smoke {
                SMOKE_MESH_CYCLES
            } else {
                FULL_MESH_CYCLES
            },
        }
    }

    /// The cell's case, with the protocol fixed per scheme so the seed
    /// changes only random streams.
    fn cell(&self, c: &Cell, round: u64, traced: bool) -> CellOut {
        let mut spans = Spans::new(traced);
        let health_cfg = HealthConfig::default();
        let (op, scope, rec) = match c.kind {
            Kind::Path(family) => {
                let mut cfg = build_case(c.scheme, family, c.schedule_seed, self.words, HOPS);
                cfg.protocol = protocol_for(c.scheme, 1);
                cfg.sim_seed = c.stream_seed;
                cfg.traffic_seed = c.stream_seed ^ 0xA5A5;
                spans.mark("chaos.build");
                let rec = Rc::new(Recorder::new());
                let out = run_case_with(&cfg, Telemetry::from_recorder(&rec));
                spans.mark("chaos.path_run");
                let scope = HealthAggregator::scope_from_recorder(&cfg.name, &health_cfg, &rec);
                spans.mark("health.fold");
                let rec = Rc::try_unwrap(rec)
                    .ok()
                    .expect("run_case_with released every telemetry handle");
                spans.add("chaos.path_cells", 1.0);
                spans.add("chaos.violations", out.violations.len() as f64);
                (path_op(&cfg.name, &out), scope, rec)
            }
            Kind::Mesh(family) => {
                let mut cfg = build_mesh_case(c.scheme, family, c.schedule_seed, self.mesh_cycles);
                cfg.protocol = protocol_for(c.scheme, 1);
                cfg.sim_seed = c.stream_seed;
                cfg.traffic_seed = c.stream_seed ^ 0xA5A5;
                spans.mark("chaos.build");
                let (out, scope, rec) = run_mesh_case_health(&cfg, &health_cfg);
                spans.mark("chaos.mesh_run");
                spans.add("chaos.mesh_cells", 1.0);
                spans.add("chaos.violations", out.violations.len() as f64);
                (mesh_op(&cfg.name, &out), scope, rec)
            }
        };
        let ring = rec.ring_stats();
        spans.add(
            "telemetry.records",
            ring.recorded as f64 + ring.dropped as f64,
        );
        spans.add("telemetry.drops", ring.dropped as f64);
        spans.mark("check");
        let trace = spans.finish(&op.label, round, true);
        (op, scope, rec, trace)
    }
}

fn path_op(name: &str, out: &CaseOutcome) -> Op {
    let mut h = Fnv::default();
    let r = &out.report;
    for v in [
        out.violations.len() as u64,
        out.worst_word_cycles,
        out.budget_cycles,
        r.offered,
        r.end_to_end_errors,
        r.cycles,
    ] {
        h.u64(v);
    }
    h.f64(r.energy.self_coeff);
    h.f64(r.energy.coupling_coeff);
    for hop in &r.per_hop {
        h.link(hop);
    }
    Op {
        label: name.to_owned(),
        digest: h.0,
        broken: out
            .violations
            .first()
            .map(|v| format!("{} violation(s), first: {}", out.violations.len(), v.detail)),
    }
}

fn mesh_op(name: &str, out: &MeshCaseOutcome) -> Op {
    let mut h = Fnv::default();
    h.u64(out.violations.len() as u64);
    digest_mesh(&mut h, &out.report);
    let r = &out.report;
    let broken = if let Some(v) = out.violations.first() {
        Some(format!(
            "{} violation(s), first: {}",
            out.violations.len(),
            v.detail
        ))
    } else if r.injected != r.delivered + r.flagged_lost {
        Some(format!(
            "injected {} != delivered {} + flagged lost {}",
            r.injected, r.delivered, r.flagged_lost
        ))
    } else {
        None
    };
    Op {
        label: name.to_owned(),
        digest: h.0,
        broken,
    }
}

impl Workload for Chaos {
    fn item(&self) -> &'static str {
        "cells"
    }

    fn setup(&self) {
        for c in &self.cells {
            match c.kind {
                Kind::Path(family) => {
                    std::hint::black_box(build_case(
                        c.scheme,
                        family,
                        c.schedule_seed,
                        self.words,
                        HOPS,
                    ));
                }
                Kind::Mesh(family) => {
                    std::hint::black_box(build_mesh_case(
                        c.scheme,
                        family,
                        c.schedule_seed,
                        self.mesh_cycles,
                    ));
                }
            }
        }
    }

    fn round(&self, threads: usize, round: u64, traced: bool) -> Round {
        let t = Instant::now();
        let cells = run_shards(threads, &self.cells, |_, c| self.cell(c, round, traced));
        let pool_ns = t.elapsed().as_nanos() as f64;
        let mut trace = traced.then(Trace::default);
        let mut spans = Spans::new(traced);
        let combined = Recorder::new();
        let mut health = HealthReport::new();
        let mut ops = Vec::with_capacity(cells.len());
        for (op, scope, rec, cell_trace) in cells {
            combined.absorb(&rec);
            spans.mark("telemetry.absorb");
            health.push_scope(scope);
            ops.push(op);
            if let (Some(all), Some(t)) = (&mut trace, cell_trace) {
                all.merge(t);
            }
            spans.mark("chaos.merge");
        }
        let report = health.serialize();
        spans.mark("health.serialize");
        let mut out = Round::new(ops, self.cells.len() as u64, report.as_bytes(), None);
        spans.mark("check");
        if let (Some(all), Some(t)) = (&mut trace, spans.finish("merge", round, false)) {
            all.pool(threads.max(1).min(self.cells.len().max(1)), pool_ns);
            all.merge(t);
        }
        out.trace = trace;
        out
    }
}

//! `mesh_8x8`: an 8×8 `MeshSim` under uniform traffic, stepped cycle by
//! cycle, for six schemes from bare wires to the heaviest joint code —
//! routing, queues, end-to-end retransmission and a full `LinkEngine` per
//! hop, with telemetry off.
//!
//! Traffic is open-loop in simulated time (every node injects with
//! probability `RATE` per cycle); the benchmark steps the simulator as
//! fast as it goes, so host time is closed-loop.

use std::sync::OnceLock;

use socbus_chaos::protocol_for;
use socbus_codes::Scheme;
use socbus_exec::shard_seed;
use socbus_noc::link::LinkConfig;
use socbus_noc::mesh::{mesh_node_seed, MeshConfig, MeshReport, MeshSim};
use socbus_noc::UniformTraffic;

use crate::trace::{allocs, Spans, Trace};
use crate::workload::{probe_codec, record_probes, Fnv, Op, Round, Workload, EPS, K};

const SIDE: usize = 8;
/// Per-node injection probability per simulated cycle.
const RATE: f64 = 0.4;
/// Injection cycles per scheme per round.
const CYCLES: u64 = 1_200;
const SMOKE_CYCLES: u64 = 120;
/// Drain budget after injection stops; a run still busy after it fails.
const DRAIN_LIMIT: u64 = 20_000;
/// Words per scheme in the scalar-codec probe.
const PROBE_WORDS: usize = 4_096;

/// Bare wires, a low-power code, the plain ECC, the two crosstalk-aware
/// ECCs, and the heaviest joint code: the codec's share of a hop spans
/// its whole range across these.
const SCHEMES: [Scheme; 6] = [
    Scheme::Uncoded,
    Scheme::BusInvert(1),
    Scheme::Hamming,
    Scheme::Dap,
    Scheme::Bsc,
    Scheme::FtcHc,
];

pub struct Mesh {
    cycles: u64,
    seed: u64,
    /// Per-scheme encode + transmit + decode cost per attempt, once probed.
    probe: OnceLock<Vec<f64>>,
}

fn config(scheme: Scheme) -> MeshConfig {
    let link = LinkConfig::new(scheme, K, EPS).with_protocol(protocol_for(scheme, 1));
    MeshConfig::new(SIDE, SIDE, link).with_rate(RATE)
}

impl Mesh {
    #[must_use]
    pub fn new(seed: u64, smoke: bool) -> Self {
        Mesh {
            cycles: if smoke { SMOKE_CYCLES } else { CYCLES },
            seed,
            probe: OnceLock::new(),
        }
    }

    fn sim_seed(&self, i: usize) -> u64 {
        shard_seed(self.seed, 2 * i as u64)
    }

    fn traffic_seed(&self, i: usize) -> u64 {
        shard_seed(self.seed, 2 * i as u64 + 1)
    }

    fn run(&self, i: usize, scheme: Scheme, round: u64, traced: bool) -> (Op, u64, Option<Trace>) {
        let mut spans = Spans::new(traced);
        let mut sim = MeshSim::new(&config(scheme), self.sim_seed(i), self.traffic_seed(i));
        spans.mark("mesh.build");
        let (mut cycle, mut hops, mut waited, mut retries, mut attempts, mut step_allocs) =
            (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
        while cycle < self.cycles || (!sim.idle() && cycle < self.cycles + DRAIN_LIMIT) {
            let before = allocs();
            let report = sim.step(cycle < self.cycles);
            step_allocs += allocs() - before;
            spans.mark_sampled("mesh.step", "mesh.step_ns", 1.0);
            hops += report.transfers.len() as u64;
            for t in &report.transfers {
                waited += t.waited;
                retries += u64::from(t.trace.retries);
                attempts += u64::from(t.trace.attempts);
            }
            cycle += 1;
            drop(report);
            spans.mark("mesh.report");
        }
        let drained = sim.idle();
        let report = sim.finish();
        spans.mark("mesh.finish");
        spans.add("mesh.cycles", cycle as f64);
        spans.add("mesh.hops", hops as f64);
        spans.add("mesh.wait_cycles", waited as f64);
        spans.add("mesh.retries", retries as f64);
        spans.add("mesh.allocs", step_allocs as f64);
        if let Some(cost) = self.probe.get() {
            spans.add("mesh.codec_est_ns", attempts as f64 * cost[i]);
        }
        let op = op(scheme, &report, hops, drained);
        spans.mark("check");
        let trace = spans.finish(&op.label, round, false);
        (op, hops, trace)
    }
}

fn op(scheme: Scheme, r: &MeshReport, hops: u64, drained: bool) -> Op {
    let mut h = Fnv::default();
    h.u64(hops);
    digest_mesh(&mut h, r);
    let link_words: u64 = r.links.iter().map(|l| l.ledger.total()).sum();
    let broken = if !drained {
        Some(format!(
            "still busy {DRAIN_LIMIT} cycles after injection stopped"
        ))
    } else if r.injected != r.delivered + r.flagged_lost {
        Some(format!(
            "injected {} != delivered {} + flagged lost {}",
            r.injected, r.delivered, r.flagged_lost
        ))
    } else if link_words != hops {
        Some(format!(
            "link ledgers hold {link_words} words for {hops} flit-hops"
        ))
    } else {
        None
    };
    Op {
        label: scheme.name(),
        digest: h.0,
        broken,
    }
}

/// Every simulated field of a mesh report.
pub fn digest_mesh(h: &mut Fnv, r: &MeshReport) {
    for v in [
        r.injected,
        r.delivered,
        r.flagged_lost,
        r.duplicates,
        r.delivered_corrupt,
        r.e2e_retransmits,
        r.dropped_poisoned,
        r.dropped_no_route,
        r.cycles,
        r.max_waited,
        r.links_down as u64,
    ] {
        h.u64(v);
    }
    for (&latency, &n) in &r.latency_hist {
        h.u64(latency);
        h.u64(n);
    }
    for link in &r.links {
        h.link(link);
    }
}

impl Workload for Mesh {
    fn item(&self) -> &'static str {
        "flit-hops"
    }

    fn setup(&self) {
        for (i, &scheme) in SCHEMES.iter().enumerate() {
            std::hint::black_box(MeshSim::new(
                &config(scheme),
                self.sim_seed(i),
                self.traffic_seed(i),
            ));
        }
    }

    fn round(&self, _threads: usize, round: u64, traced: bool) -> Round {
        let mut trace = traced.then(Trace::default);
        let mut ops = Vec::with_capacity(SCHEMES.len());
        let mut hops = 0;
        for (i, &scheme) in SCHEMES.iter().enumerate() {
            let (op, h, t) = self.run(i, scheme, round, traced);
            ops.push(op);
            hops += h;
            if let (Some(all), Some(t)) = (&mut trace, t) {
                all.merge(t);
            }
        }
        Round::new(ops, hops, &[], trace)
    }

    fn probe(&self, trace: &mut Trace) {
        let costs: Vec<[f64; 3]> = SCHEMES
            .iter()
            .enumerate()
            .map(|(i, &scheme)| {
                // Node 0's payload stream, as the simulator draws it.
                let words: Vec<_> =
                    UniformTraffic::new(K, mesh_node_seed(self.traffic_seed(i), 0) ^ 0xA5A5)
                        .take(PROBE_WORDS)
                        .collect();
                let faults = config(scheme).link.fault_stack();
                probe_codec(scheme, &faults, self.sim_seed(i), &words)
            })
            .collect();
        let _ = self.probe.set(record_probes(trace, &costs));
    }
}

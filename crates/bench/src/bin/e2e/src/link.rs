//! `link_arq`: one `LinkEngine` per catalog scheme carrying a uniform word
//! stream through i.i.d. noise plus Gilbert–Elliott bursts, with the
//! scheme's ARQ protocol and the degradation ladder armed — the scalar
//! codec, fault injector and ARQ path every link, path, mesh and chaos
//! run sits on, one word at a time.

use std::sync::OnceLock;

use socbus_channel::FaultSpec;
use socbus_chaos::cli::mayhem_ladder;
use socbus_chaos::protocol_for;
use socbus_codes::Scheme;
use socbus_exec::shard_seed;
use socbus_noc::link::{LinkConfig, LinkEngine, LinkReport};
use socbus_noc::UniformTraffic;

use crate::trace::{Spans, Trace};
use crate::workload::{probe_codec, record_probes, Fnv, Op, Round, Workload, EPS, K};

/// Words per scheme per round.
const WORDS: u64 = 65_536;
const SMOKE_WORDS: u64 = 8_192;
/// Words drawn from the generator at a time; one `link.transfer` span
/// covers a chunk.
const CHUNK: usize = 4_096;

pub struct Link {
    schemes: Vec<Scheme>,
    words: u64,
    seed: u64,
    /// Per-scheme encode + transmit + decode cost per attempt, once probed.
    probe: OnceLock<Vec<f64>>,
}

fn config(scheme: Scheme) -> LinkConfig {
    LinkConfig::new(scheme, K, EPS)
        .with_protocol(protocol_for(scheme, 1))
        .with_fault(FaultSpec::Burst {
            eps_good: 1e-4,
            eps_bad: 0.05,
            p_enter: 0.01,
            p_exit: 0.2,
        })
        .with_degradation(mayhem_ladder())
}

impl Link {
    #[must_use]
    pub fn new(seed: u64, smoke: bool) -> Self {
        Link {
            schemes: Scheme::catalog(),
            words: if smoke { SMOKE_WORDS } else { WORDS },
            seed,
            probe: OnceLock::new(),
        }
    }

    fn engine_seed(&self, i: usize) -> u64 {
        shard_seed(self.seed, 2 * i as u64)
    }

    fn traffic_seed(&self, i: usize) -> u64 {
        shard_seed(self.seed, 2 * i as u64 + 1)
    }

    fn stream(&self, i: usize, scheme: Scheme, round: u64, traced: bool) -> (Op, Option<Trace>) {
        let mut spans = Spans::new(traced);
        let mut engine = LinkEngine::new(&config(scheme), &[], self.engine_seed(i));
        let mut traffic = UniformTraffic::new(K, self.traffic_seed(i));
        let mut report = LinkReport::default();
        let mut attempts = 0u64;
        let mut chunk = Vec::with_capacity(CHUNK);
        spans.mark("link.build");
        let mut left = self.words;
        while left > 0 {
            let n = usize::try_from(left.min(CHUNK as u64)).expect("n <= CHUNK");
            chunk.clear();
            chunk.extend(traffic.by_ref().take(n));
            spans.mark("traffic");
            for &data in &chunk {
                report.offered += 1;
                let trace = engine.transfer_traced(data, &mut report);
                report.delivered += 1;
                if trace.delivered != data {
                    report.residual_errors += 1;
                }
                attempts += u64::from(trace.attempts);
            }
            spans.mark_sampled("link.transfer", "link.transfer_ns_per_word", n as f64);
            left -= n as u64;
        }
        let words = self.words as f64;
        spans.add("traffic.words", words);
        spans.add("link.words", words);
        spans.add("link.attempts", attempts as f64);
        spans.add("link.retransmits", report.retransmits as f64);
        spans.add("link.residual", report.residual_errors as f64);
        if let Some(cost) = self.probe.get() {
            spans.add("link.codec_est_ns", attempts as f64 * cost[i]);
        }
        let op = self.op(scheme, &report, attempts);
        spans.mark("check");
        let trace = spans.finish(&op.label, round, false);
        (op, trace)
    }

    fn op(&self, scheme: Scheme, r: &LinkReport, attempts: u64) -> Op {
        let mut h = Fnv::default();
        h.link(r);
        h.u64(attempts);
        let n = self.words;
        let broken = if r.offered != n || r.delivered != n || r.ledger.total() != n {
            Some(format!(
                "ledger does not conserve {n} words: offered {} delivered {} ledger {:?}",
                r.offered, r.delivered, r.ledger
            ))
        } else if r.ledger.residual != r.residual_errors {
            Some(format!(
                "ledger residual {} != residual errors {}",
                r.ledger.residual, r.residual_errors
            ))
        } else if attempts != n + r.retransmits {
            Some(format!(
                "{attempts} attempts != {n} words + {} retransmits",
                r.retransmits
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
}

impl Workload for Link {
    fn item(&self) -> &'static str {
        "words"
    }

    fn setup(&self) {
        for (i, &scheme) in self.schemes.iter().enumerate() {
            std::hint::black_box((
                LinkEngine::new(&config(scheme), &[], self.engine_seed(i)),
                UniformTraffic::new(K, self.traffic_seed(i)),
            ));
        }
    }

    fn round(&self, _threads: usize, round: u64, traced: bool) -> Round {
        let mut trace = traced.then(Trace::default);
        let mut ops = Vec::with_capacity(self.schemes.len());
        for (i, &scheme) in self.schemes.iter().enumerate() {
            let (op, t) = self.stream(i, scheme, round, traced);
            ops.push(op);
            if let (Some(all), Some(t)) = (&mut trace, t) {
                all.merge(t);
            }
        }
        Round::new(ops, self.words * self.schemes.len() as u64, &[], trace)
    }

    fn probe(&self, trace: &mut Trace) {
        let costs: Vec<[f64; 3]> = self
            .schemes
            .iter()
            .enumerate()
            .map(|(i, &scheme)| {
                let words: Vec<_> = UniformTraffic::new(K, self.traffic_seed(i))
                    .take(CHUNK)
                    .collect();
                probe_codec(
                    scheme,
                    &config(scheme).fault_stack(),
                    self.engine_seed(i),
                    &words,
                )
            })
            .collect();
        let _ = self.probe.set(record_probes(trace, &costs));
    }
}

//! What every workload shares: the round and op types, output digests,
//! and the scalar-codec probe.
//!
//! A workload is a fixed batch of ops (a *round*) that the benchmark
//! reruns, closed-loop, until the measuring time is up. Every round of a
//! run is built from the same seed, so all rounds do the same work and
//! must produce the same outputs: round 0 is the reference every later
//! round is checked against.

use std::hint::black_box;
use std::time::Instant;

use socbus_channel::{FaultInjector, FaultSpec};
use socbus_codes::Scheme;
use socbus_model::Word;
use socbus_noc::link::LinkReport;

use crate::trace::Trace;

/// Data bits per word in every workload.
pub const K: usize = 16;
/// Baseline per-wire flip probability in every workload.
pub const EPS: f64 = 1e-3;

/// FNV-1a (64-bit) over the bytes fed to it.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Every simulated field of a link report.
    pub fn link(&mut self, r: &LinkReport) {
        for v in [
            r.offered,
            r.delivered,
            r.residual_errors,
            r.detected_residuals,
            r.cycles,
            r.retransmits,
            r.corrected,
            r.detected,
            r.ledger.clean,
            r.ledger.corrected_masked,
            r.ledger.retry_masked,
            r.ledger.residual,
            r.transitions.len() as u64,
            r.control.len() as u64,
        ] {
            self.u64(v);
        }
        for t in &r.transitions {
            self.u64(t.at_word);
            self.u64(u64::from(t.forced) | u64::from(t.promoted) << 1);
        }
        self.f64(r.energy.self_coeff);
        self.f64(r.energy.coupling_coeff);
    }
}

/// One unit of work: a scheme estimate, a link stream, a mesh run or a
/// chaos cell.
#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    pub label: String,
    /// Digest of the op's simulated output.
    pub digest: u64,
    /// Why the output breaks an invariant, if it does.
    pub broken: Option<String>,
}

/// What one round produced.
#[derive(Debug)]
pub struct Round {
    pub ops: Vec<Op>,
    /// Units of work done: what `throughput` counts.
    pub items: u64,
    /// Digest of the whole round's output.
    pub digest: u64,
    /// Spans and counts, when the round was traced.
    pub trace: Option<Trace>,
}

impl Round {
    /// A round whose digest covers its ops' digests plus `extra` (output
    /// that belongs to the round rather than one op).
    #[must_use]
    pub fn new(ops: Vec<Op>, items: u64, extra: &[u8], trace: Option<Trace>) -> Round {
        let mut h = Fnv::default();
        for op in &ops {
            h.str(&op.label);
            h.u64(op.digest);
        }
        h.bytes(extra);
        Round {
            ops,
            items,
            digest: h.0,
            trace,
        }
    }
}

/// A benchmark workload.
pub trait Workload {
    /// The unit `throughput` counts.
    fn item(&self) -> &'static str;

    /// Builds what one round builds before its first library call (the
    /// configurations, codecs, engines and simulators), then drops it.
    fn setup(&self);

    /// Runs one round; `traced` turns the span clocks on.
    fn round(&self, threads: usize, round: u64, traced: bool) -> Round;

    /// Times the scalar codec and fault injector calls on the workload's
    /// own word stream, before a traced run.
    fn probe(&self, _trace: &mut Trace) {}

    /// Checks made once per run outside the timed rounds, given round 0:
    /// `(op index, reason)` for every op they find broken.
    fn check_once(&self, _threads: usize, _first: &Round) -> Vec<(usize, String)> {
        Vec::new()
    }
}

/// Nanoseconds per call of a scheme's scalar encoder, fault injector and
/// checked decoder over `words`, each timed as one batch.
#[must_use]
pub fn probe_codec(scheme: Scheme, faults: &[FaultSpec], seed: u64, words: &[Word]) -> [f64; 3] {
    let mut enc = scheme.build(K);
    let mut dec = scheme.build(K);
    let mut injector = FaultInjector::new(faults, seed);
    let mut sent = Vec::with_capacity(words.len());
    let mut received = Vec::with_capacity(words.len());
    let t = Instant::now();
    for &w in words {
        sent.push(enc.encode(w));
    }
    let encode = t.elapsed();
    let t = Instant::now();
    for &w in &sent {
        received.push(injector.transmit(w));
    }
    let transmit = t.elapsed();
    let t = Instant::now();
    for &w in &received {
        black_box(dec.decode_checked(w));
    }
    let decode = t.elapsed();
    let n = words.len().max(1) as f64;
    [encode, transmit, decode].map(|d| d.as_nanos() as f64 / n)
}

/// Records the mean probe costs over a workload's schemes and returns
/// each scheme's encode + transmit + decode cost per attempt.
pub fn record_probes(trace: &mut Trace, costs: &[[f64; 3]]) -> Vec<f64> {
    let n = costs.len().max(1) as f64;
    for c in costs {
        trace.add("codes.scalar.encode_ns", c[0] / n);
        trace.add("channel.fault.transmit_ns", c[1] / n);
        trace.add("codes.scalar.decode_checked_ns", c[2] / n);
    }
    costs.iter().map(|c| c.iter().sum()).collect()
}

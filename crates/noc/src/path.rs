//! Multi-hop NoC paths: several coded links in series.
//!
//! In a network-on-chip, a packet typically crosses several router-to-
//! router links; each hop decodes (correcting what it can) and re-encodes.
//! Residual errors therefore *accumulate* across hops — the per-hop
//! reliability budget is the end-to-end target divided by the hop count,
//! which is exactly where the stronger codes of the unified framework pay
//! off on long paths.
//!
//! Every hop is its own **fault domain**: besides the shared link
//! configuration, individual hops can carry extra fault processes (a
//! stuck wire on hop 2, a droop window on hop 0, …) and the
//! [`PathReport`] keeps per-hop statistics, so a localized hard fault
//! shows up on the hop that owns it instead of vanishing into the
//! end-to-end aggregate.

use crate::link::{LinkConfig, LinkEngine, LinkReport, LinkTransition, WordTrace};
use socbus_channel::FaultSpec;
use socbus_model::{EnergyCoeff, Word};
use socbus_telemetry::Telemetry;

/// A path of identical coded links in series.
#[derive(Clone, Debug)]
pub struct PathConfig {
    /// Number of hops (links) between source and destination.
    pub hops: usize,
    /// Per-hop link configuration.
    pub link: LinkConfig,
    /// Extra fault processes bound to specific hops (hop index, spec) —
    /// the per-hop fault domains on top of `link.faults`.
    pub hop_faults: Vec<(usize, FaultSpec)>,
}

impl PathConfig {
    /// A path of `hops` identical links with no hop-local faults.
    #[must_use]
    pub fn new(hops: usize, link: LinkConfig) -> Self {
        PathConfig {
            hops,
            link,
            hop_faults: Vec::new(),
        }
    }

    /// Binds one more fault process to the given hop.
    ///
    /// # Panics
    ///
    /// Panics if `hop` is out of range.
    #[must_use]
    pub fn with_hop_fault(mut self, hop: usize, fault: FaultSpec) -> Self {
        assert!(hop < self.hops, "hop {hop} out of range");
        self.hop_faults.push((hop, fault));
        self
    }
}

/// End-to-end statistics of a path run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PathReport {
    /// Words offered at the source.
    pub offered: u64,
    /// Words arriving at the destination with wrong payload.
    pub end_to_end_errors: u64,
    /// Total bus cycles across all hops (including retransmissions).
    pub cycles: u64,
    /// Total wire-energy coefficient across all hops.
    pub energy: EnergyCoeff,
    /// Per-hop link statistics; `per_hop[h].residual_errors` counts words
    /// leaving hop `h` different from what entered it.
    pub per_hop: Vec<LinkReport>,
}

impl PathReport {
    /// End-to-end residual word-error rate.
    #[must_use]
    pub fn residual_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.end_to_end_errors as f64 / self.offered as f64
        }
    }

    /// Average cycles per delivered word across the whole path (with
    /// per-hop store-and-forward this is also the per-word latency).
    #[must_use]
    pub fn cycles_per_word(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.cycles as f64 / self.offered as f64
        }
    }

    /// The hop with the worst per-hop residual rate, as
    /// `(hop index, rate)` — the fault-domain view a NoC health monitor
    /// would act on. `None` on an empty report.
    #[must_use]
    pub fn worst_hop(&self) -> Option<(usize, f64)> {
        self.per_hop
            .iter()
            .enumerate()
            .map(|(h, r)| (h, r.residual_rate()))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// What one word did at one hop — the per-hop slice of a [`PathStep`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HopStep {
    /// The word the hop was asked to carry.
    pub entered: Word,
    /// The word the hop handed to the next hop (or the sink).
    pub exited: Word,
    /// The link-level trace of the transfer.
    pub trace: WordTrace,
}

/// Everything one source word did crossing the whole path.
#[derive(Clone, Debug, PartialEq)]
pub struct PathStep {
    /// The word delivered at the destination.
    pub delivered: Word,
    /// Whether the delivered word differs from the injected word.
    pub e2e_error: bool,
    /// Per-hop observations, hop 0 first.
    pub hops: Vec<HopStep>,
}

/// An incrementally driven multi-hop path simulation: the chaos harness's
/// hook into the NoC stack. Where [`simulate_path`] consumes a whole
/// traffic iterator, `PathSim` carries one word at a time ([`PathSim::
/// step`]), exposes each hop's [`LinkEngine`] between words (so fault
/// schedules can activate/deactivate fault processes mid-run), and
/// lends out per-word [`PathStep`] traces for online invariant monitors.
pub struct PathSim {
    engines: Vec<LinkEngine>,
    per_hop: Vec<LinkReport>,
    offered: u64,
    end_to_end_errors: u64,
    /// The last word's trace, refilled in place by every step.
    last: PathStep,
    tel: Telemetry,
    /// Path-level counter deltas batched since the last flush.
    tel_words: u64,
    tel_e2e: u64,
}

impl PathSim {
    /// Builds the per-hop engines exactly as [`simulate_path`] does (same
    /// per-hop seed derivation, so the two are interchangeable).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.hops == 0` or the scheme rejects the width.
    #[must_use]
    pub fn new(cfg: &PathConfig, seed: u64) -> Self {
        Self::new_with_telemetry(cfg, seed, Telemetry::off())
    }

    /// [`PathSim::new`] with a telemetry handle: each hop's engine (and
    /// its fault injector) reports on its own `hop` track, and path-level
    /// counters/events go to the control track. With the handle disabled
    /// this is exactly `new` — the engines are byte-identical.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.hops == 0` or the scheme rejects the width.
    #[must_use]
    pub fn new_with_telemetry(cfg: &PathConfig, seed: u64, tel: Telemetry) -> Self {
        assert!(cfg.hops >= 1, "need at least one hop");
        let engines: Vec<LinkEngine> = (0..cfg.hops)
            .map(|h| {
                let extra: Vec<FaultSpec> = cfg
                    .hop_faults
                    .iter()
                    .filter(|(hop, _)| *hop == h)
                    .map(|(_, spec)| spec.clone())
                    .collect();
                let mut engine = LinkEngine::new(
                    &cfg.link,
                    &extra,
                    seed ^ (h as u64).wrapping_mul(0x9E37_79B9),
                );
                if tel.is_enabled() {
                    engine.set_telemetry(tel.clone(), h);
                }
                engine
            })
            .collect();
        let per_hop = vec![LinkReport::default(); cfg.hops];
        PathSim {
            engines,
            per_hop,
            offered: 0,
            end_to_end_errors: 0,
            last: PathStep {
                delivered: Word::zero(cfg.link.data_bits),
                e2e_error: false,
                hops: Vec::with_capacity(cfg.hops),
            },
            tel,
            tel_words: 0,
            tel_e2e: 0,
        }
    }

    /// Emits every locally batched metric — each hop engine's (and its
    /// fault injector's) plus the path-level counters — and resets the
    /// batches. Called by [`PathSim::finish`]; drive it directly when
    /// reading the recorder mid-run. Safe to call repeatedly.
    pub fn flush_telemetry(&mut self) {
        for engine in &mut self.engines {
            engine.flush_telemetry();
        }
        if !self.tel.is_enabled() {
            return;
        }
        if self.tel_words > 0 {
            self.tel.counter("path.words", &[], self.tel_words);
            self.tel_words = 0;
        }
        if self.tel_e2e > 0 {
            self.tel.counter("path.e2e_errors", &[], self.tel_e2e);
            self.tel_e2e = 0;
        }
    }

    /// Number of hops.
    #[must_use]
    pub fn hops(&self) -> usize {
        self.engines.len()
    }

    /// Words carried so far.
    #[must_use]
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// The engine of one hop, for schedule-driven fault activation.
    ///
    /// # Panics
    ///
    /// Panics if `hop` is out of range.
    pub fn engine_mut(&mut self, hop: usize) -> &mut LinkEngine {
        &mut self.engines[hop]
    }

    /// The running per-hop report (accounting so far).
    ///
    /// # Panics
    ///
    /// Panics if `hop` is out of range.
    #[must_use]
    pub fn hop_report(&self, hop: usize) -> &LinkReport {
        &self.per_hop[hop]
    }

    /// Forces the next degradation-ladder rung on one hop, recording the
    /// transition in that hop's report. `None` if the ladder is absent or
    /// exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `hop` is out of range.
    pub fn force_degrade(&mut self, hop: usize) -> Option<LinkTransition> {
        self.engines[hop].force_degrade(&mut self.per_hop[hop])
    }

    /// Carries one word across every hop, updating all accounting, and
    /// returns the full trace, valid until the next step.
    pub fn step(&mut self, data: Word) -> &PathStep {
        self.offered += 1;
        let mut word = data;
        let hops = &mut self.last.hops;
        hops.clear();
        for (engine, hop_report) in self.engines.iter_mut().zip(self.per_hop.iter_mut()) {
            let entered = word;
            hop_report.offered += 1;
            let trace = engine.transfer_traced(entered, hop_report);
            hop_report.delivered += 1;
            word = trace.delivered;
            if word != entered {
                hop_report.residual_errors += 1;
            }
            hops.push(HopStep {
                entered,
                exited: word,
                trace,
            });
        }
        let e2e_error = word != data;
        if e2e_error {
            self.end_to_end_errors += 1;
        }
        if self.tel.is_enabled() {
            self.tel_words += 1;
            if e2e_error {
                self.tel_e2e += 1;
                // Word-count timestamp on the control track — end-to-end
                // errors are a path-level (word-domain) observation.
                self.tel.event("path.e2e_error", &[], self.offered);
            }
        }
        self.last.delivered = word;
        self.last.e2e_error = e2e_error;
        &self.last
    }

    /// Finalizes the run into a [`PathReport`] (aggregating cycles and
    /// energy across hops, exactly like [`simulate_path`]), flushing any
    /// batched telemetry first.
    #[must_use]
    pub fn finish(mut self) -> PathReport {
        self.flush_telemetry();
        let mut report = PathReport {
            offered: self.offered,
            end_to_end_errors: self.end_to_end_errors,
            ..PathReport::default()
        };
        for hop_report in &self.per_hop {
            report.cycles += hop_report.cycles;
            report.energy = report.energy.add(hop_report.energy);
        }
        report.per_hop = self.per_hop;
        report
    }
}

/// Simulates `traffic` across the multi-hop path.
///
/// # Panics
///
/// Panics if `hops == 0` or the scheme rejects the width.
pub fn simulate_path(
    cfg: &PathConfig,
    traffic: impl Iterator<Item = Word>,
    seed: u64,
) -> PathReport {
    let mut sim = PathSim::new(cfg, seed);
    for data in traffic {
        let _ = sim.step(data);
    }
    sim.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Protocol;
    use crate::traffic::UniformTraffic;
    use socbus_codes::Scheme;

    fn run(scheme: Scheme, hops: usize, eps: f64, n: usize) -> PathReport {
        let cfg = PathConfig::new(hops, LinkConfig::new(scheme, 8, eps));
        simulate_path(&cfg, UniformTraffic::new(8, 21).take(n), 77)
    }

    #[test]
    fn errors_accumulate_with_hop_count() {
        let eps = 4e-3;
        let one = run(Scheme::Uncoded, 1, eps, 40_000);
        let four = run(Scheme::Uncoded, 4, eps, 40_000);
        assert!(four.residual_rate() > 2.5 * one.residual_rate());
        assert_eq!(four.cycles, 4 * one.cycles);
    }

    #[test]
    fn per_hop_correction_keeps_long_paths_clean() {
        let eps = 4e-3;
        let unc = run(Scheme::Uncoded, 4, eps, 40_000);
        let dap = run(Scheme::Dap, 4, eps, 40_000);
        assert!(
            dap.residual_rate() < unc.residual_rate() / 10.0,
            "dap {} vs uncoded {}",
            dap.residual_rate(),
            unc.residual_rate()
        );
    }

    #[test]
    fn clean_path_is_transparent() {
        let r = run(Scheme::Bsc, 3, 0.0, 2_000);
        assert_eq!(r.end_to_end_errors, 0);
        assert_eq!(r.cycles_per_word(), 3.0);
        assert!(r.energy.total(2.8) > 0.0);
        assert_eq!(r.per_hop.len(), 3);
    }

    #[test]
    fn arq_per_hop_composes() {
        let cfg = PathConfig::new(
            3,
            LinkConfig::new(Scheme::Parity, 8, 5e-3).with_protocol(Protocol::DetectRetransmit {
                rtt_cycles: 2,
                max_retries: 4,
            }),
        );
        let arq = simulate_path(&cfg, UniformTraffic::new(8, 3).take(40_000), 5);
        let fec = run(Scheme::Parity, 3, 5e-3, 40_000);
        assert!(arq.residual_rate() < fec.residual_rate() / 3.0);
        assert!(arq.cycles_per_word() > 3.0);
    }

    /// Zero-word guard (ISSUE 2 satellite): empty path runs report 0.0
    /// rates, never NaN.
    #[test]
    fn zero_word_path_report_is_nan_free() {
        let cfg = PathConfig::new(2, LinkConfig::new(Scheme::Dap, 8, 1e-3));
        let r = simulate_path(&cfg, std::iter::empty(), 1);
        assert_eq!(r.offered, 0);
        assert_eq!(r.residual_rate(), 0.0);
        assert_eq!(r.cycles_per_word(), 0.0);
        assert!(!r.residual_rate().is_nan());
        assert!(!r.cycles_per_word().is_nan());
        let blank = PathReport::default();
        assert_eq!(blank.residual_rate(), 0.0);
        assert_eq!(blank.cycles_per_word(), 0.0);
        assert_eq!(blank.worst_hop(), None);
    }

    /// `PathSim::step` must agree word for word with `simulate_path`.
    #[test]
    fn path_sim_matches_batch_simulation() {
        let cfg = PathConfig::new(
            3,
            LinkConfig::new(Scheme::Parity, 8, 5e-3).with_protocol(Protocol::DetectRetransmit {
                rtt_cycles: 2,
                max_retries: 4,
            }),
        )
        .with_hop_fault(
            1,
            FaultSpec::StuckAt {
                wire: 2,
                value: true,
            },
        );
        let batch = simulate_path(&cfg, UniformTraffic::new(8, 3).take(5_000), 5);
        let mut sim = PathSim::new(&cfg, 5);
        for data in UniformTraffic::new(8, 3).take(5_000) {
            let step = sim.step(data);
            assert_eq!(step.hops.len(), 3);
            assert_eq!(step.hops[2].exited, step.delivered);
        }
        let incremental = sim.finish();
        assert_eq!(incremental, batch);
    }

    /// A stuck wire on hop 1 of an uncoded path must be charged to hop 1
    /// in the per-hop fault-domain stats, not smeared across the path.
    #[test]
    fn hop_fault_domain_is_attributed_to_its_hop() {
        let cfg = PathConfig::new(3, LinkConfig::new(Scheme::Uncoded, 8, 0.0)).with_hop_fault(
            1,
            FaultSpec::StuckAt {
                wire: 2,
                value: true,
            },
        );
        let r = simulate_path(&cfg, UniformTraffic::new(8, 33).take(4_000), 3);
        assert_eq!(r.per_hop.len(), 3);
        assert_eq!(r.per_hop[0].residual_errors, 0, "hop 0 is clean");
        assert_eq!(r.per_hop[2].residual_errors, 0, "hop 2 faithfully forwards");
        assert!(
            r.per_hop[1].residual_errors > 1_500,
            "hop 1 owns the damage: {}",
            r.per_hop[1].residual_errors
        );
        assert_eq!(r.end_to_end_errors, r.per_hop[1].residual_errors);
        assert_eq!(r.worst_hop().map(|(h, _)| h), Some(1));
    }

    /// With a correcting code, the same hop-local stuck wire is masked at
    /// hop 1 (visible as corrections there) and never reaches the sink.
    #[test]
    fn correcting_code_contains_the_faulty_hop() {
        let cfg = PathConfig::new(3, LinkConfig::new(Scheme::Dap, 8, 0.0)).with_hop_fault(
            1,
            FaultSpec::StuckAt {
                wire: 2,
                value: true,
            },
        );
        let r = simulate_path(&cfg, UniformTraffic::new(8, 33).take(4_000), 3);
        assert_eq!(r.end_to_end_errors, 0);
        assert_eq!(r.per_hop[1].residual_errors, 0);
        assert!(r.per_hop[1].corrected > 1_500, "hop 1 logs its corrections");
        assert_eq!(r.per_hop[0].corrected, 0);
        assert_eq!(r.per_hop[2].corrected, 0);
    }
}

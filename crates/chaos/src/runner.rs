//! The chaos case runner: one scheme, one path, one fault schedule.
//!
//! [`run_case`] interprets a [`FaultSchedule`] against a live
//! [`PathSim`], word by word, with the [`Monitor`] watching every trace.
//! Everything is keyed off the seeds in the [`CaseConfig`], so the same
//! config always produces the same outcome — the property the shrinker
//! and the replay format rely on.

use std::collections::HashMap;

use socbus_channel::FaultSpec;
use socbus_noc::link::{DegradationPolicy, LinkConfig, LinkEngine, Protocol};
use socbus_noc::traffic::UniformTraffic;
use socbus_noc::{ControlPolicy, PathConfig, PathReport, PathSim};
use socbus_telemetry::Telemetry;

use crate::monitor::{Invariant, InvariantKind, InvariantStats, Monitor, Violation};
use crate::schedule::{FaultSchedule, ScheduleAction};

/// Everything needed to (re)run one chaos case deterministically.
#[derive(Clone, Debug, PartialEq)]
pub struct CaseConfig {
    /// Display name (e.g. `"DAP/mixed_mayhem"`).
    pub name: String,
    /// Coding scheme on every hop.
    pub scheme: socbus_codes::Scheme,
    /// Data bits per word.
    pub data_bits: usize,
    /// Hops in the path.
    pub hops: usize,
    /// Baseline i.i.d. per-wire flip probability.
    pub eps: f64,
    /// Link protocol (also fixes the latency budget).
    pub protocol: Protocol,
    /// Optional degradation ladder on every hop.
    pub degradation: Option<DegradationPolicy>,
    /// Optional closed-loop DVS controller on every hop (mutually
    /// exclusive with `degradation`).
    pub controller: Option<ControlPolicy>,
    /// Words to carry.
    pub words: u64,
    /// Seed of the traffic generator.
    pub traffic_seed: u64,
    /// Seed of the path simulation (per-hop channels and activations).
    pub sim_seed: u64,
    /// The fault schedule to interpret.
    pub schedule: FaultSchedule,
}

impl CaseConfig {
    /// The path configuration this case runs over.
    #[must_use]
    pub fn path_config(&self) -> PathConfig {
        let mut link =
            LinkConfig::new(self.scheme, self.data_bits, self.eps).with_protocol(self.protocol);
        if let Some(policy) = &self.degradation {
            link = link.with_degradation(policy.clone());
        }
        if let Some(policy) = &self.controller {
            link = link.with_controller(policy.clone());
        }
        PathConfig::new(self.hops, link)
    }
}

/// What one chaos case produced.
#[derive(Clone, Debug)]
pub struct CaseOutcome {
    /// All invariant violations, in discovery order.
    pub violations: Vec<Violation>,
    /// The final path report.
    pub report: PathReport,
    /// Worst per-hop single-word latency observed (cycles).
    pub worst_word_cycles: u64,
    /// The protocol's worst-case single-word budget (cycles).
    pub budget_cycles: u64,
    /// Pass/fail tallies, one per [`InvariantKind`].
    pub stats: [(InvariantKind, InvariantStats); 5],
}

/// Runs one case to completion. Deterministic in the config.
///
/// # Panics
///
/// Panics if the scheme rejects the width, `hops == 0`, or a schedule
/// event targets an out-of-range hop.
#[must_use]
pub fn run_case(cfg: &CaseConfig) -> CaseOutcome {
    run_case_with(cfg, Telemetry::off())
}

/// [`run_case`] with a telemetry handle wired through the whole stack:
/// each hop's link engine and fault injector report on the hop's track,
/// the monitor reports verdict counters and violation events, and every
/// interpreted schedule event lands on the control track (word-domain
/// `at_hop` labels). `run_case(cfg)` is exactly
/// `run_case_with(cfg, Telemetry::off())`.
///
/// # Panics
///
/// Panics if the scheme rejects the width, `hops == 0`, or a schedule
/// event targets an out-of-range hop.
#[must_use]
pub fn run_case_with(cfg: &CaseConfig, tel: Telemetry) -> CaseOutcome {
    let mut sim = PathSim::new_with_telemetry(&cfg.path_config(), cfg.sim_seed, tel.clone());
    let mut monitor = Monitor::new(cfg.hops, cfg.protocol, cfg.degradation.clone());
    monitor.set_control(cfg.controller.clone(), cfg.data_bits);
    monitor.set_telemetry(tel.clone());
    // id -> (hop, slot) of the live activation for that handle.
    let mut live: HashMap<u32, (usize, usize)> = HashMap::new();
    let mut next_event = 0usize;
    let traffic = UniformTraffic::new(cfg.data_bits, cfg.traffic_seed).take(cfg.words as usize);
    for (word, data) in traffic.enumerate() {
        let word = word as u64;
        while next_event < cfg.schedule.events.len()
            && cfg.schedule.events[next_event].at_word <= word
        {
            let action = &cfg.schedule.events[next_event].action;
            apply_event(action, cfg.sim_seed, &mut sim, &mut live);
            emit_schedule_event(&tel, action, word);
            next_event += 1;
        }
        monitor.observe(word, sim.step(data));
    }
    let report = sim.finish();
    monitor.finish(&report);
    monitor.flush_telemetry();
    let stats = InvariantKind::ALL.map(|k| (k, monitor.stats(k)));
    CaseOutcome {
        worst_word_cycles: monitor.worst_word_cycles,
        budget_cycles: cfg.protocol.worst_case_word_cycles(),
        violations: monitor.into_violations(),
        report,
        stats,
    }
}

/// Reports one interpreted schedule event on the control track. The
/// timestamp is the word index (word-domain), and hops are named with
/// the `at_hop` label so these never land on a cycle-domain hop track.
fn emit_schedule_event(tel: &Telemetry, action: &ScheduleAction, word: u64) {
    if !tel.is_enabled() {
        return;
    }
    match action {
        ScheduleAction::Activate { hop, spec, .. } => {
            let hop_label = hop.to_string();
            let labels = [
                ("at_hop", hop_label.as_str()),
                ("fault_family", spec.family()),
            ];
            tel.event("schedule.activate", &labels, word);
            tel.counter("schedule.activations", &labels, 1);
        }
        ScheduleAction::Deactivate { id } => {
            let id_label = id.to_string();
            tel.event("schedule.deactivate", &[("id", id_label.as_str())], word);
        }
        ScheduleAction::ForceDegrade { hop } => {
            let hop_label = hop.to_string();
            tel.event(
                "schedule.force_degrade",
                &[("at_hop", hop_label.as_str())],
                word,
            );
        }
    }
}

/// Pushes `spec` onto `engine`'s injector as the activation `id` of a
/// run seeded `sim_seed` and returns its slot — the activation of both
/// harnesses' schedules.
pub(crate) fn activate(engine: &mut LinkEngine, spec: &FaultSpec, sim_seed: u64, id: u32) -> usize {
    // A droop window's `start` is relative to activation: pin it to this
    // link's event clock now (see ScheduleAction docs).
    let spec = match *spec {
        FaultSpec::Droop {
            eps,
            scale,
            start,
            duration,
        } => FaultSpec::Droop {
            eps,
            scale,
            start: engine.injector().cycles().saturating_add(start),
            duration,
        },
        ref other => other.clone(),
    };
    // The slot's seed mixes the sim seed with the event id (not the slot
    // index), so the same activation replays the same random stream even
    // after the shrinker removed its neighbours.
    let seed = sim_seed ^ (u64::from(id) + 1).wrapping_mul(0xD1B5_4A32_D192_ED03);
    let slot = engine.injector_mut().push_spec(&spec, seed);
    // Faults arriving after the link moved off nominal swing see the wire
    // as it is now, not as it was at reset: fold the current swing into
    // the new slot's soft-error rate.
    let swing = engine.swing();
    if swing != 1.0 {
        engine.injector_mut().rescale_swing_slot(slot, swing);
    }
    slot
}

fn apply_event(
    action: &ScheduleAction,
    sim_seed: u64,
    sim: &mut PathSim,
    live: &mut HashMap<u32, (usize, usize)>,
) {
    match action {
        ScheduleAction::Activate { id, hop, spec } => {
            let slot = activate(sim.engine_mut(*hop), spec, sim_seed, *id);
            live.insert(*id, (*hop, slot));
        }
        ScheduleAction::Deactivate { id } => {
            // Unknown ids are a no-op by contract (shrinker-safe).
            if let Some((hop, slot)) = live.remove(id) {
                sim.engine_mut(hop).injector_mut().set_enabled(slot, false);
            }
        }
        ScheduleAction::ForceDegrade { hop } => {
            let _ = sim.force_degrade(*hop);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{ScheduleEvent, ScheduleFamily, ScheduleParams};
    use socbus_codes::Scheme;

    fn base_case(scheme: Scheme, schedule: FaultSchedule) -> CaseConfig {
        CaseConfig {
            name: "test".into(),
            scheme,
            data_bits: 16,
            hops: 3,
            eps: 1e-3,
            protocol: Protocol::DetectRetransmit {
                rtt_cycles: 3,
                max_retries: 3,
            },
            degradation: None,
            controller: None,
            words: 1_500,
            traffic_seed: 11,
            sim_seed: 7,
            schedule,
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let params = ScheduleParams {
            words: 1_500,
            hops: 3,
            wires: Scheme::Dap.build(16).wires(),
        };
        let schedule = FaultSchedule::random(ScheduleFamily::MixedMayhem, &params, 9);
        let cfg = base_case(Scheme::Dap, schedule);
        let a = run_case(&cfg);
        let b = run_case(&cfg);
        assert_eq!(a.report, b.report);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.worst_word_cycles, b.worst_word_cycles);
    }

    #[test]
    fn honest_schemes_survive_every_family() {
        for scheme in [Scheme::Dap, Scheme::ExtHamming, Scheme::Parity] {
            let wires = scheme.build(16).wires();
            for family in ScheduleFamily::all() {
                let params = ScheduleParams {
                    words: 1_000,
                    hops: 3,
                    wires,
                };
                let schedule = FaultSchedule::random(family, &params, 3);
                let cfg = base_case(scheme, schedule);
                let out = run_case(&cfg);
                assert_eq!(
                    out.violations,
                    vec![],
                    "{scheme:?}/{family:?} must not violate: {:?}",
                    out.violations.first()
                );
                assert!(out.worst_word_cycles <= out.budget_cycles);
            }
        }
    }

    #[test]
    fn sabotaged_scheme_reproduces_by_key() {
        let schedule = FaultSchedule {
            events: vec![ScheduleEvent {
                at_word: 0,
                action: ScheduleAction::Activate {
                    id: 0,
                    hop: 0,
                    spec: FaultSpec::Iid { eps: 5e-3 },
                },
            }],
        };
        let mut cfg = base_case(Scheme::Sabotaged, schedule);
        cfg.eps = 0.0;
        cfg.protocol = Protocol::Fec;
        let out = run_case(&cfg);
        let v = out
            .violations
            .iter()
            .find(|v| v.kind == InvariantKind::SilentCorruption)
            .expect("the planted lie must trip the monitor");
        assert_eq!(v.site, Some(0));
        let replayed = crate::harness::first_violation(&cfg, v.key(), Telemetry::off());
        assert_eq!(replayed.as_ref(), Some(v));
    }

    #[test]
    fn deactivation_heals_the_link() {
        // A stuck-at window on an uncoded path: residuals accumulate only
        // while the window is open.
        let schedule = FaultSchedule {
            events: vec![
                ScheduleEvent {
                    at_word: 100,
                    action: ScheduleAction::Activate {
                        id: 0,
                        hop: 1,
                        spec: FaultSpec::StuckAt {
                            wire: 2,
                            value: true,
                        },
                    },
                },
                ScheduleEvent {
                    at_word: 300,
                    action: ScheduleAction::Deactivate { id: 0 },
                },
            ],
        };
        let mut cfg = base_case(Scheme::Uncoded, schedule);
        cfg.eps = 0.0;
        cfg.protocol = Protocol::Fec;
        let out = run_case(&cfg);
        assert_eq!(out.violations, vec![], "honest aliasing only");
        let hop1 = &out.report.per_hop[1];
        assert!(
            hop1.residual_errors > 50 && hop1.residual_errors <= 200,
            "damage confined to the 200-word window: {}",
            hop1.residual_errors
        );
        assert_eq!(out.report.per_hop[0].residual_errors, 0);
    }

    /// Telemetry pass-through: `run_case_with` an enabled recorder must
    /// produce the identical outcome as `run_case`, while the recorder
    /// picks up monitor verdicts and schedule events.
    #[test]
    fn traced_case_matches_plain_and_records() {
        use socbus_telemetry::Recorder;
        use std::rc::Rc;
        let params = ScheduleParams {
            words: 1_000,
            hops: 3,
            wires: Scheme::Dap.build(16).wires(),
        };
        let schedule = FaultSchedule::random(ScheduleFamily::MixedMayhem, &params, 9);
        let cfg = base_case(Scheme::Dap, schedule);
        let plain = run_case(&cfg);
        let recorder = Rc::new(Recorder::new());
        let traced = run_case_with(&cfg, Telemetry::from_recorder(&recorder));
        assert_eq!(plain.report, traced.report, "telemetry must not perturb");
        assert_eq!(plain.violations, traced.violations);
        let checks: u64 = InvariantKind::ALL
            .iter()
            .map(|k| recorder.counter_value("monitor.checks", &[("invariant", k.name())]))
            .sum();
        let expect: u64 = traced.stats.iter().map(|(_, s)| s.checked).sum();
        assert_eq!(checks, expect, "every verdict is counted");
        assert_eq!(
            recorder.counter_value("link.words", &[("scheme", "DAP"), ("hop", "0")]),
            cfg.words,
            "hop 0 engine reports on its own track"
        );
    }

    #[test]
    fn controlled_case_keeps_the_safe_state_under_every_family() {
        use socbus_noc::OperatingPoint;
        let policy = ControlPolicy {
            points: vec![
                OperatingPoint {
                    swing: 1.25,
                    scheme: Scheme::ExtHamming,
                },
                OperatingPoint {
                    swing: 1.0,
                    scheme: Scheme::ExtHamming,
                },
                OperatingPoint {
                    swing: 0.85,
                    scheme: Scheme::ExtHamming,
                },
            ],
            target_wer: 1e-2,
            window: 50,
            dwell: 2,
            lower_trouble: 0.05,
            raise_trouble: 0.2,
            storm_trouble: 0.4,
        };
        let wires = Scheme::ExtHamming.build(16).wires();
        let mut saw_transitions = false;
        for family in ScheduleFamily::all() {
            let params = ScheduleParams {
                words: 1_500,
                hops: 3,
                wires,
            };
            let schedule = FaultSchedule::random(family, &params, 5);
            let mut cfg = base_case(Scheme::ExtHamming, schedule);
            cfg.controller = Some(policy.clone());
            let out = run_case(&cfg);
            assert_eq!(
                out.violations,
                vec![],
                "{family:?} must not break the safe state: {:?}",
                out.violations.first()
            );
            let (kind, stats) = out.stats[4];
            assert_eq!(kind, InvariantKind::ControlSafeState);
            assert_eq!(stats.checked, 3, "one safe-state audit per hop");
            saw_transitions |= out.report.per_hop.iter().any(|l| !l.control.is_empty());
        }
        assert!(
            saw_transitions,
            "at least one family must drive the controller off its start point"
        );
    }

    #[test]
    fn unknown_deactivate_is_a_no_op() {
        let schedule = FaultSchedule {
            events: vec![ScheduleEvent {
                at_word: 10,
                action: ScheduleAction::Deactivate { id: 99 },
            }],
        };
        let cfg = base_case(Scheme::Dap, schedule);
        let clean = base_case(Scheme::Dap, FaultSchedule::default());
        assert_eq!(run_case(&cfg).report, run_case(&clean).report);
    }
}

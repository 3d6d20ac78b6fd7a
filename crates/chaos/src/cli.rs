//! The `chaos` command-line tool: run randomized cases, replay repros.
//!
//! ```text
//! chaos case <scheme> <family> <seed> [words] [hops]
//!     Run one randomized chaos case. On violation: shrink it and write
//!     a reproducer under results/repro/, then exit nonzero.
//! chaos replay <file>
//!     Re-run a reproducer file; exit 0 iff the recorded violation
//!     reproduces (byte-identical canonical form is re-checked first).
//!     Accepts both path (`socbus-chaos-repro v1`) and mesh
//!     (`socbus-mesh-repro v1`) files, dispatched on the header.
//! chaos run [--smoke] [--threads N] [--trace-out <path>]
//!           [--health-out <path>] [out]
//!     Run the whole soak campaign on the deterministic parallel engine
//!     (same implementation as the `soak` binary; the JSON is
//!     byte-identical for any thread count). `--health-out` folds every
//!     cell's stream through the health monitor and writes a
//!     `socbus-incident v1` report with one scope per cell.
//! chaos control [--smoke] [--threads N] [--trace-out <path>]
//!               [--health-out <path>] [out]
//!     Run the closed-loop controller campaign: every detecting scheme
//!     under every schedule family with a per-hop DVS controller, all
//!     five invariants armed (including control-safe-state).
//! chaos mesh [--smoke] [--threads N] [--trace-out <path>]
//!            [--health-out <path>] [out]
//!     Run the mesh campaign: every catalog scheme under every mesh
//!     fault family on a 3x3 mesh, the five mesh invariants armed
//!     (packet-conservation, reroute-delivers, bounded-progress,
//!     mesh-silent-corruption, health-consistent). Every cell runs
//!     under the health monitor and the campaign writes a
//!     `socbus-incident v1` timeline (`--health-out`, default
//!     `results/BENCH_mesh_chaos.health.json`). See [`crate::mesh`].
//! ```
//!
//! The logic lives here (not in `bin/chaos.rs`) so the root package can
//! re-export the same entry point and integration tests can drive it
//! without spawning processes.

use std::path::Path;
use std::rc::Rc;

use socbus_codes::Scheme;
use socbus_noc::link::{DegradationAction, DegradationPolicy, PromotePolicy, Protocol};
use socbus_noc::{ControlPolicy, OperatingPoint};
use socbus_telemetry::{HealthAggregator, HealthConfig, HealthReport, Recorder, Telemetry};

use crate::monitor::Violation;
use crate::replay::Repro;
use crate::runner::{run_case, run_case_with, CaseConfig};
use crate::schedule::{FaultSchedule, ScheduleFamily, ScheduleParams};
use crate::shrink::shrink;

/// Default words per CLI-driven case.
pub const DEFAULT_WORDS: u64 = 2_000;
/// Default hops per CLI-driven case.
pub const DEFAULT_HOPS: usize = 3;
/// Default data bits per word.
pub const DEFAULT_DATA_BITS: usize = 16;
/// Baseline i.i.d. ε under the schedule.
pub const DEFAULT_EPS: f64 = 1e-3;
/// Shrink budget (candidate re-runs).
pub const SHRINK_BUDGET: usize = 400;

/// Chooses a protocol that exercises the scheme's strengths: correcting
/// schemes alternate FEC and backoff-ARQ (by seed parity), detect-only
/// schemes get stop-and-wait retransmission, plain schemes run FEC.
#[must_use]
pub fn protocol_for(scheme: Scheme, seed: u64) -> Protocol {
    if scheme.corrects_errors() {
        if seed.is_multiple_of(2) {
            Protocol::Fec
        } else {
            Protocol::ArqBackoff {
                timeout_cycles: 3,
                backoff_base: 1,
                backoff_cap: 8,
                max_retries: 3,
            }
        }
    } else if scheme.detects_errors() {
        Protocol::DetectRetransmit {
            rtt_cycles: 3,
            max_retries: 3,
        }
    } else {
        Protocol::Fec
    }
}

/// The degradation ladder mixed-mayhem cases run with (other families
/// run ladder-free so force-degrade events stay no-ops). The recovery
/// clause re-promotes after four consecutive near-silent windows, so
/// soak campaigns exercise the full deploy/undo episode machinery.
#[must_use]
pub fn mayhem_ladder() -> DegradationPolicy {
    DegradationPolicy {
        window: 250,
        trigger: 0.25,
        ladder: vec![
            DegradationAction::RaiseSwing { factor: 1.3 },
            DegradationAction::SwitchScheme(Scheme::ExtHamming),
        ],
        promote: Some(PromotePolicy {
            quiet_windows: 4,
            trigger: 0.02,
        }),
    }
}

/// The operating-point ladder controller campaign cells run with:
/// a guard-banded ExtHamming safe state on top, then the cell's own
/// scheme at nominal and reduced swing. ExtHamming detects two errors —
/// at least as many as any detecting scheme in the catalog — so the
/// guarantee ladder is nonincreasing for every cell and the policy
/// always validates.
#[must_use]
pub fn control_policy_for(scheme: Scheme) -> ControlPolicy {
    ControlPolicy {
        points: vec![
            OperatingPoint {
                swing: 1.3,
                scheme: Scheme::ExtHamming,
            },
            OperatingPoint { swing: 1.0, scheme },
            OperatingPoint {
                swing: 0.85,
                scheme,
            },
        ],
        target_wer: 1e-2,
        window: 50,
        dwell: 2,
        lower_trouble: 0.05,
        raise_trouble: 0.2,
        storm_trouble: 0.4,
    }
}

/// Assembles the [`CaseConfig`] for one `(scheme, family, seed)` cell of
/// the campaign grid — the single source of truth shared by the CLI, the
/// soak bench, and the tests.
#[must_use]
pub fn build_case(
    scheme: Scheme,
    family: ScheduleFamily,
    seed: u64,
    words: u64,
    hops: usize,
) -> CaseConfig {
    let wires = scheme.build(DEFAULT_DATA_BITS).wires();
    let params = ScheduleParams { words, hops, wires };
    let schedule = FaultSchedule::random(family, &params, seed);
    CaseConfig {
        name: format!("{}/{}", scheme.name(), family.name()),
        scheme,
        data_bits: DEFAULT_DATA_BITS,
        hops,
        eps: DEFAULT_EPS,
        protocol: protocol_for(scheme, seed),
        degradation: (family == ScheduleFamily::MixedMayhem).then(mayhem_ladder),
        controller: None,
        words,
        traffic_seed: seed ^ 0xA5A5,
        sim_seed: seed,
        schedule,
    }
}

/// Assembles the closed-loop controller cell for one `(scheme, family,
/// seed)` — the same schedule grid as [`build_case`], but with a per-hop
/// DVS controller instead of a degradation ladder and a retransmitting
/// protocol (the controller's trouble signal needs retries or detected
/// words to observe).
///
/// # Panics
///
/// Panics if the scheme cannot detect errors (the controller has no
/// trouble signal to observe) or the policy fails to validate.
#[must_use]
pub fn build_control_case(
    scheme: Scheme,
    family: ScheduleFamily,
    seed: u64,
    words: u64,
    hops: usize,
) -> CaseConfig {
    assert!(
        scheme.detects_errors(),
        "controller cells need a detecting scheme, got {scheme:?}"
    );
    let policy = control_policy_for(scheme);
    policy
        .validate(DEFAULT_DATA_BITS)
        .expect("campaign control policy must validate");
    let mut cfg = build_case(scheme, family, seed, words, hops);
    cfg.name = format!("{}+ctl/{}", scheme.name(), family.name());
    cfg.protocol = Protocol::DetectRetransmit {
        rtt_cycles: 3,
        max_retries: 3,
    };
    cfg.degradation = None;
    cfg.controller = Some(policy);
    cfg
}

/// Shrinks a violating case and writes the reproducer file. Returns the
/// path written.
///
/// # Errors
///
/// Returns a message if shrinking fails to reproduce or the file cannot
/// be written.
pub fn write_repro(
    cfg: &CaseConfig,
    violation: &Violation,
    dir: &Path,
) -> Result<std::path::PathBuf, String> {
    let report = shrink(cfg, violation.key(), SHRINK_BUDGET)
        .ok_or_else(|| format!("case {} does not reproduce {violation:?}", cfg.name))?;
    let repro = Repro::new(report.case, &report.violation);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let file = dir.join(format!(
        "{}.txt",
        cfg.name.replace(['/', '(', ')', '+'], "_")
    ));
    std::fs::write(&file, repro.serialize())
        .map_err(|e| format!("write {}: {e}", file.display()))?;
    Ok(file)
}

/// Replays a reproducer file: parses it, re-checks the canonical form,
/// re-runs the case, and reports whether the recorded violation fired.
///
/// # Errors
///
/// Returns a message on parse failure; `Ok(None)` means the case ran but
/// the violation did *not* reproduce.
pub fn replay_text(text: &str) -> Result<Option<Violation>, String> {
    replay_text_with(text, Telemetry::off())
}

/// [`replay_text`] with a telemetry handle wired through the replayed
/// case (the `chaos replay` command uses this to produce a Perfetto
/// trace of every reproducer).
///
/// # Errors
///
/// Returns a message on parse failure; `Ok(None)` means the case ran but
/// the violation did *not* reproduce.
pub fn replay_text_with(text: &str, tel: Telemetry) -> Result<Option<Violation>, String> {
    let repro = Repro::parse(text)?;
    if repro.serialize() != text {
        return Err("file is not in canonical form (was it hand-edited?)".into());
    }
    let key = (repro.expect.kind, repro.expect.hop);
    Ok(run_case_with(&repro.case, tel)
        .violations
        .into_iter()
        .find(|v| v.key() == key))
}

/// The `chaos` binary's entry point. Returns the process exit code.
#[must_use]
pub fn main_with_args(args: &[String]) -> i32 {
    match args {
        [cmd, rest @ ..] if cmd == "run" => crate::campaign::campaign_main(rest),
        [cmd, rest @ ..] if cmd == "control" => crate::campaign::control_main(rest),
        [cmd, rest @ ..] if cmd == "mesh" => crate::mesh::mesh_main(rest),
        [cmd, file] if cmd == "replay" => {
            let text = match std::fs::read_to_string(file) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("chaos: cannot read {file}: {e}");
                    return 2;
                }
            };
            let recorder = Rc::new(Recorder::new());
            let tel = Telemetry::from_recorder(&recorder);
            // Mesh reproducers replay through the same subcommand,
            // dispatched on the header line.
            let mesh = text.starts_with("socbus-mesh-repro");
            let outcome = if mesh {
                crate::mesh::replay_mesh_text_with(&text, tel).map(|found| {
                    found.map(|v| {
                        let at = v.link.map_or_else(|| "e2e".into(), |l| l.to_string());
                        format!(
                            "{} at link {at} cycle {} — {}",
                            v.kind.name(),
                            v.cycle,
                            v.detail
                        )
                    })
                })
            } else {
                replay_text_with(&text, tel).map(|found| {
                    found.map(|v| {
                        let at = v.hop.map_or_else(|| "e2e".into(), |h| h.to_string());
                        format!(
                            "{} at hop {at} word {} — {}",
                            v.kind.name(),
                            v.word,
                            v.detail
                        )
                    })
                })
            };
            if outcome.is_ok() {
                // Every successfully parsed reproducer gets a Perfetto
                // trace next to it, reproduced or not — the trace of a
                // non-reproducing run is exactly what shows the fix. A
                // mesh replay also gets its health pass: an incident
                // report next to the repro, its counter tracks in the
                // trace.
                let mut health = HealthReport::new();
                if mesh {
                    health.push_scope(HealthAggregator::scope_from_recorder(
                        file,
                        &HealthConfig::default(),
                        &recorder,
                    ));
                    let health_path = format!("{file}.health.json");
                    match std::fs::write(&health_path, health.serialize()) {
                        Ok(()) => eprintln!("incident report written to {health_path}"),
                        Err(e) => eprintln!("chaos: cannot write {health_path}: {e}"),
                    }
                }
                let trace_path = format!("{file}.trace.json");
                let trace = recorder.export_chrome_trace_with_counters(&health.counter_samples());
                match std::fs::write(&trace_path, trace) {
                    Ok(()) => eprintln!("trace written to {trace_path} (load in ui.perfetto.dev)"),
                    Err(e) => eprintln!("chaos: cannot write {trace_path}: {e}"),
                }
            }
            match outcome {
                Ok(Some(found)) => {
                    println!("reproduced: {found}");
                    0
                }
                Ok(None) => {
                    println!("did NOT reproduce (the bug may be fixed)");
                    1
                }
                Err(e) => {
                    eprintln!("chaos: {e}");
                    2
                }
            }
        }
        [cmd, rest @ ..] if cmd == "case" && (3..=5).contains(&rest.len()) => {
            let Some(scheme) = Scheme::from_name(&rest[0]) else {
                eprintln!("chaos: unknown scheme {:?}", rest[0]);
                return 2;
            };
            let Some(family) = ScheduleFamily::from_name(&rest[1]) else {
                eprintln!("chaos: unknown family {:?}", rest[1]);
                return 2;
            };
            let Ok(seed) = rest[2].parse::<u64>() else {
                eprintln!("chaos: bad seed {:?}", rest[2]);
                return 2;
            };
            let words = rest
                .get(3)
                .and_then(|w| w.parse().ok())
                .unwrap_or(DEFAULT_WORDS);
            let hops = rest
                .get(4)
                .and_then(|h| h.parse().ok())
                .unwrap_or(DEFAULT_HOPS);
            let cfg = build_case(scheme, family, seed, words, hops);
            let out = run_case(&cfg);
            println!(
                "{}: {} words, worst latency {}/{} cycles, e2e residual {}, {} violation(s)",
                cfg.name,
                out.report.offered,
                out.worst_word_cycles,
                out.budget_cycles,
                out.report.end_to_end_errors,
                out.violations.len()
            );
            if let Some(v) = out.violations.first() {
                eprintln!("violation: {}", v.detail);
                match write_repro(&cfg, v, Path::new("results/repro")) {
                    Ok(file) => eprintln!("reproducer written to {}", file.display()),
                    Err(e) => eprintln!("chaos: shrink failed: {e}"),
                }
                return 1;
            }
            0
        }
        _ => {
            eprintln!(
                "usage:\n  chaos case <scheme> <family> <seed> [words] [hops]\n  \
                 chaos replay <file>\n  \
                 chaos run [--smoke] [--threads N] [--trace-out <path>] \
                 [--health-out <path>] [out]\n  \
                 chaos control [--smoke] [--threads N] [--trace-out <path>] \
                 [--health-out <path>] [out]\n  \
                 chaos mesh [--smoke] [--threads N] [--trace-out <path>] \
                 [--health-out <path>] [out]\n\n\
                 families: {}\nmesh families: {}",
                ScheduleFamily::all().map(|f| f.name()).join(", "),
                crate::mesh::MeshFamily::all().map(|f| f.name()).join(", ")
            );
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_grid_cases_are_deterministic() {
        let a = build_case(Scheme::Dap, ScheduleFamily::BurstTrain, 7, 500, 3);
        let b = build_case(Scheme::Dap, ScheduleFamily::BurstTrain, 7, 500, 3);
        assert_eq!(a, b);
        assert_eq!(a.name, "DAP/burst_train");
    }

    #[test]
    fn control_policies_validate_for_every_detecting_scheme() {
        for scheme in Scheme::detecting() {
            let cfg = build_control_case(scheme, ScheduleFamily::DroopStorm, 3, 400, 2);
            assert!(cfg.controller.is_some());
            assert!(cfg.degradation.is_none());
            assert!(cfg.name.contains("+ctl/"));
        }
    }

    #[test]
    fn protocols_match_the_scheme_class() {
        assert_eq!(protocol_for(Scheme::Uncoded, 0), Protocol::Fec);
        assert!(matches!(
            protocol_for(Scheme::Parity, 0),
            Protocol::DetectRetransmit { .. }
        ));
        assert_eq!(protocol_for(Scheme::Dap, 0), Protocol::Fec);
        assert!(matches!(
            protocol_for(Scheme::Dap, 1),
            Protocol::ArqBackoff { .. }
        ));
    }

    #[test]
    fn bad_usage_exits_2() {
        assert_eq!(main_with_args(&[]), 2);
        assert_eq!(
            main_with_args(&["replay".into(), "/no/such/file".into()]),
            2
        );
        assert_eq!(
            main_with_args(&[
                "case".into(),
                "Nope".into(),
                "burst_train".into(),
                "1".into()
            ]),
            2
        );
    }
}

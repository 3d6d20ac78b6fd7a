//! The `chaos` command-line tool: run randomized cases, replay repros.
//!
//! ```text
//! chaos case <scheme> <family> <seed> [words] [hops]
//!     Run one randomized chaos case (a bad argument or a hop count
//!     outside 1..=1024 exits 2). On violation: shrink it, write a
//!     reproducer under results/repro/ and replay it as `chaos replay`
//!     does, then exit nonzero.
//! chaos replay <file>
//!     Re-run a reproducer file; exit 0 iff the recorded violation
//!     reproduces (byte-identical canonical form is re-checked first).
//!     Accepts both path (`socbus-chaos-repro v1`) and mesh
//!     (`socbus-mesh-repro v1`) files, dispatched on the header. Writes
//!     `<file>.trace.json` (and, for a mesh, `<file>.health.json`). The
//!     campaigns below end the same way on a violation: their first
//!     violating cell is shrunk, written and replayed.
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

use socbus_codes::Scheme;
use socbus_noc::link::{DegradationAction, DegradationPolicy, PromotePolicy, Protocol};
use socbus_noc::{ControlPolicy, OperatingPoint};

use crate::harness::{replay, tail, Harness, REPRO_DIR};
use crate::runner::{run_case, CaseConfig};
use crate::schedule::{FaultSchedule, ScheduleFamily, ScheduleParams};

/// Default words per CLI-driven case.
pub const DEFAULT_WORDS: u64 = 2_000;
/// Default hops per CLI-driven case.
pub const DEFAULT_HOPS: usize = 3;
/// Default seed where a command makes it optional (`trace`).
const DEFAULT_SEED: u64 = 7;
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

/// Parses `<scheme> <family> [seed] [words] [hops]` — the arguments of
/// `chaos case` and `trace` — into a case checked as a repro file's is
/// ([`Harness::check`]): a missing seed is 7 (only `trace` may omit
/// it), missing words and hops are [`DEFAULT_WORDS`] and
/// [`DEFAULT_HOPS`].
///
/// # Errors
///
/// Returns a message naming the first argument that does not parse, or
/// the check's message (a hop count outside `1..=1024`).
pub fn parse_case(args: &[&str]) -> Result<CaseConfig, String> {
    fn num<T: std::str::FromStr>(arg: Option<&&str>, what: &str, default: T) -> Result<T, String> {
        arg.map_or(Ok(default), |s| {
            s.parse().map_err(|_| format!("bad {what} {s:?}"))
        })
    }
    let name = args.first().copied().unwrap_or_default();
    let scheme = Scheme::from_name(name).ok_or_else(|| format!("unknown scheme {name:?}"))?;
    let name = args.get(1).copied().unwrap_or_default();
    let family =
        ScheduleFamily::from_name(name).ok_or_else(|| format!("unknown family {name:?}"))?;
    let seed = num(args.get(2), "seed", DEFAULT_SEED)?;
    let words = num(args.get(3), "words", DEFAULT_WORDS)?;
    let hops = num(args.get(4), "hops", DEFAULT_HOPS)?;
    let case = build_case(scheme, family, seed, words, hops);
    case.check()?;
    Ok(case)
}

/// `chaos case`: runs one case and, on a violation, shrinks it, writes
/// the reproducer and replays it (the tail every chaos command shares).
fn case_main(args: &[&str]) -> i32 {
    let cfg = match parse_case(args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("chaos: {e}");
            return 2;
        }
    };
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
    match out.violations.first() {
        Some(v) => {
            tail("chaos case", &cfg, v, Path::new(REPRO_DIR));
            1
        }
        None => 0,
    }
}

/// The `chaos` binary's entry point. Returns the process exit code.
#[must_use]
pub fn main_with_args(args: &[String]) -> i32 {
    match args {
        [cmd, rest @ ..] if cmd == "run" => crate::campaign::campaign_main(rest),
        [cmd, rest @ ..] if cmd == "control" => crate::campaign::control_main(rest),
        [cmd, rest @ ..] if cmd == "mesh" => crate::mesh::mesh_main(rest),
        [cmd, file] if cmd == "replay" => replay(file),
        [cmd, rest @ ..] if cmd == "case" && (3..=5).contains(&rest.len()) => {
            case_main(&rest.iter().map(String::as_str).collect::<Vec<_>>())
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

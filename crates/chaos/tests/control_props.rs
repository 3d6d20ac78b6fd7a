//! Controller determinism and safe-state properties (ISSUE 6 satellite):
//! the closed-loop DVS controller's decision trace — the sequence of
//! `(swing, scheme)` operating points it walks through — is a pure
//! function of the seeds and the fault schedule, never of the worker
//! count executing the grid; and the safe-state contract holds for every
//! scheme in the paper's 17-entry catalog, detecting or not.

use proptest::prelude::*;
use socbus_chaos::runner::CaseOutcome;
use socbus_chaos::schedule::ScheduleFamily;
use socbus_chaos::HOPS;
use socbus_chaos::{
    build_case, build_control_case, control_policy_for, run_case, run_grid, InvariantKind, Observe,
    RunCtx,
};
use socbus_codes::Scheme;
use socbus_noc::link::Protocol;
use socbus_noc::{ControlCause, ControlPolicy};

/// Flattens one outcome's controller activity into a comparable decision
/// trace: for every hop and transition, the word it fired at, the cause,
/// the index walk, and the *operating point actually selected* (swing
/// bits and scheme name resolved through the policy ladder).
fn decision_trace(
    out: &CaseOutcome,
    policy: &ControlPolicy,
) -> Vec<(usize, u64, &'static str, usize, usize, u64, String)> {
    let mut trace = Vec::new();
    for (hop, report) in out.report.per_hop.iter().enumerate() {
        for t in &report.control {
            let point = &policy.points[t.to];
            trace.push((
                hop,
                t.at_word,
                t.cause.name(),
                t.from,
                t.to,
                point.swing.to_bits(),
                point.scheme.name(),
            ));
        }
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For a random detecting scheme and seed, running the same four
    /// controller cells (one per schedule family) on 1 and 8 threads
    /// yields byte-for-byte identical decision traces — same words,
    /// same causes, same `(swing, scheme)` selections — and each relax
    /// in the trace carries the safe-state evidence the monitor demands.
    #[test]
    fn decision_traces_are_thread_count_invariant(
        scheme_pick in any::<u64>(),
        seed in 1u64..10_000,
    ) {
        let schemes = Scheme::detecting();
        let scheme = schemes[(scheme_pick % schemes.len() as u64) as usize];
        let policy = control_policy_for(scheme);
        let cells: Vec<(Scheme, ScheduleFamily, u64)> = ScheduleFamily::all()
            .into_iter()
            .map(|family| (scheme, family, seed))
            .collect();
        let run = |threads| {
            let ctx = RunCtx::new(threads, Observe::Off);
            run_grid(&ctx, &cells, |s, f, seed| build_control_case(s, f, seed, 800, HOPS)).outcomes
        };
        let (one, eight) = (run(1), run(8));
        prop_assert_eq!(one.len(), eight.len());
        let mut moved = 0usize;
        for ((name1, out1), (name8, out8)) in one.iter().zip(eight.iter()) {
            prop_assert_eq!(name1, name8, "cell order must be thread-invariant");
            let t1 = decision_trace(out1, &policy);
            let t8 = decision_trace(out8, &policy);
            prop_assert_eq!(&t1, &t8, "{}: decision trace diverged across thread counts", name1);
            moved += t1.len();
            prop_assert!(
                out1.violations.is_empty(),
                "{}: {:?}",
                name1,
                out1.violations.first()
            );
            // The trace itself must witness the safe-state contract,
            // independently of the monitor's verdict.
            for report in &out1.report.per_hop {
                for t in &report.control {
                    match t.cause {
                        ControlCause::Relax => prop_assert!(
                            t.to == t.from + 1 && t.guarantee >= t.observed_weight,
                            "{}: relax {t:?} outran its evidence",
                            name1
                        ),
                        ControlCause::Retreat => prop_assert_eq!(t.to + 1, t.from),
                        ControlCause::Emergency => prop_assert_eq!(t.to, 0),
                    }
                }
            }
        }
        prop_assert!(moved > 0, "four families must move the controller at least once");
    }
}

/// Every scheme of the paper's catalog passes through the safe-state
/// monitor. Detecting schemes run the standard campaign controller cell;
/// the five non-detecting schemes (no trouble signal of their own) still
/// validate and run under a ladder whose bottom points advertise a zero
/// guarantee — the contract then only permits relaxing into them off a
/// perfectly clean observation streak, which the monitor verifies.
#[test]
fn safe_state_holds_across_the_full_catalog() {
    let catalog = Scheme::catalog();
    assert_eq!(catalog.len(), 17, "the paper's catalog is 17 schemes");
    for (i, scheme) in catalog.into_iter().enumerate() {
        let seed = i as u64 + 11;
        let cfg = if scheme.detects_errors() {
            build_control_case(scheme, ScheduleFamily::MixedMayhem, seed, 1_000, 1)
        } else {
            let mut cfg = build_case(scheme, ScheduleFamily::MixedMayhem, seed, 1_000, 1);
            cfg.name = format!(
                "{}+ctl/{}",
                scheme.name(),
                ScheduleFamily::MixedMayhem.name()
            );
            cfg.protocol = Protocol::DetectRetransmit {
                rtt_cycles: 3,
                max_retries: 3,
            };
            cfg.degradation = None;
            let policy = control_policy_for(scheme);
            policy
                .validate(cfg.data_bits)
                .expect("a guarantee-0 tail is a legal (nonincreasing) ladder");
            cfg.controller = Some(policy);
            cfg
        };
        let out = run_case(&cfg);
        let safe_state_broken = out
            .violations
            .iter()
            .filter(|v| v.kind == InvariantKind::ControlSafeState)
            .count();
        assert_eq!(
            safe_state_broken,
            0,
            "{} broke safe-state: {:?}",
            cfg.name,
            out.violations.first()
        );
        let (kind, stats) = out.stats[4];
        assert_eq!(kind, InvariantKind::ControlSafeState);
        assert!(
            stats.checked > 0,
            "{}: the safe-state monitor must actually run",
            cfg.name
        );
        if scheme.detects_errors() {
            assert!(
                out.violations.is_empty(),
                "{}: {:?}",
                cfg.name,
                out.violations.first()
            );
        }
    }
}

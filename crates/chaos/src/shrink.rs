//! Schedule shrinking: delta-debugging a violating case down to a
//! minimal reproducer.
//!
//! Given a [`CaseConfig`] that violates an invariant, [`shrink`] returns
//! a smaller config that still violates the *same* invariant on the
//! *same* hop ([`Violation::key`]). Two reductions interleave:
//!
//! * **event ddmin** — the classic Zeller/Hildebrandt algorithm over the
//!   schedule's event list: try dropping chunks at increasing
//!   granularity, keeping any complement that still reproduces;
//! * **word truncation** — cut the run right after the first violating
//!   word (end-of-run audits re-fire at the new, earlier end).
//!
//! Every candidate is checked by actually re-running it
//! (`harness::first_violation`), so the result is a true reproducer by
//! construction, not a heuristic guess. This is the path harness's
//! [`Harness::shrink`](crate::harness::Harness::shrink); the mesh
//! harness shrinks its own way (event drops, then cycle halving).

use socbus_telemetry::Telemetry;

use crate::harness::first_violation;
use crate::monitor::{InvariantKind, Violation};
use crate::runner::CaseConfig;

/// Shrinks `cfg` while preserving a violation with `key`: the minimized
/// case and the violation it produces for `key`, or `None` if `cfg`
/// does not reproduce `key` in the first place.
///
/// `max_runs` bounds the candidate re-runs (the result is valid whenever
/// one is returned; a tighter budget just stops minimizing earlier).
#[must_use]
pub fn shrink(
    cfg: &CaseConfig,
    key: (InvariantKind, Option<usize>),
    max_runs: usize,
) -> Option<(CaseConfig, Violation)> {
    let first = |candidate: &CaseConfig| first_violation(candidate, key, Telemetry::off());
    let mut check = |candidate: &CaseConfig| first(candidate).is_some();
    if !check(cfg) {
        return None;
    }
    let mut best = cfg.clone();
    truncate_words(&mut best, &first, &mut check, max_runs);
    ddmin_events(&mut best, &mut check, max_runs);
    // Events gone from the tail may allow an even earlier cut.
    truncate_words(&mut best, &first, &mut check, max_runs);
    let violation = first(&best).expect("the shrunken case reproduces by construction");
    Some((best, violation))
}

/// Cuts the run to end right after the first `key` violation (and drops
/// the events that can no longer fire).
fn truncate_words(
    best: &mut CaseConfig,
    first: &impl Fn(&CaseConfig) -> Option<Violation>,
    check: &mut impl FnMut(&CaseConfig) -> bool,
    max_runs: usize,
) {
    let Some(first) = first(best) else {
        return;
    };
    let cut = (first.at + 1).min(best.words);
    if cut >= best.words || max_runs == 0 {
        return;
    }
    let mut candidate = best.clone();
    candidate.words = cut;
    candidate.schedule.events.retain(|e| e.at_word < cut);
    if check(&candidate) {
        *best = candidate;
    }
}

/// Minimizing delta debugging over the event list.
fn ddmin_events(
    best: &mut CaseConfig,
    check: &mut impl FnMut(&CaseConfig) -> bool,
    max_runs: usize,
) {
    let mut granularity = 2usize;
    let mut spent = 0usize;
    while best.schedule.events.len() >= 2 && granularity <= best.schedule.events.len() {
        let len = best.schedule.events.len();
        let chunk = len.div_ceil(granularity);
        let mut reduced = false;
        let mut start = 0usize;
        while start < len {
            if spent >= max_runs {
                return;
            }
            let end = (start + chunk).min(len);
            let mut candidate = best.clone();
            candidate.schedule.events.drain(start..end);
            spent += 1;
            if check(&candidate) {
                *best = candidate;
                reduced = true;
                break; // list changed; restart the scan at this granularity
            }
            start = end;
        }
        if reduced {
            granularity = granularity.saturating_sub(1).max(2);
        } else if granularity == best.schedule.events.len() {
            break;
        } else {
            granularity = (granularity * 2).min(best.schedule.events.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{
        FaultSchedule, ScheduleAction, ScheduleEvent, ScheduleFamily, ScheduleParams,
    };
    use socbus_channel::FaultSpec;
    use socbus_codes::Scheme;
    use socbus_noc::link::Protocol;

    /// A Sabotaged case buried in schedule noise: shrinking must strip
    /// the irrelevant events and cut the run short.
    #[test]
    fn shrinks_a_sabotaged_case_to_a_small_reproducer() {
        let params = ScheduleParams {
            words: 1_200,
            hops: 2,
            wires: 21,
        };
        let mut schedule = FaultSchedule::random(ScheduleFamily::BurstTrain, &params, 5);
        // The trigger: soft noise on hop 0 from word 0 (weight-1 errors
        // the sabotaged decoder silently mangles).
        schedule.events.push(ScheduleEvent {
            at_word: 0,
            action: ScheduleAction::Activate {
                id: 900,
                hop: 0,
                spec: FaultSpec::Iid { eps: 5e-3 },
            },
        });
        schedule.sort();
        let cfg = CaseConfig {
            name: "sabotage-shrink".into(),
            scheme: Scheme::Sabotaged,
            data_bits: 16,
            hops: 2,
            eps: 0.0,
            protocol: Protocol::Fec,
            degradation: None,
            controller: None,
            words: 1_200,
            traffic_seed: 1,
            sim_seed: 2,
            schedule,
        };
        let out = crate::runner::run_case(&cfg);
        let key = out
            .violations
            .iter()
            .find(|v| v.kind == crate::monitor::InvariantKind::SilentCorruption)
            .expect("sabotage must trip")
            .key();
        let (case, violation) = shrink(&cfg, key, 500).expect("reproduces");
        assert!(case.words < cfg.words, "run must be truncated");
        assert!(
            case.schedule.events.len() <= 2,
            "noise events must be stripped: {:?}",
            case.schedule.events
        );
        let replayed = first_violation(&case, key, Telemetry::off());
        assert_eq!(replayed, Some(violation), "result is a reproducer");
    }

    /// Shrinking a non-reproducing key yields nothing.
    #[test]
    fn shrink_refuses_a_healthy_case() {
        let cfg = CaseConfig {
            name: "healthy".into(),
            scheme: Scheme::Dap,
            data_bits: 16,
            hops: 1,
            eps: 1e-3,
            protocol: Protocol::Fec,
            degradation: None,
            controller: None,
            words: 200,
            traffic_seed: 1,
            sim_seed: 2,
            schedule: FaultSchedule::default(),
        };
        let key = (crate::monitor::InvariantKind::SilentCorruption, Some(0));
        assert!(shrink(&cfg, key, 100).is_none());
    }
}

//! The soak and controller campaigns on the deterministic parallel
//! engine.
//!
//! The campaign grid — every catalog scheme × every schedule family —
//! is a *static shard list*: one cell is one shard, named and seeded by
//! its grid position alone. Worker threads claim cells from the engine's
//! atomic queue, each cell constructs its own `PathSim` (and, when
//! tracing, its own private [`socbus_telemetry::Recorder`]) *inside* the
//! shard, and the outcomes merge in grid order. The rendered JSON is
//! therefore byte-identical for `--threads 1` and `--threads N` — the
//! property CI pins by running the bins at both and `cmp`-ing.
//!
//! Both campaigns are the one campaign command of [`crate::harness`]
//! over [`CaseConfig`]: the soak grid assembled by [`build_case`], the
//! controller grid ([`control_cells`]) by [`build_control_case`]. This
//! module is the single implementation behind `cargo run --bin soak`,
//! `chaos run` and `chaos control`.

use socbus_codes::Scheme;

use crate::cli::{build_case, build_control_case};
use crate::harness::{campaign, grid, render, smoke_grid};
use crate::runner::{CaseConfig, CaseOutcome};
use crate::schedule::ScheduleFamily;

/// Words per case in the default campaign.
pub const FULL_WORDS: u64 = 2_000;
/// Words per case in the `--smoke` campaign (CI).
pub const SMOKE_WORDS: u64 = 300;
/// Hops per case.
pub const HOPS: usize = 3;

/// The static shard list: one campaign cell per (scheme, family) grid
/// position, seeded deterministically from that position (the seed
/// fixes the schedule AND the protocol flavour: correcting schemes
/// alternate FEC / backoff-ARQ by parity).
#[must_use]
pub fn campaign_cells(words: u64) -> Vec<(Scheme, ScheduleFamily, u64)> {
    debug_assert!(words > 0);
    grid(&Scheme::catalog(), &ScheduleFamily::all())
}

/// The closed-loop controller campaign grid: every detecting scheme in
/// the catalog × every schedule family, seeded by grid position (the
/// non-detecting schemes give the controller no trouble signal and are
/// exercised by the soak campaign instead).
#[must_use]
pub fn control_cells() -> Vec<(Scheme, ScheduleFamily, u64)> {
    grid(&Scheme::detecting(), &ScheduleFamily::all())
}

/// The `--smoke` subset of [`control_cells`]: one cell per schedule
/// family (each with a different detecting scheme), so CI covers all
/// four fault families without running the full grid.
#[must_use]
pub fn control_smoke_cells() -> Vec<(Scheme, ScheduleFamily, u64)> {
    smoke_grid(&Scheme::detecting(), &ScheduleFamily::all())
}

/// Renders the campaign JSON.
#[must_use]
pub fn render_json(words: u64, outcomes: &[(String, CaseOutcome)]) -> String {
    let meta = format!("  \"hops\": {HOPS},\n  \"words_per_case\": {words},\n");
    let worst = outcomes.iter().map(|(_, out)| out.worst_word_cycles).max();
    let tail = format!("  \"worst_word_cycles\": {},\n", worst.unwrap_or(0));
    render::<CaseConfig>(&meta, outcomes, &tail)
}

fn words(smoke: bool) -> u64 {
    if smoke {
        SMOKE_WORDS
    } else {
        FULL_WORDS
    }
}

/// The soak campaign entry point shared by `soak` and `chaos run`.
/// Args: `[--smoke] [--threads N] [--trace-out <path>]
/// [--health-out <path>] [out_path]`.
/// Returns the process exit code (nonzero iff any invariant violated).
#[must_use]
pub fn campaign_main(args: &[String]) -> i32 {
    campaign(
        "soak",
        args,
        ("results/BENCH_soak.json", None),
        |smoke| (campaign_cells(words(smoke)), words(smoke)),
        |scheme, family, seed, words| build_case(scheme, family, seed, words, HOPS),
        render_json,
    )
}

/// The controller campaign entry point behind `chaos control`; same
/// arguments and exit codes as [`campaign_main`].
#[must_use]
pub fn control_main(args: &[String]) -> i32 {
    campaign(
        "chaos control",
        args,
        ("results/BENCH_control.json", None),
        |smoke| {
            let cells = if smoke {
                control_smoke_cells()
            } else {
                control_cells()
            };
            (cells, words(smoke))
        },
        |scheme, family, seed, words| build_control_case(scheme, family, seed, words, HOPS),
        render_json,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::{Observe, RunCtx};
    use crate::harness::run_grid;

    /// Campaign shards cross threads: the cell descriptor and the cell
    /// outcome must both be `Send` (the sims themselves are
    /// shard-constructed and never cross).
    #[test]
    fn campaign_shard_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<(Scheme, ScheduleFamily, u64)>();
        assert_send::<(String, CaseOutcome)>();
    }

    /// The whole smoke campaign is clean, and telemetry does not
    /// perturb it (the drivers' bytes at 1 vs 8 threads are pinned in
    /// the root `tests/campaign_stream.rs`).
    #[test]
    fn smoke_campaign_is_clean_and_unperturbed_by_telemetry() {
        let cells = campaign_cells(SMOKE_WORDS);
        let run = |threads, observe| {
            let ctx = RunCtx::new(threads, observe);
            run_grid(&ctx, &cells, |s, f, seed| {
                build_case(s, f, seed, SMOKE_WORDS, HOPS)
            })
            .outcomes
        };
        let (plain, traced) = (run(1, Observe::Off), run(8, Observe::Trace));
        for ((pn, po), (tn, to)) in plain.iter().zip(&traced) {
            assert_eq!(pn, tn);
            assert_eq!(po.report, to.report, "{pn}: telemetry must not perturb");
            assert_eq!(po.violations, vec![], "{pn} must hold every invariant");
            assert_eq!(po.violations, to.violations);
        }
    }

    /// The control campaign: full detecting-scheme coverage, and zero
    /// safe-state violations in the smoke grid.
    #[test]
    fn control_campaign_is_safe() {
        let cells = control_smoke_cells();
        assert_eq!(cells.len(), ScheduleFamily::all().len());
        let ctx = RunCtx::new(8, Observe::Off);
        let run = run_grid(&ctx, &cells, |s, f, seed| {
            build_control_case(s, f, seed, SMOKE_WORDS, HOPS)
        });
        for (name, out) in &run.outcomes {
            assert_eq!(
                out.violations,
                vec![],
                "{name} must hold every invariant: {:?}",
                out.violations.first()
            );
        }
        let full = control_cells();
        assert_eq!(
            full.len(),
            Scheme::detecting().len() * ScheduleFamily::all().len()
        );
        for &(scheme, ..) in &full {
            assert!(scheme.detects_errors());
        }
    }

    /// ISSUE 4 satellite: every catalog scheme (the sabotage self-test
    /// scheme stays excluded) appears in the soak campaign cell list, so
    /// a newly cataloged scheme cannot silently skip the soak matrix.
    #[test]
    fn campaign_covers_every_catalog_scheme() {
        let cells = campaign_cells(SMOKE_WORDS);
        for scheme in Scheme::catalog() {
            assert!(
                ScheduleFamily::all()
                    .iter()
                    .all(|family| cells.iter().any(|&(s, f, _)| s == scheme && f == *family)),
                "{} missing from the soak campaign",
                scheme.name()
            );
        }
        assert!(
            cells.iter().all(|&(s, _, _)| s != Scheme::Sabotaged),
            "the planted-fault scheme must stay out of the campaign"
        );
        assert_eq!(
            cells.len(),
            Scheme::catalog().len() * ScheduleFamily::all().len()
        );
        // Seeds are unique, so no two cells share a schedule stream.
        let mut seeds: Vec<u64> = cells.iter().map(|&(_, _, s)| s).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), cells.len());
    }
}

//! The soak campaign on the deterministic parallel engine.
//!
//! The campaign grid — every catalog scheme × every schedule family —
//! is a *static shard list*: one cell is one shard, named and seeded by
//! its grid position alone. Worker threads claim cells from the engine's
//! atomic queue, each cell constructs its own `PathSim` (and, when
//! tracing, its own private [`Recorder`]) *inside* the shard, and the
//! outcomes merge in grid order. The rendered JSON is therefore
//! byte-identical for `--threads 1` and `--threads N` — the property CI
//! pins by running the bins at both and `cmp`-ing.
//!
//! [`run_campaign`] is the one driver, on [`crate::ctx::run_cells`]; the
//! controller campaign is the same driver over [`control_cells`] with
//! [`build_control_case`]. This module is the single implementation
//! behind `cargo run --bin soak`, `chaos run` and `chaos control`.

use std::fmt::Write as _;
use std::path::Path;
use std::rc::Rc;

use socbus_codes::Scheme;
use socbus_telemetry::{Recorder, Telemetry};

use crate::cli::{build_case, build_control_case, write_repro, DEFAULT_DATA_BITS};
use crate::ctx::{num, push_rows, run_cells, Run, RunArgs, RunCtx};
use crate::monitor::{InvariantKind, InvariantStats};
use crate::runner::{run_case_with, CaseConfig, CaseOutcome};
use crate::schedule::ScheduleFamily;

/// Words per case in the default campaign.
pub const FULL_WORDS: u64 = 2_000;
/// Words per case in the `--smoke` campaign (CI).
pub const SMOKE_WORDS: u64 = 300;
/// Hops per case.
pub const HOPS: usize = 3;

/// The static shard list: one campaign cell per (scheme, family) grid
/// position, seeded deterministically from that position.
#[must_use]
pub fn campaign_cells(words: u64) -> Vec<(Scheme, ScheduleFamily, u64)> {
    let mut cells = Vec::new();
    for (si, scheme) in Scheme::catalog().into_iter().enumerate() {
        for (fi, family) in ScheduleFamily::all().into_iter().enumerate() {
            // The seed fixes the schedule AND the protocol flavour
            // (correcting schemes alternate FEC / backoff-ARQ by parity).
            let seed = (si * ScheduleFamily::all().len() + fi) as u64 + 1;
            cells.push((scheme, family, seed));
        }
    }
    debug_assert!(words > 0);
    cells
}

/// How a path-campaign cell is assembled: [`build_case`] for the soak
/// grid, [`build_control_case`] for the controller grid.
pub type BuildCase = fn(Scheme, ScheduleFamily, u64, u64, usize) -> CaseConfig;

/// Runs the path campaign over `cells` (each assembled by `build` at
/// `words` words over [`HOPS`] hops) under `ctx`: one sub-run per cell,
/// its health scope named after the case. Outcomes, the recording and
/// the incident report are byte-identical for every thread count.
#[must_use]
pub fn run_campaign(
    cells: &[(Scheme, ScheduleFamily, u64)],
    words: u64,
    build: BuildCase,
    ctx: &RunCtx,
) -> Run<(String, CaseOutcome)> {
    run_cells(ctx, cells, |&(scheme, family, seed), probe| {
        let cfg = build(scheme, family, seed, words, HOPS);
        let out = run_case_with(&cfg, probe.open(&cfg.name));
        (cfg.name, out)
    })
}

/// Renders the campaign JSON.
#[must_use]
pub fn render_json(words: u64, outcomes: &[(String, CaseOutcome)]) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"data_bits\": {DEFAULT_DATA_BITS},");
    let _ = writeln!(json, "  \"hops\": {HOPS},");
    let _ = writeln!(json, "  \"words_per_case\": {words},");
    json.push_str("  \"cases\": [\n");
    push_rows(&mut json, outcomes, |json, (name, out)| {
        let retransmits: u64 = out.report.per_hop.iter().map(|h| h.retransmits).sum();
        let transitions: usize = out.report.per_hop.iter().map(|h| h.transitions.len()).sum();
        json.push_str("    {");
        let _ = write!(json, "\"case\": \"{name}\", ");
        let _ = write!(json, "\"violations\": {}, ", out.violations.len());
        let _ = write!(json, "\"worst_word_cycles\": {}, ", out.worst_word_cycles);
        let _ = write!(json, "\"budget_cycles\": {}, ", out.budget_cycles);
        let _ = write!(json, "\"e2e_errors\": {}, ", out.report.end_to_end_errors);
        let control: usize = out.report.per_hop.iter().map(|h| h.control.len()).sum();
        let _ = write!(json, "\"retransmits\": {retransmits}, ");
        let _ = write!(json, "\"transitions\": {transitions}, ");
        let _ = write!(json, "\"control_transitions\": {control}, ");
        let _ = write!(
            json,
            "\"cycles_per_word\": {}",
            num(out.report.cycles_per_word())
        );
        json.push('}');
    });
    json.push_str("\n  ],\n");
    let stats = outcomes.iter().flat_map(|(_, out)| out.stats.iter());
    push_invariants(
        &mut json,
        InvariantKind::all().map(|k| (k, k.name())),
        stats,
    );
    let worst = outcomes
        .iter()
        .map(|(_, out)| out.worst_word_cycles)
        .max()
        .unwrap_or(0);
    let violations: usize = outcomes.iter().map(|(_, out)| out.violations.len()).sum();
    let _ = writeln!(json, "  \"worst_word_cycles\": {worst},");
    let _ = writeln!(json, "  \"violations\": {violations}");
    json.push_str("}\n");
    json
}

/// Writes the `"invariants"` block of a campaign JSON: per invariant,
/// the checked and violated tallies summed over `stats`.
pub(crate) fn push_invariants<'a, K: Copy + PartialEq + 'a>(
    json: &mut String,
    kinds: impl IntoIterator<Item = (K, &'static str)>,
    stats: impl Iterator<Item = &'a (K, InvariantStats)> + Clone,
) {
    json.push_str("  \"invariants\": {\n");
    push_rows(json, kinds, |json, (kind, name)| {
        let (checked, violated) = stats
            .clone()
            .filter(|(k, _)| *k == kind)
            .fold((0, 0), |(c, v), (_, s)| (c + s.checked, v + s.violated));
        let _ = write!(
            json,
            "    \"{name}\": {{\"checked\": {checked}, \"violated\": {violated}}}"
        );
    });
    json.push_str("\n  },\n");
}

/// The soak campaign entry point shared by `soak` and `chaos run`.
/// Args: `[--smoke] [--threads N] [--trace-out <path>]
/// [--health-out <path>] [out_path]`.
/// Returns the process exit code (nonzero iff any invariant violated).
#[must_use]
pub fn campaign_main(args: &[String]) -> i32 {
    path_main(
        "soak",
        args,
        "results/BENCH_soak.json",
        build_case,
        |smoke| campaign_cells(if smoke { SMOKE_WORDS } else { FULL_WORDS }),
    )
}

/// The controller campaign entry point behind `chaos control`; same
/// arguments and exit codes as [`campaign_main`].
#[must_use]
pub fn control_main(args: &[String]) -> i32 {
    path_main(
        "chaos control",
        args,
        "results/BENCH_control.json",
        build_control_case,
        |smoke| {
            if smoke {
                control_smoke_cells()
            } else {
                control_cells()
            }
        },
    )
}

/// The one body behind both path campaigns: `grid(smoke)` lists the
/// cells and `build` assembles each.
fn path_main(
    cmd: &'static str,
    args: &[String],
    default_out: &str,
    build: BuildCase,
    grid: fn(bool) -> Vec<(Scheme, ScheduleFamily, u64)>,
) -> i32 {
    let flags = ["--smoke", "--threads", "--trace-out", "--health-out"];
    let args = match RunArgs::parse(cmd, args, &flags, default_out, None) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let words = if args.smoke { SMOKE_WORDS } else { FULL_WORDS };
    let cells = grid(args.smoke);
    let started = std::time::Instant::now();
    let run = run_campaign(&cells, words, build, &args.ctx());
    let wall = started.elapsed();
    for (name, out) in &run.outcomes {
        let control: usize = out.report.per_hop.iter().map(|h| h.control.len()).sum();
        eprintln!(
            "{name:<30} latency {:>3}/{:<3}  e2e {:>4}  control {:>3}  violations {}",
            out.worst_word_cycles,
            out.budget_cycles,
            out.report.end_to_end_errors,
            control,
            out.violations.len()
        );
    }
    args.write_run(&render_json(words, &run.outcomes), &run);
    let violations: usize = run
        .outcomes
        .iter()
        .map(|(_, out)| out.violations.len())
        .sum();
    eprintln!(
        "{cmd}: {} cases x {words} words on {} thread(s) in {:.2}s -> {} ({violations} violation(s))",
        run.outcomes.len(),
        args.threads,
        wall.as_secs_f64(),
        args.out
    );
    if violations == 0 {
        return 0;
    }
    // Shrink the first violating cell to a reproducer for the artifact,
    // then replay the shrunken case under telemetry so a Perfetto trace
    // of the minimal failure lands next to it.
    for (&(scheme, family, seed), (name, out)) in cells.iter().zip(&run.outcomes) {
        if let Some(v) = out.violations.first() {
            eprintln!("{cmd}: {name} violated: {}", v.detail);
            let cfg = build(scheme, family, seed, words, HOPS);
            match write_repro(&cfg, v, Path::new("results/repro")) {
                Ok(file) => {
                    eprintln!("{cmd}: reproducer written to {}", file.display());
                    let rec = Rc::new(Recorder::new());
                    let replayed = std::fs::read_to_string(&file).ok().and_then(|text| {
                        crate::cli::replay_text_with(&text, Telemetry::from_recorder(&rec)).ok()
                    });
                    if replayed.is_some() {
                        let trace = format!("{}.trace.json", file.display());
                        std::fs::write(&trace, rec.export_chrome_trace())
                            .expect("write repro trace");
                        eprintln!("{cmd}: trace written to {trace}");
                    }
                }
                Err(e) => eprintln!("{cmd}: shrink failed: {e}"),
            }
            break;
        }
    }
    1
}

/// The closed-loop controller campaign grid: every detecting scheme in
/// the catalog × every schedule family, seeded by grid position (the
/// non-detecting schemes give the controller no trouble signal and are
/// exercised by the soak campaign instead).
#[must_use]
pub fn control_cells() -> Vec<(Scheme, ScheduleFamily, u64)> {
    let mut cells = Vec::new();
    for (si, scheme) in Scheme::detecting().into_iter().enumerate() {
        for (fi, family) in ScheduleFamily::all().into_iter().enumerate() {
            let seed = (si * ScheduleFamily::all().len() + fi) as u64 + 1;
            cells.push((scheme, family, seed));
        }
    }
    cells
}

/// The `--smoke` subset of [`control_cells`]: one cell per schedule
/// family (each with a different detecting scheme), so CI covers all
/// four fault families without running the full grid.
#[must_use]
pub fn control_smoke_cells() -> Vec<(Scheme, ScheduleFamily, u64)> {
    let schemes = Scheme::detecting();
    let families = ScheduleFamily::all();
    families
        .into_iter()
        .enumerate()
        .map(|(fi, family)| {
            let si = fi % schemes.len();
            let seed = (si * families.len() + fi) as u64 + 1;
            (schemes[si], family, seed)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::Observe;

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
            run_campaign(
                &cells,
                SMOKE_WORDS,
                build_case,
                &RunCtx::new(threads, observe),
            )
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
        let run = run_campaign(&cells, SMOKE_WORDS, build_control_case, &ctx);
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

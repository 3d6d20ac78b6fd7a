//! Rare-event WER certification sweep (`bench --bin rare`).
//!
//! For every enumerable catalog scheme the sweep certifies the word
//! error rate at ε grid points down into the 1e-12 regime plain
//! Monte-Carlo cannot reach — the numbers the PR 6 DVS controller and
//! the reliability sweep have never had. Each cell:
//!
//! 1. computes the **exact** WER from the exhaustive-enumeration oracle
//!    ([`socbus_channel::rare::exact`]) — the ground truth the estimate
//!    is judged against;
//! 2. runs the adaptive rare-event driver
//!    ([`socbus_channel::rare::adapt::certify`]): pilot-planned
//!    importance sampling in geometrically growing batches until the
//!    relative 95% CI half-width is within [`TARGET_REL_CI`] or the
//!    word budget is spent;
//! 3. marks the cell **certified** when the run converged and the CI is
//!    statistically consistent with the exact rate (within 2 half-widths).
//!
//! Cells run sequentially in grid order; each cell shards internally
//! over `socbus_exec`, and every estimator merges in shard order — so
//! `results/BENCH_rare.json` is byte-identical for `--threads 1` and
//! `--threads N`, which CI `cmp`s (traced and untraced).
//!
//! The binary exits nonzero unless the acceptance gate holds: in full
//! mode, ≥ [`DEEP_GATE`] schemes certified at a *deep* point (exact
//! WER ≤ [`DEEP_WER_CEILING`]) within [`MAX_WORDS_PER_CELL`] words; in
//! `--smoke` mode, every (shallow) cell certified.

use std::fmt::Write as _;
use std::rc::Rc;

use socbus_channel::rare::{certify, failure_profile, oracle_catalog, Certification};
use socbus_chaos::ctx::{num, push_rows, RunArgs};
use socbus_codes::Scheme;
use socbus_exec::shard_seed;
use socbus_telemetry::{Recorder, Telemetry};

/// Relative 95% CI half-width every cell drives toward (under the
/// ≤ 30% acceptance bar, with margin).
pub const TARGET_REL_CI: f64 = 0.25;
/// Word budget per cell, full mode (the acceptance ceiling).
pub const MAX_WORDS_PER_CELL: u64 = 10_000_000;
/// Word budget per cell, `--smoke` mode.
pub const SMOKE_MAX_WORDS: u64 = 200_000;
/// A cell is *deep* when its exact WER is at or below this — the regime
/// that motivates the whole engine.
pub const DEEP_WER_CEILING: f64 = 1e-10;
/// Full-mode gate: schemes that must certify a deep cell.
pub const DEEP_GATE: usize = 5;
/// Root seed of the sweep (cell `i` runs at `shard_seed(SEED, i)`).
pub const SEED: u64 = 2026;

/// Shallow ε grid points every scheme gets.
const SHALLOW_EPS: [f64; 2] = [1e-2, 1e-3];
/// Candidate deep ε points, largest first; each scheme's deep cell is
/// the first whose exact WER clears [`DEEP_WER_CEILING`].
const DEEP_EPS_CANDIDATES: [f64; 6] = [1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 1e-12];

/// One sweep cell: a scheme at one ε, with the oracle's exact WER.
#[derive(Clone, Debug)]
pub struct RareCell {
    /// Scheme under test.
    pub scheme: Scheme,
    /// Data bits per transfer.
    pub k: usize,
    /// Physical bus wires.
    pub wires: usize,
    /// i.i.d. per-wire flip probability of the cell.
    pub eps: f64,
    /// Exact WER from exhaustive enumeration.
    pub exact: f64,
    /// Whether this is the scheme's deep (≤ [`DEEP_WER_CEILING`]) point.
    pub deep: bool,
}

/// One certified cell: the grid entry plus the driver's result and the
/// consistency verdict.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// The grid cell.
    pub cell: RareCell,
    /// The adaptive driver's certification.
    pub cert: Certification,
    /// Converged AND statistically consistent with the exact WER
    /// (within 2 CI half-widths).
    pub certified: bool,
}

/// The schemes the sweep covers: the full oracle catalog, or the
/// 5-scheme smoke subset (one per structural family: uncoded, SEC,
/// joint CAC+SEC, joint+LPC, DEC).
#[must_use]
pub fn sweep_schemes(smoke: bool) -> Vec<(Scheme, usize)> {
    if smoke {
        vec![
            (Scheme::Uncoded, 8),
            (Scheme::Hamming, 6),
            (Scheme::Dap, 4),
            (Scheme::Dapbi, 4),
            (Scheme::BchDec, 4),
        ]
    } else {
        oracle_catalog()
    }
}

/// Builds the static cell grid: per scheme, the shallow ε points plus
/// (full mode) the deep point picked against the oracle profile. Grid
/// construction is exact arithmetic over a deterministic enumeration —
/// identical on every run and thread count.
#[must_use]
pub fn sweep_cells(smoke: bool) -> Vec<RareCell> {
    let mut cells = Vec::new();
    for (scheme, k) in sweep_schemes(smoke) {
        let profile = failure_profile(scheme, k);
        let mut eps_points: Vec<(f64, bool)> = SHALLOW_EPS.iter().map(|&e| (e, false)).collect();
        if !smoke {
            if let Some(&deep) = DEEP_EPS_CANDIDATES
                .iter()
                .find(|&&e| profile.wer(e) <= DEEP_WER_CEILING && profile.wer(e) > 0.0)
            {
                eps_points.push((deep, true));
            }
        }
        for (eps, deep) in eps_points {
            cells.push(RareCell {
                scheme,
                k,
                wires: profile.wires,
                eps,
                exact: profile.wer(eps),
                deep,
            });
        }
    }
    cells
}

/// Runs the sweep: cells sequential in grid order, each internally
/// sharded over up to `threads` workers, telemetry (if enabled) emitted
/// from the merge path — thread-count invariant end to end.
#[must_use]
pub fn run_sweep(smoke: bool, threads: usize, tel: &Telemetry) -> Vec<CellResult> {
    let budget = if smoke {
        SMOKE_MAX_WORDS
    } else {
        MAX_WORDS_PER_CELL
    };
    sweep_cells(smoke)
        .into_iter()
        .enumerate()
        .map(|(i, cell)| {
            let cert = certify(
                cell.scheme,
                cell.k,
                cell.eps,
                TARGET_REL_CI,
                budget,
                shard_seed(SEED, i as u64),
                threads,
                tel,
            );
            let certified = cert.converged
                && cert.rate > 0.0
                && (cert.rate - cell.exact).abs() <= 2.0 * cert.ci95;
            CellResult {
                cell,
                cert,
                certified,
            }
        })
        .collect()
}

/// Number of distinct schemes whose deep cell certified — the full-mode
/// acceptance gate value.
#[must_use]
pub fn deep_certified(results: &[CellResult]) -> usize {
    results
        .iter()
        .filter(|r| r.cell.deep && r.certified)
        .count()
}

/// Renders the sweep JSON (the `results/BENCH_rare.json` format).
#[must_use]
pub fn render_json(results: &[CellResult], smoke: bool) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"target_rel_ci95\": {TARGET_REL_CI},");
    let _ = writeln!(
        json,
        "  \"max_words_per_cell\": {},",
        if smoke {
            SMOKE_MAX_WORDS
        } else {
            MAX_WORDS_PER_CELL
        }
    );
    let _ = writeln!(json, "  \"deep_wer_ceiling\": {},", num(DEEP_WER_CEILING));
    let _ = writeln!(
        json,
        "  \"deep_certified_schemes\": {},",
        deep_certified(results)
    );
    json.push_str("  \"cells\": [\n");
    push_rows(&mut json, results, |json, r| {
        json.push_str("    {");
        let _ = write!(json, "\"scheme\": \"{}\", ", r.cell.scheme.name());
        let _ = write!(json, "\"k\": {}, ", r.cell.k);
        let _ = write!(json, "\"wires\": {}, ", r.cell.wires);
        let _ = write!(json, "\"eps\": {}, ", num(r.cell.eps));
        let _ = write!(json, "\"exact_wer\": {}, ", num(r.cell.exact));
        let _ = write!(json, "\"deep\": {}, ", r.cell.deep);
        let _ = write!(json, "\"rate\": {}, ", num(r.cert.rate));
        let _ = write!(json, "\"ci95\": {}, ", num(r.cert.ci95));
        let _ = write!(json, "\"rel_ci95\": {}, ", num(r.cert.rel_ci95));
        let _ = write!(json, "\"words\": {}, ", r.cert.words);
        // `boost=1.0` is a literal: it keeps `results/BENCH_rare.json`
        // byte-identical to the files written when the label carried a
        // burst-occupancy boost.
        let _ = write!(
            json,
            "\"method\": \"twist(theta={:.4},boost=1.0)\", ",
            r.cert.theta
        );
        let _ = write!(json, "\"converged\": {}, ", r.cert.converged);
        let _ = write!(json, "\"certified\": {}", r.certified);
        json.push('}');
    });
    json.push_str("\n  ]\n}\n");
    json
}

/// The `rare` binary's entry point.
/// Args: `[--smoke] [--threads N] [--trace-out <path>] [out_path]`.
/// Returns the process exit code (nonzero when the acceptance gate
/// fails).
#[must_use]
pub fn main_with_args(args: &[String]) -> i32 {
    let args = match RunArgs::parse(
        "rare",
        args,
        &["--smoke", "--threads", "--trace-out"],
        "results/BENCH_rare.json",
        None,
    ) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let (smoke, threads) = (args.smoke, args.threads);
    let started = std::time::Instant::now();
    let recorder = args.trace_out.as_ref().map(|_| Rc::new(Recorder::new()));
    let tel = recorder
        .as_ref()
        .map_or_else(Telemetry::off, Telemetry::from_recorder);
    let results = run_sweep(smoke, threads, &tel);
    let wall = started.elapsed();
    for r in &results {
        eprintln!(
            "{:<12} k={:<2} eps={:<8.0e} exact {:>10.3e}  est {:>10.3e} (±{:.1}%)  {:>9} words  {}{}",
            r.cell.scheme.name(),
            r.cell.k,
            r.cell.eps,
            r.cell.exact,
            r.cert.rate,
            100.0 * r.cert.rel_ci95.min(9.99),
            r.cert.words,
            if r.certified { "certified" } else { "NOT certified" },
            if r.cell.deep { " [deep]" } else { "" },
        );
    }
    args.write(&render_json(&results, smoke), recorder.as_deref(), None);
    eprintln!(
        "wrote {} cells on {threads} thread(s) in {:.2}s to {}",
        results.len(),
        wall.as_secs_f64(),
        args.out
    );
    if smoke {
        let failed = results.iter().filter(|r| !r.certified).count();
        if failed > 0 {
            eprintln!("rare: smoke gate FAILED — {failed} cell(s) not certified");
            return 1;
        }
    } else {
        let deep = deep_certified(&results);
        if deep < DEEP_GATE {
            eprintln!(
                "rare: acceptance gate FAILED — only {deep}/{DEEP_GATE} schemes certified at exact WER <= {DEEP_WER_CEILING:e}"
            );
            return 1;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full grid must offer at least [`DEEP_GATE`] deep cells — the
    /// acceptance criterion is unreachable otherwise — and every deep
    /// cell's exact WER must clear the ceiling by construction.
    #[test]
    fn full_grid_has_enough_deep_cells() {
        let cells = sweep_cells(false);
        let deep: Vec<&RareCell> = cells.iter().filter(|c| c.deep).collect();
        assert!(
            deep.len() >= DEEP_GATE,
            "only {} deep cells in the full grid",
            deep.len()
        );
        for c in &deep {
            assert!(c.exact > 0.0 && c.exact <= DEEP_WER_CEILING);
        }
        // One deep cell per scheme at most.
        let mut schemes: Vec<String> = deep.iter().map(|c| c.scheme.name()).collect();
        schemes.sort();
        schemes.dedup();
        assert_eq!(schemes.len(), deep.len());
    }

    /// The smoke grid covers 5 schemes at the shallow points only, and
    /// every cell's exact WER is positive (a zero-exact cell could
    /// never certify).
    #[test]
    fn smoke_grid_is_shallow_and_positive() {
        let cells = sweep_cells(true);
        assert_eq!(cells.len(), 5 * SHALLOW_EPS.len());
        assert!(cells.iter().all(|c| !c.deep && c.exact > 0.0));
        assert!(cells.iter().all(|c| c.wires <= 12));
    }
}

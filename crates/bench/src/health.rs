//! Health-monitor overhead gate: folding the telemetry stream through
//! the health aggregator (per-entity scoring, SLO budgets, incident
//! reports, plus the health-consistent invariant check) must stay
//! within a few percent of the plain traced campaign.
//!
//! Methodology follows the `overhead` bin with two refinements for the
//! shorter workload. Samples are interleaved (traced, traced+health,
//! traced, ...) so thermal/cache drift hits both sides equally, and
//! the verdict is the *median of per-pair wall-time ratios* rather
//! than two independent minima: each interleaved pair shares the
//! machine state of its moment, so frequency-scaling noise common to
//! both sides cancels in the ratio. And because one mesh campaign is
//! only ~0.15 s — short enough that a single scheduler preemption
//! moves a pair ratio by several percent — each timed sample executes
//! the campaign `--reps` times (default 4, ~0.6 s per sample) so those
//! blips amortize. The per-side minima are still reported for context.
//! The *full* grid is the default workload: the smoke grid finishes in
//! a few milliseconds, which is below timer noise for a percent-level
//! gate (`--smoke` stays available for a quick structural check, but
//! its timing verdict is meaningless).
//! Every run's artifacts are byte-compared against the first run's:
//! the campaign JSON must not drift, and the health monitor must not
//! perturb the simulation it watches (same per-case reports on both
//! sides). The verdict plus an FNV-1a checksum of the incident report
//! land in `results/BENCH_health.json`, with the host they were taken on
//! (`host_parallelism`, `profile`, `code_version`; see [`crate::host`]).
//!
//! Run with `cargo run --release -p socbus-bench --bin health`
//! (`--smoke` for the five-cell grid, `--runs N`, `--reps N`,
//! `--gate PCT`).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use socbus_chaos::ctx::{write_file, Observe, RunCtx};
use socbus_chaos::mesh::{
    mesh_cells, mesh_smoke_cells, render_mesh_json, run_mesh_campaign, MeshCaseOutcome, MeshFamily,
    FULL_MESH_CYCLES, SMOKE_MESH_CYCLES,
};
use socbus_codes::Scheme;

/// FNV-1a over a byte string — the determinism witness of the incident
/// report (same hash family as the codec bench's stream checksums).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        acc ^= u64::from(b);
        acc = acc.wrapping_mul(0x100_0000_01b3);
    }
    acc
}

/// The per-case simulation results, independent of which invariants ran:
/// the health side checks one more invariant than the traced side, so
/// the full campaign JSONs legitimately differ in the invariant-stats
/// block — but the *simulation* must be byte-identical on both sides.
#[must_use]
pub fn case_digest(outcomes: &[(String, MeshCaseOutcome)]) -> String {
    let mut digest = String::new();
    for (name, out) in outcomes {
        let _ = writeln!(
            digest,
            "{name} injected {} delivered {} lost {} dup {} retx {} poisoned {} down {} \
             violations {}",
            out.report.injected,
            out.report.delivered,
            out.report.flagged_lost,
            out.report.duplicates,
            out.report.e2e_retransmits,
            out.report.dropped_poisoned,
            out.report.links_down,
            out.violations.len()
        );
    }
    digest
}

/// One measured side-by-side comparison of the traced campaign against
/// the traced-plus-health campaign.
pub struct HealthGateOutcome {
    /// Cells in the campaign grid.
    pub cells: usize,
    /// Injection cycles per case.
    pub cycles: u64,
    /// Timed runs per side.
    pub runs: u32,
    /// Campaign executions per timed sample.
    pub reps: u32,
    /// Minimum wall time of one timed sample (`reps` campaigns) on the
    /// plain traced side.
    pub traced_min: Duration,
    /// Minimum wall time of one timed sample on the traced+health side.
    pub health_min: Duration,
    /// Per-run `health / traced` wall-time ratios, one per interleaved
    /// pair. The overhead verdict is the median of these: each pair
    /// shares the machine state of its moment, so frequency-scaling
    /// noise common to both sides cancels in the ratio.
    pub pair_ratios: Vec<f64>,
    /// Incident-report scopes produced by the health side.
    pub scopes: usize,
    /// Incidents across all scopes.
    pub incidents: usize,
    /// SLO alerts across all scopes.
    pub alerts: usize,
    /// Invariant violations on the health side (must be zero).
    pub violations: usize,
    /// FNV-1a of the serialized incident report.
    pub health_checksum: u64,
}

impl HealthGateOutcome {
    /// Relative cost of the health fold over the plain traced campaign:
    /// the median per-pair wall-time ratio, expressed as a percentage.
    #[must_use]
    pub fn overhead_pct(&self) -> f64 {
        let mut ratios = self.pair_ratios.clone();
        ratios.sort_by(f64::total_cmp);
        let mid = ratios.len() / 2;
        let median = if ratios.len() % 2 == 1 {
            ratios[mid]
        } else {
            (ratios[mid - 1] + ratios[mid]) / 2.0
        };
        (median - 1.0) * 100.0
    }

    /// Whether the gate holds at `gate_pct`: overhead within budget and
    /// no invariant violated while the monitor watched.
    #[must_use]
    pub fn passed(&self, gate_pct: f64) -> bool {
        self.overhead_pct() <= gate_pct && self.violations == 0
    }

    /// Renders the `results/BENCH_health.json` format: the host it ran
    /// on ([`crate::host::json_members`]), then the measurement. Wall
    /// times are environment-dependent by nature; everything else is
    /// deterministic.
    #[must_use]
    pub fn render_json(&self, gate_pct: f64) -> String {
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str(&crate::host::json_members());
        let _ = writeln!(json, "  \"cells\": {},", self.cells);
        let _ = writeln!(json, "  \"cycles_per_case\": {},", self.cycles);
        let _ = writeln!(json, "  \"runs\": {},", self.runs);
        let _ = writeln!(json, "  \"reps_per_sample\": {},", self.reps);
        let _ = writeln!(json, "  \"gate_pct\": {gate_pct},");
        let _ = writeln!(
            json,
            "  \"traced_min_s\": {:.6},",
            self.traced_min.as_secs_f64()
        );
        let _ = writeln!(
            json,
            "  \"health_min_s\": {:.6},",
            self.health_min.as_secs_f64()
        );
        let _ = writeln!(json, "  \"overhead_pct\": {:.4},", self.overhead_pct());
        let _ = writeln!(json, "  \"scopes\": {},", self.scopes);
        let _ = writeln!(json, "  \"incidents\": {},", self.incidents);
        let _ = writeln!(json, "  \"alerts\": {},", self.alerts);
        let _ = writeln!(json, "  \"violations\": {},", self.violations);
        let _ = writeln!(
            json,
            "  \"health_checksum\": \"{:#018x}\",",
            self.health_checksum
        );
        let _ = writeln!(json, "  \"gate_passed\": {}", self.passed(gate_pct));
        json.push_str("}\n");
        json
    }
}

/// Runs the interleaved measurement over an explicit cell list. Every
/// run is single-threaded so the wall clock measures the work, not the
/// scheduler. Each timed sample executes the campaign `reps` times —
/// one campaign is ~0.15 s, short enough that a single scheduler
/// preemption moves a pair ratio by several percent; stretching the
/// sample amortizes those blips while the pairing still cancels slow
/// frequency drift. Panics if any run's artifacts drift from the first
/// run's — determinism is a precondition of comparing wall times at
/// all.
#[must_use]
pub fn run_gate(
    cells: &[(Scheme, MeshFamily, u64)],
    cycles: u64,
    runs: u32,
    reps: u32,
) -> HealthGateOutcome {
    assert!(reps > 0, "the gate needs at least one campaign per sample");
    // One timed sample: `reps` campaigns at one thread, the last run's
    // outcomes, incident report and JSONL kept for the drift checks.
    let timed = |observe| {
        let ctx = RunCtx::new(1, observe);
        let start = Instant::now();
        let mut last = None;
        for _ in 0..reps {
            last = Some(run_mesh_campaign(cells, cycles, &ctx));
        }
        let elapsed = start.elapsed();
        let run = last.expect("reps > 0");
        let jsonl = run.recorder.as_ref().expect("traced").export_jsonl();
        (elapsed, run.outcomes, run.health, jsonl)
    };

    // Warm-up (not timed): lazily-faulted pages and the allocator reach
    // steady state, and both sides' baselines are pinned.
    let (_, traced_base, _, traced_jsonl_base) = timed(Observe::Trace);
    let (_, health_base, health_report, health_jsonl_base) = timed(Observe::Health);
    let health_report = health_report.expect("health ran");
    let traced_json_base = render_mesh_json(cycles, &traced_base);
    let health_json_base = render_mesh_json(cycles, &health_base);
    assert_eq!(
        case_digest(&traced_base),
        case_digest(&health_base),
        "the health monitor perturbed the simulation it watches"
    );
    assert_eq!(
        traced_jsonl_base, health_jsonl_base,
        "the health monitor perturbed the telemetry stream"
    );

    assert!(runs > 0, "the gate needs at least one timed pair");
    let mut traced_min = Duration::MAX;
    let mut health_min = Duration::MAX;
    let mut pair_ratios = Vec::with_capacity(runs as usize);
    for run in 0..runs {
        let (traced, traced_out, _, traced_jsonl) = timed(Observe::Trace);
        let (health, health_out, health_rep, health_jsonl) = timed(Observe::Health);
        assert_eq!(health_jsonl, health_jsonl_base);
        assert_eq!(
            render_mesh_json(cycles, &traced_out),
            traced_json_base,
            "traced campaign output drifted between runs"
        );
        assert_eq!(traced_jsonl, traced_jsonl_base);
        assert_eq!(
            render_mesh_json(cycles, &health_out),
            health_json_base,
            "health campaign output drifted between runs"
        );
        assert_eq!(
            health_rep.expect("health ran").serialize(),
            health_report.serialize(),
            "incident report drifted between runs"
        );
        traced_min = traced_min.min(traced);
        health_min = health_min.min(health);
        let ratio = health.as_secs_f64() / traced.as_secs_f64();
        pair_ratios.push(ratio);
        eprintln!(
            "run {run}: traced {:.3}s  health {:.3}s  ratio {ratio:.4}",
            traced.as_secs_f64(),
            health.as_secs_f64()
        );
    }

    let violations: usize = health_base
        .iter()
        .map(|(_, out)| out.violations.len())
        .sum();
    HealthGateOutcome {
        cells: cells.len(),
        cycles,
        runs,
        reps,
        traced_min,
        health_min,
        pair_ratios,
        scopes: health_report.scopes.len(),
        incidents: health_report.scopes.iter().map(|s| s.incidents.len()).sum(),
        alerts: health_report.scopes.iter().map(|s| s.alerts.len()).sum(),
        violations,
        health_checksum: fnv1a(health_report.serialize().as_bytes()),
    }
}

/// The `health` benchmark binary's entry point.
/// Args: `[--smoke] [--runs N] [--reps N] [--gate PCT] [out_path]`.
/// Returns the process exit code: 0 pass, 1 gate fail, 2 usage.
#[must_use]
pub fn main_with_args(args: &[String]) -> i32 {
    let mut smoke = false;
    // The mesh campaign is a short workload (~0.15 s), so the defaults
    // stretch each timed sample to ~0.6 s (4 reps) and take the median
    // over 8 interleaved pairs — a single campaign per sample flaps by
    // several percent under scheduler noise.
    let mut runs: u32 = 8;
    let mut reps: u32 = 4;
    let mut gate_pct: f64 = 3.0;
    let mut out_path = "results/BENCH_health.json".to_owned();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--runs" => {
                let Some(n) = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &u32| n > 0)
                else {
                    eprintln!("health: --runs needs a positive integer");
                    return 2;
                };
                runs = n;
            }
            "--reps" => {
                let Some(n) = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &u32| n > 0)
                else {
                    eprintln!("health: --reps needs a positive integer");
                    return 2;
                };
                reps = n;
            }
            "--gate" => {
                let Some(pct) = it.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("health: --gate needs a percentage");
                    return 2;
                };
                gate_pct = pct;
            }
            other if other.starts_with("--") => {
                eprintln!("health: unknown flag {other}");
                return 2;
            }
            other => out_path = other.to_owned(),
        }
    }
    let (cells, cycles) = if smoke {
        (mesh_smoke_cells(), SMOKE_MESH_CYCLES)
    } else {
        (mesh_cells(), FULL_MESH_CYCLES)
    };
    let outcome = run_gate(&cells, cycles, runs, reps);
    write_file(&out_path, &outcome.render_json(gate_pct));
    eprintln!(
        "health: traced min {:.3}s, health min {:.3}s, median pair overhead {:+.2}% \
         (gate {gate_pct}%) -> {out_path}",
        outcome.traced_min.as_secs_f64(),
        outcome.health_min.as_secs_f64(),
        outcome.overhead_pct()
    );
    if !outcome.passed(gate_pct) {
        eprintln!(
            "health: FAIL — the health fold costs more than {gate_pct}% or violated an invariant"
        );
        return 1;
    }
    eprintln!("health: PASS");
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        // Offset basis for the empty string, the standard "a" vector.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    /// The verdict is the median pair ratio — an outlier pair on either
    /// side must not move it.
    #[test]
    fn overhead_is_the_median_pair_ratio() {
        let mut outcome = HealthGateOutcome {
            cells: 0,
            cycles: 0,
            runs: 3,
            reps: 1,
            traced_min: Duration::from_secs(1),
            health_min: Duration::from_secs(2),
            pair_ratios: vec![1.10, 1.02, 0.99],
            scopes: 0,
            incidents: 0,
            alerts: 0,
            violations: 0,
            health_checksum: 0,
        };
        assert!((outcome.overhead_pct() - 2.0).abs() < 1e-9);
        // Even count: mean of the two middle ratios.
        outcome.pair_ratios = vec![0.98, 1.00, 1.04, 1.50];
        assert!((outcome.overhead_pct() - 2.0).abs() < 1e-9);
    }

    /// A one-cell gate run end to end: artifacts stable, JSON renders,
    /// and the verdict only depends on overhead + violations.
    #[test]
    fn gate_runs_and_renders_on_a_tiny_grid() {
        let cells: Vec<(Scheme, MeshFamily, u64)> =
            mesh_smoke_cells().into_iter().take(1).collect();
        let outcome = run_gate(&cells, 40, 1, 1);
        assert_eq!(outcome.cells, 1);
        assert_eq!(outcome.violations, 0);
        assert_eq!(outcome.scopes, 1);
        let json = outcome.render_json(3.0);
        assert!(json.contains("\"cells\": 1,"));
        assert!(json.starts_with("{\n  \"host_parallelism\": "));
        assert!(json.contains("\"profile\": \""));
        assert!(json.contains("\"health_checksum\": \"0x"));
        // The checksum is a real digest of the incident report, not a
        // placeholder.
        assert_ne!(outcome.health_checksum, 0);
        // A generous gate passes with zero violations; a gate that no
        // measurement can meet fails.
        assert!(outcome.passed(1e9));
        assert!(!outcome.passed(-1e9));
    }
}

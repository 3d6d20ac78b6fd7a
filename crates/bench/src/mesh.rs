//! Mesh NoC benchmark: saturation throughput and per-flow latency
//! distributions for every catalog scheme under a small fault catalog.
//!
//! The paper's evaluation prices one coded *link*; this benchmark asks
//! what the coding schemes cost at the *fabric* level, where retries
//! occupy routers, poisoned words trigger end-to-end recovery, and a
//! downed link forces the fault-aware fallback route. Each cell runs a
//! 4×4 mesh with uniform traffic twice — once at a light injection rate
//! (the latency-distribution run) and once at the fabric's carrying
//! capacity (the saturation-throughput run) — under one fault scenario
//! at a time:
//!
//! * `clean` — fault-free links (the routing/protocol baseline);
//! * `iid` — i.i.d. wire flips on every link (the paper's model);
//! * `burst_link` — Gilbert–Elliott burst noise on a fixed subset of
//!   links (hot spots of correlated noise);
//! * `link_down` — one permanent link failure from cycle zero (clean
//!   links otherwise; measures the pure rerouting cost).
//!
//! A separate section sweeps the traffic pattern (uniform, hotspot,
//! transpose) at the light rate on clean links for a representative
//! scheme subset, isolating the pattern's effect on latency from the
//! coding scheme's.
//!
//! One (scheme, scenario) cell is one shard on the deterministic
//! parallel engine: everything a cell needs is constructed inside the
//! shard from the cell's own seeds, and results merge in grid order —
//! so `results/BENCH_mesh.json` is byte-identical for `--threads 1`
//! and `--threads N`, which CI `cmp`s.
//!
//! Run with `cargo run --release -p socbus-bench --bin mesh`
//! (add `--threads N` to override the worker count, `--trace-out
//! <path>` for a telemetry event log plus a Perfetto trace with
//! per-router and per-link tracks, `--health-out <path>` for a
//! `socbus-incident v1` report with one scope per sub-run).

use std::fmt::Write as _;

use socbus_channel::FaultSpec;
use socbus_chaos::ctx::{num, push_rows, run_cells, Run, RunArgs, RunCtx};
use socbus_chaos::protocol_for;
use socbus_codes::Scheme;
use socbus_exec::run_shards;
use socbus_noc::link::LinkConfig;
use socbus_noc::mesh::{MeshConfig, MeshPattern, MeshReport, MeshSim};
use socbus_telemetry::Telemetry;

/// Data bits per transferred word.
pub const DATA_BITS: usize = 16;
/// Mesh side length.
pub const WIDTH: usize = 4;
/// Mesh side length.
pub const HEIGHT: usize = 4;
/// Injection cycles per run.
pub const CYCLES: u64 = 600;
/// Drain budget after injection stops (the end-to-end give-up path
/// needs a few thousand cycles at the default knobs).
pub const DRAIN_CYCLES: u64 = 8_000;
/// Per-node injection rate of the latency-distribution run: light
/// enough that queueing is rare and the histogram shows the fabric's
/// intrinsic latency under each scheme.
pub const LATENCY_RATE: f64 = 0.08;
/// Per-node injection rate of the saturation run: 16 nodes at 0.9
/// offer ~14.4 packets/cycle, which puts ~7.2 packets/cycle across the
/// 8-link bisection — right at the single-cycle-link carrying capacity.
/// A scheme whose codec (or retries) stretches a hop past one cycle
/// proportionally shrinks link capacity and drops below this load, so
/// delivered packets per cycle (over the whole run including the drain)
/// measures each scheme's sustained saturation throughput.
pub const SATURATION_RATE: f64 = 0.9;
/// Root seed of the benchmark (traffic seed is `SEED ^ 0xA5`).
pub const SEED: u64 = 23;
/// ε of the `iid` scenario.
pub const IID_EPS: f64 = 1e-3;

/// The fault scenarios, named for the JSON.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// Fault-free links.
    Clean,
    /// i.i.d. wire flips on every link.
    Iid,
    /// Burst noise on every eighth directed link.
    BurstLink,
    /// Directed link 0 permanently down.
    LinkDown,
}

impl Scenario {
    /// All scenarios, in reporting order.
    #[must_use]
    pub fn all() -> [Scenario; 4] {
        [
            Scenario::Clean,
            Scenario::Iid,
            Scenario::BurstLink,
            Scenario::LinkDown,
        ]
    }

    /// Stable name (used in the JSON).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Clean => "clean",
            Scenario::Iid => "iid",
            Scenario::BurstLink => "burst_link",
            Scenario::LinkDown => "link_down",
        }
    }
}

/// The burst process of the `burst_link` scenario.
#[must_use]
fn burst_spec() -> FaultSpec {
    FaultSpec::Burst {
        eps_good: 1e-4,
        eps_bad: 0.05,
        p_enter: 0.01,
        p_exit: 0.2,
    }
}

/// Both runs of one (scheme, scenario) cell.
pub struct MeshRun {
    /// The light-rate latency-distribution run.
    pub latency: MeshReport,
    /// The past-saturation throughput run.
    pub saturation: MeshReport,
}

fn mesh_config(scheme: Scheme, rate: f64, pattern: MeshPattern, eps: f64) -> MeshConfig {
    let link = LinkConfig::new(scheme, DATA_BITS, eps).with_protocol(protocol_for(scheme, SEED));
    MeshConfig::new(WIDTH, HEIGHT, link)
        .with_pattern(pattern)
        .with_rate(rate)
}

/// Runs one simulation of one cell: builds the mesh, applies the
/// scenario's static faults, and drives injection plus drain.
fn run_sim(scheme: Scheme, scenario: Scenario, rate: f64, tel: Telemetry) -> MeshReport {
    let eps = if scenario == Scenario::Iid {
        IID_EPS
    } else {
        0.0
    };
    let cfg = mesh_config(scheme, rate, MeshPattern::Uniform, eps);
    let mut sim = MeshSim::new_with_telemetry(&cfg, SEED, SEED ^ 0xA5, tel);
    match scenario {
        Scenario::Clean | Scenario::Iid => {}
        Scenario::BurstLink => {
            // A fixed, spread-out subset of directed links carries the
            // burst process (seeded per link, so shards stay
            // self-contained).
            for link in (0..sim.link_count()).step_by(8) {
                let _ = sim
                    .engine_mut(link)
                    .injector_mut()
                    .push_spec(&burst_spec(), SEED ^ (link as u64 + 1));
            }
        }
        Scenario::LinkDown => sim.set_link_down(0, true),
    }
    for _ in 0..CYCLES {
        let _ = sim.step(true);
    }
    let mut drained = 0;
    while !sim.idle() && drained < DRAIN_CYCLES {
        let _ = sim.step(false);
        drained += 1;
    }
    sim.finish()
}

/// The static shard list: every catalog scheme × every scenario.
#[must_use]
pub fn bench_cells() -> Vec<(Scheme, Scenario)> {
    let mut cells = Vec::new();
    for scheme in Scheme::catalog() {
        for scenario in Scenario::all() {
            cells.push((scheme, scenario));
        }
    }
    cells
}

/// Runs the (scheme, scenario) cells under `ctx`: the latency run and
/// the saturation run of each cell are two sub-runs, with health scopes
/// `scheme/scenario/latency` and `scheme/scenario/saturation`. Rows,
/// the recording and the incident report are byte-identical for every
/// thread count.
#[must_use]
pub fn run_bench(cells: &[(Scheme, Scenario)], ctx: &RunCtx) -> Run<(Scheme, Scenario, MeshRun)> {
    run_cells(ctx, cells, |&(scheme, scenario), probe| {
        let mut sim = |rate: f64, sub: &str| {
            let scope = format!("{}/{}/{sub}", scheme.name(), scenario.name());
            run_sim(scheme, scenario, rate, probe.open(&scope))
        };
        let latency = sim(LATENCY_RATE, "latency");
        let saturation = sim(SATURATION_RATE, "saturation");
        (
            scheme,
            scenario,
            MeshRun {
                latency,
                saturation,
            },
        )
    })
}

/// The pattern-sweep rows: a representative scheme subset × every
/// traffic pattern, clean links at the light rate.
#[must_use]
pub fn pattern_cells() -> Vec<(Scheme, MeshPattern)> {
    let mut cells = Vec::new();
    for scheme in [Scheme::Parity, Scheme::Dap, Scheme::ExtHamming] {
        for pattern in [
            MeshPattern::Uniform,
            MeshPattern::Hotspot {
                node: (HEIGHT / 2) * WIDTH + WIDTH / 2,
                fraction: 0.5,
            },
            MeshPattern::Transpose,
        ] {
            cells.push((scheme, pattern));
        }
    }
    cells
}

/// Runs the pattern sweep on up to `threads` workers.
#[must_use]
pub fn run_patterns_parallel(threads: usize) -> Vec<(Scheme, MeshPattern, MeshReport)> {
    let cells = pattern_cells();
    run_shards(threads, &cells, |_, &(scheme, pattern)| {
        let cfg = mesh_config(scheme, LATENCY_RATE, pattern, 0.0);
        let report = socbus_noc::mesh::simulate_mesh(&cfg, CYCLES, DRAIN_CYCLES, SEED, SEED ^ 0xA5);
        (scheme, pattern, report)
    })
}

fn write_report_fields(json: &mut String, r: &MeshReport) {
    let _ = write!(json, "\"injected\": {}, ", r.injected);
    let _ = write!(json, "\"delivered\": {}, ", r.delivered);
    let _ = write!(json, "\"flagged_lost\": {}, ", r.flagged_lost);
    let _ = write!(json, "\"e2e_retransmits\": {}, ", r.e2e_retransmits);
    let _ = write!(json, "\"dropped_poisoned\": {}, ", r.dropped_poisoned);
    let _ = write!(json, "\"throughput\": {}, ", num(r.throughput()));
    let _ = write!(json, "\"p50_latency\": {}, ", r.latency_quantile(0.5));
    let _ = write!(json, "\"p95_latency\": {}, ", r.latency_quantile(0.95));
    let _ = write!(json, "\"p99_latency\": {}, ", r.latency_quantile(0.99));
    let _ = write!(json, "\"max_latency\": {}", r.max_latency());
}

fn pattern_name(pattern: MeshPattern) -> &'static str {
    match pattern {
        MeshPattern::Uniform => "uniform",
        MeshPattern::Hotspot { .. } => "hotspot",
        MeshPattern::Transpose => "transpose",
    }
}

/// Renders the benchmark JSON (the `results/BENCH_mesh.json` format).
#[must_use]
pub fn render_json(
    runs: &[(Scheme, Scenario, MeshRun)],
    patterns: &[(Scheme, MeshPattern, MeshReport)],
) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"data_bits\": {DATA_BITS},");
    let _ = writeln!(json, "  \"mesh\": \"{WIDTH}x{HEIGHT}\",");
    let _ = writeln!(json, "  \"cycles\": {CYCLES},");
    let _ = writeln!(json, "  \"latency_rate\": {LATENCY_RATE},");
    let _ = writeln!(json, "  \"saturation_rate\": {SATURATION_RATE},");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    json.push_str("  \"runs\": [\n");
    push_rows(&mut json, runs, |json, (scheme, scenario, run)| {
        json.push_str("    {");
        let _ = write!(json, "\"scheme\": \"{}\", ", scheme.name());
        let _ = write!(json, "\"scenario\": \"{}\", ", scenario.name());
        json.push_str("\"latency_run\": {");
        write_report_fields(json, &run.latency);
        json.push_str("}, \"saturation_run\": {");
        write_report_fields(json, &run.saturation);
        json.push_str("}}");
    });
    json.push_str("\n  ],\n");
    json.push_str("  \"patterns\": [\n");
    push_rows(&mut json, patterns, |json, (scheme, pattern, report)| {
        json.push_str("    {");
        let _ = write!(json, "\"scheme\": \"{}\", ", scheme.name());
        let _ = write!(json, "\"pattern\": \"{}\", ", pattern_name(*pattern));
        write_report_fields(json, report);
        json.push('}');
    });
    json.push_str("\n  ]\n}\n");
    json
}

/// The `mesh` benchmark binary's entry point.
/// Args: `[--threads N] [--trace-out <path>] [--health-out <path>]
/// [out_path]`.
/// Returns the process exit code.
#[must_use]
pub fn main_with_args(args: &[String]) -> i32 {
    let args = match RunArgs::parse(
        "mesh",
        args,
        &["--threads", "--trace-out", "--health-out"],
        "results/BENCH_mesh.json",
        None,
    ) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let started = std::time::Instant::now();
    let run = run_bench(&bench_cells(), &args.ctx());
    let patterns = run_patterns_parallel(args.threads);
    let wall = started.elapsed();
    for (scheme, scenario, run) in &run.outcomes {
        eprintln!(
            "{:<14} {:<10} p50 {:>3}  p99 {:>4}  lost {:>3}  saturation {:>8} pkt/cycle",
            scheme.name(),
            scenario.name(),
            run.latency.latency_quantile(0.5),
            run.latency.latency_quantile(0.99),
            run.latency.flagged_lost,
            num(run.saturation.throughput()),
        );
    }
    args.write_run(&render_json(&run.outcomes, &patterns), &run);
    eprintln!(
        "mesh: {} cells x 2 runs + {} pattern rows on {} thread(s) in {:.2}s -> {}",
        run.outcomes.len(),
        patterns.len(),
        args.threads,
        wall.as_secs_f64(),
        args.out
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use socbus_chaos::Observe;

    #[test]
    fn grid_covers_every_scheme_and_scenario() {
        let cells = bench_cells();
        assert_eq!(cells.len(), Scheme::catalog().len() * Scenario::all().len());
        assert_eq!(pattern_cells().len(), 9);
    }

    #[test]
    fn clean_and_link_down_runs_deliver_everything() {
        let cells = [
            (Scheme::Dap, Scenario::Clean),
            (Scheme::Dap, Scenario::LinkDown),
        ];
        let rows = run_bench(&cells, &RunCtx::new(2, Observe::Off)).outcomes;
        for (_, scenario, run) in rows {
            assert!(run.latency.injected > 0);
            assert_eq!(
                run.latency.flagged_lost,
                0,
                "{}: clean links must not lose packets",
                scenario.name()
            );
            assert_eq!(run.latency.delivered, run.latency.injected);
        }
    }

    #[test]
    fn saturation_run_shows_the_load_response() {
        // The heavy-rate run must deliver more per cycle than the light
        // run (the fabric is not already saturated at 8%), stay at or
        // below the offered load, and show queueing in its latency
        // distribution — the three properties that make the two-rate
        // comparison meaningful.
        let cells = [(Scheme::Parity, Scenario::Clean)];
        let (_, _, run) = run_bench(&cells, &RunCtx::new(1, Observe::Off))
            .outcomes
            .pop()
            .expect("one row");
        let offered = 16.0 * SATURATION_RATE;
        assert!(run.saturation.throughput() <= offered);
        assert!(run.saturation.throughput() > run.latency.throughput());
        assert!(run.latency.latency_quantile(0.5) <= run.saturation.latency_quantile(0.5));
        assert!(run.latency.max_latency() < run.saturation.max_latency());
    }
}

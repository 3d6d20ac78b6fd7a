//! Reliability sweep: every catalog scheme against every fault model,
//! on the deterministic parallel engine.
//!
//! The paper's analysis assumes i.i.d. wire flips (eq. (5)); real
//! interconnect also suffers burst noise, hard defects (stuck-at and
//! bridging faults), and transient supply droop. This sweep runs each
//! coding scheme over a 16-bit link under one fault process at a time
//! and records the residual reliability, correction/detection activity,
//! and cost (cycles, energy), so the schemes' robustness can be compared
//! beyond the regime they were designed for.
//!
//! One (scheme, fault) run is one shard: the grid is a static list, each
//! run's link engine and traffic generator are constructed inside the
//! shard from the run's own seeds, and results merge in grid order — so
//! the JSON written to `results/BENCH_reliability.json` is byte-identical
//! for `--threads 1` and `--threads N`, which CI `cmp`s.
//!
//! Run with `cargo run --release -p socbus-bench --bin reliability`
//! (add `--threads N` to override the worker count, `--trace-out <path>`
//! for a telemetry event log plus Perfetto trace of the sweep).

use std::fmt::Write as _;

use socbus_channel::{BridgeMode, FaultSpec};
use socbus_chaos::ctx::{num, push_rows, run_cells, Run, RunArgs, RunCtx};
use socbus_codes::Scheme;
use socbus_noc::link::{simulate_link_with, LinkConfig, LinkReport};
use socbus_noc::traffic::UniformTraffic;

/// Data bits per transferred word.
pub const DATA_BITS: usize = 16;
/// Words per (scheme, fault) run.
pub const WORDS: usize = 20_000;
/// Root seed of the sweep (traffic seed is `SEED ^ 0xA5`).
pub const SEED: u64 = 17;
/// Coupling ratio λ used for the energy-per-word column.
pub const LAMBDA: f64 = 2.8;

/// One representative instance of each fault model, named for the JSON.
#[must_use]
pub fn fault_suite() -> Vec<(&'static str, FaultSpec)> {
    vec![
        ("iid", FaultSpec::Iid { eps: 1e-3 }),
        (
            "burst",
            FaultSpec::Burst {
                eps_good: 1e-4,
                eps_bad: 0.05,
                p_enter: 0.01,
                p_exit: 0.2,
            },
        ),
        (
            "stuck_at_0",
            FaultSpec::StuckAt {
                wire: 0,
                value: false,
            },
        ),
        (
            "bridge_or",
            FaultSpec::Bridge {
                wire: 1,
                mode: BridgeMode::Or,
            },
        ),
        (
            "droop",
            FaultSpec::Droop {
                eps: 1e-4,
                scale: 100.0,
                start: 5_000,
                duration: 2_000,
            },
        ),
    ]
}

/// The static shard list: every catalog scheme × every fault model, in
/// the (scheme-major) order the JSON renders.
#[must_use]
pub fn sweep_cells() -> Vec<(Scheme, &'static str, FaultSpec)> {
    let mut cells = Vec::new();
    for scheme in Scheme::catalog() {
        for (fault_name, spec) in fault_suite() {
            cells.push((scheme, fault_name, spec));
        }
    }
    cells
}

/// One (scheme, fault) run of the sweep.
pub type SweepRun = (Scheme, &'static str, FaultSpec, LinkReport);

/// Runs the (scheme, fault) cells under `ctx`, one sub-run per cell with
/// health scope `scheme/fault`; reports, and the recording, come back in
/// grid order, identically for every thread count.
#[must_use]
pub fn run_sweep(cells: &[(Scheme, &'static str, FaultSpec)], ctx: &RunCtx) -> Run<SweepRun> {
    run_cells(ctx, cells, |&(scheme, fault_name, ref spec), probe| {
        let cfg = LinkConfig::new(scheme, DATA_BITS, 0.0).with_fault(spec.clone());
        let traffic = UniformTraffic::new(DATA_BITS, SEED ^ 0xA5).take(WORDS);
        let tel = probe.open(&format!("{}/{fault_name}", scheme.name()));
        let report = simulate_link_with(&cfg, traffic, SEED, tel);
        (scheme, fault_name, spec.clone(), report)
    })
}

/// Renders the sweep JSON (the `results/BENCH_reliability.json` format).
#[must_use]
pub fn render_json(runs: &[SweepRun]) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"data_bits\": {DATA_BITS},");
    let _ = writeln!(json, "  \"words_per_run\": {WORDS},");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"lambda\": {LAMBDA},");
    json.push_str("  \"runs\": [\n");
    push_rows(&mut json, runs, |json, (scheme, fault_name, spec, r)| {
        json.push_str("    {");
        let _ = write!(json, "\"scheme\": \"{}\", ", scheme.name());
        let _ = write!(json, "\"fault\": \"{fault_name}\", ");
        let _ = write!(json, "\"fault_detail\": \"{}\", ", spec.label());
        let _ = write!(json, "\"offered\": {}, ", r.offered);
        let _ = write!(json, "\"residual_errors\": {}, ", r.residual_errors);
        let _ = write!(json, "\"residual_rate\": {}, ", num(r.residual_rate()));
        let _ = write!(json, "\"corrected\": {}, ", r.corrected);
        let _ = write!(json, "\"detected\": {}, ", r.detected);
        let _ = write!(json, "\"retransmits\": {}, ", r.retransmits);
        let _ = write!(json, "\"cycles\": {}, ", r.cycles);
        let _ = write!(
            json,
            "\"energy_per_word\": {}",
            num(r.energy_per_word(LAMBDA))
        );
        json.push('}');
    });
    json.push_str("\n  ]\n}\n");
    json
}

/// The `reliability` binary's entry point.
/// Args: `[--threads N] [--trace-out <path>] [out_path]`.
/// Returns the process exit code.
#[must_use]
pub fn main_with_args(args: &[String]) -> i32 {
    let args = match RunArgs::parse(
        "reliability",
        args,
        &["--threads", "--trace-out"],
        "results/BENCH_reliability.json",
        None,
    ) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let started = std::time::Instant::now();
    let run = run_sweep(&sweep_cells(), &args.ctx());
    let wall = started.elapsed();
    for (scheme, fault_name, _, r) in &run.outcomes {
        eprintln!(
            "{:<14} {:<11} residual {:>10.3e}  corrected {:>6}  detected {:>6}",
            scheme.name(),
            fault_name,
            r.residual_rate(),
            r.corrected,
            r.detected,
        );
    }
    args.write_run(&render_json(&run.outcomes), &run);
    let schemes = Scheme::catalog().len();
    let faults = fault_suite().len();
    eprintln!(
        "wrote {} runs ({schemes} schemes x {faults} fault models) on {} thread(s) in {:.2}s to {}",
        run.outcomes.len(),
        args.threads,
        wall.as_secs_f64(),
        args.out
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ISSUE 4 satellite: every catalog scheme (sabotage excluded)
    /// appears in the reliability sweep against every fault model, so a
    /// newly cataloged scheme cannot silently skip the sweep matrix.
    #[test]
    fn sweep_covers_every_catalog_scheme_and_fault() {
        let cells = sweep_cells();
        let faults = fault_suite();
        for scheme in Scheme::catalog() {
            for (fault_name, _) in &faults {
                assert!(
                    cells
                        .iter()
                        .any(|(s, f, _)| *s == scheme && f == fault_name),
                    "{} x {fault_name} missing from the reliability sweep",
                    scheme.name()
                );
            }
        }
        assert!(cells.iter().all(|(s, _, _)| *s != Scheme::Sabotaged));
        assert_eq!(cells.len(), Scheme::catalog().len() * faults.len());
    }

    /// Sweep shards cross threads: descriptor and result must be Send.
    #[test]
    fn sweep_shard_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<(Scheme, &'static str, FaultSpec)>();
        assert_send::<SweepRun>();
    }
}

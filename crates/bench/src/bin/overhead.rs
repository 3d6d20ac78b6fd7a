//! Telemetry overhead gate: the disabled-telemetry path must cost
//! nothing, and even a fully *enabled* no-op sink (labels built, every
//! site dispatched, nothing recorded) must stay within a few percent of
//! the untraced soak campaign.
//!
//! Methodology: run the campaign `--runs` times per configuration,
//! interleaved (off, noop, off, noop, ...) so thermal/cache drift hits
//! both sides equally, and compare the *minimum* wall time of each side
//! — min-of-runs is the standard way to strip scheduler noise from a
//! deterministic workload. Wall-clock numbers go to stderr only; the
//! exit code is the verdict.
//!
//! Run with `cargo run --release -p socbus-bench --bin overhead`
//! (`--full` for the full-length campaign, `--runs N`, `--gate PCT`).

use std::time::{Duration, Instant};

use socbus_chaos::campaign::{campaign_cells, render_json, FULL_WORDS, HOPS, SMOKE_WORDS};
use socbus_chaos::{build_case, run_case_with};
use socbus_telemetry::Telemetry;

/// Runs the soak campaign sequentially, every cell dispatching into the
/// one shared `tel` (a `Telemetry` is not `Sync`, so a shared sink
/// cannot ride the sharded driver).
fn time_campaign(words: u64, tel: &Telemetry) -> (Duration, String) {
    let start = Instant::now();
    let outcomes: Vec<_> = campaign_cells(words)
        .into_iter()
        .map(|(scheme, family, seed)| {
            let cfg = build_case(scheme, family, seed, words, HOPS);
            let out = run_case_with(&cfg, tel.clone());
            (cfg.name, out)
        })
        .collect();
    let elapsed = start.elapsed();
    (elapsed, render_json(words, &outcomes))
}

#[allow(clippy::cast_precision_loss)]
fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut words = SMOKE_WORDS;
    let mut runs: u32 = 3;
    let mut gate_pct: f64 = 3.0;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--full" => words = FULL_WORDS,
            "--runs" => {
                runs = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("overhead: --runs needs a positive integer");
                    std::process::exit(2);
                });
            }
            "--gate" => {
                gate_pct = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("overhead: --gate needs a percentage");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("overhead: unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    if runs == 0 {
        eprintln!("overhead: --runs must be at least 1");
        std::process::exit(2);
    }

    // Warm-up run (not timed) so lazily-faulted pages and the allocator
    // are in steady state before either side is measured.
    let (_, baseline_json) = time_campaign(words, &Telemetry::off());

    let mut off_min = Duration::MAX;
    let mut noop_min = Duration::MAX;
    for run in 0..runs {
        let (off, off_json) = time_campaign(words, &Telemetry::off());
        let (noop, noop_json) = time_campaign(words, &Telemetry::noop());
        assert_eq!(
            off_json, baseline_json,
            "campaign output drifted between runs"
        );
        assert_eq!(
            noop_json, baseline_json,
            "telemetry perturbed the campaign output"
        );
        off_min = off_min.min(off);
        noop_min = noop_min.min(noop);
        eprintln!("run {run}: off {:.3}s  noop {:.3}s", secs(off), secs(noop));
    }

    let overhead_pct = (secs(noop_min) / secs(off_min) - 1.0) * 100.0;
    eprintln!(
        "overhead: off min {:.3}s, noop min {:.3}s -> {overhead_pct:+.2}% (gate {gate_pct}%)",
        secs(off_min),
        secs(noop_min)
    );
    if overhead_pct > gate_pct {
        eprintln!("overhead: FAIL — no-op sink costs more than {gate_pct}%");
        std::process::exit(1);
    }
    eprintln!("overhead: PASS");
}

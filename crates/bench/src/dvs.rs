//! Closed-loop DVS vs static worst-case margining, per scheme × fault
//! family.
//!
//! The paper's voltage-scaling story (eq. (11)) is *open-loop*: pick the
//! swing once, from the worst-case noise estimate, and guard-band it.
//! Kaul-style closed-loop DVS instead observes the link's own retry and
//! detection telemetry and lowers the swing until the code starts
//! earning its keep, slamming back to the worst-case margin when a fault
//! storm hits. This bench quantifies the gap: every detecting scheme in
//! the catalog runs the same seeded fault timeline twice —
//!
//! * **static** — pinned at the worst-case margin swing (a one-point
//!   controller policy, so both variants share every code path);
//! * **closed** — the [`socbus_noc::control`] controller walking a
//!   three-point swing ladder under the same policy thresholds the
//!   chaos campaign uses.
//!
//! Both variants run inside the chaos runner with all five invariant
//! monitors armed, so every cell of the grid is also a safe-state
//! proof obligation: the JSON's `violations` column must be zero.
//!
//! The WER gate is on the *undetected* residual rate
//! ([`socbus_noc::link::LinkReport::undetected_rate`]): wrong words
//! delivered while claiming to be clean or corrected. A detect-only
//! scheme under a persistent stuck-at exhausts its retry budget and
//! force-delivers words flagged `Detected` — the upstream protocol
//! knows those are bad, and the static margin variant suffers them
//! identically, so they measure the fault, not the controller. The
//! paper's residual WER is likewise the rate of errors that *escape*
//! the code. The raw `residual_rate` (flagged deliveries included) is
//! still reported per variant for comparison.
//!
//! One (scheme, family) cell is one shard on the deterministic parallel
//! engine; results merge in grid order, so `results/BENCH_dvs.json` is
//! byte-identical for `--threads 1` and `--threads N` (CI `cmp`s the
//! two, and two consecutive runs).
//!
//! Run with `cargo run --release -p socbus-bench --bin dvs` (add
//! `--threads N` to override the worker count, `--trace-out <path>` for
//! a telemetry log plus Perfetto trace, `--health-out <path>` for a
//! `socbus-incident v1` report with one scope per variant run).

use std::fmt::Write as _;

use socbus_channel::FaultSpec;
use socbus_chaos::ctx::{num, push_rows, run_cells, Run, RunArgs, RunCtx};
use socbus_chaos::runner::{run_case_with, CaseConfig, CaseOutcome};
use socbus_chaos::schedule::{FaultSchedule, ScheduleAction, ScheduleEvent, ScheduleFamily};
use socbus_codes::Scheme;
use socbus_noc::link::Protocol;
use socbus_noc::{ControlPolicy, OperatingPoint};

/// Data bits per transferred word.
pub const DATA_BITS: usize = 16;
/// Words per cell run.
pub const WORDS: u64 = 4_000;
/// Hops in the path (the controller is per-link; one hop isolates it).
pub const HOPS: usize = 1;
/// Baseline i.i.d. per-wire flip probability at nominal swing.
pub const BASE_EPS: f64 = 1e-4;
/// Coupling ratio λ for the energy-per-word column.
pub const LAMBDA: f64 = 2.8;
/// Undetected residual word-error-rate target no cell may exceed.
pub const TARGET_WER: f64 = 1e-2;
/// The worst-case guard-band swing both variants fall back to.
pub const MARGIN_SWING: f64 = 1.4;

/// The closed-loop policy for one scheme: a three-point swing ladder
/// (worst-case margin, nominal, reduced) over the *same* code, so the
/// guarantee ladder is trivially nonincreasing and the energy delta is
/// purely the controller's doing.
#[must_use]
pub fn closed_policy(scheme: Scheme) -> ControlPolicy {
    ControlPolicy {
        points: vec![
            OperatingPoint {
                swing: MARGIN_SWING,
                scheme,
            },
            OperatingPoint { swing: 1.0, scheme },
            OperatingPoint { swing: 0.9, scheme },
        ],
        target_wer: TARGET_WER,
        window: 32,
        dwell: 3,
        lower_trouble: 0.05,
        raise_trouble: 0.15,
        storm_trouble: 0.3,
    }
}

/// The static worst-case baseline: the same controller machinery pinned
/// to the margin point (a one-point ladder can never move, so the two
/// variants differ only in the policy, never in the code path).
#[must_use]
pub fn static_policy(scheme: Scheme) -> ControlPolicy {
    ControlPolicy {
        points: vec![OperatingPoint {
            swing: MARGIN_SWING,
            scheme,
        }],
        ..closed_policy(scheme)
    }
}

/// The hand-laid fault timeline for one family — deterministic, gentler
/// than the chaos campaign's randomized schedules, and scaled so a
/// well-behaved controller keeps the residual rate under [`TARGET_WER`]
/// while still being forced through retreats and emergencies.
#[must_use]
pub fn family_schedule(family: ScheduleFamily) -> FaultSchedule {
    let burst = FaultSpec::Burst {
        eps_good: 1e-4,
        eps_bad: 0.015,
        p_enter: 0.03,
        p_exit: 0.3,
    };
    let droop = |duration: u64| FaultSpec::Droop {
        eps: 1e-4,
        scale: 150.0,
        start: 40,
        duration,
    };
    let stuck = FaultSpec::StuckAt {
        wire: 3,
        value: true,
    };
    let bridge = FaultSpec::Bridge {
        wire: 5,
        mode: socbus_channel::BridgeMode::Or,
    };
    let events = match family {
        ScheduleFamily::BurstTrain => vec![
            activate(600, 0, burst.clone()),
            deactivate(1_200, 0),
            activate(2_600, 1, burst),
            deactivate(3_100, 1),
        ],
        ScheduleFamily::DroopStorm => vec![
            activate(900, 0, droop(600)),
            deactivate(1_800, 0),
            activate(2_700, 1, droop(600)),
            deactivate(3_600, 1),
        ],
        ScheduleFamily::HardWindow => vec![
            activate(1_200, 0, stuck),
            deactivate(1_700, 0),
            activate(2_400, 1, bridge),
            deactivate(2_800, 1),
        ],
        ScheduleFamily::MixedMayhem => vec![
            activate(500, 0, burst),
            deactivate(900, 0),
            activate(1_600, 1, stuck),
            deactivate(1_900, 1),
            activate(2_800, 2, droop(400)),
            deactivate(3_400, 2),
        ],
    };
    FaultSchedule { events }
}

fn activate(at_word: u64, id: u32, spec: FaultSpec) -> ScheduleEvent {
    ScheduleEvent {
        at_word,
        action: ScheduleAction::Activate { id, hop: 0, spec },
    }
}

fn deactivate(at_word: u64, id: u32) -> ScheduleEvent {
    ScheduleEvent {
        at_word,
        action: ScheduleAction::Deactivate { id },
    }
}

/// The static shard list: every detecting scheme × every fault family.
#[must_use]
pub fn bench_cells() -> Vec<(Scheme, ScheduleFamily, u64)> {
    let mut cells = Vec::new();
    for (si, scheme) in Scheme::detecting().into_iter().enumerate() {
        for (fi, family) in ScheduleFamily::all().into_iter().enumerate() {
            let seed = (si * ScheduleFamily::all().len() + fi) as u64 + 1;
            cells.push((scheme, family, seed));
        }
    }
    cells
}

/// Assembles one variant of one cell. Both variants of a cell share the
/// name prefix, seeds, schedule, and protocol — only the policy differs.
#[must_use]
pub fn cell_case(
    scheme: Scheme,
    family: ScheduleFamily,
    seed: u64,
    policy: ControlPolicy,
    variant: &str,
) -> CaseConfig {
    policy
        .validate(DATA_BITS)
        .expect("dvs bench policy must validate");
    CaseConfig {
        name: format!("{}/{}/{variant}", scheme.name(), family.name()),
        scheme,
        data_bits: DATA_BITS,
        hops: HOPS,
        eps: BASE_EPS,
        protocol: Protocol::DetectRetransmit {
            rtt_cycles: 3,
            max_retries: 3,
        },
        degradation: None,
        controller: Some(policy),
        words: WORDS,
        traffic_seed: seed ^ 0xA5A5,
        sim_seed: seed,
        schedule: family_schedule(family),
    }
}

/// One cell of the grid, both variants run.
pub struct CellRow {
    /// The cell's coding scheme.
    pub scheme: Scheme,
    /// The cell's fault family.
    pub family: ScheduleFamily,
    /// Outcome pinned at the worst-case margin.
    pub fixed: CaseOutcome,
    /// Outcome under the closed-loop controller.
    pub closed: CaseOutcome,
}

impl CellRow {
    fn hop(out: &CaseOutcome) -> &socbus_noc::link::LinkReport {
        &out.report.per_hop[0]
    }

    /// Fraction of the static energy the closed loop saved.
    #[must_use]
    pub fn energy_saved_frac(&self) -> f64 {
        let fixed = Self::hop(&self.fixed).energy_per_word(LAMBDA);
        let closed = Self::hop(&self.closed).energy_per_word(LAMBDA);
        if fixed == 0.0 {
            0.0
        } else {
            1.0 - closed / fixed
        }
    }

    /// Whether the closed loop spent less energy than the margin run.
    #[must_use]
    pub fn saved(&self) -> bool {
        self.energy_saved_frac() > 0.0
    }

    /// Whether the closed-loop *undetected* residual rate stayed at or
    /// under target (see the module docs for why flagged force-delivered
    /// words are excluded).
    #[must_use]
    pub fn wer_met(&self) -> bool {
        Self::hop(&self.closed).undetected_rate() <= TARGET_WER
    }

    /// Total invariant violations across both variants.
    #[must_use]
    pub fn violations(&self) -> usize {
        self.fixed.violations.len() + self.closed.violations.len()
    }
}

/// Runs the (scheme, family, seed) cells under `ctx`: the static and
/// the closed variant of each cell are two sub-runs, with health scopes
/// `scheme/family/static` and `scheme/family/closed`. Rows, the
/// recording and the incident report are byte-identical for every
/// thread count.
#[must_use]
pub fn run_bench(cells: &[(Scheme, ScheduleFamily, u64)], ctx: &RunCtx) -> Run<CellRow> {
    run_cells(ctx, cells, |&(scheme, family, seed), probe| {
        let mut variant = |policy: ControlPolicy, name: &str| {
            let cfg = cell_case(scheme, family, seed, policy, name);
            run_case_with(&cfg, probe.open(&cfg.name))
        };
        let fixed = variant(static_policy(scheme), "static");
        let closed = variant(closed_policy(scheme), "closed");
        CellRow {
            scheme,
            family,
            fixed,
            closed,
        }
    })
}

fn variant_json(out: &CaseOutcome) -> String {
    let hop = &out.report.per_hop[0];
    let emergencies = hop
        .control
        .iter()
        .filter(|t| t.cause == socbus_noc::ControlCause::Emergency)
        .count();
    format!(
        "{{\"energy_per_word\": {}, \"residual_rate\": {}, \"undetected_rate\": {}, \
         \"cycles_per_word\": {}, \"transitions\": {}, \"emergencies\": {emergencies}}}",
        num(hop.energy_per_word(LAMBDA)),
        num(hop.residual_rate()),
        num(hop.undetected_rate()),
        num(out.report.cycles_per_word()),
        hop.control.len(),
    )
}

/// Renders the `results/BENCH_dvs.json` format.
#[must_use]
pub fn render_json(rows: &[CellRow]) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"data_bits\": {DATA_BITS},");
    let _ = writeln!(json, "  \"words_per_cell\": {WORDS},");
    let _ = writeln!(json, "  \"hops\": {HOPS},");
    let _ = writeln!(json, "  \"lambda\": {LAMBDA},");
    let _ = writeln!(json, "  \"base_eps\": {}, ", num(BASE_EPS));
    let _ = writeln!(json, "  \"margin_swing\": {MARGIN_SWING},");
    let _ = writeln!(json, "  \"target_wer\": {},", num(TARGET_WER));
    json.push_str("  \"cells\": [\n");
    push_rows(&mut json, rows, |json, row| {
        json.push_str("    {");
        let _ = write!(json, "\"scheme\": \"{}\", ", row.scheme.name());
        let _ = write!(json, "\"family\": \"{}\", ", row.family.name());
        let _ = write!(json, "\"static\": {}, ", variant_json(&row.fixed));
        let _ = write!(json, "\"closed\": {}, ", variant_json(&row.closed));
        let _ = write!(
            json,
            "\"energy_saved_frac\": {}, ",
            num(row.energy_saved_frac())
        );
        let _ = write!(json, "\"saved\": {}, ", row.saved());
        let _ = write!(json, "\"wer_met\": {}, ", row.wer_met());
        let _ = write!(json, "\"violations\": {}", row.violations());
        json.push('}');
    });
    json.push_str("\n  ],\n");
    let saving = rows.iter().filter(|r| r.saved()).count();
    let wer_ok = rows.iter().all(CellRow::wer_met);
    let violations: usize = rows.iter().map(CellRow::violations).sum();
    let worst_residual = rows
        .iter()
        .map(|r| CellRow::hop(&r.closed).undetected_rate())
        .fold(0.0_f64, f64::max);
    let gate = gate_passed(rows);
    json.push_str("  \"summary\": {\n");
    let _ = writeln!(json, "    \"cells\": {},", rows.len());
    let _ = writeln!(json, "    \"cells_saving\": {saving},");
    let _ = writeln!(
        json,
        "    \"worst_closed_undetected\": {},",
        num(worst_residual)
    );
    let _ = writeln!(json, "    \"wer_met_everywhere\": {wer_ok},");
    let _ = writeln!(json, "    \"violations\": {violations},");
    let _ = writeln!(json, "    \"gate_passed\": {gate}");
    json.push_str("  }\n}\n");
    json
}

/// Whether the bench gate holds: the closed loop saves energy on at
/// least half the cells, never exceeds the residual target, and no
/// invariant (including control-safe-state) was violated anywhere.
#[must_use]
pub fn gate_passed(rows: &[CellRow]) -> bool {
    let saving = rows.iter().filter(|r| r.saved()).count();
    saving * 2 >= rows.len()
        && rows.iter().all(CellRow::wer_met)
        && rows.iter().all(|r| r.violations() == 0)
}

/// The `dvs` binary's entry point.
/// Args: `[--threads N] [--trace-out <path>] [--health-out <path>]
/// [out_path]`.
/// Returns the process exit code (nonzero iff the gate fails).
#[must_use]
pub fn main_with_args(args: &[String]) -> i32 {
    let args = match RunArgs::parse(
        "dvs",
        args,
        &["--threads", "--trace-out", "--health-out"],
        "results/BENCH_dvs.json",
        None,
    ) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let started = std::time::Instant::now();
    let run = run_bench(&bench_cells(), &args.ctx());
    let wall = started.elapsed();
    let rows = &run.outcomes;
    for row in rows {
        eprintln!(
            "{:<14} {:<12} static {:>9.3e}  closed {:>9.3e}  saved {:>6.1}%  undetected {:>9.3e}  viol {}",
            row.scheme.name(),
            row.family.name(),
            CellRow::hop(&row.fixed).energy_per_word(LAMBDA),
            CellRow::hop(&row.closed).energy_per_word(LAMBDA),
            row.energy_saved_frac() * 100.0,
            CellRow::hop(&row.closed).undetected_rate(),
            row.violations(),
        );
    }
    args.write_run(&render_json(rows), &run);
    let saving = rows.iter().filter(|r| r.saved()).count();
    let gate = gate_passed(rows);
    eprintln!(
        "dvs: {} cells ({saving} saving energy) on {} thread(s) in {:.2}s -> {} (gate {})",
        rows.len(),
        args.threads,
        wall.as_secs_f64(),
        args.out,
        if gate { "PASSED" } else { "FAILED" },
    );
    i32::from(!gate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use socbus_chaos::Observe;

    /// Every detecting scheme appears against every family, and both
    /// policies validate for each.
    #[test]
    fn grid_covers_every_detecting_scheme() {
        let cells = bench_cells();
        assert_eq!(
            cells.len(),
            Scheme::detecting().len() * ScheduleFamily::all().len()
        );
        for &(scheme, family, seed) in &cells {
            let fixed = cell_case(scheme, family, seed, static_policy(scheme), "static");
            let closed = cell_case(scheme, family, seed, closed_policy(scheme), "closed");
            assert_eq!(fixed.sim_seed, closed.sim_seed);
            assert_eq!(fixed.schedule, closed.schedule);
        }
    }

    /// Cell rows cross threads: the shard result must be Send.
    #[test]
    fn bench_shard_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<(Scheme, ScheduleFamily, u64)>();
        assert_send::<CellRow>();
    }

    /// One full cell, both variants: the closed loop must save energy,
    /// hold the residual target, and keep every invariant.
    #[test]
    fn droop_cell_saves_energy_within_the_wer_target() {
        let cells = [(Scheme::Parity, ScheduleFamily::DroopStorm, 2u64)];
        let mut rows = run_bench(&cells, &RunCtx::new(1, Observe::Off)).outcomes;
        let row = rows.pop().expect("one row");
        assert_eq!(row.violations(), 0, "{:?}", row.closed.violations.first());
        assert!(row.saved(), "saved {:.3}", row.energy_saved_frac());
        assert!(row.wer_met());
        assert!(
            !CellRow::hop(&row.closed).control.is_empty(),
            "the droop storm must move the controller"
        );
    }
}

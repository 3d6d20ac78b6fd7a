//! One run context for every sharded campaign.
//!
//! Every sharded workload — the soak, controller and mesh campaigns and
//! the mesh, DVS and reliability benches — is one cell body handed to
//! [`run_cells`]: each cell is a shard on [`socbus_exec::run_shards`],
//! each of its sub-runs records into a private [`Recorder`] and folds
//! into one incident-report scope, and the merge absorbs the recorders
//! and pushes the scopes in cell order, then sub-run order — so every
//! output is byte-identical at any thread count. [`RunArgs`] is the
//! shared command line and output writer. The module lives in chaos
//! because chaos already depends on exec and telemetry; a new edge
//! between the crates the end-to-end benchmark builds would break its
//! locked build (DESIGN.md §12).

use std::path::Path;
use std::rc::Rc;

use socbus_exec::{default_threads, parse_threads, run_shards};
use socbus_telemetry::{
    HealthAggregator, HealthConfig, HealthReport, Recorder, ScopeReport, Telemetry,
};

/// What a sharded run observes besides its outcomes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Observe {
    /// Telemetry off: every sub-run gets [`Telemetry::off`].
    Off,
    /// Every sub-run records into a private recorder; the recorders are
    /// absorbed into one in cell order.
    Trace,
    /// `Trace`, plus each sub-run's stream folded through the health
    /// aggregator (default [`HealthConfig`]) into one incident-report
    /// scope.
    Health,
}

/// The run context every sharded workload driver takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunCtx {
    /// Worker threads (the output is identical for every value ≥ 1).
    pub threads: usize,
    /// What the run observes.
    pub observe: Observe,
}

impl RunCtx {
    /// A context on `threads` workers observing `observe`.
    #[must_use]
    pub fn new(threads: usize, observe: Observe) -> Self {
        RunCtx { threads, observe }
    }
}

/// The merged result of [`run_cells`].
pub struct Run<T> {
    /// One outcome per cell, in cell order.
    pub outcomes: Vec<T>,
    /// Every sub-run's recording absorbed in order (`Trace`, `Health`).
    pub recorder: Option<Recorder>,
    /// One scope per sub-run in the same order (`Health` only).
    pub health: Option<HealthReport>,
}

/// One sub-run's private recorder and, once folded, its scope.
struct SubRun {
    scope: String,
    recorder: Rc<Recorder>,
    report: Option<ScopeReport>,
}

impl SubRun {
    fn fold(&self) -> ScopeReport {
        HealthAggregator::scope_from_recorder(&self.scope, &HealthConfig::default(), &self.recorder)
    }
}

/// The per-cell handle a cell body opens its sub-runs through.
pub struct Probe {
    observe: Observe,
    subs: Vec<SubRun>,
}

impl Probe {
    /// Opens a sub-run whose health scope is named `scope`: a telemetry
    /// handle on a fresh private recorder, or [`Telemetry::off`] when the
    /// run observes nothing. The body must drop every clone of the
    /// handle before it returns.
    pub fn open(&mut self, scope: &str) -> Telemetry {
        if self.observe == Observe::Off {
            return Telemetry::off();
        }
        let recorder = Rc::new(Recorder::new());
        let tel = Telemetry::from_recorder(&recorder);
        self.subs.push(SubRun {
            scope: scope.to_owned(),
            recorder,
            report: None,
        });
        tel
    }

    /// Folds the latest sub-run's stream into its scope now, for a body
    /// that checks the verdicts before recording more (`Health` only;
    /// `None` otherwise). Sub-runs not folded here fold when the cell
    /// returns.
    pub fn fold(&mut self) -> Option<&ScopeReport> {
        let sub = self.subs.last_mut()?;
        if self.observe == Observe::Health && sub.report.is_none() {
            sub.report = Some(sub.fold());
        }
        sub.report.as_ref()
    }

    /// Folds what is left and hands the recorders back, in open order.
    fn finish(self) -> Vec<(Recorder, Option<ScopeReport>)> {
        let health = self.observe == Observe::Health;
        self.subs
            .into_iter()
            .map(|mut sub| {
                let report = health.then(|| sub.report.take().unwrap_or_else(|| sub.fold()));
                let recorder = Rc::try_unwrap(sub.recorder)
                    .ok()
                    .expect("the cell body released every telemetry handle");
                (recorder, report)
            })
            .collect()
    }
}

/// Runs `body` over every cell on up to `ctx.threads` workers and merges
/// in cell order: outcomes, recorders absorbed, scopes pushed. The body
/// opens each sub-run through its [`Probe`].
///
/// # Panics
///
/// Panics if a body keeps a telemetry handle alive past its return, and
/// propagates body panics.
pub fn run_cells<C, T, F>(ctx: &RunCtx, cells: &[C], body: F) -> Run<T>
where
    C: Sync,
    T: Send,
    F: Fn(&C, &mut Probe) -> T + Sync,
{
    let sharded = run_shards(ctx.threads, cells, |_, cell| {
        let mut probe = Probe {
            observe: ctx.observe,
            subs: Vec::new(),
        };
        let outcome = body(cell, &mut probe);
        (outcome, probe.finish())
    });
    let recorder = (ctx.observe != Observe::Off).then(Recorder::new);
    let mut health = (ctx.observe == Observe::Health).then(HealthReport::new);
    let outcomes = sharded
        .into_iter()
        .map(|(outcome, subs)| {
            for (rec, scope) in subs {
                if let Some(combined) = &recorder {
                    combined.absorb(&rec);
                }
                if let (Some(health), Some(scope)) = (&mut health, scope) {
                    health.push_scope(scope);
                }
            }
            outcome
        })
        .collect();
    Run {
        outcomes,
        recorder,
        health,
    }
}

/// Formats an `f64` for the JSON outputs: fixed-precision exponential
/// (deterministic, diff-friendly), `0.0` for zero, and `null` for the
/// non-finite values JSON cannot write.
#[must_use]
pub fn num(x: f64) -> String {
    if x == 0.0 {
        "0.0".to_owned()
    } else if x.is_finite() {
        format!("{x:.6e}")
    } else {
        "null".to_owned()
    }
}

/// Writes one row per item into `json`, the rows separated by `",\n"` —
/// the row lists of every result JSON.
pub fn push_rows<T>(
    json: &mut String,
    items: impl IntoIterator<Item = T>,
    mut row: impl FnMut(&mut String, T),
) {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            json.push_str(",\n");
        }
        row(json, item);
    }
}

/// Writes `contents` to `path`, creating its parent directory first.
///
/// # Panics
///
/// Panics if the directory or the file cannot be written.
pub fn write_file(path: impl AsRef<Path>, contents: &str) {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        }
    }
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// The shared command line of the sharded workloads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunArgs {
    /// The command name every message starts with.
    pub cmd: &'static str,
    /// `--smoke`: the short CI variant.
    pub smoke: bool,
    /// `--threads N` (default: the available parallelism).
    pub threads: usize,
    /// `--trace-out P`: the JSONL event log (plus `P.trace.json`).
    pub trace_out: Option<String>,
    /// `--health-out P`: the `socbus-incident v1` report.
    pub health_out: Option<String>,
    /// The positional output path of the result JSON.
    pub out: String,
}

impl RunArgs {
    /// Parses `args` for `cmd`, which accepts only the flags in
    /// `accepted` (from `--smoke`, `--threads`, `--trace-out`,
    /// `--health-out`). A workload that always folds health passes its
    /// incident-report path as `default_health_out`.
    ///
    /// # Errors
    ///
    /// Prints `"<cmd>: ..."` to stderr and returns the exit code 2 on an
    /// unknown flag or a flag missing its value.
    pub fn parse(
        cmd: &'static str,
        args: &[String],
        accepted: &[&str],
        default_out: &str,
        default_health_out: Option<&str>,
    ) -> Result<RunArgs, i32> {
        let mut parsed = RunArgs {
            cmd,
            smoke: false,
            threads: default_threads(),
            trace_out: None,
            health_out: default_health_out.map(str::to_owned),
            out: default_out.to_owned(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let flag = arg.as_str();
            if !flag.starts_with("--") {
                parsed.out.clone_from(arg);
            } else if !accepted.contains(&flag) {
                eprintln!("{cmd}: unknown flag {flag}");
                return Err(2);
            } else if flag == "--smoke" {
                parsed.smoke = true;
            } else if flag == "--threads" {
                let Some(n) = it.next().and_then(|v| parse_threads(v)) else {
                    eprintln!("{cmd}: --threads needs a positive integer");
                    return Err(2);
                };
                parsed.threads = n;
            } else {
                let Some(path) = it.next() else {
                    eprintln!("{cmd}: {flag} needs a path");
                    return Err(2);
                };
                let slot = if flag == "--trace-out" {
                    &mut parsed.trace_out
                } else {
                    &mut parsed.health_out
                };
                *slot = Some(path.clone());
            }
        }
        Ok(parsed)
    }

    /// The run context these flags ask for: `Health` with an incident
    /// report to write, else `Trace` with a trace to write, else `Off`.
    #[must_use]
    pub fn ctx(&self) -> RunCtx {
        let observe = if self.health_out.is_some() {
            Observe::Health
        } else if self.trace_out.is_some() {
            Observe::Trace
        } else {
            Observe::Off
        };
        RunCtx::new(self.threads, observe)
    }

    /// Writes the result JSON, then the incident report (if health ran
    /// and `--health-out` names a path), then the JSONL event log and
    /// its Perfetto trace (if a recording exists and `--trace-out` names
    /// a path); the trace carries the health counter tracks when health
    /// ran.
    pub fn write(&self, json: &str, recorder: Option<&Recorder>, health: Option<&HealthReport>) {
        let cmd = self.cmd;
        write_file(&self.out, json);
        if let (Some(path), Some(health)) = (&self.health_out, health) {
            write_file(path, &health.serialize());
            let incidents: usize = health.scopes.iter().map(|s| s.incidents.len()).sum();
            let alerts: usize = health.scopes.iter().map(|s| s.alerts.len()).sum();
            eprintln!(
                "{cmd}: incidents -> {path} ({} scope(s), {incidents} incident(s), \
                 {alerts} alert(s))",
                health.scopes.len()
            );
        }
        if let (Some(path), Some(rec)) = (&self.trace_out, recorder) {
            write_file(path, &rec.export_jsonl());
            let perfetto = format!("{path}.trace.json");
            let counters = health
                .map(HealthReport::counter_samples)
                .unwrap_or_default();
            write_file(&perfetto, &rec.export_chrome_trace_with_counters(&counters));
            let stats = rec.ring_stats();
            eprintln!(
                "{cmd}: telemetry -> {path} + {perfetto} ({} recorded, {} dropped)",
                stats.recorded, stats.dropped
            );
            if let Some(warning) = stats.overflow_warning() {
                eprintln!("{cmd}: {warning}");
            }
        }
    }

    /// [`RunArgs::write`] for a [`run_cells`] result.
    pub fn write_run<T>(&self, json: &str, run: &Run<T>) {
        self.write(json, run.recorder.as_ref(), run.health.as_ref());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_reads_the_shared_flags_and_rejects_the_rest() {
        let all = ["--smoke", "--threads", "--trace-out", "--health-out"];
        let parse = |list: &[&str], accepted: &[&str], health: Option<&str>| {
            let args: Vec<String> = list.iter().map(|s| (*s).to_owned()).collect();
            RunArgs::parse("t", &args, accepted, "d", health)
        };
        let full = [
            "--smoke",
            "--threads",
            "3",
            "--trace-out",
            "a",
            "--health-out",
            "b",
            "o",
        ];
        let got = parse(&full, &all, None).expect("valid");
        assert!(got.smoke);
        assert_eq!(
            (got.trace_out.as_deref(), got.out.as_str()),
            (Some("a"), "o")
        );
        assert_eq!(got.ctx(), RunCtx::new(3, Observe::Health));
        let plain = parse(&[], &all, None).expect("valid");
        assert_eq!(
            (plain.out.as_str(), plain.ctx().observe),
            ("d", Observe::Off)
        );
        let always = parse(&[], &all, Some("h")).expect("valid");
        assert_eq!(always.ctx().observe, Observe::Health);
        for bad in [
            &["--smoke"][..],
            &["--health-out", "x"],
            &["--threads"],
            &["--threads", "0"],
            &["--bogus"],
        ] {
            assert_eq!(parse(bad, &["--threads"], None), Err(2), "{bad:?}");
        }
        assert_eq!(parse(&["--trace-out"], &all, None), Err(2));
    }

    /// Two sub-runs per cell: the merged recording and the scopes come
    /// back in cell order, then open order, at any thread count, and an
    /// early fold names its scope like a late one.
    #[test]
    fn run_cells_merges_in_cell_then_open_order() {
        let cells: Vec<u64> = (0..5).collect();
        let run = |threads, observe| {
            run_cells(&RunCtx::new(threads, observe), &cells, |&cell, probe| {
                for sub in ["a", "b"] {
                    let tel = probe.open(&format!("{cell}/{sub}"));
                    tel.event("cell", &[("sub", sub)], cell);
                    if sub == "a" {
                        assert_eq!(
                            probe.fold().map(|s| s.scope.clone()),
                            (observe == Observe::Health).then(|| format!("{cell}/a"))
                        );
                    }
                }
                cell * 10
            })
        };
        let one = run(1, Observe::Health);
        let many = run(4, Observe::Health);
        assert_eq!(one.outcomes, vec![0, 10, 20, 30, 40]);
        assert_eq!(one.outcomes, many.outcomes);
        let scopes = |r: &Run<u64>| {
            r.health
                .as_ref()
                .expect("health ran")
                .scopes
                .iter()
                .map(|s| s.scope.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(scopes(&one)[..3], ["0/a", "0/b", "1/a"]);
        assert_eq!(scopes(&one), scopes(&many));
        let jsonl = |r: &Run<u64>| r.recorder.as_ref().expect("traced").export_jsonl();
        assert_eq!(jsonl(&one), jsonl(&many));
        let traced = run(3, Observe::Trace);
        assert!(traced.health.is_none());
        assert_eq!(jsonl(&traced), jsonl(&one));
        let off = run(2, Observe::Off);
        assert!(off.recorder.is_none() && off.health.is_none());
        assert_eq!(off.outcomes, one.outcomes);
    }

    #[test]
    fn num_is_exponential_and_null_when_not_finite() {
        assert_eq!(num(0.0), "0.0");
        assert_eq!(num(3.25e-11), "3.250000e-11");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(f64::NAN), "null");
    }
}

//! One harness behind the path and mesh chaos campaigns.
//!
//! [`Harness`] is implemented by the two case types themselves:
//! [`CaseConfig`] (one multi-hop path under a word-domain schedule) and
//! [`MeshCaseConfig`] (the 2D mesh under a cycle-domain schedule). Each
//! keeps what differs — its schedule grammar, monitor, shrinker, repro
//! fields and the campaign-specific JSON fields — and this module writes
//! the rest once, statically dispatched over the trait: the campaign
//! grid (`grid`), run ([`run_grid`]), JSON skeleton and command; the
//! repro file ([`Repro`]: header check, key loop, shared keys, `expect`
//! line); the shrink oracle (`first_violation`); the repro writer
//! ([`write_repro`]); and `chaos replay` (`replay`), which is also
//! every command's on-violation tail ([`tail`]): a violating run's
//! artifacts are exactly what `chaos replay` writes for its reproducer.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use socbus_codes::Scheme;
use socbus_noc::link::Protocol;
use socbus_telemetry::{
    HealthAggregator, HealthConfig, HealthReport, Recorder, ScopeReport, Telemetry,
};

use crate::cli::{DEFAULT_DATA_BITS, SHRINK_BUDGET};
use crate::ctx::{push_rows, run_cells, Probe, Run, RunArgs, RunCtx};
use crate::mesh::MeshCaseConfig;
use crate::monitor::{Invariant, InvariantStats, Violation};
use crate::replay::{kv, parse_f64, parse_num, parse_protocol};
use crate::runner::CaseConfig;

/// Where the chaos commands write reproducers.
pub(crate) const REPRO_DIR: &str = "results/repro";

/// A chaos harness: a case type that runs under telemetry, is watched
/// by its monitor, shrinks, and round-trips through a repro file.
pub trait Harness: Sized {
    /// The invariants its monitor checks.
    type Invariant: Invariant;
    /// What one run yields.
    type Outcome: Send;
    /// The harness-only keys of a repro file being parsed.
    type Draft: Default;

    /// The first line of its repro files.
    const HEADER: &'static str;
    /// What a violation's site counts (`hop` or `link`) and its time
    /// (`word` or `cycle`), as the `expect` line and `chaos replay` name
    /// them.
    const SITE: &'static str;
    /// See [`Harness::SITE`].
    const TIME: &'static str;
    /// Whether `chaos replay` folds the replayed run through the health
    /// monitor and writes an incident report next to the repro.
    const HEALTH: bool;

    /// The case's display name.
    fn name(&self) -> &str;
    /// Runs the case with `tel` wired through the simulator and monitor.
    fn run(&self, tel: Telemetry) -> Self::Outcome;
    /// Runs the case as one campaign cell, its sub-runs opened through
    /// `probe` (one, named after the case, unless the harness checks
    /// its health verdicts in between).
    fn run_cell(&self, probe: &mut Probe) -> Self::Outcome {
        self.run(probe.open(self.name()))
    }
    /// Shrinks the case while it keeps a violation with `key`: the
    /// reduced case and that violation, or `None` if the case does not
    /// reproduce `key` at all. `budget` bounds the candidate re-runs.
    fn shrink(
        &self,
        key: (Self::Invariant, Option<usize>),
        budget: usize,
    ) -> Option<(Self, Violation<Self::Invariant>)>;

    /// An outcome's violations, in discovery order.
    fn violations(out: &Self::Outcome) -> &[Violation<Self::Invariant>];
    /// An outcome's pass/fail tallies, one per invariant.
    fn stats(out: &Self::Outcome) -> &[(Self::Invariant, InvariantStats)];
    /// The campaign's progress line for one case (`scope` when health
    /// ran).
    fn summary(name: &str, out: &Self::Outcome, scope: Option<&ScopeReport>) -> String;
    /// Writes a campaign JSON row's harness-specific fields.
    fn json_row(out: &Self::Outcome, json: &mut String);

    /// Writes the repro lines from `name` to the last `event`, in file
    /// order (the shared keys through this module's writers).
    fn write_fields(&self, out: &mut String);
    /// Parses one harness-only repro line into `draft`.
    ///
    /// # Errors
    ///
    /// Returns a message on a malformed value or an unknown key.
    fn parse_field(draft: &mut Self::Draft, key: &str, rest: &str) -> Result<(), String>;
    /// Assembles a parsed case, reporting the first missing key in file
    /// order.
    ///
    /// # Errors
    ///
    /// Returns `missing <key>` for the first key the file lacks.
    fn assemble(shared: Shared, draft: Self::Draft) -> Result<Self, String>;
    /// Rejects a parsed case the simulator would assert on.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    fn check(&self) -> Result<(), String>;
}

// ---------------------------------------------------------------------
// The campaign grid, run and JSON
// ---------------------------------------------------------------------

/// Every scheme × every family, each cell seeded by its 1-based grid
/// position (the seed fixes the schedule and the protocol flavour).
#[must_use]
pub(crate) fn grid<F: Copy>(schemes: &[Scheme], families: &[F]) -> Vec<(Scheme, F, u64)> {
    let cells = schemes
        .iter()
        .flat_map(|&scheme| families.iter().map(move |&family| (scheme, family)));
    cells.zip(1..).map(|((s, f), seed)| (s, f, seed)).collect()
}

/// The `--smoke` subset of `grid`: one cell per family, the scheme
/// rotating through `schemes`, each with its full-grid seed — so CI
/// covers every family without running the whole grid.
#[must_use]
pub(crate) fn smoke_grid<F: Copy>(schemes: &[Scheme], families: &[F]) -> Vec<(Scheme, F, u64)> {
    let full = grid(schemes, families);
    (0..families.len())
        .map(|fi| full[fi % schemes.len() * families.len() + fi])
        .collect()
}

/// Runs one sub-run per cell under `ctx` (see [`run_cells`]), each cell
/// assembled by `build` and named after its case. Outcomes, recording
/// and incident report are byte-identical for every thread count.
pub fn run_grid<H: Harness, F: Copy + Sync>(
    ctx: &RunCtx,
    cells: &[(Scheme, F, u64)],
    build: impl Fn(Scheme, F, u64) -> H + Sync,
) -> Run<(String, H::Outcome)> {
    run_cells(ctx, cells, |&(scheme, family, seed), probe| {
        let case = build(scheme, family, seed);
        let out = case.run_cell(probe);
        (case.name().to_owned(), out)
    })
}

/// Renders a campaign JSON: `meta` lines after `data_bits`, one row per
/// case, the invariant tallies, then `tail` lines before the violation
/// count.
pub(crate) fn render<H: Harness>(
    meta: &str,
    outcomes: &[(String, H::Outcome)],
    tail: &str,
) -> String {
    let mut json = format!("{{\n  \"data_bits\": {DEFAULT_DATA_BITS},\n{meta}  \"cases\": [\n");
    push_rows(&mut json, outcomes, |json, (name, out)| {
        let violations = H::violations(out).len();
        let _ = write!(
            json,
            "    {{\"case\": \"{name}\", \"violations\": {violations}, "
        );
        H::json_row(out, json);
        json.push('}');
    });
    json.push_str("\n  ],\n  \"invariants\": {\n");
    push_rows(&mut json, H::Invariant::ALL, |json, kind| {
        let (checked, violated) = outcomes
            .iter()
            .flat_map(|(_, out)| H::stats(out))
            .filter(|(k, _)| *k == kind)
            .fold((0, 0), |(c, v), (_, s)| (c + s.checked, v + s.violated));
        let name = kind.name();
        let _ = write!(
            json,
            "    \"{name}\": {{\"checked\": {checked}, \"violated\": {violated}}}"
        );
    });
    let violations = count_violations::<H>(outcomes);
    let _ = write!(json, "\n  }},\n{tail}  \"violations\": {violations}\n}}\n");
    json
}

fn count_violations<H: Harness>(outcomes: &[(String, H::Outcome)]) -> usize {
    outcomes
        .iter()
        .map(|(_, out)| H::violations(out).len())
        .sum()
}

/// The cells and run length of a campaign, full or `--smoke`.
pub(crate) type Grid<F> = fn(bool) -> (Vec<(Scheme, F, u64)>, u64);

/// A campaign's JSON renderer over its run length and outcomes.
pub(crate) type Render<H> = fn(u64, &[(String, <H as Harness>::Outcome)]) -> String;

/// The one body behind `soak`/`chaos run`, `chaos control` and `chaos
/// mesh`: parses the shared flags (`outs` are the default result and
/// incident-report paths), runs the grid, prints a line per case and a
/// summary, writes the outputs and, on a violation, runs [`tail`] on
/// the first violating cell. Returns the exit code (nonzero iff any
/// invariant broke).
pub(crate) fn campaign<H: Harness, F: Copy + Sync>(
    cmd: &'static str,
    args: &[String],
    outs: (&str, Option<&str>),
    grid: Grid<F>,
    build: fn(Scheme, F, u64, u64) -> H,
    render: Render<H>,
) -> i32 {
    let flags = ["--smoke", "--threads", "--trace-out", "--health-out"];
    let args = match RunArgs::parse(cmd, args, &flags, outs.0, outs.1) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let (cells, length) = grid(args.smoke);
    let started = std::time::Instant::now();
    let run = run_grid(&args.ctx(), &cells, |s, f, seed| build(s, f, seed, length));
    let wall = started.elapsed();
    let scopes = run.health.as_ref().map(|h| &h.scopes[..]);
    for (i, (name, out)) in run.outcomes.iter().enumerate() {
        let scope = scopes.and_then(|s| s.get(i));
        eprintln!("{}", H::summary(name, out, scope));
    }
    args.write_run(&render(length, &run.outcomes), &run);
    let violations = count_violations::<H>(&run.outcomes);
    eprintln!(
        "{cmd}: {} cases x {length} {}s on {} thread(s) in {:.2}s -> {} ({violations} violation(s))",
        run.outcomes.len(),
        H::TIME,
        args.threads,
        wall.as_secs_f64(),
        args.out
    );
    let first = cells
        .iter()
        .zip(&run.outcomes)
        .find_map(|(&(scheme, family, seed), (_, out))| {
            let violation = H::violations(out).first()?;
            Some((build(scheme, family, seed, length), violation))
        });
    match first {
        Some((case, violation)) => {
            tail(cmd, &case, violation, Path::new(REPRO_DIR));
            1
        }
        None => 0,
    }
}

// ---------------------------------------------------------------------
// Shrinking, the repro file and replay
// ---------------------------------------------------------------------

/// The first violation with `key` in a run of `case` under `tel` — the
/// oracle both shrinkers and replay share.
pub(crate) fn first_violation<H: Harness>(
    case: &H,
    key: (H::Invariant, Option<usize>),
    tel: Telemetry,
) -> Option<Violation<H::Invariant>> {
    let out = case.run(tel);
    H::violations(&out).iter().find(|v| v.key() == key).cloned()
}

/// The violation a repro file promises to reproduce.
#[derive(Clone, Debug, PartialEq)]
pub struct ExpectedViolation<K = crate::monitor::InvariantKind> {
    /// Invariant that must break.
    pub kind: K,
    /// Hop or link it must break on (`None` = end to end, rendered
    /// `e2e`).
    pub site: Option<usize>,
    /// Word or cycle it broke at in the original run (informational;
    /// replay matches on `(kind, site)` only).
    pub at: u64,
}

impl<K: Copy> ExpectedViolation<K> {
    /// The key replay matches on.
    #[must_use]
    pub fn key(&self) -> (K, Option<usize>) {
        (self.kind, self.site)
    }
}

/// A parsed (or to-be-written) reproducer: a case plus the violation it
/// must produce. The text round-trips byte for byte,
/// `serialize(parse(text)) == text`: floats use Rust's shortest
/// round-trip `{:?}` form.
#[derive(Clone, Debug, PartialEq)]
pub struct Repro<H: Harness = CaseConfig> {
    /// The case to re-run.
    pub case: H,
    /// The violation it must produce.
    pub expect: ExpectedViolation<H::Invariant>,
}

/// The keys both repro formats share, as parsed (`None` while absent).
#[derive(Default)]
pub struct Shared {
    pub(crate) name: Option<String>,
    pub(crate) scheme: Option<Scheme>,
    pub(crate) data_bits: Option<usize>,
    pub(crate) eps: Option<f64>,
    pub(crate) protocol: Option<Protocol>,
    pub(crate) traffic_seed: Option<u64>,
    pub(crate) sim_seed: Option<u64>,
}

/// Unwraps a parsed key or reports it missing.
///
/// # Errors
///
/// Returns `missing <what>` for `None`.
pub(crate) fn need<T>(value: Option<T>, what: &str) -> Result<T, String> {
    value.ok_or_else(|| format!("missing {what}"))
}

/// Writes the `name`, `scheme` and `data_bits` lines.
pub(crate) fn write_head(out: &mut String, name: &str, scheme: Scheme, data_bits: usize) {
    let _ = writeln!(out, "name {name}");
    let _ = writeln!(out, "scheme {}", scheme.name());
    let _ = writeln!(out, "data_bits {data_bits}");
}

/// Writes the `eps` and `protocol` lines.
pub(crate) fn write_link(out: &mut String, eps: f64, protocol: Protocol) {
    let _ = writeln!(out, "eps {eps:?}");
    let _ = match protocol {
        Protocol::Fec => writeln!(out, "protocol fec"),
        Protocol::DetectRetransmit {
            rtt_cycles,
            max_retries,
        } => writeln!(
            out,
            "protocol detect-retransmit rtt={rtt_cycles} max_retries={max_retries}"
        ),
        Protocol::ArqBackoff {
            timeout_cycles,
            backoff_base,
            backoff_cap,
            max_retries,
        } => writeln!(
            out,
            "protocol arq-backoff timeout={timeout_cycles} base={backoff_base} \
             cap={backoff_cap} max_retries={max_retries}"
        ),
    };
}

/// Writes the `traffic_seed` and `sim_seed` lines.
pub(crate) fn write_seeds(out: &mut String, traffic_seed: u64, sim_seed: u64) {
    let _ = writeln!(out, "traffic_seed {traffic_seed}");
    let _ = writeln!(out, "sim_seed {sim_seed}");
}

/// A site as repro files and `chaos replay` print it: its index, or
/// `e2e` for an end-to-end violation.
fn site(site: Option<usize>) -> String {
    site.map_or_else(|| "e2e".to_owned(), |s| s.to_string())
}

impl<H: Harness> Repro<H> {
    /// Bundles a shrunken case with its violation.
    #[must_use]
    pub fn new(case: H, violation: &Violation<H::Invariant>) -> Self {
        let (kind, site, at) = (violation.kind, violation.site, violation.at);
        Repro {
            case,
            expect: ExpectedViolation { kind, site, at },
        }
    }

    /// Renders the canonical file text.
    #[must_use]
    pub fn serialize(&self) -> String {
        let mut out = format!("{}\n", H::HEADER);
        self.case.write_fields(&mut out);
        let e = &self.expect;
        let _ = writeln!(
            out,
            "expect invariant={} {}={} {}={}",
            e.kind.name(),
            H::SITE,
            site(e.site),
            H::TIME,
            e.at
        );
        out
    }

    /// Parses a repro file and checks its case.
    ///
    /// # Errors
    ///
    /// Returns a line-tagged message on any malformed field, `missing
    /// <key>` for the first absent one, or the check's message.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines().enumerate();
        let (_, first) = lines.next().ok_or("empty repro file")?;
        if first != H::HEADER {
            return Err(format!("bad header {first:?}; expected {:?}", H::HEADER));
        }
        let mut shared = Shared::default();
        let mut draft = H::Draft::default();
        let mut expect = None;
        for (lineno, line) in lines {
            let at = |msg: String| format!("line {}: {msg}", lineno + 1);
            let (key, rest) = line
                .split_once(' ')
                .ok_or_else(|| at(format!("malformed line {line:?}")))?;
            match key {
                "name" => shared.name = Some(rest.to_owned()),
                "scheme" => {
                    let scheme = Scheme::from_name(rest);
                    shared.scheme =
                        Some(scheme.ok_or_else(|| at(format!("unknown scheme {rest:?}")))?);
                }
                "data_bits" => shared.data_bits = Some(parse_num(rest).map_err(&at)?),
                "eps" => shared.eps = Some(parse_f64(rest).map_err(&at)?),
                "protocol" => shared.protocol = Some(parse_protocol(rest).map_err(&at)?),
                "traffic_seed" => shared.traffic_seed = Some(parse_num(rest).map_err(&at)?),
                "sim_seed" => shared.sim_seed = Some(parse_num(rest).map_err(&at)?),
                "expect" => expect = Some(Self::parse_expect(rest).map_err(&at)?),
                _ => H::parse_field(&mut draft, key, rest).map_err(&at)?,
            }
        }
        let case = H::assemble(shared, draft)?;
        let repro = Repro {
            case,
            expect: need(expect, "expect")?,
        };
        repro.case.check()?;
        Ok(repro)
    }

    fn parse_expect(rest: &str) -> Result<ExpectedViolation<H::Invariant>, String> {
        let mut toks = rest.split_whitespace();
        let kind_name = kv(toks.next(), "invariant")?;
        let kind = H::Invariant::from_name(&kind_name)
            .ok_or_else(|| format!("unknown invariant {kind_name:?}"))?;
        let site_str = kv(toks.next(), H::SITE)?;
        let site = if site_str == "e2e" {
            None
        } else {
            Some(parse_num(&site_str)?)
        };
        let at = kv(toks.next(), H::TIME).and_then(parse_num)?;
        Ok(ExpectedViolation { kind, site, at })
    }

    /// Re-runs the case under `tel` if `text`, the file it was parsed
    /// from, is its canonical form — the check and run `chaos replay`
    /// makes: the expected violation if it fired.
    ///
    /// # Errors
    ///
    /// Refuses a text this repro does not serialize back to.
    pub fn checked_replay(
        &self,
        text: &str,
        tel: Telemetry,
    ) -> Result<Option<Violation<H::Invariant>>, String> {
        if self.serialize() != text {
            return Err("file is not in canonical form (was it hand-edited?)".into());
        }
        Ok(first_violation(&self.case, self.expect.key(), tel))
    }

    /// `chaos replay` of this repro, read from `file` as `text`: the
    /// replayed violation described for stdout, if it fired. Writes the
    /// run's Perfetto trace to `<file>.trace.json` either way (the trace
    /// of a non-reproducing run is what shows the fix) and, for a health
    /// harness, its incident report to `<file>.health.json`, with the
    /// health counter tracks in the trace.
    fn replay_file(&self, file: &str, text: &str) -> Result<Option<String>, String> {
        let recorder = Rc::new(Recorder::new());
        let found = self.checked_replay(text, Telemetry::from_recorder(&recorder))?;
        let mut health = HealthReport::new();
        if H::HEALTH {
            let cfg = HealthConfig::default();
            health.push_scope(HealthAggregator::scope_from_recorder(file, &cfg, &recorder));
            let path = format!("{file}.health.json");
            let done = format!("incident report written to {path}");
            write_artifact(&path, &health.serialize(), &done);
        }
        let path = format!("{file}.trace.json");
        let trace = recorder.export_chrome_trace_with_counters(&health.counter_samples());
        let done = format!("trace written to {path} (load in ui.perfetto.dev)");
        write_artifact(&path, &trace, &done);
        Ok(found.map(|v| {
            let (kind, at, detail) = (v.kind.name(), v.at, &v.detail);
            let (s, t) = (H::SITE, H::TIME);
            format!("{kind} at {s} {} {t} {at} — {detail}", site(v.site))
        }))
    }
}

/// Writes a replay artifact, reporting `done` or the error on stderr.
fn write_artifact(path: &str, contents: &str, done: &str) {
    match std::fs::write(path, contents) {
        Ok(()) => eprintln!("{done}"),
        Err(e) => eprintln!("chaos: cannot write {path}: {e}"),
    }
}

/// A repro file of either harness, told apart by its header line: a
/// file starting `socbus-mesh-repro` is a mesh repro, any other a path
/// repro (whose parser names the header it expected).
#[derive(Clone, Debug, PartialEq)]
pub enum AnyRepro {
    /// A `socbus-chaos-repro v1` file.
    Path(Repro<CaseConfig>),
    /// A `socbus-mesh-repro v1` file.
    Mesh(Repro<MeshCaseConfig>),
}

impl AnyRepro {
    /// Parses either kind of repro file — the parse `chaos replay` runs.
    ///
    /// # Errors
    ///
    /// Returns the kind's parse error.
    pub fn parse(text: &str) -> Result<AnyRepro, String> {
        if text.starts_with("socbus-mesh-repro") {
            Repro::parse(text).map(AnyRepro::Mesh)
        } else {
            Repro::parse(text).map(AnyRepro::Path)
        }
    }

    /// Renders the canonical file text.
    #[must_use]
    pub fn serialize(&self) -> String {
        match self {
            AnyRepro::Path(repro) => repro.serialize(),
            AnyRepro::Mesh(repro) => repro.serialize(),
        }
    }
}

/// `chaos replay <file>`: re-runs a reproducer of either kind, writing
/// its trace (and, for a mesh, its incident report) next to it. Returns
/// the exit code: 0 iff the recorded violation reproduces, 1 if the
/// case ran clean, 2 if the file cannot be read or parsed or is not in
/// canonical form.
#[must_use]
pub(crate) fn replay(file: &str) -> i32 {
    let text = match std::fs::read_to_string(file) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("chaos: cannot read {file}: {e}");
            return 2;
        }
    };
    let replayed = AnyRepro::parse(&text).and_then(|repro| match repro {
        AnyRepro::Path(repro) => repro.replay_file(file, &text),
        AnyRepro::Mesh(repro) => repro.replay_file(file, &text),
    });
    match replayed {
        Ok(Some(found)) => {
            println!("reproduced: {found}");
            0
        }
        Ok(None) => {
            println!("did NOT reproduce (the bug may be fixed)");
            1
        }
        Err(e) => {
            eprintln!("chaos: {e}");
            2
        }
    }
}

/// A case name as a file stem: `/`, `(`, `)` and `+` become `_`.
#[must_use]
pub fn file_stem(name: &str) -> String {
    name.replace(['/', '(', ')', '+'], "_")
}

/// Shrinks a violating case and writes its reproducer into `dir` as
/// `<name>.txt`. Returns the path written.
///
/// # Errors
///
/// Returns a message if shrinking fails to reproduce or the file cannot
/// be written.
pub fn write_repro<H: Harness>(
    case: &H,
    violation: &Violation<H::Invariant>,
    dir: &Path,
) -> Result<PathBuf, String> {
    let (shrunk, found) = case
        .shrink(violation.key(), SHRINK_BUDGET)
        .ok_or_else(|| format!("case {} does not reproduce {violation:?}", case.name()))?;
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let file = dir.join(format!("{}.txt", file_stem(case.name())));
    std::fs::write(&file, Repro::new(shrunk, &found).serialize())
        .map_err(|e| format!("write {}: {e}", file.display()))?;
    Ok(file)
}

/// The on-violation tail of every chaos command: shrinks `violation`
/// of `case`, writes the reproducer into `dir` and runs `chaos replay`
/// on it, so its trace (and incident report) land next to it. Returns
/// `chaos replay`'s exit code, or 2 if no reproducer was written.
pub fn tail<H: Harness>(
    cmd: &str,
    case: &H,
    violation: &Violation<H::Invariant>,
    dir: &Path,
) -> i32 {
    eprintln!("{cmd}: {} violated: {}", case.name(), violation.detail);
    match write_repro(case, violation, dir) {
        Ok(file) => {
            eprintln!("{cmd}: reproducer written to {}", file.display());
            replay(&file.display().to_string())
        }
        Err(e) => {
            eprintln!("{cmd}: shrink failed: {e}");
            2
        }
    }
}

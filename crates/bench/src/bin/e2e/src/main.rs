//! `e2e` — the socbus end-to-end benchmark.
//!
//! ```text
//! e2e run --workload <name> [--seed N] [--seconds S] [--threads N]
//!         [--trace [0|1]] [--smoke] [--out <file>]
//!     Runs one workload in this process: set-up (timed several times),
//!     then rounds of the workload's fixed batch until S seconds have
//!     passed, then one untimed round that measures the peak heap,
//!     checking every op's output. The last stdout line is
//!     {"correct", "attempted", "failed", "metrics"}: the end-to-end
//!     metrics, or with --trace the per-layer ones (each round is then
//!     run untraced and traced, and the spans are written under
//!     results/e2e/trace/). --out writes the full run record.
//! e2e all [--seed N] [--seconds S] [--threads N] [--trace] [--smoke]
//!         [--out-dir <dir>]
//!     Re-runs itself once per workload, so each starts with cold caches,
//!     writing run records to <dir>.
//! e2e compare <dirA> <dirB> [--benchmark <BENCHMARK.json>]
//!     Verdict per workload and end-to-end metric, B against A.
//! e2e summarize <dir>...
//!     Median and quartiles of every metric over the run records.
//! ```
//!
//! The seed changes only random streams, never the configuration, so
//! throughput at any seed compares with any other.
//! Exit code 0 means every check passed.

mod chaos;
mod compare;
mod link;
mod mc;
mod mesh;
mod metrics;
mod record;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use metrics::{Metric, TracedRun};
use trace::Trace;
use workload::{Round, Workload};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// The workloads, in the order `all` runs them. Why each is in the
/// benchmark is recorded in `BENCHMARK.json` and the README.
pub const WORKLOADS: [&str; 4] = ["mc_catalog", "link_arq", "mesh_8x8", "chaos_health"];

/// Host speed (iterations per ns of [`host_speed`]) the time metrics are
/// expressed at: about a shared 2-vCPU x86-64 Xeon host in a quiet phase.
const REFERENCE_SPEED: f64 = 0.15;
/// `throughput` is this quantile of the scaled per-round rates. Every
/// round does the same work; a neighbour's burst inside one round slows
/// it without showing in the speed readings around it, and such bursts
/// only ever slow rounds down, so the upper quartile is the steadier
/// estimate of the program's own rate.
const THROUGHPUT_QUANTILE: f64 = 0.75;
/// The seed whose round-0 digests are pinned in `expected.txt`.
const PINNED_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 12.0;
/// `workload size digest` lines: FNV-1a of round 0's output at seed 1.
const EXPECTED: &str = include_str!("../expected.txt");

fn build(name: &str, seed: u64, smoke: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "mc_catalog" => Box::new(mc::Mc::new(seed, smoke)),
        "link_arq" => Box::new(link::Link::new(seed, smoke)),
        "mesh_8x8" => Box::new(mesh::Mesh::new(seed, smoke)),
        "chaos_health" => Box::new(chaos::Chaos::new(seed, smoke)),
        _ => return None,
    })
}

/// The pinned round-0 digest of `workload` at seed 1.
fn pinned(workload: &str, smoke: bool) -> Option<u64> {
    let size = if smoke { "smoke" } else { "full" };
    EXPECTED.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next() == Some(workload) && f.next() == Some(size))
            .then(|| f.next().and_then(|d| u64::from_str_radix(d, 16).ok()))
            .flatten()
    })
}

#[derive(Clone, Debug)]
struct RunOpts {
    workload: String,
    seed: u64,
    seconds: f64,
    threads: usize,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

impl Default for RunOpts {
    fn default() -> Self {
        // One core is left to the rest of the host: on a small host a
        // pool that fills every core stalls at its barriers whenever
        // anything else runs, which is most of the run-to-run noise.
        let host = socbus_exec::default_threads();
        RunOpts {
            workload: String::new(),
            seed: PINNED_SEED,
            seconds: DEFAULT_SECONDS,
            threads: host.saturating_sub(1).clamp(1, 2),
            trace: false,
            smoke: false,
            out: None,
        }
    }
}

/// Parses the flags `run` and `all` share; `--out` (run) or `--out-dir`
/// (all) lands in `out`.
fn parse(args: &[String], out_flag: &str) -> Result<RunOpts, String> {
    let mut o = RunOpts::default();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => o.workload = value()?.clone(),
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed needs a u64")?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
            }
            "--threads" => {
                o.threads = socbus_exec::parse_threads(value()?)
                    .ok_or("--threads needs a positive integer")?;
            }
            "--trace" => {
                o.trace = it
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--smoke" => o.smoke = true,
            flag if flag == out_flag => o.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

/// Checks every op of every round against its invariants and against
/// round 0, and counts the ops that fail.
#[derive(Default)]
struct Checker {
    first: Option<Round>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checker {
    fn fail(&mut self, ops: u64, note: String) {
        self.failed += ops;
        if self.notes.len() < 20 {
            self.notes.push(note);
        }
    }

    fn round(&mut self, mut r: Round) {
        self.attempted += r.ops.len() as u64;
        let mut notes = Vec::new();
        for (i, op) in r.ops.iter().enumerate() {
            let differs = self
                .first
                .as_ref()
                .is_some_and(|f| f.ops.get(i).map(|o| o.digest) != Some(op.digest));
            if let Some(reason) = &op.broken {
                notes.push(format!("{}: {reason}", op.label));
            } else if differs {
                notes.push(format!("{}: output differs from round 0", op.label));
            }
        }
        if notes.is_empty() && self.first.as_ref().is_some_and(|f| f.digest != r.digest) {
            notes.push("round output differs from round 0".to_owned());
        }
        for note in notes {
            self.fail(1, note);
        }
        if self.first.is_none() {
            r.trace = None;
            self.first = Some(r);
        }
    }
}

/// Everything one run measured. Raw times are as read from the clock;
/// `rates` and `setups` are scaled to [`REFERENCE_SPEED`].
struct Measured {
    /// One set-up after each untraced round, in seconds.
    setup_s: Vec<f64>,
    /// Untraced round wall times, in seconds.
    round_s: Vec<f64>,
    /// [`host_speed`] before the first round and after each one.
    speed: Vec<f64>,
    rates: Vec<f64>,
    setups: Vec<f64>,
    /// Most heap bytes one untimed round held at once (untraced runs).
    peak_heap: u64,
    trace: Trace,
    traced: TracedRun,
    check: Checker,
}

/// Iterations per nanosecond of a fixed integer kernel — hashing, a
/// 256 KiB table, data-dependent branches — that calls no library code.
///
/// The host is shared: for minutes at a time other tenants slow every
/// round by 10–40 %. The benchmark reads this speed between rounds and
/// divides it out, so its time metrics describe the program at
/// [`REFERENCE_SPEED`] rather than the neighbours at the time.
fn host_speed(table: &mut [u64]) -> f64 {
    const ITERS: u64 = 6_000_000;
    let mask = table.len() - 1;
    let t = Instant::now();
    let mut x = 1u64;
    let mut acc = 0u64;
    for i in 0..ITERS {
        // SplitMix64, written out so that no library change moves it.
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        let j = usize::try_from(x).unwrap_or(0) & mask;
        let v = table[j] ^ x.rotate_left(17);
        table[j] = v.wrapping_add(i);
        acc = acc.wrapping_add(if v.count_ones() > 32 { v >> 3 } else { v << 1 } & 0xff);
    }
    std::hint::black_box(acc);
    ITERS as f64 / t.elapsed().as_nanos() as f64
}

fn median(v: &[f64]) -> f64 {
    trace::quantile(v, 0.5)
}

/// Runs the rounds. Each untraced round is bracketed by two readings of
/// the host speed and followed by one timed set-up; its rate is scaled by
/// the mean of the readings, the set-up by the one after it.
fn measure(w: &dyn Workload, o: &RunOpts) -> Measured {
    let _ = trace::epoch();
    let mut table = vec![0u64; 1 << 15];
    let mut m = Measured {
        setup_s: Vec::new(),
        round_s: Vec::new(),
        speed: vec![host_speed(&mut table)],
        rates: Vec::new(),
        setups: Vec::new(),
        peak_heap: 0,
        trace: Trace::default(),
        traced: TracedRun {
            threads: o.threads,
            ..TracedRun::default()
        },
        check: Checker::default(),
    };
    let mut ratios = Vec::new();
    let start = Instant::now();
    let mut index = 0;
    loop {
        let t = Instant::now();
        let r = w.round(o.threads, index, false);
        let wall = t.elapsed().as_secs_f64();
        let t = Instant::now();
        w.setup();
        let setup = t.elapsed().as_secs_f64();
        let before = m.speed[m.speed.len() - 1];
        let after = host_speed(&mut table);
        index += 1;
        m.round_s.push(wall);
        m.setup_s.push(setup);
        m.speed.push(after);
        m.rates
            .push(r.items as f64 / wall * REFERENCE_SPEED / ((before + after) / 2.0));
        m.setups.push(setup * after / REFERENCE_SPEED);
        m.check.round(r);
        if o.trace {
            if index == 1 {
                // Probe with caches as warm as the rounds see them.
                w.probe(&mut m.trace);
            }
            trace::count_allocs(true);
            let t = Instant::now();
            let mut r = w.round(o.threads, index, true);
            let traced_wall = t.elapsed().as_secs_f64();
            trace::count_allocs(false);
            index += 1;
            m.traced.wall_ns += traced_wall * 1e9;
            m.traced.ops += r.ops.len() as u64;
            let mut t = r.trace.take().expect("traced rounds carry a trace");
            t.available_ns += traced_wall * 1e9;
            m.trace.merge(t);
            ratios.push(traced_wall / wall);
            m.check.round(r);
        }
        if o.smoke || start.elapsed().as_secs_f64() >= o.seconds {
            break;
        }
    }
    if !o.trace {
        let (r, peak) = trace::peak_heap_bytes(|| w.round(o.threads, index, false));
        m.peak_heap = peak;
        m.check.round(r);
    }
    m.traced.overhead = median(&ratios) - 1.0;
    m.traced.codebook_builds = socbus_codes::codebook_builds();
    let first = m.check.first.take().expect("at least one round ran");
    for (i, reason) in w.check_once(o.threads, &first) {
        m.check.fail(1, format!("{}: {reason}", first.ops[i].label));
    }
    if o.seed == PINNED_SEED {
        match pinned(&o.workload, o.smoke) {
            Some(want) if want == first.digest => {}
            want => m.check.fail(
                first.ops.len() as u64,
                format!(
                    "round 0 digest {:016x} != pinned {}",
                    first.digest,
                    want.map_or("(none)".to_owned(), |d| format!("{d:016x}"))
                ),
            ),
        }
    }
    m.check.first = Some(first);
    m
}

/// The commit the checkout is at, read from `.git` in the working
/// directory, or "unknown".
fn code_version() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        None => Some(head.to_owned()),
        Some(r) => read(r).map(|s| s.trim().to_owned()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(r).map(|h| h.trim().to_owned()))
        }),
    };
    rev.map_or("unknown".to_owned(), |r| r.chars().take(12).collect())
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The spans of a traced run: per-layer totals, sample counts, and the
/// op records.
fn trace_json(o: &RunOpts, t: &Trace) -> String {
    use record::{number, string};
    let spans: Vec<String> = t
        .spans
        .iter()
        .map(|(n, s)| {
            format!(
                "    {}: {{\"count\": {}, \"self_ns\": {}}}",
                string(n),
                s.count,
                number(s.ns)
            )
        })
        .collect();
    let sums: Vec<String> = t
        .sums
        .iter()
        .map(|(n, v)| format!("    {}: {}", string(n), number(*v)))
        .collect();
    let ops: Vec<String> = t
        .ops
        .iter()
        .map(|op| {
            let layers: Vec<String> = op
                .layers
                .iter()
                .map(|(n, ns)| format!("{}: {}", string(n), number(*ns)))
                .collect();
            format!(
                "    {{\"op\": {}, \"round\": {}, \"start_us\": {}, \"end_us\": {}, \"layers_ns\": {{{}}}}}",
                string(&op.label),
                op.round,
                number(op.start_us),
                number(op.end_us),
                layers.join(", ")
            )
        })
        .collect();
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"available_ns\": {},\n  \"spans\": {{\n{}\n  }},\n  \"sums\": {{\n{}\n  }},\n  \"ops\": [\n{}\n  ]\n}}\n",
        string(&o.workload),
        o.seed,
        number(t.available_ns),
        spans.join(",\n"),
        sums.join(",\n"),
        ops.join(",\n")
    )
}

fn cmd_run(args: &[String]) -> Result<i32, String> {
    let o = parse(args, "--out")?;
    let w = build(&o.workload, o.seed, o.smoke)
        .ok_or_else(|| format!("--workload must be one of {}", WORKLOADS.join(", ")))?;
    let m = measure(w.as_ref(), &o);
    let throughput = trace::quantile(&m.rates, THROUGHPUT_QUANTILE);
    let metrics: Vec<Metric> = if o.trace {
        metrics::per_layer(&m.trace, &m.traced)
    } else {
        metrics::end_to_end(
            throughput,
            median(&m.setups),
            m.peak_heap as f64 / f64::from(1 << 20),
        )
    };
    let c = &m.check;
    let correct = c.failed == 0;
    let digest = c.first.as_ref().map_or(0, |r| r.digest);
    for note in &c.notes {
        eprintln!("e2e {}: FAILED {note}", o.workload);
    }
    eprintln!(
        "e2e {}: seed {} {} rounds, {} ops, {} failed, {:.4e} {}/s, set-up {:.3} ms, digest {digest:016x}",
        o.workload,
        o.seed,
        m.round_s.len(),
        c.attempted,
        c.failed,
        throughput,
        w.item(),
        median(&m.setups) * 1e3
    );
    if o.trace {
        let path = o.out.as_ref().map_or_else(
            || {
                PathBuf::from(format!(
                    "results/e2e/trace/{}-seed{}.json",
                    o.workload, o.seed
                ))
            },
            |p| p.with_extension("trace.json"),
        );
        write_file(&path, &trace_json(&o, &m.trace))?;
        eprintln!("e2e {}: spans -> {}", o.workload, path.display());
    }
    if let Some(path) = &o.out {
        use record::{numbers, string};
        let notes: Vec<String> = c.notes.iter().map(|n| string(n)).collect();
        let section = if o.trace { "per_layer" } else { "end_to_end" };
        let text = format!(
            "{{\n  \"schema\": {},\n  \"workload\": {},\n  \"item\": {},\n  \"seed\": {},\n  \"smoke\": {},\n  \"trace\": {},\n  \"seconds\": {},\n  \"threads\": {},\n  \"host_parallelism\": {},\n  \"profile\": {},\n  \"code_version\": {},\n  \"rounds\": {},\n  \"correct\": {correct},\n  \"ops\": {},\n  \"ops_failed\": {},\n  \"failures\": [{}],\n  \"digest\": \"{digest:016x}\",\n  \"setup_s\": {},\n  \"round_s\": {},\n  \"speed\": {},\n  \"{section}\": {}\n}}\n",
            string(record::SCHEMA),
            string(&o.workload),
            string(w.item()),
            o.seed,
            o.smoke,
            o.trace,
            record::number(o.seconds),
            o.threads,
            socbus_exec::default_threads(),
            string(if cfg!(debug_assertions) { "debug" } else { "release" }),
            string(&code_version()),
            m.round_s.len(),
            c.attempted,
            c.failed,
            notes.join(", "),
            numbers(&m.setup_s),
            numbers(&m.round_s),
            numbers(&m.speed),
            record::metrics_object(&metrics),
        );
        write_file(path, &text)?;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        c.attempted,
        c.failed,
        record::metrics_object(&metrics)
    );
    Ok(i32::from(!correct))
}

fn cmd_all(args: &[String]) -> Result<i32, String> {
    let o = parse(args, "--out-dir")?;
    let dir = o.out.clone().unwrap_or_else(|| {
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        PathBuf::from(format!("results/e2e/runs/seed{}-{now}", o.seed))
    });
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut failed = Vec::new();
    for name in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.arg("run")
            .args(["--workload", name])
            .args(["--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .args(["--threads", &o.threads.to_string()])
            .arg("--out")
            .arg(dir.join(format!("{name}.json")));
        if o.trace {
            cmd.arg("--trace");
        }
        if o.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd
            .status()
            .map_err(|e| format!("cannot run {name}: {e}"))?;
        if !status.success() {
            failed.push(name);
        }
    }
    eprintln!("e2e all: run records -> {}", dir.display());
    if failed.is_empty() {
        Ok(0)
    } else {
        eprintln!("e2e all: FAILED {}", failed.join(", "));
        Ok(1)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "all" => cmd_all(rest),
        Some((cmd, rest)) if cmd == "compare" => match rest {
            [a, b] => compare::compare(Path::new(a), Path::new(b), Path::new("BENCHMARK.json")),
            [a, b, flag, bench] if flag == "--benchmark" => {
                compare::compare(Path::new(a), Path::new(b), Path::new(bench))
            }
            _ => Err("compare needs <dirA> <dirB> [--benchmark <file>]".to_owned()),
        }
        .map(|(text, code)| {
            print!("{text}");
            code
        }),
        Some((cmd, rest)) if cmd == "summarize" && !rest.is_empty() => {
            let dirs: Vec<&Path> = rest.iter().map(Path::new).collect();
            compare::summarize(&dirs).map(|text| {
                print!("{text}");
                0
            })
        }
        _ => Err(
            "usage: e2e run --workload <name> [--seed N] [--seconds S] [--threads N] \
             [--trace [0|1]] [--smoke] [--out <file>]\n       \
             e2e all [--seed N] [--seconds S] [--threads N] [--trace] [--smoke] [--out-dir <dir>]\n       \
             e2e compare <dirA> <dirB> [--benchmark <file>]\n       \
             e2e summarize <dir>..."
                .to_owned(),
        ),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("e2e: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(name: &str) -> Box<dyn Workload> {
        build(name, PINNED_SEED, true).expect("known workload")
    }

    fn digests(r: &Round) -> Vec<u64> {
        r.ops.iter().map(|op| op.digest).collect()
    }

    /// The traced composition (spans around each call, and for
    /// `mc_catalog` the estimator rebuilt from its parts) reproduces the
    /// untraced outputs on every workload, and every op holds.
    #[test]
    fn traced_rounds_reproduce_untraced_outputs() {
        for name in WORKLOADS {
            let w = smoke(name);
            let plain = w.round(2, 0, false);
            let traced = w.round(2, 1, true);
            assert!(plain.trace.is_none() && traced.trace.is_some(), "{name}");
            assert_eq!(digests(&plain), digests(&traced), "{name}");
            assert_eq!(plain.digest, traced.digest, "{name}");
            assert_eq!(plain.items, traced.items, "{name}");
            for op in &plain.ops {
                assert_eq!(op.broken, None, "{name} {}", op.label);
            }
        }
    }

    /// Smoke digests repeat across runs and thread counts, and match the
    /// pinned ones.
    #[test]
    fn smoke_digests_are_stable_across_runs_and_threads() {
        for name in WORKLOADS {
            let one = smoke(name).round(1, 0, false).digest;
            assert_eq!(one, smoke(name).round(2, 0, false).digest, "{name}");
            assert_eq!(one, smoke(name).round(2, 0, false).digest, "{name}");
            assert_eq!(Some(one), pinned(name, true), "{name}: expected.txt");
        }
    }

    #[test]
    fn checker_counts_broken_and_diverging_ops() {
        let op = |label: &str, digest, broken: Option<&str>| workload::Op {
            label: label.to_owned(),
            digest,
            broken: broken.map(str::to_owned),
        };
        let mut c = Checker::default();
        c.round(Round::new(
            vec![op("a", 1, None), op("b", 2, None)],
            2,
            &[],
            None,
        ));
        c.round(Round::new(
            vec![op("a", 1, None), op("b", 3, None)],
            2,
            &[],
            None,
        ));
        c.round(Round::new(
            vec![op("a", 1, Some("bad")), op("b", 2, None)],
            2,
            &[],
            None,
        ));
        c.round(Round::new(
            vec![op("a", 1, None), op("b", 2, None)],
            2,
            b"x",
            None,
        ));
        assert_eq!((c.attempted, c.failed), (8, 3));
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        let args = |a: &[&str]| a.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        let parsed = |a: &[&str]| parse(&args(a), "--out").expect("parses");
        assert!(parsed(&["--trace"]).trace);
        assert!(parsed(&["--trace", "1", "--seed", "3"]).trace);
        let o = parsed(&["--trace", "0", "--seed", "3", "--seconds", "2.5"]);
        assert!(!o.trace);
        assert_eq!((o.seed, o.seconds), (3, 2.5));
        assert!(parse(&args(&["--bogus"]), "--out").is_err());
        assert!(parse(&args(&["--seed"]), "--out").is_err());
    }

    /// `BENCHMARK.json` declares exactly the workloads and metrics the
    /// benchmark prints.
    #[test]
    fn benchmark_json_matches_the_benchmark() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = socbus_telemetry::json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            json.get(key)
                .and_then(socbus_telemetry::Json::as_arr)
                .expect("list")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(socbus_telemetry::Json::as_str)
                        .expect("name")
                        .to_owned()
                })
                .collect()
        };
        let ours = |metrics: Vec<Metric>| -> Vec<String> {
            metrics.iter().map(|m| m.name.to_owned()).collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(str::to_owned));
        assert_eq!(
            names("end_to_end"),
            ours(metrics::end_to_end(1.0, 1.0, 1.0))
        );
        assert_eq!(
            names("per_layer"),
            ours(metrics::per_layer(&Trace::default(), &TracedRun::default()))
        );
    }
}

//! `trace` — run one chaos case under full telemetry and dump every
//! export format: the JSONL event log, a Chrome/Perfetto trace, and the
//! human-readable summary.
//!
//! ```text
//! trace <scheme> <family> [seed] [words] [hops] [--out-dir <dir>]
//! ```
//!
//! Timestamps are simulated cycles, so two invocations with the same
//! arguments write byte-identical files — CI runs this twice and diffs.
//! The JSONL output is validated against the checked-in schema
//! (`crates/telemetry/schemas/telemetry-jsonl.schema.json`) before it is
//! written; a schema mismatch is a bug and exits nonzero.

use std::path::PathBuf;
use std::rc::Rc;

use socbus_chaos::cli::parse_case;
use socbus_chaos::harness::file_stem;
use socbus_chaos::{run_case_with, ScheduleFamily};
use socbus_codes::Scheme;
use socbus_telemetry::{jsonl_schema, validate_jsonl, Recorder, Telemetry};

const DEFAULT_OUT_DIR: &str = "results/trace";

fn usage() -> i32 {
    eprintln!(
        "usage: trace <scheme> <family> [seed] [words] [hops] [--out-dir <dir>]\n\n\
         schemes: {}\nfamilies: {}",
        Scheme::catalog()
            .iter()
            .map(|s| s.name())
            .collect::<Vec<_>>()
            .join(", "),
        ScheduleFamily::all().map(|f| f.name()).join(", ")
    );
    2
}

fn main() {
    std::process::exit(run(&std::env::args().skip(1).collect::<Vec<_>>()));
}

fn run(args: &[String]) -> i32 {
    let mut out_dir = PathBuf::from(DEFAULT_OUT_DIR);
    let mut positional: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out-dir" => {
                let Some(dir) = it.next() else {
                    eprintln!("trace: --out-dir needs a path");
                    return 2;
                };
                out_dir = PathBuf::from(dir);
            }
            other if other.starts_with("--") => {
                eprintln!("trace: unknown flag {other}");
                return 2;
            }
            other => positional.push(other),
        }
    }
    if !(2..=5).contains(&positional.len()) {
        return usage();
    }
    let cfg = match parse_case(&positional) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("trace: {e}");
            return usage();
        }
    };
    let recorder = Rc::new(Recorder::new());
    let out = run_case_with(&cfg, Telemetry::from_recorder(&recorder));

    let jsonl = recorder.export_jsonl();
    match validate_jsonl(jsonl_schema(), &jsonl) {
        Ok(lines) => eprintln!("trace: {lines} JSONL lines validate against the schema"),
        Err(e) => {
            eprintln!("trace: JSONL failed its own schema: {e}");
            return 1;
        }
    }

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("trace: cannot create {}: {e}", out_dir.display());
        return 1;
    }
    let stem = file_stem(&cfg.name);
    let writes = [
        (format!("{stem}.jsonl"), jsonl),
        (format!("{stem}.trace.json"), recorder.export_chrome_trace()),
        (format!("{stem}.summary.txt"), recorder.render_summary()),
    ];
    for (file, contents) in &writes {
        let path = out_dir.join(file);
        if let Err(e) = std::fs::write(&path, contents) {
            eprintln!("trace: cannot write {}: {e}", path.display());
            return 1;
        }
        eprintln!("trace: wrote {}", path.display());
    }

    println!("{}", writes[2].1);
    let stats = recorder.ring_stats();
    println!(
        "case {}: {} words, worst latency {}/{} cycles, {} violation(s); \
         ring {}/{} recorded, {} dropped",
        cfg.name,
        out.report.offered,
        out.worst_word_cycles,
        out.budget_cycles,
        out.violations.len(),
        stats.recorded,
        stats.capacity,
        stats.dropped
    );
    println!(
        "open {} in ui.perfetto.dev to browse per-hop tracks",
        out_dir.join(&writes[1].0).display()
    );
    0
}

//! The on-violation tail every chaos command shares is `chaos replay`.
//!
//! After a violation, `chaos case`, `soak`/`chaos run`, `chaos control`
//! and `chaos mesh` shrink it, write the reproducer and replay it with
//! the function the `replay` subcommand runs. Here the tail is driven
//! into a temporary directory for a Sabotaged path case and for a mesh
//! with a planted partition: the reproducer must be canonical and replay
//! to the same violation key, and its trace (and, for the mesh, its
//! incident report) must be byte for byte what `chaos replay <file>`
//! writes for the same file — also when the trace cannot be written.
//! The last test holds `chaos case` and `trace` to their one argument
//! parser: a bad argument exits 2 with a message.

use std::path::{Path, PathBuf};
use std::process::Command;

use socbus::channel::FaultSpec;
use socbus::codes::Scheme;
use socbus::noc::link::Protocol;
use socbus::noc::mesh::{EndToEnd, MeshPattern};
use socbus_chaos::harness::{file_stem, tail};
use socbus_chaos::mesh::{MeshAction, MeshEvent};
use socbus_chaos::schedule::{ScheduleAction, ScheduleEvent};
use socbus_chaos::{
    build_case, main_with_args, CaseConfig, Harness, MeshCaseConfig, MeshSchedule, Repro,
    ScheduleFamily,
};
use socbus_telemetry::Telemetry;

/// A fresh temporary directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("socbus-tail-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    dir
}

/// A 300-word Sabotaged path with soft noise on hop 0 among the burst
/// train (built as the chaos acceptance test builds its case).
fn sabotaged() -> CaseConfig {
    let mut cfg = build_case(Scheme::Sabotaged, ScheduleFamily::BurstTrain, 3, 300, 2);
    cfg.schedule.events.push(ScheduleEvent {
        at_word: 0,
        action: ScheduleAction::Activate {
            id: 500,
            hop: 0,
            spec: FaultSpec::Iid { eps: 4e-3 },
        },
    });
    cfg.schedule.sort();
    cfg
}

/// A 3×3 mesh whose node 0 loses both out-links while reroute-delivers
/// is armed (the mesh module's planted-partition test case).
fn planted_partition() -> MeshCaseConfig {
    let down = |link| MeshEvent {
        at_cycle: 0,
        action: MeshAction::LinkDown { link },
    };
    MeshCaseConfig {
        name: "planted/partition".into(),
        scheme: Scheme::Dap,
        data_bits: 16,
        width: 3,
        height: 3,
        eps: 0.0,
        protocol: Protocol::Fec,
        rate: 0.2,
        pattern: MeshPattern::Uniform,
        cycles: 40,
        drain_cycles: 600,
        e2e: EndToEnd {
            timeout: 8,
            backoff_base: 2,
            backoff_cap: 8,
            max_retries: 2,
            ack_latency: 2,
        },
        auto_down_after: None,
        expect_full_delivery: true,
        traffic_seed: 11,
        sim_seed: 7,
        schedule: MeshSchedule {
            events: vec![down(0), down(1)],
        },
    }
}

/// Files a replay wrote, with their bytes.
type Artifacts = Vec<(String, Vec<u8>)>;

/// The replay artifacts next to `file` that exist, with their bytes.
fn artifacts(file: &str) -> Artifacts {
    [".trace.json", ".health.json"]
        .into_iter()
        .filter_map(|ext| {
            let path = format!("{file}{ext}");
            std::fs::read(&path).ok().map(|bytes| (path, bytes))
        })
        .collect()
}

/// Runs the tail on the first violation of `case` in `dir`, checks the
/// reproducer, and returns its path and artifacts after the tail and
/// after a `chaos replay` of the same file.
fn tail_then_replay<H: Harness>(case: &H, dir: &Path) -> (String, [Artifacts; 2]) {
    let out = case.run(Telemetry::off());
    let violation = H::violations(&out)
        .first()
        .expect("the planted fault trips a monitor")
        .clone();
    assert_eq!(
        tail("test", case, &violation, dir),
        0,
        "the reproducer replays"
    );
    let file = dir.join(format!("{}.txt", file_stem(case.name())));
    let text = std::fs::read_to_string(&file).expect("the reproducer is written");
    let repro = Repro::<H>::parse(&text).expect("the reproducer parses");
    assert_eq!(repro.serialize(), text, "the reproducer is canonical");
    assert_eq!(repro.expect.key(), violation.key());
    let file = file.display().to_string();
    let after_tail = artifacts(&file);
    assert_eq!(main_with_args(&["replay".into(), file.clone()]), 0);
    let after_replay = artifacts(&file);
    (file, [after_tail, after_replay])
}

#[test]
fn the_path_tail_writes_what_chaos_replay_writes() {
    let dir = scratch("path");
    let (file, [tail, replay]) = tail_then_replay(&sabotaged(), &dir);
    let names: Vec<_> = tail.iter().map(|(path, _)| path.clone()).collect();
    assert_eq!(names, [format!("{file}.trace.json")]);
    assert_eq!(tail, replay);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_mesh_tail_writes_what_chaos_replay_writes() {
    let dir = scratch("mesh");
    let (file, [tail, replay]) = tail_then_replay(&planted_partition(), &dir);
    let names: Vec<_> = tail.iter().map(|(path, _)| path.clone()).collect();
    assert_eq!(
        names,
        [format!("{file}.trace.json"), format!("{file}.health.json")]
    );
    assert_eq!(tail, replay);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A directory where the trace belongs: the tail reports the failed
/// write and goes on, as `chaos replay` does, instead of panicking.
#[test]
fn a_trace_that_cannot_be_written_is_reported_not_fatal() {
    let dir = scratch("blocked");
    let case = planted_partition();
    let file = dir.join(format!("{}.txt", file_stem(case.name())));
    let trace = format!("{}.trace.json", file.display());
    std::fs::create_dir_all(&trace).expect("block the trace path");
    let (_, [tail, replay]) = tail_then_replay(&case, &dir);
    assert!(Path::new(&trace).is_dir());
    assert_eq!(tail.len(), 1, "only the incident report is written");
    assert_eq!(tail, replay);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `chaos case` and `trace` parse `<scheme> <family> [seed] [words]
/// [hops]` with one parser that checks the case as a repro file's is:
/// an argument that does not parse, or a hop count outside 1..=1024,
/// exits 2 with a message and runs nothing.
#[test]
fn bad_case_arguments_exit_2_in_both_binaries() {
    let table: [(&str, &[&str], &str); 9] = [
        (
            "chaos",
            &["case", "DAP", "burst_train", "1", "100", "0"],
            "chaos: hops 0 is outside 1..=1024",
        ),
        (
            "trace",
            &["DAP", "mixed_mayhem", "1", "100", "0"],
            "trace: hops 0 is outside 1..=1024",
        ),
        (
            "trace",
            &["DAP", "mixed_mayhem", "1", "100", "5000"],
            "trace: hops 5000 is outside 1..=1024",
        ),
        (
            "chaos",
            &["case", "DAP", "burst_train", "1", "abc", "2"],
            "chaos: bad words \"abc\"",
        ),
        (
            "trace",
            &["DAP", "mixed_mayhem", "1", "100", "x"],
            "trace: bad hops \"x\"",
        ),
        (
            "chaos",
            &["case", "DAP", "burst_train", "-1"],
            "chaos: bad seed \"-1\"",
        ),
        (
            "trace",
            &["DAP", "mixed_mayhem", "x"],
            "trace: bad seed \"x\"",
        ),
        (
            "chaos",
            &["case", "Nope", "burst_train", "1"],
            "chaos: unknown scheme \"Nope\"",
        ),
        ("trace", &["DAP", "nope"], "trace: unknown family \"nope\""),
    ];
    let dir = scratch("args");
    for (bin, args, first_line) in table {
        let exe = match bin {
            "chaos" => env!("CARGO_BIN_EXE_chaos"),
            _ => env!("CARGO_BIN_EXE_trace"),
        };
        let out = Command::new(exe)
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("run the binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert_eq!(stderr.lines().next(), Some(first_line), "{bin} {args:?}");
    }
    let left: Vec<_> = std::fs::read_dir(&dir).expect("list").collect();
    assert!(left.is_empty(), "a refused case writes nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

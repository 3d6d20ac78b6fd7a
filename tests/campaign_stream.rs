//! Every sharded workload driver's output is pinned byte for byte.
//!
//! Each case runs a small grid through one driver on the run context —
//! the soak and controller campaigns, the mesh campaign, and the mesh,
//! DVS and reliability benches — at 1 and at 8 worker threads, and
//! folds what a user can see into one FNV-1a digest each: the rendered
//! result JSON, the JSONL event log, the Chrome trace with the health
//! counter tracks, and the serialized incident report (health runs
//! only). The digests are constants: a change to the merge order, to
//! which sub-run a recording or scope belongs to, or to when a scope is
//! folded fails here even when every output still parses.

use socbus::codes::Scheme;
use socbus_bench::{dvs, mesh, reliability};
use socbus_chaos::campaign::{campaign_cells, control_smoke_cells, render_json, HOPS, SMOKE_WORDS};
use socbus_chaos::mesh::{build_mesh_case, mesh_smoke_cells, render_mesh_json};
use socbus_chaos::{
    build_case, build_control_case, run_grid, Observe, Run, RunCtx, ScheduleFamily,
};
use socbus_telemetry::HealthReport;

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        acc ^= u64::from(b);
        acc = acc.wrapping_mul(0x0000_0100_0000_01b3);
    }
    acc
}

/// The digests of one run: JSON, JSONL, Chrome trace (with the health
/// counter tracks when health ran), and the incident report if any.
fn digests<T>(json: &str, run: &Run<T>) -> Vec<u64> {
    let rec = run.recorder.as_ref().expect("the run was traced");
    let counters = run
        .health
        .as_ref()
        .map(HealthReport::counter_samples)
        .unwrap_or_default();
    let mut got = vec![
        fnv1a(json.as_bytes()),
        fnv1a(rec.export_jsonl().as_bytes()),
        fnv1a(rec.export_chrome_trace_with_counters(&counters).as_bytes()),
    ];
    got.extend(run.health.as_ref().map(|h| fnv1a(h.serialize().as_bytes())));
    got
}

/// Runs `case` at 1 and 8 threads and checks both against `want`.
fn assert_pinned(name: &str, want: &[u64], case: impl Fn(usize) -> Vec<u64>) {
    let show = |d: &[u64]| {
        d.iter()
            .map(|x| format!("{x:#018x}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    for threads in [1, 8] {
        let got = case(threads);
        assert_eq!(
            got,
            want,
            "{name} at {threads} thread(s): [json, jsonl, chrome, incidents] digests drifted\n  \
             got  [{}]\n  want [{}]",
            show(&got),
            show(want)
        );
    }
}

fn health(threads: usize) -> RunCtx {
    RunCtx::new(threads, Observe::Health)
}

#[test]
fn soak_campaign_is_pinned() {
    let cells: Vec<_> = campaign_cells(SMOKE_WORDS)
        .into_iter()
        .step_by(11)
        .take(3)
        .collect();
    assert_pinned(
        "soak",
        &[
            0xa82c_50cf_e144_9b54,
            0x3184_31a8_1576_352f,
            0xb0fa_9616_ffbf_0dcb,
            0x56de_f823_ac51_2051,
        ],
        |threads| {
            let run = run_grid(&health(threads), &cells, |s, f, seed| {
                build_case(s, f, seed, SMOKE_WORDS, HOPS)
            });
            digests(&render_json(SMOKE_WORDS, &run.outcomes), &run)
        },
    );
}

#[test]
fn control_campaign_is_pinned() {
    let cells: Vec<_> = control_smoke_cells().into_iter().take(2).collect();
    assert_pinned(
        "control",
        &[
            0x77c9_a7b1_54bc_1145,
            0xd46b_960c_c5e2_887b,
            0x6b74_ea5b_0f2e_e06b,
            0x1ba4_f6f3_aff4_607f,
        ],
        |threads| {
            let run = run_grid(&health(threads), &cells, |s, f, seed| {
                build_control_case(s, f, seed, SMOKE_WORDS, HOPS)
            });
            digests(&render_json(SMOKE_WORDS, &run.outcomes), &run)
        },
    );
}

#[test]
fn mesh_campaign_is_pinned() {
    let cells: Vec<_> = mesh_smoke_cells().into_iter().take(2).collect();
    assert_pinned(
        "mesh chaos",
        &[
            0x2fa0_3d74_776e_5345,
            0xc666_7bc1_6b77_7304,
            0xd3a8_89a4_4b16_e63d,
            0x01fb_983a_1f99_5c66,
        ],
        |threads| {
            let run = run_grid(&health(threads), &cells, |s, f, seed| {
                build_mesh_case(s, f, seed, 40)
            });
            digests(&render_mesh_json(40, &run.outcomes), &run)
        },
    );
}

#[test]
fn mesh_bench_is_pinned() {
    let cells = [(Scheme::Parity, mesh::Scenario::Iid)];
    assert_pinned(
        "mesh bench",
        &[
            0x1670_9f75_5475_88a4,
            0xdc3a_74c1_b0c5_3039,
            0x6d9d_bb09_53f1_0570,
            0x9fed_17ff_52c6_d4b2,
        ],
        |threads| {
            let run = mesh::run_bench(&cells, &health(threads));
            digests(&mesh::render_json(&run.outcomes, &[]), &run)
        },
    );
}

#[test]
fn dvs_bench_is_pinned() {
    let cells = [(Scheme::Parity, ScheduleFamily::DroopStorm, 2)];
    assert_pinned(
        "dvs",
        &[
            0x5398_907b_07c6_5fe5,
            0xc215_956e_1bfd_c55c,
            0xd0c5_0252_15a3_2e9e,
            0x6033_c71d_4258_7307,
        ],
        |threads| {
            let run = dvs::run_bench(&cells, &health(threads));
            digests(&dvs::render_json(&run.outcomes), &run)
        },
    );
}

#[test]
fn reliability_sweep_is_pinned() {
    let cells: Vec<_> = reliability::sweep_cells()
        .into_iter()
        .step_by(7)
        .take(3)
        .collect();
    assert_pinned(
        "reliability",
        &[
            0xe270_8759_8234_4243,
            0x9f61_6625_ce35_cf6b,
            0x729a_831b_913a_d56d,
        ],
        |threads| {
            let run = reliability::run_sweep(&cells, &RunCtx::new(threads, Observe::Trace));
            digests(&reliability::render_json(&run.outcomes), &run)
        },
    );
}

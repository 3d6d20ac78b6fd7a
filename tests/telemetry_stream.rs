//! The telemetry recorder's output is pinned byte for byte.
//!
//! Each case records a stream, then folds the four renderings a user
//! can see — the JSONL event log, the Chrome trace, the summary table
//! and the ring statistics — into one FNV-1a digest each. The digests
//! are constants: a change to how the recorder stores, orders, evicts
//! or absorbs events fails here even when every export still parses.
//!
//! The cases cover a traced path chaos case (the CI `trace` job's
//! `DAP mixed_mayhem`, shortened), a traced mesh chaos case with its
//! serialized health report, a raw mesh firing every router and link
//! event site, shard recorders absorbed into a ring smaller than one of
//! them, a zero-capacity ring, and label sets that differ only in order
//! or repeat a key.

use std::rc::Rc;

use socbus::channel::FaultSpec;
use socbus::codes::Scheme;
use socbus::noc::link::{LinkConfig, Protocol};
use socbus::noc::mesh::{EndToEnd, MeshConfig, MeshSim};
use socbus_chaos::mesh::{
    build_mesh_case, mesh_cells, run_mesh_case_health, MeshFamily, FULL_MESH_CYCLES,
};
use socbus_chaos::{build_case, run_case_with, ScheduleFamily};
use socbus_telemetry::{HealthConfig, HealthReport, Recorder, Telemetry, TelemetrySink};

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        acc ^= u64::from(b);
        acc = acc.wrapping_mul(0x0000_0100_0000_01b3);
    }
    acc
}

/// The four digests of one recorder: JSONL, Chrome trace, summary, ring.
fn digests(rec: &Recorder) -> [u64; 4] {
    let ring = rec.ring_stats();
    [
        fnv1a(rec.export_jsonl().as_bytes()),
        fnv1a(rec.export_chrome_trace().as_bytes()),
        fnv1a(rec.render_summary().as_bytes()),
        fnv1a(format!("{} {} {}", ring.recorded, ring.dropped, ring.capacity).as_bytes()),
    ]
}

fn assert_pinned(case: &str, got: [u64; 4], want: [u64; 4]) {
    let show = |d: [u64; 4]| d.map(|x| format!("{x:#018x}")).join(", ");
    assert_eq!(
        got,
        want,
        "{case}: [jsonl, chrome, summary, ring] digests drifted\n  got  [{}]\n  want [{}]",
        show(got),
        show(want)
    );
}

/// Words and hops of the shortened CI trace case.
const PATH_WORDS: u64 = 300;
const PATH_HOPS: usize = 3;
/// Injection cycles of the raw mesh fabric case.
const MESH_FABRIC_CYCLES: u64 = 300;

#[test]
fn path_chaos_trace_is_pinned() {
    let cfg = build_case(
        Scheme::Dap,
        ScheduleFamily::MixedMayhem,
        7,
        PATH_WORDS,
        PATH_HOPS,
    );
    let rec = Rc::new(Recorder::new());
    let out = run_case_with(&cfg, Telemetry::from_recorder(&rec));
    assert_eq!(out.report.offered, PATH_WORDS);
    assert!(rec.ring_stats().recorded as u64 > PATH_WORDS * PATH_HOPS as u64);
    assert_pinned(
        "path DAP/mixed_mayhem",
        digests(&rec),
        [
            0xfc26_3976_f501_7d36,
            0x71b0_4946_bd34_8a5e,
            0x7c89_c4a3_3c27_9c6e,
            0x319a_1fd4_7a50_6633,
        ],
    );
}

#[test]
fn mesh_chaos_trace_and_health_report_are_pinned() {
    // The campaign's own Parity/mixed_mesh cell: a link goes critical.
    let (scheme, family, seed) = mesh_cells()
        .into_iter()
        .find(|&(s, f, _)| s == Scheme::Parity && f == MeshFamily::MixedMesh)
        .expect("the campaign grid has the cell");
    let cfg = build_mesh_case(scheme, family, seed, FULL_MESH_CYCLES);
    let (out, scope, rec) = run_mesh_case_health(&cfg, &HealthConfig::default());
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    let mut health = HealthReport::new();
    health.push_scope(scope);
    assert_pinned(
        "mesh Parity/mixed_mesh",
        digests(&rec),
        [
            0xfe99_b39b_6540_efd9,
            0xf698_adfe_ddf9_32bd,
            0x908e_38a6_1407_1b39,
            0x2697_4027_80dc_7a46,
        ],
    );
    assert_eq!(
        fnv1a(health.serialize().as_bytes()),
        0x70ff_2731_7a1a_e259,
        "mesh Parity/mixed_mesh: health report drifted"
    );
}

/// Every router and link event site of the mesh fabric fires: a stuck
/// wire retires link 0, noise under a detect-only code exhausts
/// end-to-end budgets, and the offered load backs queues up.
#[test]
fn mesh_fabric_events_are_pinned() {
    let link = LinkConfig::new(Scheme::Parity, 16, 1e-2).with_protocol(Protocol::ArqBackoff {
        timeout_cycles: 2,
        backoff_base: 1,
        backoff_cap: 4,
        max_retries: 1,
    });
    let e2e = EndToEnd {
        timeout: 10,
        backoff_base: 2,
        backoff_cap: 8,
        max_retries: 2,
        ack_latency: 6,
    };
    let cfg = MeshConfig::new(4, 4, link)
        .with_rate(0.5)
        .with_e2e(e2e)
        .with_auto_down(3);
    let rec = Rc::new(Recorder::new());
    let mut sim = MeshSim::new_with_telemetry(&cfg, 71, 72, Telemetry::from_recorder(&rec));
    sim.engine_mut(0).injector_mut().push_spec(
        &FaultSpec::StuckAt {
            wire: 0,
            value: true,
        },
        99,
    );
    for cycle in 0..MESH_FABRIC_CYCLES + 2_000 {
        let _ = sim.step(cycle < MESH_FABRIC_CYCLES);
        if cycle >= MESH_FABRIC_CYCLES && sim.idle() {
            break;
        }
    }
    let _ = sim.finish();
    let jsonl = rec.export_jsonl();
    for name in [
        "mesh.accept",
        "mesh.give_up",
        "mesh.queue_high",
        "mesh.link_down",
    ] {
        assert!(
            jsonl.contains(&format!("\"name\": \"{name}\"")),
            "no {name} event"
        );
    }
    assert_pinned(
        "mesh fabric events",
        digests(&rec),
        [
            0xa7e6_4849_d62d_6366,
            0x426c_56b1_b370_bc00,
            0x601d_d9b3_a9f9_b9e0,
            0x5b60_211e_2eac_d5ac,
        ],
    );
}

/// Records `n` spans and instants for shard `tag` on `hops` tracks,
/// plus a counter, a gauge and a histogram.
fn record_shard(rec: &Recorder, tag: &str, n: u64, hops: u64) {
    for i in 0..n {
        let hop = (i % hops).to_string();
        rec.span(
            "link.word",
            &[("scheme", tag), ("hop", hop.as_str())],
            i,
            i + 1 + i % 3,
        );
        if i % 7 == 0 {
            rec.event("link.retry", &[("hop", hop.as_str()), ("scheme", tag)], i);
        }
    }
    rec.event("shard.done", &[("shard", tag)], n);
    rec.counter_add("link.words", &[("scheme", tag)], n);
    rec.gauge_set("shard.last", &[], n as f64);
    rec.observe("link.word_cycles", &[("scheme", tag)], (n % 5) as f64);
}

#[test]
fn absorbed_shards_are_pinned() {
    let combined = Recorder::with_capacity(64);
    record_shard(&combined, "own", 10, 2);
    let small = Recorder::new();
    record_shard(&small, "a", 20, 3);
    // Larger than the combined ring on its own.
    let large = Recorder::new();
    record_shard(&large, "b", 90, 4);
    // Drops in its own ring; the tally carries over.
    let lossy = Recorder::with_capacity(16);
    record_shard(&lossy, "a", 30, 3);
    for shard in [&small, &large, &lossy] {
        combined.absorb(shard);
    }
    assert_eq!(combined.ring_stats().recorded, 64);
    assert_pinned(
        "absorbed shards",
        digests(&combined),
        [
            0x6c7a_fc20_0b40_bac8,
            0x2a2e_1a61_0709_6912,
            0xc43f_093f_b640_ad78,
            0x3961_5e6e_a4af_b746,
        ],
    );
}

#[test]
fn zero_capacity_ring_is_pinned() {
    let rec = Recorder::with_capacity(0);
    record_shard(&rec, "z", 12, 2);
    let shard = Recorder::new();
    record_shard(&shard, "y", 5, 1);
    rec.absorb(&shard);
    assert_eq!(rec.ring_stats().recorded, 0);
    assert_pinned(
        "zero capacity",
        digests(&rec),
        [
            0x6886_50cc_b5c3_6d95,
            0xbc34_a9f0_1333_ef22,
            0x81eb_4018_7104_5843,
            0x2ab6_c0fb_40e0_08f5,
        ],
    );
}

#[test]
fn label_order_and_repeated_keys_are_pinned() {
    let rec = Recorder::new();
    rec.span("s", &[("b", "2"), ("a", "1")], 0, 4);
    rec.span("s", &[("a", "1"), ("b", "2")], 1, 5);
    rec.event("e", &[("k", "y"), ("k", "x")], 2);
    rec.event("e", &[("k", "x"), ("k", "y")], 3);
    rec.event("e", &[("k", "x")], 4);
    rec.event("e", &[], 5);
    rec.counter_add("c", &[("k", "y"), ("k", "x")], 1);
    rec.counter_add("c", &[("k", "x"), ("k", "y")], 2);
    assert_eq!(rec.counter_value("c", &[("k", "x"), ("k", "y")]), 3);
    assert_pinned(
        "label order",
        digests(&rec),
        [
            0x8021_9b86_618c_6e70,
            0x2e68_3ff9_001c_b964,
            0x0d88_c146_030f_cc99,
            0x5f39_6366_dbf9_6df0,
        ],
    );
}

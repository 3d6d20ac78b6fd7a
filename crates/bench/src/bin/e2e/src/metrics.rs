//! Every metric the benchmark reports, by name and unit — the same list
//! `BENCHMARK.json` declares. End-to-end metrics come from untraced
//! rounds; per-layer metrics come from the traced ones. Every metric is
//! reported by every workload; a layer a workload never calls reads 0.

use crate::trace::{quantile, Trace};

/// A named value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

const fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// `a / b`, 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The end-to-end metrics: round throughput (the workload's own item per
/// second), set-up time, and the most heap one round holds at once.
#[must_use]
pub fn end_to_end(throughput: f64, setup_s: f64, peak_heap_mb: f64) -> Vec<Metric> {
    vec![
        m("throughput", "1/s", throughput),
        m("setup_s", "s", setup_s),
        m("peak_heap_mb", "MB", peak_heap_mb),
    ]
}

/// What the run loop measured around the traced rounds.
#[derive(Clone, Copy, Debug, Default)]
pub struct TracedRun {
    /// Worker threads the run was given.
    pub threads: usize,
    /// Summed wall time of the traced rounds, in nanoseconds.
    pub wall_ns: f64,
    /// Ops the traced rounds ran.
    pub ops: u64,
    /// Median over round pairs of traced ÷ untraced wall time, minus 1.
    pub overhead: f64,
    /// Codebooks the process built (`codes::kernels`).
    pub codebook_builds: u64,
}

/// The per-layer metrics, derived from the spans and counts of the
/// traced rounds. Layer names are the crate modules.
#[must_use]
pub fn per_layer(t: &Trace, run: &TracedRun) -> Vec<Metric> {
    let words_native = t.sum("codes.batch.words.native");
    let words_fallback = t.sum("codes.batch.words.fallback");
    let batch_words = words_native + words_fallback;
    let enc = |kind: &str| t.span_ns(&format!("codes.batch.encode.{kind}"));
    let dec = |kind: &str| t.span_ns(&format!("codes.batch.decode.{kind}"));
    let units = t.samples("exec.unit_ms");
    let link_words = t.sum("link.words");
    let link_attempts = t.sum("link.attempts");
    let cycles = t.sum("mesh.cycles");
    let hops = t.sum("mesh.hops");
    let step_ns = t.span_ns("mesh.step");
    let cells = t.sum("chaos.path_cells") + t.sum("chaos.mesh_cells");
    let path_cells = t.sum("chaos.path_cells");
    vec![
        m(
            "codes.batch.encode_ns_per_word",
            "ns/word",
            ratio(enc("native") + enc("fallback"), batch_words),
        ),
        m(
            "codes.batch.encode_ns_per_word.native",
            "ns/word",
            ratio(enc("native"), words_native),
        ),
        m(
            "codes.batch.encode_ns_per_word.fallback",
            "ns/word",
            ratio(enc("fallback"), words_fallback),
        ),
        m(
            "codes.batch.decode_ns_per_word",
            "ns/word",
            ratio(dec("native") + dec("fallback"), batch_words),
        ),
        m(
            "codes.batch.decode_ns_per_word.native",
            "ns/word",
            ratio(dec("native"), words_native),
        ),
        m(
            "codes.batch.decode_ns_per_word.fallback",
            "ns/word",
            ratio(dec("fallback"), words_fallback),
        ),
        m(
            "channel.flip_ns_per_word",
            "ns/word",
            ratio(t.span_ns("channel.flip"), batch_words),
        ),
        m(
            "traffic.ns_per_word",
            "ns/word",
            ratio(t.span_ns("traffic"), t.sum("traffic.words")),
        ),
        m(
            "exec.busy_share",
            "ratio",
            ratio(t.sum("exec.busy_ns"), run.threads as f64 * run.wall_ns),
        ),
        m("exec.unit_ms_p50", "ms", quantile(units, 0.5)),
        m("exec.unit_ms_p99", "ms", quantile(units, 0.99)),
        m("exec.units", "count", units.len() as f64),
        m(
            "link.transfer_ns_per_word_p50",
            "ns/word",
            quantile(t.samples("link.transfer_ns_per_word"), 0.5),
        ),
        m(
            "link.transfer_ns_per_word_p99",
            "ns/word",
            quantile(t.samples("link.transfer_ns_per_word"), 0.99),
        ),
        m(
            "link.chunks",
            "count",
            t.samples("link.transfer_ns_per_word").len() as f64,
        ),
        m(
            "link.attempts_per_word",
            "1/word",
            ratio(link_attempts, link_words),
        ),
        m(
            "link.retransmit_share",
            "ratio",
            ratio(t.sum("link.retransmits"), link_attempts),
        ),
        m(
            "link.residual_per_word",
            "1/word",
            ratio(t.sum("link.residual"), link_words),
        ),
        m(
            "link.self_ns_per_word_est",
            "ns/word",
            ratio(
                t.span_ns("link.transfer") - t.sum("link.codec_est_ns"),
                link_words,
            ),
        ),
        m(
            "codes.scalar.encode_ns",
            "ns",
            t.sum("codes.scalar.encode_ns"),
        ),
        m(
            "codes.scalar.decode_checked_ns",
            "ns",
            t.sum("codes.scalar.decode_checked_ns"),
        ),
        m(
            "channel.fault.transmit_ns",
            "ns",
            t.sum("channel.fault.transmit_ns"),
        ),
        m(
            "mesh.step_ns_per_cycle_p50",
            "ns",
            quantile(t.samples("mesh.step_ns"), 0.5),
        ),
        m(
            "mesh.step_ns_per_cycle_p99",
            "ns",
            quantile(t.samples("mesh.step_ns"), 0.99),
        ),
        m(
            "mesh.steps",
            "count",
            t.samples("mesh.step_ns").len() as f64,
        ),
        m("mesh.step_ns_per_flit_hop", "ns", ratio(step_ns, hops)),
        m("mesh.flit_hops_per_cycle", "1/cycle", ratio(hops, cycles)),
        m(
            "mesh.queue_wait_cycles_per_hop",
            "cycles",
            ratio(t.sum("mesh.wait_cycles"), hops),
        ),
        m(
            "mesh.retries_per_hop",
            "1/hop",
            ratio(t.sum("mesh.retries"), hops),
        ),
        m(
            "mesh.codec_share_est",
            "ratio",
            ratio(t.sum("mesh.codec_est_ns"), step_ns),
        ),
        m(
            "mesh.allocs_per_cycle",
            "count",
            ratio(t.sum("mesh.allocs"), cycles),
        ),
        m(
            "chaos.build_us_per_cell",
            "us",
            ratio(t.span_ns("chaos.build"), cells) / 1e3,
        ),
        m(
            "chaos.path_run_ms_per_cell",
            "ms",
            ratio(t.span_ns("chaos.path_run"), path_cells) / 1e6,
        ),
        m(
            "chaos.mesh_run_ms_per_cell",
            "ms",
            ratio(t.span_ns("chaos.mesh_run"), t.sum("chaos.mesh_cells")) / 1e6,
        ),
        m("chaos.violations", "count", t.sum("chaos.violations")),
        m(
            "telemetry.records_per_cell",
            "count",
            ratio(t.sum("telemetry.records"), cells),
        ),
        m(
            "telemetry.ring_drops",
            "count",
            ratio(t.sum("telemetry.drops"), cells),
        ),
        m(
            "telemetry.absorb_us_per_cell",
            "us",
            ratio(t.span_ns("telemetry.absorb"), cells) / 1e3,
        ),
        m(
            "health.fold_ms_per_cell",
            "ms",
            ratio(t.span_ns("health.fold"), path_cells) / 1e6,
        ),
        m("codes.codebook_builds", "count", run.codebook_builds as f64),
        m(
            "coverage",
            "ratio",
            ratio(t.spans.values().map(|s| s.ns).sum::<f64>(), t.available_ns),
        ),
        m("trace_overhead", "ratio", run.overhead),
        m(
            "allocs_per_unit",
            "count",
            ratio(t.sum("allocs"), run.ops as f64),
        ),
    ]
}

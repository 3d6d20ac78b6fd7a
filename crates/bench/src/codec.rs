//! `bench --bin codec` — the codec-kernel microbenchmark.
//!
//! Measures encode/decode cost per word for every catalog scheme (at the
//! soak width) plus the two explicit FPC rows that pin both kernel
//! regimes — `FPC(11)` (16 wires: the widest dense inverse table) and
//! `FPC(16)` (23 wires: the sparse binary-search path) — on clean and
//! single-flip-corrupted inputs, and compares the kernel decoders of the
//! FPC/FTC family against their linear-scan baselines.
//!
//! Two output files, splitting determinism from wall-clock:
//!
//! * `results/BENCH_codec.json` — **byte-reproducible**: row identities,
//!   FNV-1a checksums of every decoded stream (kernel and scan paths —
//!   equal checksums are the end-to-end equivalence witness), codebook
//!   build counts, and the speedup-gate verdict. CI runs the bin twice
//!   and `cmp`s this file.
//! * `results/BENCH_codec_timing.json` — wall-clock ns-per-word and the
//!   measured kernel-vs-scan speedups, with the host they were taken on
//!   (`host_parallelism`, `profile`, `code_version`; see
//!   [`crate::host`]); machine-dependent by nature and not byte-compared.
//!
//! The bin *asserts* the acceptance gates before writing: every FPC/FTC
//! scan-baseline row must decode corrupted words at least
//! [`SPEEDUP_GATE`]× slower than its kernel decoder, the bit-sliced
//! batch rows must beat the scalar kernels by [`BATCH_GATE`]× on every
//! catalog scheme (the explicit FPC rows stay ungated), and the batch
//! and scalar Monte-Carlo engines must return byte-identical estimates
//! at 1 and 8 threads over an odd trial count.

use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socbus_channel::montecarlo::{
    word_error_rate_parallel, word_error_rate_parallel_scalar, WordErrorEstimate,
};
use socbus_chaos::ctx::{push_rows, write_file};
use socbus_codes::batch::BatchFpc;
use socbus_codes::{
    batch_build, codebook_builds, BatchCode, BusCode, ForbiddenPatternCode,
    ForbiddenTransitionCode, Scheme, WordBlock, BLOCK_WORDS,
};
use socbus_model::Word;

/// Data width of the catalog rows — the soak campaign's width.
pub const DATA_BITS: usize = 16;
/// Root seed for the input streams (split per row, so rows are
/// independent of catalog order).
pub const SEED: u64 = 0xC0DEC;
/// Distinct words per input stream.
pub const WORDS: usize = 2_048;
/// Minimum corrupted-word decode speedup (scan time / kernel time)
/// every FPC/FTC baseline row must show.
pub const SPEEDUP_GATE: f64 = 5.0;
/// Minimum corrupted-word decode speedup (scalar time / batch time) the
/// bit-sliced batch path must show on every [`BATCH_GATED`] scheme: each
/// decodes at least twice as fast in batch as on the word-parallel
/// scalar kernels.
pub const BATCH_GATE: f64 = 2.0;
/// Trials of the embedded Monte-Carlo batch-vs-scalar equivalence check:
/// odd on purpose, leaving a remainder shard that itself ends mid-block.
pub const MC_EQUIV_TRIALS: u64 = 65_537;
/// Timing repetitions over the word stream (total decodes per
/// measurement = `WORDS * REPS`).
const REPS: usize = 64;

/// How a row decodes: through the shared kernels or the scan baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodePath {
    /// `BusCode::decode` — inverse-table kernels for the CAC family.
    Kernel,
    /// The reference `decode_scan` of FPC/FTC (linear codebook scan).
    Scan,
    /// The bit-sliced `BatchCode::decode` over 64-word blocks.
    Batch,
}

/// One benchmark row: a codec, an input class, a decode path.
#[derive(Clone, Debug)]
pub struct Row {
    /// Scheme label (catalog name, or `FPC(k)` for the explicit rows).
    pub label: String,
    /// Data bits.
    pub k: usize,
    /// Bus wires.
    pub wires: usize,
    /// `clean` or `corrupted` input stream.
    pub input: &'static str,
    /// Kernel or scan decode.
    pub path: DecodePath,
    /// FNV-1a over every decoded data word (the determinism witness).
    pub checksum: u64,
    /// Nanoseconds per decoded word (wall clock; timing file only).
    pub ns_per_word: f64,
}

/// FNV-1a over the low 64 bits of each word — a cheap, deterministic
/// stream fingerprint. Reads the low limb directly (never
/// `Word::bits()`, which refuses words with wires ≥ 128 set), so the
/// fingerprint works at every bus width up to 256.
fn fnv1a(acc: u64, w: Word) -> u64 {
    let x = w.limb(0);
    let mut h = acc;
    for byte in x.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Builds the row's input stream: `WORDS` encoded data words, corrupted
/// by one wire flip each when `corrupt` (weight 1 is the overwhelmingly
/// common corruption in the simulated noise regimes, and the worst case
/// for the scan fallback: no exact match, full nearest-neighbor pass).
fn stream(code: &mut dyn BusCode, seed: u64, corrupt: bool) -> Vec<Word> {
    let mut rng = StdRng::seed_from_u64(seed);
    let k = code.data_bits();
    (0..WORDS)
        .map(|_| {
            let d = Word::from_bits(rng.gen::<u128>() & ((1u128 << k) - 1), k);
            let mut bus = code.encode(d);
            if corrupt {
                let w = rng.gen::<usize>() % bus.width();
                bus.set_bit(w, !bus.bit(w));
            }
            bus
        })
        .collect()
}

/// Times `decode` over the stream (`REPS` passes) and returns
/// `(checksum, ns_per_word)`. The checksum folds every decoded word of
/// the *first* pass, so it is timing-independent.
fn run_row(stream: &[Word], mut decode: impl FnMut(Word) -> Word) -> (u64, f64) {
    let mut checksum = 0xCBF2_9CE4_8422_2325u64;
    for &bus in stream {
        checksum = fnv1a(checksum, decode(bus));
    }
    let start = Instant::now();
    for _ in 0..REPS {
        for &bus in stream {
            std::hint::black_box(decode(std::hint::black_box(bus)));
        }
    }
    let ns = start.elapsed().as_secs_f64() * 1e9 / (REPS * stream.len()) as f64;
    (checksum, ns)
}

/// Per-row seed: split from [`SEED`] by label so adding a row never
/// shifts another row's input stream.
fn row_seed(label: &str) -> u64 {
    label.bytes().fold(SEED, |acc, b| {
        acc.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(b)
    })
}

/// Times a batch decoder over the same stream, pre-transposed into
/// [`BLOCK_WORDS`]-sized blocks. The checksum folds every decoded word
/// of the first pass in stream order — it must equal the scalar kernel
/// row's checksum on the same stream (the batch equivalence witness).
/// The timed loop decodes blocks without untransposing, which is how the
/// Monte-Carlo hot loop consumes them (failure masks read the lanes).
fn run_batch_row(stream: &[Word], dec: &mut dyn BatchCode) -> (u64, f64) {
    let blocks: Vec<WordBlock> = stream
        .chunks(BLOCK_WORDS)
        .map(WordBlock::from_words)
        .collect();
    let mut checksum = 0xCBF2_9CE4_8422_2325u64;
    for b in &blocks {
        for w in dec.decode(b).to_words() {
            checksum = fnv1a(checksum, w);
        }
    }
    let start = Instant::now();
    for _ in 0..REPS {
        for b in &blocks {
            std::hint::black_box(dec.decode(std::hint::black_box(b)));
        }
    }
    let ns = start.elapsed().as_secs_f64() * 1e9 / (REPS * stream.len()) as f64;
    (checksum, ns)
}

/// Runs the full benchmark: every catalog scheme at [`DATA_BITS`] plus
/// the explicit FPC regime rows, clean + corrupted inputs, kernel path
/// for all and scan baseline for the FPC/FTC family.
#[must_use]
pub fn run() -> Vec<Row> {
    let mut rows = Vec::new();
    let mut push = |label: &str,
                    code: &mut dyn BusCode,
                    input: &'static str,
                    path: DecodePath,
                    decode: &mut dyn FnMut(Word) -> Word| {
        let s = stream(code, row_seed(label), input == "corrupted");
        let (checksum, ns) = run_row(&s, decode);
        rows.push(Row {
            label: label.to_owned(),
            k: code.data_bits(),
            wires: code.wires(),
            input,
            path,
            checksum,
            ns_per_word: ns,
        });
    };

    for scheme in Scheme::catalog() {
        let label = scheme.name();
        for input in ["clean", "corrupted"] {
            let mut code = scheme.build(DATA_BITS);
            let mut dec = scheme.build(DATA_BITS);
            push(&label, code.as_mut(), input, DecodePath::Kernel, &mut |b| {
                dec.decode(b)
            });
        }
    }

    // The FPC regime rows + scan baselines for the whole CAC LUT family.
    for k in [11usize, 16] {
        let label = format!("FPC({k})");
        for input in ["clean", "corrupted"] {
            let mut code = ForbiddenPatternCode::new(k);
            let mut dec = ForbiddenPatternCode::new(k);
            push(&label, &mut code, input, DecodePath::Kernel, &mut |b| {
                dec.decode(b)
            });
            let mut code = ForbiddenPatternCode::new(k);
            let scan = ForbiddenPatternCode::new(k);
            push(&label, &mut code, input, DecodePath::Scan, &mut |b| {
                scan.decode_scan(b)
            });
        }
    }
    for input in ["clean", "corrupted"] {
        let mut code = ForbiddenTransitionCode::new(DATA_BITS);
        let scan = ForbiddenTransitionCode::new(DATA_BITS);
        push("FTC", &mut code, input, DecodePath::Scan, &mut |b| {
            scan.decode_scan(b)
        });
    }

    // The bit-sliced batch rows: same label, same stream, same seed as
    // the scalar kernel rows, so the checksums are directly comparable
    // (and asserted equal — the end-to-end batch equivalence witness).
    let mut push_batch =
        |label: &str, code: &mut dyn BusCode, input: &'static str, dec: &mut dyn BatchCode| {
            let s = stream(code, row_seed(label), input == "corrupted");
            let (checksum, ns) = run_batch_row(&s, dec);
            rows.push(Row {
                label: label.to_owned(),
                k: code.data_bits(),
                wires: code.wires(),
                input,
                path: DecodePath::Batch,
                checksum,
                ns_per_word: ns,
            });
        };
    for scheme in Scheme::catalog() {
        let label = scheme.name();
        for input in ["clean", "corrupted"] {
            let mut code = scheme.build(DATA_BITS);
            let mut dec = batch_build(scheme, DATA_BITS);
            push_batch(&label, code.as_mut(), input, dec.as_mut());
        }
    }
    for k in [11usize, 16] {
        let label = format!("FPC({k})");
        for input in ["clean", "corrupted"] {
            let mut code = ForbiddenPatternCode::new(k);
            let mut dec = BatchFpc::new(k);
            push_batch(&label, &mut code, input, &mut dec);
        }
    }
    rows
}

/// The kernel-vs-scan speedups on corrupted inputs, `(label, speedup)`,
/// for every row pair that has a scan baseline.
#[must_use]
pub fn corrupted_speedups(rows: &[Row]) -> Vec<(String, f64)> {
    rows.iter()
        .filter(|r| r.path == DecodePath::Scan && r.input == "corrupted")
        .map(|scan| {
            let kernel = rows
                .iter()
                .find(|r| {
                    r.path == DecodePath::Kernel
                        && r.input == "corrupted"
                        && r.label == scan.label
                        && r.k == scan.k
                })
                .expect("every scan row has a kernel partner");
            assert_eq!(
                kernel.checksum, scan.checksum,
                "{}: kernel and scan decoders must agree",
                scan.label
            );
            (scan.label.clone(), scan.ns_per_word / kernel.ns_per_word)
        })
        .collect()
}

/// The batch-vs-scalar decode speedups on corrupted inputs,
/// `(label, speedup)`, for every batch row. Asserts every batch row's
/// checksum (clean and corrupted) equals its scalar kernel partner's —
/// the bit-sliced decoders must produce the identical data stream.
#[must_use]
pub fn batch_speedups(rows: &[Row]) -> Vec<(String, f64)> {
    let partner = |batch: &Row, input: &str| -> Row {
        rows.iter()
            .find(|r| {
                r.path == DecodePath::Kernel
                    && r.input == input
                    && r.label == batch.label
                    && r.k == batch.k
            })
            .expect("every batch row has a kernel partner")
            .clone()
    };
    rows.iter()
        .filter(|r| r.path == DecodePath::Batch)
        .for_each(|batch| {
            let kernel = partner(batch, batch.input);
            assert_eq!(
                kernel.checksum, batch.checksum,
                "{} ({}): batch and scalar decoders must agree",
                batch.label, batch.input
            );
        });
    rows.iter()
        .filter(|r| r.path == DecodePath::Batch && r.input == "corrupted")
        .map(|batch| {
            let kernel = partner(batch, "corrupted");
            (batch.label.clone(), kernel.ns_per_word / batch.ns_per_word)
        })
        .collect()
}

/// The schemes the [`BATCH_GATE`] applies to, as rendered in
/// `BENCH_codec.json`: every [`Scheme::catalog`] scheme, FTC and FTC+HC
/// included. The explicit FPC rows decode through per-word table lookups
/// and stay ungated.
pub const BATCH_GATED: &str = "every catalog scheme";

/// Whether `label` is one of the [`BATCH_GATED`] schemes.
#[must_use]
pub fn batch_gated(label: &str) -> bool {
    Scheme::catalog().iter().any(|s| s.name() == label)
}

/// The embedded Monte-Carlo equivalence check: batch and scalar sharded
/// estimates of the same run, at 1 and 8 threads.
#[derive(Clone, Copy, Debug)]
pub struct McEquiv {
    /// Batch-path estimate (the default engine), measured at 1 thread.
    pub batch: WordErrorEstimate,
    /// Scalar-path estimate at 1 thread.
    pub scalar: WordErrorEstimate,
    /// Whether batch == scalar byte-for-byte at both 1 and 8 threads.
    pub agree: bool,
}

/// Runs the batch and scalar Monte-Carlo engines over the identical
/// `(scheme, k, eps, trials, seed)` at `--threads 1` and `8` and reports
/// whether all four estimates are byte-identical. [`MC_EQUIV_TRIALS`] is
/// odd, so the check crosses both a shard and a block remainder.
#[must_use]
pub fn montecarlo_equivalence() -> McEquiv {
    let (scheme, k, eps, seed) = (Scheme::Dap, DATA_BITS, 1e-2, SEED);
    let batch = word_error_rate_parallel(scheme, k, eps, MC_EQUIV_TRIALS, seed, 1);
    let scalar = word_error_rate_parallel_scalar(scheme, k, eps, MC_EQUIV_TRIALS, seed, 1);
    let batch8 = word_error_rate_parallel(scheme, k, eps, MC_EQUIV_TRIALS, seed, 8);
    let scalar8 = word_error_rate_parallel_scalar(scheme, k, eps, MC_EQUIV_TRIALS, seed, 8);
    McEquiv {
        batch,
        scalar,
        agree: batch == scalar && batch == batch8 && scalar == scalar8,
    }
}

/// Renders the **deterministic** benchmark JSON (`BENCH_codec.json`):
/// everything except wall-clock — checksums, build counts, gate
/// verdicts, and the exact-integer Monte-Carlo equivalence tallies.
#[must_use]
pub fn render_json(
    rows: &[Row],
    builds: u64,
    gate_passed: bool,
    batch_gate_passed: bool,
    mc: &McEquiv,
) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"data_bits\": {DATA_BITS},");
    let _ = writeln!(json, "  \"words\": {WORDS},");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"codebook_builds\": {builds},");
    let _ = writeln!(
        json,
        "  \"speedup_gate\": {{\"threshold\": {SPEEDUP_GATE}, \"passed\": {gate_passed}, \
         \"measured_in\": \"BENCH_codec_timing.json\"}},"
    );
    let _ = writeln!(
        json,
        "  \"batch_gate\": {{\"threshold\": {BATCH_GATE}, \"passed\": {batch_gate_passed}, \
         \"schemes\": \"{BATCH_GATED}\", \"measured_in\": \"BENCH_codec_timing.json\"}},"
    );
    let _ = writeln!(
        json,
        "  \"montecarlo_equivalence\": {{\"scheme\": \"DAP\", \"trials\": {}, \
         \"batch_failures\": {}, \"scalar_failures\": {}, \"threads_1_vs_8_agree\": {}}},",
        MC_EQUIV_TRIALS, mc.batch.failures, mc.scalar.failures, mc.agree
    );
    json.push_str("  \"rows\": [\n");
    render_rows(&mut json, rows, |json, r| {
        let _ = write!(json, "\"checksum\": \"{:016x}\"", r.checksum);
    });
    json.push_str("\n  ]\n}\n");
    json
}

/// Renders the **wall-clock** JSON (`BENCH_codec_timing.json`): the host
/// it ran on ([`crate::host::json_members`]), the same rows with
/// ns-per-word and words/sec, plus the corrupted-decode kernel-vs-scan
/// and batch-vs-scalar speedups. Machine-dependent by design; never
/// byte-compared.
#[must_use]
pub fn render_timing_json(rows: &[Row]) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"note\": \"wall-clock; machine-dependent, not byte-reproducible\",\n");
    json.push_str(&crate::host::json_members());
    json.push_str("  \"corrupted_decode_speedups\": [\n");
    push_rows(
        &mut json,
        corrupted_speedups(rows),
        |json, (label, speedup)| {
            let _ = write!(
                json,
                "    {{\"scheme\": \"{label}\", \"scan_over_kernel\": {speedup:.2}}}"
            );
        },
    );
    json.push_str("\n  ],\n");
    json.push_str("  \"batch_decode_speedups\": [\n");
    push_rows(&mut json, batch_speedups(rows), |json, (label, speedup)| {
        let _ = write!(
            json,
            "    {{\"scheme\": \"{label}\", \"scalar_over_batch\": {speedup:.2}, \
             \"gated\": {}}}",
            batch_gated(&label)
        );
    });
    json.push_str("\n  ],\n");
    json.push_str("  \"rows\": [\n");
    render_rows(&mut json, rows, |json, r| {
        let _ = write!(
            json,
            "\"ns_per_word\": {:.2}, \"words_per_sec\": {:.0}",
            r.ns_per_word,
            1e9 / r.ns_per_word
        );
    });
    json.push_str("\n  ]\n}\n");
    json
}

fn render_rows(json: &mut String, rows: &[Row], tail: impl Fn(&mut String, &Row)) {
    push_rows(json, rows, |json, r| {
        let path = match r.path {
            DecodePath::Kernel => "kernel",
            DecodePath::Scan => "scan",
            DecodePath::Batch => "batch",
        };
        let _ = write!(
            json,
            "    {{\"scheme\": \"{}\", \"k\": {}, \"wires\": {}, \"input\": \"{}\", \
             \"path\": \"{path}\", ",
            r.label, r.k, r.wires, r.input
        );
        tail(json, r);
        json.push('}');
    });
}

/// Bin entry point: runs the benchmark, asserts the kernel-vs-scan and
/// batch-vs-scalar speedup gates plus the Monte-Carlo batch/scalar
/// equivalence, writes both JSON files.
/// Args: `[BENCH_codec.json [BENCH_codec_timing.json]]`.
pub fn main_with_args(args: &[String]) -> i32 {
    let out = args
        .first()
        .map_or("results/BENCH_codec.json", String::as_str);
    let timing_out = args
        .get(1)
        .map_or("results/BENCH_codec_timing.json", String::as_str);
    let before = codebook_builds();
    let rows = run();
    let builds = codebook_builds() - before;

    let speedups = corrupted_speedups(&rows);
    let mut gate_passed = true;
    for (label, speedup) in &speedups {
        eprintln!("{label:<10} corrupted decode: scan/kernel = {speedup:.1}x");
        if *speedup < SPEEDUP_GATE {
            gate_passed = false;
        }
    }
    assert!(
        gate_passed,
        "speedup gate failed: every FPC/FTC corrupted-decode row must be \
         >= {SPEEDUP_GATE}x faster than its scan baseline ({speedups:?})"
    );

    let batch = batch_speedups(&rows);
    let mut batch_gate_passed = true;
    for (label, speedup) in &batch {
        let gated = batch_gated(label);
        eprintln!(
            "{label:<10} corrupted decode: scalar/batch = {speedup:.1}x{}",
            if gated { " [gated]" } else { "" }
        );
        if gated && *speedup < BATCH_GATE {
            batch_gate_passed = false;
        }
    }
    assert!(
        batch_gate_passed,
        "batch gate failed: the corrupted-decode rows of {BATCH_GATED} must be \
         >= {BATCH_GATE}x faster on the bit-sliced path ({batch:?})"
    );

    let mc = montecarlo_equivalence();
    eprintln!(
        "montecarlo batch vs scalar over {} trials: {} vs {} failures (threads 1 vs 8 agree: {})",
        MC_EQUIV_TRIALS, mc.batch.failures, mc.scalar.failures, mc.agree
    );
    assert!(
        mc.agree && mc.batch == mc.scalar,
        "montecarlo batch/scalar equivalence failed: {mc:?}"
    );

    write_file(
        out,
        &render_json(&rows, builds, gate_passed, batch_gate_passed, &mc),
    );
    write_file(timing_out, &render_timing_json(&rows));
    eprintln!("codec benchmark written to {out} (timing: {timing_out})");
    0
}

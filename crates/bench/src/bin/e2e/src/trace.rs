//! Spans and counts recorded around the library calls the benchmark
//! makes, plus the counting allocator behind the allocation metrics.
//!
//! A traced op carries a [`Spans`] clock. Each [`Spans::mark`] closes the
//! span that began at the previous mark, so the marks of one op tile its
//! wall time with no gaps: an op's spans are all leaves, their self time
//! is their duration, and the op itself (their parent) has no self time.
//! Untraced ops carry a clock that is off, where every call is one branch.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Op records kept per run for the trace file; later ops only add to the
/// aggregate tables.
const MAX_OP_RECORDS: usize = 4096;

/// Totals of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanStat {
    /// Spans recorded.
    pub count: u64,
    /// Their summed duration in nanoseconds (all spans are leaves, so
    /// this is also their self time).
    pub ns: f64,
}

/// One finished op (a scheme estimate, link stream, mesh run or chaos
/// cell): its place in the run and the time each layer took inside it.
#[derive(Clone, Debug, PartialEq)]
pub struct OpRecord {
    /// Op label (scheme or cell name).
    pub label: String,
    /// Round the op ran in.
    pub round: u64,
    /// Start and end, in microseconds since the run began.
    pub start_us: f64,
    pub end_us: f64,
    /// Nanoseconds per span name inside the op.
    pub layers: Vec<(&'static str, f64)>,
}

/// Everything a traced run recorded: span totals, summed counts, samples
/// for quantiles, and the thread-time the spans could have covered.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    pub spans: BTreeMap<&'static str, SpanStat>,
    pub sums: BTreeMap<&'static str, f64>,
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Thread-nanoseconds available to the spans: the traced rounds'
    /// wall time, plus `(workers - 1) × duration` of every
    /// `run_shards` call (the calling thread waits while the workers run).
    pub available_ns: f64,
    pub ops: Vec<OpRecord>,
}

impl Trace {
    /// Adds `v` to the running sum `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_insert(0.0) += v;
    }

    /// The running sum `name` (0 when never added to).
    #[must_use]
    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Total nanoseconds spent in spans named `name`.
    #[must_use]
    pub fn span_ns(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |s| s.ns)
    }

    /// Keeps `v` for a quantile of `name`.
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// The samples kept for `name`.
    #[must_use]
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Records that `workers` threads ran shards for `ns` nanoseconds
    /// while the calling thread waited.
    pub fn pool(&mut self, workers: usize, ns: f64) {
        self.available_ns += workers.saturating_sub(1) as f64 * ns;
    }

    fn span(&mut self, name: &'static str, ns: f64) {
        let s = self.spans.entry(name).or_default();
        s.count += 1;
        s.ns += ns;
    }

    /// Folds `other` into this trace.
    pub fn merge(&mut self, other: Trace) {
        for (name, s) in other.spans {
            let t = self.spans.entry(name).or_default();
            t.count += s.count;
            t.ns += s.ns;
        }
        for (name, v) in other.sums {
            self.add(name, v);
        }
        for (name, mut v) in other.samples {
            self.samples.entry(name).or_default().append(&mut v);
        }
        self.available_ns += other.available_ns;
        let room = MAX_OP_RECORDS.saturating_sub(self.ops.len());
        self.ops.extend(other.ops.into_iter().take(room));
    }
}

/// The instant the run began; op records are timed from it.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

struct Live {
    trace: Trace,
    start: Instant,
    last: Instant,
    /// This thread's allocation count when the op began.
    allocs: u64,
}

/// The span clock one op carries.
pub struct Spans(Option<Box<Live>>);

impl Spans {
    /// A running clock when `on`, else one that records nothing.
    #[must_use]
    pub fn new(on: bool) -> Self {
        if !on {
            return Spans(None);
        }
        let now = Instant::now();
        Spans(Some(Box::new(Live {
            trace: Trace::default(),
            start: now,
            last: now,
            allocs: allocs(),
        })))
    }

    /// Closes the span `name` that began at the previous mark.
    #[inline]
    pub fn mark(&mut self, name: &'static str) {
        if let Some(live) = &mut self.0 {
            let now = Instant::now();
            let ns = now.duration_since(live.last).as_nanos() as f64;
            live.last = now;
            live.trace.span(name, ns);
        }
    }

    /// [`Spans::mark`], also keeping the span's duration divided by
    /// `per` as a sample of `sample` (for per-item quantiles).
    #[inline]
    pub fn mark_sampled(&mut self, name: &'static str, sample: &'static str, per: f64) {
        if let Some(live) = &mut self.0 {
            let now = Instant::now();
            let ns = now.duration_since(live.last).as_nanos() as f64;
            live.last = now;
            live.trace.span(name, ns);
            live.trace.sample(sample, ns / per.max(1.0));
        }
    }

    /// Adds to a count when recording.
    #[inline]
    pub fn add(&mut self, name: &'static str, v: f64) {
        if let Some(live) = &mut self.0 {
            live.trace.add(name, v);
        }
    }

    /// Ends the op: its duration becomes an `exec.unit` sample when
    /// `unit` (the op was one shard of a pool) and an op record under
    /// `label`, and the allocations the op's thread made since it began
    /// are added to `allocs`. `None` when the clock was off.
    #[must_use]
    pub fn finish(self, label: &str, round: u64, unit: bool) -> Option<Trace> {
        let live = self.0?;
        let Live {
            mut trace,
            start,
            last,
            allocs: allocs_before,
        } = *live;
        trace.add("allocs", (allocs() - allocs_before) as f64);
        let ns = last.duration_since(start).as_nanos() as f64;
        if unit {
            trace.add("exec.busy_ns", ns);
            trace.sample("exec.unit_ms", ns / 1e6);
        }
        let at = |t: Instant| t.duration_since(epoch()).as_nanos() as f64 / 1e3;
        trace.ops.push(OpRecord {
            label: label.to_owned(),
            round,
            start_us: at(start),
            end_us: at(last),
            layers: trace.spans.iter().map(|(&n, s)| (n, s.ns)).collect(),
        });
        Some(trace)
    }
}

/// Nearest-rank quantile of `v` (0 for an empty slice).
#[must_use]
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// What the allocator records: nothing (0), allocation counts, or live
/// bytes. One load of this decides, so with both off each allocation pays
/// one relaxed load and a branch.
static MODE: AtomicU8 = AtomicU8::new(0);
const COUNT: u8 = 1;
const BYTES: u8 = 2;
/// Heap bytes allocated minus freed since [`peak_heap_bytes`] began, and
/// the highest value that reached.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// Allocations this thread made while counting was on. Per thread, so
    /// pool workers never contend on one counter.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Records an allocation of `grow` bytes (negative for a free).
#[inline]
fn record(alloc: bool, grow: i64) {
    let mode = MODE.load(Ordering::Relaxed);
    if mode == 0 {
        return;
    }
    if mode & COUNT != 0 && alloc {
        // During thread teardown the slot may be gone; that allocation
        // goes uncounted.
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
    if mode & BYTES != 0 {
        let live = LIVE.fetch_add(grow, Ordering::Relaxed) + grow;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn bytes(n: usize) -> i64 {
    i64::try_from(n).unwrap_or(i64::MAX)
}

/// The system allocator, counting allocations (traced rounds) or live
/// heap bytes (the memory round) when asked to.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold. Recording touches only
// atomics and a const-initialised thread-local `Cell`, none of which
// allocate. The counters are statistics that publish no other data,
// hence `Relaxed`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(true, bytes(layout.size()));
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(true, bytes(layout.size()));
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(true, bytes(new_size) - bytes(layout.size()));
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(false, -bytes(layout.size()));
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turns allocation counting on or off (process-wide).
pub fn count_allocs(on: bool) {
    MODE.store(if on { COUNT } else { 0 }, Ordering::Relaxed);
}

/// Allocations the calling thread has made while counting was on.
#[must_use]
pub fn allocs() -> u64 {
    THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// Runs `f` and returns the most heap bytes it held at once: the peak of
/// bytes allocated minus bytes freed while it ran.
pub fn peak_heap_bytes<R>(f: impl FnOnce() -> R) -> (R, u64) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    MODE.store(BYTES, Ordering::Relaxed);
    let out = f();
    MODE.store(0, Ordering::Relaxed);
    (
        out,
        u64::try_from(PEAK.load(Ordering::Relaxed)).unwrap_or(0),
    )
}

//! Recording under a held [`EventKey`] is recording by name: one random
//! stream of spans and instant events, driven once by name and once
//! through keys a site holds and re-resolves at random points, exports
//! the same bytes — JSONL, Chrome trace, summary, ring statistics and
//! health scope — before and after both recorders are absorbed into
//! another. Every surviving record keeps its exact end, including spans
//! whose length does not fit 32 bits and spans that end before they
//! begin, through a ring small enough to evict.
//!
//! A key names the recorder that issued it: recorded anywhere else it is
//! ignored and counted as a kind conflict.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::rc::Rc;

use proptest::prelude::*;
use socbus_telemetry::{
    EventKey, EventKind, HealthAggregator, HealthConfig, HealthReport, Recorder, Telemetry,
    TelemetrySink,
};

const NAMES: [&str; 3] = ["link.word", "link.retry", "mesh.accept"];

/// Label sets, each listed in the order a site happens to build it.
const SETS: [&[(&str, &str)]; 3] = [
    &[("scheme", "DAP"), ("hop", "0")],
    &[("hop", "1")],
    &[("scheme", "BSC"), ("hop", "2"), ("dir", "x")],
];

/// Ring capacity of the recorders under test: a few records, so long
/// spans are evicted as well as recorded.
const RING: usize = 7;

/// One decoded op.
struct Op {
    name: usize,
    set: usize,
    kind: EventKind,
    /// Rotation of the label set's pairs at this call.
    rotate: usize,
    begin: u64,
    end: u64,
    /// Whether the held key is dropped and resolved again first.
    reresolve: bool,
}

/// Spans cover the boundaries of the 32-bit length: 0, 1, `u32::MAX -
/// 1`, `u32::MAX`, 2³², the rest of the `u64` range, and an end before
/// the begin.
fn decode(op: u64, at: u64) -> Op {
    #[allow(clippy::cast_possible_truncation)]
    let pick = |shift: u32, n: u64| ((op >> shift) % n) as usize;
    let kind = if op & 1 == 0 {
        EventKind::Span
    } else {
        EventKind::Instant
    };
    let begin = at;
    let end = match kind {
        EventKind::Instant => begin,
        EventKind::Span => match pick(12, 8) {
            0 => begin,
            1 => begin + 1,
            2 => begin + u64::from(u32::MAX) - 1,
            3 => begin + u64::from(u32::MAX),
            4 => begin + (1 << 32),
            5 => u64::MAX,
            6 => begin.saturating_sub(1 + (op >> 40) % 5),
            _ => begin + (op >> 40) % 9,
        },
    };
    Op {
        name: pick(1, 3),
        set: pick(4, 3),
        kind,
        rotate: pick(8, 3),
        begin,
        end,
        reresolve: pick(16, 4) == 0,
    }
}

fn labels(set: usize, rotate: usize) -> Vec<(&'static str, &'static str)> {
    let mut pairs = SETS[set].to_vec();
    let by = rotate % pairs.len();
    pairs.rotate_left(by);
    pairs
}

/// Drives `ops` into two recorders, by name and through held keys, and
/// returns them with the records a ring of [`RING`] should keep.
fn drive(ops: &[u64]) -> (Recorder, Recorder, VecDeque<String>) {
    let by_name = Rc::new(Recorder::with_capacity(RING));
    let by_key = Rc::new(Recorder::with_capacity(RING));
    let named = Telemetry::from_recorder(&by_name);
    let keyed = Telemetry::from_recorder(&by_key);
    let mut held: BTreeMap<(usize, usize, EventKind), EventKey> = BTreeMap::new();
    let mut model = VecDeque::new();
    let mut at = 0u64;
    for &op in ops {
        at += (op >> 20) % 3;
        let op = decode(op, at);
        let name = NAMES[op.name];
        let pairs = labels(op.set, op.rotate);
        match op.kind {
            EventKind::Span => named.span(name, &pairs, op.begin, op.end),
            EventKind::Instant => named.event(name, &pairs, op.begin),
        }
        let slot = (op.name, op.set, op.kind);
        if op.reresolve {
            held.remove(&slot);
        }
        let key = *held
            .entry(slot)
            .or_insert_with(|| keyed.key(name, &pairs, op.kind).expect("enabled"));
        keyed.record(key, op.begin, op.end);
        if model.len() == RING {
            model.pop_front();
        }
        model.push_back(jsonl_line(name, op.kind, SETS[op.set], op.begin, op.end));
    }
    drop((named, keyed));
    let unwrap = |r: Rc<Recorder>| Rc::try_unwrap(r).ok().expect("sole handle");
    (unwrap(by_name), unwrap(by_key), model)
}

/// The JSONL line the exporter must write for one record.
fn jsonl_line(name: &str, kind: EventKind, pairs: &[(&str, &str)], begin: u64, end: u64) -> String {
    let mut sorted = pairs.to_vec();
    sorted.sort_unstable();
    let mut labels = String::new();
    for (i, (k, v)) in sorted.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(labels, "{sep}\"{k}\": \"{v}\"");
    }
    match kind {
        EventKind::Span => format!(
            "{{\"type\": \"span\", \"name\": \"{name}\", \"begin\": {begin}, \"end\": {end}, \
             \"labels\": {{{labels}}}}}"
        ),
        EventKind::Instant => format!(
            "{{\"type\": \"event\", \"name\": \"{name}\", \"at\": {begin}, \
             \"labels\": {{{labels}}}}}"
        ),
    }
}

/// Everything a reader can see of a recorder.
fn exports(r: &Recorder) -> [String; 5] {
    let mut health = HealthReport::new();
    health.push_scope(HealthAggregator::scope_from_recorder(
        "keys",
        &HealthConfig::default(),
        r,
    ));
    [
        r.export_jsonl(),
        r.export_chrome_trace(),
        r.render_summary(),
        format!("{:?}", r.ring_stats()),
        health.serialize(),
    ]
}

/// One record as a site gives it: name, kind, labels, begin and end.
type Given = (
    &'static str,
    EventKind,
    &'static [(&'static str, &'static str)],
    u64,
    u64,
);

/// The records a merge target holds before it absorbs: a long span
/// among them, and keys of its own, so absorbing maps keys and evicts.
const TARGET: [Given; 3] = [
    ("mesh.accept", EventKind::Instant, &[("hop", "2")], 3, 3),
    (
        "link.word",
        EventKind::Span,
        &[("hop", "0"), ("scheme", "DAP")],
        4,
        4 + (1 << 33),
    ),
    ("link.word", EventKind::Span, &[("hop", "9")], 5, 6),
];

fn target(capacity: usize) -> Recorder {
    let r = Recorder::with_capacity(capacity);
    for (name, kind, pairs, begin, end) in TARGET {
        r.record(r.key(name, pairs, kind), begin, end);
    }
    r
}

/// The first `n` event lines of `r`'s JSONL.
fn event_lines(r: &Recorder, n: usize) -> Vec<String> {
    r.export_jsonl()
        .lines()
        .skip(1)
        .take(n)
        .map(str::to_owned)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn held_keys_record_exactly_what_names_record(
        ops in prop::collection::vec(any::<u64>(), 0..40),
    ) {
        let (by_name, by_key, model) = drive(&ops);
        prop_assert_eq!(event_lines(&by_key, model.len()), Vec::from(model.clone()));
        prop_assert_eq!(exports(&by_name), exports(&by_key));
        prop_assert_eq!(by_key.kind_conflicts(), 0);
        for capacity in [3, RING + 2] {
            let (a, b) = (target(capacity), target(capacity));
            a.absorb(&by_name);
            b.absorb(&by_key);
            let mut merged: Vec<String> = TARGET
                .iter()
                .map(|&(name, kind, pairs, begin, end)| jsonl_line(name, kind, pairs, begin, end))
                .chain(model.iter().cloned())
                .collect();
            merged.drain(..merged.len().saturating_sub(capacity));
            prop_assert_eq!(event_lines(&b, merged.len()), merged);
            prop_assert_eq!(exports(&a), exports(&b));
        }
    }
}

#[test]
fn a_key_from_another_recorder_is_ignored_and_counted() {
    let a = Rc::new(Recorder::new());
    let b = Rc::new(Recorder::with_capacity(4));
    let (ta, tb) = (Telemetry::from_recorder(&a), Telemetry::from_recorder(&b));
    let labels = [("hop", "0")];
    tb.span("link.word", &labels, 0, 2);
    // `a`'s first key and `b`'s first key have the same index.
    let foreign = ta.key("link.word", &labels, EventKind::Span).expect("on");
    let own = tb.key("link.word", &labels, EventKind::Span).expect("on");
    assert_ne!(foreign, own);
    let before = exports(&b);
    tb.record(foreign, 5, 9);
    assert_eq!(b.kind_conflicts(), 1);
    let after = exports(&b);
    for (i, (was, now)) in before.iter().zip(&after).enumerate() {
        if i == 2 {
            // The summary surfaces the conflict, and only that.
            assert_eq!(now.replace("WARNING: 1 metric kind conflicts\n", ""), *was);
        } else {
            assert_eq!(now, was);
        }
    }
    assert_eq!(a.ring_stats().recorded, 0, "nothing reached the issuer");
    // A made-up key naming `b` but no entry of it is ignored as well.
    tb.record(EventKey::new(own.sink(), 7), 1, 2);
    assert_eq!(b.kind_conflicts(), 2);
    assert_eq!(b.ring_stats().recorded, 1);
}

#[test]
fn a_zero_capacity_recorder_only_counts_drops() {
    let r = Rc::new(Recorder::with_capacity(0));
    let tel = Telemetry::from_recorder(&r);
    let key = tel
        .key("link.word", &[("hop", "0")], EventKind::Span)
        .expect("on");
    tel.record(key, 0, 1);
    tel.span("link.word", &[("hop", "0")], 1, 2);
    let stats = r.ring_stats();
    assert_eq!((stats.recorded, stats.dropped), (0, 2));
    assert_eq!(r.kind_conflicts(), 0);
    // Another recorder's key is still a conflict, not a drop.
    let other = Rc::new(Recorder::new());
    let foreign = Telemetry::from_recorder(&other)
        .key("link.word", &[("hop", "0")], EventKind::Span)
        .expect("on");
    tel.record(foreign, 0, 1);
    assert_eq!((r.ring_stats().dropped, r.kind_conflicts()), (2, 1));
}

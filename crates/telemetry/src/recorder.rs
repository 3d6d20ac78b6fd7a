//! The in-memory sink: metrics registry plus a bounded event ring.
//!
//! # Cycle domains
//!
//! Timestamps are simulated cycles supplied by the instrumentation
//! sites, never wall-clock time. Each *track* (e.g. one hop of a path)
//! owns its cycle clock: hop 1's cycle 40 is not the same instant as hop
//! 0's cycle 40. Exporters keep tracks separate (one Perfetto thread per
//! hop), so per-track ordering is exact while cross-track alignment is
//! approximate — acceptable for a store-and-forward simulation, and the
//! price of staying fully deterministic.
//!
//! # Determinism
//!
//! All storage is ordered (a `BTreeMap` registry, an insertion-ordered
//! ring); floats are rendered with shortest-roundtrip formatting at
//! export time. Two identical simulation runs therefore export
//! byte-identical JSONL, Perfetto JSON, and summary text — the property
//! the CI trace job byte-diffs.
//!
//! # Event storage
//!
//! Each recorder stores every distinct event key — an event name, its
//! sorted label set and its kind (span or instant) — once
//! (`EventKeys`), and hands it out as an [`EventKey`] that also names
//! the recorder. A ring record is 16 bytes: the first cycle, the length
//! as a `u32`, and the key's index. A span whose length does not fit
//! below `u32::MAX`, or that ends before it begins, stores `u32::MAX`
//! and keeps its exact end in `long_ends`, a FIFO in ring order that is
//! popped, drained and absorbed together with its records; every reader
//! walks the two in step ([`Inner::events`]).
//!
//! Recording under a held key copies 16 bytes and neither hashes nor
//! allocates once the ring has grown; recording by name costs one hash
//! and one probe first. Keys never reach an export: every reader
//! resolves each key back to its name, kind and sorted pairs once,
//! however many records name it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::sink::{EventKey, EventKind, Labels, TelemetrySink};

/// Default ring capacity (events). At the soak campaign's smoke size a
/// full run fits; longer runs drop oldest-first and count the loss.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Histogram bucket upper bounds used when a metric has no registered
/// bounds: powers of two covering the cycle counts a word can plausibly
/// consume (the `+Inf` bucket is implicit).
pub const DEFAULT_HISTOGRAM_BOUNDS: [f64; 9] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];

/// Owned label set, sorted by key — the canonical registry identity.
type OwnedLabels = Vec<(String, String)>;

fn own(labels: Labels<'_>) -> OwnedLabels {
    let mut owned: OwnedLabels = labels
        .iter()
        .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
        .collect();
    owned.sort();
    owned
}

/// One registry entry.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Metric {
    /// Monotonic counter.
    Counter(u64),
    /// Last-write-wins gauge.
    Gauge(f64),
    /// Fixed-bucket histogram.
    Histogram(Histogram),
}

impl Metric {
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A fixed-bucket histogram: `counts[i]` tallies observations `<=
/// bounds[i]`; the final slot is the overflow (`+Inf`) bucket.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// Bucket upper bounds, ascending.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (`bounds.len() + 1` slots).
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl Histogram {
    fn new(bounds: Vec<f64>) -> Self {
        let counts = vec![0; bounds.len() + 1];
        Histogram {
            bounds,
            counts,
            sum: 0.0,
            count: 0,
        }
    }

    fn observe_n(&mut self, value: f64, n: u64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += n;
        #[allow(clippy::cast_precision_loss)]
        {
            self.sum += value * n as f64;
        }
        self.count += n;
    }
}

/// An empty metric of the same kind (and, for histograms, the same
/// bounds) as `like` — the identity element [`Recorder::absorb`] merges
/// into when this recorder has no entry for a key yet.
fn empty_like(like: &Metric) -> Metric {
    match like {
        Metric::Counter(_) => Metric::Counter(0),
        // Gauges are last-write-wins; the absorbed value overwrites this.
        Metric::Gauge(_) => Metric::Gauge(0.0),
        Metric::Histogram(h) => Metric::Histogram(Histogram::new(h.bounds.clone())),
    }
}

/// Names one interned event name and label set within its recorder's
/// [`EventKeys`].
pub(crate) type KeyId = u32;

/// One recorded span or instant event: a plain 16-byte copy with nothing
/// on the heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct EventRecord {
    pub begin: u64,
    /// `end - begin`, or [`LONG`] when that is not below `u32::MAX` or
    /// the span ends before it begins; the end then waits in
    /// [`Inner::long_ends`].
    pub len: u32,
    /// The event's name, kind and sorted label set, interned in the same
    /// recorder.
    pub key: KeyId,
}

const _: () = assert!(size_of::<EventRecord>() == 16);

/// The length a record stores when its end is kept in `long_ends`.
const LONG: u32 = u32::MAX;

/// A ring record with its end restored.
pub(crate) struct Event {
    pub begin: u64,
    /// The last cycle; `begin` for an instant event.
    pub end: u64,
    pub key: KeyId,
}

/// A `(key, value)` label pair, borrowed or owned.
trait Pair {
    fn kv(&self) -> (&str, &str);
}

impl Pair for (&str, &str) {
    fn kv(&self) -> (&str, &str) {
        (self.0, self.1)
    }
}

impl Pair for (String, String) {
    fn kv(&self) -> (&str, &str) {
        (&self.0, &self.1)
    }
}

fn mix(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// Hashes `s` a word at a time. Its length goes in first, so
/// zero-padding the last word is unambiguous.
fn hash_str(h: u64, s: &str) -> u64 {
    let mut h = mix(h, s.len() as u64);
    for chunk in s.as_bytes().chunks(8) {
        h = mix(h, chunk.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b)));
    }
    h
}

/// Hashes an event key: its name and kind, then its label set
/// independently of the set's order (the pairs' own hashes are summed,
/// so a lookup never has to sort). The constants are fixed, so a key
/// hashes alike in every recorder and [`Recorder::absorb`] can reuse a
/// shard's hashes.
fn hash_key<P: Pair>(name: &str, kind: EventKind, pairs: &[P]) -> u64 {
    let sum = pairs.iter().fold(0u64, |sum, p| {
        let (k, v) = p.kv();
        sum.wrapping_add(hash_str(hash_str(0, k), v))
    });
    let named = mix(hash_str(sum, name), kind as u64);
    mix(named, pairs.len() as u64)
}

/// Whether `pairs`, in any order, are exactly the sorted pairs of `set`,
/// repeated pairs included: each pair claims a distinct equal member.
fn same_set<P: Pair>(set: &[(String, String)], pairs: &[P]) -> bool {
    let eq = |(k, v): &(String, String), (pk, pv): (&str, &str)| k == pk && v == pv;
    if set.len() != pairs.len() {
        return false;
    }
    if set.len() > 64 {
        // Too many to track claims in one word: compare multiplicities.
        return pairs.iter().all(|p| {
            let count = pairs.iter().filter(|q| q.kv() == p.kv()).count();
            count == set.iter().filter(|m| eq(m, p.kv())).count()
        });
    }
    let mut claimed = 0u64;
    pairs.iter().all(|p| {
        let hit = (0..set.len()).find(|&j| claimed >> j & 1 == 0 && eq(&set[j], p.kv()));
        hit.map(|j| claimed |= 1 << j).is_some()
    })
}

/// Every distinct event key one recorder has seen — an event name, its
/// kind and its label set — stored once, the set sorted, and named by
/// its index. An open-addressing index over [`hash_key`] finds a known
/// key without sorting or allocating; a hit always compares the name,
/// the kind and the pairs exactly, so a hash collision can never merge
/// two keys.
pub(crate) struct EventKeys {
    /// Keys by id: the event name, its kind and its pairs sorted by
    /// `(key, value)`.
    keys: Vec<(&'static str, EventKind, OwnedLabels)>,
    /// `hashes[id]` = [`hash_key`] of `keys[id]`.
    hashes: Vec<u64>,
    /// Each slot holds `id + 1`, 0 when empty. The length is 0 or a
    /// power of two at least twice `keys.len()`.
    slots: Vec<u32>,
}

impl EventKeys {
    fn new() -> Self {
        EventKeys {
            keys: Vec::new(),
            hashes: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// The name, kind and sorted pairs of key `id`.
    pub(crate) fn get(&self, id: KeyId) -> (&'static str, EventKind, &[(String, String)]) {
        let (name, kind, set) = &self.keys[id as usize];
        (name, *kind, set)
    }

    /// Number of interned keys.
    fn len(&self) -> usize {
        self.keys.len()
    }

    /// Every key's name, kind and sorted pairs, in id order.
    pub(crate) fn iter(
        &self,
    ) -> impl Iterator<Item = (&'static str, EventKind, &[(String, String)])> {
        self.keys
            .iter()
            .map(|(name, kind, set)| (*name, *kind, set.as_slice()))
    }

    /// The id of `name` of `kind` with `pairs` in any order, interning
    /// the key on first sight. `hash` is [`hash_key`] of all three when
    /// the caller already knows it.
    fn intern<P: Pair>(
        &mut self,
        name: &'static str,
        kind: EventKind,
        pairs: &[P],
        hash: Option<u64>,
    ) -> KeyId {
        let hash = hash.unwrap_or_else(|| hash_key(name, kind, pairs));
        match self.find(name, kind, pairs, hash) {
            Some(id) => id,
            None => self.insert(name, kind, pairs, hash),
        }
    }

    fn find<P: Pair>(&self, name: &str, kind: EventKind, pairs: &[P], hash: u64) -> Option<KeyId> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = home(self.slots.len(), hash);
        loop {
            let id = self.slots[i].checked_sub(1)?;
            let (known, known_kind, set) = &self.keys[id as usize];
            if self.hashes[id as usize] == hash
                && *known == name
                && *known_kind == kind
                && same_set(set, pairs)
            {
                return Some(id);
            }
            i = (i + 1) & mask;
        }
    }

    fn insert<P: Pair>(
        &mut self,
        name: &'static str,
        kind: EventKind,
        pairs: &[P],
        hash: u64,
    ) -> KeyId {
        // Slots store `id + 1`, so the largest id is `KeyId::MAX - 1`.
        let id = KeyId::try_from(self.keys.len())
            .ok()
            .filter(|&id| id < KeyId::MAX)
            .expect("fewer than 2^32 - 1 distinct event keys");
        let mut sorted: OwnedLabels = pairs
            .iter()
            .map(|p| {
                let (k, v) = p.kv();
                (k.to_owned(), v.to_owned())
            })
            .collect();
        sorted.sort_unstable();
        self.keys.push((name, kind, sorted));
        self.hashes.push(hash);
        if 2 * self.keys.len() > self.slots.len() {
            self.slots = vec![0; (2 * self.slots.len()).max(16)];
            for (id, &hash) in (0..).zip(&self.hashes) {
                place(&mut self.slots, id, hash);
            }
        } else {
            place(&mut self.slots, id, hash);
        }
        id
    }
}

/// The home slot of `hash` in an index of `len` slots (a power of two):
/// its top bits, which the final multiply of [`mix`] spreads best.
fn home(len: usize, hash: u64) -> usize {
    (hash >> (64 - len.trailing_zeros())) as usize
}

/// Puts `id` in the first free slot at or after `hash`'s home.
fn place(slots: &mut [u32], id: KeyId, hash: u64) {
    let mask = slots.len() - 1;
    let mut i = home(slots.len(), hash);
    while slots[i] != 0 {
        i = (i + 1) & mask;
    }
    slots[i] = id + 1;
}

/// Ring-buffer occupancy statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Events currently held.
    pub recorded: usize,
    /// Events evicted oldest-first because the ring was full.
    pub dropped: u64,
    /// Ring capacity.
    pub capacity: usize,
}

impl RingStats {
    /// A one-line operator warning when events were dropped, `None`
    /// otherwise. Bins print this next to their telemetry footer so a
    /// truncated event log is never silent: metrics (counters, gauges,
    /// histograms) are unaffected by ring overflow, but JSONL event
    /// lines and Perfetto slices cover only the surviving suffix.
    #[must_use]
    pub fn overflow_warning(&self) -> Option<String> {
        if self.dropped == 0 {
            return None;
        }
        Some(format!(
            "WARNING: telemetry ring dropped {} of {} events (capacity {}); \
             JSONL/Perfetto event logs are truncated, metrics are complete",
            self.dropped,
            self.dropped + self.recorded as u64,
            self.capacity
        ))
    }
}

pub(crate) struct Inner {
    pub metrics: BTreeMap<(String, OwnedLabels), Metric>,
    /// The ring, oldest first. Its storage grows on demand and never
    /// past `capacity` records.
    pub ring: VecDeque<EventRecord>,
    /// The exact end of every ring record whose `len` is [`LONG`], in
    /// ring order.
    pub long_ends: VecDeque<u64>,
    /// The names, kinds and label sets `ring` names.
    pub keys: EventKeys,
    /// Logical ring capacity.
    pub capacity: usize,
    pub dropped: u64,
    /// Name-keyed custom histogram bounds (checked before the default).
    pub bounds: Vec<(&'static str, Vec<f64>)>,
    /// Updates ignored because the key already held a different metric
    /// kind (a site bug worth surfacing, not worth a panic mid-run).
    pub kind_conflicts: u64,
}

/// The deterministic in-memory sink. Single-threaded by design (the
/// simulators are single-threaded); interior mutability lets a shared
/// `Rc<Recorder>` receive from many instrumented components at once.
pub struct Recorder {
    /// This recorder's identity within the process, carried by every
    /// [`EventKey`] it issues.
    id: u64,
    pub(crate) inner: RefCell<Inner>,
}

/// The next recorder identity; 0 is never issued.
static NEXT_RECORDER: AtomicU64 = AtomicU64::new(1);

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder with the default ring capacity.
    #[must_use]
    pub fn new() -> Self {
        Recorder::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A recorder whose event ring holds at most `capacity` events;
    /// older events are evicted first and tallied in [`RingStats`].
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            id: NEXT_RECORDER.fetch_add(1, Ordering::Relaxed),
            inner: RefCell::new(Inner {
                metrics: BTreeMap::new(),
                ring: VecDeque::new(),
                long_ends: VecDeque::new(),
                keys: EventKeys::new(),
                capacity,
                dropped: 0,
                bounds: Vec::new(),
                kind_conflicts: 0,
            }),
        }
    }

    /// Registers custom histogram bucket bounds for `name` (ascending).
    /// Histograms created before this call keep their old bounds.
    pub fn set_histogram_bounds(&self, name: &'static str, bounds: Vec<f64>) {
        let mut inner = self.inner.borrow_mut();
        if let Some(entry) = inner.bounds.iter_mut().find(|(n, _)| *n == name) {
            entry.1 = bounds;
        } else {
            inner.bounds.push((name, bounds));
        }
    }

    /// Ring-buffer occupancy.
    #[must_use]
    pub fn ring_stats(&self) -> RingStats {
        let inner = self.inner.borrow();
        RingStats {
            recorded: inner.ring.len(),
            dropped: inner.dropped,
            capacity: inner.capacity,
        }
    }

    /// The current value of the counter `name` with exactly `labels`
    /// (order-insensitive), or 0 when absent — the test hook.
    #[must_use]
    pub fn counter_value(&self, name: &str, labels: Labels<'_>) -> u64 {
        let key = (name.to_owned(), own(labels));
        match self.inner.borrow().metrics.get(&key) {
            Some(Metric::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// The current value of the gauge `name` with exactly `labels`, or
    /// `None` when absent.
    #[must_use]
    pub fn gauge_value(&self, name: &str, labels: Labels<'_>) -> Option<f64> {
        let key = (name.to_owned(), own(labels));
        match self.inner.borrow().metrics.get(&key) {
            Some(Metric::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// A copy of the histogram `name` with exactly `labels`, or `None`.
    #[must_use]
    pub fn histogram(&self, name: &str, labels: Labels<'_>) -> Option<Histogram> {
        let key = (name.to_owned(), own(labels));
        match self.inner.borrow().metrics.get(&key) {
            Some(Metric::Histogram(h)) => Some(h.clone()),
            _ => None,
        }
    }

    /// Updates ignored because a metric name+labels key was reused with
    /// a different kind, plus events recorded under a key this recorder
    /// did not issue.
    #[must_use]
    pub fn kind_conflicts(&self) -> u64 {
        self.inner.borrow().kind_conflicts
    }

    /// Merges `other`'s whole recording into this recorder — the
    /// shard-merge primitive of the parallel engine: worker shards
    /// record into private recorders (a `Recorder` is `Send`, so it can
    /// come back from a worker thread), and the coordinator absorbs them
    /// **in shard order**, which keeps the combined recording
    /// deterministic for any thread count.
    ///
    /// Counters add; gauges take `other`'s value (last write wins, and
    /// "last" is absorb order, i.e. shard order); histograms with equal
    /// bounds merge bucket-wise; a kind or bounds mismatch is tallied in
    /// [`Recorder::kind_conflicts`] and skipped. Events append after the
    /// ones already held, under this ring's capacity (evicting oldest
    /// first); `other`'s drop tally carries over.
    ///
    /// Only the records that survive are copied — at most `capacity` of
    /// them, the newest — and each of `other`'s event keys is looked up
    /// here once, however many records name it. The drop tally is what
    /// appending the records one by one would evict. Keys `other` issued
    /// stay `other`'s: this recorder ignores them.
    ///
    /// # Panics
    ///
    /// Panics if `self` and `other` are the same recorder.
    pub fn absorb(&self, other: &Recorder) {
        let other = other.inner.borrow();
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        for ((name, labels), metric) in &other.metrics {
            match inner
                .metrics
                .entry((name.clone(), labels.clone()))
                .or_insert_with(|| empty_like(metric))
            {
                Metric::Counter(a) => {
                    if let Metric::Counter(b) = metric {
                        *a += b;
                    } else {
                        inner.kind_conflicts += 1;
                    }
                }
                Metric::Gauge(a) => {
                    if let Metric::Gauge(b) = metric {
                        *a = *b;
                    } else {
                        inner.kind_conflicts += 1;
                    }
                }
                Metric::Histogram(a) => match metric {
                    Metric::Histogram(b) if a.bounds == b.bounds => {
                        for (c, d) in a.counts.iter_mut().zip(&b.counts) {
                            *c += d;
                        }
                        a.sum += b.sum;
                        a.count += b.count;
                    }
                    _ => inner.kind_conflicts += 1,
                },
            }
        }
        inner.kind_conflicts += other.kind_conflicts;
        inner.dropped += other.dropped;
        let incoming = other.ring.len();
        let total = inner.ring.len() + incoming;
        let survivors = total.min(inner.capacity);
        let copied = incoming.min(inner.capacity);
        inner.dropped += (total - survivors) as u64;
        let evicted = inner.ring.len() - (survivors - copied);
        let long_evicted = long_count(&inner.long_ends, inner.ring.range(..evicted));
        inner.ring.drain(..evicted);
        inner.long_ends.drain(..long_evicted);
        inner.reserve(copied);
        let skipped = incoming - copied;
        let long_skipped = long_count(&other.long_ends, other.ring.range(..skipped));
        inner
            .long_ends
            .extend(other.long_ends.range(long_skipped..));
        let mut ids: Vec<Option<KeyId>> = vec![None; other.keys.len()];
        for record in other.ring.range(skipped..) {
            let key = record.key as usize;
            let id = *ids[key].get_or_insert_with(|| {
                let (name, kind, set) = other.keys.get(record.key);
                inner
                    .keys
                    .intern(name, kind, set, Some(other.keys.hashes[key]))
            });
            inner.ring.push_back(EventRecord { key: id, ..*record });
        }
    }
}

/// How many of `records` keep their end in `long_ends`: none to count
/// when the FIFO is empty, which it almost always is.
fn long_count<'a>(
    long_ends: &VecDeque<u64>,
    records: impl Iterator<Item = &'a EventRecord>,
) -> usize {
    if long_ends.is_empty() {
        return 0;
    }
    records.filter(|r| r.len == LONG).count()
}

/// Smallest ring allocation: a recorder that sees a handful of events
/// should not regrow for each one.
const MIN_RING: usize = 64;

impl Inner {
    /// Makes room for `additional` more records, which the caller has
    /// already fit under `capacity`: the storage doubles as needed but
    /// never past `capacity` records.
    fn reserve(&mut self, additional: usize) {
        let need = self.ring.len() + additional;
        let have = self.ring.capacity();
        if need > have {
            let target = need.max(2 * have).max(MIN_RING).min(self.capacity);
            self.ring.reserve_exact(target - self.ring.len());
        }
    }

    /// Appends one record to a ring of nonzero capacity, evicting the
    /// oldest (and its long end, if it has one) when the ring is full.
    fn push(&mut self, begin: u64, end: u64, key: KeyId) {
        if self.ring.len() == self.capacity {
            if self.ring.pop_front().is_some_and(|old| old.len == LONG) {
                self.long_ends.pop_front();
            }
            self.dropped += 1;
        } else {
            self.reserve(1);
        }
        let len = end
            .checked_sub(begin)
            .and_then(|len| u32::try_from(len).ok())
            .filter(|&len| len < LONG)
            .unwrap_or_else(|| {
                self.long_ends.push_back(end);
                LONG
            });
        self.ring.push_back(EventRecord { begin, len, key });
    }

    /// The ring's records oldest first, each with its end: `begin + len`,
    /// or the next of `long_ends` for a record that stores [`LONG`].
    pub(crate) fn events(&self) -> impl Iterator<Item = Event> + '_ {
        let mut long_ends = self.long_ends.iter();
        self.ring.iter().map(move |r| Event {
            begin: r.begin,
            end: if r.len == LONG {
                *long_ends.next().expect("one long end per long record")
            } else {
                r.begin + u64::from(r.len)
            },
            key: r.key,
        })
    }
}

impl TelemetrySink for Recorder {
    fn counter_add(&self, name: &'static str, labels: Labels<'_>, delta: u64) {
        let key = (name.to_owned(), own(labels));
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        match inner.metrics.entry(key).or_insert(Metric::Counter(0)) {
            Metric::Counter(v) => *v += delta,
            _ => inner.kind_conflicts += 1,
        }
    }

    fn gauge_set(&self, name: &'static str, labels: Labels<'_>, value: f64) {
        let key = (name.to_owned(), own(labels));
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        match inner.metrics.entry(key).or_insert(Metric::Gauge(0.0)) {
            Metric::Gauge(v) => *v = value,
            _ => inner.kind_conflicts += 1,
        }
    }

    fn observe(&self, name: &'static str, labels: Labels<'_>, value: f64) {
        self.observe_n(name, labels, value, 1);
    }

    fn observe_n(&self, name: &'static str, labels: Labels<'_>, value: f64, n: u64) {
        let key = (name.to_owned(), own(labels));
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let bounds = inner
            .bounds
            .iter()
            .find(|(nm, _)| *nm == name)
            .map_or_else(|| DEFAULT_HISTOGRAM_BOUNDS.to_vec(), |(_, b)| b.clone());
        match inner
            .metrics
            .entry(key)
            .or_insert_with(|| Metric::Histogram(Histogram::new(bounds)))
        {
            Metric::Histogram(h) => h.observe_n(value, n),
            _ => inner.kind_conflicts += 1,
        }
    }

    /// A zero-capacity recorder interns nothing: its keys name no entry,
    /// and recording under one only counts the drop.
    fn key(&self, name: &'static str, labels: Labels<'_>, kind: EventKind) -> EventKey {
        let mut inner = self.inner.borrow_mut();
        let id = if inner.capacity == 0 {
            KeyId::MAX
        } else {
            inner.keys.intern(name, kind, labels, None)
        };
        EventKey::new(self.id, id)
    }

    fn record(&self, key: EventKey, begin: u64, end: u64) {
        let mut inner = self.inner.borrow_mut();
        if key.sink() != self.id {
            inner.kind_conflicts += 1;
        } else if inner.capacity == 0 {
            inner.dropped += 1;
        } else if key.id() as usize >= inner.keys.len() {
            inner.kind_conflicts += 1;
        } else {
            inner.push(begin, end, key.id());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let r = Recorder::new();
        r.counter_add("link.words", &[("scheme", "DAP")], 1);
        r.counter_add("link.words", &[("scheme", "DAP")], 2);
        r.counter_add("link.words", &[("scheme", "BSC")], 5);
        assert_eq!(r.counter_value("link.words", &[("scheme", "DAP")]), 3);
        assert_eq!(r.counter_value("link.words", &[("scheme", "BSC")]), 5);
        assert_eq!(r.counter_value("link.words", &[]), 0);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let r = Recorder::new();
        r.counter_add("c", &[("a", "1"), ("b", "2")], 1);
        r.counter_add("c", &[("b", "2"), ("a", "1")], 1);
        assert_eq!(r.counter_value("c", &[("a", "1"), ("b", "2")]), 2);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let r = Recorder::new();
        r.gauge_set("g", &[], 1.0);
        r.gauge_set("g", &[], 2.5);
        assert_eq!(r.gauge_value("g", &[]), Some(2.5));
        assert_eq!(r.gauge_value("missing", &[]), None);
    }

    #[test]
    fn histograms_bucket_and_overflow() {
        let r = Recorder::new();
        r.set_histogram_bounds("h", vec![1.0, 10.0]);
        for v in [0.5, 1.0, 3.0, 100.0] {
            r.observe("h", &[], v);
        }
        let h = r.histogram("h", &[]).expect("histogram exists");
        assert_eq!(h.bounds, vec![1.0, 10.0]);
        assert_eq!(h.counts, vec![2, 1, 1]);
        assert_eq!(h.count, 4);
        assert!((h.sum - 104.5).abs() < 1e-12);
    }

    #[test]
    fn default_bounds_apply_without_registration() {
        let r = Recorder::new();
        r.observe("h", &[], 3.0);
        let h = r.histogram("h", &[]).expect("histogram exists");
        assert_eq!(h.bounds, DEFAULT_HISTOGRAM_BOUNDS.to_vec());
        assert_eq!(h.count, 1);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let r = Recorder::with_capacity(2);
        r.event("e", &[], 0);
        r.event("e", &[], 1);
        r.event("e", &[], 2);
        let stats = r.ring_stats();
        assert_eq!(stats.recorded, 2);
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.capacity, 2);
        let inner = r.inner.borrow();
        assert_eq!(inner.ring[0].begin, 1, "oldest event evicted first");
    }

    /// The shard-merge contract: a Recorder crosses threads (`Send`) and
    /// absorbing per-shard recorders in shard order reproduces the
    /// sequential recording exactly.
    #[test]
    fn recorder_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Recorder>();
    }

    #[test]
    fn absorb_merges_metrics_by_kind() {
        let main = Recorder::new();
        main.counter_add("c", &[("shard", "x")], 2);
        main.gauge_set("g", &[], 1.0);
        main.observe("h", &[], 3.0);
        let shard = Recorder::new();
        shard.counter_add("c", &[("shard", "x")], 5);
        shard.counter_add("c2", &[], 7);
        shard.gauge_set("g", &[], 9.5);
        shard.observe("h", &[], 100.0);
        main.absorb(&shard);
        assert_eq!(main.counter_value("c", &[("shard", "x")]), 7);
        assert_eq!(main.counter_value("c2", &[]), 7, "new keys carry over");
        assert_eq!(main.gauge_value("g", &[]), Some(9.5), "absorb order wins");
        let h = main.histogram("h", &[]).expect("histogram exists");
        assert_eq!(h.count, 2);
        assert!((h.sum - 103.0).abs() < 1e-12);
        assert_eq!(main.kind_conflicts(), 0);
    }

    #[test]
    fn absorb_order_reproduces_sequential_recording() {
        // Recording A then B into one recorder == absorbing per-shard
        // recorders for A and B in that order.
        let record = |r: &Recorder, tag: &str, at: u64| {
            r.counter_add("words", &[("cell", tag)], at + 1);
            r.event("ev", &[], at);
        };
        let sequential = Recorder::new();
        record(&sequential, "a", 0);
        record(&sequential, "b", 1);
        let (sa, sb) = (Recorder::new(), Recorder::new());
        record(&sa, "a", 0);
        record(&sb, "b", 1);
        let merged = Recorder::new();
        merged.absorb(&sa);
        merged.absorb(&sb);
        assert_eq!(merged.export_jsonl(), sequential.export_jsonl());
        assert_eq!(
            merged.export_chrome_trace(),
            sequential.export_chrome_trace()
        );
    }

    #[test]
    fn absorb_respects_ring_capacity_and_counts_conflicts() {
        let main = Recorder::with_capacity(2);
        main.event("kept", &[], 0);
        let shard = Recorder::new();
        shard.event("s1", &[], 1);
        shard.event("s2", &[], 2);
        main.absorb(&shard);
        let stats = main.ring_stats();
        assert_eq!(stats.recorded, 2);
        assert_eq!(stats.dropped, 1, "oldest evicted on overflow");
        // A histogram-bounds mismatch is a conflict, not a merge.
        let a = Recorder::new();
        a.set_histogram_bounds("h", vec![1.0]);
        a.observe("h", &[], 0.5);
        let b = Recorder::new();
        b.set_histogram_bounds("h", vec![2.0]);
        b.observe("h", &[], 0.5);
        a.absorb(&b);
        assert_eq!(a.kind_conflicts(), 1);
        assert_eq!(a.histogram("h", &[]).expect("kept").count, 1);
        // A kind mismatch likewise.
        let c = Recorder::new();
        c.counter_add("m", &[], 1);
        let d = Recorder::new();
        d.gauge_set("m", &[], 2.0);
        c.absorb(&d);
        assert_eq!(c.kind_conflicts(), 1);
        assert_eq!(c.counter_value("m", &[]), 1);
    }

    /// `absorb`'s arithmetic equals appending the shard's records one by
    /// one with oldest-first eviction, for every small ring, fill level
    /// and shard size, and each copied record keeps its own labels.
    #[test]
    fn absorb_matches_per_event_eviction() {
        let hop = |at: u64| (at % 3).to_string();
        for capacity in 0..5 {
            for held in 0..8u64 {
                for incoming in 0..8u64 {
                    let main = Recorder::with_capacity(capacity);
                    let shard = Recorder::with_capacity(5);
                    let mut model = VecDeque::new();
                    let mut dropped = 0;
                    let mut push = |at: u64| {
                        if capacity == 0 {
                            dropped += 1;
                            return;
                        }
                        if model.len() == capacity {
                            model.pop_front();
                            dropped += 1;
                        }
                        model.push_back(at);
                    };
                    for at in 0..held {
                        main.event("own", &[("hop", hop(at).as_str())], at);
                        push(at);
                    }
                    for at in 100..100 + incoming {
                        shard.span("in", &[("hop", hop(at).as_str()), ("k", "v")], at, at);
                    }
                    // The shard keeps its own newest 5 and counts the rest.
                    for at in (100..100 + incoming).skip(incoming.saturating_sub(5) as usize) {
                        push(at);
                    }
                    main.absorb(&shard);
                    let stats = main.ring_stats();
                    assert_eq!(stats.recorded, model.len());
                    assert_eq!(stats.dropped, dropped + shard.ring_stats().dropped);
                    let inner = main.inner.borrow();
                    for (e, &at) in inner.events().zip(&model) {
                        assert_eq!((e.begin, e.end), (at, at));
                        let (name, kind, labels) = inner.keys.get(e.key);
                        assert_eq!(kind == EventKind::Span, at >= 100);
                        assert_eq!(name, if at < 100 { "own" } else { "in" });
                        assert_eq!(labels[0], ("hop".to_owned(), hop(at)));
                        assert_eq!(labels.len(), if at < 100 { 1 } else { 2 });
                    }
                }
            }
        }
    }

    #[test]
    fn event_keys_intern_each_key_once_in_any_order() {
        const I: EventKind = EventKind::Instant;
        let mut keys = EventKeys::new();
        let ab = keys.intern("e", I, &[("b", "2"), ("a", "1")], None);
        assert_eq!(keys.intern("e", I, &[("a", "1"), ("b", "2")], None), ab);
        let owned = |pairs: &[(&str, &str)]| -> OwnedLabels {
            pairs
                .iter()
                .map(|&(k, v)| (k.to_owned(), v.to_owned()))
                .collect()
        };
        assert_eq!(
            keys.get(ab),
            ("e", I, &owned(&[("a", "1"), ("b", "2")])[..])
        );
        // The same set under another name, or as a span, is another key.
        let other = keys.intern("f", I, &[("a", "1"), ("b", "2")], None);
        assert_ne!(other, ab);
        assert_eq!(keys.get(other).0, "f");
        let span = keys.intern("e", EventKind::Span, &[("a", "1"), ("b", "2")], None);
        assert_ne!(span, ab);
        assert_eq!(keys.get(span).1, EventKind::Span);
        // A repeated pair is a different set from two distinct values.
        let xx = keys.intern("e", I, &[("k", "x"), ("k", "x")], None);
        let yx = keys.intern("e", I, &[("k", "y"), ("k", "x")], None);
        assert_ne!(xx, yx);
        assert_eq!(keys.intern("e", I, &[("k", "x"), ("k", "y")], None), yx);
        assert_eq!(keys.get(yx).2, owned(&[("k", "x"), ("k", "y")]));
        // Enough keys to rebuild the index several times.
        let values: Vec<String> = (0..1_000).map(|i| i.to_string()).collect();
        let ids: Vec<KeyId> = values
            .iter()
            .map(|v| keys.intern("e", I, &[("hop", v.as_str())], None))
            .collect();
        for (v, &id) in values.iter().zip(&ids) {
            assert_eq!(keys.intern("e", I, &[("hop", v.as_str())], None), id);
            assert_eq!(keys.get(id).2, owned(&[("hop", v)]));
        }
        assert_eq!(keys.len(), 1_005);
        // More pairs than one claim word holds, in two orders, and the
        // same pairs with one value changed.
        let names: Vec<String> = (0..70).map(|i| format!("k{i:02}")).collect();
        let forward: Vec<(&str, &str)> = names.iter().map(|k| (k.as_str(), "v")).collect();
        let mut backward = forward.clone();
        backward.reverse();
        let wide = keys.intern("e", I, &forward, None);
        assert_eq!(keys.intern("e", I, &backward, None), wide);
        backward[0].1 = "w";
        assert_ne!(keys.intern("e", I, &backward, None), wide);
    }

    /// Every event name a recorder sees shares a handful of label sets,
    /// so a hash that left the name or the kind out would pile each
    /// set's names into one probe chain.
    #[test]
    fn key_hash_covers_the_name_and_kind() {
        let set = [("hop", "0"), ("scheme", "DAP")];
        let names = [
            "link.word",
            "link.retry",
            "link.degrade",
            "control.transition",
            "mesh.accept",
            "mesh.queue_high",
            "",
        ];
        let mut hashes: Vec<u64> = names
            .iter()
            .flat_map(|n| [EventKind::Span, EventKind::Instant].map(|kind| hash_key(n, kind, &set)))
            .collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 2 * names.len());
        let reversed = [("scheme", "DAP"), ("hop", "0")];
        assert_eq!(
            hash_key("link.word", EventKind::Span, &reversed),
            hash_key("link.word", EventKind::Span, &set)
        );
    }

    /// Shards that met the same names and label sets in different
    /// first-seen orders (so their key ids differ) absorb into exactly
    /// what one recorder that saw everything exports.
    #[test]
    fn shards_absorb_alike_whatever_order_they_met_their_keys() {
        type Cell = &'static [(&'static str, &'static str, bool)];
        let cells: [Cell; 4] = [
            &[("link.word", "0", true), ("link.retry", "1", false)],
            &[
                ("link.retry", "1", false),
                ("link.word", "1", true),
                ("link.word", "0", true),
            ],
            &[("mesh.accept", "2", false), ("link.retry", "0", false)],
            &[
                ("link.word", "2", true),
                ("mesh.accept", "2", false),
                ("link.word", "0", true),
                ("link.retry", "1", false),
            ],
        ];
        let record = |r: &Recorder, cell: Cell, at: u64| {
            for (i, &(name, hop, span)) in (0..).zip(cell) {
                let labels = [("hop", hop), ("scheme", "DAP")];
                if span {
                    r.span(name, &labels, at + i, at + i + 3);
                } else {
                    r.event(name, &labels, at + i);
                }
            }
        };
        let sequential = Recorder::new();
        let merged = Recorder::new();
        // The merge target has met one key of its own first.
        for r in [&sequential, &merged] {
            r.event("mesh.accept", &[("hop", "2"), ("scheme", "DAP")], 0);
        }
        for (at, cell) in (0..).step_by(10).zip(cells) {
            record(&sequential, cell, at);
            let shard = Recorder::new();
            record(&shard, cell, at);
            merged.absorb(&shard);
        }
        assert_eq!(merged.export_jsonl(), sequential.export_jsonl());
        assert_eq!(
            merged.export_chrome_trace(),
            sequential.export_chrome_trace()
        );
        assert_eq!(merged.inner.borrow().keys.len(), 6);
    }

    /// The key's kind, not the cycles, tells a span from an instant
    /// event: a zero-length span and an event at its cycle, under one
    /// name and label set, export as one of each, and a span may end at
    /// any cycle.
    #[test]
    fn a_zero_length_span_and_an_event_at_its_cycle_stay_apart() {
        let r = Recorder::new();
        let labels = [("hop", "0")];
        r.span("link.word", &labels, 5, 5);
        r.event("link.word", &labels, 5);
        r.span("link.word", &labels, 6, u64::MAX);
        let jsonl = r.export_jsonl();
        let lines: Vec<&str> = jsonl.lines().skip(1).take(3).collect();
        assert_eq!(
            lines,
            [
                "{\"type\": \"span\", \"name\": \"link.word\", \"begin\": 5, \"end\": 5, \
                 \"labels\": {\"hop\": \"0\"}}",
                "{\"type\": \"event\", \"name\": \"link.word\", \"at\": 5, \
                 \"labels\": {\"hop\": \"0\"}}",
                "{\"type\": \"span\", \"name\": \"link.word\", \"begin\": 6, \
                 \"end\": 18446744073709551615, \"labels\": {\"hop\": \"0\"}}",
            ]
        );
        let trace = r.export_chrome_trace();
        assert_eq!(trace.matches("\"ph\": \"X\"").count(), 2);
        assert_eq!(trace.matches("\"ph\": \"i\"").count(), 1);
        assert_eq!(r.inner.borrow().keys.len(), 2, "one key per kind");
    }

    #[test]
    fn kind_conflicts_are_counted_not_fatal() {
        let r = Recorder::new();
        r.counter_add("m", &[], 1);
        r.gauge_set("m", &[], 2.0);
        r.observe("m", &[], 3.0);
        assert_eq!(r.counter_value("m", &[]), 1, "first kind wins");
        assert_eq!(r.kind_conflicts(), 2);
    }
}

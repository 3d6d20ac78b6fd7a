//! Steady-state link transfer never touches the heap: once a
//! `LinkEngine` is built and its shared codebook and field tables exist,
//! carrying a word — encode, bus energy, fault injection, decode, ARQ
//! retries — makes zero allocations for every catalog scheme, including
//! the double-error path of BCH-DEC.
//!
//! The same holds with telemetry on: a link resolves its event keys
//! once and holds them, and once the recorder's ring is full, a word's
//! `link.word` span and `link.retry` events are 16-byte copies into the
//! ring. Absorbing a shard into a full recorder costs a fixed number of
//! allocations per call, however many events the shard holds, and a
//! recorder's live heap is its ring's slots at 16 bytes each plus a
//! small key table.
//!
//! A path built from those links lends each word's trace out of one
//! buffer it refills: after warm-up `PathSim::step` allocates nothing,
//! traced or not.
//!
//! The mesh fabric built from those links stays within a small fixed
//! budget per cycle: `MeshSim::step` allocates the vectors of the
//! `CycleReport` it returns by value and, amortised, the growth of its
//! long-lived tables — never per flit-hop.
//!
//! The Monte-Carlo flip channel keeps its buffer inline: once the
//! process-wide jump table exists, building a channel, corrupting blocks
//! and transmitting words make no allocation, refills included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use socbus::channel::BitFlipChannel;
use socbus::codes::{Scheme, WordBlock};
use socbus::model::Word;
use socbus::noc::link::{LinkConfig, LinkEngine, LinkReport, Protocol};
use socbus::noc::mesh::{MeshConfig, MeshSim};
use socbus::noc::{PathConfig, PathSim};
use socbus_chaos::protocol_for;
use socbus_telemetry::{Recorder, Telemetry, TelemetrySink};

/// The system allocator, counting the allocations each thread makes and
/// the bytes it holds, so the test harness's own threads cannot disturb
/// a count.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation that changes this thread's live bytes by
/// `grown` (negative when a reallocation shrinks).
fn count_one(grown: i64) {
    // `try_with`: a thread tearing down its locals may still allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LIVE.try_with(|n| n.set(n.get() + grown));
}

#[allow(clippy::cast_possible_wrap)]
fn bytes(size: usize) -> i64 {
    size as i64
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters are plain thread-local `Cell`s that never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(bytes(layout.size()));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(bytes(layout.size()));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(bytes(new_size) - bytes(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|n| n.set(n.get() - bytes(layout.size())));
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

/// Words carried before counting starts, and words counted.
const WARM_WORDS: u64 = 256;
const WORDS: u64 = 2_048;
/// Per-wire error rate: high enough that every correcting code sees
/// double errors and every detecting code retransmits.
const EPS: f64 = 1e-2;

/// Carries `n` pseudo-random words over `engine`, advancing `state`.
fn carry(engine: &mut LinkEngine, k: usize, state: &mut u64, n: u64, report: &mut LinkReport) {
    for _ in 0..n {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let data = Word::from_limbs([*state, state.rotate_left(29), 0, 0], k);
        engine.transfer(data, report);
    }
}

const ARQ: Protocol = Protocol::ArqBackoff {
    timeout_cycles: 3,
    backoff_base: 1,
    backoff_cap: 8,
    max_retries: 3,
};

#[test]
fn steady_state_transfer_makes_no_allocation() {
    // 16 bits is the benchmark width; 100 bits spreads every code over
    // two or more limbs.
    for k in [16, 100] {
        for scheme in Scheme::catalog() {
            let cfg = LinkConfig::new(scheme, k, EPS).with_protocol(ARQ);
            let mut engine = LinkEngine::new(&cfg, &[], 7);
            let mut report = LinkReport::default();
            let mut state = k as u64;
            carry(&mut engine, k, &mut state, WARM_WORDS, &mut report);
            let before = allocs();
            carry(&mut engine, k, &mut state, WORDS, &mut report);
            let made = allocs() - before;
            assert_eq!(
                made,
                0,
                "{} at k = {k}: {made} allocations over {WORDS} words",
                scheme.name()
            );
            if scheme.corrects_errors() || scheme.detects_errors() {
                assert!(
                    report.corrected + report.detected > 0,
                    "{} at k = {k}: the noise never reached the decoder",
                    scheme.name()
                );
            }
            assert!(report.transitions.is_empty(), "no ladder is armed");
        }
    }
}

/// Ring capacity of the recorders below: small enough that warm-up
/// fills it, so the counted words evict as they record.
const RING: usize = 1_024;

#[test]
fn steady_state_traced_transfer_makes_no_allocation() {
    let k = 16;
    for scheme in Scheme::catalog() {
        let cfg = LinkConfig::new(scheme, k, EPS).with_protocol(ARQ);
        let mut engine = LinkEngine::new(&cfg, &[], 7);
        let rec = Rc::new(Recorder::with_capacity(RING));
        engine.set_telemetry(Telemetry::from_recorder(&rec), 3);
        let mut report = LinkReport::default();
        let mut state = k as u64;
        carry(
            &mut engine,
            k,
            &mut state,
            RING as u64 + WARM_WORDS,
            &mut report,
        );
        assert_eq!(rec.ring_stats().recorded, RING, "warm-up fills the ring");
        let before = allocs();
        carry(&mut engine, k, &mut state, WORDS, &mut report);
        let made = allocs() - before;
        assert_eq!(
            made,
            0,
            "{} traced: {made} allocations over {WORDS} words",
            scheme.name()
        );
        assert!(
            rec.ring_stats().dropped >= WORDS,
            "every counted word recorded"
        );
    }
}

/// A shard of `events` spans and instants on two tracks, no metrics.
fn shard(events: u64) -> Recorder {
    let shard = Recorder::new();
    for i in 0..events {
        let hop = if i % 2 == 0 { "0" } else { "1" };
        shard.span("link.word", &[("scheme", "DAP"), ("hop", hop)], i, i + 2);
        if i % 5 == 0 {
            shard.event("link.retry", &[("hop", hop), ("scheme", "DAP")], i + 1);
        }
    }
    shard
}

#[test]
fn absorbing_known_label_sets_costs_a_fixed_allocation_count() {
    let main = Recorder::with_capacity(RING);
    main.absorb(&shard(2 * RING as u64));
    assert_eq!(main.ring_stats().recorded, RING);
    let mut per_call = Vec::new();
    for events in [10, 100, 1_000, 3_000] {
        let shard = shard(events);
        let before = allocs();
        main.absorb(&shard);
        per_call.push(allocs() - before);
    }
    assert!(
        per_call.iter().all(|&n| n == per_call[0] && n <= 2),
        "allocations per absorb grew with the shard: {per_call:?}"
    );
}

/// A traced 2 000-word, three-hop path cell's event stream: 6 000
/// `link.word` spans grow a default recorder's ring to 8 192 slots of
/// 16 bytes, and its six event keys (plus their index) fit in a few
/// KiB, so the recorder holds under 8 192 × 16 B + 16 KiB.
#[test]
fn a_traced_path_cells_recorder_holds_16_bytes_per_slot() {
    let before = live_bytes();
    let rec = Recorder::new();
    for word in 0..2_000u64 {
        for hop in ["0", "1", "2"] {
            let labels = [("scheme", "DAP"), ("hop", hop)];
            rec.span("link.word", &labels, word, word + 1);
            if word % 500 == 0 {
                rec.event("link.retry", &labels, word);
            }
        }
    }
    let held = live_bytes() - before;
    assert_eq!(rec.ring_stats().recorded, 6_012);
    let bound = 8_192 * 16 + 16 * 1_024;
    assert!(
        held <= bound,
        "the recorder holds {held} B over {} events (bound {bound} B)",
        rec.ring_stats().recorded
    );
    drop(rec);
    assert_eq!(live_bytes(), before, "dropping the recorder frees it all");
}

#[test]
fn steady_state_path_step_makes_no_allocation() {
    let k = 16;
    let link = LinkConfig::new(Scheme::Dap, k, EPS).with_protocol(ARQ);
    let cfg = PathConfig::new(3, link);
    let rec = Rc::new(Recorder::with_capacity(RING));
    for tel in [Telemetry::off(), Telemetry::from_recorder(&rec)] {
        let mut sim = PathSim::new_with_telemetry(&cfg, 11, tel);
        let mut state = 5u64;
        let mut word = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            Word::from_limbs([state, 0, 0, 0], k)
        };
        // Warm-up covers the first traced word of each hop and fills the
        // ring.
        for _ in 0..RING as u64 + WARM_WORDS {
            let _ = sim.step(word());
        }
        let before = allocs();
        let mut hops = 0;
        for _ in 0..WORDS {
            hops += sim.step(word()).hops.len();
        }
        let made = allocs() - before;
        assert_eq!(hops, 3 * WORDS as usize);
        assert_eq!(made, 0, "{made} allocations over {WORDS} path words");
    }
    assert!(
        rec.ring_stats().dropped >= 3 * WORDS,
        "every hop's words recorded"
    );
}

/// Mesh cycles stepped before counting starts, and cycles counted.
const WARM_CYCLES: u64 = 200;
const CYCLES: u64 = 1_000;
/// Allocations allowed per cycle on average: the three report vectors a
/// busy cycle fills (injections, transfers, accepts) plus amortised
/// growth of the simulator's tables.
const MESH_BUDGET: u64 = 8;

#[test]
fn steady_state_mesh_step_stays_within_its_allocation_budget() {
    // The benchmark's 8x8 fabric: k = 16, ε = 1e-3, 0.4 injections per
    // node per cycle, about 130 flit-hops a cycle.
    for scheme in [Scheme::Uncoded, Scheme::FtcHc] {
        let link = LinkConfig::new(scheme, 16, 1e-3).with_protocol(protocol_for(scheme, 1));
        let cfg = MeshConfig::new(8, 8, link).with_rate(0.4);
        let mut sim = MeshSim::new(&cfg, 1, 2);
        for _ in 0..WARM_CYCLES {
            let _ = sim.step(true);
        }
        let before = allocs();
        let mut hops = 0;
        for _ in 0..CYCLES {
            hops += sim.step(true).transfers.len() as u64;
        }
        let made = allocs() - before;
        assert!(
            hops > 100 * CYCLES,
            "{}: only {hops} flit-hops",
            scheme.name()
        );
        assert!(
            made <= MESH_BUDGET * CYCLES,
            "{}: {made} allocations over {CYCLES} cycles ({hops} flit-hops)",
            scheme.name()
        );
    }
}

#[test]
fn flip_channel_refills_make_no_allocation() {
    let mut block = WordBlock::zero(36, 64);
    let word = Word::zero(36);
    // Warm-up on another channel: the first refill may build the
    // process-wide jump table.
    BitFlipChannel::new(1e-3, 4).corrupt_block(&mut block);
    let before = allocs();
    // The benchmark's rate at 36 wires: 120 blocks of 2 304 draws and
    // words of 36 take 280 800 draws, three refills of 2¹⁷.
    let mut ch = BitFlipChannel::new(1e-3, 5);
    for _ in 0..120 {
        ch.corrupt_block(&mut block);
        let _ = ch.transmit(word);
    }
    let made = allocs() - before;
    assert_eq!(made, 0, "{made} allocations over three refills");
    assert!(
        (0..64).any(|j| block.word(j).count_ones() > 0),
        "the channel flipped nothing"
    );
}

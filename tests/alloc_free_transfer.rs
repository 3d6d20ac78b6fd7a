//! Steady-state link transfer never touches the heap: once a
//! `LinkEngine` is built and its shared codebook and field tables exist,
//! carrying a word — encode, bus energy, fault injection, decode, ARQ
//! retries — makes zero allocations for every catalog scheme, including
//! the double-error path of BCH-DEC.
//!
//! The mesh fabric built from those links stays within a small fixed
//! budget per cycle: `MeshSim::step` allocates the vectors of the
//! `CycleReport` it returns by value and, amortised, the growth of its
//! long-lived tables — never per flit-hop.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use socbus::codes::Scheme;
use socbus::model::Word;
use socbus::noc::link::{LinkConfig, LinkEngine, LinkReport, Protocol};
use socbus::noc::mesh::{MeshConfig, MeshSim};
use socbus_chaos::protocol_for;

/// The system allocator, counting the allocations each thread makes so
/// the test harness's own threads cannot disturb a count.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread tearing down its locals may still allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter is a plain thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
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

#[test]
fn steady_state_transfer_makes_no_allocation() {
    let arq = Protocol::ArqBackoff {
        timeout_cycles: 3,
        backoff_base: 1,
        backoff_cap: 8,
        max_retries: 3,
    };
    // 16 bits is the benchmark width; 100 bits spreads every code over
    // two or more limbs.
    for k in [16, 100] {
        for scheme in Scheme::catalog() {
            let cfg = LinkConfig::new(scheme, k, EPS).with_protocol(arq);
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

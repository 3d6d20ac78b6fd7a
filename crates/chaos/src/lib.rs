//! # socbus-chaos — chaos/soak harness for the NoC stack
//!
//! Randomized, *seeded* fault schedules driven against multi-hop coded
//! paths, with online invariant monitors watching every word, and
//! delta-debugging shrinkers that reduce any violating schedule to a
//! minimal, byte-identically replayable reproducer file.
//!
//! The paper (Sridhara & Shanbhag, DAC 2004) analyses each coding scheme
//! under a single stationary fault process; a real SoC interconnect sees
//! *sequences* of fault regimes — burst trains, droop storms, hard
//! defects that appear and heal, degradation ladders firing mid-flight.
//! This crate soak-tests the whole stack under such sequences and holds
//! it to five invariants no schedule may break:
//!
//! * **silent-corruption** — no wrong word delivered inside a decoder's
//!   advertised detection/correction guarantees;
//! * **conservation** — the fault ledger, report counters, and path
//!   aggregates must all re-derive from the per-word traces;
//! * **latency-bound** — no word exceeds
//!   [`Protocol::worst_case_word_cycles`](socbus_noc::link::Protocol::worst_case_word_cycles);
//! * **ladder-monotonic** — degradation transitions walk the configured
//!   ladder one justified rung at a time, demotions in order and
//!   promotions only undoing the most recent rung after a quiet window;
//! * **control-safe-state** — a closed-loop DVS controller never
//!   selects an operating point whose advertised guarantee is below the
//!   observed error weight, and every transition is justified by its
//!   window's trouble rate (see [`socbus_noc::control`]).
//!
//! The mesh campaign ([`mesh`]) extends the same discipline from a
//! single path to the whole 2D fabric ([`socbus_noc::mesh`]), with four
//! invariants of its own:
//!
//! * **packet-conservation** — injected = delivered plus flagged lost,
//!   exactly once, never silently;
//! * **reroute-delivers** — a single permanent link failure must not
//!   lose anything;
//! * **bounded-progress** — every forward strictly approaches the
//!   destination over the live topology, and the mesh drains to idle;
//! * **mesh-silent-corruption** — the per-link guarantee scoping of
//!   the path rule.
//!
//! Module map: [`harness`] (the [`Harness`] trait both case types
//! implement, and what is written once over it: campaign grid, run, JSON
//! and command, repro file skeleton, shrink oracle, repro writer and
//! `chaos replay`, which is every command's on-violation tail); the path
//! harness in [`schedule`] (event grammar, random families), [`runner`]
//! (interpreter over [`socbus_noc::PathSim`]), [`monitor`] (invariants),
//! `shrink` (ddmin + word truncation), [`replay`] (its repro fields and
//! the grammar both formats share) and [`campaign`] (soak and controller
//! campaigns); the mesh harness in [`mesh`]; [`ctx`] (the run context,
//! sharded driver and command line every sharded workload runs on); and
//! [`cli`] (the `chaos` binary and the case parser `trace` shares).
//!
//! The harness self-test is [`socbus_codes::Hamming::sabotaged`] (scheme
//! name `Sabotaged`): a decoder that deliberately mis-corrects while
//! reporting `Clean`. Soaking it must — and does — produce a
//! silent-corruption violation whose shrunken reproducer replays.
//!
//! # Example
//!
//! ```
//! use socbus_chaos::schedule::{FaultSchedule, ScheduleFamily, ScheduleParams};
//! use socbus_chaos::{build_case, run_case};
//! use socbus_codes::Scheme;
//!
//! let cfg = build_case(Scheme::Dap, ScheduleFamily::BurstTrain, 7, 400, 3);
//! let out = run_case(&cfg);
//! assert!(out.violations.is_empty(), "DAP must survive a burst train");
//! assert!(out.worst_word_cycles <= out.budget_cycles);
//! ```

pub mod campaign;
pub mod cli;
pub mod ctx;
pub mod harness;
pub mod mesh;
pub mod monitor;
pub mod replay;
pub mod runner;
pub mod schedule;
mod shrink;

pub use campaign::{
    campaign_cells, control_cells, control_smoke_cells, FULL_WORDS, HOPS, SMOKE_WORDS,
};
pub use cli::{build_case, build_control_case, control_policy_for, main_with_args, protocol_for};
pub use ctx::{run_cells, Observe, Run, RunArgs, RunCtx};
pub use harness::{run_grid, write_repro, AnyRepro, ExpectedViolation, Harness, Repro};
pub use mesh::{
    build_mesh_case, mesh_cells, mesh_smoke_cells, mesh_topology, ExpectedMeshViolation,
    MeshCaseConfig, MeshCaseOutcome, MeshFamily, MeshInvariant, MeshMonitor, MeshRepro,
    MeshSchedule, MeshViolation,
};
pub use monitor::{Invariant, InvariantKind, InvariantStats, Monitor, Violation};
pub use runner::{run_case, run_case_with, CaseConfig, CaseOutcome};
pub use schedule::{FaultSchedule, ScheduleAction, ScheduleEvent, ScheduleFamily, ScheduleParams};

//! Mesh chaos campaign: fault schedules against the 2D-mesh NoC.
//!
//! The link-level campaign ([`crate::campaign`]) soaks a single
//! multi-hop path; this module soaks the whole fabric. A mesh case runs
//! a [`MeshSim`] for a fixed number of injection cycles plus a drain
//! phase, while a cycle-domain fault schedule activates link faults and
//! takes links down/up, and a [`MeshMonitor`] holds the run to five
//! invariants no schedule may break:
//!
//! * **packet-conservation** — every injected packet is delivered
//!   exactly once or flagged lost; nothing vanishes, nothing is
//!   delivered that was never injected, duplicate accepts are
//!   suppressed before the ledger.
//! * **reroute-delivers** — on cells that arm it (clean links, a single
//!   permanent link failure), the fault-aware fallback must deliver
//!   *everything*: zero flagged losses.
//! * **bounded-progress** — every forwarded copy strictly decreases the
//!   live-topology distance to its destination (no livelock, never onto
//!   a downed link), and the mesh drains to idle within the budget.
//! * **mesh-silent-corruption** — per-link scoping of the path
//!   campaign's silent-corruption rule: a hop may never hand a changed
//!   word to the next router while the injected weight was within the
//!   decoder's advertised guarantees, and may never *drop as poisoned*
//!   a word whose weight was within the correction guarantee.
//! * **health-consistent** — the online health monitor's verdicts agree
//!   with the ledger: every auto-retired link is `Down` in the incident
//!   report and blamed by an incident, and no link is reported `Down`
//!   that the simulator never retired.
//!
//! Violating cells shrink to `socbus-mesh-repro v1` files (see
//! [`MeshRepro`]) with the same byte-canonical replay discipline as the
//! path repro format.

use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socbus_channel::FaultSpec;
use socbus_codes::{DecodeStatus, Scheme};
use socbus_noc::link::{LinkConfig, Protocol};
use socbus_noc::mesh::{
    CycleReport, EndToEnd, MeshConfig, MeshPattern, MeshReport, MeshSim, PacketKey,
};
use socbus_telemetry::{HealthAggregator, HealthConfig, Recorder, ScopeReport, Telemetry};

use crate::cli::{protocol_for, DEFAULT_DATA_BITS};
use crate::ctx::{num, Probe};
use crate::harness::{
    campaign, first_violation, grid, need, render, smoke_grid, write_head, write_link, write_seeds,
    ExpectedViolation, Harness, Repro, Shared,
};
use crate::monitor::{Invariant, InvariantStats, Violation};
use crate::replay::{
    check_data_bits, check_prob, check_spec, kv, parse_activate, parse_f64, parse_num, spec_str,
};
use crate::runner::activate;
use crate::schedule::{window, FaultWindow, WindowKind};

/// Mesh side length of a campaign cell.
pub const MESH_WIDTH: usize = 3;
/// Mesh side length of a campaign cell.
pub const MESH_HEIGHT: usize = 3;
/// Injection cycles per case in the default campaign.
pub const FULL_MESH_CYCLES: u64 = 400;
/// Injection cycles per case in the `--smoke` campaign (CI).
pub const SMOKE_MESH_CYCLES: u64 = 150;
/// Drain budget after injection stops. The end-to-end worst case from
/// birth to give-up is about 3 400 cycles (nine 96-cycle timeouts plus
/// the capped exponential backoffs), so this bound is generous: a case
/// that fails to drain is livelocked, not merely slow.
pub const MESH_DRAIN_CYCLES: u64 = 6_000;
/// Per-node injection probability per cycle.
pub const MESH_RATE: f64 = 0.1;
/// Consecutive poisoned transfers before a campaign mesh retires a link.
pub const MESH_AUTO_DOWN: u32 = 8;

// ---------------------------------------------------------------------
// Schedules
// ---------------------------------------------------------------------

/// A cycle-domain fault action against the mesh.
#[derive(Clone, Debug, PartialEq)]
pub enum MeshAction {
    /// Push a fault spec onto one link's injector.
    Activate {
        /// Schedule-unique id (seeds the fault's random stream, and is
        /// how a later [`MeshAction::Deactivate`] finds the slot).
        id: u32,
        /// Target directed link.
        link: usize,
        /// The fault.
        spec: FaultSpec,
    },
    /// Disable a previously activated fault (unknown ids are a no-op,
    /// so the shrinker can drop activations freely).
    Deactivate {
        /// The activation to disable.
        id: u32,
    },
    /// Mark a directed link permanently down (until a `LinkUp`).
    LinkDown {
        /// Target directed link.
        link: usize,
    },
    /// Restore a downed link.
    LinkUp {
        /// Target directed link.
        link: usize,
    },
}

/// One scheduled action.
#[derive(Clone, Debug, PartialEq)]
pub struct MeshEvent {
    /// Cycle the action fires before (0-based injection cycle).
    pub at_cycle: u64,
    /// The action.
    pub action: MeshAction,
}

/// A whole mesh schedule, kept sorted by `at_cycle` (stable, so events
/// sharing a cycle fire in insertion order).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MeshSchedule {
    /// The events, in firing order.
    pub events: Vec<MeshEvent>,
}

/// The shape of a random mesh schedule draw.
#[derive(Clone, Copy, Debug)]
pub struct MeshScheduleParams {
    /// Injection cycles the schedule is drawn for.
    pub cycles: u64,
    /// Directed links available for targeting.
    pub links: usize,
    /// Wire count of the coded bus (bounds hard-fault wire indices).
    pub wires: usize,
}

/// The five families of randomized mesh schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MeshFamily {
    /// Gilbert–Elliott burst windows on random links.
    LinkBursts,
    /// Supply-droop windows on random links.
    DroopStorm,
    /// Stuck-at and bridging defects that appear and heal.
    HardWindow,
    /// Exactly one permanent link failure from cycle zero — the
    /// reroute-delivers cell (links otherwise clean).
    SingleLinkDown,
    /// A burst, a hard defect, and a link-down window at once.
    MixedMesh,
}

impl MeshFamily {
    /// All families, in campaign order.
    #[must_use]
    pub fn all() -> [MeshFamily; 5] {
        [
            MeshFamily::LinkBursts,
            MeshFamily::DroopStorm,
            MeshFamily::HardWindow,
            MeshFamily::SingleLinkDown,
            MeshFamily::MixedMesh,
        ]
    }

    /// Stable name (used in reports and repro files).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MeshFamily::LinkBursts => "link_bursts",
            MeshFamily::DroopStorm => "droop_storm",
            MeshFamily::HardWindow => "hard_window",
            MeshFamily::SingleLinkDown => "link_down",
            MeshFamily::MixedMesh => "mixed_mesh",
        }
    }
}

impl MeshSchedule {
    /// Draws a seeded random schedule from `family`. The same
    /// `(family, params, seed)` triple always yields the same schedule.
    #[must_use]
    pub fn random(family: MeshFamily, params: &MeshScheduleParams, seed: u64) -> MeshSchedule {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        let mut next_id = 0u32;
        let mut push = |rng: &mut StdRng, kind, max_n| {
            for w in FaultWindow::draw(rng, kind, max_n, params.cycles, params.links, params.wires)
            {
                let (id, link, spec) = (next_id, w.target, w.spec);
                next_id += 1;
                events.push(MeshEvent {
                    at_cycle: w.at,
                    action: MeshAction::Activate { id, link, spec },
                });
                events.push(MeshEvent {
                    at_cycle: w.at + w.len,
                    action: MeshAction::Deactivate { id },
                });
            }
        };
        match family {
            MeshFamily::LinkBursts => push(&mut rng, WindowKind::Burst, 3),
            MeshFamily::DroopStorm => push(&mut rng, WindowKind::Droop, 3),
            MeshFamily::HardWindow => push(&mut rng, WindowKind::Hard, 2),
            MeshFamily::SingleLinkDown => {
                events.push(MeshEvent {
                    at_cycle: 0,
                    action: MeshAction::LinkDown {
                        link: rng.gen_range(0..params.links),
                    },
                });
            }
            MeshFamily::MixedMesh => {
                push(&mut rng, WindowKind::Burst, 1);
                push(&mut rng, WindowKind::Hard, 1);
                let (at, len) = window(params.cycles, &mut rng);
                let link = rng.gen_range(0..params.links);
                events.push(MeshEvent {
                    at_cycle: at,
                    action: MeshAction::LinkDown { link },
                });
                events.push(MeshEvent {
                    at_cycle: at + len,
                    action: MeshAction::LinkUp { link },
                });
            }
        }
        let mut schedule = MeshSchedule { events };
        schedule.sort();
        schedule
    }

    /// Restores firing order after editing the event list (stable by
    /// `at_cycle`).
    pub fn sort(&mut self) {
        self.events.sort_by_key(|e| e.at_cycle);
    }
}

// ---------------------------------------------------------------------
// Invariants and the monitor
// ---------------------------------------------------------------------

/// The invariant families the mesh monitor checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MeshInvariant {
    /// Injected = delivered + flagged lost; no duplicates, no phantom
    /// deliveries, no silent losses after a clean drain.
    PacketConservation,
    /// Armed cells (single clean link failure) must deliver everything.
    RerouteDelivers,
    /// Every forward strictly decreases live-topology distance, never
    /// onto a downed link, and the mesh drains to idle in budget.
    BoundedProgress,
    /// Per-link guarantee scoping of delivered-changed / dropped-clean
    /// words.
    MeshSilentCorruption,
    /// The health monitor's verdicts agree with the simulator's ledger:
    /// the health report's `Down` links are exactly the auto-retired
    /// links, and every one of them is blamed by an incident — no
    /// silently downed link.
    HealthConsistent,
}

impl Invariant for MeshInvariant {
    const ALL: [MeshInvariant; 5] = [
        MeshInvariant::PacketConservation,
        MeshInvariant::RerouteDelivers,
        MeshInvariant::BoundedProgress,
        MeshInvariant::MeshSilentCorruption,
        MeshInvariant::HealthConsistent,
    ];

    fn name(self) -> &'static str {
        match self {
            MeshInvariant::PacketConservation => "packet-conservation",
            MeshInvariant::RerouteDelivers => "reroute-delivers",
            MeshInvariant::BoundedProgress => "bounded-progress",
            MeshInvariant::MeshSilentCorruption => "mesh-silent-corruption",
            MeshInvariant::HealthConsistent => "health-consistent",
        }
    }
}

/// One observed mesh invariant violation: `site` is the link it broke
/// on (`None` end to end), `at` the cycle (for end-of-run audits, the
/// total cycle count).
pub type MeshViolation = Violation<MeshInvariant>;

/// The violation a mesh repro file promises to reproduce.
pub type ExpectedMeshViolation = ExpectedViolation<MeshInvariant>;

/// A mesh reproducer: the `socbus-mesh-repro v1` format.
pub type MeshRepro = Repro<MeshCaseConfig>;

/// Replicates [`MeshSim`]'s directed-link enumeration: node-major, and
/// East/West/North/South per node (edges only where a neighbour
/// exists). `links[l] = (from, to)`.
#[must_use]
pub fn mesh_topology(width: usize, height: usize) -> Vec<(usize, usize)> {
    let mut links = Vec::new();
    for node in 0..width * height {
        let (x, y) = (node % width, node / width);
        if x + 1 < width {
            links.push((node, node + 1));
        }
        if x > 0 {
            links.push((node, node - 1));
        }
        if y + 1 < height {
            links.push((node, node + width));
        }
        if y > 0 {
            links.push((node, node - width));
        }
    }
    links
}

/// The online monitor for one mesh chaos case. It keeps its own shadow
/// topology (same enumeration as the simulator, independently derived)
/// and its own exactly-once ledger, so every identity in the final
/// [`MeshReport`] is re-derived rather than trusted.
pub struct MeshMonitor {
    links: Vec<(usize, usize)>,
    in_links: Vec<Vec<(usize, usize)>>,
    down: Vec<bool>,
    /// Lazily built shortest-distance tables over the live topology,
    /// one per destination; cleared whenever the down set changes.
    dist_cache: HashMap<usize, Vec<u32>>,
    expect_full_delivery: bool,
    injected: BTreeSet<PacketKey>,
    accepted: BTreeSet<PacketKey>,
    gave_up: BTreeSet<PacketKey>,
    duplicates: u64,
    /// Links the simulator auto-retired (reported via
    /// [`CycleReport::downed`]) — the ground truth the health monitor's
    /// `Down` verdicts are checked against.
    auto_downed: BTreeSet<usize>,
    violations: Vec<MeshViolation>,
    stats: [InvariantStats; 5],
    checks_flushed: [u64; 5],
    tel: Telemetry,
}

impl MeshMonitor {
    /// Builds a monitor for a `width` × `height` mesh. When
    /// `expect_full_delivery` is set the reroute-delivers invariant is
    /// armed: the run must end with zero flagged losses.
    #[must_use]
    pub fn new(width: usize, height: usize, expect_full_delivery: bool) -> Self {
        let links = mesh_topology(width, height);
        let mut in_links = vec![Vec::new(); width * height];
        for (l, &(from, to)) in links.iter().enumerate() {
            in_links[to].push((from, l));
        }
        let down = vec![false; links.len()];
        MeshMonitor {
            links,
            in_links,
            down,
            dist_cache: HashMap::new(),
            expect_full_delivery,
            injected: BTreeSet::new(),
            accepted: BTreeSet::new(),
            gave_up: BTreeSet::new(),
            duplicates: 0,
            auto_downed: BTreeSet::new(),
            violations: Vec::new(),
            stats: [InvariantStats::default(); 5],
            checks_flushed: [0; 5],
            tel: Telemetry::off(),
        }
    }

    /// Attaches a telemetry handle (same discipline as
    /// [`crate::monitor::Monitor::set_telemetry`]).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Mirrors a scheduled link state change into the shadow topology.
    /// Must be called *before* the step whose report is observed, in
    /// lockstep with [`MeshSim::set_link_down`].
    pub fn set_link_down(&mut self, link: usize, is_down: bool) {
        if self.down[link] != is_down {
            self.down[link] = is_down;
            self.dist_cache.clear();
        }
    }

    /// Live-topology hop distance from `node` to `dst` (`u32::MAX` if
    /// unreachable), from a BFS over the reverse adjacency.
    fn dist(&mut self, node: usize, dst: usize) -> u32 {
        if !self.dist_cache.contains_key(&dst) {
            let mut dist = vec![u32::MAX; self.in_links.len()];
            dist[dst] = 0;
            let mut frontier = std::collections::VecDeque::from([dst]);
            while let Some(at) = frontier.pop_front() {
                let d = dist[at];
                for &(from, link) in &self.in_links[at] {
                    if !self.down[link] && dist[from] == u32::MAX {
                        dist[from] = d + 1;
                        frontier.push_back(from);
                    }
                }
            }
            self.dist_cache.insert(dst, dist);
        }
        self.dist_cache[&dst][node]
    }

    fn check(
        &mut self,
        kind: MeshInvariant,
        link: Option<usize>,
        cycle: u64,
        ok: bool,
        detail: impl FnOnce() -> String,
    ) {
        let idx = MeshInvariant::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("kind is in ALL");
        self.stats[idx].checked += 1;
        if !ok {
            self.stats[idx].violated += 1;
            if self.tel.is_enabled() {
                let link_label = link.map_or_else(|| "e2e".to_owned(), |l| l.to_string());
                let labels = [("invariant", kind.name()), ("at_link", link_label.as_str())];
                self.tel.counter("monitor.violations", &labels, 1);
                self.tel.event("monitor.violation", &labels, cycle);
            }
            self.violations.push(Violation {
                kind,
                site: link,
                at: cycle,
                detail: detail(),
            });
        }
    }

    /// Observes one simulated cycle.
    pub fn observe(&mut self, report: &CycleReport) {
        let cycle = report.cycle;
        for key in &report.injected {
            let fresh = self.injected.insert(*key);
            self.check(
                MeshInvariant::PacketConservation,
                None,
                cycle,
                fresh,
                || format!("packet {key:?} injected twice"),
            );
        }
        // Auto-retired links are reported in the same cycle their last
        // transfer happened, so the monitor's shadow tables and the
        // simulator's diverge *within* this report; distance-descent
        // checks resume next cycle, once both sides agree again.
        let topology_stable = report.downed.is_empty();
        for t in &report.transfers {
            let weight = u64::from(t.trace.max_error_weight);
            let within_correction = weight <= t.trace.correctable_errors as u64;
            let claims_clean = matches!(
                t.trace.final_status,
                DecodeStatus::Clean | DecodeStatus::Unchecked
            );
            let within_detection = weight <= t.trace.detectable_errors as u64;
            let guaranteed_exact = within_correction || (within_detection && claims_clean);
            self.check(
                MeshInvariant::MeshSilentCorruption,
                Some(t.link),
                cycle,
                t.dropped || !guaranteed_exact || t.exited == t.entered,
                || {
                    format!(
                        "link {} changed {:?} -> {:?} inside its guarantee \
                         (weight {weight}, status {:?})",
                        t.link, t.entered, t.exited, t.trace.final_status
                    )
                },
            );
            self.check(
                MeshInvariant::MeshSilentCorruption,
                Some(t.link),
                cycle,
                !t.dropped || !within_correction,
                || {
                    format!(
                        "link {} dropped {:?} as poisoned at weight {weight} \
                         within its correction guarantee",
                        t.link, t.key
                    )
                },
            );
            if topology_stable && !t.dropped {
                let (from, to) = self.links[t.link];
                let dst = t.key.dst;
                let d_from = if from == dst { 0 } else { self.dist(from, dst) };
                let d_to = if to == dst { 0 } else { self.dist(to, dst) };
                let link_down = self.down[t.link];
                self.check(
                    MeshInvariant::BoundedProgress,
                    Some(t.link),
                    cycle,
                    !link_down && d_to < d_from,
                    || {
                        format!(
                            "link {} ({from} -> {to}) does not approach {dst}: \
                             dist {d_from} -> {d_to}{}",
                            t.link,
                            if link_down { " (link is down)" } else { "" }
                        )
                    },
                );
            }
        }
        for a in &report.accepted {
            if a.duplicate {
                self.duplicates += 1;
                let seen = self.accepted.contains(&a.key);
                self.check(MeshInvariant::PacketConservation, None, cycle, seen, || {
                    format!("duplicate accept of {:?} before any accept", a.key)
                });
            } else {
                let known = self.injected.contains(&a.key);
                let fresh = self.accepted.insert(a.key);
                self.check(
                    MeshInvariant::PacketConservation,
                    None,
                    cycle,
                    known && fresh,
                    || {
                        format!(
                            "accepted {:?} {}",
                            a.key,
                            if known {
                                "twice without the duplicate flag"
                            } else {
                                "which was never injected"
                            }
                        )
                    },
                );
            }
        }
        for key in &report.gave_up {
            self.gave_up.insert(*key);
        }
        for &link in &report.downed {
            self.auto_downed.insert(link);
            self.set_link_down(link, true);
        }
    }

    /// Cross-checks the health monitor's verdicts for this run against
    /// the monitor's own ledger (the **health-consistent** invariant):
    ///
    /// * every link the simulator auto-retired must be `Down` in the
    ///   health report *and* blamed by at least one incident — a downed
    ///   link no one was paged about is a silent failure of the
    ///   observability layer;
    /// * every link the health report claims `Down` must actually have
    ///   been auto-retired — no phantom outages.
    ///
    /// Scheduled `link-down` chaos actions are invisible to telemetry
    /// by design (they model an external hard fault, not a simulator
    /// decision), so only auto-retired links participate.
    pub fn check_health_agreement(&mut self, health: &ScopeReport) {
        let cycle = health.cycles;
        let health_down: BTreeSet<String> = health
            .down_entities()
            .into_iter()
            .filter(|e| e.starts_with("link:"))
            .collect();
        let blamed: BTreeSet<String> = health.blamed_entities().into_iter().collect();
        for link in self.auto_downed.clone() {
            let name = format!("link:{link}");
            let is_down = health_down.contains(&name);
            let is_blamed = blamed.contains(&name);
            self.check(
                MeshInvariant::HealthConsistent,
                Some(link),
                cycle,
                is_down && is_blamed,
                || {
                    if is_down {
                        format!("auto-retired link {link} is Down but no incident blames it")
                    } else {
                        format!("auto-retired link {link} is not Down in the health report")
                    }
                },
            );
        }
        for name in &health_down {
            let link: Option<usize> = name.strip_prefix("link:").and_then(|s| s.parse().ok());
            let agreed = link.is_some_and(|l| self.auto_downed.contains(&l));
            self.check(MeshInvariant::HealthConsistent, link, cycle, agreed, || {
                format!("health reports {name} Down but the simulator never auto-retired it")
            });
        }
    }

    /// Audits the final report against the monitor's own ledger.
    /// `drained_clean` is whether the simulator reached idle within the
    /// drain budget.
    pub fn finish(&mut self, report: &MeshReport, drained_clean: bool) {
        let cycle = report.cycles;
        let injected = self.injected.len() as u64;
        let accepted = self.accepted.len() as u64;
        let flagged: Vec<PacketKey> = self.injected.difference(&self.accepted).copied().collect();
        let duplicates = self.duplicates;
        let counts_ok = report.injected == injected
            && report.delivered == accepted
            && report.duplicates == duplicates
            && report.flagged_lost == flagged.len() as u64
            && report.injected == report.delivered + report.flagged_lost;
        self.check(
            MeshInvariant::PacketConservation,
            None,
            cycle,
            counts_ok,
            || {
                format!(
                    "ledger mismatch: report {}/{}/{} (injected/delivered/flagged) \
                     dup {} vs derived {injected}/{accepted}/{} dup {}",
                    report.injected,
                    report.delivered,
                    report.flagged_lost,
                    report.duplicates,
                    flagged.len(),
                    duplicates
                )
            },
        );
        if drained_clean {
            // After a clean drain every undelivered packet must have
            // been *reported* lost — silence is the violation.
            for key in &flagged {
                let reported = self.gave_up.contains(key);
                let idx = MeshInvariant::ALL
                    .iter()
                    .position(|k| *k == MeshInvariant::PacketConservation)
                    .expect("kind is in ALL");
                self.stats[idx].checked += 1;
                if !reported {
                    self.stats[idx].violated += 1;
                    self.violations.push(Violation {
                        kind: MeshInvariant::PacketConservation,
                        site: None,
                        at: cycle,
                        detail: format!("packet {key:?} lost silently (never flagged)"),
                    });
                }
            }
        }
        self.check(
            MeshInvariant::BoundedProgress,
            None,
            cycle,
            drained_clean,
            || {
                "mesh failed to drain to idle within the budget — livelock or stuck packet"
                    .to_owned()
            },
        );
        if self.expect_full_delivery {
            self.check(
                MeshInvariant::RerouteDelivers,
                None,
                cycle,
                report.flagged_lost == 0,
                || {
                    format!(
                        "{} packet(s) flagged lost on a cell that must reroute and deliver",
                        report.flagged_lost
                    )
                },
            );
        }
    }

    /// Reports the `monitor.checks` counters accumulated since the last
    /// flush (safe to call repeatedly; each check is reported once).
    pub fn flush_telemetry(&mut self) {
        if !self.tel.is_enabled() {
            return;
        }
        for (idx, kind) in MeshInvariant::ALL.iter().enumerate() {
            let delta = self.stats[idx].checked - self.checks_flushed[idx];
            if delta > 0 {
                self.tel
                    .counter("monitor.checks", &[("invariant", kind.name())], delta);
                self.checks_flushed[idx] = self.stats[idx].checked;
            }
        }
    }

    /// Pass/fail tally for one invariant kind.
    #[must_use]
    pub fn stats(&self, kind: MeshInvariant) -> InvariantStats {
        let idx = MeshInvariant::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("kind is in ALL");
        self.stats[idx]
    }

    /// Consumes the monitor, returning all violations.
    #[must_use]
    pub fn into_violations(self) -> Vec<MeshViolation> {
        self.violations
    }
}

// ---------------------------------------------------------------------
// Cases and the runner
// ---------------------------------------------------------------------

/// One mesh chaos case: a mesh shape, a coded-link configuration, the
/// end-to-end protocol knobs, and a fault schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct MeshCaseConfig {
    /// Display name.
    pub name: String,
    /// Coding scheme on every link.
    pub scheme: Scheme,
    /// Data bits per word.
    pub data_bits: usize,
    /// Mesh width.
    pub width: usize,
    /// Mesh height.
    pub height: usize,
    /// Baseline i.i.d. ε on every link.
    pub eps: f64,
    /// Link protocol.
    pub protocol: Protocol,
    /// Per-node injection probability per cycle.
    pub rate: f64,
    /// Traffic pattern.
    pub pattern: MeshPattern,
    /// Injection cycles.
    pub cycles: u64,
    /// Drain budget after injection stops.
    pub drain_cycles: u64,
    /// End-to-end retransmission knobs.
    pub e2e: EndToEnd,
    /// Retire a link after this many consecutive poisoned transfers.
    pub auto_down_after: Option<u32>,
    /// Arm the reroute-delivers invariant (zero flagged losses).
    pub expect_full_delivery: bool,
    /// Traffic seed.
    pub traffic_seed: u64,
    /// Sim seed.
    pub sim_seed: u64,
    /// The fault schedule.
    pub schedule: MeshSchedule,
}

impl MeshCaseConfig {
    /// Assembles the [`MeshConfig`] this case runs.
    #[must_use]
    pub fn mesh_config(&self) -> MeshConfig {
        let link =
            LinkConfig::new(self.scheme, self.data_bits, self.eps).with_protocol(self.protocol);
        let mut cfg = MeshConfig::new(self.width, self.height, link)
            .with_pattern(self.pattern)
            .with_rate(self.rate)
            .with_e2e(self.e2e);
        if let Some(n) = self.auto_down_after {
            cfg = cfg.with_auto_down(n);
        }
        cfg
    }
}

/// Everything a finished mesh case yields.
pub struct MeshCaseOutcome {
    /// Violations, in detection order.
    pub violations: Vec<MeshViolation>,
    /// The simulator's final report.
    pub report: MeshReport,
    /// Pass/fail tallies per invariant.
    pub stats: [(MeshInvariant, InvariantStats); 5],
}

fn apply_mesh_event(
    action: &MeshAction,
    sim_seed: u64,
    sim: &mut MeshSim,
    monitor: &mut MeshMonitor,
    live: &mut HashMap<u32, (usize, usize)>,
) {
    match action {
        MeshAction::Activate { id, link, spec } => {
            let slot = activate(sim.engine_mut(*link), spec, sim_seed, *id);
            live.insert(*id, (*link, slot));
        }
        MeshAction::Deactivate { id } => {
            // Unknown ids are a no-op by contract (shrinker-safe).
            if let Some((link, slot)) = live.remove(id) {
                sim.engine_mut(link).injector_mut().set_enabled(slot, false);
            }
        }
        MeshAction::LinkDown { link } => {
            sim.set_link_down(*link, true);
            monitor.set_link_down(*link, true);
        }
        MeshAction::LinkUp { link } => {
            sim.set_link_down(*link, false);
            monitor.set_link_down(*link, false);
        }
    }
}

/// Drives one mesh case to completion and returns the monitor (still
/// open for post-run cross-checks) and the final report. Every
/// telemetry handle the drive created is released on return: only the
/// monitor's own handle survives.
fn drive_mesh_case(cfg: &MeshCaseConfig, tel: Telemetry) -> (MeshMonitor, MeshReport) {
    let mesh_cfg = cfg.mesh_config();
    let mut sim =
        MeshSim::new_with_telemetry(&mesh_cfg, cfg.sim_seed, cfg.traffic_seed, tel.clone());
    let mut monitor = MeshMonitor::new(cfg.width, cfg.height, cfg.expect_full_delivery);
    monitor.set_telemetry(tel);
    let mut live: HashMap<u32, (usize, usize)> = HashMap::new();
    let events = &cfg.schedule.events;
    let mut next_event = 0;
    for cycle in 0..cfg.cycles {
        // Events fire *before* the step of their cycle, mirrored into
        // the monitor's shadow topology in the same order, so both
        // sides route and audit against the same live graph.
        while next_event < events.len() && events[next_event].at_cycle <= cycle {
            apply_mesh_event(
                &events[next_event].action,
                cfg.sim_seed,
                &mut sim,
                &mut monitor,
                &mut live,
            );
            next_event += 1;
        }
        let report = sim.step(true);
        monitor.observe(&report);
    }
    let mut drained = 0;
    while !sim.idle() && drained < cfg.drain_cycles {
        let report = sim.step(false);
        monitor.observe(&report);
        drained += 1;
    }
    let drained_clean = sim.idle();
    let report = sim.finish();
    monitor.finish(&report, drained_clean);
    monitor.flush_telemetry();
    (monitor, report)
}

/// Consumes a finished monitor into the case outcome.
fn finish_outcome(monitor: MeshMonitor, report: MeshReport) -> MeshCaseOutcome {
    let stats = MeshInvariant::ALL.map(|k| (k, monitor.stats(k)));
    MeshCaseOutcome {
        violations: monitor.into_violations(),
        report,
        stats,
    }
}

/// Runs one mesh case under a private recorder, folds the recorder's
/// stream through the health aggregator, and cross-checks the health
/// verdicts against the monitor's ledger (the **health-consistent**
/// invariant). Returns the outcome, the case's incident-report scope
/// (named after the case), and the recorder for trace export.
#[must_use]
pub fn run_mesh_case_health(
    cfg: &MeshCaseConfig,
    health_cfg: &HealthConfig,
) -> (MeshCaseOutcome, ScopeReport, Recorder) {
    let rec = Rc::new(Recorder::new());
    let (mut monitor, report) = drive_mesh_case(cfg, Telemetry::from_recorder(&rec));
    // The health pass reads the recorder *before* the agreement check
    // runs, so the scope reflects exactly what the run emitted; the
    // agreement check's own monitor.* counters land after the snapshot.
    let scope = HealthAggregator::scope_from_recorder(&cfg.name, health_cfg, &rec);
    monitor.check_health_agreement(&scope);
    monitor.flush_telemetry();
    let outcome = finish_outcome(monitor, report);
    let rec = Rc::try_unwrap(rec)
        .ok()
        .expect("drive_mesh_case released every telemetry handle");
    (outcome, scope, rec)
}

// ---------------------------------------------------------------------
// Shrinking and the repro format
// ---------------------------------------------------------------------

/// The mesh-only keys of a `socbus-mesh-repro v1` file being parsed.
#[derive(Default)]
pub struct MeshDraft {
    width: Option<usize>,
    height: Option<usize>,
    rate: Option<f64>,
    pattern: Option<MeshPattern>,
    cycles: Option<u64>,
    drain_cycles: Option<u64>,
    e2e: Option<EndToEnd>,
    auto_down_after: Option<u32>,
    expect_full_delivery: Option<bool>,
    events: Vec<MeshEvent>,
}

/// The mesh harness: `socbus-mesh-repro v1` files, link-indexed
/// violations at cycles, health folded into every campaign cell (and
/// every replay) and cross-checked against the ledger.
impl Harness for MeshCaseConfig {
    type Invariant = MeshInvariant;
    type Outcome = MeshCaseOutcome;
    type Draft = MeshDraft;
    const HEADER: &'static str = "socbus-mesh-repro v1";
    const SITE: &'static str = "link";
    const TIME: &'static str = "cycle";
    const HEALTH: bool = true;

    fn name(&self) -> &str {
        &self.name
    }

    /// Wires `tel` through the simulator (per-link and per-router
    /// tracks) and the monitor.
    fn run(&self, tel: Telemetry) -> MeshCaseOutcome {
        let (monitor, report) = drive_mesh_case(self, tel);
        finish_outcome(monitor, report)
    }

    /// When health runs, the scope folds after the drive's final flush
    /// and is cross-checked against the monitor's ledger (the
    /// **health-consistent** invariant) before the monitor flushes
    /// again, as [`run_mesh_case_health`] does.
    fn run_cell(&self, probe: &mut Probe) -> MeshCaseOutcome {
        let (mut monitor, report) = drive_mesh_case(self, probe.open(&self.name));
        if let Some(scope) = probe.fold() {
            monitor.check_health_agreement(scope);
            monitor.flush_telemetry();
        }
        finish_outcome(monitor, report)
    }

    /// Greedy delta-debugging over the schedule and the run length: drop
    /// events one at a time, then halve the injection cycles (discarding
    /// events past the new horizon), re-checking the violation key after
    /// every candidate.
    fn shrink(
        &self,
        key: (MeshInvariant, Option<usize>),
        budget: usize,
    ) -> Option<(Self, MeshViolation)> {
        let spent = std::cell::Cell::new(0usize);
        let run = |candidate: &MeshCaseConfig| -> Option<MeshViolation> {
            spent.set(spent.get() + 1);
            first_violation(candidate, key, Telemetry::off())
        };
        let mut violation = run(self)?;
        let mut best = self.clone();
        // Pass 1: drop events. On success stay at the same index (the next
        // event shifted into it).
        let mut i = 0;
        while i < best.schedule.events.len() && spent.get() < budget {
            let mut candidate = best.clone();
            candidate.schedule.events.remove(i);
            if let Some(v) = run(&candidate) {
                best = candidate;
                violation = v;
            } else {
                i += 1;
            }
        }
        // Pass 2: halve the injection phase while the violation survives.
        while best.cycles > 25 && spent.get() < budget {
            let mut candidate = best.clone();
            candidate.cycles = (candidate.cycles / 2).max(25);
            candidate
                .schedule
                .events
                .retain(|e| e.at_cycle < candidate.cycles);
            if candidate == best {
                break;
            }
            if let Some(v) = run(&candidate) {
                best = candidate;
                violation = v;
            } else {
                break;
            }
        }
        Some((best, violation))
    }

    fn violations(out: &MeshCaseOutcome) -> &[MeshViolation] {
        &out.violations
    }

    fn stats(out: &MeshCaseOutcome) -> &[(MeshInvariant, InvariantStats)] {
        &out.stats
    }

    fn summary(name: &str, out: &MeshCaseOutcome, scope: Option<&ScopeReport>) -> String {
        let r = &out.report;
        format!(
            "{name:<26} injected {:>4}  delivered {:>4}  lost {:>2}  retx {:>4}  \
             incidents {}  violations {}",
            r.injected,
            r.delivered,
            r.flagged_lost,
            r.e2e_retransmits,
            scope.map_or(0, |s| s.incidents.len()),
            out.violations.len()
        )
    }

    fn json_row(out: &MeshCaseOutcome, json: &mut String) {
        let r = &out.report;
        let _ = write!(
            json,
            "\"injected\": {}, \"delivered\": {}, \"flagged_lost\": {}, \"duplicates\": {}, \
             \"e2e_retransmits\": {}, \"dropped_poisoned\": {}, \"links_down\": {}, \
             \"throughput\": {}, \"p50_latency\": {}, \"p99_latency\": {}",
            r.injected,
            r.delivered,
            r.flagged_lost,
            r.duplicates,
            r.e2e_retransmits,
            r.dropped_poisoned,
            r.links_down,
            num(r.throughput()),
            r.latency_quantile(0.5),
            r.latency_quantile(0.99)
        );
    }

    fn write_fields(&self, out: &mut String) {
        write_head(out, &self.name, self.scheme, self.data_bits);
        let _ = writeln!(out, "width {}\nheight {}", self.width, self.height);
        write_link(out, self.eps, self.protocol);
        let _ = writeln!(out, "rate {:?}", self.rate);
        let _ = match self.pattern {
            MeshPattern::Uniform => writeln!(out, "pattern uniform"),
            MeshPattern::Hotspot { node, fraction } => {
                writeln!(out, "pattern hotspot node={node} fraction={fraction:?}")
            }
            MeshPattern::Transpose => writeln!(out, "pattern transpose"),
        };
        let _ = writeln!(out, "cycles {}", self.cycles);
        let _ = writeln!(out, "drain_cycles {}", self.drain_cycles);
        let e = &self.e2e;
        let _ = writeln!(
            out,
            "e2e timeout={} base={} cap={} max_retries={} ack_latency={}",
            e.timeout, e.backoff_base, e.backoff_cap, e.max_retries, e.ack_latency
        );
        if let Some(n) = self.auto_down_after {
            let _ = writeln!(out, "auto_down {n}");
        }
        let full = u8::from(self.expect_full_delivery);
        let _ = writeln!(out, "expect_full_delivery {full}");
        write_seeds(out, self.traffic_seed, self.sim_seed);
        for e in &self.schedule.events {
            let _ = write!(out, "event at={} ", e.at_cycle);
            let _ = match &e.action {
                MeshAction::Activate { id, link, spec } => {
                    writeln!(out, "activate id={id} link={link} spec={}", spec_str(spec))
                }
                MeshAction::Deactivate { id } => writeln!(out, "deactivate id={id}"),
                MeshAction::LinkDown { link } => writeln!(out, "link-down link={link}"),
                MeshAction::LinkUp { link } => writeln!(out, "link-up link={link}"),
            };
        }
    }

    fn parse_field(draft: &mut MeshDraft, key: &str, rest: &str) -> Result<(), String> {
        match key {
            "width" => draft.width = Some(parse_num(rest)?),
            "height" => draft.height = Some(parse_num(rest)?),
            "rate" => draft.rate = Some(parse_f64(rest)?),
            "pattern" => draft.pattern = Some(parse_pattern(rest)?),
            "cycles" => draft.cycles = Some(parse_num(rest)?),
            "drain_cycles" => draft.drain_cycles = Some(parse_num(rest)?),
            "e2e" => {
                let mut toks = rest.split_whitespace();
                draft.e2e = Some(EndToEnd {
                    timeout: kv(toks.next(), "timeout").and_then(parse_num)?,
                    backoff_base: kv(toks.next(), "base").and_then(parse_num)?,
                    backoff_cap: kv(toks.next(), "cap").and_then(parse_num)?,
                    max_retries: kv(toks.next(), "max_retries").and_then(parse_num)?,
                    ack_latency: kv(toks.next(), "ack_latency").and_then(parse_num)?,
                });
            }
            "auto_down" => draft.auto_down_after = Some(parse_num(rest)?),
            "expect_full_delivery" => {
                draft.expect_full_delivery = Some(match rest {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad expect_full_delivery {other:?}")),
                });
            }
            "event" => draft.events.push(parse_mesh_event(rest)?),
            other => return Err(format!("unknown key {other:?}")),
        }
        Ok(())
    }

    fn assemble(shared: Shared, draft: MeshDraft) -> Result<Self, String> {
        Ok(MeshCaseConfig {
            name: need(shared.name, "name")?,
            scheme: need(shared.scheme, "scheme")?,
            data_bits: need(shared.data_bits, "data_bits")?,
            width: need(draft.width, "width")?,
            height: need(draft.height, "height")?,
            eps: need(shared.eps, "eps")?,
            protocol: need(shared.protocol, "protocol")?,
            rate: need(draft.rate, "rate")?,
            pattern: need(draft.pattern, "pattern")?,
            cycles: need(draft.cycles, "cycles")?,
            drain_cycles: need(draft.drain_cycles, "drain_cycles")?,
            e2e: need(draft.e2e, "e2e")?,
            auto_down_after: draft.auto_down_after,
            expect_full_delivery: need(draft.expect_full_delivery, "expect_full_delivery")?,
            traffic_seed: need(shared.traffic_seed, "traffic_seed")?,
            sim_seed: need(shared.sim_seed, "sim_seed")?,
            schedule: MeshSchedule {
                events: draft.events,
            },
        })
    }

    /// Rejects a parsed mesh case the simulator would assert on: a data
    /// width outside 1..=128, a mesh smaller than 2×2 (or past
    /// `MAX_MESH_NODES`), a probability that is not one, a hotspot node
    /// off the mesh, or an event naming a link the mesh lacks.
    fn check(&self) -> Result<(), String> {
        check_data_bits(self.data_bits)?;
        let nodes = self.width.saturating_mul(self.height);
        if self.width < 2 || self.height < 2 || nodes > MAX_MESH_NODES {
            return Err(format!(
                "mesh {}x{} must be at least 2x2 and at most {MAX_MESH_NODES} nodes",
                self.width, self.height
            ));
        }
        check_prob("eps", self.eps)?;
        check_prob("rate", self.rate)?;
        if let MeshPattern::Hotspot { node, fraction } = self.pattern {
            if node >= nodes {
                return Err(format!("hotspot node {node} of a {nodes}-node mesh"));
            }
            check_prob("hotspot fraction", fraction)?;
        }
        let links = mesh_topology(self.width, self.height).len();
        for e in &self.schedule.events {
            let link = match &e.action {
                MeshAction::Activate { link, spec, .. } => {
                    check_spec(spec)?;
                    *link
                }
                MeshAction::LinkDown { link } | MeshAction::LinkUp { link } => *link,
                MeshAction::Deactivate { .. } => continue,
            };
            if link >= links {
                return Err(format!(
                    "event at={} names link {link} of a {links}-link mesh",
                    e.at_cycle
                ));
            }
        }
        Ok(())
    }
}

/// The most mesh nodes a repro file may ask for: far past any mesh the
/// campaigns run, small enough that building the mesh allocates little.
const MAX_MESH_NODES: usize = 1 << 12;

fn parse_pattern(rest: &str) -> Result<MeshPattern, String> {
    let mut toks = rest.split_whitespace();
    match toks.next() {
        Some("uniform") => Ok(MeshPattern::Uniform),
        Some("hotspot") => Ok(MeshPattern::Hotspot {
            node: kv(toks.next(), "node").and_then(parse_num)?,
            fraction: kv(toks.next(), "fraction").and_then(parse_f64)?,
        }),
        Some("transpose") => Ok(MeshPattern::Transpose),
        other => Err(format!("unknown pattern {other:?}")),
    }
}

fn parse_mesh_event(rest: &str) -> Result<MeshEvent, String> {
    let mut toks = rest.split_whitespace();
    let at_cycle = kv(toks.next(), "at").and_then(parse_num)?;
    let action = match toks.next() {
        Some("activate") => {
            let (id, link, spec) = parse_activate(toks, "link")?;
            MeshAction::Activate { id, link, spec }
        }
        Some("deactivate") => MeshAction::Deactivate {
            id: kv(toks.next(), "id").and_then(parse_num)?,
        },
        Some("link-down") => MeshAction::LinkDown {
            link: kv(toks.next(), "link").and_then(parse_num)?,
        },
        Some("link-up") => MeshAction::LinkUp {
            link: kv(toks.next(), "link").and_then(parse_num)?,
        },
        other => return Err(format!("unknown event action {other:?}")),
    };
    Ok(MeshEvent { at_cycle, action })
}

// ---------------------------------------------------------------------
// The campaign
// ---------------------------------------------------------------------

/// The static shard list: one mesh cell per (scheme, family) grid
/// position, seeded deterministically from that position.
#[must_use]
pub fn mesh_cells() -> Vec<(Scheme, MeshFamily, u64)> {
    grid(&Scheme::catalog(), &MeshFamily::all())
}

/// The `--smoke` subset of [`mesh_cells`]: one cell per fault family
/// (each with a different scheme), so CI covers all five families
/// without running the full grid.
#[must_use]
pub fn mesh_smoke_cells() -> Vec<(Scheme, MeshFamily, u64)> {
    smoke_grid(&Scheme::catalog(), &MeshFamily::all())
}

/// Assembles the [`MeshCaseConfig`] for one `(scheme, family, seed)`
/// cell — the single source of truth shared by the CLI, the campaign,
/// and the tests. Links run clean (`eps = 0`) at baseline: the schedule
/// carries all the chaos, so the single-link-down family can arm
/// reroute-delivers (any flagged loss there is a routing bug, not
/// noise).
#[must_use]
pub fn build_mesh_case(
    scheme: Scheme,
    family: MeshFamily,
    seed: u64,
    cycles: u64,
) -> MeshCaseConfig {
    let wires = scheme.build(DEFAULT_DATA_BITS).wires();
    let links = mesh_topology(MESH_WIDTH, MESH_HEIGHT).len();
    let params = MeshScheduleParams {
        cycles,
        links,
        wires,
    };
    let schedule = MeshSchedule::random(family, &params, seed);
    MeshCaseConfig {
        name: format!("{}/{}", scheme.name(), family.name()),
        scheme,
        data_bits: DEFAULT_DATA_BITS,
        width: MESH_WIDTH,
        height: MESH_HEIGHT,
        eps: 0.0,
        protocol: protocol_for(scheme, seed),
        rate: MESH_RATE,
        pattern: MeshPattern::Uniform,
        cycles,
        drain_cycles: MESH_DRAIN_CYCLES,
        e2e: EndToEnd::default(),
        auto_down_after: Some(MESH_AUTO_DOWN),
        expect_full_delivery: family == MeshFamily::SingleLinkDown,
        traffic_seed: seed ^ 0xA5A5,
        sim_seed: seed,
        schedule,
    }
}

/// Renders the mesh campaign JSON.
#[must_use]
pub fn render_mesh_json(cycles: u64, outcomes: &[(String, MeshCaseOutcome)]) -> String {
    let meta =
        format!("  \"mesh\": \"{MESH_WIDTH}x{MESH_HEIGHT}\",\n  \"cycles_per_case\": {cycles},\n");
    render::<MeshCaseConfig>(&meta, outcomes, "")
}

/// The mesh campaign entry point behind `chaos mesh`. Every cell runs
/// under the health monitor, so the campaign always produces an
/// incident timeline and always checks the health-consistent invariant.
/// Args: `[--smoke] [--threads N] [--trace-out <path>]
/// [--health-out <path>] [out_path]`.
/// Returns the process exit code (nonzero iff any invariant violated).
#[must_use]
pub fn mesh_main(args: &[String]) -> i32 {
    campaign(
        "chaos mesh",
        args,
        (
            "results/BENCH_mesh_chaos.json",
            Some("results/BENCH_mesh_chaos.health.json"),
        ),
        |smoke| {
            if smoke {
                (mesh_smoke_cells(), SMOKE_MESH_CYCLES)
            } else {
                (mesh_cells(), FULL_MESH_CYCLES)
            }
        },
        build_mesh_case,
        render_mesh_json,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use socbus_noc::mesh::Direction;
    use socbus_telemetry::health::EntitySummary;

    #[test]
    fn mesh_schedules_are_deterministic_per_seed() {
        let params = MeshScheduleParams {
            cycles: 200,
            links: 24,
            wires: 21,
        };
        for family in MeshFamily::all() {
            let a = MeshSchedule::random(family, &params, 9);
            let b = MeshSchedule::random(family, &params, 9);
            assert_eq!(a, b, "{}", family.name());
            assert!(!a.events.is_empty(), "{}", family.name());
            let c = MeshSchedule::random(family, &params, 10);
            assert_ne!(a, c, "{} must vary with the seed", family.name());
        }
    }

    #[test]
    fn single_link_down_schedules_down_exactly_one_link_at_cycle_zero() {
        let params = MeshScheduleParams {
            cycles: 200,
            links: 24,
            wires: 21,
        };
        for seed in 0..20 {
            let s = MeshSchedule::random(MeshFamily::SingleLinkDown, &params, seed);
            assert_eq!(s.events.len(), 1);
            assert_eq!(s.events[0].at_cycle, 0);
            assert!(matches!(
                s.events[0].action,
                MeshAction::LinkDown { link } if link < 24
            ));
        }
    }

    #[test]
    fn shadow_topology_matches_the_simulator() {
        for (w, h) in [(3, 3), (2, 4)] {
            let cfg = MeshConfig::new(w, h, LinkConfig::new(Scheme::Dap, 16, 0.0));
            let sim = MeshSim::new(&cfg, 1, 2);
            let shadow = mesh_topology(w, h);
            assert_eq!(shadow.len(), sim.link_count());
            for (l, &(from, to)) in shadow.iter().enumerate() {
                let (sf, st, _dir) = sim.link_endpoints(l);
                assert_eq!((from, to), (sf, st), "link {l} on {w}x{h}");
            }
        }
    }

    #[test]
    fn monitor_distances_respect_downed_links() {
        let mut m = MeshMonitor::new(3, 3, false);
        // Full topology: Manhattan distances.
        assert_eq!(m.dist(0, 8), 4);
        assert_eq!(m.dist(8, 0), 4);
        // Down node 0's east link (link 0: 0 -> 1); 0 -> 1 now detours.
        let shadow = mesh_topology(3, 3);
        assert_eq!(shadow[0], (0, 1));
        m.set_link_down(0, true);
        assert_eq!(m.dist(0, 1), 3);
        assert_eq!(m.dist(1, 0), 1, "reverse direction is unaffected");
        m.set_link_down(0, false);
        assert_eq!(m.dist(0, 1), 1);
    }

    fn quick_case(seed: u64) -> MeshCaseConfig {
        let mut cfg = build_mesh_case(Scheme::Dap, MeshFamily::MixedMesh, seed, 60);
        // Tight e2e knobs keep debug-mode tests fast without changing
        // any semantics under test.
        cfg.e2e = EndToEnd {
            timeout: 12,
            backoff_base: 2,
            backoff_cap: 16,
            max_retries: 3,
            ack_latency: 2,
        };
        cfg.drain_cycles = 800;
        cfg
    }

    #[test]
    fn mesh_case_runs_are_deterministic() {
        let cfg = quick_case(5);
        let a = cfg.run(Telemetry::off());
        let b = cfg.run(Telemetry::off());
        assert_eq!(a.report, b.report);
        assert_eq!(a.violations, b.violations);
        assert!(a.report.injected > 0);
    }

    #[test]
    fn smoke_grid_has_zero_violations() {
        for (scheme, family, seed) in mesh_smoke_cells() {
            let mut cfg = build_mesh_case(scheme, family, seed, 80);
            cfg.e2e = EndToEnd {
                timeout: 12,
                backoff_base: 2,
                backoff_cap: 16,
                max_retries: 6,
                ack_latency: 2,
            };
            cfg.drain_cycles = 2_000;
            let out = cfg.run(Telemetry::off());
            assert_eq!(
                out.violations,
                vec![],
                "{} must hold every invariant: {:?}",
                cfg.name,
                out.violations.first()
            );
            assert!(out.report.injected > 0, "{}", cfg.name);
            assert_eq!(
                out.report.injected,
                out.report.delivered + out.report.flagged_lost,
                "{}",
                cfg.name
            );
        }
    }

    #[test]
    fn auto_retired_links_page_and_agree_with_health() {
        // An always-detected fault on link 0 (every wire flips, odd
        // weight, parity always sees it) retires the link after three
        // consecutive poisoned transfers; the health monitor must mark
        // it Down and open an incident that blames it.
        let mut cfg = quick_case(5);
        cfg.scheme = Scheme::Parity;
        cfg.protocol = Protocol::Fec;
        cfg.rate = 0.5;
        cfg.auto_down_after = Some(3);
        cfg.expect_full_delivery = false;
        cfg.schedule = MeshSchedule {
            events: vec![MeshEvent {
                at_cycle: 0,
                action: MeshAction::Activate {
                    id: 0,
                    link: 0,
                    spec: FaultSpec::Iid { eps: 1.0 },
                },
            }],
        };
        let (out, scope, _rec) = run_mesh_case_health(&cfg, &HealthConfig::default());
        assert!(out.report.links_down >= 1, "the storm must retire link 0");
        let hc = out
            .stats
            .iter()
            .find(|(k, _)| *k == MeshInvariant::HealthConsistent)
            .expect("stats cover every invariant")
            .1;
        assert!(hc.checked >= 1, "agreement must actually be checked");
        assert_eq!(hc.violated, 0, "{:?}", out.violations);
        assert!(
            scope.down_entities().iter().any(|e| e == "link:0"),
            "health must mark link 0 Down: {:?}",
            scope.entities
        );
        assert!(
            scope.blamed_entities().iter().any(|e| e == "link:0"),
            "an incident must blame link 0: {:?}",
            scope.incidents
        );
    }

    #[test]
    fn health_agreement_rejects_silent_and_phantom_downs() {
        let scope = |entities: Vec<EntitySummary>, incidents| ScopeReport {
            scope: "t".into(),
            cycles: 10,
            events: 0,
            ring_dropped: 0,
            entities,
            incidents,
            alerts: vec![],
            slos: vec![],
            samples: vec![],
        };
        let down_entity = |name: &str| EntitySummary {
            entity: name.to_owned(),
            kind: "link".into(),
            state: socbus_telemetry::health::HealthState::Down,
            strain: 9,
            last_cycle: 10,
        };
        // Phantom: health says link 3 is Down, simulator never retired it.
        let mut m = MeshMonitor::new(3, 3, false);
        m.check_health_agreement(&scope(vec![down_entity("link:3")], vec![]));
        assert_eq!(m.violations.len(), 1);
        assert!(m.violations[0].detail.contains("never auto-retired"));
        // Silent: link 2 auto-retired but health never marked it Down.
        let mut m = MeshMonitor::new(3, 3, false);
        m.auto_downed.insert(2);
        m.check_health_agreement(&scope(vec![], vec![]));
        assert_eq!(m.violations.len(), 1);
        assert!(m.violations[0].detail.contains("not Down"));
        // Unblamed: Down in the report, but no incident pages anyone.
        let mut m = MeshMonitor::new(3, 3, false);
        m.auto_downed.insert(2);
        m.check_health_agreement(&scope(vec![down_entity("link:2")], vec![]));
        assert_eq!(m.violations.len(), 1);
        assert!(m.violations[0].detail.contains("no incident blames"));
    }

    #[test]
    fn mesh_campaign_covers_every_catalog_scheme_and_family() {
        let cells = mesh_cells();
        assert_eq!(
            cells.len(),
            Scheme::catalog().len() * MeshFamily::all().len()
        );
        for scheme in Scheme::catalog() {
            for family in MeshFamily::all() {
                assert!(
                    cells.iter().any(|&(s, f, _)| s == scheme && f == family),
                    "{}/{} missing from the mesh campaign",
                    scheme.name(),
                    family.name()
                );
            }
        }
        let smoke = mesh_smoke_cells();
        assert_eq!(smoke.len(), MeshFamily::all().len());
    }

    fn sample_mesh_repro() -> MeshRepro {
        let mut cfg = build_mesh_case(Scheme::Dap, MeshFamily::MixedMesh, 3, 120);
        cfg.pattern = MeshPattern::Hotspot {
            node: 4,
            fraction: 0.4,
        };
        cfg.schedule.events.push(MeshEvent {
            at_cycle: 7,
            action: MeshAction::Activate {
                id: 42,
                link: 5,
                spec: FaultSpec::Iid { eps: 1.5e-3 },
            },
        });
        cfg.schedule.sort();
        MeshRepro {
            case: cfg,
            expect: ExpectedMeshViolation {
                kind: MeshInvariant::BoundedProgress,
                site: Some(3),
                at: 99,
            },
        }
    }

    #[test]
    fn mesh_repro_round_trips_byte_identically() {
        let repro = sample_mesh_repro();
        let text = repro.serialize();
        let back = MeshRepro::parse(&text).expect("parses");
        assert_eq!(back, repro);
        assert_eq!(back.serialize(), text, "canonical form must be stable");
    }

    #[test]
    fn every_event_kind_and_pattern_round_trips() {
        let mut repro = sample_mesh_repro();
        repro.case.pattern = MeshPattern::Transpose;
        repro.case.auto_down_after = None;
        repro.expect.site = None;
        repro.case.schedule = MeshSchedule {
            events: vec![
                MeshEvent {
                    at_cycle: 0,
                    action: MeshAction::LinkDown { link: 2 },
                },
                MeshEvent {
                    at_cycle: 3,
                    action: MeshAction::Activate {
                        id: 0,
                        link: 1,
                        spec: FaultSpec::Burst {
                            eps_good: 1e-4,
                            eps_bad: 0.25,
                            p_enter: 0.05,
                            p_exit: 0.3,
                        },
                    },
                },
                MeshEvent {
                    at_cycle: 5,
                    action: MeshAction::Deactivate { id: 0 },
                },
                MeshEvent {
                    at_cycle: 9,
                    action: MeshAction::LinkUp { link: 2 },
                },
            ],
        };
        let text = repro.serialize();
        assert!(text.contains("pattern transpose"));
        assert!(!text.contains("auto_down"));
        let back = MeshRepro::parse(&text).expect("parses");
        assert_eq!(back, repro);
        assert_eq!(back.serialize(), text);
    }

    #[test]
    fn malformed_mesh_repros_are_rejected_with_context() {
        assert!(MeshRepro::parse("").is_err());
        assert!(MeshRepro::parse("socbus-chaos-repro v1\n").is_err());
        let missing = "socbus-mesh-repro v1\nname x\n";
        let err = MeshRepro::parse(missing).unwrap_err();
        assert!(err.contains("missing"), "{err}");
        let full = sample_mesh_repro().serialize();
        let broken = full.replace("invariant=bounded-progress", "invariant=vibes");
        assert!(MeshRepro::parse(&broken).unwrap_err().contains("vibes"));
        // Hand-edited text that still parses (a trailing override line)
        // is refused by the canonical-form re-check.
        let padded = format!("{full}sim_seed 999\n");
        let parsed = MeshRepro::parse(&padded).expect("the padded text parses");
        let err = parsed
            .checked_replay(&padded, Telemetry::off())
            .unwrap_err();
        assert!(err.contains("canonical"), "{err}");
    }

    /// End-to-end harness self-test: strand node 0 by downing both of
    /// its out-links on a cell that arms reroute-delivers, then shrink
    /// the violation and replay the reproducer.
    #[test]
    fn planted_partition_shrinks_to_a_replayable_repro() {
        // Links 0 and 1 are node 0's east and north out-links (the only
        // two it has), so packets *from* node 0 can never leave.
        let shadow = mesh_topology(3, 3);
        assert_eq!(shadow[0], (0, 1));
        assert_eq!(shadow[1], (0, 3));
        let cfg = MeshCaseConfig {
            name: "planted/partition".into(),
            scheme: Scheme::Dap,
            data_bits: 16,
            width: 3,
            height: 3,
            eps: 0.0,
            protocol: Protocol::Fec,
            rate: 0.2,
            pattern: MeshPattern::Uniform,
            cycles: 40,
            drain_cycles: 600,
            e2e: EndToEnd {
                timeout: 8,
                backoff_base: 2,
                backoff_cap: 8,
                max_retries: 2,
                ack_latency: 2,
            },
            auto_down_after: None,
            expect_full_delivery: true,
            traffic_seed: 11,
            sim_seed: 7,
            schedule: MeshSchedule {
                events: vec![
                    MeshEvent {
                        at_cycle: 0,
                        action: MeshAction::LinkDown { link: 0 },
                    },
                    MeshEvent {
                        at_cycle: 0,
                        action: MeshAction::LinkDown { link: 1 },
                    },
                ],
            },
        };
        let out = cfg.run(Telemetry::off());
        let v = out
            .violations
            .iter()
            .find(|v| v.kind == MeshInvariant::RerouteDelivers)
            .expect("stranding a node must break reroute-delivers");
        assert!(out.report.flagged_lost > 0);
        assert_eq!(
            out.report.injected,
            out.report.delivered + out.report.flagged_lost,
            "conservation must hold even while reroute-delivers breaks"
        );
        let (case, violation) = cfg.shrink(v.key(), 60).expect("shrink reproduces");
        assert!(
            case.schedule.events.len() == 2,
            "neither link-down is droppable: {:?}",
            case.schedule.events
        );
        assert!(case.cycles <= cfg.cycles);
        let repro = MeshRepro::new(case, &violation);
        let text = repro.serialize();
        let parsed = MeshRepro::parse(&text).expect("parses");
        let replayed = parsed.checked_replay(&text, Telemetry::off());
        let replayed = replayed.expect("canonical").expect("reproduces");
        assert_eq!(replayed.kind, MeshInvariant::RerouteDelivers);
    }

    /// A single downed link (the campaign's link_down family) must NOT
    /// violate anything: the fallback reroutes and delivers everything.
    #[test]
    fn single_link_down_cell_delivers_everything() {
        let mut cfg = build_mesh_case(Scheme::Parity, MeshFamily::SingleLinkDown, 16, 60);
        cfg.e2e = EndToEnd {
            timeout: 12,
            backoff_base: 2,
            backoff_cap: 16,
            max_retries: 6,
            ack_latency: 2,
        };
        cfg.drain_cycles = 1_500;
        assert!(cfg.expect_full_delivery);
        let out = cfg.run(Telemetry::off());
        assert_eq!(out.violations, vec![], "{:?}", out.violations.first());
        assert_eq!(out.report.flagged_lost, 0);
        assert_eq!(out.report.delivered, out.report.injected);
    }

    #[test]
    fn direction_enumeration_assumption_holds() {
        // mesh_topology's E/W/N/S per-node order replicates
        // Direction::all(); if the simulator ever reorders it, the
        // shadow-topology test above fails — this pins the contract.
        assert_eq!(
            Direction::all(),
            [
                Direction::East,
                Direction::West,
                Direction::North,
                Direction::South
            ]
        );
    }
}

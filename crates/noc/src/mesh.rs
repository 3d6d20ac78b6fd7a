//! A fault-tolerant 2D-mesh network-on-chip built from coded links.
//!
//! Every directed link of the mesh is a full [`LinkEngine`] — the same
//! codec assignment, fault injector, ARQ protocol, and degradation
//! ladder the point-to-point studies use — so the per-link guarantees
//! of the paper's framework compose into a system-level object:
//!
//! * **Routers** are input-queued store-and-forward switches: a packet
//!   is fully buffered at each router before the next hop begins, and a
//!   link is held only for the duration of one word transfer. Because
//!   no packet ever holds one link while waiting for another, there is
//!   no hold-and-wait cycle on link resources and the mesh is
//!   deadlock-free by construction (the consumption assumption: NIs
//!   always sink packets addressed to them).
//! * **Routing** is deterministic XY dimension-order routing on the
//!   healthy mesh. When links have been marked down (explicitly, or by
//!   the per-link health rule that retires a link after a run of
//!   retry-exhausted deliveries — the ladder's end state), the router
//!   falls back to a fault-aware rule: move to the live neighbour that
//!   minimises the hop distance to the destination over the *current*
//!   topology, breaking ties in west-first turn order (West, East,
//!   North, South). On a fault-free mesh the fallback reduces exactly
//!   to XY; under failures the distance strictly decreases every hop,
//!   so a connected destination is always reached and livelock is
//!   impossible.
//! * **Network interfaces** provide the end-to-end guarantee: packets
//!   carry per-flow sequence numbers, the source retransmits on an
//!   end-to-end timeout with capped exponential backoff, and the
//!   destination suppresses duplicates — every injected packet is
//!   delivered exactly once or reported as a flagged loss, never
//!   dropped silently. Packet headers ride a protected sideband (as in
//!   real NoCs, where control flits are guarded much more heavily than
//!   payload); only the payload word crosses the coded bus, so payload
//!   corruption can poison a packet but never misroute it. A hop whose
//!   final decode says `Detected` (retry budget exhausted on a known
//!   bad word) *drops* the packet rather than forwarding garbage — the
//!   end-to-end retransmit recovers it.
//!
//! The simulation is cycle-stepped and fully deterministic in
//! `(config, sim_seed, traffic_seed)`: router queues are processed in
//! node order, per-link and per-node random streams are split from the
//! seeds by fixed mixing constants, and [`MeshSim::step`] returns a
//! [`CycleReport`] of every transfer and NI event so external monitors
//! (the chaos harness) can audit each cycle.

use std::collections::{BTreeMap, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socbus_codes::DecodeStatus;
use socbus_model::Word;
use socbus_telemetry::Telemetry;

use crate::link::{LinkConfig, LinkEngine, LinkReport, WordTrace};
use crate::traffic::UniformTraffic;

/// The four mesh directions. `East` is `+x`, `North` is `+y`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Toward larger `x`.
    East,
    /// Toward smaller `x`.
    West,
    /// Toward larger `y`.
    North,
    /// Toward smaller `y`.
    South,
}

impl Direction {
    /// All directions in link-enumeration order.
    #[must_use]
    pub fn all() -> [Direction; 4] {
        [
            Direction::East,
            Direction::West,
            Direction::North,
            Direction::South,
        ]
    }

    /// The west-first preference order used to break ties in the
    /// fault-aware fallback: west hops are taken as early as possible
    /// (the west-first turn model admits turns *out of* west but not
    /// into it, so deferring a west hop can strand a packet), then the
    /// remaining X dimension, then Y — which also makes the fallback
    /// coincide with XY routing on a healthy mesh.
    #[must_use]
    pub fn west_first_order() -> [Direction; 4] {
        [
            Direction::West,
            Direction::East,
            Direction::North,
            Direction::South,
        ]
    }

    fn index(self) -> usize {
        match self {
            Direction::East => 0,
            Direction::West => 1,
            Direction::North => 2,
            Direction::South => 3,
        }
    }
}

/// End-to-end (NI-level) reliability parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EndToEnd {
    /// Base cycles the source waits for an ACK before retransmitting.
    pub timeout: u64,
    /// Backoff added to the first retransmission's timeout (doubles per
    /// retry, saturating).
    pub backoff_base: u64,
    /// Upper bound on the backoff term.
    pub backoff_cap: u64,
    /// End-to-end retransmissions before the packet is flagged lost.
    pub max_retries: u32,
    /// Cycles an ACK takes to travel back on the control sideband.
    pub ack_latency: u64,
}

impl Default for EndToEnd {
    fn default() -> Self {
        EndToEnd {
            timeout: 96,
            backoff_base: 16,
            backoff_cap: 512,
            max_retries: 8,
            ack_latency: 4,
        }
    }
}

impl EndToEnd {
    /// The timeout armed for retransmission number `retry` (1-based):
    /// `timeout + min(backoff_base << (retry-1), backoff_cap)`, all
    /// saturating so pathological configurations cannot wrap `u64`
    /// cycle arithmetic.
    #[must_use]
    pub fn retry_timeout(&self, retry: u32) -> u64 {
        if retry == 0 {
            return self.timeout;
        }
        let backoff = self
            .backoff_base
            .checked_shl(retry - 1)
            .map_or(self.backoff_cap, |b| b.min(self.backoff_cap));
        self.timeout.saturating_add(backoff)
    }
}

/// Mesh-level traffic patterns, built on the [`crate::traffic`] word
/// generators for payload and a seeded destination draw.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MeshPattern {
    /// Every injection picks a destination uniformly among the other
    /// nodes — the mesh analogue of the paper's uniform assumption.
    Uniform,
    /// A fraction of the traffic converges on one hotspot node; the
    /// rest is uniform.
    Hotspot {
        /// The hotspot node index.
        node: usize,
        /// Fraction of injections addressed to the hotspot (0..=1).
        fraction: f64,
    },
    /// Node `(x, y)` sends to `(y mod width, x mod height)` — the
    /// classic transpose permutation on a square mesh (nodes on the
    /// diagonal stay silent).
    Transpose,
}

impl MeshPattern {
    /// Stable name (used in reports and repro files).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            MeshPattern::Uniform => "uniform",
            MeshPattern::Hotspot { .. } => "hotspot",
            MeshPattern::Transpose => "transpose",
        }
    }
}

/// Static configuration of a mesh.
#[derive(Clone, Debug)]
pub struct MeshConfig {
    /// Columns (`x` in `0..width`).
    pub width: usize,
    /// Rows (`y` in `0..height`).
    pub height: usize,
    /// The per-link template: scheme, data bits, ε, protocol, and
    /// optionally a degradation ladder — every directed link gets its
    /// own engine built from this.
    pub link: LinkConfig,
    /// NI-level end-to-end reliability parameters.
    pub e2e: EndToEnd,
    /// Traffic pattern for [`MeshSim::step`] injections.
    pub pattern: MeshPattern,
    /// Per-node injection probability per cycle (0..=1).
    pub rate: f64,
    /// Retire a link (mark it down for routing) after this many
    /// *consecutive* retry-exhausted (`Detected`) deliveries — the
    /// mesh-level end state of the link's degradation story. `None`
    /// disables automatic retirement.
    pub auto_down_after: Option<u32>,
}

impl MeshConfig {
    /// A mesh of `width × height` routers over copies of `link`, with
    /// uniform traffic at a modest default rate and default end-to-end
    /// parameters.
    #[must_use]
    pub fn new(width: usize, height: usize, link: LinkConfig) -> Self {
        MeshConfig {
            width,
            height,
            link,
            e2e: EndToEnd::default(),
            pattern: MeshPattern::Uniform,
            rate: 0.1,
            auto_down_after: None,
        }
    }

    /// Sets the traffic pattern.
    #[must_use]
    pub fn with_pattern(mut self, pattern: MeshPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Sets the per-node injection rate.
    #[must_use]
    pub fn with_rate(mut self, rate: f64) -> Self {
        self.rate = rate;
        self
    }

    /// Sets the end-to-end parameters.
    #[must_use]
    pub fn with_e2e(mut self, e2e: EndToEnd) -> Self {
        self.e2e = e2e;
        self
    }

    /// Enables automatic link retirement after `n` consecutive
    /// poisoned deliveries.
    #[must_use]
    pub fn with_auto_down(mut self, n: u32) -> Self {
        self.auto_down_after = Some(n);
        self
    }

    /// Node count.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.width * self.height
    }
}

/// The identity of one injected packet: a per-flow sequence number.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketKey {
    /// Source node index.
    pub src: usize,
    /// Destination node index.
    pub dst: usize,
    /// Per-(src, dst)-flow sequence number, assigned at injection.
    pub seq: u64,
}

/// One link-level transfer observed during a cycle.
#[derive(Clone, Debug)]
pub struct TransferRecord {
    /// The directed link the word crossed.
    pub link: usize,
    /// The packet the word belongs to.
    pub key: PacketKey,
    /// Payload entering the link (post any upstream corruption).
    pub entered: Word,
    /// Payload the link delivered.
    pub exited: Word,
    /// The full word trace (retries, cycles, guarantees, status).
    pub trace: WordTrace,
    /// Cycles the packet waited at the router beyond its arrival
    /// before this transfer started (the bounded-progress signal).
    pub waited: u64,
    /// The delivery was `Detected` (known bad after retry exhaustion)
    /// and the router dropped the packet instead of forwarding it.
    pub dropped: bool,
}

/// One NI delivery event observed during a cycle.
#[derive(Clone, Debug)]
pub struct AcceptRecord {
    /// The packet that arrived.
    pub key: PacketKey,
    /// The arriving copy duplicated an already-accepted sequence
    /// number and was suppressed (re-ACKed, not delivered again).
    pub duplicate: bool,
    /// First-accepted payload differed from the injected payload.
    pub corrupt: bool,
    /// Accept cycle minus first-injection cycle (first accepts only).
    pub latency: u64,
    /// Cycles the copy waited at the destination router before the NI
    /// consumed it.
    pub waited: u64,
}

/// Everything one [`MeshSim::step`] observed — the chaos monitor's
/// per-cycle hook point.
#[derive(Clone, Debug, Default)]
pub struct CycleReport {
    /// The cycle these events happened on.
    pub cycle: u64,
    /// Packets injected this cycle (first copies only).
    pub injected: Vec<PacketKey>,
    /// Link transfers performed this cycle.
    pub transfers: Vec<TransferRecord>,
    /// NI deliveries this cycle.
    pub accepted: Vec<AcceptRecord>,
    /// Packets whose source NI exhausted the end-to-end retry budget
    /// this cycle (flagged-loss candidates).
    pub gave_up: Vec<PacketKey>,
    /// Links retired this cycle by the auto-down health rule.
    pub downed: Vec<usize>,
}

/// Per-flow delivery statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Packets delivered on this flow.
    pub delivered: u64,
    /// Sum of first-accept latencies (cycles).
    pub total_latency: u64,
    /// Worst first-accept latency (cycles).
    pub max_latency: u64,
}

/// The final accounting of one mesh run. The exactly-once ledger is
/// the headline identity: `injected == delivered + flagged_lost`, with
/// duplicates suppressed (counted separately) and every flagged loss
/// reported, never silent.
#[derive(Clone, Debug, PartialEq)]
pub struct MeshReport {
    /// Unique packets offered by the NIs.
    pub injected: u64,
    /// Unique packets accepted at their destination NI.
    pub delivered: u64,
    /// Unique packets the source flagged as lost (retry budget
    /// exhausted, or still unresolved when the run ended) and that
    /// never reached the destination.
    pub flagged_lost: u64,
    /// Duplicate copies suppressed at destination NIs.
    pub duplicates: u64,
    /// Delivered packets whose payload differed from the injected one
    /// (residual corruption that escaped every per-link code).
    pub delivered_corrupt: u64,
    /// End-to-end retransmissions performed by source NIs.
    pub e2e_retransmits: u64,
    /// Packet copies dropped at a router because the final decode was
    /// `Detected` (known bad data, not forwarded).
    pub dropped_poisoned: u64,
    /// Packet copies dropped because no live route to the destination
    /// existed at routing time.
    pub dropped_no_route: u64,
    /// Total cycles stepped (injection plus drain).
    pub cycles: u64,
    /// Worst queueing wait observed at any router (cycles).
    pub max_waited: u64,
    /// Links marked down when the run ended.
    pub links_down: usize,
    /// First-accept latency histogram: latency (cycles) → packets.
    pub latency_hist: BTreeMap<u64, u64>,
    /// Per-flow statistics keyed `(src, dst)`, delivered flows only.
    pub flows: BTreeMap<(usize, usize), FlowStats>,
    /// Per-link transfer reports, indexed by link id.
    pub links: Vec<LinkReport>,
}

impl MeshReport {
    /// Delivered packets per cycle.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.delivered as f64 / self.cycles as f64
        }
    }

    /// The latency (cycles) below which `quantile` of delivered packets
    /// arrived (0 when nothing was delivered). Nearest-rank over the
    /// exact per-latency histogram, via the shared telemetry helper.
    #[must_use]
    pub fn latency_quantile(&self, quantile: f64) -> u64 {
        socbus_telemetry::quantile::nearest_rank(
            self.latency_hist.iter().map(|(&l, &c)| (l, c)),
            quantile,
        )
    }

    /// Worst first-accept latency (cycles).
    #[must_use]
    pub fn max_latency(&self) -> u64 {
        *self.latency_hist.keys().next_back().unwrap_or(&0)
    }
}

/// An in-flight packet copy (original transmission or an end-to-end
/// retransmission).
#[derive(Clone, Debug)]
struct Copy {
    key: PacketKey,
    /// Current payload (may have been corrupted upstream).
    payload: Word,
    /// Cycle from which the copy is routable at its current router
    /// (which queue it sits in identifies the router).
    arrival: u64,
    /// Cycle the packet (first copy) was injected — latency base.
    born: u64,
}

/// Source-side state of one outstanding packet.
#[derive(Clone, Debug)]
struct Outstanding {
    payload: Word,
    born: u64,
    retries: u32,
    deadline: u64,
}

/// One flow's NI state, kept in a single record so an injection or an
/// accept touches one place.
#[derive(Clone, Debug, Default)]
struct Flow {
    /// The sequence number the next injection gets.
    next_seq: u64,
    /// Delivery statistics; a flow with deliveries appears in
    /// [`MeshReport::flows`].
    stats: FlowStats,
    /// The accepted set as a bitset over `0..next_seq`: bits 0..64 here,
    /// since most flows never need more, …
    low: u64,
    /// … and one word per further 64 sequence numbers, appended as
    /// injection reaches them, so every assigned `seq` has its bit.
    high: Vec<u64>,
}

impl Flow {
    /// Assigns the next sequence number.
    fn assign(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if seq >= 64 && seq.is_multiple_of(64) {
            self.high.push(0);
        }
        seq
    }

    /// Marks an assigned `seq` accepted; `false` if it already was.
    fn accept(&mut self, seq: u64) -> bool {
        let word = if seq < 64 {
            &mut self.low
        } else {
            &mut self.high[(seq / 64 - 1) as usize]
        };
        let bit = 1 << (seq % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Distinct sequence numbers accepted.
    fn accepted(&self) -> u64 {
        [self.low]
            .iter()
            .chain(&self.high)
            .map(|w| u64::from(w.count_ones()))
            .sum()
    }
}

/// Mixes a link index into the sim seed (distinct streams per link).
#[must_use]
pub fn mesh_link_seed(sim_seed: u64, link: usize) -> u64 {
    sim_seed ^ (link as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Mixes a node index into the traffic seed (distinct streams per NI).
#[must_use]
pub fn mesh_node_seed(traffic_seed: u64, node: usize) -> u64 {
    traffic_seed ^ (node as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// The cycle-stepped mesh simulator.
///
/// Its bookkeeping makes no allocation per flit-hop: queues, timers,
/// duplicate filters and statistics live in storage sized at
/// construction or grown amortised, and each visits its elements in the
/// order the report stream depends on (DESIGN.md §20). In steady state a
/// cycle allocates only the vectors of the [`CycleReport`] it returns.
pub struct MeshSim {
    cfg: MeshConfig,
    /// `links[l] = (from, to, dir)`.
    links: Vec<(usize, usize, Direction)>,
    /// `coords[node] = (x, y)`, so routing divides by nothing.
    coords: Vec<(usize, usize)>,
    /// `out_link[node][dir.index()]` → link id.
    out_link: Vec<[Option<usize>; 4]>,
    /// Reverse adjacency: `in_links[node]` = predecessors `(from, link)`.
    in_links: Vec<Vec<(usize, usize)>>,
    engines: Vec<LinkEngine>,
    reports: Vec<LinkReport>,
    busy_until: Vec<u64>,
    down: Vec<bool>,
    down_count: usize,
    consec_poisoned: Vec<u32>,
    /// `dist[dst * n + node]` = live-topology hop distance, lazily
    /// rebuilt when the down set changes.
    dist: Vec<u32>,
    dist_dirty: bool,
    /// Router input queues in FIFO order, reused in place every cycle.
    queues: Vec<Vec<Copy>>,
    /// Per-node backpressure flag for `mesh.queue_high` hysteresis: set
    /// (and the event emitted) when the input queue reaches
    /// [`QUEUE_HIGH_DEPTH`], cleared at [`QUEUE_HIGH_CLEAR`].
    queue_pressure: Vec<bool>,
    /// Per-source outstanding packets keyed `(dst, seq)`.
    outstanding: Vec<BTreeMap<(usize, u64), Outstanding>>,
    /// `next_due[src]` is at most every deadline in `outstanding[src]`;
    /// the timer pass visits only sources whose bound has come due.
    next_due: Vec<u64>,
    /// `flows[src * n + dst]`.
    flows: Vec<Flow>,
    /// Packets the source gave up on (audited against the accepted sets
    /// at finish to count true flagged losses).
    given_up: Vec<PacketKey>,
    /// ACKs in flight on the control sideband (ready cycle is
    /// nondecreasing, so a queue suffices).
    acks: VecDeque<(u64, PacketKey)>,
    inject_rng: Vec<StdRng>,
    payload_gen: Vec<UniformTraffic>,
    cycle: u64,
    tel: Telemetry,
    // Running counters (cross-checked against the derived ledger).
    injected: u64,
    delivered: u64,
    duplicates: u64,
    delivered_corrupt: u64,
    e2e_retransmits: u64,
    dropped_poisoned: u64,
    dropped_no_route: u64,
    max_waited: u64,
    /// `latency_counts[l]` = first accepts with latency `l`; becomes
    /// [`MeshReport::latency_hist`] at finish.
    latency_counts: Vec<u64>,
    /// Lengths of the previous cycle's `injected`, `transfers` and
    /// `accepted` report vectors, which size the next cycle's.
    report_lens: [usize; 3],
}

/// Input-queue depth at which a router NI reports sustained
/// backpressure (`mesh.queue_high` on the router's track).
const QUEUE_HIGH_DEPTH: usize = 8;
/// Depth at which the backpressure flag clears; the gap to
/// [`QUEUE_HIGH_DEPTH`] is hysteresis, so one congestion episode emits
/// one event instead of flapping every cycle.
const QUEUE_HIGH_CLEAR: usize = 2;

impl MeshSim {
    /// Builds the mesh: one [`LinkEngine`] per directed link, seeded by
    /// [`mesh_link_seed`], one injection RNG and payload generator per
    /// node, seeded by [`mesh_node_seed`].
    ///
    /// # Panics
    ///
    /// Panics if the mesh is smaller than 2×2, the rate or a hotspot
    /// fraction is outside `0..=1`, or a hotspot node is out of range.
    #[must_use]
    pub fn new(cfg: &MeshConfig, sim_seed: u64, traffic_seed: u64) -> Self {
        Self::new_with_telemetry(cfg, sim_seed, traffic_seed, Telemetry::off())
    }

    /// [`MeshSim::new`] with a telemetry handle: every link engine
    /// reports on its own track (`hop` = link id), and router-level NI
    /// events land on per-router tracks (`hop` = link count + node
    /// index; see [`MeshSim::router_track`]).
    ///
    /// # Panics
    ///
    /// Same conditions as [`MeshSim::new`].
    #[must_use]
    pub fn new_with_telemetry(
        cfg: &MeshConfig,
        sim_seed: u64,
        traffic_seed: u64,
        tel: Telemetry,
    ) -> Self {
        assert!(
            cfg.width >= 2 && cfg.height >= 2,
            "mesh must be at least 2x2 (a 1-wide mesh cannot route around any link failure)"
        );
        assert!(
            (0.0..=1.0).contains(&cfg.rate),
            "injection rate out of range"
        );
        if let MeshPattern::Hotspot { node, fraction } = cfg.pattern {
            assert!(node < cfg.nodes(), "hotspot node out of range");
            assert!(
                (0.0..=1.0).contains(&fraction),
                "hotspot fraction out of range"
            );
        }
        let n = cfg.nodes();
        let coords: Vec<(usize, usize)> = (0..n)
            .map(|node| (node % cfg.width, node / cfg.width))
            .collect();
        let mut links = Vec::new();
        let mut out_link: Vec<[Option<usize>; 4]> = vec![[None; 4]; n];
        let mut in_links = vec![Vec::new(); n];
        for (node, out) in out_link.iter_mut().enumerate() {
            let (x, y) = coords[node];
            for dir in Direction::all() {
                let to = match dir {
                    Direction::East if x + 1 < cfg.width => Some(node + 1),
                    Direction::West if x > 0 => Some(node - 1),
                    Direction::North if y + 1 < cfg.height => Some(node + cfg.width),
                    Direction::South if y > 0 => Some(node - cfg.width),
                    _ => None,
                };
                if let Some(to) = to {
                    let id = links.len();
                    links.push((node, to, dir));
                    out[dir.index()] = Some(id);
                    in_links[to].push((node, id));
                }
            }
        }
        let engines: Vec<LinkEngine> = (0..links.len())
            .map(|l| {
                let mut engine = LinkEngine::new(&cfg.link, &[], mesh_link_seed(sim_seed, l));
                if tel.is_enabled() {
                    engine.set_telemetry(tel.clone(), l);
                }
                engine
            })
            .collect();
        let link_count = links.len();
        MeshSim {
            cfg: cfg.clone(),
            links,
            coords,
            out_link,
            in_links,
            engines,
            reports: vec![LinkReport::default(); link_count],
            busy_until: vec![0; link_count],
            down: vec![false; link_count],
            down_count: 0,
            consec_poisoned: vec![0; link_count],
            dist: vec![0; n * n],
            dist_dirty: true,
            queues: vec![Vec::new(); n],
            queue_pressure: vec![false; n],
            outstanding: vec![BTreeMap::new(); n],
            next_due: vec![u64::MAX; n],
            flows: vec![Flow::default(); n * n],
            given_up: Vec::new(),
            acks: VecDeque::new(),
            inject_rng: (0..n)
                .map(|node| StdRng::seed_from_u64(mesh_node_seed(traffic_seed, node)))
                .collect(),
            payload_gen: (0..n)
                .map(|node| {
                    UniformTraffic::new(
                        cfg.link.data_bits,
                        mesh_node_seed(traffic_seed, node) ^ 0xA5A5,
                    )
                })
                .collect(),
            cycle: 0,
            tel,
            injected: 0,
            delivered: 0,
            duplicates: 0,
            delivered_corrupt: 0,
            e2e_retransmits: 0,
            dropped_poisoned: 0,
            dropped_no_route: 0,
            max_waited: 0,
            latency_counts: Vec::new(),
            report_lens: [0; 3],
        }
    }

    /// Node count.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.cfg.nodes()
    }

    /// Directed link count.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The `(from, to, direction)` of a directed link.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[must_use]
    pub fn link_endpoints(&self, link: usize) -> (usize, usize, Direction) {
        self.links[link]
    }

    /// The telemetry track (`hop` label value) router `node`'s NI
    /// events land on: link tracks occupy `0..link_count`, router
    /// tracks follow.
    #[must_use]
    pub fn router_track(&self, node: usize) -> usize {
        self.links.len() + node
    }

    /// Marks a directed link down (true) or restores it (false).
    /// Routing recomputes live distances on the next decision; packets
    /// already queued for the link are rerouted when next processed.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn set_link_down(&mut self, link: usize, is_down: bool) {
        if self.down[link] != is_down {
            self.down[link] = is_down;
            self.down_count = if is_down {
                self.down_count + 1
            } else {
                self.down_count - 1
            };
            self.dist_dirty = true;
        }
        if !is_down {
            self.consec_poisoned[link] = 0;
        }
    }

    /// Whether a directed link is currently marked down.
    #[must_use]
    pub fn is_link_down(&self, link: usize) -> bool {
        self.down[link]
    }

    /// Links currently marked down.
    #[must_use]
    pub fn links_down(&self) -> usize {
        self.down_count
    }

    /// Mutable access to one link's engine (chaos schedules reach into
    /// its fault injector between cycles).
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn engine_mut(&mut self, link: usize) -> &mut LinkEngine {
        &mut self.engines[link]
    }

    /// Shared access to one link's engine.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[must_use]
    pub fn engine(&self, link: usize) -> &LinkEngine {
        &self.engines[link]
    }

    /// XY dimension-order routing: resolve X toward the destination
    /// column first, then Y. Deterministic and minimal.
    ///
    /// `None` when `at == dst` (no hop is needed) or when either index
    /// is not a node of this mesh.
    #[must_use]
    pub fn xy_next(&self, at: usize, dst: usize) -> Option<Direction> {
        let (&(ax, ay), &(dx, dy)) = (self.coords.get(at)?, self.coords.get(dst)?);
        if ax < dx {
            Some(Direction::East)
        } else if ax > dx {
            Some(Direction::West)
        } else if ay < dy {
            Some(Direction::North)
        } else if ay > dy {
            Some(Direction::South)
        } else {
            None
        }
    }

    /// The routing decision at `at` for a packet addressed to `dst`:
    /// XY on a healthy mesh; with links down, the west-first-preferring
    /// minimal next hop over the live topology.
    ///
    /// `None` when `at == dst` (no hop is needed), when either index is
    /// not a node of this mesh, or when `dst` is unreachable from `at`
    /// over live links.
    pub fn next_hop(&mut self, at: usize, dst: usize) -> Option<Direction> {
        let n = self.nodes();
        // XY answers every query that needs no live-topology search,
        // including each `None` case but unreachability.
        if self.down_count == 0 || at == dst || at >= n || dst >= n {
            return self.xy_next(at, dst);
        }
        self.ensure_dist();
        let base = dst * n;
        let mut best: Option<(u32, Direction)> = None;
        for dir in Direction::west_first_order() {
            let Some(link) = self.out_link[at][dir.index()] else {
                continue;
            };
            if self.down[link] {
                continue;
            }
            let to = self.links[link].1;
            let d = if to == dst { 0 } else { self.dist[base + to] };
            if d == u32::MAX {
                continue;
            }
            // Strict preference order: a later direction must beat the
            // incumbent distance outright to displace it.
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, dir));
            }
        }
        best.map(|(_, dir)| dir)
    }

    /// Rebuilds the per-destination live-topology distance tables (BFS
    /// from each destination over reversed live links).
    fn ensure_dist(&mut self) {
        if !self.dist_dirty {
            return;
        }
        let n = self.nodes();
        for dst in 0..n {
            let table = &mut self.dist[dst * n..(dst + 1) * n];
            table.fill(u32::MAX);
            table[dst] = 0;
            let mut frontier = VecDeque::new();
            frontier.push_back(dst);
            while let Some(v) = frontier.pop_front() {
                let dv = table[v];
                for &(u, link) in &self.in_links[v] {
                    if !self.down[link] && table[u] == u32::MAX {
                        table[u] = dv + 1;
                        frontier.push_back(u);
                    }
                }
            }
        }
        self.dist_dirty = false;
    }

    /// Whether nothing is left in flight: no queued copies, no
    /// outstanding packets, no ACKs on the sideband.
    #[must_use]
    pub fn idle(&self) -> bool {
        self.queues.iter().all(Vec::is_empty)
            && self.outstanding.iter().all(BTreeMap::is_empty)
            && self.acks.is_empty()
    }

    /// Advances the mesh by one cycle: deliver due ACKs, fire e2e
    /// retransmission timers, inject new traffic (when `inject`), and
    /// route every ready packet copy. Returns everything that happened
    /// for external monitors.
    pub fn step(&mut self, inject: bool) -> CycleReport {
        let cycle = self.cycle;
        // A quarter more than last cycle's counts, so an ordinary swing
        // fits without regrowing.
        let [injected, transfers, accepted] = self.report_lens.map(|len| len + len / 4);
        let mut report = CycleReport {
            cycle,
            injected: Vec::with_capacity(injected),
            transfers: Vec::with_capacity(transfers),
            accepted: Vec::with_capacity(accepted),
            ..CycleReport::default()
        };

        // 1. ACKs arriving on the control sideband settle outstanding
        //    packets at their source NI.
        while self.acks.front().is_some_and(|&(ready, _)| ready <= cycle) {
            let (_, key) = self.acks.pop_front().expect("front checked");
            self.outstanding[key.src].remove(&(key.dst, key.seq));
        }

        // 2. End-to-end timers: retransmit with capped exponential
        //    backoff, or flag the loss when the budget is exhausted.
        //    Due packets fire in `(dst, seq)` order per source, and the
        //    pass re-derives each visited source's exact earliest
        //    deadline.
        let e2e = self.cfg.e2e;
        for src in 0..self.nodes() {
            if self.next_due[src] > cycle {
                continue;
            }
            let track = self.router_track(src);
            let mut next_due = u64::MAX;
            self.outstanding[src].retain(|&(dst, seq), o| {
                if o.deadline > cycle {
                    next_due = next_due.min(o.deadline);
                    return true;
                }
                let key = PacketKey { src, dst, seq };
                if o.retries >= e2e.max_retries {
                    self.given_up.push(key);
                    report.gave_up.push(key);
                    if self.tel.is_enabled() {
                        let track = track.to_string();
                        self.tel
                            .event("mesh.give_up", &[("hop", track.as_str())], cycle);
                    }
                    return false;
                }
                o.retries += 1;
                o.deadline = cycle.saturating_add(e2e.retry_timeout(o.retries));
                next_due = next_due.min(o.deadline);
                self.queues[src].push(Copy {
                    key,
                    payload: o.payload,
                    arrival: cycle,
                    born: o.born,
                });
                self.e2e_retransmits += 1;
                true
            });
            self.next_due[src] = next_due;
        }

        // 3. Injection.
        if inject {
            for src in 0..self.nodes() {
                if self.inject_rng[src].gen::<f64>() >= self.cfg.rate {
                    continue;
                }
                let Some(dst) = self.pick_destination(src) else {
                    continue;
                };
                let payload = self.payload_gen[src].next().expect("generator is infinite");
                let flow = src * self.nodes() + dst;
                let seq = self.flows[flow].assign();
                let key = PacketKey { src, dst, seq };
                let deadline = cycle.saturating_add(e2e.timeout);
                self.next_due[src] = self.next_due[src].min(deadline);
                self.outstanding[src].insert(
                    (dst, seq),
                    Outstanding {
                        payload,
                        born: cycle,
                        retries: 0,
                        deadline,
                    },
                );
                self.queues[src].push(Copy {
                    key,
                    payload,
                    arrival: cycle,
                    born: cycle,
                });
                self.injected += 1;
                report.injected.push(key);
            }
        }

        // 4. Routing: process every router's queue in node order; see
        //    [`MeshSim::serve`]. A router's own turn never enqueues at
        //    itself (links join distinct nodes), so its queue is taken
        //    out for the turn and compacted in place: the copies that
        //    must wait keep their FIFO order at the front, and copies
        //    forwarded to it later this cycle are appended behind them.
        for node in 0..self.nodes() {
            let mut queue = std::mem::take(&mut self.queues[node]);
            queue.retain(|copy| self.serve(node, copy, &mut report));
            let depth = queue.len();
            self.queues[node] = queue;
            if self.queue_pressure[node] {
                if depth <= QUEUE_HIGH_CLEAR {
                    self.queue_pressure[node] = false;
                }
            } else if depth >= QUEUE_HIGH_DEPTH {
                self.queue_pressure[node] = true;
                if self.tel.is_enabled() {
                    let track = self.router_track(node).to_string();
                    self.tel
                        .event("mesh.queue_high", &[("hop", track.as_str())], cycle);
                }
            }
        }

        self.report_lens = [
            report.injected.len(),
            report.transfers.len(),
            report.accepted.len(),
        ];
        self.cycle += 1;
        report
    }

    /// Serves one queued copy at router `node`. A ready copy addressed
    /// here goes to the NI; any other ready copy takes its next hop if
    /// that link is free, or is dropped when no live route exists.
    /// Returns `true` when the copy must keep waiting (not yet arrived,
    /// or its link is busy — later copies may still use other outputs:
    /// virtual output queueing).
    fn serve(&mut self, node: usize, copy: &Copy, report: &mut CycleReport) -> bool {
        let cycle = self.cycle;
        if copy.arrival > cycle {
            return true;
        }
        let waited = cycle - copy.arrival;
        if copy.key.dst == node {
            self.accept(copy, waited, report);
            return false;
        }
        let Some(dir) = self.next_hop(node, copy.key.dst) else {
            // No live route: drop; the e2e protocol recovers or
            // flags the packet — never a silent loss.
            self.dropped_no_route += 1;
            return false;
        };
        let link = self.out_link[node][dir.index()].expect("next_hop returns live links");
        if self.busy_until[link] > cycle {
            return true;
        }
        self.max_waited = self.max_waited.max(waited);
        let entered = copy.payload;
        let trace = self.engines[link].transfer_traced(entered, &mut self.reports[link]);
        self.busy_until[link] = cycle + trace.cycles.max(1);
        let poisoned = trace.final_status == DecodeStatus::Detected;
        if poisoned {
            self.consec_poisoned[link] += 1;
            if self
                .cfg
                .auto_down_after
                .is_some_and(|n| self.consec_poisoned[link] >= n)
                && !self.down[link]
            {
                self.set_link_down(link, true);
                report.downed.push(link);
                if self.tel.is_enabled() {
                    let track = link.to_string();
                    self.tel
                        .event("mesh.link_down", &[("hop", track.as_str())], cycle);
                }
            }
            self.dropped_poisoned += 1;
        } else {
            self.consec_poisoned[link] = 0;
        }
        report.transfers.push(TransferRecord {
            link,
            key: copy.key,
            entered,
            exited: trace.delivered,
            trace,
            waited,
            dropped: poisoned,
        });
        if !poisoned {
            let to = self.links[link].1;
            self.queues[to].push(Copy {
                payload: trace.delivered,
                arrival: cycle + trace.cycles.max(1),
                ..*copy
            });
        }
        false
    }

    /// Delivers one copy to the destination NI: duplicate suppression,
    /// the exactly-once ledger, and the ACK back to the source.
    fn accept(&mut self, copy: &Copy, waited: u64, report: &mut CycleReport) {
        let cycle = self.cycle;
        let key = copy.key;
        let flow = key.src * self.nodes() + key.dst;
        self.max_waited = self.max_waited.max(waited);
        let duplicate = !self.flows[flow].accept(key.seq);
        let mut corrupt = false;
        let mut latency = 0;
        if duplicate {
            self.duplicates += 1;
        } else {
            self.delivered += 1;
            latency = cycle - copy.born;
            let slot = latency as usize;
            if slot >= self.latency_counts.len() {
                self.latency_counts.resize(slot + 1, 0);
            }
            self.latency_counts[slot] += 1;
            let stats = &mut self.flows[flow].stats;
            stats.delivered += 1;
            stats.total_latency += latency;
            stats.max_latency = stats.max_latency.max(latency);
            // The injected payload is authoritative at the source; a
            // given-up packet's record is gone, but its copies carry
            // the payload they were born with, so compare against the
            // outstanding record when it still exists.
            if let Some(o) = self.outstanding[key.src].get(&(key.dst, key.seq)) {
                corrupt = o.payload != copy.payload;
            }
            if corrupt {
                self.delivered_corrupt += 1;
            }
            if self.tel.is_enabled() {
                let track = self.router_track(key.dst).to_string();
                self.tel
                    .event("mesh.accept", &[("hop", track.as_str())], cycle);
            }
        }
        // ACK even duplicates: the first ACK may have raced a timeout.
        self.acks
            .push_back((cycle.saturating_add(self.cfg.e2e.ack_latency), key));
        report.accepted.push(AcceptRecord {
            key,
            duplicate,
            corrupt,
            latency,
            waited,
        });
    }

    /// Draws a destination for an injection at `src` per the pattern,
    /// or `None` when the pattern gives this node no traffic.
    fn pick_destination(&mut self, src: usize) -> Option<usize> {
        let n = self.nodes();
        match self.cfg.pattern {
            MeshPattern::Uniform => {
                let d = self.inject_rng[src].gen_range(0..n - 1);
                Some(if d >= src { d + 1 } else { d })
            }
            MeshPattern::Hotspot { node, fraction } => {
                if self.inject_rng[src].gen::<f64>() < fraction && node != src {
                    Some(node)
                } else {
                    let d = self.inject_rng[src].gen_range(0..n - 1);
                    Some(if d >= src { d + 1 } else { d })
                }
            }
            MeshPattern::Transpose => {
                let (x, y) = (src % self.cfg.width, src / self.cfg.width);
                let dst = (y % self.cfg.width) + (x % self.cfg.height) * self.cfg.width;
                (dst != src).then_some(dst)
            }
        }
    }

    /// Finishes the run: flushes telemetry and returns the final
    /// report. The exactly-once ledger is derived from the accepted
    /// sets — every assigned sequence number is either delivered or
    /// flagged lost, so `injected == delivered + flagged_lost` holds by
    /// construction *and* is independently re-derived by the chaos
    /// monitor from the per-cycle event stream.
    #[must_use]
    pub fn finish(mut self) -> MeshReport {
        let n = self.nodes();
        let mut delivered = 0u64;
        let mut flagged_lost = 0u64;
        for flow in &self.flows {
            let accepted = flow.accepted();
            delivered += accepted;
            flagged_lost += flow.next_seq - accepted;
        }
        debug_assert_eq!(delivered, self.delivered, "delivery ledger must agree");
        if self.tel.is_enabled() {
            let pattern = self.cfg.pattern.name();
            let labels = [("pattern", pattern)];
            self.tel.counter("mesh.injected", &labels, self.injected);
            self.tel.counter("mesh.delivered", &labels, delivered);
            self.tel.counter("mesh.flagged_lost", &labels, flagged_lost);
            self.tel
                .counter("mesh.duplicates", &labels, self.duplicates);
            self.tel
                .counter("mesh.e2e_retransmits", &labels, self.e2e_retransmits);
            for engine in &mut self.engines {
                engine.flush_telemetry();
            }
        }
        MeshReport {
            injected: self.injected,
            delivered,
            flagged_lost,
            duplicates: self.duplicates,
            delivered_corrupt: self.delivered_corrupt,
            e2e_retransmits: self.e2e_retransmits,
            dropped_poisoned: self.dropped_poisoned,
            dropped_no_route: self.dropped_no_route,
            cycles: self.cycle,
            max_waited: self.max_waited,
            links_down: self.down_count,
            latency_hist: (0u64..)
                .zip(self.latency_counts)
                .filter(|&(_, count)| count > 0)
                .collect(),
            flows: self
                .flows
                .into_iter()
                .enumerate()
                .filter(|(_, flow)| flow.stats.delivered > 0)
                .map(|(i, flow)| ((i / n, i % n), flow.stats))
                .collect(),
            links: self.reports,
        }
    }
}

/// Runs a mesh for `cycles` injection cycles plus up to `drain_cycles`
/// of drain (no new injections) and returns the final report. The
/// standard entry point for benchmarks; the chaos harness drives
/// [`MeshSim::step`] itself to observe every cycle.
#[must_use]
pub fn simulate_mesh(
    cfg: &MeshConfig,
    cycles: u64,
    drain_cycles: u64,
    sim_seed: u64,
    traffic_seed: u64,
) -> MeshReport {
    let mut sim = MeshSim::new(cfg, sim_seed, traffic_seed);
    for _ in 0..cycles {
        let _ = sim.step(true);
    }
    let mut drained = 0;
    while !sim.idle() && drained < drain_cycles {
        let _ = sim.step(false);
        drained += 1;
    }
    sim.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Protocol;
    use socbus_channel::FaultSpec;
    use socbus_codes::Scheme;

    fn base_cfg() -> MeshConfig {
        MeshConfig::new(3, 3, LinkConfig::new(Scheme::Dap, 16, 0.0)).with_rate(0.15)
    }

    #[test]
    fn link_enumeration_matches_mesh_shape() {
        let sim = MeshSim::new(&base_cfg(), 1, 2);
        // A w×h mesh has 2(w(h-1) + h(w-1)) directed links.
        assert_eq!(sim.link_count(), 2 * (3 * 2 + 3 * 2));
        for l in 0..sim.link_count() {
            let (from, to, dir) = sim.link_endpoints(l);
            let expect = match dir {
                Direction::East => from + 1,
                Direction::West => from - 1,
                Direction::North => from + 3,
                Direction::South => from - 3,
            };
            assert_eq!(to, expect);
        }
    }

    #[test]
    fn fault_free_mesh_delivers_everything_exactly_once() {
        let report = simulate_mesh(&base_cfg(), 400, 5_000, 7, 11);
        assert!(report.injected > 100, "traffic must flow");
        assert_eq!(report.delivered, report.injected);
        assert_eq!(report.flagged_lost, 0);
        assert_eq!(report.delivered_corrupt, 0);
        assert_eq!(report.dropped_poisoned, 0);
        assert_eq!(report.dropped_no_route, 0);
        assert_eq!(
            report.injected,
            report.delivered + report.flagged_lost,
            "the exactly-once ledger"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = base_cfg().with_pattern(MeshPattern::Hotspot {
            node: 4,
            fraction: 0.4,
        });
        let a = simulate_mesh(&cfg, 300, 5_000, 3, 5);
        let b = simulate_mesh(&cfg, 300, 5_000, 3, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn fallback_reduces_to_xy_when_healthy() {
        let mut sim = MeshSim::new(&base_cfg(), 1, 2);
        // Force the distance-table path even with nothing down.
        sim.down_count = 1;
        sim.down_count = 0;
        for at in 0..9 {
            for dst in 0..9 {
                if at == dst {
                    continue;
                }
                let xy = sim.xy_next(at, dst).expect("distinct nodes");
                // With no link down the adaptive rule must agree.
                sim.dist_dirty = true;
                sim.down_count = 1;
                sim.down[0] = false; // no link actually down
                let adaptive = sim.next_hop(at, dst).expect("connected");
                sim.down_count = 0;
                assert_eq!(adaptive, xy, "at {at} -> {dst}");
            }
        }
    }

    #[test]
    fn single_link_failure_reroutes_and_still_delivers() {
        for link in [0, 5, 11, 17] {
            let mut sim = MeshSim::new(&base_cfg(), 7, 11);
            sim.set_link_down(link, true);
            for _ in 0..300 {
                let _ = sim.step(true);
            }
            let mut drained = 0;
            while !sim.idle() && drained < 5_000 {
                let _ = sim.step(false);
                drained += 1;
            }
            let report = sim.finish();
            assert!(report.injected > 50);
            assert_eq!(
                report.flagged_lost, 0,
                "link {link} down must not lose packets"
            );
            assert_eq!(report.delivered, report.injected);
        }
    }

    #[test]
    fn queue_pressure_events_use_hysteresis() {
        use socbus_telemetry::Recorder;
        use std::rc::Rc;
        let recorder = Rc::new(Recorder::new());
        let tel = Telemetry::from_recorder(&recorder);
        let mut sim = MeshSim::new_with_telemetry(&base_cfg().with_rate(0.0), 1, 2, tel);
        // Copies with a far-future arrival are kept in the queue every
        // cycle without being routed, so the depth is fully controlled.
        fn fill(sim: &mut MeshSim, n: usize) {
            for seq in 0..n as u64 {
                sim.queues[0].push(Copy {
                    key: PacketKey {
                        src: 0,
                        dst: 8,
                        seq,
                    },
                    payload: Word::zero(16),
                    arrival: u64::MAX,
                    born: 0,
                });
            }
        }
        fn fired(recorder: &Recorder) -> usize {
            recorder
                .export_jsonl()
                .lines()
                .filter(|l| l.contains("mesh.queue_high"))
                .count()
        }
        fill(&mut sim, QUEUE_HIGH_DEPTH);
        let _ = sim.step(false);
        assert_eq!(fired(&recorder), 1, "crossing the high mark fires once");
        let _ = sim.step(false);
        assert_eq!(fired(&recorder), 1, "staying deep does not re-fire");
        sim.queues[0].truncate(QUEUE_HIGH_CLEAR + 1);
        let _ = sim.step(false);
        assert_eq!(fired(&recorder), 1, "above the clear mark the flag holds");
        sim.queues[0].truncate(QUEUE_HIGH_CLEAR);
        let _ = sim.step(false);
        fill(&mut sim, QUEUE_HIGH_DEPTH);
        let _ = sim.step(false);
        assert_eq!(fired(&recorder), 2, "a fresh episode fires again");
    }

    #[test]
    fn transpose_pattern_routes_to_the_transposed_node() {
        let cfg = base_cfg().with_pattern(MeshPattern::Transpose);
        let report = simulate_mesh(&cfg, 300, 5_000, 9, 13);
        assert!(report.injected > 0);
        for &(src, dst) in report.flows.keys() {
            let (x, y) = (src % 3, src / 3);
            assert_eq!(dst, y + x * 3, "flow {src} -> {dst} is not a transpose");
            assert_ne!(src, dst);
        }
    }

    #[test]
    fn noisy_links_recover_via_e2e_retransmission() {
        // Detect-only scheme, no link retries: poisoned packets are
        // dropped at routers and must be recovered end-to-end.
        let link = LinkConfig::new(Scheme::Parity, 16, 0.0)
            .with_protocol(Protocol::Fec)
            .with_fault(FaultSpec::Iid { eps: 2e-3 });
        let cfg = MeshConfig {
            width: 3,
            height: 3,
            link,
            e2e: EndToEnd::default(),
            pattern: MeshPattern::Uniform,
            rate: 0.1,
            auto_down_after: None,
        };
        let report = simulate_mesh(&cfg, 500, 20_000, 21, 23);
        assert!(report.dropped_poisoned > 0, "the channel must bite");
        assert!(report.e2e_retransmits > 0, "the NI must retransmit");
        assert_eq!(
            report.injected,
            report.delivered + report.flagged_lost,
            "exactly-once ledger under loss"
        );
        assert!(
            report.delivered > report.injected * 9 / 10,
            "most packets must still arrive: {report:?}"
        );
    }

    #[test]
    fn auto_down_retires_a_stuck_link_and_reroutes() {
        // Stuck-at faults on one link under a detecting scheme: the
        // link poisons every word, the health rule retires it, and
        // traffic reroutes around it.
        let link = LinkConfig::new(Scheme::Parity, 16, 0.0).with_protocol(Protocol::Fec);
        let cfg = MeshConfig {
            width: 3,
            height: 3,
            link,
            e2e: EndToEnd::default(),
            pattern: MeshPattern::Uniform,
            rate: 0.2,
            auto_down_after: Some(3),
        };
        let mut sim = MeshSim::new(&cfg, 5, 6);
        // Poison link 0 (node 0 East): parity flags every word whose
        // parity wire sticks wrong half the time; use a stuck data wire
        // so parity sees it every word it flips.
        sim.engine_mut(0).injector_mut().push_spec(
            &FaultSpec::StuckAt {
                wire: 0,
                value: true,
            },
            99,
        );
        for _ in 0..400 {
            let _ = sim.step(true);
        }
        let mut drained = 0;
        while !sim.idle() && drained < 20_000 {
            let _ = sim.step(false);
            drained += 1;
        }
        assert!(sim.is_link_down(0), "the health rule must retire link 0");
        let report = sim.finish();
        assert_eq!(report.links_down, 1);
        assert_eq!(
            report.injected,
            report.delivered + report.flagged_lost,
            "ledger holds through retirement"
        );
        assert_eq!(report.flagged_lost, 0, "rerouting must recover everything");
    }

    #[test]
    fn e2e_backoff_saturates_instead_of_wrapping() {
        let e2e = EndToEnd {
            timeout: u64::MAX - 3,
            backoff_base: u64::MAX / 2,
            backoff_cap: u64::MAX,
            max_retries: u32::MAX,
            ack_latency: 1,
        };
        assert_eq!(e2e.retry_timeout(0), u64::MAX - 3);
        assert_eq!(e2e.retry_timeout(1), u64::MAX);
        assert_eq!(e2e.retry_timeout(200), u64::MAX, "shift overflow saturates");
    }

    #[test]
    fn latency_quantiles_are_monotone() {
        let report = simulate_mesh(&base_cfg(), 400, 5_000, 7, 11);
        let p50 = report.latency_quantile(0.5);
        let p95 = report.latency_quantile(0.95);
        let max = report.max_latency();
        assert!(p50 >= 1, "a hop takes at least a cycle");
        assert!(p50 <= p95 && p95 <= max, "{p50} <= {p95} <= {max}");
    }

    #[test]
    #[should_panic(expected = "at least 2x2")]
    fn one_wide_meshes_are_rejected() {
        let _ = MeshSim::new(
            &MeshConfig::new(1, 5, LinkConfig::new(Scheme::Dap, 16, 0.0)),
            1,
            2,
        );
    }
}

//! The mesh's per-cycle event stream is pinned bit for bit.
//!
//! Every field of every `CycleReport` a run emits — each injection,
//! transfer (with its full `WordTrace`), NI accept, give-up and link
//! retirement, in emission order — and then every field of the final
//! `MeshReport` is folded into one FNV-1a digest per configuration. The
//! digests are constants: a change that reorders timer firings, queue
//! service or NI events, or moves any simulated count, fails here even
//! when every aggregate invariant still holds.

use socbus::channel::FaultSpec;
use socbus::codes::Scheme;
use socbus::model::Word;
use socbus::noc::link::{LinkConfig, LinkReport, Protocol, WordTrace};
use socbus::noc::mesh::{
    CycleReport, EndToEnd, MeshConfig, MeshPattern, MeshReport, MeshSim, PacketKey,
};

/// FNV-1a over little-endian field bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
    }

    fn word(&mut self, w: Word) {
        self.usize(w.width());
        for l in 0..w.width().div_ceil(64) {
            self.u64(w.limb(l));
        }
    }

    fn key(&mut self, k: PacketKey) {
        self.usize(k.src);
        self.usize(k.dst);
        self.u64(k.seq);
    }

    fn trace(&mut self, t: &WordTrace) {
        self.word(t.delivered);
        self.u64(u64::from(t.retries));
        self.u64(u64::from(t.attempts));
        self.u64(t.cycles);
        self.u64(u64::from(t.corrupt_attempts));
        self.u64(u64::from(t.max_error_weight));
        self.str(&format!("{:?}", t.final_status));
        self.usize(t.detectable_errors);
        self.usize(t.correctable_errors);
        self.str(&format!("{:?}", t.transition));
    }

    fn cycle(&mut self, r: &CycleReport) {
        self.u64(r.cycle);
        self.usize(r.injected.len());
        for &k in &r.injected {
            self.key(k);
        }
        self.usize(r.transfers.len());
        for t in &r.transfers {
            self.usize(t.link);
            self.key(t.key);
            self.word(t.entered);
            self.word(t.exited);
            self.trace(&t.trace);
            self.u64(t.waited);
            self.u64(u64::from(t.dropped));
        }
        self.usize(r.accepted.len());
        for a in &r.accepted {
            self.key(a.key);
            self.u64(u64::from(a.duplicate));
            self.u64(u64::from(a.corrupt));
            self.u64(a.latency);
            self.u64(a.waited);
        }
        self.usize(r.gave_up.len());
        for &k in &r.gave_up {
            self.key(k);
        }
        self.usize(r.downed.len());
        for &l in &r.downed {
            self.usize(l);
        }
    }

    fn link(&mut self, r: &LinkReport) {
        for v in [
            r.offered,
            r.delivered,
            r.residual_errors,
            r.detected_residuals,
            r.cycles,
            r.retransmits,
            r.corrected,
            r.detected,
            r.ledger.clean,
            r.ledger.corrected_masked,
            r.ledger.retry_masked,
            r.ledger.residual,
        ] {
            self.u64(v);
        }
        self.str(&format!("{:?}", r.transitions));
        self.str(&format!("{:?}", r.control));
        self.f64(r.energy.self_coeff);
        self.f64(r.energy.coupling_coeff);
    }

    fn report(&mut self, r: &MeshReport) {
        for v in [
            r.injected,
            r.delivered,
            r.flagged_lost,
            r.duplicates,
            r.delivered_corrupt,
            r.e2e_retransmits,
            r.dropped_poisoned,
            r.dropped_no_route,
            r.cycles,
            r.max_waited,
        ] {
            self.u64(v);
        }
        self.usize(r.links_down);
        self.usize(r.latency_hist.len());
        for (&latency, &n) in &r.latency_hist {
            self.u64(latency);
            self.u64(n);
        }
        self.usize(r.flows.len());
        for (&(src, dst), s) in &r.flows {
            self.usize(src);
            self.usize(dst);
            self.u64(s.delivered);
            self.u64(s.total_latency);
            self.u64(s.max_latency);
        }
        self.usize(r.links.len());
        for link in &r.links {
            self.link(link);
        }
    }
}

/// What a run's stream contained, beyond its digest.
#[derive(Default)]
struct Seen {
    gave_up: usize,
    downed: usize,
}

/// Steps `sim` for `cycles` injection cycles plus a drain to idle,
/// calling `hook` before every step, and digests the whole stream.
fn run(
    mut sim: MeshSim,
    cycles: u64,
    mut hook: impl FnMut(&mut MeshSim, u64),
) -> (u64, MeshReport, Seen) {
    const DRAIN_LIMIT: u64 = 20_000;
    let mut h = Fnv::new();
    let mut seen = Seen::default();
    let mut cycle = 0;
    while cycle < cycles || (!sim.idle() && cycle < cycles + DRAIN_LIMIT) {
        hook(&mut sim, cycle);
        let r = sim.step(cycle < cycles);
        h.cycle(&r);
        seen.gave_up += r.gave_up.len();
        seen.downed += r.downed.len();
        cycle += 1;
    }
    assert!(sim.idle(), "the mesh must drain");
    let report = sim.finish();
    h.report(&report);
    (h.0, report, seen)
}

fn arq() -> Protocol {
    Protocol::ArqBackoff {
        timeout_cycles: 3,
        backoff_base: 1,
        backoff_cap: 8,
        max_retries: 3,
    }
}

/// Asserts the digest, naming the configuration and the value found so
/// a deliberate behaviour change can re-pin it.
fn check(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: stream digest {got:#018x} != pinned {want:#018x}"
    );
}

#[test]
fn uniform_stream_is_pinned() {
    // A non-square mesh, so a swapped coordinate shows.
    let link = LinkConfig::new(Scheme::Hamming, 16, 1e-3).with_protocol(arq());
    let cfg = MeshConfig::new(5, 3, link).with_rate(0.3);
    let (digest, report, _) = run(MeshSim::new(&cfg, 11, 12), 300, |_, _| {});
    assert!(report.injected > 300);
    check("uniform", digest, 0xf171_8b21_2f92_e16f);
}

#[test]
fn hotspot_stream_is_pinned() {
    let link = LinkConfig::new(Scheme::Dap, 16, 1e-3);
    let cfg = MeshConfig::new(4, 4, link)
        .with_rate(0.25)
        .with_pattern(MeshPattern::Hotspot {
            node: 5,
            fraction: 0.5,
        });
    let (digest, report, _) = run(MeshSim::new(&cfg, 21, 22), 300, |_, _| {});
    assert!(report.max_waited > 0, "the hotspot must queue");
    check("hotspot", digest, 0x484b_da2e_4721_0c85);
}

#[test]
fn transpose_stream_is_pinned() {
    let link = LinkConfig::new(Scheme::FtcHc, 16, 1e-3).with_protocol(arq());
    let cfg = MeshConfig::new(4, 4, link)
        .with_rate(0.4)
        .with_pattern(MeshPattern::Transpose);
    let (digest, report, _) = run(MeshSim::new(&cfg, 31, 32), 300, |_, _| {});
    assert!(report.injected > 300);
    check("transpose", digest, 0xbbb0_9d79_5114_73bd);
}

#[test]
fn noisy_arq_stream_is_pinned() {
    // A detect-only code at ε = 1e-2 with one link retry poisons words
    // often enough that routers drop them; the tight end-to-end timer
    // then retransmits, duplicates arrive, and the budget runs out.
    let link = LinkConfig::new(Scheme::Parity, 16, 1e-2).with_protocol(Protocol::ArqBackoff {
        timeout_cycles: 2,
        backoff_base: 1,
        backoff_cap: 4,
        max_retries: 1,
    });
    let e2e = EndToEnd {
        timeout: 10,
        backoff_base: 2,
        backoff_cap: 8,
        max_retries: 2,
        ack_latency: 6,
    };
    let cfg = MeshConfig::new(4, 4, link).with_rate(0.2).with_e2e(e2e);
    let (digest, report, seen) = run(MeshSim::new(&cfg, 41, 42), 300, |_, _| {});
    assert!(report.dropped_poisoned > 0, "the channel must poison words");
    assert!(report.e2e_retransmits > 0, "the NI must retransmit");
    assert!(report.duplicates > 0, "duplicates must arrive");
    assert!(seen.gave_up > 0, "some packet must exhaust its budget");
    check("noisy_arq", digest, 0x4455_ada1_d125_3c7d);
}

#[test]
fn link_down_and_restore_stream_is_pinned() {
    // Two central links fail mid-run and come back: fallback routing and
    // the distance-table rebuild both run, then XY resumes.
    let link = LinkConfig::new(Scheme::Hamming, 16, 1e-3);
    let cfg = MeshConfig::new(4, 4, link).with_rate(0.3);
    let (digest, report, _) = run(MeshSim::new(&cfg, 51, 52), 300, |sim, cycle| {
        let (a, b) = (13, 20);
        match cycle {
            80 => sim.set_link_down(a, true),
            120 => sim.set_link_down(b, true),
            200 => sim.set_link_down(a, false),
            240 => sim.set_link_down(b, false),
            _ => {}
        }
    });
    assert_eq!(report.links_down, 0, "both links are restored");
    check("link_down_restore", digest, 0xc76f_97f7_6422_094a);
}

#[test]
fn auto_down_stream_is_pinned() {
    // A stuck wire under a detecting code poisons every word on link 0
    // until the health rule retires it.
    let link = LinkConfig::new(Scheme::Parity, 16, 0.0).with_protocol(Protocol::Fec);
    let cfg = MeshConfig::new(4, 4, link).with_rate(0.3).with_auto_down(3);
    let mut sim = MeshSim::new(&cfg, 61, 62);
    sim.engine_mut(0).injector_mut().push_spec(
        &FaultSpec::StuckAt {
            wire: 0,
            value: true,
        },
        99,
    );
    let (digest, report, seen) = run(sim, 300, |_, _| {});
    assert_eq!(seen.downed, 1, "the health rule retires link 0");
    assert_eq!(report.links_down, 1);
    check("auto_down", digest, 0xfe3d_e595_08d7_67c2);
}

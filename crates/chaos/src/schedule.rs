//! Fault schedules: timed activation scripts for chaos runs.
//!
//! A [`FaultSchedule`] is a sorted list of [`ScheduleEvent`]s — "at word
//! `w`, switch this fault process on / off / force a degradation rung".
//! Schedules are plain data: the runner interprets them against a live
//! [`socbus_noc::PathSim`], and the shrinker manipulates them as lists
//! (dropping events must always yield another valid schedule, which is
//! why deactivating an unknown id is defined as a no-op).
//!
//! [`FaultSchedule::random`] draws a schedule from one of four seeded
//! families — burst trains, droop storms, hard-fault windows, and a
//! mixed-mayhem blend — covering every [`FaultSpec`] variant plus
//! mid-flight degradation triggers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socbus_channel::{BridgeMode, FaultSpec};

/// One action in a fault schedule.
#[derive(Clone, Debug, PartialEq)]
pub enum ScheduleAction {
    /// Pushes `spec` onto hop `hop`'s injector under the handle `id`.
    ///
    /// For [`FaultSpec::Droop`] the spec's `start` is interpreted
    /// *relative to the activation moment*: the runner rewrites it to the
    /// hop's event clock at activation time, so a droop window scheduled
    /// "20 cycles after activation" survives schedule shrinking intact.
    Activate {
        /// Handle later `Deactivate` events refer to. Re-activating a
        /// live id rebinds the handle to the new slot (the old process
        /// keeps running until deactivated by some other means — ids are
        /// names, not resources).
        id: u32,
        /// Hop whose injector receives the process.
        hop: usize,
        /// The fault process to activate.
        spec: FaultSpec,
    },
    /// Disables the process previously activated under `id`. Unknown or
    /// already-deactivated ids are a no-op, so a shrunk schedule that
    /// lost the matching `Activate` stays runnable.
    Deactivate {
        /// Handle of the activation to switch off.
        id: u32,
    },
    /// Forces the next degradation-ladder rung on hop `hop` (no-op when
    /// the hop has no policy or the ladder is exhausted).
    ForceDegrade {
        /// Hop to degrade.
        hop: usize,
    },
}

/// One timed action: fires just before word `at_word` (0-based) is sent.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleEvent {
    /// Word index before which the action fires; events beyond the run
    /// length never fire.
    pub at_word: u64,
    /// The action.
    pub action: ScheduleAction,
}

/// A whole fault schedule, kept sorted by `at_word` (stable, so events
/// sharing a word fire in insertion order).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSchedule {
    /// The events, in firing order.
    pub events: Vec<ScheduleEvent>,
}

/// The shape of a random schedule draw.
#[derive(Clone, Copy, Debug)]
pub struct ScheduleParams {
    /// Run length the schedule is drawn for (events land in `0..words`).
    pub words: u64,
    /// Hops available for targeting.
    pub hops: usize,
    /// Wire count of the coded bus (bounds hard-fault wire indices).
    pub wires: usize,
}

/// The four families of randomized schedules the soak campaign draws
/// from. Each stresses a different failure signature.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleFamily {
    /// Trains of Gilbert–Elliott burst windows marching across hops.
    BurstTrain,
    /// Overlapping supply-droop windows (ε multiplied 30–300×).
    DroopStorm,
    /// Stuck-at and bridging defects that appear and heal.
    HardWindow,
    /// Everything at once, plus forced mid-flight degradation.
    MixedMayhem,
}

impl ScheduleFamily {
    /// All families, in campaign order.
    #[must_use]
    pub fn all() -> [ScheduleFamily; 4] {
        [
            ScheduleFamily::BurstTrain,
            ScheduleFamily::DroopStorm,
            ScheduleFamily::HardWindow,
            ScheduleFamily::MixedMayhem,
        ]
    }

    /// Stable name (used in reports and repro files).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ScheduleFamily::BurstTrain => "burst_train",
            ScheduleFamily::DroopStorm => "droop_storm",
            ScheduleFamily::HardWindow => "hard_window",
            ScheduleFamily::MixedMayhem => "mixed_mayhem",
        }
    }

    /// Inverse of [`ScheduleFamily::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<ScheduleFamily> {
        ScheduleFamily::all().into_iter().find(|f| f.name() == name)
    }
}

impl FaultSchedule {
    /// Draws a seeded random schedule from `family`. The same
    /// `(family, params, seed)` triple always yields the same schedule;
    /// a path with no hops has nothing to target and gets no events.
    #[must_use]
    pub fn random(family: ScheduleFamily, params: &ScheduleParams, seed: u64) -> FaultSchedule {
        if params.hops == 0 {
            return FaultSchedule::default();
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        let mut next_id = 0u32;
        let mut push = |rng: &mut StdRng, kind, max_n| {
            for w in FaultWindow::draw(rng, kind, max_n, params.words, params.hops, params.wires) {
                let (id, hop, spec) = (next_id, w.target, w.spec);
                next_id += 1;
                events.push(ScheduleEvent {
                    at_word: w.at,
                    action: ScheduleAction::Activate { id, hop, spec },
                });
                events.push(ScheduleEvent {
                    at_word: w.at + w.len,
                    action: ScheduleAction::Deactivate { id },
                });
            }
        };
        match family {
            ScheduleFamily::BurstTrain => push(&mut rng, WindowKind::Burst, 4),
            ScheduleFamily::DroopStorm => push(&mut rng, WindowKind::Droop, 4),
            ScheduleFamily::HardWindow => push(&mut rng, WindowKind::Hard, 3),
            ScheduleFamily::MixedMayhem => {
                push(&mut rng, WindowKind::Burst, 2);
                push(&mut rng, WindowKind::Droop, 2);
                push(&mut rng, WindowKind::Hard, 2);
                let degrades = rng.gen_range(1usize..=2);
                for _ in 0..degrades {
                    events.push(ScheduleEvent {
                        at_word: rng.gen_range(0..params.words.max(1)),
                        action: ScheduleAction::ForceDegrade {
                            hop: rng.gen_range(0..params.hops),
                        },
                    });
                }
            }
        }
        let mut schedule = FaultSchedule { events };
        schedule.sort();
        schedule
    }

    /// Restores firing order after editing the event list (stable by
    /// `at_word`).
    pub fn sort(&mut self) {
        self.events.sort_by_key(|e| e.at_word);
    }
}

/// A window `[at, at + len)` inside a run of `length` words or cycles,
/// with room left so the aftermath of a deactivation is still observed.
pub(crate) fn window(length: u64, rng: &mut StdRng) -> (u64, u64) {
    let length = length.max(4);
    let at = rng.gen_range(0..length * 3 / 4);
    let len = rng.gen_range(length / 20 + 1..=length / 4 + 1);
    (at, len)
}

/// The three fault-window families both harnesses draw.
#[derive(Clone, Copy, Debug)]
pub(crate) enum WindowKind {
    /// A Gilbert–Elliott burst process.
    Burst,
    /// A supply-droop window (ε multiplied 30–300×).
    Droop,
    /// A stuck-at or bridging defect.
    Hard,
}

/// One randomly drawn fault window: `spec` activated on hop or link
/// `target` at step `at` and deactivated `len` steps later.
pub(crate) struct FaultWindow {
    pub(crate) at: u64,
    pub(crate) len: u64,
    pub(crate) target: usize,
    pub(crate) spec: FaultSpec,
}

impl FaultWindow {
    /// Draws `1..=max_n` windows of `kind` (each a [`window`]) over a run
    /// of `length` words or cycles, on `targets` hops or links of a
    /// `wires`-wide bus, lazily: the caller consumes each window before
    /// the next is drawn. The draw order is part of every schedule's
    /// definition: a seed fixes the schedule.
    pub(crate) fn draw(
        rng: &mut StdRng,
        kind: WindowKind,
        max_n: usize,
        length: u64,
        targets: usize,
        wires: usize,
    ) -> impl Iterator<Item = FaultWindow> + '_ {
        let n = rng.gen_range(1..=max_n);
        (0..n).map(move |_| {
            let (at, len) = window(length, rng);
            let (target, spec) = match kind {
                WindowKind::Burst => (
                    rng.gen_range(0..targets),
                    FaultSpec::Burst {
                        eps_good: rng.gen_range(0.0..2e-3),
                        eps_bad: rng.gen_range(0.02..0.3),
                        p_enter: rng.gen_range(0.01..0.2),
                        p_exit: rng.gen_range(0.05..0.5),
                    },
                ),
                WindowKind::Droop => (
                    rng.gen_range(0..targets),
                    FaultSpec::Droop {
                        eps: rng.gen_range(1e-4..2e-3),
                        scale: rng.gen_range(30.0..300.0),
                        // Relative to activation (see ScheduleAction
                        // docs); retransmissions inside the window
                        // also burn cycles.
                        start: rng.gen_range(0..8u64),
                        duration: rng.gen_range(20..200u64),
                    },
                ),
                WindowKind::Hard => {
                    let spec = if rng.gen_bool(0.5) {
                        FaultSpec::StuckAt {
                            wire: rng.gen_range(0..wires),
                            value: rng.gen_bool(0.5),
                        }
                    } else {
                        FaultSpec::Bridge {
                            // A bridge shorts `wire` and `wire + 1`.
                            wire: rng.gen_range(0..wires.saturating_sub(1).max(1)),
                            mode: if rng.gen_bool(0.5) {
                                BridgeMode::And
                            } else {
                                BridgeMode::Or
                            },
                        }
                    };
                    (rng.gen_range(0..targets), spec)
                }
            };
            FaultWindow {
                at,
                len,
                target,
                spec,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ScheduleParams {
        ScheduleParams {
            words: 2_000,
            hops: 3,
            wires: 21,
        }
    }

    #[test]
    fn random_schedules_are_deterministic_per_seed() {
        for family in ScheduleFamily::all() {
            let a = FaultSchedule::random(family, &params(), 42);
            let b = FaultSchedule::random(family, &params(), 42);
            assert_eq!(a, b, "{family:?} must be reproducible");
            let c = FaultSchedule::random(family, &params(), 43);
            assert_ne!(a, c, "{family:?} must vary with the seed");
        }
    }

    #[test]
    fn schedules_are_sorted_and_in_range() {
        for family in ScheduleFamily::all() {
            for seed in 0..20 {
                let s = FaultSchedule::random(family, &params(), seed);
                assert!(!s.events.is_empty());
                for pair in s.events.windows(2) {
                    assert!(pair[0].at_word <= pair[1].at_word);
                }
                for e in &s.events {
                    match &e.action {
                        ScheduleAction::Activate { hop, spec, .. } => {
                            assert!(*hop < params().hops);
                            if let FaultSpec::StuckAt { wire, .. } = spec {
                                assert!(*wire < params().wires);
                            }
                        }
                        ScheduleAction::ForceDegrade { hop } => assert!(*hop < params().hops),
                        ScheduleAction::Deactivate { .. } => {}
                    }
                }
            }
        }
    }

    #[test]
    fn family_names_round_trip() {
        for family in ScheduleFamily::all() {
            assert_eq!(ScheduleFamily::from_name(family.name()), Some(family));
        }
        assert_eq!(ScheduleFamily::from_name("nope"), None);
    }

    #[test]
    fn mixed_mayhem_includes_degradation_triggers() {
        let mut saw_force = false;
        for seed in 0..10 {
            let s = FaultSchedule::random(ScheduleFamily::MixedMayhem, &params(), seed);
            saw_force |= s
                .events
                .iter()
                .any(|e| matches!(e.action, ScheduleAction::ForceDegrade { .. }));
        }
        assert!(saw_force, "mixed mayhem must exercise force-degrade");
    }
}

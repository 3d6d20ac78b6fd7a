//! The path harness and its reproducer file format,
//! `socbus-chaos-repro v1`, plus the value grammar both repro formats
//! share (`protocol`, `spec=`, `key=value` tokens and field checks).
//!
//! A repro file is a line-based, human-readable, fully self-contained
//! description of one chaos case plus the violation it is expected to
//! produce. The format round-trips *byte-identically*:
//! `serialize(parse(text)) == text` for every file the harness writes —
//! floats are rendered with Rust's shortest-roundtrip `{:?}` formatting,
//! so re-serialization is canonical and replays are reproducible across
//! runs and machines. [`crate::harness::Repro`] writes and parses the
//! skeleton (header, shared keys, `expect`); the [`Harness`] impl for
//! [`CaseConfig`] here writes and parses the path's own lines.
//!
//! ```text
//! socbus-chaos-repro v1
//! name Sabotaged/mixed_mayhem
//! scheme Sabotaged
//! data_bits 16
//! hops 2
//! eps 0.0
//! protocol detect-retransmit rtt=3 max_retries=3
//! degradation window=200 trigger=0.2
//! rung raise-swing factor=1.3
//! rung switch-scheme ExtHamming
//! promote quiet_windows=3 trigger=0.02
//! words 9
//! traffic_seed 1
//! sim_seed 2
//! event at=0 activate id=900 hop=0 spec=iid eps=0.005
//! event at=4 deactivate id=900
//! event at=5 force-degrade hop=1
//! expect invariant=silent-corruption hop=0 word=8
//! ```
//!
//! The mesh campaign writes a sibling format with the header
//! `socbus-mesh-repro v1` (see [`crate::mesh::MeshRepro`]): same
//! line-based canonical discipline and the same `spec=` / `protocol`
//! grammars, but with mesh geometry, an `e2e` line, link-indexed
//! events (`link-down link=N`, `link-up link=N`), and mesh invariant
//! names in the `expect` line. `chaos replay` dispatches on the header
//! line ([`crate::harness::AnyRepro`]), so both kinds of file replay
//! through the same subcommand.

use std::fmt::Write as _;

use socbus_channel::{BridgeMode, FaultSpec};
use socbus_codes::Scheme;
use socbus_noc::link::{DegradationAction, DegradationPolicy, PromotePolicy, Protocol};
use socbus_noc::{ControlPolicy, OperatingPoint};
use socbus_telemetry::{ScopeReport, Telemetry};

use crate::harness::{need, write_head, write_link, write_seeds, Harness, Shared};
use crate::monitor::{InvariantKind, InvariantStats, Violation};
use crate::runner::{run_case_with, CaseConfig, CaseOutcome};
use crate::schedule::{FaultSchedule, ScheduleAction, ScheduleEvent};

/// The path-only keys of a `socbus-chaos-repro v1` file being parsed.
#[derive(Default)]
pub struct PathDraft {
    hops: Option<usize>,
    degradation: Option<DegradationPolicy>,
    controller: Option<ControlPolicy>,
    words: Option<u64>,
    events: Vec<ScheduleEvent>,
}

impl Harness for CaseConfig {
    type Invariant = InvariantKind;
    type Outcome = CaseOutcome;
    type Draft = PathDraft;
    const HEADER: &'static str = "socbus-chaos-repro v1";
    const SITE: &'static str = "hop";
    const TIME: &'static str = "word";
    const HEALTH: bool = false;

    fn name(&self) -> &str {
        &self.name
    }

    fn run(&self, tel: Telemetry) -> CaseOutcome {
        run_case_with(self, tel)
    }

    fn shrink(
        &self,
        key: (InvariantKind, Option<usize>),
        budget: usize,
    ) -> Option<(Self, Violation)> {
        crate::shrink::shrink(self, key, budget)
    }

    fn violations(out: &CaseOutcome) -> &[Violation] {
        &out.violations
    }

    fn stats(out: &CaseOutcome) -> &[(InvariantKind, InvariantStats)] {
        &out.stats
    }

    fn summary(name: &str, out: &CaseOutcome, _: Option<&ScopeReport>) -> String {
        let control: usize = out.report.per_hop.iter().map(|h| h.control.len()).sum();
        format!(
            "{name:<30} latency {:>3}/{:<3}  e2e {:>4}  control {:>3}  violations {}",
            out.worst_word_cycles,
            out.budget_cycles,
            out.report.end_to_end_errors,
            control,
            out.violations.len()
        )
    }

    fn json_row(out: &CaseOutcome, json: &mut String) {
        let per_hop = &out.report.per_hop;
        let retransmits: u64 = per_hop.iter().map(|h| h.retransmits).sum();
        let transitions: usize = per_hop.iter().map(|h| h.transitions.len()).sum();
        let control: usize = per_hop.iter().map(|h| h.control.len()).sum();
        let _ = write!(
            json,
            "\"worst_word_cycles\": {}, \"budget_cycles\": {}, \"e2e_errors\": {}, \
             \"retransmits\": {retransmits}, \"transitions\": {transitions}, \
             \"control_transitions\": {control}, \"cycles_per_word\": {}",
            out.worst_word_cycles,
            out.budget_cycles,
            out.report.end_to_end_errors,
            crate::ctx::num(out.report.cycles_per_word())
        );
    }

    fn write_fields(&self, out: &mut String) {
        write_head(out, &self.name, self.scheme, self.data_bits);
        let _ = writeln!(out, "hops {}", self.hops);
        write_link(out, self.eps, self.protocol);
        if let Some(policy) = &self.degradation {
            let _ = writeln!(
                out,
                "degradation window={} trigger={:?}",
                policy.window, policy.trigger
            );
            for rung in &policy.ladder {
                let _ = match rung {
                    DegradationAction::RaiseSwing { factor } => {
                        writeln!(out, "rung raise-swing factor={factor:?}")
                    }
                    DegradationAction::SwitchScheme(scheme) => {
                        writeln!(out, "rung switch-scheme {}", scheme.name())
                    }
                };
            }
            if let Some(promote) = policy.promote {
                let _ = writeln!(
                    out,
                    "promote quiet_windows={} trigger={:?}",
                    promote.quiet_windows, promote.trigger
                );
            }
        }
        if let Some(policy) = &self.controller {
            let _ = writeln!(
                out,
                "controller target={:?} window={} dwell={} lower={:?} raise={:?} storm={:?}",
                policy.target_wer,
                policy.window,
                policy.dwell,
                policy.lower_trouble,
                policy.raise_trouble,
                policy.storm_trouble
            );
            for p in &policy.points {
                let _ = writeln!(out, "point swing={:?} scheme={}", p.swing, p.scheme.name());
            }
        }
        let _ = writeln!(out, "words {}", self.words);
        write_seeds(out, self.traffic_seed, self.sim_seed);
        for e in &self.schedule.events {
            let _ = match &e.action {
                ScheduleAction::Activate { id, hop, spec } => {
                    let spec = spec_str(spec);
                    writeln!(
                        out,
                        "event at={} activate id={id} hop={hop} spec={spec}",
                        e.at_word
                    )
                }
                ScheduleAction::Deactivate { id } => {
                    writeln!(out, "event at={} deactivate id={id}", e.at_word)
                }
                ScheduleAction::ForceDegrade { hop } => {
                    writeln!(out, "event at={} force-degrade hop={hop}", e.at_word)
                }
            };
        }
    }

    fn parse_field(draft: &mut PathDraft, key: &str, rest: &str) -> Result<(), String> {
        let mut toks = rest.split_whitespace();
        match key {
            "hops" => draft.hops = Some(parse_num(rest)?),
            "degradation" => {
                draft.degradation = Some(DegradationPolicy {
                    window: kv(toks.next(), "window").and_then(parse_num)?,
                    trigger: kv(toks.next(), "trigger").and_then(parse_f64)?,
                    ladder: Vec::new(),
                    promote: None,
                });
            }
            "rung" => {
                let policy = draft
                    .degradation
                    .as_mut()
                    .ok_or("rung before degradation")?;
                policy.ladder.push(parse_rung(rest)?);
            }
            "promote" => {
                let policy = draft
                    .degradation
                    .as_mut()
                    .ok_or("promote before degradation")?;
                policy.promote = Some(PromotePolicy {
                    quiet_windows: kv(toks.next(), "quiet_windows").and_then(parse_num)?,
                    trigger: kv(toks.next(), "trigger").and_then(parse_f64)?,
                });
            }
            "controller" => {
                draft.controller = Some(ControlPolicy {
                    points: Vec::new(),
                    target_wer: kv(toks.next(), "target").and_then(parse_f64)?,
                    window: kv(toks.next(), "window").and_then(parse_num)?,
                    dwell: kv(toks.next(), "dwell").and_then(parse_num)?,
                    lower_trouble: kv(toks.next(), "lower").and_then(parse_f64)?,
                    raise_trouble: kv(toks.next(), "raise").and_then(parse_f64)?,
                    storm_trouble: kv(toks.next(), "storm").and_then(parse_f64)?,
                });
            }
            "point" => {
                let policy = draft.controller.as_mut().ok_or("point before controller")?;
                let swing = kv(toks.next(), "swing").and_then(parse_f64)?;
                let name = kv(toks.next(), "scheme")?;
                let scheme =
                    Scheme::from_name(&name).ok_or_else(|| format!("unknown scheme {name:?}"))?;
                policy.points.push(OperatingPoint { swing, scheme });
            }
            "words" => draft.words = Some(parse_num(rest)?),
            "event" => draft.events.push(parse_event(rest)?),
            other => return Err(format!("unknown key {other:?}")),
        }
        Ok(())
    }

    fn assemble(shared: Shared, draft: PathDraft) -> Result<Self, String> {
        Ok(CaseConfig {
            name: need(shared.name, "name")?,
            scheme: need(shared.scheme, "scheme")?,
            data_bits: need(shared.data_bits, "data_bits")?,
            hops: need(draft.hops, "hops")?,
            eps: need(shared.eps, "eps")?,
            protocol: need(shared.protocol, "protocol")?,
            degradation: draft.degradation,
            controller: draft.controller,
            words: need(draft.words, "words")?,
            traffic_seed: need(shared.traffic_seed, "traffic_seed")?,
            sim_seed: need(shared.sim_seed, "sim_seed")?,
            schedule: FaultSchedule {
                events: draft.events,
            },
        })
    }

    /// Rejects a parsed case the simulator would assert on: a data width
    /// outside the traffic generator's 1..=128, no hops (or more than
    /// `MAX_HOPS`), a probability that is not one, an event naming a hop
    /// the path lacks, or a controller policy that fails
    /// [`ControlPolicy::validate`].
    fn check(&self) -> Result<(), String> {
        check_data_bits(self.data_bits)?;
        if !(1..=MAX_HOPS).contains(&self.hops) {
            return Err(format!("hops {} is outside 1..={MAX_HOPS}", self.hops));
        }
        check_prob("eps", self.eps)?;
        if let Some(policy) = &self.controller {
            policy
                .validate(self.data_bits)
                .map_err(|e| format!("controller: {e}"))?;
        }
        for e in &self.schedule.events {
            let hop = match &e.action {
                ScheduleAction::Activate { hop, spec, .. } => {
                    check_spec(spec)?;
                    *hop
                }
                ScheduleAction::ForceDegrade { hop } => *hop,
                ScheduleAction::Deactivate { .. } => continue,
            };
            if hop >= self.hops {
                return Err(format!(
                    "event at={} names hop {hop} of a {}-hop path",
                    e.at_word, self.hops
                ));
            }
        }
        Ok(())
    }
}

/// The most hops a repro file may ask for: far past any path the
/// campaigns run, small enough that building the path allocates little.
const MAX_HOPS: usize = 1 << 10;

/// Rejects a data width outside the traffic generator's 1..=128.
pub(crate) fn check_data_bits(data_bits: usize) -> Result<(), String> {
    if (1..=128).contains(&data_bits) {
        Ok(())
    } else {
        Err(format!("data_bits {data_bits} is outside 1..=128"))
    }
}

/// Rejects `p` unless it is a finite probability in `[0, 1]`.
pub(crate) fn check_prob(what: &str, p: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(format!("{what} {p:?} is not a probability in [0, 1]"))
    }
}

/// Rejects a fault spec the injector would panic on: a probability out
/// of range (for a droop, both `eps` and `eps * scale`), or a bridge with
/// no wire after it.
pub(crate) fn check_spec(spec: &FaultSpec) -> Result<(), String> {
    match *spec {
        FaultSpec::Iid { eps } => check_prob("eps", eps),
        FaultSpec::Burst {
            eps_good,
            eps_bad,
            p_enter,
            p_exit,
        } => {
            check_prob("eps_good", eps_good)?;
            check_prob("eps_bad", eps_bad)?;
            check_prob("p_enter", p_enter)?;
            check_prob("p_exit", p_exit)
        }
        // The bridge shorts `wire` with `wire + 1`, which must exist.
        FaultSpec::Bridge { wire, .. } if wire == usize::MAX => {
            Err(format!("bridge wire {wire} has no neighbour"))
        }
        FaultSpec::StuckAt { .. } | FaultSpec::Bridge { .. } => Ok(()),
        FaultSpec::Droop { eps, scale, .. } => {
            check_prob("eps", eps)?;
            if scale >= 0.0 {
                check_prob("eps * scale", eps * scale)
            } else {
                Err(format!(
                    "droop scale {scale:?} is not a non-negative number"
                ))
            }
        }
    }
}

pub(crate) fn spec_str(spec: &FaultSpec) -> String {
    match *spec {
        FaultSpec::Iid { eps } => format!("iid eps={eps:?}"),
        FaultSpec::Burst {
            eps_good,
            eps_bad,
            p_enter,
            p_exit,
        } => format!(
            "burst eps_good={eps_good:?} eps_bad={eps_bad:?} p_enter={p_enter:?} p_exit={p_exit:?}"
        ),
        FaultSpec::StuckAt { wire, value } => {
            format!("stuck-at wire={wire} value={}", u8::from(value))
        }
        FaultSpec::Bridge { wire, mode } => format!(
            "bridge wire={wire} mode={}",
            match mode {
                BridgeMode::And => "and",
                BridgeMode::Or => "or",
            }
        ),
        FaultSpec::Droop {
            eps,
            scale,
            start,
            duration,
        } => format!("droop eps={eps:?} scale={scale:?} start={start} duration={duration}"),
    }
}

/// Extracts the value of a `key=value` token, checking the key.
pub(crate) fn kv(tok: Option<&str>, key: &str) -> Result<String, String> {
    let tok = tok.ok_or_else(|| format!("missing {key}=..."))?;
    let (k, v) = tok
        .split_once('=')
        .ok_or_else(|| format!("expected {key}=..., got {tok:?}"))?;
    if k != key {
        return Err(format!("expected key {key:?}, got {k:?}"));
    }
    Ok(v.to_owned())
}

pub(crate) fn parse_num<T: std::str::FromStr>(s: impl AsRef<str>) -> Result<T, String> {
    let s = s.as_ref();
    s.parse().map_err(|_| format!("bad integer {s:?}"))
}

pub(crate) fn parse_f64(s: impl AsRef<str>) -> Result<f64, String> {
    let s = s.as_ref();
    s.parse().map_err(|_| format!("bad float {s:?}"))
}

pub(crate) fn parse_protocol(rest: &str) -> Result<Protocol, String> {
    let mut toks = rest.split_whitespace();
    match toks.next() {
        Some("fec") => Ok(Protocol::Fec),
        Some("detect-retransmit") => Ok(Protocol::DetectRetransmit {
            rtt_cycles: kv(toks.next(), "rtt").and_then(parse_num)?,
            max_retries: kv(toks.next(), "max_retries").and_then(parse_num)?,
        }),
        Some("arq-backoff") => Ok(Protocol::ArqBackoff {
            timeout_cycles: kv(toks.next(), "timeout").and_then(parse_num)?,
            backoff_base: kv(toks.next(), "base").and_then(parse_num)?,
            backoff_cap: kv(toks.next(), "cap").and_then(parse_num)?,
            max_retries: kv(toks.next(), "max_retries").and_then(parse_num)?,
        }),
        other => Err(format!("unknown protocol {other:?}")),
    }
}

fn parse_rung(rest: &str) -> Result<DegradationAction, String> {
    let mut toks = rest.split_whitespace();
    match toks.next() {
        Some("raise-swing") => Ok(DegradationAction::RaiseSwing {
            factor: kv(toks.next(), "factor").and_then(parse_f64)?,
        }),
        Some("switch-scheme") => {
            let name = toks.next().ok_or("missing scheme name")?;
            Ok(DegradationAction::SwitchScheme(
                Scheme::from_name(name).ok_or_else(|| format!("unknown scheme {name:?}"))?,
            ))
        }
        other => Err(format!("unknown rung {other:?}")),
    }
}

pub(crate) fn parse_spec(toks: &mut std::str::SplitWhitespace<'_>) -> Result<FaultSpec, String> {
    match toks.next() {
        Some("iid") => Ok(FaultSpec::Iid {
            eps: kv(toks.next(), "eps").and_then(parse_f64)?,
        }),
        Some("burst") => Ok(FaultSpec::Burst {
            eps_good: kv(toks.next(), "eps_good").and_then(parse_f64)?,
            eps_bad: kv(toks.next(), "eps_bad").and_then(parse_f64)?,
            p_enter: kv(toks.next(), "p_enter").and_then(parse_f64)?,
            p_exit: kv(toks.next(), "p_exit").and_then(parse_f64)?,
        }),
        Some("stuck-at") => Ok(FaultSpec::StuckAt {
            wire: kv(toks.next(), "wire").and_then(parse_num)?,
            value: match kv(toks.next(), "value")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("bad stuck-at value {other:?}")),
            },
        }),
        Some("bridge") => Ok(FaultSpec::Bridge {
            wire: kv(toks.next(), "wire").and_then(parse_num)?,
            mode: match kv(toks.next(), "mode")?.as_str() {
                "and" => BridgeMode::And,
                "or" => BridgeMode::Or,
                other => return Err(format!("bad bridge mode {other:?}")),
            },
        }),
        Some("droop") => Ok(FaultSpec::Droop {
            eps: kv(toks.next(), "eps").and_then(parse_f64)?,
            scale: kv(toks.next(), "scale").and_then(parse_f64)?,
            start: kv(toks.next(), "start").and_then(parse_num)?,
            duration: kv(toks.next(), "duration").and_then(parse_num)?,
        }),
        other => Err(format!("unknown fault spec {other:?}")),
    }
}

/// Parses the tokens after an event's `activate`: `id=N <site>=N
/// spec=...`, the site key being `hop` or `link`.
pub(crate) fn parse_activate(
    mut toks: std::str::SplitWhitespace<'_>,
    site: &str,
) -> Result<(u32, usize, FaultSpec), String> {
    let id = kv(toks.next(), "id").and_then(parse_num)?;
    let at = kv(toks.next(), site).and_then(parse_num)?;
    let spec_tag = kv(toks.next(), "spec")?;
    // `spec=iid` is followed by the spec's own tokens; re-join the tag
    // with the remainder so parse_spec sees a uniform stream.
    let joined = format!("{spec_tag} {}", toks.collect::<Vec<_>>().join(" "));
    Ok((id, at, parse_spec(&mut joined.split_whitespace())?))
}

fn parse_event(rest: &str) -> Result<ScheduleEvent, String> {
    let mut toks = rest.split_whitespace();
    let at_word = kv(toks.next(), "at").and_then(parse_num)?;
    let action = match toks.next() {
        Some("activate") => {
            let (id, hop, spec) = parse_activate(toks, "hop")?;
            ScheduleAction::Activate { id, hop, spec }
        }
        Some("deactivate") => ScheduleAction::Deactivate {
            id: kv(toks.next(), "id").and_then(parse_num)?,
        },
        Some("force-degrade") => ScheduleAction::ForceDegrade {
            hop: kv(toks.next(), "hop").and_then(parse_num)?,
        },
        other => return Err(format!("unknown event action {other:?}")),
    };
    Ok(ScheduleEvent { at_word, action })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{ExpectedViolation, Repro};
    use crate::schedule::{ScheduleFamily, ScheduleParams};

    fn sample_repro() -> Repro {
        let params = ScheduleParams {
            words: 500,
            hops: 3,
            wires: 21,
        };
        let mut schedule = FaultSchedule::random(ScheduleFamily::MixedMayhem, &params, 12);
        schedule.events.push(ScheduleEvent {
            at_word: 7,
            action: ScheduleAction::Activate {
                id: 42,
                hop: 2,
                spec: FaultSpec::Bridge {
                    wire: 3,
                    mode: BridgeMode::And,
                },
            },
        });
        schedule.sort();
        Repro {
            case: CaseConfig {
                name: "DAP/mixed_mayhem".into(),
                scheme: Scheme::Dap,
                data_bits: 16,
                hops: 3,
                eps: 1.5e-3,
                protocol: Protocol::ArqBackoff {
                    timeout_cycles: 3,
                    backoff_base: 1,
                    backoff_cap: 8,
                    max_retries: 3,
                },
                degradation: Some(DegradationPolicy {
                    window: 200,
                    trigger: 0.2,
                    ladder: vec![
                        DegradationAction::RaiseSwing { factor: 1.3 },
                        DegradationAction::SwitchScheme(Scheme::ExtHamming),
                    ],
                    promote: Some(PromotePolicy {
                        quiet_windows: 3,
                        trigger: 0.02,
                    }),
                }),
                controller: None,
                words: 500,
                traffic_seed: 11,
                sim_seed: 7,
                schedule,
            },
            expect: ExpectedViolation {
                kind: InvariantKind::LatencyBound,
                site: Some(1),
                at: 133,
            },
        }
    }

    #[test]
    fn serialize_parse_round_trips_structurally() {
        let repro = sample_repro();
        let text = repro.serialize();
        let back = Repro::<CaseConfig>::parse(&text).expect("parses");
        assert_eq!(back, repro);
    }

    #[test]
    fn reserialization_is_byte_identical() {
        let repro = sample_repro();
        let text = repro.serialize();
        let back = Repro::<CaseConfig>::parse(&text).expect("parses");
        assert_eq!(back.serialize(), text, "canonical form must be stable");
    }

    #[test]
    fn e2e_hop_and_every_spec_kind_round_trip() {
        let mut repro = sample_repro();
        repro.expect.site = None;
        repro.case.degradation = None;
        repro.case.protocol = Protocol::Fec;
        repro.case.schedule = FaultSchedule {
            events: vec![
                ScheduleEvent {
                    at_word: 0,
                    action: ScheduleAction::Activate {
                        id: 0,
                        hop: 0,
                        spec: FaultSpec::Iid { eps: 1e-4 },
                    },
                },
                ScheduleEvent {
                    at_word: 1,
                    action: ScheduleAction::Activate {
                        id: 1,
                        hop: 1,
                        spec: FaultSpec::Burst {
                            eps_good: 1e-4,
                            eps_bad: 0.25,
                            p_enter: 0.05,
                            p_exit: 0.3,
                        },
                    },
                },
                ScheduleEvent {
                    at_word: 2,
                    action: ScheduleAction::Activate {
                        id: 2,
                        hop: 2,
                        spec: FaultSpec::StuckAt {
                            wire: 5,
                            value: true,
                        },
                    },
                },
                ScheduleEvent {
                    at_word: 3,
                    action: ScheduleAction::Activate {
                        id: 3,
                        hop: 0,
                        spec: FaultSpec::Droop {
                            eps: 2e-4,
                            scale: 150.0,
                            start: 4,
                            duration: 60,
                        },
                    },
                },
                ScheduleEvent {
                    at_word: 9,
                    action: ScheduleAction::Deactivate { id: 2 },
                },
                ScheduleEvent {
                    at_word: 10,
                    action: ScheduleAction::ForceDegrade { hop: 1 },
                },
            ],
        };
        let text = repro.serialize();
        let back = Repro::<CaseConfig>::parse(&text).expect("parses");
        assert_eq!(back, repro);
        assert_eq!(back.serialize(), text);
    }

    #[test]
    fn controller_cases_round_trip_byte_identically() {
        let mut repro = sample_repro();
        repro.case.degradation = None;
        repro.case.controller = Some(ControlPolicy {
            points: vec![
                OperatingPoint {
                    swing: 1.4,
                    scheme: Scheme::ExtHamming,
                },
                OperatingPoint {
                    swing: 1.0,
                    scheme: Scheme::Parity,
                },
                OperatingPoint {
                    swing: 0.85,
                    scheme: Scheme::Parity,
                },
            ],
            target_wer: 1e-2,
            window: 32,
            dwell: 3,
            lower_trouble: 0.05,
            raise_trouble: 0.15,
            storm_trouble: 0.3,
        });
        repro.expect.kind = InvariantKind::ControlSafeState;
        let text = repro.serialize();
        assert!(text.contains("controller target=0.01 window=32 dwell=3"));
        assert!(text.contains("point swing=1.4 scheme=ExtHamming"));
        let back = Repro::<CaseConfig>::parse(&text).expect("parses");
        assert_eq!(back, repro);
        assert_eq!(back.serialize(), text, "canonical form must be stable");
    }

    #[test]
    fn malformed_files_are_rejected_with_context() {
        assert!(Repro::<CaseConfig>::parse("").is_err());
        assert!(Repro::<CaseConfig>::parse("not a repro\n").is_err());
        let missing = "socbus-chaos-repro v1\nname x\n";
        let err = Repro::<CaseConfig>::parse(missing).unwrap_err();
        assert!(err.contains("missing"), "{err}");
        let bad_scheme = "socbus-chaos-repro v1\nscheme Nonsense\n";
        let err = Repro::<CaseConfig>::parse(bad_scheme).unwrap_err();
        assert!(err.contains("unknown scheme"), "{err}");
        let full = sample_repro().serialize();
        let broken = full.replace("invariant=latency-bound", "invariant=vibes");
        assert!(Repro::<CaseConfig>::parse(&broken)
            .unwrap_err()
            .contains("vibes"));
    }
}

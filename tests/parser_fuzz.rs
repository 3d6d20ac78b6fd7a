//! The four on-disk format parsers survive arbitrary edits.
//!
//! Each target starts from a real document — a Sabotaged path repro and
//! a controller path repro (`socbus-chaos-repro v1`), a 3×3 mesh repro
//! (`socbus-mesh-repro v1`), two scopes of the checked-in mesh-campaign
//! incident report (`socbus-incident v1`), and one exported JSONL line
//! (`telemetry::json`) — and applies a few seeded mutations: byte flips
//! within ASCII, range deletions, truncations, duplicated lines, and
//! token splices over a number (`NaN`, `inf`, `-1`, `1e999`, an integer
//! one past `u64::MAX`, the empty string). The repro targets go through
//! the header-dispatching parse `chaos replay` runs ([`AnyRepro`]), and
//! each mutated repro is parsed twice: as it is, and with its first line
//! swapped for the other format's header, handing one format's body to
//! the other's parser. The properties:
//!
//! * no parser panics;
//! * whenever a repro or incident parse succeeds, its serialization is a
//!   fixed point of parse-then-serialize (compared as text, since
//!   NaN != NaN);
//! * whenever a JSON parse succeeds, every number in it is finite;
//! * the unmutated incident file round-trips byte for byte.

use std::ops::Range;
use std::rc::Rc;
use std::sync::OnceLock;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use socbus::channel::FaultSpec;
use socbus::codes::Scheme;
use socbus::noc::mesh::MeshPattern;
use socbus_chaos::mesh::ExpectedMeshViolation;
use socbus_chaos::schedule::{ScheduleAction, ScheduleEvent};
use socbus_chaos::{
    build_case, build_control_case, build_mesh_case, run_case_with, AnyRepro, ExpectedViolation,
    InvariantKind, MeshFamily, MeshInvariant, MeshRepro, Repro, ScheduleFamily,
};
use socbus_telemetry::json::{self, Json};
use socbus_telemetry::{
    incident_schema, jsonl_schema, validate_incident, validate_jsonl, HealthReport, Recorder,
    Telemetry,
};

/// The checked-in incident report of the mesh campaign.
const INCIDENT_FILE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/results/BENCH_mesh_chaos.health.json"
);

/// The tokens a splice writes over a word of the document.
const SPLICES: [&str; 6] = ["NaN", "inf", "-1", "1e999", "18446744073709551616", ""];

/// Applies the mutations `ops` encodes, three words each (kind,
/// position, argument), to an ASCII `seed`.
fn mutate(seed: &str, ops: &[u64]) -> String {
    let mut text = seed.as_bytes().to_vec();
    for op in ops.chunks_exact(3) {
        if text.is_empty() {
            break;
        }
        let pos = (op[1] % text.len() as u64) as usize;
        let arg = op[2];
        match op[0] % 5 {
            0 => text[pos] = (arg % 128) as u8,
            1 => {
                let end = (pos + 1 + (arg % 64) as usize).min(text.len());
                text.drain(pos..end);
            }
            2 => text.truncate(pos),
            3 => {
                let start = text[..pos]
                    .iter()
                    .rposition(|&c| c == b'\n')
                    .map_or(0, |i| i + 1);
                let end = text[pos..]
                    .iter()
                    .position(|&c| c == b'\n')
                    .map_or(text.len(), |i| pos + i + 1);
                let line = text[start..end].to_vec();
                text.splice(end..end, line);
            }
            _ => {
                // Splice over a number; half the time over one written
                // with a decimal point (the probabilities, objectives and
                // thresholds), if the document has any.
                let all = numbers(&text);
                let decimal: Vec<_> = all
                    .iter()
                    .filter(|r| text[(*r).clone()].contains(&b'.'))
                    .cloned()
                    .collect();
                let pool = if arg / 6 % 2 == 0 && !decimal.is_empty() {
                    decimal
                } else {
                    all
                };
                if !pool.is_empty() {
                    let range = pool[pos % pool.len()].clone();
                    text.splice(range, SPLICES[(arg % 6) as usize].bytes());
                }
            }
        }
    }
    String::from_utf8(text).expect("ASCII in, ASCII out")
}

/// The two repro headers.
const HEADERS: [&str; 2] = ["socbus-chaos-repro v1", "socbus-mesh-repro v1"];

/// `text` with its first line replaced by `header`.
fn with_header(text: &str, header: &str) -> String {
    let body = text.split_once('\n').map_or("", |(_, body)| body);
    format!("{header}\n{body}")
}

/// Checks the fixed point of the repro [`mutate`] makes of `seed`, and
/// of the same text under the other format's header.
fn repro_fixed_points(seed: &str, ops: &[u64]) -> Result<(), TestCaseError> {
    let text = mutate(seed, ops);
    let other = if seed.starts_with(HEADERS[0]) {
        HEADERS[1]
    } else {
        HEADERS[0]
    };
    fixed_point(&text, AnyRepro::parse, AnyRepro::serialize)?;
    fixed_point(
        &with_header(&text, other),
        AnyRepro::parse,
        AnyRepro::serialize,
    )
}

/// The byte ranges of the numbers in `text`: runs of digits, signs, a
/// point and exponents that start with a digit (or a minus sign and a
/// digit) not glued to a preceding word.
fn numbers(text: &[u8]) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < text.len() {
        let digit_at = |j: usize| text.get(j).is_some_and(u8::is_ascii_digit);
        let starts = digit_at(i) || (text[i] == b'-' && digit_at(i + 1));
        let glued = i > 0 && (text[i - 1].is_ascii_alphanumeric() || text[i - 1] == b'_');
        if starts && !glued {
            let end = text[i + 1..]
                .iter()
                .position(|c| !(c.is_ascii_digit() || b".eE+-".contains(c)))
                .map_or(text.len(), |n| i + 1 + n);
            out.push(i..end);
            i = end;
        } else {
            i += 1;
        }
    }
    out
}

/// Checks that a successful parse serializes to a fixed point.
fn fixed_point<T>(
    text: &str,
    parse: impl Fn(&str) -> Result<T, String>,
    serialize: impl Fn(&T) -> String,
) -> Result<(), TestCaseError> {
    let Ok(value) = parse(text) else {
        return Ok(());
    };
    let once = serialize(&value);
    match parse(&once) {
        Ok(again) => prop_assert_eq!(serialize(&again), once),
        Err(e) => prop_assert!(false, "re-parse of the serialization failed: {e}\n{once}"),
    }
    Ok(())
}

/// Whether every number in `value` is finite.
fn all_finite(value: &Json) -> bool {
    match value {
        Json::Num(x) => x.is_finite(),
        Json::Arr(items) => items.iter().all(all_finite),
        Json::Obj(members) => members.iter().map(|(_, v)| v).all(all_finite),
        Json::Null | Json::Bool(_) | Json::Str(_) => true,
    }
}

/// A Sabotaged repro with schedule noise and a degradation ladder, and a
/// controller repro with its operating-point ladder.
fn path_seeds() -> &'static [String; 2] {
    static SEEDS: OnceLock<[String; 2]> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let expect = ExpectedViolation {
            kind: InvariantKind::SilentCorruption,
            site: Some(0),
            at: 8,
        };
        let mut sabotaged = build_case(Scheme::Sabotaged, ScheduleFamily::MixedMayhem, 3, 1_500, 2);
        sabotaged.schedule.events.push(ScheduleEvent {
            at_word: 0,
            action: ScheduleAction::Activate {
                id: 500,
                hop: 0,
                spec: FaultSpec::Iid { eps: 4e-3 },
            },
        });
        sabotaged.schedule.sort();
        let control = build_control_case(Scheme::Parity, ScheduleFamily::DroopStorm, 2, 400, 2);
        [sabotaged, control].map(|case| {
            Repro {
                case,
                expect: expect.clone(),
            }
            .serialize()
        })
    })
}

/// A 3×3 DAP mesh repro of the mixed family with a hotspot pattern.
fn mesh_seed() -> &'static str {
    static SEED: OnceLock<String> = OnceLock::new();
    SEED.get_or_init(|| {
        let mut case = build_mesh_case(Scheme::Dap, MeshFamily::MixedMesh, 3, 120);
        case.pattern = MeshPattern::Hotspot {
            node: 4,
            fraction: 0.4,
        };
        MeshRepro {
            case,
            expect: ExpectedMeshViolation {
                kind: MeshInvariant::BoundedProgress,
                site: Some(3),
                at: 99,
            },
        }
        .serialize()
    })
}

fn incident_file() -> &'static str {
    static FILE: OnceLock<String> = OnceLock::new();
    FILE.get_or_init(|| std::fs::read_to_string(INCIDENT_FILE).expect("checked-in incident file"))
}

/// The checked-in incident report cut to two of its scopes — the first,
/// and the first with an open incident — so each mutated case parses a
/// few kilobytes instead of the whole campaign.
fn incident_seed() -> &'static str {
    static SEED: OnceLock<String> = OnceLock::new();
    SEED.get_or_init(|| {
        let mut report = HealthReport::parse(incident_file()).expect("the report parses");
        let with_incident = report
            .scopes
            .iter()
            .position(|s| !s.incidents.is_empty())
            .expect("a scope with an incident");
        let mut index = 0;
        report.scopes.retain(|_| {
            index += 1;
            index == 1 || index == with_incident + 1
        });
        report.serialize()
    })
}

/// One exported JSONL line: a span with labels from a traced path case.
fn jsonl_seed() -> &'static str {
    static SEED: OnceLock<String> = OnceLock::new();
    SEED.get_or_init(|| {
        let rec = Rc::new(Recorder::new());
        let cfg = build_case(Scheme::Dap, ScheduleFamily::MixedMayhem, 7, 40, 2);
        let _ = run_case_with(&cfg, Telemetry::from_recorder(&rec));
        let jsonl = rec.export_jsonl();
        let line = jsonl
            .lines()
            .find(|l| l.contains("\"span\"") && l.contains("\"hop\""))
            .expect("a span line with labels");
        format!("{line}\n")
    })
}

/// Each format's body under the other's header is refused, by the
/// parser the header names, at the first key that format lacks.
#[test]
fn swapped_repro_headers_are_rejected() {
    let swap = |text: &str, header: &str| {
        AnyRepro::parse(&with_header(text, header)).expect_err("the wrong format")
    };
    assert_eq!(
        swap(&path_seeds()[0], HEADERS[1]),
        "line 5: unknown key \"hops\""
    );
    assert_eq!(
        swap(mesh_seed(), HEADERS[0]),
        "line 5: unknown key \"width\""
    );
    for seed in path_seeds() {
        assert!(matches!(AnyRepro::parse(seed), Ok(AnyRepro::Path(_))));
    }
    assert!(matches!(
        AnyRepro::parse(mesh_seed()),
        Ok(AnyRepro::Mesh(_))
    ));
}

#[test]
fn the_incident_file_round_trips() {
    let text = incident_file();
    assert!(text.is_ascii());
    let report = HealthReport::parse(text).expect("the checked-in report parses");
    assert_eq!(report.serialize(), text);
    assert!(validate_incident(incident_schema(), text).is_ok());
    assert_eq!(validate_jsonl(jsonl_schema(), jsonl_seed()), Ok(1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn path_repros_survive_mutation(ops in prop::collection::vec(any::<u64>(), 3..=12)) {
        for seed in path_seeds() {
            repro_fixed_points(seed, &ops)?;
        }
    }

    #[test]
    fn mesh_repros_survive_mutation(ops in prop::collection::vec(any::<u64>(), 3..=12)) {
        repro_fixed_points(mesh_seed(), &ops)?;
    }

    #[test]
    fn incident_reports_survive_mutation(ops in prop::collection::vec(any::<u64>(), 3..=12)) {
        let text = mutate(incident_seed(), &ops);
        let _ = validate_incident(incident_schema(), &text);
        fixed_point(&text, HealthReport::parse, HealthReport::serialize)?;
    }

    #[test]
    fn json_lines_survive_mutation(ops in prop::collection::vec(any::<u64>(), 3..=12)) {
        let text = mutate(jsonl_seed(), &ops);
        let _ = validate_jsonl(jsonl_schema(), &text);
        if let Ok(value) = json::parse(&text) {
            prop_assert!(all_finite(&value), "non-finite number accepted: {text}");
        }
    }
}

//! End-to-end acceptance of the chaos harness (the ISSUE 2 criterion):
//! a deliberately broken decoder must produce a violation whose shrunken
//! reproducer replays to the *same* violation through the parse and
//! canonical re-run the `chaos -- replay` binary uses.

use socbus_channel::FaultSpec;
use socbus_chaos::mesh::ExpectedMeshViolation;
use socbus_chaos::schedule::{FaultSchedule, ScheduleAction, ScheduleEvent};
use socbus_chaos::{
    build_case, build_mesh_case, cli, run_case, write_repro, AnyRepro, CaseConfig, Harness,
    InvariantKind, MeshCaseConfig, MeshFamily, MeshInvariant, MeshRepro, Repro, ScheduleFamily,
    Violation,
};
use socbus_codes::Scheme;
use socbus_noc::mesh::MeshPattern;
use socbus_telemetry::Telemetry;

/// Parses `text` as a repro of harness `H` and re-runs it as `chaos
/// replay` does (canonical re-check included), without its artifacts.
fn replay<H: Harness>(text: &str) -> Result<Option<Violation<H::Invariant>>, String> {
    Repro::<H>::parse(text)?.checked_replay(text, Telemetry::off())
}

/// The full loop: violate → shrink → write file → parse file → re-run →
/// same violation key; and the file is canonical (byte-identical after a
/// parse/serialize round trip).
#[test]
fn sabotaged_decoder_shrinks_to_a_replayable_repro() {
    // A Sabotaged case with schedule noise around the trigger.
    let mut cfg = build_case(Scheme::Sabotaged, ScheduleFamily::BurstTrain, 3, 1_500, 2);
    cfg.schedule.events.push(ScheduleEvent {
        at_word: 0,
        action: ScheduleAction::Activate {
            id: 500,
            hop: 0,
            spec: FaultSpec::Iid { eps: 4e-3 },
        },
    });
    cfg.schedule.sort();

    let out = run_case(&cfg);
    let violation = out
        .violations
        .iter()
        .find(|v| v.kind == InvariantKind::SilentCorruption)
        .expect("the sabotaged decoder must trip silent-corruption");

    // Shrink and write the repro exactly as the binary would.
    let dir = std::env::temp_dir().join("socbus-chaos-acceptance");
    let file = write_repro(&cfg, violation, &dir).expect("shrink + write succeeds");
    let text = std::fs::read_to_string(&file).expect("repro file readable");

    // Replay through the header dispatch and canonical re-run `chaos --
    // replay <file>` uses.
    let Ok(AnyRepro::Path(parsed)) = AnyRepro::parse(&text) else {
        panic!("a path repro that parses: {text}");
    };
    let replayed = parsed
        .checked_replay(&text, Telemetry::off())
        .expect("the written file is canonical")
        .expect("the violation must reproduce on replay");
    assert_eq!(replayed.kind, violation.kind);
    assert_eq!(replayed.site, violation.site);

    // The written file is canonical: parse → serialize is byte-identical.
    assert_eq!(parsed.serialize(), text);

    // The shrunken case is genuinely smaller than the original campaign
    // cell (fewer words; the burst-train noise stripped).
    assert!(parsed.case.words < cfg.words);
    assert!(parsed.case.schedule.events.len() < cfg.schedule.events.len());

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every catalog scheme survives a short run of every schedule family —
/// the core soak claim, in miniature, as a tier-visible test.
#[test]
fn catalog_survives_short_runs_of_every_family() {
    for scheme in Scheme::catalog() {
        for family in ScheduleFamily::all() {
            let cfg = build_case(scheme, family, 1, 300, 2);
            let out = run_case(&cfg);
            assert!(
                out.violations.is_empty(),
                "{}: {:?}",
                cfg.name,
                out.violations.first()
            );
            assert!(
                out.worst_word_cycles <= out.budget_cycles,
                "{}: worst {} > budget {}",
                cfg.name,
                out.worst_word_cycles,
                out.budget_cycles
            );
        }
    }
}

/// A schedule drawn for one seed replays identically: same violations,
/// same report, same worst-case latency (the determinism contract behind
/// byte-identical soak JSON).
#[test]
fn campaign_cells_are_bit_deterministic() {
    let a = run_case(&build_case(
        Scheme::HammingX,
        ScheduleFamily::MixedMayhem,
        9,
        800,
        3,
    ));
    let b = run_case(&build_case(
        Scheme::HammingX,
        ScheduleFamily::MixedMayhem,
        9,
        800,
        3,
    ));
    assert_eq!(a.report, b.report);
    assert_eq!(a.violations, b.violations);
    assert_eq!(a.worst_word_cycles, b.worst_word_cycles);
}

/// Replay refuses non-canonical (hand-edited) files instead of silently
/// replaying something that would not round-trip.
#[test]
fn replay_rejects_non_canonical_text() {
    let cfg = build_case(Scheme::Dap, ScheduleFamily::DroopStorm, 2, 200, 2);
    let repro = Repro::new(
        cfg,
        &Violation {
            kind: InvariantKind::LatencyBound,
            site: Some(0),
            at: 7,
            detail: String::new(),
        },
    );
    let canonical = repro.serialize();
    let edited = format!("{canonical}\n");
    assert!(replay::<CaseConfig>(&edited).is_err());
    // The canonical text itself parses fine (the case just doesn't
    // violate anything, so replay reports non-reproduction).
    assert_eq!(replay::<CaseConfig>(&canonical), Ok(None));
}

/// Empty schedules are legal and trivially healthy.
#[test]
fn empty_schedule_is_healthy() {
    let mut cfg = build_case(Scheme::Bsc, ScheduleFamily::BurstTrain, 4, 200, 2);
    cfg.schedule = FaultSchedule::default();
    let out = run_case(&cfg);
    assert!(out.violations.is_empty());
}

/// A canonical repro edited in one field must be rejected at parse time
/// — `chaos replay` exits 2 with a message — instead of passing the
/// canonical-form check and panicking inside the simulator. Every edit
/// below keeps the file canonical, so the error can only come from the
/// field checks.
#[test]
fn replay_rejects_out_of_range_fields() {
    let case = build_case(Scheme::Sabotaged, ScheduleFamily::BurstTrain, 1, 200, 3);
    let path = Repro {
        case,
        expect: socbus_chaos::ExpectedViolation {
            kind: InvariantKind::SilentCorruption,
            site: Some(0),
            at: 5,
        },
    }
    .serialize();
    let mut case = build_mesh_case(Scheme::Dap, MeshFamily::MixedMesh, 3, 120);
    case.pattern = MeshPattern::Hotspot {
        node: 4,
        fraction: 0.4,
    };
    let mesh = MeshRepro {
        case,
        expect: ExpectedMeshViolation {
            kind: MeshInvariant::BoundedProgress,
            site: Some(3),
            at: 99,
        },
    }
    .serialize();
    assert!(
        replay::<MeshCaseConfig>(&mesh).is_ok(),
        "the unedited mesh repro replays"
    );

    // (text to find, replacement): one field out of range per edit.
    let path_edits = [
        ("\nhops 3\n", "\nhops 0\n"),
        ("\ndata_bits 16\n", "\ndata_bits 0\n"),
        ("\ndata_bits 16\n", "\ndata_bits 300\n"),
        ("\neps 0.001\n", "\neps 5.0\n"),
        ("\nexpect ", "\nevent at=0 force-degrade hop=7\nexpect "),
        (
            "\nexpect ",
            "\nevent at=0 activate id=1 hop=9 spec=iid eps=0.01\nexpect ",
        ),
        (
            "\nexpect ",
            "\nevent at=0 activate id=1 hop=0 spec=iid eps=-3.0\nexpect ",
        ),
        (
            "\nexpect ",
            "\nevent at=0 activate id=1 hop=0 spec=bridge wire=18446744073709551615 mode=or\nexpect ",
        ),
        (
            "\nwords ",
            "\ncontroller target=0.01 window=50 dwell=2 lower=0.05 raise=0.2 storm=0.4\nwords ",
        ),
    ];
    let mesh_edits = [
        ("\nwidth 3\n", "\nwidth 0\n"),
        ("\nrate 0.1\n", "\nrate 5.0\n"),
        ("\nrate 0.1\n", "\nrate -1.0\n"),
        ("node=4 ", "node=99 "),
        ("fraction=0.4\n", "fraction=2.0\n"),
        ("\nexpect ", "\nevent at=50 link-down link=999\nexpect "),
        (
            "\nexpect ",
            "\nevent at=50 activate id=1 link=999 spec=iid eps=0.01\nexpect ",
        ),
    ];
    let edit = |text: &str, (from, to): (&str, &str)| {
        let edited = text.replacen(from, to, 1);
        assert_ne!(edited, text, "{from:?} is in the repro");
        edited
    };
    for e in path_edits {
        let err = replay::<CaseConfig>(&edit(&path, e)).expect_err(e.1);
        assert!(!err.contains("canonical"), "{err}");
    }
    for e in mesh_edits {
        let err = replay::<MeshCaseConfig>(&edit(&mesh, e)).expect_err(e.1);
        assert!(!err.contains("canonical"), "{err}");
    }

    let dir = std::env::temp_dir().join("socbus-chaos-rejects");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let first = [
        ("path.txt", edit(&path, path_edits[0])),
        ("mesh.txt", edit(&mesh, mesh_edits[0])),
    ];
    for (name, text) in first {
        let file = dir.join(name);
        std::fs::write(&file, text).expect("write edited repro");
        let args = ["replay".to_owned(), file.display().to_string()];
        assert_eq!(cli::main_with_args(&args), 2, "{name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

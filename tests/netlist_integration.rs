//! Cross-crate netlist integration: the gate-level codecs versus their
//! golden models under traffic, and the physical sanity of the measured
//! costs that feed every table in the paper reproduction.

use socbus::codes::Scheme;
use socbus::model::Word;
use socbus::netlist::cell::CellLibrary;
use socbus::netlist::cost::codec_cost;
use socbus::netlist::synthesize;

#[test]
fn every_scheme_netlist_matches_golden_model_under_traffic() {
    for scheme in Scheme::table3() {
        let k = 8;
        let mut pair = synthesize(scheme, k);
        let mut enc = scheme.build(k);
        let mut dec = scheme.build(k);
        let mut x: u128 = 0x9E3779B97F4A7C15;
        for _ in 0..120 {
            x = x.wrapping_mul(0x5DEECE66D).wrapping_add(11);
            let d = Word::from_bits(x & 0xFF, k);
            let golden_cw = enc.encode(d);
            assert_eq!(pair.encoder.step(d), golden_cw, "{} encode", scheme.name());
            let golden_out = dec.decode(golden_cw);
            assert_eq!(
                pair.decoder.step(golden_cw).slice(0, k),
                golden_out,
                "{} decode",
                scheme.name()
            );
        }
    }
}

#[test]
fn codec_costs_scale_sensibly_with_width() {
    let lib = CellLibrary::cmos_130nm();
    for scheme in [Scheme::Hamming, Scheme::Dap, Scheme::BusInvert(1)] {
        let c8 = codec_cost(scheme, 8, &lib, 200, 3);
        let c32 = codec_cost(scheme, 32, &lib, 200, 3);
        assert!(c32.area > c8.area, "{}", scheme.name());
        assert!(
            c32.energy_per_transfer > c8.energy_per_transfer,
            "{}",
            scheme.name()
        );
        // Delay grows sub-linearly (tree logic), not 4x.
        assert!(
            c32.encoder_delay + c32.decoder_delay
                < 4.0 * (c8.encoder_delay + c8.decoder_delay) + 200e-12,
            "{}",
            scheme.name()
        );
    }
}

#[test]
fn wiring_only_schemes_cost_nothing() {
    let lib = CellLibrary::cmos_130nm();
    for scheme in [Scheme::Uncoded, Scheme::Shielding, Scheme::Duplication] {
        let c = codec_cost(scheme, 16, &lib, 100, 1);
        assert_eq!(c.area, 0.0, "{}", scheme.name());
        assert_eq!(c.total_delay(), 0.0, "{}", scheme.name());
    }
}

#[test]
fn decoder_sees_coded_traffic_in_power_model() {
    // A duplication decoder fed with *encoded* words must report strictly
    // lower input-side switching than a Hamming decoder at similar width —
    // the reason codec energies in the tables must be simulated with
    // realistic stimuli, not uniform noise.
    let lib = CellLibrary::cmos_130nm();
    let dap = codec_cost(Scheme::Dap, 16, &lib, 1000, 9);
    let bsc = codec_cost(Scheme::Bsc, 16, &lib, 1000, 9);
    // Same code content; BSC adds shift muxes — energy strictly higher.
    assert!(bsc.energy_per_transfer > dap.energy_per_transfer);
}

/// Disagreements of the netlist decoder's data outputs with the word
/// `decode`, and the words tried, by error weight 0, 1 and 2: every data
/// word with every error pattern of up to two wires, after a reset and,
/// for a stateful scheme, again after one warm-up word (BSC's second
/// phase, a non-zero bus-invert state).
fn disagreements(scheme: Scheme, k: usize) -> [(usize, usize); 3] {
    let pair = synthesize(scheme, k);
    let word = scheme.build(k);
    let n = word.wires();
    let unit = |i: usize| Word::zero(n).with_bit(i, true);
    let mut errors = vec![Word::zero(n)];
    errors.extend((0..n).map(unit));
    errors.extend((0..n).flat_map(|i| (i + 1..n).map(move |j| unit(i).xor(unit(j)))));
    let alternating = Word::from_bits(0x5555_5555_5555_5555_5555_5555_5555_5555, k);
    let warm_ups = if word.is_stateful() {
        vec![None, Some(alternating)]
    } else {
        vec![None]
    };
    let mut tally = [(0, 0); 3];
    for warm_up in warm_ups {
        let (mut encoder, mut decoder) = (pair.encoder.clone(), pair.decoder.clone());
        let (mut enc, mut dec) = (word.clone(), word.clone());
        if let Some(d) = warm_up {
            let cw = enc.encode(d);
            assert_eq!(encoder.step(d), cw, "{} warm-up encode", scheme.name());
            assert_eq!(decoder.step(cw).slice(0, k), dec.decode(cw));
        }
        for d in Word::enumerate_all(k) {
            let cw = enc.clone().encode(d);
            assert_eq!(encoder.run(d), cw, "{} encode {d}", scheme.name());
            for e in &errors {
                let bus = cw.xor(*e);
                let t = &mut tally[e.count_ones() as usize];
                t.0 += usize::from(decoder.run(bus).slice(0, k) != dec.clone().decode(bus));
                t.1 += 1;
            }
        }
    }
    tally
}

/// The oracle over `schemes` at k = 4 and 8, every scheme that builds
/// there agreeing on every word.
fn assert_netlists_decode_like_the_word_codecs(schemes: &[Scheme]) {
    for &scheme in schemes {
        for k in [4, 8] {
            if scheme.check(k).is_ok() {
                let [clean, single, double] = disagreements(scheme, k);
                assert_eq!(
                    (clean.0, single.0, double.0),
                    (0, 0, 0),
                    "{} at k = {k}: disagreements among {} clean, {} single-error \
                     and {} double-error words",
                    scheme.name(),
                    clean.1,
                    single.1,
                    double.1
                );
            }
        }
    }
}

const WIRING: [Scheme; 7] = [
    Scheme::Uncoded,
    Scheme::Shielding,
    Scheme::Duplication,
    Scheme::Parity,
    Scheme::BusInvert(1),
    Scheme::BusInvert(4),
    Scheme::BusInvert(8),
];
const HAMMING: [Scheme; 4] = [
    Scheme::Hamming,
    Scheme::HammingX,
    Scheme::ExtHamming,
    Scheme::Bih,
];
const DAP: [Scheme; 4] = [Scheme::Dap, Scheme::Dapx, Scheme::Dapbi, Scheme::Bsc];
const FTC: [Scheme; 2] = [Scheme::Ftc, Scheme::FtcHc];

#[test]
fn the_oracle_covers_the_catalog() {
    let covered: Vec<Scheme> = [&WIRING[..], &HAMMING, &DAP, &FTC, &[Scheme::BchDec]].concat();
    for scheme in Scheme::catalog() {
        assert!(covered.contains(&scheme), "{}", scheme.name());
    }
}

#[test]
fn wiring_and_bus_invert_netlists_decode_like_the_word_codecs() {
    assert_netlists_decode_like_the_word_codecs(&WIRING);
}

#[test]
fn hamming_family_netlists_decode_like_the_word_codecs() {
    assert_netlists_decode_like_the_word_codecs(&HAMMING);
}

#[test]
fn dap_family_netlists_decode_like_the_word_codecs() {
    assert_netlists_decode_like_the_word_codecs(&DAP);
}

#[test]
fn bch_netlist_decodes_like_the_word_codec() {
    assert_netlists_decode_like_the_word_codecs(&[Scheme::BchDec]);
}

/// FTC and FTC+HC still differ off the codebook: the netlist's group
/// decoders OR codeword detectors, the word decoders pick the nearest
/// codeword. The counts stay pinned until the two are reconciled, which
/// turns them to 0.
#[test]
fn ftc_netlists_keep_their_known_disagreement() {
    let expected = [
        (Scheme::Ftc, 4, [(0, 16), (42, 96), (144, 240)]),
        (Scheme::Ftc, 8, [(0, 256), (768, 3_328), (7_820, 19_968)]),
        (Scheme::FtcHc, 4, [(0, 16), (0, 224), (375, 1_456)]),
        (Scheme::FtcHc, 8, [(0, 256), (0, 5_376), (12_423, 53_760)]),
    ];
    for (scheme, k, counts) in expected {
        assert_eq!(
            disagreements(scheme, k),
            counts,
            "{} at k = {k}",
            scheme.name()
        );
    }
}

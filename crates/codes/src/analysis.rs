//! Code property analysis: the measurements behind the paper's tables.
//!
//! Given any [`BusCode`], this module derives the quantities the paper
//! tabulates — worst-case delay class, average energy coefficients,
//! minimum distance — and verifies the structural claims (FT/FP
//! conditions, error-correction capability). Stateless codes are analyzed
//! by exhaustive codeword-pair enumeration when `k` is small; stateful
//! codes (bus-invert family, BSC) are driven with long uniform random data
//! sequences, which is exactly the paper's "spatially and temporally
//! uncorrelated, equiprobable" workload assumption.

use crate::traits::BusCode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socbus_model::{bus_delay_factor, EnergyCoeff, TransitionVector, Word};

/// Largest `k` for which exhaustive pair enumeration (`4^k` transitions)
/// is attempted.
pub const EXHAUSTIVE_LIMIT: usize = 10;

/// The full codebook of a stateless code, in data order.
///
/// # Panics
///
/// Panics if the code is stateful or `k > 20`.
#[must_use]
pub fn codebook(code: &mut dyn BusCode) -> Vec<Word> {
    assert!(!code.is_stateful(), "codebook undefined for stateful codes");
    let k = code.data_bits();
    assert!(k <= 20, "codebook enumeration limited to k <= 20");
    Word::enumerate_all(k).map(|d| code.encode(d)).collect()
}

/// Minimum Hamming distance of a stateless code's codebook.
///
/// # Panics
///
/// Panics if the code is stateful, has fewer than two codewords, or
/// `k > 20`.
#[must_use]
pub fn min_distance(code: &mut dyn BusCode) -> u32 {
    let book = codebook(code);
    assert!(book.len() >= 2, "need at least two codewords");
    let mut min = u32::MAX;
    for i in 0..book.len() {
        for j in (i + 1)..book.len() {
            min = min.min(book[i].hamming_distance(book[j]));
        }
    }
    min
}

/// A random uniform data word of width `k`.
fn random_word(rng: &mut StdRng, k: usize) -> Word {
    Word::random(rng, k)
}

/// Worst-case bus delay factor observed over the code's transitions.
///
/// Stateless codes with `k ≤ EXHAUSTIVE_LIMIT` are checked exhaustively
/// (the result is then exact); otherwise `samples` random transitions are
/// simulated.
#[must_use]
pub fn worst_delay_factor(code: &mut dyn BusCode, lambda: f64, samples: usize) -> f64 {
    let k = code.data_bits();
    let mut worst: f64 = 0.0;
    if !code.is_stateful() && k <= EXHAUSTIVE_LIMIT {
        let book = codebook(code);
        for &b in &book {
            for &a in &book {
                let tv = TransitionVector::between(b, a);
                worst = worst.max(bus_delay_factor(&tv, lambda));
            }
        }
    } else {
        let mut rng = StdRng::seed_from_u64(0xD5_CAC);
        code.reset();
        let mut prev = code.encode(random_word(&mut rng, k));
        for _ in 0..samples {
            let cur = code.encode(random_word(&mut rng, k));
            let tv = TransitionVector::between(prev, cur);
            worst = worst.max(bus_delay_factor(&tv, lambda));
            prev = cur;
        }
        code.reset();
    }
    worst
}

/// Average bus energy coefficient per transfer under uniform random data.
///
/// Exact (full pair enumeration) for stateless codes with
/// `k ≤ EXHAUSTIVE_LIMIT`; otherwise a sequence of `samples` transfers is
/// simulated. The result is in the paper's table units: energy =
/// `(self + λ·coupling)·C·Vdd²`.
#[must_use]
pub fn average_energy(code: &mut dyn BusCode, samples: usize) -> EnergyCoeff {
    let k = code.data_bits();
    let mut acc = EnergyCoeff::default();
    if !code.is_stateful() && k <= EXHAUSTIVE_LIMIT {
        let book = codebook(code);
        for &b in &book {
            for &a in &book {
                acc = acc.add(socbus_model::word_transition_energy(b, a));
            }
        }
        acc.scale(1.0 / (book.len() * book.len()) as f64)
    } else {
        let mut rng = StdRng::seed_from_u64(0xE6E);
        code.reset();
        let mut prev = code.encode(random_word(&mut rng, k));
        for _ in 0..samples {
            let cur = code.encode(random_word(&mut rng, k));
            acc = acc.add(socbus_model::word_transition_energy(prev, cur));
            prev = cur;
        }
        code.reset();
        acc.scale(1.0 / samples as f64)
    }
}

/// Verifies `decode(encode(d)) == d` over random data (and all single-wire
/// corruptions when the code claims correction). Returns the number of
/// failures (0 = pass).
///
/// Encoder and a freshly `reset` decoder clone advance in lockstep, which
/// assumes the decoder state does not depend on received *values* (true
/// for every code in this crate: BSC tracks only the cycle phase, BI's
/// decoder is stateless).
#[must_use]
pub fn verify_roundtrip<C: BusCode + Clone>(code: &C, trials: usize, seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut enc = code.clone();
    let mut dec = code.clone();
    enc.reset();
    dec.reset();
    let k = enc.data_bits();
    let t = enc.correctable_errors();
    let mut failures = 0;
    for _ in 0..trials {
        let d = random_word(&mut rng, k);
        let cw = enc.encode(d);
        let mut bad = cw;
        if t > 0 {
            let wire = rng.gen_range(0..bad.width());
            bad.set_bit(wire, !bad.bit(wire));
        }
        if dec.decode(bad) != d {
            failures += 1;
        }
    }
    failures
}

/// Average number of switching wires per transfer (self-transition
/// activity) under uniform random data — `2 × self_coeff`.
#[must_use]
pub fn average_activity(code: &mut dyn BusCode, samples: usize) -> f64 {
    2.0 * average_energy(code, samples).self_coeff
}

/// *Exact* average energy coefficient of the `BI(1)` bus-invert code, via
/// its Markov chain: the bus word `(y, inv)` is a finite-state chain under
/// uniform data (the encoder state is the `y` lines of the last output),
/// so the stationary distribution — and from it the exact expectation the
/// sampled estimate approaches — is computable in closed form for small
/// `k`.
///
/// # Panics
///
/// Panics if `k == 0` or `k > 12` (the chain has `2^(k+1)` states).
#[must_use]
pub fn bus_invert_exact_energy(k: usize) -> EnergyCoeff {
    assert!((1..=12).contains(&k), "exact BI chain limited to k <= 12");
    let states = 1usize << (k + 1); // output word (y, inv)
    let inputs = 1usize << k;
    let p_in = 1.0 / inputs as f64;
    // next_output(y_prev, d) is independent of the previous invert bit.
    let next = |y_prev: usize, d: usize| -> usize {
        let toggles = ((y_prev ^ d) as u64).count_ones() as usize;
        if 2 * toggles > k {
            (!d & (inputs - 1)) | (1 << k)
        } else {
            d
        }
    };
    // Power-iterate the stationary distribution.
    let mut pi = vec![1.0 / states as f64; states];
    for _ in 0..200 {
        let mut nxt = vec![0.0; states];
        for (s, &w) in pi.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            let y_prev = s & (inputs - 1);
            for d in 0..inputs {
                nxt[next(y_prev, d)] += w * p_in;
            }
        }
        pi = nxt;
    }
    // Expected transition energy from the stationary state.
    let mut acc = EnergyCoeff::default();
    for (s, &w) in pi.iter().enumerate() {
        if w == 0.0 {
            continue;
        }
        let from = Word::from_bits(s as u128, k + 1);
        let y_prev = s & (inputs - 1);
        for d in 0..inputs {
            let to = Word::from_bits(next(y_prev, d) as u128, k + 1);
            acc = acc.add(socbus_model::word_transition_energy(from, to).scale(w * p_in));
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cac::{Duplication, Shielding};
    use crate::ecc::Hamming;
    use crate::joint::Dap;
    use crate::lpc::BusInvert;
    use crate::traits::Uncoded;

    #[test]
    fn uncoded_energy_matches_closed_form() {
        let mut c = Uncoded::new(6);
        let e = average_energy(&mut c, 0);
        let expect = socbus_model::energy::uncoded_average_coeff(6);
        assert!((e.self_coeff - expect.self_coeff).abs() < 1e-12);
        assert!((e.coupling_coeff - expect.coupling_coeff).abs() < 1e-12);
    }

    #[test]
    fn hamming_4bit_energy_matches_table2() {
        // Table II: Hamming row 1.75 + 3.00λ.
        let mut c = Hamming::new(4);
        let e = average_energy(&mut c, 0);
        assert!((e.self_coeff - 1.75).abs() < 1e-12, "{}", e.self_coeff);
        assert!(
            (e.coupling_coeff - 3.0).abs() < 1e-12,
            "{}",
            e.coupling_coeff
        );
    }

    #[test]
    fn worst_delay_factors() {
        let lambda = 2.8;
        assert!(
            (worst_delay_factor(&mut Uncoded::new(4), lambda, 0) - (1.0 + 4.0 * lambda)).abs()
                < 1e-12
        );
        assert!(
            worst_delay_factor(&mut Shielding::new(4), lambda, 0) <= 1.0 + 2.0 * lambda + 1e-12
        );
        assert!(
            worst_delay_factor(&mut Duplication::new(4), lambda, 0) <= 1.0 + 2.0 * lambda + 1e-12
        );
        assert!(worst_delay_factor(&mut Dap::new(4), lambda, 0) <= 1.0 + 2.0 * lambda + 1e-12);
    }

    #[test]
    fn stateful_worst_delay_sampled() {
        let lambda = 2.0;
        let f = worst_delay_factor(&mut Dap::bsc(4), lambda, 5000);
        assert!(f <= 1.0 + 2.0 * lambda + 1e-12, "BSC factor {f}");
        let f = worst_delay_factor(&mut BusInvert::new(8, 1), lambda, 5000);
        assert!(f <= 1.0 + 4.0 * lambda + 1e-12);
    }

    #[test]
    fn min_distance_values() {
        assert_eq!(min_distance(&mut Uncoded::new(4)), 1);
        assert_eq!(min_distance(&mut Duplication::new(4)), 2);
        assert_eq!(min_distance(&mut Hamming::new(4)), 3);
        assert_eq!(min_distance(&mut Dap::new(4)), 3);
    }

    #[test]
    fn roundtrip_harness_passes_for_all_simple_codes() {
        assert_eq!(verify_roundtrip(&Uncoded::new(8), 200, 1), 0);
        assert_eq!(verify_roundtrip(&Hamming::new(8), 200, 2), 0);
        assert_eq!(verify_roundtrip(&Dap::new(8), 200, 3), 0);
        assert_eq!(verify_roundtrip(&Dap::bsc(8), 200, 4), 0);
        assert_eq!(verify_roundtrip(&BusInvert::new(8, 2), 200, 5), 0);
    }

    #[test]
    fn bus_invert_activity_is_reduced() {
        let uncoded = average_activity(&mut Uncoded::new(8), 0);
        let bi = average_activity(&mut BusInvert::new(8, 1), 20000);
        assert!(bi < uncoded, "BI activity {bi} vs uncoded {uncoded}");
    }

    #[test]
    #[should_panic(expected = "stateful")]
    fn codebook_rejects_stateful() {
        let _ = codebook(&mut BusInvert::new(4, 1));
    }

    #[test]
    fn exact_bi_energy_matches_sampled() {
        for k in [4usize, 8] {
            let exact = bus_invert_exact_energy(k);
            let sampled = average_energy(&mut BusInvert::new(k, 1), 150_000);
            assert!(
                (exact.self_coeff - sampled.self_coeff).abs() < 0.05,
                "k={k}: self exact {} vs sampled {}",
                exact.self_coeff,
                sampled.self_coeff
            );
            assert!(
                (exact.coupling_coeff - sampled.coupling_coeff).abs() < 0.08,
                "k={k}: coupling exact {} vs sampled {}",
                exact.coupling_coeff,
                sampled.coupling_coeff
            );
        }
    }

    #[test]
    fn exact_bi_energy_beats_uncoded_self_activity() {
        // BI(1)'s whole point: the exact self coefficient sits strictly
        // below the uncoded k/4 despite the invert wire.
        let e = bus_invert_exact_energy(8);
        assert!(e.self_coeff < 8.0 / 4.0 + 0.25, "self {}", e.self_coeff);
        // And strictly below uncoded-with-one-extra-wire (9/4), which a
        // code that did nothing would match.
        assert!(e.self_coeff < 9.0 / 4.0, "self {}", e.self_coeff);
    }
}

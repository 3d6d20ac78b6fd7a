//! The exhaustive-enumeration oracle: true word-error rates for small
//! buses, by summing channel probabilities over **all** error patterns.
//!
//! An unbiased-but-wrong importance sampler fails silently — its CI is
//! tight around the wrong number. The oracle is what makes it fail
//! loudly: for every scheme whose bus is narrow enough (`n ≤ 12` wires in
//! the vetted [`oracle_catalog`]), the failure set is enumerated exactly
//! and the estimators must statistically agree with the resulting rate.
//!
//! The key structural fact is that the i.i.d. channel's probability of an
//! error pattern depends only on its *weight*: `P(e) = ε^|e|·(1−ε)^(n−|e|)`.
//! So the oracle computes a [`FailureProfile`] — the average number of
//! failing patterns at each weight, averaged over **all** `2^k` data
//! words (eliminating data variance entirely) and over the decoder
//! phases of stateful schemes — once per `(scheme, k)`, ε-free; the true
//! WER at any ε is then a single binomial-weighted sum.

use socbus_codes::Scheme;
use socbus_model::Word;

/// Widest bus the oracle will enumerate: `2^k · 2^n · phases` decode
/// evaluations must stay tractable for a test suite.
pub const MAX_ORACLE_WIRES: usize = 16;

/// Warm-up/phase variants enumerated for stateful schemes (the BSC
/// decoder alternates between exactly two phases; the BI-family state is
/// failure-irrelevant, covered by the same two warm-up depths).
const STATEFUL_PHASES: u64 = 2;

/// The exact, ε-independent failure structure of one `(scheme, k)` cell.
#[derive(Clone, Debug, PartialEq)]
pub struct FailureProfile {
    /// The enumerated scheme.
    pub scheme: Scheme,
    /// Data bits per transfer.
    pub data_bits: usize,
    /// Physical bus wires `n`.
    pub wires: usize,
    /// `fail_avg[w]` = number of weight-`w` error patterns that corrupt
    /// the decoded data, averaged over all `2^k` data words and all
    /// phases; `0 ≤ fail_avg[w] ≤ C(n, w)`.
    pub fail_avg: Vec<f64>,
    /// Total decode evaluations performed (cost accounting).
    pub evaluations: u64,
}

impl FailureProfile {
    /// The exact word-error rate at i.i.d. per-wire flip probability
    /// `eps`: `Σ_w fail_avg[w] · ε^w · (1−ε)^(n−w)`.
    #[must_use]
    pub fn wer(&self, eps: f64) -> f64 {
        let n = self.wires;
        let mut total = 0.0;
        for (w, &avg) in self.fail_avg.iter().enumerate() {
            if avg > 0.0 {
                let w_i32 = i32::try_from(w).expect("weight fits i32");
                let rest = i32::try_from(n - w).expect("weight fits i32");
                total += avg * eps.powi(w_i32) * (1.0 - eps).powi(rest);
            }
        }
        total
    }

    /// Total failing-pattern mass summed over all weights (diagnostic:
    /// `0` means the code corrects every enumerable pattern, which no
    /// finite-distance code does once `w > t`).
    #[must_use]
    pub fn failing_patterns(&self) -> f64 {
        self.fail_avg.iter().sum()
    }
}

/// Enumerates the exact [`FailureProfile`] of `scheme` at width `k`.
///
/// For each phase (stateful schemes get two warm-up depths; stateless
/// get one) and each of the `2^k` data words, a fresh encoder/decoder
/// pair is built, warmed up in lockstep, and the data word encoded;
/// then **every** `2^n` error pattern is XORed onto the codeword and
/// decoded against a [`clone`](socbus_codes::CloneBusCode) of the
/// warmed decoder — the clone is what lets a stateful decoder be probed
/// `2^n` times from the identical state.
///
/// # Panics
///
/// Panics if the bus is wider than [`MAX_ORACLE_WIRES`].
#[must_use]
pub fn failure_profile(scheme: Scheme, k: usize) -> FailureProfile {
    let probe = scheme.build(k);
    let n = probe.wires();
    let stateful = probe.is_stateful();
    assert!(
        n <= MAX_ORACLE_WIRES,
        "oracle is exponential in wires: {} has n={n} > {MAX_ORACLE_WIRES}",
        probe.name()
    );
    let phases = if stateful { STATEFUL_PHASES } else { 1 };
    let mut fail_counts = vec![0u64; n + 1];
    let mut evaluations = 0u64;
    let zero = Word::zero(k);
    for phase in 0..phases {
        for d_bits in 0..(1u128 << k) {
            let d = Word::from_bits(d_bits, k);
            let mut enc = scheme.build(k);
            let mut dec = scheme.build(k);
            for _ in 0..phase {
                // Advance both endpoints one clean transfer per phase
                // step — the BSC phase toggles on every transfer.
                let warm = enc.encode(zero);
                let _ = dec.decode(warm);
            }
            let sent = enc.encode(d);
            for e_bits in 0..(1u128 << n) {
                let received = sent.xor(Word::from_bits(e_bits, n));
                evaluations += 1;
                // Stateful decoders are probed on a clone so every
                // pattern sees the identical warmed state; stateless
                // decoders have no state to disturb.
                let failed = if stateful {
                    dec.clone().decode(received) != d
                } else {
                    dec.decode(received) != d
                };
                if failed {
                    fail_counts[e_bits.count_ones() as usize] += 1;
                }
            }
        }
    }
    let denom = phases as f64 * (1u128 << k) as f64;
    FailureProfile {
        scheme,
        data_bits: k,
        wires: n,
        fail_avg: fail_counts.iter().map(|&c| c as f64 / denom).collect(),
        evaluations,
    }
}

/// The vetted oracle catalog: one `(scheme, k)` cell per catalog scheme,
/// each chosen as the widest `k` keeping the bus at ≤ 12 wires — every
/// scheme in [`Scheme::catalog`] is represented except `BI(8)`, whose
/// 8 sub-buses need ≥ 8 data bits and therefore ≥ 16 wires.
#[must_use]
pub fn oracle_catalog() -> Vec<(Scheme, usize)> {
    vec![
        (Scheme::Uncoded, 8),      // n = 8
        (Scheme::BusInvert(1), 6), // n = 7
        (Scheme::Shielding, 5),    // n = 9
        (Scheme::Duplication, 5),  // n = 10
        (Scheme::Ftc, 6),          // n = 9
        (Scheme::Parity, 7),       // n = 8
        (Scheme::Hamming, 6),      // n = 10
        (Scheme::HammingX, 5),     // n = 11
        (Scheme::Bih, 4),          // n = 9
        (Scheme::FtcHc, 3),        // n = 10
        (Scheme::Bsc, 4),          // n = 9
        (Scheme::Dap, 4),          // n = 9
        (Scheme::Dapx, 4),         // n = 10
        (Scheme::Dapbi, 4),        // n = 11
        (Scheme::ExtHamming, 5),   // n = 10
        (Scheme::BchDec, 4),       // n = 12
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use socbus_model::noise;

    #[test]
    fn uncoded_profile_matches_closed_form() {
        // Uncoded fails iff any wire flips: every nonzero pattern fails,
        // for every data word — fail_avg[w] = C(n, w) for w >= 1.
        let p = failure_profile(Scheme::Uncoded, 4);
        assert_eq!(p.wires, 4);
        assert_eq!(p.fail_avg, vec![0.0, 4.0, 6.0, 4.0, 1.0]);
        for eps in [1e-1, 1e-3, 1e-6] {
            let expect = noise::word_error_uncoded_exact(4, eps);
            assert!(
                (p.wer(eps) - expect).abs() / expect < 1e-9,
                "eps={eps}: {} vs {expect}",
                p.wer(eps)
            );
        }
    }

    #[test]
    fn hamming_profile_matches_eq8_shape() {
        // Hamming(4) on 7 wires corrects all weight-1 patterns; weight-2
        // patterns all mis-correct (perfect code: every syndrome maps to
        // a correction, and a double error corrects the wrong wire).
        let p = failure_profile(Scheme::Hamming, 4);
        assert_eq!(p.wires, 7);
        assert_eq!(p.fail_avg[0], 0.0);
        assert_eq!(p.fail_avg[1], 0.0, "single errors must all correct");
        assert!(p.fail_avg[2] > 0.0);
        let expect = noise::word_error_hamming(4, 3, 1e-3);
        let got = p.wer(1e-3);
        // The analytic eq. (8) counts *decoder-visible* failures; the
        // oracle counts decoded-data corruption — a double error can
        // land the mis-correction on a parity wire and deliver clean
        // data, so oracle <= analytic, within the C(n,2) scale.
        assert!(got <= expect * 1.0001, "oracle {got} vs analytic {expect}");
        assert!(got > expect * 0.3);
    }

    #[test]
    fn dap_profile_matches_appendix_ii() {
        let p = failure_profile(Scheme::Dap, 4);
        assert_eq!(p.fail_avg[1], 0.0, "DAP corrects all single errors");
        let eps = 1e-3;
        let exact = noise::word_error_dap_exact(4, eps);
        let got = p.wer(eps);
        assert!(
            (got - exact).abs() / exact < 0.05,
            "oracle {got} vs eq14 {exact}"
        );
    }

    #[test]
    fn correctable_errors_contract_holds_in_profile() {
        // Every scheme's profile must show zero failing patterns at all
        // weights <= correctable_errors() — the decode contract, now
        // verified exhaustively rather than by sampling.
        for (scheme, k) in oracle_catalog() {
            let t = scheme.build(k).correctable_errors();
            let p = failure_profile(scheme, k);
            for w in 0..=t {
                assert_eq!(
                    p.fail_avg[w],
                    0.0,
                    "{} k={k}: weight-{w} pattern fails despite t={t}",
                    scheme.name()
                );
            }
            assert!(
                p.failing_patterns() > 0.0,
                "{} k={k}: no finite code corrects everything",
                scheme.name()
            );
        }
    }

    #[test]
    fn oracle_catalog_stays_enumerable() {
        for (scheme, k) in oracle_catalog() {
            let wires = scheme.build(k).wires();
            assert!(
                wires <= 12,
                "{} k={k}: n={wires} breaks the <= 12 wire pledge",
                scheme.name()
            );
        }
        // One cell per catalog scheme except BI(8).
        assert_eq!(oracle_catalog().len(), Scheme::catalog().len() - 1);
    }
}

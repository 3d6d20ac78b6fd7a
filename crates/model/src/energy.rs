//! The DSM bus energy model — eqs. (2)–(4) of the paper.
//!
//! The average energy drawn per bus transfer is `E = tr(C_T · A) · Vdd²`
//! (eq. (2)), where `C_T` is the tridiagonal capacitance matrix of the
//! coupled bus (eq. (3)) and `A` is the transition-activity matrix of the
//! data (eq. (4)).
//!
//! For a *single* transfer the same physics is captured by the symmetric
//! quadratic form
//!
//! ```text
//! E / (C·Vdd²) = ½ · [ Σ_l Δ_l²  +  λ · Σ_l (Δ_l − Δ_{l+1})² ]
//! ```
//!
//! whose expectation over the data equals the trace form (verified by the
//! tests in this module). We expose both: the quadratic form as the
//! workhorse ([`transition_energy_coeff`]) because it cleanly separates the
//! self and coupling components, and the trace form
//! ([`average_energy_trace`]) for cross-validation against the paper's
//! equations.

use crate::transition::TransitionVector;
use crate::word::Word;

/// Why a requested operating point is energetically meaningless.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EnergyError {
    /// The swing is NaN or infinite.
    NonFiniteSwing(f64),
    /// The swing is zero or negative — a bus with no (or inverted)
    /// drive is not an operating point, and squaring it would silently
    /// launder the sign away.
    NonPositiveSwing(f64),
}

impl std::fmt::Display for EnergyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnergyError::NonFiniteSwing(s) => write!(f, "swing {s} is not finite"),
            EnergyError::NonPositiveSwing(s) => write!(f, "swing {s} is not positive"),
        }
    }
}

impl std::error::Error for EnergyError {}

/// Energy multiplier of running the bus at `swing` times the nominal
/// voltage: `swing²` (energy goes as `V²`). Degenerate swings are
/// rejected instead of leaking NaN/Inf/0 into downstream reports.
///
/// # Errors
///
/// Returns an [`EnergyError`] when `swing` is non-finite, zero, or
/// negative.
pub fn swing_energy_scale(swing: f64) -> Result<f64, EnergyError> {
    if !swing.is_finite() {
        return Err(EnergyError::NonFiniteSwing(swing));
    }
    if swing <= 0.0 {
        return Err(EnergyError::NonPositiveSwing(swing));
    }
    Ok(swing * swing)
}

/// Normalized bus energy of one transfer, split into self and coupling
/// components. The physical energy is
/// `(self_coeff + λ·coupling_coeff) · C · Vdd²`, with `C` the total bulk
/// capacitance of one wire.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct EnergyCoeff {
    /// Coefficient of `C·Vdd²` from self (bulk) capacitance switching.
    pub self_coeff: f64,
    /// Coefficient of `λ·C·Vdd²` from inter-wire coupling switching.
    pub coupling_coeff: f64,
}

impl EnergyCoeff {
    /// Total normalized energy `self + λ·coupling`, in units of `C·Vdd²`.
    #[must_use]
    pub fn total(self, lambda: f64) -> f64 {
        self.self_coeff + lambda * self.coupling_coeff
    }

    /// Physical energy in joules given per-wire bulk capacitance `c_bulk`
    /// (farads) and supply `vdd` (volts).
    #[must_use]
    pub fn energy_joules(self, lambda: f64, c_bulk: f64, vdd: f64) -> f64 {
        self.total(lambda) * c_bulk * vdd * vdd
    }

    /// Component-wise sum (for accumulating averages).
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: EnergyCoeff) -> EnergyCoeff {
        EnergyCoeff {
            self_coeff: self.self_coeff + other.self_coeff,
            coupling_coeff: self.coupling_coeff + other.coupling_coeff,
        }
    }

    /// Component-wise scaling (for normalizing accumulated sums).
    #[must_use]
    pub fn scale(self, s: f64) -> EnergyCoeff {
        EnergyCoeff {
            self_coeff: self.self_coeff * s,
            coupling_coeff: self.coupling_coeff * s,
        }
    }

    /// The coefficient rescaled to a bus driven at `swing` times the
    /// nominal voltage (energy goes as `swing²`), rejecting degenerate
    /// swings instead of propagating NaN/Inf.
    ///
    /// # Errors
    ///
    /// Returns an [`EnergyError`] when `swing` fails
    /// [`swing_energy_scale`].
    pub fn at_swing(self, swing: f64) -> Result<EnergyCoeff, EnergyError> {
        Ok(self.scale(swing_energy_scale(swing)?))
    }
}

/// Energy coefficient of a single bus transfer via the quadratic form.
#[must_use]
pub fn transition_energy_coeff(tv: &TransitionVector) -> EnergyCoeff {
    let deltas: Vec<f64> = tv.iter().map(|t| f64::from(t.delta())).collect();
    let self_coeff = 0.5 * deltas.iter().map(|d| d * d).sum::<f64>();
    let coupling_coeff = 0.5
        * deltas
            .windows(2)
            .map(|w| (w[0] - w[1]) * (w[0] - w[1]))
            .sum::<f64>();
    EnergyCoeff {
        self_coeff,
        coupling_coeff,
    }
}

/// Energy coefficient of the transfer `before → after`, computed on whole
/// words without allocating.
///
/// With toggle plane `t = before ⊕ after`, the quadratic form reduces to
/// popcounts: the self term is `½·|t|`, and a neighbour pair contributes
/// `(Δ_l − Δ_{l+1})² = 1` when exactly one of its wires toggles and `4`
/// when they switch in opposite directions — both toggle and they land on
/// different values — so the coupling term is
/// `½·(|t_l ⊕ t_{l+1}| + 4·|t_l ∧ t_{l+1} ∧ (after_l ⊕ after_{l+1})|)`.
/// Every count is an integer, so the result is bit-identical to
/// [`transition_energy_coeff`] — including its `−0.0` for sums with no
/// terms (width 0, or no pairs at width 1), which is what an empty `f64`
/// sum yields.
///
/// # Panics
///
/// Panics if the words have different widths.
#[must_use]
pub fn word_transition_energy(before: Word, after: Word) -> EnergyCoeff {
    // The reference's value for a sum with no terms (−0.0 on current
    // toolchains); folds to a constant.
    let empty_sum: f64 = std::iter::empty::<f64>().sum();
    assert_eq!(before.width(), after.width(), "width mismatch");
    let n = before.width();
    if n == 0 {
        return EnergyCoeff {
            self_coeff: 0.5 * empty_sum,
            coupling_coeff: 0.5 * empty_sum,
        };
    }
    // Pair l couples wires l and l + 1: compare each plane with itself
    // shifted down by one wire, limb by limb from the top, carrying each
    // limb's low wire into the limb below. Both words are zero above
    // wire n − 1, so wire n − 1's shifted partner is 0: no pair starts
    // there, and its toggle bit in `t ^ t_hi` is taken back out below.
    let (mut toggles, mut one_switches, mut opposing) = (0, 0, 0);
    let (mut t_up, mut a_up) = (0u64, 0u64);
    for l in (0..n.div_ceil(64)).rev() {
        let a = after.limb(l);
        let t = before.limb(l) ^ a;
        let t_hi = t >> 1 | t_up << 63;
        let a_hi = a >> 1 | a_up << 63;
        toggles += t.count_ones();
        one_switches += (t ^ t_hi).count_ones();
        opposing += (t & t_hi & (a ^ a_hi)).count_ones();
        (t_up, a_up) = (t, a);
    }
    let last = n - 1;
    let last_toggle = (before.limb(last / 64) ^ after.limb(last / 64)) >> (last % 64) & 1;
    one_switches -= last_toggle as u32;
    let coupling_sum = if last == 0 {
        empty_sum
    } else {
        f64::from(one_switches + 4 * opposing)
    };
    EnergyCoeff {
        self_coeff: 0.5 * f64::from(toggles),
        coupling_coeff: 0.5 * coupling_sum,
    }
}

/// The `n × n` capacitance matrix `C_T` of eq. (3), in units of the bulk
/// capacitance `C`: `(1+λ)` / `(1+2λ)` on the diagonal (edge/middle wires)
/// and `−λ` on the first off-diagonals.
///
/// # Panics
///
/// Panics if `n < 2` (the matrix form assumes at least one coupled pair).
#[must_use]
pub fn capacitance_matrix(n: usize, lambda: f64) -> Vec<Vec<f64>> {
    assert!(n >= 2, "capacitance matrix needs n >= 2 wires");
    let mut m = vec![vec![0.0; n]; n];
    for (i, row) in m.iter_mut().enumerate() {
        row[i] = if i == 0 || i == n - 1 {
            1.0 + lambda
        } else {
            1.0 + 2.0 * lambda
        };
        if i > 0 {
            row[i - 1] = -lambda;
        }
        if i + 1 < n {
            row[i + 1] = -lambda;
        }
    }
    m
}

/// Average energy per transfer via the paper's trace form `tr(C_T·A)`, in
/// units of `C·Vdd²`, computed over an explicit sequence of bus words.
///
/// The activity matrix entries follow eq. (4):
/// `a_ij = E[uᵢᵇuⱼᵇ] − (E[uᵢᵇuⱼᵃ] + E[uⱼᵇuᵢᵃ])/2`, estimated over the
/// consecutive pairs of `words`.
///
/// # Panics
///
/// Panics if fewer than two words are given, widths differ, or width < 2.
#[must_use]
pub fn average_energy_trace(words: &[Word], lambda: f64) -> f64 {
    assert!(words.len() >= 2, "need at least one transition");
    let n = words[0].width();
    let transfers = (words.len() - 1) as f64;
    let mut a = vec![vec![0.0; n]; n];
    for pair in words.windows(2) {
        let (b, af) = (pair[0], pair[1]);
        assert_eq!(b.width(), n, "width mismatch in word sequence");
        assert_eq!(af.width(), n, "width mismatch in word sequence");
        for (i, row) in a.iter_mut().enumerate() {
            for (j, aij) in row.iter_mut().enumerate() {
                let ub_i = f64::from(u8::from(b.bit(i)));
                let ub_j = f64::from(u8::from(b.bit(j)));
                let ua_i = f64::from(u8::from(af.bit(i)));
                let ua_j = f64::from(u8::from(af.bit(j)));
                *aij += ub_i * ub_j - (ub_i * ua_j + ub_j * ua_i) / 2.0;
            }
        }
    }
    let ct = capacitance_matrix(n, lambda);
    let mut trace = 0.0;
    for i in 0..n {
        for j in 0..n {
            trace += ct[i][j] * a[j][i] / transfers;
        }
    }
    trace
}

/// Exact average energy coefficient of an *uncoded* bus with spatially and
/// temporally uncorrelated equiprobable data: `n/4` self and
/// `(n−1)/2` coupling (e.g. `8.00 + 15.5λ` for 32 wires).
#[must_use]
pub fn uncoded_average_coeff(n: usize) -> EnergyCoeff {
    EnergyCoeff {
        self_coeff: n as f64 / 4.0,
        coupling_coeff: (n.saturating_sub(1)) as f64 / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rise_on_isolated_middle_wire() {
        let e = word_transition_energy(Word::from_bits(0b000, 3), Word::from_bits(0b010, 3));
        assert_eq!(e.self_coeff, 0.5);
        // Both couplings see the full swing: ½(1² + 1²) = 1.
        assert_eq!(e.coupling_coeff, 1.0);
    }

    #[test]
    fn opposing_neighbors_double_coupling_energy() {
        // 01 -> 10: both wires switch oppositely; coupling sees 2·Vdd swing.
        let e = word_transition_energy(Word::from_bits(0b01, 2), Word::from_bits(0b10, 2));
        assert_eq!(e.self_coeff, 1.0);
        assert_eq!(e.coupling_coeff, 2.0);
    }

    #[test]
    fn common_mode_switching_has_no_coupling_energy() {
        let e = word_transition_energy(Word::from_bits(0b00, 2), Word::from_bits(0b11, 2));
        assert_eq!(e.self_coeff, 1.0);
        assert_eq!(e.coupling_coeff, 0.0);
    }

    #[test]
    fn idle_bus_consumes_nothing() {
        let w = Word::from_bits(0b1010, 4);
        let e = word_transition_energy(w, w);
        assert_eq!(e.total(3.0), 0.0);
    }

    #[test]
    fn capacitance_matrix_shape() {
        let m = capacitance_matrix(4, 2.0);
        assert_eq!(m[0][0], 3.0);
        assert_eq!(m[1][1], 5.0);
        assert_eq!(m[3][3], 3.0);
        assert_eq!(m[0][1], -2.0);
        assert_eq!(m[1][0], -2.0);
        assert_eq!(m[0][2], 0.0);
    }

    #[test]
    fn uncoded_coefficients_match_paper_table() {
        // Paper Table III, uncoded 32-bit row gives 8.00 self; our exact
        // coupling count is 15.5 (the paper rounds the edge-wire correction).
        let c = uncoded_average_coeff(32);
        assert_eq!(c.self_coeff, 8.00);
        assert_eq!(c.coupling_coeff, 15.5);
        // Table II, 7-wire Hamming bus: 1.75 + 3.00λ.
        let c = uncoded_average_coeff(7);
        assert_eq!(c.self_coeff, 1.75);
        assert_eq!(c.coupling_coeff, 3.0);
    }

    #[test]
    fn trace_form_matches_quadratic_form_on_exhaustive_average() {
        // Average over every ordered pair of 3-bit words: the trace form of
        // eqs. (2)-(4) must equal the average of the quadratic form.
        let lambda = 1.9;
        let n = 3;
        let mut quad_sum = 0.0;
        let mut seq = Vec::new();
        let mut count = 0.0;
        for b in Word::enumerate_all(n) {
            for a in Word::enumerate_all(n) {
                quad_sum += word_transition_energy(b, a).total(lambda);
                // Build an equivalent two-word "sequence" trace and average.
                seq.push(average_energy_trace(&[b, a], lambda));
                count += 1.0;
            }
        }
        let quad_avg = quad_sum / count;
        let trace_avg = seq.iter().sum::<f64>() / count;
        assert!(
            (quad_avg - trace_avg).abs() < 1e-12,
            "quad {quad_avg} vs trace {trace_avg}"
        );
        // And both equal the closed form for an uncoded bus.
        let closed = uncoded_average_coeff(n).total(lambda);
        assert!((quad_avg - closed).abs() < 1e-12);
    }

    #[test]
    fn trace_form_on_closed_cycle_sequence() {
        // The trace form measures energy drawn from the supply; it equals
        // the dissipated (quadratic-form) energy only when no net charge is
        // stored, i.e. over a closed cycle of bus states.
        let lambda = 0.95;
        let mut words: Vec<Word> = (0u128..64).map(|i| Word::from_bits(i * 37, 6)).collect();
        words.push(words[0]);
        let trace = average_energy_trace(&words, lambda);
        let quad: f64 = words
            .windows(2)
            .map(|p| word_transition_energy(p[0], p[1]).total(lambda))
            .sum::<f64>()
            / (words.len() - 1) as f64;
        assert!((trace - quad).abs() < 1e-9, "trace {trace} vs quad {quad}");
    }

    #[test]
    fn degenerate_swings_are_rejected_not_squared() {
        assert_eq!(
            swing_energy_scale(0.0),
            Err(EnergyError::NonPositiveSwing(0.0))
        );
        assert_eq!(
            swing_energy_scale(-1.2),
            Err(EnergyError::NonPositiveSwing(-1.2))
        );
        assert!(matches!(
            swing_energy_scale(f64::NAN),
            Err(EnergyError::NonFiniteSwing(_))
        ));
        assert_eq!(
            swing_energy_scale(f64::INFINITY),
            Err(EnergyError::NonFiniteSwing(f64::INFINITY))
        );
        let s = swing_energy_scale(0.7).expect("valid swing");
        assert!((s - 0.49).abs() < 1e-15);
        let e = EnergyCoeff {
            self_coeff: 2.0,
            coupling_coeff: 4.0,
        };
        let scaled = e.at_swing(0.5).expect("valid swing");
        assert_eq!(scaled.self_coeff, 0.5);
        assert_eq!(scaled.coupling_coeff, 1.0);
        assert!(e.at_swing(-0.5).is_err());
        // No NaN ever escapes into a coefficient.
        assert!(e.at_swing(f64::NAN).is_err());
    }

    #[test]
    fn energy_joules_scales_with_c_and_v() {
        let e = EnergyCoeff {
            self_coeff: 2.0,
            coupling_coeff: 1.0,
        };
        let j = e.energy_joules(2.0, 1e-12, 1.2);
        assert!((j - 4.0 * 1e-12 * 1.44).abs() < 1e-24);
    }
}

//! The unified coding framework composer (paper §III, Fig. 4).
//!
//! A framework instance stacks up to three component codes around a
//! `k`-bit data word:
//!
//! ```text
//! data ──CAC──▶ n code bits ──LPC──▶ n code bits + p invert bits
//!                                         │              │
//!                                        ECC ◀───────────┤
//!                                         │              │
//!            bus = [ n code bits | LXC1(p invert) | LXC2(m parity) ]
//! ```
//!
//! and enforces the paper's five composition conditions:
//!
//! 1. CAC is outermost (nonlinear, disruptive mapping) — by construction.
//! 2. LPC must not destroy the CAC constraint — bus-invert composes with
//!    FP-based CACs (complementing preserves the FP condition) but not
//!    with FT-based ones; illegal pairs are rejected.
//! 3. LPC invert bits go through a linear CAC (LXC1).
//! 4. ECC is systematic — all ECCs here are.
//! 5. ECC parity bits go through a linear CAC (LXC2).
//!
//! The composer yields a working [`ComposedCode`], a word codec that
//! holds its CAC and ECC stages as the codec types themselves (a
//! [`Shielding`], a [`Hamming`], …) and reads wires, parity counts,
//! guarantees and delay class from them. The paper's named joint codes
//! are hand-optimized instances of the same structure, written once per
//! family in both word and bit-plane forms: [`crate::Dap`] (DAP, DAPX,
//! DAPBI, BSC — DAPBI fuses the duplication into the DAP decoder) and
//! [`crate::Hamming`] (Hamming, HammingX, BIH, ExtHamming). The composer
//! reads the bus-invert sub-bus partition from [`BusInvert::subs`], the
//! one statement of it.

use crate::cac::{Duplication, ForbiddenPatternCode, ForbiddenTransitionCode, Shielding};
use crate::ecc::{Hamming, ParityBit};
use crate::lpc::BusInvert;
use crate::traits::{BusCode, DecodeStatus};
use socbus_model::{DelayClass, Word};
use std::fmt;

/// CAC component selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CacChoice {
    /// No crosstalk avoidance on the data bits.
    #[default]
    None,
    /// Grounded shield between data wires (FT, linear).
    Shielding,
    /// Every bit duplicated (FP, linear).
    Duplication,
    /// Fibonacci-codebook forbidden-transition code (FT, nonlinear).
    Ftc,
    /// Forbidden-pattern codebook (FP, nonlinear).
    Fpc,
}

impl CacChoice {
    /// Whether this CAC's guarantee survives complementing the code bits.
    fn survives_inversion(self) -> bool {
        matches!(
            self,
            CacChoice::None | CacChoice::Duplication | CacChoice::Fpc
        )
    }

    /// The stage's part of a composed name (`"Dup"` in `"Dup+Parity"`).
    fn label(self) -> Option<&'static str> {
        match self {
            CacChoice::None => None,
            CacChoice::Shielding => Some("Shield"),
            CacChoice::Duplication => Some("Dup"),
            CacChoice::Ftc => Some("FTC"),
            CacChoice::Fpc => Some("FPC"),
        }
    }
}

/// LPC component selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LpcChoice {
    /// No low-power coding.
    #[default]
    None,
    /// Bus-invert with the given number of sub-buses.
    BusInvert(usize),
}

/// ECC component selection (all systematic, per condition 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EccChoice {
    /// No error control.
    #[default]
    None,
    /// Single even-parity bit (detect 1).
    Parity,
    /// Hamming (correct 1).
    Hamming,
    /// Extended Hamming (correct 1, detect 2).
    ExtendedHamming,
}

/// Linear crosstalk-avoidance code for invert/parity side bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LxcChoice {
    /// Each side bit flanked by a grounded shield: `b → 2b` wires, and the
    /// leading shield isolates the region from its left neighbor.
    Shielding,
    /// Each side bit duplicated: `b → 2b` wires.
    Duplication,
}

/// Errors rejected by the framework's composition rules.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompositionError {
    /// Condition 2: the chosen LPC would destroy the CAC constraint
    /// (e.g. bus-invert over an FT-based code).
    LpcBreaksCac { cac: &'static str },
    /// Condition 3: an LPC produces invert bits but no LXC1 was given
    /// while the data bits carry a CAC guarantee.
    MissingLxc1,
    /// Condition 5: an ECC produces parity bits but no LXC2 was given
    /// while the data bits carry a CAC guarantee.
    MissingLxc2,
    /// The assembled bus exceeds the word-width limit.
    TooWide { wires: usize },
}

impl fmt::Display for CompositionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompositionError::LpcBreaksCac { cac } => {
                write!(f, "bus-invert destroys the {cac} crosstalk constraint")
            }
            CompositionError::MissingLxc1 => {
                write!(
                    f,
                    "invert bits need a linear CAC (LXC1) to keep the delay guarantee"
                )
            }
            CompositionError::MissingLxc2 => {
                write!(
                    f,
                    "parity bits need a linear CAC (LXC2) to keep the delay guarantee"
                )
            }
            CompositionError::TooWide { wires } => {
                write!(f, "composed bus of {wires} wires is too wide")
            }
        }
    }
}

impl std::error::Error for CompositionError {}

/// Builder for a framework instance.
///
/// # Examples
///
/// A "generic DAPBI": duplication CAC + BI(1) + parity, invert bit through
/// LXC1 = duplication:
///
/// ```
/// use socbus_codes::framework::{CacChoice, EccChoice, Framework, LpcChoice, LxcChoice};
/// use socbus_codes::BusCode;
/// use socbus_model::Word;
///
/// # fn main() -> Result<(), socbus_codes::framework::CompositionError> {
/// let mut code = Framework::new(4)
///     .cac(CacChoice::Duplication)
///     .lpc(LpcChoice::BusInvert(1))
///     .lxc1(LxcChoice::Duplication)
///     .ecc(EccChoice::Parity)
///     .lxc2(LxcChoice::Duplication)
///     .build()?;
/// let d = Word::from_bits(0b1010, 4);
/// let coded = code.encode(d);
/// assert_eq!(code.decode(coded), d);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct Framework {
    k: usize,
    cac: CacChoice,
    lpc: LpcChoice,
    ecc: EccChoice,
    lxc1: Option<LxcChoice>,
    lxc2: Option<LxcChoice>,
}

impl Framework {
    /// Starts a framework instance over `k` data bits.
    #[must_use]
    pub fn new(k: usize) -> Self {
        Framework {
            k,
            ..Framework::default()
        }
    }

    /// Selects the crosstalk-avoidance component.
    #[must_use]
    pub fn cac(mut self, c: CacChoice) -> Self {
        self.cac = c;
        self
    }

    /// Selects the low-power component.
    #[must_use]
    pub fn lpc(mut self, l: LpcChoice) -> Self {
        self.lpc = l;
        self
    }

    /// Selects the error-control component.
    #[must_use]
    pub fn ecc(mut self, e: EccChoice) -> Self {
        self.ecc = e;
        self
    }

    /// Selects the linear CAC protecting the invert bits.
    #[must_use]
    pub fn lxc1(mut self, l: LxcChoice) -> Self {
        self.lxc1 = Some(l);
        self
    }

    /// Selects the linear CAC protecting the parity bits.
    #[must_use]
    pub fn lxc2(mut self, l: LxcChoice) -> Self {
        self.lxc2 = Some(l);
        self
    }

    /// Validates the composition rules and assembles the code.
    ///
    /// # Errors
    ///
    /// Returns a [`CompositionError`] when the combination violates one of
    /// the paper's conditions (see module docs).
    pub fn build(self) -> Result<ComposedCode, CompositionError> {
        let has_cac_guarantee = !matches!(self.cac, CacChoice::None);
        if !matches!(self.lpc, LpcChoice::None) && !self.cac.survives_inversion() {
            let name = match self.cac {
                CacChoice::Shielding => "shielding",
                CacChoice::Ftc => "FTC",
                _ => unreachable!("inversion-safe CACs handled above"),
            };
            return Err(CompositionError::LpcBreaksCac { cac: name });
        }
        if has_cac_guarantee && !matches!(self.lpc, LpcChoice::None) && self.lxc1.is_none() {
            return Err(CompositionError::MissingLxc1);
        }
        if has_cac_guarantee && !matches!(self.ecc, EccChoice::None) && self.lxc2.is_none() {
            return Err(CompositionError::MissingLxc2);
        }

        let k = self.k;
        let cac: Option<Box<dyn BusCode>> = match self.cac {
            CacChoice::None => None,
            CacChoice::Shielding => Some(Box::new(Shielding::new(k))),
            CacChoice::Duplication => Some(Box::new(Duplication::new(k))),
            CacChoice::Ftc => Some(Box::new(ForbiddenTransitionCode::new(k))),
            CacChoice::Fpc => Some(Box::new(ForbiddenPatternCode::new(k))),
        };
        let n = cac.as_ref().map_or(k, |c| c.wires());
        let lpc = match self.lpc {
            LpcChoice::None => None,
            LpcChoice::BusInvert(i) => Some(BusInvert::new(n, i)),
        };
        let p = lpc.as_ref().map_or(0, BusInvert::sub_buses);
        let protected = n + p;
        let ecc: Option<Box<dyn BusCode>> = match self.ecc {
            EccChoice::None => None,
            EccChoice::Parity => Some(Box::new(ParityBit::new(protected))),
            EccChoice::Hamming => Some(Box::new(Hamming::new(protected))),
            EccChoice::ExtendedHamming => Some(Box::new(Hamming::extended(protected))),
        };
        let m = ecc.as_ref().map_or(0, |e| e.wires() - e.data_bits());
        let lxc1_wires = expanded_wires(self.lxc1, p);
        let lxc2_wires = expanded_wires(self.lxc2, m);
        let wires = n + lxc1_wires + lxc2_wires;
        if wires > socbus_model::word::MAX_WIDTH {
            return Err(CompositionError::TooWide { wires });
        }
        let parts = [
            self.cac.label().map(String::from),
            lpc.as_ref().map(BusCode::name),
            ecc.as_ref().map(|e| e.name()),
        ];
        let name = parts.into_iter().flatten().collect::<Vec<_>>().join("+");
        Ok(ComposedCode {
            name: if name.is_empty() {
                "Uncoded".into()
            } else {
                name
            },
            k,
            n,
            p,
            m,
            lxc1: self.lxc1,
            lxc2: self.lxc2,
            cac,
            lpc,
            ecc,
            wires,
        })
    }
}

fn expanded_wires(lxc: Option<LxcChoice>, bits: usize) -> usize {
    if bits == 0 {
        0
    } else {
        match lxc {
            None => bits,
            Some(LxcChoice::Shielding) | Some(LxcChoice::Duplication) => 2 * bits,
        }
    }
}

/// A code assembled by the [`Framework`] builder.
///
/// Bus layout: `[n CAC/LPC code wires | LXC1(invert bits) | LXC2(parity)]`.
/// Decoding runs ECC → LPC → CAC, the order condition 1 mandates.
#[derive(Clone, Debug)]
pub struct ComposedCode {
    name: String,
    k: usize,
    n: usize,
    p: usize,
    m: usize,
    lxc1: Option<LxcChoice>,
    lxc2: Option<LxcChoice>,
    cac: Option<Box<dyn BusCode>>,
    lpc: Option<BusInvert>,
    ecc: Option<Box<dyn BusCode>>,
    wires: usize,
}

impl ComposedCode {
    /// Number of LPC invert bits `p`.
    #[must_use]
    pub fn invert_bits(&self) -> usize {
        self.p
    }

    /// Number of ECC parity bits `m`.
    #[must_use]
    pub fn ecc_parity_bits(&self) -> usize {
        self.m
    }

    /// Lays side `bits` out through an LXC into `out` starting at `base`;
    /// returns the wire count consumed.
    fn place_side_bits(out: &mut Word, base: usize, bits: Word, lxc: Option<LxcChoice>) -> usize {
        match lxc {
            None => {
                for i in 0..bits.width() {
                    out.set_bit(base + i, bits.bit(i));
                }
                bits.width()
            }
            Some(LxcChoice::Shielding) => {
                // [S, b0, S, b1, ...]
                for i in 0..bits.width() {
                    out.set_bit(base + 2 * i + 1, bits.bit(i));
                }
                2 * bits.width()
            }
            Some(LxcChoice::Duplication) => {
                for i in 0..bits.width() {
                    out.set_bit(base + 2 * i, bits.bit(i));
                    out.set_bit(base + 2 * i + 1, bits.bit(i));
                }
                2 * bits.width()
            }
        }
    }

    /// Reads side bits back from the bus; returns (bits, wires consumed).
    fn read_side_bits(
        bus: Word,
        base: usize,
        count: usize,
        lxc: Option<LxcChoice>,
    ) -> (Word, usize) {
        let mut bits = Word::zero(count);
        match lxc {
            None => {
                for i in 0..count {
                    bits.set_bit(i, bus.bit(base + i));
                }
                (bits, count)
            }
            Some(LxcChoice::Shielding) => {
                for i in 0..count {
                    bits.set_bit(i, bus.bit(base + 2 * i + 1));
                }
                (bits, 2 * count)
            }
            Some(LxcChoice::Duplication) => {
                // Use copy A; copy B only guards the wire flight.
                for i in 0..count {
                    bits.set_bit(i, bus.bit(base + 2 * i));
                }
                (bits, 2 * count)
            }
        }
    }
}

impl BusCode for ComposedCode {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn data_bits(&self) -> usize {
        self.k
    }

    fn wires(&self) -> usize {
        self.wires
    }

    fn encode(&mut self, data: Word) -> Word {
        assert_eq!(data.width(), self.k, "data width mismatch");
        let code = match &mut self.cac {
            None => data,
            Some(c) => c.encode(data),
        };
        let (code, inverts) = match &mut self.lpc {
            None => (code, Word::zero(0)),
            // BusInvert interleaves invert wires; extract them back out
            // into (code', invert bits).
            Some(bi) => {
                let coded = bi.encode(code);
                split_bus_invert(bi, coded)
            }
        };
        let payload = code.concat(inverts);
        let parity = match &mut self.ecc {
            None => Word::zero(0),
            Some(e) => e.encode(payload).slice(payload.width(), self.m),
        };
        let mut out = Word::zero(self.wires);
        for i in 0..self.n {
            out.set_bit(i, code.bit(i));
        }
        let mut base = self.n;
        base += Self::place_side_bits(&mut out, base, inverts, self.lxc1);
        let _ = Self::place_side_bits(&mut out, base, parity, self.lxc2);
        out
    }

    fn decode(&mut self, bus: Word) -> Word {
        self.decode_checked(bus).0
    }

    fn decode_checked(&mut self, bus: Word) -> (Word, DecodeStatus) {
        assert_eq!(bus.width(), self.wires, "bus width mismatch");
        let code = bus.slice(0, self.n);
        let mut base = self.n;
        let (inverts, used) = Self::read_side_bits(bus, base, self.p, self.lxc1);
        base += used;
        let (parity, _) = Self::read_side_bits(bus, base, self.m, self.lxc2);
        // ECC first (condition 1: correction precedes all other decoding).
        let payload = code.concat(inverts);
        let (payload, status) = match &mut self.ecc {
            None => (payload, DecodeStatus::Unchecked),
            Some(e) => e.decode_checked(payload.concat(parity)),
        };
        let code = payload.slice(0, self.n);
        let inverts = payload.slice(self.n, self.p);
        let code = match &mut self.lpc {
            None => code,
            Some(bi) => {
                let merged = merge_bus_invert(bi, code, inverts);
                bi.decode(merged)
            }
        };
        let data = match &mut self.cac {
            None => code,
            Some(c) => c.decode(code),
        };
        (data, status)
    }

    fn reset(&mut self) {
        if let Some(bi) = &mut self.lpc {
            bi.reset();
        }
    }

    fn is_stateful(&self) -> bool {
        self.lpc.is_some()
    }

    fn correctable_errors(&self) -> usize {
        self.ecc.as_ref().map_or(0, |e| e.correctable_errors())
    }

    fn detectable_errors(&self) -> usize {
        self.ecc.as_ref().map_or(0, |e| e.detectable_errors())
    }

    fn guaranteed_delay_class(&self) -> DelayClass {
        self.cac
            .as_ref()
            .map_or(DelayClass::WORST, |c| c.guaranteed_delay_class())
    }
}

/// Splits a BusInvert bus word into (data lines, invert lines).
fn split_bus_invert(bi: &BusInvert, coded: Word) -> (Word, Word) {
    let mut code = Word::zero(bi.data_bits());
    let mut inv = Word::zero(bi.sub_buses());
    for (s, sub) in bi.subs().enumerate() {
        code = code.place(sub.data_lo, coded.slice(sub.wire_lo, sub.len));
        inv.set_bit(s, coded.bit(sub.wire_lo + sub.len));
    }
    (code, inv)
}

/// Rebuilds the interleaved BusInvert layout from (data lines, inverts).
fn merge_bus_invert(bi: &BusInvert, code: Word, inv: Word) -> Word {
    let mut out = Word::zero(bi.wires());
    for (s, sub) in bi.subs().enumerate() {
        out = out.place(sub.wire_lo, code.slice(sub.data_lo, sub.len));
        out.set_bit(sub.wire_lo + sub.len, inv.bit(s));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn roundtrip(code: &mut ComposedCode, k: usize, trials: usize, seed: u64) {
        let mut dec = code.clone();
        code.reset();
        dec.reset();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..trials {
            let d = Word::from_bits(rng.gen::<u128>(), k);
            assert_eq!(dec.decode(code.encode(d)), d, "{}", code.name());
        }
    }

    #[test]
    fn plain_combinations_roundtrip() {
        for cac in [
            CacChoice::None,
            CacChoice::Shielding,
            CacChoice::Duplication,
            CacChoice::Ftc,
        ] {
            for ecc in [EccChoice::None, EccChoice::Parity, EccChoice::Hamming] {
                let mut b = Framework::new(6).cac(cac).ecc(ecc);
                if !matches!(cac, CacChoice::None) {
                    b = b.lxc2(LxcChoice::Shielding);
                }
                let mut code = b.build().expect("legal composition");
                roundtrip(&mut code, 6, 100, 7);
            }
        }
    }

    #[test]
    fn generic_dapbi_roundtrips_and_corrects() {
        let code = Framework::new(4)
            .cac(CacChoice::Duplication)
            .lpc(LpcChoice::BusInvert(1))
            .lxc1(LxcChoice::Duplication)
            .ecc(EccChoice::Hamming)
            .lxc2(LxcChoice::Duplication)
            .build()
            .expect("legal composition");
        let mut enc = code.clone();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            let d = Word::from_bits(rng.gen::<u128>(), 4);
            let cw = enc.encode(d);
            let wire = rng.gen_range(0..cw.width());
            let mut dec = code.clone();
            assert_eq!(dec.decode(cw.with_bit(wire, !cw.bit(wire))), d);
        }
    }

    #[test]
    fn bih_equivalent_composition() {
        // LPC + ECC without CAC: no LXC needed (no delay guarantee to keep).
        let mut code = Framework::new(8)
            .lpc(LpcChoice::BusInvert(1))
            .ecc(EccChoice::Hamming)
            .build()
            .expect("legal composition");
        assert_eq!(code.wires(), 8 + 1 + 4);
        roundtrip(&mut code, 8, 200, 13);
    }

    #[test]
    fn condition2_rejects_bus_invert_over_ftc() {
        let err = Framework::new(6)
            .cac(CacChoice::Ftc)
            .lpc(LpcChoice::BusInvert(1))
            .lxc1(LxcChoice::Shielding)
            .build()
            .unwrap_err();
        assert!(matches!(err, CompositionError::LpcBreaksCac { .. }));
    }

    #[test]
    fn condition3_requires_lxc1() {
        let err = Framework::new(6)
            .cac(CacChoice::Duplication)
            .lpc(LpcChoice::BusInvert(1))
            .ecc(EccChoice::Parity)
            .lxc2(LxcChoice::Duplication)
            .build()
            .unwrap_err();
        assert_eq!(err, CompositionError::MissingLxc1);
    }

    #[test]
    fn condition5_requires_lxc2() {
        let err = Framework::new(6)
            .cac(CacChoice::Shielding)
            .ecc(EccChoice::Hamming)
            .build()
            .unwrap_err();
        assert_eq!(err, CompositionError::MissingLxc2);
    }

    #[test]
    fn composed_name_reflects_components() {
        let code = Framework::new(4)
            .cac(CacChoice::Duplication)
            .ecc(EccChoice::Parity)
            .lxc2(LxcChoice::Duplication)
            .build()
            .unwrap();
        assert_eq!(code.name(), "Dup+Parity");
    }

    #[test]
    fn composed_dap_equivalent_has_dapx_wire_count() {
        // Duplication + parity with LXC2=duplication is the generic DAPX:
        // 2k data wires + 2 parity wires.
        let code = Framework::new(4)
            .cac(CacChoice::Duplication)
            .ecc(EccChoice::Parity)
            .lxc2(LxcChoice::Duplication)
            .build()
            .unwrap();
        assert_eq!(code.wires(), 10);
    }

    #[test]
    fn extended_hamming_detects_doubles_through_framework() {
        let code = Framework::new(6)
            .ecc(EccChoice::ExtendedHamming)
            .build()
            .unwrap();
        let mut enc = code.clone();
        let d = Word::from_bits(0b101101, 6);
        let cw = enc.encode(d);
        let bad = cw.with_bit(0, !cw.bit(0)).with_bit(3, !cw.bit(3));
        let mut dec = code.clone();
        let (_, status) = dec.decode_checked(bad);
        assert_eq!(status, DecodeStatus::Detected);
    }
}

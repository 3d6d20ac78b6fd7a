//! A catalog of every scheme in the paper's evaluation (Tables II & III),
//! constructible by name — the entry point used by the benches, the NoC
//! simulator, and the examples. Each scheme has one codec type, built in
//! both forms by [`Scheme::codec`], and one statement of the widths it
//! builds at, [`Scheme::check`].

use crate::batch::Codec;
use crate::cac::{
    ftc_info_bits, ftc_wires_for_bits, Duplication, ForbiddenTransitionCode, Shielding,
};
use crate::ecc::{bch_parity_bits, hamming_parity_bits, BchDec, Hamming, ParityBit};
use crate::joint::{Dap, FtcHc};
use crate::lpc::BusInvert;
use crate::traits::{BusCode, Uncoded};
use socbus_model::word::MAX_WIDTH;

/// Every coding scheme the paper evaluates, plus the extension codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// No coding (Table III baseline).
    Uncoded,
    /// Bus-invert with `i` sub-buses.
    BusInvert(usize),
    /// Full shielding.
    Shielding,
    /// Wire duplication (building block; also a detect-1 code).
    Duplication,
    /// Forbidden-transition code.
    Ftc,
    /// Single parity bit (detect-1 ECC).
    Parity,
    /// Systematic Hamming.
    Hamming,
    /// Hamming with half-shielded parity (encoder-delay masking).
    HammingX,
    /// Bus-invert + Hamming with parallel parity.
    Bih,
    /// FTC concatenated with Hamming, shielded parity.
    FtcHc,
    /// Boundary shift code (Patel & Markov baseline).
    Bsc,
    /// Duplicate-add-parity.
    Dap,
    /// DAP with duplicated (masked) parity.
    Dapx,
    /// DAP + bus-invert + duplicated invert bit.
    Dapbi,
    /// Extended Hamming SEC-DED (paper §V extension).
    ExtHamming,
    /// Double-error-correcting BCH (paper §V extension).
    BchDec,
    /// Hamming with a deliberately broken decoder that delivers
    /// single-wire errors silently — **harness self-tests only**; never
    /// part of [`Scheme::catalog`] or the paper tables. See
    /// [`Hamming::sabotaged`].
    Sabotaged,
}

impl Scheme {
    /// The codec for `k` data bits, in both forms: the one map from a
    /// scheme to its constructor.
    ///
    /// # Panics
    ///
    /// Panics where [`Scheme::check`] rejects `k`.
    #[must_use]
    pub fn codec(self, k: usize) -> Box<dyn Codec> {
        match self {
            Scheme::Uncoded => Box::new(Uncoded::new(k)),
            Scheme::BusInvert(i) => Box::new(BusInvert::new(k, i)),
            Scheme::Shielding => Box::new(Shielding::new(k)),
            Scheme::Duplication => Box::new(Duplication::new(k)),
            Scheme::Ftc => Box::new(ForbiddenTransitionCode::new(k)),
            Scheme::Parity => Box::new(ParityBit::new(k)),
            Scheme::Hamming => Box::new(Hamming::new(k)),
            Scheme::HammingX => Box::new(Hamming::hamming_x(k)),
            Scheme::Bih => Box::new(Hamming::bih(k)),
            Scheme::ExtHamming => Box::new(Hamming::extended(k)),
            Scheme::Sabotaged => Box::new(Hamming::sabotaged(k)),
            Scheme::FtcHc => Box::new(FtcHc::new(k)),
            Scheme::Bsc => Box::new(Dap::bsc(k)),
            Scheme::Dap => Box::new(Dap::new(k)),
            Scheme::Dapx => Box::new(Dap::dapx(k)),
            Scheme::Dapbi => Box::new(Dap::dapbi(k)),
            Scheme::BchDec => Box::new(BchDec::new(k)),
        }
    }

    /// The word view of the codec for `k` data bits.
    ///
    /// # Panics
    ///
    /// Panics where [`Scheme::check`] rejects `k`.
    #[must_use]
    pub fn build(self, k: usize) -> Box<dyn BusCode> {
        self.codec(k)
    }

    /// Whether the codec builds at `k` data bits: at least one data bit,
    /// `1 ≤ i ≤ k` sub-buses for `BI(i)`, a supported field for BCH-DEC,
    /// and a bus of at most `MAX_WIDTH` wires. Every constructor asserts
    /// it; repro files and command-line cases are checked against it.
    ///
    /// # Errors
    ///
    /// A message naming the scheme, the width and the limit it breaks.
    pub fn check(self, k: usize) -> Result<(), String> {
        let refuse = |why: String| {
            Err(format!(
                "{} does not build at {k} data bits: {why}",
                self.name()
            ))
        };
        if k == 0 {
            return refuse("need at least one data bit".into());
        }
        if k > MAX_WIDTH {
            return refuse(format!("more data bits than {MAX_WIDTH} wires"));
        }
        let hamming = |q: usize| q + hamming_parity_bits(q);
        let wires = match self {
            Scheme::Uncoded => k,
            Scheme::BusInvert(0) => return refuse("need at least one sub-bus".into()),
            Scheme::BusInvert(i) if i > k => {
                return refuse(format!("more sub-buses ({i}) than data bits ({k})"))
            }
            Scheme::BusInvert(i) => k + i,
            Scheme::Shielding => 2 * k - 1,
            Scheme::Duplication => 2 * k,
            Scheme::Ftc => ftc_wires_for_bits(k),
            Scheme::Parity => k + 1,
            Scheme::Hamming | Scheme::Sabotaged => hamming(k),
            Scheme::HammingX => Hamming::half_shielded_wires(k),
            Scheme::Bih => hamming(k + 1),
            Scheme::ExtHamming => hamming(k) + 1,
            Scheme::FtcHc => ftc_wires_for_bits(k) + 2 * hamming_parity_bits(ftc_info_bits(k)),
            Scheme::Bsc | Scheme::Dap => 2 * k + 1,
            Scheme::Dapx => 2 * k + 2,
            Scheme::Dapbi => 2 * k + 3,
            Scheme::BchDec => match bch_parity_bits(k) {
                Some(r) => k + r,
                None => return refuse("no supported BCH field fits".into()),
            },
        };
        if wires > MAX_WIDTH {
            return refuse(format!("its bus of {wires} wires exceeds {MAX_WIDTH}"));
        }
        Ok(())
    }

    /// Panics with [`Scheme::check`]'s message where it rejects `k`: the
    /// width assertion of every catalog constructor.
    pub(crate) fn assert_builds(self, k: usize) {
        if let Err(e) = self.check(k) {
            panic!("{e}");
        }
    }

    /// Display name matching the paper's tables.
    #[must_use]
    pub fn name(self) -> String {
        let name = match self {
            Scheme::BusInvert(i) => return format!("BI({i})"),
            Scheme::Uncoded => "Uncoded",
            Scheme::Shielding => "Shielding",
            Scheme::Duplication => "Duplication",
            Scheme::Ftc => "FTC",
            Scheme::Parity => "Parity",
            Scheme::Hamming => "Hamming",
            Scheme::HammingX => "HammingX",
            Scheme::Bih => "BIH",
            Scheme::FtcHc => "FTC+HC",
            Scheme::Bsc => "BSC",
            Scheme::Dap => "DAP",
            Scheme::Dapx => "DAPX",
            Scheme::Dapbi => "DAPBI",
            Scheme::ExtHamming => "ExtHamming",
            Scheme::BchDec => "BCH-DEC",
            Scheme::Sabotaged => "Sabotaged",
        };
        name.into()
    }

    /// Parses a scheme from its [`Scheme::name`] rendering (the inverse
    /// mapping, used by chaos replay files and CLI arguments): `BI(i)`
    /// for any `i`, else the [`Scheme::catalog`] member or `Sabotaged`
    /// of that name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Scheme> {
        if let Some(i) = name
            .strip_prefix("BI(")
            .and_then(|rest| rest.strip_suffix(')'))
        {
            return i.parse().ok().map(Scheme::BusInvert);
        }
        Scheme::catalog()
            .into_iter()
            .chain([Scheme::Sabotaged])
            .find(|s| s.name() == name)
    }

    /// The reliable-bus comparison set of Table II (4-bit bus).
    #[must_use]
    pub fn table2() -> Vec<Scheme> {
        vec![
            Scheme::Hamming,
            Scheme::HammingX,
            Scheme::Bih,
            Scheme::FtcHc,
            Scheme::Bsc,
            Scheme::Dap,
            Scheme::Dapx,
            Scheme::Dapbi,
        ]
    }

    /// The 32-bit comparison set of Table III.
    #[must_use]
    pub fn table3() -> Vec<Scheme> {
        vec![
            Scheme::Uncoded,
            Scheme::BusInvert(1),
            Scheme::BusInvert(8),
            Scheme::Shielding,
            Scheme::Ftc,
            Scheme::Hamming,
            Scheme::HammingX,
            Scheme::Bih,
            Scheme::FtcHc,
            Scheme::Bsc,
            Scheme::Dap,
            Scheme::Dapx,
            Scheme::Dapbi,
        ]
    }

    /// Whether the scheme can correct a single wire error.
    ///
    /// `Sabotaged` *claims* correction (that is its planted lie); the
    /// chaos monitors are what call the bluff.
    #[must_use]
    pub fn corrects_errors(self) -> bool {
        matches!(
            self,
            Scheme::Hamming
                | Scheme::HammingX
                | Scheme::Bih
                | Scheme::FtcHc
                | Scheme::Bsc
                | Scheme::Dap
                | Scheme::Dapx
                | Scheme::Dapbi
                | Scheme::ExtHamming
                | Scheme::BchDec
                | Scheme::Sabotaged
        )
    }

    /// Whether the scheme can at least *detect* a single wire error
    /// (every correcting scheme detects; parity and duplication detect
    /// without correcting).
    #[must_use]
    pub fn detects_errors(self) -> bool {
        self.corrects_errors() || matches!(self, Scheme::Parity | Scheme::Duplication)
    }

    /// The full evaluated catalog: the Table III comparison set plus the
    /// detection/correction schemes the tables omit (`Duplication`,
    /// `Parity`, `ExtHamming`, `BCH-DEC`). This is the iteration set of
    /// the reliability and soak sweeps; the `Sabotaged` self-test scheme
    /// is deliberately excluded.
    #[must_use]
    pub fn catalog() -> Vec<Scheme> {
        let mut schemes = Scheme::table3();
        for extra in [
            Scheme::Duplication,
            Scheme::Parity,
            Scheme::ExtHamming,
            Scheme::BchDec,
        ] {
            if !schemes.contains(&extra) {
                schemes.push(extra);
            }
        }
        schemes
    }

    /// Every catalog scheme with single-error *correction* — the class
    /// the chaos monitors hold to the correction contract.
    #[must_use]
    pub fn correcting() -> Vec<Scheme> {
        Scheme::catalog()
            .into_iter()
            .filter(|s| s.corrects_errors())
            .collect()
    }

    /// Every catalog scheme with at least single-error *detection* — the
    /// class the no-silent-corruption monitor applies to.
    #[must_use]
    pub fn detecting() -> Vec<Scheme> {
        Scheme::catalog()
            .into_iter()
            .filter(|s| s.detects_errors())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socbus_model::Word;

    #[test]
    fn table2_wire_counts_match_paper() {
        let expect = [
            (Scheme::Hamming, 7),
            (Scheme::HammingX, 8),
            (Scheme::Bih, 9),
            (Scheme::FtcHc, 14),
            (Scheme::Bsc, 9),
            (Scheme::Dap, 9),
            (Scheme::Dapx, 10),
            (Scheme::Dapbi, 11),
        ];
        for (s, wires) in expect {
            assert_eq!(s.build(4).wires(), wires, "{}", s.name());
        }
    }

    #[test]
    fn table3_wire_counts_match_paper() {
        let expect = [
            (Scheme::Uncoded, 32),
            (Scheme::BusInvert(1), 33),
            (Scheme::BusInvert(8), 40),
            (Scheme::Shielding, 63),
            (Scheme::Ftc, 53),
            (Scheme::Hamming, 38),
            (Scheme::HammingX, 41),
            (Scheme::Bih, 39),
            (Scheme::FtcHc, 65),
            (Scheme::Bsc, 65),
            (Scheme::Dap, 65),
            (Scheme::Dapx, 66),
            (Scheme::Dapbi, 67),
        ];
        for (s, wires) in expect {
            assert_eq!(s.build(32).wires(), wires, "{}", s.name());
        }
    }

    #[test]
    fn every_scheme_roundtrips() {
        for s in Scheme::table3() {
            let mut enc = s.build(8);
            let mut dec = s.build(8);
            for v in [0u128, 0xA5, 0xFF, 0x3C, 0x01] {
                let d = Word::from_bits(v, 8);
                assert_eq!(dec.decode(enc.encode(d)), d, "{}", s.name());
            }
        }
    }

    /// `check` states each constructor's limit: for every scheme and
    /// width it accepts exactly the widths the codec builds at (the
    /// widths it rejects panic).
    #[test]
    fn check_accepts_exactly_the_widths_the_codecs_build_at() {
        let mut schemes = Scheme::catalog();
        schemes.extend([
            Scheme::Sabotaged,
            Scheme::BusInvert(0),
            Scheme::BusInvert(4),
            Scheme::BusInvert(100),
        ]);
        for s in schemes {
            for k in 1..=130 {
                let built = std::panic::catch_unwind(|| drop(s.codec(k))).is_ok();
                assert_eq!(s.check(k).is_ok(), built, "{} at k = {k}", s.name());
            }
            assert!(s.check(0).is_err(), "{}", s.name());
        }
        let refused = Scheme::Dapbi
            .check(127)
            .expect_err("DAPBI(127) has 257 wires");
        assert_eq!(
            refused,
            "DAPBI does not build at 127 data bits: its bus of 257 wires exceeds 256"
        );
        assert!(Scheme::BusInvert(17).check(16).is_err());
        assert!(Scheme::Dap.check(127).is_ok() && Scheme::Dap.check(128).is_err());
    }

    #[test]
    fn names_match_tables() {
        assert_eq!(Scheme::BusInvert(8).name(), "BI(8)");
        assert_eq!(Scheme::FtcHc.name(), "FTC+HC");
        assert_eq!(Scheme::Dapx.name(), "DAPX");
    }

    #[test]
    fn correction_capability() {
        assert!(Scheme::Dap.corrects_errors());
        assert!(Scheme::Hamming.corrects_errors());
        assert!(!Scheme::Uncoded.corrects_errors());
        assert!(!Scheme::Shielding.corrects_errors());
    }

    #[test]
    fn from_name_inverts_name_for_the_whole_catalog() {
        let mut all = Scheme::catalog();
        all.extend([Scheme::BusInvert(4), Scheme::Sabotaged]);
        for s in all {
            assert_eq!(Scheme::from_name(&s.name()), Some(s), "{}", s.name());
        }
        assert_eq!(Scheme::from_name("NoSuchCode"), None);
        assert_eq!(Scheme::from_name("BI(x)"), None);
    }

    #[test]
    fn catalog_classes_are_consistent() {
        let catalog = Scheme::catalog();
        assert!(
            catalog.len() >= 17,
            "table III set plus the four extras: {catalog:?}"
        );
        assert!(
            !catalog.contains(&Scheme::Sabotaged),
            "the planted-fault scheme must stay out of the catalog"
        );
        for s in Scheme::correcting() {
            assert!(s.corrects_errors() && s.detects_errors());
        }
        let detecting = Scheme::detecting();
        assert!(detecting.contains(&Scheme::Parity));
        assert!(detecting.contains(&Scheme::Duplication));
        assert!(!detecting.contains(&Scheme::Uncoded));
        // Detection strictly contains correction.
        assert!(detecting.len() > Scheme::correcting().len());
    }
}

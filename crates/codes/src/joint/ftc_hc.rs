//! FTC+HC: concatenated forbidden-transition code and Hamming code
//! (paper §III-C, Table I).

use crate::batch::{BlockStatus, Planes, SyndromeStage, WordBlock};
use crate::cac::ForbiddenTransitionCode;
use crate::catalog::Scheme;
use crate::ecc::{hamming_parity_bits, Hamming};
use crate::traits::{BusCode, DecodeStatus};
use socbus_model::word::MAX_WIDTH;
use socbus_model::{DelayClass, Word};

/// FTC+HC: data goes through the FTC crosstalk-avoidance code; a Hamming
/// code protects the FTC code bits; the Hamming parity bits are fully
/// shielded (LXC2 = shielding, framework condition 5) so they share the
/// `(1 + 2λ)τ0` delay class.
///
/// The joint code is a plain concatenation of its components, which is why
/// the paper finds it dominated by DAP: equivalent bus-level guarantees at
/// much higher wire count and codec cost (Table II: 14 wires vs DAP's 9
/// for 4 bits; 65 vs 65 at 32 bits but with a far heavier codec).
///
/// Wire layout: `[FTC(data) with its internal shields, S, p0, S, p1, ...]`.
///
/// At the decoder, error correction runs first (the ECC is systematic over
/// the FTC bits), then the corrected FTC word is mapped back to data —
/// the ordering the framework's condition 1 mandates.
///
/// The Hamming code sees the FTC code bits with the inter-group shields
/// squeezed out; its parity bits sit on every other wire after the FTC
/// region, so placing and reading them is one stride-2 spread/gather.
///
/// The plane form runs the FTC planes, then the Hamming syndrome stage
/// over the FTC info lanes; decoding corrects the info lanes first, then
/// maps them back through FTC. Both directions keep their working lanes
/// on the stack: each allocates only its output block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FtcHc {
    ftc: ForbiddenTransitionCode,
    /// Hamming parity bits over the FTC info bits.
    m: usize,
    wires: usize,
}

impl FtcHc {
    /// FTC+HC over `k` data bits.
    ///
    /// # Panics
    ///
    /// Panics where [`Scheme::check`] rejects `k`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        Scheme::FtcHc.assert_builds(k);
        let ftc = ForbiddenTransitionCode::new(k);
        let m = hamming_parity_bits(ftc.info_bits());
        // A boundary shield, then the parity wires separated by shields.
        let wires = ftc.wires() + 2 * m;
        FtcHc { ftc, m, wires }
    }

    /// Bus wire of the first Hamming parity bit (after one shield).
    fn parity_lo(&self) -> usize {
        self.ftc.wires() + 1
    }

    /// Number of Hamming parity bits (excluding shields).
    #[must_use]
    pub fn parity_bits(&self) -> usize {
        self.m
    }

    /// The Hamming code over the FTC info bits: a view, built per call,
    /// so the codec holds only its parity count.
    fn hamming(&self) -> Hamming {
        Hamming::over(self.ftc.info_bits(), self.m)
    }

    /// The plane form's syndrome stage: Hamming over the FTC info lanes,
    /// the parity on every other wire after the boundary shield.
    fn stage<'a>(&self, hamming: &'a Hamming) -> SyndromeStage<'a, Hamming> {
        let lo = self.parity_lo();
        SyndromeStage::new(
            hamming,
            self.ftc.info_bits(),
            (0..self.parity_bits()).map(|j| lo + 2 * j),
        )
    }
}

impl BusCode for FtcHc {
    fn name(&self) -> String {
        "FTC+HC".into()
    }

    fn data_bits(&self) -> usize {
        self.ftc.data_bits()
    }

    fn wires(&self) -> usize {
        self.wires
    }

    fn encode(&mut self, data: Word) -> Word {
        let ftc_word = self.ftc.encode(data);
        let p = self.hamming().parities(self.ftc.to_info(ftc_word));
        let m = self.parity_bits();
        Word::from_bits(p as u128, m)
            .spread2(self.wires, self.parity_lo())
            .place(0, ftc_word)
    }

    fn decode(&mut self, bus: Word) -> Word {
        self.decode_checked(bus).0
    }

    fn decode_checked(&mut self, bus: Word) -> (Word, DecodeStatus) {
        assert_eq!(bus.width(), self.wires, "bus width mismatch");
        let info = self.ftc.to_info(bus.slice(0, self.ftc.wires()));
        #[allow(clippy::cast_possible_truncation)]
        let recv_p = bus.gather2(self.parity_lo(), self.parity_bits()).limb(0) as usize;
        let (code_bits, status) = self.hamming().correct(info, recv_p);
        (self.ftc.decode_info(code_bits), status)
    }

    fn correctable_errors(&self) -> usize {
        1
    }

    fn guaranteed_delay_class(&self) -> DelayClass {
        DelayClass::CAC
    }
}

impl Planes for FtcHc {
    fn encode_planes(&mut self, data: &WordBlock) -> WordBlock {
        let mut out = WordBlock::zero(self.wires, data.len());
        self.ftc.encode_planes_into(data, &mut out.lanes);
        let hamming = self.hamming();
        let stage = self.stage(&hamming);
        let parity = stage.parity(self.ftc.info_wires().map(|w| out.lanes[w]));
        stage.place(parity, &mut out);
        out
    }

    fn decode_planes(&mut self, bus: &WordBlock) -> (WordBlock, BlockStatus) {
        let vm = bus.valid_mask();
        // The received code bits in the shield-free info layout, then
        // corrected in place.
        let mut info = [0u64; MAX_WIDTH];
        let info = &mut info[..self.ftc.info_bits()];
        for (lane, w) in info.iter_mut().zip(self.ftc.info_wires()) {
            *lane = bus.lanes[w];
        }
        let syn = self.stage(&self.hamming()).decode(bus, vm, info);
        let mut out = WordBlock::zero(self.ftc.data_bits(), bus.len());
        self.ftc.decode_planes_into(info, false, vm, &mut out.lanes);
        let status = BlockStatus {
            clean: vm & !syn.nonzero,
            corrected: syn.nonzero & syn.matched,
            detected: syn.nonzero & !syn.matched,
            ..BlockStatus::default()
        };
        (out, status)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socbus_model::{bus_delay_factor, TransitionVector};

    #[test]
    fn wire_counts_match_paper() {
        assert_eq!(FtcHc::new(4).wires(), 14); // Table II
                                               // Table III lists 65 for 32 bits: FTC 53 code region carries 43
                                               // info bits -> m = 6 parity -> 53 + 1 + 11 = 65.
        assert_eq!(FtcHc::new(32).wires(), 65);
    }

    #[test]
    fn roundtrip_clean() {
        let mut c = FtcHc::new(4);
        for w in Word::enumerate_all(4) {
            let (d, s) = {
                let cw = c.encode(w);
                c.decode_checked(cw)
            };
            assert_eq!(d, w);
            assert_eq!(s, DecodeStatus::Clean);
        }
    }

    #[test]
    fn corrects_every_single_error_exhaustive() {
        let mut c = FtcHc::new(4);
        for w in Word::enumerate_all(4) {
            let cw = c.encode(w);
            for i in 0..cw.width() {
                let bad = cw.with_bit(i, !cw.bit(i));
                assert_eq!(c.decode(bad), w, "flip wire {i} of {cw}");
            }
        }
    }

    #[test]
    fn whole_bus_stays_in_cac_class() {
        let lambda = 2.8;
        let mut c = FtcHc::new(4);
        let mut worst: f64 = 0.0;
        for b in Word::enumerate_all(4) {
            for a in Word::enumerate_all(4) {
                let tv = TransitionVector::between(c.encode(b), c.encode(a));
                worst = worst.max(bus_delay_factor(&tv, lambda));
            }
        }
        assert!(
            worst <= DelayClass::CAC.factor(lambda) + 1e-12,
            "worst factor {worst}"
        );
    }
}

//! Codec implementation costs: the "Codec" columns of the paper's tables.
//!
//! For a scheme instance this module synthesizes the encoder/decoder
//! netlists, runs STA for the combinational delays, sums cell area, and
//! simulates a random data stream through the *encoder* and the resulting
//! codeword stream through the *decoder* (so decoder activity reflects
//! real coded traffic, not uniform noise) for the energy per transfer.

use crate::cell::CellLibrary;
use crate::codecs::{synthesize, CodecPair};
use crate::power::simulate;
use crate::sta::{analyze, area};
use rand::rngs::StdRng;
use rand::SeedableRng;
use socbus_codes::Scheme;
use socbus_model::Word;

/// Area / delay / energy of one codec (encoder + decoder).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CodecCost {
    /// Encoder critical path (s).
    pub encoder_delay: f64,
    /// Decoder critical path (s).
    pub decoder_delay: f64,
    /// Total silicon area, encoder + decoder (m²).
    pub area: f64,
    /// Average codec energy per transferred word (J).
    pub energy_per_transfer: f64,
}

impl CodecCost {
    /// Total codec latency added to an unmasked path (s).
    #[must_use]
    pub fn total_delay(&self) -> f64 {
        self.encoder_delay + self.decoder_delay
    }
}

/// Measures the codec cost of `scheme` at width `k`.
///
/// `transfers` random words drive the power simulation (2000 is plenty
/// for ±2% on these netlist sizes).
#[must_use]
pub fn codec_cost(
    scheme: Scheme,
    k: usize,
    lib: &CellLibrary,
    transfers: usize,
    seed: u64,
) -> CodecCost {
    let mut pair = synthesize(scheme, k);
    cost_of_pair(&mut pair, lib, transfers, seed)
}

/// Measures the cost of an already-synthesized pair.
#[must_use]
pub fn cost_of_pair(
    pair: &mut CodecPair,
    lib: &CellLibrary,
    transfers: usize,
    seed: u64,
) -> CodecCost {
    let enc_t = analyze(&pair.encoder, lib);
    let dec_t = analyze(&pair.decoder, lib);
    let total_area = area(&pair.encoder, lib) + area(&pair.decoder, lib);

    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<Word> = (0..transfers)
        .map(|_| Word::random(&mut rng, pair.data_bits))
        .collect();
    pair.encoder.reset();
    let bus_words: Vec<Word> = data.iter().map(|&d| pair.encoder.step(d)).collect();
    pair.encoder.reset();
    let enc_power = simulate(&mut pair.encoder, lib, &data);
    let dec_power = simulate(&mut pair.decoder, lib, &bus_words);

    CodecCost {
        encoder_delay: enc_t.critical_path,
        decoder_delay: dec_t.critical_path,
        area: total_area,
        energy_per_transfer: enc_power.energy_per_transfer + dec_power.energy_per_transfer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(scheme: Scheme, k: usize) -> CodecCost {
        codec_cost(scheme, k, &CellLibrary::cmos_130nm(), 800, 42)
    }

    #[test]
    fn shielding_costs_nothing() {
        let c = cost(Scheme::Shielding, 8);
        assert_eq!(c.area, 0.0);
        assert_eq!(c.energy_per_transfer, 0.0);
        assert_eq!(c.total_delay(), 0.0);
    }

    #[test]
    fn table2_codec_orderings_hold() {
        // The paper's Table II structure: DAP is the cheapest corrector;
        // BSC pays for the shift machinery; BIH and FTC+HC are heaviest.
        let dap = cost(Scheme::Dap, 4);
        let bsc = cost(Scheme::Bsc, 4);
        let bih = cost(Scheme::Bih, 4);
        let ftc_hc = cost(Scheme::FtcHc, 4);
        assert!(dap.area < bsc.area, "DAP area under BSC");
        assert!(dap.energy_per_transfer < bsc.energy_per_transfer);
        assert!(dap.area < bih.area);
        assert!(dap.area < ftc_hc.area, "DAP area under FTC+HC");
        assert!(
            dap.energy_per_transfer < ftc_hc.energy_per_transfer,
            "DAP energy under FTC+HC"
        );
    }

    #[test]
    fn hamming_encoder_delay_grows_with_width() {
        let c4 = cost(Scheme::Hamming, 4);
        let c32 = cost(Scheme::Hamming, 32);
        assert!(c32.encoder_delay > c4.encoder_delay);
        assert!(c32.area > c4.area);
    }

    #[test]
    fn bih_encoder_beats_serial_bi_plus_hamming() {
        // Paper §III-B: the parallel-parity trick cuts the encoder delay
        // versus the serial concatenation (BI delay + Hamming delay).
        let lib = CellLibrary::cmos_130nm();
        let bih = codec_cost(Scheme::Bih, 16, &lib, 200, 1);
        let bi = codec_cost(Scheme::BusInvert(1), 16, &lib, 200, 1);
        let ham = codec_cost(Scheme::Hamming, 17, &lib, 200, 1);
        let serial = bi.encoder_delay + ham.encoder_delay;
        assert!(
            bih.encoder_delay < serial,
            "BIH {} should undercut serial {}",
            bih.encoder_delay,
            serial
        );
        // The paper estimates 21-33% savings; accept a generous band.
        let saving = 1.0 - bih.encoder_delay / serial;
        assert!(saving > 0.10, "saving {saving} too small");
    }

    #[test]
    fn dapx_costs_equal_dap() {
        // DAPX adds a wire, not logic (the doubled parity pin costs a few
        // ps of extra load on the final tree stage, nothing more).
        let dap = cost(Scheme::Dap, 8);
        let dapx = cost(Scheme::Dapx, 8);
        assert!((dap.area - dapx.area).abs() < 1e-15);
        assert!((dap.encoder_delay - dapx.encoder_delay).abs() < 80e-12);
    }
}

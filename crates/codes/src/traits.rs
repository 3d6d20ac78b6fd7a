//! The bus-code abstraction.
//!
//! Every coding scheme in the paper — low-power codes, crosstalk-avoidance
//! codes, error-control codes, and their joint combinations — is a mapping
//! from `k`-bit *data words* to `n`-wire *bus words*, possibly with memory
//! (bus-invert compares against the previous word; the boundary-shift code
//! alternates phase). [`BusCode`] captures exactly that.

use crate::batch::{BlockStatus, Planes, WordBlock};
use crate::catalog::Scheme;
use socbus_model::{DelayClass, Word};
use std::fmt;

/// A bus coding scheme: encoder and decoder for one `k`-bit channel over
/// `n` wires.
///
/// Encode/decode take `&mut self` because several schemes are *codes with
/// memory* (see [`BusCode::is_stateful`]); stateless codes simply ignore
/// the mutability. Encoder and decoder state advance together: a typical
/// transmission loop calls `encode` at the sender and `decode` at the
/// receiver once per transferred word, in order, after a common
/// [`reset`](BusCode::reset).
///
/// # Contract
///
/// For every data word `d` of width [`data_bits`](BusCode::data_bits) and
/// any (identical) codec state at both ends:
/// `decode(encode(d)) == d`.
///
/// If [`correctable_errors`](BusCode::correctable_errors) is `t`, the same
/// holds when up to `t` arbitrary wires of the encoded word are flipped
/// before decoding.
pub trait BusCode: CloneBusCode {
    /// Scheme name as used in the paper's tables (e.g. `"DAP"`, `"BI(8)"`).
    fn name(&self) -> String;

    /// Number of data bits `k` per transfer.
    fn data_bits(&self) -> usize;

    /// Number of physical bus wires `n` (including shields, invert bits,
    /// and parity wires).
    fn wires(&self) -> usize;

    /// Encodes one data word into a bus word.
    ///
    /// # Panics
    ///
    /// Panics if `data.width() != self.data_bits()`.
    fn encode(&mut self, data: Word) -> Word;

    /// Decodes one received bus word back into a data word, correcting up
    /// to [`correctable_errors`](BusCode::correctable_errors) wire errors.
    ///
    /// # Panics
    ///
    /// Panics if `bus.width() != self.wires()`.
    fn decode(&mut self, bus: Word) -> Word;

    /// Clears any codec memory (previous word, phase). Encoder and decoder
    /// must be reset together.
    fn reset(&mut self) {}

    /// Whether the code has memory. Stateful codes cannot be analyzed by
    /// plain codebook enumeration; the analysis module simulates them.
    fn is_stateful(&self) -> bool {
        false
    }

    /// Number of arbitrary single-wire errors per transfer the decoder is
    /// guaranteed to correct.
    fn correctable_errors(&self) -> usize {
        0
    }

    /// Number of single-wire errors per transfer the code is guaranteed to
    /// detect (when not correcting them).
    fn detectable_errors(&self) -> usize {
        self.correctable_errors()
    }

    /// The worst-case crosstalk delay class guaranteed over all legal
    /// codeword transitions. Codes without crosstalk avoidance report
    /// [`DelayClass::WORST`].
    fn guaranteed_delay_class(&self) -> DelayClass {
        DelayClass::WORST
    }

    /// Code rate `k/n`.
    fn rate(&self) -> f64 {
        self.data_bits() as f64 / self.wires() as f64
    }

    /// Decodes and reports what the error-control machinery observed.
    ///
    /// Codes without error control return [`DecodeStatus::Unchecked`];
    /// codes with detection/correction override this (the default simply
    /// forwards to [`decode`](BusCode::decode)). Link protocols
    /// (detect-and-retransmit) consume the status.
    fn decode_checked(&mut self, bus: Word) -> (Word, DecodeStatus) {
        (self.decode(bus), DecodeStatus::Unchecked)
    }
}

/// Object-safe cloning for boxed codecs.
///
/// Every concrete codec is `Clone` (their state is plain data: previous
/// word, phase, cached codebook handles), but `Box<dyn BusCode>` cannot
/// use derive-cloning directly. This supertrait — blanket-implemented
/// for every `Clone` codec — restores it: `clone_box` snapshots a codec
/// *including its memory*, which is what lets the rare-event oracle in
/// `socbus_channel::rare::exact` enumerate all error patterns against a
/// stateful decoder without perturbing the decoder state the stream is
/// advancing (clone, decode once, drop — the stream codec never moves).
pub trait CloneBusCode {
    /// A boxed deep copy of this codec, state included.
    fn clone_box(&self) -> Box<dyn BusCode>;
}

impl<T: BusCode + Clone + 'static> CloneBusCode for T {
    fn clone_box(&self) -> Box<dyn BusCode> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn BusCode> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A codec behind `dyn` shows as its name.
impl fmt::Debug for dyn BusCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// What a decoder observed about the received word.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum DecodeStatus {
    /// The code performs no error checking.
    #[default]
    Unchecked,
    /// The received word was a valid codeword.
    Clean,
    /// An error was detected and corrected.
    Corrected,
    /// An error was detected but could not be corrected; the returned data
    /// is best-effort.
    Detected,
}

/// The trivial identity code: `k` data bits on `k` wires, no protection.
///
/// The paper's "Uncoded" baseline (Table III).
///
/// # Examples
///
/// ```
/// use socbus_codes::{BusCode, Uncoded};
/// use socbus_model::Word;
///
/// let mut code = Uncoded::new(8);
/// let d = Word::from_bits(0xA5, 8);
/// let coded = code.encode(d);
/// assert_eq!(code.decode(coded), d);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Uncoded {
    k: usize,
}

impl Uncoded {
    /// An uncoded `k`-bit bus.
    ///
    /// # Panics
    ///
    /// Panics where [`Scheme::check`] rejects `k`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        Scheme::Uncoded.assert_builds(k);
        Uncoded { k }
    }
}

impl BusCode for Uncoded {
    fn name(&self) -> String {
        "Uncoded".into()
    }

    fn data_bits(&self) -> usize {
        self.k
    }

    fn wires(&self) -> usize {
        self.k
    }

    fn encode(&mut self, data: Word) -> Word {
        assert_eq!(data.width(), self.k, "data width mismatch");
        data
    }

    fn decode(&mut self, bus: Word) -> Word {
        assert_eq!(bus.width(), self.k, "bus width mismatch");
        bus
    }
}

impl Planes for Uncoded {
    fn encode_planes(&mut self, data: &WordBlock) -> WordBlock {
        data.clone()
    }

    fn decode_planes(&mut self, bus: &WordBlock) -> (WordBlock, BlockStatus) {
        (bus.clone(), BlockStatus::all_unchecked(bus.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncoded_roundtrip() {
        let mut c = Uncoded::new(5);
        for w in Word::enumerate_all(5) {
            assert_eq!(
                {
                    let cw = c.encode(w);
                    c.decode(cw)
                },
                w
            );
        }
    }

    #[test]
    fn uncoded_properties() {
        let c = Uncoded::new(8);
        assert_eq!(c.data_bits(), 8);
        assert_eq!(c.wires(), 8);
        assert!(!c.is_stateful());
        assert_eq!(c.correctable_errors(), 0);
        assert_eq!(c.guaranteed_delay_class(), DelayClass::WORST);
        assert!((c.rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "data width mismatch")]
    fn wrong_width_panics() {
        let mut c = Uncoded::new(4);
        let _ = c.encode(Word::zero(5));
    }
}

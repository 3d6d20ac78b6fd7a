//! Tier-1 contract for `BitFlipChannel`'s flip stream: the channel's
//! `n`-th wire draw flips its wire exactly when the `n`-th `f64` of
//! `StdRng::seed_from_u64(seed)` is below ε, with wires drawn word by
//! word and in ascending order within a word.
//!
//! The channel buffers its outcomes 2¹⁷ draws at a time, computed in
//! jump-ahead lanes. This file drives one channel per ε through a fixed
//! interleaving of `transmit`, full `corrupt_block`s and partial blocks
//! at every width, across at least three refills, and checks every
//! flipped wire against the plain one-draw-per-wire loop. A clone taken
//! mid-buffer must continue the same stream.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socbus::channel::BitFlipChannel;
use socbus::codes::WordBlock;
use socbus::model::Word;

/// Draws per refill of the channel's buffer: 8 lanes of 2¹⁴.
const REFILL_DRAWS: usize = 1 << 17;

/// ε at both ends of the range, at and next to the f64 rule's edges
/// (2⁻⁵³, 1 − 2⁻⁵³), and in between.
fn rates() -> [f64; 8] {
    let ulp = 2f64.powi(-53);
    [0.0, ulp, 1e-12, 1e-3, 0.3, 0.5, 1.0 - ulp, 1.0]
}

/// Widths from one wire to a full `Word`, across the 64-wire limb edge.
const WIDTHS: [usize; 6] = [1, 16, 36, 64, 65, 256];

/// One call on the channel.
#[derive(Clone, Copy, Debug)]
enum Op {
    Transmit,
    /// `corrupt_block` on a block of this many words.
    Block(usize),
}

/// The interleaving: a word, a full block and partial blocks.
const OPS: [Op; 5] = [
    Op::Transmit,
    Op::Block(64),
    Op::Block(1),
    Op::Block(17),
    Op::Block(63),
];

/// The reference channel: one `f64` per wire, wire-ascending.
#[derive(Clone)]
struct Reference {
    rng: StdRng,
    eps: f64,
}

impl Reference {
    fn flips(&mut self, width: usize) -> Word {
        let bits: Vec<bool> = (0..width)
            .map(|_| self.rng.gen::<f64>() < self.eps)
            .collect();
        Word::from_bools(&bits)
    }
}

/// A data word from a small LCG, so flips land on ones and zeros alike.
fn data(width: usize, state: &mut u64) -> Word {
    let limbs = std::array::from_fn(|_| {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *state
    });
    Word::from_limbs(limbs, width)
}

/// Runs `op` at `width` on `ch`, checks it against `reference`, and
/// returns the draws it took.
fn check(
    ch: &mut BitFlipChannel,
    reference: &mut Reference,
    op: Op,
    width: usize,
    state: &mut u64,
    what: &str,
) -> usize {
    match op {
        Op::Transmit => {
            let word = data(width, state);
            let want = word.xor(reference.flips(width));
            assert_eq!(ch.transmit(word), want, "{what}");
            width
        }
        Op::Block(len) => {
            let words: Vec<Word> = (0..len).map(|_| data(width, state)).collect();
            let mut block = WordBlock::from_words(&words);
            ch.corrupt_block(&mut block);
            let want: Vec<Word> = words
                .iter()
                .map(|&w| w.xor(reference.flips(width)))
                .collect();
            assert_eq!(block.to_words(), want, "{what}");
            len * width
        }
    }
}

/// One channel and its reference, with the data stream and the draws
/// taken so far.
#[derive(Clone)]
struct Run {
    ch: BitFlipChannel,
    reference: Reference,
    state: u64,
    draws: usize,
    op: usize,
}

impl Run {
    /// Runs op `i` = `OPS[i % 5]` at `WIDTHS[i % 6]`, all 30 pairs in
    /// turn, until more than `until` draws are taken.
    fn drive(&mut self, until: usize, what: &str) {
        while self.draws <= until {
            let (op, width) = (OPS[self.op % OPS.len()], WIDTHS[self.op % WIDTHS.len()]);
            let what = format!(
                "{what}: op {} ({op:?} at width {width}), draw {}",
                self.op, self.draws
            );
            self.draws += check(
                &mut self.ch,
                &mut self.reference,
                op,
                width,
                &mut self.state,
                &what,
            );
            self.op += 1;
        }
    }
}

#[test]
fn every_flip_matches_the_one_draw_per_wire_loop_across_refills() {
    for (e, eps) in rates().into_iter().enumerate() {
        let seed = 0xF11B + e as u64;
        let mut run = Run {
            ch: BitFlipChannel::new(eps, seed),
            reference: Reference {
                rng: StdRng::seed_from_u64(seed),
                eps,
            },
            state: seed,
            draws: 0,
            op: 0,
        };
        let what = format!("eps {eps:e}");
        run.drive(REFILL_DRAWS / 2, &what);
        let mut twin = run.clone();
        run.drive(3 * REFILL_DRAWS, &what);
        // The clone was taken mid-buffer: it continues the same stream,
        // through the next refill.
        assert!(
            !twin.draws.is_multiple_of(REFILL_DRAWS),
            "{what}: clone at a refill"
        );
        twin.drive(REFILL_DRAWS + REFILL_DRAWS / 4, &format!("clone, {what}"));
    }
}

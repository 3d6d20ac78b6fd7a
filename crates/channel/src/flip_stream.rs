//! The buffered hit stream behind [`crate::BitFlipChannel`] (DESIGN.md
//! §22).
//!
//! A channel at rate ε makes one xoshiro256++ draw `x` per wire per word
//! and flips the wire iff `x < ceil(ε·2⁵³)·2¹¹` — exactly the draws for
//! which the `f64` rule `(x >> 11)·2⁻⁵³ < ε` holds. The stream keeps the
//! outcome of the next [`BUF_DRAWS`] draws as one *hit* bit each, in draw
//! order, and refills them in eight lanes side by side: the generator's
//! state update is linear over GF(2), so the state 2¹⁴ draws further on
//! is one fixed 256 × 256 bit matrix times the current state. Lane `ℓ`
//! covers draws `[ℓ·2¹⁴, (ℓ+1)·2¹⁴)` of the refill, and lane 7 ends where
//! the next refill starts, so every draw is the one `StdRng` would make.

// Off x86-64 only the portable fill runs, and the jump goes unused.
#![cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]

use std::sync::OnceLock;

/// Draws per lane; the jump between lane starts.
const LANE_DRAWS: usize = 1 << 14;
/// Lanes per refill: one AVX-512 register of 64-bit generators.
const LANES: usize = 8;
/// Buffer words one lane fills.
const LANE_WORDS: usize = LANE_DRAWS / 64;
/// Draws buffered per refill.
const BUF_DRAWS: usize = LANES * LANE_DRAWS;
/// Buffer words per refill.
const BUF_WORDS: usize = BUF_DRAWS / 64;

/// A xoshiro256++ state.
type State = [u64; 4];

/// One SplitMix64 output, as `StdRng::seed_from_u64` expands a seed.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The state `StdRng::seed_from_u64(seed)` starts from: four SplitMix64
/// outputs.
fn seed_state(seed: u64) -> State {
    let mut x = seed;
    std::array::from_fn(|_| splitmix64(&mut x))
}

/// The state update of one draw. Shifts, rotations and XORs only, so it
/// is linear over GF(2).
fn advance(s: &mut State) {
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
}

/// One draw: the xoshiro256++ output, then the update (`StdRng::next_u64`).
fn next(s: &mut State) -> u64 {
    let x = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
    advance(s);
    x
}

/// A GF(2)-linear map on states: column `j` is the image of the state
/// holding only bit `j` (bit `j % 64` of word `j / 64`).
type Matrix = [State; 256];

/// `m · s`: the XOR of the columns of `m` that `s` selects.
fn apply(m: &Matrix, s: State) -> State {
    let mut out = [0; 4];
    for (w, &word) in s.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let col = &m[64 * w + bits.trailing_zeros() as usize];
            for (o, c) in out.iter_mut().zip(col) {
                *o ^= c;
            }
            bits &= bits - 1;
        }
    }
    out
}

/// `A^(2¹⁴)`, where `A` is [`advance`] as a matrix: it maps a lane's
/// start state to the next lane's. Built once per process by squaring
/// `A` fourteen times.
fn jump() -> &'static Matrix {
    static JUMP: OnceLock<Matrix> = OnceLock::new();
    JUMP.get_or_init(|| {
        let mut m: Matrix = std::array::from_fn(|j| {
            let mut e = [0; 4];
            e[j / 64] = 1 << (j % 64);
            advance(&mut e);
            e
        });
        for _ in 0..LANE_DRAWS.trailing_zeros() {
            m = std::array::from_fn(|j| apply(&m, m[j]));
        }
        m
    })
}

/// Which draws hit at one ε.
///
/// `(x >> 11)·2⁻⁵³` is exactly `m/2⁵³` for the integer `m = x >> 11`,
/// so it is below ε iff `m < ceil(ε·2⁵³)`, iff `x < ceil(ε·2⁵³)·2¹¹`.
/// `ε·2⁵³` is a power-of-two scaling, exact for every `ε` in `[0, 1]`
/// (subnormals included), and so is its ceiling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Threshold {
    /// Draw `x` hits iff `x < t`.
    Below(u64),
    /// Every draw hits: ε = 1, whose bound 2⁶⁴ has no `u64`. The
    /// outcomes need no draws, so the state stays where it is.
    Every,
}

impl Threshold {
    fn new(eps: f64) -> Self {
        let count = hit_count(eps);
        if count < 1 << 53 {
            Threshold::Below(count << 11)
        } else {
            Threshold::Every
        }
    }
}

/// `ceil(ε·2⁵³)`: a draw `x` hits at rate ε iff `x >> 11` is below this
/// count, exactly where the `f64` rule `(x >> 11)·2⁻⁵³ < ε` holds (the
/// proof is on [`Threshold`]). The stream and the fault models
/// (`crate::fault`) both decide their draws by it. `f64::ceil` is a libm
/// call on the baseline x86-64 target, so callers compute the count once
/// per rate, never per draw.
pub(crate) fn hit_count(eps: f64) -> u64 {
    (eps * (1u64 << 53) as f64).ceil() as u64
}

/// Fills `hits` with the outcomes of the next [`BUF_DRAWS`] draws from
/// `state` and moves `state` past them.
fn fill(state: &mut State, threshold: Threshold, hits: &mut [u64; BUF_WORDS]) {
    match threshold {
        Threshold::Below(below) => {
            if !fill_avx512(state, below, hits) {
                fill_scalar(state, below, hits);
            }
        }
        Threshold::Every => hits.fill(u64::MAX),
    }
}

/// The portable fill: one draw at a time, in draw order.
fn fill_scalar(state: &mut State, below: u64, hits: &mut [u64; BUF_WORDS]) {
    for word in hits {
        *word = (0..64).fold(0, |acc, b| acc | u64::from(next(state) < below) << b);
    }
}

/// The AVX-512 fill, if the CPU has AVX-512F; otherwise `false`, with
/// nothing touched.
#[cfg(target_arch = "x86_64")]
fn fill_avx512(state: &mut State, below: u64, hits: &mut [u64; BUF_WORDS]) -> bool {
    if !is_x86_feature_detected!("avx512f") {
        return false;
    }
    let jump = jump();
    let mut starts = [*state; LANES];
    for l in 1..LANES {
        starts[l] = apply(jump, starts[l - 1]);
    }
    // SAFETY: the CPU supports AVX-512F, checked above.
    *state = unsafe { avx512::fill(&starts, below, hits) };
    true
}

#[cfg(not(target_arch = "x86_64"))]
fn fill_avx512(_: &mut State, _: u64, _: &mut [u64; BUF_WORDS]) -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::{
        __m512i, _mm512_add_epi64, _mm512_cmplt_epu64_mask, _mm512_mask_or_epi64, _mm512_rol_epi64,
        _mm512_set1_epi64, _mm512_set_epi64, _mm512_setzero_si512, _mm512_slli_epi64,
        _mm512_storeu_epi64, _mm512_ternarylogic_epi64, _mm512_xor_si512,
    };

    use super::{State, BUF_WORDS, LANES, LANE_WORDS};

    /// `BIT[b] = 1 << b`, read from memory so that setting bit `b` of
    /// every lane costs no shift or broadcast in the kernel's loop.
    static BIT: [i64; 64] = {
        let mut bit = [0; 64];
        let mut b = 0;
        while b < 64 {
            bit[b] = 1 << b;
            b += 1;
        }
        bit
    };

    /// Word `w` of each lane's state, lane `ℓ` in 64-bit element `ℓ`.
    #[target_feature(enable = "avx512f")]
    fn gather(starts: &[State; LANES], w: usize) -> __m512i {
        let s = |l: usize| starts[l][w] as i64;
        _mm512_set_epi64(s(7), s(6), s(5), s(4), s(3), s(2), s(1), s(0))
    }

    /// The eight 64-bit elements of `v`.
    #[target_feature(enable = "avx512f")]
    fn elements(v: __m512i) -> [u64; LANES] {
        let mut out = [0u64; LANES];
        // SAFETY: `out` is 64 writable bytes, and the store is unaligned.
        unsafe { _mm512_storeu_epi64(out.as_mut_ptr().cast(), v) };
        out
    }

    /// One draw in every lane: returns the outputs and advances `s`, the
    /// update of `super::advance` with its two three-way XORs as one
    /// ternary-logic op each (`0x96` is `a ^ b ^ c`).
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn draw(s: &mut [__m512i; 4]) -> __m512i {
        let [s0, s1, s2, s3] = *s;
        let x = _mm512_add_epi64(_mm512_rol_epi64::<23>(_mm512_add_epi64(s0, s3)), s0);
        let t = _mm512_slli_epi64::<17>(s1);
        let s3x = _mm512_xor_si512(s3, s1);
        *s = [
            _mm512_xor_si512(s0, s3x),
            _mm512_ternarylogic_epi64::<0x96>(s1, s2, s0),
            _mm512_ternarylogic_epi64::<0x96>(s2, s0, t),
            _mm512_rol_epi64::<45>(s3x),
        ];
        x
    }

    /// `acc` with bit `b` set in every lane whose draw `x` is below `below`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn mark(acc: __m512i, x: __m512i, below: __m512i, b: usize) -> __m512i {
        _mm512_mask_or_epi64(
            acc,
            _mm512_cmplt_epu64_mask(x, below),
            acc,
            _mm512_set1_epi64(BIT[b]),
        )
    }

    /// Runs lane `ℓ` from `starts[ℓ]` for `LANE_DRAWS` draws, writing its
    /// outcomes to buffer words `[ℓ·LANE_WORDS, (ℓ+1)·LANE_WORDS)`, and
    /// returns lane 7's end state.
    #[target_feature(enable = "avx512f")]
    pub(super) fn fill(starts: &[State; LANES], below: u64, hits: &mut [u64; BUF_WORDS]) -> State {
        let mut s = [0, 1, 2, 3].map(|w| gather(starts, w));
        let below = _mm512_set1_epi64(below as i64);
        for w in 0..LANE_WORDS {
            let mut acc = _mm512_setzero_si512();
            // Four draws per pass, unrolled by hand: about 5 % faster.
            for b in (0..64).step_by(4) {
                acc = mark(acc, draw(&mut s), below, b);
                acc = mark(acc, draw(&mut s), below, b + 1);
                acc = mark(acc, draw(&mut s), below, b + 2);
                acc = mark(acc, draw(&mut s), below, b + 3);
            }
            for (l, word) in elements(acc).into_iter().enumerate() {
                hits[l * LANE_WORDS + w] = word;
            }
        }
        s.map(|v| elements(v)[LANES - 1])
    }
}

/// The hit bits of one channel's draw stream, [`BUF_DRAWS`] at a time.
#[derive(Clone)]
pub(crate) struct FlipStream {
    threshold: Threshold,
    /// The generator state just past the buffered draws.
    state: State,
    /// Bit `d % 64` of word `d / 64` is set iff buffered draw `d` hits.
    hits: [u64; BUF_WORDS],
    /// Buffered draws already taken; `BUF_DRAWS` when a refill is due.
    pos: usize,
}

impl FlipStream {
    /// The stream of `StdRng::seed_from_u64(seed)` at rate `eps`.
    pub(crate) fn new(eps: f64, seed: u64) -> Self {
        FlipStream {
            threshold: Threshold::new(eps),
            state: seed_state(seed),
            hits: [0; BUF_WORDS],
            pos: BUF_DRAWS,
        }
    }

    /// Buffered draws already taken.
    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    /// Takes the next `n` draws, calling `hit(d)` for each draw `d` in
    /// `0..n` that hits, in ascending order.
    pub(crate) fn for_each_hit(&mut self, n: usize, mut hit: impl FnMut(usize)) {
        let mut done = 0;
        while done < n {
            if self.pos == BUF_DRAWS {
                fill(&mut self.state, self.threshold, &mut self.hits);
                self.pos = 0;
            }
            let (start, end) = (self.pos, BUF_DRAWS.min(self.pos + n - done));
            for w in start / 64..end.div_ceil(64) {
                let mut bits = self.hits[w];
                if w == start / 64 {
                    bits &= u64::MAX << (start % 64);
                }
                if w == (end - 1) / 64 {
                    bits &= u64::MAX >> (63 - (end - 1) % 64);
                }
                while bits != 0 {
                    hit(done + 64 * w + bits.trailing_zeros() as usize - start);
                    bits &= bits - 1;
                }
            }
            done += end - start;
            self.pos = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// A generator that returns one fixed output: feeds a chosen draw to
    /// the vendored `f64` rule.
    struct Fixed(u64);

    impl RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    fn f64_rule(x: u64, eps: f64) -> bool {
        Fixed(x).gen::<f64>() < eps
    }

    fn hits(threshold: Threshold, x: u64) -> bool {
        match threshold {
            Threshold::Below(t) => x < t,
            Threshold::Every => true,
        }
    }

    #[test]
    fn seeding_and_draws_match_std_rng() {
        for seed in [0, 1, 0x5EED, u64::MAX] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut state = seed_state(seed);
            for _ in 0..1_000 {
                assert_eq!(next(&mut state), rng.next_u64(), "seed {seed}");
            }
        }
    }

    #[test]
    fn jump_matrix_equals_a_lane_of_single_steps() {
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..4 {
            let start: State = std::array::from_fn(|_| rng.next_u64());
            let mut stepped = start;
            for _ in 0..LANE_DRAWS {
                advance(&mut stepped);
            }
            assert_eq!(apply(jump(), start), stepped);
        }
    }

    #[test]
    fn avx512_fill_equals_scalar_fill() {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f") {
            let mut hits_simd = [0; BUF_WORDS];
            let mut hits_scalar = [0; BUF_WORDS];
            let near_one = 1.0 - 2f64.powi(-53);
            for (seed, eps) in [
                (1, 1e-3),
                (2, 0.3),
                (3, 0.5),
                (4, 1e-12),
                (5, 0.0),
                (6, near_one),
            ] {
                let below = match Threshold::new(eps) {
                    Threshold::Below(t) => t,
                    Threshold::Every => unreachable!("eps < 1"),
                };
                let mut simd = seed_state(seed);
                let mut scalar = simd;
                assert!(fill_avx512(&mut simd, below, &mut hits_simd));
                fill_scalar(&mut scalar, below, &mut hits_scalar);
                assert_eq!(simd, scalar, "end state, seed {seed}");
                assert!(hits_simd == hits_scalar, "buffers differ, seed {seed}");
            }
            return;
        }
        println!("avx512_fill_equals_scalar_fill: no AVX-512F on this CPU, comparison skipped");
    }

    #[test]
    fn threshold_equals_the_f64_rule_at_its_edges() {
        let mut eps: Vec<f64> = (0..=60).map(|e| 2f64.powi(-e)).collect();
        eps.extend([3.0, 12_345.0, (1u64 << 52) as f64 + 1.0].map(|n| n / (1u64 << 53) as f64));
        eps.extend([f64::from_bits(1), f64::MIN_POSITIVE / 3.0, 1e-310]);
        eps.extend([0.0, 1e-12, 1e-3, 0.3, 1.0 - 2f64.powi(-53), 1.0]);
        for e in eps {
            let threshold = Threshold::new(e);
            let probes: Vec<u64> = match threshold {
                Threshold::Below(t) => [
                    t.checked_sub(1),
                    Some(t),
                    t.checked_add(1),
                    t.checked_sub(1 << 11),
                    t.checked_add(1 << 11),
                ]
                .into_iter()
                .flatten()
                .collect(),
                Threshold::Every => vec![0, 1 << 11, u64::MAX - (1 << 11), u64::MAX],
            };
            for x in probes {
                assert_eq!(hits(threshold, x), f64_rule(x, e), "eps {e:e}, x {x:#x}");
            }
        }
        assert_eq!(Threshold::new(0.0), Threshold::Below(0));
        assert_eq!(Threshold::new(1.0), Threshold::Every);
        assert_eq!(
            Threshold::new(1.0 - 2f64.powi(-53)),
            Threshold::Below(((1u64 << 53) - 1) << 11)
        );
    }
}

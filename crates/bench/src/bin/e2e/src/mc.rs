//! `mc_catalog`: the sharded Monte-Carlo word-error estimator over every
//! catalog scheme — the batch codecs that run under every sweep.
//!
//! Untraced, each op is one `word_error_rate_parallel` call. Traced, the
//! benchmark composes the same estimate from the calls inside it (data
//! draw, `BatchCode::encode`, `corrupt_block`, `BatchCode::decode`,
//! compare) per 64-word block, in `run_shards` over `mc_shards`; the two
//! must give identical estimates.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socbus_channel::montecarlo::mc_shards;
use socbus_channel::{word_error_rate_parallel, BitFlipChannel, WordErrorEstimate};
use socbus_codes::{batch_build, batch_is_native, Scheme, WordBlock, BLOCK_WORDS};
use socbus_exec::{run_shards, shard_seed};
use socbus_model::Word;

use crate::trace::{Spans, Trace};
use crate::workload::{Fnv, Op, Round, Workload, EPS, K};

/// Trials per scheme per round: 2 shards of `MC_SHARD_TRIALS`.
const TRIALS: u64 = 2 * 65_536;
/// Smoke size: two shards, the second ending mid-block.
const SMOKE_TRIALS: u64 = 65_536 + 4_321;

pub struct Mc {
    schemes: Vec<Scheme>,
    trials: u64,
    seed: u64,
}

impl Mc {
    #[must_use]
    pub fn new(seed: u64, smoke: bool) -> Self {
        Mc {
            schemes: Scheme::catalog(),
            trials: if smoke { SMOKE_TRIALS } else { TRIALS },
            seed,
        }
    }

    fn root(&self, i: usize) -> u64 {
        shard_seed(self.seed, i as u64)
    }

    fn op(&self, scheme: Scheme, est: WordErrorEstimate) -> Op {
        let mut h = Fnv::default();
        h.u64(est.trials);
        h.u64(est.failures);
        h.f64(est.rate);
        let broken = (est.trials != self.trials || est.failures > est.trials)
            .then(|| format!("estimate {est:?} for {} trials", self.trials));
        Op {
            label: scheme.name(),
            digest: h.0,
            broken,
        }
    }

    fn traced_estimate(
        &self,
        scheme: Scheme,
        root: u64,
        threads: usize,
        round: u64,
        trace: &mut Trace,
    ) -> WordErrorEstimate {
        let shards = mc_shards(self.trials, root);
        let name = scheme.name();
        let t = Instant::now();
        let done = run_shards(threads, &shards, |_, &(n, seed)| {
            let mut spans = Spans::new(true);
            let est = shard(scheme, n, seed, &mut spans);
            (est, spans.finish(&name, round, true))
        });
        trace.pool(
            threads.max(1).min(shards.len().max(1)),
            t.elapsed().as_nanos() as f64,
        );
        let mut estimates = Vec::with_capacity(done.len());
        for (est, shard_trace) in done {
            estimates.push(est);
            trace.merge(shard_trace.expect("traced shards record"));
        }
        WordErrorEstimate::merged(estimates)
    }
}

/// One shard of `word_error_rate`, block by block, with a span around
/// each call: the same RNG streams in the same order, so the estimate
/// is the library's.
fn shard(scheme: Scheme, trials: u64, seed: u64, spans: &mut Spans) -> WordErrorEstimate {
    let (encode, decode, words_key) = if batch_is_native(scheme) {
        (
            "codes.batch.encode.native",
            "codes.batch.decode.native",
            "codes.batch.words.native",
        )
    } else {
        (
            "codes.batch.encode.fallback",
            "codes.batch.decode.fallback",
            "codes.batch.words.fallback",
        )
    };
    let mut enc = batch_build(scheme, K);
    let mut dec = batch_build(scheme, K);
    let mut ch = BitFlipChannel::new(EPS, seed ^ 0x5EED);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut words: Vec<Word> = Vec::with_capacity(BLOCK_WORDS);
    spans.mark("codes.batch.build");
    let mut failures = 0u64;
    let mut done = 0u64;
    while done < trials {
        let n = usize::try_from((trials - done).min(BLOCK_WORDS as u64)).expect("n <= 64");
        words.clear();
        words.extend((0..n).map(|_| Word::from_bits(rng.gen::<u128>(), K)));
        let data = WordBlock::from_words(&words);
        spans.mark("traffic");
        let sent = enc.encode(&data);
        spans.mark(encode);
        let mut received = sent;
        ch.corrupt_block(&mut received);
        spans.mark("channel.flip");
        let out = dec.decode(&received);
        spans.mark(decode);
        let fail_plane = (0..K).fold(0u64, |acc, i| acc | (out.lane(i) ^ data.lane(i)));
        failures += u64::from(fail_plane.count_ones());
        done += n as u64;
        spans.mark("mc.compare");
    }
    spans.add("traffic.words", trials as f64);
    spans.add(words_key, trials as f64);
    WordErrorEstimate {
        rate: if trials == 0 {
            0.0
        } else {
            failures as f64 / trials as f64
        },
        trials,
        failures,
    }
}

impl Workload for Mc {
    fn item(&self) -> &'static str {
        "trials"
    }

    fn setup(&self) {
        for (i, &scheme) in self.schemes.iter().enumerate() {
            black_box(mc_shards(self.trials, self.root(i)));
            black_box((batch_build(scheme, K), batch_build(scheme, K)));
        }
    }

    fn round(&self, threads: usize, round: u64, traced: bool) -> Round {
        let mut trace = traced.then(Trace::default);
        let ops = self
            .schemes
            .iter()
            .enumerate()
            .map(|(i, &scheme)| {
                let est = match &mut trace {
                    Some(t) => self.traced_estimate(scheme, self.root(i), threads, round, t),
                    None => {
                        word_error_rate_parallel(scheme, K, EPS, self.trials, self.root(i), threads)
                    }
                };
                self.op(scheme, est)
            })
            .collect();
        Round::new(ops, self.trials * self.schemes.len() as u64, &[], trace)
    }

    fn check_once(&self, _threads: usize, first: &Round) -> Vec<(usize, String)> {
        let scheme = self.schemes[0];
        let one = word_error_rate_parallel(scheme, K, EPS, self.trials, self.root(0), 1);
        if self.op(scheme, one).digest == first.ops[0].digest {
            Vec::new()
        } else {
            vec![(0, format!("{} estimate differs at 1 thread", scheme.name()))]
        }
    }
}

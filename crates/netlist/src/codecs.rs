//! Gate-level encoder/decoder generators for every scheme in the catalog.
//!
//! Each codec's word form in `socbus-codes` is the one statement of its
//! structure: the generators read it instead of restating it, so the STA
//! and power numbers measured on these netlists describe the codes being
//! evaluated — the reproduction's stand-in for the paper's "synthesized
//! using a 0.13-µm standard cell library and optimized for speed".
//!
//! * **Encoders of the linear codes** (Uncoded, Shielding, Duplication,
//!   Parity, Hamming, HammingX, ExtHamming, DAP, DAPX, BCH-DEC) are
//!   probed from the word encoder by [`linear_encoder`], which checks the
//!   netlist it builds against the codec.
//! * **Decoders** are one generator per codec family, each reading the
//!   codec's own layout: the read decoder (Uncoded, Shielding,
//!   Duplication), the Hamming-family corrector (Hamming, HammingX,
//!   ExtHamming, BIH) over [`Hamming::parity_wire`] and
//!   [`Hamming::position`], and the DAP selector (DAP, DAPX, DAPBI).
//! * **Hand-written**: the BI(i), BIH and DAPBI encoders, whose flip-flop
//!   state and parallel parity (paper Figs. 5 and 7) are what Table II
//!   measures; BSC; FTC and FTC+HC; BCH-DEC's decoder; Parity's status
//!   flag. The FTC group decoders OR codeword detectors, so off the
//!   codebook FTC and FTC+HC decode differently from the word decoders'
//!   nearest-codeword rule until the two are reconciled.
//!
//! Conventions:
//! * encoder: `k` primary inputs (data), `n` primary outputs (wires);
//! * decoder: `n` primary inputs (wires), first `k` primary outputs are
//!   the data (some decoders append status flags after them);
//! * sequential codecs (BI, BIH, DAPBI, BSC) advance their DFBs once per
//!   [`Netlist::step`], in lockstep with the golden model's word clock.

use crate::builders::{and_tree, equals_const, greater_than_const, or_tree, popcount, xor_tree};
use crate::gf_logic;
use crate::graph::{Netlist, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use socbus_codes::cac::{ftc_codebook, ftc_groups};
use socbus_codes::ecc::{hamming_parity_bits, Hamming};
use socbus_codes::{BusCode, BusInvert, Dap, Scheme};
use socbus_model::Word;
use std::collections::HashMap;

/// An encoder/decoder netlist pair for one scheme instance.
#[derive(Clone, Debug)]
pub struct CodecPair {
    /// Scheme that was synthesized.
    pub scheme: Scheme,
    /// Data width `k`.
    pub data_bits: usize,
    /// Encoder netlist (`k` in, `n` out).
    pub encoder: Netlist,
    /// Decoder netlist (`n` in, `k` data outputs first).
    pub decoder: Netlist,
}

/// Synthesizes the encoder and decoder netlists for `scheme` over `k`
/// data bits.
///
/// # Panics
///
/// Panics on widths the underlying code constructors reject.
#[must_use]
pub fn synthesize(scheme: Scheme, k: usize) -> CodecPair {
    let (encoder, decoder) = match scheme {
        Scheme::BusInvert(i) => bus_invert(k, i),
        Scheme::Bih => (bih_encoder(k), hamming_decoder(&Hamming::bih(k))),
        Scheme::Dapbi => (dapbi_encoder(k), dap_decoder(&Dap::dapbi(k), k + 1)),
        Scheme::Bsc => bsc(k),
        Scheme::Ftc => ftc(k),
        Scheme::FtcHc => ftc_hc(k),
        // The chaos self-test scheme has no hardware story: a gate-level
        // netlist of a deliberately broken decoder is meaningless.
        Scheme::Sabotaged => panic!("Sabotaged is a harness self-test scheme; no netlist exists"),
        linear => {
            let mut code = linear.build(k);
            let decoder = match linear {
                Scheme::Parity => parity_decoder(k),
                Scheme::Hamming => hamming_decoder(&Hamming::new(k)),
                Scheme::HammingX => hamming_decoder(&Hamming::hamming_x(k)),
                Scheme::ExtHamming => hamming_decoder(&Hamming::extended(k)),
                Scheme::Dap | Scheme::Dapx => dap_decoder(&*code, k),
                Scheme::BchDec => bch_decoder(k),
                // Uncoded, Shielding, Duplication.
                _ => read_decoder(&mut *code),
            };
            (linear_encoder(&mut *code), decoder)
        }
    };
    CodecPair {
        scheme,
        data_bits: k,
        encoder,
        decoder,
    }
}

/// Synthesizes the encoder netlist of a linear code by probing its word
/// encoder with unit vectors. Each wire is decided by the data bits whose
/// unit vector sets it: a data input for one bit, a grounded constant for
/// none, and one XOR tree over them in ascending order for several,
/// shared by every wire with the same set (as DAPX's duplicated parity
/// is).
///
/// # Panics
///
/// Panics unless the netlist reproduces the word encoder on every data
/// word for `k ≤ 12`, and on a seeded sample of words above that: a
/// nonlinear code such as FTC has no such netlist.
pub fn linear_encoder(code: &mut dyn BusCode) -> Netlist {
    let k = code.data_bits();
    let mut nl = Netlist::new();
    let ins = nl.inputs(k);
    let mut fan_in = vec![Vec::new(); code.wires()];
    for (i, cw) in unit_codewords(code).into_iter().enumerate() {
        for w in cw.ones() {
            fan_in[w].push(ins[i]);
        }
    }
    let mut trees: HashMap<Vec<NodeId>, NodeId> = HashMap::new();
    for leaves in fan_in {
        let node = *trees
            .entry(leaves)
            .or_insert_with_key(|leaves| xor_tree(&mut nl, leaves));
        nl.output(node);
    }
    let mut rng = StdRng::seed_from_u64(0x11EA2);
    let words: Vec<Word> = if k <= 12 {
        Word::enumerate_all(k).collect()
    } else {
        (0..256).map(|_| Word::random(&mut rng, k)).collect()
    };
    for d in words {
        assert_eq!(
            nl.run(d),
            code.encode(d),
            "the probed {} encoder does not reproduce the codec at {d}",
            code.name()
        );
    }
    nl
}

/// The codeword of each data bit's unit vector, bit 0 first.
fn unit_codewords(code: &mut dyn BusCode) -> Vec<Word> {
    let k = code.data_bits();
    (0..k)
        .map(|i| code.encode(Word::zero(k).with_bit(i, true)))
        .collect()
}

/// Read decoder (Uncoded, Shielding, Duplication): data bit `i` is read
/// from the first wire its unit vector drives.
fn read_decoder(code: &mut dyn BusCode) -> Netlist {
    let mut dec = Netlist::new();
    let ins = dec.inputs(code.wires());
    for cw in unit_codewords(code) {
        let wire = cw.ones().next().expect("every data bit drives a wire");
        dec.output(ins[wire]);
    }
    dec
}

/// Parity decoder: the data wires, then a status flag — the recomputed
/// parity against the received one.
fn parity_decoder(k: usize) -> Netlist {
    let mut dec = Netlist::new();
    let ins = dec.inputs(k + 1);
    for &w in &ins[..k] {
        dec.output(w);
    }
    let recomputed = xor_tree(&mut dec, &ins[..k]);
    let flag = dec.xor(recomputed, ins[k]);
    dec.output(flag);
    dec
}

/// Shared Hamming parity-tree bank: one XOR tree per parity bit over its
/// coverage set among the payload `data`.
fn hamming_parity_trees(nl: &mut Netlist, code: &Hamming, data: &[NodeId]) -> Vec<NodeId> {
    (0..hamming_parity_bits(data.len()))
        .map(|j| {
            let leaves: Vec<NodeId> = code.parity_coverage(j).iter().map(|&i| data[i]).collect();
            xor_tree(nl, &leaves)
        })
        .collect()
}

/// Shared Hamming corrector: computes the syndrome from received data and
/// parity wires and XOR-corrects the flagged data bit, under an odd
/// overall parity `odd` when the code has one (SEC-DED). Returns the
/// corrected data nodes.
fn hamming_corrector(
    nl: &mut Netlist,
    code: &Hamming,
    data: &[NodeId],
    parity: &[NodeId],
    odd: Option<NodeId>,
) -> Vec<NodeId> {
    let recomputed = hamming_parity_trees(nl, code, data);
    let syndrome: Vec<NodeId> = recomputed
        .iter()
        .zip(parity)
        .map(|(&r, &p)| nl.xor(r, p))
        .collect();
    data.iter()
        .enumerate()
        .map(|(i, &d)| {
            let mut hit = equals_const(nl, &syndrome, code.position(i) as u64);
            if let Some(odd) = odd {
                hit = nl.and(hit, odd);
            }
            nl.xor(d, hit)
        })
        .collect()
}

/// Hamming family decoder (Hamming, HammingX, ExtHamming, BIH): the
/// corrector over the payload wires and the [`Hamming::parity_wire`]
/// wires. ExtHamming's overall parity gates every correction, so with
/// even overall parity the raw data goes up (SEC-DED, the word rule);
/// BIH undoes the inversion its corrected invert bit flags.
fn hamming_decoder(code: &Hamming) -> Netlist {
    let q = code.parity_wire(0);
    let m = hamming_parity_bits(q);
    let mut dec = Netlist::new();
    let ins = dec.inputs(code.wires());
    let parity: Vec<NodeId> = (0..m).map(|j| ins[code.parity_wire(j)]).collect();
    // ExtHamming's overall parity is its one parity bit past the m
    // Hamming bits.
    let odd = (code.parity_bits() > m).then(|| xor_tree(&mut dec, &ins));
    let corrected = hamming_corrector(&mut dec, code, &ins[..q], &parity, odd);
    output_data(&mut dec, &corrected, code.data_bits());
    dec
}

/// DAP family decoder (DAP, DAPX, DAPBI; paper Fig. 6): the `q` payload
/// bits sit on wire pairs `(2i, 2i + 1)` and the parity on wire `2q`;
/// the regenerated parity of copy set A selects A when it matches, B
/// otherwise. DAPBI's payload ends in its invert bit, undone last.
fn dap_decoder(code: &dyn BusCode, q: usize) -> Netlist {
    let mut dec = Netlist::new();
    let ins = dec.inputs(code.wires());
    let a: Vec<NodeId> = (0..q).map(|i| ins[2 * i]).collect();
    let recomputed = xor_tree(&mut dec, &a);
    let sel = dec.xor(recomputed, ins[2 * q]);
    let chosen: Vec<NodeId> = (0..q).map(|i| dec.mux(sel, a[i], ins[2 * i + 1])).collect();
    output_data(&mut dec, &chosen, code.data_bits());
    dec
}

/// Outputs the `k` data bits of a decoded payload, undoing the inversion
/// its invert bit flags when it carries one (BIH, DAPBI: payload bit `k`).
fn output_data(nl: &mut Netlist, payload: &[NodeId], k: usize) {
    for &y in &payload[..k] {
        let d = if payload.len() > k {
            nl.xor(y, payload[k])
        } else {
            y
        };
        nl.output(d);
    }
}

/// One bus-invert sub-bus encoder block: returns `(y_bits, invert)` and
/// installs the state DFBs tracking the driven lines.
fn bi_subbus_encoder(nl: &mut Netlist, data: &[NodeId]) -> (Vec<NodeId>, NodeId) {
    let len = data.len();
    let q: Vec<NodeId> = (0..len).map(|_| nl.dff_floating(false)).collect();
    let diffs: Vec<NodeId> = data.iter().zip(&q).map(|(&d, &s)| nl.xor(d, s)).collect();
    let cnt = popcount(nl, &diffs);
    // Invert when strictly more than half the lines would toggle.
    let inv = greater_than_const(nl, &cnt, (len / 2) as u64);
    let y: Vec<NodeId> = data.iter().map(|&d| nl.xor(d, inv)).collect();
    for (&dff, &bit) in q.iter().zip(&y) {
        nl.connect_dff(dff, bit);
    }
    (y, inv)
}

fn bus_invert(k: usize, i: usize) -> (Netlist, Netlist) {
    let code = BusInvert::new(k, i);
    let mut enc = Netlist::new();
    let ins = enc.inputs(k);
    for sub in code.subs() {
        let (y, inv) = bi_subbus_encoder(&mut enc, &ins[sub.data_lo..sub.data_lo + sub.len]);
        for &bit in &y {
            enc.output(bit);
        }
        enc.output(inv);
    }
    let mut dec = Netlist::new();
    let ins = dec.inputs(k + i);
    for sub in code.subs() {
        let inv = ins[sub.wire_lo + sub.len];
        for j in 0..sub.len {
            let o = dec.xor(ins[sub.wire_lo + j], inv);
            dec.output(o);
        }
    }
    (enc, dec)
}

/// BIH encoder (paper Fig. 5): the invert decision and the parity trees
/// run in parallel — the trees over the raw data (invert member assumed
/// 0), then the odd-coverage parities conditionally flipped by the
/// invert bit.
fn bih_encoder(k: usize) -> Netlist {
    let code = Hamming::bih(k);
    let mut enc = Netlist::new();
    let ins = enc.inputs(k);
    let (y, inv) = bi_subbus_encoder(&mut enc, &ins);
    let mut payload = ins.clone();
    payload.push(enc.constant(false));
    let raw_parities = hamming_parity_trees(&mut enc, &code, &payload);
    let parities: Vec<NodeId> = raw_parities
        .iter()
        .zip(code.parity_inverts())
        .map(|(&p, flip)| if flip { enc.xor(p, inv) } else { p })
        .collect();
    for &bit in &y {
        enc.output(bit);
    }
    enc.output(inv);
    for &p in &parities {
        enc.output(p);
    }
    enc
}

/// DAPBI encoder (paper Fig. 7): the parity over `(y, inv)` computed in
/// parallel on the raw data.
fn dapbi_encoder(k: usize) -> Netlist {
    let mut enc = Netlist::new();
    let ins = enc.inputs(k);
    let (y, inv) = bi_subbus_encoder(&mut enc, &ins);
    // parity(y) = parity(d) ^ (k odd ? inv : 0), so
    // p = parity(y) ^ inv = parity(d) ^ ((k+1) odd ? inv : 0).
    let raw = xor_tree(&mut enc, &ins);
    let p = if k.is_multiple_of(2) {
        enc.xor(raw, inv)
    } else {
        raw
    };
    for &bit in &y {
        enc.output(bit);
        enc.output(bit);
    }
    enc.output(inv);
    enc.output(inv);
    enc.output(p);
    enc
}

fn bsc(k: usize) -> (Netlist, Netlist) {
    let wires = 2 * k + 1;
    let mut enc = Netlist::new();
    let ins = enc.inputs(k);
    let p = xor_tree(&mut enc, &ins);
    let phase = toggle_dff(&mut enc);
    // Wire w carries layout0[w] in phase 0, layout1[w] in phase 1.
    for w in 0..wires {
        let l0 = if w == 2 * k { p } else { ins[w / 2] };
        let l1 = if w == 0 { p } else { ins[(w - 1) / 2] };
        if l0 == l1 {
            enc.output(l0);
        } else {
            let o = enc.mux(phase, l0, l1);
            enc.output(o);
        }
    }

    let mut dec = Netlist::new();
    let ins = dec.inputs(wires);
    let phase = toggle_dff(&mut dec);
    let a: Vec<NodeId> = (0..k)
        .map(|i| dec.mux(phase, ins[2 * i], ins[2 * i + 1]))
        .collect();
    let b: Vec<NodeId> = (0..k)
        .map(|i| dec.mux(phase, ins[2 * i + 1], ins[2 * i + 2]))
        .collect();
    let p = dec.mux(phase, ins[2 * k], ins[0]);
    let recomputed = xor_tree(&mut dec, &a);
    let sel = dec.xor(recomputed, p);
    for i in 0..k {
        let o = dec.mux(sel, a[i], b[i]);
        dec.output(o);
    }
    (enc, dec)
}

/// A free-running phase flip-flop: toggles every clock, starts at 0.
fn toggle_dff(nl: &mut Netlist) -> NodeId {
    let q = nl.dff_floating(false);
    let d = nl.not(q);
    nl.connect_dff(q, d);
    q
}

/// FTC sub-bus table mapper: data bits → codeword wires via shared
/// minterm detectors and per-wire OR planes (two-level logic).
fn ftc_group_encoder(nl: &mut Netlist, data: &[NodeId], gwires: usize) -> Vec<NodeId> {
    let bits = data.len();
    let book: Vec<_> = ftc_codebook(gwires).into_iter().take(1 << bits).collect();
    let minterms: Vec<NodeId> = (0..1u64 << bits)
        .map(|m| equals_const(nl, data, m))
        .collect();
    (0..gwires)
        .map(|w| {
            let hits: Vec<NodeId> = book
                .iter()
                .enumerate()
                .filter(|(_, cw)| cw.bit(w))
                .map(|(m, _)| minterms[m])
                .collect();
            or_tree(nl, &hits)
        })
        .collect()
}

/// FTC sub-bus table demapper: codeword wires → data bits via codeword
/// detectors.
fn ftc_group_decoder(nl: &mut Netlist, wires: &[NodeId], bits: usize) -> Vec<NodeId> {
    let book: Vec<_> = ftc_codebook(wires.len())
        .into_iter()
        .take(1 << bits)
        .collect();
    let detectors: Vec<NodeId> = book
        .iter()
        .map(|cw| {
            let lits: Vec<NodeId> = wires
                .iter()
                .enumerate()
                .map(|(w, &n)| if cw.bit(w) { n } else { nl.not(n) })
                .collect();
            and_tree(nl, &lits)
        })
        .collect();
    (0..bits)
        .map(|b| {
            let hits: Vec<NodeId> = detectors
                .iter()
                .enumerate()
                .filter(|(m, _)| (m >> b) & 1 == 1)
                .map(|(_, &d)| d)
                .collect();
            or_tree(nl, &hits)
        })
        .collect()
}

fn ftc(k: usize) -> (Netlist, Netlist) {
    let groups = ftc_groups(k);
    let mut enc = Netlist::new();
    let ins = enc.inputs(k);
    let mut data_lo = 0;
    for (gi, &(bits, gwires)) in groups.iter().enumerate() {
        let wires = ftc_group_encoder(&mut enc, &ins[data_lo..data_lo + bits], gwires);
        for &w in &wires {
            enc.output(w);
        }
        if gi + 1 < groups.len() {
            let s = enc.constant(false);
            enc.output(s);
        }
        data_lo += bits;
    }

    let total: usize = groups.iter().map(|&(_, w)| w).sum::<usize>() + groups.len() - 1;
    let mut dec = Netlist::new();
    let ins = dec.inputs(total);
    let mut wire_lo = 0;
    for &(bits, gwires) in &groups {
        let outs = ftc_group_decoder(&mut dec, &ins[wire_lo..wire_lo + gwires], bits);
        for &o in &outs {
            dec.output(o);
        }
        wire_lo += gwires + 1;
    }
    (enc, dec)
}

fn ftc_hc(k: usize) -> (Netlist, Netlist) {
    let groups = ftc_groups(k);
    let n_code: usize = groups.iter().map(|&(_, w)| w).sum();
    let ftc_wires = n_code + groups.len() - 1;
    let code = Hamming::new(n_code);
    let m = code.parity_bits();

    let mut enc = Netlist::new();
    let ins = enc.inputs(k);
    let mut data_lo = 0;
    let mut code_nodes = Vec::with_capacity(n_code);
    let mut wire_outputs = Vec::new();
    for (gi, &(bits, gwires)) in groups.iter().enumerate() {
        let wires = ftc_group_encoder(&mut enc, &ins[data_lo..data_lo + bits], gwires);
        code_nodes.extend(&wires);
        wire_outputs.extend(wires);
        if gi + 1 < groups.len() {
            let s = enc.constant(false);
            wire_outputs.push(s);
        }
        data_lo += bits;
    }
    let parities = hamming_parity_trees(&mut enc, &code, &code_nodes);
    // Boundary shield, then shield-interleaved parity.
    let s = enc.constant(false);
    wire_outputs.push(s);
    for (j, &p) in parities.iter().enumerate() {
        if j > 0 {
            let s = enc.constant(false);
            wire_outputs.push(s);
        }
        wire_outputs.push(p);
    }
    for o in wire_outputs {
        enc.output(o);
    }

    let total = ftc_wires + 1 + 2 * m - 1;
    let mut dec = Netlist::new();
    let ins = dec.inputs(total);
    // Gather code bits (skipping group shields) and parity bits.
    let mut code_in = Vec::with_capacity(n_code);
    let mut wire_lo = 0;
    for &(_, gwires) in &groups {
        code_in.extend(&ins[wire_lo..wire_lo + gwires]);
        wire_lo += gwires + 1;
    }
    let parity_in: Vec<NodeId> = (0..m).map(|j| ins[ftc_wires + 1 + 2 * j]).collect();
    let corrected = hamming_corrector(&mut dec, &code, &code_in, &parity_in, None);
    let mut code_lo = 0;
    for &(bits, gwires) in &groups {
        let outs = ftc_group_decoder(&mut dec, &corrected[code_lo..code_lo + gwires], bits);
        for &o in &outs {
            dec.output(o);
        }
        code_lo += gwires;
    }
    (enc, dec)
}

/// Double-error-correcting BCH decoder (paper SV extension; its encoder
/// is probed like every linear one): the full datapath — syndrome XOR
/// trees over GF(2^m), the closed-form two-error locator (field inversion
/// by Fermat chain, general multipliers), a Chien-search root detector per
/// wire, and the root-count/priority control replicating the software
/// decoder bit-for-bit. This is the "complex codec" whose overhead the
/// paper flags; here it is measurable by STA and power.
fn bch_decoder(k: usize) -> Netlist {
    let golden = socbus_codes::BchDec::new(k);
    let field = golden.field().clone();
    let m = field.m() as usize;
    let r = golden.parity_bits();
    let n = golden.wires();

    let mut dec = Netlist::new();
    let ins = dec.inputs(n);
    // Polynomial-position view: parity at x^0..x^(r-1), data above.
    let poly: Vec<NodeId> = (0..n)
        .map(|p| if p < r { ins[k + p] } else { ins[p - r] })
        .collect();
    // Syndromes S1 = c(alpha), S3 = c(alpha^3): one XOR tree per bit.
    let syndrome = |dec: &mut Netlist, step: usize| -> Vec<NodeId> {
        (0..m)
            .map(|bit| {
                let leaves: Vec<NodeId> = poly
                    .iter()
                    .enumerate()
                    .filter(|(p, _)| field.alpha_pow(step * p) >> bit & 1 == 1)
                    .map(|(_, &node)| node)
                    .collect();
                xor_tree(dec, &leaves)
            })
            .collect()
    };
    let s1 = syndrome(&mut dec, 1);
    let s3 = syndrome(&mut dec, 3);
    let s1_zero = gf_logic::is_zero(&mut dec, &s1);
    let s1_nonzero = dec.not(s1_zero);

    // Single-error test: S3 == S1^3.
    let s1_sq = gf_logic::square(&mut dec, &field, &s1);
    let s1_cubed = gf_logic::multiply(&mut dec, &field, &s1_sq, &s1);
    let diff = gf_logic::add_elems(&mut dec, &s3, &s1_cubed);
    let cube_match = gf_logic::is_zero(&mut dec, &diff);
    let single = dec.and(s1_nonzero, cube_match);

    // Two-error locator constant q = S1^2 + S3/S1.
    let inv_s1 = gf_logic::inverse(&mut dec, &field, &s1);
    let s3_over_s1 = gf_logic::multiply(&mut dec, &field, &s3, &inv_s1);
    let q = gf_logic::add_elems(&mut dec, &s1_sq, &s3_over_s1);
    let not_single = dec.not(cube_match);
    let double_mode = dec.and(s1_nonzero, not_single);

    // Chien search + single-error position match, per wire position.
    let mut roots = Vec::with_capacity(n);
    let mut single_hits = Vec::with_capacity(n);
    for p in 0..n {
        let x = field.alpha_pow(p);
        let s1x = gf_logic::const_mul(&mut dec, &field, x, &s1);
        let partial = gf_logic::add_elems(&mut dec, &s1x, &q);
        let x_sq = field.mul(x, x);
        let sigma = gf_logic::add_const(&mut dec, x_sq, &partial);
        roots.push(gf_logic::is_zero(&mut dec, &sigma));
        single_hits.push(gf_logic::equals_const_elem(&mut dec, x, &s1));
    }
    // Exactly two roots gate the double correction (software parity).
    let count = popcount(&mut dec, &roots);
    let two = equals_const(&mut dec, &count, 2);
    let double_ok = dec.and(double_mode, two);

    // Flip logic and data outputs (data bit i lives at position r + i).
    for (i, &data_in) in ins.iter().enumerate().take(k) {
        let p = r + i;
        let sflip = dec.and(single, single_hits[p]);
        let dflip = dec.and(double_ok, roots[p]);
        let flip = dec.or(sflip, dflip);
        let out = dec.xor(data_in, flip);
        dec.output(out);
    }
    dec
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use socbus_model::Word;

    /// Drives netlists and golden model in lockstep over a random data
    /// sequence and asserts bit-exact equality of encode and decode.
    fn check_equivalence(scheme: Scheme, k: usize, trials: usize) {
        let mut pair = synthesize(scheme, k);
        let mut golden_enc = scheme.build(k);
        let mut golden_dec = scheme.build(k);
        assert_eq!(pair.encoder.input_count(), k, "{scheme:?} encoder inputs");
        assert_eq!(
            pair.encoder.output_count(),
            golden_enc.wires(),
            "{scheme:?} encoder outputs"
        );
        assert_eq!(
            pair.decoder.input_count(),
            golden_enc.wires(),
            "{scheme:?} decoder inputs"
        );
        let mut rng = StdRng::seed_from_u64(0xC0DEC + k as u64);
        for t in 0..trials {
            let d = Word::from_bits(rng.gen::<u128>(), k);
            let golden_cw = golden_enc.encode(d);
            let net_cw = pair.encoder.step(d);
            assert_eq!(
                net_cw.slice(0, golden_cw.width()),
                golden_cw,
                "{scheme:?} encode mismatch at t={t} for {d}"
            );
            // Inject a single error when the scheme corrects; none else.
            let mut bus = golden_cw;
            if golden_dec.correctable_errors() > 0 {
                let wire = rng.gen_range(0..bus.width());
                bus.set_bit(wire, !bus.bit(wire));
            }
            let golden_out = golden_dec.decode(bus);
            let net_out = pair.decoder.step(bus);
            assert_eq!(
                net_out.slice(0, k),
                golden_out,
                "{scheme:?} decode mismatch at t={t}"
            );
        }
    }

    #[test]
    fn combinational_codecs_match_golden_models() {
        for scheme in [
            Scheme::Uncoded,
            Scheme::Shielding,
            Scheme::Duplication,
            Scheme::Parity,
            Scheme::Hamming,
            Scheme::HammingX,
            Scheme::Dap,
            Scheme::Dapx,
            Scheme::ExtHamming,
        ] {
            check_equivalence(scheme, 4, 100);
            check_equivalence(scheme, 8, 60);
        }
    }

    #[test]
    fn ftc_codecs_match_golden_models() {
        check_equivalence(Scheme::Ftc, 4, 80);
        check_equivalence(Scheme::Ftc, 7, 50);
        check_equivalence(Scheme::FtcHc, 4, 80);
    }

    #[test]
    fn sequential_codecs_match_golden_models() {
        check_equivalence(Scheme::BusInvert(1), 8, 300);
        check_equivalence(Scheme::BusInvert(4), 8, 300);
        check_equivalence(Scheme::Bih, 8, 300);
        check_equivalence(Scheme::Dapbi, 8, 300);
        check_equivalence(Scheme::Bsc, 8, 300);
    }

    #[test]
    fn wide_bus_codecs_match_golden_models() {
        check_equivalence(Scheme::Hamming, 32, 25);
        check_equivalence(Scheme::Dap, 32, 25);
        check_equivalence(Scheme::Dapbi, 32, 40);
        check_equivalence(Scheme::FtcHc, 32, 15);
    }

    #[test]
    fn bch_netlist_matches_golden_under_up_to_two_errors() {
        for k in [8usize, 16, 32] {
            let mut pair = synthesize(Scheme::BchDec, k);
            let mut golden_enc = Scheme::BchDec.build(k);
            let mut golden_dec = Scheme::BchDec.build(k);
            let mut rng = StdRng::seed_from_u64(0xB0C + k as u64);
            for t in 0..80 {
                let d = Word::from_bits(rng.gen::<u128>(), k);
                let cw = golden_enc.encode(d);
                assert_eq!(pair.encoder.step(d), cw, "k={k} encode t={t}");
                let mut bad = cw;
                for _ in 0..(t % 3) {
                    let w = rng.gen_range(0..bad.width());
                    bad.set_bit(w, !bad.bit(w));
                }
                let golden_out = golden_dec.decode(bad);
                assert_eq!(
                    pair.decoder.step(bad).slice(0, k),
                    golden_out,
                    "k={k} decode t={t} ({} flips)",
                    t % 3
                );
            }
        }
    }

    #[test]
    fn bch_decoder_is_much_heavier_than_hamming() {
        // The paper's SV warning, now measurable: the DEC locator datapath
        // dwarfs Hamming's syndrome decoder.
        let bch = synthesize(Scheme::BchDec, 32);
        let ham = synthesize(Scheme::Hamming, 32);
        assert!(
            bch.decoder.cell_count() > 3 * ham.decoder.cell_count(),
            "BCH {} vs Hamming {} cells",
            bch.decoder.cell_count(),
            ham.decoder.cell_count()
        );
    }

    #[test]
    fn dap_decoder_is_lighter_than_bsc_decoder() {
        // Table II's codec ordering has structural roots: BSC needs extra
        // mux columns and a phase flop.
        let dap = synthesize(Scheme::Dap, 4);
        let bsc = synthesize(Scheme::Bsc, 4);
        assert!(bsc.decoder.cell_count() > dap.decoder.cell_count());
        assert!(bsc.encoder.cell_count() > dap.encoder.cell_count());
    }

    #[test]
    fn linear_encoder_probe_matches_bch_golden() {
        let mut code = socbus_codes::BchDec::new(16);
        let nl = linear_encoder(&mut code);
        let mut golden = socbus_codes::BchDec::new(16);
        let mut rng = StdRng::seed_from_u64(66);
        for _ in 0..200 {
            let d = Word::from_bits(rng.gen::<u128>(), 16);
            assert_eq!(nl.run(d), golden.encode(d));
        }
    }

    #[test]
    #[should_panic(expected = "the probed FTC encoder does not reproduce the codec")]
    fn linear_encoder_refuses_a_nonlinear_codec() {
        let _ = linear_encoder(&mut *Scheme::Ftc.build(4));
    }

    #[test]
    fn shielding_has_zero_cells() {
        let pair = synthesize(Scheme::Shielding, 32);
        assert_eq!(pair.encoder.cell_count(), 0);
        assert_eq!(pair.decoder.cell_count(), 0);
    }
}

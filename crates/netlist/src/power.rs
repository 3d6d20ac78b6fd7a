//! Activity-based power estimation.
//!
//! Simulates the netlist over a random (or supplied) input sequence,
//! counts output toggles of every cell, and charges each toggle its cell's
//! internal energy plus the load it drives — the same toggle-count
//! methodology gate-level power estimators apply to synthesized netlists.

use crate::cell::{CellKind, CellLibrary};
use crate::graph::{Netlist, Node};
use crate::sta::node_loads;
use rand::rngs::StdRng;
use rand::SeedableRng;
use socbus_model::Word;

/// Power-simulation result.
#[derive(Clone, Debug, PartialEq)]
pub struct PowerReport {
    /// Average energy per input transfer (J).
    pub energy_per_transfer: f64,
    /// Total toggles observed per node.
    pub toggles: Vec<u64>,
    /// Number of transfers simulated.
    pub transfers: usize,
}

/// Simulates `transfers` uniform random input words and reports average
/// energy per transfer.
///
/// # Panics
///
/// Panics if the netlist has no inputs and `transfers > 0` is fine —
/// zero-input netlists are simulated with empty words.
#[must_use]
pub fn simulate_random(
    nl: &mut Netlist,
    lib: &CellLibrary,
    transfers: usize,
    seed: u64,
) -> PowerReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let k = nl.input_count();
    let words: Vec<Word> = (0..transfers).map(|_| Word::random(&mut rng, k)).collect();
    simulate(nl, lib, &words)
}

/// Simulates the given input sequence and reports average energy per
/// transfer. DFF state advances each word (the netlist is `reset` first).
#[must_use]
pub fn simulate(nl: &mut Netlist, lib: &CellLibrary, words: &[Word]) -> PowerReport {
    nl.reset();
    let load = node_loads(nl, lib);
    let n = nl.nodes().len();
    let mut toggles = vec![0u64; n];
    let mut prev: Option<Vec<bool>> = None;
    for &w in words {
        let vals = nl.evaluate(w);
        if let Some(p) = &prev {
            for i in 0..n {
                if vals[i] != p[i] {
                    toggles[i] += 1;
                }
            }
        }
        // Commit DFF state (mirror of Netlist::step).
        commit_state(nl, &vals);
        prev = Some(vals);
    }
    let mut energy = 0.0;
    for (i, node) in nl.nodes().iter().enumerate() {
        let (kind, is_dff) = match node {
            Node::Input(_) | Node::Const(_) => continue,
            Node::Gate { kind, .. } => (*kind, false),
            Node::Mux { .. } => (CellKind::Mux2, false),
            Node::Dff { .. } => (CellKind::Dff, true),
        };
        let toggle_e = toggles[i] as f64 * lib.toggle_energy(kind, load[i]);
        if is_dff {
            // Flops do not glitch, but pay clock power every cycle.
            energy += toggle_e + words.len() as f64 * lib.dff_clock_energy;
        } else {
            energy += toggle_e * lib.glitch_factor;
        }
    }
    let transfers = words.len().max(1);
    PowerReport {
        energy_per_transfer: energy / transfers as f64,
        toggles,
        transfers: words.len(),
    }
}

fn commit_state(nl: &mut Netlist, vals: &[bool]) {
    // Recompute the DFF commits exactly as Netlist::step does, without
    // re-evaluating: collect (id, d) pairs first to appease borrowing.
    let updates: Vec<(usize, usize)> = nl
        .nodes()
        .iter()
        .enumerate()
        .filter_map(|(id, n)| match n {
            Node::Dff { d, .. } => Some((id, *d)),
            _ => None,
        })
        .collect();
    for (id, d) in updates {
        nl.set_dff_state(id, vals[d]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_inputs_consume_nothing() {
        let lib = CellLibrary::cmos_130nm();
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let x = nl.xor(a, b);
        nl.output(x);
        let words = vec![Word::from_bits(0b01, 2); 50];
        let rep = simulate(&mut nl, &lib, &words);
        assert_eq!(rep.energy_per_transfer, 0.0);
    }

    #[test]
    fn random_inputs_toggle_roughly_half() {
        let lib = CellLibrary::cmos_130nm();
        let mut nl = Netlist::new();
        let a = nl.input();
        let buf = nl.buf(a);
        nl.output(buf);
        let rep = simulate_random(&mut nl, &lib, 4000, 7);
        let rate = rep.toggles[1] as f64 / 4000.0;
        assert!((0.45..0.55).contains(&rate), "toggle rate {rate}");
    }

    #[test]
    fn bigger_netlist_burns_more_energy() {
        let lib = CellLibrary::cmos_130nm();
        let build = |n: usize| {
            let mut nl = Netlist::new();
            let ins = nl.inputs(n);
            let mut acc = ins[0];
            for &i in &ins[1..] {
                acc = nl.xor(acc, i);
            }
            nl.output(acc);
            nl
        };
        let e4 = simulate_random(&mut build(4), &lib, 2000, 1).energy_per_transfer;
        let e16 = simulate_random(&mut build(16), &lib, 2000, 1).energy_per_transfer;
        assert!(e16 > 2.0 * e4);
    }

    #[test]
    fn dff_state_advances_during_power_sim() {
        let lib = CellLibrary::cmos_130nm();
        let mut nl = Netlist::new();
        let one = nl.constant(true);
        let q = nl.dff_floating(false);
        let d = nl.xor(q, one);
        nl.connect_dff(q, d);
        nl.output(q);
        let words = vec![Word::zero(0); 100];
        let rep = simulate(&mut nl, &lib, &words);
        // The toggle flop flips every cycle.
        assert!(rep.toggles[1] >= 98, "toggles {}", rep.toggles[1]);
    }
}

//! Randomized-but-deterministic tests for the analysis machinery:
//! similarity is a tolerance relation, valence maps are
//! schedule-independent, and the witness pipeline is deterministic.
//!
//! Formerly proptest-based; rewritten onto the in-tree
//! [`ioa::rng::SplitMix64`] generator so the suite runs hermetically
//! (no registry dependency) and every case is replayable from its seed.

use analysis::similarity::{find_similarities, j_similar, k_similar};
use analysis::valence::{Valence, ValenceMap};
use ioa::rng::SplitMix64;
use services::atomic::CanonicalAtomicObject;
use spec::seq::BinaryConsensus;
use spec::{ProcId, SvcId, Val};
use std::sync::Arc;
use system::build::CompleteSystem;
use system::consensus::InputAssignment;
use system::process::direct::DirectConsensus;
use system::sched::{initialize, run_random};

fn direct(n: usize, f: usize) -> CompleteSystem<DirectConsensus> {
    let endpoints: Vec<ProcId> = (0..n).map(ProcId).collect();
    let obj = CanonicalAtomicObject::new(Arc::new(BinaryConsensus), endpoints, f);
    CompleteSystem::new(DirectConsensus::new(SvcId(0)), n, vec![Arc::new(obj)])
}

fn random_bits(g: &mut SplitMix64, n: usize) -> InputAssignment {
    InputAssignment::of((0..n).map(|i| (ProcId(i), Val::Int(i64::from(g.gen_bool())))))
}

#[test]
fn similarity_is_reflexive_and_symmetric() {
    let mut g = SplitMix64::seed_from_u64(0xa9a1_0001);
    for _ in 0..32 {
        let seed_a = g.next_u64();
        let seed_b = g.next_u64();
        let sys = direct(3, 1);
        let a = random_bits(&mut g, 3);
        let s0 = {
            let run = run_random(&sys, initialize(&sys, &a), seed_a, &[], 40, |_| false);
            run.exec.last_state().clone()
        };
        let s1 = {
            let run = run_random(&sys, initialize(&sys, &a), seed_b, &[], 40, |_| false);
            run.exec.last_state().clone()
        };
        // Reflexivity: every similarity kind holds between s and s.
        assert_eq!(find_similarities(&sys, &s0, &s0).len(), 3 + 1);
        // Symmetry on an arbitrary pair.
        for i in 0..3 {
            assert_eq!(
                j_similar(&sys, &s0, &s1, ProcId(i)),
                j_similar(&sys, &s1, &s0, ProcId(i))
            );
        }
        assert_eq!(
            k_similar(&sys, &s0, &s1, SvcId(0)),
            k_similar(&sys, &s1, &s0, SvcId(0))
        );
    }
}

#[test]
fn valence_is_monotone_along_any_schedule() {
    // Once univalent, always that same valence; bivalence can only
    // resolve, never flip.
    let sys = direct(2, 0);
    let mut g = SplitMix64::seed_from_u64(0xa9a1_0002);
    for _ in 0..32 {
        let seed = g.next_u64();
        let a = random_bits(&mut g, 2);
        let root = initialize(&sys, &a);
        let map = ValenceMap::build(&sys, root.clone(), 500_000).unwrap();
        let run = run_random(&sys, root, seed, &[], 60, |_| false);
        let mut committed: Option<Valence> = None;
        for st in run.exec.states() {
            let v = map.valence(st);
            match (committed, v) {
                (Some(c), v) => assert_eq!(c, v, "valence flipped after commitment"),
                (None, Valence::Zero) => committed = Some(Valence::Zero),
                (None, Valence::One) => committed = Some(Valence::One),
                (None, _) => {}
            }
        }
    }
}

#[test]
fn reachable_decisions_shrink_along_edges() {
    // decided(s) ⊇ decided(s') for every edge s → s' is false in
    // general (it's the union over successors); the true invariant
    // is decided(s) ⊇ decided(s') for s' a successor. Check it.
    let sys = direct(2, 0);
    let a = InputAssignment::monotone(2, 1);
    let root = initialize(&sys, &a);
    let map = ValenceMap::build(&sys, root.clone(), 500_000).unwrap();
    let mut g = SplitMix64::seed_from_u64(0xa9a1_0003);
    for _ in 0..32 {
        let seed = g.next_u64();
        let run = run_random(&sys, root.clone(), seed, &[], 60, |_| false);
        for w in run.exec.states().windows(2) {
            let before = map.reachable_decisions(w[0]);
            let after = map.reachable_decisions(w[1]);
            assert!(
                after.is_subset(before),
                "a step cannot create new reachable decisions"
            );
        }
    }
}

#[test]
fn lemma3_every_input_first_execution_is_univalent_or_bivalent() {
    // Lemma 3 for the direct candidates: the Undecided class is empty
    // across the entire reachable space of every monotone
    // initialization.
    for (n, f) in [(2usize, 0usize), (3, 1)] {
        let sys = direct(n, f);
        for ones in 0..=n {
            let a = InputAssignment::monotone(n, ones);
            let root = initialize(&sys, &a);
            let map = ValenceMap::build(&sys, root.clone(), 2_000_000).unwrap();
            let census = analysis::graph::census(&map);
            assert_eq!(census.undecided, 0, "n={n}, f={f}, ones={ones}");
        }
    }
}

#[test]
fn witness_headlines_are_deterministic_across_runs() {
    use analysis::witness::{find_witness, Bounds};
    let sys = direct(3, 1);
    let h1 = find_witness(&sys, 1, Bounds::default()).unwrap().headline();
    let h2 = find_witness(&sys, 1, Bounds::default()).unwrap().headline();
    assert_eq!(h1, h2);
}

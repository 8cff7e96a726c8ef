//! Integration test — Theorem 2 (paper Section 3): no system of
//! canonical `f`-resilient atomic objects and reliable registers
//! solves `(f+1)`-resilient binary consensus.
//!
//! The witness pipeline reproduces the proof on concrete candidates:
//! bivalent initialization (Lemma 4) → hook (Lemma 5/Fig. 3) →
//! similar pair with opposite valences (Lemma 8) → failing run
//! (Lemmas 6/7).
//!
//! The `doomed_atomic` cases run twice: over the concrete graph and
//! over its process-permutation quotient (`SymmetryMode::Full`), where
//! they must reach the same witness.

use analysis::similarity::Refutation;
use analysis::witness::{find_witness, Bounds, ImpossibilityWitness};
use ioa::canon::SymmetryMode;
use protocols::doomed::{doomed_atomic, doomed_atomic_with_registers};

/// The exploration modes every `doomed_atomic` case runs under.
const MODES: [SymmetryMode; 2] = [SymmetryMode::Off, SymmetryMode::Full];

/// Theorem 2 on `doomed_atomic(n, f)` in both modes: each must refute
/// the candidate by a termination violation that fails `f + 1`
/// processes.
fn assert_refuted_in_both_modes(n: usize, f: usize) {
    let sys = doomed_atomic(n, f);
    for mode in MODES {
        let w = find_witness(&sys, f, Bounds::default().with_symmetry(mode)).unwrap();
        assert_starvation_witness(&w, f + 1);
    }
}

fn assert_starvation_witness<P: system::process::ProcessAutomaton>(
    w: &ImpossibilityWitness<P>,
    expected_failures: usize,
) {
    match w {
        ImpossibilityWitness::HookRefutation { refutation, .. } => match refutation {
            Refutation::TerminationViolation { failed, .. } => {
                assert_eq!(
                    failed.len(),
                    expected_failures,
                    "the Lemma 6/7 argument fails exactly f + 1 processes"
                );
            }
            other => panic!("expected a termination violation, got {other:?}"),
        },
        other => panic!("expected a hook refutation, got: {}", other.headline()),
    }
}

#[test]
fn theorem2_n2_f0_atomic_object_only() {
    // The FLP special case (f = 0), phrased as boosting: a 0-resilient
    // consensus object cannot yield 1-resilient consensus.
    assert_refuted_in_both_modes(2, 0);
}

#[test]
fn theorem2_n3_f0() {
    assert_refuted_in_both_modes(3, 0);
}

#[test]
fn theorem2_n3_f1_the_proper_generalization() {
    // f = 1 > 0 is the case FLP cannot express: the object tolerates
    // one failure, and still cannot be boosted to two.
    assert_refuted_in_both_modes(3, 1);
}

#[test]
fn theorem2_n4_f2() {
    // Two levels beyond FLP: an object tolerating two failures still
    // cannot be boosted to three.
    assert_refuted_in_both_modes(4, 2);
}

#[test]
fn theorem2_with_reliable_registers_n2_f0() {
    // Adding reliable registers does not help (the theorem's full
    // statement): the candidate that publishes inputs in registers
    // first is refuted the same way.
    let sys = doomed_atomic_with_registers(2, 0);
    let w = find_witness(&sys, 0, Bounds::default()).unwrap();
    assert_starvation_witness(&w, 1);
}

#[test]
fn theorem2_witness_is_reproducible() {
    // The pipeline is deterministic: two runs give the same headline.
    let sys = doomed_atomic(2, 0);
    let w1 = find_witness(&sys, 0, Bounds::default()).unwrap();
    let w2 = find_witness(&sys, 0, Bounds::default()).unwrap();
    assert_eq!(w1.headline(), w2.headline());
}

#[test]
fn theorem2_proof_obligations_as_dsl_properties() {
    // The model-checked facts the Theorem 2 pipeline rests on,
    // restated in the textual property DSL and pinned against the
    // legacy valence queries on the same graph:
    //
    // * failure-free safety: `always(safe)`;
    // * bivalence of the monotone initialization the proof picks:
    //   both decisions reachable, i.e. `ef(decided(0)) & ef(decided(1))`;
    // * the valence atoms agree with `ValenceMap::valence_id`.
    //
    // Every atom is orbit-invariant, so the quotient answers alike.
    use analysis::prop::{evaluate_batch, parse_props, system_vocab, SystemGraph, Verdict};
    use analysis::valence::{Valence, ValenceMap};
    use system::consensus::InputAssignment;
    use system::sched::initialize;

    use SymmetryMode::{Full, Off};
    for (n, f, mode) in [(2, 0, Off), (2, 0, Full), (3, 1, Off), (3, 1, Full)] {
        let sys = doomed_atomic(n, f);
        let assignment = InputAssignment::monotone(n, 1);
        let root = initialize(&sys, &assignment);
        let map = ValenceMap::build_with_symmetry(&sys, root, 2_000_000, 1, mode).unwrap();
        assert_eq!(map.symmetric(), mode == SymmetryMode::Full, "n={n}");
        let graph = SystemGraph::new(&sys, &map);
        let vocab = system_vocab::<_>(assignment);
        let props = parse_props(
            "always(safe); ef(decided(0)) & ef(decided(1)); now(bivalent); \
             ef(zero_valent); ef(one_valent)",
            &vocab,
        )
        .unwrap();
        let report = evaluate_batch(&graph, &props);
        assert!(
            report.results.iter().all(|e| e.verdict == Verdict::Holds),
            "n={n}, {mode:?}: {:?}",
            report.results
        );
        // `now(bivalent)` and the legacy classification agree — and so
        // does its DSL definition via double reachability.
        assert_eq!(map.valence_id(map.root_id()), Valence::Bivalent);
        assert_eq!(report.passes.forward, 1);
        assert!(report.passes.backward <= 1);
    }
}

#[test]
fn hook_similarity_matches_the_lemma8_case_analysis() {
    use analysis::hook::{find_hook, HookOutcome};
    use analysis::init::{find_bivalent_init_sym, InitOutcome};
    use analysis::similarity::{analyze_hook, HookSimilarity};

    let sys = doomed_atomic(3, 1);
    for mode in MODES {
        let InitOutcome::Bivalent { map, .. } =
            find_bivalent_init_sym(&sys, 2_000_000, mode).unwrap()
        else {
            panic!("{mode:?}: Lemma 4 must find a bivalent initialization")
        };
        let HookOutcome::Hook(hook) = find_hook(&sys, &map, 20_000) else {
            panic!("{mode:?}: Lemma 5 must find a hook")
        };
        // Claim 1: e ≠ e'; and the hook endpoints are j- or k-similar.
        assert_ne!(hook.e, hook.e_prime);
        match analyze_hook(&sys, &hook) {
            HookSimilarity::Direct(_) | HookSimilarity::AfterEPrime(_) => {}
            other => panic!("{mode:?}: Lemma 8 case analysis failed: {other:?}"),
        }
    }
}

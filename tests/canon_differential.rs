//! Differential suite — orbit-quotient vs full exploration
//! (DESIGN §2.1.4).
//!
//! The symmetry-reduced explorer must be *invisible* at the level of
//! answers: the quotient map holds exactly one state per reachable
//! orbit (plus the raw root), every concrete state's valence is
//! recoverable through canonicalize-on-lookup, theorem verdicts are
//! unchanged, and quotient witness paths lift back to concrete,
//! replayable executions. Each test here pins one face of that
//! contract against the full (symmetry-off) exploration as the
//! reference, across all three doomed substrates.
//!
//! The reduction factors asserted are the *measured* ones: from a
//! mixed monotone root the orbit intersection inside the reachable set
//! is limited by the input assignment's stabilizer, so `n = 3` yields
//! ~2.3× (mixed) / ~3.6× (unanimous) and the ≥5× payoff arrives at
//! `n = 4` — the sweep this quotient exists to unlock.

use analysis::init::{find_bivalent_init_sym, InitOutcome};
use analysis::prop::{atoms, evaluate, evaluate_batch, Prop, SystemGraph, Witness};
use analysis::valence::ValenceMap;
use analysis::witness::{find_witness, Bounds, ImpossibilityWitness};
use ioa::{Automaton, SymmetryMode};
use protocols::doomed::{doomed_atomic, doomed_general, doomed_oblivious};
use std::collections::HashMap;
use system::build::{CompleteSystem, SystemState};
use system::consensus::InputAssignment;
use system::packed::PackedSystem;
use system::process::ProcessAutomaton;
use system::sched::initialize;

type DirectState =
    SystemState<<system::process::direct::DirectConsensus as ProcessAutomaton>::State>;

fn maps(
    n: usize,
    f: usize,
    ones: usize,
) -> (
    CompleteSystem<system::process::direct::DirectConsensus>,
    ValenceMap<system::process::direct::DirectConsensus>,
    ValenceMap<system::process::direct::DirectConsensus>,
) {
    let sys = doomed_atomic(n, f);
    let root = initialize(&sys, &InputAssignment::monotone(n, ones));
    let full = ValenceMap::build_with_symmetry(&sys, root.clone(), 1_000_000, 1, SymmetryMode::Off)
        .unwrap();
    let quot =
        ValenceMap::build_with_symmetry(&sys, root, 1_000_000, 1, SymmetryMode::Full).unwrap();
    (sys, full, quot)
}

/// |full| = Σ orbit sizes, orbit reps are exactly the quotient's
/// states, and valence is constant on every orbit — for every mixed
/// and unanimous root at n ∈ {2, 3}.
#[test]
fn orbit_census_invariant_and_valences_agree() {
    for (n, f, ones) in [(2, 0, 1), (3, 1, 1), (3, 1, 0)] {
        let (_, full, quot) = maps(n, f, ones);
        assert!(quot.symmetric(), "atomic substrate must pass the gate");
        let group = quot.sym().expect("symmetric map exposes its group");

        // Group the full reachable set by canonical image.
        let mut orbits: HashMap<DirectState, usize> = HashMap::new();
        for id in 0..full.state_count() {
            let s = full.resolve(ioa::store::StateId::from_index(id));
            let (rep, _) = system::packed::canonical_system_state_with(group, s);
            *orbits.entry(rep).or_insert(0) += 1;
        }
        // Σ orbit sizes = |full| (grouping is a partition)…
        assert_eq!(orbits.values().sum::<usize>(), full.state_count());
        // …and the quotient interns exactly the orbit reps, plus
        // the raw root when it is not its own representative.
        let root_is_rep = orbits.contains_key(full.root());
        assert_eq!(
            quot.state_count(),
            orbits.len() + usize::from(!root_is_rep),
            "n={n} ones={ones}: quotient is not one state per orbit"
        );
        for rep in orbits.keys() {
            assert!(
                quot.id_of(rep).is_some(),
                "orbit representative missing from the quotient map"
            );
        }

        // Valence is orbit-invariant and canonicalize-on-lookup
        // resolves every concrete state to its orbit's valence.
        for id in 0..full.state_count() {
            let sid = ioa::store::StateId::from_index(id);
            let s = full.resolve(sid);
            assert_eq!(
                full.valence_id(sid),
                quot.valence(s),
                "n={n} ones={ones}: valence differs modulo orbit"
            );
        }
    }
}

/// The orbit counts themselves are hash-independent invariants of the
/// systems, so the quotient sizes can be pinned exactly. The factors
/// are stabilizer-limited: mixed (1,0,…) roots keep an S_{n-1}-ish
/// stabilizer, unanimous roots quotient by all of S_n.
#[test]
fn reduction_factors_match_measured_floors() {
    let cases = [
        // (n, f, ones, full, quotient, floor numerator)
        (2, 0, 1, 34, 28, 1),     // n=2: barely anything to merge
        (3, 1, 1, 188, 83, 2),    // mixed root: ≥2×
        (3, 1, 0, 125, 35, 3),    // unanimous root: ≥3×
        (5, 3, 1, 4952, 365, 13), // the first n=5 sweep: ≥13×
    ];
    for (n, f, ones, full_count, quot_count, floor) in cases {
        let (_, full, quot) = maps(n, f, ones);
        assert_eq!(
            full.state_count(),
            full_count,
            "n={n} ones={ones}: full size drifted"
        );
        assert_eq!(
            quot.state_count(),
            quot_count,
            "n={n} ones={ones}: orbit count drifted"
        );
        assert!(
            full.state_count() >= floor * quot.state_count(),
            "n={n} ones={ones}: reduction below the {floor}× floor"
        );
    }
}

/// The flagship: at n = 4 the quotient crosses 5× and the sweep that
/// motivated this layer becomes routine (976 → 188 interned states).
#[test]
fn n4_quotient_reduction_reaches_five_x() {
    let (_, full, quot) = maps(4, 2, 1);
    assert_eq!(full.state_count(), 976);
    assert_eq!(quot.state_count(), 188);
    assert!(full.state_count() >= 5 * quot.state_count());
}

/// Substrates that do not satisfy the symmetry contract (the TOB
/// service's responses name their senders; the rotating coordinator
/// keys its control flow on process ids) must degenerate to identity:
/// requesting `Full` yields the bit-identical full exploration, never
/// an unsound quotient.
#[test]
fn asymmetric_substrates_degenerate_to_identity() {
    fn check<P: ProcessAutomaton>(sys: &CompleteSystem<P>, ones: usize) {
        assert!(
            !PackedSystem::symmetric_system(sys),
            "substrate unexpectedly passes the symmetry gate"
        );
        let n = sys.process_count();
        let root = initialize(sys, &InputAssignment::monotone(n, ones));
        let full =
            ValenceMap::build_with_symmetry(sys, root.clone(), 1_000_000, 1, SymmetryMode::Off)
                .unwrap();
        let quot =
            ValenceMap::build_with_symmetry(sys, root, 1_000_000, 1, SymmetryMode::Full).unwrap();
        assert!(!quot.symmetric(), "gate must disarm the canonicalizer");
        assert_eq!(full.state_count(), quot.state_count());
        assert_eq!(full.valences(), quot.valences());
    }
    check(&doomed_oblivious(3, 1), 1);
    check(&doomed_general(3, 1), 1);
}

/// A budget between the orbit count and the full count is exactly the
/// regime the quotient unlocks: the full sweep truncates, the quotient
/// completes. A budget below the orbit count truncates both.
#[test]
fn truncation_budgets_separate_quotient_from_full() {
    let sys = doomed_atomic(3, 1);
    let root = initialize(&sys, &InputAssignment::monotone(3, 1));

    // 83 < 100 < 188: only the quotient fits.
    assert!(
        ValenceMap::build_with_symmetry(&sys, root.clone(), 100, 1, SymmetryMode::Off).is_err(),
        "full exploration must truncate at 100 states"
    );
    let quot =
        ValenceMap::build_with_symmetry(&sys, root.clone(), 100, 1, SymmetryMode::Full).unwrap();
    assert_eq!(quot.state_count(), 83);

    // 20 < 83: even the orbit count does not fit.
    assert!(
        ValenceMap::build_with_symmetry(&sys, root, 20, 1, SymmetryMode::Full).is_err(),
        "quotient exploration must still respect the budget"
    );
}

/// `find_witness` reaches the same theorem verdict (same witness
/// variant) whether the Lemma 4 walk and the hook search run over the
/// quotient or the full graph.
#[test]
fn theorem_verdicts_agree_under_quotient() {
    for (n, f) in [(2, 0), (3, 1)] {
        let sys = doomed_atomic(n, f);
        let w_off = find_witness(&sys, f, Bounds::default().with_symmetry(SymmetryMode::Off))
            .expect("full-mode witness");
        let w_full = find_witness(&sys, f, Bounds::default().with_symmetry(SymmetryMode::Full))
            .expect("quotient-mode witness");
        assert_eq!(
            std::mem::discriminant(&w_off),
            std::mem::discriminant(&w_full),
            "n={n}: witness variant changed under the quotient"
        );
        assert!(
            matches!(w_full, ImpossibilityWitness::HookRefutation { .. }),
            "n={n}: doomed atomic substrate must produce the hook argument"
        );
    }
}

/// The bivalent-initialization stage agrees too — same outcome
/// variant from both modes.
#[test]
fn bivalent_init_agrees_under_quotient() {
    let sys = doomed_atomic(3, 1);
    let off = find_bivalent_init_sym(&sys, 1_000_000, SymmetryMode::Off).unwrap();
    let full = find_bivalent_init_sym(&sys, 1_000_000, SymmetryMode::Full).unwrap();
    match (&off, &full) {
        (
            InitOutcome::Bivalent {
                assignment: a_off, ..
            },
            InitOutcome::Bivalent {
                assignment: a_full, ..
            },
        ) => assert_eq!(a_off, a_full, "different bivalent initialization found"),
        _ => panic!("both modes must find the bivalent initialization"),
    }
}

/// Orbit-invariant properties get identical verdicts over the
/// quotient and the full graph, in one fused batch each.
#[test]
fn prop_verdicts_agree_under_quotient() {
    let (sys, full, quot) = maps(3, 1, 1);
    let assignment = InputAssignment::monotone(3, 1);
    let props = |_g: &SystemGraph<'_, _>| {
        vec![
            Prop::always(atoms::safe(assignment.clone())),
            Prop::exists_path(atoms::decided_value(0)),
            Prop::exists_path(atoms::decided_value(1)),
            Prop::eventually(atoms::decided()),
            Prop::now(atoms::bivalent()),
        ]
    };
    let g_full = SystemGraph::new(&sys, &full);
    let g_quot = SystemGraph::new(&sys, &quot);
    let r_full = evaluate_batch(&g_full, &props(&g_full));
    let r_quot = evaluate_batch(&g_quot, &props(&g_quot));
    let verdicts =
        |r: &analysis::prop::BatchReport| r.results.iter().map(|e| e.verdict).collect::<Vec<_>>();
    assert_eq!(verdicts(&r_full), verdicts(&r_quot));
}

/// A witness path produced over the quotient lives in orbit-rep
/// space; `lift_path` must return a *concrete* execution — states and
/// tasks that replay step-by-step through the deep system from the
/// raw root.
#[test]
fn quotient_witness_paths_lift_to_concrete_executions() {
    let (sys, _, quot) = maps(3, 1, 1);
    let g = SystemGraph::new(&sys, &quot);
    for target in [0, 1] {
        let ev = evaluate(&g, &Prop::exists_path(atoms::decided_value(target)));
        let Some(Witness::Path(path)) = ev.witness else {
            panic!("exists_path(decided({target})) must yield a path witness");
        };
        let (states, tasks) = g.lift_path(&path);
        assert_eq!(states.len(), path.len());
        assert_eq!(tasks.len(), path.len().saturating_sub(1));
        assert_eq!(
            &states[0],
            quot.root(),
            "lifted path starts at the raw root"
        );
        for (k, t) in tasks.iter().enumerate() {
            assert!(
                sys.succ_all(t, &states[k])
                    .into_iter()
                    .any(|(_, s2)| s2 == states[k + 1]),
                "lifted step {k} ({t}) does not replay through the deep system"
            );
        }
        let decided = sys.decided_values(states.last().unwrap());
        assert!(
            decided.contains(&spec::Val::Int(target)),
            "lifted path must end in a state deciding {target}"
        );
    }
}

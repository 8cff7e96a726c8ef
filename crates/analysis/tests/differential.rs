//! Differential tests for the analysis layer on the interned
//! exploration core: the id-indexed [`ValenceMap`] must classify the
//! doomed-atomic system (Theorem 2's candidate: consensus processes
//! over an `f`-resilient atomic object) exactly as a naive state-keyed
//! valence computation does, and the downstream proof machinery
//! (Lemma 4 bivalent init, Lemma 5 hook, Theorem 2 witness) must keep
//! producing the same proof objects as the seed.
//!
//! The naive reference reimplements the seed algorithm verbatim:
//! `HashMap<SystemState, …>` keyed successor lists and a backward
//! fixpoint over cloned states.

use analysis::graph::census;
use analysis::hook::{find_hook, HookOutcome};
use analysis::init::{find_bivalent_init, InitOutcome};
use analysis::similarity::Refutation;
use analysis::valence::{classify, Valence, ValenceMap};
use analysis::witness::{find_witness, Bounds, ImpossibilityWitness};
use ioa::automaton::Automaton;
use services::atomic::CanonicalAtomicObject;
use spec::seq::BinaryConsensus;
use spec::{ProcId, SvcId, Val};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;
use system::build::{CompleteSystem, SystemState};
use system::consensus::InputAssignment;
use system::process::direct::DirectConsensus;
use system::sched::initialize;

/// The doomed-atomic candidate system: `n` direct-consensus processes
/// sharing one canonical `f`-resilient atomic consensus object
/// (`protocols::doomed::doomed_atomic`, replicated here because
/// `analysis` cannot depend on `protocols`).
fn direct(n: usize, f: usize) -> CompleteSystem<DirectConsensus> {
    let endpoints: Vec<ProcId> = (0..n).map(ProcId).collect();
    let obj = CanonicalAtomicObject::new(Arc::new(BinaryConsensus), endpoints, f);
    CompleteSystem::new(DirectConsensus::new(SvcId(0)), n, vec![Arc::new(obj)])
}

type State = SystemState<<DirectConsensus as system::process::ProcessAutomaton>::State>;

/// The seed's valence computation: state-keyed forward exploration
/// (skipping stuttering steps), then a backward reachable-decisions
/// fixpoint over cloned-state hash maps.
fn naive_valences(sys: &CompleteSystem<DirectConsensus>, root: &State) -> HashMap<State, Valence> {
    let tasks = sys.tasks();
    let mut succs: HashMap<State, Vec<State>> = HashMap::new();
    let mut queue: VecDeque<State> = VecDeque::from([root.clone()]);
    succs.insert(root.clone(), Vec::new());
    while let Some(s) = queue.pop_front() {
        let mut out = Vec::new();
        for t in &tasks {
            for (_, s2) in sys.succ_all(t, &s) {
                if s2 != s {
                    if !succs.contains_key(&s2) {
                        succs.insert(s2.clone(), Vec::new());
                        queue.push_back(s2.clone());
                    }
                    out.push(s2);
                }
            }
        }
        succs.insert(s, out);
    }

    let mut decided: HashMap<State, BTreeSet<Val>> = succs
        .keys()
        .map(|s| (s.clone(), sys.decided_values(s)))
        .collect();
    let mut preds: HashMap<State, Vec<State>> = HashMap::new();
    for (s, outs) in &succs {
        for s2 in outs {
            preds.entry(s2.clone()).or_default().push(s.clone());
        }
    }
    let mut work: VecDeque<State> = succs.keys().cloned().collect();
    while let Some(s) = work.pop_front() {
        let vals = decided[&s].clone();
        if vals.is_empty() {
            continue;
        }
        for p in preds.get(&s).cloned().unwrap_or_default() {
            let entry = decided.get_mut(&p).expect("preds are explored");
            let before = entry.len();
            entry.extend(vals.iter().cloned());
            if entry.len() > before {
                work.push_back(p);
            }
        }
    }
    decided
        .into_iter()
        .map(|(s, d)| (s, classify(&d)))
        .collect()
}

#[test]
fn valence_map_matches_the_naive_reference_on_doomed_atomic() {
    for (n, f, ones) in [(2, 0, 1), (2, 1, 1), (2, 0, 0)] {
        let sys = direct(n, f);
        let root = initialize(&sys, &InputAssignment::monotone(n, ones));
        let naive = naive_valences(&sys, &root);
        let map = ValenceMap::build(&sys, root, 1_000_000).unwrap();

        assert_eq!(map.state_count(), naive.len(), "n={n} f={f} ones={ones}");
        for (s, v) in &naive {
            assert!(map.contains(s));
            assert_eq!(map.valence(s), *v, "n={n} f={f} ones={ones} state {s:?}");
        }
        // The census is a flat scan of the same table, so the per-class
        // totals must match a recount of the naive classification.
        let c = census(&map);
        let bivalent = naive.values().filter(|v| **v == Valence::Bivalent).count();
        let zero = naive.values().filter(|v| **v == Valence::Zero).count();
        let one = naive.values().filter(|v| **v == Valence::One).count();
        assert_eq!(
            (c.bivalent, c.zero, c.one, c.total()),
            (bivalent, zero, one, naive.len())
        );
    }
}

#[test]
fn lemma4_bivalent_init_is_unchanged() {
    // Lemma 4 on the doomed 2-process system: the monotone sweep finds
    // a bivalent initialization, and it is the mixed-input one.
    let sys = direct(2, 0);
    let InitOutcome::Bivalent { assignment, map } = find_bivalent_init(&sys, 1_000_000).unwrap()
    else {
        panic!("the doomed system has a bivalent initialization")
    };
    assert_eq!(assignment, InputAssignment::monotone(2, 1));
    assert_eq!(map.valence(map.root()), Valence::Bivalent);
    // The naive reference agrees on the root's bivalence.
    let root = initialize(&sys, &assignment);
    assert_eq!(naive_valences(&sys, &root)[&root], Valence::Bivalent);
}

#[test]
fn lemma5_hook_endpoints_agree_with_the_naive_valences() {
    let sys = direct(2, 0);
    let InitOutcome::Bivalent { map, assignment } = find_bivalent_init(&sys, 1_000_000).unwrap()
    else {
        panic!()
    };
    let HookOutcome::Hook(hook) = find_hook(&sys, &map, 10_000) else {
        panic!("the Fig. 3 construction terminates on the doomed system")
    };
    // The interned map's classification of the hook endpoints…
    assert_eq!(map.valence(&hook.s0), hook.v);
    assert_eq!(map.valence(&hook.s1), hook.v.opposite());
    // …matches the naive reference state-for-state.
    let root = initialize(&sys, &assignment);
    let naive = naive_valences(&sys, &root);
    assert_eq!(naive[&hook.s0], hook.v);
    assert_eq!(naive[&hook.s1], hook.v.opposite());
    assert_eq!(naive[&hook.alpha], Valence::Bivalent);
}

#[test]
fn theorem2_witness_kind_is_unchanged() {
    // The end-to-end pipeline still refutes the doomed system the same
    // way: a hook whose similar pair yields a termination violation.
    let witness = find_witness(&direct(2, 0), 0, Bounds::default()).unwrap();
    let ImpossibilityWitness::HookRefutation { refutation, .. } = witness else {
        panic!("expected a hook refutation, got {witness:?}")
    };
    assert!(
        matches!(refutation, Refutation::TerminationViolation { .. }),
        "expected a termination violation, got {refutation:?}"
    );
}

/// Asserts two valence maps were built over bit-identical graphs:
/// same id assignment, states, edge lists, BFS-tree parents, roots,
/// stats — and therefore the same valence and decided tables.
fn assert_maps_bit_identical<P: system::process::ProcessAutomaton>(
    a: &ValenceMap<P>,
    b: &ValenceMap<P>,
    ctx: &str,
) {
    assert_eq!(a.stats(), b.stats(), "stats differ: {ctx}");
    assert_eq!(a.root_id(), b.root_id(), "roots differ: {ctx}");
    assert_eq!(a.tasks(), b.tasks(), "task lists differ: {ctx}");
    assert_eq!(
        a.state_count(),
        b.state_count(),
        "state count differs: {ctx}"
    );
    for id in a.ids() {
        assert_eq!(a.resolve(id), b.resolve(id), "state {id:?}: {ctx}");
        assert_eq!(a.successors(id), b.successors(id), "edges {id:?}: {ctx}");
        assert_eq!(a.parent(id), b.parent(id), "parent {id:?}: {ctx}");
        assert_eq!(a.valence_id(id), b.valence_id(id), "valence {id:?}: {ctx}");
        assert_eq!(
            a.reachable_decisions_id(id),
            b.reachable_decisions_id(id),
            "decided {id:?}: {ctx}"
        );
    }
}

/// The component-interned explorer ([`system::packed::PackedSystem`])
/// must reproduce the deep-clone explorer's graph bit for bit — same
/// `StateId` assignment, states (after decoding), edge lists, BFS-tree
/// parents and stats — on all three paper substrates, both
/// exhaustively and under tight truncation budgets.
#[test]
fn packed_exploration_matches_deep_exploration_bit_for_bit() {
    use ioa::explore::{ExploreOptions, ExploredGraph};
    use system::packed::PackedSystem;

    fn check_at<P: system::process::ProcessAutomaton>(
        name: &str,
        sys: &CompleteSystem<P>,
        root: &SystemState<P::State>,
        cap: usize,
    ) {
        let opts = ExploreOptions {
            skip_self_loops: true,
            ..ExploreOptions::with_budget(cap)
        };
        let deep = ExploredGraph::explore_with(sys, vec![root.clone()], opts);
        let packed = PackedSystem::with_symmetry(sys, ioa::SymmetryMode::Off);
        let packed_root = packed.encode(root);
        let pk = ExploredGraph::explore_with(&packed, vec![packed_root], opts);
        let ctx = format!("{name} cap={cap}");
        assert_eq!(deep.stats(), pk.stats(), "stats differ: {ctx}");
        assert_eq!(deep.roots(), pk.roots(), "roots differ: {ctx}");
        assert_eq!(deep.tasks(), pk.tasks(), "task lists differ: {ctx}");
        for id in deep.ids() {
            assert_eq!(
                deep.resolve(id),
                &packed.decode(pk.resolve(id)),
                "state {id:?}: {ctx}"
            );
            assert_eq!(
                deep.successors(id),
                pk.successors(id),
                "edges {id:?}: {ctx}"
            );
            assert_eq!(deep.parent(id), pk.parent(id), "parent {id:?}: {ctx}");
        }
    }

    fn check<P: system::process::ProcessAutomaton>(name: &str, sys: &CompleteSystem<P>) {
        let n = sys.process_count();
        let root = initialize(sys, &InputAssignment::monotone(n, 1));
        let total = ValenceMap::build(sys, root.clone(), 1_000_000)
            .unwrap()
            .state_count();
        check_at(name, sys, &root, 1_000_000);
        // Budgets strictly inside the reachable space: truncation must
        // cut at the same state with the same dropped-edge census in
        // both representations.
        for cap in [1 + total / 7, 1 + total / 3] {
            check_at(name, sys, &root, cap);
        }
    }

    check("doomed-atomic(2,0)", &direct(2, 0));
    check("doomed-atomic(3,1)", &direct(3, 1));
    check("tob(2,0)", &protocols::doomed::doomed_oblivious(2, 0));
    check("fd(2)", &protocols::fd_boost::build(2));
}

/// The transition-effect cache (DESIGN §2.1.3) must be invisible in
/// the produced graph: exploring with `PackedSystem::new` (cached) and
/// `PackedSystem::new_uncached` (the PR 3 reference path) must yield
/// the same ids, states, edge rows, BFS-tree parents and stats on all
/// three paper substrates, both exhaustively and under tight
/// truncation budgets. Only the `cache` census field
/// may differ — present on the cached run, absent on the reference.
#[test]
fn cached_exploration_matches_uncached_bit_for_bit() {
    use ioa::explore::{ExploreOptions, ExploredGraph};
    use system::packed::PackedSystem;

    fn check_at<P: system::process::ProcessAutomaton>(
        name: &str,
        sys: &CompleteSystem<P>,
        root: &SystemState<P::State>,
        cap: usize,
    ) {
        let opts = ExploreOptions {
            skip_self_loops: true,
            ..ExploreOptions::with_budget(cap)
        };
        let reference = PackedSystem::new_uncached(sys);
        let ref_root = reference.encode(root);
        let base = ExploredGraph::explore_with(&reference, vec![ref_root], opts);
        let cached = PackedSystem::with_symmetry(sys, ioa::SymmetryMode::Off);
        let cached_root = cached.encode(root);
        let ck = ExploredGraph::explore_with(&cached, vec![cached_root], opts);
        let ctx = format!("{name} cap={cap}");
        assert_eq!(base.stats(), ck.stats(), "stats differ: {ctx}");
        assert_eq!(base.stats().cache, None, "uncached run reported stats");
        let cs = ck
            .stats()
            .cache
            .unwrap_or_else(|| panic!("cached run reported no cache census: {ctx}"));
        assert!(cs.lookups() > 0, "cache never consulted: {ctx}");
        assert_eq!(base.roots(), ck.roots(), "roots differ: {ctx}");
        assert_eq!(base.tasks(), ck.tasks(), "task lists differ: {ctx}");
        for id in base.ids() {
            assert_eq!(
                &cached.decode(ck.resolve(id)),
                &reference.decode(base.resolve(id)),
                "state {id:?}: {ctx}"
            );
            assert_eq!(
                base.successors(id),
                ck.successors(id),
                "edges {id:?}: {ctx}"
            );
            assert_eq!(base.parent(id), ck.parent(id), "parent {id:?}: {ctx}");
        }
    }

    fn check<P: system::process::ProcessAutomaton>(name: &str, sys: &CompleteSystem<P>) {
        let n = sys.process_count();
        let root = initialize(sys, &InputAssignment::monotone(n, 1));
        let total = ValenceMap::build(sys, root.clone(), 1_000_000)
            .unwrap()
            .state_count();
        check_at(name, sys, &root, 1_000_000);
        for cap in [1 + total / 7, 1 + total / 3] {
            check_at(name, sys, &root, cap);
        }
    }

    check("doomed-atomic(2,0)", &direct(2, 0));
    check("doomed-atomic(3,1)", &direct(3, 1));
    check("tob(2,0)", &protocols::doomed::doomed_oblivious(2, 0));
    check("fd(2)", &protocols::fd_boost::build(2));
}

/// The CSR edge arena must hold exactly the adjacency the transition
/// function defines: row `id` = the non-self-loop `(task index,
/// successor)` pairs of `succ_all`, in task order, the index into the
/// system's task list — and the reverse
/// CSR must be its exact transpose, predecessors listed in
/// `(source id, edge position)` order.
#[test]
fn csr_rows_match_direct_succ_all_and_reverse_is_the_transpose() {
    for (name, sys) in [
        ("doomed-atomic(2,0)", direct(2, 0)),
        ("doomed-atomic(3,1)", direct(3, 1)),
    ] {
        let n = sys.process_count();
        let root = initialize(&sys, &InputAssignment::monotone(n, 1));
        let map = ValenceMap::build(&sys, root, 1_000_000).unwrap();
        let tasks = sys.tasks();
        assert_eq!(map.tasks(), tasks.as_slice(), "{name} task list");

        let mut naive_preds: Vec<Vec<ioa::StateId>> = vec![Vec::new(); map.state_count()];
        for id in map.ids() {
            // Forward row: recompute from the transition function.
            let mut expect = Vec::new();
            let s = map.resolve(id).clone();
            for (k, t) in (0..).zip(&tasks) {
                for (_, s2) in sys.succ_all(t, &s) {
                    if s2 != s {
                        let id2 = map.id_of(&s2).expect("successors are explored");
                        expect.push((k, id2));
                    }
                }
            }
            assert_eq!(map.successors(id), expect.as_slice(), "{name} row {id:?}");
            for (_, id2) in map.successors(id) {
                naive_preds[id2.index()].push(id);
            }
        }
        // Reverse rows: scanning sources in id order and pushing per
        // edge reproduces (source, position) order exactly.
        for id in map.ids() {
            assert_eq!(
                map.predecessors(id),
                naive_preds[id.index()].as_slice(),
                "{name} reverse row {id:?}"
            );
        }
    }
}

/// The Fig. 3 hook construction must be indifferent to cache state:
/// a map built on a cold shared [`PackedSystem`], one built on the
/// same system warmed by a previous build, and one built uncached all
/// yield the same hook, corner for corner.
#[test]
fn hook_is_identical_on_cold_warm_and_uncached_maps() {
    use system::packed::PackedSystem;
    let sys = direct(2, 0);
    let root = initialize(&sys, &InputAssignment::monotone(2, 1));

    let shared = PackedSystem::new(&sys);
    let cold = ValenceMap::build_in(&sys, &shared, root.clone(), 1_000_000, 1).unwrap();
    let warm = ValenceMap::build_in(&sys, &shared, root.clone(), 1_000_000, 1).unwrap();
    assert_maps_bit_identical(&cold, &warm, "cold vs warm");
    let warm_cache = warm.stats().cache.expect("cached run");
    assert!(
        warm_cache.hit_rate() >= 0.9,
        "warm build hit rate {:.4} below floor",
        warm_cache.hit_rate()
    );

    let reference = PackedSystem::new_uncached(&sys);
    let uncached = ValenceMap::build_in(&sys, &reference, root, 1_000_000, 1).unwrap();
    assert_maps_bit_identical(&warm, &uncached, "warm vs uncached");

    let h_warm = find_hook(&sys, &warm, 10_000);
    let h_uncached = find_hook(&sys, &uncached, 10_000);
    assert_eq!(format!("{h_warm:?}"), format!("{h_uncached:?}"));
    assert!(matches!(h_warm, HookOutcome::Hook(_)));
}

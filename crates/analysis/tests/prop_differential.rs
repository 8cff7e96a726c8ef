//! Differential pinning of the property DSL against the hand-written
//! legacy checks it re-expresses, over the real paper substrates
//! (doomed-atomic, doomed-oblivious, doomed-general).
//!
//! Three layers of agreement:
//!
//! * **verdicts** — every DSL verdict matches a naive reference
//!   computed directly on the explored graph (id-order safety scan,
//!   forward BFS reachability, backward `AF` least fixpoint);
//! * **witnesses** — id-based witness paths are bit-identical to the
//!   legacy discovery chains (BFS-tree parent walks), which are the
//!   shortest paths the seed reported;
//! * **fusion** — the batch evaluator returns exactly the singleton
//!   evaluations while spending at most one forward and one backward
//!   CSR traversal per graph (the pass-counter gate CI runs).

use analysis::prop::{
    atoms, evaluate, evaluate_batch, parse_props, system_vocab, Prop, SystemGraph, Verdict, Witness,
};
use analysis::valence::{Valence, ValenceMap};
use ioa::store::StateId;
use protocols::doomed::{doomed_atomic, doomed_general, doomed_oblivious};
use std::collections::VecDeque;
use system::build::CompleteSystem;
use system::consensus::{check_safety, InputAssignment};
use system::process::ProcessAutomaton;
use system::sched::initialize;

const BUDGET: usize = 500_000;

/// Forward BFS over the map's id graph: distance from the root to
/// every id, in the same successor order the exploration used.
fn naive_distances<P: ProcessAutomaton>(map: &ValenceMap<P>) -> Vec<Option<usize>> {
    let mut dist: Vec<Option<usize>> = vec![None; map.state_count()];
    let root = map.root_id();
    dist[root.index()] = Some(0);
    let mut queue = VecDeque::from([root]);
    while let Some(u) = queue.pop_front() {
        let d = dist[u.index()].unwrap();
        for &(_, v) in map.successors(u) {
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(d + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Backward `AF` least fixpoint, naively iterated to stability:
/// `af(s) = goal(s) ∨ (s has successors ∧ every successor is af)`.
fn naive_af<P: ProcessAutomaton>(map: &ValenceMap<P>, goal: &[bool]) -> Vec<bool> {
    let mut af = goal.to_vec();
    loop {
        let mut changed = false;
        for id in map.ids() {
            if af[id.index()] {
                continue;
            }
            let succs = map.successors(id);
            if !succs.is_empty() && succs.iter().all(|(_, v)| af[v.index()]) {
                af[id.index()] = true;
                changed = true;
            }
        }
        if !changed {
            return af;
        }
    }
}

/// The legacy discovery chain to `id`: the BFS-tree parent walk the
/// seed's path reconstruction used.
fn legacy_chain<P: ProcessAutomaton>(map: &ValenceMap<P>, id: StateId) -> Vec<StateId> {
    let mut path = vec![id];
    let mut cur = id;
    while let Some(parent) = map.parent(cur) {
        cur = parent;
        path.push(cur);
    }
    path.reverse();
    path
}

/// Every pinned comparison for one substrate.
fn pin_system<P: ProcessAutomaton>(sys: &CompleteSystem<P>, ones: usize) {
    let n = sys.process_count();
    let assignment = InputAssignment::monotone(n, ones);
    let root = initialize(sys, &assignment);
    let map = ValenceMap::build(sys, root, BUDGET).expect("budget is ample");
    let graph = SystemGraph::new(sys, &map);
    let dist = naive_distances(&map);

    // --- Atom layer: valence atoms agree with the map, state by state.
    let bivalent = atoms::bivalent::<P>();
    let zero = atoms::zero_valent::<P>();
    let one = atoms::one_valent::<P>();
    for id in map.ids() {
        assert_eq!(
            bivalent.holds_at(&graph, id),
            map.valence_id(id) == Valence::Bivalent
        );
        assert_eq!(
            zero.holds_at(&graph, id),
            map.valence_id(id) == Valence::Zero
        );
        assert_eq!(one.holds_at(&graph, id), map.valence_id(id) == Valence::One);
    }

    // --- always(safe): the stage-1 safety scan, verdict and absence of
    // a counterexample pinned against the legacy id-order scan.
    let legacy_violation = map
        .ids()
        .find(|&id| check_safety(sys, map.resolve(id), &assignment).is_some());
    let ev = evaluate(&graph, &Prop::always(atoms::safe(assignment.clone())));
    match legacy_violation {
        None => assert_eq!(ev.verdict, Verdict::Holds),
        Some(bad) => {
            assert_eq!(ev.verdict, Verdict::Fails);
            assert_eq!(ev.witness, Some(Witness::Path(legacy_chain(&map, bad))));
        }
    }

    // --- always(undecided) fails (the system decides somewhere); the
    // counterexample ends at the first decided id in discovery order,
    // reached along the legacy discovery chain.
    let first_decided = map
        .ids()
        .find(|&id| {
            map.valence_id(id) != Valence::Bivalent && map.valence_id(id) != Valence::Undecided
        })
        .or_else(|| {
            map.ids()
                .find(|&id| !map.reachable_decisions_id(id).is_empty())
        });
    let ev = evaluate(&graph, &Prop::always(atoms::undecided()));
    let legacy_bad = map
        .ids()
        .find(|&id| !atoms::undecided::<P>().holds_at(&graph, id));
    match legacy_bad {
        Some(bad) => {
            assert_eq!(ev.verdict, Verdict::Fails, "{first_decided:?}");
            assert_eq!(ev.witness, Some(Witness::Path(legacy_chain(&map, bad))));
        }
        None => assert_eq!(ev.verdict, Verdict::Holds),
    }

    // --- exists_path(decided(v)): reachability of each decision value,
    // pinned against the valence map's root decision set; the witness
    // is the legacy chain to the first satisfying id.
    for v in [0i64, 1] {
        let a = atoms::decided_value::<P>(v);
        let target = map.ids().find(|&id| a.holds_at(&graph, id));
        let ev = evaluate(&graph, &Prop::exists_path(a));
        match target {
            Some(t) => {
                assert_eq!(ev.verdict, Verdict::Holds);
                let path = match ev.witness {
                    Some(Witness::Path(p)) => p,
                    other => panic!("expected path witness, got {other:?}"),
                };
                assert_eq!(path, legacy_chain(&map, t));
                // The chain is a genuine shortest path.
                assert_eq!(path.len() - 1, dist[t.index()].unwrap());
            }
            None => assert_eq!(ev.verdict, Verdict::Fails),
        }
    }

    // --- eventually(decided): verdict against the naive backward
    // fixpoint; a failing witness must be a genuine goal-avoiding
    // maximal path.
    let decided = atoms::decided::<P>();
    let goal: Vec<bool> = map.ids().map(|id| decided.holds_at(&graph, id)).collect();
    let af = naive_af(&map, &goal);
    let ev = evaluate(&graph, &Prop::eventually(decided.clone()));
    assert_eq!(
        ev.verdict,
        if af[map.root_id().index()] {
            Verdict::Holds
        } else {
            Verdict::Fails
        }
    );
    if ev.verdict == Verdict::Fails {
        let (path, cycle_start) = match ev.witness {
            Some(Witness::Path(ref p)) => (p.clone(), None),
            Some(Witness::Lasso {
                ref path,
                cycle_start,
            }) => (path.clone(), Some(cycle_start)),
            ref other => panic!("expected path or lasso, got {other:?}"),
        };
        assert_eq!(path[0], map.root_id());
        for w in path.windows(2) {
            assert!(
                map.successors(w[0]).iter().any(|&(_, v)| v == w[1]),
                "witness step not an edge"
            );
        }
        assert!(path.iter().all(|&id| !goal[id.index()]));
        match cycle_start {
            None => assert!(map.successors(*path.last().unwrap()).is_empty()),
            Some(k) => {
                let last = *path.last().unwrap();
                assert!(map.successors(last).iter().any(|&(_, v)| v == path[k]));
            }
        }
    }

    // --- leads_to(bivalent, decided): AG(bivalent ⇒ AF decided),
    // against the same naive fixpoint.
    let ev = evaluate(&graph, &Prop::leads_to(atoms::bivalent(), decided.clone()));
    let naive = map
        .ids()
        .all(|id| map.valence_id(id) != Valence::Bivalent || af[id.index()]);
    assert_eq!(
        ev.verdict,
        if naive {
            Verdict::Holds
        } else {
            Verdict::Fails
        }
    );
}

/// Batch evaluation over a parsed textual property set: fused results
/// equal the singleton evaluations, within the traversal budget.
fn pin_batch<P: ProcessAutomaton>(sys: &CompleteSystem<P>, ones: usize) {
    let n = sys.process_count();
    let assignment = InputAssignment::monotone(n, ones);
    let root = initialize(sys, &assignment);
    let map = ValenceMap::build(sys, root, BUDGET).expect("budget is ample");
    let graph = SystemGraph::new(sys, &map);
    let vocab = system_vocab::<P>(assignment);
    let props = parse_props(
        "always(safe); \
         ef(bivalent); \
         ef(decided(0)) & ef(decided(1)); \
         af(decided); \
         af_fair(decided); \
         leads_to(bivalent, decided); \
         !ef(failed(0)); \
         no_failures",
        &vocab,
    )
    .expect("property script parses");
    assert!(props.len() >= 6);
    let report = evaluate_batch(&graph, &props);
    assert_eq!(report.passes.forward, 1, "one fused forward scan");
    assert!(report.passes.backward <= 1, "at most one backward sweep");
    for (p, fused) in props.iter().zip(&report.results) {
        let solo = evaluate(&graph, p);
        assert_eq!(solo, *fused, "fused != sequential for {p}");
    }
    // Failure-free exploration never reaches a failed state, and the
    // bivalence structure of the doomed substrates is fixed.
    assert_eq!(report.results[0].verdict, Verdict::Holds, "safety");
    assert_eq!(report.results[6].verdict, Verdict::Holds, "!ef(failed)");
    assert_eq!(report.results[7].verdict, Verdict::Holds, "no_failures");
}

#[test]
fn doomed_atomic_2_matches_legacy() {
    let sys = doomed_atomic(2, 0);
    pin_system(&sys, 1);
    pin_batch(&sys, 1);
}

#[test]
fn doomed_atomic_3_matches_legacy() {
    let sys = doomed_atomic(3, 1);
    pin_system(&sys, 1);
    pin_batch(&sys, 1);
}

#[test]
fn doomed_oblivious_matches_legacy() {
    let sys = doomed_oblivious(2, 0);
    pin_system(&sys, 1);
    pin_batch(&sys, 1);
}

#[test]
fn doomed_general_matches_legacy() {
    let sys = doomed_general(2, 0);
    pin_system(&sys, 1);
    pin_batch(&sys, 1);
}

/// Two independent builds (each over its own packed system, so its own
/// component-id arenas) answer the same batch identically.
#[test]
fn independent_builds_agree_bit_for_bit() {
    let sys = doomed_atomic(2, 0);
    let assignment = InputAssignment::monotone(2, 1);
    let root = initialize(&sys, &assignment);
    let m1 = ValenceMap::build(&sys, root.clone(), BUDGET).unwrap();
    let m4 = ValenceMap::build(&sys, root, BUDGET).unwrap();
    let g1 = SystemGraph::new(&sys, &m1);
    let g4 = SystemGraph::new(&sys, &m4);
    let vocab = system_vocab::<_>(assignment);
    let props = parse_props(
        "always(safe); ef(bivalent); af(decided); leads_to(bivalent, decided); \
         ef(decided(0)); ef(decided(1))",
        &vocab,
    )
    .unwrap();
    let r1 = evaluate_batch(&g1, &props);
    let r4 = evaluate_batch(&g4, &props);
    assert_eq!(r1.results, r4.results);
    assert_eq!(r1.passes, r4.passes);
}

/// The CI traversal gate: a batch of many properties over one graph
/// spends exactly one forward scan and at most one backward sweep —
/// the instrumented counters are the same ones `evaluate_batch`
/// reports, mirroring the PR-4 effect-cache gate.
#[test]
fn pass_counter_gate() {
    let sys = doomed_atomic(2, 0);
    let assignment = InputAssignment::monotone(2, 1);
    let root = initialize(&sys, &assignment);
    let map = ValenceMap::build(&sys, root, BUDGET).unwrap();
    let graph = SystemGraph::new(&sys, &map);
    let vocab = system_vocab::<_>(assignment);
    let props = parse_props(
        "always(safe); always(no_failures); ef(bivalent); ef(decided(0)); \
         ef(decided(1)); af(decided); leads_to(bivalent, decided); \
         leads_to(decided(0), decided(0)); !ef(failed(0)); now(undecided)",
        &vocab,
    )
    .unwrap();
    let report = evaluate_batch(&graph, &props);
    assert_eq!(
        report.passes.forward, 1,
        "fused batch must share a single forward CSR scan"
    );
    assert!(
        report.passes.backward <= 1,
        "fused batch must share at most one backward fixpoint"
    );
}

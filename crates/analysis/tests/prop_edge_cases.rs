//! Evaluator edge cases: empty graphs, truncated graphs (where
//! `eventually` must answer "unknown / frontier open", never a false
//! verdict), single-state graphs, and properties over failed-process
//! masks.

use analysis::prop::{atoms, evaluate, evaluate_batch, Atom, Prop, SystemGraph, Verdict, Witness};
use analysis::valence::ValenceMap;
use ioa::automaton::{ActionKind, Automaton};
use ioa::explore::{ExploreOptions, ExploredGraph};
use protocols::doomed::doomed_atomic;
use spec::ProcId;
use system::consensus::InputAssignment;
use system::sched::initialize;

/// A bounded counter: state `k` steps to `k + 1` until `limit`.
#[derive(Clone, Debug)]
struct Counter {
    limit: usize,
}

impl Automaton for Counter {
    type State = usize;
    type Action = usize;
    type Task = usize;

    fn initial_states(&self) -> Vec<usize> {
        vec![0]
    }
    fn tasks(&self) -> Vec<usize> {
        vec![0]
    }
    fn succ_all(&self, _t: &usize, s: &usize) -> Vec<(usize, usize)> {
        if *s < self.limit {
            vec![(*s, s + 1)]
        } else {
            Vec::new()
        }
    }
    fn apply_input(&self, _s: &usize, _a: &usize) -> Option<usize> {
        None
    }
    fn kind(&self, _a: &usize) -> ActionKind {
        ActionKind::Internal
    }
}

fn explore(limit: usize, budget: usize) -> ExploredGraph<Counter> {
    ExploredGraph::explore_with(
        &Counter { limit },
        vec![0],
        ExploreOptions::with_budget(budget),
    )
}

fn at(k: usize) -> Atom<'static, ExploredGraph<Counter>> {
    Atom::on_state(format!("at({k})"), move |s: &usize| *s == k)
}

#[test]
fn empty_graph_every_universal_holds_every_existential_fails() {
    // No roots: the graph has no states at all.
    let g = ExploredGraph::explore_with(
        &Counter { limit: 3 },
        Vec::new(),
        ExploreOptions::with_budget(10),
    );
    assert_eq!(g.len(), 0);
    assert_eq!(evaluate(&g, &Prop::always(at(0))).verdict, Verdict::Holds);
    assert_eq!(
        evaluate(&g, &Prop::eventually(at(0))).verdict,
        Verdict::Holds
    );
    assert_eq!(
        evaluate(&g, &Prop::exists_path(at(0))).verdict,
        Verdict::Fails
    );
    assert_eq!(evaluate(&g, &Prop::now(at(0))).verdict, Verdict::Holds);
    let report = evaluate_batch(&g, &[Prop::always(at(0)), Prop::exists_path(at(1))]);
    assert!(report.passes.forward <= 1, "zero states need no real scan");
    assert_eq!(report.passes.backward, 0, "nothing to sweep backward");
}

#[test]
fn truncated_graph_eventually_is_unknown_not_false() {
    // The counter reaches 9 but the budget keeps only {0..4}: the
    // frontier is open, so "eventually at(9)" is not refutable — the
    // missing suffix could decide it either way.
    let g = explore(9, 5);
    assert!(g.stats().truncated());
    let ev = evaluate(&g, &Prop::eventually(at(9)));
    assert_eq!(ev.verdict, Verdict::Unknown);
    assert!(
        ev.reason.as_deref().unwrap_or("").contains("frontier open"),
        "reason must name the open frontier, got {:?}",
        ev.reason
    );
    // Same for a goal that *is* inside the kept prefix but not at the
    // root: a kept path reaches it, yet some unexplored branch might
    // not — with one task here it actually must, but the evaluator may
    // not assume that, so Unknown is the only sound answer.
    assert_eq!(
        evaluate(&g, &Prop::eventually(at(3))).verdict,
        Verdict::Unknown
    );
    // A root that already satisfies the goal is decided despite the
    // truncation.
    assert_eq!(
        evaluate(&g, &Prop::eventually(at(0))).verdict,
        Verdict::Holds
    );
    // Explored facts stay decisive; absences go unknown.
    assert_eq!(
        evaluate(&g, &Prop::exists_path(at(3))).verdict,
        Verdict::Holds
    );
    assert_eq!(
        evaluate(&g, &Prop::exists_path(at(9))).verdict,
        Verdict::Unknown
    );
    assert_eq!(
        evaluate(&g, &Prop::always(at(0))).verdict,
        Verdict::Fails,
        "an explored violation refutes the invariant even when open"
    );
    assert_eq!(
        evaluate(
            &g,
            &Prop::always(Atom::on_state("low", |s: &usize| *s < 100))
        )
        .verdict,
        Verdict::Unknown
    );
    // The backward sweep is skipped entirely on open frontiers.
    let report = evaluate_batch(&g, &[Prop::eventually(at(9)), Prop::leads_to(at(1), at(3))]);
    assert_eq!(report.passes.backward, 0);
    assert!(report.results.iter().all(|e| e.verdict == Verdict::Unknown));
}

#[test]
fn single_state_graph() {
    let g = explore(0, 10);
    assert_eq!(g.len(), 1);
    assert!(!g.stats().truncated());
    // The lone state is terminal: every maximal path is just it.
    assert_eq!(evaluate(&g, &Prop::always(at(0))).verdict, Verdict::Holds);
    assert_eq!(
        evaluate(&g, &Prop::eventually(at(0))).verdict,
        Verdict::Holds
    );
    let miss = evaluate(&g, &Prop::eventually(at(1)));
    assert_eq!(miss.verdict, Verdict::Fails);
    assert_eq!(
        miss.witness,
        Some(Witness::Path(vec![g.roots()[0]])),
        "the counterexample is the root itself, already terminal"
    );
    let hit = evaluate(&g, &Prop::exists_path(at(0)));
    assert_eq!(hit.verdict, Verdict::Holds);
    assert_eq!(hit.witness, Some(Witness::Path(vec![g.roots()[0]])));
    assert_eq!(
        evaluate(&g, &Prop::leads_to(at(0), at(0))).verdict,
        Verdict::Holds
    );
    assert_eq!(
        evaluate(&g, &Prop::leads_to(at(0), at(1))).verdict,
        Verdict::Fails
    );
}

#[test]
fn failed_process_masks() {
    // Explore from a root where process 0 has already failed: the
    // failure mask is part of the state and persists along every path.
    let sys = doomed_atomic(2, 0);
    let assignment = InputAssignment::monotone(2, 1);
    let healthy = initialize(&sys, &assignment);
    let crashed = sys.fail(&healthy, ProcId(0));
    let map = ValenceMap::build(&sys, crashed, 500_000).expect("small system");
    let graph = SystemGraph::new(&sys, &map);

    let report = evaluate_batch(
        &graph,
        &[
            Prop::always(atoms::failed(0)),
            Prop::not(Prop::exists_path(atoms::no_failures())),
            Prop::exists_path(atoms::failed(1)),
            Prop::always(atoms::safe(assignment)),
        ],
    );
    assert_eq!(
        report.results[0].verdict,
        Verdict::Holds,
        "fail_0 is permanent: every reachable state keeps the mask"
    );
    assert_eq!(
        report.results[1].verdict,
        Verdict::Holds,
        "no reachable state drops back to a failure-free mask"
    );
    assert_eq!(
        report.results[2].verdict,
        Verdict::Fails,
        "no fail_1 input occurs during exploration"
    );
    assert_eq!(
        report.results[3].verdict,
        Verdict::Holds,
        "safety is not violated merely by the crash"
    );

    // Differential: the atom agrees with the raw mask on every state.
    let failed0 = atoms::failed::<_>(0);
    let no_fail = atoms::no_failures::<_>();
    for id in map.ids() {
        assert_eq!(
            failed0.holds_at(&graph, id),
            map.resolve(id).failed.contains(&ProcId(0))
        );
        assert_eq!(
            no_fail.holds_at(&graph, id),
            map.resolve(id).failed.is_empty()
        );
    }
}

#[test]
fn process_indices_outside_the_system_name_no_process() {
    // `proc_decided(i)` and `failed(i)` for i ≥ n answer false on every
    // state instead of panicking or reading a service slot or the
    // failed mask as a process — including i ≥ 32, past the mask width.
    let sys = doomed_atomic(3, 1);
    let assignment = InputAssignment::monotone(3, 1);
    let crashed = sys.fail(&initialize(&sys, &assignment), ProcId(0));
    let map = ValenceMap::build(&sys, crashed, 500_000).expect("small system");
    let graph = SystemGraph::new(&sys, &map);
    for i in [3, 4, 7, 31, 32, 40, usize::MAX] {
        let report = evaluate_batch(
            &graph,
            &[
                Prop::exists_path(atoms::proc_decided(i)),
                Prop::exists_path(atoms::failed(i)),
            ],
        );
        assert_eq!(
            report.results[0].verdict,
            Verdict::Fails,
            "proc_decided({i})"
        );
        assert_eq!(report.results[1].verdict, Verdict::Fails, "failed({i})");
    }
    // In range, both atoms still see the state.
    let report = evaluate_batch(
        &graph,
        &[
            Prop::exists_path(atoms::proc_decided(2)),
            Prop::always(atoms::failed(0)),
        ],
    );
    assert_eq!(report.results[0].verdict, Verdict::Holds);
    assert_eq!(report.results[1].verdict, Verdict::Holds);
}

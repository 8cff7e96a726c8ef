//! Integration test — Lemma 1 (paper Section 2.2.3), executed: an
//! applicable task remains applicable until an action of that task
//! occurs, along failure-free executions of the complete system.
//!
//! The proof is two lines (process tasks are always enabled; service
//! tasks stay enabled while their buffered work is untouched) — but it
//! is the load-bearing fact behind the Fig. 3 construction and the
//! Lemma 5 case analysis, so we check it across every system family in
//! the workspace under randomized schedules.

use ioa::automaton::Automaton;
use protocols::doomed::{doomed_atomic, doomed_general, doomed_oblivious};
use protocols::message_passing::build_flood_all;
use system::build::{CompleteSystem, SystemState};
use system::consensus::InputAssignment;
use system::process::ProcessAutomaton;
use system::sched::{initialize, run_random};
use system::Task;

/// Checks Lemma 1 along one execution: whenever task `e` is applicable
/// at step p and does not fire within `steps[p..q]`, it is applicable
/// at every state in between.
fn check_lemma1<P: ProcessAutomaton>(
    sys: &CompleteSystem<P>,
    states: &[&SystemState<P::State>],
    fired: &[Option<Task>],
) {
    let tasks = sys.tasks();
    for e in &tasks {
        let mut applicable_since: Option<usize> = None;
        for (p, s) in states.iter().enumerate() {
            let now = sys.applicable(e, s);
            if let Some(since) = applicable_since {
                assert!(
                    now,
                    "Lemma 1 violated: task {e} applicable at step {since} \
                     became inapplicable at step {p} without firing"
                );
            }
            // Did e fire in the step leading to the *next* state?
            let fires_next = fired.get(p).map(|t| t.as_ref() == Some(e)).unwrap_or(false);
            if fires_next {
                applicable_since = None;
            } else if now && applicable_since.is_none() {
                applicable_since = Some(p);
            }
        }
    }
}

fn drive_and_check<P: ProcessAutomaton>(sys: &CompleteSystem<P>, a: &InputAssignment) {
    for seed in 0..8u64 {
        let s = initialize(sys, a);
        let run = run_random(sys, s, seed, &[], 120, |_| false);
        let states = run.exec.states();
        let fired: Vec<Option<Task>> = run.exec.steps().iter().map(|st| st.task.clone()).collect();
        check_lemma1(sys, &states, &fired);
    }
}

#[test]
fn lemma1_holds_for_atomic_object_systems() {
    let sys = doomed_atomic(3, 1);
    drive_and_check(&sys, &InputAssignment::monotone(3, 1));
}

#[test]
fn lemma1_as_a_dsl_invariant_over_the_explored_graph() {
    // The same stability fact, restated exhaustively as a property of
    // `G(C)` instead of sampled schedules: for every task `e`, the
    // invariant "if `e` is applicable here, it stays applicable across
    // every outgoing step that is not `e` itself" holds at every
    // reachable state. The atom inspects the graph context (successor
    // edges carry the fired task), so one `always(...)` per task
    // covers every failure-free execution at once.
    use analysis::prop::{evaluate_batch, Atom, Prop, SystemGraph, Verdict};
    use analysis::valence::ValenceMap;

    let sys = doomed_atomic(2, 0);
    let root = initialize(&sys, &InputAssignment::monotone(2, 1));
    // Pinned to the full graph: `stable(e)` names a *specific* task,
    // which is not orbit-invariant (quotient edges carry
    // representative-relative labels), so this property lives outside
    // the symmetry quotient's sound fragment — like `failed(i)`.
    let map =
        ValenceMap::build_with_symmetry(&sys, root, 2_000_000, 0, ioa::SymmetryMode::Off).unwrap();
    let graph = SystemGraph::new(&sys, &map);

    let props: Vec<Prop<'_, SystemGraph<'_, _>>> = sys
        .tasks()
        .into_iter()
        .map(|e| {
            let name = format!("stable({e})");
            Prop::always(Atom::new(name, move |g: &SystemGraph<'_, _>, id| {
                !g.sys().applicable(&e, g.map().resolve(id))
                    || g.map().successors(id).iter().all(|&(k, s2)| {
                        g.map().tasks()[k as usize] == e
                            || g.sys().applicable(&e, g.map().resolve(s2))
                    })
            }))
        })
        .collect();
    let report = evaluate_batch(&graph, &props);
    assert_eq!(report.passes.forward, 1, "one scan decides every task");
    for (p, ev) in props.iter().zip(&report.results) {
        assert_eq!(ev.verdict, Verdict::Holds, "Lemma 1 violated for {p}");
    }
}

#[test]
fn lemma1_holds_for_failure_oblivious_systems() {
    let sys = doomed_oblivious(3, 1);
    drive_and_check(&sys, &InputAssignment::monotone(3, 2));
}

#[test]
fn lemma1_holds_for_general_service_systems() {
    let sys = doomed_general(2, 0);
    drive_and_check(&sys, &InputAssignment::monotone(2, 1));
}

#[test]
fn lemma1_holds_for_message_passing_systems() {
    let sys = build_flood_all(3, 1);
    drive_and_check(&sys, &InputAssignment::monotone(3, 1));
}

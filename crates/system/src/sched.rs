//! Schedulers: initializations, failure injection, fair round-robin
//! variants and randomized runs.
//!
//! The paper's executions of interest are *input-first* (Section 3.2):
//! all `init()` inputs arrive before anything else. [`initialize`]
//! builds such a prefix. Failures are injected as `fail_i` inputs at
//! scheduler-chosen points. Two execution drivers are provided:
//!
//! * [`run_fair`] — deterministic round-robin over tasks with a
//!   pluggable *branch policy* resolving the nondeterminism inside a
//!   task (real vs dummy, nondeterministic `δ` outcomes). Round-robin
//!   runs are fair by construction, so their lassos witness fair
//!   nontermination and their quiescent endpoints are fair finite
//!   executions.
//! * [`run_random`] — uniformly random applicable-task selection with a
//!   seeded RNG, for statistical sweeps on systems too large to
//!   explore exhaustively.
//!
//! An exact task script (the paper's "task sequences specify
//! executions", Section 3.1) needs no driver: [`Execution::replay`]
//! applies each task's deterministic step and skips inapplicable ones.

use crate::action::Action;
use crate::build::{CompleteSystem, SystemState};
use crate::consensus::InputAssignment;
use crate::process::ProcessAutomaton;
use ioa::automaton::Automaton;
use ioa::execution::{Execution, Step};
use ioa::rng::SplitMix64;
use std::collections::HashMap;

/// Applies the `init(v)_i` inputs of `assignment` (in `ProcId` order)
/// to the system's initial state — an *initialization* in the paper's
/// sense: a finite execution containing exactly one `init()_i` per
/// assigned process and nothing else.
pub fn initialize<P: ProcessAutomaton>(
    sys: &CompleteSystem<P>,
    assignment: &InputAssignment,
) -> SystemState<P::State> {
    let mut s = sys.single_initial_state();
    for (i, v) in &assignment.0 {
        s = sys.init(&s, *i, v.clone());
    }
    s
}

/// How to resolve the nondeterministic branches within one task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BranchPolicy {
    /// Prefer real (non-dummy) actions, taking the canonical least
    /// branch — the determinization of Section 3.1.
    Canonical,
    /// Prefer dummy actions when offered — the adversary that silences
    /// services whose resilience has been exceeded.
    PreferDummy,
}

impl BranchPolicy {
    fn pick<S>(self, branches: Vec<(Action, S)>) -> Option<(Action, S)> {
        match self {
            BranchPolicy::Canonical => branches.into_iter().next(),
            BranchPolicy::PreferDummy => {
                let dummy_idx = branches.iter().position(|(a, _)| a.is_dummy());
                match dummy_idx {
                    Some(idx) => branches.into_iter().nth(idx),
                    None => branches.into_iter().next(),
                }
            }
        }
    }
}

/// How a [`run_fair`] drive ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FairOutcome {
    /// The stop predicate triggered.
    Stopped,
    /// A (state, scheduler-position) configuration repeated: the run is
    /// in a fair cycle. The payload is the step index where the cycle
    /// begins.
    Lasso(usize),
    /// No task was applicable: the run quiesced with budget to spare.
    /// A quiescent finite run is fair (no task is ever again enabled),
    /// so this is a *positive* termination verdict — distinct from
    /// [`FairOutcome::Budget`], which is inconclusive.
    Quiescent,
    /// The step budget ran out.
    Budget,
}

/// A completed fair run.
#[derive(Debug)]
pub struct FairRun<A: Automaton> {
    /// The generated execution (from the supplied start state).
    pub exec: Execution<A>,
    /// How it ended.
    pub outcome: FairOutcome,
}

/// Drives the automaton round-robin from `start` under `policy`,
/// injecting `fail_i` for each `(step, i)` in `failures` just before
/// the scheduler's step number `step`. Stops when `stop` holds, a
/// configuration repeats (fair lasso), no task is applicable
/// (quiescence), or `max_steps` scheduler-chosen steps elapse.
///
/// Step accounting: failure indices and `max_steps` both count
/// *scheduler-chosen* task steps only. Injected `fail` inputs appear in
/// the returned execution (so `exec.len()` can exceed `max_steps` by
/// `failures.len()`) but consume no budget and do not shift later
/// injection points.
///
/// Generic over the automaton so adversarial toys can exercise the
/// driver; the complete system instantiates `A = CompleteSystem<P>`.
pub fn run_fair<A, F>(
    sys: &A,
    start: A::State,
    policy: BranchPolicy,
    failures: &[(usize, spec::ProcId)],
    max_steps: usize,
    stop: F,
) -> FairRun<A>
where
    A: Automaton<Action = Action>,
    F: Fn(&A::State) -> bool,
{
    let tasks = sys.tasks();
    let mut exec = Execution::new(start);
    let mut pending_failures: Vec<(usize, spec::ProcId)> = failures.to_vec();
    pending_failures.sort();
    let mut pos = 0usize;
    let mut steps = 0usize;
    let mut seen: HashMap<(A::State, usize), usize> = HashMap::new();
    if stop(exec.last_state()) {
        return FairRun {
            exec,
            outcome: FairOutcome::Stopped,
        };
    }
    while steps < max_steps {
        // Inject any failures scheduled at or before this scheduler
        // step. Inputs are not steps: they consume no budget.
        while let Some(&(at, i)) = pending_failures.first() {
            if at <= steps {
                exec.apply_input(sys, Action::Fail(i));
                pending_failures.remove(0);
            } else {
                break;
            }
        }
        let config = (exec.last_state().clone(), pos);
        if pending_failures.is_empty() {
            if let Some(&idx) = seen.get(&config) {
                return FairRun {
                    exec,
                    outcome: FairOutcome::Lasso(idx),
                };
            }
            seen.insert(config, exec.len());
        }
        // One round-robin offer. The cheap `applicable` check prunes
        // disabled tasks without materializing their (empty) successor
        // vectors; an automaton whose `applicable` over-approximates
        // still falls through to the empty-pick `continue` below.
        let mut fired = false;
        for off in 0..tasks.len() {
            let t = &tasks[(pos + off) % tasks.len()];
            if !sys.applicable(t, exec.last_state()) {
                continue;
            }
            let branches = sys.succ_all(t, exec.last_state());
            if let Some((action, state)) = policy.pick(branches) {
                exec.push(Step {
                    task: Some(t.clone()),
                    action,
                    state,
                });
                pos = (pos + off + 1) % tasks.len();
                fired = true;
                break;
            }
        }
        if !fired {
            // Nothing is enabled and nothing ever will be (tasks only
            // get re-enabled by steps): the run quiesced.
            return FairRun {
                exec,
                outcome: FairOutcome::Quiescent,
            };
        }
        steps += 1;
        if stop(exec.last_state()) {
            return FairRun {
                exec,
                outcome: FairOutcome::Stopped,
            };
        }
    }
    FairRun {
        exec,
        outcome: FairOutcome::Budget,
    }
}

/// Drives the system by uniformly random choice among applicable tasks
/// and among each task's branches, injecting the given failures.
/// Deterministic for a fixed `seed`: the schedule is drawn from the
/// in-tree [`SplitMix64`] stream, so the same seed replays the same run
/// on every platform and toolchain (unlike `rand::StdRng`, whose
/// algorithm is unstable across crate versions).
pub fn run_random<A, F>(
    sys: &A,
    start: A::State,
    seed: u64,
    failures: &[(usize, spec::ProcId)],
    max_steps: usize,
    stop: F,
) -> FairRun<A>
where
    A: Automaton<Action = Action>,
    F: Fn(&A::State) -> bool,
{
    let mut rng = SplitMix64::seed_from_u64(seed);
    let tasks = sys.tasks();
    let mut exec = Execution::new(start);
    let mut pending: Vec<(usize, spec::ProcId)> = failures.to_vec();
    pending.sort();
    let mut steps = 0usize;
    if stop(exec.last_state()) {
        return FairRun {
            exec,
            outcome: FairOutcome::Stopped,
        };
    }
    while steps < max_steps {
        // Failure indices count scheduler-chosen steps, exactly as in
        // [`run_fair`]; injected inputs consume no budget.
        while let Some(&(at, i)) = pending.first() {
            if at <= steps {
                exec.apply_input(sys, Action::Fail(i));
                pending.remove(0);
            } else {
                break;
            }
        }
        let state = exec.last_state().clone();
        // Candidate tasks come from the cheap `applicable` predicate,
        // so only the drawn task materializes its successor vector. For
        // exact `applicable` implementations the candidate set (and
        // hence the RNG stream) is identical to filtering on nonempty
        // `succ_all`; an automaton whose `applicable` over-approximates
        // (buggy or adversarial) yields an empty branch list for the
        // drawn task, which is evicted and redrawn — degrading to
        // quiescence instead of panicking on an empty `gen_range`.
        let mut candidates: Vec<&A::Task> =
            tasks.iter().filter(|t| sys.applicable(t, &state)).collect();
        loop {
            if candidates.is_empty() {
                return FairRun {
                    exec,
                    outcome: FairOutcome::Quiescent,
                };
            }
            let idx = rng.gen_range(candidates.len());
            let t = candidates[idx];
            let mut branches = sys.succ_all(t, &state);
            if branches.is_empty() {
                candidates.swap_remove(idx);
                continue;
            }
            let pick = rng.gen_range(branches.len());
            let (action, next) = branches.swap_remove(pick);
            exec.push(Step {
                task: Some(t.clone()),
                action,
                state: next,
            });
            break;
        }
        steps += 1;
        if stop(exec.last_state()) {
            return FairRun {
                exec,
                outcome: FairOutcome::Stopped,
            };
        }
    }
    FairRun {
        exec,
        outcome: FairOutcome::Budget,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Task;
    use crate::consensus::{all_obliged_decided, check_safety};
    use crate::process::direct::DirectConsensus;
    use services::atomic::CanonicalAtomicObject;
    use spec::seq::BinaryConsensus;
    use spec::{ProcId, SvcId, Val};
    use std::sync::Arc;

    fn direct(n: usize, f: usize) -> CompleteSystem<DirectConsensus> {
        let endpoints: Vec<ProcId> = (0..n).map(ProcId).collect();
        let obj = CanonicalAtomicObject::new(Arc::new(BinaryConsensus), endpoints, f);
        CompleteSystem::new(DirectConsensus::new(SvcId(0)), n, vec![Arc::new(obj)])
    }

    #[test]
    fn initialization_is_input_first() {
        let sys = direct(3, 2);
        let a = InputAssignment::monotone(3, 1);
        let s = initialize(&sys, &a);
        // Inputs are registered in process states but nothing else ran.
        assert!(sys.decided_values(&s).is_empty());
        assert!(s.failed.is_empty());
    }

    #[test]
    fn canonical_fair_run_decides() {
        let sys = direct(3, 2);
        let a = InputAssignment::monotone(3, 2);
        let s = initialize(&sys, &a);
        let run = run_fair(&sys, s, BranchPolicy::Canonical, &[], 10_000, |st| {
            all_obliged_decided(&sys, st, &a)
        });
        assert_eq!(run.outcome, FairOutcome::Stopped);
        assert_eq!(check_safety(&sys, run.exec.last_state(), &a), None);
    }

    #[test]
    fn dummy_preferring_adversary_starves_after_resilience_exceeded() {
        // f = 0 object, one failure: the adversary silences the object
        // and the fair run lassos without the survivor deciding.
        let sys = direct(2, 0);
        let a = InputAssignment::monotone(2, 1);
        let s = initialize(&sys, &a);
        let run = run_fair(
            &sys,
            s,
            BranchPolicy::PreferDummy,
            &[(0, ProcId(1))],
            50_000,
            |st| all_obliged_decided(&sys, st, &a),
        );
        match run.outcome {
            FairOutcome::Lasso(_) => {
                assert_eq!(sys.decision(run.exec.last_state(), ProcId(0)), None);
            }
            other => panic!("expected a fair non-deciding lasso, got {other:?}"),
        }
    }

    #[test]
    fn canonical_run_survives_failures_within_resilience() {
        // Wait-free object (f = 2), 3 processes, 2 failures: survivor
        // still decides even under the dummy-preferring adversary,
        // because |failed| = 2 ≤ f keeps the survivor's dummies off.
        let sys = direct(3, 2);
        let a = InputAssignment::monotone(3, 3);
        let s = initialize(&sys, &a);
        let run = run_fair(
            &sys,
            s,
            BranchPolicy::PreferDummy,
            &[(0, ProcId(1)), (0, ProcId(2))],
            50_000,
            |st| sys.decision(st, ProcId(0)).is_some(),
        );
        assert_eq!(run.outcome, FairOutcome::Stopped);
        assert_eq!(
            sys.decision(run.exec.last_state(), ProcId(0)),
            Some(Val::Int(1))
        );
    }

    #[test]
    fn scripted_runs_follow_the_script_exactly() {
        let sys = direct(2, 1);
        let a = InputAssignment::monotone(2, 1);
        let mut exec = Execution::new(initialize(&sys, &a));
        let script = [
            Task::Proc(ProcId(0)),
            Task::Perform(SvcId(0), ProcId(0)),
            Task::Output(SvcId(0), ProcId(0)),
            Task::Proc(ProcId(0)),
        ];
        exec.replay(&sys, &script);
        assert_eq!(exec.len(), 4);
        // P0 (input 1) raced alone: it decided its own input.
        assert_eq!(
            sys.decision(exec.last_state(), ProcId(0)),
            Some(Val::Int(1))
        );
        assert_eq!(sys.decision(exec.last_state(), ProcId(1)), None);
    }

    /// A single-task chain `n -> n-1 -> … -> 0` that quiesces at 0:
    /// the smallest automaton whose tasks can all become inapplicable.
    #[derive(Debug)]
    struct Countdown;

    impl Automaton for Countdown {
        type State = u8;
        type Action = Action;
        type Task = Task;

        fn initial_states(&self) -> Vec<u8> {
            vec![2]
        }
        fn tasks(&self) -> Vec<Task> {
            vec![Task::Proc(ProcId(0))]
        }
        fn succ_all(&self, _t: &Task, s: &u8) -> Vec<(Action, u8)> {
            if *s == 0 {
                Vec::new()
            } else {
                vec![(Action::ProcStep(ProcId(0)), s - 1)]
            }
        }
        fn apply_input(&self, s: &u8, a: &Action) -> Option<u8> {
            matches!(a, Action::Fail(_)).then_some(*s)
        }
        fn kind(&self, a: &Action) -> ioa::automaton::ActionKind {
            match a {
                Action::Init(..) | Action::Fail(..) => ioa::automaton::ActionKind::Input,
                _ => ioa::automaton::ActionKind::Internal,
            }
        }
    }

    /// An adversarial automaton whose `applicable` over-approximates
    /// `succ_all`: it claims its task is enabled but offers no branch.
    #[derive(Debug)]
    struct Liar;

    impl Automaton for Liar {
        type State = u8;
        type Action = Action;
        type Task = Task;

        fn initial_states(&self) -> Vec<u8> {
            vec![0]
        }
        fn tasks(&self) -> Vec<Task> {
            vec![Task::Proc(ProcId(0))]
        }
        fn succ_all(&self, _t: &Task, _s: &u8) -> Vec<(Action, u8)> {
            Vec::new()
        }
        fn applicable(&self, _t: &Task, _s: &u8) -> bool {
            true // the lie
        }
        fn apply_input(&self, _s: &u8, _a: &Action) -> Option<u8> {
            None
        }
        fn kind(&self, _a: &Action) -> ioa::automaton::ActionKind {
            ioa::automaton::ActionKind::Internal
        }
    }

    #[test]
    fn quiescence_is_not_reported_as_budget() {
        // Regression: both drivers used to answer Budget when no task
        // was applicable, conflating "fairly terminated" with "gave up".
        let run = run_fair(&Countdown, 2, BranchPolicy::Canonical, &[], 100, |_| false);
        assert_eq!(run.outcome, FairOutcome::Quiescent);
        assert_eq!(run.exec.len(), 2, "the chain ran to its end");
        let run = run_random(&Countdown, 2, 7, &[], 100, |_| false);
        assert_eq!(run.outcome, FairOutcome::Quiescent);
        assert_eq!(run.exec.len(), 2);
    }

    #[test]
    fn lying_applicable_degrades_to_quiescent() {
        // Regression: run_random trusted `applicable` and then called
        // gen_range(branches.len()) on the empty branch list — a panic.
        let run = run_random(&Liar, 0, 7, &[], 10, |_| false);
        assert_eq!(run.outcome, FairOutcome::Quiescent);
        assert!(run.exec.is_empty());
    }

    #[test]
    fn failure_injections_do_not_consume_budget_or_shift() {
        // Regression: injected fail inputs used to count against
        // max_steps and to advance the injection clock, so
        // [(0, p1), (1, p2)] fired back-to-back before any task step
        // and the budget silently shrank by the number of failures.
        let sys = direct(3, 2);
        let a = InputAssignment::monotone(3, 1);
        let s = initialize(&sys, &a);
        let failures = [(0, ProcId(1)), (1, ProcId(2))];
        let run = run_fair(&sys, s, BranchPolicy::Canonical, &failures, 3, |_| false);
        assert_eq!(run.outcome, FairOutcome::Budget);
        let steps = run.exec.steps();
        assert_eq!(steps[0].action, Action::Fail(ProcId(1)), "fail at step 0");
        assert!(steps[1].task.is_some(), "a scheduler step separates them");
        assert_eq!(steps[2].action, Action::Fail(ProcId(2)), "fail at step 1");
        let chosen = steps.iter().filter(|st| st.task.is_some()).count();
        assert_eq!(chosen, 3, "the full budget went to scheduler steps");
        assert_eq!(run.exec.len(), 5, "both inputs are still in the trace");
    }

    #[test]
    fn random_failure_injection_uses_scheduler_step_indices() {
        let sys = direct(3, 2);
        let a = InputAssignment::monotone(3, 1);
        let s = initialize(&sys, &a);
        let failures = [(0, ProcId(1)), (1, ProcId(2))];
        let run = run_random(&sys, s, 42, &failures, 3, |_| false);
        assert_eq!(run.outcome, FairOutcome::Budget);
        let steps = run.exec.steps();
        assert_eq!(steps[0].action, Action::Fail(ProcId(1)));
        assert!(steps[1].task.is_some());
        assert_eq!(steps[2].action, Action::Fail(ProcId(2)));
        assert_eq!(steps.iter().filter(|st| st.task.is_some()).count(), 3);
    }

    #[test]
    fn random_runs_are_reproducible_and_safe() {
        let sys = direct(3, 2);
        let a = InputAssignment::monotone(3, 1);
        for seed in 0..10u64 {
            let s = initialize(&sys, &a);
            let run = run_random(&sys, s, seed, &[], 5_000, |st| {
                all_obliged_decided(&sys, st, &a)
            });
            assert_eq!(run.outcome, FairOutcome::Stopped, "seed {seed}");
            assert_eq!(check_safety(&sys, run.exec.last_state(), &a), None);
        }
        // Reproducibility: same seed, same trace length.
        let s1 = initialize(&sys, &a);
        let r1 = run_random(&sys, s1, 42, &[], 5_000, |_| false);
        let s2 = initialize(&sys, &a);
        let r2 = run_random(&sys, s2, 42, &[], 5_000, |_| false);
        assert_eq!(r1.exec.len(), r2.exec.len());
        assert_eq!(r1.exec.last_state(), r2.exec.last_state());
    }
}

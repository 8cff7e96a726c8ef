//! A single canonical service as a standalone I/O automaton.
//!
//! [`ServiceAutomaton`] adapts any [`Service`](crate::service::Service) to the `ioa::Automaton`
//! interface, with the exact action alphabet and task structure of the
//! paper's canonical automata (Figs. 1/4/8). Two uses:
//!
//! * **Theorem 11 (Appendix B)** — drive the canonical consensus
//!   object directly under fair schedules and check the axiomatic
//!   agreement/validity/modified-termination conditions;
//! * **atomicity checking** — a system implements an atomic object iff
//!   its traces are included in the canonical object's traces
//!   (Section 2.1.4 clause 2); `ioa::refine::check_trace_inclusion`
//!   against a `ServiceAutomaton` decides that for finite instances.

use crate::service::ArcService;
use crate::state::SvcState;
use ioa::automaton::{ActionKind, Automaton};
use spec::{GlobalTaskId, Inv, ProcId, Resp};

/// An action of a standalone canonical service automaton.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SvcAction {
    /// Invocation `a_i` arriving at endpoint `i` (input).
    Invoke(ProcId, Inv),
    /// `fail_i` (input).
    Fail(ProcId),
    /// Response `b_i` delivered at endpoint `i` (output).
    Respond(ProcId, Resp),
    /// `perform_i` (internal).
    Perform(ProcId),
    /// `compute_g` (internal).
    Compute(GlobalTaskId),
    /// `dummy_perform_i` (internal).
    DummyPerform(ProcId),
    /// `dummy_output_i` (internal).
    DummyOutput(ProcId),
    /// `dummy_compute_g` (internal).
    DummyCompute(GlobalTaskId),
}

/// A task of a standalone canonical service automaton (the `i-perform`,
/// `i-output` and `g-compute` tasks of Section 2.2.3).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SvcTask {
    /// `i-perform`.
    Perform(ProcId),
    /// `i-output`.
    Output(ProcId),
    /// `g-compute`.
    Compute(GlobalTaskId),
}

/// A canonical service wrapped as an I/O automaton.
///
/// # Example
///
/// ```
/// use services::atomic::CanonicalAtomicObject;
/// use services::automaton::{ServiceAutomaton, SvcAction};
/// use ioa::automaton::Automaton;
/// use spec::seq::BinaryConsensus;
/// use spec::ProcId;
/// use std::sync::Arc;
///
/// let obj = CanonicalAtomicObject::wait_free(Arc::new(BinaryConsensus), [ProcId(0), ProcId(1)]);
/// let aut = ServiceAutomaton::new(Arc::new(obj));
/// let s = aut.initial_states().remove(0);
/// let s = aut
///     .apply_input(&s, &SvcAction::Invoke(ProcId(0), BinaryConsensus::init(1)))
///     .unwrap();
/// assert_eq!(s.inv_buffer(ProcId(0)).len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct ServiceAutomaton {
    svc: ArcService,
}

impl ServiceAutomaton {
    /// Wraps a canonical service.
    pub fn new(svc: ArcService) -> Self {
        ServiceAutomaton { svc }
    }

    /// The wrapped service.
    pub fn service(&self) -> &ArcService {
        &self.svc
    }
}

impl Automaton for ServiceAutomaton {
    type State = SvcState;
    type Action = SvcAction;
    type Task = SvcTask;

    fn initial_states(&self) -> Vec<SvcState> {
        self.svc.initial_states()
    }

    fn tasks(&self) -> Vec<SvcTask> {
        let mut tasks = Vec::new();
        for i in self.svc.endpoints() {
            tasks.push(SvcTask::Perform(*i));
            tasks.push(SvcTask::Output(*i));
        }
        for g in self.svc.global_tasks() {
            tasks.push(SvcTask::Compute(g));
        }
        tasks
    }

    fn succ_all(&self, t: &SvcTask, s: &SvcState) -> Vec<(SvcAction, SvcState)> {
        match t {
            SvcTask::Perform(i) => {
                let mut out: Vec<(SvcAction, SvcState)> = self
                    .svc
                    .perform_all(*i, s)
                    .into_iter()
                    .map(|s2| (SvcAction::Perform(*i), s2))
                    .collect();
                if self.svc.dummy_perform_enabled(*i, s) {
                    out.push((SvcAction::DummyPerform(*i), s.clone()));
                }
                out
            }
            SvcTask::Output(i) => {
                let mut out = Vec::new();
                if let Some((resp, s2)) = self.svc.pop_response(*i, s) {
                    out.push((SvcAction::Respond(*i, resp), s2));
                }
                if self.svc.dummy_output_enabled(*i, s) {
                    out.push((SvcAction::DummyOutput(*i), s.clone()));
                }
                out
            }
            SvcTask::Compute(g) => {
                let mut out: Vec<(SvcAction, SvcState)> = self
                    .svc
                    .compute_all(g, s)
                    .into_iter()
                    .map(|s2| (SvcAction::Compute(g.clone()), s2))
                    .collect();
                if self.svc.dummy_compute_enabled(s) {
                    out.push((SvcAction::DummyCompute(g.clone()), s.clone()));
                }
                out
            }
        }
    }

    fn apply_input(&self, s: &SvcState, a: &SvcAction) -> Option<SvcState> {
        match a {
            SvcAction::Invoke(i, inv) => self.svc.enqueue_invocation(*i, inv, s),
            SvcAction::Fail(i) => Some(self.svc.apply_fail(*i, s)),
            _ => None,
        }
    }

    fn kind(&self, a: &SvcAction) -> ActionKind {
        match a {
            SvcAction::Invoke(..) | SvcAction::Fail(..) => ActionKind::Input,
            SvcAction::Respond(..) => ActionKind::Output,
            _ => ActionKind::Internal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::CanonicalAtomicObject;
    use ioa::explore::ExploredGraph;
    use ioa::fairness::{run_round_robin, RunOutcome};
    use spec::seq::BinaryConsensus;
    use std::sync::Arc;

    fn consensus_automaton(n: usize, f: usize) -> ServiceAutomaton {
        let endpoints: Vec<ProcId> = (0..n).map(ProcId).collect();
        ServiceAutomaton::new(Arc::new(CanonicalAtomicObject::new(
            Arc::new(BinaryConsensus),
            endpoints,
            f,
        )))
    }

    #[test]
    fn invoke_perform_respond_cycle() {
        let aut = consensus_automaton(2, 1);
        let s = aut.initial_states().remove(0);
        let s = aut
            .apply_input(&s, &SvcAction::Invoke(ProcId(1), BinaryConsensus::init(0)))
            .unwrap();
        let (a, s) = aut.succ_det(&SvcTask::Perform(ProcId(1)), &s).unwrap();
        assert_eq!(a, SvcAction::Perform(ProcId(1)));
        let (a, _) = aut.succ_det(&SvcTask::Output(ProcId(1)), &s).unwrap();
        assert_eq!(a, SvcAction::Respond(ProcId(1), BinaryConsensus::decide(0)));
    }

    #[test]
    fn quiescent_without_work_or_failures() {
        let aut = consensus_automaton(2, 1);
        let s = aut.initial_states().remove(0);
        assert!(aut.applicable_tasks(&s).is_empty());
    }

    #[test]
    fn fair_run_responds_to_everyone_within_resilience() {
        let aut = consensus_automaton(3, 2);
        let mut s = aut.initial_states().remove(0);
        for i in 0..3 {
            s = aut
                .apply_input(&s, &SvcAction::Invoke(ProcId(i), BinaryConsensus::init(1)))
                .unwrap();
        }
        let run = run_round_robin(&aut, s, 1000, |_| false);
        assert_eq!(run.outcome, RunOutcome::Quiescent);
        let responses: Vec<_> = run
            .exec
            .steps()
            .iter()
            .filter(|st| matches!(st.action, SvcAction::Respond(..)))
            .collect();
        assert_eq!(responses.len(), 3);
    }

    #[test]
    fn silenced_object_may_loop_on_dummies() {
        let aut = consensus_automaton(2, 0);
        let mut s = aut.initial_states().remove(0);
        s = aut
            .apply_input(&s, &SvcAction::Invoke(ProcId(0), BinaryConsensus::init(1)))
            .unwrap();
        s = aut.apply_input(&s, &SvcAction::Fail(ProcId(1))).unwrap();
        // With |failed| > f, every task has a dummy branch.
        for t in aut.tasks() {
            let branches = aut.succ_all(&t, &s);
            assert!(
                branches.iter().any(|(a, _)| matches!(
                    a,
                    SvcAction::DummyPerform(_)
                        | SvcAction::DummyOutput(_)
                        | SvcAction::DummyCompute(_)
                )),
                "task {t:?} lacks a dummy branch"
            );
        }
    }

    #[test]
    fn reachable_space_is_finite() {
        let aut = consensus_automaton(2, 1);
        let mut s = aut.initial_states().remove(0);
        for i in 0..2 {
            s = aut
                .apply_input(
                    &s,
                    &SvcAction::Invoke(ProcId(i), BinaryConsensus::init(i as i64)),
                )
                .unwrap();
        }
        let reach = ExploredGraph::explore(&aut, vec![s], 10_000);
        assert!(!reach.stats().truncated());
        assert!(reach.len() > 1);
    }
}

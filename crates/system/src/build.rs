//! The complete system `C` (paper Section 2.2.3): the parallel
//! composition of processes `P_i (i ∈ I)`, resilient services
//! `S_k (k ∈ K)` and reliable registers `S_r (r ∈ R)`, with the
//! process/service communication actions hidden.
//!
//! [`CompleteSystem`] implements [`ioa::Automaton`], so the kernel's
//! exploration, fairness and refinement machinery operates on it
//! directly. The composition is built natively, as one flat state, so
//! that hashing stays cheap — the semantics is the standard n-ary I/O
//! automaton composition.

use crate::action::{Action, Participant, Task};
use crate::process::{ProcAction, ProcessAutomaton};
use ioa::automaton::{ActionKind, Automaton};
use services::{ArcService, SvcState};
use spec::{Inv, ProcId, SvcId, Val};
use std::collections::BTreeSet;
use std::fmt;

/// Thread-local census of deep [`SystemState`] clones.
///
/// Every `SystemState::clone()` deep-copies one state per process and
/// per service plus the failed set — the dominating per-successor cost
/// the component-interned representation ([`crate::packed`]) avoids.
/// Reset, run a workload, read back; thread-local, so concurrently
/// running tests count independently.
pub mod clones {
    use std::cell::Cell;

    thread_local! {
        static DEEP_CLONES: Cell<u64> = const { Cell::new(0) };
    }

    /// Deep `SystemState` clones performed by this thread since the
    /// last [`reset`].
    #[must_use]
    pub fn count() -> u64 {
        DEEP_CLONES.with(Cell::get)
    }

    /// Zero this thread's clone counter.
    pub fn reset() {
        DEEP_CLONES.with(|c| c.set(0));
    }

    pub(super) fn bump() {
        DEEP_CLONES.with(|c| c.set(c.get() + 1));
    }
}

/// A global state of the complete system: one state per process, one
/// per service, plus the global failed set.
///
/// The failed set is also mirrored into each service's own `failed`
/// variable (that is how the canonical automata of Figs. 1/4/8 track
/// it); the global copy makes predicates over the whole system cheap.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SystemState<PS> {
    /// Process states, indexed by `ProcId`.
    pub procs: Vec<PS>,
    /// Service states, indexed by `SvcId`.
    pub services: Vec<SvcState>,
    /// Processes whose `fail_i` input has occurred.
    pub failed: BTreeSet<ProcId>,
}

// Manual impl so every deep copy of the component vectors is counted;
// see [`clones`].
impl<PS: Clone> Clone for SystemState<PS> {
    fn clone(&self) -> Self {
        clones::bump();
        SystemState {
            procs: self.procs.clone(),
            services: self.services.clone(),
            failed: self.failed.clone(),
        }
    }
}

/// How one transition changes a system state, relative to its source:
/// at most one process slot and one service slot are touched, and
/// dummies touch nothing. This is the crux of the component-interned
/// representation — a successor is its source plus a `Delta`, so the
/// packed automaton rebuilds only the touched component(s) while the
/// deep automaton clones and patches.
#[derive(Debug)]
pub(crate) enum Delta<PS> {
    /// The action changes no state (failed-process steps, dummies).
    Stutter,
    /// Process `i` moves to a new local state.
    Proc(ProcId, PS),
    /// Service `c` moves to a new service state.
    Svc(SvcId, SvcState),
    /// An invoke or respond touches one process and one service.
    ProcSvc(ProcId, PS, SvcId, SvcState),
}

/// The outcome of a (non-failed) process's single task from one local
/// state, *before* any service is consulted: either a purely local
/// action with the process's next state, or an invocation that still
/// has to be enqueued on the target service.
///
/// This is the factored form of [`CompleteSystem::proc_effect`] that
/// the transition-effect cache keys on the process component alone —
/// an `Invoke` outcome is combined with a separately-cached service
/// enqueue ([`CompleteSystem::enqueue_effect`]), so neither half is
/// re-evaluated once seen.
#[derive(Debug)]
pub(crate) enum ProcStep<PS> {
    /// A local action (`ProcStep`/`Decide`/`Output`) moving the process
    /// to the carried state; no service is touched.
    Local(Action, PS),
    /// An invocation of the named service: the invocation to enqueue
    /// plus the process's next state.
    Invoke(SvcId, Inv, PS),
}

/// Read-only access to the components of a system state, however the
/// state is materialized — deep ([`SystemState`]) or packed by
/// component id ([`crate::packed::PackedState`]). The single transition
/// enumeration [`CompleteSystem::succ_effects`] is written against this
/// view, which is what guarantees the two representations expose
/// bit-identical transition structure.
pub(crate) trait StateView<PS> {
    /// Process `i`'s local state.
    fn proc(&self, i: ProcId) -> &PS;
    /// Service `c`'s state.
    fn svc(&self, c: SvcId) -> &SvcState;
    /// Whether `fail_i` has occurred.
    fn is_failed(&self, i: ProcId) -> bool;
}

impl<PS> StateView<PS> for SystemState<PS> {
    fn proc(&self, i: ProcId) -> &PS {
        &self.procs[i.0]
    }

    fn svc(&self, c: SvcId) -> &SvcState {
        &self.services[c.0]
    }

    fn is_failed(&self, i: ProcId) -> bool {
        self.failed.contains(&i)
    }
}

impl<PS: fmt::Debug> fmt::Display for SystemState<PS> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, p) in self.procs.iter().enumerate() {
            writeln!(f, "  P{i}: {p:?}")?;
        }
        for (c, s) in self.services.iter().enumerate() {
            writeln!(f, "  S{c}: {s}")?;
        }
        if !self.failed.is_empty() {
            writeln!(f, "  failed: {:?}", self.failed)?;
        }
        Ok(())
    }
}

// Compile-time audit: `CompleteSystem<P>` and `SystemState<P::State>`
// satisfy the `Automaton` bounds (`Sync`, `Send + Sync` states), so
// both must be `Send + Sync` for every in-tree process family.
// `ArcService` qualifies because `Service: Send + Sync`.
const _: () = {
    const fn is_send_sync<T: Send + Sync>() {}
    is_send_sync::<SystemState<crate::process::direct::Phase>>();
    is_send_sync::<CompleteSystem<crate::process::direct::DirectConsensus>>();
    is_send_sync::<Action>();
    is_send_sync::<Task>();
    is_send_sync::<ArcService>();
};

/// The complete system `C` for process family `P`, `n = |I|` processes
/// and a vector of canonical services (the paper's `K ∪ R`, with the
/// class of each service distinguishing registers from resilient
/// objects).
#[derive(Clone, Debug)]
pub struct CompleteSystem<P> {
    procs: P,
    n: usize,
    services: Vec<ArcService>,
    /// Memo slot for the symmetry-honesty gate
    /// (`analysis::audit::effective_symmetry`): the gate's verdict is a
    /// pure function of the (immutable) composition, so it is computed
    /// at most once per system instance. The bit is whether the
    /// claimed process-id symmetry is trusted; the gate degrades
    /// `Full → Off` when it is not. Lives here —
    /// not in a cache keyed by address in `analysis` — because an
    /// address-keyed memo would go stale when an allocation is reused.
    symmetry_audit: std::sync::OnceLock<bool>,
}

impl<P: ProcessAutomaton> CompleteSystem<P> {
    /// Composes `n` processes (described by `procs`) with `services`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, or if some service names an endpoint
    /// outside `{P0, …, P(n−1)}`.
    pub fn new(procs: P, n: usize, services: Vec<ArcService>) -> Self {
        assert!(n > 0, "a system needs at least one process");
        for (c, s) in services.iter().enumerate() {
            for i in s.endpoints() {
                assert!(
                    i.0 < n,
                    "service S{c} has endpoint {i} outside the process set"
                );
            }
        }
        CompleteSystem {
            procs,
            n,
            services,
            symmetry_audit: std::sync::OnceLock::new(),
        }
    }

    /// The memo slot for the symmetry-honesty audit gate. The analysis
    /// layer fills it on first use; the bit means the claimed
    /// process-id symmetry survived the audit.
    pub fn symmetry_audit_cache(&self) -> &std::sync::OnceLock<bool> {
        &self.symmetry_audit
    }

    /// The number of processes `n = |I|`.
    pub fn process_count(&self) -> usize {
        self.n
    }

    /// All process ids `I`.
    pub fn process_ids(&self) -> impl Iterator<Item = ProcId> {
        (0..self.n).map(ProcId)
    }

    /// The services, indexed by `SvcId`.
    pub fn services(&self) -> &[ArcService] {
        &self.services
    }

    /// The service with index `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn service(&self, c: SvcId) -> &ArcService {
        &self.services[c.0]
    }

    /// The process family.
    pub fn process_automaton(&self) -> &P {
        &self.procs
    }

    /// The unique initial state when every service type has a unique
    /// initial value (determinism assumption (ii) of Section 3.1).
    ///
    /// # Panics
    ///
    /// Panics if some service has several initial values.
    pub fn single_initial_state(&self) -> SystemState<P::State> {
        let states = self.initial_states();
        assert_eq!(
            states.len(),
            1,
            "system has nondeterministic initial values; use initial_states()"
        );
        states.into_iter().next().expect("checked length 1")
    }

    /// The decision recorded by process `i` in `s`, if any.
    pub fn decision(&self, s: &SystemState<P::State>, i: ProcId) -> Option<Val> {
        self.procs.decision(&s.procs[i.0])
    }

    /// All decisions recorded in `s`, indexed by process.
    pub fn decisions(&self, s: &SystemState<P::State>) -> Vec<Option<Val>> {
        (0..self.n)
            .map(|i| self.procs.decision(&s.procs[i]))
            .collect()
    }

    /// The distinct decision values present in `s`.
    pub fn decided_values(&self, s: &SystemState<P::State>) -> BTreeSet<Val> {
        self.decisions(s).into_iter().flatten().collect()
    }

    /// The participants of a `fail_i` action in this topology: `P_i`
    /// plus every service with `i ∈ J_c` (Section 2.2.3).
    pub fn fail_participants(&self, i: ProcId) -> Vec<Participant> {
        let mut ps = vec![Participant::Proc(i)];
        for (c, s) in self.services.iter().enumerate() {
            if s.endpoints().contains(&i) {
                ps.push(Participant::Svc(SvcId(c)));
            }
        }
        ps
    }

    /// Applies the `fail_i` input to a state (convenience wrapper over
    /// [`Automaton::apply_input`]).
    pub fn fail(&self, s: &SystemState<P::State>, i: ProcId) -> SystemState<P::State> {
        self.apply_input(s, &Action::Fail(i))
            .expect("fail is always an input")
    }

    /// Applies the `init(v)_i` input to a state.
    pub fn init(&self, s: &SystemState<P::State>, i: ProcId, v: Val) -> SystemState<P::State> {
        self.apply_input(s, &Action::Init(i, v))
            .expect("init is always an input")
    }

    /// The process-local half of `P_i`'s single task from local state
    /// `pst`: what the process does, before any service is consulted.
    /// Depends on `pst` alone, which is what lets the effect cache key
    /// it on the process component id.
    pub(crate) fn proc_step(&self, i: ProcId, pst: &P::State) -> ProcStep<P::State> {
        let (act, pst2) = self.procs.step(i, pst);
        match act {
            ProcAction::Skip => ProcStep::Local(Action::ProcStep(i), pst2),
            ProcAction::Decide(val) => {
                debug_assert_eq!(
                    self.procs.decision(&pst2),
                    Some(val.clone()),
                    "decide(v) must record v in the process state (Section 2.2.1)"
                );
                ProcStep::Local(Action::Decide(i, val), pst2)
            }
            ProcAction::Output(r) => ProcStep::Local(Action::Output(i, r), pst2),
            ProcAction::Invoke(c, inv) => {
                assert!(
                    c.0 < self.services.len(),
                    "process {i} invoked unknown service {c}"
                );
                ProcStep::Invoke(c, inv, pst2)
            }
        }
    }

    /// The service half of an invocation: enqueue `inv` from `P_i` on
    /// service `c` in service state `st`. Depends on `(inv, st)` alone
    /// — the effect cache keys it on the service component id (the
    /// invocation being determined by the cached process step).
    pub(crate) fn enqueue_effect(&self, i: ProcId, c: SvcId, inv: &Inv, st: &SvcState) -> SvcState {
        self.services[c.0]
            .enqueue_invocation(i, inv, st)
            .unwrap_or_else(|| panic!("process {i} issued invalid invocation {inv:?} on {c}"))
    }

    /// The transition of the single process task of `P_i`, as a delta
    /// against the viewed state.
    fn proc_effect<V: StateView<P::State>>(&self, i: ProcId, v: &V) -> (Action, Delta<P::State>) {
        if v.is_failed(i) {
            // Failed processes keep a dummy action enabled but never an
            // output (Section 2.2.1).
            return (Action::ProcStep(i), Delta::Stutter);
        }
        match self.proc_step(i, v.proc(i)) {
            ProcStep::Local(a, pst2) => (a, Delta::Proc(i, pst2)),
            ProcStep::Invoke(c, inv, pst2) => {
                let st2 = self.enqueue_effect(i, c, &inv, v.svc(c));
                (Action::Invoke(i, c, inv), Delta::ProcSvc(i, pst2, c, st2))
            }
        }
    }

    /// All transitions of task `t` from the viewed state, as
    /// `(action, delta)` pairs — the single branch enumeration shared
    /// by the deep automaton ([`Automaton::succ_all`] below) and the
    /// packed one ([`crate::packed::PackedSystem`]). Branch order is
    /// the canonical order the explorer's determinism contract depends
    /// on: real branches in the service's δ order, then the dummy.
    pub(crate) fn succ_effects<V: StateView<P::State>>(
        &self,
        t: &Task,
        v: &V,
    ) -> Vec<(Action, Delta<P::State>)> {
        match t {
            Task::Proc(i) => vec![self.proc_effect(*i, v)],
            Task::Perform(c, i) => {
                let svc = &self.services[c.0];
                let st = v.svc(*c);
                let mut out: Vec<(Action, Delta<P::State>)> = svc
                    .perform_all(*i, st)
                    .into_iter()
                    .map(|st2| (Action::Perform(*c, *i), Delta::Svc(*c, st2)))
                    .collect();
                if svc.dummy_perform_enabled(*i, st) {
                    out.push((Action::DummyPerform(*c, *i), Delta::Stutter));
                }
                out
            }
            Task::Output(c, i) => {
                let svc = &self.services[c.0];
                let st = v.svc(*c);
                let mut out = Vec::new();
                if let Some((resp, st2)) = svc.pop_response(*i, st) {
                    // The response is simultaneously an input to P_i
                    // (inputs are always enabled, even after failure).
                    let p2 = self.procs.on_response(*i, v.proc(*i), *c, &resp);
                    out.push((
                        Action::Respond(*c, *i, resp),
                        Delta::ProcSvc(*i, p2, *c, st2),
                    ));
                }
                if svc.dummy_output_enabled(*i, st) {
                    out.push((Action::DummyOutput(*c, *i), Delta::Stutter));
                }
                out
            }
            Task::Compute(c, g) => {
                let svc = &self.services[c.0];
                let st = v.svc(*c);
                let mut out: Vec<(Action, Delta<P::State>)> = svc
                    .compute_all(g, st)
                    .into_iter()
                    .map(|st2| (Action::Compute(*c, g.clone()), Delta::Svc(*c, st2)))
                    .collect();
                if svc.dummy_compute_enabled(st) {
                    out.push((Action::DummyCompute(*c, g.clone()), Delta::Stutter));
                }
                out
            }
        }
    }

    /// Materializes a delta against a deep state: one clone, then patch
    /// the touched slot(s).
    fn apply_delta(&self, s: &SystemState<P::State>, d: Delta<P::State>) -> SystemState<P::State> {
        let mut s2 = s.clone();
        match d {
            Delta::Stutter => {}
            Delta::Proc(i, p) => s2.procs[i.0] = p,
            Delta::Svc(c, st) => s2.services[c.0] = st,
            Delta::ProcSvc(i, p, c, st) => {
                s2.procs[i.0] = p;
                s2.services[c.0] = st;
            }
        }
        s2
    }

    /// Exact task enablement without materializing any successor.
    ///
    /// This must agree with `!succ_all(t, s).is_empty()` on every
    /// state — not merely over-approximate it — because the schedulers
    /// use it to build candidate sets whose size feeds the RNG stream
    /// of reproducible random runs. The case analysis:
    ///
    /// * `Proc` tasks always have exactly one branch (a failed process
    ///   stutters);
    /// * `Perform`/`Output` are enabled iff the relevant buffer is
    ///   nonempty (the documented [`services::Service`] contract) or
    ///   the dummy precondition holds;
    /// * `Compute` is total: δ2 is a total relation for every global
    ///   task the service declares.
    pub(crate) fn applicable_view<V: StateView<P::State>>(&self, t: &Task, v: &V) -> bool {
        match t {
            Task::Proc(_) | Task::Compute(..) => true,
            Task::Perform(c, i) => {
                let svc = &self.services[c.0];
                let st = v.svc(*c);
                svc.perform_enabled(*i, st) || svc.dummy_perform_enabled(*i, st)
            }
            Task::Output(c, i) => {
                let svc = &self.services[c.0];
                let st = v.svc(*c);
                svc.output_enabled(*i, st) || svc.dummy_output_enabled(*i, st)
            }
        }
    }
}

impl<P: ProcessAutomaton> Automaton for CompleteSystem<P> {
    type State = SystemState<P::State>;
    type Action = Action;
    type Task = Task;

    fn initial_states(&self) -> Vec<Self::State> {
        // Cross product over each service's V0 choices.
        let procs: Vec<P::State> = (0..self.n).map(|i| self.procs.initial(ProcId(i))).collect();
        let mut states: Vec<Vec<SvcState>> = vec![Vec::new()];
        for svc in &self.services {
            let choices = svc.initial_states();
            let mut next = Vec::with_capacity(states.len() * choices.len());
            for prefix in &states {
                for choice in &choices {
                    let mut p = prefix.clone();
                    p.push(choice.clone());
                    next.push(p);
                }
            }
            states = next;
        }
        states
            .into_iter()
            .map(|services| SystemState {
                procs: procs.clone(),
                services,
                failed: BTreeSet::new(),
            })
            .collect()
    }

    fn tasks(&self) -> Vec<Task> {
        let mut tasks: Vec<Task> = (0..self.n).map(|i| Task::Proc(ProcId(i))).collect();
        for (c, svc) in self.services.iter().enumerate() {
            let c = SvcId(c);
            for i in svc.endpoints() {
                tasks.push(Task::Perform(c, *i));
                tasks.push(Task::Output(c, *i));
            }
            for g in svc.global_tasks() {
                tasks.push(Task::Compute(c, g));
            }
        }
        tasks
    }

    fn succ_all(&self, t: &Task, s: &Self::State) -> Vec<(Action, Self::State)> {
        // One shared branch enumeration (succ_effects), then each delta
        // is materialized with exactly one deep clone.
        self.succ_effects(t, s)
            .into_iter()
            .map(|(a, d)| (a, self.apply_delta(s, d)))
            .collect()
    }

    fn applicable(&self, t: &Task, s: &Self::State) -> bool {
        // Exact, allocation-free enablement — see `applicable_view`.
        self.applicable_view(t, s)
    }

    fn apply_input(&self, s: &Self::State, a: &Action) -> Option<Self::State> {
        match a {
            Action::Init(i, v) => {
                let mut s2 = s.clone();
                s2.procs[i.0] = self.procs.on_init(*i, &s.procs[i.0], v);
                Some(s2)
            }
            Action::Fail(i) => {
                let mut s2 = s.clone();
                s2.failed.insert(*i);
                for (c, svc) in self.services.iter().enumerate() {
                    s2.services[c] = svc.apply_fail(*i, &s2.services[c]);
                }
                Some(s2)
            }
            _ => None,
        }
    }

    fn kind(&self, a: &Action) -> ActionKind {
        match a {
            Action::Init(..) | Action::Fail(..) => ActionKind::Input,
            Action::Decide(..) | Action::Output(..) => ActionKind::Output,
            _ => ActionKind::Internal,
        }
    }

    fn action_owner(&self, a: &Action) -> Option<Task> {
        a.task_owner()
    }

    fn action_vocabulary(&self) -> Vec<Action> {
        // A finite sample of the composed signature: every label family
        // whose parameters are structurally enumerable (process ids,
        // service topology, declared invocations/global tasks, the
        // audit input sample). Value-parameterized outputs (`decide`,
        // responses) are omitted — the vocabulary need not be
        // exhaustive, only genuine — but every task is covered via its
        // dummy or step action.
        let mut vocab = Vec::new();
        for i in 0..self.n {
            let i = ProcId(i);
            vocab.push(Action::ProcStep(i));
            vocab.push(Action::Fail(i));
            for v in self.procs.audit_inputs() {
                vocab.push(Action::Init(i, v));
            }
        }
        for (c, svc) in self.services.iter().enumerate() {
            let c = SvcId(c);
            for i in svc.endpoints() {
                for inv in svc.invocations() {
                    vocab.push(Action::Invoke(*i, c, inv));
                }
                vocab.push(Action::Perform(c, *i));
                vocab.push(Action::DummyPerform(c, *i));
                vocab.push(Action::DummyOutput(c, *i));
            }
            for g in svc.global_tasks() {
                vocab.push(Action::Compute(c, g.clone()));
                vocab.push(Action::DummyCompute(c, g));
            }
        }
        vocab
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::direct::DirectConsensus;
    use ioa::fairness::run_round_robin;
    use services::atomic::CanonicalAtomicObject;
    use spec::seq::BinaryConsensus;
    use std::sync::Arc;

    fn direct_system(n: usize, f: usize) -> CompleteSystem<DirectConsensus> {
        let endpoints: Vec<ProcId> = (0..n).map(ProcId).collect();
        let obj = CanonicalAtomicObject::new(Arc::new(BinaryConsensus), endpoints, f);
        CompleteSystem::new(DirectConsensus::new(SvcId(0)), n, vec![Arc::new(obj)])
    }

    #[test]
    fn composition_has_expected_tasks() {
        let sys = direct_system(3, 1);
        let tasks = sys.tasks();
        // 3 process tasks + 3 perform + 3 output, no compute.
        assert_eq!(tasks.len(), 9);
    }

    #[test]
    fn process_tasks_are_always_applicable() {
        let sys = direct_system(2, 0);
        let s0 = sys.single_initial_state();
        for i in 0..2 {
            assert!(sys.applicable(&Task::Proc(ProcId(i)), &s0));
        }
        // Service tasks are not (no pending work, no failures).
        assert!(!sys.applicable(&Task::Perform(SvcId(0), ProcId(0)), &s0));
        assert!(!sys.applicable(&Task::Output(SvcId(0), ProcId(0)), &s0));
    }

    #[test]
    fn failure_free_round_robin_run_decides_unanimously() {
        let sys = direct_system(3, 2);
        let mut s = sys.single_initial_state();
        for i in 0..3 {
            s = sys.init(&s, ProcId(i), Val::Int(1));
        }
        let run = run_round_robin(&sys, s, 10_000, |st: &SystemState<_>| {
            (0..3).all(|i| sys.decision(st, ProcId(i)).is_some())
        });
        assert!(run.stopped_at.is_some(), "outcome: {:?}", run.outcome);
        let final_state = run.exec.last_state();
        for i in 0..3 {
            assert_eq!(sys.decision(final_state, ProcId(i)), Some(Val::Int(1)));
        }
    }

    #[test]
    fn first_input_to_reach_the_object_wins() {
        let sys = direct_system(2, 1);
        let mut s = sys.single_initial_state();
        s = sys.init(&s, ProcId(0), Val::Int(0));
        s = sys.init(&s, ProcId(1), Val::Int(1));
        // Drive P1 manually first: invoke, perform, respond, decide.
        let (_, s) = sys.succ_det(&Task::Proc(ProcId(1)), &s).unwrap();
        let (_, s) = sys
            .succ_det(&Task::Perform(SvcId(0), ProcId(1)), &s)
            .unwrap();
        let (_, s) = sys
            .succ_det(&Task::Output(SvcId(0), ProcId(1)), &s)
            .unwrap();
        let (a, s) = sys.succ_det(&Task::Proc(ProcId(1)), &s).unwrap();
        assert_eq!(a, Action::Decide(ProcId(1), Val::Int(1)));
        // Now P0 must also decide 1.
        let (_, s) = sys.succ_det(&Task::Proc(ProcId(0)), &s).unwrap();
        let (_, s) = sys
            .succ_det(&Task::Perform(SvcId(0), ProcId(0)), &s)
            .unwrap();
        let (_, s) = sys
            .succ_det(&Task::Output(SvcId(0), ProcId(0)), &s)
            .unwrap();
        let (a, _) = sys.succ_det(&Task::Proc(ProcId(0)), &s).unwrap();
        assert_eq!(a, Action::Decide(ProcId(0), Val::Int(1)));
    }

    #[test]
    fn exceeding_resilience_enables_dummies_and_may_silence_the_object() {
        // f = 0 object shared by 2 processes: one failure exceeds f.
        let sys = direct_system(2, 0);
        let mut s = sys.single_initial_state();
        s = sys.init(&s, ProcId(0), Val::Int(0));
        s = sys.init(&s, ProcId(1), Val::Int(1));
        // P1 invokes, then fails.
        let (_, s) = sys.succ_det(&Task::Proc(ProcId(1)), &s).unwrap();
        let s = sys.fail(&s, ProcId(1));
        // The perform task for P1 now offers both the real perform and
        // the dummy.
        let succ = sys.succ_all(&Task::Perform(SvcId(0), ProcId(1)), &s);
        assert_eq!(succ.len(), 2);
        assert!(succ.iter().any(|(a, _)| a.is_dummy()));
        // P0's tasks at the object are also dummy-enabled (|failed| > f).
        let s2 = {
            // give P0 a pending invocation so perform has a real branch
            let (_, s2) = sys.succ_det(&Task::Proc(ProcId(0)), &s).unwrap();
            s2
        };
        let succ0 = sys.succ_all(&Task::Perform(SvcId(0), ProcId(0)), &s2);
        assert!(succ0.iter().any(|(a, _)| a.is_dummy()));
        assert!(succ0.iter().any(|(a, _)| !a.is_dummy()));
    }

    #[test]
    fn failed_processes_only_take_dummy_steps() {
        let sys = direct_system(2, 1);
        let mut s = sys.single_initial_state();
        s = sys.init(&s, ProcId(0), Val::Int(1));
        let s = sys.fail(&s, ProcId(0));
        // P0 has input pending but is failed: its step is a dummy, not
        // the invoke.
        let (a, s2) = sys.succ_det(&Task::Proc(ProcId(0)), &s).unwrap();
        assert_eq!(a, Action::ProcStep(ProcId(0)));
        assert_eq!(s2, s);
    }

    #[test]
    fn fail_participants_follow_topology() {
        let sys = direct_system(3, 1);
        let ps = sys.fail_participants(ProcId(1));
        assert_eq!(
            ps,
            vec![Participant::Proc(ProcId(1)), Participant::Svc(SvcId(0))]
        );
    }

    #[test]
    fn one_failure_under_wait_free_object_still_terminates_for_survivor() {
        // Wait-free (f = 1) object with 2 processes: P1 fails, P0 must
        // still decide under the fair round-robin schedule, because the
        // real perform/output branches stay canonical (succ_det prefers
        // the non-dummy branch).
        let sys = direct_system(2, 1);
        let mut s = sys.single_initial_state();
        s = sys.init(&s, ProcId(0), Val::Int(0));
        s = sys.init(&s, ProcId(1), Val::Int(1));
        let s = sys.fail(&s, ProcId(1));
        let run = run_round_robin(&sys, s, 10_000, |st: &SystemState<_>| {
            sys.decision(st, ProcId(0)).is_some()
        });
        assert!(run.stopped_at.is_some());
        assert_eq!(
            sys.decision(run.exec.last_state(), ProcId(0)),
            Some(Val::Int(0))
        );
    }

    #[test]
    fn silenced_object_yields_fair_nondeciding_lasso() {
        // f = 0 object, P1 fails after P0 invoked: under the
        // dummy-preferring adversary the object never answers P0.
        // With succ_det (real-first) the object WOULD answer; here we
        // check that the dummy branch exists so the adversary CAN
        // starve P0 — the full adversarial run lives in `analysis`.
        let sys = direct_system(2, 0);
        let mut s = sys.single_initial_state();
        s = sys.init(&s, ProcId(0), Val::Int(0));
        let (_, s) = sys.succ_det(&Task::Proc(ProcId(0)), &s).unwrap();
        let s = sys.fail(&s, ProcId(1));
        let succ = sys.succ_all(&Task::Perform(SvcId(0), ProcId(0)), &s);
        // Both the real perform and the dummy are offered: resilience
        // exceeded means the object MAY stall but is not forced to.
        assert_eq!(succ.len(), 2);
        // Round-robin with the dummy-preferring variant never decides:
        // emulate by stepping only dummies for the object.
        let (a, s2) = succ
            .into_iter()
            .find(|(a, _)| a.is_dummy())
            .expect("dummy branch");
        assert_eq!(a, Action::DummyPerform(SvcId(0), ProcId(0)));
        assert_eq!(s2, s, "dummy steps do not change state");
    }

    #[test]
    #[should_panic(expected = "outside the process set")]
    fn rejects_out_of_range_endpoints() {
        let obj = CanonicalAtomicObject::new(Arc::new(BinaryConsensus), [ProcId(0), ProcId(5)], 0);
        let _ = CompleteSystem::new(DirectConsensus::new(SvcId(0)), 2, vec![Arc::new(obj)]);
    }

    #[test]
    fn initial_states_cross_product_over_v0() {
        // Two registers with binary domains have singleton V0 each →
        // exactly one initial state.
        let sys = direct_system(2, 1);
        assert_eq!(sys.initial_states().len(), 1);
    }
}

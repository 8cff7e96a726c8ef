//! Deliberately broken substrates — the negative fixtures for the
//! `analysis::audit` contract analyzer.
//!
//! Each fixture violates exactly one contract an optimization layer
//! trusts, in the most tempting way a real substrate could get it
//! wrong:
//!
//! * [`lying_symmetry`] — a process family that *claims*
//!   `id_symmetric` while `P0` special-cases its own input (rule
//!   `symmetry-honesty`): the flag that would silently corrupt a
//!   quotient sweep;
//! * [`impure_direct`] — a process family whose `step` consults a
//!   hidden global counter (rule `effect-purity`): the impurity that
//!   would make effect-cache memoization unsound;
//! * [`overlapping_tasks`] — a bare automaton whose declared tasks do
//!   not partition its actions (rule `task-partition`): a duplicate
//!   task, an action emitted by two tasks, and a vocabulary action
//!   owned by a task `tasks()` never declares.
//!
//! None of these call [`crate::contract_check`] — being constructible
//! is their job; being *caught* is the auditor's, pinned by
//! `tests/audit_differential.rs` at the workspace root.

use ioa::automaton::{ActionKind, Automaton};
use services::atomic::CanonicalAtomicObject;
use spec::seq::BinaryConsensus;
use spec::{ProcId, Resp, SvcId, Val};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use system::build::CompleteSystem;
use system::process::direct::{DirectConsensus, Phase};
use system::process::{ProcAction, ProcessAutomaton};

/// A direct-consensus family that claims [`id_symmetric`] while `P0`
/// quietly overrides every input with `0`.
///
/// This is precisely the lie the orbit canonicalizer cannot survive:
/// permuting `P0 ↔ P1` no longer commutes with `on_init`, so orbit
/// representatives conflate states with genuinely different futures.
/// The `symmetry-honesty` rule catches it component-locally (one
/// `on_init` comparison on the `Idle` state), long before any quotient
/// sweep runs.
///
/// [`id_symmetric`]: ProcessAutomaton::id_symmetric
#[derive(Clone, Debug)]
pub struct BiasedDirect {
    inner: DirectConsensus,
}

impl ProcessAutomaton for BiasedDirect {
    type State = Phase;

    fn initial(&self, i: ProcId) -> Phase {
        self.inner.initial(i)
    }

    fn on_init(&self, i: ProcId, st: &Phase, v: &Val) -> Phase {
        // The lie: P0 ignores its real input and always proposes 0.
        if i == ProcId(0) {
            self.inner.on_init(i, st, &Val::Int(0))
        } else {
            self.inner.on_init(i, st, v)
        }
    }

    fn on_response(&self, i: ProcId, st: &Phase, c: SvcId, resp: &Resp) -> Phase {
        self.inner.on_response(i, st, c, resp)
    }

    fn step(&self, i: ProcId, st: &Phase) -> (ProcAction, Phase) {
        self.inner.step(i, st)
    }

    fn decision(&self, st: &Phase) -> Option<Val> {
        self.inner.decision(st)
    }

    fn id_symmetric(&self) -> bool {
        // False claim: on_init branches on the process id.
        true
    }
}

/// The lying-symmetry candidate: [`BiasedDirect`] over a single honest
/// (endpoint-symmetric) `f`-resilient binary consensus object.
#[must_use]
pub fn lying_symmetry(n: usize, f: usize) -> CompleteSystem<BiasedDirect> {
    let endpoints: Vec<ProcId> = (0..n).map(ProcId).collect();
    let obj = CanonicalAtomicObject::new(Arc::new(BinaryConsensus), endpoints, f);
    CompleteSystem::new(
        BiasedDirect {
            inner: DirectConsensus::new(SvcId(0)),
        },
        n,
        vec![Arc::new(obj)],
    )
}

/// A direct-consensus family whose `step` reads a hidden mutable
/// counter: consecutive evaluations of the *same* state disagree.
///
/// This is the impurity that silently breaks effect-cache memoization
/// (the cached first evaluation would be replayed forever, the second
/// evaluation's behavior never observed) and makes `succ_det`
/// unstable. The `effect-purity` rule's dual evaluation flags it on
/// any state with an enabled non-skip step.
#[derive(Debug)]
pub struct ImpureDirect {
    inner: DirectConsensus,
    calls: AtomicU64,
}

impl ProcessAutomaton for ImpureDirect {
    type State = Phase;

    fn initial(&self, i: ProcId) -> Phase {
        self.inner.initial(i)
    }

    fn on_init(&self, i: ProcId, st: &Phase, v: &Val) -> Phase {
        self.inner.on_init(i, st, v)
    }

    fn on_response(&self, i: ProcId, st: &Phase, c: SvcId, resp: &Resp) -> Phase {
        self.inner.on_response(i, st, c, resp)
    }

    fn step(&self, i: ProcId, st: &Phase) -> (ProcAction, Phase) {
        // The impurity: every second call refuses to act. A state-only
        // function of `st` this is not.
        let parity = self.calls.fetch_add(1, Ordering::Relaxed) % 2;
        if parity == 1 {
            (ProcAction::Skip, st.clone())
        } else {
            self.inner.step(i, st)
        }
    }

    fn decision(&self, st: &Phase) -> Option<Val> {
        self.inner.decision(st)
    }
}

/// The impure-effect candidate: [`ImpureDirect`] over a single honest
/// `f`-resilient binary consensus object. Claims no symmetry — the
/// only contract it breaks is effect purity (and the determinization
/// stability that follows from it).
#[must_use]
pub fn impure_direct(n: usize, f: usize) -> CompleteSystem<ImpureDirect> {
    let endpoints: Vec<ProcId> = (0..n).map(ProcId).collect();
    let obj = CanonicalAtomicObject::new(Arc::new(BinaryConsensus), endpoints, f);
    CompleteSystem::new(
        ImpureDirect {
            inner: DirectConsensus::new(SvcId(0)),
            calls: AtomicU64::new(0),
        },
        n,
        vec![Arc::new(obj)],
    )
}

/// A bare task-structured automaton whose tasks fail to partition its
/// actions in all three possible ways:
///
/// * `tasks()` declares `"alpha"` twice (a duplicate task);
/// * the action `"shared"` is emitted by both `"alpha"` and `"beta"`,
///   but owned (per [`Automaton::action_owner`]) only by `"alpha"`;
/// * the vocabulary action `"orphan"` is owned by `"ghost"`, a task
///   `tasks()` never declares.
///
/// Audited through [`Automaton`] introspection hooks alone (it is not
/// a composed system), so it pins the generic `audit_automaton` path.
#[derive(Debug)]
pub struct OverlappingTasks;

impl Automaton for OverlappingTasks {
    type State = u8;
    type Action = &'static str;
    type Task = &'static str;

    fn initial_states(&self) -> Vec<u8> {
        vec![0]
    }

    fn tasks(&self) -> Vec<&'static str> {
        vec!["alpha", "beta", "alpha"]
    }

    fn succ_all(&self, t: &&'static str, s: &u8) -> Vec<(&'static str, u8)> {
        match (*t, *s) {
            // Both tasks emit "shared" from state 0 — the overlap.
            ("alpha", 0) => vec![("shared", 1)],
            ("beta", 0) => vec![("shared", 2)],
            ("beta", 1) => vec![("beta-step", 2)],
            _ => vec![],
        }
    }

    fn apply_input(&self, _s: &u8, _a: &&'static str) -> Option<u8> {
        None
    }

    fn kind(&self, _a: &&'static str) -> ActionKind {
        ActionKind::Internal
    }

    fn action_owner(&self, a: &&'static str) -> Option<&'static str> {
        match *a {
            "shared" => Some("alpha"),
            "beta-step" => Some("beta"),
            // Owned by a task that tasks() never declares.
            "orphan" => Some("ghost"),
            _ => None,
        }
    }

    fn action_vocabulary(&self) -> Vec<&'static str> {
        vec!["shared", "beta-step", "orphan"]
    }
}

/// The overlapping-tasks fixture.
#[must_use]
pub fn overlapping_tasks() -> OverlappingTasks {
    OverlappingTasks
}

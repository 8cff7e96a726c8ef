//! Process automata (paper Section 2.2.1).
//!
//! Each process `P_i` is a deterministic automaton with a *single task*
//! comprising all its locally controlled actions, and in every state
//! some action of that task is enabled (possibly a dummy). After a
//! `fail_i` input no output action of `P_i` is ever enabled again —
//! the composition enforces this by replacing failed processes' steps
//! with dummies. As a technicality for the proofs, when `P_i` performs
//! `decide(v)_i` it records `v` in its state; [`ProcessAutomaton::decision`]
//! exposes that component.

use spec::{Inv, ProcId, Resp, SvcId, Val};
use std::fmt::Debug;
use std::hash::Hash;

/// What a process does when its task fires.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProcAction {
    /// Issue invocation `inv` on service `c` (the output `a_{i,c}`).
    Invoke(SvcId, Inv),
    /// Announce a decision (the output `decide(v)_i`). The successor
    /// state must record `v` (checked by the composition).
    Decide(Val),
    /// Emit a generic external output.
    Output(Resp),
    /// An internal step (possibly a pure dummy) — always available so
    /// the single task is never disabled.
    Skip,
}

/// A family of deterministic process automata `{P_i}` (Section 2.2.1),
/// indexed by `ProcId`.
///
/// Determinism assumption (i) of Section 3.1 is built in: every method
/// is a function of the state. Inputs (`init`, responses, `fail`) are
/// handled by dedicated transition functions; the single task's
/// transition is [`ProcessAutomaton::step`], which must be total.
///
/// `Send + Sync` bounds mirror [`ioa::automaton::Automaton`], which
/// `CompleteSystem<P>` implements over `SystemState<P::State>`. Process
/// families are immutable rule tables, so the bounds hold trivially.
pub trait ProcessAutomaton: Debug + Send + Sync {
    /// The per-process state.
    type State: Clone + Eq + Ord + Hash + Debug + Send + Sync;

    /// The start state of `P_i`.
    fn initial(&self, i: ProcId) -> Self::State;

    /// Effect of the external input `init(v)_i`.
    fn on_init(&self, i: ProcId, st: &Self::State, v: &Val) -> Self::State;

    /// Effect of receiving response `resp` from service `c`
    /// (the input `b_{i,c}`).
    fn on_response(&self, i: ProcId, st: &Self::State, c: SvcId, resp: &Resp) -> Self::State;

    /// The single task's transition: what `P_i` does next from `st`.
    /// Must be total; return [`ProcAction::Skip`] when idle.
    fn step(&self, i: ProcId, st: &Self::State) -> (ProcAction, Self::State);

    /// The decision recorded in the state, if `P_i` has decided
    /// (the Section 2.2.1 technicality).
    fn decision(&self, st: &Self::State) -> Option<Val>;

    /// Whether the family is *id-symmetric*: `initial`, `on_init`,
    /// `on_response`, `step` and `decision` are the same function for
    /// every `i` (the `ProcId` argument may only flow into action
    /// *labels*, never into state contents or control flow). When true,
    /// permuting process ids permutes system states without rewriting
    /// per-process state contents, which is what the
    /// `system::packed` orbit canonicalizer relies on. Defaults to
    /// `false` — symmetry is a per-family opt-in contract, not an
    /// inferred property.
    fn id_symmetric(&self) -> bool {
        false
    }

    /// The input values the contract auditor (`analysis::audit`) feeds
    /// to [`ProcessAutomaton::on_init`] when enumerating a family's
    /// component-local state closure. Binary consensus inputs by
    /// default; families over richer input domains should override
    /// this with a small representative sample so the closure (and
    /// with it the determinism/symmetry/purity audits) actually
    /// exercises their init-dependent branches.
    fn audit_inputs(&self) -> Vec<Val> {
        vec![Val::Int(0), Val::Int(1)]
    }
}

pub mod direct {
    //! The *direct* protocol: each process forwards its input to one
    //! shared consensus object and decides whatever the object answers.
    //!
    //! This is the baseline system the paper's introduction implies:
    //! with an `f`-resilient object it solves `f`-resilient consensus —
    //! and provably (Theorem 2) nothing can stretch it, or anything
    //! else built from `f`-resilient services, to `f + 1`.

    use super::{ProcAction, ProcessAutomaton};
    use spec::seq::BinaryConsensus;
    use spec::{ProcId, Resp, SvcId, Val};

    /// The phase of a [`DirectConsensus`] process.
    #[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub enum Phase {
        /// Waiting for the external `init(v)`.
        Idle,
        /// Holding input `v`, about to invoke the object.
        HasInput(Val),
        /// Invocation issued; awaiting the object's `decide`.
        Waiting,
        /// Response `v` received, about to announce it.
        Responding(Val),
        /// Decided `v` (recorded per Section 2.2.1).
        Decided(Val),
    }

    /// The direct consensus protocol over a single shared consensus
    /// object.
    ///
    /// # Example
    ///
    /// ```
    /// use system::process::direct::{DirectConsensus, Phase};
    /// use system::process::{ProcAction, ProcessAutomaton};
    /// use spec::{ProcId, SvcId, Val};
    ///
    /// let p = DirectConsensus::new(SvcId(0));
    /// let s = p.initial(ProcId(0));
    /// let s = p.on_init(ProcId(0), &s, &Val::Int(1));
    /// let (a, _) = p.step(ProcId(0), &s);
    /// assert!(matches!(a, ProcAction::Invoke(..)));
    /// ```
    #[derive(Clone, Debug)]
    pub struct DirectConsensus {
        object: SvcId,
    }

    impl DirectConsensus {
        /// A direct protocol over the consensus object `object`.
        pub fn new(object: SvcId) -> Self {
            DirectConsensus { object }
        }
    }

    impl ProcessAutomaton for DirectConsensus {
        type State = Phase;

        fn initial(&self, _i: ProcId) -> Phase {
            Phase::Idle
        }

        fn on_init(&self, _i: ProcId, st: &Phase, v: &Val) -> Phase {
            match st {
                Phase::Idle => Phase::HasInput(v.clone()),
                other => other.clone(), // duplicate inits are ignored
            }
        }

        fn on_response(&self, _i: ProcId, st: &Phase, c: SvcId, resp: &Resp) -> Phase {
            if c != self.object {
                return st.clone();
            }
            match (st, BinaryConsensus::decision(resp)) {
                (Phase::Waiting, Some(v)) => Phase::Responding(Val::Int(v)),
                _ => st.clone(),
            }
        }

        fn step(&self, _i: ProcId, st: &Phase) -> (ProcAction, Phase) {
            match st {
                Phase::HasInput(v) => {
                    let v = v.as_int().expect("binary consensus input");
                    (
                        ProcAction::Invoke(self.object, BinaryConsensus::init(v)),
                        Phase::Waiting,
                    )
                }
                Phase::Responding(v) => (ProcAction::Decide(v.clone()), Phase::Decided(v.clone())),
                _ => (ProcAction::Skip, st.clone()),
            }
        }

        fn decision(&self, st: &Phase) -> Option<Val> {
            match st {
                Phase::Decided(v) => Some(v.clone()),
                _ => None,
            }
        }

        fn id_symmetric(&self) -> bool {
            // Every method above ignores `i` except for action labels:
            // all processes run the same phase machine over the same
            // shared object.
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::direct::{DirectConsensus, Phase};
    use super::*;
    use spec::seq::BinaryConsensus;

    #[test]
    fn direct_protocol_lifecycle() {
        let p = DirectConsensus::new(SvcId(0));
        let i = ProcId(0);
        let s = p.initial(i);
        assert_eq!(p.decision(&s), None);
        // Idle processes skip.
        let (a, s2) = p.step(i, &s);
        assert_eq!(a, ProcAction::Skip);
        assert_eq!(s2, s);
        // init → invoke → waiting.
        let s = p.on_init(i, &s, &Val::Int(1));
        let (a, s) = p.step(i, &s);
        assert_eq!(a, ProcAction::Invoke(SvcId(0), BinaryConsensus::init(1)));
        assert_eq!(s, Phase::Waiting);
        // Response from the wrong service is ignored.
        let s_wrong = p.on_response(i, &s, SvcId(7), &BinaryConsensus::decide(0));
        assert_eq!(s_wrong, Phase::Waiting);
        // Response from the object → decide and record.
        let s = p.on_response(i, &s, SvcId(0), &BinaryConsensus::decide(0));
        let (a, s) = p.step(i, &s);
        assert_eq!(a, ProcAction::Decide(Val::Int(0)));
        assert_eq!(p.decision(&s), Some(Val::Int(0)));
        // Decided processes skip forever.
        let (a, _) = p.step(i, &s);
        assert_eq!(a, ProcAction::Skip);
    }

    #[test]
    fn duplicate_inits_are_ignored() {
        let p = DirectConsensus::new(SvcId(0));
        let s = p.on_init(ProcId(0), &Phase::Idle, &Val::Int(1));
        let s2 = p.on_init(ProcId(0), &s, &Val::Int(0));
        assert_eq!(s, s2);
    }
}

//! Integration test — "implements" as trace inclusion
//! (paper Sections 2.1.1, 2.1.4).
//!
//! A system is an `f`-resilient atomic object iff it implements the
//! canonical object: same external interface, trace inclusion
//! (atomicity), fair-trace inclusion (resilient termination). This
//! test decides the trace-inclusion clause exhaustively for small
//! instances via `ioa::refine::check_trace_inclusion`, with the
//! canonical object of Fig. 1 as the specification.

use ioa::refine::{check_trace_inclusion, Inclusion};
use protocols::doomed::doomed_atomic;
use services::atomic::CanonicalAtomicObject;
use services::automaton::{ServiceAutomaton, SvcAction};
use spec::seq::BinaryConsensus;
use spec::{ProcId, Val};
use std::sync::Arc;
use system::Action;

/// Maps complete-system external actions onto canonical consensus
/// object actions.
fn external(a: &Action) -> Option<SvcAction> {
    match a {
        Action::Init(i, v) => Some(SvcAction::Invoke(
            *i,
            BinaryConsensus::init(v.as_int().expect("binary input")),
        )),
        Action::Decide(i, v) => Some(SvcAction::Respond(
            *i,
            BinaryConsensus::decide(v.as_int().expect("binary decision")),
        )),
        Action::Fail(i) => Some(SvcAction::Fail(*i)),
        _ => None,
    }
}

fn canonical_consensus(n: usize, f: usize) -> ServiceAutomaton {
    let endpoints: Vec<ProcId> = (0..n).map(ProcId).collect();
    ServiceAutomaton::new(Arc::new(CanonicalAtomicObject::new(
        Arc::new(BinaryConsensus),
        endpoints,
        f,
    )))
}

#[test]
fn direct_system_implements_the_canonical_consensus_object_n2() {
    // The direct protocol over a wait-free object IS a 1-resilient
    // consensus object for two endpoints: every finite trace it
    // produces (inits, decides, fails) is a trace of the canonical
    // object.
    let imp = doomed_atomic(2, 1);
    let spec_obj = canonical_consensus(2, 1);
    let inputs = vec![
        Action::Init(ProcId(0), Val::Int(0)),
        Action::Init(ProcId(0), Val::Int(1)),
        Action::Init(ProcId(1), Val::Int(0)),
        Action::Init(ProcId(1), Val::Int(1)),
        Action::Fail(ProcId(0)),
        Action::Fail(ProcId(1)),
    ];
    let verdict = check_trace_inclusion(&imp, &spec_obj, external, &inputs, 3, 3_000_000);
    assert_eq!(verdict, Inclusion::Holds);
}

/// Decides its own input immediately — violates atomicity. (Used by
/// the checker-sanity test below.)
#[derive(Clone, Debug)]
struct Selfish;

impl system::process::ProcessAutomaton for Selfish {
    type State = (Option<Val>, Option<Val>); // (input, decision)

    fn initial(&self, _i: ProcId) -> Self::State {
        (None, None)
    }
    fn on_init(&self, _i: ProcId, st: &Self::State, v: &Val) -> Self::State {
        match st {
            (None, d) => (Some(v.clone()), d.clone()),
            other => other.clone(),
        }
    }
    fn on_response(
        &self,
        _i: ProcId,
        st: &Self::State,
        _c: spec::SvcId,
        _r: &spec::seq_type::Resp,
    ) -> Self::State {
        st.clone()
    }
    fn step(&self, _i: ProcId, st: &Self::State) -> (system::process::ProcAction, Self::State) {
        match st {
            (Some(v), None) => (
                system::process::ProcAction::Decide(v.clone()),
                (Some(v.clone()), Some(v.clone())),
            ),
            other => (system::process::ProcAction::Skip, other.clone()),
        }
    }
    fn decision(&self, st: &Self::State) -> Option<Val> {
        st.1.clone()
    }
}

#[test]
fn a_disagreeing_implementation_is_caught() {
    // Sanity for the checker itself: a "consensus" where each process
    // decides its own input is NOT atomic — the canonical object can
    // never emit two different decisions.
    use system::build::CompleteSystem;

    // No services at all: the degenerate composition still type-checks
    // with an empty service vector.
    let imp = CompleteSystem::new(Selfish, 2, Vec::new());
    let spec_obj = canonical_consensus(2, 1);
    let inputs = vec![
        Action::Init(ProcId(0), Val::Int(0)),
        Action::Init(ProcId(1), Val::Int(1)),
    ];
    let verdict = check_trace_inclusion(&imp, &spec_obj, external, &inputs, 2, 1_000_000);
    match verdict {
        Inclusion::Fails(cex) => {
            // The offending action is the second, conflicting decide.
            assert!(matches!(cex.offending, SvcAction::Respond(..)));
        }
        other => panic!("expected atomicity violation, got {other:?}"),
    }
}

#[test]
fn tob_consensus_is_also_atomic_for_consensus_traces() {
    // The Theorem 9 candidate solves f-resilient consensus at its own
    // level; its external traces are consensus-object traces too.
    let imp = protocols::doomed::doomed_oblivious(2, 1);
    let spec_obj = canonical_consensus(2, 1);
    let inputs = vec![
        Action::Init(ProcId(0), Val::Int(0)),
        Action::Init(ProcId(0), Val::Int(1)),
        Action::Init(ProcId(1), Val::Int(0)),
        Action::Init(ProcId(1), Val::Int(1)),
    ];
    let verdict = check_trace_inclusion(&imp, &spec_obj, external, &inputs, 2, 3_000_000);
    assert_eq!(verdict, Inclusion::Holds);
}

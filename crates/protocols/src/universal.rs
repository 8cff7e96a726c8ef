//! The universality of consensus (Herlihy \[11\], the paper's stated
//! reason that consensus is *the* resilience benchmark, Section 1):
//! a wait-free atomic object of **any** deterministic sequential type
//! can be implemented from wait-free consensus services.
//!
//! This module implements the one-shot variant (each process performs
//! at most one operation, which is all the paper's consensus-centric
//! analyses need): a log of `n` wait-free multi-valued consensus
//! services agrees on the global linearization order; every process
//! replays the log on a local replica and answers its own operation
//! from the replica state at its winning slot.
//!
//! * **Atomicity** follows because all processes apply the same
//!   operation sequence to the same deterministic type: checked by
//!   finite-trace inclusion against the canonical atomic object.
//! * **Wait-freedom** follows because each slot's consensus service is
//!   wait-free and a process wins a slot after at most `n − 1` losses
//!   — each loss retires another process's unique operation.

use services::atomic::CanonicalAtomicObject;
use spec::seq::MultiValueConsensus;
use spec::seq_type::{ArcSeqType, Inv, Resp};
use spec::{ProcId, SvcId, Val};
use std::sync::Arc;
use system::build::CompleteSystem;
use system::process::{ProcAction, ProcessAutomaton};

/// The phase of a [`UniversalProcess`].
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// No operation yet.
    Idle,
    /// Operation received; about to propose at the current slot.
    Proposing,
    /// Proposal issued at the current slot; awaiting its outcome.
    AwaitSlot,
    /// Response computed; about to announce it.
    Responding(Val),
    /// Done: the operation's response (recorded).
    Done(Val),
}

/// The state of a [`UniversalProcess`]: current slot, local replica of
/// the implemented object, own pending operation.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UniState {
    /// Protocol phase.
    pub phase: Phase,
    /// The next log slot to settle.
    pub slot: usize,
    /// The local replica value of the implemented type.
    pub replica: Val,
    /// The encoded pending operation (once `init` arrives).
    pub my_op: Option<i64>,
}

/// The one-shot universal construction: `n` processes implement one
/// wait-free atomic object of type `typ` from `n` wait-free consensus
/// services (the log slots).
#[derive(Clone, Debug)]
pub struct UniversalProcess {
    typ: ArcSeqType,
    n: usize,
    /// `proposals[code]` = the `(proposer, invocation)` the code stands
    /// for; codes are what the log's consensus services agree on.
    proposals: Vec<(ProcId, Inv)>,
}

impl UniversalProcess {
    fn new(typ: ArcSeqType, n: usize) -> Self {
        let invs = typ.invocations();
        let mut proposals = Vec::with_capacity(n * invs.len());
        for i in 0..n {
            for inv in &invs {
                proposals.push((ProcId(i), inv.clone()));
            }
        }
        UniversalProcess { typ, n, proposals }
    }

    /// Encodes `(proposer, invocation)` as a consensus input.
    pub fn encode(&self, i: ProcId, inv: &Inv) -> Option<i64> {
        self.proposals
            .iter()
            .position(|(p, v)| *p == i && v == inv)
            .map(|idx| idx as i64)
    }

    /// Decodes a consensus decision back into `(proposer, invocation)`.
    pub fn decode(&self, code: i64) -> Option<&(ProcId, Inv)> {
        self.proposals.get(code as usize)
    }

    /// The external input that asks process `i` to perform `inv` on the
    /// implemented object.
    pub fn request(inv: &Inv) -> Val {
        inv.0.clone()
    }
}

impl ProcessAutomaton for UniversalProcess {
    type State = UniState;

    fn initial(&self, _i: ProcId) -> UniState {
        UniState {
            phase: Phase::Idle,
            slot: 0,
            replica: self.typ.initial_value(),
            my_op: None,
        }
    }

    fn on_init(&self, i: ProcId, st: &UniState, v: &Val) -> UniState {
        if st.phase != Phase::Idle {
            return st.clone();
        }
        let inv = Inv(v.clone());
        let Some(code) = self.encode(i, &inv) else {
            // Not an invocation of the implemented type: ignore.
            return st.clone();
        };
        let mut st = st.clone();
        st.my_op = Some(code);
        st.phase = Phase::Proposing;
        st
    }

    fn on_response(&self, i: ProcId, st: &UniState, c: SvcId, resp: &Resp) -> UniState {
        // Service c is the consensus object for slot c.
        if st.phase != Phase::AwaitSlot || c.0 != st.slot {
            return st.clone();
        }
        let Some(code) = MultiValueConsensus::decision(resp) else {
            return st.clone();
        };
        let (winner, inv) = self
            .decode(code)
            .expect("log holds encoded proposals")
            .clone();
        let (op_resp, replica2) = self.typ.delta_det(&inv, &st.replica);
        let mut st2 = st.clone();
        st2.replica = replica2;
        st2.slot += 1;
        if winner == i {
            // The slot linearized MY operation: its response comes from
            // the replica state right before this slot.
            st2.phase = Phase::Responding(op_resp.0);
        } else {
            st2.phase = Phase::Proposing;
        }
        st2
    }

    fn step(&self, _i: ProcId, st: &UniState) -> (ProcAction, UniState) {
        match &st.phase {
            Phase::Proposing => {
                if st.slot >= self.n {
                    // Cannot happen for one-shot operations (≤ n − 1
                    // losses), but stay total.
                    return (ProcAction::Skip, st.clone());
                }
                let code = st.my_op.expect("Proposing implies a pending op");
                let mut st2 = st.clone();
                st2.phase = Phase::AwaitSlot;
                (
                    ProcAction::Invoke(SvcId(st.slot), MultiValueConsensus::init(code)),
                    st2,
                )
            }
            Phase::Responding(v) => {
                let mut st2 = st.clone();
                st2.phase = Phase::Done(v.clone());
                (ProcAction::Decide(v.clone()), st2)
            }
            _ => (ProcAction::Skip, st.clone()),
        }
    }

    fn decision(&self, st: &UniState) -> Option<Val> {
        match &st.phase {
            Phase::Done(v) => Some(v.clone()),
            _ => None,
        }
    }
}

/// Builds the universal system: `n` processes implementing one
/// wait-free atomic object of type `typ` from `n` wait-free
/// multi-valued consensus services (one per log slot).
///
/// # Panics
///
/// Panics if `n` is zero or `typ` has no invocations.
pub fn build(typ: ArcSeqType, n: usize) -> CompleteSystem<UniversalProcess> {
    assert!(n > 0, "need at least one process");
    assert!(
        !typ.invocations().is_empty(),
        "the implemented type must have invocations"
    );
    let procs = UniversalProcess::new(typ, n);
    let domain = procs.proposals.len() as i64;
    let all: Vec<ProcId> = (0..n).map(ProcId).collect();
    let services: Vec<services::ArcService> = (0..n)
        .map(|_| {
            Arc::new(CanonicalAtomicObject::wait_free(
                Arc::new(MultiValueConsensus::new(domain)),
                all.iter().copied(),
            )) as services::ArcService
        })
        .collect();
    let sys = CompleteSystem::new(procs, n, services);
    crate::contract_check(&sys, "universal");
    sys
}

/// Convenience: the canonical atomic object this system claims to
/// implement (for trace-inclusion checks).
pub fn specification(typ: ArcSeqType, n: usize) -> CanonicalAtomicObject {
    let all: Vec<ProcId> = (0..n).map(ProcId).collect();
    CanonicalAtomicObject::wait_free(typ, all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec::seq::{FetchAndAdd, FifoQueue, TestAndSet};
    use system::consensus::InputAssignment;
    use system::sched::{initialize, run_fair, BranchPolicy, FairOutcome};

    fn run_all(
        sys: &CompleteSystem<UniversalProcess>,
        ops: &[(usize, Inv)],
        failures: &[(usize, ProcId)],
    ) -> Vec<Option<Val>> {
        let a = InputAssignment::of(
            ops.iter()
                .map(|(i, inv)| (ProcId(*i), UniversalProcess::request(inv))),
        );
        let s = initialize(sys, &a);
        let dead: std::collections::BTreeSet<usize> = failures.iter().map(|(_, p)| p.0).collect();
        let run = run_fair(sys, s, BranchPolicy::PreferDummy, failures, 200_000, |st| {
            ops.iter()
                .all(|(i, _)| dead.contains(i) || sys.decision(st, ProcId(*i)).is_some())
        });
        assert_eq!(
            run.outcome,
            FairOutcome::Stopped,
            "universal object must answer"
        );
        sys.decisions(run.exec.last_state())
    }

    #[test]
    fn test_and_set_has_one_winner() {
        let sys = build(Arc::new(TestAndSet), 3);
        let ops: Vec<(usize, Inv)> = (0..3).map(|i| (i, TestAndSet::test_and_set())).collect();
        let decisions = run_all(&sys, &ops, &[]);
        let winners = decisions
            .iter()
            .filter(|d| d.as_ref() == Some(&Val::Int(0)))
            .count();
        assert_eq!(winners, 1, "exactly one test&set winner: {decisions:?}");
    }

    #[test]
    fn counter_hands_out_distinct_tickets() {
        let sys = build(Arc::new(FetchAndAdd::modulo(16)), 3);
        let ops: Vec<(usize, Inv)> = (0..3).map(|i| (i, FetchAndAdd::fetch_add(1))).collect();
        let decisions = run_all(&sys, &ops, &[]);
        let mut tickets: Vec<i64> = decisions
            .iter()
            .map(|d| d.as_ref().unwrap().as_int().unwrap())
            .collect();
        tickets.sort_unstable();
        assert_eq!(
            tickets,
            vec![0, 1, 2],
            "fetch&add linearizes to distinct tickets"
        );
    }

    #[test]
    fn queue_dequeues_see_fifo_or_empty() {
        let sys = build(Arc::new(FifoQueue::bounded([Val::Int(7)].to_vec(), 4)), 2);
        let ops = vec![
            (0usize, FifoQueue::enq(Val::Int(7))),
            (1usize, FifoQueue::deq()),
        ];
        let decisions = run_all(&sys, &ops, &[]);
        // P1's deq linearizes before or after P0's enq: empty or 7.
        let deq = decisions[1].as_ref().unwrap();
        assert!(
            *deq == Val::Sym("empty") || *deq == Val::Int(7),
            "unexpected dequeue result {deq:?}"
        );
        assert_eq!(decisions[0].as_ref(), Some(&Val::Sym("ack")));
    }

    #[test]
    fn wait_free_survivor_is_answered_despite_max_failures() {
        let sys = build(Arc::new(TestAndSet), 3);
        let ops: Vec<(usize, Inv)> = (0..3).map(|i| (i, TestAndSet::test_and_set())).collect();
        // Kill P0 and P1 immediately: the log's consensus services are
        // wait-free, so P2 still linearizes and answers.
        let decisions = run_all(&sys, &ops, &[(0, ProcId(0)), (0, ProcId(1))]);
        assert!(decisions[2].is_some(), "survivor must be answered");
    }

    #[test]
    fn one_slot_per_process_suffices() {
        // Structural: the log has n slots and every process retires
        // after winning one.
        let sys = build(Arc::new(TestAndSet), 4);
        assert_eq!(sys.services().len(), 4);
        let ops: Vec<(usize, Inv)> = (0..4).map(|i| (i, TestAndSet::test_and_set())).collect();
        let decisions = run_all(&sys, &ops, &[]);
        assert!(decisions.iter().all(Option::is_some));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let p = UniversalProcess::new(Arc::new(TestAndSet), 3);
        for i in 0..3 {
            for inv in [TestAndSet::test_and_set(), TestAndSet::reset()] {
                let code = p.encode(ProcId(i), &inv).unwrap();
                assert_eq!(p.decode(code), Some(&(ProcId(i), inv)));
            }
        }
        assert!(p.encode(ProcId(9), &TestAndSet::reset()).is_none());
    }
}

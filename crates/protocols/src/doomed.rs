//! Doomed candidates: systems claiming `(f+1)`-resilient consensus
//! from `f`-resilient services — one per service class of the paper's
//! hierarchy.
//!
//! Each builder returns a system that solves `f`-resilient consensus
//! perfectly well (its failure-free and ≤ f-failure behaviour is
//! correct) but *cannot* reach `f + 1`; `analysis::witness::find_witness`
//! reproduces the matching theorem's proof on it:
//!
//! | builder | services | theorem |
//! |---|---|---|
//! | [`doomed_atomic`] | one `f`-resilient consensus object | Theorem 2 |
//! | [`doomed_atomic_with_registers`] | the object + per-process reliable registers | Theorem 2 |
//! | [`doomed_oblivious`] | one `f`-resilient totally ordered broadcast | Theorem 9 |
//! | [`doomed_general`] | one all-connected `f`-resilient perfect failure detector + registers | Theorem 10 |

use crate::fd_boost::RotatingCoordinator;
use services::atomic::CanonicalAtomicObject;
use services::general::CanonicalGeneralService;
use services::oblivious::CanonicalObliviousService;
use spec::fd::FreshPerfectFd;
use spec::seq::{BinaryConsensus, ReadWrite};
use spec::seq_type::Resp;
use spec::tob::TotallyOrderedBroadcast;
use spec::{ProcId, SvcId, Val};
use std::collections::BTreeSet;
use std::sync::Arc;
use system::build::CompleteSystem;
use system::process::direct::DirectConsensus;
use system::process::{ProcAction, ProcessAutomaton};

/// Theorem 2's minimal candidate: the direct protocol over a single
/// `f`-resilient binary consensus object shared by all `n` processes.
pub fn doomed_atomic(n: usize, f: usize) -> CompleteSystem<DirectConsensus> {
    let endpoints: Vec<ProcId> = (0..n).map(ProcId).collect();
    let obj = CanonicalAtomicObject::new(Arc::new(BinaryConsensus), endpoints, f);
    let sys = CompleteSystem::new(DirectConsensus::new(SvcId(0)), n, vec![Arc::new(obj)]);
    crate::contract_check(&sys, "doomed-atomic");
    sys
}

/// The phase of a [`RegisterThenObject`] process.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegPhase {
    /// Waiting for `init(v)`.
    Idle,
    /// Holding `v`, about to publish it in the process's register.
    Publishing(Val),
    /// Write issued, awaiting the ack (still holding `v`).
    AwaitAck(Val),
    /// About to invoke the consensus object with `v`.
    Proposing(Val),
    /// Awaiting the object's decision.
    Waiting,
    /// Response `v` received, about to announce it.
    Responding(Val),
    /// Decided `v`.
    Decided(Val),
}

/// Theorem 2's richer candidate: each process first publishes its
/// input in a dedicated reliable register, then runs the direct
/// protocol over the shared `f`-resilient consensus object — the shape
/// that exercises the register cases (Claim 5) of the Lemma 8
/// analysis.
#[derive(Clone, Debug)]
pub struct RegisterThenObject {
    object: SvcId,
    reg_of: Vec<SvcId>,
}

impl ProcessAutomaton for RegisterThenObject {
    type State = RegPhase;

    fn initial(&self, _i: ProcId) -> RegPhase {
        RegPhase::Idle
    }

    fn on_init(&self, _i: ProcId, st: &RegPhase, v: &Val) -> RegPhase {
        match st {
            RegPhase::Idle => RegPhase::Publishing(v.clone()),
            other => other.clone(),
        }
    }

    fn on_response(&self, i: ProcId, st: &RegPhase, c: SvcId, resp: &Resp) -> RegPhase {
        match st {
            RegPhase::AwaitAck(v) if c == self.reg_of[i.0] && resp == &ReadWrite::ack() => {
                RegPhase::Proposing(v.clone())
            }
            RegPhase::Waiting if c == self.object => match BinaryConsensus::decision(resp) {
                Some(w) => RegPhase::Responding(Val::Int(w)),
                None => st.clone(),
            },
            _ => st.clone(),
        }
    }

    fn step(&self, i: ProcId, st: &RegPhase) -> (ProcAction, RegPhase) {
        match st {
            RegPhase::Publishing(v) => (
                ProcAction::Invoke(self.reg_of[i.0], ReadWrite::write(v.clone())),
                RegPhase::AwaitAck(v.clone()),
            ),
            RegPhase::Proposing(v) => {
                let v = v.as_int().expect("binary input");
                (
                    ProcAction::Invoke(self.object, BinaryConsensus::init(v)),
                    RegPhase::Waiting,
                )
            }
            RegPhase::Responding(v) => {
                (ProcAction::Decide(v.clone()), RegPhase::Decided(v.clone()))
            }
            _ => (ProcAction::Skip, st.clone()),
        }
    }

    fn decision(&self, st: &RegPhase) -> Option<Val> {
        match st {
            RegPhase::Decided(v) => Some(v.clone()),
            _ => None,
        }
    }
}

/// Builds the [`RegisterThenObject`] candidate: service 0 is the
/// `f`-resilient consensus object; services `1..=n` are per-process
/// wait-free binary registers (all-connected, per Section 2.2's
/// registers).
pub fn doomed_atomic_with_registers(n: usize, f: usize) -> CompleteSystem<RegisterThenObject> {
    let endpoints: Vec<ProcId> = (0..n).map(ProcId).collect();
    let mut services: Vec<services::ArcService> = vec![Arc::new(CanonicalAtomicObject::new(
        Arc::new(BinaryConsensus),
        endpoints.clone(),
        f,
    ))];
    let reg_of: Vec<SvcId> = (0..n)
        .map(|i| {
            services.push(Arc::new(CanonicalAtomicObject::register(
                ReadWrite::binary(),
                endpoints.iter().copied(),
            )));
            SvcId(1 + i)
        })
        .collect();
    let sys = CompleteSystem::new(
        RegisterThenObject {
            object: SvcId(0),
            reg_of,
        },
        n,
        services,
    );
    crate::contract_check(&sys, "doomed-registers");
    sys
}

/// The phase of a [`TobConsensus`] process.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TobPhase {
    /// Waiting for `init(v)`.
    Idle,
    /// Holding `v`, about to broadcast it.
    HasInput(Val),
    /// Broadcast issued; will announce once the first ordered message
    /// is known.
    AwaitDelivery,
    /// Decided `v`.
    Decided(Val),
}

/// The state of a [`TobConsensus`] process: the phase plus the first
/// message this process has seen in the total delivery order.
///
/// The first message is tracked in *every* phase — deliveries can
/// overtake a process that has not finished broadcasting yet, and the
/// globally-first message is the decision, not the first message seen
/// while waiting.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TobState {
    /// The protocol phase.
    pub phase: TobPhase,
    /// The first ordered message observed so far.
    pub first: Option<Val>,
}

/// Theorem 9's candidate: consensus over a single `f`-resilient
/// totally ordered broadcast service. Every process broadcasts its
/// input; the *first message in the total order* is everyone's
/// decision — agreement follows from the total order, validity from
/// messages being inputs, and failure-free termination from fairness
/// of the `perform` and delivery tasks. Boosting it to `f + 1` is what
/// Theorem 9 forbids.
#[derive(Clone, Debug)]
pub struct TobConsensus {
    tob: SvcId,
}

impl ProcessAutomaton for TobConsensus {
    type State = TobState;

    fn initial(&self, _i: ProcId) -> TobState {
        TobState {
            phase: TobPhase::Idle,
            first: None,
        }
    }

    fn on_init(&self, _i: ProcId, st: &TobState, v: &Val) -> TobState {
        match st.phase {
            TobPhase::Idle => TobState {
                phase: TobPhase::HasInput(v.clone()),
                first: st.first.clone(),
            },
            _ => st.clone(),
        }
    }

    fn on_response(&self, _i: ProcId, st: &TobState, c: SvcId, resp: &Resp) -> TobState {
        if c != self.tob || st.first.is_some() {
            return st.clone();
        }
        match TotallyOrderedBroadcast::decode_rcv(resp) {
            Some((m, _sender)) => TobState {
                phase: st.phase.clone(),
                first: Some(m),
            },
            None => st.clone(),
        }
    }

    fn step(&self, _i: ProcId, st: &TobState) -> (ProcAction, TobState) {
        match (&st.phase, &st.first) {
            (TobPhase::HasInput(v), _) => (
                ProcAction::Invoke(self.tob, TotallyOrderedBroadcast::bcast(v.clone())),
                TobState {
                    phase: TobPhase::AwaitDelivery,
                    first: st.first.clone(),
                },
            ),
            (TobPhase::AwaitDelivery, Some(m)) => (
                ProcAction::Decide(m.clone()),
                TobState {
                    phase: TobPhase::Decided(m.clone()),
                    first: st.first.clone(),
                },
            ),
            _ => (ProcAction::Skip, st.clone()),
        }
    }

    fn decision(&self, st: &TobState) -> Option<Val> {
        match &st.phase {
            TobPhase::Decided(v) => Some(v.clone()),
            _ => None,
        }
    }
}

/// Builds the Theorem 9 candidate: one `f`-resilient totally ordered
/// broadcast service over the binary message alphabet, shared by all
/// `n` processes.
pub fn doomed_oblivious(n: usize, f: usize) -> CompleteSystem<TobConsensus> {
    let endpoints: Vec<ProcId> = (0..n).map(ProcId).collect();
    let tob = TotallyOrderedBroadcast::new([Val::Int(0), Val::Int(1)], endpoints.iter().copied());
    let svc = CanonicalObliviousService::new(Arc::new(tob), endpoints, f);
    let sys = CompleteSystem::new(TobConsensus { tob: SvcId(0) }, n, vec![Arc::new(svc)]);
    crate::contract_check(&sys, "doomed-tob");
    sys
}

/// The phase of a [`MixedConsensus`] process.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MixedPhase {
    /// Waiting for `init(v)`.
    Idle,
    /// Holding `v`, about to broadcast it.
    HasInput(Val),
    /// Broadcast issued; awaiting the first ordered message.
    AwaitOrder,
    /// First ordered value `m` known; about to propose it to the
    /// consensus object.
    Propose(Val),
    /// Proposal issued; awaiting the object's decision.
    AwaitObject,
    /// Response `v` received, about to announce it.
    Responding(Val),
    /// Decided `v`.
    Decided(Val),
}

/// The state of a [`MixedConsensus`] process.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MixedState {
    /// Protocol phase.
    pub phase: MixedPhase,
    /// First ordered message seen (tracked in every phase).
    pub first: Option<Val>,
}

/// A two-stage candidate spanning TWO service classes at once: inputs
/// are funneled through an `f`-resilient totally ordered broadcast
/// (stage 1: everyone adopts the first ordered message) and then
/// through an `f`-resilient consensus object (stage 2: tie-break, here
/// trivially unanimous). Either service alone already solves
/// `f`-resilient consensus; chaining them changes nothing — Theorem 9
/// refutes the combination the same way, with the hook free to pivot
/// on either service.
#[derive(Clone, Debug)]
pub struct MixedConsensus {
    tob: SvcId,
    object: SvcId,
}

impl ProcessAutomaton for MixedConsensus {
    type State = MixedState;

    fn initial(&self, _i: ProcId) -> MixedState {
        MixedState {
            phase: MixedPhase::Idle,
            first: None,
        }
    }

    fn on_init(&self, _i: ProcId, st: &MixedState, v: &Val) -> MixedState {
        match st.phase {
            MixedPhase::Idle => MixedState {
                phase: MixedPhase::HasInput(v.clone()),
                first: st.first.clone(),
            },
            _ => st.clone(),
        }
    }

    fn on_response(&self, _i: ProcId, st: &MixedState, c: SvcId, resp: &Resp) -> MixedState {
        if c == self.tob && st.first.is_none() {
            if let Some((m, _)) = TotallyOrderedBroadcast::decode_rcv(resp) {
                return MixedState {
                    phase: st.phase.clone(),
                    first: Some(m),
                };
            }
        }
        if c == self.object && st.phase == MixedPhase::AwaitObject {
            if let Some(w) = BinaryConsensus::decision(resp) {
                return MixedState {
                    phase: MixedPhase::Responding(Val::Int(w)),
                    first: st.first.clone(),
                };
            }
        }
        st.clone()
    }

    fn step(&self, _i: ProcId, st: &MixedState) -> (ProcAction, MixedState) {
        match (&st.phase, &st.first) {
            (MixedPhase::HasInput(v), _) => (
                ProcAction::Invoke(self.tob, TotallyOrderedBroadcast::bcast(v.clone())),
                MixedState {
                    phase: MixedPhase::AwaitOrder,
                    first: st.first.clone(),
                },
            ),
            (MixedPhase::AwaitOrder, Some(m)) => (
                ProcAction::Skip,
                MixedState {
                    phase: MixedPhase::Propose(m.clone()),
                    first: st.first.clone(),
                },
            ),
            (MixedPhase::Propose(m), _) => {
                let v = m.as_int().expect("binary message");
                (
                    ProcAction::Invoke(self.object, BinaryConsensus::init(v)),
                    MixedState {
                        phase: MixedPhase::AwaitObject,
                        first: st.first.clone(),
                    },
                )
            }
            (MixedPhase::Responding(v), _) => (
                ProcAction::Decide(v.clone()),
                MixedState {
                    phase: MixedPhase::Decided(v.clone()),
                    first: st.first.clone(),
                },
            ),
            _ => (ProcAction::Skip, st.clone()),
        }
    }

    fn decision(&self, st: &MixedState) -> Option<Val> {
        match &st.phase {
            MixedPhase::Decided(v) => Some(v.clone()),
            _ => None,
        }
    }
}

/// Builds the mixed-class candidate: service 0 is an `f`-resilient
/// totally ordered broadcast, service 1 an `f`-resilient consensus
/// object, both shared by all `n` processes.
pub fn doomed_mixed(n: usize, f: usize) -> CompleteSystem<MixedConsensus> {
    let endpoints: Vec<ProcId> = (0..n).map(ProcId).collect();
    let tob = TotallyOrderedBroadcast::new([Val::Int(0), Val::Int(1)], endpoints.iter().copied());
    let services: Vec<services::ArcService> = vec![
        Arc::new(CanonicalObliviousService::new(
            Arc::new(tob),
            endpoints.clone(),
            f,
        )),
        Arc::new(CanonicalAtomicObject::new(
            Arc::new(BinaryConsensus),
            endpoints,
            f,
        )),
    ];
    let sys = CompleteSystem::new(
        MixedConsensus {
            tob: SvcId(0),
            object: SvcId(1),
        },
        n,
        services,
    );
    crate::contract_check(&sys, "doomed-mixed");
    sys
}

/// Builds the Theorem 10 candidate: the rotating-coordinator protocol
/// of Section 6.3, but wired to a *single* `f`-resilient perfect
/// failure detector connected to **all** processes (plus the wait-free
/// round-registers). With `f + 1` failures the all-connected detector
/// is silenceable, and with it every round of the protocol — the exact
/// reason Theorem 10 needs its connectivity assumption, and the exact
/// difference from [`crate::fd_boost::build`].
pub fn doomed_general(n: usize, f: usize) -> CompleteSystem<RotatingCoordinator> {
    assert!(n >= 2, "need at least two processes");
    let all: Vec<ProcId> = (0..n).map(ProcId).collect();
    let mut services: Vec<services::ArcService> = Vec::new();
    let reg_of: Vec<SvcId> = (0..n)
        .map(|r| {
            services.push(Arc::new(CanonicalAtomicObject::register(
                ReadWrite::values_with_bot(2),
                all.iter().copied(),
            )));
            SvcId(r)
        })
        .collect();
    let fd_id = SvcId(services.len());
    services.push(Arc::new(CanonicalGeneralService::new(
        Arc::new(FreshPerfectFd::new(all.iter().copied())),
        all.iter().copied(),
        f,
    )));
    let fd_services: BTreeSet<SvcId> = [fd_id].into_iter().collect();
    let sys = CompleteSystem::new(
        RotatingCoordinator::new(n, reg_of, fd_services),
        n,
        services,
    );
    crate::contract_check(&sys, "doomed-fd");
    sys
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::resilience::{all_binary_assignments, certify, CertifyConfig};
    use system::consensus::InputAssignment;
    use system::sched::{initialize, run_fair, BranchPolicy, FairOutcome};

    #[test]
    fn doomed_atomic_solves_consensus_at_its_own_level() {
        let sys = doomed_atomic(3, 1);
        let cfg = CertifyConfig::new(1, 1, all_binary_assignments(3));
        let report = certify(&sys, &cfg);
        assert!(report.certified(), "{:?}", report.violations.first());
    }

    #[test]
    fn doomed_atomic_with_registers_runs_and_decides() {
        let sys = doomed_atomic_with_registers(2, 0);
        let a = InputAssignment::monotone(2, 1);
        let s = initialize(&sys, &a);
        let run = run_fair(&sys, s, BranchPolicy::Canonical, &[], 100_000, |st| {
            (0..2).all(|i| sys.decision(st, ProcId(i)).is_some())
        });
        assert_eq!(run.outcome, FairOutcome::Stopped);
        let vals = sys.decided_values(run.exec.last_state());
        assert_eq!(vals.len(), 1, "agreement: {vals:?}");
    }

    #[test]
    fn doomed_oblivious_decides_the_first_ordered_message() {
        let sys = doomed_oblivious(3, 1);
        let a = InputAssignment::of([
            (ProcId(0), Val::Int(0)),
            (ProcId(1), Val::Int(1)),
            (ProcId(2), Val::Int(1)),
        ]);
        let s = initialize(&sys, &a);
        let run = run_fair(&sys, s, BranchPolicy::Canonical, &[], 100_000, |st| {
            (0..3).all(|i| sys.decision(st, ProcId(i)).is_some())
        });
        assert_eq!(run.outcome, FairOutcome::Stopped);
        let vals = sys.decided_values(run.exec.last_state());
        assert_eq!(vals.len(), 1, "total order forces agreement: {vals:?}");
    }

    #[test]
    fn doomed_oblivious_certified_at_its_own_level() {
        let sys = doomed_oblivious(2, 0);
        let cfg = CertifyConfig::new(1, 0, all_binary_assignments(2));
        let report = certify(&sys, &cfg);
        assert!(report.certified(), "{:?}", report.violations.first());
    }

    #[test]
    fn doomed_mixed_decides_failure_free_and_is_certified() {
        let sys = doomed_mixed(2, 0);
        let a = InputAssignment::monotone(2, 1);
        let s = initialize(&sys, &a);
        let run = run_fair(&sys, s, BranchPolicy::Canonical, &[], 100_000, |st| {
            (0..2).all(|i| sys.decision(st, ProcId(i)).is_some())
        });
        assert_eq!(run.outcome, FairOutcome::Stopped);
        assert_eq!(sys.decided_values(run.exec.last_state()).len(), 1);
        let cfg = CertifyConfig::new(1, 0, all_binary_assignments(2));
        let report = certify(&sys, &cfg);
        assert!(report.certified(), "{:?}", report.violations.first());
    }

    #[test]
    fn doomed_mixed_is_refuted_across_both_classes() {
        use analysis::witness::{find_witness, Bounds, ImpossibilityWitness};
        let sys = doomed_mixed(2, 0);
        let w = find_witness(&sys, 0, Bounds::default()).unwrap();
        assert!(
            matches!(w, ImpossibilityWitness::HookRefutation { .. }),
            "expected a hook refutation, got: {}",
            w.headline()
        );
    }

    #[test]
    fn doomed_general_decides_failure_free() {
        let sys = doomed_general(2, 0);
        let a = InputAssignment::monotone(2, 1);
        let s = initialize(&sys, &a);
        let run = run_fair(&sys, s, BranchPolicy::Canonical, &[], 200_000, |st| {
            (0..2).all(|i| sys.decision(st, ProcId(i)).is_some())
        });
        assert_eq!(run.outcome, FairOutcome::Stopped);
        let vals = sys.decided_values(run.exec.last_state());
        assert_eq!(vals.len(), 1, "agreement: {vals:?}");
    }

    #[test]
    fn doomed_general_starves_at_f_plus_1_failures() {
        // Fail the first coordinator: the 0-resilient all-connected FD
        // may fall silent, so the survivor can neither read a value nor
        // ever suspect — exactly Theorem 10's scenario.
        let sys = doomed_general(2, 0);
        let a = InputAssignment::monotone(2, 1);
        let s = initialize(&sys, &a);
        let run = run_fair(
            &sys,
            s,
            BranchPolicy::PreferDummy,
            &[(0, ProcId(0))],
            200_000,
            |st| sys.decision(st, ProcId(1)).is_some(),
        );
        assert!(
            matches!(run.outcome, FairOutcome::Lasso(_)),
            "expected starvation, got {:?}",
            run.outcome
        );
    }

    #[test]
    fn fd_boost_twin_does_not_starve_in_the_same_scenario() {
        // The control for the previous test: identical protocol, but
        // pairwise 1-resilient detectors — the survivor is informed and
        // decides. Connection pattern is the whole difference.
        let sys = crate::fd_boost::build(2);
        let a = InputAssignment::monotone(2, 1);
        let s = initialize(&sys, &a);
        let run = run_fair(
            &sys,
            s,
            BranchPolicy::PreferDummy,
            &[(0, ProcId(0))],
            200_000,
            |st| sys.decision(st, ProcId(1)).is_some(),
        );
        assert_eq!(run.outcome, FairOutcome::Stopped);
    }
}

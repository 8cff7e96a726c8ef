//! Section 6.3: boosting *is* possible with failure-aware services
//! under arbitrary connection patterns.
//!
//! Every pair of processes shares a 1-resilient 2-process perfect
//! failure detector; each process accumulates the suspicions it hears,
//! which — because the pairwise detectors are wait-free for their two
//! endpoints and perfectly accurate — gives every live process a
//! wait-free perfect failure detector over all `n` processes (the
//! paper's union construction). On top of that derived detector, a
//! classic rotating-coordinator protocol over wait-free registers
//! solves consensus for *any* number of failures:
//!
//! * round `r` (for `r = 0, …, n−1`): the coordinator `P_r` writes its
//!   current estimate into register `reg_r` and moves on; every other
//!   process repeatedly reads `reg_r` until it either sees a value
//!   (adopt it) or suspects `P_r` (skip the round);
//! * after round `n−1`, decide the current estimate.
//!
//! Accuracy of `P` means a correct coordinator is never skipped, so
//! the first correct coordinator's round homogenizes all estimates;
//! completeness means a crashed coordinator is eventually suspected,
//! so no round blocks. The same process automaton, wired to a *single*
//! all-connected `f`-resilient detector instead, is Theorem 10's
//! doomed candidate ([`crate::doomed::doomed_general`]) — the only
//! difference between possible and impossible is the connection
//! pattern.

use services::atomic::CanonicalAtomicObject;
use services::general::CanonicalGeneralService;
use spec::fd::{decode_suspect, FreshPerfectFd};
use spec::seq::ReadWrite;
use spec::seq_type::Resp;
use spec::{ProcId, SvcId, Val};
use std::collections::BTreeSet;
use std::sync::Arc;
use system::build::CompleteSystem;
use system::process::{ProcAction, ProcessAutomaton};

/// The phase of a [`RotatingCoordinator`] process within its current
/// round.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// No input yet.
    Idle,
    /// Ready to act in the current round.
    Ready,
    /// Coordinator: write issued, waiting for the ack.
    AwaitWriteAck,
    /// Reader: read issued, waiting for the value.
    AwaitRead,
    /// Decided.
    Decided,
}

/// The per-process state of the rotating-coordinator protocol.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoordState {
    /// The current estimate (`None` before `init`).
    pub estimate: Option<Val>,
    /// The current round `r ∈ 0..=n`.
    pub round: usize,
    /// Processes this process has (accurately) heard are failed.
    pub suspected: BTreeSet<ProcId>,
    /// The intra-round phase.
    pub phase: Phase,
    /// The recorded decision (Section 2.2.1 technicality).
    pub decision: Option<Val>,
}

impl CoordState {
    fn fresh() -> Self {
        CoordState {
            estimate: None,
            round: 0,
            suspected: BTreeSet::new(),
            phase: Phase::Idle,
            decision: None,
        }
    }
}

/// The rotating-coordinator consensus protocol over one round-register
/// per process and a set of failure-detector services.
///
/// `reg_of[r]` is the register coordinated by `P_r`; `fd_services`
/// lists every service whose `suspect` responses this process should
/// fold into its suspicion set — the all-pairs detectors in the
/// Section 6.3 construction, or the single all-connected detector in
/// the Theorem 10 candidate.
#[derive(Clone, Debug)]
pub struct RotatingCoordinator {
    n: usize,
    reg_of: Vec<SvcId>,
    fd_services: BTreeSet<SvcId>,
}

impl RotatingCoordinator {
    /// A protocol instance for `n` processes.
    pub fn new(n: usize, reg_of: Vec<SvcId>, fd_services: BTreeSet<SvcId>) -> Self {
        assert_eq!(reg_of.len(), n, "one round-register per process");
        RotatingCoordinator {
            n,
            reg_of,
            fd_services,
        }
    }
}

impl ProcessAutomaton for RotatingCoordinator {
    type State = CoordState;

    fn initial(&self, _i: ProcId) -> CoordState {
        CoordState::fresh()
    }

    fn on_init(&self, _i: ProcId, st: &CoordState, v: &Val) -> CoordState {
        if st.phase != Phase::Idle {
            return st.clone();
        }
        let mut st = st.clone();
        st.estimate = Some(v.clone());
        st.phase = Phase::Ready;
        st
    }

    fn on_response(&self, _i: ProcId, st: &CoordState, c: SvcId, resp: &Resp) -> CoordState {
        // Failure-detector responses fold into the suspicion set
        // regardless of phase.
        if self.fd_services.contains(&c) {
            if let Some(sus) = decode_suspect(resp) {
                let mut st = st.clone();
                st.suspected.extend(sus);
                return st;
            }
            return st.clone();
        }
        // Register responses only matter for the register of the
        // current round.
        if st.round >= self.n || c != self.reg_of[st.round] {
            return st.clone();
        }
        match st.phase {
            Phase::AwaitWriteAck => {
                if resp == &ReadWrite::ack() {
                    let mut st = st.clone();
                    st.round += 1;
                    st.phase = Phase::Ready;
                    return st;
                }
                st.clone()
            }
            Phase::AwaitRead => {
                let mut st2 = st.clone();
                if resp.0 == Val::Sym("bot") {
                    // Nothing written yet: go around (re-read or skip).
                    st2.phase = Phase::Ready;
                } else {
                    st2.estimate = Some(resp.0.clone());
                    st2.round += 1;
                    st2.phase = Phase::Ready;
                }
                st2
            }
            _ => st.clone(),
        }
    }

    fn step(&self, i: ProcId, st: &CoordState) -> (ProcAction, CoordState) {
        match st.phase {
            Phase::Ready => {
                if st.round >= self.n {
                    let v = st.estimate.clone().expect("Ready implies an estimate");
                    let mut st2 = st.clone();
                    st2.phase = Phase::Decided;
                    st2.decision = Some(v.clone());
                    return (ProcAction::Decide(v), st2);
                }
                let r = st.round;
                if ProcId(r) == i {
                    // Coordinator: publish the estimate.
                    let v = st.estimate.clone().expect("Ready implies an estimate");
                    let mut st2 = st.clone();
                    st2.phase = Phase::AwaitWriteAck;
                    (ProcAction::Invoke(self.reg_of[r], ReadWrite::write(v)), st2)
                } else if st.suspected.contains(&ProcId(r)) {
                    // Accurately suspected coordinator: skip the round.
                    let mut st2 = st.clone();
                    st2.round += 1;
                    (ProcAction::Skip, st2)
                } else {
                    // Poll the coordinator's register.
                    let mut st2 = st.clone();
                    st2.phase = Phase::AwaitRead;
                    (ProcAction::Invoke(self.reg_of[r], ReadWrite::read()), st2)
                }
            }
            _ => (ProcAction::Skip, st.clone()),
        }
    }

    fn decision(&self, st: &CoordState) -> Option<Val> {
        st.decision.clone()
    }
}

/// Builds the Section 6.3 system for `n` processes and binary inputs:
/// `n` wait-free round-registers (ids `0..n`) plus one 1-resilient
/// 2-process edge-triggered perfect failure detector per pair
/// (ids `n..n + C(n,2)`).
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn build(n: usize) -> CompleteSystem<RotatingCoordinator> {
    assert!(
        n >= 2,
        "the pairwise construction needs at least two processes"
    );
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
    let mut fd_services = BTreeSet::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let id = SvcId(services.len());
            let pair = [ProcId(i), ProcId(j)];
            services.push(Arc::new(CanonicalGeneralService::new(
                Arc::new(FreshPerfectFd::new(pair)),
                pair,
                1,
            )));
            fd_services.insert(id);
        }
    }
    let sys = CompleteSystem::new(
        RotatingCoordinator::new(n, reg_of, fd_services),
        n,
        services,
    );
    crate::contract_check(&sys, "fd-boost");
    sys
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::resilience::{all_binary_assignments, certify, CertifyConfig};
    use system::consensus::InputAssignment;
    use system::sched::{initialize, run_fair, BranchPolicy, FairOutcome};

    #[test]
    fn topology_is_registers_plus_pairwise_fds() {
        let sys = build(4);
        assert_eq!(sys.services().len(), 4 + 6);
        use services::ServiceClass;
        let classes: Vec<ServiceClass> = sys.services().iter().map(|s| s.class()).collect();
        assert_eq!(
            classes
                .iter()
                .filter(|c| **c == ServiceClass::Register)
                .count(),
            4
        );
        assert_eq!(
            classes
                .iter()
                .filter(|c| **c == ServiceClass::General)
                .count(),
            6
        );
        // Every FD has exactly 2 endpoints and tolerates 1 failure.
        for s in sys
            .services()
            .iter()
            .filter(|s| s.class() == ServiceClass::General)
        {
            assert_eq!(s.endpoints().len(), 2);
            assert_eq!(s.resilience(), 1);
            assert!(s.is_wait_free());
        }
    }

    #[test]
    fn failure_free_run_decides_the_first_coordinator_value() {
        let sys = build(3);
        let a = InputAssignment::of([
            (ProcId(0), Val::Int(1)),
            (ProcId(1), Val::Int(0)),
            (ProcId(2), Val::Int(0)),
        ]);
        let s = initialize(&sys, &a);
        let run = run_fair(&sys, s, BranchPolicy::Canonical, &[], 200_000, |st| {
            (0..3).all(|i| sys.decision(st, ProcId(i)).is_some())
        });
        assert_eq!(run.outcome, FairOutcome::Stopped);
        // Failure-free, P0 is the first correct coordinator: its input
        // wins every round.
        for i in 0..3 {
            assert_eq!(
                sys.decision(run.exec.last_state(), ProcId(i)),
                Some(Val::Int(1))
            );
        }
    }

    #[test]
    fn survives_coordinator_crash_mid_protocol() {
        let sys = build(3);
        let a = InputAssignment::of([
            (ProcId(0), Val::Int(1)),
            (ProcId(1), Val::Int(0)),
            (ProcId(2), Val::Int(0)),
        ]);
        let s = initialize(&sys, &a);
        // P0 (first coordinator) dies immediately: the survivors must
        // still decide — and agree.
        let run = run_fair(
            &sys,
            s,
            BranchPolicy::PreferDummy,
            &[(0, ProcId(0))],
            400_000,
            |st| (1..3).all(|i| sys.decision(st, ProcId(i)).is_some()),
        );
        assert_eq!(run.outcome, FairOutcome::Stopped, "survivors must decide");
        let last = run.exec.last_state();
        assert_eq!(sys.decision(last, ProcId(1)), sys.decision(last, ProcId(2)));
    }

    #[test]
    fn certified_wait_free_consensus_n3() {
        // The headline: consensus certified at resilience n−1 = 2 from
        // 1-resilient services — impossible per Theorem 10 only when
        // failure-aware services must connect to everybody.
        let sys = build(3);
        let mut cfg = CertifyConfig::new(1, 2, all_binary_assignments(3));
        cfg.failure_timings = vec![0, 7];
        cfg.max_steps = 400_000;
        let report = certify(&sys, &cfg);
        assert!(
            report.certified(),
            "first violation: {:?}",
            report.violations.first()
        );
    }
}

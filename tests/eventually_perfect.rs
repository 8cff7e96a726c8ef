//! Integration test — the eventually perfect failure detector `◇P`
//! (paper Section 6.2.2, Figs. 10–11) inside a complete system:
//! arbitrary suspicions while `mode = imperfect`, guaranteed-accurate
//! suspicions after the background task stabilizes the mode, and
//! stabilization guaranteed by fairness.

use services::general::CanonicalGeneralService;
use spec::fd::{decode_suspect, suspect, EventuallyPerfectFd};
use spec::seq_type::Resp;
use spec::{ProcId, SvcId, Val};
use std::collections::BTreeSet;
use std::sync::Arc;
use system::build::CompleteSystem;
use system::process::{ProcAction, ProcessAutomaton};
use system::sched::{run_fair, run_random, BranchPolicy, FairOutcome};
use system::Action;

/// A monitor that folds `◇P` suspicions and decides once it has
/// (accurately) suspected its peer.
#[derive(Clone, Debug)]
struct Monitor {
    fd: SvcId,
    peer_of: fn(ProcId) -> ProcId,
}

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct MonState {
    latest: BTreeSet<ProcId>,
    decided: Option<Val>,
}

impl ProcessAutomaton for Monitor {
    type State = MonState;

    fn initial(&self, _i: ProcId) -> MonState {
        MonState {
            latest: BTreeSet::new(),
            decided: None,
        }
    }
    fn on_init(&self, _i: ProcId, st: &MonState, _v: &Val) -> MonState {
        st.clone()
    }
    fn on_response(&self, _i: ProcId, st: &MonState, c: SvcId, resp: &Resp) -> MonState {
        if c != self.fd {
            return st.clone();
        }
        match decode_suspect(resp) {
            Some(s) => MonState {
                latest: s,
                decided: st.decided.clone(),
            },
            None => st.clone(),
        }
    }
    fn step(&self, i: ProcId, st: &MonState) -> (ProcAction, MonState) {
        let peer = (self.peer_of)(i);
        if st.decided.is_none() && st.latest.contains(&peer) {
            let v = suspect(&st.latest).0;
            let mut st2 = st.clone();
            st2.decided = Some(v.clone());
            return (ProcAction::Decide(v), st2);
        }
        (ProcAction::Skip, st.clone())
    }
    fn decision(&self, st: &MonState) -> Option<Val> {
        st.decided.clone()
    }
}

fn system(f: usize) -> CompleteSystem<Monitor> {
    let both = [ProcId(0), ProcId(1)];
    let fd = CanonicalGeneralService::new(Arc::new(EventuallyPerfectFd::new(both)), both, f);
    CompleteSystem::new(
        Monitor {
            fd: SvcId(0),
            peer_of: |i| ProcId(1 - i.0),
        },
        2,
        vec![Arc::new(fd)],
    )
}

#[test]
fn survivor_eventually_suspects_its_failed_peer() {
    // f = 1 (wait-free for two endpoints): P1 fails; fairness fires the
    // stabilize task, after which suspicions are accurate, so P0's
    // monitor eventually sees {P1} and decides.
    let sys = system(1);
    let s = sys.single_initial_state();
    let run = run_fair(
        &sys,
        s,
        BranchPolicy::Canonical,
        &[(0, ProcId(1))],
        100_000,
        |st| sys.decision(st, ProcId(0)).is_some(),
    );
    assert_eq!(run.outcome, FairOutcome::Stopped);
    // The decision is the accurate suspicion set {P1}.
    let d = sys.decision(run.exec.last_state(), ProcId(0)).unwrap();
    assert_eq!(d, suspect(&[ProcId(1)].into_iter().collect()).0);
}

#[test]
fn imperfect_mode_may_lie_but_perfect_mode_never_does() {
    // Random branch choices realize the imperfect mode's arbitrary
    // suspicions. Verify: any suspicion computed after the stabilize
    // step is exactly the failed set at its compute time.
    let sys = system(1);
    let s = sys.single_initial_state();
    let mut saw_false_suspicion = false;
    for seed in 0..40u64 {
        let run = run_random(&sys, s.clone(), seed, &[], 400, |_| false);
        let mut stabilized = false;
        for step in run.exec.steps() {
            match &step.action {
                Action::Compute(_, g) if *g == EventuallyPerfectFd::stabilize_task() => {
                    stabilized = true;
                }
                Action::Compute(_, spec::GlobalTaskId::Endpoint(i)) if stabilized => {
                    // A suspicion emission for endpoint i after
                    // stabilization: the service value is "perfect" and
                    // the fresh emission (the back of i's buffer) must
                    // equal failed (= ∅ here, failure-free run). Other
                    // endpoints' buffers may still hold stale
                    // pre-stabilization lies — those are legal.
                    let fresh = step.state.services[0].resp_buffer(*i).back();
                    if let Some(sus) = fresh.and_then(decode_suspect) {
                        assert!(sus.is_empty(), "perfect mode lied: {sus:?} (seed {seed})");
                    }
                }
                Action::Respond(_, _, r) => {
                    if let Some(sus) = decode_suspect(r) {
                        if !stabilized && !sus.is_empty() {
                            saw_false_suspicion = true;
                        }
                    }
                }
                _ => {}
            }
        }
    }
    assert!(
        saw_false_suspicion,
        "the imperfect mode should have produced at least one arbitrary suspicion across seeds"
    );
}

#[test]
fn fairness_forces_stabilization() {
    // The stabilize task is always applicable, so every fair run fires
    // it; afterwards the service value is the perfect mode.
    let sys = system(1);
    let s = sys.single_initial_state();
    let run = run_fair(&sys, s, BranchPolicy::Canonical, &[], 200, |st| {
        st.services[0].val == spec::fd::mode::perfect()
    });
    assert_eq!(
        run.outcome,
        FairOutcome::Stopped,
        "stabilize must fire under fairness"
    );
}

#[test]
fn beyond_resilience_the_detector_may_go_silent() {
    // f = 0: a single failure exceeds the bound, dummies enable, and
    // the dummy-preferring adversary keeps the detector quiet forever —
    // the monitor never hears of its peer's failure.
    let sys = system(0);
    let s = sys.single_initial_state();
    let run = run_fair(
        &sys,
        s,
        BranchPolicy::PreferDummy,
        &[(0, ProcId(1))],
        50_000,
        |st| sys.decision(st, ProcId(0)).is_some(),
    );
    assert!(
        matches!(run.outcome, FairOutcome::Lasso(_)),
        "expected silent starvation, got {:?}",
        run.outcome
    );
}

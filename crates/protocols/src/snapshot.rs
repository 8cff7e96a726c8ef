//! A double-collect atomic snapshot built from single-writer
//! registers — the standard "concurrently-accessible data structure"
//! substrate (paper Section 1's service examples), implemented from
//! weaker services and verified atomic.
//!
//! Each process owns one segment, stored in a dedicated wait-free
//! register. An **update** writes the register. A **scan** repeatedly
//! *collects* (reads all registers in order) until two consecutive
//! collects are identical; a clean double collect is linearizable at
//! any point between its two collects. With one-shot operations the
//! scan terminates in every fair execution (only finitely many writes
//! exist), so the one-shot object is wait-free; atomicity is checked
//! by exhaustive trace inclusion against the canonical snapshot object
//! in `tests/snapshot_atomicity.rs`.

use services::atomic::CanonicalAtomicObject;
use spec::seq::{ReadWrite, Snapshot};
use spec::seq_type::{Inv, Resp};
use spec::{ProcId, SvcId, Val};
use std::sync::Arc;
use system::build::CompleteSystem;
use system::process::{ProcAction, ProcessAutomaton};

/// The phase of a [`SnapshotProcess`].
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// No operation yet.
    Idle,
    /// Updater: about to write `v` to the own register.
    Updating(Val),
    /// Updater: write issued, awaiting the ack.
    AwaitAck,
    /// Scanner: collecting; `round` distinguishes first/second collect.
    Collecting {
        /// `false` = first collect, `true` = second.
        second: bool,
        /// Next register index to read.
        cursor: usize,
    },
    /// Scanner: read issued at `cursor` of the current collect.
    AwaitRead {
        /// Which collect the pending read belongs to.
        second: bool,
        /// The index being read.
        cursor: usize,
    },
    /// Decided (updaters ack, scanners return the vector).
    Done(Val),
}

/// The state of a [`SnapshotProcess`].
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SnapState {
    /// Protocol phase.
    pub phase: Phase,
    /// First collect (scanners).
    pub first: Vec<Val>,
    /// Second collect under construction (scanners).
    pub second: Vec<Val>,
}

/// The double-collect snapshot protocol: process `i` owns register
/// `i`; an `update(v)` input writes it, a `scan()` input runs double
/// collects.
#[derive(Clone, Debug)]
pub struct SnapshotProcess {
    n: usize,
}

impl SnapshotProcess {
    /// The external input asking process `i` to update its segment.
    pub fn update_request(v: Val) -> Val {
        Val::pair(Val::Sym("update"), v)
    }

    /// The external input asking process `i` to scan.
    pub fn scan_request() -> Val {
        Val::pair(Val::Sym("scan"), Val::Unit)
    }
}

impl ProcessAutomaton for SnapshotProcess {
    type State = SnapState;

    fn initial(&self, _i: ProcId) -> SnapState {
        SnapState {
            phase: Phase::Idle,
            first: Vec::new(),
            second: Vec::new(),
        }
    }

    fn on_init(&self, _i: ProcId, st: &SnapState, v: &Val) -> SnapState {
        if st.phase != Phase::Idle {
            return st.clone();
        }
        let Some((tag, payload)) = v.as_pair() else {
            return st.clone();
        };
        let mut st = st.clone();
        match tag.as_sym() {
            Some("update") => st.phase = Phase::Updating(payload.clone()),
            Some("scan") => {
                st.phase = Phase::Collecting {
                    second: false,
                    cursor: 0,
                }
            }
            _ => {}
        }
        st
    }

    fn on_response(&self, i: ProcId, st: &SnapState, c: SvcId, resp: &Resp) -> SnapState {
        match &st.phase {
            Phase::AwaitAck if c.0 == i.0 && resp == &ReadWrite::ack() => {
                let mut st2 = st.clone();
                st2.phase = Phase::Done(Val::Sym("ack"));
                st2
            }
            Phase::AwaitRead { second, cursor } if c.0 == *cursor => {
                let mut st2 = st.clone();
                if *second {
                    st2.second.push(resp.0.clone());
                } else {
                    st2.first.push(resp.0.clone());
                }
                st2.phase = Phase::Collecting {
                    second: *second,
                    cursor: cursor + 1,
                };
                st2
            }
            _ => st.clone(),
        }
    }

    fn step(&self, i: ProcId, st: &SnapState) -> (ProcAction, SnapState) {
        match &st.phase {
            Phase::Updating(v) => {
                let mut st2 = st.clone();
                st2.phase = Phase::AwaitAck;
                (
                    ProcAction::Invoke(SvcId(i.0), ReadWrite::write(v.clone())),
                    st2,
                )
            }
            Phase::Collecting { second, cursor } => {
                if *cursor < self.n {
                    // Keep collecting.
                    let mut st2 = st.clone();
                    st2.phase = Phase::AwaitRead {
                        second: *second,
                        cursor: *cursor,
                    };
                    (ProcAction::Invoke(SvcId(*cursor), ReadWrite::read()), st2)
                } else if !*second {
                    // First collect finished: start the second.
                    let mut st2 = st.clone();
                    st2.phase = Phase::Collecting {
                        second: true,
                        cursor: 0,
                    };
                    (ProcAction::Skip, st2)
                } else if st.first == st.second {
                    // Clean double collect: linearize and answer.
                    let snap = Val::Seq(st.first.clone());
                    let mut st2 = st.clone();
                    st2.phase = Phase::Done(snap.clone());
                    (ProcAction::Decide(snap), st2)
                } else {
                    // Dirty: retry with the second collect as the new
                    // first.
                    let mut st2 = st.clone();
                    st2.first = st2.second.clone();
                    st2.second = Vec::new();
                    st2.phase = Phase::Collecting {
                        second: true,
                        cursor: 0,
                    };
                    (ProcAction::Skip, st2)
                }
            }
            _ => (ProcAction::Skip, st.clone()),
        }
    }

    fn decision(&self, st: &SnapState) -> Option<Val> {
        match &st.phase {
            Phase::Done(v) => Some(v.clone()),
            _ => None,
        }
    }
}

/// Builds the double-collect snapshot system: `n` processes, `n`
/// single-writer wait-free registers over `{⊥} ∪ {0, …, m−1}`.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn build(n: usize, m: i64) -> CompleteSystem<SnapshotProcess> {
    assert!(n > 0, "need at least one process");
    let all: Vec<ProcId> = (0..n).map(ProcId).collect();
    let services: Vec<services::ArcService> = (0..n)
        .map(|_| {
            Arc::new(CanonicalAtomicObject::register(
                ReadWrite::values_with_bot(m),
                all.iter().copied(),
            )) as services::ArcService
        })
        .collect();
    let sys = CompleteSystem::new(SnapshotProcess { n }, n, services);
    crate::contract_check(&sys, "snapshot");
    sys
}

/// The canonical snapshot object this system implements (for trace
/// inclusion): `n` segments over `{⊥} ∪ {0, …, m−1}`, initial `⊥`.
pub fn specification(n: usize, m: i64) -> CanonicalAtomicObject {
    let mut domain = vec![Val::Sym("bot")];
    domain.extend((0..m).map(Val::Int));
    let all: Vec<ProcId> = (0..n).map(ProcId).collect();
    CanonicalAtomicObject::wait_free(Arc::new(Snapshot::new(n, domain, Val::Sym("bot"))), all)
}

/// Translates the system's external actions into canonical snapshot
/// actions (`update` requests at process `i` target segment `i`).
pub fn spec_invocation(i: ProcId, request: &Val) -> Option<Inv> {
    let (tag, payload) = request.as_pair()?;
    match tag.as_sym() {
        Some("update") => Some(Snapshot::update(i.0, payload.clone())),
        Some("scan") => Some(Snapshot::scan()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use system::consensus::InputAssignment;
    use system::sched::{initialize, run_fair, run_random, BranchPolicy, FairOutcome};

    fn drive(
        sys: &CompleteSystem<SnapshotProcess>,
        a: &InputAssignment,
        seed: Option<u64>,
    ) -> Vec<Option<Val>> {
        let n = sys.process_count();
        let s = initialize(sys, a);
        let stop = |st: &system::build::SystemState<SnapState>| {
            (0..n).all(|i| a.input(ProcId(i)).is_none() || sys.decision(st, ProcId(i)).is_some())
        };
        let run = match seed {
            None => run_fair(sys, s, BranchPolicy::Canonical, &[], 200_000, stop),
            Some(seed) => run_random(sys, s, seed, &[], 200_000, stop),
        };
        assert_eq!(
            run.outcome,
            FairOutcome::Stopped,
            "one-shot snapshot terminates"
        );
        sys.decisions(run.exec.last_state())
    }

    #[test]
    fn scan_sees_completed_updates() {
        let sys = build(2, 2);
        let a = InputAssignment::of([
            (ProcId(0), SnapshotProcess::update_request(Val::Int(1))),
            (ProcId(1), SnapshotProcess::scan_request()),
        ]);
        for seed in 0..20u64 {
            let d = drive(&sys, &a, Some(seed));
            assert_eq!(d[0], Some(Val::Sym("ack")));
            let snap = d[1].as_ref().unwrap().as_seq().unwrap().clone();
            // P1's own segment is untouched; P0's is ⊥ or 1 depending
            // on linearization.
            assert_eq!(snap[1], Val::Sym("bot"));
            assert!(snap[0] == Val::Sym("bot") || snap[0] == Val::Int(1));
        }
    }

    #[test]
    fn three_processes_two_writers_one_scanner() {
        let sys = build(3, 2);
        let a = InputAssignment::of([
            (ProcId(0), SnapshotProcess::update_request(Val::Int(0))),
            (ProcId(1), SnapshotProcess::update_request(Val::Int(1))),
            (ProcId(2), SnapshotProcess::scan_request()),
        ]);
        for seed in 0..20u64 {
            let d = drive(&sys, &a, Some(seed));
            let snap = d[2].as_ref().unwrap().as_seq().unwrap().clone();
            assert!(snap[0] == Val::Sym("bot") || snap[0] == Val::Int(0));
            assert!(snap[1] == Val::Sym("bot") || snap[1] == Val::Int(1));
            assert_eq!(snap[2], Val::Sym("bot"));
        }
    }

    #[test]
    fn pure_scan_returns_the_initial_vector() {
        let sys = build(2, 2);
        let a = InputAssignment::of([(ProcId(1), SnapshotProcess::scan_request())]);
        let d = drive(&sys, &a, None);
        assert_eq!(d[1], Some(Val::seq([Val::Sym("bot"), Val::Sym("bot")])));
    }

    #[test]
    fn spec_invocation_translation() {
        assert_eq!(
            spec_invocation(ProcId(1), &SnapshotProcess::update_request(Val::Int(0))),
            Some(Snapshot::update(1, Val::Int(0)))
        );
        assert_eq!(
            spec_invocation(ProcId(0), &SnapshotProcess::scan_request()),
            Some(Snapshot::scan())
        );
        assert_eq!(spec_invocation(ProcId(0), &Val::Unit), None);
    }
}

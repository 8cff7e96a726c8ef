//! The paper's Section 6.3 *union construction*, verbatim: a wait-free
//! `n`-process perfect failure detector implemented from 1-resilient
//! 2-process perfect failure detectors and wait-free registers.
//!
//! > "process i just listens to all failure detectors it is connected
//! > to and accumulates the set of suspected processes in a dedicated
//! > register. Periodically, it reads these dedicated registers and
//! > outputs the union of all sets of suspected processes."
//!
//! Each process loops forever: fold incoming pairwise suspicions into
//! a local set; publish that set in its dedicated register whenever it
//! grew; sweep all dedicated registers and emit `suspect(union)` as an
//! external output whenever the union grew. Accuracy is inherited from
//! the pairwise detectors (nobody is suspected before failing);
//! completeness holds because the failure of any `j` is observed by
//! the pairwise detector `{i, j}` of every live `i`.

use services::atomic::CanonicalAtomicObject;
use services::general::CanonicalGeneralService;
use spec::fd::{decode_suspect, suspect, FreshPerfectFd};
use spec::seq::ReadWrite;
use spec::seq_type::Resp;
use spec::{ProcId, SvcId, Val};
use std::collections::BTreeSet;
use std::sync::Arc;
use system::build::CompleteSystem;
use system::process::{ProcAction, ProcessAutomaton};

/// Encodes a suspicion set as a register value.
fn encode_set(s: &BTreeSet<ProcId>) -> Val {
    Val::set(s.iter().map(|p| Val::Int(p.0 as i64)))
}

/// Decodes a register value back into a suspicion set.
fn decode_set(v: &Val) -> BTreeSet<ProcId> {
    v.as_set()
        .map(|s| {
            s.iter()
                .filter_map(|x| x.as_int().map(|n| ProcId(n as usize)))
                .collect()
        })
        .unwrap_or_default()
}

/// The phase of a [`DerivedFdProcess`] within its publish/sweep cycle.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Deciding what to do next.
    Idle,
    /// Write of the local suspicion set issued; awaiting ack.
    AwaitWriteAck,
    /// Reading dedicated register `k`; awaiting the value.
    AwaitRead(usize),
}

/// The state of a [`DerivedFdProcess`].
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FdState {
    /// Suspicions heard directly from the pairwise detectors.
    pub local: BTreeSet<ProcId>,
    /// The suspicion set last written to the dedicated register.
    pub published: Option<BTreeSet<ProcId>>,
    /// Union accumulated during the current register sweep.
    pub sweep: BTreeSet<ProcId>,
    /// Next register index to read in the current sweep.
    pub cursor: usize,
    /// The union last emitted as a `suspect` output.
    pub emitted: Option<BTreeSet<ProcId>>,
    /// Intra-cycle phase.
    pub phase: Phase,
}

/// The union-construction process: implements endpoint `i` of a
/// wait-free `n`-process perfect failure detector.
#[derive(Clone, Debug)]
pub struct DerivedFdProcess {
    n: usize,
    /// `reg_of[i]` = `P_i`'s dedicated suspicion register.
    reg_of: Vec<SvcId>,
    fd_services: BTreeSet<SvcId>,
}

impl ProcessAutomaton for DerivedFdProcess {
    type State = FdState;

    fn initial(&self, _i: ProcId) -> FdState {
        FdState {
            local: BTreeSet::new(),
            published: None,
            sweep: BTreeSet::new(),
            cursor: 0,
            emitted: None,
            phase: Phase::Idle,
        }
    }

    fn on_init(&self, _i: ProcId, st: &FdState, _v: &Val) -> FdState {
        // The derived detector has no invocations; inits are ignored.
        st.clone()
    }

    fn on_response(&self, _i: ProcId, st: &FdState, c: SvcId, resp: &Resp) -> FdState {
        if self.fd_services.contains(&c) {
            if let Some(sus) = decode_suspect(resp) {
                let mut st = st.clone();
                st.local.extend(sus);
                return st;
            }
            return st.clone();
        }
        match st.phase {
            Phase::AwaitWriteAck if resp == &ReadWrite::ack() => {
                let mut st = st.clone();
                st.phase = Phase::Idle;
                st
            }
            Phase::AwaitRead(k) if c == self.reg_of[k] => {
                let mut st = st.clone();
                st.sweep.extend(decode_set(&resp.0));
                st.cursor = k + 1;
                st.phase = Phase::Idle;
                st
            }
            _ => st.clone(),
        }
    }

    fn step(&self, i: ProcId, st: &FdState) -> (ProcAction, FdState) {
        if st.phase != Phase::Idle {
            return (ProcAction::Skip, st.clone());
        }
        // 1. Publish the local set whenever it grew.
        if st.published.as_ref() != Some(&st.local) {
            let mut st2 = st.clone();
            st2.published = Some(st.local.clone());
            st2.phase = Phase::AwaitWriteAck;
            return (
                ProcAction::Invoke(self.reg_of[i.0], ReadWrite::write(encode_set(&st.local))),
                st2,
            );
        }
        // 2. Sweep all dedicated registers.
        if st.cursor < self.n {
            let mut st2 = st.clone();
            st2.phase = Phase::AwaitRead(st.cursor);
            return (
                ProcAction::Invoke(self.reg_of[st.cursor], ReadWrite::read()),
                st2,
            );
        }
        // 3. Sweep complete: emit the union if it grew, restart.
        let union: BTreeSet<ProcId> = st.sweep.union(&st.local).copied().collect();
        let mut st2 = st.clone();
        st2.cursor = 0;
        st2.sweep = BTreeSet::new();
        if st.emitted.as_ref() != Some(&union) {
            st2.emitted = Some(union.clone());
            return (ProcAction::Output(suspect(&union)), st2);
        }
        (ProcAction::Skip, st2)
    }

    fn decision(&self, _st: &FdState) -> Option<Val> {
        None // failure detectors never decide
    }
}

/// Builds the Section 6.3 derived failure detector for `n` processes:
/// `n` dedicated wait-free registers (ids `0..n`) over the subset
/// domain, plus one 1-resilient edge-triggered perfect detector per
/// pair.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn build(n: usize) -> CompleteSystem<DerivedFdProcess> {
    assert!(
        n >= 2,
        "the pairwise construction needs at least two processes"
    );
    let all: Vec<ProcId> = (0..n).map(ProcId).collect();
    // Register domain: all subsets of I (2^n values).
    let mut domain = Vec::with_capacity(1 << n);
    for mask in 0..(1u32 << n) {
        let s: BTreeSet<ProcId> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(ProcId)
            .collect();
        domain.push(encode_set(&s));
    }
    let initial = encode_set(&BTreeSet::new());
    let mut services: Vec<services::ArcService> = Vec::new();
    let reg_of: Vec<SvcId> = (0..n)
        .map(|r| {
            services.push(Arc::new(CanonicalAtomicObject::register(
                ReadWrite::with_domain(domain.clone(), initial.clone()),
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
    CompleteSystem::new(
        DerivedFdProcess {
            n,
            reg_of,
            fd_services,
        },
        n,
        services,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use system::sched::{run_fair, BranchPolicy};
    use system::Action;

    /// Collects the `suspect` outputs of each process along a run.
    fn outputs(
        run: &system::sched::FairRun<system::build::CompleteSystem<DerivedFdProcess>>,
        n: usize,
    ) -> Vec<Vec<BTreeSet<ProcId>>> {
        let mut out = vec![Vec::new(); n];
        for step in run.exec.steps() {
            if let Action::Output(i, r) = &step.action {
                out[i.0].push(decode_suspect(r).expect("outputs are suspect sets"));
            }
        }
        out
    }

    #[test]
    fn failure_free_detector_is_silent_after_the_empty_report() {
        let sys = build(3);
        let s = sys.single_initial_state();
        let run = run_fair(&sys, s, BranchPolicy::Canonical, &[], 50_000, |_| false);
        let outs = outputs(&run, 3);
        for o in &outs {
            // Exactly one output: the initial empty suspicion set.
            assert_eq!(o.len(), 1);
            assert!(o[0].is_empty());
        }
    }

    #[test]
    fn completeness_every_failure_is_eventually_reported_to_every_survivor() {
        let sys = build(3);
        let s = sys.single_initial_state();
        let run = run_fair(
            &sys,
            s,
            BranchPolicy::PreferDummy,
            &[(5, ProcId(1))],
            100_000,
            |_| false,
        );
        let outs = outputs(&run, 3);
        for i in [0usize, 2] {
            let last = outs[i].last().expect("survivors keep reporting");
            assert!(
                last.contains(&ProcId(1)),
                "survivor P{i} never learned of P1's failure: {outs:?}"
            );
        }
    }

    #[test]
    fn accuracy_nobody_is_suspected_before_failing() {
        // Along the whole execution, every emitted suspicion set is a
        // subset of the processes failed at that point.
        let sys = build(3);
        let s = sys.single_initial_state();
        let run = run_fair(
            &sys,
            s,
            BranchPolicy::Canonical,
            &[(7, ProcId(0)), (20, ProcId(2))],
            100_000,
            |_| false,
        );
        for step in run.exec.steps() {
            if let Action::Output(_, r) = &step.action {
                let suspected = decode_suspect(r).unwrap();
                assert!(
                    suspected.is_subset(&step.state.failed),
                    "false suspicion: {suspected:?} vs failed {:?}",
                    step.state.failed
                );
            }
        }
    }

    #[test]
    fn wait_free_two_failures_do_not_silence_the_survivor() {
        // The whole point: no single pairwise detector survives two
        // failures of ITS endpoints, but the survivor's own pairwise
        // detectors (1-resilient each, one endpoint alive) all keep
        // going — the derived detector is wait-free.
        let sys = build(3);
        let s = sys.single_initial_state();
        let run = run_fair(
            &sys,
            s,
            BranchPolicy::PreferDummy,
            &[(0, ProcId(0)), (1, ProcId(1))],
            100_000,
            |_| false,
        );
        let outs = outputs(&run, 3);
        let last = outs[2].last().expect("survivor reports");
        assert_eq!(
            last,
            &[ProcId(0), ProcId(1)].into_iter().collect::<BTreeSet<_>>(),
            "survivor's final report must name both failures"
        );
    }
}

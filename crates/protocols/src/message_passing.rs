//! Message passing as a special case of the service framework
//! (paper \[2\]: "Boosting Fault-Tolerance in Asynchronous Message
//! Passing Systems is Impossible", the technical report the journal
//! paper grew from).
//!
//! Channels are failure-oblivious services (`spec::channel`), so
//! Theorem 9 covers asynchronous message-passing systems directly.
//! [`build_flood_all`] is the classic flooding protocol: everyone
//! sends its input to everyone, waits for a value from **all** `n`
//! processes, and decides the minimum. It solves 0-resilient consensus
//! — and the witness pipeline refutes the claim that it (or anything
//! else over these services) reaches 1-resilience. Notably the
//! refutation here is *informational*, not service-silencing: all
//! pairwise channels stay perfectly live after the failure; the
//! survivor starves because the failed process's value can never
//! arrive — the message-passing face of the same theorem.

use services::oblivious::CanonicalObliviousService;
use spec::channel::PairChannel;
use spec::seq_type::Resp;
use spec::{ProcId, SvcId, Val};
use std::collections::BTreeMap;
use std::sync::Arc;
use system::build::CompleteSystem;
use system::process::{ProcAction, ProcessAutomaton};

/// The state of a [`FloodAll`] process.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FloodState {
    /// Own input, once received.
    pub input: Option<Val>,
    /// Values heard so far, by sender (self included once sent).
    pub heard: BTreeMap<ProcId, Val>,
    /// Channels still to send on (indices into the peer list).
    pub next_send: usize,
    /// Recorded decision.
    pub decision: Option<Val>,
    /// Whether a send is in flight (channels answer nothing, so this
    /// clears immediately after the invoke step).
    pub announced: bool,
}

/// The flooding consensus protocol over a full mesh of pairwise
/// channels: send the input everywhere, collect all `n` values, decide
/// the minimum.
#[derive(Clone, Debug)]
pub struct FloodAll {
    n: usize,
    /// `chan[i][j]` = the channel service between `i` and `j`
    /// (symmetric, diagonal unused).
    chan: Vec<Vec<SvcId>>,
    /// `peer_by_svc[c]` = for each channel service, the pair it
    /// connects (to identify senders on receipt).
    pair_of: BTreeMap<SvcId, (ProcId, ProcId)>,
}

impl FloodAll {
    /// The sender behind a `rcv` on channel `c` at receiver `i`.
    fn sender(&self, c: SvcId, i: ProcId) -> Option<ProcId> {
        let (a, b) = *self.pair_of.get(&c)?;
        if i == a {
            Some(b)
        } else if i == b {
            Some(a)
        } else {
            None
        }
    }
}

impl ProcessAutomaton for FloodAll {
    type State = FloodState;

    fn initial(&self, _i: ProcId) -> FloodState {
        FloodState {
            input: None,
            heard: BTreeMap::new(),
            next_send: 0,
            decision: None,
            announced: false,
        }
    }

    fn on_init(&self, i: ProcId, st: &FloodState, v: &Val) -> FloodState {
        if st.input.is_some() {
            return st.clone();
        }
        let mut st = st.clone();
        st.input = Some(v.clone());
        st.heard.insert(i, v.clone());
        st
    }

    fn on_response(&self, i: ProcId, st: &FloodState, c: SvcId, resp: &Resp) -> FloodState {
        let Some(sender) = self.sender(c, i) else {
            return st.clone();
        };
        let Some(m) = PairChannel::decode_rcv(resp) else {
            return st.clone();
        };
        let mut st = st.clone();
        st.heard.entry(sender).or_insert_with(|| m.clone());
        st
    }

    fn step(&self, i: ProcId, st: &FloodState) -> (ProcAction, FloodState) {
        let Some(input) = &st.input else {
            return (ProcAction::Skip, st.clone());
        };
        // Phase 1: flood the input to every peer, one channel per step.
        let peers: Vec<ProcId> = (0..self.n).map(ProcId).filter(|p| *p != i).collect();
        if st.next_send < peers.len() {
            let peer = peers[st.next_send];
            let mut st2 = st.clone();
            st2.next_send += 1;
            return (
                ProcAction::Invoke(self.chan[i.0][peer.0], PairChannel::send(input.clone())),
                st2,
            );
        }
        // Phase 2: wait for all n values, then decide the minimum.
        if st.heard.len() == self.n && !st.announced {
            let min = st.heard.values().min().expect("n ≥ 1 values").clone();
            let mut st2 = st.clone();
            st2.decision = Some(min.clone());
            st2.announced = true;
            return (ProcAction::Decide(min), st2);
        }
        (ProcAction::Skip, st.clone())
    }

    fn decision(&self, st: &FloodState) -> Option<Val> {
        st.decision.clone()
    }
}

/// Builds the flooding system: `n` processes over a full mesh of
/// pairwise `f`-resilient channels carrying binary values.
///
/// # Panics
///
/// Panics if `n < 2`.
#[allow(clippy::needless_range_loop)] // symmetric matrix fill: indices ARE the data
pub fn build_flood_all(n: usize, f: usize) -> CompleteSystem<FloodAll> {
    assert!(n >= 2, "flooding needs at least two processes");
    let mut services: Vec<services::ArcService> = Vec::new();
    let mut chan = vec![vec![SvcId(usize::MAX); n]; n];
    let mut pair_of = BTreeMap::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let id = SvcId(services.len());
            let pair = [ProcId(i), ProcId(j)];
            services.push(Arc::new(CanonicalObliviousService::new(
                Arc::new(PairChannel::new(
                    ProcId(i),
                    ProcId(j),
                    [Val::Int(0), Val::Int(1)],
                )),
                pair,
                f,
            )));
            chan[i][j] = id;
            chan[j][i] = id;
            pair_of.insert(id, (ProcId(i), ProcId(j)));
        }
    }
    let sys = CompleteSystem::new(FloodAll { n, chan, pair_of }, n, services);
    crate::contract_check(&sys, "flooding");
    sys
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::resilience::{all_binary_assignments, certify, CertifyConfig};
    use analysis::similarity::Refutation;
    use analysis::witness::{find_witness, Bounds, ImpossibilityWitness};
    use system::consensus::InputAssignment;
    use system::sched::{initialize, run_fair, BranchPolicy, FairOutcome};

    #[test]
    fn failure_free_flooding_decides_the_minimum() {
        let sys = build_flood_all(3, 1);
        let a = InputAssignment::of([
            (ProcId(0), Val::Int(1)),
            (ProcId(1), Val::Int(0)),
            (ProcId(2), Val::Int(1)),
        ]);
        let s = initialize(&sys, &a);
        let run = run_fair(&sys, s, BranchPolicy::Canonical, &[], 100_000, |st| {
            (0..3).all(|i| sys.decision(st, ProcId(i)).is_some())
        });
        assert_eq!(run.outcome, FairOutcome::Stopped);
        for i in 0..3 {
            assert_eq!(
                sys.decision(run.exec.last_state(), ProcId(i)),
                Some(Val::Int(0)),
                "everyone decides min of all inputs"
            );
        }
    }

    #[test]
    fn flooding_is_certified_0_resilient() {
        let sys = build_flood_all(2, 1);
        let cfg = CertifyConfig::new(1, 0, all_binary_assignments(2));
        let report = certify(&sys, &cfg);
        assert!(report.certified(), "{:?}", report.violations.first());
    }

    #[test]
    fn message_passing_boosting_is_refuted_informationally() {
        // Claim 1-resilience over 1-resilient (here: fully live)
        // channels. The witness starves a survivor even though NO
        // channel is ever silenced: the failed process's value simply
        // never enters the network — the original FLP flavour of the
        // theorem, recovered inside the service framework.
        let sys = build_flood_all(2, 1);
        let w = find_witness(&sys, 0, Bounds::default()).unwrap();
        match &w {
            ImpossibilityWitness::AdjacentRefutation { refutation, .. }
            | ImpossibilityWitness::HookRefutation { refutation, .. } => match refutation {
                Refutation::TerminationViolation { failed, run, .. } => {
                    assert_eq!(failed.len(), 1);
                    // The channels stay live towards the survivor: the
                    // only dummies in the starving run belong to the
                    // FAILED endpoint's own perform/output tasks
                    // (enabled by the `i ∈ failed` clause of Fig. 1);
                    // no delivery (compute) task is ever silenced and
                    // no dummy touches the survivor.
                    for step in run.exec.steps() {
                        match &step.action {
                            system::Action::DummyPerform(_, i)
                            | system::Action::DummyOutput(_, i) => {
                                assert!(
                                    failed.contains(i),
                                    "a live endpoint's task was silenced: {:?}",
                                    step.action
                                );
                            }
                            system::Action::DummyCompute(..) => {
                                panic!("a delivery task was silenced: {:?}", step.action)
                            }
                            _ => {}
                        }
                    }
                }
                other => panic!("expected a termination violation, got {other:?}"),
            },
            other => panic!("unexpected witness: {}", other.headline()),
        }
    }

    #[test]
    fn three_process_flooding_blocks_on_one_late_failure() {
        let sys = build_flood_all(3, 2);
        let a = InputAssignment::monotone(3, 1);
        let s = initialize(&sys, &a);
        // P2 dies before flooding anything: the other two wait forever.
        let run = run_fair(
            &sys,
            s,
            BranchPolicy::Canonical,
            &[(0, ProcId(2))],
            100_000,
            |st| (0..2).all(|i| sys.decision(st, ProcId(i)).is_some()),
        );
        assert!(
            matches!(run.outcome, FairOutcome::Lasso(_)),
            "expected blocking, got {:?}",
            run.outcome
        );
    }
}

//! Two-process wait-free consensus from test&set + registers — the
//! classic consensus-number-2 construction (Herlihy \[11\]), included
//! because it sharpens Theorem 2's reading: the theorem does *not* say
//! consensus is unimplementable, only that **resilience cannot be
//! boosted**. A *wait-free* test&set object yields wait-free 2-process
//! consensus (this module, certified); a 0-resilient test&set object
//! yields only 0-resilient consensus (the doomed variant, refuted by
//! the witness pipeline).
//!
//! Protocol (processes `P0`, `P1`; registers `r0`, `r1`; one test&set
//! object `T`):
//!
//! 1. `P_i` writes its input into `r_i`;
//! 2. `P_i` invokes `T.test_and_set()`;
//! 3. the winner (who read 0) decides its own input; the loser reads
//!    `r_{1−i}` and decides the winner's input.

use services::atomic::CanonicalAtomicObject;
use spec::seq::{ReadWrite, TestAndSet};
use spec::seq_type::Resp;
use spec::{ProcId, SvcId, Val};
use std::sync::Arc;
use system::build::CompleteSystem;
use system::process::{ProcAction, ProcessAutomaton};

/// The phase of a [`TasConsensus`] process.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Waiting for `init(v)`.
    Idle,
    /// Holding `v`, about to publish it.
    Publish(Val),
    /// Write issued; awaiting ack.
    AwaitAck(Val),
    /// About to race on the test&set object.
    Race(Val),
    /// test&set invoked; awaiting the old value.
    AwaitRace(Val),
    /// Lost the race: reading the winner's register.
    ReadWinner,
    /// Read issued; awaiting the winner's value.
    AwaitWinner,
    /// Value determined; about to announce.
    Responding(Val),
    /// Decided.
    Decided(Val),
}

/// The test&set consensus protocol for two processes.
///
/// Service layout: `regs[i]` is `P_i`'s input register; `tas` is the
/// shared test&set object.
#[derive(Clone, Debug)]
pub struct TasConsensus {
    regs: [SvcId; 2],
    tas: SvcId,
}

impl TasConsensus {
    /// A protocol instance over the given services.
    pub fn new(regs: [SvcId; 2], tas: SvcId) -> Self {
        TasConsensus { regs, tas }
    }
}

impl ProcessAutomaton for TasConsensus {
    type State = Phase;

    fn initial(&self, _i: ProcId) -> Phase {
        Phase::Idle
    }

    fn on_init(&self, _i: ProcId, st: &Phase, v: &Val) -> Phase {
        match st {
            Phase::Idle => Phase::Publish(v.clone()),
            other => other.clone(),
        }
    }

    fn on_response(&self, i: ProcId, st: &Phase, c: SvcId, resp: &Resp) -> Phase {
        match st {
            Phase::AwaitAck(v) if c == self.regs[i.0] && resp == &ReadWrite::ack() => {
                Phase::Race(v.clone())
            }
            Phase::AwaitRace(v) if c == self.tas => match resp.0.as_int() {
                Some(0) => Phase::Responding(v.clone()), // winner: own input
                Some(_) => Phase::ReadWinner,            // loser: fetch winner's
                None => st.clone(),
            },
            Phase::AwaitWinner if c == self.regs[1 - i.0] => {
                if resp.0 == Val::Sym("bot") {
                    // Cannot happen: the winner published before racing.
                    Phase::ReadWinner
                } else {
                    Phase::Responding(resp.0.clone())
                }
            }
            _ => st.clone(),
        }
    }

    fn step(&self, i: ProcId, st: &Phase) -> (ProcAction, Phase) {
        match st {
            Phase::Publish(v) => (
                ProcAction::Invoke(self.regs[i.0], ReadWrite::write(v.clone())),
                Phase::AwaitAck(v.clone()),
            ),
            Phase::Race(v) => (
                ProcAction::Invoke(self.tas, TestAndSet::test_and_set()),
                Phase::AwaitRace(v.clone()),
            ),
            Phase::ReadWinner => (
                ProcAction::Invoke(self.regs[1 - i.0], ReadWrite::read()),
                Phase::AwaitWinner,
            ),
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
}

/// Builds the test&set consensus system for two processes.
///
/// `tas_resilience` is the test&set object's resilience: `1` gives the
/// wait-free positive construction (consensus number 2); `0` gives the
/// doomed candidate Theorem 2 refutes.
pub fn build(tas_resilience: usize) -> CompleteSystem<TasConsensus> {
    let both = [ProcId(0), ProcId(1)];
    let services: Vec<services::ArcService> = vec![
        Arc::new(CanonicalAtomicObject::register(
            ReadWrite::values_with_bot(2),
            both,
        )),
        Arc::new(CanonicalAtomicObject::register(
            ReadWrite::values_with_bot(2),
            both,
        )),
        Arc::new(CanonicalAtomicObject::new(
            Arc::new(TestAndSet),
            both,
            tas_resilience,
        )),
    ];
    let sys = CompleteSystem::new(
        TasConsensus::new([SvcId(0), SvcId(1)], SvcId(2)),
        2,
        services,
    );
    crate::contract_check(&sys, "test-and-set");
    sys
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::resilience::{all_binary_assignments, certify, CertifyConfig};
    use analysis::witness::{find_witness, Bounds, ImpossibilityWitness};
    use system::consensus::InputAssignment;
    use system::sched::{initialize, run_fair, BranchPolicy, FairOutcome};

    #[test]
    fn wait_free_variant_is_certified_1_resilient() {
        // Consensus number 2: wait-free test&set + registers solve
        // wait-free (1-resilient) 2-process consensus.
        let sys = build(1);
        let mut cfg = CertifyConfig::new(1, 1, all_binary_assignments(2));
        cfg.max_steps = 100_000;
        let report = certify(&sys, &cfg);
        assert!(report.certified(), "{:?}", report.violations.first());
    }

    #[test]
    fn loser_adopts_the_winners_input() {
        let sys = build(1);
        let a = InputAssignment::of([(ProcId(0), Val::Int(1)), (ProcId(1), Val::Int(0))]);
        let s = initialize(&sys, &a);
        let run = run_fair(&sys, s, BranchPolicy::Canonical, &[], 100_000, |st| {
            (0..2).all(|i| sys.decision(st, ProcId(i)).is_some())
        });
        assert_eq!(run.outcome, FairOutcome::Stopped);
        let vals = sys.decided_values(run.exec.last_state());
        assert_eq!(vals.len(), 1, "agreement: {vals:?}");
    }

    #[test]
    fn zero_resilient_variant_is_refuted_by_theorem_2() {
        // The same protocol over a 0-resilient test&set object cannot
        // be 1-resilient: the pipeline generates a witness, showing
        // Theorem 2 covers arbitrary atomic-object types, not just
        // consensus objects.
        let sys = build(0);
        let w = find_witness(&sys, 0, Bounds::default()).unwrap();
        assert!(
            matches!(w, ImpossibilityWitness::HookRefutation { .. }),
            "expected a hook refutation, got: {}",
            w.headline()
        );
    }

    #[test]
    fn survivor_decides_after_peer_crash_wait_free() {
        let sys = build(1);
        let a = InputAssignment::of([(ProcId(0), Val::Int(0)), (ProcId(1), Val::Int(1))]);
        let s = initialize(&sys, &a);
        let run = run_fair(
            &sys,
            s,
            BranchPolicy::PreferDummy,
            &[(2, ProcId(0))],
            100_000,
            |st| sys.decision(st, ProcId(1)).is_some(),
        );
        assert_eq!(run.outcome, FairOutcome::Stopped);
    }
}

//! Section 4: boosting *is* possible for k-set-consensus.
//!
//! The construction: take `n` endpoints, split them into `g = k/k'`
//! disjoint groups of `n' = n/g` endpoints each, and give each group
//! its own wait-free `k'`-consensus service. Each process forwards its
//! input to its group's service and decides the response. At most `k'`
//! distinct values come out of each of the `g` services, so at most
//! `k' · g = k` distinct values are decided overall — wait-free
//! (`f = n − 1`) `k`-set-consensus from services that are only
//! `(n' − 1)`-resilient. Since `n' − 1 < n − 1`, resilience has been
//! boosted — which Theorem 2 proves impossible for `k = 1`.
//!
//! The paper's concrete instance: `n` even, `n' = n/2`, `k = 2`,
//! `k' = 1` — wait-free `n`-process 2-set consensus from wait-free
//! `n/2`-process consensus services.

use services::atomic::CanonicalAtomicObject;
use spec::seq::{KSetConsensus, MultiValueConsensus};
use spec::seq_type::Resp;
use spec::{ProcId, SvcId, Val};
use std::sync::Arc;
use system::build::CompleteSystem;
use system::process::{ProcAction, ProcessAutomaton};

/// Parameters of the Section 4 construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SetBoostParams {
    /// Total number of endpoints `n`.
    pub n: usize,
    /// The overall agreement bound `k`.
    pub k: usize,
    /// The per-service agreement bound `k'` (with `k' | k` and
    /// `(k/k') | n`).
    pub k_prime: usize,
}

impl SetBoostParams {
    /// The number of groups `g = k/k'`.
    pub fn groups(&self) -> usize {
        self.k / self.k_prime
    }

    /// The group size `n' = n/g`.
    pub fn group_size(&self) -> usize {
        self.n / self.groups()
    }

    /// Checks the construction's side conditions: `1 ≤ k' ≤ k < n`,
    /// `k' | k` and `(k/k') | n`.
    ///
    /// # Errors
    ///
    /// Returns the first violated condition.
    pub fn check(&self) -> Result<(), &'static str> {
        if !(self.k_prime >= 1 && self.k >= self.k_prime) {
            return Err("need 1 ≤ k' ≤ k");
        }
        if !self.k.is_multiple_of(self.k_prime) {
            return Err("k' must divide k");
        }
        if !self.n.is_multiple_of(self.groups()) {
            return Err("the group count must divide n");
        }
        // The k-set-consensus side condition 0 < k < n.
        if self.k >= self.n {
            return Err("k-set-consensus needs k < n");
        }
        Ok(())
    }
}

/// The phase of a [`GroupProcess`].
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Waiting for the external `init(v)`.
    Idle,
    /// Holding input `v`, about to invoke the group service.
    HasInput(Val),
    /// Invocation issued; awaiting the service's `decide`.
    Waiting,
    /// Response `v` received, about to announce it.
    Responding(Val),
    /// Decided `v`.
    Decided(Val),
}

/// The Section 4 process: forward the input to the group's service,
/// decide the response.
#[derive(Clone, Debug)]
pub struct GroupProcess {
    svc_of: Vec<SvcId>,
}

impl GroupProcess {
    /// A process family where process `i` talks to `svc_of[i]`.
    pub fn new(svc_of: Vec<SvcId>) -> Self {
        GroupProcess { svc_of }
    }

    /// The service process `i` is wired to.
    pub fn service_of(&self, i: ProcId) -> SvcId {
        self.svc_of[i.0]
    }
}

impl ProcessAutomaton for GroupProcess {
    type State = Phase;

    fn initial(&self, _i: ProcId) -> Phase {
        Phase::Idle
    }

    fn on_init(&self, _i: ProcId, st: &Phase, v: &Val) -> Phase {
        match st {
            Phase::Idle => Phase::HasInput(v.clone()),
            other => other.clone(),
        }
    }

    fn on_response(&self, i: ProcId, st: &Phase, c: SvcId, resp: &Resp) -> Phase {
        if c != self.svc_of[i.0] {
            return st.clone();
        }
        match (st, resp.name(), resp.arg()) {
            (Phase::Waiting, Some("decide"), Some(v)) => Phase::Responding(v.clone()),
            _ => st.clone(),
        }
    }

    fn step(&self, i: ProcId, st: &Phase) -> (ProcAction, Phase) {
        match st {
            Phase::HasInput(v) => {
                let v = v.as_int().expect("set-consensus inputs are ints");
                (
                    ProcAction::Invoke(self.svc_of[i.0], MultiValueConsensus::init(v)),
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
}

/// Builds the Section 4 system: `g` wait-free `k'`-consensus services
/// on disjoint groups of `n'` consecutive endpoints.
///
/// # Panics
///
/// Panics if the parameters violate the construction's side conditions
/// (`k' | k`, `(k/k') | n`, `k < n`).
pub fn build(params: SetBoostParams) -> CompleteSystem<GroupProcess> {
    if let Err(e) = params.check() {
        panic!("{e}");
    }
    let g = params.groups();
    let n_prime = params.group_size();
    let mut services: Vec<services::ArcService> = Vec::with_capacity(g);
    let mut svc_of = vec![SvcId(0); params.n];
    for group in 0..g {
        let endpoints: Vec<ProcId> = (0..n_prime).map(|o| ProcId(group * n_prime + o)).collect();
        for i in &endpoints {
            svc_of[i.0] = SvcId(group);
        }
        // init(v) invocations carry the same payload for both types, so
        // GroupProcess works against either.
        let svc = if params.k_prime == 1 {
            CanonicalAtomicObject::wait_free(
                Arc::new(MultiValueConsensus::new(params.n as i64)),
                endpoints,
            )
        } else {
            CanonicalAtomicObject::wait_free(
                Arc::new(KSetConsensus::new(params.k_prime, params.n)),
                endpoints,
            )
        };
        services.push(Arc::new(svc));
    }
    let sys = CompleteSystem::new(GroupProcess::new(svc_of), params.n, services);
    crate::contract_check(&sys, "set-boost");
    sys
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::resilience::{all_assignments, certify, CertifyConfig};
    use system::consensus::InputAssignment;
    use system::sched::{initialize, run_fair, BranchPolicy, FairOutcome};

    #[test]
    fn paper_instance_n4_k2() {
        // Wait-free 4-process 2-set consensus from two wait-free
        // 2-process consensus services: f = 3 tolerated although each
        // service is only 1-resilient.
        let params = SetBoostParams {
            n: 4,
            k: 2,
            k_prime: 1,
        };
        assert_eq!(params.groups(), 2);
        assert_eq!(params.group_size(), 2);
        let sys = build(params);
        assert_eq!(sys.services().len(), 2);
        for svc in sys.services() {
            assert!(svc.is_wait_free());
            assert_eq!(svc.resilience(), 1);
        }
    }

    #[test]
    fn failure_free_run_yields_at_most_k_values() {
        let sys = build(SetBoostParams {
            n: 4,
            k: 2,
            k_prime: 1,
        });
        // All-distinct inputs: 0,1,2,3.
        let a = InputAssignment::of((0..4).map(|i| (ProcId(i), Val::Int(i as i64))));
        let s = initialize(&sys, &a);
        let run = run_fair(&sys, s, BranchPolicy::Canonical, &[], 100_000, |st| {
            (0..4).all(|i| sys.decision(st, ProcId(i)).is_some())
        });
        assert_eq!(run.outcome, FairOutcome::Stopped);
        let decided = sys.decided_values(run.exec.last_state());
        assert!(decided.len() <= 2, "decided {decided:?}");
        // Group structure: P0,P1 agree and P2,P3 agree.
        let last = run.exec.last_state();
        assert_eq!(sys.decision(last, ProcId(0)), sys.decision(last, ProcId(1)));
        assert_eq!(sys.decision(last, ProcId(2)), sys.decision(last, ProcId(3)));
    }

    #[test]
    fn wait_free_certification_of_the_boost() {
        // The headline positive result: certify resilience n−1 = 3 with
        // k-agreement k = 2 across every failure pattern — the boosted
        // level that Theorem 2 forbids for k = 1.
        let sys = build(SetBoostParams {
            n: 4,
            k: 2,
            k_prime: 1,
        });
        let domain: Vec<Val> = (0..4).map(Val::Int).collect();
        let mut cfg = CertifyConfig::new(2, 3, all_assignments(4, &domain));
        cfg.failure_timings = vec![0, 4];
        cfg.max_steps = 50_000;
        let report = certify(&sys, &cfg);
        assert!(
            report.certified(),
            "first violation: {:?}",
            report.violations.first()
        );
        assert!(report.runs >= 256 * 2);
    }

    #[test]
    fn k_prime_greater_than_one_uses_set_consensus_services() {
        // n = 6, k = 4, k' = 2: g = 2 groups of 3 with wait-free
        // 2-set-consensus services.
        let sys = build(SetBoostParams {
            n: 6,
            k: 4,
            k_prime: 2,
        });
        assert_eq!(sys.services().len(), 2);
        let a = InputAssignment::of((0..6).map(|i| (ProcId(i), Val::Int(i as i64))));
        let s = initialize(&sys, &a);
        let run = run_fair(&sys, s, BranchPolicy::Canonical, &[], 100_000, |st| {
            (0..6).all(|i| sys.decision(st, ProcId(i)).is_some())
        });
        assert_eq!(run.outcome, FairOutcome::Stopped);
        assert!(sys.decided_values(run.exec.last_state()).len() <= 4);
    }

    #[test]
    #[should_panic(expected = "k' must divide k")]
    fn rejects_indivisible_parameters() {
        let _ = build(SetBoostParams {
            n: 6,
            k: 3,
            k_prime: 2,
        });
    }

    #[test]
    #[should_panic(expected = "group count must divide n")]
    fn rejects_non_dividing_groups() {
        let _ = build(SetBoostParams {
            n: 5,
            k: 2,
            k_prime: 1,
        });
    }
}

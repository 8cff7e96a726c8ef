//! The object-safe interface shared by all canonical services.
//!
//! The `system` crate composes processes with a heterogeneous vector of
//! services; [`Service`] is the dynamic interface each canonical
//! automaton implements. Its methods mirror the task structure of the
//! paper's canonical automata:
//!
//! * `i-perform` task — [`Service::perform_all`] (the `perform_{i,k}`
//!   action) and [`Service::dummy_perform_enabled`]
//!   (`dummy_perform_{i,k}`);
//! * `i-output` task — popping `resp_buffer(i)` (the `b_{i,k}` actions,
//!   realized by [`SvcState::pop_response`]) and
//!   [`Service::dummy_output_enabled`] (`dummy_output_{i,k}`);
//! * `g-compute` tasks — [`Service::compute_all`] (the `compute_{g,k}`
//!   action) and [`Service::dummy_compute_enabled`]
//!   (`dummy_compute_{g,k}`), present only for failure-oblivious and
//!   general services.

use crate::state::SvcState;
use spec::{GlobalTaskId, Inv, ProcId};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Which class of the paper's service hierarchy a canonical service
/// belongs to. The hierarchy is strict: atomic objects ⊂
/// failure-oblivious services ⊂ general services (Sections 5.1, 6.1),
/// and Theorem 10's connectivity requirement applies only to the
/// `General` class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServiceClass {
    /// A canonical reliable (wait-free) read/write register — index set
    /// `R` in the paper.
    Register,
    /// A canonical resilient atomic object (Fig. 1) — index set `K`.
    Atomic,
    /// A canonical failure-oblivious service (Fig. 4) — index set `K`
    /// (or `K1` in Theorem 10).
    FailureOblivious,
    /// A canonical general, possibly failure-aware service (Fig. 8) —
    /// index set `K2` in Theorem 10.
    General,
}

impl ServiceClass {
    /// Whether states of this class may depend on failure events
    /// (only [`ServiceClass::General`] may).
    pub fn is_failure_aware(self) -> bool {
        matches!(self, ServiceClass::General)
    }

    /// Whether the k-similarity definitions of Sections 3.5/6.3 compare
    /// this service's state (they ignore general services).
    pub fn compared_by_similarity(self) -> bool {
        !self.is_failure_aware()
    }
}

impl fmt::Display for ServiceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ServiceClass::Register => "register",
            ServiceClass::Atomic => "atomic",
            ServiceClass::FailureOblivious => "failure-oblivious",
            ServiceClass::General => "general",
        };
        write!(f, "{s}")
    }
}

/// A canonical `f`-resilient service: the dynamic interface over
/// [`SvcState`] consumed by the system composition.
pub trait Service: fmt::Debug + Send + Sync {
    /// The service's class in the paper's hierarchy.
    fn class(&self) -> ServiceClass;

    /// A short human-readable name.
    fn name(&self) -> String;

    /// The endpoint set `J`.
    fn endpoints(&self) -> &BTreeSet<ProcId>;

    /// The resilience level `f`.
    fn resilience(&self) -> usize;

    /// The global task names (empty for atomic objects and registers).
    fn global_tasks(&self) -> Vec<GlobalTaskId>;

    /// The start states (one per choice of initial value in `V0`).
    fn initial_states(&self) -> Vec<SvcState>;

    /// Whether `inv` is an invocation of the underlying type.
    fn is_invocation(&self, inv: &Inv) -> bool;

    /// All invocations of the underlying type.
    fn invocations(&self) -> Vec<Inv>;

    /// All outcomes of the (real) `perform_{i}` action: pop the head of
    /// `inv_buffer(i)` and apply the type's transition relation.
    /// Empty iff `inv_buffer(i)` is empty.
    fn perform_all(&self, i: ProcId, st: &SvcState) -> Vec<SvcState>;

    /// All outcomes of the (real) `compute_g` action. Total for every
    /// global task the service declares (δ2 is a total relation).
    fn compute_all(&self, g: &GlobalTaskId, st: &SvcState) -> Vec<SvcState>;

    /// Whether [`Service::perform_all`] would return a nonempty vector,
    /// without materializing any successor.
    ///
    /// Sound because the `perform_all` contract says "empty iff
    /// `inv_buffer(i)` is empty": the canonical automata's δ1 is a
    /// total relation on pending invocations, so enablement is exactly
    /// buffer non-emptiness.
    fn perform_enabled(&self, i: ProcId, st: &SvcState) -> bool {
        !st.inv_buffer(i).is_empty()
    }

    /// Whether popping `resp_buffer(i)` (the real `b_{i}` output) is
    /// enabled, without cloning the state.
    fn output_enabled(&self, i: ProcId, st: &SvcState) -> bool {
        !st.resp_buffer(i).is_empty()
    }

    /// Precondition of `dummy_perform_i` and `dummy_output_i` (Fig. 1):
    /// `i ∈ failed ∨ |failed| > f`.
    fn dummy_perform_enabled(&self, i: ProcId, st: &SvcState) -> bool {
        st.failed.contains(&i) || st.failure_count() > self.resilience()
    }

    /// Same precondition for the output dummy (Fig. 1 gives the two
    /// dummies identical preconditions).
    fn dummy_output_enabled(&self, i: ProcId, st: &SvcState) -> bool {
        self.dummy_perform_enabled(i, st)
    }

    /// Precondition of `dummy_compute_g` (Fig. 4):
    /// `|failed| > f ∨ failed = J`.
    fn dummy_compute_enabled(&self, st: &SvcState) -> bool {
        st.failure_count() > self.resilience() || st.failed == *self.endpoints()
    }

    /// Whether the service is wait-free (reliable): `f ≥ |J| − 1`
    /// (Section 2.1.3).
    fn is_wait_free(&self) -> bool {
        self.resilience() + 1 >= self.endpoints().len()
    }

    /// Applies the invocation input action `a_{i}`: appends to
    /// `inv_buffer(i)`. `None` if `i ∉ J` or `inv` is not an invocation
    /// of the type.
    fn enqueue_invocation(&self, i: ProcId, inv: &Inv, st: &SvcState) -> Option<SvcState> {
        if !self.endpoints().contains(&i) || !self.is_invocation(inv) {
            return None;
        }
        Some(st.with_invocation(i, inv.clone()))
    }

    /// Applies the response output action `b_{i}`: pops the head of
    /// `resp_buffer(i)`.
    fn pop_response(&self, i: ProcId, st: &SvcState) -> Option<(spec::Resp, SvcState)> {
        st.pop_response(i)
    }

    /// Applies the `fail_i` input action: records the failure iff
    /// `i ∈ J` (a `fail` of a non-endpoint is invisible to this
    /// service, Section 2.2.3).
    fn apply_fail(&self, i: ProcId, st: &SvcState) -> SvcState {
        if self.endpoints().contains(&i) {
            st.with_failure(i)
        } else {
            st.clone()
        }
    }

    /// Whether the service is *endpoint-symmetric*: relabeling endpoint
    /// `i` as `π(i)` in a state (all per-endpoint buffers and the failed
    /// set) commutes with every transition, because the underlying
    /// sequential type never bakes a `ProcId` into values or branches on
    /// the identity of the invoker. The `system::packed` orbit
    /// canonicalizer requires this of every service before it quotients
    /// by process-id permutation. Defaults to `false` — an explicit
    /// opt-in, like `ProcessAutomaton::id_symmetric` on the process
    /// side.
    fn endpoint_symmetric(&self) -> bool {
        false
    }
}

/// A shared, dynamically typed canonical service.
pub type ArcService = Arc<dyn Service>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_predicates() {
        assert!(ServiceClass::General.is_failure_aware());
        assert!(!ServiceClass::Atomic.is_failure_aware());
        assert!(ServiceClass::Register.compared_by_similarity());
        assert!(!ServiceClass::General.compared_by_similarity());
    }

    #[test]
    fn class_display() {
        assert_eq!(
            ServiceClass::FailureOblivious.to_string(),
            "failure-oblivious"
        );
    }
}

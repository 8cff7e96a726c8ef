//! The canonical `f`-resilient atomic object (paper Fig. 1,
//! Section 2.1.3) and canonical reliable registers.
//!
//! The canonical atomic object of type `T` for endpoint set `J`,
//! resilience `f` and index `k` keeps the invocations and responses of
//! each endpoint in FIFO buffers, applies `T.δ` in `perform_{i,k}`
//! steps, and emits responses in `b_{i,k}` output steps. For every
//! `i ∈ J` it has an `i-perform` and an `i-output` task, each
//! containing a dummy action enabled once `i ∈ failed` or
//! `|failed| > f` — so after more than `f` failures the object may
//! legitimately fall silent forever while still never violating its
//! sequential type.

use crate::service::{Service, ServiceClass};
use crate::state::SvcState;
use spec::seq::ReadWrite;
use spec::seq_type::ArcSeqType;
use spec::{GlobalTaskId, Inv, ProcId, Val};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The canonical `f`-resilient atomic object of Fig. 1.
///
/// # Example
///
/// ```
/// use services::atomic::CanonicalAtomicObject;
/// use services::service::Service;
/// use spec::seq::BinaryConsensus;
/// use spec::ProcId;
/// use std::sync::Arc;
///
/// let obj = CanonicalAtomicObject::new(Arc::new(BinaryConsensus), [ProcId(0), ProcId(1)], 0);
/// assert_eq!(obj.resilience(), 0);
/// assert!(!obj.is_wait_free());
/// ```
#[derive(Clone, Debug)]
pub struct CanonicalAtomicObject {
    typ: ArcSeqType,
    endpoints: BTreeSet<ProcId>,
    resilience: usize,
    class: ServiceClass,
}

impl CanonicalAtomicObject {
    /// The canonical `f`-resilient atomic object of sequential type
    /// `typ` for endpoint set `endpoints`.
    ///
    /// # Panics
    ///
    /// Panics if `endpoints` is empty (the definition requires a
    /// nonempty endpoint set).
    pub fn new<J: IntoIterator<Item = ProcId>>(
        typ: ArcSeqType,
        endpoints: J,
        resilience: usize,
    ) -> Self {
        let endpoints: BTreeSet<ProcId> = endpoints.into_iter().collect();
        assert!(
            !endpoints.is_empty(),
            "atomic objects require a nonempty endpoint set"
        );
        CanonicalAtomicObject {
            typ,
            endpoints,
            resilience,
            class: ServiceClass::Atomic,
        }
    }

    /// The canonical *wait-free* atomic object: `f = |J| − 1`
    /// (Section 2.1.3's "wait-free (or, reliable)").
    pub fn wait_free<J: IntoIterator<Item = ProcId>>(typ: ArcSeqType, endpoints: J) -> Self {
        let endpoints: BTreeSet<ProcId> = endpoints.into_iter().collect();
        let f = endpoints.len().saturating_sub(1);
        CanonicalAtomicObject::new(typ, endpoints, f)
    }

    /// A canonical reliable register (Section 2.2.2): the canonical
    /// wait-free atomic read/write object.
    pub fn register<J: IntoIterator<Item = ProcId>>(rw: ReadWrite, endpoints: J) -> Self {
        let mut obj = CanonicalAtomicObject::wait_free(Arc::new(rw), endpoints);
        obj.class = ServiceClass::Register;
        obj
    }

    /// The underlying sequential type.
    pub fn seq_type(&self) -> &ArcSeqType {
        &self.typ
    }
}

impl Service for CanonicalAtomicObject {
    fn class(&self) -> ServiceClass {
        self.class
    }

    fn name(&self) -> String {
        format!(
            "{}-resilient {} object ({} endpoints)",
            self.resilience,
            self.typ.name(),
            self.endpoints.len()
        )
    }

    fn endpoints(&self) -> &BTreeSet<ProcId> {
        &self.endpoints
    }

    fn resilience(&self) -> usize {
        self.resilience
    }

    fn global_tasks(&self) -> Vec<GlobalTaskId> {
        Vec::new()
    }

    fn initial_states(&self) -> Vec<SvcState> {
        self.typ
            .initial_values()
            .into_iter()
            .map(|v0: Val| SvcState::fresh(v0, self.endpoints.iter().copied()))
            .collect()
    }

    fn is_invocation(&self, inv: &Inv) -> bool {
        self.typ.is_invocation(inv)
    }

    fn invocations(&self) -> Vec<Inv> {
        self.typ.invocations()
    }

    fn perform_all(&self, i: ProcId, st: &SvcState) -> Vec<SvcState> {
        // Fig. 1, perform_{i,k}: precondition inv_buffer(i) nonempty;
        // effect: (resp, val) := any element of δ((head, val));
        // resp_buffer(i) := append(resp_buffer(i), resp).
        // The head invocation is read by reference so each branch pays
        // exactly one deep state clone.
        let Some(inv) = st.peek_invocation(i) else {
            return Vec::new();
        };
        self.typ
            .delta(inv, &st.val)
            .into_iter()
            .map(|(resp, v2)| {
                let mut st2 = st.clone();
                st2.inv_buf
                    .get_mut(&i)
                    .expect("peeked endpoint has a buffer")
                    .pop_front();
                st2.val = v2;
                st2.resp_buf
                    .get_mut(&i)
                    .expect("endpoints keep response buffers")
                    .push_back(resp);
                st2
            })
            .collect()
    }

    fn compute_all(&self, g: &GlobalTaskId, _st: &SvcState) -> Vec<SvcState> {
        panic!("atomic objects have no compute steps, got task {g:?}")
    }

    fn endpoint_symmetric(&self) -> bool {
        // The Fig. 1 automaton treats every endpoint uniformly (FIFO
        // buffers indexed by i, identical dummies), so its symmetry is
        // exactly that of the underlying sequential type.
        self.typ.proc_oblivious()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec::seq::{BinaryConsensus, KSetConsensus};

    fn consensus_obj(f: usize) -> CanonicalAtomicObject {
        CanonicalAtomicObject::new(
            Arc::new(BinaryConsensus),
            [ProcId(0), ProcId(1), ProcId(2)],
            f,
        )
    }

    #[test]
    fn perform_consumes_invocation_and_produces_response() {
        let obj = consensus_obj(1);
        let st = obj.initial_states().remove(0);
        let st = obj
            .enqueue_invocation(ProcId(1), &BinaryConsensus::init(0), &st)
            .unwrap();
        let outs = obj.perform_all(ProcId(1), &st);
        assert_eq!(outs.len(), 1);
        let st2 = &outs[0];
        assert!(st2.inv_buffer(ProcId(1)).is_empty());
        assert_eq!(
            st2.resp_buffer(ProcId(1)).front(),
            Some(&BinaryConsensus::decide(0))
        );
        assert_eq!(st2.val, Val::set([Val::Int(0)]));
    }

    #[test]
    fn perform_without_invocation_is_disabled() {
        let obj = consensus_obj(1);
        let st = obj.initial_states().remove(0);
        assert!(obj.perform_all(ProcId(0), &st).is_empty());
    }

    #[test]
    fn dummy_enabled_after_own_failure_or_too_many_failures() {
        let obj = consensus_obj(1);
        let st = obj.initial_states().remove(0);
        assert!(!obj.dummy_perform_enabled(ProcId(0), &st));
        // P0 fails: P0's dummies enable, P1's do not.
        let st1 = obj.apply_fail(ProcId(0), &st);
        assert!(obj.dummy_perform_enabled(ProcId(0), &st1));
        assert!(!obj.dummy_perform_enabled(ProcId(1), &st1));
        // Second failure exceeds f = 1: everyone's dummies enable.
        let st2 = obj.apply_fail(ProcId(1), &st1);
        assert!(obj.dummy_output_enabled(ProcId(2), &st2));
    }

    #[test]
    fn fail_of_non_endpoint_is_invisible() {
        let obj = consensus_obj(0);
        let st = obj.initial_states().remove(0);
        let st2 = obj.apply_fail(ProcId(9), &st);
        assert_eq!(st, st2);
    }

    #[test]
    fn enqueue_rejects_non_endpoints_and_alien_invocations() {
        let obj = consensus_obj(0);
        let st = obj.initial_states().remove(0);
        assert!(obj
            .enqueue_invocation(ProcId(9), &BinaryConsensus::init(0), &st)
            .is_none());
        assert!(obj
            .enqueue_invocation(ProcId(0), &Inv::nullary("pop"), &st)
            .is_none());
    }

    #[test]
    fn wait_free_constructor_sets_f() {
        let obj = CanonicalAtomicObject::wait_free(
            Arc::new(BinaryConsensus),
            [ProcId(0), ProcId(1), ProcId(2), ProcId(3)],
        );
        assert_eq!(obj.resilience(), 3);
        assert!(obj.is_wait_free());
    }

    #[test]
    fn register_is_a_wait_free_read_write_object() {
        let reg = CanonicalAtomicObject::register(ReadWrite::binary(), [ProcId(0), ProcId(1)]);
        assert_eq!(reg.class(), ServiceClass::Register);
        assert!(reg.is_wait_free());
        let st = reg.initial_states().remove(0);
        let st = reg
            .enqueue_invocation(ProcId(0), &ReadWrite::write(Val::Int(1)), &st)
            .unwrap();
        let st = reg.perform_all(ProcId(0), &st).remove(0);
        assert_eq!(st.val, Val::Int(1));
    }

    #[test]
    fn nondeterministic_types_yield_multiple_outcomes() {
        let obj = CanonicalAtomicObject::new(
            Arc::new(KSetConsensus::new(2, 3)),
            [ProcId(0), ProcId(1)],
            1,
        );
        // Put W = {0} into the object first.
        let st = obj.initial_states().remove(0);
        let st = obj
            .enqueue_invocation(ProcId(0), &KSetConsensus::init(0), &st)
            .unwrap();
        let st = obj.perform_all(ProcId(0), &st).remove(0);
        // Now init(1) with |W| = 1 < k: may decide 0 or 1.
        let st = obj
            .enqueue_invocation(ProcId(1), &KSetConsensus::init(1), &st)
            .unwrap();
        assert_eq!(obj.perform_all(ProcId(1), &st).len(), 2);
    }

    #[test]
    #[should_panic(expected = "no compute steps")]
    fn compute_panics() {
        let obj = consensus_obj(0);
        let st = obj.initial_states().remove(0);
        let _ = obj.compute_all(&GlobalTaskId::named("g"), &st);
    }

    #[test]
    fn fifo_order_of_concurrent_same_endpoint_invocations() {
        // Fig. 1 preserves per-endpoint invocation order via the FIFO
        // inv_buffer: two writes from P0 must be performed in order.
        let reg = CanonicalAtomicObject::register(ReadWrite::binary(), [ProcId(0)]);
        let st = reg.initial_states().remove(0);
        let st = reg
            .enqueue_invocation(ProcId(0), &ReadWrite::write(Val::Int(1)), &st)
            .unwrap();
        let st = reg
            .enqueue_invocation(ProcId(0), &ReadWrite::write(Val::Int(0)), &st)
            .unwrap();
        let st = reg.perform_all(ProcId(0), &st).remove(0);
        assert_eq!(st.val, Val::Int(1));
        let st = reg.perform_all(ProcId(0), &st).remove(0);
        assert_eq!(st.val, Val::Int(0));
    }
}

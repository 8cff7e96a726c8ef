//! The binary consensus sequential type (paper Section 2.1.2, second
//! example).
//!
//! `V = {∅, {0}, {1}}`, `V0 = {∅}`, `invs = {init(v) : v ∈ {0,1}}`,
//! `resps = {decide(v) : v ∈ {0,1}}`, and
//! `δ = {((init(v), ∅), (decide(v), {v}))}
//!    ∪ {((init(v), {v'}), (decide(v'), {v'}))}`:
//! the first value is remembered and returned by every operation.
//! This type is deterministic.

use crate::seq_type::{Inv, Resp, SeqType};
use crate::value::Val;

/// The deterministic binary consensus sequential type.
///
/// # Example
///
/// ```
/// use spec::seq::BinaryConsensus;
/// use spec::seq_type::SeqType;
///
/// let t = BinaryConsensus;
/// let (d, v) = t.delta_det(&BinaryConsensus::init(0), &t.initial_value());
/// assert_eq!(d, BinaryConsensus::decide(0));
/// // A later init(1) still decides 0.
/// let (d, _) = t.delta_det(&BinaryConsensus::init(1), &v);
/// assert_eq!(d, BinaryConsensus::decide(0));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BinaryConsensus;

impl BinaryConsensus {
    /// The `init(v)` invocation, `v ∈ {0, 1}`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not binary.
    pub fn init(v: i64) -> Inv {
        assert!(v == 0 || v == 1, "binary consensus input must be 0 or 1");
        Inv::op("init", Val::Int(v))
    }

    /// The `decide(v)` response.
    pub fn decide(v: i64) -> Resp {
        Resp::op("decide", Val::Int(v))
    }

    /// Extracts the decided value from a `decide(v)` response.
    pub fn decision(resp: &Resp) -> Option<i64> {
        if resp.name() == Some("decide") {
            resp.arg().and_then(Val::as_int)
        } else {
            None
        }
    }
}

impl SeqType for BinaryConsensus {
    fn name(&self) -> &str {
        "binary consensus"
    }

    fn initial_values(&self) -> Vec<Val> {
        vec![Val::empty_set()]
    }

    fn invocations(&self) -> Vec<Inv> {
        vec![BinaryConsensus::init(0), BinaryConsensus::init(1)]
    }

    fn delta(&self, inv: &Inv, val: &Val) -> Vec<(Resp, Val)> {
        assert_eq!(
            inv.name(),
            Some("init"),
            "not a consensus invocation: {inv:?}"
        );
        let v = inv.arg().and_then(Val::as_int).expect("init carries 0/1");
        let chosen = val.as_set().expect("consensus value is a set");
        match chosen.iter().next() {
            // ((init(v), {v'}), (decide(v'), {v'}))
            Some(first) => {
                let w = first.as_int().expect("chosen value is an int");
                vec![(BinaryConsensus::decide(w), val.clone())]
            }
            // ((init(v), ∅), (decide(v), {v}))
            None => vec![(BinaryConsensus::decide(v), Val::set([Val::Int(v)]))],
        }
    }

    fn proc_oblivious(&self) -> bool {
        // Values are sets of ints, invocations/responses carry ints —
        // no process identity anywhere.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_value_wins() {
        let t = BinaryConsensus;
        let (d0, v) = t.delta_det(&BinaryConsensus::init(1), &t.initial_value());
        assert_eq!(d0, BinaryConsensus::decide(1));
        assert_eq!(v, Val::set([Val::Int(1)]));
        let (d1, v2) = t.delta_det(&BinaryConsensus::init(0), &v);
        assert_eq!(d1, BinaryConsensus::decide(1));
        assert_eq!(v2, v, "value is stable once set");
    }

    #[test]
    fn deterministic_per_paper() {
        assert!(BinaryConsensus.is_deterministic(4));
    }

    #[test]
    fn decision_extraction() {
        assert_eq!(
            BinaryConsensus::decision(&BinaryConsensus::decide(1)),
            Some(1)
        );
        assert_eq!(BinaryConsensus::decision(&Resp::sym("ack")), None);
    }

    #[test]
    #[should_panic(expected = "must be 0 or 1")]
    fn rejects_nonbinary_inputs() {
        let _ = BinaryConsensus::init(2);
    }

    #[test]
    fn two_invocations_total() {
        assert_eq!(BinaryConsensus.invocations().len(), 2);
        assert!(BinaryConsensus.is_invocation(&BinaryConsensus::init(0)));
    }
}

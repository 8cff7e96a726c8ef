//! Multi-valued consensus: the binary consensus sequential type of
//! Section 2.1.2 generalized to an arbitrary finite input domain.
//!
//! Section 4's boosting construction uses `k'`-consensus services over
//! inputs `{0, …, n−1}`; for `k' = 1` those are (multi-valued)
//! consensus objects. Exactly as in the binary type, the first value is
//! remembered and returned by every operation; the type stays
//! deterministic.

use crate::seq_type::{Inv, Resp, SeqType};
use crate::value::Val;

/// The deterministic consensus sequential type over inputs
/// `{0, …, m−1}`.
///
/// # Example
///
/// ```
/// use spec::seq::MultiValueConsensus;
/// use spec::seq_type::SeqType;
///
/// let t = MultiValueConsensus::new(4);
/// let (d, v) = t.delta_det(&MultiValueConsensus::init(3), &t.initial_value());
/// assert_eq!(d, MultiValueConsensus::decide(3));
/// let (d, _) = t.delta_det(&MultiValueConsensus::init(0), &v);
/// assert_eq!(d, MultiValueConsensus::decide(3));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MultiValueConsensus {
    m: i64,
}

impl MultiValueConsensus {
    /// A consensus type over inputs `{0, …, m−1}`.
    ///
    /// # Panics
    ///
    /// Panics if `m < 1`.
    pub fn new(m: i64) -> Self {
        assert!(m >= 1, "consensus needs a nonempty input domain");
        MultiValueConsensus { m }
    }

    /// The `init(v)` invocation.
    pub fn init(v: i64) -> Inv {
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

impl SeqType for MultiValueConsensus {
    fn name(&self) -> &str {
        "multi-valued consensus"
    }

    fn initial_values(&self) -> Vec<Val> {
        vec![Val::empty_set()]
    }

    fn invocations(&self) -> Vec<Inv> {
        (0..self.m).map(MultiValueConsensus::init).collect()
    }

    fn delta(&self, inv: &Inv, val: &Val) -> Vec<(Resp, Val)> {
        assert_eq!(
            inv.name(),
            Some("init"),
            "not a consensus invocation: {inv:?}"
        );
        let v = inv
            .arg()
            .and_then(Val::as_int)
            .expect("init carries an int");
        let chosen = val.as_set().expect("consensus value is a set");
        match chosen.iter().next() {
            Some(first) => {
                let w = first.as_int().expect("chosen value is an int");
                vec![(MultiValueConsensus::decide(w), val.clone())]
            }
            None => vec![(MultiValueConsensus::decide(v), Val::set([Val::Int(v)]))],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_value_wins_over_the_full_domain() {
        let t = MultiValueConsensus::new(5);
        let (d, v) = t.delta_det(&MultiValueConsensus::init(4), &t.initial_value());
        assert_eq!(MultiValueConsensus::decision(&d), Some(4));
        for later in 0..5 {
            let (d, v2) = t.delta_det(&MultiValueConsensus::init(later), &v);
            assert_eq!(MultiValueConsensus::decision(&d), Some(4));
            assert_eq!(v2, v);
        }
    }

    #[test]
    fn deterministic() {
        assert!(MultiValueConsensus::new(3).is_deterministic(3));
    }

    #[test]
    #[should_panic(expected = "nonempty input domain")]
    fn rejects_empty_domain() {
        let _ = MultiValueConsensus::new(0);
    }
}

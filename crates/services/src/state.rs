//! The state shape shared by every canonical service (paper Figs. 1,
//! 4, 8): a value `val ∈ V`, per-endpoint FIFO invocation and response
//! buffers, and the `failed` set of endpoints.

use spec::service_type::ResponseMap;
use spec::{Inv, ProcId, Resp, Val};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Thread-local census of deep [`SvcState`] clones.
///
/// Every `SvcState::clone()` is a deep copy of the buffer trees, which
/// is exactly the per-successor cost the component-interned
/// representation is designed to avoid. The counter lets benchmarks and
/// regression tests quantify that cost instead of guessing: reset it,
/// run a workload, read it back. Thread-local, so concurrently running
/// tests count independently; run the measured workload on the thread
/// that reads the counter.
pub mod clones {
    use std::cell::Cell;

    thread_local! {
        static DEEP_CLONES: Cell<u64> = const { Cell::new(0) };
    }

    /// Deep `SvcState` clones performed by this thread since the last
    /// [`reset`].
    #[must_use]
    pub fn count() -> u64 {
        DEEP_CLONES.with(Cell::get)
    }

    /// Zero this thread's clone counter.
    pub fn reset() {
        DEEP_CLONES.with(|c| c.set(0));
    }

    pub(super) fn bump() {
        DEEP_CLONES.with(|c| c.set(c.get() + 1));
    }
}

/// The state of a canonical service automaton.
///
/// `buffer(i)_c` in the paper denotes the pair
/// `⟨inv_buffer(i)_c, resp_buffer(i)_c⟩`; [`SvcState::buffer`] returns
/// exactly that pair, which is what the j-similarity definition of
/// Section 3.5 compares.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SvcState {
    /// The current value `val ∈ V`.
    pub val: Val,
    /// `inv_buffer(i)`: pending invocations from endpoint `i`, FIFO.
    pub inv_buf: BTreeMap<ProcId, VecDeque<Inv>>,
    /// `resp_buffer(i)`: pending responses to endpoint `i`, FIFO.
    pub resp_buf: BTreeMap<ProcId, VecDeque<Resp>>,
    /// The endpoints whose `fail_i` input has arrived.
    pub failed: BTreeSet<ProcId>,
}

// Manual impl so every deep copy of the buffer trees is counted; see
// [`clones`].
impl Clone for SvcState {
    fn clone(&self) -> Self {
        clones::bump();
        SvcState {
            val: self.val.clone(),
            inv_buf: self.inv_buf.clone(),
            resp_buf: self.resp_buf.clone(),
            failed: self.failed.clone(),
        }
    }
}

impl SvcState {
    /// A fresh state with value `val`, empty buffers for every endpoint
    /// in `endpoints`, and no failures.
    pub fn fresh<J: IntoIterator<Item = ProcId>>(val: Val, endpoints: J) -> Self {
        let mut inv_buf = BTreeMap::new();
        let mut resp_buf = BTreeMap::new();
        for i in endpoints {
            inv_buf.insert(i, VecDeque::new());
            resp_buf.insert(i, VecDeque::new());
        }
        SvcState {
            val,
            inv_buf,
            resp_buf,
            failed: BTreeSet::new(),
        }
    }

    /// The pending invocations from endpoint `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not an endpoint of this service.
    pub fn inv_buffer(&self, i: ProcId) -> &VecDeque<Inv> {
        self.inv_buf
            .get(&i)
            .unwrap_or_else(|| panic!("{i} is not an endpoint of this service"))
    }

    /// The pending responses to endpoint `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not an endpoint of this service.
    pub fn resp_buffer(&self, i: ProcId) -> &VecDeque<Resp> {
        self.resp_buf
            .get(&i)
            .unwrap_or_else(|| panic!("{i} is not an endpoint of this service"))
    }

    /// The paper's `buffer(i)` pair `⟨inv_buffer(i), resp_buffer(i)⟩`.
    pub fn buffer(&self, i: ProcId) -> (&VecDeque<Inv>, &VecDeque<Resp>) {
        (self.inv_buffer(i), self.resp_buffer(i))
    }

    /// Returns a copy with `inv` appended to `inv_buffer(i)` — the
    /// effect of the invocation input action `a_{i,k}`.
    pub fn with_invocation(&self, i: ProcId, inv: Inv) -> SvcState {
        let mut st = self.clone();
        st.inv_buf
            .get_mut(&i)
            .unwrap_or_else(|| panic!("{i} is not an endpoint of this service"))
            .push_back(inv);
        st
    }

    /// Pops the head of `inv_buffer(i)`, if any. The emptiness check
    /// happens before the deep copy, so a `None` answer is free.
    pub fn pop_invocation(&self, i: ProcId) -> Option<(Inv, SvcState)> {
        self.inv_buf.get(&i)?.front()?;
        let mut st = self.clone();
        let inv = st.inv_buf.get_mut(&i)?.pop_front()?;
        Some((inv, st))
    }

    /// The head of `inv_buffer(i)` without copying anything, if any.
    ///
    /// Lets a service enumerate `perform` branches from the pending
    /// invocation by reference and clone the state once per branch,
    /// instead of cloning once to pop and again per branch.
    #[must_use]
    pub fn peek_invocation(&self, i: ProcId) -> Option<&Inv> {
        self.inv_buf.get(&i)?.front()
    }

    /// Pops the head of `resp_buffer(i)`, if any — the effect of the
    /// response output action `b_{i,k}`. The emptiness check happens
    /// before the deep copy, so a `None` answer is free.
    pub fn pop_response(&self, i: ProcId) -> Option<(Resp, SvcState)> {
        self.resp_buf.get(&i)?.front()?;
        let mut st = self.clone();
        let resp = st.resp_buf.get_mut(&i)?.pop_front()?;
        Some((resp, st))
    }

    /// Returns a copy with every response of `map` appended to the
    /// corresponding response buffer (the effect clause of the
    /// `perform`/`compute` steps in Figs. 4 and 8).
    ///
    /// Responses addressed to non-endpoints are a type error in the
    /// service definition and panic.
    pub fn with_responses(&self, map: &ResponseMap) -> SvcState {
        let mut st = self.clone();
        st.push_responses(map);
        st
    }

    /// Appends every response of `map` to the corresponding response
    /// buffer in place — the single-clone counterpart of
    /// [`SvcState::with_responses`].
    ///
    /// Responses addressed to non-endpoints are a type error in the
    /// service definition and panic.
    pub fn push_responses(&mut self, map: &ResponseMap) {
        for (i, resps) in map.iter() {
            let buf = self
                .resp_buf
                .get_mut(&i)
                .unwrap_or_else(|| panic!("response addressed to non-endpoint {i}"));
            buf.extend(resps.iter().cloned());
        }
    }

    /// Returns a copy with endpoint `i` marked failed — the effect of
    /// the `fail_i` input action.
    pub fn with_failure(&self, i: ProcId) -> SvcState {
        let mut st = self.clone();
        st.failed.insert(i);
        st
    }

    /// The number of failed endpoints.
    pub fn failure_count(&self) -> usize {
        self.failed.len()
    }
}

impl fmt::Display for SvcState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "val={}", self.val)?;
        for (i, q) in &self.inv_buf {
            if !q.is_empty() {
                write!(f, " inv({i})={}", q.len())?;
            }
        }
        for (i, q) in &self.resp_buf {
            if !q.is_empty() {
                write!(f, " resp({i})={}", q.len())?;
            }
        }
        if !self.failed.is_empty() {
            write!(f, " failed={{")?;
            for (idx, i) in self.failed.iter().enumerate() {
                if idx > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{i}")?;
            }
            write!(f, "}}")?;
        }
        Ok(())
    }
}

// Compile-time audit: system states (which embed `SvcState`s) satisfy
// the `Send + Sync` state bound of `ioa::automaton::Automaton`.
const _: () = {
    const fn is_send_sync<T: Send + Sync>() {}
    is_send_sync::<SvcState>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use spec::seq_type::Resp;

    fn state() -> SvcState {
        SvcState::fresh(Val::Int(0), [ProcId(0), ProcId(1)])
    }

    #[test]
    fn invocations_are_fifo_per_endpoint() {
        let st = state()
            .with_invocation(ProcId(0), Inv::nullary("a"))
            .with_invocation(ProcId(0), Inv::nullary("b"))
            .with_invocation(ProcId(1), Inv::nullary("c"));
        let (first, st2) = st.pop_invocation(ProcId(0)).unwrap();
        assert_eq!(first, Inv::nullary("a"));
        let (second, _) = st2.pop_invocation(ProcId(0)).unwrap();
        assert_eq!(second, Inv::nullary("b"));
        // P1's buffer is untouched.
        assert_eq!(st2.inv_buffer(ProcId(1)).len(), 1);
    }

    #[test]
    fn pop_on_empty_returns_none() {
        assert!(state().pop_invocation(ProcId(0)).is_none());
        assert!(state().pop_response(ProcId(1)).is_none());
    }

    #[test]
    fn response_map_application_appends() {
        let map = ResponseMap::broadcast([ProcId(0), ProcId(1)], Resp::sym("rcv"));
        let st = state().with_responses(&map).with_responses(&map);
        assert_eq!(st.resp_buffer(ProcId(0)).len(), 2);
        assert_eq!(st.resp_buffer(ProcId(1)).len(), 2);
    }

    #[test]
    #[should_panic(expected = "non-endpoint")]
    fn responses_to_non_endpoints_panic() {
        let map = ResponseMap::single(ProcId(9), Resp::sym("x"));
        let _ = state().with_responses(&map);
    }

    #[test]
    fn failures_accumulate() {
        let st = state().with_failure(ProcId(0)).with_failure(ProcId(0));
        assert_eq!(st.failure_count(), 1);
        let st = st.with_failure(ProcId(1));
        assert_eq!(st.failure_count(), 2);
    }

    #[test]
    fn display_mentions_nonempty_buffers() {
        let st = state()
            .with_invocation(ProcId(0), Inv::nullary("a"))
            .with_failure(ProcId(1));
        let s = st.to_string();
        assert!(s.contains("inv(P0)=1"));
        assert!(s.contains("failed={P1}"));
    }

    #[test]
    fn states_are_ordered_and_hashable() {
        use std::collections::BTreeSet;
        let mut set = BTreeSet::new();
        set.insert(state());
        set.insert(state().with_failure(ProcId(0)));
        set.insert(state());
        assert_eq!(set.len(), 2);
    }
}

//! Sequential types (paper Section 2.1.2).
//!
//! A *sequential type* `T = ⟨V, V0, invs, resps, δ⟩` consists of a value
//! set `V`, initial values `V0 ⊆ V`, invocation and response sets, and a
//! total binary relation `δ` from `invs × V` to `resps × V`. The paper
//! allows `V0` and `δ` to be nondeterministic (which is necessary to
//! express k-set-consensus, Section 2.1.2) and restricts to deterministic
//! types for the impossibility proofs (Section 3.1, assumption (ii)).
//!
//! [`SeqType`] exposes both views: [`SeqType::delta`] returns *all*
//! `(response, value)` outcomes, and [`SeqType::delta_det`] returns the
//! canonical least outcome — the determinization used by the hook and
//! valence machinery, corresponding to the paper's "remove transitions
//! until deterministic" argument.

use crate::value::Val;
use std::fmt;
use std::sync::Arc;

/// An invocation `a ∈ T.invs`, e.g. `(write, 3)` or `(init, 1)`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Inv(pub Val);

impl Inv {
    /// An invocation with an operation name and an argument.
    pub fn op(name: &'static str, arg: Val) -> Inv {
        Inv(Val::pair(Val::Sym(name), arg))
    }

    /// A zero-argument invocation.
    pub fn nullary(name: &'static str) -> Inv {
        Inv(Val::pair(Val::Sym(name), Val::Unit))
    }

    /// The operation name, if this invocation was built by [`Inv::op`] or
    /// [`Inv::nullary`].
    pub fn name(&self) -> Option<&'static str> {
        self.0.as_pair().and_then(|(n, _)| n.as_sym())
    }

    /// The argument, if this invocation was built by [`Inv::op`].
    pub fn arg(&self) -> Option<&Val> {
        self.0.as_pair().map(|(_, a)| a)
    }
}

impl fmt::Display for Inv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.name(), self.arg()) {
            (Some(n), Some(Val::Unit)) => write!(f, "{n}()"),
            (Some(n), Some(a)) => write!(f, "{n}({a})"),
            _ => write!(f, "{}", self.0),
        }
    }
}

/// A response `b ∈ T.resps`, e.g. `ack` or `(decide, 1)`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Resp(pub Val);

impl Resp {
    /// A response with a name and a payload.
    pub fn op(name: &'static str, arg: Val) -> Resp {
        Resp(Val::pair(Val::Sym(name), arg))
    }

    /// A bare symbolic response such as `ack`.
    pub fn sym(name: &'static str) -> Resp {
        Resp(Val::Sym(name))
    }

    /// The operation name, if this response was built by [`Resp::op`].
    pub fn name(&self) -> Option<&'static str> {
        match &self.0 {
            Val::Sym(s) => Some(s),
            v => v.as_pair().and_then(|(n, _)| n.as_sym()),
        }
    }

    /// The payload, if this response was built by [`Resp::op`].
    pub fn arg(&self) -> Option<&Val> {
        self.0.as_pair().map(|(_, a)| a)
    }
}

impl fmt::Display for Resp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.name(), self.arg()) {
            (Some(n), Some(a)) => write!(f, "{n}({a})"),
            _ => write!(f, "{}", self.0),
        }
    }
}

/// A sequential type `T = ⟨V, V0, invs, resps, δ⟩` (paper Section 2.1.2).
///
/// Implementations must guarantee *totality*: for every invocation
/// recognized by [`SeqType::is_invocation`] and every reachable value,
/// [`SeqType::delta`] returns at least one outcome.
///
/// # Example
///
/// ```
/// use spec::seq_type::{Inv, SeqType};
/// use spec::seq::ReadWrite;
/// use spec::Val;
///
/// let t = ReadWrite::with_domain([Val::Int(0), Val::Int(1)], Val::Int(0));
/// let (ack, v) = t.delta_det(&ReadWrite::write(Val::Int(1)), &t.initial_value());
/// assert_eq!(v, Val::Int(1));
/// let (resp, _) = t.delta_det(&ReadWrite::read(), &v);
/// assert_eq!(resp.0, Val::Int(1));
/// # let _ = (ack, Inv::nullary("read"));
/// ```
pub trait SeqType: fmt::Debug + Send + Sync {
    /// A short human-readable name, e.g. `"read/write"`.
    fn name(&self) -> &str;

    /// The set `V0` of initial values. Nonempty.
    fn initial_values(&self) -> Vec<Val>;

    /// All invocations of the type, for exhaustive exploration.
    ///
    /// Types with unbounded invocation sets restrict to a finite,
    /// constructor-specified domain; the paper's proofs only ever need
    /// the finitely many invocations a finite system can issue.
    fn invocations(&self) -> Vec<Inv>;

    /// Whether `inv` belongs to `T.invs`.
    fn is_invocation(&self, inv: &Inv) -> bool {
        self.invocations().contains(inv)
    }

    /// The transition relation `δ`: all `(b, v')` with `((a, v), (b, v'))
    /// ∈ δ`.
    ///
    /// Totality: nonempty whenever `is_invocation(inv)` and `val ∈ V`.
    fn delta(&self, inv: &Inv, val: &Val) -> Vec<(Resp, Val)>;

    /// The canonical initial value: least element of `V0`.
    ///
    /// # Panics
    ///
    /// Panics if the implementation violates the nonemptiness of `V0`.
    fn initial_value(&self) -> Val {
        self.initial_values()
            .into_iter()
            .min()
            .expect("sequential type must have a nonempty V0")
    }

    /// The determinized transition function (Section 3.1, assumption
    /// (ii)): the least `(b, v')` outcome of `δ`.
    ///
    /// # Panics
    ///
    /// Panics if `δ` is not total for `(inv, val)` — that would violate
    /// the definition of a sequential type.
    fn delta_det(&self, inv: &Inv, val: &Val) -> (Resp, Val) {
        self.delta(inv, val)
            .into_iter()
            .min()
            .unwrap_or_else(|| panic!("δ not total for {inv:?} at {val:?} in {}", self.name()))
    }

    /// Whether the type is *process-oblivious*: no value in `V`, no
    /// invocation and no response ever embeds a `ProcId`, so relabeling
    /// the processes of a system leaves every `δ` outcome untouched.
    /// Canonical services built over a process-oblivious type are
    /// endpoint-symmetric, which the `system::packed` orbit
    /// canonicalizer requires before quotienting by process-id
    /// permutation. Defaults to `false`; value-only types (binary
    /// consensus, read/write registers) opt in.
    fn proc_oblivious(&self) -> bool {
        false
    }

    /// Whether the type is deterministic: `|V0| = 1` and `δ` is a mapping
    /// over the reachable values.
    ///
    /// The default implementation checks `V0` and every invocation at
    /// every value reachable within `depth` operations.
    fn is_deterministic(&self, depth: usize) -> bool {
        if self.initial_values().len() != 1 {
            return false;
        }
        let mut frontier = self.initial_values();
        let mut seen: std::collections::BTreeSet<Val> = frontier.iter().cloned().collect();
        for _ in 0..depth {
            let mut next = Vec::new();
            for v in &frontier {
                for inv in self.invocations() {
                    let outs = self.delta(&inv, v);
                    if outs.len() != 1 {
                        return false;
                    }
                    let (_, v2) = &outs[0];
                    if seen.insert(v2.clone()) {
                        next.push(v2.clone());
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        true
    }
}

/// A shared, dynamically typed sequential type.
pub type ArcSeqType = Arc<dyn SeqType>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inv_display_and_accessors() {
        let i = Inv::op("write", Val::Int(3));
        assert_eq!(i.name(), Some("write"));
        assert_eq!(i.arg(), Some(&Val::Int(3)));
        assert_eq!(i.to_string(), "write(3)");
        assert_eq!(Inv::nullary("read").to_string(), "read()");
    }

    #[test]
    fn resp_display_and_accessors() {
        let r = Resp::op("decide", Val::Int(1));
        assert_eq!(r.name(), Some("decide"));
        assert_eq!(r.arg(), Some(&Val::Int(1)));
        assert_eq!(r.to_string(), "decide(1)");
        assert_eq!(Resp::sym("ack").to_string(), "ack");
        assert_eq!(Resp::sym("ack").name(), Some("ack"));
    }

    #[test]
    fn inv_and_resp_are_ordered() {
        assert!(Inv::op("a", Val::Int(0)) < Inv::op("b", Val::Int(0)));
        assert!(Resp::op("x", Val::Int(0)) < Resp::op("x", Val::Int(1)));
    }
}

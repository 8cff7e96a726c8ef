//! A universal value algebra.
//!
//! The paper's services range over arbitrary value sets `V`; to keep the
//! whole workspace model-checkable we represent every value — service
//! state, invocation payloads, responses, process-visible data — as a
//! single inductive type [`Val`] that is `Clone + Eq + Ord + Hash`.
//! Entire system states are then totally ordered and hashable, which is
//! what the exploration and valence machinery in the `analysis` crate
//! relies on.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A universal, totally ordered, hashable value.
///
/// `Val` plays the role of "an element of some value set `V`" throughout
/// the reproduction. The constructors mirror the structures the paper's
/// examples need: the read/write type stores a bare value, binary
/// consensus stores a set (`∅`, `{0}`, `{1}`), k-set-consensus stores a
/// bounded set `W`, totally ordered broadcast stores a sequence of
/// (message, sender) pairs, and `◇P` stores a symbolic mode.
///
/// # Example
///
/// ```
/// use spec::Val;
/// let w = Val::set([Val::Int(0), Val::Int(2)]);
/// assert!(w.as_set().unwrap().contains(&Val::Int(2)));
/// assert_eq!(format!("{w}"), "{0, 2}");
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Val {
    /// The unit/trivial value (e.g. `P`'s single internal state `v̄`).
    #[default]
    Unit,
    /// A boolean.
    Bool(bool),
    /// A (bounded, signed) integer.
    Int(i64),
    /// A static symbol, used for operation names and modes
    /// (e.g. `"read"`, `"ack"`, `"perfect"`).
    Sym(&'static str),
    /// An owned string, for dynamically generated labels.
    Str(String),
    /// A finite set.
    Set(BTreeSet<Val>),
    /// A finite sequence.
    Seq(Vec<Val>),
    /// A finite map.
    Map(BTreeMap<Val, Val>),
    /// An ordered pair.
    Pair(Box<Val>, Box<Val>),
}

impl Val {
    /// Builds a [`Val::Set`] from an iterator.
    pub fn set<I: IntoIterator<Item = Val>>(items: I) -> Val {
        Val::Set(items.into_iter().collect())
    }

    /// Builds a [`Val::Seq`] from an iterator.
    pub fn seq<I: IntoIterator<Item = Val>>(items: I) -> Val {
        Val::Seq(items.into_iter().collect())
    }

    /// Builds a [`Val::Map`] from key/value pairs.
    pub fn map<I: IntoIterator<Item = (Val, Val)>>(items: I) -> Val {
        Val::Map(items.into_iter().collect())
    }

    /// Builds a [`Val::Pair`].
    pub fn pair(a: Val, b: Val) -> Val {
        Val::Pair(Box::new(a), Box::new(b))
    }

    /// The empty set.
    pub fn empty_set() -> Val {
        Val::Set(BTreeSet::new())
    }

    /// The empty sequence.
    pub fn empty_seq() -> Val {
        Val::Seq(Vec::new())
    }

    /// Returns the integer payload, if this is a [`Val::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Val::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Returns the set payload, if this is a [`Val::Set`].
    pub fn as_set(&self) -> Option<&BTreeSet<Val>> {
        match self {
            Val::Set(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the sequence payload, if this is a [`Val::Seq`].
    pub fn as_seq(&self) -> Option<&Vec<Val>> {
        match self {
            Val::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the map payload, if this is a [`Val::Map`].
    pub fn as_map(&self) -> Option<&BTreeMap<Val, Val>> {
        match self {
            Val::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Returns the components, if this is a [`Val::Pair`].
    pub fn as_pair(&self) -> Option<(&Val, &Val)> {
        match self {
            Val::Pair(a, b) => Some((a, b)),
            _ => None,
        }
    }

    /// Returns the symbol, if this is a [`Val::Sym`].
    pub fn as_sym(&self) -> Option<&'static str> {
        match self {
            Val::Sym(s) => Some(s),
            _ => None,
        }
    }

    /// Returns a map entry (for record-structured state).
    pub fn field(&self, key: &Val) -> Option<&Val> {
        self.as_map().and_then(|m| m.get(key))
    }

    /// Returns a copy of this map with `key` set to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a [`Val::Map`] — record updates on
    /// non-records are always programming errors in this workspace.
    pub fn with_field(&self, key: Val, value: Val) -> Val {
        match self {
            Val::Map(m) => {
                let mut m = m.clone();
                m.insert(key, value);
                Val::Map(m)
            }
            other => panic!("with_field on non-map value {other:?}"),
        }
    }

    /// A structural size measure (number of constructors), useful for
    /// bounding state growth in property tests.
    pub fn size(&self) -> usize {
        match self {
            Val::Unit | Val::Bool(_) | Val::Int(_) | Val::Sym(_) | Val::Str(_) => 1,
            Val::Set(s) => 1 + s.iter().map(Val::size).sum::<usize>(),
            Val::Seq(s) => 1 + s.iter().map(Val::size).sum::<usize>(),
            Val::Map(m) => 1 + m.iter().map(|(k, v)| k.size() + v.size()).sum::<usize>(),
            Val::Pair(a, b) => 1 + a.size() + b.size(),
        }
    }
}

impl From<bool> for Val {
    fn from(b: bool) -> Self {
        Val::Bool(b)
    }
}

impl From<i64> for Val {
    fn from(n: i64) -> Self {
        Val::Int(n)
    }
}

impl From<&'static str> for Val {
    fn from(s: &'static str) -> Self {
        Val::Sym(s)
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Unit => write!(f, "()"),
            Val::Bool(b) => write!(f, "{b}"),
            Val::Int(n) => write!(f, "{n}"),
            Val::Sym(s) => write!(f, "{s}"),
            Val::Str(s) => write!(f, "{s:?}"),
            Val::Set(s) => {
                write!(f, "{{")?;
                for (idx, v) in s.iter().enumerate() {
                    if idx > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
            Val::Seq(s) => {
                write!(f, "[")?;
                for (idx, v) in s.iter().enumerate() {
                    if idx > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Val::Map(m) => {
                write!(f, "{{|")?;
                for (idx, (k, v)) in m.iter().enumerate() {
                    if idx > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k} -> {v}")?;
                }
                write!(f, "|}}")
            }
            Val::Pair(a, b) => write!(f, "({a}, {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ordering_is_total_across_variants() {
        let vals = [
            Val::Unit,
            Val::Bool(false),
            Val::Int(-1),
            Val::Sym("a"),
            Val::empty_set(),
            Val::empty_seq(),
        ];
        for a in &vals {
            for b in &vals {
                // Total order: exactly one of <, ==, > must hold.
                let lt = a < b;
                let eq = a == b;
                let gt = a > b;
                assert_eq!(
                    1,
                    usize::from(lt) + usize::from(eq) + usize::from(gt),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn equal_values_hash_equal() {
        let mut h = HashSet::new();
        h.insert(Val::set([Val::Int(1), Val::Int(2)]));
        assert!(h.contains(&Val::set([Val::Int(2), Val::Int(1)])));
    }

    #[test]
    fn with_field_updates_a_record() {
        let rec = Val::map([(Val::Sym("pc"), Val::Int(0))]);
        let rec2 = rec.with_field(Val::Sym("pc"), Val::Int(1));
        assert_eq!(rec.field(&Val::Sym("pc")), Some(&Val::Int(0)));
        assert_eq!(rec2.field(&Val::Sym("pc")), Some(&Val::Int(1)));
    }

    #[test]
    #[should_panic(expected = "with_field on non-map")]
    fn with_field_panics_on_non_map() {
        let _ = Val::Int(3).with_field(Val::Unit, Val::Unit);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(
            Val::pair(Val::Sym("write"), Val::Int(3)).to_string(),
            "(write, 3)"
        );
        assert_eq!(Val::seq([Val::Int(1), Val::Int(2)]).to_string(), "[1, 2]");
    }

    #[test]
    fn size_counts_constructors() {
        assert_eq!(Val::Unit.size(), 1);
        assert_eq!(Val::pair(Val::Int(0), Val::Int(1)).size(), 3);
        assert_eq!(Val::set([Val::Int(0), Val::Int(1)]).size(), 3);
    }

    #[test]
    fn conversions() {
        assert_eq!(Val::from(true), Val::Bool(true));
        assert_eq!(Val::from(4i64), Val::Int(4));
        assert_eq!(Val::from("x"), Val::Sym("x"));
        assert_eq!(Val::default(), Val::Unit);
    }
}

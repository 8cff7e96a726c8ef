//! Symmetry reduction primitives: permutations of a finite index set
//! and the exploration-wide symmetry-mode knob.
//!
//! The explorer itself is agnostic about *what* a canonical form is —
//! [`crate::automaton::Automaton::canonical`] is an automaton-supplied
//! pure function mapping a state to its orbit representative. This
//! module supplies the two shared ingredients every canonicalizing
//! automaton needs: a [`SymmetryMode`] that can be threaded through
//! options/CLIs/environments uniformly, and a small, dependency-free
//! [`Perm`] type (a permutation of `0..n`) with the algebra the
//! quotient constructions use — composition, inversion and bitmask
//! permutation. The group is never enumerated: the signature-sort
//! canonical form in `system::packed` (DESIGN §2.1.6) computes the one
//! permutation it needs per state.
//!
//! Determinism matters here: quotient graphs must stay bit-identical
//! across runs, so nothing in this module depends on hashing or
//! allocation order.

use std::env;
use std::sync::Once;

/// Environment variable read by [`SymmetryMode::from_env`].
pub const SYMMETRY_ENV: &str = "SYMMETRY";

/// Whether exploration quotients the state space by the automaton's
/// declared symmetry group.
///
/// `Full` asks every layer (explorer, packed system, valence map,
/// witness pipeline) to canonicalize successor states to orbit
/// representatives under process-id permutation (`S_n`); `Off` (the
/// default) explores the concrete space. Automata that declare no
/// symmetry treat `Full` as `Off`, so the quotient is always safe to
/// enable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SymmetryMode {
    /// Canonicalize every interned successor to its orbit
    /// representative under process-id permutation.
    Full,
    /// Explore the concrete (non-quotiented) state space.
    #[default]
    Off,
}

impl SymmetryMode {
    /// Reads the mode from the `SYMMETRY` environment variable: `full`
    /// (case-insensitive) enables the quotient; `off` or unset is
    /// [`SymmetryMode::Off`]. Any other non-empty value also means
    /// `Off`, and the first such read in a process says so in one line
    /// on stderr, so a stale setting never drops the quotient
    /// silently.
    pub fn from_env() -> SymmetryMode {
        match env::var(SYMMETRY_ENV) {
            Ok(v) if v.eq_ignore_ascii_case("full") => SymmetryMode::Full,
            Ok(v) if !v.is_empty() && !v.eq_ignore_ascii_case("off") => {
                static WARNED: Once = Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "warning: {SYMMETRY_ENV}={v:?} is not full|off; \
                         exploring with {SYMMETRY_ENV}=off"
                    );
                });
                SymmetryMode::Off
            }
            _ => SymmetryMode::Off,
        }
    }

    /// Whether the process-id quotient is enabled.
    pub fn reduces(self) -> bool {
        self == SymmetryMode::Full
    }

    /// This mode, unchanged. The process-id group is invisible to
    /// every observation the pipeline makes, so every pass may use the
    /// requested mode as is; the function remains as the identity for
    /// callers written against an earlier, value-relabeling group.
    #[must_use]
    pub fn value_blind(self) -> SymmetryMode {
        self
    }
}

/// A compact descriptor of the symmetry group a quotient graph was
/// built under: the process-id permutations of `0..n`. The
/// signature-sort canonical form (DESIGN §2.1.6) never enumerates the
/// group, so the descriptor is all downstream layers need.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SymGroup {
    /// The permuted index-set size `n` (the process count).
    pub n: usize,
}

/// A permutation `π` of `0..n`, stored in one-line notation:
/// `map[i] = π(i)`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Perm {
    map: Box<[u32]>,
}

impl Perm {
    /// The identity permutation of `0..n`.
    pub fn identity(n: usize) -> Perm {
        Perm {
            map: (0..n as u32).collect(),
        }
    }

    /// Builds a permutation from its one-line notation.
    ///
    /// # Panics
    ///
    /// Panics if `map` is not a permutation of `0..map.len()`.
    pub fn from_map<I: IntoIterator<Item = usize>>(map: I) -> Perm {
        let map: Box<[u32]> = map.into_iter().map(|i| i as u32).collect();
        let n = map.len();
        let mut seen = vec![false; n];
        for &j in map.iter() {
            assert!(
                (j as usize) < n && !seen[j as usize],
                "not a permutation of 0..{n}: {map:?}"
            );
            seen[j as usize] = true;
        }
        Perm { map }
    }

    /// The size `n` of the permuted index set.
    pub fn n(&self) -> usize {
        self.map.len()
    }

    /// `π(i)`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n`.
    pub fn apply(&self, i: usize) -> usize {
        self.map[i] as usize
    }

    /// Whether this is the identity permutation.
    pub fn is_identity(&self) -> bool {
        self.map.iter().enumerate().all(|(i, &j)| i as u32 == j)
    }

    /// The inverse permutation `π⁻¹`.
    pub fn inverse(&self) -> Perm {
        let mut inv = vec![0u32; self.map.len()];
        for (i, &j) in self.map.iter().enumerate() {
            inv[j as usize] = i as u32;
        }
        Perm { map: inv.into() }
    }

    /// The composition `self ∘ other`: first `other`, then `self`
    /// (`(self ∘ other)(i) = self(other(i))`).
    ///
    /// # Panics
    ///
    /// Panics if the two permutations have different sizes.
    pub fn compose(&self, other: &Perm) -> Perm {
        assert_eq!(
            self.n(),
            other.n(),
            "composing permutations of different sizes"
        );
        Perm {
            map: other.map.iter().map(|&j| self.map[j as usize]).collect(),
        }
    }

    /// Permutes a bitmask over `0..n`: bit `π(i)` of the result equals
    /// bit `i` of `mask`.
    ///
    /// Bits at positions `≥ n` must be zero (they would be dropped).
    pub fn permute_mask(&self, mask: u32) -> u32 {
        debug_assert_eq!(mask >> self.map.len().min(31), 0, "mask bits beyond n");
        let mut out = 0u32;
        let mut rest = mask;
        while rest != 0 {
            let i = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            out |= 1 << self.map[i];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_identity() {
        let id = Perm::identity(4);
        assert!(id.is_identity());
        for i in 0..4 {
            assert_eq!(id.apply(i), i);
        }
    }

    #[test]
    fn inverse_and_compose_round_trip() {
        // All six elements of S₃.
        let s3 = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for p in s3.map(Perm::from_map) {
            let inv = p.inverse();
            assert!(p.compose(&inv).is_identity());
            assert!(inv.compose(&p).is_identity());
        }
        // compose(a, b) applies b first.
        let a = Perm::from_map([1, 2, 0]);
        let b = Perm::from_map([0, 2, 1]);
        let ab = a.compose(&b);
        for i in 0..3 {
            assert_eq!(ab.apply(i), a.apply(b.apply(i)));
        }
    }

    #[test]
    fn mask_permutation_moves_bits() {
        let p = Perm::from_map([2, 0, 1]);
        // bit 0 -> bit 2, bit 1 -> bit 0.
        assert_eq!(p.permute_mask(0b011), 0b101);
        assert_eq!(p.permute_mask(0), 0);
        // Permuting a mask by π then π⁻¹ is the identity.
        for mask in 0..8u32 {
            assert_eq!(p.inverse().permute_mask(p.permute_mask(mask)), mask);
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn from_map_rejects_non_permutations() {
        let _ = Perm::from_map([0, 0, 2]);
    }

    #[test]
    fn from_env_parses_full() {
        assert_eq!(SymmetryMode::default(), SymmetryMode::Off);
        assert!(SymmetryMode::Full.reduces());
        assert!(!SymmetryMode::Off.reduces());
        assert_eq!(SymmetryMode::Full.value_blind(), SymmetryMode::Full);
        assert_eq!(SymmetryMode::Off.value_blind(), SymmetryMode::Off);
    }
}

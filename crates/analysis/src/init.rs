//! Lemma 4: a bivalent initialization exists.
//!
//! The proof walks the monotone initializations `α_0, …, α_n` (where
//! `α_j` gives input 1 to the first `j` processes and 0 to the rest).
//! `α_0` is 0-valent and `α_n` is 1-valent by validity, so somewhere an
//! adjacent pair flips — and the flip point must be bivalent, because
//! the two initializations differ only in the input of one process,
//! which can be failed.
//!
//! [`find_bivalent_init`] performs that walk constructively: it
//! returns the first bivalent initialization together with its valence
//! map, or — if every initialization is univalent — the adjacent
//! 0-valent/1-valent pair, which is itself direct evidence that the
//! system violates `(f+1)`-resilient consensus (the Lemma 4 argument
//! turns such a pair into a contradiction by failing the process whose
//! input differs).
//!
//! The rules that turn root valences into an outcome live in one
//! place, [`Lemma4`]: the early-exit walk here and the witness
//! pipeline's single pass over every root (`crate::witness`) both
//! apply them.

use crate::valence::{Truncated, Valence, ValenceMap};
use ioa::canon::SymmetryMode;
use spec::ProcId;
use system::build::CompleteSystem;
use system::consensus::InputAssignment;
use system::packed::PackedSystem;
use system::process::ProcessAutomaton;
use system::sched::initialize;

/// The outcome of the Lemma 4 walk.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // the ValenceMap IS the payload of interest
pub enum InitOutcome<P: ProcessAutomaton> {
    /// A bivalent initialization `α_b` (with its explored valence map)
    /// — the launch pad for the hook construction.
    Bivalent {
        /// The input assignment of `α_b`.
        assignment: InputAssignment,
        /// The valence map rooted at `α_b`'s final state.
        map: ValenceMap<P>,
    },
    /// Every monotone initialization is univalent. The returned
    /// adjacent pair (0-valent `zero`, 1-valent `one`) differs only in
    /// the input of `differing`; Lemma 4's proof shows a system that
    /// tolerates even one failure cannot behave this way, so this
    /// outcome is per se an impossibility witness (materialized by
    /// [`crate::similarity::refute_adjacent_pair`]).
    AdjacentContradiction {
        /// The 0-valent initialization.
        zero: InputAssignment,
        /// The 1-valent initialization right after it.
        one: InputAssignment,
        /// The process whose input differs between the two.
        differing: ProcId,
    },
    /// Some initialization decided nothing in any failure-free
    /// extension — a direct failure-free termination violation.
    Undecided {
        /// The assignment with no reachable decision.
        assignment: InputAssignment,
    },
    /// A validity violation surfaced immediately: a unanimous
    /// initialization can reach the opposite decision.
    ValidityBroken {
        /// The offending unanimous assignment.
        assignment: InputAssignment,
        /// Its computed valence.
        valence: Valence,
    },
}

/// Lemma 4's verdict on the monotone initializations, by the number of
/// ones in the deciding assignment `α_ones`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Lemma4 {
    /// `α_ones` is bivalent.
    Bivalent(usize),
    /// `α_ones` reaches no decision.
    Undecided(usize),
    /// A unanimous end has the wrong valence: `α_0` is not 0-valent or
    /// `α_n` is not 1-valent.
    ValidityBroken(usize, Valence),
    /// Every root is univalent; `α_ones` is 0-valent and `α_{ones+1}`
    /// 1-valent.
    Adjacent(usize),
}

impl Lemma4 {
    /// Whether root `α_ones` of `n + 1` settles the walk on its own: it
    /// is bivalent, undecided, or a unanimous end of the wrong valence.
    /// The first such root in walk order decides the outcome.
    pub(crate) fn settled_by(n: usize, ones: usize, v: Valence) -> Option<Lemma4> {
        match v {
            Valence::Bivalent => Some(Lemma4::Bivalent(ones)),
            Valence::Undecided => Some(Lemma4::Undecided(ones)),
            v if (ones == 0 && v != Valence::Zero) || (ones == n && v != Valence::One) => {
                Some(Lemma4::ValidityBroken(ones, v))
            }
            _ => None,
        }
    }

    /// The verdict on the valences of `α_0, …, α_n`: the first root
    /// that settles the walk, else the adjacent 0-valent/1-valent flip.
    pub(crate) fn of(valences: &[Valence]) -> Lemma4 {
        let n = valences.len() - 1;
        valences
            .iter()
            .enumerate()
            .find_map(|(ones, &v)| Lemma4::settled_by(n, ones, v))
            .unwrap_or_else(|| {
                // All univalent with α_0 0-valent and α_n 1-valent, so
                // a flip exists.
                let flip = valences
                    .windows(2)
                    .position(|w| w[0] == Valence::Zero && w[1] == Valence::One)
                    .expect("α_0 is 0-valent and α_n is 1-valent, so a flip exists");
                Lemma4::Adjacent(flip)
            })
    }

    /// The outcome this verdict names, for `n` processes, with the
    /// bivalent root's map when there is one.
    ///
    /// # Panics
    ///
    /// Panics on [`Lemma4::Bivalent`] without a map.
    pub(crate) fn outcome<P: ProcessAutomaton>(
        self,
        n: usize,
        map: Option<ValenceMap<P>>,
    ) -> InitOutcome<P> {
        let assignment = |ones| InputAssignment::monotone(n, ones);
        match self {
            Lemma4::Bivalent(ones) => InitOutcome::Bivalent {
                assignment: assignment(ones),
                map: map.expect("a bivalent outcome carries its map"),
            },
            Lemma4::Undecided(ones) => InitOutcome::Undecided {
                assignment: assignment(ones),
            },
            Lemma4::ValidityBroken(ones, valence) => InitOutcome::ValidityBroken {
                assignment: assignment(ones),
                valence,
            },
            Lemma4::Adjacent(flip) => InitOutcome::AdjacentContradiction {
                zero: assignment(flip),
                one: assignment(flip + 1),
                // monotone(n, ones) and monotone(n, ones+1) differ at
                // index `ones`.
                differing: ProcId(flip),
            },
        }
    }
}

/// Walks `α_0, …, α_n` (Lemma 4) and classifies each initialization.
///
/// # Errors
///
/// Returns [`Truncated`] if some initialization's reachable space
/// exceeds `max_states`.
pub fn find_bivalent_init<P: ProcessAutomaton>(
    sys: &CompleteSystem<P>,
    max_states: usize,
) -> Result<InitOutcome<P>, Truncated> {
    find_bivalent_init_sym(sys, max_states, SymmetryMode::from_env())
}

/// [`find_bivalent_init`] with an explicit [`SymmetryMode`]
/// instead of the `SYMMETRY` environment default. Under
/// [`SymmetryMode::Full`] the valence maps are symmetry quotients;
/// the classification of each `α_j` is unchanged (valence is an
/// orbit invariant), and the returned map answers concrete-state
/// lookups by canonicalizing.
///
/// # Errors
///
/// Returns [`Truncated`] if some initialization's reachable space
/// exceeds `max_states`.
pub fn find_bivalent_init_sym<P: ProcessAutomaton>(
    sys: &CompleteSystem<P>,
    max_states: usize,
    symmetry: SymmetryMode,
) -> Result<InitOutcome<P>, Truncated> {
    let n = sys.process_count();
    // A symmetry claim the auditor rejects is not trusted: the walk
    // degrades to concrete exploration (with a warning) instead.
    let symmetry = crate::audit::effective_symmetry(sys, symmetry);
    // One shared packed system for the whole walk: the monotone
    // initializations reach heavily overlapping state spaces, so after
    // the α_0 sweep warms the component sub-arenas and the
    // transition-effect cache, the remaining n explorations run almost
    // entirely out of the cache.
    let packed = PackedSystem::with_symmetry(sys, symmetry);
    let mut valences: Vec<Valence> = Vec::with_capacity(n + 1);
    for ones in 0..=n {
        let root = initialize(sys, &InputAssignment::monotone(n, ones));
        let map = ValenceMap::build_in(sys, &packed, root.clone(), max_states, 1)?;
        let v = map.valence(&root);
        if let Some(settled) = Lemma4::settled_by(n, ones, v) {
            return Ok(settled.outcome(n, Some(map)));
        }
        valences.push(v);
    }
    Ok(Lemma4::of(&valences).outcome(n, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use services::atomic::CanonicalAtomicObject;
    use spec::seq::BinaryConsensus;
    use spec::SvcId;
    use std::sync::Arc;
    use system::process::direct::DirectConsensus;

    fn direct(n: usize, f: usize) -> CompleteSystem<DirectConsensus> {
        let endpoints: Vec<ProcId> = (0..n).map(ProcId).collect();
        let obj = CanonicalAtomicObject::new(Arc::new(BinaryConsensus), endpoints, f);
        CompleteSystem::new(DirectConsensus::new(SvcId(0)), n, vec![Arc::new(obj)])
    }

    #[test]
    fn direct_system_has_a_bivalent_initialization() {
        // The direct protocol's mixed initializations are bivalent:
        // whichever input reaches the object first wins.
        let sys = direct(2, 0);
        match find_bivalent_init(&sys, 100_000).unwrap() {
            InitOutcome::Bivalent { assignment, map } => {
                assert_eq!(assignment, InputAssignment::monotone(2, 1));
                assert!(map.state_count() > 1);
            }
            other => panic!("expected a bivalent init, got {other:?}"),
        }
    }

    #[test]
    fn three_process_system_also_bivalent() {
        let sys = direct(3, 1);
        match find_bivalent_init(&sys, 500_000).unwrap() {
            InitOutcome::Bivalent { assignment, .. } => {
                // The first mixed initialization α_1 is already bivalent.
                assert_eq!(assignment, InputAssignment::monotone(3, 1));
            }
            other => panic!("expected a bivalent init, got {other:?}"),
        }
    }

    #[test]
    fn truncation_propagates() {
        let sys = direct(2, 0);
        assert!(find_bivalent_init(&sys, 2).is_err());
    }
}

//! The top-level impossibility pipeline (Theorems 2, 9 and 10,
//! executed).
//!
//! Given a candidate system claiming to solve `(f+1)`-resilient binary
//! consensus over `f`-resilient services, [`find_witness`] reproduces
//! the proof of the matching theorem on that concrete candidate:
//!
//! 1. walk the monotone initializations `α_0, …, α_n` once: build each
//!    root's valence map, exhaustively model-check failure-free safety
//!    (agreement, validity) on it, and record the root's valence;
//! 2. apply Lemma 4's rules to those valences: the first bivalent
//!    initialization — or, if all are univalent, the adjacent flip pair
//!    its proof uses;
//! 3. run the Fig. 3 construction to a hook (Lemma 5) on the bivalent
//!    root's map, inside the walk while that map is alive;
//! 4. run the Lemma 8 case analysis to locate the j-/k-similar pair
//!    with opposite valences;
//! 5. execute the Lemma 6/7 failure argument on that pair, producing a
//!    concrete violating run.
//!
//! Exactly one [`ImpossibilityWitness`] comes out — a machine-checked
//! demonstration that *this* candidate does not solve
//! `(f+1)`-resilient consensus. The theorems say every candidate
//! yields one; the test-suites and benches run the pipeline across the
//! paper's three service classes.

use crate::hook::{find_hook, Hook, HookOutcome};
use crate::init::Lemma4;
use crate::prop;
use crate::similarity::{
    analyze_hook, refute_adjacent_pair, refute_similar_pair, HookSimilarity, Refutation,
};
use crate::valence::{Truncated, ValenceMap};
use ioa::automaton::Automaton;
use ioa::canon::SymmetryMode;
use spec::ProcId;
use system::build::{CompleteSystem, SystemState};
use system::consensus::{check_safety, InputAssignment, SafetyViolation};
use system::process::ProcessAutomaton;
use system::sched::initialize;

/// Search bounds for the pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bounds {
    /// Distinct states per valence map.
    pub max_states: usize,
    /// Fig. 3 construction iterations.
    pub max_hook_iterations: usize,
    /// Steps per refutation run.
    pub max_run_steps: usize,
    /// Ignored; exploration is sequential; removed with the next
    /// benchmark change.
    pub threads: usize,
    /// Symmetry reduction for the valence maps (see
    /// [`ioa::canon::SymmetryMode`]). Under [`SymmetryMode::Full`] on
    /// an id-symmetric candidate the maps are orbit quotients — same
    /// theorem verdicts, far fewer interned states — and every
    /// returned witness is still a concrete, replayable execution.
    /// Defaults to the `SYMMETRY` environment variable.
    pub symmetry: SymmetryMode,
}

impl Default for Bounds {
    fn default() -> Self {
        Bounds {
            max_states: 2_000_000,
            max_hook_iterations: 20_000,
            max_run_steps: 500_000,
            threads: 0,
            symmetry: SymmetryMode::from_env(),
        }
    }
}

impl Bounds {
    /// The same bounds with an explicit symmetry mode (overriding the
    /// `SYMMETRY` environment default).
    #[must_use]
    pub fn with_symmetry(mut self, symmetry: SymmetryMode) -> Self {
        self.symmetry = symmetry;
        self
    }
}

/// A machine-checked demonstration that the candidate system does not
/// solve `(f+1)`-resilient binary consensus.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // the hook/refutation payloads are the point
pub enum ImpossibilityWitness<P: ProcessAutomaton> {
    /// A failure-free reachable state already violates agreement or
    /// validity.
    Safety {
        /// The initialization that reaches the violation.
        assignment: InputAssignment,
        /// The violated condition.
        violation: SafetyViolation,
    },
    /// Some initialization decides nothing in any failure-free
    /// extension: failure-free termination is violated outright.
    FailureFreeNonTermination {
        /// The undeciding initialization.
        assignment: InputAssignment,
    },
    /// The full Theorem 2/9/10 argument: bivalent initialization →
    /// hook → similar pair with opposite valences → failing run.
    HookRefutation {
        /// The bivalent initialization (Lemma 4).
        assignment: InputAssignment,
        /// The hook (Lemma 5 / Fig. 2).
        hook: Hook<P>,
        /// Which similarity the Lemma 8 case analysis found.
        similarity: HookSimilarity,
        /// The Lemma 6/7 violation run.
        refutation: Refutation<P>,
    },
    /// All initializations were univalent; the Lemma 4 adjacent-pair
    /// argument produced the violation directly.
    AdjacentRefutation {
        /// The 0-valent initialization.
        zero: InputAssignment,
        /// The adjacent 1-valent initialization.
        one: InputAssignment,
        /// The process whose input differs.
        differing: ProcId,
        /// The Lemma 6-style violation run.
        refutation: Refutation<P>,
    },
    /// The Fig. 3 construction stayed bivalent past its bound — a fair
    /// bivalent region with no decision in sight.
    EndlessBivalence {
        /// The bivalent initialization.
        assignment: InputAssignment,
        /// Where the construction was abandoned.
        state: SystemState<P::State>,
    },
}

impl<P: ProcessAutomaton> ImpossibilityWitness<P> {
    /// A one-line summary of what was demonstrated.
    pub fn headline(&self) -> String {
        match self {
            ImpossibilityWitness::Safety { violation, .. } => {
                format!("failure-free safety violation: {violation}")
            }
            ImpossibilityWitness::FailureFreeNonTermination { assignment } => {
                format!("failure-free termination violation from initialization {assignment}")
            }
            ImpossibilityWitness::HookRefutation {
                hook, refutation, ..
            } => format!(
                "hook at tasks e={}, e'={}; {}",
                hook.e,
                hook.e_prime,
                refutation_headline(refutation)
            ),
            ImpossibilityWitness::AdjacentRefutation {
                differing,
                refutation,
                ..
            } => format!(
                "adjacent univalent initializations differing at {differing}; {}",
                refutation_headline(refutation)
            ),
            ImpossibilityWitness::EndlessBivalence { .. } => {
                "endless bivalence: fair undecided region".to_string()
            }
        }
    }
}

fn refutation_headline<P: ProcessAutomaton>(r: &Refutation<P>) -> String {
    match r {
        Refutation::TerminationViolation { side, failed, run } => format!(
            "failing {failed:?} starves side {side} forever ({} fair steps, no decision)",
            run.exec.len()
        ),
        Refutation::SameDecision {
            value, valences, ..
        } => format!(
            "both sides decide {value} although their valences are {valences:?} — \
             one side's failure-free valence is contradicted"
        ),
        Refutation::DivergentDecisions { v0, v1, .. } => {
            format!("sides diverged ({v0} vs {v1}) despite similarity")
        }
        Refutation::AlreadyDecided { survivor } => format!(
            "survivor {} had already decided {} on both sides, contradicting opposite valences",
            survivor.0, survivor.1
        ),
    }
}

/// Errors from [`find_witness`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WitnessError {
    /// A valence map exceeded the state budget.
    Truncated(Truncated),
    /// The pipeline could not classify the candidate within bounds.
    Inconclusive(String),
}

impl std::fmt::Display for WitnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WitnessError::Truncated(t) => write!(f, "{t}"),
            WitnessError::Inconclusive(s) => write!(f, "inconclusive: {s}"),
        }
    }
}

impl std::error::Error for WitnessError {}

impl From<Truncated> for WitnessError {
    fn from(t: Truncated) -> Self {
        WitnessError::Truncated(t)
    }
}

/// Scans every state of `map` for an agreement/validity violation.
///
/// Expressed as the invariant `always(safe)` over the explored graph
/// and evaluated by [`crate::prop`], whose `safe` atom reads the map's
/// packed decisions: the counterexample witness ends at the first
/// violating id in discovery order — exactly the state the legacy
/// linear id-scan returned — and `check_safety` on that one (decoded)
/// state re-derives the violation payload.
fn safety_scan<P: ProcessAutomaton>(
    sys: &CompleteSystem<P>,
    assignment: &InputAssignment,
    map: &ValenceMap<P>,
) -> Option<SafetyViolation> {
    let graph = prop::SystemGraph::new(sys, map);
    let invariant = prop::Prop::always(prop::atoms::safe(assignment.clone()));
    match prop::evaluate(&graph, &invariant).witness {
        Some(prop::Witness::Path(path)) => {
            let bad = *path.last().expect("counterexample paths are non-empty");
            check_safety(sys, map.resolve(bad), assignment)
        }
        _ => None,
    }
}

/// Runs the full pipeline against `sys`, which claims to solve
/// `(f+1)`-resilient binary consensus built from `f`-resilient
/// services.
///
/// # Errors
///
/// [`WitnessError::Truncated`] when a valence map blows the state
/// budget; [`WitnessError::Inconclusive`] when every stage completed
/// yet no violation was found — which, per the theorems, does not
/// happen for genuine `f`-resilient-services candidates (and indeed
/// the Section 4 k-set systems exercise exactly this path in the
/// ablation benches, via the k-safety variant that does *not* treat
/// k-agreement as a violation).
pub fn find_witness<P: ProcessAutomaton>(
    sys: &CompleteSystem<P>,
    f: usize,
    bounds: Bounds,
) -> Result<ImpossibilityWitness<P>, WitnessError> {
    let n = sys.process_count();

    // Stages 1–3: one walk over α_0, …, α_n. Each root's map is built
    // once, safety-scanned and asked for the root's valence, then
    // dropped before the next build, so at most one map is alive. The
    // root that settles Lemma 4, when it is bivalent, also runs the
    // hook search on its live map. A safety violation or a truncation
    // at any later root still wins over every Lemma 4 outcome.
    let mut valences = Vec::with_capacity(n + 1);
    let mut settled = None;
    let mut hook_outcome = None;
    for ones in 0..=n {
        let assignment = InputAssignment::monotone(n, ones);
        let map = ValenceMap::build_with_symmetry(
            sys,
            initialize(sys, &assignment),
            bounds.max_states,
            1,
            bounds.symmetry,
        )?;
        if let Some(violation) = safety_scan(sys, &assignment, &map) {
            return Ok(ImpossibilityWitness::Safety {
                assignment,
                violation,
            });
        }
        let v = map.valence_id(map.root_id());
        if settled.is_none() {
            settled = Lemma4::settled_by(n, ones, v);
            if settled == Some(Lemma4::Bivalent(ones)) {
                // Stage 3: Lemma 5 / Fig. 3.
                hook_outcome = Some(find_hook(sys, &map, bounds.max_hook_iterations));
            }
        }
        valences.push(v);
    }

    match settled.unwrap_or_else(|| Lemma4::of(&valences)) {
        Lemma4::Bivalent(ones) => {
            let assignment = InputAssignment::monotone(n, ones);
            match hook_outcome.expect("the bivalent root ran the hook search") {
                HookOutcome::Hook(hook) => {
                    // Stage 4: Lemma 8 case analysis.
                    let similarity = analyze_hook(sys, &hook);
                    let (x0, x1, kind) = match &similarity {
                        HookSimilarity::Direct(kind) => (hook.s0.clone(), hook.s1.clone(), *kind),
                        HookSimilarity::AfterEPrime(kind) => {
                            let (_, after) = sys
                                .succ_det(&hook.e_prime, &hook.s0)
                                .expect("e' applicable at s0 for this case");
                            (after, hook.s1.clone(), *kind)
                        }
                        HookSimilarity::Commute => {
                            return Err(WitnessError::Inconclusive(
                                "hook endpoints commute — impossible for opposite valences".into(),
                            ))
                        }
                        HookSimilarity::None => {
                            return Err(WitnessError::Inconclusive(
                                "no similarity between hook endpoints".into(),
                            ))
                        }
                    };
                    // Stage 5: Lemma 6/7, executed.
                    let refutation = refute_similar_pair(
                        sys,
                        &x0,
                        &x1,
                        kind,
                        (hook.v, hook.v.opposite()),
                        f,
                        bounds.max_run_steps,
                    );
                    Ok(ImpossibilityWitness::HookRefutation {
                        assignment,
                        hook,
                        similarity,
                        refutation,
                    })
                }
                HookOutcome::EndlessBivalence { state, .. } => {
                    Ok(ImpossibilityWitness::EndlessBivalence { assignment, state })
                }
                HookOutcome::UndecidedRegion { .. } => {
                    Ok(ImpossibilityWitness::FailureFreeNonTermination { assignment })
                }
            }
        }
        Lemma4::Adjacent(flip) => {
            let zero = InputAssignment::monotone(n, flip);
            let one = InputAssignment::monotone(n, flip + 1);
            let differing = ProcId(flip);
            let refutation =
                refute_adjacent_pair(sys, &zero, &one, differing, f, bounds.max_run_steps);
            Ok(ImpossibilityWitness::AdjacentRefutation {
                zero,
                one,
                differing,
                refutation,
            })
        }
        Lemma4::Undecided(ones) => Ok(ImpossibilityWitness::FailureFreeNonTermination {
            assignment: InputAssignment::monotone(n, ones),
        }),
        // A unanimous root of the wrong valence reaches a decision no
        // process proposed, which the clean safety scan of that same
        // map rules out.
        Lemma4::ValidityBroken(..) => Err(WitnessError::Inconclusive(
            "valence says validity broken but no state violates it".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::Refutation;
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
    fn theorem_2_witness_for_the_two_process_direct_system() {
        // The direct protocol over a 0-resilient consensus object
        // claims (implicitly) 1-resilient consensus; the pipeline must
        // refute it.
        let sys = direct(2, 0);
        let w = find_witness(&sys, 0, Bounds::default()).unwrap();
        match &w {
            ImpossibilityWitness::HookRefutation { refutation, .. } => {
                assert!(
                    matches!(refutation, Refutation::TerminationViolation { .. }),
                    "expected starvation, got {refutation:?}"
                );
            }
            other => panic!("expected a hook refutation, got {}", other.headline()),
        }
        assert!(w.headline().contains("hook"));
    }

    #[test]
    fn theorem_2_witness_for_three_processes_f1() {
        // 1-resilient object, three processes, claiming 2-resilient
        // consensus: same shape, one level up — the generalization
        // beyond FLP (which is the f = 0 row).
        let sys = direct(3, 1);
        let w = find_witness(&sys, 1, Bounds::default()).unwrap();
        match &w {
            ImpossibilityWitness::HookRefutation { refutation, .. } => match refutation {
                Refutation::TerminationViolation { failed, .. } => {
                    assert_eq!(failed.len(), 2, "f + 1 = 2 processes must fail");
                }
                other => panic!("expected starvation, got {other:?}"),
            },
            other => panic!("expected a hook refutation, got {}", other.headline()),
        }
    }
}

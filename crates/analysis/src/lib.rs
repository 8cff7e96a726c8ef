//! Executable proof machinery for the boosting impossibility theorems.
//!
//! The paper's Theorems 2, 9 and 10 are impossibility results: no
//! system of `f`-resilient services solves `(f+1)`-resilient consensus.
//! An impossibility theorem cannot be "run", but its *proof structure*
//! can — every object the proof asserts to exist can be constructed for
//! a concrete finite candidate system, and every contradiction the
//! proof derives materializes as a machine-checked counterexample
//! against that candidate. This crate implements that pipeline:
//!
//! * [`valence`] — the 0-valent / 1-valent / bivalent classification of
//!   finite failure-free input-first executions (Section 3.2), decided
//!   exhaustively over the reachable graph `G(C)` (Section 3.3);
//! * [`init`] — Lemma 4: a bivalent initialization, found by walking
//!   the monotone initializations `α_0 … α_n`;
//! * [`hook`] — Lemma 5 and Fig. 3: the round-robin path construction
//!   that ends in a *hook* (Fig. 2), or diverges into endless
//!   bivalence;
//! * [`similarity`] — the j-similarity / k-similarity relations of
//!   Sections 3.5 and 6.3, the Lemma 8 case analysis on a concrete
//!   hook, and the Lemma 6/7 *refutation extractor* that turns a hook
//!   into an actual failing run (fail `f+1` processes, silence the
//!   services, watch termination die);
//! * [`witness`] — the top-level pipeline assembling the above into an
//!   [`witness::ImpossibilityWitness`];
//! * [`resilience`] — the positive direction: exhaustive/randomized
//!   certification that a system *does* solve `f`-resilient
//!   (k-set-)consensus, used for the paper's Section 4 and Section 6.3
//!   boosting constructions;
//! * [`audit`] — the component-local static contract analyzer behind
//!   `repro audit`: verifies the soundness preconditions every
//!   optimization layer trusts (task partition, per-task determinism,
//!   symmetry honesty, effect purity) without global state-space
//!   exploration, and degrades quotient exploration to
//!   `SYMMETRY=off` when a substrate's symmetry claim fails the audit.
//!
//! # Example
//!
//! ```
//! use analysis::valence::{ValenceMap, Valence};
//! use system::consensus::InputAssignment;
//! use system::process::direct::DirectConsensus;
//! use system::build::CompleteSystem;
//! use system::sched::initialize;
//! use services::atomic::CanonicalAtomicObject;
//! use spec::seq::BinaryConsensus;
//! use spec::{ProcId, SvcId};
//! use std::sync::Arc;
//!
//! let obj = CanonicalAtomicObject::new(Arc::new(BinaryConsensus), [ProcId(0), ProcId(1)], 0);
//! let sys = CompleteSystem::new(DirectConsensus::new(SvcId(0)), 2, vec![Arc::new(obj)]);
//! let s = initialize(&sys, &InputAssignment::monotone(2, 1));
//! let map = ValenceMap::build(&sys, s.clone(), 100_000).unwrap();
//! // Different schedules let either input win: the initialization is bivalent.
//! assert_eq!(map.valence(&s), Valence::Bivalent);
//! ```

// The whole workspace is `unsafe`-free by policy; enforce it statically
// so a future unsafe block needs an explicit, reviewed opt-out here.
#![forbid(unsafe_code)]

pub mod audit;
pub mod graph;
pub mod hook;
pub mod init;
pub mod prop;
pub mod replay;
pub mod resilience;
pub mod similarity;
pub mod valence;
pub mod witness;

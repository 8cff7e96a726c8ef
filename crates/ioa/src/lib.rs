//! A task-structured I/O automata kernel (Lynch–Tuttle model, as used in
//! paper Section 2.1.1).
//!
//! The paper's entire framework is phrased in the I/O automaton model:
//! state machines whose transitions are labeled with input, output or
//! internal actions, whose locally controlled actions are partitioned
//! into *tasks*, and whose fair executions give every task infinitely
//! many turns. This crate provides that model in executable form:
//!
//! * [`automaton::Automaton`] — the central trait: task-indexed
//!   successor functions with both the fully nondeterministic view
//!   (`succ_all`) and the determinized view (`succ_det`) required by the
//!   paper's Section 3.1 determinism assumptions.
//! * [`execution`] — executions, steps and traces (Section 2.1.1),
//!   including extension and concatenation of execution fragments.
//! * [`explore`] — the one breadth-first explorer: it interns the
//!   reachable states and materializes the graph of task-generated
//!   transitions, with BFS-tree shortest paths to every state; this is
//!   what makes valence ("does any extension decide 0?") decidable for
//!   the finite systems the `analysis` crate studies.
//! * [`fixpoint`] — bit-lane backward fixpoints (union / universal)
//!   over reverse-CSR adjacency: the shared engine behind the valence
//!   map's decided sets and the property evaluator's `eventually`
//!   analysis in the `analysis` crate.
//! * [`fairness`] — fair-execution checking and the deterministic
//!   round-robin scheduler, whose infinite runs are fair by
//!   construction and whose finite-state lassos witness fair
//!   nontermination.
//! * [`refine`] — finite-trace inclusion ("A implements B",
//!   Section 2.1.1, clause 2) via on-the-fly subset construction.
//! * [`store`] — the dense state-interning arena ([`store::StateStore`],
//!   [`store::StateId`]) the exploration layer runs on: each distinct
//!   state is hashed once and thereafter handled as a `u32` id. The
//!   generic sub-arena ([`store::Interner`], [`store::CompId`]) plays
//!   the same role for the *components* of a composed state, with the
//!   component hash cached at intern time.
//! * [`canon`] — symmetry-reduction primitives: the [`canon::Perm`]
//!   permutation algebra and the [`canon::SymmetryMode`] knob threaded
//!   through [`explore::ExploreOptions`]; the explorer canonicalizes
//!   successors via [`automaton::Automaton::canonical`] so equal-orbit
//!   states intern to one id.
//! * [`rng`] — in-tree deterministic SplitMix64 randomness for seeded
//!   schedule drivers; keeps the build hermetic (no `rand` dependency).
//!
//! # Example
//!
//! ```
//! use ioa::automaton::{ActionKind, Automaton};
//! use ioa::toy::Channel;
//! use ioa::explore::ExploredGraph;
//!
//! let ch = Channel::new(&[1, 2]);
//! let g = ExploredGraph::explore(&ch, ch.initial_states(), 100);
//! assert!(!g.stats().truncated());
//! # let _ = ActionKind::Input;
//! ```

// The whole workspace is `unsafe`-free by policy; enforce it statically
// so a future unsafe block needs an explicit, reviewed opt-out here.
#![forbid(unsafe_code)]

pub mod automaton;
pub mod canon;
pub mod csr;
pub mod execution;
pub mod explore;
pub mod fairness;
pub mod fixpoint;
pub mod refine;
pub mod rng;
pub mod store;
pub mod toy;

pub use automaton::{ActionKind, Automaton, CacheStats};
pub use canon::{Perm, SymGroup, SymmetryMode};
pub use csr::Csr;
pub use execution::{Execution, Step};
pub use store::{CompId, Interner, StateId, StateStore};

//! Specification layer for the resilience-boosting reproduction.
//!
//! This crate holds the *mathematical vocabulary* of the paper
//! "The Impossibility of Boosting Distributed Service Resilience"
//! (Attie, Guerraoui, Kuznetsov, Lynch, Rajsbaum; Information and
//! Computation 209 (2011) 927–950):
//!
//! * [`value::Val`] — a universal, totally ordered, hashable value algebra.
//!   Every piece of service state, every invocation and every response in
//!   the workspace is a `Val`, which makes whole system states `Eq + Hash +
//!   Ord` and therefore explorable by the model-checking machinery.
//! * [`seq_type::SeqType`] — *sequential types* `⟨V, V0, invs, resps, δ⟩`
//!   (paper Section 2.1.2), with the read/write, binary consensus and
//!   k-set-consensus examples from the paper plus further standard types
//!   (test&set, compare&swap, fetch&add, FIFO queue).
//! * [`service_type`] — *failure-oblivious service types*
//!   `⟨V, V0, invs, resps, glob, δ1, δ2⟩` (Section 5.1) and *general
//!   (failure-aware) service types* (Section 6.1), together with the
//!   paper's embeddings: every sequential type induces a failure-oblivious
//!   type, and every failure-oblivious type induces a general type.
//! * [`tob`] — the totally ordered broadcast service type (Figs. 5–7).
//! * [`fd`] — the perfect failure detector `P` (Fig. 9) and the eventually
//!   perfect failure detector `◇P` (Figs. 10–11) as general service types.
//!
//! # Example
//!
//! ```
//! use spec::seq_type::SeqType;
//! use spec::seq::BinaryConsensus;
//!
//! let t = BinaryConsensus;
//! // The first init() fixes the value; later operations return it.
//! let (resp, v1) = t.delta_det(&BinaryConsensus::init(1), &t.initial_value());
//! assert_eq!(resp, BinaryConsensus::decide(1));
//! let (resp, _) = t.delta_det(&BinaryConsensus::init(0), &v1);
//! assert_eq!(resp, BinaryConsensus::decide(1));
//! ```

// The whole workspace is `unsafe`-free by policy; enforce it statically
// so a future unsafe block needs an explicit, reviewed opt-out here.
#![forbid(unsafe_code)]

pub mod channel;
pub mod fd;
pub mod ids;
pub mod seq;
pub mod seq_type;
pub mod service_type;
pub mod tob;
pub mod value;

pub use ids::{GlobalTaskId, ProcId, SvcId};
pub use seq_type::{Inv, Resp, SeqType};
pub use value::Val;

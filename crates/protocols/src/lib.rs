//! Protocols: the paper's positive boosting constructions and the
//! doomed candidates its theorems refute.
//!
//! * [`set_boost`] — Section 4: wait-free `k`-set-consensus for `n`
//!   processes from `g = k/k'` wait-free `k'`-consensus services on
//!   disjoint endpoint groups. Boosting *is* possible below consensus.
//! * [`fd_boost`] — Section 6.3: consensus for any number of failures
//!   from 1-resilient 2-process perfect failure detectors (arbitrary
//!   connection pattern) plus wait-free registers, via a rotating
//!   coordinator.
//! * [`doomed`] — candidates that claim `(f+1)`-resilient consensus
//!   over `f`-resilient services, one per service class: they are fed
//!   to `analysis::witness::find_witness`, which reproduces the
//!   matching theorem's proof on them:
//!   - [`doomed::doomed_atomic`] / [`doomed::doomed_atomic_with_registers`]
//!     — Theorem 2 (atomic objects + registers);
//!   - [`doomed::doomed_oblivious`] — Theorem 9 (totally ordered
//!     broadcast, a failure-oblivious service);
//!   - [`doomed::doomed_general`] — Theorem 10 (an all-connected
//!     failure-aware perfect failure detector).
//!
//! # Example
//!
//! ```
//! use protocols::set_boost::{SetBoostParams, build};
//! // Wait-free 4-process 2-set consensus from two wait-free
//! // 2-process consensus services (the paper's concrete instance
//! // with n = 4).
//! let sys = build(SetBoostParams { n: 4, k: 2, k_prime: 1 });
//! assert_eq!(sys.services().len(), 2);
//! ```

// The whole workspace is `unsafe`-free by policy; enforce it statically
// so a future unsafe block needs an explicit, reviewed opt-out here.
#![forbid(unsafe_code)]

pub mod broken;
pub mod derived_fd;
pub mod doomed;
pub mod fd_boost;
pub mod message_passing;
pub mod set_boost;
pub mod snapshot;
pub mod tas_consensus;
pub mod universal;

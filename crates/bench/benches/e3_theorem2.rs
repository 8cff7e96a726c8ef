//! E3 — Theorem 2: the full impossibility pipeline on atomic-object
//! candidates.
//!
//! Regenerates: one `ImpossibilityWitness` per candidate — safety
//! model-check, Lemma 4, Lemma 5/Fig. 3, Lemma 8, Lemmas 6/7 — for the
//! direct protocol (with and without registers).
//!
//! Expected shape: every candidate is refuted; each refutation fails
//! exactly `f + 1` processes and starves a survivor.
//!
//! The `n=7,f=5` row is the whole pipeline at the repository
//! benchmark's `thm2-atomic-quotient` scale, with every bound pinned
//! the way the benchmark pins it (one exploration thread, the `Full`
//! quotient, an explicit state budget).

use analysis::witness::{find_witness, Bounds};
use bench_suite::bench_scales;
use bench_suite::harness::Group;
use ioa::SymmetryMode;
use protocols::doomed::{doomed_atomic, doomed_atomic_with_registers};
use std::hint::black_box;

/// The bounds the `thm2-atomic-quotient` benchmark workload runs
/// `find_witness` with.
const PINNED: Bounds = Bounds {
    max_states: 2_000_000,
    max_hook_iterations: 20_000,
    max_run_steps: 500_000,
    threads: 1,
    symmetry: SymmetryMode::Full,
};

fn main() {
    let mut group = Group::new("e3_theorem2");
    for (label, sys, f) in bench_scales() {
        let w = find_witness(&sys, f, Bounds::default()).unwrap();
        eprintln!("[E3] {label}: {}", w.headline());
        group.bench(label, || {
            black_box(find_witness(&sys, f, Bounds::default()).unwrap())
        });
    }
    // The register-augmented candidate (the theorem's full statement).
    let sys = doomed_atomic_with_registers(2, 0);
    let w = find_witness(&sys, 0, Bounds::default()).unwrap();
    eprintln!("[E3] n=2,f=0+registers: {}", w.headline());
    group.bench("n=2,f=0+registers", || {
        black_box(find_witness(&sys, 0, Bounds::default()).unwrap())
    });

    let sys = doomed_atomic(7, 5);
    let w = find_witness(&sys, 5, PINNED).unwrap();
    eprintln!("[E3] n=7,f=5: {}", w.headline());
    group.bench("n=7,f=5", || {
        black_box(find_witness(&sys, 5, PINNED).unwrap())
    });
    group.finish();
}

//! E6 — Theorem 10: the impossibility pipeline over all-connected
//! failure-aware services (the perfect failure detector of Fig. 9).
//!
//! Regenerates: the witness for the rotating-coordinator candidate over
//! one all-connected `f`-resilient detector, plus ablation A2: the
//! Section 6.3 pairwise topology survives the identical adversary.
//!
//! Expected shape: the all-connected candidate is refuted through the
//! Lemma 4 adjacent-pair argument (its failure-free behaviour is
//! coordinator-deterministic, so no bivalent initialization exists);
//! the pairwise control decides.
//!
//! The `n=4,f=2` row is the whole pipeline at the repository
//! benchmark's `thm10-fd` scale, with every bound pinned the way the
//! benchmark pins it (one exploration thread, `Full` requested, an
//! explicit state budget). The `valence_build` row isolates one of the
//! n + 1 valence maps that pipeline builds: α_2's map, built and
//! dropped, annotated with its interned states and arena bytes.

use analysis::valence::ValenceMap;
use analysis::witness::{find_witness, Bounds};
use bench_suite::harness::Group;
use ioa::SymmetryMode;
use protocols::{doomed::doomed_general, fd_boost};
use spec::ProcId;
use std::hint::black_box;
use system::consensus::InputAssignment;
use system::sched::{initialize, run_fair, BranchPolicy, FairOutcome};

/// The bounds the `thm10-fd` benchmark workload runs `find_witness`
/// with.
const PINNED: Bounds = Bounds {
    max_states: 2_000_000,
    max_hook_iterations: 20_000,
    max_run_steps: 500_000,
    threads: 1,
    symmetry: SymmetryMode::Full,
};

fn main() {
    let mut group = Group::new("e6_theorem10");
    for (label, n, f) in [("n=2,f=0", 2usize, 0usize), ("n=3,f=1", 3, 1)] {
        let sys = doomed_general(n, f);
        let w = find_witness(&sys, f, Bounds::default()).unwrap();
        eprintln!("[E6] {label}: {}", w.headline());
        group.bench(label, || {
            black_box(find_witness(&sys, f, Bounds::default()).unwrap())
        });
    }

    let sys = doomed_general(4, 2);
    let w = find_witness(&sys, 2, PINNED).unwrap();
    eprintln!("[E6] n=4,f=2: {}", w.headline());
    group.bench("n=4,f=2", || {
        black_box(find_witness(&sys, 2, PINNED).unwrap())
    });
    let root = initialize(&sys, &InputAssignment::monotone(4, 2));
    let build = || {
        ValenceMap::build_with_symmetry(&sys, root.clone(), PINNED.max_states, 1, PINNED.symmetry)
            .unwrap()
    };
    let (states, bytes) = build().footprint();
    // The closure returns the map, so the harness times its drop too.
    group.bench("valence_build", build);
    group.annotate_memory(Some(states), Some(bytes));

    // Ablation A2: the pairwise topology under the same adversary.
    let boosted = fd_boost::build(2);
    let a = InputAssignment::monotone(2, 1);
    let run = run_fair(
        &boosted,
        initialize(&boosted, &a),
        BranchPolicy::PreferDummy,
        &[(0, ProcId(0))],
        200_000,
        |st| boosted.decision(st, ProcId(1)).is_some(),
    );
    eprintln!(
        "[E6/A2] pairwise topology, same adversary: {:?} (survivor decided: {})",
        run.outcome,
        matches!(run.outcome, FairOutcome::Stopped)
    );
    group.bench("ablation_pairwise_survives", || {
        let run = run_fair(
            &boosted,
            initialize(&boosted, &a),
            BranchPolicy::PreferDummy,
            &[(0, ProcId(0))],
            200_000,
            |st| boosted.decision(st, ProcId(1)).is_some(),
        );
        black_box(run)
    });
    group.finish();
}

//! E20 — pruned canonicalization.
//!
//! Regenerates: the `ValenceMap` build cost of the doomed-atomic
//! substrate under the signature-sort canonicalizer (DESIGN §2.1.6),
//! which replaced E17's all-permutations orbit probe. Two variants per
//! scale:
//!
//! * `full` — symmetry off, the exact reachable graph (reference);
//! * `quotient` — the `S_n` orbit quotient, canonicalized by one stable
//!   sort over full local-view signatures instead of an `n!`-sweep
//!   over every permutation.
//!
//! The headline scale is `n = 5, f = 3`: 120 permutations per interned
//! state under the old probe, a five-element sort under the new one —
//! the sweep the pruned canonicalizer exists to unlock. It runs inside
//! the default bench budget, no `BENCH_FULL` gate. Every row is
//! annotated with interned-state and arena-byte footprints, so the
//! JSON carries the memory reduction alongside the wall-clock. The
//! recorded `+fastpath` quotient rows in `BENCH_explore.json`
//! (739,609 ns at n=3, 4,887,811 ns at n=4) are the baselines the
//! pruned rows are compared against.

use analysis::valence::ValenceMap;
use bench_suite::harness::Group;
use ioa::SymmetryMode;
use protocols::doomed::doomed_atomic;
use std::hint::black_box;
use system::consensus::InputAssignment;
use system::sched::initialize;

/// Recorded `+fastpath` quotient median at `n = 4` (BENCH_explore.json,
/// PR 7) — the regression floor: the pruned canonicalizer must never
/// fall back to probe-era wall-clock. Only `n = 4` is gated: the
/// measured pruned median sits 3.11× under this floor, so even CI's
/// single-sample `bench-smoke` run clears it by a wide margin, while a
/// reintroduced permutation probe (24 rebuilds per successor here, 120
/// at the ungated n = 5) lands well above it. At `n = 3` the probe
/// penalty (6 permutations) is inside single-sample noise, so that row
/// stays informational — the recorded 10-sample medians in
/// BENCH_explore.json carry the 1.37× comparison.
const FASTPATH_QUOTIENT_BASELINE_N4_NS: u128 = 4_887_811;

fn main() {
    let mut group = Group::new("e20_pruned_canon");
    for (n, f) in [(3usize, 1usize), (4, 2), (5, 3)] {
        let sys = doomed_atomic(n, f);
        let root = initialize(&sys, &InputAssignment::monotone(n, 1));
        for (variant, mode) in [
            ("full", SymmetryMode::Off),
            ("quotient", SymmetryMode::Full),
        ] {
            let probe = ValenceMap::build_with_symmetry(&sys, root.clone(), 5_000_000, 1, mode)
                .expect("doomed-atomic scales fit the default budget");
            let (states, arena_bytes) = probe.footprint();
            drop(probe);
            group.bench(&format!("{variant}_n={n},f={f}"), || {
                let map = ValenceMap::build_with_symmetry(&sys, root.clone(), 5_000_000, 1, mode)
                    .expect("doomed-atomic scales fit the default budget");
                assert_eq!(map.state_count() as u64, states, "state count drifted");
                black_box(map.state_count())
            });
            group.annotate_last(Some(states), None);
            group.annotate_memory(Some(states), Some(arena_bytes));
            eprintln!(
                "[E20] {variant} n={n},f={f}: {states} interned states, {arena_bytes} arena bytes"
            );
        }
    }
    let results = group.finish();
    let m = results
        .iter()
        .find(|m| m.label == "quotient_n=4,f=2")
        .expect("quotient n=4 scale was benched");
    assert!(
        m.min_ns() < FASTPATH_QUOTIENT_BASELINE_N4_NS,
        "pruned quotient regression at n=4: fastest sample {} ns >= probe-era baseline {FASTPATH_QUOTIENT_BASELINE_N4_NS} ns",
        m.min_ns()
    );
}

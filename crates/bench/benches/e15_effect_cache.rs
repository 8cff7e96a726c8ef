//! E15 (extension) — transition-effect memoization.
//!
//! Regenerates: the cost of the full reachable sweep of `G(C)` over
//! the packed representation with the transition-effect cache (DESIGN
//! §2.1.3) in three regimes:
//!
//! * `nocache_*` — `PackedSystem::new_uncached`, the PR 3 packed
//!   baseline: every expansion re-evaluates `succ_effects` and
//!   re-interns its components;
//! * `cold_*` — a fresh cached `PackedSystem` per run, so every run
//!   pays the one-time table population alongside the sweep;
//! * `warm_*` — one shared cached `PackedSystem` across all runs
//!   (exactly how the Lemma 4 walk reuses it): after the untimed
//!   warm-up populates the tables, a timed expansion is a table
//!   lookup plus an id-splice.
//!
//! Every row is annotated with `states_per_sec`; the cached rows also
//! carry the observed `hit_rate`. The three regimes must produce
//! identical `ExploreStats` (asserted) — the cache is a pure
//! memoization layer, invisible in the graph.

use bench_suite::bench_scales;
use bench_suite::harness::Group;
use ioa::explore::{ExploreOptions, ExploredGraph};
use ioa::Automaton;
use std::hint::black_box;
use system::consensus::InputAssignment;
use system::packed::PackedSystem;
use system::sched::initialize;

fn main() {
    let mut group = Group::new("e15_effect_cache");
    let opts = ExploreOptions {
        skip_self_loops: true,
        ..ExploreOptions::with_budget(5_000_000)
    };
    for (label, sys, _f) in bench_scales() {
        let n = sys.process_count();
        let root = initialize(&sys, &InputAssignment::monotone(n, 1));

        // Reference run: sizes, and the stats every regime must match.
        let reference = PackedSystem::new_uncached(&sys);
        let base = ExploredGraph::explore_with(&reference, vec![reference.encode(&root)], opts);
        let states = base.len() as u64;

        group.bench(&format!("nocache_{label}"), || {
            let packed = PackedSystem::new_uncached(&sys);
            let proot = packed.encode(&root);
            let g = ExploredGraph::explore_with(&packed, vec![proot], opts);
            assert_eq!(g.stats(), base.stats(), "{label}: uncached sweep diverged");
            black_box(g.len())
        });
        group.annotate_last(Some(states), None);

        group.bench(&format!("cold_{label}"), || {
            let packed = PackedSystem::new(&sys);
            let proot = packed.encode(&root);
            let g = ExploredGraph::explore_with(&packed, vec![proot], opts);
            assert_eq!(g.stats(), base.stats(), "{label}: cold sweep diverged");
            black_box(g.len())
        });
        group.annotate_last(Some(states), None);

        // Warm regime: the shared system's tables survive across runs,
        // so after the warm-up iterations every sampled sweep runs at
        // the steady-state hit rate. Two warm-ups make the first
        // sample independent of table-growth reallocation noise.
        let shared = PackedSystem::new(&sys);
        let shared_root = shared.encode(&root);
        // `None` = the timed window saw no cache lookups at all (the
        // warm-up absorbed them): no data, not a 0% rate — it must
        // reach the JSON as `null`, not fail the floor below.
        let mut last_rate: Option<f64> = None;
        group.warmup(2);
        group.bench(&format!("warm_{label}"), || {
            let before = shared.cache_stats().expect("cache enabled");
            let g = ExploredGraph::explore_with(&shared, vec![shared_root.clone()], opts);
            assert_eq!(g.stats(), base.stats(), "{label}: warm sweep diverged");
            let delta = shared.cache_stats().expect("cache enabled").since(&before);
            last_rate = (delta.lookups() > 0).then(|| delta.hit_rate());
            black_box(g.len())
        });
        group.annotate_last(Some(states), last_rate);
        group.warmup(1);
        match last_rate {
            Some(rate) => {
                eprintln!("[E15] {label}: {states} states, warm hit rate {rate:.4}");
                assert!(
                    rate >= 0.9,
                    "{label}: warm hit rate {rate:.4} below the 0.9 floor"
                );
            }
            None => {
                eprintln!("[E15] {label}: {states} states, no cache lookups in the timed window")
            }
        }
    }
    group.finish();
}

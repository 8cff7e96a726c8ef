//! E14 (extension) — component-interned system states.
//!
//! Regenerates: the cost of the full reachable sweep of `G(C)` under
//! the two state representations — the deep representation
//! (`SystemState`, one tree clone per successor) and the packed one
//! (`PackedSystem`, a flat vector of component ids with each component
//! interned once; DESIGN §2.1.2). Three rows per scale point:
//!
//! * `explore_deep_*` — the pre-PR baseline, exploring
//!   `CompleteSystem` directly;
//! * `explore_packed_*` — the packed sweep alone;
//! * `explore_packed_decode_*` — packed sweep plus decoding every
//!   state back to `SystemState`, which is exactly what
//!   `ValenceMap::build` now does — the honest end-to-end comparison.
//!
//! Alongside wall-clock medians the bench prints a deep-clone census
//! from the thread-local counters (`system::build::clones`,
//! `services::state::clones`), and asserts both representations
//! produce identical exploration stats.

use bench_suite::bench_scales;
use bench_suite::harness::Group;
use ioa::explore::{ExploreOptions, ExploredGraph};
use std::hint::black_box;
use system::consensus::InputAssignment;
use system::packed::PackedSystem;
use system::sched::initialize;

fn main() {
    let mut group = Group::new("e14_component_interning");
    let opts = ExploreOptions {
        skip_self_loops: true,
        ..ExploreOptions::with_budget(5_000_000)
    };
    for (label, sys, _f) in bench_scales() {
        let n = sys.process_count();
        let root = initialize(&sys, &InputAssignment::monotone(n, 1));

        // Clone census (single-threaded exploration, so the
        // thread-local counters see every clone).
        system::build::clones::reset();
        services::state::clones::reset();
        let deep = ExploredGraph::explore_with(&sys, vec![root.clone()], opts);
        let deep_clones = (
            system::build::clones::count(),
            services::state::clones::count(),
        );
        system::build::clones::reset();
        services::state::clones::reset();
        let packed = PackedSystem::new(&sys);
        let pk = ExploredGraph::explore_with(&packed, vec![packed.encode(&root)], opts);
        let packed_clones = (
            system::build::clones::count(),
            services::state::clones::count(),
        );
        assert_eq!(deep.stats(), pk.stats(), "{label}: packed sweep diverged");
        eprintln!(
            "[E14] {label}: {} states, {} edges; deep clones = {} system / {} service; \
             packed clones = {} system / {} service ({} proc + {} svc components interned)",
            deep.len(),
            deep.stats().edges,
            deep_clones.0,
            deep_clones.1,
            packed_clones.0,
            packed_clones.1,
            packed.proc_components(),
            packed.svc_components(),
        );

        group.bench(&format!("explore_deep_{label}"), || {
            black_box(ExploredGraph::explore_with(&sys, vec![root.clone()], opts))
        });
        group.bench(&format!("explore_packed_{label}"), || {
            let packed = PackedSystem::new(&sys);
            let root = packed.encode(&root);
            black_box(ExploredGraph::explore_with(&packed, vec![root], opts))
        });
        group.bench(&format!("explore_packed_decode_{label}"), || {
            let packed = PackedSystem::new(&sys);
            let proot = packed.encode(&root);
            let graph = ExploredGraph::explore_with(&packed, vec![proot], opts);
            let decoded: Vec<_> = graph
                .store()
                .states()
                .iter()
                .map(|ps| packed.decode(ps))
                .collect();
            black_box((graph, decoded))
        });
    }
    group.finish();
}

//! Cache-effectiveness regression gate for the transition-effect
//! memoization layer (DESIGN §2.1.3).
//!
//! The contract: a [`PackedSystem`]'s effect cache is keyed on interned
//! component ids, so re-sweeping the same reachable space must serve
//! almost every expansion straight from the tables. If the warm-sweep
//! hit rate regresses below the floor, the cache has stopped covering
//! the transition structure (a key got too coarse, an entry stopped
//! being stored, or an invalidation crept in) and the memoization layer
//! is no longer buying anything.

use ioa::automaton::{Automaton, CacheStats};
use services::atomic::CanonicalAtomicObject;
use spec::seq::BinaryConsensus;
use spec::{ProcId, SvcId};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use system::consensus::InputAssignment;
use system::packed::{PackedState, PackedSystem};
use system::process::direct::DirectConsensus;
use system::sched::initialize;
use system::CompleteSystem;

/// The n = 3 doomed-atomic substrate (replicated from `protocols`,
/// which this crate cannot depend on).
fn direct(n: usize, f: usize) -> CompleteSystem<DirectConsensus> {
    let endpoints: Vec<ProcId> = (0..n).map(ProcId).collect();
    let obj = CanonicalAtomicObject::new(Arc::new(BinaryConsensus), endpoints, f);
    CompleteSystem::new(DirectConsensus::new(SvcId(0)), n, vec![Arc::new(obj)])
}

/// One full BFS sweep of the packed reachable space, expanding every
/// task at every state (the same work an exploration performs).
fn sweep(sys: &CompleteSystem<DirectConsensus>, packed: &PackedSystem<'_, DirectConsensus>) {
    let root = packed.encode(&initialize(sys, &InputAssignment::monotone(3, 1)));
    let tasks = sys.tasks();
    let mut seen: HashSet<PackedState> = HashSet::new();
    let mut queue = VecDeque::from([root]);
    while let Some(ps) = queue.pop_front() {
        if !seen.insert(ps.clone()) {
            continue;
        }
        for t in &tasks {
            for (_, ps2) in packed.succ_all(t, &ps) {
                if !seen.contains(&ps2) {
                    queue.push_back(ps2);
                }
            }
        }
    }
    assert!(seen.len() > 100, "walked a nontrivial space");
}

#[test]
fn warm_sweep_hit_rate_stays_above_the_floor() {
    let sys = direct(3, 1);
    let packed = PackedSystem::new(&sys);
    assert!(packed.cached(), "PackedSystem::new enables the cache");

    // Cold sweep: populates the tables. Even here most lookups hit,
    // because distinct system states share component states.
    sweep(&sys, &packed);
    let cold = packed.cache_stats().expect("cache enabled");
    assert!(cold.lookups() > 0, "the sweep consulted the cache");
    assert!(cold.misses > 0, "a cold cache must miss at least once");

    // Warm sweep over the identical space: every (component id, task)
    // pair was already computed, so the expansions are pure table
    // lookups. The 0.9 floor is deliberately below the observed ~1.0
    // to keep the gate robust, mirroring the clone-count gate.
    sweep(&sys, &packed);
    let warm = packed.cache_stats().expect("cache enabled").since(&cold);
    assert!(
        warm.hit_rate() >= 0.9,
        "warm sweep hit rate {:.4} fell below the 0.9 floor \
         ({} hits / {} lookups)",
        warm.hit_rate(),
        warm.hits,
        warm.lookups()
    );
}

#[test]
fn cached_expansions_never_deep_clone_after_warmup() {
    // On a hit, a successor is spliced together from interned ids:
    // no SystemState clone, no service-component clone. Only misses
    // pay the (at most one) component clone the clone-count gate
    // allows.
    let sys = direct(3, 1);
    let packed = PackedSystem::new(&sys);
    sweep(&sys, &packed); // warm every table
    let before = packed.cache_stats().expect("cache enabled");

    let root = packed.encode(&initialize(&sys, &InputAssignment::monotone(3, 1)));
    let tasks = sys.tasks();
    services::state::clones::reset();
    system::build::clones::reset();
    for t in &tasks {
        let _ = packed.succ_all(t, &root);
    }
    assert_eq!(
        system::build::clones::count(),
        0,
        "a warm expansion deep-cloned a whole SystemState"
    );
    assert_eq!(
        services::state::clones::count(),
        0,
        "a warm expansion cloned a service component"
    );
    let after = packed.cache_stats().expect("cache enabled").since(&before);
    assert_eq!(after.misses, 0, "the root's tasks were all warmed");
    assert!(after.hits > 0);

    // The whole-state expansion the explorer makes, with and without
    // self-loops: the same guarantees, and one hit per task. Each
    // successor comes with the index of its task in `tasks`.
    for skip_self_loops in [false, true] {
        let mut out = Vec::new();
        let mut stats = CacheStats::default();
        packed.expand(&tasks, &root, skip_self_loops, &mut out, &mut stats);
        assert!(!out.is_empty());
        assert_eq!(
            system::build::clones::count(),
            0,
            "a warm whole-state expansion deep-cloned a whole SystemState"
        );
        assert_eq!(
            services::state::clones::count(),
            0,
            "a warm whole-state expansion cloned a service component"
        );
        assert_eq!(
            stats,
            CacheStats {
                hits: tasks.len() as u64,
                misses: 0
            },
            "the root's tasks were all warmed"
        );
        for (k, ps2) in &out {
            assert!(
                packed
                    .succ_all(&tasks[*k as usize], &root)
                    .iter()
                    .any(|(_, s2)| s2 == ps2),
                "an expanded successor is one of its task's successors"
            );
        }
    }
}

#[test]
fn uncached_packed_system_reports_no_stats() {
    let sys = direct(3, 1);
    let packed = PackedSystem::new_uncached(&sys);
    assert!(!packed.cached());
    assert_eq!(packed.cache_stats(), None);
}

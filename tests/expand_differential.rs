//! Differential suite — the packed system's whole-state cached
//! expansion against the uncached per-task reference.
//!
//! `PackedSystem::expand` serves every task of a state from borrowed
//! effect-cache entries under one read guard, recognizes stutters by
//! component-id equality without building them, and fills a missing
//! entry before retrying its task. On every state of every monotone
//! root's map (plus a root with a crashed process, whose steps are
//! stutters), for each doomed substrate, it must produce exactly what
//! the default per-task loop over `PackedSystem::new_uncached`'s
//! `succ_all` produces — same task indices, same successors in the
//! same order — on a cold system and again warm, with self-loop
//! skipping on and off, and it must count one cache hit or miss per
//! task into its sink. `expand` builds no actions, so the actions are
//! checked on the cached system's `succ_all`, which must equal the
//! uncached one's, actions included, on every state.

use ioa::automaton::CacheStats;
use ioa::explore::{ExploreOptions, ExploredGraph};
use ioa::{Automaton, SymmetryMode};
use protocols::doomed::{
    doomed_atomic, doomed_atomic_with_registers, doomed_general, doomed_mixed, doomed_oblivious,
};
use spec::ProcId;
use system::build::{CompleteSystem, SystemState};
use system::consensus::InputAssignment;
use system::packed::{PackedState, PackedSystem};
use system::process::ProcessAutomaton;
use system::sched::initialize;
use system::{Action, Task};

const MAX_STATES: usize = 1_000_000;

/// Calls `visit` on every state of every monotone root's map —
/// explored exactly as `ValenceMap::build_with_symmetry` explores it —
/// and of a root with `P1` crashed, decoded; one map at a time.
fn for_each_map_state<P: ProcessAutomaton>(
    sys: &CompleteSystem<P>,
    mode: SymmetryMode,
    mut visit: impl FnMut(&SystemState<P::State>),
) {
    let n = sys.process_count();
    let mut roots: Vec<_> = (0..=n)
        .map(|ones| initialize(sys, &InputAssignment::monotone(n, ones)))
        .collect();
    let one = initialize(sys, &InputAssignment::monotone(n, 1));
    roots.push(sys.fail(&one, ProcId(1)));
    for root in roots {
        let packed = PackedSystem::with_symmetry(sys, mode);
        let opts = ExploreOptions {
            skip_self_loops: true,
            ..ExploreOptions::with_budget(MAX_STATES).with_symmetry(packed.symmetry_mode())
        };
        let g = ExploredGraph::explore_with(&packed, vec![packed.encode(&root)], opts);
        assert!(!g.stats().truncated());
        for ps in g.store().states() {
            visit(&packed.decode(ps));
        }
    }
}

/// The reference: the default per-task loop over the uncached
/// system's `succ_all`, decoded — `None` marks a self-loop, whose
/// successor is the expanded state itself.
fn reference<P: ProcessAutomaton>(
    uncached: &PackedSystem<'_, P>,
    tasks: &[Task],
    s: &SystemState<P::State>,
) -> Vec<Reference<P>> {
    let ps = uncached.encode(s);
    let mut out = Vec::new();
    for t in tasks {
        for (a, s2) in uncached.succ_all(t, &ps) {
            let s2 = (s2 != ps).then(|| uncached.decode(&s2));
            out.push((t.clone(), a, s2));
        }
    }
    out
}

/// One reference transition; a `None` successor is a self-loop.
type Reference<P> = (
    Task,
    Action,
    Option<SystemState<<P as ProcessAutomaton>::State>>,
);

/// One transition in a packed system's encoding, flagged when it is a
/// self-loop; `None` is a successor with no packed form there.
type Expected = (Task, Action, Option<PackedState>, bool);

/// The reference in `packed`'s encoding, `ps` standing for the
/// expanded state. Successors are looked up without interning, so one
/// that `expand` never built has no packed form and mismatches.
fn expected<P: ProcessAutomaton>(
    packed: &PackedSystem<'_, P>,
    ps: &PackedState,
    reference: &[Reference<P>],
) -> Vec<Expected> {
    let decoder = packed.decoder();
    reference
        .iter()
        .map(|(t, a, s2)| match s2 {
            None => (t.clone(), a.clone(), Some(ps.clone()), true),
            Some(s2) => (t.clone(), a.clone(), decoder.lookup(s2), false),
        })
        .collect()
}

/// `packed.expand` of `ps` and the sink it filled, after checking
/// that the sink and the cumulative counters both saw one hit or miss
/// per task.
fn expand<P: ProcessAutomaton>(
    ctx: &str,
    packed: &PackedSystem<'_, P>,
    tasks: &[Task],
    ps: &PackedState,
    skip_self_loops: bool,
) -> (Vec<(u32, PackedState)>, CacheStats) {
    let before = packed.cache_stats().expect("cached");
    let mut out = Vec::new();
    let mut stats = CacheStats::default();
    packed.expand(tasks, ps, skip_self_loops, &mut out, &mut stats);
    assert_eq!(stats.lookups(), tasks.len() as u64, "{ctx}: one per task");
    let cumulative = packed.cache_stats().expect("cached").since(&before);
    assert_eq!(cumulative, stats, "{ctx}: sink and counters agree");
    (out, stats)
}

/// `out` is `expected` minus, under `skip_self_loops`, its self-loops,
/// each task named by its index in `tasks`.
fn assert_matches(
    ctx: &str,
    tasks: &[Task],
    out: &[(u32, PackedState)],
    expected: &[Expected],
    skip_self_loops: bool,
) {
    let kept = expected
        .iter()
        .filter(|(.., self_loop)| !(skip_self_loops && *self_loop));
    assert_eq!(out.len(), kept.clone().count(), "{ctx}: transition count");
    for ((k, s2), (et, _, es2, _)) in out.iter().zip(kept) {
        assert_eq!((&tasks[*k as usize], Some(s2)), (et, es2.as_ref()), "{ctx}");
    }
}

/// `packed.succ_all`, task by task, is `expected`, actions included.
fn assert_succ_all_matches<P: ProcessAutomaton>(
    ctx: &str,
    packed: &PackedSystem<'_, P>,
    tasks: &[Task],
    ps: &PackedState,
    expected: &[Expected],
) {
    let all: Vec<(&Task, Action, PackedState)> = tasks
        .iter()
        .flat_map(|t| {
            packed
                .succ_all(t, ps)
                .into_iter()
                .map(move |(a, s2)| (t, a, s2))
        })
        .collect();
    assert_eq!(all.len(), expected.len(), "{ctx}: succ_all count");
    for ((t, a, s2), (et, ea, es2, _)) in all.iter().zip(expected) {
        assert_eq!((*t, a, Some(s2)), (et, ea, es2.as_ref()), "{ctx}: succ_all");
    }
}

/// Checks every map state of `sys` under `mode`; returns how many
/// states were checked.
fn check_substrate<P: ProcessAutomaton>(
    name: &str,
    sys: &CompleteSystem<P>,
    mode: SymmetryMode,
) -> usize {
    let tasks = sys.tasks();
    let uncached = PackedSystem::new_uncached(sys);
    // Cold at the start. Each state is expanded twice, with skipping
    // off then on for even states and the other way round for odd
    // ones, so each setting meets states on a table that has not seen
    // them and again warm.
    let packed = PackedSystem::with_symmetry(sys, mode);
    let mut k = 0;
    for_each_map_state(sys, mode, |s| {
        let ctx = format!("{name} {mode:?} state {k}");
        let first = k % 2 == 1;
        let ps = packed.encode(s);
        // The first round interns every successor it builds, so the
        // lookups after it find each one.
        let (out, _) = expand(&ctx, &packed, &tasks, &ps, first);
        let expected = expected(&packed, &ps, &reference(&uncached, &tasks, s));
        assert_matches(&ctx, &tasks, &out, &expected, first);
        let (out, warm) = expand(&ctx, &packed, &tasks, &ps, !first);
        assert_matches(&ctx, &tasks, &out, &expected, !first);
        assert_eq!(warm.misses, 0, "{ctx}: warm");
        assert_succ_all_matches(&ctx, &packed, &tasks, &ps, &expected);
        k += 1;
    });
    k
}

#[test]
fn atomic_expansion_matches_the_uncached_reference_without_and_with_symmetry() {
    let sys = doomed_atomic(3, 1);
    let off = check_substrate("atomic", &sys, SymmetryMode::Off);
    let full = check_substrate("atomic", &sys, SymmetryMode::Full);
    assert!(
        full < off,
        "the quotient maps are smaller ({full} vs {off})"
    );
}

#[test]
fn registers_expansion_matches_the_uncached_reference() {
    let sys = doomed_atomic_with_registers(3, 1);
    assert!(check_substrate("registers", &sys, SymmetryMode::Off) > 0);
}

#[test]
fn oblivious_expansion_matches_the_uncached_reference() {
    let sys = doomed_oblivious(3, 1);
    assert!(check_substrate("oblivious", &sys, SymmetryMode::Off) > 0);
}

#[test]
fn mixed_expansion_matches_the_uncached_reference() {
    let sys = doomed_mixed(3, 1);
    assert!(check_substrate("mixed", &sys, SymmetryMode::Off) > 0);
}

#[test]
fn general_expansion_matches_the_uncached_reference() {
    let sys = doomed_general(3, 1);
    assert!(check_substrate("general", &sys, SymmetryMode::Off) > 0);
}

#[test]
fn uncached_expand_is_the_per_task_loop() {
    // The uncached system expands task by task through `succ_all`:
    // the reference's output, and no cache to count into the sink.
    let sys = doomed_atomic(3, 1);
    let tasks = sys.tasks();
    let uncached = PackedSystem::new_uncached(&sys);
    for_each_map_state(&sys, SymmetryMode::Off, |s| {
        let ps = uncached.encode(s);
        let expected = expected(&uncached, &ps, &reference(&uncached, &tasks, s));
        for skip in [false, true] {
            let mut out = Vec::new();
            let mut stats = CacheStats::default();
            uncached.expand(&tasks, &ps, skip, &mut out, &mut stats);
            assert_matches("uncached", &tasks, &out, &expected, skip);
            assert_eq!(stats, CacheStats::default());
        }
    });
}

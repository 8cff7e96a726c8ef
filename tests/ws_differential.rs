//! Differential suite — work-stealing frontier vs the sequential
//! explorer (DESIGN §2.1.5).
//!
//! The work-stealing explorer gives up layer-synchronous determinism
//! *during* the run but promises two things afterwards:
//!
//! * **Complete explorations renumber to the exact sequential graph.**
//!   Every admitted state's successor row is a pure function of the
//!   automaton, so re-walking the buffered rows in sequential BFS
//!   order reassigns the sequential ids, edges and parents — the
//!   result is bit-identical, not merely isomorphic (the isomorphism
//!   oracle of `analysis::iso` is still run, as the independent
//!   check).
//! * **Truncated explorations are sound.** Exactly `max_states`
//!   states are admitted (the budget CAS is globally exact), every
//!   admitted state and retained edge exists in the true reachable
//!   graph, and the parent tree stays internally consistent. *Which*
//!   states fill the budget is scheduling-dependent, so only weak
//!   soundness is pinned, never bit identity.
//!
//! Both contracts are checked across doomed-atomic, totally-ordered-
//! broadcast and failure-detector substrates, at 2/4/8 workers, with
//! and without the orbit quotient, and through the `ValenceMap`
//! analysis layer.

use analysis::iso::{graph_iso, valence_map_iso};
use analysis::valence::ValenceMap;
use analysis::witness::{find_witness, Bounds};
use ioa::explore::{ExploreOptions, ExploredGraph, Truncation};
use ioa::{Automaton, FrontierMode, SymmetryMode};
use protocols::doomed::{doomed_atomic, doomed_oblivious};
use protocols::fd_boost;
use system::build::CompleteSystem;
use system::consensus::InputAssignment;
use system::packed::{PackedState, PackedSystem};
use system::process::ProcessAutomaton;
use system::sched::initialize;

fn opts(
    max_states: usize,
    threads: usize,
    symmetry: SymmetryMode,
    frontier: FrontierMode,
) -> ExploreOptions {
    ExploreOptions {
        max_states,
        skip_self_loops: true,
        threads,
        symmetry,
        frontier,
    }
}

/// Full structural equality through the public graph API: ids, state
/// values, roots, edge rows, parent steps and (comparable) stats.
fn assert_bit_identical<A: Automaton>(a: &ExploredGraph<A>, b: &ExploredGraph<A>, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: state count");
    assert_eq!(a.roots(), b.roots(), "{ctx}: roots");
    assert_eq!(a.stats(), b.stats(), "{ctx}: stats");
    for id in a.ids() {
        assert_eq!(a.resolve(id), b.resolve(id), "{ctx}: state {id:?}");
        assert_eq!(a.successors(id), b.successors(id), "{ctx}: row {id:?}");
        assert_eq!(
            a.discovered_by(id),
            b.discovered_by(id),
            "{ctx}: parent {id:?}"
        );
    }
}

/// Sequential reference + work-stealing runs over a shared packed
/// system (shared sub-arenas keep packed component ids comparable).
fn seq_and_ws<P: ProcessAutomaton>(
    sys: &CompleteSystem<P>,
    ones: usize,
    symmetry: SymmetryMode,
) -> (
    PackedSystem<'_, P>,
    PackedState,
    ExploredGraph<PackedSystem<'_, P>>,
) {
    let n = sys.process_count();
    let root = initialize(sys, &InputAssignment::monotone(n, ones));
    let packed = PackedSystem::with_symmetry(sys, symmetry);
    let proot = packed.encode(&root);
    let seq = ExploredGraph::explore_with(
        &packed,
        vec![proot.clone()],
        opts(1_000_000, 1, packed.symmetry_mode(), FrontierMode::Layered),
    );
    assert!(!seq.stats().truncated(), "reference must be complete");
    (packed, proot, seq)
}

fn check_complete<P: ProcessAutomaton>(sys: &CompleteSystem<P>, ones: usize, name: &str) {
    let (packed, proot, seq) = seq_and_ws(sys, ones, SymmetryMode::Off);
    for threads in [2, 4, 8] {
        let ws = ExploredGraph::explore_with(
            &packed,
            vec![proot.clone()],
            opts(
                1_000_000,
                threads,
                packed.symmetry_mode(),
                FrontierMode::WorkSteal,
            ),
        );
        let ctx = format!("{name} threads={threads}");
        let m = graph_iso(&seq, &ws).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        // The pinned bijection must come out as the identity — complete
        // work-stealing runs renumber to the sequential graph exactly.
        for id in seq.ids() {
            assert_eq!(m.map(id), id, "{ctx}: non-identity image for {id:?}");
        }
        assert_bit_identical(&seq, &ws, &ctx);
    }
}

#[test]
fn complete_graphs_match_on_the_atomic_substrate() {
    check_complete(&doomed_atomic(2, 0), 1, "doomed_atomic(2,0)");
    check_complete(&doomed_atomic(3, 1), 1, "doomed_atomic(3,1)");
}

#[test]
fn complete_graphs_match_on_the_broadcast_substrate() {
    check_complete(&doomed_oblivious(2, 1), 1, "doomed_oblivious(2,1)");
}

#[test]
fn complete_graphs_match_on_the_failure_detector_substrate() {
    check_complete(&fd_boost::build(2), 1, "fd_boost(2)");
}

#[test]
fn complete_quotient_graphs_match_under_full_symmetry() {
    let sys = doomed_atomic(3, 1);
    let (packed, proot, seq) = seq_and_ws(&sys, 1, SymmetryMode::Full);
    assert!(
        packed.symmetry_mode().reduces(),
        "atomic substrate must pass the symmetry gate"
    );
    for threads in [2, 4, 8] {
        let ws = ExploredGraph::explore_with(
            &packed,
            vec![proot.clone()],
            opts(
                1_000_000,
                threads,
                packed.symmetry_mode(),
                FrontierMode::WorkSteal,
            ),
        );
        let ctx = format!("quotient threads={threads}");
        graph_iso(&seq, &ws).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_bit_identical(&seq, &ws, &ctx);
    }
}

#[test]
fn truncated_explorations_are_weakly_sound() {
    let sys = doomed_atomic(3, 1);
    let (packed, proot, seq) = seq_and_ws(&sys, 1, SymmetryMode::Off);
    let total = seq.len();
    for budget in [1 + total / 7, 1 + total / 3] {
        for threads in [2, 4, 8] {
            let ws = ExploredGraph::explore_with(
                &packed,
                vec![proot.clone()],
                opts(
                    budget,
                    threads,
                    packed.symmetry_mode(),
                    FrontierMode::WorkSteal,
                ),
            );
            let ctx = format!("budget={budget} threads={threads}");
            // The CAS budget is globally exact: exactly `budget`
            // states admitted, and the truncation census says so.
            assert_eq!(ws.len(), budget, "{ctx}: admitted count");
            assert!(
                matches!(
                    ws.stats().truncation,
                    Truncation::StateBudget { budget: b, .. } if b == budget
                ),
                "{ctx}: truncation census {:?}",
                ws.stats().truncation
            );
            for id in ws.ids() {
                // Every admitted state is genuinely reachable…
                let sid = seq
                    .id_of(ws.resolve(id))
                    .unwrap_or_else(|| panic!("{ctx}: state {id:?} not reachable"));
                // …and every retained edge is an edge of the true
                // graph (matched through state values, since ids are
                // scheduling-dependent under truncation).
                for (t, a, dst) in ws.successors(id) {
                    assert!(
                        seq.successors(sid).iter().any(|(t2, a2, d2)| {
                            t2 == t && a2 == a && seq.resolve(*d2) == ws.resolve(*dst)
                        }),
                        "{ctx}: edge out of {id:?} not in the reference graph"
                    );
                }
                // Parent steps stay internally consistent: the
                // discovering edge was retained.
                if let Some((pred, t, a)) = ws.discovered_by(id) {
                    assert!(
                        ws.successors(*pred)
                            .iter()
                            .any(|(t2, a2, d2)| t2 == t && a2 == a && *d2 == id),
                        "{ctx}: parent step of {id:?} not among its predecessor's edges"
                    );
                } else {
                    assert_eq!(ws.roots(), [id], "{ctx}: only the root lacks a parent");
                }
            }
        }
    }
}

#[test]
fn valence_maps_agree_under_work_stealing() {
    for (sys, ones, name) in [
        (doomed_atomic(2, 0), 1, "doomed_atomic(2,0)"),
        (doomed_atomic(3, 1), 1, "doomed_atomic(3,1)"),
    ] {
        let n = sys.process_count();
        let root = initialize(&sys, &InputAssignment::monotone(n, ones));
        let packed = PackedSystem::with_symmetry(&sys, SymmetryMode::Off);
        let seq = ValenceMap::build_in_with(
            &sys,
            &packed,
            root.clone(),
            1_000_000,
            1,
            FrontierMode::Layered,
        )
        .expect("reference map fits the budget");
        for threads in [2, 4, 8] {
            let ws = ValenceMap::build_in_with(
                &sys,
                &packed,
                root.clone(),
                1_000_000,
                threads,
                FrontierMode::WorkSteal,
            )
            .expect("work-stealing map fits the budget");
            valence_map_iso(&seq, &ws).unwrap_or_else(|e| panic!("{name} threads={threads}: {e}"));
        }
    }
}

/// A synthetic 4-ary tree automaton big enough (160k edges) to push
/// the CSR finalization over its parallel-scatter threshold (the
/// system substrates above stay in the inline-scatter regime), so the
/// range-split scatter path is pinned against the sequential oracle
/// too.
struct TreeAut;

impl Automaton for TreeAut {
    type State = u64;
    type Action = u8;
    type Task = u8;

    fn initial_states(&self) -> Vec<u64> {
        vec![0]
    }

    fn tasks(&self) -> Vec<u8> {
        vec![0, 1, 2, 3]
    }

    fn succ_all(&self, t: &u8, s: &u64) -> Vec<(u8, u64)> {
        // 40_000 internal nodes x 4 tasks = 160_000 edges, every child
        // distinct, so the graph is a tree of 160_001 states.
        if *s < 40_000 {
            vec![(*t, s * 4 + u64::from(*t) + 1)]
        } else {
            Vec::new()
        }
    }

    fn apply_input(&self, _s: &u64, _a: &u8) -> Option<u64> {
        None
    }

    fn kind(&self, _a: &u8) -> ioa::ActionKind {
        ioa::ActionKind::Internal
    }
}

#[test]
fn parallel_csr_scatter_matches_on_a_large_graph() {
    let seq = ExploredGraph::explore_with(
        &TreeAut,
        vec![0],
        opts(1_000_000, 1, SymmetryMode::Off, FrontierMode::Layered),
    );
    assert_eq!(
        seq.stats().edges,
        160_000,
        "sized to cross the scatter threshold"
    );
    for threads in [2, 8] {
        let ws = ExploredGraph::explore_with(
            &TreeAut,
            vec![0],
            opts(
                1_000_000,
                threads,
                SymmetryMode::Off,
                FrontierMode::WorkSteal,
            ),
        );
        let ctx = format!("tree threads={threads}");
        let m = graph_iso(&seq, &ws).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        for id in seq.ids() {
            assert_eq!(m.map(id), id, "{ctx}: non-identity image for {id:?}");
        }
        assert_bit_identical(&seq, &ws, &ctx);
    }
}

/// End-to-end theorem verdict parity: the full witness pipeline run
/// with every exploration routed through the work-stealing frontier
/// (via the process-global env knob, which `FrontierMode::Auto`
/// consults) must produce the same witness as the layered run. Safe to
/// toggle the env here: every other test in this binary pins its
/// frontier explicitly and never consults `Auto`.
#[test]
fn theorem_verdict_is_unchanged_under_work_stealing() {
    let sys = doomed_atomic(2, 0);
    let bounds = Bounds::default()
        .with_threads(4)
        .with_symmetry(SymmetryMode::Off);
    std::env::set_var(ioa::explore::FRONTIER_ENV, "ws");
    let ws = find_witness(&sys, 0, bounds);
    std::env::set_var(ioa::explore::FRONTIER_ENV, "layered");
    let layered = find_witness(&sys, 0, bounds);
    std::env::remove_var(ioa::explore::FRONTIER_ENV);
    let (ws, layered) = (ws.expect("ws pipeline"), layered.expect("layered pipeline"));
    assert_eq!(
        std::mem::discriminant(&ws),
        std::mem::discriminant(&layered),
        "witness kinds differ: {ws:?} vs {layered:?}"
    );
}

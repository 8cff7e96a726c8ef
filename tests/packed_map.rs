//! Differential suite — the packed valence map's id-level reads against
//! the decoded states they stand for.
//!
//! `ValenceMap` answers decisions, failures, safety and reachable
//! decisions straight from its packed component ids and decodes a state
//! only when `resolve` asks for it. Every such read must agree with the
//! deep semantics (`CompleteSystem::decision`, `check_safety`, a
//! fixpoint recomputed over decoded states) on every id of every
//! monotone root's map, for every doomed substrate, with and without
//! the symmetry quotient. The decode gates at the end pin the other
//! half of the contract: a witness-style pass (build, `always(safe)`
//! scan, root valence) and the hook search on the bivalent root's map
//! decode nothing but the root.

use analysis::hook::{find_hook, HookOutcome};
use analysis::init::{find_bivalent_init_sym, InitOutcome};
use analysis::prop::{atoms, evaluate, Prop, SystemGraph, Verdict};
use analysis::valence::ValenceMap;
use ioa::store::StateId;
use ioa::{Automaton, SymmetryMode};
use protocols::doomed::{
    doomed_atomic, doomed_atomic_with_registers, doomed_general, doomed_mixed, doomed_oblivious,
};
use spec::{ProcId, Val};
use std::collections::{BTreeSet, HashMap};
use system::build::{CompleteSystem, SystemState};
use system::consensus::{check_safety, InputAssignment};
use system::packed::{canonical_system_state, PackedSystem};
use system::process::ProcessAutomaton;
use system::sched::initialize;

const MAX_STATES: usize = 1_000_000;

/// Reachable decisions recomputed from decoded states only: each
/// state's own `decided_values`, closed backward over the map's edges
/// by a predecessor worklist.
fn reference_reach<P: ProcessAutomaton>(
    sys: &CompleteSystem<P>,
    map: &ValenceMap<P>,
) -> Vec<BTreeSet<Val>> {
    let mut reach: Vec<BTreeSet<Val>> = map
        .ids()
        .map(|id| sys.decided_values(map.resolve(id)))
        .collect();
    let mut work: Vec<StateId> = map.ids().collect();
    while let Some(id) = work.pop() {
        let add = reach[id.index()].clone();
        for &p in map.predecessors(id) {
            let before = reach[p.index()].len();
            reach[p.index()].extend(add.iter().cloned());
            if reach[p.index()].len() > before {
                work.push(p);
            }
        }
    }
    reach
}

/// Every id-level read of `map` against the decoded state, under the
/// map's own assignment and a unanimous-0 one (under which any state
/// where someone decided 1 is a validity violation, so `safe` sees both
/// answers).
fn check_map<P: ProcessAutomaton>(
    ctx: &str,
    sys: &CompleteSystem<P>,
    map: &ValenceMap<P>,
    assignment: &InputAssignment,
) {
    let n = sys.process_count();
    let graph = SystemGraph::new(sys, map);
    let zeros = InputAssignment::monotone(n, 0);
    let safe = atoms::safe(assignment.clone());
    let safe_zeros = atoms::safe(zeros.clone());
    let decided = atoms::decided();
    let decided_v: Vec<_> = (0..2).map(atoms::decided_value).collect();
    let no_failures = atoms::no_failures();
    let failed: Vec<_> = (0..n + 2).map(atoms::failed).collect();
    let reach = reference_reach(sys, map);
    for id in map.ids() {
        let s = map.resolve(id);
        for (i, failed_i) in failed.iter().enumerate() {
            assert_eq!(
                map.decision_id(id, ProcId(i)),
                (i < n)
                    .then(|| sys.decision(s, ProcId(i)))
                    .flatten()
                    .as_ref(),
                "{ctx}: decision of P{i} at {id:?}"
            );
            assert_eq!(
                failed_i.holds_at(&graph, id),
                s.failed.contains(&ProcId(i)),
                "{ctx}: failed({i}) at {id:?}"
            );
        }
        let own = sys.decided_values(s);
        for (v, atom) in decided_v.iter().enumerate() {
            let v = Val::Int(v as i64);
            assert_eq!(map.has_decided_id(id, &v), own.contains(&v), "{ctx}");
            assert_eq!(atom.holds_at(&graph, id), own.contains(&v), "{ctx}");
        }
        assert_eq!(decided.holds_at(&graph, id), !own.is_empty(), "{ctx}");
        let mask = s.failed.iter().fold(0u32, |m, i| m | 1 << i.0);
        assert_eq!(map.failed_mask_id(id), mask, "{ctx}: failed mask");
        assert_eq!(no_failures.holds_at(&graph, id), s.failed.is_empty());
        assert_eq!(
            safe.holds_at(&graph, id),
            check_safety(sys, s, assignment).is_none(),
            "{ctx}: safe at {id:?}"
        );
        assert_eq!(
            safe_zeros.holds_at(&graph, id),
            check_safety(sys, s, &zeros).is_none(),
            "{ctx}: safe under unanimous 0 at {id:?}"
        );
        assert_eq!(map.id_of(s), Some(id), "{ctx}: id_of(resolve({id:?}))");
        assert_eq!(
            map.reachable_decisions_id(id),
            &reach[id.index()],
            "{ctx}: reachable decisions at {id:?}"
        );
    }
    assert_eq!(map.decoded(), map.state_count(), "{ctx}: every id decoded");
}

/// On a quotient map, every concrete successor of every state — most of
/// them not orbit representatives — resolves to the id of its
/// representative, which the map records as a successor of that state
/// (unless the step is a stutter or only permutes the state, which the
/// explorer skips). Returns how many non-canonical successors were
/// looked up.
fn check_quotient_lookups<P: ProcessAutomaton>(
    ctx: &str,
    sys: &CompleteSystem<P>,
    map: &ValenceMap<P>,
) -> usize {
    let group = map.sym().expect("a quotient map");
    let index: HashMap<&SystemState<P::State>, StateId> =
        map.ids().map(|id| (map.resolve(id), id)).collect();
    let mut non_canonical = 0;
    for id in map.ids() {
        let s = map.resolve(id);
        for t in sys.tasks() {
            for (_, c) in sys.succ_all(&t, s) {
                let rep = canonical_system_state(group, &c);
                if c == *s || rep == *s {
                    continue;
                }
                if rep != c {
                    non_canonical += 1;
                }
                let rep_id = *index
                    .get(&rep)
                    .unwrap_or_else(|| panic!("{ctx}: every successor's orbit was explored"));
                assert_eq!(map.id_of(&c), Some(rep_id), "{ctx}: id_of a successor");
                assert!(
                    map.successors(id)
                        .iter()
                        .any(|&(k, s2)| map.tasks()[k as usize] == t && s2 == rep_id),
                    "{ctx}: representative is a {t} successor of {id:?}"
                );
            }
        }
    }
    non_canonical
}

/// Every monotone root, plus a mixed root with `P1` failed (the only
/// way a failure-free exploration sees a non-empty failed set).
fn roots<P: ProcessAutomaton>(
    sys: &CompleteSystem<P>,
) -> Vec<(String, InputAssignment, SystemState<P::State>)> {
    let n = sys.process_count();
    let mut out: Vec<_> = (0..=n)
        .map(|ones| {
            let a = InputAssignment::monotone(n, ones);
            (format!("ones={ones}"), a.clone(), initialize(sys, &a))
        })
        .collect();
    let a = InputAssignment::monotone(n, 1);
    let crashed = sys.fail(&initialize(sys, &a), ProcId(1));
    out.push(("ones=1,fail=P1".to_string(), a, crashed));
    out
}

/// Checks every root's map under both symmetry modes; returns the
/// number of non-canonical successor lookups the quotient maps made.
/// On a substrate outside the quotient's contract
/// ([`PackedSystem::symmetric_system`]) a `Full` request explores the
/// very same concrete graph as `Off` (pinned by `canon_differential`),
/// so only the `Off` map is checked there.
fn check_substrate<P: ProcessAutomaton>(name: &str, sys: &CompleteSystem<P>) -> usize {
    let modes: &[SymmetryMode] = if PackedSystem::symmetric_system(sys) {
        &[SymmetryMode::Off, SymmetryMode::Full]
    } else {
        &[SymmetryMode::Off]
    };
    let mut non_canonical = 0;
    for (label, assignment, root) in roots(sys) {
        for &mode in modes {
            let ctx = format!("{name} {label} {mode:?}");
            let map = ValenceMap::build_with_symmetry(sys, root.clone(), MAX_STATES, 1, mode)
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_eq!(map.symmetric(), mode == SymmetryMode::Full, "{ctx}");
            if map.symmetric() {
                non_canonical += check_quotient_lookups(&ctx, sys, &map);
            }
            check_map(&ctx, sys, &map, &assignment);
        }
    }
    non_canonical
}

#[test]
fn id_level_reads_agree_with_decoded_states_atomic() {
    let non_canonical = check_substrate("atomic", &doomed_atomic(3, 1));
    assert!(
        non_canonical > 0,
        "the atomic quotient must exercise non-canonical lookups"
    );
}

#[test]
fn id_level_reads_agree_with_decoded_states_registers() {
    check_substrate("registers", &doomed_atomic_with_registers(3, 1));
}

#[test]
fn id_level_reads_agree_with_decoded_states_oblivious() {
    check_substrate("oblivious", &doomed_oblivious(3, 1));
}

#[test]
fn id_level_reads_agree_with_decoded_states_mixed() {
    check_substrate("mixed", &doomed_mixed(3, 1));
}

#[test]
fn id_level_reads_agree_with_decoded_states_general() {
    check_substrate("general", &doomed_general(3, 1));
}

/// Build, `always(safe)` scan and root valence — the per-root work of
/// the witness pipeline's first two stages — decode the root alone.
fn assert_root_only_decode<P: ProcessAutomaton>(name: &str, sys: &CompleteSystem<P>) {
    let n = sys.process_count();
    for ones in 0..=n {
        let assignment = InputAssignment::monotone(n, ones);
        let root = initialize(sys, &assignment);
        let map =
            ValenceMap::build_with_symmetry(sys, root.clone(), MAX_STATES, 1, SymmetryMode::Full)
                .unwrap_or_else(|e| panic!("{name} ones={ones}: {e}"));
        let graph = SystemGraph::new(sys, &map);
        let scan = evaluate(&graph, &Prop::always(atoms::safe(assignment)));
        assert_eq!(scan.verdict, Verdict::Holds, "{name} ones={ones}");
        let _ = map.valence(&root);
        assert_eq!(
            map.decoded(),
            1,
            "{name} ones={ones}: only the root may be decoded"
        );
    }
}

#[test]
fn decode_gate_witness_stages_decode_only_the_root() {
    assert_root_only_decode("atomic n=4,f=2", &doomed_atomic(4, 2));
    assert_root_only_decode("general n=3,f=1", &doomed_general(3, 1));
}

/// The Fig. 3 construction on the bivalent root's map steps packed
/// states and decodes only the hook's corners — none of them through
/// the map — so the map still holds the root alone decoded.
fn assert_hook_decodes_only_the_root<P: ProcessAutomaton>(
    name: &str,
    sys: &CompleteSystem<P>,
    mode: SymmetryMode,
) {
    let InitOutcome::Bivalent { map, .. } =
        find_bivalent_init_sym(sys, MAX_STATES, mode).unwrap_or_else(|e| panic!("{name}: {e}"))
    else {
        panic!("{name}: expected a bivalent initialization")
    };
    let outcome = find_hook(sys, &map, 20_000);
    assert!(
        matches!(outcome, HookOutcome::Hook(_)),
        "{name}: {outcome:?}"
    );
    assert_eq!(map.decoded(), 1, "{name}: only the root may be decoded");
}

#[test]
fn decode_gate_hook_search_decodes_only_the_root() {
    assert_hook_decodes_only_the_root(
        "atomic n=4,f=2 Full",
        &doomed_atomic(4, 2),
        SymmetryMode::Full,
    );
    assert_hook_decodes_only_the_root(
        "atomic n=3,f=1 Off",
        &doomed_atomic(3, 1),
        SymmetryMode::Off,
    );
    assert_hook_decodes_only_the_root(
        "oblivious n=3,f=1",
        &doomed_oblivious(3, 1),
        SymmetryMode::Off,
    );
}

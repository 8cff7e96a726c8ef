//! Differential suite — the single witness walk.
//!
//! `find_witness` walks the monotone initializations `α_0, …, α_n`
//! once: each root's valence map is built, safety-scanned and asked for
//! its root valence, then Lemma 4's rules pick the outcome. The
//! reference here is the two-pass pipeline composed from public calls:
//! first a safety scan of every root (`ValenceMap::build_with_symmetry`
//! plus `always(safe)`), then the early-exit Lemma 4 walk
//! (`find_bivalent_init_sym`) and, on a bivalent root, the hook search
//! that decides which witness follows. Both must name the same witness
//! variant, the same assignment(s) and the same differing process, with
//! the quotient off and on, on every doomed substrate, test&set, and the
//! Section 4 set-boost system (which takes the safety arm).
//!
//! The hooks the walk refutes from are pinned too: the Fig. 3
//! construction must return the recorded `e`, `e'`, `v` and `α` task
//! sequence on every doomed substrate, each hook must be a genuine
//! execution with the valences Fig. 2 names, and the DOT export must
//! mark exactly the hook's three edges, on concrete and quotient maps.

use analysis::graph::to_dot;
use analysis::hook::{find_hook, Hook, HookOutcome};
use analysis::init::{find_bivalent_init_sym, InitOutcome};
use analysis::prop::{atoms, evaluate, Prop, SystemGraph, Verdict};
use analysis::valence::ValenceMap;
use analysis::witness::{find_witness, Bounds, ImpossibilityWitness};
use ioa::canon::SymmetryMode;
use ioa::Automaton;
use protocols::doomed::{
    doomed_atomic, doomed_atomic_with_registers, doomed_mixed, doomed_oblivious,
};
use protocols::set_boost::SetBoostParams;
use spec::{ProcId, SvcId};
use system::build::{CompleteSystem, SystemState};
use system::consensus::InputAssignment;
use system::process::ProcessAutomaton;
use system::sched::initialize;
use system::Task;

/// What a witness names: its variant, its assignment(s) and, for an
/// adjacent pair, the process whose input differs.
#[derive(Debug, PartialEq, Eq)]
struct Named {
    variant: &'static str,
    assignments: Vec<InputAssignment>,
    differing: Option<ProcId>,
}

fn named(variant: &'static str, assignments: Vec<InputAssignment>) -> Named {
    Named {
        variant,
        assignments,
        differing: None,
    }
}

fn name_of<P: ProcessAutomaton>(w: &ImpossibilityWitness<P>) -> Named {
    match w {
        ImpossibilityWitness::Safety { assignment, .. } => {
            named("Safety", vec![assignment.clone()])
        }
        ImpossibilityWitness::FailureFreeNonTermination { assignment } => {
            named("FailureFreeNonTermination", vec![assignment.clone()])
        }
        ImpossibilityWitness::HookRefutation { assignment, .. } => {
            named("HookRefutation", vec![assignment.clone()])
        }
        ImpossibilityWitness::AdjacentRefutation {
            zero,
            one,
            differing,
            ..
        } => Named {
            variant: "AdjacentRefutation",
            assignments: vec![zero.clone(), one.clone()],
            differing: Some(*differing),
        },
        ImpossibilityWitness::EndlessBivalence { assignment, .. } => {
            named("EndlessBivalence", vec![assignment.clone()])
        }
    }
}

/// The two-pass reference: safety over every root, then Lemma 4.
fn two_pass<P: ProcessAutomaton>(sys: &CompleteSystem<P>, b: Bounds) -> Result<Named, String> {
    let n = sys.process_count();
    for ones in 0..=n {
        let assignment = InputAssignment::monotone(n, ones);
        let root = initialize(sys, &assignment);
        let map = ValenceMap::build_with_symmetry(sys, root, b.max_states, b.threads, b.symmetry)
            .map_err(|e| e.to_string())?;
        let safe = Prop::always(atoms::safe(assignment.clone()));
        if evaluate(&SystemGraph::new(sys, &map), &safe).verdict == Verdict::Fails {
            return Ok(named("Safety", vec![assignment]));
        }
    }
    match find_bivalent_init_sym(sys, b.max_states, b.threads, b.symmetry)
        .map_err(|e| e.to_string())?
    {
        InitOutcome::Bivalent { assignment, map } => {
            let variant = match find_hook(sys, &map, b.max_hook_iterations) {
                HookOutcome::Hook(_) => "HookRefutation",
                HookOutcome::EndlessBivalence { .. } => "EndlessBivalence",
                HookOutcome::UndecidedRegion { .. } => "FailureFreeNonTermination",
            };
            Ok(named(variant, vec![assignment]))
        }
        InitOutcome::AdjacentContradiction {
            zero,
            one,
            differing,
        } => Ok(Named {
            variant: "AdjacentRefutation",
            assignments: vec![zero, one],
            differing: Some(differing),
        }),
        InitOutcome::Undecided { assignment } => {
            Ok(named("FailureFreeNonTermination", vec![assignment]))
        }
        InitOutcome::ValidityBroken { assignment, .. } => Err(format!(
            "validity broken at {assignment} after a clean safety scan"
        )),
    }
}

/// `find_witness` and the two-pass reference agree under both symmetry
/// modes, and the walk takes the expected arm.
fn agree<P: ProcessAutomaton>(name: &str, sys: &CompleteSystem<P>, f: usize, expect: &str) {
    for mode in [SymmetryMode::Off, SymmetryMode::Full] {
        let bounds = Bounds::default().with_threads(1).with_symmetry(mode);
        let walk = find_witness(sys, f, bounds)
            .map(|w| name_of(&w))
            .map_err(|e| e.to_string());
        let reference = two_pass(sys, bounds);
        assert_eq!(walk, reference, "{name} under {mode:?}");
        let walk = walk.unwrap_or_else(|e| panic!("{name} under {mode:?}: {e}"));
        assert_eq!(walk.variant, expect, "{name} under {mode:?}");
    }
}

#[test]
fn doomed_substrates_reach_the_two_pass_verdict() {
    use protocols::doomed::*;
    agree("atomic", &doomed_atomic(3, 1), 1, "HookRefutation");
    agree(
        "registers",
        &doomed_atomic_with_registers(2, 0),
        0,
        "HookRefutation",
    );
    agree("oblivious", &doomed_oblivious(3, 1), 1, "HookRefutation");
    agree("mixed", &doomed_mixed(2, 0), 0, "HookRefutation");
    agree("general", &doomed_general(3, 1), 1, "AdjacentRefutation");
}

#[test]
fn test_and_set_reaches_the_two_pass_verdict() {
    agree(
        "tas",
        &protocols::tas_consensus::build(0),
        0,
        "HookRefutation",
    );
}

#[test]
fn set_boost_takes_the_safety_arm_in_both_walks() {
    let sys = protocols::set_boost::build(SetBoostParams {
        n: 4,
        k: 2,
        k_prime: 1,
    });
    agree("set-boost", &sys, 1, "Safety");
}

/// The bivalent root's map (Lemma 4, one exploration thread) and the
/// hook the Fig. 3 construction finds on it.
fn hook_on<P: ProcessAutomaton>(
    name: &str,
    sys: &CompleteSystem<P>,
    mode: SymmetryMode,
) -> (ValenceMap<P>, Hook<P>) {
    let InitOutcome::Bivalent { map, .. } = find_bivalent_init_sym(sys, 1_000_000, 1, mode)
        .unwrap_or_else(|e| panic!("{name} under {mode:?}: {e}"))
    else {
        panic!("{name} under {mode:?}: expected a bivalent initialization")
    };
    match find_hook(sys, &map, 20_000) {
        HookOutcome::Hook(hook) => (map, hook),
        other => panic!("{name} under {mode:?}: expected a hook, got {other:?}"),
    }
}

fn proc_tasks(n: usize) -> Vec<Task> {
    (0..n).map(|i| Task::Proc(ProcId(i))).collect()
}

/// The hook on `sys` under `mode` is the pinned one, and it is a
/// genuine Fig. 2 hook: `s0 = e(α)`, `s' = e'(α)`, `s1 = e(s')`,
/// `alpha_tasks` replays from the root to `α`, `s0` is `v`-valent and
/// `s1` is `v̄`-valent.
fn assert_pinned_hook<P: ProcessAutomaton>(
    name: &str,
    sys: &CompleteSystem<P>,
    mode: SymmetryMode,
    alpha_tasks: &[Task],
) {
    let ctx = format!("{name} under {mode:?}");
    let (map, h) = hook_on(name, sys, mode);
    // The pinned hook: on every doomed substrate it races the two
    // lowest processes' performs at the consensus object S0, and the
    // process that reaches it first holds input 1.
    assert_eq!(h.e, Task::Perform(SvcId(0), ProcId(0)), "{ctx}: e");
    assert_eq!(h.e_prime, Task::Perform(SvcId(0), ProcId(1)), "{ctx}: e'");
    assert_eq!(h.v, analysis::valence::Valence::One, "{ctx}: v");
    assert_eq!(h.alpha_tasks, alpha_tasks, "{ctx}: alpha_tasks");

    let step = |t: &Task, s: &SystemState<P::State>| sys.succ_det(t, s).map(|(_, s2)| s2);
    assert_eq!(
        step(&h.e, &h.alpha).as_ref(),
        Some(&h.s0),
        "{ctx}: s0 = e(α)"
    );
    assert_eq!(
        step(&h.e_prime, &h.alpha).as_ref(),
        Some(&h.s_prime),
        "{ctx}: s' = e'(α)"
    );
    assert_eq!(
        step(&h.e, &h.s_prime).as_ref(),
        Some(&h.s1),
        "{ctx}: s1 = e(s')"
    );
    let mut s = map.root().clone();
    for t in &h.alpha_tasks {
        s = step(t, &s).unwrap_or_else(|| panic!("{ctx}: {t} is applicable on the way to α"));
    }
    assert_eq!(s, h.alpha, "{ctx}: alpha_tasks replay to α");
    assert_eq!(map.valence(&h.s0), h.v, "{ctx}: valence of s0");
    assert_eq!(map.valence(&h.s1), h.v.opposite(), "{ctx}: valence of s1");
}

#[test]
fn hooks_match_the_pinned_hooks() {
    for n in 3..=5 {
        for mode in [SymmetryMode::Off, SymmetryMode::Full] {
            assert_pinned_hook("atomic", &doomed_atomic(n, n - 2), mode, &proc_tasks(n));
        }
    }
    // Registers first: each process writes its register and reads the
    // ack back before it invokes the object.
    let mut registers = proc_tasks(3);
    for i in 0..3 {
        registers.push(Task::Perform(SvcId(i + 1), ProcId(i)));
        registers.push(Task::Output(SvcId(i + 1), ProcId(i)));
    }
    registers.extend(proc_tasks(3));
    let off = SymmetryMode::Off;
    assert_pinned_hook(
        "registers",
        &doomed_atomic_with_registers(3, 1),
        off,
        &registers,
    );
    assert_pinned_hook("oblivious", &doomed_oblivious(3, 1), off, &proc_tasks(3));
    assert_pinned_hook("mixed", &doomed_mixed(3, 1), off, &proc_tasks(3));
}

/// The DOT node whose tooltip names map state `s`.
fn dot_node<P: ProcessAutomaton>(
    dot: &str,
    map: &ValenceMap<P>,
    s: &SystemState<P::State>,
) -> String {
    let id = map.id_of(s).expect("hook corners are in the map");
    let tooltip = format!("{:?}: {:?}", map.valence_id(id), map.resolve(id))
        .replace('\\', "\\\\")
        .replace('"', "\\\"");
    let line = dot
        .lines()
        .find(|l| l.contains(&format!("tooltip=\"{tooltip}\"")))
        .expect("every hook corner is drawn");
    line.split_whitespace()
        .next()
        .expect("node name")
        .to_string()
}

#[test]
fn dot_marks_exactly_the_three_hook_edges() {
    for n in 3..=5 {
        let sys = doomed_atomic(n, n - 2);
        for mode in [SymmetryMode::Off, SymmetryMode::Full] {
            let (map, h) = hook_on("atomic", &sys, mode);
            let dot = to_dot(&map, &h.alpha, 3, Some(&h));
            let node = |s| dot_node(&dot, &map, s);
            let (alpha, s0, s_prime, s1) =
                (node(&h.alpha), node(&h.s0), node(&h.s_prime), node(&h.s1));
            let mut marked: Vec<(String, String)> = dot
                .lines()
                .filter(|l| l.contains("color=red, penwidth=2"))
                .map(|l| {
                    let mut words = l.split_whitespace();
                    let from = words.next().expect("edge source").to_string();
                    assert_eq!(words.next(), Some("->"));
                    (from, words.next().expect("edge target").to_string())
                })
                .collect();
            marked.sort();
            let mut expected = vec![(alpha.clone(), s0), (alpha, s_prime.clone()), (s_prime, s1)];
            expected.sort();
            assert_eq!(
                marked, expected,
                "n={n} under {mode:?}: e, e' out of α and e out of s'"
            );
        }
    }
}

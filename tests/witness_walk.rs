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

use analysis::hook::{find_hook, HookOutcome};
use analysis::init::{find_bivalent_init_sym, InitOutcome};
use analysis::prop::{atoms, evaluate, Prop, SystemGraph, Verdict};
use analysis::valence::ValenceMap;
use analysis::witness::{find_witness, Bounds, ImpossibilityWitness};
use ioa::canon::SymmetryMode;
use protocols::set_boost::SetBoostParams;
use spec::ProcId;
use system::build::CompleteSystem;
use system::consensus::InputAssignment;
use system::process::ProcessAutomaton;
use system::sched::initialize;

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

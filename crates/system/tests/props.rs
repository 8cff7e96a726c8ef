//! Randomized-but-deterministic tests for the complete system: safety
//! under random schedules, scheduler determinism, and composition
//! invariants.
//!
//! Formerly proptest-based; rewritten onto the in-tree
//! [`ioa::rng::SplitMix64`] generator so the suite runs hermetically
//! (no registry dependency) and every case is replayable from its seed.

use ioa::automaton::Automaton;
use ioa::rng::SplitMix64;
use services::atomic::CanonicalAtomicObject;
use spec::seq::BinaryConsensus;
use spec::{ProcId, SvcId, Val};
use std::sync::Arc;
use system::build::CompleteSystem;
use system::consensus::{check_safety, InputAssignment};
use system::process::direct::DirectConsensus;
use system::sched::{initialize, run_fair, run_random, BranchPolicy};

fn direct(n: usize, f: usize) -> CompleteSystem<DirectConsensus> {
    let endpoints: Vec<ProcId> = (0..n).map(ProcId).collect();
    let obj = CanonicalAtomicObject::new(Arc::new(BinaryConsensus), endpoints, f);
    CompleteSystem::new(DirectConsensus::new(SvcId(0)), n, vec![Arc::new(obj)])
}

fn random_bits(g: &mut SplitMix64, n: usize) -> InputAssignment {
    InputAssignment::of((0..n).map(|i| (ProcId(i), Val::Int(i64::from(g.gen_bool())))))
}

#[test]
fn random_schedules_never_violate_safety() {
    let mut g = SplitMix64::seed_from_u64(0x5175_0001);
    for _ in 0..48 {
        let seed = g.next_u64();
        let sys = direct(3, 2);
        let a = random_bits(&mut g, 3);
        let failures: Vec<(usize, ProcId)> = if g.gen_bool() {
            vec![(g.gen_range(20), ProcId(g.gen_range(3)))]
        } else {
            Vec::new()
        };
        let s = initialize(&sys, &a);
        let run = run_random(&sys, s, seed, &failures, 5_000, |_| false);
        // Every state along the run satisfies agreement + validity.
        for st in run.exec.states() {
            assert_eq!(check_safety(&sys, st, &a), None);
        }
    }
}

#[test]
fn fair_runs_are_deterministic_per_policy() {
    let mut g = SplitMix64::seed_from_u64(0x5175_0002);
    for _ in 0..4 {
        let sys = direct(2, 1);
        let a = random_bits(&mut g, 2);
        for policy in [BranchPolicy::Canonical, BranchPolicy::PreferDummy] {
            let r1 = run_fair(&sys, initialize(&sys, &a), policy, &[], 2_000, |_| false);
            let r2 = run_fair(&sys, initialize(&sys, &a), policy, &[], 2_000, |_| false);
            assert_eq!(r1.exec.len(), r2.exec.len());
            assert_eq!(r1.exec.last_state(), r2.exec.last_state());
        }
    }
}

#[test]
fn failed_processes_never_act_after_failure() {
    let mut g = SplitMix64::seed_from_u64(0x5175_0003);
    for _ in 0..48 {
        let seed = g.next_u64();
        let victim = g.gen_range(3);
        let sys = direct(3, 2);
        let a = InputAssignment::monotone(3, 2);
        let s = initialize(&sys, &a);
        let run = run_random(&sys, s, seed, &[(0, ProcId(victim))], 3_000, |_| false);
        // After the fail, the victim's only actions are ProcStep dummies
        // (no Invoke, Decide or Output).
        let mut failed = false;
        for step in run.exec.steps() {
            match &step.action {
                system::Action::Fail(p) if p.0 == victim => failed = true,
                system::Action::Invoke(p, _, _)
                | system::Action::Decide(p, _)
                | system::Action::Output(p, _)
                    if p.0 == victim =>
                {
                    assert!(!failed, "failed process produced an output");
                }
                _ => {}
            }
        }
    }
}

#[test]
fn init_and_fail_commute_on_distinct_processes() {
    for i in 0usize..3 {
        for j in 0usize..3 {
            if i == j {
                continue;
            }
            for v in 0i64..2 {
                let sys = direct(3, 1);
                let s0 = sys.single_initial_state();
                let a = sys.fail(&sys.init(&s0, ProcId(i), Val::Int(v)), ProcId(j));
                let b = sys.init(&sys.fail(&s0, ProcId(j)), ProcId(i), Val::Int(v));
                assert_eq!(a, b);
            }
        }
    }
}

#[test]
fn applicable_tasks_are_exactly_the_ones_with_successors() {
    let mut g = SplitMix64::seed_from_u64(0x5175_0004);
    for _ in 0..48 {
        let seed = g.next_u64();
        let sys = direct(2, 0);
        let a = InputAssignment::monotone(2, 1);
        let s = initialize(&sys, &a);
        let run = run_random(&sys, s, seed, &[], 200, |_| false);
        let last = run.exec.last_state();
        for t in sys.tasks() {
            assert_eq!(sys.applicable(&t, last), !sys.succ_all(&t, last).is_empty());
        }
    }
}

#[test]
fn monotone_assignment_values_are_binary_and_ordered() {
    for n in 1usize..8 {
        for ones in 0usize..9 {
            let ones = ones.min(n);
            let a = InputAssignment::monotone(n, ones);
            for i in 0..n {
                let expected = i64::from(i < ones);
                assert_eq!(a.input(ProcId(i)), Some(&Val::Int(expected)));
            }
        }
    }
}

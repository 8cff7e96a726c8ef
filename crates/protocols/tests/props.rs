//! Randomized-but-deterministic tests for the boosting constructions:
//! safety under random inputs, failure patterns and schedules.
//!
//! Formerly proptest-based; rewritten onto the in-tree
//! [`ioa::rng::SplitMix64`] generator so the suite runs hermetically
//! (no registry dependency) and every case is replayable from its seed.

use ioa::rng::SplitMix64;
use protocols::set_boost::{build, SetBoostParams};
use protocols::{doomed, fd_boost};
use spec::{ProcId, Val};
use std::collections::BTreeSet;
use system::consensus::{check_k_safety, InputAssignment};
use system::sched::{initialize, run_fair, run_random, BranchPolicy, FairOutcome};

const CASES: usize = 32;

fn random_ints(g: &mut SplitMix64, n: usize, hi: i64) -> InputAssignment {
    InputAssignment::of((0..n).map(|i| (ProcId(i), Val::Int(g.gen_i64_range(0, hi)))))
}

fn random_bits(g: &mut SplitMix64, n: usize) -> InputAssignment {
    InputAssignment::of((0..n).map(|i| (ProcId(i), Val::Int(i64::from(g.gen_bool())))))
}

fn random_kill_set(g: &mut SplitMix64, n: usize) -> BTreeSet<usize> {
    let len = g.gen_range(n);
    (0..len).map(|_| g.gen_range(n)).collect()
}

#[test]
fn set_boost_never_exceeds_k_values() {
    let mut g = SplitMix64::seed_from_u64(0x9207_0001);
    for _ in 0..CASES {
        let a = random_ints(&mut g, 4, 4);
        let seed = g.next_u64();
        let kill = random_kill_set(&mut g, 4);
        let sys = build(SetBoostParams {
            n: 4,
            k: 2,
            k_prime: 1,
        });
        let failures: Vec<(usize, ProcId)> = kill
            .iter()
            .enumerate()
            .map(|(idx, p)| (idx, ProcId(*p)))
            .collect();
        let s = initialize(&sys, &a);
        let run = run_random(&sys, s, seed, &failures, 10_000, |_| false);
        for st in run.exec.states() {
            assert_eq!(check_k_safety(&sys, st, &a, 2), None);
        }
    }
}

#[test]
fn set_boost_groups_agree_internally() {
    let mut g = SplitMix64::seed_from_u64(0x9207_0002);
    for _ in 0..CASES {
        let a = random_ints(&mut g, 4, 4);
        let sys = build(SetBoostParams {
            n: 4,
            k: 2,
            k_prime: 1,
        });
        let run = run_fair(
            &sys,
            initialize(&sys, &a),
            BranchPolicy::Canonical,
            &[],
            50_000,
            |st| (0..4).all(|i| sys.decision(st, ProcId(i)).is_some()),
        );
        assert_eq!(&run.outcome, &FairOutcome::Stopped);
        let last = run.exec.last_state();
        // Within each group the service is 1-consensus: exact agreement.
        assert_eq!(sys.decision(last, ProcId(0)), sys.decision(last, ProcId(1)));
        assert_eq!(sys.decision(last, ProcId(2)), sys.decision(last, ProcId(3)));
    }
}

#[test]
fn fd_boost_deciders_always_agree() {
    let mut g = SplitMix64::seed_from_u64(0x9207_0003);
    for _ in 0..CASES {
        let a = random_bits(&mut g, 3);
        let kill = random_kill_set(&mut g, 3);
        let when = g.gen_range(15);
        let sys = fd_boost::build(3);
        let failures: Vec<(usize, ProcId)> = kill
            .iter()
            .enumerate()
            .map(|(idx, p)| (when + idx, ProcId(*p)))
            .collect();
        let live: BTreeSet<usize> = (0..3).filter(|i| !kill.contains(i)).collect();
        let s = initialize(&sys, &a);
        let run = run_fair(
            &sys,
            s,
            BranchPolicy::PreferDummy,
            &failures,
            400_000,
            |st| live.iter().all(|i| sys.decision(st, ProcId(*i)).is_some()),
        );
        // Termination for all live processes…
        assert_eq!(&run.outcome, &FairOutcome::Stopped);
        // …and agreement + validity among every decider.
        let last = run.exec.last_state();
        assert_eq!(check_k_safety(&sys, last, &a, 1), None);
    }
}

#[test]
fn doomed_candidates_are_safe_below_their_resilience() {
    let mut g = SplitMix64::seed_from_u64(0x9207_0004);
    for _ in 0..CASES {
        // The doomed systems are perfectly correct at their own level:
        // f = 1 object, at most one failure.
        let a = random_bits(&mut g, 3);
        let seed = g.next_u64();
        let sys = doomed::doomed_atomic(3, 1);
        let s = initialize(&sys, &a);
        let run = run_random(&sys, s, seed, &[(2, ProcId(0))], 10_000, |_| false);
        for st in run.exec.states() {
            assert_eq!(check_k_safety(&sys, st, &a, 1), None);
        }
    }
}

#[test]
fn tob_consensus_is_safe_under_random_schedules() {
    let mut g = SplitMix64::seed_from_u64(0x9207_0005);
    for _ in 0..CASES {
        let a = random_bits(&mut g, 3);
        let seed = g.next_u64();
        let sys = doomed::doomed_oblivious(3, 2);
        let s = initialize(&sys, &a);
        let run = run_random(&sys, s, seed, &[], 10_000, |_| false);
        for st in run.exec.states() {
            assert_eq!(check_k_safety(&sys, st, &a, 1), None);
        }
    }
}

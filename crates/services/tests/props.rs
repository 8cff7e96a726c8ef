//! Randomized-but-deterministic tests for the canonical services:
//! structural invariants of Fig. 1/4/8 automata under arbitrary event
//! sequences.
//!
//! Formerly proptest-based; rewritten onto the in-tree
//! [`ioa::rng::SplitMix64`] generator so the suite runs hermetically
//! (no registry dependency) and every case is replayable from its seed.

use ioa::rng::SplitMix64;
use services::atomic::CanonicalAtomicObject;
use services::oblivious::CanonicalObliviousService;
use services::{Service, SvcState};
use spec::seq::{BinaryConsensus, ReadWrite};
use spec::tob::TotallyOrderedBroadcast;
use spec::{ProcId, Val};
use std::sync::Arc;

const CASES: usize = 64;

/// One abstract event fed to a service at a random endpoint.
#[derive(Clone, Debug)]
enum Ev {
    Invoke(usize, usize),
    Perform(usize),
    Output(usize),
    Compute,
    Fail(usize),
}

fn random_ev(g: &mut SplitMix64, n: usize, invs: usize) -> Ev {
    match g.gen_range(5) {
        0 => Ev::Invoke(g.gen_range(n), g.gen_range(invs)),
        1 => Ev::Perform(g.gen_range(n)),
        2 => Ev::Output(g.gen_range(n)),
        3 => Ev::Compute,
        _ => Ev::Fail(g.gen_range(n)),
    }
}

fn random_script(g: &mut SplitMix64, n: usize, invs: usize, max_len: usize) -> Vec<Ev> {
    (0..g.gen_range(max_len))
        .map(|_| random_ev(g, n, invs))
        .collect()
}

/// Drives a service through a script, maintaining a conservation model:
/// every invocation is pending, consumed, or already answered.
fn drive(svc: &dyn Service, script: &[Ev]) -> SvcState {
    let invs = svc.invocations();
    let mut st = svc.initial_states().remove(0);
    let mut invoked = vec![0usize; svc.endpoints().len()];
    let mut performed = vec![0usize; svc.endpoints().len()];
    for ev in script {
        match ev {
            Ev::Invoke(i, k) => {
                let p = ProcId(i % svc.endpoints().len());
                if let Some(st2) = svc.enqueue_invocation(p, &invs[k % invs.len()], &st) {
                    st = st2;
                    invoked[p.0] += 1;
                }
            }
            Ev::Perform(i) => {
                let p = ProcId(i % svc.endpoints().len());
                if let Some(st2) = svc.perform_all(p, &st).into_iter().next() {
                    st = st2;
                    performed[p.0] += 1;
                }
            }
            Ev::Output(i) => {
                let p = ProcId(i % svc.endpoints().len());
                if let Some((_, st2)) = svc.pop_response(p, &st) {
                    st = st2;
                }
            }
            Ev::Compute => {
                if let Some(g) = svc.global_tasks().first() {
                    if let Some(st2) = svc.compute_all(g, &st).into_iter().next() {
                        st = st2;
                    }
                }
            }
            Ev::Fail(i) => {
                let p = ProcId(i % svc.endpoints().len());
                st = svc.apply_fail(p, &st);
            }
        }
        // Conservation: pending = invoked − performed, per endpoint.
        for (idx, p) in svc.endpoints().iter().enumerate() {
            assert_eq!(
                st.inv_buffer(*p).len(),
                invoked[idx] - performed[idx],
                "invocation conservation broke at {p}"
            );
        }
    }
    st
}

#[test]
fn atomic_object_conserves_invocations() {
    let mut g = SplitMix64::seed_from_u64(0x5e4c_0001);
    for _ in 0..CASES {
        let script = random_script(&mut g, 3, 2, 60);
        let svc = CanonicalAtomicObject::new(
            Arc::new(BinaryConsensus),
            [ProcId(0), ProcId(1), ProcId(2)],
            1,
        );
        let st = drive(&svc, &script);
        // Consensus safety inside the object: val is ∅ or a singleton,
        // and all pending responses carry exactly that value.
        let chosen = st.val.as_set().unwrap();
        assert!(chosen.len() <= 1);
        for p in svc.endpoints() {
            for r in st.resp_buffer(*p) {
                let d = BinaryConsensus::decision(r).unwrap();
                assert_eq!(chosen.iter().next(), Some(&Val::Int(d)));
            }
        }
    }
}

#[test]
fn register_conserves_invocations_and_acks_every_write() {
    let mut g = SplitMix64::seed_from_u64(0x5e4c_0002);
    for _ in 0..CASES {
        let script = random_script(&mut g, 2, 3, 60);
        let svc = CanonicalAtomicObject::register(ReadWrite::binary(), [ProcId(0), ProcId(1)]);
        let st = drive(&svc, &script);
        // Register domain invariant: val stays in {0, 1}.
        assert!(st.val == Val::Int(0) || st.val == Val::Int(1));
    }
}

#[test]
fn dummy_enabling_is_monotone_in_failures() {
    let mut g = SplitMix64::seed_from_u64(0x5e4c_0003);
    for _ in 0..CASES {
        let fails: Vec<usize> = (0..g.gen_range(6)).map(|_| g.gen_range(3)).collect();
        let svc = CanonicalAtomicObject::new(
            Arc::new(BinaryConsensus),
            [ProcId(0), ProcId(1), ProcId(2)],
            1,
        );
        let mut st = svc.initial_states().remove(0);
        let mut prev_enabled: Vec<bool> = (0..3)
            .map(|i| svc.dummy_perform_enabled(ProcId(i), &st))
            .collect();
        for f in fails {
            st = svc.apply_fail(ProcId(f % 3), &st);
            let now: Vec<bool> = (0..3)
                .map(|i| svc.dummy_perform_enabled(ProcId(i), &st))
                .collect();
            for (before, after) in prev_enabled.iter().zip(&now) {
                assert!(!before || *after, "a dummy became disabled after a failure");
            }
            prev_enabled = now;
        }
    }
}

#[test]
fn tob_delivers_every_endpoint_the_same_prefix() {
    let mut g = SplitMix64::seed_from_u64(0x5e4c_0004);
    for _ in 0..CASES {
        let script = random_script(&mut g, 3, 2, 80);
        let j = [ProcId(0), ProcId(1), ProcId(2)];
        let svc = CanonicalObliviousService::new(
            Arc::new(TotallyOrderedBroadcast::new([Val::Int(0), Val::Int(1)], j)),
            j,
            1,
        );
        // Drive, but track the cumulative delivery sequence per endpoint
        // (deliveries = what enters resp buffers via compute).
        let invs = svc.invocations();
        let mut st = svc.initial_states().remove(0);
        let mut delivered: Vec<Vec<spec::seq_type::Resp>> = vec![Vec::new(); 3];
        for ev in &script {
            match ev {
                Ev::Invoke(i, k) => {
                    if let Some(st2) =
                        svc.enqueue_invocation(ProcId(i % 3), &invs[k % invs.len()], &st)
                    {
                        st = st2;
                    }
                }
                Ev::Perform(i) => {
                    if let Some(st2) = svc.perform_all(ProcId(i % 3), &st).into_iter().next() {
                        st = st2;
                    }
                }
                Ev::Compute => {
                    let gt = TotallyOrderedBroadcast::delivery_task();
                    let before: Vec<usize> =
                        (0..3).map(|i| st.resp_buffer(ProcId(i)).len()).collect();
                    let st2 = svc.compute_all(&gt, &st).into_iter().next().unwrap();
                    for i in 0..3 {
                        for idx in before[i]..st2.resp_buffer(ProcId(i)).len() {
                            delivered[i].push(st2.resp_buffer(ProcId(i))[idx].clone());
                        }
                    }
                    st = st2;
                }
                Ev::Output(i) => {
                    if let Some((_, st2)) = svc.pop_response(ProcId(i % 3), &st) {
                        st = st2;
                    }
                }
                Ev::Fail(i) => st = svc.apply_fail(ProcId(i % 3), &st),
            }
        }
        // Total order: all three cumulative delivery sequences are equal.
        assert_eq!(&delivered[0], &delivered[1]);
        assert_eq!(&delivered[1], &delivered[2]);
    }
}

#[test]
fn fail_is_idempotent_and_commutative() {
    for a in 0usize..3 {
        for b in 0usize..3 {
            let svc = CanonicalAtomicObject::new(
                Arc::new(BinaryConsensus),
                [ProcId(0), ProcId(1), ProcId(2)],
                0,
            );
            let st = svc.initial_states().remove(0);
            let ab = svc.apply_fail(ProcId(b), &svc.apply_fail(ProcId(a), &st));
            let ba = svc.apply_fail(ProcId(a), &svc.apply_fail(ProcId(b), &st));
            assert_eq!(&ab, &ba);
            let aa = svc.apply_fail(ProcId(a), &svc.apply_fail(ProcId(a), &st));
            assert_eq!(aa, svc.apply_fail(ProcId(a), &st));
        }
    }
}

//! Randomized-but-deterministic tests for the specification layer: the
//! sequential types' algebraic laws under arbitrary operation
//! sequences.
//!
//! Formerly proptest-based; rewritten onto the in-tree
//! [`ioa::rng::SplitMix64`] generator so the suite runs hermetically
//! (no registry dependency) and every case is replayable from its seed.

use ioa::rng::SplitMix64;
use spec::seq::{
    BinaryConsensus, CompareAndSwap, FetchAndAdd, FifoQueue, KSetConsensus, MultiValueConsensus,
    ReadWrite, TestAndSet,
};
use spec::seq_type::{Inv, SeqType};
use spec::Val;

const CASES: usize = 64;

/// Applies a sequence of invocation indices to a type, checking
/// totality (δ nonempty) at every step; returns the value trajectory.
fn drive(t: &dyn SeqType, script: &[usize]) -> Vec<Val> {
    let invs = t.invocations();
    let mut v = t.initial_value();
    let mut trajectory = vec![v.clone()];
    for idx in script {
        let inv = &invs[idx % invs.len()];
        let outs = t.delta(inv, &v);
        assert!(!outs.is_empty(), "δ must be total at {inv:?}/{v:?}");
        let (_, v2) = t.delta_det(inv, &v);
        v = v2;
        trajectory.push(v.clone());
    }
    trajectory
}

fn int_vec(g: &mut SplitMix64, len: usize, lo: i64, hi: i64) -> Vec<i64> {
    (0..len).map(|_| g.gen_i64_range(lo, hi)).collect()
}

#[test]
fn consensus_value_is_write_once() {
    let mut g = SplitMix64::seed_from_u64(0x59ec_0001);
    for _ in 0..CASES {
        let script: Vec<usize> = (0..g.gen_range(30)).map(|_| g.gen_range(2)).collect();
        let t = BinaryConsensus;
        let traj = drive(&t, &script);
        // Once the set is nonempty it never changes again.
        let mut fixed: Option<&Val> = None;
        for v in &traj {
            let s = v.as_set().unwrap();
            match (&fixed, s.is_empty()) {
                (None, false) => fixed = Some(v),
                (Some(w), _) => assert_eq!(*w, v),
                _ => {}
            }
        }
    }
}

#[test]
fn multi_consensus_decision_matches_first_input() {
    let mut g = SplitMix64::seed_from_u64(0x59ec_0002);
    for _ in 0..CASES {
        let first = g.gen_i64_range(0, 5);
        let rest_len = g.gen_range(20);
        let rest = int_vec(&mut g, rest_len, 0, 5);
        let t = MultiValueConsensus::new(5);
        let (d, mut v) = t.delta_det(&MultiValueConsensus::init(first), &t.initial_value());
        assert_eq!(MultiValueConsensus::decision(&d), Some(first));
        for x in rest {
            let (d, v2) = t.delta_det(&MultiValueConsensus::init(x), &v);
            assert_eq!(MultiValueConsensus::decision(&d), Some(first));
            v = v2;
        }
    }
}

#[test]
fn kset_w_is_bounded_and_decisions_come_from_w() {
    let mut g = SplitMix64::seed_from_u64(0x59ec_0003);
    for _ in 0..CASES {
        let script_len = 1 + g.gen_range(24);
        let script = int_vec(&mut g, script_len, 0, 6);
        let k = 1 + g.gen_range(3);
        let t = KSetConsensus::new(k, 6);
        let mut v = t.initial_value();
        for x in &script {
            let outs = t.delta(&KSetConsensus::init(*x), &v);
            assert!(!outs.is_empty());
            for (resp, v2) in &outs {
                let w2 = v2.as_set().unwrap();
                assert!(w2.len() <= k, "W grew past k");
                let d = KSetConsensus::decision(resp).unwrap();
                assert!(w2.contains(&Val::Int(d)), "decision outside W∪{{v}}");
            }
            v = t.delta_det(&KSetConsensus::init(*x), &v).1;
        }
    }
}

#[test]
fn register_read_after_write_returns_the_write() {
    let mut g = SplitMix64::seed_from_u64(0x59ec_0004);
    for _ in 0..CASES {
        let write_len = 1 + g.gen_range(14);
        let writes = int_vec(&mut g, write_len, 0, 2);
        let t = ReadWrite::binary();
        let mut v = t.initial_value();
        for w in writes {
            let (_, v2) = t.delta_det(&ReadWrite::write(Val::Int(w)), &v);
            let (r, v3) = t.delta_det(&ReadWrite::read(), &v2);
            assert_eq!(r.0, Val::Int(w));
            assert_eq!(&v3, &v2);
            v = v3;
        }
    }
}

#[test]
fn test_and_set_has_a_unique_winner_per_epoch() {
    for callers in 1usize..8 {
        let t = TestAndSet;
        let mut v = t.initial_value();
        let mut winners = 0;
        for _ in 0..callers {
            let (r, v2) = t.delta_det(&TestAndSet::test_and_set(), &v);
            if r.0 == Val::Int(0) {
                winners += 1;
            }
            v = v2;
        }
        assert_eq!(winners, 1);
    }
}

#[test]
fn cas_succeeds_iff_expected_matches() {
    let mut g = SplitMix64::seed_from_u64(0x59ec_0005);
    for _ in 0..CASES {
        let ops: Vec<(i64, i64)> = (0..g.gen_range(20))
            .map(|_| (g.gen_i64_range(0, 3), g.gen_i64_range(0, 3)))
            .collect();
        let domain: Vec<Val> = (0..3).map(Val::Int).collect();
        let t = CompareAndSwap::with_domain(domain, Val::Int(0));
        let mut v = t.initial_value();
        for (e, n) in ops {
            let (old, v2) = t.delta_det(&CompareAndSwap::cas(Val::Int(e), Val::Int(n)), &v);
            assert_eq!(&old.0, &v);
            if v == Val::Int(e) {
                assert_eq!(&v2, &Val::Int(n));
            } else {
                assert_eq!(&v2, &v);
            }
            v = v2;
        }
    }
}

#[test]
fn counter_tracks_modular_sum() {
    let mut g = SplitMix64::seed_from_u64(0x59ec_0006);
    for _ in 0..CASES {
        let delta_len = g.gen_range(25);
        let deltas = int_vec(&mut g, delta_len, -5, 6);
        let t = FetchAndAdd::modulo(7);
        let mut v = t.initial_value();
        let mut expected = 0i64;
        for d in deltas {
            let (_, v2) = t.delta_det(&FetchAndAdd::fetch_add(d), &v);
            expected = (expected + d).rem_euclid(7);
            assert_eq!(&v2, &Val::Int(expected));
            v = v2;
        }
    }
}

#[test]
fn queue_is_fifo_under_arbitrary_interleaving() {
    let mut g = SplitMix64::seed_from_u64(0x59ec_0007);
    for _ in 0..CASES {
        // Some(v) = enq(v), None = deq. A model VecDeque must agree.
        let ops: Vec<Option<i64>> = (0..g.gen_range(25))
            .map(|_| {
                if g.gen_bool() {
                    Some(g.gen_i64_range(0, 3))
                } else {
                    None
                }
            })
            .collect();
        let t = FifoQueue::bounded((0..3).map(Val::Int), 8);
        let mut v = t.initial_value();
        let mut model: std::collections::VecDeque<i64> = Default::default();
        for op in ops {
            match op {
                Some(x) => {
                    let (r, v2) = t.delta_det(&FifoQueue::enq(Val::Int(x)), &v);
                    if model.len() < 8 {
                        model.push_back(x);
                        assert_eq!(r.0, Val::Sym("ack"));
                    } else {
                        assert_eq!(r.0, Val::Sym("full"));
                    }
                    v = v2;
                }
                None => {
                    let (r, v2) = t.delta_det(&FifoQueue::deq(), &v);
                    match model.pop_front() {
                        Some(x) => assert_eq!(r.0, Val::Int(x)),
                        None => assert_eq!(r.0, Val::Sym("empty")),
                    }
                    v = v2;
                }
            }
        }
    }
}

#[test]
fn deterministic_types_have_singleton_delta_everywhere() {
    let mut g = SplitMix64::seed_from_u64(0x59ec_0008);
    for _ in 0..CASES {
        let script: Vec<usize> = (0..g.gen_range(15)).map(|_| g.gen_range(8)).collect();
        let types: Vec<Box<dyn SeqType>> = vec![
            Box::new(BinaryConsensus),
            Box::new(ReadWrite::binary()),
            Box::new(TestAndSet),
            Box::new(MultiValueConsensus::new(3)),
        ];
        for t in &types {
            let traj = drive(t.as_ref(), &script);
            for v in &traj {
                for inv in t.invocations() {
                    assert_eq!(t.delta(&inv, v).len(), 1, "{} not deterministic", t.name());
                }
            }
        }
    }
}

#[test]
fn val_ordering_is_consistent_with_equality() {
    let mut g = SplitMix64::seed_from_u64(0x59ec_0009);
    for _ in 0..CASES {
        let a = g.gen_i64_range(-10, 10);
        let b = g.gen_i64_range(-10, 10);
        let (x, y) = (Val::Int(a), Val::Int(b));
        assert_eq!(x == y, a == b);
        assert_eq!(x < y, a < b);
        let s1 = Val::set([x.clone(), y.clone()]);
        let s2 = Val::set([y, x]);
        assert_eq!(s1, s2, "sets are order-insensitive");
    }
}

/// A regression: `Inv`/`Resp` payload accessors survive nesting (used
/// by the FD suspect encoding).
#[test]
fn nested_payload_accessors() {
    let inv = Inv::op("cas", Val::pair(Val::Int(1), Val::Int(2)));
    let (e, n) = inv.arg().unwrap().as_pair().unwrap();
    assert_eq!((e.as_int(), n.as_int()), (Some(1), Some(2)));
}

#[test]
fn snapshot_scan_agrees_with_a_model_vector() {
    use spec::seq::Snapshot;
    let mut g = SplitMix64::seed_from_u64(0x59ec_000a);
    for _ in 0..CASES {
        let ops: Vec<(usize, i64)> = (0..g.gen_range(20))
            .map(|_| (g.gen_range(3), g.gen_i64_range(0, 2)))
            .collect();
        let t = Snapshot::new(3, [Val::Int(0), Val::Int(1)], Val::Int(0));
        let mut v = t.initial_value();
        let mut model = [0i64; 3];
        for (idx, x) in ops {
            let (_, v2) = t.delta_det(&Snapshot::update(idx, Val::Int(x)), &v);
            model[idx] = x;
            v = v2;
            let (snap, _) = t.delta_det(&Snapshot::scan(), &v);
            let expected = Val::seq(model.iter().map(|m| Val::Int(*m)));
            assert_eq!(snap.0, expected);
        }
    }
}

#[test]
fn sticky_bit_is_monotone() {
    use spec::seq::StickyBit;
    let mut g = SplitMix64::seed_from_u64(0x59ec_000b);
    for _ in 0..CASES {
        let write_len = 1 + g.gen_range(14);
        let writes = int_vec(&mut g, write_len, 0, 2);
        let t = StickyBit;
        let mut v = t.initial_value();
        let mut stuck: Option<i64> = None;
        for w in writes {
            let (r, v2) = t.delta_det(&StickyBit::write(w), &v);
            match stuck {
                None => {
                    stuck = Some(w);
                    assert_eq!(&r.0, &Val::Int(w));
                }
                Some(s) => assert_eq!(&r.0, &Val::Int(s)),
            }
            v = v2;
        }
    }
}

#[test]
fn channel_directions_are_independent_fifos() {
    use spec::channel::PairChannel;
    use spec::service_type::ObliviousType;
    use spec::ProcId;
    let mut g = SplitMix64::seed_from_u64(0x59ec_000c);
    for _ in 0..CASES {
        let sends: Vec<(bool, i64)> = (0..g.gen_range(20))
            .map(|_| (g.gen_bool(), g.gen_i64_range(0, 2)))
            .collect();
        let ch = PairChannel::new(ProcId(0), ProcId(1), [Val::Int(0), Val::Int(1)]);
        let mut v = ch.initial_value();
        let mut model_ab: Vec<i64> = Vec::new();
        let mut model_ba: Vec<i64> = Vec::new();
        for (from_a, m) in &sends {
            let sender = if *from_a { ProcId(0) } else { ProcId(1) };
            let (_, v2) = ch
                .delta1(&PairChannel::send(Val::Int(*m)), sender, &v)
                .remove(0);
            if *from_a {
                model_ab.push(*m);
            } else {
                model_ba.push(*m);
            }
            v = v2;
        }
        // Drain towards P1 (the a→b queue) and compare with the model.
        let mut received = Vec::new();
        loop {
            let (resp, v2) = ch
                .delta2(&PairChannel::delivery_to(ProcId(1)), &v)
                .remove(0);
            if resp.is_empty() {
                break;
            }
            let m = PairChannel::decode_rcv(&resp.for_endpoint(ProcId(1))[0])
                .unwrap()
                .as_int()
                .unwrap();
            received.push(m);
            v = v2;
        }
        assert_eq!(received, model_ab);
        // The b→a queue is untouched by draining a→b.
        let mut received_a = Vec::new();
        loop {
            let (resp, v2) = ch
                .delta2(&PairChannel::delivery_to(ProcId(0)), &v)
                .remove(0);
            if resp.is_empty() {
                break;
            }
            let m = PairChannel::decode_rcv(&resp.for_endpoint(ProcId(0))[0])
                .unwrap()
                .as_int()
                .unwrap();
            received_a.push(m);
            v = v2;
        }
        assert_eq!(received_a, model_ba);
    }
}

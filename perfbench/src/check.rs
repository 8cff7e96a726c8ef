//! The `check-batch` workload: one op is one `repro check` query — a
//! concrete valence build of one mixed initialization of
//! `doomed_atomic(6, 4)`, the parse of a nine-property batch, and its
//! fused evaluation.
//!
//! The seed draws the inputs: ops come in rounds that visit every mixed
//! assignment `ones ∈ 1..n−1` once in a seeded order, and each op
//! evaluates the batch in its own seeded order. A run measures whole
//! rounds, so every run times the same mix of graph sizes. The first
//! round (the warm-up) visits the assignments in ascending order: the
//! order in which the heap first grows sets the process's peak RSS.

use crate::probe::{self, Counters};
use crate::trace::Trace;
use crate::{Bench, Traced, MAX_STATES, THREADS};
use analysis::audit::effective_symmetry;
use analysis::prop::{evaluate_batch, parse_props, system_vocab, SystemGraph, Verdict};
use analysis::valence::ValenceMap;
use ioa::canon::SymmetryMode;
use ioa::rng::SplitMix64;
use std::time::Instant;
use system::build::CompleteSystem;
use system::consensus::InputAssignment;
use system::packed::PackedSystem;
use system::process::direct::DirectConsensus;
use system::sched::initialize;

const N: usize = 6;
const F: usize = 4;
const SYMMETRY: SymmetryMode = SymmetryMode::Off;

/// The e16 property set plus `af_fair(decided)`. Every property holds
/// from every mixed initialization of `doomed_atomic(6, 4)`.
const PROPS: [&str; 9] = [
    "always(safe)",
    "always(no_failures)",
    "ef(bivalent)",
    "ef(decided(0))",
    "ef(decided(1))",
    "af(decided)",
    "leads_to(bivalent, decided)",
    "!ef(failed(0))",
    "af_fair(decided)",
];

pub struct CheckBench {
    seed: u64,
    sys: Option<CompleteSystem<DirectConsensus>>,
}

impl CheckBench {
    pub fn new(seed: u64) -> Self {
        CheckBench { seed, sys: None }
    }

    /// The input of op `k`: the number of processes given input 1, and
    /// the property batch text.
    fn input(&self, k: usize) -> (usize, String) {
        let round_len = N - 1;
        let mut round: Vec<usize> = (1..N).collect();
        if k >= round_len {
            SplitMix64::seed_from_u64(self.seed ^ (k / round_len) as u64).shuffle(&mut round);
        }
        let mut order = PROPS;
        SplitMix64::seed_from_u64(self.seed.rotate_left(32) ^ k as u64).shuffle(&mut order);
        (round[k % round_len], order.join("; "))
    }

    /// One query; spans are recorded when `tr` is given.
    fn query(
        &self,
        k: usize,
        mut tr: Option<&mut Trace>,
        c: &mut Counters,
    ) -> Result<usize, String> {
        let sys = self.sys.as_ref().expect("ops run after set-up");
        let (ones, text) = self.input(k);
        let assignment = InputAssignment::monotone(N, ones);
        let root = initialize(sys, &assignment);
        let map = stage(&mut tr, "check.build", || {
            ValenceMap::build_with_symmetry(sys, root, MAX_STATES, THREADS, SYMMETRY)
        })
        .map_err(|e| e.to_string())?;
        c.absorb_map(&map, false);
        let vocab = system_vocab::<DirectConsensus>(assignment);
        let props = stage(&mut tr, "prop.parse", || parse_props(&text, &vocab))
            .map_err(|e| e.to_string())?;
        let report = stage(&mut tr, "prop.batch", || {
            evaluate_batch(&SystemGraph::new(sys, &map), &props)
        });
        c.absorb_passes(report.passes, map.state_count(), props.len());
        drop((props, vocab));
        stage(&mut tr, "valence.drop", || drop(map));

        let holds = report
            .results
            .iter()
            .filter(|e| e.verdict == Verdict::Holds)
            .count();
        if holds != PROPS.len() || report.passes.forward != 1 || report.passes.backward != 1 {
            return Err(format!(
                "wrong verdict from ones={ones}: {holds}/{} properties hold, passes {} forward / \
                 {} backward (expected all {} to hold in 1 forward / 1 backward pass)",
                report.results.len(),
                report.passes.forward,
                report.passes.backward,
                PROPS.len()
            ));
        }
        Ok(ones)
    }
}

fn stage<R>(tr: &mut Option<&mut Trace>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(tr) => tr.span(name, |_| f()),
        None => f(),
    }
}

impl Bench for CheckBench {
    fn round_len(&self) -> usize {
        N - 1
    }

    fn setup(&mut self) -> f64 {
        let sys = protocols::doomed::doomed_atomic(N, F);
        let t = Instant::now();
        let _ = effective_symmetry(&sys, SYMMETRY);
        let gate_s = t.elapsed().as_secs_f64();
        let (ones, text) = self.input(0);
        let vocab = system_vocab::<DirectConsensus>(InputAssignment::monotone(N, ones));
        let parsed =
            parse_props::<SystemGraph<'_, DirectConsensus>>(&text, &vocab).map(|props| props.len());
        assert_eq!(parsed, Ok(PROPS.len()), "the property batch parses");
        self.sys = Some(sys);
        gate_s
    }

    fn symmetry(&self) -> String {
        let sys = self.sys.as_ref().expect("described after set-up");
        let gate = effective_symmetry(sys, SYMMETRY);
        let packed = PackedSystem::with_symmetry(sys, gate).symmetry_mode();
        format!("requested={SYMMETRY:?} gate={gate:?} packed={packed:?}")
    }

    fn op(&mut self, k: usize) -> Result<(), String> {
        self.query(k, None, &mut Counters::default()).map(|_| ())
    }

    fn traced_op(&mut self, k: usize, tr: &mut Trace, first: bool) -> Result<Traced, String> {
        let mut c = Counters::default();
        let ones = tr.span("op", |tr| {
            for name in [
                "valence.safety_build",
                "prop.safety_scan",
                "init.lemma4",
                "init.lemma4_drop",
                "hook.search",
                "similarity.analyze",
                "similarity.refute",
            ] {
                tr.skip(name);
            }
            self.query(k, Some(tr), &mut c)
        })?;
        let sys = self.sys.as_ref().expect("ops run after set-up");
        let root = initialize(sys, &InputAssignment::monotone(N, ones));
        let mut orbits = first.then(Default::default);
        probe::sweep(tr, sys, &root, SYMMETRY, &mut c, orbits.as_mut());
        Ok(Traced {
            counters: c,
            key: ones,
            orbits,
        })
    }
}

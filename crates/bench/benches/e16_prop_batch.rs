//! E16 (extension) — fused property-batch evaluation.
//!
//! Regenerates: the cost of deciding a fixed set of eight temporal
//! properties over the explored failure-free graph `G(C)` of the
//! doomed-atomic sweep, two ways:
//!
//! * `sequential_*` — one `analysis::prop::evaluate` call per
//!   property: each pays its own forward scan (evaluating that
//!   property's atoms at every state) and, where needed, its own
//!   backward fixpoint;
//! * `fused_*` — one `evaluate_batch` call: all properties share a
//!   single forward scan, which evaluates each distinct atom once per
//!   state (`parse_props` hands every occurrence of an atom text the
//!   same `Atom`), and a single multi-lane backward sweep
//!   (`ioa::fixpoint::backward_universal`), the invariant the CI
//!   pass-counter gate enforces.
//!
//! Neither regime copies the graph: both read the valence map's own
//! forward rows and reverse CSR.
//!
//! Both regimes must return identical evaluations (asserted every
//! run), and the fused regime must win end to end (asserted on the
//! medians). Rows are annotated with `states_per_sec` where "states"
//! counts property-state decisions (graph states × properties), so
//! the two variants are directly comparable.

use analysis::prop::{evaluate, evaluate_batch, parse_props, system_vocab, Prop, SystemGraph};
use analysis::valence::ValenceMap;
use bench_suite::bench_scales;
use bench_suite::harness::Group;
use std::hint::black_box;
use system::consensus::InputAssignment;
use system::process::direct::DirectConsensus;
use system::sched::initialize;

const PROPS: &str = "always(safe); \
                     always(no_failures); \
                     ef(bivalent); \
                     ef(decided(0)); \
                     ef(decided(1)); \
                     af(decided); \
                     leads_to(bivalent, decided); \
                     !ef(failed(0))";

fn main() {
    let mut group = Group::new("e16_prop_batch");
    let mut medians: Vec<(String, u128, u128)> = Vec::new();
    for (label, sys, _f) in bench_scales() {
        let n = sys.process_count();
        let assignment = InputAssignment::monotone(n, 1);
        let root = initialize(&sys, &assignment);
        let map = ValenceMap::build(&sys, root, 5_000_000).expect("ample budget");
        let graph = SystemGraph::new(&sys, &map);
        let vocab = system_vocab::<DirectConsensus>(assignment.clone());
        let props: Vec<Prop<'_, _>> = parse_props(PROPS, &vocab).expect("property set parses");
        let work = (map.state_count() * props.len()) as u64;

        // The two regimes agree — checked once up front, then asserted
        // (cheaply, on verdicts) inside every timed run.
        let fused = evaluate_batch(&graph, &props);
        assert_eq!(fused.passes.forward, 1);
        assert!(fused.passes.backward <= 1);
        let solo: Vec<_> = props.iter().map(|p| evaluate(&graph, p)).collect();
        assert_eq!(
            fused.results, solo,
            "{label}: fused and sequential disagree"
        );

        group.bench(&format!("sequential_{label}"), || {
            let evs: Vec<_> = props.iter().map(|p| evaluate(&graph, p)).collect();
            black_box(evs.len())
        });
        group.annotate_last(Some(work), None);

        group.bench(&format!("fused_{label}"), || {
            let report = evaluate_batch(&graph, &props);
            debug_assert_eq!(report.results.len(), props.len());
            black_box(report.results.len())
        });
        group.annotate_last(Some(work), None);

        eprintln!(
            "[E16] {label}: {} states × {} properties",
            map.state_count(),
            props.len()
        );
    }
    let results = group.finish();
    for pair in results.chunks(2) {
        let [seq, fused] = pair else { unreachable!() };
        let speedup = seq.median_ns() as f64 / fused.median_ns() as f64;
        eprintln!(
            "[E16] {} vs {}: fused {speedup:.2}x faster",
            fused.label, seq.label
        );
        medians.push((fused.label.clone(), seq.median_ns(), fused.median_ns()));
    }
    for (label, seq, fused) in medians {
        assert!(
            fused < seq,
            "{label}: fused batch ({fused} ns) must beat sequential ({seq} ns)"
        );
    }
}

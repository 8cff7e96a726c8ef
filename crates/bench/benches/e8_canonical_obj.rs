//! E8 — Theorem 11 / Appendix B: the canonical consensus object meets
//! the axiomatic spec, and how fast it does so.
//!
//! Regenerates: fair round-robin drives of the canonical `f`-resilient
//! consensus object (Fig. 1) across endpoint counts — every endpoint
//! invokes, every live endpoint is answered — plus the exhaustive
//! agreement check over the full reachable space.
//!
//! Expected shape: responses scale linearly with endpoints; the
//! exhaustive reachable space stays modest and agreement never breaks.

use bench_suite::harness::Group;
use ioa::automaton::Automaton;
use ioa::explore::ExploredGraph;
use ioa::fairness::run_round_robin;
use services::atomic::CanonicalAtomicObject;
use services::automaton::{ServiceAutomaton, SvcAction};
use spec::seq::BinaryConsensus;
use spec::ProcId;
use std::hint::black_box;
use std::sync::Arc;

fn loaded(n: usize, f: usize) -> (ServiceAutomaton, services::SvcState) {
    let endpoints: Vec<ProcId> = (0..n).map(ProcId).collect();
    let aut = ServiceAutomaton::new(Arc::new(CanonicalAtomicObject::new(
        Arc::new(BinaryConsensus),
        endpoints,
        f,
    )));
    let mut s = aut.initial_states().remove(0);
    for i in 0..n {
        s = aut
            .apply_input(
                &s,
                &SvcAction::Invoke(ProcId(i), BinaryConsensus::init((i % 2) as i64)),
            )
            .expect("init");
    }
    (aut, s)
}

fn main() {
    let mut group = Group::new("e8_canonical_obj");
    for n in [2usize, 4, 8, 16] {
        let (aut, s) = loaded(n, n - 1);
        let run = run_round_robin(&aut, s.clone(), 100_000, |_| false);
        let responses = run
            .exec
            .steps()
            .iter()
            .filter(|st| matches!(st.action, SvcAction::Respond(..)))
            .count();
        eprintln!("[E8] n={n}: fair drive answered {responses}/{n} endpoints");
        group.bench(&format!("fair_drive_n{n}"), || {
            black_box(run_round_robin(&aut, s.clone(), 100_000, |_| false))
        });
    }

    // Exhaustive agreement scan (n = 3 keeps the space tiny).
    let (aut, s) = loaded(3, 1);
    let r = ExploredGraph::explore(&aut, vec![s.clone()], 1_000_000);
    eprintln!(
        "[E8] exhaustive n=3: {} states, truncated={}, all values ≤ singleton: {}",
        r.len(),
        r.stats().truncated(),
        r.store()
            .states()
            .iter()
            .all(|st| st.val.as_set().map(|w| w.len() <= 1).unwrap_or(false))
    );
    group.bench("exhaustive_agreement_n3", || {
        black_box(ExploredGraph::explore(&aut, vec![s.clone()], 1_000_000).len())
    });
    group.finish();
}

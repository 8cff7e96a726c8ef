//! E2 — Lemma 5 / Figs. 2–3: the hook construction.
//!
//! Regenerates: the Fig. 3 round-robin path construction from the
//! bivalent initialization, ending in a hook, for each doomed
//! atomic-object scale point. The valence map is prebuilt so the
//! measurement isolates the construction itself.
//!
//! Expected shape: a hook exists at every scale; search cost grows with
//! the state count but remains far below exhaustive valence mapping.
//!
//! The `n=7,f=5,full` row is the hook search at the repository
//! benchmark's `thm2-atomic-quotient` scale: α_1's map of
//! `doomed_atomic(7,5)` under the `Full` quotient, built with one
//! exploration thread and an explicit state budget, as the benchmark's
//! `find_witness` builds it.

use analysis::hook::{find_hook, HookOutcome};
use analysis::init::{find_bivalent_init, InitOutcome};
use analysis::valence::ValenceMap;
use bench_suite::bench_scales;
use bench_suite::harness::Group;
use ioa::SymmetryMode;
use protocols::doomed::doomed_atomic;
use std::hint::black_box;
use system::consensus::InputAssignment;
use system::sched::initialize;

fn report<P: system::process::ProcessAutomaton>(label: &str, outcome: &HookOutcome<P>) {
    match outcome {
        HookOutcome::Hook(h) => eprintln!(
            "[E2] {label}: hook e={} e'={} (α after {} tasks, v={:?})",
            h.e,
            h.e_prime,
            h.alpha_tasks.len(),
            h.v
        ),
        other => eprintln!("[E2] {label}: unexpected outcome {other:?}"),
    }
}

fn main() {
    let mut group = Group::new("e2_hook_search");
    for (label, sys, _f) in bench_scales() {
        let InitOutcome::Bivalent { map, .. } = find_bivalent_init(&sys, 2_000_000).unwrap() else {
            panic!("{label}: expected a bivalent init")
        };
        report(label, &find_hook(&sys, &map, 20_000));
        group.bench(label, || black_box(find_hook(&sys, &map, 20_000)));
    }

    let sys = doomed_atomic(7, 5);
    let root = initialize(&sys, &InputAssignment::monotone(7, 1));
    let map = ValenceMap::build_with_symmetry(&sys, root, 2_000_000, 1, SymmetryMode::Full)
        .expect("α_1's quotient map fits the budget");
    report("n=7,f=5,full", &find_hook(&sys, &map, 20_000));
    group.bench("n=7,f=5,full", || black_box(find_hook(&sys, &map, 20_000)));
    group.finish();
}

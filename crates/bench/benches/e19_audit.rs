//! E19 (extension) — static contract audit cost (DESIGN §2.6).
//!
//! Regenerates: the component-local auditor's full five-rule pass over
//! each in-tree substrate, at the default budget. The point of the
//! experiment is the *scaling shape*: auditing is polynomial in
//! component sizes (the `states` annotation counts component-local
//! states, not global ones), so its cost is flat in `n` where the
//! explorations it guards are exponential. The exploration-time gate
//! (`effective_symmetry`) runs the same machinery at a much smaller
//! budget and memoizes its verdict per system instance, so hot paths
//! never pay these full-budget numbers.
//!
//! Expected shape: audit time tracks Σ_c |closure(c)| · |tasks|, not
//! the product state space; doomed-style substrates with one shared
//! service audit fastest, the register-heavy boosters (derived-fd,
//! set-boost) slowest. The `hit_rate` annotation reports the
//! independence census density (commuting pairs / all pairs).

use analysis::audit::{audit_system, AuditConfig};
use bench_suite::harness::Group;
use protocols::set_boost::SetBoostParams;
use spec::seq::TestAndSet;
use std::hint::black_box;
use std::sync::Arc;
use system::build::CompleteSystem;
use system::process::ProcessAutomaton;

fn bench_audit<P: ProcessAutomaton>(group: &mut Group, label: &str, sys: &CompleteSystem<P>) {
    let cfg = AuditConfig::default();
    let report = audit_system(sys, label, &cfg);
    assert!(
        report.clean(),
        "benched substrates must audit clean:\n{report}"
    );
    eprintln!(
        "[E19] {label}: {} component states, census {}/{}",
        report.component_states, report.independent_pairs, report.task_pairs
    );
    group.bench(label, || black_box(audit_system(sys, label, &cfg)));
    group.annotate_last(
        Some(report.component_states as u64),
        Some(report.independent_pairs as f64 / report.task_pairs.max(1) as f64),
    );
}

fn main() {
    let mut group = Group::new("e19_audit");

    bench_audit(
        &mut group,
        "doomed_atomic_n3",
        &protocols::doomed::doomed_atomic(3, 1),
    );
    bench_audit(
        &mut group,
        "doomed_registers_n2",
        &protocols::doomed::doomed_atomic_with_registers(2, 0),
    );
    bench_audit(
        &mut group,
        "doomed_tob_n2",
        &protocols::doomed::doomed_oblivious(2, 0),
    );
    bench_audit(
        &mut group,
        "doomed_fd_n2",
        &protocols::doomed::doomed_general(2, 0),
    );
    bench_audit(&mut group, "tas_n2", &protocols::tas_consensus::build(1));
    bench_audit(
        &mut group,
        "universal_tas_n2",
        &protocols::universal::build(Arc::new(TestAndSet), 2),
    );
    bench_audit(
        &mut group,
        "flooding_n2",
        &protocols::message_passing::build_flood_all(2, 1),
    );
    bench_audit(&mut group, "snapshot_n2", &protocols::snapshot::build(2, 2));
    bench_audit(&mut group, "fd_boost_n2", &protocols::fd_boost::build(2));
    bench_audit(
        &mut group,
        "set_boost_n4",
        &protocols::set_boost::build(SetBoostParams {
            n: 4,
            k: 2,
            k_prime: 1,
        }),
    );
    bench_audit(
        &mut group,
        "derived_fd_n2",
        &protocols::derived_fd::build(2),
    );

    group.finish();
}

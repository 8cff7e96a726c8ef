//! Differential suite — the static contract auditor (DESIGN §2.6).
//!
//! Two faces of the same contract, pinned against each other:
//!
//! * **No false positives.** Every in-tree substrate audits clean at
//!   the default budget, through the library (`audit_system`) and the
//!   CLI (`repro audit` exits 0, prints no `VIOLATION` line).
//! * **No false negatives.** Each deliberately broken fixture in
//!   `protocols::broken` is caught by exactly the rule whose contract
//!   it breaks — `symmetry-honesty`, `effect-purity`,
//!   `task-partition` — with a machine-readable
//!   diagnostic and CLI exit 1.
//!
//! Plus the consumer-side teeth: `effective_symmetry` must *degrade*
//! a quotient request on an audit-rejected substrate to
//! `SymmetryMode::Off` (so `ValenceMap::build_with_symmetry` under
//! `Full` reproduces the `Off` build bit-for-bit on the liar), while
//! an honest substrate keeps its quotient (strictly fewer interned
//! states than the full build).

use analysis::audit::{
    audit_automaton, audit_system, effective_symmetry, AuditConfig, RuleId, RuleStatus,
};
use analysis::valence::ValenceMap;
use ioa::canon::SymmetryMode;
use protocols::broken::{impure_direct, lying_symmetry, overlapping_tasks};
use protocols::doomed::doomed_atomic;
use protocols::set_boost::SetBoostParams;
use spec::seq::TestAndSet;
use std::process::{Command, Output};
use std::sync::Arc;
use system::consensus::InputAssignment;
use system::process::ProcessAutomaton;
use system::sched::initialize;

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

// ---------------------------------------------------------------------
// No false positives: every in-tree substrate is clean
// ---------------------------------------------------------------------

/// Every builder at every parameterization the `protocols` crate's own
/// tests construct, audited at the default budget.
#[test]
fn every_in_tree_substrate_audits_clean() {
    fn assert_clean<P: ProcessAutomaton>(sys: &system::build::CompleteSystem<P>, name: &str) {
        let report = audit_system(sys, name, &AuditConfig::default());
        assert!(
            report.clean(),
            "substrate {name} must audit clean, got:\n{report}"
        );
        assert_eq!(report.exit_code(), 0, "{name}");
        assert!(
            report.task_pairs > 0,
            "{name}: the census must consider at least one task pair"
        );
    }
    use protocols::{derived_fd, doomed, fd_boost, message_passing, snapshot, tas_consensus};
    use spec::seq::{FetchAndAdd, FifoQueue};
    use spec::Val;
    for (n, f) in [(2, 0), (3, 1)] {
        assert_clean(&doomed_atomic(n, f), &format!("doomed-atomic({n},{f})"));
    }
    assert_clean(
        &doomed::doomed_atomic_with_registers(2, 0),
        "doomed-registers",
    );
    for (n, f) in [(2, 0), (3, 1), (3, 2)] {
        assert_clean(
            &doomed::doomed_oblivious(n, f),
            &format!("doomed-tob({n},{f})"),
        );
    }
    assert_clean(&doomed::doomed_general(2, 0), "doomed-fd");
    assert_clean(&doomed::doomed_mixed(2, 0), "doomed-mixed");
    for f in [0, 1] {
        assert_clean(&tas_consensus::build(f), &format!("test-and-set({f})"));
    }
    for n in [2, 3, 4] {
        let sys = protocols::universal::build(Arc::new(TestAndSet), n);
        assert_clean(&sys, &format!("universal(test-and-set,{n})"));
    }
    let sys = protocols::universal::build(Arc::new(FetchAndAdd::modulo(16)), 3);
    assert_clean(&sys, "universal(fetch-and-add,3)");
    let queue = FifoQueue::bounded([Val::Int(7)], 4);
    assert_clean(
        &protocols::universal::build(Arc::new(queue), 2),
        "universal(queue,2)",
    );
    for (n, f) in [(2, 1), (3, 1), (3, 2)] {
        let sys = message_passing::build_flood_all(n, f);
        assert_clean(&sys, &format!("flooding({n},{f})"));
    }
    for n in [2, 3] {
        assert_clean(&snapshot::build(n, 2), &format!("snapshot({n})"));
    }
    for n in [2, 3, 4] {
        assert_clean(&fd_boost::build(n), &format!("fd-boost({n})"));
    }
    for (n, k, k_prime) in [(4, 2, 1), (6, 4, 2)] {
        let sys = protocols::set_boost::build(SetBoostParams { n, k, k_prime });
        assert_clean(&sys, &format!("set-boost({n},{k},{k_prime})"));
    }
    for n in [2, 3] {
        assert_clean(&derived_fd::build(n), &format!("derived-fd({n})"));
    }
}

#[test]
fn cli_audit_all_is_clean_and_exits_0() {
    let out = repro(&["audit"]);
    let text = stdout_of(&out);
    assert_eq!(out.status.code(), Some(0), "got:\n{text}");
    assert!(
        !text.contains("VIOLATION"),
        "no violation lines on clean substrates, got:\n{text}"
    );
    assert!(
        text.contains("audited 12 substrate(s): 0 violation(s)"),
        "the sweep must cover all 12 in-tree substrates, got:\n{text}"
    );
}

// ---------------------------------------------------------------------
// No false negatives: each broken fixture trips its rule
// ---------------------------------------------------------------------

#[test]
fn lying_symmetry_is_caught_by_symmetry_honesty() {
    let report = audit_system(&lying_symmetry(2, 0), "broken-sym", &AuditConfig::default());
    let rule = report.rule(RuleId::SymmetryHonesty).unwrap();
    assert_eq!(rule.status, RuleStatus::Violation, "got:\n{report}");
    assert!(
        rule.violations
            .iter()
            .any(|v| v.counterexample.contains("on_init")),
        "the counterexample names the diverging hook, got:\n{report}"
    );
    assert_eq!(report.exit_code(), 1);
    // The only contract this fixture breaks is the symmetry flag.
    for r in [
        RuleId::TaskPartition,
        RuleId::TaskDeterminism,
        RuleId::EffectPurity,
    ] {
        assert_eq!(
            report.rule(r).unwrap().status,
            RuleStatus::Clean,
            "rule {r} must stay clean on broken-sym:\n{report}"
        );
    }
}

#[test]
fn impure_effect_is_caught_by_effect_purity() {
    let report = audit_system(
        &impure_direct(2, 0),
        "broken-impure",
        &AuditConfig::default(),
    );
    let rule = report.rule(RuleId::EffectPurity).unwrap();
    assert_eq!(rule.status, RuleStatus::Violation, "got:\n{report}");
    assert!(
        rule.violations
            .iter()
            .any(|v| v.counterexample.contains("dual evaluation")),
        "got:\n{report}"
    );
    assert_eq!(report.exit_code(), 1);
}

#[test]
fn overlapping_tasks_are_caught_by_task_partition() {
    let report = audit_automaton(
        &overlapping_tasks(),
        "broken-tasks",
        &AuditConfig::default(),
    );
    let rule = report.rule(RuleId::TaskPartition).unwrap();
    assert_eq!(rule.status, RuleStatus::Violation, "got:\n{report}");
    // All three partition failure modes surface: the duplicate task,
    // the undeclared owner, and the cross-task emission.
    let all = rule
        .violations
        .iter()
        .map(|v| v.counterexample.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(all.contains("more than once"), "got:\n{report}");
    assert!(all.contains("never declares"), "got:\n{report}");
    assert!(all.contains("owned by task"), "got:\n{report}");
    assert_eq!(report.exit_code(), 1);
}

#[test]
fn cli_flags_each_broken_class_with_its_rule_id() {
    for (class, rule) in [
        ("broken-sym", "symmetry-honesty"),
        ("broken-impure", "effect-purity"),
        ("broken-tasks", "task-partition"),
    ] {
        let out = repro(&["audit", "--class", class]);
        let text = stdout_of(&out);
        assert_eq!(out.status.code(), Some(1), "{class} got:\n{text}");
        assert!(
            text.contains(&format!("VIOLATION rule={rule}")),
            "{class} must print a machine-readable {rule} violation, got:\n{text}"
        );
    }
}

#[test]
fn cli_unknown_class_exits_2_with_usage() {
    let out = repro(&["audit", "--class", "no-such-substrate"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("usage:"), "got: {err:?}");
}

// ---------------------------------------------------------------------
// Consumer-side teeth: audit-gated quotient degradation
// ---------------------------------------------------------------------

#[test]
fn effective_symmetry_degrades_the_liar_and_trusts_the_honest() {
    let liar = lying_symmetry(2, 0);
    assert_eq!(
        effective_symmetry(&liar, SymmetryMode::Full),
        SymmetryMode::Off,
        "a rejected symmetry claim must degrade Full to Off"
    );
    // Off requests pass through untouched — no audit runs at all.
    assert_eq!(
        effective_symmetry(&liar, SymmetryMode::Off),
        SymmetryMode::Off
    );
    let honest = doomed_atomic(2, 0);
    assert_eq!(
        effective_symmetry(&honest, SymmetryMode::Full),
        SymmetryMode::Full,
        "an honest substrate keeps its quotient"
    );
}

#[test]
fn quotient_request_on_the_liar_reproduces_the_full_build() {
    // Requesting Full on the lying substrate must be indistinguishable
    // from requesting Off: same interned-state count, same root
    // valence — because build_with_symmetry launders the mode through
    // the audit before exploring.
    let sys = lying_symmetry(2, 0);
    let root = initialize(&sys, &InputAssignment::monotone(2, 1));
    let off = ValenceMap::build_with_symmetry(&sys, root.clone(), 1_000_000, 1, SymmetryMode::Off)
        .unwrap();
    let full =
        ValenceMap::build_with_symmetry(&sys, root, 1_000_000, 1, SymmetryMode::Full).unwrap();
    assert_eq!(
        off.state_count(),
        full.state_count(),
        "the degraded build must equal the Off build"
    );
    assert_eq!(off.valences()[0], full.valences()[0], "same root valence");
}

#[test]
fn quotient_request_on_the_honest_substrate_still_reduces() {
    // The degradation gate must not tax honest substrates: the audited
    // quotient build stays strictly smaller than the full one (the
    // whole point of the symmetry layer).
    let sys = doomed_atomic(3, 1);
    let root = initialize(&sys, &InputAssignment::monotone(3, 0));
    let off = ValenceMap::build_with_symmetry(&sys, root.clone(), 1_000_000, 1, SymmetryMode::Off)
        .unwrap();
    let full =
        ValenceMap::build_with_symmetry(&sys, root, 1_000_000, 1, SymmetryMode::Full).unwrap();
    assert!(
        full.state_count() < off.state_count(),
        "honest quotient must stay a strict reduction: {} vs {}",
        full.state_count(),
        off.state_count()
    );
}

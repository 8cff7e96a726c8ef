//! `repro audit`: a component-local static contract analyzer for
//! substrates.
//!
//! Every optimization layer in this repository is sound only under
//! contracts the substrate constructors *declare* rather than *prove*:
//! the orbit quotient (`system::packed`) trusts
//! [`ProcessAutomaton::id_symmetric`] and
//! [`services::Service::endpoint_symmetric`], the effect cache trusts
//! that the deterministic halves of transitions are pure functions of
//! interned component ids, and `succ_det` trusts that each task's
//! determinized transition is a stable function of the state. A lying
//! flag or an impure effect silently corrupts *theorem verdicts* — the
//! worst failure mode a reproduction of an impossibility proof can
//! have. This module checks those contracts statically, per component,
//! **without global state-space exploration**.
//!
//! # Component locality
//!
//! Every check enumerates only *component-local* state closures:
//!
//! * per service `S_c`, the closure of its initial states under its own
//!   five transition families (enqueue, perform, pop-response, compute,
//!   fail), with per-endpoint buffers depth-capped;
//! * per process `P_i`, the closure of its start state under `on_init`
//!   (over [`ProcessAutomaton::audit_inputs`]), `step`, and
//!   `on_response` (over the response vocabulary harvested from the
//!   service closures).
//!
//! System-level rules evaluate tasks on *probe states*: the base
//! initial system state with exactly one component slot substituted by
//! an enumerated local state. A probe evaluates only the substituted
//! component's own tasks, so the total work is `Σ_c |closure(c)| ·
//! |tasks(c)|` — polynomial in component size, never in the product
//! space. Closures are budget-capped ([`AuditConfig`]); hitting the cap
//! bounds *coverage* (recorded in the report), it is not a violation.
//!
//! # Rule catalog
//!
//! | rule id | contract checked |
//! |---|---|
//! | `task-partition` | tasks partition the locally controlled actions: no duplicate tasks, no action owned by two tasks, no orphan or ghost-owned vocabulary action, inputs belong to no task |
//! | `task-determinism` | per task and component state: the determinization is canonical (`succ_det` = first branch), enumeration is stable across calls, process tasks have exactly one branch, at most one distinct non-dummy action label |
//! | `symmetry-honesty` | each claimed `id_symmetric`/`endpoint_symmetric` flag: the component-local transition functions commute with id permutations (adjacent transpositions generate the whole group) |
//! | `effect-purity` | dual evaluation of every cached deterministic half on isomorphic contexts agrees — the `effect_cache` soundness precondition |
//! | `independence-census` | report artifact: the static table of commuting task pairs (disjoint footprints), the enabling input for partial-order reduction |
//!
//! # Degradation semantics
//!
//! Exit codes are 0 (clean), 1 (some rule has a violation), 2 (no
//! violations but some rule was unauditable — e.g. an automaton without
//! introspection hooks). Quotient exploration consults
//! [`effective_symmetry`] before trusting a symmetry flag: a substrate
//! whose claimed symmetry fails the audit degrades to
//! [`SymmetryMode::Off`] with a warning instead of poisoning the sweep.

use ioa::automaton::{ActionKind, Automaton};
use ioa::canon::{Perm, SymmetryMode};
use services::{ArcService, SvcState};
use spec::{ProcId, Resp, SvcId};
use std::collections::BTreeSet;
use std::fmt;
use std::fmt::Debug;
use system::action::{Action, Task};
use system::build::{CompleteSystem, SystemState};
use system::packed::{permute_svc_state, PackedSystem};
use system::process::ProcessAutomaton;

/// Budgets bounding every closure the auditor enumerates. All checks
/// stay polynomial in these bounds; hitting one records bounded
/// coverage in the report, it never fails the audit.
#[derive(Clone, Debug)]
pub struct AuditConfig {
    /// Cap on each component's enumerated local-state closure.
    pub max_component_states: usize,
    /// Per-endpoint FIFO depth beyond which closure successors are not
    /// expanded (invocation and response buffers both).
    pub buffer_depth: usize,
    /// Cap on recorded violations per rule (further ones are counted,
    /// not stored).
    pub max_violations: usize,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            max_component_states: 512,
            buffer_depth: 2,
            max_violations: 16,
        }
    }
}

impl AuditConfig {
    /// The tiny budget [`effective_symmetry`] pays *per exploration*:
    /// the gate sits in front of sub-millisecond quotient builds, so
    /// its closures are capped hard. Symmetry lies are overwhelmingly
    /// near-initial (a hook branching on the process id misbehaves on
    /// the very first states the closure visits), so the small cap
    /// keeps the gate's teeth; the full-budget audit (`repro audit`,
    /// CI) re-checks the same claims with real coverage.
    #[must_use]
    pub fn gate() -> Self {
        AuditConfig {
            max_component_states: 24,
            buffer_depth: 1,
            max_violations: 1,
        }
    }
}

/// The audit rules (see the module-level catalog).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Tasks partition the locally controlled action signature.
    TaskPartition,
    /// Per-task transitions determinize canonically and stably.
    TaskDeterminism,
    /// Claimed symmetry flags commute with id permutations.
    SymmetryHonesty,
    /// Transition effects are pure (dual evaluation agrees).
    EffectPurity,
    /// The commuting-task-pair census (report artifact, never fails).
    IndependenceCensus,
}

impl RuleId {
    /// The machine-readable rule id.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            RuleId::TaskPartition => "task-partition",
            RuleId::TaskDeterminism => "task-determinism",
            RuleId::SymmetryHonesty => "symmetry-honesty",
            RuleId::EffectPurity => "effect-purity",
            RuleId::IndependenceCensus => "independence-census",
        }
    }

    /// All rules, in report order.
    #[must_use]
    pub fn all() -> [RuleId; 5] {
        [
            RuleId::TaskPartition,
            RuleId::TaskDeterminism,
            RuleId::SymmetryHonesty,
            RuleId::EffectPurity,
            RuleId::IndependenceCensus,
        ]
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// The verdict of one rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuleStatus {
    /// Checked and no violation found (within the coverage budget).
    Clean,
    /// At least one counterexample found.
    Violation,
    /// The component exposes no surface this rule can audit.
    Unauditable,
}

/// One counterexample: which rule, which component, what went wrong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The violated rule.
    pub rule: RuleId,
    /// The offending component (`P3`, `S0`, the family, …).
    pub component: String,
    /// A human- and machine-grep-able description of the concrete
    /// divergence.
    pub counterexample: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "VIOLATION rule={} component={} counterexample={:?}",
            self.rule, self.component, self.counterexample
        )
    }
}

/// The outcome of one rule over one substrate.
#[derive(Clone, Debug)]
pub struct RuleResult {
    /// Which rule.
    pub rule: RuleId,
    /// Its verdict.
    pub status: RuleStatus,
    /// Recorded counterexamples (capped at
    /// [`AuditConfig::max_violations`]).
    pub violations: Vec<Violation>,
    /// Total counterexamples found, including unrecorded ones.
    pub violation_count: usize,
    /// Free-form coverage/result annotation (census numbers, "no
    /// symmetry claimed", …).
    pub note: Option<String>,
}

impl RuleResult {
    fn clean(rule: RuleId) -> Self {
        RuleResult {
            rule,
            status: RuleStatus::Clean,
            violations: Vec::new(),
            violation_count: 0,
            note: None,
        }
    }

    fn with_note(rule: RuleId, note: impl Into<String>) -> Self {
        RuleResult {
            note: Some(note.into()),
            ..Self::clean(rule)
        }
    }

    fn unauditable(rule: RuleId, note: impl Into<String>) -> Self {
        RuleResult {
            status: RuleStatus::Unauditable,
            ..Self::with_note(rule, note)
        }
    }

    fn push(&mut self, cfg: &AuditConfig, component: impl Into<String>, cx: impl Into<String>) {
        self.status = RuleStatus::Violation;
        self.violation_count += 1;
        if self.violations.len() < cfg.max_violations {
            self.violations.push(Violation {
                rule: self.rule,
                component: component.into(),
                counterexample: cx.into(),
            });
        }
    }
}

/// The full audit report for one substrate.
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// The audited substrate's display name.
    pub substrate: String,
    /// Per-rule outcomes, in [`RuleId::all`] order.
    pub rules: Vec<RuleResult>,
    /// Total component-local states enumerated across all closures.
    pub component_states: usize,
    /// Whether any closure hit a budget (coverage is bounded, not
    /// exhaustive).
    pub bounded: bool,
    /// Independence census: commuting task pairs over all unordered
    /// task pairs.
    pub independent_pairs: usize,
    /// Total unordered task pairs considered by the census.
    pub task_pairs: usize,
}

impl AuditReport {
    /// Whether every rule is [`RuleStatus::Clean`].
    #[must_use]
    pub fn clean(&self) -> bool {
        self.rules.iter().all(|r| r.status == RuleStatus::Clean)
    }

    /// Whether any rule found a counterexample.
    #[must_use]
    pub fn has_violations(&self) -> bool {
        self.rules.iter().any(|r| r.status == RuleStatus::Violation)
    }

    /// All recorded violations across rules.
    pub fn violations(&self) -> impl Iterator<Item = &Violation> {
        self.rules.iter().flat_map(|r| r.violations.iter())
    }

    /// The result of one rule.
    #[must_use]
    pub fn rule(&self, rule: RuleId) -> Option<&RuleResult> {
        self.rules.iter().find(|r| r.rule == rule)
    }

    /// The process exit code contract of `repro audit`: 1 if any rule
    /// has a violation; else 2 if any rule was unauditable; else 0.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        if self.has_violations() {
            1
        } else if self
            .rules
            .iter()
            .any(|r| r.status == RuleStatus::Unauditable)
        {
            2
        } else {
            0
        }
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "audit substrate={} component-states={} bounded={} independent-pairs={}/{}",
            self.substrate,
            self.component_states,
            self.bounded,
            self.independent_pairs,
            self.task_pairs
        )?;
        for r in &self.rules {
            let status = match r.status {
                RuleStatus::Clean => "clean",
                RuleStatus::Violation => "violation",
                RuleStatus::Unauditable => "unauditable",
            };
            write!(f, "  rule={} status={status}", r.rule)?;
            if r.violation_count > 0 {
                write!(f, " violations={}", r.violation_count)?;
            }
            if let Some(note) = &r.note {
                write!(f, " note={note:?}")?;
            }
            writeln!(f)?;
            for v in &r.violations {
                writeln!(f, "  {v}")?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Component-local closures
// ---------------------------------------------------------------------

/// The budget-capped closure of one service's local state space under
/// its own transition families. Returns the states (deterministic
/// order) and whether a budget was hit.
fn service_closure(svc: &ArcService, cfg: &AuditConfig) -> (Vec<SvcState>, bool) {
    let mut seen: BTreeSet<SvcState> = BTreeSet::new();
    let mut frontier: Vec<SvcState> = Vec::new();
    let mut bounded = false;
    for st in svc.initial_states() {
        if seen.insert(st.clone()) {
            frontier.push(st);
        }
    }
    let within_depth = |st: &SvcState| {
        st.inv_buf.values().all(|q| q.len() <= cfg.buffer_depth)
            && st.resp_buf.values().all(|q| q.len() <= cfg.buffer_depth)
    };
    while let Some(st) = frontier.pop() {
        if seen.len() >= cfg.max_component_states {
            bounded = true;
            break;
        }
        let mut succs: Vec<SvcState> = Vec::new();
        for &i in svc.endpoints() {
            for inv in svc.invocations() {
                if let Some(s2) = svc.enqueue_invocation(i, &inv, &st) {
                    succs.push(s2);
                }
            }
            succs.extend(svc.perform_all(i, &st));
            if let Some((_, s2)) = svc.pop_response(i, &st) {
                succs.push(s2);
            }
            succs.push(svc.apply_fail(i, &st));
        }
        for g in svc.global_tasks() {
            succs.extend(svc.compute_all(&g, &st));
        }
        for s2 in succs {
            if !within_depth(&s2) {
                bounded = true;
                continue;
            }
            if seen.len() >= cfg.max_component_states {
                bounded = true;
                break;
            }
            if seen.insert(s2.clone()) {
                frontier.push(s2);
            }
        }
    }
    (seen.into_iter().collect(), bounded)
}

/// The response vocabulary a service can emit, harvested from the
/// response buffers of its closure states (capped).
fn response_vocabulary(closure: &[SvcState], cap: usize) -> Vec<Resp> {
    let mut out: BTreeSet<Resp> = BTreeSet::new();
    for st in closure {
        for q in st.resp_buf.values() {
            for r in q {
                out.insert(r.clone());
                if out.len() >= cap {
                    return out.into_iter().collect();
                }
            }
        }
    }
    out.into_iter().collect()
}

/// The budget-capped closure of one process's local state space under
/// `on_init` / `step` / `on_response`.
fn process_closure<P: ProcessAutomaton>(
    procs: &P,
    i: ProcId,
    resp_vocab: &[(SvcId, Resp)],
    cfg: &AuditConfig,
) -> (Vec<P::State>, bool) {
    let mut seen: BTreeSet<P::State> = BTreeSet::new();
    let mut frontier: Vec<P::State> = vec![procs.initial(i)];
    seen.insert(procs.initial(i));
    let mut bounded = false;
    while let Some(st) = frontier.pop() {
        if seen.len() >= cfg.max_component_states {
            bounded = true;
            break;
        }
        let mut succs: Vec<P::State> = Vec::new();
        for v in procs.audit_inputs() {
            succs.push(procs.on_init(i, &st, &v));
        }
        succs.push(procs.step(i, &st).1);
        for (c, r) in resp_vocab {
            succs.push(procs.on_response(i, &st, *c, r));
        }
        for s2 in succs {
            if seen.len() >= cfg.max_component_states {
                bounded = true;
                break;
            }
            if seen.insert(s2.clone()) {
                frontier.push(s2);
            }
        }
    }
    (seen.into_iter().collect(), bounded)
}

/// One probe: the base initial state with a single component slot
/// substituted, plus the tasks that belong to that component. Probes
/// are what keeps system-level rules component-local: a probe is only
/// ever evaluated against its own component's tasks.
struct Probe<PS> {
    component: String,
    state: SystemState<PS>,
    tasks: Vec<Task>,
}

fn probes<P: ProcessAutomaton>(
    sys: &CompleteSystem<P>,
    svc_closures: &[Vec<SvcState>],
    proc_closures: &[Vec<P::State>],
) -> Vec<Probe<P::State>> {
    let base = sys
        .initial_states()
        .into_iter()
        .next()
        .expect("a system has at least one initial state");
    let mut out = Vec::new();
    for (c, closure) in svc_closures.iter().enumerate() {
        let c = SvcId(c);
        let svc = &sys.services()[c.0];
        let mut tasks: Vec<Task> = Vec::new();
        for &i in svc.endpoints() {
            tasks.push(Task::Perform(c, i));
            tasks.push(Task::Output(c, i));
        }
        for g in svc.global_tasks() {
            tasks.push(Task::Compute(c, g));
        }
        for st in closure {
            let mut probe = base.clone();
            // Mirror the component's failure view into the global
            // failed set so the probe is a coherent system state.
            probe.failed = st.failed.clone();
            probe.services[c.0] = st.clone();
            out.push(Probe {
                component: format!("{c}"),
                state: probe,
                tasks: tasks.clone(),
            });
        }
    }
    for (i, closure) in proc_closures.iter().enumerate() {
        let i = ProcId(i);
        for st in closure {
            // The closure over-approximates the reachable local states
            // (responses are fed in without regard to invocation
            // history), so a closure state may ask for a step the
            // composition rejects by panic (an invalid invocation, a
            // decide that fails to record). Those states can never be
            // part of a coherent system state — skip them rather than
            // crash the auditor.
            if !proc_probe_safe(sys, i, st) {
                continue;
            }
            let mut probe = base.clone();
            probe.procs[i.0] = st.clone();
            out.push(Probe {
                component: format!("{i}"),
                state: probe,
                tasks: vec![Task::Proc(i)],
            });
        }
    }
    out
}

/// Whether substituting local state `st` into `P_i`'s slot yields a
/// probe the composition can evaluate without panicking: the next step
/// must not be an invocation the target service rejects, nor a decide
/// that fails to record its value (both are construction errors the
/// composition asserts on, not transitions).
fn proc_probe_safe<P: ProcessAutomaton>(sys: &CompleteSystem<P>, i: ProcId, st: &P::State) -> bool {
    let (act, st2) = sys.process_automaton().step(i, st);
    match act {
        system::ProcAction::Invoke(c, inv) => sys
            .services()
            .get(c.0)
            .is_some_and(|svc| svc.endpoints().contains(&i) && svc.is_invocation(&inv)),
        system::ProcAction::Decide(v) => sys.process_automaton().decision(&st2) == Some(v),
        _ => true,
    }
}

// ---------------------------------------------------------------------
// Rules (a), (b), (d): partition, determinism, purity — generic over
// any Automaton, evaluated on probe states.
// ---------------------------------------------------------------------

/// One probe: a component label, a state drawn from its closure, and
/// the tasks to exercise there.
type ProbeTasks<A> = [(String, <A as Automaton>::State, Vec<<A as Automaton>::Task>)];

fn check_partition<A: Automaton>(
    aut: &A,
    cfg: &AuditConfig,
    probe_tasks: &ProbeTasks<A>,
) -> RuleResult
where
    A::Action: Debug,
{
    let mut res = RuleResult::clean(RuleId::TaskPartition);
    // No duplicate tasks — auditable with no introspection surface at
    // all, so it runs unconditionally.
    let tasks = aut.tasks();
    let mut seen: BTreeSet<A::Task> = BTreeSet::new();
    for t in &tasks {
        if !seen.insert(t.clone()) {
            res.push(
                cfg,
                "tasks",
                format!("task {t:?} declared more than once in tasks()"),
            );
        }
    }
    // The ownership checks need an introspection surface: a declared
    // vocabulary, or an `action_owner` that answers for at least one
    // observed action. An automaton with neither (both hooks left at
    // their defaults) is unauditable here, not in violation.
    let vocab = aut.action_vocabulary();
    let observed: Vec<(&String, &A::Task, A::Action)> = probe_tasks
        .iter()
        .flat_map(|(component, state, tasks)| {
            tasks.iter().flat_map(move |t| {
                aut.succ_all(t, state)
                    .into_iter()
                    .map(move |(a, _)| (component, t, a))
            })
        })
        .collect();
    let has_surface = !vocab.is_empty()
        || observed
            .iter()
            .any(|(_, _, a)| aut.action_owner(a).is_some());
    if !has_surface {
        if res.status == RuleStatus::Violation {
            return res;
        }
        return RuleResult::unauditable(
            RuleId::TaskPartition,
            "automaton declares no action vocabulary and no action owners",
        );
    }
    // Vocabulary ownership: inputs own nothing, locally controlled
    // actions own exactly one *declared* task.
    for a in &vocab {
        let owner = aut.action_owner(a);
        match (aut.kind(a), owner) {
            (ActionKind::Input, Some(t)) => res.push(
                cfg,
                "signature",
                format!("input action {a:?} claims owner task {t:?}; inputs belong to no task"),
            ),
            (ActionKind::Input, None) => {}
            (_, None) => res.push(
                cfg,
                "signature",
                format!("locally controlled action {a:?} is owned by no task (orphan)"),
            ),
            (_, Some(t)) => {
                if !seen.contains(&t) {
                    res.push(
                        cfg,
                        "signature",
                        format!("action {a:?} owned by task {t:?}, which tasks() never declares"),
                    );
                }
            }
        }
    }
    // Observed producers: every action a task actually emits must be
    // owned by that task — an action emitted by two tasks trips this on
    // (at least) one of them.
    for (component, t, a) in &observed {
        match aut.action_owner(a) {
            None => res.push(
                cfg,
                (*component).clone(),
                format!("task {t:?} emits {a:?}, which is owned by no task"),
            ),
            Some(o) if &o != *t => res.push(
                cfg,
                (*component).clone(),
                format!("task {t:?} emits {a:?}, which is owned by task {o:?}"),
            ),
            Some(_) => {}
        }
    }
    res
}

fn check_determinism<A: Automaton>(
    aut: &A,
    cfg: &AuditConfig,
    probe_tasks: &ProbeTasks<A>,
    is_dummy: impl Fn(&A::Action) -> bool,
    single_branch: impl Fn(&A::Task) -> bool,
) -> RuleResult
where
    A::Action: Debug + Ord,
    A::State: Debug,
{
    let mut res = RuleResult::clean(RuleId::TaskDeterminism);
    for (component, state, tasks) in probe_tasks {
        for t in tasks {
            let branches = aut.succ_all(t, state);
            // Canonical determinization: succ_det is the first branch.
            let det = aut.succ_det(t, state);
            if det.as_ref() != branches.first() {
                res.push(
                    cfg,
                    component.clone(),
                    format!("succ_det({t:?}) is not the first succ_all branch at {state:?}"),
                );
            }
            if aut.applicable(t, state) == branches.is_empty() {
                res.push(
                    cfg,
                    component.clone(),
                    format!("applicable({t:?}) disagrees with succ_all emptiness at {state:?}"),
                );
            }
            if single_branch(t) && branches.len() != 1 {
                res.push(
                    cfg,
                    component.clone(),
                    format!(
                        "task {t:?} has {} branches (expected exactly 1) at {state:?}",
                        branches.len()
                    ),
                );
            }
            // At most one distinct non-dummy action label per task per
            // state: the Section 3.1 "transition(e, s) is a function"
            // reading of the task structure.
            let labels: BTreeSet<&A::Action> = branches
                .iter()
                .map(|(a, _)| a)
                .filter(|a| !is_dummy(a))
                .collect();
            if labels.len() > 1 {
                res.push(
                    cfg,
                    component.clone(),
                    format!(
                        "task {t:?} enables {} distinct actions {labels:?} at {state:?}",
                        labels.len()
                    ),
                );
            }
        }
    }
    res
}

fn check_purity_probes<A: Automaton>(
    aut: &A,
    cfg: &AuditConfig,
    probe_tasks: &ProbeTasks<A>,
) -> RuleResult
where
    A::Action: Debug,
{
    let mut res = RuleResult::clean(RuleId::EffectPurity);
    for (component, state, tasks) in probe_tasks {
        for t in tasks {
            // Dual evaluation on isomorphic contexts: the same state
            // value, materialized twice (the second via a fresh deep
            // clone), must produce bit-identical branch lists. Hidden
            // inputs (interior mutability, global counters, allocation
            // order) diverge here.
            let r1 = aut.succ_all(t, state);
            let r2 = aut.succ_all(t, &state.clone());
            if r1 != r2 {
                res.push(
                    cfg,
                    component.clone(),
                    format!(
                        "succ_all({t:?}) diverged across dual evaluation: \
                         {} vs {} branches (first action {:?} vs {:?})",
                        r1.len(),
                        r2.len(),
                        r1.first().map(|(a, _)| a),
                        r2.first().map(|(a, _)| a)
                    ),
                );
            }
        }
    }
    res
}

// ---------------------------------------------------------------------
// Rule (c): symmetry honesty
// ---------------------------------------------------------------------

/// Sorts a successor list so branch-order differences don't mask or
/// fake a symmetry violation (δ branch order may legitimately follow
/// endpoint order, which a transposition permutes).
fn sorted(mut v: Vec<SvcState>) -> Vec<SvcState> {
    v.sort();
    v
}

fn check_symmetry<P: ProcessAutomaton>(
    sys: &CompleteSystem<P>,
    cfg: &AuditConfig,
    svc_closures: &[Vec<SvcState>],
    proc_closures: &[Vec<P::State>],
) -> RuleResult {
    let procs = sys.process_automaton();
    let n = sys.process_count();
    let mut res = RuleResult::clean(RuleId::SymmetryHonesty);
    let mut audited = 0usize;

    // Process family: id-symmetric means every method is the same
    // function of the state for every i. Compare all i against P0 on
    // P0's enumerated closure (the state type is shared).
    if procs.id_symmetric() && n >= 2 {
        audited += 1;
        let p0 = ProcId(0);
        let resp_vocab = harvest_resp_vocab(svc_closures);
        for st in &proc_closures[0] {
            for i in (1..n).map(ProcId) {
                if procs.initial(i) != procs.initial(p0) {
                    res.push(
                        cfg,
                        format!("{i}"),
                        format!("initial({i}) != initial({p0}) despite id_symmetric()"),
                    );
                }
                for v in procs.audit_inputs() {
                    if procs.on_init(i, st, &v) != procs.on_init(p0, st, &v) {
                        res.push(
                            cfg,
                            format!("{i}"),
                            format!(
                                "on_init({v}) at state {st:?} differs between {p0} and {i} \
                                 despite id_symmetric()"
                            ),
                        );
                    }
                }
                // ProcAction carries no ProcId, so strict equality is
                // the right comparison for the whole step pair.
                if procs.step(i, st) != procs.step(p0, st) {
                    res.push(
                        cfg,
                        format!("{i}"),
                        format!(
                            "step at state {st:?} differs between {p0} and {i} \
                             despite id_symmetric()"
                        ),
                    );
                }
                for (c, r) in &resp_vocab {
                    if procs.on_response(i, st, *c, r) != procs.on_response(p0, st, *c, r) {
                        res.push(
                            cfg,
                            format!("{i}"),
                            format!(
                                "on_response({c}, {r}) at state {st:?} differs between {p0} \
                                 and {i} despite id_symmetric()"
                            ),
                        );
                    }
                }
            }
        }
    }

    // Services: endpoint-symmetric means relabeling endpoints commutes
    // with every transition. Adjacent transpositions of the (sorted)
    // endpoint list generate the full symmetric group on J, so |J| - 1
    // generators suffice — the check stays polynomial where enumerating
    // the group would be factorial.
    for (c, svc) in sys.services().iter().enumerate() {
        if !svc.endpoint_symmetric() {
            continue;
        }
        audited += 1;
        let c = SvcId(c);
        let js: Vec<ProcId> = svc.endpoints().iter().copied().collect();
        let perm_size = n.max(js.iter().map(|j| j.0 + 1).max().unwrap_or(0));
        for w in js.windows(2) {
            let (a, b) = (w[0], w[1]);
            let pi = Perm::from_map((0..perm_size).map(|k| {
                if k == a.0 {
                    b.0
                } else if k == b.0 {
                    a.0
                } else {
                    k
                }
            }));
            let swap = |i: ProcId| ProcId(pi.apply(i.0));
            for st in &svc_closures[c.0] {
                let pst = permute_svc_state(&pi, st);
                for &i in &js {
                    // enqueue commutes.
                    for inv in svc.invocations() {
                        let lhs = svc
                            .enqueue_invocation(i, &inv, st)
                            .map(|s| permute_svc_state(&pi, &s));
                        let rhs = svc.enqueue_invocation(swap(i), &inv, &pst);
                        if lhs != rhs {
                            res.push(
                                cfg,
                                format!("{c}"),
                                format!(
                                    "enqueue({inv}) at endpoint {i} does not commute with \
                                     swap({a},{b}) on state [{st}]"
                                ),
                            );
                        }
                    }
                    // perform commutes (as a set of successors).
                    let lhs = sorted(
                        svc.perform_all(i, st)
                            .iter()
                            .map(|s| permute_svc_state(&pi, s))
                            .collect(),
                    );
                    let rhs = sorted(svc.perform_all(swap(i), &pst));
                    if lhs != rhs {
                        res.push(
                            cfg,
                            format!("{c}"),
                            format!(
                                "perform at endpoint {i} does not commute with \
                                 swap({a},{b}) on state [{st}]"
                            ),
                        );
                    }
                    // pop_response commutes, response value untouched.
                    let lhs = svc
                        .pop_response(i, st)
                        .map(|(r, s)| (r, permute_svc_state(&pi, &s)));
                    let rhs = svc.pop_response(swap(i), &pst);
                    if lhs != rhs {
                        res.push(
                            cfg,
                            format!("{c}"),
                            format!(
                                "pop_response at endpoint {i} does not commute with \
                                 swap({a},{b}) on state [{st}]"
                            ),
                        );
                    }
                    // dummy enablement is invariant.
                    if svc.dummy_perform_enabled(i, st) != svc.dummy_perform_enabled(swap(i), &pst)
                        || svc.dummy_output_enabled(i, st)
                            != svc.dummy_output_enabled(swap(i), &pst)
                    {
                        res.push(
                            cfg,
                            format!("{c}"),
                            format!(
                                "dummy enablement at endpoint {i} not invariant under \
                                 swap({a},{b}) on state [{st}]"
                            ),
                        );
                    }
                    // fail commutes.
                    let lhs = permute_svc_state(&pi, &svc.apply_fail(i, st));
                    let rhs = svc.apply_fail(swap(i), &pst);
                    if lhs != rhs {
                        res.push(
                            cfg,
                            format!("{c}"),
                            format!(
                                "apply_fail at endpoint {i} does not commute with \
                                 swap({a},{b}) on state [{st}]"
                            ),
                        );
                    }
                }
                // compute commutes.
                for g in svc.global_tasks() {
                    let lhs = sorted(
                        svc.compute_all(&g, st)
                            .iter()
                            .map(|s| permute_svc_state(&pi, s))
                            .collect(),
                    );
                    let rhs = sorted(svc.compute_all(&g, &pst));
                    if lhs != rhs {
                        res.push(
                            cfg,
                            format!("{c}"),
                            format!(
                                "compute({g}) does not commute with swap({a},{b}) \
                                 on state [{st}]"
                            ),
                        );
                    }
                }
                if svc.dummy_compute_enabled(st) != svc.dummy_compute_enabled(&pst) {
                    res.push(
                        cfg,
                        format!("{c}"),
                        format!(
                            "dummy_compute enablement not invariant under swap({a},{b}) \
                             on state [{st}]"
                        ),
                    );
                }
            }
        }
    }

    if audited == 0 && res.status == RuleStatus::Clean {
        res.note = Some("no component claims symmetry; nothing to audit".into());
    } else if res.status == RuleStatus::Clean {
        res.note = Some(format!("{audited} symmetry claim(s) verified"));
    }
    res
}

/// The subset of the response vocabulary process `i` can actually
/// receive: `b_{i,c}` actions exist only for services with `i` in
/// their endpoint set, so feeding a foreign service's responses into
/// `on_response` would enumerate states with no composition meaning.
fn endpoint_resp_vocab<P: ProcessAutomaton>(
    sys: &CompleteSystem<P>,
    i: ProcId,
    resp_vocab: &[(SvcId, Resp)],
) -> Vec<(SvcId, Resp)> {
    resp_vocab
        .iter()
        .filter(|(c, _)| sys.services()[c.0].endpoints().contains(&i))
        .cloned()
        .collect()
}

fn harvest_resp_vocab(svc_closures: &[Vec<SvcState>]) -> Vec<(SvcId, Resp)> {
    let mut out = Vec::new();
    for (c, closure) in svc_closures.iter().enumerate() {
        for r in response_vocabulary(closure, 8) {
            out.push((SvcId(c), r));
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rule (d) on component transition functions directly
// ---------------------------------------------------------------------

fn check_purity_components<P: ProcessAutomaton>(
    sys: &CompleteSystem<P>,
    cfg: &AuditConfig,
    svc_closures: &[Vec<SvcState>],
    proc_closures: &[Vec<P::State>],
    res: &mut RuleResult,
) {
    let procs = sys.process_automaton();
    let resp_vocab = harvest_resp_vocab(svc_closures);
    for (i, closure) in proc_closures.iter().enumerate() {
        let i = ProcId(i);
        for st in closure {
            if procs.step(i, st) != procs.step(i, &st.clone()) {
                res.push(
                    cfg,
                    format!("{i}"),
                    format!("step at state {st:?} diverged across dual evaluation"),
                );
            }
            for v in procs.audit_inputs() {
                if procs.on_init(i, st, &v) != procs.on_init(i, &st.clone(), &v) {
                    res.push(
                        cfg,
                        format!("{i}"),
                        format!("on_init({v}) at state {st:?} diverged across dual evaluation"),
                    );
                }
            }
            for (c, r) in &resp_vocab {
                if procs.on_response(i, st, *c, r) != procs.on_response(i, &st.clone(), *c, r) {
                    res.push(
                        cfg,
                        format!("{i}"),
                        format!(
                            "on_response({c}, {r}) at state {st:?} diverged across dual \
                             evaluation"
                        ),
                    );
                }
            }
        }
    }
    for (c, svc) in sys.services().iter().enumerate() {
        let c = SvcId(c);
        for st in &svc_closures[c.0] {
            for &i in svc.endpoints() {
                if svc.perform_all(i, st) != svc.perform_all(i, &st.clone()) {
                    res.push(
                        cfg,
                        format!("{c}"),
                        format!("perform_all({i}) at [{st}] diverged across dual evaluation"),
                    );
                }
            }
            for g in svc.global_tasks() {
                if svc.compute_all(&g, st) != svc.compute_all(&g, &st.clone()) {
                    res.push(
                        cfg,
                        format!("{c}"),
                        format!("compute_all({g}) at [{st}] diverged across dual evaluation"),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule (e): independence census
// ---------------------------------------------------------------------

/// The static read/write footprint of a task: the component slots a
/// firing may touch. Over-approximate by construction (a process task
/// is charged with every service it is wired to), which keeps the
/// census sound: a pair reported independent provably commutes.
fn footprint<P: ProcessAutomaton>(sys: &CompleteSystem<P>, t: &Task) -> BTreeSet<String> {
    let mut fp = BTreeSet::new();
    match t {
        Task::Proc(i) => {
            fp.insert(format!("{i}"));
            for (c, svc) in sys.services().iter().enumerate() {
                if svc.endpoints().contains(i) {
                    fp.insert(format!("{}", SvcId(c)));
                }
            }
        }
        Task::Perform(c, _) | Task::Compute(c, _) => {
            fp.insert(format!("{c}"));
        }
        Task::Output(c, i) => {
            fp.insert(format!("{c}"));
            fp.insert(format!("{i}"));
        }
    }
    fp
}

/// The independence census: all unordered task pairs with disjoint
/// static footprints. Such pairs commute from every state — the
/// enabling fact for a future partial-order-reduction layer.
#[must_use]
pub fn independence_census<P: ProcessAutomaton>(
    sys: &CompleteSystem<P>,
) -> (Vec<(Task, Task)>, usize) {
    let tasks = sys.tasks();
    let fps: Vec<BTreeSet<String>> = tasks.iter().map(|t| footprint(sys, t)).collect();
    let mut pairs = Vec::new();
    let mut total = 0usize;
    for x in 0..tasks.len() {
        for y in x + 1..tasks.len() {
            total += 1;
            if fps[x].is_disjoint(&fps[y]) {
                pairs.push((tasks[x].clone(), tasks[y].clone()));
            }
        }
    }
    (pairs, total)
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// Audits a complete system: all five rules, each component-local.
#[must_use]
pub fn audit_system<P: ProcessAutomaton>(
    sys: &CompleteSystem<P>,
    name: &str,
    cfg: &AuditConfig,
) -> AuditReport {
    let mut bounded = false;
    let mut svc_closures: Vec<Vec<SvcState>> = Vec::new();
    for svc in sys.services() {
        let (states, b) = service_closure(svc, cfg);
        bounded |= b;
        svc_closures.push(states);
    }
    let resp_vocab = harvest_resp_vocab(&svc_closures);
    let mut proc_closures: Vec<Vec<P::State>> = Vec::new();
    for i in 0..sys.process_count() {
        let vocab_i = endpoint_resp_vocab(sys, ProcId(i), &resp_vocab);
        let (states, b) = process_closure(sys.process_automaton(), ProcId(i), &vocab_i, cfg);
        bounded |= b;
        proc_closures.push(states);
    }
    let component_states = svc_closures.iter().map(Vec::len).sum::<usize>()
        + proc_closures.iter().map(Vec::len).sum::<usize>();

    let probe_list = probes(sys, &svc_closures, &proc_closures);
    let probe_tasks: Vec<(String, SystemState<P::State>, Vec<Task>)> = probe_list
        .into_iter()
        .map(|p| (p.component, p.state, p.tasks))
        .collect();

    let partition = check_partition(sys, cfg, &probe_tasks);
    let determinism = check_determinism(sys, cfg, &probe_tasks, Action::is_dummy, |t| {
        matches!(t, Task::Proc(_))
    });
    let symmetry = check_symmetry(sys, cfg, &svc_closures, &proc_closures);
    let mut purity = check_purity_probes(sys, cfg, &probe_tasks);
    check_purity_components(sys, cfg, &svc_closures, &proc_closures, &mut purity);

    let (pairs, total) = independence_census(sys);
    let census = RuleResult::with_note(
        RuleId::IndependenceCensus,
        format!("{} of {total} task pairs commute", pairs.len()),
    );

    AuditReport {
        substrate: name.to_string(),
        rules: vec![partition, determinism, symmetry, purity, census],
        component_states,
        bounded,
        independent_pairs: pairs.len(),
        task_pairs: total,
    }
}

/// Audits an arbitrary [`Automaton`] through its introspection hooks
/// alone: task partition, determinism, and purity over the closure of
/// its initial states. Symmetry and the census need the composed-system
/// surface and are not included. With neither
/// [`Automaton::action_vocabulary`] nor [`Automaton::action_owner`]
/// overridden, the partition rule reports [`RuleStatus::Unauditable`].
#[must_use]
pub fn audit_automaton<A: Automaton>(aut: &A, name: &str, cfg: &AuditConfig) -> AuditReport
where
    A::Action: Debug + Ord,
    A::State: Debug,
{
    // Closure of the initial states under every task (plus vocabulary
    // inputs): for a single component automaton this *is* the
    // component-local state space, budget-capped as usual.
    let mut seen: BTreeSet<A::State> = BTreeSet::new();
    let mut frontier: Vec<A::State> = Vec::new();
    let mut bounded = false;
    for s in aut.initial_states() {
        if seen.insert(s.clone()) {
            frontier.push(s);
        }
    }
    let tasks = aut.tasks();
    let inputs: Vec<A::Action> = aut
        .action_vocabulary()
        .into_iter()
        .filter(|a| aut.kind(a) == ActionKind::Input)
        .collect();
    while let Some(s) = frontier.pop() {
        if seen.len() >= cfg.max_component_states {
            bounded = true;
            break;
        }
        let mut succs: Vec<A::State> = Vec::new();
        for t in &tasks {
            succs.extend(aut.succ_all(t, &s).into_iter().map(|(_, s2)| s2));
        }
        for a in &inputs {
            succs.extend(aut.apply_input(&s, a));
        }
        for s2 in succs {
            if seen.len() >= cfg.max_component_states {
                bounded = true;
                break;
            }
            if seen.insert(s2.clone()) {
                frontier.push(s2);
            }
        }
    }
    let component_states = seen.len();
    let probe_tasks: Vec<(String, A::State, Vec<A::Task>)> = seen
        .into_iter()
        .map(|s| (name.to_string(), s, tasks.clone()))
        .collect();

    let partition = check_partition(aut, cfg, &probe_tasks);
    let determinism = check_determinism(aut, cfg, &probe_tasks, |_| false, |_| false);
    let purity = check_purity_probes(aut, cfg, &probe_tasks);

    AuditReport {
        substrate: name.to_string(),
        rules: vec![partition, determinism, purity],
        component_states,
        bounded,
        independent_pairs: 0,
        task_pairs: 0,
    }
}

/// The symmetry mode quotient exploration may actually trust: the
/// requested mode, degraded to [`SymmetryMode::Off`] (with a warning
/// on stderr) when the substrate's symmetry claims fail the
/// `symmetry-honesty` audit. Substrates that claim no symmetry, and
/// systems the packed canonicalizer would not quotient anyway, pass
/// through unchanged — honest substrates pay one small
/// component-local audit per *system instance* (the verdict is
/// memoized on the composition), never a state-space sweep.
#[must_use]
pub fn effective_symmetry<P: ProcessAutomaton>(
    sys: &CompleteSystem<P>,
    requested: SymmetryMode,
) -> SymmetryMode {
    if !requested.reduces() || !PackedSystem::symmetric_system(sys) {
        // Nothing to degrade: either the quotient is off, or the packed
        // layer will degenerate to the identity on its own.
        return requested;
    }
    // The verdict is a pure function of the immutable composition, so
    // it is memoized on the system instance: repeated explorations of
    // one system (the common shape in sweeps and benches) pay the gate
    // once, then an atomic load. The degradation warning consequently
    // prints once per system, not once per exploration.
    let trusted = *sys.symmetry_audit_cache().get_or_init(|| {
        let cfg = AuditConfig::gate();
        let mut svc_closures: Vec<Vec<SvcState>> = Vec::new();
        for svc in sys.services() {
            let (states, _) = service_closure(svc, &cfg);
            svc_closures.push(states);
        }
        let resp_vocab = harvest_resp_vocab(&svc_closures);
        let mut proc_closures: Vec<Vec<P::State>> = Vec::new();
        for i in 0..sys.process_count() {
            let vocab_i = endpoint_resp_vocab(sys, ProcId(i), &resp_vocab);
            let (states, _) = process_closure(sys.process_automaton(), ProcId(i), &vocab_i, &cfg);
            proc_closures.push(states);
        }
        let result = check_symmetry(sys, &cfg, &svc_closures, &proc_closures);
        let trusted = result.status != RuleStatus::Violation;
        if !trusted {
            eprintln!(
                "warning: symmetry-honesty audit rejected this substrate's symmetry claim; \
                 exploring with symmetry off ({} counterexample(s), first: {})",
                result.violation_count,
                result
                    .violations
                    .first()
                    .map_or_else(|| "<unrecorded>".to_string(), ToString::to_string),
            );
        }
        trusted
    });
    if trusted {
        requested
    } else {
        SymmetryMode::Off
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use services::atomic::CanonicalAtomicObject;
    use spec::seq::BinaryConsensus;
    use std::sync::Arc;
    use system::process::direct::DirectConsensus;

    fn direct_system(n: usize, f: usize) -> CompleteSystem<DirectConsensus> {
        let endpoints: Vec<ProcId> = (0..n).map(ProcId).collect();
        let obj = CanonicalAtomicObject::new(Arc::new(BinaryConsensus), endpoints, f);
        CompleteSystem::new(DirectConsensus::new(SvcId(0)), n, vec![Arc::new(obj)])
    }

    #[test]
    fn direct_system_audits_clean() {
        let sys = direct_system(2, 0);
        let report = audit_system(&sys, "direct", &AuditConfig::default());
        assert!(report.clean(), "{report}");
        assert_eq!(report.exit_code(), 0);
        assert!(report.component_states > 0);
    }

    #[test]
    fn census_is_nontrivial_and_sound_shape() {
        let sys = direct_system(3, 0);
        let (pairs, total) = independence_census(&sys);
        assert!(total > 0);
        // With a single shared service every Proc task footprint hits
        // S0, so Proc-Proc pairs are dependent; Perform(S0,Pi) vs
        // Proc(Pj) are dependent too. All independent pairs must be
        // within S0's endpoint tasks... none here share nothing: every
        // task touches S0. Census may legitimately be empty — the
        // invariant is only soundness of the disjointness test.
        for (a, b) in &pairs {
            assert!(footprint(&sys, a).is_disjoint(&footprint(&sys, b)));
        }
    }

    #[test]
    fn effective_symmetry_trusts_honest_substrates() {
        let sys = direct_system(2, 0);
        assert_eq!(
            effective_symmetry(&sys, SymmetryMode::Full),
            SymmetryMode::Full
        );
        assert_eq!(
            effective_symmetry(&sys, SymmetryMode::Off),
            SymmetryMode::Off
        );
    }

    #[test]
    fn unauditable_without_hooks() {
        // A bare automaton with no vocabulary/owner hooks: partition is
        // unauditable, exit code 2.
        #[derive(Debug)]
        struct Bare;
        impl Automaton for Bare {
            type State = u8;
            type Action = &'static str;
            type Task = &'static str;
            fn initial_states(&self) -> Vec<u8> {
                vec![0]
            }
            fn tasks(&self) -> Vec<&'static str> {
                vec!["t"]
            }
            fn succ_all(&self, _t: &&'static str, s: &u8) -> Vec<(&'static str, u8)> {
                if *s < 2 {
                    vec![("go", s + 1)]
                } else {
                    vec![]
                }
            }
            fn apply_input(&self, _s: &u8, _a: &&'static str) -> Option<u8> {
                None
            }
            fn kind(&self, _a: &&'static str) -> ActionKind {
                ActionKind::Internal
            }
        }
        let report = audit_automaton(&Bare, "bare", &AuditConfig::default());
        assert!(!report.has_violations());
        assert_eq!(report.exit_code(), 2, "{report}");
    }
}

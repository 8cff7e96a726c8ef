//! A compositional property DSL over explored graphs, with a fused
//! batch evaluator (ROADMAP item 5).
//!
//! Every theorem the workspace checks is a question about the explored
//! graph `G(C)`: an invariant over its states (safety), reachability of
//! a goal (bivalence is "both decisions reachable"), or an
//! inevitability (termination is "every fair maximal path decides").
//! This module expresses those questions as a small combinator AST —
//! [`Prop`] over named state predicates ([`Atom`]) — and evaluates a
//! *batch* of them with fused passes over the graph:
//!
//! * **one forward scan** over the states in id (BFS discovery) order,
//!   evaluating every distinct atom once per state and materializing
//!   the forward edge structure into an [`ioa::csr::Csr`];
//! * **at most one backward fixpoint** over the reverse CSR
//!   ([`ioa::fixpoint::backward_universal`], the same bit-lane engine
//!   the valence map's decided sets run on), answering every
//!   `eventually` / `leads_to` lane of the batch in a single sweep.
//!
//! The pass counts are instrumented ([`PassCounts`]) and gated in CI:
//! adding properties to a batch must not add graph traversals.
//!
//! Every verdict is three-valued ([`Verdict`]): on a budget-truncated
//! graph the frontier is open, so universal claims with no explored
//! counterexample — and existential claims with no explored witness —
//! answer [`Verdict::Unknown`] rather than a false positive/negative:
//! an absence proves unreachability only on an exact graph. Verdicts come
//! with id-based [`Witness`] paths (BFS-tree paths for `always` /
//! `exists_path`, maximal-path lassos for failed eventualities) that
//! replay through the graph they were computed on (see
//! [`SystemGraph::tasks_along`]).

use crate::valence::{Valence, ValenceMap};
use ioa::automaton::Automaton;
use ioa::canon::Perm;
use ioa::csr::Csr;
use ioa::explore::ExploredGraph;
use ioa::fixpoint;
use ioa::store::StateId;
use spec::{ProcId, Val};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use system::build::{CompleteSystem, SystemState};
use system::consensus::InputAssignment;
use system::packed::{canonical_system_state_with, permute_system_state, permute_task};
use system::process::ProcessAutomaton;
use system::Task;

/// The graph view the evaluator runs on: dense [`StateId`]s
/// `0..state_count`, every id reachable from the roots, with a
/// BFS-tree parent per non-root id for witness reconstruction.
///
/// Fairness information (task lanes on edges, per-state applicability)
/// is optional: substrates without it report `task_count() == 0`, and
/// `fair_eventually` then degenerates to `eventually` (with no task
/// structure, every infinite behavior counts as fair — vacuously).
pub trait PropGraph {
    /// The state type atoms inspect.
    type State;

    /// Number of explored states (ids are `0..state_count`).
    fn state_count(&self) -> usize;

    /// The root ids the exploration started from.
    fn root_ids(&self) -> Vec<StateId>;

    /// Resolve an id to its state.
    fn resolve_state(&self, id: StateId) -> &Self::State;

    /// Whether the exploration was stopped by a state budget: the
    /// frontier is open and universal/existential claims without an
    /// explored counterexample/witness are inconclusive.
    fn frontier_open(&self) -> bool;

    /// The BFS-tree parent of `id` (`None` for roots).
    fn parent_of(&self, id: StateId) -> Option<StateId>;

    /// Visit every progress edge out of `id` as `(task lane,
    /// successor)`, in edge order. The lane is an index into the
    /// substrate's task list when `task_count() > 0`, else ignored.
    fn for_each_edge(&self, id: StateId, f: &mut dyn FnMut(usize, StateId));

    /// Number of tasks, for fairness-constrained eventualities.
    /// `0` means "no fairness information".
    fn task_count(&self) -> usize {
        0
    }

    /// Whether task `lane` is applicable (enabled, stutters included)
    /// at `id`. Only consulted when `task_count() > 0`.
    fn task_applicable(&self, _lane: usize, _id: StateId) -> bool {
        false
    }
}

impl<A: ioa::automaton::Automaton> PropGraph for ExploredGraph<A> {
    type State = A::State;

    fn state_count(&self) -> usize {
        self.len()
    }
    fn root_ids(&self) -> Vec<StateId> {
        self.roots().to_vec()
    }
    fn resolve_state(&self, id: StateId) -> &A::State {
        self.resolve(id)
    }
    fn frontier_open(&self) -> bool {
        self.stats().truncated()
    }
    fn parent_of(&self, id: StateId) -> Option<StateId> {
        self.discovered_by(id).map(|(p, _, _)| *p)
    }
    fn for_each_edge(&self, id: StateId, f: &mut dyn FnMut(usize, StateId)) {
        for (_, _, s2) in self.successors(id) {
            f(0, *s2);
        }
    }
}

/// The system substrate: a [`ValenceMap`] (the explored `G(C)`) plus
/// the [`CompleteSystem`] it was built from, giving atoms access to
/// valence tables, decisions, failure masks and task applicability.
pub struct SystemGraph<'a, P: ProcessAutomaton> {
    sys: &'a CompleteSystem<P>,
    map: &'a ValenceMap<P>,
    tasks: Vec<Task>,
    lane_of: HashMap<Task, usize>,
}

impl<'a, P: ProcessAutomaton> SystemGraph<'a, P> {
    /// Wraps an explored valence map as a property substrate.
    pub fn new(sys: &'a CompleteSystem<P>, map: &'a ValenceMap<P>) -> Self {
        let tasks = sys.tasks();
        let lane_of = tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), i))
            .collect();
        SystemGraph {
            sys,
            map,
            tasks,
            lane_of,
        }
    }

    /// The underlying system.
    pub fn sys(&self) -> &CompleteSystem<P> {
        self.sys
    }

    /// The underlying explored graph.
    pub fn map(&self) -> &ValenceMap<P> {
        self.map
    }

    /// The tasks fired along a witness path of adjacent ids — the form
    /// the `replay` pipeline consumes. Adjacent ids must be connected
    /// in `G(C)`; with parallel edges the first matching task is taken
    /// (BFS-tree witness paths are discovery steps, so this reproduces
    /// the discovering task).
    ///
    /// # Panics
    ///
    /// Panics if consecutive ids are not adjacent in the graph.
    pub fn tasks_along(&self, path: &[StateId]) -> Vec<Task> {
        path.windows(2)
            .map(|w| {
                self.map
                    .successors(w[0])
                    .iter()
                    .find(|(_, _, s2)| *s2 == w[1])
                    .map(|(t, _, _)| t.clone())
                    .expect("witness path ids must be adjacent in G(C)")
            })
            .collect()
    }

    /// Lifts a witness path of graph ids to a concrete execution: the
    /// states visited (starting at the root) and the tasks fired
    /// between them, replayable via
    /// [`CompleteSystem::succ_all`](system::build::CompleteSystem).
    ///
    /// Over a full (non-quotient) map this resolves the ids and reads
    /// the edge labels with [`Self::tasks_along`]. Over a symmetry
    /// quotient, every non-root id is an orbit *representative* and
    /// each edge's task label is relative to that representative, so
    /// the quotient path is not itself an execution. The lift walks
    /// the path tracking the accumulated canonicalizing permutation `τ`
    /// (invariant: `τ · concrete = representative`), conjugates each
    /// edge task back through `τ⁻¹`, and steps the concrete system,
    /// picking the successor whose canonical image matches the path;
    /// each step composes the new canonicalizing permutation onto `τ`.
    /// Orbit-invariant atoms (valence, decisions, safety, failure
    /// counts) therefore hold along the lifted execution exactly as
    /// they did on the quotient path.
    ///
    /// # Panics
    ///
    /// Panics if consecutive ids are not adjacent in the graph.
    pub fn lift_path(&self, path: &[StateId]) -> (Vec<SystemState<P::State>>, Vec<Task>) {
        let Some(group) = self.map.sym() else {
            let states = path
                .iter()
                .map(|id| self.map.resolve(*id).clone())
                .collect();
            return (states, self.tasks_along(path));
        };
        let mut states: Vec<SystemState<P::State>> = Vec::with_capacity(path.len());
        let mut tasks: Vec<Task> = Vec::with_capacity(path.len().saturating_sub(1));
        let Some(first) = path.first() else {
            return (states, tasks);
        };
        // Roots are interned raw (never canonicalized), so the walk
        // starts concrete with τ = identity.
        let mut concrete = self.map.resolve(*first).clone();
        let mut tau = Perm::identity(self.sys.process_count());
        states.push(concrete.clone());
        for w in path.windows(2) {
            let rep_task = self
                .map
                .successors(w[0])
                .iter()
                .find(|(_, _, s2)| *s2 == w[1])
                .map(|(t, _, _)| t.clone())
                .expect("witness path ids must be adjacent in G(C)");
            let concrete_task = permute_task(&tau.inverse(), &rep_task);
            let next_rep = self.map.resolve(w[1]);
            // Among the concrete successors, take the one whose orbit
            // representative continues the quotient path (equivariance
            // guarantees at least one exists; task nondeterminism can
            // offer several concrete candidates). The candidate's image
            // under the accumulated τ is the representative's own
            // successor, and its canonicalization hands back the
            // step's incremental permutation.
            let (next, sigma) = self
                .sys
                .succ_all(&concrete_task, &concrete)
                .into_iter()
                .find_map(|(_, cand)| {
                    let lifted = permute_system_state(&tau, &cand);
                    let (rep, sigma) = canonical_system_state_with(group, &lifted);
                    (&rep == next_rep).then_some((cand, sigma))
                })
                .expect("a concrete successor must continue the quotient path");
            tau = sigma.compose(&tau);
            tasks.push(concrete_task);
            concrete = next;
            states.push(concrete.clone());
        }
        (states, tasks)
    }
}

impl<P: ProcessAutomaton> PropGraph for SystemGraph<'_, P> {
    type State = SystemState<P::State>;

    fn state_count(&self) -> usize {
        self.map.state_count()
    }
    fn root_ids(&self) -> Vec<StateId> {
        vec![self.map.root_id()]
    }
    fn resolve_state(&self, id: StateId) -> &Self::State {
        self.map.resolve(id)
    }
    fn frontier_open(&self) -> bool {
        self.map.stats().truncated()
    }
    fn parent_of(&self, id: StateId) -> Option<StateId> {
        self.map.discovered_by(id).map(|(p, _, _)| *p)
    }
    fn for_each_edge(&self, id: StateId, f: &mut dyn FnMut(usize, StateId)) {
        for (t, _, s2) in self.map.successors(id) {
            f(self.lane_of[t], *s2);
        }
    }
    fn task_count(&self) -> usize {
        self.tasks.len()
    }
    fn task_applicable(&self, lane: usize, id: StateId) -> bool {
        self.sys.applicable(&self.tasks[lane], self.map.resolve(id))
    }
}

/// A named state predicate. Atoms receive the substrate and the state
/// id, so they can consult precomputed tables (valence) and graph
/// structure (quiescence) as well as the state itself. Cloning shares
/// the underlying closure, and the evaluator deduplicates atoms by
/// that shared identity — an atom used by several properties in a
/// batch is evaluated once per state.
pub struct Atom<'g, G: PropGraph> {
    name: String,
    f: AtomFn<'g, G>,
}

/// The shared predicate behind an [`Atom`]; its `Rc` identity is what
/// the batch evaluator dedupes on.
type AtomFn<'g, G> = Rc<dyn Fn(&G, StateId) -> bool + 'g>;

impl<'g, G: PropGraph> Atom<'g, G> {
    /// An atom over the substrate and state id.
    pub fn new(name: impl Into<String>, f: impl Fn(&G, StateId) -> bool + 'g) -> Self {
        Atom {
            name: name.into(),
            f: Rc::new(f),
        }
    }

    /// An atom over the state alone.
    pub fn on_state(name: impl Into<String>, f: impl Fn(&G::State) -> bool + 'g) -> Self {
        Atom::new(name, move |g: &G, id| f(g.resolve_state(id)))
    }

    /// The display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Evaluate at one state.
    pub fn holds_at(&self, g: &G, id: StateId) -> bool {
        (self.f)(g, id)
    }
}

impl<G: PropGraph> Clone for Atom<'_, G> {
    fn clone(&self) -> Self {
        Atom {
            name: self.name.clone(),
            f: Rc::clone(&self.f),
        }
    }
}

impl<G: PropGraph> fmt::Debug for Atom<'_, G> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// The property AST. Temporal operators apply to atoms (a guarded
/// fragment: one forward and one backward pass decide every operator);
/// boolean combinators compose verdicts with Kleene three-valued
/// logic — the weakest conjunct determines the end-to-end verdict.
pub enum Prop<'g, G: PropGraph> {
    /// The atom holds at every root.
    Now(Atom<'g, G>),
    /// Invariant: the atom holds at every reachable state (CTL `AG`).
    Always(Atom<'g, G>),
    /// Reachability: some reachable state satisfies the atom (`EF`).
    ExistsPath(Atom<'g, G>),
    /// Inevitability: every maximal path hits the atom (`AF`).
    Eventually(Atom<'g, G>),
    /// Inevitability over *fair* maximal paths: as `Eventually`, but a
    /// cyclic counterexample only counts if its strongly connected
    /// component sustains a fair infinite behavior (every task either
    /// fires inside the component or is disabled somewhere in it — the
    /// same clause `ioa::fairness::lasso_is_fair` checks).
    EventuallyFair(Atom<'g, G>),
    /// Every reachable state satisfying the first atom has `AF` of the
    /// second: `AG(p ⇒ AF q)`.
    LeadsTo(Atom<'g, G>, Atom<'g, G>),
    /// Negation (Kleene).
    Not(Box<Prop<'g, G>>),
    /// Conjunction (Kleene; `Fails` dominates, then `Unknown`).
    And(Vec<Prop<'g, G>>),
    /// Disjunction (Kleene; `Holds` dominates, then `Unknown`).
    Or(Vec<Prop<'g, G>>),
}

// Manual impls: the derives would demand `G: Clone + Debug`, but only
// the atoms (behind `Rc`) and the shape are ever cloned or printed.
impl<G: PropGraph> Clone for Prop<'_, G> {
    fn clone(&self) -> Self {
        match self {
            Prop::Now(a) => Prop::Now(a.clone()),
            Prop::Always(a) => Prop::Always(a.clone()),
            Prop::ExistsPath(a) => Prop::ExistsPath(a.clone()),
            Prop::Eventually(a) => Prop::Eventually(a.clone()),
            Prop::EventuallyFair(a) => Prop::EventuallyFair(a.clone()),
            Prop::LeadsTo(p, q) => Prop::LeadsTo(p.clone(), q.clone()),
            Prop::Not(p) => Prop::Not(p.clone()),
            Prop::And(ps) => Prop::And(ps.clone()),
            Prop::Or(ps) => Prop::Or(ps.clone()),
        }
    }
}

impl<G: PropGraph> fmt::Debug for Prop<'_, G> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl<'g, G: PropGraph> Prop<'g, G> {
    /// `now(a)` — the atom holds at every root.
    pub fn now(a: Atom<'g, G>) -> Self {
        Prop::Now(a)
    }
    /// `always(a)` — invariant over all reachable states.
    pub fn always(a: Atom<'g, G>) -> Self {
        Prop::Always(a)
    }
    /// `exists_path(a)` — some reachable state satisfies `a`.
    pub fn exists_path(a: Atom<'g, G>) -> Self {
        Prop::ExistsPath(a)
    }
    /// `eventually(a)` — every maximal path hits `a`.
    pub fn eventually(a: Atom<'g, G>) -> Self {
        Prop::Eventually(a)
    }
    /// `fair_eventually(a)` — every fair maximal path hits `a`.
    pub fn fair_eventually(a: Atom<'g, G>) -> Self {
        Prop::EventuallyFair(a)
    }
    /// `leads_to(p, q)` — `AG(p ⇒ AF q)`.
    pub fn leads_to(p: Atom<'g, G>, q: Atom<'g, G>) -> Self {
        Prop::LeadsTo(p, q)
    }
    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(p: Prop<'g, G>) -> Self {
        Prop::Not(Box::new(p))
    }
    /// Conjunction of all.
    pub fn all(ps: Vec<Prop<'g, G>>) -> Self {
        Prop::And(ps)
    }
    /// Disjunction of any.
    pub fn any(ps: Vec<Prop<'g, G>>) -> Self {
        Prop::Or(ps)
    }
}

impl<G: PropGraph> fmt::Display for Prop<'_, G> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Prop::Now(a) => write!(f, "now({})", a.name),
            Prop::Always(a) => write!(f, "always({})", a.name),
            Prop::ExistsPath(a) => write!(f, "exists_path({})", a.name),
            Prop::Eventually(a) => write!(f, "eventually({})", a.name),
            Prop::EventuallyFair(a) => write!(f, "fair_eventually({})", a.name),
            Prop::LeadsTo(p, q) => write!(f, "leads_to({}, {})", p.name, q.name),
            Prop::Not(p) => write!(f, "!{p}"),
            Prop::And(ps) => {
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " & ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Prop::Or(ps) => {
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A three-valued verdict (Kleene).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The property holds over the explored graph.
    Holds,
    /// The property fails, with a counterexample where applicable.
    Fails,
    /// Inconclusive — typically because the exploration frontier is
    /// open (budget truncation) and no explored state decides the
    /// property either way.
    Unknown,
}

impl Verdict {
    /// Kleene negation.
    #[must_use]
    pub fn negate(self) -> Verdict {
        match self {
            Verdict::Holds => Verdict::Fails,
            Verdict::Fails => Verdict::Holds,
            Verdict::Unknown => Verdict::Unknown,
        }
    }
    /// Kleene conjunction: `Fails` dominates, then `Unknown`.
    #[must_use]
    pub fn and(self, o: Verdict) -> Verdict {
        match (self, o) {
            (Verdict::Fails, _) | (_, Verdict::Fails) => Verdict::Fails,
            (Verdict::Unknown, _) | (_, Verdict::Unknown) => Verdict::Unknown,
            _ => Verdict::Holds,
        }
    }
    /// Kleene disjunction: `Holds` dominates, then `Unknown`.
    #[must_use]
    pub fn or(self, o: Verdict) -> Verdict {
        match (self, o) {
            (Verdict::Holds, _) | (_, Verdict::Holds) => Verdict::Holds,
            (Verdict::Unknown, _) | (_, Verdict::Unknown) => Verdict::Unknown,
            _ => Verdict::Fails,
        }
    }
}

/// An id-based witness or counterexample.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Witness {
    /// A finite path of adjacent state ids from a root, along the BFS
    /// tree for `always`/`exists_path` (hence a shortest path to the
    /// deciding state) or along explicit edges for a terminal-trap
    /// `eventually` counterexample.
    Path(Vec<StateId>),
    /// An infinite behavior: `path[cycle_start..]` is a cycle (its
    /// last state has an edge back to `path[cycle_start]`), reached
    /// from a root along `path[..cycle_start]`.
    Lasso {
        /// Root-anchored stem followed by the cycle states.
        path: Vec<StateId>,
        /// Index in `path` where the cycle begins.
        cycle_start: usize,
    },
}

/// One property's evaluation: verdict, optional witness, and an
/// optional human-readable note (why a verdict is `Unknown`, or
/// caveats about a fairness witness).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Evaluation {
    /// The three-valued verdict.
    pub verdict: Verdict,
    /// A witness (for positive existential verdicts) or counterexample
    /// (for negative universal verdicts), when one exists.
    pub witness: Option<Witness>,
    /// Why the verdict is inconclusive, or a witness caveat.
    pub reason: Option<String>,
}

impl Evaluation {
    fn plain(verdict: Verdict) -> Self {
        Evaluation {
            verdict,
            witness: None,
            reason: None,
        }
    }
}

/// Instrumented traversal counts for one [`evaluate_batch`] call — the
/// CI gate asserts the fused evaluator does exactly one forward and at
/// most one backward CSR traversal per graph, batch-wide.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PassCounts {
    /// Forward scans over the states + edges (atom evaluation and edge
    /// materialization share one).
    pub forward: u32,
    /// Backward sweeps (reverse-CSR transpose + multi-lane fixpoint).
    pub backward: u32,
    /// Failure-triggered auxiliary analyses (the fair-counterexample
    /// hunt: restricted reachability + SCC pass). Zero unless a
    /// `fair_eventually` property actually fails its plain `AF` check.
    pub aux: u32,
}

/// The result of evaluating a batch of properties over one graph.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// One evaluation per property, in input order.
    pub results: Vec<Evaluation>,
    /// Traversal counts for the whole batch.
    pub passes: PassCounts,
}

/// Evaluates one property (a singleton batch).
pub fn evaluate<'g, G: PropGraph>(g: &G, p: &Prop<'g, G>) -> Evaluation {
    evaluate_batch(g, std::slice::from_ref(p))
        .results
        .pop()
        .expect("one evaluation per property")
}

/// Evaluates a batch of properties over one graph with fused passes:
/// one forward scan (all atoms, all properties) and at most one
/// backward fixpoint (all `eventually`/`leads_to` lanes at once).
///
/// # Symmetry quotients
///
/// When the graph is a [`SystemGraph`] over a symmetry-reduced
/// [`ValenceMap`], every state is an orbit representative and the
/// verdicts are *quotient-aware*: they hold for the full concrete
/// graph provided the properties' atoms are orbit-invariant. Nearly
/// all of [`atoms`]' vocabulary is (valence, decidedness, safety and
/// failure-count predicates depend only on value sets and cardinals,
/// never on which process holds which role); the exceptions are the
/// process-specific `proc_decided(i)` and `failed(i)`, which
/// distinguish states within an orbit and must only be used on full
/// (non-quotient) maps. Witness
/// paths live in the quotient; lift them back to concrete, replayable
/// executions with [`SystemGraph::lift_path`] before handing them to
/// `replay`.
pub fn evaluate_batch<'g, G: PropGraph>(g: &G, props: &[Prop<'g, G>]) -> BatchReport {
    let mut engine = Engine::prepare(g, props);
    let results = props.iter().map(|p| engine.eval(p)).collect();
    BatchReport {
        results,
        passes: engine.passes,
    }
}

/// Dense bit set over state ids.
struct Bits {
    w: Vec<u64>,
}

impl Bits {
    fn new(n: usize) -> Self {
        Bits {
            w: vec![0; n.div_ceil(64)],
        }
    }
    #[inline]
    fn set(&mut self, i: usize) {
        self.w[i / 64] |= 1 << (i % 64);
    }
    #[inline]
    fn get(&self, i: usize) -> bool {
        self.w[i / 64] >> (i % 64) & 1 != 0
    }
}

struct Engine<'e, 'g, G: PropGraph> {
    g: &'e G,
    n: usize,
    roots: Vec<StateId>,
    open: bool,
    atoms: Vec<Atom<'g, G>>,
    grids: Vec<Bits>,
    min_true: Vec<Option<u32>>,
    min_false: Vec<Option<u32>>,
    /// Forward edges, materialized once during the forward scan.
    fwd: Csr<StateId>,
    /// Task lane per forward edge (parallel to the CSR entries),
    /// populated only when the substrate has task structure.
    lanes: Vec<u32>,
    /// Entry offset of each state's forward row in `lanes`.
    row_start: Vec<u32>,
    outdeg: Vec<u32>,
    /// Atom indices with an `AF` lane, in lane order.
    af_atoms: Vec<usize>,
    /// Per-state `AF` masks (bit `j` = `af_atoms[j]`'s lane).
    af: Vec<u64>,
    passes: PassCounts,
}

impl<'e, 'g, G: PropGraph> Engine<'e, 'g, G> {
    fn prepare(g: &'e G, props: &[Prop<'g, G>]) -> Self {
        let n = g.state_count();
        let roots = g.root_ids();
        let open = g.frontier_open();

        // Collect distinct atoms (by shared closure identity) and the
        // subset needing a backward AF lane.
        let mut atoms: Vec<Atom<'g, G>> = Vec::new();
        let mut af_atoms: Vec<usize> = Vec::new();
        for p in props {
            collect_atoms(p, &mut atoms, &mut af_atoms);
        }
        assert!(
            af_atoms.len() <= fixpoint::MAX_LANES,
            "a batch supports at most {} eventually/leads-to targets",
            fixpoint::MAX_LANES
        );

        let mut engine = Engine {
            g,
            n,
            roots,
            open,
            atoms,
            grids: Vec::new(),
            min_true: Vec::new(),
            min_false: Vec::new(),
            fwd: Csr::new(),
            lanes: Vec::new(),
            row_start: Vec::new(),
            outdeg: vec![0; n],
            af_atoms,
            af: Vec::new(),
            passes: PassCounts::default(),
        };
        if n > 0 && !props.is_empty() {
            engine.forward_pass();
            // On an open frontier every AF-family verdict is decided
            // without the fixpoint (Holds iff the atom already holds
            // at the roots, else Unknown), so the backward pass only
            // runs on complete graphs.
            if !engine.af_atoms.is_empty() && !engine.open {
                engine.backward_pass();
            }
        }
        engine
    }

    /// One scan over states in id order: evaluate every atom, record
    /// min satisfying/violating ids, and materialize the forward CSR
    /// (with task lanes when the substrate has them).
    fn forward_pass(&mut self) {
        self.passes.forward += 1;
        let track_lanes = self.g.task_count() > 0;
        let mut grids: Vec<Bits> = self.atoms.iter().map(|_| Bits::new(self.n)).collect();
        self.min_true = vec![None; self.atoms.len()];
        self.min_false = vec![None; self.atoms.len()];
        for i in 0..self.n {
            let id = StateId::from_index(i);
            for (ai, atom) in self.atoms.iter().enumerate() {
                if atom.holds_at(self.g, id) {
                    grids[ai].set(i);
                    self.min_true[ai].get_or_insert(i as u32);
                } else {
                    self.min_false[ai].get_or_insert(i as u32);
                }
            }
            self.row_start.push(self.lanes.len() as u32);
            let (fwd, lanes, deg) = (&mut self.fwd, &mut self.lanes, &mut self.outdeg);
            self.g.for_each_edge(id, &mut |lane, succ| {
                fwd.push(succ);
                if track_lanes {
                    lanes.push(lane as u32);
                }
                deg[i] += 1;
            });
            fwd.close_row();
        }
        self.grids = grids;
    }

    /// One reverse-CSR transpose + multi-lane universal fixpoint: all
    /// `AF` targets of the batch in a single sweep.
    fn backward_pass(&mut self) {
        self.passes.backward += 1;
        let preds = self
            .fwd
            .reversed(|s| s.index(), |src, _| StateId::from_index(src));
        let mut masks: Vec<u64> = (0..self.n)
            .map(|i| {
                self.af_atoms.iter().enumerate().fold(0u64, |m, (j, &ai)| {
                    m | u64::from(self.grids[ai].get(i)) << j
                })
            })
            .collect();
        fixpoint::backward_universal(&preds, &self.outdeg, self.af_atoms.len(), &mut masks);
        self.af = masks;
    }

    fn atom_index(&self, a: &Atom<'g, G>) -> usize {
        self.atoms
            .iter()
            .position(|b| Rc::ptr_eq(&a.f, &b.f))
            .expect("atom collected during prepare")
    }

    fn af_lane(&self, atom_idx: usize) -> usize {
        self.af_atoms
            .iter()
            .position(|&ai| ai == atom_idx)
            .expect("AF lane collected during prepare")
    }

    #[inline]
    fn af_bit(&self, lane: usize, i: usize) -> bool {
        self.af[i] >> lane & 1 != 0
    }

    /// Root-anchored BFS-tree path ending at `id`.
    fn tree_path(&self, id: StateId) -> Vec<StateId> {
        let mut path = vec![id];
        let mut cur = id;
        while let Some(p) = self.g.parent_of(cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    fn frontier_note(&self) -> Option<String> {
        Some(format!(
            "frontier open after {} states: absence over the explored prefix is inconclusive",
            self.n
        ))
    }

    /// All roots satisfy atom `ai`?
    fn roots_satisfy(&self, ai: usize) -> bool {
        self.roots.iter().all(|r| self.grids[ai].get(r.index()))
    }

    fn eval(&mut self, p: &Prop<'g, G>) -> Evaluation {
        match p {
            Prop::Now(a) => self.eval_now(a),
            Prop::Always(a) => self.eval_always(a),
            Prop::ExistsPath(a) => self.eval_exists_path(a),
            Prop::Eventually(a) => self.eval_eventually(a, false),
            Prop::EventuallyFair(a) => self.eval_eventually(a, true),
            Prop::LeadsTo(pa, qa) => self.eval_leads_to(pa, qa),
            Prop::Not(inner) => {
                let mut ev = self.eval(inner);
                ev.verdict = ev.verdict.negate();
                ev
            }
            Prop::And(ps) => self.eval_junction(ps, Verdict::and, Verdict::Fails),
            Prop::Or(ps) => self.eval_junction(ps, Verdict::or, Verdict::Holds),
        }
    }

    /// And/Or: fold verdicts; the witness comes from the first child
    /// whose verdict equals the dominating value (a failing conjunct's
    /// counterexample, a holding disjunct's witness).
    fn eval_junction(
        &mut self,
        ps: &[Prop<'g, G>],
        fold: fn(Verdict, Verdict) -> Verdict,
        dominating: Verdict,
    ) -> Evaluation {
        let neutral = dominating.negate();
        let evs: Vec<Evaluation> = ps.iter().map(|p| self.eval(p)).collect();
        let verdict = evs.iter().map(|e| e.verdict).fold(neutral, fold);
        let decider = evs
            .into_iter()
            .find(|e| e.verdict == verdict && verdict == dominating);
        Evaluation {
            verdict,
            witness: decider.as_ref().and_then(|e| e.witness.clone()),
            reason: decider.and_then(|e| e.reason),
        }
    }

    fn eval_now(&self, a: &Atom<'g, G>) -> Evaluation {
        if self.n == 0 {
            return Evaluation::plain(Verdict::Holds);
        }
        let ai = self.atom_index(a);
        match self.roots.iter().find(|r| !self.grids[ai].get(r.index())) {
            None => Evaluation::plain(Verdict::Holds),
            Some(r) => Evaluation {
                verdict: Verdict::Fails,
                witness: Some(Witness::Path(vec![*r])),
                reason: None,
            },
        }
    }

    fn eval_always(&self, a: &Atom<'g, G>) -> Evaluation {
        if self.n == 0 {
            return Evaluation::plain(Verdict::Holds);
        }
        let ai = self.atom_index(a);
        if let Some(bad) = self.min_false[ai] {
            return Evaluation {
                verdict: Verdict::Fails,
                witness: Some(Witness::Path(
                    self.tree_path(StateId::from_index(bad as usize)),
                )),
                reason: None,
            };
        }
        if self.open {
            return Evaluation {
                verdict: Verdict::Unknown,
                witness: None,
                reason: self.frontier_note(),
            };
        }
        Evaluation::plain(Verdict::Holds)
    }

    fn eval_exists_path(&self, a: &Atom<'g, G>) -> Evaluation {
        if self.n == 0 {
            return Evaluation::plain(Verdict::Fails);
        }
        let ai = self.atom_index(a);
        if let Some(good) = self.min_true[ai] {
            // Minimal id = first in BFS discovery order, so the tree
            // path is a shortest witness — the first match a BFS meets,
            // as `ExploredGraph::path_to` would return it.
            return Evaluation {
                verdict: Verdict::Holds,
                witness: Some(Witness::Path(
                    self.tree_path(StateId::from_index(good as usize)),
                )),
                reason: None,
            };
        }
        if self.open {
            return Evaluation {
                verdict: Verdict::Unknown,
                witness: None,
                reason: self.frontier_note(),
            };
        }
        Evaluation::plain(Verdict::Fails)
    }

    fn eval_eventually(&mut self, a: &Atom<'g, G>, fair: bool) -> Evaluation {
        if self.n == 0 {
            return Evaluation::plain(Verdict::Holds);
        }
        let ai = self.atom_index(a);
        if self.open {
            // The fixpoint is unsound over an open frontier in both
            // directions; only the trivial case is decidable.
            if self.roots_satisfy(ai) {
                return Evaluation::plain(Verdict::Holds);
            }
            return Evaluation {
                verdict: Verdict::Unknown,
                witness: None,
                reason: self.frontier_note(),
            };
        }
        let lane = self.af_lane(ai);
        let bad_root = self
            .roots
            .iter()
            .copied()
            .find(|r| !self.af_bit(lane, r.index()));
        let Some(bad_root) = bad_root else {
            return Evaluation::plain(Verdict::Holds);
        };
        if !fair {
            return Evaluation {
                verdict: Verdict::Fails,
                witness: Some(self.af_counterexample(lane, bad_root)),
                reason: None,
            };
        }
        self.fair_af_verdict(lane, bad_root)
    }

    fn eval_leads_to(&self, pa: &Atom<'g, G>, qa: &Atom<'g, G>) -> Evaluation {
        if self.n == 0 {
            return Evaluation::plain(Verdict::Holds);
        }
        if self.open {
            return Evaluation {
                verdict: Verdict::Unknown,
                witness: None,
                reason: self.frontier_note(),
            };
        }
        let pi = self.atom_index(pa);
        let lane = self.af_lane(self.atom_index(qa));
        let violation = (0..self.n).find(|&i| self.grids[pi].get(i) && !self.af_bit(lane, i));
        match violation {
            None => Evaluation::plain(Verdict::Holds),
            Some(i) => Evaluation {
                verdict: Verdict::Fails,
                witness: Some(Witness::Path(self.tree_path(StateId::from_index(i)))),
                reason: None,
            },
        }
    }

    /// A maximal path from `start` avoiding the `AF` lane's target: by
    /// the fixpoint invariant, a `¬af` state is terminal or has a
    /// `¬af` successor, so the greedy walk ends in a terminal state or
    /// closes a cycle within `n` steps.
    fn af_counterexample(&self, lane: usize, start: StateId) -> Witness {
        let mut path = vec![start];
        let mut pos: HashMap<u32, usize> = HashMap::new();
        pos.insert(start.index() as u32, 0);
        loop {
            let cur = *path.last().expect("non-empty");
            let row = self.fwd.row(cur.index());
            if row.is_empty() {
                return Witness::Path(path);
            }
            let next = row
                .iter()
                .copied()
                .find(|s| !self.af_bit(lane, s.index()))
                .expect("a non-terminal ¬af state has a ¬af successor");
            if let Some(&at) = pos.get(&(next.index() as u32)) {
                return Witness::Lasso {
                    path,
                    cycle_start: at,
                };
            }
            pos.insert(next.index() as u32, path.len());
            path.push(next);
        }
    }

    /// Exact fair-`AF` refinement, run only when plain `AF` failed at
    /// a root: restrict the graph to `¬af` states reachable from
    /// `bad_root` (any infinite atom-avoiding path lives entirely in
    /// `¬af`), then look for a *fair* trap — a terminal state, or a
    /// strongly connected component whose full tour satisfies the
    /// weak-fairness clause (every task fires on an internal edge or
    /// is disabled at some component state; with no task structure
    /// every cycle is vacuously fair). No fair trap means every
    /// infinite avoidance is unfair, so the fair verdict is `Holds`.
    fn fair_af_verdict(&mut self, lane: usize, bad_root: StateId) -> Evaluation {
        self.passes.aux += 1;
        let restricted = |i: usize| !self.af_bit(lane, i);

        // Reachability within the restriction, with parents for stems.
        let mut parent: Vec<Option<u32>> = vec![None; self.n];
        let mut seen = Bits::new(self.n);
        let mut order: Vec<u32> = Vec::new();
        seen.set(bad_root.index());
        order.push(bad_root.index() as u32);
        let mut qi = 0;
        while qi < order.len() {
            let u = order[qi] as usize;
            qi += 1;
            if self.fwd.row(u).is_empty() {
                // A terminal trap: a finite maximal path avoiding the
                // atom — fair by quiescence.
                let stem = restricted_path(&parent, bad_root, u);
                return Evaluation {
                    verdict: Verdict::Fails,
                    witness: Some(Witness::Path(stem)),
                    reason: None,
                };
            }
            for s in self.fwd.row(u) {
                let v = s.index();
                if restricted(v) && !seen.get(v) {
                    seen.set(v);
                    parent[v] = Some(u as u32);
                    order.push(v as u32);
                }
            }
        }

        // SCCs of the restricted subgraph (iterative Tarjan).
        let sccs = self.restricted_sccs(&order, &seen);
        let task_count = self.g.task_count();
        for scc in &sccs {
            if !self.scc_has_cycle(scc, &seen) {
                continue;
            }
            if task_count > 0 && !self.scc_tour_is_fair(scc, &seen, task_count) {
                continue;
            }
            // Fair trap: stem to the component's entry, then a cycle
            // inside it.
            let entry = scc[0] as usize;
            let mut path = restricted_path(&parent, bad_root, entry);
            let in_scc = |i: usize| scc.contains(&(i as u32));
            let mut pos: HashMap<u32, usize> = HashMap::new();
            pos.insert(entry as u32, path.len() - 1);
            let cycle_start;
            loop {
                let cur = path.last().expect("non-empty").index();
                let next = self
                    .fwd
                    .row(cur)
                    .iter()
                    .map(|s| s.index())
                    .find(|&v| seen.get(v) && in_scc(v))
                    .expect("a cyclic SCC state has an internal successor");
                if let Some(&at) = pos.get(&(next as u32)) {
                    cycle_start = at;
                    break;
                }
                pos.insert(next as u32, path.len());
                path.push(StateId::from_index(next));
            }
            let reason = (task_count > 0 && !self.cycle_is_fair(&path[cycle_start..], task_count))
                .then(|| {
                    "fairness holds at component granularity: the witness cycle alone is unfair, \
                 but a tour of its whole component is fair"
                        .to_string()
                });
            return Evaluation {
                verdict: Verdict::Fails,
                witness: Some(Witness::Lasso { path, cycle_start }),
                reason,
            };
        }
        Evaluation {
            verdict: Verdict::Holds,
            witness: None,
            reason: Some(
                "every atom-avoiding infinite behavior is unfair; all fair maximal paths \
                 reach the atom"
                    .to_string(),
            ),
        }
    }

    /// Tarjan over the `seen` subset of states, iterative. Returns the
    /// components as id lists (each sorted ascending).
    fn restricted_sccs(&self, order: &[u32], seen: &Bits) -> Vec<Vec<u32>> {
        const UNVISITED: u32 = u32::MAX;
        let mut index = vec![UNVISITED; self.n];
        let mut low = vec![0u32; self.n];
        let mut on_stack = Bits::new(self.n);
        let mut stack: Vec<u32> = Vec::new();
        let mut next_index = 0u32;
        let mut sccs: Vec<Vec<u32>> = Vec::new();
        // (node, edge cursor) DFS frames.
        let mut frames: Vec<(u32, usize)> = Vec::new();
        for &root in order {
            if index[root as usize] != UNVISITED {
                continue;
            }
            frames.push((root, 0));
            index[root as usize] = next_index;
            low[root as usize] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack.set(root as usize);
            while let Some(&mut (u, ref mut cursor)) = frames.last_mut() {
                let row = self.fwd.row(u as usize);
                if *cursor < row.len() {
                    let v = row[*cursor].index();
                    *cursor += 1;
                    if !seen.get(v) {
                        continue;
                    }
                    if index[v] == UNVISITED {
                        frames.push((v as u32, 0));
                        index[v] = next_index;
                        low[v] = next_index;
                        next_index += 1;
                        stack.push(v as u32);
                        on_stack.set(v);
                    } else if on_stack.get(v) {
                        low[u as usize] = low[u as usize].min(index[v]);
                    }
                } else {
                    frames.pop();
                    if let Some(&(p, _)) = frames.last() {
                        low[p as usize] = low[p as usize].min(low[u as usize]);
                    }
                    if low[u as usize] == index[u as usize] {
                        let mut scc = Vec::new();
                        loop {
                            let w = stack.pop().expect("scc root on stack");
                            on_stack.w[w as usize / 64] &= !(1 << (w as usize % 64));
                            scc.push(w);
                            if w == u {
                                break;
                            }
                        }
                        scc.sort_unstable();
                        sccs.push(scc);
                    }
                }
            }
        }
        sccs
    }

    /// Whether the component contains a cycle: more than one state, or
    /// a self-edge.
    fn scc_has_cycle(&self, scc: &[u32], seen: &Bits) -> bool {
        if scc.len() > 1 {
            return true;
        }
        let u = scc[0] as usize;
        let _ = seen;
        self.fwd.row(u).iter().any(|s| s.index() == u)
    }

    /// The weak-fairness clause on the component's full tour: every
    /// task either labels an internal edge (fires infinitely often on
    /// the tour) or is inapplicable at some component state (disabled
    /// infinitely often). Mirrors `ioa::fairness::lasso_is_fair`.
    fn scc_tour_is_fair(&self, scc: &[u32], seen: &Bits, task_count: usize) -> bool {
        let mut fired = vec![false; task_count];
        for &u in scc {
            let u = u as usize;
            let base = self.row_start[u] as usize;
            for (k, s) in self.fwd.row(u).iter().enumerate() {
                let v = s.index();
                if seen.get(v) && scc.binary_search(&(v as u32)).is_ok() {
                    fired[self.lanes[base + k] as usize] = true;
                }
            }
        }
        (0..task_count).all(|t| {
            fired[t]
                || scc
                    .iter()
                    .any(|&u| !self.g.task_applicable(t, StateId::from_index(u as usize)))
        })
    }

    /// The same clause on one explicit cycle.
    fn cycle_is_fair(&self, cycle: &[StateId], task_count: usize) -> bool {
        let mut fired = vec![false; task_count];
        for (k, s) in cycle.iter().enumerate() {
            let u = s.index();
            let next = cycle[(k + 1) % cycle.len()].index();
            let base = self.row_start[u] as usize;
            if let Some(e) = self.fwd.row(u).iter().position(|t| t.index() == next) {
                fired[self.lanes[base + e] as usize] = true;
            }
        }
        (0..task_count).all(|t| fired[t] || cycle.iter().any(|&u| !self.g.task_applicable(t, u)))
    }
}

/// Path from `root` to `target` along the restricted-BFS parents.
fn restricted_path(parent: &[Option<u32>], root: StateId, target: usize) -> Vec<StateId> {
    let mut path = vec![StateId::from_index(target)];
    let mut cur = target;
    while cur != root.index() {
        let p = parent[cur].expect("restricted path reaches the root") as usize;
        path.push(StateId::from_index(p));
        cur = p;
    }
    path.reverse();
    path
}

/// The standard atom vocabulary over a [`SystemGraph`] — the building
/// blocks the theorem restatements and the `repro check` textual form
/// share. Each constructor returns a fresh atom; reuse one `Atom`
/// value (clones share identity) to let the batch evaluator
/// deduplicate its per-state evaluation.
pub mod atoms {
    use super::*;

    type SysAtom<'g, P> = Atom<'g, SystemGraph<'g, P>>;

    /// Both decisions reachable failure-free from here (Section 3.2).
    pub fn bivalent<'g, P: ProcessAutomaton>() -> SysAtom<'g, P> {
        Atom::new("bivalent", |g: &SystemGraph<'g, P>, id| {
            g.map().valence_id(id) == Valence::Bivalent
        })
    }

    /// Exactly one decision reachable failure-free from here.
    pub fn univalent<'g, P: ProcessAutomaton>() -> SysAtom<'g, P> {
        Atom::new("univalent", |g: &SystemGraph<'g, P>, id| {
            g.map().valence_id(id).is_univalent()
        })
    }

    /// Only `decide(0)` reachable failure-free from here.
    pub fn zero_valent<'g, P: ProcessAutomaton>() -> SysAtom<'g, P> {
        Atom::new("zero_valent", |g: &SystemGraph<'g, P>, id| {
            g.map().valence_id(id) == Valence::Zero
        })
    }

    /// Only `decide(1)` reachable failure-free from here.
    pub fn one_valent<'g, P: ProcessAutomaton>() -> SysAtom<'g, P> {
        Atom::new("one_valent", |g: &SystemGraph<'g, P>, id| {
            g.map().valence_id(id) == Valence::One
        })
    }

    /// No decision reachable failure-free from here at all.
    pub fn undecided<'g, P: ProcessAutomaton>() -> SysAtom<'g, P> {
        Atom::new("undecided", |g: &SystemGraph<'g, P>, id| {
            g.map().valence_id(id) == Valence::Undecided
        })
    }

    /// Some process has decided in this state.
    pub fn decided<'g, P: ProcessAutomaton>() -> SysAtom<'g, P> {
        Atom::new("decided", |g: &SystemGraph<'g, P>, id| {
            g.map().decisions_id(id).any(|d| d.is_some())
        })
    }

    /// Some process has decided value `v` in this state.
    pub fn decided_value<'g, P: ProcessAutomaton>(v: i64) -> SysAtom<'g, P> {
        let name = format!("decided({v})");
        let v = Val::Int(v);
        Atom::new(name, move |g: &SystemGraph<'g, P>, id| {
            g.map().has_decided_id(id, &v)
        })
    }

    /// Process `i` has decided in this state. False for every `i`
    /// outside `0..n`, which names no process.
    pub fn proc_decided<'g, P: ProcessAutomaton>(i: usize) -> SysAtom<'g, P> {
        Atom::new(
            format!("proc_decided({i})"),
            move |g: &SystemGraph<'g, P>, id| g.map().decision_id(id, ProcId(i)).is_some(),
        )
    }

    /// No agreement/validity violation at this state, under the given
    /// input assignment (the stage-1 safety scan's predicate): exactly
    /// `check_safety(..).is_none()` — every decided value is some
    /// process's input, and no two processes decided differently.
    pub fn safe<'g, P: ProcessAutomaton>(assignment: InputAssignment) -> SysAtom<'g, P> {
        let inputs = assignment.values();
        Atom::new("safe", move |g: &SystemGraph<'g, P>, id| {
            let mut first: Option<&Val> = None;
            g.map()
                .decisions_id(id)
                .flatten()
                .all(|v| inputs.contains(v) && *first.get_or_insert(v) == v)
        })
    }

    /// No process has failed in this state.
    pub fn no_failures<'g, P: ProcessAutomaton>() -> SysAtom<'g, P> {
        Atom::new("no_failures", |g: &SystemGraph<'g, P>, id| {
            g.map().failed_mask_id(id) == 0
        })
    }

    /// Process `i` is marked failed in this state. False for every `i`
    /// outside `0..n`, which names no process.
    pub fn failed<'g, P: ProcessAutomaton>(i: usize) -> SysAtom<'g, P> {
        Atom::new(format!("failed({i})"), move |g: &SystemGraph<'g, P>, id| {
            i < g.sys().process_count() && (g.map().failed_mask_id(id) >> i) & 1 == 1
        })
    }

    /// No progress edge leaves this state (every applicable task
    /// stutters): terminal in `G(C)`.
    pub fn quiescent<'g, P: ProcessAutomaton>() -> SysAtom<'g, P> {
        Atom::new("quiescent", |g: &SystemGraph<'g, P>, id| {
            g.map().successors(id).is_empty()
        })
    }
}

/// A parse failure, with a byte offset into the source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the offending token.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Resolves an atom name plus integer arguments to an [`Atom`]; `None`
/// means the name is unknown to this vocabulary.
pub type Vocab<'v, 'g, G> = &'v dyn Fn(&str, &[i64]) -> Option<Atom<'g, G>>;

/// The textual vocabulary matching [`atoms`], parameterized by the
/// input assignment the `safe` atom checks against.
pub fn system_vocab<'g, P: ProcessAutomaton>(
    assignment: InputAssignment,
) -> impl Fn(&str, &[i64]) -> Option<Atom<'g, SystemGraph<'g, P>>> {
    move |name, args| match (name, args) {
        ("bivalent", []) => Some(atoms::bivalent()),
        ("univalent", []) => Some(atoms::univalent()),
        ("zero_valent", []) => Some(atoms::zero_valent()),
        ("one_valent", []) => Some(atoms::one_valent()),
        ("undecided", []) => Some(atoms::undecided()),
        ("decided", []) => Some(atoms::decided()),
        ("decided", [v]) => Some(atoms::decided_value(*v)),
        ("proc_decided", [i]) => Some(atoms::proc_decided(usize::try_from(*i).ok()?)),
        ("safe", []) => Some(atoms::safe(assignment.clone())),
        ("no_failures", []) => Some(atoms::no_failures()),
        ("failed", [i]) => Some(atoms::failed(usize::try_from(*i).ok()?)),
        ("quiescent", []) => Some(atoms::quiescent()),
        _ => None,
    }
}

/// Parses a `;`-separated list of textual properties into a batch.
///
/// Grammar (whitespace-insensitive):
///
/// ```text
/// props    := prop (';' prop)* [';']
/// prop     := and ('|' and)*
/// and      := unary ('&' unary)*
/// unary    := '!' unary | primary
/// primary  := '(' prop ')'
///           | OP '(' atom [',' atom] ')'      OP ∈ {now, always|ag|invariant,
///                                                   exists_path|ef,
///                                                   eventually|af,
///                                                   fair_eventually|af_fair,
///                                                   leads_to}
///           | atom                             (shorthand for now(atom))
/// atom     := IDENT ['(' INT (',' INT)* ')']
/// ```
///
/// Atom names resolve through `vocab`.
///
/// # Errors
///
/// Returns [`ParseError`] on unknown syntax, unknown atoms, or
/// trailing garbage.
pub fn parse_props<'g, G: PropGraph>(
    src: &str,
    vocab: Vocab<'_, 'g, G>,
) -> Result<Vec<Prop<'g, G>>, ParseError> {
    let mut p = Parser { src, pos: 0, vocab };
    let mut props = Vec::new();
    loop {
        p.skip_ws();
        if p.pos == src.len() && !props.is_empty() {
            break;
        }
        props.push(p.parse_or()?);
        p.skip_ws();
        if !p.eat(';') {
            break;
        }
    }
    p.skip_ws();
    if p.pos != src.len() {
        return Err(p.err("trailing input"));
    }
    Ok(props)
}

struct Parser<'s, 'v, 'g, G: PropGraph> {
    src: &'s str,
    pos: usize,
    vocab: Vocab<'v, 'g, G>,
}

impl<'g, G: PropGraph> Parser<'_, '_, 'g, G> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self.src[self.pos..].starts_with(|c: char| c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn eat(&mut self, c: char) -> bool {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += c.len_utf8();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> Result<(), ParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{c}'")))
        }
    }

    fn ident(&mut self) -> Option<&str> {
        self.skip_ws();
        let rest = &self.src[self.pos..];
        let end = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        if end == 0 || rest.starts_with(|c: char| c.is_ascii_digit()) {
            return None;
        }
        self.pos += end;
        Some(&rest[..end])
    }

    fn int(&mut self) -> Result<i64, ParseError> {
        self.skip_ws();
        let rest = &self.src[self.pos..];
        let neg = rest.starts_with('-');
        let body = &rest[usize::from(neg)..];
        let end = body
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(body.len());
        if end == 0 {
            return Err(self.err("expected an integer"));
        }
        let text = &rest[..end + usize::from(neg)];
        self.pos += text.len();
        text.parse()
            .map_err(|e| self.err(format!("bad integer {text:?}: {e}")))
    }

    fn parse_or(&mut self) -> Result<Prop<'g, G>, ParseError> {
        let mut terms = vec![self.parse_and()?];
        while self.eat('|') {
            terms.push(self.parse_and()?);
        }
        Ok(if terms.len() == 1 {
            terms.pop().expect("one term")
        } else {
            Prop::Or(terms)
        })
    }

    fn parse_and(&mut self) -> Result<Prop<'g, G>, ParseError> {
        let mut terms = vec![self.parse_unary()?];
        while self.eat('&') {
            terms.push(self.parse_unary()?);
        }
        Ok(if terms.len() == 1 {
            terms.pop().expect("one term")
        } else {
            Prop::And(terms)
        })
    }

    fn parse_unary(&mut self) -> Result<Prop<'g, G>, ParseError> {
        if self.eat('!') {
            return Ok(Prop::not(self.parse_unary()?));
        }
        if self.eat('(') {
            let inner = self.parse_or()?;
            self.expect(')')?;
            return Ok(inner);
        }
        let at = self.pos;
        let Some(word) = self.ident() else {
            return Err(self.err("expected a property or atom"));
        };
        let op = match word {
            "now" => Some(Prop::Now as fn(Atom<'g, G>) -> Prop<'g, G>),
            "always" | "ag" | "invariant" => Some(Prop::Always as fn(_) -> _),
            "exists_path" | "ef" => Some(Prop::ExistsPath as fn(_) -> _),
            "eventually" | "af" => Some(Prop::Eventually as fn(_) -> _),
            "fair_eventually" | "af_fair" => Some(Prop::EventuallyFair as fn(_) -> _),
            _ => None,
        };
        if let Some(op) = op {
            self.expect('(')?;
            let a = self.parse_atom()?;
            self.expect(')')?;
            return Ok(op(a));
        }
        if word == "leads_to" {
            self.expect('(')?;
            let p = self.parse_atom()?;
            self.expect(',')?;
            let q = self.parse_atom()?;
            self.expect(')')?;
            return Ok(Prop::LeadsTo(p, q));
        }
        // Bare atom: shorthand for now(atom).
        self.pos = at;
        Ok(Prop::Now(self.parse_atom()?))
    }

    fn parse_atom(&mut self) -> Result<Atom<'g, G>, ParseError> {
        let at = self.pos;
        let Some(name) = self.ident().map(str::to_string) else {
            return Err(self.err("expected an atom name"));
        };
        let mut args = Vec::new();
        if self.eat('(') {
            loop {
                args.push(self.int()?);
                if !self.eat(',') {
                    break;
                }
            }
            self.expect(')')?;
        }
        (self.vocab)(&name, &args).ok_or(ParseError {
            at,
            msg: format!("unknown atom {name:?} with {} argument(s)", args.len()),
        })
    }
}

fn collect_atoms<'g, G: PropGraph>(
    p: &Prop<'g, G>,
    atoms: &mut Vec<Atom<'g, G>>,
    af_atoms: &mut Vec<usize>,
) {
    let mut note = |a: &Atom<'g, G>, af: bool| {
        let idx = match atoms.iter().position(|b| Rc::ptr_eq(&a.f, &b.f)) {
            Some(i) => i,
            None => {
                atoms.push(a.clone());
                atoms.len() - 1
            }
        };
        if af && !af_atoms.contains(&idx) {
            af_atoms.push(idx);
        }
    };
    match p {
        Prop::Now(a) | Prop::Always(a) | Prop::ExistsPath(a) => note(a, false),
        Prop::Eventually(a) | Prop::EventuallyFair(a) => note(a, true),
        Prop::LeadsTo(pa, qa) => {
            note(pa, false);
            note(qa, true);
        }
        Prop::Not(inner) => collect_atoms(inner, atoms, af_atoms),
        Prop::And(ps) | Prop::Or(ps) => {
            for q in ps {
                collect_atoms(q, atoms, af_atoms);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built substrate: explicit edges with task lanes, a
    /// BFS-tree computed from the edge lists, and a per-state
    /// applicability table for fairness tests.
    struct ToyGraph {
        states: Vec<usize>,
        edges: Vec<Vec<(usize, usize)>>,
        roots: Vec<usize>,
        parent: Vec<Option<usize>>,
        open: bool,
        tasks: usize,
        /// `applicable[state][task]`; empty = everything applicable.
        applicable: Vec<Vec<bool>>,
    }

    impl ToyGraph {
        fn new(n: usize, roots: &[usize], edges: &[(usize, usize, usize)]) -> Self {
            let mut rows: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
            for &(from, lane, to) in edges {
                rows[from].push((lane, to));
            }
            // BFS tree for witness paths.
            let mut parent = vec![None; n];
            let mut seen = vec![false; n];
            let mut queue: Vec<usize> = roots.to_vec();
            for &r in roots {
                seen[r] = true;
            }
            let mut qi = 0;
            while qi < queue.len() {
                let u = queue[qi];
                qi += 1;
                for &(_, v) in &rows[u] {
                    if !seen[v] {
                        seen[v] = true;
                        parent[v] = Some(u);
                        queue.push(v);
                    }
                }
            }
            assert!(seen.iter().all(|s| *s), "all toy states must be reachable");
            ToyGraph {
                states: (0..n).collect(),
                edges: rows,
                roots: roots.to_vec(),
                parent,
                open: false,
                tasks: 0, // no fairness info unless `with_tasks` enables it
                applicable: Vec::new(),
            }
        }

        /// Enable task structure: `tasks` lanes, everything applicable
        /// except the listed `(state, task)` pairs.
        fn with_tasks(mut self, tasks: usize, disabled: &[(usize, usize)]) -> Self {
            self.tasks = tasks;
            self.applicable = vec![vec![true; tasks]; self.states.len()];
            for &(s, t) in disabled {
                self.applicable[s][t] = false;
            }
            self
        }

        fn truncated(mut self) -> Self {
            self.open = true;
            self
        }
    }

    impl PropGraph for ToyGraph {
        type State = usize;

        fn state_count(&self) -> usize {
            self.states.len()
        }
        fn root_ids(&self) -> Vec<StateId> {
            self.roots.iter().map(|&r| StateId::from_index(r)).collect()
        }
        fn resolve_state(&self, id: StateId) -> &usize {
            &self.states[id.index()]
        }
        fn frontier_open(&self) -> bool {
            self.open
        }
        fn parent_of(&self, id: StateId) -> Option<StateId> {
            self.parent[id.index()].map(StateId::from_index)
        }
        fn for_each_edge(&self, id: StateId, f: &mut dyn FnMut(usize, StateId)) {
            for &(lane, to) in &self.edges[id.index()] {
                f(lane, StateId::from_index(to));
            }
        }
        fn task_count(&self) -> usize {
            self.tasks
        }
        fn task_applicable(&self, lane: usize, id: StateId) -> bool {
            self.applicable[id.index()][lane]
        }
    }

    fn is(k: usize) -> Atom<'static, ToyGraph> {
        Atom::on_state(format!("is({k})"), move |s: &usize| *s == k)
    }

    fn ids(raw: &[usize]) -> Vec<StateId> {
        raw.iter().map(|&i| StateId::from_index(i)).collect()
    }

    #[test]
    fn eventually_holds_on_a_diamond() {
        // 0 → {1, 2} → 3.
        let g = ToyGraph::new(4, &[0], &[(0, 0, 1), (0, 0, 2), (1, 0, 3), (2, 0, 3)]);
        let ev = evaluate(&g, &Prop::eventually(is(3)));
        assert_eq!(ev.verdict, Verdict::Holds);
        assert!(ev.witness.is_none());
    }

    #[test]
    fn eventually_fails_with_a_lasso_through_a_cycle() {
        // 0 → 1 ⇄ 2, 1 → 3 (goal): the 1-2 cycle avoids the goal.
        let g = ToyGraph::new(4, &[0], &[(0, 0, 1), (1, 0, 2), (2, 0, 1), (1, 1, 3)]);
        let ev = evaluate(&g, &Prop::eventually(is(3)));
        assert_eq!(ev.verdict, Verdict::Fails);
        match ev.witness {
            Some(Witness::Lasso { path, cycle_start }) => {
                assert_eq!(path[0], StateId::from_index(0));
                // The cycle really is a cycle in the edge relation.
                assert!(cycle_start < path.len());
            }
            other => panic!("expected a lasso, got {other:?}"),
        }
    }

    #[test]
    fn eventually_fails_with_a_path_to_a_terminal_trap() {
        // 0 → {1 (goal), 2}; 2 terminal.
        let g = ToyGraph::new(3, &[0], &[(0, 0, 1), (0, 1, 2)]);
        let ev = evaluate(&g, &Prop::eventually(is(1)));
        assert_eq!(ev.verdict, Verdict::Fails);
        assert_eq!(ev.witness, Some(Witness::Path(ids(&[0, 2]))));
    }

    #[test]
    fn fair_eventually_discards_unfair_cycles() {
        // 0 → 1 ⇄ 2 with the exit task (lane 1: 1 → 3) applicable at
        // every state: the 1-2 cycle starves a continuously enabled
        // task, so it is unfair and the fair verdict is Holds.
        let g = ToyGraph::new(4, &[0], &[(0, 0, 1), (1, 0, 2), (2, 0, 1), (1, 1, 3)])
            .with_tasks(2, &[]);
        let plain = evaluate(&g, &Prop::eventually(is(3)));
        assert_eq!(plain.verdict, Verdict::Fails);
        let fair = evaluate(&g, &Prop::fair_eventually(is(3)));
        assert_eq!(fair.verdict, Verdict::Holds);
        assert!(fair.reason.is_some());
    }

    #[test]
    fn fair_eventually_keeps_fair_cycles() {
        // Same shape, but the exit task is disabled at state 2: the
        // cycle disables it infinitely often, so it is fair.
        let g = ToyGraph::new(4, &[0], &[(0, 0, 1), (1, 0, 2), (2, 0, 1), (1, 1, 3)])
            .with_tasks(2, &[(2, 1)]);
        let fair = evaluate(&g, &Prop::fair_eventually(is(3)));
        assert_eq!(fair.verdict, Verdict::Fails);
        match fair.witness {
            Some(Witness::Lasso { .. }) => {}
            other => panic!("expected a lasso, got {other:?}"),
        }
    }

    #[test]
    fn fair_eventually_without_task_info_equals_eventually() {
        let g = ToyGraph::new(4, &[0], &[(0, 0, 1), (1, 0, 2), (2, 0, 1), (1, 1, 3)]);
        let plain = evaluate(&g, &Prop::eventually(is(3)));
        let fair = evaluate(&g, &Prop::fair_eventually(is(3)));
        assert_eq!(plain.verdict, Verdict::Fails);
        assert_eq!(fair.verdict, Verdict::Fails);
    }

    #[test]
    fn exists_path_witness_is_the_bfs_tree_path() {
        // 0 → 1 → 3, 0 → 2 → 3: BFS discovers 3 via 1 first.
        let g = ToyGraph::new(4, &[0], &[(0, 0, 1), (0, 0, 2), (1, 0, 3), (2, 0, 3)]);
        let ev = evaluate(&g, &Prop::exists_path(is(3)));
        assert_eq!(ev.verdict, Verdict::Holds);
        assert_eq!(ev.witness, Some(Witness::Path(ids(&[0, 1, 3]))));
    }

    #[test]
    fn always_counterexample_is_a_shortest_path() {
        let g = ToyGraph::new(3, &[0], &[(0, 0, 1), (1, 0, 2)]);
        let not2 = Atom::on_state("not2", |s: &usize| *s != 2);
        let ev = evaluate(&g, &Prop::always(not2));
        assert_eq!(ev.verdict, Verdict::Fails);
        assert_eq!(ev.witness, Some(Witness::Path(ids(&[0, 1, 2]))));
    }

    #[test]
    fn leads_to_verdicts() {
        // 1 always reaches 3; 2 is terminal.
        let g = ToyGraph::new(4, &[0], &[(0, 0, 1), (0, 0, 2), (1, 0, 3)]);
        assert_eq!(
            evaluate(&g, &Prop::leads_to(is(1), is(3))).verdict,
            Verdict::Holds
        );
        let bad = evaluate(&g, &Prop::leads_to(is(2), is(3)));
        assert_eq!(bad.verdict, Verdict::Fails);
        assert_eq!(bad.witness, Some(Witness::Path(ids(&[0, 2]))));
    }

    #[test]
    fn kleene_combinators() {
        let g = ToyGraph::new(2, &[0], &[(0, 0, 1)]);
        let t = Prop::exists_path(is(1));
        let f = Prop::always(is(0));
        assert_eq!(evaluate(&g, &Prop::not(f.clone())).verdict, Verdict::Holds);
        assert_eq!(
            evaluate(&g, &Prop::all(vec![t.clone(), f.clone()])).verdict,
            Verdict::Fails
        );
        assert_eq!(
            evaluate(&g, &Prop::any(vec![t.clone(), f.clone()])).verdict,
            Verdict::Holds
        );
        // Unknown via an open frontier: t's witness decides, f's
        // absence does not.
        let open = ToyGraph::new(2, &[0], &[(0, 0, 1)]).truncated();
        let safe = Prop::always(Atom::on_state("any", |_: &usize| true));
        assert_eq!(evaluate(&open, &safe).verdict, Verdict::Unknown);
        assert_eq!(
            evaluate(&open, &Prop::all(vec![t.clone(), safe.clone()])).verdict,
            Verdict::Unknown
        );
        assert_eq!(
            evaluate(&open, &Prop::any(vec![t, safe])).verdict,
            Verdict::Holds
        );
    }

    #[test]
    fn open_frontier_semantics() {
        let g = ToyGraph::new(3, &[0], &[(0, 0, 1), (1, 0, 2)]).truncated();
        // Explored violation/witness: decisive despite truncation.
        assert_eq!(
            evaluate(
                &g,
                &Prop::always(Atom::on_state("not2", |s: &usize| *s != 2))
            )
            .verdict,
            Verdict::Fails
        );
        assert_eq!(
            evaluate(&g, &Prop::exists_path(is(2))).verdict,
            Verdict::Holds
        );
        // Absence: inconclusive.
        assert_eq!(
            evaluate(&g, &Prop::exists_path(is(9))).verdict,
            Verdict::Unknown
        );
        // Eventually: unknown unless the root already satisfies it.
        let ev = evaluate(&g, &Prop::eventually(is(2)));
        assert_eq!(ev.verdict, Verdict::Unknown);
        assert!(ev.reason.unwrap().contains("frontier open"));
        assert_eq!(
            evaluate(&g, &Prop::eventually(is(0))).verdict,
            Verdict::Holds
        );
        assert_eq!(
            evaluate(&g, &Prop::leads_to(is(0), is(2))).verdict,
            Verdict::Unknown
        );
    }

    #[test]
    fn batch_fuses_passes() {
        let g = ToyGraph::new(4, &[0], &[(0, 0, 1), (0, 0, 2), (1, 0, 3), (2, 0, 3)]);
        let props = vec![
            Prop::always(Atom::on_state("any", |_: &usize| true)),
            Prop::exists_path(is(3)),
            Prop::eventually(is(3)),
            Prop::eventually(is(1)),
            Prop::leads_to(is(1), is(3)),
            Prop::not(Prop::exists_path(is(9))),
        ];
        let report = evaluate_batch(&g, &props);
        assert_eq!(report.passes.forward, 1, "one fused forward scan");
        assert_eq!(report.passes.backward, 1, "one fused backward sweep");
        assert_eq!(report.passes.aux, 0);
        let verdicts: Vec<Verdict> = report.results.iter().map(|e| e.verdict).collect();
        assert_eq!(
            verdicts,
            vec![
                Verdict::Holds,
                Verdict::Holds,
                Verdict::Holds,
                Verdict::Fails,
                Verdict::Holds,
                Verdict::Holds
            ]
        );
        // The same properties evaluated one by one: same verdicts,
        // one forward pass each.
        for (p, fused) in props.iter().zip(&report.results) {
            let solo = evaluate(&g, p);
            assert_eq!(solo, *fused, "fused and sequential evaluations agree");
        }
    }

    #[test]
    fn shared_atoms_are_evaluated_once() {
        let g = ToyGraph::new(2, &[0], &[(0, 0, 1)]);
        use std::cell::Cell;
        let count = Rc::new(Cell::new(0usize));
        let c = Rc::clone(&count);
        let a = Atom::new("counted", move |_: &ToyGraph, _| {
            c.set(c.get() + 1);
            true
        });
        let props = vec![
            Prop::always(a.clone()),
            Prop::exists_path(a.clone()),
            Prop::eventually(a.clone()),
        ];
        evaluate_batch(&g, &props);
        assert_eq!(count.get(), 2, "one evaluation per state, batch-wide");
    }

    #[test]
    fn an_empty_batch_makes_no_passes() {
        let g = ToyGraph::new(1, &[0], &[]);
        let report = evaluate_batch(&g, &[]);
        assert!(report.results.is_empty());
        assert_eq!(report.passes, PassCounts::default());
    }

    #[test]
    fn parser_round_trips_and_reports_errors() {
        let vocab = |name: &str, args: &[i64]| -> Option<Atom<'static, ToyGraph>> {
            match (name, args) {
                ("goal", [k]) => {
                    let k = usize::try_from(*k).ok()?;
                    Some(is(k))
                }
                ("top", []) => Some(Atom::on_state("top", |_: &usize| true)),
                _ => None,
            }
        };
        let props =
            parse_props::<ToyGraph>("always(top) & ef(goal(3)) | !af(goal(1)); top", &vocab)
                .unwrap();
        assert_eq!(props.len(), 2);
        assert_eq!(
            props[0].to_string(),
            "((always(top) & exists_path(is(3))) | !eventually(is(1)))"
        );
        assert_eq!(props[1].to_string(), "now(top)");
        // Precedence: & binds tighter than |.
        let g = ToyGraph::new(4, &[0], &[(0, 0, 1), (0, 0, 2), (1, 0, 3), (2, 0, 3)]);
        let report = evaluate_batch(&g, &props);
        assert_eq!(report.results[0].verdict, Verdict::Holds);
        assert_eq!(report.results[1].verdict, Verdict::Holds);

        let err = parse_props::<ToyGraph>("always(nope)", &vocab).unwrap_err();
        assert!(err.msg.contains("unknown atom"), "{err}");
        assert!(parse_props::<ToyGraph>("always(top) extra", &vocab).is_err());
        assert!(parse_props::<ToyGraph>("", &vocab).is_err());
        let nested =
            parse_props::<ToyGraph>("!(top & leads_to(goal(1), goal(3)))", &vocab).unwrap();
        assert_eq!(
            nested[0].to_string(),
            "!(now(top) & leads_to(is(1), is(3)))"
        );
    }
}

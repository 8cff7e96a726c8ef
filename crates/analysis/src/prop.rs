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
//!   evaluating every distinct atom once per state;
//! * **at most one backward fixpoint** over the substrate's reverse CSR
//!   ([`ioa::fixpoint::backward_universal`], the same bit-lane engine
//!   the valence map's decided sets run on), answering every
//!   `eventually` / `leads_to` lane of the batch in a single sweep.
//!
//! No edge is copied: the sweep and the witness walks read the
//! substrate's own rows ([`PropGraph::preds`], [`PropGraph::successors`]).
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
use ioa::explore::{first_edge_task, Edge};
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
/// BFS-tree parent per non-root id for witness reconstruction, and its
/// forward rows plus their reverse CSR.
///
/// Fairness information (each edge's task index as its lane, per-state
/// applicability) is optional: substrates without it report
/// `task_count() == 0`, and `fair_eventually` then degenerates to
/// `eventually` (with no task structure, every infinite behavior counts
/// as fair — vacuously).
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

    /// The progress edges out of `id` as `(task index, successor)`, in
    /// edge order. The task index is the edge's fairness lane when
    /// `task_count() > 0`, else ignored.
    fn successors(&self, id: StateId) -> &[Edge];

    /// The reverse CSR of [`PropGraph::successors`]: one predecessor
    /// per forward edge, in `(source, position)` order.
    fn preds(&self) -> &Csr<StateId>;

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

/// The system substrate: a [`ValenceMap`] (the explored `G(C)`) plus
/// the [`CompleteSystem`] it was built from, giving atoms access to
/// valence tables, decisions, failure masks and task applicability.
/// A task lane is an edge's own task index into
/// [`ValenceMap::tasks`].
pub struct SystemGraph<'a, P: ProcessAutomaton> {
    sys: &'a CompleteSystem<P>,
    map: &'a ValenceMap<P>,
}

impl<'a, P: ProcessAutomaton> SystemGraph<'a, P> {
    /// Wraps an explored valence map as a property substrate.
    pub fn new(sys: &'a CompleteSystem<P>, map: &'a ValenceMap<P>) -> Self {
        SystemGraph { sys, map }
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
    /// the `replay` pipeline consumes — read off the edges' task
    /// indices. Adjacent ids must be connected in `G(C)`; with parallel
    /// edges the first matching task is taken ([`first_edge_task`]:
    /// BFS-tree witness paths are discovery steps, and the first edge
    /// in a parent's row reaching a child is the one that discovered
    /// it, so this reproduces the discovering task).
    ///
    /// # Panics
    ///
    /// Panics if consecutive ids are not adjacent in the graph.
    pub fn tasks_along(&self, path: &[StateId]) -> Vec<Task> {
        path.windows(2)
            .map(|w| self.step_task(w[0], w[1]))
            .collect()
    }

    /// The task of the first edge from `from` to `to`.
    fn step_task(&self, from: StateId, to: StateId) -> Task {
        first_edge_task(self.map.tasks(), self.map.successors(from), to)
            .expect("witness path ids must be adjacent in G(C)")
            .clone()
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
            let rep_task = self.step_task(w[0], w[1]);
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
        self.map.parent(id)
    }
    fn successors(&self, id: StateId) -> &[Edge] {
        self.map.successors(id)
    }
    fn preds(&self) -> &Csr<StateId> {
        self.map.preds()
    }
    fn task_count(&self) -> usize {
        self.map.tasks().len()
    }
    fn task_applicable(&self, lane: usize, id: StateId) -> bool {
        self.sys
            .applicable(&self.map.tasks()[lane], self.map.resolve(id))
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
            Prop::And(ps) | Prop::Or(ps) => {
                let sep = if matches!(self, Prop::And(_)) {
                    " & "
                } else {
                    " | "
                };
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, "{sep}")?;
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

    fn witnessed(verdict: Verdict, witness: Witness) -> Self {
        Evaluation {
            verdict,
            witness: Some(witness),
            reason: None,
        }
    }
}

/// Instrumented traversal counts for one [`evaluate_batch`] call — the
/// CI gate asserts the fused evaluator does exactly one forward scan
/// and at most one backward sweep per graph, batch-wide.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PassCounts {
    /// Forward scans over the states (every distinct atom evaluated at
    /// every state).
    pub forward: u32,
    /// Backward sweeps (the multi-lane `AF` fixpoint over the
    /// substrate's reverse CSR).
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
///
/// # Panics
///
/// Panics if the batch names more than [`fixpoint::MAX_LANES`]
/// distinct `eventually`/`leads_to` targets; [`parse_props`] refuses
/// such text.
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

    /// One scan over states in id order: evaluate every atom and record
    /// min satisfying/violating ids.
    fn forward_pass(&mut self) {
        self.passes.forward += 1;
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
        }
        self.grids = grids;
    }

    /// One multi-lane universal fixpoint over the substrate's reverse
    /// CSR: all `AF` targets of the batch in a single sweep.
    fn backward_pass(&mut self) {
        self.passes.backward += 1;
        let mut masks: Vec<u64> = (0..self.n)
            .map(|i| {
                self.af_atoms.iter().enumerate().fold(0u64, |m, (j, &ai)| {
                    m | u64::from(self.grids[ai].get(i)) << j
                })
            })
            .collect();
        fixpoint::backward_universal(self.g.preds(), self.af_atoms.len(), &mut masks);
        self.af = masks;
    }

    /// The forward row of the state with index `u`.
    fn row(&self, u: usize) -> &'e [Edge] {
        self.g.successors(StateId::from_index(u))
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

    /// `Unknown` on an open frontier, saying why.
    fn open_frontier(&self) -> Evaluation {
        Evaluation {
            verdict: Verdict::Unknown,
            witness: None,
            reason: Some(format!(
                "frontier open after {} states: absence over the explored prefix is inconclusive",
                self.n
            )),
        }
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
            Some(r) => Evaluation::witnessed(Verdict::Fails, Witness::Path(vec![*r])),
        }
    }

    fn eval_always(&self, a: &Atom<'g, G>) -> Evaluation {
        if self.n == 0 {
            return Evaluation::plain(Verdict::Holds);
        }
        let ai = self.atom_index(a);
        if let Some(bad) = self.min_false[ai] {
            let path = self.tree_path(StateId::from_index(bad as usize));
            return Evaluation::witnessed(Verdict::Fails, Witness::Path(path));
        }
        if self.open {
            return self.open_frontier();
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
            let path = self.tree_path(StateId::from_index(good as usize));
            return Evaluation::witnessed(Verdict::Holds, Witness::Path(path));
        }
        if self.open {
            return self.open_frontier();
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
            if self.roots.iter().all(|r| self.grids[ai].get(r.index())) {
                return Evaluation::plain(Verdict::Holds);
            }
            return self.open_frontier();
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
            return Evaluation::witnessed(Verdict::Fails, self.af_counterexample(lane, bad_root));
        }
        self.fair_af_verdict(lane, bad_root)
    }

    fn eval_leads_to(&self, pa: &Atom<'g, G>, qa: &Atom<'g, G>) -> Evaluation {
        if self.n == 0 {
            return Evaluation::plain(Verdict::Holds);
        }
        if self.open {
            return self.open_frontier();
        }
        let pi = self.atom_index(pa);
        let lane = self.af_lane(self.atom_index(qa));
        let violation = (0..self.n).find(|&i| self.grids[pi].get(i) && !self.af_bit(lane, i));
        match violation {
            None => Evaluation::plain(Verdict::Holds),
            Some(i) => {
                let path = self.tree_path(StateId::from_index(i));
                Evaluation::witnessed(Verdict::Fails, Witness::Path(path))
            }
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
            let row = self.row(cur.index());
            if row.is_empty() {
                return Witness::Path(path);
            }
            let next = row
                .iter()
                .map(|&(_, s)| s)
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
            if self.row(u).is_empty() {
                // A terminal trap: a finite maximal path avoiding the
                // atom — fair by quiescence.
                let stem = restricted_path(&parent, bad_root, u);
                return Evaluation::witnessed(Verdict::Fails, Witness::Path(stem));
            }
            for &(_, s) in self.row(u) {
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
            if !self.scc_has_cycle(scc) {
                continue;
            }
            if task_count > 0 && !self.scc_tour_is_fair(scc, task_count) {
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
                    .row(cur)
                    .iter()
                    .map(|&(_, s)| s.index())
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
                let row = self.row(u as usize);
                if *cursor < row.len() {
                    let v = row[*cursor].1.index();
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
    fn scc_has_cycle(&self, scc: &[u32]) -> bool {
        if scc.len() > 1 {
            return true;
        }
        let u = scc[0] as usize;
        self.row(u).iter().any(|&(_, s)| s.index() == u)
    }

    /// The weak-fairness clause on the component's full tour: every
    /// task either labels an internal edge (fires infinitely often on
    /// the tour) or is inapplicable at some component state (disabled
    /// infinitely often). Mirrors `ioa::fairness::lasso_is_fair`.
    fn scc_tour_is_fair(&self, scc: &[u32], task_count: usize) -> bool {
        let mut fired = vec![false; task_count];
        for &u in scc {
            for &(k, s) in self.row(u as usize) {
                if scc.binary_search(&(s.index() as u32)).is_ok() {
                    fired[k as usize] = true;
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
            let next = cycle[(k + 1) % cycle.len()];
            if let Some(&(lane, _)) = self.row(u).iter().find(|&&(_, t)| t == next) {
                fired[lane as usize] = true;
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
/// deduplicate its per-state evaluation, as [`parse_props`] does for
/// repeated atom text.
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
/// Atom names resolve through `vocab`, once per distinct atom text
/// (name plus arguments): every occurrence shares that one [`Atom`], so
/// [`evaluate_batch`] evaluates a repeated atom once per state and a
/// repeated `eventually`/`leads_to` target takes one backward lane.
///
/// # Errors
///
/// Returns [`ParseError`] on unknown syntax, unknown atoms, trailing
/// garbage, `!`/`(`/`&`/`|` nesting deeper than 256 levels, or a batch
/// naming more than [`fixpoint::MAX_LANES`] distinct
/// `eventually`/`leads_to` targets.
pub fn parse_props<'g, G: PropGraph>(
    src: &str,
    vocab: Vocab<'_, 'g, G>,
) -> Result<Vec<Prop<'g, G>>, ParseError> {
    let mut p = Parser {
        src,
        pos: 0,
        vocab,
        atoms: Vec::new(),
    };
    let (mut props, mut atoms, mut targets) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        p.skip_ws();
        if p.pos == src.len() && !props.is_empty() {
            break;
        }
        let at = p.pos;
        let prop = p.parse_or(0)?;
        if nesting(&prop) > MAX_NESTING {
            return Err(too_deep(at));
        }
        collect_atoms(&prop, &mut atoms, &mut targets);
        if targets.len() > fixpoint::MAX_LANES {
            let max = fixpoint::MAX_LANES;
            let msg =
                format!("a batch supports at most {max} distinct eventually/leads-to targets");
            return Err(ParseError { at, msg });
        }
        props.push(prop);
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

/// How deeply [`parse_props`] lets `!`, `(`, `&` and `|` nest. The
/// parser recurses once per `!` and `(`, so the cap bounds its stack
/// on any input.
const MAX_NESTING: usize = 256;

/// How deeply `p`'s `!`, `&` and `|` nodes nest: the `!`-and-`(`
/// depth of its `Display` form, so a parsed batch prints as text that
/// parses again.
fn nesting<G: PropGraph>(p: &Prop<'_, G>) -> usize {
    match p {
        Prop::Not(q) => 1 + nesting(q),
        Prop::And(ps) | Prop::Or(ps) => 1 + ps.iter().map(nesting).max().unwrap_or(0),
        _ => 0,
    }
}

fn too_deep(at: usize) -> ParseError {
    let msg = format!("operators nest deeper than {MAX_NESTING} levels");
    ParseError { at, msg }
}

struct Parser<'s, 'v, 'g, G: PropGraph> {
    src: &'s str,
    pos: usize,
    vocab: Vocab<'v, 'g, G>,
    /// The atom resolved for each distinct name and arguments so far.
    atoms: Vec<(String, Vec<i64>, Atom<'g, G>)>,
}

impl<'g, G: PropGraph> Parser<'_, '_, 'g, G> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek().filter(|c| c.is_whitespace()) {
            self.pos += c.len_utf8();
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

    fn parse_or(&mut self, depth: usize) -> Result<Prop<'g, G>, ParseError> {
        let mut terms = vec![self.parse_and(depth)?];
        while self.eat('|') {
            terms.push(self.parse_and(depth)?);
        }
        Ok(if terms.len() == 1 {
            terms.pop().expect("one term")
        } else {
            Prop::Or(terms)
        })
    }

    fn parse_and(&mut self, depth: usize) -> Result<Prop<'g, G>, ParseError> {
        let mut terms = vec![self.parse_unary(depth)?];
        while self.eat('&') {
            terms.push(self.parse_unary(depth)?);
        }
        Ok(if terms.len() == 1 {
            terms.pop().expect("one term")
        } else {
            Prop::And(terms)
        })
    }

    /// `depth` counts the `!` and `(` open around this unary.
    fn parse_unary(&mut self, depth: usize) -> Result<Prop<'g, G>, ParseError> {
        if depth > MAX_NESTING {
            // `pos` is just past the `!` or `(` that opened one too many.
            return Err(too_deep(self.pos - 1));
        }
        if self.eat('!') {
            return Ok(Prop::not(self.parse_unary(depth + 1)?));
        }
        if self.eat('(') {
            let inner = self.parse_or(depth + 1)?;
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
        if let Some((.., a)) = self.atoms.iter().find(|(n, v, _)| *n == name && *v == args) {
            return Ok(a.clone());
        }
        let a = (self.vocab)(&name, &args).ok_or_else(|| ParseError {
            at,
            msg: format!("unknown atom {name:?} with {} argument(s)", args.len()),
        })?;
        self.atoms.push((name, args, a.clone()));
        Ok(a)
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

    /// A hand-built substrate: explicit edges with task lanes in a
    /// forward CSR plus its transpose, a BFS-tree computed from the
    /// edge lists, and a per-state applicability table for fairness
    /// tests.
    struct ToyGraph {
        states: Vec<usize>,
        edges: Csr<Edge>,
        preds: Csr<StateId>,
        roots: Vec<usize>,
        parent: Vec<Option<usize>>,
        open: bool,
        tasks: usize,
        /// `applicable[state][task]`; empty = everything applicable.
        applicable: Vec<Vec<bool>>,
    }

    impl ToyGraph {
        fn new(n: usize, roots: &[usize], edges: &[(usize, usize, usize)]) -> Self {
            let mut rows: Vec<Vec<Edge>> = vec![Vec::new(); n];
            for &(from, lane, to) in edges {
                rows[from].push((lane as u32, StateId::from_index(to)));
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
                    if !seen[v.index()] {
                        seen[v.index()] = true;
                        parent[v.index()] = Some(u);
                        queue.push(v.index());
                    }
                }
            }
            assert!(seen.iter().all(|s| *s), "all toy states must be reachable");
            let mut csr = Csr::new();
            for row in rows {
                for e in row {
                    csr.push(e);
                }
                csr.close_row();
            }
            ToyGraph {
                states: (0..n).collect(),
                preds: csr.reversed(|e| e.1.index(), |src, _| StateId::from_index(src)),
                edges: csr,
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
        fn successors(&self, id: StateId) -> &[Edge] {
            self.edges.row(id.index())
        }
        fn preds(&self) -> &Csr<StateId> {
            &self.preds
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

    /// `0 → 1 → … → n - 1`, one task.
    fn chain(n: usize) -> ToyGraph {
        let edges: Vec<_> = (1..n).map(|k| (k - 1, 0, k)).collect();
        ToyGraph::new(n, &[0], &edges)
    }

    /// The textual vocabulary of the parser tests: `goal(k)` is
    /// `is(k)`, `top` holds everywhere.
    fn toy_vocab(name: &str, args: &[i64]) -> Option<Atom<'static, ToyGraph>> {
        match (name, args) {
            ("goal", [k]) => {
                let k = usize::try_from(*k).ok()?;
                Some(is(k))
            }
            ("top", []) => Some(Atom::on_state("top", |_: &usize| true)),
            _ => None,
        }
    }

    #[test]
    fn empty_graph_every_universal_holds_every_existential_fails() {
        // No roots: the graph has no states at all.
        let g = ToyGraph::new(0, &[], &[]);
        assert_eq!(g.state_count(), 0);
        assert_eq!(evaluate(&g, &Prop::always(is(0))).verdict, Verdict::Holds);
        assert_eq!(
            evaluate(&g, &Prop::eventually(is(0))).verdict,
            Verdict::Holds
        );
        assert_eq!(
            evaluate(&g, &Prop::exists_path(is(0))).verdict,
            Verdict::Fails
        );
        assert_eq!(evaluate(&g, &Prop::now(is(0))).verdict, Verdict::Holds);
        let report = evaluate_batch(&g, &[Prop::always(is(0)), Prop::exists_path(is(1))]);
        assert!(report.passes.forward <= 1, "zero states need no real scan");
        assert_eq!(report.passes.backward, 0, "nothing to sweep backward");
    }

    #[test]
    fn truncated_graph_eventually_is_unknown_not_false() {
        // A counter that would reach 9, cut by a state budget after
        // {0..4}: the frontier is open, so "eventually is(9)" is not
        // refutable — the missing suffix could decide it either way.
        let g = chain(5).truncated();
        assert!(g.frontier_open());
        let ev = evaluate(&g, &Prop::eventually(is(9)));
        assert_eq!(ev.verdict, Verdict::Unknown);
        assert!(
            ev.reason.as_deref().unwrap_or("").contains("frontier open"),
            "reason must name the open frontier, got {:?}",
            ev.reason
        );
        // Same for a goal that *is* inside the kept prefix but not at the
        // root: a kept path reaches it, yet some unexplored branch might
        // not — with one task here it actually must, but the evaluator may
        // not assume that, so Unknown is the only sound answer.
        assert_eq!(
            evaluate(&g, &Prop::eventually(is(3))).verdict,
            Verdict::Unknown
        );
        // A root that already satisfies the goal is decided despite the
        // truncation.
        assert_eq!(
            evaluate(&g, &Prop::eventually(is(0))).verdict,
            Verdict::Holds
        );
        // Explored facts stay decisive; absences go unknown.
        assert_eq!(
            evaluate(&g, &Prop::exists_path(is(3))).verdict,
            Verdict::Holds
        );
        assert_eq!(
            evaluate(&g, &Prop::exists_path(is(9))).verdict,
            Verdict::Unknown
        );
        assert_eq!(
            evaluate(&g, &Prop::always(is(0))).verdict,
            Verdict::Fails,
            "an explored violation refutes the invariant even when open"
        );
        assert_eq!(
            evaluate(
                &g,
                &Prop::always(Atom::on_state("low", |s: &usize| *s < 100))
            )
            .verdict,
            Verdict::Unknown
        );
        // The backward sweep is skipped entirely on open frontiers.
        let report = evaluate_batch(&g, &[Prop::eventually(is(9)), Prop::leads_to(is(1), is(3))]);
        assert_eq!(report.passes.backward, 0);
        assert!(report.results.iter().all(|e| e.verdict == Verdict::Unknown));
    }

    #[test]
    fn single_state_graph() {
        let g = chain(1);
        assert_eq!(g.state_count(), 1);
        assert!(!g.frontier_open());
        // The lone state is terminal: every maximal path is just it.
        assert_eq!(evaluate(&g, &Prop::always(is(0))).verdict, Verdict::Holds);
        assert_eq!(
            evaluate(&g, &Prop::eventually(is(0))).verdict,
            Verdict::Holds
        );
        let miss = evaluate(&g, &Prop::eventually(is(1)));
        assert_eq!(miss.verdict, Verdict::Fails);
        assert_eq!(
            miss.witness,
            Some(Witness::Path(g.root_ids())),
            "the counterexample is the root itself, already terminal"
        );
        let hit = evaluate(&g, &Prop::exists_path(is(0)));
        assert_eq!(hit.verdict, Verdict::Holds);
        assert_eq!(hit.witness, Some(Witness::Path(g.root_ids())));
        assert_eq!(
            evaluate(&g, &Prop::leads_to(is(0), is(0))).verdict,
            Verdict::Holds
        );
        assert_eq!(
            evaluate(&g, &Prop::leads_to(is(0), is(1))).verdict,
            Verdict::Fails
        );
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
        let vocab = toy_vocab;
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

    #[test]
    fn parser_steps_over_multi_byte_whitespace() {
        for src in [
            "always(top)\u{a0}",
            "\u{3000}always(top)",
            "always(\u{2003}goal(\u{85}1\u{a0}))\u{3000};\u{a0}top",
        ] {
            let props =
                parse_props::<ToyGraph>(src, &toy_vocab).unwrap_or_else(|e| panic!("{src:?}: {e}"));
            assert_eq!(props[0].to_string().split('(').next(), Some("always"));
        }
    }

    #[test]
    fn parsed_batches_share_atoms() {
        use std::cell::Cell;
        let (resolved, evaluated) = (Cell::new(0usize), Rc::new(Cell::new(0usize)));
        let vocab = |name: &str, _: &[i64]| -> Option<Atom<'static, ToyGraph>> {
            resolved.set(resolved.get() + 1);
            let evaluated = Rc::clone(&evaluated);
            (name == "counted").then(|| {
                Atom::new("counted", move |_: &ToyGraph, _| {
                    evaluated.set(evaluated.get() + 1);
                    true
                })
            })
        };
        let props = parse_props::<ToyGraph>(
            "always(counted); ef(counted) & counted; af( counted ); leads_to(counted, counted)",
            &vocab,
        )
        .unwrap();
        assert_eq!(resolved.get(), 1, "one vocabulary call per atom text");
        let report = evaluate_batch(&ToyGraph::new(2, &[0], &[(0, 0, 1)]), &props);
        assert_eq!(evaluated.get(), 2, "one evaluation per state, batch-wide");
        assert_eq!(report.passes.backward, 1);
        assert!(report.results.iter().all(|e| e.verdict == Verdict::Holds));
    }

    #[test]
    fn parser_refuses_more_distinct_targets_than_lanes() {
        let targets = |k: usize| {
            (0..k)
                .map(|j| format!("af(goal({j}))"))
                .collect::<Vec<_>>()
                .join("; ")
        };
        assert_eq!(
            parse_props::<ToyGraph>(&targets(fixpoint::MAX_LANES), &toy_vocab).map(|ps| ps.len()),
            Ok(fixpoint::MAX_LANES)
        );
        let err =
            parse_props::<ToyGraph>(&targets(fixpoint::MAX_LANES + 1), &toy_vocab).unwrap_err();
        assert!(err.msg.contains("at most 64 distinct"), "{err}");
        // A repeated target is one lane, however often it is named.
        let repeated = "leads_to(top, goal(1)); af(goal(1)); ".repeat(fixpoint::MAX_LANES);
        let props = parse_props::<ToyGraph>(&repeated, &toy_vocab).unwrap();
        let report = evaluate_batch(&ToyGraph::new(2, &[0], &[(0, 0, 1)]), &props);
        assert_eq!(report.results.len(), 2 * fixpoint::MAX_LANES);
        assert_eq!(report.passes.backward, 1);
    }

    #[test]
    fn parser_caps_nesting() {
        let bangs = |k: usize| format!("{}top", "!".repeat(k));
        let parens = |k: usize| format!("{}top{}", "(".repeat(k), ")".repeat(k));
        for deep in [bangs(MAX_NESTING), parens(MAX_NESTING)] {
            assert!(parse_props::<ToyGraph>(&deep, &toy_vocab).is_ok());
        }
        for too_deep in [
            bangs(MAX_NESTING + 1),
            parens(MAX_NESTING + 1),
            bangs(100_000),
            parens(20_000),
            // Within the `!` cap, but the `&` node adds a level.
            format!("{} & top", bangs(MAX_NESTING)),
        ] {
            let err = parse_props::<ToyGraph>(&too_deep, &toy_vocab).unwrap_err();
            assert!(err.msg.contains("deeper than 256 levels"), "{err}");
        }
        // Accepted text prints as text that parses again.
        let edge = format!("{} & top", bangs(MAX_NESTING - 1));
        let printed = parse_props::<ToyGraph>(&edge, &toy_vocab).unwrap()[0].to_string();
        let again = parse_props::<ToyGraph>(&printed, &toy_vocab).unwrap();
        assert_eq!(again[0].to_string(), printed);
    }
}

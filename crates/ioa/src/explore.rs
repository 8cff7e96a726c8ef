//! Breadth-first exploration of an automaton's reachable state space
//! (the executions of Section 2.1.1, and the graph `G(C)` of reachable
//! configurations that Section 3.3's valence analysis walks).
//!
//! All exploration funnels through [`ExploredGraph::explore_with`]: one
//! interning BFS over a [`StateStore`] that hands out dense [`StateId`]s
//! in discovery order. Frontier, seen-set, parent map and edge lists are
//! all id-keyed — each distinct state is deep-cloned and deep-hashed
//! exactly once, at first sight, instead of once per visit/per edge as
//! in a state-keyed BFS. Downstream passes (valence census, hook
//! search, witness scans) index flat `Vec`s by id. An [`Edge`] is a task
//! index and a target id: the source and the task fix the action
//! (Section 3.1), and no proof object reads it. The BFS tree keeps one
//! parent id per state; [`first_edge_task`] recovers the discovering
//! task. Reachability is
//! [`ExploredGraph::contains`]; a first-match query is `ids().find(..)`
//! followed by [`ExploredGraph::path_to`], which, ids following
//! discovery order, is the match a BFS meets first, reached along a
//! shortest path.
//!
//! Budget semantics: exploration is truncated by `max_states`. When the
//! budget is hit, edges that would point at a never-enqueued state are
//! **dropped and counted** in [`ExploreStats::truncation`] — a truncated
//! graph never contains an edge to a state that has no node entry, so
//! every consumer may index edges blindly.

use crate::automaton::{Automaton, CacheStats};
use crate::canon::SymmetryMode;
use crate::csr::Csr;
use crate::store::{StateId, StateStore};
use std::collections::VecDeque;

/// Why (and whether) exploration stopped before exhausting the
/// reachable space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truncation {
    /// The whole reachable space fit in the budget; the graph is exact.
    Complete,
    /// The state budget was hit: at least one reachable state was never
    /// interned, and `dropped_edges` discovered transitions into such
    /// states were discarded to keep the graph closed over its nodes.
    StateBudget {
        /// The `max_states` budget that was exceeded.
        budget: usize,
        /// Transitions discarded because their target was never
        /// admitted (each counted once per discovery, so a dropped
        /// state reachable along `k` explored edges counts `k` times).
        dropped_edges: usize,
    },
}

/// Census of a finished exploration.
#[derive(Debug, Clone, Copy)]
pub struct ExploreStats {
    /// Distinct states interned (= nodes in the graph).
    pub states: usize,
    /// Transitions retained in the edge lists.
    pub edges: usize,
    /// The largest BFS frontier (queue plus the state being expanded),
    /// sampled when a state is dequeued — a proxy for the exploration's
    /// working-set width.
    pub peak_frontier: usize,
    /// Whether the graph is exact or budget-truncated.
    pub truncation: Truncation,
    /// Hit/miss counters of the automaton's transition-effect cache
    /// over this exploration, or `None` for automata without one.
    /// Accounted through the scoped sink of [`Automaton::expand`], so
    /// the numbers cover exactly this exploration's expansions even
    /// when interleaved workloads share the automaton (and its
    /// cumulative counters).
    pub cache: Option<CacheStats>,
}

// `cache` is a measurement of *how* the graph was produced, not part of
// the graph's identity: the deep and the packed system automata explore
// bit-identical graphs while only the packed one reports cache counters.
// Equality therefore compares the census fields only (the peak frontier
// included: one deterministic BFS fixes it), so the differential suites
// can assert `deep.stats() == packed.stats()` across automaton encodings.
impl PartialEq for ExploreStats {
    fn eq(&self, other: &Self) -> bool {
        self.states == other.states
            && self.edges == other.edges
            && self.peak_frontier == other.peak_frontier
            && self.truncation == other.truncation
    }
}

impl Eq for ExploreStats {}

impl ExploreStats {
    /// Whether any part of the reachable space was cut off.
    #[must_use]
    pub fn truncated(&self) -> bool {
        !matches!(self.truncation, Truncation::Complete)
    }
}

/// Formerly overrode the worker-thread count.
///
/// Ignored; exploration is sequential; removed with the next benchmark
/// change.
pub const THREADS_ENV: &str = "IOA_EXPLORE_THREADS";

/// Formerly selected the frontier discipline.
///
/// Ignored; exploration is sequential; removed with the next benchmark
/// change.
pub const FRONTIER_ENV: &str = "IOA_EXPLORE_FRONTIER";

/// Formerly selected the frontier discipline.
///
/// Ignored; exploration is sequential; removed with the next benchmark
/// change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrontierMode {
    /// The only value left.
    #[default]
    Auto,
}

impl FrontierMode {
    /// Ignored; exploration is sequential; removed with the next
    /// benchmark change.
    #[must_use]
    pub fn effective(self) -> FrontierMode {
        self
    }
}

/// Knobs for [`ExploredGraph::explore_with`].
#[derive(Debug, Clone, Copy)]
pub struct ExploreOptions {
    /// Maximum number of distinct states to intern. Roots are always
    /// admitted; successors stop being admitted once the arena holds
    /// `max_states`.
    pub max_states: usize,
    /// Drop self-loop transitions (`s -> s`) at discovery time. The
    /// valence census (Section 3.3) walks `G(C)` this way: a stuttering
    /// step never changes the decisions reachable from a configuration.
    pub skip_self_loops: bool,
    /// Ignored; exploration is sequential; removed with the next
    /// benchmark change.
    pub threads: usize,
    /// Whether successors are canonicalized to orbit representatives
    /// via [`Automaton::canonical`] before interning, quotienting the
    /// graph by the automaton's declared symmetry group.
    ///
    /// Roots are never canonicalized — they anchor concrete
    /// initializations (input assignments, replayable task prefixes) —
    /// so a quotient graph holds the given roots plus canonical
    /// representatives. With `skip_self_loops`, *orbit* stutters
    /// (successors canonicalizing back onto their source) are dropped
    /// along with concrete ones. For automata whose `canonical` is the
    /// identity (the default), `Full` explores the same graph as `Off`.
    pub symmetry: SymmetryMode,
    /// Ignored; exploration is sequential; removed with the next
    /// benchmark change.
    pub frontier: FrontierMode,
}

impl ExploreOptions {
    /// Keep everything up to `max_states`, self-loops included, no
    /// symmetry reduction.
    #[must_use]
    pub fn with_budget(max_states: usize) -> Self {
        ExploreOptions {
            max_states,
            skip_self_loops: false,
            threads: 0,
            symmetry: SymmetryMode::Off,
            frontier: FrontierMode::Auto,
        }
    }

    /// Ignored; exploration is sequential; removed with the next
    /// benchmark change.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Same options with an explicit symmetry mode.
    #[must_use]
    pub fn with_symmetry(mut self, symmetry: SymmetryMode) -> Self {
        self.symmetry = symmetry;
        self
    }

    /// Ignored; exploration is sequential; removed with the next
    /// benchmark change. Always 1.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        1
    }
}

/// One retained transition out of an interned state: `(k, successor
/// id)`, where `k` indexes the graph's task list
/// ([`ExploredGraph::tasks`]).
pub type Edge = (u32, StateId);

// An edge and a BFS-tree slot each fit in 8 bytes.
const _: () = assert!(std::mem::size_of::<Edge>() == 8);
const _: () = assert!(std::mem::size_of::<Option<StateId>>() <= 8);

/// The interned reachable graph of an automaton from a set of roots:
/// the paper's `G(C)` (Section 3.3) with states replaced by dense
/// [`StateId`]s.
///
/// One `ExploredGraph` is built per root configuration and then shared
/// by every analysis pass — valence classification, Lemma 4 bivalent
/// initialization, the Lemma 5 hook search, witness extraction — so the
/// state space is expanded, hashed and cloned exactly once.
pub struct ExploredGraph<A: Automaton> {
    store: StateStore<A::State>,
    roots: Vec<StateId>,
    /// The automaton's tasks, in its canonical order; edges index it.
    tasks: Vec<A::Task>,
    /// Flat CSR adjacency: row `id` holds the retained transitions out
    /// of state `id`, in task order. One contiguous edge array for the
    /// whole graph.
    edges: Csr<Edge>,
    /// BFS tree: for each non-root state, the predecessor that first
    /// discovered it.
    parent: Vec<Option<StateId>>,
    stats: ExploreStats,
}

// Manual impl: a derive would demand `A: Debug` although only the
// associated types (all `Debug` by the trait bounds) appear in the data.
impl<A: Automaton> std::fmt::Debug for ExploredGraph<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExploredGraph")
            .field("roots", &self.roots)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<A: Automaton> ExploredGraph<A> {
    /// Explore with the default options (no self-loop skipping).
    pub fn explore(aut: &A, roots: Vec<A::State>, max_states: usize) -> Self {
        Self::explore_with(aut, roots, ExploreOptions::with_budget(max_states))
    }

    /// Interning BFS from `roots`, visiting each distinct state once.
    ///
    /// Discovery order (and hence id assignment) is deterministic: the
    /// root order, then task order within each expanded state, then the
    /// branch order of [`Automaton::succ_all`]. See DESIGN.md §2.1.1.
    pub fn explore_with(aut: &A, roots: Vec<A::State>, opts: ExploreOptions) -> Self {
        // Cache accounting is scoped: every expansion goes through
        // `expand` with this exploration's own sink, so the reported
        // numbers cover exactly this run even when one warm automaton
        // (e.g. one `PackedSystem` across the Lemma 4 walk) serves
        // several interleaved workloads.
        let track_cache = aut.cache_stats().is_some();
        let mut b = Builder::new(aut.tasks(), &roots);
        b.expand_sequential(aut, opts);
        let scoped = b.cache;
        let mut g = b.finish(opts);
        g.stats.cache = track_cache.then_some(scoped);
        g
    }

    /// The arena mapping ids to states.
    #[must_use]
    pub fn store(&self) -> &StateStore<A::State> {
        &self.store
    }

    /// Number of interned states (nodes).
    #[must_use]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the graph has no states (only possible with no roots).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The root ids, in the order the roots were given.
    #[must_use]
    pub fn roots(&self) -> &[StateId] {
        &self.roots
    }

    /// Exploration census: states, edges, peak frontier, truncation.
    #[must_use]
    pub fn stats(&self) -> &ExploreStats {
        &self.stats
    }

    /// Resolve an id back to its state.
    #[inline]
    #[must_use]
    pub fn resolve(&self, id: StateId) -> &A::State {
        self.store.resolve(id)
    }

    /// The id of `state`, if it was reached within budget.
    #[must_use]
    pub fn id_of(&self, state: &A::State) -> Option<StateId> {
        self.store.get(state)
    }

    /// Whether `state` was reached within budget.
    #[must_use]
    pub fn contains(&self, state: &A::State) -> bool {
        self.store.get(state).is_some()
    }

    /// The automaton's tasks, in the order edges index them.
    #[must_use]
    pub fn tasks(&self) -> &[A::Task] {
        &self.tasks
    }

    /// The retained transitions out of `id`, in task order.
    #[inline]
    #[must_use]
    pub fn successors(&self, id: StateId) -> &[Edge] {
        self.edges.row(id.index())
    }

    /// All ids in discovery (BFS) order.
    pub fn ids(&self) -> impl Iterator<Item = StateId> + '_ {
        self.store.ids()
    }

    /// The BFS-tree parent that first discovered `id` (`None` for
    /// roots).
    #[must_use]
    pub fn parent(&self, id: StateId) -> Option<StateId> {
        self.parent[id.index()]
    }

    /// Decompose the graph into its owned parts — arena, roots, task
    /// list, edge lists, BFS tree and stats — so a caller can re-encode
    /// the states (e.g. decode packed component ids back into concrete
    /// system states) without cloning the adjacency structure.
    #[must_use]
    pub fn into_parts(self) -> GraphParts<A> {
        GraphParts {
            store: self.store,
            roots: self.roots,
            tasks: self.tasks,
            edges: self.edges,
            parent: self.parent,
            stats: self.stats,
        }
    }

    /// A shortest path (in the BFS tree) from some root to `id`, as
    /// `(task, resulting state)` steps.
    #[must_use]
    pub fn path_to(&self, id: StateId) -> Path<A> {
        let mut path = Vec::new();
        let mut cur = id;
        while let Some(prev) = self.parent(cur) {
            let t = first_edge_task(&self.tasks, self.successors(prev), cur)
                .expect("a BFS-tree link is an edge");
            path.push((t.clone(), self.store.resolve(cur).clone()));
            cur = prev;
        }
        path.reverse();
        path
    }
}

/// The task of the first edge in `row` reaching `to`, `tasks` being
/// the list the row's task indices point into. With parallel edges
/// that is the first in task order, which for a BFS-tree link is the
/// task that discovered `to`.
#[must_use]
pub fn first_edge_task<'t, T>(tasks: &'t [T], row: &[Edge], to: StateId) -> Option<&'t T> {
    row.iter()
        .find(|&&(_, s2)| s2 == to)
        .map(|&(k, _)| &tasks[k as usize])
}

/// The owned pieces of an [`ExploredGraph`], produced by
/// [`ExploredGraph::into_parts`]. Ids index `edges` and `parent`
/// exactly as they index the arena.
pub struct GraphParts<A: Automaton> {
    /// The arena mapping ids to states, in discovery order.
    pub store: StateStore<A::State>,
    /// The root ids, in the order the roots were given.
    pub roots: Vec<StateId>,
    /// The automaton's tasks, in the order edges index them.
    pub tasks: Vec<A::Task>,
    /// Flat CSR adjacency: row `id` holds the transitions out of state
    /// `id`, in task order.
    pub edges: Csr<Edge>,
    /// BFS tree: the predecessor that first discovered each non-root
    /// state.
    pub parent: Vec<Option<StateId>>,
    /// Exploration census: states, edges, peak frontier, truncation.
    pub stats: ExploreStats,
}

/// In-progress exploration state of the BFS loop.
struct Builder<A: Automaton> {
    store: StateStore<A::State>,
    root_ids: Vec<StateId>,
    tasks: Vec<A::Task>,
    /// CSR adjacency under construction. Sources are expanded in
    /// strictly increasing id order (BFS pops a monotone queue), so the
    /// open CSR row is always the row of the source currently being
    /// expanded, and closing it after the source's last successor lays
    /// rows out in id order with no repacking pass.
    edges: Csr<Edge>,
    parent: Vec<Option<StateId>>,
    queue: VecDeque<StateId>,
    edge_count: usize,
    dropped_edges: usize,
    truncated: bool,
    peak_frontier: usize,
    /// Scoped cache accounting for this exploration only (fed by the
    /// [`Automaton::expand`] sink).
    cache: CacheStats,
}

impl<A: Automaton> Builder<A> {
    fn new(tasks: Vec<A::Task>, roots: &[A::State]) -> Self {
        let mut b = Builder {
            store: StateStore::new(),
            root_ids: Vec::with_capacity(roots.len()),
            tasks,
            edges: Csr::new(),
            parent: Vec::new(),
            queue: VecDeque::new(),
            edge_count: 0,
            dropped_edges: 0,
            truncated: false,
            peak_frontier: 0,
            cache: CacheStats::default(),
        };
        for r in roots {
            let (id, fresh) = b.store.intern(r);
            if fresh {
                b.parent.push(None);
                b.queue.push_back(id);
            }
            b.root_ids.push(id);
        }
        b
    }

    /// Record one discovered transition `src -(tasks[k])-> s2`: intern
    /// (budget-checked), extend the parent map on first sight, drop and
    /// count the edge on budget exhaustion. Returns the successor's id when it was freshly
    /// admitted (the caller owns the frontier and enqueues it).
    fn admit(
        &mut self,
        src: StateId,
        k: u32,
        s2: A::State,
        hash: u64,
        cap: usize,
    ) -> Option<StateId> {
        match self.store.try_intern_prehashed(s2, hash, cap) {
            Some((id2, fresh)) => {
                if fresh {
                    self.parent.push(Some(src));
                }
                // The open CSR row is src's row by the edges invariant.
                self.edges.push((k, id2));
                self.edge_count += 1;
                fresh.then_some(id2)
            }
            None => {
                // Budget hit: the target was never admitted, so the
                // edge is dropped (and counted) rather than left
                // dangling at a node with no entry.
                self.truncated = true;
                self.dropped_edges += 1;
                None
            }
        }
    }

    /// The BFS loop: one state popped, expanded and merged at a time.
    ///
    /// Each state is expanded by one [`Automaton::expand`] call into a
    /// buffer reused across states, which drops concrete stutters
    /// (`s2 == s`) when `skip_self_loops` is set. Under
    /// [`SymmetryMode::Full`] each successor is then canonicalized to
    /// its orbit representative before hashing, and *orbit* stutters
    /// (`canonical(s2) == s`, the successor permuting back onto its
    /// canonical source) are dropped after it.
    fn expand_sequential(&mut self, aut: &A, opts: ExploreOptions) {
        let canon = opts.symmetry.reduces();
        let mut raw: Vec<(u32, A::State)> = Vec::new();
        // Successors paired with their fx hash, so interning never
        // re-hashes.
        let mut succs: Vec<(u32, A::State, u64)> = Vec::new();
        while let Some(id) = self.queue.pop_front() {
            self.peak_frontier = self.peak_frontier.max(self.queue.len() + 1);
            // Collect successors under an immutable borrow of the
            // arena, then intern them; `expand` hands back owned
            // states, so the expanded state itself is never recloned.
            let s = self.store.resolve(id);
            aut.expand(
                &self.tasks,
                s,
                opts.skip_self_loops,
                &mut raw,
                &mut self.cache,
            );
            for (k, s2) in raw.drain(..) {
                let s2 = if canon { aut.canonical(s2) } else { s2 };
                if canon && opts.skip_self_loops && &s2 == s {
                    continue;
                }
                let h = crate::store::fx_hash(&s2);
                succs.push((k, s2, h));
            }
            for (k, s2, h) in succs.drain(..) {
                if let Some(id2) = self.admit(id, k, s2, h, opts.max_states) {
                    self.queue.push_back(id2);
                }
            }
            self.edges.close_row();
        }
    }

    fn finish(self, opts: ExploreOptions) -> ExploredGraph<A> {
        // Every interned state was expanded exactly once, so the CSR
        // has exactly one (closed) row per state.
        debug_assert_eq!(self.edges.rows(), self.store.len());
        let truncation = if self.truncated {
            Truncation::StateBudget {
                budget: opts.max_states,
                dropped_edges: self.dropped_edges,
            }
        } else {
            Truncation::Complete
        };
        let stats = ExploreStats {
            states: self.store.len(),
            edges: self.edge_count,
            peak_frontier: self.peak_frontier,
            truncation,
            cache: None,
        };
        ExploredGraph {
            store: self.store,
            roots: self.root_ids,
            tasks: self.tasks,
            edges: self.edges,
            parent: self.parent,
            stats,
        }
    }
}

/// A path through an automaton: the `(task, resulting state)` steps
/// of a finite execution fragment (Section 2.1.1), excluding the start
/// state.
pub type Path<A> = Vec<(<A as Automaton>::Task, <A as Automaton>::State)>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::ActionKind;
    use crate::toy::{ParityCounter, ParityTask};

    /// Tasks `a` and `b` both take state 0 to state 1, with different
    /// actions; only `b` takes 1 on to 2.
    struct Fork;

    impl Automaton for Fork {
        type State = u8;
        type Action = (char, u8);
        type Task = char;

        fn initial_states(&self) -> Vec<u8> {
            vec![0]
        }
        fn tasks(&self) -> Vec<char> {
            vec!['a', 'b']
        }
        fn succ_all(&self, t: &char, s: &u8) -> Vec<((char, u8), u8)> {
            match (t, s) {
                (_, 0) | ('b', 1) => vec![((*t, *s), s + 1)],
                _ => Vec::new(),
            }
        }
        fn apply_input(&self, _: &u8, _: &(char, u8)) -> Option<u8> {
            None
        }
        fn kind(&self, _: &(char, u8)) -> ActionKind {
            ActionKind::Internal
        }
    }

    #[test]
    fn path_to_names_the_first_of_parallel_tasks() {
        // The BFS meets `a`'s edge into 1 first, so `a` discovered 1;
        // `b`'s parallel edge is kept but is no tree link.
        let g = ExploredGraph::explore(&Fork, vec![0], 100);
        assert_eq!(g.stats().edges, 3);
        let id2 = g.id_of(&2).expect("2 is reachable");
        let tasks: Vec<char> = g.path_to(id2).iter().map(|step| step.0).collect();
        assert_eq!(tasks, vec!['a', 'b']);
    }

    #[test]
    fn reachability_reaches_the_bound() {
        let c = ParityCounter::new(5);
        let g = ExploredGraph::explore(&c, c.initial_states(), 100);
        assert_eq!(g.len(), 6);
        assert!(!g.stats().truncated());
    }

    #[test]
    fn truncation_is_reported() {
        let c = ParityCounter::new(100);
        let g = ExploredGraph::explore(&c, c.initial_states(), 10);
        assert_eq!(g.len(), 10);
        assert!(g.stats().truncated());
    }

    #[test]
    fn search_finds_shortest_path() {
        // Ids follow discovery order, so the first matching id is the
        // first match a BFS meets, reached along the BFS tree.
        let c = ParityCounter::new(10);
        let g = ExploredGraph::explore(&c, vec![0], 100);
        let id = g
            .ids()
            .find(|&id| *g.resolve(id) == 3)
            .expect("3 is reachable");
        let path = g.path_to(id);
        assert_eq!(path.len(), 3);
        let tasks: Vec<ParityTask> = path.iter().map(|(t, _)| *t).collect();
        assert_eq!(
            tasks,
            vec![ParityTask::Even, ParityTask::Odd, ParityTask::Even]
        );
        assert_eq!(path.last().unwrap().1, 3);
    }

    #[test]
    fn search_exhausted_is_a_proof() {
        // An exact (untruncated) graph without the state proves it
        // unreachable.
        let c = ParityCounter::new(5);
        let g = ExploredGraph::explore(&c, vec![0], 100);
        assert!(!g.stats().truncated());
        assert!(!g.contains(&42));
    }

    #[test]
    fn search_at_root() {
        let c = ParityCounter::new(5);
        let g = ExploredGraph::explore(&c, vec![0], 100);
        let id = g.ids().find(|&id| *g.resolve(id) == 0).expect("the root");
        assert_eq!(id, g.roots()[0]);
        assert!(g.path_to(id).is_empty());
    }

    #[test]
    fn graph_has_one_edge_per_applicable_task() {
        let c = ParityCounter::new(2);
        let g = ExploredGraph::explore(&c, c.initial_states(), 100);
        assert_eq!(g.len(), 3);
        assert!(!g.stats().truncated());
        let id0 = g.id_of(&0).expect("root interned");
        let id2 = g.id_of(&2).expect("terminal state reached");
        assert_eq!(g.successors(id0).len(), 1); // only Even applies at 0
        assert_eq!(g.successors(id2).len(), 0); // terminal
        assert_eq!(g.stats().edges, 2); // 0 -> 1 -> 2
    }

    #[test]
    fn ids_follow_bfs_discovery_order() {
        let c = ParityCounter::new(3);
        let g = ExploredGraph::explore(&c, c.initial_states(), 100);
        for (i, id) in g.ids().enumerate() {
            assert_eq!(id.index(), i);
            assert_eq!(*g.resolve(id), i as i64);
        }
        // The parent chain reconstructs a shortest path to each state.
        let id3 = g.id_of(&3).unwrap();
        let path = g.path_to(id3);
        assert_eq!(path.len(), 3);
        assert_eq!(path.last().unwrap().1, 3);
    }

    #[test]
    fn truncated_graph_has_no_dangling_edges() {
        // Regression for the pre-interning builder, which pushed edges
        // before checking the budget: a truncated graph would contain
        // edges to states that were never given a node entry. The
        // chosen semantics: drop such edges and count them.
        let c = ParityCounter::new(1_000);
        let g = ExploredGraph::explore(&c, c.initial_states(), 10);
        assert_eq!(g.len(), 10);
        match g.stats().truncation {
            Truncation::StateBudget {
                budget,
                dropped_edges,
            } => {
                assert_eq!(budget, 10);
                // The counter is a chain, so exactly the edge 9 -> 10 drops.
                assert_eq!(dropped_edges, 1);
            }
            Truncation::Complete => panic!("expected truncation"),
        }
        // Every retained edge targets an admitted state.
        for id in g.ids() {
            for (_, dst) in g.successors(id) {
                assert!(dst.index() < g.len(), "dangling edge to {dst:?}");
            }
        }
        assert_eq!(g.stats().edges, 9);
    }

    #[test]
    fn explore_options_do_not_change_loop_free_graphs() {
        // ParityCounter has no self-loops, so skip_self_loops must be
        // a no-op on it; the flag only ever removes s -> s stutters.
        let c = ParityCounter::new(4);
        let full =
            ExploredGraph::explore_with(&c, c.initial_states(), ExploreOptions::with_budget(100));
        let skipped = ExploredGraph::explore_with(
            &c,
            c.initial_states(),
            ExploreOptions {
                skip_self_loops: true,
                ..ExploreOptions::with_budget(100)
            },
        );
        assert_eq!(full.len(), skipped.len());
        assert_eq!(full.stats().edges, skipped.stats().edges);
    }
}

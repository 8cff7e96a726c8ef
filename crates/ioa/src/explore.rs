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
//! search, witness scans) index flat `Vec`s by id.
//!
//! Budget semantics: exploration is truncated by `max_states`. When the
//! budget is hit, edges that would point at a never-enqueued state are
//! **dropped and counted** in [`ExploreStats::truncation`] — a truncated
//! graph never contains an edge to a state that has no node entry, so
//! every consumer may index edges blindly.

use crate::automaton::{Automaton, CacheStats};
use crate::canon::SymmetryMode;
use crate::csr::Csr;
use crate::store::{fx_hash, ShardedStore, StateId, StateStore};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

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
    /// Peak number of *in-flight* states observed — admitted but not
    /// yet fully expanded — a proxy for the exploration's working-set
    /// width.
    ///
    /// On the sequential and layer-synchronous paths this is the
    /// largest BFS frontier (queue plus the state being expanded),
    /// sampled when a state is dequeued, exactly as it always was. The
    /// work-stealing path has no layers, so the same quantity is
    /// sampled from its atomic in-flight counter at each dequeue; with
    /// one worker the two definitions coincide step for step, while
    /// under concurrency the value depends on scheduling and is *not*
    /// compared by `PartialEq` (see below).
    pub peak_frontier: usize,
    /// Whether the graph is exact or budget-truncated.
    pub truncation: Truncation,
    /// Hit/miss counters of the automaton's transition-effect cache
    /// over this exploration, or `None` for automata without one.
    /// Accounted through the scoped sink of
    /// [`Automaton::succ_counted`], so the numbers cover exactly this
    /// exploration's expansions even when other workloads share the
    /// automaton (and its cumulative counters) concurrently.
    pub cache: Option<CacheStats>,
}

// `cache` and `peak_frontier` are measurements of *how* the graph was
// produced, not part of the graph's identity: the deep and the packed
// system automata explore bit-identical graphs while only the packed
// one reports cache counters, and a work-stealing exploration of the
// same space reports a scheduling-dependent in-flight peak. Equality
// therefore compares the census fields only, so the differential suites
// can keep asserting `deep.stats() == packed.stats()` across automaton
// encodings *and* frontier strategies.
impl PartialEq for ExploreStats {
    fn eq(&self, other: &Self) -> bool {
        self.states == other.states
            && self.edges == other.edges
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

/// Environment variable overriding the worker-thread count when
/// [`ExploreOptions::threads`] is `0` (auto). CI sets this to force the
/// whole test suite through the parallel path.
pub const THREADS_ENV: &str = "IOA_EXPLORE_THREADS";

/// Environment variable resolving [`FrontierMode::Auto`]: set it to
/// `ws` (aliases: `worksteal`, `work-stealing`) to route every
/// auto-mode exploration through the work-stealing frontier, anything
/// else (or unset) for the layer-synchronous default. CI's
/// `work-stealing` job sets this to sweep the whole suite through the
/// sharded path.
pub const FRONTIER_ENV: &str = "IOA_EXPLORE_FRONTIER";

/// Which frontier discipline [`ExploredGraph::explore_with`] drives the
/// BFS with (DESIGN §2.1.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrontierMode {
    /// Resolve through [`FRONTIER_ENV`] when set, else [`Layered`].
    ///
    /// [`Layered`]: FrontierMode::Layered
    #[default]
    Auto,
    /// Layer-synchronous expansion with a sequential in-order merge:
    /// graphs are **bit-identical** to the sequential explorer at every
    /// thread count, including under truncation. The scaling ceiling is
    /// the merge thread.
    Layered,
    /// Sharded concurrent interning + work-stealing deques: workers
    /// intern into a [`ShardedStore`] and steal half a victim's deque
    /// when idle, with no layer barriers. Finished graphs are
    /// *renumbered* into BFS discovery order, so a **complete**
    /// exploration is bit-identical to the sequential one (ids, edges,
    /// parents); a *truncated* one admits a scheduling-dependent subset
    /// of exactly `max_states` states and is only guaranteed sound
    /// (every admitted state reachable, edges closed). Honored even at
    /// `threads = 1`, where it degenerates to a deterministic FIFO BFS
    /// identical to the sequential path.
    WorkSteal,
}

impl FrontierMode {
    /// The mode this exploration will actually run: `Auto` resolved
    /// through [`FRONTIER_ENV`], explicit modes taken as given.
    #[must_use]
    pub fn effective(self) -> FrontierMode {
        match self {
            FrontierMode::Auto => match std::env::var(FRONTIER_ENV).ok().as_deref() {
                Some("ws" | "worksteal" | "work-stealing") => FrontierMode::WorkSteal,
                _ => FrontierMode::Layered,
            },
            other => other,
        }
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
    /// Worker threads for layer-synchronous frontier expansion.
    ///
    /// `1` keeps exploration on the calling thread; `n > 1` expands
    /// each BFS layer across `n` scoped workers and merges their
    /// batches sequentially, producing a graph **bit-identical** to the
    /// sequential one (same ids, edges, parents, stats). `0` means
    /// *auto*: honor the [`THREADS_ENV`] environment variable when set
    /// (an explicit override, taken as given), else cap at
    /// [`std::thread::available_parallelism`] — so a 1-core host never
    /// pays thread orchestration. Layers narrower than
    /// [`SPAWN_LAYER_THRESHOLD`] are always expanded inline regardless
    /// of the thread count.
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
    /// Frontier discipline: layer-synchronous (bit-identical merge) or
    /// sharded work-stealing (renumbered; bit-identical when complete).
    /// See [`FrontierMode`].
    pub frontier: FrontierMode,
}

/// BFS layers narrower than this are expanded inline on the calling
/// thread even when `threads > 1`: spawning scoped workers for a
/// handful of states costs more than expanding them. The resulting
/// graph is bit-identical either way (the inline path mirrors the
/// sequential merge order exactly), so this is purely a latency knob.
pub const SPAWN_LAYER_THRESHOLD: usize = 64;

impl ExploreOptions {
    /// Keep everything up to `max_states`, self-loops included,
    /// thread count auto-detected (see [`ExploreOptions::threads`]).
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

    /// Same options with an explicit worker-thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Same options with an explicit frontier mode.
    #[must_use]
    pub fn with_frontier(mut self, frontier: FrontierMode) -> Self {
        self.frontier = frontier;
        self
    }

    /// Same options with an explicit symmetry mode.
    #[must_use]
    pub fn with_symmetry(mut self, symmetry: SymmetryMode) -> Self {
        self.symmetry = symmetry;
        self
    }

    /// The worker count this exploration will actually use:
    /// `threads` as given; `0` resolved through [`THREADS_ENV`] when
    /// set (an explicit override, used verbatim so CI can force the
    /// parallel merge path on any host), else capped at
    /// [`std::thread::available_parallelism`] (1 when unknown).
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::env::var(THREADS_ENV)
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
                }),
            n => n,
        }
    }
}

/// One retained transition out of an interned state:
/// `(task, action, successor id)`.
pub type Edge<A> = (<A as Automaton>::Task, <A as Automaton>::Action, StateId);

/// The BFS-tree link that first discovered a state:
/// `(predecessor id, task, action)`.
pub type Discovery<A> = (StateId, <A as Automaton>::Task, <A as Automaton>::Action);

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
    /// Flat CSR adjacency: row `id` holds the retained
    /// `(task, action, successor)` transitions out of state `id`, in
    /// task order. One contiguous edge array for the whole graph.
    edges: Csr<Edge<A>>,
    /// BFS tree: for each non-root state, the (predecessor, task,
    /// action) that first discovered it.
    parent: Vec<Option<Discovery<A>>>,
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
    /// branch order of [`Automaton::succ_all`]. This holds for every
    /// thread count — with `opts.threads > 1` each BFS layer is
    /// expanded across a scoped worker pool and the batches are merged
    /// sequentially in exactly that order, so the resulting graph (ids,
    /// edges, parents, stats, truncation) is bit-identical to the
    /// sequential one. See DESIGN.md §2.1.1.
    ///
    /// With [`FrontierMode::WorkSteal`] the same determinism holds for
    /// every *complete* exploration — the post-hoc renumbering pass
    /// reassigns exactly the sequential ids (DESIGN §2.1.5) — while a
    /// *truncated* work-stealing run keeps a scheduling-dependent (but
    /// exactly-budget, edge-closed) subset of the reachable graph.
    pub fn explore_with(aut: &A, roots: Vec<A::State>, opts: ExploreOptions) -> Self {
        // Cache accounting is scoped: every expansion goes through
        // `succ_counted` with this exploration's own sink, so the
        // reported numbers cover exactly this run. (The previous
        // snapshot-subtract over the automaton's *cumulative* counters
        // drifted when a shared warm automaton — e.g. one
        // `PackedSystem` across the Lemma 4 walk — served several
        // interleaved workloads: their lookups all landed in whichever
        // exploration happened to snapshot around them.)
        let track_cache = aut.cache_stats().is_some();
        let threads = opts.effective_threads();
        if opts.frontier.effective() == FrontierMode::WorkSteal {
            return worksteal::explore(aut, &roots, opts, threads);
        }
        let mut b = Builder::new(&roots);
        if threads <= 1 {
            b.expand_sequential(aut, opts);
        } else {
            b.expand_layered(aut, opts, threads);
        }
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

    /// The retained transitions out of `id`, in task order.
    #[inline]
    #[must_use]
    pub fn successors(&self, id: StateId) -> &[(A::Task, A::Action, StateId)] {
        self.edges.row(id.index())
    }

    /// All ids in discovery (BFS) order.
    pub fn ids(&self) -> impl Iterator<Item = StateId> + '_ {
        self.store.ids()
    }

    /// The BFS-tree step that first discovered `id` (`None` for roots).
    #[must_use]
    pub fn discovered_by(&self, id: StateId) -> Option<&(StateId, A::Task, A::Action)> {
        self.parent[id.index()].as_ref()
    }

    /// Decompose the graph into its owned parts — arena, roots, edge
    /// lists, BFS tree and stats — so a caller can re-encode the states
    /// (e.g. decode packed component ids back into concrete system
    /// states) without cloning the adjacency structure.
    #[must_use]
    pub fn into_parts(self) -> GraphParts<A> {
        GraphParts {
            store: self.store,
            roots: self.roots,
            edges: self.edges,
            parent: self.parent,
            stats: self.stats,
        }
    }

    /// A shortest path (in the BFS tree) from some root to `id`, as
    /// `(task, action, resulting state)` steps.
    #[must_use]
    pub fn path_to(&self, id: StateId) -> Path<A> {
        let mut path = Vec::new();
        let mut cur = id;
        while let Some((prev, t, a)) = &self.parent[cur.index()] {
            path.push((t.clone(), a.clone(), self.store.resolve(cur).clone()));
            cur = *prev;
        }
        path.reverse();
        path
    }
}

/// The owned pieces of an [`ExploredGraph`], produced by
/// [`ExploredGraph::into_parts`]. Ids index `edges` and `parent`
/// exactly as they index the arena.
pub struct GraphParts<A: Automaton> {
    /// The arena mapping ids to states, in discovery order.
    pub store: StateStore<A::State>,
    /// The root ids, in the order the roots were given.
    pub roots: Vec<StateId>,
    /// Flat CSR adjacency: row `id` holds the `(task, action,
    /// successor)` transitions out of state `id`, in task order.
    pub edges: Csr<Edge<A>>,
    /// BFS tree: the step that first discovered each non-root state.
    pub parent: Vec<Option<Discovery<A>>>,
    /// Exploration census: states, edges, peak frontier, truncation.
    pub stats: ExploreStats,
}

/// In-progress exploration state shared by the sequential and the
/// layer-synchronous parallel expansion loops.
struct Builder<A: Automaton> {
    store: StateStore<A::State>,
    root_ids: Vec<StateId>,
    /// CSR adjacency under construction. Sources are expanded in
    /// strictly increasing id order (BFS pops a monotone queue; the
    /// layered merge walks each layer in id order), so the open CSR row
    /// is always the row of the source currently being expanded, and
    /// closing it after the source's last successor lays rows out in id
    /// order with no repacking pass.
    edges: Csr<Edge<A>>,
    parent: Vec<Option<Discovery<A>>>,
    queue: VecDeque<StateId>,
    edge_count: usize,
    dropped_edges: usize,
    truncated: bool,
    peak_frontier: usize,
    /// Scoped cache accounting for this exploration only (fed by the
    /// [`Automaton::succ_counted`] sink; parallel workers accumulate
    /// privately and are summed at merge time).
    cache: CacheStats,
}

/// One successor discovered by a parallel worker, classified against
/// the frozen arena: either a state interned in an earlier layer
/// (probe hit — the merge loop only records the edge) or a candidate
/// new state carried with its precomputed fx hash.
enum Found<A: Automaton> {
    Known(A::Task, A::Action, StateId),
    Fresh(A::Task, A::Action, A::State, u64),
}

/// One successor of an expanded state, paired with its precomputed
/// fx hash (so interning never re-hashes).
type Succ<A> = (
    <A as Automaton>::Task,
    <A as Automaton>::Action,
    <A as Automaton>::State,
    u64,
);

/// Worker body: expand one source state, hashing and pre-probing each
/// successor against the (frozen) arena off the merge thread.
///
/// Under [`SymmetryMode::Full`] each successor is canonicalized to its
/// orbit representative before hashing/probing, with a two-stage
/// self-loop check: concrete stutters (`s2 == s`) are dropped before
/// canonicalization, and *orbit* stutters (`canonical(s2) == s`, the
/// successor permuting back onto its canonical source) after it.
fn expand_one<A: Automaton>(
    aut: &A,
    tasks: &[A::Task],
    store: &StateStore<A::State>,
    id: StateId,
    opts: ExploreOptions,
    cache: &mut CacheStats,
) -> Vec<Found<A>> {
    let s = store.resolve(id);
    let canon = opts.symmetry.reduces();
    let mut out = Vec::new();
    for t in tasks {
        for (a, s2) in aut.succ_counted(t, s, cache) {
            if opts.skip_self_loops && &s2 == s {
                continue;
            }
            let s2 = if canon { aut.canonical(s2) } else { s2 };
            if canon && opts.skip_self_loops && &s2 == s {
                continue;
            }
            let h = crate::store::fx_hash(&s2);
            match store.get_prehashed(&s2, h) {
                Some(id2) => out.push(Found::Known(t.clone(), a, id2)),
                None => out.push(Found::Fresh(t.clone(), a, s2, h)),
            }
        }
    }
    out
}

impl<A: Automaton> Builder<A> {
    fn new(roots: &[A::State]) -> Self {
        let mut b = Builder {
            store: StateStore::new(),
            root_ids: Vec::with_capacity(roots.len()),
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

    /// Record one discovered transition `src -(t, a)-> s2` exactly as
    /// the sequential BFS would: intern (budget-checked), extend the
    /// parent map on first sight, drop and count the edge on budget
    /// exhaustion. Returns the successor's id when it was freshly
    /// admitted (the caller owns the frontier and enqueues it).
    fn admit(
        &mut self,
        src: StateId,
        t: A::Task,
        a: A::Action,
        s2: A::State,
        hash: u64,
        cap: usize,
    ) -> Option<StateId> {
        match self.store.try_intern_prehashed(s2, hash, cap) {
            Some((id2, fresh)) => {
                if fresh {
                    self.parent.push(Some((src, t.clone(), a.clone())));
                }
                // The open CSR row is src's row by the edges invariant.
                self.edges.push((t, a, id2));
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

    /// The single-threaded BFS loop: one state popped, expanded and
    /// merged at a time.
    fn expand_sequential(&mut self, aut: &A, opts: ExploreOptions) {
        let tasks = aut.tasks();
        let canon = opts.symmetry.reduces();
        while let Some(id) = self.queue.pop_front() {
            self.peak_frontier = self.peak_frontier.max(self.queue.len() + 1);
            // Collect successors under an immutable borrow of the
            // arena, then intern them; succ_all hands back owned
            // states, so the expanded state itself is never recloned.
            // (The cache sink is copied out and written back around the
            // borrow: CacheStats is Copy.)
            let mut cache = self.cache;
            let succs: Vec<Succ<A>> = {
                let s = self.store.resolve(id);
                let mut v = Vec::new();
                for t in &tasks {
                    for (a, s2) in aut.succ_counted(t, s, &mut cache) {
                        if opts.skip_self_loops && &s2 == s {
                            continue;
                        }
                        let s2 = if canon { aut.canonical(s2) } else { s2 };
                        if canon && opts.skip_self_loops && &s2 == s {
                            continue;
                        }
                        let h = crate::store::fx_hash(&s2);
                        v.push((t.clone(), a, s2, h));
                    }
                }
                v
            };
            self.cache = cache;
            for (t, a, s2, h) in succs {
                if let Some(id2) = self.admit(id, t, a, s2, h, opts.max_states) {
                    self.queue.push_back(id2);
                }
            }
            self.edges.close_row();
        }
    }

    /// The layer-synchronous parallel loop: each wide-enough BFS layer
    /// is expanded across `threads` scoped workers against the frozen
    /// arena, then the batches are merged sequentially in (source
    /// order, task order, branch order) — the exact order the
    /// sequential loop discovers transitions in, so ids, edges,
    /// parents, peak frontier and truncation come out bit-identical.
    /// Layers narrower than [`SPAWN_LAYER_THRESHOLD`] fall back to
    /// inline expansion: thread spawn/join overhead dominates on small
    /// frontiers, and the inline path produces the same graph.
    fn expand_layered(&mut self, aut: &A, opts: ExploreOptions, threads: usize) {
        let tasks = aut.tasks();
        let mut layer: Vec<StateId> = self.queue.drain(..).collect();
        while !layer.is_empty() {
            layer = if layer.len() < SPAWN_LAYER_THRESHOLD {
                self.expand_layer_inline(aut, &tasks, opts, &layer)
            } else {
                self.expand_layer_parallel(aut, &tasks, opts, &layer, threads)
            };
        }
    }

    /// Expand one BFS layer on the calling thread, in sequential
    /// discovery order. Probing the live arena (instead of a frozen
    /// snapshot) is equivalent: a successor first admitted earlier in
    /// the same layer probes as `Known`, exactly matching what
    /// [`Builder::admit`] would have answered for a `Fresh` carrying
    /// the same state — known states always hit, budget or not.
    fn expand_layer_inline(
        &mut self,
        aut: &A,
        tasks: &[A::Task],
        opts: ExploreOptions,
        layer: &[StateId],
    ) -> Vec<StateId> {
        let mut next: Vec<StateId> = Vec::new();
        let layer_len = layer.len();
        for (expanded, &src) in layer.iter().enumerate() {
            self.peak_frontier = self
                .peak_frontier
                .max(layer_len - expanded - 1 + next.len() + 1);
            let mut cache = self.cache;
            let found = expand_one(aut, tasks, &self.store, src, opts, &mut cache);
            self.cache = cache;
            for f in found {
                match f {
                    Found::Known(t, a, id2) => {
                        self.edges.push((t, a, id2));
                        self.edge_count += 1;
                    }
                    Found::Fresh(t, a, s2, h) => {
                        if let Some(id2) = self.admit(src, t, a, s2, h, opts.max_states) {
                            next.push(id2);
                        }
                    }
                }
            }
            self.edges.close_row();
        }
        next
    }

    /// Expand one BFS layer across `threads` scoped workers, then merge
    /// sequentially.
    fn expand_layer_parallel(
        &mut self,
        aut: &A,
        tasks: &[A::Task],
        opts: ExploreOptions,
        layer: &[StateId],
        threads: usize,
    ) -> Vec<StateId> {
        let chunk = layer.len().div_ceil(threads).max(1);
        // Phase 1 (parallel): expand every source of the layer.
        // The arena is only read here; workers hash and pre-probe
        // each successor so the merge does no hashing and no
        // equality checks for previously-interned states.
        let store = &self.store;
        let batches: Vec<(Vec<Vec<Found<A>>>, CacheStats)> = std::thread::scope(|scope| {
            let handles: Vec<_> = layer
                .chunks(chunk)
                .map(|ids| {
                    scope.spawn(move || {
                        // Each worker accumulates cache hits/misses
                        // privately; the merge sums them, so the scoped
                        // totals are exact at every thread count.
                        let mut cache = CacheStats::default();
                        let found: Vec<Vec<Found<A>>> = ids
                            .iter()
                            .map(|&id| expand_one(aut, tasks, store, id, opts, &mut cache))
                            .collect();
                        (found, cache)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("explore worker panicked"))
                .collect()
        });
        // Phase 2 (sequential): merge in discovery order. The
        // virtual queue of the sequential BFS holds the rest of
        // this layer plus the next layer discovered so far; peak
        // tracking mirrors its `queue.len() + 1` at pop time.
        let mut per_source_batches: Vec<Vec<Found<A>>> = Vec::with_capacity(layer.len());
        for (found, cache) in batches {
            self.cache.hits += cache.hits;
            self.cache.misses += cache.misses;
            per_source_batches.extend(found);
        }
        let mut next: Vec<StateId> = Vec::new();
        let layer_len = layer.len();
        let mut sources = layer.iter().copied();
        for (expanded, per_source) in per_source_batches.into_iter().enumerate() {
            let src = sources.next().expect("one batch per source");
            self.peak_frontier = self
                .peak_frontier
                .max(layer_len - expanded - 1 + next.len() + 1);
            for found in per_source {
                match found {
                    Found::Known(t, a, id2) => {
                        self.edges.push((t, a, id2));
                        self.edge_count += 1;
                    }
                    Found::Fresh(t, a, s2, h) => {
                        if let Some(id2) = self.admit(src, t, a, s2, h, opts.max_states) {
                            next.push(id2);
                        }
                    }
                }
            }
            self.edges.close_row();
        }
        next
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
            edges: self.edges,
            parent: self.parent,
            stats,
        }
    }
}

/// The sharded work-stealing frontier (DESIGN §2.1.5).
///
/// Workers intern successors directly into a [`ShardedStore`]
/// (provisional `shard | local` ids, global CAS budget) and keep
/// per-worker deques of `(provisional id, state)` items: fresh states
/// are pushed to the owner's deque back, idle workers steal half a
/// victim's deque from the front. There are no layer barriers;
/// termination is an atomic in-flight counter (incremented when a state
/// is admitted, decremented when its expansion completes) reaching zero
/// while every deque is empty. Each worker buffers its discovered edges
/// as per-source groups carrying provisional ids.
///
/// Once the frontier drains, a sequential renumbering BFS walks the
/// buffered groups from the roots — root order, then per-source
/// recorded edge order, which *is* (task order, branch order) — and
/// assigns dense ids at first sight. For a **complete** exploration the
/// per-source edge groups are a pure function of the automaton, so this
/// renumbering reproduces exactly the sequential explorer's ids, edges
/// and BFS-tree parents: bit-identity is recovered after the fact
/// rather than maintained by a merge thread. A **truncated**
/// exploration admits a scheduling-dependent subset (of exactly
/// `max_states` states — the CAS budget is globally exact), so only
/// soundness holds there: every admitted state is reachable via a
/// retained edge from an admitted source (admission happens while its
/// discoverer is mid-expansion, so an in-edge is always recorded), the
/// graph stays edge-closed, and the renumbering therefore visits every
/// survivor. The CSR is finalized by a counting-sort scatter over the
/// buffered groups — parallel over disjoint row ranges when the edge
/// mass warrants it, inline otherwise.
mod worksteal {
    use super::{
        fx_hash, AtomicBool, AtomicUsize, Automaton, CacheStats, Csr, Discovery, Edge,
        ExploreOptions, ExploreStats, ExploredGraph, Mutex, Ordering, ShardedStore, StateId,
        Truncation, VecDeque,
    };

    /// A deque item: a freshly admitted state carried with its
    /// provisional id, so expansion never reads the sharded store.
    type Item<A> = (StateId, <A as Automaton>::State);

    /// The edges out of one expanded source, in (task, branch) order,
    /// with provisional target ids.
    type Group<A> = (StateId, Vec<Edge<A>>);

    /// Pop from the worker's own deque front, else steal half (front,
    /// oldest-first) of the first non-empty victim. Never holds two
    /// deque locks at once: stolen items are drained out of the victim
    /// before the thief's own deque is touched.
    fn pop_or_steal<A: Automaton>(
        deques: &[Mutex<VecDeque<Item<A>>>],
        w: usize,
    ) -> Option<Item<A>> {
        if let Some(item) = deques[w].lock().expect("deque poisoned").pop_front() {
            return Some(item);
        }
        let n = deques.len();
        for k in 1..n {
            let v = (w + k) % n;
            let stolen: Vec<Item<A>> = {
                let mut victim = deques[v].lock().expect("deque poisoned");
                let take = victim.len().div_ceil(2);
                victim.drain(..take).collect()
            };
            let mut it = stolen.into_iter();
            if let Some(first) = it.next() {
                let rest: Vec<Item<A>> = it.collect();
                if !rest.is_empty() {
                    deques[w].lock().expect("deque poisoned").extend(rest);
                }
                return Some(first);
            }
        }
        None
    }

    pub(super) fn explore<A: Automaton>(
        aut: &A,
        roots: &[A::State],
        opts: ExploreOptions,
        threads: usize,
    ) -> ExploredGraph<A> {
        let track_cache = aut.cache_stats().is_some();
        let tasks = aut.tasks();
        let canon = opts.symmetry.reduces();
        let workers = threads.max(1);
        let store: ShardedStore<A::State> = ShardedStore::new(workers * 4);

        // Roots are always admitted (unbounded), in the given order.
        let mut root_provs: Vec<StateId> = Vec::with_capacity(roots.len());
        let mut seeds: Vec<Item<A>> = Vec::new();
        for r in roots {
            let (prov, fresh) = store.intern_prehashed(r, fx_hash(r));
            if fresh {
                seeds.push((prov, r.clone()));
            }
            root_provs.push(prov);
        }

        let deques: Vec<Mutex<VecDeque<Item<A>>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        let in_flight = AtomicUsize::new(seeds.len());
        let peak = AtomicUsize::new(0);
        let dropped = AtomicUsize::new(0);
        let truncated = AtomicBool::new(false);
        for (i, item) in seeds.into_iter().enumerate() {
            deques[i % workers]
                .lock()
                .expect("deque poisoned")
                .push_back(item);
        }

        // Expand one state: its out-edges in (task, branch) order, with
        // every freshly admitted successor reported through `on_fresh`.
        // Shared by the single- and multi-worker drain loops below.
        let expand = |s: &A::State,
                      cache: &mut CacheStats,
                      on_fresh: &mut dyn FnMut(StateId, A::State)|
         -> Vec<Edge<A>> {
            let mut edges: Vec<Edge<A>> = Vec::new();
            for t in &tasks {
                for (a, s2) in aut.succ_counted(t, s, cache) {
                    if opts.skip_self_loops && s2 == *s {
                        continue;
                    }
                    let s2 = if canon { aut.canonical(s2) } else { s2 };
                    if canon && opts.skip_self_loops && s2 == *s {
                        continue;
                    }
                    let h = fx_hash(&s2);
                    match store.try_intern_prehashed(&s2, h, opts.max_states) {
                        Some((dst, fresh)) => {
                            edges.push((t.clone(), a, dst));
                            if fresh {
                                on_fresh(dst, s2);
                            }
                        }
                        None => {
                            truncated.store(true, Ordering::SeqCst);
                            dropped.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
            }
            edges
        };

        // Phase 1: drain the frontier.
        let results: Vec<(Vec<Group<A>>, CacheStats)> = if workers == 1 {
            // Single-worker fast path: a plain local queue — no thread
            // spawns, no deque locks, no shared-counter traffic (the
            // dominant fixed costs on sub-millisecond sweeps). `peak`
            // keeps the sequential definition: queue length + 1
            // sampled at pop, the popped item still in flight.
            let mut queue: VecDeque<Item<A>> =
                std::mem::take(&mut *deques[0].lock().expect("deque poisoned"));
            let mut groups: Vec<Group<A>> = Vec::new();
            let mut cache = CacheStats::default();
            let mut local_peak = 0usize;
            while let Some((src, s)) = queue.pop_front() {
                local_peak = local_peak.max(queue.len() + 1);
                let edges = expand(&s, &mut cache, &mut |dst, s2| queue.push_back((dst, s2)));
                groups.push((src, edges));
            }
            peak.store(local_peak, Ordering::SeqCst);
            vec![(groups, cache)]
        } else {
            // Worker 0 runs inline on the calling thread; only workers
            // 1..n are spawned.
            let worker_loop = |w: usize| -> (Vec<Group<A>>, CacheStats) {
                let mut groups: Vec<Group<A>> = Vec::new();
                let mut cache = CacheStats::default();
                loop {
                    let Some((src, s)) = pop_or_steal::<A>(&deques, w) else {
                        if in_flight.load(Ordering::SeqCst) == 0 {
                            break;
                        }
                        std::thread::yield_now();
                        continue;
                    };
                    // Sample the in-flight peak at dequeue time (the
                    // popped item still counts: it is decremented only
                    // after expansion).
                    peak.fetch_max(in_flight.load(Ordering::SeqCst), Ordering::SeqCst);
                    let edges = expand(&s, &mut cache, &mut |dst, s2| {
                        in_flight.fetch_add(1, Ordering::SeqCst);
                        deques[w]
                            .lock()
                            .expect("deque poisoned")
                            .push_back((dst, s2));
                    });
                    groups.push((src, edges));
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                }
                (groups, cache)
            };
            std::thread::scope(|scope| {
                let worker_loop = &worker_loop;
                let handles: Vec<_> = (1..workers)
                    .map(|w| scope.spawn(move || worker_loop(w)))
                    .collect();
                let mut results = vec![worker_loop(0)];
                results.extend(
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("work-stealing worker panicked")),
                );
                results
            })
        };

        let mut cache = CacheStats::default();
        let mut all_groups: Vec<Group<A>> = Vec::new();
        for (groups, c) in results {
            cache.hits += c.hits;
            cache.misses += c.misses;
            all_groups.extend(groups);
        }

        // Phase 2: sequential renumbering BFS over the buffered groups.
        let n_states = store.len();
        debug_assert_eq!(all_groups.len(), n_states, "one edge group per state");
        let counts = store.local_counts();
        const UNSET: u32 = u32::MAX;
        // group_at[shard][local] = index into all_groups.
        let mut group_at: Vec<Vec<u32>> = counts.iter().map(|&c| vec![UNSET; c]).collect();
        for (gi, (src, _)) in all_groups.iter().enumerate() {
            let (sh, loc) = ShardedStore::<A::State>::split(*src);
            group_at[sh][loc] = u32::try_from(gi).expect("group index exceeds u32");
        }
        let mut dense_of: Vec<Vec<u32>> = counts.iter().map(|&c| vec![UNSET; c]).collect();
        let mut order: Vec<StateId> = Vec::with_capacity(n_states);
        let mut parent: Vec<Option<Discovery<A>>> = Vec::with_capacity(n_states);
        let mut queue: VecDeque<StateId> = VecDeque::new();
        let mut root_ids: Vec<StateId> = Vec::with_capacity(root_provs.len());
        for &prov in &root_provs {
            let (sh, loc) = ShardedStore::<A::State>::split(prov);
            if dense_of[sh][loc] == UNSET {
                dense_of[sh][loc] = order.len() as u32;
                order.push(prov);
                parent.push(None);
                queue.push_back(prov);
            }
            root_ids.push(StateId::from_index(dense_of[sh][loc] as usize));
        }
        let mut row_counts: Vec<u32> = vec![0; n_states];
        while let Some(prov) = queue.pop_front() {
            let (sh, loc) = ShardedStore::<A::State>::split(prov);
            let src_dense = dense_of[sh][loc];
            let (_, edges) = &all_groups[group_at[sh][loc] as usize];
            row_counts[src_dense as usize] =
                u32::try_from(edges.len()).expect("row width exceeds u32");
            for (t, a, dst) in edges {
                let (dsh, dloc) = ShardedStore::<A::State>::split(*dst);
                if dense_of[dsh][dloc] == UNSET {
                    dense_of[dsh][dloc] = order.len() as u32;
                    order.push(*dst);
                    parent.push(Some((
                        StateId::from_index(src_dense as usize),
                        t.clone(),
                        a.clone(),
                    )));
                    queue.push_back(*dst);
                }
            }
        }
        debug_assert_eq!(order.len(), n_states, "every admitted state is reachable");

        // Phase 3: parallel counting-sort CSR finalization. Offsets by
        // prefix sum over the renumbered row widths, then each scatter
        // thread owns a contiguous dense-row range (split at offset
        // boundaries, so ranges are disjoint slices of the entry array)
        // and writes the groups whose source falls in its range, with
        // targets remapped provisional -> dense on the way through.
        let edge_total: usize = all_groups.iter().map(|(_, e)| e.len()).sum();
        assert!(
            edge_total <= u32::MAX as usize,
            "CSR entry count exceeds the u32 offset space"
        );
        let mut offsets: Vec<u32> = Vec::with_capacity(n_states + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &c in &row_counts {
            acc += c;
            offsets.push(acc);
        }
        // Spawning scatter threads only pays for itself on big entry
        // arrays; small graphs (and single-worker runs) emit the rows
        // inline, walking `order` so the entries come out already in
        // dense row order — no slot buffer, no second pass.
        const PARALLEL_SCATTER_MIN_EDGES: usize = 1 << 16;
        let entries: Vec<Edge<A>> = if workers == 1 || edge_total < PARALLEL_SCATTER_MIN_EDGES {
            let mut out: Vec<Edge<A>> = Vec::with_capacity(edge_total);
            for &prov in &order {
                let (sh, loc) = ShardedStore::<A::State>::split(prov);
                let (_, edges) = &all_groups[group_at[sh][loc] as usize];
                for (t, a, dst) in edges {
                    let (dsh, dloc) = ShardedStore::<A::State>::split(*dst);
                    let dense_dst = StateId::from_index(dense_of[dsh][dloc] as usize);
                    out.push((t.clone(), a.clone(), dense_dst));
                }
            }
            out
        } else {
            let mut entries: Vec<Option<Edge<A>>> = Vec::new();
            entries.resize_with(edge_total, || None);
            // Contiguous row ranges of roughly equal edge mass.
            let target = edge_total.div_ceil(workers).max(1);
            let mut ranges: Vec<(usize, usize)> = Vec::new();
            let mut start = 0usize;
            while start < n_states {
                let mut end = start + 1;
                while end < n_states && (offsets[end] as usize - offsets[start] as usize) < target {
                    end += 1;
                }
                ranges.push((start, end));
                start = end;
            }
            let (all_groups, dense_of, offsets) = (&all_groups, &dense_of, &offsets);
            std::thread::scope(|scope| {
                let mut rest: &mut [Option<Edge<A>>] = &mut entries;
                let mut base = 0usize;
                for (row_start, row_end) in ranges {
                    let end_off = offsets[row_end] as usize;
                    let (mine, tail) = rest.split_at_mut(end_off - base);
                    rest = tail;
                    let range_base = base;
                    base = end_off;
                    scope.spawn(move || {
                        for (src, edges) in all_groups {
                            let (sh, loc) = ShardedStore::<A::State>::split(*src);
                            let row = dense_of[sh][loc] as usize;
                            if row < row_start || row >= row_end {
                                continue;
                            }
                            let row_base = offsets[row] as usize - range_base;
                            for (k, (t, a, dst)) in edges.iter().enumerate() {
                                let (dsh, dloc) = ShardedStore::<A::State>::split(*dst);
                                let dense_dst = StateId::from_index(dense_of[dsh][dloc] as usize);
                                mine[row_base + k] = Some((t.clone(), a.clone(), dense_dst));
                            }
                        }
                    });
                }
            });
            entries
                .into_iter()
                .map(|e| e.expect("every CSR slot written by the scatter pass"))
                .collect()
        };
        let edges = Csr::from_parts(offsets, entries);

        let truncation = if truncated.load(Ordering::SeqCst) {
            Truncation::StateBudget {
                budget: opts.max_states,
                dropped_edges: dropped.load(Ordering::SeqCst),
            }
        } else {
            Truncation::Complete
        };
        let stats = ExploreStats {
            states: n_states,
            edges: edge_total,
            peak_frontier: peak.load(Ordering::SeqCst),
            truncation,
            cache: track_cache.then_some(cache),
        };
        ExploredGraph {
            store: store.into_dense(&order),
            roots: root_ids,
            edges,
            parent,
            stats,
        }
    }
}

/// The set of states reachable from a set of roots, kept as the
/// exploration's interned arena — no state is re-cloned or re-hashed to
/// answer membership and iteration queries.
///
/// This is the id-based replacement for the legacy `ReachResult`
/// state-set view (removed): `contains` probes the arena's hash table,
/// [`Reached::states`] hands back the arena slice in discovery order,
/// and [`Reached::into_states`] moves the states out for the rare
/// caller that truly needs owned values.
#[derive(Debug, Clone)]
pub struct Reached<S> {
    store: StateStore<S>,
    truncated: bool,
}

impl<S: std::hash::Hash + Eq + Clone> Reached<S> {
    /// Number of distinct reachable states found within the budget.
    #[must_use]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether nothing was reached (only possible with no roots).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// True if the `max_states` budget stopped the search early.
    #[must_use]
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Whether `state` was reached within the budget.
    #[must_use]
    pub fn contains(&self, state: &S) -> bool {
        self.store.get(state).is_some()
    }

    /// The reachable states in discovery order, borrowed from the arena.
    #[must_use]
    pub fn states(&self) -> &[S] {
        self.store.states()
    }

    /// The underlying arena, for id-based lookups.
    #[must_use]
    pub fn store(&self) -> &StateStore<S> {
        &self.store
    }

    /// Move the states out of the arena (discovery order, no cloning).
    #[must_use]
    pub fn into_states(self) -> Vec<S> {
        self.store.into_states()
    }
}

/// Breadth-first reachability from a set of roots, stopping after
/// `max_states` distinct states, answered over the exploration's own
/// arena — zero state clones.
///
/// ```
/// use ioa::automaton::Automaton;
/// use ioa::explore::reach;
/// use ioa::toy::ParityCounter;
///
/// let c = ParityCounter::new(3);
/// let r = reach(&c, c.initial_states(), 100);
/// assert_eq!(r.len(), 4); // 0, 1, 2, 3
/// assert!(r.contains(&3));
/// assert!(!r.truncated());
/// ```
pub fn reach<A: Automaton>(aut: &A, roots: Vec<A::State>, max_states: usize) -> Reached<A::State> {
    let g = ExploredGraph::explore(aut, roots, max_states);
    let truncated = g.stats().truncated();
    Reached {
        store: g.into_parts().store,
        truncated,
    }
}

/// A path through an automaton: the `(task, action, resulting state)`
/// steps of a finite execution fragment (Section 2.1.1), excluding the
/// start state.
pub type Path<A> = Vec<(
    <A as Automaton>::Task,
    <A as Automaton>::Action,
    <A as Automaton>::State,
)>;

/// Outcome of a bounded breadth-first search for a target state.
#[derive(Debug)]
pub enum SearchOutcome<A: Automaton> {
    /// A shortest path (in steps) from the root to a state satisfying
    /// the predicate.
    Found(Path<A>),
    /// The whole reachable space was explored; no state matches. This
    /// is a proof of unreachability.
    Exhausted,
    /// The state budget was exhausted first; absence is inconclusive.
    Truncated,
}

// Manual impls: derived ones would demand `A: Clone` / `A: PartialEq`
// even though only the associated types appear in the data.
impl<A: Automaton> Clone for SearchOutcome<A> {
    fn clone(&self) -> Self {
        match self {
            SearchOutcome::Found(p) => SearchOutcome::Found(p.clone()),
            SearchOutcome::Exhausted => SearchOutcome::Exhausted,
            SearchOutcome::Truncated => SearchOutcome::Truncated,
        }
    }
}

impl<A: Automaton> PartialEq for SearchOutcome<A> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (SearchOutcome::Found(a), SearchOutcome::Found(b)) => a == b,
            (SearchOutcome::Exhausted, SearchOutcome::Exhausted) => true,
            (SearchOutcome::Truncated, SearchOutcome::Truncated) => true,
            _ => false,
        }
    }
}

impl<A: Automaton> Eq for SearchOutcome<A> {}

/// Bounded BFS from `root` for a state satisfying `pred`, returning a
/// shortest path to the first match.
///
/// Unlike [`ExploredGraph::explore`], this stops as soon as a match is
/// discovered, so it keeps its own early-exit BFS: an interning arena
/// for the seen-set plus an id-indexed parent vector for path
/// reconstruction. The predicate is checked on the root first, then on
/// each state as it is discovered.
pub fn search<A, P>(aut: &A, root: &A::State, pred: P, max_states: usize) -> SearchOutcome<A>
where
    A: Automaton,
    P: Fn(&A::State) -> bool,
{
    if pred(root) {
        return SearchOutcome::Found(Vec::new());
    }
    let tasks = aut.tasks();
    let mut store: StateStore<A::State> = StateStore::new();
    let (root_id, _) = store.intern(root);
    let mut parent: Vec<Option<Discovery<A>>> = vec![None];
    let mut queue: VecDeque<StateId> = VecDeque::from([root_id]);
    let mut truncated = false;

    while let Some(id) = queue.pop_front() {
        let succs: Vec<(A::Task, A::Action, A::State)> = {
            let s = store.resolve(id);
            tasks
                .iter()
                .flat_map(|t| {
                    aut.succ_all(t, s)
                        .into_iter()
                        .map(move |(a, s2)| (t.clone(), a, s2))
                })
                .collect()
        };
        for (t, a, s2) in succs {
            match store.try_intern(&s2, max_states) {
                Some((id2, true)) => {
                    parent.push(Some((id, t, a)));
                    if pred(&s2) {
                        // Walk the BFS tree back to the root.
                        let mut path = Vec::new();
                        let mut cur = id2;
                        while let Some((prev, t, a)) = &parent[cur.index()] {
                            path.push((t.clone(), a.clone(), store.resolve(cur).clone()));
                            cur = *prev;
                        }
                        path.reverse();
                        return SearchOutcome::Found(path);
                    }
                    queue.push_back(id2);
                }
                Some((_, false)) => {}
                None => truncated = true,
            }
        }
    }
    if truncated {
        SearchOutcome::Truncated
    } else {
        SearchOutcome::Exhausted
    }
}

/// Build the interned reachable graph from `roots` — the transition
/// structure of `G(C)` (Section 3.3) that the valence census and hook
/// search walk.
///
/// Under truncation, edges into never-admitted states are dropped and
/// counted ([`Truncation::StateBudget`]'s `dropped_edges`), so the edge
/// lists only ever reference states present in the graph.
pub fn build_graph<A: Automaton>(
    aut: &A,
    roots: Vec<A::State>,
    max_states: usize,
) -> ExploredGraph<A> {
    ExploredGraph::explore(aut, roots, max_states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::{ParityCounter, ParityTask};

    #[test]
    fn reachability_reaches_the_bound() {
        let c = ParityCounter::new(5);
        let r = reach(&c, c.initial_states(), 100);
        assert_eq!(r.len(), 6);
        assert!(!r.truncated());
    }

    #[test]
    fn truncation_is_reported() {
        let c = ParityCounter::new(100);
        let r = reach(&c, c.initial_states(), 10);
        assert_eq!(r.len(), 10);
        assert!(r.truncated());
    }

    #[test]
    fn search_finds_shortest_path() {
        let c = ParityCounter::new(10);
        match search(&c, &0, |s| *s == 3, 100) {
            SearchOutcome::Found(path) => {
                assert_eq!(path.len(), 3);
                let tasks: Vec<ParityTask> = path.iter().map(|(t, _, _)| *t).collect();
                assert_eq!(
                    tasks,
                    vec![ParityTask::Even, ParityTask::Odd, ParityTask::Even]
                );
                assert_eq!(path.last().unwrap().2, 3);
            }
            other => panic!("expected Found, got {other:?}"),
        }
    }

    #[test]
    fn search_exhausted_is_a_proof() {
        let c = ParityCounter::new(5);
        assert_eq!(search(&c, &0, |s| *s == 42, 100), SearchOutcome::Exhausted);
    }

    #[test]
    fn search_at_root() {
        let c = ParityCounter::new(5);
        assert_eq!(
            search(&c, &0, |s| *s == 0, 100),
            SearchOutcome::Found(Vec::new())
        );
    }

    #[test]
    fn graph_has_one_edge_per_applicable_task() {
        let c = ParityCounter::new(2);
        let g = build_graph(&c, c.initial_states(), 100);
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
        let g = build_graph(&c, c.initial_states(), 100);
        for (i, id) in g.ids().enumerate() {
            assert_eq!(id.index(), i);
            assert_eq!(*g.resolve(id), i as i64);
        }
        // The parent chain reconstructs a shortest path to each state.
        let id3 = g.id_of(&3).unwrap();
        let path = g.path_to(id3);
        assert_eq!(path.len(), 3);
        assert_eq!(path.last().unwrap().2, 3);
    }

    #[test]
    fn truncated_graph_has_no_dangling_edges() {
        // Regression for the pre-interning builder, which pushed edges
        // before checking the budget: a truncated graph would contain
        // edges to states that were never given a node entry. The
        // chosen semantics: drop such edges and count them.
        let c = ParityCounter::new(1_000);
        let g = build_graph(&c, c.initial_states(), 10);
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
            for (_, _, dst) in g.successors(id) {
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
        let full = ExploredGraph::explore_with(
            &c,
            c.initial_states(),
            ExploreOptions {
                max_states: 100,
                skip_self_loops: false,
                threads: 0,
                symmetry: SymmetryMode::Off,
                frontier: FrontierMode::Auto,
            },
        );
        let skipped = ExploredGraph::explore_with(
            &c,
            c.initial_states(),
            ExploreOptions {
                max_states: 100,
                skip_self_loops: true,
                threads: 0,
                symmetry: SymmetryMode::Off,
                frontier: FrontierMode::Auto,
            },
        );
        assert_eq!(full.len(), skipped.len());
        assert_eq!(full.stats().edges, skipped.stats().edges);
    }

    /// Assert two graphs are bit-identical: same ids, roots, edges,
    /// parents and census (peak_frontier deliberately excluded — it is
    /// a scheduling measurement, not graph identity).
    fn assert_same_graph(a: &ExploredGraph<ParityCounter>, b: &ExploredGraph<ParityCounter>) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.roots(), b.roots());
        assert_eq!(a.stats(), b.stats());
        for id in a.ids() {
            assert_eq!(a.resolve(id), b.resolve(id), "state {id:?}");
            assert_eq!(a.successors(id), b.successors(id), "edges of {id:?}");
            assert_eq!(a.discovered_by(id), b.discovered_by(id), "parent of {id:?}");
        }
    }

    #[test]
    fn worksteal_complete_graph_is_bit_identical_to_sequential() {
        let c = ParityCounter::new(40);
        let seq = ExploredGraph::explore_with(
            &c,
            c.initial_states(),
            ExploreOptions::with_budget(1000).with_threads(1),
        );
        for threads in [1, 2, 4] {
            let ws = ExploredGraph::explore_with(
                &c,
                c.initial_states(),
                ExploreOptions::with_budget(1000)
                    .with_threads(threads)
                    .with_frontier(FrontierMode::WorkSteal),
            );
            assert_same_graph(&seq, &ws);
        }
    }

    #[test]
    fn worksteal_single_worker_matches_sequential_under_truncation() {
        // One worker pops its own FIFO deque: a deterministic BFS whose
        // admitted set, dropped-edge count and in-flight peak coincide
        // with the sequential loop even when the budget truncates.
        let c = ParityCounter::new(1_000);
        let seq = ExploredGraph::explore_with(
            &c,
            c.initial_states(),
            ExploreOptions::with_budget(10).with_threads(1),
        );
        let ws = ExploredGraph::explore_with(
            &c,
            c.initial_states(),
            ExploreOptions::with_budget(10)
                .with_threads(1)
                .with_frontier(FrontierMode::WorkSteal),
        );
        assert_same_graph(&seq, &ws);
        assert_eq!(ws.stats().peak_frontier, seq.stats().peak_frontier);
        assert_eq!(ws.stats().truncation, seq.stats().truncation);
    }

    #[test]
    fn worksteal_truncation_is_sound_at_any_thread_count() {
        let c = ParityCounter::new(1_000);
        for threads in [2, 4] {
            let ws = ExploredGraph::explore_with(
                &c,
                c.initial_states(),
                ExploreOptions::with_budget(10)
                    .with_threads(threads)
                    .with_frontier(FrontierMode::WorkSteal),
            );
            // Exactly the budget admitted (the CAS cap is globally
            // exact), the flag is set, and the graph stays edge-closed
            // with every non-root carrying a parent.
            assert_eq!(ws.len(), 10);
            assert!(ws.stats().truncated());
            for id in ws.ids() {
                for (_, _, dst) in ws.successors(id) {
                    assert!(dst.index() < ws.len(), "dangling edge to {dst:?}");
                }
                if !ws.roots().contains(&id) {
                    assert!(ws.discovered_by(id).is_some(), "orphaned state {id:?}");
                }
            }
        }
    }

    #[test]
    fn worksteal_empty_roots_yield_an_empty_graph() {
        let c = ParityCounter::new(5);
        let ws = ExploredGraph::explore_with(
            &c,
            Vec::new(),
            ExploreOptions::with_budget(10).with_frontier(FrontierMode::WorkSteal),
        );
        assert!(ws.is_empty());
        assert_eq!(ws.stats().edges, 0);
        assert!(!ws.stats().truncated());
    }
}

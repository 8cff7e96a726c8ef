//! Valence of finite failure-free input-first executions
//! (paper Sections 3.2–3.3).
//!
//! An execution `α` is 0-valent if some failure-free extension decides
//! 0 and none decides 1 (symmetrically 1-valent); bivalent if both
//! decisions are reachable. Because decisions are recorded in process
//! states (Section 2.2.1), "some extension contains `decide(v)_i`" is
//! equivalent to "some state reachable by task steps records `v`" —
//! so valence is computed by one sweep over the reachable portion of
//! the graph `G(C)` (Section 3.3) followed by a backward fixpoint.
//!
//! The reachable graph is interned once per root as an
//! [`ExploredGraph`] over dense [`StateId`]s, and the decided-set and
//! valence tables are flat `Vec`s indexed by id. Every downstream pass
//! — the Lemma 4 initialization scan, the Lemma 5 hook construction,
//! the `G(C)` census, the witness safety scan — shares this one graph
//! instead of re-hashing and re-cloning full `SystemState`s.

use ioa::canon::{SymGroup, SymmetryMode};
use ioa::explore::{ExploreOptions, ExploreStats, ExploredGraph, FrontierMode};
use ioa::store::{fx_hash, StateId, StateStore};
use ioa::Csr;
use spec::Val;
use std::collections::BTreeSet;
use system::build::{CompleteSystem, SystemState};
use system::packed::{canonical_system_state, PackedSystem};
use system::process::ProcessAutomaton;
use system::{Action, Task};

/// The valence of a finite failure-free input-first execution
/// (equivalently, of its final state — the extension set depends only
/// on the state).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Valence {
    /// Only `decide(0)` is reachable failure-free.
    Zero,
    /// Only `decide(1)` is reachable failure-free.
    One,
    /// Both decisions are reachable: the pivotal situation the
    /// impossibility proof chases.
    Bivalent,
    /// No decision is reachable failure-free at all — already a
    /// violation of the consensus termination condition (Lemma 3 rules
    /// this out for genuine consensus implementations).
    Undecided,
}

impl Valence {
    /// Whether this is 0-valent or 1-valent.
    pub fn is_univalent(self) -> bool {
        matches!(self, Valence::Zero | Valence::One)
    }

    /// The decided value this univalent class pins down.
    pub fn decided_value(self) -> Option<Val> {
        match self {
            Valence::Zero => Some(Val::Int(0)),
            Valence::One => Some(Val::Int(1)),
            _ => None,
        }
    }

    /// The opposite univalent class.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not univalent.
    pub fn opposite(self) -> Valence {
        match self {
            Valence::Zero => Valence::One,
            Valence::One => Valence::Zero,
            other => panic!("{other:?} has no opposite"),
        }
    }
}

/// The error returned when the reachable space exceeds the state
/// budget, making exhaustive valence claims unsound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Truncated {
    /// The number of states explored before giving up.
    pub states_explored: usize,
}

impl std::fmt::Display for Truncated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "state budget exhausted after {} states; valence undecidable at this bound",
            self.states_explored
        )
    }
}

impl std::error::Error for Truncated {}

/// The interned failure-free reachable graph from a root state, with
/// each state's set of reachable decision values — the executable form
/// of `G(C)` (Section 3.3) restricted to what valence needs.
///
/// Self-loop transitions are skipped at exploration time: a stuttering
/// step never changes the decisions reachable from a configuration.
///
/// The graph is *explored* over the component-interned representation
/// ([`PackedSystem`], DESIGN §2.1.2) — successors there are flat
/// id-vector copies instead of deep `BTreeMap` clones — and the packed
/// states are decoded back into [`SystemState`]s in id order once
/// exploration finishes, so every downstream consumer keeps the deep
/// view. Ids, edges, parents and stats are bit-identical to exploring
/// the deep representation directly (pinned by the differential tests).
#[derive(Debug)]
pub struct ValenceMap<P: ProcessAutomaton> {
    store: StateStore<SystemState<P::State>>,
    root: StateId,
    /// Flat CSR adjacency: row `id` holds the `(task, action,
    /// successor)` transitions out of `id`, in task order. One
    /// contiguous edge arena instead of a `Vec` per state, so the
    /// census scan, the hook BFS and the witness safety sweep walk
    /// contiguous memory.
    edges: Csr<(Task, Action, StateId)>,
    /// Reverse CSR: row `id` holds the predecessors of `id`, one entry
    /// per forward edge, in `(source, position)` order. Drives the
    /// backward valence fixpoint and is exposed via
    /// [`ValenceMap::predecessors`].
    preds: Csr<StateId>,
    /// BFS tree: the step that first discovered each non-root state.
    parent: Vec<Option<(StateId, Task, Action)>>,
    stats: ExploreStats,
    /// `decided[id]` = the decision values reachable from `id`.
    decided: Vec<BTreeSet<Val>>,
    /// `valence[id]`, precomputed from `decided` — the census becomes a
    /// flat array scan.
    valence: Vec<Valence>,
    /// The symmetry group the explored graph was quotiented by
    /// (`None` when exploration ran concretely). When present, every
    /// non-root state in the map is an orbit representative, and
    /// lookups canonicalize their argument on a raw miss.
    sym: Option<SymGroup>,
}

impl<P: ProcessAutomaton> ValenceMap<P> {
    /// Explores every failure-free extension of `root` (at most
    /// `max_states` distinct states) and computes each state's
    /// reachable-decisions set.
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] if the reachable space exceeds
    /// `max_states` — all valence answers would be unsound.
    pub fn build(
        sys: &CompleteSystem<P>,
        root: SystemState<P::State>,
        max_states: usize,
    ) -> Result<Self, Truncated> {
        Self::build_with(sys, root, max_states, 0)
    }

    /// [`ValenceMap::build`] with an explicit exploration worker-thread
    /// count (`0` = auto, see [`ExploreOptions::threads`]). The
    /// resulting map is bit-identical for every thread count; the knob
    /// only trades wall-clock time for cores during the `G(C)` sweep.
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] if the reachable space exceeds
    /// `max_states` — all valence answers would be unsound.
    pub fn build_with(
        sys: &CompleteSystem<P>,
        root: SystemState<P::State>,
        max_states: usize,
        threads: usize,
    ) -> Result<Self, Truncated> {
        // Explore over the packed representation: successors are flat
        // component-id copies, and each distinct component state pays
        // its deep hash/clone exactly once in the sub-arenas.
        let packed = PackedSystem::new(sys);
        Self::build_in(sys, &packed, root, max_states, threads)
    }

    /// [`ValenceMap::build_with`] with an explicit symmetry mode:
    /// under [`SymmetryMode::Full`] (and a symmetric system) the
    /// reachable graph is the orbit quotient — every successor is
    /// canonicalized to its orbit representative before interning, so
    /// the map holds one state per orbit plus the raw root.
    ///
    /// The requested mode is laundered through
    /// [`crate::audit::effective_symmetry`] first: a substrate whose
    /// claimed `id_symmetric`/`endpoint_symmetric` flags fail the
    /// component-local symmetry-honesty audit is explored concretely
    /// (with a warning on stderr) instead of being trusted — a lying
    /// flag degrades the quotient, it cannot corrupt valence verdicts.
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] if the reachable space exceeds
    /// `max_states` — all valence answers would be unsound.
    pub fn build_with_symmetry(
        sys: &CompleteSystem<P>,
        root: SystemState<P::State>,
        max_states: usize,
        threads: usize,
        symmetry: SymmetryMode,
    ) -> Result<Self, Truncated> {
        let symmetry = crate::audit::effective_symmetry(sys, symmetry);
        let packed = PackedSystem::with_symmetry(sys, symmetry);
        Self::build_in(sys, &packed, root, max_states, threads)
    }

    /// [`ValenceMap::build_with`] over a caller-provided
    /// [`PackedSystem`]. The packed system's component sub-arenas and
    /// transition-effect cache persist across calls, so building
    /// several maps of the *same* system (the Lemma 4 walk builds
    /// `n + 1`) pays each distinct component transition once globally
    /// instead of once per map — after the first build the rest run
    /// almost entirely out of the cache.
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] if the reachable space exceeds
    /// `max_states` — all valence answers would be unsound.
    pub fn build_in(
        sys: &CompleteSystem<P>,
        packed: &PackedSystem<'_, P>,
        root: SystemState<P::State>,
        max_states: usize,
        threads: usize,
    ) -> Result<Self, Truncated> {
        Self::build_in_with(sys, packed, root, max_states, threads, FrontierMode::Auto)
    }

    /// [`ValenceMap::build_in`] with an explicit frontier discipline.
    /// Complete explorations renumber to the identical graph under
    /// every [`FrontierMode`], so the resulting map is bit-identical
    /// either way; the knob exists so differential suites can pin the
    /// work-stealing path explicitly instead of routing through the
    /// process-global [`ioa::explore::FRONTIER_ENV`].
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] if the reachable space exceeds
    /// `max_states` — all valence answers would be unsound.
    pub fn build_in_with(
        sys: &CompleteSystem<P>,
        packed: &PackedSystem<'_, P>,
        root: SystemState<P::State>,
        max_states: usize,
        threads: usize,
        frontier: FrontierMode,
    ) -> Result<Self, Truncated> {
        let packed_root = packed.encode(&root);
        let graph = ExploredGraph::explore_with(
            packed,
            vec![packed_root],
            ExploreOptions {
                max_states,
                skip_self_loops: true,
                threads,
                // Quotient exactly when the packed system's orbit
                // canonicalizer is active; roots stay raw either way.
                symmetry: packed.symmetry_mode(),
                frontier,
            },
        );
        if graph.stats().truncated() {
            return Err(Truncated {
                states_explored: graph.len(),
            });
        }
        let parts = graph.into_parts();

        // Decode each packed state back into the deep representation,
        // in id order: interning in insertion order reproduces the
        // packed ids exactly (the encoding is injective, so every
        // decode is fresh), and the edge/parent tables carry over
        // verbatim.
        let mut store = StateStore::with_capacity(parts.store.len());
        for ps in parts.store.states() {
            let s = packed.decode(ps);
            let h = fx_hash(&s);
            let (_, fresh) = store.intern_prehashed(s, h);
            debug_assert!(fresh, "packed states decode injectively");
        }
        let root = parts.roots[0];
        let edges = parts.edges;

        // Reverse CSR: one counting-sort transpose of the flat edge
        // arena (no per-state `Vec` allocations).
        let preds: Csr<StateId> =
            edges.reversed(|e| e.2.index(), |src, _| StateId::from_index(src));

        // Backward fixpoint: decided(s) = own decisions ∪ ⋃ decided(s').
        // The sweep runs on the shared bit-lane union engine
        // (`ioa::fixpoint::backward_union`, the same machinery the
        // property evaluator batches its backward analyses on): the
        // small universe of decision values is interned into bit
        // lanes, each state's mask is seeded with its own decisions,
        // and the fixpoint propagates whole masks over the reverse
        // edges. Set union is confluent, so the result is identical to
        // the former per-`BTreeSet` worklist, element for element.
        let own: Vec<BTreeSet<Val>> = store
            .ids()
            .map(|id| sys.decided_values(store.resolve(id)))
            .collect();
        let universe: Vec<Val> = own
            .iter()
            .flat_map(|d| d.iter().cloned())
            .collect::<BTreeSet<Val>>()
            .into_iter()
            .collect();
        assert!(
            universe.len() <= ioa::fixpoint::MAX_LANES,
            "decision-value universe exceeds {} bit lanes",
            ioa::fixpoint::MAX_LANES
        );
        let mut masks: Vec<u64> = own
            .iter()
            .map(|d| {
                d.iter().fold(0u64, |m, v| {
                    m | 1 << universe.binary_search(v).expect("value interned")
                })
            })
            .collect();
        ioa::fixpoint::backward_union(&preds, &mut masks);
        let decided: Vec<BTreeSet<Val>> = masks
            .iter()
            .map(|m| {
                universe
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| m & (1 << j) != 0)
                    .map(|(_, v)| v.clone())
                    .collect()
            })
            .collect();

        let valence = decided.iter().map(classify).collect();
        Ok(ValenceMap {
            store,
            root,
            edges,
            preds,
            parent: parts.parent,
            stats: parts.stats,
            decided,
            valence,
            sym: packed.symmetry_group(),
        })
    }

    /// The root state the map was built from.
    pub fn root(&self) -> &SystemState<P::State> {
        self.store.resolve(self.root)
    }

    /// The root's id.
    pub fn root_id(&self) -> StateId {
        self.root
    }

    /// The number of reachable states.
    pub fn state_count(&self) -> usize {
        self.store.len()
    }

    /// All ids in discovery (BFS) order.
    pub fn ids(&self) -> impl Iterator<Item = StateId> {
        self.store.ids()
    }

    /// Exploration census: states, edges, peak frontier, truncation.
    pub fn stats(&self) -> &ExploreStats {
        &self.stats
    }

    /// A deterministic accounting of the retained graph arenas:
    /// `(peak_interned_states, arena_bytes)`. The state store only ever
    /// grows, so the final count *is* the peak. Bytes sum the inline
    /// sizes of every retained arena — state headers, both CSR edge
    /// arenas, the BFS tree, the valence array and the decision table.
    /// Heap owned
    /// *behind* component states (service buffers, deep `Val`s) is
    /// deliberately not traversed: the figure is a stable, allocator-
    /// independent lower bound for regression tracking, not an RSS
    /// report.
    #[must_use]
    pub fn footprint(&self) -> (u64, u64) {
        use std::mem::size_of;
        let bytes = self.state_count() * size_of::<SystemState<P::State>>()
            + self.edges.entry_count() * size_of::<(Task, Action, StateId)>()
            + self.preds.entry_count() * size_of::<StateId>()
            + self.parent.len() * size_of::<Option<(StateId, Task, Action)>>()
            + self.valence.len() * size_of::<Valence>()
            + self
                .decided
                .iter()
                .map(|d| d.len() * size_of::<Val>())
                .sum::<usize>();
        (self.state_count() as u64, bytes as u64)
    }

    /// The BFS-tree step that first discovered `id` (`None` for roots).
    pub fn discovered_by(&self, id: StateId) -> Option<&(StateId, Task, Action)> {
        self.parent[id.index()].as_ref()
    }

    /// Whether the map is an orbit quotient (built under a reducing
    /// [`SymmetryMode`] over a symmetric system).
    pub fn symmetric(&self) -> bool {
        self.sym.is_some()
    }

    /// The symmetry group the quotient was taken by, when any.
    pub fn sym(&self) -> Option<SymGroup> {
        self.sym
    }

    /// Whether `s` (or, in a quotient map, any state in its orbit) is
    /// in the explored space.
    pub fn contains(&self, s: &SystemState<P::State>) -> bool {
        self.id_of(s).is_some()
    }

    /// The id of `s` within the explored space, if present. In a
    /// quotient map the raw lookup (which covers the non-canonical
    /// root) falls back to the orbit representative, so any concrete
    /// state whose orbit was explored resolves.
    pub fn id_of(&self, s: &SystemState<P::State>) -> Option<StateId> {
        if let Some(id) = self.store.get(s) {
            return Some(id);
        }
        let group = self.sym?;
        self.store.get(&canonical_system_state(group, s))
    }

    /// Resolve an id back to its state.
    #[inline]
    pub fn resolve(&self, id: StateId) -> &SystemState<P::State> {
        self.store.resolve(id)
    }

    fn require(&self, s: &SystemState<P::State>) -> StateId {
        self.id_of(s)
            .unwrap_or_else(|| panic!("state not in the explored space"))
    }

    /// The decision values reachable failure-free from `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not in the explored space (check with
    /// [`ValenceMap::contains`]).
    pub fn reachable_decisions(&self, s: &SystemState<P::State>) -> &BTreeSet<Val> {
        self.reachable_decisions_id(self.require(s))
    }

    /// The decision values reachable failure-free from `id`.
    #[inline]
    pub fn reachable_decisions_id(&self, id: StateId) -> &BTreeSet<Val> {
        &self.decided[id.index()]
    }

    /// The valence of `s` (Section 3.2).
    ///
    /// # Panics
    ///
    /// Panics if `s` is not in the explored space.
    pub fn valence(&self, s: &SystemState<P::State>) -> Valence {
        self.valence_id(self.require(s))
    }

    /// The valence of `id` (Section 3.2) — O(1) array access.
    #[inline]
    pub fn valence_id(&self, id: StateId) -> Valence {
        self.valence[id.index()]
    }

    /// Every state's valence, indexed by id — the census's input.
    pub fn valences(&self) -> &[Valence] {
        &self.valence
    }

    /// The `(task, action, successor)` edges out of `id` in `G(C)`
    /// (self-loops excluded) — a slice of the contiguous CSR arena.
    #[inline]
    pub fn successors(&self, id: StateId) -> &[(Task, Action, StateId)] {
        self.edges.row(id.index())
    }

    /// The predecessors of `id` in `G(C)`: one entry per incoming
    /// edge, in `(source id, edge position)` order. Sources with
    /// parallel edges to `id` appear once per edge.
    #[inline]
    pub fn predecessors(&self, id: StateId) -> &[StateId] {
        self.preds.row(id.index())
    }

    /// The deterministic successor of `s` under task `t` within the
    /// explored graph, if `t` is applicable (the `e(α)` operation of
    /// Section 3.1, restricted to non-self-loop progress edges).
    ///
    /// Resolved against the graph's own edge lists, not the system's
    /// transition function: a task whose only move is a self-loop (a
    /// stutter, pruned at exploration time) and a state outside the
    /// explored space both answer `None`, so the successor is always
    /// safe to feed back into [`ValenceMap::valence`].
    ///
    /// In a quotient map the returned successor is the *orbit
    /// representative* of the concrete successor — and when `s` itself
    /// resolved via its representative, the edge followed is the
    /// representative's. Callers that need a concrete (per-path) walk,
    /// like the hook search, must step with the system's own
    /// transition function and use the map only as a valence oracle.
    pub fn apply(&self, t: &Task, s: &SystemState<P::State>) -> Option<SystemState<P::State>> {
        let id = self.id_of(s)?;
        self.successors(id)
            .iter()
            .find(|(t2, _, _)| t2 == t)
            .map(|(_, _, s2)| self.store.resolve(*s2).clone())
    }
}

/// Classifies a reachable-decisions set (binary consensus values).
pub fn classify(d: &BTreeSet<Val>) -> Valence {
    let zero = d.contains(&Val::Int(0));
    let one = d.contains(&Val::Int(1));
    match (zero, one) {
        (true, true) => Valence::Bivalent,
        (true, false) => Valence::Zero,
        (false, true) => Valence::One,
        (false, false) => Valence::Undecided,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioa::automaton::Automaton;
    use services::atomic::CanonicalAtomicObject;
    use spec::seq::BinaryConsensus;
    use spec::{ProcId, SvcId};
    use std::sync::Arc;
    use system::consensus::InputAssignment;
    use system::process::direct::DirectConsensus;
    use system::sched::initialize;

    fn direct(n: usize, f: usize) -> CompleteSystem<DirectConsensus> {
        let endpoints: Vec<ProcId> = (0..n).map(ProcId).collect();
        let obj = CanonicalAtomicObject::new(Arc::new(BinaryConsensus), endpoints, f);
        CompleteSystem::new(DirectConsensus::new(SvcId(0)), n, vec![Arc::new(obj)])
    }

    #[test]
    fn unanimous_initializations_are_univalent() {
        let sys = direct(2, 0);
        let s0 = initialize(&sys, &InputAssignment::monotone(2, 0));
        let map = ValenceMap::build(&sys, s0.clone(), 100_000).unwrap();
        assert_eq!(map.valence(&s0), Valence::Zero);
        let s1 = initialize(&sys, &InputAssignment::monotone(2, 2));
        let map = ValenceMap::build(&sys, s1.clone(), 100_000).unwrap();
        assert_eq!(map.valence(&s1), Valence::One);
    }

    #[test]
    fn mixed_initialization_is_bivalent_and_resolves() {
        let sys = direct(2, 0);
        let s = initialize(&sys, &InputAssignment::monotone(2, 1));
        let map = ValenceMap::build(&sys, s.clone(), 100_000).unwrap();
        assert_eq!(map.valence(&s), Valence::Bivalent);
        // Let P0 (input 1) reach the object first: commits to 1.
        let s = map.apply(&Task::Proc(ProcId(0)), &s).expect("invoke step");
        let s = map
            .apply(&Task::Perform(SvcId(0), ProcId(0)), &s)
            .expect("perform step");
        assert_eq!(map.valence(&s), Valence::One);
    }

    #[test]
    fn valence_helpers() {
        assert!(Valence::Zero.is_univalent());
        assert!(!Valence::Bivalent.is_univalent());
        assert_eq!(Valence::Zero.opposite(), Valence::One);
        assert_eq!(Valence::One.decided_value(), Some(Val::Int(1)));
        assert_eq!(Valence::Bivalent.decided_value(), None);
    }

    #[test]
    fn truncation_is_an_error() {
        let sys = direct(2, 0);
        let s = initialize(&sys, &InputAssignment::monotone(2, 1));
        assert!(ValenceMap::build(&sys, s, 3).is_err());
    }

    #[test]
    fn cache_stats_are_scoped_per_exploration() {
        // Regression: per-exploration cache stats used to be derived by
        // subtracting snapshots of the shared `PackedSystem`'s
        // cumulative counters, which drifts as soon as one packed
        // system serves several explorations (the `build_in` warm-walk
        // pattern). Each exploration now accounts through its own
        // scoped sink, so back-to-back and interleaved builds must
        // report exactly their own lookups.
        let sys = direct(2, 0);
        let packed = PackedSystem::with_symmetry(&sys, SymmetryMode::Off);
        let root_a = initialize(&sys, &InputAssignment::monotone(2, 1));
        let root_b = initialize(&sys, &InputAssignment::monotone(2, 0));

        let a1 = ValenceMap::build_in(&sys, &packed, root_a.clone(), 100_000, 1).unwrap();
        let c_a1 = a1.stats().cache.expect("packed builds track cache stats");
        assert!(c_a1.lookups() > 0);
        assert!(c_a1.misses > 0, "cold cache must record misses");

        // Interleave a different root, then rebuild the first: the
        // rebuild runs fully warm and its scoped stats must show the
        // same lookup count as the cold run, now all hits — regardless
        // of the α_0 exploration in between.
        let b = ValenceMap::build_in(&sys, &packed, root_b, 100_000, 1).unwrap();
        let c_b = b.stats().cache.expect("cache stats present");
        let a2 = ValenceMap::build_in(&sys, &packed, root_a, 100_000, 1).unwrap();
        let c_a2 = a2.stats().cache.expect("cache stats present");

        assert_eq!(
            c_a2.lookups(),
            c_a1.lookups(),
            "same exploration, same expansions, same lookups"
        );
        assert_eq!(c_a2.misses, 0, "warm rebuild must be all hits");
        assert_eq!(c_a2.hits, c_a1.lookups());
        // The interleaved exploration's stats belong to it alone: its
        // lookups reflect its own (smaller, unanimous-root) space, not
        // a drifted window over the shared counters.
        assert_eq!(c_b.lookups(), c_b.hits + c_b.misses);
        assert!(c_b.lookups() < c_a1.lookups() + c_a2.lookups());
    }

    #[test]
    fn decided_states_stay_decided() {
        // Once a decision is recorded it persists in every extension —
        // the monotonicity the Section 2.2.1 technicality buys.
        let sys = direct(2, 1);
        let s = initialize(&sys, &InputAssignment::monotone(2, 2));
        let map = ValenceMap::build(&sys, s.clone(), 100_000).unwrap();
        for id in map.ids() {
            let own = sys.decided_values(map.resolve(id));
            if !own.is_empty() {
                assert!(map.reachable_decisions_id(id).is_superset(&own));
            }
        }
    }

    #[test]
    fn id_and_state_lookups_agree() {
        let sys = direct(2, 0);
        let s = initialize(&sys, &InputAssignment::monotone(2, 1));
        let map = ValenceMap::build(&sys, s.clone(), 100_000).unwrap();
        assert_eq!(map.root(), &s);
        assert_eq!(map.id_of(&s), Some(map.root_id()));
        for id in map.ids() {
            let st = map.resolve(id).clone();
            assert_eq!(map.valence(&st), map.valence_id(id));
            assert_eq!(map.reachable_decisions(&st), map.reachable_decisions_id(id));
        }
        assert_eq!(map.valences().len(), map.state_count());
    }

    #[test]
    fn apply_answers_none_on_stutters_and_off_graph() {
        // Regression: apply used to call sys.succ_det directly, so a
        // task whose only move is a Skip self-loop (pruned from G(C))
        // produced a "successor", and a foreign state produced one
        // whose valence() lookup then panicked.
        let sys = direct(2, 0);
        let s = initialize(&sys, &InputAssignment::monotone(2, 1));
        let map = ValenceMap::build(&sys, s, 100_000).unwrap();
        let terminal = map
            .ids()
            .find(|&id| map.successors(id).is_empty())
            .expect("a fully decided state has no progress edges");
        let term_state = map.resolve(terminal).clone();
        let t = Task::Proc(ProcId(0));
        assert!(
            sys.succ_det(&t, &term_state).is_some(),
            "the stutter transition itself still exists"
        );
        assert_eq!(map.apply(&t, &term_state), None);
        let foreign = initialize(&sys, &InputAssignment::monotone(2, 2));
        assert_eq!(map.apply(&t, &foreign), None);
    }

    #[test]
    #[should_panic(expected = "not in the explored space")]
    fn foreign_states_panic() {
        let sys = direct(2, 0);
        let s = initialize(&sys, &InputAssignment::monotone(2, 1));
        let map = ValenceMap::build(&sys, s, 100_000).unwrap();
        let other = initialize(&sys, &InputAssignment::monotone(2, 2));
        let _ = map.valence(&other);
    }
}

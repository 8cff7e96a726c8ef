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
//! [`ExploredGraph`] over dense [`StateId`]s of packed states, and the
//! reachable-decision masks and valence table are flat `Vec`s indexed
//! by id. Every downstream pass — the Lemma 4 initialization scan, the
//! Lemma 5 hook construction, the `G(C)` census, the witness safety
//! scan — shares this one graph, reading component ids where it can
//! and decoding a full `SystemState` only for the ids it inspects
//! deeply. The hook construction walks concrete packed states of the
//! packed system that built the map ([`ValenceMap::packed_system`])
//! and asks the map only for valences and decisions
//! ([`ValenceMap::packed_id_of`], [`ValenceMap::has_decided_packed`]).

use ioa::canon::{SymGroup, SymmetryMode};
use ioa::explore::{ExploreOptions, ExploreStats, ExploredGraph};
use ioa::store::{StateId, StateStore};
use ioa::Csr;
use spec::{ProcId, Val};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;
use system::build::{CompleteSystem, SystemState};
use system::packed::{canonical_system_state, Decoder, PackedState, PackedSystem};
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
/// The map keeps the explorer's *packed* arena ([`PackedSystem`],
/// DESIGN §2.1.2): each state is a flat vector of component ids into
/// sub-arenas shared with the packed system through a [`Decoder`]
/// handle, which also keeps the packed system's effect cache and
/// canonicalizer memo alive for [`ValenceMap::packed_system`].
/// Valence, reachable decisions, each process's recorded decision and
/// the failed set are answered from those ids — a decision is computed
/// once per distinct process component, not once per state.
/// [`ValenceMap::resolve`] decodes a state back into a deep
/// [`SystemState`] only when asked, once per id; the root is stored
/// decoded from the start. Ids, edges, parents and stats are
/// bit-identical to exploring the deep representation directly (pinned
/// by the differential tests).
#[derive(Debug)]
pub struct ValenceMap<P: ProcessAutomaton> {
    /// The packed states, in id (discovery) order.
    store: StateStore<PackedState>,
    /// Decodes and looks up packed states against the component
    /// sub-arenas the packed ids index, and resumes the packed system
    /// that built the map.
    decoder: Decoder<P::State>,
    /// `decoded[id]` = the deep form of `id`, materialized on first
    /// [`ValenceMap::resolve`].
    decoded: Vec<OnceLock<Box<SystemState<P::State>>>>,
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
    /// `decisions[pc]` = the decision recorded by process component
    /// `pc`, for every process component interned when the map was
    /// built.
    decisions: Vec<Option<Val>>,
    /// `reach[id]` = the bit-lane mask of the decision values reachable
    /// from `id`.
    reach: Vec<u64>,
    /// The reachable-decisions set of every distinct mask in `reach`.
    reach_sets: BTreeMap<u64, BTreeSet<Val>>,
    /// `valence[id]`, precomputed from `reach` — the census becomes a
    /// flat array scan.
    valence: Vec<Valence>,
    /// The symmetry group the explored graph was quotiented by
    /// (`None` when exploration ran concretely). When present, every
    /// non-root state in the map is an orbit representative, and
    /// lookups of anything but the root canonicalize their argument.
    sym: Option<SymGroup>,
}

// Compile-time audit: a finished map can be shared read-only across
// threads; lazy decoding goes through `OnceLock`, not interior `Cell`s.
const _: () = {
    const fn is_send_sync<T: Send + Sync>() {}
    is_send_sync::<ValenceMap<system::process::direct::DirectConsensus>>();
};

impl<P: ProcessAutomaton> ValenceMap<P> {
    /// Explores every failure-free extension of `root` (at most
    /// `max_states` distinct states) and computes each state's
    /// reachable-decisions set. The graph is the concrete one
    /// ([`SymmetryMode::Off`]); [`ValenceMap::build_with_symmetry`]
    /// asks for the quotient.
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
        // Explore over the packed representation: successors are flat
        // component-id copies, and each distinct component state pays
        // its deep hash/clone exactly once in the sub-arenas.
        let packed = PackedSystem::new(sys);
        Self::build_in(sys, &packed, root, max_states, 1)
    }

    /// [`ValenceMap::build`] with an explicit symmetry mode:
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
    /// `threads` is ignored; exploration is sequential; removed with
    /// the next benchmark change.
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] if the reachable space exceeds
    /// `max_states` — all valence answers would be unsound.
    pub fn build_with_symmetry(
        sys: &CompleteSystem<P>,
        root: SystemState<P::State>,
        max_states: usize,
        _threads: usize,
        symmetry: SymmetryMode,
    ) -> Result<Self, Truncated> {
        let symmetry = crate::audit::effective_symmetry(sys, symmetry);
        let packed = PackedSystem::with_symmetry(sys, symmetry);
        Self::build_in(sys, &packed, root, max_states, 1)
    }

    /// [`ValenceMap::build`] over a caller-provided
    /// [`PackedSystem`]. The packed system's component sub-arenas and
    /// transition-effect cache persist across calls, so building
    /// several maps of the *same* system (the Lemma 4 walk builds
    /// `n + 1`) pays each distinct component transition once globally
    /// instead of once per map — after the first build the rest run
    /// almost entirely out of the cache.
    ///
    /// `threads` is ignored; exploration is sequential; removed with
    /// the next benchmark change.
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
        _threads: usize,
    ) -> Result<Self, Truncated> {
        let packed_root = packed.encode(&root);
        let graph = ExploredGraph::explore_with(
            packed,
            vec![packed_root],
            ExploreOptions {
                skip_self_loops: true,
                // Quotient exactly when the packed system's orbit
                // canonicalizer is active; roots stay raw either way.
                ..ExploreOptions::with_budget(max_states).with_symmetry(packed.symmetry_mode())
            },
        );
        if graph.stats().truncated() {
            return Err(Truncated {
                states_explored: graph.len(),
            });
        }
        let parts = graph.into_parts();
        let root_id = parts.roots[0];
        let edges = parts.edges;

        // Reverse CSR: one counting-sort transpose of the flat edge
        // arena (no per-state `Vec` allocations).
        let preds: Csr<StateId> =
            edges.reversed(|e| e.2.index(), |src, _| StateId::from_index(src));

        // Decisions are recorded in process states (Section 2.2.1), so
        // a state's own decisions are a function of its process
        // component ids: decide each distinct process component once,
        // intern the decided values into bit lanes, and OR the lanes of
        // a state's `n` process slots.
        let n = sys.process_count();
        let decoder = packed.decoder();
        let decisions = decoder.proc_table(|st| sys.process_automaton().decision(st));
        let universe: Vec<Val> = decisions
            .iter()
            .flatten()
            .cloned()
            .collect::<BTreeSet<Val>>()
            .into_iter()
            .collect();
        assert!(
            universe.len() <= ioa::fixpoint::MAX_LANES,
            "decision-value universe exceeds {} bit lanes",
            ioa::fixpoint::MAX_LANES
        );
        let lane: Vec<u64> = decisions
            .iter()
            .map(|d| {
                d.as_ref().map_or(0, |v| {
                    1 << universe.binary_search(v).expect("value interned")
                })
            })
            .collect();
        let mut reach: Vec<u64> = parts
            .store
            .states()
            .iter()
            .map(|ps| {
                ps.comps()[..n]
                    .iter()
                    .fold(0, |m, &pc| m | lane[pc as usize])
            })
            .collect();

        // Backward fixpoint: decided(s) = own decisions ∪ ⋃ decided(s').
        // The sweep runs on the shared bit-lane union engine
        // (`ioa::fixpoint::backward_union`, the same machinery the
        // property evaluator batches its backward analyses on),
        // propagating whole masks over the reverse edges. Set union is
        // confluent, so the result is identical to a per-state
        // `BTreeSet` worklist, element for element.
        ioa::fixpoint::backward_union(&preds, &mut reach);
        let reach_sets: BTreeMap<u64, BTreeSet<Val>> = reach
            .iter()
            .copied()
            .collect::<BTreeSet<u64>>()
            .into_iter()
            .map(|m| {
                let set = universe
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| m & (1 << j) != 0)
                    .map(|(_, v)| v.clone())
                    .collect();
                (m, set)
            })
            .collect();
        let valence = reach.iter().map(|m| classify(&reach_sets[m])).collect();

        // Only the root is decoded up front — and it is the caller's
        // own state, which the packed root decodes to.
        let decoded: Vec<OnceLock<Box<SystemState<P::State>>>> =
            parts.store.ids().map(|_| OnceLock::new()).collect();
        decoded[root_id.index()]
            .set(Box::new(root))
            .expect("fresh slot");
        Ok(ValenceMap {
            store: parts.store,
            decoder,
            decoded,
            root: root_id,
            edges,
            preds,
            parent: parts.parent,
            stats: parts.stats,
            decisions,
            reach,
            reach_sets,
            valence,
            sym: packed.symmetry_group(),
        })
    }

    /// The root state the map was built from.
    pub fn root(&self) -> &SystemState<P::State> {
        self.resolve(self.root)
    }

    /// The root's id.
    pub fn root_id(&self) -> StateId {
        self.root
    }

    /// The root state in packed form, a state of
    /// [`ValenceMap::packed_system`].
    pub fn packed_root(&self) -> &PackedState {
        self.store.resolve(self.root)
    }

    /// The packed system that built this map, resumed over the same
    /// component sub-arenas, effect cache and canonicalizer memo
    /// ([`PackedSystem::resume`]): its packed states are the map's, and
    /// every transition the exploration computed is served warm. `sys`
    /// must be the system the map was built from.
    pub fn packed_system<'s>(&self, sys: &'s CompleteSystem<P>) -> PackedSystem<'s, P> {
        PackedSystem::resume(sys, &self.decoder)
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
    /// sizes of every retained arena — the packed states with their
    /// component-id slots, one decode slot per state, both CSR edge
    /// arenas, the BFS tree, the reachable-decision masks and valence
    /// array, the per-component decision table and the per-mask
    /// decision sets. Heap owned *behind* those (the shared component
    /// sub-arenas, states decoded on demand, deep `Val`s) is
    /// deliberately not traversed: the figure is a stable, allocator-
    /// independent lower bound for regression tracking, not an RSS
    /// report.
    #[must_use]
    pub fn footprint(&self) -> (u64, u64) {
        use std::mem::size_of;
        let bytes = self
            .store
            .states()
            .iter()
            .map(|ps| size_of::<PackedState>() + size_of_val(ps.comps()))
            .sum::<usize>()
            + self.decoded.len() * size_of::<OnceLock<Box<SystemState<P::State>>>>()
            + self.edges.entry_count() * size_of::<(Task, Action, StateId)>()
            + self.preds.entry_count() * size_of::<StateId>()
            + self.parent.len() * size_of::<Option<(StateId, Task, Action)>>()
            + self.reach.len() * size_of::<u64>()
            + self.valence.len() * size_of::<Valence>()
            + self.decisions.len() * size_of::<Option<Val>>()
            + self
                .reach_sets
                .values()
                .map(|d| size_of::<u64>() + d.len() * size_of::<Val>())
                .sum::<usize>();
        (self.state_count() as u64, bytes as u64)
    }

    /// How many states have been decoded into deep [`SystemState`]s so
    /// far: the root, plus every id [`ValenceMap::resolve`] was asked
    /// for. Valence, decision, failure and safety queries by id never
    /// decode.
    #[must_use]
    pub fn decoded(&self) -> usize {
        self.decoded.iter().filter(|s| s.get().is_some()).count()
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

    /// The id of `s` within the explored space, if present. A packed
    /// lookup that interns nothing: a state with a component the
    /// exploration never produced answers `None` straight away. In a
    /// quotient map every non-root state is an orbit representative, so
    /// anything but the (raw) root is looked up by its canonical form —
    /// any concrete state whose orbit was explored resolves.
    pub fn id_of(&self, s: &SystemState<P::State>) -> Option<StateId> {
        let packed = match self.sym {
            None => self.decoder.lookup(s)?,
            Some(_) if s == self.root() => return Some(self.root),
            Some(group) => self.decoder.lookup(&canonical_system_state(group, s))?,
        };
        self.store.get(&packed)
    }

    /// [`ValenceMap::id_of`] for a packed state `ps` of `packed`, which
    /// must be this map's [`ValenceMap::packed_system`]: the raw root
    /// first, else one lookup of `ps` — of its canonical form, in a
    /// quotient map. Decodes nothing.
    pub fn packed_id_of(&self, packed: &PackedSystem<'_, P>, ps: &PackedState) -> Option<StateId> {
        match self.sym {
            None => self.store.get(ps),
            Some(_) if ps == self.packed_root() => Some(self.root),
            Some(_) => self.store.get(&packed.canonical_with_sym(ps).0),
        }
    }

    /// Resolve an id back to its state, decoding it on first use (once
    /// per id; later calls return the same state).
    #[inline]
    pub fn resolve(&self, id: StateId) -> &SystemState<P::State> {
        self.decoded[id.index()]
            .get_or_init(|| Box::new(self.decoder.decode(self.store.resolve(id))))
    }

    /// The decision each process has recorded at `id`, in process
    /// order, read from the packed process slots.
    pub fn decisions_id(&self, id: StateId) -> impl Iterator<Item = Option<&Val>> {
        self.decisions_of(self.store.resolve(id))
    }

    /// The decision each process has recorded in packed state `ps` of
    /// [`ValenceMap::packed_system`], in process order.
    fn decisions_of<'a>(&'a self, ps: &'a PackedState) -> impl Iterator<Item = Option<&'a Val>> {
        ps.comps()[..self.decoder.process_count()]
            .iter()
            .map(|&pc| self.decisions[pc as usize].as_ref())
    }

    /// The decision process `i` has recorded at `id`, read from its
    /// packed process slot. `None` when `P_i` is undecided — and for
    /// every `i` outside `0..n`, which names no process.
    #[inline]
    pub fn decision_id(&self, id: StateId, i: ProcId) -> Option<&Val> {
        let pc = *self.proc_slots(id).get(i.0)?;
        self.decisions[pc as usize].as_ref()
    }

    /// Whether some process has decided `v` at `id`.
    pub fn has_decided_id(&self, id: StateId, v: &Val) -> bool {
        self.has_decided_packed(self.store.resolve(id), v)
    }

    /// Whether some process has decided `v` in packed state `ps` of
    /// [`ValenceMap::packed_system`] — read from its process component
    /// ids, so `ps` need not be in the map, only reachable from its
    /// root: every process component of such a state was interned when
    /// the map was built (in a quotient map, a concrete state's process
    /// components are its representative's, permuted).
    pub fn has_decided_packed(&self, ps: &PackedState, v: &Val) -> bool {
        self.decisions_of(ps).any(|d| d == Some(v))
    }

    /// The process component ids of `id`, one per process.
    fn proc_slots(&self, id: StateId) -> &[u32] {
        &self.store.resolve(id).comps()[..self.decoder.process_count()]
    }

    /// The failed set at `id` as a bitmask: bit `i` set iff `fail_i`
    /// has occurred.
    #[inline]
    pub fn failed_mask_id(&self, id: StateId) -> u32 {
        self.store.resolve(id).failed_mask()
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
        &self.reach_sets[&self.reach[id.index()]]
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
    /// like the hook search, step [`ValenceMap::packed_system`] instead
    /// and use the map only as a valence and decision oracle
    /// ([`ValenceMap::packed_id_of`]).
    pub fn apply(&self, t: &Task, s: &SystemState<P::State>) -> Option<SystemState<P::State>> {
        let id = self.id_of(s)?;
        self.successors(id)
            .iter()
            .find(|(t2, _, _)| t2 == t)
            .map(|(_, _, s2)| self.resolve(*s2).clone())
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

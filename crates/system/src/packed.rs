//! Component-interned system states: the packed counterpart of
//! [`SystemState`] used by the exploration passes.
//!
//! A [`PackedState`] is a flat vector of dense component ids — one
//! [`CompId`] per process, one per service, plus the failed set as a
//! bitmask — with each distinct component state interned once in a
//! per-component sub-arena ([`Interner`]). Cloning a packed state is a
//! small `u32` copy, equality is a slice compare, and hashing touches a
//! few machine words instead of walking the `BTreeMap` buffer trees of
//! every service. Successor generation rebuilds **only the touched
//! component**: `CompleteSystem::succ_effects` already reports each
//! transition as a delta touching at most one process slot and one
//! service slot, so the packed automaton interns the (at most two)
//! fresh components and patches their id slots.
//!
//! # Bit-identical exploration
//!
//! [`PackedSystem`] implements [`Automaton`] directly, so the generic
//! explorer runs on it unchanged. The decoded graph is bit-identical
//! to exploring the deep representation because
//!
//! 1. the component-id encoding is injective *within a run*: two packed
//!    states are equal iff the decoded [`SystemState`]s are equal, and
//! 2. [`ioa::explore`] assigns [`ioa::StateId`]s in deterministic BFS
//!    discovery order — root order, then task order, then branch order
//!    — which depends only on the logical transition structure, never
//!    on the numeric values of the component ids.
//!
//! Fresh components may therefore be interned in any order (comp ids
//! are *not* deterministic across runs, e.g. on a warm, shared packed
//! system) without perturbing the explored graph; the differential
//! tests in `analysis` pin this down across truncation budgets.

use crate::action::{Action, Task};
use crate::build::{CompleteSystem, Delta, ProcStep, StateView, SystemState};
use crate::effect_cache::{BranchEntry, EffectCache, PopEntry, ProcStepEntry, Tables};
use crate::process::ProcessAutomaton;
use ioa::automaton::{expand_per_task, ActionKind, Automaton, CacheStats};
use ioa::canon::{Perm, SymGroup, SymmetryMode};
use ioa::store::{fx_hash, BuildFxHasher, CompId, Interner};
use services::SvcState;
use spec::{Inv, ProcId, Resp, SvcId};
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;
use std::sync::{Arc, RwLock, RwLockReadGuard};

/// The largest process count a [`PackedSystem`] supports: the failed
/// set is packed as a `u32` bitmask.
pub const MAX_PROCESSES: usize = 32;

/// A system state packed as component ids.
///
/// Layout: `comps[0..n]` are process component ids, `comps[n..n+m]` are
/// service component ids, and `comps[n+m]` is the failed-set bitmask
/// (bit `i` set iff `fail_i` has occurred). The ids index the
/// sub-arenas of the [`PackedSystem`] that produced the state; packed
/// states from different `PackedSystem` instances are not comparable.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PackedState {
    comps: Box<[u32]>,
}

impl PackedState {
    /// The raw component-id slots (processes, then services, then the
    /// failed bitmask) — exposed for size accounting and diagnostics.
    #[must_use]
    pub fn comps(&self) -> &[u32] {
        &self.comps
    }

    /// The failed-set bitmask slot (bit `i` set iff `fail_i` has
    /// occurred) — always the last slot.
    #[must_use]
    pub fn failed_mask(&self) -> u32 {
        self.comps[self.comps.len() - 1]
    }

    /// A copy with `slot` replaced by `id` — the id-splice a cached
    /// successor expansion reduces to.
    fn splice1(&self, slot: usize, id: u32) -> PackedState {
        let mut comps = self.comps.clone();
        comps[slot] = id;
        PackedState { comps }
    }

    /// A copy with two slots replaced (invoke/respond transitions touch
    /// one process and one service slot).
    fn splice2(&self, s1: usize, id1: u32, s2: usize, id2: u32) -> PackedState {
        let mut comps = self.comps.clone();
        comps[s1] = id1;
        comps[s2] = id2;
        PackedState { comps }
    }
}

/// The component-interned view of a [`CompleteSystem`]: the same
/// transition structure, over [`PackedState`]s.
///
/// The two sub-arenas grow monotonically behind [`RwLock`]s —
/// transition enumeration takes read locks, interning fresh components
/// takes write locks (always `procs` before `svcs`), so one
/// `PackedSystem` can be shared across threads. Each
/// [`Decoder`] handed out by [`PackedSystem::decoder`] shares the
/// arenas, the effect cache and the canonicalizer's memo by `Arc`, so
/// packed states stay decodable after the packed system itself is
/// gone, and [`PackedSystem::resume`] rebuilds a packed system over
/// the very same (warm) tables.
#[derive(Debug)]
pub struct PackedSystem<'s, P: ProcessAutomaton> {
    sys: &'s CompleteSystem<P>,
    n: usize,
    m: usize,
    procs: Arc<RwLock<Interner<P::State>>>,
    svcs: Arc<RwLock<Interner<SvcState>>>,
    /// The transition-effect cache (see [`crate::effect_cache`]).
    /// `None` disables memoization — the reference path the
    /// differential suite compares against.
    cache: Option<Arc<EffectCache>>,
    /// Orbit-canonicalization state (`None` when the system is not
    /// symmetric or the mode is [`SymmetryMode::Off`]).
    symmetry: Option<Arc<Symmetry>>,
}

/// The canonicalizer's lazy memo tables. The group itself is never
/// materialized — the signature-sort canonical form (see
/// [`PackedSystem::canonical_with_sym`]) computes the one sorting
/// permutation each state needs, so only the permutations that actually
/// occur as sort outcomes ever get a service remap table.
///
/// Permuting process ids in a packed state is cheap on the process
/// block — an id-symmetric family (see
/// [`ProcessAutomaton::id_symmetric`]) keeps per-process state contents
/// `ProcId`-free, so `π` only *moves slots* — but a service component
/// embeds per-endpoint buffers and a failed set keyed by `ProcId`, so
/// its image under `π` is a different component. `svc_maps[π][sc]`
/// memoizes the interned id of `π` applied to service component `sc`;
/// entries are filled on demand, and since interning is idempotent a
/// racing fill writes the identical id. Each permutation's table is
/// sparse: a walk over concrete states meets many permutations, each
/// applied to a handful of the service components.
#[derive(Debug, Default)]
struct Symmetry {
    /// `svc_maps[π][sc]` = interned id of `π · resolve(sc)`.
    svc_maps: RwLock<HashMap<Perm, HashMap<u32, u32, BuildFxHasher>>>,
}

/// A [`StateView`] over a packed state: holds read guards on both
/// sub-arenas and resolves component ids on demand.
struct PackedView<'a, PS> {
    procs: RwLockReadGuard<'a, Interner<PS>>,
    svcs: RwLockReadGuard<'a, Interner<SvcState>>,
    comps: &'a [u32],
    n: usize,
}

impl<PS: std::hash::Hash + Eq> StateView<PS> for PackedView<'_, PS> {
    fn proc(&self, i: ProcId) -> &PS {
        self.procs
            .resolve(CompId::from_index(self.comps[i.0] as usize))
    }

    fn svc(&self, c: SvcId) -> &SvcState {
        self.svcs
            .resolve(CompId::from_index(self.comps[self.n + c.0] as usize))
    }

    fn is_failed(&self, i: ProcId) -> bool {
        let mask = self.comps[self.comps.len() - 1];
        (mask >> i.0) & 1 == 1
    }
}

impl<'s, P: ProcessAutomaton> PackedSystem<'s, P> {
    /// Wraps `sys` with fresh (empty) component sub-arenas and the
    /// transition-effect cache enabled, exploring concretely
    /// ([`SymmetryMode::Off`]); use [`PackedSystem::with_symmetry`] to
    /// quotient.
    ///
    /// # Panics
    ///
    /// Panics if the system has more than 32 processes (the failed set
    /// is packed as a `u32` bitmask — far beyond the exhaustively
    /// explorable range anyway).
    pub fn new(sys: &'s CompleteSystem<P>) -> Self {
        Self::with_symmetry(sys, SymmetryMode::Off)
    }

    /// [`PackedSystem::new`] with an explicit symmetry mode. Under
    /// [`SymmetryMode::Full`] the canonicalizer activates only when the
    /// system actually *is* process-id symmetric — an id-symmetric
    /// process family and endpoint-symmetric services whose endpoint
    /// set is exactly all `n` processes (see
    /// [`PackedSystem::symmetric_system`]); otherwise
    /// [`PackedSystem::canonical_with_sym`] degenerates to the identity
    /// and exploration is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the system has more than 32 processes.
    pub fn with_symmetry(sys: &'s CompleteSystem<P>, mode: SymmetryMode) -> Self {
        let mut p = Self::new_uncached(sys);
        let globals = sys.services().iter().enumerate().flat_map(|(c, svc)| {
            svc.global_tasks()
                .into_iter()
                .map(move |g| (SvcId(c), g))
                .collect::<Vec<_>>()
        });
        p.cache = Some(Arc::new(EffectCache::new(p.n, p.m, globals)));
        if mode.reduces() && Self::symmetric_system(sys) {
            p.symmetry = Some(Arc::default());
        }
        p
    }

    /// The packed system `handle` was taken from, resumed over the same
    /// component sub-arenas, effect cache and canonicalizer memo: its
    /// packed states are interchangeable with the original's, and every
    /// transition effect and service remap the original computed is
    /// served warm. `sys` must be the system the original packed system
    /// wrapped.
    ///
    /// # Panics
    ///
    /// Panics if `sys` has a different process or service count than
    /// the handle's packed states.
    pub fn resume(sys: &'s CompleteSystem<P>, handle: &Decoder<P::State>) -> Self {
        assert_eq!(
            (sys.process_count(), sys.services().len()),
            (handle.n, handle.m),
            "resumed on a system of a different shape"
        );
        PackedSystem {
            sys,
            n: handle.n,
            m: handle.m,
            procs: Arc::clone(&handle.procs),
            svcs: Arc::clone(&handle.svcs),
            cache: handle.cache.clone(),
            symmetry: handle.symmetry.clone(),
        }
    }

    /// Whether `sys` satisfies the orbit canonicalizer's symmetry
    /// contract: at least two processes, an id-symmetric process family
    /// ([`ProcessAutomaton::id_symmetric`]), and every service both
    /// endpoint-symmetric ([`services::Service::endpoint_symmetric`])
    /// and connected to *all* `n` processes (a proper-subset endpoint
    /// set would make `π` move an endpoint out of `J`). The
    /// signature-sort canonical form never enumerates the group, so the
    /// only size bound is the packed representation's own 32-process
    /// failed-bitmask limit.
    #[must_use]
    pub fn symmetric_system(sys: &CompleteSystem<P>) -> bool {
        let n = sys.process_count();
        (2..=MAX_PROCESSES).contains(&n)
            && sys.process_automaton().id_symmetric()
            && sys.services().iter().all(|svc| {
                svc.endpoint_symmetric()
                    && svc.endpoints().len() == n
                    && svc.endpoints().iter().enumerate().all(|(k, p)| p.0 == k)
            })
    }

    /// Like [`PackedSystem::new`] but with effect memoization disabled:
    /// every `succ_all` re-runs `succ_effects`. This is the PR 3
    /// reference path the differential suite compares the cache
    /// against.
    ///
    /// # Panics
    ///
    /// Panics if the system has more than 32 processes.
    pub fn new_uncached(sys: &'s CompleteSystem<P>) -> Self {
        let n = sys.process_count();
        let m = sys.services().len();
        assert!(
            n <= MAX_PROCESSES,
            "packed failed-set bitmask supports at most {MAX_PROCESSES} processes, got {n}"
        );
        PackedSystem {
            sys,
            n,
            m,
            procs: Arc::default(),
            svcs: Arc::default(),
            cache: None,
            symmetry: None,
        }
    }

    /// The effective symmetry mode: what the orbit canonicalizer
    /// actually quotients by after the contract gate —
    /// [`SymmetryMode::Full`] when active, [`SymmetryMode::Off`]
    /// otherwise. Exploration options should take their `symmetry` from
    /// here so asymmetric systems never pay canonicalization overhead.
    #[must_use]
    pub fn symmetry_mode(&self) -> SymmetryMode {
        if self.symmetry.is_some() {
            SymmetryMode::Full
        } else {
            SymmetryMode::Off
        }
    }

    /// The symmetry group the canonicalizer quotients by, when active:
    /// a compact `S_n` descriptor — the group is never materialized.
    #[must_use]
    pub fn symmetry_group(&self) -> Option<SymGroup> {
        self.symmetry.as_ref().map(|_| SymGroup { n: self.n })
    }

    /// Whether the transition-effect cache is enabled.
    #[must_use]
    pub fn cached(&self) -> bool {
        self.cache.is_some()
    }

    /// The underlying deep system.
    #[must_use]
    pub fn system(&self) -> &'s CompleteSystem<P> {
        self.sys
    }

    /// Number of distinct process components interned so far.
    #[must_use]
    pub fn proc_components(&self) -> usize {
        self.procs.read().expect("interner lock poisoned").len()
    }

    /// Number of distinct service components interned so far.
    #[must_use]
    pub fn svc_components(&self) -> usize {
        self.svcs.read().expect("interner lock poisoned").len()
    }

    fn view<'a>(&'a self, ps: &'a PackedState) -> PackedView<'a, P::State> {
        PackedView {
            procs: self.procs.read().expect("interner lock poisoned"),
            svcs: self.svcs.read().expect("interner lock poisoned"),
            comps: &ps.comps,
            n: self.n,
        }
    }

    /// Packs a deep state, interning every component.
    pub fn encode(&self, s: &SystemState<P::State>) -> PackedState {
        assert_eq!(s.procs.len(), self.n, "state has wrong process count");
        assert_eq!(s.services.len(), self.m, "state has wrong service count");
        let mut procs = self.procs.write().expect("interner lock poisoned");
        let mut svcs = self.svcs.write().expect("interner lock poisoned");
        let mut comps = Vec::with_capacity(self.n + self.m + 1);
        for p in &s.procs {
            comps.push(id_bits(procs.intern(p.clone()).0));
        }
        for st in &s.services {
            comps.push(id_bits(svcs.intern(st.clone()).0));
        }
        let mut mask = 0u32;
        for i in &s.failed {
            assert!(i.0 < 32, "failed process {i} outside bitmask range");
            mask |= 1 << i.0;
        }
        comps.push(mask);
        PackedState {
            comps: comps.into_boxed_slice(),
        }
    }

    // ----- orbit canonicalization ------------------------------------

    /// The interned id of `π` applied to service component `sc`,
    /// memoized per `(π, sc)`. Takes the memo read lock, then (on a
    /// miss) the service-arena read guard to resolve, the write guard
    /// to intern, and finally the memo write lock — never two guards at
    /// once, so the lock order stays trivially acyclic.
    fn svc_remap(&self, p: &Perm, sc: u32) -> u32 {
        let sym = self.symmetry.as_ref().expect("symmetry enabled");
        if let Some(&v) = sym
            .svc_maps
            .read()
            .expect("svc remap lock poisoned")
            .get(p)
            .and_then(|memo| memo.get(&sc))
        {
            return v;
        }
        let permuted = {
            let svcs = self.svcs.read().expect("interner lock poisoned");
            permute_svc_state(p, svcs.resolve(CompId::from_index(sc as usize)))
        };
        let sc2 = id_bits(
            self.svcs
                .write()
                .expect("interner lock poisoned")
                .intern(permuted)
                .0,
        );
        // Racing writers store the identical id (interning is
        // idempotent within a run).
        sym.svc_maps
            .write()
            .expect("svc remap lock poisoned")
            .entry(p.clone())
            .or_default()
            .insert(sc, sc2);
        sc2
    }

    /// The canonical orbit representative of `ps` and the sorting
    /// permutation `σ` that produced it (`σ · ps = rep`): process
    /// indices stably sorted by their full local-view signature —
    /// process component key first, then the failed bit, then the
    /// per-service endpoint views. One `O(n log n)` sort instead of an
    /// `n!` candidate sweep. Both are identities when `ps` is already
    /// canonical or the canonicalizer is inactive. The deep mirror
    /// [`canonical_system_state_with`] makes exactly the same choices,
    /// keeping the two representations in lockstep.
    ///
    /// **Why a sort is canonical.** The signature captures *everything*
    /// in the state that distinguishes index `i` from index `j`: the
    /// process component, the failed bit, and each service's
    /// `⟨inv_buffer(i), resp_buffer(i), i ∈ failed⟩` triple (service
    /// values are endpoint-independent, so they are π-invariant and
    /// need not participate). Two indices with equal signatures are
    /// therefore genuinely interchangeable — transposing them is an
    /// automorphism fixing the state — so the stably-sorted arrangement
    /// depends only on the signature *multiset*, which is constant on
    /// the orbit. Every signature comparison is a fixed function of
    /// component values (cached fx hash, then `Ord`), never of arena
    /// ids, so representatives are bit-stable across runs.
    ///
    /// **Identity fast path.** When the process block's slot keys are
    /// strictly ascending the sort is the identity regardless of the
    /// finer signature components (strict ascent means no ties), so the
    /// common asymmetric-state case returns without resolving a single
    /// service component.
    #[must_use]
    pub fn canonical_with_sym(&self, ps: &PackedState) -> (PackedState, Perm) {
        if self.symmetry.is_none() {
            return (ps.clone(), Perm::identity(self.n));
        }
        {
            let procs = self.procs.read().expect("interner lock poisoned");
            if (1..self.n)
                .all(|j| cmp_proc_slot(&procs, ps.comps[j - 1], ps.comps[j]) == Ordering::Less)
            {
                return (ps.clone(), Perm::identity(self.n));
            }
        }
        let order = {
            let procs = self.procs.read().expect("interner lock poisoned");
            let svcs = self.svcs.read().expect("interner lock poisoned");
            let mask = ps.comps[self.n + self.m];
            let svc_states: Vec<&SvcState> = (0..self.m)
                .map(|c| svcs.resolve(CompId::from_index(ps.comps[self.n + c] as usize)))
                .collect();
            let mut order: Vec<usize> = (0..self.n).collect();
            order.sort_by(|&i, &j| {
                cmp_proc_slot(&procs, ps.comps[i], ps.comps[j])
                    .then_with(|| ((mask >> i) & 1).cmp(&((mask >> j) & 1)))
                    .then_with(|| {
                        svc_states
                            .iter()
                            .map(|st| cmp_endpoint_view(st, ProcId(i), ProcId(j)))
                            .find(|ord| *ord != Ordering::Equal)
                            .unwrap_or(Ordering::Equal)
                    })
            });
            order
        };
        // σ sends old index `order[j]` to slot `j`.
        let mut map = vec![0usize; self.n];
        for (j, &i) in order.iter().enumerate() {
            map[i] = j;
        }
        let sigma = Perm::from_map(map);
        if sigma.is_identity() {
            return (ps.clone(), sigma);
        }
        let mut comps = ps.comps.clone();
        for (j, &i) in order.iter().enumerate() {
            comps[j] = ps.comps[i];
        }
        for c in 0..self.m {
            comps[self.n + c] = self.svc_remap(&sigma, ps.comps[self.n + c]);
        }
        comps[self.n + self.m] = sigma.permute_mask(ps.comps[self.n + self.m]);
        (PackedState { comps }, sigma)
    }

    // ----- cached successor expansion --------------------------------
    //
    // `dispatch` is the one cached expansion of a task: it borrows
    // entries under the caller's read guard on the effect tables and
    // reports the first missing one as a `Missing` key. `expand_cached`
    // drives it — one read guard per state, across all its tasks — and
    // on a miss drops the guard, lets `fill` run the key's `miss_*`
    // helper, and retries the task.
    //
    // Each helper resolves exactly the component(s) its key names under
    // a short-lived read guard, computes the effect through the same
    // `CompleteSystem` entry points `succ_effects` uses (`proc_step`,
    // `enqueue_effect`, the `Service` methods, `on_response`), interns
    // the results, and publishes the entry under the tables' write
    // guard. Guards are never nested across arenas and never held
    // across the tables' lock, so the lock order is trivially acyclic.

    fn miss_step(&self, cache: &EffectCache, i: ProcId, pc: u32) {
        let step = {
            let procs = self.procs.read().expect("interner lock poisoned");
            self.sys
                .proc_step(i, procs.resolve(CompId::from_index(pc as usize)))
        };
        let entry = match step {
            ProcStep::Local(a, pst2) => {
                let mut procs = self.procs.write().expect("interner lock poisoned");
                ProcStepEntry::Local(a, id_bits(procs.intern(pst2).0))
            }
            ProcStep::Invoke(c, inv, pst2) => {
                let mut procs = self.procs.write().expect("interner lock poisoned");
                ProcStepEntry::Invoke(c, inv, id_bits(procs.intern(pst2).0))
            }
        };
        cache.write().step_put(i, pc, entry);
    }

    fn miss_enqueue(&self, cache: &EffectCache, i: ProcId, pc: u32, c: SvcId, inv: &Inv, sc: u32) {
        let st2 = {
            let svcs = self.svcs.read().expect("interner lock poisoned");
            self.sys
                .enqueue_effect(i, c, inv, svcs.resolve(CompId::from_index(sc as usize)))
        };
        let sc2 = id_bits(
            self.svcs
                .write()
                .expect("interner lock poisoned")
                .intern(st2)
                .0,
        );
        cache.write().enqueue_put(i, pc, sc, sc2);
    }

    fn miss_perform(&self, cache: &EffectCache, c: SvcId, i: ProcId, sc: u32) {
        let svc = &self.sys.services()[c.0];
        let (branches, dummy) = {
            let svcs = self.svcs.read().expect("interner lock poisoned");
            let st = svcs.resolve(CompId::from_index(sc as usize));
            (svc.perform_all(i, st), svc.dummy_perform_enabled(i, st))
        };
        let real = self.intern_svcs(branches);
        cache
            .write()
            .perform_put(c, i, sc, BranchEntry { real, dummy });
    }

    fn miss_compute(
        &self,
        cache: &EffectCache,
        c: SvcId,
        g: &spec::GlobalTaskId,
        k: usize,
        sc: u32,
    ) {
        let svc = &self.sys.services()[c.0];
        let (branches, dummy) = {
            let svcs = self.svcs.read().expect("interner lock poisoned");
            let st = svcs.resolve(CompId::from_index(sc as usize));
            (svc.compute_all(g, st), svc.dummy_compute_enabled(st))
        };
        let real = self.intern_svcs(branches);
        cache
            .write()
            .compute_put(k, sc, BranchEntry { real, dummy });
    }

    /// Interns a branch list's service components, in order.
    fn intern_svcs(&self, branches: Vec<SvcState>) -> Box<[u32]> {
        let mut w = self.svcs.write().expect("interner lock poisoned");
        branches
            .into_iter()
            .map(|st2| id_bits(w.intern(st2).0))
            .collect()
    }

    fn miss_pop(&self, cache: &EffectCache, c: SvcId, i: ProcId, sc: u32) {
        let svc = &self.sys.services()[c.0];
        let (popped, dummy) = {
            let svcs = self.svcs.read().expect("interner lock poisoned");
            let st = svcs.resolve(CompId::from_index(sc as usize));
            (svc.pop_response(i, st), svc.dummy_output_enabled(i, st))
        };
        let resp = popped.map(|(r, st2)| {
            let sc2 = id_bits(
                self.svcs
                    .write()
                    .expect("interner lock poisoned")
                    .intern(st2)
                    .0,
            );
            (r, sc2)
        });
        cache.write().pop_put(c, i, sc, PopEntry { resp, dummy });
    }

    fn miss_on_resp(
        &self,
        cache: &EffectCache,
        c: SvcId,
        i: ProcId,
        sc: u32,
        pc: u32,
        resp: &Resp,
    ) {
        let p2 = {
            let procs = self.procs.read().expect("interner lock poisoned");
            self.sys.process_automaton().on_response(
                i,
                procs.resolve(CompId::from_index(pc as usize)),
                c,
                resp,
            )
        };
        let pc2 = id_bits(
            self.procs
                .write()
                .expect("interner lock poisoned")
                .intern(p2)
                .0,
        );
        cache.write().on_resp_put(c, i, sc, pc, pc2);
    }

    /// Fills the entry `missing` names, through its `miss_*` helper.
    /// The caller holds no guard on the effect tables.
    fn fill(&self, cache: &EffectCache, missing: Missing) {
        match missing {
            Missing::Step(i, pc) => self.miss_step(cache, i, pc),
            Missing::Enqueue(i, pc, c, inv, sc) => self.miss_enqueue(cache, i, pc, c, &inv, sc),
            Missing::Perform(c, i, sc) => self.miss_perform(cache, c, i, sc),
            Missing::Compute(c, g, k, sc) => self.miss_compute(cache, c, &g, k, sc),
            Missing::Pop(c, i, sc) => self.miss_pop(cache, c, i, sc),
            Missing::OnResp(c, i, sc, pc, resp) => self.miss_on_resp(cache, c, i, sc, pc, &resp),
        }
    }

    /// Task `t`'s transitions from `ps`, read from entries borrowed out
    /// of `tables` and passed to `emit` in the canonical `succ_effects`
    /// order (real branches in δ order, then the dummy), so the
    /// explored graph is bit-identical to the uncached path — see the
    /// `effect_cache` module docs for why.
    ///
    /// With `skip_self_loops`, stutters are recognized without being
    /// built: a crashed process's step, a dummy branch, and a splice
    /// whose new ids equal the current slots are never emitted. Every
    /// lookup precedes the first `emit`, so a missing entry ends the
    /// attempt with nothing emitted and names the key to fill.
    fn dispatch(
        &self,
        cache: &EffectCache,
        tables: &Tables,
        t: &Task,
        ps: &PackedState,
        skip_self_loops: bool,
        mut emit: impl FnMut(Action, PackedState),
    ) -> Result<(), Missing> {
        // `keep(same)`: whether to emit a successor that equals `ps`
        // exactly when `same` holds.
        let keep = |same: bool| !(skip_self_loops && same);
        match t {
            Task::Proc(i) => {
                let i = *i;
                if (ps.failed_mask() >> i.0) & 1 == 1 {
                    if keep(true) {
                        emit(Action::ProcStep(i), ps.clone());
                    }
                    return Ok(());
                }
                let pc = ps.comps[i.0];
                match tables.step(i, pc).ok_or(Missing::Step(i, pc))? {
                    ProcStepEntry::Local(a, pc2) => {
                        if keep(*pc2 == pc) {
                            emit(a.clone(), ps.splice1(i.0, *pc2));
                        }
                    }
                    ProcStepEntry::Invoke(c, inv, pc2) => {
                        let slot = self.n + c.0;
                        let sc = ps.comps[slot];
                        let sc2 = tables
                            .enqueue(i, pc, sc)
                            .ok_or_else(|| Missing::Enqueue(i, pc, *c, inv.clone(), sc))?;
                        if keep(*pc2 == pc && sc2 == sc) {
                            emit(
                                Action::Invoke(i, *c, inv.clone()),
                                ps.splice2(i.0, *pc2, slot, sc2),
                            );
                        }
                    }
                }
            }
            Task::Perform(c, i) => {
                let slot = self.n + c.0;
                let sc = ps.comps[slot];
                let br = tables
                    .perform(*c, *i, sc)
                    .ok_or(Missing::Perform(*c, *i, sc))?;
                for &sc2 in br.real.iter() {
                    if keep(sc2 == sc) {
                        emit(Action::Perform(*c, *i), ps.splice1(slot, sc2));
                    }
                }
                if br.dummy && keep(true) {
                    emit(Action::DummyPerform(*c, *i), ps.clone());
                }
            }
            Task::Output(c, i) => {
                let slot = self.n + c.0;
                let sc = ps.comps[slot];
                let pop = tables.pop(*c, *i, sc).ok_or(Missing::Pop(*c, *i, sc))?;
                if let Some((resp, sc2)) = &pop.resp {
                    let pc = ps.comps[i.0];
                    let pc2 = tables
                        .on_resp(*c, *i, sc, pc)
                        .ok_or_else(|| Missing::OnResp(*c, *i, sc, pc, resp.clone()))?;
                    if keep(pc2 == pc && *sc2 == sc) {
                        emit(
                            Action::Respond(*c, *i, resp.clone()),
                            ps.splice2(i.0, pc2, slot, *sc2),
                        );
                    }
                }
                if pop.dummy && keep(true) {
                    emit(Action::DummyOutput(*c, *i), ps.clone());
                }
            }
            Task::Compute(c, g) => {
                let slot = self.n + c.0;
                let sc = ps.comps[slot];
                let k = cache.compute_index(*c, g);
                let br = tables
                    .compute(k, sc)
                    .ok_or_else(|| Missing::Compute(*c, g.clone(), k, sc))?;
                for &sc2 in br.real.iter() {
                    if keep(sc2 == sc) {
                        emit(Action::Compute(*c, g.clone()), ps.splice1(slot, sc2));
                    }
                }
                if br.dummy && keep(true) {
                    emit(Action::DummyCompute(*c, g.clone()), ps.clone());
                }
            }
        }
        Ok(())
    }

    /// The cached expansion of `tasks` from `ps`, in task order: one
    /// read guard on the effect tables for the whole state; a task that
    /// meets a missing entry drops it, fills the entry and retries.
    /// Each task counts one hit or one miss, in the cache's cumulative
    /// counters and in `stats`.
    fn expand_cached(
        &self,
        cache: &EffectCache,
        tasks: &[Task],
        ps: &PackedState,
        skip_self_loops: bool,
        mut emit: impl FnMut(&Task, Action, PackedState),
        stats: &mut CacheStats,
    ) {
        let mut tables = cache.read();
        let mut hits = 0;
        for t in tasks {
            let mut hit = true;
            while let Err(missing) =
                self.dispatch(cache, &tables, t, ps, skip_self_loops, |a, s2| {
                    emit(t, a, s2)
                })
            {
                hit = false;
                drop(tables);
                self.fill(cache, missing);
                tables = cache.read();
            }
            if hit {
                hits += 1;
            } else {
                cache.record_miss();
                stats.misses += 1;
            }
        }
        drop(tables);
        cache.record_hits(hits);
        stats.hits += hits;
    }

    /// Unpacks back into the deep representation (see
    /// [`Decoder::decode`]).
    pub fn decode(&self, ps: &PackedState) -> SystemState<P::State> {
        self.decoder().decode(ps)
    }

    /// A handle on this system's tables: decodes and looks up packed
    /// states without borrowing the packed system, and resumes it
    /// ([`PackedSystem::resume`]).
    #[must_use]
    pub fn decoder(&self) -> Decoder<P::State> {
        Decoder {
            n: self.n,
            m: self.m,
            procs: Arc::clone(&self.procs),
            svcs: Arc::clone(&self.svcs),
            cache: self.cache.clone(),
            symmetry: self.symmetry.clone(),
        }
    }
}

/// The effect-table entry a cached task expansion found missing: the
/// key its `miss_*` helper fills, with the invocation or response the
/// helper needs copied out of the entry that led to it.
enum Missing {
    /// `step[i][pc]`.
    Step(ProcId, u32),
    /// `enqueue[i][(pc, sc)]` of invoking `inv` on service `c`.
    Enqueue(ProcId, u32, SvcId, Inv, u32),
    /// `perform[(c, i)][sc]`.
    Perform(SvcId, ProcId, u32),
    /// `compute[k][sc]` of global task `g` (dense number `k`) of `c`.
    Compute(SvcId, spec::GlobalTaskId, usize, u32),
    /// `pop[(c, i)][sc]`.
    Pop(SvcId, ProcId, u32),
    /// `on_resp[(c, i)][(sc, pc)]` of delivering `resp`.
    OnResp(SvcId, ProcId, u32, u32, Resp),
}

/// A handle on a [`PackedSystem`]'s tables: the component sub-arenas,
/// the transition-effect cache and the canonicalizer's service-remap
/// memo.
///
/// The tables are append-only and shared by `Arc`, so a handle keeps
/// every packed state the system produced decodable — including after
/// the [`PackedSystem`] is dropped, and while it keeps interning fresh
/// components for later explorations — and
/// [`PackedSystem::resume`] steps from those states with every cached
/// effect and canonical form still warm.
#[derive(Debug)]
pub struct Decoder<PS> {
    n: usize,
    m: usize,
    procs: Arc<RwLock<Interner<PS>>>,
    svcs: Arc<RwLock<Interner<SvcState>>>,
    cache: Option<Arc<EffectCache>>,
    symmetry: Option<Arc<Symmetry>>,
}

impl<PS: Clone + Hash + Eq> Decoder<PS> {
    /// The number of process slots of every packed state.
    #[must_use]
    pub fn process_count(&self) -> usize {
        self.n
    }

    /// Unpacks back into the deep representation.
    #[must_use]
    pub fn decode(&self, ps: &PackedState) -> SystemState<PS> {
        let procs = self.procs.read().expect("interner lock poisoned");
        let svcs = self.svcs.read().expect("interner lock poisoned");
        let mask = ps.failed_mask();
        SystemState {
            procs: (0..self.n)
                .map(|i| {
                    procs
                        .resolve(CompId::from_index(ps.comps[i] as usize))
                        .clone()
                })
                .collect(),
            services: (0..self.m)
                .map(|c| {
                    svcs.resolve(CompId::from_index(ps.comps[self.n + c] as usize))
                        .clone()
                })
                .collect(),
            failed: (0..32u32)
                .filter(|i| (mask >> i) & 1 == 1)
                .map(|i| ProcId(i as usize))
                .collect::<BTreeSet<_>>(),
        }
    }

    /// The packed form of `s` without interning anything: `None` when
    /// some component of `s` was never interned (or `s` has the wrong
    /// shape), in which case no packed state of this system decodes to
    /// `s`. Otherwise the result equals what
    /// [`PackedSystem::encode`] would return.
    #[must_use]
    pub fn lookup(&self, s: &SystemState<PS>) -> Option<PackedState> {
        if s.procs.len() != self.n || s.services.len() != self.m {
            return None;
        }
        let procs = self.procs.read().expect("interner lock poisoned");
        let svcs = self.svcs.read().expect("interner lock poisoned");
        let mut comps = Vec::with_capacity(self.n + self.m + 1);
        for p in &s.procs {
            comps.push(id_bits(procs.get(p)?));
        }
        for st in &s.services {
            comps.push(id_bits(svcs.get(st)?));
        }
        let mut mask = 0u32;
        for i in &s.failed {
            if i.0 >= MAX_PROCESSES {
                return None;
            }
            mask |= 1 << i.0;
        }
        comps.push(mask);
        Some(PackedState {
            comps: comps.into_boxed_slice(),
        })
    }

    /// `f` applied to every process component interned so far, indexed
    /// by component id: entry `pc` answers for every packed state whose
    /// process slot holds `pc`.
    pub fn proc_table<T>(&self, f: impl FnMut(&PS) -> T) -> Vec<T> {
        self.procs
            .read()
            .expect("interner lock poisoned")
            .iter()
            .map(|(_, st)| st)
            .map(f)
            .collect()
    }
}

/// The stored `u32` of a component id.
fn id_bits(id: CompId) -> u32 {
    u32::try_from(id.index()).expect("component ids fit in u32 by construction")
}

/// One process-slot comparison by `(cached hash, value)` key. Equal
/// ids short-circuit — within one arena, equal ids iff equal values.
fn cmp_proc_slot<PS: Hash + Eq + Ord>(procs: &Interner<PS>, a: u32, b: u32) -> Ordering {
    if a == b {
        return Ordering::Equal;
    }
    let (x, y) = (
        CompId::from_index(a as usize),
        CompId::from_index(b as usize),
    );
    procs
        .hash_of(x)
        .cmp(&procs.hash_of(y))
        .then_with(|| procs.resolve(x).cmp(procs.resolve(y)))
}

/// `π` applied to a service state: per-endpoint buffers and the failed
/// set move to the permuted endpoints; the value is untouched (the
/// symmetry gate guarantees the sequential type is process-oblivious).
///
/// Builds the image field by field instead of going through
/// `SvcState::clone`, so the deep-clone census
/// ([`services::state::clones`]) keeps counting only semantic
/// successor clones.
#[must_use]
pub fn permute_svc_state(p: &Perm, st: &SvcState) -> SvcState {
    let pi = |i: &ProcId| ProcId(p.apply(i.0));
    SvcState {
        val: st.val.clone(),
        inv_buf: st.inv_buf.iter().map(|(i, q)| (pi(i), q.clone())).collect(),
        resp_buf: st
            .resp_buf
            .iter()
            .map(|(i, q)| (pi(i), q.clone()))
            .collect(),
        failed: st.failed.iter().map(pi).collect(),
    }
}

/// `π` applied to an action label: every `ProcId` field is remapped,
/// services stay put (the group permutes processes only).
#[must_use]
pub fn permute_action(p: &Perm, a: &Action) -> Action {
    let pi = |i: ProcId| ProcId(p.apply(i.0));
    match a {
        Action::Init(i, v) => Action::Init(pi(*i), v.clone()),
        Action::Fail(i) => Action::Fail(pi(*i)),
        Action::Decide(i, v) => Action::Decide(pi(*i), v.clone()),
        Action::Output(i, r) => Action::Output(pi(*i), r.clone()),
        Action::Invoke(i, c, inv) => Action::Invoke(pi(*i), *c, inv.clone()),
        Action::ProcStep(i) => Action::ProcStep(pi(*i)),
        Action::Perform(c, i) => Action::Perform(*c, pi(*i)),
        Action::Respond(c, i, r) => Action::Respond(*c, pi(*i), r.clone()),
        Action::Compute(c, g) => Action::Compute(*c, g.clone()),
        Action::DummyPerform(c, i) => Action::DummyPerform(*c, pi(*i)),
        Action::DummyOutput(c, i) => Action::DummyOutput(*c, pi(*i)),
        Action::DummyCompute(c, g) => Action::DummyCompute(*c, g.clone()),
    }
}

/// `π` applied to a task: process and endpoint tasks move with their
/// process, compute tasks are fixed points.
#[must_use]
pub fn permute_task(p: &Perm, t: &Task) -> Task {
    let pi = |i: ProcId| ProcId(p.apply(i.0));
    match t {
        Task::Proc(i) => Task::Proc(pi(*i)),
        Task::Perform(c, i) => Task::Perform(*c, pi(*i)),
        Task::Output(c, i) => Task::Output(*c, pi(*i)),
        Task::Compute(c, g) => Task::Compute(*c, g.clone()),
    }
}

/// `π` applied to a deep system state: process states move to permuted
/// slots (their contents are `ProcId`-free for id-symmetric families),
/// service states are remapped endpoint-wise, and the failed set is
/// relabeled.
#[must_use]
pub fn permute_system_state<PS: Clone>(p: &Perm, s: &SystemState<PS>) -> SystemState<PS> {
    let mut procs = s.procs.clone();
    for (i, st) in s.procs.iter().enumerate() {
        procs[p.apply(i)] = st.clone();
    }
    SystemState {
        procs,
        services: s
            .services
            .iter()
            .map(|st| permute_svc_state(p, st))
            .collect(),
        failed: s.failed.iter().map(|i| ProcId(p.apply(i.0))).collect(),
    }
}

/// The failed set as the packed `u32` bitmask (bit `i` set iff `Pi`
/// failed), the layout [`PackedState`] stores.
fn failed_mask(failed: &BTreeSet<ProcId>) -> u32 {
    failed.iter().fold(0u32, |m, i| m | 1 << i.0)
}

/// One service's view of endpoint `i` versus endpoint `j` — the
/// per-endpoint signature component of the canonical sort: failed-set
/// membership first, then the invocation buffer, then the response
/// buffer, all by value. The service *value* is endpoint-independent
/// and never participates.
fn cmp_endpoint_view(st: &SvcState, i: ProcId, j: ProcId) -> Ordering {
    st.failed
        .contains(&i)
        .cmp(&st.failed.contains(&j))
        .then_with(|| st.inv_buffer(i).cmp(st.inv_buffer(j)))
        .then_with(|| st.resp_buffer(i).cmp(st.resp_buffer(j)))
}

/// The canonical orbit representative of a deep system state under the
/// group `group`, with the permutation `σ` that produced it
/// (`σ · s = rep`): process indices stably sorted by the same full
/// local-view signature the packed
/// [`PackedSystem::canonical_with_sym`] sorts by — `(fx hash, value)`
/// of the process state, then the failed bit, then each service's
/// endpoint view (the private `cmp_endpoint_view`).
///
/// [`Interner::hash_of`] caches precisely `fx_hash` of the component
/// value, so the deep and packed canonicalizers always agree (pinned
/// by the differential tests).
#[must_use]
pub fn canonical_system_state_with<PS: Clone + Hash + Ord>(
    group: SymGroup,
    s: &SystemState<PS>,
) -> (SystemState<PS>, Perm) {
    let n = group.n;
    assert_eq!(s.procs.len(), n, "state has wrong process count");
    let mask = failed_mask(&s.failed);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| {
        let (x, y) = (&s.procs[i], &s.procs[j]);
        fx_hash(x)
            .cmp(&fx_hash(y))
            .then_with(|| x.cmp(y))
            .then_with(|| ((mask >> i) & 1).cmp(&((mask >> j) & 1)))
            .then_with(|| {
                s.services
                    .iter()
                    .map(|st| cmp_endpoint_view(st, ProcId(i), ProcId(j)))
                    .find(|ord| *ord != Ordering::Equal)
                    .unwrap_or(Ordering::Equal)
            })
    });
    let mut map = vec![0usize; n];
    for (j, &i) in order.iter().enumerate() {
        map[i] = j;
    }
    let sigma = Perm::from_map(map);
    if sigma.is_identity() {
        return (s.clone(), sigma);
    }
    (permute_system_state(&sigma, s), sigma)
}

/// [`canonical_system_state_with`] without the permutation.
#[must_use]
pub fn canonical_system_state<PS: Clone + Hash + Ord>(
    group: SymGroup,
    s: &SystemState<PS>,
) -> SystemState<PS> {
    canonical_system_state_with(group, s).0
}

/// The size of the orbit of `s` under `group` — the number of distinct
/// concrete states one interned representative stands for.
///
/// The `S_n` stabilizer of a state is exactly the product of symmetric
/// groups over its equal-signature process classes (two processes with
/// identical full local-view signatures — state, failed bit, every
/// service's endpoint view — are literally interchangeable), so the
/// orbit size is the multinomial `n! / ∏ |class|!`.
#[must_use]
pub fn orbit_size<PS: Eq>(group: SymGroup, s: &SystemState<PS>) -> u64 {
    let n = group.n;
    assert_eq!(s.procs.len(), n, "state has wrong process count");
    let mask = failed_mask(&s.failed);
    let sig_eq = |i: usize, j: usize| {
        s.procs[i] == s.procs[j]
            && (mask >> i) & 1 == (mask >> j) & 1
            && s.services
                .iter()
                .all(|st| cmp_endpoint_view(st, ProcId(i), ProcId(j)) == Ordering::Equal)
    };
    let mut reps: Vec<usize> = Vec::new();
    let mut class_sizes: Vec<u64> = Vec::new();
    for i in 0..n {
        match reps.iter().position(|&j| sig_eq(i, j)) {
            Some(k) => class_sizes[k] += 1,
            None => {
                reps.push(i);
                class_sizes.push(1);
            }
        }
    }
    let fact = |k: u64| (1..=k).product::<u64>();
    class_sizes
        .iter()
        .fold(fact(n as u64), |acc, &c| acc / fact(c))
}

impl<P: ProcessAutomaton> Automaton for PackedSystem<'_, P> {
    type State = PackedState;
    type Action = Action;
    type Task = Task;

    fn initial_states(&self) -> Vec<PackedState> {
        self.sys
            .initial_states()
            .iter()
            .map(|s| self.encode(s))
            .collect()
    }

    fn tasks(&self) -> Vec<Task> {
        self.sys.tasks()
    }

    fn succ_all(&self, t: &Task, ps: &PackedState) -> Vec<(Action, PackedState)> {
        if let Some(cache) = &self.cache {
            let mut out = Vec::new();
            self.expand_cached(
                cache,
                std::slice::from_ref(t),
                ps,
                false,
                |_, a, s2| out.push((a, s2)),
                &mut CacheStats::default(),
            );
            return out;
        }
        // Uncached reference path: enumerate under read guards, then
        // drop them before taking the write locks to intern whatever
        // components the deltas touched.
        let effects = {
            let view = self.view(ps);
            self.sys.succ_effects(t, &view)
        };
        if effects.is_empty() {
            return Vec::new();
        }
        let mut procs = self.procs.write().expect("interner lock poisoned");
        let mut svcs = self.svcs.write().expect("interner lock poisoned");
        effects
            .into_iter()
            .map(|(a, d)| {
                let mut comps = ps.comps.clone();
                match d {
                    Delta::Stutter => {}
                    Delta::Proc(i, p) => comps[i.0] = id_bits(procs.intern(p).0),
                    Delta::Svc(c, st) => comps[self.n + c.0] = id_bits(svcs.intern(st).0),
                    Delta::ProcSvc(i, p, c, st) => {
                        comps[i.0] = id_bits(procs.intern(p).0);
                        comps[self.n + c.0] = id_bits(svcs.intern(st).0);
                    }
                }
                (a, PackedState { comps })
            })
            .collect()
    }

    fn applicable(&self, t: &Task, ps: &PackedState) -> bool {
        let view = self.view(ps);
        self.sys.applicable_view(t, &view)
    }

    fn apply_input(&self, ps: &PackedState, a: &Action) -> Option<PackedState> {
        // Inputs (init/fail) are applied outside the hot exploration
        // loop; round-tripping through the deep representation keeps
        // the semantics in one place.
        let s2 = self.sys.apply_input(&self.decode(ps), a)?;
        Some(self.encode(&s2))
    }

    fn kind(&self, a: &Action) -> ActionKind {
        self.sys.kind(a)
    }

    fn action_owner(&self, a: &Action) -> Option<Task> {
        self.sys.action_owner(a)
    }

    fn action_vocabulary(&self) -> Vec<Action> {
        self.sys.action_vocabulary()
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_deref().map(EffectCache::stats)
    }

    fn expand(
        &self,
        tasks: &[Task],
        s: &PackedState,
        skip_self_loops: bool,
        out: &mut Vec<(Task, Action, PackedState)>,
        stats: &mut CacheStats,
    ) {
        let Some(cache) = &self.cache else {
            return expand_per_task(self, tasks, s, skip_self_loops, out);
        };
        self.expand_cached(
            cache,
            tasks,
            s,
            skip_self_loops,
            |t, a, s2| out.push((t.clone(), a, s2)),
            stats,
        );
    }

    fn canonical(&self, s: PackedState) -> PackedState {
        if self.symmetry.is_none() {
            return s;
        }
        self.canonical_with_sym(&s).0
    }
}

// Compile-time audit: the packed system satisfies the `Automaton`
// bounds and stays shareable across threads.
const _: () = {
    const fn is_send_sync<T: Send + Sync>() {}
    is_send_sync::<PackedState>();
    is_send_sync::<PackedSystem<'_, crate::process::direct::DirectConsensus>>();
    is_send_sync::<Decoder<<crate::process::direct::DirectConsensus as ProcessAutomaton>::State>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::direct::DirectConsensus;
    use services::atomic::CanonicalAtomicObject;
    use spec::seq::BinaryConsensus;
    use spec::Val;
    use std::sync::Arc;

    fn direct_system(n: usize, f: usize) -> CompleteSystem<DirectConsensus> {
        let endpoints: Vec<ProcId> = (0..n).map(ProcId).collect();
        let obj = CanonicalAtomicObject::new(Arc::new(BinaryConsensus), endpoints, f);
        CompleteSystem::new(DirectConsensus::new(SvcId(0)), n, vec![Arc::new(obj)])
    }

    /// Drive both representations through the same input prefix.
    fn paired_state(
        sys: &CompleteSystem<DirectConsensus>,
        packed: &PackedSystem<'_, DirectConsensus>,
    ) -> (
        SystemState<<DirectConsensus as ProcessAutomaton>::State>,
        PackedState,
    ) {
        let mut s = sys.single_initial_state();
        s = sys.init(&s, ProcId(0), Val::Int(0));
        s = sys.init(&s, ProcId(1), Val::Int(1));
        let ps = packed.encode(&s);
        (s, ps)
    }

    /// The six elements of S₃, identity first.
    fn s3() -> Vec<Perm> {
        [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ]
        .into_iter()
        .map(Perm::from_map)
        .collect()
    }

    /// The transposition of `a` and `b` in `S_n`.
    fn transposition(n: usize, a: usize, b: usize) -> Perm {
        Perm::from_map((0..n).map(|j| {
            if j == a {
                b
            } else if j == b {
                a
            } else {
                j
            }
        }))
    }

    #[test]
    fn encode_decode_roundtrips() {
        let sys = direct_system(3, 1);
        let packed = PackedSystem::new(&sys);
        let mut s = sys.single_initial_state();
        s = sys.init(&s, ProcId(2), Val::Int(1));
        let s = sys.fail(&s, ProcId(0));
        let ps = packed.encode(&s);
        assert_eq!(packed.decode(&ps), s);
        // Re-encoding the same state reuses every component id.
        assert_eq!(packed.encode(&s), ps);
    }

    #[test]
    fn decoder_lookup_matches_encode_and_never_interns() {
        let sys = direct_system(3, 1);
        let packed = PackedSystem::new(&sys);
        let decoder = packed.decoder();
        let s = sys.init(&sys.single_initial_state(), ProcId(2), Val::Int(1));
        let s = sys.fail(&s, ProcId(0));
        let ps = packed.encode(&s);
        assert_eq!(decoder.lookup(&s), Some(ps.clone()));
        assert_eq!(decoder.decode(&ps), s);
        // A state with a never-interned process component has no packed
        // form, and asking does not intern it.
        let fresh = sys.init(&s, ProcId(1), Val::Int(0));
        let before = packed.proc_components();
        assert_eq!(decoder.lookup(&fresh), None);
        assert_eq!(packed.proc_components(), before);
        // The handle outlives the packed system that made it.
        drop(packed);
        assert_eq!(decoder.decode(&ps), s);
        assert_eq!(decoder.proc_table(|_| ()).len(), before);
    }

    #[test]
    fn packed_successors_decode_to_deep_successors() {
        let sys = direct_system(2, 0);
        let packed = PackedSystem::new(&sys);
        let (s, ps) = paired_state(&sys, &packed);
        for t in sys.tasks() {
            let deep = sys.succ_all(&t, &s);
            let pk = packed.succ_all(&t, &ps);
            assert_eq!(deep.len(), pk.len(), "branch count for {t:?}");
            for ((a1, s2), (a2, ps2)) in deep.iter().zip(&pk) {
                assert_eq!(a1, a2, "action order for {t:?}");
                assert_eq!(s2, &packed.decode(ps2), "successor for {t:?}");
            }
        }
    }

    #[test]
    fn packed_applicable_matches_deep_enablement() {
        let sys = direct_system(2, 0);
        let packed = PackedSystem::new(&sys);
        let (s, ps) = paired_state(&sys, &packed);
        for t in sys.tasks() {
            assert_eq!(
                packed.applicable(&t, &ps),
                !sys.succ_all(&t, &s).is_empty(),
                "enablement for {t:?}"
            );
        }
    }

    #[test]
    fn successors_share_untouched_components() {
        let sys = direct_system(3, 1);
        let packed = PackedSystem::new(&sys);
        let s = sys.single_initial_state();
        let s = sys.init(&s, ProcId(0), Val::Int(1));
        let ps = packed.encode(&s);
        // P0's invoke touches P0's slot and the object's slot; P1, P2
        // and the mask must be shared verbatim.
        let (_, ps2) = packed
            .succ_all(&Task::Proc(ProcId(0)), &ps)
            .into_iter()
            .next()
            .expect("invoke branch");
        assert_ne!(ps.comps()[0], ps2.comps()[0]);
        assert_eq!(ps.comps()[1], ps2.comps()[1]);
        assert_eq!(ps.comps()[2], ps2.comps()[2]);
        assert_eq!(ps.comps()[4], ps2.comps()[4]);
    }

    #[test]
    fn fail_input_sets_mask_bit() {
        let sys = direct_system(2, 1);
        let packed = PackedSystem::new(&sys);
        let ps = packed.encode(&sys.single_initial_state());
        let ps2 = packed
            .apply_input(&ps, &Action::Fail(ProcId(1)))
            .expect("fail is an input");
        assert_eq!(ps2.comps()[3] & 0b10, 0b10);
        assert!(packed.decode(&ps2).failed.contains(&ProcId(1)));
    }

    #[test]
    fn symmetry_gate_accepts_direct_consensus_only_when_asked() {
        let sys = direct_system(3, 1);
        assert!(PackedSystem::symmetric_system(&sys));
        let full = PackedSystem::with_symmetry(&sys, SymmetryMode::Full);
        assert_eq!(full.symmetry_mode(), SymmetryMode::Full);
        assert_eq!(full.symmetry_group(), Some(SymGroup { n: 3 }));
        let off = PackedSystem::with_symmetry(&sys, SymmetryMode::Off);
        assert_eq!(off.symmetry_mode(), SymmetryMode::Off);
        assert!(off.symmetry_group().is_none());
    }

    #[test]
    fn gate_rejects_partial_endpoint_sets() {
        // Object only on {P0, P1} of a 3-process system: a permutation
        // moving P2 into the endpoint set would be unsound.
        let obj = CanonicalAtomicObject::new(Arc::new(BinaryConsensus), [ProcId(0), ProcId(1)], 0);
        let sys = CompleteSystem::new(DirectConsensus::new(SvcId(0)), 3, vec![Arc::new(obj)]);
        assert!(!PackedSystem::symmetric_system(&sys));
        let p = PackedSystem::with_symmetry(&sys, SymmetryMode::Full);
        assert_eq!(p.symmetry_mode(), SymmetryMode::Off);
    }

    #[test]
    fn canonicalization_collapses_orbits_and_matches_the_deep_mirror() {
        let sys = direct_system(3, 1);
        let packed = PackedSystem::with_symmetry(&sys, SymmetryMode::Full);
        let group = packed.symmetry_group().expect("active");
        let perms = s3();
        // A state with asymmetric content: distinct inputs, one
        // failure, and a pending invocation in the object.
        let mut s = sys.single_initial_state();
        s = sys.init(&s, ProcId(0), Val::Int(1));
        s = sys.init(&s, ProcId(1), Val::Int(0));
        s = sys.fail(&s, ProcId(2));
        let (_, s) = sys
            .succ_all(&Task::Proc(ProcId(0)), &s)
            .into_iter()
            .next()
            .expect("invoke step");
        let deep_rep = canonical_system_state(group, &s);
        for p in &perms {
            let s2 = permute_system_state(p, &s);
            let (rep, sigma) = packed.canonical_with_sym(&packed.encode(&s2));
            // Every orbit member canonicalizes to the same packed rep,
            // which decodes to the deep mirror's rep.
            assert_eq!(packed.decode(&rep), deep_rep, "perm {p:?}");
            // The returned σ really maps the input to the rep.
            assert_eq!(permute_system_state(&sigma, &s2), deep_rep);
            // Idempotence.
            let (rep2, sigma2) = packed.canonical_with_sym(&rep);
            assert_eq!(rep2, rep);
            assert!(sigma2.is_identity());
        }
        // Deep mirror agrees with itself under permutation too.
        for p in &perms {
            let s2 = permute_system_state(p, &s);
            let (rep, sigma) = canonical_system_state_with(group, &s2);
            assert_eq!(rep, deep_rep);
            assert_eq!(permute_system_state(&sigma, &s2), deep_rep);
        }
    }

    #[test]
    fn canonicalization_handles_nine_processes_without_enumeration() {
        // Regression: the brute-force canonicalizer materialized all n!
        // permutations and panicked past n = 8. The signature sort has
        // no such bound — an n = 9 state canonicalizes fine.
        let sys = direct_system(9, 1);
        assert!(PackedSystem::symmetric_system(&sys));
        let packed = PackedSystem::with_symmetry(&sys, SymmetryMode::Full);
        assert_eq!(packed.symmetry_mode(), SymmetryMode::Full);
        let mut s = sys.single_initial_state();
        s = sys.init(&s, ProcId(7), Val::Int(1));
        s = sys.init(&s, ProcId(2), Val::Int(0));
        s = sys.fail(&s, ProcId(5));
        let (rep, sigma) = packed.canonical_with_sym(&packed.encode(&s));
        assert_eq!(permute_system_state(&sigma, &s), packed.decode(&rep));
        // A transposed twin lands on the same representative.
        let t = Perm::from_map([0, 1, 7, 3, 4, 5, 6, 2, 8]);
        let (rep2, _) = packed.canonical_with_sym(&packed.encode(&permute_system_state(&t, &s)));
        assert_eq!(rep, rep2);
    }

    #[test]
    fn canonicalized_successors_are_equivariant() {
        // succ(π·s) = π·succ(s): expanding any orbit member and
        // canonicalizing the successors yields the same successor set.
        let sys = direct_system(3, 1);
        let packed = PackedSystem::with_symmetry(&sys, SymmetryMode::Full);
        let perms = s3();
        let mut s = sys.single_initial_state();
        s = sys.init(&s, ProcId(0), Val::Int(1));
        s = sys.init(&s, ProcId(1), Val::Int(0));
        let base: Vec<_> = sys
            .tasks()
            .iter()
            .flat_map(|t| packed.succ_all(t, &packed.encode(&s)))
            .map(|(_, ps2)| packed.decode(&packed.canonical(ps2)))
            .collect();
        for p in &perms {
            let s2 = permute_system_state(p, &s);
            let moved: Vec<_> = sys
                .tasks()
                .iter()
                .flat_map(|t| packed.succ_all(t, &packed.encode(&s2)))
                .map(|(_, ps2)| packed.decode(&packed.canonical(ps2)))
                .collect();
            let a: std::collections::BTreeSet<_> = base.iter().collect();
            let b: std::collections::BTreeSet<_> = moved.iter().collect();
            assert_eq!(a, b, "perm {p:?}");
        }
    }

    #[test]
    fn resumed_system_steps_warm_over_the_same_tables() {
        let sys = direct_system(3, 1);
        let packed = PackedSystem::with_symmetry(&sys, SymmetryMode::Full);
        let (s, ps) = paired_state(&sys, &packed);
        let tasks = sys.tasks();
        let succs: Vec<_> = tasks.iter().map(|t| packed.succ_all(t, &ps)).collect();
        let (rep, sigma) = packed.canonical_with_sym(&ps);
        let handle = packed.decoder();
        drop(packed);

        let resumed = PackedSystem::resume(&sys, &handle);
        assert_eq!(resumed.symmetry_mode(), SymmetryMode::Full);
        let before = resumed.cache_stats().expect("the cache came along");
        let again: Vec<_> = tasks.iter().map(|t| resumed.succ_all(t, &ps)).collect();
        assert_eq!(again, succs, "same packed successors, same component ids");
        let warm = resumed.cache_stats().expect("cache").since(&before);
        assert_eq!((warm.hits, warm.misses), (tasks.len() as u64, 0));
        assert_eq!(resumed.canonical_with_sym(&ps), (rep, sigma));
        assert_eq!(resumed.decode(&ps), s);
    }

    #[test]
    fn remap_memo_holds_only_the_pairs_used() {
        let sys = direct_system(4, 2);
        let packed = PackedSystem::with_symmetry(&sys, SymmetryMode::Full);
        let mut s = sys.single_initial_state();
        s = sys.init(&s, ProcId(3), Val::Int(1));
        let (_, s) = sys
            .succ_all(&Task::Proc(ProcId(3)), &s)
            .into_iter()
            .next()
            .expect("invoke step");
        // An orbit member that is not its own representative: some
        // transposition moves P3's pending invocation to another slot.
        let moved = (0..3)
            .map(|i| transposition(4, i, 3))
            .map(|p| packed.encode(&permute_system_state(&p, &s)))
            .find(|ps| packed.canonical_with_sym(ps).0 != *ps)
            .expect("the orbit has more than one member");
        let memo = packed.symmetry.as_ref().expect("active");
        memo.svc_maps.write().expect("lock").clear();
        let (_, sigma) = packed.canonical_with_sym(&moved);
        let maps = memo.svc_maps.read().expect("lock");
        // One permutation, applied to the one service component.
        assert_eq!(maps.len(), 1);
        assert_eq!(maps[&sigma].len(), 1);
    }

    #[test]
    #[should_panic(expected = "resumed on a system of a different shape")]
    fn resume_rejects_a_differently_shaped_system() {
        let small = direct_system(2, 0);
        let handle = PackedSystem::new(&small).decoder();
        let _ = PackedSystem::resume(&direct_system(3, 1), &handle);
    }

    #[test]
    #[should_panic(expected = "at most 32 processes")]
    fn rejects_unpackable_process_counts() {
        let endpoints: Vec<ProcId> = (0..33).map(ProcId).collect();
        let obj = CanonicalAtomicObject::new(Arc::new(BinaryConsensus), endpoints, 32);
        let sys = CompleteSystem::new(DirectConsensus::new(SvcId(0)), 33, vec![Arc::new(obj)]);
        let _ = PackedSystem::new(&sys);
    }
}

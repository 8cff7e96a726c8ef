//! Dense state interning: the arena underneath the exploration core.
//!
//! Every pass in the paper reproduction — reachability (Section 2.1.1
//! executions), the valence census of G(C) (Section 3.3), the Lemma 4
//! bivalent-initialization scan, the Lemma 5 hook search — walks the
//! same reachable state space. Keying frontiers, seen-sets, parent maps
//! and valence tables directly on full `SystemState` clones pays a deep
//! clone + deep hash *per visit*; interning pays it once per *distinct
//! state* and hands every pass a dense [`StateId`] (`u32`) instead.
//! Downstream tables then become flat `Vec`s indexed by id: no hashing,
//! no re-cloning, cache-friendly scans.
//!
//! The arena is append-only: ids are handed out in first-visit (BFS
//! discovery) order and are never invalidated, so an id minted during
//! exploration stays valid for the lifetime of the store — the property
//! that lets `analysis` share one [`ExploredGraph`](crate::explore::ExploredGraph)
//! across valence classification, hook extraction and witness scans.
//!
//! Hashing is a hand-rolled FxHash-style multiply-xor (the rustc hasher
//! lineage): not cryptographic, extremely fast on the short word
//! streams produced by `#[derive(Hash)]` state types, and fully
//! deterministic (no per-process SipHash keys), which keeps exploration
//! order reproducible across runs.

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Multiplier from the FxHash family (64-bit): a single odd constant
/// with good bit dispersion under `rotate ^ mul`.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style hasher: `hash = (hash.rotate_left(5) ^ word) * SEED`
/// per input word. Deterministic, no external dependency, and roughly
/// an order of magnitude cheaper than SipHash on small keys.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            self.add_word(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = [0u8; 8];
            word[..rem.len()].copy_from_slice(rem);
            self.add_word(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_word(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_word(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_word(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_word(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_word(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`], usable directly with
/// `HashMap::with_hasher`.
pub type BuildFxHasher = BuildHasherDefault<FxHasher>;

/// Hash a single value with the deterministic Fx hasher.
#[must_use]
pub fn fx_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// A dense identifier for an interned state.
///
/// Ids are handed out consecutively from 0 in discovery order, so they
/// double as indices into per-state side tables (`Vec<Valence>`,
/// `Vec<Vec<Edge>>`, …). `u32` bounds the arena at ~4.29 billion
/// distinct states — far beyond what exhaustive valence classification
/// can visit — and halves id-table memory versus `usize`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(u32);

impl StateId {
    /// The id's position in discovery order, usable as a `Vec` index.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstruct an id from an index previously obtained via
    /// [`StateId::index`]. The caller is responsible for the index
    /// having come from the same store.
    ///
    /// # Panics
    /// Panics if `index` exceeds `u32::MAX`.
    #[inline]
    #[must_use]
    pub fn from_index(index: usize) -> StateId {
        StateId(u32::try_from(index).expect("StateId index exceeds u32::MAX"))
    }
}

/// The id index shared by [`StateStore`] and [`Interner`]: an
/// open-addressing table of dense `u32` ids over the arena they index.
///
/// `hashes[id]` caches the fx hash of arena entry `id`, and `slots`
/// holds ids under linear probing (`EMPTY` marks a free slot). A probe
/// compares cached hashes first and asks the arena for equality only on
/// a full-hash match. The home slot comes from the hash's *high* bits:
/// the multiply-xor Fx hash mixes upward, so its low bits are weak.
/// Ids are implicit — entry `id` is the `id`-th [`IdIndex::push`] — so
/// interning allocates nothing beyond the two vectors' own growth, and
/// dropping the index frees two buffers.
#[derive(Debug, Clone, Default)]
struct IdIndex {
    /// `hashes[id]` = fx hash of arena entry `id`.
    hashes: Vec<u64>,
    /// Power-of-two slot table (or empty), at most half full.
    slots: Vec<u32>,
}

impl IdIndex {
    /// A free slot.
    const EMPTY: u32 = u32::MAX;

    fn with_capacity(capacity: usize) -> Self {
        let mut index = IdIndex {
            hashes: Vec::with_capacity(capacity),
            slots: Vec::new(),
        };
        index.resize_slots(Self::slots_for(capacity));
        index
    }

    /// The slot-table size that keeps `entries` at most half full.
    fn slots_for(entries: usize) -> usize {
        if entries == 0 {
            0
        } else {
            (entries * 2).next_power_of_two().max(8)
        }
    }

    /// The home slot of `hash`: its top `log2(slots)` bits.
    #[inline]
    fn home(&self, hash: u64) -> usize {
        let bits = self.slots.len().trailing_zeros();
        // `slots.len() >= 8`, so the shift is below 64.
        (hash >> (64 - bits)) as usize
    }

    /// The id of the entry with `hash` for which `eq` holds, if any.
    #[inline]
    fn find(&self, hash: u64, mut eq: impl FnMut(usize) -> bool) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut slot = self.home(hash);
        loop {
            let id = self.slots[slot];
            if id == Self::EMPTY {
                return None;
            }
            let id = id as usize;
            if self.hashes[id] == hash && eq(id) {
                return Some(id);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Records a fresh entry with `hash` under the next id (`len()`),
    /// which the caller has checked is absent.
    fn push(&mut self, hash: u64) {
        let id = self.hashes.len();
        assert!(
            u32::try_from(id).is_ok_and(|id| id != Self::EMPTY),
            "index exceeds u32::MAX ids"
        );
        if (id + 1) * 2 > self.slots.len() {
            self.resize_slots(Self::slots_for(id + 1));
        }
        self.hashes.push(hash);
        self.place(id);
    }

    /// Puts `id` in the first free slot of its probe sequence.
    fn place(&mut self, id: usize) {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(self.hashes[id]);
        while self.slots[slot] != Self::EMPTY {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = id as u32;
    }

    /// Rebuilds the slot table at `size` slots from the cached hashes
    /// (no arena entry is compared).
    fn resize_slots(&mut self, size: usize) {
        self.slots.clear();
        self.slots.resize(size, Self::EMPTY);
        for id in 0..self.hashes.len() {
            self.place(id);
        }
    }
}

/// An append-only arena interning states of type `S`.
///
/// * [`intern`](StateStore::intern) maps a state to its [`StateId`],
///   allocating a fresh id (and cloning the state **once**) only on
///   first sight — idempotent thereafter.
/// * [`resolve`](StateStore::resolve) maps an id back to the state in
///   O(1); the returned reference is stable for the store's lifetime
///   (states are never moved or dropped).
///
/// Internally a `Vec<S>` arena plus an open-addressing id index over
/// it, so each state is stored exactly once even under hash
/// collisions.
#[derive(Debug, Clone)]
pub struct StateStore<S> {
    states: Vec<S>,
    index: IdIndex,
}

impl<S> Default for StateStore<S> {
    fn default() -> Self {
        StateStore {
            states: Vec::new(),
            index: IdIndex::default(),
        }
    }
}

impl<S: Hash + Eq + Clone> StateStore<S> {
    /// Create an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty store with room for `capacity` states.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        StateStore {
            states: Vec::with_capacity(capacity),
            index: IdIndex::with_capacity(capacity),
        }
    }

    /// Number of distinct states interned so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The id of the interned state equal to `state`, whose hash is
    /// `hash`.
    fn find(&self, state: &S, hash: u64) -> Option<StateId> {
        self.index
            .find(hash, |id| &self.states[id] == state)
            .map(StateId::from_index)
    }

    /// Appends a state known to be absent under the next id.
    fn push(&mut self, state: S, hash: u64) -> StateId {
        let id = StateId::from_index(self.states.len());
        self.index.push(hash);
        self.states.push(state);
        id
    }

    /// Intern `state`, returning its id and whether it was fresh.
    ///
    /// On first sight the state is cloned into the arena and assigned
    /// the next dense id; on every later call the existing id is
    /// returned without cloning. This is the only place the exploration
    /// layer ever clones or hashes a full state.
    ///
    /// # Panics
    /// Panics if the arena already holds `u32::MAX` states (the `u32`
    /// id space is exhausted).
    pub fn intern(&mut self, state: &S) -> (StateId, bool) {
        let h = fx_hash(state);
        match self.find(state, h) {
            Some(id) => (id, false),
            None => (self.push(state.clone(), h), true),
        }
    }

    /// Intern `state` only if doing so keeps the arena within `cap`
    /// states. Returns `None` (without inserting) when the state is
    /// fresh but the budget is exhausted — the single-hash primitive
    /// the explorer's budgeted BFS is built on.
    pub fn try_intern(&mut self, state: &S, cap: usize) -> Option<(StateId, bool)> {
        let h = fx_hash(state);
        match self.find(state, h) {
            Some(id) => Some((id, false)),
            None if self.states.len() >= cap => None,
            None => Some((self.push(state.clone(), h), true)),
        }
    }

    /// [`StateStore::intern`] with the hash supplied by the caller and
    /// the state passed by value (moved into the arena on first sight,
    /// no clone).
    ///
    /// A walk that has already hashed a successor inserts it here
    /// without re-hashing. `hash` **must** equal `fx_hash(&state)`;
    /// this is debug-asserted.
    pub fn intern_prehashed(&mut self, state: S, hash: u64) -> (StateId, bool) {
        debug_assert_eq!(hash, fx_hash(&state), "prehashed value must match fx_hash");
        match self.find(&state, hash) {
            Some(id) => (id, false),
            None => (self.push(state, hash), true),
        }
    }

    /// [`StateStore::try_intern`] with the hash supplied by the caller
    /// and the state passed by value. Returns `None` (dropping the
    /// state) when it is fresh but the arena already holds `cap`
    /// states. `hash` **must** equal `fx_hash(&state)`.
    pub fn try_intern_prehashed(
        &mut self,
        state: S,
        hash: u64,
        cap: usize,
    ) -> Option<(StateId, bool)> {
        debug_assert_eq!(hash, fx_hash(&state), "prehashed value must match fx_hash");
        match self.find(&state, hash) {
            Some(id) => Some((id, false)),
            None if self.states.len() >= cap => None,
            None => Some((self.push(state, hash), true)),
        }
    }

    /// Look up the id of an already-interned state without inserting.
    #[must_use]
    pub fn get(&self, state: &S) -> Option<StateId> {
        self.find(state, fx_hash(state))
    }

    /// Resolve an id back to its state. O(1) array access.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this store.
    #[inline]
    #[must_use]
    pub fn resolve(&self, id: StateId) -> &S {
        &self.states[id.index()]
    }

    /// Iterate all interned states in id (discovery) order.
    pub fn iter(&self) -> impl Iterator<Item = (StateId, &S)> {
        self.states
            .iter()
            .enumerate()
            .map(|(i, s)| (StateId(i as u32), s))
    }

    /// The interned states in id order, as a slice.
    #[must_use]
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Iterate all ids in discovery order.
    pub fn ids(&self) -> impl Iterator<Item = StateId> {
        (0..self.states.len() as u32).map(StateId)
    }
}

/// A dense identifier for an interned *component* (one process state,
/// one service state) inside an [`Interner`] sub-arena.
///
/// Component ids are deliberately distinct from [`StateId`]s: a system
/// state is a flat vector of `CompId`s, and the composed-state arena
/// hands out `StateId`s over those vectors. Both are `u32`-dense and
/// handed out in first-sight order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CompId(u32);

impl CompId {
    /// The id's position in first-sight order, usable as a `Vec` index.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstruct an id from an index previously obtained via
    /// [`CompId::index`]. The caller is responsible for the index
    /// having come from the same interner.
    ///
    /// # Panics
    /// Panics if `index` exceeds `u32::MAX`.
    #[inline]
    #[must_use]
    pub fn from_index(index: usize) -> CompId {
        CompId(u32::try_from(index).expect("CompId index exceeds u32::MAX"))
    }
}

/// An append-only sub-arena interning the *components* of composed
/// system states: process states, service states, register states,
/// failure-detector histories.
///
/// Each distinct component value is stored (and fx-hashed) exactly
/// once, at first sight; thereafter it is handled as a dense [`CompId`]
/// and its hash is served from the [`Interner::hash_of`] cache, never
/// recomputed. A composed state then becomes a flat `Vec<u32>` of
/// component ids — cloning it is a memcpy, equality a slice compare,
/// hashing a few words — while every untouched component is shared by
/// id across all system states that contain it.
#[derive(Debug, Clone)]
pub struct Interner<T> {
    items: Vec<T>,
    /// The id index; its cached hashes answer [`Interner::hash_of`].
    index: IdIndex,
}

impl<T> Default for Interner<T> {
    fn default() -> Self {
        Interner {
            items: Vec::new(),
            index: IdIndex::default(),
        }
    }
}

impl<T: Hash + Eq> Interner<T> {
    /// Create an empty interner.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct components interned so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the interner is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Intern `value` by move, returning its id and whether it was
    /// fresh. The value is hashed exactly once; on a repeat sighting it
    /// is dropped and the existing id returned.
    ///
    /// # Panics
    /// Panics if the arena already holds `u32::MAX` components.
    pub fn intern(&mut self, value: T) -> (CompId, bool) {
        let h = fx_hash(&value);
        if let Some(id) = self.index.find(h, |id| self.items[id] == value) {
            return (CompId::from_index(id), false);
        }
        let id = CompId::from_index(self.items.len());
        self.index.push(h);
        self.items.push(value);
        (id, true)
    }

    /// Look up the id of an already-interned component without
    /// inserting.
    #[must_use]
    pub fn get(&self, value: &T) -> Option<CompId> {
        self.index
            .find(fx_hash(value), |id| &self.items[id] == value)
            .map(CompId::from_index)
    }

    /// Resolve an id back to its component. O(1) array access; the
    /// returned reference is stable for the interner's lifetime.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this interner.
    #[inline]
    #[must_use]
    pub fn resolve(&self, id: CompId) -> &T {
        &self.items[id.index()]
    }

    /// The fx hash of component `id`, cached at intern time — the hash
    /// of a component is computed exactly once for its lifetime.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this interner.
    #[inline]
    #[must_use]
    pub fn hash_of(&self, id: CompId) -> u64 {
        self.index.hashes[id.index()]
    }

    /// Iterate all interned components in id (first-sight) order.
    pub fn iter(&self) -> impl Iterator<Item = (CompId, &T)> {
        self.items
            .iter()
            .enumerate()
            .map(|(i, v)| (CompId(i as u32), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut st = StateStore::new();
        let (a, fresh_a) = st.intern(&"alpha".to_string());
        let (b, fresh_b) = st.intern(&"beta".to_string());
        let (a2, fresh_a2) = st.intern(&"alpha".to_string());
        assert!(fresh_a && fresh_b);
        assert!(!fresh_a2);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(st.len(), 2);
    }

    #[test]
    fn ids_are_dense_in_discovery_order() {
        let mut st = StateStore::new();
        for i in 0..100u64 {
            let (id, fresh) = st.intern(&i);
            assert!(fresh);
            assert_eq!(id.index(), i as usize);
        }
        assert_eq!(st.len(), 100);
        let ids: Vec<usize> = st.ids().map(StateId::index).collect();
        assert_eq!(ids, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn resolve_is_stable_across_growth() {
        let mut st = StateStore::new();
        let (id, _) = st.intern(&7u64);
        for i in 1000..2000u64 {
            st.intern(&i);
        }
        assert_eq!(*st.resolve(id), 7);
        assert_eq!(st.get(&7u64), Some(id));
        assert_eq!(st.get(&999_999u64), None);
    }

    #[test]
    fn collisions_do_not_conflate_states() {
        // Two states in the same bucket must still intern separately.
        // Force the situation by interning many states; with 64-bit Fx
        // hashes real collisions are unlikely, so instead check the
        // bucket probe path directly via equal-hash construction:
        // FxHasher is deterministic, so craft a store keyed on a type
        // whose Hash impl is intentionally degenerate.
        #[derive(Clone, PartialEq, Eq, Debug)]
        struct DegenerateHash(u32);
        impl Hash for DegenerateHash {
            fn hash<H: Hasher>(&self, state: &mut H) {
                state.write_u64(0); // every value collides
            }
        }
        let mut st = StateStore::new();
        let (a, _) = st.intern(&DegenerateHash(1));
        let (b, _) = st.intern(&DegenerateHash(2));
        let (a2, fresh) = st.intern(&DegenerateHash(1));
        assert_ne!(a, b);
        assert_eq!(a, a2);
        assert!(!fresh);
        assert_eq!(*st.resolve(b), DegenerateHash(2));
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX")]
    fn from_index_guards_u32_overflow() {
        // The guard that fires when the arena would exceed the u32 id
        // space. Interning 2^32 real states is infeasible in a unit
        // test, so exercise the checked conversion directly.
        let _ = StateId::from_index(u32::MAX as usize + 1);
    }

    #[test]
    fn try_intern_respects_the_budget() {
        let mut st = StateStore::new();
        assert_eq!(st.try_intern(&1u64, 2), Some((StateId(0), true)));
        assert_eq!(st.try_intern(&2u64, 2), Some((StateId(1), true)));
        // Budget reached: fresh states are refused, known states still hit.
        assert_eq!(st.try_intern(&3u64, 2), None);
        assert_eq!(st.try_intern(&1u64, 2), Some((StateId(0), false)));
        assert_eq!(st.len(), 2);
    }

    #[test]
    fn prehashed_paths_agree_with_the_hashing_paths() {
        let mut a = StateStore::new();
        let mut b = StateStore::new();
        for i in (0..64u64).chain(0..32) {
            let expected = a.try_intern(&i, 48);
            let got = b.try_intern_prehashed(i, fx_hash(&i), 48);
            assert_eq!(got, expected, "state {i}");
        }
        assert_eq!(a.len(), b.len());
        for i in 0..64u64 {
            assert_eq!(b.get(&i), a.get(&i));
        }
        let (id, fresh) = b.intern_prehashed(99, fx_hash(&99u64));
        assert!(fresh);
        assert_eq!(*b.resolve(id), 99);
        assert_eq!(b.intern_prehashed(99, fx_hash(&99u64)), (id, false));
    }

    #[test]
    fn fx_hash_is_deterministic() {
        assert_eq!(fx_hash(&(1u64, 2u64)), fx_hash(&(1u64, 2u64)));
        assert_ne!(fx_hash(&1u64), fx_hash(&2u64));
    }

    #[test]
    fn interner_is_idempotent_and_dense() {
        let mut it: Interner<String> = Interner::new();
        let (a, fresh_a) = it.intern("alpha".to_string());
        let (b, fresh_b) = it.intern("beta".to_string());
        let (a2, fresh_a2) = it.intern("alpha".to_string());
        assert!(fresh_a && fresh_b && !fresh_a2);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(it.len(), 2);
        assert_eq!(it.resolve(a), "alpha");
        assert_eq!(it.get(&"beta".to_string()), Some(b));
        assert_eq!(it.get(&"gamma".to_string()), None);
    }

    #[test]
    fn interner_caches_hashes_at_intern_time() {
        let mut it: Interner<u64> = Interner::new();
        for i in 0..50u64 {
            let (id, _) = it.intern(i);
            assert_eq!(it.hash_of(id), fx_hash(&i));
        }
        let ids: Vec<usize> = it.iter().map(|(id, _)| id.index()).collect();
        assert_eq!(ids, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn interner_survives_degenerate_hash_collisions() {
        #[derive(PartialEq, Eq, Debug)]
        struct AllCollide(u32);
        impl Hash for AllCollide {
            fn hash<H: Hasher>(&self, state: &mut H) {
                state.write_u64(7);
            }
        }
        let mut it = Interner::new();
        let (a, _) = it.intern(AllCollide(1));
        let (b, _) = it.intern(AllCollide(2));
        assert_ne!(a, b);
        assert_eq!(it.intern(AllCollide(1)), (a, false));
        assert_eq!(it.hash_of(a), it.hash_of(b));
        assert_eq!(*it.resolve(b), AllCollide(2));
    }

    #[test]
    fn ids_and_get_survive_several_growths() {
        // 1,000 entries take the slot table from 8 to 2,048 slots:
        // eight rehashes, each from the cached hashes alone.
        let mut st = StateStore::with_capacity(3);
        let mut it = Interner::new();
        for i in 0..1_000u64 {
            assert_eq!(st.intern(&i), (StateId::from_index(i as usize), true));
            assert_eq!(it.intern(i), (CompId::from_index(i as usize), true));
        }
        for i in 0..1_000u64 {
            assert_eq!(st.get(&i), Some(StateId::from_index(i as usize)));
            assert_eq!(it.get(&i), Some(CompId::from_index(i as usize)));
            assert_eq!(it.hash_of(CompId::from_index(i as usize)), fx_hash(&i));
        }
        assert_eq!(st.get(&1_000), None);
        assert_eq!(it.get(&1_000), None);
        assert_eq!(st.intern(&17), (StateId::from_index(17), false));
        assert_eq!((st.len(), it.len()), (1_000, 1_000));
    }

    #[test]
    fn all_colliding_hashes_work_in_both_arenas() {
        // Every value hashes alike, so every probe walks one cluster
        // and the arena's equality alone tells entries apart, across
        // growths of the slot table.
        #[derive(Clone, PartialEq, Eq, Debug)]
        struct Same(u32);
        impl Hash for Same {
            fn hash<H: Hasher>(&self, state: &mut H) {
                state.write_u64(3);
            }
        }
        let mut st = StateStore::new();
        let mut it = Interner::new();
        for k in 0..100 {
            assert_eq!(st.intern(&Same(k)), (StateId(k), true));
            assert_eq!(it.intern(Same(k)), (CompId(k), true));
        }
        for k in 0..100 {
            assert_eq!(st.get(&Same(k)), Some(StateId(k)));
            assert_eq!(st.intern(&Same(k)), (StateId(k), false));
            assert_eq!(it.intern(Same(k)), (CompId(k), false));
            assert_eq!(*it.resolve(CompId(k)), Same(k));
        }
        assert_eq!(st.get(&Same(100)), None);
        assert_eq!(it.get(&Same(100)), None);
        assert_eq!(st.try_intern(&Same(100), 100), None);
        assert_eq!(st.len(), 100);
    }

    #[test]
    fn get_works_on_an_empty_store() {
        assert_eq!(StateStore::<u64>::new().get(&1), None);
        assert_eq!(StateStore::<u64>::with_capacity(0).get(&1), None);
        assert_eq!(StateStore::<u64>::with_capacity(10).get(&1), None);
        assert_eq!(Interner::<u64>::new().get(&1), None);
        // A refused admission leaves the store empty and unindexed.
        let mut st = StateStore::<u64>::new();
        assert_eq!(st.try_intern(&1, 0), None);
        assert!(st.is_empty());
        assert_eq!(st.get(&1), None);
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX")]
    fn comp_id_from_index_guards_u32_overflow() {
        let _ = CompId::from_index(u32::MAX as usize + 1);
    }
}

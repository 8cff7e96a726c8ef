//! The transition-effect cache behind [`crate::packed::PackedSystem`].
//!
//! PR 3's effect core ([`crate::build::CompleteSystem::succ_effects`])
//! reports every transition as a delta touching at most one process and
//! one service component — and each half of that delta is a pure
//! function of the touched component's value, never of the rest of the
//! system state. Since components are interned
//! ([`ioa::store::Interner`]), "value" collapses to a dense
//! [`CompId`](ioa::store::CompId): the effect of `Task::Proc(i)` from
//! process component `pc` is the same in *every* system state whose
//! slot `i` holds `pc`. This module memoizes exactly that — per-task
//! tables keyed by component id(s), storing already-**interned** result
//! ids — so a warm successor expansion is a table lookup plus an
//! id-splice into the packed state, with no `succ_effects` re-run and
//! no component re-interning.
//!
//! Key structure (mirroring the effect factorization in
//! [`crate::build`]):
//!
//! * `Task::Proc(i)` — level 1 keyed by the process component
//!   ([`ProcStepEntry`]); an `Invoke` outcome adds level 2 keyed by
//!   `(proc comp, svc comp)` for the service enqueue.
//! * `Task::Perform(c, i)` / `Task::Compute(c, g)` — keyed by the
//!   service component; stores the full branch list ([`BranchEntry`])
//!   in the canonical δ order, dummy flag last.
//! * `Task::Output(c, i)` — level 1 keyed by the service component (the
//!   pop outcome, [`PopEntry`]); level 2 keyed by
//!   `(svc comp, proc comp)` for `on_response`.
//!
//! # Why the cache preserves bit-identical exploration
//!
//! Every cached value is a deterministic function of its key (the
//! paper's Section 3.1 determinism assumptions make process steps,
//! enqueues and `on_response` functions; the canonical services' δ
//! branch *lists* are likewise functions of the state), and interning
//! is idempotent within a run — re-interning an equal component returns
//! the same id. A writer therefore always writes the value any other
//! caller would have computed, so last-write-wins races between callers
//! sharing one `PackedSystem` are benign: the tables are read-mostly
//! maps behind one [`RwLock`] each. The differential suite pins
//! cached-vs-uncached bit-identity.
//!
//! Hit/miss accounting is per *expansion* (one `succ_all` call): a hit
//! means the whole expansion was served from the tables.

use ioa::automaton::CacheStats;
use ioa::store::BuildFxHasher;
use spec::{GlobalTaskId, Inv, Resp, SvcId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use crate::action::Action;

/// Level-1 entry for `Task::Proc(i)`: the process's step outcome from
/// one process component, with the successor component already
/// interned.
#[derive(Clone, Debug)]
pub(crate) enum ProcStepEntry {
    /// A local action; `1` is the process's new component id.
    Local(Action, u32),
    /// An invocation: target service, invocation value, and the
    /// process's new component id. The service's side lives in the
    /// level-2 enqueue table.
    Invoke(SvcId, Inv, u32),
}

/// Entry for `Task::Perform` / `Task::Compute`: the full branch list
/// from one service component — new service component ids in the
/// canonical δ order, then whether the dummy branch follows.
#[derive(Clone, Debug)]
pub(crate) struct BranchEntry {
    /// Interned successor components of the real branches, in δ order.
    pub real: Box<[u32]>,
    /// Whether the dummy (stutter) branch is enabled after them.
    pub dummy: bool,
}

/// Level-1 entry for `Task::Output(c, i)`: the pop outcome from one
/// service component.
#[derive(Clone, Debug)]
pub(crate) struct PopEntry {
    /// The popped response and the service's new component id, when
    /// `resp_buffer(i)` is nonempty.
    pub resp: Option<(Resp, u32)>,
    /// Whether the dummy output branch is enabled.
    pub dummy: bool,
}

/// A slot table keyed by a dense component id: the read-mostly map for
/// level-1 keys. Indexing by `CompId` directly (instead of hashing)
/// makes a warm lookup one bounds check and one clone.
#[derive(Debug)]
struct SlotTable<T> {
    slots: RwLock<Vec<Option<T>>>,
}

// Manual impl: a derive would demand `T: Default` although the initial
// slot vector is simply empty.
impl<T> Default for SlotTable<T> {
    fn default() -> Self {
        SlotTable {
            slots: RwLock::new(Vec::new()),
        }
    }
}

impl<T: Clone> SlotTable<T> {
    fn get(&self, key: u32) -> Option<T> {
        let slots = self.slots.read().expect("effect cache lock poisoned");
        slots.get(key as usize).and_then(Clone::clone)
    }

    fn put(&self, key: u32, value: T) {
        let idx = key as usize;
        let mut slots = self.slots.write().expect("effect cache lock poisoned");
        if slots.len() <= idx {
            slots.resize_with(idx + 1, || None);
        }
        // Racing writers store the identical value (see module docs).
        slots[idx] = Some(value);
    }
}

/// A pair-keyed table for the level-2 keys (`(pc, sc)` enqueues,
/// `(sc, pc)` response applications).
#[derive(Debug, Default)]
struct PairTable {
    map: RwLock<HashMap<(u32, u32), u32, BuildFxHasher>>,
}

impl PairTable {
    fn get(&self, key: (u32, u32)) -> Option<u32> {
        self.map
            .read()
            .expect("effect cache lock poisoned")
            .get(&key)
            .copied()
    }

    fn put(&self, key: (u32, u32), value: u32) {
        self.map
            .write()
            .expect("effect cache lock poisoned")
            .insert(key, value);
    }
}

/// The per-system transition-effect cache. One instance lives inside a
/// [`crate::packed::PackedSystem`] and is shared (by `&`) by every
/// expansion of that system.
#[derive(Debug)]
pub(crate) struct EffectCache {
    /// `step[i]`: level-1 process-step outcomes, keyed by proc comp.
    step: Vec<SlotTable<ProcStepEntry>>,
    /// `enqueue[i]`: level-2 invocation enqueues, keyed `(pc, sc)`.
    enqueue: Vec<PairTable>,
    /// `perform[c * n + i]`: perform branch lists, keyed by svc comp.
    perform: Vec<SlotTable<BranchEntry>>,
    /// `pop[c * n + i]`: output pop outcomes, keyed by svc comp.
    pop: Vec<SlotTable<PopEntry>>,
    /// `on_resp[c * n + i]`: level-2 response applications, keyed
    /// `(sc, pc)`.
    on_resp: Vec<PairTable>,
    /// Compute branch lists per `(c, g)` global task, keyed by svc comp.
    compute: HashMap<(SvcId, GlobalTaskId), SlotTable<BranchEntry>, BuildFxHasher>,
    /// Number of processes `n` (for the `(c, i)` flattening).
    n: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EffectCache {
    /// An empty cache for a system with `n` processes, `m` services and
    /// the given `(service, global task)` compute tasks.
    pub fn new(
        n: usize,
        m: usize,
        globals: impl IntoIterator<Item = (SvcId, GlobalTaskId)>,
    ) -> Self {
        EffectCache {
            step: (0..n).map(|_| SlotTable::default()).collect(),
            enqueue: (0..n).map(|_| PairTable::default()).collect(),
            perform: (0..n * m).map(|_| SlotTable::default()).collect(),
            pop: (0..n * m).map(|_| SlotTable::default()).collect(),
            on_resp: (0..n * m).map(|_| PairTable::default()).collect(),
            compute: globals
                .into_iter()
                .map(|key| (key, SlotTable::default()))
                .collect(),
            n,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The flattened `(c, i)` endpoint-task index.
    fn ci(&self, c: SvcId, i: spec::ProcId) -> usize {
        c.0 * self.n + i.0
    }

    pub fn step_get(&self, i: spec::ProcId, pc: u32) -> Option<ProcStepEntry> {
        self.step[i.0].get(pc)
    }

    pub fn step_put(&self, i: spec::ProcId, pc: u32, e: ProcStepEntry) {
        self.step[i.0].put(pc, e);
    }

    pub fn enqueue_get(&self, i: spec::ProcId, pc: u32, sc: u32) -> Option<u32> {
        self.enqueue[i.0].get((pc, sc))
    }

    pub fn enqueue_put(&self, i: spec::ProcId, pc: u32, sc: u32, sc2: u32) {
        self.enqueue[i.0].put((pc, sc), sc2);
    }

    pub fn perform_get(&self, c: SvcId, i: spec::ProcId, sc: u32) -> Option<BranchEntry> {
        self.perform[self.ci(c, i)].get(sc)
    }

    pub fn perform_put(&self, c: SvcId, i: spec::ProcId, sc: u32, e: BranchEntry) {
        self.perform[self.ci(c, i)].put(sc, e);
    }

    pub fn pop_get(&self, c: SvcId, i: spec::ProcId, sc: u32) -> Option<PopEntry> {
        self.pop[self.ci(c, i)].get(sc)
    }

    pub fn pop_put(&self, c: SvcId, i: spec::ProcId, sc: u32, e: PopEntry) {
        self.pop[self.ci(c, i)].put(sc, e);
    }

    pub fn on_resp_get(&self, c: SvcId, i: spec::ProcId, sc: u32, pc: u32) -> Option<u32> {
        self.on_resp[self.ci(c, i)].get((sc, pc))
    }

    pub fn on_resp_put(&self, c: SvcId, i: spec::ProcId, sc: u32, pc: u32, pc2: u32) {
        self.on_resp[self.ci(c, i)].put((sc, pc), pc2);
    }

    pub fn compute_get(&self, c: SvcId, g: &GlobalTaskId, sc: u32) -> Option<BranchEntry> {
        self.compute_table(c, g).get(sc)
    }

    pub fn compute_put(&self, c: SvcId, g: &GlobalTaskId, sc: u32, e: BranchEntry) {
        self.compute_table(c, g).put(sc, e);
    }

    fn compute_table(&self, c: SvcId, g: &GlobalTaskId) -> &SlotTable<BranchEntry> {
        self.compute
            .get(&(c, g.clone()))
            .expect("compute task registered at cache construction")
    }

    /// Record one finished expansion: `fully_hit` iff every effect it
    /// needed came out of the tables.
    pub fn record(&self, fully_hit: bool) {
        if fully_hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Cumulative hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec::ProcId;

    #[test]
    fn slot_table_grows_on_demand() {
        let t: SlotTable<u32> = SlotTable::default();
        assert_eq!(t.get(5), None);
        t.put(5, 42);
        assert_eq!(t.get(5), Some(42));
        assert_eq!(t.get(4), None);
        t.put(0, 7);
        assert_eq!(t.get(0), Some(7));
        assert_eq!(t.get(5), Some(42));
    }

    #[test]
    fn pair_table_round_trips() {
        let t = PairTable::default();
        assert_eq!(t.get((1, 2)), None);
        t.put((1, 2), 9);
        assert_eq!(t.get((1, 2)), Some(9));
        assert_eq!(t.get((2, 1)), None);
    }

    #[test]
    fn counters_accumulate_and_rate() {
        let c = EffectCache::new(2, 1, []);
        c.record(true);
        c.record(true);
        c.record(false);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn endpoint_tables_are_keyed_per_task() {
        let c = EffectCache::new(2, 2, []);
        c.perform_put(
            SvcId(1),
            ProcId(0),
            3,
            BranchEntry {
                real: Box::new([8]),
                dummy: false,
            },
        );
        assert!(c.perform_get(SvcId(1), ProcId(0), 3).is_some());
        assert!(c.perform_get(SvcId(0), ProcId(0), 3).is_none());
        assert!(c.perform_get(SvcId(1), ProcId(1), 3).is_none());
    }
}

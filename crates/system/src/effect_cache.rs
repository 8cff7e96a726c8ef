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
//!   in the canonical δ order, dummy flag last. Compute tables are
//!   indexed by a dense global-task number fixed at construction
//!   ([`EffectCache::compute_index`]), so no lookup hashes a
//!   `(SvcId, GlobalTaskId)` key.
//! * `Task::Output(c, i)` — level 1 keyed by the service component (the
//!   pop outcome, [`PopEntry`]); level 2 keyed by
//!   `(svc comp, proc comp)` for `on_response`.
//!
//! Every table sits behind **one** [`RwLock`]: an expansion takes one
//! read guard per state and borrows entries from [`Tables`] for all of
//! that state's tasks; a miss drops the guard and fills its entry under
//! the write guard (see `PackedSystem`'s cached dispatch).
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
//! sharing one `PackedSystem` are benign. The differential suite pins
//! cached-vs-uncached bit-identity.
//!
//! Hit/miss accounting is per *task expansion*: a hit means the task's
//! whole expansion was served from the tables.

use ioa::automaton::CacheStats;
use ioa::store::BuildFxHasher;
use spec::{GlobalTaskId, Inv, ProcId, Resp, SvcId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::action::Action;

/// Level-1 entry for `Task::Proc(i)`: the process's step outcome from
/// one process component, with the successor component already
/// interned.
#[derive(Debug)]
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
#[derive(Debug)]
pub(crate) struct BranchEntry {
    /// Interned successor components of the real branches, in δ order.
    pub real: Box<[u32]>,
    /// Whether the dummy (stutter) branch is enabled after them.
    pub dummy: bool,
}

/// Level-1 entry for `Task::Output(c, i)`: the pop outcome from one
/// service component.
#[derive(Debug)]
pub(crate) struct PopEntry {
    /// The popped response and the service's new component id, when
    /// `resp_buffer(i)` is nonempty.
    pub resp: Option<(Resp, u32)>,
    /// Whether the dummy output branch is enabled.
    pub dummy: bool,
}

/// A slot table keyed by a dense component id: the map for level-1
/// keys. Indexing by `CompId` directly (instead of hashing) makes a
/// warm lookup one bounds check.
#[derive(Debug)]
struct SlotTable<T> {
    slots: Vec<Option<T>>,
}

// Manual impl: a derive would demand `T: Default` although the initial
// slot vector is simply empty.
impl<T> Default for SlotTable<T> {
    fn default() -> Self {
        SlotTable { slots: Vec::new() }
    }
}

impl<T> SlotTable<T> {
    fn get(&self, key: u32) -> Option<&T> {
        self.slots.get(key as usize).and_then(Option::as_ref)
    }

    fn put(&mut self, key: u32, value: T) {
        let idx = key as usize;
        if self.slots.len() <= idx {
            self.slots.resize_with(idx + 1, || None);
        }
        // Racing writers store the identical value (see module docs).
        self.slots[idx] = Some(value);
    }
}

/// A pair-keyed table for the level-2 keys (`(pc, sc)` enqueues,
/// `(sc, pc)` response applications).
#[derive(Debug, Default)]
struct PairTable {
    map: HashMap<(u32, u32), u32, BuildFxHasher>,
}

impl PairTable {
    fn get(&self, key: (u32, u32)) -> Option<u32> {
        self.map.get(&key).copied()
    }

    fn put(&mut self, key: (u32, u32), value: u32) {
        self.map.insert(key, value);
    }
}

/// Every effect table of one [`EffectCache`], behind its one lock.
/// Readers borrow entries for as long as they hold the read guard.
#[derive(Debug)]
pub(crate) struct Tables {
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
    /// `compute[k]`: branch lists of the global task with dense number
    /// `k`, keyed by svc comp.
    compute: Vec<SlotTable<BranchEntry>>,
    /// Number of processes `n` (for the `(c, i)` flattening).
    n: usize,
}

impl Tables {
    /// The flattened `(c, i)` endpoint-task index.
    fn ci(&self, c: SvcId, i: ProcId) -> usize {
        c.0 * self.n + i.0
    }

    pub fn step(&self, i: ProcId, pc: u32) -> Option<&ProcStepEntry> {
        self.step[i.0].get(pc)
    }

    pub fn step_put(&mut self, i: ProcId, pc: u32, e: ProcStepEntry) {
        self.step[i.0].put(pc, e);
    }

    pub fn enqueue(&self, i: ProcId, pc: u32, sc: u32) -> Option<u32> {
        self.enqueue[i.0].get((pc, sc))
    }

    pub fn enqueue_put(&mut self, i: ProcId, pc: u32, sc: u32, sc2: u32) {
        self.enqueue[i.0].put((pc, sc), sc2);
    }

    pub fn perform(&self, c: SvcId, i: ProcId, sc: u32) -> Option<&BranchEntry> {
        self.perform[self.ci(c, i)].get(sc)
    }

    pub fn perform_put(&mut self, c: SvcId, i: ProcId, sc: u32, e: BranchEntry) {
        let k = self.ci(c, i);
        self.perform[k].put(sc, e);
    }

    pub fn pop(&self, c: SvcId, i: ProcId, sc: u32) -> Option<&PopEntry> {
        self.pop[self.ci(c, i)].get(sc)
    }

    pub fn pop_put(&mut self, c: SvcId, i: ProcId, sc: u32, e: PopEntry) {
        let k = self.ci(c, i);
        self.pop[k].put(sc, e);
    }

    pub fn on_resp(&self, c: SvcId, i: ProcId, sc: u32, pc: u32) -> Option<u32> {
        self.on_resp[self.ci(c, i)].get((sc, pc))
    }

    pub fn on_resp_put(&mut self, c: SvcId, i: ProcId, sc: u32, pc: u32, pc2: u32) {
        let k = self.ci(c, i);
        self.on_resp[k].put((sc, pc), pc2);
    }

    /// The branch list of the global task with dense number `k`.
    pub fn compute(&self, k: usize, sc: u32) -> Option<&BranchEntry> {
        self.compute[k].get(sc)
    }

    pub fn compute_put(&mut self, k: usize, sc: u32, e: BranchEntry) {
        self.compute[k].put(sc, e);
    }
}

/// The per-system transition-effect cache. One instance lives inside a
/// [`crate::packed::PackedSystem`] and is shared (by `&`) by every
/// expansion of that system.
#[derive(Debug)]
pub(crate) struct EffectCache {
    tables: RwLock<Tables>,
    /// `globals[c]`: service `c`'s global tasks with their dense
    /// compute numbers.
    globals: Vec<Vec<(GlobalTaskId, usize)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EffectCache {
    /// An empty cache for a system with `n` processes, `m` services and
    /// the given `(service, global task)` compute tasks, numbered
    /// densely in the order given.
    pub fn new(
        n: usize,
        m: usize,
        globals: impl IntoIterator<Item = (SvcId, GlobalTaskId)>,
    ) -> Self {
        let mut per_svc: Vec<Vec<(GlobalTaskId, usize)>> = vec![Vec::new(); m];
        let mut count = 0;
        for (c, g) in globals {
            per_svc[c.0].push((g, count));
            count += 1;
        }
        EffectCache {
            tables: RwLock::new(Tables {
                step: (0..n).map(|_| SlotTable::default()).collect(),
                enqueue: (0..n).map(|_| PairTable::default()).collect(),
                perform: (0..n * m).map(|_| SlotTable::default()).collect(),
                pop: (0..n * m).map(|_| SlotTable::default()).collect(),
                on_resp: (0..n * m).map(|_| PairTable::default()).collect(),
                compute: (0..count).map(|_| SlotTable::default()).collect(),
                n,
            }),
            globals: per_svc,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The dense compute number of global task `g` of service `c`: a
    /// scan of that service's few global tasks, no hashing.
    ///
    /// # Panics
    ///
    /// Panics if `(c, g)` was not registered at construction.
    pub fn compute_index(&self, c: SvcId, g: &GlobalTaskId) -> usize {
        self.globals[c.0]
            .iter()
            .find(|(h, _)| h == g)
            .map(|&(_, k)| k)
            .expect("compute task registered at cache construction")
    }

    /// The read guard every lookup borrows entries through.
    pub fn read(&self) -> RwLockReadGuard<'_, Tables> {
        self.tables.read().expect("effect cache lock poisoned")
    }

    /// The write guard a miss fills its entry under.
    pub fn write(&self) -> RwLockWriteGuard<'_, Tables> {
        self.tables.write().expect("effect cache lock poisoned")
    }

    /// Record `hits` task expansions served wholly from the tables.
    pub fn record_hits(&self, hits: u64) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
    }

    /// Record one task expansion that filled at least one entry.
    pub fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
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

    #[test]
    fn slot_table_grows_on_demand() {
        let mut t: SlotTable<u32> = SlotTable::default();
        assert_eq!(t.get(5), None);
        t.put(5, 42);
        assert_eq!(t.get(5), Some(&42));
        assert_eq!(t.get(4), None);
        t.put(0, 7);
        assert_eq!(t.get(0), Some(&7));
        assert_eq!(t.get(5), Some(&42));
    }

    #[test]
    fn pair_table_round_trips() {
        let mut t = PairTable::default();
        assert_eq!(t.get((1, 2)), None);
        t.put((1, 2), 9);
        assert_eq!(t.get((1, 2)), Some(9));
        assert_eq!(t.get((2, 1)), None);
    }

    #[test]
    fn counters_accumulate_and_rate() {
        let c = EffectCache::new(2, 1, []);
        c.record_hits(1);
        c.record_hits(1);
        c.record_miss();
        c.record_hits(0);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn endpoint_tables_are_keyed_per_task() {
        let c = EffectCache::new(2, 2, []);
        c.write().perform_put(
            SvcId(1),
            ProcId(0),
            3,
            BranchEntry {
                real: Box::new([8]),
                dummy: false,
            },
        );
        let t = c.read();
        assert_eq!(
            t.perform(SvcId(1), ProcId(0), 3).map(|e| &e.real[..]),
            Some(&[8][..])
        );
        assert!(t.perform(SvcId(0), ProcId(0), 3).is_none());
        assert!(t.perform(SvcId(1), ProcId(1), 3).is_none());
    }

    #[test]
    fn compute_tables_are_numbered_densely_per_global_task() {
        let g0 = GlobalTaskId::Endpoint(ProcId(0));
        let g1 = GlobalTaskId::Endpoint(ProcId(1));
        let named = GlobalTaskId::Named("deliver");
        let c = EffectCache::new(
            2,
            2,
            [
                (SvcId(0), g0.clone()),
                (SvcId(0), g1.clone()),
                (SvcId(1), named.clone()),
            ],
        );
        assert_eq!(c.compute_index(SvcId(0), &g0), 0);
        assert_eq!(c.compute_index(SvcId(0), &g1), 1);
        assert_eq!(c.compute_index(SvcId(1), &named), 2);
        let entry = BranchEntry {
            real: Box::new([4, 5]),
            dummy: true,
        };
        c.write().compute_put(1, 9, entry);
        let t = c.read();
        assert!(t
            .compute(1, 9)
            .is_some_and(|e| e.dummy && e.real[..] == [4, 5]));
        assert!(t.compute(0, 9).is_none());
        assert!(t.compute(2, 9).is_none());
    }
}

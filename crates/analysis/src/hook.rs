//! Lemma 5: `G(C)` contains a hook (paper Figs. 2–3).
//!
//! A *hook* is the Fig. 2 pattern: a finite failure-free input-first
//! execution `α` and tasks `e, e'` such that `e(α)` is 0-valent while
//! `e(e'(α))` is 1-valent (or symmetrically). The Fig. 3 construction
//! finds one: starting from a bivalent initialization it walks
//! round-robin through the tasks, always extending to a bivalent
//! `e(α')` while one exists; when it cannot, the terminating task `e`
//! pins a valence flip along any path to an opposite-valued decision,
//! and the flip edge is the hook.
//!
//! The construction walks *concrete* packed states. It steps the
//! [`PackedSystem`] that built the valence map, resumed over the map's
//! tables ([`ValenceMap::packed_system`]), so the transition-effect
//! cache and canonicalizer memo the exploration filled serve it warm,
//! and asks the map only for valences and decisions by packed lookup
//! ([`ValenceMap::packed_id_of`]). On a symmetry-quotient map that
//! lookup canonicalizes, while the walk itself never leaves the
//! concrete transition system: quotient edges carry task labels in
//! each representative's frame, so a path through the quotient graph
//! is no execution. The returned hook is therefore one genuine
//! execution on every map — `alpha_tasks` replays verbatim from the
//! root — and only its corner states are decoded.
//!
//! For a candidate system that genuinely decides in failure-free fair
//! executions, the construction terminates (the paper's argument); the
//! iteration bound guards against candidates that instead sit in
//! endless bivalence — which is reported as its own witness shape.

use crate::valence::{Valence, ValenceMap};
use ioa::automaton::Automaton;
use ioa::store::{fx_hash, StateId, StateStore};
use std::collections::VecDeque;
use system::build::{CompleteSystem, SystemState};
use system::packed::{PackedState, PackedSystem};
use system::process::ProcessAutomaton;
use system::Task;

/// A hook (paper Fig. 2): from `alpha`, task `e` leads to a `v`-valent
/// state while `e'` then `e` leads to a `v̄`-valent state.
#[derive(Debug)]
pub struct Hook<P: ProcessAutomaton> {
    /// The task sequence generating `α` from the bivalent
    /// initialization (Section 3.1: the task sequence specifies the
    /// execution).
    pub alpha_tasks: Vec<Task>,
    /// The final state of `α`.
    pub alpha: SystemState<P::State>,
    /// The pivotal task `e`.
    pub e: Task,
    /// The second task `e'`.
    pub e_prime: Task,
    /// `s0`: the final state of `α_0 = e(α)`, of valence `v`.
    pub s0: SystemState<P::State>,
    /// `s'`: the final state of `α' = e'(α)`.
    pub s_prime: SystemState<P::State>,
    /// `s1`: the final state of `α_1 = e(e'(α))`, of valence `v̄`.
    pub s1: SystemState<P::State>,
    /// The valence `v` of `s0`.
    pub v: Valence,
}

/// What the Fig. 3 construction produced.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // a Hook IS the payload of interest
pub enum HookOutcome<P: ProcessAutomaton> {
    /// A hook was found (Lemma 5's conclusion, exhibited).
    Hook(Hook<P>),
    /// The construction ran past its iteration bound while every
    /// extension stayed bivalent — evidence of a fair bivalent
    /// non-deciding region (the Lemma 5 proof's "π infinite"
    /// contradiction, which for a *non*-solution is simply real).
    EndlessBivalence {
        /// Number of construction iterations performed.
        iterations: usize,
        /// The state where the construction was abandoned.
        state: SystemState<P::State>,
    },
    /// A reachable state decides nothing in any failure-free extension
    /// — a direct failure-free termination violation.
    UndecidedRegion {
        /// The undecided state.
        state: SystemState<P::State>,
    },
}

/// The Fig. 3 construction's view of one valence map: the resumed
/// packed system it steps, and the map it asks for valences and
/// decisions.
struct Walk<'a, 's, P: ProcessAutomaton> {
    packed: PackedSystem<'s, P>,
    map: &'a ValenceMap<P>,
    tasks: Vec<Task>,
}

impl<P: ProcessAutomaton> Walk<'_, '_, P> {
    /// `e(s)`: the determinized step of task `e` (Section 3.1).
    fn step(&self, e: &Task, ps: &PackedState) -> Option<PackedState> {
        self.packed.succ_det(e, ps).map(|(_, s2)| s2)
    }

    /// The valence of a concrete state reachable from the map's root.
    fn valence(&self, ps: &PackedState) -> Valence {
        let id = self
            .map
            .packed_id_of(&self.packed, ps)
            .expect("every reachable state's orbit was explored");
        self.map.valence_id(id)
    }

    /// Breadth-first search over concrete states from `from`,
    /// following only edges whose task differs from `banned` (when
    /// given) and skipping self-loops, for the first state satisfying
    /// `pred`. Returns the `(task, state)` path.
    fn bfs(
        &self,
        from: &PackedState,
        banned: Option<&Task>,
        pred: impl Fn(&PackedState) -> bool,
    ) -> Option<Vec<(Task, PackedState)>> {
        if pred(from) {
            return Some(Vec::new());
        }
        // `seen` numbers states in discovery order; `parent[id]` is the
        // step that discovered `id`.
        let mut seen = StateStore::new();
        let (root, _) = seen.intern(from);
        let mut parent: Vec<Option<(StateId, Task)>> = vec![None];
        let mut queue = VecDeque::from([root]);
        while let Some(id) = queue.pop_front() {
            for t in &self.tasks {
                if banned == Some(t) {
                    continue;
                }
                for (_, s2) in self.packed.succ_all(t, seen.resolve(id)) {
                    if s2 == *seen.resolve(id) {
                        continue;
                    }
                    let hash = fx_hash(&s2);
                    let (next, fresh) = seen.intern_prehashed(s2, hash);
                    if !fresh {
                        continue;
                    }
                    parent.push(Some((id, t.clone())));
                    if pred(seen.resolve(next)) {
                        let mut path = Vec::new();
                        let mut cur = next;
                        while let Some((prev, task)) = &parent[cur.index()] {
                            path.push((task.clone(), seen.resolve(cur).clone()));
                            cur = *prev;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(next);
                }
            }
        }
        None
    }

    /// Given the terminating bivalent execution `α` (final state
    /// `cur`, task sequence `cur_tasks`) and the pinned task `e`, finds
    /// the valence flip along a path to an opposite-valued decision
    /// (the two-case analysis in the Lemma 5 proof).
    fn extract_hook(&self, cur: PackedState, cur_tasks: Vec<Task>, e: Task) -> HookOutcome<P> {
        let decode = |ps: &PackedState| self.packed.decode(ps);
        let e_cur = self
            .step(&e, &cur)
            .expect("the construction only terminates on an applicable task");
        let v = self.valence(&e_cur);
        let vbar = match v {
            Valence::Zero | Valence::One => v.opposite(),
            Valence::Bivalent => {
                unreachable!("construction terminated, so e(α) is univalent")
            }
            Valence::Undecided => {
                return HookOutcome::UndecidedRegion {
                    state: decode(&e_cur),
                };
            }
        };
        let wanted = vbar.decided_value().expect("vbar is univalent");

        // A descendant of α in which some process decides v̄ — exists
        // because α is bivalent.
        let path = self
            .bfs(&cur, None, |ps| self.map.has_decided_packed(ps, &wanted))
            .expect("bivalent states reach both decisions");

        // σ_0 = α; σ_{m+1} = e_m(σ_m) along the path. Scan t_m = e(σ_m)
        // for m up to (and including) the first e-labeled edge: for
        // those m the task e has not yet occurred on the path, so e is
        // applicable at σ_m (Lemma 1). When the edge at index `first_e`
        // is itself e, its endpoint σ_{first_e + 1} *is* e(σ_{first_e}).
        let (labels, rest): (Vec<Task>, Vec<PackedState>) = path.into_iter().unzip();
        let sigma: Vec<PackedState> = std::iter::once(cur).chain(rest).collect();
        let first_e = labels.iter().position(|t| *t == e).unwrap_or(labels.len());
        let t_of = |m: usize| -> PackedState {
            if m == first_e && first_e < labels.len() {
                sigma[m + 1].clone()
            } else {
                self.step(&e, &sigma[m])
                    .expect("e is applicable at e-free path prefixes (Lemma 1)")
            }
        };

        let mut prev_state = e_cur; // t_0 = e(σ_0)
        let mut prev_val = v;
        for m in 1..=first_e {
            let next_state = t_of(m);
            let next_val = self.valence(&next_state);
            if prev_val == v && next_val == vbar {
                // Hook found at σ_{m−1}: e flips valence across edge e_{m−1}.
                let mut alpha_tasks = cur_tasks;
                alpha_tasks.extend(labels[..m - 1].iter().cloned());
                return HookOutcome::Hook(Hook {
                    alpha_tasks,
                    alpha: decode(&sigma[m - 1]),
                    e,
                    e_prime: labels[m - 1].clone(),
                    s0: decode(&prev_state),
                    s_prime: decode(&sigma[m]),
                    s1: decode(&next_state),
                    v,
                });
            }
            prev_state = next_state;
            prev_val = next_val;
        }
        unreachable!(
            "a valence flip must occur at or before the first e-edge (Lemma 5 case analysis)"
        )
    }
}

/// Runs the Fig. 3 construction from the root of `map` (a bivalent
/// initialization) and extracts a hook. `sys` is the system `map` was
/// built from.
///
/// `max_iterations` bounds the number of bivalence-preserving
/// extension rounds before the construction gives up and reports
/// [`HookOutcome::EndlessBivalence`].
///
/// # Panics
///
/// Panics if the root of `map` is not bivalent — callers obtain it
/// from [`crate::init::find_bivalent_init`].
pub fn find_hook<P: ProcessAutomaton>(
    sys: &CompleteSystem<P>,
    map: &ValenceMap<P>,
    max_iterations: usize,
) -> HookOutcome<P> {
    assert_eq!(
        map.valence_id(map.root_id()),
        Valence::Bivalent,
        "the Fig. 3 construction starts from a bivalent initialization"
    );
    let walk = Walk {
        packed: map.packed_system(sys),
        map,
        tasks: sys.tasks(),
    };
    let tasks = &walk.tasks;
    let mut cur = map.packed_root().clone();
    let mut cur_tasks: Vec<Task> = Vec::new();
    let mut rr = 0usize;

    for _ in 0..max_iterations {
        // The next applicable task in round-robin order. Process tasks
        // are always applicable, so this terminates within one lap.
        let e = {
            let mut chosen = None;
            for off in 0..tasks.len() {
                let t = &tasks[(rr + off) % tasks.len()];
                if walk.packed.applicable(t, &cur) {
                    rr = (rr + off + 1) % tasks.len();
                    chosen = Some(t.clone());
                    break;
                }
            }
            chosen.expect("process tasks are always applicable")
        };

        // Seek a descendant α' (reachable without executing e) with
        // e(α') bivalent.
        let target = walk.bfs(&cur, Some(&e), |ps| {
            walk.step(&e, ps)
                .is_some_and(|t| walk.valence(&t) == Valence::Bivalent)
        });

        match target {
            Some(path) => {
                // Extend: α := e(α').
                let found = path.last().map_or(&cur, |(_, ps)| ps);
                let after_e = walk
                    .step(&e, found)
                    .expect("e was applicable at the found state");
                cur_tasks.extend(path.into_iter().map(|(t, _)| t));
                cur_tasks.push(e);
                cur = after_e;
            }
            None => {
                // Construction terminated: e(α') is univalent for every
                // e-free descendant α' of cur. Extract the hook.
                return walk.extract_hook(cur, cur_tasks, e);
            }
        }
    }
    HookOutcome::EndlessBivalence {
        iterations: max_iterations,
        state: walk.packed.decode(&cur),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{find_bivalent_init, InitOutcome};
    use services::atomic::CanonicalAtomicObject;
    use spec::seq::BinaryConsensus;
    use spec::{ProcId, SvcId};
    use std::sync::Arc;
    use system::process::direct::DirectConsensus;

    fn direct(n: usize, f: usize) -> CompleteSystem<DirectConsensus> {
        let endpoints: Vec<ProcId> = (0..n).map(ProcId).collect();
        let obj = CanonicalAtomicObject::new(Arc::new(BinaryConsensus), endpoints, f);
        CompleteSystem::new(DirectConsensus::new(SvcId(0)), n, vec![Arc::new(obj)])
    }

    fn hook_for(sys: &CompleteSystem<DirectConsensus>) -> Hook<DirectConsensus> {
        let InitOutcome::Bivalent { map, .. } = find_bivalent_init(sys, 1_000_000).unwrap() else {
            panic!("expected a bivalent init")
        };
        match find_hook(sys, &map, 10_000) {
            HookOutcome::Hook(h) => h,
            other => panic!("expected a hook, got {other:?}"),
        }
    }

    #[test]
    fn two_process_direct_system_has_a_hook() {
        let sys = direct(2, 0);
        let h = hook_for(&sys);
        // Hook well-formedness (Fig. 2): e ≠ e' (Claim 1 of Lemma 8)…
        assert_ne!(h.e, h.e_prime);
        // …and the valences are opposite.
        let InitOutcome::Bivalent { map, .. } = find_bivalent_init(&sys, 1_000_000).unwrap() else {
            unreachable!()
        };
        assert_eq!(map.valence(&h.s0), h.v);
        assert_eq!(map.valence(&h.s1), h.v.opposite());
        assert_eq!(map.valence(&h.alpha), Valence::Bivalent);
    }

    #[test]
    fn hook_transitions_are_genuine() {
        let sys = direct(2, 0);
        let h = hook_for(&sys);
        // s0 = e(α), s' = e'(α), s1 = e(s').
        let (_, s0) = sys.succ_det(&h.e, &h.alpha).unwrap();
        assert_eq!(s0, h.s0);
        let (_, sp) = sys.succ_det(&h.e_prime, &h.alpha).unwrap();
        assert_eq!(sp, h.s_prime);
        let (_, s1) = sys.succ_det(&h.e, &h.s_prime).unwrap();
        assert_eq!(s1, h.s1);
    }

    #[test]
    fn three_process_direct_system_has_a_hook() {
        let sys = direct(3, 1);
        let h = hook_for(&sys);
        assert_ne!(h.e, h.e_prime);
        assert!(h.v.is_univalent());
    }

    #[test]
    fn alpha_tasks_replay_to_alpha() {
        let sys = direct(2, 0);
        let h = hook_for(&sys);
        let InitOutcome::Bivalent { map, .. } = find_bivalent_init(&sys, 1_000_000).unwrap() else {
            unreachable!()
        };
        let mut s = map.root().clone();
        for t in &h.alpha_tasks {
            let (_, s2) = sys.succ_det(t, &s).expect("replayable task");
            s = s2;
        }
        assert_eq!(s, h.alpha);
    }
}

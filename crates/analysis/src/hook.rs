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
//! The search runs entirely over the [`ValenceMap`]'s interned graph:
//! frontiers and parent maps are indexed by dense [`StateId`]s, and
//! full `SystemState`s are only materialized at the hook's corners.
//!
//! For a candidate system that genuinely decides in failure-free fair
//! executions, the construction terminates (the paper's argument); the
//! iteration bound guards against candidates that instead sit in
//! endless bivalence — which is reported as its own witness shape.

use crate::valence::{Valence, ValenceMap};
use ioa::automaton::Automaton;
use ioa::store::StateId;
use std::collections::{HashMap, VecDeque};
use system::build::{CompleteSystem, SystemState};
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

/// Reusable scratch for [`bfs_in_map`]: the Fig. 3 construction runs
/// one BFS per iteration over the same graph, so the visited bitmap,
/// parent table and queue are allocated once per [`find_hook`] call
/// and wiped (an `O(n)` `fill`, no reallocation) between searches.
struct BfsScratch {
    seen: Vec<bool>,
    parent: Vec<Option<(StateId, Task)>>,
    queue: VecDeque<StateId>,
}

impl BfsScratch {
    fn new(n: usize) -> Self {
        BfsScratch {
            seen: vec![false; n],
            parent: vec![None; n],
            queue: VecDeque::new(),
        }
    }

    fn reset(&mut self) {
        self.seen.fill(false);
        self.parent.fill(None);
        self.queue.clear();
    }
}

/// Breadth-first search within the valence map's interned graph from
/// `from`, following only edges whose task differs from `banned` (when
/// given), for the first state satisfying `pred`. Returns the
/// `(task, state id)` path.
fn bfs_in_map<P, F>(
    map: &ValenceMap<P>,
    scratch: &mut BfsScratch,
    from: StateId,
    banned: Option<&Task>,
    pred: F,
) -> Option<(Vec<(Task, StateId)>, StateId)>
where
    P: ProcessAutomaton,
    F: Fn(StateId) -> bool,
{
    if pred(from) {
        return Some((Vec::new(), from));
    }
    scratch.reset();
    let BfsScratch {
        seen,
        parent,
        queue,
    } = scratch;
    seen[from.index()] = true;
    queue.push_back(from);
    while let Some(s) = queue.pop_front() {
        for (t, _, s2) in map.successors(s) {
            if banned == Some(t) || seen[s2.index()] {
                continue;
            }
            seen[s2.index()] = true;
            parent[s2.index()] = Some((s, t.clone()));
            if pred(*s2) {
                let mut path = Vec::new();
                let mut cur = *s2;
                while let Some((prev, task)) = &parent[cur.index()] {
                    path.push((task.clone(), cur));
                    cur = *prev;
                }
                path.reverse();
                return Some((path, *s2));
            }
            queue.push_back(*s2);
        }
    }
    None
}

/// Runs the Fig. 3 construction from the root of `map` (a bivalent
/// initialization) and extracts a hook.
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
    if map.symmetric() {
        // Quotient edges lead to orbit *representatives*, so a path in
        // the interned graph is not an execution: each hop's task label
        // would need conjugating by that hop's canonicalizing
        // permutation, and the banned-task filter below would ban the
        // wrong concrete task. Walk the concrete transition system
        // instead, using the quotient map purely as a valence oracle.
        return find_hook_concrete(sys, map, max_iterations);
    }
    let tasks = sys.tasks();
    let mut cur: StateId = map.root_id();
    let mut cur_tasks: Vec<Task> = Vec::new();
    let mut rr = 0usize;
    let mut scratch = BfsScratch::new(map.state_count());

    for iteration in 0..max_iterations {
        // The next applicable task in round-robin order. Process tasks
        // are always applicable, so this terminates within one lap.
        let e = {
            let mut chosen = None;
            for off in 0..tasks.len() {
                let t = &tasks[(rr + off) % tasks.len()];
                if sys.applicable(t, map.resolve(cur)) {
                    rr = (rr + off + 1) % tasks.len();
                    chosen = Some(t.clone());
                    break;
                }
            }
            chosen.expect("process tasks are always applicable")
        };

        // Seek a descendant α' (reachable without executing e) with
        // e(α') bivalent. e(α') is itself in the graph: it is reachable
        // from α' by the task e (or equals α', for a self-loop).
        let target = bfs_in_map(map, &mut scratch, cur, Some(&e), |id| {
            match sys.succ_det(&e, map.resolve(id)) {
                Some((_, t)) => map.valence(&t) == Valence::Bivalent,
                None => false,
            }
        });

        match target {
            Some((path, found)) => {
                // Extend: α := e(α').
                cur_tasks.extend(path.into_iter().map(|(t, _)| t));
                let (_, after_e) = sys
                    .succ_det(&e, map.resolve(found))
                    .expect("e was applicable at the found state");
                cur_tasks.push(e);
                cur = map
                    .id_of(&after_e)
                    .expect("e(α') is reachable, hence interned");
                let _ = iteration;
            }
            None => {
                // Construction terminated: e(α') is univalent for every
                // e-free descendant α' of cur. Extract the hook.
                return extract_hook(sys, map, &mut scratch, cur, cur_tasks, e);
            }
        }
    }
    HookOutcome::EndlessBivalence {
        iterations: max_iterations,
        state: map.resolve(cur).clone(),
    }
}

/// Given the terminating bivalent execution `α` (state id `cur`, task
/// sequence `cur_tasks`) and the pinned task `e`, finds the valence
/// flip along a path to an opposite-valued decision (the two-case
/// analysis in the Lemma 5 proof).
fn extract_hook<P: ProcessAutomaton>(
    sys: &CompleteSystem<P>,
    map: &ValenceMap<P>,
    scratch: &mut BfsScratch,
    cur: StateId,
    cur_tasks: Vec<Task>,
    e: Task,
) -> HookOutcome<P> {
    let cur_state = map.resolve(cur).clone();
    let (_, e_cur) = sys
        .succ_det(&e, &cur_state)
        .expect("the construction only terminates on an applicable task");
    let v = map.valence(&e_cur);
    let vbar = match v {
        Valence::Zero | Valence::One => v.opposite(),
        Valence::Bivalent => {
            unreachable!("construction terminated, so e(α) is univalent")
        }
        Valence::Undecided => {
            return HookOutcome::UndecidedRegion { state: e_cur };
        }
    };
    let wanted = vbar.decided_value().expect("vbar is univalent");

    // A descendant of α in which some process decides v̄ — exists
    // because α is bivalent.
    let (path, _) = bfs_in_map(map, scratch, cur, None, |id| {
        map.has_decided_id(id, &wanted)
    })
    .expect("bivalent states reach both decisions");

    // σ_0 = α; σ_{m+1} = e_m(σ_m) along the path. Scan t_m = e(σ_m)
    // for m up to (and including) the first e-labeled edge: for those m
    // the task e has not yet occurred on the path, so e is applicable
    // at σ_m (Lemma 1). When the edge at index `first_e` is itself e,
    // its endpoint σ_{first_e + 1} *is* e(σ_{first_e}).
    let mut sigma: Vec<SystemState<P::State>> = vec![cur_state];
    let mut labels: Vec<Task> = Vec::new();
    for (t, id) in &path {
        sigma.push(map.resolve(*id).clone());
        labels.push(t.clone());
    }
    let first_e = labels.iter().position(|t| *t == e).unwrap_or(labels.len());
    let upper = first_e.min(labels.len());
    let t_of = |m: usize| -> SystemState<P::State> {
        if m == first_e && first_e < labels.len() {
            sigma[m + 1].clone()
        } else {
            sys.succ_det(&e, &sigma[m])
                .expect("e is applicable at e-free path prefixes (Lemma 1)")
                .1
        }
    };

    let mut prev_state = e_cur; // t_0 = e(σ_0)
    let mut prev_val = v;
    for m in 1..=upper {
        let next_state = t_of(m);
        let next_val = map.valence(&next_state);
        if prev_val == v && next_val == vbar {
            // Hook found at σ_{m−1}: e flips valence across edge e_{m−1}.
            let e_prime = labels[m - 1].clone();
            let mut alpha_tasks = cur_tasks;
            alpha_tasks.extend(labels[..m - 1].iter().cloned());
            return HookOutcome::Hook(Hook {
                alpha_tasks,
                alpha: sigma[m - 1].clone(),
                e,
                e_prime,
                s0: prev_state,
                s_prime: sigma[m].clone(),
                s1: next_state,
                v,
            });
        }
        prev_state = next_state;
        prev_val = next_val;
    }
    unreachable!("a valence flip must occur at or before the first e-edge (Lemma 5 case analysis)")
}

/// Breadth-first search over *concrete* system states from `from`,
/// following only edges whose task differs from `banned` (when given)
/// and skipping self-loops, for the first state satisfying `pred`.
/// Returns the `(task, state)` path. Used for symmetry-quotient maps,
/// where [`bfs_in_map`]'s interned edges do not correspond to concrete
/// executions.
fn bfs_concrete<P, F>(
    sys: &CompleteSystem<P>,
    tasks: &[Task],
    from: &SystemState<P::State>,
    banned: Option<&Task>,
    pred: F,
) -> Option<Vec<(Task, SystemState<P::State>)>>
where
    P: ProcessAutomaton,
    F: Fn(&SystemState<P::State>) -> bool,
{
    if pred(from) {
        return Some(Vec::new());
    }
    // Nodes are kept in discovery order; `seen` maps a state to its
    // node index so parents can be chased for path reconstruction.
    type Node<S> = (SystemState<S>, Option<(usize, Task)>);
    let mut nodes: Vec<Node<P::State>> = vec![(from.clone(), None)];
    let mut seen: HashMap<SystemState<P::State>, usize> = HashMap::new();
    seen.insert(from.clone(), 0);
    let mut queue: VecDeque<usize> = VecDeque::new();
    queue.push_back(0);
    while let Some(idx) = queue.pop_front() {
        for t in tasks {
            if banned == Some(t) {
                continue;
            }
            let succs = sys.succ_all(t, &nodes[idx].0);
            for (_, s2) in succs {
                if s2 == nodes[idx].0 || seen.contains_key(&s2) {
                    continue;
                }
                let next = nodes.len();
                seen.insert(s2.clone(), next);
                nodes.push((s2, Some((idx, t.clone()))));
                if pred(&nodes[next].0) {
                    let mut path = Vec::new();
                    let mut cur = next;
                    while let Some((prev, task)) = nodes[cur].1.clone() {
                        path.push((task, nodes[cur].0.clone()));
                        cur = prev;
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

/// The Fig. 3 construction over the *concrete* transition system,
/// consulting the symmetry-quotient `map` only as a valence oracle
/// (its lookups canonicalize, so any concrete reachable state
/// resolves). The hook it returns is fully concrete: `alpha_tasks`
/// replays verbatim from the root, no permutation lifting needed.
fn find_hook_concrete<P: ProcessAutomaton>(
    sys: &CompleteSystem<P>,
    map: &ValenceMap<P>,
    max_iterations: usize,
) -> HookOutcome<P> {
    let tasks = sys.tasks();
    let mut cur: SystemState<P::State> = map.root().clone();
    let mut cur_tasks: Vec<Task> = Vec::new();
    let mut rr = 0usize;

    for _iteration in 0..max_iterations {
        let e = {
            let mut chosen = None;
            for off in 0..tasks.len() {
                let t = &tasks[(rr + off) % tasks.len()];
                if sys.applicable(t, &cur) {
                    rr = (rr + off + 1) % tasks.len();
                    chosen = Some(t.clone());
                    break;
                }
            }
            chosen.expect("process tasks are always applicable")
        };

        let target = bfs_concrete(sys, &tasks, &cur, Some(&e), |s| match sys.succ_det(&e, s) {
            Some((_, t)) => map.valence(&t) == Valence::Bivalent,
            None => false,
        });

        match target {
            Some(path) => {
                let found = path.last().map_or_else(|| cur.clone(), |(_, s)| s.clone());
                cur_tasks.extend(path.into_iter().map(|(t, _)| t));
                let (_, after_e) = sys
                    .succ_det(&e, &found)
                    .expect("e was applicable at the found state");
                cur_tasks.push(e);
                cur = after_e;
            }
            None => {
                return extract_hook_concrete(sys, map, &tasks, cur, cur_tasks, e);
            }
        }
    }
    HookOutcome::EndlessBivalence {
        iterations: max_iterations,
        state: cur,
    }
}

/// Concrete-state mirror of [`extract_hook`]: the same Lemma 5 flip
/// scan, but over a concrete decision path so every corner state and
/// task label of the returned hook belongs to one genuine execution.
fn extract_hook_concrete<P: ProcessAutomaton>(
    sys: &CompleteSystem<P>,
    map: &ValenceMap<P>,
    tasks: &[Task],
    cur_state: SystemState<P::State>,
    cur_tasks: Vec<Task>,
    e: Task,
) -> HookOutcome<P> {
    let (_, e_cur) = sys
        .succ_det(&e, &cur_state)
        .expect("the construction only terminates on an applicable task");
    let v = map.valence(&e_cur);
    let vbar = match v {
        Valence::Zero | Valence::One => v.opposite(),
        Valence::Bivalent => {
            unreachable!("construction terminated, so e(α) is univalent")
        }
        Valence::Undecided => {
            return HookOutcome::UndecidedRegion { state: e_cur };
        }
    };
    let wanted = vbar.decided_value().expect("vbar is univalent");

    let path = bfs_concrete(sys, tasks, &cur_state, None, |s| {
        sys.decided_values(s).contains(&wanted)
    })
    .expect("bivalent states reach both decisions");

    let mut sigma: Vec<SystemState<P::State>> = vec![cur_state];
    let mut labels: Vec<Task> = Vec::new();
    for (t, s) in path {
        sigma.push(s);
        labels.push(t);
    }
    let first_e = labels.iter().position(|t| *t == e).unwrap_or(labels.len());
    let upper = first_e.min(labels.len());
    let t_of = |m: usize| -> SystemState<P::State> {
        if m == first_e && first_e < labels.len() {
            sigma[m + 1].clone()
        } else {
            sys.succ_det(&e, &sigma[m])
                .expect("e is applicable at e-free path prefixes (Lemma 1)")
                .1
        }
    };

    let mut prev_state = e_cur;
    let mut prev_val = v;
    for m in 1..=upper {
        let next_state = t_of(m);
        let next_val = map.valence(&next_state);
        if prev_val == v && next_val == vbar {
            let e_prime = labels[m - 1].clone();
            let mut alpha_tasks = cur_tasks;
            alpha_tasks.extend(labels[..m - 1].iter().cloned());
            return HookOutcome::Hook(Hook {
                alpha_tasks,
                alpha: sigma[m - 1].clone(),
                e,
                e_prime,
                s0: prev_state,
                s_prime: sigma[m].clone(),
                s1: next_state,
                v,
            });
        }
        prev_state = next_state;
        prev_val = next_val;
    }
    unreachable!("a valence flip must occur at or before the first e-edge (Lemma 5 case analysis)")
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

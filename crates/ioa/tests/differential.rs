//! Differential tests for the interned exploration core: the id-based
//! BFS in `ioa::explore` must be observationally identical to the
//! naive state-keyed exploration it replaced (same reachable sets,
//! same truncation, same shortest-path lengths, same graph shape).
//!
//! The naive reference implementations below reproduce the seed
//! algorithms verbatim: `HashSet`/`HashMap` keyed on full states, one
//! clone + hash per visit. Randomized cases are generated from the
//! in-tree SplitMix64 stream, so every case is replayable from its
//! seed.

use ioa::automaton::{ActionKind, Automaton};
use ioa::explore::{ExploredGraph, Truncation};
use ioa::rng::SplitMix64;
use std::collections::{HashMap, HashSet, VecDeque};

/// A branching table automaton: `table[t][s]` lists the successors of
/// state `s` under task `t` (possibly several — real nondeterminism —
/// or none).
#[derive(Clone, Debug)]
struct Branching {
    table: Vec<Vec<Vec<usize>>>,
}

impl Automaton for Branching {
    type State = usize;
    type Action = (usize, usize); // (task, branch index)
    type Task = usize;

    fn initial_states(&self) -> Vec<usize> {
        vec![0]
    }
    fn tasks(&self) -> Vec<usize> {
        (0..self.table.len()).collect()
    }
    fn succ_all(&self, t: &usize, s: &usize) -> Vec<((usize, usize), usize)> {
        self.table[*t][*s]
            .iter()
            .enumerate()
            .map(|(b, to)| ((*t, b), *to))
            .collect()
    }
    fn apply_input(&self, _s: &usize, _a: &(usize, usize)) -> Option<usize> {
        None
    }
    fn kind(&self, _a: &(usize, usize)) -> ActionKind {
        ActionKind::Internal
    }
}

fn random_branching(g: &mut SplitMix64, states: usize, tasks: usize) -> Branching {
    let table = (0..tasks)
        .map(|_| {
            (0..states)
                .map(|_| {
                    let branches = g.gen_range(3); // 0..=2 successors
                    (0..branches).map(|_| g.gen_range(states)).collect()
                })
                .collect()
        })
        .collect();
    Branching { table }
}

/// The seed's `reachable_states`: state-keyed seen-set, one clone per
/// enqueue, truncation by skipping inserts past the budget.
fn naive_reachable<A: Automaton>(
    aut: &A,
    roots: Vec<A::State>,
    max_states: usize,
) -> (HashSet<A::State>, bool) {
    let tasks = aut.tasks();
    let mut states: HashSet<A::State> = HashSet::new();
    let mut queue: VecDeque<A::State> = VecDeque::new();
    let mut truncated = false;
    for r in roots {
        if states.insert(r.clone()) {
            queue.push_back(r);
        }
    }
    while let Some(s) = queue.pop_front() {
        for t in &tasks {
            for (_, s2) in aut.succ_all(t, &s) {
                if !states.contains(&s2) {
                    if states.len() >= max_states {
                        truncated = true;
                        continue;
                    }
                    states.insert(s2.clone());
                    queue.push_back(s2);
                }
            }
        }
    }
    (states, truncated)
}

/// State-keyed BFS distance to the first state satisfying `pred`
/// (`Some(0)` if the root itself matches).
fn naive_distance<A: Automaton>(
    aut: &A,
    root: &A::State,
    pred: impl Fn(&A::State) -> bool,
) -> Option<usize> {
    if pred(root) {
        return Some(0);
    }
    let tasks = aut.tasks();
    let mut dist: HashMap<A::State, usize> = HashMap::from([(root.clone(), 0)]);
    let mut queue: VecDeque<A::State> = VecDeque::from([root.clone()]);
    while let Some(s) = queue.pop_front() {
        let d = dist[&s];
        for t in &tasks {
            for (_, s2) in aut.succ_all(t, &s) {
                if !dist.contains_key(&s2) {
                    dist.insert(s2.clone(), d + 1);
                    if pred(&s2) {
                        return Some(d + 1);
                    }
                    queue.push_back(s2);
                }
            }
        }
    }
    None
}

#[test]
fn reach_matches_the_naive_reference() {
    let mut g = SplitMix64::seed_from_u64(0xd1ff_0001);
    for _ in 0..48 {
        let aut = random_branching(&mut g, 10, 3);
        // Ample budget: exact equality, no truncation.
        let (naive, naive_trunc) = naive_reachable(&aut, vec![0], 10_000);
        let ours = ExploredGraph::explore(&aut, vec![0], 10_000);
        assert_eq!(ours.len(), naive.len(), "{aut:?}");
        assert!(naive.iter().all(|s| ours.contains(s)), "{aut:?}");
        assert_eq!(ours.stats().truncated(), naive_trunc);
        assert!(!ours.stats().truncated());
        // Tight budget: both keep exactly the first `cap` states in
        // BFS discovery order, so the kept sets also agree.
        let cap = 1 + g.gen_range(naive.len());
        let (naive_t, naive_t_trunc) = naive_reachable(&aut, vec![0], cap);
        let ours_t = ExploredGraph::explore(&aut, vec![0], cap);
        let kept: HashSet<usize> = ours_t.store().states().iter().copied().collect();
        assert_eq!(kept, naive_t, "cap={cap} {aut:?}");
        assert_eq!(
            ours_t.stats().truncated(),
            naive_t_trunc,
            "cap={cap} {aut:?}"
        );
    }
}

#[test]
fn search_matches_the_naive_shortest_distance() {
    let mut g = SplitMix64::seed_from_u64(0xd1ff_0002);
    for _ in 0..48 {
        let aut = random_branching(&mut g, 10, 3);
        let target = g.gen_range(10);
        let naive = naive_distance(&aut, &0, |s| *s == target);
        let graph = ExploredGraph::explore(&aut, vec![0], 10_000);
        assert!(!graph.stats().truncated(), "budget was ample");
        // Ids follow discovery order: the first matching id is the
        // first match the BFS met, and its tree path is a shortest one.
        let first = graph.ids().find(|&id| *graph.resolve(id) == target);
        match first {
            Some(id) => {
                let path = graph.path_to(id);
                assert_eq!(Some(path.len()), naive, "{aut:?} target={target}");
                if let Some((_, last)) = path.last() {
                    assert_eq!(*last, target);
                }
            }
            None => assert_eq!(naive, None, "{aut:?} target={target}"),
        }
    }
}

#[test]
fn explored_graph_matches_the_naive_transition_structure() {
    let mut g = SplitMix64::seed_from_u64(0xd1ff_0003);
    for _ in 0..48 {
        let aut = random_branching(&mut g, 10, 3);
        let (naive, _) = naive_reachable(&aut, vec![0], 10_000);
        let graph = ExploredGraph::explore(&aut, vec![0], 10_000);
        assert!(!graph.stats().truncated());
        // Same node set…
        let node_set: HashSet<usize> = graph.store().states().iter().copied().collect();
        assert_eq!(node_set, naive, "{aut:?}");
        // …and per-state edges exactly as succ_all dictates, in order,
        // each naming its task by index into the automaton's task list.
        assert_eq!(graph.tasks(), aut.tasks().as_slice(), "{aut:?}");
        let mut total_edges = 0usize;
        for id in graph.ids() {
            let s = *graph.resolve(id);
            let expected: Vec<(usize, usize)> = aut
                .tasks()
                .iter()
                .flat_map(|t| aut.succ_all(t, &s).into_iter().map(|(_, s2)| (*t, s2)))
                .collect();
            let actual: Vec<(usize, usize)> = graph
                .successors(id)
                .iter()
                .map(|&(k, dst)| (graph.tasks()[k as usize], *graph.resolve(dst)))
                .collect();
            assert_eq!(actual, expected, "state {s} of {aut:?}");
            total_edges += actual.len();
        }
        assert_eq!(graph.stats().edges, total_edges);
    }
}

#[test]
fn truncated_graphs_account_for_every_discovered_transition() {
    let mut g = SplitMix64::seed_from_u64(0xd1ff_0004);
    for _ in 0..32 {
        let aut = random_branching(&mut g, 12, 3);
        let (full, _) = naive_reachable(&aut, vec![0], 10_000);
        if full.len() < 3 {
            continue;
        }
        let cap = 1 + g.gen_range(full.len() - 1);
        let graph = ExploredGraph::explore(&aut, vec![0], cap);
        // Every kept state is expanded, so each of its transitions is
        // either a retained edge (target admitted) or a counted drop.
        let kept: HashSet<usize> = graph.store().states().iter().copied().collect();
        let mut expect_kept = 0usize;
        let mut expect_dropped = 0usize;
        for &s in &kept {
            for t in aut.tasks() {
                for (_, s2) in aut.succ_all(&t, &s) {
                    if kept.contains(&s2) {
                        expect_kept += 1;
                    } else {
                        expect_dropped += 1;
                    }
                }
            }
        }
        assert_eq!(graph.stats().edges, expect_kept, "{aut:?} cap={cap}");
        match graph.stats().truncation {
            Truncation::Complete => assert_eq!(expect_dropped, 0),
            Truncation::StateBudget {
                budget,
                dropped_edges,
            } => {
                assert_eq!(budget, cap);
                assert_eq!(dropped_edges, expect_dropped, "{aut:?} cap={cap}");
            }
        }
    }
}

//! Backward bit-lane fixpoints over reverse-CSR adjacency.
//!
//! Two propagation disciplines cover every backward analysis the
//! workspace runs over an explored graph:
//!
//! * **union** (existential): a state acquires a lane bit as soon as
//!   *some* successor has it. This is the decided-set machinery behind
//!   [`analysis`'s valence map](../analysis/index.html): "a decision
//!   value is reachable from `s` iff it is recorded at `s` or reachable
//!   from some successor". It also answers `exists_path`-style
//!   questions seeded at goal states.
//! * **universal**: a state acquires a lane bit only when *every*
//!   successor has it (and it has at least one successor). This is the
//!   least-fixpoint formulation of `eventually` (CTL's `AF`): every
//!   maximal path from `s` hits a goal state. Cycles and terminal
//!   non-goal states correctly never acquire the bit.
//!
//! Both engines run over a reverse CSR (`preds.row(s)` = predecessors
//! of `s`, one entry per forward edge — see [`crate::csr::Csr::reversed`])
//! and need nothing else from the graph: the universal engine counts
//! each state's out-degree as its number of entries across all rows.
//! They propagate up to 64 independent lanes at once, so a batch of
//! properties shares a single worklist sweep instead of re-walking the
//! graph once per property. Fixpoints of monotone bit functions are
//! confluent: the result is independent of worklist order and of how
//! the underlying graph was explored.

use crate::csr::Csr;
use crate::store::StateId;

/// Maximum number of lanes either engine propagates in one sweep.
pub const MAX_LANES: usize = 64;

/// Existential (union) backward fixpoint:
/// `masks[s] := seed(s) | ⋃ { masks[s'] : s → s' }`.
///
/// `masks` holds the seed bits on entry and the fixpoint on exit. Each
/// reverse edge is re-examined only when its target gains bits, so the
/// sweep is `O(V + E·L)` for `L` occupied lanes in the worst case and
/// proportional to the propagation frontier in practice.
pub fn backward_union(preds: &Csr<StateId>, masks: &mut [u64]) {
    assert_eq!(preds.rows(), masks.len(), "one mask per state");
    let mut in_queue = vec![false; masks.len()];
    let mut work: Vec<u32> = Vec::new();
    for (i, m) in masks.iter().enumerate() {
        if *m != 0 {
            in_queue[i] = true;
            work.push(i as u32);
        }
    }
    while let Some(t) = work.pop() {
        let ti = t as usize;
        in_queue[ti] = false;
        let m = masks[ti];
        for p in preds.row(ti) {
            let pi = p.index();
            if masks[pi] | m != masks[pi] {
                masks[pi] |= m;
                if !in_queue[pi] {
                    in_queue[pi] = true;
                    work.push(pi as u32);
                }
            }
        }
    }
}

/// Universal backward fixpoint (least fixpoint of `AF`):
/// `masks[s] := seed(s) | { j : out_degree(s) > 0 ∧ ∀ s → s'. j ∈ masks[s'] }`.
///
/// `masks` holds the seed (goal) bits on entry and the fixpoint on
/// exit. A state's out-degree is its number of entries in `preds`
/// (one per forward edge, parallel edges counted). `lanes` bounds the
/// occupied bit positions; bits at `lanes` and above must be zero in
/// every seed.
///
/// Each `(reverse edge, lane)` pair is processed at most once — the
/// whole batch of lanes costs one sweep.
pub fn backward_universal(preds: &Csr<StateId>, lanes: usize, masks: &mut [u64]) {
    assert_eq!(preds.rows(), masks.len(), "one mask per state");
    assert!(lanes <= MAX_LANES, "at most {MAX_LANES} lanes per sweep");
    let lane_guard = if lanes == MAX_LANES {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    };
    debug_assert!(masks.iter().all(|m| m & !lane_guard == 0));

    let mut out_degree = vec![0u32; masks.len()];
    for (_, p) in preds.iter() {
        out_degree[p.index()] += 1;
    }
    // remaining[s * lanes + j] = successors of s not yet known to carry
    // lane j. A seeded state carries its lanes unconditionally, so its
    // counters for those lanes are never consulted.
    let mut remaining: Vec<u32> = Vec::with_capacity(masks.len() * lanes);
    for d in out_degree {
        remaining.extend(std::iter::repeat_n(d, lanes));
    }
    let mut work: Vec<(u32, u64)> = masks
        .iter()
        .enumerate()
        .filter(|(_, m)| **m != 0)
        .map(|(i, m)| (i as u32, *m))
        .collect();
    while let Some((t, delta)) = work.pop() {
        for p in preds.row(t as usize) {
            let pi = p.index();
            let mut gained = 0u64;
            // Lanes p already carries need no counting; the rest each
            // lose one outstanding successor.
            let mut bits = delta & !masks[pi];
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let c = &mut remaining[pi * lanes + j];
                *c -= 1;
                if *c == 0 {
                    gained |= 1 << j;
                }
            }
            if gained != 0 {
                masks[pi] |= gained;
                work.push((pi as u32, gained));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a reverse CSR from forward edges over `n` states.
    fn reverse_of(n: usize, edges: &[(usize, usize)]) -> Csr<StateId> {
        let mut fwd: Csr<StateId> = Csr::new();
        for s in 0..n {
            for (a, b) in edges {
                if *a == s {
                    fwd.push(StateId::from_index(*b));
                }
            }
            fwd.close_row();
        }
        fwd.reversed(|t| t.index(), |src, _| StateId::from_index(src))
    }

    #[test]
    fn union_propagates_to_all_ancestors() {
        // 0 → 1 → 2, 0 → 3; seed lane 0 at state 2, lane 1 at state 3.
        let preds = reverse_of(4, &[(0, 1), (1, 2), (0, 3)]);
        let mut m = vec![0, 0, 0b01, 0b10];
        backward_union(&preds, &mut m);
        assert_eq!(m, vec![0b11, 0b01, 0b01, 0b10]);
    }

    #[test]
    fn union_crosses_cycles() {
        // 0 ⇄ 1, 1 → 2; seed at 2 reaches both cycle states.
        let preds = reverse_of(3, &[(0, 1), (1, 0), (1, 2)]);
        let mut m = vec![0, 0, 1];
        backward_union(&preds, &mut m);
        assert_eq!(m, vec![1, 1, 1]);
    }

    #[test]
    fn universal_requires_all_branches() {
        // 0 → {1, 2}; 1 → 3; 2 → 3. Goal = {3}: every maximal path
        // reaches it, so AF holds everywhere.
        let preds = reverse_of(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let mut m = vec![0, 0, 0, 1];
        backward_universal(&preds, 1, &mut m);
        assert_eq!(m, vec![1, 1, 1, 1]);
    }

    #[test]
    fn universal_fails_on_escaping_branch_and_cycles() {
        // 0 → {1, 2}; 1 → goal 3; 2 → 2′ loop (4 ⇄ 2). The branch into
        // the cycle never reaches the goal, so AF fails at 0 and 2.
        let preds = reverse_of(5, &[(0, 1), (0, 2), (1, 3), (2, 4), (4, 2)]);
        let mut m = vec![0, 0, 0, 1, 0];
        backward_universal(&preds, 1, &mut m);
        assert_eq!(m, vec![0, 1, 0, 1, 0]);
    }

    #[test]
    fn universal_terminal_non_goal_states_stay_unset() {
        // 0 → 1 (terminal, not a goal): AF(goal) false at both.
        let preds = reverse_of(2, &[(0, 1)]);
        let mut m = vec![0, 0];
        backward_universal(&preds, 1, &mut m);
        assert_eq!(m, vec![0, 0]);
    }

    #[test]
    fn universal_runs_many_lanes_in_one_sweep() {
        // Chain 0 → 1 → 2 with distinct goals per lane: lane j seeded
        // at state j reaches exactly states 0..=j.
        let preds = reverse_of(3, &[(0, 1), (1, 2)]);
        let mut m = vec![0b001, 0b010, 0b100];
        backward_universal(&preds, 3, &mut m);
        assert_eq!(m, vec![0b111, 0b110, 0b100]);
    }
}

//! Statistics and rendering for the execution graph `G(C)`
//! (paper Section 3.3).
//!
//! [`census`] summarizes the valence landscape of a reachable space —
//! how many states are 0-valent, 1-valent, bivalent or undecided — and
//! [`to_dot`] renders a bounded neighbourhood of `G(C)` (typically the
//! one around a hook) as Graphviz DOT, with nodes coloured by valence.
//! Neither is needed by the proofs; both exist to make the proof
//! objects inspectable.
//!
//! Both ride on the [`ValenceMap`]'s interned graph: the census is a
//! single scan of the id-indexed valence table (every interned state is
//! reachable from the root by construction), and the DOT renderer walks
//! dense [`StateId`]s instead of cloning `SystemState` keys.

use crate::hook::Hook;
use crate::valence::{Valence, ValenceMap};
use ioa::canon::Perm;
use ioa::store::StateId;
use std::collections::VecDeque;
use std::fmt::Write as _;
use system::build::SystemState;
use system::packed::{canonical_system_state_with, permute_task};
use system::process::ProcessAutomaton;
use system::Task;

/// Counts of states per valence class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Census {
    /// 0-valent states.
    pub zero: usize,
    /// 1-valent states.
    pub one: usize,
    /// Bivalent states.
    pub bivalent: usize,
    /// States from which no decision is reachable.
    pub undecided: usize,
}

impl Census {
    /// Total states counted.
    pub fn total(&self) -> usize {
        self.zero + self.one + self.bivalent + self.undecided
    }

    /// Fraction of bivalent states (0 when empty).
    pub fn bivalent_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.bivalent as f64 / self.total() as f64
        }
    }
}

impl std::fmt::Display for Census {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} states: {} bivalent, {} 0-valent, {} 1-valent, {} undecided",
            self.total(),
            self.bivalent,
            self.zero,
            self.one,
            self.undecided
        )
    }
}

/// Classifies every state of the valence map — one linear scan of the
/// id-indexed valence table, no hashing or graph walk.
pub fn census<P: ProcessAutomaton>(map: &ValenceMap<P>) -> Census {
    let mut c = Census::default();
    for v in map.valences() {
        match v {
            Valence::Zero => c.zero += 1,
            Valence::One => c.one += 1,
            Valence::Bivalent => c.bivalent += 1,
            Valence::Undecided => c.undecided += 1,
        }
    }
    c
}

/// Escapes a string for inclusion inside a double-quoted DOT string
/// literal: backslashes first (so escapes are not double-escaped),
/// then quotes. Without this, any `Val::Sym`/`Inv` debug text or named
/// global task containing `"` or `\` produces syntactically invalid
/// DOT.
fn escape_dot(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn color(v: Valence) -> &'static str {
    match v {
        Valence::Zero => "#7eb6ff",      // blue: committed to 0
        Valence::One => "#ffb37e",       // orange: committed to 1
        Valence::Bivalent => "#c7e9c0",  // green: still open
        Valence::Undecided => "#d9d9d9", // grey
    }
}

/// The frame of the map node `s` resolves to: the permutation `σ`
/// with `σ · s` the interned state — the canonicalizing permutation in
/// a quotient map, the identity at the raw root and in a concrete map.
fn frame<P: ProcessAutomaton>(map: &ValenceMap<P>, s: &SystemState<P::State>) -> Perm {
    match map.sym() {
        Some(group) if s != map.root() => canonical_system_state_with(group, s).1,
        _ => Perm::identity(s.procs.len()),
    }
}

/// Renders the neighbourhood of `G(C)` within `radius` task-steps of
/// `center` as Graphviz DOT, colouring nodes by valence and
/// (optionally) highlighting a hook's states and edges.
///
/// The hook is concrete, but a quotient map's edges out of a node
/// carry task labels in its representative's frame: the hook edge `t`
/// out of corner `c` is the edge `σ_c(t)` out of `rep(c)`, where `σ_c`
/// canonicalizes `c`. The marked edges are `σ_α(e)` and `σ_α(e')` out
/// of `α`'s node and `σ_{s'}(e)` out of `s'`'s node.
pub fn to_dot<P: ProcessAutomaton>(
    map: &ValenceMap<P>,
    center: &SystemState<P::State>,
    radius: usize,
    hook: Option<&Hook<P>>,
) -> String {
    // BFS out to `radius`, assigning compact node indices; `index` is a
    // dense per-id table, not a state-keyed map.
    let mut ids: Vec<StateId> = Vec::new();
    let mut index: Vec<Option<usize>> = vec![None; map.state_count()];
    let mut frontier: VecDeque<(StateId, usize)> = VecDeque::new();
    if let Some(c) = map.id_of(center) {
        index[c.index()] = Some(0);
        ids.push(c);
        frontier.push_back((c, 0));
    }
    while let Some((s, d)) = frontier.pop_front() {
        if d >= radius {
            continue;
        }
        for &(_, s2) in map.successors(s) {
            if index[s2.index()].is_none() {
                index[s2.index()] = Some(ids.len());
                ids.push(s2);
                frontier.push_back((s2, d + 1));
            }
        }
    }

    let hook_ids: Vec<Option<StateId>> = hook
        .map(|h| {
            vec![
                map.id_of(&h.alpha),
                map.id_of(&h.s0),
                map.id_of(&h.s_prime),
                map.id_of(&h.s1),
            ]
        })
        .unwrap_or_default();
    let hook_edges: Vec<(Option<StateId>, Task)> = hook
        .map(|h| {
            let (alpha, s_prime) = (frame(map, &h.alpha), frame(map, &h.s_prime));
            let alpha_id = map.id_of(&h.alpha);
            vec![
                (alpha_id, permute_task(&alpha, &h.e)),
                (alpha_id, permute_task(&alpha, &h.e_prime)),
                (map.id_of(&h.s_prime), permute_task(&s_prime, &h.e)),
            ]
        })
        .unwrap_or_default();

    let mut out = String::new();
    out.push_str("digraph GC {\n  rankdir=LR;\n  node [style=filled, shape=circle, label=\"\"];\n");
    for (idx, s) in ids.iter().enumerate() {
        let v = map.valence_id(*s);
        let extra = if hook_ids.contains(&Some(*s)) {
            ", penwidth=3, color=red"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  n{idx} [fillcolor=\"{}\", tooltip=\"{}\"{extra}];",
            color(v),
            escape_dot(&format!("{:?}: {:?}", v, map.resolve(*s))),
        );
    }
    for s in &ids {
        let from = index[s.index()].expect("listed nodes are indexed");
        for &(k, s2) in map.successors(*s) {
            let t = &map.tasks()[k as usize];
            if let Some(to) = index[s2.index()] {
                let is_hook_edge = hook_edges
                    .iter()
                    .any(|(src, task)| *src == Some(*s) && task == t);
                let style = if is_hook_edge {
                    ", color=red, penwidth=2"
                } else {
                    ""
                };
                let _ = writeln!(
                    out,
                    "  n{from} -> n{to} [label=\"{}\"{style}];",
                    escape_dot(&t.to_string())
                );
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::{find_hook, HookOutcome};
    use crate::init::{find_bivalent_init, InitOutcome};
    use services::atomic::CanonicalAtomicObject;
    use spec::seq::BinaryConsensus;
    use spec::{ProcId, SvcId};
    use std::sync::Arc;
    use system::build::CompleteSystem;
    use system::process::direct::DirectConsensus;

    fn direct(n: usize, f: usize) -> CompleteSystem<DirectConsensus> {
        let endpoints: Vec<ProcId> = (0..n).map(ProcId).collect();
        let obj = CanonicalAtomicObject::new(Arc::new(BinaryConsensus), endpoints, f);
        CompleteSystem::new(DirectConsensus::new(SvcId(0)), n, vec![Arc::new(obj)])
    }

    #[test]
    fn census_partitions_the_space() {
        let sys = direct(2, 0);
        let InitOutcome::Bivalent { map, .. } = find_bivalent_init(&sys, 1_000_000).unwrap() else {
            panic!()
        };
        let c = census(&map);
        assert_eq!(c.total(), map.state_count());
        assert!(c.bivalent >= 1, "the root itself is bivalent");
        assert!(c.zero >= 1 && c.one >= 1, "both commitments are reachable");
        assert_eq!(c.undecided, 0, "the direct system always decides");
        assert!(c.bivalent_fraction() > 0.0 && c.bivalent_fraction() < 1.0);
    }

    #[test]
    fn dot_renders_the_hook_neighbourhood() {
        let sys = direct(2, 0);
        let InitOutcome::Bivalent { map, .. } = find_bivalent_init(&sys, 1_000_000).unwrap() else {
            panic!()
        };
        let HookOutcome::Hook(hook) = find_hook(&sys, &map, 10_000) else {
            panic!()
        };
        let dot = to_dot(&map, &hook.alpha, 2, Some(&hook));
        assert!(dot.starts_with("digraph GC {"));
        assert!(dot.contains("color=red"), "hook must be highlighted");
        assert!(dot.contains("->"), "edges must be present");
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn dot_escapes_quote_bearing_values() {
        // Direct-system states hold `Inv`/`Val` payloads whose debug
        // text contains `"` (e.g. `Inv("init", Int(0))`), which flows
        // into node tooltips; a quote-bearing `Val::Sym` must survive
        // too. Every quoted attribute in the output must stay balanced
        // once escapes are accounted for.
        assert_eq!(escape_dot(r#"Sym("bot")"#), r#"Sym(\"bot\")"#);
        assert_eq!(escape_dot(r"a\b"), r"a\\b");

        let sys = direct(2, 0);
        let InitOutcome::Bivalent { map, .. } = find_bivalent_init(&sys, 1_000_000).unwrap() else {
            panic!()
        };
        let dot = to_dot(&map, map.root(), 2, None);
        assert!(
            dot.contains("\\\""),
            "state tooltips carry quote-bearing debug text, which must be escaped"
        );
        for line in dot.lines() {
            // Strip escape pairs; what remains must hold an even
            // number of quotes (matched attribute delimiters).
            let stripped = line.replace("\\\\", "").replace("\\\"", "");
            let quotes = stripped.matches('"').count();
            assert_eq!(quotes % 2, 0, "unbalanced quotes in DOT line: {line}");
        }
    }

    #[test]
    fn dot_without_hook_is_plain() {
        let sys = direct(2, 0);
        let InitOutcome::Bivalent { map, .. } = find_bivalent_init(&sys, 1_000_000).unwrap() else {
            panic!()
        };
        let dot = to_dot(&map, map.root(), 1, None);
        assert!(!dot.contains("penwidth=3"));
    }
}

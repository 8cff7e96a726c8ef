//! The `Automaton` trait: task-structured I/O automata
//! (paper Section 2.1.1).

use std::fmt::Debug;
use std::hash::Hash;

/// The classification of an action in an automaton's signature
/// (Section 2.1.1): input, output, or internal. Output and internal
/// actions are collectively *locally controlled*.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ActionKind {
    /// An input action — always enabled, not under the automaton's
    /// control, and not a member of any task.
    Input,
    /// An output action — locally controlled and externally visible.
    Output,
    /// An internal action — locally controlled and hidden.
    Internal,
}

impl ActionKind {
    /// Whether the action is locally controlled (output or internal).
    pub fn is_locally_controlled(self) -> bool {
        !matches!(self, ActionKind::Input)
    }

    /// Whether the action is external (input or output) and therefore
    /// appears in traces.
    pub fn is_external(self) -> bool {
        !matches!(self, ActionKind::Internal)
    }
}

/// Hit/miss counters of an automaton-internal transition cache (see
/// [`Automaton::cache_stats`]).
///
/// Counters are cumulative over the automaton's lifetime; use
/// [`CacheStats::since`] to scope them to one workload. A *hit* is a
/// successor expansion served entirely from cached, already-interned
/// effects; a *miss* is an expansion that had to evaluate at least one
/// transition effect from scratch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Expansions fully served from the cache.
    pub hits: u64,
    /// Expansions that evaluated at least one effect from scratch.
    pub misses: u64,
}

impl CacheStats {
    /// Total expansions that consulted the cache.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache (`0.0` when there were
    /// no lookups).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The counters accumulated since `earlier` was snapshotted — how a
    /// caller scopes the cumulative counters to one exploration.
    #[must_use]
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }
}

/// A task-structured I/O automaton.
///
/// The locally controlled actions are partitioned into *tasks*
/// (Section 2.1.1); a task `e` is *applicable* to a state `s` when some
/// action of `e` is enabled in `s`. Implementations expose transitions
/// per task:
///
/// * [`Automaton::succ_all`] — every `(action, state')` the task can
///   produce, realizing the full nondeterminism of the model;
/// * [`Automaton::succ_det`] — the canonical determinization used under
///   the paper's Section 3.1 assumptions, where `transition(e, s)` is a
///   function. The default takes the first (least, by construction
///   order) branch; implementations whose branch order is not already
///   canonical should override it.
///
/// Input actions arrive from the environment and are *not* task-driven;
/// they are applied with [`Automaton::apply_input`].
///
/// Automata are `Sync` and their state/action/task types are
/// `Send + Sync`: an automaton is an immutable transition relation, so
/// it and the graphs and valence maps built over it can be shared
/// across threads by callers. Every automaton in the tree is plain
/// data, so these bounds are satisfied automatically.
pub trait Automaton: Sync {
    /// The state type. Orderable and hashable so that state spaces can
    /// be deduplicated and canonically sorted.
    type State: Clone + Eq + Ord + Hash + Debug + Send + Sync;
    /// The action label type.
    type Action: Clone + Eq + Debug + Send + Sync;
    /// The task identifier type.
    type Task: Clone + Eq + Ord + Hash + Debug + Send + Sync;

    /// The start states (nonempty).
    fn initial_states(&self) -> Vec<Self::State>;

    /// All tasks, in a fixed canonical order (the round-robin order the
    /// Fig. 3 construction walks).
    fn tasks(&self) -> Vec<Self::Task>;

    /// Every transition task `t` can take from `s`.
    fn succ_all(&self, t: &Self::Task, s: &Self::State) -> Vec<(Self::Action, Self::State)>;

    /// The determinized transition of task `t` from `s`
    /// (`transition(e, s)` of Section 3.1), or `None` when `t` is not
    /// applicable to `s`.
    fn succ_det(&self, t: &Self::Task, s: &Self::State) -> Option<(Self::Action, Self::State)> {
        self.succ_all(t, s).into_iter().next()
    }

    /// Whether task `t` is applicable to (has an action enabled in) `s`.
    fn applicable(&self, t: &Self::Task, s: &Self::State) -> bool {
        !self.succ_all(t, s).is_empty()
    }

    /// Applies an environment input action, returning the successor
    /// state, or `None` if `a` is not an input action of this automaton.
    ///
    /// I/O automata are input-enabled (Section 2.1.1): if `a` *is* an
    /// input of the automaton, this must return `Some`.
    fn apply_input(&self, s: &Self::State, a: &Self::Action) -> Option<Self::State>;

    /// The signature classification of `a`.
    fn kind(&self, a: &Self::Action) -> ActionKind;

    /// The tasks applicable to `s`.
    fn applicable_tasks(&self, s: &Self::State) -> Vec<Self::Task> {
        self.tasks()
            .into_iter()
            .filter(|t| self.applicable(t, s))
            .collect()
    }

    /// Cumulative hit/miss counters of an automaton-internal transition
    /// cache, if the implementation keeps one (`None` means "no cache",
    /// the default). Cumulative counters are shared by every workload
    /// that touches the automaton; per-exploration accounting instead
    /// flows through the scoped sink of [`Automaton::expand`] into
    /// [`ExploreStats::cache`](crate::explore::ExploreStats::cache).
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }

    /// Appends every transition of every task in `tasks` from `s` to
    /// `out` as `(k, state')`, where `tasks[k]` is the transition's
    /// task: task order first, then each task's
    /// [`Automaton::succ_all`] branch order. With `skip_self_loops`,
    /// transitions back to `s` are left out. No action is built.
    ///
    /// This is the explorer's one call per expanded state. An
    /// implementation that keeps a transition cache adds one hit or
    /// miss per task of `tasks` to `stats` *in addition to* its
    /// cumulative counters, so every exploration owns its accounting
    /// even when several workloads share one automaton. It may also
    /// skip self-loops without ever building them.
    ///
    /// The default is [`expand_per_task`], which ignores the sink.
    fn expand(
        &self,
        tasks: &[Self::Task],
        s: &Self::State,
        skip_self_loops: bool,
        out: &mut Vec<(u32, Self::State)>,
        stats: &mut CacheStats,
    ) {
        let _ = stats;
        expand_per_task(self, tasks, s, skip_self_loops, out);
    }

    /// The structural *owner* of a locally controlled action: the one
    /// task whose action set contains `a`, or `None` for input actions
    /// (which belong to no task, Section 2.1.1) — an introspection hook
    /// for static contract auditing, not used on any exploration path.
    ///
    /// The task-structure axiom says the locally controlled actions are
    /// *partitioned* by the tasks, so for a well-formed automaton this
    /// is a function; the auditor (`analysis::audit`) cross-checks it
    /// against the actions each task actually produces and flags any
    /// action claimed by two tasks or owned by an undeclared one.
    ///
    /// The default returns `None` for every action, which the auditor
    /// reads as "no introspection surface" (rule unauditable), never as
    /// "input": implementations that want their task partition audited
    /// must override this alongside [`Automaton::action_vocabulary`].
    fn action_owner(&self, a: &Self::Action) -> Option<Self::Task> {
        let _ = a;
        None
    }

    /// A finite, statically enumerable sample of the action signature —
    /// the second introspection hook for contract auditing. Need not be
    /// exhaustive (value-parameterized labels may be sampled or
    /// omitted), but every listed action must genuinely be in the
    /// signature, and the list should cover at least one action per
    /// task so the partition audit can detect orphaned tasks.
    ///
    /// Empty by default ("no vocabulary declared").
    fn action_vocabulary(&self) -> Vec<Self::Action> {
        Vec::new()
    }

    /// The canonical orbit representative of `s` under the automaton's
    /// declared symmetry group — a pure, idempotent function with
    /// `canonical(s)` reachability-equivalent to `s` (the automaton
    /// must guarantee `succ(π·s) = π·succ(s)` for the group it
    /// declares). The identity by default: automata without declared
    /// symmetry explore the concrete space even under
    /// [`SymmetryMode::Full`](crate::canon::SymmetryMode::Full).
    ///
    /// The explorer applies this to every successor (never to roots)
    /// when [`ExploreOptions::symmetry`](crate::explore::ExploreOptions::symmetry)
    /// is `Full`, so equal-orbit states intern to one
    /// [`StateId`](crate::store::StateId).
    fn canonical(&self, s: Self::State) -> Self::State {
        s
    }
}

/// [`Automaton::expand`] by one [`Automaton::succ_all`] call per task:
/// the default expansion, and the one an implementation that overrides
/// `expand` for a cache falls back on without it.
pub fn expand_per_task<A: Automaton + ?Sized>(
    aut: &A,
    tasks: &[A::Task],
    s: &A::State,
    skip_self_loops: bool,
    out: &mut Vec<(u32, A::State)>,
) {
    for (k, t) in (0..).zip(tasks) {
        for (_, s2) in aut.succ_all(t, s) {
            if skip_self_loops && &s2 == s {
                continue;
            }
            out.push((k, s2));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(ActionKind::Output.is_locally_controlled());
        assert!(ActionKind::Internal.is_locally_controlled());
        assert!(!ActionKind::Input.is_locally_controlled());
        assert!(ActionKind::Input.is_external());
        assert!(ActionKind::Output.is_external());
        assert!(!ActionKind::Internal.is_external());
    }
}

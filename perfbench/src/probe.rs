//! Per-op counters and the probes that split a valence build into its
//! layers from the outside.

use crate::trace::Trace;
use crate::{MAX_STATES, THREADS};
use analysis::audit::effective_symmetry;
use analysis::prop::PassCounts;
use analysis::valence::ValenceMap;
use ioa::canon::SymmetryMode;
use ioa::explore::{ExploreOptions, ExploredGraph, FrontierMode};
use std::hint::black_box;
use system::build::{CompleteSystem, SystemState};
use system::packed::{orbit_size, PackedSystem};
use system::process::ProcessAutomaton;

/// Deterministic work counts of one op. Two ops on the same input must
/// produce identical counters; the traced run checks this.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// States interned by the explorer sweeps (stage 1 roots, or the
    /// `check` root).
    pub explore_states: u64,
    pub explore_edges: u64,
    pub explore_peak_frontier: u64,
    /// Largest valence map built in the op: states and arena bytes.
    pub peak_states: u64,
    pub arena_bytes: u64,
    /// Effect-cache traffic over every valence build of the op.
    pub cache_lookups: u64,
    pub cache_hits: u64,
    /// The same, restricted to the Lemma 4 walk.
    pub lemma4_lookups: u64,
    pub lemma4_hits: u64,
    /// States interned by the Lemma 4 walk.
    pub lemma4_states: u64,
    pub forward_passes: u64,
    pub backward_passes: u64,
    /// Length of the refuting run.
    pub refute_steps: u64,
    /// Property-state decisions made by the property evaluator
    /// (states × properties).
    pub decisions: u64,
    /// `canonical_with_sym` calls made by the canon probe.
    pub canon_calls: u64,
}

impl Counters {
    /// Accounts one finished valence build.
    pub fn absorb_map<P: ProcessAutomaton>(&mut self, map: &ValenceMap<P>, lemma4: bool) {
        let (states, bytes) = map.footprint();
        self.peak_states = self.peak_states.max(states);
        self.arena_bytes = self.arena_bytes.max(bytes);
        let cache = map.stats().cache.unwrap_or_default();
        self.cache_lookups += cache.lookups();
        self.cache_hits += cache.hits;
        if lemma4 {
            self.lemma4_lookups += cache.lookups();
            self.lemma4_hits += cache.hits;
            self.lemma4_states += states;
        }
    }

    /// Accounts one property-batch evaluation of `props` properties
    /// over `states` states.
    pub fn absorb_passes(&mut self, passes: PassCounts, states: usize, props: usize) {
        self.forward_passes += u64::from(passes.forward);
        self.backward_passes += u64::from(passes.backward);
        self.decisions += (states * props) as u64;
    }
}

/// Orbit census of the explored representatives: Σ orbit size and the
/// number of representatives.
#[derive(Clone, Copy, Debug, Default)]
pub struct Orbits {
    pub concrete: u64,
    pub reps: u64,
}

impl Orbits {
    pub fn compression(self) -> f64 {
        if self.reps == 0 {
            1.0
        } else {
            self.concrete as f64 / self.reps as f64
        }
    }
}

/// Re-runs, in isolation, the explorer sweep that a
/// `ValenceMap::build_with_symmetry(sys, root, …, requested)` call makes
/// (span `explore.sweep`: the gated `PackedSystem` plus
/// `ExploredGraph::explore_with`), then times `canonical_with_sym` over
/// every interned state (span `packed.canon`). With `orbits` it also
/// sums the orbit size of every representative.
pub fn sweep<P: ProcessAutomaton>(
    tr: &mut Trace,
    sys: &CompleteSystem<P>,
    root: &SystemState<P::State>,
    requested: SymmetryMode,
    c: &mut Counters,
    orbits: Option<&mut Orbits>,
) {
    let symmetry = effective_symmetry(sys, requested);
    let (packed, graph) = tr.span("explore.sweep", |_| {
        let packed = PackedSystem::with_symmetry(sys, symmetry);
        let root = packed.encode(root);
        let graph = ExploredGraph::explore_with(
            &packed,
            vec![root],
            ExploreOptions {
                max_states: MAX_STATES,
                skip_self_loops: true,
                threads: THREADS,
                symmetry: packed.symmetry_mode(),
                frontier: FrontierMode::Auto,
            },
        );
        (packed, graph)
    });
    let stats = graph.stats();
    c.explore_states += stats.states as u64;
    c.explore_edges += stats.edges as u64;
    c.explore_peak_frontier = c.explore_peak_frontier.max(stats.peak_frontier as u64);

    let states = graph.store().states();
    tr.span("packed.canon", |_| {
        for ps in states {
            black_box(packed.canonical_with_sym(black_box(ps)));
        }
    });
    c.canon_calls += states.len() as u64;

    if let Some(o) = orbits {
        for ps in states {
            o.concrete += match packed.symmetry_group() {
                Some(group) => orbit_size(group, &packed.decode(ps)),
                None => 1,
            };
        }
        o.reps += states.len() as u64;
    }
}

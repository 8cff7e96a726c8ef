//! The Theorem 2/9/10 workloads: one op is one `find_witness` call on a
//! candidate built in set-up.
//!
//! The untraced op calls `find_witness` itself. The traced op re-drives
//! the same pipeline stage by stage through the public calls
//! `find_witness` makes (the Lemma 4 walk through the calls
//! `find_bivalent_init_sym` makes), so each stage gets its own span; it
//! must reach the same verdict as `find_witness`.

use crate::probe::{self, Counters, Orbits};
use crate::trace::Trace;
use crate::{Bench, Traced};
use analysis::audit::effective_symmetry;
use analysis::hook::{find_hook, HookOutcome};
use analysis::init::InitOutcome;
use analysis::prop::{self, evaluate_batch, Prop, SystemGraph, Witness};
use analysis::similarity::{
    analyze_hook, refute_adjacent_pair, refute_similar_pair, HookSimilarity, Refutation,
};
use analysis::valence::{Valence, ValenceMap};
use analysis::witness::{find_witness, Bounds, ImpossibilityWitness};
use ioa::automaton::Automaton;
use spec::ProcId;
use std::time::Instant;
use system::build::CompleteSystem;
use system::consensus::{check_safety, InputAssignment, SafetyViolation};
use system::packed::PackedSystem;
use system::process::ProcessAutomaton;
use system::sched::initialize;

/// The verdict a workload must reach (the correctness oracle).
pub struct Expect {
    pub shape: &'static str,
    /// `None` accepts any refutation kind.
    pub refutation: Option<&'static str>,
    pub failed: usize,
    pub differing: Option<usize>,
}

/// What a witness demonstrated, reduced to what the oracle checks plus
/// the full text the staged run must reproduce.
struct Verdict {
    shape: &'static str,
    refutation: &'static str,
    failed: usize,
    differing: Option<usize>,
    text: String,
}

fn refutation_of<P: ProcessAutomaton>(r: &Refutation<P>) -> (&'static str, usize) {
    match r {
        Refutation::TerminationViolation { failed, .. } => ("TerminationViolation", failed.len()),
        Refutation::SameDecision { failed, .. } => ("SameDecision", failed.len()),
        Refutation::DivergentDecisions { failed, .. } => ("DivergentDecisions", failed.len()),
        Refutation::AlreadyDecided { .. } => ("AlreadyDecided", 0),
    }
}

fn refute_steps<P: ProcessAutomaton>(r: &Refutation<P>) -> u64 {
    match r {
        Refutation::TerminationViolation { run, .. } => run.exec.len() as u64,
        _ => 0,
    }
}

fn verdict<P: ProcessAutomaton>(w: &ImpossibilityWitness<P>) -> Verdict {
    let (shape, (refutation, failed), differing, assignment) = match w {
        ImpossibilityWitness::Safety { assignment, .. } => ("Safety", ("", 0), None, assignment),
        ImpossibilityWitness::FailureFreeNonTermination { assignment } => {
            ("FailureFreeNonTermination", ("", 0), None, assignment)
        }
        ImpossibilityWitness::HookRefutation {
            assignment,
            refutation,
            ..
        } => (
            "HookRefutation",
            refutation_of(refutation),
            None,
            assignment,
        ),
        ImpossibilityWitness::AdjacentRefutation {
            zero,
            differing,
            refutation,
            ..
        } => (
            "AdjacentRefutation",
            refutation_of(refutation),
            Some(differing.0),
            zero,
        ),
        ImpossibilityWitness::EndlessBivalence { assignment, .. } => {
            ("EndlessBivalence", ("", 0), None, assignment)
        }
    };
    Verdict {
        shape,
        refutation,
        failed,
        differing,
        text: format!("{shape} from {assignment}: {}", w.headline()),
    }
}

/// A witness workload: `find_witness(build(), f)` under `bounds`.
pub struct WitnessBench<P: ProcessAutomaton> {
    build: fn() -> CompleteSystem<P>,
    f: usize,
    bounds: Bounds,
    expect: Expect,
    sys: Option<CompleteSystem<P>>,
    /// `find_witness`'s verdict text, recorded by the first op.
    reference: Option<String>,
}

impl<P: ProcessAutomaton> WitnessBench<P> {
    pub fn new(build: fn() -> CompleteSystem<P>, f: usize, bounds: Bounds, expect: Expect) -> Self {
        WitnessBench {
            build,
            f,
            bounds,
            expect,
            sys: None,
            reference: None,
        }
    }

    fn sys(&self) -> &CompleteSystem<P> {
        self.sys.as_ref().expect("ops run after set-up")
    }

    fn check(&self, v: &Verdict) -> Result<(), String> {
        let e = &self.expect;
        let ok = v.shape == e.shape
            && e.refutation.is_none_or(|r| r == v.refutation)
            && v.failed == e.failed
            && v.differing == e.differing;
        if ok {
            Ok(())
        } else {
            Err(format!(
                "wrong verdict: expected {} {} with {} failed (differing {:?}), got {}",
                e.shape,
                e.refutation.unwrap_or("*"),
                e.failed,
                e.differing,
                v.text
            ))
        }
    }
}

impl<P: ProcessAutomaton> Bench for WitnessBench<P> {
    fn setup(&mut self) -> f64 {
        let sys = (self.build)();
        let t = Instant::now();
        let _ = effective_symmetry(&sys, self.bounds.symmetry);
        let gate_s = t.elapsed().as_secs_f64();
        self.sys = Some(sys);
        gate_s
    }

    fn symmetry(&self) -> String {
        let sys = self.sys();
        let gate = effective_symmetry(sys, self.bounds.symmetry);
        let packed = PackedSystem::with_symmetry(sys, gate).symmetry_mode();
        format!(
            "requested={:?} gate={gate:?} packed={packed:?} safety-stage={:?}",
            self.bounds.symmetry,
            self.bounds.symmetry.value_blind()
        )
    }

    fn op(&mut self, _k: usize) -> Result<(), String> {
        let w = find_witness(self.sys(), self.f, self.bounds).map_err(|e| e.to_string())?;
        let v = verdict(&w);
        self.check(&v)?;
        self.reference.get_or_insert(v.text);
        Ok(())
    }

    fn traced_op(&mut self, _k: usize, tr: &mut Trace, first: bool) -> Result<Traced, String> {
        let sys = self.sys();
        let b = self.bounds;
        let mut c = Counters::default();
        // The witness is dropped inside the op span, as in the untraced op.
        let v = tr.span("op", |tr| {
            staged(tr, sys, self.f, b, &mut c).map(|w| verdict(&w))
        })?;
        self.check(&v)?;
        match &self.reference {
            Some(r) if *r == v.text => {}
            other => {
                return Err(format!(
                    "staged verdict differs from find_witness: staged {}, find_witness {other:?}",
                    v.text
                ))
            }
        }

        // Probes: the stage-1 explorer sweeps, in isolation.
        let safety_states = c.explore_states;
        c.explore_states = 0;
        let mut orbits = first.then(Orbits::default);
        let n = sys.process_count();
        for ones in 0..=n {
            let root = initialize(sys, &InputAssignment::monotone(n, ones));
            probe::sweep(
                tr,
                sys,
                &root,
                b.symmetry.value_blind(),
                &mut c,
                orbits.as_mut(),
            );
        }
        if c.explore_states != safety_states {
            return Err(format!(
                "explorer sweep interned {} states, the safety builds {safety_states}",
                c.explore_states
            ));
        }
        Ok(Traced {
            counters: c,
            key: 0,
            orbits,
        })
    }
}

/// `find_witness`, stage by stage, one span per public call.
fn staged<P: ProcessAutomaton>(
    tr: &mut Trace,
    sys: &CompleteSystem<P>,
    f: usize,
    b: Bounds,
    c: &mut Counters,
) -> Result<ImpossibilityWitness<P>, String> {
    let n = sys.process_count();
    tr.skip("check.build");
    tr.skip("prop.parse");

    // Stage 1: failure-free safety from every monotone initialization.
    for ones in 0..=n {
        let assignment = InputAssignment::monotone(n, ones);
        let root = initialize(sys, &assignment);
        let map = tr
            .span("valence.safety_build", |_| {
                ValenceMap::build_with_symmetry(
                    sys,
                    root,
                    b.max_states,
                    b.threads,
                    b.symmetry.value_blind(),
                )
            })
            .map_err(|e| e.to_string())?;
        c.absorb_map(&map, false);
        // Counted here, compared against the sweep probe afterwards.
        c.explore_states += map.state_count() as u64;
        let violation = tr.span("prop.safety_scan", |tr| {
            safety_scan(tr, sys, &assignment, &map, c)
        });
        tr.span("valence.drop", |_| drop(map));
        if let Some(violation) = violation {
            return Ok(ImpossibilityWitness::Safety {
                assignment,
                violation,
            });
        }
    }

    // Stage 2: Lemma 4.
    match tr.span("init.lemma4", |tr| lemma4(tr, sys, b, c))? {
        InitOutcome::Bivalent { assignment, map } => {
            // Stage 3: Lemma 5 / Fig. 3.
            let hook = match tr.span("hook.search", |_| {
                find_hook(sys, &map, b.max_hook_iterations)
            }) {
                HookOutcome::Hook(hook) => hook,
                HookOutcome::EndlessBivalence { state, .. } => {
                    return Ok(ImpossibilityWitness::EndlessBivalence { assignment, state })
                }
                HookOutcome::UndecidedRegion { .. } => {
                    return Ok(ImpossibilityWitness::FailureFreeNonTermination { assignment })
                }
            };
            tr.span("valence.drop", |_| drop(map));
            // Stage 4: Lemma 8 case analysis.
            let (similarity, pair) = tr.span("similarity.analyze", |_| {
                let similarity = analyze_hook(sys, &hook);
                let pair = match &similarity {
                    HookSimilarity::Direct(kind) => Some((hook.s0.clone(), hook.s1.clone(), *kind)),
                    HookSimilarity::AfterEPrime(kind) => sys
                        .succ_det(&hook.e_prime, &hook.s0)
                        .map(|(_, after)| (after, hook.s1.clone(), *kind)),
                    HookSimilarity::Commute | HookSimilarity::None => None,
                };
                (similarity, pair)
            });
            let Some((x0, x1, kind)) = pair else {
                return Err(format!("inconclusive hook similarity {similarity:?}"));
            };
            // Stage 5: Lemma 6/7, executed.
            let refutation = tr.span("similarity.refute", |_| {
                refute_similar_pair(
                    sys,
                    &x0,
                    &x1,
                    kind,
                    (hook.v, hook.v.opposite()),
                    f,
                    b.max_run_steps,
                )
            });
            c.refute_steps = refute_steps(&refutation);
            Ok(ImpossibilityWitness::HookRefutation {
                assignment,
                hook,
                similarity,
                refutation,
            })
        }
        InitOutcome::AdjacentContradiction {
            zero,
            one,
            differing,
        } => {
            tr.skip("hook.search");
            tr.skip("similarity.analyze");
            let refutation = tr.span("similarity.refute", |_| {
                refute_adjacent_pair(sys, &zero, &one, differing, f, b.max_run_steps)
            });
            c.refute_steps = refute_steps(&refutation);
            Ok(ImpossibilityWitness::AdjacentRefutation {
                zero,
                one,
                differing,
                refutation,
            })
        }
        InitOutcome::Undecided { assignment } => {
            Ok(ImpossibilityWitness::FailureFreeNonTermination { assignment })
        }
        InitOutcome::ValidityBroken { assignment, .. } => Err(format!(
            "validity broken from {assignment}: the staged run does not re-drive this branch"
        )),
    }
}

/// The witness safety scan: `always(safe)` over the map, evaluated as a
/// singleton batch (what `prop::evaluate` does) so its passes count.
fn safety_scan<P: ProcessAutomaton>(
    tr: &mut Trace,
    sys: &CompleteSystem<P>,
    assignment: &InputAssignment,
    map: &ValenceMap<P>,
    c: &mut Counters,
) -> Option<SafetyViolation> {
    let graph = SystemGraph::new(sys, map);
    let invariant = Prop::always(prop::atoms::safe(assignment.clone()));
    let report = tr.span("prop.batch", |_| {
        evaluate_batch(&graph, std::slice::from_ref(&invariant))
    });
    c.absorb_passes(report.passes, map.state_count(), 1);
    match report.results.into_iter().next()?.witness {
        Some(Witness::Path(path)) => check_safety(sys, map.resolve(*path.last()?), assignment),
        _ => None,
    }
}

/// The Lemma 4 walk over one shared `PackedSystem`, as
/// `find_bivalent_init_sym` runs it. Dropping each univalent map gets a
/// child span, so the walk's builds compare with the stage-1 builds,
/// whose drops are spans of their own.
fn lemma4<P: ProcessAutomaton>(
    tr: &mut Trace,
    sys: &CompleteSystem<P>,
    b: Bounds,
    c: &mut Counters,
) -> Result<InitOutcome<P>, String> {
    let n = sys.process_count();
    let packed = PackedSystem::with_symmetry(sys, effective_symmetry(sys, b.symmetry));
    let mut valences = Vec::with_capacity(n + 1);
    for ones in 0..=n {
        let assignment = InputAssignment::monotone(n, ones);
        let root = initialize(sys, &assignment);
        let map = ValenceMap::build_in(sys, &packed, root.clone(), b.max_states, b.threads)
            .map_err(|e| e.to_string())?;
        c.absorb_map(&map, true);
        match map.valence(&root) {
            Valence::Bivalent => return Ok(InitOutcome::Bivalent { assignment, map }),
            Valence::Undecided => return Ok(InitOutcome::Undecided { assignment }),
            v => {
                if (ones == 0 && v != Valence::Zero) || (ones == n && v != Valence::One) {
                    return Ok(InitOutcome::ValidityBroken {
                        assignment,
                        valence: v,
                    });
                }
                valences.push(v);
            }
        }
        tr.span("init.lemma4_drop", |_| drop(map));
    }
    let flip = valences
        .windows(2)
        .position(|w| w[0] == Valence::Zero && w[1] == Valence::One)
        .ok_or("no adjacent 0-valent/1-valent pair")?;
    Ok(InitOutcome::AdjacentContradiction {
        zero: InputAssignment::monotone(n, flip),
        one: InputAssignment::monotone(n, flip + 1),
        differing: ProcId(flip),
    })
}

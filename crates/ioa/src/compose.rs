//! Binary composition and hiding of I/O automata (paper Section 2.1.1
//! and [17, Chapter 8]).
//!
//! In a composition, all automata with an action `a` in their signature
//! execute `a` together; an action can be an output of at most one
//! automaton, and internal actions are private. The `system` crate
//! implements the paper's n-ary process/service composition natively
//! for efficiency; this module provides the generic binary operator
//! ([`Compose`]) and the hiding operator ([`Hide`]), which together are
//! sufficient to express any finite composition.

use crate::automaton::{ActionKind, Automaton};

/// A task of a binary composition: drawn from the left or the right
/// component (tasks are never shared — only actions synchronize).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SideTask<L, R> {
    /// A task of the left component.
    Left(L),
    /// A task of the right component.
    Right(R),
}

/// The parallel composition `A ∥ B` of two automata over the same
/// action alphabet.
///
/// Components synchronize on shared actions: when the left component
/// performs an action that is in the right component's signature, the
/// right component simultaneously performs it as an input (and vice
/// versa).
///
/// # Example
///
/// ```
/// use ioa::automaton::Automaton;
/// use ioa::compose::Compose;
/// use ioa::toy::{ChanAction, Channel};
///
/// // Two channels in sequence do NOT synchronize (no shared actions in
/// // this toy alphabet), but the composition still interleaves them.
/// let c = Compose::new(Channel::new(&[1]), Channel::new(&[1]));
/// assert_eq!(c.tasks().len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Compose<A, B> {
    left: A,
    right: B,
}

impl<A, B> Compose<A, B>
where
    A: Automaton,
    B: Automaton<Action = A::Action>,
{
    /// Composes two automata.
    ///
    /// The composition rules (at most one output owner; internal
    /// actions private) are the caller's obligation; violations surface
    /// as panics during execution.
    pub fn new(left: A, right: B) -> Self {
        Compose { left, right }
    }

    /// The left component.
    pub fn left(&self) -> &A {
        &self.left
    }

    /// The right component.
    pub fn right(&self) -> &B {
        &self.right
    }

    /// Whether `a` is in the left component's signature: an input, or a
    /// locally controlled action it can ever perform. We approximate
    /// "in signature" by "accepted as input", which suffices for
    /// synchronization because outputs synchronize with *inputs* of the
    /// peer.
    fn right_accepts(&self, s: &B::State, a: &A::Action) -> Option<B::State> {
        self.right.apply_input(s, a)
    }

    fn left_accepts(&self, s: &A::State, a: &A::Action) -> Option<A::State> {
        self.left.apply_input(s, a)
    }
}

impl<A, B> Automaton for Compose<A, B>
where
    A: Automaton,
    B: Automaton<Action = A::Action>,
{
    type State = (A::State, B::State);
    type Action = A::Action;
    type Task = SideTask<A::Task, B::Task>;

    fn initial_states(&self) -> Vec<Self::State> {
        let mut out = Vec::new();
        for l in self.left.initial_states() {
            for r in self.right.initial_states() {
                out.push((l.clone(), r));
            }
        }
        out
    }

    fn tasks(&self) -> Vec<Self::Task> {
        self.left
            .tasks()
            .into_iter()
            .map(SideTask::Left)
            .chain(self.right.tasks().into_iter().map(SideTask::Right))
            .collect()
    }

    fn succ_all(&self, t: &Self::Task, s: &Self::State) -> Vec<(Self::Action, Self::State)> {
        let (sl, sr) = s;
        match t {
            SideTask::Left(tl) => self
                .left
                .succ_all(tl, sl)
                .into_iter()
                .map(|(a, sl2)| {
                    let sr2 = self.right_accepts(sr, &a).unwrap_or_else(|| sr.clone());
                    (a, (sl2, sr2))
                })
                .collect(),
            SideTask::Right(tr) => self
                .right
                .succ_all(tr, sr)
                .into_iter()
                .map(|(a, sr2)| {
                    let sl2 = self.left_accepts(sl, &a).unwrap_or_else(|| sl.clone());
                    (a, (sl2, sr2))
                })
                .collect(),
        }
    }

    fn apply_input(&self, s: &Self::State, a: &Self::Action) -> Option<Self::State> {
        let (sl, sr) = s;
        let l2 = self.left.apply_input(sl, a);
        let r2 = self.right.apply_input(sr, a);
        match (l2, r2) {
            (None, None) => None,
            (l2, r2) => Some((
                l2.unwrap_or_else(|| sl.clone()),
                r2.unwrap_or_else(|| sr.clone()),
            )),
        }
    }

    fn kind(&self, a: &Self::Action) -> ActionKind {
        // An action that is an output of either component is an output
        // of the composition; internal stays internal; otherwise input.
        match (self.left.kind(a), self.right.kind(a)) {
            (ActionKind::Internal, _) => ActionKind::Internal,
            (_, ActionKind::Internal) => ActionKind::Internal,
            (ActionKind::Output, _) | (_, ActionKind::Output) => ActionKind::Output,
            _ => ActionKind::Input,
        }
    }
}

/// Hiding: reclassifies selected output actions as internal
/// (the `hide` operation used when assembling the complete system,
/// Section 2.2.3).
#[derive(Clone, Debug)]
pub struct Hide<A, F> {
    inner: A,
    hide: F,
}

impl<A, F> Hide<A, F>
where
    A: Automaton,
    F: Fn(&A::Action) -> bool,
{
    /// Hides every action for which `hide` returns `true`.
    pub fn new(inner: A, hide: F) -> Self {
        Hide { inner, hide }
    }

    /// The wrapped automaton.
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<A, F> Automaton for Hide<A, F>
where
    A: Automaton,
    // `Sync` because `Automaton: Sync`; predicates are stateless in
    // practice, so the bound costs nothing.
    F: Fn(&A::Action) -> bool + Sync,
{
    type State = A::State;
    type Action = A::Action;
    type Task = A::Task;

    fn initial_states(&self) -> Vec<Self::State> {
        self.inner.initial_states()
    }

    fn tasks(&self) -> Vec<Self::Task> {
        self.inner.tasks()
    }

    fn succ_all(&self, t: &Self::Task, s: &Self::State) -> Vec<(Self::Action, Self::State)> {
        self.inner.succ_all(t, s)
    }

    fn apply_input(&self, s: &Self::State, a: &Self::Action) -> Option<Self::State> {
        if (self.hide)(a) {
            None
        } else {
            self.inner.apply_input(s, a)
        }
    }

    fn kind(&self, a: &Self::Action) -> ActionKind {
        if (self.hide)(a) {
            ActionKind::Internal
        } else {
            self.inner.kind(a)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::{ChanAction, Channel};

    /// A producer that outputs `Send(m)` for each message in a script —
    /// synchronizes with [`Channel`]'s `Send` input.
    #[derive(Clone, Debug)]
    struct Producer {
        script: Vec<i64>,
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct ProduceTask;

    impl Automaton for Producer {
        type State = usize; // next script index
        type Action = ChanAction;
        type Task = ProduceTask;

        fn initial_states(&self) -> Vec<usize> {
            vec![0]
        }
        fn tasks(&self) -> Vec<ProduceTask> {
            vec![ProduceTask]
        }
        fn succ_all(&self, _t: &ProduceTask, s: &usize) -> Vec<(ChanAction, usize)> {
            match self.script.get(*s) {
                Some(m) => vec![(ChanAction::Send(*m), s + 1)],
                None => Vec::new(),
            }
        }
        fn apply_input(&self, _s: &usize, _a: &ChanAction) -> Option<usize> {
            None
        }
        fn kind(&self, a: &ChanAction) -> ActionKind {
            match a {
                ChanAction::Send(_) => ActionKind::Output,
                ChanAction::Recv(_) => ActionKind::Input,
            }
        }
    }

    #[test]
    fn producer_drives_channel_through_composition() {
        let comp = Compose::new(Producer { script: vec![4, 5] }, Channel::new(&[4, 5]));
        let s0 = comp.initial_states().remove(0);
        // Producer sends 4: the channel receives it synchronously.
        let (a, s1) = comp.succ_det(&SideTask::Left(ProduceTask), &s0).unwrap();
        assert_eq!(a, ChanAction::Send(4));
        assert_eq!(s1, (1, vec![4]));
        // Channel delivers.
        let (a, s2) = comp
            .succ_det(&SideTask::Right(crate::toy::DeliverTask), &s1)
            .unwrap();
        assert_eq!(a, ChanAction::Recv(4));
        // Recv is not a producer input, so only the channel moved.
        assert_eq!(s2, (1, Vec::new()));
    }

    #[test]
    fn shared_send_is_an_output_of_the_composition() {
        let comp = Compose::new(Producer { script: vec![1] }, Channel::new(&[1]));
        assert_eq!(comp.kind(&ChanAction::Send(1)), ActionKind::Output);
        assert_eq!(comp.kind(&ChanAction::Recv(1)), ActionKind::Output);
    }

    #[test]
    fn hiding_makes_actions_internal() {
        let comp = Compose::new(Producer { script: vec![1] }, Channel::new(&[1]));
        let hidden = Hide::new(comp, |a: &ChanAction| matches!(a, ChanAction::Send(_)));
        assert_eq!(hidden.kind(&ChanAction::Send(1)), ActionKind::Internal);
        assert_eq!(hidden.kind(&ChanAction::Recv(1)), ActionKind::Output);
        // Hidden actions are no longer environment inputs.
        let s0 = hidden.initial_states().remove(0);
        assert!(hidden.apply_input(&s0, &ChanAction::Send(1)).is_none());
    }
}

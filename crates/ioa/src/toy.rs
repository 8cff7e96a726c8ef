//! Small example automata used in the kernel's tests and docs.

use crate::automaton::{ActionKind, Automaton};

/// Actions of the toy [`Channel`] automaton.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ChanAction {
    /// Environment puts message `m` into the channel (input).
    Send(i64),
    /// Channel delivers message `m` (output).
    Recv(i64),
}

/// A reliable FIFO channel: `send(m)` inputs enqueue, a single
/// `deliver` task dequeues via `recv(m)` outputs.
///
/// This is the classic first example of an I/O automaton
/// (Lynch, *Distributed Algorithms*, Chapter 8).
///
/// # Example
///
/// ```
/// use ioa::automaton::Automaton;
/// use ioa::toy::{ChanAction, Channel};
///
/// let ch = Channel::new(&[1, 2]);
/// let s0 = ch.initial_states().remove(0);
/// let s1 = ch.apply_input(&s0, &ChanAction::Send(1)).unwrap();
/// let (a, _) = ch.succ_det(&ch.tasks()[0], &s1).unwrap();
/// assert_eq!(a, ChanAction::Recv(1));
/// ```
#[derive(Clone, Debug)]
pub struct Channel {
    alphabet: Vec<i64>,
}

/// The single task of [`Channel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeliverTask;

impl Channel {
    /// A channel for messages drawn from `alphabet`.
    pub fn new(alphabet: &[i64]) -> Self {
        Channel {
            alphabet: alphabet.to_vec(),
        }
    }

    /// The message alphabet.
    pub fn alphabet(&self) -> &[i64] {
        &self.alphabet
    }
}

impl Automaton for Channel {
    type State = Vec<i64>;
    type Action = ChanAction;
    type Task = DeliverTask;

    fn initial_states(&self) -> Vec<Self::State> {
        vec![Vec::new()]
    }

    fn tasks(&self) -> Vec<Self::Task> {
        vec![DeliverTask]
    }

    fn succ_all(&self, _t: &Self::Task, s: &Self::State) -> Vec<(Self::Action, Self::State)> {
        match s.split_first() {
            Some((head, rest)) => vec![(ChanAction::Recv(*head), rest.to_vec())],
            None => Vec::new(),
        }
    }

    fn apply_input(&self, s: &Self::State, a: &Self::Action) -> Option<Self::State> {
        match a {
            ChanAction::Send(m) => {
                let mut s = s.clone();
                s.push(*m);
                Some(s)
            }
            ChanAction::Recv(_) => None,
        }
    }

    fn kind(&self, a: &Self::Action) -> ActionKind {
        match a {
            ChanAction::Send(_) => ActionKind::Input,
            ChanAction::Recv(_) => ActionKind::Output,
        }
    }
}

/// A bounded incrementing counter with one task per parity class —
/// used to exercise multi-task fairness in tests.
///
/// State is `n ∈ {0, …, max}`. The `Even` task fires when `n` is even
/// and `n < max`; the `Odd` task fires when `n` is odd and `n < max`.
/// Both increment. At `n = max` nothing is enabled, so every finite
/// execution ending there is fair.
#[derive(Clone, Debug)]
pub struct ParityCounter {
    max: i64,
}

/// Actions of [`ParityCounter`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tick(pub i64);

/// Tasks of [`ParityCounter`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ParityTask {
    /// Fires from even states.
    Even,
    /// Fires from odd states.
    Odd,
}

impl ParityCounter {
    /// A counter saturating at `max`.
    ///
    /// # Panics
    ///
    /// Panics if `max < 0`.
    pub fn new(max: i64) -> Self {
        assert!(max >= 0, "counter bound must be nonnegative");
        ParityCounter { max }
    }
}

impl Automaton for ParityCounter {
    type State = i64;
    type Action = Tick;
    type Task = ParityTask;

    fn initial_states(&self) -> Vec<Self::State> {
        vec![0]
    }

    fn tasks(&self) -> Vec<Self::Task> {
        vec![ParityTask::Even, ParityTask::Odd]
    }

    fn succ_all(&self, t: &Self::Task, s: &Self::State) -> Vec<(Self::Action, Self::State)> {
        let fires = match t {
            ParityTask::Even => s % 2 == 0,
            ParityTask::Odd => s % 2 == 1,
        };
        if fires && *s < self.max {
            vec![(Tick(*s + 1), s + 1)]
        } else {
            Vec::new()
        }
    }

    fn apply_input(&self, _s: &Self::State, _a: &Self::Action) -> Option<Self::State> {
        None
    }

    fn kind(&self, _a: &Self::Action) -> ActionKind {
        ActionKind::Internal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_is_fifo() {
        let ch = Channel::new(&[1, 2]);
        let s = ch.initial_states().remove(0);
        let s = ch.apply_input(&s, &ChanAction::Send(1)).unwrap();
        let s = ch.apply_input(&s, &ChanAction::Send(2)).unwrap();
        let (a1, s) = ch.succ_det(&DeliverTask, &s).unwrap();
        let (a2, s) = ch.succ_det(&DeliverTask, &s).unwrap();
        assert_eq!(a1, ChanAction::Recv(1));
        assert_eq!(a2, ChanAction::Recv(2));
        assert!(ch.succ_all(&DeliverTask, &s).is_empty());
    }

    #[test]
    fn recv_is_not_an_input() {
        let ch = Channel::new(&[1]);
        let s = ch.initial_states().remove(0);
        assert!(ch.apply_input(&s, &ChanAction::Recv(1)).is_none());
    }

    #[test]
    fn parity_counter_alternates_tasks() {
        let c = ParityCounter::new(3);
        let s0 = 0;
        assert!(c.applicable(&ParityTask::Even, &s0));
        assert!(!c.applicable(&ParityTask::Odd, &s0));
        let (_, s1) = c.succ_det(&ParityTask::Even, &s0).unwrap();
        assert!(c.applicable(&ParityTask::Odd, &s1));
        assert_eq!(c.applicable_tasks(&3).len(), 0); // saturated
    }
}

//! The event calendar driving every simulation.
//!
//! [`EventQueue`] is a priority queue of `(time, event)` pairs. Ties on time
//! are broken by insertion order (a monotonically increasing sequence
//! number), which makes every simulation fully deterministic: two runs with
//! the same seed schedule and pop events in exactly the same order.
//! Sequence numbers can also be reserved ahead of time, so a long chain of
//! events can enter the calendar one at a time yet tie-break as if it had
//! been scheduled all at once.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{Duration, SimTime};

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap but we pop the earliest event.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event calendar with a virtual clock.
///
/// The queue owns the simulation clock: [`EventQueue::pop`] advances `now`
/// to the timestamp of the event it returns. Scheduling an event in the past
/// is a logic error and panics in debug builds; in release builds it is
/// clamped to `now` to keep time monotonic.
///
/// # Examples
///
/// ```
/// use mitt_sim::{Duration, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.schedule_in(Duration::from_millis(2), "b");
/// q.schedule_in(Duration::from_millis(1), "a");
/// assert_eq!(q.pop().unwrap().1, "a");
/// assert_eq!(q.now().as_millis(), 1);
/// assert_eq!(q.pop().unwrap().1, "b");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    now: SimTime,
    seq: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty calendar with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            popped: 0,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` is earlier than the current time.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.reserve(1);
        self.schedule_reserved(at, seq, event);
    }

    /// Schedules `event` after `delay` from the current time.
    pub fn schedule_in(&mut self, delay: Duration, event: E) {
        let at = self.now + delay;
        self.schedule(at, event);
    }

    /// Reserves `n` consecutive sequence numbers and returns the first.
    ///
    /// An event later scheduled under one of them with
    /// [`EventQueue::schedule_reserved`] breaks time ties as if it had been
    /// scheduled at the moment of the reservation.
    pub fn reserve(&mut self, n: u64) -> u64 {
        let first = self.seq;
        self.seq += n;
        first
    }

    /// Schedules `event` at absolute time `at` under a sequence number
    /// obtained from [`EventQueue::reserve`]. Each reserved number must be
    /// used at most once.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` is earlier than the current time or
    /// `seq` was never reserved.
    pub fn schedule_reserved(&mut self, at: SimTime, seq: u64, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: at={at} now={}",
            self.now
        );
        debug_assert!(seq < self.seq, "sequence number {seq} was never reserved");
        let at = at.max(self.now);
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the calendar is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.at;
        self.popped += 1;
        Some((entry.at, entry.event))
    }

    /// Number of events currently scheduled.
    pub fn raw_len(&self) -> usize {
        self.heap.len()
    }

    /// Total number of events delivered so far.
    pub fn events_delivered(&self) -> u64 {
        self.popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(q.events_delivered(), 3);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_in(Duration::from_millis(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now().as_millis(), 7);
    }

    #[test]
    fn reserved_events_tie_break_from_their_reservation() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        let early = q.reserve(2);
        q.schedule(t, "scheduled");
        q.schedule_reserved(t, early + 1, "reserved second");
        q.schedule_reserved(t, early, "reserved first");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["reserved first", "reserved second", "scheduled"]);
    }
}

//! Deterministic future-event list.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

/// An entry in the event queue: a scheduled time, an insertion sequence
/// number for FIFO tie-breaking, and the payload.
struct Entry<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest time (and for
        // equal times, the lowest sequence number) pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A future-event list for discrete-event simulation.
///
/// Events are popped in non-decreasing time order. Events scheduled for
/// the same instant pop in the order they were pushed, which makes
/// simulations deterministic regardless of heap internals.
///
/// The queue also tracks the current simulation clock: popping an event
/// advances the clock to that event's time, and scheduling in the past
/// is a logic error (panics in debug builds, clamps in release).
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
    now: SimTime,
    popped: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue with the clock at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// The current simulation time (the time of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Number of events currently scheduled.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are scheduled.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `payload` at absolute time `time`.
    ///
    /// `time` must not precede the current clock; scheduling in the past
    /// panics in debug builds and is clamped to `now` in release builds.
    pub fn schedule_at(&mut self, time: SimTime, payload: T) {
        debug_assert!(
            time >= self.now,
            "scheduled event at {time:?} before current time {:?}",
            self.now
        );
        let time = time.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, payload });
    }

    /// Schedules `payload` at `delay` after the current clock.
    pub fn schedule_in(&mut self, delay: SimTime, payload: T) {
        debug_assert!(delay >= SimTime::ZERO, "negative delay {delay:?}");
        self.schedule_at(self.now + delay.max(SimTime::ZERO), payload);
    }

    /// Pops the earliest event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let entry = self.heap.pop()?;
        self.now = entry.time;
        self.popped += 1;
        Some((entry.time, entry.payload))
    }

    /// Pops the earliest event if its time is at or before `until`,
    /// advancing the clock to it; leaves the queue untouched (and
    /// returns `None`) when it is empty or its next event is later.
    /// Drive a time-bounded event loop with
    /// `while let Some((now, ev)) = queue.pop_until(bound)`.
    pub fn pop_until(&mut self, until: SimTime) -> Option<(SimTime, T)> {
        let top = self.heap.peek_mut()?;
        if top.time > until {
            return None;
        }
        let entry = PeekMut::pop(top);
        self.now = entry.time;
        self.popped += 1;
        Some((entry.time, entry.payload))
    }

    /// The time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Drops all scheduled events without changing the clock.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3.0), "c");
        q.schedule_at(SimTime::from_secs(1.0), "a");
        q.schedule_at(SimTime::from_secs(2.0), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_tie_break() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime::from_secs(1.0), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(5.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5.0));
        assert_eq!(q.events_processed(), 1);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(2.0), 0u32);
        q.pop();
        q.schedule_in(SimTime::from_secs(3.0), 1u32);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(5.0));
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule_at(SimTime::from_secs(1.0), ());
        q.schedule_at(SimTime::from_secs(0.5), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(0.5)));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn pop_until_stops_at_the_bound() {
        let mut q = EventQueue::new();
        assert_eq!(q.pop_until(SimTime::FAR_FUTURE), None);
        q.schedule_at(SimTime::from_secs(2.0), "b");
        q.schedule_at(SimTime::from_secs(1.0), "a");
        assert_eq!(q.pop_until(SimTime::from_secs(0.5)), None);
        assert_eq!(q.len(), 2);
        assert_eq!(q.now(), SimTime::ZERO);
        // The bound is inclusive.
        assert_eq!(
            q.pop_until(SimTime::from_secs(1.0)),
            Some((SimTime::from_secs(1.0), "a"))
        );
        assert_eq!(q.now(), SimTime::from_secs(1.0));
        assert_eq!(q.pop_until(SimTime::from_secs(1.5)), None);
        assert_eq!(
            q.pop_until(SimTime::FAR_FUTURE),
            Some((SimTime::from_secs(2.0), "b"))
        );
        assert_eq!(q.events_processed(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_sorted() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1.0), 1);
        q.schedule_at(SimTime::from_secs(10.0), 10);
        let (t, v) = q.pop().unwrap();
        assert_eq!((t.as_secs(), v), (1.0, 1));
        q.schedule_in(SimTime::from_secs(2.0), 3);
        let (t, v) = q.pop().unwrap();
        assert_eq!((t.as_secs(), v), (3.0, 3));
        let (t, v) = q.pop().unwrap();
        assert_eq!((t.as_secs(), v), (10.0, 10));
    }
}

//! Time-ordered event calendar.

use crate::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A deterministic event calendar.
///
/// Events scheduled for the same instant pop in insertion order (FIFO
/// stability), which keeps runs reproducible regardless of heap internals.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64, EventSlot<E>)>>,
    seq: u64,
    now: SimTime,
}

/// Wrapper that excludes the payload from ordering.
#[derive(Debug)]
struct EventSlot<E>(E);

impl<E> PartialEq for EventSlot<E> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<E> Eq for EventSlot<E> {}
impl<E> PartialOrd for EventSlot<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for EventSlot<E> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty calendar at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulated time (the time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error; the event is clamped to
    /// `now` so time never goes backwards, and debug builds assert.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "scheduling into the past: {at} < {}", self.now);
        let at = at.max(self.now);
        self.heap.push(Reverse((at, self.seq, EventSlot(event))));
        self.seq += 1;
    }

    /// Time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Pop the next event, advancing `now` to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((t, _, EventSlot(e))) = self.heap.pop()?;
        self.now = t;
        Some((t, e))
    }

    /// Pop the next event only if it fires at or before `until`.
    pub fn pop_until(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= until => self.pop(),
            _ => None,
        }
    }

    /// Advance `now` to `t` without popping (forward only; must not skip
    /// past a pending event).
    pub fn advance_to(&mut self, t: SimTime) {
        debug_assert!(
            self.peek_time().is_none_or(|p| p >= t),
            "advance_to({t}) would skip a pending event"
        );
        self.now = self.now.max(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(7));
    }

    #[test]
    fn pop_until_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), 1);
        q.schedule(SimTime::from_millis(20), 2);
        assert_eq!(q.pop_until(SimTime::from_millis(15)).unwrap().1, 1);
        assert!(q.pop_until(SimTime::from_millis(15)).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn schedule_in_past_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), 1);
        q.pop();
        // now = 10ms; in release mode this clamps rather than panicking.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.schedule(SimTime::from_millis(5), 2);
        }));
        if r.is_ok() {
            let (t, _) = q.pop().unwrap();
            assert_eq!(t, SimTime::from_millis(10));
        }
        let _ = q.now() + SimDuration::ZERO;
    }
}

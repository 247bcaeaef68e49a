//! The bounded admission queue: explicit backpressure, never silent.
//!
//! A classic `Mutex` + `Condvar` MPMC queue with two deliberate deviations
//! from a general-purpose channel:
//!
//! * [`Queue::push`] **never blocks**. A full queue *sheds*: the item comes
//!   straight back ([`Push::Full`]) and the caller answers the client with
//!   `serve.overloaded`. Overload becomes a fast structured refusal instead
//!   of an unbounded buffer or a stalled reader.
//! * [`Queue::close`] starts a **graceful drain**: new pushes are refused
//!   ([`Push::Closed`] → `serve.draining`) while everything already
//!   admitted is still handed to workers; [`Queue::pop`] returns `None`
//!   only once the queue is both closed and empty.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use dae_trace::sync::{lock_recover, recover};

/// Outcome of a non-blocking [`Queue::push`].
#[derive(Debug)]
pub(crate) enum Push<T> {
    /// Admitted; a worker will pick it up.
    Queued,
    /// The queue was at capacity — the item was shed, not stored.
    Full(T),
    /// The queue is draining — the item was refused, not stored.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC work queue with load-shedding and drain semantics.
pub(crate) struct Queue<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    not_empty: Condvar,
}

impl<T> Queue<T> {
    /// A queue admitting at most `capacity` items (minimum 1).
    pub(crate) fn new(capacity: usize) -> Queue<T> {
        Queue {
            inner: Mutex::new(Inner { items: VecDeque::new(), closed: false }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
        }
    }

    /// The configured capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued (racy, for metrics only).
    pub(crate) fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// True once [`Queue::close`] has been called.
    pub(crate) fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Tries to admit `item` without blocking.
    pub(crate) fn push(&self, item: T) -> Push<T> {
        let mut inner = self.lock();
        if inner.closed {
            return Push::Closed(item);
        }
        if inner.items.len() >= self.capacity {
            return Push::Full(item);
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Push::Queued
    }

    /// Blocks until an item is available or the drain completes.
    ///
    /// Returns `None` only when the queue is closed **and** empty — every
    /// admitted item is delivered exactly once before workers see the end.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = recover(self.not_empty.wait(inner));
        }
    }

    /// Begins the drain: refuses new items, wakes every blocked worker.
    /// Items already admitted still drain through [`Queue::pop`].
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        // A panicking producer/consumer must not wedge the whole server.
        lock_recover(&self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn full_queue_sheds_instead_of_blocking() {
        let q = Queue::new(2);
        assert!(matches!(q.push(1), Push::Queued));
        assert!(matches!(q.push(2), Push::Queued));
        assert!(matches!(q.push(3), Push::Full(3)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn closed_queue_refuses_but_still_drains() {
        let q = Queue::new(4);
        q.push(1);
        q.push(2);
        q.close();
        assert!(matches!(q.push(3), Push::Closed(3)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "stays terminated");
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(Queue::<i32>::new(1));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        for h in handles {
            assert_eq!(h.join().unwrap(), None);
        }
    }

    #[test]
    fn items_cross_threads_exactly_once() {
        let q = Arc::new(Queue::<usize>::new(64));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for v in 0..64 {
            assert!(matches!(q.push(v), Push::Queued));
        }
        q.close();
        let mut all: Vec<usize> = consumers.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let q = Queue::new(0);
        assert_eq!(q.capacity(), 1);
        assert!(matches!(q.push(1), Push::Queued));
        assert!(matches!(q.push(2), Push::Full(2)));
    }
}

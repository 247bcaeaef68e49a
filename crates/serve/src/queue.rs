//! The bounded admission queue: explicit backpressure, never silent.
//!
//! A classic `Mutex` + `Condvar` MPMC queue with three deliberate
//! deviations from a general-purpose channel:
//!
//! * [`Queue::push`] **never blocks**. A full queue *sheds*: the item comes
//!   straight back ([`Push::Full`]) and the caller answers the client with
//!   `serve.overloaded`. Overload becomes a fast structured refusal instead
//!   of an unbounded buffer or a stalled reader.
//! * Every job in progress holds one of `slots` [`Slot`]s, whether a worker
//!   popped it or a reader [claimed](Queue::claim) it to run itself. A
//!   worker pops only with a slot free, so readers and workers together
//!   never run more than `slots` jobs.
//! * [`Queue::close`] starts a **graceful drain**: new pushes and claims are
//!   refused ([`Push::Closed`] → `serve.draining`) while everything already
//!   admitted is still handed to workers; [`Queue::pop`] returns `None`
//!   only once the queue is closed, empty and no claimed job is still
//!   running — the workers outlive every admitted job.

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
    /// Jobs in progress: popped by a worker or claimed by a reader.
    running: usize,
    /// Of `running`, the claimed ones.
    claimed: usize,
}

impl<T> Inner<T> {
    /// Closed, empty and no claimed job left: workers may stop.
    fn drained(&self) -> bool {
        self.closed && self.items.is_empty() && self.claimed == 0
    }
}

/// A bounded MPMC work queue with load-shedding and drain semantics.
pub(crate) struct Queue<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    slots: usize,
    /// Signalled when an item may be poppable or the drain may be done.
    ready: Condvar,
}

/// One job in progress; dropping it frees its slot.
pub(crate) struct Slot<'q, T> {
    queue: &'q Queue<T>,
    claimed: bool,
}

impl<T> Drop for Slot<'_, T> {
    fn drop(&mut self) {
        let mut inner = self.queue.lock();
        inner.running -= 1;
        if self.claimed {
            inner.claimed -= 1;
        }
        if inner.drained() {
            drop(inner);
            self.queue.ready.notify_all();
        } else if !inner.items.is_empty() {
            // A worker may be waiting for this slot.
            drop(inner);
            self.queue.ready.notify_one();
        }
    }
}

impl<T> Queue<T> {
    /// A queue admitting at most `capacity` items (minimum 1), with at
    /// most `slots` jobs (minimum 1) in progress at once.
    pub(crate) fn new(capacity: usize, slots: usize) -> Queue<T> {
        Queue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
                running: 0,
                claimed: 0,
            }),
            capacity: capacity.max(1),
            slots: slots.max(1),
            ready: Condvar::new(),
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
        self.ready.notify_one();
        Push::Queued
    }

    /// Takes a slot for a job its caller runs itself, skipping the queue.
    /// Refused while anything is queued (it would overtake it), once the
    /// queue is closed, or with every slot taken.
    pub(crate) fn claim(&self) -> Option<Slot<'_, T>> {
        let mut inner = self.lock();
        if inner.closed || !inner.items.is_empty() || inner.running >= self.slots {
            return None;
        }
        inner.running += 1;
        inner.claimed += 1;
        Some(Slot { queue: self, claimed: true })
    }

    /// Blocks until an item and a free slot are available, or the drain
    /// completes.
    ///
    /// Returns `None` only when the queue is closed **and** empty and no
    /// claimed job is still running — every admitted item is delivered
    /// exactly once before workers see the end.
    pub(crate) fn pop(&self) -> Option<(T, Slot<'_, T>)> {
        let mut inner = self.lock();
        loop {
            if inner.running < self.slots {
                if let Some(item) = inner.items.pop_front() {
                    inner.running += 1;
                    return Some((item, Slot { queue: self, claimed: false }));
                }
            }
            if inner.drained() {
                return None;
            }
            inner = recover(self.ready.wait(inner));
        }
    }

    /// Begins the drain: refuses new items and claims, wakes every blocked
    /// worker. Items already admitted still drain through [`Queue::pop`].
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        // A panicking producer/consumer must not wedge the whole server.
        lock_recover(&self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn full_queue_sheds_instead_of_blocking() {
        let q = Queue::new(2, 1);
        assert!(matches!(q.push(1), Push::Queued));
        assert!(matches!(q.push(2), Push::Queued));
        assert!(matches!(q.push(3), Push::Full(3)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn closed_queue_refuses_but_still_drains() {
        let q = Queue::new(4, 1);
        q.push(1);
        q.push(2);
        q.close();
        assert!(matches!(q.push(3), Push::Closed(3)));
        assert_eq!(q.pop().map(|(v, _)| v), Some(1));
        assert_eq!(q.pop().map(|(v, _)| v), Some(2));
        assert!(q.pop().is_none());
        assert!(q.pop().is_none(), "stays terminated");
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(Queue::<i32>::new(1, 3));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop().map(|(v, _)| v))
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
        let q = Arc::new(Queue::<usize>::new(64, 4));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some((v, _slot)) = q.pop() {
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
        let q = Queue::new(0, 0);
        assert_eq!(q.capacity(), 1);
        assert!(matches!(q.push(1), Push::Queued));
        assert!(matches!(q.push(2), Push::Full(2)));
        let (_, slot) = q.pop().unwrap();
        assert!(q.claim().is_none(), "zero slots is clamped to one, and it is taken");
        drop(slot);
        assert!(q.claim().is_some());
    }

    #[test]
    fn a_claim_needs_an_open_empty_queue_and_a_free_slot() {
        let q = Queue::new(4, 2);
        let first = q.claim().expect("idle queue, free slot");
        let second = q.claim().expect("second slot");
        assert!(q.claim().is_none(), "both slots taken");
        drop(first);
        q.push(1);
        assert!(q.claim().is_none(), "a claim never overtakes a queued item");
        let (_, popped) = q.pop().expect("one slot free");
        assert!(q.claim().is_none(), "a popped job holds a slot too");
        drop((second, popped));
        q.close();
        assert!(q.claim().is_none(), "a closed queue refuses claims");
    }

    #[test]
    fn jobs_in_progress_never_exceed_the_slots() {
        const SLOTS: usize = 3;
        let q = Arc::new(Queue::<usize>::new(1024, SLOTS));
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let work = {
            let (running, peak) = (Arc::clone(&running), Arc::clone(&peak));
            move || {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::yield_now();
                running.fetch_sub(1, Ordering::SeqCst);
            }
        };
        let workers: Vec<_> = (0..SLOTS)
            .map(|_| {
                let (q, work) = (Arc::clone(&q), work.clone());
                std::thread::spawn(move || {
                    let mut done = 0;
                    while let Some((_, _slot)) = q.pop() {
                        work();
                        done += 1;
                    }
                    done
                })
            })
            .collect();
        let readers: Vec<_> = (0..4)
            .map(|r| {
                let (q, work) = (Arc::clone(&q), work.clone());
                std::thread::spawn(move || {
                    let mut inline = 0;
                    for i in 0..200 {
                        match q.claim() {
                            Some(_slot) => {
                                work();
                                inline += 1;
                            }
                            None => assert!(!matches!(q.push(r * 1000 + i), Push::Closed(_))),
                        }
                    }
                    inline
                })
            })
            .collect();
        let inline: usize = readers.into_iter().map(|h| h.join().unwrap()).sum();
        q.close();
        let popped: usize = workers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(peak.load(Ordering::SeqCst) <= SLOTS, "peak {}", peak.load(Ordering::SeqCst));
        assert!(inline > 0, "some jobs ran on their reader");
        assert_eq!(inline + popped, 800, "every job ran exactly once");
    }

    #[test]
    fn pop_waits_for_a_claimed_job_after_close() {
        let q = Arc::new(Queue::<i32>::new(4, 2));
        let slot = q.claim().unwrap();
        q.close();
        let ended = Arc::new(AtomicBool::new(false));
        let worker = {
            let (q, ended) = (Arc::clone(&q), Arc::clone(&ended));
            std::thread::spawn(move || {
                assert!(q.pop().is_none());
                ended.store(true, Ordering::SeqCst);
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(!ended.load(Ordering::SeqCst), "pop returned with a claimed job running");
        drop(slot);
        worker.join().unwrap();
        assert!(ended.load(Ordering::SeqCst));
    }
}

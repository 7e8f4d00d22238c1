//! A bounded multi-producer/multi-consumer queue with priority lanes and
//! multi-item draining.
//!
//! `std::sync::mpsc` is unbounded and single-consumer, and the vendored
//! `rayon` stand-in is sequential, so the serving runtime hand-rolls its
//! queue on `Mutex` + `Condvar`: producers block (or bounce, for
//! `try_push`) when the queue is at capacity — the backpressure a bounded
//! serving system needs — and each consumer takes up to `max_batch` of the
//! items already queued per wakeup, under one lock acquisition; it never
//! waits for more once it holds one.
//!
//! Two admission-control features sit on top of the plain FIFO:
//!
//! - **Priority lanes** ([`BoundedQueue::with_lanes`]): each accepted item
//!   lands in one of a fixed number of lanes, and consumers always drain
//!   lane 0 before lane 1 before lane 2 …  Capacity is shared across lanes
//!   (a flood of low-priority items still backpressures producers), and
//!   order within a lane stays FIFO.
//! - **Expiry-aware draining** ([`BoundedQueue::pop_batch_where`]): the
//!   consumer passes a predicate classifying items as expired at pop time;
//!   expired items are returned separately from the serving batch so dead
//!   requests (e.g. past their deadline) are failed immediately instead of
//!   wasting a batch slot.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Why a push did not enqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// Queue at capacity (only `try_push` reports this; `push` waits).
    Full,
    /// Queue closed; no new items are accepted.
    Closed,
}

/// What one [`BoundedQueue::pop_batch_where`] wakeup drained: the items to
/// serve, and the items whose expiry predicate fired (to be failed by the
/// consumer, never served).
#[derive(Debug)]
pub struct DrainedBatch<T> {
    /// Admitted items, in priority-then-FIFO order, at most `max_batch`.
    pub batch: Vec<T>,
    /// Items shed at pop time by the expiry predicate (they do not count
    /// toward `max_batch`).
    pub expired: Vec<T>,
}

struct Inner<T> {
    /// One FIFO per priority class; lane 0 drains first.
    lanes: Vec<VecDeque<T>>,
    closed: bool,
    /// Monotone sequence number of the next *accepted* push; assigned under
    /// the queue mutex so accepted items are numbered gaplessly in FIFO
    /// order even when a `try_push` bounces in between.
    next_seq: u64,
}

impl<T> Inner<T> {
    fn len(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    fn is_empty(&self) -> bool {
        self.lanes.iter().all(VecDeque::is_empty)
    }

    /// Pops the front of the highest-priority non-empty lane.
    fn pop_front(&mut self) -> Option<T> {
        self.lanes.iter_mut().find_map(VecDeque::pop_front)
    }
}

/// Bounded multi-lane FIFO shared between request submitters and worker
/// threads.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a single-lane queue holding at most `capacity` items
    /// (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        Self::with_lanes(capacity, 1)
    }

    /// Creates a queue of `lanes` priority lanes (clamped to ≥ 1) sharing
    /// one `capacity` (clamped to ≥ 1).  Lane 0 is the highest priority.
    pub fn with_lanes(capacity: usize, lanes: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                lanes: (0..lanes.max(1)).map(|_| VecDeque::new()).collect(),
                closed: false,
                next_seq: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Maximum number of queued items (shared across lanes).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of priority lanes.
    pub fn lanes(&self) -> usize {
        self.inner.lock().unwrap().lanes.len()
    }

    /// Current queue depth across all lanes.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().unwrap().is_empty()
    }

    /// Enqueues `item` into lane 0, blocking while the queue is at capacity.
    pub fn push(&self, item: T) -> Result<(), PushError> {
        self.push_with(|_| item).map(|_| ())
    }

    /// Enqueues `item` into lane 0 if there is room, without blocking.
    pub fn try_push(&self, item: T) -> Result<(), PushError> {
        self.try_push_with(|_| item).map(|_| ())
    }

    /// Like [`BoundedQueue::push`], but builds the item from its queue
    /// sequence number — the gapless, FIFO-ordered index of accepted items.
    /// A rejected push consumes no sequence number.
    pub fn push_with(&self, make: impl FnOnce(u64) -> T) -> Result<u64, PushError> {
        self.push_with_at(0, make)
    }

    /// Like [`BoundedQueue::try_push`], but builds the item from its queue
    /// sequence number; a bounced push consumes no sequence number.
    pub fn try_push_with(&self, make: impl FnOnce(u64) -> T) -> Result<u64, PushError> {
        self.try_push_with_at(0, make)
    }

    /// [`BoundedQueue::push_with`] into a specific priority lane (clamped
    /// to the last lane).  Capacity is shared: a high-priority push still
    /// blocks while the queue is full, it only *drains* ahead.
    ///
    /// The wait is close-aware on both sides: a producer blocked here when
    /// [`BoundedQueue::close`] fires wakes up with [`PushError::Closed`]
    /// rather than deadlocking against a queue nobody will drain.
    pub fn push_with_at(&self, lane: usize, make: impl FnOnce(u64) -> T) -> Result<u64, PushError> {
        let mut inner = self.inner.lock().unwrap();
        while !inner.closed && inner.len() >= self.capacity {
            inner = self.not_full.wait(inner).unwrap();
        }
        if inner.closed {
            return Err(PushError::Closed);
        }
        Ok(Self::accept(inner, &self.not_empty, lane, make))
    }

    /// [`BoundedQueue::try_push_with`] into a specific priority lane
    /// (clamped to the last lane).
    pub fn try_push_with_at(
        &self,
        lane: usize,
        make: impl FnOnce(u64) -> T,
    ) -> Result<u64, PushError> {
        let inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.len() >= self.capacity {
            return Err(PushError::Full);
        }
        Ok(Self::accept(inner, &self.not_empty, lane, make))
    }

    fn accept(
        mut inner: std::sync::MutexGuard<'_, Inner<T>>,
        not_empty: &Condvar,
        lane: usize,
        make: impl FnOnce(u64) -> T,
    ) -> u64 {
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let item = make(seq);
        let lane = lane.min(inner.lanes.len() - 1);
        inner.lanes[lane].push_back(item);
        drop(inner);
        not_empty.notify_one();
        seq
    }

    /// Dequeues up to `max_batch` of the items already queued (all lanes,
    /// lane 0 first).
    ///
    /// Blocks until at least one item is available (or the queue is closed
    /// and drained — then returns `None`, the consumer's shutdown signal),
    /// then takes whatever is immediately available.  `_deadline` is ignored
    /// (no drain waits for stragglers); the parameter stays because the perf
    /// ledger (`crates/bench/src/bin/ledger`) passes `Duration::ZERO`.
    pub fn pop_batch(&self, max_batch: usize, _deadline: Duration) -> Option<Vec<T>> {
        self.pop_batch_where(max_batch, |_| false).map(|drained| {
            debug_assert!(drained.expired.is_empty(), "predicate never fires");
            drained.batch
        })
    }

    /// [`BoundedQueue::pop_batch`] with an expiry predicate evaluated on
    /// every item at pop time: items for which `expire` returns `true` are
    /// routed to [`DrainedBatch::expired`] instead of the serving batch and
    /// do not count toward `max_batch`.
    ///
    /// If everything available has expired, the batch comes back empty: the
    /// consumer should fail the expired items and pop again.  Returns `None`
    /// only when the queue is closed and fully drained.
    pub fn pop_batch_where(
        &self,
        max_batch: usize,
        mut expire: impl FnMut(&T) -> bool,
    ) -> Option<DrainedBatch<T>> {
        let max_batch = max_batch.max(1);
        let mut inner = self.inner.lock().unwrap();
        while inner.is_empty() {
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).unwrap();
        }
        // Clamp the preallocation by what's actually queued so a consumer
        // draining with a huge max_batch doesn't over-reserve.
        let mut batch = Vec::with_capacity(max_batch.min(inner.len()));
        let mut expired = Vec::new();
        while batch.len() < max_batch {
            match inner.pop_front() {
                Some(item) if expire(&item) => expired.push(item),
                Some(item) => batch.push(item),
                None => break,
            }
        }
        drop(inner);
        // Free the space we just consumed for blocked producers.
        self.not_full.notify_all();
        Some(DrainedBatch { batch, expired })
    }

    /// Closes the queue: pending items remain poppable, new pushes fail,
    /// and consumers waiting on an empty queue wake up with `None`.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Whether [`BoundedQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().unwrap().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fifo_order_and_capacity_bounce() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full));
        assert_eq!(q.len(), 2);
        let batch = q.pop_batch(8, Duration::ZERO).unwrap();
        assert_eq!(batch, vec![1, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn max_batch_splits_the_backlog() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert_eq!(q.pop_batch(2, Duration::ZERO).unwrap(), vec![0, 1]);
        assert_eq!(q.pop_batch(2, Duration::ZERO).unwrap(), vec![2, 3]);
        assert_eq!(q.pop_batch(2, Duration::ZERO).unwrap(), vec![4]);
    }

    #[test]
    fn bounced_pushes_consume_no_sequence_number() {
        let q = BoundedQueue::new(1);
        assert_eq!(q.try_push_with(|seq| seq).unwrap(), 0);
        // Bounces: full queue.
        assert_eq!(q.try_push_with(|seq| seq), Err(PushError::Full));
        assert_eq!(q.try_push_with(|seq| seq), Err(PushError::Full));
        assert_eq!(q.pop_batch(1, Duration::ZERO).unwrap(), vec![0]);
        // The next accepted push continues gaplessly.
        assert_eq!(q.push_with(|seq| seq).unwrap(), 1);
        assert_eq!(q.pop_batch(1, Duration::ZERO).unwrap(), vec![1]);
    }

    #[test]
    fn close_drains_then_signals_shutdown() {
        let q = BoundedQueue::new(4);
        q.push(7).unwrap();
        q.close();
        assert_eq!(q.push(8), Err(PushError::Closed));
        assert_eq!(q.try_push(8), Err(PushError::Closed));
        assert!(q.is_closed());
        assert_eq!(q.pop_batch(4, Duration::ZERO).unwrap(), vec![7]);
        assert_eq!(q.pop_batch(4, Duration::ZERO), None);
    }

    #[test]
    fn blocked_producer_resumes_after_consumption() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(1).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push(2))
        };
        thread::sleep(Duration::from_millis(10));
        assert_eq!(q.pop_batch(1, Duration::ZERO).unwrap(), vec![1]);
        producer.join().unwrap().unwrap();
        assert_eq!(q.pop_batch(1, Duration::ZERO).unwrap(), vec![2]);
    }

    #[test]
    fn concurrent_producers_lose_no_items() {
        let q = Arc::new(BoundedQueue::new(4));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..25 {
                        q.push(p * 100 + i).unwrap();
                    }
                })
            })
            .collect();
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(batch) = q.pop_batch(8, Duration::ZERO) {
                    seen.extend(batch);
                }
                seen
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut seen = consumer.join().unwrap();
        seen.sort_unstable();
        let mut want: Vec<i32> = (0..4)
            .flat_map(|p| (0..25).map(move |i| p * 100 + i))
            .collect();
        want.sort_unstable();
        assert_eq!(seen, want);
    }

    #[test]
    fn priority_lanes_drain_high_first_fifo_within_lane() {
        let q = BoundedQueue::with_lanes(8, 3);
        assert_eq!(q.lanes(), 3);
        q.push_with_at(2, |_| "low-1").unwrap();
        q.push_with_at(1, |_| "mid-1").unwrap();
        q.push_with_at(2, |_| "low-2").unwrap();
        q.push_with_at(0, |_| "high-1").unwrap();
        q.push_with_at(1, |_| "mid-2").unwrap();
        let batch = q.pop_batch(8, Duration::ZERO).unwrap();
        assert_eq!(batch, vec!["high-1", "mid-1", "mid-2", "low-1", "low-2"]);
        // Out-of-range lanes clamp to the lowest-priority lane.
        q.push_with_at(99, |_| "clamped").unwrap();
        q.push_with_at(0, |_| "urgent").unwrap();
        assert_eq!(
            q.pop_batch(8, Duration::ZERO).unwrap(),
            vec!["urgent", "clamped"]
        );
    }

    #[test]
    fn sequence_numbers_are_gapless_across_lanes() {
        let q = BoundedQueue::with_lanes(8, 2);
        assert_eq!(q.push_with_at(1, |seq| seq).unwrap(), 0);
        assert_eq!(q.push_with_at(0, |seq| seq).unwrap(), 1);
        assert_eq!(q.try_push_with_at(1, |seq| seq).unwrap(), 2);
        // Priority reorders serving, not submission numbering.
        assert_eq!(q.pop_batch(8, Duration::ZERO).unwrap(), vec![1, 0, 2]);
    }

    #[test]
    fn pop_batch_where_splits_expired_from_served() {
        let q = BoundedQueue::new(8);
        for i in 0..6 {
            q.push(i).unwrap();
        }
        let drained = q.pop_batch_where(4, |&i| i % 2 == 0).unwrap();
        // Expired items do not count toward max_batch: 4 live ones would
        // need 8 pops, but only 6 are queued → 3 live + 3 expired.
        assert_eq!(drained.batch, vec![1, 3, 5]);
        assert_eq!(drained.expired, vec![0, 2, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn expired_only_drain_returns_immediately() {
        let q = BoundedQueue::new(8);
        q.push(1).unwrap();
        q.push(2).unwrap();
        // Nothing live is queued: the drain hands the corpses back with an
        // empty batch instead of blocking for live traffic that may never
        // come — the consumer needs them now.
        let drained = q.pop_batch_where(8, |_| true).unwrap();
        assert!(drained.batch.is_empty());
        assert_eq!(drained.expired, vec![1, 2]);
        assert!(q.is_empty());
    }

    // -- close/blocked interleavings ------------------------------------

    #[test]
    fn close_unblocks_a_producer_stuck_in_push() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(1).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push(2))
        };
        // Give the producer time to actually block on the full queue.
        thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(
            producer.join().unwrap(),
            Err(PushError::Closed),
            "a producer blocked in push must wake with Closed, not deadlock"
        );
        // The item enqueued before the close is still poppable.
        assert_eq!(q.pop_batch(4, Duration::ZERO).unwrap(), vec![1]);
        assert_eq!(q.pop_batch(4, Duration::ZERO), None);
    }

    #[test]
    fn pop_batch_racing_close_loses_no_items() {
        // Consumers race close(): every accepted item is seen exactly once
        // and every consumer terminates with None.
        for round in 0..8 {
            let q = Arc::new(BoundedQueue::new(4));
            let consumers: Vec<_> = (0..3)
                .map(|_| {
                    let q = Arc::clone(&q);
                    thread::spawn(move || {
                        let mut seen = Vec::new();
                        while let Some(batch) = q.pop_batch(2, Duration::ZERO) {
                            seen.extend(batch);
                        }
                        seen
                    })
                })
                .collect();
            for i in 0..20 {
                q.push(round * 1000 + i).unwrap();
            }
            q.close();
            let mut seen: Vec<i32> = consumers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect();
            seen.sort_unstable();
            let want: Vec<i32> = (0..20).map(|i| round * 1000 + i).collect();
            assert_eq!(seen, want, "round {round} lost or duplicated items");
        }
    }

    #[test]
    fn push_with_ids_are_stable_across_retry_after_full_and_closed() {
        let q = BoundedQueue::new(1);
        assert_eq!(q.push_with(|seq| seq).unwrap(), 0);
        // A caller retrying a bounced try_push_with must observe the id it
        // would have gotten without the bounces.
        for _ in 0..5 {
            assert_eq!(q.try_push_with(|seq| seq), Err(PushError::Full));
        }
        q.pop_batch(1, Duration::ZERO).unwrap();
        assert_eq!(q.try_push_with(|seq| seq).unwrap(), 1);
        q.pop_batch(1, Duration::ZERO).unwrap();
        // Closed rejections consume no ids either (relevant if the queue
        // were reopened; here it pins the accounting).
        q.close();
        assert_eq!(q.push_with(|seq| seq), Err(PushError::Closed));
        assert_eq!(q.try_push_with(|seq| seq), Err(PushError::Closed));
    }
}

//! The lock-free queue of the worker transport.
//!
//! [`SpscQueue`] is a bounded single-producer-single-consumer ring buffer
//! with release/acquire synchronization — the per-worker chunk queue of
//! §2.3.3. "As long as the tail index is not equal to the front index,
//! there is guaranteed to be at least one element to dequeue"; producer and
//! consumer touch disjoint indices and synchronize only through two
//! atomics. Every target has one producer, the thread interpreting it, so
//! every queue has one producer: multi-threaded targets are delivered
//! through it too ([`interp::RunConfig::racy_delivery`]).
//!
//! Not reproduced: the mutex-guarded baseline of Fig. 2.9 (no engine was
//! built on it) and the multiple-producer queue of Fig. 2.5 (its only
//! client, a record-and-replay path for multi-threaded targets, was deleted;
//! see [`crate::parallel`]).

use crossbeam::utils::CachePadded;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bounded lock-free SPSC ring buffer.
pub struct SpscQueue<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next index to pop (owned by the consumer).
    head: CachePadded<AtomicUsize>,
    /// Next index to push (owned by the producer).
    tail: CachePadded<AtomicUsize>,
}

unsafe impl<T: Send> Send for SpscQueue<T> {}
unsafe impl<T: Send> Sync for SpscQueue<T> {}

impl<T> SpscQueue<T> {
    /// A queue holding up to `cap` items (one slot is sacrificed to
    /// distinguish full from empty).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(2) + 1;
        let buf = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SpscQueue {
            buf,
            head: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Push from the (single) producer; fails when full.
    pub fn try_push(&self, v: T) -> Result<(), T> {
        let tail = self.tail.load(Ordering::Relaxed);
        let next = (tail + 1) % self.buf.len();
        if next == self.head.load(Ordering::Acquire) {
            return Err(v);
        }
        unsafe { (*self.buf[tail].get()).write(v) };
        // Release: the consumer's acquire load of `tail` sees the slot write.
        self.tail.store(next, Ordering::Release);
        Ok(())
    }

    /// Pop from the (single) consumer; `None` when empty.
    pub fn try_pop(&self) -> Option<T> {
        let head = self.head.load(Ordering::Relaxed);
        if head == self.tail.load(Ordering::Acquire) {
            return None;
        }
        let v = unsafe { (*self.buf[head].get()).assume_init_read() };
        self.head
            .store((head + 1) % self.buf.len(), Ordering::Release);
        Some(v)
    }

    /// True if the queue currently holds no items (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.head.load(Ordering::Acquire) == self.tail.load(Ordering::Acquire)
    }
}

impl<T> Drop for SpscQueue<T> {
    fn drop(&mut self) {
        while self.try_pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn spsc_fifo_single_thread() {
        let q = SpscQueue::new(4);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn spsc_full_rejects() {
        let q = SpscQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3));
        q.try_pop();
        assert!(q.try_push(3).is_ok());
    }

    #[test]
    fn spsc_cross_thread_preserves_order() {
        let q = Arc::new(SpscQueue::new(64));
        let p = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            for i in 0..10_000u64 {
                while p.try_push(i).is_err() {
                    std::hint::spin_loop();
                }
            }
        });
        let mut expected = 0u64;
        while expected < 10_000 {
            if let Some(v) = q.try_pop() {
                assert_eq!(v, expected);
                expected += 1;
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn spsc_drops_unconsumed() {
        // Values with Drop impls must not leak.
        let q = SpscQueue::new(8);
        q.try_push(String::from("a")).unwrap();
        q.try_push(String::from("b")).unwrap();
        drop(q); // must not leak or double-free (checked under miri/asan)
    }
}

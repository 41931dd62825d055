//! Lock-free queues used by the parallel profiler.
//!
//! - [`SpscQueue`]: a bounded single-producer-single-consumer ring buffer
//!   with release/acquire synchronization — the per-worker chunk queue of
//!   the parallel design for sequential targets (§2.3.3). "As long as the
//!   tail index is not equal to the front index, there is guaranteed to be
//!   at least one element to dequeue"; producer and consumer touch disjoint
//!   indices and synchronize only through two atomics.
//! - [`MpscQueue`]: the lock-free multiple-producer-single-consumer queue of
//!   §2.3.4 / Fig. 2.5 — a linked list of fixed arrays where producers
//!   claim slots with a hardware fetch-and-add and flag them ready with a
//!   release store. Nodes are recycled only at drop (the allocate-only
//!   variant the dissertation notes trades memory for speed and safety).
//!
//! The mutex-guarded baseline of Fig. 2.9 lives where it is measured
//! (`crates/bench/benches/queues.rs`); no engine is built on it.

use crossbeam::utils::CachePadded;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};

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

struct MpscNode<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    ready: Box<[AtomicBool]>,
    /// Producers claim slots with fetch-and-add.
    widx: AtomicUsize,
    next: AtomicPtr<MpscNode<T>>,
}

impl<T> MpscNode<T> {
    fn new(cap: usize) -> *mut Self {
        Box::into_raw(Box::new(MpscNode {
            slots: (0..cap)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            ready: (0..cap).map(|_| AtomicBool::new(false)).collect(),
            widx: AtomicUsize::new(0),
            next: AtomicPtr::new(std::ptr::null_mut()),
        }))
    }
}

/// Unbounded lock-free MPSC queue: a linked list of arrays (Fig. 2.5).
///
/// Producers `fetch_add` the node's write index to claim a slot; when a node
/// fills, one producer appends a fresh node with a CAS and the rest follow
/// the `next` pointer. The single consumer walks nodes in order, consuming
/// slots as their ready flags become visible.
pub struct MpscQueue<T> {
    /// Node producers currently push to.
    tail: CachePadded<AtomicPtr<MpscNode<T>>>,
    /// First node of the list (consumer start; nodes are kept until drop).
    first: AtomicPtr<MpscNode<T>>,
    /// Consumer cursor: (node, index). Only the consumer touches these.
    read: UnsafeCell<(*mut MpscNode<T>, usize)>,
    node_cap: usize,
}

unsafe impl<T: Send> Send for MpscQueue<T> {}
unsafe impl<T: Send> Sync for MpscQueue<T> {}

impl<T> MpscQueue<T> {
    /// A queue whose nodes hold `node_cap` items each.
    pub fn new(node_cap: usize) -> Self {
        let node_cap = node_cap.max(1);
        let first = MpscNode::new(node_cap);
        MpscQueue {
            tail: CachePadded::new(AtomicPtr::new(first)),
            first: AtomicPtr::new(first),
            read: UnsafeCell::new((first, 0)),
            node_cap,
        }
    }

    /// Push an item; safe to call from any number of threads.
    pub fn push(&self, v: T) {
        loop {
            let tail = self.tail.load(Ordering::Acquire);
            let node = unsafe { &*tail };
            let i = node.widx.fetch_add(1, Ordering::Relaxed);
            if i < self.node_cap {
                unsafe { (*node.slots[i].get()).write(v) };
                node.ready[i].store(true, Ordering::Release);
                return;
            }
            // Node full: append (or discover) the next node, then retry.
            let next = node.next.load(Ordering::Acquire);
            let next = if next.is_null() {
                let fresh = MpscNode::new(self.node_cap);
                match node.next.compare_exchange(
                    std::ptr::null_mut(),
                    fresh,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => fresh,
                    Err(existing) => {
                        // Another producer won; discard ours.
                        unsafe { drop(Box::from_raw(fresh)) };
                        existing
                    }
                }
            } else {
                next
            };
            // Help advance the tail; failure means someone else advanced it.
            let _ = self
                .tail
                .compare_exchange(tail, next, Ordering::AcqRel, Ordering::Acquire);
        }
    }

    /// Pop from the (single) consumer; `None` when nothing is ready.
    ///
    /// # Safety contract
    /// Only one thread may ever call `try_pop` (enforced by taking `&self`
    /// but documented: the consumer cursor is not synchronized).
    pub fn try_pop(&self) -> Option<T> {
        loop {
            let (node_ptr, idx) = unsafe { *self.read.get() };
            let node = unsafe { &*node_ptr };
            if idx < self.node_cap {
                let claimed = node.widx.load(Ordering::Acquire).min(self.node_cap);
                if idx >= claimed {
                    return None; // nothing enqueued here yet
                }
                if !node.ready[idx].load(Ordering::Acquire) {
                    return None; // slot claimed but not yet written
                }
                let v = unsafe { (*node.slots[idx].get()).assume_init_read() };
                unsafe { *self.read.get() = (node_ptr, idx + 1) };
                return Some(v);
            }
            // Move to the next node, if it exists.
            let next = node.next.load(Ordering::Acquire);
            if next.is_null() {
                return None;
            }
            unsafe { *self.read.get() = (next, 0) };
        }
    }
}

impl<T> Drop for MpscQueue<T> {
    fn drop(&mut self) {
        // Drain unconsumed items, then free every node.
        while self.try_pop().is_some() {}
        let mut p = self.first.load(Ordering::Relaxed);
        while !p.is_null() {
            let node = unsafe { Box::from_raw(p) };
            p = node.next.load(Ordering::Relaxed);
        }
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

    #[test]
    fn mpsc_single_producer_fifo() {
        let q = MpscQueue::new(4);
        for i in 0..20 {
            q.push(i);
        }
        for i in 0..20 {
            loop {
                if let Some(v) = q.try_pop() {
                    assert_eq!(v, i);
                    break;
                }
            }
        }
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn mpsc_multi_producer_no_loss() {
        const P: usize = 4;
        const N: u64 = 5_000;
        let q = Arc::new(MpscQueue::new(64));
        let mut handles = Vec::new();
        for p in 0..P as u64 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..N {
                    q.push(p * N + i);
                }
            }));
        }
        let mut seen = vec![false; (P as u64 * N) as usize];
        let mut got = 0usize;
        while got < seen.len() {
            if let Some(v) = q.try_pop() {
                assert!(!seen[v as usize], "duplicate {v}");
                seen[v as usize] = true;
                got += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn mpsc_per_producer_order_preserved() {
        const N: u64 = 3_000;
        let q = Arc::new(MpscQueue::new(32));
        let mut handles = Vec::new();
        for p in 0..3u64 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..N {
                    q.push((p, i));
                }
            }));
        }
        let mut last = [0u64; 3];
        let mut got = 0u64;
        while got < 3 * N {
            if let Some((p, i)) = q.try_pop() {
                assert!(
                    i + 1 > last[p as usize],
                    "producer {p} out of order: {i} after {}",
                    last[p as usize]
                );
                last[p as usize] = i + 1;
                got += 1;
            }
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn mpsc_drop_with_unconsumed_items() {
        let q = MpscQueue::new(2);
        for i in 0..9 {
            q.push(format!("item{i}"));
        }
        q.try_pop();
        drop(q);
    }
}

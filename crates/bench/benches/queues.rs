//! Queue microbenchmarks: the lock-free SPSC/MPSC designs vs the
//! mutex-guarded baseline (the §2.3.3 design decision).

use criterion::{criterion_group, criterion_main, Criterion};
use profiler::{MpscQueue, SpscQueue};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Mutex-guarded bounded queue: the lock-based baseline of Fig. 2.9. No
/// engine is built on it any more, so it lives with its only measurement.
struct LockQueue<T> {
    inner: Mutex<VecDeque<T>>,
    cap: usize,
}

impl<T> LockQueue<T> {
    fn new(cap: usize) -> Self {
        LockQueue {
            inner: Mutex::new(VecDeque::with_capacity(cap)),
            cap,
        }
    }

    fn try_push(&self, v: T) -> Result<(), T> {
        let mut q = self.inner.lock().unwrap();
        if q.len() >= self.cap {
            return Err(v);
        }
        q.push_back(v);
        Ok(())
    }

    fn try_pop(&self) -> Option<T> {
        self.inner.lock().unwrap().pop_front()
    }
}

const N: u64 = 100_000;

fn queues(c: &mut Criterion) {
    let mut g = c.benchmark_group("queues");
    g.sample_size(10);
    g.throughput(criterion::Throughput::Elements(N));

    g.bench_function("spsc_lock_free", |b| {
        b.iter(|| {
            let q = Arc::new(SpscQueue::new(1024));
            let p = Arc::clone(&q);
            let producer = std::thread::spawn(move || {
                for i in 0..N {
                    let mut v = i;
                    loop {
                        match p.try_push(v) {
                            Ok(()) => break,
                            Err(x) => {
                                v = x;
                                std::hint::spin_loop();
                            }
                        }
                    }
                }
            });
            let mut got = 0u64;
            while got < N {
                if q.try_pop().is_some() {
                    got += 1;
                }
            }
            producer.join().unwrap();
        })
    });

    g.bench_function("spsc_lock_based", |b| {
        b.iter(|| {
            let q = Arc::new(LockQueue::new(1024));
            let p = Arc::clone(&q);
            let producer = std::thread::spawn(move || {
                for i in 0..N {
                    let mut v = i;
                    loop {
                        match p.try_push(v) {
                            Ok(()) => break,
                            Err(x) => {
                                v = x;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            });
            let mut got = 0u64;
            while got < N {
                if q.try_pop().is_some() {
                    got += 1;
                }
            }
            producer.join().unwrap();
        })
    });

    g.bench_function("mpsc_lock_free_4p", |b| {
        b.iter(|| {
            let q = Arc::new(MpscQueue::new(256));
            let mut handles = Vec::new();
            for _ in 0..4 {
                let q = Arc::clone(&q);
                handles.push(std::thread::spawn(move || {
                    for i in 0..N / 4 {
                        q.push(i);
                    }
                }));
            }
            let mut got = 0u64;
            while got < (N / 4) * 4 {
                if q.try_pop().is_some() {
                    got += 1;
                }
            }
            for h in handles {
                h.join().unwrap();
            }
        })
    });

    g.finish();
}

criterion_group!(benches, queues);
criterion_main!(benches);

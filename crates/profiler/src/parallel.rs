//! The worker transport of the profiling engine (dissertation §2.3.3).
//!
//! Every engine kind is this dial — `serial-*` is one partition,
//! `EngineKind::Parallel` is `W` ([`crate::EngineKind::dials`]) — and every
//! target, multi-threaded ones included, runs through it: the engine
//! ([`crate::pipeline::Profiler`]) starts with the partitions it
//! processes itself — no threads, no queues, so small workloads never pay
//! transport setup and machines without spare cores never lose to context
//! switching. Once [`crate::ProfileConfig::spawn_threshold`] accesses have
//! arrived one by one, spare hardware parallelism exists, no memory ceiling
//! is set and no plan run has been resolved in closed form, it *escalates*:
//! each partition's `Shadow` moves into a spawned
//! consumer thread (its shadow state travels with it, so the hand-off is
//! output-invisible) fed over a bounded lock-free SPSC queue. From then on
//! the thread executing the target is the *producer*: it packs annotated
//! accesses into compact [`PackedAccess`] chunks of
//! [`crate::Dials::chunk`] records (32 bytes each — line, variable
//! and direction resolve through the shared [`interp::MemOpMeta`] table)
//! and routes each by address — the paper's modulo (Eq. 2.1), so the
//! temporal order per address is preserved — to its partition's worker,
//! which unpacks every record into [`crate::DepBuilder::process`].
//!
//! Producer and worker share one `Channel` and nothing else: two SPSC
//! queues, one each way. Down go chunks, evictions and the stop, and ahead
//! of each chunk the loop instances the producer registered since the
//! worker's previous chunk — the queue is FIFO, so whatever a chunk's
//! accesses name is in the worker's own [`InstanceTable`] by the time it
//! reads them, and `carried_by` resolves with no lock and no shared state.
//! Up come the spent chunks ("empty chunks are recycled"), cleared, for the
//! producer to refill. This module holds that transport: messages, the
//! channel, the worker loop and its supervision (a panicking worker hands
//! its partition back to the producer, which finishes it inline against
//! its own table with the same dependences). A worker only consumes:
//! budgets are the producer's to govern, and a memory ceiling keeps every
//! partition on the producer.
//!
//! Not here: §2.3.3's hot-address load balancing and the lock-based queue
//! of Fig. 2.9a. Both were implemented and measured (CHANGES.md, PR 23):
//! at the paper's rebalance interval no workload ever migrated an address,
//! and keeping the per-address counts cost 15–37% with two workers.
//!
//! Not here either: the multi-producer replay of §2.3.4 and the lock-free
//! MPSC queue of Fig. 2.5 it fed. A multi-threaded target is profiled like
//! any other, with [`interp::RunConfig::racy_delivery`] set: the
//! interpreter buffers each thread's events and flushes them at lock
//! release, spawn, join, thread end, send and receive, so lock-ordered
//! accesses arrive in order (Fig. 2.4c) and unsynchronized ones may not —
//! which the engine reports as race hints through timestamp inversion. The
//! replay recorded the run, then re-delivered each target thread's stream
//! from its own OS thread; its producers synchronised only on lock, spawn
//! and join, so a mailbox handoff arrived in either order. Measured against
//! racy delivery before the replay was deleted (release build, 2-core host;
//! details in CHANGES.md):
//!
//! | target | replay | racy delivery |
//! |---|---|---|
//! | `race_hint` example | 32 deps, 4 race hints on `counter` | identical |
//! | lock-ordered counter | == `HashShadowOracle` | == `HashShadowOracle` |
//! | six pthread-style `-par` programs | sorted deps equal | sorted deps equal |
//! | `rotate-par` | 81–83 deps across nine runs | 91 deps, every run |
//! | three actor programs | 34 / 124–128 / 115–116 deps, 2 false hints | 37 / 132 / 121, none |
//! | `actors_10k` | 39,910–40,015 deps, ~9,900 false hints, 2.9–3.4 s | 50,042 deps, none, 61 ms |

use crate::access::{Instance, InstanceTable, PackedAccess};
use crate::queue::SpscQueue;
use crate::shadow::{Finished, Shadow};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Message to a worker.
pub(crate) enum Msg {
    /// Loop instances the producer registered since this worker's previous
    /// chunk, in id order: the worker's table grows by exactly these.
    Instances(Vec<Instance>),
    /// A chunk of packed accesses, all owned by this worker.
    Chunk(Vec<PackedAccess>),
    /// Evict a dead address range.
    Dealloc { addr: u64, words: u64 },
    /// Finish and report.
    Stop,
}

/// Everything producer and worker share: one SPSC queue each way.
pub(crate) struct Channel {
    /// Producer → worker, in delivery order.
    pub(crate) inbox: SpscQueue<Msg>,
    /// Worker → producer: processed chunks, cleared, keeping their
    /// capacity. A chunk that finds it full is dropped.
    pub(crate) spent: SpscQueue<Vec<PackedAccess>>,
}

impl Channel {
    pub(crate) fn new(cap: usize) -> Self {
        Channel {
            inbox: SpscQueue::new(cap),
            spent: SpscQueue::new(cap),
        }
    }

    /// An empty chunk for `chunk_size` accesses: one the worker handed
    /// back, or a fresh allocation while none is waiting.
    pub(crate) fn fresh_chunk(&self, chunk_size: usize) -> Vec<PackedAccess> {
        self.spent
            .try_pop()
            .unwrap_or_else(|| Vec::with_capacity(chunk_size))
    }
}

/// Push to a live worker, spinning while its bounded queue is full — but
/// watch for the consumer dying: every 256 stalls the join handle is
/// checked, and a dead worker hands the message back so the supervisor can
/// recover the partition instead of spinning forever.
pub(crate) fn push_supervised(
    queue: &SpscQueue<Msg>,
    handle: &JoinHandle<WorkerOutcome>,
    mut msg: Msg,
    stalls: &mut u64,
) -> Result<(), Msg> {
    loop {
        msg = match queue.try_push(msg) {
            Ok(()) => return Ok(()),
            Err(m) => m,
        };
        *stalls += 1;
        if (*stalls).is_multiple_of(256) && handle.is_finished() {
            return Err(msg);
        }
        std::thread::yield_now();
    }
}

/// Apply one transport message directly to a partition — the producer-local
/// delivery path, for partitions it owns and for draining a dead worker's
/// queue. `table` is the producer's own, which already holds every instance
/// an update could bring.
pub(crate) fn apply_msg(shadow: &mut Shadow, msg: Msg, table: &InstanceTable) {
    match msg {
        Msg::Chunk(ch) => shadow.process_chunk(&ch, table),
        Msg::Dealloc { addr, words } => shadow.clear_range(addr, words),
        Msg::Instances(_) | Msg::Stop => {}
    }
}

/// What a worker thread reports when joined.
pub(crate) enum WorkerOutcome {
    /// Clean shutdown after a [`Msg::Stop`] — which only the end of a run
    /// sends.
    Stopped(Finished),
    /// The worker panicked.
    Panicked(DeadWorker),
}

/// What survives a worker's panic: its partition and the message it was
/// processing, so the supervisor can drain the partition back into inline
/// processing and the run still completes.
pub(crate) struct DeadWorker {
    /// Boxed: the builder dwarfs the `Finished` payload, and this is built
    /// once per dead worker, off the hot path.
    shadow: Box<Shadow>,
    /// The message in flight when the panic fired, not yet applied.
    failed: Option<Msg>,
}

impl DeadWorker {
    /// Take the partition back with the worker's remaining input folded in:
    /// replay the message it was processing when it panicked (faultpoints
    /// fire before any builder mutation, so the replay is exact), then drain
    /// its queue in FIFO order.
    ///
    /// Safe to call only after the worker thread has been joined: the
    /// producer is then the sole consumer of the queue.
    pub(crate) fn recover(self, queue: &SpscQueue<Msg>, table: &InstanceTable) -> Shadow {
        let mut shadow = *self.shadow;
        for m in self
            .failed
            .into_iter()
            .chain(std::iter::from_fn(|| queue.try_pop()))
        {
            apply_msg(&mut shadow, m, table);
        }
        shadow
    }
}

pub(crate) fn spawn_worker(chan: Arc<Channel>, shadow: Shadow) -> JoinHandle<WorkerOutcome> {
    std::thread::spawn(move || {
        // Partition and in-flight message live outside the unwind
        // boundary: a panic must not take the partition's shadow state
        // down with the thread. The worker's table may go down with it —
        // the producer's own finishes the partition.
        let mut shadow = shadow;
        let mut current: Option<Msg> = None;
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            worker_loop(&chan, &mut shadow, &mut current)
        }))
        .is_err();
        if unwound {
            return WorkerOutcome::Panicked(DeadWorker {
                shadow: Box::new(shadow),
                failed: current,
            });
        }
        WorkerOutcome::Stopped(shadow.finish())
    })
}

/// The consumer loop of §2.3.3, factored out so the supervisor in
/// [`spawn_worker`] can wrap it in a single unwind boundary.
fn worker_loop(chan: &Channel, shadow: &mut Shadow, current: &mut Option<Msg>) {
    let mut table = InstanceTable::new();
    let mut idle = 0u32;
    loop {
        match chan.inbox.try_pop() {
            Some(Msg::Stop) => break,
            Some(Msg::Instances(records)) => {
                idle = 0;
                table.extend(records);
            }
            Some(msg) => {
                idle = 0;
                // Stash before touching the partition; the faultpoints fire
                // before any mutation, so a panicked message replays
                // exactly once on the recovered partition.
                *current = Some(msg);
                match current.as_ref() {
                    Some(Msg::Chunk(ch)) => {
                        crate::faultpoint!("worker:chunk");
                        shadow.process_chunk(ch, &table);
                    }
                    Some(Msg::Dealloc { addr, words }) => {
                        crate::faultpoint!("worker:dealloc");
                        shadow.clear_range(*addr, *words);
                    }
                    _ => {}
                }
                if let Some(Msg::Chunk(mut ch)) = current.take() {
                    ch.clear();
                    let _ = chan.spent.try_push(ch);
                }
            }
            None => {
                idle += 1;
                if idle > 128 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{ProfileError, ShadowTier};
    use crate::dep::DepType;
    use crate::run::{
        profile_program_with, EngineKind, ParallelStats, ProfileConfig, ProfileOutput,
    };
    use interp::{Program, RunConfig};

    fn program(src: &str) -> Program {
        Program::new(lang::compile(src, "t").unwrap())
    }

    /// `cfg` with the interpreter configuration `run`.
    pub(super) fn run_with(
        p: &Program,
        cfg: ProfileConfig,
        run: RunConfig,
    ) -> Result<ProfileOutput, ProfileError> {
        profile_program_with(p, &ProfileConfig { run, ..cfg })
    }

    /// Four partitions shipping chunks of 32.
    fn four_by_32() -> EngineKind {
        EngineKind::Parallel {
            workers: 4,
            chunk: 32,
        }
    }

    pub(super) const SEQ_SRC: &str = "global int a[64];\nglobal int s;\nfn main() {\nfor (int i = 0; i < 64; i = i + 1) { a[i] = i; }\nfor (int r = 0; r < 4; r = r + 1) {\nfor (int i = 1; i < 64; i = i + 1) {\ns = s + a[i] - a[i - 1];\n}\n}\n}";

    /// Workers spawned at construction — the transport-coverage
    /// configuration.
    pub(super) fn spawned_cfg() -> ProfileConfig {
        ProfileConfig {
            engine: four_by_32(),
            spawn_threshold: 0,
            ..Default::default()
        }
    }

    /// The default spawn threshold, high enough that test workloads stay
    /// inline.
    pub(super) fn inline_cfg() -> ProfileConfig {
        ProfileConfig {
            engine: four_by_32(),
            ..Default::default()
        }
    }

    fn stats(out: &ProfileOutput) -> &ParallelStats {
        out.parallel
            .as_ref()
            .expect("parallel runs report transport stats")
    }

    #[test]
    fn parallel_matches_serial_lock_free() {
        let p = program(SEQ_SRC);
        let serial = profile_program_with(
            &p,
            &ProfileConfig {
                engine: EngineKind::signature(1 << 16),
                ..Default::default()
            },
        )
        .unwrap();
        let par = run_with(&p, spawned_cfg(), RunConfig::default()).unwrap();
        assert_eq!(
            par.deps.sorted(),
            serial.deps.sorted(),
            "parallel profiler must produce the same dependences as the serial version"
        );
        assert_eq!(stats(&par).spawned_workers, 4, "threshold 0 spawns eagerly");
    }

    #[test]
    fn adaptive_inline_matches_perfect_and_spawns_nothing() {
        let p = program(SEQ_SRC);
        let perfect = profile_program_with(&p, &ProfileConfig::default()).unwrap();
        let par = run_with(&p, inline_cfg(), RunConfig::default()).unwrap();
        assert_eq!(
            par.deps.sorted(),
            perfect.deps.sorted(),
            "the inline engine must match the exact serial engine"
        );
        assert_eq!(par.deps.total_found, perfect.deps.total_found);
        assert_eq!(
            stats(&par).spawned_workers,
            0,
            "a {}-access run must stay below the spawn threshold",
            par.skip_stats.total_accesses
        );
        assert_eq!(stats(&par).chunks, 0, "nothing ships without workers");
        assert_eq!(
            stats(&par).worker_processed.iter().sum::<u64>(),
            perfect.skip_stats.total_accesses
        );
    }

    #[test]
    fn adaptive_forced_spawn_matches_perfect() {
        // Threshold 0: the partitions move into workers before the first
        // access; the hand-off must be invisible in the output.
        let p = program(SEQ_SRC);
        let perfect = profile_program_with(&p, &ProfileConfig::default()).unwrap();
        let mut cfg = inline_cfg();
        cfg.spawn_threshold = 0;
        let par = run_with(&p, cfg, RunConfig::default()).unwrap();
        assert_eq!(par.deps.sorted(), perfect.deps.sorted());
        assert_eq!(par.deps.total_found, perfect.deps.total_found);
        assert_eq!(
            stats(&par).spawned_workers,
            4,
            "threshold 0 forces spawning even without spare cores"
        );
    }

    #[test]
    fn work_distributed_across_workers() {
        let p = program(SEQ_SRC);
        let par = run_with(&p, spawned_cfg(), RunConfig::default()).unwrap();
        let busy = stats(&par)
            .worker_processed
            .iter()
            .filter(|&&c| c > 0)
            .count();
        assert!(busy >= 2, "at least two workers must receive accesses");
        assert!(stats(&par).chunks > 0);
    }

    /// Multi-threaded targets take the same engine; the interpreter
    /// delivers each thread's accesses as real threads would.
    fn racy() -> RunConfig {
        RunConfig {
            racy_delivery: true,
            ..Default::default()
        }
    }

    #[test]
    fn multithreaded_target_cross_thread_deps() {
        // Lock-ordered accesses arrive in order: cross-thread flow on the
        // counter, and no race hint on it.
        let src = "global int counter;
fn w(int n) { for (int i = 0; i < n; i = i + 1) { lock(1); counter = counter + 1; unlock(1); } }
fn main() { int a = spawn(w, 40); int b = spawn(w, 40); join(a); join(b); }";
        let p = program(src);
        let out = run_with(&p, spawned_cfg(), racy()).unwrap();
        assert!(
            out.deps.sorted().iter().any(|d| d.is_cross_thread()),
            "lock-protected shared counter must produce cross-thread dependences"
        );
        assert!(
            out.deps.race_hints().is_empty(),
            "{:?}",
            out.deps.race_hints()
        );
    }

    #[test]
    fn unsynchronized_access_may_yield_race_hint() {
        // No locks around the shared counter: buffered deliveries of the
        // two threads interleave out of timestamp order, which is flagged.
        // Delivery is deterministic, so the hint is too.
        let src = "global int counter;
fn w(int n) { for (int i = 0; i < n; i = i + 1) { counter = counter + 1; } }
fn main() { int a = spawn(w, 2000); int b = spawn(w, 2000); join(a); join(b); }";
        let p = program(src);
        let out = run_with(&p, spawned_cfg(), racy()).unwrap();
        assert!(out.deps.sorted().iter().any(|d| d.is_cross_thread()));
        assert!(!out.deps.race_hints().is_empty());
    }

    #[test]
    fn racy_delivery_matches_serial_on_same_stream() {
        // Racy delivery interleaves threads' buffered accesses out of
        // timestamp order (deterministically, per seed). The parallel
        // engine must agree with the serial engine on the identical
        // stream, inline and through workers: every access ships with its
        // own timestamp, so the race hints match too.
        let src = "global int counter;
fn w(int n) { for (int i = 0; i < n; i = i + 1) { counter = counter + 1; } }
fn main() { int a = spawn(w, 300); int b = spawn(w, 300); join(a); join(b); }";
        let p = program(src);
        let racy = RunConfig {
            buffer_cap: 16,
            ..racy()
        };
        let serial = profile_program_with(
            &p,
            &ProfileConfig {
                engine: EngineKind::SerialPerfect,
                run: racy.clone(),
                ..Default::default()
            },
        )
        .unwrap();
        for spawn_threshold in [u64::MAX, 0] {
            let mut cfg = inline_cfg();
            cfg.spawn_threshold = spawn_threshold;
            let par = run_with(&p, cfg, racy.clone()).unwrap();
            assert_eq!(
                par.deps.sorted(),
                serial.deps.sorted(),
                "racy stream (threshold {spawn_threshold}) diverged"
            );
        }
    }

    /// The channel alone, no interpreter: instances sent down it resolve
    /// the chunk behind them, and the chunk comes back up cleared, its
    /// capacity kept.
    #[test]
    fn a_worker_learns_instances_from_its_channel_and_hands_chunks_back() {
        let meta: Arc<[interp::MemOpMeta]> = vec![
            interp::MemOpMeta {
                line: 3,
                var: 0,
                is_write: true,
            },
            interp::MemOpMeta {
                line: 4,
                var: 0,
                is_write: false,
            },
        ]
        .into();
        let chan = Arc::new(Channel::new(4));
        let shadow = Shadow::new(ShadowTier::Perfect, &meta);
        let worker = spawn_worker(Arc::clone(&chan), shadow);
        // An outer loop and two instances of an inner one, entered in outer
        // iterations 1 and 2.
        let outer = Instance {
            loop_key: (0, 1),
            parent: crate::access::NO_INSTANCE,
            iter_in_parent: 0,
        };
        let inner = |iter_in_parent| Instance {
            loop_key: (0, 2),
            parent: 0,
            iter_in_parent,
        };
        // A write in the first inner instance, a read of the same word in
        // the second: carried by the outer loop.
        let access = |op, instance| PackedAccess {
            addr: 64,
            ts: u64::from(op) + 1,
            op,
            instance,
            iter: 1,
            thread: 0,
        };
        let mut chunk = Vec::with_capacity(32);
        chunk.extend([access(0, 1), access(1, 2)]);
        let update = Msg::Instances(vec![outer, inner(1), inner(2)]);
        for msg in [update, Msg::Chunk(chunk), Msg::Stop] {
            assert!(chan.inbox.try_push(msg).is_ok());
        }
        let Ok(WorkerOutcome::Stopped(done)) = worker.join() else {
            panic!("the worker did not finish cleanly");
        };
        let raw = done
            .deps
            .sorted()
            .into_iter()
            .find(|d| d.ty == DepType::Raw);
        assert_eq!(raw.map(|d| d.carried_by), Some(Some((0, 1))));
        let back = chan.spent.try_pop().expect("the spent chunk came back");
        assert!(back.is_empty() && back.capacity() >= 32);
    }
}

#[cfg(test)]
mod regression_tests {
    use crate::run::{profile_program_with, EngineKind, ProfileConfig};
    use interp::{Program, RunConfig};
    /// Set-level agreement between parallel and serial engines (the
    /// Vec-level check lives in `parallel_matches_serial_lock_free`).
    #[test]
    fn parallel_and_serial_dep_sets_identical() {
        let src = super::tests::SEQ_SRC;
        let p = Program::new(lang::compile(src, "t").unwrap());
        let serial = profile_program_with(
            &p,
            &ProfileConfig {
                engine: EngineKind::signature(1 << 16),
                ..Default::default()
            },
        )
        .unwrap();
        let par =
            super::tests::run_with(&p, super::tests::spawned_cfg(), RunConfig::default()).unwrap();
        let ps: std::collections::HashSet<_> = par.deps.sorted().into_iter().collect();
        let ss: std::collections::HashSet<_> = serial.deps.sorted().into_iter().collect();
        let extra: Vec<_> = ps.difference(&ss).collect();
        let missing: Vec<_> = ss.difference(&ps).collect();
        assert!(extra.is_empty(), "parallel-only deps: {extra:?}");
        assert!(missing.is_empty(), "serial-only deps: {missing:?}");
    }
}

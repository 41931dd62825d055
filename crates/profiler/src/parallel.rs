//! The worker transport of the profiling engine (dissertation §2.3.3).
//!
//! Every engine kind is this dial — `serial-*` is one partition,
//! [`profile_parallel`] and `EngineKind::Parallel` are `W` — and every
//! target, multi-threaded ones included, runs through it: the engine
//! ([`crate::pipeline::Profiler`]) starts with the partitions it
//! processes itself — no threads, no queues, so small workloads never pay
//! transport setup and machines without spare cores never lose to context
//! switching. Once [`ParallelConfig::spawn_threshold`] accesses have
//! arrived one by one, spare hardware parallelism exists, no memory ceiling
//! is set and no plan run has been resolved in closed form, it *escalates*:
//! each partition's `Shadow` moves into a spawned
//! consumer thread (its shadow state travels with it, so the hand-off is
//! output-invisible) fed over a bounded lock-free SPSC queue. From then on
//! the thread executing the target is the *producer*: it packs annotated
//! accesses into compact [`PackedAccess`] chunks (32 bytes per record —
//! line, variable and direction resolve through the shared
//! [`interp::MemOpMeta`] table) and routes each by address — the paper's
//! modulo (Eq. 2.1), so the temporal order per address is preserved — to
//! its partition's worker, which unpacks every record into
//! [`crate::DepBuilder::process`]. Chunk capacity ramps from
//! [`ParallelConfig::MIN_CHUNK`] to [`ParallelConfig::chunk_size`] as
//! chunks ship; buffers recycle through a pool. This module holds that
//! transport: messages, queues, the chunk pool, the worker loop and its
//! supervision (a panicking worker hands its partition back to the
//! producer, which finishes it inline with the same dependences). A worker
//! only consumes: budgets are the producer's to govern, and a memory
//! ceiling keeps every partition on the producer.
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

use crate::access::{carried_by_in, CarriedResolver, Instance, LoopKey, PackedAccess, NO_INSTANCE};
use crate::budget::{Budget, ProfileError, ShadowTier};
use crate::pipeline::Profiler;
use crate::queue::SpscQueue;
use crate::run::{EngineKind, ProfileOutput};
use crate::shadow::{Finished, Shadow};
use interp::{Program, RunConfig};
use parking_lot::{Mutex, RwLock};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Configuration of the parallel profiler.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Number of partitions, i.e. consumer (worker) threads once spawned.
    pub workers: usize,
    /// Accesses per chunk (the ceiling of the chunk ramp).
    pub chunk_size: usize,
    /// Signature slots **per worker** per signature (the paper uses
    /// 6.25e6 × 16 threads = 1e8 total). Only used when the footprint
    /// forces the signature backend.
    pub sig_slots: usize,
    /// SPSC queue capacity in messages.
    pub queue_cap: usize,
    /// Enable variable-lifetime analysis.
    pub lifetime: bool,
    /// Accesses before the engine escalates from inline processing to
    /// spawned workers (given ≥ 2 available cores, no memory ceiling and no
    /// plan run resolved in closed form). `0` spawns at construction,
    /// whatever the host — but a memory ceiling still wins: under one the
    /// partitions never leave the producer. `u64::MAX` never spawns.
    pub spawn_threshold: u64,
    /// Resource budget. When active, the producer governs it alone: at its
    /// checkpoint cadence it checks the deadline and, under a memory
    /// ceiling (which keeps every partition on it), walks its partitions
    /// down the degradation ladder. Workers report no bytes while running;
    /// a run that moved under a deadline counts their partitions once, when
    /// they are joined.
    pub budget: Budget,
}

impl ParallelConfig {
    /// Default [`ParallelConfig::spawn_threshold`], for every engine kind
    /// (a serial engine's lone partition moves to one worker past it):
    /// below ~1M accesses the pipeline's setup + per-chunk transport costs
    /// outweigh any consumer overlap (programs of 30–50k accesses measured
    /// 5–8× slower through workers spawned up front than serially). Every
    /// catalogue program stays below it (the largest, `c-ray`, makes 215 k
    /// accesses); `sparse_gather`'s 6.3 M move to a worker at the first
    /// checkpoint past it.
    pub const ADAPTIVE_SPAWN_THRESHOLD: u64 = 1 << 20;

    /// First rung of the chunk-size ramp.
    pub const MIN_CHUNK: usize = 64;

    /// The dial set to one partition — what the serial engine kinds run,
    /// with `sig_slots` the tier the ladder or a recovery falls back to.
    /// Its worker, if the run earns one, is fed over a short queue: at the
    /// default 512 queued chunks one worker measured +4.4 MB RSS against a
    /// 33 MB baseline on `sparse_gather`, at 16 chunks of 256 accesses
    /// +0.6 MB.
    pub(crate) fn serial(sig_slots: usize, lifetime: bool, budget: Budget) -> Self {
        ParallelConfig {
            workers: 1,
            chunk_size: 256,
            sig_slots,
            queue_cap: 16,
            lifetime,
            spawn_threshold: Self::ADAPTIVE_SPAWN_THRESHOLD,
            budget,
        }
    }

    /// The partitions' starting tier, chosen from the program's address
    /// footprint: exact page-table maps below the auto-selection threshold,
    /// bounded signatures of [`ParallelConfig::sig_slots`] beyond it.
    pub(crate) fn tier_for(&self, footprint_words: usize) -> ShadowTier {
        if footprint_words <= EngineKind::AUTO_PERFECT_MAX_WORDS {
            ShadowTier::Perfect
        } else {
            ShadowTier::Signature {
                slots: self.sig_slots,
            }
        }
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            workers: 8,
            chunk_size: 256,
            sig_slots: 1 << 18,
            queue_cap: 512,
            lifetime: true,
            spawn_threshold: Self::ADAPTIVE_SPAWN_THRESHOLD,
            budget: Budget::unlimited(),
        }
    }
}

/// Grow-only instance table workers read. The producer keeps its own plain
/// [`crate::InstanceTable`] and publishes what is new before each chunk it
/// ships (`SharedTable::extend`).
///
/// Writes (loop entries) are rare relative to reads (every dependence), and
/// entries are immutable once pushed, so workers keep a local cache and
/// refresh it only when they encounter an unknown instance id.
#[derive(Debug, Default)]
pub(crate) struct SharedTable {
    inner: RwLock<Vec<Instance>>,
}

impl SharedTable {
    /// Append instances the producer registered (producer side).
    pub(crate) fn extend(&self, new: &[Instance]) {
        self.inner.write().extend_from_slice(new);
    }

    /// Extend `cache` with entries it has not seen yet (worker side).
    pub(crate) fn refresh(&self, cache: &mut Vec<Instance>) {
        let v = self.inner.read();
        if cache.len() < v.len() {
            cache.extend_from_slice(&v[cache.len()..]);
        }
    }
}

/// Worker-local resolver over the shared table with a lazily refreshed
/// cache: reads are lock-free except when new instances appear.
pub(crate) struct WorkerResolver {
    shared: Arc<SharedTable>,
    cache: RefCell<Vec<Instance>>,
}

impl WorkerResolver {
    pub(crate) fn new(shared: Arc<SharedTable>) -> Self {
        WorkerResolver {
            shared,
            cache: RefCell::new(Vec::new()),
        }
    }
}

impl CarriedResolver for WorkerResolver {
    fn carried_by(&self, ai: u32, au: u32, bi: u32, bu: u32) -> Option<LoopKey> {
        let need = [ai, bi]
            .iter()
            .filter(|&&x| x != NO_INSTANCE)
            .map(|&x| x as usize + 1)
            .max()
            .unwrap_or(0);
        let mut cache = self.cache.borrow_mut();
        if cache.len() < need {
            self.shared.refresh(&mut cache);
        }
        carried_by_in(&cache, ai, au, bi, bu)
    }
}

/// Message to a worker.
pub(crate) enum Msg {
    /// A chunk of packed accesses, all owned by this worker.
    Chunk(Vec<PackedAccess>),
    /// Evict a dead address range.
    Dealloc { addr: u64, words: u64 },
    /// Finish and report.
    Stop,
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
/// queue.
pub(crate) fn apply_msg(shadow: &mut Shadow, msg: Msg, resolver: &impl CarriedResolver) {
    match msg {
        Msg::Chunk(ch) => shadow.process_chunk(&ch, resolver),
        Msg::Dealloc { addr, words } => shadow.clear_range(addr, words),
        Msg::Stop => {}
    }
}

/// Fold a dead worker's remaining input into its recovered partition:
/// replay the message it was processing when it panicked (faultpoints fire
/// before any builder mutation, so the replay is exact), then drain its
/// queue in FIFO order.
///
/// Safe to call only after the worker thread has been joined: the producer
/// is then the sole consumer of the queue.
pub(crate) fn drain_dead_worker(
    shadow: &mut Shadow,
    failed: Option<Msg>,
    queue: &SpscQueue<Msg>,
    resolver: &impl CarriedResolver,
) {
    if let Some(m) = failed {
        apply_msg(shadow, m, resolver);
    }
    while let Some(m) = queue.try_pop() {
        apply_msg(shadow, m, resolver);
    }
}

/// What a worker thread reports when joined.
pub(crate) enum WorkerOutcome {
    /// Clean shutdown after a [`Msg::Stop`].
    Finished(Finished),
    /// The worker panicked. Its partition and the message it was processing
    /// survive the unwind, so the supervisor can drain the partition back
    /// into inline processing and the run still completes.
    Panicked {
        /// Boxed: the builder dwarfs the `Finished` payload, and this
        /// variant is built once per dead worker, off the hot path.
        shadow: Box<Shadow>,
        /// The message in flight when the panic fired, not yet applied.
        failed: Option<Msg>,
    },
}

/// Chunk recycling pool (the paper: "empty chunks are recycled").
pub(crate) type ChunkPool = Arc<Mutex<Vec<Vec<PackedAccess>>>>;

/// Chunks the shared pool retains at most; beyond this, returned buffers
/// are simply dropped.
const POOL_CAP: usize = 128;
/// Chunks moved between the shared pool and a producer's local freelist or
/// a worker's return batch per pool-lock acquisition.
const POOL_BATCH: usize = 16;

/// Producer-side chunk allocator over the shared recycling pool.
///
/// Keeps a local freelist and refills it [`POOL_BATCH`] chunks at a time,
/// so the steady state takes the pool lock once per `POOL_BATCH` chunks
/// (and allocates nothing at all once the pool has warmed up).
pub(crate) struct ChunkAlloc {
    pool: ChunkPool,
    local: Vec<Vec<PackedAccess>>,
    chunk_size: usize,
}

impl ChunkAlloc {
    pub(crate) fn new(pool: ChunkPool, chunk_size: usize) -> Self {
        ChunkAlloc {
            pool,
            local: Vec::with_capacity(POOL_BATCH),
            chunk_size,
        }
    }

    /// An empty chunk with `chunk_size` capacity: recycled if possible,
    /// freshly allocated otherwise.
    pub(crate) fn fresh(&mut self) -> Vec<PackedAccess> {
        if let Some(c) = self.local.pop() {
            return c;
        }
        {
            let mut p = self.pool.lock();
            let at = p.len() - p.len().min(POOL_BATCH);
            self.local.extend(p.drain(at..));
        }
        self.local
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(self.chunk_size))
    }
}

/// Worker-side return batcher: hands processed (cleared) chunks back to the
/// shared pool in [`POOL_BATCH`]-sized bundles.
struct ChunkReturner {
    pool: ChunkPool,
    pending: Vec<Vec<PackedAccess>>,
}

impl ChunkReturner {
    fn new(pool: ChunkPool) -> Self {
        ChunkReturner {
            pool,
            pending: Vec::with_capacity(POOL_BATCH),
        }
    }

    fn put(&mut self, mut chunk: Vec<PackedAccess>) {
        chunk.clear();
        self.pending.push(chunk);
        if self.pending.len() >= POOL_BATCH {
            let mut p = self.pool.lock();
            while p.len() < POOL_CAP {
                match self.pending.pop() {
                    Some(c) => p.push(c),
                    None => break,
                }
            }
            drop(p);
            self.pending.clear(); // anything past POOL_CAP is dropped
        }
    }
}

pub(crate) fn spawn_worker(
    queue: Arc<SpscQueue<Msg>>,
    shadow: Shadow,
    shared: Arc<SharedTable>,
    pool: ChunkPool,
) -> JoinHandle<WorkerOutcome> {
    std::thread::spawn(move || {
        let resolver = WorkerResolver::new(shared);
        let mut returner = ChunkReturner::new(pool);
        // Partition and in-flight message live outside the unwind
        // boundary: a panic must not take the partition's shadow state
        // down with the thread.
        let mut shadow = shadow;
        let mut current: Option<Msg> = None;
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            worker_loop(&queue, &mut shadow, &resolver, &mut returner, &mut current)
        }))
        .is_err();
        if unwound {
            return WorkerOutcome::Panicked {
                shadow: Box::new(shadow),
                failed: current,
            };
        }
        WorkerOutcome::Finished(shadow.finish())
    })
}

/// The consumer loop of §2.3.3, factored out so the supervisor in
/// [`spawn_worker`] can wrap it in a single unwind boundary.
fn worker_loop(
    queue: &SpscQueue<Msg>,
    shadow: &mut Shadow,
    resolver: &WorkerResolver,
    returner: &mut ChunkReturner,
    current: &mut Option<Msg>,
) {
    let mut idle = 0u32;
    loop {
        match queue.try_pop() {
            Some(Msg::Stop) => break,
            Some(msg) => {
                idle = 0;
                // Stash before touching the partition; the faultpoints fire
                // before any mutation, so a panicked message replays
                // exactly once on the recovered partition.
                *current = Some(msg);
                match current.as_ref() {
                    Some(Msg::Chunk(ch)) => {
                        crate::faultpoint!("worker:chunk");
                        shadow.process_chunk(ch, resolver);
                    }
                    Some(Msg::Dealloc { addr, words }) => {
                        crate::faultpoint!("worker:dealloc");
                        shadow.clear_range(*addr, *words);
                    }
                    Some(Msg::Stop) | None => {}
                }
                if let Some(Msg::Chunk(ch)) = current.take() {
                    returner.put(ch);
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

/// Profile a target with the parallel profiler: the engine of
/// `EngineKind::Parallel` under an explicit [`ParallelConfig`]. A
/// multi-threaded target is profiled the same way; set
/// [`RunConfig::racy_delivery`] to deliver its threads' accesses as real
/// threads would (race hints, §2.3.4).
pub fn profile_parallel(
    prog: &Program,
    pcfg: ParallelConfig,
    rcfg: RunConfig,
) -> Result<ProfileOutput, ProfileError> {
    let p = Profiler::parallel(prog.mem_op_meta(), prog.footprint_words(), pcfg);
    crate::run::drive(prog, p, rcfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{profile_program_with, ParallelStats, ProfileConfig};

    fn program(src: &str) -> Program {
        Program::new(lang::compile(src, "t").unwrap())
    }

    pub(super) const SEQ_SRC: &str = "global int a[64];\nglobal int s;\nfn main() {\nfor (int i = 0; i < 64; i = i + 1) { a[i] = i; }\nfor (int r = 0; r < 4; r = r + 1) {\nfor (int i = 1; i < 64; i = i + 1) {\ns = s + a[i] - a[i - 1];\n}\n}\n}";

    /// Workers spawned at construction — the transport-coverage
    /// configuration.
    pub(super) fn spawned_cfg() -> ParallelConfig {
        ParallelConfig {
            workers: 4,
            chunk_size: 32,
            sig_slots: 1 << 16,
            queue_cap: 64,
            spawn_threshold: 0,
            ..Default::default()
        }
    }

    /// The default spawn threshold, high enough that test workloads stay
    /// inline.
    pub(super) fn inline_cfg() -> ParallelConfig {
        ParallelConfig {
            workers: 4,
            chunk_size: 32,
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
        let par = profile_parallel(&p, spawned_cfg(), RunConfig::default()).unwrap();
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
        let par = profile_parallel(&p, inline_cfg(), RunConfig::default()).unwrap();
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
        let par = profile_parallel(&p, cfg, RunConfig::default()).unwrap();
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
        let par = profile_parallel(&p, spawned_cfg(), RunConfig::default()).unwrap();
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
        let out = profile_parallel(&p, spawned_cfg(), racy()).unwrap();
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
        let out = profile_parallel(&p, spawned_cfg(), racy()).unwrap();
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
            let par = profile_parallel(&p, cfg, racy.clone()).unwrap();
            assert_eq!(
                par.deps.sorted(),
                serial.deps.sorted(),
                "racy stream (threshold {spawn_threshold}) diverged"
            );
        }
    }

    #[test]
    fn shared_table_refresh() {
        let t = SharedTable::default();
        let instance = |loop_key, parent| Instance {
            loop_key,
            parent,
            iter_in_parent: 3,
        };
        t.extend(&[instance((0, 1), NO_INSTANCE)]);
        let mut cache = Vec::new();
        t.refresh(&mut cache);
        assert_eq!(cache.len(), 1);
        t.extend(&[instance((0, 2), 0)]);
        t.refresh(&mut cache);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache[0].loop_key, (0, 1));
        assert_eq!(cache[1].parent, 0);
    }
}

#[cfg(test)]
mod regression_tests {
    use super::*;
    use crate::run::{profile_program_with, EngineKind, ProfileConfig};
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
        let par = profile_parallel(&p, super::tests::spawned_cfg(), RunConfig::default()).unwrap();
        let ps: std::collections::HashSet<_> = par.deps.sorted().into_iter().collect();
        let ss: std::collections::HashSet<_> = serial.deps.sorted().into_iter().collect();
        let extra: Vec<_> = ps.difference(&ss).collect();
        let missing: Vec<_> = ss.difference(&ps).collect();
        assert!(extra.is_empty(), "parallel-only deps: {extra:?}");
        assert!(missing.is_empty(), "serial-only deps: {missing:?}");
    }
}

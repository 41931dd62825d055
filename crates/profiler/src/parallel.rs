//! Parallel data-dependence profiling (dissertation §2.3.3–§2.3.4), with
//! adaptive transport.
//!
//! **Sequential targets** ([`ParallelProfiler`], [`profile_parallel`]): the
//! thread executing the target program is the *producer*; it annotates
//! accesses with their loop context, packs them into compact
//! [`PackedAccess`] chunks (32 bytes per record — line/variable/direction
//! resolve through the shared [`interp::MemOpMeta`] table, consecutive
//! same-site repeats combine into a counter), and routes each chunk — by
//! address, so the temporal order per address is preserved — to one of `W`
//! *partitions*.
//!
//! The transport is **adaptive** (this reproduction's answer to the paper's
//! observation that the pipeline only pays off once the workload is large
//! enough):
//!
//! - Profiling starts *inline*: the producer owns one dependence builder
//!   per partition and feeds accesses straight into its persistent group
//!   cache ([`DepBuilder::process_streamed`] — the buffered chunk would
//!   only round-trip through memory when producer and consumer are the
//!   same thread). No threads, no queues — small workloads never pay
//!   transport setup, and machines without spare cores never lose to
//!   context switching.
//! - Once the observed access volume crosses
//!   [`ParallelConfig::spawn_threshold`] *and* spare hardware parallelism
//!   exists, the producer *escalates*: each partition's builder moves into
//!   a spawned consumer thread (its shadow state travels with it, so the
//!   hand-off is output-invisible) fed over bounded lock-free SPSC queues
//!   (or mutex-guarded queues, for the Fig. 2.9 lock-based baseline).
//! - Chunk capacity ramps from small (low latency while the run may still
//!   turn out tiny) to [`ParallelConfig::chunk_size`] as volume grows.
//! - The partition shadow maps are chosen from the program's address
//!   footprint: exact page-table maps below the auto-selection threshold
//!   (collision-free *and* enumerable, which enables partition merging),
//!   bounded signatures beyond it.
//!
//! Load balancing (§2.3.3) is likewise two-sided: in spawned mode the
//! hottest addresses are *migrated* to the least-loaded workers — the
//! shadow status moves with the address via an extract/inject handshake,
//! so redistribution never fabricates INIT events; in inline mode
//! underloaded partitions are *merged* pairwise (their whole shadow state
//! moves, exact-map backend only), concentrating the combining buffers.
//!
//! **Multi-threaded targets** ([`profile_multithreaded_target`]): every
//! target thread becomes a real producer, so each worker's queue has
//! multiple producers — the lock-free MPSC queue of Fig. 2.5. Accesses
//! performed under a target-program lock are delivered under an equivalent
//! replay lock, reproducing the requirement that access and push be atomic
//! (Fig. 2.4c); unsynchronized accesses may be delivered out of order,
//! which the engine detects via timestamp inversion and reports as a race
//! hint. (Repeat-combining is disabled here: with interleaved producers the
//! dropped timestamps would be observable through race hints.)

use crate::access::{
    carried_by_in, push_combining, CarriedResolver, Instance, InstanceRegistry, LoopContext,
    LoopKey, PackedAccess, NO_INSTANCE,
};
use crate::budget::{
    signature_slots_for_budget, Budget, DegradationStep, GaugeSlot, MemGauge, ResourceStats,
    ShadowTier, LADDER_MIN_SLOTS,
};
use crate::dep::DepSet;
use crate::engine::{DepBuilder, EngineConfig, SkipStats};
use crate::maps::{Cell, PerfectMap, SignatureMap};
use crate::pet::{Pet, PetBuilder};
use crate::queue::{LockQueue, MpscQueue, SpscQueue};
use fxhash::FxHashMap;
use interp::{Event, MemOpMeta, Program, RunConfig, RuntimeError, Sink};
use parking_lot::{Mutex, RwLock};
use serde::Serialize;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Which queue implementation feeds the workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// Lock-free SPSC ring buffers (the DiscoPoP design).
    LockFree,
    /// Mutex-guarded queues (the baseline it is compared against).
    LockBased,
}

/// Configuration of the parallel profiler.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Number of partitions, i.e. consumer (worker) threads once spawned.
    pub workers: usize,
    /// Accesses per chunk (the ceiling of the adaptive ramp).
    pub chunk_size: usize,
    /// Signature slots **per worker** per signature (the paper uses
    /// 6.25e6 × 16 threads = 1e8 total). Only used when the footprint
    /// forces the signature backend (or `adaptive` is off).
    pub sig_slots: usize,
    /// Queue implementation.
    pub queue: QueueKind,
    /// SPSC / lock-based queue capacity in messages.
    pub queue_cap: usize,
    /// Enable variable-lifetime analysis.
    pub lifetime: bool,
    /// Chunks between load-rebalance checks (paper: 50 000).
    pub rebalance_interval: u64,
    /// Adaptive transport: start inline, spawn workers only past
    /// [`ParallelConfig::spawn_threshold`] accesses when spare cores
    /// exist, pick the shadow-map backend from the footprint, and ramp the
    /// chunk size. `false` reproduces the fixed pipeline: workers spawn at
    /// construction with signature maps and a fixed chunk size.
    pub adaptive: bool,
    /// Accesses before an adaptive profiler escalates from inline to
    /// spawned transport (given ≥ 2 available cores). `0` spawns
    /// immediately; `u64::MAX` never spawns.
    pub spawn_threshold: u64,
    /// Resource budget. When active, the producer and every spawned worker
    /// publish their tracked bytes to a shared [`MemGauge`] at chunk
    /// boundaries and degrade their shadow maps when the total crosses the
    /// ceiling; a deadline is checked at the same cadence.
    pub budget: Budget,
}

impl ParallelConfig {
    /// Default [`ParallelConfig::spawn_threshold`]: below ~1M accesses the
    /// pipeline's setup + per-chunk transport costs outweigh any consumer
    /// overlap (measured in `BENCH_profiler.json`: the MG/FT/matmul rows,
    /// 30–50k accesses, were 5–8× slower through the fixed pipeline than
    /// serially).
    pub const ADAPTIVE_SPAWN_THRESHOLD: u64 = 1 << 20;

    /// First rung of the adaptive chunk-size ramp.
    pub const MIN_CHUNK: usize = 64;
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            workers: 8,
            chunk_size: 256,
            sig_slots: 1 << 18,
            queue: QueueKind::LockFree,
            queue_cap: 512,
            lifetime: true,
            rebalance_interval: 50_000,
            adaptive: true,
            spawn_threshold: Self::ADAPTIVE_SPAWN_THRESHOLD,
            budget: Budget::unlimited(),
        }
    }
}

/// Grow-only instance table shared between the producer(s) and workers.
///
/// Writes (loop entries) are rare relative to reads (every dependence), and
/// entries are immutable once pushed, so workers keep a local cache and
/// refresh it only when they encounter an unknown instance id.
#[derive(Debug, Default)]
pub struct SharedTable {
    inner: RwLock<Vec<Instance>>,
}

impl SharedTable {
    /// An empty shared table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an instance (producer side).
    pub fn register(&self, loop_key: LoopKey, parent: u32, iter_in_parent: u32) -> u32 {
        let mut v = self.inner.write();
        let id = v.len() as u32;
        v.push(Instance {
            loop_key,
            parent,
            iter_in_parent,
        });
        id
    }

    /// Extend `cache` with entries it has not seen yet.
    pub fn refresh(&self, cache: &mut Vec<Instance>) {
        let v = self.inner.read();
        if cache.len() < v.len() {
            cache.extend_from_slice(&v[cache.len()..]);
        }
    }

    /// Number of instances registered.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// True if no instance is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl InstanceRegistry for &SharedTable {
    fn register(&mut self, loop_key: LoopKey, parent: u32, iter_in_parent: u32) -> u32 {
        SharedTable::register(self, loop_key, parent, iter_in_parent)
    }
}

/// Worker-local resolver over the shared table with a lazily refreshed
/// cache: reads are lock-free except when new instances appear.
struct WorkerResolver {
    shared: Arc<SharedTable>,
    cache: RefCell<Vec<Instance>>,
}

impl WorkerResolver {
    fn new(shared: Arc<SharedTable>) -> Self {
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

/// One partition's dependence builder, generic over the two shadow-map
/// backends the adaptive engine chooses between.
// The exact builder carries two inline page caches. A partition is moved
// only at tier transitions and hand-offs; boxing it would put a pointer
// chase on the per-access inline path instead.
#[allow(clippy::large_enum_variant)]
enum PartitionBuilder {
    /// Exact page-table shadow: collision-free and enumerable (mergeable).
    Perfect(DepBuilder<PerfectMap>),
    /// Bounded signature: fixed memory for huge footprints.
    Sig(DepBuilder<SignatureMap>),
}

impl PartitionBuilder {
    fn new(kind: MapKind, sig_slots: usize, meta: &Arc<[MemOpMeta]>) -> Self {
        match kind {
            MapKind::Perfect => PartitionBuilder::Perfect(DepBuilder::new(
                PerfectMap::new(),
                PerfectMap::new(),
                Arc::clone(meta),
                EngineConfig::default(),
            )),
            MapKind::Signature => PartitionBuilder::Sig(DepBuilder::new(
                SignatureMap::new(sig_slots),
                SignatureMap::new(sig_slots),
                Arc::clone(meta),
                EngineConfig::default(),
            )),
        }
    }

    fn process_chunk(&mut self, items: &[PackedAccess], resolver: &impl CarriedResolver) {
        match self {
            PartitionBuilder::Perfect(b) => b.process_packed_chunk(items, resolver),
            PartitionBuilder::Sig(b) => b.process_packed_chunk(items, resolver),
        }
    }

    #[inline]
    fn process_streamed(&mut self, it: &PackedAccess, resolver: &impl CarriedResolver) {
        match self {
            PartitionBuilder::Perfect(b) => b.process_streamed(it, resolver),
            PartitionBuilder::Sig(b) => b.process_streamed(it, resolver),
        }
    }

    fn flush_groups(&mut self) {
        match self {
            PartitionBuilder::Perfect(b) => b.flush_groups(),
            PartitionBuilder::Sig(b) => b.flush_groups(),
        }
    }

    fn clear_range(&mut self, addr: u64, words: u64) {
        match self {
            PartitionBuilder::Perfect(b) => b.clear_range(addr, words),
            PartitionBuilder::Sig(b) => b.clear_range(addr, words),
        }
    }

    fn bytes(&self) -> usize {
        match self {
            PartitionBuilder::Perfect(b) => b.bytes(),
            PartitionBuilder::Sig(b) => b.bytes(),
        }
    }

    /// See [`DepBuilder::finish`]: dependences, stats, final bytes.
    fn finish(self) -> (DepSet, SkipStats, usize) {
        match self {
            PartitionBuilder::Perfect(b) => b.finish(),
            PartitionBuilder::Sig(b) => b.finish(),
        }
    }

    fn extract_addr(&mut self, addr: u64) -> (Option<Cell>, Option<Cell>) {
        match self {
            PartitionBuilder::Perfect(b) => b.extract_addr(addr),
            PartitionBuilder::Sig(b) => b.extract_addr(addr),
        }
    }

    fn inject_addr(&mut self, addr: u64, read: Option<Cell>, write: Option<Cell>) {
        match self {
            PartitionBuilder::Perfect(b) => b.inject_addr(addr, read, write),
            PartitionBuilder::Sig(b) => b.inject_addr(addr, read, write),
        }
    }

    /// The donor side of a partition merge; `None` for signatures (they
    /// cannot enumerate their addresses).
    fn drain_shadow(&mut self) -> Option<DrainedShadow> {
        match self {
            PartitionBuilder::Perfect(b) => Some(b.drain_shadow()),
            PartitionBuilder::Sig(_) => None,
        }
    }

    /// Current shadow tier, for degradation-step records.
    fn tier(&self) -> ShadowTier {
        match self {
            PartitionBuilder::Perfect(_) => ShadowTier::Perfect,
            PartitionBuilder::Sig(b) => ShadowTier::Signature {
                slots: b.signature_slots(),
            },
        }
    }

    /// Take one rung down the degradation ladder: an exact partition
    /// re-keys into a signature of `sig_slots`, a signature halves its
    /// slots. Returns the step with `bytes_before`/`bytes_after` zeroed
    /// (only the caller knows the gauge totals), or `None` at the floor.
    fn degrade(&mut self, sig_slots: usize) -> Option<DegradationStep> {
        let from = self.tier();
        match self {
            PartitionBuilder::Perfect(_) => {
                let placeholder = PartitionBuilder::Sig(DepBuilder::new(
                    SignatureMap::new(1),
                    SignatureMap::new(1),
                    Vec::new(),
                    EngineConfig::default(),
                ));
                let PartitionBuilder::Perfect(b) = std::mem::replace(self, placeholder) else {
                    unreachable!("matched Perfect above");
                };
                let mut affected = None;
                let sig = b.map_shadow(|read, write| {
                    for (addr, _) in read.entries().into_iter().chain(write.entries()) {
                        affected = Some(match affected {
                            None => (addr, addr),
                            Some((lo, hi)) => (addr.min(lo), addr.max(hi)),
                        });
                    }
                    (
                        SignatureMap::from_perfect(&read, sig_slots),
                        SignatureMap::from_perfect(&write, sig_slots),
                    )
                });
                *self = PartitionBuilder::Sig(sig);
                Some(DegradationStep {
                    from,
                    to: self.tier(),
                    bytes_before: 0,
                    bytes_after: 0,
                    affected,
                    merged_slots: 0,
                })
            }
            PartitionBuilder::Sig(b) => {
                let slots = b.signature_slots();
                if slots <= LADDER_MIN_SLOTS || slots % 2 != 0 {
                    return None;
                }
                let merged = b.halve_signature();
                Some(DegradationStep {
                    from,
                    to: self.tier(),
                    bytes_before: 0,
                    bytes_after: 0,
                    affected: None,
                    merged_slots: merged,
                })
            }
        }
    }

    /// Signature fill `(occupied cells, total cells)` for the false-
    /// positive-rate estimate; `None` for exact partitions.
    fn sig_fill(&self) -> Option<(usize, usize)> {
        match self {
            PartitionBuilder::Perfect(_) => None,
            PartitionBuilder::Sig(b) => Some((b.signature_occupied(), 2 * b.signature_slots())),
        }
    }
}

/// Shadow-map backend of the partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MapKind {
    Perfect,
    Signature,
}

/// Message to a worker.
enum Msg {
    /// A chunk of packed accesses, all owned by this worker.
    Chunk(Vec<PackedAccess>),
    /// Evict a dead address range.
    Dealloc { addr: u64, words: u64 },
    /// Hot-address migration, donor side: remove `addr`'s status and send
    /// it back (§2.3.3 load balancing, made output-exact).
    Extract {
        addr: u64,
        reply: std::sync::mpsc::Sender<(Option<Cell>, Option<Cell>)>,
    },
    /// Hot-address migration, receiver side.
    Inject {
        addr: u64,
        read: Option<Cell>,
        write: Option<Cell>,
    },
    /// Finish and report.
    Stop,
}

/// Queue handle, unified over the three implementations.
#[derive(Clone)]
enum WorkerQueue {
    LockFree(Arc<SpscQueue<Msg>>),
    Locked(Arc<LockQueue<Msg>>),
    Mpsc(Arc<MpscQueue<Msg>>),
}

impl WorkerQueue {
    /// Push, spinning while a bounded queue is full. Returns the number of
    /// full-queue retries (the producer's stall measure).
    fn push(&self, mut msg: Msg) -> u64 {
        let mut stalls = 0u64;
        match self {
            WorkerQueue::LockFree(q) => loop {
                match q.try_push(msg) {
                    Ok(()) => return stalls,
                    Err(m) => {
                        msg = m;
                        stalls += 1;
                        std::thread::yield_now();
                    }
                }
            },
            WorkerQueue::Locked(q) => loop {
                match q.try_push(msg) {
                    Ok(()) => return stalls,
                    Err(m) => {
                        msg = m;
                        stalls += 1;
                        std::thread::yield_now();
                    }
                }
            },
            WorkerQueue::Mpsc(q) => {
                q.push(msg);
                0
            }
        }
    }

    /// Non-blocking push; bounded queues hand the message back when full.
    fn try_push(&self, msg: Msg) -> Result<(), Msg> {
        match self {
            WorkerQueue::LockFree(q) => q.try_push(msg),
            WorkerQueue::Locked(q) => q.try_push(msg),
            WorkerQueue::Mpsc(q) => {
                q.push(msg);
                Ok(())
            }
        }
    }

    fn try_pop(&self) -> Option<Msg> {
        match self {
            WorkerQueue::LockFree(q) => q.try_pop(),
            WorkerQueue::Locked(q) => q.try_pop(),
            WorkerQueue::Mpsc(q) => q.try_pop(),
        }
    }
}

/// Push to a live worker, spinning while its bounded queue is full — but
/// watch for the consumer dying: every 256 stalls the join handle is
/// checked, and a dead worker hands the message back so the supervisor can
/// recover the partition instead of spinning forever.
fn push_supervised(
    queue: &WorkerQueue,
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

/// Apply one transport message directly to a partition builder — the
/// producer-local delivery path used for recovered partitions and for
/// draining a dead worker's queue.
fn apply_msg(builder: &mut PartitionBuilder, msg: Msg, resolver: &WorkerResolver) {
    match msg {
        Msg::Chunk(ch) => builder.process_chunk(&ch, resolver),
        Msg::Dealloc { addr, words } => builder.clear_range(addr, words),
        Msg::Extract { addr, reply } => {
            let _ = reply.send(builder.extract_addr(addr));
        }
        Msg::Inject { addr, read, write } => builder.inject_addr(addr, read, write),
        Msg::Stop => {}
    }
}

/// Fold a dead worker's remaining input into its recovered builder: replay
/// the message it was processing when it panicked (faultpoints fire before
/// any builder mutation, so the replay is exact), then drain its queue in
/// FIFO order, answering extract handshakes from the recovered builder.
///
/// Safe to call only after the worker thread has been joined: the producer
/// is then the sole consumer of the queue.
fn drain_dead_worker(
    builder: &mut PartitionBuilder,
    failed: Option<Msg>,
    queue: &WorkerQueue,
    resolver: &WorkerResolver,
) {
    if let Some(m) = failed {
        apply_msg(builder, m, resolver);
    }
    while let Some(m) = queue.try_pop() {
        apply_msg(builder, m, resolver);
    }
}

struct WorkerResult {
    deps: DepSet,
    stats: SkipStats,
    bytes: usize,
    /// Accesses this worker processed (incl. combined repeats). The
    /// sequential path reports the producer's routing counts instead,
    /// which also cover the inline phase; the multi-producer path has no
    /// central counter and uses this.
    processed: u64,
    /// Signature fill `(occupied cells, total cells)` at finish, for the
    /// governed run's false-positive-rate estimate.
    fill: Option<(usize, usize)>,
}

/// What a worker thread reports when joined.
enum WorkerOutcome {
    /// Clean shutdown after a [`Msg::Stop`].
    Finished(WorkerResult),
    /// The worker panicked. Its builder and the message it was processing
    /// survive the unwind, so the supervisor can drain the partition back
    /// into inline processing and the run still completes.
    Panicked {
        /// Boxed: the builder dwarfs the `Finished` payload, and this
        /// variant is built once per dead worker, off the hot path.
        builder: Box<PartitionBuilder>,
        /// The message in flight when the panic fired, not yet applied.
        failed: Option<Msg>,
        /// Accesses processed before the panic.
        processed: u64,
    },
}

/// The ceiling spawned workers govern against: the budget minus a reserve
/// for the producer's non-degradable transport state (shared instance
/// table, in-flight chunk buffers, rebalance counters). In spawned mode
/// the producer owns no shadow maps to shed, so when its side tables are
/// denied admission it publishes anyway; keeping the workers below
/// `budget - reserve` makes that forced publication still land under the
/// budget.
fn producer_reserve_ceiling(max: usize) -> usize {
    max.saturating_sub((max / 8).clamp(16 << 10, 256 << 10))
}

/// A spawned worker's view of the shared memory budget: publish tracked
/// bytes at chunk boundaries, degrade the own partition first whenever the
/// projected total would cross the ceiling (so the recorded peak never
/// exceeds the budget at a checkpoint).
struct WorkerGov {
    gauge: Arc<MemGauge>,
    slot: GaugeSlot,
    max_bytes: usize,
    /// The full budget, used as a last-resort ceiling once the own ladder
    /// is at the floor (the reserve no longer buys anything there).
    hard_max: usize,
    /// Slot count a perfect partition re-keys to when it leaves the exact
    /// tier.
    sig_slots: usize,
    steps: Arc<Mutex<Vec<DegradationStep>>>,
}

impl WorkerGov {
    fn checkpoint(&mut self, builder: &mut PartitionBuilder) {
        let mut bytes = builder.bytes();
        loop {
            // Atomic admission: growth is published only if the total stays
            // under the ceiling, so concurrent worker checkpoints cannot
            // race the recorded peak past the budget.
            match self.slot.try_publish(&self.gauge, bytes, self.max_bytes) {
                Ok(_) => return,
                Err(projected) => {
                    let Some(mut step) = builder.degrade(self.sig_slots) else {
                        // Ladder floor: what remains is non-degradable
                        // (dependence stores, floor-size maps). Admit it
                        // against the *full* budget if it fits; otherwise
                        // leave it unpublished and pressure the producer —
                        // which may be holding most of the budget for a
                        // recovered partition — to shed. Force-publishing
                        // here would race the recorded peak past the
                        // budget; the retry happens at the next checkpoint.
                        if let Err(projected) =
                            self.slot.try_publish(&self.gauge, bytes, self.hard_max)
                        {
                            self.gauge.raise_pressure(projected - self.hard_max);
                        }
                        return;
                    };
                    step.bytes_before = projected as u64;
                    bytes = builder.bytes();
                    step.bytes_after = self.slot.preview(&self.gauge, bytes) as u64;
                    self.steps.lock().push(step);
                }
            }
        }
    }

    /// Withdraw this worker's entire published figure from the gauge
    /// (supervisor teardown after a panic, before the partition's state is
    /// handed back to the producer).
    fn retract(&mut self) {
        self.slot.publish(&self.gauge, 0);
    }
}

/// Chunk recycling pool (the paper: "empty chunks are recycled").
type ChunkPool = Arc<Mutex<Vec<Vec<PackedAccess>>>>;

/// Shadow state moved during a partition merge: `(address, read status,
/// write status)` per live address.
type DrainedShadow = Vec<(u64, Option<Cell>, Option<Cell>)>;

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
struct ChunkAlloc {
    pool: ChunkPool,
    local: Vec<Vec<PackedAccess>>,
    chunk_size: usize,
}

impl ChunkAlloc {
    fn new(pool: ChunkPool, chunk_size: usize) -> Self {
        ChunkAlloc {
            pool,
            local: Vec::with_capacity(POOL_BATCH),
            chunk_size,
        }
    }

    /// An empty chunk with `chunk_size` capacity: recycled if possible,
    /// freshly allocated otherwise.
    fn fresh(&mut self) -> Vec<PackedAccess> {
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

/// Ship every non-empty open chunk to its worker, replacing it with a
/// recycled buffer (the multi-producer replay path's flush).
fn flush_open(
    open: &mut [Vec<PackedAccess>],
    queues: &[WorkerQueue],
    alloc: &mut ChunkAlloc,
    chunks_total: &std::sync::atomic::AtomicU64,
) {
    for (w, ch) in open.iter_mut().enumerate() {
        if !ch.is_empty() {
            let fresh = alloc.fresh();
            let c = std::mem::replace(ch, fresh);
            queues[w].push(Msg::Chunk(c));
            chunks_total.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
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

fn spawn_worker(
    queue: WorkerQueue,
    builder: PartitionBuilder,
    shared: Arc<SharedTable>,
    pool: ChunkPool,
    gov: Option<WorkerGov>,
) -> JoinHandle<WorkerOutcome> {
    std::thread::spawn(move || {
        let resolver = WorkerResolver::new(shared);
        let mut returner = ChunkReturner::new(pool);
        let mut processed = 0u64;
        // Builder, in-flight message, and progress counter live outside
        // the unwind boundary: a panic must not take the partition's
        // shadow state down with the thread.
        let mut builder = builder;
        let mut current: Option<Msg> = None;
        let mut gov = gov;
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            worker_loop(
                &queue,
                &mut builder,
                &resolver,
                &mut returner,
                &mut processed,
                &mut current,
                &mut gov,
            )
        }))
        .is_err();
        if unwound {
            // Retract this worker's gauge contribution: the recovered
            // builder finishes under the producer, whose own checkpoints
            // re-count it — leaving the figure in place would double-count
            // the partition and inflate the recorded peak.
            if let Some(g) = gov.as_mut() {
                g.retract();
            }
            return WorkerOutcome::Panicked {
                builder: Box::new(builder),
                failed: current,
                processed,
            };
        }
        let fill = builder.sig_fill();
        let (deps, stats, bytes) = builder.finish();
        WorkerOutcome::Finished(WorkerResult {
            deps,
            stats,
            bytes,
            processed,
            fill,
        })
    })
}

/// The consumer loop of §2.3.3, factored out so the supervisor in
/// [`spawn_worker`] can wrap it in a single unwind boundary.
fn worker_loop(
    queue: &WorkerQueue,
    builder: &mut PartitionBuilder,
    resolver: &WorkerResolver,
    returner: &mut ChunkReturner,
    processed: &mut u64,
    current: &mut Option<Msg>,
    gov: &mut Option<WorkerGov>,
) {
    let mut idle = 0u32;
    loop {
        match queue.try_pop() {
            Some(Msg::Stop) => break,
            Some(msg) => {
                idle = 0;
                // Stash before touching the builder; the faultpoints fire
                // before any mutation, so a panicked message replays
                // exactly once on the recovered builder.
                *current = Some(msg);
                let extracted = match current.as_ref() {
                    Some(Msg::Chunk(ch)) => {
                        crate::faultpoint!("worker:chunk");
                        builder.process_chunk(ch, resolver);
                        *processed += ch.iter().map(|p| p.rep as u64 + 1).sum::<u64>();
                        None
                    }
                    Some(Msg::Dealloc { addr, words }) => {
                        crate::faultpoint!("worker:dealloc");
                        builder.clear_range(*addr, *words);
                        None
                    }
                    Some(Msg::Extract { addr, .. }) => {
                        crate::faultpoint!("worker:extract");
                        Some(builder.extract_addr(*addr))
                    }
                    Some(Msg::Inject { addr, read, write }) => {
                        crate::faultpoint!("worker:inject");
                        builder.inject_addr(*addr, *read, *write);
                        None
                    }
                    Some(Msg::Stop) | None => None,
                };
                match (current.take(), extracted) {
                    (Some(Msg::Chunk(ch)), _) => {
                        returner.put(ch);
                        if let Some(g) = gov.as_mut() {
                            g.checkpoint(builder);
                        }
                    }
                    (Some(Msg::Extract { reply, .. }), Some(status)) => {
                        let _ = reply.send(status);
                    }
                    _ => {}
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

/// Result of a parallel profiling run.
#[derive(Debug, Serialize)]
pub struct ParallelOutput {
    /// Merged dependences from all workers.
    pub deps: DepSet,
    /// Program execution tree (built on the producer).
    pub pet: Pet,
    /// Aggregated skip statistics (all zero: skipping is a serial-engine
    /// feature, kept for interface symmetry).
    pub skip_stats: SkipStats,
    /// Affine skip tier activity of the producer's interpreter run.
    pub synth: crate::run::SynthSummary,
    /// Estimated profiler memory footprint in bytes.
    pub profiler_bytes: usize,
    /// Executed target instructions.
    pub steps: u64,
    /// Target program output.
    pub printed: Vec<String>,
    /// Chunks delivered (inline-processed or shipped to workers).
    pub chunks: u64,
    /// Accesses absorbed by producer-side repeat combining.
    pub combined: u64,
    /// Hot-address rebalance operations performed.
    pub rebalances: u64,
    /// Underloaded-partition merges performed.
    pub merges: u64,
    /// Full-queue retries the producer suffered while pushing.
    pub queue_stalls: u64,
    /// Worker threads actually spawned (`0` = the whole run stayed inline).
    /// A worker recovered after a panic no longer counts: its partition
    /// finished under the producer.
    pub spawned_workers: usize,
    /// Worker panics recovered by the supervision layer.
    pub worker_recoveries: u64,
    /// Accesses processed per partition (load distribution).
    pub worker_processed: Vec<u64>,
    /// Resource accounting; `None` when no budget was set.
    pub resource: Option<ResourceStats>,
    /// Actor-tier activity of the producer's interpreter run; `None`
    /// for single-actor, message-free targets.
    pub actors: Option<crate::run::ActorSummary>,
}

impl ParallelOutput {
    /// View this run as the engine-independent [`crate::ProfileOutput`],
    /// with the transport statistics under
    /// [`crate::ProfileOutput::parallel`]. This is how the parallel engine
    /// plugs into [`crate::profile_program_with`].
    pub fn into_profile_output(self) -> crate::run::ProfileOutput {
        crate::run::ProfileOutput {
            deps: self.deps,
            pet: self.pet,
            skip_stats: self.skip_stats,
            synth: self.synth,
            plan_runs: Default::default(),
            profiler_bytes: self.profiler_bytes,
            steps: self.steps,
            printed: self.printed,
            parallel: Some(crate::run::ParallelStats {
                chunks: self.chunks,
                combined: self.combined,
                rebalances: self.rebalances,
                merges: self.merges,
                queue_stalls: self.queue_stalls,
                spawned_workers: self.spawned_workers,
                worker_recoveries: self.worker_recoveries,
                worker_processed: self.worker_processed,
            }),
            resource: self.resource,
            actors: self.actors,
        }
    }
}

/// Transport backend of the producer: inline until escalation, spawned
/// after.
enum Backend {
    /// The producer processes chunks itself; one builder per partition.
    Inline {
        builders: Vec<PartitionBuilder>,
        resolver: WorkerResolver,
    },
    /// Chunks ship over queues to one worker thread per partition.
    Spawned {
        queues: Vec<WorkerQueue>,
        /// `None` once a worker has been joined (panic recovery).
        handles: Vec<Option<JoinHandle<WorkerOutcome>>>,
        /// Partitions folded back under the producer after a worker panic;
        /// messages for them are applied inline from then on.
        local: Vec<Option<PartitionBuilder>>,
        /// Producer-side resolver for recovered-partition processing.
        resolver: WorkerResolver,
        alloc: ChunkAlloc,
    },
}

/// The parallel profiler for sequential targets. Implements [`Sink`].
pub struct ParallelProfiler {
    cfg: ParallelConfig,
    ctx: LoopContext,
    shared: Arc<SharedTable>,
    pet: PetBuilder,
    /// The target's static op table, for (re)building partitions.
    op_meta: Arc<[MemOpMeta]>,
    backend: Backend,
    open: Vec<Vec<PackedAccess>>,
    /// Modulo class → partition; identity until merges reroute classes.
    class_route: Vec<u32>,
    /// `nparts - 1` when the partition count is a power of two (the
    /// modulo in `route` becomes a mask).
    class_mask: Option<u64>,
    /// Per-address overrides from hot-address rebalancing (spawned mode).
    redistribution: FxHashMap<u64, u32>,
    /// Per-address access counts, maintained only in spawned mode (the
    /// inline path must not pay a hash update per access).
    counts: FxHashMap<u64, u64>,
    /// Cached `spawned && rebalance_interval > 0`: whether `counts` is
    /// maintained — checked per access, so it must be a plain bool.
    count_addrs: bool,
    /// Producer-side repeat combining is enabled. Only sound for
    /// monotone-timestamp event streams (deterministic delivery):
    /// [`profile_parallel`] turns it on for those, and manual drivers that
    /// construct the profiler directly get the conservative (off)
    /// default, so a racy `run_with_config` can never observe dropped
    /// interior timestamps through race hints.
    combine: bool,
    /// Accesses routed per partition.
    delivered: Vec<u64>,
    /// Inline cadence countdowns: accesses until partition `w`'s next
    /// virtual chunk boundary (adaptation tick).
    pending: Vec<u32>,
    /// Builders of partitions compacted away at escalation (their merged
    /// dependence stores join the others at finalize).
    retired: Vec<PartitionBuilder>,
    accesses: u64,
    /// Current chunk capacity (ramps up to `cfg.chunk_size`).
    chunk_cap: usize,
    /// Hardware threads available at construction.
    avail: usize,
    chunks_pushed: u64,
    /// Chunk count at which the next rebalance check fires.
    next_rebalance_at: u64,
    combined: u64,
    rebalances: u64,
    merges: u64,
    queue_stalls: u64,
    /// Worker panics recovered mid-run or at finalize.
    worker_recoveries: u64,
    /// Shared tracked-bytes gauge (producer + spawned workers publish).
    gauge: Arc<MemGauge>,
    /// The producer's own publisher slot on the gauge.
    gov_slot: GaugeSlot,
    /// Degradation steps taken anywhere in the pipeline, in rough order.
    gov_steps: Arc<Mutex<Vec<DegradationStep>>>,
    started: Instant,
    /// Set once the wall-clock deadline has passed; the stop flag is
    /// raised at the same moment.
    deadline_hit: bool,
    /// Interpreter stop flag, installed by [`profile_parallel`] when the
    /// budget carries a deadline.
    stop: Option<Arc<AtomicBool>>,
}

impl ParallelProfiler {
    /// Set up the producer side. With `cfg.adaptive` the profiler starts
    /// inline (no threads) on the footprint-selected map backend; otherwise
    /// it spawns `cfg.workers` signature workers immediately (the fixed
    /// pipeline).
    pub fn new(cfg: ParallelConfig, prog: &Program) -> Self {
        let nparts = cfg.workers.max(1);
        let shared = Arc::new(SharedTable::new());
        let op_meta: Arc<[MemOpMeta]> = prog.mem_op_meta().into();
        let map_kind = if cfg.adaptive
            && prog.footprint_words() <= crate::run::EngineKind::AUTO_PERFECT_MAX_WORDS
        {
            MapKind::Perfect
        } else {
            MapKind::Signature
        };
        let chunk_cap = if cfg.adaptive {
            cfg.chunk_size.clamp(1, ParallelConfig::MIN_CHUNK)
        } else {
            cfg.chunk_size.max(1)
        };
        let mut p = ParallelProfiler {
            ctx: LoopContext::new(),
            shared: Arc::clone(&shared),
            pet: PetBuilder::new(),
            backend: Backend::Inline {
                builders: (0..nparts)
                    .map(|_| PartitionBuilder::new(map_kind, cfg.sig_slots, &op_meta))
                    .collect(),
                resolver: WorkerResolver::new(shared),
            },
            op_meta,
            open: (0..nparts).map(|_| Vec::with_capacity(chunk_cap)).collect(),
            class_route: (0..nparts as u32).collect(),
            class_mask: nparts.is_power_of_two().then(|| nparts as u64 - 1),
            redistribution: FxHashMap::default(),
            counts: FxHashMap::default(),
            count_addrs: false,
            combine: false,
            delivered: vec![0; nparts],
            pending: vec![chunk_cap as u32; nparts],
            retired: Vec::new(),
            accesses: 0,
            chunk_cap,
            avail: std::thread::available_parallelism().map_or(1, |n| n.get()),
            chunks_pushed: 0,
            next_rebalance_at: cfg.rebalance_interval.max(1),
            combined: 0,
            rebalances: 0,
            merges: 0,
            queue_stalls: 0,
            worker_recoveries: 0,
            gauge: Arc::new(MemGauge::new()),
            gov_slot: GaugeSlot::new(),
            gov_steps: Arc::new(Mutex::new(Vec::new())),
            started: Instant::now(),
            deadline_hit: false,
            stop: None,
            cfg,
        };
        if !p.cfg.adaptive {
            p.escalate();
        }
        p
    }

    fn nparts(&self) -> usize {
        self.delivered.len()
    }

    #[inline]
    fn route(&self, addr: u64) -> usize {
        // The paper's modulo distribution (Eq. 2.1) on the word address,
        // composed with the merge reroutes and per-address redistribution.
        // The default partition counts are powers of two, and a hardware
        // DIV per routed access is the kind of cost this transport exists
        // to avoid — so the modulo is a mask whenever it can be.
        let word = addr >> 3;
        let class = match self.class_mask {
            Some(m) => (word & m) as usize,
            None => (word % self.class_route.len() as u64) as usize,
        };
        let mut w = self.class_route[class] as usize;
        if !self.redistribution.is_empty() {
            if let Some(&r) = self.redistribution.get(&addr) {
                w = r as usize;
            }
        }
        w
    }

    #[inline]
    fn push_access(&mut self, pa: PackedAccess) {
        self.accesses += 1;
        let w = self.route(pa.addr);
        self.delivered[w] += 1;
        if let Backend::Inline {
            builders, resolver, ..
        } = &mut self.backend
        {
            // Inline transport: no intermediate buffer at all — the access
            // goes straight into the partition's persistent group cache
            // (producer and consumer are the same thread, so buffering
            // would only add a copy-out/copy-in round trip). A virtual
            // chunk cadence keeps the adaptation rhythm of the spawned
            // transport.
            builders[w].process_streamed(&pa, resolver);
            self.pending[w] -= 1;
            if self.pending[w] != 0 {
                return;
            }
            self.pending[w] = self.chunk_cap as u32;
            self.chunks_pushed += 1;
        } else {
            if self.count_addrs {
                *self.counts.entry(pa.addr).or_insert(0) += 1;
            }
            if self.combine {
                if push_combining(&mut self.open[w], pa) {
                    self.combined += 1;
                    return;
                }
            } else {
                // Racy delivery can interleave threads' accesses out of
                // timestamp order; dropping interior timestamps would then
                // be observable through race hints, so repeats ship
                // uncombined (same rule as the multi-producer replay).
                self.open[w].push(pa);
            }
            if self.open[w].len() < self.chunk_cap {
                return;
            }
            self.flush_partition(w);
        }
        // The adaptation cadence runs ONLY on the access path. Flushes
        // issued while delivering a dealloc or while rebalancing must not
        // re-enter the rebalancer: a migration there would invalidate
        // routing decisions its caller already made (e.g. a Dealloc would
        // be shipped to the address's pre-migration owner, stranding stale
        // state on the new one).
        self.adapt();
    }

    /// Make partition `w`'s pending work visible to its builder: close
    /// the inline group epoch, or ship the open chunk to the worker. Never
    /// adapts — see `push_access`.
    fn flush_partition(&mut self, w: usize) {
        let c = match &mut self.backend {
            Backend::Inline { builders, .. } => return builders[w].flush_groups(),
            Backend::Spawned { alloc, .. } => {
                if self.open[w].is_empty() {
                    return;
                }
                let fresh = alloc.fresh();
                std::mem::replace(&mut self.open[w], fresh)
            }
        };
        self.deliver(w, Msg::Chunk(c));
    }

    /// Deliver a message to partition `w` in spawned mode: apply it inline
    /// for recovered partitions, push it to the worker otherwise — and if
    /// the worker turns out to be dead behind a full queue, recover the
    /// partition and retry locally.
    fn deliver(&mut self, w: usize, msg: Msg) {
        if matches!(msg, Msg::Chunk(_)) {
            self.chunks_pushed += 1;
        }
        let mut msg = msg;
        loop {
            let returned = {
                let Backend::Spawned {
                    queues,
                    handles,
                    local,
                    resolver,
                    ..
                } = &mut self.backend
                else {
                    return; // inline mode has no message transport
                };
                if let Some(b) = local[w].as_mut() {
                    apply_msg(b, msg, resolver);
                    return;
                }
                let Some(h) = handles[w].as_ref() else {
                    return; // no worker and no builder: partition retired
                };
                match push_supervised(&queues[w], h, msg, &mut self.queue_stalls) {
                    Ok(()) => return,
                    Err(m) => m,
                }
            };
            self.recover_worker(w);
            msg = returned; // now applies to the recovered local builder
        }
    }

    /// Supervisor: worker `w` died. Join it, replay its in-flight message,
    /// drain its queue, and mark the partition producer-local from here on.
    fn recover_worker(&mut self, w: usize) {
        let Backend::Spawned {
            queues,
            handles,
            local,
            resolver,
            ..
        } = &mut self.backend
        else {
            return;
        };
        let Some(h) = handles[w].take() else { return };
        match h.join() {
            Ok(WorkerOutcome::Panicked {
                mut builder,
                failed,
                processed: _,
            }) => {
                drain_dead_worker(&mut builder, failed, &queues[w], resolver);
                local[w] = Some(*builder);
                self.worker_recoveries += 1;
            }
            Ok(WorkerOutcome::Finished(_)) => {
                // Only a Stop produces a clean finish, and none was sent
                // mid-run; keep routing alive with a fresh builder so a
                // (theoretical) stray finish cannot wedge delivery.
                local[w] = Some(PartitionBuilder::new(
                    MapKind::Signature,
                    self.cfg.sig_slots,
                    &self.op_meta,
                ));
                self.worker_recoveries += 1;
            }
            // A panic that escaped the worker's own catch_unwind: nothing
            // left to recover, surface it.
            Err(e) => std::panic::resume_unwind(e),
        }
    }

    /// The per-chunk adaptation cadence: ramp the chunk size, escalate to
    /// spawned transport, and run the rebalance/merge check.
    fn adapt(&mut self) {
        if self.cfg.adaptive {
            // Chunk ramp: double once the run has pushed ~8 chunks per
            // partition at the current size, up to the configured ceiling.
            if self.chunk_cap < self.cfg.chunk_size
                && self.accesses > (self.chunk_cap * self.nparts() * 8) as u64
            {
                self.chunk_cap = (self.chunk_cap * 2).min(self.cfg.chunk_size);
            }
            // Escalate when the volume shows the run is big AND there is
            // hardware to overlap with. On a single-core host the engine
            // stays inline for the whole run — that *is* the adaptive
            // fallback to serial transport. A zero threshold is an
            // explicit "always spawn" request and skips the core check.
            if matches!(self.backend, Backend::Inline { .. })
                && self.accesses >= self.cfg.spawn_threshold
                && (self.avail >= 2 || self.cfg.spawn_threshold == 0)
            {
                self.escalate();
            }
        }
        // Monotonic trigger rather than a multiple-of check: flushes
        // outside the access path (deallocs, the rebalancer's own) also
        // advance `chunks_pushed`, so exact multiples can be skipped over.
        if self.cfg.rebalance_interval > 0 && self.chunks_pushed >= self.next_rebalance_at {
            self.next_rebalance_at = self.chunks_pushed + self.cfg.rebalance_interval;
            self.rebalance();
        }
        if self.cfg.budget.is_active() {
            self.govern();
        }
    }

    /// Budget checkpoint, at the same per-chunk cadence as adaptation:
    /// check the deadline, then enforce the memory ceiling on the
    /// producer's own state (inline partition builders and the transport
    /// side tables — spawned workers run their own checkpoints).
    #[cold]
    fn govern(&mut self) {
        if let Some(deadline) = self.cfg.budget.deadline {
            if !self.deadline_hit && self.started.elapsed() >= deadline {
                self.deadline_hit = true;
                if let Some(stop) = &self.stop {
                    stop.store(true, Ordering::Relaxed);
                }
            }
        }
        match self.cfg.budget.max_memory_bytes {
            Some(max) => {
                let pressure = self.gauge.take_pressure();
                self.enforce_memory(max, pressure);
            }
            None => {
                let b = self.producer_bytes();
                self.gov_slot.publish(&self.gauge, b);
            }
        }
    }

    /// Bytes the producer itself holds: inline partition builders (in
    /// spawned mode the workers publish their own), retired builders, and
    /// the transport side tables.
    fn producer_bytes(&self) -> usize {
        let mut b = self.counts.capacity() * 24
            + self.redistribution.capacity() * 12
            + self.shared.len() * std::mem::size_of::<Instance>()
            + self
                .open
                .iter()
                .map(|c| c.capacity() * std::mem::size_of::<PackedAccess>())
                .sum::<usize>();
        if let Backend::Inline { builders, .. } = &self.backend {
            b += builders.iter().map(|x| x.bytes()).sum::<usize>();
        }
        if let Backend::Spawned { local, .. } = &self.backend {
            b += local.iter().flatten().map(|x| x.bytes()).sum::<usize>();
        }
        b += self.retired.iter().map(|x| x.bytes()).sum::<usize>();
        b
    }

    /// Degrade-then-publish: walk the producer-owned builders down the
    /// ladder (fattest first) until the gauge total fits the ceiling, then
    /// publish. The peak the gauge records at a checkpoint therefore never
    /// exceeds the budget unless the ladder bottomed out.
    ///
    /// `pressure` is the admission shortfall reported by workers stuck at
    /// their own ladder floor (their remaining bytes are non-degradable):
    /// the producer sheds below `max - pressure` so the starved worker's
    /// retry fits under the budget. Shedding is also triggered when the
    /// gauge *total* is over the ceiling even though the producer's own
    /// figure shrank — a shrinking publication is always admitted, so
    /// without the explicit total check the producer would never make room
    /// once its delta went non-positive.
    fn enforce_memory(&mut self, max: usize, pressure: usize) {
        let ceiling = max.saturating_sub(pressure);
        loop {
            let bytes = self.producer_bytes();
            let projected = match self.gov_slot.try_publish(&self.gauge, bytes, ceiling) {
                Ok(total) if total <= ceiling => return,
                Ok(total) => total,
                Err(projected) => projected,
            };
            let sig_slots = signature_slots_for_budget(max / self.nparts().max(1));
            let stepped = {
                let mut owned: Vec<&mut PartitionBuilder> = match &mut self.backend {
                    Backend::Inline { builders, .. } => builders.iter_mut().collect(),
                    Backend::Spawned { local, .. } => local.iter_mut().flatten().collect(),
                };
                owned.extend(self.retired.iter_mut());
                owned.sort_by_key(|b| std::cmp::Reverse(b.bytes()));
                owned.into_iter().find_map(|b| b.degrade(sig_slots))
            };
            match stepped {
                Some(mut step) => {
                    step.bytes_before = projected as u64;
                    let after = self.producer_bytes();
                    step.bytes_after = self.gov_slot.preview(&self.gauge, after) as u64;
                    self.gov_steps.lock().push(step);
                }
                None => {
                    // Every producer-owned builder is at the floor: the
                    // ladder bottomed out, the footprint is accepted (the
                    // one documented case where the peak may exceed the
                    // budget).
                    self.gov_slot.publish(&self.gauge, bytes);
                    return;
                }
            }
        }
    }

    /// Move every *live* partition builder into its own worker thread and
    /// switch the transport to queues. The shadow state travels with the
    /// builder, so escalation is invisible in the output.
    ///
    /// Partitions that inline merges already drained are compacted away
    /// first — spawning a worker for a partition no class routes to would
    /// leave a thread busy-spinning on an always-empty queue. Their
    /// builders (whose dependence stores are still live) retire to the
    /// producer and merge at finalize.
    fn escalate(&mut self) {
        let builders = match &mut self.backend {
            Backend::Inline { builders, .. } => std::mem::take(builders),
            Backend::Spawned { .. } => return,
        };
        // Compact: renumber live partitions 0..k, rewriting the class
        // routes and the per-partition producer state to match. The class
        // *space* (the modulo) keeps its original size.
        let nold = builders.len();
        let mut new_id = vec![u32::MAX; nold];
        let mut live = Vec::with_capacity(nold);
        for (i, b) in builders.into_iter().enumerate() {
            if self.class_route.contains(&(i as u32)) {
                new_id[i] = live.len() as u32;
                live.push(b);
            } else {
                self.retired.push(b);
            }
        }
        for c in self.class_route.iter_mut() {
            *c = new_id[*c as usize];
        }
        let remap = |v: &mut Vec<u64>| {
            let old = std::mem::take(v);
            *v = (0..nold)
                .filter(|&i| new_id[i] != u32::MAX)
                .map(|i| old[i])
                .collect();
        };
        remap(&mut self.delivered);
        let old_open = std::mem::take(&mut self.open);
        let mut old_pending = std::mem::take(&mut self.pending);
        for (i, o) in old_open.into_iter().enumerate() {
            if new_id[i] != u32::MAX {
                debug_assert!(o.is_empty(), "inline mode keeps no open chunks");
                self.open.push(o);
                self.pending.push(old_pending[i]);
            }
        }
        old_pending.clear();

        let pool: ChunkPool = Arc::new(Mutex::new(Vec::new()));
        // Deep pipelines stall less; keep at least a few chunks in flight
        // per worker even when the configured cap is tiny.
        let queue_cap = self.cfg.queue_cap.max(4);
        // Each worker degrades toward its share of the ceiling.
        let worker_sig = self
            .cfg
            .budget
            .max_memory_bytes
            .map_or(self.cfg.sig_slots, |m| {
                signature_slots_for_budget(m / live.len().max(1))
            });
        let nlive = live.len();
        let mut queues = Vec::with_capacity(nlive);
        let mut handles = Vec::with_capacity(nlive);
        for b in live {
            let q = match self.cfg.queue {
                QueueKind::LockFree => WorkerQueue::LockFree(Arc::new(SpscQueue::new(queue_cap))),
                QueueKind::LockBased => WorkerQueue::Locked(Arc::new(LockQueue::new(queue_cap))),
            };
            queues.push(q.clone());
            let gov = self.cfg.budget.is_active().then(|| {
                let hard_max = self.cfg.budget.max_memory_bytes.unwrap_or(usize::MAX);
                WorkerGov {
                    gauge: Arc::clone(&self.gauge),
                    slot: GaugeSlot::new(),
                    max_bytes: if hard_max == usize::MAX {
                        usize::MAX
                    } else {
                        producer_reserve_ceiling(hard_max)
                    },
                    hard_max,
                    sig_slots: worker_sig,
                    steps: Arc::clone(&self.gov_steps),
                }
            });
            handles.push(Some(spawn_worker(
                q,
                b,
                Arc::clone(&self.shared),
                Arc::clone(&pool),
                gov,
            )));
        }
        self.backend = Backend::Spawned {
            queues,
            handles,
            local: (0..nlive).map(|_| None).collect(),
            resolver: WorkerResolver::new(Arc::clone(&self.shared)),
            alloc: ChunkAlloc::new(pool, self.cfg.chunk_size),
        };
        self.count_addrs = self.cfg.rebalance_interval > 0;
    }

    /// Load balancing (§2.3.3), two-sided:
    ///
    /// - spawned: migrate the hottest addresses toward the least-loaded
    ///   workers. The address's shadow status moves with it (extract on the
    ///   donor, inject on the receiver, both ordered through the queues),
    ///   so the migration is exact — no re-INIT on the new worker.
    /// - inline: merge the two least-loaded partitions when one of them is
    ///   starving (exact-map backend only: signatures cannot enumerate
    ///   their state). Fewer live partitions concentrate the open chunks,
    ///   which raises combining density.
    fn rebalance(&mut self) {
        if matches!(self.backend, Backend::Inline { .. }) {
            return self.merge_underloaded();
        }
        let mut top: Vec<(u64, u64)> = self.counts.iter().map(|(&a, &c)| (a, c)).collect();
        top.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        top.truncate(10);
        // Least-loaded partitions first.
        let mut by_load: Vec<usize> = (0..self.delivered.len()).collect();
        by_load.sort_by_key(|&w| self.delivered[w]);
        let mut changed = false;
        for (i, &(addr, _)) in top.iter().enumerate() {
            let target = by_load[i % by_load.len()];
            let class = ((addr >> 3) % self.class_route.len() as u64) as usize;
            let mut cur = self.class_route[class] as usize;
            if let Some(&r) = self.redistribution.get(&addr) {
                cur = r as usize;
            }
            if cur == target {
                continue;
            }
            // All accesses already routed to `cur` must be consumed
            // before the extract; its open chunk flushes first.
            self.flush_partition(cur);
            let (read, write) = self.extract_from(cur, addr);
            self.deliver(target, Msg::Inject { addr, read, write });
            self.redistribution.insert(addr, target as u32);
            changed = true;
        }
        if changed {
            self.rebalances += 1;
        }
    }

    /// The donor half of a hot-address migration, supervised: if the donor
    /// worker dies while the handshake is pending, the partition is
    /// recovered (the drain answers the queued extract from the recovered
    /// builder) instead of the reply wait deadlocking.
    fn extract_from(&mut self, w: usize, addr: u64) -> (Option<Cell>, Option<Cell>) {
        let (tx, rx) = std::sync::mpsc::channel();
        self.deliver(w, Msg::Extract { addr, reply: tx });
        loop {
            match rx.recv_timeout(std::time::Duration::from_millis(10)) {
                Ok(v) => return v,
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return (None, None),
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    let dead = match &self.backend {
                        Backend::Spawned { handles, .. } => {
                            handles[w].as_ref().is_some_and(|h| h.is_finished())
                        }
                        Backend::Inline { .. } => return (None, None),
                    };
                    if dead {
                        self.recover_worker(w);
                    }
                }
            }
        }
    }

    /// Inline-mode merge: fold the least-loaded live partition into the
    /// next one up when it is starving (< 1/(4·partitions) of the traffic).
    fn merge_underloaded(&mut self) {
        let live: Vec<u32> = {
            let mut v = self.class_route.clone();
            v.sort_unstable();
            v.dedup();
            v
        };
        if live.len() < 2 {
            return;
        }
        let total: u64 = self.delivered.iter().sum();
        if total == 0 {
            return;
        }
        let mut by_load = live.clone();
        by_load.sort_by_key(|&w| self.delivered[w as usize]);
        let (src, dst) = (by_load[0], by_load[1]);
        if self.delivered[src as usize] * (4 * self.nparts() as u64) >= total {
            return; // not starving
        }
        // Drain src's pending work into its own builder first, then move
        // its whole shadow state across.
        self.flush_partition(src as usize);
        let Backend::Inline { builders, .. } = &mut self.backend else {
            return;
        };
        let Some(moved) = builders[src as usize].drain_shadow() else {
            return; // signature backend: not mergeable
        };
        for (addr, read, write) in moved {
            builders[dst as usize].inject_addr(addr, read, write);
        }
        for c in self.class_route.iter_mut() {
            if *c == src {
                *c = dst;
            }
        }
        // The receiver carries the merged load from here on — keeps the
        // per-partition totals coherent when escalation later compacts the
        // drained partition away.
        self.delivered[dst as usize] += std::mem::take(&mut self.delivered[src as usize]);
        self.merges += 1;
    }

    fn dealloc(&mut self, addr: u64, words: u64) {
        // Determine which partitions own part of the range; consecutive
        // word addresses stripe across partitions, so ranges wider than the
        // partition count touch everyone.
        let n = self.nparts();
        let affected: Vec<usize> = if words as usize >= n {
            (0..n).collect()
        } else {
            let mut v: Vec<usize> = (0..words).map(|i| self.route(addr + i * 8)).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        for wk in affected {
            // Order matters: accesses already routed must be consumed
            // before the eviction.
            self.flush_partition(wk);
            let inline = matches!(self.backend, Backend::Inline { .. });
            if inline {
                if let Backend::Inline { builders, .. } = &mut self.backend {
                    builders[wk].clear_range(addr, words);
                }
            } else {
                self.deliver(wk, Msg::Dealloc { addr, words });
            }
        }
    }

    /// Flush everything, stop any workers, and merge the results. Workers
    /// that died mid-run are recovered here (their partition drains back
    /// inline), so a supervised run always completes with a full output.
    pub fn finalize(mut self, steps: u64, printed: Vec<String>) -> ParallelOutput {
        for w in 0..self.nparts() {
            self.flush_partition(w);
        }
        let mut deps = DepSet::new();
        let mut stats = SkipStats::default();
        let mut bytes = 0usize;
        // Signature fill accumulators for the FP-rate estimate.
        let (mut occupied, mut cells) = (0usize, 0usize);
        let mut tally_fill = |fill: Option<(usize, usize)>| {
            if let Some((o, c)) = fill {
                occupied += o;
                cells += c;
            }
        };
        // Per-partition load is the producer's routing count: it covers
        // the inline phase and the spawned phase uniformly (a worker's own
        // processed count would miss accesses processed before escalation).
        let worker_processed = self.delivered.clone();
        let mut spawned_workers = 0;
        let placeholder = Backend::Inline {
            builders: Vec::new(),
            resolver: WorkerResolver::new(Arc::clone(&self.shared)),
        };
        match std::mem::replace(&mut self.backend, placeholder) {
            Backend::Inline { builders, .. } => {
                for b in builders {
                    tally_fill(b.sig_fill());
                    let (d, s, by) = b.finish();
                    deps.merge(d);
                    stats.total_accesses += s.total_accesses;
                    bytes += by;
                }
            }
            Backend::Spawned {
                queues,
                mut handles,
                mut local,
                resolver,
                ..
            } => {
                for (w, q) in queues.iter().enumerate() {
                    if let Some(h) = handles[w].as_ref() {
                        // A dead worker behind a full queue hands the Stop
                        // back; dropping it is fine — the join below
                        // recovers everything the queue still holds.
                        let _ = push_supervised(q, h, Msg::Stop, &mut self.queue_stalls);
                    }
                }
                for (w, h) in handles.iter_mut().enumerate() {
                    let Some(h) = h.take() else { continue };
                    match h.join() {
                        Ok(WorkerOutcome::Finished(r)) => {
                            spawned_workers += 1;
                            deps.merge(r.deps);
                            stats.total_accesses += r.stats.total_accesses;
                            bytes += r.bytes;
                            tally_fill(r.fill);
                            let _ = r.processed; // sequential path reports `delivered`
                        }
                        Ok(WorkerOutcome::Panicked {
                            mut builder,
                            failed,
                            processed: _,
                        }) => {
                            drain_dead_worker(&mut builder, failed, &queues[w], &resolver);
                            self.worker_recoveries += 1;
                            local[w] = Some(*builder);
                        }
                        Err(e) => std::panic::resume_unwind(e),
                    }
                }
                for b in local.into_iter().flatten() {
                    tally_fill(b.sig_fill());
                    let (d, s, by) = b.finish();
                    deps.merge(d);
                    stats.total_accesses += s.total_accesses;
                    bytes += by;
                }
            }
        }
        for b in std::mem::take(&mut self.retired) {
            tally_fill(b.sig_fill());
            let (d, st, by) = b.finish();
            deps.merge(d);
            stats.total_accesses += st.total_accesses;
            bytes += by;
        }
        bytes += self.counts.capacity() * 24 + self.shared.len() * std::mem::size_of::<Instance>();
        let resource = self.cfg.budget.is_active().then(|| {
            let mut res = ResourceStats::for_budget(&self.cfg.budget);
            res.peak_tracked_bytes = self.gauge.peak() as u64;
            res.degradation_steps = std::mem::take(&mut *self.gov_steps.lock());
            res.fp_rate_estimate = if cells > 0 {
                occupied as f64 / cells as f64
            } else {
                0.0
            };
            res.deadline_hit = self.deadline_hit;
            res
        });
        let pet = std::mem::take(&mut self.pet);
        ParallelOutput {
            deps,
            pet: pet.finish(steps),
            skip_stats: stats,
            // The caller holds the RunResult; `profile_parallel` patches
            // the real counters in after finalize.
            synth: crate::run::SynthSummary::default(),
            actors: None,
            profiler_bytes: bytes,
            steps,
            printed,
            chunks: self.chunks_pushed,
            combined: self.combined,
            rebalances: self.rebalances,
            merges: self.merges,
            queue_stalls: self.queue_stalls,
            spawned_workers,
            worker_recoveries: self.worker_recoveries,
            worker_processed,
            resource,
        }
    }
}

impl Drop for ParallelProfiler {
    /// Shut workers down even when profiling aborts before
    /// [`ParallelProfiler::finalize`]
    /// (e.g. the target program hit a runtime error) — otherwise the worker
    /// threads would spin on their queues forever.
    fn drop(&mut self) {
        if let Backend::Spawned {
            queues, handles, ..
        } = &mut self.backend
        {
            for (w, q) in queues.iter().enumerate() {
                if let Some(h) = handles[w].as_ref() {
                    // Supervised: a dead worker behind a full queue must
                    // not wedge the drop (the join below cannot hang — a
                    // returned Stop means the thread already exited).
                    let mut stalls = 0u64;
                    let _ = push_supervised(q, h, Msg::Stop, &mut stalls);
                }
            }
            for h in handles.iter_mut().filter_map(Option::take) {
                let _ = h.join();
            }
        }
    }
}

impl ParallelProfiler {
    /// Shared per-event body of both delivery paths. Registers loop
    /// instances directly against the shared table (no per-event `Arc`
    /// refcount traffic).
    #[inline]
    fn handle(&mut self, ev: &Event) {
        // Memory accesses dominate the event stream and are ignored by the
        // PET builder and the dealloc check — pack and route them with a
        // single match, mirroring the serial profiler's fast path.
        if let Event::Mem(m) = ev {
            let (instance, iter) = self.ctx.current(m.thread);
            self.push_access(PackedAccess::from_mem(m, instance, iter));
            return;
        }
        self.pet.handle(ev);
        {
            let mut reg: &SharedTable = &self.shared;
            self.ctx.handle(ev, &mut reg);
        }
        if self.cfg.lifetime {
            if let Event::VarDealloc { addr, words, .. } = ev {
                self.dealloc(*addr, *words);
            }
        }
    }
}

impl Sink for ParallelProfiler {
    fn event(&mut self, ev: &Event) {
        self.handle(ev);
    }

    fn events(&mut self, evs: &[Event]) {
        for ev in evs {
            self.handle(ev);
        }
    }
}

/// Profile a sequential target with the parallel profiler.
pub fn profile_parallel(
    prog: &Program,
    pcfg: ParallelConfig,
    mut rcfg: RunConfig,
) -> Result<ParallelOutput, RuntimeError> {
    let mut p = ParallelProfiler::new(pcfg, prog);
    p.combine = !rcfg.racy_delivery;
    if p.cfg.budget.deadline.is_some() {
        // The governor raises this flag when the wall clock runs out; the
        // scheduler then stops at the next slice boundary and the partial
        // output flows through `finalize` with `resource.deadline_hit` set.
        let stop = rcfg
            .stop
            .get_or_insert_with(|| Arc::new(AtomicBool::new(false)))
            .clone();
        p.stop = Some(stop);
    }
    let r = interp::run_with_config(prog, &mut p, rcfg)?;
    let synth = crate::run::SynthSummary::from_run(&r);
    let actors = crate::run::ActorSummary::from_run(&r);
    let mut out = p.finalize(r.steps, r.printed);
    out.synth = synth;
    out.actors = actors;
    Ok(out)
}

/// Profile a multi-threaded target program.
///
/// The target runs once under the deterministic scheduler to obtain its
/// per-thread instrumentation streams; then one real producer thread per
/// target thread replays its stream concurrently into the workers' MPSC
/// queues, emulating target-program locks with real mutexes so that lock-
/// ordered accesses are delivered in order (Fig. 2.4c) while unsynchronized
/// accesses may race — which the engine reports via timestamp-inversion
/// race hints.
pub fn profile_multithreaded_target(
    prog: &Program,
    pcfg: ParallelConfig,
    rcfg: RunConfig,
) -> Result<ParallelOutput, RuntimeError> {
    // Phase 1: execute and record.
    let mut rec = interp::RecordingSink::default();
    let r = interp::run_with_config(prog, &mut rec, rcfg)?;

    // PET from the full stream.
    let mut pet = PetBuilder::new();
    for ev in &rec.events {
        pet.handle(ev);
    }

    // Partition per target thread. Each LockAcquire is tagged with its
    // global per-lock sequence number so the replay can reproduce the
    // original lock order exactly (otherwise producers would acquire the
    // replay locks in arbitrary order and lock-protected accesses would be
    // misreported as racing).
    let mut per_thread: FxHashMap<u32, Vec<(Event, u64)>> = FxHashMap::default();
    let mut lock_seq: FxHashMap<i64, u64> = FxHashMap::default();
    let mut spawned: Vec<u32> = Vec::new();
    let mut max_tid = 0u32;
    for ev in rec.events {
        max_tid = max_tid.max(ev.thread());
        if let Event::ThreadSpawn { child, .. } = ev {
            max_tid = max_tid.max(child);
        }
        let mut seq = 0u64;
        if let Event::LockAcquire { id, .. } = ev {
            let c = lock_seq.entry(id).or_insert(0);
            seq = *c;
            *c += 1;
        }
        if let Event::ThreadSpawn { child, .. } = ev {
            spawned.push(child);
        }
        per_thread.entry(ev.thread()).or_default().push((ev, seq));
    }

    // Phase 2: replay concurrently. The same footprint-adaptive map
    // backend as the sequential path (exact below the threshold), but the
    // workers are always real threads: the replay producers are threads by
    // construction.
    let workers = pcfg.workers.max(1);
    let shared = Arc::new(SharedTable::new());
    let pool: ChunkPool = Arc::new(Mutex::new(Vec::new()));
    let op_meta: Arc<[MemOpMeta]> = prog.mem_op_meta().into();
    let map_kind = if pcfg.adaptive
        && prog.footprint_words() <= crate::run::EngineKind::AUTO_PERFECT_MAX_WORDS
    {
        MapKind::Perfect
    } else {
        MapKind::Signature
    };
    let mut queues = Vec::new();
    let mut handles = Vec::new();
    for _ in 0..workers {
        let q = WorkerQueue::Mpsc(Arc::new(MpscQueue::new(256)));
        queues.push(q.clone());
        handles.push(spawn_worker(
            q,
            PartitionBuilder::new(map_kind, pcfg.sig_slots, &op_meta),
            Arc::clone(&shared),
            Arc::clone(&pool),
            None,
        ));
    }
    // Per-lock ticket counters: a producer replays its critical section
    // only when the counter reaches the acquire's original sequence number.
    let replay_locks: Arc<FxHashMap<i64, std::sync::atomic::AtomicU64>> = Arc::new(
        lock_seq
            .keys()
            .map(|&id| (id, std::sync::atomic::AtomicU64::new(0)))
            .collect(),
    );
    // Start signals: a child producer begins only after its parent replayed
    // the spawn, mirroring real thread creation order.
    let mut start_tx: FxHashMap<u32, std::sync::mpsc::Sender<()>> = FxHashMap::default();
    let mut start_rx: FxHashMap<u32, std::sync::mpsc::Receiver<()>> = FxHashMap::default();
    for &child in &spawned {
        let (tx, rx) = std::sync::mpsc::channel();
        start_tx.insert(child, tx);
        start_rx.insert(child, rx);
    }

    let chunks_total = Arc::new(std::sync::atomic::AtomicU64::new(0));
    // Per-producer completion flags: join replays wait on them, making
    // join a synchronization point (all of the target's accesses are
    // enqueued before the joiner's subsequent accesses).
    let done: Arc<Vec<std::sync::atomic::AtomicBool>> = Arc::new(
        (0..=max_tid)
            .map(|t| std::sync::atomic::AtomicBool::new(!per_thread.contains_key(&t)))
            .collect(),
    );
    std::thread::scope(|scope| {
        for (tid, events) in per_thread {
            let queues = queues.clone();
            let shared = Arc::clone(&shared);
            let replay_locks = Arc::clone(&replay_locks);
            let rx = start_rx.remove(&tid);
            let txs: Vec<(u32, std::sync::mpsc::Sender<()>)> =
                start_tx.iter().map(|(k, v)| (*k, v.clone())).collect();
            let chunk_size = pcfg.chunk_size.max(1);
            let lifetime = pcfg.lifetime;
            let chunks_total = Arc::clone(&chunks_total);
            let done = Arc::clone(&done);
            let producer_pool = Arc::clone(&pool);
            scope.spawn(move || {
                if let Some(rx) = rx {
                    let _ = rx.recv(); // wait for the parent's spawn
                }
                let mut ctx = LoopContext::new();
                // Each producer recycles chunks through the shared pool.
                let mut alloc = ChunkAlloc::new(producer_pool, chunk_size);
                let mut open: Vec<Vec<PackedAccess>> =
                    (0..queues.len()).map(|_| alloc.fresh()).collect();
                let route = |addr: u64| ((addr / 8) % queues.len() as u64) as usize;
                for (ev, seq) in &events {
                    match ev {
                        Event::LockAcquire { id, .. } => {
                            // Wait for our ticket: critical sections replay
                            // in their original global order.
                            if let Some(turn) = replay_locks.get(id) {
                                while turn.load(std::sync::atomic::Ordering::Acquire) != *seq {
                                    std::thread::yield_now();
                                }
                            }
                        }
                        Event::LockRelease { id, .. } => {
                            // Everything accessed under the lock must be
                            // enqueued before the release (Fig. 2.4c).
                            flush_open(&mut open, &queues, &mut alloc, &chunks_total);
                            if let Some(turn) = replay_locks.get(id) {
                                turn.fetch_add(1, std::sync::atomic::Ordering::Release);
                            }
                        }
                        Event::ThreadSpawn { child, .. } => {
                            flush_open(&mut open, &queues, &mut alloc, &chunks_total);
                            if let Some((_, tx)) = txs.iter().find(|(k, _)| k == child) {
                                let _ = tx.send(());
                            }
                        }
                        Event::ThreadJoin { target, .. } => {
                            // Wait until the joined thread's producer has
                            // flushed everything it will ever enqueue.
                            while !done[*target as usize].load(std::sync::atomic::Ordering::Acquire)
                            {
                                std::thread::yield_now();
                            }
                        }
                        Event::VarDealloc { addr, words, .. } if lifetime => {
                            flush_open(&mut open, &queues, &mut alloc, &chunks_total);
                            for q in &queues {
                                q.push(Msg::Dealloc {
                                    addr: *addr,
                                    words: *words,
                                });
                            }
                        }
                        _ => {}
                    }
                    let mut reg: &SharedTable = &shared;
                    if let Some(a) = ctx.handle(ev, &mut reg) {
                        // No repeat-combining here: interleaved producers
                        // make dropped timestamps observable as race hints.
                        let w = route(a.addr);
                        open[w].push(PackedAccess::pack(&a));
                        if open[w].len() >= chunk_size {
                            let fresh = alloc.fresh();
                            let c = std::mem::replace(&mut open[w], fresh);
                            queues[w].push(Msg::Chunk(c));
                            chunks_total.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                }
                flush_open(&mut open, &queues, &mut alloc, &chunks_total);
                done[tid as usize].store(true, std::sync::atomic::Ordering::Release);
            });
        }
        drop(start_tx);
    });

    for q in &queues {
        q.push(Msg::Stop);
    }
    let mut deps = DepSet::new();
    let mut stats = SkipStats::default();
    let mut bytes = 0usize;
    let mut worker_processed = Vec::new();
    let mut spawned_workers = 0;
    let mut worker_recoveries = 0u64;
    let recovery_resolver = WorkerResolver::new(Arc::clone(&shared));
    for (w, h) in handles.into_iter().enumerate() {
        match h.join() {
            Ok(WorkerOutcome::Finished(r)) => {
                spawned_workers += 1;
                deps.merge(r.deps);
                stats.total_accesses += r.stats.total_accesses;
                bytes += r.bytes;
                worker_processed.push(r.processed);
            }
            Ok(WorkerOutcome::Panicked {
                mut builder,
                failed,
                processed,
            }) => {
                // All producers have finished (the scope above joined
                // them), so the queue is drainable from here.
                drain_dead_worker(&mut builder, failed, &queues[w], &recovery_resolver);
                worker_recoveries += 1;
                let (d, s, by) = builder.finish();
                deps.merge(d);
                stats.total_accesses += s.total_accesses;
                bytes += by;
                worker_processed.push(processed);
            }
            Err(e) => std::panic::resume_unwind(e),
        }
    }
    Ok(ParallelOutput {
        deps,
        pet: pet.finish(r.steps),
        skip_stats: stats,
        synth: crate::run::SynthSummary::from_run(&r),
        actors: crate::run::ActorSummary::from_run(&r),
        profiler_bytes: bytes,
        steps: r.steps,
        printed: r.printed,
        chunks: chunks_total.load(std::sync::atomic::Ordering::Relaxed),
        combined: 0,
        rebalances: 0,
        merges: 0,
        queue_stalls: 0,
        spawned_workers,
        worker_recoveries,
        worker_processed,
        resource: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{profile_program_with, EngineKind, ProfileConfig};

    fn program(src: &str) -> Program {
        Program::new(lang::compile(src, "t").unwrap())
    }

    pub(super) const SEQ_SRC: &str = "global int a[64];\nglobal int s;\nfn main() {\nfor (int i = 0; i < 64; i = i + 1) { a[i] = i; }\nfor (int r = 0; r < 4; r = r + 1) {\nfor (int i = 1; i < 64; i = i + 1) {\ns = s + a[i] - a[i - 1];\n}\n}\n}";

    /// The fixed pipeline (workers spawned at construction, signature
    /// maps) — the transport-coverage configuration.
    pub(super) fn small_cfg(queue: QueueKind) -> ParallelConfig {
        ParallelConfig {
            workers: 4,
            chunk_size: 32,
            sig_slots: 1 << 16,
            queue,
            queue_cap: 64,
            lifetime: true,
            rebalance_interval: 0,
            adaptive: false,
            spawn_threshold: 0,
            budget: Budget::unlimited(),
        }
    }

    /// The adaptive configuration, with a spawn threshold high enough that
    /// test workloads stay inline.
    pub(super) fn adaptive_cfg() -> ParallelConfig {
        ParallelConfig {
            workers: 4,
            chunk_size: 32,
            ..Default::default()
        }
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
        let par =
            profile_parallel(&p, small_cfg(QueueKind::LockFree), RunConfig::default()).unwrap();
        assert_eq!(
            par.deps.sorted(),
            serial.deps.sorted(),
            "parallel profiler must produce the same dependences as the serial version"
        );
        assert!(par.spawned_workers == 4, "fixed pipeline spawns eagerly");
    }

    #[test]
    fn parallel_matches_serial_lock_based() {
        let p = program(SEQ_SRC);
        let serial = profile_program_with(
            &p,
            &ProfileConfig {
                engine: EngineKind::signature(1 << 16),
                ..Default::default()
            },
        )
        .unwrap();
        let par =
            profile_parallel(&p, small_cfg(QueueKind::LockBased), RunConfig::default()).unwrap();
        assert_eq!(par.deps.sorted(), serial.deps.sorted());
    }

    #[test]
    fn adaptive_inline_matches_perfect_and_spawns_nothing() {
        let p = program(SEQ_SRC);
        let perfect = profile_program_with(&p, &ProfileConfig::default()).unwrap();
        let par = profile_parallel(&p, adaptive_cfg(), RunConfig::default()).unwrap();
        assert_eq!(
            par.deps.sorted(),
            perfect.deps.sorted(),
            "adaptive inline engine must match the exact serial engine"
        );
        assert_eq!(par.deps.total_found, perfect.deps.total_found);
        assert_eq!(
            par.spawned_workers, 0,
            "a {}-access run must stay below the spawn threshold",
            par.skip_stats.total_accesses
        );
        assert!(par.chunks > 0);
        // Repeat combining targets streams that revisit a site without an
        // iteration change in between; `lang`-lowered loops never do, so
        // the counter stays 0 here (the synthetic-stream differential
        // tests in `engine` exercise rep > 0).
        assert_eq!(par.combined, 0);
    }

    #[test]
    fn adaptive_forced_spawn_matches_perfect() {
        // Threshold 0: escalates to spawned transport on the first chunk;
        // the builder hand-off must be invisible in the output.
        let p = program(SEQ_SRC);
        let perfect = profile_program_with(&p, &ProfileConfig::default()).unwrap();
        let mut cfg = adaptive_cfg();
        cfg.spawn_threshold = 0;
        let par = profile_parallel(&p, cfg, RunConfig::default()).unwrap();
        assert_eq!(par.deps.sorted(), perfect.deps.sorted());
        assert_eq!(par.deps.total_found, perfect.deps.total_found);
        assert_eq!(
            par.spawned_workers, 4,
            "threshold 0 forces spawning even without spare cores"
        );
    }

    #[test]
    fn work_distributed_across_workers() {
        let p = program(SEQ_SRC);
        let par =
            profile_parallel(&p, small_cfg(QueueKind::LockFree), RunConfig::default()).unwrap();
        let busy = par.worker_processed.iter().filter(|&&c| c > 0).count();
        assert!(busy >= 2, "at least two workers must receive accesses");
        assert!(par.chunks > 0);
    }

    #[test]
    fn rebalance_migrates_hot_addresses_exactly() {
        // One scalar hammered in a loop: all accesses hash to one worker
        // until rebalancing migrates the address — and because the shadow
        // status moves with it, the output must stay identical to serial.
        let src = "global int hot;\nfn main() {\nfor (int i = 0; i < 20000; i = i + 1) { hot = hot + 1; }\n}";
        let p = program(src);
        let serial = profile_program_with(&p, &ProfileConfig::default()).unwrap();
        let mut cfg = small_cfg(QueueKind::LockFree);
        cfg.rebalance_interval = 10;
        cfg.chunk_size = 16;
        let par = profile_parallel(&p, cfg, RunConfig::default()).unwrap();
        assert!(par.chunks > 10);
        assert!(
            par.rebalances > 0,
            "a single hot address must trigger migration"
        );
        assert_eq!(
            par.deps.sorted(),
            serial.deps.sorted(),
            "hot-address migration must not change the dependence set"
        );
        assert_eq!(par.deps.total_found, serial.deps.total_found);
    }

    #[test]
    fn inline_merge_folds_starving_partitions() {
        // Almost all traffic lands on few addresses: most partitions
        // starve, so the inline rebalance merges them — and the moved
        // shadow state must keep the output exact. `pad[5]` pins real
        // shadow state (an early write) in a starving partition; the late
        // read only produces its RAW if the merge moved the cell.
        let src = "global int a[8];\nglobal int pad[8];\nglobal int s;\nfn main() {\npad[5] = 1;\nfor (int i = 0; i < 30000; i = i + 1) {\ns = s + a[i - (i / 4) * 4];\n}\ns = s + pad[5];\n}";
        let p = program(src);
        let serial = profile_program_with(&p, &ProfileConfig::default()).unwrap();
        let mut cfg = adaptive_cfg();
        cfg.workers = 8;
        cfg.rebalance_interval = 25;
        cfg.chunk_size = 64;
        let par = profile_parallel(&p, cfg, RunConfig::default()).unwrap();
        assert_eq!(par.spawned_workers, 0);
        assert!(par.merges > 0, "starving partitions must merge");
        assert_eq!(par.deps.sorted(), serial.deps.sorted());
        assert_eq!(par.deps.total_found, serial.deps.total_found);
    }

    #[test]
    fn multithreaded_target_cross_thread_deps() {
        let src = "global int counter;
fn w(int n) { for (int i = 0; i < n; i = i + 1) { lock(1); counter = counter + 1; unlock(1); } }
fn main() { int a = spawn(w, 40); int b = spawn(w, 40); join(a); join(b); }";
        let p = program(src);
        let out =
            profile_multithreaded_target(&p, small_cfg(QueueKind::LockFree), RunConfig::default())
                .unwrap();
        let cross: Vec<_> = out
            .deps
            .sorted()
            .into_iter()
            .filter(|d| d.is_cross_thread())
            .collect();
        assert!(
            !cross.is_empty(),
            "lock-protected shared counter must produce cross-thread dependences"
        );
    }

    #[test]
    fn unsynchronized_access_may_yield_race_hint() {
        // No locks around the shared counter: the replay may deliver
        // accesses out of order, which must be flagged — and even if the
        // schedule happens to be benign, profiling must succeed.
        let src = "global int counter;
fn w(int n) { for (int i = 0; i < 2000; i = i + 1) { counter = counter + 1; } }
fn main() { int a = spawn(w, 2000); int b = spawn(w, 2000); join(a); join(b); }";
        let p = program(src);
        let out =
            profile_multithreaded_target(&p, small_cfg(QueueKind::LockFree), RunConfig::default())
                .unwrap();
        assert!(!out.deps.is_empty());
        // Cross-thread deps must exist for the shared counter.
        assert!(out.deps.sorted().iter().any(|d| d.is_cross_thread()));
    }

    #[test]
    fn racy_delivery_matches_serial_on_same_stream() {
        // Racy delivery interleaves threads' buffered accesses out of
        // timestamp order (deterministically, per seed). The parallel
        // engine must agree with the serial engine on the identical
        // stream — which requires repeat combining to be off (dropped
        // interior timestamps would be observable through race hints).
        let src = "global int counter;
fn w(int n) { for (int i = 0; i < n; i = i + 1) { counter = counter + 1; } }
fn main() { int a = spawn(w, 300); int b = spawn(w, 300); join(a); join(b); }";
        let p = program(src);
        let racy = RunConfig {
            racy_delivery: true,
            buffer_cap: 16,
            ..Default::default()
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
            let mut cfg = adaptive_cfg();
            cfg.spawn_threshold = spawn_threshold;
            let par = profile_parallel(&p, cfg, racy.clone()).unwrap();
            assert_eq!(
                par.deps.sorted(),
                serial.deps.sorted(),
                "racy stream (threshold {spawn_threshold}) diverged"
            );
            assert_eq!(
                par.combined, 0,
                "combining must stay off under racy delivery"
            );
        }
    }

    #[test]
    fn shared_table_refresh() {
        let t = SharedTable::new();
        let a = t.register((0, 1), NO_INSTANCE, 0);
        let mut cache = Vec::new();
        t.refresh(&mut cache);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache[a as usize].loop_key, (0, 1));
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
        let par = profile_parallel(
            &p,
            super::tests::small_cfg(QueueKind::LockFree),
            RunConfig::default(),
        )
        .unwrap();
        let ps: std::collections::HashSet<_> = par.deps.sorted().into_iter().collect();
        let ss: std::collections::HashSet<_> = serial.deps.sorted().into_iter().collect();
        let extra: Vec<_> = ps.difference(&ss).collect();
        let missing: Vec<_> = ss.difference(&ps).collect();
        assert!(extra.is_empty(), "parallel-only deps: {extra:?}");
        assert!(missing.is_empty(), "serial-only deps: {missing:?}");
    }
}

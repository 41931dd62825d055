//! The profiling engine: one front, `N` partitions, `0..=N` workers.
//!
//! The paper's parallel profiler (§2.3.3) is the serial algorithm with the
//! address space dealt out to consumers, and must report "the same data
//! dependences as the serial version". So there is one engine,
//! [`Profiler`], and every [`EngineKind`] is a setting of its dials:
//!
//! - The **front**, written once: the dynamic loop context, the instance
//!   table, the PET builder, and variable-lifetime eviction.
//! - The **back**: `N` partitions, each a `Shadow` (an exact or a
//!   signature dependence builder carrying the degradation ladder). An
//!   access goes to the partition the paper's modulo (Eq. 2.1) names.
//! - The **transport**: none while the producer owns a partition (the front
//!   calls `Shadow::process` directly), or a spawned consumer behind a
//!   queue ([`crate::parallel`]).
//!
//! `serial-perfect` is one exact partition and no workers;
//! `serial-signature:S` one signature partition and no workers;
//! `parallel:WxC` is `W` partitions that start with the producer and move
//! into `W` workers once the run has shown itself big enough. One
//! `Governor` checkpoints whatever the producer owns, at one cadence,
//! whatever the dials say.
//!
//! Plan runs ([`interp::PlanRun`]): a lone exact partition the producer
//! owns resolves them in closed form ([`crate::DepBuilder::process_run`]) —
//! under a budget too, until a degradation leaves the exact tier. Every
//! other configuration expands them into the per-access path.

use crate::access::{Access, InstanceTable, LoopContext, PackedAccess, NO_INSTANCE};
use crate::budget::{
    signature_slots_for_budget, Budget, DegradationStep, GaugeSlot, MemGauge, ResourceStats,
    ShadowTier,
};
use crate::dep::DepSet;
use crate::engine::{DepBuilder, EngineConfig, RunStats, SkipStats};
use crate::maps::{AccessMap, Cell};
use crate::parallel::{
    apply_msg, drain_dead_worker, producer_reserve_ceiling, push_supervised, spawn_worker,
    ChunkAlloc, ChunkPool, Msg, ParallelConfig, SharedTable, WorkerGov, WorkerOutcome, WorkerQueue,
};
use crate::pet::PetBuilder;
use crate::queue::SpscQueue;
use crate::run::{EngineKind, ParallelStats, ProfileConfig, ProfileOutput};
use crate::shadow::{Finished, Shadow};
use interp::{Event, MemOpMeta, PlanRun, RunConfig, Sink};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Events between checkpoints (escalation test, governor). Each checkpoint
/// is a wall-clock read plus a footprint estimate (a handful of `Vec`
/// length sums), so at this cadence governance overhead is far below the
/// cost of processing the same events — the `stress_xl` benchmark row pins
/// it under 2%.
const CHECKPOINT_CADENCE: u64 = 2048;

/// Where annotated accesses and lifetime evictions go: a builder directly,
/// or the routed partitions. Exists so the front's per-event body is
/// written once and compiled per destination.
trait Back {
    fn access(&mut self, a: &Access, table: &InstanceTable);
    fn dealloc(&mut self, addr: u64, words: u64, table: &InstanceTable);
}

impl<M: AccessMap> Back for DepBuilder<M> {
    #[inline]
    fn access(&mut self, a: &Access, table: &InstanceTable) {
        self.process(a, table);
    }

    fn dealloc(&mut self, addr: u64, words: u64, _: &InstanceTable) {
        self.clear_range(addr, words);
    }
}

/// The front half, the same for every engine: what an event means before
/// any shadow is consulted.
struct Front {
    ctx: LoopContext,
    table: InstanceTable,
    pet: PetBuilder,
    lifetime: bool,
}

impl Front {
    #[inline]
    fn feed(&mut self, ev: &Event, back: &mut impl Back) {
        // Memory accesses dominate the event stream and are ignored by the
        // PET builder and the dealloc check — route them straight to the
        // back with a single match.
        if let Event::Mem(m) = ev {
            back.access(&self.ctx.annotate(m), &self.table);
            return;
        }
        self.pet.handle(ev);
        self.ctx.handle(ev, &mut self.table);
        if self.lifetime {
            if let Event::VarDealloc { addr, words, .. } = ev {
                back.dealloc(*addr, *words, &self.table);
            }
        }
    }
}

/// Events in delivery order: a delivered batch, or what a plan run stands
/// for.
trait EventSource {
    fn for_each(self, f: impl FnMut(&Event));
}

impl EventSource for &[Event] {
    #[inline]
    fn for_each(self, f: impl FnMut(&Event)) {
        self.iter().for_each(f);
    }
}

impl EventSource for &PlanRun<'_> {
    fn for_each(self, f: impl FnMut(&Event)) {
        self.expand(f);
    }
}

/// One partition, wherever it currently lives.
// A partition changes variant twice in a run at most; boxing the shadow
// would put a pointer chase on the inline per-access path instead.
#[allow(clippy::large_enum_variant)]
enum Part {
    /// Owned by the producer and processed inline: every partition before
    /// escalation, a recovered one after its worker died.
    Local(Shadow),
    /// Moved into a worker thread.
    Remote {
        queue: WorkerQueue,
        /// `None` once joined.
        handle: Option<JoinHandle<WorkerOutcome>>,
        /// The chunk being filled for this worker.
        open: Vec<PackedAccess>,
    },
}

/// What exists only once workers do.
struct Spawned {
    shared: Arc<SharedTable>,
    /// Instances of the producer's table already in `shared`.
    published: usize,
    alloc: ChunkAlloc,
    /// Current chunk capacity: ramps up to `chunk_ceiling`, the configured
    /// `chunk_size`.
    chunk_cap: usize,
    chunk_ceiling: usize,
    /// Shipped-chunk count at which the capacity next doubles.
    ramp_at: u64,
}

/// The back half: the partitions and, once escalated, their transport.
struct Partitions {
    parts: Vec<Part>,
    /// `parts.len() - 1` when the partition count is a power of two (the
    /// modulo in `route` becomes a mask).
    mask: Option<u64>,
    /// The worker dial; `None` for the serial engine kinds, which never
    /// escalate.
    par: Option<ParallelConfig>,
    /// The target's static op table, for rebuilding a partition.
    op_meta: Arc<[MemOpMeta]>,
    /// Hardware threads available at construction.
    avail: usize,
    spawned: Option<Spawned>,
    chunks: u64,
    queue_stalls: u64,
    /// Worker panics recovered mid-run or at finish.
    worker_recoveries: u64,
}

impl Partitions {
    /// The partition, when there is exactly one and the producer owns it:
    /// the configuration that needs no routing at all.
    #[inline]
    fn sole(&mut self) -> Option<&mut Shadow> {
        match self.parts.as_mut_slice() {
            [Part::Local(s)] => Some(s),
            _ => None,
        }
    }

    #[inline]
    fn route(&self, addr: u64) -> usize {
        // The paper's modulo distribution (Eq. 2.1) on the word address.
        // The default partition counts are powers of two, and a hardware
        // DIV per routed access is the kind of cost this transport exists
        // to avoid — so the modulo is a mask whenever it can be.
        let word = addr >> 3;
        match self.mask {
            Some(m) => (word & m) as usize,
            None => (word % self.parts.len() as u64) as usize,
        }
    }

    /// Ship partition `w`'s open chunk to its worker, if it holds anything.
    fn flush_partition(&mut self, w: usize, table: &InstanceTable) {
        let (Part::Remote { open, .. }, Some(sp)) = (&mut self.parts[w], &mut self.spawned) else {
            return;
        };
        if open.is_empty() {
            return;
        }
        // Whatever the chunk's accesses refer to must be resolvable by the
        // time the worker sees them.
        let instances = table.as_slice();
        if sp.published < instances.len() {
            sp.shared.extend(&instances[sp.published..]);
            sp.published = instances.len();
        }
        let chunk = std::mem::replace(open, sp.alloc.fresh());
        self.chunks += 1;
        // Chunk ramp: small chunks first (low latency while the run may
        // still turn out short), doubling every ~8 chunks per partition up
        // to the configured ceiling.
        if sp.chunk_cap < sp.chunk_ceiling && self.chunks >= sp.ramp_at {
            sp.chunk_cap = (sp.chunk_cap * 2).min(sp.chunk_ceiling);
            sp.ramp_at = self.chunks + 8 * self.parts.len() as u64;
        }
        self.deliver(w, Msg::Chunk(chunk), table);
    }

    /// Deliver a message to partition `w`: apply it inline when the
    /// producer owns the partition, push it to the worker otherwise — and
    /// if the worker turns out to be dead behind a full queue, recover the
    /// partition and apply it there.
    fn deliver(&mut self, w: usize, mut msg: Msg, table: &InstanceTable) {
        loop {
            match &mut self.parts[w] {
                Part::Local(s) => return apply_msg(s, msg, table),
                Part::Remote {
                    queue,
                    handle: Some(h),
                    ..
                } => match push_supervised(queue, h, msg, &mut self.queue_stalls) {
                    Ok(()) => return,
                    Err(m) => msg = m,
                },
                Part::Remote { handle: None, .. } => return,
            }
            self.recover_worker(w, table);
        }
    }

    /// Supervisor: worker `w` died. Join it, replay its in-flight message,
    /// drain its queue, and take the partition back.
    fn recover_worker(&mut self, w: usize, table: &InstanceTable) {
        let Part::Remote { queue, handle, .. } = &mut self.parts[w] else {
            return;
        };
        let Some(h) = handle.take() else { return };
        let shadow = match h.join() {
            Ok(WorkerOutcome::Panicked { mut shadow, failed }) => {
                drain_dead_worker(&mut shadow, failed, queue, table);
                *shadow
            }
            // Only a Stop produces a clean finish, and none is sent
            // mid-run; keep routing alive with a fresh partition so a
            // (theoretical) stray finish cannot wedge delivery.
            Ok(WorkerOutcome::Finished(_)) => Shadow::new(
                ShadowTier::Signature {
                    slots: self.par.as_ref().map_or(1, |p| p.sig_slots),
                },
                &self.op_meta,
                EngineConfig::default(),
            ),
            // A panic that escaped the worker's own catch_unwind: nothing
            // left to recover, surface it.
            Err(e) => std::panic::resume_unwind(e),
        };
        self.parts[w] = Part::Local(shadow);
        self.worker_recoveries += 1;
    }

    /// Is it time to move the partitions into workers? When the volume
    /// shows the run is big AND there is hardware to overlap with: on a
    /// single-core host the engine stays inline for the whole run.
    fn spawn_due(&self) -> bool {
        let Some(par) = &self.par else { return false };
        let processed = self.parts.iter().map(|p| match p {
            Part::Local(s) => s.accesses(),
            Part::Remote { .. } => 0,
        });
        self.spawned.is_none() && self.avail >= 2 && processed.sum::<u64>() >= par.spawn_threshold
    }

    /// Move every partition into its own worker thread and switch the
    /// transport to queues. The shadow state travels with the partition, so
    /// escalation is invisible in the output.
    fn escalate(&mut self, table: &InstanceTable, gov: Option<&Governor>) {
        let Some(par) = &self.par else { return };
        let shared = Arc::new(SharedTable::new());
        shared.extend(table.as_slice());
        let pool: ChunkPool = Arc::new(Mutex::new(Vec::new()));
        // Deep pipelines stall less; keep at least a few chunks in flight
        // per worker even when the configured cap is tiny.
        let queue_cap = par.queue_cap.max(4);
        let chunk_ceiling = par.chunk_size.max(1);
        let mut alloc = ChunkAlloc::new(Arc::clone(&pool), chunk_ceiling);
        let nparts = self.parts.len();
        self.parts = std::mem::take(&mut self.parts)
            .into_iter()
            .map(|part| match part {
                Part::Local(shadow) => {
                    let queue = WorkerQueue::Spsc(Arc::new(SpscQueue::new(queue_cap)));
                    let worker_gov = gov.map(|g| g.for_worker(nparts, par.sig_slots));
                    let handle = spawn_worker(
                        queue.clone(),
                        shadow,
                        Arc::clone(&shared),
                        Arc::clone(&pool),
                        worker_gov,
                    );
                    Part::Remote {
                        queue,
                        handle: Some(handle),
                        open: alloc.fresh(),
                    }
                }
                remote => remote,
            })
            .collect();
        self.spawned = Some(Spawned {
            shared,
            published: table.len(),
            alloc,
            chunk_cap: chunk_ceiling.min(ParallelConfig::MIN_CHUNK),
            chunk_ceiling,
            ramp_at: 8 * nparts as u64,
        });
    }

    /// Bytes the producer itself holds: the partitions it owns (spawned
    /// workers publish their own) and the transport side tables.
    fn owned_bytes(&self) -> usize {
        let parts = self.parts.iter().map(|p| match p {
            Part::Local(s) => s.bytes(),
            Part::Remote { open, .. } => open.capacity() * std::mem::size_of::<PackedAccess>(),
        });
        let shared = self.spawned.as_ref().map_or(0, |sp| {
            sp.published * std::mem::size_of::<crate::access::Instance>()
        });
        parts.sum::<usize>() + shared
    }
}

impl Back for Partitions {
    #[inline]
    fn access(&mut self, a: &Access, table: &InstanceTable) {
        let w = self.route(a.addr);
        match &mut self.parts[w] {
            Part::Local(s) => s.process(a, table),
            Part::Remote { open, .. } => {
                open.push(PackedAccess::pack(a));
                let cap = self.spawned.as_ref().map_or(1, |sp| sp.chunk_cap);
                if open.len() >= cap {
                    self.flush_partition(w, table);
                }
            }
        }
    }

    fn dealloc(&mut self, addr: u64, words: u64, table: &InstanceTable) {
        // Determine which partitions own part of the range; consecutive
        // word addresses stripe across partitions, so ranges wider than the
        // partition count touch everyone.
        let n = self.parts.len();
        let affected: Vec<usize> = if words as usize >= n {
            (0..n).collect()
        } else {
            let mut v: Vec<usize> = (0..words).map(|i| self.route(addr + i * 8)).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        for w in affected {
            // Order matters: accesses already routed must be consumed
            // before the eviction.
            self.flush_partition(w, table);
            self.deliver(w, Msg::Dealloc { addr, words }, table);
        }
    }
}

impl Drop for Partitions {
    /// Shut workers down even when profiling aborts before
    /// [`Profiler::finish`] (e.g. the target program hit a runtime error) —
    /// otherwise the worker threads would spin on their queues forever.
    fn drop(&mut self) {
        for part in &mut self.parts {
            if let Part::Remote {
                queue,
                handle: Some(h),
                ..
            } = part
            {
                // Supervised: a dead worker behind a full queue must not
                // wedge the drop (the join below cannot hang — a returned
                // Stop means the thread already exited).
                let _ = push_supervised(queue, h, Msg::Stop, &mut 0);
            }
        }
        for part in &mut self.parts {
            if let Part::Remote { handle, .. } = part {
                if let Some(h) = handle.take() {
                    let _ = h.join();
                }
            }
        }
    }
}

/// The resource governor: enforces a [`Budget`] on whatever the producer
/// owns. Every [`CHECKPOINT_CADENCE`] events it checks the deadline
/// (setting the interpreter's stop flag when expired) and the memory
/// ceiling (walking the producer's partitions down the degradation ladder
/// until the footprint fits again), and publishes the post-degradation
/// footprint to the gauge spawned workers share. The budget invariant —
/// tracked bytes never exceed the ceiling at any checkpoint, ladder
/// permitting — is exactly what the fault-injection suite asserts.
struct Governor {
    budget: Budget,
    /// Shared tracked-bytes gauge (producer + spawned workers publish).
    gauge: Arc<MemGauge>,
    /// The producer's own publisher slot on the gauge.
    slot: GaugeSlot,
    /// Degradation steps taken anywhere in the pipeline, in rough order.
    steps: Arc<Mutex<Vec<DegradationStep>>>,
    started: Instant,
    /// Set once the wall-clock deadline has passed; the stop flag is
    /// raised at the same moment.
    deadline_hit: bool,
    /// Interpreter stop flag, installed by [`Profiler::govern_run`] when
    /// the budget carries a deadline.
    stop: Option<Arc<AtomicBool>>,
}

impl Governor {
    fn new(budget: Budget) -> Self {
        Governor {
            budget,
            gauge: Arc::new(MemGauge::new()),
            slot: GaugeSlot::new(),
            steps: Arc::new(Mutex::new(Vec::new())),
            started: Instant::now(),
            deadline_hit: false,
            stop: None,
        }
    }

    /// A spawned worker's share of the budget: each of `nworkers` degrades
    /// toward its share of the ceiling.
    fn for_worker(&self, nworkers: usize, sig_slots: usize) -> WorkerGov {
        let max = self.budget.max_memory_bytes;
        WorkerGov {
            gauge: Arc::clone(&self.gauge),
            slot: GaugeSlot::new(),
            max_bytes: max.map_or(usize::MAX, producer_reserve_ceiling),
            hard_max: max.unwrap_or(usize::MAX),
            sig_slots: max.map_or(sig_slots, |m| {
                signature_slots_for_budget(m / nworkers.max(1))
            }),
            steps: Arc::clone(&self.steps),
        }
    }

    #[cold]
    fn checkpoint(&mut self, back: &mut Partitions, table_bytes: usize) {
        if let Some(deadline) = self.budget.deadline {
            if !self.deadline_hit && self.started.elapsed() >= deadline {
                self.deadline_hit = true;
                if let Some(stop) = &self.stop {
                    stop.store(true, Ordering::Relaxed);
                }
            }
        }
        self.enforce_memory(back, table_bytes);
    }

    /// Degrade-then-publish: walk the producer-owned partitions down the
    /// ladder (fattest first) until the gauge total fits the ceiling, then
    /// publish. The peak the gauge records at a checkpoint therefore never
    /// exceeds the budget unless the ladder bottomed out.
    ///
    /// Workers stuck at their own ladder floor (their remaining bytes are
    /// non-degradable) report their admission shortfall as *pressure*: the
    /// producer sheds below `max - pressure` so the starved worker's retry
    /// fits under the budget. Shedding is also triggered when the gauge
    /// *total* is over the ceiling even though the producer's own figure
    /// shrank — a shrinking publication is always admitted, so without the
    /// explicit total check the producer would never make room once its
    /// delta went non-positive.
    fn enforce_memory(&mut self, back: &mut Partitions, table_bytes: usize) {
        let Some(max) = self.budget.max_memory_bytes else {
            self.slot
                .publish(&self.gauge, back.owned_bytes() + table_bytes);
            return;
        };
        let ceiling = max.saturating_sub(self.gauge.take_pressure());
        let sig_slots = signature_slots_for_budget(max / back.parts.len().max(1));
        loop {
            let bytes = back.owned_bytes() + table_bytes;
            let projected = match self.slot.try_publish(&self.gauge, bytes, ceiling) {
                Ok(total) if total <= ceiling => return,
                Ok(total) => total,
                Err(projected) => projected,
            };
            let mut owned: Vec<&mut Shadow> = back
                .parts
                .iter_mut()
                .filter_map(|p| match p {
                    Part::Local(s) => Some(s),
                    Part::Remote { .. } => None,
                })
                .collect();
            owned.sort_by_key(|s| std::cmp::Reverse(s.bytes()));
            match owned.into_iter().find_map(|s| s.degrade(sig_slots)) {
                Some(mut step) => {
                    step.bytes_before = projected as u64;
                    let after = back.owned_bytes() + table_bytes;
                    step.bytes_after = self.slot.preview(&self.gauge, after) as u64;
                    self.steps.lock().push(step);
                }
                None => {
                    // Every producer-owned partition is at the floor: the
                    // ladder bottomed out, the footprint is accepted (the
                    // one documented case where the peak may exceed the
                    // budget).
                    self.slot.publish(&self.gauge, bytes);
                    return;
                }
            }
        }
    }

    /// The run's resource block. `fill` is the summed signature fill
    /// `(occupied cells, total cells)` of every partition that ended on a
    /// signature: the probability that a probe of a fresh address lands in
    /// an occupied slot — Eq. 2.2 with the address count inferred from
    /// occupancy.
    fn finish(self, (occupied, cells): (usize, usize)) -> ResourceStats {
        let mut res = ResourceStats::for_budget(&self.budget);
        res.peak_tracked_bytes = self.gauge.peak() as u64;
        res.degradation_steps = std::mem::take(&mut *self.steps.lock());
        res.fp_rate_estimate = if cells > 0 {
            occupied as f64 / cells as f64
        } else {
            0.0
        };
        res.deadline_hit = self.deadline_hit;
        res
    }
}

/// The dependence profiler. Implements [`Sink`], so it plugs directly into
/// the interpreter; [`crate::profile_program_with`] is the one-call form.
pub struct Profiler {
    front: Front,
    back: Partitions,
    // Boxed: an ungoverned engine carries one null pointer for it.
    gov: Option<Box<Governor>>,
    /// Events since the last checkpoint.
    since_check: u64,
}

impl Profiler {
    /// The engine `cfg` names (its `run` field aside — that is the
    /// interpreter's), for a target whose static op table is `meta`
    /// ([`interp::Program::mem_op_meta`]) and whose static address footprint
    /// is `footprint_words` ([`interp::Program::footprint_words`]; consulted
    /// only by [`EngineKind::Parallel`], to choose its partitions' tier).
    pub fn new(meta: &[MemOpMeta], footprint_words: usize, cfg: &ProfileConfig) -> Self {
        let serial = |tier| {
            let engine_cfg = EngineConfig {
                skip_loops: cfg.skip_loops,
            };
            Self::build(meta, tier, None, engine_cfg, cfg.lifetime, cfg.budget)
        };
        match cfg.engine {
            EngineKind::SerialPerfect => serial(ShadowTier::Perfect),
            EngineKind::SerialSignature { slots } => serial(ShadowTier::Signature { slots }),
            EngineKind::Parallel { workers, chunk } => Self::parallel(
                meta,
                footprint_words,
                ParallelConfig {
                    workers: workers.max(1),
                    chunk_size: chunk.max(1),
                    sig_slots: EngineKind::parallel_worker_slots(workers),
                    lifetime: cfg.lifetime,
                    budget: cfg.budget,
                    ..ParallelConfig::default()
                },
            ),
        }
    }

    /// The parallel engine under an explicit [`ParallelConfig`].
    pub(crate) fn parallel(
        meta: &[MemOpMeta],
        footprint_words: usize,
        pcfg: ParallelConfig,
    ) -> Self {
        let (tier, lifetime, budget) = (pcfg.tier_for(footprint_words), pcfg.lifetime, pcfg.budget);
        // §2.4 skipping is per-op state that wants one builder to see every
        // access of an op; partitions split them by address.
        let engine_cfg = EngineConfig::default();
        Self::build(meta, tier, Some(pcfg), engine_cfg, lifetime, budget)
    }

    fn build(
        meta: &[MemOpMeta],
        tier: ShadowTier,
        par: Option<ParallelConfig>,
        engine_cfg: EngineConfig,
        lifetime: bool,
        budget: Budget,
    ) -> Self {
        let op_meta: Arc<[MemOpMeta]> = meta.into();
        let nparts = par.as_ref().map_or(1, |p| p.workers.max(1));
        let spawn_now = par.as_ref().is_some_and(|p| p.spawn_threshold == 0);
        let mut p = Profiler {
            front: Front {
                ctx: LoopContext::new(),
                table: InstanceTable::new(),
                pet: PetBuilder::new(),
                lifetime,
            },
            back: Partitions {
                parts: (0..nparts)
                    .map(|_| Part::Local(Shadow::new(tier, &op_meta, engine_cfg.clone())))
                    .collect(),
                mask: nparts.is_power_of_two().then(|| nparts as u64 - 1),
                avail: match &par {
                    Some(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
                    None => 1,
                },
                par,
                op_meta,
                spawned: None,
                chunks: 0,
                queue_stalls: 0,
                worker_recoveries: 0,
            },
            gov: budget.is_active().then(|| Box::new(Governor::new(budget))),
            since_check: 0,
        };
        // A zero threshold is an explicit "always spawn" request: no volume
        // to wait for, and no core check.
        if spawn_now {
            p.back.escalate(&p.front.table, p.gov.as_deref());
        }
        p
    }

    /// Tie the interpreter run to the budget: when it carries a deadline,
    /// share (or install) the run's stop flag, which the governor raises
    /// when the wall clock runs out — the scheduler then stops at the next
    /// slice boundary and the partial output flows through
    /// [`Profiler::finish`] with `resource.deadline_hit` set.
    pub(crate) fn govern_run(&mut self, run: &mut RunConfig) {
        if let Some(g) = self.gov.as_deref_mut() {
            if g.budget.deadline.is_some() {
                let stop = run
                    .stop
                    .get_or_insert_with(|| Arc::new(AtomicBool::new(false)));
                g.stop = Some(Arc::clone(stop));
            }
        }
    }

    /// What became of the plan runs received so far.
    pub fn run_stats(&self) -> RunStats {
        match self.back.parts.as_slice() {
            [Part::Local(s)] => s.run_stats(),
            _ => RunStats::default(),
        }
    }

    /// Tracked bytes the producer holds right now — what the governor
    /// publishes at checkpoint cadence.
    pub fn current_bytes(&self) -> usize {
        self.back.owned_bytes() + self.front.table.bytes()
    }

    /// Move the whole exact shadow out of a lone exact partition, leaving
    /// it empty ([`DepBuilder::drain_shadow`]) — how a differential test
    /// compares the final shadow state of two profilers. Empty for any
    /// other configuration.
    pub fn drain_shadow(&mut self) -> Vec<(u64, Option<Cell>, Option<Cell>)> {
        match self.back.sole() {
            Some(Shadow::Perfect(b)) => b.drain_shadow(),
            _ => Vec::new(),
        }
    }

    /// Feed events through the front into wherever accesses currently go.
    /// The destination — and with it the shadow tier — is matched once per
    /// source, not per access.
    #[inline]
    fn feed(&mut self, src: impl EventSource) {
        let front = &mut self.front;
        match self.back.sole() {
            Some(Shadow::Perfect(b)) => src.for_each(|ev| front.feed(ev, b)),
            Some(Shadow::Sig(b)) => src.for_each(|ev| front.feed(ev, b)),
            None => {
                let back = &mut self.back;
                src.for_each(|ev| front.feed(ev, back));
            }
        }
    }

    #[inline]
    fn tick(&mut self, events: u64) {
        self.since_check += events;
        if self.since_check >= CHECKPOINT_CADENCE {
            self.since_check = 0;
            self.checkpoint();
        }
    }

    #[cold]
    fn checkpoint(&mut self) {
        if self.back.spawn_due() {
            self.back.escalate(&self.front.table, self.gov.as_deref());
        }
        if let Some(g) = self.gov.as_deref_mut() {
            g.checkpoint(&mut self.back, self.front.table.bytes());
        }
    }

    /// Finish profiling after `steps` executed target instructions: ship
    /// what is still open, stop any workers, and merge the partitions in
    /// ascending order. Workers that died are recovered here (their
    /// partition drains back inline), so a supervised run always completes
    /// with a full output. The run-level fields — `synth`, `actors`,
    /// `printed` — are the interpreter's to report and are left empty.
    pub fn finish(self, steps: u64) -> ProfileOutput {
        let Profiler {
            front,
            mut back,
            mut gov,
            ..
        } = self;
        let table = &front.table;
        for w in 0..back.parts.len() {
            back.flush_partition(w, table);
        }
        // Growth since the previous checkpoint must not outlive the run.
        if let Some(g) = gov.as_deref_mut() {
            g.enforce_memory(&mut back, table.bytes());
        }
        let parts = std::mem::take(&mut back.parts);
        for part in &parts {
            if let Part::Remote {
                queue,
                handle: Some(h),
                ..
            } = part
            {
                // A dead worker behind a full queue hands the Stop back;
                // dropping it is fine — the join below recovers everything
                // the queue still holds.
                let _ = push_supervised(queue, h, Msg::Stop, &mut back.queue_stalls);
            }
        }
        let mut spawned_workers = 0;
        let done: Vec<Finished> = parts
            .into_iter()
            .map(|part| match part {
                Part::Local(shadow) => shadow.finish(),
                Part::Remote { queue, handle, .. } => match handle.map(JoinHandle::join) {
                    Some(Ok(WorkerOutcome::Finished(done))) => {
                        spawned_workers += 1;
                        done
                    }
                    Some(Ok(WorkerOutcome::Panicked { mut shadow, failed })) => {
                        drain_dead_worker(&mut shadow, failed, &queue, table);
                        back.worker_recoveries += 1;
                        shadow.finish()
                    }
                    Some(Err(e)) => std::panic::resume_unwind(e),
                    None => unreachable!("a joined worker's partition is taken back at once"),
                },
            })
            .collect();

        // One partition's set is the output as it stands (its iteration
        // order is its insertion history, which report bytes follow) and
        // only a lone partition resolves runs; several sets merge in
        // ascending partition order.
        let lone = done.len() == 1;
        let (mut deps, mut plan_runs) = (DepSet::new(), RunStats::default());
        let mut skip_stats = SkipStats::default();
        let mut profiler_bytes = table.bytes();
        let mut fill = (0, 0);
        let mut worker_processed = Vec::with_capacity(done.len());
        for d in done {
            skip_stats.absorb(&d.stats);
            profiler_bytes += d.bytes;
            worker_processed.push(d.stats.total_accesses);
            if let Some((occupied, cells)) = d.fill {
                fill = (fill.0 + occupied, fill.1 + cells);
            }
            if lone {
                (deps, plan_runs) = (d.deps, d.runs);
            } else {
                deps.merge(d.deps);
            }
        }
        let parallel = back.par.as_ref().map(|_| ParallelStats {
            chunks: back.chunks,
            queue_stalls: back.queue_stalls,
            spawned_workers,
            worker_recoveries: back.worker_recoveries,
            worker_processed,
        });
        ProfileOutput {
            deps,
            pet: front.pet.finish(steps),
            skip_stats,
            synth: Default::default(),
            plan_runs,
            profiler_bytes,
            steps,
            printed: Vec::new(),
            parallel,
            resource: gov.map(|g| g.finish(fill)),
            actors: None,
        }
    }
}

/// `LoopIter` and `Mem` events `run` stands for — what it advances the
/// checkpoint cadence by, so a deadline trips inside a plan-heavy job too.
fn events_in(run: &PlanRun<'_>) -> u64 {
    run.loop_iters()
        + run.completed * run.streams.len() as u64
        + run.streams_in(run.completed) as u64
}

impl Sink for Profiler {
    /// Runs are always taken: the tier that resolves them can be left
    /// mid-run (a degradation, an escalation), so the decision is made per
    /// run in [`Sink::plan_run`] rather than per sink here.
    const TAKES_RUNS: bool = true;

    fn event(&mut self, ev: &Event) {
        self.events(std::slice::from_ref(ev));
    }

    /// Batched delivery: one interpreter→profiler crossing per
    /// [`interp::RunConfig::batch_cap`] events instead of one per event.
    fn events(&mut self, evs: &[Event]) {
        self.feed(evs);
        self.tick(evs.len() as u64);
    }

    /// A plan engagement. A lone exact partition the producer owns takes it
    /// in closed form: the loop context supplies what the run's events
    /// would have picked up one by one — the instance the plan runs in and
    /// the iteration of its cycle 0 — and advances by the run's `LoopIter`
    /// count afterwards; the PET and the lifetime analysis see nothing in a
    /// run (no region, call or dealloc event). Signature slots alias and
    /// routed partitions each see only part of a range, so every other
    /// configuration feeds the run's expansion through the per-event path.
    // Inlined into the interpreter's run delivery: out of line, the plan
    // replayer around the call site compiled ~4% slower on `hot_loop`
    // (measured over ten alternating pairs, 0/10 against 1% and 2/8 with).
    #[inline]
    fn plan_run(&mut self, run: &PlanRun<'_>) {
        let (instance, iter) = self.front.ctx.current(run.thread);
        let in_own_loop =
            instance != NO_INSTANCE && self.front.table.loop_of(instance) == (run.func, run.region);
        match self.back.sole() {
            Some(Shadow::Perfect(b)) if in_own_loop => {
                b.process_run(run, instance, iter, &self.front.table);
                self.front.ctx.advance(run.thread, run.loop_iters());
            }
            _ => self.feed(run),
        }
        self.tick(events_in(run));
    }
}

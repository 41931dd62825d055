//! The dependence-building engine: Algorithm 2 of the dissertation, generic
//! over the access-status map.
//!
//! §2.4 observes that a memory operation whose shadow status is what it was
//! last iteration can only rebuild a dependence already in the set. Its one
//! implementation here is the per-op memo in front of the set (`DepStore`):
//! a rebuilt dependence costs one compare and one increment, and the
//! repeats are Table 2.7's skips ([`SkipStats`]).
//!
//! # §2.4 on ranges: resolving a plan run
//!
//! In a plan run ([`interp::PlanRun`]) every access is `base + stride·cycle`,
//! which makes that condition checkable for a whole loop instance
//! ([`DepBuilder::process_run`]):
//!
//! - Streams with equal `(base, stride)` touch one word per cycle and form
//!   a *group*. With the groups' address ranges pairwise disjoint and the
//!   map exact, a group's dependences depend on the shadow at its own
//!   addresses only.
//! - A *reference cycle* goes access by access through the ordinary path.
//!   Before it, each group's *reduced pre-state* is read: the last write at
//!   its address of that cycle (and the last read when the group's first op
//!   is a write — only a write consults it), reduced to what decides a
//!   dependence: source op, thread, the loop `carried_by` names against the
//!   cycle's iteration, whether the read is newer than the write, whether
//!   the cell is older than the run. The group's later ops see cells its
//!   earlier ops stored in the same cycle — the same shape every cycle — so
//!   the reduced pre-state fixes every dependence the group builds.
//! - The next cycles are a *stretch* while every group's reduced pre-state
//!   equals the reference cycle's. Strided groups are scanned address by
//!   address. A stride-0 group's pre-state is the previous cycle's
//!   post-state: compared once after the reference cycle, it repeats by
//!   construction — a cell the previous cycle stored is carried by the
//!   run's own loop every time, and `carried_by` against a cell older than
//!   the run cannot depend on the cycle, since a plan cycle holds no call
//!   and no region op: no instance nests under the run's own for a stored
//!   cell to point into, so the chain walk drops the cycle's iteration
//!   number on its first step up.
//! - Over a stretch of `n` cycles every op builds the dependence its memo
//!   entry holds from the reference cycle: per access, `n` times "same as
//!   last time"; here `pending += n`. No [`DepSet`] insertion, no memo
//!   replacement — insertion history, hence iteration order, CU edge order
//!   and report bytes, are those of per-access processing. Counters advance
//!   in closed form and the cells per-access processing would leave are
//!   stored: per address for strided groups, the last cycle's for stride-0.
//! - The first cycle that breaks a stretch is the next reference cycle.

use crate::access::{Access, InstanceTable, LoopKey, NO_INSTANCE};
use crate::dep::{Dep, DepSet, DepType, SrcLoc};
use crate::maps::{AccessMap, Cell, Slot};
use interp::{MemOpMeta, PlanRun, RunStream};
use serde::Serialize;
use std::sync::Arc;

/// Counters for §2.4, matching Table 2.7 and Fig. 2.13.
///
/// "Leading to a dependence" means the access builds at least one
/// RAW/WAR/WAW dependence; accesses that only record INIT or nothing are
/// not counted. A *skip* is a repeat of the per-op memo: the access built
/// the very dependence its op built last time, which §2.4 skips and the
/// memo counts with one increment. The `skipped_*` counters are filled in
/// by [`DepBuilder::finish`].
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct SkipStats {
    /// Dynamic read instructions that led to a RAW.
    pub read_dep_total: u64,
    /// Dynamic write instructions that led to a WAR or WAW.
    pub write_dep_total: u64,
    /// RAW occurrences that repeated their op's previous dependence.
    pub skipped_raw: u64,
    /// WAR occurrences that repeated their op's previous dependence.
    pub skipped_war: u64,
    /// WAW occurrences that repeated their op's previous dependence.
    pub skipped_waw: u64,
    /// All processed accesses.
    pub total_accesses: u64,
}

impl SkipStats {
    /// Add another partition's counters to these.
    pub(crate) fn absorb(&mut self, o: &SkipStats) {
        self.read_dep_total += o.read_dep_total;
        self.write_dep_total += o.write_dep_total;
        self.skipped_raw += o.skipped_raw;
        self.skipped_war += o.skipped_war;
        self.skipped_waw += o.skipped_waw;
        self.total_accesses += o.total_accesses;
    }

    /// Percentage of dependence-leading reads that were skipped.
    pub fn read_skip_pct(&self) -> f64 {
        pct(self.skipped_raw, self.read_dep_total)
    }

    /// Percentage of dependence-leading writes that were skipped.
    pub fn write_skip_pct(&self) -> f64 {
        pct(self.skipped_war + self.skipped_waw, self.write_dep_total)
    }

    /// Percentage of all dependence-leading accesses that were skipped.
    pub fn total_skip_pct(&self) -> f64 {
        pct(
            self.skipped_raw + self.skipped_war + self.skipped_waw,
            self.read_dep_total + self.write_dep_total,
        )
    }
}

fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

/// What became of the plan runs a builder was handed
/// ([`DepBuilder::process_run`]): why a loop was or was not fast.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Plan runs received.
    pub runs: u64,
    /// Full cycles those runs held.
    pub cycles: u64,
    /// Of those, resolved in closed form.
    pub cycles_resolved: u64,
    /// Reference cycles beyond each run's first: how often the shadow
    /// changed along a run's ranges.
    pub splits: u64,
    /// Runs fed access by access because two groups' ranges overlapped.
    pub declined_overlap: u64,
}

impl RunStats {
    /// Percentage of plan cycles resolved in closed form.
    pub fn resolved_pct(&self) -> f64 {
        pct(self.cycles_resolved, self.cycles)
    }
}

/// The builder's output side: the merged dependence set, the per-op memo in
/// front of it, and the static op table that resolves a stored cell's op id
/// back to its source line.
///
/// The memo is §2.4 made output-identical. A memory operation in a loop
/// rebuilds the same merged dependence on almost every iteration; instead
/// of packing and hashing it into the set each time, each static sink op
/// remembers the last dependence it built and a pending count. A repeat is
/// one compare and one increment; a change flushes the old entry through
/// [`DepSet::insert_n`]. Counts, `total_found` and the merge ratio are
/// exactly those of per-access insertion once the memo is drained, which
/// every reader of the set goes through ([`DepBuilder::deps`],
/// [`DepBuilder::finish`]). The repeats are §2.4's skips; they are counted
/// where an entry is flushed, off the repeat path.
#[derive(Debug)]
struct DepStore {
    set: DepSet,
    /// Indexed by sink op id: the last dependence the op built, and how
    /// often it was built since it last reached `set`.
    memo: Vec<Option<(Dep, u64)>>,
    /// Indexed by [`DepType`]: occurrences flushed beyond the first of
    /// each entry, i.e. occurrences built minus flushes.
    repeats: [u64; 4],
    meta: Arc<[MemOpMeta]>,
}

impl DepStore {
    fn new(meta: Arc<[MemOpMeta]>) -> Self {
        DepStore {
            // Merged output typically holds a few distinct dependences per
            // static memory op; pre-size so early profiling never rehashes.
            set: DepSet::with_capacity(meta.len().clamp(64, 1 << 16)),
            memo: vec![None; meta.len()],
            repeats: [0; 4],
            meta,
        }
    }

    /// Count one occurrence of `dep`, whose sink is static op `sink_op`.
    #[inline]
    fn insert(&mut self, sink_op: u32, dep: Dep) {
        match &mut self.memo[sink_op as usize] {
            Some((last, pending)) if *last == dep => *pending += 1,
            slot => {
                if let Some((last, pending)) = slot.replace((dep, 1)) {
                    self.repeats[last.ty as usize] += pending - 1;
                    self.set.insert_n(last, pending);
                }
            }
        }
    }

    /// Static op `sink_op` built the dependence its memo entry holds `n`
    /// more times.
    #[inline]
    fn repeat(&mut self, sink_op: u32, n: u64) {
        match &mut self.memo[sink_op as usize] {
            Some((_, pending)) => *pending += n,
            None => debug_assert!(false, "op {sink_op} repeats a dependence it never built"),
        }
    }

    /// Build the `ty` dependence from `source` (the stored status of an
    /// earlier access) to `sink`.
    #[inline]
    fn record(&mut self, ty: DepType, sink: &Access, source: &Cell, table: &InstanceTable) {
        let carried_by = table.carried_by(sink.instance, sink.iter, source.instance, source.iter);
        // A timestamp inversion means the events were delivered in the
        // reverse of execution order — only possible without mutual
        // exclusion, i.e. a potential data race (§2.3.4).
        let race_hint = sink.ts < source.ts;
        let dep = Dep {
            sink: SrcLoc::new(sink.line),
            ty,
            source: SrcLoc::new(self.meta[source.op as usize].line),
            var: sink.var,
            sink_thread: sink.thread,
            source_thread: source.thread,
            carried_by,
            race_hint,
        };
        self.insert(sink.op, dep);
    }

    /// Record the INIT pseudo-dependence of a first write.
    #[inline]
    fn record_init(&mut self, sink: &Access) {
        let dep = Dep {
            sink: SrcLoc::new(sink.line),
            ty: DepType::Init,
            source: SrcLoc::new(sink.line),
            var: u32::MAX,
            sink_thread: sink.thread,
            source_thread: sink.thread,
            carried_by: None,
            race_hint: false,
        };
        self.insert(sink.op, dep);
    }

    /// Flush every pending memo entry into the set.
    fn drain(&mut self) {
        for slot in &mut self.memo {
            if let Some((dep, pending)) = slot.take() {
                self.repeats[dep.ty as usize] += pending - 1;
                self.set.insert_n(dep, pending);
            }
        }
    }

    fn bytes(&self) -> usize {
        self.set.bytes() + self.memo.capacity() * std::mem::size_of::<Option<(Dep, u64)>>()
    }
}

/// Fewest full cycles worth resolving: cycle 0 and one reference cycle go
/// access by access whatever happens.
const MIN_RUN_CYCLES: u64 = 4;

/// Most memory steps per cycle resolution takes on (grouping compares
/// streams pairwise; a body this long is not the hot kind).
const MAX_RUN_STREAMS: usize = 64;

/// A stored cell reduced to what decides the dependence an access of the
/// current cycle builds against it. `in_run`: stored by this run (an
/// earlier cycle's post-state), not before it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Seen {
    op: u32,
    thread: u32,
    carried: Option<LoopKey>,
    in_run: bool,
}

/// The reduced pre-state of one group in one cycle (module docs); `read`
/// is consulted only when the group's first op is a write.
#[derive(Debug, Clone, Copy, PartialEq)]
struct GroupState {
    write: Option<Seen>,
    read: Option<Seen>,
    read_newer: bool,
}

/// The streams of a run that share `(base, stride)`.
#[derive(Debug, Clone, Copy)]
struct RunGroup {
    /// The group's first stream: its address sequence, and whether a write
    /// opens the group's cycle.
    first: RunStream,
    /// Lowest and highest address over the cycles the group executes.
    span: (u64, u64),
    /// Stream index of the group's last load / last store in a cycle.
    last_read: Option<usize>,
    last_write: Option<usize>,
    /// Reduced pre-state of the current reference cycle; `None` when a
    /// consulted cell is not older than the cycle (out-of-order delivery),
    /// which no stretch may follow.
    reference: Option<GroupState>,
}

/// What [`DepBuilder::process_run`] keeps between runs: its counters and
/// its reusable scratch (no allocation per run).
#[derive(Debug, Default)]
struct RunScratch {
    stats: RunStats,
    groups: Vec<RunGroup>,
    /// Per stream, from the cycle last fed access by access: `None` when
    /// it built nothing, else whether [`SkipStats`] counted the dependence
    /// (an INIT is built but not counted).
    built: Vec<Option<bool>>,
}

impl RunScratch {
    /// Group `run`'s streams by `(base, stride)`. `false` when the run is
    /// not one range resolution applies to: too wide, an op id twice in a
    /// cycle (the memo is per op), an address range that overflows, or two
    /// groups' ranges overlapping (counted).
    fn group(&mut self, run: &PlanRun<'_>) -> bool {
        let streams = run.streams;
        self.groups.clear();
        if streams.len() > MAX_RUN_STREAMS {
            return false;
        }
        let in_tail = run.streams_in(run.completed);
        for (k, s) in streams.iter().enumerate() {
            if streams[..k].iter().any(|p| p.op == s.op) {
                return false;
            }
            let key = |g: &RunGroup| (g.first.base, g.first.stride) == (s.base, s.stride);
            let i = match self.groups.iter().position(key) {
                Some(i) => i,
                None => {
                    // A group's first stream runs at least as often as its
                    // later ones: its cycle count bounds the range.
                    let last_cycle = run.completed - u64::from(k >= in_tail);
                    let Some(end) = i64::try_from(last_cycle)
                        .ok()
                        .and_then(|c| s.stride.checked_mul(c))
                        .and_then(|d| s.base.checked_add_signed(d))
                    else {
                        return false;
                    };
                    self.groups.push(RunGroup {
                        first: *s,
                        span: (s.base.min(end), s.base.max(end)),
                        last_read: None,
                        last_write: None,
                        reference: None,
                    });
                    self.groups.len() - 1
                }
            };
            if s.is_write {
                self.groups[i].last_write = Some(k);
            } else {
                self.groups[i].last_read = Some(k);
            }
        }
        let overlap = |a: &RunGroup, b: &RunGroup| a.span.0 <= b.span.1 && b.span.0 <= a.span.1;
        if (1..self.groups.len())
            .any(|i| self.groups[..i].iter().any(|b| overlap(&self.groups[i], b)))
        {
            self.stats.declined_overlap += 1;
            return false;
        }
        true
    }
}

/// Dependence builder over an access map `M` (signature or perfect).
#[derive(Debug)]
pub struct DepBuilder<M: AccessMap> {
    /// The shadow: per address, the last read's and the last write's status
    /// in one [`Slot`].
    shadow: M,
    /// Merged dependence set behind its per-op memo; read it through
    /// [`DepBuilder::deps`].
    out: DepStore,
    /// §2.4 counters; the skips are filled in by [`DepBuilder::finish`].
    pub stats: SkipStats,
    /// Plan-run counters and scratch.
    runs: RunScratch,
}

impl<M: AccessMap> DepBuilder<M> {
    /// Create an engine over `shadow`. `meta` is the target's static op
    /// table ([`interp::Program::mem_op_meta`]): every access processed must
    /// carry an op id inside it, with the line and variable the table gives
    /// — stored cells keep only the op id, and a dependence's source line is
    /// read back from here.
    pub fn new(shadow: M, meta: impl Into<Arc<[MemOpMeta]>>) -> Self {
        DepBuilder {
            shadow,
            out: DepStore::new(meta.into()),
            stats: SkipStats::default(),
            runs: RunScratch::default(),
        }
    }

    /// The merged dependences found so far. Drains the per-op memo first,
    /// so counts and totals are exact as of the last processed access.
    pub fn deps(&mut self) -> &DepSet {
        self.out.drain();
        &self.out.set
    }

    /// The target's static op table this builder was created with.
    pub(crate) fn meta(&self) -> &[MemOpMeta] {
        &self.out.meta
    }

    /// What became of the plan runs handed to [`DepBuilder::process_run`].
    pub fn run_stats(&self) -> RunStats {
        self.runs.stats
    }

    /// Evict a dead address range from the shadow (lifetime analysis).
    pub fn clear_range(&mut self, addr: u64, words: u64) {
        self.shadow.clear_range(addr, words);
    }

    /// Estimated bytes held by the engine's state.
    pub fn bytes(&self) -> usize {
        self.shadow.bytes() + self.out.bytes()
    }

    /// Process one annotated access: one shadow probe, through which both
    /// statuses are read and the access's own cell is stored.
    pub fn process(&mut self, a: &Access, table: &InstanceTable) {
        self.stats.total_accesses += 1;
        build(
            &mut self.out,
            &mut self.stats,
            self.shadow.entry(a.addr),
            a,
            table,
        );
    }

    /// Process one plan run: the accesses [`PlanRun::expand`] stands for,
    /// executed in loop instance `instance` with cycle 0 in iteration
    /// `iter`. The builder ends in exactly the state feeding the expansion
    /// through [`DepBuilder::process`] leaves — set, memo, counters, shadow
    /// cells — but full cycles whose shadow pre-state repeats are resolved
    /// in closed form (module docs). Needs an exact map
    /// ([`AccessMap::EXACT`]) and a run that honours the [`PlanRun`]
    /// contract.
    ///
    /// Feeds the record access by access instead for runs under four cycles
    /// or outside a loop instance, and when two groups' ranges overlap.
    pub fn process_run(
        &mut self,
        run: &PlanRun<'_>,
        instance: u32,
        iter: u32,
        table: &InstanceTable,
    ) {
        debug_assert!(M::EXACT, "range resolution needs an exact map");
        let mut s = std::mem::take(&mut self.runs);
        s.stats.runs += 1;
        s.stats.cycles += run.completed;
        s.built.clear();
        s.built.resize(run.streams.len(), None);
        let at = (run, instance, iter);
        let mut cycle = 0;
        if run.completed >= MIN_RUN_CYCLES && instance != NO_INSTANCE && s.group(run) {
            cycle = self.resolve_cycles(at, table, &mut s);
        }
        // Whatever was not resolved: the whole run, or the partial tail.
        for rest in cycle..run.started {
            self.process_cycle(at, rest, table, &mut s.built);
        }
        self.runs = s;
    }

    /// One cycle of a run, access by access through
    /// [`DepBuilder::process`]; `built` receives what each stream built,
    /// read off the counters: a write always builds (INIT, WAR or WAW) and
    /// is counted unless it is an INIT, a read builds iff it is counted.
    fn process_cycle(
        &mut self,
        (run, instance, iter): (&PlanRun<'_>, u32, u32),
        cycle: u64,
        table: &InstanceTable,
        built: &mut [Option<bool>],
    ) {
        let streams = &run.streams[..run.streams_in(cycle)];
        for (s, built) in streams.iter().zip(built) {
            let a = Access::in_context(&run.mem_event(s, cycle), instance, iter + cycle as u32);
            let before = self.stats.read_dep_total + self.stats.write_dep_total;
            self.process(&a, table);
            let counted = self.stats.read_dep_total + self.stats.write_dep_total > before;
            *built = (counted || s.is_write).then_some(counted);
        }
    }

    /// The full cycles of a run whose groups are disjoint, reference cycle
    /// by reference cycle and stretch by stretch. Returns the first cycle
    /// not processed (`run.completed`).
    fn resolve_cycles(
        &mut self,
        at: (&PlanRun<'_>, u32, u32),
        table: &InstanceTable,
        s: &mut RunScratch,
    ) -> u64 {
        let (run, instance, iter) = at;
        let state = |b: &Self, g: &RunGroup, cycle| b.group_state(at, g, cycle, table);
        self.process_cycle(at, 0, table, &mut s.built);
        let mut cycle = 1;
        while cycle < run.completed {
            // (i) The reference cycle: pre-states first, then the cycle
            // itself through the ordinary path.
            for g in &mut s.groups {
                g.reference = state(self, g, cycle);
            }
            self.process_cycle(at, cycle, table, &mut s.built);
            s.stats.splits += u64::from(cycle > 1);
            cycle += 1;
            // (ii) How far does every group's pre-state repeat? A stride-0
            // group is asked once: the reference cycle's post-state against
            // its pre-state.
            let mut n = run.completed - cycle;
            for g in &s.groups {
                let repeats = |k| g.reference.is_some() && state(self, g, cycle + k) == g.reference;
                n = match g.first.stride {
                    0 if repeats(0) => n,
                    0 => 0,
                    _ => (0..n).find(|&k| !repeats(k)).unwrap_or(n),
                };
                if n == 0 {
                    break;
                }
            }
            if n == 0 {
                continue;
            }
            // (iii) The stretch `cycle ..= last`: every op repeats the
            // dependence its memo entry holds.
            let last = cycle + n - 1;
            debug_assert!(
                s.groups
                    .iter()
                    .all(|g| g.first.stride != 0 || state(self, g, last) == g.reference),
                "a stride-0 group's reduced pre-state depends on the cycle"
            );
            self.stats.total_accesses += n * run.streams.len() as u64;
            for (stream, built) in run.streams.iter().zip(&s.built) {
                let Some(counted) = *built else { continue };
                if counted && stream.is_write {
                    self.stats.write_dep_total += n;
                } else if counted {
                    self.stats.read_dep_total += n;
                }
                self.out.repeat(stream.op, n);
            }
            let cell = |k: usize, c: u64| {
                let m = run.mem_event(&run.streams[k], c);
                Cell::from_access(&Access::in_context(&m, instance, iter + c as u32))
            };
            for g in &s.groups {
                // A stride-0 group keeps one word: the last cycle's cells.
                let from = if g.first.stride == 0 { last } else { cycle };
                for c in from..=last {
                    let slot = self.shadow.entry(g.first.addr_at(c));
                    if let Some(k) = g.last_read {
                        slot.read = cell(k, c);
                    }
                    if let Some(k) = g.last_write {
                        slot.write = cell(k, c);
                    }
                }
            }
            s.stats.cycles_resolved += n;
            cycle += n;
        }
        cycle
    }

    /// The reduced pre-state of group `g` at `cycle`, read from the shadow
    /// as it stands. `None` when a consulted cell is not older than the
    /// cycle, or was stored by this run at a strided group's address:
    /// neither happens under in-order delivery and disjoint ranges, and
    /// neither may be resolved in closed form.
    // Always inlined: a stretch scan calls this once per address of every
    // strided group, and out of line each call returns and compares its
    // 40-byte answer through memory — measured on `hot_loop`, 40 ms of
    // range resolution against 28 ms inlined. Left to the inliner it went
    // either way with the codegen-unit partition.
    #[inline(always)]
    fn group_state(
        &self,
        (run, instance, iter): (&PlanRun<'_>, u32, u32),
        g: &RunGroup,
        cycle: u64,
        table: &InstanceTable,
    ) -> Option<GroupState> {
        let addr = g.first.addr_at(cycle);
        let cycle_ts = run.first_ts + cycle * run.cycle_steps as u64;
        let reduce = |c: Option<Cell>| {
            let Some(c) = c else { return Some(None) };
            let in_run = c.ts >= run.first_ts;
            (c.ts < cycle_ts && !(in_run && g.first.stride != 0)).then(|| {
                Some(Seen {
                    op: c.op,
                    thread: c.thread,
                    carried: table.carried_by(instance, iter + cycle as u32, c.instance, c.iter),
                    in_run,
                })
            })
        };
        let slot = self.shadow.get(addr);
        let w = slot.write.status();
        let r = g.first.is_write.then(|| slot.read.status()).flatten();
        Some(GroupState {
            write: reduce(w)?,
            read: reduce(r)?,
            read_newer: matches!((r, w), (Some(r), Some(w)) if r.ts > w.ts),
        })
    }

    /// Consume the engine, returning its dependence set, its stats with
    /// the memo's repeats counted in, and [`DepBuilder::bytes`] as of the
    /// end — measured after the memo is drained, so the figure covers set
    /// entries that only then come into being.
    pub fn finish(mut self) -> (DepSet, SkipStats, usize) {
        self.out.drain();
        let bytes = self.bytes();
        let [raw, war, waw, _] = self.out.repeats;
        let stats = SkipStats {
            skipped_raw: raw,
            skipped_war: war,
            skipped_waw: waw,
            ..self.stats
        };
        (self.out.set, stats, bytes)
    }

    /// Swap the shadow-map backend while keeping every dependence found so
    /// far — the degradation ladder's tier transition. Dependences, memo
    /// and stats carry over unchanged (the memo is per op, independent of
    /// the map).
    pub fn map_shadow<N: AccessMap>(self, f: impl FnOnce(M) -> N) -> DepBuilder<N> {
        DepBuilder {
            shadow: f(self.shadow),
            out: self.out,
            stats: self.stats,
            runs: self.runs,
        }
    }
}

/// Algorithm 2: signature-based dependence detection for access `a`, whose
/// shadow slot is `slot`: build the dependence its statuses call for, then
/// store its own cell.
// Always inlined into `process`, its only caller: out of line, the statuses
// travel through memory on every access (measured 5% on the signature
// engine's `sparse_gather`), and whether the inliner takes it changed with
// the codegen-unit partition.
#[inline(always)]
fn build(
    out: &mut DepStore,
    stats: &mut SkipStats,
    slot: &mut Slot,
    a: &Access,
    table: &InstanceTable,
) {
    let cell = Cell::from_access(a);
    if a.is_write {
        match slot.write.status() {
            // First write: initialization.
            None => out.record_init(a),
            Some(w) => {
                // A write is a WAR against a read that happened after the
                // last write, and a WAW only against a *consecutive* write
                // (§2.5.2: "we build WAW dependence only for consecutive
                // write instructions to the same address"; cf. the worked
                // example of Table 2.3).
                match slot.read.status() {
                    Some(r) if r.ts > w.ts => out.record(DepType::War, a, &r, table),
                    _ => out.record(DepType::Waw, a, &w, table),
                }
                stats.write_dep_total += 1;
            }
        }
        slot.write = cell;
    } else {
        if let Some(w) = slot.write.status() {
            out.record(DepType::Raw, a, &w, table);
            stats.read_dep_total += 1;
        }
        slot.read = cell;
    }
}

impl DepBuilder<crate::maps::SignatureMap> {
    /// Halve the signature in place — one ladder rung. Returns the number
    /// of recorded-cell merges over both halves of every slot. See
    /// [`crate::maps::SignatureMap::halve`] for why this is exact at the
    /// slot level.
    pub fn halve_signature(&mut self) -> u64 {
        self.shadow.halve()
    }

    /// Slot count of the signature shadow.
    pub fn signature_slots(&self) -> usize {
        self.shadow.num_slots()
    }

    /// Recorded cells over both halves of every slot — the address-set
    /// proxy for the false-positive estimate (Eq. 2.2).
    pub fn signature_occupied(&self) -> usize {
        self.shadow.occupied()
    }
}

impl DepBuilder<crate::maps::PerfectMap> {
    /// Move the entire shadow state out of this builder, leaving it empty —
    /// how a differential test compares the final shadows of two builders.
    /// Only exact maps can do this (signatures store no addresses).
    pub fn drain_shadow(&mut self) -> Vec<(u64, Slot)> {
        std::mem::take(&mut self.shadow).entries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{InstanceTable, NO_INSTANCE};
    use crate::maps::PerfectMap;

    fn acc(addr: u64, op: u32, line: u32, is_write: bool, ts: u64) -> Access {
        Access {
            addr,
            op,
            line,
            var: 0,
            thread: 0,
            ts,
            is_write,
            instance: NO_INSTANCE,
            iter: 0,
        }
    }

    /// Op table for the hand-written traces below: op `i` sits on line
    /// `lines[i]`. Direction and variable are taken from each [`Access`];
    /// only the line of a *stored* op is ever looked up.
    fn meta_for(lines: &[u32]) -> Vec<MemOpMeta> {
        lines
            .iter()
            .map(|&line| MemOpMeta {
                line,
                var: 0,
                is_write: false,
            })
            .collect()
    }

    fn engine(lines: &[u32]) -> DepBuilder<PerfectMap> {
        DepBuilder::new(PerfectMap::new(), meta_for(lines))
    }

    #[test]
    fn raw_war_waw_detected() {
        let t = InstanceTable::new();
        let mut e = engine(&[1, 2, 3, 4]);
        e.process(&acc(8, 0, 1, true, 1), &t); // init write
        e.process(&acc(8, 1, 2, false, 2), &t); // read -> RAW
        e.process(&acc(8, 2, 3, true, 3), &t); // write after read -> WAR
        e.process(&acc(8, 3, 4, true, 4), &t); // consecutive write -> WAW
        let deps = e.deps().sorted();
        let types: Vec<DepType> = deps.iter().map(|d| d.ty).collect();
        assert!(types.contains(&DepType::Init));
        assert!(types.contains(&DepType::Raw));
        assert!(types.contains(&DepType::War));
        assert!(types.contains(&DepType::Waw));
        // RAW: sink line 2, source line 1.
        let raw = deps.iter().find(|d| d.ty == DepType::Raw).unwrap();
        assert_eq!((raw.sink.line, raw.source.line), (2, 1));
        // WAW only between consecutive writes: 4 <- 3.
        let waw = deps.iter().find(|d| d.ty == DepType::Waw).unwrap();
        assert_eq!((waw.sink.line, waw.source.line), (4, 3));
    }

    #[test]
    fn rar_not_recorded() {
        let t = InstanceTable::new();
        let mut e = engine(&[1, 2]);
        e.process(&acc(8, 0, 1, false, 1), &t);
        e.process(&acc(8, 1, 2, false, 2), &t);
        assert!(e.deps().is_empty());
    }

    #[test]
    fn lifetime_clear_prevents_false_dep() {
        let t = InstanceTable::new();
        let mut e = engine(&[1, 9]);
        e.process(&acc(8, 0, 1, true, 1), &t);
        e.clear_range(8, 1);
        // New "variable" at the reused address: read must not see the old
        // write.
        e.process(&acc(8, 1, 9, false, 2), &t);
        assert!(
            e.deps().sorted().iter().all(|d| d.ty != DepType::Raw),
            "no RAW across a dealloc"
        );
    }

    #[test]
    fn race_hint_on_timestamp_inversion() {
        let t = InstanceTable::new();
        let mut e = engine(&[1, 2]);
        // Delivered out of order: write with ts 10 arrives first, read with
        // ts 5 second.
        e.process(&acc(8, 0, 1, true, 10), &t);
        let mut read = acc(8, 1, 2, false, 5);
        read.thread = 1;
        e.process(&read, &t);
        let raw = e
            .deps()
            .sorted()
            .into_iter()
            .find(|d| d.ty == DepType::Raw)
            .unwrap();
        assert!(raw.race_hint);
        assert!(raw.is_cross_thread());
    }

    /// The worked example of Fig. 2.8 / Tables 2.3–2.5: a loop with
    /// `write x; read x; read x; write x`, three iterations. Iteration 1
    /// builds three of Table 2.3's four dependences, iteration 2 the fourth
    /// (the loop-carried WAW) and repeats the other three, iteration 3
    /// repeats all four: those repeats are what §2.4 skips.
    #[test]
    fn fig_2_8_skip_walkthrough() {
        let mut table = InstanceTable::new();
        let inst = table.enter((0, 1), NO_INSTANCE, 0);
        let mut e = engine(&[2, 3, 4, 5]);
        let x = 64u64;
        let mut ts = 0;
        for iter in 1..=3u32 {
            for (op, line, w) in [(0, 2, true), (1, 3, false), (2, 4, false), (3, 5, true)] {
                ts += 1;
                let mut a = acc(x, op, line, w, ts);
                a.instance = inst;
                a.iter = iter;
                e.process(&a, &table);
            }
        }
        let (deps, s, _) = e.finish();
        // Table 2.3: RAW(3,2), RAW(4,2), WAR(5,4), WAW(2,5 loop-carried),
        // plus the INIT of the first write.
        let deps = deps.sorted();
        let key = |d: &Dep| (d.ty, d.sink.line, d.source.line, d.carried_by);
        let mut want = vec![
            (DepType::Raw, 3, 2, None),
            (DepType::Raw, 4, 2, None),
            (DepType::War, 5, 4, None),
            (DepType::Waw, 2, 5, Some((0, 1))),
            (DepType::Init, 2, 2, None),
        ];
        want.sort();
        let mut got: Vec<_> = deps.iter().map(key).collect();
        got.sort();
        assert_eq!(got, want, "{deps:?}");
        // Reads: six RAWs, two per iteration 2–3 repeated. Writes: the WAR
        // in every iteration, the WAW from iteration 2; iteration 2 repeats
        // the WAR, iteration 3 both.
        assert_eq!((s.read_dep_total, s.write_dep_total), (6, 5), "{s:?}");
        assert_eq!((s.skipped_raw, s.skipped_war, s.skipped_waw), (4, 2, 1));
        assert_eq!(s.total_skip_pct(), 100.0 * 7.0 / 11.0);
    }

    #[test]
    fn memo_flushes_on_change_and_counts_stay_exact() {
        // One read op whose dependence alternates between two sources: the
        // memo must flush on each change, and reading the set mid-stream
        // (twice) must neither lose nor double-count a pending occurrence.
        let t = InstanceTable::new();
        let mut e = engine(&[1, 2, 3]);
        let (x, y) = (8u64, 16u64);
        e.process(&acc(x, 0, 1, true, 1), &t); // x written on line 1
        e.process(&acc(y, 1, 2, true, 2), &t); // y written on line 2
        let raw_from = |deps: &DepSet, line: u32| {
            deps.iter()
                .filter(|(d, _)| d.ty == DepType::Raw && d.source.line == line)
                .map(|(_, n)| n)
                .sum::<u64>()
        };
        let mut ts = 2;
        for addr in [x, x, y, x] {
            ts += 1;
            e.process(&acc(addr, 2, 3, false, ts), &t);
        }
        assert_eq!(raw_from(e.deps(), 1), 3);
        assert_eq!(
            raw_from(e.deps(), 2),
            1,
            "a second read drains nothing twice"
        );
        e.process(&acc(y, 2, 3, false, 7), &t);
        let (deps, _, _) = e.finish();
        assert_eq!((raw_from(&deps, 1), raw_from(&deps, 2)), (3, 2));
        assert_eq!(deps.total_found, 2 + 5, "two INITs, five RAWs");
    }

    #[test]
    fn loop_carried_flag_set() {
        let mut table = InstanceTable::new();
        let inst = table.enter((0, 1), NO_INSTANCE, 0);
        let mut e = engine(&[2, 2]);
        // iter 1: write; iter 2: read -> loop-carried RAW.
        let mut w = acc(8, 0, 2, true, 1);
        w.instance = inst;
        w.iter = 1;
        let mut r = acc(8, 1, 2, false, 2);
        r.instance = inst;
        r.iter = 2;
        e.process(&w, &table);
        e.process(&r, &table);
        let raw = e
            .deps()
            .sorted()
            .into_iter()
            .find(|d| d.ty == DepType::Raw)
            .unwrap();
        assert_eq!(raw.carried_by, Some((0, 1)));
    }
}

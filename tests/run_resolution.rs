//! Profiler-side differential gate for plan runs.
//!
//! A lone exact partition (`serial-perfect`) resolves a plan run range by range
//! (`DepBuilder::process_run`). The claim gated here: it ends in exactly the
//! state that feeding [`PlanRun::expand`] through the per-event path leaves
//! — the `DepSet` *iteration sequence* (insertion history is part of the
//! contract: a resolved stretch inserts nothing and replaces no memo entry),
//! every count, `total_found`, the skip counters, tracked bytes, both
//! cells of every shadow slot, and the PET. Held over the catalogue, generated
//! nests and hand-built runs that take each branch of the resolver; an
//! engagement floor keeps the gate from passing on fallbacks alone.
//!
//! A lone exact partition moved to its worker thread resolves the runs it
//! is sent there, against the worker's copy of the instance table. The
//! second claim: over the catalogue and the generated nests it reports
//! exactly what the partition kept on the producer reports, and resolves
//! the same cycles.

use bench::Expanding;
use interp::{Event, MemEvent, MemOpMeta, PlanRun, Program, RegionExitEvent, RunStream, Sink};
use mir::RegionKind;
use profiler::engine::RunStats;
use profiler::{profile_program_with, Dep, ProfileConfig, ProfileOutput, Profiler, Slot, Tracking};

/// Everything a profiler holds at the end of a run.
#[derive(Debug, PartialEq)]
struct Snapshot {
    /// `DepSet::iter()` as it comes: the order is the insertion history.
    deps: Vec<(Dep, u64)>,
    total_found: u64,
    skip_stats: String,
    /// Tracked bytes with the shadow in place, memo not yet drained.
    live_bytes: usize,
    /// Tracked bytes at `finish`, shadow moved out.
    final_bytes: usize,
    shadow: Vec<(u64, Slot)>,
    pet: String,
}

/// The final state of `p`, and what became of its plan runs.
fn snapshot(mut p: Profiler, steps: u64) -> (Snapshot, RunStats) {
    let live_bytes = p.current_bytes();
    let mut shadow = p.drain_shadow();
    shadow.sort_by_key(|e| e.0);
    let out = p.finish(steps);
    let snap = Snapshot {
        deps: out.deps.iter().collect(),
        total_found: out.deps.total_found,
        skip_stats: format!("{:?}", out.skip_stats),
        live_bytes,
        final_bytes: out.profiler_bytes,
        shadow,
        pet: format!("{:?}", out.pet.nodes),
    };
    (snap, out.plan_runs)
}

fn assert_same(label: &str, resolved: Snapshot, reference: Snapshot) {
    // Field by field, smallest first, so a failure names what moved.
    assert_eq!(
        resolved.total_found, reference.total_found,
        "{label}: total_found"
    );
    assert_eq!(
        resolved.skip_stats, reference.skip_stats,
        "{label}: skip stats"
    );
    assert_eq!(
        resolved.deps, reference.deps,
        "{label}: DepSet::iter() sequence"
    );
    assert_eq!(resolved.live_bytes, reference.live_bytes, "{label}: bytes");
    assert_eq!(
        resolved.final_bytes, reference.final_bytes,
        "{label}: bytes"
    );
    assert_eq!(resolved.pet, reference.pet, "{label}: PET");
    if let Some((a, b)) = resolved
        .shadow
        .iter()
        .zip(&reference.shadow)
        .find(|(a, b)| a != b)
    {
        panic!("{label}: shadow differs: resolved {a:x?}, reference {b:x?}");
    }
    assert_eq!(
        resolved.shadow.len(),
        reference.shadow.len(),
        "{label}: shadow size"
    );
}

fn profiler_for(meta: &[MemOpMeta]) -> Profiler {
    Profiler::new(meta, 0, &ProfileConfig::default())
}

/// Profile `p` both ways and demand one final state. Returns what became of
/// its runs.
fn differential_program(label: &str, p: &Program) -> RunStats {
    let mut resolved = profiler_for(p.mem_op_meta());
    let r = interp::run(p, &mut resolved).expect("runs");
    let mut reference = Expanding(profiler_for(p.mem_op_meta()));
    let r2 = interp::run(p, &mut reference).expect("runs");
    assert_eq!(r.steps, r2.steps, "{label}");
    let (resolved, stats) = snapshot(resolved, r.steps);
    let (reference, expanded) = snapshot(reference.0, r.steps);
    assert_eq!(
        expanded.runs, 0,
        "{label}: the reference resolved something"
    );
    assert_same(label, resolved, reference);
    stats
}

fn compile(src: &str) -> Program {
    Program::new(lang::compile(src, "t").expect("compiles"))
}

// ---------------------------------------------------------------------------
// Programs through the machine
// ---------------------------------------------------------------------------

/// Every catalogue program but `actors_10k` (two exact profilers over 10,002
/// stacks is a memory test), tier armed as under `--static`.
#[test]
fn catalogue_resolves_to_the_expanded_state() {
    let mut total = RunStats::default();
    for w in workloads::all() {
        if w.name == "actors_10k" {
            continue;
        }
        let p = w.program().expect("workload compiles");
        let s = differential_program(w.name, &p);
        total.runs += s.runs;
        total.cycles += s.cycles;
        total.cycles_resolved += s.cycles_resolved;
    }
    assert!(total.runs > 500, "{total:?}");
    assert!(
        total.resolved_pct() >= 70.0,
        "the catalogue resolves {:.1}% of its plan cycles: {total:?}",
        total.resolved_pct()
    );
}

/// The benchmark's `hot_loop` nest at 12 rounds instead of 200. Its layout
/// is the pitfall case: `s` sits where `b[4096]` would, so a range taken
/// over started instead of executed cycles would make `b[i]` meet `s` and
/// every run fall back.
#[test]
fn hot_loop_resolves_all_but_two_cycles_of_every_run() {
    let p = compile(
        "global int a[4096];
global int b[4096];
global int s;
fn main() {
    for (int r = 0; r < 12; r = r + 1) {
        for (int i = 1; i < 4096; i = i + 1) {
            b[i] = a[i - 1] + b[i];
            s = s + b[i];
        }
    }
}",
    );
    let s = differential_program("hot_loop", &p);
    assert_eq!((s.runs, s.cycles), (12, 12 * 4095), "{s:?}");
    assert_eq!(s.declined_overlap, 0, "{s:?}");
    assert_eq!(s.cycles_resolved, 12 * 4093, "{s:?}");
    assert!(s.resolved_pct() >= 99.0);
    assert_eq!(s.splits, 0, "{s:?}");
}

/// Small loops of the branches a real program reaches: a lagged stream
/// (overlapping groups), a range two producers wrote half each (one split),
/// a scalar only read in the loop, write-first groups over fresh, written
/// and read words, and trips too short to resolve.
#[test]
fn branch_programs_resolve_to_the_expanded_state() {
    let lagged = compile(
        "global int a[64];
fn main() {
    for (int i = 1; i < 64; i = i + 1) { a[i] = a[i - 1] + 1; }
}",
    );
    let s = differential_program("lagged", &lagged);
    assert_eq!(
        (s.runs, s.declined_overlap, s.cycles_resolved),
        (1, 1, 0),
        "{s:?}"
    );

    let halves = compile(
        "global int a[64];
global int s;
fn main() {
    for (int i = 0; i < 32; i = i + 1) { a[i] = 1; }
    for (int i = 32; i < 64; i = i + 1) { a[i] = 2; }
    for (int i = 0; i < 64; i = i + 1) { s = s + a[i]; }
}",
    );
    let s = differential_program("halves", &halves);
    assert_eq!((s.runs, s.declined_overlap), (3, 0), "{s:?}");
    assert_eq!(
        s.splits, 1,
        "the reader meets the second producer once: {s:?}"
    );
    // Producers: 32 cycles less cycle 0 and one reference. Reader: 64 less
    // cycle 0 and two references.
    assert_eq!(s.cycles_resolved, 30 + 30 + 61, "{s:?}");

    let scalar_read = compile(
        "global int b[64];
global int k;
fn main() {
    k = 7;
    for (int r = 0; r < 3; r = r + 1) {
        for (int i = 0; i < 64; i = i + 1) { b[i] = k; }
    }
}",
    );
    let s = differential_program("scalar_read", &scalar_read);
    assert_eq!(
        (s.runs, s.splits, s.cycles_resolved),
        (3, 0, 3 * 62),
        "{s:?}"
    );

    // a[0..16) fresh, a[16..32) written, a[32..48) written then read,
    // a[48..64) read only: INIT, WAW, WAR, INIT along one write-first range.
    let write_first = compile(
        "global int a[64];
global int s;
fn main() {
    for (int i = 16; i < 48; i = i + 1) { a[i] = i; }
    for (int i = 32; i < 64; i = i + 1) { s = s + a[i]; }
    for (int i = 0; i < 64; i = i + 1) { a[i] = 0; }
}",
    );
    let s = differential_program("write_first", &write_first);
    // The reader splits once (a[48] on was never written), the final
    // writer at a[16], a[32] and a[48].
    assert_eq!((s.runs, s.declined_overlap, s.splits), (3, 0, 4), "{s:?}");

    // One op, two threads, half the range each: the reader's sources
    // differ in nothing but the thread.
    let two_writers = compile(
        "global int a[64];
global int s;
fn w(int lo) {
    for (int i = 0; i < 32; i = i + 1) { a[lo + i] = i; }
}
fn main() {
    int t1 = spawn(w, 0);
    int t2 = spawn(w, 32);
    join(t1);
    join(t2);
    for (int i = 0; i < 64; i = i + 1) { s = s + a[i]; }
}",
    );
    let s = differential_program("two_writers", &two_writers);
    assert!(s.splits >= 1 && s.cycles_resolved >= 61, "{s:?}");

    for trip in 1..=5 {
        let p = compile(&format!(
            "global int a[8];
global int s;
fn main() {{
    for (int r = 0; r < 2; r = r + 1) {{
        for (int i = 0; i < {trip}; i = i + 1) {{ s = s + a[i]; }}
    }}
}}"
        ));
        let s = differential_program(&format!("trip={trip}"), &p);
        assert_eq!((s.runs, s.cycles), (2, 2 * trip), "{s:?}");
        assert_eq!(
            s.cycles_resolved,
            2 * trip.saturating_sub(2) * u64::from(trip >= 4)
        );
    }
}

/// The shape family of `tests/affine_skip.rs`, drawn from a fixed seed:
/// one to three affine statements over `a`, `b` and `s`, run for three
/// rounds so every later round meets the previous one's shadow.
fn generated_nests() -> Vec<String> {
    let mut rng = 0x5eed_u64;
    let mut next = move |n: u64| {
        rng ^= rng >> 12;
        rng ^= rng << 25;
        rng ^= rng >> 27;
        (rng.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) % n
    };
    (0..120)
        .map(|_| {
            let trip = 4 + next(12);
            let mut body = String::new();
            for _ in 0..1 + next(3) {
                let (c1, d1, c2, d2) = (next(4), next(8), next(4), next(8));
                body.push_str(&match next(3) {
                    0 => format!("a[{c1} * i + {d1}] = a[{c2} * i + {d2}] + 1;\n"),
                    1 => format!("b[{c1} * i + {d1}] = a[{c2} * i + {d2}];\n"),
                    _ => format!("s = s + a[{c2} * i + {d2}];\n"),
                });
            }
            format!(
                "global int a[64];\nglobal int b[64];\nglobal int s;\nfn main() {{\n\
                 for (int r = 0; r < 3; r = r + 1) {{\nfor (int i = 0; i < {trip}; i = i + 1) {{\n{body}}}\n}}\n}}\n"
            )
        })
        .collect()
}

#[test]
fn generated_nests_resolve_to_the_expanded_state() {
    let (mut resolved, mut declined) = (0, 0);
    for (case, src) in generated_nests().iter().enumerate() {
        let s = differential_program(&format!("nest {case}:\n{src}"), &compile(src));
        assert_eq!(s.runs, 3, "nest {case}:\n{src}");
        resolved += s.cycles_resolved;
        declined += s.declined_overlap;
    }
    assert!(
        resolved > 500,
        "only {resolved} cycles resolved over the nests"
    );
    assert!(
        declined > 30,
        "only {declined} overlapping nests: one branch untested"
    );
}

// ---------------------------------------------------------------------------
// A partition moved to its worker
// ---------------------------------------------------------------------------

/// What the report is built from: `DepSet::iter()` as it comes (counts
/// included), `total_found`, the skip counters, the tracked bytes, the PET.
fn report_inputs(out: &ProfileOutput) -> (Vec<(Dep, u64)>, u64, String, usize, String) {
    (
        out.deps.iter().collect(),
        out.deps.total_found,
        format!("{:?}", out.skip_stats),
        out.profiler_bytes,
        format!("{:?}", out.pet.nodes),
    )
}

/// Profile `p` with the tier armed twice — the partition moved to its
/// worker at construction (a spawn threshold of 0, on any host), and kept
/// on the producer — and demand one output and one fate for every run.
/// Returns what became of the runs.
fn moved_matches_inline(label: &str, p: &Program) -> RunStats {
    let profile = |spawn_threshold| {
        let cfg = ProfileConfig {
            spawn_threshold,
            ..ProfileConfig::default()
        };
        profile_program_with(p, &cfg).expect("profiles")
    };
    let inline = profile(u64::MAX);
    let moved = profile(0);
    assert!(
        matches!(inline.tracking, Tracking::Inline(_)),
        "{label}: {:?}",
        inline.tracking
    );
    assert_eq!(
        moved.tracking,
        Tracking::Moved {
            at_access: 0,
            recoveries: 0
        },
        "{label}"
    );
    assert_eq!(moved.plan_runs, inline.plan_runs, "{label}: plan runs");
    assert_eq!(report_inputs(&moved), report_inputs(&inline), "{label}");
    moved.plan_runs
}

/// Every catalogue program but `actors_10k` (see above), with the floor of
/// the expanded-state gate: a moved partition that expanded its runs would
/// resolve nothing.
#[test]
fn a_moved_partition_resolves_the_catalogue_as_the_inline_one() {
    let mut total = RunStats::default();
    for w in workloads::all() {
        if w.name == "actors_10k" {
            continue;
        }
        let s = moved_matches_inline(w.name, &w.program().expect("workload compiles"));
        total.runs += s.runs;
        total.cycles += s.cycles;
        total.cycles_resolved += s.cycles_resolved;
    }
    assert!(total.runs > 500, "{total:?}");
    assert!(
        total.resolved_pct() >= 70.0,
        "a moved partition resolves {:.1}% of the catalogue's plan cycles: {total:?}",
        total.resolved_pct()
    );
}

#[test]
fn a_moved_partition_resolves_the_generated_nests_as_the_inline_one() {
    let mut resolved = 0;
    for (case, src) in generated_nests().iter().enumerate() {
        let s = moved_matches_inline(&format!("nest {case}:\n{src}"), &compile(src));
        assert_eq!(s.runs, 3, "nest {case}:\n{src}");
        resolved += s.cycles_resolved;
    }
    assert!(
        resolved > 500,
        "only {resolved} cycles resolved over the moved nests"
    );
}

// ---------------------------------------------------------------------------
// Hand-built runs
// ---------------------------------------------------------------------------

const FUNC: u32 = 0;
/// Region of the loop the hand-built runs execute in.
const RUN_LOOP: u32 = 9;
const A: u64 = 0x1000_0000;
const S: u64 = 0x1000_4000;

/// A hand-built trace: ops, the events before the run, the run.
struct Trace {
    meta: Vec<MemOpMeta>,
    prefix: Vec<Event>,
    ts: u64,
    /// Loop regions entered and not yet left, innermost last.
    open: Vec<u32>,
}

impl Trace {
    /// Ops `0..lines.len()`, op `i` on line `lines[i]`, all of variable 0.
    fn new(ops: &[(u32, bool)]) -> Self {
        Trace {
            meta: ops
                .iter()
                .map(|&(line, is_write)| MemOpMeta {
                    line,
                    var: 0,
                    is_write,
                })
                .collect(),
            prefix: vec![Event::FuncEnter {
                func: FUNC,
                line: 1,
                thread: 0,
            }],
            ts: 0,
            open: Vec::new(),
        }
    }

    fn mem_at(&mut self, op: u32, addr: u64, ts: u64) {
        let m = self.meta[op as usize];
        self.prefix.push(Event::Mem(MemEvent {
            is_write: m.is_write,
            addr,
            op,
            line: m.line,
            var: m.var,
            thread: 0,
            ts,
        }));
    }

    fn mem(&mut self, op: u32, addr: u64) {
        self.ts += 1;
        self.mem_at(op, addr, self.ts);
    }

    fn enter(&mut self, region: u32) {
        self.ts += 1;
        self.open.push(region);
        self.prefix.push(Event::RegionEnter {
            func: FUNC,
            region,
            kind: RegionKind::Loop,
            start_line: 2,
            end_line: 3,
            thread: 0,
        });
    }

    fn iter(&mut self, region: u32) {
        self.ts += 1;
        self.prefix.push(Event::LoopIter {
            func: FUNC,
            region,
            thread: 0,
        });
    }

    fn exit(&mut self, region: u32) {
        self.ts += 1;
        assert_eq!(self.open.pop(), Some(region), "loops close innermost first");
        self.prefix.push(Event::RegionExit(RegionExitEvent {
            func: FUNC,
            region,
            kind: RegionKind::Loop,
            start_line: 2,
            end_line: 3,
            iters: 1,
            dyn_instrs: 1,
            thread: 0,
        }));
    }

    /// A producer loop (its own region) whose op `op` touches `words` words
    /// from `addr`, one per iteration.
    fn producer(&mut self, region: u32, op: u32, addr: u64, words: u64) {
        self.enter(region);
        for w in 0..words {
            self.iter(region);
            self.mem(op, addr + 8 * w);
        }
        self.exit(region);
    }

    fn stream(&self, op: u32, step: u32, base: u64, stride: i64) -> RunStream {
        let m = self.meta[op as usize];
        RunStream {
            op,
            line: m.line,
            var: m.var,
            is_write: m.is_write,
            step,
            base,
            stride,
        }
    }

    /// Enter the run's loop, open its first iteration, hand both profilers
    /// the run, close the loop, compare. `cycle_steps` is taken as one past
    /// the last stream's step (plus the `LoopIter`).
    fn check(
        mut self,
        label: &str,
        streams: &[RunStream],
        (started, completed, partial_steps): (u64, u64, u32),
    ) -> RunStats {
        self.enter(RUN_LOOP);
        self.iter(RUN_LOOP);
        let run = PlanRun {
            thread: 0,
            func: FUNC,
            region: RUN_LOOP,
            first_ts: self.ts + 1,
            cycle_steps: streams.last().map_or(0, |s| s.step) + 2,
            streams,
            started,
            completed,
            partial_steps,
        };
        // After the run: leave its loop and every loop around it.
        let after = self.prefix.len();
        while let Some(&region) = self.open.last() {
            self.exit(region);
        }
        self.prefix.push(Event::FuncExit {
            func: FUNC,
            line: 9,
            thread: 0,
        });
        let close = self.prefix.split_off(after);
        let mut resolved = profiler_for(&self.meta);
        let mut reference = Expanding(profiler_for(&self.meta));
        for ev in &self.prefix {
            resolved.event(ev);
            reference.event(ev);
        }
        resolved.plan_run(&run);
        reference.plan_run(&run);
        for ev in &close {
            resolved.event(ev);
            reference.event(ev);
        }
        let (resolved, stats) = snapshot(resolved, 0);
        assert_eq!(stats.runs, 1, "{label}");
        assert_same(label, resolved, snapshot(reference.0, 0).0);
        stats
    }
}

/// `s = s + a[i]` as ops: load s (0), load a[i] (1), store s (2).
const REDUCE_OPS: [(u32, bool); 3] = [(4, false), (4, false), (4, true)];

fn reduce_streams(t: &Trace, a_base: u64, a_stride: i64) -> Vec<RunStream> {
    vec![
        t.stream(0, 0, S, 0),
        t.stream(1, 1, a_base, a_stride),
        t.stream(2, 3, S, 0),
    ]
}

#[test]
fn short_and_partial_runs_are_fed_access_by_access() {
    // Only a partial cycle: the engagement was cut inside cycle 0.
    for partial in 0..=4 {
        let t = Trace::new(&REDUCE_OPS);
        let streams = reduce_streams(&t, A, 8);
        let s = t.check(&format!("partial={partial}"), &streams, (1, 0, partial));
        assert_eq!((s.cycles, s.cycles_resolved), (0, 0));
    }
    // 1–5 full cycles, with and without a partial tail.
    for completed in 1..=5u64 {
        for tail in [None, Some(0), Some(2), Some(4)] {
            let t = Trace::new(&REDUCE_OPS);
            let streams = reduce_streams(&t, A, 8);
            let shape = (
                completed + u64::from(tail.is_some()),
                completed,
                tail.unwrap_or(0),
            );
            let s = t.check(&format!("run {shape:?}"), &streams, shape);
            let want = if completed >= 4 { completed - 2 } else { 0 };
            assert_eq!(
                (s.cycles, s.cycles_resolved),
                (completed, want),
                "{shape:?}"
            );
        }
    }
}

#[test]
fn a_negative_stride_resolves_downwards() {
    let mut t = Trace::new(&[(4, false), (4, false), (4, true), (2, true)]);
    t.producer(1, 3, A, 32);
    let streams = reduce_streams(&t, A + 8 * 31, -8);
    let s = t.check("negative stride", &streams, (33, 32, 1));
    assert_eq!(
        (s.declined_overlap, s.splits, s.cycles_resolved),
        (0, 0, 30),
        "{s:?}"
    );
}

#[test]
fn overlapping_groups_are_declined() {
    // `a[i] = a[i - 1] + 1`: the store's range is the load's, one word up.
    let mut t = Trace::new(&[(4, false), (4, true), (2, true)]);
    t.mem(2, A);
    let streams = [t.stream(0, 0, A, 8), t.stream(1, 2, A + 8, 8)];
    let s = t.check("lagged", &streams, (17, 16, 0));
    assert_eq!((s.declined_overlap, s.cycles_resolved), (1, 0), "{s:?}");
}

#[test]
fn a_shadow_that_changes_halfway_splits_once() {
    // Two producer loops (ops 3 and 4, different lines) wrote half each.
    let mut t = Trace::new(&[(4, false), (4, false), (4, true), (2, true), (3, true)]);
    t.producer(1, 3, A, 16);
    t.producer(2, 4, A + 8 * 16, 16);
    let streams = reduce_streams(&t, A, 8);
    let s = t.check("halves", &streams, (33, 32, 1));
    assert_eq!((s.splits, s.cycles_resolved), (1, 32 - 3), "{s:?}");
}

#[test]
fn a_read_only_scalar_whose_writer_predates_the_run_resolves() {
    // `b[i] = k`: k written before the loop (outside any loop), only read
    // in it — the stride-0 group's source is older than the run throughout.
    let mut t = Trace::new(&[(4, false), (4, true), (1, true)]);
    t.mem(2, S);
    let streams = [t.stream(0, 0, S, 0), t.stream(1, 1, A, 8)];
    let s = t.check("read-only scalar", &streams, (25, 24, 1));
    assert_eq!((s.splits, s.cycles_resolved), (0, 22), "{s:?}");
}

#[test]
fn a_write_first_group_classifies_by_the_read_status() {
    // The run stores to a[0..32). Before it: a[8..24) written (op 1),
    // a[16..32) read (op 2) — so the store is INIT on [0, 8), WAW on
    // [8, 16), WAR on [16, 24) and INIT again on [24, 32).
    let mut t = Trace::new(&[(5, true), (2, true), (3, false)]);
    t.producer(1, 1, A + 8 * 8, 16);
    t.producer(2, 2, A + 8 * 16, 16);
    let streams = [t.stream(0, 0, A, 8)];
    let s = t.check("write-first", &streams, (32, 32, 0));
    assert_eq!(s.splits, 3, "{s:?}");
    assert_eq!(s.cycles_resolved, 32 - 1 - 4, "{s:?}");
}

#[test]
fn the_order_of_last_read_and_last_write_splits_a_write_first_group() {
    // a[0..16) written then read, a[16..32) read then written, by the same
    // two ops: every reduced field agrees but "the read is newer", which
    // turns the run's store from a WAR into a WAW.
    let mut t = Trace::new(&[(5, true), (2, true), (3, false)]);
    t.producer(1, 1, A, 16);
    t.producer(2, 2, A, 32);
    t.producer(1, 1, A + 8 * 16, 16);
    let streams = [t.stream(0, 0, A, 8)];
    let s = t.check("read-newer flips", &streams, (32, 32, 0));
    assert_eq!((s.splits, s.cycles_resolved), (1, 32 - 3), "{s:?}");
}

#[test]
fn a_change_of_carrying_loop_splits_a_stretch() {
    // The run sits in iteration 2 of an outer loop. One producer op wrote
    // a[0..16) in outer iteration 1 and a[16..32) in iteration 2: same
    // source op throughout, but the first half's reads are carried by the
    // outer loop and the second half's are not.
    const OUTER: u32 = 8;
    let mut t = Trace::new(&[(4, false), (4, false), (4, true), (2, true)]);
    t.enter(OUTER);
    t.iter(OUTER);
    t.producer(1, 3, A, 16);
    t.iter(OUTER);
    t.producer(1, 3, A + 8 * 16, 16);
    let streams = reduce_streams(&t, A, 8);
    let s = t.check("carried flips", &streams, (33, 32, 1));
    assert_eq!((s.splits, s.cycles_resolved), (1, 32 - 3), "{s:?}");
}

#[test]
fn a_cell_newer_than_the_run_is_never_resolved_over() {
    // Out-of-order delivery: a[i]'s last write carries a timestamp from
    // after the run. Every read of it is a race hint; no stretch may cover
    // it, and the state still matches.
    let mut t = Trace::new(&[(4, false), (4, false), (4, true), (2, true)]);
    for w in 0..16 {
        t.mem_at(3, A + 8 * w, 1 << 40);
    }
    let streams = reduce_streams(&t, A, 8);
    let s = t.check("future cells", &streams, (17, 16, 1));
    assert_eq!(s.cycles_resolved, 0, "{s:?}");
}

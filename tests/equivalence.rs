//! Engine equivalence, workers 0..N.
//!
//! The page-table shadow memory, fast-hash maps, and batched event pipeline
//! are pure throughput work: dependence output must be bit-identical to the
//! seed implementation. And the profiler is one engine with a worker dial:
//! every setting of the dial must report what `serial-perfect` reports.
//! These tests pin both down on real workloads, for the merged
//! [`profiler::DepSet`] and the rendered text format, and for multi-threaded
//! targets under racy delivery (the parallel-target gate).

use interp::{Program, RunConfig, Sink};
use profiler::{
    control_spans, profile_program, profile_program_with, render_text, DepSet, EngineKind,
    ProfileConfig, ProfileOutput,
};

fn program(src: &str) -> Program {
    Program::new(lang::compile(src, "equiv").unwrap())
}

/// Profile with the legacy `HashMap` shadow maps behind today's dependence
/// builder, through a front half the engine under test has no part in.
fn profile_hashmap(p: &Program) -> (DepSet, profiler::Pet) {
    let mut oracle = bench::HashShadowOracle::new(p);
    let r = interp::run_with_config(p, &mut oracle, RunConfig::default()).unwrap();
    let (deps, pet, _) = oracle.finish(r.steps);
    (deps, pet)
}

/// A call-heavy program that exercises stack reuse + lifetime eviction
/// across page boundaries.
fn calls_program() -> Program {
    program(
        "global int acc;
fn leaf(int x) -> int { int t = x * 2; int u = t + 1; return u; }
fn mid(int n) -> int {
    int s = 0;
    for (int i = 0; i < n; i = i + 1) { s = s + leaf(i); }
    return s;
}
fn main() {
    for (int r = 0; r < 30; r = r + 1) { acc = acc + mid(40); }
}",
    )
}

/// The three sequential equivalence workloads: a NAS kernel, the textbook
/// matmul, and the call-heavy stack-reuse program.
fn workload_programs() -> Vec<(&'static str, Program)> {
    vec![
        ("MG", workloads::by_name("MG").unwrap().program().unwrap()),
        (
            "matmul",
            workloads::by_name("matmul").unwrap().program().unwrap(),
        ),
        ("calls", calls_program()),
    ]
}

#[test]
fn page_table_matches_hash_shadow_on_workloads() {
    for (name, p) in workload_programs() {
        let new = profile_program(&p).unwrap();
        let (old_deps, old_pet) = profile_hashmap(&p);
        assert_eq!(
            new.deps.sorted(),
            old_deps.sorted(),
            "{name}: dependence sets differ"
        );
        assert_eq!(
            new.deps.total_found, old_deps.total_found,
            "{name}: pre-merge totals differ"
        );
        // Occurrence counts, not just the merged set.
        for d in new.deps.sorted() {
            assert_eq!(
                new.deps.count(&d),
                old_deps.count(&d),
                "{name}: count differs for {d:?}"
            );
        }
        // Rendered text format, including BGN/END control spans.
        let sym = |s: u32| p.symbol(s).to_string();
        let new_text = render_text(&new.deps, &sym, &control_spans(&p, &new.pet), false);
        let old_text = render_text(&old_deps, &sym, &control_spans(&p, &old_pet), false);
        assert_eq!(new_text, old_text, "{name}: rendered text differs");
        assert!(!new_text.is_empty());
    }
}

#[test]
fn seed_pipeline_reconstruction_matches_current() {
    // The full pre-overhaul pipeline (HashMap shadow + SipHash dep store +
    // allocating carried-by + a one-event-at-a-time sink), reconstructed in
    // `bench::seed_baseline`, against today's engine.
    for (name, p) in workload_programs() {
        let seed = bench::seed_baseline::profile_seed(&p).unwrap();
        let new = profile_program(&p).unwrap();
        assert_eq!(seed.sorted(), new.deps.sorted(), "{name}: deps differ");
        assert_eq!(seed.total_found, new.deps.total_found, "{name}");
    }
}

fn transport(out: &ProfileOutput) -> &profiler::ParallelStats {
    out.parallel
        .as_ref()
        .expect("parallel runs report transport stats")
}

/// `(dependence, occurrence count)` pairs in a canonical order.
fn counted(deps: &DepSet) -> Vec<(profiler::Dep, u64)> {
    let mut v: Vec<_> = deps.iter().collect();
    v.sort_unstable();
    v
}

#[test]
fn memoized_counts_match_seed_on_every_catalogue_workload() {
    // The per-op dependence memo defers `DepSet` insertion; a flush lost on
    // any path would leave the distinct set intact and only a count short,
    // which `sorted()` cannot see. So compare `(Dep, count)` pairs against
    // the seed pipeline (which inserts once per access) on every catalogue
    // program, wherever the builders run: one partition with the producer
    // (`serial-perfect`), two with the producer, and two in workers spawned
    // before access 0.
    for w in workloads::all() {
        let p = w.program().unwrap();
        let want = counted(&bench::seed_baseline::profile_seed(&p).unwrap());
        assert!(!want.is_empty(), "{}: nothing to compare", w.name);

        let scalar = profile_program(&p).unwrap();
        assert_eq!(counted(&scalar.deps), want, "{}: one partition", w.name);

        for (path, spawn_threshold, spawned) in [("inline", u64::MAX, 0), ("workers", 0, 2)] {
            let cfg = ProfileConfig {
                engine: EngineKind::parallel(2),
                spawn_threshold,
                ..Default::default()
            };
            let par = profile_program_with(&p, &cfg).unwrap();
            assert_eq!(counted(&par.deps), want, "{}: {path} path", w.name);
            assert_eq!(transport(&par).spawned_workers, spawned, "{}", w.name);
        }
    }
}

#[test]
fn batching_is_invisible_to_sinks() {
    // The identical event stream must reach a sink regardless of the batch
    // granularity (1 = unbatched path, 7 = ragged tail, 256 = default).
    let p = calls_program();
    let record = |batch_cap: usize| {
        let mut sink = interp::RecordingSink::default();
        interp::run_with_config(
            &p,
            &mut sink,
            RunConfig {
                batch_cap,
                ..Default::default()
            },
        )
        .unwrap();
        sink.events
    };
    let unbatched = record(0);
    assert_eq!(unbatched, record(7));
    assert_eq!(unbatched, record(256));
    assert!(!unbatched.is_empty());
}

#[test]
fn batch_cap_does_not_change_dependences() {
    for (name, p) in workload_programs() {
        let run = |batch_cap: usize| {
            profile_program_with(
                &p,
                &ProfileConfig {
                    run: RunConfig {
                        batch_cap,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let batched = run(256);
        let unbatched = run(0);
        assert_eq!(
            batched.deps.sorted(),
            unbatched.deps.sorted(),
            "{name}: batching changed dependences"
        );
        assert_eq!(
            batched.skip_stats.total_accesses,
            unbatched.skip_stats.total_accesses
        );
    }
}

#[test]
fn engine_kinds_agree_on_workloads() {
    // The acceptance bar of the engine-explicit API: every selectable
    // engine produces the identical dependence set on the equivalence
    // suite, with `EngineKind::Parallel` matching `SerialPerfect`
    // bit-for-bit.
    for (name, p) in [
        ("MG", workloads::by_name("MG").unwrap().program().unwrap()),
        (
            "matmul",
            workloads::by_name("matmul").unwrap().program().unwrap(),
        ),
    ] {
        let perfect = profile_program_with(
            &p,
            &ProfileConfig {
                engine: EngineKind::SerialPerfect,
                ..Default::default()
            },
        )
        .unwrap();
        for engine in [
            EngineKind::signature(1 << 20),
            EngineKind::parallel(4),
            EngineKind::parallel(8),
            EngineKind::Parallel {
                workers: 4,
                chunk: 32,
            },
        ] {
            let out = profile_program_with(
                &p,
                &ProfileConfig {
                    engine,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(
                out.deps.sorted(),
                perfect.deps.sorted(),
                "{name}: {engine} diverged from SerialPerfect"
            );
            assert_eq!(
                out.deps.total_found, perfect.deps.total_found,
                "{name}: {engine} pre-merge totals differ"
            );
        }
    }
}

/// `DepSet::iter()` as it comes (the order is the insertion history, which
/// CU edge order and report bytes follow), the skip counters and the PET:
/// what two runs of the *same path* must agree on beyond the sorted set.
fn sequence(out: &ProfileOutput) -> (Vec<(profiler::Dep, u64)>, String, String) {
    (
        out.deps.iter().collect(),
        format!("{:?}", out.skip_stats),
        format!("{:?}", out.pet.nodes),
    )
}

/// A nest of `rounds` sweeps over two 1,024-word arrays, ~13 accesses per
/// inner iteration: 150 rounds make 2 M accesses, enough to escalate
/// mid-run at any threshold and to ship thousands of chunks of any size.
fn nest(rounds: u32) -> Program {
    program(&format!(
        "global int a[1024];\nglobal int b[1024];\nglobal int s;\nfn main() {{\n\
         for (int r = 0; r < {rounds}; r = r + 1) {{\n\
         for (int i = 1; i < 1024; i = i + 1) {{\nb[i] = a[i - 1] + b[i];\ns = s + b[i];\n}}\n}}\n}}"
    ))
}

/// The dial, tested as a dial: workers × when to spawn × chunk size, over
/// the catalogue and one long nest. Every setting must report exactly what
/// `serial-perfect` reports — sorted dependences *with counts* and
/// `total_found` (the catalogue and the nest fit the exact tier) — and one
/// partition that never spawns is the serial engine's own path, so it must
/// also agree in `DepSet::iter()` order, skip counters and PET: that
/// assertion is what keeps it the same path.
///
/// The debug build (tier-1 `cargo test`) walks a thinned matrix over a
/// short nest; CI runs this suite in release, where it is the full cross.
#[test]
fn adaptive_parallel_matches_perfect_across_configs() {
    let full = !cfg!(debug_assertions);
    let workers: &[usize] = if full { &[1, 2, 3, 8] } else { &[1, 3] };
    let chunks: &[usize] = if full { &[1, 16, 256] } else { &[16] };
    let mut programs: Vec<(String, Program)> = workloads::all()
        .into_iter()
        .map(|w| (w.name.to_string(), w.program().unwrap()))
        .collect();
    programs.push(("nest".to_string(), nest(if full { 150 } else { 4 })));
    let mut escalated_mid_run = 0;
    for (name, p) in &programs {
        let perfect = profile_program(p).unwrap();
        for &workers in workers {
            for spawn_threshold in [u64::MAX, 0, 4096] {
                for &chunk in chunks {
                    let label = format!("{name}: {workers}w t{spawn_threshold} x{chunk}");
                    let cfg = ProfileConfig {
                        engine: EngineKind::Parallel { workers, chunk },
                        spawn_threshold,
                        ..Default::default()
                    };
                    let par = profile_program_with(p, &cfg).unwrap();
                    assert_eq!(counted(&par.deps), counted(&perfect.deps), "{label}");
                    assert_eq!(par.deps.total_found, perfect.deps.total_found, "{label}");
                    let t = transport(&par);
                    assert_eq!(t.worker_processed.len(), workers, "{label}");
                    assert_eq!(
                        t.worker_processed.iter().sum::<u64>(),
                        perfect.skip_stats.total_accesses,
                        "{label}"
                    );
                    match spawn_threshold {
                        u64::MAX => assert_eq!(t.spawned_workers, 0, "{label}"),
                        0 => assert_eq!(t.spawned_workers, workers, "{label}"),
                        // Needs a second core; counted below, not demanded.
                        _ => escalated_mid_run += (t.spawned_workers == workers) as usize,
                    }
                    if workers == 1 && spawn_threshold == u64::MAX {
                        assert_eq!(sequence(&par), sequence(&perfect), "{label}");
                        assert_eq!(par.plan_runs, perfect.plan_runs, "{label}");
                    }
                }
            }
        }
    }
    if std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2 {
        assert!(
            escalated_mid_run > 0,
            "no run crossed a 4,096-access threshold into workers"
        );
    }
}

/// A signature partition moved to its worker at access 0 is the same
/// `serial-signature:S` run inline — collisions included, in the same order,
/// with the same tracked bytes — at two slot counts small enough that the
/// 3,000 touched words collide.
#[test]
fn one_signature_partition_is_the_serial_signature_engine() {
    let p = program(
        "global int a[300000];\nglobal int s;\nfn main() {\n\
         for (int i = 0; i < 3000; i = i + 1) { a[i * 97] = i; }\n\
         for (int i = 1; i < 3000; i = i + 1) { s = s + a[i * 97] - a[(i - 1) * 97]; }\n}",
    );
    let exact = profile_program(&p).unwrap();
    for slots in [1 << 16, 1021] {
        let profile = |spawn_threshold| {
            profile_program_with(
                &p,
                &ProfileConfig {
                    engine: EngineKind::signature(slots),
                    spawn_threshold,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let (inline, moved) = (profile(u64::MAX), profile(0));
        assert!(
            matches!(
                moved.tracking,
                profiler::Tracking::Moved { at_access: 0, .. }
            ),
            "{slots} slots: {:?}",
            moved.tracking
        );
        assert!(matches!(inline.tracking, profiler::Tracking::Inline(_)));
        assert_eq!(sequence(&moved), sequence(&inline), "{slots} slots");
        assert_eq!(moved.deps.total_found, inline.deps.total_found);
        assert_eq!(moved.profiler_bytes, inline.profiler_bytes);
        // The signature did collide: the equalities above cover aliasing,
        // not just exact answers.
        assert_ne!(inline.deps.sorted(), exact.deps.sorted(), "{slots} slots");
    }
}

/// Racy delivery, what `discopop::Analysis::profile_threads` profiles
/// with: each target thread's events are buffered and flushed at its
/// synchronization points, as real threads would deliver them (§2.3.4).
fn racy() -> RunConfig {
    RunConfig {
        racy_delivery: true,
        ..Default::default()
    }
}

/// Every catalogue workload that spawns its own threads or actors,
/// `actors_10k` included (under a second per engine in a debug build).
fn parallel_targets() -> Vec<(&'static str, workloads::Suite, Program)> {
    let targets: Vec<_> = workloads::all()
        .into_iter()
        .filter(|w| w.parallel_target)
        .map(|w| (w.name, w.suite, w.program().unwrap()))
        .collect();
    assert_eq!(targets.len(), 11, "the parallel-target catalogue changed");
    targets
}

/// The race_hint example's program: `counter` is bumped unsynchronized,
/// `safe_counter` under a lock.
const RACE_HINT_SRC: &str = "global int counter;
global int safe_counter;
fn worker(int n) {
    for (int i = 0; i < n; i = i + 1) {
        counter = counter + 1;
        lock(1);
        safe_counter = safe_counter + 1;
        unlock(1);
    }
}
fn main() {
    int a = spawn(worker, 500);
    int b = spawn(worker, 500);
    join(a);
    join(b);
    print(counter, safe_counter);
}";

/// The parallel-target gate, with the two tests below: every workload that
/// spawns threads or actors, under racy delivery, reports the same
/// dependences — counts and `total_found` included — on one exact partition,
/// on four partitions moved into workers at access 0, and on four that stay
/// inline. The pthread-style programs show cross-thread flow; on the
/// race_hint program only the unsynchronized counter carries hints.
#[test]
fn parallel_targets_agree_across_engines_under_racy_delivery() {
    let four = |spawn_threshold| ProfileConfig {
        engine: EngineKind::parallel(4),
        spawn_threshold,
        run: racy(),
        ..Default::default()
    };
    for (name, suite, p) in parallel_targets() {
        assert!(p.footprint_words() <= EngineKind::AUTO_PERFECT_MAX_WORDS);
        let perfect = profile_program_with(
            &p,
            &ProfileConfig {
                run: racy(),
                ..Default::default()
            },
        )
        .unwrap();
        for (path, spawn_threshold, spawned) in [("workers", 0, 4), ("inline", u64::MAX, 0)] {
            let par = profile_program_with(&p, &four(spawn_threshold)).unwrap();
            assert_eq!(counted(&par.deps), counted(&perfect.deps), "{name}: {path}");
            assert_eq!(par.deps.total_found, perfect.deps.total_found, "{name}");
            assert_eq!(transport(&par).spawned_workers, spawned, "{name}: {path}");
        }
        if suite != workloads::Suite::Actors {
            assert!(
                perfect.deps.sorted().iter().any(|d| d.is_cross_thread()),
                "{name} must show cross-thread communication"
            );
        }
    }

    let p = program(RACE_HINT_SRC);
    let out = profile_program_with(
        &p,
        &ProfileConfig {
            run: racy(),
            ..Default::default()
        },
    )
    .unwrap();
    let hinted = |var: &str| {
        out.deps
            .race_hints()
            .iter()
            .filter(|d| p.symbol(d.var) == var)
            .count()
    };
    assert!(hinted("counter") >= 1, "{:?}", out.deps.race_hints());
    assert_eq!(hinted("safe_counter"), 0, "{:?}", out.deps.race_hints());
}

#[test]
fn multithreaded_target_matches_serial_replay() {
    // Lock-ordered multithreaded target: every cross-thread access to the
    // shared counter is serialized, so racy delivery into the engine must
    // agree exactly with both oracles replaying the recorded stream.
    let src = "global int counter;
fn w(int n) { for (int i = 0; i < n; i = i + 1) { lock(1); counter = counter + 1; unlock(1); } }
fn main() { int a = spawn(w, 30); int b = spawn(w, 30); join(a); join(b); }";
    let p = program(src);
    let cfg = ProfileConfig {
        engine: EngineKind::Parallel {
            workers: 4,
            chunk: 16,
        },
        spawn_threshold: 0,
        run: racy(),
        ..Default::default()
    };
    let par = profile_program_with(&p, &cfg).unwrap();

    let mut rec = interp::RecordingSink::default();
    interp::run_with_config(&p, &mut rec, racy()).unwrap();
    let mut serial = bench::HashShadowOracle::new(&p);
    for ev in &rec.events {
        serial.event(ev);
    }
    let (serial_deps, _, _) = serial.finish(0);
    // The seed pipeline keeps its own loop context, which the oracle above
    // shares with the engine: it sees a spawned thread's iterations go
    // uncounted.
    let mut seed = bench::seed_baseline::SeedProfiler::new();
    for ev in &rec.events {
        seed.event(ev);
    }

    assert_eq!(
        counted(&par.deps),
        counted(&serial_deps),
        "racy delivery diverged from the serial replay"
    );
    assert_eq!(
        counted(&par.deps),
        counted(&seed.into_depset()),
        "racy delivery diverged from the seed pipeline's replay"
    );
    assert!(par.deps.sorted().iter().any(|d| d.is_cross_thread()));
    assert!(par.deps.race_hints().is_empty());
}

#[test]
fn multithreaded_target_is_deterministic() {
    // Delivery order is a function of the seed, not of the host: two runs
    // of every parallel target through spawned workers agree in
    // `DepSet::iter()` order, counts, race hints, skip counters and PET.
    let cfg = ProfileConfig {
        engine: EngineKind::Parallel {
            workers: 4,
            chunk: 8,
        },
        spawn_threshold: 0,
        run: racy(),
        ..Default::default()
    };
    for (name, _, p) in parallel_targets() {
        let a = profile_program_with(&p, &cfg).unwrap();
        let b = profile_program_with(&p, &cfg).unwrap();
        assert_eq!(sequence(&a), sequence(&b), "{name}");
        assert_eq!(a.deps.race_hints(), b.deps.race_hints(), "{name}");
    }
}

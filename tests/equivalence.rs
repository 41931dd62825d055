//! Output-equivalence tests for the shadow-memory overhaul.
//!
//! The page-table shadow memory, fast-hash maps, and batched event pipeline
//! are pure throughput work: dependence output must be bit-identical to the
//! seed implementation. These tests pin that down on real workloads, for
//! both the merged [`profiler::DepSet`] and the rendered text format, and
//! for the multithreaded-target engine.

use interp::{Program, RunConfig, Sink};
use profiler::{
    control_spans, profile_multithreaded_target, profile_program, render_text, DepSet,
    EngineConfig, HashShadowMap, ParallelConfig, QueueKind, SerialProfiler,
};

fn program(src: &str) -> Program {
    Program::new(lang::compile(src, "equiv").unwrap())
}

/// Profile with the legacy `HashMap` shadow maps through today's pipeline.
fn profile_hashmap(p: &Program) -> (DepSet, profiler::Pet) {
    let mut prof = SerialProfiler::with_maps(
        HashShadowMap::new(),
        HashShadowMap::new(),
        p.mem_op_meta(),
        EngineConfig::default(),
        true,
    );
    let r = interp::run_with_config(p, &mut prof, RunConfig::default()).unwrap();
    let (deps, pet, _, _) = prof.finish(r.steps);
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
    // allocating carried-by + per-event delivery), reconstructed in
    // `bench::seed_baseline`, against today's engine.
    for (name, p) in workload_programs() {
        let seed = bench::seed_baseline::profile_seed(&p).unwrap();
        let new = profile_program(&p).unwrap();
        assert_eq!(seed.sorted(), new.deps.sorted(), "{name}: deps differ");
        assert_eq!(seed.total_found, new.deps.total_found, "{name}");
    }
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
    // program, through each of the builder's three entry points: scalar
    // (`serial-perfect`), streamed (the parallel engine held inline) and
    // chunked (workers spawned from access 0).
    let mut chunked_runs = 0;
    for w in workloads::all() {
        let p = w.program().unwrap();
        let want = counted(&bench::seed_baseline::profile_seed(&p).unwrap());
        assert!(!want.is_empty(), "{}: nothing to compare", w.name);

        let scalar = profile_program(&p).unwrap();
        assert_eq!(counted(&scalar.deps), want, "{}: scalar path", w.name);

        for (path, spawn_threshold) in [("streamed", u64::MAX), ("chunked", 0)] {
            let cfg = ParallelConfig {
                workers: 2,
                spawn_threshold,
                rebalance_interval: 0,
                ..Default::default()
            };
            let par = profiler::profile_parallel(&p, cfg, RunConfig::default()).unwrap();
            assert_eq!(counted(&par.deps), want, "{}: {path} path", w.name);
            if spawn_threshold == u64::MAX {
                assert_eq!(par.spawned_workers, 0, "{}: not held inline", w.name);
            } else {
                chunked_runs += (par.spawned_workers == 2) as usize;
            }
        }
    }
    // Escalation happens at the first chunk boundary, which the smallest
    // programs never reach; the rest must have gone through the workers.
    assert!(
        chunked_runs >= 40,
        "only {chunked_runs} workloads exercised the chunked path"
    );
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
            profiler::profile_program_with(
                &p,
                &profiler::ProfileConfig {
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
    use profiler::EngineKind;
    for (name, p) in [
        ("MG", workloads::by_name("MG").unwrap().program().unwrap()),
        (
            "matmul",
            workloads::by_name("matmul").unwrap().program().unwrap(),
        ),
    ] {
        let perfect = profiler::profile_program_with(
            &p,
            &profiler::ProfileConfig {
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
                queue: QueueKind::LockBased,
            },
        ] {
            let out = profiler::profile_program_with(
                &p,
                &profiler::ProfileConfig {
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

/// The adaptive parallel engine must stay bit-for-bit identical to
/// `serial-perfect` on real workloads across transport shapes: worker,
/// chunk, and queue-capacity sweeps; inline-only runs; forced spawning
/// (threshold 0 exercises the builder hand-off on any host); and a
/// rebalance-triggering run.
#[test]
fn adaptive_parallel_matches_perfect_across_configs() {
    for (name, p) in [
        ("MG", workloads::by_name("MG").unwrap().program().unwrap()),
        ("CG", workloads::by_name("CG").unwrap().program().unwrap()),
        (
            "matmul",
            workloads::by_name("matmul").unwrap().program().unwrap(),
        ),
    ] {
        let perfect = profile_program(&p).unwrap();
        let configs = [
            // (workers, chunk ceiling, queue cap, spawn threshold)
            (2, 16, 8, u64::MAX),    // inline, tiny chunks
            (4, 64, 64, u64::MAX),   // inline, mid
            (8, 256, 512, u64::MAX), // inline, default shape
            (4, 64, 8, 0),           // spawned from access 0
            (3, 32, 16, 1 << 12),    // escalates mid-run
        ];
        for (workers, chunk, queue_cap, spawn_threshold) in configs {
            let cfg = ParallelConfig {
                workers,
                chunk_size: chunk,
                queue_cap,
                spawn_threshold,
                rebalance_interval: 0,
                ..Default::default()
            };
            let par = profiler::profile_parallel(&p, cfg, RunConfig::default()).unwrap();
            assert_eq!(
                par.deps.sorted(),
                perfect.deps.sorted(),
                "{name}: parallel {workers}w x{chunk} q{queue_cap} t{spawn_threshold} diverged"
            );
            assert_eq!(
                par.deps.total_found, perfect.deps.total_found,
                "{name}: pre-merge totals differ"
            );
            for d in par.deps.sorted() {
                assert_eq!(
                    par.deps.count(&d),
                    perfect.deps.count(&d),
                    "{name}: occurrence count differs for {d:?}"
                );
            }
        }
        // Rebalance-triggering runs, all modes: inline (partition merges),
        // spawned (exact hot-address migration), and a mid-run escalation
        // after possible merges (partition compaction hand-off).
        for spawn_threshold in [u64::MAX, 0, 1 << 13] {
            let cfg = ParallelConfig {
                workers: 8,
                chunk_size: 32,
                queue_cap: 64,
                spawn_threshold,
                rebalance_interval: 5,
                ..Default::default()
            };
            let par = profiler::profile_parallel(&p, cfg, RunConfig::default()).unwrap();
            assert_eq!(
                par.deps.sorted(),
                perfect.deps.sorted(),
                "{name}: rebalancing run (threshold {spawn_threshold}) diverged"
            );
            assert_eq!(par.deps.total_found, perfect.deps.total_found);
        }
    }
}

#[test]
fn multithreaded_target_matches_serial_replay() {
    // Lock-ordered multithreaded target: every cross-thread access to the
    // shared counter is serialized, so the parallel MPSC engine must agree
    // exactly with a serial replay of the recorded stream through the
    // legacy HashMap shadow.
    let src = "global int counter;
fn w(int n) { for (int i = 0; i < n; i = i + 1) { lock(1); counter = counter + 1; unlock(1); } }
fn main() { int a = spawn(w, 30); int b = spawn(w, 30); join(a); join(b); }";
    let p = program(src);

    let par = profile_multithreaded_target(
        &p,
        ParallelConfig {
            workers: 4,
            chunk_size: 16,
            sig_slots: 1 << 18,
            queue: QueueKind::LockFree,
            queue_cap: 64,
            rebalance_interval: 0,
            ..Default::default()
        },
        RunConfig::default(),
    )
    .unwrap();

    // Serial replay baseline over the same recorded execution.
    let mut rec = interp::RecordingSink::default();
    interp::run_with_config(&p, &mut rec, RunConfig::default()).unwrap();
    let mut serial = SerialProfiler::with_maps(
        HashShadowMap::new(),
        HashShadowMap::new(),
        p.mem_op_meta(),
        EngineConfig::default(),
        true,
    );
    for ev in &rec.events {
        serial.event(ev);
    }
    let (serial_deps, _, _, _) = serial.finish(0);

    assert_eq!(
        par.deps.sorted(),
        serial_deps.sorted(),
        "multithreaded engine diverged from serial replay"
    );
    assert!(par.deps.sorted().iter().any(|d| d.is_cross_thread()));
}

#[test]
fn multithreaded_target_is_deterministic() {
    let src = "global int counter;
fn w(int n) { for (int i = 0; i < n; i = i + 1) { lock(9); counter = counter + 2; unlock(9); } }
fn main() { int a = spawn(w, 25); int b = spawn(w, 25); join(a); join(b); }";
    let p = program(src);
    let cfg = || ParallelConfig {
        workers: 4,
        chunk_size: 8,
        sig_slots: 1 << 18,
        queue: QueueKind::LockFree,
        queue_cap: 64,
        rebalance_interval: 0,
        ..Default::default()
    };
    let a = profile_multithreaded_target(&p, cfg(), RunConfig::default()).unwrap();
    let b = profile_multithreaded_target(&p, cfg(), RunConfig::default()).unwrap();
    assert_eq!(a.deps.sorted(), b.deps.sorted());
}

//! Fault-tolerance suite: kill workers mid-run, exhaust memory budgets,
//! and trip deadlines, asserting the profiler degrades gracefully instead
//! of crashing, hanging, or silently blowing its limits.
//!
//! Worker kills use the [`profiler::fault`] injection points compiled into
//! the parallel pipeline (`worker:chunk`, `worker:dealloc`, …). Armed
//! state is process-global and the default panic hook would spam the test
//! log with the injected unwinds, so every test here runs under
//! [`fault_session`], which serializes the suite, silences the hook for
//! its duration, and disarms everything on the way out.

use std::panic::AssertUnwindSafe;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use interp::{Program, RunConfig};
use profiler::{
    fault, profile_parallel, profile_program_with, Budget, EngineKind, ParallelConfig,
    ParallelStats, ProfileConfig, ProfileError, ProfileOutput, ShadowTier,
};

/// A loop-heavy sequential target: ~65k memory accesses, far past the
/// governor cadence and enough chunks that every worker sees real load.
const SEQ_SRC: &str = "\
global int a[4096];
fn main() {
    for (int r = 0; r < 8; r = r + 1) {
        for (int i = 0; i < 4096; i = i + 1) {
            a[i] = a[i] + i;
        }
    }
}
";

/// A wide-address target: 100k distinct words give the exact shadow a
/// multi-megabyte footprint, so modest budgets force the ladder down.
const BIG_SRC: &str = "\
global int a[100000];
fn main() {
    for (int i = 0; i < 100000; i = i + 1) {
        a[i] = i;
    }
    int s = 0;
    for (int i = 1; i < 100000; i = i + 1) {
        s = s + a[i - 1];
    }
}
";

fn program(src: &str) -> Program {
    Program::new(lang::compile(src, "t").expect("test source compiles"))
}

/// The pipeline at test scale, spawned up front: with a zero threshold
/// workers spawn at construction regardless of core count, so injected
/// faults reliably land on real consumer threads even on a single-core
/// container.
fn fixed_pipeline() -> ParallelConfig {
    ParallelConfig {
        workers: 4,
        chunk_size: 32,
        sig_slots: 1 << 16,
        queue_cap: 64,
        lifetime: true,
        spawn_threshold: 0,
        budget: Budget::unlimited(),
    }
}

fn transport(out: &ProfileOutput) -> &ParallelStats {
    out.parallel
        .as_ref()
        .expect("parallel runs report transport stats")
}

fn fault_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Run `body` holding the suite lock with a silent panic hook installed;
/// restore the hook and disarm all fault points afterwards, even when the
/// body panics (injected faults unwind by design; assertion failures are
/// re-raised once the hook is back so the harness still reports them).
fn fault_session<T>(body: impl FnOnce() -> T) -> T {
    let _guard: MutexGuard<'_, ()> = match fault_lock().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    fault::disarm_all();
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = std::panic::catch_unwind(AssertUnwindSafe(body));
    std::panic::set_hook(prev);
    fault::disarm_all();
    match out {
        Ok(v) => v,
        Err(payload) => {
            // The silent hook swallowed the message; reprint it so the
            // harness failure is diagnosable.
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic payload>");
            eprintln!("fault_session body panicked: {msg}");
            std::panic::resume_unwind(payload)
        }
    }
}

// ---------------------------------------------------------------------------
// Worker supervision
// ---------------------------------------------------------------------------

#[test]
fn killed_worker_is_recovered_bit_identical() {
    fault_session(|| {
        let prog = program(SEQ_SRC);
        let oracle = profile_parallel(&prog, fixed_pipeline(), RunConfig::default())
            .expect("uninjected run succeeds");
        assert_eq!(transport(&oracle).spawned_workers, 4);
        assert_eq!(transport(&oracle).worker_recoveries, 0);
        let baseline = oracle.deps.sorted();
        assert!(!baseline.is_empty());

        // Kill a worker at several points in its life: on its very first
        // chunk, early, and deep into the run.
        for after in [0u64, 7, 200] {
            fault::arm("worker:chunk", after);
            let out = profile_parallel(&prog, fixed_pipeline(), RunConfig::default())
                .unwrap_or_else(|e| panic!("injected run (after={after}) failed: {e}"));
            let t = transport(&out);
            assert_eq!(
                t.worker_recoveries, 1,
                "exactly one injected panic (after={after})"
            );
            // The dead worker's partition finished under the producer.
            assert_eq!(t.spawned_workers + t.worker_recoveries as usize, 4);
            assert_eq!(
                out.deps.sorted(),
                baseline,
                "recovered run must be bit-identical (after={after})"
            );
        }
    });
}

#[test]
fn killed_worker_on_dealloc_message_is_recovered() {
    fault_session(|| {
        let prog = program(SEQ_SRC);
        let baseline = profile_parallel(&prog, fixed_pipeline(), RunConfig::default())
            .expect("uninjected run succeeds")
            .deps
            .sorted();

        fault::arm("worker:dealloc", 0);
        let out = profile_parallel(&prog, fixed_pipeline(), RunConfig::default())
            .expect("injected run completes");
        assert_eq!(
            transport(&out).worker_recoveries,
            1,
            "dealloc faultpoint fired"
        );
        assert_eq!(out.deps.sorted(), baseline);
    });
}

// ---------------------------------------------------------------------------
// Memory budget / degradation ladder
// ---------------------------------------------------------------------------

#[test]
fn serial_ladder_never_exceeds_budget() {
    fault_session(|| {
        let prog = program(BIG_SRC);
        let budget_bytes = 256 * 1024;
        let cfg = ProfileConfig {
            engine: EngineKind::SerialPerfect,
            budget: Budget {
                max_memory_bytes: Some(budget_bytes),
                deadline: None,
            },
            ..ProfileConfig::default()
        };
        let out = profile_program_with(&prog, &cfg).expect("governed run completes");
        assert!(!out.deps.sorted().is_empty(), "still profiles dependences");

        let res = out.resource.expect("governed run reports resources");
        assert_eq!(res.budget_bytes, Some(budget_bytes as u64));
        assert!(
            res.peak_tracked_bytes <= budget_bytes as u64,
            "peak {} exceeds budget {budget_bytes}",
            res.peak_tracked_bytes
        );
        assert!(
            !res.degradation_steps.is_empty(),
            "a 256K budget under a multi-MB exact shadow must degrade"
        );
        let first = &res.degradation_steps[0];
        assert_eq!(first.from, ShadowTier::Perfect, "ladder starts exact");
        assert!(matches!(first.to, ShadowTier::Signature { .. }));
        for step in &res.degradation_steps {
            assert!(
                step.bytes_after <= budget_bytes as u64,
                "every rung lands back under the ceiling"
            );
        }
        assert!(res.fp_rate_estimate > 0.0 && res.fp_rate_estimate < 1.0);
        assert!(!res.deadline_hit);
    });
}

#[test]
fn parallel_budget_is_enforced_at_chunk_boundaries() {
    fault_session(|| {
        let prog = program(BIG_SRC);
        // 100k words of exact shadow over 4 workers is ~5MB of pages;
        // 2MB forces real degradation while staying above the run's
        // non-degradable floor (dependence stores, transport side tables),
        // so the strict peak ≤ budget invariant must hold.
        let budget_bytes = 2 << 20;
        let mut cfg = fixed_pipeline();
        cfg.budget.max_memory_bytes = Some(budget_bytes);
        let out =
            profile_parallel(&prog, cfg, RunConfig::default()).expect("governed run completes");
        assert!(!out.deps.sorted().is_empty());

        let res = out
            .resource
            .as_ref()
            .expect("budgeted parallel run reports resources");
        assert!(
            !res.degradation_steps.is_empty(),
            "workers under a 2MB collective ceiling must shed shadow pages"
        );
        assert_eq!(res.budget_bytes, Some(budget_bytes as u64));
        assert!(
            res.peak_tracked_bytes <= budget_bytes as u64,
            "peak {} exceeds budget {budget_bytes}",
            res.peak_tracked_bytes
        );
        assert!(!res.deadline_hit);
        assert_eq!(transport(&out).worker_recoveries, 0);
    });
}

#[test]
fn budget_and_worker_kill_compose() {
    fault_session(|| {
        let prog = program(SEQ_SRC);
        let mut cfg = fixed_pipeline();
        cfg.budget.max_memory_bytes = Some(1 << 20);
        fault::arm("worker:chunk", 20);
        let out =
            profile_parallel(&prog, cfg, RunConfig::default()).expect("injected governed run");
        assert_eq!(transport(&out).worker_recoveries, 1);
        assert!(!out.deps.sorted().is_empty());
        let res = out.resource.as_ref().expect("resource stats present");
        assert!(res.peak_tracked_bytes <= 1 << 20);
    });
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

#[test]
fn serial_deadline_returns_typed_partial() {
    fault_session(|| {
        let prog = program(SEQ_SRC);
        let cfg = ProfileConfig {
            engine: EngineKind::SerialPerfect,
            budget: Budget {
                max_memory_bytes: None,
                deadline: Some(Duration::ZERO),
            },
            ..ProfileConfig::default()
        };
        match profile_program_with(&prog, &cfg) {
            Err(ProfileError::DeadlineExceeded { partial }) => {
                let res = partial
                    .resource
                    .as_ref()
                    .expect("partial carries resources");
                assert!(res.deadline_hit);
                assert_eq!(res.deadline_ms, Some(0));
                assert!(
                    partial.steps > 0,
                    "the complete event prefix before the interrupt was profiled"
                );
            }
            Err(other) => panic!("expected DeadlineExceeded, got: {other}"),
            Ok(_) => panic!("a zero deadline cannot be met"),
        }
    });
}

#[test]
fn parallel_deadline_returns_typed_partial() {
    fault_session(|| {
        let prog = program(SEQ_SRC);
        let cfg = ProfileConfig {
            engine: EngineKind::Parallel {
                workers: 4,
                chunk: 32,
            },
            budget: Budget {
                max_memory_bytes: None,
                deadline: Some(Duration::ZERO),
            },
            ..ProfileConfig::default()
        };
        match profile_program_with(&prog, &cfg) {
            Err(ProfileError::DeadlineExceeded { partial }) => {
                assert!(partial.resource.as_ref().is_some_and(|r| r.deadline_hit));
                assert!(partial.parallel.is_some(), "partial keeps transport stats");
            }
            Err(other) => panic!("expected DeadlineExceeded, got: {other}"),
            Ok(_) => panic!("a zero deadline cannot be met"),
        }
    });
}

// ---------------------------------------------------------------------------
// Affine skip tier fallbacks
// ---------------------------------------------------------------------------

/// The skip tier's own faultpoint: after N synthesized cycles the tier
/// permanently disarms mid-loop. The run must finish under full
/// interpretation with dependences identical to a never-skipped run.
#[test]
fn skip_tier_fault_falls_back_with_identical_deps() {
    fault_session(|| {
        let prog = program(SEQ_SRC);
        let baseline_cfg = ProfileConfig {
            engine: EngineKind::SerialPerfect,
            run: RunConfig {
                affine_skip: false,
                ..RunConfig::default()
            },
            ..ProfileConfig::default()
        };
        let baseline = profile_program_with(&prog, &baseline_cfg).expect("skip-off run");
        assert_eq!(baseline.synth.loops_skipped, 0);

        for limit in [0u64, 1, 5] {
            let cfg = ProfileConfig {
                engine: EngineKind::SerialPerfect,
                run: RunConfig {
                    affine_skip_fault: Some(limit),
                    ..RunConfig::default()
                },
                ..ProfileConfig::default()
            };
            let out = profile_program_with(&prog, &cfg).expect("faulted run completes");
            assert_eq!(
                out.synth.fallback_fault, 1,
                "limit={limit}: the injected fault trips exactly once"
            );
            assert_eq!(
                out.deps.sorted(),
                baseline.deps.sorted(),
                "limit={limit}: mid-loop fallback must not change dependences"
            );
            assert_eq!(out.steps, baseline.steps, "limit={limit}");
        }
    });
}

/// Two runnable threads, each inside a plan loop: neither is ever alone, so
/// an exhausted slice budget must park the plan.
const CONTENDED_SRC: &str = "\
global int a[512];
global int b[512];
fn w(int n) {
    for (int i = 0; i < 512; i = i + 1) { b[i] = b[i] + n; }
}
fn main() {
    int t = spawn(w, 3);
    for (int i = 0; i < 512; i = i + 1) { a[i] = a[i] + 1; }
    join(t);
}
";

fn one_step_quantum(skip: bool) -> ProfileConfig {
    ProfileConfig {
        engine: EngineKind::SerialPerfect,
        run: RunConfig {
            quantum: 1,
            affine_skip: skip,
            ..RunConfig::default()
        },
        ..ProfileConfig::default()
    }
}

/// Slice-budget exhaustion inside a plan cycle: with a second runnable
/// thread a quantum of 1 parks the replay at every plan step, forcing the
/// interpreted-resume path on each park, yet the profile is unchanged.
#[test]
fn skip_tier_budget_exhaustion_parks_and_resumes_identically() {
    fault_session(|| {
        let prog = program(CONTENDED_SRC);
        let on = profile_program_with(&prog, &one_step_quantum(true)).expect("skip-on run");
        let off = profile_program_with(&prog, &one_step_quantum(false)).expect("skip-off run");
        assert!(
            on.synth.fallback_budget > 0,
            "a one-step quantum must park a contended plan replay mid-cycle: {:?}",
            on.synth
        );
        assert_eq!(on.deps.sorted(), off.deps.sorted());
        assert_eq!(on.steps, off.steps);
    });
}

/// The lone-thread counterpart: nobody to hand the slice to, so the replay
/// re-slices in place at every step of a one-step quantum, never parks, and
/// the whole loop instance stays one engagement.
#[test]
fn skip_tier_lone_thread_reslices_in_place_of_parking() {
    fault_session(|| {
        let prog = program(SEQ_SRC);
        let on = profile_program_with(&prog, &one_step_quantum(true)).expect("skip-on run");
        let off = profile_program_with(&prog, &one_step_quantum(false)).expect("skip-off run");
        assert_eq!(on.synth.fallback_budget, 0, "{:?}", on.synth);
        assert_eq!(on.plan_runs.runs, 8, "one run per inner-loop instance");
        assert!(on.synth.dispatches * 2 < off.synth.dispatches);
        assert_eq!(on.deps.sorted(), off.deps.sorted());
        assert_eq!(on.steps, off.steps);
    });
}

/// A deadline trip while the skip tier is engaged still yields the typed
/// partial: the governor's stop flag is honored at slice boundaries, which
/// plan replay respects by parking on budget expiry.
#[test]
fn skip_tier_respects_deadline_trips() {
    fault_session(|| {
        let prog = program(SEQ_SRC);
        let cfg = ProfileConfig {
            engine: EngineKind::SerialPerfect,
            budget: Budget {
                max_memory_bytes: None,
                deadline: Some(Duration::ZERO),
            },
            run: RunConfig {
                affine_skip: true,
                ..RunConfig::default()
            },
            ..ProfileConfig::default()
        };
        match profile_program_with(&prog, &cfg) {
            Err(ProfileError::DeadlineExceeded { partial }) => {
                assert!(partial.resource.as_ref().is_some_and(|r| r.deadline_hit));
                assert!(
                    partial.steps > 0,
                    "the event prefix before the interrupt was profiled"
                );
            }
            Err(other) => panic!("expected DeadlineExceeded, got: {other}"),
            Ok(_) => panic!("a zero deadline cannot be met"),
        }
    });
}

/// The plan-heavy sibling: in the benchmark's `hot_loop` nest one plan
/// engagement stands for 53,000 accesses and reaches the profiler as a
/// single call. A run advances the checkpoint cadence by the events it
/// stands for, so a deadline far shorter than the job still trips inside it
/// and the job returns its typed partial instead of completing.
#[test]
fn skip_tier_deadline_trips_inside_a_plan_heavy_job() {
    fault_session(|| {
        let prog = program(
            "global int a[4096];\nglobal int b[4096];\nglobal int s;\nfn main() {\n\
             for (int r = 0; r < 200; r = r + 1) {\n\
             for (int i = 1; i < 4096; i = i + 1) {\nb[i] = a[i - 1] + b[i];\ns = s + b[i];\n}\n}\n}",
        );
        let cfg = ProfileConfig {
            engine: EngineKind::SerialPerfect,
            budget: Budget {
                max_memory_bytes: None,
                deadline: Some(Duration::from_millis(2)),
            },
            ..ProfileConfig::default()
        };
        match profile_program_with(&prog, &cfg) {
            Err(ProfileError::DeadlineExceeded { partial }) => {
                assert!(partial.resource.as_ref().is_some_and(|r| r.deadline_hit));
                assert!(
                    partial.plan_runs.runs > 0 && partial.plan_runs.runs < 200,
                    "the governed engine took runs, and not all of them: {:?}",
                    partial.plan_runs
                );
                assert!(
                    !partial.deps.is_empty(),
                    "a partial profile, not an empty one"
                );
            }
            Err(other) => panic!("expected DeadlineExceeded, got: {other}"),
            Ok(out) => panic!(
                "200 rounds cannot finish in 2 ms ({} runs resolved)",
                out.plan_runs.runs
            ),
        }
    });
}

/// A generous deadline must not trip: governance stays an observer when
/// limits are not hit.
#[test]
fn generous_deadline_does_not_trip() {
    fault_session(|| {
        let prog = program(SEQ_SRC);
        let cfg = ProfileConfig {
            engine: EngineKind::SerialPerfect,
            budget: Budget {
                max_memory_bytes: None,
                deadline: Some(Duration::from_secs(3600)),
            },
            ..ProfileConfig::default()
        };
        let out = profile_program_with(&prog, &cfg).expect("hour-long deadline never trips");
        let ungoverned = profile_program_with(&prog, &ProfileConfig::default())
            .expect("ungoverned run succeeds");
        assert_eq!(out.deps.sorted(), ungoverned.deps.sorted());
        assert!(out.resource.is_some_and(|r| !r.deadline_hit));
    });
}

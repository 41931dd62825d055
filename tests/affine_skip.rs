//! Differential suite for the affine skip tier.
//!
//! The tier replays a precompiled straight-line plan for counted loops
//! whose in-loop accesses are all statically proven affine, bypassing the
//! interpreter's dispatch loop. Its correctness claim is total
//! observational transparency: the event stream — every access, its op id,
//! and its timestamp — must be bit-identical with the tier on and off,
//! under every engine, across scheduler quanta, and through mid-loop
//! fallbacks (budget expiry, fault injection). These tests are the gate for
//! that claim; the perf win (fewer dispatches) is asserted alongside so the
//! tier cannot silently stop engaging. What a sink that takes plan runs
//! receives is gated in `tests/plan_runs.rs`.

use interp::{Event, PlanRun, Program, RecordingSink, RunConfig, Sink};
use profiler::{EngineKind, ProfileConfig, ProfileOutput};
use proptest::prelude::*;

/// The workloads the tier must be transparent on: dense linear algebra
/// (matmul), the simplest reduction (dotprod), and a sparse NAS kernel
/// with indirect accesses the tier must decline (CG).
fn programs() -> Vec<(&'static str, Program)> {
    ["matmul", "dotprod", "CG"]
        .into_iter()
        .map(|name| {
            let w = workloads::by_name(name).expect("workload exists");
            (name, w.program().expect("workload compiles"))
        })
        .collect()
}

fn engines() -> Vec<EngineKind> {
    vec![
        EngineKind::SerialPerfect,
        EngineKind::SerialSignature { slots: 1 << 22 },
        EngineKind::parallel(2),
    ]
}

fn run_cfg(skip: bool) -> RunConfig {
    RunConfig {
        affine_skip: skip,
        ..Default::default()
    }
}

fn profile(p: &Program, engine: EngineKind, skip: bool) -> ProfileOutput {
    let cfg = ProfileConfig {
        engine,
        run: run_cfg(skip),
        ..Default::default()
    };
    profiler::profile_program_with(p, &cfg).expect("profiles")
}

/// Record the full event stream under a config; returns the run result too
/// so step/dispatch accounting can be compared.
fn record(p: &Program, cfg: RunConfig) -> (interp::RunResult, Vec<interp::Event>) {
    let mut sink = RecordingSink::default();
    let r = interp::run_with_config(p, &mut sink, cfg).expect("runs");
    (r, sink.events)
}

/// Assert two recorded streams are bit-identical, reporting the first
/// divergence (events carry op ids and timestamps, so this is the full
/// observational-identity check).
fn assert_streams_identical(
    label: &str,
    on: &(interp::RunResult, Vec<interp::Event>),
    off: &(interp::RunResult, Vec<interp::Event>),
) {
    let (ron, evon) = on;
    let (roff, evoff) = off;
    assert_eq!(evon.len(), evoff.len(), "{label}: stream lengths differ");
    if let Some(i) = (0..evon.len()).find(|&i| evon[i] != evoff[i]) {
        panic!(
            "{label}: first divergence at event {i}:\n  skip-on:  {:?}\n  skip-off: {:?}",
            evon[i], evoff[i]
        );
    }
    assert_eq!(ron.ret, roff.ret, "{label}: return values differ");
    assert_eq!(ron.steps, roff.steps, "{label}: step counts differ");
    assert_eq!(ron.printed, roff.printed, "{label}: printed output differs");
    assert_eq!(roff.synth.loops, 0, "{label}: skip-off must not engage");
}

// ---------------------------------------------------------------------------
// Interpreter-level stream identity
// ---------------------------------------------------------------------------

/// The headline differential: on every workload the skip-on event stream
/// (op ids, addresses, timestamps) is bit-identical to full interpretation
/// — and on the affine workloads the tier actually engages and eliminates
/// dispatches.
#[test]
fn event_streams_identical_with_and_without_skip() {
    for (name, p) in programs() {
        let on = record(&p, run_cfg(true));
        let off = record(&p, run_cfg(false));
        assert_streams_identical(name, &on, &off);
        assert!(!on.1.is_empty(), "{name}: empty stream proves nothing");
        assert_eq!(off.0.dispatches, off.0.steps, "{name}: one op per dispatch");
        if matches!(name, "matmul" | "dotprod") {
            assert!(
                on.0.synth.loops > 0 && on.0.synth.accesses > 0,
                "{name}: the tier must engage on affine workloads ({:?})",
                on.0.synth
            );
            assert!(
                on.0.dispatches < off.0.dispatches,
                "{name}: plan replay must reduce dispatches ({} vs {})",
                on.0.dispatches,
                off.0.dispatches
            );
        }
    }
}

/// The benchmark's `hot_loop` nest: 200 rounds, 10.6 M accesses in
/// release, where CI runs this suite; 6 rounds in the debug build.
fn hot_loop() -> Program {
    let rounds = if cfg!(debug_assertions) { 6 } else { 200 };
    let src = format!(
        "global int a[4096];\nglobal int b[4096];\nglobal int s;\nfn main() {{\n\
         for (int r = 0; r < {rounds}; r = r + 1) {{\n\
         for (int i = 1; i < 4096; i = i + 1) {{\nb[i] = a[i - 1] + b[i];\ns = s + b[i];\n}}\n}}\n}}"
    );
    Program::new(lang::compile(&src, "hot_loop").expect("compiles"))
}

/// On `hot_loop` the skip tier leaves every `(Dep, count)` pair as it was,
/// engages, and dispatches at most 1% of what full interpretation does
/// (3,009 against 18.8 M at 200 rounds).
#[test]
fn hot_loop_keeps_its_dependences_with_a_hundredth_of_the_dispatches() {
    let p = hot_loop();
    let on = profile(&p, EngineKind::SerialPerfect, true);
    let off = profile(&p, EngineKind::SerialPerfect, false);
    assert_eq!(
        on.deps.in_fold_order(),
        off.deps.in_fold_order(),
        "(Dep, count) pairs differ"
    );
    assert!(on.synth.loops_skipped > 0, "{:?}", on.synth);
    assert_eq!(off.synth.loops_skipped, 0);
    assert_eq!(
        off.synth.dispatches, off.steps,
        "skip off: one op per dispatch"
    );
    assert!(
        on.synth.dispatches * 100 <= off.synth.dispatches,
        "{} dispatches skip-on vs {} skip-off",
        on.synth.dispatches,
        off.synth.dispatches
    );
}

/// Two runnable threads, each inside a plan loop: neither is ever alone, so
/// an exhausted slice budget must park the plan.
const CONTENDED_SRC: &str = "global int a[512];
global int b[512];
fn w(int n) {
    for (int i = 0; i < 512; i = i + 1) { b[i] = b[i] + n; }
}
fn main() {
    int t = spawn(w, 3);
    for (int i = 0; i < 512; i = i + 1) { a[i] = a[i] + 1; }
    join(t);
}";

/// Takes plan runs, keeps what they stand for, and counts the ones that
/// closed at a cycle boundary.
#[derive(Default)]
struct RunRecorder {
    events: Vec<Event>,
    closed_at_boundary: u64,
}

impl Sink for RunRecorder {
    const TAKES_RUNS: bool = true;

    fn event(&mut self, ev: &Event) {
        self.events.push(ev.clone());
    }

    fn plan_run(&mut self, run: &PlanRun<'_>) {
        self.closed_at_boundary += u64::from(run.started == run.completed);
        run.expand(|ev| self.events.push(ev.clone()));
    }
}

/// Slice-budget parks land mid-cycle at arbitrary steps and at cycle
/// boundaries; with a second runnable thread every quantum must produce the
/// same stream and the same dependences skip-on and skip-off, and small
/// quanta must actually exercise both parks.
#[test]
fn quantum_sweep_preserves_stream_and_exercises_budget_fallback() {
    let p = Program::new(lang::compile(CONTENDED_SRC, "contended").expect("compiles"));
    let (mut mid_cycle_parks, mut boundary_parks) = (0, 0);
    for quantum in [1u32, 2, 3, 5, 64] {
        let cfg = |skip| RunConfig {
            quantum,
            ..run_cfg(skip)
        };
        let label = format!("contended/quantum={quantum}");
        let on = record(&p, cfg(true));
        let off = record(&p, cfg(false));
        assert_streams_identical(&label, &on, &off);
        mid_cycle_parks += on.0.synth.fallback_budget;

        let mut runs = RunRecorder::default();
        interp::run_with_config(&p, &mut runs, cfg(true)).expect("runs");
        assert!(
            runs.events == off.1,
            "{label}: runs expand to another stream"
        );
        boundary_parks += runs.closed_at_boundary;

        let profile = |skip| {
            let cfg = ProfileConfig {
                run: cfg(skip),
                ..Default::default()
            };
            profiler::profile_program_with(&p, &cfg).expect("profiles")
        };
        let (deps_on, deps_off) = (profile(true).deps, profile(false).deps);
        assert_eq!(deps_on.sorted(), deps_off.sorted(), "{label}");
        assert_eq!(deps_on.total_found, deps_off.total_found, "{label}");
    }
    assert!(
        mid_cycle_parks > 0,
        "small quanta must park a contended plan replay mid-cycle"
    );
    assert!(
        boundary_parks > 0,
        "some slice of a contended plan replay must end at a cycle boundary"
    );
}

/// The lone-thread counterpart: with nobody to hand the slice to, the plan
/// re-slices in place — no park even at a one-step quantum, the stream still
/// bit-identical to skip-off. At the parent commit a one-step quantum parked
/// every engagement on its first step, so skip-on dispatched as much as
/// skip-off.
#[test]
fn lone_thread_reslices_in_place_at_every_quantum() {
    let (name, p) = &programs()[1]; // dotprod: small but fully engaging
    for quantum in [1u32, 2, 3, 5, 64, 1 << 20] {
        let cfg = |skip| RunConfig {
            quantum,
            ..run_cfg(skip)
        };
        let on = record(p, cfg(true));
        let off = record(p, cfg(false));
        let label = format!("{name}/quantum={quantum}");
        assert_streams_identical(&label, &on, &off);
        assert_eq!(
            on.0.synth.fallback_budget, 0,
            "{label}: a lone thread parked"
        );
        assert!(
            on.0.dispatches < off.0.dispatches,
            "{label}: {} dispatches skip-on, {} skip-off",
            on.0.dispatches,
            off.0.dispatches
        );
    }
}

/// Fault injection: the tier shuts itself down after N synthesized cycles
/// — a genuinely mid-loop drop back to interpretation — without
/// perturbing the stream.
#[test]
fn fault_injection_drops_to_interpretation_without_stream_change() {
    for (name, p) in programs() {
        for limit in [0u64, 1, 3] {
            let cfg = RunConfig {
                affine_skip_fault: Some(limit),
                ..run_cfg(true)
            };
            let on = record(&p, cfg);
            let off = record(&p, run_cfg(false));
            assert_streams_identical(&format!("{name}/fault@{limit}"), &on, &off);
            if matches!(name, "matmul" | "dotprod") {
                assert_eq!(
                    on.0.synth.fallback_fault, 1,
                    "{name}/fault@{limit}: the fault must trip exactly once"
                );
                // The fault trips at the next cycle boundary, so one cycle
                // beyond the limit can complete before the tier disarms.
                assert!(
                    on.0.synth.cycles <= limit + 1,
                    "{name}/fault@{limit}: ran {} cycles past the fault point",
                    on.0.synth.cycles
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Profiler-level dependence identity across engines
// ---------------------------------------------------------------------------

/// Dependence output — merged set, occurrence counts, pre-merge totals,
/// PET — is identical skip-on vs skip-off under every engine.
#[test]
fn dependence_output_identical_across_engines() {
    for (name, p) in programs() {
        for engine in engines() {
            let label = format!("{name}/{engine:?}");
            let on = profile(&p, engine, true);
            let off = profile(&p, engine, false);
            assert_eq!(
                on.deps.sorted(),
                off.deps.sorted(),
                "{label}: dependence sets differ"
            );
            assert_eq!(
                on.deps.total_found, off.deps.total_found,
                "{label}: pre-merge totals differ"
            );
            for d in on.deps.sorted() {
                assert_eq!(
                    on.deps.count(&d),
                    off.deps.count(&d),
                    "{label}: count differs for {d:?}"
                );
            }
            assert_eq!(on.steps, off.steps, "{label}: step counts differ");
            assert_eq!(
                format!("{:?}", on.pet.nodes),
                format!("{:?}", off.pet.nodes),
                "{label}: PET differs"
            );
            assert_eq!(off.synth.loops_skipped, 0, "{label}: skip-off engaged");
        }
    }
}

// ---------------------------------------------------------------------------
// Generated affine nests
// ---------------------------------------------------------------------------

/// One generated affine statement; indices stay inside `a[64]`/`b[64]` by
/// construction (stride ≤ 3, offset ≤ 7, trip ≤ 16 → max index 52). Same
/// shape family as the static-vs-dynamic suite, here driving the replay
/// tier instead of the claim prover.
#[derive(Debug, Clone, Copy)]
enum Stmt {
    /// `a[c1*i + d1] = a[c2*i + d2] + 1;`
    RewriteA { c1: i64, d1: i64, c2: i64, d2: i64 },
    /// `b[c1*i + d1] = a[c2*i + d2];`
    Copy { c1: i64, d1: i64, c2: i64, d2: i64 },
    /// `s = s + a[c2*i + d2];`
    Reduce { c2: i64, d2: i64 },
}

#[derive(Debug, Clone)]
struct Nest {
    trip: i64,
    stmts: Vec<Stmt>,
}

impl Nest {
    fn source(&self) -> String {
        let idx = |c: i64, d: i64| format!("{c} * i + {d}");
        let mut body = String::new();
        for s in &self.stmts {
            let line = match *s {
                Stmt::RewriteA { c1, d1, c2, d2 } => {
                    format!("a[{}] = a[{}] + 1;", idx(c1, d1), idx(c2, d2))
                }
                Stmt::Copy { c1, d1, c2, d2 } => {
                    format!("b[{}] = a[{}];", idx(c1, d1), idx(c2, d2))
                }
                Stmt::Reduce { c2, d2 } => format!("s = s + a[{}];", idx(c2, d2)),
            };
            body.push_str("        ");
            body.push_str(&line);
            body.push('\n');
        }
        format!(
            "global int a[64];\nglobal int b[64];\nglobal int s;\n\
             fn main() {{\n    for (int i = 0; i < {}; i = i + 1) {{\n{body}    }}\n}}\n",
            self.trip
        )
    }
}

fn nests() -> impl Strategy<Value = Nest> {
    (
        4i64..16,
        prop::collection::vec((0u32..3, 0i64..4, 0i64..8, 0i64..4, 0i64..8), 1..4),
    )
        .prop_map(|(trip, raw)| Nest {
            trip,
            stmts: raw
                .into_iter()
                .map(|(kind, c1, d1, c2, d2)| match kind {
                    0 => Stmt::RewriteA { c1, d1, c2, d2 },
                    1 => Stmt::Copy { c1, d1, c2, d2 },
                    _ => Stmt::Reduce { c2, d2 },
                })
                .collect(),
        })
}

proptest! {
    /// Every generated affine nest compiles to a plan, engages the tier,
    /// and replays a bit-identical stream — and the serial-perfect
    /// dependence set is unchanged.
    #[test]
    fn generated_nests_replay_bit_identical(nest in nests()) {
        let src = nest.source();
        let p = Program::new(lang::compile(&src, "gen").expect("generated nest compiles"));
        let on = record(&p, run_cfg(true));
        let off = record(&p, run_cfg(false));
        prop_assert_eq!(&on.1, &off.1, "stream differs for\n{}", src);
        prop_assert_eq!(on.0.steps, off.0.steps);
        prop_assert!(
            on.0.synth.loops > 0 && on.0.synth.accesses > 0,
            "affine nest must engage the tier ({:?}) for\n{}",
            on.0.synth, src
        );
        prop_assert!(on.0.dispatches < off.0.dispatches);
        // What a run-taking sink receives expands to the same stream.
        let mut runs = RunRecorder::default();
        interp::run_with_config(&p, &mut runs, run_cfg(true)).expect("runs");
        prop_assert!(runs.events == off.1, "runs expand differently for\n{}", src);
        let on = profile(&p, EngineKind::SerialPerfect, true);
        let off = profile(&p, EngineKind::SerialPerfect, false);
        prop_assert_eq!(on.deps.sorted(), off.deps.sorted(), "deps differ for\n{}", src);
    }
}

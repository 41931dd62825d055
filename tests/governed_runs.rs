//! A budget no longer costs the plan runs.
//!
//! The governor is part of the one engine, not a sink of its own: a lone
//! exact partition resolves plan runs in closed form whether or not a
//! budget is set, until a degradation leaves the exact tier — from then on
//! the remaining runs expand into the per-access path. Gated here: a budget
//! that never trips changes nothing the profile reports, and a run that
//! degrades mid-way equals the same governed run with the skip tier off.

use interp::{Program, RunConfig};
use profiler::{
    profile_program_with, Budget, EngineKind, InlineReason, ProfileConfig, ProfileOutput,
    ShadowTier, Tracking,
};
use std::time::Duration;

fn program(src: &str) -> Program {
    Program::new(lang::compile(src, "t").expect("compiles"))
}

/// The benchmark's `hot_loop` nest: 200 rounds (10.6 M accesses) in
/// release, where CI runs this suite; 6 in the debug build.
fn hot_loop() -> Program {
    let rounds = if cfg!(debug_assertions) { 6 } else { 200 };
    program(&format!(
        "global int a[4096];\nglobal int b[4096];\nglobal int s;\nfn main() {{\n\
         for (int r = 0; r < {rounds}; r = r + 1) {{\n\
         for (int i = 1; i < 4096; i = i + 1) {{\nb[i] = a[i - 1] + b[i];\ns = s + b[i];\n}}\n}}\n}}"
    ))
}

fn profile(p: &Program, budget: Budget, affine_skip: bool) -> ProfileOutput {
    let cfg = ProfileConfig {
        engine: EngineKind::SerialPerfect,
        budget,
        run: RunConfig {
            affine_skip,
            ..Default::default()
        },
        ..Default::default()
    };
    profile_program_with(p, &cfg).expect("profiles")
}

/// Everything two runs down the same path must agree on: `DepSet::iter()`
/// as it comes (counts included), `total_found`, the skip counters, steps.
fn sequence(out: &ProfileOutput) -> (Vec<(profiler::Dep, u64)>, u64, String, u64) {
    (
        out.deps.iter().collect(),
        out.deps.total_found,
        format!("{:?}", out.skip_stats),
        out.steps,
    )
}

#[test]
fn an_untripped_budget_keeps_every_plan_run() {
    let p = hot_loop();
    let free = profile(&p, Budget::unlimited(), true);
    assert!(free.plan_runs.runs > 0, "the nest engages the skip tier");
    assert!(
        free.plan_runs.resolved_pct() >= 99.0,
        "{:?}",
        free.plan_runs
    );
    for budget in [
        Budget {
            deadline: Some(Duration::from_secs(3600)),
            max_memory_bytes: None,
        },
        Budget {
            deadline: None,
            max_memory_bytes: Some(1 << 30),
        },
    ] {
        let governed = profile(&p, budget, true);
        // `runs`, `cycles`, `cycles_resolved`, `splits`, `declined_overlap`.
        assert_eq!(governed.plan_runs, free.plan_runs, "{budget:?}");
        assert_eq!(sequence(&governed), sequence(&free), "{budget:?}");
        assert_eq!(governed.profiler_bytes, free.profiler_bytes, "{budget:?}");
        let res = governed.resource.expect("governed runs report resources");
        assert!(res.degradation_steps.is_empty() && !res.deadline_hit);
        assert!(res.peak_tracked_bytes > 0, "the governor did checkpoint");
    }
}

/// A fill loop the skip tier declines (a checked `%` in the body) touches
/// 8,192 words before the plan-eligible nest starts: under a 128 KiB
/// ceiling the exact shadow is abandoned during the fill — at the same
/// checkpoint with the tier on or off, since no run has been delivered yet —
/// and every run of the nest then meets a signature.
const FILL_THEN_NEST: &str = "global int big[8192];
global int a[512];
global int b[512];
global int s;
fn main() {
    for (int i = 0; i < 8192; i = i + 1) { big[(i * 7) % 8192] = i; }
    for (int r = 0; r < 20; r = r + 1) {
        for (int i = 1; i < 512; i = i + 1) {
            b[i] = a[i - 1] + b[i] + big[i];
            s = s + b[i];
        }
    }
}";

#[test]
fn after_a_degradation_the_remaining_runs_expand() {
    let p = program(FILL_THEN_NEST);
    let free = profile(&p, Budget::unlimited(), true);
    assert_eq!(free.plan_runs.runs, 20, "only the nest is plan-eligible");

    let tight = Budget {
        deadline: None,
        max_memory_bytes: Some(128 << 10),
    };
    let on = profile(&p, tight, true);
    let off = profile(&p, tight, false);
    assert!(on.synth.loops_skipped > 0 && off.synth.loops_skipped == 0);
    assert_eq!(on.plan_runs.runs, 0, "no run met the exact tier");
    assert_eq!(sequence(&on), sequence(&off));
    let (on_res, off_res) = (on.resource.unwrap(), off.resource.unwrap());
    assert_eq!(on_res.degradation_steps, off_res.degradation_steps);
    assert_eq!(on_res.fp_rate_estimate, off_res.fp_rate_estimate);
    let steps = &on_res.degradation_steps;
    assert_eq!(steps.len(), 1, "one rung, taken during the fill: {steps:?}");
    assert_eq!(steps[0].from, ShadowTier::Perfect);
    assert!(on_res.peak_tracked_bytes <= 128 << 10);
}

/// Every round of this nest touches 512 fresh words, so the ceiling — what
/// ten rounds need — is crossed *between* runs: the first sweeps resolve in
/// closed form, the shadow degrades at the checkpoint a run's events bring
/// on, and the rest expand. Where exactly the rung is taken depends on the
/// cadence (a run advances it in one step), so this is held against the
/// totals, not against the skip-off sequence.
#[test]
fn runs_resolve_until_the_exact_tier_is_left() {
    let growing = |rounds: u32| {
        program(&format!(
            "global int grow[32768];\nfn main() {{\n\
             for (int r = 0; r < {rounds}; r = r + 1) {{\n\
             for (int i = 1; i < 512; i = i + 1) {{\n\
             grow[r * 512 + i] = grow[r * 512 + i - 1] + r;\n}}\n}}\n}}"
        ))
    };
    let p = growing(40);
    let free = profile(&p, Budget::unlimited(), true);
    assert_eq!(free.plan_runs.runs, 40);
    let ceiling = profile(&growing(10), Budget::unlimited(), true).profiler_bytes;
    let on = profile(
        &p,
        Budget {
            deadline: None,
            max_memory_bytes: Some(ceiling),
        },
        true,
    );
    let res = on.resource.as_ref().unwrap();
    assert!(!res.degradation_steps.is_empty(), "{ceiling} never tripped");
    assert_eq!(res.degradation_steps[0].from, ShadowTier::Perfect);
    assert!(
        on.plan_runs.runs > 0 && on.plan_runs.runs < 40,
        "some runs resolved, the rest expanded: {:?}",
        on.plan_runs
    );
    assert_eq!(on.steps, free.steps);
    assert_eq!(on.skip_stats.total_accesses, free.skip_stats.total_accesses);
    assert_eq!(
        on.synth, free.synth,
        "the machine never sees the tier change"
    );
}

/// A memory ceiling keeps a serial run's partition on the producer however
/// long the run, so the ladder's rungs fall at the same access every time; a
/// deadline alone does not, and the moved run's peak still covers what its
/// worker tracked. 2.1 M accesses, all delivered one by one (the
/// skip tier off), past the 2^20 at which an unbudgeted run moves on a host
/// with two cores.
#[test]
fn a_run_under_a_memory_ceiling_never_spawns() {
    let p = program(
        "global int a[4096];\nfn main() {\n\
         for (int r = 0; r < 64; r = r + 1) {\n\
         for (int i = 0; i < 4096; i = i + 1) {\na[i] = a[i] + i;\n}\n}\n}",
    );
    let capped = profile(
        &p,
        Budget {
            deadline: None,
            max_memory_bytes: Some(1 << 30),
        },
        false,
    );
    assert!(capped.skip_stats.total_accesses > 1 << 20);
    assert_eq!(
        capped.tracking,
        Tracking::Inline(InlineReason::MemoryCeiling)
    );
    let timed = profile(
        &p,
        Budget {
            deadline: Some(Duration::from_secs(3600)),
            max_memory_bytes: None,
        },
        false,
    );
    let free = profile(&p, Budget::unlimited(), false);
    assert_eq!(timed.tracking, free.tracking, "a deadline does not pin it");
    assert!(matches!(
        free.tracking,
        Tracking::Moved { .. } | Tracking::Inline(InlineReason::OneCore)
    ));
    for out in [&capped, &timed] {
        assert_eq!(sequence(out), sequence(&free));
        assert_eq!(out.profiler_bytes, free.profiler_bytes);
    }
    // A moved run's peak still counts its worker's partition: sampled once,
    // at its final size, when the worker is joined.
    if let Tracking::Moved { .. } = timed.tracking {
        let res = timed
            .resource
            .as_ref()
            .expect("governed runs report resources");
        assert!(
            res.peak_tracked_bytes >= timed.profiler_bytes as u64,
            "peak {} below the {} tracked at the end",
            res.peak_tracked_bytes,
            timed.profiler_bytes
        );
    }
}

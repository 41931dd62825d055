//! Machine-side differential gate for plan runs.
//!
//! A sink that sets [`Sink::TAKES_RUNS`] receives each engagement of a loop
//! plan as one [`PlanRun`] instead of the engagement's `LoopIter` and `Mem`
//! events. The claim gated here: a run *is* its expansion — a sink that
//! feeds [`PlanRun::expand`] where the run arrives observes, event for
//! event, the stream [`RecordingSink`] records, and the run itself (steps,
//! return value, output) is untouched by which kind of sink listens. Held
//! over the catalogue across quanta, under the injected
//! tier fault and under a stop flag raised mid-run. The generated nests of
//! `tests/affine_skip.rs` run the same check there; a forged non-affine plan
//! and a mid-run trap are unit tests beside `exec_plan`.

use interp::{Event, PlanRun, Program, RecordingSink, RunConfig, RunResult, Sink};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Takes plan runs and checks what they stand for, in place, against the
/// stream a [`RecordingSink`] recorded.
struct Expanded<'a> {
    expected: &'a [Event],
    at: usize,
    /// Index of the first event that differed from `expected`.
    diverged: Option<usize>,
    runs: u64,
}

impl<'a> Expanded<'a> {
    fn against(expected: &'a [Event]) -> Self {
        Expanded {
            expected,
            at: 0,
            diverged: None,
            runs: 0,
        }
    }

    fn check(&mut self, ev: &Event) {
        if self.diverged.is_none() && self.expected.get(self.at) != Some(ev) {
            self.diverged = Some(self.at);
        }
        self.at += 1;
    }
}

impl Sink for Expanded<'_> {
    const TAKES_RUNS: bool = true;

    fn event(&mut self, ev: &Event) {
        self.check(ev);
    }

    fn plan_run(&mut self, run: &PlanRun<'_>) {
        self.runs += 1;
        run.expand(|ev| self.check(ev));
    }
}

/// Run `p` under `cfg` twice — events recorded, runs expanded — and demand
/// one stream and one outcome. Returns the number of runs delivered.
fn assert_runs_expand_to_the_stream(label: &str, p: &Program, cfg: &RunConfig) -> u64 {
    let mut recorded = RecordingSink::default();
    let by_events = interp::run_with_config(p, &mut recorded, cfg.clone());
    let mut expanded = Expanded::against(&recorded.events);
    let by_runs = interp::run_with_config(p, &mut expanded, cfg.clone());
    if let Some(i) = expanded.diverged {
        panic!(
            "{label}: first divergence at event {i}: recorded {:?}",
            recorded.events.get(i)
        );
    }
    assert_eq!(expanded.at, recorded.events.len(), "{label}: stream length");
    match (by_events, by_runs) {
        (Ok(a), Ok(b)) => assert_same_outcome(label, &a, &b),
        (Err(a), Err(b)) => assert_eq!(a, b, "{label}: errors differ"),
        (a, b) => panic!("{label}: one run failed: {a:?} vs {b:?}"),
    }
    expanded.runs
}

fn assert_same_outcome(label: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(a.steps, b.steps, "{label}: steps");
    assert_eq!(a.ret, b.ret, "{label}: return value");
    assert_eq!(a.printed, b.printed, "{label}: printed output");
    assert_eq!(a.interrupted, b.interrupted, "{label}: interrupted");
    // Which sink listens must not change what the tier did.
    assert_eq!(a.synth, b.synth, "{label}: tier counters");
    assert_eq!(a.dispatches, b.dispatches, "{label}: dispatches");
}

/// Every catalogue program but `actors_10k` (whose 10,002 stacks make two
/// recorded streams a memory test, not a plan test), at quanta from "every
/// step a slice" to "one slice".
#[test]
fn catalogue_runs_expand_to_the_recorded_stream() {
    let mut runs = 0;
    for w in workloads::all() {
        if w.name == "actors_10k" {
            continue;
        }
        let p = w.program().expect("workload compiles");
        for quantum in [1u32, 3, 64, 1 << 20] {
            let cfg = RunConfig {
                quantum,
                ..Default::default()
            };
            let label = format!("{}/quantum={quantum}", w.name);
            runs += assert_runs_expand_to_the_stream(&label, &p, &cfg);
        }
    }
    assert!(runs > 4000, "only {runs} runs: the gate barely engaged");
}

/// The injected fault disables the tier at a cycle boundary mid-loop: the
/// run in flight is delivered up to that boundary.
#[test]
fn runs_under_the_injected_fault_expand_to_the_recorded_stream() {
    for name in ["matmul", "dotprod", "MG"] {
        let p = workloads::by_name(name)
            .expect("workload exists")
            .program()
            .expect("workload compiles");
        for limit in [0u64, 1, 3, 40] {
            let cfg = RunConfig {
                affine_skip_fault: Some(limit),
                ..Default::default()
            };
            assert_runs_expand_to_the_stream(&format!("{name}/fault@{limit}"), &p, &cfg);
        }
    }
}

/// Forwards to `inner` and raises `stop` on the `nth` loop entry — an event
/// outside every plan run, so an event-taking and a run-taking sink see it
/// at the same machine step. Batches of one event (`batch_cap: 1`) keep
/// that step the same under both.
struct StopOnLoop<S> {
    inner: S,
    stop: Arc<AtomicBool>,
    nth: u32,
}

impl<S: Sink> Sink for StopOnLoop<S> {
    const TAKES_RUNS: bool = S::TAKES_RUNS;

    fn event(&mut self, ev: &Event) {
        if let Event::RegionEnter {
            kind: mir::RegionKind::Loop,
            ..
        } = ev
        {
            self.nth = self.nth.saturating_sub(1);
            if self.nth == 0 {
                self.stop.store(true, Ordering::Relaxed);
            }
        }
        self.inner.event(ev);
    }

    fn plan_run(&mut self, run: &PlanRun<'_>) {
        self.inner.plan_run(run);
    }
}

/// A stop flag raised while a plan is engaged: the in-place re-slice must
/// see it where the scheduler would have, so both sinks stop after the same
/// step with the same prefix delivered.
#[test]
fn a_stop_flag_raised_mid_run_cuts_both_streams_at_the_same_step() {
    let src = "global int a[256];
global int s;
fn main() {
    for (int r = 0; r < 8; r = r + 1) {
        for (int i = 0; i < 256; i = i + 1) {
            a[i] = a[i] + r;
            s = s + a[i];
        }
    }
}";
    let p = Program::new(lang::compile(src, "stop").expect("compiles"));
    for quantum in [1u32, 7, 64] {
        // The fourth loop entry is the third inner-loop instance.
        fn stopped<S: Sink>(p: &Program, quantum: u32, inner: S) -> (RunResult, S) {
            let stop = Arc::new(AtomicBool::new(false));
            let cfg = RunConfig {
                quantum,
                stop: Some(stop.clone()),
                batch_cap: 1,
                ..Default::default()
            };
            let mut sink = StopOnLoop {
                inner,
                stop,
                nth: 4,
            };
            let r = interp::run_with_config(p, &mut sink, cfg).expect("runs");
            (r, sink.inner)
        }
        let (by_events, recorded) = stopped(&p, quantum, RecordingSink::default());
        let (by_runs, expanded) = stopped(&p, quantum, Expanded::against(&recorded.events));
        assert_eq!(expanded.diverged, None, "quantum={quantum}");
        assert_eq!(expanded.at, recorded.events.len(), "quantum={quantum}");
        assert!(expanded.runs >= 2, "quantum={quantum}");
        assert!(
            by_events.interrupted,
            "quantum={quantum}: the flag was honoured"
        );
        assert_same_outcome(&format!("stop/quantum={quantum}"), &by_events, &by_runs);
        let full = interp::run(&p, RecordingSink::default()).expect("runs");
        assert!(
            by_events.steps < full.steps,
            "quantum={quantum}: stopped early"
        );
    }
}

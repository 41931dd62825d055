//! `bench` — the experiment harness.
//!
//! The `tables` binary regenerates the tables and figures of the
//! evaluation that check a claim of the paper (the binary's module doc
//! indexes them) and checks those claims ([`Claim`]); the oracles the
//! equivalence tests hold the engine against and the shared measurement
//! helpers live here. Performance claims are made with the
//! `benchmark/` package (`BENCHMARK.json`).

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod seed_baseline;

use interp::{Event, NullSink, PlanRun, Program, RunConfig, RuntimeError, Sink};
use profiler::{
    DepBuilder, DepSet, HashShadowMap, InstanceTable, LoopContext, Pet, PetBuilder, Profiler,
};
use std::time::Instant;

/// The legacy `HashMap` shadow behind today's dependence builder, fed by
/// its own sink rather than the engine's pipeline: the reference the
/// equivalence tests hold the engine's exact map and its PET against. It
/// reuses the engine's [`LoopContext`], [`InstanceTable`] and
/// [`DepBuilder`], so their faults it repeats rather than sees;
/// [`seed_baseline`], which shares none of them, is the oracle for those.
pub struct HashShadowOracle {
    ctx: LoopContext,
    table: InstanceTable,
    builder: DepBuilder<HashShadowMap>,
    pet: PetBuilder,
}

impl HashShadowOracle {
    /// An oracle for a target whose static op table is `prog`'s.
    pub fn new(prog: &Program) -> Self {
        HashShadowOracle {
            ctx: LoopContext::new(),
            table: InstanceTable::new(),
            builder: DepBuilder::new(HashShadowMap::new(), prog.mem_op_meta()),
            pet: PetBuilder::new(),
        }
    }

    /// Dependences, PET and tracked bytes after `steps` target instructions.
    pub fn finish(self, steps: u64) -> (DepSet, Pet, usize) {
        let (deps, _, bytes) = self.builder.finish();
        (deps, self.pet.finish(steps), bytes + self.table.bytes())
    }
}

impl Sink for HashShadowOracle {
    fn event(&mut self, ev: &Event) {
        self.pet.handle(ev);
        if let Some(a) = self.ctx.handle(ev, &mut self.table) {
            self.builder.process(&a, &self.table);
        }
        if let Event::VarDealloc { addr, words, .. } = ev {
            self.builder.clear_range(*addr, *words);
        }
    }
}

/// A profiler that is handed plan runs and feeds it their expansion
/// ([`PlanRun::expand`]), event by event: the per-access path the closed
/// form ([`profiler::DepBuilder::process_run`]) must agree with, and what
/// that closed form saves (Fig. 2.12).
pub struct Expanding(pub Profiler);

impl Sink for Expanding {
    const TAKES_RUNS: bool = true;

    fn event(&mut self, ev: &Event) {
        self.0.event(ev);
    }

    fn events(&mut self, evs: &[Event]) {
        self.0.events(evs);
    }

    fn plan_run(&mut self, run: &PlanRun<'_>) {
        run.expand(|ev| self.0.event(ev));
    }
}

/// One of the paper's claims, checked against what an experiment measured.
#[derive(Debug, Clone)]
pub struct Claim {
    /// The claim, naming its table or figure and what was measured.
    pub what: String,
    /// Whether the measurement bears it out.
    pub holds: bool,
    /// Why the reproduction may not meet it. A claim that does not hold
    /// but carries a reason is a documented deviation: printed, not failed.
    pub deviation: Option<&'static str>,
}

impl Claim {
    /// The claim `what`, held or not.
    pub fn check(what: impl Into<String>, holds: bool) -> Claim {
        Claim {
            what: what.into(),
            holds,
            deviation: None,
        }
    }

    /// The same claim, documented as a deviation for `reason` if it fails.
    pub fn or_deviation(self, reason: &'static str) -> Claim {
        Claim {
            deviation: Some(reason),
            ..self
        }
    }
}

impl std::fmt::Display for Claim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.holds, self.deviation) {
            (true, _) => write!(f, "[ok] {}", self.what),
            (false, Some(reason)) => write!(f, "[deviation] {} — {reason}", self.what),
            (false, None) => write!(f, "[FAILED] {}", self.what),
        }
    }
}

/// The failed claims among `claims`, one line each: empty iff every claim
/// holds or is a documented deviation.
pub fn check_report(claims: &[Claim]) -> Vec<String> {
    claims
        .iter()
        .filter(|c| !c.holds && c.deviation.is_none())
        .map(|c| c.to_string())
        .collect()
}

/// Median wall-clock seconds of `reps` runs of `f`.
pub fn time_median<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Native (uninstrumented) execution time of a program, or the error of
/// a run that failed.
pub fn native_time(prog: &Program, reps: usize) -> Result<f64, RuntimeError> {
    let mut failed = None;
    let t = time_median(reps, || {
        if let Err(e) = interp::run_with_config(prog, NullSink, RunConfig::default()) {
            failed = Some(e);
        }
    });
    failed.map_or(Ok(t), Err)
}

/// Count distinct addresses and total accesses of a program.
pub fn count_addresses(prog: &Program) -> Result<(usize, u64), RuntimeError> {
    struct Counter {
        addrs: std::collections::HashSet<u64>,
        total: u64,
    }
    impl interp::Sink for Counter {
        fn event(&mut self, ev: &interp::Event) {
            if let interp::Event::Mem(m) = ev {
                self.addrs.insert(m.addr);
                self.total += 1;
            }
        }
    }
    let mut c = Counter {
        addrs: Default::default(),
        total: 0,
    };
    interp::run(prog, &mut c)?;
    Ok((c.addrs.len(), c.total))
}

/// Format a ratio as `N.N×`.
pub fn fmt_x(x: f64) -> String {
    format!("{x:.1}×")
}

/// Format a fraction as a percentage.
pub fn fmt_pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_addresses_works() {
        let p = workloads::by_name("dotprod").unwrap().program().unwrap();
        let (addrs, total) = count_addresses(&p).unwrap();
        assert!(addrs >= 1024, "two 512-element arrays: {addrs}");
        assert!(total > 2048);
    }

    #[test]
    fn a_failed_claim_makes_the_check_report_non_empty() {
        let held = Claim::check("holds", true);
        let documented = Claim::check("documented", false).or_deviation("a reason");
        assert!(check_report(&[held.clone(), documented.clone()]).is_empty());
        assert_eq!(documented.to_string(), "[deviation] documented — a reason");
        let failed = Claim::check("fails", false);
        let report = check_report(&[held, failed, documented]);
        assert_eq!(report, ["[FAILED] fails"]);
    }

    #[test]
    fn time_median_positive() {
        let t = time_median(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(t >= 0.0);
    }
}

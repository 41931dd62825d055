//! `bench` — the experiment harness.
//!
//! The `tables` binary regenerates every table and figure of the
//! dissertation's evaluation (the binary's module doc indexes them); the
//! oracles the equivalence tests hold the engine against and the shared
//! measurement helpers live here. Performance claims are made with the
//! `benchmark/` package (`BENCHMARK.json`).

pub mod seed_baseline;

use interp::{Event, NullSink, Program, RunConfig, Sink};
use profiler::{
    DepBuilder, DepSet, EngineConfig, HashShadowMap, InstanceTable, LoopContext, Pet, PetBuilder,
};
use std::time::Instant;

/// The legacy `HashMap` shadow behind today's dependence builder, driven by
/// a front half of its own (loop context, instance table, PET, lifetime
/// eviction — nothing shared with [`profiler::Profiler`]): the reference the
/// equivalence tests hold the engine's exact map against.
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
            builder: DepBuilder::new(
                HashShadowMap::new(),
                prog.mem_op_meta(),
                EngineConfig::default(),
            ),
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

/// Median wall-clock seconds of `reps` runs of `f`.
pub fn time_median<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// Native (uninstrumented) execution time of a program.
pub fn native_time(prog: &Program, reps: usize) -> f64 {
    time_median(reps, || {
        interp::run_with_config(prog, NullSink, RunConfig::default()).expect("runs");
    })
}

/// Count distinct addresses and total accesses of a program.
pub fn count_addresses(prog: &Program) -> (usize, u64) {
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
    interp::run(prog, &mut c).expect("runs");
    (c.addrs.len(), c.total)
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
        let (addrs, total) = count_addresses(&p);
        assert!(addrs >= 1024, "two 512-element arrays: {addrs}");
        assert!(total > 2048);
    }

    #[test]
    fn time_median_positive() {
        let t = time_median(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(t >= 0.0);
    }
}

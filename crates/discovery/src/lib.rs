//! `discovery` — CU-based parallelism discovery (dissertation Ch. 4).
//!
//! Consumes the profiler's dependences + PET and the CU graph to detect:
//!
//! - **DOALL loops** (§4.1.1): loops with no loop-carried true dependence,
//!   after discounting induction variables and reduction patterns;
//! - **DOACROSS loops** (§4.1.2): loops whose carried dependences leave a
//!   decoupled remainder, with a pipeline-stage estimate from the body's
//!   CU layers;
//! - **SPMD-style tasks** (§4.2.1): independent instances of the same code
//!   (parallel-for over calls, sibling/recursive call parallelism as in
//!   BOTS `fib`/`nqueens`);
//! - **MPMD-style tasks** (§4.2.2): different code sections that may run
//!   concurrently, found on the SCC/chain-condensed CU graph (Fig. 4.5);
//! - the **ranking** of §4.3: instruction coverage, local speedup, and CU
//!   imbalance.

// Discovery runs inside every analysis job, the daemon's included: library
// code returns or skips instead of panicking (tests may unwrap).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod doall;
pub mod patterns;
pub mod ranking;
pub mod tasks;

use cu::{Cu, CuGraph, DepIndex, Partition};
use interp::Program;
use profiler::{DepSet, Pet};

pub use doall::{hot_loops, LoopAnalyzer, LoopClass, LoopInfo, LoopResult};
pub use patterns::{classify as classify_patterns, Pattern};
pub use ranking::{rank, RankedSuggestion, Ranking};
pub use tasks::{find_mpmd_tasks, find_spmd_tasks, MpmdSuggestion, SpmdKind, SpmdSuggestion};

/// Everything discovery produces for one program.
#[derive(Debug)]
pub struct Discovery {
    /// Per-loop classification, hottest first.
    pub loops: Vec<LoopResult>,
    /// SPMD task suggestions.
    pub spmd: Vec<SpmdSuggestion>,
    /// MPMD task suggestions.
    pub mpmd: Vec<MpmdSuggestion>,
    /// Ranked parallelization opportunities (best first).
    pub ranked: Vec<RankedSuggestion>,
    /// Classic parallel-pattern phrasing of the findings.
    pub patterns: Vec<Pattern>,
}

/// Run the full discovery pipeline on a profiled program.
///
/// `deps` is scanned exactly once, into a [`DepIndex`] that the CU build
/// and every pass below share. One CU graph is built and grouped by
/// function once: DOACROSS stage estimates, MPMD tasks and ranking all
/// read it. From there each pass is linear in what it walks — functions,
/// loops, dependences — plus what it emits.
pub fn discover(program: &Program, deps: &DepSet, pet: &Pet) -> Discovery {
    let index = DepIndex::new(program, deps);
    // Function bodies are decomposed into their child regions and
    // fragments (§3.3): a body that is itself a CU would otherwise hide
    // the task and pipeline structure inside. MPMD task CU ids refer to
    // this graph.
    let graph = cu::build_from_index(program, &index, Some(pet));
    let by_func = by_function(program, &graph);
    let analyzer = LoopAnalyzer::new(program, &index, &graph, &by_func);
    let loops: Vec<LoopResult> = hot_loops(program, pet)
        .iter()
        .map(|l| analyzer.analyze(l))
        .collect();
    let spmd = find_spmd_tasks(program, &index, &loops);
    let mpmd = find_mpmd_tasks(&graph, &by_func);
    let ranked = rank(pet, &graph, &by_func, &loops, &mpmd);
    let patterns = patterns::classify(&loops, &mpmd);
    Discovery {
        loops,
        spmd,
        mpmd,
        ranked,
        patterns,
    }
}

/// `graph`'s CUs, and the edges between CUs of one function, by function.
pub fn by_function(program: &Program, graph: &CuGraph<Cu>) -> Partition {
    graph.partition(program.module.functions.len(), |c| c.func as usize)
}

/// The CUs of `graph` that lie inside `info`'s loop, in id order.
fn cus_within(graph: &CuGraph<Cu>, by_func: &Partition, info: &LoopInfo) -> Vec<usize> {
    by_func.cus[info.func as usize]
        .iter()
        .copied()
        .filter(|&i| {
            let c = &graph.cus[i];
            c.start_line >= info.start_line && c.end_line <= info.end_line
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use profiler::profile_program;

    #[test]
    fn end_to_end_discovery() {
        let src = "global int a[64];\nglobal int b[64];\nglobal int s;\nfn main() {\nfor (int i = 0; i < 64; i = i + 1) {\nb[i] = a[i] * 3;\n}\nfor (int i = 0; i < 64; i = i + 1) {\ns = s + b[i];\n}\n}";
        let p = Program::new(lang::compile(src, "t").unwrap());
        let out = profile_program(&p).unwrap();
        let d = discover(&p, &out.deps, &out.pet);
        assert_eq!(d.loops.len(), 2);
        assert!(
            d.loops.iter().any(|l| l.class == LoopClass::Doall),
            "{:?}",
            d.loops
        );
        assert!(d.loops.iter().any(|l| l.class == LoopClass::Reduction));
        assert!(!d.ranked.is_empty());
    }

    /// `s`, `t`, `u` and `w` are locals of `main`, so `main`'s whole body
    /// satisfies read-compute-write. The one CU graph still decomposes it:
    /// `t` feeds `u` and `w` (two independent CUs), and both feed the
    /// carried update of `s`, so the loop is a three-stage pipeline. A
    /// graph that made `main` one CU left no CU inside the loop and read
    /// one stage.
    #[test]
    fn a_doacross_body_of_function_locals_reads_its_stages_from_the_cu_graph() {
        let src = "global int a[64];\nfn main() {\nint s = 1;\nint t = 0;\nint u = 0;\nint w = 0;\nfor (int i = 0; i < 64; i = i + 1) {\nt = a[i] * 2;\nu = t + 1;\nw = t * 3;\ns = (s * 3 + u + w) % 1000;\n}\nprint(s);\n}";
        let p = Program::new(lang::compile(src, "t").unwrap());
        let out = profile_program(&p).unwrap();
        let d = discover(&p, &out.deps, &out.pet);
        let l = &d.loops[0];
        assert_eq!(
            (l.info.start_line, l.class, l.pipeline_stages),
            (7, LoopClass::Doacross, 3),
            "{l:?}"
        );
        let ranked = d
            .ranked
            .iter()
            .find(|r| {
                matches!(
                    r.target,
                    ranking::SuggestionTarget::Loop { start_line: 7, .. }
                )
            })
            .expect("the loop is ranked");
        assert_eq!(ranked.ranking.local_speedup, 3.0);
    }
}

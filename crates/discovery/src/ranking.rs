//! Ranking of parallelization targets (§4.3): instruction coverage, local
//! speedup, and CU imbalance.

use crate::doall::{LoopClass, LoopResult};
use crate::tasks::MpmdSuggestion;
use cu::{Condensation, Cu, CuGraph, Partition};
use profiler::Pet;

/// The three §4.3 metrics for one candidate region.
#[derive(Debug, Clone, Copy)]
pub struct Ranking {
    /// Fraction of all executed instructions spent in the region (§4.3.1).
    pub instruction_coverage: f64,
    /// Serial work divided by the critical path through the region's CU
    /// graph — the speedup with unbounded resources (§4.3.2).
    pub local_speedup: f64,
    /// Coefficient of variation of the weights of the region's mutually
    /// independent CU groups: 0 = perfectly balanced (§4.3.3 / Fig. 4.6).
    pub cu_imbalance: f64,
}

impl Ranking {
    /// Scalar score: coverage-weighted speedup, discounted by imbalance.
    /// This instantiation reproduces the paper's ordering criteria: high
    /// coverage and high local speedup rank first; imbalanced CU graphs
    /// are penalized.
    pub fn score(&self) -> f64 {
        self.instruction_coverage * self.local_speedup / (1.0 + self.cu_imbalance)
    }
}

/// What a ranked suggestion refers to.
#[derive(Debug, Clone)]
pub enum SuggestionTarget {
    /// A parallelizable loop (line of the header).
    Loop {
        func: u32,
        region: u32,
        start_line: u32,
        class: LoopClass,
    },
    /// An MPMD task set (line spans of the tasks).
    TaskSet { func: u32, spans: Vec<(u32, u32)> },
}

/// A ranked parallelization opportunity.
#[derive(Debug, Clone)]
pub struct RankedSuggestion {
    /// What to parallelize.
    pub target: SuggestionTarget,
    /// The metrics.
    pub ranking: Ranking,
    /// The scalar score used for ordering.
    pub score: f64,
}

/// Critical-path analysis over CUs `ids` of `graph` and their
/// condensation: `(serial_work, critical_path)` where cycles (SCCs)
/// collapse to sequential blobs.
fn critical_path(graph: &CuGraph<Cu>, ids: &[usize], cond: &Condensation) -> (u64, u64) {
    let weight = |i: usize| graph.cus[ids[i]].weight.max(1);
    let serial: u64 = (0..ids.len()).map(weight).sum();
    // Each component's weight is the sum of its members (a cycle
    // serializes).
    let ncomp = cond.scc.iter().map(|&c| c + 1).max().unwrap_or(0);
    let mut cweight = vec![0u64; ncomp];
    for (i, &c) in cond.scc.iter().enumerate() {
        cweight[c] += weight(i);
    }
    // DAG edges between components: a depends on b (b runs first).
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); ncomp];
    let mut indeg = vec![0usize; ncomp];
    for &(a, b) in &cond.scc_edges {
        succ[b].push(a);
        indeg[a] += 1;
    }
    // Longest path by topological relaxation.
    let mut dist: Vec<u64> = cweight.clone();
    let mut queue: Vec<usize> = (0..ncomp).filter(|&c| indeg[c] == 0).collect();
    let mut longest = 0;
    while let Some(c) = queue.pop() {
        longest = longest.max(dist[c]);
        for &s in &succ[c] {
            dist[s] = dist[s].max(dist[c] + cweight[s]);
            indeg[s] -= 1;
            if indeg[s] == 0 {
                queue.push(s);
            }
        }
    }
    (serial, longest.max(1))
}

/// CU imbalance: coefficient of variation of the independent groups'
/// weights in the widest layer of the condensation (Fig. 4.6: balanced
/// CUs in a layer → 0; one dominant CU → high imbalance).
fn imbalance(graph: &CuGraph<Cu>, ids: &[usize], cond: &Condensation) -> f64 {
    let mut gweight = vec![0u64; cond.groups];
    for (i, &g) in cond.group.iter().enumerate() {
        gweight[g] += graph.cus[ids[i]].weight.max(1);
    }
    let layers = cond.layers();
    let widest = layers.iter().max_by_key(|l| l.len());
    let Some(layer) = widest else { return 0.0 };
    if layer.len() < 2 {
        return 0.0;
    }
    let ws: Vec<f64> = layer.iter().map(|&g| gweight[g] as f64).collect();
    let mean = ws.iter().sum::<f64>() / ws.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = ws.iter().map(|w| (w - mean) * (w - mean)).sum::<f64>() / ws.len() as f64;
    var.sqrt() / mean
}

/// Rank every parallelizable loop and MPMD task set, best first. `by_func`
/// is `graph` grouped by function ([`crate::by_function`]): each candidate
/// looks only at its own function's CUs and edges.
pub fn rank(
    pet: &Pet,
    graph: &CuGraph<Cu>,
    by_func: &Partition,
    loops: &[LoopResult],
    mpmd: &[MpmdSuggestion],
) -> Vec<RankedSuggestion> {
    let total = pet.total_instrs().max(1) as f64;
    let mut out = Vec::new();

    for l in loops {
        if matches!(l.class, LoopClass::Sequential | LoopClass::NotExecuted) {
            continue;
        }
        let ids = crate::cus_within(graph, by_func, &l.info);
        let coverage = (l.info.dyn_instrs as f64 / total).min(1.0);
        // For a parallelizable loop the speedup with unbounded resources is
        // the iteration count (all iterations concurrent) for DOALL, and
        // the stage-count estimate for DOACROSS; CU imbalance is measured
        // over the body CUs.
        let local_speedup = match l.class {
            LoopClass::Doall | LoopClass::Reduction => l.info.iters.max(1) as f64,
            LoopClass::Doacross => l.pipeline_stages.max(1) as f64,
            _ => 1.0,
        };
        let imb = if ids.len() < 2 {
            0.0
        } else {
            let cond = Condensation::of_subgraph(&ids, &by_func.edges[l.info.func as usize]);
            imbalance(graph, &ids, &cond)
        };
        let ranking = Ranking {
            instruction_coverage: coverage,
            local_speedup,
            cu_imbalance: imb,
        };
        out.push(RankedSuggestion {
            target: SuggestionTarget::Loop {
                func: l.info.func,
                region: l.info.region,
                start_line: l.info.start_line,
                class: l.class,
            },
            score: ranking.score(),
            ranking,
        });
    }

    for m in mpmd {
        let ids: Vec<usize> = m.tasks.iter().flat_map(|t| t.cus.iter().copied()).collect();
        let work: u64 = m.tasks.iter().map(|t| t.weight).sum();
        // CU weights are estimates and may overlap; coverage is a fraction.
        let coverage = (work as f64 / total).min(1.0);
        let cond = Condensation::of_subgraph(&ids, &by_func.edges[m.func as usize]);
        let (serial, cp) = critical_path(graph, &ids, &cond);
        let local_speedup = serial as f64 / cp as f64;
        let imb = imbalance(graph, &ids, &cond);
        let ranking = Ranking {
            instruction_coverage: coverage,
            local_speedup: local_speedup.max(1.0),
            cu_imbalance: imb,
        };
        out.push(RankedSuggestion {
            target: SuggestionTarget::TaskSet {
                func: m.func,
                spans: m.tasks.iter().map(|t| (t.start_line, t.end_line)).collect(),
            },
            score: ranking.score(),
            ranking,
        });
    }

    out.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doall::{analyze_loop, hot_loops};
    use crate::tasks::find_mpmd_tasks;
    use interp::Program;
    use profiler::profile_program;

    fn full(src: &str) -> Vec<RankedSuggestion> {
        let p = Program::new(lang::compile(src, "t").unwrap());
        let out = profile_program(&p).unwrap();
        let graph = cu::build_cu_graph_fine(&cu::CuBuildInput {
            program: &p,
            deps: &out.deps,
            pet: Some(&out.pet),
        });
        let loops: Vec<LoopResult> = hot_loops(&p, &out.pet)
            .into_iter()
            .map(|l| analyze_loop(&p, &out.deps, &l))
            .collect();
        let by_func = crate::by_function(&p, &graph);
        let mpmd = find_mpmd_tasks(&graph, &by_func);
        rank(&out.pet, &graph, &by_func, &loops, &mpmd)
    }

    #[test]
    fn hot_doall_ranks_above_cold_doall() {
        let src = "global int a[256];\nglobal int b[8];\nfn main() {\nfor (int i = 0; i < 256; i = i + 1) {\na[i] = i * i + i / 3;\n}\nfor (int j = 0; j < 8; j = j + 1) {\nb[j] = j;\n}\n}";
        let ranked = full(src);
        let loop_lines: Vec<u32> = ranked
            .iter()
            .filter_map(|r| match &r.target {
                SuggestionTarget::Loop { start_line, .. } => Some(*start_line),
                _ => None,
            })
            .collect();
        let hot = loop_lines.iter().position(|&l| l == 4).unwrap();
        let cold = loop_lines.iter().position(|&l| l == 7).unwrap();
        assert!(hot < cold, "hot loop must rank first: {ranked:?}");
    }

    #[test]
    fn coverage_is_a_fraction() {
        let src =
            "global int a[64];\nfn main() {\nfor (int i = 0; i < 64; i = i + 1) {\na[i] = i;\n}\n}";
        let ranked = full(src);
        assert!(!ranked.is_empty());
        let r = &ranked[0].ranking;
        assert!(r.instruction_coverage > 0.0 && r.instruction_coverage <= 1.0);
        assert!(r.local_speedup >= 1.0);
        assert!(r.cu_imbalance >= 0.0);
    }

    #[test]
    fn score_monotone_in_coverage_and_speedup() {
        let a = Ranking {
            instruction_coverage: 0.9,
            local_speedup: 8.0,
            cu_imbalance: 0.0,
        };
        let b = Ranking {
            instruction_coverage: 0.1,
            local_speedup: 8.0,
            cu_imbalance: 0.0,
        };
        let c = Ranking {
            instruction_coverage: 0.9,
            local_speedup: 8.0,
            cu_imbalance: 2.0,
        };
        assert!(a.score() > b.score());
        assert!(a.score() > c.score());
    }
}

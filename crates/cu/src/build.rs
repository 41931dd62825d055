//! CU construction: the top-down algorithm (Algorithm 3, §3.2.3).

use crate::graph::{CuEdge, CuGraph, CuId};
use crate::index::DepIndex;
use crate::vars::{self, RegionVars, VarId};
use fxhash::FxHashMap;
use interp::Program;
use mir::{RegionId, RegionKind};
use profiler::{DepSet, DepType, Pet, PetNodeKind};
use std::collections::{BTreeMap, BTreeSet};

/// How a CU came to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CuKind {
    /// A whole control region satisfied the read-compute-write condition.
    Region,
    /// A fragment of a region, split at violating reads.
    Fragment,
}

/// A computational unit.
#[derive(Debug, Clone)]
pub struct Cu {
    /// Function index.
    pub func: u32,
    /// Region the CU belongs to (equals the CU for `Region` kind).
    pub region: u32,
    /// First source line covered.
    pub start_line: u32,
    /// Last source line covered.
    pub end_line: u32,
    /// Whole region or fragment.
    pub kind: CuKind,
    /// Variables (global to the region) read — the read phase sources.
    pub read_set: BTreeSet<VarId>,
    /// Variables (global to the region) written — the write phase targets.
    pub write_set: BTreeSet<VarId>,
    /// The exact lines of a fragment CU (region CUs cover their full span).
    pub lines: Vec<u32>,
    /// Static memory+compute instruction count under this CU.
    pub static_instrs: usize,
    /// Dynamic weight estimate (instructions executed), for ranking.
    pub weight: u64,
}

impl Cu {
    /// Does this CU cover `line`?
    pub fn covers(&self, line: u32) -> bool {
        match self.kind {
            CuKind::Region => self.start_line <= line && line <= self.end_line,
            CuKind::Fragment => self.lines.contains(&line),
        }
    }
}

/// Inputs to CU-graph construction.
pub struct CuBuildInput<'a> {
    /// The executable program (module + symbol table).
    pub program: &'a Program,
    /// Profiled dependences.
    pub deps: &'a DepSet,
    /// Execution tree for dynamic weights (optional).
    pub pet: Option<&'a Pet>,
}

/// Build the CU graph for every function of the program (top-down).
/// Function bodies are always decomposed into their child regions and
/// plain-line fragments, even when the whole body satisfies
/// read-compute-write: "the top-down approach … goes down to cover
/// fine-grained parallelism if coarse-grained parallelism is not found"
/// (§3.3). Below the body, a violation-free region is one CU.
pub fn build_cu_graph_fine(input: &CuBuildInput) -> CuGraph<Cu> {
    let index = DepIndex::new(input.program, input.deps);
    build_from_index(input.program, &index, input.pet)
}

/// [`build_cu_graph_fine`] over an index the caller already built —
/// discovery builds one and shares it with its own passes.
pub fn build_from_index(program: &Program, index: &DepIndex, pet: Option<&Pet>) -> CuGraph<Cu> {
    let ctx = BuildCtx {
        program,
        index,
        weights: pet.map(PetWeights::new),
    };
    let mut graph = CuGraph::new();
    for fi in 0..program.module.functions.len() {
        FnBuilder::new(&ctx, fi as u32).run(&mut graph);
    }
    add_edges(index, &mut graph);
    graph
}

/// What every function's builder reads, gathered once per build.
struct BuildCtx<'a> {
    program: &'a Program,
    index: &'a DepIndex,
    weights: Option<PetWeights>,
}

/// The PET facts dynamic weights come from.
struct PetWeights {
    /// [`Pet::loops_aggregated`].
    loops: FxHashMap<(u32, u32), (u64, u64, u64)>,
    /// Entry count of each function's first PET node.
    entries: FxHashMap<u32, u64>,
}

impl PetWeights {
    fn new(pet: &Pet) -> PetWeights {
        let mut entries = FxHashMap::default();
        for n in &pet.nodes {
            if let PetNodeKind::Function(f) = n.kind {
                entries.entry(f).or_insert(n.entries);
            }
        }
        PetWeights {
            loops: pet.loops_aggregated(),
            entries,
        }
    }
}

struct FnBuilder<'a> {
    ctx: &'a BuildCtx<'a>,
    func: u32,
    rv: RegionVars,
    /// For every line with accesses: static instruction count.
    line_instrs: BTreeMap<u32, usize>,
    /// Violating read lines per region: sinks of intra-region RAWs on
    /// region-global variables.
    violations: Vec<BTreeSet<u32>>,
}

impl<'a> FnBuilder<'a> {
    fn new(ctx: &'a BuildCtx<'a>, func: u32) -> Self {
        let module = &ctx.program.module;
        let f = &module.functions[func as usize];
        let rv = vars::analyze(module, func);

        let mut line_instrs: BTreeMap<u32, usize> = BTreeMap::new();
        for (_, b) in f.iter_blocks() {
            for i in &b.instrs {
                if !i.is_marker() {
                    *line_instrs.entry(i.line()).or_insert(0) += 1;
                }
            }
        }

        // Determine violating reads per region. A read of a region-global
        // variable violates the read-compute-write pattern when it happens
        // after a write inside the same execution of the region: a RAW
        // whose endpoints both lie in the region and that is not carried by
        // the region itself or an enclosing loop.
        let mut violations: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); f.regions.len()];
        for d in ctx.index.raws_within(func) {
            let name = ctx.program.symbol(d.var);
            for (ri, r) in f.regions.iter().enumerate() {
                if d.sink.line < r.start_line
                    || d.sink.line > r.end_line
                    || d.source.line < r.start_line
                    || d.source.line > r.end_line
                {
                    continue;
                }
                // Carried by this region or an ancestor: a cross-instance
                // dependence, not a violation.
                if let Some((cf, cr)) = d.carried_by {
                    if cf == func {
                        let carrier = RegionId(cr);
                        let here = RegionId(ri as u32);
                        if vars::region_contains(f, carrier, here) {
                            continue;
                        }
                    }
                }
                // The variable must be global to this region.
                let is_global = rv.global_vars[ri]
                    .iter()
                    .any(|&v| vars::var_name_of(module, v) == name);
                if is_global {
                    violations[ri].insert(d.sink.line);
                }
            }
        }

        FnBuilder {
            ctx,
            func,
            rv,
            line_instrs,
            violations,
        }
    }

    fn run(mut self, graph: &mut CuGraph<Cu>) {
        self.process(RegionId(0), graph);
    }

    /// Recursive top-down construction: a violation-free region below the
    /// function body is one CU; otherwise children recurse and the region's
    /// plain lines are split into fragments at violating reads.
    fn process(&mut self, region: RegionId, graph: &mut CuGraph<Cu>) -> Vec<CuId> {
        let module = &self.ctx.program.module;
        let f = &module.functions[self.func as usize];
        let r = &f.regions[region.index()];

        if self.violations[region.index()].is_empty() && region != RegionId(0) {
            let (read_set, write_set) = self.phase_sets(region, r.start_line, r.end_line, None);
            let static_instrs: usize = self
                .line_instrs
                .range(r.start_line..=r.end_line)
                .map(|(_, &c)| c)
                .sum();
            let cu = Cu {
                func: self.func,
                region: region.0,
                start_line: r.start_line,
                end_line: r.end_line,
                kind: CuKind::Region,
                read_set,
                write_set,
                lines: Vec::new(),
                static_instrs,
                weight: self.weight(region, static_instrs),
            };
            return vec![graph.add_cu(cu)];
        }

        // Region is not a CU: recurse into children, fragment plain lines.
        let children: Vec<RegionId> = f
            .regions
            .iter()
            .enumerate()
            .filter(|(_, c)| c.parent == Some(region))
            .map(|(i, _)| RegionId(i as u32))
            .collect();
        let mut out = Vec::new();
        for &c in &children {
            out.extend(self.process(c, graph));
        }

        // Plain lines: lines with accesses inside this region but outside
        // every child region.
        let child_spans: Vec<(u32, u32)> = children
            .iter()
            .map(|c| {
                let cr = &f.regions[c.index()];
                (cr.start_line, cr.end_line)
            })
            .collect();
        let plain: Vec<u32> = self
            .line_instrs
            .range(r.start_line..=r.end_line)
            .map(|(&l, _)| l)
            .filter(|&l| !child_spans.iter().any(|&(s, e)| s <= l && l <= e))
            .collect();

        let viol = &self.violations[region.index()];
        let mut fragment: Vec<u32> = Vec::new();
        let mut fragments: Vec<Vec<u32>> = Vec::new();
        let mut prev: Option<u32> = None;
        for &l in &plain {
            // Start a new fragment at violating reads, and whenever a child
            // region intervenes between consecutive plain lines (fragments
            // must not straddle nested regions).
            let child_between =
                prev.is_some_and(|p| child_spans.iter().any(|&(s, e)| p < s && e < l));
            if (viol.contains(&l) || child_between) && !fragment.is_empty() {
                fragments.push(std::mem::take(&mut fragment));
            }
            fragment.push(l);
            prev = Some(l);
        }
        if !fragment.is_empty() {
            fragments.push(fragment);
        }
        for lines in fragments {
            // A fragment is pushed only once it holds a line.
            let (Some(&start_line), Some(&end_line)) = (lines.first(), lines.last()) else {
                continue;
            };
            let (read_set, write_set) = self.phase_sets(region, start_line, end_line, Some(&lines));
            let static_instrs: usize = lines
                .iter()
                .map(|l| self.line_instrs.get(l).copied().unwrap_or(0))
                .sum();
            let cu = Cu {
                func: self.func,
                region: region.0,
                start_line,
                end_line,
                kind: CuKind::Fragment,
                read_set,
                write_set,
                lines,
                static_instrs,
                weight: self.weight(region, static_instrs),
            };
            out.push(graph.add_cu(cu));
        }
        out
    }

    /// Read/write phase variable sets: region-global variables accessed in
    /// the line span (or the explicit line list).
    fn phase_sets(
        &self,
        region: RegionId,
        start: u32,
        end: u32,
        lines: Option<&[u32]>,
    ) -> (BTreeSet<VarId>, BTreeSet<VarId>) {
        let globals = &self.rv.global_vars[region.index()];
        let in_span = |l: u32| match lines {
            Some(ls) => ls.contains(&l),
            None => start <= l && l <= end,
        };
        let phase = |accesses: &[(u32, VarId)]| -> BTreeSet<VarId> {
            RegionVars::on_lines(accesses, start, end)
                .iter()
                .filter(|&&(l, v)| in_span(l) && globals.binary_search(&v).is_ok())
                .map(|&(_, v)| v)
                .collect()
        };
        let read_set = phase(&self.rv.reads);
        let write_set = phase(&self.rv.writes);
        (read_set, write_set)
    }

    /// Dynamic weight: executed instructions attributed to the CU. Loops
    /// use the PET's measured counts; other CUs scale static size by the
    /// iteration count of the innermost enclosing loop (or the function
    /// entry count).
    fn weight(&self, region: RegionId, static_instrs: usize) -> u64 {
        let Some(weights) = &self.ctx.weights else {
            return static_instrs as u64;
        };
        let f = &self.ctx.program.module.functions[self.func as usize];
        if f.regions[region.index()].kind == RegionKind::Loop {
            if let Some(&(_, _, dyn_instrs)) = weights.loops.get(&(self.func, region.0)) {
                if dyn_instrs > 0 {
                    return dyn_instrs;
                }
            }
        }
        // Innermost enclosing loop's iterations, else function entries.
        let mut cur = Some(region);
        while let Some(c) = cur {
            if f.regions[c.index()].kind == RegionKind::Loop {
                if let Some((_, iters, _)) = weights.loops.get(&(self.func, c.0)) {
                    return static_instrs as u64 * iters.max(&1);
                }
            }
            cur = f.regions[c.index()].parent;
        }
        static_instrs as u64 * weights.entries.get(&self.func).copied().unwrap_or(1)
    }
}

/// Wire dependence edges between CUs: every profiled dependence whose sink
/// and source lines map to CUs becomes an edge, subject to the Table 3.1
/// rules enforced by [`CuGraph::add_edge`].
fn add_edges(index: &DepIndex, graph: &mut CuGraph<Cu>) {
    // line -> cu: fragments take precedence over region CUs; smaller
    // region CUs take precedence over enclosing ones.
    let lines = graph.cus.iter().map(|c| c.end_line as usize + 1).max();
    let mut by_line: Vec<Option<CuId>> = vec![None; lines.unwrap_or(0)];
    let span_of = |cu: &Cu| cu.end_line - cu.start_line;
    let mut order: Vec<CuId> = (0..graph.cus.len()).collect();
    order.sort_by_key(|&i| {
        let c = &graph.cus[i];
        (
            match c.kind {
                CuKind::Fragment => 0u8,
                CuKind::Region => 1,
            },
            span_of(c),
        )
    });
    for &i in &order {
        let c = &graph.cus[i];
        match c.kind {
            CuKind::Fragment => {
                for &l in &c.lines {
                    by_line[l as usize].get_or_insert(i);
                }
            }
            CuKind::Region => {
                for l in c.start_line..=c.end_line {
                    by_line[l as usize].get_or_insert(i);
                }
            }
        }
    }
    let cu_of = |line: u32| by_line.get(line as usize).copied().flatten();
    for d in index.deps() {
        if d.ty == DepType::Init {
            continue;
        }
        let (Some(from), Some(to)) = (cu_of(d.sink.line), cu_of(d.source.line)) else {
            continue;
        };
        graph.add_edge(CuEdge {
            from,
            to,
            ty: d.ty,
            carried: d.carried_by.is_some(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profiler::profile_program;

    fn setup(src: &str) -> (Program, CuGraph<Cu>) {
        let p = Program::new(lang::compile(src, "t").unwrap());
        let out = profile_program(&p).unwrap();
        let graph = build_cu_graph_fine(&CuBuildInput {
            program: &p,
            deps: &out.deps,
            pet: Some(&out.pet),
        });
        (p, graph)
    }

    /// Fig. 3.4: the loop body reads x, computes via locals a and b, and
    /// writes x back — the whole loop is a single CU.
    #[test]
    fn fig_3_4_loop_is_one_cu() {
        let src = "global int x;\nfn main() {\nfor (int i = 0; i < 8; i = i + 1) {\nint a = x + i / (x + 1);\nint b = x - i / (x + 1);\nx = a + b;\n}\n}";
        let (_, g) = setup(src);
        // The loop region (lines 3..7) must be one Region CU.
        let loop_cu = g
            .cus
            .iter()
            .find(|c| c.kind == CuKind::Region && c.start_line == 3)
            .expect("loop CU");
        assert_eq!(loop_cu.end_line, 7);
        // Its RAW self-loop (iterative pattern) must be present.
        let id = g.cus.iter().position(|c| std::ptr::eq(c, loop_cu)).unwrap();
        assert!(g
            .edges
            .iter()
            .any(|e| e.from == id && e.to == id && e.ty == DepType::Raw));
    }

    /// Fig. 3.4 variant: a and b declared *outside* the loop become global
    /// to it; the intra-iteration RAW on them (x = a + b after a = …)
    /// violates read-compute-write and splits the body into two CUs.
    #[test]
    fn fig_3_4_variant_splits_into_two_cus() {
        let src = "global int x;\nfn main() {\nint a = 0;\nint b = 0;\nfor (int i = 0; i < 8; i = i + 1) {\na = x + i / (x + 1);\nb = x - i / (x + 1);\nx = a + b;\n}\n}";
        let (_, g) = setup(src);
        let frags: Vec<&Cu> = g
            .cus
            .iter()
            .filter(|c| c.kind == CuKind::Fragment && c.region == 1)
            .collect();
        assert!(
            frags.len() >= 2,
            "body must split into fragments: {:?}",
            g.cus
        );
        // Lines 6-7 (computing a, b) in one CU, line 8 (x = a + b) another.
        assert!(frags
            .iter()
            .any(|c| c.lines.contains(&6) && c.lines.contains(&7)));
        assert!(frags
            .iter()
            .any(|c| c.lines.contains(&8) && !c.lines.contains(&6)));
    }

    #[test]
    fn pure_function_is_single_cu() {
        let src =
            "fn square(int v) -> int {\nreturn v * v;\n}\nfn main() {\nint r = square(7);\nprint(r);\n}";
        let (p, g) = setup(src);
        let (fid, _) = p.module.function("square").unwrap();
        let cus: Vec<&Cu> = g.cus.iter().filter(|c| c.func == fid.0).collect();
        assert_eq!(cus.len(), 1, "a pure function is one CU: {cus:?}");
        // Function bodies are always decomposed: the one CU is a fragment.
        assert_eq!(cus[0].kind, CuKind::Fragment);
    }

    #[test]
    fn read_write_sets_have_region_globals_only() {
        let src = "global int g;\nfn main() {\nfor (int i = 0; i < 4; i = i + 1) {\nint t = g * 2;\ng = t + 1;\n}\n}";
        let (p, g) = setup(src);
        let loop_cu = g.cus.iter().find(|c| c.start_line == 3).expect("loop cu");
        let names: Vec<String> = loop_cu
            .read_set
            .iter()
            .map(|&v| vars::var_name(&p.module, v))
            .collect();
        assert!(names.contains(&"g".to_string()));
        assert!(!names.contains(&"t".to_string()), "t is loop-local");
        assert!(!names.contains(&"i".to_string()), "i is the induction var");
    }

    #[test]
    fn independent_computations_get_independent_cus() {
        // Two separate accumulations into different globals from different
        // sources; the two loops must be independent CUs.
        let src = "global int a;\nglobal int b;\nfn main() {\nfor (int i = 0; i < 9; i = i + 1) {\na = a + i;\n}\nfor (int j = 0; j < 9; j = j + 1) {\nb = b + j * 2;\n}\n}";
        let (_, g) = setup(src);
        let l1 = g.cus.iter().position(|c| c.start_line == 4).unwrap();
        let l2 = g.cus.iter().position(|c| c.start_line == 7).unwrap();
        assert!(g.independent(l1, l2), "edges: {:?}", g.edges);
    }

    #[test]
    fn dependent_loops_are_ordered() {
        let src = "global int a;\nglobal int b;\nfn main() {\nfor (int i = 0; i < 9; i = i + 1) {\na = a + i;\n}\nfor (int j = 0; j < 9; j = j + 1) {\nb = b + a;\n}\n}";
        let (_, g) = setup(src);
        let l1 = g.cus.iter().position(|c| c.start_line == 4).unwrap();
        let l2 = g.cus.iter().position(|c| c.start_line == 7).unwrap();
        assert!(g.depends_on(l2, l1), "second loop reads a: {:?}", g.edges);
        assert!(!g.depends_on(l1, l2));
    }

    #[test]
    fn every_accessed_line_covered_by_some_cu() {
        let src = "global int x;\nglobal int y;\nfn main() {\nint t = x + 1;\ny = t * 2;\nif (y > 3) {\nx = y - 1;\n}\n}";
        let (_, g) = setup(src);
        for line in [4u32, 5, 7] {
            assert!(
                g.cus.iter().any(|c| c.covers(line)),
                "line {line} not covered: {:?}",
                g.cus
            );
        }
    }

    #[test]
    fn weights_scale_with_iterations() {
        let src = "global int g;\nfn main() {\nfor (int i = 0; i < 100; i = i + 1) {\ng = g + i;\n}\ng = g * 2;\n}";
        let (_, g) = setup(src);
        let loop_cu = g.cus.iter().find(|c| c.start_line == 3).unwrap();
        let tail = g
            .cus
            .iter()
            .find(|c| c.kind == CuKind::Fragment && c.lines.contains(&6))
            .or_else(|| g.cus.iter().find(|c| c.covers(6) && c.start_line != 3));
        assert!(loop_cu.weight > 100, "loop weight: {}", loop_cu.weight);
        if let Some(t) = tail {
            assert!(loop_cu.weight > t.weight);
        }
    }
}

#[cfg(test)]
mod violation_tests {
    use super::*;
    use profiler::profile_program;
    /// Regression: body-declared locals must not be misclassified as
    /// induction variables, which would make the loop body violate
    /// read-compute-write and split spuriously.
    #[test]
    fn fig_3_4_loop_has_no_violations() {
        let src = "global int x;\nfn main() {\nfor (int i = 0; i < 8; i = i + 1) {\nint a = x + i / (x + 1);\nint b = x - i / (x + 1);\nx = a + b;\n}\n}";
        let p = Program::new(lang::compile(src, "t").unwrap());
        let out = profile_program(&p).unwrap();
        let input = CuBuildInput {
            program: &p,
            deps: &out.deps,
            pet: None,
        };
        let index = DepIndex::new(&p, &out.deps);
        let ctx = BuildCtx {
            program: &p,
            index: &index,
            weights: None,
        };
        let fb = FnBuilder::new(&ctx, 0);
        assert!(
            fb.violations[1].is_empty(),
            "loop region must satisfy read-compute-write: {:?}",
            fb.violations
        );
        let g = build_cu_graph_fine(&input);
        assert_eq!(
            g.cus.iter().filter(|c| c.region == 1).count(),
            1,
            "loop is exactly one CU: {:?}",
            g.cus
        );
    }
}

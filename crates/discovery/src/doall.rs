//! DOALL and DOACROSS loop detection (§4.1).

use cu::{Condensation, Cu, CuGraph, DepIndex, Partition};
use interp::Program;
use mir::{BinOp, Function, Instr, Operand, RegionKind};
use profiler::{Dep, DepSet, DepType, Pet};
use std::collections::BTreeSet;

/// A dynamic loop: static identity plus execution metrics from the PET.
#[derive(Debug, Clone, Copy)]
pub struct LoopInfo {
    /// Function index.
    pub func: u32,
    /// Region index within the function.
    pub region: u32,
    /// First source line (header).
    pub start_line: u32,
    /// Last source line.
    pub end_line: u32,
    /// Total iterations executed.
    pub iters: u64,
    /// Dynamic instructions executed inside (inclusive).
    pub dyn_instrs: u64,
}

/// Classification of a loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopClass {
    /// No loop-carried true dependence: iterations are independent.
    Doall,
    /// Carried dependences are all reductions: parallelizable with a
    /// reduction clause.
    Reduction,
    /// Genuine carried dependences, but the body decouples into stages:
    /// DOACROSS / pipeline candidate.
    Doacross,
    /// Carried dependences serialize the entire body.
    Sequential,
    /// The loop never executed (no dynamic information).
    NotExecuted,
}

impl LoopClass {
    /// Every class, in declaration order.
    pub const ALL: [LoopClass; 5] = [
        LoopClass::Doall,
        LoopClass::Reduction,
        LoopClass::Doacross,
        LoopClass::Sequential,
        LoopClass::NotExecuted,
    ];

    /// The class's name as reports carry it (the variant's name).
    pub fn as_str(self) -> &'static str {
        match self {
            LoopClass::Doall => "Doall",
            LoopClass::Reduction => "Reduction",
            LoopClass::Doacross => "Doacross",
            LoopClass::Sequential => "Sequential",
            LoopClass::NotExecuted => "NotExecuted",
        }
    }
}

impl std::fmt::Display for LoopClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for LoopClass {
    type Err = ();

    /// The inverse of [`LoopClass::as_str`].
    fn from_str(s: &str) -> Result<Self, ()> {
        Self::ALL.into_iter().find(|c| c.as_str() == s).ok_or(())
    }
}

/// The result of analysing one loop.
#[derive(Debug, Clone)]
pub struct LoopResult {
    /// The loop.
    pub info: LoopInfo,
    /// Classification.
    pub class: LoopClass,
    /// Carried true dependences blocking DOALL (after discounting
    /// induction and reduction variables).
    pub blocking: Vec<Dep>,
    /// Detected reduction variables (by name).
    pub reduction_vars: Vec<String>,
    /// Estimated pipeline stages for DOACROSS (0 when not applicable).
    pub pipeline_stages: usize,
}

/// All executed loops of the program, hottest (most dynamic instructions)
/// first.
pub fn hot_loops(program: &Program, pet: &Pet) -> Vec<LoopInfo> {
    let agg = pet.loops_aggregated();
    let mut v = Vec::new();
    for (fi, f) in program.module.functions.iter().enumerate() {
        for (ri, r) in f.regions.iter().enumerate() {
            if r.kind != RegionKind::Loop {
                continue;
            }
            let (_, iters, dyn_instrs) = agg
                .get(&(fi as u32, ri as u32))
                .copied()
                .unwrap_or((0, 0, 0));
            v.push(LoopInfo {
                func: fi as u32,
                region: ri as u32,
                start_line: r.start_line,
                end_line: r.end_line,
                iters,
                dyn_instrs,
            });
        }
    }
    v.sort_by_key(|l| std::cmp::Reverse(l.dyn_instrs));
    v
}

/// Is `line` a reduction update of variable `v` (named `var_name`) in `f`?
///
/// A reduction line loads the variable exactly once, stores it exactly
/// once, and the stored value is produced by an associative-commutative
/// operation (add, mul, min, max, and, or, xor) — the `sum += expr`
/// shapes the Intel compiler also resolves automatically (§1.3.3).
pub(crate) fn is_reduction_line(
    f: &Function,
    line: u32,
    var_name: &str,
    program: &Program,
) -> bool {
    let mut loads = Vec::new();
    let mut stores = Vec::new();
    let mut assoc_dsts: BTreeSet<u32> = BTreeSet::new();
    let mut coerce_map: Vec<(u32, u32)> = Vec::new(); // (dst, src reg)
    for (_, b) in f.iter_blocks() {
        for i in &b.instrs {
            if i.line() != line {
                continue;
            }
            match i {
                Instr::Load { dst, place, .. } if place_name(f, program, place) == var_name => {
                    loads.push(dst.0);
                }
                Instr::Store {
                    place,
                    src: Operand::Reg(r),
                    ..
                } if place_name(f, program, place) == var_name => {
                    stores.push(r.0);
                }
                Instr::Bin { dst, op, .. } => {
                    if matches!(
                        op,
                        BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
                    ) {
                        assoc_dsts.insert(dst.0);
                    }
                }
                Instr::Un {
                    dst,
                    src: Operand::Reg(r),
                    ..
                } => {
                    coerce_map.push((dst.0, r.0));
                }
                Instr::Call { dst, func, .. } => {
                    if matches!(func.as_str(), "min" | "max" | "fmin" | "fmax") {
                        if let Some(d) = dst {
                            assoc_dsts.insert(d.0);
                        }
                    }
                }
                _ => {}
            }
        }
    }
    if loads.len() != 1 || stores.len() != 1 {
        return false;
    }
    // The stored register must come (possibly through a coercion) from an
    // associative op.
    let mut r = stores[0];
    for _ in 0..4 {
        if assoc_dsts.contains(&r) {
            return true;
        }
        match coerce_map.iter().find(|(d, _)| *d == r) {
            Some(&(_, s)) => r = s,
            None => break,
        }
    }
    false
}

fn place_name<'a>(f: &'a Function, program: &'a Program, place: &mir::Place) -> &'a str {
    match place.var {
        mir::VarRef::Global(g) => &program.module.globals[g.index()].name,
        mir::VarRef::Local(l) => &f.locals[l.index()].name,
    }
}

/// Names of the loop's iteration variables (declared on the header line):
/// their carried dependences never block parallelization (§3.2.5).
fn induction_names(f: &Function, region: u32) -> BTreeSet<&str> {
    let r = &f.regions[region as usize];
    r.owned_locals
        .iter()
        .filter(|l| f.locals[l.index()].line == r.start_line)
        .map(|l| f.locals[l.index()].name.as_str())
        .collect()
}

/// Analyse one loop: DOALL / reduction / DOACROSS / sequential. Indexes
/// `deps` and builds the program's CU graph for this one loop: the tests'
/// one-loop entry, where [`crate::discover`] builds one [`LoopAnalyzer`]
/// for every loop.
#[cfg(test)]
pub(crate) fn analyze_loop(program: &Program, deps: &DepSet, info: &LoopInfo) -> LoopResult {
    let index = DepIndex::new(program, deps);
    let graph = cu::build_from_index(program, &index, None);
    let by_func = crate::by_function(program, &graph);
    LoopAnalyzer::new(program, &index, &graph, &by_func).analyze(info)
}

/// Loop classification over one program's dependence index and CU graph:
/// everything [`LoopAnalyzer::analyze`] needs besides the loop is a lookup
/// in the index, or, for a DOACROSS loop's stages, the loop body's CUs in
/// the graph that task discovery and ranking read too.
pub struct LoopAnalyzer<'a> {
    program: &'a Program,
    index: &'a DepIndex,
    graph: &'a CuGraph<Cu>,
    by_func: &'a Partition,
}

impl<'a> LoopAnalyzer<'a> {
    /// An analyzer over `program`'s indexed dependences and its CU graph;
    /// `by_func` is `graph` grouped by function ([`crate::by_function`]).
    pub fn new(
        program: &'a Program,
        index: &'a DepIndex,
        graph: &'a CuGraph<Cu>,
        by_func: &'a Partition,
    ) -> Self {
        LoopAnalyzer {
            program,
            index,
            graph,
            by_func,
        }
    }

    /// Analyse one loop: DOALL / reduction / DOACROSS / sequential.
    pub fn analyze(&self, info: &LoopInfo) -> LoopResult {
        let program = self.program;
        let f = &program.module.functions[info.func as usize];
        if info.iters == 0 {
            return LoopResult {
                info: *info,
                class: LoopClass::NotExecuted,
                blocking: Vec::new(),
                reduction_vars: Vec::new(),
                pipeline_stages: 0,
            };
        }
        let induction = induction_names(f, info.region);
        let mut blocking = Vec::new();
        let mut reduction_vars = BTreeSet::new();
        for &d in self.index.carried_raws((info.func, info.region)) {
            let name = program.symbol(d.var);
            if induction.contains(name) {
                continue;
            }
            // A reduction update must (a) be an associative read-modify-write
            // of the variable on one line, and (b) actually read and write the
            // *same address* within an iteration — witnessed by a same-line,
            // non-carried WAR. This separates `s += a[i]` and `h[b] += 1`
            // (reductions) from `a[i] = a[i-1] + 1` (a genuine recurrence,
            // which reads one element and writes another). And (c) no other
            // line of the body may read the running value: in
            // `s = s + a[i]; t[i] = s;` the partial sums are the output.
            if d.sink.line == d.source.line
                && self.index.has_same_line_war(d.sink.line, d.var)
                && !self
                    .index
                    .has_raw_leaving(d.sink.line, d.var, info.start_line, info.end_line)
                && is_reduction_line(f, d.sink.line, name, program)
            {
                reduction_vars.insert(name.to_string());
                continue;
            }
            blocking.push(d);
        }
        blocking.sort();
        blocking.dedup();

        let class = if blocking.is_empty() {
            if reduction_vars.is_empty() {
                LoopClass::Doall
            } else {
                LoopClass::Reduction
            }
        } else {
            // DOACROSS when the blocked lines leave independent work: compare
            // the set of lines touched by carried dependences with all body
            // lines that carry computation.
            let dep_lines: BTreeSet<u32> = blocking
                .iter()
                .flat_map(|d| [d.sink.line, d.source.line])
                .collect();
            let body_lines: BTreeSet<u32> = body_access_lines(f, info);
            let free = body_lines.difference(&dep_lines).count();
            if free > 0 {
                LoopClass::Doacross
            } else {
                LoopClass::Sequential
            }
        };

        let pipeline_stages = if class == LoopClass::Doacross {
            self.estimate_stages(info)
        } else {
            0
        };

        LoopResult {
            info: *info,
            class,
            blocking,
            reduction_vars: reduction_vars.into_iter().collect(),
            pipeline_stages,
        }
    }

    /// Pipeline stages of a DOACROSS body: take the CU subgraph of the
    /// body and count the topological layers of its condensation — each
    /// layer can form a stage (§4.1.2).
    fn estimate_stages(&self, info: &LoopInfo) -> usize {
        let inside = crate::cus_within(self.graph, self.by_func, info);
        if inside.is_empty() {
            return 1;
        }
        let body = Condensation::of_subgraph(&inside, &self.by_func.edges[info.func as usize]);
        body.layers().len().max(1)
    }
}

/// Lines inside the loop body (excluding the header) with memory accesses.
fn body_access_lines(f: &Function, info: &LoopInfo) -> BTreeSet<u32> {
    let mut lines = BTreeSet::new();
    for (_, b) in f.iter_blocks() {
        for i in &b.instrs {
            if i.is_memory_op() {
                let l = i.line();
                if l > info.start_line && l <= info.end_line {
                    lines.insert(l);
                }
            }
        }
    }
    lines
}

/// The sink lines of WAR/WAW dependences carried by a loop: candidates for
/// privatization advice in suggestions.
pub fn privatization_candidates(program: &Program, deps: &DepSet, info: &LoopInfo) -> Vec<String> {
    let mut names = BTreeSet::new();
    for (d, _) in deps.iter() {
        if matches!(d.ty, DepType::War | DepType::Waw)
            && d.carried_by == Some((info.func, info.region))
            && d.var != u32::MAX
        {
            names.insert(program.symbol(d.var).to_string());
        }
    }
    names.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use profiler::profile_program;

    fn analyze(src: &str) -> Vec<LoopResult> {
        let p = Program::new(lang::compile(src, "t").unwrap());
        let out = profile_program(&p).unwrap();
        hot_loops(&p, &out.pet)
            .into_iter()
            .map(|l| analyze_loop(&p, &out.deps, &l))
            .collect()
    }

    #[test]
    fn class_names_are_the_variant_names_and_parse_back() {
        for class in LoopClass::ALL {
            assert_eq!(class.as_str(), format!("{class:?}"));
            assert_eq!(class.to_string().parse(), Ok(class));
        }
        assert_eq!("doall".parse::<LoopClass>(), Err(()));
    }

    #[test]
    fn independent_loop_is_doall() {
        let r = analyze(
            "global int a[64];\nglobal int b[64];\nfn main() {\nfor (int i = 0; i < 64; i = i + 1) {\nb[i] = a[i] * 2 + 1;\n}\n}",
        );
        assert_eq!(r[0].class, LoopClass::Doall, "{:?}", r[0]);
        assert!(r[0].blocking.is_empty());
    }

    #[test]
    fn sum_loop_is_reduction() {
        let r = analyze(
            "global int a[64];\nglobal int s;\nfn main() {\nfor (int i = 0; i < 64; i = i + 1) {\ns = s + a[i];\n}\n}",
        );
        assert_eq!(r[0].class, LoopClass::Reduction, "{:?}", r[0]);
        assert_eq!(r[0].reduction_vars, vec!["s".to_string()]);
    }

    #[test]
    fn a_running_value_read_on_another_body_line_is_not_a_reduction() {
        // `b[i]` passes the one-line test on line 7, but line 8 reads the
        // value it stores: the outer loop is not a reduction on `b`.
        let r = analyze(
            "global int a[64];\nglobal int b[64];\nglobal int s;\nfn main() {\nfor (int r = 0; r < 4; r = r + 1) {\nfor (int i = 1; i < 64; i = i + 1) {\nb[i] = a[i - 1] + b[i];\ns = s + b[i];\n}\n}\n}",
        );
        let (outer, inner) = (&r[0], &r[1]);
        assert_eq!((outer.info.start_line, inner.info.start_line), (5, 6));
        assert_ne!(outer.class, LoopClass::Reduction, "{outer:?}");
        assert!(
            !outer.reduction_vars.contains(&"b".to_string()),
            "{outer:?}"
        );
        assert_eq!(inner.class, LoopClass::Reduction, "{inner:?}");
        assert_eq!(inner.reduction_vars, vec!["s".to_string()]);
    }

    #[test]
    fn a_scan_is_not_a_reduction() {
        let r = analyze(
            "global int a[64];\nglobal int t[64];\nglobal int s;\nfn main() {\nfor (int i = 0; i < 64; i = i + 1) {\ns = s + a[i];\nt[i] = s;\n}\n}",
        );
        assert_ne!(r[0].class, LoopClass::Reduction, "{:?}", r[0]);
        assert_ne!(r[0].class, LoopClass::Doall, "{:?}", r[0]);
        assert!(r[0].reduction_vars.is_empty(), "{:?}", r[0]);
    }

    #[test]
    fn compound_assign_reduction_detected() {
        let r = analyze(
            "global float x[32];\nglobal float p;\nfn main() {\np = 1.0;\nfor (int i = 0; i < 32; i = i + 1) {\np *= x[i] + 1.0;\n}\n}",
        );
        assert_eq!(r[0].class, LoopClass::Reduction, "{:?}", r[0]);
    }

    #[test]
    fn linked_recurrence_not_doall() {
        let r = analyze(
            "global int a[64];\nfn main() {\na[0] = 1;\nfor (int i = 1; i < 64; i = i + 1) {\na[i] = a[i - 1] + i;\n}\n}",
        );
        assert!(
            matches!(r[0].class, LoopClass::Doacross | LoopClass::Sequential),
            "{:?}",
            r[0]
        );
        assert!(!r[0].blocking.is_empty());
    }

    #[test]
    fn doacross_with_free_work_detected() {
        // A serialized accumulator plus independent heavy work per
        // iteration: DOACROSS candidate.
        let r = analyze(
            "global int a[64];\nglobal int b[64];\nglobal int state;\nfn main() {\nfor (int i = 0; i < 64; i = i + 1) {\nstate = state * 13 + i;\nstate = state % 1000;\nb[i] = a[i] * a[i] + i;\n}\n}",
        );
        assert_eq!(r[0].class, LoopClass::Doacross, "{:?}", r[0]);
        assert!(r[0].pipeline_stages >= 1);
    }

    #[test]
    fn min_reduction_via_builtin() {
        let r = analyze(
            "global int a[32];\nglobal int lo;\nfn main() {\nlo = 99999;\nfor (int i = 0; i < 32; i = i + 1) {\nlo = min(lo, a[i]);\n}\n}",
        );
        assert_eq!(r[0].class, LoopClass::Reduction, "{:?}", r[0]);
    }

    #[test]
    fn unexecuted_loop_flagged() {
        let r = analyze(
            "global int a[8];\nfn main() {\nint n = 0;\nfor (int i = 0; i < n; i = i + 1) {\na[i] = 1;\n}\n}",
        );
        assert_eq!(r[0].class, LoopClass::NotExecuted);
    }

    #[test]
    fn hot_loops_ordered_by_cost() {
        let src = "global int a[128];\nglobal int s;\nfn main() {\nfor (int i = 0; i < 4; i = i + 1) {\ns = s + i;\n}\nfor (int i = 0; i < 128; i = i + 1) {\na[i] = i * i;\n}\n}";
        let p = Program::new(lang::compile(src, "t").unwrap());
        let out = profile_program(&p).unwrap();
        let loops = hot_loops(&p, &out.pet);
        assert_eq!(loops.len(), 2);
        assert!(loops[0].dyn_instrs >= loops[1].dyn_instrs);
        assert_eq!(loops[0].start_line, 7, "the 128-iteration loop is hotter");
    }

    #[test]
    fn privatization_candidates_found() {
        let src = "global int a[32];\nglobal int tmp;\nfn main() {\nfor (int i = 0; i < 32; i = i + 1) {\ntmp = a[i] * 2;\na[i] = tmp + 1;\n}\n}";
        let p = Program::new(lang::compile(src, "t").unwrap());
        let out = profile_program(&p).unwrap();
        let loops = hot_loops(&p, &out.pet);
        let names = privatization_candidates(&p, &out.deps, &loops[0]);
        assert!(names.contains(&"tmp".to_string()), "{names:?}");
    }
}

//! Task parallelism: SPMD (§4.2.1) and MPMD (§4.2.2) detection.

use crate::doall::{LoopClass, LoopResult};
use cu::{Condensation, Cu, CuGraph, DepIndex, Partition};
use fxhash::FxHashMap;
use interp::Program;
use mir::{Function, Instr};

/// Kinds of SPMD-style task suggestions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpmdKind {
    /// A parallelizable loop whose body performs calls: each iteration
    /// becomes a task (BOTS `nqueens` pattern, Fig. 4.2).
    LoopTask,
    /// A fork–join group of sibling calls (same or different callees) inside
    /// one function: a maximal contiguous run of call sites, in instruction
    /// order, that are pairwise independent; each call becomes a task and
    /// the group joins after the last (BOTS `fib` pattern, Fig. 4.3).
    SiblingCalls,
}

/// One SPMD suggestion.
#[derive(Debug, Clone)]
pub struct SpmdSuggestion {
    /// What shape of task parallelism this is.
    pub kind: SpmdKind,
    /// Function containing the opportunity.
    pub func: u32,
    /// Source lines of the task bodies / call sites: for `LoopTask` the
    /// calls in the loop body, for `SiblingCalls` the group's two or more
    /// call sites in instruction order.
    pub lines: Vec<u32>,
    /// Callee names involved.
    pub callees: Vec<String>,
    /// For `LoopTask`: the loop header line.
    pub loop_line: Option<u32>,
}

/// One MPMD suggestion: a set of mutually independent condensed CU groups
/// that may execute as concurrent tasks (fork-join).
#[derive(Debug, Clone)]
pub struct MpmdSuggestion {
    /// Function the tasks live in (tasks spanning functions are reported
    /// under the caller).
    pub func: u32,
    /// For each task: the covered line span and its weight.
    pub tasks: Vec<MpmdTask>,
}

/// One task of an MPMD suggestion.
#[derive(Debug, Clone)]
pub struct MpmdTask {
    /// First line.
    pub start_line: u32,
    /// Last line.
    pub end_line: u32,
    /// Dynamic weight (instructions).
    pub weight: u64,
    /// CU ids merged into this task.
    pub cus: Vec<usize>,
}

/// Call sites of every function, in instruction order: `(line, callee
/// index)` for calls to user functions. Callee names are resolved here,
/// once per site, through one name table.
fn user_call_sites(program: &Program) -> Vec<Vec<(u32, usize)>> {
    let functions = &program.module.functions;
    let mut by_name: FxHashMap<&str, usize> = fxhash::map_with_capacity(functions.len());
    for (fi, f) in functions.iter().enumerate() {
        // The first function of a name is the one a call resolves to.
        by_name.entry(f.name.as_str()).or_insert(fi);
    }
    functions
        .iter()
        .map(|f| {
            let mut sites = Vec::new();
            for (_, b) in f.iter_blocks() {
                for i in &b.instrs {
                    if let Instr::Call { func, line, .. } = i {
                        if let Some(&callee) = by_name.get(func.as_str()) {
                            sites.push((*line, callee));
                        }
                    }
                }
            }
            sites
        })
        .collect()
}

/// The open sibling group of one function: which call lines and globals its
/// members cover, as stamps of the current `epoch`, so closing it is one
/// increment. A site conflicts with some member iff it conflicts with the
/// union of their sets, because intersection distributes over union.
struct OpenGroup {
    epoch: u32,
    lines: Vec<u32>,
    reads: Vec<u32>,
    writes: Vec<u32>,
}

impl OpenGroup {
    fn new(globals: usize, sites: &[Vec<(u32, usize)>]) -> OpenGroup {
        let max_line = sites.iter().flatten().map(|&(line, _)| line).max();
        OpenGroup {
            epoch: 1,
            lines: vec![0; max_line.map_or(0, |l| l as usize + 1)],
            reads: vec![0; globals],
            writes: vec![0; globals],
        }
    }

    fn covers(stamps: &[u32], i: usize, epoch: u32) -> bool {
        stamps.get(i) == Some(&epoch)
    }

    /// May the call at `line` (with local-flow `partners` lines and the
    /// callee's transitive global sets `reads` and `writes`) join every
    /// member of the group?
    fn admits(
        &self,
        line: u32,
        partners: &[u32],
        mut reads: impl Iterator<Item = usize>,
        mut writes: impl Iterator<Item = usize>,
    ) -> bool {
        let e = self.epoch;
        !Self::covers(&self.lines, line as usize, e)
            && !partners
                .iter()
                .any(|&p| Self::covers(&self.lines, p as usize, e))
            && !writes.any(|g| Self::covers(&self.reads, g, e) || Self::covers(&self.writes, g, e))
            && !reads.any(|g| Self::covers(&self.writes, g, e))
    }

    fn join(
        &mut self,
        line: u32,
        reads: impl Iterator<Item = usize>,
        writes: impl Iterator<Item = usize>,
    ) {
        let e = self.epoch;
        let stamp = |stamps: &mut [u32], i: usize| {
            if let Some(s) = stamps.get_mut(i) {
                *s = e;
            }
        };
        stamp(&mut self.lines, line as usize);
        for g in reads {
            stamp(&mut self.reads, g);
        }
        for g in writes {
            stamp(&mut self.writes, g);
        }
    }

    fn close(&mut self) {
        self.epoch += 1;
    }
}

/// The sorted, distinct callee names of `calls`.
fn callee_names(functions: &[Function], calls: &[(u32, usize)]) -> Vec<String> {
    let mut callees: Vec<String> = calls
        .iter()
        .map(|&(_, c)| functions[c].name.clone())
        .collect();
    callees.sort();
    callees.dedup();
    callees
}

/// Emit `group`, a closed run of sibling call sites in function `func`, if
/// it holds two or more: one fork–join group of tasks.
fn push_sibling_group(
    out: &mut Vec<SpmdSuggestion>,
    functions: &[Function],
    func: usize,
    group: &[(u32, usize)],
) {
    if group.len() < 2 {
        return;
    }
    out.push(SpmdSuggestion {
        kind: SpmdKind::SiblingCalls,
        func: func as u32,
        lines: group.iter().map(|&(line, _)| line).collect(),
        callees: callee_names(functions, group),
        loop_line: None,
    });
}

/// Detect SPMD-style tasks.
pub fn find_spmd_tasks(
    program: &Program,
    index: &DepIndex,
    loops: &[LoopResult],
) -> Vec<SpmdSuggestion> {
    let functions = &program.module.functions;
    let sites = user_call_sites(program);
    let mut out = Vec::new();

    // (a) Parallelizable loops containing calls: loop-of-tasks.
    for l in loops {
        if !matches!(l.class, LoopClass::Doall | LoopClass::Reduction) {
            continue;
        }
        let calls: Vec<(u32, usize)> = sites[l.info.func as usize]
            .iter()
            .copied()
            .filter(|(line, _)| *line > l.info.start_line && *line <= l.info.end_line)
            .collect();
        if !calls.is_empty() {
            out.push(SpmdSuggestion {
                kind: SpmdKind::LoopTask,
                func: l.info.func,
                lines: calls.iter().map(|(l, _)| *l).collect(),
                callees: callee_names(functions, &calls),
                loop_line: Some(l.info.start_line),
            });
        }
    }

    // (b) Independent sibling calls, as fork–join groups: each maximal
    // contiguous run of call sites that are pairwise independent under the
    // Bernstein condition (§1.2.1) — distinct lines, no flow between the
    // two call lines locally, and the callees' transitive global read/write
    // sets do not conflict.
    let effects = program.effects();
    let mut open = OpenGroup::new(program.module.globals.len(), &sites);
    for (fi, calls) in sites.iter().enumerate() {
        if calls.len() < 2 {
            continue;
        }
        // Local flow: a later call's line must not read what an earlier
        // call's line produced (`b = f(a)` after `a = f(x)`). The RAWs
        // `has_raw(min, max)` would find between two call lines, bucketed
        // by line once.
        let mut flow: FxHashMap<u32, Vec<u32>> = fxhash::map_with_capacity(calls.len());
        for &(line, _) in calls {
            flow.entry(line).or_default();
        }
        for d in index.raws_within(fi as u32) {
            let (lo, hi) = (d.source.line, d.sink.line);
            if lo < hi && flow.contains_key(&lo) && flow.contains_key(&hi) {
                flow.entry(lo).or_default().push(hi);
                flow.entry(hi).or_default().push(lo);
            }
        }
        let mut start = 0;
        for (i, &(line, callee)) in calls.iter().enumerate() {
            // The callee's transitive global sets, from the program's
            // effect table.
            let reads = || effects.reads.ones(callee);
            let writes = || effects.writes.ones(callee);
            let partners = flow.get(&line).map_or(&[][..], Vec::as_slice);
            if !open.admits(line, partners, reads(), writes()) {
                push_sibling_group(&mut out, functions, fi, &calls[start..i]);
                open.close();
                start = i;
            }
            open.join(line, reads(), writes());
        }
        push_sibling_group(&mut out, functions, fi, &calls[start..]);
        open.close();
    }
    out
}

/// Detect MPMD-style tasks: condense each function's CU graph (SCCs, then
/// chains — Fig. 4.5), lay it out topologically, and report every layer
/// with two or more independent groups as a set of concurrent tasks.
/// `by_func` is `graph` grouped by function ([`crate::by_function`]).
pub fn find_mpmd_tasks(graph: &CuGraph<Cu>, by_func: &Partition) -> Vec<MpmdSuggestion> {
    let mut out = Vec::new();
    for (fi, ids) in by_func.cus.iter().enumerate() {
        if ids.len() < 2 {
            continue;
        }
        let cond = Condensation::of_subgraph(ids, &by_func.edges[fi]);
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); cond.groups];
        for (c, &g) in cond.group.iter().enumerate() {
            members[g].push(ids[c]);
        }
        for layer in cond.layers() {
            if layer.len() < 2 {
                continue;
            }
            // Materialize each group of the layer as a task; a group is
            // numbered only once it has a member, so none is empty.
            let mut tasks: Vec<MpmdTask> = layer
                .iter()
                .map(|&g| {
                    let mut task = MpmdTask {
                        start_line: u32::MAX,
                        end_line: 0,
                        weight: 0,
                        cus: members[g].clone(),
                    };
                    for &c in &task.cus {
                        let cu = &graph.cus[c];
                        task.start_line = task.start_line.min(cu.start_line);
                        task.end_line = task.end_line.max(cu.end_line);
                        task.weight += cu.weight;
                    }
                    task
                })
                .collect();
            tasks.sort_by_key(|t| t.start_line);
            out.push(MpmdSuggestion {
                func: fi as u32,
                tasks,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doall::{analyze_loop, hot_loops};
    use profiler::profile_program;

    fn setup(src: &str) -> (Program, DepIndex, CuGraph<Cu>, Vec<LoopResult>) {
        let p = Program::new(lang::compile(src, "t").unwrap());
        let out = profile_program(&p).unwrap();
        let fine = cu::build_cu_graph_fine(&cu::CuBuildInput {
            program: &p,
            deps: &out.deps,
            pet: Some(&out.pet),
        });
        let loops: Vec<LoopResult> = hot_loops(&p, &out.pet)
            .into_iter()
            .map(|l| analyze_loop(&p, &out.deps, &l))
            .collect();
        let index = DepIndex::new(&p, &out.deps);
        (p, index, fine, loops)
    }

    /// The `fib` pattern (Fig. 4.3): two recursive calls whose results
    /// combine — the calls are independent tasks.
    #[test]
    fn fib_sibling_calls_found() {
        let src = "fn fib(int n) -> int {\nif (n < 2) { return n; }\nint a = fib(n - 1);\nint b = fib(n - 2);\nreturn a + b;\n}\nfn main() {\nint r = fib(10);\nprint(r);\n}";
        let (p, index, _graph, loops) = setup(src);
        let spmd = find_spmd_tasks(&p, &index, &loops);
        let sib: Vec<&SpmdSuggestion> = spmd
            .iter()
            .filter(|s| s.kind == SpmdKind::SiblingCalls)
            .collect();
        assert!(
            sib.iter()
                .any(|s| s.callees == vec!["fib".to_string()] && s.lines.len() == 2),
            "{spmd:?}"
        );
    }

    /// A DOALL loop calling a worker per iteration: loop-of-tasks (the
    /// `nqueens` shape of Fig. 4.2).
    #[test]
    fn loop_task_found() {
        let src = "global int out[16];\nfn work(int i) -> int {\nreturn i * i + 3;\n}\nfn main() {\nfor (int i = 0; i < 16; i = i + 1) {\nout[i] = work(i);\n}\n}";
        let (p, index, _graph, loops) = setup(src);
        let spmd = find_spmd_tasks(&p, &index, &loops);
        assert!(
            spmd.iter()
                .any(|s| s.kind == SpmdKind::LoopTask && s.callees == vec!["work".to_string()]),
            "{spmd:?}"
        );
    }

    /// Two independent phases writing different globals: MPMD tasks.
    #[test]
    fn mpmd_independent_phases() {
        let src = "global int a[32];\nglobal int b[32];\nfn main() {\nfor (int i = 0; i < 32; i = i + 1) {\na[i] = i * 2;\n}\nfor (int j = 0; j < 32; j = j + 1) {\nb[j] = j * 3;\n}\n}";
        let (p, _, graph, _) = setup(src);
        let mpmd = find_mpmd_tasks(&graph, &crate::by_function(&p, &graph));
        assert!(
            mpmd.iter().any(|m| m.tasks.len() >= 2),
            "two independent loops must yield concurrent tasks: {mpmd:?}"
        );
    }

    /// Dependent phases must NOT be suggested as concurrent.
    #[test]
    fn mpmd_respects_dependences() {
        let src = "global int a[32];\nglobal int b[32];\nfn main() {\nfor (int i = 0; i < 32; i = i + 1) {\na[i] = i * 2;\n}\nfor (int j = 0; j < 32; j = j + 1) {\nb[j] = a[j] * 3;\n}\n}";
        let (p, _, graph, _) = setup(src);
        let mpmd = find_mpmd_tasks(&graph, &crate::by_function(&p, &graph));
        // The two loops form a chain; no layer may contain both.
        for m in &mpmd {
            for t in &m.tasks {
                assert!(
                    !(t.start_line <= 4 && t.end_line >= 7),
                    "dependent loops merged into one concurrent layer: {mpmd:?}"
                );
            }
        }
    }

    /// Independent calls form one fork–join group until a call conflicts
    /// with a member; that call opens the next group.
    #[test]
    fn a_conflicting_call_closes_the_group_and_opens_the_next() {
        let src = "global int a;\nglobal int b;\nglobal int d;\nfn fa() { a = 1; }\nfn fb() { b = 2; }\nfn fc() -> int { return a + b; }\nfn fd() { d = 3; }\nfn main() {\nfa();\nfb();\nint r = fc();\nfd();\nprint(r);\n}";
        let (p, index, _graph, loops) = setup(src);
        let groups: Vec<(Vec<u32>, Vec<String>)> = find_spmd_tasks(&p, &index, &loops)
            .into_iter()
            .filter(|s| s.kind == SpmdKind::SiblingCalls)
            .map(|s| (s.lines, s.callees))
            .collect();
        let names = |n: &[&str]| n.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            groups,
            vec![
                (vec![9, 10], names(&["fa", "fb"])),
                (vec![11, 12], names(&["fc", "fd"])),
            ]
        );
    }

    #[test]
    fn dependent_sibling_calls_not_suggested() {
        // Second call consumes the first call's result through a global.
        let src = "global int acc;\nfn step1(int x) { acc = x * 2; }\nfn step2() -> int { return acc + 1; }\nfn main() {\nstep1(5);\nint r = step2();\nprint(r);\n}";
        let (p, index, _graph, loops) = setup(src);
        let spmd = find_spmd_tasks(&p, &index, &loops);
        assert!(
            !spmd.iter().any(|s| s.kind == SpmdKind::SiblingCalls
                && s.callees.contains(&"step1".to_string())
                && s.callees.contains(&"step2".to_string())),
            "{spmd:?}"
        );
    }
}

//! Global/local variable analysis per control region (§3.2.1).
//!
//! For a region `R`, a variable is *local* when it is declared inside `R`
//! (it cannot carry dependences across `R`'s boundary) and *global*
//! otherwise. Module globals are global to every region; function
//! parameters are global to the function body (they enter the read set,
//! §3.2.5). Loop iteration variables are local to their loop unless the
//! loop *body* writes them (§3.2.5).

use mir::{Function, Instr, Module, RegionId, VarRef};

/// Classification of one variable relative to a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarClass {
    /// Declared within the region (or an induction variable of it).
    Local,
    /// Lives beyond the region boundary.
    Global,
}

/// A variable as seen by CU analysis: module global or function local.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VarId {
    /// Module global by index.
    Global(u32),
    /// Function-local by (function, local) indices.
    Local(u32, u32),
}

/// Per-region variable facts for one function.
#[derive(Debug, Clone)]
pub struct RegionVars {
    /// For each region: the variables global to it, ascending.
    pub global_vars: Vec<Vec<VarId>>,
    /// `(line, variable)` of every read, ascending and distinct.
    pub reads: Vec<(u32, VarId)>,
    /// `(line, variable)` of every write, ascending and distinct.
    pub writes: Vec<(u32, VarId)>,
}

impl RegionVars {
    /// The `(line, variable)` pairs of `accesses` (`reads` or `writes`)
    /// on lines `start..=end`.
    pub fn on_lines(accesses: &[(u32, VarId)], start: u32, end: u32) -> &[(u32, VarId)] {
        let lo = accesses.partition_point(|&(l, _)| l < start);
        let hi = accesses.partition_point(|&(l, _)| l <= end);
        &accesses[lo..hi.max(lo)]
    }
}

/// The innermost region of `f` whose line span contains `line`. Regions are
/// syntactic in mini-C, so line containment is exact.
pub fn region_of_line(f: &Function, line: u32) -> RegionId {
    let mut best = RegionId(0);
    let mut best_span = u32::MAX;
    for (i, r) in f.regions.iter().enumerate() {
        if r.start_line <= line && line <= r.end_line {
            let span = r.end_line - r.start_line;
            if span < best_span {
                best_span = span;
                best = RegionId(i as u32);
            }
        }
    }
    best
}

/// True if `anc` is `r` or an ancestor of `r` in the region tree.
pub fn region_contains(f: &Function, anc: RegionId, r: RegionId) -> bool {
    let mut cur = Some(r);
    while let Some(c) = cur {
        if c == anc {
            return true;
        }
        cur = f.regions[c.index()].parent;
    }
    false
}

/// Compute per-region variable facts for function `func_idx` of `module`.
pub fn analyze(module: &Module, func_idx: u32) -> RegionVars {
    let f = &module.functions[func_idx as usize];
    let nregions = f.regions.len();
    // For each region: variables accessed anywhere within its line range.
    let mut accessed: Vec<Vec<VarId>> = vec![Vec::new(); nregions];
    let mut reads: Vec<(u32, VarId)> = Vec::new();
    let mut writes: Vec<(u32, VarId)> = Vec::new();

    let var_id = |v: VarRef| match v {
        VarRef::Global(g) => VarId::Global(g.0),
        VarRef::Local(l) => VarId::Local(func_idx, l.0),
    };

    for (_, b) in f.iter_blocks() {
        for i in &b.instrs {
            let (place, line, is_write) = match i {
                Instr::Load { place, line, .. } => (place, *line, false),
                Instr::Store { place, line, .. } => (place, *line, true),
                _ => continue,
            };
            let v = var_id(place.var);
            // Attribute the access to the innermost region of its line and
            // to every ancestor.
            let mut r = Some(region_of_line(f, line));
            while let Some(cur) = r {
                accessed[cur.index()].push(v);
                r = f.regions[cur.index()].parent;
            }
            if is_write {
                writes.push((line, v));
            } else {
                reads.push((line, v));
            }
        }
    }
    for list in &mut accessed {
        list.sort_unstable();
        list.dedup();
    }
    for list in [&mut reads, &mut writes] {
        list.sort_unstable();
        list.dedup();
    }

    // A variable is local to region R if it is declared in R or any region
    // nested inside R; otherwise it is global to R. Loop induction
    // variables (locals owned by a loop region) stay local unless written
    // by the loop *body* — i.e. on a line other than the loop's header
    // line (§3.2.5).
    let global_vars = accessed
        .iter()
        .enumerate()
        .map(|(ri, vars)| {
            let rid = RegionId(ri as u32);
            vars.iter()
                .copied()
                .filter(|&v| classify(module, func_idx, v, rid, &writes) == VarClass::Global)
                .collect()
        })
        .collect();

    RegionVars {
        global_vars,
        reads,
        writes,
    }
}

/// Classify variable `v` relative to region `rid` of `func_idx`; `writes`
/// is [`RegionVars::writes`].
pub fn classify(
    module: &Module,
    func_idx: u32,
    v: VarId,
    rid: RegionId,
    writes: &[(u32, VarId)],
) -> VarClass {
    let f = &module.functions[func_idx as usize];
    match v {
        VarId::Global(_) => VarClass::Global,
        VarId::Local(fi, li) => {
            debug_assert_eq!(fi, func_idx);
            let var = &f.locals[li as usize];
            // Parameters are global to the function body: they form the
            // read set of the function-level CU (§3.2.5).
            if var.is_param {
                return VarClass::Global;
            }
            let decl_region = var.region.unwrap_or(mir::RegionId(0));
            if !region_contains(f, rid, decl_region) {
                // Declared outside `rid`: global to it.
                return VarClass::Global;
            }
            // Declared inside. Loop *iteration* variables — declared on the
            // loop header line itself — are local unless written inside the
            // body (§3.2.5). Ordinary locals declared in the body are
            // simply local.
            let decl = &f.regions[decl_region.index()];
            if decl.kind == mir::RegionKind::Loop
                && f.regions[decl_region.index()]
                    .owned_locals
                    .contains(&mir::LocalId(li))
                && var.line == decl.start_line
            {
                let header = decl.start_line;
                let written_in_body = RegionVars::on_lines(writes, decl.start_line, decl.end_line)
                    .iter()
                    .any(|&(line, w)| line != header && w == v);
                if written_in_body {
                    return VarClass::Global;
                }
            }
            VarClass::Local
        }
    }
}

/// Human-readable name of a [`VarId`].
pub fn var_name(module: &Module, v: VarId) -> String {
    var_name_of(module, v).to_string()
}

/// [`var_name`], borrowed from the module.
pub fn var_name_of(module: &Module, v: VarId) -> &str {
    match v {
        VarId::Global(g) => &module.globals[g as usize].name,
        VarId::Local(f, l) => &module.functions[f as usize].locals[l as usize].name,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module(src: &str) -> Module {
        lang::compile(src, "t").unwrap()
    }

    #[test]
    fn innermost_region_selected() {
        let m = module(
            "fn main() {\nfor (int i = 0; i < 2; i = i + 1) {\nfor (int j = 0; j < 2; j = j + 1) {\nint x = 0;\n}\n}\n}",
        );
        let (_, f) = m.function("main").unwrap();
        // Line 4 is inside the inner loop (region 2).
        assert_eq!(region_of_line(f, 4), RegionId(2));
        // Line 2 is the outer loop header.
        assert_eq!(region_of_line(f, 2), RegionId(1));
    }

    #[test]
    fn induction_var_is_local_globals_are_global() {
        let m = module(
            "global int g;\nfn main() {\nfor (int i = 0; i < 4; i = i + 1) {\ng = g + i;\n}\n}",
        );
        let rv = analyze(&m, 0);
        let (_, f) = m.function("main").unwrap();
        let loop_region = f
            .regions
            .iter()
            .position(|r| r.kind == mir::RegionKind::Loop)
            .unwrap();
        let globals = &rv.global_vars[loop_region];
        // g is global to the loop; i is not.
        assert!(globals.iter().any(|&v| matches!(v, VarId::Global(0))));
        let i_local = f.local_by_name("i").unwrap();
        assert!(!globals.contains(&VarId::Local(0, i_local.0)));
    }

    #[test]
    fn induction_var_written_in_body_becomes_global() {
        let m = module("fn main() {\nfor (int i = 0; i < 4; i = i + 1) {\ni = i + 2;\n}\n}");
        let rv = analyze(&m, 0);
        let (_, f) = m.function("main").unwrap();
        let i_local = f.local_by_name("i").unwrap();
        let loop_region = f
            .regions
            .iter()
            .position(|r| r.kind == mir::RegionKind::Loop)
            .unwrap();
        assert!(
            rv.global_vars[loop_region].contains(&VarId::Local(0, i_local.0)),
            "i written in the body must be global to the loop"
        );
    }

    #[test]
    fn outer_local_is_global_to_inner_loop() {
        let m = module(
            "fn main() {\nint acc = 0;\nfor (int i = 0; i < 4; i = i + 1) {\nacc = acc + i;\n}\n}",
        );
        let rv = analyze(&m, 0);
        let (_, f) = m.function("main").unwrap();
        let acc = f.local_by_name("acc").unwrap();
        let loop_region = f
            .regions
            .iter()
            .position(|r| r.kind == mir::RegionKind::Loop)
            .unwrap();
        assert!(rv.global_vars[loop_region].contains(&VarId::Local(0, acc.0)));
        // But acc is local to the function body (declared there).
        assert!(!rv.global_vars[0].contains(&VarId::Local(0, acc.0)));
    }

    #[test]
    fn params_global_to_body() {
        let m = module("fn f(int n) -> int {\nreturn n + 1;\n}\nfn main() {\nint x = f(3);\n}");
        let rv = analyze(&m, 0);
        assert!(rv.global_vars[0]
            .iter()
            .any(|&v| matches!(v, VarId::Local(0, _))));
    }
}

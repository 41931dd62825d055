//! Static MIR dependence analysis for the DiscoPoP pipeline.
//!
//! This crate answers, before a single instruction executes, three
//! questions the dynamic profiler otherwise answers at full runtime cost:
//!
//! 1. **Affine classification** — for each memory access inside a loop
//!    nest, can its element index be written `base + Σ stride·iter`? The
//!    classifier ([`classify`]) symbolically evaluates index expressions
//!    over recognized induction variables ([`loops`]) and loop-invariant
//!    symbols.
//! 2. **Independence proofs** — for affine pairs on the same variable,
//!    GCD/Banerjee-style tests ([`indep`]) prove the absence of
//!    loop-carried dependences. Every proof becomes a [`Claim`] that the
//!    dynamic cross-check can falsify (and, by design, never does).
//! 3. **Lints** — possibly-uninitialized reads, provably out-of-bounds
//!    indices, and static race hints for threaded programs ([`lint`]).
//!
//! The one entry point is [`analyze`], and it runs once per program: the
//! interpreter's decode calls it and keeps the call-graph [`Effects`] and
//! the [`StaticReport`], after compiling the affine skip tier's plans from
//! the classified accesses and the loops' trip counts.
//!
//! The pass is linear in the module. Every set over globals, locals or
//! functions — a function's transitive effects, a loop's stores — is a
//! packed `u64` bit row ([`BitRows`]), combined a word at a time. Calls
//! resolve through one name table per module ([`FunctionIndex`]). The
//! access list is in program order, so each function's accesses are one
//! contiguous run that the per-function passes take as a slice, and each
//! function's evaluator is built once per pass.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod affine;
pub mod bits;
pub mod classify;
pub mod effects;
pub mod indep;
pub mod lint;
pub mod loops;

pub use affine::{Affine, Term};
pub use bits::BitRows;
pub use classify::{AccessInfo, VarKey};
pub use effects::{Effects, FunctionIndex, SpawnSite};
pub use indep::{Claim, LoopReport};
pub use lint::{Lint, LintKind};
pub use loops::{FuncLoops, IndVar, LoopInfo};

use mir::{FuncId, Module};

/// Full static analysis of one module: what later passes read (the loops,
/// effects and classified accesses) and the report a `--static` job prints.
#[derive(Debug)]
pub struct ModuleAnalysis {
    /// Per-function loop nests, indexed by function.
    pub loops: Vec<FuncLoops>,
    /// Transitive call-graph effects.
    pub effects: Effects,
    /// Every memory access in program order (static op-id order).
    pub accesses: Vec<AccessInfo>,
    /// Per-loop coverage, independence claims and lints.
    pub report: StaticReport,
}

impl ModuleAnalysis {
    /// Accesses belonging to one function: its contiguous run of
    /// [`ModuleAnalysis::accesses`].
    pub fn accesses_of(&self, func: FuncId) -> &[AccessInfo] {
        classify::accesses_of(&self.accesses, func)
    }
}

/// The static pass's findings: per-loop affine coverage,
/// statically-proven independence claims, and lint findings.
#[derive(Debug, Clone)]
pub struct StaticReport {
    /// Per-loop affine coverage and independence statistics.
    pub loops: Vec<LoopReport>,
    /// Proven-independent `(loop, var, line pair)` claims — each one a
    /// falsifiable prediction about the dynamic profile.
    pub claims: Vec<Claim>,
    /// Lint findings (uninitialized reads, out-of-bounds indices, race
    /// hints).
    pub lints: Vec<Lint>,
    /// The module spawns threads, so claims were suppressed.
    pub spawns_threads: bool,
}

impl StaticReport {
    /// Run the static pass over a module and keep its report.
    pub fn of(module: &Module) -> StaticReport {
        analyze(module).report
    }

    /// `(affine_ops, mem_ops)` summed over every loop.
    pub fn coverage(&self) -> (u32, u32) {
        self.loops
            .iter()
            .fold((0, 0), |(a, m), r| (a + r.affine_ops, m + r.mem_ops))
    }

    /// Fraction of in-loop memory ops proven affine (1.0 for loop-free
    /// programs).
    pub fn affine_fraction(&self) -> f64 {
        let (a, m) = self.coverage();
        if m == 0 {
            1.0
        } else {
            f64::from(a) / f64::from(m)
        }
    }

    /// Heap bytes held by the report's rows and their strings.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let rows = self.loops.capacity() * size_of::<LoopReport>()
            + self.claims.capacity() * size_of::<Claim>()
            + self.lints.capacity() * size_of::<Lint>();
        let strings = self
            .loops
            .iter()
            .map(|l| l.func_name.capacity())
            .sum::<usize>()
            + self
                .claims
                .iter()
                .map(|c| c.var_name.capacity())
                .sum::<usize>()
            + self
                .lints
                .iter()
                .map(|l| l.func.capacity() + l.var.capacity() + l.message.capacity())
                .sum::<usize>();
        rows + strings
    }
}

/// Run the full static pipeline over a module.
pub fn analyze(module: &Module) -> ModuleAnalysis {
    let loops: Vec<FuncLoops> = module.functions.iter().map(loops::find_loops).collect();
    let index = FunctionIndex::of(module);
    let effects = Effects::resolved(module, &index);
    let spawns_threads = indep::module_spawns(module);
    let mut accesses = Vec::new();
    let mut loop_reports = Vec::new();
    let mut claims = Vec::new();
    for (fi, floops) in loops.iter().enumerate() {
        let func = FuncId(fi as u32);
        let mut ev = classify::Evaluator::new(module, func, floops, &effects, &index);
        let start = accesses.len();
        classify::collect_function(&mut ev, &mut accesses);
        let fi_out = indep::analyze_function(
            module,
            func,
            floops,
            &accesses[start..],
            &ev,
            spawns_threads,
        );
        loop_reports.extend(fi_out.loops);
        claims.extend(fi_out.claims);
    }
    let lints = lint::lint_module(module, &loops, &accesses, &effects);
    ModuleAnalysis {
        loops,
        effects,
        accesses,
        report: StaticReport {
            loops: loop_reports,
            claims,
            lints,
            spawns_threads,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str) -> Module {
        lang::compile(src, "t").expect("test source compiles")
    }

    #[test]
    fn classifies_a_simple_doall_loop() {
        let m = compile(
            "global int a[16];\n\
             fn main() {\n\
                 for (int i = 0; i < 16; i = i + 1) {\n\
                     a[i] = i;\n\
                 }\n\
             }\n",
        );
        let an = analyze(&m);
        let (aff, mem) = an.report.coverage();
        assert!(mem > 0, "loop has memory ops");
        assert_eq!(aff, mem, "all accesses classify affine: {:#?}", an.accesses);
        let lr = an
            .report
            .loops
            .iter()
            .find(|r| r.mem_ops > 0)
            .expect("loop report");
        assert!(lr.has_iv);
        assert_eq!(lr.trip_count, Some(16));
        assert!(lr.doall_candidate, "a[i] = i is doall: {lr:#?}");
        // The store is the only access to `a` per line; the i-claims are
        // exempt... but the a-store pair (with itself at distance 0 in
        // stride 1) must be proven independent.
        assert!(
            an.report.claims.iter().any(|c| c.var_name == "a"),
            "claims: {:#?}",
            an.report.claims
        );
    }

    #[test]
    fn carried_dependence_is_never_claimed() {
        let m = compile(
            "global int a[16];\n\
             fn main() {\n\
                 for (int i = 1; i < 16; i = i + 1) {\n\
                     a[i] = a[i - 1];\n\
                 }\n\
             }\n",
        );
        let an = analyze(&m);
        assert!(
            !an.report.claims.iter().any(|c| c.var_name == "a"),
            "a[i] = a[i-1] carries a dependence, claims: {:#?}",
            an.report.claims
        );
        let lr = an
            .report
            .loops
            .iter()
            .find(|r| r.mem_ops > 0)
            .expect("loop report");
        assert!(!lr.doall_candidate);
    }

    #[test]
    fn strided_disjoint_accesses_are_proven() {
        // Writes hit even elements, reads hit odd: provably disjoint by
        // the GCD test.
        let m = compile(
            "global int a[32];\n\
             global int s;\n\
             fn main() {\n\
                 for (int i = 0; i < 16; i = i + 1) {\n\
                     a[2 * i] = a[2 * i + 1];\n\
                 }\n\
             }\n",
        );
        let an = analyze(&m);
        assert!(
            an.report.claims.iter().any(|c| c.var_name == "a"),
            "even/odd strides never collide, claims: {:#?}",
            an.report.claims
        );
    }

    #[test]
    fn reduction_scalar_blocks_doall_but_iv_does_not() {
        let m = compile(
            "global int a[16];\n\
             global int s;\n\
             fn main() {\n\
                 for (int i = 0; i < 16; i = i + 1) {\n\
                     s = s + a[i];\n\
                 }\n\
             }\n",
        );
        let an = analyze(&m);
        let lr = an
            .report
            .loops
            .iter()
            .find(|r| r.mem_ops > 0)
            .expect("loop report");
        assert!(
            !lr.doall_candidate,
            "the `s` reduction carries a dependence: {lr:#?}"
        );
        assert!(
            !an.report.claims.iter().any(|c| c.var_name == "s"),
            "s = s + ... must not be claimed independent"
        );
    }

    #[test]
    fn spawning_modules_get_no_claims() {
        let m = compile(
            "global int a[16];\n\
             fn worker() {\n\
                 for (int i = 0; i < 16; i = i + 1) { a[i] = i; }\n\
             }\n\
             fn main() {\n\
                 int t = spawn(worker);\n\
                 join(t);\n\
             }\n",
        );
        let an = analyze(&m);
        assert!(an.report.spawns_threads);
        assert!(
            an.report.claims.is_empty(),
            "claims: {:#?}",
            an.report.claims
        );
        assert!(
            an.report.lints.iter().any(|l| l.kind == LintKind::RaceHint)
                || an.effects.spawns.len() == 1,
            "spawn site resolved"
        );
    }

    #[test]
    fn lints_flag_oob_and_uninit() {
        let m = compile(
            "global int a[4];\n\
             fn main() {\n\
                 int x;\n\
                 int y = x + 1;\n\
                 a[9] = y;\n\
             }\n",
        );
        let an = analyze(&m);
        assert!(
            an.report.lints.iter().any(|l| l.kind == LintKind::ConstOob),
            "lints: {:#?}",
            an.report.lints
        );
    }

    #[test]
    fn loops_carry_trip_counts_by_region() {
        let m = compile(
            "global int a[16];\n\
             fn main() {\n\
                 for (int i = 0; i < 16; i = i + 1) { a[i] = i; }\n\
             }\n",
        );
        let an = analyze(&m);
        assert_eq!(an.loops.len(), m.functions.len());
        let regions = m.functions[0].regions.len();
        assert_eq!(an.loops[0].by_region.len(), regions);
        let trips: Vec<u64> = (0..regions)
            .filter_map(|r| an.loops[0].trip_count(mir::RegionId(r as u32)))
            .collect();
        assert_eq!(trips, vec![16], "the counted for-loop is the only loop");
    }
}

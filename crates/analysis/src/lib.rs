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
//! The entry point is [`analyze`]; [`static_facts`] derives the compact
//! per-op fact table, loop trip counts and call-graph [`Effects`] the
//! interpreter attaches to decoded programs.
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

/// Full static analysis of one module.
#[derive(Debug)]
pub struct ModuleAnalysis {
    /// Per-function loop nests, indexed by function.
    pub loops: Vec<FuncLoops>,
    /// Transitive call-graph effects.
    pub effects: Effects,
    /// Every memory access in program order (static op-id order).
    pub accesses: Vec<AccessInfo>,
    /// Per-loop coverage and independence reports.
    pub loop_reports: Vec<LoopReport>,
    /// Proven-independent claims, checkable against dynamic dependences.
    pub claims: Vec<Claim>,
    /// Lint findings.
    pub lints: Vec<Lint>,
    /// Whether the module spawns threads (suppresses claims: thread
    /// interleavings are outside this pass's sequential model).
    pub spawns_threads: bool,
}

impl ModuleAnalysis {
    /// Accesses belonging to one function: its contiguous run of
    /// [`ModuleAnalysis::accesses`].
    pub fn accesses_of(&self, func: FuncId) -> &[AccessInfo] {
        classify::accesses_of(&self.accesses, func)
    }

    /// Affine coverage across all loops: `(affine_ops, mem_ops)`.
    pub fn coverage(&self) -> (u32, u32) {
        self.loop_reports
            .iter()
            .fold((0, 0), |(a, m), r| (a + r.affine_ops, m + r.mem_ops))
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
        loop_reports,
        claims,
        lints,
        spawns_threads,
    }
}

/// Compact per-memory-op static fact, aligned with the interpreter's
/// decode-time op ids (program order over `Load`/`Store` instructions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessFact {
    /// The access index classified affine.
    pub affine: bool,
    /// Provably constant element index.
    pub const_index: Option<i64>,
    /// Stride along the innermost enclosing loop, when affine inside a
    /// loop (0 = invariant address across that loop's iterations).
    pub stride: Option<i64>,
}

/// The combined static export the interpreter's decode consumes: the
/// per-op fact table plus, per function, the statically known loop trip
/// counts indexed by region id. Both halves come from one loop-discovery
/// pass, so they describe the same loops.
#[derive(Debug, Clone)]
pub struct StaticFacts {
    /// One [`AccessFact`] per static memory op, in program order (the
    /// interpreter's decode-time op-id order).
    pub access: Vec<AccessFact>,
    /// Per function, indexed by region id: the loop's static trip count
    /// when the region is a recognized loop with a provable count
    /// (`Some(n)`), `None` for non-loop regions and unknown counts.
    pub trip_counts: Vec<Vec<Option<u64>>>,
    /// The module's transitive call-graph effects, computed once here for
    /// the classifier and kept for the program's later passes.
    pub effects: Effects,
}

/// Derive the full static export for a module: per-op access facts and
/// per-region loop trip counts (the affine skip tier's eligibility inputs),
/// with the call-graph effects they were classified under.
pub fn static_facts(module: &Module) -> StaticFacts {
    let loops: Vec<FuncLoops> = module.functions.iter().map(loops::find_loops).collect();
    let index = FunctionIndex::of(module);
    let effects = Effects::resolved(module, &index);
    let accesses = classify::collect_accesses(module, &loops, &effects, &index);
    let access = accesses
        .iter()
        .map(|a| {
            let aff = a.index.as_ref();
            let stride = aff.and_then(|x| {
                let li = *a.chain.last()?;
                let region = loops[a.func.index()].loops[li].region;
                Some(x.coef(Term::Iter(region)))
            });
            AccessFact {
                affine: aff.is_some(),
                const_index: aff.and_then(|x| x.as_constant()),
                stride,
            }
        })
        .collect();
    let trip_counts = module
        .functions
        .iter()
        .zip(&loops)
        .map(|(f, fl)| {
            (0..f.regions.len())
                .map(|r| {
                    fl.by_region[r]
                        .and_then(|li| fl.loops[li].iv.as_ref())
                        .and_then(|iv| iv.trip_count)
                })
                .collect()
        })
        .collect();
    StaticFacts {
        access,
        trip_counts,
        effects,
    }
}

/// Derive the fact table for a module, one entry per static memory op in
/// program order.
pub fn access_facts(module: &Module) -> Vec<AccessFact> {
    static_facts(module).access
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
        let (aff, mem) = an.coverage();
        assert!(mem > 0, "loop has memory ops");
        assert_eq!(aff, mem, "all accesses classify affine: {:#?}", an.accesses);
        let lr = an
            .loop_reports
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
            an.claims.iter().any(|c| c.var_name == "a"),
            "claims: {:#?}",
            an.claims
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
            !an.claims.iter().any(|c| c.var_name == "a"),
            "a[i] = a[i-1] carries a dependence, claims: {:#?}",
            an.claims
        );
        let lr = an
            .loop_reports
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
            an.claims.iter().any(|c| c.var_name == "a"),
            "even/odd strides never collide, claims: {:#?}",
            an.claims
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
            .loop_reports
            .iter()
            .find(|r| r.mem_ops > 0)
            .expect("loop report");
        assert!(
            !lr.doall_candidate,
            "the `s` reduction carries a dependence: {lr:#?}"
        );
        assert!(
            !an.claims.iter().any(|c| c.var_name == "s"),
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
        assert!(an.spawns_threads);
        assert!(an.claims.is_empty(), "claims: {:#?}", an.claims);
        assert!(
            an.lints.iter().any(|l| l.kind == LintKind::RaceHint) || an.effects.spawns.len() == 1,
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
            an.lints.iter().any(|l| l.kind == LintKind::ConstOob),
            "lints: {:#?}",
            an.lints
        );
    }

    #[test]
    fn static_facts_export_trip_counts_by_region() {
        let m = compile(
            "global int a[16];\n\
             fn main() {\n\
                 for (int i = 0; i < 16; i = i + 1) { a[i] = i; }\n\
             }\n",
        );
        let sf = static_facts(&m);
        assert_eq!(sf.access, access_facts(&m), "wrapper agrees with export");
        assert_eq!(sf.trip_counts.len(), m.functions.len());
        assert_eq!(sf.trip_counts[0].len(), m.functions[0].regions.len());
        let trips: Vec<u64> = sf.trip_counts[0].iter().flatten().copied().collect();
        assert_eq!(trips, vec![16], "the counted for-loop is the only loop");
    }

    #[test]
    fn access_facts_align_with_program_order() {
        let m = compile(
            "global int a[16];\n\
             fn main() {\n\
                 for (int i = 0; i < 16; i = i + 1) { a[i] = a[i] + 1; }\n\
             }\n",
        );
        let facts = access_facts(&m);
        let mut n = 0;
        for f in &m.functions {
            for b in &f.blocks {
                n += b.instrs.iter().filter(|i| i.is_memory_op()).count();
            }
        }
        assert_eq!(facts.len(), n);
        // The a[i] accesses are affine with stride 1 along the loop.
        assert!(facts.iter().any(|f| f.affine && f.stride == Some(1)));
    }
}

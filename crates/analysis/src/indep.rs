//! The static dependence pre-pass: GCD/Banerjee-style independence tests
//! over classified affine access pairs, per loop.
//!
//! For a pair of accesses to the same variable inside loop `L`, we ask
//! whether two *different* iterations of the same dynamic instance of `L`
//! can touch the same element. The iteration vectors of loops enclosing
//! `L` are shared between the two sides (a dependence carried by `L` has
//! equal outer iterations — exactly the dynamic profiler's lowest-common-
//! ancestor rule), loops nested inside `L` range independently on each
//! side, and loop-invariant symbols cancel where coefficients agree. A
//! claim is emitted only when *no* integer solution exists, so every claim
//! is sound by construction; the dynamic cross-check enforces exactly this.

use crate::affine::Term;
use crate::classify::{AccessInfo, Evaluator, VarKey};
use crate::loops::FuncLoops;
use mir::{FuncId, Module, RegionId};
use std::collections::BTreeMap;

/// A statically-proven independence: no dependence of any type on
/// `var_name` between source lines `line_a ≤ line_b` can be carried by
/// loop `(func, region)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Claim {
    /// Function containing the loop.
    pub func: FuncId,
    /// The carrying loop's region.
    pub region: RegionId,
    /// Source-level variable name (the profiler's symbol).
    pub var_name: String,
    /// Smaller line of the proven pair.
    pub line_a: u32,
    /// Larger line of the proven pair.
    pub line_b: u32,
}

/// Static per-loop summary for the report.
#[derive(Debug, Clone)]
pub struct LoopReport {
    /// Function containing the loop.
    pub func: FuncId,
    /// Function name.
    pub func_name: String,
    /// Loop region id.
    pub region: RegionId,
    /// First source line.
    pub start_line: u32,
    /// Last source line.
    pub end_line: u32,
    /// Static memory operations inside the loop.
    pub mem_ops: u32,
    /// Of those, how many classified affine (scalar places count: their
    /// address is `base + 0`).
    pub affine_ops: u32,
    /// Whether a canonical IV was recognized.
    pub has_iv: bool,
    /// Constant trip count, when provable.
    pub trip_count: Option<u64>,
    /// Same-variable pairs (≥ 1 write) subjected to the independence test.
    pub tested_pairs: u32,
    /// Pairs proven independent.
    pub proven_pairs: u32,
    /// Whether every cross-iteration conflict was statically excluded
    /// (IVs and inner-region-scoped scalars exempt — their lifetimes bound
    /// them to one iteration).
    pub doall_candidate: bool,
}

/// One free integer variable of the difference equation.
struct VarTerm {
    coef: i64,
    /// Inclusive value range; `None` = unbounded.
    range: Option<(i64, i64)>,
}

/// Can `d0 + Σ coef·x` be zero for some assignment within ranges?
/// `false` is a proof of "no": GCD test, then interval (Banerjee) test.
fn solvable(vars: &[VarTerm], d0: i64) -> bool {
    let active: Vec<&VarTerm> = vars.iter().filter(|v| v.coef != 0).collect();
    if active.is_empty() {
        return d0 == 0;
    }
    let g = active.iter().fold(0i64, |g, v| gcd(g, v.coef.abs()));
    if g != 0 && d0 % g != 0 {
        return false;
    }
    let mut lo = d0 as i128;
    let mut hi = d0 as i128;
    for v in &active {
        match v.range {
            Some((a, b)) => {
                let (p, q) = (v.coef as i128 * a as i128, v.coef as i128 * b as i128);
                lo += p.min(q);
                hi += p.max(q);
            }
            None => return true, // unbounded: the interval test cannot help
        }
    }
    lo <= 0 && 0 <= hi
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The relation of loop `r` (a chain member) to the tested loop `l`.
enum Rel {
    /// `r` is `l` itself.
    This,
    /// `r` strictly encloses `l`: iterations shared between the sides.
    Outer,
    /// `r` is strictly inside `l`: iterations independent per side.
    Inner,
}

/// Test one access pair for `l`-carried independence. Returns `true` when
/// the pair is proven independent across iterations of `l`.
fn pair_independent(p: &AccessInfo, q: &AccessInfo, l: usize, loops: &FuncLoops) -> bool {
    let (Some(ap), Some(aq)) = (&p.index, &q.index) else {
        return false;
    };
    let lp = &loops.loops[l];
    let n_l = lp.iv.as_ref().and_then(|iv| iv.trip_count);
    let rel = |r: RegionId| -> Option<Rel> {
        let li = loops.of_region(r)?;
        if li == l {
            return Some(Rel::This);
        }
        // Walk parents of li: if we reach l, li is inside l.
        let mut x = li;
        while let Some(par) = loops.loops[x].parent {
            if par == l {
                return Some(Rel::Inner);
            }
            x = par;
        }
        // Both loops are on the access chains and comparable; not inside
        // means it encloses `l`.
        Some(Rel::Outer)
    };

    let iter_range = |li: usize| -> Option<(i64, i64)> {
        let n = loops.loops[li].iv.as_ref().and_then(|iv| iv.trip_count)?;
        if n == 0 {
            return Some((0, 0));
        }
        Some((0, i64::try_from(n - 1).ok()?))
    };

    let Some(diff) = ap.sub(aq) else { return false };
    let mut c_l = 0i64; // shared-coefficient case uses the difference
    let (mut cl_p, mut cl_q) = (0i64, 0i64);
    let mut shared_equal = true;
    let mut vars: Vec<VarTerm> = Vec::new();
    // Terms of the union; use per-side coefficients where sides range
    // independently.
    let mut keys: Vec<Term> = ap.terms.keys().chain(aq.terms.keys()).copied().collect();
    keys.sort_unstable();
    keys.dedup();
    for t in keys {
        let (cp, cq) = (ap.coef(t), aq.coef(t));
        match t {
            Term::Iter(r) => match rel(r) {
                Some(Rel::This) => {
                    cl_p = cp;
                    cl_q = cq;
                    if cp == cq {
                        c_l = cp;
                    } else {
                        shared_equal = false;
                    }
                }
                Some(Rel::Outer) => {
                    let li = match loops.of_region(r) {
                        Some(x) => x,
                        None => return false,
                    };
                    vars.push(VarTerm {
                        coef: match cp.checked_sub(cq) {
                            Some(c) => c,
                            None => return false,
                        },
                        range: iter_range(li),
                    });
                }
                Some(Rel::Inner) => {
                    let li = match loops.of_region(r) {
                        Some(x) => x,
                        None => return false,
                    };
                    vars.push(VarTerm {
                        coef: cp,
                        range: iter_range(li),
                    });
                    vars.push(VarTerm {
                        coef: match cq.checked_neg() {
                            Some(c) => c,
                            None => return false,
                        },
                        range: iter_range(li),
                    });
                }
                None => return false,
            },
            Term::IvBase(r) => match rel(r) {
                // Fixed per loop instance: shared for `l` and enclosing
                // loops, independent per side for inner loops.
                Some(Rel::This) | Some(Rel::Outer) => vars.push(VarTerm {
                    coef: match cp.checked_sub(cq) {
                        Some(c) => c,
                        None => return false,
                    },
                    range: None,
                }),
                Some(Rel::Inner) => {
                    vars.push(VarTerm {
                        coef: cp,
                        range: None,
                    });
                    vars.push(VarTerm {
                        coef: match cq.checked_neg() {
                            Some(c) => c,
                            None => return false,
                        },
                        range: None,
                    });
                }
                None => return false,
            },
            Term::InvLocal(_) | Term::InvGlobal(_) => vars.push(VarTerm {
                coef: match cp.checked_sub(cq) {
                    Some(c) => c,
                    None => return false,
                },
                range: None,
            }),
        }
    }
    let d0 = diff.constant;

    if shared_equal {
        let c = c_l;
        if c == 0 {
            // The pair does not advance with `l`: independent across
            // iterations only if no aliasing is possible at all.
            return !solvable(&vars, d0);
        }
        // c·d + Σ coef·x + d0 = 0 with d = iter_p − iter_q ≠ 0.
        // GCD over {c} ∪ coefs:
        let g = vars
            .iter()
            .map(|v| v.coef)
            .chain([c])
            .filter(|&k| k != 0)
            .fold(0i64, |g, k| gcd(g, k.abs()));
        if g != 0 && d0 % g != 0 {
            return true;
        }
        // Residual range R = d0 + Σ coef·x.
        let mut lo = d0 as i128;
        let mut hi = d0 as i128;
        let mut bounded = true;
        for v in &vars {
            if v.coef == 0 {
                continue;
            }
            match v.range {
                Some((a, b)) => {
                    let (p2, q2) = (v.coef as i128 * a as i128, v.coef as i128 * b as i128);
                    lo += p2.min(q2);
                    hi += p2.max(q2);
                }
                None => {
                    bounded = false;
                    break;
                }
            }
        }
        if bounded {
            let ca = c.unsigned_abs() as i128;
            // Hole test: |c·d| ≥ |c| for every d ≠ 0, so a residual that
            // cannot reach magnitude |c| never cancels it.
            if hi < ca && lo > -ca {
                return true;
            }
            // Bound test: |c·d| ≤ (N−1)·|c| when the trip count is known.
            if let Some(n) = n_l {
                let m = ca * (n.saturating_sub(1)) as i128;
                if lo > m || hi < -m {
                    return true;
                }
            }
            // Exact distance when the residual is a single value.
            if lo == hi {
                let r = lo;
                if r % (c as i128) == 0 {
                    let d = -(r / c as i128);
                    if d == 0 {
                        return true; // same-iteration collision only
                    }
                    if let Some(n) = n_l {
                        if d.unsigned_abs() > (n.saturating_sub(1)) as u128 {
                            return true;
                        }
                    }
                }
            }
        }
        false
    } else {
        // Different strides on `l`: drop the d ≠ 0 constraint
        // (conservative) and test general solvability with two iteration
        // variables.
        let lr = iter_range(l);
        vars.push(VarTerm {
            coef: cl_p,
            range: lr,
        });
        vars.push(VarTerm {
            coef: match cl_q.checked_neg() {
                Some(c) => c,
                None => return false,
            },
            range: lr,
        });
        !solvable(&vars, d0)
    }
}

/// Output of the dependence pre-pass for one function.
pub struct FuncIndep {
    /// Per-loop reports.
    pub loops: Vec<LoopReport>,
    /// Proven-independent line pairs.
    pub claims: Vec<Claim>,
}

/// Run the pre-pass for one function. `own` is the function's run of the
/// program-order access list ([`crate::classify::accesses_of`]), and `ev`
/// the evaluator that classified it.
pub fn analyze_function(
    module: &Module,
    func: FuncId,
    loops: &FuncLoops,
    own: &[AccessInfo],
    ev: &Evaluator<'_>,
    suppress_claims: bool,
) -> FuncIndep {
    let f = &module.functions[func.index()];
    let mut reports = Vec::new();
    let mut claims = Vec::new();

    // Region ownership of locals, for the iteration-lifetime exemption.
    let owner_of = |v: mir::LocalId| f.locals[v.index()].region;

    for (li, lp) in loops.loops.iter().enumerate() {
        let mut in_loop: Vec<&AccessInfo> = own.iter().filter(|a| a.chain.contains(&li)).collect();
        let mem_ops = in_loop.len() as u32;
        let affine_ops = in_loop.iter().filter(|a| a.index.is_some()).count() as u32;
        // Group by variable, in variable order; a stable sort keeps each
        // group's accesses in program order.
        in_loop.sort_by_key(|a| a.var);
        let groups = in_loop.chunk_by(|a, b| a.var == b.var);
        let iv_local = lp.iv.as_ref().map(|iv| iv.local);
        // Recursion through a call inside the loop lets this function's
        // own lines re-execute in a nested frame; global-variable claims
        // keyed by line pairs would no longer be sound.
        let recursion = ev.recursive_in(li);
        let mut tested = 0u32;
        let mut proven = 0u32;
        let mut doall = lp.iv.is_some();
        // (var name, la, lb) → all write-pairs proven? Keyed by name, so
        // same-named variables share their line pairs.
        let mut line_pairs: BTreeMap<(&str, u32, u32), bool> = BTreeMap::new();

        for group in groups {
            let var = &group[0].var;
            let var_name = match var {
                VarKey::Global(g) => module.globals[g.index()].name.as_str(),
                VarKey::Local(v) => f.locals[v.index()].name.as_str(),
            };
            // Exemptions from the DOALL conflict scan: the loop's own IV,
            // and locals scoped to a region strictly inside the loop (they
            // die before the next iteration reaches them).
            let exempt = match var {
                VarKey::Local(v) => {
                    Some(*v) == iv_local
                        || owner_of(*v).is_some_and(|r| {
                            let mut x = Some(r);
                            let mut strictly_inside = false;
                            while let Some(cur) = x {
                                if cur == lp.region {
                                    strictly_inside = r != lp.region;
                                    break;
                                }
                                x = f.regions[cur.index()].parent;
                            }
                            strictly_inside
                        })
                }
                VarKey::Global(_) => false,
            };
            let claim_ok = !suppress_claims
                && match var {
                    VarKey::Global(_) => !recursion,
                    VarKey::Local(_) => true,
                };
            for (i, p) in group.iter().enumerate() {
                for q in group.iter().skip(i) {
                    if !p.is_write && !q.is_write {
                        continue;
                    }
                    tested += 1;
                    let ok = pair_independent(p, q, li, loops);
                    if ok {
                        proven += 1;
                    } else if !exempt {
                        doall = false;
                    }
                    if claim_ok {
                        let (la, lb) = if p.line <= q.line {
                            (p.line, q.line)
                        } else {
                            (q.line, p.line)
                        };
                        let e = line_pairs.entry((var_name, la, lb)).or_insert(true);
                        *e = *e && ok;
                    }
                }
            }
        }
        // Calls with global effects inside the loop block the DOALL call.
        if ev.calls_touch_globals_in(li) {
            doall = false;
        }
        for ((var_name, la, lb), all_proven) in line_pairs {
            if all_proven {
                claims.push(Claim {
                    func,
                    region: lp.region,
                    var_name: var_name.to_string(),
                    line_a: la,
                    line_b: lb,
                });
            }
        }
        reports.push(LoopReport {
            func,
            func_name: f.name.clone(),
            region: lp.region,
            start_line: lp.start_line,
            end_line: lp.end_line,
            mem_ops,
            affine_ops,
            has_iv: lp.iv.is_some(),
            trip_count: lp.iv.as_ref().and_then(|iv| iv.trip_count),
            tested_pairs: tested,
            proven_pairs: proven,
            doall_candidate: doall,
        });
    }
    FuncIndep {
        loops: reports,
        claims,
    }
}

/// Suppress claims when any part of the module spawns threads: cross-
/// thread interleavings are the dynamic profiler's domain, not this pass's.
pub fn module_spawns(module: &Module) -> bool {
    module.functions.iter().any(|f| {
        f.blocks.iter().any(|b| {
            b.instrs
                .iter()
                .any(|i| matches!(i, mir::Instr::Call { func, .. } if func == "spawn"))
        })
    })
}

//! Static lint pass over MIR modules: reads of possibly-uninitialized
//! scalar locals, provably out-of-bounds array indices, and race hints on
//! globals shared between threads without synchronization.

use crate::affine::Term;
use crate::classify::{AccessInfo, VarKey};
use crate::effects::Effects;
use crate::loops::FuncLoops;
use mir::cfg::{predecessors, reverse_post_order};
use mir::{Instr, Module, Place, VarRef};
use std::collections::BTreeSet;

/// Lint category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintKind {
    /// A scalar local may be read before any store on some path.
    UninitRead,
    /// An array index that is provably outside `0..elems` on every
    /// execution of the access.
    ConstOob,
    /// An affine index whose provable value range leaves `0..elems` for
    /// some iteration.
    RangeOob,
    /// A global touched by multiple threads, with at least one writer and
    /// no lock discipline on some accessor.
    RaceHint,
}

impl LintKind {
    /// Stable lowercase code for reports and CLI output.
    pub fn code(self) -> &'static str {
        match self {
            LintKind::UninitRead => "uninit-read",
            LintKind::ConstOob => "const-oob",
            LintKind::RangeOob => "range-oob",
            LintKind::RaceHint => "race-hint",
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Lint {
    /// Category.
    pub kind: LintKind,
    /// Function the finding is in (empty for module-level race hints that
    /// span functions).
    pub func: String,
    /// Variable concerned.
    pub var: String,
    /// Source line (0 when spanning multiple sites).
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

/// Run every lint over the module.
pub fn lint_module(
    module: &Module,
    all_loops: &[FuncLoops],
    accesses: &[AccessInfo],
    effects: &Effects,
) -> Vec<Lint> {
    let mut out = Vec::new();
    uninit_reads(module, &mut out);
    oob_indices(module, all_loops, accesses, &mut out);
    race_hints(module, effects, &mut out);
    out
}

/// Forward must-initialize dataflow over scalar locals. Parameters start
/// initialized; array locals are exempt (partial writes cannot be tracked
/// element-wise here). A load of a scalar local outside the must-init set
/// may observe the frame's default value.
fn uninit_reads(module: &Module, out: &mut Vec<Lint>) {
    for f in &module.functions {
        let nl = f.locals.len();
        let preds = predecessors(f);
        let rpo = reverse_post_order(f);
        // Row `b` (`nl` flags from `b · nl`) of `stored`: block `b` stores
        // the scalar local; of `in_sets`: the local is initialized on entry
        // to `b`. Greatest fixed point: start every non-entry block at "all
        // initialized" and intersect over predecessors.
        let nb = f.blocks.len();
        let mut stored = vec![false; nb * nl];
        for (bid, b) in f.iter_blocks() {
            for instr in &b.instrs {
                if let Instr::Store {
                    place:
                        Place {
                            var: VarRef::Local(v),
                            index: None,
                        },
                    ..
                } = instr
                {
                    stored[bid.index() * nl + v.index()] = true;
                }
            }
        }
        let mut in_sets = vec![true; nb * nl];
        let entry = f.entry();
        for (slot, v) in f.locals.iter().enumerate() {
            in_sets[entry.index() * nl + slot] = v.is_param || v.elems != 1;
        }
        // An unreachable block has no predecessor and stays fully
        // initialized.
        let mut newin = vec![true; nl];
        let mut changed = true;
        while changed {
            changed = false;
            for &bid in &rpo {
                if bid == entry {
                    continue;
                }
                newin.fill(true);
                for &p in &preds[bid.index()] {
                    let row = p.index() * nl..(p.index() + 1) * nl;
                    let pout = in_sets[row.clone()].iter().zip(&stored[row]);
                    for (val, (&init, &store)) in newin.iter_mut().zip(pout) {
                        *val = *val && (init || store);
                    }
                }
                let cur = &mut in_sets[bid.index() * nl..(bid.index() + 1) * nl];
                if *cur != newin[..] {
                    cur.copy_from_slice(&newin);
                    changed = true;
                }
            }
        }
        // Report loads ahead of the must-init frontier, once per site.
        let mut seen = BTreeSet::new();
        for (bid, b) in f.iter_blocks() {
            // The running set through the block, in the fixpoint's buffer.
            let set = &mut newin;
            set.copy_from_slice(&in_sets[bid.index() * nl..(bid.index() + 1) * nl]);
            for instr in &b.instrs {
                match instr {
                    Instr::Load {
                        place:
                            Place {
                                var: VarRef::Local(v),
                                index: None,
                            },
                        line,
                        ..
                    } if !set[v.index()] && seen.insert((v.index(), *line)) => {
                        let name = &f.locals[v.index()].name;
                        out.push(Lint {
                            kind: LintKind::UninitRead,
                            func: f.name.clone(),
                            var: name.clone(),
                            line: *line,
                            message: format!(
                                "`{name}` may be read before initialization in `{}`",
                                f.name
                            ),
                        });
                    }
                    Instr::Store {
                        place:
                            Place {
                                var: VarRef::Local(v),
                                index: None,
                            },
                        ..
                    } => set[v.index()] = true,
                    _ => {}
                }
            }
        }
    }
}

/// Flag classified indices whose provable range leaves the array bounds:
/// constant indices exactly, affine indices via iteration-range interval
/// arithmetic when trip counts are known.
fn oob_indices(
    module: &Module,
    all_loops: &[FuncLoops],
    accesses: &[AccessInfo],
    out: &mut Vec<Lint>,
) {
    for a in accesses {
        // Scalar places carry the implicit constant index 0: always fine.
        let f = &module.functions[a.func.index()];
        let is_indexed = matches!(
            f.blocks[a.block.index()].instrs.get(a.instr),
            Some(Instr::Load {
                place: Place { index: Some(_), .. },
                ..
            }) | Some(Instr::Store {
                place: Place { index: Some(_), .. },
                ..
            })
        );
        if !is_indexed {
            continue;
        }
        let Some(aff) = &a.index else { continue };
        let loops = &all_loops[a.func.index()];
        let var_name = match a.var {
            VarKey::Global(g) => &module.globals[g.index()].name,
            VarKey::Local(v) => &f.locals[v.index()].name,
        };
        if let Some(c) = aff.as_constant() {
            if c < 0 || (c as u64) >= a.elems {
                out.push(Lint {
                    kind: LintKind::ConstOob,
                    func: f.name.clone(),
                    var: var_name.clone(),
                    line: a.line,
                    message: format!("index {c} is outside `{var_name}`'s bounds 0..{}", a.elems),
                });
            }
            continue;
        }
        // Interval over known iteration ranges; any unbounded term makes
        // the range unknown and the access is left alone.
        let mut lo = aff.constant as i128;
        let mut hi = aff.constant as i128;
        let mut bounded = true;
        for (&t, &c) in &aff.terms {
            let range = match t {
                Term::Iter(r) => loops
                    .trip_count(r)
                    .map(|n| (0i128, n.saturating_sub(1) as i128)),
                _ => None,
            };
            match range {
                Some((ra, rb)) => {
                    let (p, q) = (c as i128 * ra, c as i128 * rb);
                    lo += p.min(q);
                    hi += p.max(q);
                }
                None => {
                    bounded = false;
                    break;
                }
            }
        }
        if bounded && (lo < 0 || hi >= a.elems as i128) {
            out.push(Lint {
                kind: LintKind::RangeOob,
                func: f.name.clone(),
                var: var_name.clone(),
                line: a.line,
                message: format!(
                    "index range {lo}..={hi} leaves `{var_name}`'s bounds 0..{}",
                    a.elems
                ),
            });
        }
    }
}

/// For spawning modules: a global with two thread-side accessors, at least
/// one of them writing, where some accessor thread never locks, is a
/// static race hint. Thread sides are the spawned entry functions plus the
/// spawning caller, each taken with its transitive effects (the effect
/// rows are closed over the call graph already).
fn race_hints(module: &Module, effects: &Effects, out: &mut Vec<Lint>) {
    if effects.spawns.is_empty() {
        return;
    }
    // Distinct thread roots.
    let mut roots: BTreeSet<usize> = BTreeSet::new();
    for s in &effects.spawns {
        roots.insert(s.target);
        roots.insert(s.caller);
    }
    for (gi, gv) in module.globals.iter().enumerate() {
        let mut readers = 0u32;
        let mut writers = 0u32;
        let mut unlocked = false;
        for &fi in &roots {
            let wr = effects.writes.get(fi, gi);
            if wr || effects.reads.get(fi, gi) {
                if wr {
                    writers += 1;
                }
                readers += 1;
                if !effects.locks[fi] {
                    unlocked = true;
                }
            }
        }
        if writers >= 1 && readers >= 2 && unlocked {
            out.push(Lint {
                kind: LintKind::RaceHint,
                func: String::new(),
                var: gv.name.clone(),
                line: 0,
                message: format!(
                    "global `{}` is shared across threads with a writer and \
                     no lock discipline on every side",
                    gv.name
                ),
            });
        }
    }
}

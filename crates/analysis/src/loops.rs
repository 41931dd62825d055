//! Loop-nest recognition over the MIR CFG: natural loops anchored at the
//! frontend's `LoopIter` markers, canonical induction variables, and
//! constant trip counts.

use mir::cfg::{immediate_dominators, predecessors};
use mir::{
    BinOp, BlockId, Function, Instr, LocalId, Operand, Place, RegionId, Terminator, Ty, Value,
    VarRef,
};

/// A recognized canonical induction variable of a loop: a scalar integer
/// local updated exactly once per iteration, in the latch, by a constant
/// step (`v = v ± c`).
#[derive(Debug, Clone)]
pub struct IndVar {
    /// The IV local.
    pub local: LocalId,
    /// The per-iteration step (negative for down-counting loops).
    pub step: i64,
    /// Constant initial value, if provable from the preheader.
    pub init: Option<i64>,
    /// Constant executed-iteration count, if provable from init, step, and
    /// a constant header bound.
    pub trip_count: Option<u64>,
    /// Location `(block, instr index)` of the IV store in the latch; loads
    /// of the IV after this point see the post-increment value and are not
    /// classified.
    pub store_at: (BlockId, usize),
}

/// One recognized loop of a function.
#[derive(Debug, Clone)]
pub struct LoopInfo {
    /// The MIR region of the loop (key for claims and dynamic deps).
    pub region: RegionId,
    /// Header block (carries the `LoopIter` marker).
    pub header: BlockId,
    /// Unique back-edge source, when there is exactly one.
    pub latch: Option<BlockId>,
    /// Natural-loop block membership, indexed by block id.
    pub blocks: Vec<bool>,
    /// Canonical IV, if recognized.
    pub iv: Option<IndVar>,
    /// Index (into [`FuncLoops::loops`]) of the nearest enclosing loop.
    pub parent: Option<usize>,
    /// First source line of the region.
    pub start_line: u32,
    /// Last source line of the region.
    pub end_line: u32,
}

impl LoopInfo {
    /// Whether `b` belongs to the loop.
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.get(b.index()).copied().unwrap_or(false)
    }
}

/// The loop nest of one function.
#[derive(Debug, Default)]
pub struct FuncLoops {
    /// Recognized loops, in region-id order.
    pub loops: Vec<LoopInfo>,
    /// Region id → index into [`FuncLoops::loops`].
    pub by_region: Vec<Option<usize>>,
}

impl FuncLoops {
    /// The chain of loops enclosing block `b`, outermost first.
    pub fn chain_of(&self, b: BlockId) -> Vec<usize> {
        // Innermost containing loop = the one whose region is deepest among
        // containers; loops nest, so the container with the fewest blocks
        // is innermost.
        let inner = self
            .loops
            .iter()
            .enumerate()
            .filter(|(_, l)| l.contains(b))
            .min_by_key(|(_, l)| l.blocks.iter().filter(|&&x| x).count());
        let Some((mut i, _)) = inner else {
            return Vec::new();
        };
        let mut chain = vec![i];
        while let Some(p) = self.loops[i].parent {
            // Region nesting should imply block nesting; truncate if the
            // lowering ever produced a loop that does not contain `b`.
            if !self.loops[p].contains(b) {
                break;
            }
            chain.push(p);
            i = p;
        }
        chain.reverse();
        chain
    }

    /// Loop index for a region, if that region is a recognized loop.
    pub fn of_region(&self, r: RegionId) -> Option<usize> {
        self.by_region.get(r.index()).copied().flatten()
    }

    /// The static trip count of region `r`, when the region is a
    /// recognized loop with a provable count.
    pub fn trip_count(&self, r: RegionId) -> Option<u64> {
        self.loops[self.of_region(r)?].iv.as_ref()?.trip_count
    }
}

/// `a` dominates `b` under the idom tree (reflexive).
pub fn dominates(idom: &[Option<BlockId>], a: BlockId, b: BlockId) -> bool {
    let mut x = b;
    loop {
        if x == a {
            return true;
        }
        match idom[x.index()] {
            Some(d) if d != x => x = d,
            _ => return false,
        }
    }
}

/// Recognize every loop of `f`: natural loops around the `LoopIter`-marked
/// headers, with IVs and trip counts where provable.
pub fn find_loops(f: &Function) -> FuncLoops {
    let preds = predecessors(f);
    let idom = immediate_dominators(f);
    let mut by_region = vec![None; f.regions.len()];
    let mut loops = Vec::new();

    for (bid, block) in f.iter_blocks() {
        let Some(Instr::LoopIter { region, .. }) = block.instrs.first() else {
            continue;
        };
        let region = *region;
        // Back edges: predecessors of the header that the header dominates.
        let back: Vec<BlockId> = preds[bid.index()]
            .iter()
            .copied()
            .filter(|&p| dominates(&idom, bid, p))
            .collect();
        if back.is_empty() {
            continue;
        }
        // Natural loop: header plus everything that reaches a back edge
        // without passing through the header.
        let mut blocks = vec![false; f.blocks.len()];
        blocks[bid.index()] = true;
        let mut work: Vec<BlockId> = back.clone();
        while let Some(b) = work.pop() {
            if blocks[b.index()] {
                continue;
            }
            blocks[b.index()] = true;
            work.extend(preds[b.index()].iter().copied());
        }
        let latch = (back.len() == 1).then(|| back[0]);
        let (start_line, end_line) = f
            .regions
            .get(region.index())
            .map(|r| (r.start_line, r.end_line))
            .unwrap_or((0, 0));
        if by_region[region.index()].is_some() {
            // Two headers claiming one region: malformed; drop the region's
            // loop info entirely rather than guess.
            by_region[region.index()] = None;
            continue;
        }
        by_region[region.index()] = Some(loops.len());
        loops.push(LoopInfo {
            region,
            header: bid,
            latch,
            blocks,
            iv: None,
            parent: None,
            start_line,
            end_line,
        });
    }

    // Parent = nearest enclosing loop along the region ancestor chain.
    for lp in &mut loops {
        let mut r = f.regions[lp.region.index()].parent;
        while let Some(pr) = r {
            if let Some(pi) = by_region[pr.index()] {
                lp.parent = Some(pi);
                break;
            }
            r = f.regions[pr.index()].parent;
        }
    }

    // IV recognition per loop.
    for lp in &mut loops {
        lp.iv = find_iv(f, lp, &preds);
    }

    FuncLoops { loops, by_region }
}

/// Is this instruction a scalar store to local `v`?
fn scalar_store_to(instr: &Instr, v: LocalId) -> bool {
    matches!(
        instr,
        Instr::Store {
            place: Place {
                var: VarRef::Local(l),
                index: None,
            },
            ..
        } if *l == v
    )
}

/// Recognize the canonical IV of `lp`, if any.
fn find_iv(f: &Function, lp: &LoopInfo, preds: &[Vec<BlockId>]) -> Option<IndVar> {
    let latch = lp.latch?;
    // Candidate stores in the latch: scalar stores to an integer local with
    // no other store to that local anywhere in the loop.
    let latch_instrs = &f.blocks[latch.index()].instrs;
    for (si, instr) in latch_instrs.iter().enumerate() {
        let Instr::Store {
            place:
                Place {
                    var: VarRef::Local(v),
                    index: None,
                },
            src: Operand::Reg(r2),
            ..
        } = instr
        else {
            continue;
        };
        let v = *v;
        let var = &f.locals[v.index()];
        if var.elems != 1 || var.ty != Ty::I64 {
            continue;
        }
        // Exactly one store to v in the whole loop.
        let stores_in_loop: usize = f
            .iter_blocks()
            .filter(|(b, _)| lp.contains(*b))
            .map(|(_, blk)| blk.instrs.iter().filter(|i| scalar_store_to(i, v)).count())
            .sum();
        if stores_in_loop != 1 {
            continue;
        }
        // The stored value must be `load v` ± constant, both in the latch
        // before the store.
        let Some(step) = rmw_step(latch_instrs, si, *r2, v) else {
            continue;
        };
        let init = find_init(f, lp, v, preds);
        let trip_count = init.and_then(|a| trip_from_header(f, lp, v, a, step));
        return Some(IndVar {
            local: v,
            step,
            init,
            trip_count,
            store_at: (latch, si),
        });
    }
    None
}

/// Match `r2 = (load v) ± const` within the latch, defs before `si`.
fn rmw_step(instrs: &[Instr], si: usize, r2: mir::RegId, v: LocalId) -> Option<i64> {
    let def = |r: mir::RegId, before: usize| {
        instrs[..before]
            .iter()
            .rev()
            .find(|i| def_reg(i) == Some(r))
    };
    let Instr::Bin { op, lhs, rhs, .. } = def(r2, si)? else {
        return None;
    };
    let is_load_of_v = |o: &Operand, before: usize| -> bool {
        let Operand::Reg(r1) = o else { return false };
        matches!(
            def(*r1, before),
            Some(Instr::Load {
                place: Place {
                    var: VarRef::Local(l),
                    index: None,
                },
                ..
            }) if *l == v
        )
    };
    let as_const = |o: &Operand| -> Option<i64> {
        match o {
            Operand::Const(Value::I64(c)) => Some(*c),
            _ => None,
        }
    };
    let step = match op {
        BinOp::Add => {
            if is_load_of_v(lhs, si) {
                as_const(rhs)?
            } else if is_load_of_v(rhs, si) {
                as_const(lhs)?
            } else {
                return None;
            }
        }
        BinOp::Sub if is_load_of_v(lhs, si) => as_const(rhs)?.checked_neg()?,
        _ => return None,
    };
    (step != 0).then_some(step)
}

/// The register defined by an instruction, if any.
pub(crate) fn def_reg(i: &Instr) -> Option<mir::RegId> {
    match i {
        Instr::Load { dst, .. } | Instr::Bin { dst, .. } | Instr::Un { dst, .. } => Some(*dst),
        Instr::Call { dst, .. } => *dst,
        _ => None,
    }
}

/// Constant initial value: the last scalar store to `v` in the unique
/// preheader, if it stores a constant.
fn find_init(f: &Function, lp: &LoopInfo, v: LocalId, preds: &[Vec<BlockId>]) -> Option<i64> {
    let entries: Vec<BlockId> = preds[lp.header.index()]
        .iter()
        .copied()
        .filter(|p| !lp.contains(*p))
        .collect();
    let [pre] = entries.as_slice() else {
        return None;
    };
    for instr in f.blocks[pre.index()].instrs.iter().rev() {
        if scalar_store_to(instr, v) {
            let Instr::Store { src, .. } = instr else {
                unreachable!("scalar_store_to matched a non-store");
            };
            return match src {
                Operand::Const(Value::I64(c)) => Some(*c),
                _ => None,
            };
        }
    }
    None
}

/// Constant trip count from the canonical header shape
/// `load v; cmp; branch body/exit`.
fn trip_from_header(f: &Function, lp: &LoopInfo, v: LocalId, init: i64, step: i64) -> Option<u64> {
    let header = &f.blocks[lp.header.index()];
    let Terminator::Branch {
        cond: Operand::Reg(rc),
        then_bb,
        else_bb,
    } = header.term
    else {
        return None;
    };
    let body_on_true = match (lp.contains(then_bb), lp.contains(else_bb)) {
        (true, false) => true,
        (false, true) => false,
        _ => return None,
    };
    let def = |r: mir::RegId| header.instrs.iter().rev().find(|i| def_reg(i) == Some(r));
    let Some(Instr::Bin { op, lhs, rhs, .. }) = def(rc) else {
        return None;
    };
    let is_load_of_v = |o: &Operand| -> bool {
        let Operand::Reg(r1) = o else { return false };
        matches!(
            def(*r1),
            Some(Instr::Load {
                place: Place {
                    var: VarRef::Local(l),
                    index: None,
                },
                ..
            }) if *l == v
        )
    };
    let as_const = |o: &Operand| -> Option<i64> {
        match o {
            Operand::Const(Value::I64(c)) => Some(*c),
            _ => None,
        }
    };
    // Normalize to `v OP bound`.
    let (mut op, bound) = if is_load_of_v(lhs) {
        (*op, as_const(rhs)?)
    } else if is_load_of_v(rhs) {
        (flip(*op)?, as_const(lhs)?)
    } else {
        return None;
    };
    if !body_on_true {
        op = negate(op)?;
    }
    trip_count(init, step, op, bound)
}

fn flip(op: BinOp) -> Option<BinOp> {
    Some(match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        _ => return None,
    })
}

fn negate(op: BinOp) -> Option<BinOp> {
    Some(match op {
        BinOp::Lt => BinOp::Ge,
        BinOp::Le => BinOp::Gt,
        BinOp::Gt => BinOp::Le,
        BinOp::Ge => BinOp::Lt,
        _ => return None,
    })
}

/// Executed-iteration count of `for (v = init; v OP bound; v += step)`.
/// The IV is monotone, so the count is the first `k` where the condition
/// fails; `None` when the loop cannot be proven finite.
fn trip_count(init: i64, step: i64, op: BinOp, bound: i64) -> Option<u64> {
    let (a, b, s) = (init as i128, bound as i128, step as i128);
    let n: i128 = match op {
        BinOp::Lt if s > 0 => {
            if a >= b {
                0
            } else {
                (b - a + s - 1) / s
            }
        }
        BinOp::Le if s > 0 => {
            if a > b {
                0
            } else {
                (b - a) / s + 1
            }
        }
        BinOp::Gt if s < 0 => {
            if a <= b {
                0
            } else {
                (a - b + (-s) - 1) / (-s)
            }
        }
        BinOp::Ge if s < 0 => {
            if a < b {
                0
            } else {
                (a - b) / (-s) + 1
            }
        }
        // A condition the step walks away from: 0 iterations if initially
        // false, otherwise infinite (unknown).
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let holds = match op {
                BinOp::Lt => a < b,
                BinOp::Le => a <= b,
                BinOp::Gt => a > b,
                _ => a >= b,
            };
            if holds {
                return None;
            }
            0
        }
        _ => return None,
    };
    u64::try_from(n).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trip_counts_cover_the_four_directions() {
        assert_eq!(trip_count(0, 1, BinOp::Lt, 16), Some(16));
        assert_eq!(trip_count(0, 2, BinOp::Lt, 15), Some(8));
        assert_eq!(trip_count(0, 1, BinOp::Le, 15), Some(16));
        assert_eq!(trip_count(15, -1, BinOp::Gt, 0), Some(15));
        assert_eq!(trip_count(15, -1, BinOp::Ge, 0), Some(16));
        assert_eq!(trip_count(5, 1, BinOp::Lt, 5), Some(0));
        // Steps that walk away from the bound are infinite, not provable.
        assert_eq!(trip_count(0, 1, BinOp::Gt, -1), None);
        assert_eq!(trip_count(0, -1, BinOp::Lt, 16), None);
        assert_eq!(trip_count(0, 1, BinOp::Ne, 16), None);
    }
}

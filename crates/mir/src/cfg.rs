//! Control-flow-graph utilities: predecessors, reverse post-order,
//! dominators, and post-dominators.
//!
//! These serve the static side of the framework: the verifier, the dynamic
//! control-dependence analysis in the `cu` crate (re-convergence points,
//! dissertation §3.2.2), and the frontend's region checks.

use crate::module::{BlockId, Function};

/// Predecessor lists for every block.
pub fn predecessors(f: &Function) -> Vec<Vec<BlockId>> {
    let mut preds = vec![Vec::new(); f.blocks.len()];
    for (id, b) in f.iter_blocks() {
        for s in b.term.successors() {
            preds[s.index()].push(id);
        }
    }
    preds
}

/// Blocks in reverse post-order from the entry.
pub fn reverse_post_order(f: &Function) -> Vec<BlockId> {
    let mut visited = vec![false; f.blocks.len()];
    let mut post = Vec::with_capacity(f.blocks.len());
    // Iterative DFS with an explicit state machine to avoid recursion.
    let mut stack: Vec<(BlockId, usize)> = vec![(f.entry(), 0)];
    visited[f.entry().index()] = true;
    while let Some((b, i)) = stack.pop() {
        let succs = f.blocks[b.index()].term.successors();
        if i < succs.len() {
            stack.push((b, i + 1));
            let s = succs[i];
            if !visited[s.index()] {
                visited[s.index()] = true;
                stack.push((s, 0));
            }
        } else {
            post.push(b);
        }
    }
    post.reverse();
    post
}

/// Immediate dominators via the Cooper–Harvey–Kennedy iterative algorithm.
///
/// Returns `idom[b]` for each block; the entry's idom is itself. Unreachable
/// blocks get `None`.
pub fn immediate_dominators(f: &Function) -> Vec<Option<BlockId>> {
    let rpo = reverse_post_order(f);
    let mut rpo_index = vec![usize::MAX; f.blocks.len()];
    for (i, b) in rpo.iter().enumerate() {
        rpo_index[b.index()] = i;
    }
    let preds = predecessors(f);
    let mut idom: Vec<Option<BlockId>> = vec![None; f.blocks.len()];
    idom[f.entry().index()] = Some(f.entry());

    // Both finger chains only ever visit processed nodes, whose idom is
    // set; the entry fallback keeps the walk total (and correct — every
    // chain ends at the entry anyway) without a panicking path.
    let entry = f.entry();
    let intersect = |idom: &[Option<BlockId>], mut a: BlockId, mut b: BlockId| -> BlockId {
        while a != b {
            while rpo_index[a.index()] > rpo_index[b.index()] {
                a = idom[a.index()].unwrap_or(entry);
            }
            while rpo_index[b.index()] > rpo_index[a.index()] {
                b = idom[b.index()].unwrap_or(entry);
            }
        }
        a
    };

    let mut changed = true;
    while changed {
        changed = false;
        for &b in rpo.iter().skip(1) {
            let mut new_idom: Option<BlockId> = None;
            for &p in &preds[b.index()] {
                if idom[p.index()].is_some() {
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, cur, p),
                    });
                }
            }
            if new_idom.is_some() && idom[b.index()] != new_idom {
                idom[b.index()] = new_idom;
                changed = true;
            }
        }
    }
    idom
}

/// Post-dominator computation on the reversed CFG.
///
/// Functions may have several `Return` blocks; a virtual exit unifies them.
/// Returns for each block the set of blocks that post-dominate it, encoded
/// as a `Vec<Vec<bool>>` (`postdom[b][d]` = "d post-dominates b"). Suitable
/// for the small CFGs our frontend produces.
pub fn post_dominators(f: &Function) -> Vec<Vec<bool>> {
    let n = f.blocks.len();
    let exits: Vec<BlockId> = f
        .iter_blocks()
        .filter(|(_, b)| matches!(b.term, crate::instr::Terminator::Return(_)))
        .map(|(id, _)| id)
        .collect();
    // Classic iterative dataflow: postdom(b) = {b} ∪ ⋂ postdom(s) over succs.
    let mut pd: Vec<Vec<bool>> = vec![vec![true; n]; n];
    for &e in &exits {
        let mut only_self = vec![false; n];
        only_self[e.index()] = true;
        pd[e.index()] = only_self;
    }
    let mut changed = true;
    while changed {
        changed = false;
        for (id, b) in f.iter_blocks() {
            if exits.contains(&id) {
                continue;
            }
            let succs = b.term.successors();
            if succs.is_empty() {
                continue;
            }
            let mut meet = vec![true; n];
            for s in &succs {
                for d in 0..n {
                    meet[d] = meet[d] && pd[s.index()][d];
                }
            }
            meet[id.index()] = true;
            if meet != pd[id.index()] {
                pd[id.index()] = meet;
                changed = true;
            }
        }
    }
    pd
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instr::{Operand, Terminator};
    use crate::types::Value;

    /// Diamond CFG: entry → {then, else} → merge → return.
    fn diamond() -> Function {
        let mut fb = FunctionBuilder::new("d", None, 1);
        let then_bb = fb.new_block();
        let else_bb = fb.new_block();
        let merge = fb.new_block();
        fb.terminate(Terminator::Branch {
            cond: Operand::Const(Value::I64(1)),
            then_bb,
            else_bb,
        });
        fb.switch_to(then_bb);
        fb.terminate(Terminator::Jump(merge));
        fb.switch_to(else_bb);
        fb.terminate(Terminator::Jump(merge));
        fb.switch_to(merge);
        fb.terminate(Terminator::Return(None));
        fb.build(5)
    }

    #[test]
    fn preds_of_diamond() {
        let f = diamond();
        let p = predecessors(&f);
        assert_eq!(p[3], vec![BlockId(1), BlockId(2)]);
        assert!(p[0].is_empty());
    }

    #[test]
    fn rpo_starts_at_entry() {
        let f = diamond();
        let rpo = reverse_post_order(&f);
        assert_eq!(rpo[0], BlockId(0));
        assert_eq!(rpo.len(), 4);
        assert_eq!(*rpo.last().unwrap(), BlockId(3));
    }

    #[test]
    fn idom_of_diamond() {
        let f = diamond();
        let idom = immediate_dominators(&f);
        assert_eq!(idom[0], Some(BlockId(0)));
        assert_eq!(idom[1], Some(BlockId(0)));
        assert_eq!(idom[2], Some(BlockId(0)));
        // Merge is dominated by the entry, not by either arm.
        assert_eq!(idom[3], Some(BlockId(0)));
    }

    #[test]
    fn postdom_of_diamond() {
        let f = diamond();
        let pd = post_dominators(&f);
        // The merge block post-dominates everything.
        #[allow(clippy::needless_range_loop)]
        for b in 0..4 {
            assert!(pd[b][3], "merge must post-dominate block {b}");
        }
        // The then-arm does not post-dominate the entry.
        assert!(!pd[0][1]);
    }
}

//! The affine skip tier's decode/plan step: compile eligible loops into
//! straight-line *loop plans* the machine can replay without dispatching.
//!
//! The paper's Section 5 answer to the profiling slowdown is to stop
//! paying full interpretation cost for repeatedly executed code whose
//! memory behavior is already known. The static pass (PR 7) proves per-op
//! affine facts and loop trip counts; this module turns them into a
//! runtime fast path:
//!
//! - **Eligibility** (`compile_plans`): a loop qualifies when its
//!   iteration cycle — every op executed between one [`HotOp::LoopIter`]
//!   and the next — is straight-line (no calls, no region entry/exit, no
//!   inner loop markers, at most one branch: the header's exit test), its
//!   static trip count is known, and *every* load/store in the cycle is
//!   classified affine by the static pass. Division (`BinChecked`) also
//!   disqualifies: its trap needs the cold line table mid-cycle.
//! - **Plan** ([`LoopPlan`]): the cycle pre-expanded into a flat array of
//!   [`PlanStep`]s, one per slot of the cycle, each carrying its own pc
//!   and (for memory steps) an embedded [`MemRef`] copy. The machine
//!   executes the array in a tight loop (`Interp::exec_plan` in
//!   [`crate::machine`], the only plan executor), bypassing `run_slice`
//!   dispatch entirely.
//! - **Identity**: every step charges exactly one logical step and every
//!   memory step carries the op id and timestamp interpretation would give
//!   it, so events, timestamps, batching, and budget accounting are
//!   bit-identical to full interpretation, pinned by
//!   `tests/affine_skip.rs`.
//! - **Record, check**: a sink that takes runs
//!   ([`crate::Sink::TAKES_RUNS`]) gets an engagement as one
//!   [`crate::PlanRun`] instead of its events. The replayer records each
//!   memory step's address in cycle 0 (`base`) and its delta in cycle 1
//!   (`stride`), then checks `addr == base + stride·cycle` on every later
//!   access; a miss closes the run before that access and the rest of the
//!   engagement is emitted per access. The `affine` facts that made the
//!   loop eligible are therefore never *trusted* for the record either.
//!   [`crate::PlanRun::expand`] defines what a run means, and
//!   `tests/plan_runs.rs` holds the replayer to it.
//! - **Fallback**: the runtime re-checks nothing it cannot afford to — the
//!   header branch is evaluated live every cycle (the trip count is never
//!   *trusted*, only used as an eligibility policy), a spent slice budget
//!   is refilled in place when the thread has no runnable peer and
//!   otherwise parks the pc (mid-cycle at the first unexecuted step's own
//!   slot, where it resumes interpreted; at the trigger slot on a cycle
//!   boundary), and any violated engagement precondition just skips the
//!   plan. Soundness therefore never depends on the static classifier.
//!   The replayer's five exits — exit test, mid-cycle park, boundary park,
//!   injected fault, trap — are listed at `Interp::exec_plan`; each
//!   delivers the open record first.

use crate::code::{FuncCode, HotOp, MemRef, Opnd};
use mir::{BinOp, UnOp};

/// Hard cap on plan length in steps: a cycle longer than this
/// would not be loop-shaped hot code, and the cap bounds trace time on
/// pathological (hand-built) streams.
const MAX_PLAN_STEPS: usize = 4096;

/// One pre-expanded step of a loop cycle.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOp {
    /// A load; `mem` is an embedded copy of the pool entry.
    Load {
        /// Destination register.
        dst: u32,
        /// Memory reference (copy of the slot's pool entry).
        mem: MemRef,
    },
    /// A store.
    Store {
        /// Value operand.
        src: Opnd,
        /// Memory reference (copy of the slot's pool entry).
        mem: MemRef,
    },
    /// A non-trapping binary op.
    Bin {
        /// Operator (never `Div`/`Rem`).
        op: BinOp,
        /// Destination register.
        dst: u32,
        /// Left operand.
        lhs: Opnd,
        /// Right operand.
        rhs: Opnd,
    },
    /// A unary op.
    Un {
        /// Operator.
        op: UnOp,
        /// Destination register.
        dst: u32,
        /// Operand.
        src: Opnd,
    },
    /// A [`HotOp::LoopBody`] marker: bump the executed-iteration count of
    /// the region on top of the frame's region stack when it matches.
    Body {
        /// Region id within the function.
        region: u32,
    },
    /// A charged no-op: an unconditional jump whose control transfer is
    /// implicit in the straight-line step order.
    Skip,
    /// The cycle's single branch — the loop's live exit test. When the
    /// condition's truthiness equals `cont_on_true`, execution continues
    /// with the next step; otherwise the plan returns control to the
    /// interpreter at `exit_pc`.
    Exit {
        /// Condition operand.
        cond: Opnd,
        /// Truthiness that keeps the loop running.
        cont_on_true: bool,
        /// Absolute pc interpretation resumes at on exit.
        exit_pc: u32,
    },
}

/// One step of a loop plan: the operation plus the pc of the slot it came
/// from. The pc is the park/trap point — the slot holds the op itself, so
/// suspending there resumes interpreted exactly where the plan stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStep {
    /// Absolute pc of the step's own slot.
    pub pc: u32,
    /// The operation.
    pub op: PlanOp,
}

/// A compiled loop cycle: everything the machine needs to replay full
/// iterations of one eligible loop without dispatching.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopPlan {
    /// The loop's region id.
    pub region: u32,
    /// The pc of the [`HotOp::LoopIter`] slot the plan is anchored at.
    pub trigger: u32,
    /// The cycle's steps, starting at `trigger + 1`. The
    /// [`PlanOp::Exit`] step, when the loop has one, sits wherever the
    /// header's branch sat.
    pub steps: Box<[PlanStep]>,
    /// The statically proven trip count (eligibility evidence; the runtime
    /// never trusts it — the exit test stays live).
    pub trip_count: u64,
    /// Memory accesses per cycle (loads + stores).
    pub mem_ops: u32,
}

/// Compile the skip-tier plans for one decoded function. `facts` is the
/// whole-program per-op fact table (indexed by static op id); `trips` maps
/// this function's region ids to statically known loop trip counts.
pub(crate) fn compile_plans(
    code: &mut FuncCode,
    facts: &[analysis::AccessFact],
    trips: &[Option<u64>],
) {
    let mut plans = Vec::new();
    let mut idx = Vec::new();
    for pc in 0..code.hot.len() {
        let HotOp::LoopIter { region } = code.hot[pc] else {
            continue;
        };
        let Some(Some(trip)) = trips.get(region as usize).copied() else {
            continue;
        };
        let Some(steps) = trace_cycle(code, pc as u32) else {
            continue;
        };
        let affine = |m: &MemRef| {
            facts
                .get(m.op_id as usize)
                .map(|f| f.affine)
                .unwrap_or(false)
        };
        let all_affine = steps.iter().all(|s| match &s.op {
            PlanOp::Load { mem, .. } | PlanOp::Store { mem, .. } => affine(mem),
            _ => true,
        });
        if !all_affine {
            continue;
        }
        let mem_ops = steps
            .iter()
            .filter(|s| matches!(s.op, PlanOp::Load { .. } | PlanOp::Store { .. }))
            .count() as u32;
        idx.push((pc as u32, plans.len() as u32));
        plans.push(LoopPlan {
            region,
            trigger: pc as u32,
            steps: steps.into_boxed_slice(),
            trip_count: trip,
            mem_ops,
        });
    }
    // `idx` is built in increasing pc order, so it is already sorted for
    // the binary search in `FuncCode::plan_at`.
    code.plans = plans.into_boxed_slice();
    code.plan_idx = idx.into_boxed_slice();
}

/// Trace one full cycle of the loop anchored at the `LoopIter` slot
/// `trigger`: the steps executed from `trigger + 1` until
/// control returns to `trigger`. Returns `None` when the cycle is not
/// straight-line replayable (calls, inner loops, region traffic, trapping
/// bins, more than one branch, or over-long traces).
fn trace_cycle(code: &FuncCode, trigger: u32) -> Option<Vec<PlanStep>> {
    // The single branch splits the cycle: one successor continues toward
    // the trigger, the other leaves the loop. Which is which is not known
    // statically, so try continuing through the then-successor first, then
    // through the else-successor.
    walk(code, trigger, true).or_else(|| walk(code, trigger, false))
}

/// Walk the cycle taking the `take_then` successor at the (single) branch.
/// Succeeds iff the walk returns to `trigger` within the step cap using
/// only replayable ops.
fn walk(code: &FuncCode, trigger: u32, take_then: bool) -> Option<Vec<PlanStep>> {
    let mut steps: Vec<PlanStep> = Vec::new();
    let mut pc = trigger as usize + 1;
    let mut branch_seen = false;
    let jump = |pc: usize, delta: i32| (pc as i64 + delta as i64) as usize;
    while pc != trigger as usize {
        if steps.len() >= MAX_PLAN_STEPS {
            return None;
        }
        let op = match *code.hot.get(pc)? {
            HotOp::Load { dst, mem } => PlanOp::Load {
                dst,
                mem: code.mems[mem as usize],
            },
            HotOp::Store { mem, src } => PlanOp::Store {
                src,
                mem: code.mems[mem as usize],
            },
            HotOp::Bin { op, dst, lhs, rhs } => PlanOp::Bin { op, dst, lhs, rhs },
            HotOp::Un { op, dst, src } => PlanOp::Un { op, dst, src },
            HotOp::LoopBody { region } => PlanOp::Body { region },
            HotOp::Jump { delta } => {
                steps.push(PlanStep {
                    pc: pc as u32,
                    op: PlanOp::Skip,
                });
                pc = jump(pc, delta);
                continue;
            }
            // The live exit test: continue along the chosen successor. Only
            // one branch may appear in the cycle.
            HotOp::Branch {
                cond,
                then_delta,
                else_delta,
            } => {
                if branch_seen {
                    return None;
                }
                branch_seen = true;
                let (cont, exit) = if take_then {
                    (then_delta, else_delta)
                } else {
                    (else_delta, then_delta)
                };
                steps.push(PlanStep {
                    pc: pc as u32,
                    op: PlanOp::Exit {
                        cond,
                        cont_on_true: take_then,
                        exit_pc: jump(pc, exit) as u32,
                    },
                });
                pc = jump(pc, cont);
                continue;
            }
            // Everything else disqualifies the loop: calls (unbounded
            // effects), BinChecked (cold-table trap), region markers and
            // inner loop markers (nesting), returns, unreachable.
            _ => return None,
        };
        steps.push(PlanStep { pc: pc as u32, op });
        pc += 1;
    }
    Some(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Program;

    fn program(src: &str) -> Program {
        Program::new(lang::compile(src, "t").unwrap())
    }

    fn all_plans(p: &Program) -> Vec<&LoopPlan> {
        p.code().iter().flat_map(|c| c.plans.iter()).collect()
    }

    #[test]
    fn affine_counted_loop_compiles_to_a_plan() {
        let p = program(
            "global int a[16];
            global int s;
            fn main() {
                for (int i = 0; i < 16; i = i + 1) {
                    s = s + a[i];
                }
            }",
        );
        let plans = all_plans(&p);
        assert_eq!(plans.len(), 1, "exactly the one loop qualifies");
        let plan = plans[0];
        assert_eq!(plan.trip_count, 16);
        // Header: i load. Body: s load, i load (the index), a[i] load,
        // s store. Increment: i load, i store — 5 loads + 2 stores.
        assert_eq!(plan.mem_ops, 7, "plan: {:#?}", plan.steps);
        assert_eq!(
            plans[0]
                .steps
                .iter()
                .filter(|s| matches!(s.op, PlanOp::Exit { .. }))
                .count(),
            1,
            "exactly one live exit test"
        );
        // The plan is anchored at the LoopIter slot.
        assert!(matches!(
            p.code()[0].hot[plan.trigger as usize],
            HotOp::LoopIter { .. }
        ));
        assert!(p.code()[0].plan_at(plan.trigger).is_some());
        assert!(p.code()[0].plan_at(plan.trigger + 1).is_none());
    }

    #[test]
    fn disqualifying_shapes_get_no_plan() {
        // A call in the body: unbounded effects.
        let call = program(
            "global int s;
            fn f(int x) -> int { return x + 1; }
            fn main() {
                for (int i = 0; i < 8; i = i + 1) { s = f(s); }
            }",
        );
        assert!(all_plans(&call).is_empty(), "calls disqualify");
        // Division in the body: the trap needs the cold line table.
        let div = program(
            "global int s;
            fn main() {
                for (int i = 1; i < 8; i = i + 1) { s = s / i; }
            }",
        );
        assert!(all_plans(&div).is_empty(), "BinChecked disqualifies");
        // An if in the body: a second branch in the cycle.
        let iffy = program(
            "global int s;
            fn main() {
                for (int i = 0; i < 8; i = i + 1) {
                    if (s < 100) { s = s + i; }
                }
            }",
        );
        assert!(all_plans(&iffy).is_empty(), "inner branches disqualify");
        // An unknown trip count: `while` on a computed bound.
        let unknown = program(
            "global int s;
            fn main() {
                int n = s + 8;
                int i = 0;
                while (i < n) { i = i + 1; }
            }",
        );
        assert!(all_plans(&unknown).is_empty(), "unknown trip disqualifies");
    }

    #[test]
    fn inner_loop_qualifies_outer_does_not() {
        let p = program(
            "global int a[64];
            fn main() {
                for (int i = 0; i < 8; i = i + 1) {
                    for (int j = 0; j < 8; j = j + 1) {
                        a[8 * i + j] = i + j;
                    }
                }
            }",
        );
        let plans = all_plans(&p);
        assert_eq!(
            plans.len(),
            1,
            "only the innermost cycle is straight-line: {:#?}",
            plans.iter().map(|p| p.trigger).collect::<Vec<_>>()
        );
        assert_eq!(plans[0].trip_count, 8);
    }
}

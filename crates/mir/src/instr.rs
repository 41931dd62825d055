//! Three-address instructions, operands, and terminators.

use crate::module::{BlockId, GlobalId, LocalId, RegId, RegionId};
use crate::types::Value;
use std::fmt;

/// Reference to a memory-resident variable: global or function-local.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarRef {
    /// A module-level variable.
    Global(GlobalId),
    /// A function-local variable of the current frame.
    Local(LocalId),
}

/// A memory *place*: a variable, optionally indexed (for arrays).
///
/// Loads and stores name a place; the interpreter resolves it to a concrete
/// address, which is what the DiscoPoP profiler sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Place {
    /// The base variable.
    pub var: VarRef,
    /// Element index for arrays; `None` addresses element 0 (scalars).
    pub index: Option<Operand>,
}

impl Place {
    /// A scalar (unindexed) place.
    pub fn scalar(var: VarRef) -> Self {
        Place { var, index: None }
    }

    /// An indexed (array-element) place.
    pub fn indexed(var: VarRef, index: Operand) -> Self {
        Place {
            var,
            index: Some(index),
        }
    }
}

/// An operand of an instruction: a virtual register or a constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// A virtual register.
    Reg(RegId),
    /// An immediate constant.
    Const(Value),
}

impl From<RegId> for Operand {
    fn from(r: RegId) -> Self {
        Operand::Reg(r)
    }
}

impl From<Value> for Operand {
    fn from(v: Value) -> Self {
        Operand::Const(v)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Const(Value::I64(v))
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl BinOp {
    /// True for comparison operators (result is 0/1).
    pub fn is_cmp(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (0 → 1, nonzero → 0).
    Not,
    /// Convert to f64.
    ToF64,
    /// Convert to i64 (truncating).
    ToI64,
}

/// A three-address instruction.
///
/// Every instruction carries its source `line`; memory instructions are the
/// instrumentation points of the profiler.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `dst = load place`
    Load { dst: RegId, place: Place, line: u32 },
    /// `store place, src`
    Store {
        place: Place,
        src: Operand,
        line: u32,
    },
    /// `dst = lhs op rhs`
    Bin {
        dst: RegId,
        op: BinOp,
        lhs: Operand,
        rhs: Operand,
        line: u32,
    },
    /// `dst = op src`
    Un {
        dst: RegId,
        op: UnOp,
        src: Operand,
        line: u32,
    },
    /// `dst = call f(args…)` — direct call by function name; resolved by the
    /// interpreter against module functions first, then built-ins.
    Call {
        dst: Option<RegId>,
        func: String,
        args: Vec<Operand>,
        line: u32,
    },
    /// Marker: control enters region `region`. Emitted by the frontend at
    /// region boundaries so the interpreter can report control-structure
    /// information (dissertation §2.3.6) without re-deriving the CFG.
    RegionEnter { region: RegionId, line: u32 },
    /// Marker: control leaves region `region`.
    RegionExit { region: RegionId, line: u32 },
    /// Marker: a loop region begins a new iteration. Placed at the top of
    /// the loop's condition block, so the condition's own memory accesses
    /// belong to the iteration they guard (including a final failed check,
    /// which counts as the aborted iteration N+1 for dependence-context
    /// purposes).
    LoopIter { region: RegionId, line: u32 },
    /// Marker: the loop body is actually entered. Placed at the top of the
    /// body block; drives the *executed iterations* count reported on
    /// region exit (the `END loop N` annotation of the dependence output).
    LoopBody { region: RegionId, line: u32 },
}

impl Instr {
    /// The source line of this instruction.
    pub fn line(&self) -> u32 {
        match self {
            Instr::Load { line, .. }
            | Instr::Store { line, .. }
            | Instr::Bin { line, .. }
            | Instr::Un { line, .. }
            | Instr::Call { line, .. }
            | Instr::RegionEnter { line, .. }
            | Instr::RegionExit { line, .. }
            | Instr::LoopIter { line, .. }
            | Instr::LoopBody { line, .. } => *line,
        }
    }

    /// True if this is a memory operation (load or store).
    pub fn is_memory_op(&self) -> bool {
        matches!(self, Instr::Load { .. } | Instr::Store { .. })
    }

    /// True if this is a region marker (not a "real" instruction).
    pub fn is_marker(&self) -> bool {
        matches!(
            self,
            Instr::RegionEnter { .. }
                | Instr::RegionExit { .. }
                | Instr::LoopIter { .. }
                | Instr::LoopBody { .. }
        )
    }
}

/// Block terminators.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way conditional branch on a truthy operand.
    Branch {
        cond: Operand,
        then_bb: BlockId,
        else_bb: BlockId,
    },
    /// Return from the function.
    Return(Option<Operand>),
    /// Must never execute; placeholder during construction.
    Unreachable,
}

impl Terminator {
    /// Successor blocks of this terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(b) => vec![*b],
            Terminator::Branch {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            Terminator::Return(_) | Terminator::Unreachable => vec![],
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::Eq => "eq",
            BinOp::Ne => "ne",
            BinOp::Lt => "lt",
            BinOp::Le => "le",
            BinOp::Gt => "gt",
            BinOp::Ge => "ge",
        };
        write!(f, "{s}")
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnOp::Neg => "neg",
            UnOp::Not => "not",
            UnOp::ToF64 => "tof64",
            UnOp::ToI64 => "toi64",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn successors() {
        assert_eq!(Terminator::Jump(BlockId(2)).successors(), vec![BlockId(2)]);
        assert_eq!(Terminator::Return(None).successors(), Vec::<BlockId>::new());
        let b = Terminator::Branch {
            cond: Operand::Const(Value::I64(1)),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(b.successors(), vec![BlockId(1), BlockId(2)]);
    }

    #[test]
    fn instr_classification() {
        let load = Instr::Load {
            dst: RegId(0),
            place: Place::scalar(VarRef::Local(LocalId(0))),
            line: 4,
        };
        assert!(load.is_memory_op());
        assert!(!load.is_marker());
        assert_eq!(load.line(), 4);
        let marker = Instr::LoopIter {
            region: RegionId(1),
            line: 9,
        };
        assert!(marker.is_marker());
        assert!(!marker.is_memory_op());
    }

    #[test]
    fn binop_cmp() {
        assert!(BinOp::Lt.is_cmp());
        assert!(!BinOp::Add.is_cmp());
    }
}

//! Module, function, basic-block, and region structures.

use crate::instr::{Instr, Terminator};
use crate::types::Ty;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            /// The raw index.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}{}", stringify!($name).chars().next().unwrap().to_ascii_lowercase(), self.0)
            }
        }
    };
}

id_type!(
    /// Index of a function within a module.
    FuncId
);
id_type!(
    /// Index of a basic block within a function.
    BlockId
);
id_type!(
    /// Index of a global variable within a module.
    GlobalId
);
id_type!(
    /// Index of a local variable within a function.
    LocalId
);
id_type!(
    /// A virtual register; each function has an unbounded supply.
    RegId
);
id_type!(
    /// Index of a control region within a function.
    RegionId
);

/// A module-level (global) variable or array.
#[derive(Debug, Clone)]
pub struct Global {
    /// Source-level name.
    pub name: String,
    /// Element type.
    pub ty: Ty,
    /// Number of elements (1 for scalars).
    pub elems: u64,
    /// Source line of the declaration.
    pub line: u32,
}

/// A function-local variable or array.
#[derive(Debug, Clone)]
pub struct Var {
    /// Source-level name.
    pub name: String,
    /// Element type.
    pub ty: Ty,
    /// Number of elements (1 for scalars).
    pub elems: u64,
    /// Whether this local is a parameter of the function.
    pub is_param: bool,
    /// Source line of the declaration.
    pub line: u32,
    /// The region this variable is declared in, if it is scoped to a region
    /// nested inside the function body. `None` means function scope.
    ///
    /// Used for variable-lifetime analysis: region-scoped locals die when the
    /// region exits (dissertation §2.3.5).
    pub region: Option<RegionId>,
}

/// The kind of a control region (dissertation §2.3.6: loop, if-else, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// A `for`/`while` loop.
    Loop,
    /// An `if`/`if-else` construct.
    Branch,
    /// The function body itself.
    FunctionBody,
}

impl std::fmt::Display for RegionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegionKind::Loop => write!(f, "loop"),
            RegionKind::Branch => write!(f, "branch"),
            RegionKind::FunctionBody => write!(f, "func"),
        }
    }
}

/// A single-entry single-exit control region, recorded during lowering.
///
/// DiscoPoP's static phase determines the boundaries of control regions
/// (dissertation §1.5.1); our frontend records them directly, and the
/// interpreter emits entry/exit events when `RegionEnter`/`RegionExit`
/// marker instructions execute.
#[derive(Debug, Clone)]
pub struct Region {
    /// The region kind.
    pub kind: RegionKind,
    /// First source line of the region.
    pub start_line: u32,
    /// Last source line of the region.
    pub end_line: u32,
    /// Enclosing region, if any.
    pub parent: Option<RegionId>,
    /// Locals whose scope is exactly this region (they die on region exit).
    pub owned_locals: Vec<LocalId>,
}

/// A straight-line sequence of instructions ended by a terminator.
#[derive(Debug, Clone)]
pub struct BasicBlock {
    /// Instructions in execution order.
    pub instrs: Vec<Instr>,
    /// The block terminator.
    pub term: Terminator,
}

impl BasicBlock {
    /// An empty block with an unreachable terminator (patched by builders).
    pub fn new() -> Self {
        BasicBlock {
            instrs: Vec::new(),
            term: Terminator::Unreachable,
        }
    }
}

impl Default for BasicBlock {
    fn default() -> Self {
        Self::new()
    }
}

/// A function: a CFG over basic blocks plus local-variable metadata.
#[derive(Debug, Clone)]
pub struct Function {
    /// Source-level name.
    pub name: String,
    /// Locals; parameters come first, in order.
    pub locals: Vec<Var>,
    /// Number of parameters (a prefix of `locals`).
    pub num_params: usize,
    /// Return type, or `None` for `void`.
    pub ret_ty: Option<Ty>,
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<BasicBlock>,
    /// Control regions, outermost first; region 0 is the function body.
    pub regions: Vec<Region>,
    /// Number of virtual registers used.
    pub num_regs: u32,
    /// First source line of the function.
    pub start_line: u32,
    /// Last source line of the function.
    pub end_line: u32,
}

impl Function {
    /// The entry block id.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Iterate over `(BlockId, &BasicBlock)` pairs.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &BasicBlock)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Total number of instructions across all blocks (excluding terminators).
    pub fn num_instrs(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }

    /// Look up a local by source name (last declaration wins, matching the
    /// shadowing discipline of the frontend).
    pub fn local_by_name(&self, name: &str) -> Option<LocalId> {
        self.locals
            .iter()
            .rposition(|v| v.name == name)
            .map(|i| LocalId(i as u32))
    }
}

/// A compilation unit: globals plus functions.
#[derive(Debug, Clone)]
pub struct Module {
    /// Module name (used as the `fileID` in dependence output).
    pub name: String,
    /// Global variables and arrays.
    pub globals: Vec<Global>,
    /// Functions; execution starts at `main` by convention.
    pub functions: Vec<Function>,
}

impl Module {
    /// Create an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            globals: Vec::new(),
            functions: Vec::new(),
        }
    }

    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<(FuncId, &Function)> {
        self.functions
            .iter()
            .enumerate()
            .find(|(_, f)| f.name == name)
            .map(|(i, f)| (FuncId(i as u32), f))
    }

    /// Find a global by name.
    pub fn global(&self, name: &str) -> Option<(GlobalId, &Global)> {
        self.globals
            .iter()
            .enumerate()
            .find(|(_, g)| g.name == name)
            .map(|(i, g)| (GlobalId(i as u32), g))
    }

    /// Total static instruction count.
    pub fn num_instrs(&self) -> usize {
        self.functions.iter().map(Function::num_instrs).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_display() {
        assert_eq!(BlockId(3).to_string(), "b3");
        assert_eq!(RegId(7).to_string(), "r7");
        assert_eq!(FuncId(1).index(), 1);
    }

    #[test]
    fn module_lookup() {
        let mut m = Module::new("test");
        m.globals.push(Global {
            name: "g".into(),
            ty: Ty::I64,
            elems: 4,
            line: 1,
        });
        assert!(m.global("g").is_some());
        assert!(m.global("h").is_none());
        assert!(m.function("main").is_none());
    }
}

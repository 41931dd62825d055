//! `lang` — a small C-like language ("mini-C") that compiles to the `mir`
//! intermediate representation.
//!
//! The DiscoPoP reproduction uses this frontend where the original work used
//! Clang: benchmark kernels (NAS-, Starbench-, BOTS-style workloads in the
//! `workloads` crate) are written in mini-C, compiled to MIR, and executed by
//! the instrumenting interpreter in `interp`.
//!
//! # Example
//!
//! ```
//! let src = r#"
//!     fn main() -> int {
//!         int sum = 0;
//!         for (int i = 0; i < 10; i = i + 1) {
//!             sum = sum + i;
//!         }
//!         return sum;
//!     }
//! "#;
//! let module = lang::compile(src, "demo").unwrap();
//! assert!(module.function("main").is_some());
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod ast;
pub mod lexer;
pub mod lower;
pub mod parser;

use std::fmt;

/// The deepest nesting the frontend accepts, in AST levels: a block, a
/// statement in it, an operand (unary, parenthesised, indexed, call
/// argument or atom), and each link of an operator chain — `a + b + c` is
/// as deep as `a + (b + (c))`, because lowering and `Drop` recurse on the
/// left-deep tree just as the parser recurses on the right-deep one.
/// Deeper source is a [`CompileError`] naming this limit, not a stack
/// overflow: a program at exactly the limit compiles and profiles, static
/// analysis included, on a thread with a 2 MiB stack (`tests/nesting.rs`,
/// which also reports how deep the catalogue goes).
pub const MAX_NESTING: usize = 256;

/// A compilation failure with a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// 1-based source line.
    pub line: u32,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CompileError {}

impl CompileError {
    pub(crate) fn new(line: u32, message: impl Into<String>) -> Self {
        CompileError {
            line,
            message: message.into(),
        }
    }
}

/// Compile mini-C source text to a verified MIR [`mir::Module`].
pub fn compile(source: &str, module_name: &str) -> Result<mir::Module, CompileError> {
    let tokens = lexer::lex(source)?;
    let program = parser::parse(tokens)?;
    let module = lower::lower(&program, module_name)?;
    let errs = mir::verify_module(&module);
    if let Some(e) = errs.first() {
        return Err(CompileError::new(0, format!("internal lowering bug: {e}")));
    }
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_smoke() {
        let m = compile("fn main() -> int { return 42; }", "m").unwrap();
        assert_eq!(m.functions.len(), 1);
    }

    #[test]
    fn error_has_line() {
        let e = compile("fn main() -> int { return x; }", "m").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("x"));
    }
}

//! Lowering from the mini-C AST to MIR.
//!
//! Lowering follows the LLVM `-O0` discipline the DiscoPoP instrumentation
//! pass relies on: every variable read becomes a `load`, every write a
//! `store`, and control regions (loops, branches) are delimited with
//! `RegionEnter`/`RegionExit`/`LoopIter` marker instructions so the
//! interpreter can emit control-structure events without CFG re-analysis.

use crate::ast::*;
use crate::CompileError;
use mir::{
    BinOp, FunctionBuilder, Instr, ModuleBuilder, Operand, Place, RegionId, RegionKind, Terminator,
    UnOp, Value, VarRef,
};
use std::collections::HashMap;

/// What a name resolves to.
#[derive(Debug, Clone, Copy)]
enum Binding {
    Global(mir::GlobalId, Type, u64),
    Local(mir::LocalId, Type, u64),
}

impl Binding {
    fn ty(&self) -> Type {
        match self {
            Binding::Global(_, t, _) | Binding::Local(_, t, _) => *t,
        }
    }
    fn elems(&self) -> u64 {
        match self {
            Binding::Global(_, _, e) | Binding::Local(_, _, e) => *e,
        }
    }
    fn var_ref(&self) -> VarRef {
        match self {
            Binding::Global(g, _, _) => VarRef::Global(*g),
            Binding::Local(l, _, _) => VarRef::Local(*l),
        }
    }
}

/// User-function signature used during lowering.
#[derive(Debug, Clone)]
struct Sig {
    index: usize,
    params: Vec<Type>,
    ret: Option<Type>,
}

/// Builtin signature: fixed parameter types and optional return.
struct Builtin {
    params: &'static [Type],
    ret: Option<Type>,
    variadic: bool,
}

fn builtin(name: &str) -> Option<Builtin> {
    use Type::*;
    let b = |params: &'static [Type], ret: Option<Type>| {
        Some(Builtin {
            params,
            ret,
            variadic: false,
        })
    };
    match name {
        "print" => Some(Builtin {
            params: &[],
            ret: None,
            variadic: true,
        }),
        "sqrt" | "sin" | "cos" | "exp" | "log" | "fabs" | "floor" | "ceil" => {
            b(&[Float], Some(Float))
        }
        "pow" | "fmin" | "fmax" => b(&[Float, Float], Some(Float)),
        "abs" => b(&[Int], Some(Int)),
        "min" | "max" => b(&[Int, Int], Some(Int)),
        "rand" => b(&[], Some(Int)),
        "frand" => b(&[], Some(Float)),
        "srand" => b(&[Int], None),
        "tid" => b(&[], Some(Int)),
        "lock" | "unlock" => b(&[Int], None),
        "join" => b(&[Int], None),
        // Actor mailboxes: `send(actor, value)` blocks when the target's
        // bounded mailbox is full; `receive()` blocks until a message
        // arrives in the calling actor's own mailbox.
        "send" => b(&[Int, Int], None),
        "receive" => b(&[], Some(Int)),
        _ => None,
    }
}

/// Lower a parsed [`Program`] to a MIR [`mir::Module`].
pub fn lower(prog: &Program, module_name: &str) -> Result<mir::Module, CompileError> {
    let mut mb = ModuleBuilder::new(module_name);
    let mut globals: HashMap<String, Binding> = HashMap::new();
    for g in &prog.globals {
        if globals.contains_key(&g.name) {
            return Err(CompileError::new(
                g.line,
                format!("duplicate global `{}`", g.name),
            ));
        }
        let id = mb.global(&g.name, g.ty.to_ir(), g.elems, g.line);
        globals.insert(g.name.clone(), Binding::Global(id, g.ty, g.elems));
    }
    let mut sigs: HashMap<String, Sig> = HashMap::new();
    for (i, f) in prog.functions.iter().enumerate() {
        if sigs.contains_key(&f.name) {
            return Err(CompileError::new(
                f.line,
                format!("duplicate function `{}`", f.name),
            ));
        }
        if builtin(&f.name).is_some() || f.name == "spawn" || f.name == "spawn_actor" {
            return Err(CompileError::new(
                f.line,
                format!("`{}` shadows a builtin", f.name),
            ));
        }
        sigs.insert(
            f.name.clone(),
            Sig {
                index: i,
                params: f.params.iter().map(|(_, t)| *t).collect(),
                ret: f.ret,
            },
        );
    }
    for f in &prog.functions {
        let func = FnLower::new(&globals, &sigs, f).run()?;
        mb.add_function(func);
    }
    Ok(mb.build())
}

struct FnLower<'a> {
    fb: FunctionBuilder,
    globals: &'a HashMap<String, Binding>,
    sigs: &'a HashMap<String, Sig>,
    decl: &'a FuncDecl,
    scopes: Vec<HashMap<String, Binding>>,
    /// Stack of `(continue_target, break_target)`.
    loops: Vec<(mir::BlockId, mir::BlockId)>,
    regions: Vec<RegionId>,
}

impl<'a> FnLower<'a> {
    fn new(
        globals: &'a HashMap<String, Binding>,
        sigs: &'a HashMap<String, Sig>,
        decl: &'a FuncDecl,
    ) -> Self {
        let fb = FunctionBuilder::new(&decl.name, decl.ret.map(Type::to_ir), decl.line);
        FnLower {
            fb,
            globals,
            sigs,
            decl,
            scopes: vec![HashMap::new()],
            loops: Vec::new(),
            regions: Vec::new(),
        }
    }

    fn run(mut self) -> Result<mir::Function, CompileError> {
        self.regions.push(self.fb.body_region());
        for (name, ty) in &self.decl.params {
            let id = self.fb.param(name, ty.to_ir(), self.decl.line);
            self.bind(name.clone(), Binding::Local(id, *ty, 1), self.decl.line)?;
        }
        self.lower_block_stmts(&self.decl.body)?;
        // Implicit return (zero for value-returning functions, C-style).
        if self.fb.is_open() {
            let term = match self.decl.ret {
                None => Terminator::Return(None),
                Some(t) => Terminator::Return(Some(Operand::Const(Value::zero(t.to_ir())))),
            };
            self.fb.terminate(term);
        }
        // Seal any dead blocks left open (e.g. merge blocks after both arms
        // returned) so the verifier's terminator check passes; they are
        // unreachable at runtime.
        let end = self.decl.end_line;
        let f = self.fb.function_mut();
        for b in &mut f.blocks {
            if matches!(b.term, Terminator::Unreachable) {
                b.term = match f.ret_ty {
                    None => Terminator::Return(None),
                    Some(t) => Terminator::Return(Some(Operand::Const(Value::zero(t)))),
                };
            }
        }
        Ok(self.fb.build(end))
    }

    /// The innermost open region; the body region sits at the bottom of
    /// the stack for the whole function.
    fn cur_region(&self) -> RegionId {
        self.regions
            .last()
            .copied()
            .unwrap_or_else(|| self.fb.body_region())
    }

    fn bind(&mut self, name: String, b: Binding, line: u32) -> Result<(), CompileError> {
        let scope = self
            .scopes
            .last_mut()
            .ok_or_else(|| CompileError::new(line, "internal: no open scope"))?;
        if scope.contains_key(&name) {
            return Err(CompileError::new(
                line,
                format!("`{name}` already declared in this scope"),
            ));
        }
        scope.insert(name, b);
        Ok(())
    }

    fn lookup(&self, name: &str, line: u32) -> Result<Binding, CompileError> {
        for scope in self.scopes.iter().rev() {
            if let Some(b) = scope.get(name) {
                return Ok(*b);
            }
        }
        self.globals
            .get(name)
            .copied()
            .ok_or_else(|| CompileError::new(line, format!("unknown variable `{name}`")))
    }

    /// Lower the statements of a block inside a fresh lexical scope.
    fn lower_block_stmts(&mut self, blk: &Block) -> Result<(), CompileError> {
        self.scopes.push(HashMap::new());
        for s in &blk.stmts {
            if !self.fb.is_open() {
                break; // dead code after return/break/continue
            }
            self.stmt(s)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Decl {
                name,
                ty,
                elems,
                init,
                line,
            } => {
                let region = if self.cur_region() == self.fb.body_region() {
                    None
                } else {
                    Some(self.cur_region())
                };
                let id = self.fb.local(name, ty.to_ir(), *elems, *line, region);
                self.bind(name.clone(), Binding::Local(id, *ty, *elems), *line)?;
                if let Some(e) = init {
                    if *elems > 1 {
                        return Err(CompileError::new(*line, "array initializers not supported"));
                    }
                    let (v, vty) = self.expr(e)?;
                    let v = self.coerce(v, vty, *ty, *line);
                    self.fb.store(Place::scalar(VarRef::Local(id)), v, *line);
                }
                Ok(())
            }
            Stmt::Assign {
                target,
                op,
                value,
                line,
            } => self.assign(target, *op, value, *line),
            Stmt::Return { value, line } => {
                match (self.decl.ret, value) {
                    (None, None) => self.fb.terminate(Terminator::Return(None)),
                    (Some(rt), Some(e)) => {
                        let (v, vty) = self.expr(e)?;
                        let v = self.coerce(v, vty, rt, *line);
                        self.fb.terminate(Terminator::Return(Some(v)));
                    }
                    (None, Some(_)) => {
                        return Err(CompileError::new(*line, "void function returns a value"))
                    }
                    (Some(_), None) => {
                        return Err(CompileError::new(*line, "missing return value"))
                    }
                }
                Ok(())
            }
            Stmt::Break { line } => {
                let (_, brk) = *self
                    .loops
                    .last()
                    .ok_or_else(|| CompileError::new(*line, "`break` outside loop"))?;
                self.fb.terminate(Terminator::Jump(brk));
                Ok(())
            }
            Stmt::Continue { line } => {
                let (cont, _) = *self
                    .loops
                    .last()
                    .ok_or_else(|| CompileError::new(*line, "`continue` outside loop"))?;
                self.fb.terminate(Terminator::Jump(cont));
                Ok(())
            }
            Stmt::ExprStmt { expr, line } => {
                match expr {
                    Expr::Call { name, args, line } => {
                        self.call(name, args, *line, true)?;
                    }
                    _ => {
                        // Evaluate for effect (loads still profile).
                        self.expr(expr)
                            .map(|_| ())
                            .map_err(|e| CompileError::new(*line, e.message))?;
                    }
                }
                Ok(())
            }
            Stmt::Block(b) => self.lower_block_stmts(b),
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                line,
                end_line,
            } => self.if_stmt(cond, then_blk, else_blk.as_ref(), *line, *end_line),
            Stmt::While {
                cond,
                body,
                line,
                end_line,
            } => self.loop_stmt(None, Some(cond), None, body, *line, *end_line),
            Stmt::For {
                init,
                cond,
                step,
                body,
                line,
                end_line,
            } => self.loop_stmt(
                init.as_deref(),
                cond.as_ref(),
                step.as_deref(),
                body,
                *line,
                *end_line,
            ),
        }
    }

    fn assign(
        &mut self,
        target: &LValue,
        op: Option<BinOp>,
        value: &Expr,
        line: u32,
    ) -> Result<(), CompileError> {
        let b = self.lookup(&target.name, line)?;
        let place = match &target.index {
            Some(ix) => {
                if b.elems() <= 1 {
                    return Err(CompileError::new(
                        line,
                        format!("`{}` is not an array", target.name),
                    ));
                }
                let (iv, ity) = self.expr(ix)?;
                let iv = self.coerce(iv, ity, Type::Int, line);
                Place::indexed(b.var_ref(), iv)
            }
            None => {
                if b.elems() > 1 {
                    return Err(CompileError::new(
                        line,
                        format!("array `{}` assigned without index", target.name),
                    ));
                }
                Place::scalar(b.var_ref())
            }
        };
        let tty = b.ty();
        let rhs = match op {
            None => {
                let (v, vty) = self.expr(value)?;
                self.coerce(v, vty, tty, line)
            }
            Some(binop) => {
                let cur = self.fb.load(place, line);
                let (v, vty) = self.expr(value)?;
                let common = if tty == Type::Float || vty == Type::Float {
                    Type::Float
                } else {
                    Type::Int
                };
                let lhs = self.coerce(Operand::Reg(cur), tty, common, line);
                let v = self.coerce(v, vty, common, line);
                let r = self.fb.bin(binop, lhs, v, line);
                self.coerce(Operand::Reg(r), common, tty, line)
            }
        };
        self.fb.store(place, rhs, line);
        Ok(())
    }

    fn if_stmt(
        &mut self,
        cond: &Expr,
        then_blk: &Block,
        else_blk: Option<&Block>,
        line: u32,
        end_line: u32,
    ) -> Result<(), CompileError> {
        let region = self
            .fb
            .region(RegionKind::Branch, line, end_line, self.cur_region());
        self.fb.push(Instr::RegionEnter { region, line });
        let (c, _) = self.expr(cond)?;
        let then_bb = self.fb.new_block();
        let merge = self.fb.new_block();
        let else_bb = if else_blk.is_some() {
            self.fb.new_block()
        } else {
            merge
        };
        self.fb.terminate(Terminator::Branch {
            cond: c,
            then_bb,
            else_bb,
        });

        self.regions.push(region);
        self.fb.switch_to(then_bb);
        self.lower_block_stmts(then_blk)?;
        self.fb.terminate_if_open(Terminator::Jump(merge));
        if let Some(eb) = else_blk {
            self.fb.switch_to(else_bb);
            self.lower_block_stmts(eb)?;
            self.fb.terminate_if_open(Terminator::Jump(merge));
        }
        self.regions.pop();

        self.fb.switch_to(merge);
        self.fb.push(Instr::RegionExit {
            region,
            line: end_line,
        });
        Ok(())
    }

    /// Shared lowering for `while` (no init/step) and `for`.
    fn loop_stmt(
        &mut self,
        init: Option<&Stmt>,
        cond: Option<&Expr>,
        step: Option<&Stmt>,
        body: &Block,
        line: u32,
        end_line: u32,
    ) -> Result<(), CompileError> {
        let region = self
            .fb
            .region(RegionKind::Loop, line, end_line, self.cur_region());
        self.fb.push(Instr::RegionEnter { region, line });
        // The loop region opens before `init` so the induction variable is
        // scoped (and lifetime-bound) to the loop.
        self.regions.push(region);
        self.scopes.push(HashMap::new());
        if let Some(s) = init {
            self.stmt(s)?;
        }
        let cond_bb = self.fb.new_block();
        let body_bb = self.fb.new_block();
        let exit_bb = self.fb.new_block();
        let step_bb = if step.is_some() {
            self.fb.new_block()
        } else {
            cond_bb
        };
        self.fb.terminate(Terminator::Jump(cond_bb));

        self.fb.switch_to(cond_bb);
        // The iteration context opens before the condition is evaluated so
        // the condition's own reads belong to the iteration they guard.
        self.fb.push(Instr::LoopIter { region, line });
        let c = match cond {
            Some(e) => self.expr(e)?.0,
            None => Operand::Const(Value::I64(1)),
        };
        self.fb.terminate(Terminator::Branch {
            cond: c,
            then_bb: body_bb,
            else_bb: exit_bb,
        });

        self.fb.switch_to(body_bb);
        self.fb.push(Instr::LoopBody { region, line });
        self.loops.push((step_bb, exit_bb));
        self.lower_block_stmts(body)?;
        self.loops.pop();
        self.fb.terminate_if_open(Terminator::Jump(step_bb));

        if let Some(s) = step {
            self.fb.switch_to(step_bb);
            self.stmt(s)?;
            self.fb.terminate_if_open(Terminator::Jump(cond_bb));
        }

        self.scopes.pop();
        self.regions.pop();
        self.fb.switch_to(exit_bb);
        self.fb.push(Instr::RegionExit {
            region,
            line: end_line,
        });
        Ok(())
    }

    /// Lower a call in statement (`as_stmt`) or expression position.
    /// Returns the result operand and type for expression position.
    fn call(
        &mut self,
        name: &str,
        args: &[Expr],
        line: u32,
        as_stmt: bool,
    ) -> Result<Option<(Operand, Type)>, CompileError> {
        // `spawn(worker, arg…)` / `spawn_actor(worker, arg…)` — resolve
        // the callee statically. Both return the new thread/actor id;
        // `spawn_actor` marks the child as a mailbox-owning actor.
        if name == "spawn" || name == "spawn_actor" {
            let Some(Expr::Var(fname, _)) = args.first() else {
                return Err(CompileError::new(
                    line,
                    format!("first argument of `{name}` must be a function name"),
                ));
            };
            let sig = self.sigs.get(fname).ok_or_else(|| {
                CompileError::new(line, format!("unknown function `{fname}` in {name}"))
            })?;
            if args.len() - 1 != sig.params.len() {
                return Err(CompileError::new(
                    line,
                    format!(
                        "{name} of `{fname}`: expected {} args, got {}",
                        sig.params.len(),
                        args.len() - 1
                    ),
                ));
            }
            let mut ops = vec![Operand::Const(Value::I64(sig.index as i64))];
            let ptys = sig.params.clone();
            for (a, pty) in args[1..].iter().zip(ptys) {
                let (v, vty) = self.expr(a)?;
                ops.push(self.coerce(v, vty, pty, line));
            }
            let dst = self.fb.call(name, ops, true, line);
            return Ok(dst.map(|r| (Operand::Reg(r), Type::Int)));
        }

        if let Some(sig) = self.sigs.get(name).cloned() {
            if args.len() != sig.params.len() {
                return Err(CompileError::new(
                    line,
                    format!(
                        "`{name}` expects {} args, got {}",
                        sig.params.len(),
                        args.len()
                    ),
                ));
            }
            let mut ops = Vec::with_capacity(args.len());
            for (a, pty) in args.iter().zip(&sig.params) {
                let (v, vty) = self.expr(a)?;
                ops.push(self.coerce(v, vty, *pty, line));
            }
            let dst = self.fb.call(name, ops, sig.ret.is_some(), line);
            return match (sig.ret.zip(dst), as_stmt) {
                (Some((t, r)), _) => Ok(Some((Operand::Reg(r), t))),
                (None, true) => Ok(None),
                (None, false) => Err(CompileError::new(
                    line,
                    format!("void function `{name}` used as a value"),
                )),
            };
        }

        if let Some(b) = builtin(name) {
            if !b.variadic && args.len() != b.params.len() {
                return Err(CompileError::new(
                    line,
                    format!(
                        "builtin `{name}` expects {} args, got {}",
                        b.params.len(),
                        args.len()
                    ),
                ));
            }
            let mut ops = Vec::with_capacity(args.len());
            for (i, a) in args.iter().enumerate() {
                let (v, vty) = self.expr(a)?;
                let v = if b.variadic {
                    v
                } else {
                    self.coerce(v, vty, b.params[i], line)
                };
                ops.push(v);
            }
            let dst = self.fb.call(name, ops, b.ret.is_some(), line);
            return match (b.ret.zip(dst), as_stmt) {
                (Some((t, r)), _) => Ok(Some((Operand::Reg(r), t))),
                (None, true) => Ok(None),
                (None, false) => Err(CompileError::new(
                    line,
                    format!("void builtin `{name}` used as a value"),
                )),
            };
        }

        Err(CompileError::new(
            line,
            format!("unknown function `{name}`"),
        ))
    }

    fn coerce(&mut self, v: Operand, from: Type, to: Type, line: u32) -> Operand {
        if from == to {
            return v;
        }
        // Fold constants directly.
        if let Operand::Const(c) = v {
            return Operand::Const(match to {
                Type::Int => Value::I64(c.as_i64()),
                Type::Float => Value::F64(c.as_f64()),
            });
        }
        let op = match to {
            Type::Float => UnOp::ToF64,
            Type::Int => UnOp::ToI64,
        };
        Operand::Reg(self.fb.un(op, v, line))
    }

    fn expr(&mut self, e: &Expr) -> Result<(Operand, Type), CompileError> {
        match e {
            Expr::Int(n, _) => Ok((Operand::Const(Value::I64(*n)), Type::Int)),
            Expr::Float(x, _) => Ok((Operand::Const(Value::F64(*x)), Type::Float)),
            Expr::Var(name, line) => {
                let b = self.lookup(name, *line)?;
                if b.elems() > 1 {
                    return Err(CompileError::new(
                        *line,
                        format!("array `{name}` used without index"),
                    ));
                }
                let r = self.fb.load(Place::scalar(b.var_ref()), *line);
                Ok((Operand::Reg(r), b.ty()))
            }
            Expr::Index(name, idx, line) => {
                let b = self.lookup(name, *line)?;
                if b.elems() <= 1 {
                    return Err(CompileError::new(
                        *line,
                        format!("`{name}` is not an array"),
                    ));
                }
                let (iv, ity) = self.expr(idx)?;
                let iv = self.coerce(iv, ity, Type::Int, *line);
                let r = self.fb.load(Place::indexed(b.var_ref(), iv), *line);
                Ok((Operand::Reg(r), b.ty()))
            }
            Expr::Un { op, expr, line } => {
                let (v, vty) = self.expr(expr)?;
                match op {
                    UnOpKind::Neg => {
                        let r = self.fb.un(UnOp::Neg, v, *line);
                        Ok((Operand::Reg(r), vty))
                    }
                    UnOpKind::Not => {
                        let v = self.coerce(v, vty, Type::Int, *line);
                        let r = self.fb.un(UnOp::Not, v, *line);
                        Ok((Operand::Reg(r), Type::Int))
                    }
                }
            }
            Expr::Bin { op, lhs, rhs, line } => {
                let (lv, lty) = self.expr(lhs)?;
                let (rv, rty) = self.expr(rhs)?;
                // Integer-only operators force int; otherwise promote to
                // float if either side is float.
                let int_only = matches!(
                    op,
                    BinOp::Rem | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr
                );
                let common = if int_only {
                    Type::Int
                } else if lty == Type::Float || rty == Type::Float {
                    Type::Float
                } else {
                    Type::Int
                };
                let lv = self.coerce(lv, lty, common, *line);
                let rv = self.coerce(rv, rty, common, *line);
                let r = self.fb.bin(*op, lv, rv, *line);
                let result_ty = if op.is_cmp() { Type::Int } else { common };
                Ok((Operand::Reg(r), result_ty))
            }
            Expr::Call { name, args, line } => self
                .call(name, args, *line, false)?
                .ok_or_else(|| CompileError::new(*line, "void call used as a value")),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::compile;
    use mir::{Instr, RegionKind};

    #[test]
    fn loop_region_markers_present() {
        let m = compile(
            "fn main() { int s = 0; for (int i = 0; i < 4; i = i + 1) { s = s + i; } }",
            "m",
        )
        .unwrap();
        let (_, f) = m.function("main").unwrap();
        let instrs: Vec<&Instr> = f.blocks.iter().flat_map(|b| b.instrs.iter()).collect();
        assert!(instrs
            .iter()
            .any(|i| matches!(i, Instr::RegionEnter { .. })));
        assert!(instrs.iter().any(|i| matches!(i, Instr::RegionExit { .. })));
        assert!(instrs.iter().any(|i| matches!(i, Instr::LoopIter { .. })));
        // Two regions: function body + loop.
        assert_eq!(f.regions.len(), 2);
        assert_eq!(f.regions[1].kind, RegionKind::Loop);
    }

    #[test]
    fn loop_induction_var_scoped_to_loop() {
        let m = compile("fn main() { for (int i = 0; i < 4; i = i + 1) { } }", "m").unwrap();
        let (_, f) = m.function("main").unwrap();
        let i_var = f.local_by_name("i").unwrap();
        assert_eq!(f.locals[i_var.index()].region, Some(mir::RegionId(1)));
        assert_eq!(f.regions[1].owned_locals, vec![i_var]);
    }

    #[test]
    fn compound_assign_loads_then_stores() {
        let m = compile("global int g; fn main() { g += 2; }", "m").unwrap();
        let (_, f) = m.function("main").unwrap();
        let instrs: Vec<&Instr> = f.blocks.iter().flat_map(|b| b.instrs.iter()).collect();
        let loads = instrs
            .iter()
            .filter(|i| matches!(i, Instr::Load { .. }))
            .count();
        let stores = instrs
            .iter()
            .filter(|i| matches!(i, Instr::Store { .. }))
            .count();
        assert_eq!(loads, 1);
        assert_eq!(stores, 1);
    }

    #[test]
    fn float_promotion() {
        let m = compile(
            "fn main() -> float { float x = 1.5; int y = 2; return x + y; }",
            "m",
        )
        .unwrap();
        let (_, f) = m.function("main").unwrap();
        let has_tof64 = f.blocks.iter().flat_map(|b| b.instrs.iter()).any(|i| {
            matches!(
                i,
                Instr::Un {
                    op: mir::UnOp::ToF64,
                    ..
                }
            )
        });
        assert!(has_tof64, "int operand must be promoted to f64");
    }

    #[test]
    fn spawn_resolves_function_index() {
        let m = compile(
            "fn worker(int x) { } fn main() { int t = spawn(worker, 3); join(t); }",
            "m",
        )
        .unwrap();
        let (_, f) = m.function("main").unwrap();
        let spawn = f
            .blocks
            .iter()
            .flat_map(|b| b.instrs.iter())
            .find_map(|i| match i {
                Instr::Call { func, args, .. } if func == "spawn" => Some(args.clone()),
                _ => None,
            })
            .expect("spawn call present");
        assert_eq!(spawn[0], mir::Operand::Const(mir::Value::I64(0)));
    }

    #[test]
    fn errors_reported() {
        assert!(compile("fn main() { x = 1; }", "m").is_err());
        assert!(compile("fn main() { int a[4]; a = 1; }", "m").is_err());
        assert!(compile("fn main() { break; }", "m").is_err());
        assert!(compile("fn main() { foo(); }", "m").is_err());
        assert!(compile("fn f() {} fn f() {}", "m").is_err());
        assert!(compile("fn main() { int x; int x; }", "m").is_err());
        assert!(compile("fn main() -> int { int v = nothing(); }", "m").is_err());
    }

    #[test]
    fn while_with_break_and_continue_compiles() {
        let m = compile(
            "fn main() -> int {
                int i = 0;
                int s = 0;
                while (1) {
                    i = i + 1;
                    if (i % 2 == 0) { continue; }
                    if (i > 9) { break; }
                    s = s + i;
                }
                return s;
            }",
            "m",
        )
        .unwrap();
        assert!(mir::verify_module(&m).is_empty());
    }

    #[test]
    fn nested_loops_have_nested_regions() {
        let m = compile(
            "fn main() {
                for (int i = 0; i < 2; i = i + 1) {
                    for (int j = 0; j < 2; j = j + 1) { }
                }
            }",
            "m",
        )
        .unwrap();
        let (_, f) = m.function("main").unwrap();
        assert_eq!(f.regions.len(), 3);
        assert_eq!(f.regions[2].parent, Some(mir::RegionId(1)));
    }
}

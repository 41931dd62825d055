//! Recursive-descent parser for mini-C with precedence-climbing expressions.

use crate::ast::*;
use crate::lexer::{Tok, Token};
use crate::{CompileError, MAX_NESTING};
use mir::BinOp;

/// Parse a token stream into a [`Program`].
pub fn parse(tokens: Vec<Token>) -> Result<Program, CompileError> {
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    p.program()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// AST levels open at the current position (see [`MAX_NESTING`]).
    depth: usize,
}

impl Parser {
    /// Open one more AST level: past [`MAX_NESTING`] the parse fails here
    /// instead of overflowing the stack, here or in lowering and `Drop`.
    /// A successful caller closes the level with `self.depth -= 1`; an
    /// error ends the parse, so nothing needs closing then.
    fn enter(&mut self) -> Result<(), CompileError> {
        if self.depth >= MAX_NESTING {
            return Err(CompileError::new(
                self.line(),
                format!("nesting exceeds the limit of {MAX_NESTING} levels"),
            ));
        }
        self.depth += 1;
        Ok(())
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|t| &t.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.tokens.get(self.pos + 1).map(|t| &t.tok)
    }

    fn line(&self) -> u32 {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map(|t| t.line)
            .unwrap_or(1)
    }

    fn prev_line(&self) -> u32 {
        self.tokens
            .get(self.pos.saturating_sub(1))
            .map(|t| t.line)
            .unwrap_or(1)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|t| t.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<(), CompileError> {
        if self.eat(&tok) {
            Ok(())
        } else {
            Err(CompileError::new(
                self.line(),
                format!("expected {what}, found {:?}", self.peek()),
            ))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, CompileError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(CompileError::new(
                self.prev_line(),
                format!("expected {what}, found {other:?}"),
            )),
        }
    }

    fn ty(&mut self) -> Result<Type, CompileError> {
        match self.bump() {
            Some(Tok::KwInt) => Ok(Type::Int),
            Some(Tok::KwFloat) => Ok(Type::Float),
            other => Err(CompileError::new(
                self.prev_line(),
                format!("expected type, found {other:?}"),
            )),
        }
    }

    fn program(&mut self) -> Result<Program, CompileError> {
        let mut prog = Program::default();
        while let Some(tok) = self.peek() {
            match tok {
                Tok::KwGlobal => prog.globals.push(self.global_decl()?),
                Tok::KwFn => prog.functions.push(self.func_decl()?),
                other => {
                    return Err(CompileError::new(
                        self.line(),
                        format!("expected `global` or `fn` at top level, found {other:?}"),
                    ))
                }
            }
        }
        Ok(prog)
    }

    fn global_decl(&mut self) -> Result<GlobalDecl, CompileError> {
        let line = self.line();
        self.expect(Tok::KwGlobal, "`global`")?;
        let ty = self.ty()?;
        let name = self.ident("global name")?;
        let elems = if self.eat(&Tok::LBracket) {
            let n = match self.bump() {
                Some(Tok::Int(n)) if n > 0 => n as u64,
                other => {
                    return Err(CompileError::new(
                        self.prev_line(),
                        format!("expected positive array size, found {other:?}"),
                    ))
                }
            };
            self.expect(Tok::RBracket, "`]`")?;
            n
        } else {
            1
        };
        self.expect(Tok::Semi, "`;`")?;
        Ok(GlobalDecl {
            name,
            ty,
            elems,
            line,
        })
    }

    fn func_decl(&mut self) -> Result<FuncDecl, CompileError> {
        let line = self.line();
        self.expect(Tok::KwFn, "`fn`")?;
        let name = self.ident("function name")?;
        self.expect(Tok::LParen, "`(`")?;
        let mut params = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            loop {
                let pty = self.ty()?;
                let pname = self.ident("parameter name")?;
                params.push((pname, pty));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::RParen, "`)`")?;
        let ret = if self.eat(&Tok::Arrow) {
            Some(self.ty()?)
        } else {
            None
        };
        let body = self.block()?;
        let end_line = body.end_line;
        Ok(FuncDecl {
            name,
            params,
            ret,
            body,
            line,
            end_line,
        })
    }

    fn block(&mut self) -> Result<Block, CompileError> {
        let line = self.line();
        self.enter()?;
        self.expect(Tok::LBrace, "`{`")?;
        let mut stmts = Vec::new();
        while self.peek() != Some(&Tok::RBrace) {
            if self.peek().is_none() {
                return Err(CompileError::new(self.line(), "unclosed block"));
            }
            stmts.push(self.stmt()?);
        }
        let end_line = self.line();
        self.expect(Tok::RBrace, "`}`")?;
        self.depth -= 1;
        Ok(Block {
            stmts,
            line,
            end_line,
        })
    }

    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        self.enter()?;
        let line = self.line();
        let s = match self.peek() {
            Some(Tok::KwInt) | Some(Tok::KwFloat) => self.decl_stmt(),
            Some(Tok::KwIf) => self.if_stmt(),
            Some(Tok::KwWhile) => self.while_stmt(),
            Some(Tok::KwFor) => self.for_stmt(),
            Some(Tok::KwReturn) => {
                self.bump();
                let value = if self.peek() == Some(&Tok::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Tok::Semi, "`;`")?;
                Ok(Stmt::Return { value, line })
            }
            Some(Tok::KwBreak) => {
                self.bump();
                self.expect(Tok::Semi, "`;`")?;
                Ok(Stmt::Break { line })
            }
            Some(Tok::KwContinue) => {
                self.bump();
                self.expect(Tok::Semi, "`;`")?;
                Ok(Stmt::Continue { line })
            }
            Some(Tok::LBrace) => Ok(Stmt::Block(self.block()?)),
            Some(Tok::Ident(_)) => {
                let s = self.simple_stmt()?;
                self.expect(Tok::Semi, "`;`")?;
                Ok(s)
            }
            other => Err(CompileError::new(
                line,
                format!("expected statement, found {other:?}"),
            )),
        }?;
        self.depth -= 1;
        Ok(s)
    }

    fn decl_stmt(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        let ty = self.ty()?;
        let name = self.ident("variable name")?;
        let elems = if self.eat(&Tok::LBracket) {
            let n = match self.bump() {
                Some(Tok::Int(n)) if n > 0 => n as u64,
                other => {
                    return Err(CompileError::new(
                        self.prev_line(),
                        format!("expected positive array size, found {other:?}"),
                    ))
                }
            };
            self.expect(Tok::RBracket, "`]`")?;
            n
        } else {
            1
        };
        let init = if self.eat(&Tok::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        self.expect(Tok::Semi, "`;`")?;
        Ok(Stmt::Decl {
            name,
            ty,
            elems,
            init,
            line,
        })
    }

    /// An assignment or expression statement, *without* the trailing `;`
    /// (shared by statement position and `for` headers).
    fn simple_stmt(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        // Lookahead: IDENT followed by an assignment operator (possibly after
        // an index expression) is an assignment; otherwise an expression.
        let is_assign = matches!(self.peek(), Some(Tok::Ident(_)))
            && matches!(
                self.peek2(),
                Some(Tok::Assign)
                    | Some(Tok::PlusAssign)
                    | Some(Tok::MinusAssign)
                    | Some(Tok::StarAssign)
                    | Some(Tok::SlashAssign)
                    | Some(Tok::LBracket)
            );
        if is_assign {
            // Could still be an expression like `a[i] + 1` — parse the lvalue
            // and check for an assignment operator; if absent, backtrack.
            let save = self.pos;
            let name = self.ident("lvalue")?;
            let index = if self.eat(&Tok::LBracket) {
                let e = self.expr()?;
                self.expect(Tok::RBracket, "`]`")?;
                Some(e)
            } else {
                None
            };
            let op = match self.peek() {
                Some(Tok::Assign) => Some(None),
                Some(Tok::PlusAssign) => Some(Some(BinOp::Add)),
                Some(Tok::MinusAssign) => Some(Some(BinOp::Sub)),
                Some(Tok::StarAssign) => Some(Some(BinOp::Mul)),
                Some(Tok::SlashAssign) => Some(Some(BinOp::Div)),
                _ => None,
            };
            if let Some(op) = op {
                self.bump();
                let value = self.expr()?;
                return Ok(Stmt::Assign {
                    target: LValue { name, index, line },
                    op,
                    value,
                    line,
                });
            }
            self.pos = save;
        }
        let expr = self.expr()?;
        Ok(Stmt::ExprStmt { expr, line })
    }

    fn if_stmt(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        self.expect(Tok::KwIf, "`if`")?;
        self.expect(Tok::LParen, "`(`")?;
        let cond = self.expr()?;
        self.expect(Tok::RParen, "`)`")?;
        let then_blk = self.block()?;
        let mut end_line = then_blk.end_line;
        let else_blk = if self.eat(&Tok::KwElse) {
            let blk = if self.peek() == Some(&Tok::KwIf) {
                // `else if` — wrap the nested if in a synthetic block, one
                // level like any other block.
                self.enter()?;
                let nested = self.stmt()?;
                self.depth -= 1;
                let l = nested.line();
                let e = match &nested {
                    Stmt::If { end_line, .. } => *end_line,
                    _ => l,
                };
                Block {
                    stmts: vec![nested],
                    line: l,
                    end_line: e,
                }
            } else {
                self.block()?
            };
            end_line = blk.end_line;
            Some(blk)
        } else {
            None
        };
        Ok(Stmt::If {
            cond,
            then_blk,
            else_blk,
            line,
            end_line,
        })
    }

    fn while_stmt(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        self.expect(Tok::KwWhile, "`while`")?;
        self.expect(Tok::LParen, "`(`")?;
        let cond = self.expr()?;
        self.expect(Tok::RParen, "`)`")?;
        let body = self.block()?;
        let end_line = body.end_line;
        Ok(Stmt::While {
            cond,
            body,
            line,
            end_line,
        })
    }

    fn for_stmt(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        self.expect(Tok::KwFor, "`for`")?;
        self.expect(Tok::LParen, "`(`")?;
        let init = if self.eat(&Tok::Semi) {
            None
        } else if matches!(self.peek(), Some(Tok::KwInt) | Some(Tok::KwFloat)) {
            Some(Box::new(self.decl_stmt()?)) // consumes the `;`
        } else {
            let s = self.simple_stmt()?;
            self.expect(Tok::Semi, "`;`")?;
            Some(Box::new(s))
        };
        let cond = if self.peek() == Some(&Tok::Semi) {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(Tok::Semi, "`;`")?;
        let step = if self.peek() == Some(&Tok::RParen) {
            None
        } else {
            Some(Box::new(self.simple_stmt()?))
        };
        self.expect(Tok::RParen, "`)`")?;
        let body = self.block()?;
        let end_line = body.end_line;
        Ok(Stmt::For {
            init,
            cond,
            step,
            body,
            line,
            end_line,
        })
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> Result<Expr, CompileError> {
        self.bin_expr(0)
    }

    fn bin_expr(&mut self, min_prec: u8) -> Result<Expr, CompileError> {
        let mut lhs = self.unary()?;
        // Each link of a left-deep chain `a + b + c` is one more level of
        // the tree, though the loop below does not recurse.
        let mut links = 0;
        loop {
            let (op, prec) = match self.peek() {
                Some(Tok::PipePipe) => (BinOp::Or, 1),
                Some(Tok::AmpAmp) => (BinOp::And, 2),
                Some(Tok::Pipe) => (BinOp::Or, 3),
                Some(Tok::Caret) => (BinOp::Xor, 3),
                Some(Tok::Amp) => (BinOp::And, 3),
                Some(Tok::EqEq) => (BinOp::Eq, 4),
                Some(Tok::NotEq) => (BinOp::Ne, 4),
                Some(Tok::Lt) => (BinOp::Lt, 5),
                Some(Tok::Le) => (BinOp::Le, 5),
                Some(Tok::Gt) => (BinOp::Gt, 5),
                Some(Tok::Ge) => (BinOp::Ge, 5),
                Some(Tok::Shl) => (BinOp::Shl, 6),
                Some(Tok::Shr) => (BinOp::Shr, 6),
                Some(Tok::Plus) => (BinOp::Add, 7),
                Some(Tok::Minus) => (BinOp::Sub, 7),
                Some(Tok::Star) => (BinOp::Mul, 8),
                Some(Tok::Slash) => (BinOp::Div, 8),
                Some(Tok::Percent) => (BinOp::Rem, 8),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            let line = self.line();
            self.enter()?;
            links += 1;
            self.bump();
            let rhs = self.bin_expr(prec + 1)?;
            lhs = Expr::Bin {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
        self.depth -= links;
        Ok(lhs)
    }

    /// A unary, parenthesised, indexed, call or atomic operand: one level.
    fn unary(&mut self) -> Result<Expr, CompileError> {
        self.enter()?;
        let line = self.line();
        let op = if self.eat(&Tok::Minus) {
            Some(UnOpKind::Neg)
        } else if self.eat(&Tok::Bang) {
            Some(UnOpKind::Not)
        } else {
            None
        };
        let e = match op {
            Some(op) => Expr::Un {
                op,
                expr: Box::new(self.unary()?),
                line,
            },
            None => self.primary()?,
        };
        self.depth -= 1;
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, CompileError> {
        let line = self.line();
        match self.bump() {
            Some(Tok::Int(n)) => Ok(Expr::Int(n, line)),
            Some(Tok::Float(x)) => Ok(Expr::Float(x, line)),
            Some(Tok::LParen) => {
                let e = self.expr()?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => {
                if self.eat(&Tok::LParen) {
                    let mut args = Vec::new();
                    if self.peek() != Some(&Tok::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(Tok::RParen, "`)`")?;
                    Ok(Expr::Call { name, args, line })
                } else if self.eat(&Tok::LBracket) {
                    let idx = self.expr()?;
                    self.expect(Tok::RBracket, "`]`")?;
                    Ok(Expr::Index(name, Box::new(idx), line))
                } else {
                    Ok(Expr::Var(name, line))
                }
            }
            other => Err(CompileError::new(
                self.prev_line(),
                format!("expected expression, found {other:?}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Program {
        parse(lex(src).unwrap()).unwrap()
    }

    #[test]
    fn parses_global_and_fn() {
        let p = parse_src("global int g[8];\nfn main() -> int { return 0; }");
        assert_eq!(p.globals.len(), 1);
        assert_eq!(p.globals[0].elems, 8);
        assert_eq!(p.functions.len(), 1);
        assert_eq!(p.functions[0].ret, Some(Type::Int));
    }

    #[test]
    fn parses_for_loop() {
        let p = parse_src("fn f() { for (int i = 0; i < 10; i = i + 1) { } }");
        match &p.functions[0].body.stmts[0] {
            Stmt::For {
                init, cond, step, ..
            } => {
                assert!(init.is_some());
                assert!(cond.is_some());
                assert!(step.is_some());
            }
            other => panic!("expected For, got {other:?}"),
        }
    }

    #[test]
    fn parses_else_if_chain() {
        let p = parse_src("fn f(int x) { if (x == 0) { } else if (x == 1) { } else { } }");
        match &p.functions[0].body.stmts[0] {
            Stmt::If { else_blk, .. } => {
                let blk = else_blk.as_ref().unwrap();
                assert!(matches!(blk.stmts[0], Stmt::If { .. }));
            }
            other => panic!("expected If, got {other:?}"),
        }
    }

    #[test]
    fn parses_compound_assign_and_index() {
        let p = parse_src("fn f() { int a[4]; a[2] += 3; }");
        match &p.functions[0].body.stmts[1] {
            Stmt::Assign { target, op, .. } => {
                assert_eq!(target.name, "a");
                assert!(target.index.is_some());
                assert_eq!(*op, Some(BinOp::Add));
            }
            other => panic!("expected Assign, got {other:?}"),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        let p = parse_src("fn f() -> int { return 1 + 2 * 3; }");
        match &p.functions[0].body.stmts[0] {
            Stmt::Return { value: Some(e), .. } => match e {
                Expr::Bin { op, rhs, .. } => {
                    assert_eq!(*op, BinOp::Add);
                    assert!(matches!(**rhs, Expr::Bin { op: BinOp::Mul, .. }));
                }
                other => panic!("expected Bin, got {other:?}"),
            },
            other => panic!("expected Return, got {other:?}"),
        }
    }

    #[test]
    fn expr_stmt_call() {
        let p = parse_src("fn f() { print(1, 2); }");
        assert!(matches!(
            p.functions[0].body.stmts[0],
            Stmt::ExprStmt { .. }
        ));
    }

    #[test]
    fn array_read_not_mistaken_for_assign() {
        let p = parse_src("fn f(int i) -> int { int a[4]; return a[i] + 1; }");
        assert!(matches!(p.functions[0].body.stmts[1], Stmt::Return { .. }));
    }

    #[test]
    fn break_continue() {
        let p = parse_src("fn f() { while (1) { break; continue; } }");
        match &p.functions[0].body.stmts[0] {
            Stmt::While { body, .. } => {
                assert!(matches!(body.stmts[0], Stmt::Break { .. }));
                assert!(matches!(body.stmts[1], Stmt::Continue { .. }));
            }
            other => panic!("expected While, got {other:?}"),
        }
    }
}

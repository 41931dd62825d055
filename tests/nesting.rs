//! Hostile nesting is a compile error, not a stack overflow.
//!
//! The frontend recurses on the source's nesting (parser) and on the tree it
//! builds (lowering, `Drop`), so a deep enough program used to abort the
//! whole process — a daemon with every queued job in it. `lang` now stops at
//! [`lang::MAX_NESTING`] AST levels with a `CompileError` naming the limit.
//! The value is picked here: for every shape that nests, the deepest program
//! the frontend accepts compiles, profiles with the static analysis on and
//! renders its report on a thread with a 2 MiB stack (the default for
//! spawned threads, the daemon's workers among them), and one level more is
//! the typed error.

use lang::ast::{Block, Expr, Stmt};
use lang::MAX_NESTING;

/// A program whose nesting grows with `n`, one shape per way to nest.
type Shape = fn(usize) -> String;

fn shapes() -> Vec<(&'static str, Shape)> {
    vec![
        ("left-deep chain", |n| {
            format!("fn main() {{ int x = 1{}; }}", "+1".repeat(n))
        }),
        ("right-deep chain", |n| {
            format!(
                "fn main() {{ int x = {}1{}; }}",
                "1+(".repeat(n),
                ")".repeat(n)
            )
        }),
        ("unary minus", |n| {
            format!("fn main() {{ int x = {}1; }}", "-".repeat(n))
        }),
        ("parentheses", |n| {
            format!(
                "fn main() {{ int x = {}1{}; }}",
                "(".repeat(n),
                ")".repeat(n)
            )
        }),
        ("index", |n| {
            format!(
                "global int a[4];\nfn main() {{ int x = {}0{}; }}",
                "a[".repeat(n),
                "]".repeat(n)
            )
        }),
        ("call", |n| {
            format!(
                "fn main() {{ int x = {}1{}; }}",
                "abs(".repeat(n),
                ")".repeat(n)
            )
        }),
        ("if", |n| {
            format!(
                "fn main() {{ int x = 0; {} x = 1; {} }}",
                "if (x < 1) {".repeat(n),
                "}".repeat(n)
            )
        }),
        ("else if", |n| {
            format!(
                "fn main() {{ int x = 3; if (x == 0) {{ x = 1; }}{} }}",
                " else if (x == 0) { x = 1; }".repeat(n)
            )
        }),
        ("loop", |n| {
            format!(
                "global int s;\nfn main() {{ {} s = s + 1; {} }}",
                "for (int i = 0; i < 1; i = i + 1) {".repeat(n),
                "}".repeat(n)
            )
        }),
        ("affine index chain", |n| {
            format!(
                "global int a[4];\nfn main() {{ for (int i = 0; i < 4; i = i + 1) {{ a[i{}] = i; }} }}",
                " + 0".repeat(n)
            )
        }),
    ]
}

/// Run `f` on a fresh thread with a 2 MiB stack.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawns")
        .join()
        .expect("no panic")
}

fn compiles(src: String) -> Result<(), lang::CompileError> {
    on_small_stack(move || lang::compile(&src, "deep").map(drop))
}

/// The largest `n` the frontend accepts for `shape` (binary search; the
/// nesting is monotone in `n`).
fn deepest(shape: Shape) -> usize {
    let (mut ok, mut bad) = (0, 2 * MAX_NESTING);
    assert!(compiles(shape(ok)).is_ok());
    assert!(compiles(shape(bad)).is_err());
    while bad - ok > 1 {
        let mid = (ok + bad) / 2;
        if compiles(shape(mid)).is_ok() {
            ok = mid;
        } else {
            bad = mid;
        }
    }
    ok
}

#[test]
fn every_shape_at_the_limit_profiles_on_a_2_mib_stack_and_one_more_level_is_a_typed_error() {
    for (name, shape) in shapes() {
        let n = deepest(shape);
        let err = compiles(shape(n + 1)).expect_err("one level past the limit");
        assert!(
            err.message.contains(&MAX_NESTING.to_string()),
            "{name}: the error names the limit: {err}"
        );
        let src = shape(n);
        let bytes = on_small_stack(move || {
            let mut a = discopop::Analysis::new().with_static(true);
            let compiled = a.compile(&src, "deep").expect("compiles");
            let report = a.analyze_compiled(&compiled).expect("profiles");
            report.to_json_string(compiled.program()).len()
        });
        assert!(bytes > 0, "{name}");
        eprintln!("{name}: deepest accepted n = {n}");
    }
}

/// Levels as the parser counts them, up to parentheses (which open a level
/// in the parser but leave no node behind): a block, a statement, an
/// operand, each operator.
fn block_depth(b: &Block) -> usize {
    1 + b.stmts.iter().map(stmt_depth).max().unwrap_or(0)
}

fn stmt_depth(s: &Stmt) -> usize {
    let e = |e: &Option<Expr>| e.as_ref().map_or(0, expr_depth);
    let s_ = |s: &Option<Box<Stmt>>| s.as_deref().map_or(0, stmt_depth);
    1 + match s {
        Stmt::Decl { init, .. } => e(init),
        Stmt::Assign { target, value, .. } => e(&target.index).max(expr_depth(value)),
        Stmt::If {
            cond,
            then_blk,
            else_blk,
            ..
        } => expr_depth(cond)
            .max(block_depth(then_blk))
            .max(else_blk.as_ref().map_or(0, block_depth)),
        Stmt::While { cond, body, .. } => expr_depth(cond).max(block_depth(body)),
        Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => s_(init).max(e(cond)).max(s_(step)).max(block_depth(body)),
        Stmt::Return { value, .. } => e(value),
        Stmt::Break { .. } | Stmt::Continue { .. } => 0,
        Stmt::ExprStmt { expr, .. } => expr_depth(expr),
        Stmt::Block(b) => block_depth(b),
    }
}

fn expr_depth(e: &Expr) -> usize {
    1 + match e {
        Expr::Int(..) | Expr::Float(..) | Expr::Var(..) => 0,
        Expr::Index(_, i, _) => expr_depth(i),
        Expr::Call { args, .. } => args.iter().map(expr_depth).max().unwrap_or(0),
        Expr::Bin { lhs, rhs, .. } => expr_depth(lhs).max(expr_depth(rhs)),
        Expr::Un { expr, .. } => expr_depth(expr),
    }
}

#[test]
fn the_catalogue_nests_far_below_the_limit() {
    let (name, depth) = workloads::all()
        .iter()
        .map(|w| {
            let ast =
                lang::parser::parse(lang::lexer::lex(w.source).expect("lexes")).expect("parses");
            let d = ast.functions.iter().map(|f| block_depth(&f.body)).max();
            (w.name, d.unwrap_or(0))
        })
        .max_by_key(|&(_, d)| d)
        .expect("a catalogue");
    eprintln!("deepest catalogue program: {name}, {depth} levels (limit {MAX_NESTING})");
    assert!(depth * 10 < MAX_NESTING, "{name}: {depth} levels");
}

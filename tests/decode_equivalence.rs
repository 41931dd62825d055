//! Decode-equivalence suite for the pre-decoded interpreter.
//!
//! `Program::new` lowers the tree-shaped MIR into a compact flat
//! instruction stream and `interp::machine` executes it;
//! `interp::reference` keeps the original tree-walking loop (per-step
//! frame/block/pc resolution, name-map calls). The decode is pure
//! lowering, so both must produce **byte-identical event streams** — not
//! merely identical dependence sets — on every workload, configuration,
//! seed, and delivery mode, including slices whose step budget expires
//! after every single step. With the skip tier off, every step is one
//! dispatch on both.

use interp::{Program, RecordingSink, RunConfig};

fn multithreaded_src() -> &'static str {
    "global int counter;
global int a[64];
fn w(int n) {
    for (int i = 0; i < n; i = i + 1) {
        lock(1);
        counter = counter + 1;
        unlock(1);
        a[i % 64] = a[i % 64] + i;
    }
}
fn main() {
    int t1 = spawn(w, 40);
    int t2 = spawn(w, 40);
    join(t1);
    join(t2);
}"
}

fn programs() -> Vec<(&'static str, Program)> {
    vec![
        ("MG", workloads::by_name("MG").unwrap().program().unwrap()),
        (
            "matmul",
            workloads::by_name("matmul").unwrap().program().unwrap(),
        ),
        (
            "multithreaded",
            Program::new(lang::compile(multithreaded_src(), "mt").unwrap()),
        ),
    ]
}

/// Run on the machine. One op per dispatch: with the skip tier off the
/// dispatch count is the step count; with it on, plan-replayed steps are
/// the only ones not dispatched.
fn record(p: &Program, cfg: RunConfig) -> (interp::RunResult, Vec<interp::Event>) {
    let skip = cfg.affine_skip;
    let mut sink = RecordingSink::default();
    let r = interp::run_with_config(p, &mut sink, cfg).unwrap();
    if skip {
        assert!(r.dispatches <= r.steps);
    } else {
        assert_eq!(r.dispatches, r.steps, "skip off: one dispatch per step");
    }
    (r, sink.events)
}

fn record_reference(p: &Program, cfg: RunConfig) -> (interp::RunResult, Vec<interp::Event>) {
    let mut sink = RecordingSink::default();
    let r = interp::reference::run_with_config(p, &mut sink, cfg).unwrap();
    (r, sink.events)
}

#[test]
fn decoded_event_stream_identical_to_reference() {
    for (name, p) in programs() {
        let (nr, nev) = record(&p, RunConfig::default());
        let (rr, rev) = record_reference(&p, RunConfig::default());
        assert_eq!(nev.len(), rev.len(), "{name}: stream lengths differ");
        if let Some(i) = (0..nev.len()).find(|&i| nev[i] != rev[i]) {
            panic!(
                "{name}: first divergence at event {i}:\n  decoded:   {:?}\n  reference: {:?}",
                nev[i], rev[i]
            );
        }
        assert_eq!(nr.ret, rr.ret, "{name}: return values differ");
        assert_eq!(nr.steps, rr.steps, "{name}: step counts differ");
        assert_eq!(nr.threads, rr.threads, "{name}: thread counts differ");
        assert_eq!(nr.printed, rr.printed, "{name}: printed output differs");
        assert!(!nev.is_empty(), "{name}: empty stream proves nothing");
    }
}

#[test]
fn decoded_stream_identical_under_racy_delivery() {
    // Racy mode reorders delivery across threads at synchronization points;
    // the decoded loop must reproduce the exact same (reordered) stream.
    for (name, p) in programs() {
        let cfg = || RunConfig {
            racy_delivery: true,
            buffer_cap: 8,
            ..Default::default()
        };
        let (_, nev) = record(&p, cfg());
        let (_, rev) = record_reference(&p, cfg());
        assert_eq!(nev, rev, "{name}: racy-mode streams differ");
    }
}

#[test]
fn decoded_stream_identical_across_batch_caps_and_seeds() {
    let (_, p) = programs().pop().unwrap(); // the multithreaded workload
    for seed in [1u64, 0x5eed, u64::MAX / 3] {
        for batch_cap in [0usize, 7, 256] {
            let cfg = || RunConfig {
                seed,
                batch_cap,
                ..Default::default()
            };
            let (_, nev) = record(&p, cfg());
            let (_, rev) = record_reference(&p, cfg());
            assert_eq!(nev, rev, "seed {seed} batch_cap {batch_cap}");
        }
    }
}

#[test]
fn duplicate_function_names_bind_identically() {
    // Unverified hand-built modules may contain duplicate function names;
    // both interpreters must bind calls the same way (last definition
    // wins, the insert-overwrite semantics of the original name map).
    use mir::{FunctionBuilder, ModuleBuilder, Terminator, Ty, Value};
    let mut mb = ModuleBuilder::new("dup");
    for ret in [7i64, 42] {
        let mut fb = FunctionBuilder::new("pick", Some(Ty::I64), 1);
        fb.terminate(Terminator::Return(Some(Value::I64(ret).into())));
        mb.add_function(fb.build(1));
    }
    let mut fb = FunctionBuilder::new("main", Some(Ty::I64), 2);
    let dst = fb.call("pick", vec![], true, 2).unwrap();
    fb.terminate(Terminator::Return(Some(dst.into())));
    mb.add_function(fb.build(2));
    let p = Program::new(mb.build());
    let (nr, nev) = record(&p, RunConfig::default());
    let (rr, rev) = record_reference(&p, RunConfig::default());
    assert_eq!(nr.ret, rr.ret, "call bound to different definitions");
    assert_eq!(nr.ret, Some(mir::Value::I64(42)), "last definition wins");
    assert_eq!(nev, rev);
}

#[test]
fn unreachable_terminator_is_lazy() {
    // A dead block with no terminator (defaults to Unreachable) must not
    // fail at Program::new — only if it executes, like the tree walker.
    use mir::{FunctionBuilder, ModuleBuilder, Terminator};
    let mut mb = ModuleBuilder::new("dead");
    let mut fb = FunctionBuilder::new("main", None, 1);
    let dead = fb.new_block(); // never targeted, terminator stays Unreachable
    let _ = dead;
    fb.terminate(Terminator::Return(None));
    mb.add_function(fb.build(1));
    let p = Program::new(mb.build()); // must not panic
    let (_, nev) = record(&p, RunConfig::default());
    let (_, rev) = record_reference(&p, RunConfig::default());
    assert_eq!(nev, rev);
}

#[test]
fn decoded_errors_match_reference() {
    for src in [
        "fn main() -> int { int z = 0; return 4 / z; }",
        "global int a[4]; fn main() { int i = 9; a[i] = 1; }",
        "fn main() { lock(1); int t = spawn(h, 0); join(t); }\nfn h(int x) { lock(1); }",
    ] {
        let p = Program::new(lang::compile(src, "err").unwrap());
        let new = interp::run_with_config(&p, interp::NullSink, RunConfig::default());
        let old = interp::reference::run_with_config(&p, interp::NullSink, RunConfig::default());
        assert_eq!(new.unwrap_err(), old.unwrap_err(), "{src}");
    }
}

#[test]
fn one_dispatch_per_step_with_the_skip_tier_off() {
    // With the skip tier off, the machine dispatches exactly once per step
    // — as the tree walker does — and both emit the same stream, across
    // workloads, seeds and delivery modes. CG joins the sweep as the
    // heaviest straight-line consumer (long Load+Load+Bin+Store chains).
    let mut all = programs();
    all.push(("CG", workloads::by_name("CG").unwrap().program().unwrap()));
    for (name, p) in &all {
        for seed in [1u64, 0x5eed] {
            for racy in [false, true] {
                let cfg = || RunConfig {
                    seed,
                    racy_delivery: racy,
                    buffer_cap: 8,
                    affine_skip: false,
                    ..Default::default()
                };
                let (mr, mev) = record(p, cfg());
                let (rr, rev) = record_reference(p, cfg());
                assert_eq!(
                    mev, rev,
                    "{name}: machine vs oracle (seed {seed}, racy {racy})"
                );
                assert_eq!(mr.steps, rr.steps, "{name}: step counts vs oracle");
                assert_eq!(mr.dispatches, mr.steps, "{name}: dispatches vs steps");
                assert_eq!(mr.dispatches, rr.dispatches, "{name}: dispatches vs oracle");
                assert_eq!(mr.ret, rr.ret, "{name}: return values");
                assert!(!mev.is_empty(), "{name}: empty stream proves nothing");
            }
        }
    }
}

#[test]
fn budget_expiry_at_every_quantum_suspends_and_resumes_identically() {
    // `quantum: 1` parks the thread after every single step (each slice
    // admits exactly one), 2, 3 and 5 exercise every other split of the
    // loop body, and the skip tier on puts the split inside a replayed
    // plan cycle as well. The suspended/resumed stream must stay
    // byte-identical to the oracle — same events, same timestamps, same
    // batch boundaries.
    let src = "global int a[16];
global int s;
fn main() {
    for (int i = 0; i < 16; i = i + 1) {
        s = s + a[i];
        a[i] = a[i] + 1;
    }
}";
    let p = Program::new(lang::compile(src, "budget").unwrap());
    for affine_skip in [false, true] {
        for quantum in [1u32, 2, 3, 5, 64] {
            for batch_cap in [0usize, 3, 256] {
                let cfg = || RunConfig {
                    quantum,
                    batch_cap,
                    affine_skip,
                    ..Default::default()
                };
                let (mr, mev) = record(&p, cfg());
                let (rr, rev) = record_reference(&p, cfg());
                let at = format!("skip {affine_skip} quantum {quantum} batch {batch_cap}");
                if let Some(i) = (0..mev.len().min(rev.len())).find(|&i| mev[i] != rev[i]) {
                    panic!(
                        "{at}: divergence at event {i}:\n  machine: {:?}\n  oracle:  {:?}",
                        mev[i], rev[i]
                    );
                }
                assert_eq!(mev.len(), rev.len(), "{at}");
                assert_eq!(mr.steps, rr.steps, "{at}");
            }
        }
    }
    // The multithreaded workload adds scheduler interleaving on top: a
    // thread parked mid-body must resume correctly even when other threads
    // ran in between.
    let p = Program::new(lang::compile(multithreaded_src(), "mtq").unwrap());
    for quantum in [1u32, 3, 64] {
        let cfg = || RunConfig {
            quantum,
            affine_skip: false,
            ..Default::default()
        };
        let (_, mev) = record(&p, cfg());
        let (_, rev) = record_reference(&p, cfg());
        assert_eq!(mev, rev, "mt quantum {quantum}: machine vs oracle");
    }
}

#[test]
fn memory_traps_match_reference() {
    // An out-of-bounds trap can fire in a load or a store. The error and
    // the emitted event *prefix* must match the oracle exactly — including
    // under quantum 1, where the trapping op runs in a slice of its own.
    let srcs = [
        // A load traps: reading a[i] walks past the end.
        "global int a[8];\nglobal int s;\nfn main() { for (int i = 0; i < 9; i = i + 1) { s = s + a[i]; } }",
        // The store traps too: a[i] = a[i] + 1 past the end (the load of
        // the same element traps first on the last iteration).
        "global int a[8];\nglobal int s;\nfn main() { for (int i = 0; i < 9; i = i + 1) { a[i] = a[i] + 1; } }",
    ];
    for src in srcs {
        let p = Program::new(lang::compile(src, "trap").unwrap());
        for quantum in [1u32, 64] {
            let cfg = || RunConfig {
                quantum,
                ..Default::default()
            };
            let mut sink = RecordingSink::default();
            let me = interp::run_with_config(&p, &mut sink, cfg()).unwrap_err();
            let mev = sink.events;
            let mut sink = RecordingSink::default();
            let re = interp::reference::run_with_config(&p, &mut sink, cfg()).unwrap_err();
            let rev = sink.events;
            assert_eq!(me, re, "{src} (quantum {quantum})");
            assert_eq!(mev, rev, "{src} (quantum {quantum}): error-path prefix");
            assert!(!mev.is_empty(), "{src}: the trap must happen mid-run");
        }
    }
}

/// A value as (is float, bits): `Value`'s `==` fails every NaN and
/// equates 0.0 with -0.0, so bit-exact checks compare this instead.
fn bits(v: mir::Value) -> (bool, u64) {
    match v {
        mir::Value::I64(x) => (false, x as u64),
        mir::Value::F64(x) => (true, x.to_bits()),
    }
}

/// Run `src` on the machine and on the reference and require one outcome:
/// the same event stream, and either the same error or the same printed
/// lines and a return value equal bit for bit. Returns the machine's run.
fn run_both(src: &str) -> Result<interp::RunResult, interp::RuntimeError> {
    run_both_program(&Program::new(lang::compile(src, "mem").unwrap()), src)
}

/// [`run_both`] on a built program; `src` names it in failure messages.
fn run_both_program(p: &Program, src: &str) -> Result<interp::RunResult, interp::RuntimeError> {
    let mut sink = RecordingSink::default();
    let machine = interp::run_with_config(p, &mut sink, RunConfig::default());
    let mev = sink.events;
    let mut sink = RecordingSink::default();
    let reference = interp::reference::run_with_config(p, &mut sink, RunConfig::default());
    assert_eq!(mev, sink.events, "{src}: event streams differ");
    match (&machine, &reference) {
        (Ok(m), Ok(r)) => {
            assert_eq!(m.printed, r.printed, "{src}: printed output differs");
            assert_eq!(m.ret.map(bits), r.ret.map(bits), "{src}: returns differ");
        }
        (Err(m), Err(r)) => assert_eq!(m, r, "{src}: errors differ"),
        _ => panic!("{src}: one interpreter trapped and the other did not"),
    }
    machine
}

#[test]
fn never_written_floats_read_as_zero_in_both_interpreters() {
    // Memory is untagged words read as the variable's declared type, so a
    // never-written `float` is 0.0, not the integer 0: dividing two of
    // them is a float division giving NaN, where an integer 0 / 0 traps.
    let src = "global float g;
global float h;
global float ga[4];
fn main() -> float {
    float x;
    float y;
    float la[3];
    print(g + 0.5, x + 0.5, ga[2] + 0.5, la[1] + 0.5);
    float q = g / h;
    float r = x / y;
    float s = ga[1] / la[2];
    print(q, r, s);
    return q;
}";
    let r = run_both(src).expect("a float 0.0 / 0.0 must not trap");
    assert_eq!(r.printed, ["0.5 0.5 0.5 0.5", "NaN NaN NaN"]);
    assert!(matches!(r.ret, Some(mir::Value::F64(q)) if q.is_nan()));
    // The integer counterpart still traps, identically in both.
    let int_src = "global int g;\nglobal int h;\nfn main() -> int { int x = g / h; return x; }";
    assert!(matches!(
        run_both(int_src),
        Err(interp::RuntimeError::DivByZero { .. })
    ));
}

#[test]
fn a_reused_stack_slot_reads_its_bits_as_the_new_type() {
    // `put`'s int local and `get`'s float local share a stack word: the
    // float reads the int's bits reinterpreted (0x3FF0_0000_0000_0000 is
    // 1.0), not a stale int.
    let src = "fn put() { int k = 4607182418800017408; }
fn get() -> float { float f; return f; }
fn main() -> float { put(); return get(); }";
    let r = run_both(src).unwrap();
    assert_eq!(r.ret.map(bits), Some(bits(mir::Value::F64(1.0))));
}

#[test]
fn float_bits_round_trip_through_every_kind_of_memory() {
    // -0.0, a NaN, a subnormal and 1e308 stored in a global, copied into a
    // local array element, passed as a `float` parameter and returned:
    // the bits that come back are the bits that went in.
    for (expr, want) in [
        ("-0.0", Some(-0.0f64)),
        ("0.0 / 0.0", None),
        ("5e-324", Some(f64::from_bits(1))),
        ("1e308", Some(1e308)),
    ] {
        let direct = run_both(&format!("fn main() -> float {{ return {expr}; }}")).unwrap();
        let stored = run_both(&format!(
            "global float g;
fn id(float p) -> float {{ return p; }}
fn main() -> float {{
    float a[2];
    g = {expr};
    a[1] = g;
    return id(a[1]);
}}"
        ))
        .unwrap();
        let Some(mir::Value::F64(v)) = stored.ret else {
            panic!("{expr}: no float returned");
        };
        assert_eq!(stored.ret.map(bits), direct.ret.map(bits), "{expr}");
        match want {
            Some(w) => assert_eq!(v.to_bits(), w.to_bits(), "{expr}"),
            None => assert!(v.is_nan(), "{expr}"),
        }
    }
}

// ---- The operator matrix -------------------------------------------------
//
// The machine evaluates operators on (type, bits) scalars; the reference
// keeps `bin_eval` on `Value`s. These pin the two definitions to each
// other at the edges: i64::MIN, -1, 0, i64::MAX, shift counts -1, 63 and
// 64, NaN, -0.0, ±inf and 1e308, for every operator.

const BIN_OPS: [mir::BinOp; 16] = {
    use mir::BinOp::*;
    [
        Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Eq, Ne, Lt, Le, Gt, Ge,
    ]
};

const UN_OPS: [mir::UnOp; 4] = {
    use mir::UnOp::*;
    [Neg, Not, ToF64, ToI64]
};

/// The integer edge operands; -1, 63 and 64 double as the shift counts.
const INT_EDGES: [i64; 6] = [i64::MIN, -1, 0, i64::MAX, 63, 64];

/// The float edge operands.
fn float_edges() -> [f64; 6] {
    [f64::NAN, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1e308, 2.5]
}

fn edge_values() -> Vec<mir::Value> {
    INT_EDGES
        .iter()
        .map(|&x| mir::Value::I64(x))
        .chain(float_edges().iter().map(|&x| mir::Value::F64(x)))
        .collect()
}

/// The operators' surface syntax in `lang`.
fn lang_op(op: mir::BinOp) -> &'static str {
    use mir::BinOp::*;
    match op {
        Add => "+",
        Sub => "-",
        Mul => "*",
        Div => "/",
        Rem => "%",
        And => "&",
        Or => "|",
        Xor => "^",
        Shl => "<<",
        Shr => ">>",
        Eq => "==",
        Ne => "!=",
        Lt => "<",
        Le => "<=",
        Gt => ">",
        Ge => ">=",
    }
}

/// A `lang` expression for an integer edge (the lexer has no literal
/// for i64::MIN).
fn int_expr(x: i64) -> String {
    if x == i64::MIN {
        "-9223372036854775807 - 1".to_string()
    } else {
        x.to_string()
    }
}

/// A `lang` expression for a float edge.
fn float_expr(x: f64) -> String {
    if x.is_nan() {
        "0.0 / 0.0".to_string()
    } else if x == f64::INFINITY {
        "1e308 * 10.0".to_string()
    } else if x == f64::NEG_INFINITY {
        "-1e308 * 10.0".to_string()
    } else if x == 0.0 && x.is_sign_negative() {
        "-0.0".to_string()
    } else {
        format!("{x:?}")
    }
}

/// One `lang` program per operator: every int×int and every float×float
/// pair of edges is evaluated in an affine counted loop (`ri[k] = xi[k] op
/// yi[k]`), so with the skip tier on the machine's plan replayer computes
/// them; the results are then printed — floats with their raw bits, read
/// back as an int through a reused stack slot. `Div` and `Rem` trap on a
/// zero divisor, so their divisors skip the edges that are 0 as an
/// integer (for `Rem`, whose float operands truncate, NaN and -0.0 too);
/// [`division_by_zero_traps_at_the_same_line_in_both_interpreters`] traps
/// them. Returns the source and its number of pairs.
fn lang_matrix(op: mir::BinOp) -> (String, usize) {
    use mir::BinOp::*;
    let ints: Vec<String> = INT_EDGES.iter().map(|&x| int_expr(x)).collect();
    let floats: Vec<String> = float_edges().iter().map(|&x| float_expr(x)).collect();
    let int_divisors: Vec<String> = INT_EDGES
        .iter()
        .filter(|&&x| !matches!(op, Div | Rem) || x != 0)
        .map(|&x| int_expr(x))
        .collect();
    let float_divisors: Vec<String> = float_edges()
        .iter()
        .filter(|&&x| op != Rem || x as i64 != 0)
        .map(|&x| float_expr(x))
        .collect();
    let mut init = String::new();
    let mut pairs = |ty: char, xs: &[String], ys: &[String]| {
        let mut k = 0;
        for x in xs {
            for y in ys {
                init.push_str(&format!("    x{ty}[{k}] = {x};\n    y{ty}[{k}] = {y};\n"));
                k += 1;
            }
        }
        k
    };
    let ni = pairs('i', &ints, &int_divisors);
    let nf = pairs('f', &floats, &float_divisors);
    let sym = lang_op(op);
    let src = format!(
        "global int xi[{ni}];
global int yi[{ni}];
global int ri[{ni}];
global float xf[{nf}];
global float yf[{nf}];
global float rf[{nf}];
fn put(float p) {{ }}
fn bits() -> int {{ int w; return w; }}
fn main() -> float {{
{init}    for (int k = 0; k < {ni}; k = k + 1) {{
        ri[k] = xi[k] {sym} yi[k];
    }}
    for (int k = 0; k < {nf}; k = k + 1) {{
        rf[k] = xf[k] {sym} yf[k];
    }}
    for (int k = 0; k < {ni}; k = k + 1) {{
        print(ri[k]);
    }}
    for (int k = 0; k < {nf}; k = k + 1) {{
        put(rf[k]);
        print(rf[k], bits());
    }}
    return rf[{last}];
}}",
        last = nf - 1
    );
    (src, ni + nf)
}

#[test]
fn the_operator_matrix_agrees_in_the_plan_replayer() {
    for op in BIN_OPS {
        let (src, pairs) = lang_matrix(op);
        let r = run_both(&src).unwrap_or_else(|e| panic!("{op:?}: {e}"));
        assert_eq!(r.printed.len(), pairs, "{op:?}: one line per pair");
        if !matches!(op, mir::BinOp::Div | mir::BinOp::Rem) {
            // Both operator loops replay as plans (a trapping operator
            // keeps its loop interpreted).
            assert_eq!(r.synth.loops, 2, "{op:?}: both operator loops replay");
        }
    }
    // The reused-slot read really is the bits: -0.0 prints as its sign bit.
    let r = run_both(&lang_matrix(mir::BinOp::Mul).0).unwrap();
    let neg_zero = format!("-0 {}", i64::MIN);
    assert!(r.printed.contains(&neg_zero), "{:?}", r.printed);
}

#[test]
fn division_by_zero_traps_at_the_same_line_in_both_interpreters() {
    // An integer division or remainder by 0 traps; so does a remainder
    // whose float divisor truncates to 0; a float division never does.
    for (expr, traps) in [
        ("x / z", true),
        ("x % z", true),
        ("x / 0", true),
        ("f % h", true),
        ("f % n", true),
        ("f / m", false),
        ("x / m", false),
        ("m % x", false),
    ] {
        let src = format!(
            "global int a[4];
fn main() -> float {{
    int x = 7;
    int z = 0;
    float f = 3.5;
    float h = 0.5;
    float m = -0.0;
    float n = 0.0 / 0.0;
    float r = 0.0;
    for (int i = 0; i < 4; i = i + 1) {{
        a[i] = i;
        if (i == 2) {{
            r = {expr};
        }}
    }}
    return r;
}}"
        );
        match run_both(&src) {
            Err(interp::RuntimeError::DivByZero { line }) => {
                assert!(traps, "{expr}: trapped");
                assert_eq!(line, 13, "{expr}: the trap names the operator's line");
            }
            Err(e) => panic!("{expr}: {e}"),
            Ok(_) => assert!(!traps, "{expr}: did not trap"),
        }
    }
}

/// How a hand-built operator reads its operands: from registers loaded
/// out of typed locals, or as immediates (inline ints, pooled others).
#[derive(Clone, Copy, Debug)]
enum Operands {
    Registers,
    Immediates,
}

/// `main` evaluates `op` on `a` and `b` once, in straight-line code (so
/// the machine's dispatch loop does), and returns the result. `mir`, not
/// `lang`: lowering converts mixed operands to a common type, so only a
/// hand-built module hands the machine int×float and float×int.
fn mir_bin(op: mir::BinOp, a: mir::Value, b: mir::Value, how: Operands) -> Program {
    use mir::{FunctionBuilder, ModuleBuilder, Operand, Place, Terminator, Ty, VarRef};
    let float = matches!(a, mir::Value::F64(_)) || matches!(b, mir::Value::F64(_));
    let arith = matches!(
        op,
        mir::BinOp::Add | mir::BinOp::Sub | mir::BinOp::Mul | mir::BinOp::Div
    );
    let ret = if float && arith { Ty::F64 } else { Ty::I64 };
    let mut mb = ModuleBuilder::new("ops");
    let mut fb = FunctionBuilder::new("main", Some(ret), 1);
    let (lhs, rhs): (Operand, Operand) = match how {
        Operands::Registers => {
            let la = fb.local("a", a.ty(), 1, 1, None);
            let lb = fb.local("b", b.ty(), 1, 1, None);
            fb.store(Place::scalar(VarRef::Local(la)), a, 2);
            fb.store(Place::scalar(VarRef::Local(lb)), b, 2);
            let ra = fb.load(Place::scalar(VarRef::Local(la)), 3);
            let rb = fb.load(Place::scalar(VarRef::Local(lb)), 3);
            (ra.into(), rb.into())
        }
        Operands::Immediates => (a.into(), b.into()),
    };
    let r = fb.bin(op, lhs, rhs, 4);
    fb.terminate(Terminator::Return(Some(r.into())));
    mb.add_function(fb.build(5));
    Program::new(mb.build())
}

#[test]
fn the_operator_matrix_agrees_in_the_dispatch_loop() {
    // All 16 operators on every ordered pair of edges — int×float and
    // float×int included — from registers and from immediates: the same
    // events, the same error (a zero divisor traps at line 4 in both) or
    // a bit-equal return.
    let values = edge_values();
    let mut traps = 0;
    for op in BIN_OPS {
        for &a in &values {
            for &b in &values {
                for how in [Operands::Registers, Operands::Immediates] {
                    let at = format!("{op:?} {a:?} {b:?} ({how:?})");
                    match run_both_program(&mir_bin(op, a, b, how), &at) {
                        Err(interp::RuntimeError::DivByZero { line }) => {
                            assert_eq!(line, 4, "{at}");
                            traps += 1;
                        }
                        Err(e) => panic!("{at}: {e}"),
                        Ok(r) => assert!(r.ret.is_some(), "{at}"),
                    }
                }
            }
        }
    }
    // Div: the 6 int dividends by the int 0. Rem: all 12 dividends by
    // each of the int 0, NaN and -0.0 (all 0 as an integer). Twice, for
    // both operand forms.
    assert_eq!(traps, 2 * (6 + 12 * 3));
}

#[test]
fn unary_operators_and_branches_agree_on_every_edge() {
    use mir::{FunctionBuilder, ModuleBuilder, Place, Terminator, Ty, VarRef};
    for v in edge_values() {
        let load = |fb: &mut FunctionBuilder| {
            let l = fb.local("v", v.ty(), 1, 1, None);
            fb.store(Place::scalar(VarRef::Local(l)), v, 2);
            fb.load(Place::scalar(VarRef::Local(l)), 3)
        };
        for op in UN_OPS {
            let ret = match op {
                mir::UnOp::Neg => v.ty(),
                mir::UnOp::ToF64 => Ty::F64,
                mir::UnOp::Not | mir::UnOp::ToI64 => Ty::I64,
            };
            let mut mb = ModuleBuilder::new("un");
            let mut fb = FunctionBuilder::new("main", Some(ret), 1);
            let r = load(&mut fb);
            let r = fb.un(op, r, 4);
            fb.terminate(Terminator::Return(Some(r.into())));
            mb.add_function(fb.build(5));
            let r = run_both_program(&Program::new(mb.build()), &format!("{op:?} {v:?}"));
            assert!(r.unwrap().ret.is_some());
        }
        // A branch on the value: NaN is truthy, -0.0 is not.
        let mut mb = ModuleBuilder::new("branch");
        let mut fb = FunctionBuilder::new("main", Some(Ty::I64), 1);
        let r = load(&mut fb);
        let (yes, no) = (fb.new_block(), fb.new_block());
        fb.terminate(Terminator::Branch {
            cond: r.into(),
            then_bb: yes,
            else_bb: no,
        });
        for (bb, ret) in [(yes, 1i64), (no, 0)] {
            fb.switch_to(bb);
            fb.terminate(Terminator::Return(Some(ret.into())));
        }
        mb.add_function(fb.build(5));
        let r = run_both_program(&Program::new(mb.build()), &format!("branch {v:?}"));
        let truthy = match v {
            mir::Value::I64(x) => x != 0,
            mir::Value::F64(x) => x != 0.0,
        };
        assert_eq!(r.unwrap().ret, Some(mir::Value::I64(i64::from(truthy))));
    }
}

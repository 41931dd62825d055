//! `analysis::Effects` against a reachability-search reference, bit for
//! bit, over the 55 catalogue programs and over generated modules with
//! recursion cycles, diamonds, `lock`/`unlock` and `spawn` sites.
//!
//! The reference finds each function's direct effects and call edges by
//! its own scan of the MIR, then searches the call graph from every
//! function: the callees are what the search reaches over one or more
//! edges, and the transitive reads, writes and locks are the union of the
//! direct ones over the function and everything it reaches. `Effects`
//! closes the graph by OR-ing rows instead, so the two share nothing but
//! the module.

use analysis::{Effects, SpawnSite};
use mir::{Instr, Module, Operand, Value, VarRef};
use std::collections::HashMap;

/// The reference's view of one module, one entry per function.
struct Reference {
    reads: Vec<Vec<bool>>,
    writes: Vec<Vec<bool>>,
    callees: Vec<Vec<bool>>,
    locks: Vec<bool>,
    spawns: Vec<SpawnSite>,
}

impl Reference {
    fn of(module: &Module) -> Reference {
        let (nf, ng) = (module.functions.len(), module.globals.len());
        let mut by_name = HashMap::new();
        for (fi, f) in module.functions.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_insert(fi);
        }
        let mut reads = vec![vec![false; ng]; nf];
        let mut writes = vec![vec![false; ng]; nf];
        let mut locks = vec![false; nf];
        let mut edges = vec![Vec::new(); nf];
        let mut spawns = Vec::new();
        for (fi, f) in module.functions.iter().enumerate() {
            for b in &f.blocks {
                for instr in &b.instrs {
                    match instr {
                        Instr::Load { place, .. } => {
                            if let VarRef::Global(g) = place.var {
                                reads[fi][g.index()] = true;
                            }
                        }
                        Instr::Store { place, .. } => {
                            if let VarRef::Global(g) = place.var {
                                writes[fi][g.index()] = true;
                            }
                        }
                        Instr::Call {
                            func, args, line, ..
                        } => match func.as_str() {
                            "lock" | "unlock" => locks[fi] = true,
                            "spawn" => {
                                if let Some(Operand::Const(Value::I64(t))) = args.first() {
                                    if (*t as usize) < nf {
                                        spawns.push(SpawnSite {
                                            caller: fi,
                                            target: *t as usize,
                                            line: *line,
                                        });
                                    }
                                }
                            }
                            name => edges[fi].extend(by_name.get(name).copied()),
                        },
                        _ => {}
                    }
                }
            }
        }
        let mut r = Reference {
            reads: reads.clone(),
            writes: writes.clone(),
            callees: vec![vec![false; nf]; nf],
            locks: locks.clone(),
            spawns,
        };
        for fi in 0..nf {
            let mut stack: Vec<usize> = edges[fi].clone();
            while let Some(h) = stack.pop() {
                if r.callees[fi][h] {
                    continue;
                }
                r.callees[fi][h] = true;
                for g in 0..ng {
                    r.reads[fi][g] |= reads[h][g];
                    r.writes[fi][g] |= writes[h][g];
                }
                r.locks[fi] |= locks[h];
                stack.extend(&edges[h]);
            }
        }
        r
    }

    /// Every row of `e` equals the reference's, bit for bit.
    fn check(&self, name: &str, e: &Effects) {
        let nf = self.locks.len();
        for (what, rows, want) in [
            ("reads", &e.reads, &self.reads),
            ("writes", &e.writes, &self.writes),
            ("callees", &e.callees, &self.callees),
        ] {
            assert_eq!(rows.rows(), nf, "{name}: {what} rows");
            for (f, row) in want.iter().enumerate() {
                assert_eq!(rows.width(), row.len(), "{name}: {what} width");
                let got: Vec<bool> = (0..row.len()).map(|c| rows.get(f, c)).collect();
                assert_eq!(&got, row, "{name}: {what} of function {f}");
            }
        }
        assert_eq!(e.locks, self.locks, "{name}: locks");
        assert_eq!(e.spawns, self.spawns, "{name}: spawns");
    }
}

#[test]
fn effects_match_the_reference_on_the_catalogue() {
    let all = workloads::all();
    assert_eq!(all.len(), 55);
    let (mut spawning, mut locking, mut cyclic) = (0, 0, 0);
    for w in all {
        let m = lang::compile(w.source, w.name).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let reference = Reference::of(&m);
        reference.check(w.name, &Effects::of(&m));
        spawning += usize::from(!reference.spawns.is_empty());
        locking += usize::from(reference.locks.iter().any(|&l| l));
        cyclic += usize::from((0..m.functions.len()).any(|f| reference.callees[f][f]));
        // The table a decoded program keeps is the same one.
        reference.check(w.name, interp::Program::new(m).effects());
    }
    assert!(spawning > 0 && locking > 0 && cyclic > 0);
}

/// SplitMix64, so a seed names a module.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// A module of `fns` functions over `globals` scalar globals (past one
/// 64-bit word when `globals` > 64). Each function reads and writes a few
/// globals and calls a few functions of any index — itself, earlier ones
/// (diamonds) and later ones (cycles) — and some lock or spawn.
fn generated(seed: u64) -> Module {
    let mut rng = Rng(seed);
    let fns = 2 + rng.below(14);
    let globals = 1 + rng.below(140);
    let mut src = String::new();
    for g in 0..globals {
        src.push_str(&format!("global int g{g};\n"));
    }
    for f in 0..fns {
        src.push_str(&format!("fn f{f}() {{\n"));
        for _ in 0..rng.below(5) {
            let (a, b) = (rng.below(globals), rng.below(globals));
            src.push_str(&format!("    g{a} = g{b} + 1;\n"));
        }
        for _ in 0..rng.below(4) {
            src.push_str(&format!("    f{}();\n", rng.below(fns)));
        }
        match rng.below(6) {
            0 => src.push_str("    lock(0);\n    g0 = g0 + 1;\n    unlock(0);\n"),
            1 => src.push_str(&format!(
                "    int t = spawn(f{});\n    join(t);\n",
                rng.below(fns)
            )),
            _ => {}
        }
        src.push_str("}\n");
    }
    src.push_str(&format!("fn main() {{\n    f{}();\n}}\n", rng.below(fns)));
    lang::compile(&src, "generated").unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"))
}

#[test]
fn effects_match_the_reference_on_generated_modules() {
    let (mut cyclic, mut spawning, mut locking, mut wide) = (0, 0, 0, 0);
    for seed in 0..300 {
        let m = generated(seed);
        let reference = Reference::of(&m);
        reference.check(&format!("seed {seed}"), &Effects::of(&m));
        cyclic += usize::from((0..m.functions.len()).any(|f| reference.callees[f][f]));
        spawning += usize::from(!reference.spawns.is_empty());
        locking += usize::from(reference.locks.iter().any(|&l| l));
        wide += usize::from(m.globals.len() > 64);
    }
    assert!(cyclic > 100 && spawning > 50 && locking > 50 && wide > 100);
}

//! Transitive call-graph effects: which globals each function may read or
//! write (directly or through calls), which user functions it may reach,
//! and where threads are spawned. Guards the independence claims against
//! callee side effects and recursion, feeds the static race lint, and —
//! kept by `interp::Program` — discovery's sibling-call grouping.
//!
//! Every set is one packed bit row per function ([`BitRows`]). The pass is
//! linear in the module: one scan of the instructions finds the direct
//! effects and call edges, then each round ORs every callee's rows into its
//! caller's, word by word, visiting callees before callers. An acyclic call
//! graph is closed after the first round (the second only confirms it);
//! recursion cycles take a few more. A round costs one OR per call edge and
//! row word.

use crate::bits::BitRows;
use mir::{Instr, Module, Operand, Place, Value, VarRef};
use std::collections::HashMap;

/// A statically-resolved `spawn` site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpawnSite {
    /// Function containing the spawn call.
    pub caller: usize,
    /// Spawned entry function.
    pub target: usize,
    /// Source line of the spawn.
    pub line: u32,
}

/// The one name → index table of a module's functions: a call resolves to
/// the first function of its name, as [`Module::function`] does.
#[derive(Debug)]
pub struct FunctionIndex<'m> {
    by_name: HashMap<&'m str, usize>,
}

impl<'m> FunctionIndex<'m> {
    /// Index every function of `module` by name.
    pub fn of(module: &'m Module) -> FunctionIndex<'m> {
        let mut by_name = HashMap::with_capacity(module.functions.len());
        for (fi, f) in module.functions.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_insert(fi);
        }
        FunctionIndex { by_name }
    }

    /// The function a call to `name` runs, if it is a user function.
    pub fn get(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }
}

/// Module-wide transitive effect sets, one packed bit row per function.
#[derive(Debug, Clone, Default)]
pub struct Effects {
    /// Row `f`, bit `g`: calling `f` may store to global `g`.
    pub writes: BitRows,
    /// Row `f`, bit `g`: calling `f` may load global `g`.
    pub reads: BitRows,
    /// Row `f`, bit `h`: `f` may (transitively) call user function `h`.
    pub callees: BitRows,
    /// `locks[f]`: `f` (transitively) calls `lock`/`unlock`.
    pub locks: Vec<bool>,
    /// All statically-resolved spawn sites, in program order.
    pub spawns: Vec<SpawnSite>,
}

impl Effects {
    /// The effects of every function of `module`, closed over the call
    /// graph (acyclic or cyclic).
    pub fn of(module: &Module) -> Effects {
        Effects::resolved(module, &FunctionIndex::of(module))
    }

    /// [`Effects::of`], resolving calls through `index`.
    pub fn resolved(module: &Module, index: &FunctionIndex<'_>) -> Effects {
        let nf = module.functions.len();
        let ng = module.globals.len();
        let mut e = Effects {
            writes: BitRows::new(nf, ng),
            reads: BitRows::new(nf, ng),
            callees: BitRows::new(nf, nf),
            locks: vec![false; nf],
            spawns: Vec::new(),
        };
        // Direct effects and call edges, one edge per distinct callee.
        let mut calls: Vec<Vec<usize>> = vec![Vec::new(); nf];
        for (fi, f) in module.functions.iter().enumerate() {
            for b in &f.blocks {
                for instr in &b.instrs {
                    match instr {
                        Instr::Load {
                            place:
                                Place {
                                    var: VarRef::Global(g),
                                    ..
                                },
                            ..
                        } => e.reads.set(fi, g.index()),
                        Instr::Store {
                            place:
                                Place {
                                    var: VarRef::Global(g),
                                    ..
                                },
                            ..
                        } => e.writes.set(fi, g.index()),
                        Instr::Call {
                            func, args, line, ..
                        } => {
                            if func == "lock" || func == "unlock" {
                                e.locks[fi] = true;
                            } else if func == "spawn" {
                                // The frontend resolves the target to a
                                // constant function index.
                                if let Some(Operand::Const(Value::I64(t))) = args.first() {
                                    let t = *t as usize;
                                    if t < nf {
                                        e.spawns.push(SpawnSite {
                                            caller: fi,
                                            target: t,
                                            line: *line,
                                        });
                                    }
                                }
                            } else if let Some(target) = index.get(func) {
                                if !e.callees.get(fi, target) {
                                    e.callees.set(fi, target);
                                    calls[fi].push(target);
                                }
                            }
                            // Other builtins touch no program memory.
                        }
                        _ => {}
                    }
                }
            }
        }
        // Transitive closure: OR callee rows into caller rows, callees
        // first, until no row changes.
        let order = callees_first(&calls);
        let mut changed = true;
        while changed {
            changed = false;
            for &f in &order {
                for &h in &calls[f] {
                    changed |= e.callees.or_row(f, h);
                    changed |= e.writes.or_row(f, h);
                    changed |= e.reads.or_row(f, h);
                    if e.locks[h] && !e.locks[f] {
                        e.locks[f] = true;
                        changed = true;
                    }
                }
            }
        }
        e
    }

    /// Heap bytes held by the effect table.
    pub fn heap_bytes(&self) -> usize {
        self.writes.heap_bytes()
            + self.reads.heap_bytes()
            + self.callees.heap_bytes()
            + self.locks.capacity()
            + self.spawns.capacity() * std::mem::size_of::<SpawnSite>()
    }
}

/// Every function once, each after the functions it calls unless a cycle
/// runs back to it: the post-order of a depth-first walk of the call edges.
fn callees_first(calls: &[Vec<usize>]) -> Vec<usize> {
    let mut seen = vec![false; calls.len()];
    let mut order = Vec::with_capacity(calls.len());
    // (function, index of its next call edge to follow)
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for root in 0..calls.len() {
        if seen[root] {
            continue;
        }
        seen[root] = true;
        stack.push((root, 0));
        while let Some(top) = stack.last_mut() {
            let (f, next) = *top;
            match calls[f].get(next) {
                Some(&h) => {
                    top.1 += 1;
                    if !seen[h] {
                        seen[h] = true;
                        stack.push((h, 0));
                    }
                }
                None => {
                    order.push(f);
                    stack.pop();
                }
            }
        }
    }
    order
}

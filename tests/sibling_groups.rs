//! Sibling-call groups against the pairwise predicate they replace. For
//! every `SiblingCalls` group `discover` reports, over the catalogue and
//! over generated programs that mix independent calls with calls chained
//! through a shared global or a local value:
//!
//! 1. every pair of its call sites is independent under the pairwise
//!    predicate, kept here as the oracle: distinct lines, no RAW from the
//!    earlier line to the later one, and Bernstein on the callees'
//!    transitive global read/write sets;
//! 2. it is a contiguous run of its function's call sites, and maximal: the
//!    site after it conflicts with some member;
//! 3. no call site belongs to two groups.

use cu::DepIndex;
use discovery::{discover, SpmdKind};
use interp::Program;
use mir::{Instr, VarRef};
use std::collections::{BTreeSet, HashMap};

/// The pairwise oracle's view of one program: every function's call sites
/// to user functions, in instruction order, and every function's
/// transitive global reads and writes.
struct Oracle {
    sites: Vec<Vec<(u32, usize)>>,
    reads: Vec<BTreeSet<u32>>,
    writes: Vec<BTreeSet<u32>>,
}

impl Oracle {
    fn new(program: &Program) -> Oracle {
        let functions = &program.module.functions;
        let mut by_name = HashMap::new();
        for (fi, f) in functions.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_insert(fi);
        }
        let mut sites = vec![Vec::new(); functions.len()];
        let mut direct = vec![(BTreeSet::new(), BTreeSet::new()); functions.len()];
        for (fi, f) in functions.iter().enumerate() {
            for (_, b) in f.iter_blocks() {
                for i in &b.instrs {
                    match i {
                        Instr::Call { func, line, .. } => {
                            if let Some(&callee) = by_name.get(func.as_str()) {
                                sites[fi].push((*line, callee));
                            }
                        }
                        Instr::Load { place, .. } => {
                            if let VarRef::Global(g) = place.var {
                                direct[fi].0.insert(g.0);
                            }
                        }
                        Instr::Store { place, .. } => {
                            if let VarRef::Global(g) = place.var {
                                direct[fi].1.insert(g.0);
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        // Transitive sets: the union over every function reachable from
        // `fi` in the call graph, found by a search from each function.
        let (mut reads, mut writes) = (Vec::new(), Vec::new());
        for fi in 0..functions.len() {
            let (mut r, mut w) = (BTreeSet::new(), BTreeSet::new());
            let mut seen = vec![false; functions.len()];
            let mut stack = vec![fi];
            seen[fi] = true;
            while let Some(f) = stack.pop() {
                r.extend(&direct[f].0);
                w.extend(&direct[f].1);
                for &(_, c) in &sites[f] {
                    if !seen[c] {
                        seen[c] = true;
                        stack.push(c);
                    }
                }
            }
            reads.push(r);
            writes.push(w);
        }
        Oracle {
            sites,
            reads,
            writes,
        }
    }

    /// The pairwise predicate: may the calls at sites `a` and `b` run as
    /// concurrent tasks?
    fn independent(&self, index: &DepIndex, a: (u32, usize), b: (u32, usize)) -> bool {
        let ((la, ca), (lb, cb)) = (a, b);
        la != lb
            && !index.has_raw(la.min(lb), la.max(lb))
            && self.writes[ca].is_disjoint(&self.reads[cb])
            && self.reads[ca].is_disjoint(&self.writes[cb])
            && self.writes[ca].is_disjoint(&self.writes[cb])
    }
}

/// Check every sibling group of `program` against the oracle; returns the
/// number of groups seen and how many of them a conflicting site closed.
fn check(name: &str, program: &Program) -> (usize, usize) {
    let out = profiler::profile_program(program).unwrap_or_else(|e| panic!("{name}: {e}"));
    let found = discover(program, &out.deps, &out.pet);
    let index = DepIndex::new(program, &out.deps);
    let oracle = Oracle::new(program);

    // Per function: the site ranges the groups cover, in emission order.
    let mut covered: Vec<Vec<(usize, usize)>> = vec![Vec::new(); oracle.sites.len()];
    let (mut groups, mut closed) = (0, 0);
    for g in found
        .spmd
        .iter()
        .filter(|s| s.kind == SpmdKind::SiblingCalls)
    {
        groups += 1;
        let sites = &oracle.sites[g.func as usize];
        assert!(g.lines.len() >= 2, "{name}: {g:?}");
        // Contiguous: the group's lines are a run of the function's sites.
        let start = (0..sites.len())
            .find(|&s| {
                sites[s..]
                    .iter()
                    .map(|&(line, _)| line)
                    .take(g.lines.len())
                    .eq(g.lines.iter().copied())
            })
            .unwrap_or_else(|| panic!("{name}: {g:?} is not a run of {sites:?}"));
        let end = start + g.lines.len();
        let members = &sites[start..end];

        let mut callees: Vec<&str> = members
            .iter()
            .map(|&(_, c)| program.module.functions[c].name.as_str())
            .collect();
        callees.sort_unstable();
        callees.dedup();
        assert_eq!(g.callees, callees, "{name}: {g:?}");

        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                assert!(
                    oracle.independent(&index, a, b),
                    "{name}: sites {a:?} and {b:?} of {g:?} are not independent"
                );
            }
        }
        if let Some(&next) = sites.get(end) {
            closed += 1;
            assert!(
                members
                    .iter()
                    .any(|&m| !oracle.independent(&index, m, next)),
                "{name}: {g:?} is not maximal: site {next:?} after it is independent of every member"
            );
        }
        covered[g.func as usize].push((start, end));
    }
    // No site in two groups: each function's runs are disjoint.
    for runs in &covered {
        let mut sorted = runs.clone();
        sorted.sort_unstable();
        assert!(
            sorted.windows(2).all(|w| w[0].1 <= w[1].0),
            "{name}: overlapping groups {sorted:?}"
        );
    }
    (groups, closed)
}

#[test]
fn catalogue_sibling_groups_agree_with_the_pairwise_predicate() {
    let (mut groups, mut programs) = (0, 0);
    for w in workloads::all() {
        groups += check(w.name, &w.program().unwrap()).0;
        programs += 1;
    }
    assert_eq!(programs, 55);
    // fib, strassen, libvorbis and facedetection have one group each.
    assert_eq!(groups, 4);
}

/// SplitMix64.
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

/// A program of `n` small functions and two callers, `main` and `driver`,
/// that call them in a seeded order. A function writes its own global,
/// accumulates into the shared global `acc`, reads another function's
/// global, writes another's, or calls a lower-numbered function. A call
/// site takes a constant or the result of an earlier call (local flow), and
/// some lines hold two calls.
fn generated(seed: u64, n: usize) -> String {
    let mut rng = Rng(seed);
    let mut src = String::from("global int acc;\n");
    for i in 0..n {
        src.push_str(&format!("global int g{i}[4];\n"));
    }
    for i in 0..n {
        let j = rng.below(n);
        let body = match rng.below(if i == 0 { 4 } else { 5 }) {
            0 => format!("    g{i}[0] = x + {i};\n    return x;\n"),
            1 => "    acc = acc + x;\n    return acc;\n".to_string(),
            2 => format!("    return g{j}[0] + x;\n"),
            3 => format!("    g{j}[1] = x;\n    return 0;\n"),
            _ => format!("    return f{}(x) + 1;\n", j % i),
        };
        src.push_str(&format!("fn f{i}(int x) -> int {{\n{body}}}\n"));
    }
    for caller in ["driver", "main"] {
        src.push_str(&format!("fn {caller}() {{\n    int v0 = 1;\n"));
        let calls = 4 + rng.below(2 * n);
        for k in 1..=calls {
            let f = rng.below(n);
            let arg = match rng.below(3) {
                0 => format!("v{}", rng.below(k)),
                _ => format!("{k}"),
            };
            let rhs = match rng.below(6) {
                0 => format!("f{f}({arg}) + f{}(2)", rng.below(n)),
                _ => format!("f{f}({arg})"),
            };
            src.push_str(&format!("    int v{k} = {rhs};\n"));
        }
        if caller == "main" {
            src.push_str("    driver();\n");
        }
        src.push_str(&format!("    print(v{calls});\n}}\n"));
    }
    src
}

#[test]
fn generated_sibling_groups_agree_with_the_pairwise_predicate() {
    let (mut groups, mut closed) = (0, 0);
    for seed in 0..60 {
        let src = generated(seed, 3 + seed as usize % 10);
        let name = format!("generated seed {seed}");
        let program = Program::new(
            lang::compile(&src, "gen").unwrap_or_else(|e| panic!("{name}: {e}\n{src}")),
        );
        let (g, c) = check(&name, &program);
        groups += g;
        closed += c;
    }
    // The generator must exercise both outcomes: groups form, and chains
    // close them.
    assert!(
        groups >= 300 && closed >= 250,
        "{groups} groups, {closed} closed"
    );
}
